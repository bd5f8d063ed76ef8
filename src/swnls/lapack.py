"""The three LAPACK and BLAS routines of the degree-1 dispersive solve, called
through ctypes: ``zgttrf`` (LU of a tridiagonal matrix), ``ztbsv`` (a banded
triangular solve) and ``zaxpy`` (y += a*x).

Two sources give the same routines, and ``LIBRARY`` is the first present:

- ``"numpy-openblas"``: the OpenBLAS that numpy's Linux wheel loads,
  ``numpy.libs/libscipy_openblas64_*.so``, with 64-bit integers.  Binding it
  loads nothing numpy has not loaded already.
- ``"scipy-cython"``: the function pointers scipy exports in the capsules of
  ``scipy.linalg.cython_lapack`` and ``cython_blas``, with 32-bit integers,
  for installs without that library (numpy < 2, conda or MKL builds, macOS,
  Windows).  It imports ``scipy.linalg``.

Both take every argument by address, the Fortran convention, so the calls
are one path and only the pointer source and the integer width differ.
``BACKEND`` names the source in use.  ``Library.bind`` binds a routine's
arguments once, for a call made again and again on the same buffers: the
degree-1 solve costs about 120 us on 8000 nodes, and taking the arrays'
addresses on every call added 7-9 us of it.
"""
from __future__ import annotations

import ctypes
import functools
import glob
import os
from typing import Callable, Optional

import numpy as np

# every argument is a pointer: ztbsv has 9, zgttrf 7 and zaxpy 6
_ROUTINE = {count: ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * count) for count in (6, 7, 9)}


class Library:
    """zgttrf, ztbsv and zaxpy from one source, as ctypes function pointers,
    and the width of the source's integers."""

    def __init__(self, name: str, integer: type, zgttrf: int, ztbsv: int, zaxpy: int):
        self.name = name
        self.integer = np.dtype(integer)
        self._zgttrf = _ROUTINE[7](zgttrf)
        self.ztbsv = _ROUTINE[9](ztbsv)
        self.zaxpy = _ROUTINE[6](zaxpy)

    def _pointer(self, arg) -> ctypes.c_void_p:
        """arg's address: an int as the source's integer, a byte string as
        characters, an array at its data.  The pointer keeps the memory it
        points to alive."""
        if isinstance(arg, int):
            arg = np.array([arg], dtype=self.integer)
        elif isinstance(arg, bytes):
            arg = np.frombuffer(arg, dtype=np.uint8)
        elif not arg.flags.forc:
            raise ValueError("LAPACK and BLAS arrays must be contiguous")
        # not arg.ctypes.data_as: its pointer is in a reference cycle, which
        # keeps every bound array of a discarded call until the collector runs
        pointer = ctypes.c_void_p(arg.ctypes.data)
        pointer.memory = arg
        return pointer

    def bind(self, routine: Callable, *args) -> Callable[[], None]:
        """The call routine(*args) with every argument's address taken here,
        once; an array argument is read and written in its memory on each
        call, and kept alive as long as the call is."""
        return functools.partial(routine, *map(self._pointer, args))

    def zgttrf(self, dl: np.ndarray, d: np.ndarray, du: np.ndarray) -> tuple[np.ndarray, int]:
        """LU factorization with partial pivoting of the tridiagonal matrix
        with sub-, main and superdiagonal dl, d and du, in their memory: the
        multipliers of L in dl, the diagonal of U in d and its first
        superdiagonal in du.  Returns LAPACK's 1-based pivot indices and its
        ``info``, which is k > 0 when U's k-th pivot is exactly zero."""
        n = d.size
        for band, size in ((dl, n - 1), (d, n), (du, n - 1)):
            if band.dtype != np.complex128 or band.ndim != 1 or band.size != size:
                raise ValueError(f"zgttrf needs complex128 bands of {n - 1}, {n} and {n - 1}")
        du2 = np.empty(max(n - 2, 1), dtype=np.complex128)
        ipiv = np.empty(n, dtype=self.integer)
        info = np.zeros(1, dtype=self.integer)
        self.bind(self._zgttrf, n, dl, d, du, du2, ipiv, info)()
        return ipiv, int(info[0])


def _numpy_openblas() -> Optional[Library]:
    """The routines of the 64-bit-integer OpenBLAS in numpy's Linux wheel, or None."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    found = sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")))
    if not found:
        return None
    try:
        lib = ctypes.CDLL(found[0])
        config = lib.scipy_openblas_get_config64_
        routines = (lib.scipy_zgttrf_64_, lib.scipy_ztbsv_64_, lib.scipy_zaxpy_64_)
    except (OSError, AttributeError):
        return None
    config.restype, config.argtypes = ctypes.c_char_p, []
    if b"USE64BITINT" not in config():
        return None
    return Library("numpy-openblas", np.int64,
                   *(ctypes.cast(r, ctypes.c_void_p).value for r in routines))


def _scipy_cython() -> Library:
    """The routines whose function pointers scipy exports for Cython."""
    from scipy.linalg import cython_blas, cython_lapack

    api = ctypes.pythonapi
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))

    def address(module, routine: str) -> int:
        capsule = module.__pyx_capi__[routine]
        return pointer(capsule, name(capsule))

    return Library("scipy-cython", np.intc, address(cython_lapack, "zgttrf"),
                   address(cython_blas, "ztbsv"), address(cython_blas, "zaxpy"))


LIBRARY = _numpy_openblas() or _scipy_cython()
BACKEND = LIBRARY.name
