"""One-dimensional spectral element infrastructure.

Gauss-Lobatto quadrature rules, uniform C0 meshes with Neumann or periodic
topology, the diagonal (quadrature-lumped) mass vector and the stiffness
matrix.  Global nodes are ordered left to right with shared element-boundary
nodes stored once, so the stiffness matrix is banded with bandwidth equal to
the polynomial degree (plus two corner blocks in the periodic case).

A mesh keeps the element stiffness matrix.  The global one is assembled as a
scipy sparse matrix on first access of ``Mesh1D.stiffness``, for SuperLU on
degree >= 2 meshes and for the tests; a degree-1 mesh gives its bands as
numpy arrays, with the same bits, so that a degree-1 run never imports scipy.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import legendre as npleg

MAX_DEGREE = 16

NEUMANN = "neumann"
PERIODIC = "periodic"


def gauss_lobatto(k: int) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the (k+1)-point Gauss-Lobatto rule on [-1, 1],
    exact through degree 2k-1."""
    if not isinstance(k, (int, np.integer)) or not 1 <= k <= MAX_DEGREE:
        raise ValueError(f"unsupported degree k={k}: need integer 1 <= k <= {MAX_DEGREE}")
    k = int(k)
    ck = np.zeros(k + 1)
    ck[k] = 1.0  # Legendre coefficient vector of P_k
    dk = npleg.legder(ck)
    interior = np.sort(npleg.legroots(dk).real)  # none at k = 1, where P_1' is constant
    d2k = npleg.legder(dk)
    for _ in range(3):  # Newton polish of the companion-matrix roots
        interior = interior - npleg.legval(interior, dk) / npleg.legval(interior, d2k)
    nodes = np.concatenate(([-1.0], interior, [1.0]))
    nodes = 0.5 * (nodes - nodes[::-1])  # enforce exact symmetry
    pk = npleg.legval(nodes, ck)
    weights = 2.0 / (k * (k + 1) * pk * pk)
    weights = 0.5 * (weights + weights[::-1])
    return nodes, weights


def lagrange_diff_matrix(nodes: np.ndarray) -> np.ndarray:
    """Differentiation matrix D[q, j] = L_j'(nodes[q]) for the nodal Lagrange basis.

    Built from barycentric weights; diagonal entries balance each row so
    constants differentiate to zero (up to rounding in the row sums).
    """
    nodes = np.asarray(nodes, dtype=float)
    n = nodes.size
    bary = np.empty(n)
    for j in range(n):
        bary[j] = 1.0 / np.prod(nodes[j] - np.delete(nodes, j))
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                D[i, j] = (bary[j] / bary[i]) / (nodes[i] - nodes[j])
        D[i, i] = -np.sum(D[i, :])
    return D


@dataclass(frozen=True, eq=False)
class Mesh1D:
    """Uniform C0 spectral-element mesh on [a, b].

    ``coords`` holds one coordinate per global unknown: M*k+1 nodes for
    Neumann topology, M*k for periodic (the right endpoint is identified
    with the left).  ``conn[e, i]`` maps element-local node i of element e
    to its global index, and ``weights[i]`` is its quadrature weight in every
    element: the Gauss-Lobatto weight scaled by half the element length.
    ``k_loc`` is the element stiffness matrix, the same in every element.
    """

    a: float
    b: float
    num_elements: int
    degree: int
    topology: str
    weights: np.ndarray
    coords: np.ndarray
    mass: np.ndarray
    k_loc: np.ndarray
    conn: np.ndarray
    element_length: float
    diff: np.ndarray
    node_multiplicity: np.ndarray

    @property
    def num_nodes(self) -> int:
        return self.coords.size

    @cached_property
    def stiffness(self):
        """The global stiffness matrix, a scipy CSR matrix assembled from
        ``k_loc`` on first access and kept as long as the mesh."""
        import scipy.sparse as sparse

        k = self.degree
        n = self.num_nodes
        rows = np.repeat(self.conn, k + 1, axis=1).ravel()
        cols = np.tile(self.conn, (1, k + 1)).ravel()
        data = np.tile(self.k_loc.ravel(), self.num_elements)
        return sparse.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()

    def stiffness_bands(self) -> tuple[np.ndarray, np.ndarray, float]:
        """A degree-1 mesh: the stiffness matrix's diagonal, first superdiagonal
        (equal to its first subdiagonal) and corner K[0, n-1] (0.0 on a Neumann
        mesh), with the bits of ``stiffness``: each entry sums the same one or
        two element entries, and at n = 2 K[0, 1] is the off-diagonal plus the
        corner."""
        if self.degree != 1:
            raise ValueError("stiffness bands are for degree-1 meshes")
        k = self.k_loc
        diagonal = np.zeros(self.num_nodes)
        diagonal[self.conn[:, 0]] += k[0, 0]
        diagonal[self.conn[:, 1]] += k[1, 1]
        off = np.full(self.num_nodes - 1, k[0, 1])
        # the last periodic element joins node n-1 (local 0) to node 0 (local
        # 1); a numpy float, as the sparse matrix's entry is, so that complex
        # products with it are numpy's on every Python version
        corner = k[1, 0] if self.topology == PERIODIC else 0.0
        return diagonal, off, corner


def build_mesh(a: float, b: float, num_elements: int, degree: int,
               topology: str = NEUMANN) -> Mesh1D:
    """Assemble a uniform mesh with (degree+1)-point Gauss-Lobatto elements."""
    if not b > a:
        raise ValueError(f"degenerate domain [{a}, {b}]")
    if topology not in (NEUMANN, PERIODIC):
        raise ValueError(f"unknown topology {topology!r}")
    min_elems = 2 if topology == PERIODIC else 1
    if num_elements < min_elems:
        raise ValueError(f"need at least {min_elems} elements for {topology} topology, "
                         f"got {num_elements}")
    nodes, w = gauss_lobatto(degree)
    k = nodes.size - 1
    M = int(num_elements)
    h_e = (b - a) / M
    n = M * k + (0 if topology == PERIODIC else 1)

    conn = np.arange(M)[:, None] * k + np.arange(k + 1)[None, :]
    if topology == PERIODIC:
        conn = conn % n

    coords = np.empty(n)
    elem_x = a + np.arange(M)[:, None] * h_e + 0.5 * (nodes[None, :] + 1.0) * h_e
    coords[conn.ravel()] = elem_x.ravel()
    coords[0] = a  # wraparound assignment above may have left coords[0] = b

    weights = 0.5 * h_e * w
    mass = np.zeros(n)
    np.add.at(mass, conn, np.broadcast_to(weights, conn.shape))

    D = lagrange_diff_matrix(nodes)
    k_loc = (2.0 / h_e) * (D.T @ (w[:, None] * D))
    k_loc = 0.5 * (k_loc + k_loc.T)  # exact symmetry

    multiplicity = np.zeros(n)
    np.add.at(multiplicity, conn, 1.0)

    return Mesh1D(a=float(a), b=float(b), num_elements=M, degree=k,
                  topology=topology, weights=weights, coords=coords, mass=mass,
                  k_loc=k_loc, conn=conn, element_length=h_e,
                  diff=D, node_multiplicity=multiplicity)


def element_derivatives(mesh: Mesh1D, values: np.ndarray) -> np.ndarray:
    """Per-element derivative of the nodal field; entry [e, i] is the one-sided
    derivative at local node i of element e."""
    elem_vals = values[mesh.conn]
    return (2.0 / mesh.element_length) * (elem_vals @ mesh.diff.T)


def nodal_derivative(mesh: Mesh1D, values: np.ndarray) -> np.ndarray:
    """Nodal derivative; the one-sided values of adjacent elements are averaged
    at shared element-boundary nodes."""
    d = element_derivatives(mesh, values)
    out = np.zeros(mesh.num_nodes, dtype=d.dtype)
    np.add.at(out, mesh.conn, d)
    return out / mesh.node_multiplicity
