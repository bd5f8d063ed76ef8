"""Span tracing from outside the program, and the per-layer metrics built on it.

`Tracer.install` replaces public functions of the swnls modules with wrappers
that record one span per call: [name, start, end, parent, attr], where parent
is the index of the enclosing span (-1 for none) and attr carries what a
metric needs from the call's arguments.  The wrappers are placed where the
callers look the names up:

- `nls.strang_step` calls `potential_half_step` and `dispersive_step`
  through the `nls` module globals;
- `nls.run` calls `recover`, which `nls` imported, so it is wrapped in `nls`;
  it imports `diagnostics.energy` at call time;
- `app.run_and_write` calls `nls.run`, `reference_samples`, `emit_snapshot`
  and `serialize_scenario` through `app` globals; `cli_main` calls
  `parse_scenario` through `_resolve_scenario`.

A span's layer is the prefix of its name before the first dot.  A target
that the program no longer has is left unwrapped and listed in
`Tracer.missing`; `layers.layer_metrics` then reports the metrics that
depend on it as missing.  This module imports nothing but `time`, so loading
it before `import swnls` does not shorten the measured import.
"""
from __future__ import annotations

from time import perf_counter

ROOT = "app.cli"
ERROR = "diagnostics.error"

# (module, attribute, span name)
TARGETS = (
    ("swnls.mesh", "build_mesh", "mesh.build"),
    ("swnls.madelung", "init_riemann", "madelung.init"),
    ("swnls.madelung", "init_softplus_surface", "madelung.init"),
    ("swnls.nls", "recover", "madelung.recover"),
    ("swnls.nls", "run", "nls.run"),
    ("swnls.nls", "strang_step", "nls.step"),
    ("swnls.nls", "potential_half_step", "nls.potential"),
    ("swnls.nls", "dispersive_step", "nls.dispersive"),
    ("swnls.app", "reference_samples", "exact.sample"),
    ("swnls.diagnostics", "energy", "diagnostics.energy"),
    ("swnls.app", "parse_scenario", "app.parse"),
    ("swnls.app", "run_and_write", "app.run_and_write"),
    ("swnls.app", "serialize_scenario", "app.serialize"),
    ("swnls.app", "emit_snapshot", "app.emit"),
)


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self.missing = []  # "module.attribute" of targets the program lacks
        self._factorized = set()  # (id(mesh), tau) pairs seen in the current nls.run
        self._t0 = perf_counter()

    def _attr(self, name, args, kwargs):
        if name == "nls.run":
            self._factorized.clear()
        elif name == "nls.potential":
            # computed minimum traffic: psi in and out (complex128), b, and
            # sigma when a sponge is present (float64)
            wave, sponge = args[0], args[2]
            n = wave.psi.size
            return n * (16 + 16 + 8 + (8 if sponge is not None else 0))
        elif name == "nls.dispersive":
            # dispersive_step(wave, mesh, cfg, tau=None)
            mesh, cfg = args[1], args[2]
            tau = args[3] if len(args) > 3 else kwargs.get("tau")
            key = (id(mesh), float(cfg.dt if tau is None else tau))
            if key not in self._factorized:
                self._factorized.add(key)
                return 1
            return 0
        return None

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            attr = self._attr(name, args, kwargs)
            record = [name, perf_counter() - self._t0, 0.0,
                      stack[-1] if stack else -1, attr]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter() - self._t0
                stack.pop()

        return traced

    def install(self, modules: dict) -> None:
        for module_name, attr, name in TARGETS:
            module = modules[module_name]
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def call(self, name, fn, *args, **kwargs):
        """Call fn inside a span of the given name (used for the root spans)."""
        return self._wrap(name, fn)(*args, **kwargs)
