"""Outside-in layer tracing: wrap eigeniso's public layer functions.

Nothing in ``src/`` knows about tracing.  While a :class:`Tracer` is
installed, every module-level name on the solve path that refers to a traced
function is replaced by a timing wrapper; that is where the solver looks the
functions up (``solver`` imports ``eigendecompose``, ``solve_lap`` and the
rest into its own namespace, so patching ``eigeniso.<name>`` would catch
nothing).  Each wrapper records calls and *self* time: its own duration
minus the time its traced children took.  The self times of all layers
therefore add up to the traced time of ``is_isomorphic``.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter

from eigeniso import assignment, graph, solver, spectral

# Layer -> traced functions, each defined in the module of that name.
LAYERS = {
    "spectral": ("eigendecompose", "group_eigenvalues", "projection", "spectral_distance"),
    "solver": ("is_isomorphic", "build_cost_matrix"),
    "assignment": ("solve_lap", "is_unique_zero_assignment"),
    "graph": ("perturb", "is_exact_isomorphism"),
}
MODULES = {"spectral": spectral, "solver": solver, "assignment": assignment, "graph": graph}
ROOT_SPAN = "solver.is_isomorphic"


class Tracer:
    """Calls, self time and funnel counts per traced function.

    ``eps`` is the solver tolerance the funnel ratios compare against.
    """

    def __init__(self, eps: float) -> None:
        self.eps = eps
        self.calls = {f"{m}.{f}": 0 for m, fs in LAYERS.items() for f in fs}
        self.self_s = dict.fromkeys(self.calls, 0.0)
        self.funnel = {
            "quick_rejects": 0,
            "zero_cost_laps": 0,
            "unique_laps": 0,
            "verify_fails": 0,
        }
        self._child_s: list[float] = []

    def _observe(self, key: str, result) -> None:
        if key == "spectral.spectral_distance" and result > self.eps:
            self.funnel["quick_rejects"] += 1
        elif key == "assignment.solve_lap" and result.cost < self.eps:
            self.funnel["zero_cost_laps"] += 1
            self.funnel["unique_laps"] += bool(result.unique)
        elif key == "graph.is_exact_isomorphism" and not result:
            self.funnel["verify_fails"] += 1

    def _wrap(self, key: str, fn):
        child_s = self._child_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_s.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = perf_counter() - t0
                self.calls[key] += 1
                self.self_s[key] += took - child_s.pop()
                if child_s:
                    child_s[-1] += took
            self._observe(key, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every solve-path reference to a traced function; undo on exit."""
        saved = []
        try:
            for layer, names in LAYERS.items():
                for name in names:
                    original = getattr(MODULES[layer], name)
                    wrapper = self._wrap(f"{layer}.{name}", original)
                    for module in MODULES.values():
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                saved.append((module, attr, value))
                                setattr(module, attr, wrapper)
            yield
        finally:
            for module, attr, value in reversed(saved):
                setattr(module, attr, value)
