"""Per-layer spans recorded from outside the package.

The tracer wraps the functions at each layer boundary of ``ssdopt`` (the
public entry points of every module, plus the shared solver loop and line
search of ``ssdopt.ssd``) and rebinds every reference to them inside the
package, so calls made through ``from .x import f`` are seen too.  A span's
self time is its duration minus the spans it encloses; summed per module it
splits the traced wall time across layers.  Nothing in the package is
edited, and ``uninstall`` puts every original back.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Dict, List, Tuple

import ssdopt  # noqa: F401  (loads every module the boundaries name)

HARNESS = "harness"

# (layer, owner, attribute).  Owners are module names or "module:Class".
# Names absent from the package are skipped, so a refactor that removes a
# private helper moves its time to the caller instead of breaking the run.
BOUNDARIES: List[Tuple[str, str, str]] = [
    ("sketch", "ssdopt.sketch", name)
    for name in ("draw", "draw_haar", "draw_coordinate_block", "draw_gaussian",
                 "sample_haar", "sample_gaussian")
] + [
    ("oracle", "ssdopt.oracle", "directional_derivatives"),
    ("oracle", "ssdopt.oracle", "full_gradient_fd"),
    ("problems", "ssdopt.problems:Objective", "evaluate"),
    ("ssd", "ssdopt.ssd", "run_ssd"),
    ("ssd", "ssdopt.ssd", "ssd_step"),
    ("ssd", "ssdopt.ssd", "_loop"),
    ("ssd", "ssdopt.ssd", "_armijo"),
    ("vrssd", "ssdopt.vrssd", "run_vrssd"),
    ("vrssd", "ssdopt.vrssd", "vrssd_inner_step"),
    ("baselines", "ssdopt.baselines", "run_fd_gd"),
    ("baselines", "ssdopt.baselines", "run_fd_bfgs"),
] + [
    ("bench", "ssdopt.bench", name)
    for name in ("run_experiment", "performance_profile", "profile_from_counts",
                 "evals_to_threshold", "estimate_linear_rate", "export_traces",
                 "import_traces")
] + [("bench", "ssdopt.bench:ProblemSpec", "build")]

LAYERS = ("sketch", "oracle", "problems", "ssd", "vrssd", "baselines", "bench")


class Tracer:
    """Spans kept in memory as running totals.

    ``self_s[layer]``: self time; ``calls[func]``/``inclusive_s[func]``: per
    wrapped function; ``edges[(caller_layer, func)]``: calls that crossed
    into ``func`` from another layer, with their inclusive time and the
    objective evaluations made inside them.
    """

    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        self.edges: Dict[Tuple[str, str], List] = defaultdict(lambda: [0, 0.0, 0])
        self.evals = 0
        self._stack: List[List] = []
        self._undo: List[Tuple[object, object, object]] = []

    def entries(self, layer: str) -> int:
        """Calls into ``layer`` from any other layer."""
        return sum(v[0] for (caller, func), v in self.edges.items()
                   if func.split(".")[0] == layer and caller != layer)

    def edge(self, caller: str, func: str) -> List:
        return self.edges.get((caller, func), [0, 0.0, 0])

    def _wrap(self, layer: str, func: str, fn, counts_eval: bool):
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            caller = stack[-1][0] if stack else HARNESS
            frame = [layer, 0.0]
            stack.append(frame)
            evals0 = self.evals
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if counts_eval:
                    self.evals += 1
                return result
            finally:
                dt = clock() - t0
                stack.pop()
                self.self_s[layer] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                self.calls[func] += 1
                self.inclusive_s[func] += dt
                if caller != layer:
                    e = self.edges[(caller, func)]
                    e[0] += 1
                    e[1] += dt
                    e[2] += self.evals - evals0

        span.__wrapped__ = fn
        return span

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ssdopt" or n.startswith("ssdopt."))]
        for layer, owner_name, attr in BOUNDARIES:
            module_name, _, cls = owner_name.partition(":")
            owner = sys.modules.get(module_name)
            if owner is not None and cls:
                owner = getattr(owner, cls, None)
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                continue
            func = f"{layer}.{cls + '.' if cls else ''}{attr}"
            wrapped = self._wrap(layer, func, orig, counts_eval=(func == "problems.Objective.evaluate"))
            if cls:
                self._set(owner, attr, wrapped, orig)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is orig:
                        self._set(module, name, wrapped, orig)
                    elif isinstance(value, dict):
                        for key, item in list(value.items()):
                            if item is orig:
                                self._undo.append((value, key, orig))
                                value[key] = wrapped

    def _set(self, owner, name, value, orig) -> None:
        self._undo.append((owner, name, orig))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._undo):
            if isinstance(owner, dict):
                owner[name] = orig
            else:
                setattr(owner, name, orig)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

