"""Finite-difference estimates of directional derivatives and gradients.

The probe points of one call are a fixed function of the inputs, so the
evaluations may run concurrently (pass ``map_fn``) without changing any
result or the evaluation count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, EvaluationError
from .problems import Objective
from .sketch import Sketch

_EPS = float(np.finfo(float).eps)
_SQRT_EPS = float(np.sqrt(_EPS))
_CBRT_EPS = _EPS ** (1.0 / 3.0)

_KINDS = ("forward", "centered")


@dataclass(frozen=True)
class FdScheme:
    """Finite-difference flavor.

    ``kind`` is ``"forward"`` (ell + 1 evaluations per directional call, the
    base point shared across directions) or ``"centered"`` (2 ell evaluations,
    no base value). ``step`` fixes the offset h; ``None`` selects the
    scale-aware default per call.
    """

    kind: str = "forward"
    step: Optional[float] = None


def default_step(x, kind: str) -> float:
    """Default offset: sqrt(eps)(1 + ||x||_inf) forward, eps^(1/3)(1 + ||x||_inf) centered.

    Each choice balances the scheme's truncation order against roundoff and
    grows with the iterate so the probe offset never vanishes relative to x.
    """
    x = np.asarray(x, dtype=float)
    scale = 1.0 + (float(np.max(np.abs(x))) if x.size else 0.0)
    if kind == "forward":
        return _SQRT_EPS * scale
    if kind == "centered":
        return _CBRT_EPS * scale
    raise ConfigurationError(f"unknown finite-difference kind {kind!r}")


def validate_scheme(scheme: FdScheme) -> None:
    """Reject an unknown difference kind or a fixed offset that is not
    positive and finite."""
    if scheme.kind not in _KINDS:
        raise ConfigurationError(
            f"unknown finite-difference kind {scheme.kind!r}; expected one of {_KINDS}"
        )
    if scheme.step is not None and not 0 < float(scheme.step) < math.inf:
        raise ConfigurationError(
            f"finite-difference step must be positive and finite, got {float(scheme.step)}"
        )


def _resolve_step(scheme: FdScheme, x) -> float:
    validate_scheme(scheme)
    if scheme.step is None:
        return default_step(x, scheme.kind)
    return float(scheme.step)


def _evaluate_probes(obj: Objective, probes, map_fn) -> np.ndarray:
    values = np.array(list(map_fn(obj.evaluate, probes)), dtype=float)
    finite = np.isfinite(values)
    if not finite.all():
        i = int(np.argmin(finite))
        raise EvaluationError(
            "objective returned a non-finite value at a probe point", probes[i]
        )
    return values


def directional_derivatives(
    obj: Objective,
    x,
    P: Sketch,
    scheme: FdScheme,
    *,
    map_fn=map,
    return_value: bool = False,
):
    """Estimate P^T grad f(x), one difference per sketch column.

    Probes run along unit directions and are rescaled by each column norm
    afterwards, so the truncation error does not inherit the sqrt(d/ell)
    column magnitude. Forward mode charges exactly ell + 1 evaluations and
    shares f(x) across columns; centered mode charges exactly 2 ell.

    With ``return_value=True`` the result is ``(s, f(x))`` in forward mode
    and ``(s, None)`` in centered mode, letting callers reuse the base value
    without paying for it twice.
    """
    x = np.asarray(x, dtype=float)
    cols = P.matrix
    if cols.shape[0] != x.shape[0]:
        raise ConfigurationError(
            f"sketch has dimension {cols.shape[0]}, point has {x.shape[0]}"
        )
    # The column norms as np.linalg.norm(cols, axis=0) computes them.
    norms = np.sqrt(np.add.reduce(cols * cols, axis=0))
    h = _resolve_step(scheme, x)
    # Row j is h times unit column j; a zero column keeps a zero probe
    # direction and hence a zero estimate.
    steps = h * (cols / np.where(norms > 0.0, norms, 1.0)).T
    if scheme.kind == "forward":
        values = _evaluate_probes(obj, [x, *(x + steps)], map_fn)
        s = (values[1:] - values[0]) * norms / h
        return (s, float(values[0])) if return_value else s
    values = _evaluate_probes(obj, [*(x + steps), *(x - steps)], map_fn)
    s = (values[: P.ell] - values[P.ell :]) * norms / (2.0 * h)
    return (s, None) if return_value else s


def full_gradient_fd(
    obj: Objective,
    x,
    scheme: FdScheme,
    *,
    map_fn=map,
    return_value: bool = False,
):
    """Coordinate-wise FD gradient: d + 1 (forward) or 2 d (centered) evaluations."""
    x = np.asarray(x, dtype=float)
    if x.shape != (obj.d,):
        raise ConfigurationError(
            f"point has shape {x.shape}, objective expects ({obj.d},)"
        )
    h = _resolve_step(scheme, x)

    def shifted(delta: float) -> np.ndarray:
        # Row i is x with delta added to entry i only; the other entries
        # are copied, so a -0.0 in x stays -0.0.
        p = np.tile(x, (obj.d, 1))
        p.flat[:: obj.d + 1] += delta
        return p

    if scheme.kind == "forward":
        values = _evaluate_probes(obj, [x, *shifted(h)], map_fn)
        g = (values[1:] - values[0]) / h
        return (g, float(values[0])) if return_value else g
    values = _evaluate_probes(obj, [*shifted(h), *shifted(-h)], map_fn)
    g = (values[: obj.d] - values[obj.d :]) / (2.0 * h)
    return (g, None) if return_value else g
