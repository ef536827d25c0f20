"""Derivative oracles: finite-difference estimates of directional
derivatives and gradients, or the objective's reference gradient when the
scheme's kind is ``"exact"``, so every solver reads its derivatives through
the same two calls whatever their source.
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

# The command line offers the difference kinds only; "exact" needs a reference gradient.
_FD_KINDS = ("forward", "centered")
_KINDS = (*_FD_KINDS, "exact")


@dataclass(frozen=True)
class FdScheme:
    """Where a solver's derivatives come from.

    ``kind`` is ``"forward"`` (ell evaluations per directional call and
    the value at the base point, shared across directions: a caller that
    already knows f(x) passes it and pays ell, one that does not pays ell +
    1 and gets f(x) back), ``"centered"`` (2 ell evaluations, no base value)
    or ``"exact"`` (the reference gradient the analysis assumes, for tests:
    no evaluations, no base value).  A full gradient costs the same with d
    in place of ell.
    ``step`` fixes the offset h; ``None`` (the only value ``"exact"`` takes)
    selects the scale-aware default per call.
    """

    kind: str = "forward"
    step: Optional[float] = None


def default_step(x, kind: str) -> float:
    """Default offset: sqrt(eps)(1 + ||x||_inf) forward, eps^(1/3)(1 + ||x||_inf) centered.

    Each choice balances the scheme's truncation order against roundoff and
    grows with the iterate so the probe offset never vanishes relative to x.
    """
    x = np.asarray(x, dtype=float)
    scale = 1.0 + (float(np.abs(x).max()) if x.size else 0.0)
    if kind == "forward":
        return _SQRT_EPS * scale
    if kind == "centered":
        return _CBRT_EPS * scale
    raise ConfigurationError(f"unknown finite-difference kind {kind!r}")


def validate_scheme(scheme: FdScheme, obj: Objective) -> None:
    """Reject an unknown kind, a fixed offset that is not positive and
    finite, and an exact scheme that has a step or an objective without
    ``reference_gradient``."""
    if scheme.kind not in _KINDS:
        raise ConfigurationError(
            f"unknown finite-difference kind {scheme.kind!r}; expected one of {_KINDS}"
        )
    if scheme.kind == "exact":
        if obj.reference_gradient is None:
            raise ConfigurationError("exact derivatives need obj.reference_gradient")
        if scheme.step is not None:
            raise ConfigurationError(f"exact derivatives take no step, got {scheme.step}")
    elif scheme.step is not None and not 0 < float(scheme.step) < math.inf:
        raise ConfigurationError(
            f"finite-difference step must be positive and finite, got {float(scheme.step)}"
        )


def _evaluate_probes(obj: Objective, *blocks) -> np.ndarray:
    """Values at the rows of each (n, d) block in turn, through
    ``obj.evaluate_many``; every probe is charged before any is checked.

    Callers pass their blocks as built, never restacked: the memory layout
    of a row can decide the last bit of its value.  A non-finite value
    raises :class:`EvaluationError` naming its probe.
    """
    values = np.concatenate([obj.evaluate_many(block) for block in blocks])
    finite = np.isfinite(values)
    if not finite.all():
        i = int(np.argmin(finite))
        raise EvaluationError(
            "objective returned a non-finite value at a probe point", np.vstack(blocks)[i]
        )
    return values


def _forward_values(obj: Objective, x: np.ndarray, probes: np.ndarray, fx: Optional[float]):
    """``(f(x), values at the probe rows)``: f(x) is evaluated ahead of the
    probes unless ``fx`` already gives it."""
    if fx is not None:
        return fx, _evaluate_probes(obj, probes)
    values = _evaluate_probes(obj, x[None], probes)
    return float(values[0]), values[1:]


def directional_derivatives(
    obj: Objective,
    x,
    P: Sketch,
    scheme: FdScheme,
    *,
    return_value: bool = False,
    fx: Optional[float] = None,
):
    """Estimate P^T grad f(x), one difference per sketch column.

    Probes run along unit directions and are rescaled by each column norm
    afterwards, so the truncation error does not inherit the sqrt(d/ell)
    column magnitude. Forward mode shares f(x) across columns: it takes
    ``fx`` as that base value when the caller knows it and charges exactly
    ell evaluations, and otherwise evaluates f(x) first and charges ell + 1.
    Centered mode charges exactly 2 ell.  The exact kind returns P^T
    applied to the reference gradient and charges nothing.  Only forward
    mode reads ``fx``.

    With ``return_value=True`` the result is ``(s, f(x))`` in forward mode
    and ``(s, None)`` otherwise, letting callers reuse the base value
    without paying for it twice.
    """
    validate_scheme(scheme, obj)
    x = np.asarray(x, dtype=float)
    # In float64 like x, so the buffers below hold every intermediate exactly.
    cols = np.asarray(P.matrix, dtype=float)
    if cols.shape[0] != x.shape[0]:
        raise ConfigurationError(
            f"sketch has dimension {cols.shape[0]}, point has {x.shape[0]}"
        )
    if scheme.kind == "exact":
        s = P.apply_transpose(obj.reference_gradient(x))
        return (s, None) if return_value else s
    # The column norms as np.linalg.norm(cols, axis=0) computes them.
    squares = cols * cols
    norms = np.sqrt(np.add.reduce(squares, axis=0))
    h = default_step(x, scheme.kind) if scheme.step is None else float(scheme.step)
    # Row j is h times unit column j; a zero column keeps a zero probe
    # direction and hence a zero estimate.  The steps, and the forward
    # probes after them, overwrite the spent squares: at d=1000 a fresh
    # d x ell temporary costs more than its arithmetic.
    steps = np.divide(cols, np.where(norms > 0.0, norms, 1.0), out=squares)
    steps *= h
    steps = steps.T
    if scheme.kind == "forward":
        fx, values = _forward_values(obj, x, np.add(x, steps, out=steps), fx)
        s = (values - fx) * norms / h
        return (s, fx) if return_value else s
    values = _evaluate_probes(obj, x + steps, x - steps)
    s = (values[: P.ell] - values[P.ell :]) * norms / (2.0 * h)
    return (s, None) if return_value else s


def full_gradient_fd(
    obj: Objective,
    x,
    scheme: FdScheme,
    *,
    return_value: bool = False,
    fx: Optional[float] = None,
):
    """Coordinate-wise FD gradient: d evaluations forward when ``fx`` gives
    the known f(x), d + 1 when it does not, or 2 d centered; the exact kind
    returns the reference gradient for none.  ``return_value`` and ``fx``
    work as in :func:`directional_derivatives`."""
    validate_scheme(scheme, obj)
    x = np.asarray(x, dtype=float)
    if x.shape != (obj.d,):
        raise ConfigurationError(
            f"point has shape {x.shape}, objective expects ({obj.d},)"
        )
    if scheme.kind == "exact":
        g = obj.reference_gradient(x)
        return (g, None) if return_value else g
    h = default_step(x, scheme.kind) if scheme.step is None else float(scheme.step)

    def shifted(delta: float) -> np.ndarray:
        # Row i is x with delta added to entry i only; the other entries
        # are copied, so a -0.0 in x stays -0.0.
        p = np.tile(x, (obj.d, 1))
        p.flat[:: obj.d + 1] += delta
        return p

    if scheme.kind == "forward":
        fx, values = _forward_values(obj, x, shifted(h), fx)
        g = (values - fx) / h
        return (g, fx) if return_value else g
    values = _evaluate_probes(obj, shifted(h), shifted(-h))
    g = (values[: obj.d] - values[obj.d :]) / (2.0 * h)
    return (g, None) if return_value else g
