"""Test objectives with evaluation accounting.

Each factory returns an :class:`Objective` whose evaluator is charged one
unit per call, so finite-difference probes and line-search trials are billed
automatically wherever they happen.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError

Array = np.ndarray


@dataclass
class Objective:
    """A scalar function of a d-vector plus optional analytic metadata.

    Parameters
    ----------
    d : int
        Input dimension.
    evaluator : callable
        Maps a d-vector to a float. Assumed pure; may be called from several
        threads at once.
    reference_gradient : callable, optional
        Analytic gradient, for tests and diagnostics. Calls to it are not
        charged.
    minimum_value : float, optional
        Known minimum of the function.
    lipschitz_constant : float, optional
        Gradient Lipschitz constant, used by the theoretical step rules.
    pl_constant : float, optional
        Gradient-dominance constant: ||grad f(x)||^2 >= 2 c (f(x) - fmin).
    """

    d: int
    evaluator: Callable[[Array], float]
    reference_gradient: Optional[Callable[[Array], Array]] = None
    minimum_value: Optional[float] = None
    lipschitz_constant: Optional[float] = None
    pl_constant: Optional[float] = None
    eval_count: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def evaluate(self, x) -> float:
        """Evaluate at ``x``, charging one unit to ``eval_count``."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.d,):
            raise ConfigurationError(
                f"point has shape {x.shape}, objective expects ({self.d},)"
            )
        value = float(self.evaluator(x))
        # The evaluator itself runs unlocked; only the counter is serialized.
        with self._lock:
            self.eval_count += 1
        return value


def nesterov_worst(lam: float, r: int, d: int) -> Objective:
    """Quadratic with intrinsic dimension ``r`` inside ambient dimension ``d``.

    .. math::

        f(x) = \\frac{\\lambda}{4}\\Big(\\frac{1}{2}\\big(x_1^2
            + \\sum_{i=1}^{r-1}(x_i - x_{i+1})^2 + x_r^2\\big) - x_1\\Big)

    Only the first ``r`` coordinates enter; the remaining ``d - r`` directions
    are exactly flat. The minimum value is ``-lam * r / (8 (r + 1))``.

    Parameters
    ----------
    lam : float
        Gradient Lipschitz constant of the function (positive and finite).
    r : int
        Intrinsic dimension, ``1 <= r < d``.
    d : int
        Ambient dimension.
    """
    if not 0 < lam < np.inf:
        raise ConfigurationError(f"lam must be positive and finite, got {lam}")
    if not 1 <= r < d:
        raise ConfigurationError(f"need 1 <= r < d, got r={r}, d={d}")
    lam = float(lam)

    def value(x: Array) -> float:
        z = x[:r]
        s = z[0] * z[0] + z[-1] * z[-1]
        if r > 1:
            diff = z[:-1] - z[1:]
            s += float(diff @ diff)
        return lam * (0.5 * s - z[0]) / 4.0

    def gradient(x: Array) -> Array:
        z = x[:r]
        az = 2.0 * z
        az[:-1] -= z[1:]
        az[1:] -= z[:-1]
        g = np.zeros_like(x)
        g[:r] = 0.25 * lam * az
        g[0] -= 0.25 * lam
        return g

    return Objective(
        d=d,
        evaluator=value,
        reference_gradient=gradient,
        minimum_value=-lam * r / (8.0 * (r + 1)),
        lipschitz_constant=lam,
    )


def isotropic_quadratic(d: int) -> Objective:
    """``f(x) = 0.5 ||x||^2``: unit curvature in every direction.

    Both the Lipschitz and gradient-dominance constants equal one, which makes
    step-size formulas and contraction factors exact rather than bounds.
    """
    if d < 1:
        raise ConfigurationError(f"dimension must be positive, got {d}")
    return Objective(
        d=d,
        evaluator=lambda x: 0.5 * float(x @ x),
        reference_gradient=lambda x: x.copy(),
        minimum_value=0.0,
        lipschitz_constant=1.0,
        pl_constant=1.0,
    )


def rank_deficient_least_squares(A, b) -> Objective:
    """``f(x) = 0.5 ||A x - b||^2`` with constants from the spectrum of A^T A.

    The function is gradient dominated even when ``A`` has a nontrivial null
    space: the dominance constant is the smallest nonzero eigenvalue of
    ``A^T A`` and the Lipschitz constant is the largest.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float)
    if A.size == 0:
        raise ConfigurationError("design matrix is empty")
    if b.shape != (A.shape[0],):
        raise ConfigurationError(
            f"right-hand side has shape {b.shape}, expected ({A.shape[0]},)"
        )
    svals = np.linalg.svd(A, compute_uv=False)
    smax = float(svals[0])
    if smax == 0.0:
        raise ConfigurationError("design matrix is identically zero")
    cutoff = max(A.shape) * np.finfo(float).eps * smax
    nonzero = svals[svals > cutoff]
    xstar = np.linalg.lstsq(A, b, rcond=None)[0]
    resid = A @ xstar - b
    fmin = 0.5 * float(resid @ resid)

    def value(x: Array) -> float:
        rvec = A @ x - b
        return 0.5 * float(rvec @ rvec)

    def gradient(x: Array) -> Array:
        return A.T @ (A @ x - b)

    return Objective(
        d=A.shape[1],
        evaluator=value,
        reference_gradient=gradient,
        minimum_value=fmin,
        lipschitz_constant=smax * smax,
        pl_constant=float(nonzero[-1] ** 2),
    )
