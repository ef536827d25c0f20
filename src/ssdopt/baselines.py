"""Zeroth-order baselines: full finite-difference gradient descent and BFGS.

Both estimate the complete gradient every iteration (d forward differences
plus f(x) when the run does not know it yet, or 2 d centered ones), which
is what the sketched methods are trying to beat.  They run on the shared
driver of :mod:`ssdopt.ssd` with d coordinate directions per step; each
supplies only its direction proposer.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .oracle import full_gradient_fd
from .problems import Objective
from .ssd import (
    ArmijoStep,
    Propose,
    RunTrace,
    SsdConfig,
    _drive,
)


def run_fd_gd(obj: Objective, x0, cfg: SsdConfig) -> RunTrace:
    """Gradient descent on FD gradients; ``cfg.ell`` and the sketch family
    are ignored.  The theoretical step reduces to 1 / lambda."""

    def propose(x, k, fx):
        g, fx = full_gradient_fd(obj, x, cfg.fd, return_value=True, fx=fx)
        return g, float(g @ g), fx

    return _drive(obj, x0, cfg, obj.d, propose)


def _bfgs_update(H: np.ndarray, s: np.ndarray, y: np.ndarray) -> None:
    """Inverse-Hessian update in place.

    The pair is skipped when s^T y <= 1e-10 ||s|| ||y||: FD noise can turn
    tiny curvatures negative, and skipping keeps H positive definite.
    """
    sy = float(s @ y)
    if sy <= 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
        return
    rho = 1.0 / sy
    hy = H @ y
    H -= rho * (np.outer(s, hy) + np.outer(hy, s))
    H += (rho * rho * float(y @ hy) + rho) * np.outer(s, s)


def _bfgs_propose(obj: Objective, cfg: SsdConfig) -> Propose:
    """Quasi-Newton directions H g.

    The proposer holds the inverse Hessian H and the point and gradient of
    its previous call; the driver only calls it again after that step was
    accepted, so each call first folds in the last step's curvature pair.
    """
    H = np.eye(obj.d)
    last = None

    def propose(x, k, fx):
        nonlocal H, last
        g, fx = full_gradient_fd(obj, x, cfg.fd, return_value=True, fx=fx)
        if last is not None:
            _bfgs_update(H, x - last[0], g - last[1])
        last = (x, g)
        direction = H @ g
        decrease = float(g @ direction)
        if decrease <= 0.0:
            # Numerical loss of definiteness: restart from steepest descent.
            H = np.eye(obj.d)
            direction = g.copy()
            decrease = float(g @ g)
        return direction, decrease, fx

    return propose


def _check_bfgs_rule(cfg: SsdConfig) -> None:
    """The one kind-specific rule: quasi-Newton directions need a line search."""
    if not isinstance(cfg.step_rule, ArmijoStep):
        raise ConfigurationError("bfgs runs with the armijo step rule only")


def run_fd_bfgs(obj: Objective, x0, cfg: SsdConfig) -> RunTrace:
    """BFGS on FD gradients with Armijo backtracking.

    The inverse Hessian starts at the identity, so the first step is plain
    gradient descent.  Only the Armijo step rule is accepted
    (:func:`_check_bfgs_rule`).
    """
    _check_bfgs_rule(cfg)
    return _drive(obj, x0, cfg, obj.d, _bfgs_propose(obj, cfg))
