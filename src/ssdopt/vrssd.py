"""Variance-reduced stochastic subspace descent.

The run is organized in epochs. Each epoch refreshes an anchor: the current
iterate x~ together with a full finite-difference gradient estimate g~ at it
(d + 1 or 2 d evaluations). Inner steps then combine the fresh sketched
derivative with the anchor as a control variate,

    v = P (s - eta t) + eta g~,      t = P^T g~,

which leaves the expectation of v unchanged for constant eta while shrinking
its variance when g~ resembles the current gradient. After m inner steps the
anchor moves: option "one" takes the last inner iterate, option "two" a
uniformly random one (which is also where the next epoch restarts).

The weight eta is "zero" (plain sketched descent), "one" (classic control
variate), "exact" (the variance-optimal projection of the true gradient onto
g~, at d + 1 extra evaluations per step; a diagnostic), or "approx" (the same
projection assembled from already-sketched quantities at zero extra cost).

The run shares the start, budget, stepping and close of
:func:`ssdopt.ssd.run_ssd` through its driver; only the epoch loop here
knows about warmup, anchors and the option-two restart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .problems import Objective
from .sketch import EPOCH_CHANNEL, RngStream, SketchStream, draw
from .ssd import (
    RunTrace,
    SsdConfig,
    _drive,
    _full_derivatives,
    _loop,
    _single_step,
    _sketch_derivatives,
    _sketched_direction,
    _step_cost,
    validate_config,
)

_OPTIONS = ("one", "two")
_ETA_MODES = ("zero", "one", "exact", "approx")


@dataclass(frozen=True)
class VrssdConfig(SsdConfig):
    """SSD options plus the epoch structure.

    ``m`` inner steps per epoch; ``option`` picks the next anchor (last inner
    iterate or a uniform one); ``eta_mode`` selects the control-variate
    weight; ``warmup_iters`` plain sketched steps run before the first
    anchor is built.
    """

    m: int = 10
    option: str = "one"
    eta_mode: str = "approx"
    warmup_iters: int = 0


@dataclass
class AnchorState:
    """Snapshot shared by the inner steps of one epoch."""

    point: np.ndarray
    gradient: np.ndarray
    epoch: int


def validate_vrssd_config(cfg: VrssdConfig, obj: Objective) -> None:
    validate_config(cfg, obj)
    if cfg.m < 1:
        raise ConfigurationError(f"epoch length must be positive, got {cfg.m}")
    if cfg.option not in _OPTIONS:
        raise ConfigurationError(
            f"unknown anchor option {cfg.option!r}; expected one of {_OPTIONS}"
        )
    if cfg.eta_mode not in _ETA_MODES:
        raise ConfigurationError(
            f"unknown eta mode {cfg.eta_mode!r}; expected one of {_ETA_MODES}"
        )
    if cfg.warmup_iters < 0:
        raise ConfigurationError(
            f"warmup length must be nonnegative, got {cfg.warmup_iters}"
        )


def eta_value(mode: str, s_vec, t, g_anchor, g_full=None) -> float:
    """Control-variate weight for one inner step.

    ``exact`` projects the full gradient estimate onto the anchor gradient,
    g_full . g~ / ||g~||^2; ``approx`` builds the same projection from the
    sketched vectors alone, s . t / ||g~||^2, using E[P P^T] = I.  A zero
    anchor gradient disables the control variate.
    """
    if mode == "zero":
        return 0.0
    if mode == "one":
        return 1.0
    g_anchor = np.asarray(g_anchor, dtype=float)
    gnorm2 = float(g_anchor @ g_anchor)
    if gnorm2 == 0.0:
        return 0.0
    if mode == "exact":
        if g_full is None:
            raise ConfigurationError("exact eta needs a full gradient estimate")
        return float(np.dot(np.asarray(g_full, float), g_anchor) / gnorm2)
    if mode == "approx":
        return float(np.dot(np.asarray(s_vec, float), np.asarray(t, float)) / gnorm2)
    raise ConfigurationError(f"unknown eta mode {mode!r}; expected one of {_ETA_MODES}")


def cmse(mode: str, g, g_anchor, rho: float) -> float:
    """Conditional mean squared error E ||v - g||^2 under scaled Haar sketches.

    For sampling ratio rho = d / ell and the step direction built from exact
    projected gradients, the error of v relative to the true gradient g is

        (rho - 1) ||g - eta g~||^2,

    expanded here per eta mode: ``zero`` keeps ||g||^2, ``one`` the full
    squared difference, and ``optimal`` subtracts the component of g along
    g~ (the minimizer over constant eta).
    """
    if rho < 1:
        raise ConfigurationError(f"sampling ratio must be at least 1, got {rho}")
    g = np.asarray(g, dtype=float)
    g_anchor = np.asarray(g_anchor, dtype=float)
    gg = float(g @ g)
    if mode == "zero":
        return (rho - 1.0) * gg
    aa = float(g_anchor @ g_anchor)
    ga = float(g @ g_anchor)
    if mode == "one":
        return (rho - 1.0) * (gg + aa - 2.0 * ga)
    if mode == "optimal":
        if aa == 0.0:
            return (rho - 1.0) * gg
        return (rho - 1.0) * (gg - ga * ga / aa)
    raise ConfigurationError(
        f"unknown cmse mode {mode!r}; expected 'zero', 'one', or 'optimal'"
    )


def rate_bound_vrssd(alpha: float, gamma: float, lam: float, m: int, rho: float,
                     part: str = "ii") -> float:
    """Per-epoch contraction factor of E[f(x~) - fmin].

    Part "i" covers the anchor chosen as a uniformly random inner iterate with
    eta = 1; part "ii" the variance-optimal eta.  Requires rho > 2 and
    alpha lam rho < 1; outside that region the analysis gives nothing and the
    call is refused.
    """
    if rho <= 2:
        raise ConfigurationError(
            f"sampling ratio rho = d/ell must exceed 2, got {rho}"
        )
    if alpha <= 0 or gamma <= 0 or lam <= 0:
        raise ConfigurationError("alpha, gamma, and lambda must be positive")
    if m < 1:
        raise ConfigurationError(f"epoch length must be positive, got {m}")
    if alpha * lam * rho >= 1:
        raise ConfigurationError(
            f"need alpha * lambda * rho < 1, got {alpha * lam * rho}"
        )
    base = 1.0 / (alpha * gamma * m * (1.0 - alpha * lam * rho))
    if part == "ii":
        return base
    if part == "i":
        return base + alpha * lam * (rho - 1.0) / (1.0 - alpha * lam * rho)
    raise ConfigurationError(f"part must be 'i' or 'ii', got {part!r}")


def _vr_direction(obj, x, anchor: AnchorState, cfg: VrssdConfig, rng):
    """Proposal ``(v, s^T s, f(x) or None)`` for a sketch drawn from ``rng``.

    The exact eta mode adds a full gradient estimate to the sketched one,
    charged as the run's step cost counts it (nothing with the exact
    gradient).
    """
    P = draw(cfg.distribution, obj.d, cfg.ell, rng)
    s_vec, fx = _sketch_derivatives(obj, x, cfg, P)
    t = P.apply_transpose(anchor.gradient)
    if cfg.eta_mode == "exact":
        g_full, _ = _full_derivatives(obj, x, cfg)
        eta = eta_value("exact", s_vec, t, anchor.gradient, g_full)
    else:
        eta = eta_value(cfg.eta_mode, s_vec, t, anchor.gradient)
    v = P.apply(s_vec - eta * t) + eta * anchor.gradient
    return v, float(s_vec @ s_vec), fx


def vrssd_inner_step(obj: Objective, x, anchor: AnchorState, cfg: VrssdConfig,
                     rng: RngStream, iteration: int = 0):
    """One variance-reduced step with an explicitly supplied stream.

    Diagnostic hook mirroring :func:`ssdopt.ssd.ssd_step`; returns
    ``(x_next, entry)``.
    """
    validate_vrssd_config(cfg, obj)
    return _single_step(obj, x, cfg, iteration,
                        lambda x: _vr_direction(obj, x, anchor, cfg, rng))


def run_vrssd(obj: Objective, x0, cfg: VrssdConfig) -> RunTrace:
    """Run epoch-structured variance-reduced sketched descent from ``x0``.

    Iteration indices in the trace count every sketched step, warmup
    included, and each one consumes the stream at its own global index, so a
    run with ``eta_mode="zero"`` and option "one" revisits exactly the
    sketches of :func:`ssdopt.ssd.run_ssd` under the same seed.

    With option "two", each epoch's restart index j is drawn from the epoch
    channel before the epoch starts, as it does not depend on the
    trajectory.  Once the epoch is complete, the run restarts at inner
    iterate j with the value its trace entry holds, at no evaluation.  With
    a fixed step rule, recording the value of the last inner iterate before
    the jump still costs one evaluation per completed epoch; Armijo runs
    already know it.  An anchor that does not supply the last inner
    iterate's value (centered differences, exact gradient) keeps one
    evaluation back for it, so the run never charges past its budget.
    """
    validate_vrssd_config(cfg, obj)
    anchor_cost = _step_cost(cfg, obj.d)

    def epochs(run):
        stream = SketchStream(cfg.seed)
        _loop(run, min(cfg.warmup_iters, cfg.max_iters),
              lambda x, k: _sketched_direction(obj, x, cfg, stream.at(k)))
        if cfg.eta_mode == "exact":
            run.step_cost += anchor_cost
        epoch = 0
        while run.k < cfg.max_iters:
            # Keep back the reserved evaluation for a value the anchor will not supply.
            run.ensure(anchor_cost + (run.f is None and not run.supplies_value))
            g_anchor, f_anchor = _full_derivatives(obj, run.x, cfg)
            anchor = AnchorState(run.x.copy(), g_anchor, epoch)
            if f_anchor is not None:
                run.observe(f_anchor)

            def propose(x, k):
                return _vr_direction(obj, x, anchor, cfg, stream.at(k))

            start, end = run.k, run.k + cfg.m
            if cfg.option == "two":
                # The next epoch restarts from a uniformly chosen inner iterate.
                rng = RngStream(cfg.seed, EPOCH_CHANNEL, epoch).generator()
                j = int(rng.integers(1, cfg.m + 1))
                _loop(run, min(start + j, cfg.max_iters), propose)
                restart = run.x
            _loop(run, min(end, cfg.max_iters), propose)
            if cfg.option == "two" and run.k == end:
                # Resolve the deferred last entry at the pre-jump point first.
                if run.f is None:
                    run.observe(run.evaluate(run.x))
                run.x, run.f = restart, run.entries[start + j].f
            epoch += 1

    return _drive(obj, x0, cfg, cfg.ell, epochs=epochs)
