"""Variance-reduced stochastic subspace descent.

The run is organized in epochs. Each epoch refreshes an anchor: the current
iterate x~ together with a full finite-difference gradient estimate g~ at it
(d forward differences from the value the run knows at x~, or 2 d centered
ones). Inner steps then combine the fresh sketched derivative
with the anchor as a control variate,

    v = P (s - eta t) + eta g~,      t = P^T g~,

which leaves the expectation of v unchanged for constant eta while shrinking
its variance when g~ resembles the current gradient. After m inner steps the
anchor moves: option "one" takes the last inner iterate, option "two" a
uniformly random one (which is also where the next epoch restarts).

The weight eta is "zero" (plain sketched descent), "one" (classic control
variate), "exact" (the variance-optimal projection of the true gradient onto
g~, a diagnostic: d extra forward evaluations per step, which share the
base value of the sketched probes, except on an epoch's first inner step,
which sits on the anchor and reuses its gradient; an option "two" anchor in
turn reuses the gradient that the step at its restart point took), or
"approx" (the same projection assembled from already-sketched quantities
at zero extra cost).

The run shares the config check, start, budget, stepping and statuses of
:func:`ssdopt.ssd.run_ssd` through its driver; ``VrssdConfig.check`` adds
the epoch rules to the SSD ones, and only the epoch loop here knows about
warmup, anchors and the option-two restart, and steps the warmup and each
epoch with one ``_loop`` call apiece on a step plan that never changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .oracle import directional_derivatives, full_gradient_fd
from .problems import Objective
from .sketch import EPOCH_CHANNEL, RngStream, SketchStream, draw
from .ssd import (
    RunTrace,
    SsdConfig,
    _check_ints,
    _drive,
    _loop,
    _single_step,
    _sketched_direction,
    _step_cost,
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

    def check(self, obj: Objective) -> None:
        """The SSD rules, then the epoch rules."""
        super().check(obj)
        _check_ints(self, "m", "warmup_iters")
        if self.m < 1:
            raise ConfigurationError(f"epoch length must be positive, got {self.m}")
        if self.option not in _OPTIONS:
            raise ConfigurationError(
                f"unknown anchor option {self.option!r}; expected one of {_OPTIONS}")
        if self.eta_mode not in _ETA_MODES:
            raise ConfigurationError(
                f"unknown eta mode {self.eta_mode!r}; expected one of {_ETA_MODES}")
        if self.warmup_iters < 0:
            raise ConfigurationError(f"warmup length must be nonnegative, got {self.warmup_iters}")


def _check_vrssd_config(cfg: SsdConfig, who: str) -> None:
    """The epoch loop reads the epoch fields, which a plain SsdConfig lacks."""
    if not isinstance(cfg, VrssdConfig):
        raise ConfigurationError(f"{who} needs a VrssdConfig, got {type(cfg).__name__}")


@dataclass
class AnchorState:
    """Snapshot shared by the inner steps of one epoch."""

    point: np.ndarray
    gradient: np.ndarray
    epoch: int


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


def _vr_direction(obj, x, anchor: AnchorState, cfg: VrssdConfig, rng, fx=None, g_full=None):
    """Proposal ``(v, s^T s, f(x) or None, full gradient or None)`` for a
    sketch drawn from ``rng``; ``fx`` is f(x) when known.

    The exact eta mode adds a full gradient from ``cfg.fd`` to the sketched
    derivatives, charged as the run's step cost counts it (nothing when the
    source is ``FdScheme("exact")``); forward differences take the base
    value the sketched probes used.  ``g_full`` supplies that gradient when
    the caller already has it at ``x``; the gradient used is returned last.
    """
    P = draw(cfg.distribution, obj.d, cfg.ell, rng)
    s_vec, fx = directional_derivatives(obj, x, P, cfg.fd, return_value=True, fx=fx)
    t = P.apply_transpose(anchor.gradient)
    if cfg.eta_mode == "exact":
        if g_full is None:
            g_full = full_gradient_fd(obj, x, cfg.fd, fx=fx)
        eta = eta_value("exact", s_vec, t, anchor.gradient, g_full)
    else:
        eta = eta_value(cfg.eta_mode, s_vec, t, anchor.gradient)
    v = P.apply(s_vec - eta * t) + eta * anchor.gradient
    return v, float(s_vec @ s_vec), fx, g_full


def vrssd_inner_step(obj: Objective, x, anchor: AnchorState, cfg: VrssdConfig,
                     rng: RngStream, iteration: int = 0):
    """One variance-reduced step with an explicitly supplied stream.

    Diagnostic hook mirroring :func:`ssdopt.ssd.ssd_step`; returns
    ``(x_next, entry)``.  Armijo fits its first rejected trial only with
    ``eta_mode="zero"``, where s^T s is the slope along v.
    """
    _check_vrssd_config(cfg, "vrssd_inner_step")
    return _single_step(obj, x, cfg, iteration,
                        lambda x: _vr_direction(obj, x, anchor, cfg, rng)[:3],
                        fit=cfg.eta_mode == "zero")


def run_vrssd(obj: Objective, x0, cfg: VrssdConfig) -> RunTrace:
    """Run epoch-structured variance-reduced sketched descent from ``x0``.

    Iteration indices in the trace count every sketched step, warmup
    included, and each one consumes the stream at its own global index, so a
    run with ``eta_mode="zero"`` and option "one" revisits exactly the
    sketches of :func:`ssdopt.ssd.run_ssd` under the same seed.

    An exact-eta step off the anchor admits its full gradient's cost before
    it draws.  With option "two", each epoch's restart index j is drawn
    from the epoch channel before the epoch starts, as it does not depend
    on the trajectory.  The step from inner iterate j < m keeps that point
    and its value; once the epoch is complete, the run restarts there, at
    no evaluation.  An anchor's forward differences take the value the run
    knows at its point as their base.  With ``eta_mode="exact"`` the kept
    step also took the full gradient there, from that same base value, so
    the next anchor reuses it and is admitted at no cost.
    """
    _check_vrssd_config(cfg, "run_vrssd")

    def epochs(run):
        anchor_cost = _step_cost(cfg, obj.d)
        stream = SketchStream(cfg.seed)
        _loop(run, min(cfg.warmup_iters, cfg.max_iters),
              lambda x, k, fx: _sketched_direction(obj, x, cfg, stream.at(k), fx))
        epoch, g_anchor = 0, None
        while run.k < cfg.max_iters:
            if g_anchor is None:
                run.ensure(anchor_cost)
                g_anchor = full_gradient_fd(obj, run.x, cfg.fd, fx=run.f)
            anchor = AnchorState(run.x.copy(), g_anchor, epoch)
            start, end, restart_k, restart = run.k, run.k + cfg.m, None, None
            if cfg.option == "two":
                # The next epoch restarts from a uniformly chosen inner iterate.
                rng = RngStream(cfg.seed, EPOCH_CHANNEL, epoch).generator()
                restart_k = start + int(rng.integers(1, cfg.m + 1))

            def propose(x, k, fx):
                nonlocal restart
                # The first inner step sits on the anchor: its full gradient
                # would repeat the anchor's probes at the same base value.
                g_full = anchor.gradient if k == start else None
                if k > start and cfg.eta_mode == "exact":
                    # Any other step takes its own, so it costs an anchor more.
                    run.admit(anchor_cost)
                v, decrease, _, g_full = _vr_direction(obj, x, anchor, cfg, stream.at(k), fx,
                                                       g_full)
                if k == restart_k:
                    # The restart point, with its value and (exact eta) its
                    # full gradient; inner iterate m is where the epoch ends.
                    restart = x, fx, g_full
                return v, decrease, fx

            # With eta != 0, s^T s is not the slope of f along v: plain backtracking.
            _loop(run, min(end, cfg.max_iters), propose, fit=cfg.eta_mode == "zero")
            g_anchor = None
            if restart is not None and run.k == end:
                run.x, run.f, g_anchor = restart
            epoch += 1

    return _drive(obj, x0, cfg, cfg.ell, epochs=epochs)
