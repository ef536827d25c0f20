"""Stochastic subspace descent.

Each iteration draws a fresh random sketch P, estimates the projected
gradient s ~ P^T grad f(x) by finite differences, and steps along
g = P s:  x+ = x - alpha g.  Because E[P P^T] = I the step is an unbiased
surrogate for gradient descent at a fraction of the evaluation cost.

Three step rules are supported: a fixed alpha, the theoretical
ell / (d lambda), and Armijo backtracking whose sufficient-decrease test
uses s^T s (already available from the sketch) so it needs no extra
derivative information.

Every solver in the package runs on one driver, ``_drive``: it sets up the
start point, budget and trace, charges the first evaluation, steps through
``_loop`` with the solver's direction proposer, and closes the run with its
terminal status.  ``run_ssd`` proposes sketched directions, the baselines
propose full-gradient and quasi-Newton ones, and the variance-reduced
solver runs its anchored epochs inside the same driver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from .errors import BudgetError, ConfigurationError, LineSearchError
from .oracle import FdScheme, directional_derivatives, full_gradient_fd, validate_scheme
from .problems import Objective
from .sketch import DISTRIBUTIONS, RngStream, SKETCH_CHANNEL, Sketch, draw

STATUS_BUDGET = "budget_exhausted"
STATUS_TARGET = "target_reached"
STATUS_MAX_ITERS = "max_iters"
STATUS_LINE_SEARCH = "line_search_failed"


@dataclass(frozen=True)
class FixedStep:
    alpha: float


@dataclass(frozen=True)
class TheoreticalStep:
    """alpha = ell / (d lambda); the objective must carry lambda."""


@dataclass(frozen=True)
class ArmijoStep:
    c1: float = 1e-4
    shrink: float = 0.5
    alpha_init: float = 1.0
    max_backtracks: int = 30


StepRule = Union[FixedStep, TheoreticalStep, ArmijoStep]


@dataclass(frozen=True)
class SsdConfig:
    """Options for one solver run.

    ``exact_gradient`` swaps the finite-difference oracle for the objective's
    reference gradient at zero evaluation cost; it exists so tests can remove
    FD noise, not for production use.
    """

    ell: int
    distribution: str = "haar"
    step_rule: StepRule = ArmijoStep()
    fd: FdScheme = FdScheme()
    max_iters: int = 1000
    eval_budget: int = 1_000_000
    target_value: Optional[float] = None
    seed: int = 0
    exact_gradient: bool = False


@dataclass(frozen=True)
class TraceEntry:
    iteration: int
    evals: int
    f: float
    step: float
    dirnorm: float


@dataclass
class RunTrace:
    """Per-iteration history of one run.

    ``entries[k]`` describes the iterate after k steps: the cumulative
    evaluations charged up to the moment it was reached (line-search trials
    included), its objective value, and the step size and direction norm
    that produced it.  Entry 0 is the starting point; its single evaluation
    is part of the run's cost.
    """

    entries: List[TraceEntry]
    terminal_status: Optional[str] = None

    @property
    def final(self) -> TraceEntry:
        return self.entries[-1]


def theoretical_step(ell: int, d: int, lam: float) -> float:
    """Step size ell / (d lambda), half the divergence boundary 2 ell / (d lambda)."""
    if not 1 <= ell <= d:
        raise ConfigurationError(f"need 1 <= ell <= d, got ell={ell}, d={d}")
    if lam <= 0:
        raise ConfigurationError(f"lambda must be positive, got {lam}")
    return ell / (d * lam)


def rate_bound_pl(ell: int, d: int, lam: float, gamma: float) -> float:
    """Per-iteration contraction 1 - ell gamma / (d lambda) of E[f - fmin].

    Valid for gradient-dominated f with constants gamma <= lam when the step
    is :func:`theoretical_step`.
    """
    if not 1 <= ell <= d:
        raise ConfigurationError(f"need 1 <= ell <= d, got ell={ell}, d={d}")
    if lam <= 0 or gamma <= 0:
        raise ConfigurationError("constants must be positive")
    if gamma > lam:
        raise ConfigurationError(
            f"gradient-dominance constant {gamma} exceeds Lipschitz constant {lam}"
        )
    return 1.0 - ell * gamma / (d * lam)


def convex_bound(ell: int, d: int, lam: float, radius: float, k: int) -> float:
    """After k iterations on a convex f: E[f(x_k) - fmin] <= 2 d lam R^2 / (k ell)."""
    if not 1 <= ell <= d:
        raise ConfigurationError(f"need 1 <= ell <= d, got ell={ell}, d={d}")
    if lam <= 0 or radius < 0:
        raise ConfigurationError("need lam > 0 and radius >= 0")
    if k < 1:
        raise ConfigurationError(f"iteration count must be positive, got {k}")
    return 2.0 * d * lam * radius * radius / (k * ell)


# ---------------------------------------------------------------------------
# run machinery shared with the variance-reduced solver and the baselines


class _Budget:
    """Evaluation budget relative to the objective's count at run start."""

    def __init__(self, obj: Objective, limit: Optional[int]):
        self._obj = obj
        self._start = obj.eval_count
        self._limit = limit

    def used(self) -> int:
        return self._obj.eval_count - self._start

    def remaining(self) -> float:
        if self._limit is None:
            return math.inf
        return self._limit - self.used()

    def ensure(self, n: int) -> None:
        if self._limit is not None and self.used() + n > self._limit:
            raise BudgetError(f"needs {n} more evaluations, {self.remaining()} left")


class _Tracer:
    """Collects entries; a fixed-rule step defers its f value until the next
    shared evaluation at the new iterate resolves it."""

    def __init__(self):
        self.entries: List[TraceEntry] = []
        self._pending = None

    def known(self, iteration, evals, f, step, dirnorm):
        self.entries.append(
            TraceEntry(int(iteration), int(evals), float(f), float(step), float(dirnorm))
        )

    def defer(self, iteration, evals, step, dirnorm):
        self._pending = (iteration, evals, step, dirnorm)

    @property
    def pending(self) -> bool:
        return self._pending is not None

    def resolve(self, f):
        iteration, evals, step, dirnorm = self._pending
        self._pending = None
        self.known(iteration, evals, f, step, dirnorm)


@dataclass
class _Plan:
    step_rule: StepRule
    alpha_fixed: Optional[float]
    step_cost: int
    supplies_value: bool
    target: Optional[float]


def _met(target: Optional[float], f: float) -> bool:
    return target is not None and f <= target


def _fixed_alpha(rule: StepRule, obj: Objective, ell: int) -> Optional[float]:
    if isinstance(rule, FixedStep):
        return rule.alpha
    if isinstance(rule, TheoreticalStep):
        if obj.lipschitz_constant is None:
            raise ConfigurationError(
                "theoretical step rule needs obj.lipschitz_constant"
            )
        return theoretical_step(ell, obj.d, obj.lipschitz_constant)
    return None


def _armijo(obj, x, direction, f0, decrease, rule: ArmijoStep, budget: _Budget):
    """Largest alpha in {alpha_init shrink^n} with
    f(x - alpha g) <= f0 - c1 alpha decrease.  Every trial is charged."""
    alpha = rule.alpha_init
    for _ in range(rule.max_backtracks):
        budget.ensure(1)
        trial = obj.evaluate(x - alpha * direction)
        if trial <= f0 - rule.c1 * alpha * decrease:
            return alpha, trial
        alpha *= rule.shrink
    raise LineSearchError(
        f"no sufficient decrease within {rule.max_backtracks} backtracks"
    )


# propose(x, k) -> (direction, decrease, f_at_x_or_None, dirnorm)
Propose = Callable[[np.ndarray, int], Tuple[np.ndarray, float, Optional[float], float]]


def _loop(obj, x, f_curr, k, stop_k, budget, tracer, plan: _Plan, propose: Propose,
          observer=None):
    """Advance until ``stop_k`` steps, target, budget, or line-search failure.

    Returns ``(x, f_curr, k, status_or_None)``; ``f_curr`` is None when the
    value at the current iterate has not been evaluated yet (fixed-rule steps
    defer it to the next shared forward evaluation).
    """
    armijo = isinstance(plan.step_rule, ArmijoStep)
    # One evaluation is reserved after every fixed-rule step so the final
    # iterate's value can always be recorded, even on a budget stop.
    reserve = 0 if armijo else 1
    while k < stop_k:
        try:
            if f_curr is None and not plan.supplies_value:
                budget.ensure(1)
                f_curr = obj.evaluate(x)
                # No pending entry right after an epoch restarts elsewhere.
                if tracer.pending:
                    tracer.resolve(f_curr)
                if _met(plan.target, f_curr):
                    return x, f_curr, k, STATUS_TARGET
            budget.ensure(plan.step_cost + reserve)
            g, decrease, fx, dirnorm = propose(x, k)
            if fx is not None:
                if tracer.pending:
                    tracer.resolve(fx)
                f_curr = fx
                if _met(plan.target, f_curr):
                    return x, f_curr, k, STATUS_TARGET
            if armijo:
                alpha, f_new = _armijo(
                    obj, x, g, f_curr, decrease, plan.step_rule, budget
                )
                x = x - alpha * g
                k += 1
                tracer.known(k, budget.used(), f_new, alpha, dirnorm)
                f_curr = f_new
                if observer is not None:
                    observer(x, f_curr)
                if _met(plan.target, f_curr):
                    return x, f_curr, k, STATUS_TARGET
            else:
                x = x - plan.alpha_fixed * g
                k += 1
                tracer.defer(k, budget.used(), plan.alpha_fixed, dirnorm)
                f_curr = None
                if observer is not None:
                    observer(x, f_curr)
        except BudgetError:
            return x, f_curr, k, STATUS_BUDGET
        except LineSearchError:
            return x, f_curr, k, STATUS_LINE_SEARCH
    return x, f_curr, k, None


def _start_point(obj: Objective, x0) -> np.ndarray:
    x = np.array(x0, dtype=float)
    if x.shape != (obj.d,):
        raise ConfigurationError(
            f"initial point has shape {x.shape}, objective expects ({obj.d},)"
        )
    return x


def validate_config(cfg: SsdConfig, obj: Optional[Objective] = None) -> None:
    """Reject inconsistent options before any evaluation is charged."""
    if cfg.ell < 1:
        raise ConfigurationError(f"sketch size must be positive, got {cfg.ell}")
    if obj is not None and cfg.ell > obj.d:
        raise ConfigurationError(
            f"sketch size {cfg.ell} exceeds problem dimension {obj.d}"
        )
    if cfg.distribution not in DISTRIBUTIONS:
        raise ConfigurationError(
            f"unknown sketch distribution {cfg.distribution!r}; expected one of {DISTRIBUTIONS}"
        )
    validate_scheme(cfg.fd)
    rule = cfg.step_rule
    if isinstance(rule, FixedStep):
        if not rule.alpha > 0:
            raise ConfigurationError(f"step size must be positive, got {rule.alpha}")
    elif isinstance(rule, ArmijoStep):
        if not 0 < rule.c1 < 1:
            raise ConfigurationError(f"need 0 < c1 < 1, got {rule.c1}")
        if not 0 < rule.shrink < 1:
            raise ConfigurationError(f"need 0 < shrink < 1, got {rule.shrink}")
        if not rule.alpha_init > 0:
            raise ConfigurationError(
                f"initial trial step must be positive, got {rule.alpha_init}"
            )
        if rule.max_backtracks < 1:
            raise ConfigurationError(
                f"need at least one backtrack, got {rule.max_backtracks}"
            )
    elif not isinstance(rule, TheoreticalStep):
        raise ConfigurationError(f"unknown step rule {rule!r}")
    if cfg.max_iters < 1:
        raise ConfigurationError(f"max_iters must be positive, got {cfg.max_iters}")
    if cfg.eval_budget < 1:
        raise ConfigurationError(
            f"evaluation budget must be positive, got {cfg.eval_budget}"
        )
    if cfg.seed < 0:
        raise ConfigurationError(f"seed must be nonnegative, got {cfg.seed}")
    if cfg.exact_gradient and obj is not None and obj.reference_gradient is None:
        raise ConfigurationError("exact_gradient requires a reference gradient")


def _sketch_derivatives(obj, x, cfg: SsdConfig, P: Sketch):
    if cfg.exact_gradient:
        if obj.reference_gradient is None:
            raise ConfigurationError("exact_gradient requires a reference gradient")
        return P.apply_transpose(obj.reference_gradient(np.asarray(x, float))), None
    return directional_derivatives(obj, x, P, cfg.fd, return_value=True)


def _full_derivatives(obj, x, cfg: SsdConfig):
    """Full gradient estimate at ``x`` (d + 1 or 2 d evaluations, none when
    exact); forward differences also return f(x)."""
    if cfg.exact_gradient:
        return obj.reference_gradient(np.asarray(x, float)), None
    return full_gradient_fd(obj, x, cfg.fd, return_value=True)


def _step_cost(cfg: SsdConfig, n_dirs: int) -> int:
    if cfg.exact_gradient:
        return 0
    return n_dirs + 1 if cfg.fd.kind == "forward" else 2 * n_dirs


def _supplies_value(cfg: SsdConfig) -> bool:
    return (not cfg.exact_gradient) and cfg.fd.kind == "forward"


def _sketched_direction(obj: Objective, x, cfg: SsdConfig, rng: RngStream):
    """Proposal ``(P s, s^T s, f(x) or None, ||P s||)`` for a sketch drawn from ``rng``."""
    P = draw(cfg.distribution, obj.d, cfg.ell, rng)
    s, fx = _sketch_derivatives(obj, x, cfg, P)
    g = P.matrix @ s
    return g, float(s @ s), fx, math.sqrt(g.dot(g))


def _ssd_propose(obj: Objective, cfg: SsdConfig) -> Propose:
    return lambda x, k: _sketched_direction(
        obj, x, cfg, RngStream(cfg.seed, SKETCH_CHANNEL, k)
    )


def _single_step(obj: Objective, x, cfg: SsdConfig, iteration: int, direction):
    """One step outside a run, for the diagnostic hooks.

    ``direction(x)`` returns a proposal as :data:`Propose` does; the step
    rule then moves along it without a budget.  Returns ``(x_next, entry)``
    with the evaluations charged by this call.
    """
    x = _start_point(obj, x)
    before = obj.eval_count
    g, decrease, fx, dirnorm = direction(x)
    alpha = _fixed_alpha(cfg.step_rule, obj, cfg.ell)
    if alpha is None:
        f0 = fx if fx is not None else obj.evaluate(x)
        alpha, f_entry = _armijo(obj, x, g, f0, decrease, cfg.step_rule, _Budget(obj, None))
    else:
        f_entry = fx if fx is not None else math.nan
    entry = TraceEntry(iteration, obj.eval_count - before, float(f_entry), alpha, dirnorm)
    return x - alpha * g, entry


# epochs(x, f0, budget, tracer, plan) -> (x, status_or_None)
Epochs = Callable[[np.ndarray, float, _Budget, _Tracer, _Plan], Tuple[np.ndarray, Optional[str]]]


def _drive(obj: Objective, x0, cfg: SsdConfig, n_dirs: int,
           propose: Optional[Propose] = None, epochs: Optional[Epochs] = None) -> RunTrace:
    """The run lifecycle every solver shares.

    Each step differences ``n_dirs`` directions (``ell`` sketched or ``d``
    coordinate ones), which sets its evaluation cost and the theoretical
    step.  The driver charges the first evaluation and checks the target
    there, then steps through :func:`_loop` with ``propose`` until a stop;
    a solver with its own outer structure passes ``epochs`` instead, which
    continues the started run and returns ``(x, status_or_None)``.  A run
    that ends without a stop is ``max_iters``, and a value still deferred
    at the final iterate is evaluated before the trace is returned.
    """
    x = _start_point(obj, x0)
    plan = _Plan(
        step_rule=cfg.step_rule,
        alpha_fixed=_fixed_alpha(cfg.step_rule, obj, n_dirs),
        step_cost=_step_cost(cfg, n_dirs),
        supplies_value=_supplies_value(cfg),
        target=cfg.target_value,
    )
    budget = _Budget(obj, cfg.eval_budget)
    tracer = _Tracer()
    try:
        budget.ensure(1)
    except BudgetError:
        return RunTrace([], STATUS_BUDGET)
    f0 = obj.evaluate(x)
    tracer.known(0, budget.used(), f0, 0.0, 0.0)
    if _met(plan.target, f0):
        return RunTrace(tracer.entries, STATUS_TARGET)
    if epochs is None:
        x, _, _, status = _loop(obj, x, f0, 0, cfg.max_iters, budget, tracer, plan, propose)
    else:
        x, status = epochs(x, f0, budget, tracer, plan)
    if status is None:
        status = STATUS_MAX_ITERS
    # The reserve taken in _loop guarantees this evaluation still fits.
    if tracer.pending:
        tracer.resolve(obj.evaluate(x))
    return RunTrace(tracer.entries, status)


def ssd_step(obj: Objective, x, cfg: SsdConfig, rng: RngStream, iteration: int = 0):
    """One sketched descent step with an explicitly supplied stream.

    Diagnostic hook: returns ``(x_next, entry)`` where the entry records the
    evaluations charged by this call, the step size, and the direction norm.
    Its f field is the best value available (the accepted point for Armijo,
    the base point for shared forward differences, NaN otherwise);
    :func:`run_ssd` builds properly aligned traces.
    """
    validate_config(cfg, obj)
    return _single_step(obj, x, cfg, iteration,
                        lambda x: _sketched_direction(obj, x, cfg, rng))


def run_ssd(obj: Objective, x0, cfg: SsdConfig) -> RunTrace:
    """Run sketched descent from ``x0`` until a terminal condition.

    Terminal statuses: ``target_reached`` (f fell to ``cfg.target_value``),
    ``budget_exhausted`` (the next operation would not fit; a partial step is
    discarded), ``max_iters``, or ``line_search_failed``.  The trace carries
    one entry per iterate with cumulative evaluation counts.
    """
    validate_config(cfg, obj)
    return _drive(obj, x0, cfg, cfg.ell, _ssd_propose(obj, cfg))
