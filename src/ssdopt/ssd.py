"""Stochastic subspace descent.

Each iteration draws a fresh random sketch P, estimates the projected
gradient s ~ P^T grad f(x) by finite differences, and steps along
g = P s:  x+ = x - alpha g.  Because E[P P^T] = I the step is an unbiased
surrogate for gradient descent at a fraction of the evaluation cost.

Three step rules are supported: a fixed alpha, the theoretical
ell / (d lambda), and Armijo backtracking whose sufficient-decrease test
uses s^T s (already available from the sketch) so it needs no extra
derivative information.

Every solver in the package runs on one driver, ``_drive``.  The state of a
run (step plan, budget, trace entries and current iterate) is one ``_Run``
object.  ``_Run.evaluate`` admits and charges every single evaluation a run
makes outside the oracle, and ``_Run.observe`` is the one place where a
newly known value is checked to be finite, resolves a deferred entry,
becomes current and is tested against the target.  The driver charges the
first evaluation, steps through ``_loop`` with the solver's direction
proposer, and closes the run with its terminal status.  A proposer returns
``(direction, decrease, f(x) or None)``; the loop takes the direction norm
itself.  ``run_ssd`` proposes sketched directions, the baselines propose
full-gradient and quasi-Newton ones, and the variance-reduced solver runs
its anchored epochs inside the same driver, one ``_loop`` call per stretch
of steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from .errors import BudgetError, ConfigurationError, EvaluationError, LineSearchError
from .oracle import FdScheme, directional_derivatives, full_gradient_fd, validate_scheme
from .problems import Objective
from .sketch import RngStream, Sketch, SketchStream, _check_ell, _drawer, draw

STATUS_BUDGET = "budget_exhausted"
STATUS_TARGET = "target_reached"
STATUS_MAX_ITERS = "max_iters"
STATUS_LINE_SEARCH = "line_search_failed"
STATUS_EVALUATION = "evaluation_failed"


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
    _check_ell(d, ell)
    if lam <= 0:
        raise ConfigurationError(f"lambda must be positive, got {lam}")
    return ell / (d * lam)


def rate_bound_pl(ell: int, d: int, lam: float, gamma: float) -> float:
    """Per-iteration contraction 1 - ell gamma / (d lambda) of E[f - fmin].

    Valid for gradient-dominated f with constants gamma <= lam when the step
    is :func:`theoretical_step`.
    """
    _check_ell(d, ell)
    if lam <= 0 or gamma <= 0:
        raise ConfigurationError("constants must be positive")
    if gamma > lam:
        raise ConfigurationError(
            f"gradient-dominance constant {gamma} exceeds Lipschitz constant {lam}"
        )
    return 1.0 - ell * gamma / (d * lam)


def convex_bound(ell: int, d: int, lam: float, radius: float, k: int) -> float:
    """After k iterations on a convex f: E[f(x_k) - fmin] <= 2 d lam R^2 / (k ell)."""
    _check_ell(d, ell)
    if lam <= 0 or radius < 0:
        raise ConfigurationError("need lam > 0 and radius >= 0")
    if k < 1:
        raise ConfigurationError(f"iteration count must be positive, got {k}")
    return 2.0 * d * lam * radius * radius / (k * ell)


# ---------------------------------------------------------------------------
# run machinery shared with the variance-reduced solver and the baselines


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


class _TargetReached(Exception):
    """Raised by :meth:`_Run.observe` once a recorded value meets the target."""


class _Run:
    """The state of one run: its step plan, budget, entries and iterate.

    ``x`` is the current iterate after ``k`` steps and ``f`` its value, or
    None while that value is unknown.  A new iterate's entry waits in
    ``deferred`` until its value is observed: Armijo knows it at once, while
    a fixed-rule step leaves it to the next shared evaluation at ``x``.  Once
    the run has started, ``f`` is None exactly while an entry waits, which
    is the one test for a value still owed.
    """

    def __init__(self, obj: Objective, cfg: SsdConfig, n_dirs: int, x: np.ndarray):
        self.obj = obj
        self.rule = cfg.step_rule
        self.alpha_fixed = _fixed_alpha(cfg.step_rule, obj, n_dirs)
        self.step_cost = _step_cost(cfg, n_dirs)
        # Forward differences evaluate f(x) as their base point.
        self.supplies_value = not cfg.exact_gradient and cfg.fd.kind == "forward"
        self.target = cfg.target_value
        self.start = obj.eval_count
        self.limit = cfg.eval_budget
        self.entries: List[TraceEntry] = []
        self.deferred: Optional[Tuple[int, int, float, float]] = None
        self.x = x
        self.f: Optional[float] = None
        self.k = 0

    def used(self) -> int:
        return self.obj.eval_count - self.start

    def ensure(self, n: int) -> None:
        """Raise :class:`BudgetError` unless ``n`` more evaluations fit."""
        if self.used() + n > self.limit:
            raise BudgetError(f"needs {n} more evaluations, {self.limit - self.used()} left")

    def evaluate(self, x: np.ndarray) -> float:
        """Admit and charge one evaluation of f at ``x``; its value is not checked."""
        self.ensure(1)
        return self.obj.evaluate(x)

    def record(self, f: Optional[float], step: float, dirnorm: float) -> None:
        """Enter iterate ``k`` at the evaluations charged so far; its value is
        ``f``, or the next one observed when ``f`` is None."""
        self.deferred = (self.k, self.used(), float(step), float(dirnorm))
        self.f = None
        if f is not None:
            self.observe(f)

    def observe(self, f: float) -> None:
        """Take ``f`` as the value at ``x``: it resolves a deferred entry and
        becomes current, then raises :class:`_TargetReached` if it meets the
        target.  A NaN or inf value raises :class:`EvaluationError` instead."""
        if not math.isfinite(f):
            raise EvaluationError("objective returned a non-finite value at an iterate", self.x)
        if self.deferred is not None:
            k, evals, step, dirnorm = self.deferred
            self.entries.append(TraceEntry(k, evals, float(f), step, dirnorm))
            self.deferred = None
        self.f = f
        if self.target is not None and f <= self.target:
            raise _TargetReached


def _armijo(evaluate: Callable[[np.ndarray], float], x, direction, f0, decrease, rule: ArmijoStep):
    """Largest alpha in {alpha_init shrink^n} with
    f(x - alpha g) <= f0 - c1 alpha decrease; ``evaluate`` values each trial."""
    alpha = rule.alpha_init
    for _ in range(rule.max_backtracks):
        trial = evaluate(x - alpha * direction)
        if trial <= f0 - rule.c1 * alpha * decrease:
            return alpha, trial
        alpha *= rule.shrink
    raise LineSearchError(
        f"no sufficient decrease within {rule.max_backtracks} backtracks"
    )


# propose(x, k) -> (direction g, decrease for the Armijo test, f(x) or None)
Propose = Callable[[np.ndarray, int], Tuple[np.ndarray, float, Optional[float]]]


def _loop(run: _Run, stop_k: int, propose: Propose) -> None:
    """Step ``run`` with ``propose`` until ``stop_k`` steps.

    ``propose`` gives f(x) when its probes evaluated it; each entry records
    the direction's norm.  Every stop (the target, the budget, a failed line
    search or evaluation) is raised to :func:`_drive`, which turns it into a
    status.
    """
    armijo = isinstance(run.rule, ArmijoStep)
    # One evaluation is reserved after every fixed-rule step so the final
    # iterate's value can always be recorded, even on a budget stop.
    reserve = 0 if armijo else 1
    while run.k < stop_k:
        if run.f is None and not run.supplies_value:
            run.observe(run.evaluate(run.x))
        run.ensure(run.step_cost + reserve)
        g, decrease, fx = propose(run.x, run.k)
        if fx is not None:
            run.observe(fx)
        if armijo:
            alpha, f_new = _armijo(run.evaluate, run.x, g, run.f, decrease, run.rule)
        else:
            alpha, f_new = run.alpha_fixed, None
        run.x = run.x - alpha * g
        run.k += 1
        run.record(f_new, alpha, math.sqrt(g.dot(g)))


def _start_point(obj: Objective, x0) -> np.ndarray:
    x = np.array(x0, dtype=float)
    if x.shape != (obj.d,):
        raise ConfigurationError(
            f"initial point has shape {x.shape}, objective expects ({obj.d},)"
        )
    return x


def validate_config(cfg: SsdConfig, obj: Objective) -> None:
    """Reject inconsistent options before any evaluation is charged."""
    _check_ell(obj.d, cfg.ell)
    _drawer(cfg.distribution)
    validate_scheme(cfg.fd)
    rule = cfg.step_rule
    if isinstance(rule, FixedStep):
        if not 0 < rule.alpha < math.inf:
            raise ConfigurationError(f"step size must be positive and finite, got {rule.alpha}")
    elif isinstance(rule, ArmijoStep):
        if not 0 < rule.c1 < 1:
            raise ConfigurationError(f"need 0 < c1 < 1, got {rule.c1}")
        if not 0 < rule.shrink < 1:
            raise ConfigurationError(f"need 0 < shrink < 1, got {rule.shrink}")
        if not 0 < rule.alpha_init < math.inf:
            raise ConfigurationError(
                f"initial trial step must be positive and finite, got {rule.alpha_init}"
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
    if cfg.target_value is not None and math.isnan(cfg.target_value):
        raise ConfigurationError("target value must be a number, got nan")
    if cfg.exact_gradient and obj.reference_gradient is None:
        raise ConfigurationError("exact_gradient requires a reference gradient")


def _sketch_derivatives(obj, x, cfg: SsdConfig, P: Sketch):
    if cfg.exact_gradient:
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


def _sketched_direction(obj: Objective, x, cfg: SsdConfig, rng):
    """Proposal ``(P s, s^T s, f(x) or None)`` for a sketch drawn from ``rng``
    (an :class:`RngStream` or a positioned :class:`SketchStream`)."""
    P = draw(cfg.distribution, obj.d, cfg.ell, rng)
    s, fx = _sketch_derivatives(obj, x, cfg, P)
    return P.matrix @ s, float(s @ s), fx


def _single_step(obj: Objective, x, cfg: SsdConfig, iteration: int, direction):
    """One step outside a run, for the diagnostic hooks.

    ``direction(x)`` returns a proposal as :data:`Propose` does; the step
    rule then moves along it without a budget.  Returns ``(x_next, entry)``
    with the evaluations charged by this call.
    """
    x = _start_point(obj, x)
    before = obj.eval_count
    g, decrease, fx = direction(x)
    alpha = _fixed_alpha(cfg.step_rule, obj, cfg.ell)
    if alpha is None:
        f0 = fx if fx is not None else obj.evaluate(x)
        alpha, f_entry = _armijo(obj.evaluate, x, g, f0, decrease, cfg.step_rule)
    else:
        f_entry = fx if fx is not None else math.nan
    entry = TraceEntry(iteration, obj.eval_count - before, float(f_entry), alpha,
                       math.sqrt(g.dot(g)))
    return x - alpha * g, entry


def _drive(obj: Objective, x0, cfg: SsdConfig, n_dirs: int,
           propose: Optional[Propose] = None,
           epochs: Optional[Callable[[_Run], None]] = None) -> RunTrace:
    """The run lifecycle every solver shares.

    Each step differences ``n_dirs`` directions (``ell`` sketched or ``d``
    coordinate ones), which sets its evaluation cost and the theoretical
    step.  The driver builds the :class:`_Run`, charges the first
    evaluation, then steps through :func:`_loop` with ``propose``; a solver
    with its own outer structure passes ``epochs`` instead, which continues
    the started run.  The four stops (target, budget, line search,
    evaluation) are raised anywhere in the run and end it here with their
    status; a run that ends without one is ``max_iters``.  After any stop
    but a failed evaluation, a value still deferred at the final iterate is
    evaluated, admitted like any other: every fixed-rule step keeps one
    evaluation back for it.  It leaves the status as it is, unless it is NaN
    or inf, which ends the run with ``evaluation_failed``.
    """
    run = _Run(obj, cfg, n_dirs, _start_point(obj, x0))
    try:
        run.record(run.evaluate(run.x), 0.0, 0.0)
        if epochs is None:
            _loop(run, cfg.max_iters, propose)
        else:
            epochs(run)
        status = STATUS_MAX_ITERS
    except _TargetReached:
        status = STATUS_TARGET
    except BudgetError:
        status = STATUS_BUDGET
    except LineSearchError:
        status = STATUS_LINE_SEARCH
    except EvaluationError:
        # No evaluation is charged after the objective failed.
        return RunTrace(run.entries, STATUS_EVALUATION)
    if run.f is None:
        # Meeting the target with the value at the close changes no status.
        run.target = None
        try:
            run.observe(run.evaluate(run.x))
        except EvaluationError:
            status = STATUS_EVALUATION
    return RunTrace(run.entries, status)


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
    discarded), ``max_iters``, ``line_search_failed``, or
    ``evaluation_failed`` (a finite-difference probe or the value at an
    iterate was NaN or inf; that value is not recorded, and an entry still
    waiting for its value is dropped).  Line-search trials are not checked:
    a NaN or inf trial fails the decrease test and backtracks.  The trace
    carries one entry per iterate with cumulative evaluation counts.
    """
    validate_config(cfg, obj)
    stream = SketchStream(cfg.seed)
    return _drive(obj, x0, cfg, cfg.ell,
                  lambda x, k: _sketched_direction(obj, x, cfg, stream.at(k)))
