"""Stochastic subspace descent.

Each iteration draws a fresh random sketch P, estimates the projected
gradient s ~ P^T grad f(x) by finite differences, and steps along
g = P s:  x+ = x - alpha g.  Because E[P P^T] = I the step is an unbiased
surrogate for gradient descent at a fraction of the evaluation cost.

Three step rules are supported: a fixed alpha, the theoretical
ell / (d lambda), and Armijo backtracking whose sufficient-decrease test
uses s^T s (already available from the sketch) so it needs no extra
derivative information.  Each search of a run starts at the grid step the
one before it accepted, and the same s^T s is the slope of a quadratic fit
through that first trial: a rejected trial is followed by the fit's step
(and by the skipped step above it only when a second fit, through the
accepted trial, allows it), and a passing one by the largest step the fit
allows, unless the fit rules out the step above.

Every solver in the package runs on one driver, ``_drive``.  A run's fixed
plan and budget and its changing iterate and trace are one ``_Run``.
``_Run.admit`` admits every step, ``_Run.evaluate`` admits and charges each
single evaluation made outside the oracle, and ``_Run.record`` is where a
value at a new iterate is checked to be finite, enters the trace, becomes
current and is tested against the target.  The driver checks the config
with ``SsdConfig.check`` (no runner checks its own; ``_single_step`` checks
for the one-step hooks), charges the first evaluation, steps through
``_loop`` with the solver's direction proposer, and ends the run with its
terminal status.  A proposer takes the iterate, the step index and the
value at the iterate, and returns ``(direction, decrease, f(x) or None)``;
the loop takes the direction norm itself.  From its start evaluation on, a
run knows f at its iterate: Armijo's accepted trial is the new iterate as
evaluated, and a fixed-rule step evaluates its new iterate at once.  So
forward differences evaluate each iterate once, as the base of the next
probe set.  ``run_ssd`` proposes sketched directions, the baselines
propose full-gradient and quasi-Newton ones, and the variance-reduced
solver runs its anchored epochs inside the same driver, one ``_loop`` call
per epoch.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from .errors import BudgetError, ConfigurationError, EvaluationError, LineSearchError
from .oracle import FdScheme, directional_derivatives, validate_scheme
from .problems import Objective
from .sketch import RngStream, SketchStream, _check_ell, _drawer, draw

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
    """Backtracking on the grid alpha_init shrink^n, n < max_backtracks.

    ``max_backtracks`` counts grid steps, evaluated or skipped.  A run's
    searches after its first start at the grid step the one before accepted,
    and a quadratic fit through the first trial decides where to go from
    there: after a rejected trial it skips the steps it rules out, and the
    step just above the fit's is tried only when a second fit allows it;
    after a passing one it tries the largest step it allows, if that is
    larger (see ``_armijo``).  Along a quadratic, with an accurate slope,
    the accepted step is plain backtracking's; otherwise a fit off by more
    than a factor 1/shrink can give a smaller step, which still passes the
    decrease test.
    """

    c1: float = 1e-4
    shrink: float = 0.5
    alpha_init: float = 1.0
    max_backtracks: int = 30


StepRule = Union[FixedStep, TheoreticalStep, ArmijoStep]


def _check_ints(owner, *names: str) -> None:
    """Refuse a count of ``owner`` that is not an integer; numpy integers pass."""
    for name in names:
        value = getattr(owner, name)
        try:
            operator.index(value)
        except TypeError:
            raise ConfigurationError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class SsdConfig:
    """Options for one solver run.

    ``fd`` is the derivative source: forward or centered differences, or
    ``FdScheme("exact")`` for the objective's reference gradient at zero
    evaluation cost, which exists so tests can remove FD noise and is not
    for production use.
    """

    ell: int
    distribution: str = "haar"
    step_rule: StepRule = ArmijoStep()
    fd: FdScheme = FdScheme()
    max_iters: int = 1000
    eval_budget: int = 1_000_000
    target_value: Optional[float] = None
    seed: int = 0

    def check(self, obj: Objective) -> None:
        """Reject options that cannot run on ``obj``, before any evaluation."""
        _check_ints(self, "ell", "max_iters", "eval_budget", "seed")
        _check_ell(obj.d, self.ell)
        _drawer(self.distribution)
        validate_scheme(self.fd, obj)
        rule = self.step_rule
        if isinstance(rule, FixedStep):
            if not 0 < rule.alpha < math.inf:
                raise ConfigurationError(
                    f"step size must be positive and finite, got {rule.alpha}")
        elif isinstance(rule, ArmijoStep):
            if not 0 < rule.c1 < 1:
                raise ConfigurationError(f"need 0 < c1 < 1, got {rule.c1}")
            if not 0 < rule.shrink < 1:
                raise ConfigurationError(f"need 0 < shrink < 1, got {rule.shrink}")
            if not 0 < rule.alpha_init < math.inf:
                raise ConfigurationError(
                    f"initial trial step must be positive and finite, got {rule.alpha_init}")
            _check_ints(rule, "max_backtracks")
            if rule.max_backtracks < 1:
                raise ConfigurationError(f"need at least one backtrack, got {rule.max_backtracks}")
        elif isinstance(rule, TheoreticalStep):
            if obj.lipschitz_constant is None:
                raise ConfigurationError("theoretical step rule needs obj.lipschitz_constant")
            theoretical_step(self.ell, obj.d, obj.lipschitz_constant)  # refuses lambda <= 0
        else:
            raise ConfigurationError(f"unknown step rule {rule!r}")
        if self.max_iters < 1:
            raise ConfigurationError(f"max_iters must be positive, got {self.max_iters}")
        if self.eval_budget < 1:
            raise ConfigurationError(f"evaluation budget must be positive, got {self.eval_budget}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be nonnegative, got {self.seed}")
        if self.target_value is not None and math.isnan(self.target_value):
            raise ConfigurationError("target value must be a number, got nan")


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
    is part of the run's cost.  A fixed-rule entry's count stops just before
    the evaluation of its own value, while entry 0 and Armijo entries end at
    the evaluation that produced theirs; Armijo trials evaluated after it
    are counted by the next entry.  ``charged`` counts every evaluation of
    the run, including that last value and any trials or probes after the
    last entry; a trace read back from a file has None.
    """

    entries: List[TraceEntry]
    terminal_status: Optional[str] = None
    charged: Optional[int] = None

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
        return theoretical_step(ell, obj.d, obj.lipschitz_constant)
    return None


class _TargetReached(Exception):
    """Raised by :meth:`_Run.record` once a recorded value meets the target."""


class _Run:
    """One run: a plan fixed when it is made (step rule, ``step_cost``,
    target, budget) and an iterate that changes, ``x`` after ``k`` steps.

    Its value ``f`` is known from the start evaluation on: every step that
    moves ``x`` records the new value with it in ``entries``.  A known ``f``
    is the base value of the next forward probe set, so that set evaluates
    only its shifted points; ``step_cost`` counts those.  ``n`` is the grid
    step the last Armijo search accepted (0 before the first), where the
    next fitted search starts.
    """

    def __init__(self, obj: Objective, cfg: SsdConfig, n_dirs: int, x: np.ndarray):
        self.obj = obj
        self.rule = cfg.step_rule
        self.alpha_fixed = _fixed_alpha(cfg.step_rule, obj, n_dirs)
        self.step_cost = _step_cost(cfg, n_dirs)
        self.target = cfg.target_value
        self.start = obj.eval_count
        self.limit = cfg.eval_budget
        self.entries: List[TraceEntry] = []
        self.x = x
        self.f: Optional[float] = None
        self.k = 0
        self.n = 0

    def used(self) -> int:
        return self.obj.eval_count - self.start

    def ensure(self, n: int) -> None:
        """Raise :class:`BudgetError` unless ``n`` more evaluations fit."""
        if self.used() + n > self.limit:
            raise BudgetError(f"needs {n} more evaluations, {self.limit - self.used()} left")

    def admit(self, extra: int = 0) -> None:
        """Admit a step of ``step_cost + extra``, plus a fixed rule's new value."""
        self.ensure(self.step_cost + extra + (self.alpha_fixed is not None))

    def evaluate(self, x: np.ndarray) -> float:
        """Admit and charge one evaluation of f at ``x``; its value is not checked."""
        self.ensure(1)
        return self.obj.evaluate(x)

    def record(self, f: float, step: float, dirnorm: float, evals: int) -> None:
        """Enter iterate ``k`` with value ``f`` at ``evals`` charged
        evaluations; ``f`` becomes current, then raises
        :class:`_TargetReached` if it meets the target.  A NaN or inf value
        raises :class:`EvaluationError` instead and is not recorded."""
        if not math.isfinite(f):
            raise EvaluationError("objective returned a non-finite value at an iterate", self.x)
        self.entries.append(TraceEntry(self.k, evals, float(f), float(step), float(dirnorm)))
        self.f = f
        if self.meets_target(f):
            raise _TargetReached

    def meets_target(self, f: float) -> bool:
        return self.target is not None and f <= self.target

    def may_look(self, f: float) -> bool:
        """Whether a line search that found ``f`` may evaluate one more
        trial: not when ``f`` meets the target, where the run stops, nor
        when the budget has no evaluation left."""
        return not self.meets_target(f) and self.used() < self.limit


def _fit_limit(f0, decrease, alpha, trial, c1) -> Optional[float]:
    """The largest step that the quadratic through f0, slope -decrease and
    the trial (alpha, trial) accepts, (1 - c1) decrease / curvature; None
    unless that fit is finite and convex."""
    curvature = (trial - float(f0) + alpha * decrease) / alpha / alpha
    if not (math.isfinite(curvature) and curvature > 0):
        return None
    return (1.0 - c1) * decrease / curvature


# The share of |f| (4096 units in its last place) under which the rise of a
# search's first trial is taken for rounding: a fit through it would rest on
# a few noisy bits.  A trial deep on the grid can even leave x unchanged,
# where its rise is alpha decrease alone.
_RESOLUTION = 2.0 ** -40


class _Accepted(tuple):
    """What :func:`_armijo` accepted, ``(alpha, point, value, late)``, with
    the accepted step's grid index n as ``index``."""

    def __new__(cls, alpha, point, value, late, index):
        accepted = super().__new__(cls, (alpha, point, value, late))
        accepted.index = index
        return accepted


def _armijo(evaluate: Callable[[np.ndarray], float], x, direction, f0, decrease,
            rule: ArmijoStep, fit: bool = True,
            may_look: Callable[[float], bool] = lambda value: True, start: int = 0):
    """Largest alpha in {alpha_init shrink^n, n < max_backtracks} with
    f(x - alpha g) <= f0 - c1 alpha decrease; ``evaluate`` values each trial.

    The search from grid step 0: when the first trial is rejected and
    ``fit`` holds (``decrease`` is the slope of f along -g), the next trial
    is the largest grid step that the quadratic fit of :func:`_fit_limit`
    accepts.  If that trial passes and ``may_look(value)`` holds, a second
    fit through it decides on the skipped step just above: that step is
    evaluated unless the second fit rules it out, and taken if it passes.
    When the fit's step lies just past the grid the search tries the last
    grid step; it halves plainly when the fit is not finite and convex or
    rules out the whole grid, so the smallest step is always tried before
    the search fails.  ``max_backtracks`` counts grid steps, evaluated or
    skipped.

    A search whose first trial is grid step ``start`` > 0 (a run passes the
    step its previous search accepted) takes that trial if it passes and
    ``may_look`` refuses a further one.  Otherwise the fit through it
    decides: a rejected trial continues as the search from step 0 does after
    its first, and a passing one is taken if the fit rules out the grid
    step above, else the largest grid step the fit allows is evaluated once
    and taken if it passes, and the first trial if not.  A fit that is not
    finite and convex, or whose rise is rounding (under
    :data:`_RESOLUTION` of |f|), or ``fit`` false, hands over to the search
    from step 0, as does a search that fails from ``start`` down, so the
    search fails only where the one from step 0 fails.  No grid step is
    evaluated twice.  Along a quadratic, with an accurate slope, the
    accepted step is plain backtracking's whatever the start; otherwise a
    fit off by more than a factor 1/shrink can give a smaller step, which
    still passes the same test.

    Returns an :class:`_Accepted` ``(alpha, point, value, late)`` with the
    accepted trial point itself, so its value belongs to exactly that
    array; ``late`` counts the trials evaluated after it, and ``index`` is
    its grid step n.
    """
    c1, shrink, last = rule.c1, rule.shrink, rule.max_backtracks
    tried = {}  # grid step n -> (alpha, point, value, order of evaluation)

    def passes(n, alpha):
        """Whether grid step n, of size alpha, passes; evaluated once."""
        if n not in tried:
            point = x - alpha * direction
            tried[n] = alpha, point, evaluate(point), len(tried)
        return tried[n][2] <= f0 - c1 * alpha * decrease

    def accept(n):
        alpha, point, value, order = tried[n]
        return _Accepted(alpha, point, value, len(tried) - 1 - order, n)

    def descend(n, alpha, limit):
        """The grid step accepted after step n, of size alpha, was rejected
        and the fit through it gave ``limit``; None when none passes."""
        n, alpha, above = n + 1, alpha * shrink, None
        if limit is not None:
            # Walk down the grid to the fit's largest acceptable step.
            fit_n, fit_alpha, up = n, alpha, None
            while fit_n < last and fit_alpha > limit:
                up, fit_alpha, fit_n = fit_alpha, fit_alpha * shrink, fit_n + 1
            if fit_n < last:
                n, alpha = fit_n, fit_alpha
                above = None if up is None else (fit_n - 1, up)
            elif fit_alpha <= limit and up is not None:
                # That step lies just past the grid: try the last grid step.
                n, alpha = fit_n - 1, up
        while n < last:
            if passes(n, alpha):
                value = tried[n][2]
                if above is not None and may_look(value):
                    limit = _fit_limit(f0, decrease, alpha, value, c1)
                    if (limit is None or limit >= above[1]) and passes(*above):
                        return above[0]
                return n
            n, alpha, above = n + 1, alpha * shrink, None
        return None

    if start:
        up, alpha = None, rule.alpha_init
        for _ in range(start):
            up, alpha = alpha, alpha * shrink
        passed = passes(start, alpha)
        value = tried[start][2]
        if passed and not may_look(value):
            return accept(start)
        limit = _fit_limit(f0, decrease, alpha, value, c1) if fit else None
        # A fit whose rise over the line is rounding is not read.
        rise = value - f0 + alpha * decrease
        if limit is not None and rise > _RESOLUTION * max(abs(f0), abs(value)):
            if not passed:
                n = descend(start, alpha, limit)
                if n is not None:
                    return accept(n)
            elif limit < up:
                return accept(start)
            else:
                # The largest grid step the fit allows, above start.
                n, alpha = 0, rule.alpha_init
                while alpha > limit:
                    n, alpha = n + 1, alpha * shrink
                return accept(n if passes(n, alpha) else start)
    alpha = rule.alpha_init
    if passes(0, alpha):
        n = 0
    else:
        n = descend(0, alpha, _fit_limit(f0, decrease, alpha, tried[0][2], c1) if fit else None)
    if n is None:
        raise LineSearchError(
            f"no sufficient decrease within {last} backtracks"
        )
    return accept(n)


# propose(x, k, f(x)) -> (direction g, decrease for the Armijo test, f(x) or None);
# _loop ignores the returned f(x), which only the one-step hooks read.
Propose = Callable[[np.ndarray, int, float], Tuple[np.ndarray, float, Optional[float]]]


def _loop(run: _Run, stop_k: int, propose: Propose, fit: bool = True) -> None:
    """Step ``run`` with ``propose`` until ``stop_k`` steps.

    Each step is admitted by :meth:`_Run.admit` (a proposer whose step
    costs more admits its extra cost) before ``propose`` gets f(x), which
    the run knows at every iterate; each entry records the direction's
    norm.  ``fit`` says the decrease is the slope of f along -g, so Armijo
    may fit it and starts at the grid step ``run.n`` the last search
    accepted; without it every search starts at ``alpha_init``.  A
    fixed-rule step evaluates f at its new iterate at once, admitted with
    the probes, and its entry counts the evaluations charged before that
    value.  An Armijo entry counts up to its accepted trial; trials
    evaluated after it are left to the next entry.  Every stop
    (the target, the budget, a failed line search or evaluation) is raised
    to :func:`_drive`, which turns it into a status.
    """
    while run.k < stop_k:
        run.admit()
        g, decrease, _ = propose(run.x, run.k, run.f)
        if run.alpha_fixed is None:
            accepted = _armijo(run.evaluate, run.x, g, run.f, decrease, run.rule, fit,
                               run.may_look, run.n if fit else 0)
            alpha, run.x, f_new, late = accepted
            run.n, evals = accepted.index, run.used() - late
        else:
            alpha, evals = run.alpha_fixed, run.used()
            run.x = run.x - alpha * g
            f_new = run.evaluate(run.x)
        run.k += 1
        run.record(f_new, alpha, math.sqrt(g.dot(g)), evals)


def _start_point(obj: Objective, x0) -> np.ndarray:
    x = np.array(x0, dtype=float)
    if x.shape != (obj.d,):
        raise ConfigurationError(
            f"initial point has shape {x.shape}, objective expects ({obj.d},)"
        )
    return x


def _step_cost(cfg: SsdConfig, n_dirs: int) -> int:
    """Evaluations one oracle call over ``n_dirs`` directions charges when
    f at its point is known."""
    return {"forward": n_dirs, "centered": 2 * n_dirs, "exact": 0}[cfg.fd.kind]


def _sketched_direction(obj: Objective, x, cfg: SsdConfig, rng, fx=None):
    """Proposal ``(P s, s^T s, f(x) or None)`` for a sketch drawn from ``rng``
    (an :class:`RngStream` or a positioned :class:`SketchStream`); ``fx`` is
    f(x) when known."""
    P = draw(cfg.distribution, obj.d, cfg.ell, rng)
    s, fx = directional_derivatives(obj, x, P, cfg.fd, return_value=True, fx=fx)
    return P.matrix @ s, float(s @ s), fx


def _single_step(obj: Objective, x, cfg: SsdConfig, iteration: int, direction,
                 fit: bool = True):
    """One step outside a run, for the diagnostic hooks.

    ``direction(x)`` returns a proposal as :data:`Propose` does; the step
    rule then moves along it without a budget, with the quadratic fit of
    :func:`_armijo` when ``fit`` holds; an Armijo search starts at
    ``alpha_init``, as it has no previous step.  Returns ``(x_next, entry)``
    with the evaluations charged by this call.
    """
    cfg.check(obj)
    x = _start_point(obj, x)
    before = obj.eval_count
    g, decrease, fx = direction(x)
    alpha = _fixed_alpha(cfg.step_rule, obj, cfg.ell)
    if alpha is None:
        f0 = fx if fx is not None else obj.evaluate(x)
        alpha, x_next, f_entry, _ = _armijo(obj.evaluate, x, g, f0, decrease, cfg.step_rule,
                                            fit)
    else:
        x_next, f_entry = x - alpha * g, (fx if fx is not None else math.nan)
    entry = TraceEntry(iteration, obj.eval_count - before, float(f_entry), alpha,
                       math.sqrt(g.dot(g)))
    return x_next, entry


def _drive(obj: Objective, x0, cfg: SsdConfig, n_dirs: int,
           propose: Optional[Propose] = None,
           epochs: Optional[Callable[[_Run], None]] = None) -> RunTrace:
    """The run lifecycle every solver shares.

    Each step differences ``n_dirs`` directions (``ell`` sketched or ``d``
    coordinate ones), which sets its evaluation cost and the theoretical
    step.  The driver checks ``cfg`` against ``obj``, builds the
    :class:`_Run`, charges the first evaluation, then steps through
    :func:`_loop` with ``propose``; a solver with its own outer structure
    passes ``epochs`` instead, which continues the started run.  The four
    stops (target, budget, line search, evaluation) are raised anywhere in
    the run and end it here with their status; a run that ends without one
    is ``max_iters``.  Every entry's value is known when it is recorded, so
    nothing is evaluated after the stepping ends.
    """
    cfg.check(obj)
    run = _Run(obj, cfg, n_dirs, _start_point(obj, x0))
    try:
        f0 = run.evaluate(run.x)
        run.record(f0, 0.0, 0.0, run.used())
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
        status = STATUS_EVALUATION
    return RunTrace(run.entries, status, run.used())


def ssd_step(obj: Objective, x, cfg: SsdConfig, rng: RngStream, iteration: int = 0):
    """One sketched descent step with an explicitly supplied stream.

    Diagnostic hook: returns ``(x_next, entry)`` where the entry records the
    evaluations charged by this call, the step size, and the direction norm.
    Its f field is the best value available (the accepted point for Armijo,
    the base point for shared forward differences, NaN otherwise);
    :func:`run_ssd` builds properly aligned traces.
    """
    return _single_step(obj, x, cfg, iteration,
                        lambda x: _sketched_direction(obj, x, cfg, rng))


def run_ssd(obj: Objective, x0, cfg: SsdConfig) -> RunTrace:
    """Run sketched descent from ``x0`` until a terminal condition.

    Terminal statuses: ``target_reached`` (f fell to ``cfg.target_value``),
    ``budget_exhausted`` (the next operation would not fit; a partial step is
    discarded), ``max_iters``, ``line_search_failed``, or
    ``evaluation_failed`` (a finite-difference probe or the value at an
    iterate was NaN or inf; that value is not recorded).  Line-search
    trials are not checked: a NaN or inf trial fails the decrease test and
    backtracks.  The trace carries one entry per iterate with cumulative
    evaluation counts.
    """
    stream = SketchStream(cfg.seed)
    return _drive(obj, x0, cfg, cfg.ell,
                  lambda x, k, fx: _sketched_direction(obj, x, cfg, stream.at(k), fx))
