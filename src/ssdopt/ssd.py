"""Stochastic subspace descent.

Each iteration draws a fresh random sketch P, estimates the projected
gradient s ~ P^T grad f(x) by finite differences, and steps along
g = P s:  x+ = x - alpha g.  Because E[P P^T] = I the step is an unbiased
surrogate for gradient descent at a fraction of the evaluation cost.

Three step rules are supported: a fixed alpha, the theoretical
ell / (d lambda), and Armijo backtracking whose sufficient-decrease test
uses s^T s (already available from the sketch) so it needs no extra
derivative information.  Each search of a run starts at the grid step the
one before it accepted, and a quadratic fit with the same s^T s as its
slope picks the grid steps it tries (see ``_armijo``).

Every solver in the package runs on one driver, ``_drive``.  A run's fixed
plan and budget and its changing iterate and trace are one ``_Run``.
``_Run.admit`` admits every step, ``_Run.evaluate`` admits and charges each
single evaluation made outside the oracle, and ``_Run.record`` is where a
value at a new iterate is checked to be finite, enters the trace, becomes
current and is tested against the target.  A ``_Run`` checks the config
with ``SsdConfig.check`` when it is made (no runner checks its own).  The
driver charges the first evaluation, steps through ``_loop`` with the
solver's direction proposer, and ends the run with its terminal status;
the one-step hooks are runs of at most one step.  A proposer takes the
iterate, the step index and the value at the iterate, and returns
``(direction, decrease)``; the loop takes the direction norm itself.  From
its start evaluation on, a run knows f at its iterate: Armijo's accepted
trial is the new iterate as evaluated, and a fixed-rule step evaluates its
new iterate at once.  So forward differences evaluate each iterate once,
as the base of the next probe set.  ``run_ssd`` proposes sketched
directions, the baselines propose full-gradient and quasi-Newton ones, and
the variance-reduced solver runs its anchored epochs inside the same
driver, one ``_loop`` call per epoch.
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

    A run's searches start at the grid step the one before accepted, and a
    quadratic fit through their trials skips the grid steps it rules out,
    so ``max_backtracks`` counts grid steps, evaluated or skipped; the
    rules are stated once, in ``_armijo``.
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


class _TargetReached(Exception):
    """Raised by :meth:`_Run.record` once a recorded value meets the target."""


class _Run:
    """One run: a plan fixed when it is made (step rule, ``step_cost``,
    target, budget) and an iterate that changes, ``x`` after ``k`` steps.
    Making it checks ``cfg`` against ``obj`` and the start point ``x0``.

    Its value ``f`` is known from :meth:`begin` on: every step that
    moves ``x`` records the new value with it in ``entries``.  A known ``f``
    is the base value of the next forward probe set, so that set evaluates
    only its shifted points; ``step_cost`` counts those.  ``n`` is the grid
    index the last Armijo search returned with its accepted step (0 before
    the first), where the next fitted search starts.
    """

    def __init__(self, obj: Objective, cfg: SsdConfig, n_dirs: int, x0):
        cfg.check(obj)
        self.obj = obj
        self.rule = cfg.step_rule
        self.alpha_fixed: Optional[float] = None
        if isinstance(self.rule, FixedStep):
            self.alpha_fixed = self.rule.alpha
        elif isinstance(self.rule, TheoreticalStep):
            self.alpha_fixed = theoretical_step(n_dirs, obj.d, obj.lipschitz_constant)
        self.step_cost = _step_cost(cfg, n_dirs)
        self.target = cfg.target_value
        self.start = obj.eval_count
        self.limit = cfg.eval_budget
        self.entries: List[TraceEntry] = []
        self.x = np.array(x0, dtype=float)
        if self.x.shape != (obj.d,):
            raise ConfigurationError(
                f"initial point has shape {self.x.shape}, objective expects ({obj.d},)")
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

    def begin(self) -> None:
        """Charge and record the value at the start point, with no step."""
        self.record(self.evaluate(self.x), 0.0, 0.0, self.used())

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


def _grid_step(n, alpha, limit, stop, shrink):
    """Walk the grid down from step n, of size alpha, to the first step whose
    size is at or under ``limit``, or to step ``stop`` if none before it is:
    ``(index, size, size of the step above it)``, the last None when no step
    was walked."""
    up = None
    while n < stop and alpha > limit:
        n, alpha, up = n + 1, alpha * shrink, alpha
    return n, alpha, up


def _armijo(evaluate: Callable[[np.ndarray], float], x, direction, f0, decrease,
            rule: ArmijoStep, fit: bool = True,
            may_look: Callable[[float], bool] = lambda value: True, start: int = 0):
    """Largest alpha in {alpha_init shrink^n, n < max_backtracks} with
    f(x - alpha g) <= f0 - c1 alpha decrease; ``evaluate`` values each trial.

    The first trial is grid step ``start`` (a run passes the step its last
    search accepted).  When ``fit`` holds, ``decrease`` is the slope of f
    along -g, and the quadratic fit of :func:`_fit_limit` through a trial
    gives the largest step it accepts.  The rules for a first trial:

    - it is taken if it passes at step 0, or passes where
      ``may_look(value)`` refuses a further trial;
    - from a start > 0, a fit that cannot be read hands over to the search
      from step 0: ``fit`` is false, the fit is not finite and convex, or
      its rise over the line is rounding (under :data:`_RESOLUTION` of |f|);
    - above a passing trial, the largest grid step the fit allows is
      evaluated once and taken if it passes, else the first trial is kept,
      as it is when the fit rules out every step above it;
    - after a rejected trial, the next is the largest grid step the fit
      allows.  If it passes and ``may_look`` holds, a second fit through it
      decides on the skipped step just above: that step is evaluated unless
      the second fit rules it out, and taken if it passes.  A fit step just
      past the grid is replaced by the last grid step; without a fit, or
      when it rules out the grid, the search halves plainly, so the smallest
      step is tried before the search fails.  Then the search halves to the
      end of the grid.  When nothing passes, a search from a start > 0 hands
      over to the one from step 0, and that one raises
      :class:`LineSearchError`.

    The search from step 0 reuses the trials already made: no grid step is
    evaluated twice, and a search fails only where the one from step 0
    fails.  ``max_backtracks`` counts grid steps, evaluated or skipped.
    Along a quadratic, with an accurate slope, the accepted step is plain
    backtracking's whatever the start; otherwise a fit off by more than a
    factor 1/shrink can give a smaller step, which still passes the test.

    Returns ``(alpha, point, value, late, index)``: the accepted trial point
    itself, so its value belongs to exactly that array, the number of trials
    evaluated after it, and its grid step n.
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
        return alpha, point, value, len(tried) - 1 - order, n

    for first in ((start, 0) if start else (0,)):
        # Sizes are walked, not powered, so every walk meets the same floats.
        alpha = _grid_step(0, rule.alpha_init, -math.inf, first, shrink)[1]
        passed = passes(first, alpha)
        value = tried[first][2]
        if passed and not (first and may_look(value)):
            return accept(first)
        limit = _fit_limit(f0, decrease, alpha, value, c1) if fit else None
        # A fit whose rise over the line is rounding is not read.
        if first and (limit is None or value - f0 + alpha * decrease
                      <= _RESOLUTION * max(abs(f0), abs(value))):
            continue
        if passed:
            n, above, _ = _grid_step(0, rule.alpha_init, limit, first, shrink)
            return accept(n if n < first and passes(n, above) else first)
        limit = math.inf if limit is None else limit
        n, step, up = _grid_step(first + 1, alpha * shrink, limit, last, shrink)
        if step > limit:
            # The fit rules out the whole grid: halve plainly.
            n, step, up = first + 1, alpha * shrink, None
        elif n == last and up is not None:
            # The fit's step lies just past the grid: try the last grid step.
            n, step, up = n - 1, up, None
        while n < last:
            if passes(n, step):
                value = tried[n][2]
                if up is not None and may_look(value):
                    second = _fit_limit(f0, decrease, step, value, c1)
                    if (second is None or second >= up) and passes(n - 1, up):
                        n -= 1
                return accept(n)
            n, step, up = n + 1, step * shrink, None
    raise LineSearchError(f"no sufficient decrease within {last} backtracks")


# propose(x, k, f(x)) -> (direction g, decrease for the Armijo test).
Propose = Callable[[np.ndarray, int, float], Tuple[np.ndarray, float]]


def _loop(run: _Run, stop_k: int, propose: Propose, fit: bool = True) -> None:
    """Step ``run`` with ``propose`` until ``stop_k`` steps.

    Each step is admitted by :meth:`_Run.admit` (a proposer whose step
    costs more admits its extra cost) before ``propose`` gets f(x), which
    the run knows at every iterate; each entry records the direction's
    norm.  ``fit`` says the decrease is the slope of f along -g, so Armijo
    may fit it and starts at ``run.n``, the grid index the last search
    returned; without it every search starts at ``alpha_init``.  A
    fixed-rule step evaluates f at its new iterate at once, admitted with
    the probes, and its entry counts the evaluations charged before that
    value.  An Armijo entry counts up to its accepted trial; trials
    evaluated after it are left to the next entry.  Every stop
    (the target, the budget, a failed line search or evaluation) is raised
    to the caller; :func:`_drive` turns it into a status.
    """
    while run.k < stop_k:
        run.admit()
        g, decrease = propose(run.x, run.k, run.f)
        if run.alpha_fixed is None:
            alpha, run.x, f_new, late, run.n = _armijo(
                run.evaluate, run.x, g, run.f, decrease, run.rule, fit, run.may_look,
                run.n if fit else 0)
            evals = run.used() - late
        else:
            alpha, evals = run.alpha_fixed, run.used()
            run.x = run.x - alpha * g
            f_new = run.evaluate(run.x)
        run.k += 1
        run.record(f_new, alpha, math.sqrt(g.dot(g)), evals)


def _step_cost(cfg: SsdConfig, n_dirs: int) -> int:
    """Evaluations one oracle call over ``n_dirs`` directions charges when
    f at its point is known."""
    return {"forward": n_dirs, "centered": 2 * n_dirs, "exact": 0}[cfg.fd.kind]


def _sketched_direction(obj: Objective, x, cfg: SsdConfig, rng, fx):
    """Proposal ``(P s, s^T s)`` for a sketch drawn from ``rng`` (an
    :class:`RngStream` or a positioned :class:`SketchStream`); ``fx`` is
    f(x), the base value of forward probes."""
    P = draw(cfg.distribution, obj.d, cfg.ell, rng)
    s = directional_derivatives(obj, x, P, cfg.fd, fx=fx)
    return P.matrix @ s, float(s @ s)


def _single_step(obj: Objective, x, cfg: SsdConfig, iteration: int, direction,
                 fit: bool = True, extra_dirs: int = 0):
    """A run of at most one step from ``x``, for the diagnostic hooks.

    It records f(x) as entry ``iteration - 1`` and takes one :func:`_loop`
    step along ``direction(x, f(x))``, a ``(direction, decrease)`` pair;
    ``extra_dirs`` more directions that the proposal differences are
    admitted before it is made.  Returns ``(x_next, last entry)``; a met
    target returns normally, the other stops are raised.
    """
    run = _Run(obj, cfg, cfg.ell, x)
    run.k = iteration - 1

    def propose(x, k, fx):
        run.admit(_step_cost(cfg, extra_dirs))
        return direction(x, fx)

    try:
        run.begin()
        _loop(run, iteration, propose, fit)
    except _TargetReached:
        pass
    return run.x, run.entries[-1]


def _drive(obj: Objective, x0, cfg: SsdConfig, n_dirs: int,
           propose: Optional[Propose] = None,
           epochs: Optional[Callable[[_Run], None]] = None) -> RunTrace:
    """The run lifecycle every solver shares.

    Each step differences ``n_dirs`` directions (``ell`` sketched or ``d``
    coordinate ones), which sets its evaluation cost and the theoretical
    step.  The driver builds the :class:`_Run`, which checks ``cfg``
    against ``obj``, charges the first evaluation, then steps through
    :func:`_loop` with ``propose``; a solver with its own outer structure
    passes ``epochs`` instead, which continues the started run.  The four
    stops (target, budget, line search, evaluation) are raised anywhere in
    the run and end it here with their status; a run that ends without one
    is ``max_iters``.  Every entry's value is known when it is recorded, so
    nothing is evaluated after the stepping ends.
    """
    run = _Run(obj, cfg, n_dirs, x0)
    try:
        run.begin()
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

    Diagnostic hook: a run of at most one step from ``x``, whose
    ``(x_next, entry)`` it returns; the entry, labelled ``iteration``, is
    the one :func:`run_ssd` records, with f the value at ``x_next``.  f(x)
    and a fixed rule's new value are charged within ``cfg.eval_budget``; a
    target met at ``x`` returns the start entry, labelled ``iteration - 1``,
    and the run's other stops are raised.
    """
    return _single_step(obj, x, cfg, iteration,
                        lambda x, fx: _sketched_direction(obj, x, cfg, rng, fx))


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
