"""Subspace descent driver: steps, budgets, traces, admissibility."""

import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ssdopt.ssd as ssd_module
from ssdopt import (
    AnchorState,
    ArmijoStep,
    ConfigurationError,
    FdScheme,
    FixedStep,
    Objective,
    ProblemSpec,
    RngStream,
    SsdConfig,
    TheoreticalStep,
    VrssdConfig,
    convex_bound,
    isotropic_quadratic,
    nesterov_worst,
    rank_deficient_least_squares,
    rate_bound_pl,
    run_fd_bfgs,
    run_fd_gd,
    run_ssd,
    run_vrssd,
    ssd_step,
    estimate_linear_rate,
    theoretical_step,
    vrssd_inner_step,
)
from ssdopt.errors import LineSearchError
from ssdopt.ssd import TraceEntry, _armijo


def orth(rows, cols, seed):
    return np.linalg.qr(np.random.default_rng(seed).standard_normal((rows, cols)))[0]


class TestStepAndRateHelpers:
    def test_theoretical_step_value(self):
        assert theoretical_step(5, 20, 1.0) == pytest.approx(0.25)
        assert theoretical_step(3, 12, 2.0) == pytest.approx(0.125)

    def test_rate_bound_pl_value(self):
        assert rate_bound_pl(5, 20, 1.0, 1.0) == pytest.approx(0.75)
        assert rate_bound_pl(3, 12, 2.0, 0.5) == pytest.approx(0.9375)

    def test_convex_bound_value(self):
        # 2 d lam R^2 / (k ell)
        assert convex_bound(2, 10, 4.0, 3.0, 100) == pytest.approx(3.6)

    def test_helper_rejections(self):
        with pytest.raises(ConfigurationError):
            theoretical_step(5, 20, 0.0)
        with pytest.raises(ConfigurationError):
            theoretical_step(0, 20, 1.0)
        with pytest.raises(ConfigurationError):
            theoretical_step(21, 20, 1.0)
        with pytest.raises(ConfigurationError):
            rate_bound_pl(5, 20, 1.0, 0.0)
        with pytest.raises(ConfigurationError):
            rate_bound_pl(5, 20, -1.0, 1.0)
        with pytest.raises(ConfigurationError):
            convex_bound(2, 10, 4.0, 3.0, 0)
        with pytest.raises(ConfigurationError):
            convex_bound(2, 10, 4.0, -1.0, 10)


class TestConfigValidation:
    def run(self, **kw):
        base = dict(ell=2, step_rule=FixedStep(0.1), max_iters=2)
        base.update(kw)
        run_ssd(isotropic_quadratic(4), np.ones(4), SsdConfig(**base))

    @pytest.mark.parametrize(
        "kw",
        [
            {"ell": 0},
            {"ell": 5},
            {"distribution": "sparse"},
            {"fd": FdScheme("backward")},
            {"fd": FdScheme("forward", step=-1e-3)},
            {"step_rule": FixedStep(0.0)},
            {"step_rule": FixedStep(-0.5)},
            {"step_rule": ArmijoStep(c1=0.0)},
            {"step_rule": ArmijoStep(c1=1.0)},
            {"step_rule": ArmijoStep(shrink=1.0)},
            {"step_rule": ArmijoStep(alpha_init=0.0)},
            {"step_rule": ArmijoStep(max_backtracks=0)},
            {"step_rule": "newton"},
            {"max_iters": 0},
            {"eval_budget": 0},
            {"seed": -1},
            {"target_value": math.nan},
            {"step_rule": FixedStep(math.inf)},
            {"step_rule": ArmijoStep(alpha_init=math.inf)},
            {"fd": FdScheme("exact", step=1e-3)},
            {"step_rule": ArmijoStep(max_backtracks=2.5)},
        ],
    )
    def test_rejected_configs(self, kw):
        with pytest.raises(ConfigurationError):
            self.run(**kw)

    @pytest.mark.parametrize("field", ["ell", "max_iters", "eval_budget", "seed"])
    def test_non_integer_count_is_refused_before_any_evaluation(self, field):
        obj = isotropic_quadratic(4)
        cfg = SsdConfig(**{"ell": 2, "max_iters": 3, field: 2.5})
        with pytest.raises(ConfigurationError, match=f"{field} must be an integer"):
            run_ssd(obj, np.ones(4), cfg)
        assert obj.eval_count == 0

    def test_numpy_integer_counts_run_like_ints(self):
        counts = dict(ell=2, max_iters=5, eval_budget=40, seed=3)
        wide = {k: np.int64(v) for k, v in counts.items()}
        plain = run_ssd(isotropic_quadratic(4), np.ones(4), SsdConfig(**counts))
        assert run_ssd(isotropic_quadratic(4), np.ones(4), SsdConfig(**wide)) == plain

    def test_exact_gradient_needs_reference(self):
        from ssdopt import Objective

        obj = Objective(d=3, evaluator=lambda x: float(x @ x))
        cfg = SsdConfig(ell=3, fd=FdScheme("exact"), step_rule=FixedStep(0.1), max_iters=1)
        with pytest.raises(ConfigurationError):
            run_ssd(obj, np.zeros(3), cfg)

    def test_theoretical_step_needs_constants(self):
        from ssdopt import Objective

        obj = Objective(d=3, evaluator=lambda x: float(x @ x))
        cfg = SsdConfig(ell=2, step_rule=TheoreticalStep(), max_iters=1)
        with pytest.raises(ConfigurationError):
            run_ssd(obj, np.zeros(3), cfg)


class TestSingleStep:
    def test_full_space_step_is_gradient_descent(self):
        # ell = d makes P P^T the identity for the orthogonal families, so
        # the update collapses to x - alpha g exactly.
        d, alpha, k = 6, 0.3, 12
        obj = isotropic_quadratic(d)
        x0 = np.linspace(1.0, 2.0, d)
        cfg = SsdConfig(ell=d, fd=FdScheme("exact"), step_rule=FixedStep(alpha), max_iters=k)
        trace = run_ssd(obj, x0, cfg)
        f0 = 0.5 * float(x0 @ x0)
        assert trace.entries[-1].f == pytest.approx((1 - alpha) ** (2 * k) * f0, rel=1e-8)

    def test_coordinate_single_column_update(self):
        d, alpha = 5, 0.03
        obj = isotropic_quadratic(d)
        x0 = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        cfg = SsdConfig(
            ell=1,
            distribution="coordinate",
            fd=FdScheme("exact"),
            step_rule=FixedStep(alpha),
            max_iters=1,
            seed=3,
        )
        trace = run_ssd(obj, x0.copy(), cfg)
        # exactly one coordinate moves, scaled by 1 - alpha d
        f1 = trace.entries[-1].f
        candidates = []
        for i in range(d):
            x = x0.copy()
            x[i] *= 1.0 - alpha * d
            candidates.append(0.5 * float(x @ x))
        assert any(math.isclose(f1, c, rel_tol=1e-12) for c in candidates)

    def test_step_function_returns_entry(self):
        obj = isotropic_quadratic(4)
        cfg = SsdConfig(ell=2, step_rule=FixedStep(0.1))
        x1, entry = ssd_step(obj, np.ones(4), cfg, RngStream(0, 0, 0), iteration=7)
        assert entry.iteration == 7
        assert entry.evals == 3  # ell + 1 forward evaluations
        assert entry.step == 0.1
        assert entry.dirnorm > 0.0
        assert x1.shape == (4,)
        assert obj.eval_count == 3

    def test_stationary_point_is_fixed(self):
        obj = isotropic_quadratic(4)
        cfg = SsdConfig(ell=2, fd=FdScheme("exact"), step_rule=FixedStep(0.2), max_iters=5)
        trace = run_ssd(obj, np.zeros(4), cfg)
        assert trace.entries[-1].f == 0.0
        assert all(e.dirnorm == 0.0 for e in trace.entries)


class TestTraceContract:
    def test_initial_entry(self):
        obj = isotropic_quadratic(3)
        trace = run_ssd(obj, np.array([1.0, 2.0, 2.0]), SsdConfig(ell=1, max_iters=1))
        first = trace.entries[0]
        assert (first.iteration, first.evals, first.step, first.dirnorm) == (0, 1, 0.0, 0.0)
        assert first.f == 4.5

    def test_deterministic_replay(self):
        cfg = SsdConfig(ell=3, step_rule=FixedStep(0.05), max_iters=30, seed=11)
        runs = []
        for _ in range(2):
            obj = nesterov_worst(4.0, 5, 12)
            runs.append(run_ssd(obj, np.zeros(12), cfg))
        a, b = runs
        assert [e.f for e in a.entries] == [e.f for e in b.entries]
        assert [e.evals for e in a.entries] == [e.evals for e in b.entries]

    def test_seed_changes_path(self):
        def final(seed):
            obj = nesterov_worst(4.0, 5, 12)
            cfg = SsdConfig(ell=3, step_rule=FixedStep(0.05), max_iters=30, seed=seed)
            return run_ssd(obj, np.zeros(12), cfg).entries[-1].f

        assert final(0) != final(1)

    def test_forward_fixed_eval_stamps(self):
        # Each step's probes take the known value as their base (ell), then
        # the step evaluates its new iterate (1); an entry counts the
        # evaluations before its own value, so the run charges one more.
        obj = isotropic_quadratic(20)
        cfg = SsdConfig(ell=5, step_rule=FixedStep(0.25), max_iters=20)
        trace = run_ssd(obj, np.ones(20), cfg)
        assert [e.evals for e in trace.entries] == [1] + [6 * i for i in range(1, 21)]
        assert obj.eval_count == 121
        assert trace.terminal_status == "max_iters"

    def test_centered_fixed_eval_stamps(self):
        obj = isotropic_quadratic(10)
        cfg = SsdConfig(ell=4, step_rule=FixedStep(0.05), max_iters=5, fd=FdScheme("centered"))
        trace = run_ssd(obj, np.ones(10), cfg)
        assert [e.evals for e in trace.entries] == [1, 9, 18, 27, 36, 45]
        assert obj.eval_count == 46
        assert all(np.isfinite(e.f) for e in trace.entries)

    def test_armijo_entries_monotone_with_increasing_stamps(self):
        obj = nesterov_worst(8.0, 6, 15)
        trace = run_ssd(obj, np.zeros(15), SsdConfig(ell=4, max_iters=40, seed=2))
        fs = [e.f for e in trace.entries]
        assert all(b <= a for a, b in zip(fs, fs[1:]))
        stamps = [e.evals for e in trace.entries]
        assert all(b > a for a, b in zip(stamps, stamps[1:]))


class TestTermination:
    def test_target_met_at_start(self):
        obj = isotropic_quadratic(4)
        cfg = SsdConfig(ell=2, target_value=100.0, max_iters=50)
        trace = run_ssd(obj, np.ones(4), cfg)
        assert trace.terminal_status == "target_reached"
        assert len(trace.entries) == 1
        assert obj.eval_count == 1

    def test_target_reached_mid_run(self):
        obj = isotropic_quadratic(4)
        f0 = 0.5 * 4.0
        cfg = SsdConfig(
            ell=4,
            fd=FdScheme("exact"),
            step_rule=FixedStep(0.5),
            max_iters=500,
            target_value=1e-3 * f0,
        )
        trace = run_ssd(obj, np.ones(4), cfg)
        assert trace.terminal_status == "target_reached"
        assert trace.entries[-1].f <= 1e-3 * f0
        assert len(trace.entries) < 500

    def test_budget_too_small_for_any_step(self):
        obj = isotropic_quadratic(5)
        trace = run_ssd(obj, np.ones(5), SsdConfig(ell=3, step_rule=FixedStep(0.1), eval_budget=3))
        assert trace.terminal_status == "budget_exhausted"
        assert len(trace.entries) == 1
        assert obj.eval_count == 1

    def test_budget_reserve_resolves_last_entry(self):
        # budget 7 with ell = 2 forward: the start (1) and two steps, each
        # admitted with its new iterate's value (2 + 1), land exactly on the
        # budget.
        obj = isotropic_quadratic(6)
        trace = run_ssd(obj, np.ones(6), SsdConfig(ell=2, step_rule=FixedStep(0.1), eval_budget=7))
        assert trace.terminal_status == "budget_exhausted"
        assert obj.eval_count == 7
        assert [e.evals for e in trace.entries] == [1, 3, 6]
        assert all(np.isfinite(e.f) for e in trace.entries)

    def test_line_search_failure_status(self):
        obj = isotropic_quadratic(4)
        cfg = SsdConfig(
            ell=4,
            fd=FdScheme("exact"),
            step_rule=ArmijoStep(alpha_init=3.0, max_backtracks=1),
            max_iters=10,
        )
        trace = run_ssd(obj, np.ones(4), cfg)
        assert trace.terminal_status == "line_search_failed"
        assert len(trace.entries) == 1

    def test_max_iters_status(self):
        obj = isotropic_quadratic(4)
        trace = run_ssd(obj, np.ones(4), SsdConfig(ell=2, step_rule=FixedStep(0.01), max_iters=3))
        assert trace.terminal_status == "max_iters"
        assert len(trace.entries) == 4

    def test_non_finite_probe_ends_the_run(self):
        # A step of 1e10 leaves the region where f is finite; the value at
        # the first such iterate ends the run before any probe there, and
        # that iterate gets no entry.
        seen = []

        def f(x):
            seen.append(0.5 * float(x @ x) if np.max(np.abs(x)) < 1e30 else math.inf)
            return seen[-1]

        obj = Objective(4, f)
        trace = run_ssd(obj, np.ones(4), SsdConfig(ell=1, step_rule=FixedStep(1e10)))
        assert trace.terminal_status == "evaluation_failed"
        assert not math.isfinite(seen[-1])
        assert all(math.isfinite(e.f) for e in trace.entries)
        # The last entry's own value, then the next step's ell probes and
        # its failed value.
        assert obj.eval_count == trace.entries[-1].evals + 3

    @pytest.mark.parametrize(
        "gradient",
        [dict(fd=FdScheme("exact")), dict(fd=FdScheme("forward")), dict(fd=FdScheme("centered"))],
        ids=["exact", "forward", "centered"],
    )
    def test_non_finite_iterate_value_ends_the_run(self, gradient):
        # The iterates grow until 0.5 x.x overflows.  Whichever evaluation
        # first sees inf (the value at an iterate, or a forward probe at its
        # base point) ends the run, and inf never enters the trace.
        cfg = SsdConfig(ell=2, step_rule=FixedStep(1e10), max_iters=200, **gradient)
        with np.errstate(over="ignore"):
            trace = run_ssd(isotropic_quadratic(4), np.ones(4), cfg)
        assert trace.terminal_status == "evaluation_failed"
        assert len(trace.entries) == 16
        assert all(math.isfinite(e.f) for e in trace.entries)

    @pytest.mark.parametrize("runner", ["ssd", "gd", "bfgs", "vrssd"])
    def test_nan_objective_ends_every_runner_at_the_start(self, runner):
        obj = Objective(3, lambda x: math.nan)
        cfg = SsdConfig(ell=1)
        if runner == "vrssd":
            cfg = VrssdConfig(ell=1, step_rule=FixedStep(0.1))
        run = {"ssd": run_ssd, "gd": run_fd_gd, "bfgs": run_fd_bfgs, "vrssd": run_vrssd}[runner]
        trace = run(obj, np.ones(3), cfg)
        assert (trace.terminal_status, trace.entries, obj.eval_count) == ("evaluation_failed", [], 1)


def beyond_1e30_is_inf(d):
    """0.5 x.x, and inf once a coordinate leaves (-1e30, 1e30)."""
    return Objective(d, lambda x: 0.5 * float(x @ x) if np.max(np.abs(x)) < 1e30 else math.inf)


# name: (runner, objective, config, status, evaluations charged after the
# last entry was recorded)
CHARGED_CASES = {
    "ssd-target-at-start": (run_ssd, partial(isotropic_quadratic, 4),
                            SsdConfig(ell=2, target_value=100.0), "target_reached", 0),
    "ssd-fixed-budget": (run_ssd, partial(isotropic_quadratic, 6),
                         SsdConfig(ell=2, step_rule=FixedStep(0.1), eval_budget=8),
                         "budget_exhausted", 1),
    "ssd-fixed-max-iters": (run_ssd, partial(isotropic_quadratic, 4),
                            SsdConfig(ell=2, step_rule=FixedStep(0.01), max_iters=3),
                            "max_iters", 1),
    "ssd-line-search": (run_ssd, partial(isotropic_quadratic, 4),
                        SsdConfig(ell=4, fd=FdScheme("exact"), max_iters=10,
                                  step_rule=ArmijoStep(alpha_init=3.0, max_backtracks=1)),
                        "line_search_failed", 1),
    "ssd-evaluation": (run_ssd, partial(beyond_1e30_is_inf, 4),
                       SsdConfig(ell=1, step_rule=FixedStep(1e10)), "evaluation_failed", 3),
    "gd-armijo-max-iters": (run_fd_gd, partial(nesterov_worst, 8.0, 5, 12),
                            SsdConfig(ell=1, max_iters=3), "max_iters", 0),
    "bfgs-armijo-budget": (run_fd_bfgs, partial(nesterov_worst, 8.0, 5, 12),
                           SsdConfig(ell=1, eval_budget=42), "budget_exhausted", 0),
    "vrssd-fixed-max-iters": (run_vrssd, partial(nesterov_worst, 8.0, 5, 12),
                              VrssdConfig(ell=2, step_rule=FixedStep(0.1), m=3, max_iters=7),
                              "max_iters", 1),
    "vrssd-line-search": (run_vrssd, partial(nesterov_worst, 8.0, 5, 12),
                          VrssdConfig(ell=2, m=3, max_iters=7), "line_search_failed", 44),
    "vrssd-evaluation": (run_vrssd, partial(beyond_1e30_is_inf, 4),
                         VrssdConfig(ell=1, step_rule=FixedStep(1e10), m=3),
                         "evaluation_failed", 3),
}


@pytest.mark.parametrize("case", sorted(CHARGED_CASES))
def test_charged_count_is_the_change_in_the_counter(case):
    # A fixed-rule entry counts the evaluations before its own value, and
    # probes and line-search trials after the last entry are recorded in no
    # entry; the trace still counts them.
    runner, problem, cfg, status, after_last_entry = CHARGED_CASES[case]
    obj = problem()
    obj.evaluate(np.zeros(obj.d))  # a charge from before the run
    before = obj.eval_count
    with np.errstate(over="ignore", invalid="ignore"):
        trace = runner(obj, np.ones(obj.d), cfg)
    assert trace.terminal_status == status
    assert trace.charged == obj.eval_count - before
    assert trace.charged - trace.entries[-1].evals == after_last_entry


# A fixed-rule step evaluates its new iterate at once, so a run that stops
# on its target, its iteration limit or its budget has charged exactly its
# last entry's count and that entry's own value.  With m = 3, the vrssd
# target step (the sixth) closes an epoch.
FIXED_RULE_RUNNERS = {
    "ssd": (run_ssd, SsdConfig, {}),
    "gd": (run_fd_gd, SsdConfig, {}),
    "vrssd": (run_vrssd, VrssdConfig, dict(m=3)),
}
FIXED_RULE_STOPS = {"target": "target_reached", "max-iters": "max_iters",
                    "budget": "budget_exhausted"}


@pytest.mark.parametrize("stop", sorted(FIXED_RULE_STOPS))
@pytest.mark.parametrize("fd", ["forward", "centered", "exact"])
@pytest.mark.parametrize("rule", [FixedStep(0.02), TheoreticalStep()], ids=["fixed", "theory"])
@pytest.mark.parametrize("runner", sorted(FIXED_RULE_RUNNERS))
def test_fixed_rule_run_charges_only_its_last_value_after_its_last_entry(runner, rule, fd, stop):
    run, config, extra = FIXED_RULE_RUNNERS[runner]
    cfg = config(ell=3, step_rule=rule, fd=FdScheme(fd), max_iters=7, seed=5, **extra)
    if stop == "target":
        free = run(nesterov_worst(8.0, 6, 16), np.linspace(-1.0, 1.0, 16), cfg)
        assert free.entries[6].f < min(e.f for e in free.entries[:6])
        cfg = replace(cfg, target_value=free.entries[6].f)
    elif stop == "budget":
        cfg = replace(cfg, max_iters=1000, eval_budget=100)
    obj = nesterov_worst(8.0, 6, 16)
    trace = run(obj, np.linspace(-1.0, 1.0, 16), cfg)
    assert trace.terminal_status == FIXED_RULE_STOPS[stop]
    if stop == "target":
        assert trace.entries == free.entries[:7]
    assert trace.charged == obj.eval_count == trace.entries[-1].evals + 1


# The setups of test_max_iters_status (with a longer step) and
# test_budget_reserve_resolves_last_entry: dimension, options, status.
LIMIT_STOPS = {
    "max-iters": (4, dict(step_rule=FixedStep(0.3), max_iters=3), "max_iters"),
    "budget": (6, dict(step_rule=FixedStep(0.1), eval_budget=7), "budget_exhausted"),
}


@pytest.mark.parametrize("fd", ["forward", "centered"])
@pytest.mark.parametrize("stop", sorted(LIMIT_STOPS))
def test_fixed_rule_run_whose_last_value_meets_the_target_reaches_it(stop, fd):
    # As an Armijo run does: the last value is known when it is recorded, so
    # meeting the target there is the stop, not the limit that came next.
    d, options, status = LIMIT_STOPS[stop]
    cfg = SsdConfig(ell=2, fd=FdScheme(fd), **options)
    free = run_ssd(isotropic_quadratic(d), np.ones(d), cfg)
    assert free.terminal_status == status
    trace = run_ssd(isotropic_quadratic(d), np.ones(d), replace(cfg, target_value=free.final.f))
    assert trace.terminal_status == "target_reached"
    assert trace.entries == free.entries



# The value at each iterate is evaluated once: what a run knows there (the
# start, an accepted Armijo trial, a fixed-rule step's new value) is the
# base of the next forward differences.
ONCE_PROBLEMS = {
    "chain": partial(nesterov_worst, 8.0, 6, 16),
    "lstsq": lambda: ProblemSpec.make("lstsq", {"m": 10, "d": 16, "rank": 5, "seed": 2}).build(),
}
ONCE_RUNNERS = {
    "ssd": (run_ssd, SsdConfig, {}),
    "gd": (run_fd_gd, SsdConfig, {}),
    "bfgs": (run_fd_bfgs, SsdConfig, {}),
    "vrssd-one-approx": (run_vrssd, VrssdConfig, dict(m=4)),
    "vrssd-two-approx": (run_vrssd, VrssdConfig, dict(m=4, option="two", warmup_iters=1)),
    "vrssd-one-exact": (run_vrssd, VrssdConfig, dict(m=4, eta_mode="exact")),
    "vrssd-two-exact": (run_vrssd, VrssdConfig, dict(m=4, option="two", eta_mode="exact")),
}
ONCE_RULES = {"armijo": ArmijoStep(), "fixed": FixedStep(0.02), "theory": TheoreticalStep()}
ONCE_CASES = [
    (runner, fd, rule, problem)
    for runner in ONCE_RUNNERS for fd in ("forward", "centered") for rule in ONCE_RULES
    for problem in ONCE_PROBLEMS
    if not (runner == "bfgs" and rule != "armijo")
]
# BFGS on centered differences reaches a point where x - alpha g == x, and
# every later step probes that same point again with the same deterministic
# gradient: a stalled run, which no status reports yet.
STALLS = {("bfgs", "centered", "armijo", "chain"), ("bfgs", "centered", "armijo", "lstsq")}


@pytest.mark.parametrize("runner, fd, rule, problem", [
    pytest.param(*case, id="-".join(case), marks=[pytest.mark.xfail(
        strict=True, reason="a stalled iterate is probed again")] if case in STALLS else [])
    for case in ONCE_CASES
])
def test_no_point_is_evaluated_twice_in_a_run(runner, fd, rule, problem):
    run, config, extra = ONCE_RUNNERS[runner]
    obj = ONCE_PROBLEMS[problem]()
    evaluator, seen = obj.evaluator, []

    def logged(x):
        seen.append(np.asarray(x, dtype=float).tobytes())
        return evaluator(x)

    obj.evaluator = logged  # drops a batch form, so every point is logged
    cfg = config(ell=3, step_rule=ONCE_RULES[rule], fd=FdScheme(fd), max_iters=30, seed=5,
                 **extra)
    trace = run(obj, np.linspace(-1.0, 1.0, obj.d), cfg)
    assert len(trace.entries) >= 2
    assert len(seen) == obj.eval_count == trace.charged
    assert len(set(seen)) == len(seen)


def rosenbrock():
    """100 (x2 - x1^2)^2 + (1 - x1)^2: along its curved valley the second
    fit of a line search is sometimes right about the step above the fit's
    and sometimes wrong."""
    return Objective(2, lambda x: float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2),
                     minimum_value=0.0)


ACCOUNTING_PROBLEMS = {**ONCE_PROBLEMS, "rosenbrock": rosenbrock}
# BFGS is within rounding of f* after about ten steps on the chain and
# lstsq problems, where probes return the bits of the entry's value too and
# the first call to return a value need not be the one that produced it.
ACCOUNTING_RUNNERS = {
    "ssd": (run_ssd, SsdConfig, {}),
    "gd": (run_fd_gd, SsdConfig, {}),
    "bfgs": (run_fd_bfgs, SsdConfig, dict(max_iters=10)),
    "vrssd-one-zero": (run_vrssd, VrssdConfig, dict(m=4, eta_mode="zero")),
    "vrssd-two-zero": (run_vrssd, VrssdConfig, dict(m=4, option="two", eta_mode="zero")),
}


def logged_armijo_run(runner, problem, **options):
    """An Armijo run with every value the evaluator returned, in order."""
    run, config, extra = ACCOUNTING_RUNNERS[runner]
    obj = ACCOUNTING_PROBLEMS[problem]()
    evaluator, log = obj.evaluator, []

    def logged(x):
        log.append(evaluator(x))
        return log[-1]

    obj.evaluator = logged  # drops a batch form, so every value is logged
    cfg = config(**{"ell": 1, "max_iters": 60, "seed": 0, **extra, **options})
    return run(obj, np.linspace(-1.0, 1.0, obj.d), cfg), log


@pytest.mark.parametrize("problem", sorted(ACCOUNTING_PROBLEMS))
@pytest.mark.parametrize("runner", sorted(ACCOUNTING_RUNNERS))
def test_armijo_entry_counts_end_at_the_evaluation_of_their_value(runner, problem):
    # The benchmark's evaluation-log audit: the call that produced an
    # entry's f is the first after the previous entry's call to return it,
    # and the entry counts every call up to and including that one.
    trace, log = logged_armijo_run(runner, problem)
    assert len(trace.entries) > 5
    assert len(log) == trace.charged
    found = -1
    for entry in trace.entries:
        found = next(i for i in range(found + 1, len(log)) if log[i] == entry.f)
        assert entry.evals == found + 1
    # A run that stops on its target charges nothing after its last entry.
    # That entry may be the fit's step where the free run took the step
    # above it, since no look-ahead follows a value that meets the target.
    hit, hit_log = logged_armijo_run(runner, problem, target_value=trace.entries[5].f)
    assert hit.terminal_status == "target_reached"
    assert hit.entries[:-1] == trace.entries[:len(hit.entries) - 1]
    assert hit.final.iteration <= 5
    assert hit.final.evals == hit.charged == len(hit_log)


@pytest.mark.parametrize("runner", ["ssd", "vrssd-one-zero"])
def test_rosenbrock_searches_take_and_reject_look_aheads(monkeypatch, runner):
    # A look-ahead is the one trial farther from x than the trial before it.
    kinds = []

    def recording(evaluate, x, direction, *args):
        points = []

        def traced(point):
            points.append(point)
            return evaluate(point)

        accepted = _armijo(traced, x, direction, *args)
        if accepted[3]:
            kinds.append("rejected")
        elif len(points) > 2 and (np.linalg.norm(points[-1] - x)
                                  > np.linalg.norm(points[-2] - x)):
            kinds.append("accepted")
        return accepted

    monkeypatch.setattr(ssd_module, "_armijo", recording)
    logged_armijo_run(runner, "rosenbrock")
    assert "accepted" in kinds and "rejected" in kinds


@pytest.mark.parametrize("runner", ["ssd", "gd", "bfgs"])
def test_armijo_forward_step_costs_its_directions_and_trials(runner):
    # Each accepted step after the start pays its n directions, not f(x)
    # again, plus its trials.  With alpha_init 1 and shrink 1/2 a step of
    # 2^-b is grid step b.  Each search starts at the grid step the one
    # before it accepted (the first at 0).  The chain is quadratic along
    # every line, so one trial settles the search when it accepts that
    # step again; otherwise the fit through the first trial lands on 2^-b
    # and one more trial takes it.  Within 1e-12 of f* the trial values
    # differ from f0 by rounding alone, the fit sees noise, and the search
    # may try more, though no grid step twice.
    run = {"ssd": run_ssd, "gd": run_fd_gd, "bfgs": run_fd_bfgs}[runner]
    obj = nesterov_worst(8.0, 6, 16)
    trace = run(obj, np.linspace(-1.0, 1.0, 16), SsdConfig(ell=3, max_iters=30, seed=5))
    n = 3 if runner == "ssd" else 16
    fitted, start = 0, 0
    for before, after in zip(trace.entries, trace.entries[1:]):
        b = -int(math.log2(after.step))
        assert after.step == 2.0 ** -b
        assert n + 1 <= after.evals - before.evals <= n + max(b, start) + 2
        if before.f - obj.minimum_value > 1e-12:
            assert after.evals - before.evals == n + (1 if b == start else 2)
            fitted += 1
        start = b
    assert fitted > 3


def plain_backtracking(evaluate, x, direction, f0, decrease, rule):
    """Armijo without the fit: every grid step in turn, None when all fail."""
    alpha = rule.alpha_init
    for _ in range(rule.max_backtracks):
        point = x - alpha * direction
        trial = evaluate(point)
        if trial <= f0 - rule.c1 * alpha * decrease:
            return alpha, point, trial
        alpha *= rule.shrink
    return None


def counted(f):
    calls = []

    def evaluate(x):
        calls.append(x)
        return f(x)
    return evaluate, calls


def convex_quadratic_line(d, seed):
    """A random convex quadratic f, a point x and the exact gradient g there,
    so that g^T g is the slope of f along -g."""
    rng = np.random.default_rng(seed)
    A = (orth(d, d, seed) * 10.0 ** rng.uniform(-2.0, 2.0, d)) @ orth(d, d, seed).T
    center = rng.standard_normal(d)
    x = center + rng.standard_normal(d)

    def f(y):
        return float(0.5 * (y - center) @ A @ (y - center))
    return f, x, A @ (x - center)


QUADRATIC_SEARCHES = dict(
    d=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    alpha_init=st.floats(min_value=1e-2, max_value=1e3),
    shrink=st.floats(min_value=0.1, max_value=0.9),
    c1=st.floats(min_value=1e-4, max_value=0.5),
    max_backtracks=st.integers(min_value=1, max_value=60),
)


@given(**QUADRATIC_SEARCHES)
def test_fit_accepts_plain_backtracking_step_on_convex_quadratics(
        d, seed, alpha_init, shrink, c1, max_backtracks):
    f, x, g = convex_quadratic_line(d, seed)
    rule = ArmijoStep(c1=c1, shrink=shrink, alpha_init=alpha_init,
                      max_backtracks=max_backtracks)
    plain_eval, plain_calls = counted(f)
    expected = plain_backtracking(plain_eval, x, g, f(x), float(g @ g), rule)
    fit_eval, fit_calls = counted(f)
    try:
        alpha, point, value, _ = _armijo(fit_eval, x, g, f(x), float(g @ g), rule)
    except LineSearchError:
        assert expected is None
    else:
        assert (alpha, point.tobytes(), value) == (expected[0], expected[1].tobytes(),
                                                   expected[2])
    assert len(fit_calls) <= len(plain_calls)


def above_first_backtracking(evaluate, x, direction, f0, decrease, rule):
    """The earlier fitted search, kept as a reference: after a rejected first
    trial it skips to the grid step above the fit's largest acceptable step
    (or to the last grid step), checks it, then halves.  None when all fail."""
    alpha, n = rule.alpha_init, 0
    while n < rule.max_backtracks:
        point = x - alpha * direction
        trial = evaluate(point)
        if trial <= f0 - rule.c1 * alpha * decrease:
            return alpha, point, trial
        limit = ssd_module._fit_limit(f0, decrease, alpha, trial, rule.c1) if n == 0 else None
        alpha *= rule.shrink
        n += 1
        if limit is not None:
            skip_n, skip_alpha = n, alpha
            while skip_n < rule.max_backtracks and skip_alpha * rule.shrink > limit:
                skip_alpha *= rule.shrink
                skip_n += 1
            if skip_n < rule.max_backtracks:
                n, alpha = skip_n, skip_alpha
    return None


@given(**QUADRATIC_SEARCHES)
def test_fit_step_first_tries_no_more_than_the_step_above_first(
        d, seed, alpha_init, shrink, c1, max_backtracks):
    # On a convex quadratic with the exact slope the second fit rules out
    # the step above the fit's, so the search accepts plain backtracking's
    # step without trying the step above first.
    f, x, g = convex_quadratic_line(d, seed)
    rule = ArmijoStep(c1=c1, shrink=shrink, alpha_init=alpha_init,
                      max_backtracks=max_backtracks)
    expected = plain_backtracking(f, x, g, f(x), float(g @ g), rule)
    above_eval, above_calls = counted(f)
    above_first_backtracking(above_eval, x, g, f(x), float(g @ g), rule)
    fit_eval, fit_calls = counted(f)
    try:
        alpha, point, value, late = _armijo(fit_eval, x, g, f(x), float(g @ g), rule)
    except LineSearchError:
        assert expected is None
    else:
        assert (alpha, point.tobytes(), value, late) == (expected[0], expected[1].tobytes(),
                                                         expected[2], 0)
    assert len(fit_calls) <= len(above_calls)


def scripted_search(values, rule):
    """Search along x = 0, g = 1 with f0 = 0 and slope -1; ``values(alpha, n)``
    gives the n-th trial's value.  Returns the steps tried and the outcome."""
    tried = []

    def evaluate(point):
        tried.append(-float(point[0]))
        return values(tried[-1], len(tried) - 1)
    try:
        return tried, _armijo(evaluate, np.zeros(1), np.ones(1), 0.0, 1.0, rule)[0]
    except LineSearchError:
        return tried, None


@pytest.mark.parametrize("first, alpha_init, fitted", [
    (1e6, 1.0, True),
    (math.nan, 1.0, False),
    (math.inf, 1.0, False),
    # At alpha 1e-160 a rise of 1e-30 fits a curvature of 1e290, and one of
    # 1e-5 a curvature that overflows.
    (1e-30, 1e-160, True),
    (1e-5, 1e-160, False),
])
def test_fit_needs_a_finite_convex_curvature(first, alpha_init, fitted):
    # f falls along the line after the first trial, so the second is
    # accepted.  The line stays linear, so a fitted search then looks at the
    # skipped step above it, which passes too.
    rule = ArmijoStep(alpha_init=alpha_init, max_backtracks=1000)
    tried, alpha = scripted_search(lambda a, n: first if n == 0 else -a, rule)
    assert len(tried) == 2 + fitted and alpha == tried[-1]
    assert (tried[1] != alpha_init * 0.5) == fitted


@pytest.mark.parametrize("first, tried", [
    # The fit's largest step, 0.9999 / 21, lies between the last grid step
    # and the one after it: the search skips to the last grid step.
    (20.0, [1.0, 0.0625]),
    # It lies below the step after the last: plain halving.
    (1e6, [1.0, 0.5, 0.25, 0.125, 0.0625]),
])
def test_fit_that_rules_out_the_grid_still_tries_its_smallest_step(first, tried):
    rule = ArmijoStep(max_backtracks=5)
    assert scripted_search(lambda a, n: first, rule) == (tried, None)


# A first trial of 1e6 at alpha 1 fits the largest acceptable step
# 0.9999 / (1e6 + 1), so the search tries grid step 2^-20 next and skips 2^-19.
FIT_STEP, ABOVE = 2.0 ** -20, 2.0 ** -19


@pytest.mark.parametrize("above_value, look, tried, accepted, late", [
    # f stays linear: the second fit has no curvature, so it allows 2^-19.
    (-ABOVE, True, [1.0, FIT_STEP, ABOVE], ABOVE, 0),
    # 2^-19 fails the decrease test: the fit's step is kept, and the trial
    # after it is reported as late.
    (1.0, True, [1.0, FIT_STEP, ABOVE], FIT_STEP, 1),
    # The caller refuses a look-ahead after the value found.
    (-ABOVE, False, [1.0, FIT_STEP], FIT_STEP, 0),
])
def test_look_ahead_after_the_fit_step(above_value, look, tried, accepted, late):
    def evaluate(point):
        steps.append(-float(point[0]))
        return {1.0: 1e6, ABOVE: above_value}.get(steps[-1], -steps[-1])

    steps = []
    alpha, point, value, got_late = _armijo(evaluate, np.zeros(1), np.ones(1), 0.0, 1.0,
                                            ArmijoStep(), may_look=lambda value: look)
    assert steps == tried
    assert (alpha, point[0], value, got_late) == (accepted, -accepted, -accepted, late)


def test_second_fit_that_rules_out_the_step_above_skips_it():
    # Along f(a) = 1e6 a^2 - a both fits find the same curvature, and the
    # step above the fit's fails it.
    tried, alpha = scripted_search(lambda a, n: 1e6 * a * a - a, ArmijoStep())
    assert (tried, alpha) == ([1.0, FIT_STEP], FIT_STEP)


@given(data=st.data(), **QUADRATIC_SEARCHES)
def test_search_from_any_start_accepts_plain_backtracking_step_on_convex_quadratics(
        data, d, seed, alpha_init, shrink, c1, max_backtracks):
    # A run starts each search at the grid step the one before it accepted.
    # On a convex quadratic with the exact slope the fit through the first
    # trial, passed or rejected, finds the step plain backtracking takes, at
    # the cost of at most one trial more than the search from step 0.
    start = data.draw(st.integers(min_value=0, max_value=max_backtracks - 1), label="start")
    f, x, g = convex_quadratic_line(d, seed)
    rule = ArmijoStep(c1=c1, shrink=shrink, alpha_init=alpha_init,
                      max_backtracks=max_backtracks)
    expected = plain_backtracking(f, x, g, f(x), float(g @ g), rule)
    zero_eval, zero_calls = counted(f)
    try:
        _armijo(zero_eval, x, g, f(x), float(g @ g), rule)
    except LineSearchError:
        pass
    start_eval, start_calls = counted(f)
    try:
        alpha, point, value, _ = _armijo(start_eval, x, g, f(x), float(g @ g), rule,
                                         start=start)
    except LineSearchError:
        assert expected is None
    else:
        assert (alpha, point.tobytes(), value) == (expected[0], expected[1].tobytes(),
                                                   expected[2])
    assert len(start_calls) <= len(zero_calls) + 1
    assert len({p.tobytes() for p in start_calls}) == len(start_calls)


def scripted_start(values, start, look=True):
    """``scripted_search`` from grid step ``start``, where ``look`` is what
    ``may_look`` answers: the steps tried, and the accepted (alpha, late,
    index) or None."""
    tried = []

    def evaluate(point):
        tried.append(-float(point[0]))
        return values(tried[-1])
    try:
        accepted = _armijo(evaluate, np.zeros(1), np.ones(1), 0.0, 1.0, ArmijoStep(),
                           may_look=lambda value: look, start=start)
    except LineSearchError:
        return tried, None
    return tried, (accepted[0], accepted[3], accepted.index)


def line(curvature):
    """f(a) = -a + curvature a^2: with slope -1 and c1 = 1e-4 every step up
    to 0.9999 / curvature passes."""
    return lambda a: -a + curvature * a * a


@pytest.mark.parametrize("values, start, look, tried, accepted", [
    # It passes, and the fit rules out 2^-2: one trial.
    (line(6.0), 3, True, [2.0 ** -3], (2.0 ** -3, 0, 3)),
    # It passes, and the fit allows steps up to 0.67: one more trial, at 2^-1.
    (line(1.5), 5, True, [2.0 ** -5, 0.5], (0.5, 0, 1)),
    # The same, but the caller refuses a further trial: no fit.
    (line(1.5), 5, False, [2.0 ** -5], (2.0 ** -5, 0, 5)),
    # The fit allows 2^-1, which fails: the first trial is kept, and the
    # trial after it is late.
    (lambda a: 1.0 if a == 0.5 else line(1.5)(a), 5, True, [2.0 ** -5, 0.5], (2.0 ** -5, 1, 5)),
    # It is rejected: the fit's step, 2^-5, is taken, and the second fit
    # rules out 2^-4, as in the search from step 0.
    (line(20.0), 2, True, [0.25, 2.0 ** -5], (2.0 ** -5, 0, 5)),
    # It passes, but f is linear up to 2^-3, so the fit is not convex: the
    # search from step 0 halves through the NaNs above and takes 2^-3 again
    # without evaluating it; the three trials after it are late.
    (lambda a: -a if a <= 0.125 else math.nan, 3, True, [0.125, 1.0, 0.5, 0.25],
     (0.125, 3, 3)),
    # Every step from 2^-25 down fails: the fit through the first trial
    # rules out the grid, which is halved to its end.  The search from step
    # 0 then fits 2^-2 after 1, takes it, and rejects the look-ahead at
    # 2^-1, rather than failing.
    (lambda a: -a if a == 0.25 else 1.0, 25, True,
     [2.0 ** -n for n in [25, 26, 27, 28, 29, 0, 2, 1]], (0.25, 1, 2)),
    # No step passes: the search from step 0 skips 2^-1 on its fit and
    # halves from 2^-2 down to the steps already tried, then fails.
    (lambda a: 1.0, 25, True, [2.0 ** -n for n in [25, 26, 27, 28, 29, 0, *range(2, 25)]],
     None),
    # A NaN first trial cannot be fitted: the search from step 0 runs.
    (lambda a: -a if a == 0.5 else math.nan, 25, True, [2.0 ** -25, 1.0, 0.5], (0.5, 0, 1)),
])
def test_search_from_a_start(values, start, look, tried, accepted):
    assert scripted_start(values, start, look) == (tried, accepted)


START_RUNS = {
    "ssd": (run_ssd, SsdConfig(ell=3, max_iters=10, seed=5)),
    "gd": (run_fd_gd, SsdConfig(ell=1, max_iters=10)),
    "bfgs": (run_fd_bfgs, SsdConfig(ell=1, max_iters=10)),
    "vrssd-zero": (run_vrssd, VrssdConfig(ell=3, m=4, eta_mode="zero", option="two",
                                          warmup_iters=2, max_iters=10, seed=5)),
    "vrssd-approx": (run_vrssd, VrssdConfig(ell=3, m=4, option="two", warmup_iters=2,
                                            max_iters=10, seed=5)),
    "vrssd-one": (run_vrssd, VrssdConfig(ell=3, m=4, eta_mode="one", warmup_iters=2,
                                         max_iters=10, seed=5)),
}


def spied_starts(monkeypatch, call):
    """The start of every Armijo search ``call()`` makes, with the value it returns."""
    starts, armijo = [], ssd_module._armijo

    def spy(evaluate, x, direction, f0, decrease, rule, fit=True,
            may_look=lambda value: True, start=0):
        starts.append(start)
        return armijo(evaluate, x, direction, f0, decrease, rule, fit, may_look, start)

    monkeypatch.setattr(ssd_module, "_armijo", spy)
    return starts, call()


@pytest.mark.parametrize("runner", sorted(START_RUNS))
def test_each_search_starts_at_the_step_the_last_one_accepted(monkeypatch, runner):
    # Where the fit can check a passing first trial; vrssd with a weight
    # (eta != 0) cannot, so its epoch searches start at step 0, and only
    # its warmup steps start where the last search stopped.
    # A search that fails (vrssd with a weight may) follows its last entry.
    run, cfg = START_RUNS[runner]
    starts, trace = spied_starts(
        monkeypatch, lambda: run(nesterov_worst(8.0, 6, 16), np.linspace(-1.0, 1.0, 16), cfg))
    accepted = [-int(math.log2(e.step)) for e in trace.entries[1:]]
    warm = runner in ("ssd", "gd", "bfgs", "vrssd-zero")
    expected = [0] + [b if warm or k < 2 else 0 for k, b in enumerate(accepted, 1)]
    assert len(starts) == len(accepted) + (trace.terminal_status == "line_search_failed")
    assert starts == expected[:len(starts)]
    assert any(starts[2:]) == warm


def test_one_step_hooks_start_at_step_zero(monkeypatch):
    obj = nesterov_worst(8.0, 6, 16)
    x = np.linspace(-1.0, 1.0, 16)
    anchor = AnchorState(x.copy(), obj.reference_gradient(x), 0)
    starts, _ = spied_starts(monkeypatch, lambda: [
        ssd_step(obj, x, SsdConfig(ell=3), RngStream(5)),
        vrssd_inner_step(obj, x, anchor, VrssdConfig(ell=3, eta_mode="zero"), RngStream(5)),
    ])
    assert starts == [0, 0]


def scripted_line(above_passes):
    """A 1-d objective along which a run from 0 with the exact gradient -1
    tries steps as the scripted searches do: f(1) = 1e6, f(2^-20) = -2^-20
    and f(2^-19) = -2^-19, or 1 when ``above_passes`` is false."""
    def f(x):
        t = float(x[0])
        if t > 0.5:
            return 1e6
        return -t if above_passes or t <= FIT_STEP else 1.0
    return Objective(1, f, reference_gradient=lambda x: -np.ones(1))


EXACT_ONE_STEP = SsdConfig(ell=1, fd=FdScheme("exact"), max_iters=1)


@pytest.mark.parametrize("above_passes, step, evals", [(True, ABOVE, 4), (False, FIT_STEP, 3)])
def test_entry_count_ends_at_the_evaluation_of_its_value(above_passes, step, evals):
    # The start, the first trial, the fit's step and the look-ahead: four
    # evaluations charged.  A rejected look-ahead is charged after the entry.
    obj = scripted_line(above_passes)
    trace = run_ssd(obj, np.zeros(1), EXACT_ONE_STEP)
    assert trace.entries[1] == TraceEntry(1, evals, -step, step, 1.0)
    assert trace.charged == obj.eval_count == 4


@pytest.mark.parametrize("options, status", [
    (dict(target_value=-FIT_STEP), "target_reached"),  # the run stops at this value
    (dict(eval_budget=3), "max_iters"),  # no evaluation is left for a look-ahead
    (dict(eval_budget=3, max_iters=2), "budget_exhausted"),
])
def test_no_look_ahead_at_the_target_or_without_budget(options, status):
    obj = scripted_line(True)
    trace = run_ssd(obj, np.zeros(1), replace(EXACT_ONE_STEP, **options))
    assert trace.terminal_status == status
    assert trace.entries[1] == TraceEntry(1, 3, -FIT_STEP, FIT_STEP, 1.0)
    assert trace.charged == obj.eval_count == 3


@pytest.mark.parametrize("eta, fits", [("zero", True), ("one", False), ("approx", False),
                                       ("exact", False)])
def test_vr_search_with_a_weight_keeps_plain_backtracking(monkeypatch, eta, fits):
    # With eta != 0, s^T s is not the slope of f along v, so the search
    # evaluates the points plain backtracking evaluates; the control with
    # eta = 0 shows that the fit would move them.
    def evaluated_points():
        obj = nesterov_worst(8.0, 6, 16)
        evaluator, seen = obj.evaluator, []

        def logged(x):
            seen.append(np.asarray(x, dtype=float).tobytes())
            return evaluator(x)

        obj.evaluator = logged
        run_vrssd(obj, np.linspace(-1.0, 1.0, 16),
                  VrssdConfig(ell=3, m=4, eta_mode=eta, max_iters=30, seed=5))
        return seen

    with_fit = evaluated_points()
    monkeypatch.setattr(ssd_module, "_fit_limit", lambda *args: None)
    assert (evaluated_points() != with_fit) == fits


@pytest.mark.parametrize("runner", ["ssd", "gd"])
def test_fixed_forward_step_still_pays_for_its_base_value(runner):
    # A fixed-rule step does not know the value at its new iterate, so the
    # next probe set evaluates it: ell + 1 per step, or d + 1 for a full
    # gradient.  Only the first step reuses the start value.
    run = {"ssd": run_ssd, "gd": run_fd_gd}[runner]
    obj = nesterov_worst(8.0, 6, 16)
    trace = run(obj, np.linspace(-1.0, 1.0, 16),
                SsdConfig(ell=3, step_rule=FixedStep(0.02), max_iters=30, seed=5))
    n = 3 if runner == "ssd" else 16
    stamps = [e.evals for e in trace.entries]
    assert [b - a for a, b in zip(stamps, stamps[1:])] == [n] + [n + 1] * 29
    assert trace.charged == stamps[-1] + 1


class TestStepSizeAdmissibility:
    """On the isotropic quadratic with exact projections the stable step
    range is alpha < 2 ell / (d lam); the boundary is neutral and anything
    beyond it diverges for every seed."""

    D, ELL = 10, 2  # boundary at alpha = 0.4

    def ratios(self, alpha, seeds=40, iters=30):
        out = []
        for seed in seeds * [0] if isinstance(seeds, list) else range(seeds):
            obj = isotropic_quadratic(self.D)
            cfg = SsdConfig(
                ell=self.ELL,
                fd=FdScheme("exact"),
                step_rule=FixedStep(alpha),
                max_iters=iters,
                seed=seed,
            )
            x0 = np.ones(self.D)
            trace = run_ssd(obj, x0, cfg)
            out.append(trace.entries[-1].f / trace.entries[0].f)
        return np.array(out)

    def test_interior_step_contracts(self):
        assert float(np.mean(self.ratios(0.2))) < 0.05

    def test_boundary_step_is_neutral_for_every_seed(self):
        # 2 alpha = alpha^2 d / ell makes the per-step factor one for every
        # sketch, not just in expectation; only rounding is left.
        assert np.allclose(self.ratios(0.4, iters=20), 1.0, rtol=0.0, atol=1e-12)

    def test_beyond_boundary_diverges(self):
        r = self.ratios(0.5)
        assert np.all(r > 1.0)
        assert float(np.mean(r)) > 5.0


@pytest.mark.parametrize("distribution", ["haar", "coordinate"])
def test_one_step_expected_decrease(distribution):
    # E f(x - alpha P P^T x) = (1 - 2 alpha + alpha^2 d / ell) f(x) for the
    # orthogonal families on the isotropic quadratic.
    d, ell, alpha, n = 8, 2, 0.1, 10_000
    x = np.linspace(-1.0, 1.0, d) + 0.05
    fx = 0.5 * float(x @ x)
    expected = (1.0 - 2.0 * alpha + alpha * alpha * d / ell) * fx
    obj = isotropic_quadratic(d)
    cfg = SsdConfig(
        ell=ell,
        distribution=distribution,
        fd=FdScheme("exact"),
        step_rule=FixedStep(alpha),
    )
    vals = np.empty(n)
    for i in range(n):
        x1, _ = ssd_step(obj, x, cfg, RngStream(99, 0, i))
        vals[i] = 0.5 * float(x1 @ x1)
    se = float(np.std(vals)) / math.sqrt(n)
    assert abs(float(np.mean(vals)) - expected) < 3.0 * se


def test_linear_decay_on_rank_deficient_least_squares():
    # Gradient dominance holds on the range of A even though the Hessian is
    # singular, so the fitted per-iteration rate stays below the bound.
    U = orth(4, 3, 1)
    V = orth(6, 3, 2)
    A = U @ np.diag([2.8, 1.8, 1.0]) @ V.T
    b = np.random.default_rng(3).standard_normal(4)
    rates, r2s = [], []
    for seed in range(100):
        obj = rank_deficient_least_squares(A, b)
        trace = run_ssd(
            obj,
            np.ones(6),
            SsdConfig(ell=2, step_rule=TheoreticalStep(), max_iters=200, seed=seed),
        )
        beta, r2 = estimate_linear_rate(trace, obj.minimum_value)
        rates.append(beta)
        r2s.append(r2)
    obj = rank_deficient_least_squares(A, b)
    bound = rate_bound_pl(2, 6, obj.lipschitz_constant, obj.pl_constant)
    assert float(np.mean(rates)) < bound
    assert float(np.mean(r2s)) > 0.9
    assert max(rates) < 1.0
