"""Subspace descent driver: steps, budgets, traces, admissibility."""

import math

import numpy as np
import pytest

from ssdopt import (
    ArmijoStep,
    ConfigurationError,
    FdScheme,
    FixedStep,
    Objective,
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
)


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
        ],
    )
    def test_rejected_configs(self, kw):
        with pytest.raises(ConfigurationError):
            self.run(**kw)

    def test_exact_gradient_needs_reference(self):
        from ssdopt import Objective

        obj = Objective(d=3, evaluator=lambda x: float(x @ x))
        cfg = SsdConfig(ell=3, exact_gradient=True, step_rule=FixedStep(0.1), max_iters=1)
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
        cfg = SsdConfig(ell=d, exact_gradient=True, step_rule=FixedStep(alpha), max_iters=k)
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
            exact_gradient=True,
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
        cfg = SsdConfig(ell=2, exact_gradient=True, step_rule=FixedStep(0.2), max_iters=5)
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
        # base value is shared with the differences: ell + 1 per iteration,
        # one trailing evaluation to resolve the last deferred entry.
        obj = isotropic_quadratic(20)
        cfg = SsdConfig(ell=5, step_rule=FixedStep(0.25), max_iters=20)
        trace = run_ssd(obj, np.ones(20), cfg)
        assert [e.evals for e in trace.entries] == [1 + 6 * i for i in range(21)]
        assert obj.eval_count == 122
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
            exact_gradient=True,
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
        # budget 8 with ell = 2 forward: start (1) + two steps (3 each) + the
        # reserved closing evaluation lands exactly on the budget.
        obj = isotropic_quadratic(6)
        trace = run_ssd(obj, np.ones(6), SsdConfig(ell=2, step_rule=FixedStep(0.1), eval_budget=8))
        assert trace.terminal_status == "budget_exhausted"
        assert obj.eval_count == 8
        assert [e.evals for e in trace.entries] == [1, 4, 7]
        assert all(np.isfinite(e.f) for e in trace.entries)

    def test_line_search_failure_status(self):
        obj = isotropic_quadratic(4)
        cfg = SsdConfig(
            ell=4,
            exact_gradient=True,
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
        # A step of 1e10 leaves the region where f is finite; the probes at
        # the first such iterate end the run, and nothing is charged after
        # them, so that iterate's deferred entry stays unrecorded.
        seen = []

        def f(x):
            seen.append(0.5 * float(x @ x) if np.max(np.abs(x)) < 1e30 else math.inf)
            return seen[-1]

        obj = Objective(4, f)
        trace = run_ssd(obj, np.ones(4), SsdConfig(ell=1, step_rule=FixedStep(1e10)))
        assert trace.terminal_status == "evaluation_failed"
        assert not math.isfinite(seen[-1])
        assert all(math.isfinite(e.f) for e in trace.entries)
        # The last entry's value came from the next step's ell + 1 probes;
        # the step after that spent ell + 1 more and failed.
        assert obj.eval_count == trace.entries[-1].evals + 2 * 2

    @pytest.mark.parametrize(
        "gradient",
        [dict(exact_gradient=True), dict(fd=FdScheme("forward")), dict(fd=FdScheme("centered"))],
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
                exact_gradient=True,
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
        exact_gradient=True,
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
