"""Full-gradient baselines: FD gradient descent and FD BFGS."""

import numpy as np
import pytest
from scipy import stats

from ssdopt import (
    ArmijoStep,
    ConfigurationError,
    FdScheme,
    FixedStep,
    SsdConfig,
    TheoreticalStep,
    isotropic_quadratic,
    nesterov_worst,
    rank_deficient_least_squares,
    run_fd_bfgs,
    run_fd_gd,
    run_ssd,
)
from ssdopt.baselines import _bfgs_update


def spd_least_squares(d=6, seed=0):
    gen = np.random.default_rng(seed)
    q, _ = np.linalg.qr(gen.standard_normal((d, d)))
    A = q @ np.diag(np.linspace(1.0, 2.0, d)) @ q.T
    xstar = gen.standard_normal(d)
    return rank_deficient_least_squares(A, A @ xstar)


class TestGradientDescent:
    def test_unit_step_solves_identity_quadratic(self):
        obj = isotropic_quadratic(5)
        trace = run_fd_gd(obj, np.ones(5), SsdConfig(ell=1, step_rule=FixedStep(1.0), max_iters=1))
        assert trace.entries[-1].f < 1e-9

    def test_theoretical_step_is_inverse_curvature(self):
        obj = nesterov_worst(5.0, 3, 8)
        trace = run_fd_gd(obj, np.zeros(8), SsdConfig(ell=1, step_rule=TheoreticalStep(), max_iters=2))
        assert trace.entries[1].step == pytest.approx(0.2)

    def test_forward_accounting(self):
        # Each gradient takes the known value as its base (d), then the step
        # evaluates its new iterate (1).
        for k in (4, 6):
            obj = isotropic_quadratic(6)
            run_fd_gd(obj, np.ones(6), SsdConfig(ell=1, step_rule=FixedStep(0.1), max_iters=k))
            assert obj.eval_count == 1 + 6 + (k - 1) * 7 + 1

    def test_centered_accounting(self):
        obj = isotropic_quadratic(6)
        run_fd_gd(
            obj, np.ones(6),
            SsdConfig(ell=1, step_rule=FixedStep(0.1), max_iters=3, fd=FdScheme("centered")),
        )
        assert obj.eval_count == 1 + 3 * 13

    def test_armijo_run_is_monotone(self):
        obj = nesterov_worst(8.0, 6, 15)
        trace = run_fd_gd(obj, np.zeros(15), SsdConfig(ell=1, max_iters=25))
        fs = [e.f for e in trace.entries]
        assert all(b <= a for a, b in zip(fs, fs[1:]))

    def test_budget_stop(self):
        obj = isotropic_quadratic(6)
        trace = run_fd_gd(
            obj, np.ones(6), SsdConfig(ell=1, step_rule=FixedStep(0.1), eval_budget=10)
        )
        assert trace.terminal_status == "budget_exhausted"
        assert obj.eval_count <= 10

    def test_matches_full_space_sketched_run_in_distribution(self):
        # With ell = d the sketched update collapses to gradient descent, so
        # the pushforward of random starts must agree across the two solvers.
        d, n = 10, 60

        def finals(runner, cfg, seed):
            gen = np.random.default_rng(seed)
            out = []
            for i in range(n):
                obj = nesterov_worst(4.0, 5, d)
                x0 = gen.standard_normal(d)
                out.append(runner(obj, x0, cfg).entries[-1].f)
            return out

        gd = finals(run_fd_gd, SsdConfig(ell=1, max_iters=15, seed=0), seed=101)
        full = finals(run_ssd, SsdConfig(ell=d, max_iters=15, seed=1), seed=202)
        assert stats.ks_2samp(gd, full).pvalue > 0.01


class TestBfgsUpdate:
    def test_converges_to_inverse_hessian_action(self):
        gen = np.random.default_rng(0)
        d = 8
        H = np.eye(d)
        M = gen.standard_normal((d, d))
        A = M @ M.T + d * np.eye(d)
        for _ in range(100):
            s = gen.standard_normal(d)
            y = A @ s
            _bfgs_update(H, s, y)
        assert np.max(np.abs(H - H.T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(H)) > 0.0
        assert np.max(np.abs(H @ y - s)) < 1e-10  # secant condition

    def test_skips_nonpositive_curvature(self):
        H = np.diag([2.0, 3.0])
        before = H.copy()
        s = np.array([1.0, 0.0])
        _bfgs_update(H, s, np.array([0.0, 1.0]))  # s . y = 0
        assert np.array_equal(H, before)
        _bfgs_update(H, s, -s)  # s . y < 0
        assert np.array_equal(H, before)


class TestBfgsRuns:
    def test_requires_line_search(self):
        cfg = SsdConfig(ell=1, step_rule=FixedStep(0.1), max_iters=5)
        with pytest.raises(ConfigurationError, match="armijo"):
            run_fd_bfgs(isotropic_quadratic(4), np.ones(4), cfg)

    def test_superlinear_convergence_on_smooth_quadratic(self):
        obj = spd_least_squares()
        cfg = SsdConfig(ell=1, max_iters=40, target_value=obj.minimum_value + 1.2e-13)
        trace = run_fd_bfgs(obj, np.zeros(6), cfg)
        assert trace.terminal_status == "target_reached"
        assert trace.entries[-1].iteration <= 15

    def test_first_step_matches_gradient_descent(self):
        # The inverse-curvature model starts at the identity, so step one is
        # plain steepest descent under the same backtracking rule.
        cfg = SsdConfig(ell=1, max_iters=1)
        a = run_fd_bfgs(nesterov_worst(4.0, 5, 12), np.zeros(12), cfg)
        b = run_fd_gd(nesterov_worst(4.0, 5, 12), np.zeros(12), cfg)
        assert a.entries[1].f == b.entries[1].f
        assert a.entries[1].step == b.entries[1].step

    def test_beats_gradient_descent_on_iterations(self):
        obj_b = spd_least_squares(seed=3)
        obj_g = spd_least_squares(seed=3)
        target = obj_b.minimum_value + 1e-10
        cfg = SsdConfig(ell=1, max_iters=200, target_value=target)
        tb = run_fd_bfgs(obj_b, np.zeros(6), cfg)
        tg = run_fd_gd(obj_g, np.zeros(6), cfg)
        assert tb.terminal_status == "target_reached"
        assert tb.entries[-1].iteration < tg.entries[-1].iteration

    def test_entries_are_recorded_immediately_and_monotone(self):
        obj = nesterov_worst(8.0, 6, 15)
        trace = run_fd_bfgs(obj, np.zeros(15), SsdConfig(ell=1, max_iters=25))
        fs = [e.f for e in trace.entries]
        assert all(np.isfinite(fs))
        assert all(b <= a for a, b in zip(fs, fs[1:]))
        stamps = [e.evals for e in trace.entries]
        assert all(b > a for a, b in zip(stamps, stamps[1:]))

    def test_budget_stop(self):
        obj = isotropic_quadratic(6)
        trace = run_fd_bfgs(obj, np.ones(6), SsdConfig(ell=1, eval_budget=16, max_iters=50))
        assert trace.terminal_status == "budget_exhausted"
        assert obj.eval_count <= 16

    def test_deterministic(self):
        cfg = SsdConfig(ell=1, max_iters=12)
        a = run_fd_bfgs(nesterov_worst(4.0, 5, 10), np.zeros(10), cfg)
        b = run_fd_bfgs(nesterov_worst(4.0, 5, 10), np.zeros(10), cfg)
        assert [e.f for e in a.entries] == [e.f for e in b.entries]
