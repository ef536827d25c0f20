"""Variance-reduced runs: control variates, epochs, anchor options."""

import math
from dataclasses import replace

import numpy as np
import pytest

from ssdopt import (
    AnchorState,
    ArmijoStep,
    ConfigurationError,
    FdScheme,
    FixedStep,
    Objective,
    RngStream,
    SsdConfig,
    VrssdConfig,
    cmse,
    directional_derivatives,
    draw,
    eta_value,
    full_gradient_fd,
    isotropic_quadratic,
    nesterov_worst,
    rate_bound_vrssd,
    run_ssd,
    run_vrssd,
    sample_haar,
    vrssd_inner_step,
)


class TestConfig:
    def run(self, **kw):
        base = dict(ell=2, step_rule=FixedStep(0.05), max_iters=4, m=2)
        base.update(kw)
        run_vrssd(isotropic_quadratic(5), np.ones(5), VrssdConfig(**base))

    @pytest.mark.parametrize(
        "kw",
        [
            {"m": 0},
            {"option": "three"},
            {"eta_mode": "half"},
            {"warmup_iters": -1},
            {"ell": 9},
        ],
    )
    def test_rejected_configs(self, kw):
        with pytest.raises(ConfigurationError):
            self.run(**kw)


class TestEtaValue:
    def test_constant_modes(self):
        s = np.ones(2)
        t = np.ones(2)
        g = np.ones(4)
        assert eta_value("zero", s, t, g) == 0.0
        assert eta_value("one", s, t, g) == 1.0

    def test_approx_is_projection_from_sketched_vectors(self):
        s = np.array([1.0, 2.0])
        t = np.array([3.0, -1.0])
        g = np.array([1.0, 1.0, 1.0])  # ||g||^2 = 3
        assert eta_value("approx", s, t, g) == pytest.approx((3.0 - 2.0) / 3.0)

    def test_exact_matches_projection_of_full_gradient(self):
        g_anchor = np.array([2.0, 0.0])
        g_full = np.array([3.0, 7.0])
        got = eta_value("exact", None, None, g_anchor, g_full)
        assert got == pytest.approx(6.0 / 4.0)
        # identical gradients collapse to weight one
        assert eta_value("exact", None, None, g_anchor, g_anchor) == pytest.approx(1.0)

    def test_zero_anchor_disables_control_variate(self):
        z = np.zeros(3)
        assert eta_value("approx", np.ones(2), np.ones(2), z) == 0.0
        assert eta_value("exact", None, None, z, np.ones(3)) == 0.0

    def test_exact_requires_full_gradient(self):
        with pytest.raises(ConfigurationError):
            eta_value("exact", None, None, np.ones(3))

    def test_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            eta_value("best", np.ones(2), np.ones(2), np.ones(3))

    def test_approx_weight_is_unbiased_for_the_projection(self):
        # E[(P^T g) . (P^T a)] = g . a, so the sketched weight averages to
        # the exact one.
        d, ell, n = 10, 3, 100_000
        gen = np.random.default_rng(31)
        g = gen.standard_normal(d)
        a = gen.standard_normal(d)
        mats = sample_haar(d, ell, n, gen)
        s = np.einsum("kdi,d->ki", mats, g)
        t = np.einsum("kdi,d->ki", mats, a)
        weights = np.einsum("ki,ki->k", s, t) / float(a @ a)
        exact = float(g @ a) / float(a @ a)
        se = float(np.std(weights)) / math.sqrt(n)
        assert abs(float(np.mean(weights)) - exact) < 3.0 * se


class TestCmse:
    def test_zero_mode_keeps_gradient_norm(self):
        g = np.array([3.0, 4.0])
        assert cmse("zero", g, np.zeros(2), 5.0) == pytest.approx(4.0 * 25.0)

    def test_one_mode_vanishes_on_matching_anchor(self):
        g = np.array([1.0, -2.0, 0.5])
        assert cmse("one", g, g, 6.0) == pytest.approx(0.0)

    def test_optimal_vanishes_on_parallel_anchor(self):
        g = np.array([2.0, 2.0])
        assert cmse("optimal", g, 7.0 * g, 3.0) == pytest.approx(0.0, abs=1e-12)

    def test_perpendicular_anchor(self):
        g = np.array([1.0, 0.0])
        a = np.array([0.0, 2.0])
        rho = 4.0
        assert cmse("optimal", g, a, rho) == pytest.approx(cmse("zero", g, a, rho))
        assert cmse("one", g, a, rho) == pytest.approx(3.0 * (1.0 + 4.0))

    def test_zero_anchor_falls_back_to_zero_mode(self):
        g = np.array([1.0, 2.0])
        assert cmse("optimal", g, np.zeros(2), 2.5) == cmse("zero", g, np.zeros(2), 2.5)

    def test_optimal_never_exceeds_other_modes(self):
        gen = np.random.default_rng(17)
        for _ in range(200):
            g = gen.standard_normal(5)
            a = gen.standard_normal(5)
            rho = float(gen.uniform(1.0, 10.0))
            best = cmse("optimal", g, a, rho)
            assert best <= cmse("zero", g, a, rho) + 1e-12
            assert best <= cmse("one", g, a, rho) + 1e-12

    def test_rejections(self):
        g = np.ones(2)
        with pytest.raises(ConfigurationError):
            cmse("zero", g, g, 0.5)
        with pytest.raises(ConfigurationError):
            cmse("median", g, g, 2.0)


class TestRateBound:
    def test_part_ii_value(self):
        assert rate_bound_vrssd(0.1, 1.0, 1.0, 50, 4.0) == pytest.approx(1.0 / 3.0)

    def test_part_i_value(self):
        got = rate_bound_vrssd(0.05, 1.0, 1.0, 100, 4.0, part="i")
        assert got == pytest.approx(0.25 + 0.05 * 3.0 / 0.8)

    def test_part_i_dominates_part_ii(self):
        args = (0.02, 0.8, 1.5, 40, 5.0)
        assert rate_bound_vrssd(*args, part="i") > rate_bound_vrssd(*args, part="ii")

    @pytest.mark.parametrize(
        "kw",
        [
            dict(alpha=0.1, gamma=1.0, lam=1.0, m=50, rho=2.0),
            dict(alpha=0.0, gamma=1.0, lam=1.0, m=50, rho=4.0),
            dict(alpha=0.1, gamma=0.0, lam=1.0, m=50, rho=4.0),
            dict(alpha=0.1, gamma=1.0, lam=-1.0, m=50, rho=4.0),
            dict(alpha=0.1, gamma=1.0, lam=1.0, m=0, rho=4.0),
            dict(alpha=0.3, gamma=1.0, lam=1.0, m=50, rho=4.0),  # alpha lam rho >= 1
            dict(alpha=0.1, gamma=1.0, lam=1.0, m=50, rho=4.0, part="iii"),
        ],
    )
    def test_rejections(self, kw):
        with pytest.raises(ConfigurationError):
            rate_bound_vrssd(**kw)


class TestInnerStep:
    def test_zero_eta_matches_plain_sketched_step(self):
        from ssdopt import ssd_step

        d, ell = 7, 3
        x = np.linspace(0.5, 2.0, d)
        anchor = AnchorState(np.zeros(d), np.full(d, 5.0), 0)
        rng = RngStream(4, 0, 9)
        vcfg = VrssdConfig(ell=ell, eta_mode="zero", step_rule=FixedStep(0.1), m=2)
        scfg = SsdConfig(ell=ell, step_rule=FixedStep(0.1))
        xa, _ = vrssd_inner_step(isotropic_quadratic(d), x, anchor, vcfg, rng)
        xb, _ = ssd_step(isotropic_quadratic(d), x, scfg, rng)
        assert np.allclose(xa, xb, atol=1e-15)

    def test_full_space_direction_recovers_gradient_all_modes(self):
        d = 6
        x = np.linspace(-1.0, 1.5, d)
        xa = x + 0.3
        obj = isotropic_quadratic(d)
        anchor = AnchorState(xa.copy(), xa.copy(), 0)
        alpha = 0.05
        for mode in ("zero", "one", "exact", "approx"):
            cfg = VrssdConfig(
                ell=d, eta_mode=mode, step_rule=FixedStep(alpha), m=2,
                exact_gradient=True,
            )
            x1, _ = vrssd_inner_step(isotropic_quadratic(d), x, anchor, cfg, RngStream(8, 0, 1))
            move = (x - x1) / alpha
            assert np.allclose(move, obj.reference_gradient(x), atol=1e-9)

    def test_exact_eta_at_anchor_moves_along_anchor_gradient(self):
        # At the anchor with eta "exact" the control variate cancels the
        # sketch entirely up to finite-difference error, independent of P.
        d, ell = 9, 2
        obj = nesterov_worst(4.0, 4, d)
        x = np.linspace(0.1, 0.9, d)
        g_anchor = full_gradient_fd(nesterov_worst(4.0, 4, d), x, FdScheme("forward"))
        anchor = AnchorState(x.copy(), g_anchor, 0)
        alpha = 0.02
        cfg = VrssdConfig(ell=ell, eta_mode="exact", step_rule=FixedStep(alpha), m=2)
        for inner in (0, 1):
            x1, entry = vrssd_inner_step(
                nesterov_worst(4.0, 4, d), x, anchor, cfg, RngStream(12, 0, inner)
            )
            move = (x - x1) / alpha
            assert np.linalg.norm(move - g_anchor) < 1e-5
            assert entry.evals == (ell + 1) + (d + 1)  # sketch plus full estimate

    def test_matches_hand_assembled_direction(self):
        d, ell, alpha = 8, 3, 0.07
        obj = nesterov_worst(3.0, 5, d)
        x = np.linspace(-0.5, 0.8, d)
        g_anchor = np.sin(np.arange(d, dtype=float))
        anchor = AnchorState(x - 0.1, g_anchor, 2)
        rng = RngStream(21, 0, 5)
        cfg = VrssdConfig(ell=ell, eta_mode="approx", step_rule=FixedStep(alpha), m=3)
        x1, entry = vrssd_inner_step(nesterov_worst(3.0, 5, d), x, anchor, cfg, rng)

        P = draw("haar", d, ell, rng)
        s, fx = directional_derivatives(obj, x, P, FdScheme("forward"), return_value=True)
        t = P.apply_transpose(g_anchor)
        eta = float(s @ t) / float(g_anchor @ g_anchor)
        v = P.apply(s - eta * t) + eta * g_anchor
        assert np.array_equal(x1, x - alpha * v)
        assert entry.f == fx
        assert entry.dirnorm == float(np.linalg.norm(v))
        assert entry.evals == ell + 1


class TestRunEquivalences:
    def mk_objs(self):
        return nesterov_worst(4.0, 5, 12), nesterov_worst(4.0, 5, 12)

    def test_zero_eta_option_one_replays_plain_run(self):
        # Same seed means the same per-iteration sketches, and eta = 0 makes
        # every inner direction identical to the plain sketched one; only the
        # evaluation stamps differ by the anchor refresh cost.
        oa, ob = self.mk_objs()
        va = run_vrssd(
            oa, np.zeros(12),
            VrssdConfig(ell=3, eta_mode="zero", option="one", m=4,
                        step_rule=FixedStep(0.05), max_iters=12, seed=7),
        )
        sb = run_ssd(
            ob, np.zeros(12),
            SsdConfig(ell=3, step_rule=FixedStep(0.05), max_iters=12, seed=7),
        )
        assert [e.f for e in va.entries] == [e.f for e in sb.entries]
        assert [e.dirnorm for e in va.entries] == [e.dirnorm for e in sb.entries]
        assert [e.evals for e in va.entries] != [e.evals for e in sb.entries]

    def test_zero_eta_replay_holds_under_line_search(self):
        oa, ob = self.mk_objs()
        va = run_vrssd(
            oa, np.zeros(12),
            VrssdConfig(ell=3, eta_mode="zero", option="one", m=5,
                        step_rule=ArmijoStep(), max_iters=15, seed=3),
        )
        sb = run_ssd(
            ob, np.zeros(12),
            SsdConfig(ell=3, step_rule=ArmijoStep(), max_iters=15, seed=3),
        )
        assert [e.f for e in va.entries] == [e.f for e in sb.entries]
        assert [e.step for e in va.entries] == [e.step for e in sb.entries]

    def test_warmup_prefix_matches_plain_run(self):
        oa, ob = self.mk_objs()
        va = run_vrssd(
            oa, np.zeros(12),
            VrssdConfig(ell=3, eta_mode="one", option="one", m=3, warmup_iters=3,
                        step_rule=FixedStep(0.05), max_iters=9, seed=5),
        )
        sb = run_ssd(
            ob, np.zeros(12),
            SsdConfig(ell=3, step_rule=FixedStep(0.05), max_iters=3, seed=5),
        )
        assert [e.f for e in va.entries[:4]] == [e.f for e in sb.entries]


class TestEpochAccounting:
    def count(self, max_iters, **kw):
        base = dict(ell=3, step_rule=FixedStep(0.01), m=4, seed=0, eval_budget=10**6)
        base.update(kw)
        obj = isotropic_quadratic(12)
        run_vrssd(obj, np.full(12, 2.0), VrssdConfig(max_iters=max_iters, **base))
        return obj.eval_count

    def test_forward_epoch_cost(self):
        # start 1, anchor d + 1, m inner steps at ell + 1 each, final resolve
        one = self.count(4)
        two = self.count(8)
        assert one == 1 + 13 + 4 * 4 + 1
        assert two - one == 13 + 4 * 4

    def test_centered_epoch_cost(self):
        one = self.count(4, fd=FdScheme("centered"))
        two = self.count(8, fd=FdScheme("centered"))
        assert one == 1 + 24 + 4 * 7
        assert two - one == 24 + 4 * 7

    def test_exact_eta_charges_full_estimate_per_inner_step(self):
        obj = isotropic_quadratic(8)
        cfg = VrssdConfig(ell=2, step_rule=FixedStep(0.01), m=2, seed=0,
                          eta_mode="exact", max_iters=2)
        run_vrssd(obj, np.full(8, 1.5), cfg)
        assert obj.eval_count == 1 + 9 + 2 * (3 + 9) + 1


class TestOptionTwo:
    def test_trace_matches_hand_simulation(self):
        # Replays the whole epoch structure by hand: sketches at global step
        # indices, approx weights, and a uniformly drawn restart index from
        # the epoch-level stream.
        d, ell, m, alpha, seed, epochs = 5, 2, 3, 0.1, 13, 3
        x0 = np.linspace(1.0, 2.0, d)
        cfg = VrssdConfig(
            ell=ell, eta_mode="approx", option="two", m=m,
            step_rule=FixedStep(alpha), max_iters=m * epochs, seed=seed,
            exact_gradient=True,
        )
        obj = isotropic_quadratic(d)
        trace = run_vrssd(obj, x0, cfg)

        f = lambda z: 0.5 * float(z @ z)
        x = x0.copy()
        sim = [f(x)]
        k = 0
        for epoch in range(epochs):
            anchor = x.copy()  # gradient equals the point on this objective
            gg = float(anchor @ anchor)
            inner = []
            for _ in range(m):
                P = draw("haar", d, ell, RngStream(seed, 0, k))
                s = P.apply_transpose(x)
                t = P.apply_transpose(anchor)
                eta = float(s @ t) / gg
                v = P.apply(s - eta * t) + eta * anchor
                x = x - alpha * v
                k += 1
                sim.append(f(x))
                inner.append(x)
            j = int(RngStream(seed, 1, epoch).generator().integers(1, m + 1))
            x = inner[j - 1].copy()

        got = [e.f for e in trace.entries]
        assert len(got) == len(sim)
        assert got == pytest.approx(sim, rel=1e-12)

    def test_restart_index_is_uniform(self):
        # ell = d keeps the contraction seed-independent, so the value of the
        # first step of each epoch identifies which inner iterate the epoch
        # restarted from.
        d, m, alpha, epochs = 2, 4, 0.001, 2500
        cfg = VrssdConfig(
            ell=d, eta_mode="approx", option="two", m=m,
            step_rule=FixedStep(alpha), max_iters=m * epochs, seed=29,
            exact_gradient=True,
        )
        trace = run_vrssd(isotropic_quadratic(d), np.array([1.0, 0.5]), cfg)
        fs = [e.f for e in trace.entries]
        shrink = (1.0 - alpha) ** 2
        counts = [0] * m
        for epoch in range(epochs - 1):
            cands = fs[1 + m * epoch : 1 + m * (epoch + 1)]
            nxt = fs[1 + m * (epoch + 1)]
            hits = [
                i for i, c in enumerate(cands)
                if math.isclose(nxt, shrink * c, rel_tol=1e-10)
            ]
            assert len(hits) == 1
            counts[hits[0]] += 1
        n = epochs - 1
        band = 4.0 * math.sqrt(n * 0.25 * 0.75)
        assert all(abs(c - n / 4.0) <= band for c in counts)

    def test_option_two_fixed_rule_charges_one_extra_eval_per_epoch(self):
        def total(option, epochs):
            obj = isotropic_quadratic(6)
            cfg = VrssdConfig(ell=2, option=option, m=3, step_rule=FixedStep(0.01),
                              max_iters=3 * epochs, seed=1)
            run_vrssd(obj, np.ones(6), cfg)
            return obj.eval_count

        # One pre-jump resolve per completed epoch; the last one doubles as
        # the terminal value that option "one" pays at close.
        for epochs in (2, 3):
            assert total("two", epochs) == total("one", epochs) + epochs - 1

    @pytest.mark.parametrize(
        "grad, evals",
        [({"exact_gradient": True}, 41), ({"fd": FdScheme("centered")}, 321)],
        ids=["exact", "centered"],
    )
    def test_restart_point_is_not_evaluated_again(self, grad, evals):
        # Neither source evaluates f at the iterate itself, so a point seen
        # twice is a value the run had already paid for.
        base = isotropic_quadratic(6)
        seen = []

        def evaluator(x):
            seen.append(np.asarray(x, float).tobytes())
            return base.evaluator(x)

        obj = replace(base, evaluator=evaluator)
        cfg = VrssdConfig(ell=2, m=4, option="two", step_rule=FixedStep(0.1),
                          max_iters=40, seed=3, **grad)
        trace = run_vrssd(obj, np.ones(6), cfg)
        assert trace.terminal_status == "max_iters"
        assert len(set(seen)) == len(seen) == obj.eval_count == evals


class TestTermination:
    def test_budget_below_first_anchor(self):
        obj = isotropic_quadratic(6)
        cfg = VrssdConfig(ell=2, m=3, step_rule=FixedStep(0.1), eval_budget=5)
        trace = run_vrssd(obj, np.ones(6), cfg)
        assert trace.terminal_status == "budget_exhausted"
        assert len(trace.entries) == 1
        assert obj.eval_count == 1

    def test_budget_stops_mid_epoch_with_resolved_entries(self):
        obj = isotropic_quadratic(6)
        cfg = VrssdConfig(ell=2, m=3, step_rule=FixedStep(0.1), eval_budget=12)
        trace = run_vrssd(obj, np.ones(6), cfg)
        assert trace.terminal_status == "budget_exhausted"
        assert obj.eval_count == 12
        assert len(trace.entries) == 2
        assert all(np.isfinite(e.f) for e in trace.entries)

    @pytest.mark.parametrize("eta_mode", ["zero", "approx", "exact"])
    def test_centered_fixed_step_never_charges_past_the_budget(self, eta_mode):
        # Centered differences do not supply the value at an iterate, so an
        # anchor that fits exactly must still leave one evaluation for the
        # last inner iterate's value, which the close records.
        for budget in range(1, 81):
            obj = isotropic_quadratic(4)
            cfg = VrssdConfig(ell=1, m=1, fd=FdScheme("centered"), eta_mode=eta_mode,
                              step_rule=FixedStep(0.05), eval_budget=budget, max_iters=50)
            run_vrssd(obj, np.ones(4), cfg)
            assert obj.eval_count <= budget, f"budget {budget}"

    def test_target_reached(self):
        obj = isotropic_quadratic(4)
        f0 = 0.5 * 4.0
        cfg = VrssdConfig(
            ell=4, m=2, exact_gradient=True, step_rule=FixedStep(0.5),
            max_iters=200, target_value=1e-3 * f0,
        )
        trace = run_vrssd(obj, np.ones(4), cfg)
        assert trace.terminal_status == "target_reached"
        assert trace.entries[-1].f <= 1e-3 * f0

    def test_target_met_before_a_restart_ends_the_run(self):
        # Option "two" learns the last inner iterate's value just before the
        # restart jumps away from it; meeting the target there ends the run.
        cfg = VrssdConfig(ell=2, m=3, option="two", exact_gradient=True,
                          step_rule=FixedStep(0.5), max_iters=30, seed=3)
        free = run_vrssd(isotropic_quadratic(4), np.ones(4), cfg)
        target = free.entries[3].f
        assert all(e.f > target for e in free.entries[:3])
        trace = run_vrssd(isotropic_quadratic(4), np.ones(4), replace(cfg, target_value=target))
        assert trace.terminal_status == "target_reached"
        assert trace.entries == free.entries[:4]

    def test_non_finite_anchor_probe_ends_the_run(self):
        # The objective turns NaN after 7 calls: the start (1) and two warmup
        # steps (3 each) are finite, the first anchor's d + 1 probes are not.
        calls = iter(range(10**6))
        obj = Objective(6, lambda x: 0.5 * float(x @ x) if next(calls) < 7 else math.nan)
        cfg = VrssdConfig(ell=2, m=3, step_rule=FixedStep(0.1), warmup_iters=2)
        trace = run_vrssd(obj, np.ones(6), cfg)
        assert trace.terminal_status == "evaluation_failed"
        assert obj.eval_count == 7 + 7
        # The second warmup step's value was to come from the anchor, so its
        # entry stays unrecorded.
        assert [e.iteration for e in trace.entries] == [0, 1]

    def test_max_iters_counts_inner_steps(self):
        obj = isotropic_quadratic(6)
        cfg = VrssdConfig(ell=2, m=4, step_rule=FixedStep(0.01), max_iters=10, seed=0)
        trace = run_vrssd(obj, np.ones(6), cfg)
        assert trace.terminal_status == "max_iters"
        assert trace.entries[-1].iteration == 10
