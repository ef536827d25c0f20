"""End-to-end acceptance checks, one test per shipped guarantee.

Each test states its tolerance inline. Statistical checks run at fixed seeds
with margins wide enough that a correct implementation passes with room to
spare; see the test bodies for the arithmetic.
"""

import json
import math
import os
import re
import statistics
import subprocess
import sys

import numpy as np
import pytest

from conftest import child_env
from ssdopt import (
    ArmijoStep,
    FdScheme,
    FixedStep,
    NoSuccessError,
    Objective,
    RngStream,
    SsdConfig,
    VrssdConfig,
    cmse,
    directional_derivatives,
    draw_coordinate_block,
    draw_haar,
    estimate_linear_rate,
    evals_to_threshold,
    full_gradient_fd,
    isotropic_quadratic,
    nesterov_worst,
    profile_from_counts,
    run_fd_bfgs,
    run_fd_gd,
    run_ssd,
    run_vrssd,
    sample_gaussian,
    sample_haar,
    vrssd_inner_step,
)
from ssdopt.sketch import SketchStream
from ssdopt.vrssd import AnchorState

GRID = [(5, 1), (5, 3), (50, 1), (50, 3), (50, 10), (500, 1), (500, 3), (500, 100)]


# ---------------------------------------------------------------------------
# 1. sketch contracts: per-draw orthogonality and mean projector


def test_01_sketch_families_scale_and_average_to_identity():
    gen = np.random.default_rng(20240501)
    for d, ell in GRID:
        # per-draw: every orthogonal-family draw satisfies the Gram identity
        for i in range(25):
            for drawer in (draw_haar, draw_coordinate_block):
                P = drawer(d, ell, RngStream(1000 + i, 0, i)).matrix
                assert np.max(np.abs(P.T @ P - (d / ell) * np.eye(ell))) <= 1e-10

        # mean projector, haar: 10^5 draws at 2% entrywise, except the
        # largest combination where 4 * 10^3 draws keep the same check well
        # inside tolerance (worst-entry deviation ~0.007 at that size) at a
        # fraction of the cost
        n = 100_000 if (d, ell) != (500, 100) else 4_000
        chunk = min(n, max(1, 12_000_000 // (d * ell)))
        acc = np.zeros((d, d))
        done = 0
        while done < n:
            b = min(chunk, n - done)
            mats = sample_haar(d, ell, b, gen)
            flat = mats.transpose(0, 2, 1).reshape(-1, d)
            acc += flat.T @ flat
            # spot-check per-draw orthogonality inside the batch sampler too
            sl = mats[: min(b, 200)]
            gram = np.einsum("kdi,kdj->kij", sl, sl)
            assert np.max(np.abs(gram - (d / ell) * np.eye(ell))) <= 1e-10
            done += b
        assert np.max(np.abs(acc / n - np.eye(d))) < 0.02

        # mean projector, coordinate: P P^T is diagonal by construction, so
        # off-diagonal entries average to zero exactly, and each diagonal
        # entry is a scaled Bernoulli mean whose sampling error at 10^5
        # draws can exceed 2% for d/ell > ~40; the tolerance widens to six
        # binomial standard errors where that happens
        n = 100_000
        diag = np.zeros(d)
        # The stream yields the bytes of RngStream(7, 0, i) at step i, and
        # each column's one nonzero row is the row np.nonzero(m) would list.
        stream = SketchStream(7)
        for i in range(n):
            m = draw_coordinate_block(d, ell, stream.at(i)).matrix
            diag[m.argmax(axis=0)] += d / ell
        p = ell / d
        se = (d / ell) * math.sqrt(p * (1.0 - p) / n)
        tol = max(0.02, 6.0 * se)
        assert np.max(np.abs(diag / n - 1.0)) < tol


# ---------------------------------------------------------------------------
# 2. variance separation between the families


def test_02_projection_norm_variance_separates_families():
    d, n = 100, 100_000
    gen = np.random.default_rng(42)

    sq = np.empty(n)
    for i in range(n):
        m = draw_coordinate_block(d, 1, RngStream(11, 0, i)).matrix
        sq[i] = m[0, 0] ** 2  # ||P^T e_1||^2 = first-row entry squared
    var_coord = float(np.var(sq))
    assert abs(var_coord - 99.0) < 9.9  # 99 +- 10%

    mats = sample_haar(d, 1, n, gen)
    sq = mats[:, 0, 0] ** 2
    var_haar = float(np.var(sq))
    expected = 2.0 * (d - 1.0) / (d + 2.0)  # ~1.9412
    assert abs(var_haar - expected) < 0.1 * expected

    mats = sample_gaussian(d, 1, n, gen)
    sq = mats[:, 0, 0] ** 2
    var_gauss = float(np.var(sq))
    assert abs(var_gauss - 2.0) < 0.2  # chi^2_1 variance

    assert var_coord > 10.0 * max(var_haar, var_gauss)


# ---------------------------------------------------------------------------
# 3 + 4. exact mean decay at the tight step size, and the fitted rate


@pytest.fixture(scope="module")
def fixed_step_decay_traces():
    d, ell, alpha, k = 20, 5, 0.25, 20
    x0 = np.ones(d)
    traces = []
    for seed in range(1000):
        obj = isotropic_quadratic(d)
        cfg = SsdConfig(
            ell=ell, fd=FdScheme("exact"), step_rule=FixedStep(alpha),
            max_iters=k, seed=seed,
        )
        traces.append(run_ssd(obj, x0, cfg))
    return traces


def test_03_fixed_step_mean_decay_is_exact_on_isotropic_quadratic(fixed_step_decay_traces):
    # At alpha = ell / d the per-step expected contraction of f is exactly
    # 1 - ell/d = 0.75, so after 20 steps the mean ratio must sit at
    # 0.75^20 up to Monte-Carlo error (tolerance: 3 standard errors).
    ratios = np.array([t.entries[-1].f / t.entries[0].f for t in fixed_step_decay_traces])
    target = 0.75**20
    se = float(np.std(ratios, ddof=1)) / math.sqrt(len(ratios))
    assert abs(float(np.mean(ratios)) - target) < 3.0 * se


def test_04_fitted_rate_matches_predicted_contraction(fixed_step_decay_traces):
    rates = [estimate_linear_rate(t, 0.0)[0] for t in fixed_step_decay_traces]
    mean_rate = float(np.mean(rates))
    assert 0.72 <= mean_rate <= 0.78  # theory: 0.75


# ---------------------------------------------------------------------------
# 5. closed-form conditional mean squared error of the reduced direction


def test_05_control_variate_error_formulas():
    d, n_pairs, n = 30, 20, 100_000
    gen = np.random.default_rng(505)
    pairs = [(gen.standard_normal(d), gen.standard_normal(d)) for _ in range(n_pairs)]

    for ell in (3, 10):
        # one shared pool of sketches per ell; each pair sees the same draws,
        # which leaves every individual estimate unbiased
        sums = {(p, mode): 0.0 for p in range(n_pairs) for mode in ("zero", "one", "optimal")}
        done = 0
        chunk = 20_000
        while done < n:
            b = min(chunk, n - done)
            mats = sample_haar(d, ell, b, gen)
            for p, (g, ga) in enumerate(pairs):
                etas = {
                    "zero": 0.0,
                    "one": 1.0,
                    "optimal": float(g @ ga) / float(ga @ ga),
                }
                for mode, eta in etas.items():
                    w = g - eta * ga
                    t = np.einsum("kdr,d->kr", mats, w)
                    proj = np.einsum("kdr,kr->kd", mats, t)
                    # v - g = (P P^T - I)(g - eta g~)
                    sums[(p, mode)] += float(np.sum((proj - w) ** 2))
            done += b

        rho = d / ell
        for p, (g, ga) in enumerate(pairs):
            analytic = {mode: cmse(mode, g, ga, rho) for mode in ("zero", "one", "optimal")}
            for mode, value in analytic.items():
                sample = sums[(p, mode)] / n
                assert abs(sample - value) <= 0.02 * value  # 2% relative
            assert analytic["optimal"] <= analytic["zero"] + 1e-12


# ---------------------------------------------------------------------------
# 6. degenerate identities of the variance-reduced runner


def test_06_variance_reduction_degenerate_identities():
    # (a) eta = 0 replays the plain sketched run seed for seed
    oa = nesterov_worst(4.0, 5, 12)
    ob = nesterov_worst(4.0, 5, 12)
    va = run_vrssd(
        oa, np.zeros(12),
        VrssdConfig(ell=3, eta_mode="zero", option="one", m=4,
                    step_rule=FixedStep(0.05), max_iters=12, seed=9),
    )
    sb = run_ssd(
        ob, np.zeros(12),
        SsdConfig(ell=3, step_rule=FixedStep(0.05), max_iters=12, seed=9),
    )
    assert [e.f for e in va.entries] == [e.f for e in sb.entries]
    assert [e.dirnorm for e in va.entries] == [e.dirnorm for e in sb.entries]

    # (b) at the anchor with exact eta the step direction collapses to the
    # full finite-difference gradient within 1e-5 relative, whatever the
    # sketch was
    d, ell = 15, 3
    x = np.linspace(0.2, 1.4, d)
    g_anchor = full_gradient_fd(nesterov_worst(6.0, 7, d), x, FdScheme("forward"))
    anchor = AnchorState(x.copy(), g_anchor, 0)
    alpha = 0.01
    cfg = VrssdConfig(ell=ell, eta_mode="exact", step_rule=FixedStep(alpha), m=2)
    gnorm = float(np.linalg.norm(g_anchor))
    for sketch_index in (0, 1):
        x1, _ = vrssd_inner_step(
            nesterov_worst(6.0, 7, d), x, anchor, cfg, RngStream(33, 0, sketch_index)
        )
        move = (x - x1) / alpha
        assert float(np.linalg.norm(move - g_anchor)) <= 1e-5 * gnorm


# ---------------------------------------------------------------------------
# 7. few-direction steps win on low intrinsic dimension


def test_07_sketched_descent_beats_full_differences_on_low_rank_problem():
    lam, r, d = 80.0, 10, 1001
    probe = nesterov_worst(lam, r, d)
    fstar = probe.minimum_value
    target = fstar + 0.1 * abs(fstar)
    x0 = np.zeros(d)

    gd_obj = nesterov_worst(lam, r, d)
    gd_trace = run_fd_gd(
        gd_obj, x0, SsdConfig(ell=1, max_iters=2000, target_value=target)
    )
    gd_evals = evals_to_threshold(gd_trace, target)
    assert math.isfinite(gd_evals)

    ssd_evals = []
    for seed in range(20):
        obj = nesterov_worst(lam, r, d)
        trace = run_ssd(
            obj, x0,
            SsdConfig(ell=3, max_iters=5000, target_value=target, seed=seed),
        )
        ssd_evals.append(evals_to_threshold(trace, target))
    assert all(math.isfinite(e) for e in ssd_evals)
    assert statistics.median(ssd_evals) < gd_evals


# ---------------------------------------------------------------------------
# 8. finite-difference error orders under step halving


def _direction_errors(obj, x, h, kind, seed):
    P = draw_haar(obj.d, 3, RngStream(seed, 0, 0))
    exact = P.apply_transpose(obj.reference_gradient(x))
    s = directional_derivatives(obj, x, P, FdScheme(kind, step=h))
    return float(np.linalg.norm(s - exact))


def quartic_objective(d):
    return Objective(
        d=d,
        evaluator=lambda x: float(np.sum(x**4)),
        reference_gradient=lambda x: 4.0 * x**3,
    )


def test_08_finite_difference_error_orders():
    gen = np.random.default_rng(88)
    h = 1e-3
    for i in range(20):
        x = gen.uniform(-2.0, 2.0, size=25)
        obj = nesterov_worst(8.0, 9, 25)
        e1 = _direction_errors(obj, x, h, "forward", seed=i)
        e2 = _direction_errors(obj, x, h / 2.0, "forward", seed=i)
        assert 1.8 <= e1 / e2 <= 2.2

        # centered differences have no truncation error left on this
        # piecewise-quadratic objective: they are exact to rounding, which
        # is the strongest form of the order claim
        ec = _direction_errors(obj, x, h, "centered", seed=i)
        assert ec <= 1e-9

        # the quartering of the centered truncation error is observable as
        # soon as the objective has nonzero third derivatives
        q = quartic_objective(25)
        e1 = _direction_errors(q, x, 1e-2, "centered", seed=i)
        e2 = _direction_errors(q, x, 5e-3, "centered", seed=i)
        assert 3.5 <= e1 / e2 <= 4.5


@pytest.mark.xfail(
    strict=True,
    reason="centered differences are already exact on an objective with "
    "constant curvature, so no h^2 truncation term remains whose halving "
    "could show a factor-four drop; the ratio is rounding noise",
)
def test_08b_centered_error_quarters_on_the_low_rank_chain():
    gen = np.random.default_rng(88)
    h = 1e-3
    for i in range(20):
        x = gen.uniform(-2.0, 2.0, size=25)
        obj = nesterov_worst(8.0, 9, 25)
        e1 = _direction_errors(obj, x, h, "centered", seed=i)
        e2 = _direction_errors(obj, x, h / 2.0, "centered", seed=i)
        assert 3.5 <= e1 / e2 <= 4.5


# ---------------------------------------------------------------------------
# 9. evaluation charges are exact


def test_09_evaluation_charges_are_exact():
    d, ell = 12, 3
    x = np.linspace(0.5, 1.5, d)
    P = draw_haar(d, ell, RngStream(2, 0, 0))

    obj = isotropic_quadratic(d)
    directional_derivatives(obj, x, P, FdScheme("forward"))
    assert obj.eval_count == ell + 1

    # a known base value is taken, not evaluated again
    obj = isotropic_quadratic(d)
    directional_derivatives(obj, x, P, FdScheme("forward"), fx=0.5 * float(x @ x))
    assert obj.eval_count == ell

    obj = isotropic_quadratic(d)
    directional_derivatives(obj, x, P, FdScheme("centered"))
    assert obj.eval_count == 2 * ell

    obj = isotropic_quadratic(d)
    full_gradient_fd(obj, x, FdScheme("forward"))
    assert obj.eval_count == d + 1

    obj = isotropic_quadratic(d)
    full_gradient_fd(obj, x, FdScheme("forward"), fx=0.5 * float(x @ x))
    assert obj.eval_count == d

    obj = isotropic_quadratic(d)
    full_gradient_fd(obj, x, FdScheme("centered"))
    assert obj.eval_count == 2 * d

    # per-epoch charge of the variance-reduced runner, fixed step: anchor
    # refresh d + 1, then m sketched steps at ell + 1 each but the first,
    # which reuses the anchor's value
    m = 4

    def total(epochs):
        o = isotropic_quadratic(d)
        cfg = VrssdConfig(ell=ell, m=m, step_rule=FixedStep(0.01),
                          max_iters=m * epochs, seed=0)
        run_vrssd(o, np.full(d, 2.0), cfg)
        return o.eval_count

    assert total(2) - total(1) == (d + 1) + ell + (m - 1) * (ell + 1)


BUDGET_CASES = [
    (kind, rule, grad, extra)
    for kind in ("ssd", "gd", "bfgs", "vrssd")
    for rule in ("fixed", "armijo")
    for grad in ("forward", "centered", "exact")
    for extra in (
        [dict(option=o, eta_mode=e) for o in ("one", "two") for e in ("approx", "exact")]
        if kind == "vrssd" else [{}]
    )
    if not (kind == "bfgs" and rule == "fixed")
]


@pytest.mark.parametrize(
    "kind,rule,grad,extra", BUDGET_CASES,
    ids=["-".join([k, r, g, *map(str, e.values())]) for k, r, g, e in BUDGET_CASES],
)
def test_09b_no_run_charges_more_than_its_budget(kind, rule, grad, extra):
    # Every budget from 1 to 60 on a small chain: the runner may stop early,
    # but never after charging a single evaluation beyond the budget.
    runner = {"ssd": run_ssd, "gd": run_fd_gd, "bfgs": run_fd_bfgs, "vrssd": run_vrssd}[kind]
    config = VrssdConfig if kind == "vrssd" else SsdConfig
    step = {"fixed": FixedStep(0.02), "armijo": ArmijoStep()}[rule]
    source = dict(fd=FdScheme(grad))
    for budget in range(1, 61):
        obj = nesterov_worst(8.0, 6, 16)
        cfg = config(ell=3, step_rule=step, eval_budget=budget, max_iters=100,
                     **source, **(dict(m=4, **extra) if kind == "vrssd" else {}))
        trace = runner(obj, np.linspace(-1.0, 1.0, 16), cfg)
        assert obj.eval_count <= budget, (budget, trace.terminal_status)


# ---------------------------------------------------------------------------
# 10. performance-profile distribution properties


def test_10_profile_distribution_properties():
    gen = np.random.default_rng(1010)
    n_tables = 1000
    for table_index in range(n_tables):
        n_solvers = int(gen.integers(1, 6))
        n_trials = int(gen.integers(1, 9))
        p_fail = float(gen.uniform(0.0, 0.9))
        counts = {}
        for s in range(n_solvers):
            per = {}
            for t in range(n_trials):
                if table_index % 50 == 0 or gen.uniform() < p_fail:
                    per[t] = float("inf")
                else:
                    per[t] = float(gen.uniform(1.0, 1e6))
            counts[f"s{s}"] = per

        any_finite = any(math.isfinite(v) for per in counts.values() for v in per.values())
        if not any_finite:
            with pytest.raises(NoSuccessError):
                profile_from_counts(counts)
            continue

        prof = profile_from_counts(counts)
        finite_ratios = []
        for s, per in counts.items():
            curve = prof.curves[s]
            taus = [t for t, _ in curve]
            rhos = [r for _, r in curve]
            assert taus == sorted(taus)
            assert rhos == sorted(rhos)  # monotone
            assert all(0.0 <= r <= 1.0 for r in rhos)
            success = sum(1 for v in prof.ratios[s].values() if math.isfinite(v))
            assert rhos[-1] == pytest.approx(success / n_trials)
            finite_ratios.extend(v for v in prof.ratios[s].values() if math.isfinite(v))
        # the per-trial winner sits at ratio one, so tau = 1 is attained
        assert min(finite_ratios) == 1.0


# ---------------------------------------------------------------------------
# 11. CLI reruns are byte-identical, also across worker counts


SWEEP_INI = """\
[experiment]
problem = quadratic:d=6
trials = 2
x0 = gaussian:1.5
seed = 4

[solver sk2]
kind = ssd
ell = 2
iters = 40

[solver vr]
kind = vrssd
ell = 2
m = 3
step = fixed:0.1
iters = 12
"""


def _cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "ssdopt", *args],
        cwd=cwd, env=child_env(), capture_output=True, text=True, timeout=300,
    )


def test_11_cli_reruns_are_byte_identical(tmp_path):
    run_cmd = ["run", "--problem", "quadratic:d=8", "--ell", "2",
               "--iters", "25", "--seed", "3", "--x0", "gaussian:1.0"]
    dirs = []
    for name in ("a", "b"):
        sub = tmp_path / name
        sub.mkdir()
        res = _cli(run_cmd, sub)
        assert res.returncode == 0, res.stderr
        dirs.append(sub)
    assert (dirs[0] / "trace.csv").read_bytes() == (dirs[1] / "trace.csv").read_bytes()

    cfg = tmp_path / "sweep.ini"
    cfg.write_text(SWEEP_INI)
    outs = []
    for out, jobs in (("one", "1"), ("again", "1"), ("parallel", "2")):
        res = _cli(["sweep", str(cfg), "--out", out, "--jobs", jobs], tmp_path)
        assert res.returncode == 0, res.stderr
        outs.append((tmp_path / out / "traces.csv").read_bytes())
    assert outs[0] == outs[1] == outs[2]

    profs = []
    for name in ("p1.csv", "p2.csv"):
        res = _cli(
            ["profile", "--traces", os.path.join("one", "traces.csv"),
             "--target", "0.05", "--out", name],
            tmp_path,
        )
        assert res.returncode == 0, res.stderr
        profs.append((tmp_path / name).read_bytes())
    assert profs[0] == profs[1]
