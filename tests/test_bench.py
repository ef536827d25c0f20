"""Benchmark harness: experiments, profiles, rate fits, trace files."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ssdopt import (
    ArmijoStep,
    ConfigurationError,
    ExperimentSpec,
    FixedStep,
    NoSuccessError,
    Objective,
    ProblemSpec,
    RunTrace,
    SolverSetup,
    SsdConfig,
    TraceEntry,
    TraceRecord,
    VrssdConfig,
    estimate_linear_rate,
    evals_to_threshold,
    export_traces,
    import_traces,
    performance_profile,
    profile_from_counts,
    run_experiment,
)

INF = float("inf")


def small_experiment(threshold=None, trials=3):
    problem = ProblemSpec.make("quadratic", {"d": 6})
    solvers = [
        SolverSetup("ssd2", "ssd", SsdConfig(ell=2, max_iters=25)),
        SolverSetup("ssd4", "ssd", SsdConfig(ell=4, max_iters=25)),
    ]
    return ExperimentSpec(
        problem=problem,
        solvers=solvers,
        trials=trials,
        x0=("gaussian", 2.0),
        threshold=threshold,
        base_seed=5,
    )


class TestProblemSpec:
    def test_build_known_families(self):
        assert ProblemSpec.make("quadratic", {"d": 5}).build().d == 5
        assert ProblemSpec.make("nesterov", {"l": 4, "r": 3, "d": 9}).build().d == 9
        obj = ProblemSpec.make("lstsq", {"m": 6, "d": 4, "rank": 2}).build()
        assert obj.d == 4

    def test_build_is_deterministic(self):
        spec = ProblemSpec.make("lstsq", {"m": 6, "d": 4, "rank": 2, "seed": 3})
        x = np.linspace(-1.0, 1.0, 4)
        assert spec.build().evaluate(x) == spec.build().evaluate(x)
        assert spec.build().lipschitz_constant == spec.build().lipschitz_constant

    def test_params_are_order_insensitive(self):
        a = ProblemSpec.make("nesterov", {"l": 4, "r": 3, "d": 9})
        b = ProblemSpec.make("nesterov", {"d": 9, "r": 3, "l": 4})
        assert a == b

    def test_unknown_problem(self):
        with pytest.raises(ConfigurationError, match="unknown problem"):
            ProblemSpec.make("rosenbrock", {"d": 2}).build()

    def test_missing_and_unknown_parameters(self):
        with pytest.raises(ConfigurationError, match="missing"):
            ProblemSpec.make("nesterov", {"l": 4, "d": 9}).build()
        with pytest.raises(ConfigurationError, match="unknown parameters"):
            ProblemSpec.make("quadratic", {"d": 5, "spread": 2}).build()

    def test_lstsq_rank_bounds(self):
        with pytest.raises(ConfigurationError, match="rank"):
            ProblemSpec.make("lstsq", {"m": 4, "d": 3, "rank": 5}).build()
        with pytest.raises(ConfigurationError, match="rank"):
            ProblemSpec.make("lstsq", {"m": 4, "d": 3, "rank": 0}).build()

    def test_solver_kind_is_checked_eagerly(self):
        with pytest.raises(ConfigurationError, match="unknown solver kind"):
            SolverSetup("x", "adam", SsdConfig(ell=1))


class TestRunExperiment:
    def test_record_layout_is_solver_major(self):
        records = run_experiment(small_experiment())
        assert [(r.solver, r.trial) for r in records] == [
            ("ssd2", 0), ("ssd2", 1), ("ssd2", 2),
            ("ssd4", 0), ("ssd4", 1), ("ssd4", 2),
        ]

    def test_trials_share_the_start_point_across_solvers(self):
        records = run_experiment(small_experiment())
        by = {(r.solver, r.trial): r.trace for r in records}
        for t in range(3):
            assert by[("ssd2", t)].entries[0].f == by[("ssd4", t)].entries[0].f
        # distinct trials start elsewhere
        assert by[("ssd2", 0)].entries[0].f != by[("ssd2", 1)].entries[0].f

    def test_deterministic_replay(self):
        a = run_experiment(small_experiment())
        b = run_experiment(small_experiment())
        for ra, rb in zip(a, b):
            assert [e.f for e in ra.trace.entries] == [e.f for e in rb.trace.entries]

    def test_parallel_jobs_change_nothing(self):
        a = run_experiment(small_experiment())
        b = run_experiment(small_experiment(), jobs=2)
        assert [(r.solver, r.trial) for r in a] == [(r.solver, r.trial) for r in b]
        for ra, rb in zip(a, b):
            assert [e.f for e in ra.trace.entries] == [e.f for e in rb.trace.entries]

    def test_worker_pool_is_capped_at_the_number_of_runs(self, monkeypatch):
        # A fake pool that maps in-process stands in for the real one, so no
        # process is started whatever worker count is asked for.
        asked = []

        class InProcessPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr("ssdopt.bench.ProcessPoolExecutor", InProcessPool)
        spec = small_experiment()
        serial = run_experiment(spec, jobs=1)
        wide = run_experiment(spec, jobs=10**6)
        assert asked == [len(spec.solvers) * spec.trials]
        assert wide == serial

    def test_trial_seeds_are_base_plus_offset(self):
        spec3 = small_experiment()
        spec4 = ExperimentSpec(
            problem=spec3.problem, solvers=spec3.solvers, trials=2,
            x0=spec3.x0, base_seed=6,
        )
        a = run_experiment(spec3)  # base 5
        b = run_experiment(spec4)  # base 6: trial 0 repeats base 5 trial 1
        fa = [e.f for e in a[1].trace.entries]
        fb = [e.f for e in b[0].trace.entries]
        assert fa == fb

    def test_absolute_threshold_becomes_target(self):
        records = run_experiment(small_experiment(threshold=("absolute", 1e-4)))
        reached = [r for r in records if r.trace.terminal_status == "target_reached"]
        assert reached
        for r in reached:
            assert r.trace.entries[-1].f <= 1e-4

    def test_fraction_threshold_closes_half_the_gap(self):
        records = run_experiment(small_experiment(threshold=("fraction", 0.5)))
        for r in records:
            if r.trace.terminal_status == "target_reached":
                f0 = r.trace.entries[0].f
                assert r.trace.entries[-1].f <= 0.5 * f0 + 1e-12

    def test_mixed_solver_kinds(self):
        problem = ProblemSpec.make("quadratic", {"d": 5})
        solvers = [
            SolverSetup("gd", "gd", SsdConfig(ell=1, max_iters=10)),
            SolverSetup("bfgs", "bfgs", SsdConfig(ell=1, max_iters=10)),
            SolverSetup("vr", "vrssd", VrssdConfig(ell=2, m=3, max_iters=9)),
        ]
        spec = ExperimentSpec(problem=problem, solvers=solvers, trials=2, x0=("uniform", -1.0, 1.0))
        records = run_experiment(spec)
        assert len(records) == 6
        assert all(r.trace.entries for r in records)

    def test_validation(self):
        spec = small_experiment()
        with pytest.raises(ConfigurationError):
            run_experiment(ExperimentSpec(spec.problem, spec.solvers, trials=0))
        with pytest.raises(ConfigurationError):
            run_experiment(ExperimentSpec(spec.problem, [], trials=2))
        dup = [spec.solvers[0], SolverSetup("ssd2", "ssd", SsdConfig(ell=3))]
        with pytest.raises(ConfigurationError, match="duplicate"):
            run_experiment(ExperimentSpec(spec.problem, dup, trials=2))
        with pytest.raises(ConfigurationError):
            run_experiment(ExperimentSpec(spec.problem, spec.solvers, trials=2, base_seed=-1))

    @pytest.mark.parametrize(
        "bad",
        [
            SolverSetup("bfgs", "bfgs", SsdConfig(ell=1, step_rule=FixedStep(0.1))),
            SolverSetup("wide", "ssd", SsdConfig(ell=9)),
            SolverSetup("vr", "vrssd", VrssdConfig(ell=2, m=0)),
            SolverSetup("float-ell", "ssd", SsdConfig(ell=2.0)),
            SolverSetup("float-m", "vrssd", VrssdConfig(ell=2, m=2.5)),
        ],
    )
    def test_bad_later_solver_is_refused_before_any_evaluation(self, monkeypatch, bad):
        evals = []
        evaluate = Objective.evaluate
        monkeypatch.setattr(Objective, "evaluate", lambda obj, x: evals.append(x) or evaluate(obj, x))
        spec = small_experiment()
        with pytest.raises(ConfigurationError):
            run_experiment(ExperimentSpec(spec.problem, (spec.solvers[0], bad), trials=2))
        assert evals == []

    def test_vrssd_with_a_plain_config_is_refused_before_any_evaluation(self, monkeypatch):
        evals = []
        evaluate = Objective.evaluate
        monkeypatch.setattr(Objective, "evaluate", lambda obj, x: evals.append(x) or evaluate(obj, x))
        spec = small_experiment()
        plain = SolverSetup("v", "vrssd", SsdConfig(ell=2))
        with pytest.raises(ConfigurationError, match="'v' of kind 'vrssd' needs a VrssdConfig"):
            run_experiment(ExperimentSpec(spec.problem, (spec.solvers[0], plain), trials=2))
        assert evals == []

    @pytest.mark.parametrize(
        "case",
        ["trials-0", "trials-2.5", "no-solvers", "duplicate-labels", "bad-later-solver",
         "plain-vrssd", "base-seed-1.5", "base-seed-1.5-uniform", "x0-uniform-one-number",
         "x0-empty", "x0-gaussian-text", "threshold-fraction-bare", "threshold-absolute-bare"],
    )
    def test_spec_refuses_bad_input_when_made(self, monkeypatch, case):
        spec = small_experiment()
        first = spec.solvers[0]
        evals, builds = [], []
        evaluate, evaluate_many, build = Objective.evaluate, Objective.evaluate_many, ProblemSpec.build
        monkeypatch.setattr(Objective, "evaluate", lambda obj, x: evals.append(x) or evaluate(obj, x))
        monkeypatch.setattr(Objective, "evaluate_many",
                            lambda obj, xs: evals.append(xs) or evaluate_many(obj, xs))
        monkeypatch.setattr(ProblemSpec, "build", lambda spec: builds.append(spec) or build(spec))
        kw = {
            "trials-0": dict(trials=0),
            "trials-2.5": dict(trials=2.5),
            "no-solvers": dict(solvers=()),
            "duplicate-labels": dict(solvers=(first, SolverSetup("ssd2", "ssd", SsdConfig(ell=3)))),
            "bad-later-solver": dict(solvers=(first, SolverSetup("wide", "ssd", SsdConfig(ell=9)))),
            "plain-vrssd": dict(solvers=(first, SolverSetup("v", "vrssd", SsdConfig(ell=2)))),
            "base-seed-1.5": dict(x0=("zeros",), base_seed=1.5),
            "base-seed-1.5-uniform": dict(x0=("uniform", -1.0, 1.0), base_seed=1.5),
            "x0-uniform-one-number": dict(x0=("uniform", 0.0)),
            "x0-empty": dict(x0=()),
            "x0-gaussian-text": dict(x0=("gaussian", "a")),
            "threshold-fraction-bare": dict(threshold=("fraction",)),
            "threshold-absolute-bare": dict(threshold=("absolute",)),
        }[case]
        fields = dict(problem=spec.problem, solvers=spec.solvers, trials=2, x0=spec.x0,
                      base_seed=spec.base_seed)
        with pytest.raises(ConfigurationError) as refused:
            ExperimentSpec(**{**fields, **kw})
        # The problem builds; the message names what is wrong instead.
        assert "cannot set up problem" not in str(refused.value)
        assert evals == []
        assert len(builds) <= 1

    def test_numpy_integer_counts_run_like_ints(self):
        spec = small_experiment(trials=2)
        wide = ExperimentSpec(spec.problem, spec.solvers, np.int64(2), spec.x0,
                              base_seed=np.int32(spec.base_seed))
        assert run_experiment(wide) == run_experiment(spec)

    def test_fraction_threshold_from_an_infinite_start_value(self):
        # f(x0) overflows to inf, where f0 - p (f0 - fmin) would be NaN.
        spec = small_experiment(threshold=("fraction", 0.5), trials=1)
        spec = ExperimentSpec(spec.problem, spec.solvers, 1, ("gaussian", 1e308), spec.threshold)
        with np.errstate(over="ignore"):
            records = run_experiment(spec)
        assert [r.trace.terminal_status for r in records] == ["evaluation_failed"] * 2

    def test_x0_rules(self):
        from ssdopt.bench import _sample_x0
        from ssdopt import RngStream

        s = RngStream(3, 2, 0)
        assert np.array_equal(_sample_x0(("zeros",), 4, s), np.zeros(4))
        u = _sample_x0(("uniform", -2.0, 3.0), 50, s)
        assert u.shape == (50,) and np.all(u >= -2.0) and np.all(u <= 3.0)
        g = _sample_x0(("gaussian", 0.5), 4, s)
        assert np.array_equal(g, _sample_x0(("gaussian", 0.5), 4, s))
        with pytest.raises(ConfigurationError):
            _sample_x0(("uniform", 1.0, 1.0), 3, s)
        with pytest.raises(ConfigurationError):
            _sample_x0(("gaussian", 0.0), 3, s)
        with pytest.raises(ConfigurationError, match="unknown x0"):
            _sample_x0(("sphere",), 3, s)
        for rule in [("uniform", -math.inf, math.inf), ("uniform", -1e308, 1e308),
                     ("uniform", 0.0, math.inf), ("gaussian", math.inf)]:
            with pytest.raises(ConfigurationError, match="finite"):
                _sample_x0(rule, 3, s)

    def test_threshold_rules(self):
        from ssdopt.bench import _resolve_threshold

        obj = Objective(d=2, evaluator=lambda x: float(x @ x), minimum_value=0.0)
        assert _resolve_threshold(("absolute", 0.125), obj, np.ones(2)) == 0.125
        got = _resolve_threshold(("fraction", 0.25), obj, np.ones(2))
        assert got == pytest.approx(2.0 - 0.25 * 2.0)
        assert _resolve_threshold(None, obj, np.ones(2)) is None
        with pytest.raises(ConfigurationError):
            _resolve_threshold(("fraction", 0.0), obj, np.ones(2))
        with pytest.raises(ConfigurationError):
            _resolve_threshold(("fraction", 1.5), obj, np.ones(2))
        bare = Objective(d=2, evaluator=lambda x: float(x @ x))
        with pytest.raises(ConfigurationError, match="minimum"):
            _resolve_threshold(("fraction", 0.5), bare, np.ones(2))
        with pytest.raises(ConfigurationError, match="unknown threshold"):
            _resolve_threshold(("relative", 0.5), obj, np.ones(2))


def trace_of(fs, evals=None, status=None):
    evals = evals or [1 + 3 * i for i in range(len(fs))]
    entries = [
        TraceEntry(i, evals[i], float(f), 0.1 if i else 0.0, 1.0 if i else 0.0)
        for i, f in enumerate(fs)
    ]
    return RunTrace(entries, status)


class TestEvalsToThreshold:
    def test_first_crossing_stamp(self):
        t = trace_of([5.0, 3.0, 1.0], evals=[1, 4, 7])
        assert evals_to_threshold(t, 3.0) == 4
        assert evals_to_threshold(t, 4.9) == 4
        assert evals_to_threshold(t, 5.0) == 1

    def test_unreached_is_infinite(self):
        t = trace_of([5.0, 3.0, 1.0])
        assert evals_to_threshold(t, 0.5) == INF

    def test_counts_without_a_rule_use_each_solvers_own_target(self):
        from ssdopt.bench import _counts_to_threshold

        t = trace_of([5.0, 3.0, 1.0], evals=[1, 4, 7])
        records = [TraceRecord(name, 0, t) for name in ("a", "b", "c")]
        counts = _counts_to_threshold(records, None, targets={"a": 3.0, "b": None, "c": 0.5})
        assert counts == {"a": {0: 4.0}, "b": {0: INF}, "c": {0: INF}}
        ruled = _counts_to_threshold(records, ("absolute", 1.0), targets={"a": 3.0})
        assert ruled == {name: {0: 7.0} for name in "abc"}


class TestProfiles:
    def test_two_solver_worked_example(self):
        counts = {"a": {0: 100.0, 1: INF}, "b": {0: 200.0, 1: 50.0}}
        prof = profile_from_counts(counts)
        assert prof.ratios["a"] == {0: 1.0, 1: INF}
        assert prof.ratios["b"] == {0: 2.0, 1: 1.0}
        assert prof.curves["a"] == [(1.0, 0.5), (2.0, 0.5)]
        assert prof.curves["b"] == [(1.0, 0.5), (2.0, 1.0)]

    def test_single_solver_normalizes_per_trial(self):
        prof = profile_from_counts({"only": {0: 100.0, 1: 200.0}})
        assert prof.ratios["only"] == {0: 1.0, 1: 1.0}
        assert prof.curves["only"] == [(1.0, 1.0)]

    def test_all_failures_raise(self):
        with pytest.raises(NoSuccessError, match="threshold"):
            profile_from_counts({"a": {0: INF}, "b": {0: INF}})

    def test_empty_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            profile_from_counts({})

    def test_profile_over_records(self):
        records = run_experiment(small_experiment(threshold=("absolute", 1e-3)))
        prof = performance_profile(records, ("absolute", 1e-3))
        assert set(prof.curves) == {"ssd2", "ssd4"}
        for solver, curve in prof.curves.items():
            rhos = [r for _, r in curve]
            assert all(0.0 <= r <= 1.0 for r in rhos)
            assert rhos == sorted(rhos)

    def test_profile_fraction_rule_needs_fstar(self):
        records = run_experiment(small_experiment())
        with pytest.raises(ConfigurationError, match="minimum"):
            performance_profile(records, ("fraction", 0.9))
        prof = performance_profile(records, ("fraction", 0.9), fstar=0.0)
        assert set(prof.curves) == {"ssd2", "ssd4"}

    def test_profile_unreachable_names_threshold(self):
        records = run_experiment(small_experiment())
        with pytest.raises(NoSuccessError, match="absolute"):
            performance_profile(records, ("absolute", -1.0))


@given(
    data=st.data(),
    n_solvers=st.integers(min_value=1, max_value=4),
    n_trials=st.integers(min_value=1, max_value=6),
)
def test_profile_curves_are_distributions(data, n_solvers, n_trials):
    value = st.one_of(st.floats(min_value=1.0, max_value=1e6), st.just(INF))
    counts = {
        f"s{i}": {t: data.draw(value) for t in range(n_trials)}
        for i in range(n_solvers)
    }
    finite_anywhere = any(
        math.isfinite(v) for per in counts.values() for v in per.values()
    )
    if not finite_anywhere:
        with pytest.raises(NoSuccessError):
            profile_from_counts(counts)
        return
    prof = profile_from_counts(counts)
    for solver, per_trial in counts.items():
        curve = prof.curves[solver]
        taus = [t for t, _ in curve]
        rhos = [r for _, r in curve]
        assert taus == sorted(taus)
        assert all(t >= 1.0 for t in taus)
        assert rhos == sorted(rhos)
        assert all(0.0 <= r <= 1.0 for r in rhos)
        finite = [r for r in prof.ratios[solver].values() if math.isfinite(r)]
        if finite:
            assert min(finite) >= 1.0
        success = sum(1 for r in prof.ratios[solver].values() if math.isfinite(r))
        assert rhos[-1] == pytest.approx(success / n_trials)


class TestLinearRateFit:
    def test_exact_geometric_decay(self):
        t = trace_of([0.5**k for k in range(12)])
        rate, r2 = estimate_linear_rate(t, 0.0)
        assert rate == pytest.approx(0.5, abs=1e-12)
        assert r2 == pytest.approx(1.0)

    def test_flat_trace_has_unit_rate(self):
        t = trace_of([2.0] * 12)
        rate, r2 = estimate_linear_rate(t, 1.0)
        assert rate == pytest.approx(1.0)
        assert r2 == 1.0

    def test_noisy_decay_recovers_rate(self):
        gen = np.random.default_rng(23)
        fs = [0.7**k * math.exp(gen.uniform(-0.1, 0.1)) for k in range(60)]
        rate, _ = estimate_linear_rate(trace_of(fs), 0.0)
        assert abs(rate - 0.7) < 0.02

    def test_offset_is_subtracted(self):
        fstar = 3.0
        t = trace_of([fstar + 0.25**k for k in range(12)])
        rate, _ = estimate_linear_rate(t, fstar)
        assert rate == pytest.approx(0.25, abs=1e-12)

    def test_entries_at_or_below_fstar_are_dropped(self):
        fs = [0.5**k for k in range(12)] + [0.0, -1e-16]
        rate, _ = estimate_linear_rate(trace_of(fs), 0.0)
        assert rate == pytest.approx(0.5, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(ConfigurationError):
            estimate_linear_rate(trace_of([0.5**k for k in range(9)]), 0.0)
        # entries below fstar do not count toward the minimum
        fs = [0.5**k for k in range(9)] + [-1.0] * 5
        with pytest.raises(ConfigurationError):
            estimate_linear_rate(trace_of(fs), 0.0)


# One JSON trace with its trial, its single entry and its status filled in.
JSON_TRACE = ('{"traces": [{"solver": "a", "trial": %s, "entries": [%s], '
              '"terminal_status": %s}]}')


class TestTraceFiles:
    def records(self):
        awkward = [1.0, 1.0 / 3.0, 1e-17, 0.1 + 0.2]
        return [
            TraceRecord("ssd", 0, trace_of(awkward, status="max_iters")),
            TraceRecord("ssd", 1, trace_of([4.0, 2.0], status="target_reached")),
            TraceRecord("gd", 0, trace_of([4.0], status="budget_exhausted")),
        ]

    def assert_entries_equal(self, a, b):
        assert len(a) == len(b)
        for ea, eb in zip(a, b):
            assert (ea.iteration, ea.evals) == (eb.iteration, eb.evals)
            assert ea.f == eb.f  # bit-exact round trip
            assert ea.step == eb.step
            assert ea.dirnorm == eb.dirnorm

    def test_csv_round_trip_is_bit_exact(self, tmp_path):
        path = tmp_path / "traces.csv"
        export_traces(self.records(), path)
        back = import_traces(path)
        assert [(r.solver, r.trial) for r in back] == [("ssd", 0), ("ssd", 1), ("gd", 0)]
        for orig, got in zip(self.records(), back):
            self.assert_entries_equal(orig.trace.entries, got.trace.entries)
            assert got.trace.terminal_status is None  # csv drops it

    def test_json_round_trip_keeps_status(self, tmp_path):
        path = tmp_path / "traces.json"
        export_traces(self.records(), path)
        back = import_traces(path)
        for orig, got in zip(self.records(), back):
            self.assert_entries_equal(orig.trace.entries, got.trace.entries)
            assert got.trace.terminal_status == orig.trace.terminal_status

    def test_format_override_beats_suffix(self, tmp_path):
        path = tmp_path / "traces.dat"
        export_traces(self.records(), path, fmt="json")
        back = import_traces(path, fmt="json")
        assert back[0].trace.terminal_status == "max_iters"

    def test_csv_layout(self, tmp_path):
        path = tmp_path / "t.csv"
        export_traces([TraceRecord("s", 0, trace_of([3.0, 2.0, 1.0]))], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "solver,trial,iter,evals,f,step,dirnorm"
        assert len(lines) == 4
        assert lines[1].split(",")[:2] == ["s", "0"]

    def test_empty_export_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        export_traces([], path)
        assert path.read_bytes() == b"solver,trial,iter,evals,f,step,dirnorm\r\n"
        assert import_traces(path) == []

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigurationError):
            export_traces(self.records(), tmp_path / "t.xml")
        export_traces(self.records(), tmp_path / "t.csv")
        with pytest.raises(ConfigurationError):
            import_traces(tmp_path / "t.csv", fmt="parquet")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="does not exist"):
            import_traces(tmp_path / "nothing.csv")

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("solver,trial,iteration\n")
        with pytest.raises(ConfigurationError, match="header"):
            import_traces(path)

    @pytest.mark.parametrize(
        "name,text",
        [
            ("bad.csv", "ssd,0,1\n"),
            ("bad.csv", "ssd,0,1,2,abc,0.0,0.0\n"),
            ("bad.json", '[{"solver": "a", "tr'),
            ("bad.json", '[{"solver": "a", "trial": 0}]'),
            ("bad.json", '{"traces": [{"solver": "a", "trial": 0}]}'),
            ("bad.json", JSON_TRACE % ("1.5", "[0, 1, 0.5, 0.0, 0.0]", '"max_iters"')),
            ("bad.json", JSON_TRACE % ("1", "[0.5, 1, 0.5, 0.0, 0.0]", '"max_iters"')),
            ("bad.json", JSON_TRACE % ("1", "[0, 1.5, 0.5, 0.0, 0.0]", '"max_iters"')),
            ("bad.json", JSON_TRACE % ("1", "[0, 1, 0.5, 0.0, 0.0, 7]", '"max_iters"')),
            ("bad.json", JSON_TRACE % ("1", "[0, 1, 0.5, 0.0, 0.0]", "5")),
        ],
        ids=["short", "non-numeric", "json-truncated", "json-no-traces-key", "json-no-entries",
             "json-fractional-trial", "json-fractional-iteration", "json-fractional-evals",
             "json-six-fields", "json-numeric-status"],
    )
    def test_malformed_row_names_file_and_line(self, tmp_path, name, text):
        # A CSV row is appended to a good export and named by its line; a
        # JSON file is named as a whole.
        path = tmp_path / name
        if name.endswith(".csv"):
            export_traces(self.records(), path)
            text = path.read_text() + text
            where = rf"bad\.csv at line {len(text.splitlines())}$"
        else:
            where = r"malformed JSON trace file .*bad\.json: "
        path.write_text(text)
        with pytest.raises(ConfigurationError, match=where):
            import_traces(path)

    @pytest.mark.parametrize("name", ["traces.csv", "traces.json"])
    def test_read_back_trace_has_no_charged_count(self, tmp_path, name):
        records = run_experiment(small_experiment(trials=1))
        assert all(r.trace.charged >= r.trace.final.evals for r in records)
        export_traces(records, tmp_path / name)
        assert [r.trace.charged for r in import_traces(tmp_path / name)] == [None, None]
