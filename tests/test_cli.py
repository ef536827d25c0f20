"""End-to-end command line checks, each in a fresh working directory."""

import json
import os
import re
import subprocess
import sys

import pytest

from conftest import child_env
from ssdopt import TraceRecord, export_traces, import_traces
from ssdopt.ssd import RunTrace, TraceEntry

SMOKE = [
    "run", "--problem", "nesterov:l=8,r=10,d=101", "--solver", "ssd",
    "--ell", "3", "--step", "armijo", "--budget", "20000", "--seed", "7",
]


# Inputs that once ran silently, ended in a traceback or printed argparse
# usage; each must exit 2 with a single error line.
REJECTED_RUNS = [
    ["run", "--problem", "quadratic:d=4", "--solver", "ssd", "--m", "5", "--eta", "7",
     "--option", "9"],
    ["run", "--problem", "quadratic:d=4", "--solver", "gd", "--warmup", "1"],
    ["run", "--problem", "quadratic:d=4", "--out", os.path.join("no-such-dir", "x.csv")],
    ["run", "--problem", "quadratic:d=4", "--x0", "uniform:-inf,inf"],
    ["run", "--problem", "quadratic:d=4", "--x0", "uniform:-1e308,1e308"],
    ["run", "--problem", "quadratic:d=4", "--x0", "gaussian:inf"],
    ["run", "--problem", "nesterov:l=nan,r=2,d=4"],
    ["run", "--problem", "nesterov:l=inf,r=2,d=4"],
    ["run", "--problem", "quadratic:d=4", "--target", "nan"],
    ["run", "--problem", "quadratic:d=4", "--seed", "x"],
    ["run", "--problem", "quadratic:d=4", "--ell", "x"],
    ["sweep", "s.ini", "--jobs", "x"],
    ["run", "--problem", "quadratic:d=4", "--step", "fixed:inf"],
    ["run", "--problem", "quadratic:d=4", "--step", "armijo:alpha_init=inf"],
    ["run", "--problem", "quadratic:d=4", "--fd-step", "inf"],
]


def cli(args, cwd, env_extra=None):
    return subprocess.run(
        [sys.executable, "-m", "ssdopt", *args],
        cwd=cwd, env=child_env(env_extra), capture_output=True, text=True,
        timeout=300,
    )


def trace_of(fs, evals):
    entries = [
        TraceEntry(i, evals[i], float(f), 0.1 if i else 0.0, 1.0 if i else 0.0)
        for i, f in enumerate(fs)
    ]
    return RunTrace(entries, "max_iters")


class TestRun:
    def test_smoke(self, tmp_path):
        res = cli(SMOKE, tmp_path)
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "trace.csv").exists()
        out = res.stdout
        assert out.startswith("[run]\n")
        for line in (
            "problem = nesterov:d=101,l=8,r=10",  # params print sorted
            "solver = ssd",
            "seed = 7",
            "ell = 3",
            "sketch = haar",
            "fd = forward",
            "fd-step = auto",
            "budget = 20000",
            "step = armijo:c1=0.0001,shrink=0.5,alpha_init=1.0,max_backtracks=30",
            "target = none",
            "trace written to trace.csv",
        ):
            assert line in out, line
        assert re.search(r"^status = \w+$", out, re.M)
        assert re.search(r"^f = -?[\d.e+-]+$", out, re.M)
        assert re.search(r"^evals = \d+$", out, re.M)

    def test_budget_stop_is_reported(self, tmp_path):
        # fixed step never bails out of a line search, so the budget is the
        # binding stop here
        res = cli(SMOKE + ["--iters", "100000", "--step", "fixed:0.001"], tmp_path)
        assert res.returncode == 0
        assert "status = budget_exhausted" in res.stdout
        evals = int(re.search(r"^evals = (\d+)$", res.stdout, re.M).group(1))
        assert evals <= 20000

    def test_diverging_run_reports_evaluation_failure(self, tmp_path):
        res = cli(["run", "--problem", "quadratic:d=4", "--step", "fixed:1e10",
                   "--x0", "gaussian:1"], tmp_path)
        assert res.returncode == 0, res.stderr
        assert "status = evaluation_failed" in res.stdout
        assert "Traceback" not in res.stderr

    def test_rerun_is_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        ra = cli(SMOKE, a)
        rb = cli(SMOKE, b)
        assert ra.stdout == rb.stdout
        assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()

    def test_seed_environment_fallback(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        base = ["run", "--problem", "quadratic:d=8", "--ell", "2", "--x0", "gaussian:1.0"]
        ra = cli(base, a, env_extra={"SSD_SEED": "5"})
        rb = cli(base + ["--seed", "5"], b)
        assert ra.returncode == rb.returncode == 0
        assert "seed = 5" in ra.stdout
        assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()

    def test_seed_defaults_to_zero(self, tmp_path):
        res = cli(["run", "--problem", "quadratic:d=4"], tmp_path)
        assert res.returncode == 0
        assert "seed = 0" in res.stdout

    def test_json_output(self, tmp_path):
        res = cli(
            ["run", "--problem", "quadratic:d=6", "--ell", "2",
             "--iters", "20", "--out", "t.json"],
            tmp_path,
        )
        assert res.returncode == 0
        assert "format = json" in res.stdout
        payload = json.loads((tmp_path / "t.json").read_text())
        assert payload  # structured, not csv
        back = import_traces(tmp_path / "t.json")
        assert back[0].trace.terminal_status is not None

    def test_vrssd_flags_resolve_aliases(self, tmp_path):
        res = cli(
            ["run", "--problem", "quadratic:d=10", "--solver", "vrssd",
             "--ell", "2", "--m", "4", "--option", "2", "--eta", "1",
             "--warmup", "2", "--step", "fixed:0.05", "--iters", "12"],
            tmp_path,
        )
        assert res.returncode == 0, res.stderr
        for line in ("option = two", "eta = one", "m = 4", "warmup = 2"):
            assert line in res.stdout, line

    @pytest.mark.parametrize(
        "args",
        [
            ["run", "--problem", "quadratic:d=4", "--ell", "0"],
            ["run", "--problem", "rosenbrock:d=2"],
            ["run", "--problem", "quadratic:d"],
            ["run", "--problem", "quadratic:d=4", "--step", "newton"],
            ["run", "--problem", "quadratic:d=4", "--step", "armijo:c7=1"],
            ["run", "--problem", "quadratic:d=4", "--x0", "sphere"],
            ["run", "--problem", "quadratic:d=4", "--solver", "vrssd", "--eta", "2"],
            ["run", "--problem", "quadratic:d=4", "--no-such-flag"],
            ["run"],
            ["orbit"],
            ["run", "--problem", "quadratic:d=4", "--x0", "uniform:a,b"],
            ["run", "--problem", "quadratic:d=4.5"],
            ["run", "--problem", "quadratic:d=4", "--step", "armijo:max_backtracks=2.5"],
            ["run", "--problem", "lstsq:m=5,d=5,seed=-1"],
            *REJECTED_RUNS,
        ],
    )
    def test_usage_errors_exit_two(self, tmp_path, args):
        res = cli(args, tmp_path)
        assert res.returncode == 2
        assert res.stderr

    @pytest.mark.parametrize("args", REJECTED_RUNS)
    def test_rejection_is_one_error_line(self, tmp_path, args):
        res = cli(args, tmp_path)
        assert res.returncode == 2
        assert res.stderr.startswith("error: ")
        assert res.stderr.count("\n") == 1

    def test_unknown_out_suffix_is_refused_before_the_run(self, tmp_path):
        res = cli(["run", "--problem", "quadratic:d=4", "--out", "t.txt"], tmp_path)
        assert res.returncode == 2
        assert res.stderr == "error: unknown trace format 'txt'; expected csv or json\n"
        assert res.stdout == ""
        assert list(tmp_path.iterdir()) == []

    def test_x0_prints_in_its_parsed_form(self, tmp_path):
        res = cli(["run", "--problem", "quadratic:d=4", "--x0", "uniform:-1,2"], tmp_path)
        assert res.returncode == 0, res.stderr
        assert "x0 = uniform:-1.0,2.0\n" in res.stdout

    @pytest.mark.parametrize("x0", ["bogus", "uniform:-inf,inf"])
    def test_bad_x0_is_refused_before_the_run_block(self, tmp_path, x0):
        res = cli(["run", "--problem", "quadratic:d=4", "--x0", x0], tmp_path)
        assert res.returncode == 2
        assert res.stderr.startswith("error: ")
        assert res.stdout == ""

    def test_non_integer_seed_environment_exits_two(self, tmp_path):
        res = cli(["run", "--problem", "quadratic:d=4"], tmp_path, env_extra={"SSD_SEED": "abc"})
        assert res.returncode == 2
        assert res.stderr == "error: SSD_SEED must be an integer, got 'abc'\n"


SWEEP_INI = """\
[experiment]
problem = quadratic:d=6
trials = 3
x0 = gaussian:2.0
threshold = absolute:1e-3
seed = 5

[solver ssd2]
kind = ssd
ell = 2
iters = 40

[solver gd]
kind = gd
iters = 40
"""


class TestSweep:
    def write(self, tmp_path, text=SWEEP_INI):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(text)
        return cfg

    def test_end_to_end(self, tmp_path):
        self.write(tmp_path)
        res = cli(["sweep", "sweep.ini", "--out", "results"], tmp_path)
        assert res.returncode == 0, res.stderr
        out = res.stdout
        assert "[experiment]" in out
        assert "[solver ssd2]" in out
        assert "[solver gd]" in out
        assert "[summary]" in out
        assert "solver trials success median_evals" in out
        assert re.search(r"^ssd2 3 [01]\.\d{3} \S+$", out, re.M)
        assert re.search(r"^gd 3 [01]\.\d{3} \S+$", out, re.M)
        trace_path = tmp_path / "results" / "traces.csv"
        assert f"traces written to {os.path.join('results', 'traces.csv')}" in out
        records = import_traces(trace_path)
        assert [(r.solver, r.trial) for r in records] == [
            ("ssd2", 0), ("ssd2", 1), ("ssd2", 2), ("gd", 0), ("gd", 1), ("gd", 2),
        ]

    def test_diverging_solver_keeps_the_other_rows(self, tmp_path):
        self.write(tmp_path, SWEEP_INI + "\n[solver wild]\nkind = ssd\nstep = fixed:1e10\n")
        res = cli(["sweep", "sweep.ini", "--out", "wild"], tmp_path)
        assert res.returncode == 0, res.stderr
        assert re.search(r"^wild 3 0\.000 -$", res.stdout, re.M)
        self.write(tmp_path)
        cli(["sweep", "sweep.ini", "--out", "tame"], tmp_path)
        wild = import_traces(tmp_path / "wild" / "traces.csv")
        tame = import_traces(tmp_path / "tame" / "traces.csv")
        assert [r for r in wild if r.solver != "wild"] == tame
        assert [r.trial for r in wild if r.solver == "wild"] == [0, 1, 2]

    def test_parallel_jobs_are_byte_identical(self, tmp_path):
        self.write(tmp_path)
        r1 = cli(["sweep", "sweep.ini", "--out", "one"], tmp_path)
        r2 = cli(["sweep", "sweep.ini", "--out", "two", "--jobs", "2"], tmp_path)
        assert r1.returncode == r2.returncode == 0
        assert (tmp_path / "one" / "traces.csv").read_bytes() == (
            tmp_path / "two" / "traces.csv"
        ).read_bytes()

    def test_unknown_solver_key_reports_line(self, tmp_path):
        bad = SWEEP_INI + "alpha = 0.5\n"
        self.write(tmp_path, bad)
        res = cli(["sweep", "sweep.ini"], tmp_path)
        assert res.returncode == 2
        lineno = bad.splitlines().index("alpha = 0.5") + 1
        assert f"(line {lineno})" in res.stderr
        assert "alpha" in res.stderr

    def test_unknown_experiment_key_reports_line(self, tmp_path):
        self.write(tmp_path, SWEEP_INI.replace("seed = 5", "sed = 5"))
        res = cli(["sweep", "sweep.ini"], tmp_path)
        assert res.returncode == 2
        assert "'sed' (line 6)" in res.stderr

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("not an ini file at all\n", "malformed config"),
            ("[solver s]\nkind = ssd\n", "missing the [experiment]"),
            ("[experiment]\nproblem = quadratic:d=4\ntrials = 2\n", "no solvers"),
            ("[experiment]\ntrials = 2\n\n[solver s]\n", "needs a problem"),
            ("[experiment]\nproblem = quadratic:d=4\n\n[solver s]\n", "trial count"),
            (
                "[experiment]\nproblem = quadratic:d=4\ntrials = 2\n\n[extras]\n",
                "unexpected section",
            ),
            (
                "[experiment]\nproblem = quadratic:d=4\ntrials = 2\n\n[solver s]\nkind = adam\n",
                "unknown solver kind",
            ),
            (
                "[experiment]\nproblem = quadratic:d=4\ntrials = abc\n\n[solver s]\n",
                "trials must be an integer",
            ),
            (
                "[experiment]\nproblem = quadratic:d=4\ntrials = 2\nseed = x\n\n[solver s]\n",
                "seed must be an integer",
            ),
            (
                "[experiment]\nproblem = quadratic:d=4\ntrials = 2\n\n[solver s]\nell = x\n",
                "ell must be an integer",
            ),
            (
                "[experiment]\nproblem = quadratic:d=4\ntrials = 2\n\n[solver s]\nkind = ssd\nm = 5\n",
                "key 'm' in [solver s] (line 7) does not apply to kind 'ssd'",
            ),
            (
                "[experiment]\nproblem = quadratic:d=4\ntrials = 2\n\n[solver s]\nkind = gd\nwarmup = 2\n",
                "key 'warmup' in [solver s] (line 7) does not apply to kind 'gd'",
            ),
            (
                "[experiment]\nproblem = quadratic:d=4\ntrials = 2\n\n[solver s]\nkind = bfgs\neta = 1\n",
                "key 'eta' in [solver s] (line 7) does not apply to kind 'bfgs'",
            ),
            (
                "[experiment]\nproblem = quadratic:d=4\ntrials = 2\n\n[solver s]\noption = two\n",
                "key 'option' in [solver s] (line 6) does not apply to kind 'ssd'",
            ),
        ],
    )
    def test_config_errors(self, tmp_path, text, fragment):
        self.write(tmp_path, text)
        res = cli(["sweep", "sweep.ini"], tmp_path)
        assert res.returncode == 2
        assert fragment in res.stderr

    def test_jobs_must_be_positive(self, tmp_path):
        self.write(tmp_path)
        res = cli(["sweep", "sweep.ini", "--jobs", "0"], tmp_path)
        assert res.returncode == 2
        assert res.stderr == "error: --jobs must be at least 1, got 0\n"

    def test_unwritable_out_exits_two(self, tmp_path):
        self.write(tmp_path)
        (tmp_path / "blocker").write_text("a file, not a directory\n")
        res = cli(["sweep", "sweep.ini", "--out", os.path.join("blocker", "sub")], tmp_path)
        assert res.returncode == 2
        path = os.path.join("blocker", "sub", "traces.csv")
        assert res.stderr.startswith(f"error: cannot write {path}: ")
        assert res.stderr.count("\n") == 1

    def test_missing_config_file(self, tmp_path):
        res = cli(["sweep", "nothing.ini"], tmp_path)
        assert res.returncode == 2
        assert "cannot read config file" in res.stderr


class TestProfile:
    def seed_traces(self, tmp_path):
        records = [
            TraceRecord("a", 0, trace_of([10.0, 0.5], [1, 100])),
            TraceRecord("a", 1, trace_of([10.0, 5.0], [1, 50])),
            TraceRecord("b", 0, trace_of([10.0, 0.5], [1, 200])),
            TraceRecord("b", 1, trace_of([10.0, 0.5], [1, 50])),
        ]
        export_traces(records, tmp_path / "traces.csv")

    def test_worked_example(self, tmp_path):
        self.seed_traces(tmp_path)
        res = cli(
            ["profile", "--traces", "traces.csv", "--target", "1.0", "--out", "prof.csv"],
            tmp_path,
        )
        assert res.returncode == 0, res.stderr
        body = "solver,tau,rho\na,1.0,0.5\na,2.0,0.5\nb,1.0,0.5\nb,2.0,1.0\n"
        assert (tmp_path / "prof.csv").read_text() == body
        assert body.strip() in res.stdout.replace("\r\n", "\n")
        assert "profile written to prof.csv" in res.stdout

    def test_single_trace_profile(self, tmp_path):
        cli(["run", "--problem", "quadratic:d=6", "--ell", "2", "--iters", "80",
             "--target", "1e-6", "--x0", "gaussian:1.0"], tmp_path)
        res = cli(
            ["profile", "--traces", "trace.csv", "--target", "1e-6", "--out", "p.csv"],
            tmp_path,
        )
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "p.csv").read_text() == "solver,tau,rho\nssd,1.0,1.0\n"

    def test_fraction_rule(self, tmp_path):
        self.seed_traces(tmp_path)
        res = cli(
            ["profile", "--traces", "traces.csv", "--fraction", "0.9",
             "--fstar", "0.0", "--out", "p.csv"],
            tmp_path,
        )
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "p.csv").read_text().startswith("solver,tau,rho\n")

    def test_unreachable_target_exits_one(self, tmp_path):
        self.seed_traces(tmp_path)
        res = cli(["profile", "--traces", "traces.csv", "--target", "-1.0"], tmp_path)
        assert res.returncode == 1
        assert "no run reached the threshold" in res.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ["profile", "--traces", "traces.csv"],
            ["profile", "--traces", "traces.csv", "--target", "1.0", "--fraction", "0.5"],
            ["profile", "--traces", "traces.csv", "--fraction", "0.5"],
        ],
    )
    def test_threshold_flag_validation(self, tmp_path, args):
        self.seed_traces(tmp_path)
        res = cli(args, tmp_path)
        assert res.returncode == 2
        assert "error:" in res.stderr

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--target", "x"], "--target must be a number, got 'x'"),
            (["--fraction", "x", "--fstar", "0"], "--fraction must be a number, got 'x'"),
            (["--fraction", "0.5", "--fstar", "x"], "--fstar must be a number, got 'x'"),
            (["--target", "nan"], "--target must be a number, got nan"),
            (["--fraction", "0.5", "--fstar", "inf"], "--fstar must be finite, got inf"),
            (["--fraction", "0.5", "--fstar", "nan"], "--fstar must be finite, got nan"),
        ],
        ids=["target-x", "fraction-x", "fstar-x", "target-nan", "fstar-inf", "fstar-nan"],
    )
    def test_bad_number_is_one_error_line(self, tmp_path, flags, message):
        self.seed_traces(tmp_path)
        res = cli(["profile", "--traces", "traces.csv", *flags], tmp_path)
        assert res.returncode == 2
        assert res.stderr == f"error: {message}\n"

    def test_truncated_trace_row_exits_two(self, tmp_path):
        self.seed_traces(tmp_path)
        with open(tmp_path / "traces.csv", "a") as fh:
            fh.write("b,1,2\n")
        res = cli(["profile", "--traces", "traces.csv", "--target", "1.0"], tmp_path)
        assert res.returncode == 2
        assert res.stderr == "error: malformed trace row ['b', '1', '2'] in traces.csv at line 10\n"

    def test_truncated_json_trace_exits_two(self, tmp_path):
        (tmp_path / "traces.json").write_text('[{"solver": "a", "tr')
        res = cli(["profile", "--traces", "traces.json", "--target", "1.0"], tmp_path)
        assert res.returncode == 2
        assert res.stderr.startswith("error: malformed JSON trace file traces.json: ")
        assert res.stderr.count("\n") == 1

    def test_unwritable_out_exits_two(self, tmp_path):
        self.seed_traces(tmp_path)
        out = os.path.join("no-such-dir", "p.csv")
        res = cli(["profile", "--traces", "traces.csv", "--target", "1.0", "--out", out], tmp_path)
        assert res.returncode == 2
        assert res.stderr.startswith(f"error: cannot write {out}: ")
        assert res.stderr.count("\n") == 1

    def test_missing_trace_file(self, tmp_path):
        res = cli(["profile", "--traces", "gone.csv", "--target", "1.0"], tmp_path)
        assert res.returncode == 2
        assert "does not exist" in res.stderr


def test_version_flag(tmp_path):
    res = cli(["--version"], tmp_path)
    assert res.returncode == 0
    assert res.stdout.startswith("ssdopt ")
