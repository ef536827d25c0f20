"""End-to-end command line checks, each in a fresh working directory."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import child_env
from ssdopt import Objective, TraceRecord, export_traces, import_traces
from ssdopt.bench import RUNNERS, ProblemSpec
from ssdopt.cli import (
    _OPTIONS, _PROBLEM_FORMS, _STEP_FORMS, _THRESHOLD_FORMS, _X0_FORMS, main,
)
from ssdopt.sketch import DISTRIBUTIONS
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
    ["run", "--problem", "quadratic:d=4", "--solver", "gd", "--sketch", "gaussian",
     "--iters", "3"],
    ["run", "--problem", "quadratic:d=4", "--solver", "gd", "--ell", "9"],
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
    ["run", "--problem", "quadratic:d=4", "--no-such-flag"],
    ["run"],
    ["run", "--problem", "quadratic:d=4", "--solver", "adam"],
    ["orbit"],
    ["run", "--problem", "quadratic:d=1e308"],
    ["run", "--problem", "lstsq:m=1e308,d=3"],
    ["run", "--problem", f"nesterov:l=8,r=10,d={2**63}"],
]


def cli(args, cwd, env_extra=None):
    return subprocess.run(
        [sys.executable, "-m", "ssdopt", *args],
        cwd=cwd, env=child_env(env_extra), capture_output=True, text=True,
        timeout=300,
    )


def main_io(args):
    """``main`` run in this process: (exit code, stdout, stderr).  An
    exception that escapes ``main`` fails the calling test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in args])
    return code, out.getvalue(), err.getvalue()


def assert_one_error_line(result, fragment):
    code, _, err = result
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert fragment in err


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
                "[experiment]\nproblem = quadratic:d=4\ntrials = 2\n\n[solver s]\nkind = gd\nell = 3\n",
                "key 'ell' in [solver s] (line 7) does not apply to kind 'gd'",
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


# ---------------------------------------------------------------------------
# inputs checked in-process


CSV_HEADER = b"solver,trial,iter,evals,f,step,dirnorm\n"


def seed_traces(tmp_path):
    TestProfile().seed_traces(tmp_path)
    return tmp_path / "traces.csv"


@pytest.mark.parametrize(
    "command,flag,value",
    [("run", "--target", "-1e-3"), ("run", "--target", "-inf"), ("profile", "--fstar", "-1e3")],
)
def test_negative_number_after_a_flag_reads_as_its_equals_form(tmp_path, command, flag, value):
    # argparse reads a word that starts with '-' as a value only in the
    # forms -1 and -0.5.
    base = {
        "run": ["run", "--problem", "quadratic:d=4", "--iters", "3", "--seed", "0",
                "--out", tmp_path / "t.csv"],
        "profile": ["profile", "--traces", seed_traces(tmp_path), "--fraction", "0.5",
                    "--out", tmp_path / "p.csv"],
    }[command]
    spaced = main_io([*base, flag, value])
    assert spaced == main_io([*base, f"{flag}={value}"])
    assert spaced[0] != 2, spaced[2]


class TestUnreadableInput:
    def test_trace_path_is_a_directory(self, tmp_path):
        assert_one_error_line(
            main_io(["profile", "--traces", tmp_path, "--target", "1.0"]), "cannot read trace file")

    def test_csv_trace_row_is_not_utf8(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(CSV_HEADER + b"a,0,0,1,1.0,0.0,0.0\n\xff,0,1,2,0.5,0.1,1.0\n")
        assert_one_error_line(
            main_io(["profile", "--traces", path, "--target", "1.0"]), "malformed trace file")

    def test_sweep_config_is_not_utf8(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_bytes(b"[experiment]\nproblem = quadratic:d=4\n\xff\n")
        assert_one_error_line(main_io(["sweep", path]), "cannot read config file")

    def test_trace_count_of_zero_evaluations(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(CSV_HEADER + b"a,0,0,0,0.1,0.0,0.0\n")
        assert_one_error_line(
            main_io(["profile", "--traces", path, "--target", "0.5"]), "must be positive")

    def test_json_solver_name_is_not_a_string(self, tmp_path):
        path = tmp_path / "t.json"
        item = {"trial": 0, "terminal_status": None, "entries": [[0, 1, 0.1, 0.0, 0.0]]}
        path.write_text(json.dumps({"traces": [dict(item, solver=1), dict(item, solver="a")]}))
        assert_one_error_line(
            main_io(["profile", "--traces", path, "--target", "0.5"]), "is not a string")

    def test_config_parse_error_is_one_line(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text("[experiment]\nproblem\n")
        assert_one_error_line(main_io(["sweep", path]), "malformed config file")


class TestOutputCheckedFirst:
    def test_run_into_a_missing_directory(self, tmp_path):
        out = tmp_path / "no-such-dir" / "x.csv"
        result = main_io(["run", "--problem", "quadratic:d=4", "--out", out])
        assert_one_error_line(result, f"cannot write {out}")
        assert result[1] == ""

    def test_sweep_into_an_existing_file(self, tmp_path):
        (tmp_path / "sweep.ini").write_text(SWEEP_INI)
        (tmp_path / "F").write_text("")
        result = main_io(["sweep", tmp_path / "sweep.ini", "--out", tmp_path / "F"])
        assert_one_error_line(result, "File exists")
        assert result[1] == ""

    def test_refused_run_leaves_the_output_as_it_was(self, tmp_path):
        # bfgs refuses a fixed step in the config check, before anything is written.
        refused = ["run", "--problem", "quadratic:d=4", "--solver", "bfgs", "--step", "fixed:0.1"]
        assert_one_error_line(main_io([*refused, "--out", tmp_path / "new.csv"]), "armijo")
        assert not (tmp_path / "new.csv").exists()
        (tmp_path / "old.csv").write_text("kept\n")
        assert_one_error_line(main_io([*refused, "--out", tmp_path / "old.csv"]), "armijo")
        assert (tmp_path / "old.csv").read_text() == "kept\n"

    @pytest.mark.parametrize("out", [os.path.join("no-such-dir", "p.csv"), ""],
                             ids=["missing-directory", "existing-directory"])
    def test_profile_into_an_unwritable_path(self, tmp_path, out):
        argv = ["profile", "--traces", seed_traces(tmp_path), "--target", "1.0",
                "--out", os.path.join(tmp_path, out)]
        assert_refused_up_front(tmp_path, argv)


# Prefixes that carry random bytes past the first checks of each reader.
FUZZ_PREFIXES = {
    ".csv": [b"", CSV_HEADER, CSV_HEADER + b"a,0,0,1,1.0,0.0,0.0\n"],
    ".json": [b"", b'{"traces": [{"solver": "a", "trial": 0, "terminal_status": null, '
                   b'"entries": [[0, 1, '],
    ".ini": [b"", b"[experiment]\n",
             b"[experiment]\nproblem = quadratic:d=2\ntrials = 1\n\n[solver s]\niters = 3\n"],
}


@settings(max_examples=150)
@given(suffix=st.sampled_from(sorted(FUZZ_PREFIXES)), data=st.data())
def test_random_input_files_never_escape_main(suffix, data):
    content = data.draw(st.sampled_from(FUZZ_PREFIXES[suffix])) + data.draw(st.binary(max_size=64))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input" + suffix)
        with open(path, "wb") as fh:
            fh.write(content)
        if suffix == ".ini":
            args = ["sweep", path, "--out", os.path.join(tmp, "out")]
        else:
            args = ["profile", "--traces", path, "--target", "0.5",
                    "--out", os.path.join(tmp, "p.csv")]
        code, _, err = main_io(args)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err


# ---------------------------------------------------------------------------
# refusals that come before any output or evaluation


@contextlib.contextmanager
def counted_evaluations():
    """A list that gains one item per ``Objective.evaluate`` call made in
    this process while the block runs."""
    calls = []
    evaluate = Objective.evaluate

    def counted(obj, x):
        calls.append(1)
        return evaluate(obj, x)

    Objective.evaluate = counted
    try:
        yield calls
    finally:
        Objective.evaluate = evaluate


def assert_refused_up_front(tmp, argv):
    """``argv`` exits 2 with one error line, prints nothing, evaluates
    nothing and writes nothing under ``tmp``."""
    before = sorted(os.listdir(tmp))
    with counted_evaluations() as calls:
        code, out, err = main_io(argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert out == ""
    assert calls == []
    assert sorted(os.listdir(tmp)) == before


# Each of these once ran the earlier sections' trials or printed the
# resolved configuration before it exited 2.
SWEEP_FIRST = "[experiment]\nproblem = quadratic:d=4\ntrials = 2\n\n[solver a]\nell = 2\n\n"
REFUSED_UP_FRONT = {
    "sweep-bfgs-fixed-step": ("sweep", SWEEP_FIRST + "[solver b]\nkind = bfgs\nstep = fixed:0.1\n"),
    "sweep-ell-above-d": ("sweep", SWEEP_FIRST + "[solver b]\nell = 9\n"),
    "sweep-vrssd-m-0": ("sweep", SWEEP_FIRST + "[solver b]\nkind = vrssd\nm = 0\n"),
    "sweep-gd-iters-0": ("sweep", SWEEP_FIRST + "[solver b]\nkind = gd\niters = 0\n"),
    "sweep-bfgs-sketch": ("sweep", SWEEP_FIRST + "[solver b]\nkind = bfgs\nsketch = gaussian\n"),
    "sweep-trials-0": ("sweep", SWEEP_FIRST.replace("trials = 2", "trials = 0")),
    "sweep-x0-empty-range": (
        "sweep", SWEEP_FIRST.replace("trials = 2", "trials = 2\nx0 = uniform:2,1")),
    "sweep-fraction-above-1": (
        "sweep", SWEEP_FIRST.replace("trials = 2", "trials = 2\nthreshold = fraction:1.5")),
    "run-fd-step-nan": ("run", ["--fd-step", "nan"]),
    "run-fixed-step-nan": ("run", ["--step", "fixed:nan"]),
    "run-gd-ell-above-d": ("run", ["--solver", "gd", "--ell", "9"]),
    "run-bfgs-theory": ("run", ["--solver", "bfgs", "--step", "theory"]),
    "run-vrssd-m-0": ("run", ["--solver", "vrssd", "--m", "0"]),
    "profile-missing-traces": ("profile", ["missing.csv", "--target", "1.0"]),
    "profile-fraction-above-1": ("profile", ["traces.csv", "--fraction", "2", "--fstar", "0"]),
    "run-lstsq-m-1e308": ("run", ["--problem", "lstsq:m=1e308,d=3"]),
    "sweep-quadratic-d-1e308": ("sweep", SWEEP_FIRST.replace("d=4", "d=1e308")),
}


BUILD_SWEEP = ("[experiment]\nproblem = lstsq:m=60,d=200\ntrials = 2\n\n"
               "[solver a]\nell = 2\niters = 3\n\n[solver b]\nkind = gd\niters = 3\n")


@pytest.mark.parametrize("command, builds", [("sweep", 5), ("run", 2)])
def test_problem_builds_per_command(tmp_path, monkeypatch, command, builds):
    """The spec builds its problem once when it is made, and each run once
    more; the sweep summary reads the minimum value the spec kept: 1 + 4
    builds for two solvers and two trials, 1 + 1 for run."""
    calls = []
    build = ProblemSpec.build
    monkeypatch.setattr(ProblemSpec, "build", lambda spec: calls.append(spec) or build(spec))
    if command == "sweep":
        (tmp_path / "s.ini").write_text(BUILD_SWEEP)
        argv = ["sweep", tmp_path / "s.ini", "--out", tmp_path / "out"]
    else:
        argv = ["run", "--problem", "lstsq:m=60,d=200", "--iters", "3", "--out", tmp_path / "t.csv"]
    code, _, err = main_io(argv)
    assert code == 0, err
    assert len(calls) == builds


@pytest.mark.parametrize("case", sorted(REFUSED_UP_FRONT))
def test_refusal_comes_before_any_output_or_evaluation(tmp_path, case):
    command, detail = REFUSED_UP_FRONT[case]
    if command == "sweep":
        (tmp_path / "s.ini").write_text(detail)
        argv = ["sweep", tmp_path / "s.ini", "--out", tmp_path / "out"]
    elif command == "run":
        argv = ["run", "--problem", "quadratic:d=4", *detail, "--out", tmp_path / "t.csv"]
    else:
        seed_traces(tmp_path)
        argv = ["profile", "--traces", tmp_path / detail[0], *detail[1:], "--out", tmp_path / "p.csv"]
    assert_refused_up_front(tmp_path, argv)


# ---------------------------------------------------------------------------
# argv fuzz: command lines built from the option table and the spec grammar

# Texts that no count or size accepts.  1e308 is above numpy's largest
# array dimension, so no allocator is asked for it; sizes an allocator
# could grant are left out.
JUNK = st.sampled_from(["x", "", "1.5", "nan", "-inf", "-1", "0", "1e308"])


def mostly(valid, junk=JUNK):
    """Texts from ``valid``, and about one in twelve from ``junk``."""
    return st.integers(0, 11).flatmap(lambda i: junk if i == 5 else valid)


def counts(lo, hi):
    return mostly(st.integers(lo, hi).map(str))


# Positive numbers, plus floats of every kind now and then.
NUMBERS = mostly(st.floats(1e-4, 10.0).map(repr), junk=st.floats(width=32).map(repr))
# Dimensions, iterations, budgets and trials stay small, so no case
# allocates much memory or runs for long.
PROBLEM_VALUES = {"d": counts(1, 8), "m": counts(1, 8), "r": counts(1, 8),
                  "rank": counts(1, 8), "seed": counts(0, 3), "l": NUMBERS}


@st.composite
def spec_texts(draw, forms, values=lambda key: NUMBERS):
    """A spec string in one of ``forms``: its positional numbers, or most of
    its keywords."""
    name = draw(st.sampled_from(sorted(forms)))
    form = forms[name]
    if isinstance(form, tuple):
        pieces = [draw(values(arg)) for arg in form]
    else:
        pieces = [f"{k}={draw(values(k))}" for k in sorted(form) if draw(st.integers(0, 11)) != 5]
    return name + (":" + ",".join(pieces) if pieces else "")


FRACTIONS = mostly(st.floats(0.01, 0.99).map(repr), junk=st.floats(width=32).map(repr))
STEP_VALUES = {"alpha": NUMBERS, "alpha_init": NUMBERS, "c1": FRACTIONS, "shrink": FRACTIONS,
               "max_backtracks": counts(1, 8)}
PROBLEMS = spec_texts(_PROBLEM_FORMS, PROBLEM_VALUES.get)
OPTION_VALUES = {
    "ell": counts(1, 8),
    "sketch": st.sampled_from([*DISTRIBUTIONS, "sparse"]),
    "step": spec_texts(_STEP_FORMS, STEP_VALUES.get),
    "fd": st.sampled_from(["forward", "centered", "exact"]),
    "fd-step": st.one_of(st.just("auto"), NUMBERS),
    "iters": counts(1, 20),
    "budget": counts(1, 200),
    "target": st.one_of(st.just("none"), NUMBERS),
    "m": counts(0, 5),
    "option": st.sampled_from(["one", "two", "1", "2", "three"]),
    "eta": st.sampled_from(["zero", "one", "exact", "approx", "0", "1", "2"]),
    "warmup": counts(-1, 20),
}
KINDS = sorted(RUNNERS)


def option_texts(draw, kind):
    """(key, text) for ``iters`` and ``budget``, which always come so that
    no run takes the large defaults, and up to three more options, mostly
    ones that ``kind`` takes."""
    keys = mostly(st.sampled_from([k for k, o in sorted(_OPTIONS.items()) if kind in o.kinds]),
                  junk=st.sampled_from(sorted(_OPTIONS)))
    keys = {"iters", "budget", *draw(st.lists(keys, max_size=3))}
    return [(key, draw(OPTION_VALUES[key])) for key in sorted(keys)]


def run_argv(draw, tmp):
    kind = draw(st.sampled_from(KINDS))
    argv = ["run", f"--problem={draw(PROBLEMS)}", f"--solver={kind}"]
    argv += [f"--{key}={text}" for key, text in option_texts(draw, kind)]
    if draw(st.booleans()):
        argv.append(f"--seed={draw(counts(-1, 5))}")
    if draw(st.booleans()):
        argv.append(f"--x0={draw(spec_texts(_X0_FORMS))}")
    out = draw(mostly(st.sampled_from(["t.csv", "t.json"]),
                      junk=st.sampled_from(["t.txt", os.path.join("no-dir", "t.csv")])))
    return [*argv, "--out", os.path.join(tmp, out)]


def sweep_argv(draw, tmp):
    lines = ["[experiment]", f"problem = {draw(PROBLEMS)}", f"trials = {draw(counts(1, 2))}"]
    if draw(st.booleans()):
        lines.append(f"x0 = {draw(spec_texts(_X0_FORMS))}")
    if draw(st.booleans()):
        lines.append(f"threshold = {draw(spec_texts(_THRESHOLD_FORMS))}")
    if draw(st.booleans()):
        lines.append(f"seed = {draw(counts(-1, 5))}")
    for i in range(draw(mostly(st.integers(1, 2), junk=st.just(0)))):
        kind = draw(st.sampled_from(KINDS))
        lines += ["", f"[solver s{i}]", f"kind = {kind}"]
        lines += [f"{key} = {text}" for key, text in option_texts(draw, kind)]
    path = os.path.join(tmp, "s.ini")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return ["sweep", path, "--out", os.path.join(tmp, "out"),
            "--jobs", draw(st.sampled_from(["1", "1", "1", "2"]))]


def profile_argv(draw, tmp):
    traces = os.path.join(tmp, draw(st.sampled_from(["traces.csv", "missing.csv"])))
    export_traces([TraceRecord("a", 0, trace_of([10.0, 0.5], [1, 100])),
                   TraceRecord("b", 0, trace_of([10.0, 5.0], [1, 50]))],
                  os.path.join(tmp, "traces.csv"))
    flags = draw(mostly(st.sampled_from([["target"], ["fraction", "fstar"]]),
                        junk=st.lists(st.sampled_from(["fraction", "fstar", "target"]), unique=True)))
    # An empty name makes the output the directory itself.
    out = draw(mostly(st.just("p.csv"), junk=st.sampled_from([os.path.join("no-dir", "p.csv"), ""])))
    return ["profile", "--traces", traces, *(f"--{f}={draw(NUMBERS)}" for f in flags),
            "--out", os.path.join(tmp, out)]


@settings(max_examples=500)
@given(command=st.sampled_from([run_argv, sweep_argv, profile_argv]), data=st.data())
def test_random_command_lines_keep_the_exit_contract(command, data):
    with tempfile.TemporaryDirectory() as tmp:
        argv = command(data.draw, tmp)
        before = sorted(os.listdir(tmp))
        with counted_evaluations() as calls, np.errstate(all="ignore"):
            code, out, err = main_io(argv)
        assert code in (0, 1, 2), (code, err)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert out == "" and calls == [], err
            assert sorted(os.listdir(tmp)) == before


# Flags each command does not take; none is a prefix of one it takes, which
# argparse would read as that flag.
STRAY_FLAGS = {"run": ["--jobs", "--traces", "--no-such-flag"],
               "sweep": ["--ell", "--traces", "--no-such-flag"],
               "profile": ["--jobs", "--seed", "--no-such-flag"]}


def stray_argv(draw, tmp):
    """A command line from one of the strategies above with an unknown flag
    added, or with an unknown command in place of its own."""
    argv = draw(st.sampled_from([run_argv, sweep_argv, profile_argv]))(draw, tmp)
    if draw(st.booleans()):
        return [draw(st.sampled_from(["orbit", "runs", "Sweep"])), *argv[1:]]
    at = draw(st.integers(1, len(argv)))
    return [*argv[:at], f"{draw(st.sampled_from(STRAY_FLAGS[argv[0]]))}=1", *argv[at:]]


@settings(max_examples=100)
@given(data=st.data())
def test_unknown_flags_and_commands_keep_the_exit_contract(data):
    with tempfile.TemporaryDirectory() as tmp:
        assert_refused_up_front(tmp, stray_argv(data.draw, tmp))
