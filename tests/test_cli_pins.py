"""Pinned command line output: exact stdout and output-file digests.

Each case runs one ``run``, ``sweep`` or ``profile`` command and compares
its whole stdout (the printed configuration block, the outcome and the
summary) with the text recorded here, and every file it writes with a
recorded SHA-256.  The commands cover the README run, vrssd flag aliases,
a fixed step with a uniform start, a target and JSON output, Armijo
parameters with centered differences and a coordinate sketch, a
three-solver sweep under a fraction threshold, a sweep where each solver
keeps its own target, and a profile under each threshold rule.  All
commands share one working directory and run in the order listed, so the
profiles read the fraction sweep's traces.  Like ``test_trace_parity``, the
floats were recorded with numpy 2.4 and OpenBLAS 0.3.31 on x86-64.
CHANGES.md records each re-pin and why it moved.
"""

import hashlib
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env, pin_note

FRACTION_INI = """\
[experiment]
problem = nesterov:l=4,r=5,d=12
trials = 3
x0 = gaussian:1.0
threshold = fraction:0.9
seed = 11

[solver sk]
kind = ssd
ell = 3
iters = 60

[solver gd]
kind = gd
iters = 30
step = fixed:0.25

[solver vr]
kind = vrssd
ell = 2
m = 5
option = 2
eta = exact
warmup = 1
step = fixed:0.2
iters = 40
"""

OWN_TARGET_INI = """\
[experiment]
problem = quadratic:d=6
trials = 3
x0 = uniform:-2,2
seed = 4

[solver hit]
kind = ssd
ell = 2
iters = 80
target = 1e-3

[solver bfgs]
kind = bfgs
target = 0.001

[solver none]
kind = gd
iters = 20
"""

# name -> (arguments, expected stdout, {output file: SHA-256})
CASES = {
    "readme": (
        ["run", "--problem", "nesterov:l=8,r=10,d=101", "--solver", "ssd", "--ell", "3",
         "--budget", "20000", "--seed", "7"],
        """\
[run]
budget = 20000
ell = 3
fd = forward
fd-step = auto
format = csv
iters = 1000
out = trace.csv
problem = nesterov:d=101,l=8,r=10
seed = 7
sketch = haar
solver = ssd
step = armijo:c1=0.0001,shrink=0.5,alpha_init=1.0,max_backtracks=30
target = none
x0 = zeros

status = line_search_failed
f = -0.909090909090908
evals = 4765
trace written to trace.csv
""",
        {
            "trace.csv":
                "c5151efc3f4b5c8c974d95905e0a4932bc0d42bbfe619e8f787fece4ec2e0870",
        },
    ),
    "vrssd-aliases": (
        ["run", "--problem", "quadratic:d=10", "--solver", "vrssd", "--ell", "2", "--m", "4",
         "--option", "2", "--eta", "1", "--warmup", "2", "--step", "fixed:0.05",
         "--iters", "12", "--seed", "3"],
        """\
[run]
budget = 100000
ell = 2
eta = one
fd = forward
fd-step = auto
format = csv
iters = 12
m = 4
option = two
out = trace.csv
problem = quadratic:d=10
seed = 3
sketch = haar
solver = vrssd
step = fixed:0.05
target = none
warmup = 2
x0 = zeros

status = max_iters
f = 1.352929034157195e-17
evals = 67
trace written to trace.csv
""",
        {
            "trace.csv":
                "7f938d55688500e4e19fb0b3a6762f0e6866e4b30d76d2925ede2d13dfb0316a",
        },
    ),
    "fixed-json-uniform-target": (
        ["run", "--problem", "quadratic:d=6", "--ell", "2", "--step", "fixed:0.25",
         "--x0", "uniform:-1.0,2.5", "--target", "1e-4", "--out", "t.json", "--seed", "2"],
        """\
[run]
budget = 100000
ell = 2
fd = forward
fd-step = auto
format = json
iters = 1000
out = t.json
problem = quadratic:d=6
seed = 2
sketch = haar
solver = ssd
step = fixed:0.25
target = 0.0001
x0 = uniform:-1.0,2.5

status = target_reached
f = 5.944144507464465e-05
evals = 73
trace written to t.json
""",
        {
            "t.json":
                "eef0da034793b3c09449e6be104cc9acf229f05c50f34156fbc04aa5015876a2",
        },
    ),
    "armijo-params": (
        ["run", "--problem", "lstsq:m=8,d=12,rank=4,seed=1", "--ell", "3",
         "--step", "armijo:c1=0.001,max_backtracks=12", "--fd", "centered",
         "--fd-step", "1e-5", "--sketch", "coordinate", "--iters", "40", "--seed", "4"],
        """\
[run]
budget = 100000
ell = 3
fd = centered
fd-step = 1e-05
format = csv
iters = 40
out = trace.csv
problem = lstsq:d=12,m=8,rank=4,seed=1
seed = 4
sketch = coordinate
solver = ssd
step = armijo:c1=0.001,shrink=0.5,alpha_init=1.0,max_backtracks=12
target = none
x0 = zeros

status = max_iters
f = 0.7173342167847353
evals = 306
trace written to trace.csv
""",
        {
            "trace.csv":
                "b84bcb6ee7d80445b5c2c83716b923887472d7cd4a8c6d065d27543a0cace0e2",
        },
    ),
    "sweep-fraction": (
        ["sweep", "fraction.ini", "--out", "frac"],
        """\
[experiment]
jobs = 1
out = frac
problem = nesterov:d=12,l=4,r=5
seed = 11
threshold = fraction:0.9
trials = 3
x0 = gaussian:1.0

[solver sk]
budget = 100000
ell = 3
fd = forward
fd-step = auto
iters = 60
kind = ssd
sketch = haar
step = armijo:c1=0.0001,shrink=0.5,alpha_init=1.0,max_backtracks=30
target = none

[solver gd]
budget = 100000
fd = forward
fd-step = auto
iters = 30
kind = gd
step = fixed:0.25
target = none

[solver vr]
budget = 100000
ell = 2
eta = exact
fd = forward
fd-step = auto
iters = 40
kind = vrssd
m = 5
option = two
sketch = haar
step = fixed:0.2
target = none
warmup = 1

[summary]
solver trials success median_evals
sk 3 1.000 33.0
gd 3 1.000 26.0
vr 3 1.000 48.0

traces written to frac/traces.csv
""",
        {
            os.path.join("frac", "traces.csv"):
                "528ca276e28f22d05410f9e9136dd2a930e2971c6f342488aa0689b58c3da5c4",
        },
    ),
    "sweep-own": (
        ["sweep", "own.ini", "--out", "own"],
        """\
[experiment]
jobs = 1
out = own
problem = quadratic:d=6
seed = 4
threshold = none
trials = 3
x0 = uniform:-2.0,2.0

[solver hit]
budget = 100000
ell = 2
fd = forward
fd-step = auto
iters = 80
kind = ssd
sketch = haar
step = armijo:c1=0.0001,shrink=0.5,alpha_init=1.0,max_backtracks=30
target = 0.001

[solver bfgs]
budget = 100000
fd = forward
fd-step = auto
iters = 1000
kind = bfgs
step = armijo:c1=0.0001,shrink=0.5,alpha_init=1.0,max_backtracks=30
target = 0.001

[solver none]
budget = 100000
fd = forward
fd-step = auto
iters = 20
kind = gd
step = armijo:c1=0.0001,shrink=0.5,alpha_init=1.0,max_backtracks=30
target = none

[summary]
solver trials success median_evals
hit 3 1.000 68.0
bfgs 3 1.000 8.0
none 3 0.000 -

traces written to own/traces.csv
""",
        {
            os.path.join("own", "traces.csv"):
                "185dbbdf08bfd2a889c3687d297fe13393c92e176e70d14e02edf1beb0149170",
        },
    ),
    "profile-target": (
        ["profile", "--traces", os.path.join("frac", "traces.csv"), "--target", "-0.3",
         "--out", "pt.csv"],
        """\
[profile]
fstar = none
out = pt.csv
threshold = absolute:-0.3
traces = frac/traces.csv

solver,tau,rho
gd,1.0,0.3333333333333333
gd,1.2692307692307692,0.3333333333333333
gd,1.8461538461538463,0.3333333333333333
sk,1.0,0.0
sk,1.2692307692307692,0.3333333333333333
sk,1.8461538461538463,0.3333333333333333
vr,1.0,0.0
vr,1.2692307692307692,0.0
vr,1.8461538461538463,0.3333333333333333
profile written to pt.csv
""",
        {
            "pt.csv":
                "0cc11765b80fcca96cee6f98d154c9a3542898d28abd617a94cf6be0c09a2101",
        },
    ),
    "profile-fraction": (
        ["profile", "--traces", os.path.join("frac", "traces.csv"), "--fraction", "0.9",
         "--fstar", "-0.4166666666666667", "--out", "pf.csv"],
        """\
[profile]
fstar = -0.4166666666666667
out = pf.csv
threshold = fraction:0.9
traces = frac/traces.csv

solver,tau,rho
gd,1.0,0.6666666666666666
gd,1.2692307692307692,0.6666666666666666
gd,1.368421052631579,1.0
gd,1.736842105263158,1.0
gd,1.8461538461538463,1.0
gd,2.076923076923077,1.0
gd,5.423076923076923,1.0
sk,1.0,0.3333333333333333
sk,1.2692307692307692,0.6666666666666666
sk,1.368421052631579,0.6666666666666666
sk,1.736842105263158,0.6666666666666666
sk,1.8461538461538463,0.6666666666666666
sk,2.076923076923077,1.0
sk,5.423076923076923,1.0
vr,1.0,0.0
vr,1.2692307692307692,0.0
vr,1.368421052631579,0.0
vr,1.736842105263158,0.3333333333333333
vr,1.8461538461538463,0.6666666666666666
vr,2.076923076923077,0.6666666666666666
vr,5.423076923076923,1.0
profile written to pf.csv
""",
        {
            "pf.csv":
                "8f56a51d6ca459e3a1e453c86d32e2f98420ebae51c977857620db9209c98fbe",
        },
    ),
}


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """Run every case in order in one directory; keep (result, digests)."""
    cwd = tmp_path_factory.mktemp("pins")
    (cwd / "fraction.ini").write_text(FRACTION_INI)
    (cwd / "own.ini").write_text(OWN_TARGET_INI)
    seen = {}
    for name, (args, _, files) in CASES.items():
        res = subprocess.run(
            [sys.executable, "-m", "ssdopt", *args],
            cwd=cwd, env=child_env(), capture_output=True, text=True, timeout=300,
        )
        digests = {
            f: hashlib.sha256((cwd / f).read_bytes()).hexdigest()
            for f in files if (cwd / f).exists()
        }
        seen[name] = (res, digests)
    return seen


@pytest.mark.parametrize("name", list(CASES))
def test_output_is_pinned(results, name):
    res, digests = results[name]
    _, stdout, files = CASES[name]
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout == stdout, pin_note()
    assert digests == files, pin_note()


def test_readme_run_example_is_the_pinned_readme_run():
    """The README's ``ssdopt run`` example is the pinned "readme" case, and
    the outcome block it shows is the tail of that case's stdout, so a
    change in the counts cannot leave the README stale."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    before, after = text.split("prints the resolved configuration and the outcome", 1)
    command = before.rsplit("```sh\n", 1)[1].split("```", 1)[0]
    shown = after.split("```\n", 2)[1]
    args, stdout, _ = CASES["readme"]
    assert shlex.split(command.replace("\\\n", " ")) == ["ssdopt", *args]
    assert shown == stdout.split("\n\n", 1)[1]
