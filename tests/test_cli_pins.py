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
"""

import hashlib
import os
import subprocess
import sys

import pytest

from conftest import child_env

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
f = -0.9090909090909084
evals = 8460
trace written to trace.csv
""",
        {
            "trace.csv":
                "2eebb5303de1873b6a425916a40740e0ffc48c798ddd386310e4712f7cce1eb9",
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
evals = 73
trace written to trace.csv
""",
        {
            "trace.csv":
                "cfe9ada2a66c9ba576799736a4ab8542514744e5dd405936feb1a2ef9b011849",
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
evals = 76
trace written to t.json
""",
        {
            "t.json":
                "6d7d359a2133908122e060acf73d8532c56ae19965d3df5a15f6b637e4462fce",
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
evals = 465
trace written to trace.csv
""",
        {
            "trace.csv":
                "c8162b39d7e674700fdcb7c2bbaa2914259e3ff8da3f4df6884bb34251eb9108",
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
ell = 1
fd = forward
fd-step = auto
iters = 30
kind = gd
sketch = haar
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
sk 3 1.000 50.0
gd 3 1.000 27.0
vr 3 1.000 65.0

traces written to frac/traces.csv
""",
        {
            os.path.join("frac", "traces.csv"):
                "f30d30a9ddfda38a9cee876a10f785a8a76b1c5a6487a94c7b45caafcc155ed2",
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
ell = 1
fd = forward
fd-step = auto
iters = 1000
kind = bfgs
sketch = haar
step = armijo:c1=0.0001,shrink=0.5,alpha_init=1.0,max_backtracks=30
target = 0.001

[solver none]
budget = 100000
ell = 1
fd = forward
fd-step = auto
iters = 20
kind = gd
sketch = haar
step = armijo:c1=0.0001,shrink=0.5,alpha_init=1.0,max_backtracks=30
target = none

[summary]
solver trials success median_evals
hit 3 1.000 111.0
bfgs 3 1.000 9.0
none 3 0.000 -

traces written to own/traces.csv
""",
        {
            os.path.join("own", "traces.csv"):
                "60334e4c823e9d0bb88b83d1a18b2dc69b9fa635fa7e43c859a74698044ef047",
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
gd,1.8518518518518519,0.3333333333333333
gd,2.4074074074074074,0.3333333333333333
sk,1.0,0.0
sk,1.8518518518518519,0.3333333333333333
sk,2.4074074074074074,0.3333333333333333
vr,1.0,0.0
vr,1.8518518518518519,0.0
vr,2.4074074074074074,0.3333333333333333
profile written to pt.csv
""",
        {
            "pt.csv":
                "ea3d0883a4b8e4894bacdca04314984f0b22322d28a49f76ab9edc50194ed6f4",
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
gd,1.08,1.0
gd,1.8518518518518519,1.0
gd,1.96,1.0
gd,2.4074074074074074,1.0
gd,2.6296296296296298,1.0
gd,7.074074074074074,1.0
sk,1.0,0.3333333333333333
sk,1.08,0.3333333333333333
sk,1.8518518518518519,0.6666666666666666
sk,1.96,0.6666666666666666
sk,2.4074074074074074,0.6666666666666666
sk,2.6296296296296298,1.0
sk,7.074074074074074,1.0
vr,1.0,0.0
vr,1.08,0.0
vr,1.8518518518518519,0.0
vr,1.96,0.3333333333333333
vr,2.4074074074074074,0.6666666666666666
vr,2.6296296296296298,0.6666666666666666
vr,7.074074074074074,1.0
profile written to pf.csv
""",
        {
            "pf.csv":
                "44d1a7b31e90af663eaece6dfa5a4ba4c5c525d12d2b81fd53790a0bcb7c1587",
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
    assert res.stdout == stdout
    assert digests == files
