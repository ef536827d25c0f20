"""Correctness checks on what the workloads produced.

Every check returns a list of error strings, empty when the output is
correct.  The references are computed by the benchmark itself (closed-form
or pseudo-inverse optima, its own log of evaluator calls, its own scan of the
traces) or are properties the method must have; none is a stored copy of an
earlier output.

Evaluation accounting rule (the package's README): every evaluator call is
charged; an entry's ``evals`` is the count charged when its iterate was
reached, so the value at call ``evals`` (1-based) is the entry's f for
Armijo runs, whose accepted trial is the last evaluation before the entry.
Fixed-step runs defer the entry's f to the next evaluation, which is the
shared base probe at the new iterate: call ``evals + 1``.  Entry 0 is call 1.
The check matches each entry to the first call after the previous entry's
that returned its f, so a count off by one in either direction shows.
"""

from __future__ import annotations

import math
import struct
from typing import Dict, List, Optional, Tuple

import numpy as np

from ssdopt import evals_to_threshold

from workloads import Round, RunResult


def first_crossing(trace, threshold: float) -> Tuple[float, Optional[int]]:
    """(evals, iteration) of the first entry with f <= threshold."""
    for entry in trace.entries:
        if entry.f <= threshold:
            return float(entry.evals), entry.iteration
    return math.inf, None


def reached(run: RunResult) -> bool:
    """A run that raised or never reached the threshold counts as failed."""
    return (
        run.raised is None
        and run.trace is not None
        and bool(run.trace.entries)
        and math.isfinite(first_crossing(run.trace, run.threshold)[0])
    )


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _where(run: RunResult) -> str:
    return f"{run.solver} trial {run.trial}"


# ---------------------------------------------------------------------------
# per run


def check_optimum(run: RunResult) -> List[str]:
    f = run.trace.entries[-1].f
    floor = run.fstar - 1e-9 * (1.0 + abs(run.fstar))
    if not floor <= f <= run.threshold:
        return [f"{_where(run)}: final f {f!r} outside [{floor!r}, {run.threshold!r}]"]
    return []


def check_returned(run: RunResult) -> List[str]:
    if run.log is None:
        return []
    seen = {_bits(float(v)) for v in run.log}
    return [
        f"{_where(run)}: entry {e.iteration} f {e.f!r} was never returned by the objective"
        for e in run.trace.entries
        if _bits(e.f) not in seen
    ]


def check_evals(run: RunResult) -> List[str]:
    if run.log is None:
        return []
    errors = []
    calls = len(run.log)
    if calls != run.charged:
        errors.append(f"{_where(run)}: objective charged {run.charged}, evaluator ran {calls} times")
    entries = run.trace.entries
    log = run.log
    found = -1
    for k, e in enumerate(entries):
        # The call that produced f_k is the first after the previous entry's
        # call to return it (forward differences evaluate f(x_k) again).
        found = next((i for i in range(found + 1, calls) if log[i] == e.f), calls)
        expected = e.evals - 1 if (run.armijo or k == 0) else e.evals
        if found != expected:
            errors.append(
                f"{_where(run)}: entry {e.iteration} records evals={e.evals}, "
                f"but its f first came from evaluator call {found + 1}"
            )
            break
    if entries[0].evals != 1:
        errors.append(f"{_where(run)}: entry 0 records {entries[0].evals} evals, not 1")
    if run.armijo and entries[-1].evals != calls:
        errors.append(
            f"{_where(run)}: final entry records {entries[-1].evals} evals, evaluator ran {calls}"
        )
    return errors


def check_budget(run: RunResult) -> List[str]:
    used = max(run.charged, run.trace.entries[-1].evals)
    if used > run.budget:
        return [f"{_where(run)}: {used} evaluations exceed the budget {run.budget}"]
    return []


def check_armijo_decrease(run: RunResult) -> List[str]:
    if not run.armijo:
        return []
    fs = [e.f for e in run.trace.entries]
    for k in range(1, len(fs)):
        if not fs[k] < fs[k - 1]:
            return [f"{_where(run)}: Armijo step {k} did not decrease f ({fs[k - 1]!r} -> {fs[k]!r})"]
    return []


RUN_CHECKS = {
    "optimum": check_optimum,
    "returned": check_returned,
    "evals": check_evals,
    "budget": check_budget,
    "armijo_decrease": check_armijo_decrease,
}


def check_runs(runs: List[RunResult]) -> Dict[str, List[str]]:
    """Per-run checks on every run that did not fail."""
    errors: Dict[str, List[str]] = {}
    for run in runs:
        if not reached(run):
            continue
        for name, check in RUN_CHECKS.items():
            found = check(run)
            if found:
                errors.setdefault(name, []).extend(found)
    return errors


def trace_key(runs: List[RunResult]) -> list:
    """What must repeat exactly when a round is run again."""
    return [
        (r.solver, r.trial, r.raised, None if r.trace is None else
         (r.trace.terminal_status, [(e.iteration, e.evals, _bits(e.f), _bits(e.step),
                                     _bits(e.dirnorm)) for e in r.trace.entries]))
        for r in runs
    ]


def check_repeat(first: list, again: List[RunResult]) -> List[str]:
    if trace_key(again) != first:
        return ["a repeated round did not reproduce the first round's traces exactly"]
    return []


# ---------------------------------------------------------------------------
# sweep


def check_instance(problem, A: np.ndarray, b: np.ndarray) -> List[str]:
    """The regenerated (A, b) must be the package's instance, or the
    benchmark's optimum would not be the problem's."""
    gen = np.random.default_rng(12345)
    for _ in range(3):
        x = gen.standard_normal(A.shape[1])
        r = A @ x - b
        mine = 0.5 * float(r @ r)
        theirs = float(problem.evaluator(x))
        if not abs(mine - theirs) <= 1e-12 * (1.0 + abs(mine)):
            return [f"lstsq instance differs from the package's: f={theirs!r}, own {mine!r}"]
    return []


def check_paired_start(rnd: Round) -> List[str]:
    start: Dict[int, bytes] = {}
    errors = []
    for run in rnd.runs:
        if run.trace is None or not run.trace.entries:
            continue
        f0 = _bits(run.trace.entries[0].f)
        if start.setdefault(run.trial, f0) != f0:
            errors.append(f"trial {run.trial}: {run.solver} starts from a different f")
    return errors


def check_profile(rnd: Round) -> List[str]:
    errors = []
    prof = rnd.profile
    for solver, curve in prof.curves.items():
        taus = [t for t, _ in curve]
        rhos = [r for _, r in curve]
        if any(not 0.0 <= r <= 1.0 for r in rhos):
            errors.append(f"profile of {solver} leaves [0, 1]")
        if any(b < a for a, b in zip(rhos, rhos[1:])) or any(b < a for a, b in zip(taus, taus[1:])):
            errors.append(f"profile of {solver} is not nondecreasing")
    for trial in sorted({r.trial for r in rnd.runs}):
        ratios = [per[trial] for per in prof.ratios.values() if trial in per]
        if min(ratios) != 1.0:
            errors.append(f"trial {trial}: best solver has ratio {min(ratios)!r}, not 1")
    return errors


def check_evals_to_threshold(rnd: Round) -> List[str]:
    errors = []
    for run in rnd.runs:
        own = first_crossing(run.trace, run.threshold)[0]
        theirs = evals_to_threshold(run.trace, run.threshold)
        profiled = rnd.profile.counts[run.solver][run.trial]
        if not own == theirs == profiled:
            errors.append(
                f"{_where(run)}: evals to threshold {theirs!r} (profile {profiled!r}), own scan {own!r}"
            )
    return errors


def _entries_bits(trace) -> list:
    return [(e.iteration, e.evals, _bits(e.f), _bits(e.step), _bits(e.dirnorm))
            for e in trace.entries]


def check_round_trip(rnd: Round) -> List[str]:
    errors = []
    for fmt, back in (("csv", rnd.csv_back), ("json", rnd.json_back)):
        if [(r.solver, r.trial) for r in back] != [(r.solver, r.trial) for r in rnd.records]:
            errors.append(f"{fmt} round trip changed the record order")
            continue
        for orig, read in zip(rnd.records, back):
            if _entries_bits(orig.trace) != _entries_bits(read.trace):
                errors.append(f"{fmt} round trip of {orig.solver} trial {orig.trial} is not bit-exact")
            elif fmt == "json" and orig.trace.terminal_status != read.trace.terminal_status:
                errors.append(f"json round trip lost the status of {orig.solver} trial {orig.trial}")
    return errors


def check_jobs_identical(rnd: Round, serial: Round) -> List[str]:
    errors = []
    if rnd.csv_bytes != serial.csv_bytes:
        errors.append("trace CSV differs from the serial run's")
    if rnd.json_bytes != serial.json_bytes:
        errors.append("trace JSON differs from the serial run's")
    return errors


def check_sweep_round(rnd: Round, serial: Round) -> Dict[str, List[str]]:
    errors = check_runs(rnd.runs)
    for name, found in (
        ("paired_start", check_paired_start(rnd)),
        ("profile", check_profile(rnd)),
        ("evals_to_threshold", check_evals_to_threshold(rnd)),
        ("round_trip", check_round_trip(rnd)),
        ("jobs_identical", check_jobs_identical(rnd, serial)),
    ):
        if found:
            errors.setdefault(name, []).extend(found)
    return errors
