"""Self-check: every correctness check accepts a true output and rejects a
perturbed one.

Each workload runs once at a tiny size.  The checks must pass on what it
produced; then each perturbation alters one thing in a copy of the output
(an evaluation count off by one, an f changed in its last bit, two CSV rows
swapped, ...) and the check it targets must report an error.
"""

from __future__ import annotations

import copy
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

import checks
from workloads import SWEEP_JOBS, WORKLOADS, Round


def _entry(run, k, **changes):
    run.trace.entries[k] = replace(run.trace.entries[k], **changes)


def _last_bit(x: float) -> float:
    return float(np.nextafter(x, math.inf))


def _chain_cases():
    """(description, check name, perturb(round)) for the per-run checks."""

    def evals_plus_one(rnd):
        run = rnd.runs[0]
        _entry(run, 3, evals=run.trace.entries[3].evals + 1)

    def evals_minus_one(rnd):
        run = rnd.runs[0]
        _entry(run, 3, evals=run.trace.entries[3].evals - 1)

    def f_last_bit(rnd):
        run = rnd.runs[0]
        _entry(run, 3, f=_last_bit(run.trace.entries[3].f))

    def below_optimum(rnd):
        run = rnd.runs[0]
        _entry(run, -1, f=run.fstar - 1e-3)

    def not_decreasing(rnd):
        run = rnd.runs[0]
        a, b = run.trace.entries[1], run.trace.entries[2]
        _entry(run, 1, f=b.f)
        _entry(run, 2, f=a.f)

    def over_budget(rnd):
        run = rnd.runs[0]
        run.budget = run.charged - 1

    def charge_differs(rnd):
        rnd.runs[0].charged += 1

    return [
        ("entry evaluation count one too high", "evals", evals_plus_one),
        ("entry evaluation count one too low", "evals", evals_minus_one),
        ("objective's charge differs from evaluator calls", "evals", charge_differs),
        ("trace f changed in its last bit", "returned", f_last_bit),
        ("final f below the optimum", "optimum", below_optimum),
        ("Armijo trace not strictly decreasing", "armijo_decrease", not_decreasing),
        ("evaluations above the budget", "budget", over_budget),
    ]


def _sweep_cases():
    def start_differs(rnd):
        run = rnd.runs[1]
        _entry(run, 0, f=_last_bit(run.trace.entries[0].f))

    def profile_above_one(rnd):
        solver = next(iter(rnd.profile.curves))
        tau, _ = rnd.profile.curves[solver][-1]
        rnd.profile.curves[solver][-1] = (tau, 1.5)

    def profile_decreasing(rnd):
        solver = next(iter(rnd.profile.curves))
        curve = rnd.profile.curves[solver]
        curve[-1] = (curve[-1][0], 0.0)  # below the positive values before it

    def best_ratio(rnd):
        for per in rnd.profile.ratios.values():
            per[0] = max(per[0], 1.5) if math.isfinite(per[0]) else per[0]

    def count_differs(rnd):
        run = rnd.runs[0]
        rnd.profile.counts[run.solver][run.trial] += 1

    def csv_f_last_bit(rnd):
        back = rnd.csv_back[0].trace
        back.entries[1] = replace(back.entries[1], f=_last_bit(back.entries[1].f))

    def json_status_lost(rnd):
        rnd.json_back[0].trace.terminal_status = None

    def csv_rows_swapped(rnd):
        lines = rnd.csv_bytes.split(b"\n")
        lines[1], lines[2] = lines[2], lines[1]
        rnd.csv_bytes = b"\n".join(lines)

    return [
        ("trial entry 0 f differs between solvers", "paired_start", start_differs),
        ("profile value above 1", "profile", profile_above_one),
        ("profile curve decreasing", "profile", profile_decreasing),
        ("no solver with ratio 1 in a trial", "profile", best_ratio),
        ("profile evals-to-threshold off by one", "evals_to_threshold", count_differs),
        ("CSV round trip changes an f in its last bit", "round_trip", csv_f_last_bit),
        ("JSON round trip drops the status", "round_trip", json_status_lost),
        ("jobs=2 CSV with two rows swapped", "jobs_identical", csv_rows_swapped),
    ]


def _report(label, ok, detail=""):
    print(f"self-check {'ok  ' if ok else 'FAIL'} {label}{': ' + detail if detail else ''}")
    return ok


def run(workdir: Path) -> bool:
    ok = True
    for name, workload in WORKLOADS.items():
        inputs = workload.build(1, tiny=True)
        if name == "sweep-lstsq":
            serial = workload.run_round(inputs, jobs=1, workdir=workdir, record=True)
            fanned = workload.run_round(inputs, jobs=SWEEP_JOBS, workdir=workdir)

            def check(rnd, serial=serial):
                return checks.check_sweep_round(rnd, serial)

            cases = _chain_cases() + _sweep_cases()
            ok &= _report(f"{name}: instance regenerated",
                          not checks.check_instance(inputs["problem"], inputs["A"], inputs["b"]))
            ok &= _report(f"{name}: jobs=2 round passes", not check(fanned))
            ok &= _report(
                f"{name}: perturbed instance rejected",
                bool(checks.check_instance(inputs["problem"], inputs["A"], -inputs["b"])),
            )
            base = serial
        else:
            base = workload.run_round(inputs)
            check = lambda rnd: checks.check_runs(rnd.runs)  # noqa: E731
            cases = _chain_cases()
            again = workload.run_round(inputs)
            first = checks.trace_key(base.runs)
            ok &= _report(f"{name}: repeated round reproduces", not checks.check_repeat(first, again.runs))
            _entry(again.runs[-1], -1, step=_last_bit(again.runs[-1].trace.entries[-1].step))
            ok &= _report(f"{name}: changed repeat rejected", bool(checks.check_repeat(first, again.runs)))
        if any(not checks.reached(r) for r in base.runs):
            ok &= _report(f"{name}: every tiny run reaches its threshold", False)
            continue
        clean = check(base)
        ok &= _report(f"{name}: unperturbed output passes", not clean, str(clean))
        for label, target, perturb in cases:
            rnd: Round = copy.deepcopy(base)
            perturb(rnd)
            found = check(rnd).get(target)
            ok &= _report(f"{name}: {label} -> {target}", bool(found),
                          found[0] if found else "not detected")
    print(f"self-check {'passed' if ok else 'FAILED'}")
    return ok
