"""Benchmark for ssdopt: time and evaluations to target, end to end and per layer.

    python3 perfbench/run.py --workload ssd-d101 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures the
per-layer split with spans wrapped around the package's layer boundaries
(and the tracing overhead against an untraced pass of the same rounds).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md in
this directory for the workloads, the metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPEATS = 9
# A tail percentile with ten runs beyond it needs forty distinct runs; every
# round of every workload has more.
MIN_RUNS = 40
# Per-layer self times must cover the traced wall time to within this share.
UNATTRIBUTED_BOUND = 0.05


def use_source_tree() -> None:
    """Import the package from ``src`` by absolute path, here and in every
    child process, whatever the working directory."""
    if not (SRC / "ssdopt" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {SRC / 'ssdopt'}; run from a checkout of the repository")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy: no dict form of the build record
        blas = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        **{k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": np.__version__,
        "blas": blas,
        "python": platform.python_version(),
        "commit": commit,
    }


def setup_seconds(name: str, seed: int) -> float:
    """Median time, in a fresh interpreter, to import ssdopt and build the
    workload's objectives and configs.  One unmeasured start comes first so
    bytecode caches exist."""
    code = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        f"sys.path.insert(0, {str(BENCH_DIR)!r})\n"
        "import workloads\n"
        f"workloads.WORKLOADS[{name!r}].build({seed})\n"
        "print(repr(time.perf_counter() - t0))\n"
    )
    times = []
    for _ in range(SETUP_REPEATS + 1):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                             text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times[1:])


def tail(walls_by_run):
    """Highest percentile of per-run wall time with at least ten runs beyond
    it, and that percentile.  Every round repeats the same runs, so a run's
    wall time is the median of its repeats: a stretch in which the host
    slows the process then inflates single repeats, not the runs near the
    top of the order, which a tail over all samples would be made of."""
    ordered = sorted(statistics.median(walls) for walls in walls_by_run.values())
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


class Tally:
    """Running totals over the rounds of one measurement."""

    def __init__(self):
        self.round_walls = []
        self.experiment_s = []
        self.run_walls = []
        self.walls_by_run = {}  # (solver, trial) -> wall time of each repeat
        self.attempted = 0
        self.failed = 0
        self.charged = 0
        self.to_target = []  # (evals, iteration) per run that reached the threshold
        self.steps = {}      # solver -> accepted steps
        self.errors = {}
        self.first_key = None  # what every later chain round must reproduce

    def add(self, rnd, errors):
        from checks import first_crossing, reached

        self.round_walls.append(rnd.wall_s)
        self.experiment_s.append(rnd.experiment_s)
        for run in rnd.runs:
            self.attempted += 1
            self.run_walls.append(run.wall_s)
            self.walls_by_run.setdefault((run.solver, run.trial), []).append(run.wall_s)
            self.charged += run.charged
            if not reached(run):
                self.failed += 1
                continue
            self.to_target.append(first_crossing(run.trace, run.threshold))
            self.steps[run.solver] = self.steps.get(run.solver, 0) + run.trace.entries[-1].iteration
        for name, found in errors.items():
            self.errors.setdefault(name, []).extend(found)

    def count(self, other):
        """Take over another measurement's run counts and check errors, but
        none of its times."""
        self.attempted += other.attempted
        self.failed += other.failed
        for name, found in other.errors.items():
            self.errors.setdefault(name, []).extend(found)


def measure(workload, inputs, seconds, tally, workdir, jobs, serial=None, limit=None):
    """Run whole rounds, checking each after its clock stops, until the next
    round would end more than half a round past ``seconds`` of round time
    (at least two rounds and MIN_RUNS runs), or exactly ``limit`` rounds."""
    import checks

    def more():
        walls = tally.round_walls
        if limit:
            return len(walls) < limit
        if len(walls) < 2 or tally.attempted < MIN_RUNS:
            return True
        return sum(walls) + statistics.median(walls) / 2.0 <= seconds

    while more():
        if serial is None:
            rnd = workload.run_round(inputs)
            key = checks.trace_key(rnd.runs)
            errors = checks.check_runs(rnd.runs)
            if tally.first_key is None:
                tally.first_key = key
            elif key != tally.first_key:
                errors.setdefault("repeat", []).extend(checks.check_repeat(tally.first_key, rnd.runs))
        else:
            rnd = workload.run_round(inputs, jobs=jobs, workdir=workdir)
            errors = checks.check_sweep_round(rnd, serial)
        tally.add(rnd, errors)
        last = rnd
    return last


def reference_round(workload, inputs, workdir, tally_errors):
    """Serial sweep with every evaluation logged: the byte-level reference
    for the timed rounds and the call-by-call audit of the accounting."""
    import checks

    serial = workload.run_round(inputs, jobs=1, workdir=workdir, record=True)
    errors = checks.check_sweep_round(serial, serial)
    instance = checks.check_instance(inputs["problem"], inputs["A"], inputs["b"])
    if instance:
        errors["instance"] = instance
    for name, found in errors.items():
        tally_errors.setdefault(name, []).extend(found)
    return serial


def warm_up(name, workload, inputs, seed, workdir, errors):
    """Untimed start, so lazy imports and caches are warm before the clock
    runs: the sweep's serial reference round, or a tiny chain round."""
    if name == "sweep-lstsq":
        return reference_round(workload, inputs, workdir, errors)
    workload.run_round(workload.build(seed, tiny=True))
    return None


def fan_out(workload, inputs, workdir, serial, tally, rounds):
    """Sweep rounds at SWEEP_JOBS workers, each checked byte for byte
    against the serial reference.  Their runs are counted in ``tally``;
    returns the wall times of their ``run_experiment`` calls."""
    from workloads import SWEEP_JOBS

    fanned = Tally()
    measure(workload, inputs, 0, fanned, workdir, SWEEP_JOBS, serial, limit=rounds)
    tally.count(fanned)
    return fanned.experiment_s


def end_to_end(name, workload, inputs, seed, seconds, workdir):
    """Timed rounds, all serial.  The sweep also makes one untimed round at
    SWEEP_JOBS workers, to check that fan-out leaves the output unchanged."""
    tally = Tally()
    serial = warm_up(name, workload, inputs, seed, workdir, tally.errors)
    measure(workload, inputs, seconds, tally, workdir, 1, serial)
    # Read before the set-up probes and the fan-out round start processes:
    # every timed round ran in this one.
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    wall = sum(tally.round_walls)
    tail_s, pct = tail(tally.walls_by_run)
    reached = tally.to_target or [(0.0, 0.0)]
    metrics = {
        "setup_s": (setup_seconds(name, seed), "s"),
        "run_s_p50": (statistics.median(tally.run_walls), "s"),
        "run_s_tail": (tail_s, "s"),
        "runs_per_s": (tally.attempted / wall, "1/s"),
        "evals_per_s": (tally.charged / wall, "evals/s"),
        "evals_to_target": (statistics.fmean(e for e, _ in reached), "evals"),
        "iters_to_target": (statistics.fmean(k for _, k in reached), "iterations"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    repeats = min(len(w) for w in tally.walls_by_run.values())
    notes = {"run_s_tail": f"p{pct:.2f} of {len(tally.walls_by_run)} runs, "
                           f"each the median of {repeats}+ repeats",
             "runs_per_s": f"rounds of {', '.join(f'{w:.2f}' for w in tally.round_walls)} s"}
    if serial is not None:
        fan_out(workload, inputs, workdir, serial, tally, rounds=1)
    return tally, metrics, notes


def per_layer(name, workload, inputs, seed, seconds, workdir):
    """Untraced and traced rounds in turn, at least two of each, until the
    next pair would end more than half a pair past ``seconds``.  Taking
    them in turn lets drift in the machine's speed fall on both alike."""
    from tracing import Tracer

    tally, traced, tracer = Tally(), Tally(), Tracer()
    serial = warm_up(name, workload, inputs, seed, workdir, tally.errors)
    pairs = []
    while len(pairs) < 2 or sum(pairs) + statistics.median(pairs) / 2.0 <= seconds:
        last = measure(workload, inputs, 0, tally, workdir, 1, serial, limit=len(pairs) + 1)
        traced.first_key = tally.first_key  # tracing must not change a bit
        with tracer:
            measure(workload, inputs, 0, traced, workdir, 1, serial, limit=len(pairs) + 1)
        pairs.append(tally.round_walls[-1] + traced.round_walls[-1])
    n = len(pairs)
    overhead = statistics.median(t / u for t, u in zip(traced.round_walls, tally.round_walls))
    serial_run_sum = sum(tally.run_walls) / n
    tally.count(traced)

    t = tracer
    wall = sum(traced.round_walls)
    steps = sum(traced.steps.values())
    baseline_steps = traced.steps.get("gd", 0) + traced.steps.get("bfgs", 0)
    probe_evals = t.edge("oracle", "problems.Objective.evaluate")[0]
    evals = t.calls["problems.Objective.evaluate"]
    anchor = t.edge("vrssd", "oracle.full_gradient_fd")
    attributed = sum(t.self_s.values())

    def per(x, d, scale=1.0):
        return scale * x / d if d else 0.0

    metrics = {
        "sketch.draw_calls": (t.entries("sketch") / n, "count"),
        "sketch.draw_s": (t.self_s["sketch"] / n, "s"),
        "sketch.draw_us_per_call": (per(t.self_s["sketch"], t.entries("sketch"), 1e6), "us"),
        "oracle.calls": (t.entries("oracle") / n, "count"),
        "oracle.evals": (probe_evals / n, "evals"),
        "oracle.self_s": (t.self_s["oracle"] / n, "s"),
        "oracle.self_us_per_probe": (per(t.self_s["oracle"], probe_evals, 1e6), "us"),
        "problems.evals": (evals / n, "evals"),
        "problems.eval_s": (t.self_s["problems"] / n, "s"),
        "problems.eval_us_per_call": (per(t.self_s["problems"], evals, 1e6), "us"),
        "ssd.steps": (steps / n, "count"),
        "ssd.linesearch_evals": ((evals - probe_evals) / n, "evals"),
        "ssd.linesearch_evals_per_step": (per(evals - probe_evals, steps), "evals"),
        "ssd.self_s": (t.self_s["ssd"] / n, "s"),
        "ssd.self_us_per_step": (per(t.self_s["ssd"], steps, 1e6), "us"),
        "vrssd.anchor_calls": (anchor[0] / n, "count"),
        "vrssd.anchor_evals": (anchor[2] / n, "evals"),
        "vrssd.anchor_s": (anchor[1] / n, "s"),
        "vrssd.self_s": (t.self_s["vrssd"] / n, "s"),
        "baselines.self_s": (t.self_s["baselines"] / n, "s"),
        "baselines.self_us_per_step": (per(t.self_s["baselines"], baseline_steps, 1e6), "us"),
        "bench.build_calls": (t.calls["bench.ProblemSpec.build"] / n, "count"),
        "bench.build_s": (t.inclusive_s["bench.ProblemSpec.build"] / n, "s"),
        "bench.parallel_speedup": (0.0, "ratio"),
        "bench.profile_s": (t.inclusive_s["bench.performance_profile"] / n, "s"),
        "bench.export_s": (t.inclusive_s["bench.export_traces"] / n, "s"),
        "bench.import_s": (t.inclusive_s["bench.import_traces"] / n, "s"),
        "bench.trace_bytes": (len(last.csv_bytes) + len(last.json_bytes), "bytes"),
        "trace.wall_s": (wall / n, "s"),
        "trace.overhead": (overhead - 1.0, "ratio"),
        "trace.unattributed_share": ((wall - attributed) / wall, "ratio"),
    }
    if serial is not None:
        experiment = statistics.median(fan_out(workload, inputs, workdir, serial, tally, rounds=2))
        metrics["bench.parallel_speedup"] = (serial_run_sum / experiment, "ratio")
    share = metrics["trace.unattributed_share"][0]
    if not 0.0 <= share <= UNATTRIBUTED_BOUND:
        tally.errors.setdefault("trace", []).append(
            f"layer self times leave {share:.1%} of the traced wall time unattributed "
            f"(bound {UNATTRIBUTED_BOUND:.0%})"
        )
    return tally, metrics, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default 1; held-out seed 7919)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="show that every correctness check rejects a perturbed output")
    args = parser.parse_args(argv)
    use_source_tree()
    import workloads

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        if args.self_check:
            import selfcheck

            return 0 if selfcheck.run(Path(workdir)) else 1
        if args.workload not in workloads.WORKLOADS:
            parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
        seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
        workload = workloads.WORKLOADS[args.workload]
        inputs = workload.build(seed)
        print("env " + json.dumps(environment(), sort_keys=True), flush=True)
        if args.trace:
            tally, metrics, notes = per_layer(args.workload, workload, inputs, seed,
                                              args.seconds, Path(workdir))
        else:
            tally, metrics, notes = end_to_end(args.workload, workload, inputs, seed,
                                               args.seconds, Path(workdir))
    for key, (value, unit) in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"{args.workload} {key} = {value:.6g} {unit}{note}")
    for check, found in sorted(tally.errors.items()):
        print(f"CHECK FAILED {check}: {len(found)} error(s); first: {found[0]}")
    correct = not tally.errors
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
