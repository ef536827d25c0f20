"""Experiment harness: paired multi-trial runs, performance profiles,
linear-rate estimation, and trace persistence.

Solvers within one trial share the trial's seed and initial point, so
profile comparisons are paired.  Trial t of an experiment with base seed b
runs under seed b + t everywhere.  An :class:`ExperimentSpec` checks
itself when it is made, so a refused experiment never starts a run.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from .baselines import _check_bfgs_rule, run_fd_bfgs, run_fd_gd
from .errors import ConfigurationError, NoSuccessError
from .problems import (
    Objective,
    isotropic_quadratic,
    nesterov_worst,
    rank_deficient_least_squares,
)
from .sketch import PROBLEM_CHANNEL, RngStream, X0_CHANNEL
from .ssd import RunTrace, SsdConfig, TraceEntry, _check_ints, run_ssd
from .vrssd import _check_vrssd_config, run_vrssd

RUNNERS = {
    "ssd": run_ssd,
    "vrssd": run_vrssd,
    "gd": run_fd_gd,
    "bfgs": run_fd_bfgs,
}

CSV_COLUMNS = ("solver", "trial", "iter", "evals", "f", "step", "dirnorm")


def _int_param(params: dict, key: str, default: int = 0, what: str = "problem parameter") -> int:
    value = float(params.get(key, default))
    if not value.is_integer():
        raise ConfigurationError(f"{what} {key!r} must be an integer, got {value!r}")
    return int(value)


def _build_nesterov(params: dict) -> Objective:
    return nesterov_worst(float(params["l"]), _int_param(params, "r"), _int_param(params, "d"))


def _build_quadratic(params: dict) -> Objective:
    return isotropic_quadratic(_int_param(params, "d"))


def _build_lstsq(params: dict) -> Objective:
    m = _int_param(params, "m")
    d = _int_param(params, "d")
    rank = _int_param(params, "rank", min(m, d))
    seed = _int_param(params, "seed")
    if seed < 0:
        raise ConfigurationError(f"problem parameter 'seed' must be nonnegative, got {seed}")
    if not 1 <= rank <= min(m, d):
        raise ConfigurationError(f"need 1 <= rank <= min(m, d), got rank={rank}")
    gen = RngStream(seed, PROBLEM_CHANNEL, 0).generator()
    left = gen.standard_normal((m, rank))
    right = gen.standard_normal((d, rank))
    A = left @ right.T / np.sqrt(rank)
    b = gen.standard_normal(m)
    return rank_deficient_least_squares(A, b)


_PROBLEM_BUILDERS = {
    "nesterov": (_build_nesterov, {"l", "r", "d"}, set()),
    "quadratic": (_build_quadratic, {"d"}, set()),
    "lstsq": (_build_lstsq, {"m", "d"}, {"rank", "seed"}),
}


@dataclass(frozen=True)
class ProblemSpec:
    """A named objective family plus its parameters, rebuildable anywhere."""

    name: str
    params: Tuple[Tuple[str, float], ...]

    @staticmethod
    def make(name: str, params: dict) -> "ProblemSpec":
        return ProblemSpec(name, tuple(sorted((k, float(v)) for k, v in params.items())))

    def build(self) -> Objective:
        if self.name not in _PROBLEM_BUILDERS:
            raise ConfigurationError(
                f"unknown problem {self.name!r}; expected one of {sorted(_PROBLEM_BUILDERS)}"
            )
        builder, required, optional = _PROBLEM_BUILDERS[self.name]
        params = dict(self.params)
        missing = required - params.keys()
        if missing:
            raise ConfigurationError(
                f"problem {self.name!r} is missing parameters {sorted(missing)}"
            )
        unknown = params.keys() - required - optional
        if unknown:
            raise ConfigurationError(
                f"problem {self.name!r} got unknown parameters {sorted(unknown)}"
            )
        return builder(params)


@dataclass(frozen=True)
class SolverSetup:
    label: str
    kind: str
    config: SsdConfig

    def __post_init__(self):
        if self.kind not in RUNNERS:
            raise ConfigurationError(
                f"unknown solver kind {self.kind!r}; expected one of {sorted(RUNNERS)}"
            )


@dataclass(frozen=True)
class ExperimentSpec:
    """Paired trials of several solvers on one problem.

    ``x0`` is ``("zeros",)``, ``("uniform", lo, hi)`` or ``("gaussian", sigma)``;
    ``threshold`` is ``("absolute", value)``, ``("fraction", p)`` with
    p in (0, 1] marking f(x0) - p (f(x0) - fmin), or None to keep each
    solver's own target.

    Making a spec checks it against the built problem, evaluating nothing:
    bad input raises :class:`ConfigurationError` before any run.  The
    check keeps that problem's known minimum as ``minimum_value``.
    """

    problem: ProblemSpec
    solvers: Tuple[SolverSetup, ...]
    trials: int
    x0: Tuple = ("zeros",)
    threshold: Optional[Tuple] = None
    base_seed: int = 0
    minimum_value: Optional[float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_ints(self, "trials", "base_seed")
        if self.trials < 1:
            raise ConfigurationError(f"need at least one trial, got {self.trials}")
        if not self.solvers:
            raise ConfigurationError("experiment defines no solvers")
        labels = [s.label for s in self.solvers]
        if len(set(labels)) != len(labels):
            raise ConfigurationError(f"duplicate solver labels in {labels}")
        try:
            obj = self.problem.build()
            _sample_x0(self.x0, obj.d, RngStream(self.base_seed, X0_CHANNEL, 0))
        except ConfigurationError:
            raise
        except (ValueError, MemoryError) as exc:
            # numpy refuses an array of the problem's size ("Maximum allowed
            # dimension exceeded", "Unable to allocate ...").
            raise ConfigurationError(
                f"cannot set up problem {self.problem.name!r}: {exc}") from None
        object.__setattr__(self, "minimum_value", obj.minimum_value)
        target = {} if self.threshold is None else {
            "target_value": _threshold_level(self.threshold, obj.minimum_value, lambda: None)}
        for setup in self.solvers:
            if setup.kind == "vrssd":
                _check_vrssd_config(setup.config, f"solver {setup.label!r} of kind 'vrssd'")
            cfg = replace(setup.config, seed=self.base_seed, **target)
            cfg.check(obj)
            if setup.kind == "bfgs":
                _check_bfgs_rule(cfg)


@dataclass(frozen=True)
class TraceRecord:
    solver: str
    trial: int
    trace: RunTrace


# The numbers each x0 sampler and threshold rule takes after its name.
_X0_FORMS = {"zeros": (), "uniform": ("lo", "hi"), "gaussian": ("sigma",)}
_THRESHOLD_FORMS = {"absolute": ("value",), "fraction": ("p",)}


def _rule_numbers(rule: Tuple, what: str, forms: dict) -> Tuple[str, Tuple[float, ...]]:
    """``rule``, the tuple ``(name, *numbers)``, as its name and its numbers
    in floats, refused unless ``forms`` gives the name that many numbers."""
    name = rule[0] if len(rule) else None
    if name not in forms:
        raise ConfigurationError(f"unknown {what} {name!r}; expected one of {sorted(forms)}")
    usage = f"{what} {name!r} takes the numbers {forms[name]!r}, got {tuple(rule)!r}"
    if len(rule) != 1 + len(forms[name]):
        raise ConfigurationError(usage)
    try:
        return name, tuple(float(value) for value in rule[1:])
    except (TypeError, ValueError):
        raise ConfigurationError(usage) from None


def _sample_x0(rule: Tuple, d: int, stream: RngStream) -> np.ndarray:
    kind, args = _rule_numbers(rule, "x0 sampler", _X0_FORMS)
    if kind == "zeros":
        return np.zeros(d)
    gen = stream.generator()
    if kind == "uniform":
        lo, hi = args
        if not (lo < hi and math.isfinite(hi - lo)):
            raise ConfigurationError(
                f"need lo < hi with a finite width for uniform x0, got [{lo}, {hi}]"
            )
        return gen.uniform(lo, hi, size=d)
    sigma, = args
    if not 0 < sigma < math.inf:
        raise ConfigurationError(f"gaussian x0 needs a finite sigma > 0, got {sigma}")
    return sigma * gen.standard_normal(d)


def _threshold_level(rule: Tuple, fmin: Optional[float], start) -> float:
    """Success level of ``("absolute", v)`` or ``("fraction", p)``.

    The fraction rule marks f0 - p (f0 - fmin).  ``start()`` supplies f0 and
    is called only after p and the known minimum have been checked; None (no
    starting value) or a non-finite f0 gives a level no run can reach.
    """
    kind, (value,) = _rule_numbers(rule, "threshold rule", _THRESHOLD_FORMS)
    if kind == "absolute":
        return value
    if not 0 < value <= 1:
        raise ConfigurationError(f"fraction threshold needs p in (0, 1], got {value}")
    if fmin is None:
        raise ConfigurationError("fraction threshold needs a known minimum value")
    f0 = start()
    return -math.inf if f0 is None or not math.isfinite(f0) else f0 - value * (f0 - fmin)


def _resolve_threshold(rule: Optional[Tuple], obj: Objective, x0) -> Optional[float]:
    if rule is None:
        return None
    # f(x0) is a bookkeeping evaluation, deliberately outside the charged counter.
    return _threshold_level(
        rule, obj.minimum_value, lambda: float(obj.evaluator(np.asarray(x0, float)))
    )


def _run_single(spec: ExperimentSpec, task: Tuple[int, int]) -> TraceRecord:
    solver_index, trial = task
    setup = spec.solvers[solver_index]
    seed = spec.base_seed + trial
    obj = spec.problem.build()
    x0 = _sample_x0(spec.x0, obj.d, RngStream(seed, X0_CHANNEL, 0))
    level = _resolve_threshold(spec.threshold, obj, x0)
    cfg = replace(setup.config, seed=seed)
    cfg = cfg if level is None else replace(cfg, target_value=level)
    trace = RUNNERS[setup.kind](obj, x0, cfg)
    return TraceRecord(setup.label, trial, trace)


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> List[TraceRecord]:
    """All (solver, trial) runs of the experiment, in deterministic order.

    ``jobs > 1`` fans the runs out to that many worker processes, or one per
    run when there are fewer runs; results are assembled in task order, so
    the output is identical either way.
    """
    tasks = [
        (si, t) for si in range(len(spec.solvers)) for t in range(spec.trials)
    ]
    # Fork starts every worker at the first submit: ask for no more than runs.
    jobs = min(jobs, len(tasks))
    if jobs <= 1:
        return [_run_single(spec, task) for task in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(partial(_run_single, spec), tasks))


# ---------------------------------------------------------------------------
# analysis


def evals_to_threshold(trace: RunTrace, threshold: float) -> float:
    """Evaluations charged when the recorded f first crossed the threshold
    (inf if it never did)."""
    for entry in trace.entries:
        if entry.f <= threshold:
            return float(entry.evals)
    return math.inf


def _counts_to_threshold(
    records: List[TraceRecord],
    threshold: Optional[Tuple],
    fstar: Optional[float] = None,
    targets: Optional[Dict[str, Optional[float]]] = None,
) -> Dict[str, Dict[int, float]]:
    """{solver: {trial: evaluations to success}} of the records.

    Success is crossing the ``threshold`` rule's level or, when the rule is
    None, the solver's own target in ``targets`` (never, without one).
    """
    counts: Dict[str, Dict[int, float]] = {}
    for record in records:
        if threshold is None:
            level = targets.get(record.solver)
        else:
            entries = record.trace.entries
            level = _threshold_level(threshold, fstar,
                                     lambda: entries[0].f if entries else None)
        counts.setdefault(record.solver, {})[record.trial] = (
            math.inf if level is None else evals_to_threshold(record.trace, level)
        )
    return counts


@dataclass
class PerformanceProfile:
    """Per-solver curves tau -> fraction of trials solved within tau times
    the best solver of the same trial, plus the raw per-trial eval counts
    and ratios behind them."""

    curves: Dict[str, List[Tuple[float, float]]]
    ratios: Dict[str, Dict[int, float]]
    counts: Dict[str, Dict[int, float]]


def profile_from_counts(counts: Dict[str, Dict[int, float]]) -> PerformanceProfile:
    """Profile curves from a {solver: {trial: evals-to-success}} table.

    Ratios normalize within each trial by the best count across solvers;
    unsuccessful runs (inf) keep ratio inf and stay in every denominator.
    """
    if not counts:
        raise ConfigurationError("no solvers to profile")
    least = min((m for per in counts.values() for m in per.values()), default=1.0)
    if not least > 0:
        raise ConfigurationError(f"evaluation counts must be positive, got {least!r}")
    trials = sorted({t for per in counts.values() for t in per})
    best = {
        t: min((per[t] for per in counts.values() if t in per), default=math.inf)
        for t in trials
    }
    ratios: Dict[str, Dict[int, float]] = {}
    for solver, per in counts.items():
        ratios[solver] = {
            t: (m / best[t] if math.isfinite(m) else math.inf) for t, m in per.items()
        }
    finite = sorted({r for per in ratios.values() for r in per.values() if math.isfinite(r)})
    if not finite:
        raise NoSuccessError("no run reached the threshold")
    curves = {}
    for solver, per in ratios.items():
        values = sorted(per.values())
        n = len(values)
        curves[solver] = [
            (tau, sum(1 for r in values if r <= tau) / n) for tau in finite
        ]
    return PerformanceProfile(curves, ratios, dict(counts))


def performance_profile(
    records: List[TraceRecord],
    threshold: Tuple,
    fstar: Optional[float] = None,
) -> PerformanceProfile:
    """Profile of recorded runs against a success threshold.

    Raises :class:`NoSuccessError` naming the threshold when nothing
    succeeded.
    """
    if not records:
        raise ConfigurationError("no traces to profile")
    try:
        return profile_from_counts(_counts_to_threshold(records, threshold, fstar))
    except NoSuccessError:
        raise NoSuccessError(f"no run reached the threshold {threshold!r}") from None


def estimate_linear_rate(trace: RunTrace, fstar: float) -> Tuple[float, float]:
    """Least-squares per-iteration contraction of f - fstar.

    Fits log(f_k - fstar) against the iteration index k over the entries
    with f above fstar and returns (rate, r_squared); a flat trace gives
    rate 1.  Fewer than 10 usable entries is an error: the fit would be
    dominated by noise.
    """
    ks = np.array(
        [e.iteration for e in trace.entries if e.f > fstar], dtype=float
    )
    gaps = np.array([e.f - fstar for e in trace.entries if e.f > fstar])
    if len(ks) < 10:
        raise ConfigurationError(
            f"need at least 10 entries above the minimum to fit a rate, got {len(ks)}"
        )
    logs = np.log(gaps)
    slope, intercept = np.polyfit(ks, logs, 1)
    residuals = logs - (slope * ks + intercept)
    ss_res = float(residuals @ residuals)
    centered = logs - logs.mean()
    ss_tot = float(centered @ centered)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(np.exp(slope)), float(r2)


# ---------------------------------------------------------------------------
# persistence


def _trace_format(path: Path, fmt: Optional[str]) -> str:
    """``fmt``, else the suffix of ``path`` (csv without one); csv or json."""
    fmt = fmt or (path.suffix.lstrip(".") or "csv")
    if fmt not in ("csv", "json"):
        raise ConfigurationError(f"unknown trace format {fmt!r}; expected csv or json")
    return fmt


def export_traces(records: List[TraceRecord], path, fmt: Optional[str] = None) -> None:
    """Write traces as CSV (columns solver,trial,iter,evals,f,step,dirnorm)
    or JSON (entries plus terminal status).  Floats are written as their
    shortest round-tripping decimal, so import reproduces them bit-exactly.
    """
    path = Path(path)
    fmt = _trace_format(path, fmt)
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for record in records:
                writer.writerows(
                    [record.solver, record.trial, e.iteration, e.evals,
                     repr(e.f), repr(e.step), repr(e.dirnorm)]
                    for e in record.trace.entries
                )
        return
    payload = {
        "traces": [
            {
                "solver": record.solver,
                "trial": record.trial,
                "terminal_status": record.trace.terminal_status,
                "entries": [
                    [e.iteration, e.evals, e.f, e.step, e.dirnorm]
                    for e in record.trace.entries
                ],
            }
            for record in records
        ]
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def import_traces(path, fmt: Optional[str] = None) -> List[TraceRecord]:
    """Read traces written by :func:`export_traces`.

    CSV carries no terminal status, so traces read back from it have
    ``terminal_status=None``.  A file that cannot be read or is malformed
    raises :class:`ConfigurationError` naming it (and the line, for CSV).
    """
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"trace file {path} does not exist")
    fmt = _trace_format(path, fmt)
    try:
        with open(path, newline="") as fh:
            return _read_csv_traces(fh, path) if fmt == "csv" else _read_json_traces(fh, path)
    except OSError as exc:
        raise ConfigurationError(f"cannot read trace file {path}: {exc.strerror or exc}") from None
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ConfigurationError(f"malformed trace file {path}: {exc}") from None


def _read_csv_traces(fh, path: Path) -> List[TraceRecord]:
    grouped: Dict[Tuple[str, int], List[TraceEntry]] = {}
    reader = csv.reader(fh)
    header = next(reader, None)
    if header != list(CSV_COLUMNS):
        raise ConfigurationError(f"unexpected trace header {header!r} in {path}")
    for row in reader:
        try:
            solver, trial, it, evals, f, step, dirnorm = row
            trial = int(trial)
            entry = TraceEntry(int(it), int(evals), float(f), float(step), float(dirnorm))
        except ValueError:
            raise ConfigurationError(
                f"malformed trace row {row!r} in {path} at line {reader.line_num}"
            ) from None
        grouped.setdefault((solver, trial), []).append(entry)
    # Runs come back in the order their first rows appear.
    return [TraceRecord(solver, trial, RunTrace(entries, None))
            for (solver, trial), entries in grouped.items()]


def _json_count(value) -> int:
    """A count as JSON writes an int; 1.5, 1.0 and true are refused, as CSV refuses 1.5."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"count {value!r} is not an integer")
    return value


def _json_entry(e) -> TraceEntry:
    if len(e) != 5:
        raise ValueError(f"entry {e!r} does not have the 5 fields iter, evals, f, step, dirnorm")
    return TraceEntry(_json_count(e[0]), _json_count(e[1]), float(e[2]), float(e[3]), float(e[4]))


def _read_json_traces(fh, path: Path) -> List[TraceRecord]:
    try:
        records = []
        for item in json.load(fh)["traces"]:
            if not isinstance(item["solver"], str):
                raise TypeError(f"solver name {item['solver']!r} is not a string")
            status = item["terminal_status"]
            if status is not None and not isinstance(status, str):
                raise TypeError(f"terminal status {status!r} is not a string or null")
            entries = [_json_entry(e) for e in item["entries"]]
            records.append(TraceRecord(item["solver"], _json_count(item["trial"]),
                                       RunTrace(entries, status)))
        return records
    except (ValueError, TypeError, KeyError, IndexError, OverflowError) as exc:
        raise ConfigurationError(
            f"malformed JSON trace file {path}: {type(exc).__name__}: {exc}"
        ) from None
