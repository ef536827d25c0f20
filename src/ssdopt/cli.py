"""Command line interface.

Three subcommands: ``run`` (one solver on one problem), ``sweep`` (a config
file of paired solver runs), ``profile`` (performance profile of saved
traces).  Every run prints its fully resolved configuration first, defaults
and seed included, so the printed block is enough to reproduce it.  All
randomness flows from ``--seed`` (or the ``SSD_SEED`` environment variable
when the flag is absent); nothing is taken from the clock.

Exit codes: 0 success, 1 no run reached the requested threshold,
2 configuration or usage error.
"""

from __future__ import annotations

import argparse
import configparser
import os
import statistics
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .bench import (
    ExperimentSpec,
    ProblemSpec,
    RUNNERS,
    SolverSetup,
    TraceRecord,
    _int_param,
    _sample_x0,
    _threshold_for_trace,
    evals_to_threshold,
    export_traces,
    import_traces,
    performance_profile,
    run_experiment,
)
from .errors import ConfigurationError, NoSuccessError
from .oracle import FdScheme
from .sketch import DISTRIBUTIONS, RngStream, X0_CHANNEL
from .ssd import ArmijoStep, FixedStep, SsdConfig, TheoreticalStep
from .vrssd import VrssdConfig

_ETA_ALIASES = {"0": "zero", "1": "one", "zero": "zero", "one": "one",
                "exact": "exact", "approx": "approx"}
_OPTION_ALIASES = {"1": "one", "2": "two", "one": "one", "two": "two"}


def _int(text, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigurationError(f"{what} must be an integer, got {text!r}") from None


def _float(text, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigurationError(f"{what} must be a number, got {text!r}") from None


def _parse_spec_string(text: str, what: str):
    """Split ``name:k=v,k=v`` into a name and a key-value dict."""
    name, _, tail = text.partition(":")
    if not name:
        raise ConfigurationError(f"empty {what} specification {text!r}")
    params = {}
    if tail:
        for piece in tail.split(","):
            key, sep, value = piece.partition("=")
            if not sep or not key:
                raise ConfigurationError(
                    f"malformed {what} parameter {piece!r} in {text!r}"
                )
            try:
                params[key] = float(value)
            except ValueError:
                raise ConfigurationError(
                    f"{what} parameter {key!r} has non-numeric value {value!r}"
                ) from None
    return name, params


def _parse_problem(text: str) -> ProblemSpec:
    name, params = _parse_spec_string(text, "problem")
    spec = ProblemSpec.make(name, params)
    spec.build()  # validate eagerly so errors surface before any run
    return spec


def _parse_step(text: str):
    name, _, tail = text.partition(":")
    if name == "theory":
        if tail:
            raise ConfigurationError("the theory step rule takes no parameters")
        return TheoreticalStep()
    if name == "fixed":
        try:
            return FixedStep(float(tail))
        except ValueError:
            raise ConfigurationError(
                f"fixed step needs a numeric size, got {tail!r}"
            ) from None
    if name == "armijo":
        rule = ArmijoStep()
        if tail:
            _, params = _parse_spec_string("armijo:" + tail, "step rule")
            known = {"c1", "shrink", "alpha_init", "max_backtracks"}
            unknown = params.keys() - known
            if unknown:
                raise ConfigurationError(
                    f"unknown armijo parameters {sorted(unknown)}"
                )
            if "max_backtracks" in params:
                params["max_backtracks"] = _int_param(
                    params, "max_backtracks", what="armijo parameter"
                )
            rule = replace(rule, **params)
        return rule
    raise ConfigurationError(
        f"unknown step rule {name!r}; expected fixed:<alpha>, theory, or armijo"
    )


def _format_step(rule) -> str:
    if isinstance(rule, TheoreticalStep):
        return "theory"
    if isinstance(rule, FixedStep):
        return f"fixed:{rule.alpha!r}"
    return (
        f"armijo:c1={rule.c1!r},shrink={rule.shrink!r},"
        f"alpha_init={rule.alpha_init!r},max_backtracks={rule.max_backtracks}"
    )


def _parse_x0(text: str):
    name, _, tail = text.partition(":")
    if name == "zeros":
        return ("zeros",)
    if name == "uniform":
        parts = tail.split(",")
        if len(parts) != 2:
            raise ConfigurationError("uniform x0 needs uniform:lo,hi")
        return ("uniform", _float(parts[0], "uniform x0 bound"),
                _float(parts[1], "uniform x0 bound"))
    if name == "gaussian":
        try:
            return ("gaussian", float(tail))
        except ValueError:
            raise ConfigurationError("gaussian x0 needs gaussian:<sigma>") from None
    raise ConfigurationError(f"unknown x0 sampler {name!r}")


def _parse_threshold(text: str):
    name, _, tail = text.partition(":")
    if name in ("absolute", "fraction"):
        try:
            return (name, float(tail))
        except ValueError:
            raise ConfigurationError(
                f"{name} threshold needs a numeric value, got {tail!r}"
            ) from None
    raise ConfigurationError(f"unknown threshold rule {name!r}")


def _parse_fd_step(text: str):
    if text == "auto":
        return None
    try:
        return float(text)
    except ValueError:
        raise ConfigurationError(
            f"fd-step must be 'auto' or a number, got {text!r}"
        ) from None


def _format_params(params) -> str:
    def fmt(v: float) -> str:
        return str(int(v)) if float(v) == int(v) else repr(v)

    return ",".join(f"{k}={fmt(v)}" for k, v in params)


def _format_problem(spec: ProblemSpec) -> str:
    return spec.name + (":" + _format_params(spec.params) if spec.params else "")


def _resolve_seed(flag_value) -> int:
    if flag_value is not None:
        return int(flag_value)
    return _int(os.environ.get("SSD_SEED", "0"), "SSD_SEED")


def _print_section(title: str, mapping: dict) -> None:
    print(f"[{title}]")
    for key in sorted(mapping):
        value = mapping[key]
        print(f"{key} = {'none' if value is None else value}")
    print()


def _solver_mapping(kind: str, cfg: SsdConfig) -> dict:
    mapping = {
        "kind": kind,
        "ell": cfg.ell,
        "sketch": cfg.distribution,
        "step": _format_step(cfg.step_rule),
        "fd": cfg.fd.kind,
        "fd-step": "auto" if cfg.fd.step is None else repr(cfg.fd.step),
        "iters": cfg.max_iters,
        "budget": cfg.eval_budget,
        "target": None if cfg.target_value is None else repr(cfg.target_value),
    }
    if isinstance(cfg, VrssdConfig):
        mapping.update(
            m=cfg.m, option=cfg.option, eta=cfg.eta_mode, warmup=cfg.warmup_iters
        )
    return mapping


def _config_from_options(kind: str, opts: dict) -> SsdConfig:
    """Build a solver config from string-keyed options (flags or file keys)."""
    common = dict(
        ell=_int(opts["ell"], "ell"),
        distribution=opts["sketch"],
        step_rule=_parse_step(opts["step"]),
        fd=FdScheme(opts["fd"], _parse_fd_step(opts["fd-step"])),
        max_iters=_int(opts["iters"], "iters"),
        eval_budget=_int(opts["budget"], "budget"),
        target_value=(None if opts["target"] in (None, "", "none")
                      else _float(opts["target"], "target")),
    )
    if kind == "vrssd":
        eta = _ETA_ALIASES.get(str(opts["eta"]))
        if eta is None:
            raise ConfigurationError(f"unknown eta mode {opts['eta']!r}")
        option = _OPTION_ALIASES.get(str(opts["option"]))
        if option is None:
            raise ConfigurationError(f"unknown anchor option {opts['option']!r}")
        return VrssdConfig(
            m=_int(opts["m"], "m"), option=option, eta_mode=eta,
            warmup_iters=_int(opts["warmup"], "warmup"), **common,
        )
    return SsdConfig(**common)


_SOLVER_DEFAULTS = {
    "ell": "1",
    "sketch": "haar",
    "step": "armijo",
    "fd": "forward",
    "fd-step": "auto",
    "iters": "1000",
    "budget": "100000",
    "target": None,
    "m": "10",
    "option": "one",
    "eta": "approx",
    "warmup": "0",
}


# ---------------------------------------------------------------------------
# run


def cmd_run(args) -> int:
    problem = _parse_problem(args.problem)
    seed = _resolve_seed(args.seed)
    opts = {
        "ell": args.ell,
        "sketch": args.sketch,
        "step": args.step,
        "fd": args.fd,
        "fd-step": args.fd_step,
        "iters": args.iters,
        "budget": args.budget,
        "target": args.target,
        "m": args.m,
        "option": args.option,
        "eta": args.eta,
        "warmup": args.warmup,
    }
    cfg = replace(_config_from_options(args.solver, opts), seed=seed)
    out = Path(args.out)
    fmt = args.format or (out.suffix.lstrip(".") or "csv")
    mapping = {
        "problem": _format_problem(problem),
        "solver": args.solver,
        "seed": seed,
        "x0": args.x0,
        "out": str(out),
        "format": fmt,
    }
    mapping.update(_solver_mapping(args.solver, cfg))
    del mapping["kind"]
    _print_section("run", mapping)
    obj = problem.build()
    x0 = _sample_x0(_parse_x0(args.x0), obj.d, RngStream(seed, X0_CHANNEL, 0))
    trace = RUNNERS[args.solver](obj, x0, cfg)
    export_traces([TraceRecord(args.solver, 0, trace)], out, fmt)
    final = trace.entries[-1] if trace.entries else None
    print(f"status = {trace.terminal_status}")
    print(f"f = {'nan' if final is None else repr(final.f)}")
    print(f"evals = {obj.eval_count}")
    print(f"trace written to {out}")
    return 0


# ---------------------------------------------------------------------------
# sweep


def _key_line(path: Path, key: str, section: str) -> int:
    """Best-effort line number of a config key for error messages."""
    in_section = False
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("["):
            in_section = stripped == f"[{section}]"
        elif in_section and stripped.split("=")[0].strip() == key:
            return lineno
    return 0


def _read_sweep_config(path: Path) -> ExperimentSpec:
    parser = configparser.ConfigParser(
        interpolation=None, delimiters=("=",), comment_prefixes=("#", ";")
    )
    parser.optionxform = str
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from None
    except configparser.Error as exc:
        # configparser reports offending line numbers in its message
        raise ConfigurationError(f"malformed config file: {exc}") from None
    if "experiment" not in parser:
        raise ConfigurationError("config file is missing the [experiment] section")
    exp = dict(parser["experiment"])
    known_exp = {"problem", "trials", "x0", "threshold", "seed"}
    for key in exp:
        if key not in known_exp:
            line = _key_line(path, key, "experiment")
            raise ConfigurationError(
                f"unknown experiment key {key!r} (line {line})"
            )
    if "problem" not in exp:
        raise ConfigurationError("[experiment] needs a problem")
    if "trials" not in exp:
        raise ConfigurationError("[experiment] needs a trial count")
    problem = _parse_problem(exp["problem"])
    trials = _int(exp["trials"], "trials")
    x0 = _parse_x0(exp.get("x0", "zeros"))
    threshold = _parse_threshold(exp["threshold"]) if "threshold" in exp else None
    base_seed = _int(exp.get("seed", "0"), "seed")
    solvers = []
    for section in parser.sections():
        if section == "experiment":
            continue
        if not section.startswith("solver "):
            raise ConfigurationError(
                f"unexpected section [{section}]; solver sections look like [solver NAME]"
            )
        label = section[len("solver "):].strip()
        if not label:
            raise ConfigurationError("solver section is missing a name")
        raw = dict(parser[section])
        kind = raw.pop("kind", "ssd")
        if kind not in RUNNERS:
            raise ConfigurationError(
                f"unknown solver kind {kind!r} in [{section}]"
            )
        for key in raw:
            if key not in _SOLVER_DEFAULTS:
                line = _key_line(path, key, section)
                raise ConfigurationError(
                    f"unknown solver key {key!r} in [{section}] (line {line})"
                )
        opts = dict(_SOLVER_DEFAULTS)
        opts.update(raw)
        solvers.append(SolverSetup(label, kind, _config_from_options(kind, opts)))
    if not solvers:
        raise ConfigurationError("config file defines no solvers")
    return ExperimentSpec(
        problem=problem,
        solvers=tuple(solvers),
        trials=trials,
        x0=x0,
        threshold=threshold,
        base_seed=base_seed,
    )


def _format_rule(rule) -> str:
    return rule[0] + ":" + ",".join(repr(v) for v in rule[1:]) if len(rule) > 1 else rule[0]


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigurationError(f"--jobs must be at least 1, got {args.jobs}")
    path = Path(args.config)
    spec = _read_sweep_config(path)
    _print_section(
        "experiment",
        {
            "problem": _format_problem(spec.problem),
            "trials": spec.trials,
            "x0": _format_rule(spec.x0),
            "threshold": None if spec.threshold is None else _format_rule(spec.threshold),
            "seed": spec.base_seed,
            "jobs": args.jobs,
            "out": args.out,
        },
    )
    for setup in spec.solvers:
        _print_section(f"solver {setup.label}", _solver_mapping(setup.kind, setup.config))
    records = run_experiment(spec, jobs=args.jobs)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    trace_path = outdir / "traces.csv"
    export_traces(records, trace_path, "csv")
    fstar = spec.problem.build().minimum_value
    print("[summary]")
    print("solver trials success median_evals")
    for setup in spec.solvers:
        mine = [r for r in records if r.solver == setup.label]
        if spec.threshold is None:
            finite = [
                float(r.trace.entries[-1].evals)
                for r in mine
                if r.trace.terminal_status == "target_reached" and r.trace.entries
            ]
        else:
            levels = [
                _threshold_for_trace(spec.threshold, r.trace, fstar) for r in mine
            ]
            counts = [
                evals_to_threshold(r.trace, level) for r, level in zip(mine, levels)
            ]
            finite = [c for c in counts if c != float("inf")]
        fraction = len(finite) / len(mine) if mine else 0.0
        median = repr(statistics.median(finite)) if finite else "-"
        print(f"{setup.label} {len(mine)} {fraction:.3f} {median}")
    print()
    print(f"traces written to {trace_path}")
    return 0


# ---------------------------------------------------------------------------
# profile


def cmd_profile(args) -> int:
    if (args.target is None) == (args.fraction is None):
        raise ConfigurationError("pass exactly one of --target or --fraction")
    if args.fraction is not None and args.fstar is None:
        raise ConfigurationError("--fraction needs --fstar")
    rule = (
        ("absolute", args.target)
        if args.target is not None
        else ("fraction", args.fraction)
    )
    _print_section(
        "profile",
        {
            "traces": args.traces,
            "threshold": _format_rule(rule),
            "fstar": None if args.fstar is None else repr(args.fstar),
            "out": args.out,
        },
    )
    records = import_traces(args.traces)
    try:
        profile = performance_profile(records, rule, args.fstar)
    except NoSuccessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    lines = ["solver,tau,rho"]
    for solver in sorted(profile.curves):
        for tau, rho in profile.curves[solver]:
            lines.append(f"{solver},{tau!r},{rho!r}")
    Path(args.out).write_text("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    print(f"profile written to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssdopt",
        description="Sketched descent solvers and their benchmarking harness.",
    )
    parser.add_argument("--version", action="version", version=f"ssdopt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one solver on one problem")
    run.add_argument("--problem", required=True,
                     help="nesterov:l=..,r=..,d=.. | quadratic:d=.. | lstsq:m=..,d=..[,rank=..,seed=..]")
    run.add_argument("--solver", choices=sorted(RUNNERS), default="ssd")
    run.add_argument("--ell", type=int, default=1, help="sketch size (ssd/vrssd)")
    run.add_argument("--sketch", choices=DISTRIBUTIONS, default="haar")
    run.add_argument("--step", default="armijo", help="fixed:<alpha> | theory | armijo[:k=v,..]")
    run.add_argument("--fd", choices=("forward", "centered"), default="forward")
    run.add_argument("--fd-step", default="auto", help="finite-difference offset, 'auto' or a number")
    run.add_argument("--iters", type=int, default=1000)
    run.add_argument("--budget", type=int, default=100_000)
    run.add_argument("--target", type=float, default=None)
    run.add_argument("--seed", type=int, default=None,
                     help="defaults to the SSD_SEED environment variable, then 0")
    run.add_argument("--x0", default="zeros", help="zeros | uniform:lo,hi | gaussian:sigma")
    run.add_argument("--m", type=int, default=10, help="inner steps per epoch (vrssd)")
    run.add_argument("--option", default="one", help="anchor choice: one|two (vrssd)")
    run.add_argument("--eta", default="approx", help="control-variate weight: 0|1|exact|approx (vrssd)")
    run.add_argument("--warmup", type=int, default=0, help="plain steps before the first epoch (vrssd)")
    run.add_argument("--out", default="trace.csv")
    run.add_argument("--format", choices=("csv", "json"), default=None)
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="run every solver/trial pair of a config file")
    sweep.add_argument("config", help="INI file with [experiment] and [solver NAME] sections")
    sweep.add_argument("--out", default=".", help="directory for traces.csv")
    sweep.add_argument("--jobs", type=int, default=1, help="worker processes")
    sweep.set_defaults(func=cmd_sweep)

    profile = sub.add_parser("profile", help="performance profile of saved traces")
    profile.add_argument("--traces", required=True, help="trace file written by run or sweep")
    profile.add_argument("--target", type=float, default=None, help="absolute success threshold")
    profile.add_argument("--fraction", type=float, default=None,
                         help="success = closing this fraction of the gap f(x0) - fstar")
    profile.add_argument("--fstar", type=float, default=None, help="minimum value, for --fraction")
    profile.add_argument("--out", default="profile.csv")
    profile.set_defaults(func=cmd_profile)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
