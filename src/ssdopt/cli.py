"""Command line interface.

Three subcommands: ``run`` (one solver on one problem), ``sweep`` (a config
file of paired solver runs), ``profile`` (performance profile of saved
traces).  Every run prints its fully resolved configuration first, defaults
and seed included, so the printed block is enough to reproduce it.  All
randomness flows from ``--seed`` (or the ``SSD_SEED`` environment variable
when the flag is absent); nothing is taken from the clock.

Every solver option is one row of ``_OPTIONS``: its flag and INI key, its
default text, its parser, its printed form, its help text and the solver
kinds that take it.  The ``run`` flags, the keys a ``[solver NAME]`` section
accepts, the config built from either and the printed ``[run]`` and
``[solver NAME]`` blocks all come from that table, so ``run`` and ``sweep``
cannot disagree on a default, and an option that a solver kind does not take
is an error rather than ignored.  Problems, step rules, x0 samplers and
thresholds are spec strings (``theory``, ``fixed:0.001``,
``uniform:-1.0,1.0``, ``nesterov:d=101,l=8,r=10``) read by one parser,
``_parse_spec``, and written back by one formatter, ``_format_spec``.

Exit codes: 0 success, 1 no run reached the requested threshold,
2 configuration or usage error, found before any evaluation or output.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import statistics
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, Optional

from . import __version__
from .bench import (
    _PROBLEM_BUILDERS,
    _THRESHOLD_FORMS,
    _X0_FORMS,
    ExperimentSpec,
    ProblemSpec,
    RUNNERS,
    SolverSetup,
    _counts_to_threshold,
    _int_param,
    _run_single,
    _threshold_level,
    _trace_format,
    export_traces,
    import_traces,
    performance_profile,
    run_experiment,
)
from .errors import ConfigurationError, NoSuccessError
from .oracle import _FD_KINDS, FdScheme
from .sketch import DISTRIBUTIONS
from .ssd import ArmijoStep, FixedStep, SsdConfig, TheoreticalStep
from .vrssd import _ETA_MODES, _OPTIONS as _ANCHOR_OPTIONS, VrssdConfig


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


# ---------------------------------------------------------------------------
# spec strings

# The arguments each spec name takes: a tuple names its positional numbers,
# a set lists the keys it takes as k=v.  The x0 and threshold forms are
# bench's, which checks a rule tuple against them too.
_PROBLEM_FORMS = {name: required | optional
                  for name, (_, required, optional) in _PROBLEM_BUILDERS.items()}
_STEP_FORMS = {"theory": (), "fixed": ("alpha",),
               "armijo": {f.name for f in fields(ArmijoStep)}}


def _parse_spec(text: str, what: str, forms: dict):
    """Read ``name``, ``name:a,b`` or ``name:k=v,k=v`` as ``forms`` allows.

    Returns the name and its numbers: a tuple in the positional form, a dict
    in the keyword form.
    """
    name, _, tail = text.partition(":")
    if name not in forms:
        raise ConfigurationError(f"unknown {what} {name!r}; expected one of {sorted(forms)}")
    form = forms[name]
    pieces = tail.split(",") if tail else []
    if isinstance(form, tuple):
        if len(pieces) != len(form):
            usage = name + (":" + ",".join(form) if form else "")
            raise ConfigurationError(f"{what} {name!r} is written {usage!r}, got {text!r}")
        return name, tuple(_float(p, f"{what} {name!r} {arg}") for p, arg in zip(pieces, form))
    params = {}
    for piece in pieces:
        key, sep, value = piece.partition("=")
        if not sep or key not in form:
            raise ConfigurationError(
                f"bad {what} parameter {piece!r} in {text!r}; expected k=v with k in {sorted(form)}"
            )
        params[key] = _float(value, f"{what} parameter {key!r}")
    return name, params


def _format_spec(name: str, args=()) -> str:
    """The spec string ``_parse_spec`` reads back as ``(name, args)``."""
    if isinstance(args, dict):
        pieces = [f"{k}={v!r}" for k, v in args.items()]
    else:
        pieces = [repr(v) for v in args]
    return name + (":" + ",".join(pieces) if pieces else "")


def _parse_problem(text: str) -> ProblemSpec:
    return ProblemSpec.make(*_parse_spec(text, "problem", _PROBLEM_FORMS))


def _format_problem(spec: ProblemSpec) -> str:
    # Integer-valued parameters print without a decimal point.
    return _format_spec(spec.name, {k: int(v) if v.is_integer() else v for k, v in spec.params})


def _parse_step(text: str, what: str):
    name, args = _parse_spec(text, what, _STEP_FORMS)
    if name == "theory":
        return TheoreticalStep()
    if name == "fixed":
        return FixedStep(*args)
    if "max_backtracks" in args:
        args["max_backtracks"] = _int_param(args, "max_backtracks", what="armijo parameter")
    return ArmijoStep(**args)


def _format_step(rule) -> str:
    if isinstance(rule, TheoreticalStep):
        return "theory"
    if isinstance(rule, FixedStep):
        return _format_spec("fixed", (rule.alpha,))
    return _format_spec("armijo", asdict(rule))


def _parse_rule(text: str, what: str, forms: dict) -> tuple:
    """An x0 sampler or threshold rule as the tuple ``(name, *numbers)``."""
    name, args = _parse_spec(text, what, forms)
    return (name, *args)


def _format_rule(rule: tuple) -> str:
    return _format_spec(rule[0], rule[1:])


# ---------------------------------------------------------------------------
# solver options


def _choice(*names, **aliases):
    """Parser for one of ``names``, or an alias mapped to one."""
    table = {**{n: n for n in names}, **aliases}

    def parse(text, what):
        if text not in table:
            raise ConfigurationError(f"unknown {what} {text!r}; expected one of {sorted(table)}")
        return table[text]

    return parse


def _parse_fd_step(text, what):
    return None if text == "auto" else _float(text, what)


def _parse_target(text, what):
    return None if text in (None, "", "none") else _float(text, what)


@dataclass(frozen=True)
class _Option:
    """One solver option: its ``run`` flag and INI key, the config field it
    sets, its default text, ``parse(text, key)``, ``show(cfg)`` for the
    printed block (the field's value when None), help, and the solver kinds
    that take it."""

    key: str
    field: str
    default: Optional[str]
    parse: Callable
    help: str
    show: Optional[Callable] = None
    kinds: frozenset = frozenset(RUNNERS)

    def shown(self, cfg: SsdConfig):
        return getattr(cfg, self.field) if self.show is None else self.show(cfg)


_VRSSD = frozenset({"vrssd"})
_SKETCHED = frozenset({"ssd", "vrssd"})
_OPTIONS = {o.key: o for o in (
    _Option("ell", "ell", "1", _int, "sketch size (ssd/vrssd)", kinds=_SKETCHED),
    _Option("sketch", "distribution", "haar", _choice(*DISTRIBUTIONS),
            "sketch distribution: " + " | ".join(DISTRIBUTIONS) + " (ssd/vrssd)",
            kinds=_SKETCHED),
    _Option("step", "step_rule", "armijo", _parse_step,
            "fixed:<alpha> | theory | armijo[:k=v,..]", show=lambda c: _format_step(c.step_rule)),
    _Option("fd", "fd", "forward", _choice(*_FD_KINDS),
            "finite differences: " + " | ".join(_FD_KINDS), show=lambda c: c.fd.kind),
    # The fd and fd-step texts are combined into one FdScheme.
    _Option("fd-step", "fd_step", "auto", _parse_fd_step,
            "finite-difference offset, 'auto' or a number",
            show=lambda c: "auto" if c.fd.step is None else repr(c.fd.step)),
    _Option("iters", "max_iters", "1000", _int, "iteration limit"),
    _Option("budget", "eval_budget", "100000", _int, "evaluation budget"),
    _Option("target", "target_value", None, _parse_target, "stop once f falls to this value",
            show=lambda c: None if c.target_value is None else repr(c.target_value)),
    _Option("m", "m", "10", _int, "inner steps per epoch (vrssd)", kinds=_VRSSD),
    _Option("option", "option", "one", _choice(*_ANCHOR_OPTIONS, **{"1": "one", "2": "two"}),
            "anchor choice: one|two (vrssd)", kinds=_VRSSD),
    _Option("eta", "eta_mode", "approx", _choice(*_ETA_MODES, **{"0": "zero", "1": "one"}),
            "control-variate weight: 0|1|exact|approx (vrssd)", kinds=_VRSSD),
    _Option("warmup", "warmup_iters", "0", _int,
            "plain steps before the first epoch (vrssd)", kinds=_VRSSD),
)}


def _config_from_options(kind: str, texts: dict, label: Callable[[str], str]) -> SsdConfig:
    """The ``kind`` solver's config from option texts keyed by option key
    (flags or INI keys); absent options take their default.  ``label(key)``
    names a given option in an error message."""
    for key in texts:
        if key not in _OPTIONS:
            raise ConfigurationError(f"unknown solver {label(key)}")
        if kind not in _OPTIONS[key].kinds:
            raise ConfigurationError(f"solver {label(key)} does not apply to kind {kind!r}")
    # gd and bfgs difference all d coordinates and take no ell.
    values = {"ell": 1, **{o.field: o.parse(texts.get(key, o.default), key)
                           for key, o in _OPTIONS.items() if kind in o.kinds}}
    values["fd"] = FdScheme(values["fd"], values.pop("fd_step"))
    return (VrssdConfig if kind == "vrssd" else SsdConfig)(**values)


def _solver_mapping(kind: str, cfg: SsdConfig) -> dict:
    return {key: o.shown(cfg) for key, o in _OPTIONS.items() if kind in o.kinds}


# ---------------------------------------------------------------------------
# output


def _resolve_seed(flag_value) -> int:
    if flag_value is not None:
        return _int(flag_value, "--seed")
    return _int(os.environ.get("SSD_SEED", "0"), "SSD_SEED")


def _print_section(title: str, mapping: dict) -> None:
    print(f"[{title}]")
    for key in sorted(mapping):
        value = mapping[key]
        print(f"{key} = {'none' if value is None else value}")
    print()


@contextmanager
def _writing(path):
    """Report a failure to write ``path`` as a configuration error."""
    try:
        yield
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc.strerror or exc}") from None


def _check_writable(path: Path) -> None:
    """Refuse an output that cannot be opened for writing before the run
    starts; the write itself comes after the run, so no file is left here."""
    made = not os.path.lexists(path)
    with _writing(path):
        open(path, "a").close()
    if made:
        path.unlink()


# ---------------------------------------------------------------------------
# run


def cmd_run(args) -> int:
    problem = _parse_problem(args.problem)
    seed = _resolve_seed(args.seed)
    given = {key: vars(args)[key] for key in _OPTIONS if vars(args)[key] is not None}
    cfg = _config_from_options(args.solver, given, lambda key: f"option --{key}")
    x0_rule = _parse_rule(args.x0, "x0 sampler", _X0_FORMS)
    spec = ExperimentSpec(problem, (SolverSetup(args.solver, args.solver, cfg),), 1, x0_rule,
                          base_seed=seed)
    out = Path(args.out)
    fmt = _trace_format(out, args.format)
    _check_writable(out)
    _print_section("run", {
        "problem": _format_problem(problem), "solver": args.solver, "seed": seed,
        "x0": _format_rule(x0_rule), "out": str(out), "format": fmt,
        **_solver_mapping(args.solver, cfg),
    })
    record = _run_single(spec, (0, 0))
    with _writing(out):
        export_traces([record], out, fmt)
    trace = record.trace
    final = trace.entries[-1] if trace.entries else None
    print(f"status = {trace.terminal_status}")
    print(f"f = {'nan' if final is None else repr(final.f)}")
    print(f"evals = {trace.charged}")
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
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",),
                                       comment_prefixes=("#", ";"))
    parser.optionxform = str
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from None
    except configparser.Error as exc:
        # configparser reports offending line numbers in a message of several lines.
        raise ConfigurationError("malformed config file: " + " ".join(str(exc).split())) from None
    if "experiment" not in parser:
        raise ConfigurationError("config file is missing the [experiment] section")
    exp = dict(parser["experiment"])
    for key in exp:
        if key not in {"problem", "trials", "x0", "threshold", "seed"}:
            line = _key_line(path, key, "experiment")
            raise ConfigurationError(f"unknown experiment key {key!r} (line {line})")
    if "problem" not in exp:
        raise ConfigurationError("[experiment] needs a problem")
    if "trials" not in exp:
        raise ConfigurationError("[experiment] needs a trial count")
    problem = _parse_problem(exp["problem"])
    trials = _int(exp["trials"], "trials")
    x0 = _parse_rule(exp.get("x0", "zeros"), "x0 sampler", _X0_FORMS)
    threshold = (_parse_rule(exp["threshold"], "threshold rule", _THRESHOLD_FORMS)
                 if "threshold" in exp else None)
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
            raise ConfigurationError(f"unknown solver kind {kind!r} in [{section}]")
        cfg = _config_from_options(
            kind, raw,
            lambda key: f"key {key!r} in [{section}] (line {_key_line(path, key, section)})",
        )
        solvers.append(SolverSetup(label, kind, cfg))
    return ExperimentSpec(problem=problem, solvers=tuple(solvers), trials=trials, x0=x0,
                          threshold=threshold, base_seed=base_seed)


def cmd_sweep(args) -> int:
    jobs = _int(args.jobs, "--jobs")
    if jobs < 1:
        raise ConfigurationError(f"--jobs must be at least 1, got {jobs}")
    path = Path(args.config)
    spec = _read_sweep_config(path)
    outdir = Path(args.out)
    trace_path = outdir / "traces.csv"
    with _writing(trace_path):
        outdir.mkdir(parents=True, exist_ok=True)
    _check_writable(trace_path)
    _print_section("experiment", {
        "problem": _format_problem(spec.problem), "trials": spec.trials,
        "x0": _format_rule(spec.x0),
        "threshold": None if spec.threshold is None else _format_rule(spec.threshold),
        "seed": spec.base_seed, "jobs": jobs, "out": args.out,
    })
    for setup in spec.solvers:
        _print_section(f"solver {setup.label}",
                       {"kind": setup.kind, **_solver_mapping(setup.kind, setup.config)})
    records = run_experiment(spec, jobs=jobs)
    with _writing(trace_path):
        export_traces(records, trace_path, "csv")
    # Without a threshold rule, success is each solver's own target.
    counts = _counts_to_threshold(
        records, spec.threshold, spec.minimum_value,
        {setup.label: setup.config.target_value for setup in spec.solvers},
    )
    print("[summary]")
    print("solver trials success median_evals")
    for setup in spec.solvers:
        mine = list(counts[setup.label].values())
        finite = [c for c in mine if c != math.inf]
        median = repr(statistics.median(finite)) if finite else "-"
        print(f"{setup.label} {len(mine)} {len(finite) / len(mine):.3f} {median}")
    print()
    print(f"traces written to {trace_path}")
    return 0


# ---------------------------------------------------------------------------
# profile


def cmd_profile(args) -> int:
    target, fraction, fstar = (
        None if text is None else _float(text, flag)
        for flag, text in (("--target", args.target), ("--fraction", args.fraction),
                           ("--fstar", args.fstar))
    )
    if target is not None and math.isnan(target):
        raise ConfigurationError("--target must be a number, got nan")
    if fstar is not None and not math.isfinite(fstar):
        raise ConfigurationError(f"--fstar must be finite, got {fstar!r}")
    if (target is None) == (fraction is None):
        raise ConfigurationError("pass exactly one of --target or --fraction")
    if fraction is not None and fstar is None:
        raise ConfigurationError("--fraction needs --fstar")
    rule = ("absolute", target) if target is not None else ("fraction", fraction)
    _threshold_level(rule, fstar, lambda: None)  # refuses p outside (0, 1]
    records = import_traces(args.traces)
    out = Path(args.out)
    _check_writable(out)
    _print_section("profile", {
        "traces": args.traces, "threshold": _format_rule(rule),
        "fstar": None if fstar is None else repr(fstar), "out": args.out,
    })
    try:
        profile = performance_profile(records, rule, fstar)
    except NoSuccessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    lines = ["solver,tau,rho"]
    for solver in sorted(profile.curves):
        for tau, rho in profile.curves[solver]:
            lines.append(f"{solver},{tau!r},{rho!r}")
    with _writing(out):
        out.write_text("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    print(f"profile written to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """argparse's usage errors (an unknown flag or command, a missing or
    refused value) raise ConfigurationError, so they print one line like
    every other refused input."""

    def error(self, message):
        raise ConfigurationError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ssdopt",
        description="Sketched descent solvers and their benchmarking harness.",
    )
    parser.add_argument("--version", action="version", version=f"ssdopt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one solver on one problem")
    run.add_argument("--problem", required=True,
                     help="nesterov:l=..,r=..,d=.. | quadratic:d=.. | lstsq:m=..,d=..[,rank=..,seed=..]")
    run.add_argument("--solver", choices=sorted(RUNNERS), default="ssd")
    for key, o in _OPTIONS.items():
        # None marks a flag not given, so a solver kind can refuse the given ones.
        run.add_argument(f"--{key}", dest=key, default=None,
                         help=f"{o.help} (default: {o.default or 'none'})")
    run.add_argument("--seed", default=None,
                     help="defaults to the SSD_SEED environment variable, then 0")
    run.add_argument("--x0", default="zeros", help="zeros | uniform:lo,hi | gaussian:sigma")
    run.add_argument("--out", default="trace.csv")
    run.add_argument("--format", choices=("csv", "json"), default=None)
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="run every solver/trial pair of a config file")
    sweep.add_argument("config", help="INI file with [experiment] and [solver NAME] sections")
    sweep.add_argument("--out", default=".", help="directory for traces.csv")
    sweep.add_argument("--jobs", default=1, help="worker processes")
    sweep.set_defaults(func=cmd_sweep)

    profile = sub.add_parser("profile", help="performance profile of saved traces")
    profile.add_argument("--traces", required=True, help="trace file written by run or sweep")
    profile.add_argument("--target", default=None, help="absolute success threshold")
    profile.add_argument("--fraction", default=None,
                         help="success = closing this fraction of the gap f(x0) - fstar")
    profile.add_argument("--fstar", default=None, help="minimum value, for --fraction")
    profile.add_argument("--out", default="profile.csv")
    profile.set_defaults(func=cmd_profile)
    return parser


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _numbers_as_values(argv) -> list:
    """``--flag -1e-3`` as ``--flag=-1e-3``.

    argparse takes a word that starts with '-' for an option unless it looks
    like -1 or -0.5, so -1e-3 or -inf after a flag would be refused.  Every
    long flag here but --help and --version takes one value.
    """
    out = []
    for arg in argv:
        flag = out[-1] if out else ""
        if (arg.startswith("-") and _is_number(arg) and flag.startswith("--")
                and "=" not in flag and flag not in ("--", "--help", "--version")):
            out[-1] = f"{flag}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_numbers_as_values(sys.argv[1:] if argv is None else argv))
        return args.func(args)
    except SystemExit as exc:  # --help and --version
        return 0 if exc.code in (0, None) else int(exc.code)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
