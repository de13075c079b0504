"""Command-line front end.

Exit codes: 0 success, 2 validation error (bad files/flags), 3 estimation
error (empty cells, vacuous identification), 1 a forked worker that died
before it returned its task (``WorkerDied``). Errors go to stderr as one JSON
object {code, message, context}; results go to stdout as schema-versioned JSON
or CSV. Identical invocations produce byte-identical output.

Stderr also carries, one JSON line each: ``simulate``'s row of an
assumption set with failed replicates (code ``FailedReplicates``), and,
under ``--timings``, a bound command's stage timings in seconds of the
process's wall clock: ``load_s``, ``bound_s``, ``bootstrap_s`` (0 without a
CI) and ``emit_s``. Neither changes stdout or the exit code.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
import warnings
from functools import partial

from . import bounds as _bounds
from . import extensions as _ext
from . import inference as _inf
from . import simulation as _sim
from .data import (
    MONO_NEGATIVE,
    MONO_POSITIVE,
    WITHOUT_MONOTONICITY,
    AssumptionSet,
    load_multi_csv,
    load_panel_csv,
    load_rcs_csv,
)
from .errors import DataWarning, DidBoundsError, EstimationError, ValidationError

SCHEMA = 1

ASSUMPTION_FLAGS = {
    "nomono": WITHOUT_MONOTONICITY,
    "mono-pos": MONO_POSITIVE,
    "mono-neg": MONO_NEGATIVE,
}


def _parse_assumptions(name: str, param: str) -> AssumptionSet:
    if name not in ASSUMPTION_FLAGS:
        raise ValidationError(f"unknown assumption set {name!r}")
    base = ASSUMPTION_FLAGS[name]
    dominance = {"ono": "5a", "nno": "5b", "noo": "5c"}.get(param)
    if dominance is None:
        return base
    if name != "mono-pos":
        raise ValidationError(f"parameter {param} requires --assumptions mono-pos")
    return AssumptionSet(
        "with_monotonicity",
        "positive",
        joint_independence=True,
        mean_dominance=dominance,
    )


def _emit(payload: dict, output: str) -> str:
    """The text of a payload: indented JSON, or a CSV header and one row.

    A NaN or infinity is refused (``ValueError``), never printed.
    """
    text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    if output == "json":
        return text
    flat = _flatten(payload)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(flat.keys())
    writer.writerow(flat.values())
    return buf.getvalue()


def _flatten(d: dict, prefix: str = "") -> dict:
    out = {}
    for key, value in d.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(_flatten(value, name + "."))
        elif isinstance(value, list):
            out[name] = ";".join(str(v) for v in value)
        else:
            out[name] = value
    return out


def _collect_warnings(caught) -> list:
    return [str(w.message) for w in caught if issubclass(w.category, DataWarning)]


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _add_ci_flags(sub):
    sub.add_argument("--ci", choices=["none", "union", "im"], default="none")
    # None where not given, so that one given without a CI is an error
    sub.add_argument("--boot", type=int, default=None)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--output", choices=["json", "csv"], default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="didbounds")
    commands = parser.add_subparsers(dest="command", required=True)

    p_bounds = commands.add_parser("bounds", help="two-period panel bounds")
    p_bounds.add_argument("--data", required=True)
    p_bounds.add_argument("--param", choices=["ooo", "ono", "nno", "noo"], default="ooo")
    p_bounds.add_argument("--assumptions", default="mono-pos")
    p_bounds.add_argument("--support-y00", type=_finite_float, default=None)
    p_bounds.add_argument("--support-y01", type=_finite_float, default=None)
    p_bounds.add_argument("--support-y10", type=_finite_float, default=None)
    _add_ci_flags(p_bounds)
    p_bounds.set_defaults(handler=partial(_bound_command, load_panel_csv, _panel_fn))

    p_rcs = commands.add_parser("bounds-rcs", help="repeated cross-section bounds")
    p_rcs.add_argument("--data", required=True)
    p_rcs.add_argument("--variant", choices=["level", "trend"], default="level")
    p_rcs.add_argument("--assumptions", choices=["nomono", "mono-pos"], default="mono-pos")
    _add_ci_flags(p_rcs)
    p_rcs.set_defaults(handler=partial(_bound_command, load_rcs_csv, _rcs_fn))

    p_stag = commands.add_parser("bounds-staggered", help="staggered 2x2 bounds")
    p_stag.add_argument("--data", required=True)
    p_stag.add_argument("--gamma", type=int, required=True)
    p_stag.add_argument("--t", type=int, required=True)
    p_stag.add_argument("--assumptions", default="mono-pos")
    p_stag.add_argument("--output", choices=["json", "csv"], default="json")
    p_stag.set_defaults(handler=partial(_bound_command, load_multi_csv, _staggered_fn))
    for sub in (p_bounds, p_rcs, p_stag):
        sub.add_argument("--timings", action="store_true",
                         help="write the stage timings to stderr as one JSON line")

    p_naive = commands.add_parser("naive", help="naive DiD on observed units")
    p_naive.add_argument("--data", required=True)
    p_naive.add_argument("--design", choices=["panel", "rcs"], default="panel")
    p_naive.add_argument("--output", choices=["json", "csv"], default="json")
    p_naive.set_defaults(handler=_naive_command)

    p_strata = commands.add_parser("strata", help="latent strata proportions")
    p_strata.add_argument("--data", required=True)
    p_strata.add_argument("--output", choices=["json", "csv"], default="json")
    p_strata.set_defaults(handler=_strata_command)

    p_sim = commands.add_parser("simulate", help="Monte Carlo replication study")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--reps", type=int, required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--assumptions", default="mono-pos,nomono")
    p_sim.add_argument("--coverage", choices=["att", "interval"], default="att")
    # None where not given, so that one given with --coverage att is an error
    p_sim.add_argument("--oracle-draws", type=int, default=None)
    p_sim.add_argument("--att", type=_finite_float, default=4.0)
    p_sim.set_defaults(handler=_simulate_command)

    p_oracle = commands.add_parser("oracle", help="true values by numerical integration")
    p_oracle.add_argument("--mc-draws", type=int, default=10_000_000)
    p_oracle.add_argument("--seed", type=int, required=True)
    p_oracle.add_argument("--att", type=_finite_float, default=4.0)
    p_oracle.add_argument("--selection-shift", type=_finite_float, default=1.5)
    p_oracle.set_defaults(handler=_oracle_command)
    return parser


def _panel_fn(args):
    assumptions = _parse_assumptions(args.assumptions, args.param)
    bound = getattr(_bounds, f"bounds_tau_{args.param}")
    overrides = {"y00_lb": args.support_y00, "y01_lb": args.support_y01,
                 "y10_lb": args.support_y10}
    used = _bounds._FORMULAS[f"tau_{args.param.upper()}"].support_minima
    unused = [f"--support-{key[:3]}" for key, value in overrides.items()
              if value is not None and key not in used]
    if unused:
        raise ValidationError(f"{', '.join(unused)}: not a support minimum of the "
                              f"{args.param} bound", flags=unused)
    if used:
        return lambda d: bound(d, assumptions, overrides)
    return lambda d: bound(d, assumptions)


def _rcs_fn(args):
    variant = {"level": "LevelEquality", "trend": "TrendEquality"}[args.variant]
    assumptions = ASSUMPTION_FLAGS[args.assumptions]
    return lambda d: _ext.bounds_tau_oo_rcs(d, variant, assumptions)


def _staggered_fn(args):
    assumptions = _parse_assumptions(args.assumptions, "ooo")
    target = _ext.StaggeredTarget(args.gamma, args.t)
    return lambda d: _ext.bounds_staggered(d, target, assumptions)


def _bound_command(load, build, args, caught) -> str:
    """Check the flags, then load, bound, attach a CI where the command has
    ``--ci``, and emit. A flag error is raised before the file is read."""
    fn = build(args)
    wants_ci = getattr(args, "ci", "none") != "none"
    given = [flag for flag in ("--boot", "--seed")
             if getattr(args, flag[2:], None) is not None]
    if given and not wants_ci:
        raise ValidationError(f"{', '.join(given)}: no CI is requested (--ci none)",
                              flags=given)
    if wants_ci:
        if args.seed is None:
            raise ValidationError("--seed is required when a CI is requested")
        spec = _inf.BootstrapSpec(200 if args.boot is None else args.boot, args.seed)
    clock = [time.perf_counter()]
    data = load(args.data)
    clock.append(time.perf_counter())
    result = fn(data)
    clock.append(time.perf_counter())
    payload = {"schema": SCHEMA, **result.to_dict()}
    if wants_ci:
        boot = _inf.bootstrap_ses(data, fn, spec)
        method = _inf.ci_union if args.ci == "union" else _inf.ci_imbens_manski
        ci = method(result.lb, result.ub, boot.se_lb, boot.se_ub)
        ci.reps_used, ci.failed_reps = boot.reps_used, boot.failed_reps
        payload["ci"] = ci.to_dict()
    clock.append(time.perf_counter())
    payload["warnings"] = _collect_warnings(caught) + payload["warnings"]
    text = _emit(payload, args.output)
    clock.append(time.perf_counter())
    if args.timings:
        stages = ("load_s", "bound_s", "bootstrap_s", "emit_s")
        sys.stderr.write(json.dumps({stage: b - a for stage, a, b in
                                     zip(stages, clock, clock[1:])}) + "\n")
    return text


def _naive_command(args, caught) -> str:
    load, naive = {"panel": (load_panel_csv, _bounds.naive_did),
                   "rcs": (load_rcs_csv, _ext.naive_did_rcs)}[args.design]
    value = naive(load(args.data))
    return _emit({"schema": SCHEMA, "naive_did": value,
                  "warnings": _collect_warnings(caught)}, args.output)


def _strata_command(args, caught) -> str:
    data = load_panel_csv(args.data)
    mix = _bounds.strata_proportions(data)
    counts = {f"s0={s0},s1={s1},d={d}": data.cells.count(d, s0, s1)
              for s0 in (0, 1) for s1 in (0, 1) for d in (0, 1)}
    return _emit({"schema": SCHEMA, "proportions": mix.to_dict(), "cell_counts": counts,
                  "warnings": _collect_warnings(caught) + mix.warnings}, args.output)


def _simulate_command(args, caught) -> str:
    draws = {} if args.oracle_draws is None else {"oracle_draws": args.oracle_draws}
    if draws and args.coverage != "interval":
        raise ValidationError("--oracle-draws: no true interval is needed (--coverage att)",
                              flags=["--oracle-draws"])
    config = _sim.DgpConfig(n=args.n, att=args.att, seed=args.seed)
    names = [a.strip() for a in args.assumptions.split(",") if a.strip()]
    rows = _sim.run_monte_carlo(config, args.reps, names, coverage=args.coverage, **draws)
    for row in rows:
        if row.failed_reps:
            sys.stderr.write(json.dumps({
                "code": "FailedReplicates",
                "message": f"{row.failed_reps} of {row.reps} replicates failed "
                           f"under {row.assumption_set}",
                "context": {"assumption_set": row.assumption_set,
                            "failed_reps": row.failed_reps, "reps": row.reps},
            }) + "\n")
    return _sim.monte_carlo_csv(rows)


def _oracle_command(args, caught) -> str:
    config = _sim.DgpConfig(n=2, att=args.att, selection_shift=args.selection_shift)
    result = _sim.oracle_true_values(config, args.mc_draws, seed=args.seed)
    return _emit({"schema": SCHEMA, **result.to_dict()}, "json")


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0

    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", DataWarning)
            sys.stdout.write(args.handler(args, caught))
    except DidBoundsError as exc:
        sys.stderr.write(json.dumps(exc.to_dict()) + "\n")
        if isinstance(exc, ValidationError):
            return 2
        return 3 if isinstance(exc, EstimationError) else 1  # 1: a WorkerDied
    except OSError as exc:
        sys.stderr.write(
            json.dumps({"code": "IOError", "message": str(exc), "context": {}}) + "\n"
        )
        return 2
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
