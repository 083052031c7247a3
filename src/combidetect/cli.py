"""Command line laboratory.

Every subcommand takes --seed and is bit-reproducible: the same command line
writes the same bytes, independent of --workers.  Numbers are serialized with
17 significant digits, files are UTF-8 with LF line ends, and no output
carries a timestamp.

Exit codes: 0 success, 2 invalid configuration, 3 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from ._version import __version__
from .bounds import PROPS, BoundReport, evaluate_bound, pairs_risk_lower_bound, greedy_cover
from .classes import FAMILIES, SetClass, estimate_overlap_mgf, make_class
from .core import CapExceededError, ProblemInstance, SeededRng
from .risk import (
    curve_to_csv,
    curve_to_json,
    emax_upper_cap,
    estimate_emax0,
    estimate_risk,
    fmt17,
    nonmonotonicity_demo,
    risk_rows_to_csv,
    risk_rows_to_json,
    scan_critical_mu,
)
from .rules import TESTS

_CLASS_PARAM_FLAGS = (
    ("--n", "n"), ("--K", "K"), ("--N", "N"), ("--m", "m"), ("--k", "k"),
    ("--sqrt-n", "sqrt_n"), ("--sqrt-K", "sqrt_K"),
)


def _add_common(p: argparse.ArgumentParser, *, trials_default: int | None = 10_000):
    p.add_argument("--seed", type=int, required=True, help="master seed (required)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument("--cap", type=int, default=None, help="enumeration cap override")
    p.add_argument(
        "--workers", type=int, default=1,
        help="threads over trial chunks; they speed up kernel-bound families "
        "only, since drawing trials holds the GIL",
    )
    if trials_default is not None:
        p.add_argument("--trials", type=int, default=trials_default)


def _add_class_flags(p: argparse.ArgumentParser, *, required: bool = True):
    p.add_argument(
        "--class", dest="family", choices=sorted(FAMILIES), required=required,
        help="set class family",
    )
    for flag, dest in _CLASS_PARAM_FLAGS:
        p.add_argument(flag, dest=dest, type=int, default=None)


def _class_from_args(args) -> SetClass:
    params = {dest: getattr(args, dest) for _, dest in _CLASS_PARAM_FLAGS}
    return make_class(args.family, **params)


def _class_config(args) -> dict:
    cfg = {"class": args.family}
    for _, dest in _CLASS_PARAM_FLAGS:
        v = getattr(args, dest)
        if v is not None:
            cfg[dest] = v
    return cfg


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("--mu-grid must be start:stop:count")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 2:
        raise ValueError("--mu-grid needs count >= 2")
    return [float(v) for v in np.linspace(start, stop, count)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="combidetect",
        description="Monte Carlo laboratory for detecting a mean shift on one "
        "member of a combinatorial class of index sets.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("risk", help="risk of a test at fixed mu values")
    _add_class_flags(p)
    p.add_argument("--test", choices=TESTS, required=True)
    p.add_argument("--mu", type=float, action="append", required=True,
                   help="shift size, repeatable")
    p.add_argument("--emax0", type=float, default=None,
                   help="null-max constant for the maximum test "
                   "(default: the analytic cap)")
    _add_common(p)

    p = sub.add_parser("scan", help="risk curve over a mu grid with the "
                       "interpolated risk-1/2 crossing")
    _add_class_flags(p)
    p.add_argument("--test", choices=TESTS, required=True)
    p.add_argument("--mu-grid", dest="mu_grid", required=True,
                   help="start:stop:count, linearly spaced")
    p.add_argument("--emax0", type=float, default=None)
    _add_common(p)

    p = sub.add_parser("bounds", help="evaluate a closed-form bound")
    p.add_argument("--prop", choices=PROPS, required=True)
    for flag in ("--delta", "--emax0", "--mgf", "--t", "--constant"):
        p.add_argument(flag, type=float, default=None)
    for flag in ("--M", "--V"):
        p.add_argument(flag, type=int, default=None)
    _add_class_flags(p, required=False)
    _add_common(p)

    p = sub.add_parser("overlap", help="overlap MGF of an independent pair "
                       "and the induced risk lower bound")
    _add_class_flags(p)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--pairs", type=int, default=10_000)
    _add_common(p, trials_default=None)

    p = sub.add_parser("emax", help="Monte Carlo null expectation of the "
                       "maximum member sum")
    _add_class_flags(p)
    _add_common(p)

    p = sub.add_parser("cover", help="greedy cover of the class at a radius")
    _add_class_flags(p)
    p.add_argument("--radius", type=float, required=True)
    _add_common(p, trials_default=None)

    p = sub.add_parser("nonmono", help="subclass whose optimum risk exceeds "
                       "the enclosing class's")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    _add_common(p)

    return parser


def _kv_csv(pairs: list[tuple[str, object]], config: dict, schema: str) -> str:
    lines = [
        f"#schema={schema}",
        f"#version={__version__}",
        "#config=" + json.dumps(config, sort_keys=True, separators=(",", ":")),
        "key,value",
    ]
    for k, v in pairs:
        if isinstance(v, float):
            v = fmt17(v)
        lines.append(f"{k},{v}")
    return "\n".join(lines) + "\n"


def _flatten(prefix: str, obj: dict) -> list[tuple[str, object]]:
    out = []
    for k in sorted(obj):
        v = obj[k]
        if isinstance(v, dict):
            out.extend(_flatten(f"{prefix}{k}.", v))
        else:
            out.append((f"{prefix}{k}", v))
    return out


def _bound_output(report: BoundReport, fmt: str) -> str:
    if fmt == "json":
        return report.to_json()
    pairs = [
        ("name", report.name),
        ("direction", report.direction),
        ("value", report.value),
        ("degenerate", report.degenerate),
    ] + _flatten("extras.", report.extras)
    return _kv_csv(pairs, report.inputs, "combidetect.bound.v1")


def _run_risk(args) -> str:
    spec = _class_from_args(args)
    emax0 = args.emax0
    if args.test == "maximum" and emax0 is None:
        emax0 = emax_upper_cap(spec)
    rng = SeededRng(args.seed)
    rows = []
    for i, mu in enumerate(args.mu):
        est = estimate_risk(
            args.test, ProblemInstance(spec, mu), args.trials, rng.child(i),
            emax0=emax0, cap=args.cap, workers=args.workers,
        )
        rows.append((mu, est))
    config = _class_config(args) | {
        "command": "risk", "mu": args.mu, "seed": args.seed,
        "test": args.test, "trials": args.trials,
    }
    if emax0 is not None:
        config["emax0"] = emax0
    if args.format == "json":
        return risk_rows_to_json(rows, config, "combidetect.risk.v1")
    return risk_rows_to_csv(rows, config, "combidetect.risk.v1")


def _run_scan(args) -> str:
    spec = _class_from_args(args)
    grid = _parse_grid(args.mu_grid)
    emax0 = args.emax0
    if args.test == "maximum" and emax0 is None:
        emax0 = emax_upper_cap(spec)
    curve = scan_critical_mu(
        spec, args.test, grid, args.trials, SeededRng(args.seed),
        emax0=emax0, cap=args.cap, workers=args.workers,
    )
    config = _class_config(args) | {
        "command": "scan", "mu_grid": args.mu_grid, "seed": args.seed,
        "test": args.test, "trials": args.trials,
    }
    if emax0 is not None:
        config["emax0"] = emax0
    if args.format == "json":
        return curve_to_json(curve, config)
    return curve_to_csv(curve, config)


def _run_bounds(args) -> str:
    params = {
        k: getattr(args, k)
        for k in ("n", "K", "N", "m", "k", "delta", "emax0", "mgf", "M", "t",
                  "V", "constant")
        if getattr(args, k, None) is not None
    }
    spec = _class_from_args(args) if args.family else None
    report = evaluate_bound(
        args.prop, params, spec=spec, rng=SeededRng(args.seed),
        trials=args.trials, cap=args.cap, workers=args.workers,
    )
    return _bound_output(report, args.format)


def _run_overlap(args) -> str:
    spec = _class_from_args(args)
    mgf, se = estimate_overlap_mgf(spec, args.mu, args.pairs, SeededRng(args.seed))
    lower = pairs_risk_lower_bound(max(mgf, 1.0))
    config = _class_config(args) | {
        "command": "overlap", "mu": args.mu, "pairs": args.pairs,
        "seed": args.seed,
    }
    pairs = [
        ("mgf", mgf), ("mgf_se", se), ("exact", se == 0.0),
        ("risk_lower_bound", lower),
    ]
    if args.format == "json":
        doc = {
            "schema": "combidetect.overlap.v1", "version": __version__,
            "config": config,
        } | dict(pairs)
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    return _kv_csv(pairs, config, "combidetect.overlap.v1")


def _run_emax(args) -> str:
    spec = _class_from_args(args)
    est = estimate_emax0(
        spec, args.trials, SeededRng(args.seed), cap=args.cap,
        workers=args.workers,
    )
    config = _class_config(args) | {
        "command": "emax", "seed": args.seed, "trials": args.trials,
    }
    pairs = [
        ("emax0", est.emax), ("se", est.std_error),
        ("gaussian_cap", est.gaussian_cap),
    ]
    if args.format == "json":
        doc = {
            "schema": "combidetect.emax.v1", "version": __version__,
            "config": config,
        } | dict(pairs)
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    return _kv_csv(pairs, config, "combidetect.emax.v1")


def _run_cover(args) -> str:
    spec = _class_from_args(args)
    members = greedy_cover(spec, args.radius, args.cap)
    config = _class_config(args) | {
        "command": "cover", "radius": args.radius, "seed": args.seed,
    }
    if args.format == "json":
        doc = {
            "schema": "combidetect.cover.v1", "version": __version__,
            "config": config, "cover_size": len(members),
            "members": [s.encode() for s in members],
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    lines = [
        "#schema=combidetect.cover.v1",
        f"#version={__version__}",
        "#config=" + json.dumps(config, sort_keys=True, separators=(",", ":")),
        "set_id,indices",
    ]
    # semicolon joined so the field needs no CSV quoting
    for i, s in enumerate(members, start=1):
        lines.append(f"{i},{';'.join(str(v) for v in s.indices)}")
    lines.append(f"#cover_size={len(members)}")
    return "\n".join(lines) + "\n"


def _run_nonmono(args) -> str:
    rep = nonmonotonicity_demo(
        args.K, args.epsilon, args.trials, SeededRng(args.seed),
        workers=args.workers,
    )
    config = {
        "K": args.K, "command": "nonmono", "epsilon": args.epsilon,
        "seed": args.seed, "trials": args.trials,
    }
    def est_pairs(tag, e):
        return [
            (f"{tag}.type1", e.type1), (f"{tag}.se1", e.se_type1),
            (f"{tag}.type2", e.type2), (f"{tag}.se2", e.se_type2),
            (f"{tag}.total", e.total), (f"{tag}.se_total", e.se_total),
        ]
    pairs = (
        [("mu", rep.mu), ("n", rep.n), ("gap", rep.gap), ("gap_se", rep.gap_se),
         ("side_condition_holds", rep.side_condition_holds),
         ("side_condition_lhs", rep.side_condition_lhs),
         ("side_condition_rhs", rep.side_condition_rhs)]
        + est_pairs("risk_disjoint", rep.risk_disjoint)
        + est_pairs("risk_union", rep.risk_union)
        + est_pairs("risk_witness_averaging", rep.risk_witness_averaging)
    )
    if args.format == "json":
        doc = {
            "schema": "combidetect.nonmono.v1", "version": __version__,
            "config": config,
        } | {k.replace(".", "_"): v for k, v in pairs}
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    return _kv_csv(pairs, config, "combidetect.nonmono.v1")


_RUNNERS = {
    "risk": _run_risk,
    "scan": _run_scan,
    "bounds": _run_bounds,
    "overlap": _run_overlap,
    "emax": _run_emax,
    "cover": _run_cover,
    "nonmono": _run_nonmono,
}


def _emit_error(exc: BaseException, code: int) -> int:
    doc = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    sys.stderr.write(json.dumps(doc, sort_keys=True) + "\n")
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = _RUNNERS[args.command](args)
    except CapExceededError as exc:
        return _emit_error(exc, 3)
    except (ValueError, OverflowError) as exc:
        return _emit_error(exc, 2)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
