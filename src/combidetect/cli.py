"""Command line laboratory.

Every subcommand takes --seed and is bit-reproducible: the same command line
writes the same bytes, independent of --workers.  Every document uses the one
envelope of ``_output``, in UTF-8, and none carries a timestamp.

Exit codes: 0 success, 2 invalid configuration, 3 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from ._version import __version__
from ._output import render
from .bounds import PROPS, evaluate_bound, pairs_risk_lower_bound, greedy_cover
from .classes import FAMILIES, SetClass, estimate_overlap_mgf, make_class
from .core import DEFAULT_ENUMERATION_CAP, CapExceededError, SeededRng
from .risk import (
    _FAN_OUT_OBS,
    emax_upper_cap,
    estimate_emax0,
    nonmonotonicity_demo,
    render_curve,
    render_risk_rows,
    risk_at,
    scan_critical_mu,
)
from .rules import TESTS

#: every family's parameters, each given by the flag --<name> with _ as -
_CLASS_PARAMS = tuple(dict.fromkeys(p for cls in FAMILIES.values() for p in cls.params))


def _add_common(p: argparse.ArgumentParser, *, trials_default: int | None = 10_000):
    p.add_argument("--seed", type=int, required=True, help="master seed (required)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument(
        "--cap", type=int, default=None,
        help="bound on the members enumerated or on a structured kernel's "
        f"work set (default {DEFAULT_ENUMERATION_CAP:,})",
    )
    p.add_argument(
        "--workers", type=int, default=1,
        help=f"processes a call of {_FAN_OUT_OBS:,} normals or more splits its trial groups over, "
        "this one included, at most one per CPU; the output bytes do not depend on it",
    )
    if trials_default is not None:
        p.add_argument("--trials", type=int, default=trials_default)


def _add_class_flags(p: argparse.ArgumentParser, *, required: bool = True):
    p.add_argument(
        "--class", dest="family", choices=sorted(FAMILIES), required=required,
        help="set class family",
    )
    for dest in _CLASS_PARAMS:
        p.add_argument("--" + dest.replace("_", "-"), dest=dest, type=int, default=None)


def _class_from_args(args) -> SetClass:
    return make_class(args.family, **{d: getattr(args, d) for d in _CLASS_PARAMS})


def _config(args, *dests: str) -> dict:
    """A document's config: the command, the seed, the class flags given and
    the named flags."""
    cfg = {"command": args.command, "seed": args.seed}
    if getattr(args, "family", None) is not None:
        cfg["class"] = args.family
        cfg |= {d: getattr(args, d) for d in _CLASS_PARAMS if getattr(args, d) is not None}
    return cfg | {dest: getattr(args, dest) for dest in dests}


#: most points a --mu-grid may hold; each point is a whole risk estimate
_MAX_GRID_COUNT = 10_000


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("--mu-grid must be start:stop:count")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError("--mu-grid endpoints must be finite")
    if not 2 <= count <= _MAX_GRID_COUNT:
        raise ValueError(f"--mu-grid needs 2 <= count <= {_MAX_GRID_COUNT:,}")
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


def _risk_setup(args, *dests: str):
    # the class, the maximum test's emax0 (the analytic cap unless given) and
    # the config shared by risk and scan
    spec = _class_from_args(args)
    emax0 = args.emax0
    if args.test == "maximum" and emax0 is None:
        emax0 = emax_upper_cap(spec)
    config = _config(args, *dests, "test", "trials")
    if emax0 is not None:
        config["emax0"] = emax0
    return spec, emax0, config


def _run_risk(args) -> str:
    spec, emax0, config = _risk_setup(args, "mu")
    estimates = risk_at(
        args.test, spec, args.mu, args.trials, SeededRng(args.seed),
        emax0=emax0, cap=args.cap, workers=args.workers,
    )
    rows = list(zip(args.mu, estimates))
    return render_risk_rows(args.format, rows, config, "combidetect.risk.v1")


def _run_scan(args) -> str:
    grid = _parse_grid(args.mu_grid)
    spec, emax0, config = _risk_setup(args, "mu_grid")
    curve = scan_critical_mu(
        spec, args.test, grid, args.trials, SeededRng(args.seed),
        emax0=emax0, cap=args.cap, workers=args.workers,
    )
    return render_curve(args.format, curve, config)


def _run_bounds(args) -> str:
    params = {k: v for k, v in vars(args).items() if v is not None}
    spec = _class_from_args(args) if args.family else None
    report = evaluate_bound(
        args.prop, params, spec=spec, rng=SeededRng(args.seed),
        trials=args.trials, cap=args.cap, workers=args.workers,
    )
    return report.render(args.format)


def _run_overlap(args) -> str:
    spec = _class_from_args(args)
    mgf, se = estimate_overlap_mgf(spec, args.mu, args.pairs, SeededRng(args.seed))
    lower = pairs_risk_lower_bound(max(mgf, 1.0))
    config = _config(args, "mu", "pairs")
    body = {"mgf": mgf, "mgf_se": se, "exact": se == 0.0, "risk_lower_bound": lower}
    return render(args.format, "combidetect.overlap.v1", config, body)


def _run_emax(args) -> str:
    spec = _class_from_args(args)
    est = estimate_emax0(
        spec, args.trials, SeededRng(args.seed), cap=args.cap,
        workers=args.workers,
    )
    config = _config(args, "trials")
    body = {"emax0": est.emax, "se": est.std_error, "gaussian_cap": est.gaussian_cap}
    return render(args.format, "combidetect.emax.v1", config, body)


def _run_cover(args) -> str:
    spec = _class_from_args(args)
    cover = greedy_cover(spec, args.radius, args.cap)
    members = (spec.member_matrix(args.cap)[cover] + 1).tolist()
    config = _config(args, "radius")
    body = {"cover_size": len(members), "members": [",".join(map(str, s)) for s in members]}
    # semicolon joined so the field needs no CSV quoting
    rows = [(i, ";".join(map(str, s))) for i, s in enumerate(members, start=1)]
    return render(
        args.format, "combidetect.cover.v1", config, body,
        table=(("set_id", "indices"), rows), footer={"cover_size": len(members)},
    )


def _run_nonmono(args) -> str:
    rep = nonmonotonicity_demo(
        args.K, args.epsilon, args.trials, SeededRng(args.seed),
        cap=args.cap, workers=args.workers,
    )
    config = _config(args, "K", "epsilon", "trials")
    # nested keys are joined with '.' in CSV and '_' in JSON
    sep = "_" if args.format == "json" else "."
    body = {
        "mu": rep.mu, "n": rep.n, "gap": rep.gap, "gap_se": rep.gap_se,
        "side_condition_holds": rep.side_condition_holds,
        "side_condition_lhs": rep.side_condition_lhs,
        "side_condition_rhs": rep.side_condition_rhs,
    }
    for tag in ("risk_disjoint", "risk_union", "risk_witness_averaging"):
        body |= {f"{tag}{sep}{k}": v for k, v in getattr(rep, tag).rates().items()}
    return render(args.format, "combidetect.nonmono.v1", config, body)


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


def _check_finite(args) -> None:
    # argparse's float() accepts nan and inf; no flag of any command means them
    for dest, value in vars(args).items():
        values = value if isinstance(value, list) else [value]
        if any(isinstance(v, float) and not math.isfinite(v) for v in values):
            raise ValueError(f"--{dest.replace('_', '-')} must be finite")


def _check_counts(args) -> None:
    # --cap bounds a count of members or entries and --workers counts worker
    # processes; neither means anything below 1
    for dest in ("cap", "workers"):
        value = getattr(args, dest)
        if value is not None and value < 1:
            raise ValueError(f"--{dest} must be at least 1, got {value}")


def _check_out(path: str | None) -> None:
    # refused before any work, so that a long run cannot lose its result
    if path is None:
        return
    if not path or os.path.isdir(path):
        raise ValueError(f"--out must name a file, got {path!r}")
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise ValueError(f"--out {path!r}: its directory does not exist")


_parser = functools.cache(build_parser)  # one per interpreter, built at first use


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_finite(args)
        _check_counts(args)
        _check_out(args.out)
        text = _RUNNERS[args.command](args)
    except CapExceededError as exc:
        return _emit_error(exc, 3)
    except (ValueError, OverflowError) as exc:
        return _emit_error(exc, 2)
    if args.out is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:  # such as its directory removed during the run
        return _emit_error(exc, 2)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
