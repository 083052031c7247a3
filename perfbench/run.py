#!/usr/bin/env python3
"""Benchmark of the combidetect package, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from any directory of a source checkout; the package is imported from
``src/`` next to this directory, so nothing needs installing.  A run sets the
workload up three to fifteen times (a fresh interpreter's ``import combidetect``, class
construction, member-matrix builds, one warm-up call per operation) and
reports the median as ``setup_s``.  A round calls every operation once; the
seed of each call is derived from ``--seed``, the round index and the
operation index.  A run spends half of ``--seconds`` on a first pass of
rounds on fresh seeds and half on replaying those seeds, and every replayed
call must give the same bytes as the first.

``--trace 0`` runs the first pass with ``workers=1`` and the replay with
``workers=2``, and reports the end-to-end metrics.

``--trace 1`` runs the first pass untraced, then installs the span tracer and
replays traced (``workers=1``).  Every count the benchmark declares exact
must be equal in every traced round.  It reports the per-layer metrics.

Every metric is printed as ``<workload> <name> <value> <unit>``, and the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A result file with the run's
provenance (and, traced, a span file) is written under ``.perfbench_out/``.
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
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
if not (SRC / "combidetect" / "__init__.py").is_file():
    # never fall back to an installed copy: the benchmark measures this tree
    sys.exit(f"perfbench: no package source under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
from tracing import Tracer, instrument  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: set-up repeats: at least SETUP_MIN, more while SETUP_BUDGET_S lasts
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 15, 4.0
WARM_SIZE = 2
WARM_ROUND = 1 << 30  # round index reserved for warm-up seeds

#: counts that must be equal in every traced round, for any seed; a later
#: change may claim a difference in one of these as a count
EXACT_COUNTS = (
    "core.generator.calls",
    "classes.sample.calls",
    "risk._draw_block.rows",
    "classes.log_mean_exp_batch.rows",
    "classes.max_values_batch.rows",
    "classes.members_touched",
    "classes.bytes_gathered",
    "assignment.assignment_value.calls",
    "rules.batch_rejections.calls",
    "bounds.greedy_cover.calls",
    "bounds.greedy_cover.members_scanned",
    "cli.main.calls",
)

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import combidetect; "
    "print(repr(time.perf_counter() - t))"
)


def derive(seed: int, k: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, k, i]).generate_state(1)[0])


def declared_metrics() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")
    }


# -- provenance -----------------------------------------------------------


def git_sha() -> str | None:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def stamp(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
        "exact_counts": list(EXACT_COUNTS),
    }


# -- set-up and rounds ----------------------------------------------------


class Ledger:
    """Attempted and failed calls, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed: set = set()
        self.problems: list[str] = []

    def fail(self, call_ids, reason: str):
        self.failed.update(call_ids)
        self.problems.append(reason)


def import_seconds() -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    return float(done.stdout)


def set_up(workload: str, scale: float, seed: int, ledger: Ledger):
    """Build the workload and warm every operation up; (seconds, ops)."""
    t0 = time.perf_counter()
    ops = WORKLOADS[workload](scale)
    for i, op in enumerate(ops):
        if op.size is None:
            continue
        ledger.attempted += 1
        try:
            op.call(derive(seed, WARM_ROUND, i), 1, WARM_SIZE)
        except Exception:
            ledger.fail({("warm", i)}, f"{op.name} warm-up raised:\n{traceback.format_exc(limit=4)}")
    return time.perf_counter() - t0, ops


#: calibration time that defines a reference-speed second: the mix below on
#: an unloaded core of a 2-vCPU cloud VM, Python 3.11, numpy 2.4
CAL_REF_S = 0.012
_CAL_RNG = np.random.default_rng(20091)
_CAL_M = _CAL_RNG.integers(0, 2000, size=(20_000, 6))
_CAL_X = _CAL_RNG.standard_normal((4, 2000))


def calibration_seconds() -> float:
    """Time of a fixed mix of interpreter work, generator construction and a
    numpy gather: the kinds of work the workloads do, in benchmark code that
    no change to the package can speed up or slow down."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(50_000):
        acc += i * i
    for t in range(100):
        np.random.Generator(np.random.PCG64(np.random.SeedSequence((20091, t)))).standard_normal(2)
    _CAL_X[:, _CAL_M].sum(axis=2)
    return time.perf_counter() - t0


def encode(result) -> bytes:
    # repr round-trips every float exactly, so equal bytes mean equal results
    return repr(result).encode()


class Round:
    def __init__(self, k: int, workers: int, tag: str):
        self.k, self.workers, self.tag = k, workers, tag
        self.walls: list[float] = []
        self.cal: list[float] = []
        self.results: list = []
        self.bytes: list[bytes | None] = []
        self.counters: dict[str, int] = {}
        self.span_range = (0, 0)
        self.elapsed = 0.0  # the whole round, calibration included

    @property
    def wall(self) -> float:
        return sum(self.walls)

    @property
    def speed(self) -> float:
        """Reference-speed seconds per measured second during this round."""
        return CAL_REF_S / statistics.median(self.cal)

    def call_id(self, i: int):
        return (self.tag, self.k, i)


def run_round(ops, seed: int, rnd: Round, ledger: Ledger, tracer: Tracer | None = None):
    start = time.perf_counter()
    if tracer:
        tracer.take_counters()
        first_span = len(tracer.spans)
    for i, op in enumerate(ops):
        s = derive(seed, rnd.k, i)
        ledger.attempted += 1
        err = None
        rnd.cal.append(calibration_seconds())
        t0 = time.perf_counter()
        try:
            if tracer is None:
                res = op.call(s, rnd.workers, op.size)
            else:
                with tracer.span("bench.op", op_id=rnd.k * len(ops) + i):
                    res = op.call(s, rnd.workers, op.size)
        except Exception:
            res, err = None, traceback.format_exc(limit=4)
        rnd.walls.append(time.perf_counter() - t0)
        rnd.results.append(res)
        rnd.bytes.append(None if err else encode(res))
        if err:
            ledger.fail({rnd.call_id(i)}, f"{op.name} raised in round {rnd.k} ({rnd.tag}):\n{err}")
    if tracer:
        rnd.counters = tracer.take_counters()
        rnd.span_range = (first_span, len(tracer.spans))
    rnd.elapsed = time.perf_counter() - start


def compare_repeat(ops, first: Round, again: Round, ledger: Ledger):
    for i, op in enumerate(ops):
        a, b = first.bytes[i], again.bytes[i]
        if a is not None and b is not None and a != b:
            ledger.fail(
                {again.call_id(i)},
                f"{op.name}: round {again.k} {again.tag} differs from {first.tag} on the same seed",
            )


def pooled_checks(ops, rounds: list[Round], all_rounds: list[Round], ledger: Ledger):
    """Each operation's statistical check over its independent (distinct-seed)
    results; a failed check fails every call of that operation."""
    for i, op in enumerate(ops):
        results = [r.results[i] for r in rounds if r.bytes[i] is not None]
        if not results:
            continue
        try:
            problems = op.check(results)
        except Exception:
            problems = [f"check raised:\n{traceback.format_exc(limit=4)}"]
        if problems:
            ledger.fail({r.call_id(i) for r in all_rounds}, f"{op.name}: " + "; ".join(problems))


def first_pass(ops, seed: int, budget: float, ledger: Ledger) -> list[Round]:
    """Rounds on fresh seeds with ``workers=1`` while the budget lasts (at
    least one)."""
    rounds: list[Round] = []
    start = time.perf_counter()
    while fits(start, budget, rounds):
        rnd = Round(len(rounds), 1, "w1")
        run_round(ops, seed, rnd, ledger)
        rounds.append(rnd)
    return rounds


def replay(ops, seed: int, first: list[Round], budget: float, ledger: Ledger, workers: int,
           tag: str, tracer: Tracer | None = None) -> list[Round]:
    """The first pass's seeds again, in order, while the budget lasts (at
    least one round); each replayed call must give the same bytes."""
    rounds: list[Round] = []
    start = time.perf_counter()
    while len(rounds) < len(first) and fits(start, budget, rounds):
        rnd = Round(len(rounds), workers, tag)
        if tracer is None:
            run_round(ops, seed, rnd, ledger)
        else:
            with tracer.span("bench.round"):
                run_round(ops, seed, rnd, ledger, tracer)
        compare_repeat(ops, first[rnd.k], rnd, ledger)
        rounds.append(rnd)
    return rounds


def fits(start: float, budget: float, rounds: list[Round]) -> bool:
    """Start another round only if a median round still fits the budget."""
    if not rounds:
        return True
    return time.perf_counter() - start + statistics.median(r.elapsed for r in rounds) <= budget


def pass_wall(rounds: list[Round], normalize: bool = True) -> float:
    """Wall time of one pass over the operations: the sum over operations of
    each one's median call time, so a stall in one call of one round does not
    move it.  Normalized, each call time is first scaled by its round's speed:
    a shared host runs this process up to 1.7x slower for minutes at a time,
    and the calibration that runs before every call slows down with it."""
    return sum(
        statistics.median(r.walls[i] * (r.speed if normalize else 1.0) for r in rounds)
        for i in range(len(rounds[0].walls))
    )


def cli_bytes(ops, rnd: Round) -> int:
    return sum(
        len(res[1].encode()) for op, res in zip(ops, rnd.results) if op.name.startswith("cli-") and res
    )


# -- the two kinds of run -------------------------------------------------


def plain_run(args, ledger: Ledger) -> tuple[dict, dict]:
    setups = []
    start = time.perf_counter()
    while len(setups) < SETUP_MIN or (
        len(setups) < SETUP_MAX and time.perf_counter() - start < SETUP_BUDGET_S
    ):
        speed = CAL_REF_S / statistics.median(calibration_seconds() for _ in range(3))
        imported = import_seconds()
        built, ops = set_up(args.workload, args.scale, args.seed, ledger)
        setups.append((imported + built) * speed)

    half = args.seconds / 2.0
    w1 = first_pass(ops, args.seed, half, ledger)
    # read before the threaded pass, whose per-thread malloc arenas make the
    # high-water mark depend on scheduling
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    w2 = replay(ops, args.seed, w1, half, ledger, workers=2, tag="w2")
    pooled_checks(ops, w1, w1 + w2, ledger)

    trials = sum(op.trials for op in ops)
    wall, wall2 = pass_wall(w1), pass_wall(w2)
    metrics = {
        "trials_per_s": trials / wall,
        "trials_per_s_w2": trials / wall2,
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": 1.0 - len(ledger.failed) / ledger.attempted,
    }
    detail = {
        "setup_s_each": setups,
        "rounds": {"w1": len(w1), "w2": len(w2)},
        "trials_per_round": trials,
        "measured_wall_s": {"w1": pass_wall(w1, normalize=False), "w2": pass_wall(w2, normalize=False)},
        "round_wall_s": {"w1": [r.wall for r in w1], "w2": [r.wall for r in w2]},
        "op_wall_s": {
            op.name: {"w1": [r.walls[i] for r in w1], "w2": [r.walls[i] for r in w2]}
            for i, op in enumerate(ops)
        },
        "cal_s": {"w1": [r.cal for r in w1], "w2": [r.cal for r in w2]},
    }
    return metrics, detail


def traced_run(args, ledger: Ledger) -> tuple[dict, dict]:
    _, ops = set_up(args.workload, args.scale, args.seed, ledger)
    half = args.seconds / 2.0
    plain = first_pass(ops, args.seed, half, ledger)

    tracer = Tracer()
    instrument(tracer)
    try:
        with tracer.span("bench.setup"):
            _, traced_ops = set_up(args.workload, args.scale, args.seed, ledger)
        setup_range = (0, len(tracer.spans))
        traced = replay(traced_ops, args.seed, plain, half, ledger, workers=1, tag="traced", tracer=tracer)
    finally:
        tracer.uninstall()
    pooled_checks(ops, plain, plain + traced, ledger)

    arr = tracer.arrays()
    rows = []
    for rnd in traced:
        lo, hi = rnd.span_range
        times = tracer.layer_times(arr, lo, hi)
        row = layer_metrics(times, rnd.counters, rnd.wall)
        row["cli.bytes_out"] = cli_bytes(traced_ops, rnd)
        rows.append(row)
    for name in EXACT_COUNTS:
        values = {row[name] for row in rows}
        if len(values) > 1:
            ledger.fail(
                {rnd.call_id(i) for rnd in traced for i in range(len(ops))},
                f"{name} is not exact: {sorted(values)} across traced rounds",
            )

    metrics = {
        name: (rows[0][name] if name in EXACT_COUNTS else statistics.median(r[name] for r in rows))
        for name in rows[0]
    }
    setup_times = tracer.layer_times(arr, *setup_range)
    metrics["classes.member_matrix.busy_s"] = setup_times["classes.member_matrix"]["busy"]
    metrics["trace.overhead_ratio"] = pass_wall(traced) / pass_wall(plain[: len(traced)])

    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"{args.workload}-seed{args.seed}-spans.npz"
    tracer.write(span_file, arr)
    first_traced = traced[0].span_range[0] - 1  # the first round's own span
    in_rounds = slice(first_traced, len(arr["name"]))
    roots = arr["name"][in_rounds] == tracer.name_id("bench.round")
    detail = {
        "rounds": {"untraced": len(plain), "traced": len(traced)},
        "span_file": str(span_file.relative_to(ROOT)),
        "span_count": int(len(arr["name"])),
        "traced_wall_s": float(arr["dur"][in_rounds][roots].sum()),
        "self_sum_s": float(arr["self"][in_rounds].sum()),
        "per_round": rows,
    }
    return metrics, detail


ESTIMATORS = ("risk.estimate_risk", "risk.estimate_bayes_risk", "risk.estimate_emax0", "risk.scan_critical_mu")
KERNELS = (
    "rules.batch_rejections",
    "classes.log_mean_exp_batch",
    "classes.max_values_batch",
    "classes.member_matrix",
    "assignment.assignment_value",
)


def layer_metrics(times: dict, counters: dict, wall: float) -> dict:
    def t(name, field):
        return times.get(name, {}).get(field, 0)

    def c(name):
        return counters.get(name, 0)

    return {
        "core.generator.calls": t("core.generator", "calls"),
        "core.generator.busy_s": t("core.generator", "busy"),
        "classes.sample.calls": t("classes.sample", "calls"),
        "classes.sample.busy_s": t("classes.sample", "busy"),
        "risk._draw_block.rows": c("risk._draw_block.rows"),
        "risk._draw_block.self_s": t("risk._draw_block", "self"),
        "classes.log_mean_exp_batch.rows": c("classes.log_mean_exp_batch.rows"),
        "classes.log_mean_exp_batch.busy_s": t("classes.log_mean_exp_batch", "busy"),
        "classes.max_values_batch.rows": c("classes.max_values_batch.rows"),
        "classes.max_values_batch.busy_s": t("classes.max_values_batch", "busy"),
        "classes.members_touched": c("classes.members_touched"),
        "classes.bytes_gathered": c("classes.bytes_gathered"),
        "assignment.assignment_value.calls": t("assignment.assignment_value", "calls"),
        "assignment.assignment_value.busy_s": t("assignment.assignment_value", "busy"),
        "rules.batch_rejections.calls": t("rules.batch_rejections", "calls"),
        "rules.batch_rejections.self_s": t("rules.batch_rejections", "self"),
        "risk.estimators.self_s": sum(t(n, "self") for n in ESTIMATORS),
        "risk.draw_share": t("risk._draw_block", "busy") / wall,
        "risk.kernel_share": sum(t(n, "self") for n in KERNELS) / wall,
        "bounds.greedy_cover.calls": t("bounds.greedy_cover", "calls"),
        "bounds.greedy_cover.busy_s": t("bounds.greedy_cover", "busy"),
        "bounds.greedy_cover.members_scanned": c("bounds.greedy_cover.members_scanned"),
        "cli.main.calls": t("cli.main", "calls"),
        "cli.main.self_s": t("cli.main", "self"),
    }


# -- entry points ----------------------------------------------------------


def run_one(args) -> int:
    declared = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    ledger = Ledger()
    metrics, detail = (traced_run if args.trace else plain_run)(args, ledger)
    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(declared)}")
    failed = len(ledger.failed)
    result = {
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = {"stamp": stamp(args), **result, "problems": ledger.problems, "detail": detail}
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    for name, unit in declared.items():
        print(f"{args.workload:<16} {name:<38} {metrics[name]:<14.6g} {unit}")
    print(f"{args.workload:<16} {'fail_ratio':<38} {failed / ledger.attempted:<14.6g} ratio"
          f"  ({failed} of {ledger.attempted} calls)")
    for problem in ledger.problems:
        print(f"FAIL {problem}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, one after another, each in a fresh interpreter."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", str(args.scale)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        one = json.loads(lines[-1])
        correct &= one["correct"]
        attempted += one["attempted"]
        failed += one["failed"]
        metrics.update({f"{name}/{m}": v for m, v in one["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=24.0, help="time budget of the measured rounds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="multiplies every trial count (smoke tests run tiny sizes)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


if __name__ == "__main__":
    parsed = parse_args()
    sys.exit(run_all(parsed) if parsed.workload == "all" else run_one(parsed))
