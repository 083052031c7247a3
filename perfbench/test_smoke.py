"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Every run here does one round per pass (``--seconds 0``) at 5% of the
benchmark's trial counts, so the whole file takes about a minute.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
DEFAULT_SEED = 1
TINY = ["--seconds", "0", "--scale", "0.05"]
#: the layer that must dominate each workload built to isolate it, then the other
DOMINANT_SHARE = {
    "draw-heavy": ("risk.draw_share", "risk.kernel_share"),
    "enum-heavy": ("risk.kernel_share", "risk.draw_share"),
}


def run(workload: str, seed: int, trace: int) -> tuple[list[str], dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), *TINY],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def record(workload: str, seed: int, trace: int) -> dict:
    return json.loads((ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def assert_clean(result: dict):
    assert result["correct"], result
    assert result["failed"] == 0
    assert result["attempted"] >= 1


def assert_metrics_printed(lines: list[str], result: dict, workload: str, kind: str):
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = {tuple(line.split()[:2]): line.split()[3] for line in lines[:-1] if len(line.split()) >= 4}
    for name, unit in declared.items():
        assert printed.get((workload, name)) == unit, name
        assert isinstance(result["metrics"][name]["value"], (int, float))
    assert (workload, "fail_ratio") in printed


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_print_with_units(workload):
    lines, result = run(workload, DEFAULT_SEED, 0)
    assert_clean(result)
    assert_metrics_printed(lines, result, workload, "end_to_end")
    for name in ("trials_per_s", "wall_s", "setup_s", "peak_rss_mb", "ok_ratio"):
        assert result["metrics"][name]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_layers_and_self_times_add_up(workload):
    lines, result = run(workload, DEFAULT_SEED, 1)
    assert_clean(result)
    assert_metrics_printed(lines, result, workload, "per_layer")
    detail = record(workload, DEFAULT_SEED, 1)["detail"]
    assert detail["self_sum_s"] == pytest.approx(detail["traced_wall_s"], rel=1e-9)
    assert (ROOT / detail["span_file"]).is_file()
    if workload in DOMINANT_SHARE:
        high, low = DOMINANT_SHARE[workload]
        assert result["metrics"][high]["value"] > result["metrics"][low]["value"]


def test_other_seed_runs_every_workload_clean():
    lines, result = run("all", 7, 0)
    assert_clean(result)
    for workload in WORKLOADS:
        assert f"{workload}/wall_s" in result["metrics"]
    stamp = record("draw-heavy", 7, 0)["stamp"]
    assert stamp["seed"] == 7 and stamp["src_lines"] > 0 and stamp["nproc"] >= 1


def test_exact_counts_repeat_across_seeds():
    _, first = run("draw-heavy", DEFAULT_SEED, 1)
    _, second = run("draw-heavy", 7, 1)
    for name in record("draw-heavy", 7, 1)["stamp"]["exact_counts"]:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
