"""Checks of the benchmark itself; run with ``python3 -m pytest perfbench``.

Two traced runs with the same seed must report identical counters and input
hash, every op must pass its output check (which, on ``verify-grid``,
includes the traced law walk reproducing ``run_suite``'s record stream), and
the metric names must be the ones ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_UNITS = ("count", "hash")


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            str(BENCH / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            "1",
            "--trace",
            str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_repeat_exactly_for_a_seed(workload):
    first = bench(workload, 5, trace=1)
    second = bench(workload, 5, trace=1)
    assert first["correct"] and second["correct"]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == declared
    exact = [name for name, unit in declared.items() if unit in EXACT_UNITS]
    assert exact
    for name in exact:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_end_to_end_metrics_and_seeded_inputs():
    result = bench("verify-grid", 5, trace=0)
    assert result["correct"]
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    hashes = {bench("verify-grid", seed, trace=1)["metrics"]["inputs.hash"]["value"] for seed in (5, 6)}
    assert len(hashes) == 2
