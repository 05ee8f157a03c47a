"""Smoke test of the benchmark itself: small budgets, every metric, digests.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

For each workload it runs one untraced and one traced pass set at half the
Monte-Carlo budget and checks that every metric BENCHMARK.json names is
reported with its unit, that one seed gives the same output digest twice
(traced and untraced) and that another seed gives a different one.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMALL = ["--seconds", "0", "--scale", "0.5"]


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--trace", str(trace), *SMALL],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    *_, report, result = proc.stdout.splitlines()
    return json.loads(report), json.loads(result)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload(workload):
    report, result = run(workload, 1, 0)
    traced_report, traced = run(workload, 1, 1)
    other_report, _ = run(workload, 2, 0)

    for res, kind in ((result, "end_to_end"), (traced, "per_layer")):
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
        declared = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert {name: m["unit"] for name, m in res["metrics"].items()} == declared
        assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())

    assert isinstance(report["digest"], str)
    assert report["digest"] == traced_report["digest"]
    assert report["digest"] != other_report["digest"]


def test_refuses_without_sources():
    """A tree holding only the benchmark fails without printing a result."""
    tree = ROOT / ".bench_out" / "bench_only"
    bench = tree / "perfbench"
    bench.mkdir(parents=True, exist_ok=True)
    for f in HERE.glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    (tree / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "mc_sweep", "--seed", "1", "--seconds", "1"],
        capture_output=True,
        text=True,
        cwd=tree,
        timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
