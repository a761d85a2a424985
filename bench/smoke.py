"""Smoke test of the benchmark: every workload at a tiny size, untraced and
traced, prints every metric that BENCHMARK.json names, with its unit, and
passes its output checks.

    python3 -m pytest bench/smoke.py -q

Run from the root of a checkout.  The file is not named ``test_*.py`` so the
repository's own test suite does not collect it.
"""

import json
import subprocess
import sys

import pytest

WORKLOADS = ("sweep_parallel", "synth_ladder", "bias_calib", "crosscheck_sv")


def _declared():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_lists_every_workload():
    assert [w["name"] for w in _declared()["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        assert f"\n{name} " in "\n" + proc.stdout, f"{name} not printed"
