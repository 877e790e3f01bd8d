"""Smoke check of the benchmark: one operation per workload and mode.

    python3 -m pytest -q perfbench/test_smoke.py

Each run must print, as its last stdout line, the result object with
exactly the metric names and units BENCHMARK.json declares for that
mode.  A copy of the benchmark without the package must exit nonzero
and print no result.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(root, workload, trace, max_ops=1):
    cmd = BENCH["command"] + [
        "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", str(trace), "--max-ops", str(max_ops),
    ]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_operation(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_refuses_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(
            os.path.join(ROOT, path), tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__", ".work", ".out"),
        )
    proc = run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
