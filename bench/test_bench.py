"""Tests of the benchmark itself: exact counts, seeded inputs, the metric
list and the refusal to run without the program.

    python3 -m pytest bench

Each workload costs two traced runs and one short untraced run.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=ROOT, check=True):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def result(proc):
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    digest = re.search(r"inputs sha256 ([0-9a-f]{64})", proc.stderr).group(1)
    return out, digest


def units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_and_seed_changes_inputs(workload):
    first, digest1 = result(run("--workload", workload, "--seed", "7",
                                "--seconds", "1", "--trace", "1"))
    second, digest2 = result(run("--workload", workload, "--seed", "7",
                                 "--seconds", "1", "--trace", "1"))
    untraced, digest3 = result(run("--workload", workload, "--seed", "8",
                                   "--seconds", "1", "--trace", "0"))
    for out in (first, second, untraced):
        assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0

    assert units(first["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert units(untraced["metrics"]) == {m["name"]: m["unit"]
                                          for m in SPEC["end_to_end"]}

    counts = {name for name, m in first["metrics"].items() if m["unit"] == "count"}
    assert counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["attempted"] == second["attempted"]

    assert digest1 == digest2
    assert digest1 != digest3


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path, check=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
