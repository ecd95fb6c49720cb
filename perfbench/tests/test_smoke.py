"""Every workload runs at a tiny size and reports every metric with its unit."""

import json
import os
import shutil
import subprocess
import sys

import pytest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)
RUN = os.path.join(PERFBENCH, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          cwd=cwd, timeout=300)


def test_benchmark_json_matches_the_code():
    import layers
    import workloads
    from run import E2E_UNITS, NAMES

    assert [w["name"] for w in BENCHMARK["workloads"]] == list(NAMES)
    assert set(workloads.WORKLOADS) == set(NAMES)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == E2E_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (m.name, m.unit, m.better) for m in layers.METRICS]
    assert all(set(m.moves) | set(m.no_change) <= set(NAMES) for m in layers.METRICS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    done = run("perfbench/run.py", "--workload", workload, "--seed", "3",
               "--seconds", "0.5", "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run("perfbench/run.py", "--workload", "short-demos", "--seed", "1",
               "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
