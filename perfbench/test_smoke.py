"""Toy-size smoke run of every workload in both modes.

Checks that each run passes its own output checks and that its result line
names exactly the metrics BENCHMARK.json lists for that mode, each with the
listed unit, and that the core-speed samplers stop with the benchmark.
Takes about two minutes:

    python3 -m pytest perfbench/test_smoke.py -q
"""
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    MANIFEST = json.load(_fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in MANIFEST["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace), "--toy"],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = MANIFEST["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


def test_manifest_matches_definitions():
    proc = subprocess.run([sys.executable, RUN, "--manifest"], capture_output=True,
                          text=True, timeout=60, cwd=ROOT, check=True)
    assert json.loads(proc.stdout) == MANIFEST


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_core_speed_samplers_stop(tmp_path):
    sys.path.insert(0, HERE)
    from corespeed import CoreSpeed
    cpu = min(os.sched_getaffinity(0))
    with CoreSpeed(str(tmp_path), [cpu]) as speed:
        t0 = time.perf_counter()
        time.sleep(0.3)
        factor = speed.factor(t0, time.perf_counter(), [cpu])
        procs = list(speed.procs)
    assert 0.05 < factor < 20
    assert all(p.poll() is not None for p in procs)
