"""The benchmark's own checks (``perfbench/test_checks.py``) pass, and
the benchmark program runs and reports the metrics it declares.

The checks pin solver entry points (``init_state(inst,
Hyperparameters())``, ``map_estimate`` and the state it reads), so they
run with the suite. Subprocesses keep both out of this session: they
import numpy, and ``tests/conftest.py`` must pin BLAS threads before
anything does.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_checks_pass():
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "perfbench", "-q",
         "-p", "no:cacheprovider"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr


def run_benchmark(spec, workload, trace):
    """One short run of the benchmark program BENCHMARK.json declares; its
    result line, after checking that every solve ran and was correct."""
    args = ["--workload", workload, "--seed", "1",
            "--seconds", "0.1", "--trace", str(trace)]
    done = subprocess.run([sys.executable, *spec["command"][1:], *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    return result


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_benchmark_run_reports_declared_metrics(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = run_benchmark(spec, "completion-15x30", trace)
    assert list(result["metrics"]) == [m["name"] for m in spec[section]]


def test_benchmark_dense_sensing_run_correct():
    # the traced reconstruction workload runs rsvm-accel's dense-sensing
    # block step, which the completion workload never reaches
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run_benchmark(spec, "reconstruction-15x15", 1)
