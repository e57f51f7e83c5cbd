"""The benchmark harness in ``bench/`` still runs against the package.

The harness imports library names (the kind registry ``cli.KIND_FUNCS``,
the ``hermitian_basis`` warm-up, the layer modules it traces), so renaming
or deleting one of them breaks every benchmark run.  These tests run the
harness self-test, each workload's set-up, and a short traced run of each
workload, as the benchmark does, in their own processes.  The traced run
fails when a per-layer metric a workload requires is not measured, which
set-up alone cannot show.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    WORKLOADS = [w["name"] for w in json.load(_f)["workloads"]]


def _run(script: str, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", script), *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )


def test_bench_selftest_passes():
    proc = _run("selftest.py")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_workload_sets_up(workload):
    proc = _run("worker.py", "--workload", workload, "--seed", "1", "--setup-only")
    assert proc.returncode == 0, proc.stderr
    assert "ready" in json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_workload_traced_run_is_correct(workload):
    proc = _run("run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
