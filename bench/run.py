"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in its own process
(``worker.py``), started with one BLAS/OpenMP thread so numpy never
oversubscribes the cores.  With ``--trace 0`` the last line of stdout
holds every end-to-end metric of ``BENCHMARK.json``; with ``--trace 1``
every per-layer metric.  End-to-end timings are scaled to reference speed
(see ``worker.py``).  The lines before it give the environment and a
report (rounds, latency percentiles, raw timings, fail_frac, failures, the
per-kind x per-dimension table of a traced run).  Exits 1 when an op failed its
reference check, 2 when the program cannot be run.

This script imports no numpy itself: it only starts, times and reads the
worker processes.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 4  # set-up-only processes; the measuring process adds a fifth sample
DEADLINE_S = 170.0  # the whole run, under the 180 s the harness allows


class ChildFailed(Exception):
    pass


def commit() -> str:
    """HEAD of the checkout read from .git, without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_child(args: list[str], env: dict, deadline: float) -> tuple[dict, float]:
    """Start a worker; return its JSON result and the monotonic start time."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        [sys.executable, WORKER] + args,
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and any pool it started
        proc.communicate()
        raise ChildFailed(f"worker {args} ran past the deadline")
    if proc.returncode != 0 or not out.strip():
        raise ChildFailed(f"worker {args} exited {proc.returncode}:\n{err.strip()}")
    return json.loads(out.strip().splitlines()[-1]), start


def main(argv=None) -> int:
    began = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; known: {names}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "qdoeblin", "__init__.py")):
        print(f"error: program sources not found under {ROOT}/src", file=sys.stderr)
        return 2

    env = dict(os.environ, **THREADS)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    deadline = began + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                ready, start = run_child(common + ["--setup-only"], env, deadline)
                setup.append((ready["ready"] - start) * ready["setup_speed"])
        result, start = run_child(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], env, deadline
        )
        setup.append((result["ready"] - start) * result["setup_speed"])
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    measured = dict(result["metrics"])
    if args.trace:
        # Per-layer metrics the workload does not reach read 0; the ones its
        # ops must reach (workloads.py, ``must_trace``) are required.
        declared = spec["per_layer"]
        required = result["report"]["required"]
    else:
        declared = spec["end_to_end"]
        measured["setup_s"] = statistics.median(setup)
        result["report"]["setup_samples_s"] = setup
        required = [m["name"] for m in declared]
    missing = [name for name in required if name not in measured]
    if missing:
        print(f"error: worker did not measure {missing}", file=sys.stderr)
        return 2

    env_block = dict(result["env"], commit=commit(), workload=args.workload, trace=args.trace)
    print("env " + json.dumps(env_block))
    print("report " + json.dumps(result["report"]))
    for failure in result["report"]["failures"]:
        print("FAILED " + failure, file=sys.stderr)
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in declared
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
