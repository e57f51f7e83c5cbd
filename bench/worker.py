"""One workload in one process: set-up, timed rounds, optional traced pass.

``run.py`` starts this script with the BLAS thread variables already set,
so numpy loads single-threaded.  The last line of stdout is one JSON
object.  With ``--setup-only`` the process stops once it is ready, which
lets ``run.py`` time set-up several times.

Set-up is: import the package from ``src/``, build every round's inputs
from the seed, and one warm-up call that fills the ``hermitian_basis``
cache.  A round is a fixed slot structure (see ``workloads.py``); the
timed phase runs whole rounds, closed loop, one call in flight, until
``--seconds`` have passed.

Timings are reported at reference speed.  The host's speed swings with
its neighbours' load (a fixed loop of ten qubit solves took 0.14 s to
0.29 s within one minute on the 2-vCPU reference VM), which no run length
averages away.  So after every op the worker times a fixed calibration
kernel that does not touch the program, and scales timings by ``REF_S``
over the kernel's time (see ``run_round``).  Set-up is scaled by the
kernel's median over three runs right after it.  The raw timings are in
the report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_work")
N_ROUNDS = 24  # distinct seeded rounds; a run that needs more cycles them
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Calibration kernel time at reference speed: about its median on the
# 2-vCPU reference VM.
REF_S = 0.005


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


class SpeedProbe:
    """Times a fixed kernel of small dense factorisations and a Python loop.

    The kernel resembles the program's mix of small LAPACK calls and
    interpreter work but calls none of it, so program changes leave its
    time alone and only the host's speed moves it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = [m @ m.T + 8.0 * np.eye(8) for m in rng.standard_normal((4, 8, 8))]
        big = rng.standard_normal((16, 16))
        self._big = big @ big.T + 16.0 * np.eye(16)
        self.last = self.sample()

    def _kernel(self) -> float:
        t0 = now()
        acc = 0
        for _ in range(50):
            for m in self._small:
                np.linalg.eigvalsh(m)
                np.linalg.cholesky(m)
            self._big @ self._big
            for i in range(300):
                acc += i * i
        return now() - t0

    def sample(self, runs: int = 1) -> float:
        """Median kernel time over ``runs`` back-to-back runs."""
        self.last = statistics.median(self._kernel() for _ in range(runs))
        return self.last


class Pass:
    """What one pass over the rounds measured.

    ``latencies`` and ``round_wall``/``round_cpu`` are at reference speed;
    the ``raw_`` fields are as timed.
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.raw_latencies: list[float] = []
        self.round_wall: list[float] = []
        self.round_cpu: list[float] = []
        self.raw_wall = 0.0  # summed op latencies as timed
        self.speed: list[float] = []  # REF_S over the kernel time, per op
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.bytes_written = 0


def run_round(wl, ops, res: Pass, probe: SpeedProbe, tracer=None) -> Pass:
    """Run one round's ops in order, adding what they measured to ``res``.

    The calibration kernel runs after every op, more often after a long op
    (one run per 0.2 s of op time, at most five), and its median time is
    taken.  An op's wall and CPU time are scaled by the mean of the kernel
    times just before and after it.  Probe and check time stay out of the
    timings.
    """
    memo: dict = {}
    wall = cpu = 0.0
    for spec, inp in ops:
        if tracer is not None:
            tracer.op = res.attempted
        res.attempted += 1
        before = probe.last
        c0 = cpu_seconds()
        t0 = now()
        try:
            out = wl.run(inp)
        except Exception:  # a raising op is a failed op, not a crash
            out, misses = None, ["raised " + traceback.format_exc(limit=3)]
        else:
            misses = None
        lat = now() - t0
        used = cpu_seconds() - c0
        speed = 2.0 * REF_S / (before + probe.sample(1 + min(4, int(lat / 0.2))))
        res.speed.append(speed)
        res.raw_latencies.append(lat)
        res.latencies.append(lat * speed)
        res.raw_wall += lat
        wall += lat * speed
        cpu += used * speed
        if misses is None:
            try:
                misses = wl.check(spec, inp, out, memo)
            except Exception:
                misses = ["check raised " + traceback.format_exc(limit=3)]
        if hasattr(wl, "bytes_written") and not misses:
            res.bytes_written += wl.bytes_written()
        if misses:
            res.failed += 1
            if len(res.failures) < 5:
                res.failures.append(f"op {spec}: " + "; ".join(misses))
    res.round_wall.append(wall)
    res.round_cpu.append(cpu)
    return res


def run_pass(wl, rounds, seconds: float, probe: SpeedProbe) -> Pass:
    """Whole rounds, at least one, until ``seconds`` have passed."""
    res = Pass()
    begin = now()
    r = 0
    while r == 0 or now() - begin < seconds:
        run_round(wl, rounds[r % len(rounds)], res, probe)
        r += 1
    return res


def run_traced(wl, rounds, seconds: float, probe: SpeedProbe, modules: dict, tracer):
    """Each round untraced, then the same round traced, until ``seconds`` have passed.

    Alternating round by round exposes both passes to the same machine
    state, so their ratio is the tracing overhead.
    """
    plain, traced = Pass(), Pass()
    begin = now()
    r = 0
    while r == 0 or now() - begin < seconds:
        ops = rounds[r % len(rounds)]
        run_round(wl, ops, plain, probe)
        with tracing.Patch(modules, tracer.wrapper):
            run_round(wl, ops, traced, probe, tracer)
        r += 1
    return plain, traced


def percentile_report(latencies: list[float]) -> dict:
    """Median and p90 in ms; p90 only when at least 10 samples lie beyond it."""
    ms = sorted(1e3 * v for v in latencies)
    out = {"n": len(ms), "p50": statistics.median(ms)}
    if len(ms) >= 100:
        out["p90"] = statistics.quantiles(ms, n=10)[-1]
        out["beyond_p90"] = sum(1 for v in ms if v > out["p90"])
    else:
        out["p90"] = None
        out["p90_note"] = f"unresolved: {len(ms)} samples, fewer than 10 beyond p90"
    return out


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads_set": {var: os.environ.get(var) for var in THREAD_VARS},
        "cores": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import qdoeblin

    if os.path.dirname(os.path.abspath(qdoeblin.__file__)) != os.path.join(SRC, "qdoeblin"):
        print(f"error: qdoeblin loaded from {qdoeblin.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from qdoeblin import channel, cli, doeblin, hermlin, oracles, sdpcore

    import workloads

    jobs = len(os.sched_getaffinity(0))
    outdir = os.path.join(WORKDIR, f"work-{os.getpid()}")
    wl = workloads.make(args.workload, outdir, jobs)
    rounds = [
        [(spec, wl.build(spec)) for spec in specs]
        for specs in workloads.round_specs(wl, args.seed, N_ROUNDS)
    ]
    for n in wl.basis_dims:
        hermlin.hermitian_basis(n)
    doeblin.alpha(channel.depolarizing(0.5, 2))
    ready = now()
    probe = SpeedProbe()
    # Set-up is scaled to reference speed like the timed phase.
    setup_speed = REF_S / probe.sample(3)
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_speed": setup_speed}))
        return 0

    modules = {
        "hermlin": hermlin, "channel": channel, "sdpcore": sdpcore,
        "doeblin": doeblin, "oracles": oracles, "cli": cli,
    }
    try:
        if args.trace:
            tracer = tracing.Tracer({fn.__name__: k for k, fn in cli.KIND_FUNCS.items()})
            plain, traced = run_traced(wl, rounds, args.seconds, probe, modules, tracer)
            metrics, table = tracing.analyse(tracer.spans, traced.attempted)
            metrics["trace.overhead_frac"] = sum(traced.round_wall) / sum(plain.round_wall) - 1.0
            if hasattr(wl, "bytes_written"):
                metrics["cli.bytes_written"] = traced.bytes_written / traced.attempted
            n_rounds = len(traced.round_wall)
            required = {"trace.overhead_frac"}.union(
                *(wl.must_trace(spec) for r in range(n_rounds) for spec, _ in rounds[r % len(rounds)])
            )
            spans_path = os.path.join(WORKDIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
            os.makedirs(WORKDIR, exist_ok=True)
            with open(spans_path, "w", encoding="utf-8") as fh:
                for s in tracer.spans:
                    fh.write(json.dumps(s) + "\n")
            passes = (plain, traced)
            report = {
                "rounds": len(plain.round_wall),
                "untraced_wall_s": sum(plain.round_wall),
                "traced_wall_s": sum(traced.round_wall),
                "spans": len(tracer.spans),
                "spans_file": os.path.relpath(spans_path, ROOT),
                "per_kind": table,
                "required": sorted(required),
                "notes": [
                    "sdpcore.iterations counts only the last big-M attempt of each solve",
                    "sdpcore.schur_gflop_computed is computed from problem shapes, not measured",
                    "cli pool workers' spans stay in the workers; cli.pool_wait_s is the"
                    " main process waiting on them",
                    "work counts and busy/self times are per op; a metric not in"
                    " 'required' reads 0 where the workload does not reach that layer or kind",
                ],
            }
        else:
            main_pass = run_pass(wl, rounds, args.seconds, probe)
            passes = (main_pass,)
            wall_s = statistics.median(main_pass.round_wall)
            ops_per_round = main_pass.attempted // len(main_pass.round_wall)
            metrics = {
                "wall_s": wall_s,
                "cpu_s": statistics.median(main_pass.round_cpu),
                "ops_per_s": ops_per_round / wall_s,
                "op_ms_p50": 1e3 * statistics.median(main_pass.latencies),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            speed = main_pass.speed
            report = {
                "rounds": len(main_pass.round_wall),
                "ops_per_round": ops_per_round,
                "op_ms": percentile_report(main_pass.latencies),
                "speed_factor": {"p50": statistics.median(speed), "min": min(speed), "max": max(speed)},
                "raw": {
                    "ops_per_s": main_pass.attempted / main_pass.raw_wall,
                    "op_ms": percentile_report(main_pass.raw_latencies),
                },
                "round_wall_s": main_pass.round_wall,
                "round_cpu_s": main_pass.round_cpu,
            }
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    report["fail_frac"] = failed / attempted
    report["failures"] = [f for p in passes for f in p.failures][:5]
    print(json.dumps({
        "ready": ready,
        "setup_speed": setup_speed,
        "env": environment(args.seed),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "report": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
