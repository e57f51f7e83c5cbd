"""Self-test of the benchmark harness:  python3 bench/selftest.py

Checks that a seed fixes the inputs, that a wrong value or a forced
``max_iter`` status injected through the patch points counts as a failed
op (and a raising op too), that patches are undone, and the span
arithmetic on a hand-built span tree.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from qdoeblin import channel, cli, doeblin, hermlin, oracles, sdpcore  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import Pass, SpeedProbe, run_round  # noqa: E402

PROBE = SpeedProbe()
MODULES = {
    "hermlin": hermlin, "channel": channel, "sdpcore": sdpcore,
    "doeblin": doeblin, "oracles": oracles, "cli": cli,
}


def one_round(wl, specs):
    return [[(spec, wl.build(spec)) for spec in specs]]


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in workloads.NAMES:
            wl = workloads.make(name, "unused", 1)
            first = workloads.round_specs(wl, 7, 3)
            self.assertEqual(first, workloads.round_specs(wl, 7, 3), name)
            if name != "cli_figures":  # fixed figure grids: no seeded input
                self.assertNotEqual(first, workloads.round_specs(wl, 8, 3), name)

    def test_rounds_share_structure(self):
        wl = workloads.QuditSolves()
        shapes = {tuple(s[:3] for s in r) for r in workloads.round_specs(wl, 3, 4)}
        self.assertEqual(len(shapes), 1)


class InjectedFaults(unittest.TestCase):
    def setUp(self):
        self.qudit = workloads.QuditSolves()
        self.rounds = one_round(self.qudit, [("alpha", 3, "dep", 0.4), ("alphaH", 3, "dep", 0.6)])

    def test_clean_ops_pass(self):
        res = run_round(self.qudit, self.rounds[0], Pass(), PROBE)
        self.assertEqual((res.attempted, res.failed), (2, 0))

    def test_wrong_value_fails(self):
        def make_wrapper(layer, name, fn):
            if name != "doeblin.alpha":
                return fn

            def wrong(*args, **kwargs):
                res = fn(*args, **kwargs)
                return dataclasses.replace(res, value=res.value + 1e-3)

            return wrong

        # cli.KIND_FUNCS holds its own reference, so this also checks that
        # the registry is patched.
        with tracing.Patch(MODULES, make_wrapper):
            res = run_round(self.qudit, self.rounds[0], Pass(), PROBE)
        self.assertEqual((res.attempted, res.failed), (2, 1))
        self.assertIn("expected 0.4", res.failures[0])

    def test_forced_max_iter_fails(self):
        def make_wrapper(layer, name, fn):
            if name != "sdpcore.solve":
                return fn
            return lambda problem, tol=sdpcore.DEFAULT_TOL, **kw: fn(problem, tol=tol, max_iter=2)

        with tracing.Patch(MODULES, make_wrapper):
            res = run_round(self.qudit, self.rounds[0], Pass(), PROBE)
        self.assertEqual(res.failed, 2)
        self.assertIn("status max_iter", res.failures[0])

    def test_forced_max_iter_fails_grid_point(self):
        grid = workloads.QubitGrid()
        rounds = one_round(grid, [("gad", 10, 20)])

        def make_wrapper(layer, name, fn):
            if name != "sdpcore.solve":
                return fn
            return lambda problem, tol=sdpcore.DEFAULT_TOL, **kw: fn(problem, tol=tol, max_iter=2)

        with tracing.Patch(MODULES, make_wrapper):
            res = run_round(grid, rounds[0], Pass(), PROBE)
        self.assertEqual((res.attempted, res.failed), (1, 1))

    def test_raising_op_is_a_failed_op(self):
        def make_wrapper(layer, name, fn):
            if name != "doeblin.alpha_hermitian":
                return fn

            def boom(*args, **kwargs):
                raise FloatingPointError("injected")

            return boom

        with tracing.Patch(MODULES, make_wrapper):
            res = run_round(self.qudit, self.rounds[0], Pass(), PROBE)
        self.assertEqual((res.attempted, res.failed), (2, 1))
        self.assertIn("FloatingPointError", res.failures[0])

    def test_patch_restores_every_binding(self):
        before = (doeblin.alpha, doeblin.link_raw, cli.KIND_FUNCS["revH"], channel.FAMILIES["gad"],
                  oracles.gad, cli._run_tasks, sdpcore.solve)
        with tracing.Patch(MODULES, lambda layer, name, fn: (lambda *a, **k: fn(*a, **k))):
            self.assertIsNot(doeblin.link_raw, before[1])
            self.assertIsNot(cli.KIND_FUNCS["revH"], before[2])
            self.assertIsNot(oracles.gad, before[4])
        after = (doeblin.alpha, doeblin.link_raw, cli.KIND_FUNCS["revH"], channel.FAMILIES["gad"],
                 oracles.gad, cli._run_tasks, sdpcore.solve)
        for a, b in zip(before, after):
            self.assertIs(a, b)


class RequiredMetrics(unittest.TestCase):
    def test_declared_in_benchmark_json(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
            declared = {m["name"] for m in json.load(fh)["per_layer"]}
        for name in workloads.NAMES:
            wl = workloads.make(name, "unused", 1)
            required = set().union(*(wl.must_trace(s) for s in workloads.round_specs(wl, 5, 1)[0]))
            # d2xN rows (classical channels with N outputs) are in the report only.
            self.assertEqual({m for m in required - declared if ".d2x" not in m}, set(), name)

    def test_qudit_round_requires_every_kind_and_dimension(self):
        wl = workloads.QuditSolves()
        required = set().union(*(wl.must_trace(s) for s in workloads.round_specs(wl, 5, 1)[0]))
        for kind in workloads.KINDS:
            for d in (3, 4):
                self.assertIn(f"doeblin.{kind}.d{d}.ms_p50", required)
                self.assertIn(f"doeblin.{kind}.d{d}.iters_p50", required)

    def test_traced_round_measures_what_it_requires(self):
        for wl, specs in (
            (workloads.QubitGrid(), [("gad", 10, 20), ("random", 3)]),
            (workloads.ClassicalBiso(), [("biso", 3, 11), ("embed", 3, 12)]),
        ):
            tracer = tracing.Tracer({fn.__name__: k for k, fn in cli.KIND_FUNCS.items()})
            with tracing.Patch(MODULES, tracer.wrapper):
                res = run_round(wl, one_round(wl, specs)[0], Pass(), PROBE, tracer)
            self.assertEqual(res.failed, 0, res.failures)
            m, _ = tracing.analyse(tracer.spans, res.attempted)
            required = set().union(*(wl.must_trace(s) for s in specs))
            self.assertEqual(required - set(m), set(), wl.name)


def span(name, t0, t1, parent, info=None):
    return [name, name.split(".")[0] if not name.startswith("cli._") else tracing.POOL,
            t0, t1, parent, 0, info]


class SpanArithmetic(unittest.TestCase):
    def test_self_and_busy_times(self):
        spans = [
            span("doeblin.alpha", 0.0, 10.0, -1, ("alpha", 2, 2, 7)),    # 0
            span("hermlin.real_embed", 1.0, 2.0, 0),                    # 1
            span("hermlin.require_hermitian", 1.2, 1.5, 1),             # 2
            span("sdpcore.solve", 3.0, 8.0, 0, (7, "optimal", 1e6)),    # 3
            span("doeblin.dp_range", 10.0, 30.0, -1),                   # 4
            span("doeblin.alpha_hermitian", 11.0, 15.0, 4, ("alphaH", 2, 2, 5)),  # 5
            span("sdpcore.solve", 12.0, 14.0, 5, (5, "max_iter", 2e6)),  # 6
            span("oracles.classical_reverse_alpha", 30.0, 40.0, -1),    # 7
            span("sdpcore.solve", 31.0, 33.0, 7, (3, "optimal", 0.0)),  # 8
            span("sdpcore.solve", 34.0, 35.0, 7, (3, "optimal", 0.0)),  # 9
            span("cli.main", 40.0, 50.0, -1),                           # 10
            span("cli._run_tasks", 41.0, 48.0, 10),                     # 11
        ]
        m, table = tracing.analyse(spans, n_ops=2)
        self.assertAlmostEqual(m["doeblin.busy_s"], 30.0 / 2)
        # (10 - 1 - 5) + (20 - 4) + (4 - 2)
        self.assertAlmostEqual(m["doeblin.self_s"], 22.0 / 2)
        self.assertAlmostEqual(m["hermlin.busy_s"], 1.0 / 2)
        self.assertAlmostEqual(m["hermlin.self_s"], 1.0 / 2)
        self.assertAlmostEqual(m["sdpcore.busy_s"], 10.0 / 2)
        self.assertAlmostEqual(m["sdpcore.solves"], 4 / 2)
        self.assertAlmostEqual(m["sdpcore.iterations"], 18 / 2)
        self.assertAlmostEqual(m["sdpcore.ms_per_iter"], 1e3 * 10.0 / 18)
        self.assertAlmostEqual(m["sdpcore.non_optimal"], 1 / 2)
        self.assertAlmostEqual(m["sdpcore.schur_gflop_computed"], 1e-9 * (7e6 + 10e6) / 2)
        self.assertAlmostEqual(m["oracles.self_s"], 7.0 / 2)
        self.assertAlmostEqual(m["oracles.lp_solves_per_reverse"], 2.0)
        self.assertAlmostEqual(m["cli.busy_s"], 10.0 / 2)
        self.assertAlmostEqual(m["cli.self_s"], 3.0 / 2)
        self.assertAlmostEqual(m["cli.pool_wait_s"], 7.0 / 2)
        self.assertAlmostEqual(m["hermlin.calls"], 2 / 2)
        self.assertAlmostEqual(m["doeblin.dp_range.ms_p50"], 20e3)
        self.assertAlmostEqual(m["doeblin.alpha.d2.ms_p50"], 10e3)
        self.assertEqual(m["doeblin.alphaH.d2.iters_p50"], 5)
        self.assertEqual(table["alpha.d2"]["n"], 1)
        self.assertNotIn("channel.busy_s", m)  # no channel spans: not measured, not 0
        self.assertNotIn("channel.link_raw.calls", m)

    def test_unreached_metrics_are_left_out(self):
        spans = [span("cli.main", 0.0, 5.0, -1), span("cli._run_tasks", 1.0, 4.0, 0)]
        m, table = tracing.analyse(spans, n_ops=1)
        self.assertEqual(set(m), {"cli.busy_s", "cli.self_s", "cli.pool_wait_s"})
        self.assertEqual(table, {})

    def test_raised_solve_counts_as_non_optimal(self):
        spans = [span("sdpcore.solve", 0.0, 1.0, -1, (4, "optimal", 0.0)),
                 span("sdpcore.solve", 1.0, 2.0, -1)]
        m, _ = tracing.analyse(spans, n_ops=1)
        self.assertEqual((m["sdpcore.solves"], m["sdpcore.iterations"], m["sdpcore.non_optimal"]), (2, 4, 1))

    def test_schur_flops_counts_every_block(self):
        import numpy as np

        problem = sdpcore.SdpProblem(
            num_vars=2,
            objective=np.ones(2),
            blocks=[sdpcore.SdpBlock(c=np.eye(3), coeffs=[(0, np.eye(3)), (1, np.eye(3))])],
            lower=np.array([0.0, -np.inf]),
            upper=np.array([1.0, 2.0]),
        )
        # user block k=3, m=3; three 1x1 box blocks with k=2; the shift block.
        expected = (4 * 3 * 27 + 2 * 9 * 9) + 3 * (4 * 2 + 2 * 4) + (4 + 2)
        self.assertEqual(tracing.schur_flops(problem), expected)


if __name__ == "__main__":
    unittest.main()
