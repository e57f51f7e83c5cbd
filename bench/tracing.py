"""Patch points and span arithmetic for the traced benchmark run.

The benchmark never edits library code.  It replaces module attributes
with wrappers for the duration of a pass and restores them afterwards.
Every public function of the six layer modules is a patch point, plus
``cli._run_tasks`` (time the ``cli`` layer spends waiting on its process
pool).  Names bound at import time (``doeblin.link_raw``,
``doeblin.max_entangled``, ``doeblin.swap_matrix``, the names ``oracles``
takes from ``channel``) and the function references held in the
``cli.KIND_FUNCS`` and ``channel.FAMILIES`` registries are patched too, by
finding every binding of a wrapped function in the package.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time

LAYERS = ("hermlin", "channel", "sdpcore", "doeblin", "oracles", "cli")
# Pseudo-layer for the cli's wait on pool workers; its spans are not cli
# self time.  Work done inside the workers is not traced.
POOL = "pool"
REGISTRIES = (("cli", "KIND_FUNCS"), ("channel", "FAMILIES"))


def patch_targets(modules: dict) -> list[tuple[str, str, object]]:
    """(layer, qualified name, function) for every patch point."""
    targets = []
    for layer in LAYERS:
        mod = modules[layer]
        for name, value in vars(mod).items():
            if (
                inspect.isfunction(value)
                and value.__module__ == mod.__name__
                and not name.startswith("_")
            ):
                targets.append((layer, f"{layer}.{name}", value))
    targets.append((POOL, "cli._run_tasks", modules["cli"]._run_tasks))
    return targets


class Patch:
    """Replace every binding of the patch points; ``restore`` undoes it.

    ``make_wrapper(layer, name, fn)`` returns the replacement for ``fn``.
    Used as a context manager, the originals come back even when the body
    raises.
    """

    def __init__(self, modules: dict, make_wrapper):
        by_id = {}
        for layer, name, fn in patch_targets(modules):
            by_id[id(fn)] = (fn, make_wrapper(layer, name, fn))
        self._undo = []
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._undo.append((setattr, mod, attr, value))
        for layer, attr in REGISTRIES:
            registry = getattr(modules[layer], attr)
            for key, value in list(registry.items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    registry[key] = hit[1]
                    self._undo.append((dict.__setitem__, registry, key, value))

    def restore(self) -> None:
        while self._undo:
            put, target, key, value = self._undo.pop()
            put(target, key, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def schur_flops(problem) -> float:
    """Computed flops of one Schur-complement build for an ``SdpProblem``.

    Per block with ``k`` coefficient matrices of side ``m``: two stacked
    ``m x m`` products per coefficient (``4 k m^3``) and the pairwise trace
    contraction (``2 k^2 m^2``).  The solver adds the big-M shift variable
    to every user block, a 1x1 block per finite box bound, and one 1x1
    block for the shift itself.
    """
    total = 0.0
    for blk in problem.blocks:
        k, m = len(blk.coeffs) + 1, blk.c.shape[0]
        total += 4.0 * k * m**3 + 2.0 * k * k * m * m
    n_box = 0
    for bound in (problem.lower, problem.upper):
        if bound is not None:
            n_box += sum(1 for v in bound if abs(v) != float("inf"))
    total += n_box * (4.0 * 2 + 2.0 * 4) + (4.0 + 2.0)
    return total


class Tracer:
    """Collects spans ``[name, layer, start, end, parent, op, info]`` in memory."""

    def __init__(self, kind_names: dict[str, str]):
        """``kind_names`` maps doeblin function names to their cli kind names."""
        self.kind_names = kind_names
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    def wrapper(self, layer: str, name: str, fn):
        describe = self._describer(layer, fn)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if describe is not None:
                span[6] = describe(args, result)
            return result

        return traced

    def _describer(self, layer: str, fn):
        if layer == "sdpcore" and fn.__name__ == "solve":
            return lambda args, sol: (sol.iterations, sol.status, schur_flops(args[0]))
        kind = self.kind_names.get(fn.__name__)
        if layer == "doeblin" and kind is not None:

            def describe(args, res):
                chan = args[0]
                iters = res.solution.iterations if res.solution is not None else None
                return (kind, chan.d_in, chan.d_out, iters)

            return describe
        return None


def analyse(spans: list[list], n_ops: int) -> tuple[dict, dict]:
    """Per-layer metrics (``value`` per metric name) and the per-kind table.

    Self time of a span is its duration minus the durations of its direct
    children; a layer's self time sums that over its spans.  A layer's busy
    time sums the spans that have no ancestor in the same layer, so nested
    calls within a layer are not counted twice.  Work counts and times are
    per op, so runs of different length compare.  A metric is left out when
    the spans hold nothing it could be measured from (a layer never called,
    a kind that never ran a solve), so a missing layer cannot read as 0.
    """
    n = len(spans)
    child_time = [0.0] * n
    for s in spans:
        if s[4] >= 0:
            child_time[s[4]] += s[3] - s[2]
    path: list[frozenset] = [frozenset()] * n
    busy: dict[str, float] = {}
    self_t: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, (name, layer, t0, t1, parent, _op, _info) in enumerate(spans):
        if parent >= 0:
            path[i] = path[parent] | {spans[parent][1]}
        dur = t1 - t0
        if layer not in path[i]:
            busy[layer] = busy.get(layer, 0.0) + dur
        self_t[layer] = self_t.get(layer, 0.0) + dur - child_time[i]
        calls[layer] = calls.get(layer, 0) + 1
        calls[name] = calls.get(name, 0) + 1

    per_op = 1.0 / max(n_ops, 1)
    out = {}
    for layer in LAYERS:
        if layer in calls:
            out[f"{layer}.busy_s"] = busy[layer] * per_op
            out[f"{layer}.self_s"] = self_t[layer] * per_op
    for layer in ("hermlin", "channel"):
        if layer in calls:
            out[f"{layer}.calls"] = calls[layer] * per_op
    if POOL in calls:
        out["cli.pool_wait_s"] = busy[POOL] * per_op
    if "channel.link_raw" in calls:
        out["channel.link_raw.calls"] = calls["channel.link_raw"] * per_op

    solves = [s for s in spans if s[0] == "sdpcore.solve"]
    if solves:
        done = [s[6] for s in solves if s[6] is not None]  # a solve that raised has no info
        iterations = sum(info[0] for info in done)
        non_optimal = len(solves) - sum(1 for info in done if info[1] == "optimal")
        out["sdpcore.solves"] = len(solves) * per_op
        out["sdpcore.iterations"] = iterations * per_op
        out["sdpcore.non_optimal"] = non_optimal * per_op
        out["sdpcore.schur_gflop_computed"] = 1e-9 * sum(info[0] * info[2] for info in done) * per_op
        if iterations:
            out["sdpcore.ms_per_iter"] = 1e3 * busy["sdpcore"] / iterations

    n_reverse = calls.get("oracles.classical_reverse_alpha", 0)
    if n_reverse:
        reverse_lps = 0
        for s in solves:
            p = s[4]
            while p >= 0 and spans[p][0] != "oracles.classical_reverse_alpha":
                p = spans[p][4]
            reverse_lps += p >= 0
        out["oracles.lp_solves_per_reverse"] = reverse_lps / n_reverse
    dp = [s[3] - s[2] for s in spans if s[0] == "doeblin.dp_range"]
    if dp:
        out["doeblin.dp_range.ms_p50"] = 1e3 * statistics.median(dp)

    groups: dict[tuple[str, str], list[tuple[float, int]]] = {}
    for s in spans:
        info = s[6]
        if s[1] == "doeblin" and info is not None and info[3] is not None:
            kind, d_in, d_out, _ = info
            groups.setdefault((kind, dim_key(d_in, d_out)), []).append((s[3] - s[2], info[3]))
    table = {}
    for (kind, dkey), rows in sorted(groups.items()):
        ms = 1e3 * statistics.median([r[0] for r in rows])
        iters = statistics.median([r[1] for r in rows])
        out[f"doeblin.{kind}.{dkey}.ms_p50"] = ms
        out[f"doeblin.{kind}.{dkey}.iters_p50"] = iters
        table[f"{kind}.{dkey}"] = {"n": len(rows), "ms_p50": ms, "iters_p50": iters}
    return out, table


def dim_key(d_in: int, d_out: int) -> str:
    """``d3`` for a 3 -> 3 channel, ``d2x5`` for a 2 -> 5 one."""
    return f"d{d_in}" if d_in == d_out else f"d{d_in}x{d_out}"
