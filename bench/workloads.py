"""The four benchmark workloads: seeded inputs, the timed op, reference checks.

A workload's run is a sequence of rounds.  Every round has the same
structure (the same slots in the same order); only the seeded parameters
differ, so runs made with different seeds do the same kind of work.
``specs`` are plain tuples (comparable across runs); ``build`` turns one
into the op's input during set-up; ``must_trace(spec)`` names the
per-layer metrics a traced run of that op must measure; ``run(input)`` is the timed op and
calls the library only; ``check(spec, input, output, memo)`` compares the
output with its reference and returns the list of misses (empty when the
op passed).  Checks call no library function, so a traced pass records
only the ops.  ``memo`` is shared by the ops of one round, for references
that relate two ops.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import shutil

import numpy as np

from qdoeblin import channel as ch
from qdoeblin import cli, doeblin as db, oracles, sdpcore

import tracing

OK_STATUSES = (sdpcore.STATUS_OPTIMAL, db.STATUS_NOT_APPLICABLE)
KINDS = ("alpha", "alphaT", "alphaH", "p1", "rev", "revT", "revH")


# Per-layer metrics a traced run measures once it calls into the layer.
LAYER_METRICS = {
    "sdpcore": ("solves", "busy_s", "iterations", "ms_per_iter", "non_optimal", "schur_gflop_computed"),
    "doeblin": ("busy_s", "self_s"),
    "hermlin": ("calls", "busy_s"),
    "channel": ("calls", "busy_s"),
    "oracles": ("busy_s", "self_s"),
    "cli": ("busy_s", "self_s", "pool_wait_s"),
}


def layer_metrics(*layers: str) -> set[str]:
    return {f"{layer}.{m}" for layer in layers for m in LAYER_METRICS[layer]}


def kind_metrics(kind: str, d_in: int, d_out: int) -> set[str]:
    key = tracing.dim_key(d_in, d_out)
    return {f"doeblin.{kind}.{key}.ms_p50", f"doeblin.{kind}.{key}.iters_p50"}


def _expect(misses: list, ok: bool, what: str) -> None:
    # ``ok`` is False for NaN comparisons, so a NaN value is a miss.
    if not ok:
        misses.append(what)


def _status(misses: list, res, label: str) -> None:
    _expect(misses, res.status in OK_STATUSES, f"{label} status {res.status}")


def _entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


class QubitGrid:
    """Figure and sweep traffic: many tiny same-shaped SDPs per point.

    A round is 15 points drawn uniformly from the fig1/fig5/fig6 lattice,
    so boundary rows keep their share of it (200 of 2601 points), and one
    random qubit channel.  The random share is not the traffic share:
    ``figures all`` plus ``check`` evaluate 7803 lattice cells and 24
    random qubit channels (about 0.3%), which would leave nearly every
    round without one.  One per round is the least that keeps every round
    the same and still covers a channel without the lattice's symmetry.
    """

    name = "qubit_grid"
    basis_dims = (2, 4)
    N = 51  # the lattice is N x N over [0, 1]^2
    # alphaT runs a solve only at PPT points (13% of the lattice), so a
    # traced run need not reach it here; qudit_solves always does.
    SOLVED_KINDS = ("alpha", "alphaH", "rev", "revT", "revH")

    def must_trace(self, spec) -> set[str]:
        return (
            layer_metrics("sdpcore", "doeblin", "hermlin", "channel", "oracles")
            | {"channel.link_raw.calls", "doeblin.dp_range.ms_p50"}
            | {m for kind in self.SOLVED_KINDS for m in kind_metrics(kind, 2, 2)}
        )

    def specs(self, rng) -> list[tuple]:
        out = []
        for _ in range(15):
            i, j = (int(v) for v in rng.integers(0, self.N, size=2))
            out.append(("gad", i, j))
        out.append(("random", int(rng.integers(0, 2**31))))
        return out

    def build(self, spec):
        if spec[0] == "gad":
            return ch.gad(spec[1] / (self.N - 1), spec[2] / (self.N - 1))
        return ch.random_channel(2, 2, seed=spec[1])

    def run(self, chan):
        return (
            db.dp_range(chan),
            db.alpha(chan),
            db.alpha_transpose(chan),
            db.alpha_hermitian(chan),
            db.reverse_alpha_hermitian(chan),
            oracles.eta_tr_qubit(chan),
        )

    def check(self, spec, chan, out, memo) -> list[str]:
        dp, a, at, ah, rh, eta_tr = out
        misses: list[str] = []
        for res, label in ((a, "alpha"), (at, "alphaT"), (ah, "alphaH"), (rh, "revH")):
            _status(misses, res, label)
        _expect(misses, dp.lower <= dp.upper + 1e-7, f"lower {dp.lower} > upper {dp.upper}")
        _expect(misses, eta_tr <= 1.0 - a.value + 1e-3, f"eta_tr {eta_tr} > 1 - alpha {1 - a.value}")
        _expect(misses, a.value <= ah.value + 1e-6, f"alpha {a.value} > alphaH {ah.value}")
        if spec[0] == "gad":
            eta = spec[2] / (self.N - 1)
            _expect(misses, abs(1.0 - rh.value - eta) <= 1e-4, f"1 - revH {1 - rh.value} != eta {eta}")
        return misses


class QuditSolves:
    """Large real-embedded blocks: one coefficient call per op at d = 3, 4.

    d = 5 is left out: a single p1 solve takes 42.6 s there.  Per round and
    dimension one random channel is shared by the slots that use one, so
    the references relating two kinds see the same channel.  Every kind
    meets a depolarizing channel at one dimension and a random channel at
    the other, except alphaT: random channels are not PPT, so alphaT always
    gets a depolarizing channel from the PPT range p >= d/(d+1).
    """

    name = "qudit_solves"
    basis_dims = (3, 4, 9, 16)
    RANDOM = {3: ("alpha", "alphaH", "p1"), 4: ("rev", "revT", "revH")}

    def specs(self, rng) -> list[tuple]:
        out = []
        for d in (3, 4):
            seed = int(rng.integers(0, 2**31))
            for kind in KINDS:
                if kind in self.RANDOM[d]:
                    out.append((kind, d, "random", seed))
                elif kind == "alphaT":
                    out.append((kind, d, "dep", float(rng.uniform(d / (d + 1) + 0.01, 0.99))))
                else:
                    out.append((kind, d, "dep", float(rng.uniform(0.05, 0.95))))
        return out

    def must_trace(self, spec) -> set[str]:
        kind, d = spec[:2]
        extra = {"channel.link_raw.calls"} if kind.startswith("rev") else set()
        return layer_metrics("sdpcore", "doeblin", "hermlin", "channel") | extra | kind_metrics(kind, d, d)

    def build(self, spec):
        kind, d, family, param = spec
        if family == "random":
            return kind, ch.random_channel(d, d, seed=param)
        return kind, ch.depolarizing(param, d)

    def run(self, inp):
        kind, chan = inp
        return cli.KIND_FUNCS[kind](chan)

    def check(self, spec, inp, res, memo) -> list[str]:
        kind, d, family, param = spec
        misses: list[str] = []
        v = res.value
        if family == "random":
            _expect(misses, res.status == sdpcore.STATUS_OPTIMAL, f"status {res.status}")
            memo[(d, kind)] = v
            if kind in ("alphaH", "p1") and (d, "alpha") in memo:
                a = memo[(d, "alpha")]
                _expect(misses, a <= v + 1e-6, f"alpha {a} > {kind} {v}")
            if kind == "revH" and (d, "rev") in memo:
                r = memo[(d, "rev")]
                _expect(misses, v <= r + 1e-6, f"revH {v} > rev {r}")
            return misses
        p = param
        _expect(misses, res.status == sdpcore.STATUS_OPTIMAL, f"status {res.status}")
        expected = {
            "alpha": p,
            "alphaH": p,
            "rev": p,
            "revH": p,
            "p1": min(1.0, p * (d + 1) / d),
            "revT": (d + p) / (d + 1),
            "alphaT": p - d * abs(1.0 - p),
        }[kind]
        _expect(misses, abs(v - expected) <= 1e-5, f"{kind}(depolarizing {p}, d={d}) = {v}, expected {expected}")
        return misses


class ClassicalBiso:
    """Bisection LPs built from many 1x1 blocks, plus embedded classical channels."""

    name = "classical_biso"
    basis_dims = (2,)
    OUTPUTS = (2, 3, 4, 5, 6)

    def specs(self, rng) -> list[tuple]:
        out = [("biso", m, int(rng.integers(0, 2**31))) for m in self.OUTPUTS]
        out += [("bsc", float(rng.uniform(0.02, 0.45))) for _ in range(2)]
        out += [("embed", m, int(rng.integers(0, 2**31))) for m in self.OUTPUTS]
        return out

    def must_trace(self, spec) -> set[str]:
        if spec[0] == "embed":
            return layer_metrics("sdpcore", "doeblin", "hermlin") | kind_metrics("alpha", 2, spec[1])
        return layer_metrics("sdpcore", "oracles") | {"oracles.lp_solves_per_reverse"}

    def build(self, spec):
        if spec[0] == "bsc":
            return oracles.bsc(spec[1])
        c = oracles.random_biso(np.random.default_rng(spec[2]), spec[1])
        if spec[0] == "embed":
            return ch.classical_embed(c.matrix), float(c.matrix.min(axis=1).sum())
        return c

    def run(self, inp):
        if isinstance(inp, tuple):
            return db.alpha(inp[0])
        return (
            oracles.classical_doeblin(inp),
            oracles.classical_gamma(inp),
            oracles.classical_reverse_alpha(inp),
        )

    def check(self, spec, inp, out, memo) -> list[str]:
        misses: list[str] = []
        if spec[0] == "embed":
            min_sum = inp[1]
            _expect(misses, out.status == sdpcore.STATUS_OPTIMAL, f"status {out.status}")
            _expect(misses, abs(out.value - min_sum) <= 1e-5, f"alpha {out.value} != min-sum {min_sum}")
            return misses
        a, g, ra = out
        _expect(misses, a <= g + 1e-9, f"doeblin {a} > gamma {g}")
        _expect(misses, g <= ra + 1e-5, f"gamma {g} > reverse {ra}")
        if spec[0] == "bsc":
            h = _entropy(spec[1])
            _expect(misses, abs(ra - h) <= 1e-4, f"reverse {ra} != h(p) {h}")
        return misses


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _num(text: str) -> float:
    return math.nan if text == cli.NAN_LITERAL else float(text)


class CliFigures:
    """The cli layer: process pool, CSV and SVG writing for fig2, fig4, fig8."""

    name = "cli_figures"
    basis_dims = (2, 4)
    FIGS = ("fig2", "fig4", "fig8")

    def __init__(self, outdir: str, jobs: int):
        self.outdir = outdir
        self.jobs = jobs

    def specs(self, rng) -> list[tuple]:
        # The figure grids are fixed; the seed has no input to vary here.
        return [("figures",) + self.FIGS]

    def must_trace(self, spec) -> set[str]:
        # With one core the figures run in this process and reach the
        # library layers too; with more they run in the pool.
        return layer_metrics("cli") | {"cli.bytes_written"}

    def build(self, spec):
        argv = ["figures"]
        for fig in spec[1:]:
            argv += ["--which", fig]
        return argv + ["--jobs", str(self.jobs), "--outdir", self.outdir]

    def run(self, argv):
        shutil.rmtree(self.outdir, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def bytes_written(self) -> int:
        return sum(e.stat().st_size for e in os.scandir(self.outdir))

    def check(self, spec, argv, code, memo) -> list[str]:
        misses: list[str] = []
        _expect(misses, code == cli.EXIT_OK, f"exit code {code}")
        if code != cli.EXIT_OK:
            return misses
        rows = {f: _read_csv(os.path.join(self.outdir, f"{f}.csv")) for f in self.FIGS}
        for fig, table in rows.items():
            for row in table:
                for col, val in row.items():
                    if col.endswith("_status"):
                        _expect(misses, val in OK_STATUSES, f"{fig} {col} = {val} at {row}")
        # Error lists rather than running maxima, so a NaN value is a miss.
        e1, e2, e3, e4, sep = [], [], [], [], []
        for row in rows["fig2"]:
            p, a, at = float(row["p"]), _num(row["alpha"]), _num(row["alphaT"])
            if p <= 1.0 + 1e-12:
                e1.append(abs(a - p))
            if p >= 1.0 - 1e-12:
                e2.append(abs(max(a, at) - (2.0 - p)))
            if p > 1.0 + 1e-9:
                sep.append((2.0 - p) - a)
        for row in rows["fig4"]:
            p = float(row["p"])
            if p <= 1.0 + 1e-12:
                e3 += [abs(_num(row["rev"]) - p), abs(_num(row["revT"]) - (2.0 + p) / 3.0)]
        for row in rows["fig8"]:
            e4.append(abs(_num(row["one_minus_revH"]) - float(row["eta"])))
        _expect(misses, all(e <= 1e-5 for e in e1), f"fig2 alpha vs p err {max(e1)}")
        _expect(misses, all(e <= 1e-4 for e in e2), f"fig2 max(alpha, alphaT) vs 2-p err {max(e2)}")
        _expect(misses, all(s > 1e-3 for s in sep), f"fig2 alpha separation {min(sep)}")
        _expect(misses, all(e <= 1e-4 for e in e3), f"fig4 rev/revT closed form err {max(e3)}")
        _expect(misses, all(e <= 1e-4 for e in e4), f"fig8 1-revH vs eta err {max(e4)}")
        for fig in self.FIGS:
            size = os.path.getsize(os.path.join(self.outdir, f"{fig}.svg"))
            _expect(misses, 0 < size < 200_000, f"{fig}.svg size {size}")
        return misses


def round_specs(wl, seed: int, n_rounds: int) -> list[list[tuple]]:
    """The seeded inputs of a run: ``n_rounds`` rounds of op specs."""
    rng = np.random.default_rng([seed, NAMES.index(wl.name)])
    return [wl.specs(rng) for _ in range(n_rounds)]


def make(name: str, workdir: str, jobs: int):
    if name == "cli_figures":
        return CliFigures(os.path.join(workdir, "figures"), jobs)
    return {"qubit_grid": QubitGrid, "qudit_solves": QuditSolves, "classical_biso": ClassicalBiso}[name]()


NAMES = ("qubit_grid", "qudit_solves", "classical_biso", "cli_figures")
