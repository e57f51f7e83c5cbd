"""CLI behaviour: exit codes, CSV dialect, figures, check suites."""

import importlib
import itertools
import json
import multiprocessing
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import qdoeblin
from qdoeblin import channel as ch
from qdoeblin import cli, properties, sdpcore
from qdoeblin import doeblin as db


def run(*argv):
    return cli.main(list(argv))


def read_csv(path):
    lines = path.read_text().split("\n")
    assert lines[-1] == ""
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:-1]]
    return header, rows


def test_coeff_depolarizing_alpha(capsys):
    code = run("coeff", "--channel", "depolarizing", "--d", "2", "--p", "0.5",
               "--kind", "alpha")
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "alpha,alpha_status"
    value, status = out[1].split(",")
    assert abs(float(value) - 0.5) < 1e-6
    assert status == "optimal"


def test_coeff_identity_alphaT_not_ppt(capsys):
    code = run("coeff", "--channel", "identity", "--d", "2", "--kind", "alphaT")
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[1] == "nan_not_ppt,not_applicable"


def test_coeff_multiple_kinds_keep_request_order(capsys):
    code = run("coeff", "--channel", "depolarizing", "--p", "0.3",
               "--kind", "rev", "--kind", "alpha")
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "rev,rev_status,alpha,alpha_status"
    cells = out[1].split(",")
    assert abs(float(cells[0]) - 0.3) < 1e-5
    assert abs(float(cells[2]) - 0.3) < 1e-5


def test_coeff_from_kraus_file(tmp_path, capsys):
    # amplitude damping with survival 0.64
    payload = {
        "d_in": 2,
        "d_out": 2,
        "kraus": [
            [[1, 0], [0, 0], [0, 0], [0.8, 0]],
            [[0, 0], [0.6, 0], [0, 0], [0, 0]],
        ],
    }
    path = tmp_path / "chan.json"
    path.write_text(json.dumps(payload))
    code = run("coeff", "--file", str(path), "--kind", "revH")
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    value = float(out[1].split(",")[0])
    assert 0.0 <= value <= 1.0
    assert abs(value - 0.36) < 1e-4


def test_coeff_from_named_file(tmp_path, capsys):
    path = tmp_path / "dep.json"
    path.write_text(json.dumps({"name": "depolarizing", "params": {"p": 0.3}}))
    code = run("coeff", "--file", str(path), "--kind", "alpha")
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert abs(float(out[1].split(",")[0]) - 0.3) < 1e-6


def test_coeff_usage_errors(capsys):
    assert run("coeff", "--channel", "nosuch", "--kind", "alpha") == 1
    assert run("coeff", "--channel", "depolarizing", "--p", "0.5",
               "--kind", "nosuch") == 1
    assert run("coeff", "--channel", "depolarizing", "--p", "3.0",
               "--kind", "alpha") == 1
    assert run("coeff", "--channel", "depolarizing", "--p", "0.5",
               "--eta", "0.5", "--kind", "alpha") == 1
    assert run("coeff", "--kind", "alpha") == 1
    assert run("coeff", "--channel", "depolarizing", "--p", "0.5") == 1
    for tol in ("nan", "inf", "-inf", "-1e-8"):
        assert run("coeff", "--channel", "depolarizing", "--p", "0.3",
                   "--kind", "alpha", "--tol", tol) == 1
    # --d is a dimension: a fraction, nan or inf is not read as one, and
    # the depolarizing family needs d >= 2.
    for d in ("2.7", "nan", "inf", "0", "1"):
        assert run("coeff", "--channel", "depolarizing", "--d", d, "--p", "0.3",
                   "--kind", "alpha") == 1
    capsys.readouterr()


def test_combine_th_gate(capsys):
    assert run("coeff", "--channel", "depolarizing", "--p", "0.5",
               "--kind", "alphaTH") == 1
    err = capsys.readouterr().err
    assert "--combine-th" in err
    code = run("coeff", "--channel", "depolarizing", "--p", "0.5",
               "--kind", "alphaTH", "--combine-th")
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert abs(float(out[1].split(",")[0]) - (-0.5)) < 1e-5


def test_each_command_takes_only_the_options_it_reads(tmp_path, capsys):
    # --seed is read by check alone and --jobs by sweep and figures alone.
    coeff = ("coeff", "--channel", "depolarizing", "--p", "0.5", "--kind", "alpha")
    sweep = ("sweep", "--channel", "depolarizing", "--sweep", "p", "--start", "0",
             "--stop", "1", "--step", "0.5", "--kind", "alpha", "--out", str(tmp_path / "x.csv"))
    figures = ("figures", "--which", "fig2", "--outdir", str(tmp_path / "figs"))
    assert run(*coeff, "--seed", "1") == 1
    assert run(*coeff, "--jobs", "1") == 1
    assert run(*sweep, "--seed", "1") == 1
    assert run(*figures, "--seed", "1") == 1
    assert run("check", "--suite", "linalg", "--jobs", "2") == 1
    assert not list(tmp_path.iterdir())
    capsys.readouterr()


@pytest.mark.parametrize("seed", ["-1", "0.5", "x"])
def test_check_seed_must_be_a_nonnegative_integer(seed, capsys):
    # numpy's generators reject a negative seed; argparse names the flag
    # before any suite runs.
    assert run("check", "--suite", "linalg", "--seed", seed) == 1
    captured = capsys.readouterr()
    assert "--seed" in captured.err
    assert captured.out == ""


def test_kind_registries_agree():
    # A CLI kind is the doeblin kind of the same name: the grid path passes
    # it to db.solve_grids unchanged, and it answers as the kind function.
    assert set(cli.KIND_FUNCS) == set(db._DECLARATIONS) == set(cli.BASE_KINDS) | {"alphaTH"}
    for chan in (ch.gad(0.3, 0.6), ch.random_channel(2, 2, seed=9)):
        for kind, func in cli.KIND_FUNCS.items():
            want = func(chan)
            [got] = db.solve_grid(kind, [chan])
            assert got.kind == want.kind == kind
            assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes()
            assert got.status == want.status
            assert got.not_applicable == want.not_applicable
            iterations = [r.solution.iterations if r.solution else None for r in (got, want)]
            assert iterations[0] == iterations[1]


@pytest.mark.parametrize("payload", [
    {"name": "gad", "params": {"p": 0.5, "eta": 0.5, "zzz": 1}},
    {"d_in": 2, "d_out": 2, "kraus": [[1, 0, 0, 1]]},
    5,
], ids=["unknown-param", "entries-not-pairs", "bare-number"])
def test_malformed_channel_file_is_usage_error(tmp_path, capsys, payload):
    path = tmp_path / "chan.json"
    path.write_text(json.dumps(payload))
    assert run("coeff", "--file", str(path), "--kind", "alpha") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad channel file")
    assert "Traceback" not in err


def test_missing_channel_file_is_io_error(capsys):
    assert run("coeff", "--file", "/nonexistent/chan.json",
               "--kind", "alpha") == 3
    capsys.readouterr()


def test_sweep_degenerate_single_point(tmp_path):
    out = tmp_path / "one.csv"
    code = run("sweep", "--channel", "depolarizing", "--sweep", "p",
               "--start", "0.4", "--stop", "0.4", "--step", "0.1",
               "--kind", "alpha", "--out", str(out))
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["p", "alpha", "alpha_status"]
    assert len(rows) == 1
    assert abs(float(rows[0]["alpha"]) - 0.4) < 1e-6


def test_sweep_grid_and_not_ppt_literal(tmp_path):
    out = tmp_path / "sw.csv"
    code = run("sweep", "--channel", "depolarizing", "--sweep", "p",
               "--start", "0", "--stop", "0.5", "--step", "0.25",
               "--kind", "alpha", "--kind", "alphaT", "--out", str(out))
    assert code == 0
    _, rows = read_csv(out)
    assert [r["p"] for r in rows] == ["0", "0.25", "0.5"]
    assert all(r["alphaT"] == "nan_not_ppt" for r in rows)
    assert all(r["alphaT_status"] == "not_applicable" for r in rows)
    for r in rows:
        assert abs(float(r["alpha"]) - float(r["p"])) < 1e-6


def test_sweep_deterministic_and_parallel_order(tmp_path):
    args = ("sweep", "--channel", "depolarizing", "--sweep", "p",
            "--start", "0", "--stop", "1", "--step", "0.25",
            "--kind", "alpha")
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert run(*args, "--out", str(a), "--jobs", "1") == 0
    assert run(*args, "--out", str(b), "--jobs", "1") == 0
    assert run(*args, "--out", str(c), "--jobs", "2") == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() == c.read_bytes()


def test_sweep_builds_each_channel_once(tmp_path, monkeypatch):
    # The chunk of a sweep is one stacked build of all its points.
    calls = []
    build = ch.depolarizing_stack

    def counting(**params):
        calls.append(params)
        return build(**params)

    monkeypatch.setattr(ch, "depolarizing_stack", counting)
    code = run("sweep", "--channel", "depolarizing", "--sweep", "p",
               "--start", "0", "--stop", "1", "--step", "0.25",
               "--kind", "alpha", "--kind", "alphaT", "--jobs", "1",
               "--out", str(tmp_path / "sw.csv"))
    assert code == 0
    assert [c["p"] for c in calls] == [[0.0, 0.25, 0.5, 0.75, 1.0]]


def test_repeated_kind_writes_every_column(tmp_path, capsys):
    # A kind asked for twice is solved once but still fills both columns,
    # with the values it has when asked for alone.
    coeff = ("coeff", "--channel", "gad", "--p", "0.3", "--eta", "0.6")
    assert run(*coeff, "--kind", "rev") == 0
    _, row = capsys.readouterr().out.splitlines()
    assert run(*coeff, "--kind", "rev", "--kind", "alpha", "--kind", "rev") == 0
    twice = capsys.readouterr().out.splitlines()
    assert twice[0] == "rev,rev_status,alpha,alpha_status,rev,rev_status"
    cells = twice[1].split(",")
    assert cells[:2] == cells[4:] == row.split(",")

    sweep = ("sweep", "--channel", "depolarizing", "--sweep", "p", "--start", "0",
             "--stop", "1", "--step", "0.25", "--jobs", "1")
    one, two = tmp_path / "one.csv", tmp_path / "two.csv"
    assert run(*sweep, "--kind", "revT", "--out", str(one)) == 0
    assert run(*sweep, "--kind", "revT", "--kind", "revT", "--out", str(two)) == 0
    _, alone = read_csv(one)
    header, *lines = two.read_text().splitlines()
    assert header == "p,revT,revT_status,revT,revT_status"
    assert len(lines) == len(alone) == 5
    for line, r in zip(lines, alone):
        p, a, a_status, b, b_status = line.split(",")
        assert (p, a, a_status) == (p, b, b_status) == (r["p"], r["revT"], r["revT_status"])


def test_figures_together_write_the_bytes_of_each_alone(tmp_path, capsys):
    together = tmp_path / "together"
    assert run(*_MULTI, "--jobs", "1", "--outdir", str(together)) == 0
    for fig in _MULTI[2::2]:
        alone = tmp_path / fig
        assert run("figures", "--which", fig, "--jobs", "1", "--outdir", str(alone)) == 0
        for name in os.listdir(alone):
            assert (alone / name).read_bytes() == (together / name).read_bytes()
    assert len(os.listdir(together)) == 6
    capsys.readouterr()


def test_sweep_svg_output(tmp_path):
    out, svg = tmp_path / "s.csv", tmp_path / "s.svg"
    code = run("sweep", "--channel", "gad", "--p", "1.0", "--sweep", "eta",
               "--start", "0", "--stop", "1", "--step", "0.5",
               "--kind", "alpha", "--kind", "revH",
               "--out", str(out), "--svg", str(svg))
    assert code == 0
    text = svg.read_text()
    assert text.startswith("<svg ")
    assert "<polyline" in text
    assert "http" not in text.replace("http://www.w3.org/2000/svg", "")
    assert svg.stat().st_size < 200_000


def test_sweep_usage_and_io_errors(tmp_path, capsys):
    base = ("sweep", "--channel", "depolarizing", "--sweep", "p",
            "--kind", "alpha")
    assert run(*base, "--start", "0", "--stop", "1", "--step", "-0.1",
               "--out", str(tmp_path / "x.csv")) == 1
    assert run(*base, "--start", "1", "--stop", "0", "--step", "0.1",
               "--out", str(tmp_path / "x.csv")) == 1
    # a swept point outside the family's interval is a usage error
    assert run(*base, "--start", "1", "--stop", "2", "--step", "0.5",
               "--out", str(tmp_path / "x.csv")) == 1
    assert run(*base, "--start", "0", "--stop", "1", "--step", "0.5",
               "--out", str(tmp_path / "nodir" / "x.csv")) == 3
    for jobs in ("0", "-2"):
        assert run(*base, "--start", "0", "--stop", "1", "--step", "0.5",
                   "--jobs", jobs, "--out", str(tmp_path / "x.csv")) == 1
    assert not (tmp_path / "x.csv").exists()
    capsys.readouterr()


def test_sweep_range_must_be_finite(tmp_path, capsys):
    base = ("sweep", "--channel", "depolarizing", "--sweep", "p", "--kind", "alpha",
            "--out", str(tmp_path / "x.csv"))
    for start, stop, step in [("nan", "1", "0.5"), ("0", "inf", "0.5"), ("0", "1", "inf"),
                              ("-inf", "1", "0.5"), ("0", "1", "nan"),
                              ("-1e308", "1e308", "1e-300")]:
        # A bound that parses as a float but is not finite, or a range with
        # too many points to count, is a usage error, not a traceback.
        assert run(*base, f"--start={start}", f"--stop={stop}", f"--step={step}") == 1
    assert not (tmp_path / "x.csv").exists()
    capsys.readouterr()


def test_sweep_over_d_sweeps_integers(tmp_path, capsys):
    base = ("sweep", "--channel", "depolarizing", "--sweep", "d", "--p", "0.3",
            "--kind", "alpha", "--kind", "rev")
    out = tmp_path / "d.csv"
    assert run(*base, "--start", "2", "--stop", "3.5", "--step", "1", "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert header == ["d", "alpha", "alpha_status", "rev", "rev_status"]
    assert [r["d"] for r in rows] == ["2", "3"]
    for r in rows:
        assert abs(float(r["alpha"]) - 0.3) < 1e-6
        assert abs(float(r["rev"]) - 0.3) < 1e-6
    bad = tmp_path / "bad.csv"
    for start, step in (("2.5", "1"), ("2", "0.5")):
        assert run(*base, "--start", start, "--stop", "4", "--step", step,
                   "--out", str(bad)) == 1
    assert not bad.exists()
    capsys.readouterr()


def test_sweep_names_its_first_invalid_point(tmp_path, capsys):
    # 1.25 and 1.5 are out of range; the error names the first of them.
    code = run("sweep", "--channel", "gad", "--eta", "0.5", "--sweep", "p",
               "--start", "0.5", "--stop", "1.5", "--step", "0.25", "--kind", "alpha",
               "--jobs", "1", "--out", str(tmp_path / "x.csv"))
    assert code == 1
    assert capsys.readouterr().err == (
        "error: cannot build channel 'gad': p must lie in [0, 1], got 1.25\n"
    )
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("argv", [
    ("coeff", "--channel", "depolarizing", "--d", "9", "--p", "0.5", "--kind", "p1"),
    ("coeff", "--channel", "transpose_depolarizing", "--d", "9", "--q", "0.95", "--kind", "rev"),
    ("coeff", "--channel", "werner_holevo", "--d", "9", "--kind", "alpha"),
    ("sweep", "--channel", "depolarizing", "--p", "0.5", "--sweep", "d", "--start", "2",
     "--stop", "12", "--step", "1", "--kind", "alpha", "--jobs", "1"),
    ("sweep", "--channel", "werner_holevo", "--sweep", "d", "--start", "7",
     "--stop", "10", "--step", "1", "--kind", "alpha", "--jobs", "1"),
])
def test_choi_side_above_the_eigensolver_limit_is_a_usage_error(tmp_path, capsys, argv):
    # d = 9 gives a Choi matrix of side 81, above the eigensolver's 64: the
    # command stops before any solve, also when a sweep over d reaches 9.
    out = tmp_path / "x.csv"
    assert run(*argv, *(("--out", str(out)) if argv[0] == "sweep" else ())) == 1
    family = argv[2]
    assert capsys.readouterr().err == (
        f"error: cannot build channel {family!r}: eig_hermitian supports side <= 64, got 81\n"
    )
    assert not out.exists()


def test_sweep_over_d_is_one_chunk_of_one_stack_per_dimension(tmp_path, monkeypatch, capsys):
    chunks, builds = [], []
    chunk_cells, build = cli._chunk_cells, ch.depolarizing_stack
    monkeypatch.setattr(cli, "_chunk_cells", lambda tasks: chunks.append(tasks) or chunk_cells(tasks))
    monkeypatch.setattr(ch, "depolarizing_stack",
                        lambda *a, **c: builds.append(c) or build(*a, **c))
    out = tmp_path / "d.csv"
    assert run("sweep", "--channel", "depolarizing", "--sweep", "d", "--p", "0.3",
               "--start", "2", "--stop", "3", "--step", "1", "--kind", "alpha",
               "--kind", "revH", "--jobs", "1", "--out", str(out)) == 0
    assert [len(c) for c in chunks] == [2]
    assert builds == [{"p": [0.3], "d": [2]}, {"p": [0.3], "d": [3]}]
    _, rows = read_csv(out)
    for row, d in zip(rows, (2, 3), strict=True):
        chan = ch.depolarizing(0.3, d)
        assert row["alpha"] == cli._num(db.alpha(chan).value)
        assert row["revH"] == cli._num(db.reverse_alpha_hermitian(chan).value)


def test_figures_build_no_channel_objects(tmp_path, monkeypatch, capsys):
    # Every grid point is a slice of a Choi stack: fig2 and fig8 (152
    # points) construct no QuantumChannel.
    built = []
    init = ch.QuantumChannel.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ch.QuantumChannel, "__init__", counting)
    assert run("figures", "--which", "fig2", "--which", "fig8", "--jobs", "1",
               "--outdir", str(tmp_path)) == 0
    assert built == []
    ch.gad(0.3, 0.6)
    assert built == [1]


def test_figures_fig2(tmp_path, capsys):
    code = run("figures", "--which", "fig2", "--outdir", str(tmp_path))
    capsys.readouterr()
    assert code == 0
    header, rows = read_csv(tmp_path / "fig2.csv")
    assert header == ["p", "alpha", "alpha_status", "alphaT", "alphaT_status"]
    assert len(rows) == 101
    by_p = {r["p"]: r for r in rows}
    assert abs(float(by_p["1"]["alpha"]) - 1.0) < 1e-4
    assert abs(float(by_p["1"]["alphaT"]) - 1.0) < 1e-4
    assert abs(float(by_p["0.6"]["alpha"]) - 0.6) < 1e-4
    assert by_p["0.6"]["alphaT"] == "nan_not_ppt"
    last = rows[-1]
    assert abs(float(last["p"]) - 4.0 / 3.0) < 1e-8
    assert abs(float(last["alphaT"]) - 2.0 / 3.0) < 1e-4
    svg = (tmp_path / "fig2.svg").read_text()
    assert "<polyline" in svg
    assert (tmp_path / "fig2.svg").stat().st_size < 200_000


def test_figures_fig8(tmp_path, capsys):
    code = run("figures", "--which", "fig8", "--outdir", str(tmp_path))
    capsys.readouterr()
    assert code == 0
    header, rows = read_csv(tmp_path / "fig8.csv")
    assert header[:2] == ["eta", "one_minus_alpha"]
    assert len(rows) == 51
    by_eta = {r["eta"]: r for r in rows}
    assert abs(float(by_eta["0.5"]["one_minus_revH"]) - 0.5) < 1e-4
    assert abs(float(by_eta["1"]["one_minus_alpha"]) - 1.0) < 1e-4


def test_figures_failed_cells_exit_solver(tmp_path, capsys):
    # An unreachable tolerance leaves max_iter/numerical_failure cells; the
    # CSV is still written, and the exit code reports the failed solves.
    code = run("figures", "--which", "fig8", "--tol", "1e-16", "--jobs", "1",
               "--outdir", str(tmp_path))
    capsys.readouterr()
    assert code == cli.EXIT_SOLVER
    _, rows = read_csv(tmp_path / "fig8.csv")
    assert len(rows) == 51
    statuses = {v for r in rows for k, v in r.items() if k.endswith("_status")}
    assert statuses & {"max_iter", "numerical_failure"}


def test_dp_cells_carry_the_failed_solve_status():
    # Both range cells report a failed solve among the five behind them.
    cells = cli._kind_cells(ch.gad(0.5, 0.6), ["dp_lower", "dp_upper"], 1e-16)
    assert [status for _, status, _ in cells] == ["numerical_failure", "numerical_failure"]
    assert all(cli._cell_failed(cell) for cell in cells)
    cells = cli._kind_cells(ch.gad(0.5, 0.6), ["dp_lower", "dp_upper"],
                           sdpcore.DEFAULT_TOL)
    assert [status for _, status, _ in cells] == ["optimal", "optimal"]
    assert not any(cli._cell_failed(cell) for cell in cells)


_MULTI = ("figures", "--which", "fig2", "--which", "fig4", "--which", "fig8")


def test_figures_one_pool_matches_serial(tmp_path, capsys):
    # Chunks cut over all three figures give every point its serial cells,
    # and the pool is gone once main returns.
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    assert run(*_MULTI, "--jobs", "1", "--outdir", str(serial)) == 0
    assert run(*_MULTI, "--jobs", "2", "--outdir", str(pooled)) == 0
    assert multiprocessing.active_children() == []
    capsys.readouterr()
    names = sorted(os.listdir(serial))
    assert names == sorted(os.listdir(pooled))
    assert len(names) == 6
    for name in names:
        assert (serial / name).read_bytes() == (pooled / name).read_bytes()


@pytest.fixture
def fake_pool(monkeypatch):
    """Replace the process pool by an in-process one; the pools it made."""
    pools = []

    class FakePool:
        def __init__(self, max_workers):
            self.max_workers, self.chunks = max_workers, []
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            self.chunks = list(chunks)
            return map(fn, self.chunks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
    return pools


def _axis_cells(chunk):
    """A ``_chunk_cells`` stand-in: every cell holds its point's axis value."""
    return [[(p["eta"] if family == "gad" else p["p"], "optimal", False)] * len(kinds)
            for family, p, kinds, _ in chunk]


@pytest.mark.parametrize("jobs", [2, 8, 200])
def test_figures_share_one_pool(tmp_path, monkeypatch, capsys, fake_pool, jobs):
    monkeypatch.setattr(cli, "_chunk_cells", _axis_cells)
    assert run(*_MULTI, "--jobs", str(jobs), "--outdir", str(tmp_path)) == 0
    capsys.readouterr()
    [pool] = fake_pool
    chunks = pool.chunks
    assert pool.max_workers == min(jobs, len(chunks))
    # fig2 and fig4 share their 101 depolarizing points: one task each.
    for chunk in chunks:
        assert 1 <= len(chunk) <= cli.GRID_CHUNK
        assert len({(family, kinds, tol) for family, _, kinds, tol in chunk}) == 1
    tasks = [t for chunk in chunks for t in chunk]
    assert [(t[0], t[2]) for t in tasks] == (
        [("depolarizing", ("alpha", "alphaT", "rev", "revT"))] * 101
        + [("gad", ("alpha", "alphaH", "rev", "revH"))] * 51
    )
    # Cells come back in task order: each row holds its own axis value.
    for name, axis, col in (("fig2", "p", "alpha"), ("fig4", "p", "revT"),
                            ("fig8", "eta", "one_minus_rev")):
        _, rows = read_csv(tmp_path / f"{name}.csv")
        for r in rows:
            value = float(r[axis])
            assert abs(float(r[col]) - (1.0 - value if name == "fig8" else value)) < 1e-9


@pytest.mark.parametrize("jobs", [1, 3])
def test_figures_plan_each_point_once(tmp_path, monkeypatch, capsys, fake_pool, jobs):
    # fig3's points at p = k/25 and fig8's row lie on the fig1/fig5/fig6
    # surface: each distinct point is built and solved once, with the kinds
    # of every figure that asks for it, and each kind set is one contiguous
    # run, so a point that gains kinds does not split its neighbours' run.
    seen = []

    def recorded(chunk):
        seen.append(chunk)
        return _axis_cells(chunk)

    monkeypatch.setattr(cli, "_chunk_cells", recorded)
    argv = [a for fig in ("fig1", "fig3", "fig5", "fig6", "fig8") for a in ("--which", fig)]
    assert run("figures", *argv, "--jobs", str(jobs), "--outdir", str(tmp_path)) == 0
    capsys.readouterr()
    tasks = [t for chunk in seen for t in chunk]
    points = [cli._point_key(t) for t in tasks]
    assert len(points) == len(set(points)) == 51 * 51 + 4 * (76 - 26)
    for chunk in seen:
        assert len({frozenset(kinds) for _, _, kinds, _ in chunk}) == 1
    runs = [key for key, _ in itertools.groupby(tasks, key=lambda t: (t[0], t[2], t[3]))]
    assert len(runs) == len(set(runs))
    assert len({frozenset(kinds) for _, kinds, _ in runs}) == len(runs)
    # Every figure reads its own points' cells from the shared ones.
    for name, col in (("fig3_eta0.6", "one_minus_alpha"), ("fig5", "rev"),
                      ("fig8", "one_minus_rev")):
        _, rows = read_csv(tmp_path / f"{name}.csv")
        eta = [0.6] * len(rows) if name.startswith("fig3") else [float(r["eta"]) for r in rows]
        for r, value in zip(rows, eta):
            assert abs(float(r[col]) - (value if name == "fig5" else 1.0 - value)) < 1e-9


_SWEEP = ("sweep", "--channel", "depolarizing", "--sweep", "p", "--start", "0",
          "--kind", "alpha")


@pytest.mark.parametrize("argv, sizes", [
    # A run cut into whole batches would leave workers idle: the command
    # is cut into ceil(points / jobs)-point chunks instead.
    (_SWEEP + ("--stop", "1", "--step", "0.25", "--jobs", "2"), [3, 2]),
    (_SWEEP + ("--stop", "0.5", "--step", "0.25", "--jobs", "8"), [1, 1, 1]),
    (_SWEEP + ("--stop", "1", "--step", "0.25", "--jobs", "1"), [5]),
    (("figures", "--which", "fig2", "--jobs", "2"), [51, 50]),
    (("figures", "--which", "fig8", "--jobs", "40"), [2] * 25 + [1]),
    # fig3's four 76-point grids share family, kinds and tol: one run, in
    # whole batches since they are enough for both workers.
    (("figures", "--which", "fig3", "--jobs", "2"), [128, 128, 48]),
    # Two runs keep one whole batch each for up to two workers.
    (_MULTI + ("--jobs", "1"), [101, 51]),
    (_MULTI + ("--jobs", "2"), [101, 51]),
    (_MULTI + ("--jobs", "8"), [19] * 5 + [6] + [19, 19, 13]),
    (_MULTI + ("--jobs", "200"), [1] * 152),
], ids=["sweep", "sweep-few-points", "sweep-one-job", "fig2", "fig8-many-jobs", "fig3",
        "multi-1", "multi-2", "multi-8", "multi-200"])
def test_chunks_per_run(tmp_path, monkeypatch, capsys, fake_pool, argv, sizes):
    # A single chunk is solved in process, and a pool never has more
    # workers than chunks.
    seen = []
    monkeypatch.setattr(cli, "_chunk_cells", lambda chunk: seen.append(chunk) or _axis_cells(chunk))
    out = ("--out", str(tmp_path / "s.csv")) if argv[0] == "sweep" else (
        "--outdir", str(tmp_path))
    assert run(*argv, *out) == 0
    capsys.readouterr()
    assert [len(chunk) for chunk in seen] == sizes
    jobs = int(argv[argv.index("--jobs") + 1])
    if jobs == 1 or len(sizes) == 1:
        assert fake_pool == []
    else:
        [pool] = fake_pool
        assert pool.chunks == seen
        assert pool.max_workers == min(jobs, len(sizes))


def test_default_jobs_is_the_affinity_mask(monkeypatch):
    argv = ["figures", "--which", "fig2", "--outdir", "x"]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cli._build_parser().parse_args(argv).jobs == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._build_parser().parse_args(argv).jobs == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert cli._build_parser().parse_args(argv).jobs == 3


def test_figures_unknown_name(tmp_path, capsys):
    assert run("figures", "--which", "fig99", "--outdir", str(tmp_path)) == 1
    capsys.readouterr()


def test_check_fast_suites(capsys):
    for suite in ("linalg", "channel", "sdp", "doeblin", "classical"):
        code = run("check", "--suite", suite, "--seed", "7")
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "seed: 7"
        assert f"suite {suite}: " in out
        assert " 0 failed" in out


def test_check_deterministic(capsys):
    run("check", "--suite", "linalg", "--seed", "3")
    first = capsys.readouterr().out
    run("check", "--suite", "linalg", "--seed", "3")
    second = capsys.readouterr().out
    assert first == second


def test_check_failure_serializes_counterexample(monkeypatch, capsys):
    def broken(rng, tol, rec):
        rec("always_passes", True)
        rec("always_fails", False, value=float(rng.uniform()), label="boom")

    monkeypatch.setitem(properties.SUITES, "linalg", broken)
    code = run("check", "--suite", "linalg")
    out = capsys.readouterr().out
    assert code == 4
    assert "suite linalg: 1 passed, 1 failed" in out
    line = next(l for l in out.splitlines() if l.startswith("first counterexample:"))
    payload = json.loads(line.split(": ", 1)[1])
    assert payload["check"] == "always_fails"
    assert payload["label"] == "boom"


def test_check_bad_suite_name(capsys):
    assert run("check", "--suite", "nosuch") == 1
    capsys.readouterr()


def test_console_script_entry(capsys):
    # The console script of pyproject.toml is cli.main: its target runs in
    # process, and the installed executable runs too when it is on PATH.
    argv = ["coeff", "--channel", "depolarizing", "--p", "0.25", "--kind", "alpha"]

    def check(code, stdout):
        assert code == 0
        assert abs(float(stdout.splitlines()[1].split(",")[0]) - 0.25) < 1e-6

    target = "qdoeblin.cli:main"
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10 has no TOML reader.
        pass
    else:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
            assert tomllib.load(fh)["project"]["scripts"] == {"qdoeblin": target}
    module, name = target.split(":")
    check(getattr(importlib.import_module(module), name)(argv), capsys.readouterr().out)
    exe = shutil.which("qdoeblin")
    if exe is not None:
        proc = subprocess.run([exe, *argv], capture_output=True, text=True, timeout=300)
        check(proc.returncode, proc.stdout)


def test_module_entry_point():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(qdoeblin.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )

    def run_module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "qdoeblin.cli", *argv],
            capture_output=True, text=True, env=env, timeout=300,
        )

    proc = run_module("check", "--suite", "classical")
    assert proc.returncode == 0, proc.stderr
    assert "suite classical: " in proc.stdout
    assert " 0 failed" in proc.stdout
    proc = run_module("coeff", "--channel", "depolarizing", "--p", "0.5",
                      "--kind", "nosuch")
    assert proc.returncode == cli.EXIT_USAGE
    assert "unknown kind 'nosuch'" in proc.stderr


def test_help_exits_zero(capsys):
    assert run("--help") == 0
    capsys.readouterr()


# ------------------------------------------------------------ grid writer


def _stub_cells(cells):
    """A ``_run_tasks`` stand-in that answers every task with ``cells``."""
    return lambda tasks, jobs: [list(cells) for _ in tasks]


def test_figure_table(tmp_path, monkeypatch, capsys):
    assert cli.FIGURES == tuple(f"fig{i}" for i in range(1, 9))
    assert run("figures", "--which", "fig9", "--outdir", str(tmp_path)) == 1
    monkeypatch.setattr(cli, "_run_tasks",
                        _stub_cells([(0.25, "optimal", False)] * 2))
    assert run("figures", "--which", "fig3", "--outdir", str(tmp_path)) == 0
    stems = [f"fig3_eta{eta}" for eta in ("0.5", "0.6", "0.7", "0.8")]
    wrote = [line.split()[1] for line in capsys.readouterr().out.splitlines()]
    assert wrote == [str(tmp_path / f"{s}.{ext}")
                     for s in stems for ext in ("csv", "svg")]
    assert sorted(os.listdir(tmp_path)) == sorted(os.path.basename(w)
                                                  for w in wrote)
    header, rows = read_csv(tmp_path / "fig3_eta0.5.csv")
    assert header == ["p", "one_minus_alpha", "one_minus_alpha_status",
                      "one_minus_alphaH", "one_minus_alphaH_status"]
    assert len(rows) == 76
    assert rows[1]["one_minus_alpha"] == "0.75"


def test_surface_status_columns_report_failed_solves(tmp_path):
    csv_path, svg_path = tmp_path / "s.csv", tmp_path / "s.svg"
    svgs, failed = cli._grid(
        "gad", {}, (("p", [0.3, 0.7]), ("eta", [0.4, 0.8])),
        [("lower", "dp_lower", False), ("upper", "dp_upper", False)],
        1, 1e-16, "range", str(csv_path), str(svg_path),
    )
    assert failed
    assert svgs == [str(tmp_path / "s_lower.svg"), str(tmp_path / "s_upper.svg")]
    header, rows = read_csv(csv_path)
    assert header == ["p", "eta", "lower", "lower_status", "upper",
                      "upper_status"]
    assert [(r["p"], r["eta"]) for r in rows] == [
        ("0.3", "0.4"), ("0.3", "0.8"), ("0.7", "0.4"), ("0.7", "0.8")]
    for r in rows:
        for col in ("lower_status", "upper_status"):
            assert r[col] in ("max_iter", "numerical_failure")


def test_figures_fig7_status_columns(tmp_path, capsys):
    code = run("figures", "--which", "fig7", "--jobs", "1",
               "--outdir", str(tmp_path))
    capsys.readouterr()
    assert code == 0
    header, rows = read_csv(tmp_path / "fig7.csv")
    assert header == [
        "p", "one_minus_rev", "one_minus_rev_status",
        "abs_one_minus_two_p", "abs_one_minus_two_p_status",
        "eta_tr", "eta_tr_status",
    ]
    assert len(rows) == 51
    assert {r["one_minus_rev_status"] for r in rows} == {"optimal"}
    assert {r["abs_one_minus_two_p_status"] for r in rows} == {"exact"}
    assert {r["eta_tr_status"] for r in rows} == {"oracle"}


def test_not_ppt_literal_only_where_not_applicable(tmp_path, monkeypatch):
    assert cli._cell_text((np.nan, "numerical_failure", False)) == (
        "nan", "numerical_failure")
    assert cli._cell_text((np.inf, "max_iter", False)) == ("inf", "max_iter")
    assert cli._cell_text((np.inf, "max_iter", False), one_minus=True) == (
        "-inf", "max_iter")
    for one_minus in (False, True):
        assert cli._cell_text((0.3, "not_applicable", True), one_minus) == (
            cli.NAN_LITERAL, "not_applicable")
    cells = [(np.nan, "numerical_failure", False),
             (0.3, "not_applicable", True),
             (0.3, "not_applicable", True)]
    monkeypatch.setattr(cli, "_run_tasks", _stub_cells(cells))
    path = tmp_path / "g.csv"
    _, failed = cli._grid(
        "depolarizing", {}, (("p", [0.5]),),
        [("a", "alpha", False), ("b", "alphaT", False), ("c", "alphaT", True)],
        1, 1e-8, "t", str(path), None,
    )
    assert failed
    assert path.read_text().splitlines()[1] == (
        "0.5,nan,numerical_failure,nan_not_ppt,not_applicable,"
        "nan_not_ppt,not_applicable"
    )


def test_cli_import_pins_blas_threads():
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in names}
    src = os.path.dirname(os.path.dirname(os.path.abspath(qdoeblin.__file__)))
    env["PYTHONPATH"] = src
    code = ("import os, qdoeblin.cli; print(' '.join(os.environ[n] for n in"
            f" {names!r}))")

    def pinned(extra):
        proc = subprocess.run([sys.executable, "-c", code], env={**env, **extra},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    assert pinned({}) == ["1", "1", "1"]
    assert pinned({"OPENBLAS_NUM_THREADS": "3"}) == ["3", "1", "1"]


def test_library_and_a_coeff_run_import_no_scipy():
    # numpy is the library's only dependency: importing every module and
    # answering a coefficient from the CLI loads no scipy.
    src = os.path.dirname(os.path.dirname(os.path.abspath(qdoeblin.__file__)))
    modules = ("channel", "cli", "doeblin", "hermlin", "oracles", "properties", "sdpcore")
    code = (
        "import sys, qdoeblin\n"
        f"from qdoeblin import {', '.join(modules)}\n"
        "code = cli.main(['coeff', '--channel', 'gad', '--p', '0.3', '--eta', '0.6',"
        " '--kind', 'alpha'])\n"
        "assert code == 0, code\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("alpha,alpha_status\n")
