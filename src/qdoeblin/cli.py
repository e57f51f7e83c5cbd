"""Command-line front end.

Four commands: ``coeff`` prints one coefficient row for a single channel,
``sweep`` scans a family parameter and writes CSV (plus an optional SVG line
plot), ``figures`` regenerates the canned figure grids, and ``check`` runs
the seeded property suites of :mod:`qdoeblin.properties`.  Exit codes: 0 ok,
1 usage, 2 solver failure, 3 I/O, 4 check failure.

``sweep`` and every figure (the entries of :data:`FIGURE_SPECS`) go
through one grid writer, :func:`_grid`, which solves each column of up to
``GRID_CHUNK`` points as one lockstep batch (``db.solve_grid``); ``--jobs``
spreads the chunks over a process pool.  Every CSV value column has a
``<column>_status`` column.  Importing this module pins BLAS to one thread
unless the environment sets it, so ``--jobs`` workers do not oversubscribe.
"""

from __future__ import annotations

import argparse
import inspect
import itertools
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

# Before numpy loads: the matrices are small, so extra BLAS threads cost
# time.  Forked pool workers inherit this; a value already set wins.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402

from . import channel as ch  # noqa: E402
from . import doeblin as db  # noqa: E402
from . import oracles, properties, sdpcore  # noqa: E402

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2
EXIT_IO = 3
EXIT_CHECK = 4

NAN_LITERAL = "nan_not_ppt"

# The single-channel function of each kind name.
KIND_FUNCS = {
    "alpha": db.alpha,
    "alphaT": db.alpha_transpose,
    "alphaH": db.alpha_hermitian,
    "alphaTH": db.alpha_transpose_hermitian,
    "p1": db.p1_eb_ppt,
    "rev": db.reverse_alpha,
    "revT": db.reverse_alpha_transpose,
    "revH": db.reverse_alpha_hermitian,
}
# The doeblin kind of each name, for grids solved through ``db.solve_grid``.
GRID_KINDS = {
    "alpha": db.KIND_ALPHA,
    "alphaT": db.KIND_ALPHA_T,
    "alphaH": db.KIND_ALPHA_H,
    "alphaTH": db.KIND_ALPHA_TH,
    "p1": db.KIND_P1,
    "rev": db.KIND_REV,
    "revT": db.KIND_REV_T,
    "revH": db.KIND_REV_H,
}
# alphaTH stays behind --combine-th; the default surface omits it.
BASE_KINDS = ("alpha", "alphaT", "alphaH", "p1", "rev", "revT", "revH")

# Most grid points one lockstep batch holds, which bounds its memory.
GRID_CHUNK = 128

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)


class UsageError(Exception):
    pass


# --------------------------------------------------------------- channels


_PARAM_FLAGS = ("d", "p", "q", "eta", "eps", "b")


def _build_channel(name: str, params: dict) -> ch.QuantumChannel:
    if name not in ch.FAMILIES:
        raise UsageError(
            f"unknown channel {name!r}; admissible: {', '.join(sorted(ch.FAMILIES))}"
        )
    ctor = ch.FAMILIES[name]
    accepted = set(inspect.signature(ctor).parameters)
    extra = sorted(set(params) - accepted)
    if extra:
        raise UsageError(
            f"channel {name!r} does not take {extra}; its parameters are"
            f" {sorted(accepted)} (use --file for matrix-valued families)"
        )
    try:
        return ctor(**params)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"cannot build channel {name!r}: {exc}") from exc


def _flag_params(args, skip: str | None = None) -> dict:
    """The family parameters given as flags, except the one named ``skip``."""
    params = {
        flag: getattr(args, flag)
        for flag in _PARAM_FLAGS
        if getattr(args, flag, None) is not None and flag != skip
    }
    if "d" in params:
        params["d"] = int(params["d"])
    return params


def _channel_from_args(args) -> ch.QuantumChannel:
    if getattr(args, "file", None):
        try:
            return ch.channel_from_file(args.file)
        except (ValueError, KeyError, TypeError) as exc:
            raise UsageError(f"bad channel file {args.file!r}: {exc}") from exc
    if not args.channel:
        raise UsageError("need --channel NAME or --file PATH")
    return _build_channel(args.channel, _flag_params(args))


def _check_kinds(kinds: list[str], combine_th: bool) -> list[str]:
    admissible = BASE_KINDS + (("alphaTH",) if combine_th else ())
    for kind in kinds:
        if kind not in admissible:
            hint = " (enable with --combine-th)" if kind == "alphaTH" else ""
            raise UsageError(
                f"unknown kind {kind!r}{hint}; admissible: {', '.join(admissible)}"
            )
    return kinds


# -------------------------------------------------------------- computing


def _grid_cells(channels, kinds, tol: float, params) -> list[list[tuple]]:
    """(value, status, not_applicable) per point and requested column.

    Each SDP column is one ``db.solve_grid`` call over all the channels.
    Besides the SDP kinds this understands the oracle column ``eta_tr``, the
    closed form ``abs12p`` = |1-2p|, and the paired ``dp_lower``/``dp_upper``
    columns which share one solve.
    """
    columns = []
    dp = None
    for kind in kinds:
        if kind == "eta_tr":
            col = [(oracles.eta_tr_qubit(c), "oracle", False) for c in channels]
        elif kind == "abs12p":
            col = [(abs(1.0 - 2.0 * p["p"]), "exact", False) for p in params]
        elif kind in ("dp_lower", "dp_upper"):
            if dp is None:
                dp = db.solve_grid(db.KIND_DP, channels, tol)
            col = [(r.lower if kind == "dp_lower" else r.upper, r.status, False) for r in dp]
        else:
            col = [
                (float(r.value), r.status, r.not_applicable)
                for r in db.solve_grid(GRID_KINDS[kind], channels, tol)
            ]
        columns.append(col)
    return [list(cells) for cells in zip(*columns)]


def _kind_cells(channel, kinds, tol: float, params=None) -> list[tuple]:
    """The cells of one channel: a grid of one point."""
    return _grid_cells([channel], kinds, tol, [params])[0]


def _chunk_cells(tasks) -> list[list[tuple]]:
    """Cells of a run of point tasks that share family, kinds and tol.

    Every channel is built before anything is solved, so a bad point is a
    usage error; then each column is solved as one batch.
    """
    family, _, kinds, tol = tasks[0]
    params = [p for _, p, _, _ in tasks]
    channels = [_build_channel(family, p) for p in params]
    return _grid_cells(channels, kinds, tol, params)


def _run_tasks(tasks, jobs: int):
    """Cells per ``(family, params, kinds, tol)`` point task, in task order.

    The tasks of one call share family, kinds and tol.  They are cut into
    at most ``jobs`` contiguous chunks of at most ``GRID_CHUNK`` points;
    each chunk is solved as one batch per column, in a pool of ``jobs``
    processes when there are several chunks.
    """
    size = max(1, min(GRID_CHUNK, math.ceil(len(tasks) / max(jobs, 1))))
    chunks = [tasks[i : i + size] for i in range(0, len(tasks), size)]
    if jobs <= 1 or len(chunks) <= 1:
        results = [_chunk_cells(c) for c in chunks]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_chunk_cells, chunks))
    return [cells for chunk in results for cells in chunk]


def _cell_failed(cell) -> bool:
    _, status, not_applicable = cell
    return not not_applicable and status not in (
        sdpcore.STATUS_OPTIMAL,
        "oracle",
        "exact",
    )


# ------------------------------------------------------------- CSV output


def _num(x: float) -> str:
    return "%.9g" % x


def _plot_value(cell, one_minus: bool = False) -> float:
    """The value drawn for a cell: nan where the kind does not apply."""
    value, _, not_applicable = cell
    if not_applicable:
        return math.nan
    return 1.0 - value if one_minus else value


def _cell_text(cell, one_minus: bool = False) -> tuple[str, str]:
    """(value, status) as written to CSV: ``nan_not_ppt`` only where the
    kind does not apply; other non-finite values read nan, inf or -inf."""
    _, status, not_applicable = cell
    text = NAN_LITERAL if not_applicable else _num(_plot_value(cell, one_minus))
    return text, status


def _plain(*kinds: str) -> list[tuple]:
    return [(kind, kind, False) for kind in kinds]


def _one_minus(*kinds: str) -> list[tuple]:
    return [(f"one_minus_{kind}", kind, True) for kind in kinds]


def _csv_lines(names, points, cols, results) -> list[str]:
    """Header and rows: axis values, then value and status per column."""
    header = list(names)
    for col, _, _ in cols:
        header += [col, f"{col}_status"]
    lines = [",".join(header)]
    for point, cells in zip(points, results):
        row = [_num(v) for v in point]
        for (_, _, one_minus), cell in zip(cols, cells):
            row.extend(_cell_text(cell, one_minus))
        lines.append(",".join(row))
    return lines


def _write_lines(path: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# ------------------------------------------------------------- SVG output


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    step = mag
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if span / step <= target:
            break
    ticks = []
    t = math.ceil(lo / step - 1e-9) * step
    while t <= hi + 1e-9 * span:
        ticks.append(round(t, 10))
        t += step
    return ticks


def _finite_range(values) -> tuple[float, float]:
    """(min, max) of the finite entries, or (0, 1) if there are none."""
    values = np.asarray(values, dtype=float)
    finite = values[np.isfinite(values)]
    return (float(finite.min()), float(finite.max())) if finite.size else (0.0, 1.0)


def _svg_open(width: int, height: int, title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}"'
        f' height="{height}" viewBox="0 0 {width} {height}"'
        ' font-family="sans-serif">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="20" text-anchor="middle"'
        f' font-size="14">{title}</text>',
    ]


def _svg_axes(parts, box, x_lo, x_hi, y_lo, y_hi, x_label, y_label):
    x0, y0, x1, y1 = box

    def px(v):
        return x0 + (v - x_lo) / (x_hi - x_lo) * (x1 - x0)

    def py(v):
        return y1 - (v - y_lo) / (y_hi - y_lo) * (y1 - y0)

    for t in _nice_ticks(x_lo, x_hi):
        x = px(t)
        parts.append(
            f'<line x1="{x:.1f}" y1="{y0}" x2="{x:.1f}" y2="{y1}"'
            ' stroke="#dddddd" stroke-width="0.6"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{y1 + 16}" text-anchor="middle"'
            f' font-size="11">{t:g}</text>'
        )
    for t in _nice_ticks(y_lo, y_hi):
        y = py(t)
        parts.append(
            f'<line x1="{x0}" y1="{y:.1f}" x2="{x1}" y2="{y:.1f}"'
            ' stroke="#dddddd" stroke-width="0.6"/>'
        )
        parts.append(
            f'<text x="{x0 - 6}" y="{y + 4:.1f}" text-anchor="end"'
            f' font-size="11">{t:g}</text>'
        )
    parts.append(
        f'<rect x="{x0}" y="{y0}" width="{x1 - x0}" height="{y1 - y0}"'
        ' fill="none" stroke="#333333"/>'
    )
    parts.append(
        f'<text x="{(x0 + x1) / 2:.0f}" y="{y1 + 34}" text-anchor="middle"'
        f' font-size="12">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{(y0 + y1) / 2:.0f}" text-anchor="middle"'
        f' font-size="12" transform="rotate(-90 16 {(y0 + y1) / 2:.0f})">'
        f"{y_label}</text>"
    )
    return px, py


def _svg_line_plot(path, x, series, x_label, y_label, title):
    """Polyline plot; ``series`` is a list of (label, y-array) pairs."""
    width, height = 640, 440
    box = (64, 36, 616, 392)
    y_lo, y_hi = _finite_range([y for _, y in series])
    pad = 0.05 * (y_hi - y_lo) or 0.05
    y_lo, y_hi = y_lo - pad, y_hi + pad
    x_lo, x_hi = float(min(x)), float(max(x))
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5

    parts = _svg_open(width, height, title)
    px, py = _svg_axes(parts, box, x_lo, x_hi, y_lo, y_hi, x_label, y_label)
    for i, (label, y) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        run = []
        # A trailing nan flushes the last finite run.
        for xi, yi in itertools.chain(zip(x, y), [(0.0, math.nan)]):
            if math.isfinite(yi):
                run.append(f"{px(xi):.2f},{py(yi):.2f}")
            elif run:
                parts.append(
                    f'<polyline points="{" ".join(run)}" fill="none"'
                    f' stroke="{color}" stroke-width="1.6"/>'
                )
                run = []
        ly = box[1] + 16 + 15 * i
        lx = box[2] - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}"'
            f' stroke="{color}" stroke-width="1.6"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-size="11">{label}</text>'
        )
    parts.append("</svg>")
    _write_lines(path, parts)


_CMAP_STOPS = (
    (0.267, 0.005, 0.329),
    (0.128, 0.567, 0.551),
    (0.993, 0.906, 0.144),
)


def _cmap(t: float) -> str:
    t = min(1.0, max(0.0, t))
    if t < 0.5:
        a, b, u = _CMAP_STOPS[0], _CMAP_STOPS[1], 2.0 * t
    else:
        a, b, u = _CMAP_STOPS[1], _CMAP_STOPS[2], 2.0 * t - 1.0
    return "#%02x%02x%02x" % tuple(
        int(round(255.0 * ((1.0 - u) * ai + u * bi))) for ai, bi in zip(a, b)
    )


def _svg_heatmap(path, xs, ys, grid, x_label, y_label, title):
    """Cell heatmap; ``grid[i, j]`` is the value at (xs[i], ys[j])."""
    width, height = 700, 470
    box = (64, 36, 560, 412)
    x0, y0, x1, y1 = box
    v_lo, v_hi = _finite_range(grid)
    span = (v_hi - v_lo) or 1.0
    nx, ny = len(xs), len(ys)
    cw = (x1 - x0) / nx
    chh = (y1 - y0) / ny

    parts = _svg_open(width, height, title)
    for i in range(nx):
        rx = x0 + i * cw
        for j in range(ny):
            v = grid[i, j]
            if not math.isfinite(v):
                continue
            ry = y1 - (j + 1) * chh
            parts.append(
                f'<rect x="{rx:.1f}" y="{ry:.1f}" width="{cw + 0.1:.1f}"'
                f' height="{chh + 0.1:.1f}" fill="{_cmap((v - v_lo) / span)}"/>'
            )
    px, py = _svg_axes(
        parts, box, float(xs[0]), float(xs[-1]), float(ys[0]), float(ys[-1]),
        x_label, y_label,
    )
    bar_x, bar_w, steps = 596, 18, 32
    for k in range(steps):
        by = y1 - (y1 - y0) * (k + 1) / steps
        parts.append(
            f'<rect x="{bar_x}" y="{by:.1f}" width="{bar_w}"'
            f' height="{(y1 - y0) / steps + 0.1:.1f}" fill="{_cmap(k / steps)}"/>'
        )
    parts.append(
        f'<rect x="{bar_x}" y="{y0}" width="{bar_w}" height="{y1 - y0}"'
        ' fill="none" stroke="#333333"/>'
    )
    parts.append(
        f'<text x="{bar_x + bar_w + 6}" y="{y1 + 4}" font-size="11">{v_lo:.3g}</text>'
    )
    parts.append(
        f'<text x="{bar_x + bar_w + 6}" y="{y0 + 10}" font-size="11">{v_hi:.3g}</text>'
    )
    parts.append("</svg>")
    _write_lines(path, parts)


# -------------------------------------------------------------------- grid


def _grid(family, fixed, axes, cols, jobs, tol, title, csv_path, svg_path):
    """Solve ``cols`` on every point of the product of ``axes``; write it.

    ``axes`` holds one or two ``(name, values)`` pairs and ``cols`` holds
    ``(column, kind, one_minus)`` triples.  One axis draws a line plot at
    ``svg_path``; two draw one heatmap per column, at ``<stem>_<column>.svg``
    when there are several.  Returns the SVG paths and whether a cell failed.
    """
    names = [name for name, _ in axes]
    points = list(itertools.product(*(values for _, values in axes)))
    kinds = tuple(kind for _, kind, _ in cols)
    tasks = [
        (family, {**fixed, **dict(zip(names, point))}, kinds, tol)
        for point in points
    ]
    results = _run_tasks(tasks, jobs)
    _write_lines(csv_path, _csv_lines(names, points, cols, results))
    failed = any(_cell_failed(cell) for cells in results for cell in cells)
    if svg_path is None:
        return [], failed

    series = [
        (col, np.array([_plot_value(cells[k], one_minus) for cells in results]))
        for k, (col, _, one_minus) in enumerate(cols)
    ]
    if len(axes) == 1:
        _svg_line_plot(svg_path, axes[0][1], series, names[0], "value", title)
        return [svg_path], failed
    stem, ext = os.path.splitext(svg_path)
    many = len(cols) > 1
    paths = [f"{stem}_{col}{ext}" if many else svg_path for col, _, _ in cols]
    for path, (col, ys) in zip(paths, series):
        _svg_heatmap(
            path, axes[0][1], axes[1][1], ys.reshape(len(axes[0][1]), -1),
            *names, f"{title}: {col}" if many else title,
        )
    return paths, failed


# ----------------------------------------------------------- coeff, sweep


def _cmd_coeff(args) -> int:
    kinds = _check_kinds(args.kind, args.combine_th)
    channel = _channel_from_args(args)
    cells = _kind_cells(channel, kinds, args.tol)
    _write_lines(None, _csv_lines([], [()], _plain(*kinds), [cells]))
    return EXIT_SOLVER if any(map(_cell_failed, cells)) else EXIT_OK


def _cmd_sweep(args) -> int:
    kinds = _check_kinds(args.kind, args.combine_th)
    if args.step <= 0:
        raise UsageError("--step must be positive")
    if args.start > args.stop:
        raise UsageError("--start must not exceed --stop")
    if not args.channel:
        raise UsageError("sweep needs --channel (file channels have no knob)")
    fixed = _flag_params(args, skip=args.sweep)
    count = int(math.floor((args.stop - args.start) / args.step + 1e-9))
    values = [args.start + i * args.step for i in range(count + 1)]
    _, failed = _grid(
        args.channel, fixed, [(args.sweep, values)],
        _plain(*kinds), args.jobs, args.tol,
        f"{args.channel}: {', '.join(kinds)}", args.out, args.svg,
    )
    return EXIT_SOLVER if failed else EXIT_OK


# ----------------------------------------------------------------- figures


def _affine_grid(start: float, stop: float, n: int) -> list[float]:
    return [start + (stop - start) * i / (n - 1) for i in range(n)]


_UNIT = _affine_grid(0.0, 1.0, 51)
_GAD_SURFACE = (("p", _UNIT), ("eta", _UNIT))
_DEP_LINE = (("p", _affine_grid(0.0, 4.0 / 3.0, 101)),)


# Each figure is a list of (stem, family, fixed, axes, columns, title)
# entries; every entry writes <stem>.csv and its plots.
FIGURE_SPECS = {
    "fig1": [("fig1", "gad", {}, _GAD_SURFACE, _plain("alpha"),
              "alpha of generalized amplitude damping")],
    "fig2": [("fig2", "depolarizing", {}, _DEP_LINE, _plain("alpha", "alphaT"),
              "depolarizing: alpha and alphaT")],
    "fig3": [
        (f"fig3_eta{eta:g}", "gad", {"eta": eta},
         (("p", _affine_grid(0.0, 1.0, 76)),), _one_minus("alpha", "alphaH"),
         f"amplitude damping eta={eta:g}: contraction bounds")
        for eta in (0.5, 0.6, 0.7, 0.8)
    ],
    "fig4": [("fig4", "depolarizing", {}, _DEP_LINE, _plain("rev", "revT"),
              "depolarizing: reverse coefficients")],
    "fig5": [("fig5", "gad", {}, _GAD_SURFACE, _plain("rev"),
              "reverse alpha of generalized amplitude damping")],
    "fig6": [("fig6", "gad", {}, _GAD_SURFACE,
              [("lower", "dp_lower", False), ("upper", "dp_upper", False)],
              "data-processing range")],
    "fig7": [("fig7", "bitflip", {}, (("p", _UNIT),),
              _one_minus("rev") + [("abs_one_minus_two_p", "abs12p", False)]
              + _plain("eta_tr"),
              "bit flip: expansion bounds")],
    "fig8": [("fig8", "gad", {"p": 1.0}, (("eta", _UNIT),),
              _one_minus("alpha", "alphaH", "revH", "rev"),
              "amplitude damping p=1: range bounds")],
}
FIGURES = tuple(FIGURE_SPECS)


def _cmd_figures(args) -> int:
    which = list(args.which)
    if "all" in which:
        which = list(FIGURES)
    for name in which:
        if name not in FIGURES:
            raise UsageError(
                f"unknown figure {name!r}; admissible: {', '.join(FIGURES)}, all"
            )
    os.makedirs(args.outdir, exist_ok=True)
    failed = False
    for name in which:
        for stem, family, fixed, axes, cols, title in FIGURE_SPECS[name]:
            out = os.path.join(args.outdir, stem)
            svgs, fig_failed = _grid(
                family, fixed, axes, cols, args.jobs, args.tol, title,
                f"{out}.csv", f"{out}.svg",
            )
            for path in [f"{out}.csv"] + svgs:
                print(f"wrote {path}")
            failed = failed or fig_failed
    return EXIT_SOLVER if failed else EXIT_OK


# ------------------------------------------------------------------ check


def _cmd_check(args) -> int:
    names = list(properties.SUITES) if args.suite == "all" else [args.suite]
    print(f"seed: {args.seed}")
    first = None
    for name in names:
        rng = np.random.default_rng(args.seed)
        rec = properties.Recorder(name)
        properties.SUITES[name](rng, args.tol, rec)
        print(f"suite {name}: {rec.passed} passed, {rec.failed} failed")
        if first is None and rec.first is not None:
            first = rec.first
    if first is not None:
        print(f"first counterexample: {json.dumps(first)}")
        return EXIT_CHECK
    return EXIT_OK


# ------------------------------------------------------------------- main


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--tol", type=float, default=sdpcore.DEFAULT_TOL)

    chan = argparse.ArgumentParser(add_help=False)
    chan.add_argument("--channel")
    chan.add_argument("--file")
    chan.add_argument("--combine-th", action="store_true", dest="combine_th")
    chan.add_argument("--kind", action="append", required=True)
    for flag in _PARAM_FLAGS:
        chan.add_argument(f"--{flag}", type=float)

    parser = argparse.ArgumentParser(prog="qdoeblin")
    sub = parser.add_subparsers(dest="command", required=True)

    p_coeff = sub.add_parser("coeff", parents=[common, chan])
    p_coeff.set_defaults(func=_cmd_coeff)

    p_sweep = sub.add_parser("sweep", parents=[common, chan])
    p_sweep.add_argument("--sweep", required=True)
    p_sweep.add_argument("--start", type=float, required=True)
    p_sweep.add_argument("--stop", type=float, required=True)
    p_sweep.add_argument("--step", type=float, required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--svg")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_fig = sub.add_parser("figures", parents=[common])
    p_fig.add_argument("--which", action="append", required=True)
    p_fig.add_argument("--outdir", required=True)
    p_fig.set_defaults(func=_cmd_figures)

    p_check = sub.add_parser("check", parents=[common])
    p_check.add_argument(
        "--suite", default="all", choices=list(properties.SUITES) + ["all"]
    )
    p_check.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
