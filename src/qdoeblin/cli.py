"""Command-line front end.

Four commands: ``coeff`` prints one coefficient row for a single channel,
``sweep`` scans a family parameter and writes CSV (plus an optional SVG line
plot), ``figures`` regenerates the canned figure grids, and ``check`` runs
the seeded property suites of :mod:`qdoeblin.properties`.  Exit codes: 0 ok,
1 usage, 2 solver failure, 3 I/O, 4 check failure.

``sweep`` and every figure (the entries of :data:`FIGURE_SPECS`) go
through one grid planner, :func:`_grid_tasks` and :func:`_plan`, and one
grid writer, :func:`_write_grid`.  Each command plans all of its grids
before it solves: one task per distinct ``(family, params, tol)`` point,
carrying every kind any grid asks of it, so a point shared by several
figures is built and solved once.  A chunk's points are built as Choi
stacks (``ch.{family}_stack``), one per dimension, with no channel object
per point.  The tasks are solved in one call of
:func:`_run_tasks`: each run of equal ``(family, kinds, tol)`` is cut into
chunks of at most :data:`GRID_CHUNK` points, cut finer only when that
would leave ``--jobs`` workers idle, and every kind of a chunk is solved
in one multi-kind call (``db.solve_grids``), one lockstep batch per
program.  The chunks share one process pool per command, of at most
``--jobs`` workers and none for a single chunk.  Every CSV value column has a ``<column>_status`` column.
Importing this module pins BLAS to one thread unless the environment sets
it, so ``--jobs`` workers do not oversubscribe.
"""

from __future__ import annotations

import argparse
import functools
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

# The single-channel function of each kind.  No library code calls these;
# the benchmark does (bench/workloads.py), and bench/tracing.py patches
# this registry to trace them.
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
# alphaTH stays behind --combine-th; the default surface omits it.
BASE_KINDS = tuple(kind for kind in KIND_FUNCS if kind != "alphaTH")

# Most points of one chunk, which is solved as one lockstep batch; this
# bounds a batch's memory.  Runs are cut at this size unless that leaves
# fewer chunks than --jobs.
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


@functools.cache
def _parameters(ctor) -> tuple[frozenset[str], frozenset[str]]:
    """The parameter names of a family constructor and the required ones,
    read once per callable, so a family entry replaced at run time gets its
    own."""
    params = inspect.signature(ctor).parameters
    required = (name for name, p in params.items() if p.default is inspect.Parameter.empty)
    return frozenset(params), frozenset(required)


def _family(name: str, params: dict):
    """The constructor of family ``name``, which must take ``params``."""
    if name not in ch.FAMILIES:
        raise UsageError(
            f"unknown channel {name!r}; admissible: {', '.join(sorted(ch.FAMILIES))}"
        )
    ctor = ch.FAMILIES[name]
    accepted, _ = _parameters(ctor)
    extra = sorted(set(params) - accepted)
    if extra:
        raise UsageError(
            f"channel {name!r} does not take {extra}; its parameters are"
            f" {sorted(accepted)} (use --file for matrix-valued families)"
        )
    return ctor


def _build_channel(name: str, params: dict) -> ch.QuantumChannel:
    ctor = _family(name, params)
    try:
        return ctor(**params)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"cannot build channel {name!r}: {exc}") from exc


def _build_stack(name: str, points: list[dict]) -> ch.ChoiStack:
    """The Choi stack of points of family ``name`` that share their
    parameter names and dimension.

    A family with a stacked constructor ``ch.{name}_stack`` builds it in
    one call, which raises the error of the first invalid point as its own
    call would.  Points of any other family, or that lack a parameter, are
    built as channels one by one, so the family's own call raises.
    """
    ctor = _family(name, points[0])
    build = getattr(ch, f"{name}_stack", None)
    if build is None or _parameters(ctor)[1] - points[0].keys():
        return ch.choi_stack([_build_channel(name, p) for p in points])
    try:
        return build(**{key: [p[key] for p in points] for key in points[0]})
    except (ValueError, TypeError) as exc:
        raise UsageError(f"cannot build channel {name!r}: {exc}") from exc


def _flag_params(args, skip: str | None = None) -> dict:
    """The family parameters given as flags, except the one named ``skip``."""
    params = {
        flag: getattr(args, flag)
        for flag in _PARAM_FLAGS
        if getattr(args, flag, None) is not None and flag != skip
    }
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


def _grid_cells(stacks, kinds, tol: float, params) -> list[list[tuple]]:
    """(value, status, not_applicable) per point and requested column.

    ``stacks`` holds the Choi stacks of the points, in point order.  Every
    SDP column is solved by one ``db.solve_grids`` call over all of them,
    so each kind is solved once however many columns ask for it and kinds
    that share a lowering run as one batch; an SDP kind is passed on by its
    name, which is its ``db.KIND_*`` name.  Besides the SDP kinds this
    understands the oracle column ``eta_tr``, read off the stacks, the
    closed form ``abs12p`` = |1-2p|, and the paired
    ``dp_lower``/``dp_upper`` columns, which read one data-processing
    range.
    """
    solved = db.solve_grids(
        [db.KIND_DP if kind in ("dp_lower", "dp_upper") else kind
         for kind in kinds if kind not in ("eta_tr", "abs12p")],
        stacks, tol,
    )
    columns = []
    for kind in kinds:
        if kind == "eta_tr":
            col = [(float(v), "oracle", False) for s in stacks for v in oracles.eta_tr_qubits(s)]
        elif kind == "abs12p":
            col = [(abs(1.0 - 2.0 * p["p"]), "exact", False) for p in params]
        elif kind in ("dp_lower", "dp_upper"):
            col = [
                (r.lower if kind == "dp_lower" else r.upper, r.status, False)
                for r in solved[db.KIND_DP]
            ]
        else:
            col = [(float(r.value), r.status, r.not_applicable) for r in solved[kind]]
        columns.append(col)
    return [list(cells) for cells in zip(*columns)]


def _kind_cells(channel, kinds, tol: float, params=None) -> list[tuple]:
    """The cells of one channel: a grid of one point."""
    return _grid_cells([ch.choi_stack([channel])], kinds, tol, [params])[0]


def _chunk_cells(tasks) -> list[list[tuple]]:
    """Cells of a run of point tasks that share family, kinds and tol.

    The points are built before anything is solved, so a bad point is a
    usage error: one Choi stack per run of points with the same parameter
    names and dimension, so one stack unless a chunk sweeps ``d``.  Then
    every column is solved in one multi-kind call.
    """
    family, _, kinds, tol = tasks[0]
    params = [p for _, p, _, _ in tasks]
    stacks = [
        _build_stack(family, list(run))
        for _, run in itertools.groupby(params, key=lambda p: (sorted(p), p.get("d")))
    ]
    return _grid_cells(stacks, kinds, tol, params)


def _run_tasks(tasks, jobs: int):
    """Cells per ``(family, params, kinds, tol)`` point task, in task order.

    Each run of consecutive tasks with equal ``(family, kinds, tol)`` is cut
    into contiguous chunks of ``GRID_CHUNK`` points (the last one shorter),
    so one chunk never mixes programs: a lockstep batch pays its
    per-iteration overhead once whatever its size.  Only when that leaves
    fewer chunks than ``jobs`` are the runs cut into chunks of ``ceil(
    len(tasks) / jobs)`` points instead, so no worker idles.  Each chunk is
    solved in one multi-kind call (see :func:`_grid_cells`).  With several
    chunks and ``jobs > 1`` they share one pool of ``min(jobs, chunks)``
    processes, shut down before this returns.
    """
    runs = [
        list(run) for _, run in itertools.groupby(tasks, key=lambda t: (t[0], t[2], t[3]))
    ]
    size = GRID_CHUNK
    if sum(math.ceil(len(run) / size) for run in runs) < jobs:
        size = math.ceil(len(tasks) / jobs)
    chunks = [run[i : i + size] for run in runs for i in range(0, len(run), size)]
    if jobs == 1 or len(chunks) <= 1:
        results = [_chunk_cells(c) for c in chunks]
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(chunks))) as pool:
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


def _grid_tasks(family, fixed, axes, cols, tol) -> list[tuple]:
    """One ``(family, params, kinds, tol)`` task per point of the product of
    ``axes``, in row order; ``axes`` and ``cols`` are as in :func:`_grid`."""
    names = [name for name, _ in axes]
    kinds = tuple(kind for _, kind, _ in cols)
    return [
        (family, {**fixed, **dict(zip(names, point))}, kinds, tol)
        for point in itertools.product(*(values for _, values in axes))
    ]


def _point_key(task) -> tuple:
    """What makes two point tasks the same point: family, params and tol."""
    family, params, _, tol = task
    return family, tuple(sorted(params.items())), tol


def _plan(grids) -> list[tuple]:
    """One task per distinct point of the task lists ``grids``.

    A point asked for by several grids carries the union of their kinds,
    sorted, so points with one kind set share one kind tuple.  Tasks come
    in runs of equal ``(family, kinds, tol)``, in order of first
    appearance, so a point that gains kinds from another grid does not
    split the run of its neighbours into many chunks.
    """
    merged: dict[tuple, tuple] = {}
    for tasks in grids:
        for task in tasks:
            key = _point_key(task)
            family, params, kinds, tol = merged.get(key, task)
            merged[key] = (family, params, tuple(sorted({*kinds, *task[2]})), tol)
    runs: dict[tuple, list] = {}
    for task in merged.values():
        runs.setdefault((task[0], task[2], task[3]), []).append(task)
    return [task for run in runs.values() for task in run]


def _solve_grids(grids, jobs: int) -> list[list[list[tuple]]]:
    """Cells per grid, point and kind of the task lists ``grids``.

    Every distinct point is built and solved once, in one call of
    :func:`_run_tasks` over the :func:`_plan` of all the grids; each grid
    reads its columns from the shared cells.
    """
    tasks = _plan(grids)
    solved = {_point_key(t): (t[2], cells) for t, cells in zip(tasks, _run_tasks(tasks, jobs))}
    out = []
    for grid in grids:
        rows = []
        for task in grid:
            kinds, cells = solved[_point_key(task)]
            rows.append([cells[kinds.index(kind)] for kind in task[2]])
        out.append(rows)
    return out


def _write_grid(axes, cols, results, title, csv_path, svg_path):
    """Write the cells ``results`` of the grid of ``axes``; see :func:`_grid`."""
    names = [name for name, _ in axes]
    points = list(itertools.product(*(values for _, values in axes)))
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


def _grid(family, fixed, axes, cols, jobs, tol, title, csv_path, svg_path):
    """Solve ``cols`` on every point of the product of ``axes``; write it.

    ``axes`` holds one or two ``(name, values)`` pairs and ``cols`` holds
    ``(column, kind, one_minus)`` triples.  One axis draws a line plot at
    ``svg_path``; two draw one heatmap per column, at ``<stem>_<column>.svg``
    when there are several.  Returns the SVG paths and whether a cell failed.
    """
    [results] = _solve_grids([_grid_tasks(family, fixed, axes, cols, tol)], jobs)
    return _write_grid(axes, cols, results, title, csv_path, svg_path)


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
    span = (args.stop - args.start) / args.step
    if not math.isfinite(span):
        raise UsageError("--start, --stop and --step give too many points")
    count = int(math.floor(span + 1e-9))
    if args.sweep == "d":
        # A dimension is an integer: sweep integers, not floats.
        if not (args.start.is_integer() and args.step.is_integer()):
            raise UsageError("--sweep d needs integral --start and --step")
        values = [int(args.start) + i * int(args.step) for i in range(count + 1)]
    else:
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
    # Every grid of the command is solved in one call: each distinct point
    # once, in chunks that share one pool.
    entries = [entry for name in which for entry in FIGURE_SPECS[name]]
    results = _solve_grids([
        _grid_tasks(family, fixed, axes, cols, args.tol)
        for _, family, fixed, axes, cols, _ in entries
    ], args.jobs)
    failed = False
    for (stem, _, _, axes, cols, title), cells in zip(entries, results):
        out = os.path.join(args.outdir, stem)
        svgs, fig_failed = _write_grid(
            axes, cols, cells, title, f"{out}.csv", f"{out}.svg",
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


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _seed(text: str) -> int:
    # numpy's generators take seeds >= 0 only.
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _tolerance(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has
    one, since ``os.cpu_count`` counts the host's CPUs."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _build_parser() -> argparse.ArgumentParser:
    # Each command takes only the options it reads: --tol everywhere,
    # --jobs where a grid is solved, --seed in check.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=_tolerance, default=sdpcore.DEFAULT_TOL)
    pooled = argparse.ArgumentParser(add_help=False)
    pooled.add_argument("--jobs", type=_positive_int, default=_usable_cpus())

    chan = argparse.ArgumentParser(add_help=False)
    chan.add_argument("--channel")
    chan.add_argument("--file")
    chan.add_argument("--combine-th", action="store_true", dest="combine_th")
    chan.add_argument("--kind", action="append", required=True)
    for flag in _PARAM_FLAGS:
        chan.add_argument(f"--{flag}", type=_positive_int if flag == "d" else float)

    parser = argparse.ArgumentParser(prog="qdoeblin")
    sub = parser.add_subparsers(dest="command", required=True)

    p_coeff = sub.add_parser("coeff", parents=[common, chan])
    p_coeff.set_defaults(func=_cmd_coeff)

    p_sweep = sub.add_parser("sweep", parents=[common, pooled, chan])
    p_sweep.add_argument("--sweep", required=True)
    p_sweep.add_argument("--start", type=_finite, required=True)
    p_sweep.add_argument("--stop", type=_finite, required=True)
    p_sweep.add_argument("--step", type=_finite, required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--svg")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_fig = sub.add_parser("figures", parents=[common, pooled])
    p_fig.add_argument("--which", action="append", required=True)
    p_fig.add_argument("--outdir", required=True)
    p_fig.set_defaults(func=_cmd_figures)

    p_check = sub.add_parser("check", parents=[common])
    p_check.add_argument("--seed", type=_seed, default=0)
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
