"""Doeblin-type coefficients of quantum channels as semidefinite programs.

Every program is declared as linear maps on Hermitian variables (a scalar
is a variable of side 1) and lowered to ``sdpcore`` by one function,
``_program``.  Variables have real coordinates in an orthonormal
basis stack; each map is applied once to the whole ``(k, n, n)`` basis
stack of its variable, each PSD block is lowered in one call and each
equality by one gemm against the basis of its target space.

Every PSD block is lowered one way: a Hermitian block of side n with
multiplicity 2 in ``sdpcore``, which has the iterates of its real
embedding of side 2n in exact arithmetic.  A program whose data is real
(every constant real, every map commuting with complex conjugation, as for
the Choi matrices of depolarizing, amplitude damping, Pauli and classical
channels) has a real optimum, the Z_2 case of the symmetry reduction of
Gatermann & Parrilo, "Symmetry groups, semidefinite programs, and sums of
squares" (JPAA 2004).  It is solved on the real symmetric basis of
:func:`qdoeblin.hermlin.real_symmetric_basis_stack`, with each block as its
real part: about half the variables and real arithmetic.  Realness is read
off the data, with no flag.  Any other program is solved in the basis of
:func:`qdoeblin.hermlin.hermitian_basis` with complex Hermitian blocks.

Each declaration takes a list of channels of equal dimensions.  The parts
that do not depend on the channel (PSD-map images, shared equality rows,
the objective and bounds) are lowered once for the list, once per
realness, and kept for the next call when they are small.  The parts that
do are stacks: a per-channel map (the link product of the reverse
programs, the ``J(N^-1)`` terms of revH's inverse program) is one call
over the stacked data, its equality rows one batched gemm, and the
variables of every solution one batched product with their basis.  A
declaration ``declare(channels, tol)`` does not solve: it yields its
problems and turns the solutions it receives into results (``tol`` is the
solve tolerance, which only the inverse paths below read).
:func:`solve_grids`, the grid entry, hands the problems of every kind and
dimension it is asked for to one :func:`qdoeblin.sdpcore.solve_many` call,
which sets each group of them up in one pass and solves them as lockstep
batches, so kinds that share a lockstep key (``rev`` and ``revT``,
``alpha`` and ``alphaT``) run as one batch.  :func:`solve_grid` is its one-kind case; the public kind functions
are the list of one channel and reach :func:`qdoeblin.sdpcore.solve`.

``rev`` and ``revT`` of a channel N that is invertible as a map on
matrices need no program: the only degrading map is ``D = T_p compose
N^-1``, so the coefficient is the smallest p at which ``J(D)`` is PSD, read
off one eigendecomposition (see :func:`_closed_form`, which also states
when it applies and the error bound that decides it).  Their declaration
solves the invertible channels of a list that way, with one stacked
inverse, one ``link_raw`` call and one stacked ``eigvalsh``, and yields
programs only for the others, as alphaT yields programs only for PPT
channels.  Such a result is ``optimal`` with 0 iterations.  ``revH`` of an
invertible channel stays a program, but on ``(theta, X)`` alone: D is
``T_X compose N^-1``, so ``J(D)`` is affine in X with ``J(N^-1)`` from the
same inverse and link (see :func:`_rev_hermitian_grid`), and the PSD block
of each channel has its own coefficients, lowered as one stack.

The forward coefficients bound the trace-distance contraction of a channel
from above (``eta <= 1 - alpha``); the reverse coefficients bound the
expansion from below (``eta_min >= 1 - reverse_alpha``) by degrading the
channel to a depolarizing-family target.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import hermlin, sdpcore
from .channel import QuantumChannel, link_raw, max_entangled, swap_matrix

KIND_ALPHA = "alpha"
KIND_ALPHA_T = "alphaT"
KIND_ALPHA_H = "alphaH"
KIND_ALPHA_TH = "alphaTH"
KIND_P1 = "p1"
KIND_REV = "rev"
KIND_REV_T = "revT"
KIND_REV_H = "revH"
# The data-processing range of :func:`dp_range`, for :func:`solve_grids`.
KIND_DP = "dp_range"

STATUS_NOT_APPLICABLE = "not_applicable"


@dataclass
class CoefficientResult:
    """One coefficient value together with its solve diagnostics.

    ``not_applicable`` marks the transpose coefficient of a channel that is
    not PPT; ``value`` is ``nan`` in that case and the CSV layer renders the
    literal ``nan_not_ppt``.
    """

    kind: str
    value: float
    status: str
    witness: np.ndarray | None = None
    not_applicable: bool = False
    solution: sdpcore.SdpSolution | None = None


@dataclass
class DpRange:
    """Two-sided range for the trace-distance contraction coefficient.

    Neither end is checked against a witness.  ``upper`` is
    ``1 - max(alphaH, alphaT)`` of the returned iterates, whatever their
    status (an inapplicable alphaT is left out).  ``lower`` is
    ``1 - min(revH, rev, revT)`` over the optimal reverse solves only, and
    the trivial 0.0 when none of the three is optimal.  ``status`` is the
    first non-optimal status among the five solves behind the range (an
    inapplicable transpose solve is skipped), or optimal.
    """

    lower: float
    upper: float
    status: str


@dataclass
class CapacityBounds:
    """Upper bounds on capacities induced by the Doeblin coefficient.

    ``q_bound`` (quantum capacity) uses the qubit erasure comparison and is
    only available for qubit inputs.  ``status`` is the status of the alpha
    solve behind every bound.
    """

    alpha_value: float
    q_bound: float | None
    q2_bound: float
    c_bound: float
    status: str


def _pair_traces(gs, ms) -> np.ndarray:
    """Real ``Tr(G_r M_c)`` for every pair of the two stacks, as one gemm.

    A ``(p, k, n, n)`` stack ``ms`` gives a ``(p, len(gs), k)`` stack, one
    gemm per slice in one call.
    """
    gs, ms = np.asarray(gs), np.asarray(ms)
    cols = np.swapaxes(ms, -1, -2).reshape(ms.shape[:-2] + (-1,))
    return np.real(gs.reshape(len(gs), -1) @ np.swapaxes(cols, -1, -2))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _basis(side: int, real: bool) -> np.ndarray:
    """The basis stack of a variable: real symmetric in a real program."""
    if real:
        return hermlin.real_symmetric_basis_stack(side)
    return hermlin.hermitian_basis(side)


def _keeps_conjugation(images: np.ndarray, side: int) -> np.ndarray:
    """Whether a map commutes with complex conjugation, from its images of
    the basis stack :func:`qdoeblin.hermlin.hermitian_basis` of side
    ``side``: the real symmetric elements must go to real images and the
    imaginary ones to imaginary images.  A ``(p, k, n, n)`` stack of images
    gives one answer per map."""
    real = hermlin.real_symmetric_mask(side)
    axes = (-3, -2, -1)
    return ~(
        np.imag(images[..., real, :, :]).any(axis=axes)
        | np.real(images[..., ~real, :, :]).any(axis=axes)
    )


class _PerProblem(NamedTuple):
    """A map of :func:`_program` that differs per problem.

    ``images`` maps the ``(k, n, n)`` basis stack of its variable to the
    ``(count, k, m, m)`` stack of the images of every problem's map.
    """

    images: Callable[[np.ndarray], np.ndarray]


def _real_declaration(sides, weights, psd, eqs, bounds) -> bool:
    """Whether the shared part of a declaration is invariant under complex
    conjugation: real weights and shared constants, shared maps that
    commute with conjugation, and bounds that admit 0 for the imaginary
    coordinates."""
    constants = [*weights.values(), *(c for c, _ in [*psd, *eqs] if np.ndim(c) == 2)]
    return (
        not any(np.imag(c).any() for c in constants)
        and all(
            _keeps_conjugation(f(hermlin.hermitian_basis(sides[v])), sides[v])
            for _, maps in [*psd, *eqs]
            for v, f in maps.items()
            if callable(f)
        )
        and all(lo <= 0.0 <= hi for v, (lo, hi) in (bounds or {}).items() if sides[v] > 1)
    )


class _Lowered:
    """The problem-independent part of a lowered declaration.

    Every PSD block is the Hermitian stack of its constraint, of
    multiplicity 2 in ``sdpcore``.  A real program (see
    :func:`_program`) has its variables in the real symmetric basis
    and its blocks as real parts; any other has them in the Hermitian basis
    and complex Hermitian blocks.  ``bases`` holds the basis stack of every
    variable and ``keep`` picks its elements out of the Hermitian basis.
    ``coeffs`` holds the coefficient list of every PSD block whose maps
    every problem shares (``None`` where a map is a :class:`_PerProblem`,
    and ``psd_images`` the images of the shared maps of that block),
    ``consts`` the lowered PSD constants shared by every problem (``None``
    where each problem has its own), ``eq_rows`` the rows of the
    equalities shared by every problem, and ``eq_images`` the images of the
    shared maps of the other equalities.
    """

    def __init__(self, sides, weights, psd, eqs, bounds, real):
        self.real = real
        self.bases = bases = [_basis(side, real) for side in sides]
        self.keep = [hermlin.real_symmetric_mask(side) if real else slice(None) for side in sides]
        self.start = np.cumsum([0] + [len(b) for b in bases])
        self.n = n = int(self.start[-1])
        self.nbytes = 0
        self.coeffs, self.psd_images, self.consts = [], [], []
        for c, maps in psd:
            images = {v: _frozen(f(bases[v])) for v, f in maps.items() if callable(f)}
            if len(images) == len(maps):
                lowered = _frozen(self.block(np.concatenate(list(images.values()))))
                self.coeffs.append(list(zip(self.columns(maps), lowered)))
                self.psd_images.append(None)
                self.nbytes += lowered.nbytes
            else:
                self.coeffs.append(None)
                self.psd_images.append(images)
                self.nbytes += sum(im.nbytes for im in images.values())
            self.consts.append(_frozen(self.block(c)) if np.ndim(c) == 2 else None)
        self.eq_rows, self.eq_images = [], []
        for target, maps in eqs:
            images = {v: _frozen(f(bases[v])) for v, f in maps.items() if callable(f)}
            shared = np.ndim(target) == 2 and len(images) == len(maps)
            self.eq_rows.append(self.rows(target, maps, images) if shared else None)
            self.eq_images.append(None if shared else images)
            if not shared:
                self.nbytes += sum(im.nbytes for im in images.values())
        self.objective = np.zeros(n)
        for v, w in weights.items():
            self.objective[self.start[v] : self.start[v + 1]] = _pair_traces([w], bases[v])[0]
        self.lower, self.upper = np.full(n, -np.inf), np.full(n, np.inf)
        for v, (lo, hi) in (bounds or {}).items():
            self.lower[self.start[v] : self.start[v + 1]] = lo
            self.upper[self.start[v] : self.start[v + 1]] = hi
        # Later calls share every array kept here.
        for a in (self.objective, self.lower, self.upper):
            a.flags.writeable = False

    def block(self, m: np.ndarray) -> np.ndarray:
        """A Hermitian matrix or stack as data of a PSD block: its real part
        in a real program, the Hermitian matrix itself in any other."""
        h = hermlin.require_hermitian(m, tol=1e-9)
        return np.ascontiguousarray(h.real) if self.real else h

    def columns(self, maps) -> np.ndarray:
        return np.concatenate([np.arange(self.start[v], self.start[v + 1]) for v in maps])

    def rows(self, target, maps, images):
        """Equality rows and right-hand side of ``sum_v f_v(X_v) = target``.

        A target or images with a leading axis, one slice per problem, give
        a stack of rows and right-hand sides, all from one batched gemm.
        """
        target = np.asarray(target)
        parts = [images[v] for v in maps] + [target[..., None, :, :]]
        lead = np.broadcast_shapes(*(a.shape[:-3] for a in parts))
        stack = np.concatenate([np.broadcast_to(a, lead + a.shape[-3:]) for a in parts], axis=-3)
        traces = _pair_traces(_basis(target.shape[-1], self.real), stack)
        rows = np.zeros(traces.shape[:-1] + (self.n,))
        rows[..., self.columns(maps)] = traces[..., :-1]
        return _frozen(rows), _frozen(traces[..., -1])


# Lowered declarations by key and realness, so that a single-channel call
# lowers only its channel's data, and whether the shared part of a
# declaration is real, by key.  Lowerings above ``LOWERED_BYTES`` are not
# kept: those of the complex p1 and reverse link programs from d=4 on
# (complex p1 takes 3.1 MB at d=4, rev, revT and revH 1.05-1.11 MB) and of
# the real ones from d=5 on (real p1 takes 0.84 MB at d=4 and 4.9 MB at
# d=5).  The link programs now serve only the channels no inverse serves
# (singular ones, those that fail the rule of ``_Inverses.linked`` or its
# bound at ``tol``); revH's inverse program holds no shared map images and
# is kept at every d.
_LOWERED: dict = {}
_REAL_DECLARATIONS: dict = {}
LOWERED_BYTES = 1 << 20


def _program(sides, weights, psd, eqs=(), bounds=None, *, count, key=None):
    """Declare ``count`` programs that differ only in their data: maximise
    ``sum_v Tr(W_v X_v)`` over Hermitian variables ``X_v``.

    ``sides[v]`` is the side of ``X_v`` (1 for a real scalar) and
    ``weights`` maps ``v`` to ``W_v``.  A constraint is a Hermitian matrix
    with a dict of linear maps ``{v: f_v}``: each ``(C, maps)`` in ``psd``
    reads ``C - sum_v f_v(X_v) >= 0`` and each ``(R, maps)`` in ``eqs``
    reads ``sum_v f_v(X_v) = R``.  ``bounds`` maps ``v`` to ``(lo, hi)``
    for every coordinate of ``X_v``.  A map receives the whole
    ``(k, n, n)`` basis stack of its variable, so each PSD block is lowered
    in one call and each equality by one gemm against the basis of its
    target space.

    The problems share the variables, the weights and the bounds, which
    are lowered once.  A constant ``C`` or ``R`` is one matrix or a stack
    of ``count`` matrices, one per problem, and a map is one callable,
    lowered once, or a :class:`_PerProblem`, whose one call gives the
    images of every problem's map.  The rows of an equality with such a
    map come from one batched gemm for every problem, and a PSD block with
    one gets a coefficient list per problem, all slices of one stack.
    ``key`` names the declaration: every call with one key must declare
    the same shared parts, whose lowering is then kept for the next call.

    A problem is real when its program is invariant under complex
    conjugation: every constant has a zero imaginary part and every map
    sends the real symmetric basis elements to real images and the
    imaginary ones to imaginary images (see :func:`_real_declaration`).
    Its optimum is then attained at real variables (the mean of an optimum
    and its conjugate), so it is solved in the real symmetric basis with
    each PSD block ``C - sum_v f_v(X_v)`` as its real part.  The others
    are solved in the Hermitian basis with complex Hermitian blocks.  Every
    block has multiplicity 2 in ``sdpcore``, so both kinds take the
    iterates of the real embedding of their blocks.  The two kinds are
    lowered apart.

    A generator for :func:`_solve`: it yields the
    :class:`~qdoeblin.sdpcore.SdpProblem` of every problem, receives their
    solutions in that order and returns ``(solution, [X_v as Hermitian
    matrices])`` per problem, in problem order.
    """
    real_decl = _REAL_DECLARATIONS.get(key) if key is not None else None
    if real_decl is None:
        real_decl = _real_declaration(sides, weights, psd, eqs, bounds)
        if key is not None:
            _REAL_DECLARATIONS[key] = real_decl
    real = np.full(count, real_decl)
    for c, _ in [*psd, *eqs]:
        if np.ndim(c) == 3:
            real &= ~np.imag(c).any(axis=(1, 2))
    # Per-problem maps go to the whole Hermitian basis first, in one call
    # each: their images decide realness too, and a real problem keeps the
    # images of the real basis elements.
    own = [{} for _ in [*psd, *eqs]]
    for images, (_, maps) in zip(own, [*psd, *eqs]):
        for v, f in maps.items():
            if isinstance(f, _PerProblem):
                images[v] = f.images(hermlin.hermitian_basis(sides[v]))
                real &= _keeps_conjugation(images[v], sides[v])
    lowered = []
    for flag in (True, False):
        members = np.flatnonzero(real == flag)
        if not members.size:
            continue
        low = _LOWERED.get((key, flag)) if key is not None else None
        if low is None:
            low = _Lowered(sides, weights, psd, eqs, bounds, flag)
            if key is not None and low.nbytes <= LOWERED_BYTES:
                _LOWERED[key, flag] = low
        lowered.append((low, members))
    sols = iter((yield [
        p for low, members in lowered for p in _lowered_problems(low, psd, eqs, own, members)
    ]))
    out = [None] * count
    for low, members in lowered:
        mine = list(itertools.islice(sols, len(members)))
        for p, res in zip(members, _with_variables(low, mine)):
            out[p] = res
    return out


def _lowered_problems(low: _Lowered, psd, eqs, own, members) -> list[sdpcore.SdpProblem]:
    """The problems ``members`` of :func:`_program` on their lowering, with
    ``own`` the stacked images of the per-problem maps on the Hermitian
    basis, per PSD block and then per equality."""
    consts = [
        c if c is not None else low.block(c_in if np.ndim(c_in) == 2 else c_in[members])
        for c, (c_in, _) in zip(low.consts, psd)
    ]

    def images(shared, mine, maps) -> dict:
        """Every map's images: shared, or a stack of one slice per member."""
        return {v: shared[v] if v in shared else mine[v][members][:, low.keep[v]] for v in maps}

    # Each problem's coefficient list of every block: the shared one, or
    # its own, a slice of one lowered stack.
    coeffs = []
    for (_, maps), cf, shared, mine in zip(psd, low.coeffs, low.psd_images, own):
        if cf is not None:
            coeffs.append([cf] * len(members))
            continue
        ims = images(shared, mine, maps)
        stack = np.concatenate(
            [np.broadcast_to(im, (len(members),) + im.shape[-3:]) for im in ims.values()], axis=1
        )
        side = stack.shape[-1]
        stack = low.block(stack.reshape(-1, side, side)).reshape(stack.shape)
        coeffs.append([list(zip(low.columns(maps), each)) for each in stack])

    # Equality rows shared by every problem, or stacks of one slice each.
    rows = []
    for (target, maps), shared, ims, mine in zip(eqs, low.eq_rows, low.eq_images, own[len(psd):]):
        if shared is None:
            shared = low.rows(
                target if np.ndim(target) == 2 else target[members], maps, images(ims, mine, maps)
            )
        rows.append(shared)
    eq_matrix = eq_rhs = None
    if len(rows) == 1:
        eq_matrix, eq_rhs = rows[0]
    elif rows:
        lead = (len(members),) if any(e.ndim == 3 for e, _ in rows) else ()
        eq_matrix = np.concatenate(
            [np.broadcast_to(e, lead + e.shape[-2:]) for e, _ in rows], axis=-2
        )
        eq_rhs = np.concatenate([np.broadcast_to(f, lead + f.shape[-1:]) for _, f in rows], axis=-1)
    each = eq_matrix is not None and eq_matrix.ndim == 3

    return [
        sdpcore.SdpProblem(
            num_vars=low.n,
            objective=low.objective,
            blocks=[
                sdpcore.SdpBlock(c=c if c.ndim == 2 else c[i], coeffs=cf[i], w=2)
                for c, cf in zip(consts, coeffs)
            ],
            eq_matrix=eq_matrix[i] if each else eq_matrix,
            eq_rhs=eq_rhs[i] if each else eq_rhs,
            lower=low.lower,
            upper=low.upper,
        )
        for i in range(len(members))
    ]


def _with_variables(low: _Lowered, sols) -> list[tuple]:
    """``(solution, [X_v])`` per solution: every variable of every problem
    from one batched product with its basis, one gemv per problem, as for
    the problem alone."""
    ys = np.stack([sol.y for sol in sols])[:, None]
    mats = [
        np.matmul(ys[..., low.start[v] : low.start[v + 1]], basis.reshape(len(basis), -1))
        .reshape((len(sols),) + basis.shape[1:])
        for v, basis in enumerate(low.bases)
    ]
    return [(sol, [m[i] for m in mats]) for i, sol in enumerate(sols)]


def _together(declarations):
    """Several declarations as one: yields the problems of all of them,
    hands each its share of the solutions and returns what each returns,
    in order."""
    declarations = list(declarations)
    asked = [next(d) for d in declarations]
    sols = iter((yield [p for ps in asked for p in ps]))
    out = []
    for d, ps in zip(declarations, asked):
        try:
            d.send(list(itertools.islice(sols, len(ps))))
        except StopIteration as done:
            out.append(done.value)
        else:
            raise RuntimeError("a declaration must yield its problems once")
    return out


def _solve(declarations, tol: float) -> list:
    """Run declarations with every problem they declare in one solve.

    A declaration is a generator that yields its list of
    :class:`~qdoeblin.sdpcore.SdpProblem` once, receives their solutions
    and returns its results; the problems of all of them go to one
    :func:`qdoeblin.sdpcore.solve_many` call, where problems of one
    lockstep key run as one batch whatever declaration they come from.
    Returns what each declaration returns, in order.
    """
    run = _together(declarations)
    problems = next(run)
    if len(problems) == 1:
        # A single channel is a batch of one, solved through ``solve``: the
        # traced benchmark (bench/tracing.py) counts ``sdpcore.solve`` spans.
        sols = [sdpcore.solve(problems[0], tol=tol)]
    else:
        # Also with no problems: a bad ``tol`` raises whatever was solved
        # without the solver.
        sols = sdpcore.solve_many(problems, tol=tol)
    try:
        run.send(sols)
    except StopIteration as done:
        return done.value


def _result(kind: str, sol: sdpcore.SdpSolution, value: float, witness) -> CoefficientResult:
    return CoefficientResult(
        kind=kind, value=value, status=sol.status, witness=witness, solution=sol
    )


WITNESS_TRACE_FLOOR = 1e-7


def _state_witness(sigma_hat: np.ndarray) -> np.ndarray | None:
    """Renormalize the optimal replacement operator to a state.

    Below the trace floor the division is meaningless noise, so no witness
    is reported.
    """
    tr = float(np.trace(sigma_hat).real)
    if tr < WITNESS_TRACE_FLOOR:
        return None
    return sigma_hat / tr


def _alpha_solution(
    kind: str, j_mats: list[np.ndarray], channels: list[QuantumChannel], positive: bool
):
    """Maximise Tr(sigma) subject to sigma (x) 1/d_in <= J (and sigma >= 0).

    One program per channel, with ``j_mats`` the matrices J; the channels
    share their dimensions.  With ``positive`` the witness is sigma
    renormalised to a state, without it the Hermitian sigma itself.
    """
    d_in, d_out = channels[0].d_in, channels[0].d_out
    eye_in = np.eye(d_in) / d_in
    psd = [(np.stack(j_mats), {0: lambda b: hermlin.kron(b, eye_in)})]
    if positive:
        psd.append((np.zeros((d_out, d_out)), {0: np.negative}))
    solved = yield from _program(
        [d_out], {0: np.eye(d_out)}, psd,
        count=len(channels), key=("alpha", d_in, d_out, positive),
    )
    return [
        _result(kind, sol, sol.objective_value, _state_witness(sigma) if positive else sigma)
        for sol, (sigma,) in solved
    ]


def _transposed_choi(channel: QuantumChannel) -> np.ndarray:
    return hermlin.partial_transpose(
        channel.choi.matrix, (channel.d_out, channel.d_in), 0
    )


def _alpha_grid(channels, tol):
    return _alpha_solution(KIND_ALPHA, [c.choi.matrix for c in channels], channels, True)


def _on_subset(declaration, picked):
    """Run ``declaration``, whose channels are those flagged in ``picked``,
    and return its results at their places in ``picked``, None elsewhere.
    A declaration yields once, also with nothing to solve."""
    solved = (yield from declaration) if any(picked) else (yield [])
    solved = iter(solved)
    return [next(solved) if ok else None for ok in picked]


def _alpha_transpose_grid(channels, tol):
    """alphaT where the transposed Choi matrix is PSD, not applicable elsewhere."""
    jts = [_transposed_choi(c) for c in channels]
    ppt = [not np.linalg.eigvalsh(jt)[0] < -hermlin.PSD_TOL for jt in jts]
    solved = yield from _on_subset(
        _alpha_solution(
            KIND_ALPHA_T,
            [jt for jt, ok in zip(jts, ppt) if ok],
            [c for c, ok in zip(channels, ppt) if ok],
            True,
        ),
        ppt,
    )
    return [
        res if res is not None else CoefficientResult(
            kind=KIND_ALPHA_T,
            value=float("nan"),
            status=STATUS_NOT_APPLICABLE,
            not_applicable=True,
        )
        for res in solved
    ]


def _alpha_hermitian_grid(channels, tol):
    return _alpha_solution(KIND_ALPHA_H, [c.choi.matrix for c in channels], channels, False)


def _alpha_transpose_hermitian_grid(channels, tol):
    return _alpha_solution(
        KIND_ALPHA_TH, [_transposed_choi(c) for c in channels], channels, False
    )


def _p1_grid(channels, tol):
    """Largest PPT entanglement-breaking-candidate component of each channel."""
    d_in, d_out = channels[0].d_in, channels[0].d_out
    dim = d_in * d_out
    zero = np.zeros((dim, dim))

    def traceless_marginal(b):
        # Only the direction of the input marginal is fixed, not its trace.
        tr = np.trace(b, axis1=-2, axis2=-1).real[:, None, None]
        return hermlin.partial_trace(b, (d_out, d_in), 1) - tr * np.eye(d_in) / d_in

    solved = yield from _program(
        [dim],
        {0: np.eye(dim)},
        psd=[
            (zero, {0: np.negative}),
            (zero, {0: lambda b: -hermlin.partial_transpose(b, (d_out, d_in), 1)}),
            (np.stack([c.choi.matrix for c in channels]), {0: lambda b: b}),
        ],
        eqs=[(np.zeros((d_in, d_in)), {0: traceless_marginal})],
        count=len(channels),
        key=(KIND_P1, d_in, d_out),
    )
    return [_result(KIND_P1, sol, sol.objective_value, j_hat) for sol, (j_hat,) in solved]


def _square_dim(channels) -> int:
    """The common dimension of channels with d_in == d_out; ValueError else."""
    for channel in channels:
        if channel.d_in != channel.d_out:
            raise ValueError(
                "reverse coefficients need d_in == d_out, got"
                f" ({channel.d_in}, {channel.d_out})"
            )
    return channels[0].d_in


def _reverse(channels: list[QuantumChannel], kind: str, side: int, extra, target, bounds):
    """Smallest ``Tr(X)`` such that a degrading map D gives the target family.

    D runs from the channel output (dim ``d_b``) back to its input (dim
    ``d_a``); its Choi matrix is ordered output (x) input like every other
    Choi here, so it lives on ``d_a * d_b`` and the composite on
    ``d_a * d_a``.  D is completely positive and trace preserving, and
    ``J(D compose N) + extra(X) = target`` for the extra variable ``X`` of
    the given side.  One program per channel; the channel enters only the
    link-product rows.

    This is the program of the channels no inverse serves: rev, revT and
    revH of a channel that is singular, or whose computed inverse fails
    the residual rule of :meth:`_Inverses.linked` or leaves an error bound
    above ``tol`` (see :func:`_closed_form` and :func:`_rev_hermitian_grid`).
    An invertible channel fixes D by its inverse, and then the program
    above needs none of D's d^4 coordinates.
    """
    d_a = d_b = _square_dim(channels)
    chois = np.stack([channel.choi.matrix for channel in channels])
    links = _PerProblem(lambda b: link_raw(b, (d_a, d_b), chois, (d_b, d_a)))
    solved = yield from _program(
        [d_a * d_b, side],
        {1: -np.eye(side)},
        psd=[(np.zeros((d_a * d_b, d_a * d_b)), {0: np.negative})],
        eqs=[
            # Tracing out the output factor of D leaves 1/d_b: D is trace
            # preserving.
            (np.eye(d_b) / d_b, {0: lambda b: hermlin.partial_trace(b, (d_a, d_b), 1)}),
            (target, {0: links, 1: extra}),
        ],
        bounds=bounds,
        count=len(channels),
        key=(kind, d_a),
    )
    return [_result(kind, sol, -sol.objective_value, d_choi) for sol, (d_choi, _) in solved]


def _fixed_target(kind: str, d: int) -> tuple[np.ndarray, float, float]:
    """The anchor ``J(A)`` of rev or revT at dimension d and the range
    ``[lo, hi]`` of p over which ``(1 - p) A + p R`` is a channel family."""
    if kind == KIND_REV:
        return max_entangled(d), 0.0, 1.0
    return swap_matrix(d) / d, d / (d + 1.0), d / (d - 1.0)


def _fixed_target_program(channels, kind: str):
    """The SDP of rev or revT: smallest p in ``[lo, hi]`` with ``D compose
    N = (1 - p) A + p R`` in Choi form."""
    d = channels[0].d_in
    anchor, lo, hi = _fixed_target(kind, d)
    eye = np.eye(d * d) / (d * d)
    return (yield from _reverse(
        channels, kind, 1, lambda b: b * (anchor - eye), anchor, {1: (lo, hi)}
    ))


def _reshuffle(m: np.ndarray, d: int) -> np.ndarray:
    """Swap the middle factors of a ``(p, d*d, d*d)`` stack: entry
    ``[(a, i), (b, j)]`` goes to ``[(a, b), (i, j)]``.  This takes a Choi
    matrix (output (x) input) times d to the matrix of its map on
    row-major vectorised operators, and back."""
    p = len(m)
    return m.reshape(p, d, d, d, d).transpose(0, 1, 3, 2, 4).reshape(p, d * d, d * d)


class _Inverses:
    """The superoperator inverses of a list of channels with ``d_in ==
    d_out``, shared by the reverse kinds of one grid.

    The stacked inverse and its residual are computed on first use, and
    ``linked`` links them to the anchor of rev (which revH shares) or of
    revT once per anchor, so a grid that asks for rev, revT and revH
    inverts each channel once and calls ``link_raw`` twice.
    """

    def __init__(self, channels):
        self.channels = channels
        self._inverse = None
        self._linked: dict[str, tuple] = {}

    def linked(self, kind: str):
        """``(idx, m, e)``: ``M = J(A compose N^-1)`` for the anchor ``J(A)``
        of ``kind`` (rev or revT) and every channel N of the list whose
        inverse passes the residual rule, with a bound on the error of each
        M.

        ``idx`` holds the positions of the channels that pass, ``m`` the
        stack of their M and ``e``, per M, a bound on the spectral norm of
        its error, which bounds the error of each of its eigenvalues too.
        With no channel passing there is no link.

        The rule, with ``X`` the computed inverse of the superoperator S
        and ``eps`` the machine epsilon:

        - ``r = ||I - S X||_F + (d^2 + 1) eps ||S||_F ||X||_F`` bounds the
          residual with the roundoff of computing it.  A channel passes
          when ``r < 1``, and then ``||S^-1 - X||_F <= ||X||_F r / (1 - r)``.
        - ``J(N^-1)`` is X reshuffled over d, and linking it to the anchor
          of rev (the identity) or revT (the transpose) moves no entry's
          size, so M moves by at most that over d.  Rounding in the link
          product and in an ``eigvalsh`` of M adds about ``d^2 eps
          ||M||_F``, taken 4 times, so ``e = ||X||_F / d (r / (1 - r) +
          4 d^2 eps)``.
        """
        if kind not in self._linked:
            if self._inverse is None:
                self._inverse = _inverse(self.channels)
            inv, norm_inv, r = self._inverse
            d = self.channels[0].d_in
            n = d * d
            idx = np.flatnonzero(r < 1.0)
            if not idx.size:
                self._linked[kind] = idx, np.zeros((0, n, n), dtype=complex), np.zeros(0)
            else:
                e = norm_inv[idx] / d * (r[idx] / (1.0 - r[idx]) + 4 * n * np.finfo(float).eps)
                anchor = _fixed_target(kind, d)[0]
                m = link_raw(anchor, (d, d), _reshuffle(inv[idx], d) / d, (d, d))
                self._linked[kind] = idx, m, e
        return self._linked[kind]


def _inverse(channels):
    """The stacked inverses X of the channels' superoperators S, the norms
    ``||X||_F`` and the residual bounds ``r`` of :meth:`_Inverses.linked`;
    a singular map has a NaN inverse, which fails the rule."""
    d = channels[0].d_in
    n = d * d
    eps = np.finfo(float).eps
    sup = d * _reshuffle(np.stack([channel.choi.matrix for channel in channels]), d)
    try:
        inv = np.linalg.inv(sup)
    except np.linalg.LinAlgError:
        # One exactly singular map fails the whole stack: invert one by
        # one and leave the singular ones NaN, which fail the rule.
        inv = np.full_like(sup, np.nan)
        for i, s in enumerate(sup):
            with contextlib.suppress(np.linalg.LinAlgError):
                inv[i] = np.linalg.inv(s)
    with np.errstate(all="ignore"):
        norm_inv = np.linalg.norm(inv, axis=(1, 2))
        r = np.linalg.norm(np.eye(n) - sup @ inv, axis=(1, 2))
        r += (n + 1) * eps * np.linalg.norm(sup, axis=(1, 2)) * norm_inv
    return inv, norm_inv, r


def _closed_form(
    channels, kind: str, tol: float, inverses: _Inverses
) -> list[CoefficientResult | None]:
    """rev or revT without a solve where the channel is invertible: a result
    per channel, None where the SDP has to decide.

    When N is invertible as a map on d x d matrices, the only D with
    ``D compose N = T_p`` is ``T_p compose N^-1``, with ``T_p = (1 - p) A +
    p R`` for the anchor map A (see :func:`_fixed_target`) and the replacer
    ``R(X) = Tr(X) 1/d``.  N^-1 is trace preserving, so ``R compose N^-1 =
    R`` and ``J(D_p) = (1 - p) M + p 1/d^2`` with ``M = J(A compose
    N^-1)``.  Both terms share an eigenbasis, so D_p is CP exactly when
    ``mu_i + p (1/d^2 - mu_i) >= 0`` for every eigenvalue ``mu_i`` of M.
    That is an interval of p which contains 1 (``J(D_1) = 1/d^2``), and
    ``lo < 1 <= hi``, so its part in ``[lo, hi]`` is never empty.  The
    coefficient is its left end, ``max(lo, mu / (mu - 1/d^2))`` for the
    smallest ``mu``, and the witness is ``J(D_p)``.  The work is that of
    :meth:`_Inverses.linked` and one stacked ``eigvalsh``.

    :meth:`_Inverses.linked` states the rule a channel must pass and the
    bound ``e`` on the error of the smallest eigenvalue.  With ``c = 1/d^2`` and
    ``p = 1 - c / (c - mu)``, the value is then off by at most ``err = c e
    / ((c - mu)(c - mu - e)) + 4 eps`` (the last term for the division),
    and clipping at ``lo`` does not add to it.  The closed form is taken
    when the channel passes the rule, ``c - mu > e`` and ``err <= tol``;
    the SDP gets the rest.  These are the singular maps (replacers such as
    the eta = 0 row of ``gad`` or depolarizing at p = 1, dephasing
    channels; every one has rev = revT = 1, since ``T_p`` must vanish on
    the traceless kernel of N) and any channel whose bound exceeds
    ``tol``.  ``4 eps`` alone exceeds a ``tol`` of 1e-16, so that
    tolerance always reaches the solver.  revH takes the same rule with
    its own bound (see :func:`_rev_hermitian_grid`).  The result has an
    :class:`~qdoeblin.sdpcore.SdpSolution` with 0 iterations, no ``y`` or
    ``x_blocks``, gap 0 and ``err`` as both residuals.
    """
    d = channels[0].d_in
    n = d * d
    c = 1.0 / n
    eps = np.finfo(float).eps
    lo = _fixed_target(kind, d)[1]
    out: list[CoefficientResult | None] = [None] * len(channels)
    idx, m, e = inverses.linked(kind)
    low = np.linalg.eigvalsh(m)[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        err = c * e / ((c - low) * (c - low - e)) + 4 * eps
        value = np.maximum(lo, low / (low - c))
    take = (c - low > e) & (err <= tol)
    eye = np.eye(n) / n
    for i, p, bound, mi in zip(idx[take], value[take], err[take], m[take]):
        sol = sdpcore.SdpSolution(
            status=sdpcore.STATUS_OPTIMAL, y=np.zeros(0), objective_value=-float(p), gap=0.0,
            primal_residual=float(bound), dual_residual=float(bound), iterations=0,
        )
        out[i] = _result(kind, sol, float(p), (1.0 - p) * mi + p * eye)
    return out


def _reverse_fixed_target(channels, kind: str, tol: float, inverses: _Inverses | None):
    """rev or revT: in closed form where :func:`_closed_form` applies, as
    the SDP of :func:`_fixed_target_program` for the other channels."""
    _square_dim(channels)
    closed = _closed_form(channels, kind, tol, inverses or _Inverses(channels))
    solved = yield from _on_subset(
        _fixed_target_program([c for c, res in zip(channels, closed) if res is None], kind),
        [res is None for res in closed],
    )
    return [res if res is not None else sdp for res, sdp in zip(closed, solved)]


def _rev_grid(channels, tol, inverses=None):
    return _reverse_fixed_target(channels, KIND_REV, tol, inverses)


def _rev_transpose_grid(channels, tol, inverses=None):
    return _reverse_fixed_target(channels, KIND_REV_T, tol, inverses)


def _rev_hermitian_link(channels):
    """The link program of revH (see :func:`_reverse`): the degraded
    channel is ``(1 - Tr X) id + Tr(.) X`` in Choi form."""
    d = channels[0].d_in
    phi = max_entangled(d)
    eye_in = np.eye(d) / d

    def extra(b):
        tr = np.trace(b, axis1=-2, axis2=-1).real[:, None, None]
        return tr * phi - hermlin.kron(b, eye_in)

    return (yield from _reverse(channels, KIND_REV_H, d, extra, phi, None))


def _rev_hermitian_inverse(m: np.ndarray, d: int):
    """revH of invertible channels from ``M = J(N^-1)``, one per channel.

    D must be ``T_X compose N^-1`` for the target ``T_X = (1 - Tr X) id +
    Tr(.) X``, so ``J(D) = (theta - Tr X) M + X (x) 1/d`` with ``theta =
    1``: minimise ``Tr X`` over the d^2 + 1 real variables of ``(theta,
    X)`` with ``J(D) >= 0``.  Both maps depend on the channel through M.
    The witness is ``J(D)``.
    """
    eye_in = np.eye(d) / d

    def degrading(b):
        tr = np.trace(b, axis1=-2, axis2=-1).real
        return tr[None, :, None, None] * m[:, None] - hermlin.kron(b, eye_in)[None]

    solved = yield from _program(
        [1, d],
        {1: -np.eye(d)},
        psd=[(
            np.zeros((d * d, d * d)),
            {0: _PerProblem(lambda b: -b[None] * m[:, None]), 1: _PerProblem(degrading)},
        )],
        eqs=[(np.ones((1, 1)), {0: lambda b: b})],
        count=len(m),
        key=(KIND_REV_H, d, "inverse"),
    )
    thetas = np.array([theta[0, 0].real for _, (theta, _) in solved])
    xs = np.stack([x for _, (_, x) in solved])
    scale = thetas - np.trace(xs, axis1=1, axis2=2).real
    witnesses = scale[:, None, None] * m + hermlin.kron(xs, eye_in)
    return [
        _result(KIND_REV_H, sol, -sol.objective_value, w)
        for (sol, _), w in zip(solved, witnesses)
    ]


def _rev_hermitian_grid(channels, tol, inverses=None):
    """Degrade onto a generalized-depolarizing target with free Hermitian part.

    An invertible channel takes the program of :func:`_rev_hermitian_inverse`
    on ``M = J(N^-1)`` from :meth:`_Inverses.linked` (linked to the
    identity anchor of rev, and so shared with rev), when it passes its
    rule and the error bound below is at most ``tol``; the others take
    :func:`_rev_hermitian_link`.

    The bound: let the computed M be off by at most ``e`` in spectral norm.
    At any X, ``J(D)`` then moves by ``(1 - Tr X)`` times that error, and
    ``|1 - Tr X| <= 1`` wherever ``D compose N`` is a channel, since a
    channel does not expand trace distance.  ``X = 1/d`` is feasible for
    every M (``J(D) = 1/d^2``), and mixing a solution with a fraction s of
    it lifts ``J(D)`` by ``s / d^2``: ``s = d^2 e`` absorbs the error and
    moves ``Tr X`` by at most ``s``.  Both programs' optima are so within
    ``d^2 e`` of each other.  As for rev, ``e`` is at least ``4 d eps``
    (the computed inverse has a norm of at least 1), so ``d^2 e`` exceeds
    a ``tol`` of 1e-16, which always reaches the link program.
    """
    d = _square_dim(channels)
    idx, m, e = (inverses or _Inverses(channels)).linked(KIND_REV)
    take = d * d * e <= tol
    picked = np.zeros(len(channels), dtype=bool)
    picked[idx[take]] = True
    by_inverse, by_link = yield from _together([
        _on_subset(_rev_hermitian_inverse(m[take], d), picked),
        _on_subset(
            _rev_hermitian_link([c for c, ok in zip(channels, picked) if not ok]), ~picked
        ),
    ])
    return [res if res is not None else link for res, link in zip(by_inverse, by_link)]


def _single(declare, channel: QuantumChannel, tol: float) -> CoefficientResult:
    """One kind on one channel: a declaration of one problem."""
    [[res]] = _solve([declare([channel], tol)], tol)
    return res


def alpha(channel: QuantumChannel, tol: float = sdpcore.DEFAULT_TOL) -> CoefficientResult:
    """Doeblin coefficient: the largest erasure component of the channel."""
    return _single(_alpha_grid, channel, tol)


def alpha_transpose(
    channel: QuantumChannel, tol: float = sdpcore.DEFAULT_TOL
) -> CoefficientResult:
    """Doeblin coefficient of the transposed channel; needs a PPT channel."""
    return _single(_alpha_transpose_grid, channel, tol)


def alpha_hermitian(
    channel: QuantumChannel, tol: float = sdpcore.DEFAULT_TOL
) -> CoefficientResult:
    """Hermitian relaxation: the replaced output may be any Hermitian operator."""
    return _single(_alpha_hermitian_grid, channel, tol)


def alpha_transpose_hermitian(
    channel: QuantumChannel, tol: float = sdpcore.DEFAULT_TOL
) -> CoefficientResult:
    """Hermitian relaxation applied to the transposed channel.

    Well defined for every channel: the decomposition argument behind the
    bound does not need the transposed map to be completely positive.
    """
    return _single(_alpha_transpose_hermitian_grid, channel, tol)


def p1_eb_ppt(
    channel: QuantumChannel, tol: float = sdpcore.DEFAULT_TOL
) -> CoefficientResult:
    """Largest PPT entanglement-breaking-candidate component of the channel.

    Maximises ``Tr(J_hat)`` over subnormalised Choi matrices ``J_hat`` that
    are PSD, PPT, have a uniform input marginal and satisfy
    ``J - J_hat >= 0``.
    """
    return _single(_p1_grid, channel, tol)


def reverse_alpha(
    channel: QuantumChannel, tol: float = sdpcore.DEFAULT_TOL
) -> CoefficientResult:
    """Smallest p such that the channel degrades to depolarizing at p."""
    return _single(_rev_grid, channel, tol)


def reverse_alpha_transpose(
    channel: QuantumChannel, tol: float = sdpcore.DEFAULT_TOL
) -> CoefficientResult:
    """Smallest p such that the channel degrades to transpose-depolarizing."""
    return _single(_rev_transpose_grid, channel, tol)


def reverse_alpha_hermitian(
    channel: QuantumChannel, tol: float = sdpcore.DEFAULT_TOL
) -> CoefficientResult:
    """Degrade onto a generalized-depolarizing target with free Hermitian part.

    Minimises ``Tr(X)`` such that the degraded channel equals
    ``(1 - Tr X) id + replace-by-X`` in Choi form.
    """
    return _single(_rev_hermitian_grid, channel, tol)


def _contraction(herm: CoefficientResult, trans: CoefficientResult) -> float:
    """The contraction upper bound from the forward results it rests on."""
    candidates = [herm.value]
    if not trans.not_applicable:
        candidates.append(trans.value)
    return 1.0 - max(candidates)


def _expansion(results: list[CoefficientResult]) -> float:
    """The expansion lower bound from the (revH, rev, revT) results.

    Only optimal solves count.  When none is optimal the bound is the
    trivial 0.0: every reverse coefficient is at most 1, so a non-optimal
    value is never reported as a bound.
    """
    usable = [r.value for r in results if r.status == sdpcore.STATUS_OPTIMAL]
    return 1.0 - min(usable, default=1.0)


def _dp(reverse: list[CoefficientResult], forward: list[CoefficientResult]) -> DpRange:
    """The range from the (revH, rev, revT) and (alphaH, alphaT) results."""
    failed = (
        r.status
        for r in reverse + forward
        if r.status != sdpcore.STATUS_OPTIMAL and not r.not_applicable
    )
    return DpRange(
        lower=_expansion(reverse),
        upper=_contraction(*forward),
        status=next(failed, sdpcore.STATUS_OPTIMAL),
    )


def _reverse_results(channel: QuantumChannel, tol: float) -> list[CoefficientResult]:
    return [
        reverse_alpha_hermitian(channel, tol),
        reverse_alpha(channel, tol),
        reverse_alpha_transpose(channel, tol),
    ]


def contraction_upper_bound(
    channel: QuantumChannel, tol: float = sdpcore.DEFAULT_TOL
) -> float:
    """Upper bound on trace-distance contraction: 1 - max available forward value."""
    return _contraction(alpha_hermitian(channel, tol), alpha_transpose(channel, tol))


def expansion_lower_bound(
    channel: QuantumChannel, tol: float = sdpcore.DEFAULT_TOL
) -> float:
    """Lower bound on trace-distance expansion: 1 - min optimal reverse value.

    Non-optimal reverse solves are left out; with none optimal the bound is
    the trivial 0.0.
    """
    return _expansion(_reverse_results(channel, tol))


def dp_range(
    channel: QuantumChannel, tol: float = sdpcore.DEFAULT_TOL
) -> DpRange:
    """Two-sided data-processing range for the channel (see :class:`DpRange`).

    ``upper`` is 1 - max(alphaH, alphaT) of the returned iterates and
    ``lower`` comes from the optimal reverse solves only; neither end is
    checked against a witness.
    """
    reverse = _reverse_results(channel, tol)
    return _dp(reverse, [alpha_hermitian(channel, tol), alpha_transpose(channel, tol)])


_DECLARATIONS = {
    KIND_ALPHA: _alpha_grid,
    KIND_ALPHA_T: _alpha_transpose_grid,
    KIND_ALPHA_H: _alpha_hermitian_grid,
    KIND_ALPHA_TH: _alpha_transpose_hermitian_grid,
    KIND_P1: _p1_grid,
    KIND_REV: _rev_grid,
    KIND_REV_T: _rev_transpose_grid,
    KIND_REV_H: _rev_hermitian_grid,
}
# The kinds whose declarations share one :class:`_Inverses` per grid group.
_REVERSE_KINDS = (KIND_REV, KIND_REV_T, KIND_REV_H)
# The kinds behind a data-processing range: reverse (revH, rev, revT), then
# forward (alphaH, alphaT), as :func:`_dp` takes them.
_DP_KINDS = (KIND_REV_H, KIND_REV, KIND_REV_T, KIND_ALPHA_H, KIND_ALPHA_T)


def solve_grids(kinds, channels, tol: float = sdpcore.DEFAULT_TOL) -> dict[str, list]:
    """Several kinds on every channel of a grid, in one solve.

    ``kinds`` holds ``KIND_*`` constants; ``KIND_DP`` gives the
    :class:`DpRange` of :func:`dp_range`, every other kind a
    :class:`CoefficientResult`.  ``KIND_DP`` stands for its five kinds, so
    a range shares each of them with any other kind asked for, and each
    kind is solved once however often it is asked for.  Channels of equal
    dimensions share one declaration per kind, lowered once, and the
    programs of every kind and dimension go to one
    :func:`qdoeblin.sdpcore.solve_many` call, where programs of one
    lockstep key (``rev`` and ``revT``, ``alpha`` and ``alphaT``) run as
    one batch.  The reverse kinds of a dimension group share one stacked
    inverse of the superoperators, and rev and revH one ``link_raw`` call
    (see :class:`_Inverses`).  Returns the results of each kind in input
    order, each equal to the single-channel call: same status, same
    iteration count, bitwise the same value.
    """
    channels = list(channels)
    base = dict.fromkeys(k for kind in kinds for k in (_DP_KINDS if kind == KIND_DP else (kind,)))
    groups: dict[tuple[int, int], list[int]] = {}
    for i, channel in enumerate(channels):
        groups.setdefault((channel.d_in, channel.d_out), []).append(i)
    plan, declarations = [], []
    for members in groups.values():
        group = [channels[i] for i in members]
        # The reverse kinds of a group share its inverses.
        inverses = _Inverses(group)
        for kind in base:
            shared = (inverses,) if kind in _REVERSE_KINDS else ()
            plan.append((kind, members))
            declarations.append(_DECLARATIONS[kind](group, tol, *shared))
    solved = _solve(declarations, tol)
    out: dict[str, list] = {kind: [None] * len(channels) for kind in base}
    for (kind, members), results in zip(plan, solved):
        for i, res in zip(members, results):
            out[kind][i] = res
    if KIND_DP in kinds:
        out[KIND_DP] = [
            _dp(list(rs[:3]), list(rs[3:])) for rs in zip(*(out[k] for k in _DP_KINDS))
        ]
    return {kind: out[kind] for kind in kinds}


def solve_grid(kind: str, channels, tol: float = sdpcore.DEFAULT_TOL) -> list:
    """One kind on every channel of a grid: :func:`solve_grids` of one kind."""
    return solve_grids([kind], channels, tol)[kind]


def capacity_bounds(
    channel: QuantumChannel, tol: float = sdpcore.DEFAULT_TOL
) -> CapacityBounds:
    """Capacity upper bounds implied by the Doeblin coefficient.

    The quantum-capacity bound compares against the qubit erasure channel
    and therefore needs a qubit input space.  ``status`` is the status of
    the alpha solve behind every bound.
    """
    res = alpha(channel, tol)
    a = res.value
    q_bound = max(0.0, 1.0 - 2.0 * a) if channel.d_in == 2 else None
    return CapacityBounds(
        alpha_value=a,
        q_bound=q_bound,
        q2_bound=1.0 - a,
        c_bound=1.0 - a,
        status=res.status,
    )
