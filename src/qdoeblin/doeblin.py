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

Each declaration takes a :class:`~qdoeblin.channel.ChoiStack`, the Choi
matrices of channels of equal dimensions.  The parts that do not depend
on the channel (PSD-map images, the equality rows and the objective) are
lowered once for the stack, once per realness, and kept
for the next call when they are small.  The parts that do are stacks: the
PSD constants, a per-channel PSD map (the ``J(N^-1)`` terms of revH's
program) as one call over the stacked data, and the variables of every
solution as one batched product with their basis.  A declaration
``declare(stack, tol)`` does not solve: it yields its problems and
turns the solutions it receives into results (``tol`` is the solve
tolerance, which the reverse kinds below also read).
:func:`solve_grids`, the grid entry, hands the problems of every kind and
dimension it is asked for to one :func:`qdoeblin.sdpcore.solve_many` call,
which sets each group of them up in one pass and solves it as one lockstep
batch, so kinds that share a lowering (``alpha`` and ``alphaT``) run as
one batch.  :func:`solve_grid` is its one-kind case; the public kind
functions declare on the stack of one channel and reach
:func:`qdoeblin.sdpcore.solve`.

The reverse kinds have one route each, from one stacked inverse of the
channels' superoperators (:class:`_Inverses`).  ``rev`` and ``revT`` of a
channel N that is invertible as a map on matrices need no program: the
only degrading map is ``D = T_p compose N^-1``, so the coefficient is the
smallest p at which ``J(D)`` is PSD, read off one eigendecomposition (see
:func:`_closed_form`, with its error bound).  ``revH`` of an invertible
channel is a program on ``(theta, X)`` alone: D is ``T_X compose N^-1``,
so ``J(D)`` is affine in X with ``J(N^-1)`` from the same inverse and link,
the PSD block of each channel has its own coefficients, lowered as one
stack, and the witness is checked after the solve (see
:func:`_rev_hermitian_grid`).  A singular channel has the value 1 for all
three kinds, attained by the replacer, with an error bound from its
smallest singular value (see :meth:`_Inverses.singular`).  A result found
without a solve has 0 iterations, and any result whose error bound
exceeds ``tol`` keeps its value and reads ``numerical_failure``.

The forward coefficients bound the trace-distance contraction of a channel
from above (``eta <= 1 - alpha``); the reverse coefficients bound the
expansion from below (``eta_min >= 1 - reverse_alpha``) by degrading the
channel to a depolarizing-family target.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import hermlin, sdpcore
from .channel import ChoiStack, QuantumChannel, choi_stack, link_raw, max_entangled, swap_matrix

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
    """A PSD map of :func:`_program` that differs per problem.

    ``images`` maps the ``(k, n, n)`` basis stack of its variable to the
    ``(count, k, m, m)`` stack of the images of every problem's map.
    """

    images: Callable[[np.ndarray], np.ndarray]


def _real_declaration(sides, weights, psd, eqs) -> bool:
    """Whether the shared part of a declaration is invariant under complex
    conjugation: real weights and shared constants, and shared maps that
    commute with conjugation."""
    constants = [*weights.values(), *(c for c, _ in eqs), *(c for c, _ in psd if np.ndim(c) == 2)]
    return not any(np.imag(c).any() for c in constants) and all(
        _keeps_conjugation(f(hermlin.hermitian_basis(sides[v])), sides[v])
        for _, maps in [*psd, *eqs]
        for v, f in maps.items()
        if callable(f)
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
    where each problem has its own), and ``eq_matrix`` and ``eq_rhs`` the
    rows of every equality, which every problem shares (``None`` without
    equalities).
    """

    def __init__(self, sides, weights, psd, eqs, real):
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
        self.eq_matrix = self.eq_rhs = None
        if eqs:
            rows = [self.rows(target, maps) for target, maps in eqs]
            self.eq_matrix = _frozen(np.concatenate([e for e, _ in rows]))
            self.eq_rhs = _frozen(np.concatenate([f for _, f in rows]))
        self.objective = np.zeros(n)
        for v, w in weights.items():
            self.objective[self.start[v] : self.start[v + 1]] = _pair_traces([w], bases[v])[0]
        # Later calls share the objective.
        _frozen(self.objective)

    def block(self, m: np.ndarray) -> np.ndarray:
        """A Hermitian matrix or stack as data of a PSD block: its real part
        in a real program, the Hermitian matrix itself in any other."""
        h = hermlin.require_hermitian(m, tol=1e-9)
        return np.ascontiguousarray(h.real) if self.real else h

    def columns(self, maps) -> np.ndarray:
        return np.concatenate([np.arange(self.start[v], self.start[v + 1]) for v in maps])

    def rows(self, target, maps):
        """Equality rows and right-hand side of ``sum_v f_v(X_v) = target``,
        from one gemm against the basis of the target space."""
        stack = np.concatenate([f(self.bases[v]) for v, f in maps.items()] + [target[None]])
        traces = _pair_traces(_basis(len(target), self.real), stack)
        rows = np.zeros((len(traces), self.n))
        rows[:, self.columns(maps)] = traces[:, :-1]
        return rows, traces[:, -1]


# Lowered declarations by key and realness, so that a single-channel call
# lowers only its channel's data, and whether the shared part of a
# declaration is real, by key.  Lowerings above ``LOWERED_BYTES`` are not
# kept: that of complex p1 from d=4 on (3.1 MB at d=4) and of real p1
# from d=5 on (0.84 MB at d=4 and 4.9 MB at d=5).  revH's program holds no
# shared map images and is kept at every d.
_LOWERED: dict = {}
_REAL_DECLARATIONS: dict = {}
LOWERED_BYTES = 1 << 20


def _program(sides, weights, psd, eqs=(), *, count, key=None):
    """Declare ``count`` programs that differ only in their data: maximise
    ``sum_v Tr(W_v X_v)`` over Hermitian variables ``X_v``.

    ``sides[v]`` is the side of ``X_v`` (1 for a real scalar) and
    ``weights`` maps ``v`` to ``W_v``.  A constraint is a Hermitian matrix
    with a dict of linear maps ``{v: f_v}``: each ``(C, maps)`` in ``psd``
    reads ``C - sum_v f_v(X_v) >= 0`` and each ``(R, maps)`` in ``eqs``
    reads ``sum_v f_v(X_v) = R``.  A map receives the whole ``(k, n, n)``
    basis stack of its variable, so each PSD block is lowered in one call
    and each equality by one gemm against the basis of its target space.

    The problems share the variables, the weights and the equalities (one
    matrix ``R`` and callable maps each), which are lowered once.  A PSD
    constant ``C`` is one matrix or a stack of ``count`` matrices, one per
    problem, and a PSD map is one callable, lowered once, or a
    :class:`_PerProblem`, whose one call gives the images of every
    problem's map; a block with one gets a coefficient list per problem,
    all slices of one stack.  ``key`` names the declaration: every call
    with one key must declare the same shared parts, whose lowering is then
    kept for the next call.

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
        real_decl = _real_declaration(sides, weights, psd, eqs)
        if key is not None:
            _REAL_DECLARATIONS[key] = real_decl
    real = np.full(count, real_decl)
    for c, _ in psd:
        if np.ndim(c) == 3:
            real &= ~np.imag(c).any(axis=(1, 2))
    # Per-problem maps go to the whole Hermitian basis first, in one call
    # each: their images decide realness too, and a real problem keeps the
    # images of the real basis elements.
    own = [{} for _ in psd]
    for images, (_, maps) in zip(own, psd):
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
            low = _Lowered(sides, weights, psd, eqs, flag)
            if key is not None and low.nbytes <= LOWERED_BYTES:
                _LOWERED[key, flag] = low
        lowered.append((low, members))
    sols = iter((yield [
        p for low, members in lowered for p in _lowered_problems(low, psd, own, members)
    ]))
    out = [None] * count
    for low, members in lowered:
        mine = list(itertools.islice(sols, len(members)))
        for p, res in zip(members, _with_variables(low, mine)):
            out[p] = res
    return out


def _lowered_problems(low: _Lowered, psd, own, members) -> list[sdpcore.SdpProblem]:
    """The problems ``members`` of :func:`_program` on their lowering, with
    ``own`` the stacked images of the per-problem maps on the Hermitian
    basis, per PSD block.  Every problem shares the equality rows."""
    consts = [
        c if c is not None else low.block(c_in if np.ndim(c_in) == 2 else c_in[members])
        for c, (c_in, _) in zip(low.consts, psd)
    ]
    # Each problem's coefficient list of every block: the shared one, or
    # its own, a slice of one lowered stack.
    coeffs = []
    for (_, maps), cf, shared, mine in zip(psd, low.coeffs, low.psd_images, own):
        if cf is not None:
            coeffs.append([cf] * len(members))
            continue
        ims = [shared[v] if v in shared else mine[v][members][:, low.keep[v]] for v in maps]
        stack = np.concatenate(
            [np.broadcast_to(im, (len(members),) + im.shape[-3:]) for im in ims], axis=1
        )
        side = stack.shape[-1]
        stack = low.block(stack.reshape(-1, side, side)).reshape(stack.shape)
        coeffs.append([list(zip(low.columns(maps), each)) for each in stack])
    return [
        sdpcore.SdpProblem(
            num_vars=low.n,
            objective=low.objective,
            blocks=[
                sdpcore.SdpBlock(c=c if c.ndim == 2 else c[i], coeffs=cf[i], w=2)
                for c, cf in zip(consts, coeffs)
            ],
            eq_matrix=low.eq_matrix,
            eq_rhs=low.eq_rhs,
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
    :func:`qdoeblin.sdpcore.solve_many` call, where problems that share
    their lowering run as one batch whatever declaration they come from.
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


def _alpha_solution(kind: str, j_mats: np.ndarray, d_in: int, d_out: int, positive: bool):
    """Maximise Tr(sigma) subject to sigma (x) 1/d_in <= J (and sigma >= 0).

    One program per matrix J of the stack ``j_mats``, of channels from
    ``d_in`` to ``d_out``.  With ``positive`` the witness is sigma
    renormalised to a state, without it the Hermitian sigma itself.
    """
    eye_in = np.eye(d_in) / d_in
    psd = [(j_mats, {0: lambda b: hermlin.kron(b, eye_in)})]
    if positive:
        psd.append((np.zeros((d_out, d_out)), {0: np.negative}))
    solved = yield from _program(
        [d_out], {0: np.eye(d_out)}, psd,
        count=len(j_mats), key=("alpha", d_in, d_out, positive),
    )
    return [
        _result(kind, sol, sol.objective_value, _state_witness(sigma) if positive else sigma)
        for sol, (sigma,) in solved
    ]


def _transposed_chois(grid: ChoiStack) -> np.ndarray:
    """The Choi matrices of a stack with the output factor transposed."""
    return hermlin.partial_transpose(grid.matrices, (grid.d_out, grid.d_in), 0)


def _alpha_grid(grid: ChoiStack, tol):
    return _alpha_solution(KIND_ALPHA, grid.matrices, grid.d_in, grid.d_out, True)


def _on_subset(declaration, picked):
    """Run ``declaration``, whose points are those flagged in ``picked``,
    and return its results at their places in ``picked``, None elsewhere.
    A declaration yields once, also with nothing to solve."""
    solved = (yield from declaration) if any(picked) else (yield [])
    solved = iter(solved)
    return [next(solved) if ok else None for ok in picked]


def _alpha_transpose_grid(grid: ChoiStack, tol):
    """alphaT where the transposed Choi matrix is PSD, not applicable elsewhere."""
    jts = _transposed_chois(grid)
    ppt = ~(np.linalg.eigvalsh(jts)[:, 0] < -hermlin.PSD_TOL)
    solved = yield from _on_subset(
        _alpha_solution(KIND_ALPHA_T, jts[ppt], grid.d_in, grid.d_out, True), ppt
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


def _alpha_hermitian_grid(grid: ChoiStack, tol):
    return _alpha_solution(KIND_ALPHA_H, grid.matrices, grid.d_in, grid.d_out, False)


def _alpha_transpose_hermitian_grid(grid: ChoiStack, tol):
    return _alpha_solution(
        KIND_ALPHA_TH, _transposed_chois(grid), grid.d_in, grid.d_out, False
    )


def _p1_grid(grid: ChoiStack, tol):
    """Largest PPT entanglement-breaking-candidate component of each channel."""
    d_in, d_out = grid.d_in, grid.d_out
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
            (grid.matrices, {0: lambda b: b}),
        ],
        eqs=[(np.zeros((d_in, d_in)), {0: traceless_marginal})],
        count=len(grid.matrices),
        key=(KIND_P1, d_in, d_out),
    )
    return [_result(KIND_P1, sol, sol.objective_value, j_hat) for sol, (j_hat,) in solved]


def _square_dim(grid: ChoiStack) -> int:
    """The dimension of a stack with d_in == d_out; ValueError else."""
    if grid.d_in != grid.d_out:
        raise ValueError(
            f"reverse coefficients need d_in == d_out, got ({grid.d_in}, {grid.d_out})"
        )
    return grid.d_in


def _fixed_target(kind: str, d: int) -> tuple[np.ndarray, float, float]:
    """The anchor ``J(A)`` of rev or revT at dimension d and the range
    ``[lo, hi]`` of p over which ``(1 - p) A + p R`` is a channel family."""
    if kind == KIND_REV:
        return max_entangled(d), 0.0, 1.0
    return swap_matrix(d) / d, d / (d + 1.0), d / (d - 1.0)


def _reshuffle(m: np.ndarray, d: int) -> np.ndarray:
    """Swap the middle factors of a ``(p, d*d, d*d)`` stack: entry
    ``[(a, i), (b, j)]`` goes to ``[(a, b), (i, j)]``.  This takes a Choi
    matrix (output (x) input) times d to the matrix of its map on
    row-major vectorised operators, and back."""
    p = len(m)
    return m.reshape(p, d, d, d, d).transpose(0, 1, 3, 2, 4).reshape(p, d * d, d * d)


def _exact(kind: str, value: float, bound: float, tol: float, witness) -> CoefficientResult:
    """A reverse result found without a solve, whose value is off by at
    most ``bound``: ``optimal`` when that is at most ``tol`` and
    ``numerical_failure`` otherwise, with the same value either way.  Its
    :class:`~qdoeblin.sdpcore.SdpSolution` has the same status, 0
    iterations, no ``y`` or ``x_blocks``, gap 0 and ``bound`` as both
    residuals."""
    status = sdpcore.STATUS_OPTIMAL if bound <= tol else sdpcore.STATUS_NUMERICAL
    sol = sdpcore.SdpSolution(
        status=status, y=np.zeros(0), objective_value=-value, gap=0.0,
        primal_residual=bound, dual_residual=bound, iterations=0,
    )
    return _result(kind, sol, value, witness)


class _Inverses:
    """The superoperator inverses of a stack of channels with ``d_in ==
    d_out``, shared by the reverse kinds of one grid.

    The stacked inverse and its residual are computed on first use.
    ``linked`` links them to the anchor of rev (which revH shares) or of
    revT once per anchor, so a grid that asks for rev, revT and revH
    inverts each channel once and calls ``link_raw`` twice; ``singular``
    answers the channels that fail the rule of ``linked``, for all three
    kinds.
    """

    def __init__(self, grid: ChoiStack):
        self.grid = grid
        self._inverse = None
        self._linked: dict[str, tuple] = {}
        self._singular = None

    def inverse(self):
        """``(sup, inv, norm_inv, r)`` of :func:`_inverse`."""
        if self._inverse is None:
            self._inverse = _inverse(self.grid)
        return self._inverse

    def linked(self, kind: str):
        """``(idx, m, e)``: ``M = J(A compose N^-1)`` for the anchor ``J(A)``
        of ``kind`` (rev or revT) and every channel N of the stack whose
        inverse passes the residual rule, with a bound on the error of each
        M.

        ``idx`` holds the positions of the channels that pass, ``m`` the
        stack of their M and ``e``, per M, a bound on the spectral norm of
        its error, which bounds the error of each of its eigenvalues too.
        With no channel passing there is no link.  A channel that fails
        the rule is singular or near it, and :meth:`singular` answers it.

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
            _, inv, norm_inv, r = self.inverse()
            d = self.grid.d_in
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

    def singular(self, kind: str, tol: float) -> dict[int, CoefficientResult]:
        """The results of ``kind`` (rev, revT or revH) for the channels that
        fail the rule of :meth:`linked`, by position: the value 1 with the
        witness ``J(D) = 1/d^2`` of the replacer, read off the error bound
        ``beta`` below (see :func:`_exact`).

        The value 1 is attained by every channel: the replacer degrades N
        onto the target at ``p = 1`` (rev, revT) or at ``X = 1/d`` (revH).
        It is also near the optimum when N is near singular.  Let ``s`` be
        the smallest singular value of N as a map on d x d matrices with
        the Frobenius norm, that of its superoperator S.  N commutes with
        the adjoint, ``N(Y)^dag = N(Y^dag)``, so ``s`` has a Hermitian
        singular vector Y, ``||Y||_F = 1``.  N is trace preserving, so
        ``|Tr Y| = |Tr N(Y)| <= sqrt(d) s``, and ``||N(Y)||_1 <= sqrt(d)
        s``.  Let D be a channel with ``D compose N = T`` for a target T of
        value ``v < 1``.  D does not expand the trace norm of a Hermitian
        operator, so ``||T(Y)||_1 <= sqrt(d) s``.  For rev and revT, ``T(Y)
        = (1 - p) A(Y) + p Tr(Y) 1/d`` with A the identity or the transpose,
        so ``||T(Y)||_1 >= (1 - p) ||Y||_1 - |Tr Y| >= (1 - p) - sqrt(d)
        s`` (``||Y||_1 >= ||Y||_F``).  For revH, ``T(Y) = (1 - t) Y + Tr(Y)
        X``, and T is positive, so X is PSD: a pure state orthogonal to an
        eigenvector of X (d >= 2) goes to ``(1 - t) rho + X``, whose
        expectation in that eigenvector is its eigenvalue.  So ``||X||_1 =
        t < 1`` and the same bound holds.  Either way ``1 - v <= 2 sqrt(d)
        s``: the traceless kernel of an exactly singular N forces ``v =
        1``, and near it the optimum is within ``2 sqrt(d) s`` of 1.

        The singular values come from one ``svd`` of the failing slices.
        They are exact for a perturbation of S of spectral norm about ``n
        eps ||S||_2``, with ``n = d^2``, so ``beta = 2 sqrt(d) (s + n eps
        ||S||_2)`` with the computed ``s`` and ``||S||_2``.
        """
        d = self.grid.d_in
        n = d * d
        if self._singular is None:
            sup, _, _, r = self.inverse()
            idx = np.flatnonzero(~(r < 1.0))
            sv = np.linalg.svd(sup[idx], compute_uv=False)
            eps = np.finfo(float).eps
            self._singular = idx, 2.0 * np.sqrt(d) * (sv[:, -1] + n * eps * sv[:, 0])
        idx, beta = self._singular
        return {i: _exact(kind, 1.0, float(b), tol, np.eye(n) / n) for i, b in zip(idx, beta)}


def _inverse(grid: ChoiStack):
    """The stacked superoperators S of a stack, their inverses X, the
    norms ``||X||_F`` and the residual bounds ``r`` of
    :meth:`_Inverses.linked`.  The stack is one call of LAPACK's inverse;
    a slice it fails on, an exactly singular map, comes back NaN and fails
    the rule."""
    d = grid.d_in
    n = d * d
    eps = np.finfo(float).eps
    sup = d * _reshuffle(grid.matrices, d)
    with np.errstate(all="ignore"):
        inv = sdpcore._INV(sup)
        norm_inv = np.linalg.norm(inv, axis=(1, 2))
        r = np.linalg.norm(np.eye(n) - sup @ inv, axis=(1, 2))
        r += (n + 1) * eps * np.linalg.norm(sup, axis=(1, 2)) * norm_inv
    return sup, inv, norm_inv, r


def _closed_form(grid: ChoiStack, kind: str, tol: float, inverses: _Inverses) -> list[CoefficientResult]:
    """rev or revT without a solve: a result per channel.

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
    bound ``e`` on the error of the smallest eigenvalue.  With ``c = 1/d^2``
    and ``p = 1 - c / (c - mu)``, the value is then off by at most ``err =
    c e / ((c - mu)(c - mu - e)) + 4 eps`` (the last term for the
    division) when ``c - mu > e``, and clipping at ``lo`` does not add to
    it; where ``c - mu <= e`` the bound is infinite.  A channel that fails
    the rule is singular or near it and gets the value 1 of
    :meth:`_Inverses.singular`, with its own bound.  Every result reads
    ``optimal`` when its bound is at most ``tol`` and
    ``numerical_failure`` otherwise, with the same value (see
    :func:`_exact`): ``4 eps`` alone exceeds a ``tol`` of 1e-16, so at
    that tolerance every rev and revT is a ``numerical_failure``.
    """
    d = grid.d_in
    n = d * d
    c = 1.0 / n
    eps = np.finfo(float).eps
    lo = _fixed_target(kind, d)[1]
    out = [None] * len(grid.matrices)
    idx, m, e = inverses.linked(kind)
    low = np.linalg.eigvalsh(m)[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.where(c - low > e, c * e / ((c - low) * (c - low - e)) + 4 * eps, np.inf)
        value = np.maximum(lo, low / (low - c))
    eye = np.eye(n) / n
    for i, p, bound, mi in zip(idx, value, err, m):
        out[i] = _exact(kind, float(p), float(bound), tol, (1.0 - p) * mi + p * eye)
    for i, res in inverses.singular(kind, tol).items():
        out[i] = res
    return out


def _reverse_fixed_target(grid: ChoiStack, kind: str, tol: float, inverses: _Inverses | None):
    """rev or revT of every channel by :func:`_closed_form`: a declaration
    that yields no problem."""
    _square_dim(grid)
    out = _closed_form(grid, kind, tol, inverses or _Inverses(grid))
    yield []
    return out


def _rev_grid(grid: ChoiStack, tol, inverses=None):
    return _reverse_fixed_target(grid, KIND_REV, tol, inverses)


def _rev_transpose_grid(grid: ChoiStack, tol, inverses=None):
    return _reverse_fixed_target(grid, KIND_REV_T, tol, inverses)


def _rev_hermitian_inverse(m: np.ndarray, sup: np.ndarray, d: int, tol: float):
    """revH of invertible channels from ``M = J(N^-1)``, one per channel,
    with ``sup`` the stack of their superoperators S.

    D must be ``T_X compose N^-1`` for the target ``T_X = (1 - Tr X) id +
    Tr(.) X``, so ``J(D) = (theta - Tr X) M + X (x) 1/d`` with ``theta =
    1``: minimise ``Tr X`` over the d^2 + 1 real variables of ``(theta,
    X)`` with ``J(D) >= 0``.  Both maps depend on the channel through M.
    The witness is ``J(D)``, checked as :func:`_rev_hermitian_grid` states.
    """
    n = d * d
    eye_in = np.eye(d) / d

    def degrading(b):
        tr = np.trace(b, axis1=-2, axis2=-1).real
        return tr[None, :, None, None] * m[:, None] - hermlin.kron(b, eye_in)[None]

    solved = yield from _program(
        [1, d],
        {1: -np.eye(d)},
        psd=[(
            np.zeros((n, n)),
            {0: _PerProblem(lambda b: -b[None] * m[:, None]), 1: _PerProblem(degrading)},
        )],
        eqs=[(np.ones((1, 1)), {0: lambda b: b})],
        count=len(m),
        key=(KIND_REV_H, d, "inverse"),
    )
    thetas = np.array([theta[0, 0].real for _, (theta, _) in solved])
    xs = np.stack([x for _, (_, x) in solved])
    traces = np.trace(xs, axis1=1, axis2=2).real
    witnesses = (thetas - traces)[:, None, None] * m + hermlin.kron(xs, eye_in)
    # The superoperator of D compose N less that of T_X, whose matrix on
    # row-major vectorised operators is (1 - Tr X) I + vec(X) vec(1)^T.
    target = (1.0 - traces)[:, None, None] * np.eye(n) + xs.reshape(-1, n, 1) * np.eye(d).ravel()
    residual = np.linalg.norm(d * _reshuffle(witnesses, d) @ sup - target, axis=(1, 2))
    deficit = np.maximum(0.0, -np.linalg.eigvalsh(witnesses)[:, 0])
    out = []
    for (sol, _), w, bound in zip(solved, witnesses, n * deficit + residual):
        res = _result(KIND_REV_H, sol, -sol.objective_value, w)
        if res.status == sdpcore.STATUS_OPTIMAL and not bound <= tol:
            res.status = sdpcore.STATUS_NUMERICAL
        out.append(res)
    return out


def _rev_hermitian_grid(grid: ChoiStack, tol, inverses=None):
    """Degrade onto a generalized-depolarizing target with free Hermitian part.

    A channel that passes the rule of :meth:`_Inverses.linked` takes the
    program of :func:`_rev_hermitian_inverse` on ``M = J(N^-1)`` (linked
    to the identity anchor of rev, and so shared with rev); the others are
    singular or near it and get the value 1 of :meth:`_Inverses.singular`.

    The witness of the program is checked after the solve.  With ``a`` the
    deficit ``max(0, -lambda_min(J(D)))`` and ``rho`` the Frobenius norm
    of the superoperator of ``D compose N`` less that of ``T_X``, the bound
    is ``d^2 a + rho``: mixing a fraction ``s = d^2 a`` of the replacer
    (``J = 1/d^2``, which attains the value 1) into D makes ``J(D)`` PSD
    and moves the value by ``s (1 - t)``, at most ``s``, and the map so
    found degrades N onto the target within ``rho``.  So the value is attained up to the
    bound, the side on which 1 - revH bounds the expansion coefficient.
    The bound reads the computed witness, not the computed inverse, so it
    has no factor of the condition number of N: the a-priori error bound of
    M grows as its square, and the check is what lets every invertible
    channel take the program.  A result of an ``optimal`` solve whose
    bound exceeds ``tol`` keeps its value and reads ``numerical_failure``;
    the others keep the status of their solve.
    """
    d = _square_dim(grid)
    inverses = inverses or _Inverses(grid)
    idx, m, _ = inverses.linked(KIND_REV)
    picked = np.zeros(len(grid.matrices), dtype=bool)
    picked[idx] = True
    sup = inverses.inverse()[0][idx]
    out = yield from _on_subset(_rev_hermitian_inverse(m, sup, d, tol), picked)
    for i, res in inverses.singular(KIND_REV_H, tol).items():
        out[i] = res
    return out


def _single(declare, channel: QuantumChannel, tol: float) -> CoefficientResult:
    """One kind on one channel: a declaration on its stack of one."""
    [[res]] = _solve([declare(choi_stack([channel]), tol)], tol)
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


def _groups(grid) -> tuple[list[tuple[ChoiStack, list[int]]], int]:
    """The points of a grid as one Choi stack per pair of dimensions, in
    order of first appearance, each with the positions of its points, and
    the number of points.  ``grid`` is a :class:`~qdoeblin.channel.ChoiStack`
    or a list of channels and stacks, whose points are taken in order."""
    items = [grid] if isinstance(grid, ChoiStack) else grid
    parts: dict[tuple[int, int], tuple[list, list]] = {}
    count = 0
    for item in items:
        mats = item.matrices if isinstance(item, ChoiStack) else item.choi.matrix[None]
        stacked, positions = parts.setdefault((item.d_in, item.d_out), ([], []))
        stacked.append(mats)
        positions.extend(range(count, count + len(mats)))
        count += len(mats)
    groups = [
        (ChoiStack(mats[0] if len(mats) == 1 else np.concatenate(mats), *dims), positions)
        for dims, (mats, positions) in parts.items()
    ]
    return groups, count


def solve_grids(kinds, grid, tol: float = sdpcore.DEFAULT_TOL) -> dict[str, list]:
    """Several kinds on every point of a grid, in one solve.

    ``grid`` is a :class:`~qdoeblin.channel.ChoiStack`, or a list of
    channels and stacks whose points are taken in order; the points of
    equal dimensions are stacked once on entry.  ``kinds`` holds
    ``KIND_*`` constants; ``KIND_DP`` gives the :class:`DpRange` of
    :func:`dp_range`, every other kind a :class:`CoefficientResult`.
    ``KIND_DP`` stands for its five kinds, so a range shares each of them
    with any other kind asked for, and each kind is solved once however
    often it is asked for.  The points of one stack share one declaration
    per kind, lowered once, and the programs of every kind and dimension go
    to one :func:`qdoeblin.sdpcore.solve_many` call, where programs of one
    lowering (``alpha`` and ``alphaT``) run as one batch.  The reverse
    kinds of a stack share one stacked inverse of the superoperators, and
    rev and revH one ``link_raw`` call (see :class:`_Inverses`).  Returns
    the results of each kind in point order, each equal to the
    single-channel call: same status, same iteration count, bitwise the
    same value.
    """
    groups, count = _groups(grid)
    base = dict.fromkeys(k for kind in kinds for k in (_DP_KINDS if kind == KIND_DP else (kind,)))
    plan, declarations = [], []
    for stack, members in groups:
        # The reverse kinds of a stack share its inverses.
        inverses = _Inverses(stack)
        for kind in base:
            shared = (inverses,) if kind in _REVERSE_KINDS else ()
            plan.append((kind, members))
            declarations.append(_DECLARATIONS[kind](stack, tol, *shared))
    solved = _solve(declarations, tol)
    out: dict[str, list] = {kind: [None] * count for kind in base}
    for (kind, members), results in zip(plan, solved):
        for i, res in zip(members, results):
            out[kind][i] = res
    if KIND_DP in kinds:
        out[KIND_DP] = [
            _dp(list(rs[:3]), list(rs[3:])) for rs in zip(*(out[k] for k in _DP_KINDS))
        ]
    return {kind: out[kind] for kind in kinds}


def solve_grid(kind: str, grid, tol: float = sdpcore.DEFAULT_TOL) -> list:
    """One kind on every point of a grid: :func:`solve_grids` of one kind."""
    return solve_grids([kind], grid, tol)[kind]


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
