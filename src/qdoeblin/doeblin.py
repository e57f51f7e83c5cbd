"""Doeblin-type coefficients of quantum channels as semidefinite programs.

Every program is declared as linear maps on Hermitian variables (a scalar
is a variable of side 1) and lowered to ``sdpcore`` by one function,
``_solve_program``.  Variables have real coordinates in the orthonormal
basis of :func:`qdoeblin.hermlin.hermitian_basis`; each map is applied once
to the whole ``(k, n, n)`` basis stack of its variable, each PSD block is
lowered by one :func:`qdoeblin.hermlin.real_embed` call and each equality
by one gemm against the basis of its target space.

The forward coefficients bound the trace-distance contraction of a channel
from above (``eta <= 1 - alpha``); the reverse coefficients bound the
expansion from below (``eta_min >= 1 - reverse_alpha``) by degrading the
channel to a depolarizing-family target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hermlin, sdpcore
from .channel import QuantumChannel, link_raw, max_entangled, swap_matrix

KIND_ALPHA = "alpha"
KIND_ALPHA_T = "alpha_T"
KIND_ALPHA_H = "alpha_H"
KIND_ALPHA_TH = "alpha_TH"
KIND_P1 = "p1_ppt"
KIND_REV = "rev_alpha"
KIND_REV_T = "rev_alpha_T"
KIND_REV_H = "rev_alpha_H"

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
    """Certified interval for the trace-distance contraction coefficient."""

    lower: float
    upper: float
    label: str | None = None


@dataclass
class CapacityBounds:
    """Upper bounds on capacities induced by the Doeblin coefficient.

    ``q_bound`` (quantum capacity) uses the qubit erasure comparison and is
    only available for qubit inputs.
    """

    alpha_value: float
    q_bound: float | None
    q2_bound: float
    c_bound: float


def _embed(m: np.ndarray) -> np.ndarray:
    """Real embedding of one Hermitian matrix or of a ``(k, n, n)`` stack."""
    return hermlin.real_embed(m, tol=1e-9)


def _pair_traces(gs, ms) -> np.ndarray:
    """Real ``Tr(G_r M_c)`` for every pair of the two stacks, as one gemm."""
    gs, ms = np.asarray(gs), np.asarray(ms)
    return np.real(
        gs.reshape(len(gs), -1) @ ms.transpose(0, 2, 1).reshape(len(ms), -1).T
    )


def _solve_program(sides, weights, psd, eqs=(), bounds=None, *, tol):
    """Maximise ``sum_v Tr(W_v X_v)`` over Hermitian variables ``X_v``.

    ``sides[v]`` is the side of ``X_v`` (1 for a real scalar) and
    ``weights`` maps ``v`` to ``W_v``.  A constraint is a Hermitian matrix
    with a dict of linear maps ``{v: f_v}``: each ``(C, maps)`` in ``psd``
    reads ``C - sum_v f_v(X_v) >= 0`` and each ``(R, maps)`` in ``eqs``
    reads ``sum_v f_v(X_v) = R``.  ``bounds`` maps ``v`` to ``(lo, hi)``
    for every coordinate of ``X_v``.  A map receives the whole
    ``(k, n, n)`` basis stack of its variable, so each PSD block is lowered
    by one ``real_embed`` and each equality by one gemm against the basis
    of its target space.

    Returns the solution and every ``X_v`` as a Hermitian matrix.
    """
    bases = [np.stack(hermlin.hermitian_basis(side)) for side in sides]
    start = np.cumsum([0] + [len(b) for b in bases])
    n = int(start[-1])

    def lower(maps):
        idx = np.concatenate([np.arange(start[v], start[v + 1]) for v in maps])
        return idx, np.concatenate([f(bases[v]) for v, f in maps.items()])

    blocks = []
    for c, maps in psd:
        idx, images = lower(maps)
        blocks.append(sdpcore.SdpBlock(c=_embed(c), coeffs=list(zip(idx, _embed(images)))))
    eq_matrix, eq_rhs = [], []
    for target, maps in eqs:
        idx, images = lower(maps)
        traces = _pair_traces(hermlin.hermitian_basis(len(target)), [*images, target])
        rows = np.zeros((len(traces), n))
        rows[:, idx] = traces[:, :-1]
        eq_matrix.append(rows)
        eq_rhs.append(traces[:, -1])
    objective = np.zeros(n)
    for v, w in weights.items():
        objective[start[v] : start[v + 1]] = _pair_traces([w], bases[v])[0]
    lower_bound, upper_bound = np.full(n, -np.inf), np.full(n, np.inf)
    for v, (lo, hi) in (bounds or {}).items():
        lower_bound[start[v] : start[v + 1]] = lo
        upper_bound[start[v] : start[v + 1]] = hi
    # Only the lowered blocks are needed from here on; the basis stacks and
    # their images are 1 MB each at d=4.
    del bases, images
    problem = sdpcore.SdpProblem(
        num_vars=n,
        objective=objective,
        blocks=blocks,
        eq_matrix=np.vstack(eq_matrix) if eqs else None,
        eq_rhs=np.concatenate(eq_rhs) if eqs else None,
        lower=lower_bound,
        upper=upper_bound,
    )
    sol = sdpcore.solve(problem, tol=tol)
    xs = [
        hermlin.hermitian_from_coords(sol.y[start[v] : start[v + 1]], side)
        for v, side in enumerate(sides)
    ]
    return sol, xs


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
    kind: str, j_mat: np.ndarray, channel: QuantumChannel, positive: bool, tol: float
) -> CoefficientResult:
    """Maximise Tr(sigma) subject to sigma (x) 1/d_in <= J (and sigma >= 0).

    With ``positive`` the witness is sigma renormalised to a state, without
    it the Hermitian sigma itself.
    """
    d_out = channel.d_out
    eye_in = np.eye(channel.d_in) / channel.d_in
    psd = [(j_mat, {0: lambda b: hermlin.kron(b, eye_in)})]
    if positive:
        psd.append((np.zeros((d_out, d_out)), {0: np.negative}))
    sol, (sigma,) = _solve_program([d_out], {0: np.eye(d_out)}, psd, tol=tol)
    witness = _state_witness(sigma) if positive else sigma
    return _result(kind, sol, sol.objective_value, witness)


def alpha(channel: QuantumChannel, tol: float = sdpcore.DEFAULT_TOL) -> CoefficientResult:
    """Doeblin coefficient: the largest erasure component of the channel."""
    return _alpha_solution(KIND_ALPHA, channel.choi.matrix, channel, True, tol)


def _transposed_choi(channel: QuantumChannel) -> np.ndarray:
    return hermlin.partial_transpose(
        channel.choi.matrix, (channel.d_out, channel.d_in), 0
    )


def alpha_transpose(
    channel: QuantumChannel, tol: float = sdpcore.DEFAULT_TOL
) -> CoefficientResult:
    """Doeblin coefficient of the transposed channel; needs a PPT channel."""
    jt = _transposed_choi(channel)
    if np.linalg.eigvalsh(jt)[0] < -hermlin.PSD_TOL:
        return CoefficientResult(
            kind=KIND_ALPHA_T,
            value=float("nan"),
            status=STATUS_NOT_APPLICABLE,
            not_applicable=True,
        )
    return _alpha_solution(KIND_ALPHA_T, jt, channel, True, tol)


def alpha_hermitian(
    channel: QuantumChannel, tol: float = sdpcore.DEFAULT_TOL
) -> CoefficientResult:
    """Hermitian relaxation: the replaced output may be any Hermitian operator."""
    return _alpha_solution(KIND_ALPHA_H, channel.choi.matrix, channel, False, tol)


def alpha_transpose_hermitian(
    channel: QuantumChannel, tol: float = sdpcore.DEFAULT_TOL
) -> CoefficientResult:
    """Hermitian relaxation applied to the transposed channel.

    Well defined for every channel: the decomposition argument behind the
    bound does not need the transposed map to be completely positive.
    """
    return _alpha_solution(KIND_ALPHA_TH, _transposed_choi(channel), channel, False, tol)


def p1_eb_ppt(
    channel: QuantumChannel, tol: float = sdpcore.DEFAULT_TOL
) -> CoefficientResult:
    """Largest PPT entanglement-breaking-candidate component of the channel.

    Maximises ``Tr(J_hat)`` over subnormalised Choi matrices ``J_hat`` that
    are PSD, PPT, have a uniform input marginal and satisfy
    ``J - J_hat >= 0``.
    """
    d_in, d_out = channel.d_in, channel.d_out
    dim = d_in * d_out
    zero = np.zeros((dim, dim))

    def traceless_marginal(b):
        # Only the direction of the input marginal is fixed, not its trace.
        tr = np.trace(b, axis1=-2, axis2=-1).real[:, None, None]
        return hermlin.partial_trace(b, (d_out, d_in), 1) - tr * np.eye(d_in) / d_in

    sol, (j_hat,) = _solve_program(
        [dim],
        {0: np.eye(dim)},
        psd=[
            (zero, {0: np.negative}),
            (zero, {0: lambda b: -hermlin.partial_transpose(b, (d_out, d_in), 1)}),
            (channel.choi.matrix, {0: lambda b: b}),
        ],
        eqs=[(np.zeros((d_in, d_in)), {0: traceless_marginal})],
        tol=tol,
    )
    return _result(KIND_P1, sol, sol.objective_value, j_hat)


def _reverse(
    channel: QuantumChannel, kind: str, side: int, extra, target, bounds, tol: float
) -> CoefficientResult:
    """Smallest ``Tr(X)`` such that a degrading map D gives the target family.

    D runs from the channel output (dim ``d_b``) back to its input (dim
    ``d_a``); its Choi matrix is ordered output (x) input like every other
    Choi here, so it lives on ``d_a * d_b`` and the composite on
    ``d_a * d_a``.  D is completely positive and trace preserving, and
    ``J(D compose N) + extra(X) = target`` for the extra variable ``X`` of
    the given side.
    """
    if channel.d_in != channel.d_out:
        raise ValueError(
            "reverse coefficients need d_in == d_out, got"
            f" ({channel.d_in}, {channel.d_out})"
        )
    d_a = d_b = channel.d_in
    sol, (d_choi, _) = _solve_program(
        [d_a * d_b, side],
        {1: -np.eye(side)},
        psd=[(np.zeros((d_a * d_b, d_a * d_b)), {0: np.negative})],
        eqs=[
            # Tracing out the output factor of D leaves 1/d_b: D is trace
            # preserving.
            (np.eye(d_b) / d_b, {0: lambda b: hermlin.partial_trace(b, (d_a, d_b), 1)}),
            (target, {
                0: lambda b: link_raw(b, (d_a, d_b), channel.choi.matrix, (d_b, d_a)),
                1: extra,
            }),
        ],
        bounds=bounds,
        tol=tol,
    )
    return _result(kind, sol, -sol.objective_value, d_choi)


def _reverse_fixed_target(
    channel: QuantumChannel, kind: str, anchor: np.ndarray, lo: float, hi: float, tol: float
) -> CoefficientResult:
    """Smallest p in [lo, hi] with D compose N = (1 - p) anchor + p 1/d^2 in Choi form."""
    d = channel.d_in
    eye = np.eye(d * d) / (d * d)
    return _reverse(channel, kind, 1, lambda b: b * (anchor - eye), anchor, {1: (lo, hi)}, tol)


def reverse_alpha(
    channel: QuantumChannel, tol: float = sdpcore.DEFAULT_TOL
) -> CoefficientResult:
    """Smallest p such that the channel degrades to depolarizing at p."""
    return _reverse_fixed_target(channel, KIND_REV, max_entangled(channel.d_in), 0.0, 1.0, tol)


def reverse_alpha_transpose(
    channel: QuantumChannel, tol: float = sdpcore.DEFAULT_TOL
) -> CoefficientResult:
    """Smallest p such that the channel degrades to transpose-depolarizing."""
    d = channel.d_in
    return _reverse_fixed_target(
        channel, KIND_REV_T, swap_matrix(d) / d, d / (d + 1.0), d / (d - 1.0), tol
    )


def reverse_alpha_hermitian(
    channel: QuantumChannel, tol: float = sdpcore.DEFAULT_TOL
) -> CoefficientResult:
    """Degrade onto a generalized-depolarizing target with free Hermitian part.

    Minimises ``Tr(X)`` such that the degraded channel equals
    ``(1 - Tr X) id + replace-by-X`` in Choi form.
    """
    d = channel.d_in
    phi = max_entangled(d)
    eye_in = np.eye(d) / d

    def extra(b):
        tr = np.trace(b, axis1=-2, axis2=-1).real[:, None, None]
        return tr * phi - hermlin.kron(b, eye_in)

    return _reverse(channel, KIND_REV_H, d, extra, phi, None, tol)


def contraction_upper_bound(
    channel: QuantumChannel, tol: float = sdpcore.DEFAULT_TOL
) -> float:
    """Upper bound on trace-distance contraction: 1 - max available forward value."""
    candidates = [alpha_hermitian(channel, tol).value]
    trans = alpha_transpose(channel, tol)
    if not trans.not_applicable:
        candidates.append(trans.value)
    return 1.0 - max(candidates)


def expansion_lower_bound(
    channel: QuantumChannel, tol: float = sdpcore.DEFAULT_TOL
) -> float:
    """Lower bound on trace-distance expansion: 1 - min reverse value."""
    results = [
        reverse_alpha_hermitian(channel, tol),
        reverse_alpha(channel, tol),
        reverse_alpha_transpose(channel, tol),
    ]
    usable = [r.value for r in results if r.status == sdpcore.STATUS_OPTIMAL]
    if not usable:
        usable = [results[0].value]
    return 1.0 - min(usable)


def dp_range(
    channel: QuantumChannel,
    tol: float = sdpcore.DEFAULT_TOL,
    label: str | None = None,
) -> DpRange:
    """Certified two-sided data-processing range for the channel."""
    return DpRange(
        lower=expansion_lower_bound(channel, tol),
        upper=contraction_upper_bound(channel, tol),
        label=label,
    )


def capacity_bounds(
    channel: QuantumChannel, tol: float = sdpcore.DEFAULT_TOL
) -> CapacityBounds:
    """Capacity upper bounds implied by the Doeblin coefficient.

    The quantum-capacity bound compares against the qubit erasure channel
    and therefore needs a qubit input space.
    """
    a = alpha(channel, tol).value
    q_bound = max(0.0, 1.0 - 2.0 * a) if channel.d_in == 2 else None
    return CapacityBounds(
        alpha_value=a,
        q_bound=q_bound,
        q2_bound=1.0 - a,
        c_bound=1.0 - a,
    )
