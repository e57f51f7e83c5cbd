"""Doeblin-type coefficients of quantum channels as semidefinite programs.

All programs are assembled over real coordinates in the orthonormal
Hermitian basis of :func:`qdoeblin.hermlin.hermitian_basis` and lowered to
real symmetric blocks through :func:`qdoeblin.hermlin.real_embed`, one call
per block for its whole stack of basis images.

The forward coefficients bound the trace-distance contraction of a channel
from above (``eta <= 1 - alpha``); the reverse coefficients bound the
expansion from below (``eta_min >= 1 - reverse_alpha``) by degrading the
channel to a depolarizing-family target.
"""

from __future__ import annotations

from contextvars import ContextVar
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


def _alpha_solution(
    j_mat: np.ndarray, d_in: int, d_out: int, positive: bool, tol: float
) -> tuple[sdpcore.SdpSolution, np.ndarray]:
    """Maximise Tr(sigma) subject to sigma (x) 1/d_in <= J (and sigma >= 0)."""
    basis = hermlin.hermitian_basis(d_out)
    n = len(basis)
    objective = np.array([float(np.trace(bb).real) for bb in basis])
    eye_in = np.eye(d_in) / d_in
    upper = sdpcore.SdpBlock(
        c=_embed(j_mat),
        coeffs=list(enumerate(_embed([hermlin.kron(bb, eye_in) for bb in basis]))),
    )
    blocks = [upper]
    if positive:
        blocks.append(
            sdpcore.SdpBlock(
                c=np.zeros((2 * d_out, 2 * d_out)),
                coeffs=list(enumerate(-_embed(basis))),
            )
        )
    problem = sdpcore.SdpProblem(num_vars=n, objective=objective, blocks=blocks)
    sol = sdpcore.solve(problem, tol=tol)
    witness = hermlin.hermitian_from_coords(sol.y, d_out)
    return sol, witness


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


def alpha(channel: QuantumChannel, tol: float = sdpcore.DEFAULT_TOL) -> CoefficientResult:
    """Doeblin coefficient: the largest erasure component of the channel."""
    sol, sigma_hat = _alpha_solution(
        channel.choi.matrix, channel.d_in, channel.d_out, True, tol
    )
    return CoefficientResult(
        kind=KIND_ALPHA,
        value=sol.objective_value,
        status=sol.status,
        witness=_state_witness(sigma_hat),
        solution=sol,
    )


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
    sol, sigma_hat = _alpha_solution(jt, channel.d_in, channel.d_out, True, tol)
    return CoefficientResult(
        kind=KIND_ALPHA_T,
        value=sol.objective_value,
        status=sol.status,
        witness=_state_witness(sigma_hat),
        solution=sol,
    )


def alpha_hermitian(
    channel: QuantumChannel, tol: float = sdpcore.DEFAULT_TOL
) -> CoefficientResult:
    """Hermitian relaxation: the replaced output may be any Hermitian operator."""
    sol, witness = _alpha_solution(
        channel.choi.matrix, channel.d_in, channel.d_out, False, tol
    )
    return CoefficientResult(
        kind=KIND_ALPHA_H,
        value=sol.objective_value,
        status=sol.status,
        witness=witness,
        solution=sol,
    )


def alpha_transpose_hermitian(
    channel: QuantumChannel, tol: float = sdpcore.DEFAULT_TOL
) -> CoefficientResult:
    """Hermitian relaxation applied to the transposed channel.

    Well defined for every channel: the decomposition argument behind the
    bound does not need the transposed map to be completely positive.
    """
    sol, witness = _alpha_solution(
        _transposed_choi(channel), channel.d_in, channel.d_out, False, tol
    )
    return CoefficientResult(
        kind=KIND_ALPHA_TH,
        value=sol.objective_value,
        status=sol.status,
        witness=witness,
        solution=sol,
    )


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
    basis = hermlin.hermitian_basis(dim)
    n = len(basis)
    objective = np.array([float(np.trace(bb).real) for bb in basis])
    zero = np.zeros((2 * dim, 2 * dim))
    embedded = _embed(basis)
    psd = sdpcore.SdpBlock(c=zero, coeffs=list(enumerate(-embedded)))
    ppt = sdpcore.SdpBlock(
        c=zero.copy(),
        coeffs=list(enumerate(
            -_embed([hermlin.partial_transpose(bb, (d_out, d_in), 1) for bb in basis])
        )),
    )
    remainder = sdpcore.SdpBlock(
        c=_embed(channel.choi.matrix), coeffs=list(enumerate(embedded))
    )
    in_basis = hermlin.hermitian_basis(d_in)[1:]
    margs = [hermlin.partial_trace(bb, (d_out, d_in), 1) for bb in basis]
    problem = sdpcore.SdpProblem(
        num_vars=n,
        objective=objective,
        blocks=[psd, ppt, remainder],
        eq_matrix=_pair_traces(in_basis, margs),
        eq_rhs=np.zeros(len(in_basis)),
    )
    sol = sdpcore.solve(problem, tol=tol)
    witness = hermlin.hermitian_from_coords(sol.y, dim)
    return CoefficientResult(
        kind=KIND_P1,
        value=sol.objective_value,
        status=sol.status,
        witness=witness,
        solution=sol,
    )


# Reverse ingredients of the channel that ``expansion_lower_bound`` is
# bounding, as ``(channel, ingredients)``: its three reverse programs share
# one build.  Unset outside that call.
_SHARED_REVERSE: ContextVar = ContextVar("shared_reverse", default=None)


def _reverse_ingredients(channel: QuantumChannel):
    """Shared pieces of the reverse programs.

    The degrading map runs from the channel output (dim ``d_b``) back to the
    channel input (dim ``d_a``); its Choi matrix is ordered output (x) input
    like every other Choi here, so it lives on a ``d_a * d_b`` dimensional
    space and the composite Choi lives on ``d_a * d_a``.
    """
    shared = _SHARED_REVERSE.get()
    if shared is not None and shared[0] is channel:
        return shared[1]
    if channel.d_in != channel.d_out:
        raise ValueError(
            "reverse coefficients need d_in == d_out, got"
            f" ({channel.d_in}, {channel.d_out})"
        )
    d_a, d_b = channel.d_in, channel.d_out
    basis = hermlin.hermitian_basis(d_a * d_b)
    linked = np.stack(
        [link_raw(bb, (d_a, d_b), channel.choi.matrix, (d_b, d_a)) for bb in basis]
    )
    b_basis = hermlin.hermitian_basis(d_b)
    # Uniform-marginal rows: tracing out the output factor of the degrading
    # Choi must leave 1/d_b, i.e. the degrading map is trace preserving.
    margs = [hermlin.partial_trace(bb, (d_a, d_b), 1) for bb in basis]
    marg = _pair_traces(b_basis, margs + [np.eye(d_b) / d_b])
    return d_a, d_b, basis, linked, marg[:, :-1], marg[:, -1]


def _reverse_fixed_target(
    channel: QuantumChannel, target_kind: str, tol: float
) -> CoefficientResult:
    d, d_b, basis, linked, marg_rows, marg_rhs = _reverse_ingredients(channel)
    n_d = len(basis)
    big = hermlin.hermitian_basis(d * d)
    phi = max_entangled(d)
    eye = np.eye(d * d) / (d * d)
    if target_kind == KIND_REV:
        anchor = phi
        lo, hi = 0.0, 1.0
    else:
        anchor = swap_matrix(d) / d
        lo, hi = d / (d + 1.0), d / (d - 1.0)
    # Link rows: J(D compose N) + p (anchor - 1/d^2) = anchor.
    link = _pair_traces(big, np.concatenate([linked, [anchor - eye, anchor]]))
    link_rows, link_rhs = link[:, :-1], link[:, -1]
    eq = np.vstack(
        [np.hstack([marg_rows, np.zeros((marg_rows.shape[0], 1))]), link_rows]
    )
    rhs = np.concatenate([marg_rhs, link_rhs])
    side = 2 * d * d_b
    psd = sdpcore.SdpBlock(
        c=np.zeros((side, side)), coeffs=list(enumerate(-_embed(basis)))
    )
    lower = np.full(n_d + 1, -np.inf)
    upper = np.full(n_d + 1, np.inf)
    lower[n_d], upper[n_d] = lo, hi
    objective = np.zeros(n_d + 1)
    objective[n_d] = -1.0
    problem = sdpcore.SdpProblem(
        num_vars=n_d + 1,
        objective=objective,
        blocks=[psd],
        eq_matrix=eq,
        eq_rhs=rhs,
        lower=lower,
        upper=upper,
    )
    sol = sdpcore.solve(problem, tol=tol)
    witness = hermlin.hermitian_from_coords(sol.y[:n_d], d * d_b)
    return CoefficientResult(
        kind=target_kind,
        value=float(sol.y[n_d]),
        status=sol.status,
        witness=witness,
        solution=sol,
    )


def reverse_alpha(
    channel: QuantumChannel, tol: float = sdpcore.DEFAULT_TOL
) -> CoefficientResult:
    """Smallest p such that the channel degrades to depolarizing at p."""
    return _reverse_fixed_target(channel, KIND_REV, tol)


def reverse_alpha_transpose(
    channel: QuantumChannel, tol: float = sdpcore.DEFAULT_TOL
) -> CoefficientResult:
    """Smallest p such that the channel degrades to transpose-depolarizing."""
    return _reverse_fixed_target(channel, KIND_REV_T, tol)


def reverse_alpha_hermitian(
    channel: QuantumChannel, tol: float = sdpcore.DEFAULT_TOL
) -> CoefficientResult:
    """Degrade onto a generalized-depolarizing target with free Hermitian part.

    Minimises ``Tr(X)`` such that the degraded channel equals
    ``(1 - Tr X) id + replace-by-X`` in Choi form.
    """
    d, d_b, basis, linked, marg_rows, marg_rhs = _reverse_ingredients(channel)
    n_d = len(basis)
    x_basis = hermlin.hermitian_basis(d)
    n_x = len(x_basis)
    big = hermlin.hermitian_basis(d * d)
    phi = max_entangled(d)
    eye_in = np.eye(d) / d
    terms = [float(np.trace(aa).real) * phi - hermlin.kron(aa, eye_in) for aa in x_basis]
    link = _pair_traces(big, np.concatenate([linked, terms, [phi]]))
    link_rows, link_rhs = link[:, :-1], link[:, -1]
    eq = np.vstack(
        [np.hstack([marg_rows, np.zeros((marg_rows.shape[0], n_x))]), link_rows]
    )
    rhs = np.concatenate([marg_rhs, link_rhs])
    side = 2 * d * d_b
    psd = sdpcore.SdpBlock(
        c=np.zeros((side, side)), coeffs=list(enumerate(-_embed(basis)))
    )
    objective = np.zeros(n_d + n_x)
    for j, aa in enumerate(x_basis):
        objective[n_d + j] = -float(np.trace(aa).real)
    problem = sdpcore.SdpProblem(
        num_vars=n_d + n_x, objective=objective, blocks=[psd], eq_matrix=eq, eq_rhs=rhs
    )
    sol = sdpcore.solve(problem, tol=tol)
    witness = hermlin.hermitian_from_coords(sol.y[:n_d], d * d_b)
    return CoefficientResult(
        kind=KIND_REV_H,
        value=-sol.objective_value,
        status=sol.status,
        witness=witness,
        solution=sol,
    )


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
    """Lower bound on trace-distance expansion: 1 - min reverse value.

    The three reverse programs share one build of the reverse ingredients.
    """
    token = _SHARED_REVERSE.set((channel, _reverse_ingredients(channel)))
    try:
        results = [
            reverse_alpha_hermitian(channel, tol),
            reverse_alpha(channel, tol),
            reverse_alpha_transpose(channel, tol),
        ]
    finally:
        _SHARED_REVERSE.reset(token)
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
