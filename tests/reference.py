"""Reference routines the tests compare the library against.

``real_embed`` is the textbook embedding of Hermitian matrices into real
symmetric ones.  No solve goes through it: ``sdpcore`` solves a complex
Hermitian block of multiplicity 2 natively, and the tests check that it has
the iterates of this embedding.  ``is_psd`` is the eigenvalue test the
embedding's tests check positivity with.

``link_program`` declares the link program of a reverse coefficient, the
SDP over every coordinate of the degrading map: one ``doeblin._program``
declaration per channel, whose link map closes over that channel's Choi
matrix, run together by ``doeblin._together``.  The box ``lo <= p <= hi``
of rev and revT is put on the yielded problems themselves, since the
library declares no bounds.  The library answers the reverse kinds from
the inverse of the channel instead; the tests run this program through
``doeblin._solve`` to check those answers, and to reach the solver with
reverse programs of any channel, singular ones included.

The divergence oracles (``hockey_stick``, ``f_divergence_commuting`` on a
validated ``DivergencePair``), the hockey-stick expansion witness of the
depolarizing channel and the dephasing identity of generalized amplitude
damping are closed forms the acceptance and oracle tests check; the library
does not use them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qdoeblin import channel as ch
from qdoeblin import hermlin
from qdoeblin.doeblin import KIND_REV_H, _fixed_target, _program, _result, _square_dim, _together
from qdoeblin.hermlin import HERM_TOL, PSD_TOL, eig_hermitian, require_hermitian


def real_embed(h: np.ndarray, tol: float = HERM_TOL) -> np.ndarray:
    """Embed a Hermitian matrix as a real symmetric one of twice the side.

    ``H = A + iB`` maps to ``[[A, -B], [B, A]]``.  The embedding doubles
    every eigenvalue's multiplicity, so it preserves positive
    semidefiniteness in both directions and linear combinations commute
    with it.  A stack of shape ``(k, n, n)`` is embedded matrix by matrix
    into shape ``(k, 2n, 2n)``, with one Hermiticity check for the stack.
    """
    h = require_hermitian(h, tol, "real_embed input")
    a = h.real
    b = h.imag
    top = np.concatenate([a, -b], axis=-1)
    bot = np.concatenate([b, a], axis=-1)
    return np.concatenate([top, bot], axis=-2)


def is_psd(m: np.ndarray, tol: float = PSD_TOL) -> bool:
    """Whether a Hermitian matrix is positive semidefinite within ``tol``."""
    w, _ = eig_hermitian(m, tol=max(tol, HERM_TOL))
    return bool(w[0] >= -tol)


def pinched(chan: ch.QuantumChannel, keep: int = 1, u: np.ndarray | None = None) -> ch.QuantumChannel:
    """The channel ``rho -> U P(N(rho)) U^dag`` for N = ``chan``.

    P is the pinching onto the span of the first ``keep`` basis vectors and
    onto each later basis vector (``keep=1`` dephases fully), and U is
    ``u`` (the identity by default).  P kills the coherences between its
    blocks, so the map of the composite is singular: the library answers
    its ``rev``, ``revT`` and ``revH`` with 1 without a solve, and only the
    link program of :func:`link_program` solves them.
    """
    d = chan.d_out
    u = np.eye(d) if u is None else u
    blocks = [np.arange(d) < keep] + [np.arange(d) == j for j in range(keep, d)]
    kraus = [u @ np.diag(b.astype(float)) @ k for b in blocks for k in chan.kraus]
    return ch.channel_from_kraus(kraus, chan.d_in, d)


def random_unitary(d: int, seed: int) -> np.ndarray:
    """A seeded unitary: the Q factor of a complex Gaussian matrix."""
    rng = np.random.default_rng(seed)
    return np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]


def link_program(channels: list[ch.QuantumChannel], kind: str):
    """The link program of ``kind`` (rev, revT or revH) for every channel,
    a declaration for ``doeblin._solve``: :func:`_fixed_target_program`
    for rev and revT, :func:`_rev_hermitian_link` for revH, one
    declaration per channel."""
    _square_dim(channels)
    program = _rev_hermitian_link if kind == KIND_REV_H else _fixed_target_program
    solved = yield from _together(program(channel, kind) for channel in channels)
    return [res for [res] in solved]


def _reverse(channel: ch.QuantumChannel, side: int, extra, target):
    """Smallest ``Tr(X)`` such that a degrading map D gives the target family.

    D runs from the channel output (dim ``d_b``) back to its input (dim
    ``d_a``); its Choi matrix is ordered output (x) input like every other
    Choi here, so it lives on ``d_a * d_b`` and the composite on
    ``d_a * d_a``.  D is completely positive and trace preserving, and
    ``J(D compose N) + extra(X) = target`` for the extra variable ``X`` of
    the given side.  The channel enters only the link-product rows, and
    the program needs no inverse of it.  A declaration of one problem.
    """
    d_a = d_b = channel.d_in
    choi = channel.choi.matrix
    return _program(
        [d_a * d_b, side],
        {1: -np.eye(side)},
        psd=[(np.zeros((d_a * d_b, d_a * d_b)), {0: np.negative})],
        eqs=[
            # Tracing out the output factor of D leaves 1/d_b: D is trace
            # preserving.
            (np.eye(d_b) / d_b, {0: lambda b: hermlin.partial_trace(b, (d_a, d_b), 1)}),
            (target, {0: lambda b: ch.link_raw(b, (d_a, d_b), choi, (d_b, d_a)), 1: extra}),
        ],
        count=1,
    )


def _results(kind: str, solved):
    return [_result(kind, sol, -sol.objective_value, d_choi) for sol, (d_choi, _) in solved]


def _fixed_target_program(channel: ch.QuantumChannel, kind: str):
    """The SDP of rev or revT: smallest p in ``[lo, hi]`` with ``D compose
    N = (1 - p) A + p R`` in Choi form.  p is the last coordinate, and the
    box on it is the problem's ``lower`` and ``upper``."""
    d = channel.d_in
    anchor, lo, hi = _fixed_target(kind, d)
    eye = np.eye(d * d) / (d * d)
    declaration = _reverse(channel, 1, lambda b: b * (anchor - eye), anchor)
    [problem] = next(declaration)
    problem.lower = np.full(problem.num_vars, -np.inf)
    problem.upper = np.full(problem.num_vars, np.inf)
    problem.lower[-1], problem.upper[-1] = lo, hi
    try:
        declaration.send((yield [problem]))
    except StopIteration as done:
        return _results(kind, done.value)


def _rev_hermitian_link(channel: ch.QuantumChannel, kind: str):
    """The link program of revH (see :func:`_reverse`): the degraded
    channel is ``(1 - Tr X) id + Tr(.) X`` in Choi form."""
    d = channel.d_in
    phi = ch.max_entangled(d)
    eye_in = np.eye(d) / d

    def extra(b):
        tr = np.trace(b, axis1=-2, axis2=-1).real[:, None, None]
        return tr * phi - hermlin.kron(b, eye_in)

    return _results(kind, (yield from _reverse(channel, d, extra, phi)))


@dataclass
class DivergencePair:
    """A validated pair of density matrices sharing one dimension."""

    rho: np.ndarray
    sigma: np.ndarray

    def __post_init__(self) -> None:
        self.rho = hermlin.require_hermitian(np.asarray(self.rho, dtype=complex))
        self.sigma = hermlin.require_hermitian(np.asarray(self.sigma, dtype=complex))
        if self.rho.shape != self.sigma.shape:
            raise ValueError(
                f"dimension mismatch: {self.rho.shape} vs {self.sigma.shape}"
            )
        for name, mat in (("rho", self.rho), ("sigma", self.sigma)):
            if abs(np.trace(mat).real - 1.0) > 1e-8:
                raise ValueError(f"{name} must have unit trace")
            if np.linalg.eigvalsh(mat)[0] < -hermlin.PSD_TOL:
                raise ValueError(f"{name} must be positive semidefinite")


def hockey_stick(rho: np.ndarray, sigma: np.ndarray, gamma: float) -> float:
    """E_gamma(rho||sigma): the trace of the positive part of rho - gamma sigma."""
    if gamma < 1.0:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    pair = DivergencePair(rho, sigma)
    w = np.linalg.eigvalsh(pair.rho - gamma * pair.sigma)
    return float(np.sum(w[w > 0.0]))


def f_divergence_commuting(rho: np.ndarray, sigma: np.ndarray, kind: str) -> float:
    """Classical f-divergence of two diagonal density matrices.

    ``kind="chi2"`` uses f(x) = x^2 - 1 and ``kind="kl"`` uses
    f(x) = x log2 x.  Mass of rho outside the support of sigma sends the
    value to +inf for both choices; 0/0 contributes nothing.
    """
    if kind not in ("chi2", "kl"):
        raise ValueError(f"kind must be 'chi2' or 'kl', got {kind!r}")
    pair = DivergencePair(rho, sigma)
    for name, mat in (("rho", pair.rho), ("sigma", pair.sigma)):
        off = mat - np.diag(np.diag(mat))
        if np.max(np.abs(off)) > 1e-12:
            raise ValueError(f"{name} must be diagonal in the computational basis")
    p = np.clip(np.diag(pair.rho).real, 0.0, None)
    q = np.clip(np.diag(pair.sigma).real, 0.0, None)
    if np.any((q <= 1e-15) & (p > 1e-15)):
        return float("inf")
    mask = (p > 1e-15) & (q > 1e-15)
    p, q = p[mask], q[mask]
    if kind == "chi2":
        return float(np.sum(p * p / q) - 1.0)
    return float(np.sum(p * np.log2(p / q)))


def expansion_witness_hockey_stick(
    p: float, gamma: float
) -> tuple[float, float, float]:
    """State pair showing the hockey-stick expansion of depolarizing is zero.

    Picks epsilon in the open interval where the input divergence is
    positive but the depolarized outputs have none left, and returns
    (epsilon, E_in, E_out).  The interval's upper end is clipped to 1 so the
    witness stays a valid state.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly inside (0, 1), got {p}")
    if gamma <= 1.0:
        raise ValueError(f"gamma must exceed 1, got {gamma}")
    lo = (gamma - 1.0) / gamma
    hi = min(1.0, lo * (1.0 - p / 2.0) / (1.0 - p))
    if hi <= lo:
        raise RuntimeError("empty witness interval")
    eps = 0.5 * (lo + hi)
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = np.diag([1.0 - eps, eps]).astype(complex)
    dep = ch.depolarizing(p)
    e_in = hockey_stick(rho, sigma, gamma)
    e_out = hockey_stick(dep(rho), dep(sigma), gamma)
    return eps, e_in, e_out


def gad_dephasing_identity(p: float, eta: float) -> float:
    """Max-entry gap between dephased amplitude damping and its closed form.

    Dephasing at b = (1 - sqrt(eta))/2 after A_{p, eta} equals the
    generalized depolarizing channel at rate 1 - eta onto diag(p, 1-p);
    returns the largest absolute Choi-entry deviation.
    """
    b = 0.5 * (1.0 - np.sqrt(eta))
    left = ch.compose(ch.dephasing(b), ch.gad(p, eta)).choi.matrix
    sigma = np.diag([p, 1.0 - p]).astype(complex)
    right = ch.generalized_depolarizing(1.0 - eta, sigma).choi.matrix
    return float(np.max(np.abs(left - right)))
