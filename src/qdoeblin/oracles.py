"""Independent verification machinery.

Exact trace-distance contraction and expansion coefficients of qubit
channels, hockey-stick and classical f-divergence evaluations, the dephasing
degradation identity for generalized amplitude damping, and the classical
binary-input symmetric-output (BISO) coefficient suite.

Nothing here uses the semidefinite solver: every value is a closed form or a
direct eigenvalue or singular-value evaluation, so these values can
cross-check the SDP coefficient routines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import hermlin
from .channel import (
    QuantumChannel,
    compose,
    dephasing,
    depolarizing,
    gad,
    generalized_depolarizing,
)

_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_PAULIS = (_PAULI_X, _PAULI_Y, _PAULI_Z)


def _require_qubit(channel: QuantumChannel) -> None:
    if channel.d_in != 2 or channel.d_out != 2:
        raise ValueError(
            f"needs a qubit channel, got ({channel.d_in}, {channel.d_out})"
        )


def _bloch_singular_values(channel: QuantumChannel) -> np.ndarray:
    """Singular values, largest first, of the channel's real 3x3 Bloch matrix.

    Column k holds the image of the Pauli sigma_k.  That image is traceless
    Hermitian, [[m, c], [conj(c), -m]], and is stored as (m, Re c, Im c),
    whose norm is half its trace norm.  The map is linear, so u . sigma goes
    to M u: its image has trace norm 2|M u| against the input's 2|u|.
    """
    _require_qubit(channel)
    images = [channel(p) for p in _PAULIS]
    m = np.array([[im[0, 0].real, im[0, 1].real, im[0, 1].imag] for im in images]).T
    return np.linalg.svd(m, compute_uv=False)


def eta_tr_qubit(channel: QuantumChannel) -> float:
    """Trace-distance contraction coefficient of a qubit channel, exactly.

    Any two states differ by a traceless Hermitian (u . sigma)/2, pure or
    mixed alike, and the channel scales its trace norm by |M u|/|u|.  The
    supremum over states is the largest singular value of the Bloch
    matrix M (Ruskai, Szarek & Werner, "An analysis of completely-positive
    trace-preserving maps on M_2", Linear Algebra Appl. 2002).
    """
    return float(_bloch_singular_values(channel)[0])


def eta_tr_expansion_qubit(channel: QuantumChannel) -> float:
    """Trace-distance expansion coefficient of a qubit channel, exactly.

    The infimum of the output/input trace-distance ratio over distinct
    states: the smallest singular value of the Bloch matrix M, by the same
    reduction as :func:`eta_tr_qubit`.
    """
    return float(_bloch_singular_values(channel)[-1])


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
    dep = depolarizing(p)
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
    left = compose(dephasing(b), gad(p, eta)).choi.matrix
    sigma = np.diag([p, 1.0 - p]).astype(complex)
    right = generalized_depolarizing(1.0 - eta, sigma).choi.matrix
    return float(np.max(np.abs(left - right)))


@dataclass
class ClassicalChannel:
    """Column-stochastic matrix P[y, x] with a BISO detection flag.

    ``is_biso`` is true when the channel has two inputs and some involution
    of the outputs swaps their roles.
    """

    matrix: np.ndarray
    is_biso: bool = field(init=False)

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] < 1 or mat.shape[1] < 1:
            raise ValueError("matrix must be a 2-d stochastic array")
        if np.min(mat) < -1e-12:
            raise ValueError("entries must be nonnegative")
        sums = mat.sum(axis=0)
        if np.max(np.abs(sums - 1.0)) > 1e-12:
            raise ValueError("columns must sum to 1")
        self.matrix = np.clip(mat, 0.0, None)
        self.is_biso = (
            mat.shape[1] == 2 and _biso_involution(self.matrix) is not None
        )

    @property
    def n_outputs(self) -> int:
        return self.matrix.shape[0]


def _biso_involution(mat: np.ndarray, tol: float = 1e-9) -> np.ndarray | None:
    """Greedy search for an output involution swapping the two inputs."""
    m = mat.shape[0]
    c0, c1 = mat[:, 0], mat[:, 1]
    perm = np.full(m, -1, dtype=int)
    for y in range(m):
        if perm[y] >= 0:
            continue
        if abs(c0[y] - c1[y]) <= tol:
            perm[y] = y
            continue
        for z in range(m):
            if perm[z] >= 0 or z == y:
                continue
            if abs(c0[y] - c1[z]) <= tol and abs(c0[z] - c1[y]) <= tol:
                perm[y] = z
                perm[z] = y
                break
        else:
            return None
    return perm


def bsc(p: float) -> ClassicalChannel:
    """Binary symmetric channel with crossover probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return ClassicalChannel(np.array([[1.0 - p, p], [p, 1.0 - p]]))


def bec(eps: float) -> ClassicalChannel:
    """Binary erasure channel; outputs are (0, 1, erased)."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must lie in [0, 1], got {eps}")
    return ClassicalChannel(
        np.array([[1.0 - eps, 0.0], [0.0, 1.0 - eps], [eps, eps]])
    )


def random_biso(rng: np.random.Generator, n_outputs: int | None = None) -> ClassicalChannel:
    """Random BISO channel built from symmetric output pairs.

    Outputs come in swapped pairs plus an optional fixed point, so the
    constructed matrix is BISO for every draw.
    """
    if n_outputs is None:
        n_outputs = int(rng.integers(2, 7))
    if n_outputs < 2:
        raise ValueError("need at least 2 outputs")
    col0 = rng.dirichlet(np.ones(n_outputs))
    col1 = np.empty_like(col0)
    n_paired = n_outputs - (n_outputs % 2)
    for y in range(0, n_paired, 2):
        col1[y], col1[y + 1] = col0[y + 1], col0[y]
    if n_outputs % 2:
        col1[-1] = col0[-1]
    return ClassicalChannel(np.stack([col0, col1], axis=1))


def classical_doeblin(c: ClassicalChannel) -> float:
    """Sum over outputs of the smallest conditional probability."""
    return float(c.matrix.min(axis=1).sum())


def binary_entropy(p: float) -> float:
    """Binary entropy in bits."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if p in (0.0, 1.0):
        return 0.0
    return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))


def classical_capacity_biso(c: ClassicalChannel) -> float:
    """Capacity in bits; uniform input is optimal for BISO channels."""
    if not c.is_biso:
        raise ValueError("channel is not BISO")
    mat = c.matrix
    mean = mat.mean(axis=1)
    total = 0.0
    for x in range(2):
        col = mat[:, x]
        mask = col > 0.0
        total += 0.5 * float(np.sum(col[mask] * np.log2(col[mask] / mean[mask])))
    return total


def classical_gamma(c: ClassicalChannel) -> float:
    """1 minus the BISO capacity."""
    return 1.0 - classical_capacity_biso(c)


def _least_noisy_bsc(c: ClassicalChannel) -> np.ndarray:
    """Post-processing t onto the least noisy BSC the channel degrades onto.

    A two-output post-processing is fixed by the vector t in [0,1]^m of
    probabilities of outputting 0, and maps c onto BSC_p exactly when
    <t, P(.|0)> = 1-p and <t, P(.|1)> = p.  The least such p minimises
    <t, P(.|1)> subject to <t, P(.|0) + P(.|1)> = 1: a fractional knapsack,
    solved by filling t greedily in ascending order of P(y|1)/(P(y|0) + P(y|1)).
    Outputs that neither input reaches keep t = 0.
    """
    c0, c1 = c.matrix[:, 0], c.matrix[:, 1]
    weight = c0 + c1
    (used,) = np.nonzero(weight > 0.0)
    order = used[np.argsort(c1[used] / weight[used], kind="stable")]
    w = weight[order]
    room = 1.0 - (np.cumsum(w) - w)
    t = np.zeros_like(weight)
    t[order] = np.clip(room / w, 0.0, 1.0)
    return t


def classical_reverse_alpha(c: ClassicalChannel) -> float:
    """Binary entropy of the least noisy BSC the channel degrades onto.

    Closed form: the least crossover is p* = <t, P(.|1)> for the greedy
    post-processing t of :func:`_least_noisy_bsc`, and the value is h(p*).
    Taking t = 1/2 everywhere reaches p = 1/2, so p* <= 1/2; the clip to
    1/2 only removes rounding.  The value is exact and achieved by t.
    """
    if not c.is_biso:
        raise ValueError("channel is not BISO")
    p_star = float(c.matrix[:, 1] @ _least_noisy_bsc(c))
    return binary_entropy(min(p_star, 0.5))
