"""Independent verification machinery.

Exact trace-distance contraction and expansion coefficients of qubit
channels, and the classical binary-input symmetric-output (BISO)
coefficient suite.

Nothing here uses the semidefinite solver: every value is a closed form or a
direct eigenvalue or singular-value evaluation, so these values can
cross-check the SDP coefficient routines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import ChoiStack, QuantumChannel, choi_stack
# Bound here for bench/selftest.py, which patches and restores ``oracles.gad``.
from .channel import gad  # noqa: F401

# sigma_x, sigma_y, sigma_z.
_PAULIS = np.array(
    [[[0.0, 1.0], [1.0, 0.0]], [[0.0, -1.0j], [1.0j, 0.0]], [[1.0, 0.0], [0.0, -1.0]]]
)


def _require_qubit(grid: ChoiStack) -> None:
    if grid.d_in != 2 or grid.d_out != 2:
        raise ValueError(
            f"needs a qubit channel, got ({grid.d_in}, {grid.d_out})"
        )


def _bloch_singular_values(grid: ChoiStack) -> np.ndarray:
    """Singular values, largest first, of the real 3x3 Bloch matrix of each
    channel of a qubit Choi stack, one row per channel.

    Column k holds the image of the Pauli sigma_k, read off the Choi matrix
    as ``N(X)_ab = 2 sum_ij J[(a, i), (b, j)] X_ij``.  That image is
    traceless Hermitian, [[m, c], [conj(c), -m]], and is stored as (m, Re c,
    Im c), whose norm is half its trace norm.  The map is linear, so u .
    sigma goes to M u: its image has trace norm 2|M u| against the input's
    2|u|.
    """
    _require_qubit(grid)
    j = grid.matrices.reshape(-1, 2, 2, 2, 2)
    images = 2.0 * np.einsum("paibj,kij->pkab", j, _PAULIS)
    m = np.stack(
        [images[:, :, 0, 0].real, images[:, :, 0, 1].real, images[:, :, 0, 1].imag], axis=1
    )
    return np.linalg.svd(m, compute_uv=False)


def eta_tr_qubits(grid: ChoiStack) -> np.ndarray:
    """:func:`eta_tr_qubit` of every channel of a qubit Choi stack."""
    return _bloch_singular_values(grid)[:, 0]


def eta_tr_qubit(channel: QuantumChannel) -> float:
    """Trace-distance contraction coefficient of a qubit channel, exactly.

    Any two states differ by a traceless Hermitian (u . sigma)/2, pure or
    mixed alike, and the channel scales its trace norm by |M u|/|u|.  The
    supremum over states is the largest singular value of the Bloch
    matrix M (Ruskai, Szarek & Werner, "An analysis of completely-positive
    trace-preserving maps on M_2", Linear Algebra Appl. 2002).
    """
    return float(eta_tr_qubits(choi_stack([channel]))[0])


def eta_tr_expansion_qubit(channel: QuantumChannel) -> float:
    """Trace-distance expansion coefficient of a qubit channel, exactly.

    The infimum of the output/input trace-distance ratio over distinct
    states: the smallest singular value of the Bloch matrix M, by the same
    reduction as :func:`eta_tr_qubit`.
    """
    return float(_bloch_singular_values(choi_stack([channel]))[0, -1])


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
