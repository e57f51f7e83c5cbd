"""Quantum channels, Choi matrices and the standard channel families.

Conventions used throughout the package:

* A channel ``N`` maps ``d_in x d_in`` operators to ``d_out x d_out`` ones.
* Its Choi matrix is normalised, ``J(N) = (N (x) id)(|phi+><phi+|)``, and is
  stored with the *output* tensor factor first: ``J`` acts on
  ``out (x) in``.
* ``vec(A)`` flattens row-major, so ``J = (1/d_in) sum_k vec(A_k) vec(A_k)^dag``
  over Kraus operators ``A_k``.

A grid of channels is a :class:`ChoiStack`: the ``(P, n, n)`` stack of
their Choi matrices with the shared dimensions, checked as one stack.
Each family built from scalar parameters has a stacked constructor,
``{family}_stack``, that takes equal-length parameter arrays, and its
scalar constructor is the stack of one plus the family's Kraus set, so
each family has one Choi code path and each point of a stack is bitwise
the Choi matrix of its scalar call.
"""

from __future__ import annotations

import functools
import json
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import hermlin

# A set of Kraus operators must satisfy sum A^dag A = 1 this tightly.
TP_TOL = 1e-8
# Eigenvalues below this are dropped when extracting Kraus operators.
KRAUS_EIG_CUTOFF = 1e-10
CHOI_TRACE_TOL = 1e-10
CHOI_MARGINAL_TOL = 1e-10


@functools.lru_cache(maxsize=None)
def _uniform(d: int) -> np.ndarray:
    """The read-only maximally mixed state 1/d of side d."""
    out = np.eye(d) / d
    out.flags.writeable = False
    return out


def _valid_chois(m: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    """The Hermitian part of a ``(P, n, n)`` stack of normalised Choi
    matrices, checked as one stack: finite and Hermitian, side ``d_out *
    d_in``, unit trace, uniform input marginal and PSD, with one stacked
    ``eigvalsh``.  The first invalid matrix raises the ValueError it
    raises alone, as a :class:`ChoiMatrix`."""
    try:
        h = hermlin.require_hermitian(m, tol=1e-10, name="Choi matrix")
        if h.shape[-1] != d_in * d_out:
            raise ValueError(
                f"matrix side {h.shape[-1]} does not match d_out*d_in ="
                f" {d_out * d_in}"
            )
        # The messages are those of a stack of one; a longer stack is
        # checked again matrix by matrix below.
        tr = np.trace(h, axis1=-2, axis2=-1).real
        if np.abs(tr - 1.0).max(initial=0.0) > CHOI_TRACE_TOL:
            raise ValueError(f"Choi matrix must have unit trace, got {float(tr[0])!r}")
        marginal = hermlin.partial_trace(h, (d_out, d_in), 1)
        dev = np.abs(marginal - _uniform(d_in)).max(initial=0.0)
        if dev > CHOI_MARGINAL_TOL:
            raise ValueError(f"Choi input marginal deviates from 1/d_in by {dev:.3e}")
        if np.linalg.eigvalsh(h)[:, 0].min(initial=0.0) < -hermlin.PSD_TOL:
            raise ValueError("Choi matrix is not positive semidefinite")
    except ValueError:
        if len(m) > 1:
            for i in range(len(m)):
                _valid_chois(m[i : i + 1], d_in, d_out)
        raise
    return h


@dataclass(frozen=True)
class ChoiMatrix:
    """Normalised Choi matrix of a channel: PSD, unit trace, uniform marginal."""

    matrix: np.ndarray
    d_in: int
    d_out: int

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"Choi matrix must be square, got shape {m.shape}")
        object.__setattr__(self, "matrix", _valid_chois(m[None], self.d_in, self.d_out)[0])

    @classmethod
    def _checked(cls, matrix: np.ndarray, d_in: int, d_out: int) -> ChoiMatrix:
        """A matrix of a :class:`ChoiStack`, which is checked already."""
        choi = object.__new__(cls)
        choi.__dict__.update(matrix=matrix, d_in=d_in, d_out=d_out)
        return choi


class ChoiStack(NamedTuple):
    """The normalised Choi matrices of channels of equal dimensions.

    ``matrices`` is a ``(P, n, n)`` stack, each matrix one a
    :class:`ChoiMatrix` accepts, as the stacked constructors
    ``{family}_stack`` and :func:`choi_stack` build it.  ``kraus`` is the
    ``(P, K, d_out, d_in)`` stack of Kraus sets the matrices were built
    from, zero operators included, or None.
    """

    matrices: np.ndarray
    d_in: int
    d_out: int
    kraus: np.ndarray | None = None


@dataclass(frozen=True)
class QuantumChannel:
    """A completely positive trace-preserving map in Kraus form."""

    kraus: tuple[np.ndarray, ...]
    d_in: int
    d_out: int
    choi: ChoiMatrix

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        return apply(self, rho)


@dataclass(frozen=True)
class ChannelFlags:
    is_cp: bool
    is_tp: bool
    is_ppt: bool


def _kraus_chois(kraus: np.ndarray, d_in: int, d_out: int) -> ChoiStack:
    """The checked Choi stack of a ``(P, K, d_out, d_in)`` stack of Kraus
    sets, each matrix ``(1/d_in) sum_k vec(A_k) vec(A_k)^dag`` with the
    outer products added in Kraus order."""
    v = kraus.reshape(kraus.shape[:2] + (-1,))
    j = np.zeros((len(v), v.shape[-1], v.shape[-1]), dtype=np.complex128)
    for k in range(v.shape[1]):
        j += v[:, k, :, None] * v[:, k, None, :].conj()
    return ChoiStack(_valid_chois(j / d_in, d_in, d_out), d_in, d_out, kraus)


def choi_from_kraus(
    kraus: list[np.ndarray] | tuple[np.ndarray, ...], d_in: int, d_out: int
) -> ChoiMatrix:
    """Normalised Choi matrix of the channel with the given Kraus operators."""
    if not kraus:
        raise ValueError("need at least one Kraus operator")
    ops = [np.asarray(a, dtype=np.complex128) for a in kraus]
    for a in ops:
        if a.shape != (d_out, d_in):
            raise ValueError(
                f"Kraus operator shape {a.shape} does not match ({d_out}, {d_in})"
            )
    ops = np.stack(ops)
    acc = np.sum(ops.conj().transpose(0, 2, 1) @ ops, axis=0)
    dev = np.max(np.abs(acc - np.eye(d_in)))
    # Written so that a NaN deviation fails the check too.
    if not dev <= TP_TOL:
        raise ValueError(
            f"Kraus operators violate trace preservation by {dev:.3e}"
        )
    return _one_choi(_kraus_chois(ops[None], d_in, d_out))


def kraus_from_choi(choi: ChoiMatrix) -> tuple[np.ndarray, ...]:
    """Minimal Kraus set of a channel recovered from its Choi matrix."""
    # A ChoiMatrix holds a finite, exactly Hermitian matrix, checked on
    # entry, so only eig_hermitian's side limit is left to check.
    hermlin.require_eig_side(choi.matrix.shape[0])
    w, v = np.linalg.eigh(choi.matrix)
    keep = w > KRAUS_EIG_CUTOFF
    if not keep.any():
        raise ValueError("Choi matrix has no eigenvalue above the Kraus cutoff")
    ops = np.sqrt(choi.d_in * w[keep])[:, None] * v.T[keep]
    return tuple(ops.reshape(-1, choi.d_out, choi.d_in))


def _one_choi(stack: ChoiStack) -> ChoiMatrix:
    return ChoiMatrix._checked(stack.matrices[0], stack.d_in, stack.d_out)


def choi_stack(channels) -> ChoiStack:
    """The Choi matrices of channels of equal dimensions as one stack."""
    channels = list(channels)
    d_in, d_out = channels[0].d_in, channels[0].d_out
    for c in channels:
        if (c.d_in, c.d_out) != (d_in, d_out):
            raise ValueError(
                f"a stack needs equal dimensions, got ({d_in}, {d_out}) and"
                f" ({c.d_in}, {c.d_out})"
            )
    return ChoiStack(np.stack([c.choi.matrix for c in channels]), d_in, d_out)


def channel_from_kraus(
    kraus: list[np.ndarray] | tuple[np.ndarray, ...],
    d_in: int | None = None,
    d_out: int | None = None,
) -> QuantumChannel:
    """Build a channel from Kraus operators, validating trace preservation."""
    if not kraus:
        raise ValueError("need at least one Kraus operator")
    first = np.asarray(kraus[0])
    d_out = first.shape[0] if d_out is None else d_out
    d_in = first.shape[1] if d_in is None else d_in
    ops = tuple(np.asarray(a, dtype=np.complex128) for a in kraus)
    choi = choi_from_kraus(ops, d_in, d_out)
    return QuantumChannel(kraus=ops, d_in=d_in, d_out=d_out, choi=choi)


def channel_from_choi(choi: ChoiMatrix) -> QuantumChannel:
    return QuantumChannel(
        kraus=kraus_from_choi(choi), d_in=choi.d_in, d_out=choi.d_out, choi=choi
    )


def apply(channel: QuantumChannel, rho: np.ndarray) -> np.ndarray:
    """Apply a channel to an operator (not restricted to states)."""
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (channel.d_in, channel.d_in):
        raise ValueError(
            f"operator shape {rho.shape} does not match d_in = {channel.d_in}"
        )
    out = np.zeros((channel.d_out, channel.d_out), dtype=np.complex128)
    for a in channel.kraus:
        out += a @ rho @ a.conj().T
    return out


def validate(obj: QuantumChannel | ChoiMatrix) -> ChannelFlags:
    """Complete positivity, trace preservation and PPT flags of a channel or Choi matrix."""
    if isinstance(obj, QuantumChannel):
        obj = obj.choi
    m = obj.matrix
    d_in, d_out = obj.d_in, obj.d_out
    is_cp = bool(np.linalg.eigvalsh(m)[0] >= -hermlin.PSD_TOL)
    marginal = hermlin.partial_trace(m, (d_out, d_in), 1)
    is_tp = bool(np.max(np.abs(marginal - np.eye(d_in) / d_in)) <= CHOI_MARGINAL_TOL)
    pt = hermlin.partial_transpose(m, (d_out, d_in), 1)
    is_ppt = bool(np.linalg.eigvalsh(pt)[0] >= -hermlin.PSD_TOL)
    return ChannelFlags(is_cp=is_cp, is_tp=is_tp, is_ppt=is_ppt)


def compose(after: QuantumChannel, before: QuantumChannel) -> QuantumChannel:
    """Composite channel acting as ``after`` applied to ``before``'s output."""
    if after.d_in != before.d_out:
        raise ValueError(
            f"cannot compose: inner dimensions differ ({after.d_in} vs {before.d_out})"
        )
    kraus = tuple(a @ b for a in after.kraus for b in before.kraus)
    return channel_from_kraus(kraus, d_in=before.d_in, d_out=after.d_out)


def tensor(first: QuantumChannel, second: QuantumChannel) -> QuantumChannel:
    """Tensor product channel, first factor on the left."""
    d_in = first.d_in * second.d_in
    d_out = first.d_out * second.d_out
    if d_in * d_out > hermlin.MAX_DIM:
        raise ValueError(
            f"tensor product Choi side {d_in * d_out} exceeds {hermlin.MAX_DIM}"
        )
    kraus = tuple(np.kron(a, b) for a in first.kraus for b in second.kraus)
    return channel_from_kraus(kraus, d_in=d_in, d_out=d_out)


def link_raw(
    later: np.ndarray, dims_later: tuple[int, int], earlier: np.ndarray, dims_earlier: tuple[int, int]
) -> np.ndarray:
    """Link product of two (normalised) Choi-like matrices as raw arrays.

    ``later`` lives on C (x) B, ``earlier`` on B (x) A; the result lives on
    C (x) A and equals the Choi matrix of the composite map whenever the
    inputs are Choi matrices of maps B->C and A->B.  With normalised Choi
    matrices the contraction needs an explicit ``d_B`` factor.  A
    ``(k, n, n)`` stack ``later`` is linked matrix by matrix in one
    contraction; a ``(p, n', n')`` stack ``earlier`` gives a ``(p, ...)``
    stack of results, one gemm per matrix of it in one call, each bitwise
    the result of linking that matrix alone.
    """
    d_c, d_b = dims_later
    d_b2, d_a = dims_earlier
    if d_b != d_b2:
        raise ValueError(f"link dimensions do not match ({d_b} vs {d_b2})")
    later = np.asarray(later, dtype=np.complex128)
    earlier = np.asarray(earlier, dtype=np.complex128)
    lead, stack = later.shape[:-2], earlier.shape[:-2]
    # Rows (..., c, d) of ``later`` against columns (x, y) of ``earlier``:
    # (..., c, x, d, y) with (x, a, y, b) over x, y gives (..., c, d, a, b).
    rows = later.reshape(lead + (d_c, d_b, d_c, d_b)).swapaxes(-3, -2).reshape(-1, d_b * d_b)
    cols = earlier.reshape(stack + (d_b, d_a, d_b, d_a)).swapaxes(-3, -2)
    out = d_b * np.matmul(rows, cols.reshape(stack + (d_b * d_b, d_a * d_a)))
    out = np.moveaxis(out.reshape(stack + lead + (d_c, d_c, d_a, d_a)), -2, -3)
    out = out.reshape(stack + lead + (d_c * d_a, d_c * d_a))
    return 0.5 * (out + np.swapaxes(out.conj(), -1, -2))


def link_product(later: ChoiMatrix, earlier: ChoiMatrix) -> ChoiMatrix:
    """Choi matrix of the composite channel from the two Choi matrices."""
    if later.d_in != earlier.d_out:
        raise ValueError(
            f"cannot link: inner dimensions differ ({later.d_in} vs {earlier.d_out})"
        )
    mat = link_raw(
        later.matrix,
        (later.d_out, later.d_in),
        earlier.matrix,
        (earlier.d_out, earlier.d_in),
    )
    return ChoiMatrix(matrix=mat, d_in=earlier.d_in, d_out=later.d_out)


def max_entangled(d: int) -> np.ndarray:
    """Projector onto the canonical maximally entangled state on d (x) d."""
    v = np.eye(d, dtype=np.complex128).reshape(-1) / np.sqrt(d)
    return np.outer(v, v.conj())


def swap_matrix(d: int) -> np.ndarray:
    s = np.zeros((d * d, d * d), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            s[i * d + j, j * d + i] = 1.0
    return s


@functools.lru_cache(maxsize=None)
def _constants(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only :func:`max_entangled`, :func:`swap_matrix` and identity of
    side ``d * d``, for the stacked constructors."""
    out = (max_entangled(d), swap_matrix(d), np.eye(d * d))
    for a in out:
        a.flags.writeable = False
    return out


def _check_interval(name: str, value: float, lo: float, hi: float) -> float:
    value = float(value)
    if not lo - 1e-12 <= value <= hi + 1e-12:
        raise ValueError(
            f"{name} must lie in [{lo:g}, {hi:g}], got {value:g}"
        )
    return min(max(value, lo), hi)


def _check_state(sigma: np.ndarray, name: str = "sigma") -> np.ndarray:
    sigma = hermlin.require_hermitian(np.asarray(sigma), tol=1e-10, name=name)
    if abs(np.trace(sigma).real - 1.0) > 1e-8:
        raise ValueError(f"{name} must have unit trace")
    if np.linalg.eigvalsh(sigma)[0] < -1e-10:
        raise ValueError(f"{name} must be positive semidefinite")
    return sigma


def _points(*values) -> list[np.ndarray]:
    """The parameters of a stack as float arrays of one length: an array
    gives one value per point, a scalar the same value at every point."""
    arrays = [np.atleast_1d(np.asarray(v, dtype=float)) for v in values]
    if any(a.shape != arrays[0].shape for a in arrays):
        arrays = np.broadcast_arrays(*arrays)
    if arrays[0].ndim != 1:
        raise ValueError(f"stack parameters must be 1-D, got shape {arrays[0].shape}")
    return arrays


def _dimension(d) -> int:
    """The one dimension of a stack: an integer, or an array of one
    repeated integer."""
    if isinstance(d, int):
        return d
    values = np.unique(np.asarray(d))
    if values.size != 1:
        raise ValueError(f"a stack has one dimension, got d in {values.tolist()}")
    return operator.index(values[0].item())


def _intervals(*checks) -> list[np.ndarray]:
    """Each ``(name, values, lo, hi)`` clamped to ``[lo, hi]`` as
    :func:`_check_interval` clamps one value.  The first point outside an
    interval raises the error of its scalar call, whose checks run in the
    order given."""
    ok = [(lo - 1e-12 <= v) & (v <= hi + 1e-12) for _, v, lo, hi in checks]
    if not all(o.all() for o in ok):
        i = int(np.argmin(np.logical_and.reduce(ok)))
        for name, v, lo, hi in checks:
            _check_interval(name, v[i], lo, hi)
    return [np.minimum(np.maximum(v, lo), hi) for _, v, lo, hi in checks]


def _channel(stack: ChoiStack) -> QuantumChannel:
    """The channel of a stack of one: its Kraus set without the zero
    operators, or the set read off its Choi matrix."""
    if len(stack.matrices) != 1:
        raise ValueError(f"a channel is one point, got {len(stack.matrices)}")
    choi = _one_choi(stack)
    if stack.kraus is None:
        kraus = kraus_from_choi(choi)
    else:
        kraus = tuple(a for a in stack.kraus[0] if a.any())
    return QuantumChannel(kraus=kraus, d_in=stack.d_in, d_out=stack.d_out, choi=choi)


def identity_stack(d) -> ChoiStack:
    """:func:`identity_channel` at each point of ``d``."""
    d_val = _dimension(d)
    if d_val < 1:
        raise ValueError("d must be at least 1")
    kraus = np.broadcast_to(np.eye(d_val, dtype=np.complex128), (np.size(d), 1, d_val, d_val))
    return _kraus_chois(kraus.copy(), d_val, d_val)


def identity_channel(d: int) -> QuantumChannel:
    """The identity channel on a d-dimensional system."""
    return _channel(identity_stack(d))


def depolarizing_stack(p, d=2) -> ChoiStack:
    """:func:`depolarizing` at each point of the arrays ``p`` and ``d``."""
    p, _ = _points(p, d)
    d = _dimension(d)
    if d < 2:
        raise ValueError("d must be at least 2")
    [p] = _intervals(("p", p, 0.0, d * d / (d * d - 1.0)))
    hermlin.require_eig_side(d * d)
    phi, _, eye = _constants(d)
    p = p[:, None, None]
    j = (1.0 - p) * phi + p * eye / (d * d)
    return ChoiStack(_valid_chois(j, d, d), d, d)


def depolarizing(p: float, d: int = 2) -> QuantumChannel:
    """``rho -> (1-p) rho + p 1/d``, extended to the full CP range of p.

    The map stays completely positive for ``p in [0, d^2/(d^2-1)]``; beyond
    ``p = 1`` it is no longer a convex mixture but remains a channel.
    """
    return _channel(depolarizing_stack(p, d))


def transpose_depolarizing_stack(q, d=2) -> ChoiStack:
    """:func:`transpose_depolarizing` at each point of ``q`` and ``d``."""
    q, _ = _points(q, d)
    d = _dimension(d)
    if d < 2:
        raise ValueError("d must be at least 2")
    [q] = _intervals(("q", q, d / (d + 1.0), d / (d - 1.0)))
    hermlin.require_eig_side(d * d)
    _, swap, eye = _constants(d)
    q = q[:, None, None]
    j = (1.0 - q) * swap / d + q * eye / (d * d)
    return ChoiStack(_valid_chois(j, d, d), d, d)


def transpose_depolarizing(q: float, d: int = 2) -> QuantumChannel:
    """``rho -> (1-q) rho^T + q 1/d`` for q in the CP window [d/(d+1), d/(d-1)]."""
    return _channel(transpose_depolarizing_stack(q, d))


def werner_holevo_stack(d) -> ChoiStack:
    """:func:`werner_holevo` at each point of ``d``."""
    d_val = _dimension(d)
    if d_val < 2:
        raise ValueError("d must be at least 2")
    return transpose_depolarizing_stack(np.full(np.size(d), d_val / (d_val - 1.0)), d)


def werner_holevo(d: int) -> QuantumChannel:
    """The extreme transpose-depolarizing channel at q = d/(d-1)."""
    return _channel(werner_holevo_stack(d))


def gad_stack(p, eta) -> ChoiStack:
    """:func:`gad` at each point of the arrays ``p`` and ``eta``."""
    p, eta = _points(p, eta)
    p, eta = _intervals(("p", p, 0.0, 1.0), ("eta", eta, 0.0, 1.0))
    sp, sq = np.sqrt(p), np.sqrt(1.0 - p)
    se, sl = np.sqrt(eta), np.sqrt(1.0 - eta)
    kraus = np.zeros((len(p), 4, 2, 2), dtype=np.complex128)
    kraus[:, 0, 0, 0] = sp
    kraus[:, 0, 1, 1] = sp * se
    kraus[:, 1, 0, 1] = sp * sl
    kraus[:, 2, 0, 0] = sq * se
    kraus[:, 2, 1, 1] = sq
    kraus[:, 3, 1, 0] = sq * sl
    return _kraus_chois(kraus, 2, 2)


def gad(p: float, eta: float) -> QuantumChannel:
    """Generalized amplitude damping on a qubit.

    ``eta`` is the probability that the input survives, ``p`` balances decay
    towards |0> against excitation towards |1>.
    """
    return _channel(gad_stack(p, eta))


def erasure_stack(eps, d=2) -> ChoiStack:
    """:func:`erasure` at each point of the arrays ``eps`` and ``d``."""
    eps, _ = _points(eps, d)
    d = _dimension(d)
    if d < 1:
        # Every point is invalid, and the first raises what its scalar
        # call raises, which checks eps first.
        _intervals(("eps", eps[:1], 0.0, 1.0))
        raise ValueError("d must be at least 1")
    [eps] = _intervals(("eps", eps, 0.0, 1.0))
    kraus = np.zeros((len(eps), d + 1, d + 1, d), dtype=np.complex128)
    kraus[:, 0, :d] = np.sqrt(1.0 - eps)[:, None, None] * np.eye(d)
    for i in range(d):
        kraus[:, 1 + i, d, i] = np.sqrt(eps)
    return _kraus_chois(kraus, d, d + 1)


def erasure(eps: float, d: int = 2) -> QuantumChannel:
    """Erasure channel: keeps the input with probability 1-eps, else flags.

    The output space has dimension d+1 with the erasure flag on the last
    basis vector.
    """
    return _channel(erasure_stack(eps, d))


_PAULIS = (
    np.eye(2, dtype=np.complex128),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    np.array([[0.0, -1j], [1j, 0.0]], dtype=np.complex128),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128),
)


def pauli_channel(weights) -> QuantumChannel:
    """Mixture of the four Pauli conjugations with the given probabilities."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (4,):
        raise ValueError("pauli_channel needs exactly four weights")
    if np.any(w < -1e-12) or abs(np.sum(w) - 1.0) > 1e-8:
        raise ValueError("weights must be nonnegative and sum to 1")
    w = np.maximum(w, 0.0)
    kraus = [np.sqrt(wi) * s for wi, s in zip(w, _PAULIS) if wi > 0.0]
    return channel_from_kraus(kraus, d_in=2, d_out=2)


def _pauli_mixture(w: np.ndarray, pauli: np.ndarray) -> ChoiStack:
    """``rho -> (1-w) rho + w P rho P`` at each point of ``w``, with the
    Kraus operators ``sqrt(1-w) 1`` and ``sqrt(w) P`` of
    :func:`pauli_channel`."""
    kraus = np.stack(
        [np.sqrt(1.0 - w)[:, None, None] * _PAULIS[0], np.sqrt(w)[:, None, None] * pauli],
        axis=1,
    )
    return _kraus_chois(kraus, 2, 2)


def bitflip_stack(p) -> ChoiStack:
    """:func:`bitflip` at each point of the array ``p``."""
    [p] = _intervals(("p", *_points(p), 0.0, 1.0))
    return _pauli_mixture(p, _PAULIS[1])


def bitflip(p: float) -> QuantumChannel:
    """``rho -> (1-p) rho + p X rho X``."""
    return _channel(bitflip_stack(p))


def dephasing_stack(b) -> ChoiStack:
    """:func:`dephasing` at each point of the array ``b``."""
    [b] = _intervals(("b", *_points(b), 0.0, 1.0))
    return _pauli_mixture(b, _PAULIS[3])


def dephasing(b: float) -> QuantumChannel:
    """``rho -> (1-b) rho + b Z rho Z``."""
    return _channel(dephasing_stack(b))


def generalized_depolarizing(p: float, sigma: np.ndarray) -> QuantumChannel:
    """``rho -> (1-p) rho + p sigma`` for a fixed state sigma."""
    p = _check_interval("p", p, 0.0, 1.0)
    sigma = _check_state(sigma)
    d = sigma.shape[0]
    j = (1.0 - p) * max_entangled(d) + p * np.kron(sigma, np.eye(d) / d)
    return channel_from_choi(ChoiMatrix(matrix=j, d_in=d, d_out=d))


def replacer(sigma: np.ndarray, d_in: int | None = None) -> QuantumChannel:
    """``rho -> sigma Tr(rho)``."""
    sigma = _check_state(sigma)
    d_out = sigma.shape[0]
    d_in = d_out if d_in is None else d_in
    w, v = hermlin.eig_hermitian(sigma)
    kraus = []
    for lam, vec in zip(w, v.T):
        if lam > KRAUS_EIG_CUTOFF:
            for i in range(d_in):
                op = np.zeros((d_out, d_in), dtype=np.complex128)
                op[:, i] = np.sqrt(lam) * vec
                kraus.append(op)
    return channel_from_kraus(kraus, d_in=d_in, d_out=d_out)


def classical_embed(p_matrix: np.ndarray) -> QuantumChannel:
    """Measure-and-prepare channel of a column-stochastic matrix P(y|x)."""
    p = np.asarray(p_matrix, dtype=float)
    if p.ndim != 2:
        raise ValueError("transition matrix must be two-dimensional")
    if np.any(p < -1e-12):
        raise ValueError("transition probabilities must be nonnegative")
    if np.max(np.abs(p.sum(axis=0) - 1.0)) > 1e-8:
        raise ValueError("columns of the transition matrix must sum to 1")
    m, k = p.shape
    kraus = []
    for x in range(k):
        for y in range(m):
            if p[y, x] > 0.0:
                op = np.zeros((m, k), dtype=np.complex128)
                op[y, x] = np.sqrt(p[y, x])
                kraus.append(op)
    return channel_from_kraus(kraus, d_in=k, d_out=m)


def random_channel(
    d_in: int, d_out: int, env_dim: int | None = None, seed: int = 0
) -> QuantumChannel:
    """A Haar-ish random channel from a QR-orthonormalised Gaussian isometry.

    Deterministic for a fixed seed: the QR phases are normalised so the
    triangular factor has a positive diagonal.
    """
    env_dim = d_in * d_out if env_dim is None else env_dim
    if d_in < 1 or d_out < 1 or env_dim < 1:
        raise ValueError("dimensions must be positive")
    if d_out * env_dim < d_in:
        raise ValueError("environment too small for an isometry")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d_out * env_dim, d_in)) + 1j * rng.standard_normal(
        (d_out * env_dim, d_in)
    )
    q, r = np.linalg.qr(g)
    diag = np.diag(r)
    phases = np.where(np.abs(diag) > 0, diag / np.abs(diag), 1.0)
    v = q * phases.conj()
    kraus = tuple(v.reshape(env_dim, d_out, d_in)[e] for e in range(env_dim))
    return channel_from_kraus(kraus, d_in=d_in, d_out=d_out)


FAMILIES = {
    "identity": identity_channel,
    "depolarizing": depolarizing,
    "transpose_depolarizing": transpose_depolarizing,
    "werner_holevo": werner_holevo,
    "gad": gad,
    "erasure": erasure,
    "pauli": pauli_channel,
    "bitflip": bitflip,
    "dephasing": dephasing,
    "generalized_depolarizing": generalized_depolarizing,
    "replacer": replacer,
    "classical_embed": classical_embed,
    "random": random_channel,
}


def channel_from_dict(data: dict) -> QuantumChannel:
    """Build a channel from a JSON-style description.

    Either explicit Kraus data ``{"d_in", "d_out", "kraus"}`` where each
    Kraus operator is a row-major list of ``[re, im]`` pairs, or a named
    family ``{"name", "params"}``.
    """
    if "kraus" in data:
        try:
            d_in = int(data["d_in"])
            d_out = int(data["d_out"])
        except KeyError as exc:
            raise ValueError(f"channel file missing field {exc}") from exc
        kraus = []
        for flat in data["kraus"]:
            entries = np.array(
                [complex(re, im) for re, im in flat], dtype=np.complex128
            )
            if entries.size != d_in * d_out:
                raise ValueError(
                    f"Kraus entry count {entries.size} does not match"
                    f" d_out*d_in = {d_out * d_in}"
                )
            kraus.append(entries.reshape(d_out, d_in))
        return channel_from_kraus(kraus, d_in=d_in, d_out=d_out)
    if "name" in data:
        name = data["name"]
        if name not in FAMILIES:
            raise ValueError(
                f"unknown channel family {name!r}; known: {sorted(FAMILIES)}"
            )
        params = dict(data.get("params", {}))
        for key in ("sigma", "sigma_diag"):
            if key in params:
                val = params.pop(key)
                params["sigma"] = np.diag(val) if key == "sigma_diag" else np.array(val)
        if "matrix" in params:
            params["p_matrix"] = np.array(params.pop("matrix"))
        return FAMILIES[name](**params)
    raise ValueError("channel description needs either 'kraus' or 'name'")


def channel_from_file(path: str) -> QuantumChannel:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return channel_from_dict(data)
