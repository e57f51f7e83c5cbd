"""Quantum channels, Choi matrices and the standard channel families.

Conventions used throughout the package:

* A channel ``N`` maps ``d_in x d_in`` operators to ``d_out x d_out`` ones.
* Its Choi matrix is normalised, ``J(N) = (N (x) id)(|phi+><phi+|)``, and is
  stored with the *output* tensor factor first: ``J`` acts on
  ``out (x) in``.
* ``vec(A)`` flattens row-major, so ``J = (1/d_in) sum_k vec(A_k) vec(A_k)^dag``
  over Kraus operators ``A_k``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import hermlin

# A set of Kraus operators must satisfy sum A^dag A = 1 this tightly.
TP_TOL = 1e-8
# Eigenvalues below this are dropped when extracting Kraus operators.
KRAUS_EIG_CUTOFF = 1e-10
CHOI_TRACE_TOL = 1e-10
CHOI_MARGINAL_TOL = 1e-10


@dataclass(frozen=True)
class HermitianChoiLike:
    """A Hermitian operator on out (x) in carrying channel dimensions.

    Used for Choi matrices of Hermiticity-preserving (not necessarily
    completely positive or trace preserving) maps.
    """

    matrix: np.ndarray
    d_in: int
    d_out: int

    def __post_init__(self):
        m = hermlin.require_hermitian(
            self.matrix, tol=1e-10, name="choi-like matrix"
        )
        if m.shape[0] != self.d_in * self.d_out:
            raise ValueError(
                f"matrix side {m.shape[0]} does not match d_out*d_in ="
                f" {self.d_out * self.d_in}"
            )
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class ChoiMatrix:
    """Normalised Choi matrix of a channel: PSD, unit trace, uniform marginal."""

    matrix: np.ndarray
    d_in: int
    d_out: int

    def __post_init__(self):
        m = hermlin.require_hermitian(self.matrix, tol=1e-10, name="Choi matrix")
        if m.shape[0] != self.d_in * self.d_out:
            raise ValueError(
                f"matrix side {m.shape[0]} does not match d_out*d_in ="
                f" {self.d_out * self.d_in}"
            )
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > CHOI_TRACE_TOL:
            raise ValueError(f"Choi matrix must have unit trace, got {tr!r}")
        marginal = hermlin.partial_trace(m, (self.d_out, self.d_in), 1)
        dev = np.max(np.abs(marginal - np.eye(self.d_in) / self.d_in))
        if dev > CHOI_MARGINAL_TOL:
            raise ValueError(
                f"Choi input marginal deviates from 1/d_in by {dev:.3e}"
            )
        if np.linalg.eigvalsh(m)[0] < -hermlin.PSD_TOL:
            raise ValueError("Choi matrix is not positive semidefinite")
        object.__setattr__(self, "matrix", m)


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


def _vec(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=np.complex128).reshape(-1)


def choi_from_kraus(
    kraus: list[np.ndarray] | tuple[np.ndarray, ...], d_in: int, d_out: int
) -> ChoiMatrix:
    """Normalised Choi matrix of the channel with the given Kraus operators."""
    if not kraus:
        raise ValueError("need at least one Kraus operator")
    acc = np.zeros((d_in, d_in), dtype=np.complex128)
    j = np.zeros((d_out * d_in, d_out * d_in), dtype=np.complex128)
    for a in kraus:
        a = np.asarray(a, dtype=np.complex128)
        if a.shape != (d_out, d_in):
            raise ValueError(
                f"Kraus operator shape {a.shape} does not match ({d_out}, {d_in})"
            )
        acc += a.conj().T @ a
        v = _vec(a)
        j += np.outer(v, v.conj())
    dev = np.max(np.abs(acc - np.eye(d_in)))
    # Written so that a NaN deviation fails the check too.
    if not dev <= TP_TOL:
        raise ValueError(
            f"Kraus operators violate trace preservation by {dev:.3e}"
        )
    return ChoiMatrix(matrix=j / d_in, d_in=d_in, d_out=d_out)


def kraus_from_choi(choi: ChoiMatrix) -> tuple[np.ndarray, ...]:
    """Minimal Kraus set of a channel recovered from its Choi matrix."""
    w, v = hermlin.eig_hermitian(choi.matrix, tol=1e-9)
    ops = []
    for lam, vec in zip(w, v.T):
        if lam > KRAUS_EIG_CUTOFF:
            ops.append(np.sqrt(choi.d_in * lam) * vec.reshape(choi.d_out, choi.d_in))
    if not ops:
        raise ValueError("Choi matrix has no eigenvalue above the Kraus cutoff")
    return tuple(ops)


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


def validate(obj: QuantumChannel | ChoiMatrix | HermitianChoiLike) -> ChannelFlags:
    """Complete positivity, trace preservation and PPT flags of a Choi-like."""
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
    contraction.
    """
    d_c, d_b = dims_later
    d_b2, d_a = dims_earlier
    if d_b != d_b2:
        raise ValueError(f"link dimensions do not match ({d_b} vs {d_b2})")
    later = np.asarray(later, dtype=np.complex128)
    lead = later.shape[:-2]
    l4 = later.reshape(lead + (d_c, d_b, d_c, d_b))
    e4 = np.asarray(earlier, dtype=np.complex128).reshape(d_b, d_a, d_b, d_a)
    # (..., c, x, d, y) with (x, a, y, b) over x, y gives (..., c, d, a, b).
    out = d_b * np.tensordot(l4, e4, axes=([-3, -1], [0, 2]))
    out = np.moveaxis(out, -2, -3).reshape(lead + (d_c * d_a, d_c * d_a))
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


def identity_channel(d: int) -> QuantumChannel:
    """The identity channel on a d-dimensional system."""
    if d < 1:
        raise ValueError("d must be at least 1")
    return channel_from_kraus([np.eye(d, dtype=np.complex128)])


def depolarizing(p: float, d: int = 2) -> QuantumChannel:
    """``rho -> (1-p) rho + p 1/d``, extended to the full CP range of p.

    The map stays completely positive for ``p in [0, d^2/(d^2-1)]``; beyond
    ``p = 1`` it is no longer a convex mixture but remains a channel.
    """
    hi = d * d / (d * d - 1.0)
    p = _check_interval("p", p, 0.0, hi)
    j = (1.0 - p) * max_entangled(d) + p * np.eye(d * d) / (d * d)
    return channel_from_choi(ChoiMatrix(matrix=j, d_in=d, d_out=d))


def transpose_depolarizing(q: float, d: int = 2) -> QuantumChannel:
    """``rho -> (1-q) rho^T + q 1/d`` for q in the CP window [d/(d+1), d/(d-1)]."""
    if d < 2:
        raise ValueError("d must be at least 2")
    q = _check_interval("q", q, d / (d + 1.0), d / (d - 1.0))
    j = (1.0 - q) * swap_matrix(d) / d + q * np.eye(d * d) / (d * d)
    return channel_from_choi(ChoiMatrix(matrix=j, d_in=d, d_out=d))


def werner_holevo(d: int) -> QuantumChannel:
    """The extreme transpose-depolarizing channel at q = d/(d-1)."""
    return transpose_depolarizing(d / (d - 1.0), d)


def gad(p: float, eta: float) -> QuantumChannel:
    """Generalized amplitude damping on a qubit.

    ``eta`` is the probability that the input survives, ``p`` balances decay
    towards |0> against excitation towards |1>.
    """
    p = _check_interval("p", p, 0.0, 1.0)
    eta = _check_interval("eta", eta, 0.0, 1.0)
    sp, sq = np.sqrt(p), np.sqrt(1.0 - p)
    se, sl = np.sqrt(eta), np.sqrt(1.0 - eta)
    kraus = [
        sp * np.array([[1.0, 0.0], [0.0, se]]),
        sp * np.array([[0.0, sl], [0.0, 0.0]]),
        sq * np.array([[se, 0.0], [0.0, 1.0]]),
        sq * np.array([[0.0, 0.0], [sl, 0.0]]),
    ]
    return channel_from_kraus([k.astype(np.complex128) for k in kraus if np.any(k)])


def erasure(eps: float, d: int = 2) -> QuantumChannel:
    """Erasure channel: keeps the input with probability 1-eps, else flags.

    The output space has dimension d+1 with the erasure flag on the last
    basis vector.
    """
    eps = _check_interval("eps", eps, 0.0, 1.0)
    if d < 1:
        raise ValueError("d must be at least 1")
    keep = np.zeros((d + 1, d), dtype=np.complex128)
    keep[:d, :] = np.eye(d)
    kraus = []
    if eps < 1.0:
        kraus.append(np.sqrt(1.0 - eps) * keep)
    if eps > 0.0:
        for i in range(d):
            flag = np.zeros((d + 1, d), dtype=np.complex128)
            flag[d, i] = np.sqrt(eps)
            kraus.append(flag)
    return channel_from_kraus(kraus, d_in=d, d_out=d + 1)


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


def bitflip(p: float) -> QuantumChannel:
    """``rho -> (1-p) rho + p X rho X``."""
    p = _check_interval("p", p, 0.0, 1.0)
    return pauli_channel([1.0 - p, p, 0.0, 0.0])


def dephasing(b: float) -> QuantumChannel:
    """``rho -> (1-b) rho + b Z rho Z``."""
    b = _check_interval("b", b, 0.0, 1.0)
    return pauli_channel([1.0 - b, 0.0, 0.0, b])


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
