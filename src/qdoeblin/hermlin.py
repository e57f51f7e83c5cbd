"""Dense linear algebra for small Hermitian matrices.

Everything in this package runs on complex128 numpy arrays of side at most
a few dozen, so the routines here favour clarity and strict validation over
asymptotic cleverness.  The constants at the top of this module are the
tolerances and size caps of these routines; the other modules keep their
own next to the code that uses them (for example ``channel.TP_TOL``,
``sdpcore.SYM_TOL`` and ``doeblin.WITNESS_TRACE_FLOOR``).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Hermiticity check: |m - m^dag| entrywise.
HERM_TOL = 1e-12
# An operator counts as PSD when its minimum eigenvalue is >= -PSD_TOL.
PSD_TOL = 1e-9
# Hard cap on the side of anything we eigendecompose.
MAX_DIM = 64
# Hard cap on the side of a Kronecker product result.
MAX_KRON_SIDE = 4096


def _as_square(m: np.ndarray, name: str = "matrix", ndim: int = 2) -> np.ndarray:
    m = np.asarray(m)
    if m.ndim != ndim or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m.astype(np.complex128, copy=False)


def _hermitian_part(m: np.ndarray, tol: float, name: str) -> np.ndarray:
    """(m + m^dag)/2 of one matrix or a stack, after one check over all of it."""
    m_dag = np.swapaxes(m.conj(), -1, -2)
    dev = np.max(np.abs(m - m_dag)) if m.size else 0.0
    if dev > tol:
        raise ValueError(f"{name} is not Hermitian: max deviation {dev:.3e} exceeds {tol:.1e}")
    return 0.5 * (m + m_dag)


def require_hermitian(m: np.ndarray, tol: float = HERM_TOL, name: str = "matrix") -> np.ndarray:
    """Validate that ``m`` is Hermitian within ``tol`` and return (m + m^dag)/2.

    The symmetrised copy is returned so downstream eigensolvers see an
    exactly Hermitian operator even when ``m`` carries roundoff dust.  A
    ``(k, n, n)`` stack is checked once as a whole.
    """
    m = np.asarray(m)
    return _hermitian_part(_as_square(m, name, ndim=3 if m.ndim == 3 else 2), tol, name)


def eig_hermitian(h: np.ndarray, tol: float = HERM_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` ascending and columns of ``v``
    orthonormal eigenvectors, so ``v @ diag(w) @ v^dag`` reconstructs the
    input.  Rejects non-Hermitian input and matrices larger than ``MAX_DIM``.
    """
    h = require_hermitian(h, tol=tol, name="eig_hermitian input")
    if h.shape[0] > MAX_DIM:
        raise ValueError(f"eig_hermitian supports side <= {MAX_DIM}, got {h.shape[0]}")
    w, v = np.linalg.eigh(h)
    return w, v


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with a guard on the result size.

    A ``(k, n, n)`` stack ``a`` is multiplied by ``b`` matrix by matrix.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    side_r = a.shape[-2] * b.shape[0]
    side_c = a.shape[-1] * b.shape[1]
    if side_r > MAX_KRON_SIDE or side_c > MAX_KRON_SIDE:
        raise ValueError(
            f"kron result of shape ({side_r}, {side_c}) exceeds the "
            f"{MAX_KRON_SIDE} per-side limit"
        )
    return np.kron(a, b)


def _check_bipartite(m: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    m = np.asarray(m)
    m = _as_square(m, "bipartite matrix", ndim=3 if m.ndim == 3 else 2)
    d0, d1 = dims
    if d0 <= 0 or d1 <= 0 or d0 * d1 != m.shape[-1]:
        raise ValueError(f"dims {dims} do not factor a matrix of side {m.shape[-1]}")
    return m


def partial_trace(m: np.ndarray, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one tensor factor of a bipartite operator.

    ``dims = (d0, d1)`` gives the factor sizes in the same order as the
    Kronecker structure of ``m``; ``keep`` selects the factor (0 or 1) that
    survives.  A ``(k, n, n)`` stack is traced matrix by matrix.
    """
    m = _check_bipartite(m, dims)
    if keep not in (0, 1):
        raise ValueError("keep must be 0 or 1")
    d0, d1 = dims
    t = m.reshape(m.shape[:-2] + (d0, d1, d0, d1))
    if keep == 0:
        return np.einsum("...ijkj->...ik", t)
    return np.einsum("...ijil->...jl", t)


def partial_transpose(m: np.ndarray, dims: tuple[int, int], on: int) -> np.ndarray:
    """Transpose one tensor factor of a bipartite operator.

    A pure index permutation, so applying it twice returns the input
    bit-identically.  A ``(k, n, n)`` stack is transposed matrix by matrix.
    """
    m = _check_bipartite(m, dims)
    if on not in (0, 1):
        raise ValueError("on must be 0 or 1")
    d0, d1 = dims
    lead = m.shape[:-2]
    t = m.reshape(lead + (d0, d1, d0, d1))
    r = len(lead)
    perm = (r + 2, r + 1, r, r + 3) if on == 0 else (r, r + 3, r + 2, r + 1)
    t = t.transpose(tuple(range(r)) + perm)
    return t.reshape(lead + (d0 * d1, d0 * d1))


def trace_norm(m: np.ndarray, tol: float = HERM_TOL) -> float:
    """Trace norm of a Hermitian matrix (sum of absolute eigenvalues)."""
    w, _ = eig_hermitian(m, tol=tol)
    return float(np.sum(np.abs(w)))


def is_psd(m: np.ndarray, tol: float = PSD_TOL) -> bool:
    """Whether a Hermitian matrix is positive semidefinite within ``tol``."""
    w, _ = eig_hermitian(m, tol=max(tol, HERM_TOL))
    return bool(w[0] >= -tol)


@lru_cache(maxsize=None)
def _basis_stack(dim: int) -> np.ndarray:
    out: list[np.ndarray] = []
    out.append(np.eye(dim, dtype=np.complex128) / np.sqrt(dim))
    # Diagonal traceless directions, generalised Gell-Mann style.
    for k in range(1, dim):
        d = np.zeros(dim)
        d[:k] = 1.0
        d[k] = -float(k)
        out.append(np.diag(d).astype(np.complex128) / np.sqrt(k * (k + 1)))
    # Off-diagonal symmetric and antisymmetric pairs.
    for i in range(dim):
        for j in range(i + 1, dim):
            s = np.zeros((dim, dim), dtype=np.complex128)
            s[i, j] = s[j, i] = 1.0 / np.sqrt(2.0)
            out.append(s)
            a = np.zeros((dim, dim), dtype=np.complex128)
            a[i, j] = -1j / np.sqrt(2.0)
            a[j, i] = 1j / np.sqrt(2.0)
            out.append(a)
    stack = np.stack(out)
    stack.flags.writeable = False
    return stack


def _check_basis_dim(dim: int) -> None:
    if dim <= 0 or dim > MAX_DIM:
        raise ValueError(f"hermitian_basis needs 1 <= dim <= {MAX_DIM}, got {dim}")


def hermitian_basis(dim: int) -> np.ndarray:
    """Orthonormal basis of the real space of ``dim x dim`` Hermitian matrices.

    One read-only ``(dim**2, dim, dim)`` stack, orthonormal under the trace
    inner product ``<A, B> = Tr(A B)``.  The first element is the
    normalised identity; the remaining ``dim**2 - 1`` elements are
    traceless.  The ordering is deterministic: diagonal traceless
    directions first, then (real, imaginary) pairs for each off-diagonal
    position in row-major order.
    """
    _check_basis_dim(dim)
    return _basis_stack(dim)


@lru_cache(maxsize=None)
def _real_mask(dim: int) -> np.ndarray:
    mask = ~np.imag(_basis_stack(dim)).any(axis=(1, 2))
    mask.flags.writeable = False
    return mask


@lru_cache(maxsize=None)
def _real_stack(dim: int) -> np.ndarray:
    stack = _basis_stack(dim)[_real_mask(dim)]
    stack.flags.writeable = False
    return stack


def real_symmetric_mask(dim: int) -> np.ndarray:
    """Which elements of :func:`hermitian_basis` are real symmetric.

    The others are the imaginary antisymmetric elements ``+-i`` of the
    off-diagonal pairs.  A Hermitian matrix is real exactly when its
    coordinates on them are 0.  Read-only.
    """
    _check_basis_dim(dim)
    return _real_mask(dim)


def real_symmetric_basis_stack(dim: int) -> np.ndarray:
    """The real symmetric elements of :func:`hermitian_basis`, in order.

    An orthonormal basis of the ``dim * (dim + 1) / 2``-dimensional space of
    real symmetric matrices, as one read-only complex128 stack.
    """
    _check_basis_dim(dim)
    return _real_stack(dim)
