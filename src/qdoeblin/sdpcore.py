"""A dense primal-dual interior-point solver for small semidefinite programs.

The solver handles problems of the form

    maximize    b . y
    subject to  C_k - sum_i y_i A_{k,i}  is PSD   for every block k,
                E y = f                           (optional equality rows),
                l <= y <= u                       (optional box bounds),

with real variables y and block data that is real symmetric or complex
Hermitian (the cone of a complex block is the Hermitian PSD cone; see
Sturm, "Using SeDuMi 1.02", Optim. Methods Softw. 1999).  A block may
carry a multiplicity ``w``: it then stands for ``w`` identical copies of
itself, the block-diagonal ``diag(C_k - A_k(y), ..., C_k - A_k(y))``, and
the solver iterates on one copy.  The adjoint, the Schur term, the trace
inner products ``<C, X>`` and ``<X, S>`` and the block's share of the
barrier parameter count every copy; step lengths and eigenvalues are those
of one copy.  In exact arithmetic the iterates are those of the explicit
``w``-copy block, at the cost of one copy.

A Hermitian program is a complex block of side n with ``w = 2``: its real
embedding, which maps ``A + iB`` to the real symmetric ``[[A, -B], [B, A]]``
of side 2n with ``w = 1``, is a *-homomorphism with
``Tr(emb(A) emb(B)) = 2 Re Tr(A B)`` that doubles every eigenvalue, so in
exact arithmetic both have the same iterates.  A
real Hermitian program embeds as two copies of its real part, so it is
solved as a real block of side n with ``w = 2``.  Complex blocks have their
own block class: every transpose that stands for the adjoint is a
conjugate transpose, and every trace ``Re Tr(A X)`` is a real dot product
of float views, so the KKT system, y, the step lengths and the diagonal
block stay real.

The algorithm is the HKM primal-dual direction with a Mehrotra
predictor-corrector step, run from an infeasible start that is made
dual-interior by a big-M shift variable: every block is relaxed to
``C_k - A_k(y) + tau*I`` with ``tau >= 0`` penalised in the objective, so a
strictly feasible starting point always exists.  The penalty is
``1e4 * (1 + max|b|)``; ``tau`` is driven to zero whenever the original
problem is feasible and the penalty exceeds the total trace of one of its
optimal dual solutions.  Each problem is one run with that penalty.

Every problem is solved in the variables v of ``y = T v``: block
coefficients become ``T^T A`` (one gemm per block), each box bound the row
``+-T[i]`` of the diagonal block, and every solver variable enters every
block.  Without equality rows ``T = I``.  Equality rows are eliminated by
the null-space method (Nocedal & Wright, *Numerical Optimization*, 2nd
ed., section 16.2).  One pivoted QR of ``E^T`` in full mode gives the rank
of E, an orthonormal basis Z of its null space and the min-norm solution
``y_p`` of ``E y = f``; an inconsistent system is rejected there.  The QR
calls LAPACK directly, with the calls and workspace sizes of
``scipy.linalg.qr``, so Z and ``y_p`` are bitwise scipy's.  Then
``T = [y_p, Z]`` and ``v = (theta, w)``: the one equality left,
``theta = 1``, is the only bordered row of the KKT system, which is solved
by LU factorisation.  The start ``theta = 0, w = 0`` is the start ``y = 0``
of the full problem, and its iterates stay in ``{c y_p + Z w}``, so in
exact arithmetic the reduced iteration takes the steps of the full one on
``1 + n - rank(E)`` instead of n variables.  Residuals, the objective and
``y`` are reported in the original variables.

Every 1x1 cone (each finite box bound and the ``tau >= 0`` shift) lives in
one diagonal (LP) block: its iterates are vectors and its products are
elementwise.  Each dense block is factored once per iteration: the inverse
Cholesky factors ``L^-1`` of ``S`` and of ``X`` give ``S^-1 = L^-H L^-1``,
and every step-length search is one ``eigvalsh(L^-1 dM L^-H)`` (``L^-T``
for real blocks).  Each KKT matrix is LU-factored once per iteration; the
predictor, the corrector and their refinement steps reuse the factors.

:func:`solve_many` sets a list of problems up in one pass per group and
runs it as lockstep batches, in the manner of the batched interior-point
method of OptNet (Amos & Kolter, ICML 2017).  A group is the problems
that share their objective, bounds and every block's coefficient list (by
identity), their block sides, multiplicities and real or complex data,
and their equality row count.  Its shared parts are validated and lowered
once; its constants, equality rows and right-hand sides are validated as
stacks, ``T^T A`` is one batched gemm per block and the box rows come
from the stacked T.  The only per-problem set-up is the QR of ``E^T``.  A
problem that fails validation raises the error it raises alone (with
several, that of the first in input order).

Problems that share their shapes (the count of solver variables and the
side of every block, the diagonal block of box rows included) and the
real or complex data of every dense block advance together: every iterate
is a stack with one slice per problem, and one numpy call serves the
whole batch.  Each problem keeps its own constants, objective, null-space
basis, coefficient stacks (one stack serves the batch when every problem
shares it), bounds, step lengths, ``recenter`` flag, best iterate and
step count, and a problem that converges or fails leaves the batch.  Per
slice the arithmetic is the same whatever else is in the batch, so every
problem gets bitwise the result it gets alone; :func:`solve` is the batch
of one.

A search direction with a non-finite entry, a non-finite or exactly
singular KKT matrix or a slack that loses its Cholesky factor ends the
problem as ``numerical_failure`` before anything is stepped.

Everything is deterministic: no randomisation enters the iteration, so
identical problems produce identical iterate sequences.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 100
# Fraction-to-boundary factor for the final step length.
STEP_FRACTION = 0.98
SYM_TOL = 1e-11
# Bytes of KKT matrices and Schur intermediates one lockstep batch may
# hold; a larger group of same-structure problems runs as several batches.
BATCH_BYTES = 1 << 26

_LU_FACTOR = sla.lapack.dgetrf
_LU_SOLVE = sla.lapack.dgetrs
_QR_P = sla.lapack.dgeqp3
_Q_FROM_QR = sla.lapack.dorgqr
_TRI_SOLVE = sla.lapack.dtrtrs

STATUS_OPTIMAL = "optimal"
STATUS_MAX_ITER = "max_iter"
STATUS_NUMERICAL = "numerical_failure"


@dataclass
class SdpBlock:
    """One linear matrix inequality ``C - sum_i y_i A_i >= 0``.

    ``c`` and the coefficient matrices are real symmetric, or complex
    Hermitian: a block with any complex-typed matrix is a complex block,
    on the Hermitian PSD cone, and a real-typed one a real block.  The
    variables ``y`` are real either way.  ``coeffs`` maps variable indices
    to their coefficient matrices; variables absent from the list do not
    enter the block, and a variable listed more than once enters with the
    sum of its matrices.

    The multiplicity ``w`` (a positive integer, 1 by default) makes the
    block stand for ``w`` identical copies of itself, the block-diagonal
    ``diag(C, ..., C) - sum_i y_i diag(A_i, ..., A_i)``.  A Hermitian
    constraint of side n is a complex block with ``w = 2``, which has the
    iterates of its real embedding of side 2n, and a real one is its real
    part with ``w = 2``.  The solver keeps one copy and takes, in exact
    arithmetic, the iterates of the ``w``-copy block, so the solution's
    ``x_blocks`` entry of the block holds one copy of its dual matrix.
    """

    c: np.ndarray
    coeffs: list[tuple[int, np.ndarray]]
    w: int = 1

    @property
    def dim(self) -> int:
        return self.c.shape[0]


@dataclass
class SdpProblem:
    """Maximise ``objective . y`` over the intersection of the constraints.

    The variables are real, so the objective, the equality rows and the
    bounds must be real; complex ones raise ``ValueError``.
    """

    num_vars: int
    objective: np.ndarray
    blocks: list[SdpBlock]
    eq_matrix: np.ndarray | None = None
    eq_rhs: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None


@dataclass
class SdpSolution:
    """Result of :func:`solve`.

    ``primal_residual`` measures feasibility of ``y`` for the original
    constraints (most negative slack eigenvalue and deviation from every
    original equality row), ``dual_residual`` the stationarity defect
    ``max|b - A^T(X) - E^T nu| / (1 + max|b|)`` of the internally built
    dual certificate (``x_blocks`` plus multipliers for the box bounds and
    the equality rows, which are not returned), and ``gap`` the relative
    difference of the two objective values.  The equality multipliers
    ``nu`` are the least-squares ones subject to ``f . nu`` being the
    multiplier of ``theta = 1`` that enters the dual objective: the defect
    is ``Z r_w`` plus the ``theta`` residual along ``y_p``, with ``r_w``
    the residual of the reduced problem on ``w``.  ``status == "optimal"``
    guarantees all three are at most the solve tolerance.  ``iterations``
    counts the interior-point steps taken to reach the returned ``y``.

    ``x_blocks`` holds one dual matrix per dense block, real for a real
    block and complex Hermitian for a complex one.

    ``shift`` is the big-M shift ``tau`` of the returned iterate, the amount
    by which every block is relaxed.  ``optimal`` also requires it to be
    at most ``1e-6`` times one plus the starting shift; a non-optimal
    result with a visibly positive shift flags a problem that looks
    infeasible.
    """

    status: str
    y: np.ndarray
    objective_value: float
    gap: float
    primal_residual: float
    dual_residual: float
    iterations: int
    x_blocks: list[np.ndarray] = field(default_factory=list)
    shift: float = 0.0


def _real_array(x, name: str) -> np.ndarray:
    """``x`` as a float64 array; complex data is an error, not truncated."""
    a = np.asarray(x)
    if np.iscomplexobj(a):
        raise ValueError(f"{name} must be real, got complex data")
    return a.astype(float, copy=False)


def _check_coeffs(blk: SdpBlock, k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Variable indices and Hermitian-part coefficient stack of one block,
    float64 for real coefficients and complex128 when any is complex."""
    dim = blk.c.shape[0]
    idx = np.array([i for i, _ in blk.coeffs], dtype=int)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        out = (idx < 0) | (idx >= n)
        raise ValueError(f"block {k} references variable {idx[out][0]} out of range")
    mats = np.asarray([a for _, a in blk.coeffs])
    herm = np.iscomplexobj(mats)
    mats = mats.astype(complex if herm else float, copy=False)
    if idx.size and mats.shape[1:] != (dim, dim):
        raise ValueError(f"block {k} coefficients must be {dim}x{dim}, got {mats.shape[1:]}")
    mats = mats.reshape(len(idx), dim, dim)
    finite = np.isfinite(mats).all(axis=(1, 2))
    if not finite.all():
        raise ValueError(f"block {k} coefficient {idx[np.argmin(finite)]} must be finite")
    mats_t = (mats.conj() if herm else mats).transpose(0, 2, 1)
    scale = np.abs(mats).max(axis=(1, 2), initial=1.0)
    # One scratch stack serves both the check and the Hermitian part.
    work = np.subtract(mats, mats_t)
    dev = np.max(np.abs(work, out=None if herm else work), axis=(1, 2), initial=0.0)
    bad = dev > SYM_TOL * scale
    if bad.any():
        kind = "Hermitian" if herm else "symmetric"
        raise ValueError(f"block {k} coefficient {idx[np.argmax(bad)]} must be {kind}")
    np.add(mats, mats_t, out=work)
    work *= 0.5
    return idx, work


def _cholesky(m: np.ndarray, repair: bool) -> np.ndarray:
    """Cholesky factor of one matrix, flooring its spectrum first on ``repair``."""
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        if not repair:
            raise
        w, v = np.linalg.eigh(m)
        if w[-1] <= 0:
            raise
        w = np.maximum(w, w[-1] * 1e-14)
        return np.linalg.cholesky((v * w) @ v.conj().T)


def _inv_chol(m: np.ndarray, repair: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Inverses ``L^-1`` of the Cholesky factors of a stack ``m = L L^H``.

    Returns the factors and a mask of the slices that have one; a slice
    without one gets an identity placeholder.  With ``repair`` an iterate
    that roundoff pushed onto the cone boundary is factored after flooring
    its spectrum instead; only a spectrum without a positive eigenvalue
    still fails.
    """
    ok = np.ones(len(m), dtype=bool)
    try:
        ell = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        ell = np.empty_like(m)
        for i, mi in enumerate(m):
            try:
                ell[i] = _cholesky(mi, repair)
            except np.linalg.LinAlgError:
                ok[i] = False
                ell[i] = np.eye(len(mi))
    return np.linalg.inv(ell), ok


def _min_eigs(m: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of every slice; nan where the eigensolver fails."""
    try:
        return np.linalg.eigvalsh(m)[:, 0]
    except np.linalg.LinAlgError:
        out = np.full(len(m), np.nan)
        for i, mi in enumerate(m):
            try:
                out[i] = np.linalg.eigvalsh(mi)[0]
            except np.linalg.LinAlgError:
                pass
        return out


def _max_step(li: np.ndarray, dm: np.ndarray) -> np.ndarray:
    """Largest a >= 0 with M + a*dM still PSD, per slice, from ``li = L^-1`` of M.

    ``np.inf`` where the direction never leaves the cone, nan where the
    eigensolver fails.
    """
    w = li @ dm @ li.transpose(0, 2, 1)
    return _step_from(0.5 * (w + w.transpose(0, 2, 1)))


def _step_from(w: np.ndarray) -> np.ndarray:
    """The step of :func:`_max_step` from the congruent direction ``L^-1 dM L^-H``."""
    lam = _min_eigs(w)
    return np.where(lam >= -1e-13, np.inf, -1.0 / np.minimum(lam, -1e-13))


def _take(a, keep: np.ndarray):
    """The rows ``keep`` of a per-problem stack; a stack of one slice is
    shared by the batch and stays."""
    return a if len(a) == 1 else a[keep]


class _DenseBlock:
    """One dense PSD block of a lockstep batch.

    ``aflat`` holds the coefficient stacks, ``(P, k, m*m)`` with one row per
    solver variable, every one of which enters every block: P is 1 when
    every problem of the batch shares the stack, and the batch size when
    each problem has its own.  Iterates are ``(B, m, m)`` stacks, one slice
    per problem; the step search and ``S^-1`` work from their inverse
    Cholesky factors.

    A block of multiplicity ``w`` holds one of its ``w`` identical copies:
    the adjoint, the Schur term and every trace inner product count ``w``
    times, and step lengths and eigenvalues are those of one copy.
    """

    def __init__(self, dim: int, aflat: np.ndarray, w: int):
        self.dim = dim
        self.unit = np.eye(dim)
        self.aflat = aflat
        self.w = w

    def __len__(self) -> int:
        return len(self.aflat)

    def __getitem__(self, keep: np.ndarray) -> _DenseBlock:
        """The block of the problems ``keep``."""
        out = copy.copy(self)
        out.aflat = self.aflat[keep]
        return out

    def eye(self, count: int) -> np.ndarray:
        return np.tile(self.unit, (count, 1, 1))

    @staticmethod
    def col(v: np.ndarray) -> np.ndarray:
        """Per-problem scalars shaped to scale a stack of iterates."""
        return v[:, None, None]

    def operator(self, y: np.ndarray) -> np.ndarray:
        return (y[:, None] @ self.aflat).reshape(-1, self.dim, self.dim)

    def _copies(self, out: np.ndarray) -> np.ndarray:
        """``out`` summed over the ``w`` copies of the block, in place."""
        if self.w != 1:
            out *= self.w
        return out

    def adjoint(self, x: np.ndarray) -> np.ndarray:
        """``A^T(x)``, one row per problem."""
        return self._copies(np.matvec(self.aflat, x.reshape(len(x), -1)))

    def schur(self, x: np.ndarray, s_inv: np.ndarray) -> np.ndarray:
        """HKM Schur blocks ``M_ij = Tr(A_i X A_j S^-1)``, one gemm per stage."""
        k, m = self.aflat.shape[1], self.dim
        a_sinv = (self.aflat.reshape(-1, k * m, m) @ s_inv).reshape(-1, k, m, m)
        return self._copies(
            self.aflat @ (x[:, None] @ a_sinv).reshape(-1, k, m * m).transpose(0, 2, 1)
        )

    def min_slack(self, m: np.ndarray, shift: np.ndarray) -> np.ndarray:
        """Smallest eigenvalue of ``m - shift*I`` per slice."""
        return np.linalg.eigvalsh(m - shift[:, None, None] * self.unit)[:, 0]

    def dot(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``Tr(a b)`` per slice over every copy, one dot product each."""
        return self._copies(np.vecdot(a.reshape(len(a), -1), b.reshape(len(b), -1)))

    @staticmethod
    def product(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
        return a @ b @ c

    @staticmethod
    def sym(m: np.ndarray) -> np.ndarray:
        out = m + m.transpose(0, 2, 1)
        out *= 0.5
        return out

    factor = staticmethod(_inv_chol)

    @staticmethod
    def inverse(li: np.ndarray) -> np.ndarray:
        return li.transpose(0, 2, 1) @ li

    max_step = staticmethod(_max_step)


def _floats(a: np.ndarray) -> np.ndarray:
    """The slices of a complex stack as rows of real and imaginary parts."""
    return a.reshape(len(a), -1).view(float)


class _HermBlock(_DenseBlock):
    """A dense block of complex Hermitian data, with real solver variables.

    Iterates are complex Hermitian stacks and every transpose that stands
    for the adjoint is a conjugate transpose.  Every trace the solver takes
    is real: ``Re Tr(A X) = Re sum_ab A_ab conj(X_ab)`` for Hermitian X is
    the dot product of the float views ``aview`` and ``_floats(X)``, so the
    operator, the adjoint, ``dot`` and the last stage of the Schur term are
    real gemms over ``2*m*m`` columns.  The real embedding of such a block
    (``A + iB`` as ``[[A, -B], [B, A]]``) has the same iterates at twice the
    side and half the multiplicity.
    """

    def __init__(self, dim: int, aflat: np.ndarray, w: int):
        super().__init__(dim, aflat, w)
        self.unit = np.eye(dim, dtype=complex)
        self.aview = aflat.view(float)

    def __getitem__(self, keep: np.ndarray) -> _HermBlock:
        out = super().__getitem__(keep)
        out.aview = out.aflat.view(float)
        return out

    def operator(self, y: np.ndarray) -> np.ndarray:
        return (y[:, None] @ self.aview).view(complex).reshape(-1, self.dim, self.dim)

    def adjoint(self, x: np.ndarray) -> np.ndarray:
        return self._copies(np.matvec(self.aview, _floats(x)))

    def schur(self, x: np.ndarray, s_inv: np.ndarray) -> np.ndarray:
        """``M_ij = Re Tr(A_i X A_j S^-1)``; the last stage is a real gemm."""
        k, m = self.aflat.shape[1], self.dim
        a_sinv = (self.aflat.reshape(-1, k * m, m) @ s_inv).reshape(-1, k, m, m)
        xas = (x[:, None] @ a_sinv).reshape(-1, k, m * m).view(float)
        return self._copies(self.aview @ xas.transpose(0, 2, 1))

    def dot(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._copies(np.vecdot(_floats(a), _floats(b)))

    @staticmethod
    def sym(m: np.ndarray) -> np.ndarray:
        out = m + m.conj().transpose(0, 2, 1)
        out *= 0.5
        return out

    @staticmethod
    def inverse(li: np.ndarray) -> np.ndarray:
        return li.conj().transpose(0, 2, 1) @ li

    @staticmethod
    def max_step(li: np.ndarray, dm: np.ndarray) -> np.ndarray:
        return _step_from(_HermBlock.sym(li @ dm @ li.conj().transpose(0, 2, 1)))


class _DiagBlock:
    """Every 1x1 cone of a lockstep batch as one diagonal (LP) block.

    Entry r is the cone ``c_r - g_r . y >= 0``: one per finite box bound,
    and last the big-M shift ``tau >= 0``, which is not a constraint of the
    original problem.  ``g`` is a ``(P, r, k)`` stack over every solver
    variable like the coefficients of :class:`_DenseBlock`.  Iterates are
    ``(B, r)`` rows, ``S^-1`` and every product are elementwise; the factor
    of an iterate is the iterate itself.
    """

    w = 1

    def __init__(self, g: np.ndarray):
        self.dim = g.shape[1]
        self.g = g
        self.gt = np.ascontiguousarray(g.transpose(0, 2, 1))

    def __len__(self) -> int:
        return len(self.g)

    def __getitem__(self, keep: np.ndarray) -> _DiagBlock:
        out = copy.copy(self)
        out.g, out.gt = self.g[keep], self.gt[keep]
        return out

    def eye(self, count: int) -> np.ndarray:
        return np.ones((count, self.dim))

    @staticmethod
    def col(v: np.ndarray) -> np.ndarray:
        return v[:, None]

    def operator(self, y: np.ndarray) -> np.ndarray:
        return (self.g @ y[..., None])[..., 0]

    def adjoint(self, x: np.ndarray) -> np.ndarray:
        return np.vecmat(x, self.g)

    def schur(self, x: np.ndarray, s_inv: np.ndarray) -> np.ndarray:
        return (self.gt * (x * s_inv)[:, None, :]) @ self.g

    def min_slack(self, m: np.ndarray, shift: np.ndarray) -> np.ndarray:
        """Smallest box slack ``m_r - shift``; the shift entry is left out."""
        return (m[:, :-1] - shift[:, None]).min(axis=1, initial=np.inf)

    dot = staticmethod(np.vecdot)

    @staticmethod
    def product(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
        return a * b * c

    @staticmethod
    def sym(m: np.ndarray) -> np.ndarray:
        return m

    @staticmethod
    def factor(m: np.ndarray, repair: bool = False) -> tuple[np.ndarray, np.ndarray]:
        # The ratio test needs no factorisation, so there is nothing to
        # repair; only S^-1 needs every entry positive.
        ok = np.ones(len(m), dtype=bool) if repair else (m > 0.0).all(axis=1)
        return m, ok

    @staticmethod
    def inverse(m: np.ndarray) -> np.ndarray:
        return 1.0 / m

    @staticmethod
    def max_step(m: np.ndarray, dm: np.ndarray) -> np.ndarray:
        """Largest a >= 0 with m + a*dm >= 0 entrywise, per row (np.inf if unbounded)."""
        # A ratio that overflows is an unbounded step along that entry; the
        # ratios of entries that do not decrease are masked out.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            ratio = m / -dm
        return np.where(dm < 0.0, ratio, np.inf).min(axis=1)


@functools.cache
def _qr_work(rows: int, cols: int) -> tuple[int, int]:
    """Workspace sizes of ``dgeqp3`` and ``dorgqr`` for a ``rows x cols``
    matrix, as :func:`scipy.linalg.qr` queries them: LAPACK's blocked
    algorithms follow the workspace size, so the same query gives the same
    arithmetic."""
    a = np.zeros((rows, cols), order="F")
    lw_qr = int(_QR_P(a, lwork=-1)[3][0])
    tau = np.zeros(min(rows, cols))
    lw_q = int(_Q_FROM_QR(np.zeros((rows, rows), order="F"), tau, lwork=-1)[1][0])
    return lw_qr, lw_q


def _null_space(e: np.ndarray, f: np.ndarray) -> np.ndarray:
    """``T = [y_p, Z]``: ``E y = f`` exactly when ``y = y_p + Z w``.

    One pivoted QR ``E^T P = Q R`` in full mode gives the rank r of E, the
    orthonormal null-space basis ``Z = Q[:, r:]`` and the min-norm solution
    ``y_p = Q[:, :r] u`` with ``R_11^T u = (P^T f)[:r]``; the rows beyond
    the rank only have to be consistent with it.  The LAPACK calls are
    those of ``scipy.linalg.qr(e.T, pivoting=True)`` and
    ``scipy.linalg.solve_triangular(..., trans="T")``, with the same
    workspace sizes, so T is bitwise theirs without their per-call checks.
    """
    n, m = e.shape[1], e.shape[0]
    q, rank, u = np.eye(n), 0, np.zeros(0)
    if n:
        lw_qr, lw_q = _qr_work(n, m)
        qr, piv, tau, _, _ = _QR_P(e.T, lwork=lw_qr)
        piv -= 1
        diag = np.abs(np.diagonal(qr))
        scale = diag[0] if diag[0] > 0 else 1.0
        rank = int(np.sum(diag > 1e-12 * max(1.0, scale)))
        if rank:
            # R_11 from the upper triangle of the factors, solved as
            # ``scipy.linalg.solve_triangular`` solves the C-ordered
            # ``np.triu`` copy of it: from rank 2 on as its lower-triangular
            # transpose.  The reflectors below the diagonal are not read.
            r11, rhs = qr[:rank, :rank], f[piv[:rank]]
            if rank == 1:
                u = _TRI_SOLVE(r11, rhs, lower=0, trans=1)[0]
            else:
                u = _TRI_SOLVE(r11.T, rhs, lower=1, trans=0)[0]
        # Q overwrites the factors it is formed from.
        if n < m:
            q = _Q_FROM_QR(qr[:, :n], tau, lwork=lw_q, overwrite_a=1)[0]
        else:
            q = np.empty((n, n))
            q[:, :m] = qr
            q = _Q_FROM_QR(q, tau, lwork=lw_q, overwrite_a=1)[0]
    y_p = q[:, :rank] @ u
    if np.max(np.abs(e @ y_p - f)) > 1e-9 * (1.0 + np.max(np.abs(f))):
        raise ValueError("equality constraints are inconsistent")
    return np.column_stack([y_p, q[:, rank:]])


class _Reduction(NamedTuple):
    """Equality rows ``E y = f`` as the solver uses them, as stacks.

    Each field has one row per problem, or one row shared by every problem
    of its part.  ``t = [y_p, Z]`` maps ``(theta, w)`` to y; ``z`` and
    ``yp_pinv`` (the pseudo-inverse ``y_p / |y_p|^2`` of the column
    ``y_p``, 0 when f = 0) give the dual residual in the original
    variables, and ``et = E T`` the deviation ``|E T (theta, w) - f|`` from
    the original rows.
    """

    t: np.ndarray
    z: np.ndarray
    yp_pinv: np.ndarray
    et: np.ndarray
    f: np.ndarray


def _reduction(e: np.ndarray, f: np.ndarray, t: np.ndarray) -> _Reduction:
    """The reduction of the stacks ``E``, ``f`` and their stacked bases ``T``."""
    yp = t[:, :, 0]
    norm2 = np.vecdot(yp, yp)
    yp_pinv = np.divide(yp, norm2[:, None], out=np.zeros_like(yp), where=norm2[:, None] > 0.0)
    return _Reduction(t, np.ascontiguousarray(t[:, :, 1:]), yp_pinv, e @ t, f)


@dataclass
class _Part:
    """Problems of one lockstep key in the variables ``v`` the solver iterates on.

    Every problem is solved in ``y = T v``.  With equality rows ``E y = f``,
    ``T = [y_p, Z]`` (see :func:`_null_space`), ``v = (theta, w)`` with the
    one equality ``theta = 1``, and ``red`` holds the reduction; without
    them ``T = I`` and ``v = y``.  Every solver variable enters every block,
    and the last one is always the big-M shift ``tau``.

    ``index`` holds the positions of the problems in the input list.  The
    stacks ``b``, ``coeffs``, ``diag`` and those of ``red`` have one row per
    problem, or one row that every problem shares; ``b_scale`` and ``cs``
    have one row per problem.
    """

    index: np.ndarray
    key: tuple
    b: np.ndarray  # (P, k-1) objective T^T b in the solver's variables
    b_scale: np.ndarray  # (B,) 1 + max|b| of the original objective
    cs: list[np.ndarray]  # (B, m, m) Hermitian-part block constants, then (B, r) box constants
    coeffs: list[np.ndarray]  # (P, k, m*m) coefficient stack per dense block, real or complex
    ws: tuple[int, ...]  # multiplicity per dense block
    diag: np.ndarray  # (P, r, k) rows of the diagonal block
    red: _Reduction | None

    def __len__(self) -> int:
        return len(self.index)

    def rows(self, keep) -> _Part:
        """The part of the problems ``keep``; shared rows stay shared."""
        def cut(a):
            return _take(a, keep)

        return _Part(
            self.index[keep], self.key, cut(self.b), self.b_scale[keep],
            [c[keep] for c in self.cs], [cut(a) for a in self.coeffs], self.ws,
            cut(self.diag), None if self.red is None else _Reduction(*map(cut, self.red)),
        )


def _stack(arrays: list) -> np.ndarray:
    """The arrays as one stack; one array is a view of it."""
    return np.asarray(arrays[0])[None] if len(arrays) == 1 else np.stack(arrays)


def _signature(problem: SdpProblem) -> tuple:
    """What the problems of one group share: the identity of the objective,
    the bounds and each block's coefficient list, and the shapes and
    real or complex data of the constants and the equality rows."""
    eq = problem.eq_matrix
    return (
        problem.num_vars,
        id(problem.objective),
        id(problem.lower),
        id(problem.upper),
        tuple(
            (id(blk.coeffs), np.shape(blk.c), np.iscomplexobj(blk.c), id(blk.w))
            for blk in problem.blocks
        ),
        None if eq is None else (
            np.shape(eq), np.iscomplexobj(eq),
            np.shape(problem.eq_rhs), np.iscomplexobj(problem.eq_rhs),
        ),
    )


class _Invalid(Exception):
    """The first validation error of a group: that of its first problem that fails."""

    def __init__(self, pos: int, error: ValueError):
        super().__init__(pos, error)
        self.pos, self.error = pos, error


class _Faults:
    """The first validation error of every problem of a group, in check order.

    A check of stacked per-problem data fails for its problems only, and
    the others go on to the next check.  A check of data the group shares
    fails for every problem alike and ends the group's checks.
    """

    def __init__(self, members: list[int]):
        self.members = members
        self.errors: list[ValueError | None] = [None] * len(members)

    def flag(self, bad: np.ndarray, message: str) -> None:
        """``message`` for the problems ``bad``; a mask of one entry is for
        data that every problem shares."""
        if not bad.any():
            return
        for j in np.flatnonzero(np.broadcast_to(bad, (len(self.errors),))):
            if self.errors[j] is None:
                self.errors[j] = ValueError(message)

    def raise_first(self, shared: ValueError | None = None) -> None:
        """Raise the first error of the first problem that has one;
        ``shared`` is the error of a check of shared data, which every
        problem has after its own earlier ones."""
        for pos, err in zip(self.members, self.errors):
            if err is not None or shared is not None:
                raise _Invalid(pos, err or shared)


def _check_objective(objective, n: int) -> np.ndarray:
    b = _real_array(objective, "objective")
    if b.shape != (n,):
        raise ValueError(f"objective must have shape ({n},), got {b.shape}")
    if not np.isfinite(b).all():
        raise ValueError("objective must be finite")
    return b


def _check_bounds(problem: SdpProblem, n: int) -> dict[str, np.ndarray]:
    if not problem.blocks and problem.lower is None and problem.upper is None:
        raise ValueError("problem has no conic constraints")
    bounds = {}
    for name, bound in (("lower", problem.lower), ("upper", problem.upper)):
        if bound is None:
            continue
        bound = bounds[name] = _real_array(bound, f"{name} bounds")
        if bound.shape != (n,):
            raise ValueError(f"{name} bounds must have shape ({n},), got {bound.shape}")
        # An infinite bound is no bound; NaN is no number.
        if np.isnan(bound).any():
            raise ValueError(f"{name} bounds must not be NaN")
    if len(bounds) == 2 and np.any(bounds["lower"] > bounds["upper"]):
        raise ValueError("box bounds have lower > upper")
    return bounds


def _check_eq_shapes(problem: SdpProblem, n: int) -> tuple[int, ...]:
    """The shape of E after ``atleast_2d``, when E and f are real and fit."""
    e = np.atleast_2d(_real_array(problem.eq_matrix, "eq_matrix"))
    f = _real_array(problem.eq_rhs, "eq_rhs")
    if e.ndim != 2 or e.shape[1] != n or f.shape != (e.shape[0],):
        raise ValueError("equality constraint shapes are inconsistent")
    return e.shape


def _symmetrised(c: np.ndarray, name: str, faults: _Faults) -> np.ndarray:
    """The Hermitian parts of a ``(B, m, m)`` stack of constants; a slice
    that is not finite or not Hermitian is a fault of its problem."""
    herm = np.iscomplexobj(c)
    finite = np.isfinite(c).all(axis=(1, 2))
    if not finite.all():
        faults.flag(~finite, f"{name} must be finite")
        # The slices flagged are not used further; zeros keep nan out.
        c = np.where(finite[:, None, None], c, 0.0)
    c_h = (c.conj() if herm else c).transpose(0, 2, 1)
    if c.size:
        dev = np.abs(c - c_h).max(axis=(1, 2))
        scale = np.abs(c).max(axis=(1, 2), initial=1.0)
        faults.flag(dev > SYM_TOL * scale, f"{name} must be {'Hermitian' if herm else 'symmetric'}")
    return 0.5 * (c + c_h)


def _lowered_coeffs(t: np.ndarray, idx: np.ndarray, mats: np.ndarray, dtype) -> np.ndarray:
    """``T^T A`` of one block for every basis of the stack ``t``, the shift
    row last: one batched gemm; repeated rows add up, and a complex stack
    is multiplied on its float view."""
    count, nv, side = len(t), t.shape[2], mats.shape[-1]
    out = np.empty((count, nv + 1, side * side), dtype=dtype)
    flat = mats.astype(dtype, copy=False).reshape(len(idx), side * side).view(float)
    np.matmul(t[:, idx].transpose(0, 2, 1), flat, out=out[:, :nv].view(float))
    out[:, nv] = -np.eye(side).ravel()
    return out


def _check_group(first: SdpProblem, mine: list[SdpProblem], faults: _Faults) -> tuple:
    """Run the checks of :func:`solve` on a group, in its order.

    A check of shared data raises its ``ValueError``; a check of stacked
    per-problem data flags its problems in ``faults``.  Returns the shared
    objective and bounds, the constants as ``(B, m, m)`` stacks, the
    coefficients as ``(idx, mats, dtype)`` per block, and the equality
    stacks ``e``, ``f`` (of one slice when every problem shares its rows)
    with the null-space basis of each slice.
    """
    n = first.num_vars
    b = _check_objective(first.objective, n)
    bounds = _check_bounds(first, n)

    # Equality rows: one stack with a slice per problem, or of one slice
    # when every problem shares them.
    ts = e = f = None
    if first.eq_matrix is not None:
        shape = _check_eq_shapes(first, n)
        shared = all(p.eq_matrix is first.eq_matrix and p.eq_rhs is first.eq_rhs for p in mine)
        own = mine[:1] if shared else mine
        if shape[0]:
            e = _stack([p.eq_matrix for p in own]).astype(float, copy=False)
            e = e.reshape((len(own),) + shape)
            f = _stack([p.eq_rhs for p in own]).astype(float, copy=False)
            ok = np.isfinite(e).all(axis=(1, 2)) & np.isfinite(f).all(axis=1)
            faults.flag(~ok, "equality constraints must be finite")
            ts = [None] * len(own)
            for j in np.flatnonzero(ok):
                try:
                    ts[j] = _null_space(e[j], f[j])
                except ValueError as exc:
                    faults.flag(np.arange(len(own)) == j, str(exc))

    cs, coeffs = [], []
    for k, blk in enumerate(first.blocks):
        if not isinstance(blk.w, (int, np.integer)) or blk.w < 1:
            raise ValueError(f"block {k} multiplicity must be a positive integer, got {blk.w!r}")
        shared = all(p.blocks[k].c is blk.c for p in mine)
        c = _stack([p.blocks[k].c for p in (mine[:1] if shared else mine)])
        if c.ndim != 3 or c.shape[1] != c.shape[2]:
            raise ValueError(f"block {k} constant must be square, got {c.shape[1:]}")
        c = _symmetrised(c.astype(complex if np.iscomplexobj(c) else float, copy=False),
                         f"block {k} constant", faults)
        idx, mats = _check_coeffs(blk, k, n)
        # A complex constant or coefficient makes the whole block complex.
        dtype = np.result_type(c, mats)
        c = c.astype(dtype, copy=False)
        cs.append(np.repeat(c, len(mine), axis=0) if shared and len(mine) > 1 else c)
        coeffs.append((idx, mats, dtype))
    return b, bounds, cs, coeffs, e, f, ts


def _prepare_group(problems: list[SdpProblem], members: list[int]) -> list[_Part]:
    """Validate one group of problems and write it in the solver's variables.

    The shared objective, bounds and coefficient lists are checked and
    lowered once; constants and equality rows are checked as stacks, and
    the only per-problem work is the QR of :func:`_null_space`.  The group
    comes back as one part per lockstep key: problems whose rows leave null
    spaces of different sizes iterate on different variable counts.
    Raises :class:`_Invalid` with the first error of the first problem that
    fails, the error :func:`solve` raises for that problem alone.
    """
    first = problems[members[0]]
    mine = [problems[i] for i in members]
    faults = _Faults(members)
    try:
        b, bounds, cs, checked, e, f, ts = _check_group(first, mine, faults)
    except ValueError as exc:
        faults.raise_first(exc)
    faults.raise_first()
    n = first.num_vars
    b_scale = 1.0 + float(np.max(np.abs(b), initial=0.0))

    # The diagonal block: one entry per finite bound, ``y_i - l_i + tau``
    # or ``u_i - y_i + tau`` with ``y_i = T[i] . v``, and last the shift
    # ``tau`` itself.
    box, consts = [], []
    for name, sign in (("lower", -1.0), ("upper", 1.0)):
        if name in bounds:
            bound = bounds[name]
            finite = np.flatnonzero(np.isfinite(bound))
            box += [(i, sign) for i in finite.tolist()]
            consts.append(sign * bound[finite])
    box_c = np.concatenate(consts + [[0.0]])
    box_rows, signs = [i for i, _ in box], np.array([s for _, s in box])

    # One part per null-space size; without rows or with shared ones every
    # problem shares one basis.
    if ts is None:
        split = [(slice(None), np.eye(n)[None], None)]
    elif len(ts) == 1:
        split = [(slice(None), ts[0][None], [0])]
    else:
        by_size: dict[int, list[int]] = {}
        for j, t in enumerate(ts):
            by_size.setdefault(t.shape[1], []).append(j)
        split = [
            (js, np.stack([ts[j] for j in js]), js) for js in map(np.array, by_size.values())
        ]
    parts = []
    for rows, t, eq_rows in split:
        nv = t.shape[2]
        index = np.asarray(members)[rows]
        coeffs = [_lowered_coeffs(t, idx, mats, dtype) for idx, mats, dtype in checked]
        diag = np.zeros((len(t), len(box) + 1, nv + 1))
        diag[:, :-1, :nv] = signs[:, None] * t[:, box_rows]
        diag[:, :, nv] = -1.0
        red = None if eq_rows is None else _reduction(e[eq_rows], f[eq_rows], t)
        key = (
            nv,
            None if red is None else (n, f.shape[1]),
            tuple(c.shape[1] for c in cs) + (len(box_c),),
            tuple(blk.w for blk in first.blocks),
            tuple(a.dtype.char for a in coeffs),
        )
        parts.append(_Part(
            index=index,
            key=key,
            b=t.transpose(0, 2, 1) @ b,
            b_scale=np.full(len(index), b_scale),
            cs=[c[rows] for c in cs] + [np.repeat(box_c[None], len(index), axis=0)],
            coeffs=coeffs,
            ws=key[3],
            diag=diag,
            red=red,
        ))
    return parts


def _prepare(problems: list[SdpProblem]) -> list[_Part]:
    """Validate every problem and write it in the solver's variables.

    Problems are grouped by :func:`_signature` and each group is set up in
    one pass (see :func:`_prepare_group`).  A part's key holds the shapes a
    lockstep batch needs: the solver's variable count, the original
    variable and equality row counts when ``theta`` is one of them, the
    side of every block, the diagonal one included, and the multiplicity
    and the dtype (real or complex) of every dense block.  A problem that
    fails validation raises the ``ValueError`` it raises alone; with
    several, that of the first in input order.
    """
    groups: dict[tuple, list[int]] = {}
    for i, p in enumerate(problems):
        groups.setdefault(_signature(p), []).append(i)
    parts: list[_Part] = []
    invalid: _Invalid | None = None
    for members in groups.values():
        try:
            parts += _prepare_group(problems, members)
        except _Invalid as exc:
            if invalid is None or exc.pos < invalid.pos:
                invalid = exc
    if invalid is not None:
        raise invalid.error
    return parts


class _Rows:
    """Per-problem arrays of a lockstep batch, row i for problem i.

    A list attribute holds one array per block.  ``take`` keeps the rows of
    the problems still running, so a problem that leaves the batch costs
    nothing further.  An array of one row while the batch holds more is
    shared by the batch and broadcast; ``take`` leaves it as it is.
    """

    def take(self, keep: np.ndarray) -> None:
        for name, v in vars(self).items():
            setattr(self, name, [_take(a, keep) for a in v] if isinstance(v, list)
                    else _take(v, keep))


# Columns of ``_Rows.met``: the residual metrics of the current iterate and
# the step count that reached it.
_WORST, _GAP, _PRES, _DRES, _DOBJ, _TAU, _STEPS = range(7)


def _lockstep(part: _Part, tol: float, max_iter: int) -> list[SdpSolution]:
    """Run the interior-point iteration on the problems of one part.

    Every problem has its own step lengths, ``recenter`` flag, best iterate
    and step count; whatever ends one problem (convergence, a failed
    factorisation, a singular KKT matrix, a non-finite direction, a tiny
    step) ends only that one, with the result it gets when solved alone.
    Results come back in the order of ``part.index``.
    """
    nv = part.b.shape[1]
    tau_idx = nv
    count = len(part)
    # With equality rows the solver's variable 0 is theta, held at 1 by the
    # one row of the bordered KKT system; without them every term it feeds
    # is skipped.
    red = part.red is not None
    q = int(red)
    n_user = len(part.coeffs)
    blocks: list[_DenseBlock | _DiagBlock] = [
        (_HermBlock if np.iscomplexobj(a) else _DenseBlock)(c.shape[1], a, w)
        for c, a, w in zip(part.cs, part.coeffs, part.ws)
    ]
    blocks.append(_DiagBlock(part.diag))
    # The barrier parameter counts every copy of a block.
    m_total = sum(blk.w * blk.dim for blk in blocks)

    st = _Rows()
    st.pos = np.arange(count)
    st.blocks = blocks
    st.c = list(part.cs)
    st.b = np.repeat(part.b, count, axis=0) if len(part.b) < count else part.b
    st.b_scale = part.b_scale
    m_pen = 1e4 * part.b_scale
    st.b_aug = np.hstack([st.b, -m_pen[:, None]])
    if red:
        st.z, st.yp_pinv, st.et, st.f = part.red.z, part.red.yp_pinv, part.red.et, part.red.f

    lam0 = np.maximum(1.0, 1.0 - functools.reduce(
        np.minimum, [blk.min_slack(c, np.zeros(count)) for blk, c in zip(blocks, st.c)]
    ))
    st.tau_cap = 1e-6 * (1.0 + lam0)
    st.y = np.zeros((count, nv + 1))
    st.y[:, tau_idx] = lam0
    st.s = [c - blk.operator(st.y) for blk, c in zip(blocks, st.c)]
    st.x = [blk.eye(count) for blk in blocks]
    st.x[-1][:, -1] = np.maximum(1.0, m_pen - (m_total - 1))
    st.nu = np.zeros((count, q))
    st.recenter = np.zeros(count, dtype=bool)
    st.steps = np.zeros(count)
    # The best iterate so far.  Iterates are replaced, never written in
    # place, so the best one can share arrays with the current one.
    st.best_met = np.full((count, 7), np.inf)
    st.best_y, st.best_x = st.y, st.x[:n_user]

    out: list[SdpSolution | None] = [None] * count

    def metrics() -> None:
        # The shift entry of the diagonal block is left out of the slack
        # (see ``min_slack``); its zero constant and its adjoint, which
        # only reaches ``tau``, add nothing to the objective or to ``dres``.
        yv, tau = st.y[:, :nv], st.y[:, tau_idx]
        slack = functools.reduce(
            np.minimum, [blk.min_slack(sk, tau) for blk, sk in zip(st.blocks, st.s)]
        )
        pres = np.maximum(0.0, -slack)
        if red:
            # Feasibility of y = T (theta, w) for the original rows.
            eq_dev = np.abs(np.matvec(st.et, yv) - st.f).max(axis=1, initial=0.0)
            pres = np.maximum(pres, eq_dev)
        st.adj_x = [blk.adjoint(xk) for blk, xk in zip(st.blocks, st.x)]
        adj = functools.reduce(np.add, st.adj_x)
        dres = st.b - adj[:, :nv]
        if red:
            # In the original variables: multipliers nu of the rows with
            # f . nu equal to the multiplier of theta = 1, least squares
            # otherwise, leave Z r_w plus the theta residual along y_p.
            dres = np.matvec(st.z, dres[:, 1:]) + (dres[:, 0] - st.nu[:, 0])[:, None] * st.yp_pinv
        dres = np.abs(dres)
        dres = dres.max(axis=1, initial=0.0) / st.b_scale
        pobj = 0.0
        for blk, ck, xk in zip(st.blocks, st.c, st.x):
            pobj = pobj + blk.dot(ck, xk)
        if red:
            # The multiplier of theta = 1 is f . nu of the original rows.
            pobj = pobj + st.nu[:, 0]
        dobj = np.vecdot(st.b, yv)
        gap = np.abs(pobj - dobj) / (1.0 + np.maximum(np.abs(pobj), np.abs(dobj)))
        worst = np.maximum(np.maximum(gap, pres), dres)
        st.met = np.array([worst, gap, pres, dres, dobj, tau, st.steps]).T

    def finish(sel: np.ndarray, status: str) -> None:
        """Record the results of the selected problems; they leave the batch.

        Off the optimal path the best iterate seen stands in for the
        current one when its residuals are strictly smaller.
        """
        for i in np.flatnonzero(sel):
            best = status != STATUS_OPTIMAL and st.best_met[i, _WORST] < st.met[i, _WORST]
            met, y, x = (
                (st.best_met, st.best_y, st.best_x) if best else (st.met, st.y, st.x)
            )
            yi = y[i, :nv]
            out[st.pos[i]] = SdpSolution(
                status=status,
                y=part.red.t[st.pos[i] if len(part.red.t) > 1 else 0] @ yi if red else yi.copy(),
                objective_value=float(met[i, _DOBJ]),
                gap=float(met[i, _GAP]),
                primal_residual=float(met[i, _PRES]),
                dual_residual=float(met[i, _DRES]),
                iterations=int(met[i, _STEPS]),
                x_blocks=[xk[i].copy() for xk in x[:n_user]],
                shift=float(met[i, _TAU]),
            )
        if sel.all():
            st.pos = st.pos[:0]
        else:
            st.take(~sel)

    def stop(ok: np.ndarray, broken: bool) -> bool:
        """End the problems not ``ok``; whether any problem is left."""
        if not ok.all():
            finish(~ok, STATUS_NUMERICAL if broken else STATUS_MAX_ITER)
        return len(st.pos) > 0

    def factors(mats: list[np.ndarray], repair: bool = False) -> tuple[list, np.ndarray]:
        """Every block's factors and which problems have them all."""
        facs, ok = [], True
        for blk, m in zip(st.blocks, mats):
            fac, ok_k = blk.factor(m, repair)
            facs.append(fac)
            ok = ok & ok_k
        return facs, ok

    def kkt_solve(rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        sol = np.empty_like(rhs)
        for i, (lu, piv) in enumerate(st.lu):
            sol[i] = _LU_SOLVE(lu, piv, rhs[i])[0]
        ok = np.isfinite(sol).all(axis=1)
        if not ok.all():
            sol[~ok] = 0.0
        resid = rhs - np.matvec(st.kkt, sol)
        big = np.abs(resid).max(axis=1) > 1e-13 * (1.0 + np.abs(rhs).max(axis=1))
        for i in np.flatnonzero(big & ok):
            lu, piv = st.lu[i]
            sol[i] = sol[i] + _LU_SOLVE(lu, piv, resid[i])[0]
        return sol, ok

    def directions(h: list[np.ndarray]) -> tuple:
        """Newton direction for the right-hand side ``h``, and which are finite."""
        adj_h = [blk.adjoint(hk) for blk, hk in zip(st.blocks, h)]
        rhs = st.r_p - functools.reduce(np.add, adj_h)
        sol, ok = kkt_solve(np.concatenate([rhs, st.r_e], axis=1) if red else rhs)
        dy, dnu = sol[:, : nv + 1], sol[:, nv + 1 :]
        ops = [blk.operator(dy) for blk in st.blocks]
        ds = [rdk - op for rdk, op in zip(st.r_d, ops)]
        dx = [
            blk.sym(hk + blk.product(xk, op, sik))
            for blk, hk, xk, op, sik in zip(st.blocks, h, st.x, ops, st.s_inv)
        ]
        # ds is finite with dy; dx also carries h.
        ok &= np.isfinite(np.concatenate([d.reshape(len(d), -1) for d in dx], axis=1)).all(axis=1)
        return dy, dnu, dx, ds, ok

    def max_steps(dx: list[np.ndarray], ds: list[np.ndarray]) -> np.ndarray:
        """Largest primal (row 0) and dual (row 1) steps, one eigensolve per
        block for both."""
        steps = np.inf
        for blk, xf, sf, dxk, dsk in zip(st.blocks, st.x_fac, st.s_fac, dx, ds):
            both = blk.max_step(np.concatenate([xf, sf]), np.concatenate([dxk, dsk]))
            steps = np.minimum(steps, both.reshape(2, -1))
        return steps

    for it in range(max_iter + 1):
        metrics()
        done = (st.met[:, _WORST] <= tol) & (st.met[:, _TAU] <= st.tau_cap)
        if it == max_iter:
            finish(done, STATUS_OPTIMAL)
            finish(np.ones(len(st.pos), dtype=bool), STATUS_MAX_ITER)
            break
        better = st.met[:, _WORST] < st.best_met[:, _WORST]
        if better.all():
            st.best_met, st.best_y, st.best_x = st.met, st.y, st.x[:n_user]
        elif better.any():
            st.best_met = np.where(better[:, None], st.met, st.best_met)
            st.best_y = np.where(better[:, None], st.y, st.best_y)
            st.best_x = [np.where(blk.col(better), xk, bx)
                         for blk, xk, bx in zip(st.blocks, st.x, st.best_x)]
        if done.any():
            finish(done, STATUS_OPTIMAL)
            if not len(st.pos):
                break

        mu = 0.0
        for blk, xk, sk in zip(st.blocks, st.x, st.s):
            mu = mu + blk.dot(xk, sk)
        st.mu = mu / m_total
        # A non-finite mu is a numerical failure, mu <= 0 a stall.
        if not (st.mu > 0).all() and not (
            stop(np.isfinite(st.mu), broken=True) and stop(st.mu > 0, broken=False)
        ):
            break

        # Residuals of the augmented problem drive the Newton step.
        st.r_p = functools.reduce(np.subtract, st.adj_x, st.b_aug)
        if red:
            st.r_p[:, 0] -= st.nu[:, 0]
            st.r_e = 1.0 - st.y[:, :1]
        st.r_d = [c - blk.operator(st.y) - sk for blk, c, sk in zip(st.blocks, st.c, st.s)]

        st.s_fac, ok = factors(st.s)
        st.s_inv = [blk.inverse(f) for blk, f in zip(st.blocks, st.s_fac)]
        st.kkt = np.zeros((len(st.pos), nv + 1 + q, nv + 1 + q))
        for blk, xk, sik in zip(st.blocks, st.x, st.s_inv):
            st.kkt[:, : nv + 1, : nv + 1] += blk.schur(xk, sik)
        if red:
            # The one bordered row: theta = 1.
            st.kkt[:, 0, nv + 1] = st.kkt[:, nv + 1, 0] = 1.0
        # One LU factorisation per problem serves the predictor, the
        # corrector and their refinements.  A non-finite or exactly
        # singular KKT matrix ends the problem instead of stepping along
        # inf/nan directions.
        ok &= np.isfinite(st.kkt.reshape(len(ok), -1)).all(axis=1)
        st.lu = np.empty(len(ok), dtype=object)
        for i in np.flatnonzero(ok):
            lu, piv, info = _LU_FACTOR(st.kkt[i])
            st.lu[i] = (lu, piv)
            ok[i] = info == 0
        if not stop(ok, broken=True):
            break

        st.p_xr = [
            blk.product(xk, rdk, sik)
            for blk, xk, rdk, sik in zip(st.blocks, st.x, st.r_d, st.s_inv)
        ]
        _, _, st.dx_a, st.ds_a, ok = directions([-xk - pk for xk, pk in zip(st.x, st.p_xr)])
        if not stop(ok, broken=True):
            break
        st.x_fac, ok = factors(st.x, repair=True)
        if not stop(ok, broken=False):
            break
        steps = np.minimum(1.0, max_steps(st.dx_a, st.ds_a))
        st.ap_a, st.ad_a = steps
        if not stop(~np.isnan(steps).any(axis=0), broken=False):
            break

        mu_aff = 0.0
        for blk, xk, dxk, sk, dsk in zip(st.blocks, st.x, st.dx_a, st.s, st.ds_a):
            mu_aff = mu_aff + blk.dot(xk + blk.col(st.ap_a) * dxk, sk + blk.col(st.ad_a) * dsk)
        # Per problem in Python floats, so that ``**`` is the C library's pow.
        sigma = np.array([
            max(min(1.0, max((max(ma, 0.0) / mu) ** 3, 1e-10)), 0.5 if rc else 0.0)
            for ma, mu, rc in zip((mu_aff / m_total).tolist(), st.mu.tolist(), st.recenter.tolist())
        ])

        target = sigma * st.mu
        h_cor = [
            blk.col(target) * sik - xk - pk - blk.product(dxk, dsk, sik)
            for blk, sik, xk, pk, dxk, dsk in zip(
                st.blocks, st.s_inv, st.x, st.p_xr, st.dx_a, st.ds_a
            )
        ]
        st.dy, st.dnu, st.dx, st.ds, ok = directions(h_cor)
        if not stop(ok, broken=True):
            break
        steps = np.minimum(1.0, STEP_FRACTION * max_steps(st.dx, st.ds))
        st.a_p, st.a_d = steps
        # A nan step is a failed eigensolve; two tiny steps are a stall.
        if not stop(~np.isnan(steps).any(axis=0) & (steps >= 1e-13).any(axis=0), broken=False):
            break
        # From the rows left after ``stop``: ``steps`` still has the ended ones.
        st.recenter = np.minimum(st.a_p, st.a_d) < 0.1

        st.x = [blk.sym(xk + blk.col(st.a_p) * dxk) for blk, xk, dxk in zip(st.blocks, st.x, st.dx)]
        st.nu = st.nu + st.a_p[:, None] * st.dnu
        st.y = st.y + st.a_d[:, None] * st.dy
        st.s = [blk.sym(sk + blk.col(st.a_d) * dsk) for blk, sk, dsk in zip(st.blocks, st.s, st.ds)]
        st.steps = st.steps + 1
    return out


def _merged(parts: list[_Part]) -> _Part:
    """The problems of parts with one key as one part, in input order."""
    if len(parts) == 1:
        return parts[0]
    index = np.concatenate([p.index for p in parts])
    order = np.argsort(index)

    def cat(stacks):
        rows = [np.broadcast_to(a, (len(p),) + a.shape[1:]) for a, p in zip(stacks, parts)]
        return np.concatenate(rows)[order]

    first = parts[0]
    return _Part(
        index[order], first.key, cat([p.b for p in parts]), cat([p.b_scale for p in parts]),
        [cat(cs) for cs in zip(*(p.cs for p in parts))],
        [cat(a) for a in zip(*(p.coeffs for p in parts))],
        first.ws, cat([p.diag for p in parts]),
        None if first.red is None else _Reduction(*map(cat, zip(*(p.red for p in parts)))),
    )


def _batches(parts: list[_Part]) -> list[_Part]:
    """Split the problems into lockstep batches: one key each, memory bounded.

    A batch holds its KKT matrices and the Schur intermediates of every
    problem at once, so it takes at most ``BATCH_BYTES`` of them.
    """
    by_key: dict[tuple, list[_Part]] = {}
    for part in parts:
        by_key.setdefault(part.key, []).append(part)
    out = []
    for same in by_key.values():
        part = _merged(same)
        side = part.b.shape[1] + 1 + (part.red is not None)
        # The coefficient stacks count once more for problems that own them,
        # the batched arrays of the reduction (all but T) once.
        per_problem = (
            8 * side * side
            + sum(4 * a[0].nbytes for a in part.coeffs)
            + (8 * sum(a[0].size for a in part.red[1:]) if part.red is not None else 0)
        )
        size = max(1, BATCH_BYTES // per_problem)
        if len(part) <= size:
            out.append(part)
        else:
            out += [part.rows(slice(i, i + size)) for i in range(0, len(part), size)]
    return out


def solve_many(
    problems: list[SdpProblem],
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> list[SdpSolution]:
    """Solve a list of :class:`SdpProblem`; results come back in input order.

    Problems that share their objective, bounds and coefficient lists (by
    identity) are validated and lowered in one pass, and problems with the
    same lockstep key (see ``_prepare``) advance together, so a grid of
    same-structure programs pays the per-call overhead of set-up and of
    every iteration once per batch instead of once per point.  Each problem
    is one interior-point run and gets exactly the result :func:`solve`
    gives it alone.

    Raises ``ValueError`` for a problem that fails validation (the error
    the first such problem raises alone), a ``tol`` that is NaN, infinite
    or negative, or a ``max_iter`` that is not an integer >= 0.
    """
    if not (isinstance(max_iter, (int, np.integer)) and max_iter >= 0):
        raise ValueError(f"max_iter must be an integer >= 0, got {max_iter!r}")
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    out: list[SdpSolution | None] = [None] * len(problems)
    for batch in _batches(_prepare(problems)):
        for i, sol in zip(batch.index, _lockstep(batch, tol, max_iter)):
            out[i] = sol
    return out


def solve(
    problem: SdpProblem,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SdpSolution:
    """Solve one :class:`SdpProblem`: :func:`solve_many` on a batch of one.

    Stops once the relative duality gap, the primal feasibility residual and
    the dual stationarity residual all drop below ``tol`` and the big-M
    shift is negligible; otherwise the run ends as ``max_iter`` or
    ``numerical_failure``.
    """
    return solve_many([problem], tol, max_iter)[0]

