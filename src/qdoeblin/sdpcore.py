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
solved as a real block of side n with ``w = 2``.  Real and complex blocks
share one block class, with real data as the trivial case of the Hermitian
cone: every transpose that stands for the adjoint is a conjugate
transpose, and every trace ``Re Tr(A X)`` is a real dot product of float
views, so the KKT system, y, the step lengths and the diagonal block stay
real.  For real data the conjugate and the float view are the arrays
themselves, so a real block does the arithmetic of the real symmetric cone.

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
ed., section 16.2).  One SVD of E gives its rank, an orthonormal basis Z of
its null space and the min-norm solution ``y_p`` of ``E y = f``; an
inconsistent system is rejected there.  Then ``T = [y_p, Z]`` and
``v = (theta, w)``: the one equality left, ``theta = 1``, is the only
bordered row of the KKT system, which is solved by pivoted LU
factorisation.  The start ``theta = 0, w = 0`` is the start ``y = 0``
of the full problem, and its iterates stay in ``{c y_p + Z w}``, so in
exact arithmetic the reduced iteration takes the steps of the full one on
``1 + n - rank(E)`` instead of n variables.  Residuals, the objective and
``y`` are reported in the original variables.

Every 1x1 cone (each finite box bound and the ``tau >= 0`` shift) lives in
one diagonal (LP) block.  Each problem's iterate is one flat row of floats:
the float view of every dense block in turn (real and imaginary parts
alternating for complex data), then the diagonal block.  X, S, the search
directions, the constants and the residuals are such rows, and one
``(P, k, total)`` coefficient matrix over every block serves the operator
and the adjoint.  So the operator, the adjoint, every trace product, the
residuals and every elementwise step take one numpy call for all blocks;
a block's multiplicity is a weight on its columns.  The diagonal block is
no block object: its inverse, products, Schur term, ratio test and
positivity check are elementwise arithmetic on the trailing columns of the
rows.  The Schur term, the factors and the step search stay per dense
block, on views of the rows.  X and S of a dense block are factored
together once per iteration, in one call: the inverse Cholesky factors
``[L_X^-1, L_S^-1]`` give ``S^-1 = L^-H L^-1``, and with their conjugate
transposes, made once per iteration, they are the pairs of both
step-length searches, each one ``eigvalsh(L^-1 dM L^-H)`` (``L^-T`` for
real blocks) per block over the primal and the dual direction stacked.
Factors, inverses and eigenvalues come from numpy's own LAPACK gufuncs,
called without the ``np.linalg`` wrappers and their checks: a slice that
LAPACK fails on comes back NaN and is read as a mask, with no exception
and no retry one slice at a time.  The KKT systems go through the
``solve`` gufunc (a pivoted LU, ``dgesv``) the same way: the predictor,
the corrector and each refinement step are one call for the whole batch,
and refinement runs on the problems whose residual is above roundoff.
The rows an iteration writes and reads back in between (S^-1, the
residuals, the products and the directions) are scratch rows of the
batch, whose block views are made once per batch size, so an iteration
makes few numpy calls; this is the fixed cost a batch of one pays.
Numpy is the only dependency.

:func:`solve_many` groups a list of problems once, sets each group up in
one pass and runs it as one lockstep batch, in the manner of the batched
interior-point method of OptNet (Amos & Kolter, ICML 2017).  A group is
the problems that share their objective, equality rows and bounds (by
identity), the variable indices and real or complex data of every block's
coefficient list, and their block sides, multiplicities and real or
complex constants.  So a group has one T, one variable count and one
shape of every block.  Its shared parts are validated and lowered once,
with one SVD of its equality rows; its constants and the coefficient
lists that are not one shared list are validated as stacks, and ``T^T A``
is one batched gemm per block, so no set-up runs one problem at a time.
Set-up stops at the first check that fails; a list that fails is then set
up again one problem at a time, in input order, so it raises the error
its first invalid problem raises alone.

The problems of a group advance together: every iterate is a stack with
one slice per problem, and one numpy call serves the whole batch; a group
too large for ``BATCH_BYTES`` runs as several batches.  Each problem
keeps its own constants, coefficient stacks (one stack serves the batch
when every problem shares it), step lengths, ``recenter`` flag, best
iterate and step count, and a problem that converges or fails leaves the
batch.  Per slice the arithmetic is the same whatever else is in the
batch, so every problem gets bitwise the result it gets alone;
:func:`solve` is the batch of one.

A search direction with a non-finite entry or a non-finite or exactly
singular KKT matrix ends the problem as ``numerical_failure`` before
anything is stepped.  The fraction-to-boundary rule keeps X and S inside
the cone, so a factor of either that fails is roundoff at the cone
boundary: X is factored again after flooring its spectrum, and a factor
that still fails, or one of S, stalls the problem, which ends as
``max_iter`` with its best iterate.

Everything is deterministic: no randomisation enters the iteration, so
identical problems produce identical iterate sequences.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 100
# Fraction-to-boundary factor for the final step length.
STEP_FRACTION = 0.98
SYM_TOL = 1e-11
# Bytes of KKT matrices and Schur intermediates one lockstep batch may
# hold; a larger group of same-structure problems runs as several batches.
BATCH_BYTES = 1 << 26

# numpy's own LAPACK gufuncs, the kernels behind ``np.linalg.cholesky``,
# ``inv``, ``eigvalsh`` and ``solve`` (a pivoted LU, ``dgesv``), called
# without the wrappers' checks.  A slice that LAPACK fails on comes back NaN
# and raises the floating-point invalid flag, which the wrappers turn into
# ``LinAlgError``; here the flag is ignored and the NaN read as a mask.
_CHOLESKY = _umath_linalg.cholesky_lo
_INV = _umath_linalg.inv
_EIGVALSH = _umath_linalg.eigvalsh_lo
_SOLVE = _umath_linalg.solve1
# Reductions called as ufunc methods: one C call each, without the
# Python-level dispatch of the ndarray methods and of ``count_nonzero``.
_ALL = np.logical_and.reduce
_ANY = np.logical_or.reduce
_MAX = np.maximum.reduce

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


def _hermitian_part(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, str]:
    """The Hermitian parts of a ``(B, m, m)`` stack, the mask of slices that
    differ from their conjugate transpose by more than ``SYM_TOL`` times
    their largest entry (at least 1), and the word for what they must be."""
    m_h = m.conj().transpose(0, 2, 1)
    scale = _MAX(np.abs(m), axis=(1, 2), initial=1.0)
    # One scratch stack serves both the check and the Hermitian part.
    work = np.subtract(m, m_h)
    bad = _MAX(np.abs(work), axis=(1, 2), initial=0.0) > SYM_TOL * scale
    np.add(m, m_h, out=work)
    work *= 0.5
    return work, bad, "Hermitian" if np.iscomplexobj(m) else "symmetric"


def _check_coeffs(lists: list, k: int, dim: int, n: int) -> tuple:
    """Variable indices and Hermitian-part coefficient stacks of block k.

    ``lists`` holds the block's coefficient list of every problem of a
    group, or the one list they all share; every list has the indices of
    the first (see :func:`_signature`).  Returns the indices and a
    ``(len(lists), len(idx), dim, dim)`` stack, float64 for real
    coefficients and complex128 when any is complex.  The first check that
    fails raises its ``ValueError``, for whichever list it fails.
    """
    indices = [i for i, _ in lists[0]]
    wrong = [i for i in indices if not isinstance(i, (int, np.integer))]
    if wrong:
        raise ValueError(f"block {k} variable index {wrong[0]} must be an integer")
    idx = np.array(indices, dtype=int)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        out = (idx < 0) | (idx >= n)
        raise ValueError(f"block {k} references variable {idx[out][0]} out of range")
    stack = []
    for coeffs in lists:
        mats = np.asarray([a for _, a in coeffs])
        if idx.size and mats.shape[1:] != (dim, dim):
            raise ValueError(f"block {k} coefficients must be {dim}x{dim}, got {mats.shape[1:]}")
        stack.append(mats.reshape(len(idx), dim, dim))
    mats = _stack(stack)
    mats = mats.astype(complex if np.iscomplexobj(mats) else float, copy=False)
    finite = _ALL(np.isfinite(mats), axis=(2, 3))
    if not _ALL(finite, axis=None):
        raise ValueError(f"block {k} coefficient {idx[np.argwhere(~finite)[0, 1]]} must be finite")
    part, bad, kind = _hermitian_part(mats.reshape(-1, dim, dim))
    if _ANY(bad):
        bad = bad.reshape(finite.shape)
        raise ValueError(f"block {k} coefficient {idx[np.argwhere(bad)[0, 1]]} must be {kind}")
    return idx, part.reshape(mats.shape)


def _cholesky(m: np.ndarray, repair: bool) -> np.ndarray:
    """Cholesky factor of one matrix, flooring its spectrum first on
    ``repair``; ``LinAlgError`` where it has none."""
    if repair:
        w, v = np.linalg.eigh(m)
        if not w[-1] > 0:
            raise np.linalg.LinAlgError("no positive eigenvalue to repair from")
        m = (v * np.maximum(w, w[-1] * 1e-14)) @ v.conj().T
    ell = _CHOLESKY(m)
    if not np.isfinite(ell[-1, -1]):
        raise np.linalg.LinAlgError("matrix is not positive definite")
    return ell


def _inv_chol(m: np.ndarray, repair: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Inverses ``L^-1`` of the Cholesky factors of a stack ``m = L L^H`` of
    any leading shape.

    Returns the factors and a mask of the slices that have one.  LAPACK
    fills a slice it cannot factor with NaN, and a non-finite entry of the
    lower triangle reaches the last pivot, so the mask reads the last
    diagonal entry of every factor.  With ``repair`` a slice that roundoff
    pushed onto the cone boundary is factored after flooring its spectrum
    instead; only a spectrum without a positive eigenvalue still fails.  A
    slice without a factor gets an identity placeholder.  Like the other
    kernels, it runs under the errstate of :func:`_lockstep`.
    """
    ell = _CHOLESKY(m)
    ok = np.isfinite(ell[..., -1, -1])
    if not _ALL(ok, axis=None):
        n = m.shape[-1]
        # Views of the factors and of the mask, one slice per row.
        flat, ok_flat, mats = ell.reshape(-1, n, n), ok.reshape(-1), m.reshape(-1, n, n)
        for i in (~ok_flat).nonzero()[0]:
            try:
                flat[i] = _cholesky(mats[i], repair)
                ok_flat[i] = True
            except np.linalg.LinAlgError:
                flat[i] = np.eye(n)
    return _INV(ell), ok


def _sym(m: np.ndarray) -> np.ndarray:
    """The Hermitian parts of a stack of matrices (of any leading shape)."""
    out = m + m.conj().mT
    out *= 0.5
    return out


def _take(a, keep: np.ndarray):
    """The rows ``keep`` of a per-problem stack; a stack of one slice is
    shared by the batch and stays."""
    return a if len(a) == 1 else a[keep]


class _DenseBlock:
    """One dense PSD block of a lockstep batch, real symmetric or complex
    Hermitian, with real solver variables.

    The block owns the columns ``cols`` of the flat iterate (see
    :func:`_lockstep`): the float view of its ``m x m`` matrix, real and
    imaginary parts alternating for complex data.  ``mat`` views them as a
    stack of matrices of the block's dtype.  The block keeps what stays
    per block: the Schur term, the factor, the step search and the slack
    eigenvalue.  ``aflat`` holds its coefficient stack, ``(P, k, m*m)``
    with one row per solver variable: P is 1 when every problem of the
    batch shares the stack, and the batch size when each has its own.
    ``aview`` is its float view, the block's columns of the coefficient
    matrix of the batch, and ``arows`` its ``(P, k*m, m)`` view, the left
    factor of the Schur term.

    Every transpose that stands for the adjoint is a conjugate transpose,
    and every trace is real: ``Re Tr(A X) = Re sum_ab A_ab conj(X_ab)`` for
    Hermitian X is the dot product of the float views, so the adjoint and
    every trace product are real dot products of rows, and the last stage
    of the Schur term is a real gemm (over ``2*m*m`` columns for complex
    data).  A block of multiplicity ``w`` holds one of its ``w`` identical
    copies: its Schur term counts ``w`` times, its columns carry the weight
    ``w`` in every trace product and in the adjoint (see :class:`_Layout`),
    and step lengths and eigenvalues are those of one copy.

    A slice that LAPACK fails on comes back NaN: a failed factor clears the
    slice in the mask :func:`_inv_chol` returns, and a failed eigensolve
    gives a NaN slack or step, which :func:`_lockstep` ends the problem on.
    The eigensolves run under the errstate of :func:`_lockstep`.
    """

    def __init__(self, cols: slice, dim: int, aflat: np.ndarray, w: int):
        self.cols = cols
        self.dim = dim
        self.dtype = aflat.dtype
        self.w = w
        self._set(aflat)

    def _set(self, aflat: np.ndarray) -> None:
        self.aflat = aflat
        self.aview = aflat.view(float)
        self.arows = aflat.reshape(len(aflat), -1, self.dim)

    def __len__(self) -> int:
        return len(self.aflat)

    def __getitem__(self, keep: np.ndarray) -> _DenseBlock:
        """The block of the problems ``keep``."""
        out = copy.copy(self)
        out._set(self.aflat[keep])
        return out

    def mat(self, v: np.ndarray) -> np.ndarray:
        """The block's columns of the flat rows ``v`` (of any leading
        shape) as a stack of matrices, a view of ``v``."""
        return v[..., self.cols].view(self.dtype).reshape(*v.shape[:-1], self.dim, self.dim)

    def schur(self, x: np.ndarray, s_inv: np.ndarray) -> np.ndarray:
        """HKM Schur blocks ``M_ij = Re Tr(A_i X A_j S^-1)``, one gemm per
        stage; the last stage is a real gemm."""
        k, m = self.aflat.shape[1], self.dim
        a_sinv = (self.arows @ s_inv).reshape(-1, k, m, m)
        xas = (x[:, None] @ a_sinv).reshape(-1, k, m * m).view(float)
        out = self.aview @ xas.mT
        if self.w != 1:
            out *= self.w
        return out

    @staticmethod
    def min_slack(m: np.ndarray) -> np.ndarray:
        """Smallest eigenvalue per slice, nan where the eigensolver fails."""
        return _EIGVALSH(m)[..., 0]

    factor = staticmethod(_inv_chol)

    @staticmethod
    def step_eig(li: np.ndarray, dm: np.ndarray, li_h: np.ndarray) -> np.ndarray:
        """Smallest eigenvalue of ``L^-1 dM L^-H`` per slice of any leading
        shape, from ``li = L^-1`` of M and ``li_h``, its conjugate
        transpose; nan where the eigensolver fails."""
        return _EIGVALSH(_sym(li @ dm @ li_h))[..., 0]


def _eig_step(lam: np.ndarray) -> np.ndarray:
    """Largest a >= 0 with M + a*dM still PSD, from the smallest eigenvalue
    ``lam`` of ``L^-1 dM L^-H``: ``-1/lam``, np.inf where ``lam`` is not
    negative, nan where it is.  The map never decreases as ``lam`` grows,
    so the step of the smallest eigenvalue over several blocks is exactly
    the smallest of their steps."""
    return np.where(lam >= -1e-13, np.inf, -1.0 / np.minimum(lam, -1e-13))


def _lp_max_step(m: np.ndarray, dm: np.ndarray) -> np.ndarray:
    """Largest a >= 0 with m + a*dm >= 0 entrywise, per row of the last
    axis (np.inf if unbounded): the ratio test of the diagonal block."""
    # The ratios of entries that do not decrease are never formed; one
    # that overflows is an unbounded step along its entry (the overflow
    # flag is ignored with every other one in :func:`_lockstep`).
    ratio = np.empty_like(m)
    ratio.fill(np.inf)
    np.divide(m, -dm, out=ratio, where=dm < 0.0)
    return ratio[..., 0] if ratio.shape[-1] == 1 else np.minimum.reduce(ratio, axis=-1)


def _null_space(e: np.ndarray, f: np.ndarray) -> np.ndarray:
    """``T = [y_p, Z]``: ``E y = f`` exactly when ``y = y_p + Z w``.

    One SVD ``E = U S V^T`` of the ``(m, n)`` rows gives the rank r of E,
    the count of singular values above ``1e-12 * max(1, s_max)``, the
    orthonormal null-space basis ``Z = V[:, r:]`` and the min-norm solution
    ``y_p = V[:, :r] S_r^-1 U[:, :r]^T f``; the rows beyond the rank only
    have to be consistent with it.
    """
    u, s, vt = np.linalg.svd(e)
    keep = s > 1e-12 * max(1.0, s.max(initial=0.0))
    coef = np.divide(np.vecmat(f, u)[: s.size], s, out=np.zeros_like(s), where=keep)
    y_p = np.vecmat(coef, vt[: s.size])
    if np.abs(np.matvec(e, y_p) - f).max(initial=0.0) > 1e-9 * (1.0 + np.abs(f).max(initial=0.0)):
        raise ValueError("equality constraints are inconsistent")
    return np.concatenate([y_p[:, None], vt[np.count_nonzero(keep) :].T], axis=1)


class _Reduction(NamedTuple):
    """Equality rows ``E y = f`` as the solver uses them.

    ``t = [y_p, Z]`` maps ``(theta, w)`` to y; ``z`` and ``yp_pinv`` (the
    pseudo-inverse ``y_p / |y_p|^2`` of the column ``y_p``, 0 when f = 0)
    give the dual residual in the original variables, and ``et = E T`` the
    deviation ``|E T (theta, w) - f|`` from the original rows.
    """

    t: np.ndarray
    z: np.ndarray
    yp_pinv: np.ndarray
    et: np.ndarray
    f: np.ndarray


def _reduction(e: np.ndarray, f: np.ndarray, t: np.ndarray) -> _Reduction:
    """The reduction of the rows ``E``, ``f`` and their basis ``T``."""
    yp = t[:, 0]
    norm2 = np.vecdot(yp, yp)
    yp_pinv = np.divide(yp, norm2, out=np.zeros_like(yp), where=norm2 > 0.0)
    return _Reduction(t, np.ascontiguousarray(t[:, 1:]), yp_pinv, e @ t, f)


@dataclass
class _Part:
    """One group of problems in the variables ``v`` the solver iterates on.

    Every problem is solved in ``y = T v``, with one T for the group.  With
    equality rows ``E y = f``, ``T = [y_p, Z]`` (see :func:`_null_space`),
    ``v = (theta, w)`` with the one equality ``theta = 1``, and ``red``
    holds the reduction; without them ``T = I`` and ``v = y``.  Every
    solver variable enters every block, and the last one is always the
    big-M shift ``tau``.

    ``index`` holds the positions of the problems in the input list.  The
    stacks ``cs`` and ``coeffs`` have one row per problem, or one row that
    every problem shares.
    """

    index: np.ndarray
    b: np.ndarray  # (k-1,) objective T^T b in the solver's variables
    b_scale: float  # 1 + max|b| of the original objective
    cs: list[np.ndarray]  # (B or 1, m, m) Hermitian-part block constants, then (1, r) box constants
    coeffs: list[np.ndarray]  # (P, k, m*m) coefficient stack per dense block, real or complex
    ws: tuple[int, ...]  # multiplicity per dense block
    diag: np.ndarray  # (1, r, k) rows of the diagonal block
    red: _Reduction | None

    def __len__(self) -> int:
        return len(self.index)


def _stack(arrays: list) -> np.ndarray:
    """The arrays as one stack; one array is a view of it."""
    return np.asarray(arrays[0])[None] if len(arrays) == 1 else np.stack(arrays)


def _coeff_key(coeffs: list, keys: dict) -> tuple:
    """The variable indices of a coefficient list and whether any of its
    matrices is complex, once per list in ``keys`` (by identity)."""
    key = keys.get(id(coeffs))
    if key is None:
        key = keys[id(coeffs)] = (
            tuple(i for i, _ in coeffs), any(np.iscomplexobj(a) for _, a in coeffs)
        )
    return key


def _signature(problem: SdpProblem, keys: dict | None = None) -> tuple:
    """What the problems of one group share: the identity of the objective,
    the equality rows and the bounds, the variable indices and real or
    complex data of each block's coefficient list, and the shapes and real
    or complex data of the constants.  ``keys`` keeps the key of each
    coefficient list seen, so that a list shared by many problems is read
    once."""
    keys = {} if keys is None else keys
    return (
        problem.num_vars,
        id(problem.objective),
        id(problem.eq_matrix),
        id(problem.eq_rhs),
        id(problem.lower),
        id(problem.upper),
        tuple(
            (_coeff_key(blk.coeffs, keys), np.shape(blk.c), np.iscomplexobj(blk.c), id(blk.w))
            for blk in problem.blocks
        ),
    )


def _check_objective(objective, n: int) -> np.ndarray:
    b = _real_array(objective, "objective")
    if b.shape != (n,):
        raise ValueError(f"objective must have shape ({n},), got {b.shape}")
    if not _ALL(np.isfinite(b)):
        raise ValueError("objective must be finite")
    return b


def _check_bounds(problem: SdpProblem, n: int) -> dict[str, np.ndarray]:
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
    if not problem.blocks and not any(np.isfinite(bound).any() for bound in bounds.values()):
        raise ValueError("problem has no conic constraints")
    if len(bounds) == 2 and np.any(bounds["lower"] > bounds["upper"]):
        raise ValueError("box bounds have lower > upper")
    return bounds


def _check_rows(problem: SdpProblem, n: int) -> tuple[np.ndarray, np.ndarray]:
    """E (after ``atleast_2d``) and f, when both are given, real, finite and fit."""
    if problem.eq_matrix is None or problem.eq_rhs is None:
        raise ValueError("equality constraint shapes are inconsistent")
    e = np.atleast_2d(_real_array(problem.eq_matrix, "eq_matrix"))
    f = _real_array(problem.eq_rhs, "eq_rhs")
    if e.ndim != 2 or e.shape[1] != n or f.shape != (e.shape[0],):
        raise ValueError("equality constraint shapes are inconsistent")
    if not (_ALL(np.isfinite(e), axis=None) and _ALL(np.isfinite(f))):
        raise ValueError("equality constraints must be finite")
    return e, f


def _symmetrised(c: np.ndarray, name: str) -> np.ndarray:
    """The Hermitian parts of a ``(B, m, m)`` stack of constants; a slice
    that is not finite or not Hermitian raises ``ValueError``."""
    if not _ALL(np.isfinite(c), axis=None):
        raise ValueError(f"{name} must be finite")
    part, bad, kind = _hermitian_part(c)
    if _ANY(bad):
        raise ValueError(f"{name} must be {kind}")
    return part


def _lowered_coeffs(t: np.ndarray, idx: np.ndarray, mats: np.ndarray, dtype) -> np.ndarray:
    """``T^T A`` of one block for every coefficient stack of ``mats``, the
    shift row last: one batched gemm; repeated rows add up, and a complex
    stack is multiplied on its float view."""
    count, nv, side = len(mats), t.shape[1], mats.shape[-1]
    out = np.empty((count, nv + 1, side * side), dtype=dtype)
    flat = mats.astype(dtype, copy=False).reshape(count, len(idx), side * side).view(float)
    np.matmul(t[idx].T, flat, out=out[:, :nv].view(float))
    out[:, nv] = -np.eye(side).ravel()
    return out


def _check_group(first: SdpProblem, mine: list[SdpProblem]) -> tuple:
    """Run the checks of :func:`solve` on a group, in its order.

    The first check that fails raises its ``ValueError``, whether it checks
    shared data or a stack of per-problem data; :func:`_prepare` finds the
    problem at fault.  Returns the shared objective and bounds, the
    constants as ``(B, m, m)`` stacks (of one slice when every problem
    shares its constant), the coefficients as ``(idx, mats, dtype)`` per
    block (``mats`` of one slice, or of one per problem when each has its
    own list), and ``(E, f, T)`` of the shared equality rows and their
    basis (see :func:`_null_space`), None without rows.
    """
    n = first.num_vars
    b = _check_objective(first.objective, n)
    bounds = _check_bounds(first, n)

    rows = None
    if first.eq_matrix is not None or first.eq_rhs is not None:
        e, f = _check_rows(first, n)
        if len(e):
            rows = e, f, _null_space(e, f)

    cs, coeffs = [], []
    for k, blk in enumerate(first.blocks):
        if not isinstance(blk.w, (int, np.integer)) or blk.w < 1:
            raise ValueError(f"block {k} multiplicity must be a positive integer, got {blk.w!r}")
        shared = all(p.blocks[k].c is blk.c for p in mine)
        c = _stack([p.blocks[k].c for p in (mine[:1] if shared else mine)])
        if c.ndim != 3 or c.shape[1] != c.shape[2]:
            raise ValueError(f"block {k} constant must be square, got {c.shape[1:]}")
        c = _symmetrised(c.astype(complex if np.iscomplexobj(c) else float, copy=False),
                         f"block {k} constant")
        one_list = all(p.blocks[k].coeffs is blk.coeffs for p in mine)
        lists = [p.blocks[k].coeffs for p in (mine[:1] if one_list else mine)]
        idx, mats = _check_coeffs(lists, k, c.shape[1], n)
        # A complex constant or coefficient makes the whole block complex.
        dtype = np.result_type(c, mats)
        cs.append(c.astype(dtype, copy=False))
        coeffs.append((idx, mats, dtype))
    return b, bounds, cs, coeffs, rows


def _prepare_group(problems: list[SdpProblem], members: list[int]) -> _Part:
    """Validate one group of problems and write it in the solver's variables.

    The shared objective, bounds, equality rows and coefficient lists are
    checked and lowered once, with one SVD of the rows (see
    :func:`_null_space`) and one T for the group; constants and coefficient
    lists of the problems' own are checked and lowered as stacks, so nothing
    is set up one problem at a time.  Raises the ``ValueError`` of the first
    check that fails.
    """
    first = problems[members[0]]
    b, bounds, cs, checked, rows = _check_group(first, [problems[i] for i in members])
    t = np.eye(first.num_vars) if rows is None else rows[2]
    nv = t.shape[1]

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
    diag = np.zeros((1, len(box) + 1, nv + 1))
    diag[0, :-1, :nv] = signs[:, None] * t[box_rows]
    diag[0, :, nv] = -1.0
    return _Part(
        index=np.asarray(members),
        b=t.T @ b,
        b_scale=1.0 + float(_MAX(np.abs(b), initial=0.0)),
        cs=cs + [box_c[None]],
        coeffs=[_lowered_coeffs(t, idx, mats, dtype) for idx, mats, dtype in checked],
        ws=tuple(blk.w for blk in first.blocks),
        diag=diag,
        red=None if rows is None else _reduction(*rows),
    )


def _prepare(problems: list[SdpProblem]) -> list[_Part]:
    """Validate every problem and write it in the solver's variables.

    Problems are grouped by :func:`_signature`, and each group is set up in
    one pass as one part (see :func:`_prepare_group`): its problems share
    every shape a lockstep batch needs.

    Set-up raises at the first check that fails.  A list of several
    problems that fails is then set up again one problem at a time, in
    input order, so the error raised is the one the first invalid problem
    raises alone; should none raise alone, the list's own error stands.
    """
    groups: dict[tuple, list[int]] = {}
    keys: dict = {}
    for i, p in enumerate(problems):
        groups.setdefault(_signature(p, keys), []).append(i)
    try:
        return [_prepare_group(problems, members) for members in groups.values()]
    except ValueError as exc:
        if len(problems) == 1:
            raise
        error = exc
    # Outside the handler, so that a problem's own error is not chained to
    # the list's.
    for p in problems:
        _prepare([p])
    raise error


class _Rows:
    """Per-problem arrays of a lockstep batch, row i for problem i.

    A list or tuple attribute holds one array per block.  ``take`` keeps
    the rows of the problems still running, so a problem that leaves the
    batch costs nothing further.  An array of one row while the batch
    holds more is shared by the batch and broadcast; ``take`` leaves it as
    it is.
    """

    def take(self, keep: np.ndarray) -> None:
        for name, v in vars(self).items():
            per_block = isinstance(v, (list, tuple))
            setattr(self, name, [_take(a, keep) for a in v] if per_block else _take(v, keep))


class _PairRows(_Rows):
    """The pair stacks of a lockstep batch: entry 0 of the first axis is X,
    its factor ``L_X^-1`` or dx, entry 1 is S, ``L_S^-1`` or ds, and the
    second axis holds the problems, so each half is one contiguous stack.
    ``take`` keeps the problems ``keep`` along that axis."""

    def take(self, keep: np.ndarray) -> None:
        for name, v in vars(self).items():
            per_block = isinstance(v, (list, tuple))
            setattr(self, name, [a[:, keep] for a in v] if per_block else v[:, keep])


class _Layout(NamedTuple):
    """The blocks of a lockstep batch laid out side by side in one flat row.

    ``blocks`` holds the dense blocks, each with its columns, and ``lp``
    the columns of the diagonal block, the last ones.  Per column,
    ``weight`` is the multiplicity of its block and ``eye`` the entry of
    the identity; ``sign * v[:, perm]`` is the conjugate transpose of every
    block of the rows ``v``, and ``sign`` is None when every block is real
    (it would be all ones).
    """

    blocks: list
    lp: slice
    weight: np.ndarray
    eye: np.ndarray
    perm: np.ndarray
    sign: np.ndarray | None


@functools.lru_cache(maxsize=256)
def _columns(shapes: tuple, r: int) -> tuple:
    """The columns of dense blocks of ``shapes`` (side, floats per entry and
    multiplicity of each) laid out in turn and of an r-entry diagonal block
    after them, and the per-column arrays of :class:`_Layout`: made once per
    shape, and read only."""
    cols, weight, eye, perm, sign = [], [], [], [], []
    start = 0
    for side, parts, w in shapes:
        size = side * side * parts
        cols.append(slice(start, start + size))
        weight.append(np.full(size, float(w)))
        eye.append(np.eye(side, dtype=complex if parts == 2 else float).reshape(-1).view(float))
        # Entry (i, j) of the conjugate transpose is entry (j, i), with
        # its imaginary part negated.
        entries = np.arange(side * side).reshape(side, side).T.reshape(-1)
        perm.append(start + (parts * entries[:, None] + np.arange(parts)).reshape(-1))
        sign.append(np.tile([1.0, -1.0][:parts], side * side))
        start += size
    weight.append(np.ones(r))
    eye.append(np.ones(r))
    perm.append(start + np.arange(r))
    sign.append(np.ones(r))
    flat = list(map(np.concatenate, (weight, eye, perm, sign)))
    for a in flat:
        a.flags.writeable = False
    if all(parts == 1 for _, parts, _ in shapes):
        flat[-1] = None
    return cols, slice(start, start + r), *flat


def _layout(part: _Part) -> _Layout:
    """The flat layout of a part: every dense block's float view in turn,
    real and imaginary parts alternating for complex data, then the
    diagonal block."""
    shapes = tuple((c.shape[1], a.itemsize // 8, w)
                   for c, a, w in zip(part.cs, part.coeffs, part.ws))
    cols, lp, *flat = _columns(shapes, part.diag.shape[1])
    blocks = [_DenseBlock(col, side, a, w)
              for col, (side, _, w), a in zip(cols, shapes, part.coeffs)]
    return _Layout(blocks, lp, *flat)


# Columns of ``_Rows.met``: the residual metrics of the current iterate and
# the step count that reached it.
_WORST, _GAP, _PRES, _DRES, _DOBJ, _TAU, _STEPS = range(7)


@np.errstate(all="ignore")
def _lockstep(part: _Part, tol: float, max_iter: int) -> list[SdpSolution]:
    """Run the interior-point iteration on the problems of one part.

    Each problem's X, S, search directions, constants and residuals are one
    flat float row (see :func:`_layout`), so the operator, the adjoint,
    every trace product, the residuals and every elementwise step are one
    numpy call over all blocks; the Schur term, the factors and the step
    search stay per dense block, on views of the rows.  The operator and
    the adjoint use one ``(P, k, total)`` coefficient matrix over all
    blocks, the diagonal one included, and the multiplicities enter as a
    weight per column.  The diagonal block is no block object: its
    inverse, products, Schur term, ratio test and positivity check are
    arithmetic on the trailing columns ``lp`` of the rows.  Each KKT solve
    is one ``solve`` gufunc call over the batch.  Floating-point flags are
    ignored for the whole run: a slice that LAPACK fails on, an exactly
    singular KKT matrix among them, reads as NaN, and every failure is
    caught by the checks below.

    The loop makes few numpy calls per iteration.  Rows that are written
    and read between two checks that can end problems (S^-1, r_d, the
    operator row, the product rows, the stacked step directions and the
    shifted slack) live in scratch rows whose block views are made once
    per batch size.  Whatever is read after such a check is also kept in
    row objects, so ``take`` carries it when a problem leaves, and the
    scratch rows are made again for the smaller batch: the state ``st``
    that outlives an iteration, and the rows of the current iteration,
    ``itr``, and its pair stacks ``itp`` (:class:`_PairRows`), made anew
    at the top of each iteration, so that a problem converging there does
    not copy the rows of the iteration before.  X and S are stacked as
    ``(2, B, total)`` and factored in one call per block; their factors,
    the pairs ``[L_X^-1, L_S^-1]`` of the step search, ``(2, B, m, m)`` per
    block, and their conjugate transposes are built once per iteration for
    both searches, and the directions are stacked the same way, so one
    eigensolve per block serves the primal and the dual step.

    Every problem has its own step lengths, ``recenter`` flag, best iterate
    and step count; whatever ends one problem (convergence, a failed
    factorisation, a singular KKT matrix, a non-finite direction, a tiny
    step) ends only that one, with the result it gets when solved alone.
    Results come back in the order of ``part.index``.
    """
    nv = len(part.b)
    tau_idx = nv
    count = len(part)
    # With equality rows the solver's variable 0 is theta, held at 1 by the
    # one row of the bordered KKT system; without them (``red`` is None)
    # every term it feeds is skipped.
    red = part.red
    q = int(red is not None)
    lay = _layout(part)
    lp = lay.lp
    total = len(lay.weight)
    # The diagonal block: its rows g over the solver variables, shared by
    # the batch, and their transpose, its columns of the coefficient matrix.
    g = part.diag
    g_t = np.ascontiguousarray(g.transpose(0, 2, 1))
    boxes = g.shape[1] > 1
    # The barrier parameter counts every copy of a block.
    m_total = sum(blk.w * blk.dim for blk in lay.blocks) + g.shape[1]

    st = _Rows()
    st.pos = np.arange(count)
    st.blocks = lay.blocks
    st.a = np.empty((max(map(len, lay.blocks), default=1), nv + 1, total))
    st.c = np.empty((count, total))
    for blk, c in zip(lay.blocks, part.cs):
        st.a[:, :, blk.cols] = blk.aview
        blk.mat(st.c)[...] = c
    st.a[:, :, lp] = g_t
    st.c[:, lp] = part.cs[-1]
    m_pen = 1e4 * part.b_scale
    b_aug = np.append(part.b, -m_pen)

    def views(v: np.ndarray) -> list[np.ndarray]:
        """Every block's columns of the rows ``v`` (of any leading shape):
        each dense block's stack, and last the diagonal block's columns."""
        return [blk.mat(v) for blk in st.blocks] + [v[..., lp]]

    def scratch(n: int) -> _Rows:
        """Scratch rows of a batch of n problems and their block views: the
        ``(n, total)`` rows ``shifted`` (S - tau I), ``s_inv``, ``r_d``,
        ``op`` (the operator row), ``p_xr``, ``prod`` and ``corr`` (the
        product rows) with their views ``<name>_m``, and the stacked step
        directions ``d``, ``(2, n, total)`` with dx in ``d[0]`` and ds in
        ``d[1]``."""
        sc = _Rows()
        sc.ok = np.ones((2, n), dtype=bool)
        rows = np.empty((7, n, total))
        sc.shifted, sc.s_inv, sc.r_d, sc.op, sc.p_xr, sc.prod, sc.corr = rows
        # One view per block and row, as a tuple per row.
        (sc.shifted_m, sc.s_inv_m, sc.r_d_m, sc.op_m, sc.p_xr_m, sc.prod_m,
         sc.corr_m) = zip(*views(rows))
        sc.d = np.empty((2, n, total))
        sc.d_m = views(sc.d)
        sc.dx_m, sc.ds_m = zip(*[(v[0], v[1]) for v in sc.d_m])
        return sc

    def lowest(mats: list[np.ndarray]) -> np.ndarray:
        """Smallest slack eigenvalue per problem over the blocks ``mats``;
        the shift entry of the diagonal block is left out."""
        lows = [blk.min_slack(m) for blk, m in zip(st.blocks, mats)]
        if boxes:
            lows.append(np.minimum.reduce(mats[-1][:, :-1], axis=1))
        return functools.reduce(np.minimum, lows)

    scr = scratch(count)
    lam0 = np.maximum(1.0, 1.0 - lowest(views(st.c)))
    st.tau_cap = 1e-6 * (1.0 + lam0)
    st.y = np.zeros((count, nv + 1))
    st.y[:, tau_idx] = lam0

    def set_iterate(xs: np.ndarray) -> None:
        """X and S from their stack ``xs``, ``(2, B, total)``, with the
        views of every block: ``xsm`` of both, ``xm`` of X."""
        nonlocal xsm, xm
        st.x, st.s = xs
        xsm = views(xs)
        xm = [v[0] for v in xsm]

    xsm = xm = None
    xs = np.empty((2, count, total))
    xs[0] = lay.eye
    xs[0, :, -1] = np.maximum(1.0, m_pen - (m_total - 1))
    np.subtract(st.c, np.vecmat(st.y, st.a), out=xs[1])
    set_iterate(xs)
    st.nu = np.zeros((count, q))
    st.recenter = np.zeros(count, dtype=bool)
    st.steps = np.zeros(count)
    # The best iterate so far.  Iterates are replaced, never written in
    # place, so the best one can share arrays with the current one.
    st.best_met = np.full((count, 7), np.inf)
    st.best_y, st.best_x = st.y, st.x

    out: list[SdpSolution | None] = [None] * count

    def sym(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The Hermitian part of every block of the rows ``v``, into ``out``
        when given."""
        half = v.take(lay.perm, axis=1, out=out)
        if lay.sign is not None:
            half *= lay.sign
        half += v
        half *= 0.5
        return half

    def products(a: list, b: list, c: list, out: np.ndarray, out_m: list) -> np.ndarray:
        """``a b c`` of every block's views into the rows ``out``, whose
        views are ``out_m``; the diagonal block's is elementwise."""
        for ak, bk, ck, abc in zip(a, b, c, out_m[:-1]):
            np.matmul(ak @ bk, ck, out=abc)
        np.multiply(a[-1] * b[-1], c[-1], out=out_m[-1])
        return out

    def metrics() -> None:
        # The shift entry of the diagonal block is left out of the slack
        # (see ``lowest``); its zero constant and its adjoint, which only
        # reaches ``tau``, add nothing to the objective or to ``dres``.
        yv, tau = st.y[:, :nv], st.y[:, tau_idx]
        np.multiply(tau[:, None], lay.eye, out=scr.shifted)
        np.subtract(st.s, scr.shifted, out=scr.shifted)
        pres = np.maximum(0.0, -lowest(scr.shifted_m))
        if red:
            # Feasibility of y = T (theta, w) for the original rows.
            eq_dev = _MAX(np.abs(np.matvec(red.et, yv) - red.f), axis=1, initial=0.0)
            pres = np.maximum(pres, eq_dev)
        # X summed over the copies of every block: the adjoint and every
        # trace product with X count each copy.
        st.xw = st.x * lay.weight
        st.adj_x = np.matvec(st.a, st.xw)
        dres = part.b - st.adj_x[:, :nv]
        if red:
            # In the original variables: multipliers nu of the rows with
            # f . nu equal to the multiplier of theta = 1, least squares
            # otherwise, leave Z r_w plus the theta residual along y_p.
            dres = np.matvec(red.z, dres[:, 1:]) + (dres[:, 0] - st.nu[:, 0])[:, None] * red.yp_pinv
        dres = _MAX(np.abs(dres), axis=1, initial=0.0) / part.b_scale
        pobj = np.vecdot(st.c, st.xw)
        if red:
            # The multiplier of theta = 1 is f . nu of the original rows.
            pobj = pobj + st.nu[:, 0]
        dobj = np.vecdot(part.b, yv)
        gap = np.abs(pobj - dobj) / (1.0 + np.maximum(np.abs(pobj), np.abs(dobj)))
        worst = np.maximum(np.maximum(gap, pres), dres)
        st.met = np.array([worst, gap, pres, dres, dobj, tau, st.steps]).T

    def finish(sel: np.ndarray, status: str) -> None:
        """Record the results of the selected problems; they leave the batch.

        Off the optimal path the best iterate seen stands in for the
        current one when its residuals are strictly smaller.
        """
        nonlocal scr
        for i in sel.nonzero()[0]:
            best = status != STATUS_OPTIMAL and st.best_met[i, _WORST] < st.met[i, _WORST]
            met, y, x = (
                (st.best_met, st.best_y, st.best_x) if best else (st.met, st.y, st.x)
            )
            yi = y[i, :nv]
            out[st.pos[i]] = SdpSolution(
                status=status,
                y=red.t @ yi if red else yi.copy(),
                objective_value=float(met[i, _DOBJ]),
                gap=float(met[i, _GAP]),
                primal_residual=float(met[i, _PRES]),
                dual_residual=float(met[i, _DRES]),
                iterations=int(met[i, _STEPS]),
                x_blocks=[blk.mat(x[i]).copy() for blk in st.blocks],
                shift=float(met[i, _TAU]),
            )
        if _ALL(sel):
            st.pos = st.pos[:0]
        else:
            for rows in (st, itr, itp):
                rows.take(~sel)
            set_iterate(np.stack((st.x, st.s)))
            scr = scratch(len(st.pos))

    def stop(ok: np.ndarray, broken: bool) -> bool:
        """End the problems not ``ok``; whether any problem is left.  The
        loop calls it only once a check fails: ``_ALL(ok) or stop(...)``."""
        if not _ALL(ok):
            finish(~ok, STATUS_NUMERICAL if broken else STATUS_MAX_ITER)
        return len(st.pos) > 0

    def factors() -> tuple[list, np.ndarray]:
        """Every dense block's factors ``[L_X^-1, L_S^-1]``, one ``(2, B, m,
        m)`` stack per block, and which problems have each, ``(2, B)``.  A
        factor of X that fails is made again after flooring the spectrum
        (see :func:`_inv_chol`); one of S is not."""
        facs, ok = [], scr.ok
        for blk, m in zip(st.blocks, xsm):
            fac, ok_k = blk.factor(m)
            if not _ALL(ok_k[0]):
                bad = (~ok_k[0]).nonzero()[0]
                fac[0, bad], ok_k[0, bad] = blk.factor(m[0, bad], True)
            facs.append(fac)
            ok = ok & ok_k
        return facs, ok

    def kkt_solve(rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The KKT systems of the rows ``rhs``, one pivoted LU solve for the
        batch, and which are finite.  An exactly singular matrix gives a NaN
        row.  One step of iterative refinement, again one solve, serves the
        rows whose residual is above roundoff."""
        sol = _SOLVE(itr.kkt, rhs)
        ok = _ALL(np.isfinite(sol), axis=1)
        every = _ALL(ok)
        if not every:
            sol[~ok] = 0.0
        resid = rhs - np.matvec(itr.kkt, sol)
        big = _MAX(np.abs(resid), axis=1) > 1e-13 * (1.0 + _MAX(np.abs(rhs), axis=1))
        if not every:
            big &= ok
        big = big.nonzero()[0]
        if big.size:
            sol[big] += _SOLVE(itr.kkt[big], resid[big])
        return sol, ok

    def directions(h: np.ndarray) -> tuple:
        """Newton direction for the right-hand side ``h``: dy and dnu, dx
        and ds stacked into ``scr.d``, and which are finite."""
        rhs = itr.r_p - np.matvec(st.a, h * lay.weight)
        sol, ok = kkt_solve(np.concatenate([rhs, itr.r_e], axis=1) if red else rhs)
        dy = sol[:, : nv + 1]
        op = np.vecmat(dy, st.a, out=scr.op)
        np.subtract(itr.r_d, op, out=scr.d[1])
        hx = np.add(h, products(xm, scr.op_m, itr.sim, scr.prod, scr.prod_m), out=scr.prod)
        dx = sym(hx, out=scr.d[0])
        # ds is finite with dy; dx also carries h.
        ok &= _ALL(np.isfinite(dx), axis=1)
        return dy, sol[:, nv + 1 :], ok

    def max_steps(dm: list[np.ndarray]) -> np.ndarray:
        """Largest primal (row 0) and dual (row 1) steps along the stacked
        directions ``dm``, one eigensolve per block for both."""
        steps = _lp_max_step(xsm[-1], dm[-1])
        if st.blocks:
            lam = functools.reduce(np.minimum, [
                blk.step_eig(li, dmk, li_h)
                for blk, li, li_h, dmk in zip(st.blocks, itp.pairs, itp.pairs_h, dm)
            ])
            steps = np.minimum(_eig_step(lam), steps)
        return steps

    for k in range(max_iter + 1):
        # The rows of this iteration; those of the last one are not read again.
        itr, itp = _Rows(), _PairRows()
        metrics()
        done = (st.met[:, _WORST] <= tol) & (st.met[:, _TAU] <= st.tau_cap)
        if k == max_iter:
            if _ANY(done):
                finish(done, STATUS_OPTIMAL)
            finish(np.ones(len(st.pos), dtype=bool), STATUS_MAX_ITER)
            break
        better = st.met[:, _WORST] < st.best_met[:, _WORST]
        if _ALL(better):
            st.best_met, st.best_y, st.best_x = st.met, st.y, st.x
        elif _ANY(better):
            st.best_met = np.where(better[:, None], st.met, st.best_met)
            st.best_y = np.where(better[:, None], st.y, st.best_y)
            st.best_x = np.where(better[:, None], st.x, st.best_x)
        if _ANY(done):
            finish(done, STATUS_OPTIMAL)
            if not len(st.pos):
                break

        itr.mu = np.vecdot(st.xw, st.s) / m_total
        # A non-finite mu is a numerical failure, mu <= 0 a stall.
        if not (_ALL(itr.mu > 0) or (
            stop(np.isfinite(itr.mu), broken=True) and stop(itr.mu > 0, broken=False)
        )):
            break

        # Residuals of the augmented problem drive the Newton step.
        itr.r_p = b_aug - st.adj_x
        if red:
            itr.r_p[:, 0] -= st.nu[:, 0]
            itr.r_e = 1.0 - st.y[:, :1]

        # Every step keeps S inside the cone by the fraction-to-boundary
        # rule, so a slack that loses its factor is roundoff at the cone
        # boundary: a stall, as a lost factor of X is.  The diagonal block
        # needs every entry positive for its inverse.  X is factored here
        # with S, in one call per block, and its factor is checked where
        # the step search needs it.  These are the pairs of the step search.
        itp.pairs, ok = factors()
        itr.x_ok = ok[0]
        ok = ok[1] & _ALL(st.s[:, lp] > 0.0, axis=1)
        if not (_ALL(ok) or stop(ok, broken=False)):
            break
        for li, sik in zip(itp.pairs, scr.s_inv_m):
            # S^-1 = L^-H L^-1.
            li = li[1]
            np.matmul(li.conj().mT, li, out=sik)
        np.divide(1.0, st.s[:, lp], out=scr.s_inv_m[-1])
        itr.s_inv, itr.sim = scr.s_inv, scr.s_inv_m
        itr.kkt = np.zeros((len(st.pos), nv + 1 + q, nv + 1 + q))
        schur = itr.kkt[:, : nv + 1, : nv + 1]
        for blk, xk, sik in zip(st.blocks, xm, itr.sim):
            schur += blk.schur(xk, sik)
        schur += (g_t * (st.x[:, lp] * itr.s_inv[:, lp])[:, None, :]) @ g
        if red:
            # The one bordered row: theta = 1.
            itr.kkt[:, 0, nv + 1] = itr.kkt[:, nv + 1, 0] = 1.0
        # A non-finite KKT matrix ends the problem instead of stepping
        # along inf/nan directions; LAPACK can return finite solutions of a
        # matrix with an infinite entry, so it is caught here.  An exactly
        # singular one ends it at the predictor's solve.
        ok = _ALL(np.isfinite(itr.kkt), axis=(1, 2))
        if not (_ALL(ok) or stop(ok, broken=True)):
            break

        itr.r_d = np.subtract(st.c - np.vecmat(st.y, st.a), st.s, out=scr.r_d)
        itr.p_xr = products(xm, scr.r_d_m, itr.sim, scr.p_xr, scr.p_xr_m)
        _, _, ok = directions(-st.x - itr.p_xr)
        itp.d_a, itp.d_am, itr.dx_am, itr.ds_am = scr.d, scr.d_m, scr.dx_m, scr.ds_m
        if not (_ALL(ok) or stop(ok, broken=True)):
            break
        ok = itr.x_ok
        if not (_ALL(ok) or stop(ok, broken=False)):
            break
        # Conjugate transposes of the step-search pairs, for both searches.
        itp.pairs_h = [li.conj().mT for li in itp.pairs]
        steps = np.minimum(1.0, max_steps(itp.d_am))
        itr.ap_a, itr.ad_a = steps
        ok = ~_ANY(np.isnan(steps), axis=0)
        if not (_ALL(ok) or stop(ok, broken=False)):
            break

        mu_aff = np.vecdot(
            (st.x + itr.ap_a[:, None] * itp.d_a[0]) * lay.weight,
            st.s + itr.ad_a[:, None] * itp.d_a[1],
        )
        # Per problem in Python floats, so that ``**`` is the C library's pow.
        sigma = np.array([
            max(min(1.0, max((max(ma, 0.0) / mu) ** 3, 1e-10)), 0.5 if rc else 0.0)
            for ma, mu, rc in zip((mu_aff / m_total).tolist(), itr.mu.tolist(), st.recenter.tolist())
        ])

        target = sigma * itr.mu
        h_cor = (
            target[:, None] * itr.s_inv - st.x - itr.p_xr
            - products(itr.dx_am, itr.ds_am, itr.sim, scr.corr, scr.corr_m)
        )
        itr.dy, itr.dnu, ok = directions(h_cor)
        itp.d, itp.d_m = scr.d, scr.d_m
        if not (_ALL(ok) or stop(ok, broken=True)):
            break
        steps = np.minimum(1.0, STEP_FRACTION * max_steps(itp.d_m))
        itr.a_p, itr.a_d = steps
        # A nan step is a failed eigensolve; two tiny steps are a stall.
        ok = ~_ANY(np.isnan(steps), axis=0) & _ANY(steps >= 1e-13, axis=0)
        if not (_ALL(ok) or stop(ok, broken=False)):
            break
        # From the rows left after ``stop``: ``steps`` still has the ended ones.
        st.recenter = np.minimum(itr.a_p, itr.a_d) < 0.1

        # dx leaves ``directions`` through ``sym``, so X stays exactly
        # Hermitian; ds comes from a BLAS product and S is symmetrised.
        xs = np.empty((2, len(st.pos), total))
        np.add(st.x, itr.a_p[:, None] * itp.d[0], out=xs[0])
        if red:
            st.nu = st.nu + itr.a_p[:, None] * itr.dnu
        st.y = st.y + itr.a_d[:, None] * itr.dy
        sym(st.s + itr.a_d[:, None] * itp.d[1], out=xs[1])
        set_iterate(xs)
        st.steps = st.steps + 1
    return out

def _batches(parts: list[_Part]) -> list[_Part]:
    """Cut the parts into lockstep batches of bounded memory.

    A batch holds its KKT matrices and the Schur intermediates of every
    problem at once, so it takes at most ``BATCH_BYTES`` of them.
    """
    out = []
    for part in parts:
        side = len(part.b) + 1 + (part.red is not None)
        # The coefficient stacks count twice more for problems that own them
        # (their own and the flat coefficient matrix of ``_lockstep``), the
        # arrays of the reduction (all but T) once.
        per_problem = (
            8 * side * side
            + sum(5 * a[0].nbytes for a in part.coeffs)
            + (8 * sum(a.size for a in part.red[1:]) if part.red is not None else 0)
        )
        size = max(1, BATCH_BYTES // per_problem)
        for i in range(0, len(part), size):
            keep = slice(i, i + size)
            out.append(replace(
                part, index=part.index[keep], cs=[_take(c, keep) for c in part.cs],
                coeffs=[_take(a, keep) for a in part.coeffs],
            ))
    return out


def solve_many(
    problems: list[SdpProblem],
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> list[SdpSolution]:
    """Solve a list of :class:`SdpProblem`; results come back in input order.

    Problems that share their objective, equality rows and bounds (by
    identity) and the variable indices of every coefficient list form a
    group, which is validated and lowered in one pass and advances as one
    lockstep batch, so a grid of same-structure programs pays the per-call
    overhead of set-up and of every iteration once per batch instead of
    once per point.  Each problem is one interior-point run and gets
    exactly the result :func:`solve` gives it alone.

    Raises ``ValueError`` for a problem that fails validation, a ``tol``
    that is NaN, infinite or negative, or a ``max_iter`` that is not an
    integer >= 0.  Set-up stops at the first check that fails; the list is
    then set up again one problem at a time, in input order, and the error
    raised is the one the first invalid problem raises alone.
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

