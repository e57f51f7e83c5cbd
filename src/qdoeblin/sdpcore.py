"""A dense primal-dual interior-point solver for small semidefinite programs.

The solver handles problems of the form

    maximize    b . y
    subject to  C_k - sum_i y_i A_{k,i}  is PSD   for every block k,
                E y = f                           (optional equality rows),
                l <= y <= u                       (optional box bounds),

with real symmetric data.  Complex Hermitian constraints are expected to be
lowered by the caller through :func:`qdoeblin.hermlin.real_embed`.

The algorithm is the HKM primal-dual direction with a Mehrotra
predictor-corrector step, run from an infeasible start that is made
dual-interior by a big-M shift variable: every block is relaxed to
``C_k - A_k(y) + tau*I`` with ``tau >= 0`` penalised in the objective, so a
strictly feasible starting point always exists and ``tau`` is driven to zero
whenever the original problem is feasible.

Every problem is solved in the variables v of ``y = T v``: block
coefficients become ``T^T A`` (one gemm per block), each box bound the row
``+-T[i]`` of the diagonal block, and every solver variable enters every
block.  Without equality rows ``T = I``.  Equality rows are eliminated by
the null-space method (Nocedal & Wright, *Numerical Optimization*, 2nd
ed., section 16.2).  One pivoted QR of ``E^T`` in full mode gives the rank
of E, an orthonormal basis Z of its null space and the min-norm solution
``y_p`` of ``E y = f``; an inconsistent system is rejected there.  Then
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
Cholesky factors ``L^-1`` of ``S`` and of ``X`` give ``S^-1 = L^-T L^-1``,
and every step-length search is one ``eigvalsh(L^-1 dM L^-T)``.  Each KKT
matrix is LU-factored once per iteration; the predictor, the corrector and
their refinement steps reuse the factors.

:func:`solve_many` runs a list of problems as lockstep batches, in the
manner of the batched interior-point method of OptNet (Amos & Kolter,
ICML 2017).  Problems that share their shapes (the count of solver
variables and the side of every block, the diagonal block of box rows
included) advance together: every iterate is a stack with one slice per
problem, and one numpy call serves the whole batch.  Each problem keeps
its own constants, objective, null-space basis, coefficient stacks (one
stack serves the batch when every problem shares it), bounds, step
lengths, ``recenter`` flag, best iterate and step count, and a problem
that converges or fails leaves the batch.  Per slice the arithmetic is the
same whatever else is in the batch, so every problem gets bitwise the
result it gets alone; :func:`solve` is the batch of one.

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

STATUS_OPTIMAL = "optimal"
STATUS_MAX_ITER = "max_iter"
STATUS_NUMERICAL = "numerical_failure"


@dataclass
class SdpBlock:
    """One linear matrix inequality ``C - sum_i y_i A_i >= 0``.

    ``coeffs`` maps variable indices to their (real symmetric) coefficient
    matrices; variables absent from the list do not enter the block, and a
    variable listed more than once enters with the sum of its matrices.
    """

    c: np.ndarray
    coeffs: list[tuple[int, np.ndarray]]

    @property
    def dim(self) -> int:
        return self.c.shape[0]


@dataclass
class SdpProblem:
    """Maximise ``objective . y`` over the intersection of the constraints."""

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


def _check_symmetric(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got {m.shape}")
    if m.size and np.max(np.abs(m - m.T)) > SYM_TOL * max(1.0, np.max(np.abs(m))):
        raise ValueError(f"{name} must be symmetric")
    return 0.5 * (m + m.T)


def _check_coeffs(blk: SdpBlock, k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Variable indices and symmetrised coefficient stack of one block."""
    dim = blk.c.shape[0]
    idx = np.array([i for i, _ in blk.coeffs], dtype=int)
    out = (idx < 0) | (idx >= n)
    if np.any(out):
        raise ValueError(f"block {k} references variable {idx[out][0]} out of range")
    mats = np.asarray([a for _, a in blk.coeffs], dtype=float)
    if idx.size and mats.shape[1:] != (dim, dim):
        raise ValueError(f"block {k} coefficients must be {dim}x{dim}, got {mats.shape[1:]}")
    mats = mats.reshape(len(idx), dim, dim)
    mats_t = mats.transpose(0, 2, 1)
    # One scratch stack serves both the check and the symmetrised result.
    scale = np.maximum(
        np.max(mats, axis=(1, 2), initial=1.0), -np.min(mats, axis=(1, 2), initial=0.0)
    )
    work = np.subtract(mats, mats_t)
    dev = np.max(np.abs(work, out=work), axis=(1, 2), initial=0.0)
    bad = np.flatnonzero(dev > SYM_TOL * scale)
    if bad.size:
        raise ValueError(f"block {k} coefficient {idx[bad[0]]} must be symmetric")
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
        return np.linalg.cholesky((v * w) @ v.T)


def _inv_chol(m: np.ndarray, repair: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Inverses ``L^-1`` of the Cholesky factors of a stack ``m = L L^T``.

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
    lam = _min_eigs(0.5 * (w + w.transpose(0, 2, 1)))
    return np.where(lam >= -1e-13, np.inf, -1.0 / np.minimum(lam, -1e-13))


def _stacked(arrays: list[np.ndarray]) -> np.ndarray:
    """Per-problem arrays of a batch as one stack, of one slice when shared."""
    if all(a is arrays[0] for a in arrays):
        return arrays[0][None]
    return np.stack(arrays)


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
    """

    def __init__(self, dim: int, aflat: np.ndarray):
        self.dim = dim
        self.unit = np.eye(dim)
        self.aflat = aflat

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

    def adjoint(self, x: np.ndarray) -> np.ndarray:
        """``A^T(x)``, one row per problem."""
        return np.matvec(self.aflat, x.reshape(len(x), -1))

    def schur(self, x: np.ndarray, s_inv: np.ndarray) -> np.ndarray:
        """HKM Schur blocks ``M_ij = Tr(A_i X A_j S^-1)``, one gemm per stage."""
        k, m = self.aflat.shape[1], self.dim
        a_sinv = (self.aflat.reshape(-1, k * m, m) @ s_inv).reshape(-1, k, m, m)
        return self.aflat @ (x[:, None] @ a_sinv).reshape(-1, k, m * m).transpose(0, 2, 1)

    def min_slack(self, m: np.ndarray, shift: np.ndarray) -> np.ndarray:
        """Smallest eigenvalue of ``m - shift*I`` per slice."""
        return np.linalg.eigvalsh(m - shift[:, None, None] * self.unit)[:, 0]

    @staticmethod
    def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``Tr(a b)`` per slice, one dot product each."""
        return np.vecdot(a.reshape(len(a), -1), b.reshape(len(b), -1))

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


class _DiagBlock:
    """Every 1x1 cone of a lockstep batch as one diagonal (LP) block.

    Entry r is the cone ``c_r - g_r . y >= 0``: one per finite box bound,
    and last the big-M shift ``tau >= 0``, which is not a constraint of the
    original problem.  ``g`` is a ``(P, r, k)`` stack over every solver
    variable like the coefficients of :class:`_DenseBlock`.  Iterates are
    ``(B, r)`` rows, ``S^-1`` and every product are elementwise; the factor
    of an iterate is the iterate itself.
    """

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


def _null_space(e: np.ndarray, f: np.ndarray) -> np.ndarray:
    """``T = [y_p, Z]``: ``E y = f`` exactly when ``y = y_p + Z w``.

    One pivoted QR ``E^T P = Q R`` in full mode gives the rank r of E, the
    orthonormal null-space basis ``Z = Q[:, r:]`` and the min-norm solution
    ``y_p = Q[:, :r] u`` with ``R_11^T u = (P^T f)[:r]``; the rows beyond
    the rank only have to be consistent with it.
    """
    q, r, piv = sla.qr(e.T, pivoting=True)
    diag = np.abs(np.diag(r))
    scale = diag[0] if diag.size and diag[0] > 0 else 1.0
    rank = int(np.sum(diag > 1e-12 * max(1.0, scale)))
    u = sla.solve_triangular(r[:rank, :rank], f[piv[:rank]], trans="T")
    y_p = q[:, :rank] @ u
    if np.max(np.abs(e @ y_p - f)) > 1e-9 * (1.0 + np.max(np.abs(f))):
        raise ValueError("equality constraints are inconsistent")
    return np.column_stack([y_p, q[:, rank:]])


class _Reduction(NamedTuple):
    """Equality rows ``E y = f`` as the solver uses them.

    ``t = [y_p, Z]`` maps ``(theta, w)`` to y; ``z`` and ``yp_pinv`` (the
    pseudo-inverse ``y_p / |y_p|^2`` of the column ``y_p``, 0 when f = 0)
    give the dual residual in the original variables, and ``et = E T``
    the deviation ``|E T (theta, w) - f|`` from the original rows.
    """

    t: np.ndarray
    z: np.ndarray
    yp_pinv: np.ndarray
    et: np.ndarray
    f: np.ndarray


def _reduction(e: np.ndarray, f: np.ndarray) -> _Reduction:
    t = _null_space(e, f)
    yp = t[:, 0]
    norm2 = np.vecdot(yp, yp)
    yp_pinv = np.divide(yp, norm2, out=np.zeros_like(yp), where=norm2 > 0.0)
    return _Reduction(t, np.ascontiguousarray(t[:, 1:]), yp_pinv, e @ t, f)


@dataclass
class _Prepared:
    """One validated problem in the variables ``v`` the solver iterates on.

    Every problem is solved in ``y = T v``.  With equality rows ``E y = f``,
    ``T = [y_p, Z]`` (see :func:`_null_space`), ``v = (theta, w)`` with the
    one equality ``theta = 1``, and ``red`` holds the reduction; without
    them ``T = I`` and ``v = y``.  Every solver variable enters every block,
    and the last one is always the big-M shift ``tau``.
    """

    b: np.ndarray  # objective T^T b in the solver's variables
    b_scale: float  # 1 + max|b| of the original objective
    m_pen: float
    cs: list[np.ndarray]  # symmetrised block constants, then the box constants
    coeffs: list[np.ndarray]  # (k, m*m) coefficient stack per dense block
    diag: np.ndarray  # (r, k) rows of the diagonal block
    red: _Reduction | None
    key: tuple


def _prepare(problem: SdpProblem, big_m: float | None, cache: dict) -> _Prepared:
    """Validate one problem and write it in the solver's variables.

    ``cache`` holds the checked coefficients, null-space bases and lowered
    blocks of the call by the identity of their inputs, so problems that
    share them are checked and lowered once and share the arrays.  Problems
    share a key exactly when they share the shapes a lockstep batch needs:
    the solver's variable count, the original variable and equality row
    counts when ``theta`` is one of them, and the side of every block, the
    diagonal one included.
    """
    n = problem.num_vars
    b = np.asarray(problem.objective, dtype=float)
    if b.shape != (n,):
        raise ValueError(f"objective must have shape ({n},), got {b.shape}")
    if not problem.blocks and problem.lower is None and problem.upper is None:
        raise ValueError("problem has no conic constraints")
    for name, bound in (("lower", problem.lower), ("upper", problem.upper)):
        if bound is not None and np.shape(bound) != (n,):
            raise ValueError(f"{name} bounds must have shape ({n},), got {np.shape(bound)}")
    if problem.lower is not None and problem.upper is not None:
        lo = np.asarray(problem.lower, dtype=float)
        up = np.asarray(problem.upper, dtype=float)
        if np.any(lo > up):
            raise ValueError("box bounds have lower > upper")
    b_scale = 1.0 + float(np.max(np.abs(b), initial=0.0))
    m_pen = big_m if big_m is not None else 1e4 * b_scale

    red, eq_id = None, (id(problem.eq_matrix), id(problem.eq_rhs), n)
    if problem.eq_matrix is not None:
        if eq_id not in cache:
            e = np.atleast_2d(np.asarray(problem.eq_matrix, dtype=float))
            f = np.asarray(problem.eq_rhs, dtype=float)
            if e.shape[1] != n or f.shape != (e.shape[0],):
                raise ValueError("equality constraint shapes are inconsistent")
            cache[eq_id] = _reduction(e, f) if len(e) else None
        red = cache[eq_id]
    if red is not None:
        t_id, t = eq_id, red.t
    else:
        t_id = ("eye", n)
        if t_id not in cache:
            cache[t_id] = np.eye(n)
        t = cache[t_id]
    nv = t.shape[1]
    b = t.T @ b

    cs, coeffs = [], []
    for k, blk in enumerate(problem.blocks):
        c = _check_symmetric(blk.c, f"block {k} constant")
        blk_id = (id(blk.coeffs), c.shape[0], n)
        if blk_id not in cache:
            cache[blk_id] = _check_coeffs(blk, k, n)
        lowered = (blk_id, t_id)
        if lowered not in cache:
            # T^T A on the block's rows (repeated rows add up), the shift last.
            idx, mats = cache[blk_id]
            reduced = np.empty((nv + 1, len(c) ** 2))
            np.matmul(t[idx].T, mats.reshape(len(idx), -1), out=reduced[:nv])
            reduced[nv] = -np.eye(len(c)).ravel()
            cache[lowered] = reduced
        cs.append(c)
        coeffs.append(cache[lowered])

    # The diagonal block: one entry per finite bound, ``y_i - l_i + tau``
    # or ``u_i - y_i + tau`` with ``y_i = T[i] . v``, and last the shift
    # ``tau`` itself.
    box, consts = [], []
    for bound, sign in ((problem.lower, -1.0), (problem.upper, 1.0)):
        if bound is not None:
            bound = np.asarray(bound, dtype=float)
            finite = np.flatnonzero(np.isfinite(bound))
            box += [(i, sign) for i in finite.tolist()]
            consts.append(sign * bound[finite])
    cs.append(np.concatenate(consts + [[0.0]]))
    diag_id = ("box", id(problem.lower), id(problem.upper), t_id)
    if diag_id not in cache:
        rows, signs = [i for i, _ in box], np.array([s for _, s in box])
        g = np.zeros((len(box) + 1, nv + 1))
        g[:-1, :nv] = signs[:, None] * t[rows]
        g[:, nv] = -1.0
        cache[diag_id] = g

    key = (nv, (n, len(red.f)) if red is not None else None, tuple(len(c) for c in cs))
    return _Prepared(b, b_scale, m_pen, cs, coeffs, cache[diag_id], red, key)


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


def _lockstep(
    preps: list[_Prepared], tol: float, max_iter: int, m_pen: np.ndarray
) -> list[SdpSolution]:
    """Run the interior-point iteration on problems of one lockstep key.

    Every problem has its own step lengths, ``recenter`` flag, best iterate
    and step count; whatever ends one problem (convergence, a failed
    factorisation, a singular KKT matrix, a non-finite direction, a tiny
    step) ends only that one, with the result it gets when solved alone.
    """
    first = preps[0]
    nv = len(first.b)
    tau_idx = nv
    count = len(preps)
    # With equality rows the solver's variable 0 is theta, held at 1 by the
    # one row of the bordered KKT system; without them every term it feeds
    # is skipped.
    red = first.red is not None
    q = int(red)
    n_user = len(first.coeffs)
    blocks: list[_DenseBlock | _DiagBlock] = [
        _DenseBlock(len(first.cs[k]), _stacked([p.coeffs[k] for p in preps]))
        for k in range(n_user)
    ]
    blocks.append(_DiagBlock(_stacked([p.diag for p in preps])))
    m_total = sum(blk.dim for blk in blocks)

    st = _Rows()
    st.pos = np.arange(count)
    st.blocks = blocks
    st.c = [np.stack([p.cs[k] for p in preps]) for k in range(len(blocks))]
    st.b = np.stack([p.b for p in preps])
    st.b_scale = np.array([p.b_scale for p in preps])
    st.b_aug = np.hstack([st.b, -m_pen[:, None]])
    if red:
        st.z, st.yp_pinv, st.et, st.f = (
            _stacked([getattr(p.red, name) for p in preps]) for name in ("z", "yp_pinv", "et", "f")
        )

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
                y=preps[st.pos[i]].red.t @ yi if red else yi.copy(),
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


def _batches(preps: list[_Prepared], todo: list[int]) -> list[list[int]]:
    """Split ``todo`` into lockstep batches: one key each, memory bounded.

    A batch holds its KKT matrices and the Schur intermediates of every
    problem at once, so it takes at most ``BATCH_BYTES`` of them.
    """
    groups: dict[tuple, list[int]] = {}
    for i in todo:
        groups.setdefault(preps[i].key, []).append(i)
    out = []
    for members in groups.values():
        p = preps[members[0]]
        side = len(p.b) + 1 + (p.red is not None)
        # The coefficient stacks count once more for problems that own them,
        # the batched arrays of the reduction (all but T) once.
        per_problem = 8 * (
            side * side
            + sum(4 * aflat.size for aflat in p.coeffs)
            + (sum(a.size for a in p.red[1:]) if p.red is not None else 0)
        )
        size = max(1, BATCH_BYTES // per_problem)
        out += [members[i : i + size] for i in range(0, len(members), size)]
    return out


def solve_many(
    problems: list[SdpProblem],
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    big_m: float | None = None,
) -> list[SdpSolution]:
    """Solve a list of :class:`SdpProblem`; results come back in input order.

    Problems with the same lockstep key (see ``_prepare``) advance
    together, so a grid of same-structure programs pays the per-iteration
    call overhead once per batch instead of once per point.  Each problem
    gets exactly the result :func:`solve` gives it alone.  A problem whose
    big-M relaxation converges with a visibly positive shift is retried
    with a 100x larger penalty, at most twice; only those problems re-run.
    """
    cache: dict = {}
    preps = [_prepare(p, big_m, cache) for p in problems]
    m_pen = np.array([p.m_pen for p in preps])
    out: list[SdpSolution | None] = [None] * len(problems)
    todo = list(range(len(problems)))
    for _ in range(3):
        for batch in _batches(preps, todo):
            for i, sol in zip(batch, _lockstep([preps[i] for i in batch], tol, max_iter, m_pen[batch])):
                out[i] = sol
        todo = [i for i in todo if out[i].status != STATUS_OPTIMAL and out[i].shift > 1e-6]
        if not todo:
            break
        m_pen[todo] *= 100.0
    return out


def solve(
    problem: SdpProblem,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    big_m: float | None = None,
) -> SdpSolution:
    """Solve one :class:`SdpProblem`: :func:`solve_many` on a batch of one.

    Stops once the relative duality gap, the primal feasibility residual and
    the dual stationarity residual all drop below ``tol``.  When the big-M
    relaxation converges with a visibly positive shift the solve is retried
    with a 100x larger penalty before giving up.
    """
    return solve_many([problem], tol, max_iter, big_m)[0]

