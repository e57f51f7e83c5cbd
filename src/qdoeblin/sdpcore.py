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
whenever the original problem is feasible.  Equality rows are kept explicit
in a bordered KKT system solved by LU factorisation; redundant rows are
dropped up front through a pivoted QR of ``E``.

Every 1x1 cone (each finite box bound and the ``tau >= 0`` shift) lives in
one diagonal (LP) block, the layout SDPA writes as a negative-size block:
its iterates are vectors and its products are elementwise.  Each dense
block is factored once per iteration: the inverse Cholesky factors
``L^-1`` of ``S`` and of ``X`` give ``S^-1 = L^-T L^-1``, and every
step-length search is one ``eigvalsh(L^-1 dM L^-T)``.

Everything is deterministic: no randomisation enters the iteration, so
identical problems produce identical iterate sequences.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 100
# Fraction-to-boundary factor for the final step length.
STEP_FRACTION = 0.98
SYM_TOL = 1e-11

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
    constraints (most negative slack eigenvalue and equality deviation),
    ``dual_residual`` the stationarity defect of the internally built dual
    certificate (``x_blocks`` plus multipliers for the box bounds and the
    equality rows, which are not returned), and ``gap`` the relative
    difference of the two objective values.  ``status == "optimal"``
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


def _inv_chol(m: np.ndarray, repair: bool = False) -> np.ndarray:
    """Inverse ``L^-1`` of the Cholesky factor of ``m = L L^T``.

    Raises ``LinAlgError`` when ``m`` is not positive definite.  With
    ``repair`` an iterate that roundoff pushed onto the cone boundary is
    factored after flooring its spectrum instead; only a spectrum without a
    positive eigenvalue still raises.
    """
    try:
        ell = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        if not repair:
            raise
        w, v = np.linalg.eigh(m)
        if w[-1] <= 0:
            raise
        w = np.maximum(w, w[-1] * 1e-14)
        ell = np.linalg.cholesky((v * w) @ v.T)
    return np.linalg.inv(ell)


def _max_step(li: np.ndarray, dm: np.ndarray) -> float:
    """Largest a >= 0 with M + a*dM still PSD, from ``li = L^-1`` of M.

    ``np.inf`` when the direction never leaves the cone.
    """
    w = li @ dm @ li.T
    lam = np.linalg.eigvalsh(0.5 * (w + w.T))[0]
    if lam >= -1e-13:
        return np.inf
    return -1.0 / lam


class _BlockData:
    """One dense PSD block with its flattened coefficient stack ``aflat``.

    ``aflat`` has one row per variable.  Coefficients given twice for one
    variable are summed here, so every variable owns one row and the
    fancy-index scatters below lose no term.  The step search and ``S^-1``
    work from the inverse Cholesky factor of the iterate.
    """

    def __init__(self, c: np.ndarray, coeffs: list[tuple[int, np.ndarray]]):
        self.c = c
        self.dim = c.shape[0]
        merged: dict[int, np.ndarray] = {}
        for i, a in coeffs:
            merged[i] = merged[i] + a if i in merged else a
        self.idx = np.fromiter(merged, dtype=int, count=len(merged))
        self.ix = np.ix_(self.idx, self.idx)
        self.aflat = np.stack([a.ravel() for a in merged.values()])

    def eye(self) -> np.ndarray:
        return np.eye(self.dim)

    def operator(self, y: np.ndarray) -> np.ndarray:
        return (y[self.idx] @ self.aflat).reshape(self.dim, self.dim)

    def adjoint_into(self, x: np.ndarray, out: np.ndarray) -> None:
        out[self.idx] += self.aflat @ x.ravel()

    def schur(self, x: np.ndarray, s_inv: np.ndarray) -> np.ndarray:
        """HKM Schur block ``M_ij = Tr(A_i X A_j S^-1)`` as one gemm."""
        k, m = len(self.idx), self.dim
        a_sinv = (self.aflat.reshape(k * m, m) @ s_inv).reshape(k, m, m)
        return self.aflat @ (x @ a_sinv).reshape(k, -1).T

    def min_slack(self, m: np.ndarray, shift: float) -> float:
        """Smallest eigenvalue of ``m - shift*I``."""
        return float(np.linalg.eigvalsh(m - shift * np.eye(self.dim))[0])

    @staticmethod
    def product(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
        return a @ b @ c

    @staticmethod
    def sym(m: np.ndarray) -> np.ndarray:
        return 0.5 * (m + m.T)

    factor = staticmethod(_inv_chol)

    @staticmethod
    def inverse(li: np.ndarray) -> np.ndarray:
        return li.T @ li

    max_step = staticmethod(_max_step)


class _DiagBlock:
    """Every 1x1 cone of the problem as one diagonal (LP) block.

    Entry r is the cone ``c_r - g_r . y[idx] >= 0``: one per finite box
    bound, and last the big-M shift ``tau >= 0``, which is not a constraint
    of the original problem.  Iterates, ``S^-1`` and every product are
    vectors and elementwise operations; the factor of an iterate is the
    iterate itself.
    """

    def __init__(self, c: np.ndarray, g: np.ndarray):
        self.c = c
        self.dim = len(c)
        self.idx = np.flatnonzero(np.any(g != 0.0, axis=0))
        self.ix = np.ix_(self.idx, self.idx)
        self.g = g[:, self.idx]

    def eye(self) -> np.ndarray:
        return np.ones(self.dim)

    def operator(self, y: np.ndarray) -> np.ndarray:
        return self.g @ y[self.idx]

    def adjoint_into(self, x: np.ndarray, out: np.ndarray) -> None:
        out[self.idx] += x @ self.g

    def schur(self, x: np.ndarray, s_inv: np.ndarray) -> np.ndarray:
        return (self.g.T * (x * s_inv)) @ self.g

    def min_slack(self, m: np.ndarray, shift: float) -> float:
        """Smallest box slack ``m_r - shift``; the shift entry is left out."""
        return float(np.min(m[:-1] - shift, initial=np.inf))

    @staticmethod
    def product(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
        return a * b * c

    @staticmethod
    def sym(m: np.ndarray) -> np.ndarray:
        return m

    @staticmethod
    def factor(m: np.ndarray, repair: bool = False) -> np.ndarray:
        # The ratio test needs no factorisation, so there is nothing to
        # repair; only S^-1 needs every entry positive.
        if not repair and not (m > 0.0).all():
            raise np.linalg.LinAlgError("diagonal block is not positive definite")
        return m

    @staticmethod
    def inverse(m: np.ndarray) -> np.ndarray:
        return 1.0 / m

    @staticmethod
    def max_step(m: np.ndarray, dm: np.ndarray) -> float:
        """Largest a >= 0 with m + a*dm >= 0 entrywise (np.inf if unbounded)."""
        neg = dm < 0.0
        if not neg.any():
            return np.inf
        return float((m[neg] / -dm[neg]).min())


def _reduce_equalities(
    e: np.ndarray, f: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Drop linearly dependent equality rows, checking consistency."""
    if e.shape[0] == 0:
        return e, f
    _, r, piv = sla.qr(e.T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    scale = diag[0] if diag.size and diag[0] > 0 else 1.0
    rank = int(np.sum(diag > 1e-12 * max(1.0, scale)))
    keep = np.sort(piv[:rank])
    e_red, f_red = e[keep], f[keep]
    sol, *_ = np.linalg.lstsq(e_red, f_red, rcond=None)
    if np.max(np.abs(e @ sol - f)) > 1e-9 * (1.0 + np.max(np.abs(f))):
        raise ValueError("equality constraints are inconsistent")
    return e_red, f_red


class _Metrics:
    def __init__(self, gap: float, pres: float, dres: float):
        self.gap = gap
        self.pres = pres
        self.dres = dres

    @property
    def worst(self) -> float:
        return max(self.gap, self.pres, self.dres)


def solve(
    problem: SdpProblem,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    big_m: float | None = None,
) -> SdpSolution:
    """Solve an :class:`SdpProblem`.

    Stops once the relative duality gap, the primal feasibility residual and
    the dual stationarity residual all drop below ``tol``.  When the big-M
    relaxation converges with a visibly positive shift the solve is retried
    with a 100x larger penalty before giving up.
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
    m_pen = big_m if big_m is not None else 1e4 * (1.0 + float(np.max(np.abs(b), initial=0.0)))
    last = None
    for _ in range(3):
        last = _solve_once(problem, b, tol, max_iter, m_pen)
        if last.status == STATUS_OPTIMAL or last.shift <= 1e-6:
            return last
        m_pen *= 100.0
    return last


def _solve_once(
    problem: SdpProblem, b: np.ndarray, tol: float, max_iter: int, m_pen: float
) -> SdpSolution:
    n = problem.num_vars
    tau_idx = n

    blocks: list[_BlockData | _DiagBlock] = []
    n_user = len(problem.blocks)
    for k, blk in enumerate(problem.blocks):
        c = _check_symmetric(blk.c, f"block {k} constant")
        idx, mats = _check_coeffs(blk, k, n)
        coeffs = [*zip(idx.tolist(), mats), (tau_idx, -np.eye(c.shape[0]))]
        blocks.append(_BlockData(c, coeffs))

    # The diagonal block: one entry per finite bound, ``y_i - l_i + tau``
    # or ``u_i - y_i + tau``, and last the shift ``tau`` itself.
    box = []  # (variable, sign, constant) of each bound entry
    for bound, sign in ((problem.lower, -1.0), (problem.upper, 1.0)):
        if bound is not None:
            for i, v in enumerate(np.asarray(bound, dtype=float)):
                if np.isfinite(v):
                    box.append((i, sign, sign * v))
    g = np.zeros((len(box) + 1, n + 1))
    for r, (i, sign, _) in enumerate(box):
        g[r, i] = sign
    g[:, tau_idx] = -1.0
    blocks.append(_DiagBlock(np.array([cv for _, _, cv in box] + [0.0]), g))

    if problem.eq_matrix is not None:
        e_orig = np.atleast_2d(np.asarray(problem.eq_matrix, dtype=float))
        f_orig = np.asarray(problem.eq_rhs, dtype=float)
        if e_orig.shape[1] != n or f_orig.shape != (e_orig.shape[0],):
            raise ValueError("equality constraint shapes are inconsistent")
        e_red, f_red = _reduce_equalities(e_orig, f_orig)
    else:
        e_orig = np.zeros((0, n))
        f_orig = np.zeros(0)
        e_red = np.zeros((0, n))
        f_red = np.zeros(0)
    q = e_red.shape[0]
    e_aug = np.hstack([e_red, np.zeros((q, 1))])

    b_aug = np.append(b, -m_pen)
    m_total = sum(blk.dim for blk in blocks)

    lam0 = max(1.0, 1.0 - min(blk.min_slack(blk.c, 0.0) for blk in blocks))
    y = np.zeros(n + 1)
    y[tau_idx] = lam0
    s = [blk.c - blk.operator(y) for blk in blocks]
    x = [blk.eye() for blk in blocks]
    x[-1][-1] = max(1.0, m_pen - (m_total - 1))
    nu = np.zeros(q)

    def metrics() -> tuple[_Metrics, float, float]:
        # The shift entry of the diagonal block is left out of the slack
        # (see ``min_slack``); its zero constant and its adjoint, which
        # only reaches ``tau``, add nothing to the objective or to ``dres``.
        yv = y[:n]
        tau = y[tau_idx]
        slack_min = min(blk.min_slack(sk, tau) for blk, sk in zip(blocks, s))
        eq_dev = float(np.max(np.abs(e_orig @ yv - f_orig), initial=0.0))
        pres = max(max(0.0, -slack_min), eq_dev)
        adj = np.zeros(n + 1)
        for blk, xk in zip(blocks, x):
            blk.adjoint_into(xk, adj)
        dres = float(np.max(np.abs(b - adj[:n] - e_red.T @ nu), initial=0.0))
        dres /= 1.0 + float(np.max(np.abs(b), initial=0.0))
        pobj = sum(float(np.vdot(blk.c, xk)) for blk, xk in zip(blocks, x))
        pobj += float(f_red @ nu)
        dobj = float(b @ yv)
        gap = abs(pobj - dobj) / (1.0 + max(abs(pobj), abs(dobj)))
        return _Metrics(gap, pres, dres), tau, dobj

    def build_solution(status: str, met: _Metrics, dobj: float, tau: float, it: int) -> SdpSolution:
        return SdpSolution(
            status=status,
            y=y[:n].copy(),
            objective_value=dobj,
            gap=met.gap,
            primal_residual=met.pres,
            dual_residual=met.dres,
            iterations=it,
            x_blocks=[xk.copy() for xk in x[:n_user]],
            shift=tau,
        )

    def max_step(factors: list[np.ndarray], dirs: list[np.ndarray]) -> float:
        return min(blk.max_step(f, d) for blk, f, d in zip(blocks, factors, dirs))

    best: tuple[float, SdpSolution] | None = None
    recenter = False
    broken = False
    steps = 0

    for _ in range(max_iter):
        met, tau, dobj = metrics()
        if best is None or met.worst < best[0]:
            best = (met.worst, build_solution(STATUS_MAX_ITER, met, dobj, tau, steps))
        if met.worst <= tol and tau <= 1e-6 * (1.0 + lam0):
            return build_solution(STATUS_OPTIMAL, met, dobj, tau, steps)

        mu = sum(float(np.vdot(xk, sk)) for xk, sk in zip(x, s)) / m_total
        if not np.isfinite(mu):
            broken = True
            break
        if mu <= 0:
            break

        # Residuals of the augmented problem drive the Newton step.
        r_p = b_aug.copy()
        for blk, xk in zip(blocks, x):
            blk.adjoint_into(-xk, r_p)
        r_p -= e_aug.T @ nu
        r_e = f_red - e_aug @ y
        r_d = [blk.c - blk.operator(y) - sk for blk, sk in zip(blocks, s)]

        try:
            s_fac = [blk.factor(sk) for blk, sk in zip(blocks, s)]
        except np.linalg.LinAlgError:
            broken = True
            break
        s_inv = [blk.inverse(f) for blk, f in zip(blocks, s_fac)]

        kkt = np.zeros((n + 1 + q, n + 1 + q))
        for blk, xk, sik in zip(blocks, x, s_inv):
            kkt[blk.ix] += blk.schur(xk, sik)
        kkt[: n + 1, n + 1 :] = e_aug.T
        kkt[n + 1 :, : n + 1] = e_aug
        try:
            # An exactly singular KKT matrix only warns; stop on it instead
            # of stepping along inf/nan directions.
            with warnings.catch_warnings():
                warnings.simplefilter("error", sla.LinAlgWarning)
                lu = sla.lu_factor(kkt)
        except (np.linalg.LinAlgError, ValueError, sla.LinAlgWarning):
            broken = True
            break

        def kkt_solve(rhs: np.ndarray) -> np.ndarray:
            sol = sla.lu_solve(lu, rhs)
            resid = rhs - kkt @ sol
            if np.max(np.abs(resid)) > 1e-13 * (1.0 + np.max(np.abs(rhs))):
                sol = sol + sla.lu_solve(lu, resid)
            return sol

        def directions(
            h: list[np.ndarray],
        ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray], list[np.ndarray]]:
            g = np.zeros(n + 1)
            for blk, hk in zip(blocks, h):
                blk.adjoint_into(hk, g)
            rhs = np.concatenate([r_p - g, r_e])
            sol = kkt_solve(rhs)
            dy, dnu = sol[: n + 1], sol[n + 1 :]
            ds = [rdk - blk.operator(dy) for blk, rdk in zip(blocks, r_d)]
            dx = [
                blk.sym(hk + blk.product(xk, blk.operator(dy), sik))
                for blk, hk, xk, sik in zip(blocks, h, x, s_inv)
            ]
            return dy, dnu, dx, ds

        h_aff = [
            -xk - blk.product(xk, rdk, sik)
            for blk, xk, rdk, sik in zip(blocks, x, r_d, s_inv)
        ]
        try:
            dy_a, dnu_a, dx_a, ds_a = directions(h_aff)
            if not all(np.all(np.isfinite(d)) for d in dx_a):
                broken = True
                break
            x_fac = [blk.factor(xk, repair=True) for blk, xk in zip(blocks, x)]
            ap_a = min(1.0, max_step(x_fac, dx_a))
            ad_a = min(1.0, max_step(s_fac, ds_a))
        except np.linalg.LinAlgError:
            break
        mu_aff = sum(
            float(np.vdot(xk + ap_a * dxk, sk + ad_a * dsk))
            for xk, dxk, sk, dsk in zip(x, dx_a, s, ds_a)
        ) / m_total
        sigma = min(1.0, max((max(mu_aff, 0.0) / mu) ** 3, 1e-10))
        if recenter:
            # Previous step was cut short; spend this one re-centering.
            sigma = max(sigma, 0.5)

        h_cor = [
            sigma * mu * sik - xk - blk.product(xk, rdk, sik) - blk.product(dxk, dsk, sik)
            for blk, sik, xk, rdk, dxk, dsk in zip(blocks, s_inv, x, r_d, dx_a, ds_a)
        ]
        try:
            dy, dnu, dx, ds = directions(h_cor)
            if not all(np.all(np.isfinite(d)) for d in dx):
                broken = True
                break
            a_p = min(1.0, STEP_FRACTION * max_step(x_fac, dx))
            a_d = min(1.0, STEP_FRACTION * max_step(s_fac, ds))
        except np.linalg.LinAlgError:
            break
        if a_p < 1e-13 and a_d < 1e-13:
            break
        recenter = min(a_p, a_d) < 0.1

        x = [blk.sym(xk + a_p * dxk) for blk, xk, dxk in zip(blocks, x, dx)]
        nu = nu + a_p * dnu
        y = y + a_d * dy
        s = [blk.sym(sk + a_d * dsk) for blk, sk, dsk in zip(blocks, s, ds)]
        steps += 1

    met, tau, dobj = metrics()
    if met.worst <= tol and tau <= 1e-6 * (1.0 + lam0):
        return build_solution(STATUS_OPTIMAL, met, dobj, tau, steps)
    fallback_status = STATUS_NUMERICAL if broken else STATUS_MAX_ITER
    if best is not None and best[0] < met.worst:
        sol = best[1]
        sol.status = fallback_status
        return sol
    return build_solution(fallback_status, met, dobj, tau, steps)


def write_sdpa(problem: SdpProblem, path: str) -> None:
    """Dump a problem in SDPA sparse format (.dat-s) for external checking.

    The file encodes the equivalent minimisation ``min -b.y`` with
    ``sum_i y_i (-A_i) - (-C) >= 0``.  Box bounds and an opposing pair of
    entries per equality row form one diagonal (negative-size) block, as
    noted in the header comments.
    """
    n = problem.num_vars
    b = np.asarray(problem.objective, dtype=float)
    sizes: list[int] = [blk.dim for blk in problem.blocks]
    entries: list[tuple[int, int, int, int, float]] = []

    def add(matno: int, blkno: int, mat: np.ndarray) -> None:
        for i in range(mat.shape[0]):
            for j in range(i, mat.shape[1]):
                if abs(mat[i, j]) > 0.0:
                    entries.append((matno, blkno, i + 1, j + 1, mat[i, j]))

    for k, blk in enumerate(problem.blocks):
        add(0, k + 1, -np.asarray(blk.c, dtype=float))
        for i, a in blk.coeffs:
            add(i + 1, k + 1, -np.asarray(a, dtype=float))

    extra: list[tuple[float, dict[int, float]]] = []
    if problem.lower is not None:
        for i in range(n):
            if np.isfinite(problem.lower[i]):
                extra.append((-float(problem.lower[i]), {i: -1.0}))
    if problem.upper is not None:
        for i in range(n):
            if np.isfinite(problem.upper[i]):
                extra.append((float(problem.upper[i]), {i: 1.0}))
    if problem.eq_matrix is not None:
        e = np.atleast_2d(np.asarray(problem.eq_matrix, dtype=float))
        f = np.asarray(problem.eq_rhs, dtype=float)
        for r in range(e.shape[0]):
            row = {i: float(e[r, i]) for i in range(n) if e[r, i] != 0.0}
            extra.append((float(f[r]), row))
            extra.append((-float(f[r]), {i: -v for i, v in row.items()}))

    lines = [
        '"qdoeblin sdp debug dump"',
        '"box bounds and +/- pairs of equality rows are singleton diagonal entries"',
        f"{n} = mDIM",
        f"{len(sizes) + (1 if extra else 0)} = nBLOCK",
    ]
    block_line = " ".join(str(d) for d in sizes)
    if extra:
        block_line += f" -{len(extra)}"
    lines.append(block_line)
    lines.append(" ".join(f"{-v:.17g}" for v in b))
    diag_no = len(sizes) + 1
    for pos, (cval, row) in enumerate(extra, start=1):
        if cval != 0.0:
            entries.append((0, diag_no, pos, pos, -cval))
        for i, v in row.items():
            entries.append((i + 1, diag_no, pos, pos, -v))
    for matno, blkno, i, j, v in sorted(entries):
        lines.append(f"{matno} {blkno} {i} {j} {v:.17g}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
