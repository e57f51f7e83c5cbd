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

Everything is deterministic: no randomisation enters the iteration, so
identical problems produce identical iterate sequences.
"""

from __future__ import annotations

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


class _BlockData:
    """Flattened coefficient stack ``aflat`` (one row per variable) of one block.

    Coefficients given twice for one variable are summed here, so every
    variable owns one row and the fancy-index scatters below lose no term.
    """

    def __init__(self, c: np.ndarray, coeffs: list[tuple[int, np.ndarray]]):
        self.c = c
        self.dim = c.shape[0]
        merged: dict[int, np.ndarray] = {}
        for i, a in coeffs:
            merged[i] = merged[i] + a if i in merged else a
        self.idx = np.fromiter(merged, dtype=int, count=len(merged))
        self.aflat = np.stack([a.ravel() for a in merged.values()])

    def operator(self, y: np.ndarray) -> np.ndarray:
        return (y[self.idx] @ self.aflat).reshape(self.dim, self.dim)

    def adjoint_into(self, x: np.ndarray, out: np.ndarray) -> None:
        out[self.idx] += self.aflat @ x.ravel()

    def schur(self, x: np.ndarray, s_inv: np.ndarray) -> np.ndarray:
        """HKM Schur block ``M_ij = Tr(A_i X A_j S^-1)`` as one gemm."""
        k, m = len(self.idx), self.dim
        a_sinv = (self.aflat.reshape(k * m, m) @ s_inv).reshape(k, m, m)
        return self.aflat @ (x @ a_sinv).reshape(k, -1).T


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


def _max_step(m: np.ndarray, dm: np.ndarray) -> float:
    """Largest a >= 0 with m + a*dm still PSD (np.inf if unbounded)."""
    if m.shape[0] == 1:
        if dm[0, 0] >= 0.0:
            return np.inf
        return m[0, 0] / -dm[0, 0]
    try:
        ell = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        # Roundoff pushed an iterate onto the cone boundary; repair the
        # factorisation by flooring the spectrum.
        w, v = np.linalg.eigh(m)
        if w[-1] <= 0:
            raise
        w = np.maximum(w, w[-1] * 1e-14)
        ell = np.linalg.cholesky((v * w) @ v.T)
    w = sla.solve_triangular(ell, dm, lower=True)
    w = sla.solve_triangular(ell, w.T, lower=True)
    lam = np.linalg.eigvalsh(0.5 * (w + w.T))[0]
    if lam >= -1e-13:
        return np.inf
    return -1.0 / lam


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

    blocks: list[_BlockData] = []
    n_user = len(problem.blocks)
    for k, blk in enumerate(problem.blocks):
        c = _check_symmetric(blk.c, f"block {k} constant")
        coeffs = []
        for i, a in blk.coeffs:
            if not 0 <= i < n:
                raise ValueError(f"block {k} references variable {i} out of range")
            coeffs.append((i, _check_symmetric(a, f"block {k} coefficient {i}")))
        coeffs.append((tau_idx, -np.eye(c.shape[0])))
        blocks.append(_BlockData(c, coeffs))

    one = np.eye(1)
    if problem.lower is not None:
        lo = np.asarray(problem.lower, dtype=float)
        for i in range(n):
            if np.isfinite(lo[i]):
                blocks.append(
                    _BlockData(np.array([[-lo[i]]]), [(i, -one), (tau_idx, -one)])
                )
    if problem.upper is not None:
        up = np.asarray(problem.upper, dtype=float)
        for i in range(n):
            if np.isfinite(up[i]):
                blocks.append(
                    _BlockData(np.array([[up[i]]]), [(i, one), (tau_idx, -one)])
                )
    n_orig_blocks = len(blocks)
    blocks.append(_BlockData(np.zeros((1, 1)), [(tau_idx, -one)]))

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

    lam0 = 1.0
    for blk in blocks[:-1]:
        lam0 = max(lam0, 1.0 - float(np.linalg.eigvalsh(blk.c)[0]))
    y = np.zeros(n + 1)
    y[tau_idx] = lam0
    s = [blk.c - blk.operator(y) for blk in blocks]
    x = [np.eye(blk.dim) for blk in blocks]
    x[-1][0, 0] = max(1.0, m_pen - (m_total - 1))
    nu = np.zeros(q)

    def metrics() -> tuple[_Metrics, float, float]:
        yv = y[:n]
        tau = y[tau_idx]
        slack_min = np.inf
        for blk, sk in zip(blocks[:n_orig_blocks], s):
            w = np.linalg.eigvalsh(sk - tau * np.eye(blk.dim))
            slack_min = min(slack_min, float(w[0]))
        eq_dev = float(np.max(np.abs(e_orig @ yv - f_orig), initial=0.0))
        pres = max(max(0.0, -slack_min), eq_dev)
        adj = np.zeros(n + 1)
        for blk, xk in zip(blocks[:n_orig_blocks], x):
            blk.adjoint_into(xk, adj)
        dres = float(np.max(np.abs(b - adj[:n] - e_red.T @ nu), initial=0.0))
        dres /= 1.0 + float(np.max(np.abs(b), initial=0.0))
        pobj = sum(
            float(np.tensordot(blk.c, xk)) for blk, xk in zip(blocks[:n_orig_blocks], x)
        ) + float(f_red @ nu)
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

        mu = sum(float(np.tensordot(xk, sk)) for xk, sk in zip(x, s)) / m_total
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
            s_inv = []
            for sk in s:
                cf = sla.cho_factor(sk, lower=True)
                s_inv.append(sla.cho_solve(cf, np.eye(sk.shape[0])))
        except np.linalg.LinAlgError:
            broken = True
            break

        kkt = np.zeros((n + 1 + q, n + 1 + q))
        for blk, xk, sik in zip(blocks, x, s_inv):
            kkt[np.ix_(blk.idx, blk.idx)] += blk.schur(xk, sik)
        kkt[: n + 1, n + 1 :] = e_aug.T
        kkt[n + 1 :, : n + 1] = e_aug
        try:
            lu = sla.lu_factor(kkt)
        except (np.linalg.LinAlgError, ValueError):
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
            dx = []
            for blk, hk, xk, sik in zip(blocks, h, x, s_inv):
                raw = hk + xk @ blk.operator(dy) @ sik
                dx.append(0.5 * (raw + raw.T))
            return dy, dnu, dx, ds

        h_aff = [
            -xk - xk @ rdk @ sik for xk, rdk, sik in zip(x, r_d, s_inv)
        ]
        try:
            dy_a, dnu_a, dx_a, ds_a = directions(h_aff)
            if not all(np.all(np.isfinite(d)) for d in dx_a):
                broken = True
                break
            ap_a = min(1.0, min(_max_step(xk, dxk) for xk, dxk in zip(x, dx_a)))
            ad_a = min(1.0, min(_max_step(sk, dsk) for sk, dsk in zip(s, ds_a)))
        except np.linalg.LinAlgError:
            break
        mu_aff = sum(
            float(np.tensordot(xk + ap_a * dxk, sk + ad_a * dsk))
            for xk, dxk, sk, dsk in zip(x, dx_a, s, ds_a)
        ) / m_total
        sigma = min(1.0, max((max(mu_aff, 0.0) / mu) ** 3, 1e-10))
        if recenter:
            # Previous step was cut short; spend this one re-centering.
            sigma = max(sigma, 0.5)

        h_cor = [
            sigma * mu * sik - xk - xk @ rdk @ sik - dxk @ dsk @ sik
            for sik, xk, rdk, dxk, dsk in zip(s_inv, x, r_d, dx_a, ds_a)
        ]
        try:
            dy, dnu, dx, ds = directions(h_cor)
            if not all(np.all(np.isfinite(d)) for d in dx):
                broken = True
                break
            a_p = min(
                1.0, STEP_FRACTION * min(_max_step(xk, dxk) for xk, dxk in zip(x, dx))
            )
            a_d = min(
                1.0, STEP_FRACTION * min(_max_step(sk, dsk) for sk, dsk in zip(s, ds))
            )
        except np.linalg.LinAlgError:
            break
        if a_p < 1e-13 and a_d < 1e-13:
            break
        recenter = min(a_p, a_d) < 0.1

        x = [0.5 * ((xk + a_p * dxk) + (xk + a_p * dxk).T) for xk, dxk in zip(x, dx)]
        nu = nu + a_p * dnu
        y = y + a_d * dy
        s = [0.5 * ((sk + a_d * dsk) + (sk + a_d * dsk).T) for sk, dsk in zip(s, ds)]
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
    ``sum_i y_i (-A_i) - (-C) >= 0``.  Box bounds become singleton diagonal
    blocks and each equality row becomes an opposing pair of singleton
    blocks, as noted in the header comments.
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
