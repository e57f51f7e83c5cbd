"""Seeded property checks: the structural laws of the Doeblin coefficient.

Each law is a function ``law(rng, tol, rec, size)`` that draws its own
channels from ``rng``, solves with ``tol`` and reports every check to the
recorder ``rec``; ``size`` is the ensemble size (for the BSC law the
crossover probabilities, for the embedding law the matrix sizes).  The
``qdoeblin check`` suites in :data:`SUITES` run the laws on small ensembles,
and the acceptance tests run the same laws on their pinned ensembles, so
each law and its tolerance is written once.  A law draws its whole ensemble
first and solves it through :func:`qdoeblin.doeblin.solve_grids` (one
call for all of its kinds), whose results equal the single-channel calls.
"""

from __future__ import annotations

import numpy as np

from . import channel as ch
from . import doeblin as db
from . import hermlin, oracles, sdpcore


class Recorder:
    """Counts passed and failed checks and keeps the first counterexample."""

    def __init__(self, suite: str):
        self.suite = suite
        self.passed = 0
        self.failed = 0
        self.first = None

    def __call__(self, check: str, ok: bool, **detail):
        if ok:
            self.passed += 1
            return
        self.failed += 1
        if self.first is None:
            self.first = {"suite": self.suite, "check": check}
            self.first.update({k: _jsonable(v) for k, v in detail.items()})


def _jsonable(v):
    if isinstance(v, (np.floating, float)):
        return float(v)
    if isinstance(v, (np.integer, int)):
        return int(v)
    if isinstance(v, np.ndarray):
        return np.round(v, 9).tolist()
    if isinstance(v, complex):
        return [v.real, v.imag]
    return v


def _rand_herm(rng, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (g + g.conj().T)


def _rand_state(rng, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _rand_qubit(rng) -> ch.QuantumChannel:
    return ch.random_channel(2, 2, seed=int(rng.integers(1 << 31)))


# ------------------------------------------------------------------- laws


def _alphas(channels, tol) -> list[float]:
    """alpha of every channel, as one ``solve_grid`` call."""
    return [r.value for r in db.solve_grid(db.KIND_ALPHA, channels, tol)]


def alpha_concave(rng, tol, rec, pairs: int) -> None:
    """alpha of a mixture is at least the mixture of alphas, at 1/4, 1/2, 3/4."""
    lams = (0.25, 0.5, 0.75)
    drawn = [(_rand_qubit(rng), _rand_qubit(rng)) for _ in range(pairs)]
    channels = []
    for n, m in drawn:
        channels += [n, m]
        for lam in lams:
            j = lam * n.choi.matrix + (1.0 - lam) * m.choi.matrix
            channels.append(ch.channel_from_choi(ch.ChoiMatrix(j, 2, 2)))
    values = iter(_alphas(channels, tol))
    for _ in drawn:
        a_n, a_m = next(values), next(values)
        for lam in lams:
            mixed = next(values)
            split = lam * a_n + (1.0 - lam) * a_m
            rec("alpha_concave", mixed - split >= -1e-6, lam=lam,
                mixed=mixed, split=split)


def alpha_supermultiplicative(rng, tol, rec, pairs: int) -> None:
    """alpha(N tensor M) >= alpha(N) alpha(M)."""
    drawn = [(_rand_qubit(rng), _rand_qubit(rng)) for _ in range(pairs)]
    values = iter(_alphas([c for n, m in drawn for c in (ch.tensor(n, m), n, m)], tol))
    for _ in drawn:
        joint = next(values)
        prod = next(values) * next(values)
        rec("alpha_supermultiplicative", joint - prod >= -1e-6,
            got=joint, bound=prod)


def alpha_concatenation(rng, tol, rec, pairs: int) -> None:
    """1 - alpha(N after M) <= (1 - alpha(N)) (1 - alpha(M))."""
    drawn = [(_rand_qubit(rng), _rand_qubit(rng)) for _ in range(pairs)]
    values = iter(_alphas([c for n, m in drawn for c in (n, m, ch.compose(n, m))], tol))
    for _ in drawn:
        a_n, a_m, chained = next(values), next(values), next(values)
        bound = (1.0 - a_n) * (1.0 - a_m)
        rec("alpha_concatenation", bound - (1.0 - chained) >= -1e-6,
            got=chained, bound=bound)


def sandwich(rng, tol, rec, channels: int) -> None:
    """alpha <= alphaH, 1 - rev <= eta_tr expansion, eta_tr <= 1 - alpha."""
    drawn = [_rand_qubit(rng) for _ in range(channels)]
    grids = db.solve_grids((db.KIND_ALPHA, db.KIND_ALPHA_H, db.KIND_REV), drawn, tol)
    for n, a, a_h, rev in zip(drawn, *grids.values()):
        a, a_h, rev = a.value, a_h.value, rev.value
        rec("alpha_below_hermitian", a - a_h <= 1e-6, a=a, aH=a_h)
        eta_lo = oracles.eta_tr_expansion_qubit(n)
        rec("expansion_bound_vs_oracle", (1.0 - rev) - eta_lo <= 1e-6,
            rev=rev, eta=eta_lo)
        eta_hi = oracles.eta_tr_qubit(n)
        rec("contraction_bound_vs_oracle", eta_hi - (1.0 - a) <= 1e-6,
            eta=eta_hi, a=a)


def classical_chain(rng, tol, rec, channels: int) -> None:
    """alpha <= 1 - C <= rev on random BISO channels."""
    for _ in range(channels):
        c = oracles.random_biso(rng)
        a = oracles.classical_doeblin(c)
        g = oracles.classical_gamma(c)
        ra = oracles.classical_reverse_alpha(c)
        rec("classical_chain_lower", a <= g + 1e-9, alpha=a, gamma=g,
            matrix=c.matrix)
        rec("classical_chain_upper", g <= ra + 1e-12, gamma=g, rev=ra,
            matrix=c.matrix)


def bsc_reverse_alpha(rng, tol, rec, crossovers) -> None:
    """The reverse coefficient of BSC(p) is the binary entropy h(p)."""
    for p in crossovers:
        got = oracles.classical_reverse_alpha(oracles.bsc(p))
        want = oracles.binary_entropy(p)
        rec("bsc_reverse_alpha", abs(got - want) <= 1e-12, p=p, got=got,
            want=want)


def classical_embedding_alpha(rng, tol, rec, sizes) -> None:
    """alpha of an embedded stochastic matrix is its classical min-sum."""
    p_mats = []
    for size in sizes:
        raw = rng.uniform(size=(size, size))
        p_mats.append(raw / raw.sum(axis=0, keepdims=True))
    quantum = _alphas([ch.classical_embed(p_mat) for p_mat in p_mats], tol)
    for p_mat, got in zip(p_mats, quantum):
        classical = float(p_mat.min(axis=1).sum())
        rec("classical_embedding_alpha", abs(got - classical) <= 1e-5,
            got=got, want=classical, matrix=p_mat)


# ----------------------------------------------------------------- suites


def _suite_linalg(rng, tol, rec):
    for _ in range(10):
        dim = int(rng.integers(2, 9))
        h = _rand_herm(rng, dim)
        lam, vec = hermlin.eig_hermitian(h)
        recon_err = float(np.max(np.abs(vec @ np.diag(lam) @ vec.conj().T - h)))
        rec("eig_reconstruction", recon_err <= 1e-9 * dim, dim=dim, err=recon_err)
        ortho = float(np.max(np.abs(vec.conj().T @ vec - np.eye(dim))))
        rec("eig_orthonormal", ortho <= 1e-9, dim=dim, err=ortho)
        tn = hermlin.trace_norm(h)
        tn_ref = float(np.sum(np.abs(np.linalg.eigvalsh(h))))
        rec("trace_norm", abs(tn - tn_ref) <= 1e-9, dim=dim, err=abs(tn - tn_ref))
    for _ in range(10):
        a, b_m, c, d_m = (_rand_herm(rng, 2) for _ in range(4))
        err = float(
            np.max(
                np.abs(
                    hermlin.kron(a, b_m) @ hermlin.kron(c, d_m)
                    - hermlin.kron(a @ c, b_m @ d_m)
                )
            )
        )
        rec("kron_mixed_product", err <= 1e-11, err=err)
        ab = hermlin.kron(a, b_m)
        pt_err = float(
            np.max(np.abs(hermlin.partial_trace(ab, (2, 2), 0) - np.trace(b_m) * a))
        )
        rec("partial_trace_product", pt_err <= 1e-11, err=pt_err)
        twice = hermlin.partial_transpose(
            hermlin.partial_transpose(ab, (2, 2), 1), (2, 2), 1
        )
        rec("partial_transpose_involution", np.array_equal(twice, ab))
    for dim in (2, 3, 4):
        basis = hermlin.hermitian_basis(dim)
        gram = np.array(
            [[np.trace(x @ y).real for y in basis] for x in basis]
        )
        g_err = float(np.max(np.abs(gram - np.eye(dim * dim))))
        rec("basis_orthonormal", g_err <= 1e-12, dim=dim, err=g_err)


def _suite_channel(rng, tol, rec):
    for _ in range(8):
        d_in = int(rng.integers(2, 4))
        d_out = int(rng.integers(2, 4))
        n = ch.random_channel(d_in, d_out, seed=int(rng.integers(1 << 31)))
        j = n.choi.matrix
        rec("choi_psd", bool(np.linalg.eigvalsh(j)[0] >= -hermlin.PSD_TOL))
        marg = hermlin.partial_trace(j, (d_out, d_in), 1)
        m_err = float(np.max(np.abs(marg - np.eye(d_in) / d_in)))
        rec("choi_marginal", m_err <= 1e-9, err=m_err)
        rho = _rand_state(rng, d_in)
        back = ch.channel_from_choi(n.choi)
        rt_err = float(np.max(np.abs(back(rho) - n(rho))))
        rec("kraus_choi_roundtrip", rt_err <= 1e-9, err=rt_err)
    for _ in range(5):
        n = _rand_qubit(rng)
        m = _rand_qubit(rng)
        composed = ch.compose(m, n).choi.matrix
        linked = ch.link_product(m.choi, n.choi).matrix
        c_err = float(np.max(np.abs(composed - linked)))
        rec("compose_matches_link", c_err <= 1e-9, err=c_err)
        rho, sigma = _rand_state(rng, 2), _rand_state(rng, 2)
        t_err = float(
            np.max(
                np.abs(
                    ch.tensor(m, n)(np.kron(rho, sigma))
                    - np.kron(m(rho), n(sigma))
                )
            )
        )
        rec("tensor_on_products", t_err <= 1e-9, err=t_err)
    dep0 = ch.depolarizing(0.0).choi.matrix
    ident = ch.identity_channel(2).choi.matrix
    rec("depolarizing_zero_is_identity",
        float(np.max(np.abs(dep0 - ident))) <= 1e-12)
    flags = ch.validate(ch.depolarizing(0.5))
    rec("validate_cptp", flags.is_cp and flags.is_tp)
    rec("validate_ppt_depolarizing", ch.validate(ch.depolarizing(1.0)).is_ppt)
    rec("validate_not_ppt_identity", not ch.validate(ch.identity_channel(2)).is_ppt)


def _suite_sdp(rng, tol, rec):
    for _ in range(8):
        dim = int(rng.integers(2, 7))
        c = _rand_herm(rng, dim).real
        c = 0.5 * (c + c.T)
        problem = sdpcore.SdpProblem(
            num_vars=1,
            objective=np.array([1.0]),
            blocks=[sdpcore.SdpBlock(c=c, coeffs=[(0, np.eye(dim))])],
        )
        sol = sdpcore.solve(problem, tol=tol)
        target = float(np.linalg.eigvalsh(c)[0])
        rec("lambda_min_value", abs(sol.objective_value - target) <= 1e-6,
            dim=dim, got=sol.objective_value, want=target)
        rec("lambda_min_status", sol.status == sdpcore.STATUS_OPTIMAL,
            status=sol.status)
        rec("lambda_min_gap", sol.gap <= 10.0 * tol, gap=sol.gap)
    for _ in range(5):
        n = int(rng.integers(2, 6))
        cvec = rng.normal(size=n)
        problem = sdpcore.SdpProblem(
            num_vars=n,
            objective=cvec,
            blocks=[],
            lower=np.zeros(n),
            upper=np.ones(n),
        )
        sol = sdpcore.solve(problem, tol=tol)
        want = float(np.sum(np.clip(cvec, 0.0, None)))
        rec("box_lp_value", abs(sol.objective_value - want) <= 1e-6,
            got=sol.objective_value, want=want)
    problem = sdpcore.SdpProblem(
        num_vars=2,
        objective=np.array([1.0, 0.0]),
        blocks=[],
        eq_matrix=np.array([[1.0, 1.0], [2.0, 2.0]]),
        eq_rhs=np.array([1.0, 2.0]),
        lower=np.zeros(2),
        upper=np.ones(2),
    )
    sol = sdpcore.solve(problem, tol=tol)
    rec("redundant_equalities", abs(sol.objective_value - 1.0) <= 1e-6,
        got=sol.objective_value)


def _suite_doeblin(rng, tol, rec):
    for p in (0.0, 0.3, 0.7, 1.0):
        got = db.alpha(ch.depolarizing(p), tol).value
        rec("alpha_depolarizing", abs(got - p) <= 1e-6, p=p, got=got)
    got = db.alpha_transpose(ch.depolarizing(1.2), tol).value
    rec("alpha_transpose_depolarizing", abs(got - 0.8) <= 1e-5, got=got)
    rec("alpha_transpose_identity_flag",
        db.alpha_transpose(ch.identity_channel(2), tol).not_applicable)
    for p in (0.2, 0.9):
        got = db.reverse_alpha(ch.depolarizing(p), tol).value
        rec("reverse_alpha_depolarizing", abs(got - p) <= 1e-5, p=p, got=got)
    got = db.reverse_alpha_transpose(ch.identity_channel(2), tol).value
    rec("reverse_transpose_identity", abs(got - 2.0 / 3.0) <= 1e-5, got=got)
    for p, eta in ((0.3, 0.4), (0.8, 0.75)):
        got = db.reverse_alpha_hermitian(ch.gad(p, eta), tol).value
        rec("reverse_hermitian_gad", abs(got - (1.0 - eta)) <= 1e-4,
            p=p, eta=eta, got=got)
    alpha_concave(rng, tol, rec, 4)
    alpha_concatenation(rng, tol, rec, 6)
    alpha_supermultiplicative(rng, tol, rec, 3)
    sandwich(rng, tol, rec, 6)


def _suite_classical(rng, tol, rec):
    classical_chain(rng, tol, rec, 15)
    bsc_reverse_alpha(rng, tol, rec, (0.11, 0.3))
    rec("bec_capacity",
        abs(oracles.classical_capacity_biso(oracles.bec(0.3)) - 0.7) <= 1e-9)
    rec("bec_doeblin",
        abs(oracles.classical_doeblin(oracles.bec(0.25)) - 0.25) <= 1e-12)
    classical_embedding_alpha(rng, tol, rec, rng.integers(2, 4, size=8).tolist())


SUITES = {
    "linalg": _suite_linalg,
    "channel": _suite_channel,
    "sdp": _suite_sdp,
    "doeblin": _suite_doeblin,
    "classical": _suite_classical,
}
