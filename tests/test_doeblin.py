"""Coefficient SDP tests against closed forms and brute-force oracles."""

import numpy as np
import pytest

from qdoeblin import channel as ch
from qdoeblin import doeblin as db
from qdoeblin import hermlin, oracles, sdpcore

_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def bloch_state(v):
    v = np.asarray(v, dtype=float)
    return 0.5 * (np.eye(2) + v[0] * _X + v[1] * _Y + v[2] * _Z)


def alpha_bloch_oracle(channel, n_points=10_000, refine=40):
    """Grid-and-refine evaluation of the largest c with c sigma (x) 1/2 <= J.

    For each output state sigma on a Bloch-ball grid the best c is the
    smallest generalized eigenvalue of J with respect to sigma (x) 1/2; the
    maximum over sigma reproduces the Doeblin coefficient.  Optimizers are
    often pure, so the radius cap sits 1e-6 under the sphere where the
    pencil is still well conditioned.
    """
    j_mat = channel.choi.matrix
    eye_half = np.eye(2) / 2.0
    r_cap = 1.0 - 1e-6

    def c_of(points):
        sigs = np.array([bloch_state(v) for v in points])
        big = np.einsum("nab,cd->nacbd", sigs, eye_half).reshape(-1, 4, 4)
        w, vecs = np.linalg.eigh(big)
        w = np.clip(w, 1e-14, None)
        inv_sqrt = np.einsum("nik,nk,njk->nij", vecs, w**-0.5, vecs.conj())
        mid = inv_sqrt @ j_mat[None] @ inv_sqrt
        return np.linalg.eigvalsh(mid)[:, 0]

    dirs = oracles.fibonacci_sphere(max(1, n_points // 20))
    radii = np.concatenate([np.linspace(0.05, 0.95, 16), [0.99, 0.999, 0.9999, r_cap]])
    pts = (dirs[None, :, :] * radii[:, None, None]).reshape(-1, 3)
    pts = np.vstack([pts, np.zeros((1, 3))])
    vals = c_of(pts)
    best = pts[int(np.argmax(vals))].copy()
    best_val = float(np.max(vals))
    step = 0.05
    for _ in range(refine):
        probes = np.vstack([best + step * d for d in np.vstack([np.eye(3), -np.eye(3)])])
        norms = np.linalg.norm(probes, axis=1)
        over = norms > r_cap
        probes[over] *= (r_cap / norms[over])[:, None]
        cand = c_of(probes)
        k = int(np.argmax(cand))
        if cand[k] > best_val:
            best_val = float(cand[k])
            best = probes[k]
        else:
            step /= 2.0
    return best_val


def p1_isotropic_oracle(p, grid=1000):
    """Brute force over isotropic candidates (trace t, fidelity f <= 1/2)."""
    lam_phi = (1.0 - p) + p / 4.0
    lam_other = p / 4.0
    f = np.linspace(0.0, 0.5, grid + 1)[None, :]
    t = np.linspace(0.0, 1.0, grid + 1)[:, None]
    ok = (t * f <= lam_phi + 1e-12) & (t * (1.0 - f) / 3.0 <= lam_other + 1e-12)
    return float(np.max(np.where(ok, t, 0.0)))


def mix(lam, first, second):
    j = lam * first.choi.matrix + (1.0 - lam) * second.choi.matrix
    return ch.channel_from_choi(ch.ChoiMatrix(j, first.d_in, first.d_out))


# ---------------------------------------------------------------- forward


def test_alpha_depolarizing_closed_form():
    for p in np.linspace(0.0, 1.0, 11):
        res = db.alpha(ch.depolarizing(float(p)))
        assert res.status == sdpcore.STATUS_OPTIMAL
        assert abs(res.value - p) < 1e-6


def test_alpha_identity_is_zero():
    res = db.alpha(ch.identity_channel(2))
    assert abs(res.value) < 1e-7


def test_alpha_gad_matches_bloch_oracle():
    n = ch.gad(1.0, 0.5)
    assert abs(db.alpha(n).value - alpha_bloch_oracle(n)) < 1e-4


def test_alpha_witness_is_a_state_and_feasible():
    n = ch.depolarizing(0.6)
    res = db.alpha(n)
    w = res.witness
    assert w is not None
    assert abs(np.trace(w).real - 1.0) < 1e-8
    assert np.linalg.eigvalsh(w)[0] > -1e-9
    slack = n.choi.matrix - res.value * hermlin.kron(w, np.eye(2) / 2.0)
    assert np.linalg.eigvalsh(slack)[0] > -1e-7


def test_alpha_witness_suppressed_at_zero():
    assert db.alpha(ch.identity_channel(2)).witness is None


def test_alpha_transpose_identity_not_applicable():
    res = db.alpha_transpose(ch.identity_channel(2))
    assert res.not_applicable
    assert res.status == "not_applicable"
    assert np.isnan(res.value)
    assert res.witness is None


def test_alpha_transpose_depolarizing_extreme():
    n = ch.depolarizing(4.0 / 3.0)
    vals = [db.alpha(n).value, db.alpha_transpose(n).value]
    assert abs(max(vals) - 2.0 + 4.0 / 3.0) < 1e-5


def test_alpha_transpose_role_interchange():
    # transposing the transpose-depolarizing channel gives back depolarizing,
    # so alpha_T of one profile tracks alpha of the other
    for q in [2.0 / 3.0, 0.8, 1.0]:
        res = db.alpha_transpose(ch.transpose_depolarizing(q))
        assert not res.not_applicable
        assert abs(res.value - q) < 1e-5


def test_alpha_hermitian_depolarizing():
    assert abs(db.alpha_hermitian(ch.depolarizing(0.5)).value - 0.5) < 1e-6


def test_alpha_hermitian_bitflip_zero():
    for p in [0.1, 0.3, 0.45]:
        assert abs(db.alpha_hermitian(ch.bitflip(p)).value) < 1e-6


def test_alpha_hermitian_separates_on_damping():
    n = ch.gad(1.0, 0.7)
    plain = db.alpha(n).value
    relaxed = db.alpha_hermitian(n).value
    assert abs(plain) < 1e-6
    assert relaxed > 0.01


def test_alpha_hermitian_dominates_alpha():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = ch.random_channel(2, 2, seed=int(rng.integers(1 << 31)))
        assert db.alpha_hermitian(n).value >= db.alpha(n).value - 1e-6


def test_alpha_transpose_hermitian_defined_beyond_ppt():
    # not PPT, so the positive transpose variant bails out but the
    # Hermitian-relaxed one still returns a finite certificate
    n = ch.depolarizing(0.2)
    assert db.alpha_transpose(n).not_applicable
    res = db.alpha_transpose_hermitian(n)
    assert res.status == sdpcore.STATUS_OPTIMAL
    assert np.isfinite(res.value)
    assert abs(res.value - (-1.4)) < 1e-5


def test_forward_values_in_unit_interval_when_optimal():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = ch.random_channel(2, 2, seed=int(rng.integers(1 << 31)))
        for fn in (db.alpha, db.p1_eb_ppt):
            res = fn(n)
            if res.status == sdpcore.STATUS_OPTIMAL:
                assert -1e-7 <= res.value <= 1.0 + 1e-7


# --------------------------------------------------------------------- p1


def test_p1_replacer_is_one():
    sigma = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex)
    assert abs(db.p1_eb_ppt(ch.replacer(sigma)).value - 1.0) < 1e-7


def test_p1_identity_is_zero():
    assert abs(db.p1_eb_ppt(ch.identity_channel(2)).value) < 1e-7


def test_p1_depolarizing_matches_isotropic_oracle():
    assert abs(db.p1_eb_ppt(ch.depolarizing(0.5)).value - p1_isotropic_oracle(0.5)) < 1e-5
    for p in [0.2, 0.8]:
        assert abs(db.p1_eb_ppt(ch.depolarizing(p)).value - p1_isotropic_oracle(p)) < 1e-5


def test_p1_dominates_alpha():
    rng = np.random.default_rng(31)
    for _ in range(15):
        n = ch.random_channel(2, 2, seed=int(rng.integers(1 << 31)))
        assert db.p1_eb_ppt(n).value >= db.alpha(n).value - 1e-6


# ---------------------------------------------------------------- reverse


def test_reverse_alpha_depolarizing():
    for p in [0.2, 0.6, 1.0]:
        res = db.reverse_alpha(ch.depolarizing(p))
        assert res.status == sdpcore.STATUS_OPTIMAL
        assert abs(res.value - p) < 1e-6


def test_reverse_alpha_identity():
    assert abs(db.reverse_alpha(ch.identity_channel(2)).value) < 1e-6


def test_reverse_alpha_bitflip_half():
    assert abs(db.reverse_alpha(ch.bitflip(0.5)).value - 1.0) < 1e-6


def test_reverse_alpha_witness_is_degrading_choi():
    n = ch.depolarizing(0.4)
    res = db.reverse_alpha(n)
    d_choi = res.witness
    assert np.linalg.eigvalsh(d_choi)[0] > -1e-7
    marg = hermlin.partial_trace(d_choi, (2, 2), 1)
    np.testing.assert_allclose(marg, np.eye(2) / 2.0, atol=1e-7)
    composed = ch.link_raw(d_choi, (2, 2), n.choi.matrix, (2, 2))
    target = (1.0 - res.value) * ch.max_entangled(2) + res.value * np.eye(4) / 4.0
    np.testing.assert_allclose(composed, target, atol=1e-6)


def test_reverse_alpha_transpose_identity():
    assert abs(db.reverse_alpha_transpose(ch.identity_channel(2)).value - 2.0 / 3.0) < 1e-6


def test_reverse_alpha_transpose_depolarizing_extreme():
    res = db.reverse_alpha_transpose(ch.depolarizing(4.0 / 3.0))
    assert abs(res.value - 2.0 / 3.0) < 1e-5


def test_reverse_alpha_transpose_lower_bound():
    rng = np.random.default_rng(47)
    for _ in range(10):
        n = ch.random_channel(2, 2, seed=int(rng.integers(1 << 31)))
        assert db.reverse_alpha_transpose(n).value >= 2.0 / 3.0 - 1e-6


def test_reverse_alpha_hermitian_gad():
    for p, eta in [(1.0, 0.3), (0.5, 0.5), (0.2, 0.8)]:
        res = db.reverse_alpha_hermitian(ch.gad(p, eta))
        assert abs(res.value - (1.0 - eta)) < 1e-5


def test_reverse_alpha_hermitian_generalized_depolarizing():
    rng = np.random.default_rng(53)
    for q in [0.15, 0.6]:
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        sigma = g @ g.conj().T
        sigma /= np.trace(sigma).real
        res = db.reverse_alpha_hermitian(ch.generalized_depolarizing(q, sigma))
        assert abs(res.value - q) < 1e-5


def test_reverse_alpha_hermitian_identity():
    assert abs(db.reverse_alpha_hermitian(ch.identity_channel(2)).value) < 1e-6


def test_reverse_hermitian_below_reverse():
    rng = np.random.default_rng(59)
    for _ in range(10):
        n = ch.random_channel(2, 2, seed=int(rng.integers(1 << 31)))
        rh = db.reverse_alpha_hermitian(n).value
        rv = db.reverse_alpha(n).value
        assert rh <= rv + 1e-6
        assert rv <= 1.0 + 1e-6


def test_reverse_rejects_rectangular():
    with pytest.raises(ValueError, match="d_in == d_out"):
        db.reverse_alpha(ch.erasure(0.3))


# ------------------------------------------------------------------ qudits

def test_pair_traces_matches_trace_loop():
    # Reference: the entry-by-entry loop the equality rows were built with.
    rng = np.random.default_rng(67)
    gs = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
    gs = gs + gs.conj().transpose(0, 2, 1)
    ms = rng.normal(size=(7, 4, 4)) + 1j * rng.normal(size=(7, 4, 4))
    loop = np.array([[np.trace(g @ m).real for m in ms] for g in gs])
    np.testing.assert_allclose(db._pair_traces(gs, ms), loop, rtol=0, atol=1e-12)


def test_stacked_lowering_matches_per_element_embed():
    # Reference: one real_embed call per basis element, as blocks were built
    # before each block's basis stack was lowered in one call.
    for d_out, d_in in ((2, 2), (3, 2)):
        basis = hermlin.hermitian_basis(d_out * d_in)
        transposed = [hermlin.partial_transpose(bb, (d_out, d_in), 1) for bb in basis]
        for stack in (basis, transposed):
            lowered = db._embed(stack)
            for bb, low in zip(stack, lowered):
                assert np.array_equal(low, hermlin.real_embed(bb, tol=1e-9))


def test_expansion_lower_bound_is_one_minus_min_reverse(monkeypatch):
    for chan in (ch.gad(0.3, 0.6), ch.random_channel(2, 2, seed=9)):
        separate = [
            f(chan).value
            for f in (db.reverse_alpha_hermitian, db.reverse_alpha, db.reverse_alpha_transpose)
        ]
        calls = []

        def counting_link_raw(later, *args):
            calls.append(np.shape(later))
            return ch.link_raw(later, *args)

        monkeypatch.setattr(db, "link_raw", counting_link_raw)
        assert db.expansion_lower_bound(chan) == 1.0 - min(separate)
        monkeypatch.undo()
        # Each reverse program links the whole basis stack of its degrading
        # map in one call.
        assert calls == [(16, 4, 4)] * 3


QUDIT_CLOSED_FORMS = {
    db.alpha: lambda p, d: p,
    db.alpha_hermitian: lambda p, d: p,
    db.p1_eb_ppt: lambda p, d: min(1.0, p * (d + 1) / d),
    db.reverse_alpha: lambda p, d: p,
    db.reverse_alpha_transpose: lambda p, d: (d + p) / (d + 1),
    db.reverse_alpha_hermitian: lambda p, d: p,
}


@pytest.mark.parametrize(
    "coeff, d, p",
    [(f, d, p) for d, p in ((3, 0.6), (4, 0.85)) for f in QUDIT_CLOSED_FORMS]
    + [(db.p1_eb_ppt, 5, 0.6)],
    ids=lambda v: getattr(v, "__name__", str(v)),
)
def test_qudit_depolarizing_closed_forms(coeff, d, p):
    res = coeff(ch.depolarizing(p, d))
    assert res.status == sdpcore.STATUS_OPTIMAL
    assert abs(res.value - QUDIT_CLOSED_FORMS[coeff](p, d)) < 1e-5


# ----------------------------------------------------------------- bounds


def test_dp_range_depolarizing_above_one_collapses():
    r = db.dp_range(ch.depolarizing(1.2), label="dep-1.2")
    assert abs(r.upper - 0.2) < 1e-5
    assert abs(r.lower - 0.2) < 1e-5
    assert r.label == "dep-1.2"


def test_dp_range_ordering_random():
    rng = np.random.default_rng(61)
    for _ in range(10):
        n = ch.random_channel(2, 2, seed=int(rng.integers(1 << 31)))
        r = db.dp_range(n)
        assert r.lower <= r.upper + 1e-6


def test_bounds_bitflip():
    n = ch.bitflip(0.3)
    assert abs(db.contraction_upper_bound(n) - 1.0) < 1e-4
    assert db.expansion_lower_bound(n) <= 0.4 + 1e-3


def test_bounds_replacer():
    n = ch.replacer(np.eye(2) / 2.0)
    assert abs(db.contraction_upper_bound(n)) < 1e-6
    assert abs(db.expansion_lower_bound(n)) < 1e-6


def test_capacity_bounds_depolarizing():
    b = db.capacity_bounds(ch.depolarizing(0.3))
    assert abs(b.q_bound - 0.4) < 1e-5
    assert abs(b.q2_bound - 0.7) < 1e-5
    assert abs(b.c_bound - 0.7) < 1e-5


def test_capacity_bounds_erasure_half():
    b = db.capacity_bounds(ch.erasure(0.5))
    assert abs(b.q_bound) < 1e-5


def test_capacity_bounds_replacer_all_zero():
    b = db.capacity_bounds(ch.replacer(np.eye(2) / 2.0))
    assert abs(b.q_bound) < 1e-5
    assert abs(b.q2_bound) < 1e-5
    assert abs(b.c_bound) < 1e-5


def test_capacity_q_bound_requires_qubit_input():
    b = db.capacity_bounds(ch.depolarizing(0.5, d=3))
    assert b.q_bound is None
    assert b.q2_bound is not None


# ------------------------------------------------- structural properties


def test_concavity_of_alpha():
    rng = np.random.default_rng(67)
    for _ in range(25):
        n = ch.random_channel(2, 2, seed=int(rng.integers(1 << 31)))
        m = ch.random_channel(2, 2, seed=int(rng.integers(1 << 31)))
        an, am = db.alpha(n).value, db.alpha(m).value
        for lam in (0.25, 0.5, 0.75):
            mixed = db.alpha(mix(lam, n, m)).value
            assert mixed >= lam * an + (1.0 - lam) * am - 1e-6


def test_supermultiplicativity_of_alpha():
    rng = np.random.default_rng(71)
    for _ in range(10):
        n = ch.random_channel(2, 2, seed=int(rng.integers(1 << 31)))
        m = ch.random_channel(2, 2, seed=int(rng.integers(1 << 31)))
        joint = db.alpha(ch.tensor(n, m)).value
        assert joint >= db.alpha(n).value * db.alpha(m).value - 1e-6


def test_concatenation_of_alpha():
    rng = np.random.default_rng(73)
    for _ in range(25):
        n = ch.random_channel(2, 2, seed=int(rng.integers(1 << 31)))
        m = ch.random_channel(2, 2, seed=int(rng.integers(1 << 31)))
        chained = db.alpha(ch.compose(n, m)).value
        bound = (1.0 - db.alpha(n).value) * (1.0 - db.alpha(m).value)
        assert 1.0 - chained <= bound + 1e-6


def test_alpha_matches_bloch_oracle_on_random_channels():
    rng = np.random.default_rng(79)
    for _ in range(12):
        n = ch.random_channel(2, 2, seed=int(rng.integers(1 << 31)))
        assert abs(db.alpha(n).value - alpha_bloch_oracle(n)) < 1e-4


def test_sandwich_against_oracles():
    rng = np.random.default_rng(83)
    for _ in range(25):
        n = ch.random_channel(2, 2, seed=int(rng.integers(1 << 31)))
        a = db.alpha(n).value
        ra = db.reverse_alpha(n).value
        hi = oracles.eta_tr_qubit(n)
        lo = oracles.eta_tr_expansion_qubit(n)
        assert 1.0 - ra <= lo + 1e-4
        assert lo <= hi + 1e-9
        assert hi <= 1.0 - a + 1e-4
