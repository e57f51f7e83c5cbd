"""Coefficient SDP tests against closed forms and brute-force oracles."""

import numpy as np
import pytest

from qdoeblin import channel as ch
from qdoeblin import doeblin as db
from qdoeblin import hermlin, oracles, properties, sdpcore
from reference import link_program, pinched, random_unitary, real_embed

_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def bloch_state(v):
    v = np.asarray(v, dtype=float)
    return 0.5 * (np.eye(2) + v[0] * _X + v[1] * _Y + v[2] * _Z)


def golden_angle_directions(n):
    """n nearly uniform unit vectors on the sphere, on a golden-angle spiral."""
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    phi = i * np.pi * (3.0 - np.sqrt(5.0))
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def alpha_bloch_oracle(channel, n_dirs=500, refine=40):
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

    dirs = golden_angle_directions(n_dirs)
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
    # before each block's basis stack was lowered in one call.  A complex
    # program's block is now the Hermitian stack itself, and its embedding
    # is the old block.
    for d_out, d_in in ((2, 2), (3, 2)):
        dim = d_out * d_in
        low = db._Lowered([dim], {0: np.eye(dim)}, [], [], real=False)
        basis = hermlin.hermitian_basis(dim)
        transposed = [hermlin.partial_transpose(bb, (d_out, d_in), 1) for bb in basis]
        for stack in (basis, transposed):
            lowered = low.block(stack)
            assert lowered.shape == (len(stack), dim, dim)
            assert lowered.dtype == np.complex128
            for bb, blk in zip(stack, lowered):
                assert np.array_equal(real_embed(blk), real_embed(bb, tol=1e-9))


def test_expansion_lower_bound_is_one_minus_min_reverse(monkeypatch):
    # An invertible channel, and two singular ones, whose reverse
    # coefficients are 1 without a solve: a replacer and a dephased,
    # rotated random channel.
    for chan, one in ((ch.gad(0.3, 0.6), False), (ch.gad(0.3, 0.0), True),
                      (pinched(ch.random_channel(2, 2, seed=9), 1, random_unitary(2, 9)), True)):
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
        # Each reverse kind of an invertible channel links its anchor to the
        # inverse in one call; a singular channel has no inverse to link.
        assert calls == ([] if one else [(4, 4)] * 3)
        assert (min(separate) == 1.0) == one


def test_expansion_bound_without_an_optimal_reverse_solve_is_trivial():
    # At tol 1e-16 no reverse solve of gad(0.5, 0.6) ends optimal, so the
    # bound falls back to 0.0 (every reverse coefficient is at most 1) and
    # not to a non-optimal value.
    chan = ch.gad(0.5, 0.6)
    reverse = [
        f(chan, 1e-16).status
        for f in (db.reverse_alpha_hermitian, db.reverse_alpha, db.reverse_alpha_transpose)
    ]
    assert sdpcore.STATUS_OPTIMAL not in reverse
    r = db.dp_range(chan, tol=1e-16)
    assert r.lower == 0.0
    assert r.status != sdpcore.STATUS_OPTIMAL
    assert db.expansion_lower_bound(chan, tol=1e-16) == 0.0
    # At the default tolerance the bound is 1 - revH = eta.
    assert db.dp_range(chan).status == sdpcore.STATUS_OPTIMAL
    assert abs(db.dp_range(chan).lower - 0.6) < 1e-6
    assert abs(db.expansion_lower_bound(chan) - 0.6) < 1e-6


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
    r = db.dp_range(ch.depolarizing(1.2))
    assert abs(r.upper - 0.2) < 1e-5
    assert abs(r.lower - 0.2) < 1e-5


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


def test_capacity_bounds_carry_the_alpha_status():
    assert db.capacity_bounds(ch.depolarizing(0.3)).status == sdpcore.STATUS_OPTIMAL
    tight = db.capacity_bounds(ch.gad(0.5, 0.6), tol=1e-16)
    assert tight.status in (sdpcore.STATUS_MAX_ITER, sdpcore.STATUS_NUMERICAL)


def test_capacity_q_bound_requires_qubit_input():
    b = db.capacity_bounds(ch.depolarizing(0.5, d=3))
    assert b.q_bound is None
    assert b.q2_bound is not None


# ------------------------------------------------- structural properties


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
        assert 1.0 - ra <= lo + 1e-6
        assert lo <= hi + 1e-9
        assert hi <= 1.0 - a + 1e-6


# ------------------------------------------------------------ grid entry

SINGLE = {
    db.KIND_ALPHA: db.alpha,
    db.KIND_ALPHA_T: db.alpha_transpose,
    db.KIND_ALPHA_H: db.alpha_hermitian,
    db.KIND_ALPHA_TH: db.alpha_transpose_hermitian,
    db.KIND_P1: db.p1_eb_ppt,
    db.KIND_REV: db.reverse_alpha,
    db.KIND_REV_T: db.reverse_alpha_transpose,
    db.KIND_REV_H: db.reverse_alpha_hermitian,
}
# Test ids of the kinds, fixed before the kinds took their CLI names.
KIND_IDS = {
    db.KIND_ALPHA: "alpha",
    db.KIND_ALPHA_T: "alpha_T",
    db.KIND_ALPHA_H: "alpha_H",
    db.KIND_ALPHA_TH: "alpha_TH",
    db.KIND_P1: "p1_ppt",
    db.KIND_REV: "rev_alpha",
    db.KIND_REV_T: "rev_alpha_T",
    db.KIND_REV_H: "rev_alpha_H",
}


def _kind_id(value):
    return KIND_IDS.get(value) if isinstance(value, str) else None


_REVERSE = (db.KIND_REV, db.KIND_REV_T, db.KIND_REV_H)


def _linked(kind, channels, tol=sdpcore.DEFAULT_TOL):
    """The reference link program of a reverse kind on every channel,
    solved as the library solves its own programs."""
    [results] = db._solve([link_program(list(channels), kind)], tol)
    return results


def _sdp_bound(kind):
    """The single-channel call of ``kind`` that reaches the solver: the
    kind's own function, or for a reverse kind the reference link program
    (the library answers rev and revT in closed form and the singular
    channels of every reverse kind without a solve)."""
    if kind in _REVERSE:
        return lambda chan, tol=sdpcore.DEFAULT_TOL: _linked(kind, [chan], tol)[0]
    return SINGLE[kind]


def _boundary_channels():
    """Boundary channels: replacer and identity corners of gad, an interior
    point, the end of the depolarizing family and a unitary (rank-1 Kraus)."""
    u = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / np.sqrt(2.0)
    return [
        ch.gad(0.0, 0.0),
        ch.gad(1.0, 0.0),
        ch.gad(0.5, 0.6),
        ch.depolarizing(4.0 / 3.0),
        ch.channel_from_kraus([u]),
    ]


@pytest.mark.parametrize("tol", [sdpcore.DEFAULT_TOL, 1e-16])
def test_grid_equals_single_calls(tol):
    # A grid solves its points in lockstep batches; every point must get
    # exactly its single-channel result, failures included.
    channels = _boundary_channels()
    for kind, single in SINGLE.items():
        for chan, got in zip(channels, db.solve_grid(kind, channels, tol)):
            want = single(chan, tol)
            assert (got.status, got.not_applicable) == (want.status, want.not_applicable), kind
            if want.solution is None:
                assert got.solution is None and np.isnan(got.value), kind
                continue
            assert got.solution.iterations == want.solution.iterations, kind
            assert got.value == want.value, kind
    for chan, got in zip(channels, db.solve_grid(db.KIND_DP, channels, tol)):
        assert got == db.dp_range(chan, tol)


def test_grid_keeps_input_order_across_dimensions():
    channels = [ch.depolarizing(0.3, 3), ch.depolarizing(0.3), ch.depolarizing(0.6, 3)]
    got = db.solve_grid(db.KIND_ALPHA, channels)
    assert [r.value for r in got] == [db.alpha(c).value for c in channels]


def test_grid_equals_single_calls_when_points_leave_mid_batch():
    # At an unreachable tolerance the points of this column stop at
    # different iterations and for different reasons (tiny step, mu <= 0,
    # singular KKT), so the batch shrinks while the others run on; each
    # point must still follow its single-call iterate sequence.
    channels = [ch.gad(1.0, eta) for eta in np.linspace(0.0, 1.0, 51)]
    got = db.solve_grid(db.KIND_REV_H, channels, 1e-16)
    for chan, res in zip(channels, got):
        want = db.reverse_alpha_hermitian(chan, 1e-16)
        assert (res.status, res.solution.iterations) == (want.status, want.solution.iterations)
        assert res.value == want.value


def test_grid_mixing_real_and_complex_channels_equals_single_calls():
    # The real depolarizing channels and the complex random one are lowered
    # and solved apart; each point must still get its single-call result.
    channels = [ch.depolarizing(0.3, 3), ch.random_channel(3, 3, seed=7), ch.depolarizing(0.6, 3)]
    for kind, single in SINGLE.items():
        for chan, got in zip(channels, db.solve_grid(kind, channels)):
            want = single(chan)
            assert (got.status, got.not_applicable) == (want.status, want.not_applicable), kind
            if want.solution is None:
                assert got.solution is None and np.isnan(got.value), kind
                continue
            assert got.solution.iterations == want.solution.iterations, kind
            assert got.value == want.value, kind
            assert np.array_equal(got.solution.y, want.solution.y), kind
    for chan, got in zip(channels, db.solve_grid(db.KIND_DP, channels)):
        assert got == db.dp_range(chan)


def _output_rotated(chan, u):
    """The channel ``rho -> U N(rho) U^dag``."""
    return ch.channel_from_kraus([u @ k for k in chan.kraus], chan.d_in, chan.d_out)


# p1 at the replacer corners gad(0, 0) and gad(1, 0) ends optimal or
# max_iter depending on roundoff, so it is left out there.
_P1_ROUNDOFF_CORNERS = ((0.0, 0.0), (1.0, 0.0))


def _real_channels(kind):
    gads = ((0.0, 0.0), (1.0, 0.0), (0.5, 0.6), (0.2, 1.0))
    chans = [
        ch.gad(p, eta)
        for p, eta in gads
        if not (kind == db.KIND_P1 and (p, eta) in _P1_ROUNDOFF_CORNERS)
    ]
    chans += [ch.depolarizing(0.6, d) for d in (2, 3, 4)]
    chans.append(ch.classical_embed(np.array([[0.7, 0.2, 0.1], [0.2, 0.6, 0.3], [0.1, 0.2, 0.6]])))
    return chans


@pytest.mark.parametrize("kind", list(SINGLE), ids=_kind_id)
def test_real_programs_match_their_complex_rotations(kind):
    # A real channel takes the real path: real symmetric variables, blocks
    # of half the side.  Rotating its output by a unitary leaves every
    # coefficient as it is but makes the program complex, so the copy takes
    # the complex Hermitian path at the same side; both must agree.
    single = _sdp_bound(kind)
    for chan in _real_channels(kind):
        d = chan.d_out
        # A phase alone leaves a diagonal (classical) Choi matrix real.
        mix = np.linalg.qr(np.arange(1.0, d * d + 1.0).reshape(d, d) ** 0.5)[0]
        u = np.diag(np.exp(0.7j * np.arange(d))) @ mix
        copy = _output_rotated(chan, u)
        assert np.imag(copy.choi.matrix).any()
        got, want = single(chan), single(copy)
        assert (got.status, got.not_applicable) == (want.status, want.not_applicable), chan
        if want.solution is None:
            continue
        assert abs(got.value - want.value) < 1e-7, (chan, got.value, want.value)
        n = chan.d_in * chan.d_out
        assert got.solution.x_blocks[0].shape == (n, n)
        assert got.solution.x_blocks[0].dtype == np.float64
        assert want.solution.x_blocks[0].shape == (n, n)
        assert want.solution.x_blocks[0].dtype == np.complex128


def test_shared_map_that_breaks_conjugation_takes_the_complex_path():
    # Real weights and constants, but a shared map X -> U X U^dag that does
    # not commute with complex conjugation: the declaration is not real, so
    # the block must be complex Hermitian.  Lowered as a real program
    # instead, it ends as a numerical failure with value 0.
    u = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / np.sqrt(2.0)
    w = np.array([[2.0, 0.5], [0.5, 1.0]])
    c = np.diag([1.0, 3.0])
    [[(sol, _)]] = db._solve(
        [db._program([2], {0: w}, [(c, {0: lambda b: u @ b @ u.conj().T})], count=1)], 1e-9
    )
    assert sol.status == sdpcore.STATUS_OPTIMAL
    want = np.trace(u @ w @ u.conj().T @ c).real
    assert abs(want - 6.0) < 1e-12
    assert abs(sol.objective_value - want) < 1e-7
    assert sol.x_blocks[0].shape == (2, 2)
    assert sol.x_blocks[0].dtype == np.complex128


def test_complex_program_lowers_to_hermitian_blocks(monkeypatch):
    # One PSD-block lowering for every program: a complex channel's alpha
    # has its blocks J - sigma (x) 1/d and sigma at their own sides, complex
    # Hermitian and of multiplicity 2, like the real part of a real one.
    seen = []
    solve = sdpcore.solve

    def spy(problem, **kw):
        seen.append(problem)
        return solve(problem, **kw)

    monkeypatch.setattr(db.sdpcore, "solve", spy)
    assert db.alpha(ch.random_channel(3, 3, seed=7)).status == sdpcore.STATUS_OPTIMAL
    [prob] = seen
    assert [blk.dim for blk in prob.blocks] == [9, 3]
    for blk in prob.blocks:
        assert blk.w == 2
        assert blk.c.dtype == np.complex128
        assert all(a.dtype == np.complex128 for _, a in blk.coeffs)
    assert prob.num_vars == 9


def _spy(monkeypatch, module, name, calls):
    """Count the calls of ``module.name`` into ``calls[name]``."""
    fn = getattr(module, name)
    calls[name] = 0

    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize(
    "kind, sizes", [(db.KIND_REV, {2, 6}), (db.KIND_REV_H, {4, 8})], ids=_kind_id
)
def test_reverse_grid_over_two_null_space_sizes_equals_single_calls(monkeypatch, kind, sizes):
    # The replacer points gad(p, 0) leave a larger null space of the
    # equality rows of the reference link program than the interior
    # points: the solver iterates on two variable counts, and every point
    # must still get its single call.
    channels = [ch.gad(p, eta) for p, eta in
                [(0.3, 0.5), (0.2, 0.0), (0.6, 0.4), (0.9, 0.0), (0.0, 0.0), (0.7, 0.8)]]
    prepare = sdpcore._prepare
    counts = []

    def spy(problems):
        parts = prepare(problems)
        counts.extend(len(part.b) for part in parts)
        return parts

    monkeypatch.setattr(sdpcore, "_prepare", spy)
    got = _linked(kind, channels)
    assert set(counts) == sizes
    for chan, res in zip(channels, got):
        want = _sdp_bound(kind)(chan)
        assert res.status == want.status == sdpcore.STATUS_OPTIMAL
        assert res.solution.iterations == want.solution.iterations
        assert res.value == want.value
        assert np.array_equal(res.solution.y, want.solution.y)
        assert np.array_equal(res.witness, want.witness)


def _same_result(got, want):
    """Bitwise the same value, status, iteration count and witness."""
    assert (got.status, got.not_applicable) == (want.status, want.not_applicable)
    if want.solution is None:
        assert got.solution is None and np.isnan(got.value)
        return
    assert got.solution.iterations == want.solution.iterations
    assert got.value == want.value
    if want.witness is None:
        assert got.witness is None
    else:
        assert np.array_equal(got.witness, want.witness)


def test_grids_of_stacks_equal_grids_of_channels():
    # A grid given as Choi stacks, or as a list mixing stacks and
    # channels, gets bitwise the results of its channels.
    kinds = [*SINGLE, db.KIND_DP]
    ps = [0.0, 0.5, 1.0]
    gads = ch.gad_stack([p for p in ps for _ in ps], [e for _ in ps for e in ps])
    deps = ch.depolarizing_stack([0.0, 0.6, 1.1], 3)
    chans = [ch.gad(p, e) for p in ps for e in ps] + [ch.depolarizing(p, 3) for p in (0.0, 0.6, 1.1)]
    want = db.solve_grids(kinds, chans)
    for grid in ([gads, deps], [gads, *chans[len(ps) ** 2 :]]):
        got = db.solve_grids(kinds, grid)
        for kind in SINGLE:
            for g, w in zip(got[kind], want[kind], strict=True):
                _same_result(g, w)
        assert got[db.KIND_DP] == want[db.KIND_DP]
    got = db.solve_grids(kinds, gads)
    for kind in SINGLE:
        for g, w in zip(got[kind], want[kind][: len(ps) ** 2], strict=True):
            _same_result(g, w)


def test_kinds_in_one_call_equal_their_own_grids(monkeypatch):
    # Singular qutrit channels: the pinching P onto span(|0>, |1>) and |2>,
    # depolarized after it on both sides of the PPT boundary q = 3/4
    # (alphaT applies at the first two only), and a complex channel.  The
    # range and rev in one call solve its five kinds once, and every result
    # is bitwise its kind's own grid result.  The points of one kind and
    # one realness run as one lockstep batch: 5, 1 and 2 problems.
    pinching = pinched(ch.identity_channel(3), 2)
    channels = [ch.compose(ch.depolarizing(q, 3), pinching) for q in (0.9, 0.8, 0.5, 0.3, 0.1)]
    channels.append(pinched(ch.random_channel(3, 3, seed=3), 2, random_unitary(3, 3)))
    sizes = []
    lockstep = sdpcore._lockstep

    def counted(part, *args):
        sizes.append(len(part))
        return lockstep(part, *args)

    monkeypatch.setattr(sdpcore, "_lockstep", counted)
    got = db.solve_grids([db.KIND_DP, db.KIND_REV], channels)
    monkeypatch.undo()
    assert sizes == [5, 1, 2]
    assert list(got) == [db.KIND_DP, db.KIND_REV]
    assert [r.not_applicable for r in db.solve_grid(db.KIND_ALPHA_T, channels)] == [
        False, False, True, True, True, True]
    assert got[db.KIND_DP] == db.solve_grid(db.KIND_DP, channels)
    for res, want in zip(got[db.KIND_REV], db.solve_grid(db.KIND_REV, channels)):
        _same_result(res, want)
    mixed = db.solve_grids([db.KIND_REV_T, db.KIND_ALPHA_T, db.KIND_REV], channels)
    for kind, results in mixed.items():
        for res, want in zip(results, db.solve_grid(kind, channels)):
            _same_result(res, want)

    # The reference link programs of rev and revT, declared together.
    both = db._solve([link_program(channels, kind) for kind in (db.KIND_REV, db.KIND_REV_T)],
                     sdpcore.DEFAULT_TOL)
    for res, want in zip(both[0], _linked(db.KIND_REV, channels)):
        _same_result(res, want)
    for res, want in zip(both[1], _linked(db.KIND_REV_T, channels)):
        _same_result(res, want)


@pytest.mark.parametrize("kind", [db.KIND_REV, db.KIND_REV_T, db.KIND_REV_H], ids=_kind_id)
def test_reverse_rejects_rectangular_before_any_arithmetic(monkeypatch, kind):
    # The dimension check comes before the closed form, which would
    # otherwise fail on a reshape of the rectangular Choi matrix.
    def closed_form(*args):
        raise AssertionError("closed form reached")

    monkeypatch.setattr(db, "_closed_form", closed_form)
    with pytest.raises(ValueError, match="d_in == d_out"):
        SINGLE[kind](ch.erasure(0.3))
    with pytest.raises(ValueError, match="d_in == d_out"):
        db.solve_grid(kind, [ch.erasure(0.3)])
    monkeypatch.undo()
    # A square group of the same grid does not hide the error.
    with pytest.raises(ValueError, match="d_in == d_out"):
        db.solve_grid(kind, [ch.depolarizing(0.3), ch.erasure(0.3)])


def test_reverse_closed_form_law():
    # Random channels at d = 2..5, depolarizing and gad edge cases; see
    # properties.reverse_closed_form.
    rng = np.random.default_rng(2024)
    rec = properties.Recorder("reverse closed form")
    properties.reverse_closed_form(rng, sdpcore.DEFAULT_TOL, rec, (2, 3, 4, 5) * 3)
    assert rec.failed == 0, rec.first
    assert rec.passed >= 190


def _original_reverse_channels():
    """The invertible channels the SDP-path tests ran rev and revT on
    before the closed form took them."""
    yield from (ch.gad(0.3, 0.6), ch.random_channel(2, 2, seed=9), ch.random_channel(3, 3, seed=7))
    yield from (ch.gad(p, eta) for p, eta in
                [(0.3, 0.1), (0.5, 0.04), (0.3, 0.2), (0.5, 0.5), (1.0, 0.8), (0.3, 0.5),
                 (0.6, 0.4), (0.7, 0.8), (0.5, 0.6), (0.2, 1.0)])
    yield ch.random_channel(2, 2, seed=3)
    yield from (ch.depolarizing(0.6, d) for d in (2, 3, 4))


def test_invertible_channels_skip_the_solver(monkeypatch):
    calls = {}
    _spy(monkeypatch, sdpcore, "solve", calls)
    _spy(monkeypatch, sdpcore, "_lockstep", calls)
    for chan in _original_reverse_channels():
        for kind in (db.KIND_REV, db.KIND_REV_T):
            res = SINGLE[kind](chan)
            assert res.status == sdpcore.STATUS_OPTIMAL, (kind, chan)
            assert res.solution.iterations == 0, (kind, chan)
    assert calls == {"solve": 0, "_lockstep": 0}
    # A grid is one stacked closed form: one link product, of the anchor
    # with every channel, and no SVD of equality rows.
    _spy(monkeypatch, sdpcore, "_null_space", calls)
    linked = []

    def link_raw(later, *args):
        linked.append(np.shape(later))
        return ch.link_raw(later, *args)

    monkeypatch.setattr(db, "link_raw", link_raw)
    got = db.solve_grid(db.KIND_REV, [ch.gad(p, 0.5) for p in np.linspace(0.0, 1.0, 51)])
    assert [r.solution.iterations for r in got] == [0] * 51
    assert linked == [(4, 4)]
    assert calls["_null_space"] == calls["_lockstep"] == 0


def test_reverse_kinds_of_a_grid_share_one_inverse(monkeypatch):
    # A range asks for rev, revT and revH.  One stacked inverse of the 16
    # superoperators serves all three, also with the singular eta = 0
    # points in the stack (no inverse slice by slice), rev and revH share
    # one link to the identity anchor, revT links only its own, and every
    # result is bitwise its single-channel call.
    channels = [ch.gad(p, 0.6) for p in np.linspace(0.0, 1.0, 11)]
    channels += [ch.gad(p, 0.0) for p in np.linspace(0.0, 1.0, 5)]
    reverse = (db.KIND_REV, db.KIND_REV_T, db.KIND_REV_H)
    want = {kind: [SINGLE[kind](chan) for chan in channels] for kind in reverse}
    ranges = [db.dp_range(chan) for chan in channels]
    calls, linked = {}, []
    _spy(monkeypatch, db, "_inverse", calls)
    _spy(monkeypatch, np.linalg, "inv", calls)

    def link_raw(later, *args):
        linked.append(np.shape(later))
        return ch.link_raw(later, *args)

    monkeypatch.setattr(db, "link_raw", link_raw)
    got = db.solve_grids([db.KIND_DP, *reverse], channels)
    assert calls == {"_inverse": 1, "inv": 0}
    assert linked == [(4, 4), (4, 4)]
    assert got[db.KIND_DP] == ranges
    for kind in reverse:
        assert [r.value == 1.0 for r in got[kind]] == [False] * 11 + [True] * 5
        for res, single in zip(got[kind], want[kind]):
            _same_result(res, single)


def test_closed_form_reports_what_it_cannot_bound():
    chan = ch.gad(0.5, 0.6)
    # 4 eps of rounding exceeds a tolerance of 1e-16: rev and revT keep
    # their value and witness, bitwise, and read numerical_failure, still
    # without a solve.
    for f in (db.reverse_alpha, db.reverse_alpha_transpose):
        tight, loose = f(chan, 1e-16), f(chan)
        assert (tight.status, loose.status) == (sdpcore.STATUS_NUMERICAL, sdpcore.STATUS_OPTIMAL)
        assert tight.solution.iterations == loose.solution.iterations == 0
        assert tight.value == loose.value
        assert np.array_equal(tight.witness, loose.witness)
        assert tight.solution.primal_residual > 1e-16 >= 0.0 == tight.solution.gap
    # A bad tolerance raises, also where the closed form would have taken
    # every channel.
    for tol in (float("inf"), float("nan"), -1.0):
        with pytest.raises(ValueError, match="tol must be finite"):
            db.reverse_alpha(chan, tol)
    # Singular channels read exactly 1 in a grid with invertible ones, and
    # every point gets the result of its single call.  Their bound, from
    # the smallest singular value of the map, is below the default
    # tolerance and above 1e-16.
    grid = [ch.gad(0.3, 0.0), chan, ch.depolarizing(1.0), ch.bitflip(0.5), ch.gad(0.9, 0.3)]
    singular = [True, False, True, True, False]
    for kind in (db.KIND_REV, db.KIND_REV_T):
        for tol in (sdpcore.DEFAULT_TOL, 1e-16):
            got = db.solve_grid(kind, grid, tol)
            assert [r.value == 1.0 for r in got] == singular
            assert [r.solution.iterations for r in got] == [0] * 5
            for c, res in zip(grid, got):
                _same_result(res, SINGLE[kind](c, tol))
        for res, one in zip(got, singular):
            if one:
                assert 1e-16 < res.solution.primal_residual < 1e-14
                assert np.array_equal(res.witness, np.eye(4) / 4)


def _by_inverse(res, d):
    """Whether a revH result comes from the inverse program, whose y holds
    theta and X only, not D's d^4 coordinates."""
    return 0 < len(res.solution.y) <= d * d + 1


def _rev_hermitian_cases(d):
    """Channels of dimension d, each with whether it is singular: random
    channels and depolarizing ones (singular at p = 1) at every d, and at
    d = 2 a gad lattice, whose eta = 0 row is singular."""
    cases = [(ch.random_channel(d, d, seed=s), False) for s in (3, 4, 5)[: 2 if d == 5 else 3]]
    cases += [(ch.depolarizing(p, d), p == 1.0) for p in (0.3, 0.9, 1.0)]
    if d == 2:
        grid = np.linspace(0.0, 1.0, 11)
        cases += [(ch.gad(p, eta), eta == 0.0) for p in grid for eta in grid]
    return cases


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_rev_hermitian_inverse_matches_the_link_program(d):
    # For an invertible channel D is T_X after N^-1, so the program on
    # (theta, X) has the iterates of the reference link program in exact
    # arithmetic: the same status and iteration count, and values within
    # 1e-9.  Singular channels read exactly 1 without a solve, which the
    # link program reaches within 1e-9.
    channels, singular = zip(*_rev_hermitian_cases(d))
    got = db.solve_grid(db.KIND_REV_H, channels)
    want = _linked(db.KIND_REV_H, channels)
    assert [res.solution.iterations == 0 for res in got] == list(singular)
    for chan, one, res, ref in zip(channels, singular, got, want):
        assert res.status == ref.status == sdpcore.STATUS_OPTIMAL, chan
        assert abs(res.value - ref.value) <= 1e-9, chan
        if one:
            assert res.value == 1.0, chan
        else:
            assert _by_inverse(res, d), chan
            assert res.solution.iterations == ref.solution.iterations, chan


def test_rev_hermitian_grid_of_invertible_channels_sets_up_once(monkeypatch):
    # The mechanism, not a timing: one stacked inverse and link product,
    # one SVD (of the one shared row theta = 1) and one coefficient
    # lowering of the per-channel PSD block for a 51-point grid.
    channels = [ch.gad(p, 0.5) for p in np.linspace(0.0, 1.0, 51)]
    calls = {}
    _spy(monkeypatch, sdpcore, "_null_space", calls)
    _spy(monkeypatch, sdpcore, "_lowered_coeffs", calls)
    _spy(monkeypatch, db, "link_raw", calls)
    got = db.solve_grid(db.KIND_REV_H, channels)
    assert all(r.status == sdpcore.STATUS_OPTIMAL and _by_inverse(r, 2) for r in got)
    assert calls == {"_null_space": 1, "_lowered_coeffs": 1, "link_raw": 1}
    # Each is its single call, bitwise.
    for chan, res in zip(channels[::10], got[::10]):
        _same_result(res, db.reverse_alpha_hermitian(chan))


def test_rev_hermitian_check_reports_what_it_cannot_bound():
    chan = ch.gad(0.5, 0.6)
    res = db.reverse_alpha_hermitian(chan)
    assert res.status == sdpcore.STATUS_OPTIMAL and _by_inverse(res, 2)
    # At tol 1e-16 the inverse program ends numerical_failure itself.
    tight = db.reverse_alpha_hermitian(chan, 1e-16)
    assert tight.status == sdpcore.STATUS_NUMERICAL and _by_inverse(tight, 2)
    # The check reads the witness against the channel's superoperator:
    # against one that is off by 1e-6, the same optimal solve keeps its
    # value and its solution and reads numerical_failure.
    inverses = db._Inverses(ch.choi_stack([chan]))
    _, m, _ = inverses.linked(db.KIND_REV)
    sup = inverses.inverse()[0]
    [[good], [bad]] = db._solve(
        [db._rev_hermitian_inverse(m, s, 2, sdpcore.DEFAULT_TOL) for s in (sup, sup * (1 + 1e-6))],
        sdpcore.DEFAULT_TOL,
    )
    assert good.status == bad.solution.status == sdpcore.STATUS_OPTIMAL
    assert bad.status == sdpcore.STATUS_NUMERICAL
    assert bad.value == good.value == res.value
    # Singular channels read exactly 1 in a grid with invertible ones, and
    # every point gets its single call.
    grid = [ch.gad(0.3, 0.0), chan, ch.depolarizing(1.0), ch.random_channel(2, 2, seed=9),
            pinched(ch.gad(0.9, 0.3))]
    got = db.solve_grid(db.KIND_REV_H, grid)
    assert [r.solution.iterations == 0 and r.value == 1.0 for r in got] == [
        True, False, True, False, True]
    assert [_by_inverse(r, 2) for r in got] == [False, True, False, True, False]
    for c, res in zip(grid, got):
        _same_result(res, db.reverse_alpha_hermitian(c))


def _library_and_reference_cases(d):
    """Singular, near-singular and ill-conditioned channels of dimension d,
    each with whether it is singular."""
    yield ch.depolarizing(1.0, d), True
    yield pinched(ch.random_channel(d, d, seed=d), max(1, d - 1), random_unitary(d, d)), True
    yield from ((ch.depolarizing(1.0 - 10.0**-k, d), False) for k in (2, 6, 10))
    if d == 2:
        yield ch.gad(0.3, 0.0), True
        yield from ((ch.gad(0.3, 10.0**-k), False) for k in (1, 4, 8, 12))
    if d == 4:
        yield ch.random_channel(4, 4, seed=11), False


@pytest.mark.parametrize("d", [2, 3, 4])
def test_reverse_kinds_match_the_reference_link_program(d):
    # The library answers every reverse kind from the inverse of the
    # channel or, for a singular one, without a solve; the reference link
    # program solves for every coordinate of the degrading map and needs
    # no inverse.  Singular channels read exactly 1 with 0 iterations; the
    # others agree with the reference within its tolerance, and revH of an
    # invertible channel, which runs the same iterates, also in status.
    channels, singular = zip(*_library_and_reference_cases(d))
    for kind in _REVERSE:
        got = db.solve_grid(kind, channels)
        for chan, one, res, ref in zip(channels, singular, got, _linked(kind, channels)):
            assert res.status == ref.status == sdpcore.STATUS_OPTIMAL, (kind, chan)
            assert abs(res.value - ref.value) <= 1e-7, (kind, chan, res.value, ref.value)
            if one:
                assert res.value == 1.0 and res.solution.iterations == 0, (kind, chan)
    # The channel of condition number 826, whose a-priori bound sent its
    # revH to the link program: the same iterations and values within 1e-11.
    if d == 4:
        [res] = db.solve_grid(db.KIND_REV_H, channels[-1:])
        [ref] = _linked(db.KIND_REV_H, channels[-1:])
        assert res.solution.iterations == ref.solution.iterations
        assert abs(res.value - ref.value) <= 1e-11


def test_reverse_hermitian_witness_law():
    # Random channels at d = 2..5, depolarizing and gad points; see
    # properties.reverse_hermitian_witness.
    rng = np.random.default_rng(2025)
    rec = properties.Recorder("reverse hermitian witness")
    properties.reverse_hermitian_witness(rng, sdpcore.DEFAULT_TOL, rec, (2, 3, 4, 5) * 2)
    assert rec.failed == 0, rec.first
    assert rec.passed >= 45
