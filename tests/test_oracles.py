"""Oracle layer tests: exact qubit trace-distance coefficients, divergences, classical suite."""

import ast
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from qdoeblin import channel as ch
from qdoeblin import hermlin, oracles
from reference import (
    DivergencePair,
    expansion_witness_hockey_stick,
    f_divergence_commuting,
    gad_dephasing_identity,
    hockey_stick,
)


def random_qubit_density(rng):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_qubit_pure(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def test_eta_tr_depolarizing():
    for p in [0.0, 0.25, 0.5, 0.75, 1.0, 1.2, 4.0 / 3.0]:
        v = oracles.eta_tr_qubit(ch.depolarizing(p))
        assert abs(v - abs(1.0 - p)) < 1e-12


def test_eta_tr_unitary_is_one():
    for seed in range(5):
        u = ch.random_channel(2, 2, env_dim=1, seed=seed)
        assert abs(oracles.eta_tr_qubit(u) - 1.0) < 1e-6


def test_eta_tr_bitflip_is_one():
    for p in np.linspace(0.1, 0.9, 9):
        assert abs(oracles.eta_tr_qubit(ch.bitflip(float(p))) - 1.0) < 1e-12


def test_eta_tr_never_exceeds_one():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = ch.random_channel(2, 2, seed=int(rng.integers(1 << 31)))
        assert oracles.eta_tr_qubit(n) <= 1.0 + 1e-9


def test_eta_tr_rejects_non_qubit():
    with pytest.raises(ValueError, match="qubit"):
        oracles.eta_tr_qubit(ch.depolarizing(0.5, d=3))
    with pytest.raises(ValueError, match="qubit"):
        oracles.eta_tr_expansion_qubit(ch.erasure(0.1))


def test_expansion_depolarizing():
    for p in [0.0, 0.1, 0.5, 0.9, 1.0, 1.2, 4.0 / 3.0]:
        v = oracles.eta_tr_expansion_qubit(ch.depolarizing(p))
        assert abs(v - abs(1.0 - p)) < 1e-12


def test_expansion_gad_via_pole_pair():
    # The Bloch matrix of gad(p, eta) is diag(sqrt(eta), sqrt(eta), eta).
    for p in np.linspace(0.0, 1.0, 5):
        for eta in np.linspace(0.0, 1.0, 6):
            n = ch.gad(float(p), float(eta))
            assert abs(oracles.eta_tr_expansion_qubit(n) - eta) < 1e-12
            assert abs(oracles.eta_tr_qubit(n) - np.sqrt(eta)) < 1e-12


def test_expansion_replacer_is_zero():
    assert oracles.eta_tr_expansion_qubit(ch.replacer(np.eye(2) / 2.0)) < 1e-9


def test_expansion_below_contraction():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = ch.random_channel(2, 2, seed=int(rng.integers(1 << 31)))
        assert oracles.eta_tr_expansion_qubit(n) <= oracles.eta_tr_qubit(n) + 1e-9


def test_state_pair_ratios_lie_between_expansion_and_contraction():
    # Direct trace norms of channel outputs, no Bloch algebra: this pins the
    # column and sign convention of the Bloch matrix behind both oracles.
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = ch.random_channel(2, 2, seed=int(rng.integers(1 << 31)))
        lo, hi = oracles.eta_tr_expansion_qubit(n), oracles.eta_tr_qubit(n)
        for k in range(200):
            draw = random_qubit_pure if k % 2 else random_qubit_density
            rho, sigma = draw(rng), draw(rng)
            ratio = hermlin.trace_norm(n(rho) - n(sigma)) / hermlin.trace_norm(rho - sigma)
            assert lo - 1e-12 <= ratio <= hi + 1e-12


# ------------------------------------------------------------ divergences


def test_hockey_stick_self_is_zero():
    rng = np.random.default_rng(7)
    rho = random_qubit_density(rng)
    assert hockey_stick(rho, rho, 1.7) < 1e-12


def test_hockey_stick_two_state_example():
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = np.diag([0.4, 0.6]).astype(complex)
    assert abs(hockey_stick(rho, sigma, 2.0) - 0.2) < 1e-12


def test_hockey_stick_equals_trace_distance_at_one():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        rho = random_qubit_density(rng)
        sigma = random_qubit_density(rng)
        e1 = hockey_stick(rho, sigma, 1.0)
        assert abs(e1 - 0.5 * hermlin.trace_norm(rho - sigma)) < 1e-10


def test_hockey_stick_rejects_small_gamma():
    rho = np.eye(2, dtype=complex) / 2.0
    with pytest.raises(ValueError, match="gamma"):
        hockey_stick(rho, rho, 0.99)


def test_hockey_stick_zero_crossing_of_depolarized_pair():
    # the output divergence vanishes exactly up to
    # eps = (gamma-1)/gamma * (1-p/2)/(1-p); the bracketing evaluations pin
    # down which sign the closed form carries
    p, gamma = 0.5, 2.0
    dep = ch.depolarizing(p)
    crossing = (gamma - 1.0) / gamma * (1.0 - p / 2.0) / (1.0 - p)
    assert abs(crossing - 0.75) < 1e-12
    for eps, expect_zero in [(crossing - 0.01, True), (crossing + 0.01, False)]:
        rho = np.diag([1.0, 0.0]).astype(complex)
        sigma = np.diag([1.0 - eps, eps]).astype(complex)
        val = hockey_stick(dep(rho), dep(sigma), gamma)
        assert (val < 1e-12) == expect_zero


def test_divergence_pair_validation():
    good = np.eye(2, dtype=complex) / 2.0
    with pytest.raises(ValueError, match="unit trace"):
        DivergencePair(good, 2.0 * good)
    with pytest.raises(ValueError, match="positive semidefinite"):
        DivergencePair(np.diag([1.5, -0.5]).astype(complex), good)
    with pytest.raises(ValueError, match="dimension mismatch"):
        DivergencePair(good, np.eye(3, dtype=complex) / 3.0)


def test_chi2_closed_form():
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = np.diag([0.5, 0.5]).astype(complex)
    assert abs(f_divergence_commuting(rho, sigma, "chi2") - 1.0) < 1e-12


def test_f_divergence_self_zero_and_support():
    rho = np.diag([0.3, 0.7, 0.0]).astype(complex)
    for kind in ("chi2", "kl"):
        assert f_divergence_commuting(rho, rho, kind) == 0.0
    wide = np.diag([0.5, 0.25, 0.25]).astype(complex)
    for kind in ("chi2", "kl"):
        assert f_divergence_commuting(wide, rho, kind) == float("inf")


def test_f_divergence_requires_diagonal_inputs():
    rho = np.array([[0.5, 0.1], [0.1, 0.5]], dtype=complex)
    sigma = np.eye(2, dtype=complex) / 2.0
    with pytest.raises(ValueError, match="diagonal"):
        f_divergence_commuting(rho, sigma, "chi2")
    with pytest.raises(ValueError, match="kind"):
        f_divergence_commuting(sigma, sigma, "hellinger")


def test_chi2_slopes_at_small_eps():
    # input divergence grows linearly, depolarized output quadratically
    dep = ch.depolarizing(0.5)
    rho = np.diag([1.0, 0.0]).astype(complex)

    def at(eps, through):
        sigma = np.diag([1.0 - eps, eps]).astype(complex)
        if through:
            return f_divergence_commuting(dep(rho), dep(sigma), "chi2")
        return f_divergence_commuting(rho, sigma, "chi2")

    eps0, h = 1e-5, 1e-6
    slope_in = (at(eps0 + h, False) - at(eps0 - h, False)) / (2.0 * h)
    slope_out = (at(eps0 + h, True) - at(eps0 - h, True)) / (2.0 * h)
    assert abs(slope_in - 1.0) < 1e-3
    assert abs(slope_out) < 1e-3


def test_expansion_witness_triples():
    for p, gamma in [(0.2, 1.5), (0.5, 2.0), (0.8, 3.0)]:
        eps, e_in, e_out = expansion_witness_hockey_stick(p, gamma)
        assert 0.0 < eps <= 1.0
        assert e_in >= 1e-3
        assert e_out <= 1e-12


def test_expansion_witness_midpoint_value():
    eps, _, _ = expansion_witness_hockey_stick(0.5, 2.0)
    assert abs(eps - 0.625) < 1e-12


def test_expansion_witness_rejects_edges():
    with pytest.raises(ValueError, match="p must"):
        expansion_witness_hockey_stick(0.0, 2.0)
    with pytest.raises(ValueError, match="gamma"):
        expansion_witness_hockey_stick(0.5, 1.0)


# ------------------------------------------------------------ degradation


def test_gad_dephasing_identity_grid():
    worst = 0.0
    for p in np.linspace(0.0, 1.0, 21):
        for eta in np.linspace(0.0, 1.0, 21):
            worst = max(worst, gad_dephasing_identity(float(p), float(eta)))
    assert worst < 1e-10


def test_gad_dephasing_identity_limits():
    assert gad_dephasing_identity(0.3, 1.0) < 1e-12
    assert gad_dephasing_identity(0.3, 0.0) < 1e-12


# -------------------------------------------------------------- classical


def test_classical_channel_validation():
    with pytest.raises(ValueError, match="columns"):
        oracles.ClassicalChannel(np.array([[0.5, 0.5], [0.4, 0.5]]))
    with pytest.raises(ValueError, match="nonnegative"):
        oracles.ClassicalChannel(np.array([[1.1, 0.5], [-0.1, 0.5]]))


def test_biso_detection():
    assert oracles.bsc(0.2).is_biso
    assert oracles.bec(0.4).is_biso
    lopsided = oracles.ClassicalChannel(np.array([[0.7, 0.2], [0.3, 0.8]]))
    assert not lopsided.is_biso
    three_in = oracles.ClassicalChannel(np.full((2, 3), 0.5))
    assert not three_in.is_biso


def test_random_biso_always_biso():
    rng = np.random.default_rng(13)
    for _ in range(50):
        c = oracles.random_biso(rng)
        assert c.is_biso
        assert 2 <= c.n_outputs <= 6


def test_classical_doeblin_values():
    assert abs(oracles.classical_doeblin(oracles.bsc(0.3)) - 0.6) < 1e-12
    assert abs(oracles.classical_doeblin(oracles.bec(0.25)) - 0.25) < 1e-12
    perm = oracles.ClassicalChannel(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert oracles.classical_doeblin(perm) == 0.0


def test_binary_entropy():
    assert oracles.binary_entropy(0.5) == 1.0
    assert oracles.binary_entropy(0.0) == 0.0
    assert oracles.binary_entropy(1.0) == 0.0
    assert abs(oracles.binary_entropy(0.11) - 0.49992) < 1e-4
    with pytest.raises(ValueError):
        oracles.binary_entropy(1.2)


def test_capacity_biso():
    assert abs(oracles.classical_capacity_biso(oracles.bec(0.3)) - 0.7) < 1e-12
    c = oracles.classical_capacity_biso(oracles.bsc(0.11))
    assert abs(c - (1.0 - oracles.binary_entropy(0.11))) < 1e-6
    with pytest.raises(ValueError, match="BISO"):
        oracles.classical_capacity_biso(
            oracles.ClassicalChannel(np.array([[0.7, 0.2], [0.3, 0.8]]))
        )


def test_classical_gamma():
    assert abs(oracles.classical_gamma(oracles.bsc(0.3)) - oracles.binary_entropy(0.3)) < 1e-12
    assert abs(oracles.classical_gamma(oracles.bec(0.45)) - 0.45) < 1e-12


def test_classical_reverse_alpha_bsc_self():
    for q in [0.11, 0.3, 0.45]:
        v = oracles.classical_reverse_alpha(oracles.bsc(q))
        assert abs(v - oracles.binary_entropy(q)) < 1e-12


def test_classical_reverse_alpha_noiseless():
    noiseless = oracles.ClassicalChannel(np.eye(2))
    assert oracles.classical_reverse_alpha(noiseless) == 0.0


def test_classical_reverse_alpha_bec_chain():
    eps = 0.4
    v = oracles.classical_reverse_alpha(oracles.bec(eps))
    assert v >= eps - 1e-6


def _least_crossover_lp(c):
    c0, c1 = c.matrix[:, 0], c.matrix[:, 1]
    res = linprog(
        c1, A_eq=[c0 + c1], b_eq=[1.0], bounds=[(0.0, 1.0)] * len(c0), method="highs"
    )
    assert res.status == 0
    return res.fun


def test_least_noisy_bsc_matches_lp():
    rng = np.random.default_rng(23)
    unreached = oracles.ClassicalChannel(
        np.array([[0.5, 0.2], [0.0, 0.0], [0.2, 0.5], [0.3, 0.3]])
    )
    assert unreached.is_biso
    channels = [oracles.random_biso(rng) for _ in range(30)]
    channels += [oracles.bec(0.4), unreached]
    for c in channels:
        t = oracles._least_noisy_bsc(c)
        p_star = float(c.matrix[:, 1] @ t)
        assert abs(p_star - _least_crossover_lp(c)) < 1e-9
        # t is a post-processing that reproduces BSC_{p*} exactly
        assert np.all((t >= 0.0) & (t <= 1.0))
        np.testing.assert_allclose(c.matrix.T @ t, [1.0 - p_star, p_star], atol=1e-12)
        assert oracles.classical_reverse_alpha(c) == oracles.binary_entropy(p_star)


def test_classical_reverse_alpha_useless_channel():
    for col in ([1.0], [0.3, 0.7], [0.1, 0.25, 0.65]):
        useless = oracles.ClassicalChannel(np.array([col, col]).T)
        assert abs(oracles.classical_reverse_alpha(useless) - 1.0) < 1e-12


def test_oracles_do_not_use_the_solver():
    tree = ast.parse(Path(oracles.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not any("sdpcore" in name for name in imported)


def test_classical_reverse_alpha_rejects_non_biso():
    with pytest.raises(ValueError, match="BISO"):
        oracles.classical_reverse_alpha(
            oracles.ClassicalChannel(np.array([[0.7, 0.2], [0.3, 0.8]]))
        )

