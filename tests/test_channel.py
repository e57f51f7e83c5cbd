"""Tests for channels, Choi matrices and the standard families.

Expected Choi matrices are assembled entry-by-entry from the Kraus
definitions; the channel action is cross-checked through the independent
partial-trace formula ``N(rho) = d_in Tr_in[J (1 (x) rho^T)]``.
"""

from __future__ import annotations

import numpy as np
import pytest

from qdoeblin import channel as ch
from qdoeblin import hermlin


def apply_via_choi(channel: ch.QuantumChannel, rho: np.ndarray) -> np.ndarray:
    j = channel.choi.matrix.reshape(
        channel.d_out, channel.d_in, channel.d_out, channel.d_in
    )
    return channel.d_in * np.einsum("kilj,ji->kl", j, rho.T)


def random_state(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return m / np.trace(m)


def test_identity_choi_is_max_entangled():
    ident = ch.identity_channel(2)
    np.testing.assert_allclose(ident.choi.matrix, ch.max_entangled(2), atol=1e-14)
    flags = ch.validate(ident)
    assert flags.is_cp and flags.is_tp and not flags.is_ppt


def test_gad_choi_entries():
    p, eta = 0.3, 0.6
    expect = np.zeros((4, 4), dtype=complex)
    expect[0, 0] = (p + (1 - p) * eta) / 2
    expect[1, 1] = p * (1 - eta) / 2
    expect[2, 2] = (1 - p) * (1 - eta) / 2
    expect[3, 3] = (p * eta + (1 - p)) / 2
    expect[0, 3] = expect[3, 0] = np.sqrt(eta) / 2
    np.testing.assert_allclose(ch.gad(p, eta).choi.matrix, expect, atol=1e-12)


def test_gad_limits():
    np.testing.assert_allclose(
        ch.gad(0.4, 1.0).choi.matrix, ch.identity_channel(2).choi.matrix, atol=1e-12
    )
    np.testing.assert_allclose(
        ch.gad(0.4, 0.0).choi.matrix,
        ch.replacer(np.diag([0.4, 0.6])).choi.matrix,
        atol=1e-12,
    )


def test_erasure_choi_and_flag_position():
    eps, d = 0.37, 2
    era = ch.erasure(eps, d)
    assert era.d_out == d + 1
    keep = np.zeros((d + 1, d))
    keep[:d, :] = np.eye(d)
    w = sum(
        np.kron(keep[:, i], np.eye(d)[:, i]) for i in range(d)
    ) / np.sqrt(d)
    expect = (1 - eps) * np.outer(w, w.conj())
    flag = np.zeros(d + 1)
    flag[d] = 1.0
    expect = expect + eps * np.kron(np.outer(flag, flag), np.eye(d) / d)
    np.testing.assert_allclose(era.choi.matrix, expect, atol=1e-12)


def test_transpose_depolarizing_choi():
    q, d = 0.8, 2
    expect = (1 - q) * ch.swap_matrix(d) / d + q * np.eye(d * d) / (d * d)
    np.testing.assert_allclose(
        ch.transpose_depolarizing(q, d).choi.matrix, expect, atol=1e-12
    )
    # partial input transpose turns D^T_q into D_q, so PPT holds exactly on
    # the CP window of the plain depolarizing family
    assert ch.validate(ch.transpose_depolarizing(0.8, 2)).is_ppt
    wh = ch.validate(ch.werner_holevo(3))
    assert wh.is_cp and wh.is_tp and not wh.is_ppt


def test_depolarizing_beyond_one_is_still_a_channel():
    noisy = ch.depolarizing(4.0 / 3.0, 2)
    flags = ch.validate(noisy)
    assert flags.is_cp and flags.is_tp
    with pytest.raises(ValueError):
        ch.depolarizing(4.0 / 3.0 + 1e-6, 2)
    with pytest.raises(ValueError):
        ch.depolarizing(-1e-6, 2)


def test_parameter_interval_errors_name_the_interval():
    with pytest.raises(ValueError, match=r"\[0\.666667, 2\]"):
        ch.transpose_depolarizing(0.5, 2)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        ch.gad(1.2, 0.5)
    with pytest.raises(ValueError):
        ch.erasure(1.5)
    with pytest.raises(ValueError):
        ch.pauli_channel([0.5, 0.5, 0.5, -0.5])
    with pytest.raises(ValueError):
        ch.classical_embed(np.array([[0.5, 0.2], [0.4, 0.8]]))


def test_kraus_choi_round_trip():
    rng = np.random.default_rng(301)
    families = [
        ch.depolarizing(0.7, 2),
        ch.gad(0.2, 0.9),
        ch.erasure(0.25, 2),
        ch.werner_holevo(2),
        ch.random_channel(2, 3, seed=7),
        ch.random_channel(3, 2, seed=8),
    ]
    for qc in families:
        rebuilt = ch.channel_from_kraus(
            ch.kraus_from_choi(qc.choi), d_in=qc.d_in, d_out=qc.d_out
        )
        np.testing.assert_allclose(
            rebuilt.choi.matrix, qc.choi.matrix, atol=1e-10
        )
        rho = random_state(rng, qc.d_in)
        np.testing.assert_allclose(
            ch.apply(rebuilt, rho), ch.apply(qc, rho), atol=1e-10
        )


def test_apply_matches_choi_contraction():
    rng = np.random.default_rng(302)
    for qc in (ch.gad(0.6, 0.3), ch.random_channel(3, 2, seed=21), ch.erasure(0.5, 3)):
        for _ in range(5):
            rho = random_state(rng, qc.d_in)
            np.testing.assert_allclose(
                ch.apply(qc, rho), apply_via_choi(qc, rho), atol=1e-11
            )
            assert abs(np.trace(ch.apply(qc, rho)) - 1.0) < 1e-10


def test_trace_preservation_guard():
    bad = [np.array([[1.0, 0.0], [0.0, 0.9]])]
    with pytest.raises(ValueError, match="trace preservation"):
        ch.channel_from_kraus(bad)
    with pytest.raises(ValueError, match="trace preservation"):
        ch.channel_from_kraus([np.array([[1.0, 0.0], [0.0, np.nan]])])


def test_ppt_flip_of_depolarizing_by_bisection():
    lo, hi = 0.5, 1.0
    assert not ch.validate(ch.depolarizing(lo)).is_ppt
    assert ch.validate(ch.depolarizing(hi)).is_ppt
    while hi - lo > 1e-7:
        mid = 0.5 * (lo + hi)
        if ch.validate(ch.depolarizing(mid)).is_ppt:
            hi = mid
        else:
            lo = mid
    assert abs(0.5 * (lo + hi) - 2.0 / 3.0) < 1e-6


def test_compose_matches_depolarizing_semigroup():
    for a, b in [(0.2, 0.5), (0.9, 0.9), (0.0, 0.3)]:
        comp = ch.compose(ch.depolarizing(a), ch.depolarizing(b))
        target = ch.depolarizing(a + b - a * b)
        np.testing.assert_allclose(
            comp.choi.matrix, target.choi.matrix, atol=1e-12
        )


def test_compose_dimension_check():
    with pytest.raises(ValueError, match="compose"):
        ch.compose(ch.identity_channel(3), ch.identity_channel(2))


def test_tensor_acts_factorwise():
    rng = np.random.default_rng(303)
    n = ch.gad(0.3, 0.7)
    m = ch.depolarizing(0.4, 2)
    prod = ch.tensor(n, m)
    rho = random_state(rng, 2)
    sig = random_state(rng, 2)
    lhs = ch.apply(prod, np.kron(rho, sig))
    rhs = np.kron(ch.apply(n, rho), ch.apply(m, sig))
    np.testing.assert_allclose(lhs, rhs, atol=1e-11)


def test_tensor_size_guard():
    with pytest.raises(ValueError, match="exceeds"):
        ch.tensor(ch.identity_channel(3), ch.identity_channel(3))


def test_link_product_matches_compose():
    rng = np.random.default_rng(304)
    for trial in range(500):
        d_a = int(rng.integers(2, 4))
        d_b = int(rng.integers(2, 4))
        d_c = int(rng.integers(2, 4))
        n = ch.random_channel(d_a, d_b, seed=1000 + 2 * trial)
        d = ch.random_channel(d_b, d_c, seed=1001 + 2 * trial)
        composed = ch.compose(d, n)
        linked = ch.link_product(d.choi, n.choi)
        np.testing.assert_allclose(
            linked.matrix, composed.choi.matrix, atol=1e-10
        )
    with pytest.raises(ValueError, match="link"):
        ch.link_product(ch.identity_channel(3).choi, ch.identity_channel(2).choi)


def test_link_raw_stack_matches_per_matrix():
    # Reference: the single-matrix contraction used before stacks were
    # accepted, applied matrix by matrix.
    rng = np.random.default_rng(305)
    for d_c, d_b, d_a in ((2, 2, 2), (3, 2, 2), (2, 3, 4)):
        later = rng.standard_normal((6, d_c * d_b, d_c * d_b, 2)) @ [1.0, 1j]
        later = later + later.conj().transpose(0, 2, 1)
        earlier = ch.random_channel(d_a, d_b, seed=d_c + d_b + d_a).choi.matrix
        got = ch.link_raw(later, (d_c, d_b), earlier, (d_b, d_a))
        assert got.shape == (6, d_c * d_a, d_c * d_a)
        e4 = earlier.reshape(d_b, d_a, d_b, d_a)
        for m, g in zip(later, got):
            ref = d_b * np.einsum("cxdy,xayb->cadb", m.reshape(d_c, d_b, d_c, d_b), e4)
            ref = ref.reshape(d_c * d_a, d_c * d_a)
            ref = 0.5 * (ref + ref.conj().T)
            single = ch.link_raw(m, (d_c, d_b), earlier, (d_b, d_a))
            np.testing.assert_allclose(single, ref, rtol=0, atol=1e-14)
            np.testing.assert_allclose(g, single, rtol=0, atol=1e-14)
    for m in (np.eye(4), np.stack([np.eye(4)] * 2)):
        with pytest.raises(ValueError, match=r"link dimensions do not match \(2 vs 3\)"):
            ch.link_raw(m, (2, 2), np.eye(6), (3, 2))


def test_link_raw_earlier_stack_equals_per_matrix_bitwise():
    # A stack of earlier maps (the Choi matrices of a grid of channels) is
    # one call; each slice must be bitwise the link with that matrix alone.
    rng = np.random.default_rng(306)
    for d_c, d_b, d_a in ((2, 2, 2), (3, 2, 2), (2, 3, 4)):
        later = rng.standard_normal((5, d_c * d_b, d_c * d_b, 2)) @ [1.0, 1j]
        later = later + later.conj().transpose(0, 2, 1)
        earlier = np.stack([
            ch.random_channel(d_a, d_b, seed=s).choi.matrix for s in range(4)
        ])
        got = ch.link_raw(later, (d_c, d_b), earlier, (d_b, d_a))
        assert got.shape == (4, 5, d_c * d_a, d_c * d_a)
        one = ch.link_raw(later[0], (d_c, d_b), earlier, (d_b, d_a))
        assert one.shape == (4, d_c * d_a, d_c * d_a)
        for e, g, o in zip(earlier, got, one):
            assert np.array_equal(g, ch.link_raw(later, (d_c, d_b), e, (d_b, d_a)))
            assert np.array_equal(o, ch.link_raw(later[0], (d_c, d_b), e, (d_b, d_a)))


def test_classical_embed_action():
    p = np.array([[0.1, 0.6], [0.9, 0.4]])
    qc = ch.classical_embed(p)
    for x in range(2):
        basis = np.zeros((2, 2))
        basis[x, x] = 1.0
        out = ch.apply(qc, basis)
        np.testing.assert_allclose(np.diag(out).real, p[:, x], atol=1e-12)
        np.testing.assert_allclose(out - np.diag(np.diag(out)), 0.0, atol=1e-12)
    # coherences are destroyed
    coh = np.array([[0.5, 0.5], [0.5, 0.5]])
    out = ch.apply(qc, coh)
    assert np.max(np.abs(out - np.diag(np.diag(out)))) < 1e-12


def test_random_channel_determinism():
    a = ch.random_channel(2, 2, env_dim=4, seed=42)
    b = ch.random_channel(2, 2, env_dim=4, seed=42)
    c = ch.random_channel(2, 2, env_dim=4, seed=43)
    assert all(np.array_equal(x, y) for x, y in zip(a.kraus, b.kraus))
    assert np.max(np.abs(a.choi.matrix - c.choi.matrix)) > 1e-3
    flags = ch.validate(a)
    assert flags.is_cp and flags.is_tp


def test_choi_matrix_validation():
    with pytest.raises(ValueError, match="unit trace"):
        ch.ChoiMatrix(matrix=np.eye(4) / 2.0, d_in=2, d_out=2)
    bad_marginal = np.diag([0.5, 0.25, 0.15, 0.1])
    with pytest.raises(ValueError, match="marginal"):
        ch.ChoiMatrix(matrix=bad_marginal, d_in=2, d_out=2)
    not_psd = ch.max_entangled(2) + 0.1 * np.diag([1.0, -1.0, -1.0, 1.0])
    with pytest.raises(ValueError, match="positive semidefinite"):
        ch.ChoiMatrix(matrix=not_psd, d_in=2, d_out=2)


def test_channel_from_dict_named_family():
    qc = ch.channel_from_dict({"name": "depolarizing", "params": {"p": 0.5, "d": 2}})
    np.testing.assert_allclose(
        qc.choi.matrix, ch.depolarizing(0.5, 2).choi.matrix, atol=1e-12
    )
    rep = ch.channel_from_dict({"name": "replacer", "params": {"sigma_diag": [0.3, 0.7]}})
    np.testing.assert_allclose(
        rep.choi.matrix, ch.replacer(np.diag([0.3, 0.7])).choi.matrix, atol=1e-12
    )
    with pytest.raises(ValueError, match="unknown channel family"):
        ch.channel_from_dict({"name": "nonsense"})


def test_channel_file_kraus_round_trip(tmp_path):
    qc = ch.random_channel(2, 3, seed=9)
    payload = {
        "d_in": qc.d_in,
        "d_out": qc.d_out,
        "kraus": [
            [[float(z.real), float(z.imag)] for z in op.reshape(-1)]
            for op in qc.kraus
        ],
    }
    path = tmp_path / "chan.json"
    import json

    path.write_text(json.dumps(payload))
    loaded = ch.channel_from_file(str(path))
    np.testing.assert_allclose(loaded.choi.matrix, qc.choi.matrix, atol=1e-10)
    with pytest.raises(ValueError, match="does not match"):
        ch.channel_from_dict({"d_in": 2, "d_out": 2, "kraus": [[[1.0, 0.0]]]})


_EDGE = 1e-12


def _edges(lo: float, hi: float, n: int = 21) -> list[float]:
    """n points over [lo, hi], the ends, and values within 1e-12 of the
    ends, outside (clamped) and inside."""
    return [float(v) for v in np.linspace(lo, hi, n)] + [
        lo - 0.5 * _EDGE, hi + 0.5 * _EDGE, lo + 0.3 * _EDGE, hi - 0.3 * _EDGE,
    ]


def _stack_cases():
    """(family, points) per stack: every point of one dimension."""
    cases = []
    for d in (2, 3, 4):
        hi = d * d / (d * d - 1.0)
        cases += [
            ("identity", [{"d": d}] * 3),
            ("depolarizing", [{"p": p, "d": d} for p in _edges(0.0, hi)]),
            ("transpose_depolarizing",
             [{"q": q, "d": d} for q in _edges(d / (d + 1.0), d / (d - 1.0))]),
            ("werner_holevo", [{"d": d}] * 2),
            ("erasure", [{"eps": e, "d": d} for e in _edges(0.0, 1.0)]),
        ]
    cases += [
        ("gad", [{"p": p, "eta": e} for p in _edges(0.0, 1.0, 6) for e in _edges(0.0, 1.0, 6)]),
        ("bitflip", [{"p": p} for p in _edges(0.0, 1.0)]),
        ("dephasing", [{"b": b} for b in _edges(0.0, 1.0)]),
    ]
    return cases


@pytest.mark.parametrize(
    "family, points", _stack_cases(),
    ids=lambda v: v if isinstance(v, str) else f"d{v[0].get('d', 2)}-{len(v)}",
)
def test_stacked_constructor_equals_its_scalar_calls_bitwise(family, points):
    stack = getattr(ch, f"{family}_stack")(**{key: [p[key] for p in points] for key in points[0]})
    chans = [ch.FAMILIES[family](**p) for p in points]
    assert (stack.d_in, stack.d_out) == (chans[0].d_in, chans[0].d_out)
    want = np.stack([c.choi.matrix for c in chans])
    assert stack.matrices.shape == want.shape
    assert stack.matrices.tobytes() == want.tobytes()


def _reference_choi(kraus, d_in: int) -> np.ndarray:
    """The Choi matrix as the Kraus loop defines it: outer products added
    in Kraus order, divided by d_in, then symmetrised."""
    j = np.zeros((kraus[0].size, kraus[0].size), dtype=complex)
    for a in kraus:
        v = np.asarray(a, dtype=complex).reshape(-1)
        j += np.outer(v, v.conj())
    j = j / d_in
    return 0.5 * (j + j.conj().T)


def test_family_chois_keep_their_operation_order():
    # (p * 1) / d^2 and p * (1 / d^2) differ in the last bit at many points,
    # so the stacks must keep the scalar formulas' order.
    for d in (2, 3, 4):
        ps = np.linspace(0.0, d * d / (d * d - 1.0), 101)
        want = []
        for p in ps:
            j = (1.0 - p) * ch.max_entangled(d) + p * np.eye(d * d) / (d * d)
            want.append(0.5 * (j + j.conj().T))
        assert ch.depolarizing_stack(ps, d).matrices.tobytes() == np.stack(want).tobytes()
    grid = [(p, e) for p in np.linspace(0.0, 1.0, 11) for e in np.linspace(0.0, 1.0, 11)]
    stack = ch.gad_stack([p for p, _ in grid], [e for _, e in grid])
    for m, (p, e) in zip(stack.matrices, grid):
        sp, sq, se, sl = np.sqrt(p), np.sqrt(1.0 - p), np.sqrt(e), np.sqrt(1.0 - e)
        kraus = [
            sp * np.array([[1.0, 0.0], [0.0, se]]), sp * np.array([[0.0, sl], [0.0, 0.0]]),
            sq * np.array([[se, 0.0], [0.0, 1.0]]), sq * np.array([[0.0, 0.0], [sl, 0.0]]),
        ]
        assert m.tobytes() == _reference_choi(kraus, 2).tobytes()
    qc = ch.random_channel(3, 2, seed=11)
    assert qc.choi.matrix.tobytes() == _reference_choi(qc.kraus, 3).tobytes()


def _message(call, *args, **kwargs) -> str:
    with pytest.raises(ValueError) as err:
        call(*args, **kwargs)
    return str(err.value)


@pytest.mark.parametrize("family, columns, first", [
    ("gad", {"p": [0.5, 0.3, 1.5], "eta": [0.2, 1.5, 0.2]}, 1),
    ("gad", {"p": [0.5, 1.25, 1.5], "eta": [0.2, 0.2, 0.2]}, 1),
    ("depolarizing", {"p": [0.1, 1.0, 1.2, 1.3], "d": [3] * 4}, 2),
    ("depolarizing", {"p": [0.1, 0.2], "d": [1, 1]}, 0),
    ("transpose_depolarizing", {"q": [1.0, 0.5], "d": [2, 2]}, 1),
    ("erasure", {"eps": [1.5, 0.2], "d": [0, 0]}, 0),
    ("erasure", {"eps": [0.5, 0.2], "d": [0, 0]}, 0),
    ("erasure", {"eps": [0.5, np.nan], "d": [2, 2]}, 1),
    ("bitflip", {"p": [0.0, -0.1]}, 1),
    ("dephasing", {"b": [2.0]}, 0),
    ("werner_holevo", {"d": [1]}, 0),
    ("identity", {"d": [0]}, 0),
    ("depolarizing", {"p": [0.5, 2.0], "d": [9, 9]}, 1),
    ("depolarizing", {"p": [0.5, 0.6], "d": [9, 9]}, 0),
    ("transpose_depolarizing", {"q": [0.95], "d": [9]}, 0),
    ("werner_holevo", {"d": [9]}, 0),
])
def test_stack_raises_the_error_of_its_first_invalid_point(family, columns, first):
    point = {key: values[first] for key, values in columns.items()}
    assert _message(getattr(ch, f"{family}_stack"), **columns) == _message(ch.FAMILIES[family], **point)


@pytest.mark.parametrize("call, args", [
    (ch.depolarizing, (0.5, 9)),
    (ch.transpose_depolarizing, (0.95, 9)),
    (ch.werner_holevo, (9,)),
    (ch.generalized_depolarizing, (0.5, np.eye(9) / 9)),
])
def test_choi_built_families_keep_the_eigensolver_side_limit(call, args):
    # Their Kraus sets are read off a Choi matrix of side d^2 by
    # eig_hermitian, which takes side <= 64, so d = 9 is refused; the
    # stacked constructors refuse it before building a matrix of side 81.
    assert _message(call, *args) == "eig_hermitian supports side <= 64, got 81"


def test_werner_holevo_needs_two_dimensions():
    assert _message(ch.werner_holevo, 1) == "d must be at least 2"


def test_stack_has_one_dimension():
    with pytest.raises(ValueError, match="one dimension"):
        ch.depolarizing_stack([0.1, 0.2], [2, 3])


def test_choi_stack_raises_the_error_of_its_first_invalid_matrix():
    good = ch.depolarizing(0.3).choi.matrix
    not_psd = ch.max_entangled(2) + 0.1 * np.diag([1.0, -1.0, -1.0, 1.0])
    bad_trace = np.eye(4) / 2.0
    stack = np.stack([good, not_psd, bad_trace])
    for order, want in (([0, 1, 2], not_psd), ([0, 2, 1], bad_trace)):
        assert _message(ch._valid_chois, stack[order], 2, 2) == _message(ch.ChoiMatrix, want, 2, 2)


def test_non_finite_choi_data_is_a_value_error():
    with pytest.raises(ValueError, match="non-finite"):
        ch.ChoiMatrix(np.full((4, 4), np.nan), 2, 2)
    m = ch.depolarizing(0.3).choi.matrix.copy()
    m[1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        ch.ChoiMatrix(m, 2, 2)
    with pytest.raises(ValueError, match="non-finite"):
        ch._valid_chois(np.stack([ch.depolarizing(0.3).choi.matrix, m]), 2, 2)
