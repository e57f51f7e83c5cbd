"""Tests for the Hermitian linear algebra layer.

Reference values come from independent computations: eigenvalues are
cross-checked against characteristic-polynomial roots obtained through
Newton's identities, and the tensor operations against explicit index
loops.
"""

from __future__ import annotations

import numpy as np
import pytest

from qdoeblin import hermlin
from reference import is_psd, real_embed

# Eigendecomposition reconstruction quality per unit dimension.
EIG_TOL = 1e-10


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * 0.5 * (g + g.conj().T)


def random_psd(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g @ g.conj().T


def charpoly_eigenvalues(h: np.ndarray) -> np.ndarray:
    """Eigenvalues via Newton's identities and polynomial root finding.

    Independent of the LAPACK Hermitian eigensolver: builds the
    characteristic polynomial from power-sum traces, then calls np.roots.
    """
    n = h.shape[0]
    power = np.eye(n, dtype=complex)
    p = np.zeros(n + 1)
    for k in range(1, n + 1):
        power = power @ h
        p[k] = np.trace(power).real
    e = np.zeros(n + 1)
    e[0] = 1.0
    for k in range(1, n + 1):
        acc = 0.0
        for i in range(1, k + 1):
            acc += (-1) ** (i - 1) * e[k - i] * p[i]
        e[k] = acc / k
    coeffs = [(-1) ** k * e[k] for k in range(n + 1)]
    roots = np.roots(coeffs)
    return np.sort(roots.real)


def kron_loop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def partial_trace_loop(m: np.ndarray, dims: tuple[int, int], keep: int) -> np.ndarray:
    d0, d1 = dims
    if keep == 0:
        out = np.zeros((d0, d0), dtype=complex)
        for i in range(d0):
            for k in range(d0):
                for j in range(d1):
                    out[i, k] += m[i * d1 + j, k * d1 + j]
    else:
        out = np.zeros((d1, d1), dtype=complex)
        for j in range(d1):
            for l in range(d1):
                for i in range(d0):
                    out[j, l] += m[i * d1 + j, i * d1 + l]
    return out


def test_eig_reconstruction_random_ensemble():
    rng = np.random.default_rng(101)
    for dim in (2, 4, 8, 16):
        for _ in range(250):
            h = random_hermitian(rng, dim)
            w, v = hermlin.eig_hermitian(h)
            assert np.all(np.diff(w) >= -1e-14)
            np.testing.assert_allclose(
                v @ np.diag(w) @ v.conj().T, h, atol=EIG_TOL * dim
            )
            np.testing.assert_allclose(
                v.conj().T @ v, np.eye(dim), atol=EIG_TOL * dim
            )


def test_eig_matches_charpoly_oracle():
    rng = np.random.default_rng(102)
    for dim in (2, 3, 4, 6):
        for _ in range(20):
            h = random_hermitian(rng, dim)
            w, _ = hermlin.eig_hermitian(h)
            ref = charpoly_eigenvalues(h)
            scale = max(1.0, np.max(np.abs(w)))
            np.testing.assert_allclose(np.sort(w), ref, atol=1e-6 * scale * dim)


def test_eig_rejects_bad_input():
    with pytest.raises(ValueError):
        hermlin.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        hermlin.eig_hermitian(np.zeros((hermlin.MAX_DIM + 1, hermlin.MAX_DIM + 1)))
    with pytest.raises(ValueError):
        hermlin.eig_hermitian(np.zeros((2, 3)))


def test_non_finite_input_is_rejected():
    # A NaN deviation passed "dev > tol", and eigh then failed to converge
    # or returned NaN eigenvalues.
    for bad in (np.diag([np.inf, 1.0]), np.array([[1.0, np.nan], [np.nan, 1.0]])):
        with pytest.raises(ValueError, match="non-finite"):
            hermlin.require_hermitian(bad)
        with pytest.raises(ValueError, match="non-finite"):
            hermlin.eig_hermitian(bad)
        with pytest.raises(ValueError, match="non-finite"):
            hermlin.require_hermitian(np.stack([np.eye(2), bad]))


def test_require_hermitian_threshold():
    m = np.eye(2, dtype=complex)
    m[0, 1] = 2e-11
    with pytest.raises(ValueError):
        hermlin.require_hermitian(m)
    m[0, 1] = 4e-13
    out = hermlin.require_hermitian(m)
    np.testing.assert_allclose(out, out.conj().T)


def test_kron_matches_loop_and_mixed_product():
    rng = np.random.default_rng(103)
    a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    b = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    np.testing.assert_allclose(hermlin.kron(a, b), kron_loop(a, b), atol=1e-12)
    c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    d = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    lhs = hermlin.kron(a, b) @ hermlin.kron(c, d)
    rhs = hermlin.kron(a @ c, b @ d)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_kron_size_guard():
    with pytest.raises(ValueError):
        hermlin.kron(np.ones((4097, 1)), np.ones((1, 1)))
    out = hermlin.kron(np.ones((64, 64)), np.ones((64, 64)))
    assert out.shape == (4096, 4096)


def test_partial_trace_matches_loop():
    rng = np.random.default_rng(104)
    for dims in ((2, 2), (2, 3), (3, 2)):
        m = random_hermitian(rng, dims[0] * dims[1])
        for keep in (0, 1):
            got = hermlin.partial_trace(m, dims, keep)
            np.testing.assert_allclose(got, partial_trace_loop(m, dims, keep), atol=1e-12)
            assert np.isclose(np.trace(got), np.trace(m))


def test_partial_trace_on_product():
    rng = np.random.default_rng(105)
    a = random_hermitian(rng, 3)
    b = random_hermitian(rng, 2)
    prod = hermlin.kron(a, b)
    np.testing.assert_allclose(
        hermlin.partial_trace(prod, (3, 2), 0), a * np.trace(b), atol=1e-12
    )
    np.testing.assert_allclose(
        hermlin.partial_trace(prod, (3, 2), 1), b * np.trace(a), atol=1e-12
    )


def test_partial_transpose_involution_is_bitwise():
    rng = np.random.default_rng(106)
    for dims in ((2, 2), (2, 3), (3, 3)):
        m = random_hermitian(rng, dims[0] * dims[1])
        for on in (0, 1):
            twice = hermlin.partial_transpose(
                hermlin.partial_transpose(m, dims, on), dims, on
            )
            assert np.array_equal(twice, m)


def test_partial_transpose_on_product():
    rng = np.random.default_rng(107)
    a = random_hermitian(rng, 2)
    b = random_hermitian(rng, 3)
    prod = hermlin.kron(a, b)
    np.testing.assert_allclose(
        hermlin.partial_transpose(prod, (2, 3), 0), hermlin.kron(a.T, b), atol=1e-12
    )
    np.testing.assert_allclose(
        hermlin.partial_transpose(prod, (2, 3), 1), hermlin.kron(a, b.T), atol=1e-12
    )


def test_stacked_tensor_operations_match_per_matrix():
    # References: a per-matrix loop over the stack, and the single-matrix
    # formulas used before stacks were accepted.
    rng = np.random.default_rng(108)
    for dims in ((2, 2), (2, 3), (3, 2)):
        d0, d1 = dims
        stack = np.stack([random_hermitian(rng, d0 * d1) for _ in range(5)])
        t = stack.reshape(5, d0, d1, d0, d1)
        for keep, single in ((0, "ijkj->ik"), (1, "ijil->jl")):
            got = hermlin.partial_trace(stack, dims, keep)
            for m, g, t4 in zip(stack, got, t):
                np.testing.assert_allclose(g, partial_trace_loop(m, dims, keep), atol=1e-12)
                np.testing.assert_allclose(
                    hermlin.partial_trace(m, dims, keep), np.einsum(single, t4),
                    rtol=0, atol=1e-14,
                )
                assert np.array_equal(g, hermlin.partial_trace(m, dims, keep))
        for on, perm in ((0, (2, 1, 0, 3)), (1, (0, 3, 2, 1))):
            got = hermlin.partial_transpose(stack, dims, on)
            for m, g, t4 in zip(stack, got, t):
                ref = t4.transpose(perm).reshape(d0 * d1, d0 * d1)
                assert np.array_equal(hermlin.partial_transpose(m, dims, on), ref)
                assert np.array_equal(g, ref)
        b = random_hermitian(rng, 2)
        got = hermlin.kron(stack, b)
        for m, g in zip(stack, got):
            assert np.array_equal(g, hermlin.kron(m, b))


def test_stacked_tensor_operations_keep_their_errors():
    stack = np.zeros((3, 4, 4))
    mismatch = r"dims \(2, 3\) do not factor a matrix of side 4"
    for op, arg in ((hermlin.partial_trace, 0), (hermlin.partial_transpose, 1)):
        for m in (stack[0], stack):
            with pytest.raises(ValueError, match=mismatch):
                op(m, (2, 3), arg)
        with pytest.raises(ValueError, match="bipartite matrix must be square"):
            op(np.zeros((3, 4, 5)), (2, 2), arg)
    with pytest.raises(ValueError, match="keep must be 0 or 1"):
        hermlin.partial_trace(stack, (2, 2), 2)
    with pytest.raises(ValueError, match="on must be 0 or 1"):
        hermlin.partial_transpose(stack, (2, 2), 2)
    with pytest.raises(ValueError, match="exceeds"):
        hermlin.kron(np.ones((2, 64, 64)), np.ones((65, 65)))


def test_trace_norm_values():
    assert np.isclose(hermlin.trace_norm(np.diag([3.0, -4.0])), 7.0)
    v = np.array([1.0, 2j, -1.0])
    proj = np.outer(v, v.conj())
    assert np.isclose(hermlin.trace_norm(proj), np.vdot(v, v).real)
    rng = np.random.default_rng(108)
    for _ in range(50):
        h = random_hermitian(rng, 5)
        sv = np.linalg.svd(h, compute_uv=False)
        assert np.isclose(hermlin.trace_norm(h), np.sum(sv), atol=1e-9)


def test_hermitian_basis_orthonormal():
    for dim in (2, 3, 4):
        basis = hermlin.hermitian_basis(dim)
        assert len(basis) == dim * dim
        np.testing.assert_allclose(
            basis[0], np.eye(dim) / np.sqrt(dim), atol=1e-14
        )
        for b in basis[1:]:
            assert abs(np.trace(b)) < 1e-14
        gram = np.array(
            [[np.trace(x @ y).real for y in basis] for x in basis]
        )
        np.testing.assert_allclose(gram, np.eye(dim * dim), atol=1e-12)


def test_real_symmetric_basis_is_the_real_part_of_the_hermitian_basis():
    for dim in (1, 2, 3, 4):
        full = hermlin.hermitian_basis(dim)
        mask = hermlin.real_symmetric_mask(dim)
        real = hermlin.real_symmetric_basis_stack(dim)
        assert mask.sum() == len(real) == dim * (dim + 1) // 2
        assert np.array_equal(real, full[mask])
        assert not np.imag(real).any()
        # The rest are the imaginary antisymmetric elements of the pairs.
        assert not np.real(full[~mask]).any()
        assert not mask.flags.writeable and not real.flags.writeable
    with pytest.raises(ValueError):
        hermlin.real_symmetric_mask(0)


def test_require_hermitian_checks_a_stack_at_once():
    rng = np.random.default_rng(110)
    stack = np.stack([random_hermitian(rng, 3) for _ in range(4)])
    out = hermlin.require_hermitian(stack)
    assert all(np.array_equal(o, hermlin.require_hermitian(h)) for o, h in zip(out, stack))
    stack[2, 0, 1] += 1e-6
    with pytest.raises(ValueError, match="stack is not Hermitian"):
        hermlin.require_hermitian(stack, name="stack")


def test_real_embed_preserves_psd_both_ways():
    rng = np.random.default_rng(110)
    for _ in range(500):
        dim = int(rng.integers(2, 7))
        p = random_psd(rng, dim)
        assert is_psd(real_embed(p))
        h = random_hermitian(rng, dim)
        h -= (np.linalg.eigvalsh(h)[0] - 0.1) * np.eye(dim)  # strictly positive
        assert is_psd(real_embed(h))
        neg = random_hermitian(rng, dim)
        neg -= (np.linalg.eigvalsh(neg)[-1] + 0.1) * np.eye(dim)  # strictly negative top
        assert not is_psd(real_embed(neg), tol=1e-12)
        assert not is_psd(neg, tol=1e-12)


def test_real_embed_doubles_spectrum():
    rng = np.random.default_rng(111)
    h = random_hermitian(rng, 4)
    w = np.linalg.eigvalsh(h)
    we = np.linalg.eigvalsh(real_embed(h))
    np.testing.assert_allclose(we, np.sort(np.repeat(w, 2)), atol=1e-10)


def test_real_embed_is_linear():
    rng = np.random.default_rng(112)
    a = random_hermitian(rng, 3)
    b = random_hermitian(rng, 3)
    lhs = real_embed(2.0 * a - 0.5 * b)
    rhs = 2.0 * real_embed(a) - 0.5 * real_embed(b)
    np.testing.assert_allclose(lhs, rhs, atol=1e-14)


def test_real_embed_stack_matches_per_matrix():
    rng = np.random.default_rng(81)
    for dim in (1, 2, 4):
        stack = np.stack([random_hermitian(rng, dim) for _ in range(6)])
        out = real_embed(stack)
        assert out.shape == (6, 2 * dim, 2 * dim)
        for h, e in zip(stack, out):
            assert np.array_equal(e, real_embed(h))


def test_real_embed_stack_checks_hermiticity_once_with_same_text():
    rng = np.random.default_rng(82)
    stack = np.stack([random_hermitian(rng, 3) for _ in range(4)])
    stack[2, 0, 1] += 1e-6
    with pytest.raises(ValueError) as single:
        real_embed(stack[2], tol=1e-9)
    with pytest.raises(ValueError) as stacked:
        real_embed(stack, tol=1e-9)
    assert str(stacked.value) == str(single.value)
    assert "real_embed input is not Hermitian" in str(stacked.value)
    stack[2, 0, 1] -= 1e-6 - 5e-10  # inside the tolerance again
    assert real_embed(stack, tol=1e-9).shape == (4, 6, 6)
    with pytest.raises(ValueError, match="must be square"):
        real_embed(np.zeros((2, 3, 4)))

