"""Tests for the interior-point SDP solver.

Expected values are analytic: every instance below has an optimum that can
be worked out by hand (eigenvalue bounds, single-constraint geometry, or a
Schur-complement argument).
"""

from __future__ import annotations

import copy
import re
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla

from qdoeblin import sdpcore
from reference import link_program, pinched, random_unitary, real_embed


def max_eig_problem(c: np.ndarray) -> sdpcore.SdpProblem:
    # max y s.t. y*I <= C, optimum = smallest eigenvalue of C.
    dim = c.shape[0]
    return sdpcore.SdpProblem(
        num_vars=1,
        objective=np.array([1.0]),
        blocks=[sdpcore.SdpBlock(c=c, coeffs=[(0, np.eye(dim))])],
    )


def test_smallest_eigenvalue_instance():
    sol = sdpcore.solve(max_eig_problem(np.diag([1.0, 2.0])))
    assert sol.status == "optimal"
    assert abs(sol.objective_value - 1.0) < 1e-7
    assert sol.gap <= 1e-8
    assert sol.primal_residual <= 1e-8
    assert sol.dual_residual <= 1e-8


def test_smallest_eigenvalue_random():
    rng = np.random.default_rng(201)
    for _ in range(20):
        g = rng.standard_normal((4, 4))
        c = 0.5 * (g + g.T) + 4.0 * np.eye(4)
        sol = sdpcore.solve(max_eig_problem(c))
        assert sol.status == "optimal"
        assert abs(sol.objective_value - np.linalg.eigvalsh(c)[0]) < 1e-6


def test_schur_complement_instance():
    # max y1 s.t. [[1, y1], [y1, y2]] >= 0 and y2 = 1/4, optimum 1/2.
    a1 = np.zeros((2, 2))
    a1[0, 1] = a1[1, 0] = -1.0
    a2 = np.zeros((2, 2))
    a2[1, 1] = -1.0
    prob = sdpcore.SdpProblem(
        num_vars=2,
        objective=np.array([1.0, 0.0]),
        blocks=[sdpcore.SdpBlock(c=np.diag([1.0, 0.0]), coeffs=[(0, a1), (1, a2)])],
        eq_matrix=np.array([[0.0, 1.0]]),
        eq_rhs=np.array([0.25]),
    )
    sol = sdpcore.solve(prob)
    assert sol.status == "optimal"
    assert abs(sol.objective_value - 0.5) < 1e-7
    assert abs(sol.y[1] - 0.25) < 1e-9


def test_box_and_linear_row():
    # max y1 + y2, 0 <= y <= 1, y1 + 2 y2 <= 2; optimum (1, 1/2).
    prob = sdpcore.SdpProblem(
        num_vars=2,
        objective=np.array([1.0, 1.0]),
        blocks=[
            sdpcore.SdpBlock(
                c=np.array([[2.0]]),
                coeffs=[(0, np.array([[1.0]])), (1, np.array([[2.0]]))],
            )
        ],
        lower=np.zeros(2),
        upper=np.ones(2),
    )
    sol = sdpcore.solve(prob)
    assert sol.status == "optimal"
    assert abs(sol.objective_value - 1.5) < 1e-7
    np.testing.assert_allclose(sol.y, [1.0, 0.5], atol=1e-6)


def test_redundant_equalities_are_dropped():
    prob = sdpcore.SdpProblem(
        num_vars=2,
        objective=np.array([0.0, 1.0]),
        blocks=[
            sdpcore.SdpBlock(
                c=np.eye(2), coeffs=[(0, np.diag([1.0, 0.0])), (1, np.diag([0.0, 1.0]))]
            )
        ],
        eq_matrix=np.array([[1.0, 1.0], [2.0, 2.0], [0.5, 0.5]]),
        eq_rhs=np.array([1.0, 2.0, 0.5]),
    )
    sol = sdpcore.solve(prob)
    assert sol.status == "optimal"
    assert abs(sol.objective_value - 1.0) < 1e-7


def test_inconsistent_equalities_raise():
    prob = sdpcore.SdpProblem(
        num_vars=2,
        objective=np.array([0.0, 1.0]),
        blocks=[sdpcore.SdpBlock(c=np.eye(2), coeffs=[(0, np.eye(2))])],
        eq_matrix=np.array([[1.0, 1.0], [2.0, 2.0]]),
        eq_rhs=np.array([1.0, 3.0]),
    )
    with pytest.raises(ValueError):
        sdpcore.solve(prob)


def _unit_block(n, scale=1.0):
    """``scale - y_i >= 0`` for every variable, as one diagonal block."""
    return sdpcore.SdpBlock(
        c=scale * np.eye(n),
        coeffs=[(i, np.diag(np.eye(n)[i])) for i in range(n)],
    )


def test_equalities_that_fix_every_variable():
    # E = I leaves no free direction: only theta, held at 1, is solved for.
    f = np.array([0.5, -0.3, 0.2])
    prob = sdpcore.SdpProblem(
        num_vars=3,
        objective=np.array([1.0, 1.0, -1.0]),
        blocks=[_unit_block(3, 2.0)],
        eq_matrix=np.eye(3),
        eq_rhs=f,
    )
    sol = sdpcore.solve(prob)
    assert sol.status == "optimal"
    assert np.max(np.abs(sol.y - f)) <= 1e-9
    assert abs(sol.objective_value - 0.0) < 1e-7


def test_bound_on_a_variable_the_rows_fix():
    # Rows of rank 2 (the second repeats the first) fix y0 = 0.5 and leave
    # y1 + y2 = 1 free; maximising y1 under y <= 1 gives (0.5, 1, 0).
    def problem(upper0):
        return sdpcore.SdpProblem(
            num_vars=3,
            objective=np.array([0.0, 1.0, 0.0]),
            blocks=[_unit_block(3)],
            eq_matrix=np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 1.0]]),
            eq_rhs=np.array([0.5, 1.0, 1.0]),
            upper=np.array([upper0, np.inf, np.inf]),
        )

    sol = sdpcore.solve(problem(0.75))
    assert sol.status == "optimal"
    assert abs(sol.objective_value - 1.0) < 1e-7
    np.testing.assert_allclose(sol.y, [0.5, 1.0, 0.0], atol=1e-6)
    # A bound the rows violate ends the solve without an optimal status.
    sol = sdpcore.solve(problem(0.25))
    assert sol.status != "optimal"


def test_equality_multipliers_exist_for_the_returned_blocks():
    # At an optimum, b - sum_k A_k^T(X_k) lies in the row space of E: some
    # multipliers of the rows make the returned blocks dual feasible.
    rng = np.random.default_rng(209)
    n, dim = 6, 4
    mats = []
    for _ in range(n):
        g = rng.standard_normal((dim, dim))
        mats.append(0.5 * (g + g.T))
    rows = rng.standard_normal((2, n))
    e = np.vstack([rows, rows.sum(axis=0)])
    y0 = 0.05 * rng.standard_normal(n)
    b = rng.standard_normal(n)
    tol = sdpcore.DEFAULT_TOL
    # A(y) between -3 I and 3 I keeps the feasible set bounded.
    blocks = [
        sdpcore.SdpBlock(c=3.0 * np.eye(dim), coeffs=list(enumerate(mats))),
        sdpcore.SdpBlock(c=3.0 * np.eye(dim), coeffs=[(i, -a) for i, a in enumerate(mats)]),
    ]
    sol = sdpcore.solve(sdpcore.SdpProblem(
        num_vars=n, objective=b, blocks=blocks, eq_matrix=e, eq_rhs=e @ y0
    ), tol=tol)
    assert sol.status == "optimal"
    adjoint = np.array([
        sum(np.tensordot(a, x) * sign for a, x, sign in
            zip((mats[i], mats[i]), sol.x_blocks, (1.0, -1.0)))
        for i in range(n)
    ])
    resid = b - adjoint
    nu, *_ = np.linalg.lstsq(e.T, resid, rcond=None)
    assert np.max(np.abs(resid - e.T @ nu)) <= tol * (1.0 + np.max(np.abs(b)))
    assert np.max(np.abs(e @ sol.y - e @ y0)) <= tol


def test_weak_duality_certificate():
    rng = np.random.default_rng(202)
    for _ in range(10):
        g = rng.standard_normal((3, 3))
        c = 0.5 * (g + g.T) + 3.0 * np.eye(3)
        prob = max_eig_problem(c)
        sol = sdpcore.solve(prob)
        assert sol.status == "optimal"
        x = sol.x_blocks[0]
        assert np.linalg.eigvalsh(x)[0] >= -1e-8
        pobj = float(np.tensordot(c, x))
        assert abs(pobj - sol.objective_value) <= 1e-8 * (1.0 + abs(sol.objective_value))


def test_objective_scaling():
    c = np.diag([1.0, 2.0])
    base = sdpcore.solve(max_eig_problem(c))
    scaled_prob = max_eig_problem(c)
    scaled_prob.objective = np.array([10.0])
    scaled = sdpcore.solve(scaled_prob)
    assert abs(10.0 * base.objective_value - scaled.objective_value) <= 1e-7
    np.testing.assert_allclose(base.y, scaled.y, atol=1e-6)


def test_deterministic_iterates():
    a1 = np.zeros((2, 2))
    a1[0, 1] = a1[1, 0] = -1.0
    prob = sdpcore.SdpProblem(
        num_vars=2,
        objective=np.array([1.0, 0.3]),
        blocks=[sdpcore.SdpBlock(c=np.diag([1.0, 0.7]), coeffs=[(0, a1), (1, np.eye(2))])],
        lower=np.array([-2.0, -2.0]),
        upper=np.array([2.0, 2.0]),
    )
    first = sdpcore.solve(prob)
    second = sdpcore.solve(prob)
    assert first.status == second.status == "optimal"
    assert np.array_equal(first.y, second.y)
    assert first.iterations == second.iterations


def test_empty_interior_returns_near_optimum_without_failure():
    # Feasible set is the single point y = 0; interior-point iterates can
    # only reach it to roughly sqrt(machine precision).
    a1 = np.zeros((2, 2))
    a1[0, 1] = a1[1, 0] = -1.0
    prob = sdpcore.SdpProblem(
        num_vars=1,
        objective=np.array([1.0]),
        blocks=[sdpcore.SdpBlock(c=np.diag([0.0, 0.25]), coeffs=[(0, a1)])],
    )
    sol = sdpcore.solve(prob)
    assert sol.status in ("optimal", "max_iter")
    assert abs(sol.objective_value) < 1e-5
    assert sol.primal_residual < 1e-6


def test_positive_shift_blocks_optimal_status(monkeypatch):
    # Infeasible: y >= 1 and y <= -1.  One interior-point run reports the
    # shift it ended with; nothing is run again.
    runs = []
    lockstep = sdpcore._lockstep

    def counted(*args, **kwargs):
        runs.append(1)
        return lockstep(*args, **kwargs)

    monkeypatch.setattr(sdpcore, "_lockstep", counted)
    prob = sdpcore.SdpProblem(
        num_vars=1,
        objective=np.array([1.0]),
        blocks=[
            sdpcore.SdpBlock(c=np.array([[-1.0]]), coeffs=[(0, np.array([[1.0]]))]),
            sdpcore.SdpBlock(c=np.array([[-1.0]]), coeffs=[(0, np.array([[-1.0]]))]),
        ],
    )
    sol = sdpcore.solve(prob)
    assert sol.status != "optimal"
    assert sol.shift > 1e-3
    assert len(runs) == 1


def test_validation_errors():
    with pytest.raises(ValueError):
        sdpcore.solve(
            sdpcore.SdpProblem(num_vars=1, objective=np.array([1.0]), blocks=[])
        )
    with pytest.raises(ValueError):
        sdpcore.solve(
            sdpcore.SdpProblem(
                num_vars=1,
                objective=np.array([1.0]),
                blocks=[],
                lower=np.array([1.0]),
                upper=np.array([0.0]),
            )
        )
    with pytest.raises(ValueError):
        sdpcore.solve(
            sdpcore.SdpProblem(
                num_vars=1,
                objective=np.array([1.0]),
                blocks=[
                    sdpcore.SdpBlock(
                        c=np.array([[0.0, 1.0], [0.0, 0.0]]), coeffs=[(0, np.eye(2))]
                    )
                ],
            )
        )
    with pytest.raises(ValueError):
        sdpcore.solve(
            sdpcore.SdpProblem(
                num_vars=1,
                objective=np.array([1.0]),
                blocks=[sdpcore.SdpBlock(c=np.eye(2), coeffs=[(3, np.eye(2))])],
            )
        )
    with pytest.raises(ValueError, match="coefficients must be 2x2"):
        sdpcore.solve(
            sdpcore.SdpProblem(
                num_vars=1,
                objective=np.array([1.0]),
                blocks=[sdpcore.SdpBlock(c=np.eye(2), coeffs=[(0, np.eye(3))])],
            )
        )
    good = max_eig_problem(np.diag([1.0, 2.0]))
    for tol in (np.nan, np.inf, -np.inf, -1.0):
        with pytest.raises(ValueError, match="tol must be finite"):
            sdpcore.solve(good, tol=tol)
    for max_iter in (-1, 2.5, None):
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            sdpcore.solve(good, max_iter=max_iter)
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            sdpcore.solve_many([good, good], max_iter=max_iter)


def test_asymmetric_coefficient_inside_block_is_named():
    sym = np.eye(3)
    skew = np.eye(3)
    skew[0, 2] = 1.0
    prob = sdpcore.SdpProblem(
        num_vars=5,
        objective=np.ones(5),
        blocks=[
            sdpcore.SdpBlock(c=np.eye(3), coeffs=[(0, sym)]),
            sdpcore.SdpBlock(
                c=np.eye(3), coeffs=[(4, sym), (1, sym), (3, skew), (2, skew)]
            ),
        ],
    )
    with pytest.raises(ValueError, match="block 1 coefficient 3 must be symmetric"):
        sdpcore.solve(prob)


def _one_var_problem(**changes) -> sdpcore.SdpProblem:
    prob = max_eig_problem(np.eye(2))
    for name, value in changes.items():
        setattr(prob, name, value)
    return prob


def test_nan_box_bound_is_rejected():
    # A NaN bound is neither finite nor infinite, so it must not pass as
    # "no bound" (the solve used to end optimal at -5 here).
    prob = _one_var_problem(lower=np.array([np.nan]), upper=np.array([-5.0]))
    with pytest.raises(ValueError, match="lower bounds must not be NaN"):
        sdpcore.solve(prob)
    with pytest.raises(ValueError, match="upper bounds must not be NaN"):
        sdpcore.solve(_one_var_problem(upper=np.array([np.nan])))


def test_non_finite_coefficient_is_named():
    bad = np.diag([np.inf, 0.0])
    prob = sdpcore.SdpProblem(
        num_vars=3,
        objective=np.ones(3),
        blocks=[sdpcore.SdpBlock(c=np.eye(2), coeffs=[(0, np.eye(2)), (2, bad), (1, bad)])],
    )
    with pytest.raises(ValueError, match="block 0 coefficient 2 must be finite"):
        sdpcore.solve(prob)
    prob.blocks[0].coeffs[1] = (2, np.full((2, 2), np.nan))
    with pytest.raises(ValueError, match="block 0 coefficient 2 must be finite"):
        sdpcore.solve(prob)


def test_non_finite_constant_objective_and_rows_are_rejected():
    block = sdpcore.SdpBlock(c=np.diag([np.inf, 1.0]), coeffs=[(0, np.eye(2))])
    with pytest.raises(ValueError, match="block 0 constant must be finite"):
        sdpcore.solve(_one_var_problem(blocks=[block]))
    with pytest.raises(ValueError, match="objective must be finite"):
        sdpcore.solve(_one_var_problem(objective=np.array([np.nan])))
    rows = {"eq_matrix": np.array([[np.inf]]), "eq_rhs": np.array([0.0])}
    with pytest.raises(ValueError, match="equality constraints must be finite"):
        sdpcore.solve(_one_var_problem(**rows))
    # Infinite box bounds are no bounds and stay allowed.
    sol = sdpcore.solve(_one_var_problem(lower=np.array([-np.inf]), upper=np.array([np.inf])))
    assert sol.status == "optimal"
    assert abs(sol.objective_value - 1.0) < 1e-7


def test_block_multiplicity_must_be_a_positive_integer():
    for w in (0, -1, 1.5):
        block = sdpcore.SdpBlock(c=np.eye(2), coeffs=[(0, np.eye(2))], w=w)
        with pytest.raises(ValueError, match="multiplicity must be a positive integer"):
            sdpcore.solve(_one_var_problem(blocks=[block]))


def test_complex_constant_keeps_its_imaginary_part():
    # max y s.t. y*I <= [[1, i], [-i, 1]]: the smallest eigenvalue is 0.
    # Cast to float, the constant was the identity and the value 1.
    prob = max_eig_problem(np.array([[1.0, 1.0j], [-1.0j, 1.0]]))
    sol = sdpcore.solve(prob)
    assert sol.status == "optimal"
    assert abs(sol.objective_value) < 1e-7
    assert sol.x_blocks[0].dtype == np.complex128


def test_non_hermitian_complex_data_is_rejected():
    skew = np.array([[1.0, 1.0j], [1.0j, 1.0]])
    with pytest.raises(ValueError, match="block 0 constant must be Hermitian"):
        sdpcore.solve(max_eig_problem(skew))
    block = sdpcore.SdpBlock(c=np.eye(2), coeffs=[(0, np.eye(2)), (1, skew)])
    prob = sdpcore.SdpProblem(2, np.ones(2), [block])
    with pytest.raises(ValueError, match="block 0 coefficient 1 must be Hermitian"):
        sdpcore.solve(prob)


def test_non_finite_complex_data_is_rejected():
    for bad in (complex(np.nan, 0.0), complex(0.0, np.inf), complex(np.inf, np.nan)):
        c = np.eye(2, dtype=complex)
        c[1, 1] = bad
        with pytest.raises(ValueError, match="block 0 constant must be finite"):
            sdpcore.solve(max_eig_problem(c))
        block = sdpcore.SdpBlock(c=np.eye(2), coeffs=[(0, c)])
        with pytest.raises(ValueError, match="block 0 coefficient 0 must be finite"):
            sdpcore.solve(_one_var_problem(blocks=[block]))


@pytest.mark.parametrize("as_list", [False, True], ids=["array", "list"])
@pytest.mark.parametrize("field, value, message", [
    ("objective", [1.0 + 1.0j], "objective must be real"),
    ("eq_matrix", [[1.0 + 1.0j]], "eq_matrix must be real"),
    ("eq_rhs", [0.5 + 0.5j], "eq_rhs must be real"),
    ("lower", [0.1 + 1.0j], "lower bounds must be real"),
    ("upper", [2.0 + 1.0j], "upper bounds must be real"),
])
def test_complex_vectors_are_rejected(field, value, message, as_list):
    # The variables are real: a complex objective, row or bound used to be
    # cast to float (or raise TypeError as a list), dropping its imaginary
    # part; the objective case then ended optimal at 1.0.
    changes = {"eq_matrix": np.array([[1.0]]), "eq_rhs": np.array([0.5])}
    changes = {k: v for k, v in changes.items() if field.startswith("eq")}
    changes[field] = value if as_list else np.array(value)
    with pytest.raises(ValueError, match=message):
        sdpcore.solve(_one_var_problem(**changes))


def _random_lmi(rng, k, m, w):
    """A block of side m on k variables with a strictly feasible y = 0."""
    g = rng.standard_normal((m, m))
    mats = [0.5 * (a + a.T) for a in rng.standard_normal((k, m, m))]
    return sdpcore.SdpBlock(c=g @ g.T + m * np.eye(m), coeffs=list(enumerate(mats)), w=w)


def _copies(block: sdpcore.SdpBlock) -> sdpcore.SdpBlock:
    """The explicit block ``diag(A, ..., A)`` of a block's ``w`` copies."""
    def rep(a):
        return np.kron(np.eye(block.w), a)

    return sdpcore.SdpBlock(c=rep(block.c), coeffs=[(i, rep(a)) for i, a in block.coeffs])


def _bounded_objective(rng, blocks, k):
    # b_i = sum over blocks and copies of Tr(A_i X) for X > 0: the dual is
    # strictly feasible, so the maximum is attained.
    b = np.zeros(k)
    for blk in blocks:
        g = rng.standard_normal((blk.dim, blk.dim))
        x = g @ g.T + np.eye(blk.dim)
        for i, a in blk.coeffs:
            b[i] += blk.w * np.vdot(a, x)
    return b


def _weighted_problems():
    """(name, problem) pairs with blocks of multiplicity 2 and 3."""
    rng = np.random.default_rng(211)
    k = 4
    blocks = [_random_lmi(rng, k, 3, 2), _random_lmi(rng, k, 2, 1), _random_lmi(rng, k, 2, 3)]
    lmi = sdpcore.SdpProblem(k, _bounded_objective(rng, blocks, k), blocks)
    yield "lmi", lmi
    # Equality rows through a strictly feasible point.
    e = rng.standard_normal((2, k))
    yield "rows", sdpcore.SdpProblem(
        k, lmi.objective, blocks, eq_matrix=e, eq_rhs=e @ (0.05 * rng.standard_normal(k))
    )
    # Finite box bounds that are active at the optimum.
    yield "box", sdpcore.SdpProblem(
        k, 10.0 * rng.standard_normal(k), blocks, lower=-0.1 * np.ones(k), upper=np.full(k, 0.2)
    )


@pytest.mark.parametrize("name", ["lmi", "rows", "box"])
def test_block_multiplicity_matches_explicit_copies(name):
    prob = dict(_weighted_problems())[name]
    explicit = sdpcore.SdpProblem(
        prob.num_vars, prob.objective, [_copies(blk) for blk in prob.blocks],
        prob.eq_matrix, prob.eq_rhs, prob.lower, prob.upper,
    )
    got, want = sdpcore.solve(prob), sdpcore.solve(explicit)
    assert got.status == want.status == "optimal"
    assert got.iterations == want.iterations
    assert abs(got.objective_value - want.objective_value) < 1e-10
    np.testing.assert_allclose(got.y, want.y, rtol=0, atol=1e-10)
    # x_blocks hold one copy: the leading block of the explicit dual.
    for blk, x, x_all in zip(prob.blocks, got.x_blocks, want.x_blocks):
        assert x.shape == (blk.dim, blk.dim)
        np.testing.assert_allclose(x, x_all[: blk.dim, : blk.dim], rtol=0, atol=1e-8)


def _batch_lists(problems):
    """The input positions of every lockstep batch."""
    return [batch.index.tolist() for batch in sdpcore._batches(sdpcore._prepare(problems))]


def test_weighted_blocks_in_a_batch_equal_their_solo_solves():
    problems = [prob for _, prob in _weighted_problems()]
    # The same block unweighted: same shapes, other multiplicity.
    lmi = problems[0]
    plain = sdpcore.SdpProblem(
        lmi.num_vars, lmi.objective,
        [sdpcore.SdpBlock(blk.c, blk.coeffs) for blk in lmi.blocks],
    )
    # Own constants and coefficient lists on the shared objective.
    twin = copy.deepcopy(lmi)
    twin.objective = lmi.objective
    problems += [plain, twin]
    batches = _batch_lists(problems)
    assert not any(0 in b and 3 in b for b in batches)
    assert [0, 4] in batches
    for got, prob in zip(sdpcore.solve_many(problems), problems):
        want = sdpcore.solve(prob)
        assert (got.status, got.iterations) == (want.status, want.iterations)
        assert got.objective_value == want.objective_value
        assert np.array_equal(got.y, want.y)
        assert all(np.array_equal(a, b) for a, b in zip(got.x_blocks, want.x_blocks))


def _random_hermitian(rng, m):
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return 0.5 * (g + g.conj().T)


def _random_hermitian_lmi(rng, k, m):
    """A complex Hermitian block of multiplicity 2, strictly feasible at 0."""
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    mats = [_random_hermitian(rng, m) for _ in range(k)]
    return sdpcore.SdpBlock(c=g @ g.conj().T + m * np.eye(m), coeffs=list(enumerate(mats)), w=2)


def _embedded(block: sdpcore.SdpBlock) -> sdpcore.SdpBlock:
    """The real block ``real_embed`` of a complex one: twice the side, one copy."""
    if not np.iscomplexobj(block.c):
        return block
    return sdpcore.SdpBlock(
        c=real_embed(block.c),
        coeffs=[(i, real_embed(a)) for i, a in block.coeffs],
        w=block.w // 2,
    )


def _complex_problems(seed):
    """(name, problem) pairs with complex blocks next to a real one."""
    rng = np.random.default_rng(seed)
    k = 4
    blocks = [_random_hermitian_lmi(rng, k, 3), _random_lmi(rng, k, 2, 1),
              _random_hermitian_lmi(rng, k, 2)]
    # b_i = sum over blocks of w Re Tr(A_i X) for X > 0: the dual is
    # strictly feasible, so the maximum is attained.
    b = np.zeros(k)
    for blk in blocks:
        g = rng.standard_normal((blk.dim, blk.dim)) + 1j * rng.standard_normal((blk.dim, blk.dim))
        x = g @ g.conj().T + np.eye(blk.dim)
        for i, a in blk.coeffs:
            b[i] += blk.w * np.trace(a @ x).real
    b /= np.abs(b).max()
    lmi = sdpcore.SdpProblem(k, b, blocks)
    yield "lmi", lmi
    e = rng.standard_normal((2, k))
    yield "rows", sdpcore.SdpProblem(
        k, b, blocks, eq_matrix=e, eq_rhs=e @ (0.05 * rng.standard_normal(k))
    )
    yield "box", sdpcore.SdpProblem(
        k, 10.0 * rng.standard_normal(k), blocks, lower=-0.1 * np.ones(k), upper=np.full(k, 0.2)
    )


@pytest.mark.parametrize("seed", [311, 312, 313])
@pytest.mark.parametrize("name", ["lmi", "rows", "box"])
def test_hermitian_blocks_match_their_real_embedding(name, seed):
    # real_embed is a *-homomorphism with Tr(emb A emb B) = 2 Re Tr(A B):
    # a Hermitian block of multiplicity 2 has the iterates of its embedding.
    prob = dict(_complex_problems(seed))[name]
    embedded = sdpcore.SdpProblem(
        prob.num_vars, prob.objective, [_embedded(blk) for blk in prob.blocks],
        prob.eq_matrix, prob.eq_rhs, prob.lower, prob.upper,
    )
    got, want = sdpcore.solve(prob), sdpcore.solve(embedded)
    assert got.status == want.status == "optimal"
    assert got.iterations == want.iterations
    assert abs(got.objective_value - want.objective_value) < 1e-12
    np.testing.assert_allclose(got.y, want.y, rtol=0, atol=1e-8)
    # The last dual steps go through S^-1 of a nearly singular slack, which
    # magnifies the roundoff that tells the two paths apart.
    for blk, x, x_emb in zip(prob.blocks, got.x_blocks, want.x_blocks):
        assert x.shape == (blk.dim, blk.dim)
        assert x.dtype == blk.c.dtype
        x_real = real_embed(x) if np.iscomplexobj(x) else x
        np.testing.assert_allclose(x_real, x_emb, rtol=0, atol=1e-6 * (1.0 + np.abs(x_emb).max()))


def test_complex_batch_equals_its_solo_solves():
    problems = [prob for seed in (311, 312) for _, prob in _complex_problems(seed)]
    # Each with another constant on its coefficient lists, objective, rows
    # and box: one lockstep batch per pair.
    problems += [
        sdpcore.SdpProblem(
            p.num_vars, p.objective,
            [sdpcore.SdpBlock(2.0 * blk.c, blk.coeffs, blk.w) for blk in p.blocks],
            p.eq_matrix, p.eq_rhs, p.lower, p.upper,
        )
        for p in problems
    ]
    assert sorted(_batch_lists(problems)) == [[i, i + 6] for i in range(6)]
    for got, prob in zip(sdpcore.solve_many(problems), problems):
        want = sdpcore.solve(prob)
        assert want.status == "optimal"
        _same(got, want)
        assert all(np.array_equal(a, b) for a, b in zip(got.x_blocks, want.x_blocks))


def test_real_and_complex_problems_run_in_separate_batches():
    # One objective and coefficient list, real or complex constants: one
    # lockstep batch each.
    rng = np.random.default_rng(314)
    real = [max_eig_problem(_random_psd(rng, 3)) for _ in range(2)]
    cplx = [max_eig_problem(_random_hermitian(rng, 3) + 4.0 * np.eye(3)) for _ in range(2)]
    problems = [real[0], cplx[0], real[1], cplx[1]]
    for p in problems[1:]:
        p.objective, p.blocks[0].coeffs = problems[0].objective, problems[0].blocks[0].coeffs
    batches = _batch_lists(problems)
    assert sorted(batches) == [[0, 2], [1, 3]]
    for got, prob in zip(sdpcore.solve_many(problems), problems):
        want = sdpcore.solve(prob)
        _same(got, want)
        assert got.status == "optimal"
        assert got.x_blocks[0].dtype == want.x_blocks[0].dtype
        assert abs(got.objective_value - np.linalg.eigvalsh(prob.blocks[0].c)[0]) < 1e-6


def test_max_iter_status():
    c = np.diag([1.0, 2.0])
    sol = sdpcore.solve(max_eig_problem(c), max_iter=2)
    assert sol.status == "max_iter"
    assert sol.iterations <= 2


def test_repeated_variable_in_one_block_is_summed():
    rng = np.random.default_rng(203)
    g = rng.standard_normal((3, 3))
    a = 0.5 * (g + g.T)
    g = rng.standard_normal((3, 3))
    b = 0.5 * (g + g.T)

    def solve_with(coeffs):
        return sdpcore.solve(
            sdpcore.SdpProblem(
                num_vars=2,
                objective=np.array([1.0, 0.5]),
                blocks=[sdpcore.SdpBlock(c=2.0 * np.eye(3), coeffs=coeffs)],
            )
        )

    split = solve_with([(0, a / 2), (0, a / 2), (1, b)])
    whole = solve_with([(0, a), (1, b)])
    assert split.status == whole.status == "optimal"
    assert abs(split.objective_value - whole.objective_value) < 1e-9
    np.testing.assert_allclose(split.y, whole.y, atol=1e-9)


def test_early_exit_reports_iterations_run():
    # A variable with a zero coefficient makes the KKT matrix singular, so
    # the first Newton step fails and the solve stops at once, reporting
    # the failure as its status and not as a warning.
    prob = sdpcore.SdpProblem(
        num_vars=2,
        objective=np.array([1.0, 0.0]),
        blocks=[
            sdpcore.SdpBlock(c=np.eye(2), coeffs=[(0, np.eye(2)), (1, np.zeros((2, 2)))])
        ],
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = sdpcore.solve(prob)
    assert sol.status == "numerical_failure"
    assert sol.iterations < sdpcore.DEFAULT_MAX_ITER


def _same(a, b):
    """Bitwise-equal results: status, iterations, value and iterate."""
    assert (a.status, a.iterations) == (b.status, b.iterations)
    assert np.array_equal(a.y, b.y)
    assert a.objective_value == b.objective_value or (
        np.isnan(a.objective_value) and np.isnan(b.objective_value)
    )


def test_batch_keeps_solo_results_around_a_singular_kkt():
    # The singular instance above, and a variant that fails the same way
    # inside a lockstep batch of good problems: all of them share one
    # objective and the equality row that fixes y1, and the bad one's own
    # coefficient matrices leave the free variable y0 out of its block.
    # Ending the bad problems must leave every other problem of the batch
    # with its solo result.
    coeffs = [(0, np.eye(2)), (1, np.zeros((2, 2)))]
    objective, row, rhs = np.array([1.0, 0.0]), np.array([[0.0, 1.0]]), np.array([0.1])

    def problem(c, coeffs):
        return sdpcore.SdpProblem(
            num_vars=2,
            objective=objective,
            blocks=[sdpcore.SdpBlock(c=c, coeffs=coeffs)],
            eq_matrix=row,
            eq_rhs=rhs,
        )

    original = sdpcore.SdpProblem(
        num_vars=2,
        objective=np.array([1.0, 0.0]),
        blocks=[sdpcore.SdpBlock(c=np.eye(2), coeffs=coeffs)],
    )
    bad = problem(np.eye(2), [(0, np.zeros((2, 2))), (1, np.eye(2))])
    good = [problem(np.diag([1.0 + k, 2.0]), coeffs) for k in range(3)]
    batch = [good[0], bad, good[1], original, good[2]]
    assert _batch_lists([bad, *good]) == [[0, 1, 2, 3]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        together = sdpcore.solve_many(batch)
    alone = [sdpcore.solve(p) for p in batch]
    assert [r.status for r in alone] == [
        "optimal", "numerical_failure", "optimal", "numerical_failure", "optimal"
    ]
    for a, b in zip(together, alone):
        _same(a, b)


def test_batch_of_blocks_on_variable_subsets():
    # Block A on {0, 2}: [[s - y0, -y2], [-y2, s]] >= 0; block B on {1, 3},
    # variable 3 listed twice: y1 + y3 <= 2s; bounds y1 >= -1, y3 <= 3.
    # max y0 + y2 + y1 + 2 y3 is at y0 = 3s/4, y2 = s/2 and, for s >= 1,
    # y1 = 2s - 3, y3 = 3, else y1 = -1, y3 = 2s + 1.  The problems share
    # objective, bounds and coefficient lists; only the constants scale.
    off = np.array([[0.0, 1.0], [1.0, 0.0]])
    objective = np.array([1.0, 1.0, 1.0, 2.0])
    lower = np.array([-np.inf, -1.0, -np.inf, -np.inf])
    upper = np.array([np.inf, np.inf, np.inf, 3.0])
    coeffs_a = [(0, np.diag([1.0, 0.0])), (2, off)]
    coeffs_b = [(3, np.array([[0.5]])), (1, np.array([[1.0]])), (3, np.array([[0.5]]))]

    def problem(s):
        return sdpcore.SdpProblem(
            num_vars=4,
            objective=objective,
            blocks=[
                sdpcore.SdpBlock(c=s * np.eye(2), coeffs=coeffs_a),
                sdpcore.SdpBlock(c=np.array([[2.0 * s]]), coeffs=coeffs_b),
            ],
            lower=lower,
            upper=upper,
        )

    scales = [1.0, 2.0, 0.5]
    problems = [problem(s) for s in scales]
    assert _batch_lists(problems) == [[0, 1, 2]]
    batch = sdpcore.solve_many(problems)
    for s, prob, got in zip(scales, problems, batch):
        _same(got, sdpcore.solve(prob))
        assert got.status == "optimal"
        y1, y3 = (2.0 * s - 3.0, 3.0) if s >= 1.0 else (-1.0, 2.0 * s + 1.0)
        want = [0.75 * s, y1, 0.5 * s, y3]
        assert abs(got.objective_value - np.dot(objective, want)) < 1e-6
        np.testing.assert_allclose(got.y, want, atol=1e-4)


def test_batch_at_max_iter_keeps_solo_results():
    rng = np.random.default_rng(208)
    problems = []
    for _ in range(4):
        g = rng.standard_normal((3, 3))
        problems.append(max_eig_problem(0.5 * (g + g.T) + 3.0 * np.eye(3)))
    # A shared objective and coefficient list put the eigenvalue problems
    # in one lockstep batch.
    for p in problems[1:]:
        p.objective, p.blocks[0].coeffs = problems[0].objective, problems[0].blocks[0].coeffs
    assert _batch_lists(problems) == [[0, 1, 2, 3]]
    for max_iter in (2, sdpcore.DEFAULT_MAX_ITER):
        together = sdpcore.solve_many(problems, max_iter=max_iter)
        for p, sol in zip(problems, together):
            _same(sol, sdpcore.solve(p, max_iter=max_iter))
        if max_iter == 2:
            assert {sol.status for sol in together} == {"max_iter"}


def _min_eig(m):
    return np.linalg.eigvalsh(m)[0]


def _assert_step_is_tight(m, dm, a):
    # The step keeps the iterate in the cone and is the largest that does.
    assert _min_eig(m + a * (1.0 - 1e-9) * dm) >= 0.0
    assert _min_eig(m + a * (1.0 + 1e-6) * dm) < 0.0


def _random_psd(rng, dim, floor=0.1):
    g = rng.standard_normal((dim, dim))
    return g @ g.T + floor * np.eye(dim)


def _max_step(li, dm):
    # The step search of the solver loop on a stack of factors li = L^-1.
    return sdpcore._eig_step(sdpcore._DenseBlock.step_eig(li, dm, li.conj().mT))


def _step(m, dm, repair=False):
    # The step helpers work on stacks, one slice per problem of a batch.
    li, ok = sdpcore._inv_chol(m[None], repair=repair)
    assert ok.tolist() == [True]
    return _max_step(li, dm[None])[0]


def test_step_length_from_cached_factor():
    rng = np.random.default_rng(204)
    for dim in (1, 2, 3, 5, 8):
        for _ in range(5):
            m = _random_psd(rng, dim)
            g = rng.standard_normal((dim, dim))
            dm = g + g.T
            if _min_eig(dm) >= 0.0:
                dm = -dm  # a direction that leaves the cone
            a = _step(m, dm)
            assert np.isfinite(a) and a > 0.0
            _assert_step_is_tight(m, dm, a)


def test_step_length_unbounded_direction():
    rng = np.random.default_rng(205)
    m = _random_psd(rng, 4)
    dm = _random_psd(rng, 4, floor=0.0)
    assert _step(m, dm) == np.inf
    assert _step(m, np.zeros((4, 4))) == np.inf


def test_step_length_diagonal_block():
    rng = np.random.default_rng(206)
    def step(m, dm):
        return sdpcore._lp_max_step(m[None], dm[None])[0]

    for _ in range(20):
        m = rng.uniform(0.1, 2.0, size=5)
        dm = rng.standard_normal(5)
        dm[0] = -abs(dm[0])  # at least one entry leaves the cone
        a = step(m, dm)
        assert np.all(m + a * (1.0 - 1e-9) * dm >= 0.0)
        assert np.min(m + a * (1.0 + 1e-6) * dm) < 0.0
        _assert_step_is_tight(np.diag(m), np.diag(dm), a)
    assert step(np.ones(3), np.array([0.0, 1.0, 2.0])) == np.inf


def test_step_length_boundary_repair():
    # An iterate that roundoff left just outside the cone: Cholesky fails,
    # and the repaired factor still gives the step of a direction that
    # moves back in along the null direction and leaves through another.
    m = np.diag([-1e-15, 1.0, 2.0, 3.0])
    dm = np.diag([1.0, -1.0, -0.5, 0.5])
    dm[1, 2] = dm[2, 1] = 0.3
    dm[2, 3] = dm[3, 2] = -0.2
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(m)
    # A failed factor warns outside the errstate of the solver loop.
    with np.errstate(invalid="ignore"):
        assert sdpcore._inv_chol(m[None])[1].tolist() == [False]
        a = _step(m, dm, repair=True)
    assert np.isfinite(a)
    _assert_step_is_tight(m, dm, a)
    # Nothing to repair without a positive eigenvalue.
    with np.errstate(invalid="ignore"):
        assert sdpcore._inv_chol(-np.eye(3)[None], repair=True)[1].tolist() == [False]


def test_complex_step_length_boundary_repair():
    # A Hermitian complex iterate just outside the cone: [[1, i], [-i, 1]]
    # is singular along (1, i), and the shift makes its Cholesky factor
    # fail.  The repaired factor is complex, reproduces the iterate and
    # gives the step of a direction that moves back in along (1, i).
    m = np.zeros((4, 4), dtype=complex)
    m[:2, :2] = [[1.0, 1.0j], [-1.0j, 1.0]]
    m[2:, 2:] = [[2.0, 0.5j], [-0.5j, 3.0]]
    m -= 1e-15 * np.eye(4)
    dm = np.diag([1.0, 1.0, -1.0, 0.5]).astype(complex)
    dm[1, 2], dm[2, 1] = 0.3j, -0.3j
    dm[0, 3], dm[3, 0] = -0.2, -0.2
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(m)
    # A failed factor warns outside the errstate of the solver loop.
    with np.errstate(invalid="ignore"):
        assert sdpcore._inv_chol(m[None])[1].tolist() == [False]
        ell = sdpcore._cholesky(m, repair=True)
        li, ok = sdpcore._inv_chol(m[None], repair=True)
    assert ell.dtype == np.complex128
    np.testing.assert_allclose(ell @ ell.conj().T, m, rtol=0, atol=1e-13)
    assert ok.tolist() == [True]
    a = _max_step(li, dm[None])[0]
    assert np.isfinite(a)
    _assert_step_is_tight(m, dm, a)
    # Nothing to repair without a positive eigenvalue.
    neg = -m - 1e-12 * np.eye(4)
    with np.errstate(invalid="ignore"):
        assert sdpcore._inv_chol(neg[None], repair=True)[1].tolist() == [False]


def test_stacked_factor_fails_only_the_bad_slice():
    # One slice that is not positive definite must not disturb the others:
    # their factors equal the ones each gets alone.
    rng = np.random.default_rng(207)
    stack = np.stack([_random_psd(rng, 4), -np.eye(4), _random_psd(rng, 4)])
    with np.errstate(invalid="ignore"):
        li, ok = sdpcore._inv_chol(stack)
    assert ok.tolist() == [True, False, True]
    for i in (0, 2):
        alone, ok_alone = sdpcore._inv_chol(stack[i : i + 1])
        assert ok_alone.tolist() == [True]
        assert np.array_equal(li[i], alone[0])


def _random_hermitian_psd(rng, dim, dtype):
    g = rng.standard_normal((dim, dim))
    if dtype is complex:
        g = g + 1j * rng.standard_normal((dim, dim))
    return g @ g.conj().T + 0.1 * np.eye(dim)


def _lmi_problems(dtype, count):
    # max y0 + y1/2 subject to C_j - y0 A0 - y1 A1 >= 0: one lockstep batch
    # of problems that differ in their constants only.
    rng = np.random.default_rng(210)
    a0 = _random_hermitian_psd(rng, 3, dtype)
    a1 = _random_hermitian_psd(rng, 3, dtype) - 2.0 * np.eye(3)
    coeffs, objective = [(0, a0), (1, a1)], np.array([1.0, 0.5])
    return [
        sdpcore.SdpProblem(
            num_vars=2,
            objective=objective,
            blocks=[sdpcore.SdpBlock(c=_random_hermitian_psd(rng, 3, dtype) + np.eye(3),
                                     coeffs=coeffs)],
        )
        for _ in range(count)
    ]


@pytest.mark.parametrize("dtype", [float, complex], ids=["real", "complex"])
def test_failed_slices_read_as_a_nan_mask(monkeypatch, dtype):
    # A stack with a slice that is not positive definite and a NaN slice:
    # the kernels fail those slices alone and every other slice is bitwise
    # its solo result.  Every kernel runs under the errstate that
    # ``_lockstep`` holds for the whole run, and no warning escapes a
    # batch (warnings are errors here).
    rng = np.random.default_rng(208)
    stack = np.stack([
        _random_hermitian_psd(rng, 4, dtype), -np.eye(4, dtype=dtype),
        np.full((4, 4), np.nan, dtype=dtype), _random_hermitian_psd(rng, 4, dtype),
    ])
    good = (0, 3)
    block = sdpcore._DenseBlock
    with np.errstate(invalid="ignore"):
        li, ok = block.factor(stack)
    assert ok.tolist() == [True, False, False, True]
    for i in good:
        alone, ok_alone = block.factor(stack[i : i + 1])
        assert ok_alone.tolist() == [True]
        assert np.array_equal(li[i], alone[0])
    # A slice LAPACK fails on reads NaN in the eigensolves too.
    dm = np.stack([_random_hermitian_psd(rng, 4, dtype) - 2.0 * np.eye(4) for _ in range(4)])
    dm[2] = np.nan
    with warnings.catch_warnings(), np.errstate(invalid="ignore"):
        warnings.simplefilter("error")
        low = block.min_slack(stack)
        steps = _max_step(li, dm)
    assert low[1] == -1.0 and np.isnan(low[2])
    assert np.isfinite(steps[[0, 1, 3]]).all() and np.isnan(steps[2])
    for i in good:
        assert low[i] == block.min_slack(stack[i : i + 1])[0]
        assert steps[i] == _max_step(li[i : i + 1], dm[i : i + 1])[0]

    # In a batch: on the first factorisation of S, problem 1 gets the
    # slice that is not positive definite and problem 2 the NaN one.  They
    # end there; the others keep their solo results.
    problems = _lmi_problems(dtype, 4)
    assert _batch_lists(problems) == [[0, 1, 2, 3]]
    alone = [sdpcore.solve(p) for p in problems]
    assert [r.status for r in alone] == ["optimal"] * 4
    factor = block.factor
    injected = []

    def inject(m, repair=False):
        if not repair and not injected:
            injected.append(True)
            m = m.copy()
            # X and S of problem i are m[:, i]: one factor call per block.
            m[:, 1], m[:, 2] = -np.eye(3), np.nan
        return factor(m, repair)

    monkeypatch.setattr(block, "factor", staticmethod(inject))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        together = sdpcore.solve_many(problems)
    assert injected
    for i in (1, 2):
        assert together[i].status == "max_iter" and together[i].iterations == 0
    for i in good:
        _same(together[i], alone[i])
        assert all(np.array_equal(a, b) for a, b in zip(together[i].x_blocks, alone[i].x_blocks))


@pytest.mark.parametrize("dtype", [float, complex], ids=["real", "complex"])
def test_direct_lapack_kernels_equal_the_numpy_linalg_wrappers(dtype):
    # The solver calls numpy's LAPACK gufuncs without their wrappers; a
    # numpy that changes its private module must fail here.
    rng = np.random.default_rng(209)
    for side in range(1, 17):
        m = np.stack([_random_hermitian_psd(rng, side, dtype) for _ in range(3)])
        ell = np.linalg.cholesky(m)
        assert np.array_equal(sdpcore._CHOLESKY(m), ell)
        assert np.array_equal(sdpcore._INV(ell), np.linalg.inv(ell))
        low = sdpcore._EIGVALSH(m)
        assert low.dtype == np.float64
        assert np.array_equal(low, np.linalg.eigvalsh(m))


def test_solver_loop_calls_no_linalg_wrapper(monkeypatch):
    # A prebuilt batch of qubit alpha, alphaH and revH programs, real and
    # complex, solves bitwise the same with np.linalg's cholesky, inv and
    # eigvalsh refusing every call.
    from qdoeblin import channel as ch, doeblin as db

    problems = []
    solve_many = sdpcore.solve_many

    def capture(batch, *args, **kwargs):
        problems.extend(batch)
        return solve_many(batch, *args, **kwargs)

    monkeypatch.setattr(sdpcore, "solve_many", capture)
    channels = [ch.gad(0.3, 0.6), ch.gad(0.8, 0.1), ch.random_channel(2, 2, seed=4)]
    db.solve_grids([db.KIND_ALPHA, db.KIND_ALPHA_H, db.KIND_REV_H], channels)
    monkeypatch.undo()
    assert len(problems) == 9
    want = sdpcore.solve_many(problems)

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg wrapper called")

    for name in ("cholesky", "inv", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    got = sdpcore.solve_many(problems)
    for a, b in zip(got, want):
        assert a.status == "optimal"
        _same(a, b)


def test_box_bounds_only():
    # max y0 - 2 y1 over the box [-1, 2] x [-3, 5]: optimum (2, -3).
    prob = sdpcore.SdpProblem(
        num_vars=2,
        objective=np.array([1.0, -2.0]),
        blocks=[],
        lower=np.array([-1.0, -3.0]),
        upper=np.array([2.0, 5.0]),
    )
    sol = sdpcore.solve(prob)
    assert sol.status == "optimal"
    assert abs(sol.objective_value - 8.0) < 1e-7
    np.testing.assert_allclose(sol.y, [2.0, -3.0], atol=1e-6)
    assert sol.x_blocks == []


def test_mixed_finite_and_infinite_bounds():
    # max y0 + 2 y1 - y2 s.t. y0 + y1 <= 4, y0 >= 0, y1 <= 3, -1 <= y2 <= 1:
    # optimum (1, 3, -1) with value 8.
    prob = sdpcore.SdpProblem(
        num_vars=3,
        objective=np.array([1.0, 2.0, -1.0]),
        blocks=[
            sdpcore.SdpBlock(
                c=np.array([[4.0]]),
                coeffs=[(0, np.array([[1.0]])), (1, np.array([[1.0]]))],
            )
        ],
        lower=np.array([0.0, -np.inf, -1.0]),
        upper=np.array([np.inf, 3.0, 1.0]),
    )
    sol = sdpcore.solve(prob)
    assert sol.status == "optimal"
    assert abs(sol.objective_value - 8.0) < 1e-7
    np.testing.assert_allclose(sol.y, [1.0, 3.0, -1.0], atol=1e-6)


def test_bounds_shape_is_checked():
    prob = max_eig_problem(np.eye(2))
    prob.lower = np.zeros(2)
    with pytest.raises(ValueError, match="lower bounds must have shape"):
        sdpcore.solve(prob)


# Status and iteration count of coefficient solves, recorded when the step
# search moved to cached factors and the 1x1 cones to one diagonal block, and
# for alphaT, alphaTH, p1 and the qutrit table before the programs were
# declared as maps on stacked Hermitian bases.  Iteration counts must not
# grow; ``None`` pins a not-applicable alphaT.  p1 is left out at gad(0, 0)
# and gad(1, 0): whether it ends optimal or max_iter there turns on roundoff.
PINNED_QUBIT_SOLVES = {
    ("gad", 0.0, 0.0): {
        "alpha": 7, "alphaT": 7, "alphaH": 6, "alphaTH": 6, "rev": 6, "revT": 6, "revH": 6,
    },
    ("gad", 0.0, 1.0): {
        "alpha": 7, "alphaH": 7, "alphaTH": 10, "p1": 10, "rev": 7, "revT": 9, "revH": 6,
    },
    ("gad", 1.0, 0.0): {
        "alpha": 7, "alphaT": 7, "alphaH": 6, "alphaTH": 6, "rev": 6, "revT": 6, "revH": 6,
    },
    ("gad", 1.0, 1.0): {
        "alpha": 7, "alphaH": 7, "alphaTH": 10, "p1": 10, "rev": 7, "revT": 9, "revH": 6,
    },
    ("gad", 0.5, 0.5): {
        "alpha": 12, "alphaH": 10, "alphaTH": 10, "p1": 12, "rev": 7, "revT": 7, "revH": 7,
    },
    ("depolarizing", 0.3): {
        "alpha": 7, "alphaH": 7, "alphaTH": 10, "p1": 11, "rev": 7, "revT": 8, "revH": 7,
    },
    ("depolarizing", 0.8): {
        "alpha": 7, "alphaT": 11, "alphaH": 7, "alphaTH": 9, "p1": 8, "rev": 7, "revT": 7,
        "revH": 7,
    },
}
PINNED_QUTRIT_SOLVES = {
    ("depolarizing", 0.8): {
        "alpha": 7, "alphaT": 11, "alphaH": 7, "p1": 9, "rev": 7, "revT": 7, "revH": 7,
    },
    ("random", 7): {
        "alpha": 14, "alphaT": None, "alphaH": 13, "p1": 18, "rev": 8, "revT": 8, "revH": 10,
    },
}
# The reverse kinds at d=4, recorded before equality-constrained programs
# were solved in the null space of their equality rows, and the forward
# kinds, recorded before problems without equality rows were lowered the
# same way.
PINNED_QUDIT4_SOLVES = {
    ("depolarizing", 0.8): {
        "alpha": 7, "alphaT": 10, "alphaH": 7, "alphaTH": 8, "p1": 9, "rev": 8, "revT": 7,
        "revH": 8,
    },
    ("random", 7): {
        "alpha": 16, "alphaT": None, "alphaH": 13, "alphaTH": 11, "p1": 15, "rev": 8, "revT": 8,
        "revH": 10,
    },
}


def _check_pinned(key, d, pinned):
    from qdoeblin import channel as ch
    from qdoeblin import doeblin as db

    funcs = {
        "alpha": db.alpha,
        "alphaT": db.alpha_transpose,
        "alphaH": db.alpha_hermitian,
        "alphaTH": db.alpha_transpose_hermitian,
        "p1": db.p1_eb_ppt,
        "rev": db.reverse_alpha,
        "revT": db.reverse_alpha_transpose,
        "revH": db.reverse_alpha_hermitian,
    }
    expected = {}
    if key[0] == "gad":
        chan = ch.gad(key[1], key[2])
        # 1 - revH is the damping parameter eta on the whole lattice.
        expected = {"revH": 1.0 - key[2]}
    elif key[0] == "random":
        chan = ch.random_channel(d, d, seed=key[1])
    else:
        p = key[1]
        chan = ch.depolarizing(p, d)
        flipped = p - d * abs(1.0 - p)
        expected = {
            "alpha": p, "alphaT": flipped, "alphaH": p, "alphaTH": flipped,
            "p1": min(1.0, p * (d + 1) / d), "rev": p, "revT": (d + p) / (d + 1), "revH": p,
        }
    for kind, iters in pinned.items():
        res = funcs[kind](chan)
        if iters is None:
            assert res.status == "not_applicable", kind
            continue
        assert res.status == "optimal", kind
        assert res.solution.iterations <= iters, kind
        if kind in expected:
            assert abs(res.value - expected[kind]) < 1e-6, kind


@pytest.mark.parametrize("key", list(PINNED_QUBIT_SOLVES), ids=str)
def test_pinned_qubit_solves(key):
    _check_pinned(key, 2, PINNED_QUBIT_SOLVES[key])


@pytest.mark.parametrize("key", list(PINNED_QUTRIT_SOLVES), ids=str)
def test_pinned_qutrit_solves(key):
    _check_pinned(key, 3, PINNED_QUTRIT_SOLVES[key])


@pytest.mark.parametrize("key", list(PINNED_QUDIT4_SOLVES), ids=str)
def test_pinned_qudit4_solves(key):
    _check_pinned(key, 4, PINNED_QUDIT4_SOLVES[key])


def test_overflowing_step_ratio_does_not_warn():
    # The diagonal block's ratio test divides by direction entries that
    # can be subnormal here, in the reference link program of rev at a
    # replacer; an overflowing ratio is an unbounded step and must not
    # reach stderr as a RuntimeWarning.
    from qdoeblin import channel as ch
    from qdoeblin import doeblin as db

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        [[res]] = db._solve([link_program([ch.gad(0.5, 0.0)], db.KIND_REV)], 1e-16)
    assert res.solution.iterations > 0
    assert res.status in ("max_iter", "numerical_failure")
    # The ratio test is reached through the box on p, which the reference
    # puts on the problem it yields: finite bounds on p alone.
    [problem] = next(link_program([ch.gad(0.5, 0.0)], db.KIND_REV))
    assert np.isfinite(problem.lower).tolist() == np.isfinite(problem.upper).tolist() == (
        [False] * (problem.num_vars - 1) + [True])
    assert (problem.lower[-1], problem.upper[-1]) == (0.0, 1.0)


@pytest.mark.parametrize(
    "tol, max_iter", [(1e-16, sdpcore.DEFAULT_MAX_ITER), (sdpcore.DEFAULT_TOL, 2)]
)
def test_complex_programs_end_non_optimal_without_warnings(monkeypatch, tol, max_iter):
    # Every kind of a complex qutrit channel, run past what the solver can
    # reach: each must end non-optimal, not raise or warn.  rev and revT
    # have no program in the library, so their reference link programs run
    # on a dephased and rotated (singular, complex) copy of the channel.
    from qdoeblin import channel as ch
    from qdoeblin import doeblin as db

    solve_many = sdpcore.solve_many
    monkeypatch.setattr(
        db.sdpcore, "solve", lambda problem, tol: solve_many([problem], tol, max_iter)[0]
    )
    chan = ch.random_channel(3, 3, seed=7)
    singular = pinched(chan, 1, random_unitary(3, 7))
    runs = [(kind, chan) for kind in (
        db.alpha, db.alpha_transpose, db.alpha_hermitian, db.alpha_transpose_hermitian,
        db.p1_eb_ppt, db.reverse_alpha_hermitian)]
    runs += [
        (lambda c, tol, kind=kind: db._solve([link_program([c], kind)], tol)[0][0], singular)
        for kind in (db.KIND_REV, db.KIND_REV_T)
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind, chan in runs:
            res = kind(chan, tol)
            assert res.status != sdpcore.STATUS_OPTIMAL, res.kind
            if res.solution is not None:
                assert res.solution.iterations <= max_iter, res.kind


def test_best_iterate_stands_in_for_a_worse_later_one(monkeypatch):
    # At tol 1e-16 alphaH of gad(0.3, 0.6) never reaches optimal; its best
    # iterate comes at step 13.  A run capped at 13 steps or after it
    # reports that iterate: 13 iterations and bitwise the same y.
    from qdoeblin import channel as ch
    from qdoeblin import doeblin as db

    want = db.alpha_hermitian(ch.gad(0.3, 0.6), 1e-16).solution
    assert (want.status, want.iterations) == (sdpcore.STATUS_MAX_ITER, 13)
    solve_many = sdpcore.solve_many
    for max_iter in (13, 14, 18):
        monkeypatch.setattr(
            db.sdpcore, "solve", lambda problem, tol: solve_many([problem], tol, max_iter)[0]
        )
        got = db.alpha_hermitian(ch.gad(0.3, 0.6), 1e-16).solution
        assert (got.status, got.iterations) == (sdpcore.STATUS_MAX_ITER, 13), max_iter
        assert got.y.tobytes() == want.y.tobytes()


def test_best_iterates_of_a_batch_stand_in_per_problem():
    # One lockstep batch whose problems have their best iterates at steps
    # 13, 11 and 14: each reports its own best iterate, as its solo solve
    # does, once the cap is at or past it.
    from qdoeblin import channel as ch
    from qdoeblin import doeblin as db

    channels = [ch.gad(0.3, 0.6), ch.gad(0.2, 0.9), ch.gad(0.7, 0.3)]
    problems = next(db._alpha_hermitian_grid(channels, 1e-16))
    assert _batch_lists(problems) == [[0, 1, 2]]
    solo = [sdpcore.solve(prob, 1e-16) for prob in problems]
    assert [sol.iterations for sol in solo] == [13, 11, 14]
    for max_iter in (14, 18):
        for got, want in zip(sdpcore.solve_many(problems, 1e-16, max_iter), solo):
            assert (got.status, got.iterations) == (sdpcore.STATUS_MAX_ITER, want.iterations)
            assert got.y.tobytes() == want.y.tobytes()


def _group_mate(bad: sdpcore.SdpProblem) -> sdpcore.SdpProblem:
    """A problem of ``bad``'s group: its objective, bounds and coefficient
    lists, with valid constants and consistent equality rows of its shapes."""
    rows = {}
    if bad.eq_matrix is not None:
        rows = {"eq_matrix": np.ones(np.shape(bad.eq_matrix)),
                "eq_rhs": np.zeros(np.shape(bad.eq_rhs))}
    blocks = [
        sdpcore.SdpBlock(
            c=2.0 * np.eye(len(blk.c), dtype=complex if np.iscomplexobj(blk.c) else float),
            coeffs=blk.coeffs, w=blk.w,
        )
        for blk in bad.blocks
    ]
    return sdpcore.SdpProblem(
        bad.num_vars, bad.objective, blocks, lower=bad.lower, upper=bad.upper, **rows
    )


def _invalid_problems():
    """(message, own, problem): every problem ValueError of
    ``test_validation_errors``,
    ``test_non_finite_constant_objective_and_rows_are_rejected`` and
    ``test_non_hermitian_complex_data_is_rejected``, inconsistent rows, a
    block multiplicity of 0, a right-hand side without rows, infinite
    bounds alone and fractional variable indices.
    ``own`` marks a fault of per-problem data (a constant or equality rows),
    which the problem's group mates do not share."""
    skew = np.array([[1.0, 1.0j], [1.0j, 1.0]])
    yield "problem has no conic constraints", False, sdpcore.SdpProblem(
        num_vars=1, objective=np.array([1.0]), blocks=[])
    yield "box bounds have lower > upper", False, sdpcore.SdpProblem(
        num_vars=1, objective=np.array([1.0]), blocks=[],
        lower=np.array([1.0]), upper=np.array([0.0]))
    yield "block 0 constant must be symmetric", True, sdpcore.SdpProblem(
        num_vars=1, objective=np.array([1.0]),
        blocks=[sdpcore.SdpBlock(c=np.array([[0.0, 1.0], [0.0, 0.0]]), coeffs=[(0, np.eye(2))])])
    yield "block 0 references variable 3 out of range", False, sdpcore.SdpProblem(
        num_vars=1, objective=np.array([1.0]),
        blocks=[sdpcore.SdpBlock(c=np.eye(2), coeffs=[(3, np.eye(2))])])
    yield "block 0 coefficients must be 2x2, got (3, 3)", False, sdpcore.SdpProblem(
        num_vars=1, objective=np.array([1.0]),
        blocks=[sdpcore.SdpBlock(c=np.eye(2), coeffs=[(0, np.eye(3))])])
    yield "block 0 constant must be finite", True, _one_var_problem(
        blocks=[sdpcore.SdpBlock(c=np.diag([np.inf, 1.0]), coeffs=[(0, np.eye(2))])])
    yield "objective must be finite", False, _one_var_problem(objective=np.array([np.nan]))
    yield "equality constraints must be finite", True, _one_var_problem(
        eq_matrix=np.array([[np.inf]]), eq_rhs=np.array([0.0]))
    yield "block 0 constant must be Hermitian", True, max_eig_problem(skew)
    yield "block 0 coefficient 1 must be Hermitian", False, sdpcore.SdpProblem(
        2, np.ones(2), [sdpcore.SdpBlock(c=np.eye(2), coeffs=[(0, np.eye(2)), (1, skew)])])
    yield "equality constraints are inconsistent", True, _one_var_problem(
        eq_matrix=np.array([[1.0], [1.0]]), eq_rhs=np.array([0.0, 1.0]))
    yield "block 0 multiplicity must be a positive integer, got 0", False, _one_var_problem(
        blocks=[sdpcore.SdpBlock(c=np.eye(2), coeffs=[(0, np.eye(2))], w=0)])
    yield "equality constraint shapes are inconsistent", True, _one_var_problem(
        eq_rhs=np.array([5.0]))
    # An infinite bound is no bound.
    yield "problem has no conic constraints", False, sdpcore.SdpProblem(
        num_vars=1, objective=np.array([1.0]), blocks=[],
        lower=np.array([-np.inf]), upper=np.array([np.inf]))
    yield "block 0 variable index 0.6 must be an integer", False, sdpcore.SdpProblem(
        2, np.ones(2), [sdpcore.SdpBlock(c=np.eye(2), coeffs=[(0.6, np.eye(2)), (1.7, np.eye(2))])])


def _unique(names):
    """Test ids: each name, with its count appended where it repeats."""
    seen = {}
    for name in names:
        seen[name] = seen.get(name, 0) + 1
        yield name if seen[name] == 1 else f"{name} ({seen[name]})"


@pytest.mark.parametrize("message, own, bad", list(_invalid_problems()),
                         ids=list(_unique(m for m, _, _ in _invalid_problems())))
def test_grouped_validation_keeps_per_problem_errors(message, own, bad):
    # Problems that share their objective, rows, bounds and coefficient
    # lists are validated as one group; each must still raise its own first
    # error.  Equality rows are shared by identity, so the mates of a
    # problem with rows of its own form a group of their own.
    good = [_group_mate(bad), _group_mate(bad)]
    rows = bad.eq_matrix is not None or bad.eq_rhs is not None
    if not rows:
        assert sdpcore._signature(good[0]) == sdpcore._signature(bad)
    with pytest.raises(ValueError) as alone:
        sdpcore.solve(bad)
    assert str(alone.value) == message
    with pytest.raises(ValueError) as grouped:
        sdpcore.solve_many([good[0], bad, good[1]])
    assert str(grouped.value) == message
    if own and not rows:
        # The group mates alone pass validation.
        assert len(sdpcore._prepare(good)) == 1


def test_first_invalid_problem_in_input_order_raises():
    # Two faults in one group and one in another: the error raised is that
    # of the first invalid problem of the list, whatever group it is in.  A
    # non-square constant has a shape of its own, so it forms its own group.
    bad_c = _one_var_problem(
        blocks=[sdpcore.SdpBlock(c=np.diag([np.inf, 1.0]), coeffs=[(0, np.eye(2))])])
    rows = _one_var_problem(eq_matrix=np.array([[1.0], [1.0]]), eq_rhs=np.array([0.0, 1.0]))
    rows.blocks[0].coeffs = bad_c.blocks[0].coeffs
    rows.objective = bad_c.objective
    other = _one_var_problem(objective=np.array([np.nan]))
    oblong = _one_var_problem(
        blocks=[sdpcore.SdpBlock(c=np.ones((2, 3)), coeffs=[(0, np.eye(2))])])
    good = _group_mate(bad_c)
    for batch, message in [
        ([good, bad_c, rows], "block 0 constant must be finite"),
        ([good, rows, bad_c], "equality constraints are inconsistent"),
        ([good, other, bad_c], "objective must be finite"),
        ([bad_c, other], "block 0 constant must be finite"),
        ([good, oblong, bad_c], "block 0 constant must be square, got (2, 3)"),
        ([good, bad_c, oblong], "block 0 constant must be finite"),
    ]:
        with pytest.raises(ValueError) as err:
            sdpcore.solve_many(batch)
        assert str(err.value) == message


def _null_space_reference(e, f):
    """``T = [y_p, Z]`` through ``scipy.linalg.qr`` and ``solve_triangular``."""
    q, r, piv = sla.qr(e.T, pivoting=True)
    diag = np.abs(np.diag(r))
    scale = diag[0] if diag.size and diag[0] > 0 else 1.0
    rank = int(np.sum(diag > 1e-12 * max(1.0, scale)))
    u = sla.solve_triangular(r[:rank, :rank], f[piv[:rank]], trans="T")
    y_p = q[:, :rank] @ u
    if np.max(np.abs(e @ y_p - f)) > 1e-9 * (1.0 + np.max(np.abs(f))):
        raise ValueError("equality constraints are inconsistent")
    return np.column_stack([y_p, q[:, rank:]])


def _null_space_svd_reference(e, f):
    """``T = [y_p, Z]`` of one system through ``scipy.linalg.svd``.

    The factors are copied to C order, the order numpy's SVD returns them
    in: the summation order of ``np.vecmat`` depends on the layout.
    """
    u, s, vt = (np.ascontiguousarray(a) for a in sla.svd(e, lapack_driver="gesdd"))
    rank = int(np.sum(s > 1e-12 * max(1.0, s.max(initial=0.0))))
    coef = np.zeros(s.size)
    coef[:rank] = np.vecmat(f, u)[:rank] / s[:rank]
    y_p = np.vecmat(coef, vt[: s.size])
    if np.max(np.abs(e @ y_p - f)) > 1e-9 * (1.0 + np.max(np.abs(f))):
        raise ValueError("equality constraints are inconsistent")
    return np.column_stack([y_p, vt[rank:].T])


def _row_systems():
    """(name, E, f) with consistent rows: wide, tall, square, rank-deficient."""
    rng = np.random.default_rng(409)
    for name, (m, n) in {"wide": (3, 7), "tall": (6, 4), "square": (5, 5), "one_row": (1, 4),
                         "one_column": (3, 1), "big": (20, 33)}.items():
        e = rng.standard_normal((m, n))
        if name in ("tall", "one_column"):
            # More rows than variables: keep them consistent with a point.
            yield name, e, e @ rng.standard_normal(n)
            continue
        yield name, e, rng.standard_normal(m)
        yield f"{name}_f0", e, np.zeros(m)
    e = rng.standard_normal((4, 6))
    e[2] = 2.0 * e[0] - e[1]
    e[3] = 0.0
    yield "rank_deficient", e, e @ rng.standard_normal(6)
    yield "rank_deficient_f0", e, np.zeros(4)
    yield "rank_one", np.outer([1.0, -2.0, 0.5], [0.3, 0.0, 1.0, 2.0]), np.array([1.0, -2.0, 0.5])
    yield "zero_rows", np.zeros((2, 3)), np.zeros(2)


@pytest.mark.parametrize("name, e, f", list(_row_systems()), ids=[n for n, _, _ in _row_systems()])
def test_null_space_matches_scipy_bitwise(name, e, f):
    # The batched, rank-grouped SVD gives bit for bit what one system
    # factored alone by scipy's gesdd gives.
    t = sdpcore._null_space(e, f)
    want = _null_space_svd_reference(e, f)
    assert t.shape == want.shape and t.dtype == want.dtype
    assert np.array_equal(t, want)


@pytest.mark.parametrize("name, e, f", list(_row_systems()), ids=[n for n, _, _ in _row_systems()])
def test_null_space_matches_scipy_reference(name, e, f):
    t = sdpcore._null_space(e, f)
    want = _null_space_reference(e, f)
    assert t.shape == want.shape and t.dtype == want.dtype
    y_p, z = t[:, 0], t[:, 1:]
    scale = 1.0 + np.abs(e).max()
    # The same null space and the same min-norm solution; the basis of the
    # null space is any orthonormal one.
    np.testing.assert_allclose(z @ z.T, want[:, 1:] @ want[:, 1:].T, rtol=0, atol=1e-12)
    np.testing.assert_allclose(y_p, want[:, 0], rtol=0, atol=1e-12 * scale)
    assert np.abs(e @ z).max(initial=0.0) <= 1e-12 * scale
    np.testing.assert_allclose(z.T @ z, np.eye(z.shape[1]), rtol=0, atol=1e-12)
    assert np.abs(e @ y_p - f).max() <= 1e-12 * scale * (1.0 + np.abs(f).max())


def test_null_space_rejects_inconsistent_rows_like_scipy():
    e = np.array([[1.0, 1.0], [2.0, 2.0]])
    f = np.array([1.0, 3.0])
    for fn in (sdpcore._null_space, _null_space_reference, _null_space_svd_reference):
        with pytest.raises(ValueError, match="equality constraints are inconsistent"):
            fn(e, f)


def test_batches_cut_by_memory_keep_solo_results(monkeypatch):
    # A part larger than BATCH_BYTES allows runs as several batches cut
    # from its stacks: per-problem rows (own coefficient matrices, scaled
    # copies of one list, on shared equality rows) and shared ones (one
    # coefficient stack without rows) alike.
    rng = np.random.default_rng(415)
    k = 4
    blocks = [_random_lmi(rng, k, 3, 1)]
    objective = _bounded_objective(rng, blocks, k)
    e = rng.standard_normal((1, k))
    f = e @ (0.05 * rng.standard_normal(k))
    problems = [
        sdpcore.SdpProblem(
            k, objective,
            [sdpcore.SdpBlock(blocks[0].c, [(i, (1.0 + 0.1 * j) * a) for i, a in blocks[0].coeffs])],
            eq_matrix=e, eq_rhs=f,
        )
        for j in range(5)
    ]
    problems += [
        sdpcore.SdpProblem(k, objective, [sdpcore.SdpBlock((1.0 + 0.1 * i) * blocks[0].c,
                                                           blocks[0].coeffs)])
        for i in range(3)
    ]
    alone = [sdpcore.solve(p) for p in problems]
    sizes = set()
    for batch_bytes in (1, *(1 << s for s in range(8, 16)), sdpcore.BATCH_BYTES):
        monkeypatch.setattr(sdpcore, "BATCH_BYTES", batch_bytes)
        batches = _batch_lists(problems)
        assert sorted(i for b in batches for i in b) == list(range(len(problems)))
        sizes |= {len(b) for b in batches}
        for got, want in zip(sdpcore.solve_many(problems), alone):
            assert want.status == "optimal"
            _same(got, want)
    assert {1, 2, 3, 5} <= sizes


def _own_coefficient_problems(rows: bool):
    """Problems that share their objective, box bounds and variable
    indices, each with its own coefficient matrices and constants: a real
    block and a complex one, strictly feasible at y = 0 and bounded by the
    box.  With ``rows`` they also share one equality row."""
    rng = np.random.default_rng(421)
    k = 4
    objective, lower, upper = rng.standard_normal(k), -np.ones(k), np.ones(k)
    e = rng.standard_normal((1, k))
    extra = {"eq_matrix": e, "eq_rhs": e @ (0.05 * rng.standard_normal(k))} if rows else {}
    return [
        sdpcore.SdpProblem(k, objective, [_random_lmi(rng, k, 3, 2), _random_hermitian_lmi(rng, k, 2)],
                           lower=lower, upper=upper, **extra)
        for _ in range(6)
    ]


@pytest.mark.parametrize("rows", [False, True], ids=["box", "rows"])
def test_own_coefficient_lists_set_up_as_one_group(monkeypatch, rows):
    # Coefficient lists with one index list but their own matrices form one
    # group: one set-up pass and one lowering per block for all of them,
    # and each problem still gets bitwise its solo result.
    problems = _own_coefficient_problems(rows)
    assert len({sdpcore._signature(p) for p in problems}) == 1
    alone = [sdpcore.solve(p) for p in problems]
    calls = {}
    for name in ("_prepare_group", "_lowered_coeffs", "_null_space"):
        fn = getattr(sdpcore, name)
        calls[name] = 0

        def counted(*args, fn=fn, name=name):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(sdpcore, name, counted)
    together = sdpcore.solve_many(problems)
    assert calls == {"_prepare_group": 1, "_lowered_coeffs": 2, "_null_space": int(rows)}
    for got, want in zip(together, alone):
        assert want.status == "optimal"
        _same(got, want)
        assert all(np.array_equal(a, b) for a, b in zip(got.x_blocks, want.x_blocks))


def test_own_coefficient_lists_split_by_real_or_complex_data():
    # A complex matrix in one list makes its block complex: that problem
    # gets a group of its own, as it would be solved alone.
    problems = _own_coefficient_problems(False)[:3]
    i, a = problems[1].blocks[0].coeffs[0]
    problems[1].blocks[0].coeffs[0] = (i, a.astype(complex))
    signatures = [sdpcore._signature(p) for p in problems]
    assert signatures[0] == signatures[2] != signatures[1]
    for got, prob in zip(sdpcore.solve_many(problems), problems):
        _same(got, sdpcore.solve(prob))


def test_refinement_of_one_problem_leaves_the_batch_alone(monkeypatch):
    # Failure injection: the first predictor solve of one problem in a
    # lockstep batch of four comes back off by far more than roundoff.
    # Iterative refinement must run on that problem alone and repair it,
    # and the other three must keep bitwise their solo results.
    problems = _own_coefficient_problems(True)[:4]
    assert len(_batch_lists(problems)) == 1
    alone = [sdpcore.solve(p) for p in problems]
    victim, sizes = 2, []
    solve = sdpcore._SOLVE

    def perturbed(kkt, rhs):
        sol = solve(kkt, rhs)
        if not sizes:
            sol[victim] += 1e-6 * (1.0 + np.abs(sol[victim]).max())
        sizes.append(len(kkt))
        return sol

    monkeypatch.setattr(sdpcore, "_SOLVE", perturbed)
    together = sdpcore.solve_many(problems)
    # The predictor solve of the batch, then one refinement solve of the
    # perturbed problem only.
    assert sizes[:2] == [4, 1]
    for j, (got, want) in enumerate(zip(together, alone)):
        assert want.status == "optimal"
        if j == victim:
            assert (got.status, got.iterations) == (want.status, want.iterations)
            assert abs(got.objective_value - want.objective_value) <= 1e-8
        else:
            _same(got, want)
            assert all(np.array_equal(a, b) for a, b in zip(got.x_blocks, want.x_blocks))


def _x_factor_fault(monkeypatch, victim, at):
    """The X factor of ``victim`` fails in iteration ``at``, and so does its
    repair: X and S of the real 3x3 block are factored in one call per
    iteration, and the victim's X goes NaN in it and in the repair that
    follows."""
    factor, calls = sdpcore._DenseBlock.factor, []

    def inject(m, repair=False):
        if m.ndim == 4 and m.shape[-1] == 3:
            calls.append(m.shape[1])
            if len(calls) == at + 1:
                m = m.copy()
                m[0, victim] = np.nan
        elif repair and len(calls) == at + 1:
            m = np.full_like(m, np.nan)
        return factor(m, repair)

    monkeypatch.setattr(sdpcore._DenseBlock, "factor", staticmethod(inject))
    return calls


def _predictor_step_fault(monkeypatch, victim, at):
    """The eigensolve of the victim's predictor step search returns NaN in
    iteration ``at``: each iteration searches the real 3x3 block twice,
    predictor first, on its (2, B, 3, 3) stack of X and S pairs."""
    eigvalsh, calls = sdpcore._EIGVALSH, []

    def inject(m):
        out = eigvalsh(m)
        if m.ndim == 4 and m.shape[-1] == 3:
            calls.append(m.shape[1])
            if len(calls) == 2 * at + 1:
                out[:, victim] = np.nan
        return out

    monkeypatch.setattr(sdpcore, "_EIGVALSH", inject)
    return calls


def _corrector_direction_fault(monkeypatch, victim, at):
    """The victim's corrector KKT solution goes NaN in iteration ``at``: the
    corrector's is the second solve of an iteration's KKT matrix (a
    refinement solves a copy of its rows)."""
    solve, seen, calls = sdpcore._SOLVE, [], []

    def inject(kkt, rhs):
        sol = solve(kkt, rhs)
        if any(kkt is k for k in seen):
            calls.append(len(kkt))
            if len(calls) == at + 1:
                sol[victim] = np.nan
        seen.append(kkt)
        return sol

    monkeypatch.setattr(sdpcore, "_SOLVE", inject)
    return calls


@pytest.mark.parametrize("fault, victim, status", [
    (_x_factor_fault, 0, "max_iter"),
    (_predictor_step_fault, 2, "max_iter"),
    (_corrector_direction_fault, 3, "numerical_failure"),
], ids=["x-factor", "predictor-step", "corrector-direction"])
def test_batch_exit_of_one_problem_keeps_the_others_solo(monkeypatch, fault, victim, status):
    # Failure injection in a lockstep batch of four problems with a real
    # and a complex block, box bounds and an equality row: in iteration 3,
    # one problem loses the factor of X (a stall), the eigensolve of its
    # predictor step (a stall) or a finite corrector direction (a failure).
    # It ends there with its best iterate, which is the iterate its solo
    # solve capped at 3 steps reports; the others leave the batch later
    # with bitwise their solo results; no warning escapes.
    problems = _own_coefficient_problems(True)[:4]
    assert _batch_lists(problems) == [[0, 1, 2, 3]]
    alone = [sdpcore.solve(p) for p in problems]
    assert all(sol.status == "optimal" and sol.iterations > 4 for sol in alone)
    capped = sdpcore.solve(problems[victim], max_iter=3)
    calls = fault(monkeypatch, victim, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        together = sdpcore.solve_many(problems)
    # The fault hit the full batch, and the batch went on without the victim.
    assert calls[3 if fault is not _predictor_step_fault else 6] == 4
    assert calls[-1] < 4
    for j, (got, want) in enumerate(zip(together, alone)):
        if j == victim:
            assert got.status == status
            want = replace(capped, status=status)
        _same(got, want)
        assert all(np.array_equal(a, b) for a, b in zip(got.x_blocks, want.x_blocks))


# Profiled Python and C calls per iteration of ``_lockstep`` over 100
# qubit gad alpha solves, batches of one (448 before the scratch rows, the
# shared step-search pairs and the inline diagonal block).
CALLS_PER_ITERATION = 133.4


def test_calls_per_lockstep_iteration_are_pinned(monkeypatch):
    # The fixed work of one iteration, counted as sys.setprofile "call" and
    # "c_call" events inside _lockstep per interior-point step taken.  It
    # may grow by 5% at most.
    from qdoeblin import channel as ch
    from qdoeblin import doeblin as db

    grid = np.linspace(0.05, 0.95, 10)
    channels = [ch.gad(float(p), float(eta)) for p in grid for eta in grid]
    lockstep, events, steps = sdpcore._lockstep, [0], [0]

    def count(frame, event, arg):
        if event in ("call", "c_call"):
            events[0] += 1

    def counted(part, tol, max_iter):
        sys.setprofile(count)
        try:
            sols = lockstep(part, tol, max_iter)
        finally:
            sys.setprofile(None)
        steps[0] += sum(sol.iterations for sol in sols)
        return sols

    monkeypatch.setattr(sdpcore, "_lockstep", counted)
    for chan in channels:
        assert db.alpha(chan).status == sdpcore.STATUS_OPTIMAL
    assert events[0] / steps[0] <= 1.05 * CALLS_PER_ITERATION, events[0] / steps[0]


def _own_coefficient_faults():
    """(message, fault) pairs: a fault writes a bad coefficient into a list."""
    skew = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])

    def put(j, a):
        return lambda coeffs: coeffs.__setitem__(j, (j, a))

    yield "block 0 coefficient 2 must be finite", put(2, np.full((3, 3), np.nan))
    yield "block 0 coefficient 1 must be symmetric", put(1, skew)
    yield "block 0 coefficients must be 3x3, got (2, 2)", lambda coeffs: coeffs.__setitem__(
        slice(None), [(j, np.eye(2)) for j, _ in coeffs])
    yield "inhomogeneous", put(3, np.eye(2))


@pytest.mark.parametrize("message, fault", list(_own_coefficient_faults()),
                         ids=[m for m, _ in _own_coefficient_faults()])
def test_bad_own_coefficient_raises_its_solo_error(message, fault):
    # A fault in problem k's own list raises what solve(problems[k])
    # raises, whatever the other problems of its group hold; with faults in
    # two problems, that of the first in input order.
    problems = _own_coefficient_problems(False)
    fault(problems[3].blocks[0].coeffs)
    with pytest.raises(ValueError, match=re.escape(message)) as alone:
        sdpcore.solve(problems[3])
    with pytest.raises(ValueError) as grouped:
        sdpcore.solve_many(problems)
    assert str(grouped.value) == str(alone.value)
    # A constant fault in a later problem does not hide it, and one in an
    # earlier problem comes first.
    problems[4].blocks[0].c = np.full((3, 3), np.inf)
    with pytest.raises(ValueError) as grouped:
        sdpcore.solve_many(problems)
    assert str(grouped.value) == str(alone.value)
    problems[1].blocks[0].c = np.full((3, 3), np.inf)
    with pytest.raises(ValueError, match="block 0 constant must be finite"):
        sdpcore.solve_many(problems)
