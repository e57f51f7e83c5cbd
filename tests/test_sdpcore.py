"""Tests for the interior-point SDP solver.

Expected values are analytic: every instance below has an optimum that can
be worked out by hand (eigenvalue bounds, single-constraint geometry, or a
Schur-complement argument).
"""

from __future__ import annotations

import numpy as np
import pytest

from qdoeblin import sdpcore


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


def test_positive_shift_blocks_optimal_status():
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


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_early_exit_reports_iterations_run():
    # A variable with a zero coefficient makes the KKT matrix singular, so
    # the first Newton step fails and the solve stops at once.
    prob = sdpcore.SdpProblem(
        num_vars=2,
        objective=np.array([1.0, 0.0]),
        blocks=[
            sdpcore.SdpBlock(c=np.eye(2), coeffs=[(0, np.eye(2)), (1, np.zeros((2, 2)))])
        ],
    )
    sol = sdpcore.solve(prob)
    assert sol.status == "numerical_failure"
    assert sol.iterations < sdpcore.DEFAULT_MAX_ITER


def test_sdpa_dump(tmp_path):
    a1 = np.zeros((2, 2))
    a1[0, 1] = a1[1, 0] = -1.0
    prob = sdpcore.SdpProblem(
        num_vars=2,
        objective=np.array([1.0, 0.0]),
        blocks=[sdpcore.SdpBlock(c=np.diag([1.0, 0.0]), coeffs=[(0, a1), (1, np.eye(2))])],
        eq_matrix=np.array([[0.0, 1.0]]),
        eq_rhs=np.array([0.25]),
        lower=np.array([0.0, -np.inf]),
    )
    path = tmp_path / "dump.dat-s"
    sdpcore.write_sdpa(prob, str(path))
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith('"')]
    assert lines[0].split()[0] == "2"  # mDIM
    assert lines[1].split()[0] == "2"  # nBLOCK: one SDP block + one diagonal
    sizes = lines[2].split()
    assert sizes == ["2", "-3"]  # lower bound + two rows per equality
    objective = [float(v) for v in lines[3].split()]
    assert objective == [-1.0, -0.0]
    # every entry line parses as "mat block i j value"
    for ln in lines[4:]:
        parts = ln.split()
        assert len(parts) == 5
        int(parts[0]), int(parts[1]), int(parts[2]), int(parts[3])
        float(parts[4])
