"""Tests for the interior-point SDP solver.

Expected values are analytic: every instance below has an optimum that can
be worked out by hand (eigenvalue bounds, single-constraint geometry, or a
Schur-complement argument).
"""

from __future__ import annotations

import warnings

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
    with pytest.raises(ValueError, match="coefficients must be 2x2"):
        sdpcore.solve(
            sdpcore.SdpProblem(
                num_vars=1,
                objective=np.array([1.0]),
                blocks=[sdpcore.SdpBlock(c=np.eye(2), coeffs=[(0, np.eye(3))])],
            )
        )


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


def _min_eig(m):
    return np.linalg.eigvalsh(m)[0]


def _assert_step_is_tight(m, dm, a):
    # The step keeps the iterate in the cone and is the largest that does.
    assert _min_eig(m + a * (1.0 - 1e-9) * dm) >= 0.0
    assert _min_eig(m + a * (1.0 + 1e-6) * dm) < 0.0


def _random_psd(rng, dim, floor=0.1):
    g = rng.standard_normal((dim, dim))
    return g @ g.T + floor * np.eye(dim)


def test_step_length_from_cached_factor():
    rng = np.random.default_rng(204)
    for dim in (1, 2, 3, 5, 8):
        for _ in range(5):
            m = _random_psd(rng, dim)
            g = rng.standard_normal((dim, dim))
            dm = g + g.T
            if _min_eig(dm) >= 0.0:
                dm = -dm  # a direction that leaves the cone
            a = sdpcore._max_step(sdpcore._inv_chol(m), dm)
            assert np.isfinite(a) and a > 0.0
            _assert_step_is_tight(m, dm, a)


def test_step_length_unbounded_direction():
    rng = np.random.default_rng(205)
    m = _random_psd(rng, 4)
    dm = _random_psd(rng, 4, floor=0.0)
    assert sdpcore._max_step(sdpcore._inv_chol(m), dm) == np.inf
    assert sdpcore._max_step(sdpcore._inv_chol(m), np.zeros((4, 4))) == np.inf


def test_step_length_diagonal_block():
    rng = np.random.default_rng(206)
    step = sdpcore._DiagBlock.max_step
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
    with pytest.raises(np.linalg.LinAlgError):
        sdpcore._inv_chol(m)
    a = sdpcore._max_step(sdpcore._inv_chol(m, repair=True), dm)
    assert np.isfinite(a)
    _assert_step_is_tight(m, dm, a)
    # Nothing to repair without a positive eigenvalue.
    with pytest.raises(np.linalg.LinAlgError):
        sdpcore._inv_chol(-np.eye(3), repair=True)


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


def test_overflowing_step_ratio_does_not_warn():
    # The diagonal block's ratio test divides by direction entries that
    # can be subnormal here; an overflowing ratio is an unbounded step and
    # must not reach stderr as a RuntimeWarning.
    from qdoeblin import channel as ch
    from qdoeblin import doeblin as db

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = db.reverse_alpha(ch.gad(0.5, 0.0), tol=1e-16)
    assert res.status in ("max_iter", "numerical_failure")
