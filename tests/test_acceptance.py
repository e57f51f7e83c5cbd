"""Acceptance gate: one test per shipped criterion, plus the surface
property block for the plots that have no published numeric tables.

Every test prints one  criterion NN PASS/FAIL  line so a plain pytest -s
run reads as a checklist.  Criteria 05/06/07/10 run the laws of
qdoeblin.properties, which hold their tolerances; their seeds and ensemble
sizes are pinned here.  Neither may be loosened without a ledger entry.
"""

import math
import time

import numpy as np
import pytest

from qdoeblin import channel as ch
from qdoeblin import cli
from qdoeblin import doeblin as db
from qdoeblin import oracles, properties, sdpcore
from reference import expansion_witness_hockey_stick, f_divergence_commuting, gad_dephasing_identity


def _line(num, ok, text):
    tag = f"criterion {num:02d}" if isinstance(num, int) else num
    print(f"{tag} {'PASS' if ok else 'FAIL'}: {text}")


def _criterion(num, seed, text, *laws):
    """Run ``(law, size)`` pairs in order on one seeded stream, then gate."""
    rng = np.random.default_rng(seed)
    rec = properties.Recorder(f"criterion {num:02d}")
    for law, size in laws:
        law(rng, sdpcore.DEFAULT_TOL, rec, size)
    ok = rec.failed == 0
    _line(num, ok, f"{text}: {rec.passed} checks passed, {rec.failed} failed")
    assert ok, rec.first


def _read_csv(path):
    lines = path.read_text().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:] if line]


def test_criterion_01_depolarizing_closed_form():
    t0 = time.perf_counter()
    errs = []
    for p in np.linspace(0.0, 1.0, 11):
        errs.append(abs(db.alpha(ch.depolarizing(float(p))).value - p))
    elapsed = time.perf_counter() - t0
    worst = max(errs)
    ok = worst <= 1e-5 and elapsed <= 5.0
    _line(1, ok, f"alpha(dep_p)=p on 11 points, max err {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-5
    assert elapsed <= 5.0


def test_criterion_02_transpose_tightness():
    errs, seps = [], []
    for p in (1.0, 1.1, 1.2, 1.3):
        a = db.alpha(ch.depolarizing(p)).value
        at = db.alpha_transpose(ch.depolarizing(p)).value
        errs.append(abs(max(a, at) - (2.0 - p)))
        if p > 1.0:
            seps.append((2.0 - p) - a)
    worst = max(errs)
    min_sep = min(seps)
    ok = worst <= 1e-4 and min_sep > 1e-3
    _line(2, ok, f"max(alpha,alphaT)=2-p, max err {worst:.2e},"
                 f" min separation {min_sep:.3f}")
    assert worst <= 1e-4
    assert min_sep > 1e-3


def test_criterion_03_reverse_hermitian_damping_grid():
    t0 = time.perf_counter()
    worst = 0.0
    for p in np.linspace(0.0, 1.0, 6):
        for eta in np.linspace(0.0, 1.0, 6):
            got = db.reverse_alpha_hermitian(ch.gad(float(p), float(eta))).value
            worst = max(worst, abs(1.0 - got - eta))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed <= 60.0
    _line(3, ok, f"1-revH(gad)=eta on 6x6 grid, max err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-4
    assert elapsed <= 60.0


def test_criterion_04_dephasing_identity_grid():
    t0 = time.perf_counter()
    worst = 0.0
    for p in np.linspace(0.0, 1.0, 21):
        for eta in np.linspace(0.0, 1.0, 21):
            worst = max(worst, gad_dephasing_identity(float(p), float(eta)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed <= 2.0
    _line(4, ok, f"dephasing o gad == generalized dep, 21x21 grid,"
                 f" max dev {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed <= 2.0


def test_criterion_05_classical_equivalence():
    _criterion(5, 1005, "alpha(embed(P)) vs min-sum on 100 stochastic matrices"
               " (50 of each shape)",
               (properties.classical_embedding_alpha, [2] * 50 + [3] * 50))


def test_criterion_06_property_suites():
    _criterion(6, 1006, "concavity(100x3)/supermult(50)/concatenation(100)",
               (properties.alpha_concave, 100),
               (properties.alpha_supermultiplicative, 50),
               (properties.alpha_concatenation, 100))


def test_criterion_07_sandwich_suite():
    _criterion(7, 1007, "200 random qubit channels: 1-rev vs expansion oracle,"
               " eta_tr oracle vs 1-alpha, alpha vs alphaH",
               (properties.sandwich, 200))


def test_criterion_08_bitflip_bounds():
    worst_eta = 1.0
    worst_gap = -math.inf
    for p in np.linspace(0.1, 0.9, 9):
        flip = ch.bitflip(float(p))
        worst_eta = min(worst_eta, oracles.eta_tr_qubit(flip))
        gap = (1.0 - db.reverse_alpha(flip).value) - abs(1.0 - 2.0 * p)
        worst_gap = max(worst_gap, gap)
    ok = worst_eta >= 1.0 - 1e-9 and worst_gap <= 1e-3
    _line(8, ok, f"bitflip: min eta_tr {worst_eta:.6f},"
                 f" (1-rev)-|1-2p| at most {worst_gap:.2e}")
    assert worst_eta >= 1.0 - 1e-9
    assert worst_gap <= 1e-3


def test_criterion_09_expansion_witnesses():
    ok_triples = True
    for p, gamma in ((0.2, 1.5), (0.5, 2.0), (0.8, 3.0)):
        _, e_in, e_out = expansion_witness_hockey_stick(p, gamma)
        ok_triples = ok_triples and e_out <= 1e-12 and e_in >= 1e-3

    dep = ch.depolarizing(0.5)
    rho = np.diag([1.0, 0.0]).astype(complex)

    def chi2(eps, through):
        sigma = np.diag([1.0 - eps, eps]).astype(complex)
        if through:
            return f_divergence_commuting(dep(rho), dep(sigma), "chi2")
        return f_divergence_commuting(rho, sigma, "chi2")

    eps0, h = 1e-5, 1e-6
    slope_in = (chi2(eps0 + h, False) - chi2(eps0 - h, False)) / (2.0 * h)
    slope_out = (chi2(eps0 + h, True) - chi2(eps0 - h, True)) / (2.0 * h)
    ok = ok_triples and abs(slope_in - 1.0) <= 1e-3 and abs(slope_out) <= 1e-3
    _line(9, ok, f"hockey-stick witnesses on 3 (p,gamma) points;"
                 f" chi2 slopes ({slope_in:.5f}, {slope_out:.5f})")
    assert ok_triples
    assert abs(slope_in - 1.0) <= 1e-3
    assert abs(slope_out) <= 1e-3


def test_criterion_10_classical_chain():
    _criterion(10, 1010, "alpha <= 1-C <= rev on 100 BISO channels;"
               " BSC rev vs h(p) on 4 points",
               (properties.classical_chain, 100),
               (properties.bsc_reverse_alpha, (0.05, 0.11, 0.25, 0.4)))


def test_criterion_11_erasure_capacity_bounds():
    # "exactly" is pinned at 1e-6; the solver lands within ~1e-9
    worst = 0.0
    for eps in (0.0, 0.25, 0.5, 0.75, 1.0):
        got = db.capacity_bounds(ch.erasure(eps)).q_bound
        worst = max(worst, abs(got - max(0.0, 1.0 - 2.0 * eps)))
    ok = worst <= 1e-6
    _line(11, ok, f"q_bound(erasure) = max(0,1-2eps) on 5 points,"
                  f" max err {worst:.2e}")
    assert worst <= 1e-6


def test_criterion_12_figure_reproduction(tmp_path):
    assert cli.main(["figures", "--which", "fig2", "--which", "fig8",
                     "--outdir", str(tmp_path)]) == 0
    worst1 = worst2 = worst3 = 0.0
    min_sep = math.inf
    for row in _read_csv(tmp_path / "fig2.csv"):
        p = float(row["p"])
        a = float(row["alpha"])
        if p <= 1.0 + 1e-12:
            worst1 = max(worst1, abs(a - p))
        if p >= 1.0 - 1e-12:
            at = float(row["alphaT"])
            worst2 = max(worst2, abs(max(a, at) - (2.0 - p)))
        if p > 1.0 + 1e-9:
            min_sep = min(min_sep, (2.0 - p) - a)
    for row in _read_csv(tmp_path / "fig8.csv"):
        worst3 = max(worst3, abs(float(row["one_minus_revH"]) - float(row["eta"])))
    svg_ok = all(
        0 < (tmp_path / name).stat().st_size < 200_000
        for name in ("fig2.svg", "fig8.svg")
    )
    ok = (worst1 <= 1e-5 and worst2 <= 1e-4 and min_sep > 1e-3
          and worst3 <= 1e-4 and svg_ok)
    _line(12, ok, f"fig2 alpha err {worst1:.2e}, kink err {worst2:.2e},"
                  f" separation {min_sep:.3f}; fig8 revH err {worst3:.2e};"
                  f" svg files {'ok' if svg_ok else 'bad'}")
    assert worst1 <= 1e-5
    assert worst2 <= 1e-4
    assert min_sep > 1e-3
    assert worst3 <= 1e-4
    assert svg_ok


# The surface plots have no numeric tables; their acceptance is the
# property block below, evaluated on the full 51x51 figure grid.

AXIS = np.linspace(0.0, 1.0, 51)


def _gad_surface():
    """The 51x51 gad(p, eta) figure grid, row-major in (p, eta)."""
    return [ch.gad(float(p), float(eta)) for p in AXIS for eta in AXIS]


@pytest.fixture(scope="module")
def alpha_surface():
    results = db.solve_grid(db.KIND_ALPHA, _gad_surface())
    return np.array([r.value for r in results]).reshape(51, 51)


def test_surface_alpha_monotone_in_eta(alpha_surface):
    # more transmissivity never raises the coefficient
    steps = np.diff(alpha_surface, axis=1)
    worst = float(steps.max())
    ok = worst <= 1e-6
    _line("surface a", ok, f"alpha non-increasing in eta, worst step {worst:.2e}")
    assert worst <= 1e-6


def test_surface_boundary_limits(alpha_surface):
    replacer_err = float(np.max(np.abs(alpha_surface[:, 0] - 1.0)))
    identity_err = float(np.max(np.abs(alpha_surface[:, -1])))
    ok = replacer_err <= 1e-6 and identity_err <= 1e-6
    _line("surface b", ok, f"eta=0 replacer limit err {replacer_err:.2e},"
                 f" eta=1 identity limit err {identity_err:.2e}")
    assert replacer_err <= 1e-6
    assert identity_err <= 1e-6


def test_surface_sandwich_everywhere():
    worst = -math.inf
    for r in db.solve_grid(db.KIND_DP, _gad_surface()):
        worst = max(worst, r.lower - r.upper)
    ok = worst <= 1e-7
    _line("surface c", ok, f"range lower <= upper at all 2601 points,"
                 f" worst violation {worst:.2e}")
    assert worst <= 1e-7
