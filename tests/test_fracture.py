import numpy as np
import pytest
from oracle import fracture_threshold_scan
from scipy.optimize import brentq

from nanolab.energy import family_energy
from nanolab.errors import InvalidParameterError, WindowTooSmallError
from nanolab.fracture import build_cleaved, fracture_scaling
from nanolab.geometry import build_nanotube, gamma, solve_family
from nanolab.reduced import minimize_family, reduced_energy, reduced_hessian, reference_angles
from nanolab.stability import PerturbationSpec, null_space_report, stability_trial


@pytest.fixture(scope="module")
def refs12(pots_soft):
    return reference_angles(12, pots_soft)


def test_fully_cleaved_bond_deficit_and_energy_identity(refs12, pots_soft):
    ct = build_cleaved(12, 16, refs12.mu_us + 0.1, pots_soft)
    assert ct.fully_cleaved
    assert ct.bond_deficit == 4 * 12
    assert abs(ct.energy - ct.base_energy - 4 * 12) <= 1e-10 * ct.tube.n
    # the literal evaluation sits below the bookkept value by the three-body
    # energy released at the cleft faces
    assert 0.0 < ct.energy - ct.measured_energy < 8 * 12 * 0.1


def test_cleft_degree_structure(refs12, pots_soft):
    ct = build_cleaved(12, 16, refs12.mu_us + 0.1, pots_soft)
    hist = ct.degree_histogram
    # two interface rings lose all three bonds, two lose exactly one
    assert hist.get(0, 0) == 2 * 12
    assert hist.get(2, 0) == 2 * 12
    assert hist.get(3, 0) == ct.tube.n - 4 * 12
    assert set(hist) == {0, 2, 3}


def test_small_gap_is_not_fully_cleaved(refs12, pots_soft):
    ct = build_cleaved(12, 4, refs12.mu_us + 0.004, pots_soft)
    assert not ct.fully_cleaved
    assert ct.bond_deficit < 4 * 12


def test_zero_shift_reproduces_unstretched_tube(refs12, pots_soft):
    ct = build_cleaved(12, 4, refs12.mu_us, pots_soft)
    assert not ct.fully_cleaved
    base = build_nanotube(solve_family(12, refs12.mu_us, 1.0, 1.0), 4)
    assert np.allclose(np.sort(ct.tube.positions, axis=0), np.sort(base.positions, axis=0), atol=1e-12)
    assert ct.bond_deficit == 0
    assert ct.measured_energy == pytest.approx(ct.base_energy, abs=1e-9)


def test_odd_m_rejected(refs12, pots_soft):
    with pytest.raises(InvalidParameterError):
        build_cleaved(12, 5, refs12.mu_us + 0.1, pots_soft)


def test_mu_below_unstretched_rejected(refs12, pots_soft):
    with pytest.raises(InvalidParameterError):
        build_cleaved(12, 4, refs12.mu_us - 0.01, pots_soft)


def test_threshold_matches_crossing_equation(refs12, pots_soft):
    # the scan must agree with the root of 4*ell = E_min(mu) - E_min(mu_us)
    for row in fracture_scaling(12, [4, 8], pots_soft)["rows"]:
        m = row["m"]
        e0 = minimize_family(refs12.mu_us, 12, pots_soft, m=m).energy

        def f(mu):
            return minimize_family(mu, 12, pots_soft, m=m).energy - e0 - 48.0

        root = brentq(f, refs12.mu_us + 1e-6, min(refs12.mu_us + 0.12, 3.1 - 1e-9), xtol=1e-10)
        assert abs(row["mu_frac"] - root) <= 1e-5


def test_energy_comparison_identity(refs12, pots_soft):
    # E(cleaved) - E(optimal at mu) = 4*ell + E_min(mu_us) - E_min(mu)
    m, mu = 8, refs12.mu_us + 0.03
    e_cleaved = family_energy(solve_family(12, refs12.mu_us, 1.0, 1.0), m, pots_soft) + 4 * 12
    lhs = e_cleaved - minimize_family(mu, 12, pots_soft, m=m).energy
    rhs = (
        4 * 12
        + minimize_family(refs12.mu_us, 12, pots_soft, m=m).energy
        - minimize_family(mu, 12, pots_soft, m=m).energy
    )
    assert abs(lhs - rhs) <= 1e-8 * (4 * m * 12)


def test_scaling_exponent(pots_soft):
    rep = fracture_scaling(12, [4, 8, 16, 32, 64], pots_soft)
    assert rep["slope"] == pytest.approx(-0.5, abs=0.1)
    offset_sqrt_m = [r["offset_sqrt_m"] for r in rep["rows"]]
    assert np.ptp(offset_sqrt_m) < 0.05 * np.mean(offset_sqrt_m)


def test_scaling_exponent_stable_under_doubling_ell(pots_soft):
    rep = fracture_scaling(24, [4, 16, 64], pots_soft)
    assert rep["slope"] == pytest.approx(-0.5, abs=0.1)


def test_window_too_small(pots_soft):
    with pytest.raises(WindowTooSmallError):
        fracture_scaling(12, [4, 8], pots_soft, window=0.01)


def test_halves_are_stable_tubes(refs12, pots_soft):
    # each half of the cleaved state is an unstretched tube; its periodic
    # idealization passes the perturbation ensemble and has no unstable modes
    rep = stability_trial(refs12.mu_us, 12, 2, PerturbationSpec(eta=1e-3, seed=3, count=20), pots_soft)
    assert rep["n_failures"] == 0 and rep["min_gap"] > 0.0
    fam = minimize_family(refs12.mu_us, 12, pots_soft, m=2)
    tube = build_nanotube(fam.geometry, 2)
    nrep = null_space_report(tube, pots_soft)
    assert nrep["n_negative"] == 0 and nrep["rest_positive"]


M_LIST = [4, 8, 16, 32, 64, 128, 256]


@pytest.mark.parametrize("ell", [12, 24])
def test_one_curve_thresholds_match_scan_oracle(pots_soft, ell):
    rep = fracture_scaling(ell, M_LIST, pots_soft)
    for row in rep["rows"]:
        assert abs(row["mu_frac"] - fracture_threshold_scan(ell, row["m"], pots_soft)) <= 1e-6


def test_unit_bond_tube_energy_is_the_reduced_curve_at_mu_us(refs12, pots_soft):
    # the cleaved-state bookkeeping and the e(mu) curve share this value
    g = gamma(12)
    e_us = reduced_energy(refs12.mu_us, g, g, pots_soft)[0]
    for m in (4, 64, 256):
        unit = family_energy(solve_family(12, refs12.mu_us, 1.0, 1.0), m, pots_soft)
        assert abs(unit - 2 * m * 12 * e_us) <= 1e-14 * abs(unit)


def test_offset_sqrt_m_tends_to_curvature_limit(refs12, pots_soft):
    # e(mu) - e(mu_us) ~ e''(mu_us) (mu - mu_us)^2 / 2 = 2/m near mu_us
    g = gamma(12)
    limit = 2.0 / np.sqrt(reduced_hessian(refs12.mu_us, g, g, pots_soft)[0, 0])
    row = fracture_scaling(12, [128, 256], pots_soft)["rows"][1]
    assert abs(row["offset_sqrt_m"] - limit) <= 1e-4 * limit


@pytest.mark.parametrize("m_list", [[4], [4, 4]])
def test_scaling_needs_two_distinct_m(pots_soft, m_list):
    with pytest.raises(InvalidParameterError):
        fracture_scaling(12, m_list, pots_soft)


def test_threshold_rejects_nonpositive_m(pots_soft):
    with pytest.raises(InvalidParameterError):
        fracture_scaling(12, [0, 4], pots_soft)


def test_scaling_reports_solver_diagnostics(pots_soft):
    rep = fracture_scaling(12, [4, 16, 64], pots_soft)
    assert rep["newton_iterations"] > 0
    assert 0.0 <= rep["max_kkt_residual"] <= 1e-12
    again = fracture_scaling(12, [4, 16, 64], pots_soft)
    assert (again["newton_iterations"], again["max_kkt_residual"]) == (rep["newton_iterations"], rep["max_kkt_residual"])
    assert [r["mu_frac"] for r in again["rows"]] == [r["mu_frac"] for r in rep["rows"]]


def test_uncleaved_tube_is_the_family_tube(pots_soft, refs12):
    # at mu = mu_us the gap is 0, and the cleaved tube's positions are those
    # of build_nanotube from the one position formula, to the bit
    ct = build_cleaved(12, 4, refs12.mu_us, pots_soft)
    assert not ct.fully_cleaved and ct.bond_deficit < 4 * 12
    tube = build_nanotube(solve_family(12, refs12.mu_us, 1.0, 1.0), 4)
    assert ct.gap == 0.0 and ct.tube.period == tube.period
    assert np.array_equal(ct.tube.positions, tube.positions)
