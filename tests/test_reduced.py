import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle import (
    beta_clip,
    minimize_family_direct,
    minimizer_derivative_fd,
    reduced_energy_scalar,
    reduced_hessian_fd,
    reference_angles_capped,
)

from nanolab.errors import DomainError, InvalidParameterError, OptimizationFailureError
from nanolab.geometry import build_nanotube, gamma
from nanolab.energy import total_energy
from nanolab import potentials
from nanolab.potentials import PotentialSet
import nanolab.reduced as reduced_module
from nanolab.acceptance import radius_trend, reduced_hessian_anchor
from nanolab.reduced import (
    ALPHA_HI,
    ALPHA_LO,
    GRAD_TOL,
    ReducedPoint,
    _pinned,
    _sym_grad_hess,
    beta,
    beta_derivatives,
    family_minima,
    minimize_family,
    reduced_energy,
    reduced_hessian,
    reduced_solve,
    reference_angles,
    sym_energy,
)

TP = 2.0 * np.pi / 3.0


def test_beta_reference_value():
    assert beta(TP, np.pi) == pytest.approx(TP, abs=1e-14)


def test_beta_derivatives_domain_error():
    # the arcsin argument reaches 1 at (pi/2, pi) and the derivative formulas
    # degenerate there
    with pytest.raises(DomainError):
        beta_derivatives(np.pi / 2, np.pi)


def test_beta_derivative_anchors():
    da, dg, daa, dgg, dag = beta_derivatives(TP, np.pi)
    assert da == pytest.approx(-2.0, abs=1e-8)
    assert dg == pytest.approx(0.0, abs=1e-8)
    assert daa == pytest.approx(0.0, abs=1e-8)
    assert dgg == pytest.approx(-np.sqrt(3.0) / 2.0, abs=1e-8)
    assert dag == pytest.approx(0.0, abs=1e-8)


def test_beta_derivatives_match_finite_differences():
    a0, g0 = 2.05, 2.92
    da, dg, daa, dgg, dag = beta_derivatives(a0, g0)
    h = 1e-5
    assert da == pytest.approx((beta(a0 + h, g0) - beta(a0 - h, g0)) / (2 * h), abs=1e-5)
    assert dg == pytest.approx((beta(a0, g0 + h) - beta(a0, g0 - h)) / (2 * h), abs=1e-5)
    h = 1e-4
    assert daa == pytest.approx((beta(a0 + h, g0) - 2 * beta(a0, g0) + beta(a0 - h, g0)) / h**2, abs=1e-5)
    assert dgg == pytest.approx((beta(a0, g0 + h) - 2 * beta(a0, g0) + beta(a0, g0 - h)) / h**2, abs=1e-5)
    cross = (
        beta(a0 + h, g0 + h) - beta(a0 + h, g0 - h) - beta(a0 - h, g0 + h) + beta(a0 - h, g0 - h)
    ) / (4 * h**2)
    assert dag == pytest.approx(cross, abs=1e-5)


def test_beta_gamma_slope_large_ell_limit():
    for ell in (64, 128):
        dg = beta_derivatives(TP, gamma(ell))[1]
        assert ell * dg == pytest.approx(np.sqrt(3.0) / 2.0 * np.pi, rel=2e-3)
    d64 = 64 * beta_derivatives(TP, gamma(64))[1]
    d128 = 128 * beta_derivatives(TP, gamma(128))[1]
    target = np.sqrt(3.0) / 2.0 * np.pi
    assert abs(d128 - target) < abs(d64 - target)


def test_sym_energy_reference_point(pots_soft, pots_stiff):
    pt = ReducedPoint(3.0, np.pi, np.pi, 1.0, TP, TP)
    assert sym_energy(pt, pots_soft) == pytest.approx(-3.0, abs=1e-12)
    assert sym_energy(pt, pots_stiff) == pytest.approx(-3.0, abs=1e-12)


def test_sym_energy_symmetric_in_angle_gamma_pairs(pots_soft):
    a = ReducedPoint(2.98, 2.9, 3.0, 1.01, 2.05, 2.10)
    b = ReducedPoint(2.98, 3.0, 2.9, 1.01, 2.10, 2.05)
    assert sym_energy(a, pots_soft) == pytest.approx(sym_energy(b, pots_soft), abs=1e-14)


def test_reduced_energy_anchor(pots_soft, pots_stiff):
    for pots in (pots_soft, pots_stiff):
        val, (lam, a1, a2) = reduced_energy(3.0, np.pi, np.pi, pots)
        assert val == pytest.approx(-3.0, abs=1e-9)
        assert lam == pytest.approx(1.0, abs=1e-9)
        assert a1 == pytest.approx(TP, abs=1e-9)
        assert a2 == pytest.approx(TP, abs=1e-9)


def test_reduced_energy_gamma_swap_symmetry(pots_soft):
    v1, m1 = reduced_energy(2.99, 2.93, 3.01, pots_soft)
    v2, m2 = reduced_energy(2.99, 3.01, 2.93, pots_soft)
    assert v1 == pytest.approx(v2, abs=1e-12)
    assert m1[1] == pytest.approx(m2[2], abs=1e-10)
    assert m1[2] == pytest.approx(m2[1], abs=1e-10)


def test_equal_gammas_give_equal_alphas(pots_soft):
    _, (lam, a1, a2) = reduced_energy(2.99, 2.95, 2.95, pots_soft)
    assert a1 == pytest.approx(a2, abs=1e-12)


def test_first_order_optimality_residual(pots_soft):
    for mu, g1, g2 in [(2.99, 2.95, 2.95), (2.98, 2.9, 3.0), (3.0, np.pi, np.pi)]:
        _, x = reduced_energy(mu, g1, g2, pots_soft)
        g, _ = _sym_grad_hess(ReducedPoint(mu, g1, g2, *x), pots_soft)
        assert np.max(np.abs(g[3:])) < 1e-10


def test_reference_angles_ordering(pots_soft):
    for ell in (10, 20, 40):
        refs = reference_angles(ell, pots_soft)
        assert refs.alpha_ch < refs.alpha_us < TP
        assert refs.mu_us == pytest.approx(2.0 - 2.0 * np.cos(refs.alpha_us), abs=1e-14)
        # the fixed point definition beta(alpha_ch, gamma_ell) = alpha_ch
        assert beta(refs.alpha_ch, gamma(ell)) == pytest.approx(refs.alpha_ch, abs=1e-11)


def test_alpha_us_gap_scales_like_inverse_square(pots_soft):
    ells = np.array([16, 32, 64, 128], dtype=float)
    gaps = np.array([TP - reference_angles(int(l), pots_soft).alpha_us for l in ells])
    slope = np.polyfit(np.log(ells), np.log(gaps), 1)[0]
    assert slope == pytest.approx(-2.0, abs=0.2)


def test_reference_angles_rejects_small_ell(pots_soft):
    with pytest.raises(InvalidParameterError):
        reference_angles(3, pots_soft)


def test_minimize_family_total_energy_identity(pots_soft):
    fam = minimize_family(2.99, 10, pots_soft, m=3)
    tube = build_nanotube(fam.geometry, 3)
    per_cell, _ = reduced_energy(2.99, gamma(10), gamma(10), pots_soft)
    assert fam.energy == pytest.approx(2 * 3 * 10 * per_cell, abs=1e-12)
    assert total_energy(tube, pots_soft) == pytest.approx(fam.energy, abs=1e-9 * tube.n)


def test_minimize_family_matches_brute_force(pots_soft):
    fam = minimize_family(2.99, 12, pots_soft, m=2)
    l1, l2, e = minimize_family_direct(2.99, 12, pots_soft, m=2, resolution=2e-3)
    assert e == pytest.approx(fam.energy, abs=1e-8)
    assert l1 == pytest.approx(fam.geometry.lambda1, abs=1e-5)
    assert l2 == pytest.approx(fam.geometry.lambda2, abs=1e-5)


def test_unit_bonds_at_unstretched_period(pots_soft, pots_stiff):
    for pots in (pots_soft, pots_stiff):
        refs = reference_angles(12, pots)
        geom = minimize_family(refs.mu_us, 12, pots).geometry
        assert geom.lambda1 == pytest.approx(1.0, abs=1e-9)
        assert geom.lambda2 == pytest.approx(1.0, abs=1e-9)


def test_bond_lengths_follow_stretch_sign(pots_soft):
    refs = reference_angles(12, pots_soft)
    above = minimize_family(refs.mu_us + 0.01, 12, pots_soft).geometry
    below = minimize_family(refs.mu_us - 0.01, 12, pots_soft).geometry
    assert above.lambda1 > 1.0 and above.lambda2 > 1.0
    assert below.lambda1 < 1.0 and below.lambda2 < 1.0


def test_reduced_energy_increasing_above_mu_us(pots_soft):
    refs = reference_angles(16, pots_soft)
    g = gamma(16)
    mus = np.linspace(refs.mu_us, refs.mu_us + 0.02, 9)
    vals = [reduced_energy(float(mu), g, g, pots_soft)[0] for mu in mus]
    assert np.all(np.diff(vals) > 0.0)


def test_reduced_gradient_matches_fd(pots_soft):
    mu, g1, g2 = 2.99, 2.95, 2.97
    grad = reduced_solve(mu, g1, g2, pots_soft).grad[0, :3]
    h = 1e-6
    fd_mu = (reduced_energy(mu + h, g1, g2, pots_soft)[0] - reduced_energy(mu - h, g1, g2, pots_soft)[0]) / (2 * h)
    fd_g1 = (reduced_energy(mu, g1 + h, g2, pots_soft)[0] - reduced_energy(mu, g1 - h, g2, pots_soft)[0]) / (2 * h)
    assert grad[0] == pytest.approx(fd_mu, abs=1e-7)
    assert grad[1] == pytest.approx(fd_g1, abs=1e-7)


def _solve_at_mu_us(ell, pots, gamma1, gamma2):
    return reduced_solve(reference_angles(ell, pots).mu_us, gamma1, gamma2, pots)


def test_verify_reduced_hessian_anchor():
    # d2E/dmu2 at (mu_us, gamma_ell, gamma_ell) within 10/ell of the anchor,
    # with a positive definite reduced Hessian there
    rep = reduced_hessian_anchor((64,), 0)
    assert rep["passed"]
    assert abs(rep["anchor_ratio"][0] - 1.0) <= 10.0 / 64.0
    assert np.all(rep["eigenvalues"][0] > 0.0)


def test_verify_reduced_hessian_positive_definite_both_presets(pots_soft, pots_stiff):
    # positive definite for both presets; at equal gammas the two gamma
    # directions are symmetric and the energy falls as either gamma opens
    for pots in (pots_soft, pots_stiff):
        for ell in (32, 64):
            sol = _solve_at_mu_us(ell, pots, gamma(ell), gamma(ell))
            hess = sol.envelope_hessian()[0]
            assert np.all(np.linalg.eigvalsh(hess) > 0.0)
            assert abs(hess[1, 1] - hess[2, 2]) <= 1e-8
            assert sol.grad[0, 1] < 0.0 and sol.grad[0, 2] < 0.0


def test_anchor_ratio_decays_like_inverse_ell():
    rep = reduced_hessian_anchor((32, 64, 128), 0)
    assert rep["passed"]
    devs = [abs(r - 1.0) for r in rep["anchor_ratio"]]
    assert devs[0] <= 10.0 / 32.0
    assert devs[1] < devs[0] or devs[1] < 1e-3
    assert devs[2] < devs[0]


def test_gamma_split_raises_reduced_energy(pots_soft):
    # splitting (gamma, gamma) into (gamma1, gamma2) at the same mean costs
    # energy of order (gamma1 - gamma2)^2 / ell^2: the split constant is positive
    for ell in (32, 64):
        g = gamma(ell)
        eps = min(0.01, 0.25 * (np.pi - g))
        d = np.random.default_rng(ell).uniform(-eps, eps, size=(24, 2))
        d = d[np.abs(d[:, 0] - d[:, 1]) >= 1e-4]
        g1, g2 = g + d[:, 0], g + d[:, 1]
        split = _solve_at_mu_us(ell, pots_soft, g1, g2).value
        even = _solve_at_mu_us(ell, pots_soft, 0.5 * (g1 + g2), 0.5 * (g1 + g2)).value
        assert np.min((split - even) * ell**2 / (g1 - g2) ** 2) > 0.0


def test_verified_convexity_box_reported(pots_soft):
    # the reduced Hessian is positive definite at every corner of the box
    # mu_us +- eps, gamma_ell +- eps around the reference point
    ell = 32
    g = gamma(ell)
    mu0 = reference_angles(ell, pots_soft).mu_us
    eps = min(0.01, 0.25 * (np.pi - g))
    corners = np.array([(mu0 + a, g + b, g + c) for a in (-eps, eps) for b in (-eps, eps) for c in (-eps, 0.0)])
    hess = reduced_solve(corners[:, 0], corners[:, 1], corners[:, 2], pots_soft).envelope_hessian()
    assert np.all(np.linalg.eigvalsh(hess)[:, 0] > 0.0)


def test_minimizer_properties_report():
    # on a 9-point mu grid around mu_us: E_min is convex with its grid argmin
    # at mu_us, both bond lengths grow with mu, and alpha_ch < alpha < 2pi/3
    # at mu_us
    for preset, window in (("soft", 0.01), ("stiff", 0.005)):
        pots = potentials.load(preset)
        refs = reference_angles(16, pots)
        mus = np.linspace(refs.mu_us - window, refs.mu_us + window, 9)
        fams, _ = family_minima(mus, 16, pots)
        emin = np.array([f.energy for f in fams])
        assert np.all(np.diff(emin, 2) > 0.0)
        assert np.argmin(emin) == 4
        assert np.all(np.diff([f.geometry.lambda1 for f in fams]) > 0.0)
        assert np.all(np.diff([f.geometry.lambda2 for f in fams]) > 0.0)
        assert refs.alpha_ch < fams[4].alpha < TP


def test_radius_trend_flips_for_stiff():
    rep = radius_trend(None, 0)
    assert rep["passed"]
    assert rep["drho_dmu_at_mu_us"]["soft"] > 0.0
    assert rep["drho_dmu_at_mu_us"]["stiff"] < 0.0


def test_radius_trend_matches_central_difference():
    # the closed-form drho/dmu of the battery row against a central
    # difference of the family minimizer's radius
    rep = radius_trend(None, 0)
    h = 1e-4
    for preset in ("soft", "stiff"):
        pots = potentials.load(preset)
        mu0 = reference_angles(16, pots).mu_us
        fams, _ = family_minima([mu0 + h, mu0 - h], 16, pots)
        fd = (fams[0].geometry.rho - fams[1].geometry.rho) / (2.0 * h)
        drho = rep["drho_dmu_at_mu_us"][preset]
        assert abs(drho - fd) <= 1e-8 * abs(fd)


class _FarPair:
    """Pair potential with its minimum at bond length 1.2, outside the box."""

    def value(self, r):
        return 400.0 * (np.asarray(r, dtype=float) - 1.2) ** 2 - 1.0

    def deriv(self, r):
        return 800.0 * (np.asarray(r, dtype=float) - 1.2)

    def deriv2(self, r):
        return 800.0 * np.ones_like(np.asarray(r, dtype=float))


def test_minimizer_leaving_the_box_is_pinned_at_its_bound(pots_soft):
    # a pair potential preferring bond length 1.2 pulls lambda beyond the box,
    # so the solver pins it at the upper edge and marks it not free
    pots = PotentialSet(_FarPair(), pots_soft.v3)
    sol = reduced_solve(2.9, np.pi, np.pi, pots)
    assert not sol.free[0, 0]
    assert sol.x[0, 0] == pytest.approx(1.1, abs=1e-9)


@pytest.mark.parametrize(
    "ell, mu_offset, d1, d2",
    [(16, 0.0, 0.0, 0.0), (16, 0.01, 0.005, -0.003), (64, -0.02, 0.0, 0.0), (64, 0.02, -0.004, 0.006)],
)
def test_reduced_hessian_matches_fd_oracle(pots_soft, ell, mu_offset, d1, d2):
    g = gamma(ell)
    pt = (reference_angles(ell, pots_soft).mu_us + mu_offset, g + d1, g + d2)
    h = reduced_hessian(*pt, pots_soft)
    assert np.max(np.abs(h - reduced_hessian_fd(*pt, pots_soft))) <= 1e-8 * np.max(np.abs(h))


def test_reduced_hessian_with_lambda_pinned(pots_soft):
    # lambda sits at the box bound, so the envelope runs over the alphas only
    pots = PotentialSet(_FarPair(), pots_soft.v3)
    for pt in [(2.9, np.pi, np.pi), (2.92, np.pi - 0.01, np.pi - 0.02)]:
        assert reduced_energy(*pt, pots)[1][0] == 1.1
        h = reduced_hessian(*pt, pots)
        assert np.max(np.abs(h - reduced_hessian_fd(*pt, pots))) <= 1e-8 * np.max(np.abs(h))


@settings(max_examples=20)
@given(
    preset=st.sampled_from(["soft", "stiff"]),
    ell=st.integers(16, 64),
    mu=st.floats(2.95, 3.08),
    d1=st.floats(-0.01, 0.01),
    d2=st.floats(-0.01, 0.01),
    split=st.booleans(),
)
def test_minimizer_derivative_matches_fd_oracle(preset, ell, mu, d1, d2, split):
    g = gamma(ell)
    pt = (mu, g + d1, g + (d2 if split else d1))
    pots = potentials.load(preset)
    deriv = reduced_solve(*pt, pots).minimizer_derivative()[0]
    assert np.max(np.abs(deriv - minimizer_derivative_fd(*pt, pots))) <= 1e-8 * np.max(np.abs(deriv))


def test_minimizer_derivative_pinned_rows_are_zero(pots_soft, pots_stiff):
    # a variable at its box bound stays there: its row is exactly 0.  The
    # far-minimum pair potential pins lambda; at stiff ell = 12 and mu below
    # about 2.79 both alphas are pinned
    g = gamma(12)
    cases = [
        (PotentialSet(_FarPair(), pots_soft.v3), (2.9, np.pi, np.pi), [False, True, True]),
        (PotentialSet(_FarPair(), pots_soft.v3), (2.92, np.pi - 0.01, np.pi - 0.02), [False, True, True]),
        (pots_stiff, (2.70, g + 0.01, g - 0.005), [True, False, False]),
    ]
    for pots, pt, free in cases:
        sol = reduced_solve(*pt, pots)
        assert sol.free[0].tolist() == free
        deriv = sol.minimizer_derivative()[0]
        assert np.all(deriv[~sol.free[0]] == 0.0)
        assert np.max(np.abs(deriv - minimizer_derivative_fd(*pt, pots))) <= 1e-8 * np.max(np.abs(deriv))


def test_newton_stops_at_round_off_floor(pots_soft, monkeypatch):
    # Newton 2-cycles here between neighbouring floats whose KKT residuals
    # (about 1.0e-12 and 1.2e-12) straddle grad_tol; one ulp of alpha moves
    # the gradient by about 1.7e-12
    g = gamma(64)
    pt = (2.990860220598413, g + 5e-5, g)
    _, x = reduced_energy(*pt, pots_soft)
    grad, hess = _sym_grad_hess(ReducedPoint(*pt, *x), pots_soft)
    x, grad, hess = np.array(x), grad[3:], hess[3:, 3:]
    free = ~_pinned(x, grad)
    floor = np.max(np.abs(hess[np.ix_(free, free)]) @ np.spacing(np.abs(x[free])))
    assert np.max(np.abs(grad[free])) <= floor
    monkeypatch.setattr(reduced_module, "MAX_ITER", 2)
    with pytest.raises(OptimizationFailureError):
        reduced_energy(*pt, pots_soft)


# the mu of the sweep benchmark's one-point Newton probe at ell = 64
NEWTON_PROBE_MU = 2.990860220598413


def _assert_matches_scalar_oracle(points, pots):
    sol = reduced_solve(points[:, 0], points[:, 1], points[:, 2], pots)
    for i, pt in enumerate(points):
        value, x = reduced_energy_scalar(*pt, pots)
        assert abs(sol.value[i] - value) <= 1e-13 * abs(value)
        assert np.max(np.abs(sol.x[i] - x)) <= 1e-10


@settings(max_examples=25)
@given(
    ell=st.integers(16, 64),
    draws=st.lists(
        st.tuples(st.floats(2.95, 3.08), st.floats(-0.01, 0.01), st.floats(-0.01, 0.01), st.booleans()),
        min_size=1,
        max_size=6,
    ),
    pinned=st.booleans(),
)
@example(ell=64, draws=[(NEWTON_PROBE_MU, 0.0, 0.0, False), (NEWTON_PROBE_MU, 5e-5, 0.0, True)], pinned=False)
def test_batched_solve_matches_scalar_oracle(pots_soft, ell, draws, pinned):
    # one batched solve over random points (equal or split gammas) against the
    # one-point-at-a-time scalar loop; with the far-minimum pair potential
    # lambda is pinned at the box bound
    g = gamma(ell)
    points = np.array([(mu, g + d1, g + (d2 if split else d1)) for mu, d1, d2, split in draws])
    pots = PotentialSet(_FarPair(), pots_soft.v3) if pinned else pots_soft
    _assert_matches_scalar_oracle(points, pots)


def test_batched_solve_reports_per_point_diagnostics(pots_soft):
    g = gamma(32)
    mus = np.array([3.0, 2.97, 3.02, 3.0])
    sol = reduced_solve(mus, g, g, pots_soft)
    assert sol.x.shape == (4, 3) and sol.grad.shape == (4, 6) and sol.hess.shape == (4, 6, 6)
    assert np.all(sol.iterations >= 1)
    assert sol.iterations[0] == sol.iterations[3]
    # the residual is the largest free gradient component at the minimizer
    kkt = np.max(np.where(sol.free, np.abs(sol.grad[:, 3:]), 0.0), axis=1)
    assert np.array_equal(sol.residual, kkt)
    assert np.all(sol.residual <= GRAD_TOL)
    # each point's derivatives are those of sym_energy at its minimizer
    g6, h6 = _sym_grad_hess(ReducedPoint(mus[1], g, g, *sol.x[1]), pots_soft)
    assert np.array_equal(sol.grad[1], g6) and np.array_equal(sol.hess[1], h6)


def test_batched_envelope_hessian_matches_one_point_calls(pots_soft, pots_stiff):
    g = gamma(24)
    pts = np.array([(2.99, g, g), (3.01, g + 0.004, g - 0.002), (2.97, g - 0.003, g)])
    hess = reduced_solve(pts[:, 0], pts[:, 1], pts[:, 2], pots_soft).envelope_hessian()
    for h, pt in zip(hess, pts):
        assert np.array_equal(h, reduced_hessian(*pt, pots_soft))
    # two free patterns in one batch: at stiff ell = 12 both alphas are pinned
    # at their bound for mu up to about 2.79, and nothing is pinned above
    g = gamma(12)
    mus = np.linspace(2.62, 3.09, 12)
    split = [(2.70, g + 0.01, g - 0.005), (2.75, g - 0.004, g + 0.002), (3.0, g - 0.004, g + 0.002)]
    pts = np.concatenate([np.stack([mus, np.full(12, g), np.full(12, g)], axis=1), split])
    sol = reduced_solve(pts[:, 0], pts[:, 1], pts[:, 2], pots_stiff)
    ones = [reduced_solve(*pt, pots_stiff) for pt in pts]
    assert {tuple(f) for f in sol.free.tolist()} == {(True, False, False), (True, True, True)}
    hess = sol.envelope_hessian()
    for i, one in enumerate(ones):
        for field in ("value", "x", "iterations", "residual", "free"):
            assert _same_bits(getattr(sol, field)[i], getattr(one, field)[0]), (i, field)
        assert _same_bits(hess[i], one.envelope_hessian()[0]), i


def test_family_minima_matches_minimize_family(pots_soft):
    mus = [2.98, 2.995, 3.01]
    fams, sol = family_minima(mus, 12, pots_soft, m=3)
    for mu, fam in zip(mus, fams):
        one = minimize_family(mu, 12, pots_soft, m=3)
        assert (fam.geometry, fam.alpha, fam.energy) == (one.geometry, one.alpha, one.energy)
    assert np.array_equal([f.energy for f in fams], 2 * 3 * 12 * sol.value)


def test_batched_solve_raises_when_a_point_does_not_converge(pots_soft, monkeypatch):
    g = gamma(64)
    monkeypatch.setattr(reduced_module, "MAX_ITER", 2)
    with pytest.raises(OptimizationFailureError):
        reduced_solve([3.0, NEWTON_PROBE_MU], [g, g + 5e-5], [g, g], pots_soft)
    # a NaN residual never passes the GRAD_TOL exit
    real = reduced_module._sym_grad_hess

    def nan_gradient(pt, pots):
        grad, hess = real(pt, pots)
        return np.full_like(grad, np.nan), hess

    monkeypatch.setattr(reduced_module, "MAX_ITER", 5)
    monkeypatch.setattr(reduced_module, "_sym_grad_hess", nan_gradient)
    with pytest.raises(OptimizationFailureError):
        reduced_solve(3.0, g, g, pots_soft)


@pytest.mark.parametrize("field", [0, 1, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_batched_solve_rejects_non_finite_input(pots_soft, field, bad):
    point = [[3.0, 3.0], [gamma(64)] * 2, [gamma(64)] * 2]
    point[field][1] = bad
    name = ("mu", "gamma1", "gamma2")[field]
    with pytest.raises(InvalidParameterError, match=f"^{name} must be finite, got {bad}$"):
        reduced_solve(*point, pots_soft)


def _same_bits(a, b) -> bool:
    """Same type, shape and bytes: NaN equals NaN, -0.0 differs from 0.0."""
    return type(a) is type(b) and np.shape(a) == np.shape(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


_ANGLES = st.one_of(
    st.floats(-10.0, 10.0),
    st.sampled_from([np.nan, 0.0, -0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi, TP]),
)


@settings(max_examples=80)
@given(alpha=st.lists(_ANGLES, min_size=1, max_size=6), gam=st.lists(_ANGLES, min_size=1, max_size=6),
       shape=st.sampled_from(["scalar", "array", "array-scalar", "scalar-array"]))
@example(alpha=[-0.0, 0.0, np.nan], gam=[np.pi, -0.0, 1.0], shape="array")
@example(alpha=[-0.0], gam=[np.pi], shape="scalar")
@example(alpha=[np.nan], gam=[1.0], shape="scalar")
def test_beta_equals_clip_oracle(alpha, gam, shape):
    n = min(len(alpha), len(gam))
    a = alpha[0] if shape.startswith("scalar") else np.array(alpha[:n])
    g = gam[0] if shape.endswith("scalar") else np.array(gam[:n])
    assert _same_bits(beta(a, g), beta_clip(a, g))


@pytest.mark.parametrize("preset", ["soft", "stiff", "json"])
def test_reference_angles_equal_capped_oracle(preset):
    # the polish alternates between two floats for 9 of the 792 (ell, preset)
    # pairs of ell 4 .. 399 x {soft, stiff}, all soft (ell = 7, 11, 12, 95,
    # ...); the library stops there and must still return the iterate the
    # 60-step cap ends on
    doc = {"name": "custom", "k2": 300.0, "k3": 120.0, "cutoff_lo": 1.04, "cutoff_hi": 1.09}
    pots = potentials.from_json(doc) if preset == "json" else potentials.load(preset)
    for ell in range(4, 400):
        got, want = reference_angles(ell, pots), reference_angles_capped(ell, pots)
        for field in dataclasses.fields(got):
            if field.name == "alpha_ch":
                # closed form against bisection: equal within the bracket width
                assert abs(got.alpha_ch - want.alpha_ch) <= 1e-13, ell
            else:
                assert _same_bits(getattr(got, field.name), getattr(want, field.name)), (ell, field.name)


def test_alpha_ch_is_fixed_point_to_the_ulp(pots_soft):
    for ell in range(4, 400):
        a = reference_angles(ell, pots_soft).alpha_ch
        assert abs(beta(a, gamma(ell)) - a) <= 4 * np.spacing(a), ell


def test_reference_angles_polish_stops_at_two_cycle(pots_soft, monkeypatch):
    # the polish makes one beta_derivatives call per Newton step; at soft
    # ell = 12, one of the cycling pairs, it stops after a few steps where
    # the 60-step cap would have it alternate to the end
    calls = []
    real = reduced_module.beta_derivatives
    monkeypatch.setattr(reduced_module, "beta_derivatives", lambda *a: calls.append(1) or real(*a))
    refs = reference_angles(12, pots_soft)
    assert len(calls) <= 4
    assert _same_bits(refs.alpha_us, reference_angles_capped(12, pots_soft).alpha_us)
