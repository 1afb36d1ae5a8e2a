"""Acceptance battery: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (run pytest with -s to see them inline)."""

import json
import time

import numpy as np
import pytest

from nanolab import cells, cellspec, fracture, potentials, reduced, stability
from nanolab.cli import main as cli_main
from nanolab.energy import bond_graph, family_energy, total_energy
from nanolab.geometry import build_nanotube, solve_family

TP = 2.0 * np.pi / 3.0


def _report(num: int, ok: bool, desc: str) -> bool:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {desc}")
    return ok


@pytest.fixture(scope="module")
def soft():
    return potentials.default_soft()


@pytest.fixture(scope="module")
def stiff():
    return potentials.default_stiff()


@pytest.fixture(scope="module")
def refs12(soft):
    return reduced.reference_angles(12, soft)


@pytest.fixture(scope="module")
def base12(soft, refs12):
    fam = reduced.minimize_family(refs12.mu_us, 12, soft, m=4)
    tube = build_nanotube(fam.geometry, 4)
    return fam, tube, bond_graph(tube)


@pytest.fixture(scope="module")
def ensemble12(base12, soft):
    _, tube, _ = base12
    spec = stability.PerturbationSpec(eta=1e-3, seed=2024, count=100)
    band = stability.BondBand(tube, spec.eta)
    samples = []
    for trial in range(spec.count):
        sample, g, _ = stability.sample_perturbation(tube, spec, trial=trial, band=band)
        samples.append((sample, g))
    return samples


def test_criterion_01_closed_form_identity(soft):
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(10):
        ell = int(rng.integers(5, 13))
        mu = float(rng.uniform(2.7, 3.05))
        l1 = float(rng.uniform(0.92, 1.08))
        l2 = float(rng.uniform(max(0.901, mu / 2 - l1 + 1e-3), 1.099))
        m = int(rng.integers(1, 4))
        geom = solve_family(ell, mu, l1, l2)
        tube = build_nanotube(geom, m)
        diff = abs(total_energy(tube, soft) - family_energy(geom, m, soft))
        worst = max(worst, diff / (1e-9 * tube.n))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 and elapsed < 1.0
    assert _report(1, ok, f"closed-form energy identity (worst {worst:.3g} of tol, {elapsed:.2f}s)")


def test_criterion_02_beta_derivative_anchors():
    da, dg, _, dgg, _ = reduced.beta_derivatives(TP, np.pi)
    h = 1e-4
    fd_da = (reduced.beta(TP + h, np.pi) - reduced.beta(TP - h, np.pi)) / (2 * h)
    fd_dg = (reduced.beta(TP, np.pi + h) - reduced.beta(TP, np.pi - h)) / (2 * h)
    fd_dgg = (reduced.beta(TP, np.pi + h) - 2 * reduced.beta(TP, np.pi) + reduced.beta(TP, np.pi - h)) / h**2
    ok = (
        abs(da + 2.0) <= 1e-8
        and abs(dg) <= 1e-8
        and abs(dgg + np.sqrt(3) / 2) <= 1e-8
        and abs(fd_da - (-2.0)) <= 1e-5
        and abs(fd_dg) <= 1e-5
        and abs(fd_dgg - (-np.sqrt(3) / 2)) <= 1e-5
    )
    assert _report(2, ok, f"bond-angle map derivative anchors ({da:.10f}, {dg:.2e}, {dgg:.10f})")


def test_criterion_03_reduced_energy_anchor(soft, stiff):
    ok = True
    for pots in (soft, stiff):
        val, (lam, a1, a2) = reduced.reduced_energy(3.0, np.pi, np.pi, pots)
        ok &= abs(val + 3.0) <= 1e-9
        ok &= abs(lam - 1.0) <= 1e-9 and abs(a1 - TP) <= 1e-9 and abs(a2 - TP) <= 1e-9
    assert _report(3, ok, "reduced energy anchor -3 at (1, 2pi/3, 2pi/3), both presets")


def test_criterion_04_reference_angle_ordering_and_scaling(soft):
    order_ok = True
    for ell in (10, 20, 40):
        refs = reduced.reference_angles(ell, soft)
        order_ok &= refs.alpha_ch < refs.alpha_us < TP
    ells = np.array([16, 32, 64, 128], dtype=float)
    gaps = np.array([TP - reduced.reference_angles(int(l), soft).alpha_us for l in ells])
    slope = float(np.polyfit(np.log(ells), np.log(gaps), 1)[0])
    ok = order_ok and abs(slope + 2.0) <= 0.2
    assert _report(4, ok, f"angle ordering and 1/ell^2 gap scaling (slope {slope:.3f})")


def test_criterion_05_reduced_hessian_anchor(soft):
    rep64 = reduced.verify_reduced_hessian(64, soft)
    ok = abs(rep64["anchor_ratio"] - 1.0) <= 10.0 / 64.0
    for ell in (32, 64):
        rep = reduced.verify_reduced_hessian(ell, soft)
        ok &= bool(np.all(rep["eigenvalues"] > 0.0))
    assert _report(
        5, ok, f"curvature anchor 2 v2''(1)/K at ell=64 (ratio {rep64['anchor_ratio']:.5f}), Hessian PD"
    )


def test_criterion_06_cell_decomposition(ensemble12, soft):
    worst = 0.0
    for sample, graph in ensemble12:
        diff = abs(total_energy(sample, soft, graph) - cells.total_cell_energy(sample, soft))
        worst = max(worst, diff / (1e-9 * sample.n))
    ok = worst <= 1.0
    assert _report(6, ok, f"cell decomposition on 100 perturbations (worst {worst:.3g} of tol)")


def test_criterion_07_stability_monte_carlo(soft, refs12):
    t0 = time.perf_counter()
    ok = True
    gaps = {}
    for off in (0.0, 0.01):
        rep = stability.stability_trial(
            refs12.mu_us + off,
            12,
            4,
            stability.PerturbationSpec(eta=1e-3, seed=42, count=1000),
            soft,
            collect_ratios=False,
        )
        ok &= rep["n_failures"] == 0 and rep["min_gap"] > 0.0
        gaps[off] = rep["min_gap"]
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    assert _report(
        7, ok, f"2x1000 seeded trials, zero failures (min gaps {gaps[0.0]:.3g}, {gaps[0.01]:.3g}; {elapsed:.0f}s)"
    )


def test_criterion_08_hessian_null_space(soft, refs12):
    fam = reduced.minimize_family(refs12.mu_us + 0.01, 12, soft, m=4)
    tube = build_nanotube(fam.geometry, 4)
    rep = stability.null_space_report(tube, soft)
    ok = rep["n_near_null"] == 4 and rep["rest_positive"] and rep["max_principal_angle"] < 1e-3
    assert _report(
        8, ok, f"4 isometry null modes, rest positive (alignment {rep['max_principal_angle']:.2e} rad)"
    )


def test_criterion_09_kernel_dimensions():
    rep = cellspec.t_jacobian_kernel()
    ok = rep["kernel_dim"] == 11 and rep["kernel_dim_angles"] == 17 and rep["max_principal_angle"] < 1e-4
    assert _report(
        9,
        ok,
        f"bond/angle map kernels 11 and 17, span angle {rep['max_principal_angle']:.2e} rad",
    )


def test_criterion_10_cell_convexity_scaling(soft):
    rows = [cellspec.cell_hessian_convexity(ell, soft, r=0.9) for ell in (16, 32, 64)]
    ok = all(r["c_weak"] > 0.0 for r in rows)
    ells = np.array([r["ell"] for r in rows], dtype=float)
    cw = np.array([r["c_weak"] for r in rows])
    slope = float(np.polyfit(np.log(ells), np.log(cw), 1)[0])
    ok = ok and abs(slope + 2.0) <= 0.3
    assert _report(10, ok, f"constrained cell convexity positive, 1/ell^2 scaling (slope {slope:.3f})")


def test_criterion_11_fracture(soft, refs12):
    from scipy.optimize import brentq

    ct = fracture.build_cleaved(12, 16, refs12.mu_us + 0.1, soft)
    ident_ok = ct.fully_cleaved and abs(ct.energy - ct.base_energy - 48.0) <= 1e-10 * ct.tube.n
    scaling = fracture.fracture_scaling(12, [4, 8, 16, 32, 64], soft)
    slope_ok = abs(scaling["slope"] + 0.5) <= 0.1
    e0 = reduced.minimize_family(refs12.mu_us, 12, soft, m=4).energy

    def crossing(mu):
        return reduced.minimize_family(mu, 12, soft, m=4).energy - e0 - 48.0

    root = brentq(crossing, refs12.mu_us + 1e-6, min(refs12.mu_us + 0.12, 3.1 - 1e-9), xtol=1e-10)
    root_ok = abs(scaling["rows"][0]["mu_frac"] - root) <= 1e-5
    ok = ident_ok and slope_ok and root_ok
    assert _report(
        11,
        ok,
        f"cleaved energy +4ell, threshold slope {scaling['slope']:.3f}, root match "
        f"{abs(scaling['rows'][0]['mu_frac'] - root):.1e}",
    )


def test_criterion_12_radius_trend(soft, stiff):
    rep_soft = reduced.minimizer_properties(16, soft, window=0.01, n_grid=7)
    rep_stiff = reduced.minimizer_properties(16, stiff, window=0.005, n_grid=7)
    ok = rep_soft["drho_dmu_at_mu_us"] > 0.0 and rep_stiff["drho_dmu_at_mu_us"] < 0.0
    assert _report(
        12,
        ok,
        f"radius trend +{rep_soft['drho_dmu_at_mu_us']:.3f} (soft) / {rep_stiff['drho_dmu_at_mu_us']:.3f} (stiff)",
    )


def test_criterion_13_angle_sum(base12, ensemble12, soft):
    _, tube, _ = base12
    target = 4 * tube.m * (2 * tube.ell - 2) * np.pi
    base_residual = abs(cells.angle_sum(tube) - target)
    ratios = []
    for sample, _ in ensemble12[:50]:
        excess = cells.angle_sum(sample) - target
        dsum = float(np.sum(cells.symmetrize(cells.to_local(cells.gather_cells(sample)))[2]))
        ratios.append(excess / dsum)
    c_hat = max(max(ratios), 1e-12)
    ok = base_residual <= 1e-8 and c_hat > 0.0 and all(r <= c_hat for r in ratios)
    assert _report(
        13,
        ok,
        f"plane-angle sum: base residual {base_residual:.2e}, "
        f"excess/defect max {max(ratios):.3g}, reported c {c_hat:.3g}",
    )


def test_criterion_14_determinism(tmp_path):
    a = str(tmp_path / "va1.json")
    b = str(tmp_path / "va2.json")
    code1 = cli_main(["verify-all", "--quick", "--seed", "0", "-o", a])
    code2 = cli_main(["verify-all", "--quick", "--seed", "0", "-o", b])
    same = open(a, "rb").read() == open(b, "rb").read()
    ok = code1 == 0 and code2 == 0 and same
    assert _report(14, ok, "verify-all --quick exits 0 and reports are byte-identical")
    rep = json.loads(open(a).read())
    assert rep["passed"]
