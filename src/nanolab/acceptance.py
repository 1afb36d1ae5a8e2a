"""The acceptance battery: one row per check that `nanolab verify-all` reports.

Each row of CHECKS is (number, report key, function, quick size, full size).
A function takes its size and a seed and returns the check's report entry,
whose "passed" says whether the check holds.  `verify-all` runs every row at
its quick or full size; tests/test_acceptance.py runs every row at its full
size with its own seeds; `verify-cell` runs kernel_dimensions and
cell_convexity with its own ell list, r and potentials.
"""

from __future__ import annotations

import numpy as np

from . import cells, cellspec, fracture, geometry, potentials, reduced, stability
from .energy import family_energy, total_energy
from .errors import VerificationFailureError
from .potentials import TWO_THIRDS_PI

SOFT = potentials.default_soft()
STIFF = potentials.default_stiff()


def potential_presets(size, seed) -> dict:
    """Both presets satisfy every assumption of the bond model."""
    soft, stiff = potentials.validate(SOFT), potentials.validate(STIFF)
    return {"passed": soft["passed"] and stiff["passed"], "soft": soft, "stiff": stiff}


def closed_form_identity(tuples: int, seed) -> dict:
    """Direct tube energy equals the closed-form family energy within 1e-9 per
    atom on `tuples` random (ell, mu, lambda1, lambda2, m)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(tuples):
        ell = int(rng.integers(5, 13))
        mu = float(rng.uniform(2.7, 3.05))
        l1 = float(rng.uniform(0.92, 1.08))
        l2 = float(rng.uniform(max(0.901, mu / 2 - l1 + 1e-3), 1.099))
        m = int(rng.integers(1, 4))
        geom = geometry.solve_family(ell, mu, l1, l2)
        tube = geometry.build_nanotube(geom, m)
        diff = abs(total_energy(tube, SOFT) - family_energy(geom, m, SOFT))
        worst = max(worst, diff / (1e-9 * tube.n))
    return {"passed": worst <= 1.0, "worst_rel_to_tol": worst}


def beta_anchors(size, seed) -> dict:
    """Derivatives of the bond-angle map at (2pi/3, pi): -2, 0 and -sqrt(3)/2."""
    da, dg, _, dgg, _ = reduced.beta_derivatives(TWO_THIRDS_PI, np.pi)
    ok = abs(da + 2.0) <= 1e-8 and abs(dg) <= 1e-8 and abs(dgg + np.sqrt(3) / 2) <= 1e-8
    return {"passed": bool(ok), "d_alpha": da, "d_gamma": dg, "d2_gamma": dgg}


def reduced_anchor(size, seed) -> dict:
    """Reduced energy -3 at mu = 3, gamma = pi, minimizer (1, 2pi/3, 2pi/3), both presets."""
    ok = True
    for pots in (SOFT, STIFF):
        val, (lam, a1, a2) = reduced.reduced_energy(3.0, np.pi, np.pi, pots)
        ok &= max(abs(val + 3.0), abs(lam - 1.0), abs(a1 - TWO_THIRDS_PI), abs(a2 - TWO_THIRDS_PI)) <= 1e-9
    return {"passed": bool(ok)}


def reference_angle_order(ells, seed) -> dict:
    """alpha_ch < alpha_us < min(alpha_ru, 2pi/3) at each of ells[0], and
    2pi/3 - alpha_us ~ ell^-2 (log-log slope within 0.2) over ells[1]."""
    order_ells, fit_ells = ells
    order_ok = True
    for ell in order_ells:
        refs = reduced.reference_angles(ell, SOFT)
        order_ok &= refs.alpha_ch < refs.alpha_us < min(refs.alpha_ru, TWO_THIRDS_PI)
    gaps = [TWO_THIRDS_PI - reduced.reference_angles(ell, SOFT).alpha_us for ell in fit_ells]
    slope = float(np.polyfit(np.log(np.array(fit_ells, dtype=float)), np.log(gaps), 1)[0])
    return {"passed": bool(order_ok and abs(slope + 2.0) <= 0.2), "slope": slope}


def reduced_hessian_anchor(ells, seed) -> dict:
    """Reduced Hessian at (mu_us, gamma_ell, gamma_ell) positive definite, and
    d2E/dmu2 there within 10/ell of the anchor 2 v2''(1)/K, K = 9 + v2''(1) /
    (2 v3''(2pi/3)), at each ell."""
    v2pp, v3pp = SOFT.v2_curvature_at_min(), SOFT.v3_curvature_at_min()
    anchor = 2.0 * v2pp / (9.0 + v2pp / (2.0 * v3pp))
    hess = []
    for ell in ells:
        g = geometry.gamma(ell)
        hess.append(reduced.reduced_hessian(reduced.reference_angles(ell, SOFT).mu_us, g, g, SOFT))
    evals = [np.linalg.eigvalsh(h) for h in hess]
    ratios = [float(h[0, 0] / anchor) for h in hess]
    ok = all(ev[0] > 0.0 and abs(r - 1.0) <= 10.0 / ell for ell, ev, r in zip(ells, evals, ratios))
    return {"passed": bool(ok), "ells": list(ells), "anchor_ratio": ratios, "eigenvalues": evals}


def _ensemble(m: int, count: int, seed):
    """The optimal (12, m) tube at mu_us, its bond graph and the positions
    (count, n, 3) of its first `count` seeded perturbations at eta = 1e-3.

    Each trial draws from its own stream, so rows 06 and 13 see the same
    positions in the trials they both draw.
    """
    fam = reduced.minimize_family(reduced.reference_angles(12, SOFT).mu_us, 12, SOFT, m=m)
    base = geometry.build_nanotube(fam.geometry, m)
    band = stability.BondBand(base, 1e-3)
    spec = stability.PerturbationSpec(eta=1e-3, seed=seed, count=count)
    return base, band.graph, stability.sample_perturbations(base, spec, range(count), band)[0]


def cell_decomposition(size, seed) -> dict:
    """Tube energy equals the sum of cell energies within 1e-9 per atom on
    perturbed (12, m) tubes; size is (m, samples)."""
    base, graph, positions = _ensemble(*size, seed)
    diff = total_energy(base, SOFT, graph, positions=positions) - cells.total_cell_energy(base, SOFT, positions)
    worst = float(np.max(np.abs(diff) / (1e-9 * base.n)))
    return {"passed": worst <= 1.0, "worst_rel_to_tol": worst}


def stability_ensembles(size, seed) -> dict:
    """No perturbation at eta = 1e-3 lowers the energy of the optimal (12, m)
    tube at mu_us or mu_us + 0.01; size is (m, samples)."""
    m, count = size
    mu_us = reduced.reference_angles(12, SOFT).mu_us
    ok = True
    min_gaps = {}
    for off in (0.0, 0.01):
        spec = stability.PerturbationSpec(eta=1e-3, seed=seed, count=count)
        rep = stability.stability_trial(mu_us + off, 12, m, spec, SOFT, collect_ratios=False)
        ok &= rep["n_failures"] == 0 and rep["min_gap"] > 0.0
        min_gaps[str(off)] = rep["min_gap"]
    return {"passed": bool(ok), "min_gaps": min_gaps, "count": count}


def hessian_null_space(size, seed) -> dict:
    """The Hessian of the (ell, m) family minimizer at mu_us + 0.01 has exactly
    the four isometry null modes and is positive on the rest.  Also reported,
    not checked: the Bloch blocks that hold the null modes and the
    Cauchy-Born acoustic_ratio."""
    ell, m = size
    fam = reduced.minimize_family(reduced.reference_angles(ell, SOFT).mu_us + 0.01, ell, SOFT, m=m)
    tube = geometry.build_nanotube(fam.geometry, m)
    rep = stability.null_space_report(tube, SOFT, acoustic=True)
    ok = rep["n_near_null"] == 4 and rep["rest_positive"] and rep["max_principal_angle"] < 1e-3
    return {
        "passed": bool(ok),
        "n_near_null": rep["n_near_null"],
        "max_principal_angle": rep["max_principal_angle"],
        "null_blocks": rep["null_blocks"],
        "acoustic_ratio": rep["acoustic_ratio"],
    }


def kernel_dimensions(size, seed) -> dict:
    """The bond/angle map and its angle part have kernels of dimension 11 and
    17 at the planar cell, the first spanned by the degenerate and bad directions."""
    rep = cellspec.t_jacobian_kernel()
    ok = rep["kernel_dim"] == 11 and rep["kernel_dim_angles"] == 17 and rep["max_principal_angle"] < 1e-4
    keys = ("kernel_dim", "kernel_dim_angles", "max_principal_angle")
    return {"passed": bool(ok), **{k: rep[k] for k in keys}}


def cell_convexity(ells, seed, r: float = 0.9, pots=SOFT, cells=None) -> dict:
    """Positive constrained convexity constants at each ell, and c_weak ~ ell^-2
    (log-log slope within 0.3) when there are several distinct ell.  cells,
    when given, holds the kink cell of each ell (see cellspec.kink_cell)."""
    # the angle-sum concavity constant does not depend on ell
    c_kink = cellspec.angle_sum_concavity()["c_kink"]
    try:
        rows = [
            cellspec.cell_hessian_convexity(ell, pots, r=r, cell=cell, c_kink=c_kink)
            for ell, cell in zip(ells, cells or [None] * len(ells))
        ]
    except VerificationFailureError as exc:
        return {"passed": False, "error": str(exc)}
    ok = all(row["c_good"] > 0 and row["c_weak"] > 0 and row["c_kink"] > 0 for row in rows)
    entry = {"rows": rows}
    if len({row["ell"] for row in rows}) > 1:
        arr = np.array([(row["ell"], row["c_weak"]) for row in rows])
        slope = float(np.polyfit(np.log(arr[:, 0]), np.log(arr[:, 1]), 1)[0])
        entry["c_weak_scaling_slope"] = slope
        ok = ok and abs(slope + 2.0) <= 0.3
    entry["passed"] = bool(ok)
    return entry


def fracture_thresholds(m_list, seed) -> dict:
    """A cleaved (12, 16) tube costs exactly 4 ell over the intact one, and
    the fracture offsets over m_list scale like m^-1/2 (slope within 0.1)."""
    ct = fracture.build_cleaved(12, 16, reduced.reference_angles(12, SOFT).mu_us + 0.1, SOFT)
    ident = abs(ct.energy - ct.base_energy - 4 * ct.ell)
    scaling = fracture.fracture_scaling(12, m_list, SOFT)
    ok = ct.fully_cleaved and ident <= 1e-10 * ct.tube.n and abs(scaling["slope"] + 0.5) <= 0.1
    return {
        "passed": bool(ok),
        "bond_deficit": ct.bond_deficit,
        "identity_residual": ident,
        "slope": scaling["slope"],
        "angle_release": ct.energy - ct.measured_energy,
    }


def radius_trend(size, seed) -> dict:
    """At ell = 16 the radius grows with mu at mu_us for the soft preset and
    shrinks for the stiff one, as sign(6 v3''(2pi/3) - v2''(1)) predicts.

    rho = lambda sin(alpha) / (2 sin(pi/(2 ell))) at the minimizer (lambda,
    alpha, alpha), so drho/dmu takes (dlambda/dmu, dalpha/dmu) from the mu
    column of the minimizer derivative of one reduced solve.
    """
    ell = 16
    g = geometry.gamma(ell)
    ok = True
    drho = {}
    for pots, sign in ((SOFT, 1.0), (STIFF, -1.0)):
        sol = reduced.reduced_solve(reduced.reference_angles(ell, pots).mu_us, g, g, pots)
        lam, alpha, _ = sol.x[0]
        dlam, dalpha, _ = sol.minimizer_derivative()[0, :, 0]
        d = float((dlam * np.sin(alpha) + lam * np.cos(alpha) * dalpha) / (2.0 * np.sin(np.pi / (2.0 * ell))))
        trend = np.sign(6.0 * pots.v3_curvature_at_min() - pots.v2_curvature_at_min())
        ok &= np.sign(d) == sign and np.sign(d) == trend
        drho[pots.name] = d
    return {"passed": bool(ok), "drho_dmu_at_mu_us": drho}


def angle_sum(size, seed) -> dict:
    """The plane-angle sum is exact on the optimal (12, m) tube, and on its
    perturbations the excess over it divided by the summed symmetry defect is
    finite; size is (m, samples).  excess_over_delta_max is None when no
    perturbation has a defect above 1e-14."""
    base, _, positions = _ensemble(*size, seed)
    target = 4 * base.m * (2 * base.ell - 2) * np.pi
    base_residual = abs(cells.angle_sum(base) - target)
    excess = cells.angle_sum(base, positions) - target
    dsum = cells.total_symmetry_defect(base, positions)
    ratios = excess[dsum > 1e-14] / dsum[dsum > 1e-14]
    ok = base_residual <= 1e-8 and bool(np.all(np.isfinite(ratios)))
    return {
        "passed": ok,
        "unperturbed_residual": base_residual,
        "excess_over_delta_max": float(np.max(ratios)) if len(ratios) else None,
    }


CHECKS = (
    (0, "potentials", potential_presets, None, None),
    (1, "closed_form_identity", closed_form_identity, 5, 10),
    (2, "beta_anchors", beta_anchors, None, None),
    (3, "reduced_anchor", reduced_anchor, None, None),
    (4, "reference_angles", reference_angle_order, ((10, 20), (16, 32, 64)), ((10, 20, 40), (16, 32, 64, 128))),
    (5, "reduced_hessian", reduced_hessian_anchor, (32,), (32, 64)),
    (6, "cell_decomposition", cell_decomposition, (2, 10), (4, 100)),
    (7, "stability", stability_ensembles, (2, 50), (4, 1000)),
    (8, "hessian_null_space", hessian_null_space, (8, 2), (12, 4)),
    (9, "kernel_dimensions", kernel_dimensions, None, None),
    (10, "cell_convexity", cell_convexity, (16,), (16, 32, 64)),
    (11, "fracture", fracture_thresholds, (4, 16), (4, 8, 16, 32, 64)),
    (12, "radius_trend", radius_trend, None, None),
    (13, "angle_sum", angle_sum, (2, 10), (4, 50)),
)
