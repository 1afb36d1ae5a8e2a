"""Monte-Carlo verification that the optimal periodic tube is a strict local
minimizer: seeded perturbation ensembles with a preserved bond graph, the full
configurational Hessian spectrum, and per-cell lower-bound certificates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cells import cell_summary, gather_cells, symmetrize, to_local
from .energy import BOND_CUTOFF, bond_graph, gradient, hessian, image_distances, near_pairs, total_energy
from .errors import EtaTooLargeError, InvalidParameterError, NotStationaryError
from .geometry import Nanotube, build_nanotube
from .potentials import PotentialSet
from .reduced import FamilyMinimum, minimize_family, reduced_solve

MODES = ("uniform-ball", "gaussian-clipped", "per-direction")


@dataclass(frozen=True)
class PerturbationSpec:
    """Ensemble description: per-atom displacement cap eta, seeded and counted."""

    eta: float
    seed: int = 0
    count: int = 100
    mode: str = "uniform-ball"

    def __post_init__(self):
        if not (np.isfinite(self.eta) and self.eta >= 0):
            raise InvalidParameterError(f"eta must be finite and nonnegative, got {self.eta}")
        if self.count < 1:
            raise InvalidParameterError(f"count must be at least 1, got {self.count}")
        if self.mode not in MODES:
            raise InvalidParameterError(f"mode must be one of {MODES}, got {self.mode!r}")


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))


def _displacement(rng: np.random.Generator, n: int, eta: float, mode: str) -> np.ndarray:
    if eta == 0.0:
        return np.zeros((n, 3))
    if mode == "uniform-ball":
        d = rng.standard_normal((n, 3))
        norms = np.linalg.norm(d, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        radii = eta * rng.uniform(size=(n, 1)) ** (1.0 / 3.0)
        return d / norms * radii
    if mode == "gaussian-clipped":
        d = rng.standard_normal((n, 3)) * (eta / 3.0)
        norms = np.linalg.norm(d, axis=1, keepdims=True)
        # shave a few ulps off the clip so rounding never exceeds eta
        scale = np.minimum(1.0, (1.0 - 1e-14) * eta / np.maximum(norms, 1e-300))
        return d * scale
    d = rng.uniform(-eta / np.sqrt(3.0), eta / np.sqrt(3.0), size=(n, 3))
    return d


# Widening of the band, relative to the coordinate scale, that covers the
# round-off in displaced positions and in their distances.
_ROUNDING = 1e-9


class BondBand:
    """Base bond graph plus the pairs whose bond a displacement of at most eta
    per atom can make or break.

    Each pair distance moves by at most 2*eta, so only pairs whose base
    distance lies within 2*eta (plus a rounding margin) of the cutoff can
    change side.  A displaced copy has the base graph exactly when every band
    pair stays on its side and no pair can switch to another axial image; the
    latter can only happen for a pair within 2*eta of |dx| = L/2, in which
    case every draw rebuilds its graph instead.  Build one per ensemble.
    """

    def __init__(self, base: Nanotube, eta: float):
        self.eta = eta
        self.graph = bond_graph(base)
        pos, L = base.positions, base.period
        reach = 2.0 * eta + _ROUNDING * (1.0 + L + float(np.max(np.abs(pos))))
        i, j, t, dist = near_pairs(pos, L, BOND_CUTOFF + reach)
        band = dist >= BOND_CUTOFF - reach
        self.i, self.j = i[band], j[band]
        self.bonded = dist[band] < BOND_CUTOFF
        self.fixed_images = bool(np.all(np.abs(pos[i, 0] - pos[j, 0] + t * L) < 0.5 * L - reach))

    def graph_of(self, tube: Nanotube):
        """Bond graph of a displaced copy of the base if it has the base's
        bonds, else None."""
        if not self.fixed_images:
            g = bond_graph(tube)
            return g if np.array_equal(g.pairs, self.graph.pairs) else None
        pos = tube.positions
        _, dist = image_distances(pos[self.i] - pos[self.j], tube.period)
        return self.graph if np.array_equal(dist < BOND_CUTOFF, self.bonded) else None


def sample_perturbation(
    base: Nanotube,
    spec: PerturbationSpec,
    trial: int = 0,
    band: BondBand | None = None,
    max_rejections: int = 1000,
):
    """One displaced copy of base with identical period and bond graph.

    band is base's BondBand for an eta of at least spec.eta; it is built when
    omitted, so pass one to reuse it across an ensemble.  Returns (tube,
    graph, rejections).  Raises EtaTooLargeError after max_rejections
    consecutive bond-graph-breaking draws.
    """
    if band is None:
        band = BondBand(base, spec.eta)
    elif band.eta < spec.eta:
        raise ValueError(f"band built for eta={band.eta} cannot vet draws at eta={spec.eta}")
    rejections = 0
    rng = _trial_rng(spec.seed, trial)
    while True:
        d = _displacement(rng, base.n, spec.eta, spec.mode)
        tube = base.with_positions(base.positions + d)
        graph = band.graph_of(tube)
        if graph is not None:
            return tube, graph, rejections
        rejections += 1
        if rejections >= max_rejections:
            raise EtaTooLargeError(
                f"{max_rejections} consecutive samples broke the bond graph at eta={spec.eta}"
            )


def stability_trial(
    mu: float,
    ell: int,
    m: int,
    spec: PerturbationSpec,
    pots: PotentialSet,
    collect_ratios: bool = True,
) -> dict:
    """Energy-gap ensemble against the optimal family tube at period mu.

    Every sampled perturbation must raise the energy; samples at or below the
    base energy are recorded as counterexamples (with positions), not raised.
    """
    fam = minimize_family(mu, ell, pots, m=m)
    base = build_nanotube(fam.geometry, m)
    band = BondBand(base, spec.eta)
    e_base = total_energy(base, pots, band.graph)

    gaps = []
    ratios = []
    failures = []
    rejections = 0
    skipped_trivial = 0
    for trial in range(spec.count):
        tube, g, rej = sample_perturbation(base, spec, trial=trial, band=band)
        rejections += rej
        if np.max(np.abs(tube.positions - base.positions)) == 0.0:
            skipped_trivial += 1
            continue
        gap = total_energy(tube, pots, g) - e_base
        gaps.append(gap)
        if collect_ratios:
            delta_sum = float(np.sum(symmetrize(to_local(gather_cells(tube)))[2]))
            if delta_sum > 1e-14:
                ratios.append(gap / delta_sum)
        if gap <= 0.0:
            failures.append({"trial": trial, "energy_gap": gap, "positions": tube.positions.copy()})
    gaps = np.array(gaps)
    ratios = np.array(ratios)
    report = {
        "mu": mu,
        "ell": ell,
        "m": m,
        "eta": spec.eta,
        "seed": spec.seed,
        "mode": spec.mode,
        "count": spec.count,
        "evaluated": int(len(gaps)),
        "skipped_trivial": skipped_trivial,
        "rejections": rejections,
        "base_energy": e_base,
        "min_gap": float(np.min(gaps)) if len(gaps) else float("nan"),
        "max_gap": float(np.max(gaps)) if len(gaps) else float("nan"),
        "mean_gap": float(np.mean(gaps)) if len(gaps) else float("nan"),
        "gap_ratio_min": float(np.min(ratios)) if len(ratios) else float("nan"),
        "gap_ratio_median": float(np.median(ratios)) if len(ratios) else float("nan"),
        "gap_ratio_max": float(np.max(ratios)) if len(ratios) else float("nan"),
        "n_failures": len(failures),
        "failures": failures,
    }
    return report


def isometry_directions(tube: Nanotube) -> np.ndarray:
    """Orthonormal basis of the four energy-invariant directions at fixed L:
    three rigid translations and the rotation about the tube axis."""
    n = tube.n
    dirs = np.zeros((3 * n, 4))
    for d in range(3):
        v = np.zeros((n, 3))
        v[:, d] = 1.0
        dirs[:, d] = v.ravel()
    rot = np.zeros((n, 3))
    rot[:, 1] = -tube.positions[:, 2]
    rot[:, 2] = tube.positions[:, 1]
    dirs[:, 3] = rot.ravel()
    q, _ = np.linalg.qr(dirs)
    return q


# stationarity guard of hessian_spectrum: |grad| < GRAD_TOL_FACTOR * sqrt(n)
GRAD_TOL_FACTOR = 1e-7
# An eigenvalue is near-null when |lambda| < ZERO_TOL_REL * max|lambda|.  With
# the analytic Hessian the isometry modes of family tubes come out at or below
# about 2e-16 of the largest eigenvalue, while genuine soft modes go down to
# about 1e-8 of it (the softest pair of (24,4) just above the unstretched
# period sits near 9e-7), so the threshold sits between the two.
ZERO_TOL_REL = 1e-10


def hessian_spectrum(tube: Nanotube, pots: PotentialSet, return_vectors: bool = False):
    """Eigenvalues (ascending) of the configurational Hessian at fixed period.

    The analytic Hessian (energy.hessian) on the tube's bond graph, one dense
    eigensolve.  Raises NotStationaryError unless
    |grad| < GRAD_TOL_FACTOR * sqrt(n).
    """
    graph = bond_graph(tube)
    g0 = gradient(tube, pots, graph)
    if np.linalg.norm(g0) >= GRAD_TOL_FACTOR * np.sqrt(tube.n):
        raise NotStationaryError(
            f"gradient norm {np.linalg.norm(g0):.3e} exceeds {GRAD_TOL_FACTOR * np.sqrt(tube.n):.3e}"
        )
    hess = hessian(tube, pots, graph)
    if return_vectors:
        evals, evecs = np.linalg.eigh(hess)
        return evals, evecs
    return np.linalg.eigvalsh(hess)


def null_space_report(tube: Nanotube, pots: PotentialSet) -> dict:
    """Spectrum partition into near-null (see ZERO_TOL_REL) and positive parts
    plus the principal angles between the near-null eigenvectors and the
    isometry directions."""
    from scipy.linalg import subspace_angles

    evals, evecs = hessian_spectrum(tube, pots, return_vectors=True)
    lam_max = float(np.max(np.abs(evals)))
    zero_tol = ZERO_TOL_REL * lam_max
    near_null = np.abs(evals) < zero_tol
    n_null = int(np.sum(near_null))
    iso = isometry_directions(tube)
    max_angle = float("nan")
    if n_null > 0:
        angles = subspace_angles(iso, evecs[:, near_null])
        max_angle = float(np.max(angles))
    positive_rest = bool(np.all(evals[~near_null] > 0.0))
    return {
        "eigenvalues": evals,
        "lam_max": lam_max,
        "zero_tol": zero_tol,
        "n_near_null": n_null,
        "n_negative": int(np.sum(evals < -zero_tol)),
        "rest_positive": positive_rest,
        "max_principal_angle": max_angle,
    }


def per_cell_certificate(tube: Nanotube, base: FamilyMinimum, pots: PotentialSet) -> dict:
    """Per-cell lower bound: cell energy minus the reduced energy evaluated at
    the measured dual-center distance and mean plane angle.

    Reports the minimum margin and the empirical constant
    C_hat = min over cells with delta > 1e-14 of margin / (delta / ell^2).
    """
    summ = cell_summary(tube, pots)
    ell = tube.ell
    tb = summ["theta_bar"]
    margins = summ["energy"] - reduced_solve(summ["mu_tilde"], tb, tb, pots).value
    delta = summ["delta"]
    mask = delta > 1e-14
    scaled = margins[mask] / (delta[mask] / ell**2) if np.any(mask) else np.array([])
    return {
        "n_cells": len(margins),
        "min_margin": float(np.min(margins)),
        "max_margin": float(np.max(margins)),
        "margins": margins,
        "delta": delta,
        "delta_sum": float(np.sum(delta)),
        "c_hat": float(np.min(scaled)) if len(scaled) else float("nan"),
    }


def certificate_eta_ladder(
    ell: int,
    m: int,
    pots: PotentialSet,
    etas=(1e-4, 1e-3, 3e-3, 1e-2),
    samples_per_eta: int = 3,
    seed: int = 0,
    mu_offset: float = 0.0,
) -> dict:
    """Largest sampled perturbation size at which every per-cell margin stays
    nonnegative.  The admissible size is existential in the underlying theory;
    this reports its empirical counterpart for the given (ell, m)."""
    from .reduced import reference_angles

    fam = minimize_family(reference_angles(ell, pots).mu_us + mu_offset, ell, pots, m=m)
    base = build_nanotube(fam.geometry, m)
    rows = []
    largest = None
    for eta in etas:
        band = BondBand(base, eta)
        worst = np.inf
        ok = True
        try:
            for trial in range(samples_per_eta):
                tube, _, _ = sample_perturbation(
                    base,
                    PerturbationSpec(eta=eta, seed=seed, count=samples_per_eta),
                    trial=trial,
                    band=band,
                    max_rejections=50,
                )
                rep = per_cell_certificate(tube, fam, pots)
                worst = min(worst, rep["min_margin"])
            ok = worst >= 0.0
        except EtaTooLargeError:
            ok = False
            worst = float("nan")
        rows.append({"eta": eta, "passed": bool(ok), "min_margin": worst})
        if ok:
            largest = eta
    return {"ell": ell, "m": m, "rows": rows, "largest_passing_eta": largest}


def critical_stretch_scan(
    ell: int,
    m: int,
    pots: PotentialSet,
    eta: float = 1e-3,
    count: int = 50,
    seed: int = 0,
    offsets=(0.0, 0.005, 0.01, 0.02, 0.04),
) -> dict:
    """Scan stretch offsets above the unstretched period and report the largest
    one at which every trial keeps a positive energy gap (an empirical stand-in
    for the critical stretch; no claim it matches any sharp threshold)."""
    from .reduced import reference_angles

    mu_us = reference_angles(ell, pots).mu_us
    results = []
    largest_pass = None
    for off in offsets:
        spec = PerturbationSpec(eta=eta, seed=seed, count=count)
        rep = stability_trial(mu_us + off, ell, m, spec, pots, collect_ratios=False)
        ok = rep["n_failures"] == 0 and rep["min_gap"] > 0.0
        results.append({"offset": off, "passed": ok, "min_gap": rep["min_gap"]})
        if ok:
            largest_pass = off
    return {"mu_us": mu_us, "offsets": results, "largest_passing_offset": largest_pass}
