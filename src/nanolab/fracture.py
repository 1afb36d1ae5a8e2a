"""Cleaved configurations and the fracture threshold.

The cleaved state keeps both halves at the unstretched optimal geometry and
rigidly separates them along the axis; per n-cell it has 4*ell fewer bonds
than the intact unstretched tube once the gap clears the bond cutoff.  Its
energy is accounted as E(unstretched) + 4*ell (one unit per severed bond at
the pair-potential minimum), which is the comparison the threshold scan uses
against the elastically stretched minimizer.  The literally evaluated energy
of the built configuration is also reported; it is lower by the small
three-body energy released at the cleft faces (the angles there sit slightly
off the angle-potential minimum), a contribution that vanishes as ell grows.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .energy import bond_graph, family_energy, total_energy
from .errors import InvalidParameterError, WindowTooSmallError, NotCleavedWarning
from .geometry import Nanotube, solve_family
from .potentials import PotentialSet
from .reduced import minimize_family, reference_angles


@dataclass
class CleavedTube:
    """Tube cleaved along one labeled cross-section, halves rigidly separated."""

    tube: Nanotube
    ell: int
    m: int
    mu: float
    mu_us: float
    gap: float
    n_bonds: int
    bond_deficit: int
    fully_cleaved: bool
    base_energy: float
    energy: float
    measured_energy: float
    degree_histogram: dict


def build_cleaved(ell: int, m: int, mu: float, pots: PotentialSet) -> CleavedTube:
    """Displace the upper half (labels j >= m/2) of the unstretched unit-bond
    tube by m*(mu - mu_us) along the axis, with period L = m*mu.

    m must be even.  Emits NotCleavedWarning while the gap is too small to
    sever all 4*ell cross-section bonds.
    """
    if m % 2 != 0:
        raise InvalidParameterError(f"m must be even for a clean half split, got {m}")
    refs = reference_angles(ell, pots)
    mu_us = refs.mu_us
    if mu < mu_us - 1e-12:
        raise InvalidParameterError(f"mu={mu} below the unstretched period {mu_us}")
    geom = solve_family(ell, mu_us, 1.0, 1.0)
    gap = m * (mu - mu_us)
    L = m * mu

    i = np.arange(1, ell + 1)
    j = np.arange(m)
    kk2 = np.arange(2)
    jj, ii, kk, ll = np.meshgrid(j, i, kk2, kk2, indexing="ij")
    x1 = kk * (geom.lambda1 + geom.sigma) + jj * geom.mu + ll * (2.0 * geom.sigma + geom.lambda1)
    x1 = np.where(jj >= m // 2, x1 + gap, x1)
    ang = np.pi * (2.0 * ii + kk) / ell
    pos = np.stack([np.mod(x1, L), geom.rho * np.cos(ang), geom.rho * np.sin(ang)], axis=-1)
    tube = Nanotube(pos.reshape(-1, 3), L, ell, m)

    graph = bond_graph(tube)
    intact = 6 * m * ell
    deficit = intact - graph.n_bonds
    fully = deficit == 4 * ell
    if not fully:
        warnings.warn(
            f"gap {gap:.4f} severs {deficit} bonds, expected {4 * ell}; increase m*(mu - mu_us)",
            NotCleavedWarning,
        )
    deg = graph.degrees()
    hist = {int(d): int(c) for d, c in zip(*np.unique(deg, return_counts=True))}
    base_energy = family_energy(geom, m, pots)
    return CleavedTube(
        tube=tube,
        ell=ell,
        m=m,
        mu=mu,
        mu_us=mu_us,
        gap=gap,
        n_bonds=graph.n_bonds,
        bond_deficit=int(deficit),
        fully_cleaved=fully,
        base_energy=base_energy,
        energy=base_energy + 4.0 * ell,
        measured_energy=total_energy(tube, pots, graph),
        degree_histogram=hist,
    )


def cleaved_energy(ell: int, m: int, pots: PotentialSet) -> float:
    """Bookkept cleaved-state energy E(unstretched) + 4*ell; mu-independent."""
    refs = reference_angles(ell, pots)
    geom = solve_family(ell, refs.mu_us, 1.0, 1.0)
    return family_energy(geom, m, pots) + 4.0 * ell


# mu points of the coarse scan for a sign change, and the bisection tolerance
COARSE_STEPS = 49
BISECTION_TOL = 1e-6


def fracture_threshold(ell: int, m: int, pots: PotentialSet, window: float = 0.12) -> dict:
    """Smallest mu with E(cleaved) < E(optimal family at mu), by a coarse scan
    of COARSE_STEPS points plus bisection to BISECTION_TOL.  Raises
    WindowTooSmallError without a crossing."""
    refs = reference_angles(ell, pots)
    mu_us = refs.mu_us
    e_cleaved = cleaved_energy(ell, m, pots)

    def excess(mu):
        # positive while the stretched periodic tube is still favorable
        return e_cleaved - minimize_family(mu, ell, pots, m=m).energy

    hi_limit = min(mu_us + window, 3.1 - 1e-9)
    grid = np.linspace(mu_us, hi_limit, COARSE_STEPS)
    vals = [excess(float(mu)) for mu in grid]
    bracket = None
    for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if fa > 0.0 >= fb:
            bracket = (float(a), float(b))
            break
    if bracket is None:
        raise WindowTooSmallError(
            f"no fracture crossing for ell={ell}, m={m} within mu <= {hi_limit:.4f}"
        )
    lo, hi = bracket
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    mu_frac = 0.5 * (lo + hi)
    return {
        "ell": ell,
        "m": m,
        "mu_us": mu_us,
        "mu_frac": mu_frac,
        "offset": mu_frac - mu_us,
        "offset_sqrt_m": (mu_frac - mu_us) * np.sqrt(m),
        "cleaved_energy": e_cleaved,
    }


def fracture_scaling(ell: int, m_list, pots: PotentialSet, window: float = 0.12) -> dict:
    """Thresholds across m plus the log-log slope of (mu_frac - mu_us) vs m."""
    rows = [fracture_threshold(ell, int(m), pots, window=window) for m in m_list]
    ms = np.array([r["m"] for r in rows], dtype=float)
    offs = np.array([r["offset"] for r in rows])
    slope, intercept = np.polyfit(np.log(ms), np.log(offs), 1)
    return {
        "ell": ell,
        "rows": rows,
        "slope": float(slope),
        "prefactor": float(np.exp(intercept)),
        "offset_sqrt_m": [r["offset_sqrt_m"] for r in rows],
    }
