"""Cleaved configurations and the fracture threshold.

The cleaved state keeps both halves at the unstretched optimal geometry and
rigidly separates them along the axis; per n-cell it has 4*ell fewer bonds
than the intact unstretched tube once the gap clears the bond cutoff.  Its
energy is accounted as E(unstretched) + 4*ell (one unit per severed bond at
the pair-potential minimum), which is what the threshold compares against
the elastically stretched minimizer.  The literally evaluated energy of the
built configuration is also reported; it is lower by the small three-body
energy released at the cleft faces (the angles there sit slightly off the
angle-potential minimum), a contribution that vanishes as ell grows.

The stretched minimizer's energy is 2*m*ell*e(mu), with e the reduced
energy per cell at (mu, gamma_ell, gamma_ell), and the unstretched tube's is
2*m*ell*e(mu_us); e does not depend on m.  So the threshold of every m is a
root of e(mu) - e(mu_us) = 2/m on the one curve e, and all m are solved
together by a safeguarded Newton iteration on it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .energy import bond_graph, family_energy, total_energy
from .errors import InvalidParameterError, NotCleavedWarning, OptimizationFailureError, WindowTooSmallError
from .geometry import Nanotube, gamma, solve_family, unwrapped_positions
from .potentials import PotentialSet
from .reduced import reduced_solve, reference_angles


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

    pos = unwrapped_positions(geom, m)
    pos[m // 2 :, ..., 0] += gap
    pos[..., 0] = np.mod(pos[..., 0], L)
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


# Newton on e(mu) stops once its step is at most ROOT_TOL, and fails after
# ROOT_MAX_ITER iterations
ROOT_TOL = 1e-12
ROOT_MAX_ITER = 100


def _thresholds(ell: int, ms, pots: PotentialSet, window: float):
    """Fracture thresholds mu_frac of every m of ms, solved together on the
    per-cell reduced energy curve e(mu) = E_min(mu) / (2 m ell).

    E(cleaved) - E_min(mu) = 4 ell - 2 m ell (e(mu) - e(mu_us)), so mu_frac
    is the root of e(mu) - e(mu_us) = 2/m in (mu_us, min(mu_us + window,
    3.1 - 1e-9)].  Safeguarded Newton with slope e'(mu) from the envelope
    gradient, bisecting whenever a step leaves the bracket, started at
    mu_us + 2/sqrt(m e''(mu_us)); each iteration is one batched reduced solve
    over the m not yet converged.  Raises WindowTooSmallError for the first m
    whose root the window does not bracket, and InvalidParameterError for an
    m below 1 or a window that is not finite and positive.

    Returns (mu_us, mu_frac array, total inner Newton iterations, largest
    final KKT residual of the reduced solves).
    """
    ms = np.asarray(ms, dtype=int)
    if np.any(ms < 1):
        raise InvalidParameterError(f"m must be at least 1, got {ms.tolist()}")
    if not (np.isfinite(window) and window > 0.0):
        raise InvalidParameterError(f"window must be finite and positive, got {window}")
    mu_us = reference_angles(ell, pots).mu_us
    g = gamma(ell)
    hi_limit = min(mu_us + window, 3.1 - 1e-9)
    target = 2.0 / ms
    solves = []

    def solve(mus):
        solves.append(reduced_solve(mus, g, g, pots))
        return solves[-1]

    ends = solve([mu_us, hi_limit])
    e_us = ends.value[0]
    for m, rise in zip(ms, target):
        if ends.value[1] - e_us < rise:
            raise WindowTooSmallError(f"no fracture crossing for ell={ell}, m={m} within mu <= {hi_limit:.4f}")
    lo = np.full(len(ms), mu_us)
    hi = np.full(len(ms), hi_limit)
    curvature = ends.envelope_hessian()[0, 0, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = mu_us + 2.0 / np.sqrt(ms * curvature)
    mu = np.where((mu > lo) & (mu < hi), mu, 0.5 * (lo + hi))
    active = np.arange(len(ms))
    for _ in range(ROOT_MAX_ITER):
        curve = solve(mu[active])
        f = curve.value - e_us - target[active]
        below = f < 0.0
        lo[active] = np.where(below, mu[active], lo[active])
        hi[active] = np.where(below, hi[active], mu[active])
        with np.errstate(divide="ignore", invalid="ignore"):
            step = mu[active] - f / curve.grad[:, 0]
        # a step outside the bracket (or from a slope of 0 or NaN) bisects instead
        inside = (step >= lo[active]) & (step <= hi[active])
        step = np.where(inside, step, 0.5 * (lo[active] + hi[active]))
        done = np.abs(step - mu[active]) <= ROOT_TOL
        mu[active] = step
        active = active[~done]
        if len(active) == 0:
            break
    else:
        raise OptimizationFailureError(
            f"fracture threshold Newton did not converge for ell={ell}, m={ms[active].tolist()}"
        )
    iterations = int(sum(int(np.sum(s.iterations)) for s in solves))
    residual = float(max(np.max(s.residual) for s in solves))
    return mu_us, mu, iterations, residual


def _row(ell: int, m: int, mu_us: float, mu_frac: float) -> dict:
    return {
        "ell": ell,
        "m": m,
        "mu_us": mu_us,
        "mu_frac": mu_frac,
        "offset": mu_frac - mu_us,
        "offset_sqrt_m": (mu_frac - mu_us) * np.sqrt(m),
    }


def fracture_threshold(ell: int, m: int, pots: PotentialSet, window: float = 0.12) -> dict:
    """Smallest mu with E(cleaved) < E(optimal family at mu), with the solver
    diagnostics of its reduced solves.  Raises WindowTooSmallError without a
    crossing."""
    mu_us, mu_frac, iterations, residual = _thresholds(ell, [m], pots, window)
    row = _row(ell, m, mu_us, float(mu_frac[0]))
    return {**row, "newton_iterations": iterations, "max_kkt_residual": residual}


def fracture_scaling(ell: int, m_list, pots: PotentialSet, window: float = 0.12) -> dict:
    """Thresholds across m, all solved together, plus the log-log slope of
    (mu_frac - mu_us) vs m and the solver diagnostics of the reduced solves.
    Needs at least two distinct m."""
    ms = [int(m) for m in m_list]
    if len(set(ms)) < 2:
        raise InvalidParameterError(f"the m-scaling needs at least two distinct m, got {ms}")
    mu_us, mu_frac, iterations, residual = _thresholds(ell, ms, pots, window)
    rows = [_row(ell, m, mu_us, float(mf)) for m, mf in zip(ms, mu_frac)]
    offs = np.array([r["offset"] for r in rows])
    slope, intercept = np.polyfit(np.log(np.array(ms, dtype=float)), np.log(offs), 1)
    return {
        "ell": ell,
        "rows": rows,
        "slope": float(slope),
        "prefactor": float(np.exp(intercept)),
        "offset_sqrt_m": [r["offset_sqrt_m"] for r in rows],
        "newton_iterations": iterations,
        "max_kkt_residual": residual,
    }
