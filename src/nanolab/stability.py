"""Monte-Carlo verification that the optimal periodic tube is a strict local
minimizer: seeded perturbation ensembles with a preserved bond graph, the full
configurational Hessian spectrum (from the line-group Bloch blocks on family
tubes, one dense eigensolve on any other tube).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cells import total_symmetry_defect
from .energy import (
    _norm3,
    bloch_blocks,
    bloch_modes,
    bond_graph,
    gradient,
    hessian,
    image_distances,
    near_pairs,
    total_energy,
)
from .errors import EtaTooLargeError, InvalidParameterError, NotStationaryError
from .geometry import Nanotube, build_nanotube
from .potentials import BOND_CUTOFF, PotentialSet
from .reduced import minimize_family, reduced_hessian

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
        if self.seed < 0:
            raise InvalidParameterError(f"seed must be nonnegative, got {self.seed}")
        if self.count < 1:
            raise InvalidParameterError(f"count must be at least 1, got {self.count}")
        if self.mode not in MODES:
            raise InvalidParameterError(f"mode must be one of {MODES}, got {self.mode!r}")


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))


def _displacements(rngs, n: int, eta: float, mode: str) -> np.ndarray:
    """One (n, 3) displacement per generator, as a (len(rngs), n, 3) stack.

    Each generator makes its draws in the order a single trial makes them;
    the arithmetic on the draws is then done once for the whole stack.
    """
    if eta == 0.0:
        return np.zeros((len(rngs), n, 3))
    if mode == "uniform-ball":
        d = np.empty((len(rngs), n, 3))
        u = np.empty((len(rngs), n, 1))
        for k, rng in enumerate(rngs):
            rng.standard_normal(out=d[k])
            # the doubles uniform(size=) would give: it draws 0 + 1 * random()
            rng.random(out=u[k])
        norms = _norm3(d)[..., None]
        norms[norms == 0.0] = 1.0
        return d / norms * (eta * u ** (1.0 / 3.0))
    if mode == "gaussian-clipped":
        d = np.empty((len(rngs), n, 3))
        for k, rng in enumerate(rngs):
            rng.standard_normal(out=d[k])
        d *= eta / 3.0
        norms = _norm3(d)[..., None]
        # shave a few ulps off the clip so rounding never exceeds eta
        return d * np.minimum(1.0, (1.0 - 1e-14) * eta / np.maximum(norms, 1e-300))
    return np.stack([rng.uniform(-eta / np.sqrt(3.0), eta / np.sqrt(3.0), size=(n, 3)) for rng in rngs])


# Widening of the band, relative to the coordinate scale, that covers the
# round-off in displaced positions and in their distances.
_ROUNDING = 1e-9
# Atoms per chunk of an ensemble: stability_trial draws, vets and scores
# max(1, _CHUNK_ATOMS // n) trials at a time as one (B, n, 3) stack, which
# bounds its memory at any n.  Of 2**10 .. 2**14, 2**12 gave the fastest
# ensembles at n = 192 and 768 with the allocator's default settings, and
# within 6 % of the fastest when freed memory stays mapped.
_CHUNK_ATOMS = 2**12
# stability_trial refuses an eta whose energy gaps come within
# _GAP_ROUNDOFF * eps * |E_base| of zero, where round-off can flip their sign.
# Both |E_base| and the floor are extensive, while the rounding of the energy
# stays about eps * |E_base| at any n: relabelling the atoms of perturbed
# (12, m) tubes, m = 2 .. 256, changes it by at most 0.95 eps * |E_base|.
# Measured at (12, 2): eta = 1e-9 gaps scatter by about 3 eps * |E_base|
# around their true size (8e-14), and the smallest of 1000 gaps at eta = 1e-8
# is 134 eps * |E_base| (gaussian-clipped draws); at (12, 64) the smallest of
# 30 gaps at eta = 1e-8 is 360 eps * |E_base|.  The floor is 8 times the
# scatter.
_GAP_ROUNDOFF = 24.0
# Consecutive bond-graph-breaking draws after which a trial gives up on eta.
MAX_REJECTIONS = 1000


class BondBand:
    """Base bond graph plus the pairs whose bond a displacement of at most eta
    per atom can make or break.

    A nearest-image distance is a minimum of 1-Lipschitz functions of the two
    positions, so it moves by at most 2*eta: only pairs whose base distance
    lies within reach = 2*eta (plus a rounding margin) of the cutoff can
    change side.  A pair bonded before and after a draw keeps its axial image
    unless L < 2*BOND_CUTOFF + reach, so at any longer period a draw that
    keeps every band pair on its side has the base graph exactly: pairs,
    shifts, triples and triple shifts.  Raises EtaTooLargeError, naming L and
    eta, at a shorter period.  Build one per ensemble.
    """

    def __init__(self, base: Nanotube, eta: float):
        pos, L = base.positions, base.period
        reach = 2.0 * eta + _ROUNDING * (1.0 + L + float(np.max(np.abs(pos))))
        if L < 2.0 * BOND_CUTOFF + reach:
            raise EtaTooLargeError(
                f"eta={eta} is too large for the period L={L}: a bond can change its axial image "
                f"unless L >= 2*cutoff + 2*eta, cutoff = {BOND_CUTOFF}"
            )
        self.eta = eta
        self.graph = bond_graph(base)
        i, j, _, dist = near_pairs(pos, L, BOND_CUTOFF + reach)
        band = dist >= BOND_CUTOFF - reach
        self.i, self.j = i[band], j[band]
        self.bonded = dist[band] < BOND_CUTOFF

    def keeps(self, positions: np.ndarray) -> np.ndarray:
        """Whether each displaced copy positions[b] of the base, a (B, n, 3)
        stack at the base's period, has the base's bond graph."""
        _, dist = image_distances(positions[:, self.i] - positions[:, self.j], self.graph.L)
        return np.all((dist < BOND_CUTOFF) == self.bonded, axis=-1)


def sample_perturbations(
    base: Nanotube,
    spec: PerturbationSpec,
    trials,
    band: BondBand,
):
    """Displaced copies of base, one per trial index in trials, each with
    base's period and bond graph.

    Trial t draws from its own stream _trial_rng(spec.seed, t) and redraws
    from it while a draw breaks the bond graph, so its copy does not depend on
    which trials are drawn with it or in what order.  band is base's BondBand
    for an eta of at least spec.eta.  Returns (positions, rejections): the
    (len(trials), n, 3) stack and the number of redraws.  Raises
    EtaTooLargeError once a trial has made MAX_REJECTIONS consecutive
    bond-graph-breaking draws.
    """
    if band.eta < spec.eta:
        raise ValueError(f"band built for eta={band.eta} cannot vet draws at eta={spec.eta}")
    rngs = [_trial_rng(spec.seed, int(t)) for t in trials]
    positions = np.empty((len(rngs), base.n, 3))
    rejections = np.zeros(len(rngs), dtype=np.int64)
    todo = np.arange(len(rngs))
    while len(todo):
        positions[todo] = base.positions + _displacements([rngs[k] for k in todo], base.n, spec.eta, spec.mode)
        todo = todo[~band.keeps(positions[todo])]
        rejections[todo] += 1
        if len(todo) and rejections.max() >= MAX_REJECTIONS:
            raise EtaTooLargeError(
                f"{MAX_REJECTIONS} consecutive samples broke the bond graph at eta={spec.eta}"
            )
    return positions, int(rejections.sum())


def _chunks(count: int, n: int) -> list:
    """Trial indices of an ensemble of count trials of n atoms, in chunks of
    at most _CHUNK_ATOMS atoms (one trial at least)."""
    size = max(1, _CHUNK_ATOMS // n)
    return [np.arange(lo, min(lo + size, count)) for lo in range(0, count, size)]


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
    Trials are drawn, vetted and scored a chunk at a time (_chunks); each
    trial's result depends only on its index, and the report lists them in
    trial order.  The gap_ratio statistics are None when no sample has a
    symmetry defect above 1e-14.  Raises EtaTooLargeError from BondBand and
    sample_perturbations.  Raises InvalidParameterError at eta = 0, where
    every sample is the base tube, and when a sample has an energy gap within
    the round-off floor _GAP_ROUNDOFF * eps * |E_base|, where its sign is not
    resolved: at an eta too small for the energy to see (a sample no atom of
    which moved has a gap of exactly 0), or at a gap too close to zero to call
    a counterexample.
    """
    if spec.eta == 0.0:
        raise InvalidParameterError("eta must be positive for a stability ensemble: at eta = 0 no sample moves")
    fam = minimize_family(mu, ell, pots, m=m)
    base = build_nanotube(fam.geometry, m)
    band = BondBand(base, spec.eta)
    e_base = total_energy(base, pots, band.graph)

    gaps = np.empty(spec.count)
    delta_sums = np.full(spec.count, np.nan)
    failures = []
    rejections = 0
    for trials in _chunks(spec.count, base.n):
        stack, rej = sample_perturbations(base, spec, trials, band)
        rejections += rej
        gaps[trials] = total_energy(base, pots, band.graph, positions=stack) - e_base
        if collect_ratios:
            delta_sums[trials] = total_symmetry_defect(base, positions=stack)
        for k in np.flatnonzero(gaps[trials] <= 0.0):
            trial = int(trials[k])
            failures.append({"trial": trial, "energy_gap": float(gaps[trial]), "positions": stack[k].copy()})
    floor = _GAP_ROUNDOFF * np.finfo(float).eps * abs(e_base)
    unresolved = int(np.sum(np.abs(gaps) <= floor))
    if unresolved:
        raise InvalidParameterError(
            f"eta={spec.eta}: {unresolved} samples have |energy gap| <= {floor:.3e}, the round-off floor "
            f"of the energy, where rounding can flip the sign of a gap"
        )
    failures.sort(key=lambda f: f["trial"])
    with_ratio = delta_sums > 1e-14
    ratios = gaps[with_ratio] / delta_sums[with_ratio]
    report = {
        "mu": mu,
        "ell": ell,
        "m": m,
        "eta": spec.eta,
        "seed": spec.seed,
        "mode": spec.mode,
        "count": spec.count,
        "evaluated": spec.count,
        "rejections": rejections,
        "base_energy": e_base,
        "min_gap": float(np.min(gaps)),
        "max_gap": float(np.max(gaps)),
        "mean_gap": float(np.mean(gaps)),
        "gap_ratio_min": float(np.min(ratios)) if len(ratios) else None,
        "gap_ratio_median": float(np.median(ratios)) if len(ratios) else None,
        "gap_ratio_max": float(np.max(ratios)) if len(ratios) else None,
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


# stationarity guard of null_space_report: |grad| < GRAD_TOL_FACTOR * sqrt(n)
GRAD_TOL_FACTOR = 1e-7
# On a tube without Bloch blocks an eigenvalue is near-null when
# |lambda| < ZERO_TOL_REL * max|lambda|.  With the analytic Hessian the
# isometry modes of family tubes come out at or below about 2e-16 of the
# largest eigenvalue, while genuine soft modes go down to about 1e-8 of it
# (the softest pair of (24,4) just above the unstretched period sits near
# 9e-7), so the threshold sits between the two up to about ell = 180.  Beyond,
# the ring's flexural modes (Bloch blocks p = +-2, +-3 at q = 0) fall below it
# as well: 7e-12 and 6e-11 of it at ell = 256.
ZERO_TOL_REL = 1e-10
# On a family tube each Bloch block B is measured against its own round-off:
# an eigenvalue of B is null when |lambda| <= BLOCK_NULL_ULPS * eps * max|lambda(B)|.
# The flexural modes shrink like ell^-4 relative to the largest eigenvalue of
# the tube, but not relative to their own block.  At mu_us + 0.01, ell = 4 ..
# 512, m = 1 and 4 and both presets, the isometries measured at most
# 52 eps ||B|| (stiff, ell = 384) and the softest non-null mode at least
# 290 eps ||B|| (stiff, ell = 512).
BLOCK_NULL_ULPS = 100.0
# Axial Bloch phase (radians per period mu) at which acoustic_ratio reads the
# long-wave curvature; the ratio's error from q > 0 is of order q^2.
ACOUSTIC_Q = 1e-3


def _stationary_graph(tube: Nanotube, pots: PotentialSet):
    """The tube's bond graph; raises NotStationaryError unless
    |grad| < GRAD_TOL_FACTOR * sqrt(n)."""
    graph = bond_graph(tube)
    g0 = gradient(tube, pots, graph)
    if np.linalg.norm(g0) >= GRAD_TOL_FACTOR * np.sqrt(tube.n):
        raise NotStationaryError(
            f"gradient norm {np.linalg.norm(g0):.3e} exceeds {GRAD_TOL_FACTOR * np.sqrt(tube.n):.3e}"
        )
    return graph


def _is_family(tube: Nanotube, graph) -> bool:
    """Whether the tube is its family geometry as build_nanotube lays it out,
    to the bit, with the family bond graph (6*ell*m bonds, every atom of
    degree 3): the tubes whose Hessian bloch_blocks splits."""
    geom = tube.geometry
    if geom is None or geom.ell != tube.ell:
        return False
    built = build_nanotube(geom, tube.m)
    return (
        built.period == tube.period
        and np.array_equal(built.positions, tube.positions)
        and graph.n_bonds == 6 * tube.ell * tube.m
        and bool(np.all(graph.degrees() == 3))
    )


def _signed_labels(n: int) -> np.ndarray:
    """The n irrep labels of Z_n in ascending order, -(n-1)//2 .. n//2."""
    return np.arange(-((n - 1) // 2), n // 2 + 1)


def _bloch_spectrum(tube: Nanotube, pots: PotentialSet, graph):
    """Labels p, q, the blocks B(p, 2*pi*q/m) of every irrep of a family tube
    and each block's ascending eigenvalues, one row per block in (p, q) order."""
    p, q = np.meshgrid(_signed_labels(tube.ell), _signed_labels(tube.m), indexing="ij")
    p, q = p.ravel(), q.ravel()
    blocks = bloch_blocks(tube, pots, p, 2.0 * np.pi * q / tube.m, graph)
    return p, q, blocks, np.linalg.eigvalsh(blocks)


def _block_null_space(tube: Nanotube, p, q, blocks, near_null):
    """(p, q, count) of each Bloch block with near-null eigenvalues, where
    near_null[b] marks block b's, and an orthonormal real basis (3n, k) of the
    k near-null modes.  Only those blocks are solved for eigenvectors."""
    counts = np.sum(near_null, axis=1)
    hit = np.flatnonzero(counts)
    lifted = []
    for b in hit:
        w, v = np.linalg.eigh(blocks[b])
        modes = bloch_modes(tube, p[b], 2.0 * np.pi * q[b] / tube.m, v[:, np.argsort(np.abs(w))[: counts[b]]])
        lifted += [modes.real, modes.imag]
    # the real and imaginary parts span the real near-null space, twice over
    # where a block and its conjugate block both hold modes
    basis = np.linalg.svd(np.hstack(lifted), full_matrices=False)[0][:, : np.sum(counts)] if len(hit) else None
    return [(int(p[b]), int(q[b]), int(counts[b])) for b in hit], basis


def _acoustic_ratio(tube: Nanotube, pots: PotentialSet, graph) -> float:
    """Cauchy-Born check on a family tube: the longitudinal acoustic curvature
    lambda(q)/q^2 of the block B(0, q) at the axial phase q = ACOUSTIC_Q,
    divided by e''(mu)/2, where e'' = reduced_hessian(mu, gamma, gamma)[0, 0]
    is the stretching stiffness of the reduced periodic model.

    The longitudinal branch is the eigenvector of B(0, q) closest to a
    uniform axial translation.  The ratio tends to 1 as q -> 0 when the
    long-wave stiffness of the atomistic Hessian is the reduced one.
    """
    w, v = np.linalg.eigh(bloch_blocks(tube, pots, [0], [ACOUSTIC_Q], graph)[0])
    axial = np.tile([0.5, 0.0, 0.0], 4)
    branch = np.argmax(np.abs(axial @ v))
    geom = tube.geometry
    stiffness = reduced_hessian(geom.mu, geom.gamma_ell, geom.gamma_ell, pots)[0, 0]
    return float(w[branch] / ACOUSTIC_Q**2 / (0.5 * stiffness))


def null_space_report(tube: Nanotube, pots: PotentialSet, acoustic: bool = False) -> dict:
    """Spectrum partition into near-null and positive parts plus the
    principal angles between the near-null eigenvectors and the isometry
    directions.

    On a family tube the spectrum is that of the Bloch blocks, each block's
    eigenvalues are near-null against that block's round-off (see
    BLOCK_NULL_ULPS), zero_tol is the largest of the blocks' thresholds,
    null_blocks lists (p, q, count) for each block with near-null
    eigenvalues, and only those blocks are solved for eigenvectors, which are
    lifted to an orthonormal real basis of the near-null space.  Any other
    tube takes one dense eigensolve with the threshold zero_tol =
    ZERO_TOL_REL * lam_max, and null_blocks is None.  max_principal_angle is
    None when there are no near-null modes.  With acoustic, the
    report also holds acoustic_ratio (see _acoustic_ratio) of a family tube,
    None on any other tube.  Raises NotStationaryError unless
    |grad| < GRAD_TOL_FACTOR * sqrt(n).
    """
    from scipy.linalg import subspace_angles

    graph = _stationary_graph(tube, pots)
    family = _is_family(tube, graph)
    if family:
        p, q, blocks, evals = _bloch_spectrum(tube, pots, graph)
        tol = BLOCK_NULL_ULPS * np.finfo(float).eps * np.max(np.abs(evals), axis=1, keepdims=True)
        near_null = np.abs(evals) <= tol
        null_blocks, null_vectors = _block_null_space(tube, p, q, blocks, near_null)
    else:
        evals, evecs = np.linalg.eigh(hessian(tube, pots, graph))
        tol = ZERO_TOL_REL * float(np.max(np.abs(evals)))
        near_null = np.abs(evals) < tol
        null_blocks, null_vectors = None, evecs[:, near_null]
    n_null = int(np.sum(near_null))
    max_angle = float(np.max(subspace_angles(isometry_directions(tube), null_vectors))) if n_null else None
    report = {
        "eigenvalues": np.sort(evals, axis=None),
        "lam_max": float(np.max(np.abs(evals))),
        "zero_tol": float(np.max(tol)),
        "n_near_null": n_null,
        "n_negative": int(np.sum(evals < -tol)),
        "rest_positive": bool(np.all(evals[~near_null] > 0.0)),
        "max_principal_angle": max_angle,
        "null_blocks": null_blocks,
    }
    if acoustic:
        report["acoustic_ratio"] = _acoustic_ratio(tube, pots, graph) if family else None
    return report
