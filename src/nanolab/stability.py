"""Monte-Carlo verification that the optimal periodic tube is a strict local
minimizer: seeded perturbation ensembles with a preserved bond graph, and the
full configurational Hessian spectrum of a family tube from its line-group
Bloch blocks.  A tube's line-group symmetry, checked on its positions and
labels, admits it to the spectrum; any other tube is refused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cells import total_symmetry_defect
from .energy import _norm3, bloch_table, bond_graph, image_distances, near_pairs, total_energy
from .errors import EtaTooLargeError, InvalidParameterError, NotStationaryError
from .geometry import Nanotube, build_nanotube, check_positions, gamma
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
# bounds its memory at any n.  Each chunk also pays a fixed ~0.5 ms of numpy
# call overhead.  Medians of in-process ensembles, 2**12 -> 2**13 atoms, with
# freed memory kept mapped as the nanolab process keeps it
# (cli._keep_freed_memory_mapped): 168 -> 147 ms at n = 192 (1000 samples),
# 191 -> 136 ms at 768 (300) and 272 -> 159 ms at 3072 (100), with no page
# faults.  With glibc's default settings: 219 -> 208, 262 -> 227 and
# 236 -> 306 ms, with 25 000 .. 34 000 minor faults, except 900 for 2**12 at
# 3072.  2**14 was faster still with freed memory mapped, at a higher peak
# memory, and faulted more under the defaults.
_CHUNK_ATOMS = 2**13
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
    base energy are recorded as counterexamples (with positions), not raised,
    and passed is True when there is none.  n_pinned counts the inner
    variables of the base tube's reduced solve pinned at a box bound.
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
        "n_pinned": fam.n_pinned,
        "passed": not failures,
    }
    return report


# stationarity guard of null_space_report: |grad| < GRAD_TOL_FACTOR * sqrt(n)
GRAD_TOL_FACTOR = 1e-7
# A tube takes the Bloch blocks when its _symmetry_residual is at most
# SYMMETRY_ULPS * eps * max(max|x|, L).  The residual is round-off of the
# angles pi*(2i + k)/ell and of their rotations, a few eps of the radius.
# Soft and stiff family tubes at (8, 1), (12, 4), (16, 2), (24, 4), (24, 16),
# (48, 16), (96, 32), (112, 1), (200, 1), (384, 1) and (512, 1), built, moved
# by 0.37 L, by -2, -1.3 and 2 periods, and by -1.6 L and wrapped, rotated by
# 0.9 rad, shifted by (0.4, 1.3, -0.2) and relabelled by (i, j) ->
# (i + 3, j + 1), measured at most 12.2 eps * max(max|x|, L) (stiff (512, 1)
# rotated).  A Gaussian 1e-9 perturbation of each gives 2.0e5 .. 5.7e6.
SYMMETRY_ULPS = 64.0
# An eigenvalue is near-null when |lambda| <= BLOCK_NULL_ULPS * eps * lam_max,
# with lam_max the largest |lambda| of its own Bloch block.
# The flexural modes shrink like ell^-4 relative to the largest eigenvalue of
# the tube, but not relative to their own block.  At mu_us + 0.01, ell = 4 ..
# 512, m = 1 and 4 and both presets, the isometries measured at most
# 52 eps ||B|| (stiff, ell = 384) and the softest non-null mode at least
# 290 eps ||B|| (stiff, ell = 512).  At mu_us the rule miscounts: built stiff
# (240, 1) and (256, 1) report 6 near-null modes, the ring blocks (+-2, 0)
# falling below the threshold, and (320, 1) reports 8 (ROADMAP item 17).
BLOCK_NULL_ULPS = 100.0
# Axial Bloch phase (radians per period mu) at which acoustic_ratio reads the
# long-wave curvature; the ratio's error from q > 0 is of order q^2.
ACOUSTIC_Q = 1e-3


def _symmetry_residual(tube: Nanotube, centroid) -> float:
    """Largest |x(i, j, k, l) - c - T_j R_(i-1) (x(1, 0, k, l) - c)| over the
    atoms, read at their flat_index labels, with the axial part taken modulo
    L: T_j the translation by j*L/m, R_(i-1) the rotation by 2*pi*(i-1)/ell
    about e1 and c = (0, *centroid), centroid the transverse centroid of the
    positions.  inf when n is not 4*ell*m."""
    ell, m, L = tube.ell, tube.m, tube.period
    if tube.n != 4 * ell * m:
        return np.inf
    rel = (tube.positions - np.array([0.0, *centroid])).reshape(m, ell, 4, 3)
    angles = 2.0 * np.pi * np.arange(ell) / ell
    cos, sin = np.cos(angles)[:, None], np.sin(angles)[:, None]
    # the motif rotated to each turn, in closed form
    x, y, z = rel[0, 0].T
    turned = np.empty((ell, 4, 3))
    turned[..., 0] = x
    turned[..., 1] = cos * y - sin * z
    turned[..., 2] = sin * y + cos * z
    dev = rel - turned
    dev[..., 0] -= (L / m * np.arange(m))[:, None, None]
    dev[..., 0] -= L * np.rint(dev[..., 0] / L)
    return float(np.max(_norm3(dev)))


def _signed_labels(n: int) -> np.ndarray:
    """The n irrep labels of Z_n in ascending order, -(n-1)//2 .. n//2."""
    return np.arange(-((n - 1) // 2), n // 2 + 1)


def _bloch_spectrum(table):
    """Labels p, q, the blocks B(p, 2*pi*q/m) of every irrep of a family tube
    and each block's ascending eigenvalues, one row per block in (p, q) order.
    Of each pair (p, q), (-p, -q) inside the label range one block is solved;
    the other is its conjugate, with its eigenvalues (see energy.BlochTable)."""
    p, q = np.meshgrid(_signed_labels(table.ell), _signed_labels(table.m), indexing="ij")
    p, q = p.ravel(), q.ravel()
    hp, hq = (table.ell - 1) // 2, (table.m - 1) // 2
    partner = (hp - p) * table.m + hq - q
    copied = (np.abs(p) <= hp) & (np.abs(q) <= hq) & (partner < np.arange(len(p)))
    blocks = np.empty((len(p), 12, 12), complex)
    evals = np.empty((len(p), 12))
    blocks[~copied] = table.blocks(p[~copied], 2.0 * np.pi * q[~copied] / table.m)
    evals[~copied] = np.linalg.eigvalsh(blocks[~copied])
    # + 0.0 gives an imaginary part that is exactly zero the evaluation's +0.0
    blocks[copied] = blocks[partner[copied]].conj() + 0.0
    evals[copied] = evals[partner[copied]]
    return p, q, blocks, evals


# The isometry amplitudes that do not depend on the tube (see
# _isometry_amplitudes): the axial translation in column 0, the transverse
# translations (0, 1, +-i) in columns 2 and 3, and the label p of each
# column's block before it is folded into the label range.
_AXIAL = np.tile([0.5, 0.0, 0.0], 4)
_SHIFT = np.tile([0.0, 1.0, 1j], 4) / np.sqrt(8.0)
_AMPLITUDES = np.stack([_AXIAL, np.zeros(12), _SHIFT, _SHIFT.conj()], axis=1)
_AMPLITUDE_LABELS = np.array([0, 0, 1, -1])


def _isometry_amplitudes(tube: Nanotube, centroid):
    """(labels, amplitudes): the four isometries at fixed L as unit amplitudes
    (12, 4) of the Bloch blocks B(labels[k], 0), as in energy.BlochTable, those
    of one block orthonormal: the axial translation (1, 0, 0) and the rotation
    e1 x (x_s - c) of motif atom s about c = (0, *centroid), the transverse
    centroid, in B(0, 0), the transverse translations (0, 1, +-i) in
    B(+-1, 0), p in label range."""
    rel = tube.positions[:4, 1:] - centroid
    spin = np.stack([np.zeros(4), -rel[:, 1], rel[:, 0]], axis=1).ravel()
    amplitudes = _AMPLITUDES.copy()
    amplitudes[:, 1] = spin / np.linalg.norm(spin)
    half = (tube.ell - 1) // 2
    return (_AMPLITUDE_LABELS + half) % tube.ell - half, amplitudes


def _largest_principal_angle(a: np.ndarray, b: np.ndarray) -> float:
    """Largest principal angle between the spans of orthonormal columns a and
    b, real or complex: the arcsine of ||(I - L L^H) S||_2, S the smaller set
    and L the other, or above pi/4 the arccos of the smallest singular value
    of L^H S, which resolves angles near pi/2 (A. V. Knyazev and M. E.
    Argentati, SIAM J. Sci. Comput. 23, 2002)."""
    small, large = (a, b) if a.shape[1] <= b.shape[1] else (b, a)
    cosines = large.conj().T @ small
    sine = np.linalg.svd(small - large @ cosines, compute_uv=False)[0]
    if sine**2 <= 0.5:
        return float(np.arcsin(min(sine, 1.0)))
    return float(np.arccos(min(np.linalg.svd(cosines, compute_uv=False)[-1], 1.0)))


def _block_null_space(tube: Nanotube, centroid, p, q, blocks, near_null):
    """(p, q, count) of each Bloch block with near-null eigenvalues, marked
    by near_null[b], and the largest principal angle between the near-null
    space and the isometries about the transverse centroid centroid
    (_isometry_amplitudes): the largest of those blocks' angles, the Bloch
    basis being unitary (A. Bjorck and G. H. Golub, Math. Comp. 27, 1973),
    or pi/2 when the blocks pair fewer than min(4, count) directions."""
    counts = np.sum(near_null, axis=1)
    hit = np.flatnonzero(counts)
    w, v = np.linalg.eigh(blocks[hit])
    labels, amplitudes = _isometry_amplitudes(tube, centroid)
    paired, angle = 0, 0.0
    for k, b in enumerate(hit):
        isometries = amplitudes[:, labels == p[b]]
        if q[b] == 0 and isometries.shape[1]:
            paired += min(isometries.shape[1], counts[b])
            angle = max(angle, _largest_principal_angle(isometries, v[k][:, np.argsort(np.abs(w[k]))[: counts[b]]]))
    angle = angle if paired == min(4, np.sum(counts)) else np.pi / 2
    return [(int(p[b]), int(q[b]), int(counts[b])) for b in hit], angle


def _acoustic_ratio(tube: Nanotube, pots: PotentialSet, table) -> float:
    """Cauchy-Born check on a family tube: the longitudinal acoustic curvature
    lambda(q)/q^2 of the block B(0, q) at the axial phase q = ACOUSTIC_Q,
    divided by e''(mu)/2, where e'' = reduced_hessian(mu, gamma_ell,
    gamma_ell)[0, 0] is the stretching stiffness of the reduced periodic
    model at the tube's own period per cell, mu = L/m.

    The longitudinal branch is the eigenvector of B(0, q) closest to a
    uniform axial translation.  The ratio tends to 1 as q -> 0 when the
    long-wave stiffness of the atomistic Hessian is the reduced one.
    """
    w, v = np.linalg.eigh(table.blocks([0], [ACOUSTIC_Q])[0])
    branch = np.argmax(np.abs(_AXIAL @ v))
    g = gamma(tube.ell)
    stiffness = reduced_hessian(tube.period / tube.m, g, g, pots)[0, 0]
    return float(w[branch] / ACOUSTIC_Q**2 / (0.5 * stiffness))


def null_space_report(tube: Nanotube, pots: PotentialSet, acoustic: bool = False) -> dict:
    """Spectrum partition into near-null and positive parts plus the
    principal angles between the near-null eigenvectors and the isometry
    directions, from the line-group Bloch blocks of one energy.bloch_table.

    The tube must pass geometry.check_positions with the bond cutoff (else
    DegenerateGeometryError) and be a family tube of its labels: its
    _symmetry_residual at most SYMMETRY_ULPS * eps * max(max|x|, L), and
    each motif atom of degree 3 (energy.bloch_table).  Moved, rotated,
    shifted and relabelled copies of a built tube pass; anything else raises
    InvalidParameterError, naming the residual and its bound, or the motif
    degrees.  Each block's eigenvalues are near-null against that block's
    round-off (see BLOCK_NULL_ULPS), zero_tol is the largest of the blocks'
    thresholds, null_blocks lists (p, q, count) for each block with near-null
    eigenvalues, and only those blocks are solved for eigenvectors, and the
    principal angles against the isometry directions are measured inside
    them, with no 3n-vector built.  max_principal_angle is None when there
    are no near-null modes.  With acoustic, the report also holds
    acoustic_ratio (see _acoustic_ratio), read at mu = L/m.  Raises
    NotStationaryError unless |grad| < GRAD_TOL_FACTOR * sqrt(n), |grad|
    read as sqrt(ell * m) times that of the motif (see energy.BlochTable).
    """
    check_positions(tube.positions, tube.period, BOND_CUTOFF)
    centroid = np.mean(tube.positions[:, 1:], axis=0)
    residual = _symmetry_residual(tube, centroid)
    bound = SYMMETRY_ULPS * np.finfo(float).eps * max(float(np.max(np.abs(tube.positions))), tube.period)
    if not residual <= bound:
        raise InvalidParameterError(
            f"not a family tube of its labels (ell, m) = ({tube.ell}, {tube.m}): symmetry residual "
            f"{residual:.3e} (bound {bound:.3e})"
        )
    table = bloch_table(tube, pots)
    grad_norm = np.sqrt(tube.ell * tube.m) * np.linalg.norm(table.gradient)
    if grad_norm >= GRAD_TOL_FACTOR * np.sqrt(tube.n):
        raise NotStationaryError(f"gradient norm {grad_norm:.3e} exceeds {GRAD_TOL_FACTOR * np.sqrt(tube.n):.3e}")
    p, q, blocks, evals = _bloch_spectrum(table)
    tol = BLOCK_NULL_ULPS * np.finfo(float).eps * np.max(np.abs(evals), axis=1, keepdims=True)
    near_null = np.abs(evals) <= tol
    null_blocks, angle = _block_null_space(tube, centroid, p, q, blocks, near_null)
    n_null = int(np.sum(near_null))
    report = {
        "eigenvalues": np.sort(evals, axis=None),
        "lam_max": float(np.max(np.abs(evals))),
        "zero_tol": float(np.max(tol)),
        "n_near_null": n_null,
        "n_negative": int(np.sum(evals < -tol)),
        "rest_positive": bool(np.all(evals[~near_null] > 0.0)),
        "max_principal_angle": angle if n_null else None,
        "null_blocks": null_blocks,
    }
    if acoustic:
        report["acoustic_ratio"] = _acoustic_ratio(tube, pots, table)
    return report
