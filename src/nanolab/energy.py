"""Bond graph under the axial periodic metric, configurational energy, gradient.

Bonds are pairs at modulo-L distance strictly below 1.1; triples share a
vertex.  Sums run over unordered bonds and unordered angles: each bond
contributes one pair term and each angle one triple term, which matches the
closed-form family energy below.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateGeometryError
from .geometry import Nanotube, ZigzagGeometry
from .potentials import PotentialSet

E1 = np.array([1.0, 0.0, 0.0])
BOND_CUTOFF = 1.1


def periodic_distance(x, y, L: float):
    """Distance modulo L along the first axis: min over t in {-1,0,+1} of |x-y+L*t*e1|.

    Returns (distance, t); ties resolve to t = 0.
    """
    if L <= 0:
        raise ValueError("period L must be positive")
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    best_t = 0
    best = np.inf
    for t in (0, -1, 1):
        dist = float(np.linalg.norm(d + L * t * E1))
        if dist < best:
            best, best_t = dist, t
    return best, best_t


@dataclass
class BondGraph:
    """Unordered bonds plus derived angle triples of one n-cell.

    pairs[p] = (i, j) with i < j, in (i, j) order; pair_shifts[p] = t
    minimizing |x[i] - x[j] + t*L*e1|.  triples[q] = (i, j, k) with vertex j
    and i < k, in (j, i, k) order; the per-leg shifts give the minimal images
    of x[i], x[k] seen from x[j].
    """

    n: int
    L: float
    pairs: np.ndarray
    pair_shifts: np.ndarray
    triples: np.ndarray
    triple_shifts: np.ndarray

    @property
    def n_bonds(self) -> int:
        return len(self.pairs)

    @property
    def n_angles(self) -> int:
        return len(self.triples)

    def degrees(self) -> np.ndarray:
        return np.bincount(self.pairs.ravel(), minlength=self.n)

    def pair_set(self) -> set:
        return {(int(a), int(b)) for a, b in self.pairs}

    @cached_property
    def adjacency(self) -> list:
        """adjacency[a] = [(b, t), ...] in b order: the leg from a to b uses shift t."""
        vert, nbr, leg = _half_edges(self.pairs, self.pair_shifts)
        cuts = np.searchsorted(vert, np.arange(1, self.n))
        return [list(zip(b.tolist(), t.tolist())) for b, t in zip(np.split(nbr, cuts), np.split(leg, cuts))]


def image_distances(d: np.ndarray, L: float):
    """Nearest axial image of each difference vector d[p] = x[i] - x[j].

    Returns (t, dist): t = -rint(dx / L), so exact half-period ties keep t = 0,
    and dist = |d + t*L*e1|.
    """
    t = -np.rint(d[:, 0] / L)
    dx = d[:, 0] + t * L
    return t.astype(np.int64), np.sqrt(dx**2 + d[:, 1] ** 2 + d[:, 2] ** 2)


# Cells are this much wider than the search radius, so round-off in the binning
# cannot put two atoms closer than the radius two cells apart; at most this
# many cells per axis keep the int64 cell keys from overflowing.
_CELL_SLACK = 1e-6
_MAX_CELLS = 2**20


def near_pairs(pos: np.ndarray, L: float, radius: float):
    """All pairs i < j at modulo-L distance below radius, in (i, j) order.

    A cell list: atoms are binned into cells no narrower than radius (x wrapped
    into [0, L) for the binning only), sorted by cell key, and matched against
    the 27 neighbouring cells.  Distances and shifts come from image_distances
    on the raw coordinates, so the result does not depend on which period
    the atoms were written in.  Returns (i, j, t, dist).
    Raises DegenerateGeometryError on non-finite input, which the binning
    would otherwise cast to arbitrary integers.
    """
    if not (np.isfinite(L) and L > 0 and np.all(np.isfinite(pos))):
        raise DegenerateGeometryError("positions and period must be finite, with period > 0")
    n = len(pos)
    h = radius * (1.0 + _CELL_SLACK)
    nx = int(min(_MAX_CELLS, max(1.0, L // h)))
    cx = np.floor(np.mod(pos[:, 0], L) / (L / nx)).astype(np.int64) % nx

    def bins(v):
        # 1-based, so the neighbour at -1 still has a nonnegative key
        lo, hi = v.min(), v.max()
        return np.floor((v - lo) / max(h, (hi - lo) / _MAX_CELLS)).astype(np.int64) + 1

    cy, cz = bins(pos[:, 1]), bins(pos[:, 2])
    ny, nz = int(cy.max()) + 2, int(cz.max()) + 2
    cell = (cx * ny + cy) * nz + cz
    order = np.argsort(cell, kind="stable")
    sorted_keys = cell[order]

    # with fewer than three axial cells, -1 and +1 name the same cell
    offsets = np.array(
        [(ox, oy, oz) for ox in sorted({o % nx for o in (-1, 0, 1)}) for oy in (-1, 0, 1) for oz in (-1, 0, 1)]
    )
    keys = (((cx[:, None] + offsets[:, 0]) % nx * ny + cy[:, None] + offsets[:, 1]) * nz
            + cz[:, None] + offsets[:, 2]).ravel()
    lo = np.searchsorted(sorted_keys, keys, side="left")
    count = np.searchsorted(sorted_keys, keys, side="right") - lo
    a = np.repeat(np.repeat(np.arange(n), len(offsets)), count)
    b = order[np.repeat(lo - np.cumsum(count) + count, count) + np.arange(len(a))]
    keep = a < b
    a, b = a[keep], b[keep]
    t, dist = image_distances(pos[a] - pos[b], L)
    hit = dist < radius
    a, b, t, dist = a[hit], b[hit], t[hit], dist[hit]
    by_pair = np.argsort(a * n + b)
    return a[by_pair], b[by_pair], t[by_pair], dist[by_pair]


def _half_edges(pairs: np.ndarray, shifts: np.ndarray):
    """Both directions of every bond in (vertex, neighbour) order, with the
    shift of the leg from vertex to neighbour.

    pair_shifts[p] minimizes |pos[a] - pos[b] + t*L*e1|, i.e. the leg a-as-seen-
    from-b; the leg from a toward b therefore uses -t.
    """
    vert = np.concatenate([pairs[:, 0], pairs[:, 1]])
    nbr = np.concatenate([pairs[:, 1], pairs[:, 0]])
    leg = np.concatenate([-shifts, shifts])
    order = np.lexsort((nbr, vert))
    return vert[order], nbr[order], leg[order]


def bond_graph(tube: Nanotube, cutoff: float = BOND_CUTOFF) -> BondGraph:
    """Build the bond graph of one n-cell (strict inequality at the cutoff).

    Raises DegenerateGeometryError on non-finite positions or period.
    """
    ii, jj, tt, _ = near_pairs(tube.positions, tube.period, cutoff)
    pairs = np.stack([ii, jj], axis=1)

    # every two legs at a vertex make one angle: half-edge e pairs with each
    # later half-edge of its vertex, in order
    vert, nbr, leg = _half_edges(pairs, tt)
    later = np.searchsorted(vert, vert, side="right") - np.arange(len(vert)) - 1
    first = np.repeat(np.arange(len(vert)), later)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    triples = np.stack([nbr[first], vert[first], nbr[second]], axis=1)
    triple_shifts = np.stack([leg[first], leg[second]], axis=1)
    return BondGraph(tube.n, tube.period, pairs, tt, triples, triple_shifts)


def bond_angle(xi, xj, xk, L: float = 0.0, shift_i: int = 0, shift_k: int = 0) -> float:
    """Angle at vertex xj formed by the (periodically shifted) legs to xi and xk."""
    u = np.asarray(xi, dtype=float) - np.asarray(xj, dtype=float) + L * shift_i * E1
    v = np.asarray(xk, dtype=float) - np.asarray(xj, dtype=float) + L * shift_k * E1
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise DegenerateGeometryError("zero-length bond leg in angle evaluation")
    c = np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0)
    return float(np.arccos(c))


def _bond_vectors(pos, graph: BondGraph):
    i, j = graph.pairs[:, 0], graph.pairs[:, 1]
    d = pos[i] - pos[j]
    d[:, 0] += graph.L * graph.pair_shifts
    return d


def _leg_vectors(pos, graph: BondGraph):
    t = graph.triples
    u = pos[t[:, 0]] - pos[t[:, 1]]
    v = pos[t[:, 2]] - pos[t[:, 1]]
    u[:, 0] += graph.L * graph.triple_shifts[:, 0]
    v[:, 0] += graph.L * graph.triple_shifts[:, 1]
    return u, v


def total_energy(tube: Nanotube, pots: PotentialSet, graph: BondGraph | None = None) -> float:
    """Pair energy over bonds plus angle energy over triples."""
    if graph is None:
        graph = bond_graph(tube, cutoff=pots.cutoff)
    pos = tube.positions
    e = 0.0
    if graph.n_bonds:
        d = np.linalg.norm(_bond_vectors(pos, graph), axis=1)
        e += float(np.sum(pots.v2.value(d)))
    if graph.n_angles:
        u, v = _leg_vectors(pos, graph)
        nu = np.linalg.norm(u, axis=1)
        nv = np.linalg.norm(v, axis=1)
        c = np.clip(np.einsum("ij,ij->i", u, v) / (nu * nv), -1.0, 1.0)
        e += float(np.sum(pots.v3.value(np.arccos(c))))
    return e


def family_energy(geom: ZigzagGeometry, m: int, pots: PotentialSet) -> float:
    """Closed form for a family member: (n/2)(v2(l1)+2 v2(l2)) + n(2 v3(a)+v3(b))."""
    n = 4 * m * geom.ell
    pair = 0.5 * n * (pots.v2.value(geom.lambda1) + 2.0 * pots.v2.value(geom.lambda2))
    angle = n * (2.0 * pots.v3.value(geom.alpha) + pots.v3.value(geom.beta))
    return float(pair + angle)


def gradient(tube: Nanotube, pots: PotentialSet, graph: BondGraph | None = None) -> np.ndarray:
    """Analytic gradient of total_energy with respect to all positions at fixed L."""
    if graph is None:
        graph = bond_graph(tube, cutoff=pots.cutoff)
    pos = tube.positions
    grad = np.zeros_like(pos)
    if graph.n_bonds:
        d = _bond_vectors(pos, graph)
        r = np.linalg.norm(d, axis=1)
        if np.any(r == 0.0):
            raise DegenerateGeometryError("zero-length bond")
        coef = (pots.v2.deriv(r) / r)[:, None] * d
        np.add.at(grad, graph.pairs[:, 0], coef)
        np.add.at(grad, graph.pairs[:, 1], -coef)
    if graph.n_angles:
        u, v = _leg_vectors(pos, graph)
        nu = np.linalg.norm(u, axis=1)
        nv = np.linalg.norm(v, axis=1)
        if np.any(nu == 0.0) or np.any(nv == 0.0):
            raise DegenerateGeometryError("zero-length bond leg")
        uh = u / nu[:, None]
        vh = v / nv[:, None]
        c = np.clip(np.einsum("ij,ij->i", uh, vh), -1.0, 1.0)
        s = np.sqrt(np.maximum(1.0 - c**2, 1e-30))
        w = pots.v3.deriv(np.arccos(c)) / s
        # d(theta)/d(leg): -(vh - c*uh)/(|u|) etc., with the chain sign from arccos
        gi = -w[:, None] * (vh - c[:, None] * uh) / nu[:, None]
        gk = -w[:, None] * (uh - c[:, None] * vh) / nv[:, None]
        t = graph.triples
        np.add.at(grad, t[:, 0], gi)
        np.add.at(grad, t[:, 2], gk)
        np.add.at(grad, t[:, 1], -(gi + gk))
    return grad
