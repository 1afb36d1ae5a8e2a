"""Bond graph under the axial periodic metric, configurational energy, gradient,
Hessian, and the Bloch blocks of the Hessian of a family tube.

Bonds are pairs at modulo-L distance strictly below BOND_CUTOFF; triples
share a vertex.  Sums run over unordered bonds and unordered angles: each bond
contributes one pair term and each angle one triple term, which matches the
closed-form family energy below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError
from .geometry import Nanotube, ZigzagGeometry, axial_rotations, check_positions
from .potentials import BOND_CUTOFF, PotentialSet


@dataclass
class BondGraph:
    """Unordered bonds plus derived angle triples of one n-cell.

    pairs[p] = (i, j) with i < j, in (i, j) order; pair_shifts[p] = t
    minimizing |x[i] - x[j] + t*L*e1|, which is bond p's vector d_p.
    triples[q] = (i, j, k) with vertex j and i < k, in (j, i, k) order.  Each
    leg of an angle is the vector of one of the graph's bonds, up to sign: the
    leg from x[j] to the minimal image of x[i] is
    leg_signs[q, 0] * d_(leg_bonds[q, 0]), the leg to x[k] likewise with
    column 1: the only source of angle legs, values and derivatives alike.
    """

    n: int
    L: float
    pairs: np.ndarray
    pair_shifts: np.ndarray
    triples: np.ndarray
    leg_bonds: np.ndarray
    leg_signs: np.ndarray

    @property
    def n_bonds(self) -> int:
        return len(self.pairs)

    @property
    def n_angles(self) -> int:
        return len(self.triples)

    def degrees(self) -> np.ndarray:
        return np.bincount(self.pairs.ravel(), minlength=self.n)


def _image_shift(dx, L: float):
    """Axial shift t = -rint(dx / L) of the nearest image (as floats); exact
    half-period ties keep t = 0."""
    return -np.rint(dx / L)


def image_distances(d: np.ndarray, L: float):
    """Nearest axial image of each difference vector d[..., p, :] = x[i] - x[j].

    Returns (t, dist): t = -rint(dx / L) from _image_shift, so exact
    half-period ties keep t = 0, and dist = |d + t*L*e1|.
    """
    t = _image_shift(d[..., 0], L)
    dx = d[..., 0] + t * L
    return t.astype(np.int64), np.sqrt(dx**2 + d[..., 1] ** 2 + d[..., 2] ** 2)


# Cells are this much wider than the search radius, so round-off in the binning
# cannot put two atoms closer than the radius two cells apart; at most this
# many cells per axis keep the int64 cell keys from overflowing.
_CELL_SLACK = 1e-6
_MAX_CELLS = 2**20
# A bond of at most this many ulps of its coordinate scale max|x| + |t| L, t
# its image shift, joins atoms that coincide modulo the period: x - (x - k L)
# - k L rounds to a few ulps of that scale, not to 0, and the legs of such a
# bond point anywhere.
_COINCIDENT_ULPS = 64.0
# the 13 cell offsets (ox, oy, oz) after (0, 0, 0) in key order
_HALF_SHELL = np.array(
    [(ox, oy, oz) for ox in (0, 1) for oy in (-1, 0, 1) for oz in (-1, 0, 1) if (ox, oy, oz) > (0, 0, 0)]
)


def near_pairs(pos: np.ndarray, L: float, radius: float):
    """All pairs i < j at modulo-L distance below radius, in (i, j) order.

    A half-shell cell list: atoms are binned into cells no narrower than
    radius (x wrapped into [0, L) for the binning only) and sorted by cell
    key; each atom is matched against the atoms after it in its own cell and
    against the 13 neighbouring cells that follow its cell in key order, so
    each pair of cells is visited once.  Those neighbours are looked up once
    per occupied cell, among the occupied cells.  Distances and shifts come
    from image_distances on the raw coordinates, so the result does not
    depend on which period the atoms were written in.  Returns (i, j, t, dist).
    Raises DegenerateGeometryError on input that check_positions refuses.
    """
    check_positions(pos, L)
    n = len(pos)
    h = radius * (1.0 + _CELL_SLACK)
    # with fewer than three axial cells, the cells at -1 and +1 would be one
    # cell and its pairs would be found twice
    nx = int(min(_MAX_CELLS, L // h))
    if nx < 3:
        nx = 1
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

    # occupied cell c holds the sorted places first[c] ... first[c] + size[c] - 1
    first = np.flatnonzero(np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1])))
    size = np.diff(np.append(first, n))
    occupied = sorted_keys[first]
    # the keys of the neighbour cells after each occupied cell, one row per
    # offset, each row (nearly) sorted
    offsets = _HALF_SHELL if nx > 1 else _HALF_SHELL[_HALF_SHELL[:, 0] == 0]
    lead = order[first]
    cx, cy, cz = cx[lead], cy[lead], cz[lead]
    keys = ((cx + offsets[:, :1]) % nx * ny + cy + offsets[:, 1:2]) * nz + cz + offsets[:, 2:]
    j = np.minimum(np.searchsorted(occupied, keys), len(occupied) - 1)
    met = occupied[j] == keys
    # the cell pairs (c, d) to search: each occupied cell with itself, then
    # with each occupied neighbour; an atom at sorted place s in c meets the
    # places lo ... hi - 1 of d, which in its own cell are those after s
    c = np.concatenate([np.arange(len(first)), np.nonzero(met)[1]])
    d = np.concatenate([np.arange(len(first)), j[met]])
    rep = size[c]
    lo = np.repeat(first[d], rep)
    hi = lo + np.repeat(size[d], rep)
    lo[:n] = np.arange(1, n + 1)
    s = np.repeat(first[c] - np.cumsum(rep) + rep, rep) + np.arange(len(lo))
    count = hi - lo
    a = np.repeat(order[s], count)
    b = order[np.repeat(lo - np.cumsum(count) + count, count) + np.arange(len(a))]
    a, b = np.minimum(a, b), np.maximum(a, b)
    t, dist = image_distances(pos[a] - pos[b], L)
    hit = dist < radius
    a, b, t, dist = a[hit], b[hit], t[hit], dist[hit]
    by_pair = np.argsort(a * n + b)
    return a[by_pair], b[by_pair], t[by_pair], dist[by_pair]


def _half_edges(pairs: np.ndarray):
    """Both directions of every bond in (vertex, neighbour) order, with the
    bond and the sign under which its vector is the leg from vertex to
    neighbour.

    Bond p = (a, b) has the vector d_p = x[a] - x[b] + t*L*e1, the leg from b
    to a; the leg from a toward b is -d_p.
    """
    vert = np.concatenate([pairs[:, 0], pairs[:, 1]])
    nbr = np.concatenate([pairs[:, 1], pairs[:, 0]])
    bond = np.tile(np.arange(len(pairs)), 2)
    sign = np.repeat([-1, 1], len(pairs))
    order = np.lexsort((nbr, vert))
    return vert[order], nbr[order], bond[order], sign[order]


def bond_graph(tube: Nanotube) -> BondGraph:
    """Build the bond graph of one n-cell (strict inequality at BOND_CUTOFF).

    Raises DegenerateGeometryError on non-finite positions or period, on
    coordinates of magnitude 2**510 or more, on axial coordinates 2**52 or
    more periods from the origin, on a period below 2 * BOND_CUTOFF (see
    geometry.check_positions), and on a bond within the round-off of the
    coordinates of zero length, whose legs have no direction.
    """
    check_positions(tube.positions, tube.period, BOND_CUTOFF)
    ii, jj, tt, dist = near_pairs(tube.positions, tube.period, BOND_CUTOFF)
    scale = np.max(np.abs(tube.positions)) + np.abs(tt) * tube.period
    if np.any(dist <= _COINCIDENT_ULPS * np.finfo(float).eps * scale):
        raise DegenerateGeometryError("zero-length bond leg")
    pairs = np.stack([ii, jj], axis=1)

    # every two legs at a vertex make one angle: half-edge e pairs with each
    # later half-edge of its vertex, in order
    vert, nbr, bond, sign = _half_edges(pairs)
    later = np.searchsorted(vert, vert, side="right") - np.arange(len(vert)) - 1
    first = np.repeat(np.arange(len(vert)), later)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    triples = np.stack([nbr[first], vert[first], nbr[second]], axis=1)
    legs = np.stack([bond[first], bond[second]], axis=1)
    signs = np.stack([sign[first], sign[second]], axis=1)
    return BondGraph(tube.n, tube.period, pairs, tt, triples, legs, signs)


# Explicit-component arithmetic on 3-vectors stored along the last axis, each
# added in the order numpy adds the same reduction (numpy 2.4): einsum adds a
# length-3 contraction as (c0 + c2) + c1 onto +0.0, np.linalg.norm as
# (c0 + c1) + c2.
def _dot3(a, b):
    """Dot products a . b over the last axis, added as einsum adds them; the
    final + 0.0 turns a -0.0 sum into einsum's +0.0 and changes nothing else."""
    return ((a[..., 0] * b[..., 0] + a[..., 2] * b[..., 2]) + a[..., 1] * b[..., 1]) + 0.0


def _norm3(a):
    """Euclidean norms over the last axis, added as np.linalg.norm adds them."""
    return np.sqrt((a[..., 0] * a[..., 0] + a[..., 1] * a[..., 1]) + a[..., 2] * a[..., 2])


def _cross3(a, b):
    """Cross products a x b over the last axis, each component as np.cross forms
    it; the result is stored component first, each component one block."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.moveaxis(np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]), 0, -1)


def _sum24(a):
    """Sums over the first axis, of length 24, added as np.sum adds 24
    contiguous values: numpy's pairwise summation keeps eight partials
    r_j = (a_j + a_{j+8}) + a_{j+16} and adds them as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), to its start value
    0.0.  np.sum over a strided 24-long axis rounds differently.  Overwrites a."""
    r = a[:8]
    r += a[8:16]
    r += a[16:]
    r[0::2] += r[1::2]
    r[0::4] += r[2::4]
    return (r[0] + r[4]) + 0.0


def _bond_vectors(pos, graph: BondGraph):
    """Vectors d_p of graph's bonds in each configuration of the stack pos."""
    # take keeps a stack's trial axis outermost in memory, so the per-trial
    # sums below add in the same order as for one configuration
    d = pos.take(graph.pairs[:, 0], axis=-2) - pos.take(graph.pairs[:, 1], axis=-2)
    d[..., 0] += graph.L * graph.pair_shifts
    return d


def _leg_vectors(d, graph: BondGraph, angles=slice(None)):
    """Legs (u, v) of the angles graph.triples[angles] from graph's bond
    vectors d: u = s0*d[b0], v = s1*d[b1], (b0, b1) = leg_bonds[q], (s0, s1)
    = leg_signs[q].  They are the legs x_i - x_j, x_k - x_j at their images
    but for the sign of an exact zero, which the term kernels' sums drop."""
    b, s = graph.leg_bonds[angles], graph.leg_signs[angles]
    return s[:, 0, None] * d.take(b[:, 0], axis=-2), s[:, 1, None] * d.take(b[:, 1], axis=-2)


def _bond_lengths(pos, graph: BondGraph):
    """Length of every bond of graph in each configuration of the stack pos."""
    return _norm3(_bond_vectors(pos, graph))


def _cos_angle(u, v, floor: float = 0.0, what: str = "zero-length bond leg", norms=None, sign=1.0):
    """(cos(theta), |u|, |v|) over the last axis, theta the angle between
    sign*u and v: the one angle formula, of bond angles, angle terms and cell
    plane angles.  norms, when the caller has them, are (|u|, |v|); sign is
    +-1, per angle or for all.  Raises DegenerateGeometryError(what) when a
    norm is <= floor."""
    nu, nv = (_norm3(u), _norm3(v)) if norms is None else norms
    if np.any(np.minimum(nu, nv) <= floor):
        raise DegenerateGeometryError(what)
    return np.clip(sign * _dot3(u, v) / (nu * nv), -1.0, 1.0), nu, nv


def _lengths_and_angles(pos, graph: BondGraph):
    """Bond lengths and angles of graph in each configuration of the stack pos;
    raises DegenerateGeometryError on a zero-length leg.

    The legs of _leg_vectors, with their signs put on the cosine instead of
    on every leg of the stack: angle q is the angle between s0*s1*d[b0] and
    d[b1], d the bond vectors, (b0, b1) = leg_bonds[q], (s0, s1) =
    leg_signs[q].  The angles are _leg_vectors' to the bit: a +-1 factor and
    the clip are exact, and arccos does not see the sign of a zero cosine.
    """
    d = _bond_vectors(pos, graph)
    r = _norm3(d)
    b, s = graph.leg_bonds, graph.leg_signs
    norms = (r.take(b[:, 0], axis=-1), r.take(b[:, 1], axis=-1))
    c = _cos_angle(d.take(b[:, 0], axis=-2), d.take(b[:, 1], axis=-2), norms=norms, sign=s[:, 0] * s[:, 1])[0]
    return r, np.arccos(c)


def total_energy(tube: Nanotube, pots: PotentialSet, graph: BondGraph | None = None, positions=None):
    """Pair energy over bonds plus angle energy over triples.

    With positions, a stack (..., n, 3) of configurations of tube's atoms at
    tube's period, all with bond graph graph, returns their energies as an
    array over the leading axes; each equals the float the tube of that
    configuration gives, to the bit.  Raises DegenerateGeometryError when
    two bonded atoms coincide.
    """
    if graph is None:
        graph = bond_graph(tube)
    pos = tube.positions if positions is None else positions
    e = np.zeros(pos.shape[:-2])
    if graph.n_bonds:
        r, theta = _lengths_and_angles(pos, graph)
        e += np.sum(pots.v2.value(r), axis=-1)
        if graph.n_angles:
            e += np.sum(pots.v3.value(theta), axis=-1)
    return float(e) if positions is None else e


def family_energy(geom: ZigzagGeometry, m: int, pots: PotentialSet) -> float:
    """Closed form for a family member: (n/2)(v2(l1)+2 v2(l2)) + n(2 v3(a)+v3(b))."""
    n = 4 * m * geom.ell
    pair = 0.5 * n * (pots.v2.value(geom.lambda1) + 2.0 * pots.v2.value(geom.lambda2))
    angle = n * (2.0 * pots.v3.value(geom.alpha) + pots.v3.value(geom.beta))
    return float(pair + angle)


# Legs of a term as rows over its atoms: a bond's d = x_i - x_j over (i, j);
# an angle's u = x_i - x_j and v = x_k - x_j over the triple's (i, j, k).
_BOND_LEGS = np.array([[1.0, -1.0]])
_ANGLE_LEGS = np.array([[1.0, -1.0, 0.0], [0.0, -1.0, 1.0]])
# d2v3/dc2 divides by sin(theta)^2; below this sin^2 its round-off error
# exceeds about 1e-6 of v3''.
_STRAIGHT_SIN2 = 1e-10


def _bond_term(d, v2, w=1.0, second=False):
    """Derivatives of the pair terms w*v2(|d|), one per leg d[t] = x_i - x_j.

    Returns (grad, block): grad[t] (2, 3) over the term's atoms (i, j) and,
    with second, the (2, 3, 2, 3) Hessian block [[K, -K], [-K, K]] with
    K = w (v2'' rh rh^T + (v2'/r)(I - rh rh^T)); otherwise block is None.
    Raises DegenerateGeometryError on a zero-length bond.
    """
    r = _norm3(d)
    if np.any(r == 0.0):
        raise DegenerateGeometryError("zero-length bond")
    d1 = w * v2.deriv(r)
    grad = np.einsum("ap,tx->tpx", _BOND_LEGS, (d1 / r)[:, None] * d)
    if not second:
        return grad, None
    rr = np.einsum("ti,tj->tij", d, d) / (r**2)[:, None, None]
    k = (w * v2.deriv2(r))[:, None, None] * rr + (d1 / r)[:, None, None] * (np.eye(3) - rr)
    return grad, np.einsum("ap,txy,aq->tpxqy", _BOND_LEGS, k, _BOND_LEGS)


def _angle_term(u, v, v3, w=1.0, second=False):
    """Derivatives of the angle terms w*v3(theta), theta the angle between the
    legs u[t] = x_i - x_j and v[t] = x_k - x_j, by the chain rule through
    c = cos(theta) = uh.vh (from _cos_angle).

    With gu = dc/du = P_u vh/|u|, gv = dc/dv, E_c = -w v3'/sin(theta) and
    E_cc = (w v3'' + E_c c)/sin(theta)^2, returns (grad, block): grad[t]
    (3, 3) over the atoms (i, j, k) from the leg gradients E_c gu, E_c gv and,
    with second, the (3, 3, 3, 3) Hessian block E_cc dc dc^T + E_c d2c, where
    d2c/du2 = -(gu uh^T + uh gu^T)/|u| - c P_u/|u|^2 and
    d2c/du dv = P_u P_v/(|u||v|), P_u = I - uh uh^T; otherwise block is None.
    Raises DegenerateGeometryError on a zero-length leg and, with second, on
    an angle within 1e-5 rad of 0 or pi.
    """
    c, nu, nv = _cos_angle(u, v)
    uh = u / nu[:, None]
    vh = v / nv[:, None]
    s = np.sqrt(np.maximum(1.0 - c**2, 1e-30))
    theta = np.arccos(c)
    e_c = -(w * v3.deriv(theta)) / s
    gu = (vh - c[:, None] * uh) / nu[:, None]
    gv = (uh - c[:, None] * vh) / nv[:, None]
    g = np.stack([gu, gv], axis=1)
    grad = np.einsum("ap,tax->tpx", _ANGLE_LEGS, e_c[:, None, None] * g)
    if not second:
        return grad, None
    if np.any(1.0 - c**2 < _STRAIGHT_SIN2):
        raise DegenerateGeometryError("angle within 1e-5 rad of 0 or pi: its curvature is lost to round-off")
    e_cc = (w * v3.deriv2(theta) + e_c * c) / s**2
    blocks = e_cc[:, None, None, None, None] * np.einsum("tax,tby->taxby", g, g)
    eye = np.eye(3)
    p_u = eye - np.einsum("ti,tj->tij", uh, uh)
    p_v = eye - np.einsum("ti,tj->tij", vh, vh)
    we = e_c[:, None, None]
    for a, (gl, hl, nl, pl) in enumerate(((gu, uh, nu, p_u), (gv, vh, nv, p_v))):
        outer = np.einsum("ti,tj->tij", gl, hl)
        d2c = -(outer + outer.transpose(0, 2, 1)) / nl[:, None, None] - (c / nl**2)[:, None, None] * pl
        blocks[:, a, :, a, :] += we * d2c
    cross = we * (p_u @ p_v) / (nu * nv)[:, None, None]
    blocks[:, 0, :, 1, :] += cross
    blocks[:, 1, :, 0, :] += cross.transpose(0, 2, 1)
    return grad, np.einsum("ap,taxby,bq->tpxqy", _ANGLE_LEGS, blocks, _ANGLE_LEGS)


def _add_blocks(hess, atoms, blocks):
    """Scatter-add per-term Hessian blocks, blocks[t, p, :, q, :] over the
    term's atoms atoms[t, p] and atoms[t, q], into the dense (3n, 3n) hess."""
    rows = (3 * atoms[:, :, None] + np.arange(3)).reshape(len(atoms), -1)
    flat = rows[:, :, None] * hess.shape[1] + rows[:, None, :]
    np.add.at(hess.reshape(-1), flat.ravel(), blocks.ravel())


def term_hessian(pos, graph: BondGraph, v2, v3, bond_weights=1.0, angle_weights=1.0) -> np.ndarray:
    """Dense (3n, 3n) Hessian of sum_p bond_weights[p] v2(r_p) + sum_q
    angle_weights[q] v3(theta_q) over graph at pos (n, 3), atom a in rows
    3a..3a+2: the blocks of _bond_term and _angle_term scatter-added."""
    hess = np.zeros((3 * graph.n, 3 * graph.n))
    d = _bond_vectors(pos, graph)
    if graph.n_bonds:
        _add_blocks(hess, graph.pairs, _bond_term(d, v2, bond_weights, second=True)[1])
    if graph.n_angles:
        _add_blocks(hess, graph.triples, _angle_term(*_leg_vectors(d, graph), v3, angle_weights, second=True)[1])
    return hess


def gradient(tube: Nanotube, pots: PotentialSet, graph: BondGraph | None = None) -> np.ndarray:
    """Analytic gradient of total_energy with respect to all positions at fixed L."""
    if graph is None:
        graph = bond_graph(tube)
    pos = tube.positions
    grad = np.zeros_like(pos)
    d = _bond_vectors(pos, graph)
    if graph.n_bonds:
        np.add.at(grad, graph.pairs, _bond_term(d, pots.v2)[0])
    if graph.n_angles:
        np.add.at(grad, graph.triples, _angle_term(*_leg_vectors(d, graph), pots.v3)[0])
    return grad


def hessian(tube: Nanotube, pots: PotentialSet, graph: BondGraph | None = None) -> np.ndarray:
    """Analytic Hessian of total_energy with respect to all positions at fixed
    L, as one dense (3n, 3n) term_hessian with unit weights.  It holds the
    gradient terms too, so it is the Hessian at any configuration with this
    bond graph, stationary or not.  Symmetric to round-off.
    """
    if graph is None:
        graph = bond_graph(tube)
    return term_hessian(tube.positions, graph, pots.v2, pots.v3)


def bloch_blocks(tube: Nanotube, pots: PotentialSet, p, q, graph: BondGraph | None = None) -> np.ndarray:
    """Bloch blocks B(p, q) of the Hessian of a family tube: a (len(p), 12, 12)
    complex Hermitian stack over the coordinates of the motif atoms 0..3.

    tube must be laid out as build_nanotube lays out a family tube, with graph
    its bond graph: atom (i, j, k, l) is motif atom 2k + l rotated by
    2*pi*(i-1)/ell about the axis and translated by j*mu, mu = L/m.  Written
    in each atom's motif frame (its 3-vector rotated by -2*pi*(i-1)/ell) the
    Hessian commutes with this Z_ell x Z_m action, so it is block diagonal in
    the Bloch basis, one 12x12 block per rotation index p (an integer) and
    axial phase q (radians per mu):

        B(p, q) = sum over the bonds and angles with a motif atom s of
                  R_s^T H_t[s, u] R_u exp(i (2 pi p (i_u - i_s)/ell + q (J_u - J_s)))

    over every atom u of the term, with H_t the term's Hessian block, R the
    rotation into the motif frame and J the axial cell of the atom's image
    counted in periods mu, image shifts included.  q = 2*pi*k/m, k = 0..m-1,
    give the tube's own blocks, whose eigenvalues together are those of
    hessian(tube); any real q is the Bloch phase of a longer tube.  Only the
    terms that touch the motif are evaluated, so there is no n x n array.
    """
    if graph is None:
        graph = bond_graph(tube)
    ell, L, pos = tube.ell, tube.period, tube.positions
    d = _bond_vectors(pos, graph)
    bonds = np.any(graph.pairs < 4, axis=1)
    angles = np.any(graph.triples < 4, axis=1)
    bond_shifts = graph.pair_shifts[bonds]
    leg_shifts = graph.leg_signs[angles] * graph.pair_shifts[graph.leg_bonds[angles]]
    # atoms, image shifts and Hessian blocks of the terms, one row per term
    terms = (
        (graph.pairs[bonds], np.stack([bond_shifts, np.zeros_like(bond_shifts)], axis=1),
         _bond_term(d[bonds], pots.v2, second=True)[1]),
        (graph.triples[angles], np.insert(leg_shifts, 1, 0, axis=1),
         _angle_term(*_leg_vectors(d, graph, angles), pots.v3, second=True)[1]),
    )
    offsets, rows, cols, parts = [], [], [], []
    for atoms, shifts, blocks in terms:
        kappa = atoms % 4
        turn = (atoms // 4) % ell
        cell = np.rint((pos[atoms, 0] + shifts * L - pos[kappa, 0]) / (L / tube.m)).astype(np.int64)
        rot = axial_rotations(2.0 * np.pi * turn / ell)
        local = np.einsum("tsxa,tsxuy,tuyb->tsuab", rot, blocks, rot)
        t, s = np.nonzero(atoms < 4)
        offsets.append(np.stack([(turn[t] - turn[t, s, None]) % ell, cell[t] - cell[t, s, None]], axis=-1).reshape(-1, 2))
        rows.append(np.broadcast_to(kappa[t, s, None], kappa[t].shape).ravel())
        cols.append(kappa[t].ravel())
        parts.append(local[t, s].reshape(-1, 3, 3))
    offsets, inverse = np.unique(np.concatenate(offsets), axis=0, return_inverse=True)
    coupling = np.zeros((len(offsets), 4, 4, 3, 3))
    np.add.at(coupling, (inverse.ravel(), np.concatenate(rows), np.concatenate(cols)), np.concatenate(parts))
    coupling = coupling.transpose(0, 1, 3, 2, 4).reshape(len(offsets), 144)
    phase = np.exp(1j * (2.0 * np.pi / ell * np.outer(p, offsets[:, 0]) + np.outer(q, offsets[:, 1])))
    return (phase @ coupling).reshape(-1, 12, 12)


def bloch_modes(tube: Nanotube, p: int, q: float, amplitudes: np.ndarray) -> np.ndarray:
    """The complex 3n-vectors of the Bloch modes of block B(p, q) (see
    bloch_blocks) whose motif-frame amplitudes are the columns of amplitudes
    (12, k): atom (i, j, k, l) moves by R_i a_(2k+l) exp(i (2 pi p (i-1)/ell
    + q j)), with R_i the rotation by 2*pi*(i-1)/ell about the axis."""
    ell, m = tube.ell, tube.m
    turn, cell = np.arange(ell), np.arange(m)
    phase = np.exp(1j * (2.0 * np.pi / ell * p * turn[None, :] + q * cell[:, None]))
    rot = axial_rotations(2.0 * np.pi * turn / ell)
    modes = np.einsum("ji,ixy,cyk->jicxk", phase, rot, amplitudes.reshape(4, 3, -1))
    return modes.reshape(3 * tube.n, -1)
