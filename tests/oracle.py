"""Independent references the fast paths are tested against: the brute-force
bond graph (pair search and perturbation sampler) with its angle legs looked
up among its bonds, the angle legs gathered from the positions instead of
read from the bond references (the angles, gradient, Hessian, Bloch blocks
and cellspec.t_jacobian on them), the weighted cell-energy
gradient and the tilde energy (the weighted sum over the values of
cellspec.t_map), the finite-difference stencils of the analytic derivatives
(energy.hessian, cellspec.cell_hessian, cellspec.t_jacobian, the angle-sum
Hessian in cellspec.angle_sum_concavity, reduced.reduced_hessian,
ReducedSolution.minimizer_derivative), the brute-force family minimizer
(reduced.minimize_family), the one-point-at-a-time inner Newton solve
(reduced.reduced_solve), the np.clip form of reduced.beta, the reference
angles with the Newton polish run to its step cap
(reduced.reference_angles), the one-eigensolve-per-point dual scan
(cellspec.constrained_rayleigh_min), the scan-plus-bisection fracture
threshold of one m (fracture.fracture_scaling) and the one-trial-at-a-time
stability ensemble with a bond graph rebuilt for every draw
(stability.stability_trial).  The
paper's per-cell lower-bound certificate lives here too: it is a check on a
tube, run only by the tests.

Also the per-value text I/O that pxyz.format_table, pxyz.write_pxyz and
pxyz.read_pxyz replace, the bond-graph walk that finds one cell's atoms
(checks cells.cell_atom_indices), the scalar bond angle, plane angle and
neighbor table (on atom labels, with the inverse of geometry.flat_index)
behind the vectorised cell and graph formulas, the two cell
reflections, and the einsum, np.cross and np.linalg.norm forms of the energy,
cell-angle, cell-frame and symmetry-defect kernels and the per-trial
displacement draw that the explicit-component kernels and the chunked sampler
must equal to the bit."""

import math
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from nanolab import cells as _cells
from nanolab.cells import (
    _UNWRAP_CHAIN,
    ANGLE_SLOTS,
    BOND_SLOTS,
    CELL_GRAPH,
    cell_angles,
    cell_atom_indices,
    cell_bond_lengths,
    cell_energies,
    cell_plane_angles,
    cell_summary,
    gather_cells,
)
from nanolab.energy import (
    BondGraph,
    _add_blocks,
    _angle_term,
    _bond_lengths,
    _bond_term,
    _bond_vectors,
    _cos_angle,
    _image_shift,
    bond_graph,
)
from nanolab.errors import DegenerateGeometryError, DomainError, InvalidCellError, PxyzFormatError
from nanolab.geometry import Nanotube, axial_rotations, flat_index

E1 = np.array([1.0, 0.0, 0.0])


def pairs_brute(pos: np.ndarray, L: float, cutoff: float):
    """O(n^2) nearest-image pair search under the modulo-L metric: each axial
    difference is first brought within about half a period by t0 = -rint(dx / L),
    then the images t0 + {0, -1, +1} are scanned for the nearest.

    Returns (i, j, shift) for the pairs i < j at distance below cutoff, in
    (i, j) order, plus the full distance matrix.
    """
    d = pos[:, None, :] - pos[None, :, :]
    t0 = -np.rint(d[..., 0] / L)
    dx = d[..., 0] + t0 * L
    cand = np.stack([dx, dx - L, dx + L])
    k = np.argmin(np.abs(cand), axis=0)
    shifts = t0.astype(np.int64) + np.array([0, -1, 1])[k]
    dxw = np.take_along_axis(cand, k[None], axis=0)[0]
    dist = np.sqrt(dxw**2 + d[..., 1] ** 2 + d[..., 2] ** 2)
    ii, jj = np.where(np.triu(dist < cutoff, k=1))
    return ii, jj, shifts[ii, jj], dist


def adjacency(pairs, pair_shifts, n: int) -> list:
    """adjacency[a] = [(b, t), ...] in b order over the n atoms of a bond
    graph's pairs: the leg from a to b uses shift t (a pair (i, j) with shift
    t is the leg j -> i at t and i -> j at -t)."""
    adj = [[] for _ in range(n)]
    for (a, b), t in zip(np.asarray(pairs).tolist(), np.asarray(pair_shifts).tolist()):
        adj[a].append((b, -t))
        adj[b].append((a, t))
    return [sorted(row) for row in adj]


def graph_brute(tube, cutoff: float = 1.1):
    """(pairs, pair_shifts, triples, triple_shifts) from the brute pair search
    and a Python loop over the angle triples at each vertex."""
    ii, jj, tt, _ = pairs_brute(tube.positions, tube.period, cutoff)
    pairs = np.stack([ii, jj], axis=1) if len(ii) else np.zeros((0, 2), dtype=int)
    adj = adjacency(pairs, tt, tube.n)
    trip, tsh = [], []
    for j in range(tube.n):
        for (a, ta), (b, tb) in combinations(adj[j], 2):
            trip.append((a, j, b))
            tsh.append((ta, tb))
    triples = np.array(trip, dtype=int) if trip else np.zeros((0, 3), dtype=int)
    triple_shifts = np.array(tsh, dtype=int) if tsh else np.zeros((0, 2), dtype=int)
    return pairs, np.asarray(tt, dtype=int), triples, triple_shifts


def leg_references(pairs, pair_shifts, triples, triple_shifts):
    """(leg_bonds, leg_signs) of the angle legs, each looked up among the
    bonds: the leg from vertex j to tip i at shift s is +d_p of the bond
    p = (i, j) at shift s, or -d_p of the bond p = (j, i) at shift -s."""
    index = {(a, b, t): p for p, ((a, b), t) in enumerate(zip(np.asarray(pairs).tolist(), np.asarray(pair_shifts).tolist()))}
    bonds, signs = [], []
    for (i, j, k), (si, sk) in zip(np.asarray(triples).tolist(), np.asarray(triple_shifts).tolist()):
        refs = [(index[(tip, j, s)], 1) if (tip, j, s) in index else (index[(j, tip, -s)], -1) for tip, s in ((i, si), (k, sk))]
        bonds.append([p for p, _ in refs])
        signs.append([sign for _, sign in refs])
    return np.array(bonds, dtype=int).reshape(-1, 2), np.array(signs, dtype=int).reshape(-1, 2)


def bond_graph_brute(tube, cutoff: float = 1.1) -> BondGraph:
    """The BondGraph of graph_brute, with leg_references' legs."""
    pairs, shifts, triples, triple_shifts = graph_brute(tube, cutoff)
    return BondGraph(tube.n, tube.period, pairs, shifts, triples, *leg_references(pairs, shifts, triples, triple_shifts))


def triple_shifts(graph):
    """Per-leg image shifts (n_angles, 2) of graph's angles, read from its leg
    references: the legs of angle q reach x[i] + shifts[q, 0]*L*e1 and
    x[k] + shifts[q, 1]*L*e1 from x[j]."""
    return graph.leg_signs * graph.pair_shifts[graph.leg_bonds]


def assert_graph_equals_brute(graph, tube, cutoff: float = 1.1):
    pairs, shifts, triples, brute_triple_shifts = graph_brute(tube, cutoff)
    assert np.array_equal(graph.pairs, pairs)
    assert np.array_equal(graph.pair_shifts, shifts)
    assert np.array_equal(graph.triples, triples)
    assert np.array_equal(triple_shifts(graph), brute_triple_shifts)
    bonds, signs = leg_references(pairs, shifts, triples, brute_triple_shifts)
    assert np.array_equal(graph.leg_bonds, bonds)
    assert np.array_equal(graph.leg_signs, signs)


def leg_vectors_gathered(pos, graph):
    """Legs (u, v) of graph's angles gathered from the positions, u = x_i - x_j
    and v = x_k - x_j at the triple shifts, not read from the bond vectors
    as energy._leg_vectors reads them."""
    t, shifts = graph.triples, triple_shifts(graph)
    u = pos.take(t[:, 0], axis=-2) - pos.take(t[:, 1], axis=-2)
    v = pos.take(t[:, 2], axis=-2) - pos.take(t[:, 1], axis=-2)
    u[..., 0] += graph.L * shifts[:, 0]
    v[..., 0] += graph.L * shifts[:, 1]
    return u, v


def bond_angles_gathered(pos, graph):
    """The angles of graph with both legs gathered from the positions
    (leg_vectors_gathered), then energy._cos_angle: the value path without
    the bond references."""
    return np.arccos(_cos_angle(*leg_vectors_gathered(pos, graph))[0])


def gradient_gathered(tube, pots, graph):
    """energy.gradient with the angle legs gathered from the positions."""
    pos = tube.positions
    grad = np.zeros_like(pos)
    if graph.n_bonds:
        np.add.at(grad, graph.pairs, _bond_term(_bond_vectors(pos, graph), pots.v2)[0])
    if graph.n_angles:
        np.add.at(grad, graph.triples, _angle_term(*leg_vectors_gathered(pos, graph), pots.v3)[0])
    return grad


def term_hessian_gathered(pos, graph, v2, v3, bond_weights=1.0, angle_weights=1.0):
    """energy.term_hessian with the angle legs gathered from the positions."""
    hess = np.zeros((3 * graph.n, 3 * graph.n))
    if graph.n_bonds:
        _add_blocks(hess, graph.pairs, _bond_term(_bond_vectors(pos, graph), v2, bond_weights, second=True)[1])
    if graph.n_angles:
        _add_blocks(hess, graph.triples, _angle_term(*leg_vectors_gathered(pos, graph), v3, angle_weights, second=True)[1])
    return hess


def bloch_blocks_gathered(tube, pots, p, q, graph):
    """energy.bloch_blocks with the angle legs gathered from the positions and
    their image shifts from triple_shifts."""
    ell, L, pos = tube.ell, tube.period, tube.positions
    bonds = np.any(graph.pairs < 4, axis=1)
    angles = np.any(graph.triples < 4, axis=1)
    bond_shifts = graph.pair_shifts[bonds]
    u, v = leg_vectors_gathered(pos, graph)
    terms = (
        (graph.pairs[bonds], np.stack([bond_shifts, np.zeros_like(bond_shifts)], axis=1),
         _bond_term(_bond_vectors(pos, graph)[bonds], pots.v2, second=True)[1]),
        (graph.triples[angles], np.insert(triple_shifts(graph)[angles], 1, 0, axis=1),
         _angle_term(u[angles], v[angles], pots.v3, second=True)[1]),
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


def total_energy_gathered(tube, pots, graph=None, positions=None):
    """energy.total_energy with bond_angles_gathered for its angles."""
    if graph is None:
        graph = bond_graph(tube)
    pos = tube.positions if positions is None else positions
    e = np.zeros(pos.shape[:-2])
    if graph.n_bonds:
        e += np.sum(pots.v2.value(_bond_lengths(pos, graph)), axis=-1)
    if graph.n_angles:
        e += np.sum(pots.v3.value(bond_angles_gathered(pos, graph)), axis=-1)
    return float(e) if positions is None else e


def total_energy_einsum(tube, pots, graph=None, positions=None):
    """energy.total_energy with np.linalg.norm bond lengths and einsum leg
    dot products."""
    if graph is None:
        graph = bond_graph(tube)
    pos = tube.positions if positions is None else positions
    e = np.zeros(pos.shape[:-2])
    if graph.n_bonds:
        d = np.linalg.norm(_bond_vectors(pos, graph), axis=-1)
        e += np.sum(pots.v2.value(d), axis=-1)
    if graph.n_angles:
        u, v = leg_vectors_gathered(pos, graph)
        nu = np.linalg.norm(u, axis=-1)
        nv = np.linalg.norm(v, axis=-1)
        c = np.clip(np.einsum("...ij,...ij->...i", u, v) / (nu * nv), -1.0, 1.0)
        e += np.sum(pots.v3.value(np.arccos(c)), axis=-1)
    return float(e) if positions is None else e


def cell_angles_einsum(cells):
    """cells.cell_angles with np.linalg.norm and an einsum dot product."""
    u, v = leg_vectors_gathered(cells, CELL_GRAPH)
    nu = np.linalg.norm(u, axis=-1)
    nv = np.linalg.norm(v, axis=-1)
    if np.any(nu == 0.0) or np.any(nv == 0.0):
        raise DegenerateGeometryError("zero-length bond leg inside a cell")
    c = np.clip(np.einsum("...ij,...ij->...i", u, v) / (nu * nv), -1.0, 1.0)
    return np.arccos(c)


def plane_angle_einsum(n1, n2):
    """cells._plane_angle with np.linalg.norm and an einsum dot product."""
    a1 = np.linalg.norm(n1, axis=-1)
    a2 = np.linalg.norm(n2, axis=-1)
    if np.any(a1 < 1e-14) or np.any(a2 < 1e-14):
        raise DegenerateGeometryError("collinear points define no plane")
    c = np.clip(np.einsum("...i,...i->...", n1, n2) / (a1 * a2), -1.0, 1.0)
    t = np.arccos(c)
    return np.maximum(t, np.pi - t)


def cell_plane_angles_cross(cells):
    """cells.cell_plane_angles with np.cross normals and plane_angle_einsum."""
    x = cells
    x1, x2 = x[..., 0, :], x[..., 1, :]
    theta_l = plane_angle_einsum(np.cross(x[..., 2, :] - x1, x[..., 3, :] - x1), np.cross(x[..., 5, :] - x1, x[..., 4, :] - x1))
    theta_r = plane_angle_einsum(np.cross(x[..., 2, :] - x2, x[..., 3, :] - x2), np.cross(x[..., 4, :] - x2, x[..., 5, :] - x2))
    a2 = x[..., 7, :] - x2
    theta_x2 = plane_angle_einsum(np.cross(x[..., 3, :] - x2, a2), np.cross(x[..., 4, :] - x2, a2))
    a1 = x[..., 6, :] - x1
    theta_x1 = plane_angle_einsum(np.cross(x[..., 2, :] - x1, a1), np.cross(x[..., 5, :] - x1, a1))
    return np.stack([theta_l, theta_r, theta_x2, theta_x1], axis=-1)


def local_frames_einsum(cells):
    """Origins and frames (rows e1, e2, e3) of cells (..., 8, 3), as
    cells._frame builds them, with np.linalg.norm, np.cross and an einsum dot
    product."""
    p = 0.5 * (cells[..., 0, :] + cells[..., 6, :])
    q = 0.5 * (cells[..., 1, :] + cells[..., 7, :])
    origin = 0.5 * (p + q)
    e1 = q - p
    n1 = np.linalg.norm(e1, axis=-1, keepdims=True)
    if np.any(n1 < 1e-12):
        raise InvalidCellError("coincident dual centers: no cell axis")
    e1 = e1 / n1
    w = cells[..., 3, :] - cells[..., 4, :]
    e3 = np.cross(e1, w)
    n3 = np.linalg.norm(e3, axis=-1, keepdims=True)
    if np.any(n3 < 1e-12):
        raise InvalidCellError("degenerate cell: x4 - x5 parallel to the axis")
    e3 = e3 / n3
    wing = np.sum(cells[..., 2:6, :], axis=-2) - 2.0 * (cells[..., 0, :] + cells[..., 1, :])
    sign = np.where(np.einsum("...i,...i->...", wing, e3) < 0.0, -1.0, 1.0)
    e3 = e3 * sign[..., None]
    e2 = np.cross(e3, e1)
    return origin, np.stack([e1, e2, e3], axis=-2)


def gather_cells_per_vector(tube: Nanotube, positions=None):
    """cells.gather_cells stored cells last: one take of the (..., 8, 3) cells,
    then each unwrap step on whole slot vectors."""
    pos = tube.positions if positions is None else positions
    cells = pos.take(cell_atom_indices(tube.ell, tube.m), axis=-2)
    for slot, anchor in _UNWRAP_CHAIN:
        cells[..., slot, :] = cells[..., anchor, :] + _nearest_image(cells[..., slot, :] - cells[..., anchor, :], tube.period)
    return cells


def to_local_einsum(cells):
    """Cells (..., 8, 3) in their local frames (the frames of cells._frame), as
    one einsum over local_frames_einsum."""
    origin, frames = local_frames_einsum(cells)
    return np.einsum("...rc,...ac->...ar", frames, cells - origin[..., None, :])


def reflect_s1(cells):
    """Reflection S1 of cells (..., 8, 3): swap (x3, x6) and (x4, x5), negate
    the second components."""
    out = cells[..., [0, 1, 5, 4, 3, 2, 6, 7], :]
    out[..., 1] *= -1.0
    return out


def reflect_s2(cells):
    """Reflection S2 of cells (..., 8, 3): swap (x1, x2), (x3, x4), (x5, x6)
    and (x7, x8), negate the first components."""
    out = cells[..., [1, 0, 3, 2, 5, 4, 7, 6], :]
    out[..., 0] *= -1.0
    return out


def symmetrize_reflect(cells_local):
    """Two-step reflection average of local-frame cells (..., 8, 3), each of
    the whole cell: (x_prime, s_x, delta), the first average, the fully
    symmetrized cell and the symmetry defect that cells.total_symmetry_defect
    and cell_summary sum and report."""
    x = cells_local
    x_prime = 0.5 * (x + reflect_s1(x))
    s_x = 0.5 * (x_prime + reflect_s2(x_prime))
    delta = np.sum((x - x_prime) ** 2, axis=(-1, -2)) + np.sum((x_prime - s_x) ** 2, axis=(-1, -2))
    return x_prime, s_x, delta


def displacement(rng, n: int, eta: float, mode: str):
    """One trial's (n, 3) displacement, drawn and scaled on its own: the
    per-trial form of stability._displacements."""
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
        scale = np.minimum(1.0, (1.0 - 1e-14) * eta / np.maximum(norms, 1e-300))
        return d * scale
    return rng.uniform(-eta / np.sqrt(3.0), eta / np.sqrt(3.0), size=(n, 3))


def hessian_fd(tube, pots, graph, step: float = 1e-5):
    """Central differences of the analytic gradient on a frozen bond graph,
    symmetrized: 6n gradient calls for the (3n, 3n) Hessian."""
    from nanolab.energy import gradient

    n3 = 3 * tube.n
    hess = np.empty((n3, n3))
    flat = tube.positions.ravel().copy()
    for col in range(n3):
        x = flat.copy()
        x[col] += step
        gp = gradient(tube.with_positions(x.reshape(-1, 3)), pots, graph).ravel()
        x[col] -= 2.0 * step
        gm = gradient(tube.with_positions(x.reshape(-1, 3)), pots, graph).ravel()
        hess[:, col] = (gp - gm) / (2.0 * step)
    return 0.5 * (hess + hess.T)


def cell_energy_gradient(cell, pots):
    """Analytic gradient of the weighted cell energy of one (8, 3) cell: the
    term kernels' gradients with the cell weights, scatter-added.  The weights
    are read from nanolab.cells at call time."""
    grad = np.zeros((8, 3))
    np.add.at(grad, BOND_SLOTS, _bond_term(_bond_vectors(cell, CELL_GRAPH), pots.v2, _cells.BOND_WEIGHTS)[0])
    np.add.at(grad, ANGLE_SLOTS, _angle_term(*leg_vectors_gathered(cell, CELL_GRAPH), pots.v3, _cells.ANGLE_WEIGHTS)[0])
    return grad


def t_jacobian_gathered(cell):
    """cellspec.t_jacobian with the angle legs gathered from the cell's
    positions."""
    from nanolab.cellspec import _Identity

    jac = np.zeros((18, 8, 3))
    jac[np.arange(10)[:, None], ANGLE_SLOTS] = _angle_term(*leg_vectors_gathered(cell, CELL_GRAPH), _Identity)[0]
    jac[10 + np.arange(8)[:, None], BOND_SLOTS] = _bond_term(_bond_vectors(cell, CELL_GRAPH), _Identity)[0]
    return jac.reshape(18, 24)


def tilde_energy(y, pots):
    """Weighted sum over the 18 values y = (ten angles, eight bond lengths) of
    cellspec.t_map; composes with t_map to the cell energy."""
    y = np.asarray(y, dtype=float)
    return float(np.dot(_cells.ANGLE_WEIGHTS, pots.v3.value(y[:10])) + np.dot(_cells.BOND_WEIGHTS, pots.v2.value(y[10:])))


def cell_hessian_fd(cell, pots, step: float = 1e-4):
    """Richardson-extrapolated central differences of the analytic cell
    gradient, symmetrized: 96 cell_energy_gradient calls."""
    flat = np.asarray(cell, dtype=float).ravel()

    def fd(h):
        cols = []
        for idx in range(24):
            x = flat.copy()
            x[idx] += h
            gp = cell_energy_gradient(x.reshape(8, 3), pots).ravel()
            x[idx] -= 2.0 * h
            gm = cell_energy_gradient(x.reshape(8, 3), pots).ravel()
            cols.append((gp - gm) / (2.0 * h))
        return np.stack(cols, axis=1)

    hess = (4.0 * fd(0.5 * step) - fd(step)) / 3.0
    return 0.5 * (hess + hess.T)


def t_jacobian_fd(cell, step: float = 1e-6):
    """(18, 24) central-difference Jacobian of cellspec.t_map."""
    from nanolab.cellspec import t_map

    flat = np.asarray(cell, dtype=float).ravel()
    cols = []
    for idx in range(24):
        x = flat.copy()
        x[idx] += step
        fp = t_map(x.reshape(8, 3))
        x[idx] -= 2.0 * step
        fm = t_map(x.reshape(8, 3))
        cols.append((fp - fm) / (2.0 * step))
    return np.stack(cols, axis=1)


def angle_sum_second_fd(cell, v, step: float = 1e-3):
    """Richardson-extrapolated second difference of the total angle sum (all
    three angle-sum functionals) along the direction v (8, 3)."""
    from nanolab.cellspec import ANGLE_SUM_VECTORS, t_map

    def total(c):
        return float(np.sum(ANGLE_SUM_VECTORS @ t_map(c)[:10]))

    base = total(cell)

    def second(h):
        return (total(cell + h * v) - 2.0 * base + total(cell - h * v)) / h**2

    return (4.0 * second(0.5 * step) - second(step)) / 3.0


def reduced_hessian_fd(mu, gamma1, gamma2, pots, step: float = 1e-4):
    """Richardson-extrapolated central differences of the envelope gradient
    (d/dmu, d/dgamma1, d/dgamma2) of reduced.reduced_solve, symmetrized: 12
    reduced Newton solves."""
    from nanolab.reduced import reduced_solve

    x0 = np.array([mu, gamma1, gamma2], dtype=float)

    def grad(x):
        return reduced_solve(*x, pots).grad[0, :3]

    def fd(h):
        cols = []
        for d in range(3):
            e = np.zeros(3)
            e[d] = h
            cols.append((grad(x0 + e) - grad(x0 - e)) / (2.0 * h))
        return np.stack(cols, axis=1)

    hess = (4.0 * fd(0.5 * step) - fd(step)) / 3.0
    return 0.5 * (hess + hess.T)


def minimizer_derivative_fd(mu, gamma1, gamma2, pots, step: float = 1e-4):
    """Richardson-extrapolated central differences of the minimizer x* =
    (lambda, alpha1, alpha2) of reduced.reduced_solve in (mu, gamma1, gamma2),
    as a 3x3 array with column d the derivative in parameter d: 12 points in
    one batched solve."""
    from nanolab.reduced import reduced_solve

    x0 = np.array([mu, gamma1, gamma2], dtype=float)
    # offsets +h, -h, +h/2, -h/2 along each parameter axis
    offsets = np.concatenate([s * np.eye(3) for s in (step, -step, 0.5 * step, -0.5 * step)])
    pts = x0 + offsets
    x = reduced_solve(pts[:, 0], pts[:, 1], pts[:, 2], pots).x.reshape(4, 3, 3)
    fd_h = (x[0] - x[1]).T / (2.0 * step)
    fd_half = (x[2] - x[3]).T / step
    return (4.0 * fd_half - fd_h) / 3.0


def minimize_family_direct(mu: float, ell: int, pots, m: int = 1, resolution: float = 1e-3):
    """Brute-force family minimizer: grid over (lambda1, lambda2) plus local
    pattern-search polish of the closed-form family energy.

    Returns (lambda1, lambda2, total energy).  Independent of the Newton path
    through reduced.reduced_energy.
    """
    from nanolab.energy import family_energy
    from nanolab.errors import InvalidParameterError
    from nanolab.geometry import solve_family
    from nanolab.reduced import LAMBDA_HI, LAMBDA_LO

    def energy(l1, l2):
        try:
            return family_energy(solve_family(ell, mu, l1, l2), m, pots)
        except InvalidParameterError:
            return np.inf

    grid = np.arange(LAMBDA_LO + resolution, LAMBDA_HI, resolution)
    best = (np.inf, None, None)
    for l1 in grid:
        for l2 in grid:
            e = energy(l1, l2)
            if e < best[0]:
                best = (e, l1, l2)
    e0, l1, l2 = best
    step = resolution
    for _ in range(40):
        improved = False
        for d1, d2 in ((step, 0), (-step, 0), (0, step), (0, -step), (step, step), (-step, -step), (step, -step), (-step, step)):
            e = energy(l1 + d1, l2 + d2)
            if e < e0:
                e0, l1, l2 = e, l1 + d1, l2 + d2
                improved = True
        if not improved:
            step *= 0.5
            if step < 1e-10:
                break
    return float(l1), float(l2), float(e0)


def reduced_energy_scalar(mu, gamma1, gamma2, pots, max_iter: int = 200):
    """The inner minimization of reduced.reduced_solve, one point at a time
    on Python scalars: damped, box-projected Newton from (1, 2pi/3, 2pi/3)
    with the same pinned-variable rule, GRAD_TOL exit and round-off-floor
    exit.  Returns (value, (lambda*, alpha1*, alpha2*))."""
    from nanolab.errors import OptimizationFailureError
    from nanolab.potentials import TWO_THIRDS_PI
    from nanolab.reduced import _BOX_HI, _BOX_LO, GRAD_TOL, ReducedPoint, _pinned, _sym_grad_hess, sym_energy

    x = np.array([1.0, TWO_THIRDS_PI, TWO_THIRDS_PI])

    def energy_at(y):
        return sym_energy(ReducedPoint(mu, gamma1, gamma2, *y), pots)

    f = energy_at(x)
    prev = x
    for _ in range(max_iter):
        gz, hz = _sym_grad_hess(ReducedPoint(mu, gamma1, gamma2, *x), pots)
        g, h = gz[3:], hz[3:, 3:]
        free = ~_pinned(x, g)
        residual = np.max(np.abs(g[free]), initial=0.0)
        if residual <= GRAD_TOL:
            break
        step = np.zeros(3)
        hf = h[np.ix_(free, free)]
        gf = g[free]
        try:
            evals = np.linalg.eigvalsh(hf)
            tau = 0.0 if evals[0] > 1e-10 else (1e-8 - evals[0])
            step[free] = np.linalg.solve(hf + tau * np.eye(int(np.sum(free))), -gf)
        except np.linalg.LinAlgError:
            step[free] = -gf
        t = 1.0
        for _ in range(40):
            cand = np.clip(x + t * step, _BOX_LO, _BOX_HI)
            fc = energy_at(cand)
            if fc <= f + 1e-18 or np.allclose(cand, x):
                break
            t *= 0.5
        stuck = np.array_equal(cand, x) or np.array_equal(cand, prev)
        if stuck and residual <= np.max(np.abs(hf) @ np.spacing(np.abs(x[free])), initial=0.0):
            break
        prev, x, f = x, cand, fc
    else:
        raise OptimizationFailureError(f"scalar reduced Newton did not converge in {max_iter} iterations")
    return float(f), (float(x[0]), float(x[1]), float(x[2]))


def beta_clip(alpha, gam):
    """reduced.beta with a domain check on the arcsin argument and np.clip
    onto [-1, 1], neither of which can act on real input."""
    s = np.sin(alpha) * np.sin(0.5 * np.asarray(gam, dtype=float))
    if np.any(np.abs(s) > 1.0 + 1e-12):
        raise DomainError("arcsin argument exceeds 1")
    return 2.0 * np.arcsin(np.clip(s, -1.0, 1.0))


def reference_angles_capped(ell: int, pots):
    """reduced.reference_angles on beta_clip, with alpha_ch by bisection on
    beta_clip(a) - a (the library has its closed form) and a Newton polish
    that runs to its 60-step cap when its iterates cycle (the library stops
    at the first repeat of a 2-cycle)."""
    from nanolab.geometry import gamma
    from nanolab.potentials import TWO_THIRDS_PI
    from nanolab.reduced import ALPHA_HI, ALPHA_LO, ReferenceAngles, beta_derivatives

    g = gamma(ell)
    v3 = pots.v3

    def f(a):
        return beta_clip(a, g) - a

    lo, hi = ALPHA_LO, ALPHA_HI
    flo, fhi = f(lo), f(hi)
    if flo * fhi > 0:
        raise DomainError("no sign change for the polyhedral-angle bisection")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or hi - lo < 1e-13:
            break
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    alpha_ch = 0.5 * (lo + hi)

    def fval(a):
        return 2.0 * v3.value(a) + v3.value(beta_clip(a, g))

    def fprime(a):
        b_a = beta_derivatives(a, g)[0]
        return 2.0 * v3.deriv(a) + v3.deriv(beta_clip(a, g)) * b_a

    def fsecond(a):
        b_a, _, b_aa, _, _ = beta_derivatives(a, g)
        b = beta_clip(a, g)
        return 2.0 * v3.deriv2(a) + v3.deriv2(b) * b_a**2 + v3.deriv(b) * b_aa

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = ALPHA_LO, ALPHA_HI
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fval(c), fval(d)
    for _ in range(80):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fval(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fval(d)
    x = 0.5 * (a + b)
    for _ in range(60):
        fp = fprime(x)
        if abs(fp) < 1e-14:
            break
        step = float(np.clip(x - fp / fsecond(x), ALPHA_LO, ALPHA_HI))
        if step == x:
            break
        x = step
    return ReferenceAngles(
        ell=ell,
        alpha_ru=TWO_THIRDS_PI,
        alpha_ch=alpha_ch,
        alpha_us=x,
        mu_us=float(2.0 - 2.0 * np.cos(x)),
        beta_us=float(beta_clip(x, g)),
    )


def constrained_rayleigh_min_loop(hess, span, r: float) -> dict:
    """cellspec.constrained_rayleigh_min with its nu scan evaluated one
    eigvalsh call per point."""
    from nanolab.cellspec import DUAL_ROUNDOFF_ULPS, EIGENSPACE_TOL, N_SCAN

    q, _ = np.linalg.qr(span)
    proj = q @ q.T

    def dual(nu):
        return float(np.linalg.eigvalsh(hess + nu * proj)[0]) - nu * r**2

    scale = float(np.max(np.abs(np.linalg.eigvalsh(hess))))
    nus = np.concatenate([[0.0], np.geomspace(1e-6 * scale, 10.0 * scale, N_SCAN)])
    vals = np.array([dual(nu) for nu in nus])
    best = int(np.argmax(vals))
    lo = nus[max(0, best - 1)]
    hi = nus[min(len(nus) - 1, best + 1)]
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd_ = dual(c), dual(d)
    for _ in range(60):
        if fc > fd_:
            b, d, fd_ = d, c, fc
            c = b - invphi * (b - a)
            fc = dual(c)
        else:
            a, c, fc = c, d, fd_
            d = a + invphi * (b - a)
            fd_ = dual(d)
    nu_star = 0.5 * (a + b)
    evals, evecs = np.linalg.eigh(hess + nu_star * proj)
    roundoff = DUAL_ROUNDOFF_ULPS * np.finfo(float).eps
    lower = dual(nu_star) - roundoff * float(np.max(np.abs(evals)))
    if best == 0:
        lower = max(lower, float(vals[0]) - roundoff * scale)
    space = evecs[:, evals <= evals[0] + EIGENSPACE_TOL * scale]
    p_evals, p_evecs = np.linalg.eigh(space.T @ proj @ space)
    if p_evals[0] <= r**2 <= p_evals[-1] and p_evals[0] < p_evals[-1]:
        s2 = (r**2 - p_evals[0]) / (p_evals[-1] - p_evals[0])
        v = space @ (np.sqrt(1.0 - s2) * p_evecs[:, 0] + np.sqrt(s2) * p_evecs[:, -1])
    else:
        v = evecs[:, 0]
        pv = proj @ v
        npv = np.linalg.norm(pv)
        if npv > r:
            perp = v - pv
            nperp = np.linalg.norm(perp)
            if nperp > 1e-14:
                v = (r / npv) * pv + np.sqrt(1.0 - r**2) * perp / nperp
    v = v / np.linalg.norm(v)
    upper = float(v @ hess @ v)
    return {"lower": lower, "upper": upper, "nu": float(nu_star)}


# mu points of the coarse scan for a sign change, and the bisection tolerance
COARSE_STEPS = 49
BISECTION_TOL = 1e-6


def fracture_threshold_scan(ell: int, m: int, pots, window: float = 0.12) -> float:
    """Smallest mu with E(cleaved) < E(optimal family at mu), by a coarse scan
    of COARSE_STEPS points over [mu_us, min(mu_us + window, 3.1 - 1e-9)] plus
    bisection to BISECTION_TOL, one scalar reduced solve per evaluation.
    Raises WindowTooSmallError without a crossing."""
    from nanolab.energy import family_energy
    from nanolab.errors import WindowTooSmallError
    from nanolab.geometry import gamma, solve_family
    from nanolab.reduced import reference_angles

    mu_us = reference_angles(ell, pots).mu_us
    # the unstretched unit-bond tube plus one unit per severed bond, 4 ell of them
    e_cleaved = family_energy(solve_family(ell, mu_us, 1.0, 1.0), m, pots) + 4.0 * ell
    g = gamma(ell)

    def excess(mu):
        # positive while the stretched periodic tube is still favorable
        return e_cleaved - 2 * m * ell * reduced_energy_scalar(mu, g, g, pots)[0]

    grid = np.linspace(mu_us, min(mu_us + window, 3.1 - 1e-9), COARSE_STEPS)
    vals = [excess(float(mu)) for mu in grid]
    bracket = next(
        ((float(a), float(b)) for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]) if fa > 0.0 >= fb),
        None,
    )
    if bracket is None:
        raise WindowTooSmallError(f"no fracture crossing for ell={ell}, m={m}")
    lo, hi = bracket
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sample_perturbation_rebuild(base, spec, trial: int, max_rejections: int = 1000):
    """One trial's displaced copy of base, drawn from the trial's own stream
    and redrawn until bond_graph, rebuilt for every draw, has base's bonds.
    Returns (tube, graph, rejections)."""
    from nanolab.errors import EtaTooLargeError
    from nanolab.stability import _trial_rng

    base_pairs = bond_graph(base).pairs
    rng = _trial_rng(spec.seed, trial)
    rejections = 0
    while True:
        tube = base.with_positions(base.positions + displacement(rng, base.n, spec.eta, spec.mode))
        graph = bond_graph(tube)
        if np.array_equal(graph.pairs, base_pairs):
            return tube, graph, rejections
        rejections += 1
        if rejections >= max_rejections:
            raise EtaTooLargeError(f"{max_rejections} consecutive samples broke the bond graph at eta={spec.eta}")


def stability_trial_loop(mu, ell, m, spec, pots, collect_ratios: bool = True) -> dict:
    """stability.stability_trial one trial at a time: sample_perturbation_rebuild,
    then one total_energy_einsum and one symmetry defect (to_local_einsum,
    symmetrize_reflect) per tube."""
    from nanolab.cells import gather_cells
    from nanolab.geometry import build_nanotube
    from nanolab.reduced import minimize_family

    base = build_nanotube(minimize_family(mu, ell, pots, m=m).geometry, m)
    e_base = total_energy_einsum(base, pots)
    gaps, ratios, failures = [], [], []
    rejections = 0
    for trial in range(spec.count):
        tube, graph, rej = sample_perturbation_rebuild(base, spec, trial)
        rejections += rej
        gap = total_energy_einsum(tube, pots, graph) - e_base
        gaps.append(gap)
        if collect_ratios:
            delta_sum = float(np.sum(symmetrize_reflect(to_local_einsum(gather_cells(tube)))[2]))
            if delta_sum > 1e-14:
                ratios.append(gap / delta_sum)
        if gap <= 0.0:
            failures.append({"trial": trial, "energy_gap": gap, "positions": tube.positions.copy()})
    gaps, ratios = np.array(gaps), np.array(ratios)
    stat = lambda f, a: float(f(a)) if len(a) else None
    return {
        "mu": mu,
        "ell": ell,
        "m": m,
        "eta": spec.eta,
        "seed": spec.seed,
        "mode": spec.mode,
        "count": spec.count,
        "evaluated": len(gaps),
        "rejections": rejections,
        "base_energy": e_base,
        "min_gap": stat(np.min, gaps),
        "max_gap": stat(np.max, gaps),
        "mean_gap": stat(np.mean, gaps),
        "gap_ratio_min": stat(np.min, ratios),
        "gap_ratio_median": stat(np.median, ratios),
        "gap_ratio_max": stat(np.max, ratios),
        "n_failures": len(failures),
        "failures": failures,
    }


def format_rows(rows, sep: str = ",") -> str:
    """One line per row: format(float(v), ".17g") for every float value,
    str(v) for everything else."""
    return "".join(
        sep.join(format(float(v), ".17g") if isinstance(v, (float, np.floating)) else str(v) for v in row) + "\n"
        for row in rows
    )


def pxyz_text(tube) -> str:
    """PXYZ text of a tube, one coordinate at a time."""
    lines = [f"{tube.n} {format(float(tube.period), '.17g')}"]
    lines += [" ".join(format(float(v), ".17g") for v in xyz) for xyz in tube.positions]
    return "\n".join(lines) + "\n"


def read_pxyz_lines(path, ell=None, m=None):
    """Parse a PXYZ file line by line: one float() list, one finiteness check
    and one row assignment per atom; the first malformed line raises."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read().splitlines()
    if not raw:
        raise PxyzFormatError("empty PXYZ file", line_number=1)
    head = raw[0].split()
    if len(head) != 2:
        raise PxyzFormatError(f"header must be 'n L', got {raw[0]!r}", line_number=1)
    try:
        n = int(head[0])
        period = float(head[1])
    except ValueError:
        raise PxyzFormatError(f"unparseable header {raw[0]!r}", line_number=1)
    if n < 1 or not (0 < period < math.inf):
        raise PxyzFormatError(f"need n >= 1 and finite L > 0, got n={n}, L={period}", line_number=1)
    if len(raw) < n + 1:
        raise PxyzFormatError(f"expected {n} coordinate lines, found {len(raw) - 1}", line_number=len(raw) + 1)
    pos = np.empty((n, 3), dtype=float)
    for row in range(n):
        parts = raw[row + 1].split()
        if len(parts) != 3:
            raise PxyzFormatError(f"expected 3 columns, got {len(parts)}", line_number=row + 2)
        try:
            values = [float(v) for v in parts]
        except ValueError:
            raise PxyzFormatError(f"unparseable coordinates {raw[row + 1]!r}", line_number=row + 2)
        if not all(map(math.isfinite, values)):
            raise PxyzFormatError(f"non-finite coordinates {raw[row + 1]!r}", line_number=row + 2)
        pos[row] = values
    extra = next((i for i in range(n + 1, len(raw)) if raw[i].strip()), None)
    if extra is not None:
        raise PxyzFormatError(f"unexpected line after {n} coordinate lines: {raw[extra]!r}", line_number=extra + 1)
    if ell is None or m is None:
        if n % 4 != 0:
            raise PxyzFormatError(f"atom count {n} is not a multiple of 4", line_number=1)
        ell, m = n // 4, 1
    elif 4 * ell * m != n:
        raise PxyzFormatError(f"n={n} inconsistent with ell={ell}, m={m}", line_number=1)
    return Nanotube(pos, period, ell, m)


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


def plane_angle_theta(x, neighbor1, neighbor2, axial) -> float:
    """Angle between the planes {axial, x, neighbor1} and {axial, x, neighbor2}.

    The axial argument is the bonded neighbor whose bond is approximately
    parallel to the tube axis; the result lies in [pi/2, pi] and equals pi for
    a coplanar junction.
    """
    x = np.asarray(x, dtype=float)
    a = np.asarray(axial, dtype=float) - x
    n1 = np.cross(np.asarray(neighbor1, dtype=float) - x, a)
    n2 = np.cross(np.asarray(neighbor2, dtype=float) - x, a)
    return float(plane_angle_einsum(n1, n2))


def per_cell_certificate(tube, pots) -> dict:
    """Per-cell lower bound: each cell's energy minus the reduced energy at the
    cell's dual-center distance and mean plane angle, its margin.

    Reports the smallest and largest margin, the summed symmetry defect and
    the empirical constant C_hat = min over cells with delta > 1e-14 of
    margin / (delta / ell^2).
    """
    from nanolab.reduced import reduced_solve

    summ = cell_summary(tube, pots)
    x = gather_cells(tube).reshape(-1, 8, 3)
    mu_tilde = np.linalg.norm(0.5 * (x[:, 1] + x[:, 7]) - 0.5 * (x[:, 0] + x[:, 6]), axis=-1)
    theta_bar = summ["theta"].mean(axis=-1)
    margins = summ["energy"] - reduced_solve(mu_tilde, theta_bar, theta_bar, pots).value
    delta = summ["delta"]
    mask = delta > 1e-14
    scaled = margins[mask] / (delta[mask] / tube.ell**2)
    return {
        "min_margin": float(np.min(margins)),
        "max_margin": float(np.max(margins)),
        "delta_sum": float(np.sum(delta)),
        "c_hat": float(np.min(scaled)) if len(scaled) else float("nan"),
    }


@dataclass
class CellView:
    """One extracted cell: unwrapped coordinates plus derived quantities."""

    center: tuple
    atom_indices: np.ndarray
    positions: np.ndarray

    def bond_lengths(self) -> np.ndarray:
        return cell_bond_lengths(self.positions)

    def angles(self) -> np.ndarray:
        return cell_angles(self.positions)

    def energy(self, pots) -> float:
        return float(cell_energies(self.positions, pots))

    def plane_angles(self) -> np.ndarray:
        return cell_plane_angles(self.positions)

    def theta_bar(self) -> float:
        return float(np.mean(self.plane_angles()))

    def dual_center_distance(self) -> float:
        p = 0.5 * (self.positions[0] + self.positions[6])
        q = 0.5 * (self.positions[1] + self.positions[7])
        return float(np.linalg.norm(q - p))

    def local_coordinates(self) -> np.ndarray:
        return to_local_einsum(self.positions)

    def symmetrize(self):
        """Returns (x_prime, s_x, delta) in local coordinates."""
        xp, sx, d = symmetrize_reflect(self.local_coordinates())
        return xp, sx, float(d)


@dataclass
class Centers:
    """Cell centers and dual cell centers, indexed (i-1, j, k)."""

    z: np.ndarray
    z_dual: np.ndarray

    @property
    def count(self) -> int:
        return int(np.prod(self.z.shape[:-1]))


def _nearest_image(d: np.ndarray, L: float) -> np.ndarray:
    """d[..., :] moved in place to its nearest axial image."""
    d[..., 0] += _image_shift(d[..., 0], L) * L
    return d


def centers(tube: Nanotube) -> Centers:
    """Midpoints generating the cells; wrapped back into [0, L) axially."""
    table = cell_atom_indices(tube.ell, tube.m)
    pos = tube.positions
    L = tube.period
    x1 = pos[table[..., 0]]
    d12 = _nearest_image(pos[table[..., 1]] - x1, L)
    z = x1 + 0.5 * d12
    x2 = x1 + d12
    d28 = _nearest_image(pos[table[..., 7]] - pos[table[..., 1]], L)
    z_dual = x2 + 0.5 * d28
    z[..., 0] %= L
    z_dual[..., 0] %= L
    return Centers(z, z_dual)


def extract_cell(tube: Nanotube, center: tuple, graph=None) -> CellView:
    """Identify the 8 cell atoms by bond-graph walks from the two generators.

    center is (i, j, k) with i 1-based.  Raises InvalidCellError whenever a
    walk is ambiguous (any participating atom without exactly three bonds, or
    a missing unique common neighbor).
    """
    if graph is None:
        graph = bond_graph(tube)
    i, j, k = center
    a1 = flat_index(tube.ell, tube.m, i, j, k, 0)
    a2 = flat_index(tube.ell, tube.m, i, j, k, 1)
    adj = adjacency(graph.pairs, graph.pair_shifts, graph.n)

    def nbrs(a):
        out = [b for b, _ in adj[a]]
        if len(out) != 3:
            raise InvalidCellError(f"atom {a} has degree {len(out)}, expected 3")
        return out

    n1 = nbrs(a1)
    n2 = set(nbrs(a2))
    wings = []
    outer1 = []
    for u in n1:
        common = [w for w in nbrs(u) if w in n2]
        if common:
            if len(common) != 1:
                raise InvalidCellError(f"ambiguous hexagon closure at atom {u}")
            wings.append((u, common[0]))
        else:
            outer1.append(u)
    if len(wings) != 2 or len(outer1) != 1:
        raise InvalidCellError("cell walk did not find two hexagon wings and one axial neighbor")
    x7 = outer1[0]
    partners = {v for _, v in wings}
    outer2 = [u for u in n2 if u not in partners]
    if len(outer2) != 1:
        raise InvalidCellError("no unique axial neighbor at the second generator")
    x8 = outer2[0]

    (u1, v1), (u2, v2) = wings
    idx = np.array([a1, a2, u1, v1, v2, u2, x7, x8])
    pos = tube.positions
    coords = np.empty((8, 3))
    coords[0] = pos[idx[0]]
    for slot, anchor in _UNWRAP_CHAIN:
        coords[slot] = coords[anchor] + _nearest_image(pos[idx[slot]] - coords[anchor], tube.period)
    # orient so that x3 sits on the positive second-coordinate side
    if to_local_einsum(coords)[2, 1] < 0.0:
        idx = idx[[0, 1, 5, 4, 3, 2, 6, 7]]
        coords = coords[[0, 1, 5, 4, 3, 2, 6, 7]]
    return CellView(center=center, atom_indices=idx, positions=coords)


LAMBDA1_BOND = "lambda1"
LAMBDA2_BOND = "lambda2"

# Per-(k,l) neighbor offsets: (di, dj, k', l', bond kind).  Index arithmetic is
# modulo ell in i and modulo m in j (bonds cross the periodic seam).
_NEIGHBOR_TABLE = {
    (0, 0): [(0, -1, 1, 1, LAMBDA2_BOND), (-1, -1, 1, 1, LAMBDA2_BOND), (0, -1, 0, 1, LAMBDA1_BOND)],
    (0, 1): [(0, 0, 1, 0, LAMBDA2_BOND), (-1, 0, 1, 0, LAMBDA2_BOND), (0, 1, 0, 0, LAMBDA1_BOND)],
    (1, 0): [(0, 0, 0, 1, LAMBDA2_BOND), (1, 0, 0, 1, LAMBDA2_BOND), (0, -1, 1, 1, LAMBDA1_BOND)],
    (1, 1): [(0, 1, 0, 0, LAMBDA2_BOND), (1, 1, 0, 0, LAMBDA2_BOND), (0, 1, 1, 0, LAMBDA1_BOND)],
}


class AtomId(NamedTuple):
    """Label (i, j, k, l); i is 1-based around the circumference.  Its flat
    index is geometry.flat_index(ell, m, *label)."""

    i: int
    j: int
    k: int
    l: int


def index_to_id(idx: int, ell: int, m: int) -> AtomId:
    """The label of flat index idx, the inverse of geometry.flat_index."""
    if not (0 <= idx < 4 * ell * m):
        raise ValueError(f"flat index {idx} out of range for ell={ell}, m={m}")
    return AtomId((idx // 4) % ell + 1, idx // (4 * ell), (idx // 2) % 2, idx % 2)


def expected_neighbors(a: AtomId, ell: int, m: int) -> list[tuple[AtomId, str]]:
    """The three combinatorial neighbors of an atom and their bond kinds."""
    out = []
    for di, dj, nk, nl, kind in _NEIGHBOR_TABLE[(a.k, a.l)]:
        ni = (a.i - 1 + di) % ell + 1
        nj = (a.j + dj) % m
        out.append((AtomId(ni, nj, nk, nl), kind))
    return out
