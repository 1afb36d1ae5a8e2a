"""Eight-atom basic cells: extraction, cell energy, plane angles, and the
reflection symmetrization with its symmetry defect.

Cell atoms are numbered x1..x8: x1, x2 generate the center, x3..x6 close the
hexagon (x3 bonded to x1, x3/x4 on the positive side of the local frame), and
x7, x8 are the axial neighbors of x1, x2.  Every bond approximately parallel
to the axis is shared by four cells and every other bond by two, so the
weighted cell energies sum exactly to the configurational energy.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .energy import BondGraph, _bond_lengths, _cos_angle, _cross3, _dot3, _image_shift, _lengths_and_angles, _norm3, _sum24
from .errors import InvalidCellError
from .geometry import Nanotube, check_positions, flat_index
from .potentials import BOND_CUTOFF, PotentialSet

BOND_WEIGHTS = np.array([0.25, 0.25, 0.5, 0.5, 0.5, 0.5, 0.25, 0.25])
ANGLE_WEIGHTS = np.array([1.0, 1.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5])

# Intra-cell bond endpoints (0-based atom slots): b1, b2 are the two axial
# hexagon bonds, b3..b6 the zigzag hexagon bonds, b7, b8 the outer axial bonds.
BOND_SLOTS = np.array([(2, 3), (4, 5), (0, 2), (3, 1), (1, 4), (5, 0), (0, 6), (1, 7)])
# Angle slots (tip, vertex, tip): phi1, phi2 at the generators between zigzag
# bonds, phi3..phi6 interior hexagon angles, phi7..phi10 against the axial bonds.
ANGLE_SLOTS = np.array(
    [
        (2, 0, 5),
        (3, 1, 4),
        (0, 2, 3),
        (2, 3, 1),
        (1, 4, 5),
        (4, 5, 0),
        (2, 0, 6),
        (5, 0, 6),
        (3, 1, 7),
        (4, 1, 7),
    ]
)
# The legs of each angle as signed bond references: leg a of angle q runs from
# its vertex along _LEG_SIGNS[q, a] * (x_i - x_j) of bond (i, j) = BOND_SLOTS[_LEG_BONDS[q, a]].
_LEG_BONDS = np.array([(2, 5), (3, 4), (2, 0), (0, 3), (4, 1), (1, 5), (2, 6), (5, 6), (3, 7), (4, 7)])
_LEG_SIGNS = np.array([(-1, 1), (1, -1), (1, -1), (1, -1), (1, -1), (1, -1), (-1, -1), (1, -1), (1, -1), (-1, -1)])
# The cell as a bond graph of eight atoms with no period: its bonds and angles
# run through the term layer of the tube energy.
CELL_GRAPH = BondGraph(8, 0.0, BOND_SLOTS, np.zeros(8, dtype=int), ANGLE_SLOTS, _LEG_BONDS, _LEG_SIGNS)

# Reflection S1: swap (x3,x6), (x4,x5) and negate second components.
_S1_PERM = np.array([0, 1, 5, 4, 3, 2, 6, 7])
# Reflection S2: swap (x1,x2), (x3,x4), (x5,x6), (x7,x8) and negate first components.
_S2_PERM = np.array([1, 0, 3, 2, 5, 4, 7, 6])

# Unwrap chain: reconstruct each slot from an already-placed slot over a bond.
_UNWRAP_CHAIN = [(2, 0), (3, 2), (1, 3), (4, 1), (5, 4), (6, 0), (7, 1)]


# Cells slot first: slots[a] = cells[..., a, :], shape (8, ..., 3).  They are
# stored component first, i.e. in the memory order of (8, 3, ...), so that
# slots[a, ..., c] is one contiguous block and
# every unwrap, frame, reflection and defect step works block by block.  numpy
# allocates the result of an elementwise operation in its operands' memory
# order, so the layout carries through the arithmetic; energy._cross3 keeps it.


def _cells_last(slots: np.ndarray) -> np.ndarray:
    """slots (8, ..., 3) copied into C-contiguous cells (..., 8, 3)."""
    return np.ascontiguousarray(np.moveaxis(slots, 0, -2))


def _reflect(slots: np.ndarray, perm: np.ndarray, comp: int) -> np.ndarray:
    """The reflection that permutes the slots by perm and negates component comp."""
    out = np.moveaxis(slots, -1, 1).take(perm, axis=0)
    out[:, comp] *= -1.0
    return np.moveaxis(out, 1, -1)


# Labels of the cell atoms as offsets (di, dj, k, l) from the cell's center:
# atom a of the cell centered on (i, j, c) is (i + di, j + dj, k, l) of row c.
_CELL_LABELS = np.array(
    [
        [(0, 0, 0, 0), (0, 0, 0, 1), (0, -1, 1, 1), (0, 0, 1, 0), (-1, 0, 1, 0), (-1, -1, 1, 1), (0, -1, 0, 1), (0, 1, 0, 0)],
        [(0, 0, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1), (1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, -1, 1, 1), (0, 1, 1, 0)],
    ]
)


@lru_cache(maxsize=32)
def cell_atom_indices(ell: int, m: int) -> np.ndarray:
    """Flat atom indices of every cell, shape (ell, m, 2, 8), centers (i,j,k).

    Cached per (ell, m) and shared between callers, so the array is read-only.
    """
    i = np.arange(1, ell + 1)[:, None, None, None]
    j = np.arange(m)[None, :, None, None]
    di, dj, k, l = np.moveaxis(_CELL_LABELS, -1, 0)
    table = flat_index(ell, m, i + di, j + dj, k, l)
    table.setflags(write=False)
    return table


def _gather_slots(tube: Nanotube, positions=None) -> np.ndarray:
    """gather_cells' unwrapped cells as slots (8, ..., 3), stored component
    first, with gather_cells' check of the positions."""
    table = cell_atom_indices(tube.ell, tube.m)
    pos = tube.positions if positions is None else positions
    L = tube.period
    check_positions(pos, L, BOND_CUTOFF)
    comps = np.moveaxis(pos, -1, 0).copy()
    x = np.empty((8, 3) + pos.shape[:-2] + table.shape[:-1])
    for a in range(8):
        x[a] = comps.take(table[..., a], axis=-1)
    # only the axial component moves to its nearest image, but all three are
    # rebuilt as anchor + (slot - anchor), which rounds the other two as well
    for slot, anchor in _UNWRAP_CHAIN:
        step = x[slot] - x[anchor]
        step[0] += _image_shift(step[0], L) * L
        x[slot] = x[anchor] + step
    return np.moveaxis(x, 1, -1)


def gather_cells(tube: Nanotube, positions=None) -> np.ndarray:
    """Unwrapped cell coordinates for every center, shape (ell, m, 2, 8, 3).

    Atoms are reconstructed by walking intra-cell bonds with minimal images, so
    no cell straddles the periodic seam.  With positions, a stack (..., n, 3)
    of configurations of tube's atoms at tube's period, the cells of each
    carry the same leading axes.  Raises DegenerateGeometryError on positions
    that geometry.check_positions refuses at the bond cutoff.
    """
    return _cells_last(_gather_slots(tube, positions))


def cell_bond_lengths(cells: np.ndarray) -> np.ndarray:
    """The eight bond lengths of every cell in BOND_SLOTS order, shape (..., 8)."""
    return _bond_lengths(cells, CELL_GRAPH)


def cell_angles(cells: np.ndarray) -> np.ndarray:
    """The ten angles of every cell in ANGLE_SLOTS order, shape (..., 10)."""
    return _lengths_and_angles(cells, CELL_GRAPH)[1]


def _weighted_energies(bonds: np.ndarray, angles: np.ndarray, pots: PotentialSet) -> np.ndarray:
    """Cell energies from the cells' bond lengths and angles."""
    return np.einsum("...i,i->...", pots.v2.value(bonds), BOND_WEIGHTS) + np.einsum(
        "...i,i->...", pots.v3.value(angles), ANGLE_WEIGHTS
    )


def cell_energies(cells: np.ndarray, pots: PotentialSet) -> np.ndarray:
    """Weighted cell energy of every cell, shape (...)."""
    return _weighted_energies(*_lengths_and_angles(cells, CELL_GRAPH), pots)


def _plane_angle(n1: np.ndarray, n2: np.ndarray) -> np.ndarray:
    t = np.arccos(_cos_angle(n1, n2, 1e-14, "collinear points define no plane")[0])
    return np.maximum(t, np.pi - t)


def cell_plane_angles(cells: np.ndarray) -> np.ndarray:
    """(theta_l, theta_r, theta at x2, theta at x1) for every cell, shape (..., 4).

    The first two are the wing angles across the hexagon at the cell center;
    the last two are the triple-junction angles at the generators, i.e. the
    dual-center angles theta_l(z_dual) and theta_r(z_dual_prev).
    """
    x = cells
    x1, x2 = x[..., 0, :], x[..., 1, :]
    n_l1 = _cross3(x[..., 2, :] - x1, x[..., 3, :] - x1)
    n_l2 = _cross3(x[..., 5, :] - x1, x[..., 4, :] - x1)
    theta_l = _plane_angle(n_l1, n_l2)
    n_r1 = _cross3(x[..., 2, :] - x2, x[..., 3, :] - x2)
    n_r2 = _cross3(x[..., 4, :] - x2, x[..., 5, :] - x2)
    theta_r = _plane_angle(n_r1, n_r2)
    a2 = x[..., 7, :] - x2
    theta_x2 = _plane_angle(_cross3(x[..., 3, :] - x2, a2), _cross3(x[..., 4, :] - x2, a2))
    a1 = x[..., 6, :] - x1
    theta_x1 = _plane_angle(_cross3(x[..., 2, :] - x1, a1), _cross3(x[..., 5, :] - x1, a1))
    return np.stack([theta_l, theta_r, theta_x2, theta_x1], axis=-1)


def _frame(slots: np.ndarray):
    """Origin and rows (e1, e2, e3) of the cell frame of slots (8, ..., 3), each
    stored as slots are: axis through the two dual centers, wings bending
    toward positive third coordinate."""
    x = slots
    p = 0.5 * (x[0] + x[6])
    q = 0.5 * (x[1] + x[7])
    origin = 0.5 * (p + q)
    e1 = q - p
    n1 = _norm3(e1)[..., None]
    if np.any(n1 < 1e-12):
        raise InvalidCellError("coincident dual centers: no cell axis")
    e1 = e1 / n1
    e3 = _cross3(e1, x[3] - x[4])
    n3 = _norm3(e3)[..., None]
    if np.any(n3 < 1e-12):
        raise InvalidCellError("degenerate cell: x4 - x5 parallel to the axis")
    e3 = e3 / n3
    wing = (((x[2] + x[3]) + x[4]) + x[5]) - 2.0 * (x[0] + x[1])
    e3 = e3 * np.where(_dot3(wing, e3) < 0.0, -1.0, 1.0)[..., None]
    e2 = _cross3(e3, e1)
    return origin, (e1, e2, e3)


def _local_slots(slots: np.ndarray) -> np.ndarray:
    """Cells of slots (8, ..., 3) in their local frames (see _frame), as slots;
    overwrites slots."""
    origin, rows = _frame(slots)
    y = np.subtract(slots, origin, out=slots)
    local = np.empty_like(y)
    for r, e in enumerate(rows):
        local[..., r] = _dot3(y, e)
    return local


def _reflection_average(x: np.ndarray, perm: np.ndarray, comp: int) -> np.ndarray:
    """0.5 * (x + the reflection of x), formed in the reflection's buffer; the
    sum and the product commute, so the bits are the same."""
    out = _reflect(x, perm, comp)
    out += x
    out *= 0.5
    return out


def _square_sum(d: np.ndarray) -> np.ndarray:
    """|d|^2 of every cell of slots d, as np.sum adds its 24 squares; overwrites d."""
    blocks = np.moveaxis(d, -1, 1)
    return _sum24(np.square(blocks, out=blocks).reshape((24,) + d.shape[1:-1]))


def _symmetry_defect(x: np.ndarray) -> np.ndarray:
    """Symmetry defect |x-x'|^2 + |x'-S(x)|^2 of local-frame cells x, slots
    (8, ..., 3), where x' is the first reflection average and S(x) the second
    one of x'.  The fixed reference cancels because both reflections are
    linear maps fixing it.  Overwrites x.
    """
    x_prime = _reflection_average(x, _S1_PERM, 1)
    s_x = _reflection_average(x_prime, _S2_PERM, 0)
    delta = _square_sum(np.subtract(x, x_prime, out=x))
    return delta + _square_sum(np.subtract(x_prime, s_x, out=x))


def _tube_sums(per_cell: np.ndarray, positions):
    """Sum over all cells of one tube (a float) or of each configuration of a
    stack positions (an array over its leading axes), in the same order."""
    lead = () if positions is None else positions.shape[:-2]
    sums = np.sum(per_cell.reshape(lead + (-1,)), axis=-1)
    return float(sums) if positions is None else sums


def total_cell_energy(tube: Nanotube, pots: PotentialSet, positions=None):
    """Sum of the weighted cell energies over all 2*m*ell centers; with
    positions, of each configuration of the stack, as in gather_cells."""
    return _tube_sums(cell_energies(gather_cells(tube, positions=positions), pots), positions)


def angle_sum(tube: Nanotube, positions=None):
    """Sum of (theta_l + theta_r) over all centers and dual centers; with
    positions, of each configuration of the stack, as in gather_cells.

    Equals 4*m*(2*ell - 2)*pi exactly on an unperturbed family configuration.
    """
    return _tube_sums(cell_plane_angles(gather_cells(tube, positions=positions)), positions)


def total_symmetry_defect(tube: Nanotube, positions=None):
    """Sum of the symmetry defects of all cells; with positions, of each
    configuration of the stack, as in gather_cells, and refuses the same
    positions."""
    return _tube_sums(_symmetry_defect(_local_slots(_gather_slots(tube, positions=positions))), positions)


def cell_summary(tube: Nanotube) -> dict:
    """Vectorized per-cell geometry of a whole tube, from one gather of its cells.

    Keys: bonds (C,8), angles (C,10), theta (C,4), delta (C,), centers (C,3)
    label triples; cell_energies gives the cells' energies.  Raises
    InvalidCellError on the first cell bond, in (i, j, k, bond) order, at or
    beyond BOND_CUTOFF: such a cell is not bonded as the family's cells are,
    and its geometry means nothing.
    """
    slots = _gather_slots(tube)
    cells = _cells_last(slots)
    bonds = cell_bond_lengths(cells)
    broken = np.argwhere(bonds >= BOND_CUTOFF)
    if len(broken):
        i, j, k, b = broken[0]
        raise InvalidCellError(
            f"cell ({i + 1}, {j}, {k}) bond b{b + 1} has length {bonds[i, j, k, b]:.6g}, at or beyond "
            f"the bond cutoff {BOND_CUTOFF}: either the labels are inconsistent with the file "
            f"(pass --ell and --m matching it), the period L={tube.period!r} does not match the atoms, "
            "or atoms are displaced"
        )
    phi = cell_angles(cells)
    theta = cell_plane_angles(cells)
    delta = _symmetry_defect(_local_slots(slots))
    ids = np.indices((tube.ell, tube.m, 2)).reshape(3, -1).T + (1, 0, 0)
    flat = lambda a: a.reshape(-1, *a.shape[3:])
    return {
        "centers": ids,
        "bonds": flat(bonds),
        "angles": flat(phi),
        "theta": flat(theta),
        "delta": flat(delta),
    }
