from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle import (
    E1,
    adjacency,
    angle_term_einsum,
    assert_graph_equals_brute,
    bloch_blocks_gathered,
    bloch_modes,
    bloch_table_einsum,
    bond_angle,
    bond_angles_gathered,
    bond_term_einsum,
    expected_neighbors,
    gradient_gathered,
    hessian,
    hessian_fd,
    index_to_id,
    leg_vectors_gathered,
    pairs_brute,
    term_hessian_gathered,
    total_energy_gathered,
)

from nanolab import energy, potentials
from nanolab.energy import (
    bloch_table,
    bond_graph,
    family_energy,
    gradient,
    image_distances,
    near_pairs,
    total_energy,
)
from nanolab.errors import DegenerateGeometryError
from nanolab.geometry import Nanotube, axial_rotations, build_nanotube, flat_index, solve_family


@pytest.fixture(scope="module")
def tube():
    return build_nanotube(solve_family(8, 3.0, 1.0, 1.0), 2)


def _periodic_distance(x, y, L):
    """(distance, shift) of x - y from image_distances."""
    t, dist = image_distances(np.subtract(x, y, dtype=float)[None], L)
    return float(dist[0]), int(t[0])


def test_periodic_distance_wraparound():
    d, t = _periodic_distance((0.05, 0, 0), (5.95, 0, 0), 6.0)
    assert d == pytest.approx(0.1, abs=1e-12)
    assert t == 1


def test_periodic_distance_zero():
    d, t = _periodic_distance((1.0, 2.0, 3.0), (1.0, 2.0, 3.0), 5.0)
    assert d == 0.0
    assert t == 0


def test_periodic_distance_tie_prefers_zero_shift():
    # both t=0 and t=-1 give 1.5; the tie resolves toward t=0
    d, t = _periodic_distance((1.5, 0, 0), (0, 0, 0), 3.0)
    assert d == pytest.approx(1.5, abs=1e-14)
    assert t == 0


@pytest.mark.parametrize("periods", [1.6, -2.2, 3.7, -4.45, 5.0])
def test_periodic_distance_several_periods_apart(periods):
    L = 12.0
    x, y = np.array([0.3, -0.4, 1.1]), np.array([0.3 + periods * L, 0.2, 0.9])
    t_all = np.arange(-10, 11)
    dists = np.linalg.norm((x - y)[None, :] + np.outer(t_all, E1) * L, axis=1)
    d, t = _periodic_distance(x, y, L)
    assert d == pytest.approx(dists.min(), abs=1e-12)
    assert t == t_all[np.argmin(dists)]
    assert _periodic_distance((0, 0, 0), (26.4, 0, 0), L) == pytest.approx((2.4, 2), abs=1e-12)


def test_bond_graph_counts_and_degrees(tube):
    g = bond_graph(tube)
    assert g.n_bonds == 3 * tube.n // 2
    assert np.all(g.degrees() == 3)
    # unordered angles: three per atom
    assert g.n_angles == 3 * tube.n


def _brute_pair_set(t):
    ii, jj, _, _ = pairs_brute(t.positions, t.period, 1.1)
    return set(zip(ii.tolist(), jj.tolist()))


def _pair_set(graph):
    return set(map(tuple, graph.pairs.tolist()))


def test_grid_matches_brute_force(tube, rng):
    g1 = bond_graph(tube)
    assert _pair_set(g1) == _brute_pair_set(tube)
    pos = tube.positions + 5e-2 * rng.standard_normal(tube.positions.shape)
    t2 = tube.with_positions(pos)
    assert _pair_set(bond_graph(t2)) == _brute_pair_set(t2)


def test_cutoff_is_strict():
    t = Nanotube(np.array([[0.0, 0, 0], [1.1, 0, 0]]), 10.0, 1, 1)
    g = bond_graph(t)
    assert g.n_bonds == 0
    assert not _brute_pair_set(t)
    t2 = Nanotube(np.array([[0.0, 0, 0], [1.1 - 1e-9, 0, 0]]), 10.0, 1, 1)
    assert bond_graph(t2).n_bonds == 1
    assert len(_brute_pair_set(t2)) == 1


@pytest.fixture(scope="module")
def tube12(pots_soft):
    from nanolab.reduced import minimize_family, reference_angles

    fam = minimize_family(reference_angles(12, pots_soft).mu_us, 12, pots_soft, m=4)
    return build_nanotube(fam.geometry, 4)


def _moved(t, periods, angle=0.0, jitter=0.0, seed=0):
    """t shifted axially by periods*L, rotated about the axis by angle, and jittered."""
    x, y, z = t.positions.T
    c, s = np.cos(angle), np.sin(angle)
    pos = np.column_stack([x + periods * t.period, c * y - s * z, s * y + c * z])
    pos += jitter * np.random.default_rng(seed).standard_normal(pos.shape)
    return t.with_positions(pos)


@pytest.mark.parametrize("periods", [-2.2, -1.7, -1.0, -0.5, 0.3, 1.5, 3.7])
@pytest.mark.parametrize("angle,jitter", [(0.0, 0.0), (2.1, 0.0), (0.7, 0.05)])
def test_graph_equals_brute_on_moved_copies(tube12, periods, angle, jitter):
    moved = _moved(tube12, periods, angle, jitter, seed=int(10 * periods) % 7)
    assert_graph_equals_brute(bond_graph(moved), moved)


@settings(max_examples=30)
@given(
    periods=st.floats(-3.0, 3.0),
    angle=st.floats(0.0, 2 * np.pi),
    jitter=st.floats(0.0, 0.08),
    seed=st.integers(0, 2**16),
)
def test_graph_equals_brute_under_rigid_motion_and_jitter(tube, periods, angle, jitter, seed):
    moved = _moved(tube, periods, angle, jitter, seed)
    assert_graph_equals_brute(bond_graph(moved), moved)


def test_graph_of_unwrapped_atoms(tube, pots_soft):
    # each atom written in its own period: same bonds, shifts absorb the wraps
    k = np.random.default_rng(3).integers(-3, 4, tube.n)
    unwrapped = tube.with_positions(tube.positions + np.outer(k, E1) * tube.period)
    g0, g1 = bond_graph(tube), bond_graph(unwrapped)
    assert np.array_equal(g1.pairs, g0.pairs)
    assert np.array_equal(g1.pair_shifts, g0.pair_shifts - k[g0.pairs[:, 0]] + k[g0.pairs[:, 1]])
    assert total_energy(unwrapped, pots_soft) == pytest.approx(total_energy(tube, pots_soft), abs=1e-10 * tube.n)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_positions_raise(tube, bad):
    pos = tube.positions.copy()
    pos[5, 1] = bad
    with pytest.raises(DegenerateGeometryError):
        bond_graph(tube.with_positions(pos))
    with pytest.raises(DegenerateGeometryError):
        bond_graph(Nanotube(tube.positions, bad, tube.ell, tube.m))


def test_axial_coordinates_far_from_origin_raise():
    # at L = 1e-300 the image shifts rint(dx / L) ~ 1e300 do not fit an int64:
    # the cast gave arbitrary shifts and a wrong energy
    tiny = Nanotube(np.array([[0.0, 0, 0], [0.5, 0.5, 0], [1.0, 0, 0], [1.5, 0.5, 0]]), 1e-300, 1, 1)
    with pytest.raises(DegenerateGeometryError, match="period L=1e-300"):
        bond_graph(tiny)
    for x in (2.0**52, -(2.0**52)):
        with pytest.raises(DegenerateGeometryError, match="2\\*\\*52 periods"):
            near_pairs(np.array([[x, 0.0, 0.0], [0.0, 0.0, 0.0]]), 1.0, 1.1)
    assert near_pairs(np.array([[2.0**52 - 1, 0.0, 0.0], [0.0, 0.0, 0.0]]), 1.0, 1.1)[0].tolist() == [0]
    # at L = 2**996, x = +-2**1023 are whole periods from the origin, so the
    # two atoms coincide modulo L, but their difference overflowed to inf and
    # the pair was dropped; y or z near 1e300 overflowed in the squares
    for pos, L in (([[2.0**1023, 0, 0], [-(2.0**1023), 0, 0]], 2.0**996),
                   ([[0, 1e300, 0], [0, 0, 0]], 1.0), ([[0, 0, 0], [0, 0, -(2.0**510)]], 1.0)):
        with pytest.raises(DegenerateGeometryError, match="below 2\\*\\*510"):
            near_pairs(np.array(pos), L, 1.1)
    # below the bound, differences square to finite values; no pair is found
    # and no overflow warning (an error in this suite) is raised
    far = np.nextafter(2.0**510, 0)
    for pos, L in (([[far, 0, 0], [-far, 0, 0]], 2.0**1000), ([[0, far, 0], [0, -far, -far]], 1.0)):
        assert near_pairs(np.array(pos), L, 1.1)[0].tolist() == []


@settings(max_examples=300)
@given(
    n=st.integers(2, 80),
    L=st.floats(0.3, 8.0),
    radius=st.floats(0.3, 2.5),
    width=st.floats(0.5, 6.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_near_pairs_equal_nearest_image_oracle(n, L, radius, width, seed):
    # L // radius spans 0 to 26, so the axial cell count is 1 (fewer than
    # three cells fit) or 3 and more; each atom sits -2 to 2 periods away
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.0, 1.0, (n, 3)) * [L, width, width]
    pos[:, 0] += rng.integers(-2, 3, n) * L
    i, j, t, dist = near_pairs(pos, L, radius)
    ii, jj, tt, full = pairs_brute(pos, L, radius)
    assert np.array_equal(i, ii) and np.array_equal(j, jj)
    assert np.array_equal(t, tt) and np.array_equal(dist, full[ii, jj])


@settings(max_examples=200)
@given(
    n=st.integers(2, 60),
    clusters=st.integers(1, 6),
    spread=st.sampled_from([0.0, 1e-3, 0.05, 0.3]),
    L=st.floats(0.3, 8.0),
    radius=st.floats(0.3, 2.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_near_pairs_with_crowded_cells_equal_nearest_image_oracle(n, clusters, spread, L, radius, seed):
    # atoms drawn around a few centres, so that occupied cells hold several
    # atoms (coincident ones at spread 0), plus three lone atoms 10 apart in
    # y, farther than three cells of any radius drawn, whose 13 following
    # cells are empty; each atom sits -2 to 2 periods away
    rng = np.random.default_rng(seed)
    centres = rng.uniform(0.0, 1.0, (clusters, 3)) * [L, 4.0, 4.0]
    crowd = centres[rng.integers(0, clusters, n)] + rng.normal(0.0, spread, (n, 3))
    lone = np.column_stack([rng.uniform(0.0, L, 3), [20.0, 30.0, 40.0], rng.uniform(0.0, 4.0, 3)])
    pos = rng.permutation(np.concatenate([crowd, lone]))
    pos[:, 0] += rng.integers(-2, 3, len(pos)) * L
    i, j, t, dist = near_pairs(pos, L, radius)
    ii, jj, tt, full = pairs_brute(pos, L, radius)
    assert np.array_equal(i, ii) and np.array_equal(j, jj)
    assert np.array_equal(t, tt) and np.array_equal(dist, full[ii, jj])


def test_degrees_and_adjacency_match_pairs(tube12):
    g = bond_graph(_moved(tube12, 0.4, jitter=0.05))
    counts = np.zeros(g.n, dtype=int)
    for a, b in g.pairs:
        counts[a] += 1
        counts[b] += 1
    assert np.array_equal(g.degrees(), counts)
    # the neighbor lists the oracle's cell walk reads, from pairs and pair_shifts
    adj = adjacency(g.pairs, g.pair_shifts, g.n)
    for (a, b), t in zip(g.pairs, g.pair_shifts):
        assert (int(b), -int(t)) in adj[a]
        assert (int(a), int(t)) in adj[b]
    assert [len(row) for row in adj] == counts.tolist()
    assert all(row == sorted(row) for row in adj)


def test_single_atom_empty_graph():
    t = Nanotube(np.array([[0.5, 0, 0]]), 4.0, 1, 1)
    g = bond_graph(t)
    assert g.n_bonds == 0 and g.n_angles == 0


def test_bond_angle_values():
    # regular hexagon vertex
    assert bond_angle((1, 0, 0), (0, 0, 0), (-0.5, np.sqrt(3) / 2, 0)) == pytest.approx(
        2 * np.pi / 3, abs=1e-14
    )
    assert bond_angle((1, 0, 0), (0, 0, 0), (-1, 0, 0)) == pytest.approx(np.pi, abs=1e-12)
    with pytest.raises(DegenerateGeometryError):
        bond_angle((0, 0, 0), (0, 0, 0), (1, 0, 0))


def test_family_tube_angle_multiset(tube):
    graph = bond_graph(tube)
    u, v = leg_vectors_gathered(tube.positions, graph)
    cosangles = np.einsum("ij,ij->i", u, v) / (
        np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1)
    )
    angles = np.arccos(np.clip(cosangles, -1, 1))
    beta_expect = 2 * np.arcsin(np.sin(2 * np.pi / 3) * np.sin(7 * np.pi / 16))
    n_beta = np.sum(np.abs(angles - beta_expect) < 1e-10)
    n_alpha = np.sum(np.abs(angles - 2 * np.pi / 3) < 1e-10)
    assert n_beta == tube.n
    assert n_alpha == 2 * tube.n
    assert n_beta + n_alpha == len(angles)


def test_total_energy_matches_family_closed_form(pots_soft, rng):
    for _ in range(6):
        ell = int(rng.integers(5, 14))
        mu = float(rng.uniform(2.7, 3.05))
        l1 = float(rng.uniform(0.93, 1.07))
        l2 = float(rng.uniform(0.93, 1.07))
        m = int(rng.integers(1, 4))
        g = solve_family(ell, mu, l1, l2)
        t = build_nanotube(g, m)
        assert abs(total_energy(t, pots_soft) - family_energy(g, m, pots_soft)) <= 1e-9 * t.n


def test_isolated_atoms_zero_energy(pots_soft):
    t = Nanotube(np.array([[0.0, 0, 0], [2.0, 0, 0], [4.0, 0, 0]]), 9.0, 1, 1)
    assert total_energy(t, pots_soft) == 0.0


class _Scaled:
    def __init__(self, base, factor):
        self.base, self.factor = base, factor

    def value(self, r):
        return self.factor * self.base.value(r)

    def deriv(self, r):
        return self.factor * self.base.deriv(r)

    def deriv2(self, r):
        return self.factor * self.base.deriv2(r)


def test_doubling_pair_values_doubles_pair_term(tube, pots_soft):
    from nanolab.potentials import PotentialSet

    doubled = PotentialSet(_Scaled(pots_soft.v2, 2.0), pots_soft.v3)
    zero_angle = PotentialSet(pots_soft.v2, _Scaled(pots_soft.v3, 0.0))
    pair_term = total_energy(tube, zero_angle)
    e1 = total_energy(tube, pots_soft)
    e2 = total_energy(tube, doubled)
    assert e2 - e1 == pytest.approx(pair_term, abs=1e-9)


def test_family_energy_planar_values_give_minus_3n_over_2(pots_soft):
    from nanolab.geometry import ZigzagGeometry

    tp = 2 * np.pi / 3
    g = ZigzagGeometry(8, 3.0, 1.0, 1.0, 0.5, 2.0, tp, tp)
    n = 4 * 2 * 8
    assert family_energy(g, 2, pots_soft) == pytest.approx(-1.5 * n, abs=1e-12)


def test_family_energy_scales_with_m(pots_soft):
    g = solve_family(9, 2.9, 1.01, 0.98)
    assert family_energy(g, 4, pots_soft) == pytest.approx(2 * family_energy(g, 2, pots_soft), abs=1e-12)


def test_energy_isometry_invariance(tube, pots_soft):
    e0 = total_energy(tube, pots_soft)
    shifted = tube.with_positions(tube.positions + np.array([0.7, -2.3, 0.9]))
    assert abs(total_energy(shifted, pots_soft) - e0) <= 1e-10 * tube.n
    th = 1.234
    rot = np.array([[1, 0, 0], [0, np.cos(th), -np.sin(th)], [0, np.sin(th), np.cos(th)]])
    rotated = tube.with_positions(tube.positions @ rot.T)
    assert abs(total_energy(rotated, pots_soft) - e0) <= 1e-10 * tube.n


def test_gradient_matches_finite_differences(tube, pots_soft, rng):
    t = tube.with_positions(tube.positions + 2e-3 * rng.standard_normal(tube.positions.shape))
    graph = bond_graph(t)
    grad = gradient(t, pots_soft, graph)
    h = 1e-6
    for idx in [(0, 0), (7, 1), (20, 2), (55, 0), (63, 2)]:
        p = t.positions.copy()
        p[idx] += h
        ep = total_energy(t.with_positions(p), pots_soft, graph)
        p[idx] -= 2 * h
        em = total_energy(t.with_positions(p), pots_soft, graph)
        fd = (ep - em) / (2 * h)
        assert grad[idx] == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_gradient_zero_modes(tube, pots_soft, rng):
    t = tube.with_positions(tube.positions + 1e-3 * rng.standard_normal(tube.positions.shape))
    grad = gradient(t, pots_soft)
    for d in range(3):
        v = np.zeros_like(t.positions)
        v[:, d] = 1.0
        assert abs(np.sum(grad * v)) <= 1e-8
    rot = np.zeros_like(t.positions)
    rot[:, 1] = -t.positions[:, 2]
    rot[:, 2] = t.positions[:, 1]
    assert abs(np.sum(grad * rot)) <= 1e-8


@settings(max_examples=12)
@given(
    periods=st.floats(-3.0, 3.0),
    angle=st.floats(0.0, 2 * np.pi),
    jitter=st.floats(0.0, 0.03),
    seed=st.integers(0, 2**16),
)
def test_hessian_matches_fd_oracle(tube, pots_soft, periods, angle, jitter, seed):
    # rigidly moved, jittered (not stationary) copies with each atom written
    # in its own period
    moved = _moved(tube, periods, angle, jitter, seed)
    k = np.random.default_rng(seed + 1).integers(-3, 4, tube.n)
    t = moved.with_positions(moved.positions + np.outer(k, E1) * tube.period)
    graph = bond_graph(t)
    h = hessian(t, pots_soft, graph)
    scale = np.max(np.abs(h))
    assert np.max(np.abs(h - hessian_fd(t, pots_soft, graph))) <= 1e-5 * scale
    assert np.max(np.abs(h - h.T)) <= 1e-14 * scale
    for d in range(3):
        assert np.max(np.abs(h @ np.tile(np.eye(3)[d], t.n))) <= 1e-13 * scale


def test_hessian_degenerate_inputs(pots_soft):
    lone = Nanotube(np.array([[0.0, 0, 0], [5.0, 0, 0]]), 10.0, 1, 1)
    assert np.array_equal(hessian(lone, pots_soft), np.zeros((6, 6)))
    stacked = Nanotube(np.array([[0.0, 0, 0], [0.0, 0, 0]]), 10.0, 1, 1)
    with pytest.raises(DegenerateGeometryError):
        hessian(stacked, pots_soft)
    for bend in (0.0, 1e-9):
        straight = Nanotube(np.array([[-1.0, 0, 0], [0.0, bend, 0], [1.0, 0, 0]]), 20.0, 1, 1)
        with pytest.raises(DegenerateGeometryError):
            hessian(straight, pots_soft)
    bent = Nanotube(np.array([[-1.0, 0, 0], [0.0, 1e-3, 0], [1.0, 0, 0]]), 20.0, 1, 1)
    h = hessian(bent, pots_soft)
    assert np.max(np.abs(h - hessian_fd(bent, pots_soft, bond_graph(bent)))) <= 1e-8 * np.max(np.abs(h))


def test_gradient_vanishes_at_family_minimum(pots_soft):
    from nanolab.reduced import minimize_family

    fam = minimize_family(2.99, 10, pots_soft, m=3)
    t = build_nanotube(fam.geometry, 3)
    g = gradient(t, pots_soft)
    assert np.linalg.norm(g) < 1e-8 * np.sqrt(t.n)


def test_energy_continuity_across_bond_graph_change(pots_soft):
    # v2 and its derivatives vanish at the cutoff, so energy is smooth while a
    # pair crosses 1.1
    left = Nanotube(np.array([[0.0, 0, 0], [1.1 - 1e-8, 0, 0]]), 10.0, 1, 1)
    right = Nanotube(np.array([[0.0, 0, 0], [1.1 + 1e-8, 0, 0]]), 10.0, 1, 1)
    assert abs(total_energy(left, pots_soft) - total_energy(right, pots_soft)) < 1e-12


def test_geometric_bonds_equal_combinatorial_neighbors(tube):
    graph = bond_graph(tube)
    adj = adjacency(graph.pairs, graph.pair_shifts, graph.n)
    for idx in range(tube.n):
        got = {b for b, _ in adj[idx]}
        a = index_to_id(idx, tube.ell, tube.m)
        want = {flat_index(tube.ell, tube.m, *nb) for nb, _ in expected_neighbors(a, tube.ell, tube.m)}
        assert got == want


@pytest.mark.parametrize("ell,m,longer", [(8, 1, 3), (6, 2, 4), (12, 1, 2)])
def test_bloch_blocks_at_continuous_phase_give_longer_tube_spectrum(pots_soft, ell, m, longer):
    # any family member, stationary or not: the blocks of the m-tube at the
    # phases 2 pi k / longer are the blocks of the longer tube, whose dense
    # Hessian is the oracle; (mu, lambda1) make the last motif atom wrap at m = 1
    geom = solve_family(ell, 2.95, 1.02, 0.98)
    short, long_ = build_nanotube(geom, m), build_nanotube(geom, longer * m)
    p, k = np.meshgrid(np.arange(ell), np.arange(longer * m), indexing="ij")
    blocks = bloch_table(short, pots_soft).blocks(p.ravel(), 2.0 * np.pi * k.ravel() / (longer * m))
    dense = np.linalg.eigvalsh(hessian(long_, pots_soft))
    spectrum = np.sort(np.linalg.eigvalsh(blocks), axis=None)
    assert np.max(np.abs(spectrum - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_bloch_blocks_hermitian_and_conjugate_pairs(pots_soft):
    tube = build_nanotube(solve_family(10, 2.9, 1.0, 1.0), 3)
    p = np.array([0, 3, -3, 2])
    q = np.array([0.0, 0.7, -0.7, np.pi])
    b = bloch_table(tube, pots_soft).blocks(p, q)
    scale = np.max(np.abs(b))
    assert np.max(np.abs(b - b.conj().transpose(0, 2, 1))) <= 1e-13 * scale
    assert np.max(np.abs(b[1] - b[2].conj())) <= 1e-13 * scale
    assert np.max(np.abs(b[0].imag)) <= 1e-13 * scale


def test_bloch_modes_are_eigenvectors_of_the_dense_hessian(pots_soft):
    # bloch_modes lifts a block's eigenvectors with the blocks' convention:
    # the lifted vectors are eigenvectors of hessian(tube) with the same values
    tube = build_nanotube(solve_family(7, 2.95, 1.02, 0.98), 3)
    dense = hessian(tube, pots_soft)
    table = bloch_table(tube, pots_soft)
    for p, k in [(0, 0), (2, 1), (-3, 2)]:
        q = 2.0 * np.pi * k / tube.m
        w, v = np.linalg.eigh(table.blocks([p], [q])[0])
        modes = bloch_modes(table, p, q, v)
        assert modes.shape == (3 * tube.n, 12)
        residual = dense @ modes - modes * w
        assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(dense)) * np.sqrt(tube.n)


def test_total_energy_raises_on_coincident_bonded_atoms(tube, pots_soft):
    # the second copy of the stack puts atom b of an unshifted bond onto atom
    # a, so every angle with that bond as a leg is undefined
    graph = bond_graph(tube)
    a, b = graph.pairs[np.flatnonzero(graph.pair_shifts == 0)[0]]
    stack = np.stack([tube.positions, tube.positions])
    stack[1, b] = stack[1, a]
    with pytest.raises(DegenerateGeometryError, match="zero-length bond leg"):
        total_energy(tube, pots_soft, graph, stack)
    with pytest.raises(DegenerateGeometryError, match="zero-length bond leg"):
        total_energy(tube.with_positions(stack[1]), pots_soft)


@pytest.mark.parametrize("L", [1e-3, 0.5, 1.0, 2.0, float(np.nextafter(2.2, 0.0))])
def test_periods_below_twice_the_cutoff_are_refused(tube, L):
    # below 2 * BOND_CUTOFF an atom can bond to two images of another, and
    # the nearest-image search keeps one: energy and cells exited 0 with
    # numbers of no configuration
    from nanolab.cells import gather_cells

    short = Nanotube(tube.positions, L, tube.ell, tube.m)
    for build in (bond_graph, gather_cells):
        with pytest.raises(DegenerateGeometryError, match=f"^period L={L!r} is below twice the bond cutoff 1.1"):
            build(short)
    bond_graph(Nanotube(tube.positions[:4], 2.2, 1, 1))


def test_numpy_period_is_named_as_a_float(tube):
    # a period held as np.float64 was named as "np.float64(2.1999999999999997)"
    from nanolab.cells import gather_cells

    short = Nanotube(tube.positions, np.nextafter(np.float64(2.2), 0.0), tube.ell, tube.m)
    for build in (bond_graph, gather_cells):
        with pytest.raises(DegenerateGeometryError, match=r"^period L=2\.1999999999999997 is below twice"):
            build(short)
    far = Nanotube(np.array([[2.0**60, 0.0, 0.0], [0.0, 0.0, 0.0]]), np.float64(3.0), 1, 1)
    with pytest.raises(DegenerateGeometryError, match=r"2\*\*52 periods of the origin, period L=3\.0$"):
        bond_graph(far)


@pytest.mark.parametrize("k", [-2, -1, 1, 2])
def test_atoms_coinciding_through_an_image_are_refused(tube, k):
    # an atom moved onto another's image k periods away sits a few ulps from
    # it after the image shift, and the angles at that bond were arbitrary
    pos = tube.positions.copy()
    pos[9] = pos[8] + [k * tube.period, 0.0, 0.0]
    with pytest.raises(DegenerateGeometryError, match="^zero-length bond leg$"):
        bond_graph(tube.with_positions(pos))


@lru_cache(maxsize=None)
def _family(preset, ell, m, offset=0.005):
    from nanolab.reduced import minimize_family, reference_angles

    pots = potentials.load(preset)
    return build_nanotube(minimize_family(reference_angles(ell, pots).mu_us + offset, ell, pots, m=m).geometry, m)


def _assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def _assert_value_path_equals_gathered_legs(tube, pots, graph, stack, batch):
    """The angles and energies of the configurations stack (count, n, 3) of
    tube's atoms equal those of legs gathered from the positions, to the bit:
    one tube at a time when batch is None, else the stack as a batch."""
    positions = stack[0] if batch is None else stack
    _assert_same_bits(energy._lengths_and_angles(positions, graph)[1], bond_angles_gathered(positions, graph))
    if batch is None:
        one = tube.with_positions(stack[0])
        _assert_same_bits(total_energy(one, pots, graph), total_energy_gathered(one, pots, graph))
        _assert_same_bits(total_energy(one, pots), total_energy_gathered(one, pots))
    else:
        _assert_same_bits(total_energy(tube, pots, graph, stack), total_energy_gathered(tube, pots, graph, stack))


def _assert_derivatives_equal_gathered_legs(tube, pots, graph):
    """The gradient and Hessian of tube equal those of legs gathered from the
    positions, to the bit."""
    _assert_same_bits(gradient(tube, pots, graph), gradient_gathered(tube, pots, graph))
    _assert_same_bits(hessian(tube, pots, graph), term_hessian_gathered(tube.positions, graph, pots.v2, pots.v3))


@settings(max_examples=60)
@given(
    preset=st.sampled_from(["soft", "stiff"]),
    ell=st.sampled_from([4, 6, 12]),
    m=st.integers(1, 3),
    moved=st.booleans(),
    relabelled=st.booleans(),
    eta=st.sampled_from([0.0, 1e-3, 0.02]),
    batch=st.sampled_from([None, 1, 5, 21]),
    seed=st.integers(0, 2**32 - 1),
)
def test_angles_from_bond_references_equal_gathered_legs_on_tubes(preset, ell, m, moved, relabelled, eta, batch, seed):
    # family tubes as built (their legs have exactly-zero components), rotated
    # and moved by -2 ... 2 periods rigidly and atom by atom, relabelled and
    # perturbed, alone and as stacks; the derivatives of the first
    # configuration.  The Bloch blocks of a tube as built sum the terms
    # anchored at the motif, the oracle's every term that touches it: one
    # sum, grouped by term orbits, so they agree to round-off (at most
    # 31 eps max|B| over ell 4 .. 96, m 1 .. 16 and both presets)
    pots = potentials.load(preset)
    tube = _family(preset, ell, m)
    rng = np.random.default_rng(seed)
    pos = tube.positions
    if moved:
        pos = pos @ axial_rotations(rng.uniform(0.0, 2.0 * np.pi)).T
        pos[:, 0] += (rng.uniform(-2.0, 2.0) + rng.integers(-2, 3, tube.n)) * tube.period
    if relabelled:
        pos = pos[rng.permutation(tube.n)]
    tube = tube.with_positions(pos)
    graph = bond_graph(tube)
    stack = np.repeat(pos[None], 1 if batch is None else batch, axis=0)
    if eta:
        stack += rng.uniform(-eta, eta, stack.shape)
    _assert_value_path_equals_gathered_legs(tube, pots, graph, stack, batch)
    _assert_derivatives_equal_gathered_legs(tube.with_positions(stack[0]), pots, graph)
    if not (moved or relabelled):
        p = np.repeat(np.arange(ell), m)
        q = np.tile(2.0 * np.pi * np.arange(m) / m, ell)
        oracle = bloch_blocks_gathered(tube, pots, p, q, graph)
        bound = 64.0 * np.finfo(float).eps * np.max(np.abs(oracle))
        assert np.max(np.abs(bloch_table(tube, pots).blocks(p, q) - oracle)) <= bound


@settings(max_examples=60)
@given(
    preset=st.sampled_from(["soft", "stiff"]),
    n=st.integers(3, 60),
    L=st.floats(2.2, 8.0),
    width=st.floats(0.5, 2.5),
    batch=st.sampled_from([None, 1, 5, 21]),
    seed=st.integers(0, 2**32 - 1),
)
def test_angles_from_bond_references_equal_gathered_legs_on_clouds(preset, n, L, width, batch, seed):
    # random clouds with each atom written -1 ... 1 periods away, so that
    # bonds carry image shifts of up to +-3: the leg references equal the
    # lookup oracle, the derived triple shifts graph_brute's; the derivatives
    # of the first configuration
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.0, 1.0, (n, 3)) * [L, width, width]
    pos[:, 0] += rng.integers(-1, 2, n) * L
    cloud = Nanotube(pos, L, 1, 1)
    graph = bond_graph(cloud)
    assert_graph_equals_brute(graph, cloud)
    stack = pos + rng.uniform(-1e-3, 1e-3, (1 if batch is None else batch, n, 3))
    pots = potentials.load(preset)
    _assert_value_path_equals_gathered_legs(cloud, pots, graph, stack, batch)
    _assert_derivatives_equal_gathered_legs(cloud.with_positions(stack[0]), pots, graph)


@settings(max_examples=200)
@given(
    preset=st.sampled_from(["soft", "stiff"]),
    terms=st.integers(1, 24),
    weights=st.sampled_from(["one", "half", "per-term"]),
    second=st.booleans(),
    zeros=st.sampled_from([0.0, 0.2, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_term_kernels_equal_einsum_oracle(preset, terms, weights, second, zeros, seed):
    # the kernels' spelled-out sign and leg algebra gives the bits of the
    # einsum contractions, the sign of zero included (compared as int64):
    # legs 0.8 .. 1.15 long, across the pair cutoff's knots, with components
    # set to exactly +0.0 or -0.0, so a -0.0 leg component comes out as
    # einsum's +0.0
    pots = potentials.load(preset)
    rng = np.random.default_rng(seed)
    legs = rng.normal(size=(3, terms, 3))
    legs *= rng.uniform(0.8, 1.15, (3, terms, 1)) / np.linalg.norm(legs, axis=-1, keepdims=True)
    hit = rng.random(legs.shape) < zeros
    legs[hit] = rng.choice([0.0, -0.0], int(np.sum(hit)))
    legs[..., 0][~np.any(legs, axis=-1)] = 1.0
    w = {"one": 1.0, "half": 0.5, "per-term": rng.uniform(0.1, 2.0, terms)}[weights]
    d, u, v = legs
    for kernel, oracle, args in ((energy._bond_term, bond_term_einsum, (d, pots.v2)),
                                 (energy._angle_term, angle_term_einsum, (u, v, pots.v3))):
        try:
            want = oracle(*args, w, second)
        except DegenerateGeometryError as err:
            with pytest.raises(DegenerateGeometryError, match=str(err)):
                kernel(*args, w, second)
            continue
        got = kernel(*args, w, second)
        assert (got[1] is None) == (want[1] is None) == (not second)
        for a, b in zip(got, want):
            if b is not None:
                assert a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))
                assert not np.any(np.signbit(a) & (a == 0.0))


@settings(max_examples=40)
@given(
    preset=st.sampled_from(["soft", "stiff"]),
    ell=st.sampled_from([4, 5, 6, 7, 12, 24, 48, 96]),
    m=st.sampled_from([1, 2, 3, 4, 16]),
    offset=st.sampled_from([0.0, 0.01]),
    moved=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(preset="stiff", ell=96, m=16, offset=0.0, moved=True, seed=0)
@example(preset="soft", ell=4, m=1, offset=0.01, moved=False, seed=0)
def test_bloch_table_equals_einsum_assembly(preset, ell, m, offset, moved, seed):
    # the table rotates each slot pair into the motif frames by two batched
    # matmuls, which round differently from the oracle's one einsum: the
    # couplings agree within 4 eps max|coupling| (at most 1.53 measured over
    # ell 4 .. 96, m 1 .. 16, both presets, mu_us and mu_us + 0.01, built and
    # rigidly moved).  The offsets, and the motif gradient, whose rotation is
    # written out in closed form, are the oracle's to the bit
    pots = potentials.load(preset)
    tube = _family(preset, ell, m, offset)
    if moved:
        rng = np.random.default_rng(seed)
        pos = tube.positions @ axial_rotations(rng.uniform(0.0, 2.0 * np.pi)).T
        tube = tube.with_positions(pos + [rng.uniform(-2.0, 2.0) * tube.period, *rng.uniform(-1.5, 1.5, 2)])
    table, oracle = bloch_table(tube, pots), bloch_table_einsum(tube, pots)
    assert np.array_equal(table.offsets, oracle.offsets)
    assert table.gradient.tobytes() == oracle.gradient.tobytes()
    assert np.max(np.abs(table.coupling - oracle.coupling)) <= 4.0 * np.finfo(float).eps * np.max(np.abs(oracle.coupling))
