import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import (
    bond_angles_gathered,
    cell_angles_einsum,
    cell_energy_gradient,
    cell_plane_angles_cross,
    centers,
    extract_cell,
    gather_cells_per_vector,
    leg_references,
    plane_angle_theta,
    reflect_s1,
    reflect_s2,
    sample_perturbation_rebuild,
    symmetrize_reflect,
    t_jacobian_gathered,
    term_hessian_gathered,
    to_local_einsum,
    total_energy_einsum,
    triple_shifts,
)

from nanolab import cells, potentials, stability
from nanolab.cells import (
    angle_sum,
    cell_angles,
    cell_atom_indices,
    cell_bond_lengths,
    cell_energies,
    cell_plane_angles,
    cell_summary,
    gather_cells,
    total_cell_energy,
    total_symmetry_defect,
)
from nanolab.cellspec import cell_hessian, t_jacobian
from nanolab.energy import _bond_lengths, _bond_vectors, bond_graph, total_energy
from nanolab.errors import DegenerateGeometryError, InvalidCellError
from nanolab.geometry import Nanotube, axial_rotations, build_nanotube, flat_index, solve_family
from nanolab.reduced import ReducedPoint, beta, minimize_family, reference_angles, sym_energy
from nanolab.stability import MODES, BondBand, PerturbationSpec, sample_perturbations


@pytest.fixture(scope="module")
def geom():
    return solve_family(12, 2.98, 1.004, 0.997)


@pytest.fixture(scope="module")
def tube(geom):
    return build_nanotube(geom, 3)


@pytest.fixture(scope="module")
def perturbed(tube):
    rng = np.random.default_rng(77)
    return tube.with_positions(tube.positions + 1e-3 * rng.standard_normal(tube.positions.shape))


def test_family_cell_bonds_and_angles(tube, geom):
    c = gather_cells(tube)
    b = cell_bond_lengths(c)
    want_b = np.array([geom.lambda1] * 2 + [geom.lambda2] * 4 + [geom.lambda1] * 2)
    assert np.max(np.abs(b - want_b)) < 1e-10
    phi = cell_angles(c)
    want_phi = np.array([geom.beta] * 2 + [geom.alpha] * 8)
    assert np.max(np.abs(phi - want_phi)) < 1e-10


def test_center_counts_and_coplanarity(tube):
    cs = centers(tube)
    assert cs.count == 2 * tube.m * tube.ell
    assert int(np.prod(cs.z_dual.shape[:-1])) == 2 * tube.m * tube.ell
    # for fixed j the 2*ell points z_{i,j,0} and z_dual_{i,j-1,1} share one
    # first coordinate
    j = 1
    x_first = np.concatenate([cs.z[:, j, 0, 0], cs.z_dual[:, j - 1, 1, 0]])
    assert np.ptp(x_first) < 1e-12


def test_degenerate_midpoint_synthetic():
    # when both generators coincide, the center degenerates to the atom
    from nanolab.geometry import Nanotube

    pos = np.zeros((4 * 4 * 1, 3))
    t = Nanotube(pos, 5.0, 4, 1)
    cs = centers(t)
    assert np.allclose(cs.z, 0.0)


def test_cell_table_is_cached_and_read_only(tube):
    table = cell_atom_indices(tube.ell, tube.m)
    assert cell_atom_indices(tube.ell, tube.m) is table
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0, 0, 0] = 1
    fresh = cell_atom_indices.__wrapped__(tube.ell, tube.m)
    assert np.array_equal(table, fresh)


def test_extract_cell_matches_label_table(tube):
    graph = bond_graph(tube)
    table = cell_atom_indices(tube.ell, tube.m)
    for center in [(1, 0, 0), (4, 2, 1), (12, 1, 0), (7, 0, 1)]:
        view = extract_cell(tube, center, graph)
        i, j, k = center
        assert np.array_equal(view.atom_indices, table[i - 1, j, k])


def test_extract_cell_rejects_wrong_degree(tube):
    bad = tube.with_positions(np.delete(tube.positions, 5, axis=0))
    bad.positions = np.vstack([bad.positions, [[0.0, 50.0, 0.0]]])  # far-away atom
    graph = bond_graph(bad)
    with pytest.raises(InvalidCellError):
        extract_cell(bad, (2, 0, 0), graph)


def test_perturbing_one_atom_only_changes_its_cells(tube, pots_soft):
    table = cell_atom_indices(tube.ell, tube.m)
    e0 = cell_energies(gather_cells(tube), pots_soft)
    target = flat_index(tube.ell, tube.m, 3, 1, 0, 1)
    pos = tube.positions.copy()
    pos[target] += np.array([2e-4, -1e-4, 3e-4])
    e1 = cell_energies(gather_cells(tube.with_positions(pos)), pots_soft)
    changed = np.abs(e1 - e0) > 1e-15
    member = np.any(table == target, axis=-1)
    assert np.array_equal(changed, member)


def test_cell_decomposition_unperturbed(tube, pots_soft):
    assert abs(total_cell_energy(tube, pots_soft) - total_energy(tube, pots_soft)) <= 1e-9 * tube.n


def test_cell_decomposition_perturbed(perturbed, pots_soft):
    assert (
        abs(total_cell_energy(perturbed, pots_soft) - total_energy(perturbed, pots_soft))
        <= 1e-9 * perturbed.n
    )


def test_family_cell_energy_equals_symmetric_energy(tube, geom, pots_soft):
    c = gather_cells(tube)[0, 0, 0]
    e_cell = float(cell_energies(c, pots_soft))
    pt = ReducedPoint(geom.mu, geom.gamma_ell, geom.gamma_ell, geom.lambda2, geom.alpha, geom.alpha)
    assert e_cell == pytest.approx(sym_energy(pt, pots_soft), abs=1e-12)


def test_all_zero_potentials_give_zero(tube):
    class _Zero:
        def value(self, x):
            return np.zeros_like(np.asarray(x, dtype=float))

        deriv = value
        deriv2 = value

    from nanolab.potentials import PotentialSet

    z = PotentialSet(_Zero(), _Zero())
    assert total_cell_energy(tube, z) == 0.0


def test_plane_angle_theta_flat_and_invariance(rng):
    x = np.array([0.0, 0, 0])
    n1 = np.array([1.0, 0, 0])
    n2 = np.array([-0.5, np.sqrt(3) / 2, 0])
    ax = np.array([-0.5, -np.sqrt(3) / 2, 0])
    assert plane_angle_theta(x, n1, n2, ax) == pytest.approx(np.pi, abs=1e-12)
    # rigid-motion invariance
    th = 0.83
    rot = np.array([[np.cos(th), -np.sin(th), 0], [np.sin(th), np.cos(th), 0], [0, 0, 1]])
    shift = rng.standard_normal(3)
    pts = np.stack([x, n1, n2, ax]) @ rot.T + shift
    assert plane_angle_theta(pts[0], pts[1], pts[2], pts[3]) == pytest.approx(np.pi, abs=1e-12)


def test_family_plane_angles_equal_gamma(tube, geom):
    th = cell_plane_angles(gather_cells(tube))
    assert np.max(np.abs(th - geom.gamma_ell)) < 1e-10


def test_dual_plane_angle_consistent_with_beta_constraint(tube, geom):
    # on the family, beta(alpha, theta_dual) reproduces the measured phi1
    c = gather_cells(tube)[0, 0, 0]
    th = cell_plane_angles(c)
    phi = cell_angles(c)
    assert beta(phi[2:6].mean(), th[2]) == pytest.approx(phi[0], abs=1e-10)


def test_angle_sum_identity_unperturbed(tube):
    target = 4 * tube.m * (2 * tube.ell - 2) * np.pi
    assert abs(angle_sum(tube) - target) <= 1e-8


def test_angle_sum_excess_controlled_by_defect(tube, pots_soft):
    # fit the constant on one half of the ensemble, validate on the other half
    target = 4 * tube.m * (2 * tube.ell - 2) * np.pi
    band = BondBand(tube, 1e-3)
    excesses, defects = [], []
    for trial in range(24):
        positions, _ = sample_perturbations(tube, PerturbationSpec(eta=1e-3, seed=5, count=24), [trial], band)
        sample = tube.with_positions(positions[0])
        excesses.append(angle_sum(sample) - target)
        defects.append(float(np.sum(symmetrize_reflect(to_local_einsum(gather_cells(sample)))[2])))
    excesses = np.array(excesses)
    defects = np.array(defects)
    chat = max(excesses[:12] / defects[:12])
    assert np.all(defects > 0)
    bound = np.maximum(1e-8, 2.0 * max(chat, 0.0) * defects[12:])
    assert np.all(excesses[12:] <= bound)


def test_symmetrize_fixed_point(pots_soft):
    from nanolab.cellspec import kink_cell

    kc = kink_cell(16, pots_soft)[None]
    xp, sx, delta = symmetrize_reflect(kc)
    assert float(delta[0]) <= 1e-28
    assert np.allclose(sx[0], kc[0], atol=1e-14)


def test_reflections_preserve_cell_energy(perturbed, pots_soft):
    loc = to_local_einsum(gather_cells(perturbed))
    e0 = cell_energies(loc, pots_soft)
    assert np.max(np.abs(cell_energies(reflect_s1(loc), pots_soft) - e0)) <= 1e-10
    assert np.max(np.abs(cell_energies(reflect_s2(loc), pots_soft) - e0)) <= 1e-10


def test_symmetrized_cell_satisfies_symmetry_classes(perturbed):
    loc = to_local_einsum(gather_cells(perturbed))
    _, sx, _ = symmetrize_reflect(loc)
    b = cell_bond_lengths(sx)
    phi = cell_angles(sx)
    assert np.max(np.abs(b[..., 0] - b[..., 1])) <= 1e-10
    assert np.max(np.ptp(b[..., 2:6], axis=-1)) <= 1e-10
    assert np.max(np.abs(b[..., 6] - b[..., 7])) <= 1e-10
    assert np.max(np.abs(phi[..., 0] - phi[..., 1])) <= 1e-10
    assert np.max(np.ptp(phi[..., 2:6], axis=-1)) <= 1e-10
    assert np.max(np.ptp(phi[..., 6:10], axis=-1)) <= 1e-10
    # generators end up axial and the dual centers stay on the axis
    assert np.max(np.abs(sx[..., 1, 1:] - sx[..., 0, 1:])) <= 1e-12
    pq = 0.5 * (sx[..., 1, :] + sx[..., 7, :]) - 0.5 * (sx[..., 0, :] + sx[..., 6, :])
    assert np.max(np.abs(pq[..., 1:])) <= 1e-12


def test_dual_center_distance_invariant_under_symmetrization(perturbed):
    loc = to_local_einsum(gather_cells(perturbed))
    _, sx, _ = symmetrize_reflect(loc)

    def dual(x):
        return np.linalg.norm(
            0.5 * (x[..., 1, :] + x[..., 7, :]) - 0.5 * (x[..., 0, :] + x[..., 6, :]), axis=-1
        )

    assert np.max(np.abs(dual(loc) - dual(sx))) <= 1e-12


def test_beta_closure_exact_on_symmetric_cells(perturbed):
    loc = to_local_einsum(gather_cells(perturbed))
    _, sx, _ = symmetrize_reflect(loc)
    sx = sx.reshape(-1, 8, 3)
    phi = cell_angles(sx)
    th = cell_plane_angles(sx)
    g1 = 0.5 * (th[:, 0] + th[:, 1])
    g2 = 0.5 * (th[:, 2] + th[:, 3])
    a1 = phi[:, 2:6].mean(axis=1)
    a2 = phi[:, 6:10].mean(axis=1)
    assert np.max(np.abs(phi[:, 0] - beta(a1, g1))) <= 1e-12
    assert np.max(np.abs(phi[:, 0] - beta(a2, g2))) <= 1e-12


def test_symmetric_cell_energy_lower_bound(pots_soft):
    # cells inside the tight bond-length/angle-split gates: the symmetric
    # energy bounds the cell energy from below up to a fitted multiple of
    # ell^-4 (gamma1-gamma2)^2
    ell, m = 12, 2
    refs = reference_angles(ell, pots_soft)
    fam = minimize_family(refs.mu_us, ell, pots_soft)
    base = build_nanotube(fam.geometry, m)
    eta = 0.25 / ell**4
    band = BondBand(base, eta)
    margins, gaps = [], []
    for trial in range(10):
        positions, _ = sample_perturbations(base, PerturbationSpec(eta=eta, seed=11, count=10), [trial], band)
        loc = to_local_einsum(gather_cells(base.with_positions(positions[0])))
        _, sx, _ = symmetrize_reflect(loc)
        sx = sx.reshape(-1, 8, 3)
        b = cell_bond_lengths(sx)
        th = cell_plane_angles(sx)
        phi = cell_angles(sx)
        g1 = 0.5 * (th[:, 0] + th[:, 1])
        g2 = 0.5 * (th[:, 2] + th[:, 3])
        lam1b = 0.5 * (b[:, 0] + b[:, 1])
        lam3b = 0.5 * (b[:, 6] + b[:, 7])
        gate = (np.abs(lam1b - 1) + np.abs(lam3b - 1) <= ell**-4) & (np.abs(g1 - g2) <= ell**-2)
        pq = 0.5 * (sx[:, 1] + sx[:, 7]) - 0.5 * (sx[:, 0] + sx[:, 6])
        mu_t = np.linalg.norm(pq, axis=-1)
        for i in np.where(gate)[0]:
            pt = ReducedPoint(
                mu_t[i], g1[i], g2[i], float(b[i, 2:6].mean()), float(phi[i, 2:6].mean()), float(phi[i, 6:10].mean())
            )
            margins.append(float(cell_energies(sx[i], pots_soft)) - sym_energy(pt, pots_soft))
            gaps.append(g1[i] - g2[i])
    margins = np.array(margins)
    gaps = np.array(gaps)
    assert len(margins) >= 100
    deficits = np.maximum(0.0, -margins)
    # deficits are tiny in absolute terms and vanish quadratically with the split
    assert float(np.max(deficits)) < 1e-6
    real = deficits > 1e-13
    assert np.any(real)
    ratio = deficits[real] / gaps[real] ** 2
    assert float(np.max(ratio)) < 10.0 * pots_soft.v2_curvature_at_min()
    c0_hat = float(np.max(ratio)) * ell**4
    assert c0_hat > 0.0


def test_cell_energy_gradient_matches_fd(pots_soft, rng):
    from nanolab.cellspec import planar_reference

    cell = planar_reference() + 0.02 * rng.standard_normal((8, 3))
    grad = cell_energy_gradient(cell, pots_soft)
    h = 1e-6
    for idx in [(0, 0), (3, 1), (6, 2), (7, 0)]:
        c = cell.copy()
        c[idx] += h
        ep = float(cell_energies(c, pots_soft))
        c[idx] -= 2 * h
        em = float(cell_energies(c, pots_soft))
        assert grad[idx] == pytest.approx((ep - em) / (2 * h), rel=1e-6, abs=1e-9)


def test_cell_view_accessors(tube, pots_soft, geom):
    view = extract_cell(tube, (2, 1, 0))
    assert view.energy(pots_soft) == pytest.approx(
        float(cell_energies(gather_cells(tube)[1, 1, 0], pots_soft)), abs=1e-12
    )
    assert view.theta_bar() == pytest.approx(geom.gamma_ell, abs=1e-10)
    assert view.dual_center_distance() == pytest.approx(geom.mu, abs=1e-10)
    xp, sx, delta = view.symmetrize()
    assert delta <= 1e-20


@settings(max_examples=15)
@given(
    ell=st.integers(4, 16),
    m=st.integers(1, 4),
    a=st.integers(0, 15),
    b=st.integers(0, 3),
    seed=st.integers(0, 2**31 - 1),
    eta=st.sampled_from([0.0, 1e-6, 1e-3, 0.02]),
)
def test_energy_and_cells_invariant_under_relabelling(pots_soft, ell, m, a, b, seed, eta):
    # the Z_ell x Z_m action the Bloch blocks rely on: rotating a perturbed
    # family tube by 2 pi a / ell and translating it by b mu, with the labels
    # (i, j) moved to (i + a, j + b), changes no energy and moves each cell's
    # energy to its relabelled center
    a, b = a % ell, b % m
    geom = solve_family(ell, 2.95, 1.0, 0.99)
    tube = build_nanotube(geom, m)
    moved = tube.positions + np.random.default_rng(seed).uniform(-eta, eta, tube.positions.shape)
    image = moved.reshape(m, ell, 4, 3) @ axial_rotations(2.0 * np.pi * a / ell).T + np.array([b * geom.mu, 0.0, 0.0])
    relabelled = tube.with_positions(np.roll(image, (b, a), axis=(0, 1)).reshape(-1, 3))
    tube = tube.with_positions(moved)
    e0 = total_energy(tube, pots_soft)
    assert abs(total_energy(relabelled, pots_soft) - e0) <= 1e-12 * abs(e0)
    cells0 = cell_energies(gather_cells(tube), pots_soft)
    cells1 = cell_energies(gather_cells(relabelled), pots_soft)
    assert np.max(np.abs(cells1 - np.roll(cells0, (a, b), axis=(0, 1)))) <= 1e-12


def _assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


@settings(max_examples=80)
@given(
    ell=st.sampled_from([4, 6, 12]),
    m=st.integers(1, 3),
    moved=st.booleans(),
    eta=st.sampled_from([0.0, 1e-3, 0.02]),
    shape=st.sampled_from([(), (3,), (2, 2)]),
    preset=st.sampled_from(["soft", "stiff"]),
    mode=st.sampled_from(MODES),
    seed=st.integers(0, 2**31 - 1),
)
def test_explicit_component_kernels_equal_einsum_oracle(ell, m, moved, eta, shape, preset, mode, seed):
    # the chunked draws, energies, cell angles and symmetry defects (formed
    # in the cell frames) of family tubes, perturbed (eta > 0) or not, as built or moved
    # (unwrapped, rotated), one at a time and as stacks, equal the per-trial
    # draw and the einsum / np.cross / np.linalg.norm forms to the bit
    pots = potentials.load(preset)
    base = build_nanotube(minimize_family(reference_angles(ell, pots).mu_us + 0.005, ell, pots, m=m).geometry, m)
    if moved:
        rng = np.random.default_rng(seed)
        image = base.positions @ axial_rotations(rng.uniform(0.0, 2.0 * np.pi)).T
        image[:, 0] += rng.uniform(-2.0, 2.0) * base.period
        base = base.with_positions(image)
    count = int(np.prod(shape, dtype=int))
    spec = PerturbationSpec(eta=eta, seed=seed, mode=mode)
    stack, _ = sample_perturbations(base, spec, range(count), BondBand(base, eta))
    _assert_same_bits(stack, [sample_perturbation_rebuild(base, spec, t)[0].positions for t in range(count)])
    graph = bond_graph(base)
    if shape:
        tube, positions = base, stack.reshape(shape + (base.n, 3))
    else:
        tube, positions = base.with_positions(stack[0]), None
    _assert_same_bits(total_energy(tube, pots, graph, positions), total_energy_einsum(tube, pots, graph, positions))
    cells_ = gather_cells(tube, positions=positions)
    _assert_same_bits(cells_, gather_cells_per_vector(tube, positions))
    _assert_same_bits(cell_angles(cells_), cell_angles_einsum(cells_))
    _assert_same_bits(cell_plane_angles(cells_), cell_plane_angles_cross(cells_))
    _assert_same_bits(cell_bond_lengths(cells_), np.linalg.norm(_bond_vectors(cells_, cells.CELL_GRAPH), axis=-1))
    delta = symmetrize_reflect(to_local_einsum(cells_))[2]
    want = np.sum(delta.reshape(shape + (-1,)), axis=-1)
    _assert_same_bits(total_symmetry_defect(tube, positions), want if shape else float(want))


def _moved_ensemble(preset, shift, shape, seed):
    """A (12, 4) family tube rotated and moved by shift periods, and a stack of
    shape + (n, 3) ensemble draws of it."""
    pots = potentials.load(preset)
    base = build_nanotube(minimize_family(reference_angles(12, pots).mu_us + 0.01, 12, pots, m=4).geometry, 4)
    image = base.positions @ axial_rotations(1.0 + shift).T
    image[:, 0] += shift * base.period
    base = base.with_positions(image)
    count = int(np.prod(shape, dtype=int))
    stack, _ = sample_perturbations(base, PerturbationSpec(eta=1e-3, seed=seed), range(count), BondBand(base, 1e-3))
    return base, stack.reshape(shape + (base.n, 3))


@pytest.mark.parametrize("preset", ["soft", "stiff"])
@pytest.mark.parametrize(
    "shape",
    [(21,), (stability._CHUNK_ATOMS // 192,), (3, 7)],
    ids=["ensemble-chunk", "ensemble-chunk-now", "two-axes"],
)
@pytest.mark.parametrize("shift", [-2.0, -1.37, 0.0, 0.63, 2.0])
def test_defect_path_equals_oracle_on_ensemble_stacks(preset, shape, shift):
    # a chunk of the n = 192 ensemble at 4096 atoms per chunk (21 trials), one
    # at today's chunk size (_CHUNK_ATOMS // 192 trials) and a stack with two
    # leading axes, of a rotated tube moved by -2 ... 2 periods: the cells and
    # defects equal the cells-last einsum forms to the bit, and cell_summary's
    # defects those of one trial
    base, positions = _moved_ensemble(preset, shift, shape, seed=int(10 * shift) % 7)
    cells_ = gather_cells(base, positions=positions)
    _assert_same_bits(cells_, gather_cells_per_vector(base, positions))
    delta = symmetrize_reflect(to_local_einsum(cells_))[2]
    _assert_same_bits(total_symmetry_defect(base, positions), np.sum(delta.reshape(shape + (-1,)), axis=-1))
    one = (0,) * len(shape)
    _assert_same_bits(cell_summary(base.with_positions(positions[one]))["delta"], delta[one].reshape(-1))


@pytest.mark.parametrize("defect", ["coincident-dual-centers", "x4-x5-axial"])
def test_degenerate_cell_in_a_stack_raises(defect):
    # one configuration of a stack whose cell (1, 0, 0) has no axis or no
    # normal makes the whole stack raise, with the message of the einsum form;
    # the planted atoms also stretch bonds of that cell and of its neighbours
    # past the cutoff, which cell_summary refuses before it frames a cell
    base, positions = _moved_ensemble("soft", 0.0, (4,), seed=3)
    atoms = cell_atom_indices(base.ell, base.m)[0, 0, 0]
    x = gather_cells(base, positions=positions)[2, 0, 0, 0]
    if defect == "coincident-dual-centers":
        # x7 onto x2 and x8 onto x1: both dual-center midpoints are (x1 + x2) / 2
        positions[2, atoms[6]] = positions[2, atoms[1]]
        positions[2, atoms[7]] = positions[2, atoms[0]]
        message = "coincident dual centers: no cell axis"
        bond = "b7 has length 1.98888"
    else:
        axis = 0.5 * (x[1] + x[7]) - 0.5 * (x[0] + x[6])
        positions[2, atoms[4]] = x[3] - 0.5 * axis
        message = "degenerate cell: x4 - x5 parallel to the axis"
        bond = "b2 has length 1.79727"
    cells_ = gather_cells(base, positions=positions)
    for compute in (lambda: total_symmetry_defect(base, positions), lambda: to_local_einsum(cells_)):
        with pytest.raises(InvalidCellError, match=f"^{message}$"):
            compute()
    with pytest.raises(InvalidCellError, match=rf"^cell \(1, 0, 0\) bond {bond}, at or beyond the bond cutoff 1.1: "):
        cell_summary(base.with_positions(positions[2]))


@pytest.mark.parametrize(
    "labels, want",
    [((36, 1), "b1 has length 1.976"), ((6, 6), "b1 has length 6.7445"), (None, "b4 has length 1.72566")],
    ids=["ell-36-m-1", "ell-6-m-6", "atom-1-on-atom-0"],
)
def test_cell_summary_refuses_a_broken_cell_bond(tube, labels, want):
    # labels that do not match the atoms gave a table of "bonds" up to 2.98
    # long and no error; an atom on top of another broke the frame of its cell
    if labels is None:
        pos = tube.positions.copy()
        pos[1] = pos[0]
        bad = tube.with_positions(pos)
    else:
        bad = Nanotube(tube.positions, tube.period, *labels)
    with pytest.raises(InvalidCellError) as err:
        cell_summary(bad)
    assert str(err.value) == (
        f"cell (1, 0, 0) bond {want}, at or beyond the bond cutoff 1.1: either the labels are inconsistent "
        "with the file (pass --ell and --m matching it), the period L=8.94 does not match the atoms, "
        "or atoms are displaced"
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e300], ids=["nan", "inf", "1e300"])
@pytest.mark.parametrize(
    "entry", ["total_energy", "total_energy-own-graph", "total_symmetry_defect", "total_cell_energy", "angle_sum"]
)
def test_stack_entries_refuse_out_of_range_positions(pots_soft, bad, entry):
    # a 2-stack of an (8, 2) family tube whose second configuration holds one
    # bad coordinate: total_energy and total_symmetry_defect gave nan for it,
    # or numbers with numpy warnings; every stack entry refuses it in one line
    fam = minimize_family(reference_angles(8, pots_soft).mu_us + 0.01, 8, pots_soft, m=2)
    base = build_nanotube(fam.geometry, 2)
    stack = np.stack([base.positions, base.positions])
    stack[1, 5, 1] = bad
    compute = {
        "total_energy": lambda: total_energy(base, pots_soft, bond_graph(base), positions=stack),
        "total_energy-own-graph": lambda: total_energy(base, pots_soft, positions=stack),
        "total_symmetry_defect": lambda: total_symmetry_defect(base, positions=stack),
        "total_cell_energy": lambda: total_cell_energy(base, pots_soft, positions=stack),
        "angle_sum": lambda: angle_sum(base, positions=stack),
    }[entry]
    message = r"^positions and period must be finite, with period > 0 and coordinates below 2\*\*510$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateGeometryError, match=message):
            compute()


@pytest.mark.parametrize("preset", ["soft", "stiff"])
@pytest.mark.parametrize("ell", [12, 64])
def test_cell_graph_is_the_bond_graph_of_a_family_cell(preset, ell):
    # every cell of a family tube, alone in a period far longer than the cell,
    # has the bonds and angles of CELL_GRAPH as unordered sets
    def unordered(graph):
        bonds = sorted(tuple(sorted(p)) for p in graph.pairs.tolist())
        angles = sorted((j, min(i, k), max(i, k)) for i, j, k in graph.triples.tolist())
        return bonds, angles

    pots = potentials.load(preset)
    fam = minimize_family(reference_angles(ell, pots).mu_us + 0.01, ell, pots, m=2)
    want = unordered(cells.CELL_GRAPH)
    for cell in gather_cells(build_nanotube(fam.geometry, 2)).reshape(-1, 8, 3):
        assert unordered(bond_graph(Nanotube(cell, 1e3, 1, 1))) == want


def test_cell_graph_leg_references_equal_lookup_oracle():
    bonds, signs = leg_references(cells.BOND_SLOTS, np.zeros(8, dtype=int), cells.ANGLE_SLOTS, np.zeros((10, 2), dtype=int))
    assert np.array_equal(cells.CELL_GRAPH.leg_bonds, bonds)
    assert np.array_equal(cells.CELL_GRAPH.leg_signs, signs)
    assert np.array_equal(triple_shifts(cells.CELL_GRAPH), np.zeros((10, 2), dtype=int))


@settings(max_examples=40)
@given(
    preset=st.sampled_from(["soft", "stiff"]),
    ell=st.sampled_from([4, 6, 12]),
    m=st.integers(1, 3),
    moved=st.booleans(),
    eta=st.sampled_from([0.0, 1e-3, 0.02]),
    batch=st.sampled_from([None, 1, 5, 21]),
    seed=st.integers(0, 2**32 - 1),
)
def test_cell_angles_from_bond_references_equal_gathered_legs(preset, ell, m, moved, eta, batch, seed):
    # cell_angles, cell_energies and cell_summary's bonds and angles of family
    # tubes as built, rotated and moved by -2 ... 2 periods rigidly and atom
    # by atom, and perturbed, alone and as stacks, and t_jacobian and
    # cell_hessian of the first configuration's cells, equal the legs
    # gathered from the cells' positions to the bit
    pots = potentials.load(preset)
    tube = build_nanotube(minimize_family(reference_angles(ell, pots).mu_us + 0.005, ell, pots, m=m).geometry, m)
    rng = np.random.default_rng(seed)
    pos = tube.positions
    if moved:
        pos = pos @ axial_rotations(rng.uniform(0.0, 2.0 * np.pi)).T
        pos[:, 0] += (rng.uniform(-2.0, 2.0) + rng.integers(-2, 3, tube.n)) * tube.period
    stack = np.repeat(pos[None], 1 if batch is None else batch, axis=0)
    if eta:
        stack += rng.uniform(-eta, eta, stack.shape)
    if batch is None:
        tube, positions = tube.with_positions(stack[0]), None
    else:
        tube, positions = tube.with_positions(pos), stack
    cells_ = gather_cells(tube, positions=positions)
    angles = bond_angles_gathered(cells_, cells.CELL_GRAPH)
    bonds = np.linalg.norm(_bond_vectors(cells_, cells.CELL_GRAPH), axis=-1)
    _assert_same_bits(cell_angles(cells_), angles)
    _assert_same_bits(cell_energies(cells_, pots), cells._weighted_energies(_bond_lengths(cells_, cells.CELL_GRAPH), angles, pots))
    if batch is None:
        summary = cell_summary(tube)
        _assert_same_bits(summary["angles"], angles.reshape(-1, 10))
        _assert_same_bits(summary["bonds"], bonds.reshape(-1, 8))
    for cell in cells_.reshape(-1, 8, 3)[: 2 * ell * m]:
        _assert_same_bits(t_jacobian(cell), t_jacobian_gathered(cell))
        want = term_hessian_gathered(cell, cells.CELL_GRAPH, pots.v2, pots.v3, cells.BOND_WEIGHTS, cells.ANGLE_WEIGHTS)
        _assert_same_bits(cell_hessian(cell, pots), want)
