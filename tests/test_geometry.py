import numpy as np
import pytest
from oracle import AtomId, bond_angle, expected_neighbors, index_to_id

from nanolab import geometry
from nanolab.energy import image_distances
from nanolab.errors import InvalidParameterError
from nanolab.geometry import build_nanotube, flat_index, gamma, solve_family


def test_gamma_values():
    assert gamma(10) == pytest.approx(0.9 * np.pi, abs=1e-12)
    assert gamma(10) == pytest.approx(2.8274333882, abs=1e-9)
    assert gamma(4) == pytest.approx(0.75 * np.pi, abs=1e-14)
    assert gamma(10**9) == pytest.approx(np.pi, abs=1e-8)


def test_gamma_rejects_small_ell():
    with pytest.raises(InvalidParameterError):
        gamma(3)


def test_solve_family_reference_case():
    g = solve_family(8, 3.0, 1.0, 1.0)
    assert g.sigma == pytest.approx(0.5, abs=1e-15)
    assert g.alpha == pytest.approx(2.0 * np.pi / 3.0, abs=1e-12)
    # solve sigma^2 + 4 rho^2 sin^2(pi/(2 ell)) = lambda2^2 for rho
    assert g.rho == pytest.approx(np.sqrt(0.75) / (2.0 * np.sin(np.pi / 16.0)), abs=1e-14)
    assert g.beta == pytest.approx(2.0 * np.arcsin(np.sin(g.alpha) * np.sin(g.gamma_ell / 2.0)), abs=1e-15)


def test_solve_family_gates():
    with pytest.raises(InvalidParameterError, match="lambda1"):
        solve_family(8, 3.0, 1.2, 1.0)
    with pytest.raises(InvalidParameterError, match="lambda2"):
        solve_family(8, 3.0, 1.0, 0.85)
    with pytest.raises(InvalidParameterError, match="mu"):
        solve_family(8, 3.2, 1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        solve_family(3, 3.0, 1.0, 1.0)
    # inside the mu and lambda gates, sigma > 0.2 and rho > 0.55/sin(gamma)
    # hold automatically; scan the worst corners to confirm
    for mu in (2.601, 3.099):
        for l1 in (0.901, 1.099):
            for l2 in (0.901, 1.099):
                for ell in (4, 8, 64):
                    g = solve_family(ell, mu, l1, l2)
                    assert g.sigma > 0.2
                    assert g.rho > 0.55 / np.sin(g.gamma_ell)


def test_constraints_hold_on_solutions(rng):
    for _ in range(25):
        ell = int(rng.integers(5, 20))
        mu = float(rng.uniform(2.7, 3.05))
        l1 = float(rng.uniform(0.95, 1.05))
        l2 = float(rng.uniform(0.95, 1.05))
        g = solve_family(ell, mu, l1, l2)
        assert 2 * g.sigma + 2 * g.lambda1 == pytest.approx(g.mu, abs=1e-12)
        assert g.sigma**2 + 4 * g.rho**2 * np.sin(np.pi / (2 * ell)) ** 2 == pytest.approx(
            g.lambda2**2, abs=1e-12
        )
        assert np.sin(g.alpha) == pytest.approx(np.sqrt(1 - (g.sigma / g.lambda2) ** 2), abs=1e-12)
        assert np.pi / 2 < g.alpha < np.pi


@pytest.fixture(scope="module")
def tube():
    return build_nanotube(solve_family(8, 2.95, 1.01, 0.99), 3)


def test_build_basic_shape(tube):
    assert tube.n == 4 * 3 * 8
    assert tube.period == pytest.approx(3 * 2.95)
    assert np.all(tube.positions[:, 0] >= 0.0)
    assert np.all(tube.positions[:, 0] < tube.period)


def test_first_atom_position(tube):
    g = tube.geometry
    idx = flat_index(tube.ell, tube.m, 1, 0, 0, 0)
    want = np.array([0.0, g.rho * np.cos(2 * np.pi / 8), g.rho * np.sin(2 * np.pi / 8)])
    assert np.allclose(tube.positions[idx], want, atol=1e-14)


def test_atoms_on_cylinder(tube):
    radii = np.linalg.norm(tube.positions[:, 1:], axis=1)
    assert np.max(np.abs(radii - tube.geometry.rho)) < 1e-12


def test_fixed_i_k_atoms_collinear_along_axis(tube):
    for i in (1, 5):
        for k in (0, 1):
            yz = [
                tube.positions[flat_index(tube.ell, tube.m, i, j, k, l)][1:]
                for j in range(tube.m)
                for l in (0, 1)
            ]
            assert np.max(np.ptp(np.array(yz), axis=0)) < 1e-12


def test_sections_structure(tube):
    # 4m planar sections of ell atoms, consecutive spacings alternating sigma/lambda1
    g = tube.geometry
    x = np.sort(np.unique(np.round(tube.positions[:, 0], 10)))
    assert len(x) == 4 * tube.m
    counts = [np.sum(np.abs(tube.positions[:, 0] - xi) < 1e-9) for xi in x]
    assert all(c == tube.ell for c in counts)
    spacings = np.diff(np.concatenate([x, [tube.period]]))
    expect = np.tile([g.sigma, g.lambda1], 2 * tube.m)
    # the wrapped order starts (0, sigma, sigma+lambda1, ...)
    assert np.allclose(np.sort(spacings), np.sort(expect), atol=1e-9)
    for a, b in zip(spacings, expect):
        assert a == pytest.approx(b, abs=1e-9)


def _matches_as_set(a, b, period=None, tol=1e-10):
    # greedy nearest matching with the first coordinate compared modulo the period
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = a[:, None, :] - b[None, :, :]
    if period is not None:
        d[..., 0] -= period * np.round(d[..., 0] / period)
    dist = np.linalg.norm(d, axis=-1)
    rows = dist.argmin(axis=1)
    return len(set(rows.tolist())) == len(a) and float(dist[np.arange(len(a)), rows].max()) < tol


def test_rotation_invariance_witness(tube):
    th = 2 * np.pi / tube.ell
    rot = np.array([[1, 0, 0], [0, np.cos(th), -np.sin(th)], [0, np.sin(th), np.cos(th)]])
    assert _matches_as_set(tube.positions, tube.positions @ rot.T, period=tube.period)


def test_translation_invariance_witness(tube):
    g = tube.geometry
    shifted = tube.positions.copy()
    shifted[:, 0] = np.mod(shifted[:, 0] + g.mu, tube.period)
    assert _matches_as_set(tube.positions, shifted, period=tube.period)


def test_rototranslation_invariance_witness(tube):
    g = tube.geometry
    th = np.pi / tube.ell
    rot = np.array([[1, 0, 0], [0, np.cos(th), -np.sin(th)], [0, np.sin(th), np.cos(th)]])
    moved = tube.positions @ rot.T
    moved[:, 0] = np.mod(moved[:, 0] + g.lambda1 + g.sigma, tube.period)
    assert _matches_as_set(tube.positions, moved, period=tube.period)


def test_expected_neighbors_table(tube):
    ell, m = tube.ell, tube.m
    nbrs = expected_neighbors(AtomId(3, 1, 0, 0), ell, m)
    assert (AtomId(3, 0, 1, 1), "lambda2") in nbrs
    assert (AtomId(2, 0, 1, 1), "lambda2") in nbrs
    assert (AtomId(3, 0, 0, 1), "lambda1") in nbrs
    nbrs = expected_neighbors(AtomId(3, 1, 0, 1), ell, m)
    assert (AtomId(3, 2, 0, 0), "lambda1") in nbrs
    # i wraps: i=1 reaches i=ell
    nbrs = expected_neighbors(AtomId(1, 1, 0, 0), ell, m)
    assert (AtomId(ell, 0, 1, 1), "lambda2") in nbrs


def test_expected_neighbor_distances(tube):
    g = tube.geometry
    for idx in range(0, tube.n, 7):
        a = index_to_id(idx, tube.ell, tube.m)
        for nb, kind in expected_neighbors(a, tube.ell, tube.m):
            _, d = image_distances(tube.positions[flat_index(tube.ell, tube.m, *nb)] - tube.positions[idx], tube.period)
            want = g.lambda1 if kind == "lambda1" else g.lambda2
            assert d == pytest.approx(want, abs=1e-10)


def test_neighbor_symmetry(tube):
    # the combinatorial neighbor relation is symmetric
    for idx in range(tube.n):
        a = index_to_id(idx, tube.ell, tube.m)
        for nb, _ in expected_neighbors(a, tube.ell, tube.m):
            back = [flat_index(tube.ell, tube.m, *x) for x, _ in expected_neighbors(nb, tube.ell, tube.m)]
            assert idx in back


def test_flat_index_bijection(tube):
    seen = set()
    for i in range(1, tube.ell + 1):
        for j in range(tube.m):
            for k in (0, 1):
                for l in (0, 1):
                    idx = flat_index(tube.ell, tube.m, i, j, k, l)
                    assert index_to_id(idx, tube.ell, tube.m) == AtomId(i, j, k, l)
                    seen.add(idx)
    assert seen == set(range(tube.n))


def test_bond_angles_two_alpha_one_beta(tube):
    g = tube.geometry
    pos = tube.positions
    for idx in (0, 13, 41):
        a = index_to_id(idx, tube.ell, tube.m)
        nbrs = [flat_index(tube.ell, tube.m, *nb) for nb, _ in expected_neighbors(a, tube.ell, tube.m)]
        angles = []
        for p in range(3):
            for q in range(p + 1, 3):
                ti, _ = image_distances(pos[nbrs[p]] - pos[idx], tube.period)
                tk, _ = image_distances(pos[nbrs[q]] - pos[idx], tube.period)
                angles.append(
                    bond_angle(pos[nbrs[p]], pos[idx], pos[nbrs[q]], tube.period, ti, tk)
                )
        angles = np.sort(angles)
        assert np.allclose(angles, np.sort([g.beta, g.alpha, g.alpha]), atol=1e-10)


def test_build_rejects_bad_m():
    g = solve_family(8, 3.0, 1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        build_nanotube(g, 0)
