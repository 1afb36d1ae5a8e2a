import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle import (
    angle_sum_second_fd,
    cell_energy_gradient,
    cell_hessian_fd,
    constrained_rayleigh_min_loop,
    reflect_s1,
    reflect_s2,
    t_jacobian_fd,
    tilde_energy,
)

from nanolab import cells
from nanolab.cells import (
    ANGLE_SLOTS,
    BOND_SLOTS,
    cell_energies,
    cell_plane_angles,
)
from nanolab.cellspec import (
    ANGLE_SUM_VECTORS,
    angle_sum_concavity,
    cell_basis,
    cell_hessian,
    cell_hessian_convexity,
    constrained_rayleigh_min,
    kink_cell,
    planar_reference,
    t_jacobian,
    t_jacobian_kernel,
    t_map,
    tilde_derivative_signs,
    tilde_gradient,
    tilde_hessian_diag,
)
from nanolab.energy import BondGraph, gradient
from nanolab.errors import InvalidParameterError, VerificationFailureError
from nanolab.geometry import Nanotube, gamma
from nanolab.reduced import reference_angles

TP = 2.0 * np.pi / 3.0


def test_planar_reference_values():
    y = t_map(planar_reference())
    assert np.max(np.abs(y[:10] - TP)) < 1e-12
    assert np.max(np.abs(y[10:] - 1.0)) < 1e-12
    sums = ANGLE_SUM_VECTORS @ y[:10]
    assert sums[0] == pytest.approx(4 * np.pi, abs=1e-12)
    assert sums[1] == pytest.approx(2 * np.pi, abs=1e-12)
    assert sums[2] == pytest.approx(2 * np.pi, abs=1e-12)


def test_kink_cell_unit_bonds_and_angles(pots_soft):
    for ell in (16, 48):
        refs = reference_angles(ell, pots_soft)
        y = t_map(kink_cell(ell, pots_soft))
        angles = y[:10]
        assert np.max(np.abs(y[10:] - 1.0)) < 1e-12
        values = sorted(set(np.round(angles, 9)))
        assert np.allclose(angles[:2], refs.beta_us, atol=1e-10)
        assert np.allclose(angles[2:], refs.alpha_us, atol=1e-10)
        assert len(values) == 2


def test_kink_cell_planes_meet_at_gamma(pots_soft):
    ell = 24
    th = cell_plane_angles(kink_cell(ell, pots_soft))
    assert np.max(np.abs(th - gamma(ell))) < 1e-10


def test_kink_approaches_planar_reference(pots_soft):
    norms = []
    for ell in (16, 32, 64):
        norms.append(np.linalg.norm(kink_cell(ell, pots_soft) - planar_reference()))
    scaled = np.array(norms) * np.array([16, 32, 64])
    assert np.all(scaled < 10.0)
    assert norms[2] < norms[1] < norms[0]


def test_basis_rank_and_orthogonality():
    basis = cell_basis()
    stacked = np.concatenate([basis.degenerate, basis.good, basis.bad]).reshape(24, 24)
    assert np.linalg.matrix_rank(stacked, tol=1e-10) == 24
    good = basis.good.reshape(13, 24)
    bad = basis.bad.reshape(5, 24)
    assert np.max(np.abs(good @ bad.T)) == 0.0


def test_basis_transcription_checksum():
    # guards the hand-transcribed direction table against silent edits
    basis = cell_basis()
    stacked = np.concatenate([basis.degenerate, basis.good, basis.bad]).reshape(24, 24)
    canonical = ",".join(format(v, ".12g") for v in stacked.ravel())
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    assert digest == "93b1df4b8c1942567bb54be6774ed632e53edd039f841d226df273201c542cd2"
    counts = np.count_nonzero(stacked, axis=1)
    assert counts.tolist() == [8, 8, 8, 12, 8, 4, 10, 4, 3, 7, 1, 2, 3, 4, 6, 1, 2, 1, 1, 1, 2, 3, 1, 2]


def test_tilde_energy_composition_identity(pots_soft, rng):
    x0 = planar_reference()
    for _ in range(10):
        c = x0 + 0.05 * rng.standard_normal((8, 3))
        assert float(cell_energies(c, pots_soft)) == pytest.approx(
            tilde_energy(t_map(c), pots_soft), abs=1e-12
        )


def test_reflection_symmetry_of_cell_energy(pots_soft, rng):
    x0 = planar_reference()
    for _ in range(5):
        c = x0 + 0.03 * rng.standard_normal((8, 3))
        e = float(cell_energies(c, pots_soft))
        assert float(cell_energies(reflect_s1(c), pots_soft)) == pytest.approx(e, abs=1e-10)
        assert float(cell_energies(reflect_s2(c), pots_soft)) == pytest.approx(e, abs=1e-10)


def test_angle_sum_caps_on_random_perturbations(rng):
    x0 = planar_reference()
    cells = x0 + 0.05 * (2 * rng.random((10000, 8, 3)) - 1)
    from nanolab.cells import cell_angles

    sums = cell_angles(cells) @ ANGLE_SUM_VECTORS.T
    assert np.all(sums[:, 0] <= 4 * np.pi + 1e-12)
    assert np.all(sums[:, 1:] <= 2 * np.pi + 1e-12)


def test_kernel_dimensions_and_span():
    rep = t_jacobian_kernel()
    assert rep["kernel_dim"] == 11
    assert rep["kernel_dim_angles"] == 17
    assert rep["max_principal_angle"] < 1e-4


def test_good_directions_act_to_first_order():
    jac = t_jacobian(planar_reference())
    basis = cell_basis()
    for u in basis.good.reshape(13, 24):
        assert np.linalg.norm(jac @ u) > 1e-3
    for w in np.concatenate([basis.degenerate, basis.bad]).reshape(11, 24):
        assert np.linalg.norm(jac @ w) < 1e-6


def test_first_good_direction_bond_rates():
    # the uniform hexagon dilation stretches all six ring bonds at unit rate
    # and shortens both outer axial bonds
    jac = t_jacobian(planar_reference())
    u1 = cell_basis().good[0].ravel()
    rates = (jac @ u1)[10:]
    assert np.allclose(rates, [1, 1, 1, 1, 1, 1, -1, -1], atol=1e-8)


def test_tilde_gradient_and_hessian_shapes(pots_soft):
    y = t_map(kink_cell(32, pots_soft))
    g = tilde_gradient(y, pots_soft)
    h = tilde_hessian_diag(y, pots_soft)
    assert g.shape == (18,)
    assert np.all(h > 0.0)
    # bond entries vanish: unit bonds sit at the pair minimum
    assert np.max(np.abs(g[10:])) < 1e-10
    assert np.all(g[:10] < 0.0)


def test_tilde_derivative_scaling(pots_soft):
    rep = tilde_derivative_signs([16, 32, 64], pots_soft)
    assert rep["scaling_slope"] == pytest.approx(-2.0, abs=0.2)
    for row in rep["rows"]:
        assert row["bond_grad_residual"] < 1e-10
        assert 0.0 < row["angle_grad_scaled_lo"] <= row["angle_grad_scaled_hi"]
        assert 0.0 < row["hess_diag_min"] <= row["hess_diag_max"]


def test_tilde_derivative_rejects_small_ell(pots_soft):
    with pytest.raises(InvalidParameterError):
        tilde_derivative_signs([8], pots_soft)


def test_cell_hessian_symmetry_and_null_modes(pots_soft):
    h = cell_hessian(kink_cell(32, pots_soft), pots_soft)
    assert np.allclose(h, h.T, atol=1e-12)
    evals = np.linalg.eigvalsh(h)
    # rigid motions: at least 6 near-null modes
    assert np.sum(np.abs(evals) < 1e-6 * np.max(np.abs(evals))) >= 6


def test_constrained_rayleigh_bounds_consistent(pots_soft):
    basis = cell_basis()
    spans = [np.concatenate([basis.degenerate, basis.bad]).reshape(-1, 24).T, basis.degenerate.reshape(6, 24).T]
    rng = np.random.default_rng(7)
    for ell in (16, 32, 64):
        h = cell_hessian(kink_cell(ell, pots_soft), pots_soft)
        for span in spans:
            rep = constrained_rayleigh_min(h, span, 0.9)
            assert rep["lower"] <= rep["upper"] + 1e-9
            assert rep["lower"] > 0.0
            assert rep["upper"] - rep["lower"] <= 1e-3 * abs(rep["lower"])
            # the dual-optimal eigenvalue is double at some of these cells; a
            # round-off-sized perturbation must not move the bound
            for _ in range(3):
                e = rng.standard_normal((24, 24))
                e += e.T
                e *= 1e-14 * np.max(np.abs(h)) / np.max(np.abs(e))
                upper = constrained_rayleigh_min(h + e, span, 0.9)["upper"]
                assert abs(upper - rep["upper"]) < 1e-3 * abs(rep["upper"])
    with pytest.raises(InvalidParameterError):
        constrained_rayleigh_min(h, spans[0], 1.5)


def test_cell_convexity_constants(pots_soft):
    rep = cell_hessian_convexity(32, pots_soft, r=0.9)
    assert rep["c_good"] > 0.0
    assert rep["c_weak"] > 0.0
    assert rep["c_kink"] > 0.0


def test_cell_convexity_weak_bound_scales_inverse_square(pots_soft):
    rows = [cell_hessian_convexity(ell, pots_soft, r=0.9) for ell in (16, 32, 64)]
    ells = np.array([r["ell"] for r in rows], dtype=float)
    cw = np.array([r["c_weak"] for r in rows])
    slope = np.polyfit(np.log(ells), np.log(cw), 1)[0]
    assert slope == pytest.approx(-2.0, abs=0.3)


def test_single_atom_out_of_plane_angle_sum_drop():
    # lifting one junction atom out of plane reduces its angle sum at second
    # order with the closed-form rate -3*sqrt(3)
    x0 = planar_reference()
    v = np.zeros((8, 3))
    v[0, 2] = 1.0
    for t in (1e-2, 1e-3):
        drop = (ANGLE_SUM_VECTORS[1] @ t_map(x0 + t * v)[:10] - 2 * np.pi) / t**2
        assert drop == pytest.approx(-3.0 * np.sqrt(3.0), rel=1e-3)


def test_angle_sum_concavity_constant():
    rep = angle_sum_concavity(n_samples=100, seed=4)
    assert rep["c_kink"] > 0.0
    assert np.all(rep["ratios"] > 0.0)


def test_convexity_rejects_small_ell(pots_soft):
    with pytest.raises(InvalidParameterError):
        cell_hessian_convexity(8, pots_soft)


# generators of the infinitesimal rotations: a rotation about axis e_d moves
# each atom x by _ROTATIONS[d] @ x
_ROTATIONS = [np.cross(np.eye(3)[d], -np.eye(3)) for d in range(3)]


def _rotation(axis, angle):
    k = np.asarray(axis) / np.linalg.norm(axis)
    kx = np.cross(k, -np.eye(3))
    return np.eye(3) + np.sin(angle) * kx + (1.0 - np.cos(angle)) * kx @ kx


@settings(max_examples=12)
@given(
    ell=st.sampled_from([0, 16, 64]),
    jitter=st.floats(0.0, 0.03),
    seed=st.integers(0, 2**16),
    axis=st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(0.1, 1)),
    angle=st.floats(0.0, 2 * np.pi),
    shift=st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5)),
)
def test_cell_derivatives_match_oracles(pots_soft, ell, jitter, seed, axis, angle, shift):
    # planar (ell = 0) or kink reference, jittered, rigidly rotated and moved
    ref = planar_reference() if ell == 0 else kink_cell(ell, pots_soft)
    cell = ref + jitter * np.random.default_rng(seed).uniform(-1.0, 1.0, (8, 3))
    cell = cell @ _rotation(axis, angle).T + np.array(shift)
    h = cell_hessian(cell, pots_soft)
    scale = np.max(np.abs(h))
    assert np.max(np.abs(h - cell_hessian_fd(cell, pots_soft))) <= 1e-8 * scale
    assert np.max(np.abs(h - h.T)) <= 1e-14 * scale
    jac = t_jacobian(cell)
    assert np.max(np.abs(jac - t_jacobian_fd(cell))) <= 1e-8

    # rigid motions: translations are in the kernel of both; an infinitesimal
    # rotation A is in the kernel of DT, and H (A x) = A grad (zero at a
    # stationary cell) because the gradient turns with the cell
    grad = cell_energy_gradient(cell, pots_soft)
    for d in range(3):
        move = np.zeros((8, 3))
        move[:, d] = 1.0
        assert np.max(np.abs(h @ move.ravel())) <= 1e-13 * scale
        assert np.max(np.abs(jac @ move.ravel())) <= 1e-13
        turn = cell @ _ROTATIONS[d].T
        assert np.max(np.abs(h @ turn.ravel() - (grad @ _ROTATIONS[d].T).ravel())) <= 1e-12 * scale
        assert np.max(np.abs(jac @ turn.ravel())) <= 1e-12

    # the cell gradient is energy.gradient on the same terms once the cell
    # weights are set to one
    graph = BondGraph(8, 1e3, BOND_SLOTS, np.zeros(8, dtype=int), ANGLE_SLOTS, np.zeros((10, 2), dtype=int))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cells, "BOND_WEIGHTS", np.ones(8))
        mp.setattr(cells, "ANGLE_WEIGHTS", np.ones(10))
        unit = cell_energy_gradient(cell, pots_soft)
    assert np.array_equal(unit, gradient(Nanotube(cell, 1e3, 1, 1), pots_soft, graph))


@pytest.mark.parametrize("ell", [16, 32, 64])
def test_kink_cell_derivatives_match_oracles(pots_soft, ell):
    cell = kink_cell(ell, pots_soft)
    h = cell_hessian(cell, pots_soft)
    assert np.max(np.abs(h - cell_hessian_fd(cell, pots_soft))) <= 1e-8 * np.max(np.abs(h))
    assert np.max(np.abs(t_jacobian(cell) - t_jacobian_fd(cell))) <= 1e-8


def test_angle_sum_concavity_matches_second_difference():
    # the first five samples are the five bad directions; their ratios are
    # -d2/resid^2 with d2 the second derivative of the total angle sum
    rep = angle_sum_concavity(n_samples=0)
    basis = cell_basis()
    qdeg, _ = np.linalg.qr(basis.degenerate.reshape(6, 24).T)
    x0 = planar_reference()
    for w, ratio in zip(basis.bad.reshape(5, 24), rep["ratios"]):
        v = w / np.linalg.norm(w)
        resid = np.linalg.norm(v - qdeg @ (qdeg.T @ v))
        errors = [
            abs(-angle_sum_second_fd(x0, v.reshape(8, 3), step) / resid**2 - ratio) for step in (1e-1, 3e-2, 1e-2, 1e-3)
        ]
        # the stencil converges to the analytic value as its step shrinks
        # (O(step^4)) until round-off takes over near step = 1e-3
        assert errors[1] < errors[0] / 50 and errors[2] < errors[1] / 50
        assert errors[3] <= 1e-6 * abs(ratio)


def _same_report(got: dict, want: dict) -> bool:
    """Equal keys and, for each, the same type and bits."""
    return got.keys() == want.keys() and all(
        type(got[k]) is type(want[k]) and np.float64(got[k]).tobytes() == np.float64(want[k]).tobytes() for k in got
    )


def test_constrained_rayleigh_min_equals_loop_oracle_on_kink_cells(pots_soft):
    basis = cell_basis()
    spans = [np.concatenate([basis.degenerate, basis.bad]).reshape(-1, 24).T, basis.degenerate.reshape(6, 24).T]
    for ell in range(16, 129):
        h = cell_hessian(kink_cell(ell, pots_soft), pots_soft)
        for span in spans:
            assert _same_report(constrained_rayleigh_min(h, span, 0.9), constrained_rayleigh_min_loop(h, span, 0.9)), ell


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(3, 12), r=st.floats(0.05, 0.95))
@example(seed=0, rank=3, r=0.5)
@example(seed=1, rank=12, r=0.9)
def test_constrained_rayleigh_min_equals_loop_oracle_on_random_matrices(seed, rank, r):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((24, 24))
    h += h.T
    span = rng.standard_normal((24, rank))
    assert _same_report(constrained_rayleigh_min(h, span, r), constrained_rayleigh_min_loop(h, span, r))

