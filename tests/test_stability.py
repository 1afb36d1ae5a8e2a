import numpy as np
import pytest
from oracle import assert_graph_equals_brute, graph_brute, hessian_fd

import nanolab.stability as stab
from nanolab.energy import bond_graph, gradient
from nanolab.errors import EtaTooLargeError, InvalidParameterError, NotStationaryError
from nanolab.geometry import Nanotube, build_nanotube
from nanolab.reduced import minimize_family, reference_angles
from nanolab.stability import (
    MODES,
    BondBand,
    PerturbationSpec,
    critical_stretch_scan,
    hessian_spectrum,
    isometry_directions,
    null_space_report,
    per_cell_certificate,
    sample_perturbation,
    stability_trial,
)


@pytest.fixture(scope="module")
def base(pots_soft):
    refs = reference_angles(12, pots_soft)
    fam = minimize_family(refs.mu_us, 12, pots_soft, m=2)
    return build_nanotube(fam.geometry, 2), fam, refs


def test_spec_validation():
    with pytest.raises(ValueError):
        PerturbationSpec(eta=-1.0)
    with pytest.raises(ValueError):
        PerturbationSpec(eta=1e-3, mode="sideways")


@pytest.mark.parametrize(
    "kwargs", [{"eta": float("nan")}, {"eta": float("inf")}, {"eta": -1.0}, {"eta": 1e-3, "count": 0}, {"eta": 1e-3, "count": -3}]
)
def test_spec_rejects_invalid_eta_and_count(kwargs):
    with pytest.raises(InvalidParameterError):
        PerturbationSpec(**kwargs)


def test_zero_eta_returns_base(base):
    tube0, _, _ = base
    sample, _, rej = sample_perturbation(tube0, PerturbationSpec(eta=0.0, seed=1, count=1))
    assert np.array_equal(sample.positions, tube0.positions)
    assert rej == 0


@pytest.mark.parametrize("mode", MODES)
def test_samples_respect_cap_and_bond_graph(base, mode):
    tube0, _, _ = base
    graph0 = bond_graph(tube0)
    spec = PerturbationSpec(eta=1e-3, seed=9, count=4, mode=mode)
    band = BondBand(tube0, spec.eta)
    for trial in range(4):
        sample, graph, _ = sample_perturbation(tube0, spec, trial=trial, band=band)
        disp = np.linalg.norm(sample.positions - tube0.positions, axis=1)
        assert np.max(disp) <= 1e-3 + 1e-15
        assert graph.pair_set() == graph0.pair_set()
        assert sample.period == tube0.period


def test_identical_seed_reproduces_ensemble(base):
    tube0, _, _ = base
    spec = PerturbationSpec(eta=1e-3, seed=123, count=3)
    a, _, _ = sample_perturbation(tube0, spec, trial=2)
    b, _, _ = sample_perturbation(tube0, spec, trial=2)
    assert np.array_equal(a.positions, b.positions)
    c, _, _ = sample_perturbation(tube0, spec, trial=1)
    assert not np.array_equal(a.positions, c.positions)


def _draw(base, spec, trial):
    """The first draw of a trial, accepted or not."""
    d = stab._displacement(stab._trial_rng(spec.seed, trial), base.n, spec.eta, spec.mode)
    return base.with_positions(base.positions + d)


def _check_band_against_brute(base, band, spec, draws):
    """Each draw's band verdict is the brute bond-set equality, and an accepted
    draw's graph is the brute graph.  Returns the verdicts."""
    base_pairs = graph_brute(base)[0]
    kept = []
    for trial in range(draws):
        tube = _draw(base, spec, trial)
        graph = band.graph_of(tube)
        kept.append(np.array_equal(graph_brute(tube)[0], base_pairs))
        assert (graph is not None) == kept[-1]
        if graph is not None:
            assert_graph_equals_brute(graph, tube)
    return kept


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("eta", [1e-3, 0.02, 0.05, 0.08])
def test_band_verdict_equals_brute_rebuild(base, eta, mode):
    tube0, _, _ = base
    band = BondBand(tube0, eta)
    assert band.fixed_images
    kept = _check_band_against_brute(tube0, band, PerturbationSpec(eta=eta, seed=4, mode=mode), 40)
    if eta == 0.08:  # large enough that some draws break a bond
        assert 0 < sum(kept) < len(kept)


def test_band_rebuilds_where_an_image_can_flip():
    # pair (0, 1) sits at |dx| = L/2, so its nearest image follows the draw;
    # pair (0, 2) sits at the cutoff, so about half the draws break the graph
    base = Nanotube(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.3], [0.0, 1.1, 0.0]]), 2.0, 1, 1)
    band = BondBand(base, 0.02)
    assert not band.fixed_images
    spec = PerturbationSpec(eta=0.02, seed=6)
    kept = _check_band_against_brute(base, band, spec, 40)
    assert 0 < sum(kept) < len(kept)
    graphs = [band.graph_of(_draw(base, spec, trial)) for trial in range(40)]
    assert {int(g.pair_shifts[0]) for g in graphs if g is not None} == {0, 1}


def test_ensemble_builds_one_graph(base, pots_soft, monkeypatch):
    _, _, refs = base
    calls = []
    monkeypatch.setattr(stab, "bond_graph", lambda *a, **k: calls.append(1) or bond_graph(*a, **k))
    stability_trial(refs.mu_us, 12, 2, PerturbationSpec(eta=1e-3, seed=3, count=20), pots_soft)
    assert len(calls) == 1


def test_band_for_smaller_eta_is_refused(base):
    tube0, _, _ = base
    with pytest.raises(ValueError):
        sample_perturbation(tube0, PerturbationSpec(eta=1e-2), band=BondBand(tube0, 1e-3))


def test_eta_too_large_raises(base):
    tube0, _, _ = base
    with pytest.raises(EtaTooLargeError):
        sample_perturbation(tube0, PerturbationSpec(eta=0.8, seed=0, count=1), max_rejections=20)


def test_stability_trial_all_gaps_positive(base, pots_soft):
    _, _, refs = base
    rep = stability_trial(refs.mu_us, 12, 2, PerturbationSpec(eta=1e-3, seed=42, count=60), pots_soft)
    assert rep["n_failures"] == 0
    assert rep["min_gap"] > 0.0
    assert rep["evaluated"] == 60
    assert rep["gap_ratio_min"] > 0.0


def test_stability_trial_stretched(base, pots_soft):
    _, _, refs = base
    rep = stability_trial(
        refs.mu_us + 0.01, 12, 2, PerturbationSpec(eta=1e-3, seed=42, count=40), pots_soft
    )
    assert rep["n_failures"] == 0 and rep["min_gap"] > 0.0


def test_stability_trial_reports_are_reproducible(base, pots_soft):
    _, _, refs = base
    spec = PerturbationSpec(eta=1e-3, seed=7, count=15)
    a = stability_trial(refs.mu_us, 12, 2, spec, pots_soft)
    b = stability_trial(refs.mu_us, 12, 2, spec, pots_soft)
    for key in ("min_gap", "max_gap", "mean_gap", "gap_ratio_min", "gap_ratio_median"):
        assert a[key] == b[key]


def test_counterexamples_recorded_not_raised(base, pots_soft, monkeypatch):
    # doctor the energy so one sample falls below the base energy: the trial
    # must record it (with positions) instead of raising
    _, _, refs = base
    import nanolab.stability as stab

    real = stab.total_energy
    state = {"count": 0}

    def fake(tube, pots, graph=None):
        state["count"] += 1
        val = real(tube, pots, graph)
        return val - 1e6 if state["count"] == 3 else val

    monkeypatch.setattr(stab, "total_energy", fake)
    rep = stab.stability_trial(
        refs.mu_us, 12, 2, PerturbationSpec(eta=1e-3, seed=1, count=4), pots_soft, collect_ratios=False
    )
    assert rep["n_failures"] == 1
    assert rep["failures"][0]["positions"].shape == (96, 3)


def test_hessian_null_space_structure(base, pots_soft):
    tube0, _, _ = base
    rep = null_space_report(tube0, pots_soft)
    assert rep["n_near_null"] == 4
    assert rep["n_negative"] == 0
    assert rep["rest_positive"]
    assert rep["max_principal_angle"] < 1e-3


def test_spectrum_matches_fd_oracle(pots_soft):
    # the criterion-08 tube: (12, 4) at mu_us + 0.01
    fam = minimize_family(reference_angles(12, pots_soft).mu_us + 0.01, 12, pots_soft, m=4)
    tube = build_nanotube(fam.geometry, 4)
    rep = null_space_report(tube, pots_soft)
    fd = np.linalg.eigvalsh(hessian_fd(tube, pots_soft, bond_graph(tube)))
    rest = np.abs(rep["eigenvalues"]) >= rep["zero_tol"]
    assert np.max(np.abs(rep["eigenvalues"][rest] - fd[rest]) / fd[rest]) < 1e-6
    assert rep["n_near_null"] == 4
    assert rep["max_principal_angle"] < 1e-9


@pytest.mark.parametrize("ell,offset", [(24, 0.002), (48, 0.0)])
def test_soft_modes_are_not_null(pots_soft, ell, offset):
    # the softest physical modes of these tubes lie between 1e-8 and 1e-6 of
    # the largest eigenvalue; only the four isometries are null
    fam = minimize_family(reference_angles(ell, pots_soft).mu_us + offset, ell, pots_soft, m=4)
    rep = null_space_report(build_nanotube(fam.geometry, 4), pots_soft)
    assert rep["n_near_null"] == 4
    assert rep["n_negative"] == 0
    assert rep["rest_positive"]


def test_spectrum_calls_gradient_once(base, pots_soft, monkeypatch):
    tube0, _, _ = base
    calls = []
    monkeypatch.setattr(stab, "gradient", lambda *a, **k: calls.append(1) or gradient(*a, **k))
    hessian_spectrum(tube0, pots_soft)
    assert len(calls) == 1


def test_spectrum_invariant_under_translation(base, pots_soft):
    tube0, _, _ = base
    ev0 = hessian_spectrum(tube0, pots_soft)
    shifted = tube0.with_positions(tube0.positions + np.array([0.4, 1.3, -0.2]))
    ev1 = hessian_spectrum(shifted, pots_soft)
    assert np.max(np.abs(ev0 - ev1)) < 1e-6


def test_hessian_requires_stationary_point(base, pots_soft, rng):
    tube0, _, _ = base
    bad = tube0.with_positions(tube0.positions + 1e-3 * rng.standard_normal(tube0.positions.shape))
    with pytest.raises(NotStationaryError):
        hessian_spectrum(bad, pots_soft)


def test_isometry_directions_orthonormal(base):
    tube0, _, _ = base
    q = isometry_directions(tube0)
    assert q.shape == (3 * tube0.n, 4)
    assert np.allclose(q.T @ q, np.eye(4), atol=1e-12)


def test_certificate_zero_on_unperturbed(base, pots_soft):
    tube0, fam, _ = base
    rep = per_cell_certificate(tube0, fam, pots_soft)
    assert abs(rep["min_margin"]) <= 1e-9
    assert abs(rep["max_margin"]) <= 1e-9
    assert rep["delta_sum"] <= 1e-20


@pytest.mark.parametrize("ell", [12, 24])
def test_certificate_positive_on_samples(ell, pots_soft):
    refs = reference_angles(ell, pots_soft)
    fam = minimize_family(refs.mu_us, ell, pots_soft, m=2)
    tube0 = build_nanotube(fam.geometry, 2)
    sample, _, _ = sample_perturbation(tube0, PerturbationSpec(eta=1e-3, seed=13, count=1))
    rep = per_cell_certificate(sample, fam, pots_soft)
    assert rep["min_margin"] >= 0.0
    assert rep["c_hat"] > 0.0


def test_critical_stretch_scan(pots_soft):
    rep = critical_stretch_scan(8, 2, pots_soft, eta=5e-4, count=8, seed=2, offsets=(0.0, 0.01))
    assert rep["largest_passing_offset"] == 0.01
    assert all(row["passed"] for row in rep["offsets"])


def test_certificate_eta_ladder(pots_soft):
    from nanolab.stability import certificate_eta_ladder

    rep = certificate_eta_ladder(12, 2, pots_soft, etas=(1e-4, 1e-3), samples_per_eta=2, seed=8)
    assert rep["largest_passing_eta"] == 1e-3
    assert all(row["passed"] for row in rep["rows"])
