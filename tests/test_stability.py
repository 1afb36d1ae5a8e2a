import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle import (
    assert_graph_equals_brute,
    displacement,
    graph_brute,
    hessian_fd,
    per_cell_certificate,
    stability_trial_loop,
)

import nanolab.stability as stab
from nanolab.energy import bond_graph, gradient, near_pairs
from nanolab.errors import EtaTooLargeError, InvalidParameterError, NotStationaryError
from nanolab.geometry import Nanotube, build_nanotube
from nanolab.potentials import BOND_CUTOFF
from nanolab.reduced import minimize_family, reference_angles
from nanolab.stability import (
    MODES,
    BondBand,
    PerturbationSpec,
    isometry_directions,
    null_space_report,
    sample_perturbations,
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
    positions, rej = sample_perturbations(tube0, PerturbationSpec(eta=0.0, seed=1, count=1), [0], BondBand(tube0, 0.0))
    assert np.array_equal(positions[0], tube0.positions)
    assert rej == 0


@pytest.mark.parametrize("mode", MODES)
def test_samples_respect_cap_and_bond_graph(base, mode):
    tube0, _, _ = base
    graph0 = bond_graph(tube0)
    spec = PerturbationSpec(eta=1e-3, seed=9, count=4, mode=mode)
    band = BondBand(tube0, spec.eta)
    assert np.array_equal(band.graph.pairs, graph0.pairs)
    for trial in range(4):
        positions, _ = sample_perturbations(tube0, spec, [trial], band)
        sample = tube0.with_positions(positions[0])
        disp = np.linalg.norm(sample.positions - tube0.positions, axis=1)
        assert np.max(disp) <= 1e-3 + 1e-15
        assert np.array_equal(bond_graph(sample).pairs, graph0.pairs)
        assert sample.period == tube0.period


def test_identical_seed_reproduces_ensemble(base):
    tube0, _, _ = base
    spec = PerturbationSpec(eta=1e-3, seed=123, count=3)
    band = BondBand(tube0, spec.eta)
    a, _ = sample_perturbations(tube0, spec, [2], band)
    b, _ = sample_perturbations(tube0, spec, [2], band)
    assert np.array_equal(a, b)
    c, _ = sample_perturbations(tube0, spec, [1], band)
    assert not np.array_equal(a, c)


def _draw(base, spec, trial):
    """The first draw of a trial, accepted or not."""
    d = displacement(stab._trial_rng(spec.seed, trial), base.n, spec.eta, spec.mode)
    return base.with_positions(base.positions + d)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("eta", [1e-3, 0.02, 0.05, 0.08])
def test_band_verdict_equals_brute_rebuild(base, eta, mode):
    # each draw's band verdict is the brute bond-set equality, and an accepted
    # draw's graph is the brute graph
    tube0, _, _ = base
    band = BondBand(tube0, eta)
    spec = PerturbationSpec(eta=eta, seed=4, mode=mode)
    base_pairs = graph_brute(tube0)[0]
    kept = []
    for trial in range(40):
        tube = _draw(tube0, spec, trial)
        kept.append(bool(band.keeps(tube.positions[None])[0]))
        assert kept[-1] == np.array_equal(graph_brute(tube)[0], base_pairs)
        if kept[-1]:
            assert_graph_equals_brute(band.graph, tube)
    if eta == 0.08:  # large enough that some draws break a bond
        assert 0 < sum(kept) < len(kept)


def _random_base(rng):
    """A base of 3-8 atoms about a bond length apart at a period L in
    [2.2, 3.2], each atom moved by -2 .. 2 periods, and an eta the period
    admits (at most 0.12)."""
    n = int(rng.integers(3, 9))
    L = float(rng.uniform(2.2, 3.2))
    pos = np.column_stack([rng.uniform(0.0, L, n), rng.uniform(-0.7, 0.7, (n, 2))])
    pos[:, 0] += rng.integers(-2, 3, n) * L
    return Nanotube(pos, L, 1, 1), float(rng.uniform(0.0, min(0.12, 0.5 * (L - 2.2) - 1e-6)))


def test_band_verdict_equals_rebuild_on_random_bases():
    # the band's verdict is the rebuilt graph's, pairs, shifts and triples
    # alike, on unwrapped bases; some bases have a near pair within 2*eta of
    # |dx| = L/2, whose axial image a draw can flip (below the cutoff only
    # when L < 2*cutoff + 2*eta, which the band refuses)
    rng = np.random.default_rng(17)
    near_half_period = kept = broken = 0
    for b in range(300):
        base, eta = _random_base(rng)
        band = BondBand(base, eta)
        i, j, t, _ = near_pairs(base.positions, base.period, BOND_CUTOFF + 2.0 * eta)
        dx = base.positions[i, 0] - base.positions[j, 0] + t * base.period
        near_half_period += bool(np.any(np.abs(dx) >= 0.5 * base.period - 2.0 * eta))
        spec = PerturbationSpec(eta=eta, seed=b, mode=MODES[b % 3])
        for trial in range(8):
            tube = _draw(base, spec, trial)
            graph = bond_graph(tube)
            same = np.array_equal(graph.pairs, band.graph.pairs)
            assert band.keeps(tube.positions[None])[0] == same
            if same:
                for field in ("pair_shifts", "triples", "leg_bonds", "leg_signs"):
                    assert np.array_equal(getattr(graph, field), getattr(band.graph, field))
            kept += same
            broken += not same
    assert near_half_period > 0 and kept > 0 and broken > 0


def test_band_refuses_a_period_below_twice_the_cutoff():
    # pair (0, 1) sits at |dx| = L/2, where its nearest image follows the draw
    with pytest.raises(EtaTooLargeError, match=r"eta=0\.02 .* period L=2\.0"):
        BondBand(Nanotube(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.3], [0.0, 1.1, 0.0]]), 2.0, 1, 1), 0.02)


@pytest.mark.parametrize("m", [1, 2])
def test_band_refuses_an_eta_that_lets_a_bond_change_its_image(pots_soft, m):
    # (12, m) at mu_us takes eta up to (L - 2*cutoff)/2 and no further
    mu = reference_angles(12, pots_soft).mu_us
    tube = build_nanotube(minimize_family(mu, 12, pots_soft, m=m).geometry, m)
    limit = 0.5 * (tube.period - 2.0 * BOND_CUTOFF)
    BondBand(tube, limit - 1e-6)
    with pytest.raises(EtaTooLargeError, match="period L="):
        BondBand(tube, limit + 1e-6)
    with pytest.raises(EtaTooLargeError, match="period L="):
        stability_trial(mu, 12, m, PerturbationSpec(eta=limit + 1e-6, count=3), pots_soft)


def test_ensemble_builds_one_graph(base, pots_soft, monkeypatch):
    _, _, refs = base
    calls = []
    monkeypatch.setattr(stab, "bond_graph", lambda *a, **k: calls.append(1) or bond_graph(*a, **k))
    stability_trial(refs.mu_us, 12, 2, PerturbationSpec(eta=1e-3, seed=3, count=20), pots_soft)
    assert len(calls) == 1


def test_band_for_smaller_eta_is_refused(base):
    tube0, _, _ = base
    with pytest.raises(ValueError):
        sample_perturbations(tube0, PerturbationSpec(eta=1e-2), [0], BondBand(tube0, 1e-3))


def test_eta_too_large_raises(base, monkeypatch):
    tube0, _, _ = base
    monkeypatch.setattr(stab, "MAX_REJECTIONS", 20)
    with pytest.raises(EtaTooLargeError, match="^20 consecutive"):
        sample_perturbations(tube0, PerturbationSpec(eta=0.8, seed=0, count=1), [0], BondBand(tube0, 0.8))


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

    def fake(tube, pots, graph=None, positions=None):
        # configurations are numbered from the base (0), so number 2 is sample 1
        val = real(tube, pots, graph, positions)
        first = state["count"]
        state["count"] += 1 if positions is None else len(positions)
        return val if positions is None else np.where(np.arange(first, state["count"]) == 2, val - 1e6, val)

    monkeypatch.setattr(stab, "total_energy", fake)
    rep = stab.stability_trial(
        refs.mu_us, 12, 2, PerturbationSpec(eta=1e-3, seed=1, count=4), pots_soft, collect_ratios=False
    )
    assert rep["n_failures"] == 1
    assert rep["failures"][0]["trial"] == 1
    assert rep["failures"][0]["positions"].shape == (96, 3)


def _assert_reports_equal(a, b):
    """Field by field and to the bit; failures compared with their positions."""
    assert a.keys() == b.keys()
    for key in a.keys() - {"failures"}:
        assert a[key] == b[key] or (a[key] != a[key] and b[key] != b[key]), key
    assert [f["trial"] for f in a["failures"]] == [f["trial"] for f in b["failures"]]
    for fa, fb in zip(a["failures"], b["failures"]):
        assert fa["energy_gap"] == fb["energy_gap"]
        assert np.array_equal(fa["positions"], fb["positions"])


@settings(max_examples=10)
@given(
    ell=st.sampled_from([6, 8, 12]),
    m=st.integers(2, 3),
    eta=st.sampled_from([1e-4, 1e-3, 0.02, 0.08]),
    mode=st.sampled_from(MODES),
    seed=st.integers(0, 2**31 - 1),
    offset=st.sampled_from([0.0, 0.01]),
)
@example(ell=12, m=2, eta=0.08, mode="uniform-ball", seed=3, offset=0.0)
@example(ell=12, m=2, eta=0.08, mode="per-direction", seed=5, offset=0.01)
def test_batched_report_equals_per_trial_oracle(pots_soft, ell, m, eta, mode, seed, offset):
    mu = reference_angles(ell, pots_soft).mu_us + offset
    spec = PerturbationSpec(eta=eta, seed=seed, count=12, mode=mode)
    rep = stability_trial(mu, ell, m, spec, pots_soft)
    _assert_reports_equal(rep, stability_trial_loop(mu, ell, m, spec, pots_soft))
    if eta == 0.08 and m == 2:  # large enough that some draws break a bond
        assert rep["rejections"] > 0


@pytest.mark.parametrize("per_chunk", [1, 7, 40])
@pytest.mark.parametrize("order", ["forward", "reversed", "shuffled"])
def test_report_independent_of_chunks_and_order(base, pots_soft, monkeypatch, per_chunk, order):
    # eta = 0.08 at m = 2 makes some draws break a bond, so redraws cross
    # chunks; the energy is doctored so that every sample whose first atom
    # moved in +x is a counterexample, and failures cross chunks too
    tube0, _, refs = base
    real = stab.total_energy

    def doctored(tube, pots, graph=None, positions=None):
        val = real(tube, pots, graph, positions)
        return val if positions is None else np.where(positions[:, 0, 0] > tube0.positions[0, 0], val - 1e6, val)

    monkeypatch.setattr(stab, "total_energy", doctored)
    spec = PerturbationSpec(eta=0.08, seed=21, count=23)
    reference = stability_trial(refs.mu_us, 12, 2, spec, pots_soft)
    assert 0 < reference["n_failures"] < spec.count
    chunks = stab._chunks
    permute = {
        "forward": lambda c: c,
        "reversed": lambda c: c[::-1],
        "shuffled": lambda c: [c[k] for k in np.random.default_rng(per_chunk).permutation(len(c))],
    }[order]
    monkeypatch.setattr(stab, "_CHUNK_ATOMS", per_chunk * 96)
    monkeypatch.setattr(stab, "_chunks", lambda count, n: permute(chunks(count, n)))
    assert len(stab._chunks(spec.count, 96)) == -(-spec.count // per_chunk)
    _assert_reports_equal(stability_trial(refs.mu_us, 12, 2, spec, pots_soft), reference)


@settings(max_examples=30)
@given(
    mode=st.sampled_from(MODES),
    eta=st.floats(1e-9, 0.05),
    seed=st.integers(0, 2**31 - 1),
    first=st.integers(0, 10**6),
)
def test_samples_never_exceed_eta(base, mode, eta, seed, first):
    tube0, _, _ = base
    spec = PerturbationSpec(eta=eta, seed=seed, mode=mode)
    positions, _ = sample_perturbations(tube0, spec, range(first, first + 5), BondBand(tube0, eta))
    # displacements are read back from the positions, whose rounding is a few
    # ulps of the coordinates
    slack = 4.0 * np.spacing(np.max(np.abs(tube0.positions)))
    assert np.max(np.linalg.norm(positions - tube0.positions, axis=-1)) <= eta + slack


def test_zero_eta_ensemble_is_refused(base, pots_soft):
    _, _, refs = base
    with pytest.raises(InvalidParameterError, match="eta"):
        stability_trial(refs.mu_us, 12, 2, PerturbationSpec(eta=0.0, count=3), pots_soft)


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
    null_space_report(tube0, pots_soft)
    assert len(calls) == 1


def test_spectrum_invariant_under_translation(base, pots_soft):
    tube0, _, _ = base
    ev0 = null_space_report(tube0, pots_soft)["eigenvalues"]
    shifted = tube0.with_positions(tube0.positions + np.array([0.4, 1.3, -0.2]))
    ev1 = null_space_report(shifted, pots_soft)["eigenvalues"]
    assert np.max(np.abs(ev0 - ev1)) < 1e-6


def test_hessian_requires_stationary_point(base, pots_soft, rng):
    tube0, _, _ = base
    bad = tube0.with_positions(tube0.positions + 1e-3 * rng.standard_normal(tube0.positions.shape))
    with pytest.raises(NotStationaryError):
        null_space_report(bad, pots_soft)


def test_isometry_directions_orthonormal(base):
    tube0, _, _ = base
    q = isometry_directions(tube0)
    assert q.shape == (3 * tube0.n, 4)
    assert np.allclose(q.T @ q, np.eye(4), atol=1e-12)


def test_certificate_zero_on_unperturbed(base, pots_soft):
    tube0, _, _ = base
    rep = per_cell_certificate(tube0, pots_soft)
    assert abs(rep["min_margin"]) <= 1e-9
    assert abs(rep["max_margin"]) <= 1e-9
    assert rep["delta_sum"] <= 1e-20


@pytest.mark.parametrize("ell", [12, 24])
def test_certificate_positive_on_samples(ell, pots_soft):
    refs = reference_angles(ell, pots_soft)
    fam = minimize_family(refs.mu_us, ell, pots_soft, m=2)
    tube0 = build_nanotube(fam.geometry, 2)
    spec = PerturbationSpec(eta=1e-3, seed=13, count=1)
    positions, _ = sample_perturbations(tube0, spec, [0], BondBand(tube0, spec.eta))
    rep = per_cell_certificate(tube0.with_positions(positions[0]), pots_soft)
    assert rep["min_margin"] >= 0.0
    assert rep["c_hat"] > 0.0


@pytest.mark.parametrize("eta,count", [(1e-300, 3), (1e-9, 50)])
def test_eta_below_roundoff_is_refused(base, pots_soft, eta, count):
    # the samples move the tube (at 1e-300 only its coordinates that are 0),
    # but their gaps are round-off: 0 or either sign
    _, _, refs = base
    with pytest.raises(InvalidParameterError, match="eta"):
        stability_trial(refs.mu_us, 12, 2, PerturbationSpec(eta=eta, count=count), pots_soft)


@pytest.mark.parametrize("m", [2, 64])
def test_smallest_resolved_eta_still_runs(pots_soft, m):
    # the round-off floor grows with the tube as |E_base| does, no faster
    mu = reference_angles(12, pots_soft).mu_us
    rep = stability_trial(mu, 12, m, PerturbationSpec(eta=1e-8, count=50 if m == 2 else 30), pots_soft)
    assert rep["n_failures"] == 0 and rep["min_gap"] > 0.0


def _family_tube(ell, m, offset, pots):
    fam = minimize_family(reference_angles(ell, pots).mu_us + offset, ell, pots, m=m)
    return build_nanotube(fam.geometry, m)


def _unlabelled(tube):
    """The same configuration without its family geometry: the dense path."""
    return Nanotube(tube.positions, tube.period, tube.ell, tube.m)


@settings(max_examples=12)
@given(
    preset=st.sampled_from(["soft", "stiff"]),
    ell=st.integers(4, 24),
    m=st.integers(1, 4),
    offset=st.floats(0.0, 0.02, exclude_max=True),
)
@example(preset="soft", ell=24, m=4, offset=0.0)
@example(preset="stiff", ell=4, m=1, offset=0.019)
def test_block_spectrum_equals_dense(pots_soft, pots_stiff, preset, ell, m, offset):
    pots = pots_soft if preset == "soft" else pots_stiff
    tube = _family_tube(ell, m, offset, pots)
    assert stab._is_family(tube, bond_graph(tube))
    block = null_space_report(tube, pots)
    dense = null_space_report(_unlabelled(tube), pots)
    assert dense["null_blocks"] is None and block["null_blocks"] is not None
    assert np.max(np.abs(block["eigenvalues"] - dense["eigenvalues"])) <= 1e-12 * dense["lam_max"]
    assert block["n_near_null"] == dense["n_near_null"]
    assert (block["max_principal_angle"] < 1e-3) == (dense["max_principal_angle"] < 1e-3)


def test_null_modes_sit_in_three_blocks(base, pots_soft):
    tube0, _, _ = base
    assert null_space_report(tube0, pots_soft)["null_blocks"] == [(-1, 0, 1), (0, 0, 2), (1, 0, 1)]


def _count_paths(monkeypatch):
    """Count the calls of the dense Hessian and of the block builder."""
    calls = {"hessian": 0, "bloch_blocks": 0}
    for name in calls:

        def counted(*args, _name=name, _real=getattr(stab, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(stab, name, counted)
    return calls


def test_family_tube_takes_block_path(base, pots_soft, monkeypatch):
    tube0, _, _ = base
    calls = _count_paths(monkeypatch)
    null_space_report(tube0, pots_soft)
    assert calls == {"hessian": 0, "bloch_blocks": 1}


@pytest.mark.parametrize("how", ["one-ulp", "no-geometry", "translated"])
def test_non_family_tubes_take_dense_path(base, pots_soft, monkeypatch, how):
    tube0, _, _ = base
    if how == "one-ulp":
        pos = tube0.positions.copy()
        pos[5, 1] = np.nextafter(pos[5, 1], np.inf)
        tube = tube0.with_positions(pos)
    elif how == "no-geometry":
        tube = _unlabelled(tube0)
    else:
        tube = tube0.with_positions(tube0.positions + np.array([0.4, 1.3, -0.2]))
    reference = null_space_report(tube0, pots_soft)["eigenvalues"]
    calls = _count_paths(monkeypatch)
    rep = null_space_report(tube, pots_soft)
    assert calls == {"hessian": 1, "bloch_blocks": 0}
    assert rep["null_blocks"] is None and rep["n_near_null"] == 4
    assert np.max(np.abs(rep["eigenvalues"] - reference)) <= 1e-10 * rep["lam_max"]


@pytest.mark.parametrize("ell", [12, 24, 48])
def test_acoustic_ratio_is_cauchy_born(pots_soft, ell):
    # the long-wave stretching stiffness of the atomistic Hessian is that of
    # the reduced periodic model
    tube = _family_tube(ell, 2, 0.01, pots_soft)
    assert abs(null_space_report(tube, pots_soft, acoustic=True)["acoustic_ratio"] - 1.0) <= 1e-4


def test_acoustic_ratio_only_on_family_tubes(base, pots_soft):
    tube0, _, _ = base
    assert "acoustic_ratio" not in null_space_report(tube0, pots_soft)
    assert null_space_report(_unlabelled(tube0), pots_soft, acoustic=True)["acoustic_ratio"] is None


@pytest.mark.parametrize("preset", ["soft", "stiff"])
@pytest.mark.parametrize("ell", [12, 16, 24, 48, 96, 128, 192, 256])
def test_null_modes_counted_per_block(pots_soft, pots_stiff, preset, ell):
    # each block against its own round-off: the ring's flexural blocks
    # (+-2, 0) and (+-3, 0) sink below 1e-10 of the largest eigenvalue of
    # the tube from ell = 192 on, but not below their own block's round-off
    pots = pots_soft if preset == "soft" else pots_stiff
    rep = null_space_report(_family_tube(ell, 4, 0.01, pots), pots)
    assert rep["null_blocks"] == [(-1, 0, 1), (0, 0, 2), (1, 0, 1)]
    assert rep["n_near_null"] == 4 and rep["n_negative"] == 0 and rep["rest_positive"]
    assert rep["max_principal_angle"] < 1e-3


@pytest.mark.parametrize("preset", ["soft", "stiff"])
def test_compressed_long_tube_negative_per_block(pots_soft, pots_stiff, preset):
    # (12, 128) at mu_us - 0.01 is longer than its Euler length (m_c about
    # 89): the flexural blocks (+-1, +-1) are negative, the isometries stay null
    pots = pots_soft if preset == "soft" else pots_stiff
    rep = null_space_report(_family_tube(12, 128, -0.01, pots), pots)
    assert rep["n_negative"] == 4 and rep["n_near_null"] == 4
    assert rep["null_blocks"] == [(-1, 0, 1), (0, 0, 2), (1, 0, 1)]
    assert not rep["rest_positive"]
