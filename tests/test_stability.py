import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle import (
    assert_graph_equals_brute,
    displacement,
    graph_brute,
    hessian_fd,
    isometry_directions,
    null_space_angle_lifted,
    null_space_report_dense,
    per_cell_certificate,
    stability_trial_loop,
)

import nanolab.stability as stab
from nanolab import energy, potentials
from nanolab.energy import bloch_table, bond_graph, gradient, near_pairs
from nanolab.errors import DegenerateGeometryError, EtaTooLargeError, InvalidParameterError, NotStationaryError
from nanolab.geometry import Nanotube, axial_rotations, build_nanotube, flat_index, solve_family
from nanolab.pxyz import read_pxyz, write_pxyz
from nanolab.potentials import BOND_CUTOFF
from nanolab.reduced import minimize_family, reference_angles
from nanolab.stability import (
    MODES,
    BondBand,
    PerturbationSpec,
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


def test_spectrum_builds_no_tube_gradient(base, pots_soft, monkeypatch):
    # no accepted tube builds the tube's gradient: the stationarity guard
    # reads the motif gradient of the Bloch table
    tube0, _, _ = base
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return gradient(*args, **kwargs)

    monkeypatch.setattr(energy, "gradient", counted)
    monkeypatch.setattr(stab, "gradient", counted, raising=False)
    for tube in _copies(tube0).values():
        null_space_report(tube, pots_soft, acoustic=True)
    assert len(calls) == 0


def _count_terms(monkeypatch):
    """Record (kernel, terms) for each call of the bond and angle term
    kernels."""
    calls = []
    for name in ("_bond_term", "_angle_term"):

        def recorded(legs, *args, _name=name, _real=getattr(energy, name), **kwargs):
            calls.append((_name, len(legs)))
            return _real(legs, *args, **kwargs)

        monkeypatch.setattr(energy, name, recorded)
    return calls


def test_spectrum_builds_no_bond_graph(base, pots_soft, monkeypatch):
    # the table reads the motif atoms' bonds from their distances to every
    # atom: no report builds the tube's bond graph or runs its pair search,
    # and each table evaluates the 12 bonds and 12 angles anchored at the motif
    tube0, _, _ = base
    calls = {"bond_graph": 0, "near_pairs": 0}
    for name, real in (("bond_graph", bond_graph), ("near_pairs", near_pairs)):

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(energy, name, counted)
        monkeypatch.setattr(stab, name, counted)
    terms = _count_terms(monkeypatch)
    copies = _copies(tube0)
    for tube in copies.values():
        for acoustic in (False, True):
            null_space_report(tube, pots_soft, acoustic=acoustic)
    assert calls == {"bond_graph": 0, "near_pairs": 0}
    assert terms == [("_bond_term", 12), ("_angle_term", 12)] * 2 * len(copies)


_DEGENERATE = {
    "nan": (5, 1, np.nan),
    "huge": (5, 1, -(2.0**510)),
    "nan-motif": (0, 1, np.nan),
    "nan-axial": (50, 0, np.nan),
    "inf": (2, 2, np.inf),
    "-inf": (37, 0, -np.inf),
    "huge-motif": (3, 0, 2.0**510),
}


@pytest.mark.parametrize("how", ["nan", "huge", "short-period", "nan-motif", "nan-axial", "inf", "-inf", "huge-motif"])
def test_degenerate_tube_is_refused_before_any_table(base, pots_soft, monkeypatch, how):
    # geometry.check_positions with the bond cutoff runs first: no warning
    # and no table; a direct bloch_table call runs the same check before any
    # arithmetic, so it raises the same error with no warning and no term
    # kernel call, at a motif atom or elsewhere
    tube0, _, _ = base
    pos = tube0.positions.copy()
    if how == "short-period":
        tube, message = Nanotube(pos, np.nextafter(2.0 * BOND_CUTOFF, 0.0), tube0.ell, tube0.m), "twice the bond cutoff"
    else:
        atom, axis, value = _DEGENERATE[how]
        pos[atom, axis] = value
        tube, message = tube0.with_positions(pos), r"below 2\*\*510"
    calls, terms = _count_paths(monkeypatch), _count_terms(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateGeometryError, match=message):
            null_space_report(tube, pots_soft, acoustic=True)
        with pytest.raises(DegenerateGeometryError, match=message):
            bloch_table(tube, pots_soft)
    assert calls == {"bloch_table": 0} and terms == []


def _unstationary_member(ell, m):
    """A built family member with bond lengths (1.02, 0.98) at mu = 2.95,
    not the minimizer of its period: not stationary."""
    return build_nanotube(solve_family(ell, 2.95, 1.02, 0.98), m)


def test_non_stationary_family_member_is_refused_on_the_bloch_path(pots_soft, monkeypatch):
    tube = _unstationary_member(12, 2)
    calls = _count_paths(monkeypatch)
    with pytest.raises(NotStationaryError, match="gradient norm"):
        null_space_report(tube, pots_soft)
    assert calls == {"bloch_table": 1}


@pytest.mark.parametrize("preset", ["soft", "stiff"])
@pytest.mark.parametrize("ell, m", [(5, 1), (12, 2), (24, 3), (48, 16), (96, 1)])
def test_motif_gradient_norm_is_the_tube_gradient_norm(preset, ell, m):
    # every atom's gradient is a rotated copy of its motif atom's, so the
    # guard's sqrt(ell m) |motif gradient| is the tube's gradient norm
    pots = potentials.load(preset)
    tube = _unstationary_member(ell, m)
    rows = gradient(tube, pots)
    table = bloch_table(tube, pots).gradient
    full = np.linalg.norm(rows)
    motif = np.sqrt(ell * m) * np.linalg.norm(table)
    assert full > 1e3 * stab.GRAD_TOL_FACTOR * np.sqrt(tube.n)
    assert abs(motif - full) <= 1e-9 * full
    # the motif atoms sit at turn 0, where the motif frame is the tube's: the
    # table's gradient is rows 0..3 of the tube's
    assert np.max(np.abs(table - rows[:4])) <= 1e-9 * np.linalg.norm(table)


def test_spectrum_invariant_under_translation(base, pots_soft):
    tube0, _, _ = base
    ev0 = null_space_report(tube0, pots_soft)["eigenvalues"]
    shifted = tube0.with_positions(tube0.positions + np.array([0.4, 1.3, -0.2]))
    ev1 = null_space_report(shifted, pots_soft)["eigenvalues"]
    assert np.max(np.abs(ev0 - ev1)) < 1e-6


def test_hessian_requires_stationary_point(base, pots_soft, rng):
    # a randomly perturbed tube has lost its line group, and the symmetry
    # test refuses it before the stationarity guard
    tube0, _, _ = base
    bad = tube0.with_positions(tube0.positions + 1e-3 * rng.standard_normal(tube0.positions.shape))
    with pytest.raises(InvalidParameterError, match="symmetry residual"):
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


def _relabelled(tube, a, b):
    """The same atoms with label (i, j) moved to the atom of (i + a, j + b)."""
    j, i, k, l = np.meshgrid(np.arange(tube.m), np.arange(1, tube.ell + 1), [0, 1], [0, 1], indexing="ij")
    return tube.with_positions(tube.positions[flat_index(tube.ell, tube.m, i + a, j + b, k, l).ravel()])


def _copies(tube):
    """Copies of a family tube that keep its line group: built, moved by 0.37
    L, moved by -1.6 L and wrapped, rotated by 0.9 rad, shifted and
    relabelled by (i, j) -> (i + 3, j + 1)."""
    L = tube.period
    wrapped = tube.positions - [1.6 * L, 0.0, 0.0]
    wrapped[:, 0] = np.mod(wrapped[:, 0], L)
    return {
        "built": tube,
        "moved": tube.with_positions(tube.positions + [0.37 * L, 0.0, 0.0]),
        "wrapped": tube.with_positions(wrapped),
        "rotated": tube.with_positions(tube.positions @ axial_rotations(0.9).T),
        "shifted": tube.with_positions(tube.positions + [0.4, 1.3, -0.2]),
        "relabelled": _relabelled(tube, 3, 1),
    }


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
    block = null_space_report(tube, pots)
    dense = null_space_report_dense(tube, pots)
    assert block["null_blocks"] is not None
    assert np.max(np.abs(block["eigenvalues"] - dense["eigenvalues"])) <= 1e-12 * dense["lam_max"]
    assert block["n_near_null"] == dense["n_near_null"]
    assert (block["max_principal_angle"] < 1e-3) == (dense["max_principal_angle"] < 1e-3)


def test_null_modes_sit_in_three_blocks(base, pots_soft):
    tube0, _, _ = base
    assert null_space_report(tube0, pots_soft)["null_blocks"] == [(-1, 0, 1), (0, 0, 2), (1, 0, 1)]


def _count_paths(monkeypatch):
    """Count the calls of the Bloch table."""
    calls = {"bloch_table": 0}

    def counted(*args, **kwargs):
        calls["bloch_table"] += 1
        return bloch_table(*args, **kwargs)

    monkeypatch.setattr(stab, "bloch_table", counted)
    return calls


def test_family_tube_takes_block_path(base, pots_soft, monkeypatch):
    tube0, _, _ = base
    calls = _count_paths(monkeypatch)
    null_space_report(tube0, pots_soft)
    assert calls == {"bloch_table": 1}


def test_acoustic_report_builds_one_table(base, pots_soft, monkeypatch):
    tube0, _, _ = base
    calls = _count_paths(monkeypatch)
    assert null_space_report(tube0, pots_soft, acoustic=True)["acoustic_ratio"] is not None
    assert calls == {"bloch_table": 1}


@pytest.mark.parametrize("how", ["one-ulp", "translated"])
def test_copies_other_than_the_built_bytes_take_the_bloch_blocks(base, pots_soft, monkeypatch, how):
    tube0, _, _ = base
    if how == "one-ulp":
        pos = tube0.positions.copy()
        pos[5, 1] = np.nextafter(pos[5, 1], np.inf)
        tube = tube0.with_positions(pos)
    else:
        tube = tube0.with_positions(tube0.positions + np.array([0.4, 1.3, -0.2]))
    # none of these is build_nanotube's bytes, and each keeps the line group
    reference = null_space_report(tube0, pots_soft)
    calls = _count_paths(monkeypatch)
    rep = null_space_report(tube, pots_soft)
    assert calls == {"bloch_table": 1}
    assert rep["null_blocks"] == reference["null_blocks"] and rep["n_near_null"] == 4
    assert np.max(np.abs(rep["eigenvalues"] - reference["eigenvalues"])) <= 1e-10 * rep["lam_max"]


@pytest.mark.parametrize("preset, ell", [("stiff", 64), ("soft", 112)])
def test_moved_long_tube_counts_four_null_modes_like_the_dense_oracle(pots_soft, pots_stiff, preset, ell):
    # a family tube moved by 0.37 L, on the Bloch blocks and in the dense
    # oracle; a threshold of 1e-10 of the largest eigenvalue counted its two
    # softest flexural modes as null
    pots = pots_soft if preset == "soft" else pots_stiff
    tube = _family_tube(ell, 1, 0.0, pots)
    moved = tube.with_positions(tube.positions + np.array([0.37 * tube.period, 0.0, 0.0]))
    for rep in (null_space_report(moved, pots), null_space_report_dense(moved, pots)):
        assert rep["n_near_null"] == 4 and rep["n_negative"] == 0 and rep["rest_positive"]
        assert rep["max_principal_angle"] < 1e-3


@settings(max_examples=30)
@given(
    preset=st.sampled_from(["soft", "stiff"]),
    ell=st.integers(4, 48),
    m=st.integers(1, 8),
    offset=st.floats(0.0, 0.02, exclude_max=True),
)
@example(preset="stiff", ell=48, m=8, offset=0.0)
@example(preset="soft", ell=5, m=1, offset=0.01)
def test_halved_bloch_spectrum_equals_every_block_solved(pots_soft, pots_stiff, preset, ell, m, offset):
    # B(-p, -q) is solved as conj B(p, q): the stack and its eigenvalues are
    # the table's blocks at every label and their eigvalsh, to the bit, which
    # keeps the bytes of every report
    pots = pots_soft if preset == "soft" else pots_stiff
    table = bloch_table(_family_tube(ell, m, offset, pots), pots)
    p, q, blocks, evals = stab._bloch_spectrum(table)
    full = table.blocks(p, 2.0 * np.pi * q / m)
    assert len(p) == ell * m and len(set(zip(p, q))) == ell * m
    assert blocks.tobytes() == full.tobytes()
    assert evals.tobytes() == np.linalg.eigvalsh(full).tobytes()


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 17")
def test_wide_stiff_tube_at_mu_us_counts_four_null_modes(pots_stiff):
    # the ring blocks (+-2, 0) fall below BLOCK_NULL_ULPS: the report counts 6
    rep = null_space_report(_family_tube(256, 1, 0.0, pots_stiff), pots_stiff)
    assert rep["null_blocks"] is not None
    assert rep["n_near_null"] == 4


@pytest.mark.parametrize("ell", [12, 24, 48])
def test_acoustic_ratio_is_cauchy_born(pots_soft, ell):
    # the long-wave stretching stiffness of the atomistic Hessian is that of
    # the reduced periodic model
    tube = _family_tube(ell, 2, 0.01, pots_soft)
    assert abs(null_space_report(tube, pots_soft, acoustic=True)["acoustic_ratio"] - 1.0) <= 1e-4


@pytest.mark.parametrize("preset", ["soft", "stiff"])
@pytest.mark.parametrize("m", [1, 3, 4])
def test_acoustic_ratio_of_moved_and_reread_tubes_is_the_built_ones(pots_soft, pots_stiff, tmp_path, preset, m):
    # the ratio reads mu as L/m: every copy of a family tube that keeps its
    # line group, and the tube written as PXYZ and read back with its
    # labels, gets the built tube's ratio.  L/m can sit one ulp off the
    # built mu, which moves the finite-q ratio by less than 1e-6
    pots = pots_soft if preset == "soft" else pots_stiff
    tube0 = _family_tube(24, m, 0.01, pots)
    path = tmp_path / "tube.pxyz"
    write_pxyz(path, tube0)
    copies = {**_copies(tube0), "re-read": read_pxyz(path, ell=24, m=m)}
    assert "acoustic_ratio" not in null_space_report(tube0, pots)
    built = null_space_report(tube0, pots, acoustic=True)["acoustic_ratio"]
    for name, tube in copies.items():
        ratio = null_space_report(tube, pots, acoustic=True)["acoustic_ratio"]
        assert abs(ratio - built) <= 2e-6 and abs(ratio - 1.0) <= 1e-4, name


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


_COUNTS = ("n_near_null", "n_negative", "rest_positive", "null_blocks")


@settings(max_examples=10)
@given(
    preset=st.sampled_from(["soft", "stiff"]),
    ell=st.integers(4, 48),
    m=st.integers(1, 8),
    offset=st.floats(0.0, 0.02, exclude_max=True),
    periods=st.floats(-2.0, 2.0),
    wrap=st.booleans(),
    angle=st.floats(0.0, 2.0 * np.pi),
    shift=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    turn=st.integers(0, 47),
    cell=st.integers(0, 7),
)
@example(preset="soft", ell=24, m=8, offset=0.0, periods=-2.0, wrap=False, angle=0.9, shift=(1.3, -0.2), turn=3, cell=1)
@example(preset="stiff", ell=48, m=8, offset=0.019, periods=1.63, wrap=True, angle=5.0, shift=(0.0, 0.0), turn=47, cell=7)
def test_line_group_copies_give_the_built_spectrum(pots_soft, pots_stiff, preset, ell, m, offset, periods, wrap, angle,
                                                   shift, turn, cell):
    # moved by -2 .. 2 periods, wrapped or not, rotated about the axis,
    # shifted across it and relabelled by the Z_ell x Z_m action: the same
    # counts and null blocks as the built tube, eigenvalues within 64 eps of
    # its largest, and of the dense oracle's up to n = 384; the principal
    # angle measured inside the blocks is the lifted oracle's within 1e-13
    pots = pots_soft if preset == "soft" else pots_stiff
    tube = _family_tube(ell, m, offset, pots)
    pos = tube.positions @ axial_rotations(angle).T + [periods * tube.period, *shift]
    if wrap:
        pos[:, 0] = np.mod(pos[:, 0], tube.period)
    copy = _relabelled(tube.with_positions(pos), turn, cell)
    built, rep = null_space_report(tube, pots), null_space_report(copy, pots)
    assert {k: rep[k] for k in _COUNTS} == {k: built[k] for k in _COUNTS}
    bound = 64.0 * np.finfo(float).eps * built["lam_max"]
    assert np.max(np.abs(rep["eigenvalues"] - built["eigenvalues"])) <= bound
    for t, r in ((tube, built), (copy, rep)):
        assert abs(r["max_principal_angle"] - null_space_angle_lifted(t, pots)) <= 1e-13
    if tube.n <= 384:
        assert np.max(np.abs(rep["eigenvalues"] - null_space_report_dense(copy, pots)["eigenvalues"])) <= bound


def test_tube_read_back_from_its_file_gives_the_built_counts(pots_soft, tmp_path):
    tube = _family_tube(24, 4, 0.01, pots_soft)
    moved = tube.with_positions(tube.positions + [0.37 * tube.period, 0.0, 0.0])
    write_pxyz(tmp_path / "moved.pxyz", moved)
    read = read_pxyz(tmp_path / "moved.pxyz", 24, 4)
    built, rep = null_space_report(tube, pots_soft), null_space_report(read, pots_soft)
    assert {k: rep[k] for k in _COUNTS} == {k: built[k] for k in _COUNTS}


def _broken(tube, how):
    """tube with a planted 1e-9 perturbation, with atoms 5 and 17 trading rows
    (the same point set under other labels), with labels that do not fit n,
    with labels ell = 1 or 2 (where the transverse translations would share
    one Bloch block, p = 1 and -1 being one label), or widened 1.3 times
    or squeezed 0.6 times across the axis, which keeps the line group and
    breaks the ring bonds or bonds each atom to two more."""
    if how == "perturbed":
        return tube.with_positions(tube.positions + 1e-9 * np.random.default_rng(3).standard_normal((tube.n, 3)))
    if how == "swapped":
        return tube.with_positions(tube.positions[[*range(5), 17, *range(6, 17), 5, *range(18, tube.n)]])
    if how == "labels":
        return Nanotube(tube.positions, tube.period, tube.ell, tube.m + 1)
    if how in ("ell-one", "ell-two"):
        ell = 1 if how == "ell-one" else 2
        return Nanotube(tube.positions, tube.period, ell, tube.n // (4 * ell))
    scale = 1.3 if how == "widened" else 0.6
    return tube.with_positions(tube.positions * [1.0, scale, scale])


@pytest.mark.parametrize(
    "how, degrees",
    [("perturbed", "3 .. 3"), ("swapped", "3 .. 3"), ("labels", "3 .. 3"), ("ell-one", "3 .. 3"), ("ell-two", "3 .. 3"),
     ("widened", "1 .. 1"), ("squeezed", "5 .. 5")],
)
def test_tube_without_its_line_group_is_refused(base, pots_soft, monkeypatch, how, degrees):
    # degrees is the range the bond graph counts: the inputs of degree 3
    # lack the line group of their labels, and the symmetry residual refuses
    # them before any table is built; widened and squeezed keep it, and
    # their table refuses the motif degrees before it evaluates any term
    tube = _broken(base[0], how)
    graph_degrees = bond_graph(tube).degrees()
    assert f"{graph_degrees.min()} .. {graph_degrees.max()}" == degrees
    if degrees == "3 .. 3":
        message, tables = r"symmetry residual \S+ \(bound \S+\)$", 0
    else:
        d = degrees.split()[0]
        message, tables = rf"motif atom degrees \[{d}, {d}, {d}, {d}\] \(family: 3\)$", 1
    calls, terms = _count_paths(monkeypatch), _count_terms(monkeypatch)
    with pytest.raises(InvalidParameterError, match=message):
        null_space_report(tube, pots_soft)
    assert calls == {"bloch_table": tables} and terms == []


def test_spectrum_eigensolves_only_bloch_blocks(base, pots_soft, monkeypatch):
    # the 3n x 3n eigensolve and the lift of the null modes to 3n-vectors do
    # not grow back: every matrix the report hands an eigensolver, an SVD or
    # a QR factorisation is at most 12 x 12, a Bloch block or smaller
    tube0, _, _ = base
    sizes = []
    for name in ("eigh", "eigvalsh", "svd", "qr"):

        def recorded(a, *args, _real=getattr(np.linalg, name), **kwargs):
            sizes.append(np.shape(a)[-2:])
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    for tube in _copies(tube0).values():
        for acoustic in (False, True):
            null_space_report(tube, pots_soft, acoustic=acoustic)
    assert (12, 12) in sizes and max(max(size) for size in sizes) <= 12


def test_null_block_without_isometry_amplitudes_reads_a_right_angle(base, pots_soft, monkeypatch):
    # near-null modes only in the ring blocks (+-2, 0), which hold none of
    # the isometries: the two spaces are orthogonal, in the blocks and in
    # the lifted oracle
    tube0, _, _ = base
    real = stab._bloch_spectrum

    def ring_null(table):
        p, q, blocks, evals = real(table)
        evals = evals.copy()
        evals[(np.abs(p) <= 1) & (q == 0), :4] = 1.0
        evals[(np.abs(p) == 2) & (q == 0), 0] = 0.0
        return p, q, blocks, evals

    monkeypatch.setattr(stab, "_bloch_spectrum", ring_null)
    rep = null_space_report(tube0, pots_soft)
    assert rep["null_blocks"] == [(-2, 0, 1), (2, 0, 1)]
    assert rep["max_principal_angle"] == np.pi / 2
    assert abs(null_space_angle_lifted(tube0, pots_soft) - np.pi / 2) <= 1e-13


@pytest.mark.parametrize("ell", [1, 2, 3, 12])
def test_isometry_amplitudes_fold_into_the_label_range(base, ell):
    # each amplitude sits at a label of Z_ell; on the tube's own labels
    # those of one block are orthonormal
    tube0, _, _ = base
    tube = Nanotube(tube0.positions, tube0.period, ell, tube0.n // (4 * ell))
    labels, amplitudes = stab._isometry_amplitudes(tube, np.mean(tube.positions[:, 1:], axis=0))
    assert list(labels) == [0, 0, *{1: [0, 0], 2: [1, 1]}.get(ell, [1, -1])]
    assert set(labels) <= set(stab._signed_labels(ell))
    if ell == tube0.ell:
        for p in (-1, 0, 1):
            a = amplitudes[:, labels == p]
            assert np.max(np.abs(a.conj().T @ a - np.eye(a.shape[1]))) <= 1e-15


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("k_a, k_b", [(1, 1), (2, 3), (4, 2), (4, 12)])
def test_largest_principal_angle_is_scipys(dtype, k_a, k_b):
    # random subspaces of a 12-space, and a subspace and a copy turned by
    # about 1e-9: large angles on the arccos form, small ones on the arcsine
    from scipy.linalg import subspace_angles

    rng = np.random.default_rng(k_a * 13 + k_b)

    def draw(k):
        x = rng.standard_normal((12, k))
        return x + 1j * rng.standard_normal((12, k)) if dtype is complex else x

    for _ in range(20):
        a, b = np.linalg.qr(draw(k_a))[0], np.linalg.qr(draw(k_b))[0]
        near = np.linalg.qr(a + 1e-9 * draw(k_a))[0]
        for x, y in ((a, b), (a, near)):
            assert abs(stab._largest_principal_angle(x, y) - np.max(subspace_angles(x, y))) <= 1e-12
    assert stab._largest_principal_angle(np.eye(12)[:, :3], np.eye(12)[:, 3:5]) == np.pi / 2
