import json

import numpy as np
import pytest

from nanolab import potentials
from nanolab.errors import InvalidParameterError
from nanolab.potentials import AnglePotential, PairPotential, PotentialSet, validate

TP = 2.0 * np.pi / 3.0


def fd1(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def test_soft_preset_anchor_values(pots_soft):
    assert pots_soft.v2.value(1.0) == pytest.approx(-1.0, abs=1e-14)
    assert pots_soft.v3.value(TP) == pytest.approx(0.0, abs=1e-12)
    assert pots_soft.v3.value(2.0 * TP) == pytest.approx(0.0, abs=1e-12)
    # second derivative of -1 + 400 (r-1)^2 where the cutoff is identically one
    assert pots_soft.v2.deriv2(1.0) == pytest.approx(800.0, abs=1e-10)
    assert fd1(pots_soft.v2.deriv, 1.0) == pytest.approx(800.0, rel=1e-7)


def test_stiff_preset_anchor_values(pots_stiff):
    # v3''(2pi/3) = 2*k3*sin^2(2pi/3) = 3*k3/2 with k3 = 2/3
    assert pots_stiff.v3.deriv2(TP) == pytest.approx(1.0, abs=1e-12)
    assert pots_stiff.v3.value(np.pi) == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert pots_stiff.v2.value(1.2) == 0.0
    assert pots_stiff.v2.deriv2(1.0) == pytest.approx(800.0, abs=1e-10)


def test_curvature_threshold_between_presets(pots_soft, pots_stiff):
    assert pots_soft.v2_curvature_at_min() < 6.0 * pots_soft.v3_curvature_at_min()
    assert pots_stiff.v2_curvature_at_min() > 6.0 * pots_stiff.v3_curvature_at_min()


def test_cutoff_is_bit_exact_zero(pots_soft):
    r = np.linspace(1.1, 4.0, 301)
    assert np.all(pots_soft.v2.value(r) == 0.0)
    assert np.all(pots_soft.v2.deriv(r) == 0.0)
    assert np.all(pots_soft.v2.deriv2(r) == 0.0)


def test_stationarity_at_minima(pots_soft, pots_stiff):
    for p in (pots_soft, pots_stiff):
        assert abs(p.v2.deriv(1.0)) <= 1e-10
        assert abs(p.v3.deriv(TP)) <= 1e-10


def test_angle_symmetry_and_nonnegativity(pots_soft):
    a = np.linspace(0.0, 2.0 * np.pi, 1001)
    assert np.max(np.abs(pots_soft.v3.value(a) - pots_soft.v3.value(2.0 * np.pi - a))) <= 1e-12
    assert np.min(pots_soft.v3.value(a)) >= -1e-15


def test_validate_passes_for_both_presets(pots_soft, pots_stiff):
    for p in (pots_soft, pots_stiff):
        rep = validate(p)
        assert rep["passed"], [c["name"] for c in rep["checks"] if not c["passed"]]


def _checks(p: PotentialSet) -> dict:
    """validate(p)'s checks by name."""
    return {c["name"]: c for c in validate(p)["checks"]}


class _HalvedPair(PairPotential):
    def value(self, r):
        return 0.5 * super().value(r)

    def deriv(self, r):
        return 0.5 * super().deriv(r)

    def deriv2(self, r):
        return 0.5 * super().deriv2(r)


def test_validate_flags_wrong_minimum_value():
    p = PotentialSet(_HalvedPair(400.0), AnglePotential(400.0))
    assert not _checks(p)["pair-minimum-value"]["passed"]
    assert not validate(p)["passed"]


class _AsymmetricAngle(AnglePotential):
    def value(self, a):
        return super().value(a) + 0.01 * (np.asarray(a) - np.pi) ** 3


def test_validate_flags_asymmetric_angle_potential():
    p = PotentialSet(PairPotential(400.0), _AsymmetricAngle(400.0))
    assert not _checks(p)["angle-symmetry"]["passed"]


def test_validate_flags_extra_angle_zero():
    class _Zeroish(AnglePotential):
        def value(self, a):
            a = np.asarray(a, dtype=float)
            return super().value(a) * (a - np.pi) ** 2

        def deriv(self, a):
            h = 1e-6
            return (self.value(a + h) - self.value(a - h)) / (2 * h)

        def deriv2(self, a):
            h = 1e-4
            return (self.value(a + h) - 2 * self.value(a) + self.value(a - h)) / h**2

    rep = _checks(PotentialSet(PairPotential(400.0), _Zeroish(400.0)))
    assert not rep["angle-minimum-points"]["passed"]
    assert "extra zero" in rep["angle-minimum-points"]["detail"]


def test_json_loading_roundtrip(tmp_path):
    doc = {"name": "custom-soft", "k2": 300.0, "k3": 120.0, "cutoff_lo": 1.04, "cutoff_hi": 1.09}
    path = tmp_path / "pots.json"
    path.write_text(json.dumps(doc))
    p = potentials.from_json(str(path))
    assert p.name == "custom-soft"
    assert p.v2.value(1.0) == pytest.approx(-1.0)
    assert p.v2.value(1.09) == 0.0
    assert validate(p)["passed"]


def test_json_rejects_cutoff_beyond_bond_cutoff():
    with pytest.raises(ValueError):
        potentials.from_json({"cutoff_hi": 1.2})


def test_load_by_name_and_passthrough(pots_soft):
    assert potentials.load("soft").name == "soft"
    assert potentials.load("stiff").name == "stiff"
    assert potentials.load(pots_soft) is pots_soft
    # a name that is neither a preset nor a file is refused, naming the presets
    with pytest.raises(InvalidParameterError, match=r"'granite' is neither a preset \(soft, stiff\) nor a file$"):
        potentials.load("granite")


def test_load_validates_json_sets_only(monkeypatch):
    with pytest.raises(InvalidParameterError, match="'flat' fails the checks angle-minimum-points, angle-curvature-at-min$"):
        potentials.load({"name": "flat", "k3": 0.0})
    # presets and PotentialSet instances are returned unchecked
    calls = []
    monkeypatch.setattr(potentials, "validate", lambda p: calls.append(p.name) or {"passed": True, "checks": []})
    potentials.load("soft"), potentials.load("stiff"), potentials.load(potentials.default_soft())
    assert calls == []
    assert potentials.load({"name": "x"}).name == "x" and calls == ["x"]


def test_derivatives_match_finite_differences_everywhere(pots_soft):
    # includes the mollifier window, where magnitudes are checked against a
    # locally windowed scale
    rep = _checks(pots_soft)
    assert rep["pair-deriv-fd"]["residual"] <= 1e-6
    assert rep["angle-deriv-fd"]["residual"] <= 1e-6
