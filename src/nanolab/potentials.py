"""Two-body and three-body interaction potentials with certified derivatives.

The pair potential has its minimum value -1 exactly at unit bond length and
vanishes identically (value and derivatives) beyond the cutoff 1.1.  The angle
potential is nonnegative, symmetric around pi, and vanishes exactly at 2*pi/3
and 4*pi/3.  Two presets are provided whose angle stiffness falls on either
side of the pair stiffness threshold v2''(1) = 6*v3''(2*pi/3) that controls
the radius trend under stretching.
"""

from __future__ import annotations

import json
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

TWO_THIRDS_PI = 2.0 * np.pi / 3.0
# pairs closer than this are bonded; the pair potential vanishes beyond it
BOND_CUTOFF = 1.1


def _bump(t):
    """exp(-1/t) for t > 0, extended by 0, with first and second derivatives."""
    t = np.asarray(t, dtype=float)
    pos = t > 0.0
    safe = np.where(pos, t, 1.0)
    e = np.where(pos, np.exp(-1.0 / safe), 0.0)
    d1 = e / safe**2
    d2 = e * (1.0 / safe**4 - 2.0 / safe**3)
    return e, np.where(pos, d1, 0.0), np.where(pos, d2, 0.0)


def _smoothstep(t):
    """C-infinity step s with s=0 for t<=0 and s=1 for t>=1; returns (s, s', s'')."""
    t = np.asarray(t, dtype=float)
    a, a1, a2 = _bump(t)
    b, nb1, b2 = _bump(1.0 - t)
    b1 = -nb1
    den = a + b
    inner = (t > 0.0) & (t < 1.0)
    den = np.where(inner, den, 1.0)
    s = np.where(t >= 1.0, 1.0, np.where(inner, a / den, 0.0))
    s1 = np.where(inner, (a1 * b - a * b1) / den**2, 0.0)
    s2 = np.where(
        inner,
        ((a2 * b - a * b2) * den - 2.0 * (a1 * b - a * b1) * (a1 + b1)) / den**3,
        0.0,
    )
    return s, s1, s2


class PairPotential:
    """v2(r) = (-1 + k2*(r-1)^2) * psi(r) with a C-infinity cutoff.

    psi equals 1 on (0, lo] and 0 on [hi, infinity); values and the two
    supplied derivatives are bit-exact zero beyond hi.  Raises
    InvalidParameterError unless 0 < lo < hi <= BOND_CUTOFF.
    """

    def __init__(self, k2: float = 400.0, lo: float = 1.05, hi: float = BOND_CUTOFF):
        if not 0.0 < lo < hi <= BOND_CUTOFF:
            raise InvalidParameterError(f"cutoff knots must satisfy 0 < lo < hi <= {BOND_CUTOFF}, got {lo}, {hi}")
        self.k2 = float(k2)
        self.lo = float(lo)
        self.hi = float(hi)

    def _psi(self, r):
        r = np.asarray(r, dtype=float)
        if np.all(r <= self.lo):
            # psi, psi', psi'' on (0, lo], as the path below gives them
            return 1.0, -0.0, 0.0
        width = self.hi - self.lo
        u = (self.hi - r) / width
        # u >= 1 on r <= lo, where psi is 1; u <= 0 (or NaN) gives 0
        s = np.where(u >= 1.0, 1.0, 0.0)
        s1 = np.zeros_like(u)
        s2 = np.zeros_like(u)
        inner = (u > 0.0) & (u < 1.0)
        if np.any(inner):
            s[inner], s1[inner], s2[inner] = _smoothstep(u[inner])
        return s, -s1 / width, s2 / width**2

    def value(self, r):
        r = np.asarray(r, dtype=float)
        psi, _, _ = self._psi(r)
        return (self.k2 * (r - 1.0) ** 2 - 1.0) * psi

    def deriv(self, r):
        r = np.asarray(r, dtype=float)
        psi, dpsi, _ = self._psi(r)
        p = self.k2 * (r - 1.0) ** 2 - 1.0
        return 2.0 * self.k2 * (r - 1.0) * psi + p * dpsi

    def deriv2(self, r):
        r = np.asarray(r, dtype=float)
        psi, dpsi, d2psi = self._psi(r)
        p = self.k2 * (r - 1.0) ** 2 - 1.0
        return 2.0 * self.k2 * psi + 4.0 * self.k2 * (r - 1.0) * dpsi + p * d2psi


class AnglePotential:
    """v3(a) = k3 * (cos a + 1/2)^2, minimized exactly at 2*pi/3 and 4*pi/3."""

    def __init__(self, k3: float = 400.0):
        self.k3 = float(k3)

    def value(self, a):
        a = np.asarray(a, dtype=float)
        return self.k3 * (np.cos(a) + 0.5) ** 2

    def deriv(self, a):
        a = np.asarray(a, dtype=float)
        return -2.0 * self.k3 * (np.cos(a) + 0.5) * np.sin(a)

    def deriv2(self, a):
        a = np.asarray(a, dtype=float)
        return 2.0 * self.k3 * (np.sin(a) ** 2 - (np.cos(a) + 0.5) * np.cos(a))


@dataclass(frozen=True)
class PotentialSet:
    """Immutable pair of interaction potentials."""

    v2: PairPotential
    v3: AnglePotential
    name: str = "custom"

    def v2_curvature_at_min(self) -> float:
        return float(self.v2.deriv2(1.0))

    def v3_curvature_at_min(self) -> float:
        return float(self.v3.deriv2(TWO_THIRDS_PI))


def default_soft() -> PotentialSet:
    """Preset with v2''(1) = 800 < 6*v3''(2pi/3) = 3600 (radius grows under tension)."""
    return PotentialSet(PairPotential(400.0), AnglePotential(400.0), name="soft")


def default_stiff() -> PotentialSet:
    """Preset with v2''(1) = 800 > 6*v3''(2pi/3) = 6 (radius shrinks under tension)."""
    return PotentialSet(PairPotential(400.0), AnglePotential(2.0 / 3.0), name="stiff")


_PRESETS = {"soft": default_soft, "stiff": default_stiff}


def from_name(name: str) -> PotentialSet:
    try:
        return _PRESETS[name]()
    except KeyError:
        raise ValueError(f"unknown potential preset {name!r}; choose from {sorted(_PRESETS)}")


_JSON_DEFAULTS = {"k2": 400.0, "k3": 400.0, "cutoff_lo": 1.05, "cutoff_hi": BOND_CUTOFF}


def from_json(source) -> PotentialSet:
    """Load a potential set from a JSON file path, or its parsed dict, holding
    one object {name, k2, k3, cutoff_lo, cutoff_hi}, every key optional.

    Raises InvalidParameterError on malformed JSON, a document that is not an
    object, an unknown key, a value that is not a finite number, or cutoff
    knots that PairPotential refuses.
    """
    try:
        if isinstance(source, dict):
            doc = source
        else:
            with open(source, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
    except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
        raise InvalidParameterError(f"potential file is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise InvalidParameterError("potential JSON must be an object")
    unknown = sorted(set(doc) - set(_JSON_DEFAULTS) - {"name"})
    if unknown:
        raise InvalidParameterError(f"unknown potential keys {unknown}; allowed: name, {', '.join(_JSON_DEFAULTS)}")
    params = {}
    for key, default in _JSON_DEFAULTS.items():
        value = doc.get(key, default)
        # true and false are ints to Python but no numbers; NaN fails the comparison
        if isinstance(value, bool) or not isinstance(value, numbers.Real) or not abs(value) <= sys.float_info.max:
            raise InvalidParameterError(f"potential parameter {key} must be a finite number, got {value!r}")
        params[key] = float(value)
    pair = PairPotential(params["k2"], params["cutoff_lo"], params["cutoff_hi"])
    return PotentialSet(pair, AnglePotential(params["k3"]), name=str(doc.get("name", "custom")))


def load(spec) -> PotentialSet:
    """Resolve a preset name, JSON path, or dict into a PotentialSet."""
    if isinstance(spec, PotentialSet):
        return spec
    if isinstance(spec, str) and spec in _PRESETS:
        return from_name(spec)
    return from_json(spec)


def _fd1(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def _windowed_scale(values, halfwidth=10, floor=1.0):
    """Rolling max of |values| so derivative checks use a local magnitude scale."""
    mag = np.abs(np.asarray(values, dtype=float))
    out = np.full_like(mag, floor)
    n = len(mag)
    for shift in range(-halfwidth, halfwidth + 1):
        lo = max(0, -shift)
        hi = min(n, n - shift)
        out[lo:hi] = np.maximum(out[lo:hi], mag[lo + shift : hi + shift])
    return out


def validate(p: PotentialSet) -> dict:
    """Check every assumption the bond model places on a potential set.

    Returns {"passed", "checks": [{name, passed, residual, detail}, ...]}:
    violations are reported, never raised; each check carries its worst-case
    residual.  Extra zeros of the angle potential (beyond 2pi/3 and 4pi/3) are
    flagged as failures of the uniqueness check rather than rejected silently.
    """
    checks = []

    def add(name, passed, residual, detail=""):
        checks.append({"name": name, "passed": bool(passed), "residual": float(residual), "detail": detail})

    r = np.linspace(0.3, 1.35, 4201)
    a = np.linspace(0.0, 2.0 * np.pi, 4321)

    v2 = p.v2.value(r)
    add("pair-minimum-value", abs(p.v2.value(1.0) + 1.0) <= 1e-12, abs(float(p.v2.value(1.0)) + 1.0))

    away = np.abs(r - 1.0) >= 0.01
    margin = float(np.min(v2[away]) + 1.0)
    add("pair-minimum-unique", margin > 0.0, margin, "min v2 + 1 away from r=1")

    add("pair-stationary-at-one", abs(float(p.v2.deriv(1.0))) <= 1e-10, abs(float(p.v2.deriv(1.0))))
    add("pair-curvature-at-one", float(p.v2.deriv2(1.0)) > 0.0, float(p.v2.deriv2(1.0)))

    tail = np.linspace(BOND_CUTOFF, 3.0, 257)
    cut_res = max(
        float(np.max(np.abs(p.v2.value(tail)))),
        float(np.max(np.abs(p.v2.deriv(tail)))),
        float(np.max(np.abs(p.v2.deriv2(tail)))),
    )
    add("pair-cutoff-exact", cut_res == 0.0, cut_res, "v2 and derivatives bit-zero beyond cutoff")

    add("pair-range", float(np.min(v2)) >= -1.0 - 1e-12, float(np.min(v2)))

    h = 1e-6
    fd_d1 = _fd1(p.v2.value, r, h)
    an_d1 = p.v2.deriv(r)
    res1 = float(np.max(np.abs(fd_d1 - an_d1) / _windowed_scale(an_d1)))
    fd_d2 = _fd1(p.v2.deriv, r, h)
    an_d2 = p.v2.deriv2(r)
    res2 = float(np.max(np.abs(fd_d2 - an_d2) / _windowed_scale(an_d2)))
    add("pair-deriv-fd", max(res1, res2) <= 1e-6, max(res1, res2))

    v3 = p.v3.value(a)
    add("angle-nonnegative", float(np.min(v3)) >= -1e-15, float(np.min(v3)))

    sym = float(np.max(np.abs(p.v3.value(a) - p.v3.value(2.0 * np.pi - a))))
    add("angle-symmetry", sym <= 1e-12, sym, "symmetry around pi")

    z1 = abs(float(p.v3.value(TWO_THIRDS_PI)))
    z2 = abs(float(p.v3.value(2.0 * TWO_THIRDS_PI)))
    near = (np.abs(a - TWO_THIRDS_PI) < 0.05) | (np.abs(a - 2.0 * TWO_THIRDS_PI) < 0.05)
    floor_away = float(np.min(v3[~near])) if np.any(~near) else np.inf
    extra = floor_away <= 1e-12
    detail = "extra zero detected away from 2pi/3 and 4pi/3" if extra else ""
    add("angle-minimum-points", max(z1, z2) <= 1e-12 and not extra, max(z1, z2, 0.0 if not extra else 1.0), detail)

    add(
        "angle-stationary-at-min",
        abs(float(p.v3.deriv(TWO_THIRDS_PI))) <= 1e-10,
        abs(float(p.v3.deriv(TWO_THIRDS_PI))),
    )
    add("angle-curvature-at-min", float(p.v3.deriv2(TWO_THIRDS_PI)) > 0.0, float(p.v3.deriv2(TWO_THIRDS_PI)))

    fd_a1 = _fd1(p.v3.value, a, h)
    an_a1 = p.v3.deriv(a)
    resa1 = float(np.max(np.abs(fd_a1 - an_a1) / _windowed_scale(an_a1)))
    fd_a2 = _fd1(p.v3.deriv, a, h)
    an_a2 = p.v3.deriv2(a)
    resa2 = float(np.max(np.abs(fd_a2 - an_a2) / _windowed_scale(an_a2)))
    add("angle-deriv-fd", max(resa1, resa2) <= 1e-6, max(resa1, resa2))

    return {"passed": all(c["passed"] for c in checks), "checks": checks}
