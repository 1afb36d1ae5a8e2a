"""Construction of periodic zigzag nanotube configurations.

A tube is the orbit of two points under a screw-rotation group: atoms are
labeled by quadruples (i, j, k, l) with i in 1..ell (position around the
circumference), j in 0..m-1 (translation cell), and k, l in {0, 1}.  The
position map is

    x(i,j,k,l) = ( k*(lambda1+sigma) + j*(2*sigma+2*lambda1) + l*(2*sigma+lambda1),
                   rho*cos(pi*(2i+k)/ell),
                   rho*sin(pi*(2i+k)/ell) )

with the first coordinate wrapped into [0, L), L = m*mu.  Each atom has three
bonded neighbors: one at distance lambda1 along the axis and two at distance
lambda2 in the adjacent ring; the closed-form bond angles are two of amplitude
alpha and one of amplitude beta = 2*arcsin(sin(alpha)*sin(gamma_ell/2)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGeometryError, InvalidParameterError


def gamma(ell: int) -> float:
    """Interior angle of a regular 2*ell-gon, pi*(1 - 1/ell)."""
    if ell <= 3:
        raise InvalidParameterError(f"ell must exceed 3, got {ell}")
    return np.pi * (1.0 - 1.0 / ell)


def beta(alpha, gam):
    """Out-of-plane bond angle 2*arcsin(sin(alpha)*sin(gam/2)).  A product of
    two sines lies in [-1, 1] after rounding, so arcsin needs no clip."""
    return 2.0 * np.arcsin(np.sin(alpha) * np.sin(0.5 * gam))


@dataclass(frozen=True)
class ZigzagGeometry:
    """Closed-form parameter bundle for one member of the zigzag family."""

    ell: int
    mu: float
    lambda1: float
    lambda2: float
    sigma: float
    rho: float
    alpha: float
    beta: float
    gamma_ell: float


def flat_index(ell: int, m: int, i, j, k, l):
    """Flat atom index of the label (i, j, k, l), i and j taken cyclically;
    elementwise on integer arrays."""
    return (((j % m) * ell + (i - 1) % ell) * 2 + k) * 2 + l


def check_positions(pos: np.ndarray, L: float, radius: float = 0.0) -> None:
    """Refuse positions (..., n, 3) and a period that the pair search and the
    cell walk cannot take exactly.  Raises DegenerateGeometryError unless the
    period is finite and positive, every coordinate is finite and below 2**510
    in magnitude, so that differences square to finite values, and every
    axial coordinate lies within 2**52 periods of the origin, where the image
    shift rint(dx / L) is still an exact integer.  For a bond graph or a cell
    walk, radius is the bond cutoff, and the period must be at least twice
    it: below, two images of an atom can both lie within the cutoff of
    another, and a nearest-image search sees only one of the two bonds."""
    if not (np.isfinite(L) and L > 0 and np.all(np.abs(pos) < 2.0**510)):
        raise DegenerateGeometryError("positions and period must be finite, with period > 0 and coordinates below 2**510")
    if not np.all(np.abs(pos[..., 0]) < 2.0**52 * L):
        raise DegenerateGeometryError(f"axial coordinates must lie within 2**52 periods of the origin, period L={float(L)!r}")
    if L < 2.0 * radius:
        raise DegenerateGeometryError(
            f"period L={float(L)!r} is below twice the bond cutoff {radius}, where an atom can bond to two images of another"
        )


@dataclass
class Nanotube:
    """n-cell of a periodic configuration: n = 4*m*ell positions plus period L."""

    positions: np.ndarray
    period: float
    ell: int
    m: int
    geometry: ZigzagGeometry | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    def with_positions(self, positions: np.ndarray) -> "Nanotube":
        return Nanotube(np.array(positions, dtype=float), self.period, self.ell, self.m, self.geometry)


# The open interval of periods mu a family member may have.
MU_BOUNDS = (2.6, 3.1)


def check_mu(mu: float) -> None:
    """Raise InvalidParameterError unless mu lies in the open interval MU_BOUNDS."""
    lo, hi = MU_BOUNDS
    if not (lo < mu < hi):
        raise InvalidParameterError(f"mu={mu} outside ({lo}, {hi})")


def solve_family(ell: int, mu: float, lambda1: float, lambda2: float) -> ZigzagGeometry:
    """Resolve (ell, mu, lambda1, lambda2) into the full geometric parameter set.

    Raises InvalidParameterError naming the first violated validity gate:
    lambda1, lambda2 in (0.9, 1.1); mu in MU_BOUNDS (check_mu); sigma > 0.2;
    rho > 0.55/sin(gamma_ell).
    """
    g = gamma(ell)
    check_mu(mu)
    if not (0.9 < lambda1 < 1.1):
        raise InvalidParameterError(f"lambda1={lambda1} outside (0.9, 1.1)")
    if not (0.9 < lambda2 < 1.1):
        raise InvalidParameterError(f"lambda2={lambda2} outside (0.9, 1.1)")
    sigma = 0.5 * mu - lambda1
    if sigma <= 0.2:
        raise InvalidParameterError(f"sigma={sigma} must exceed 0.2 (mu/2 - lambda1)")
    if sigma >= lambda2:
        raise InvalidParameterError(f"sigma={sigma} must stay below lambda2={lambda2}")
    rho = np.sqrt(lambda2**2 - sigma**2) / (2.0 * np.sin(np.pi / (2.0 * ell)))
    if rho <= 0.55 / np.sin(g):
        raise InvalidParameterError(f"rho={rho} must exceed 0.55/sin(gamma_ell)={0.55 / np.sin(g)}")
    alpha = np.arccos(-sigma / lambda2)
    return ZigzagGeometry(ell, mu, lambda1, lambda2, sigma, rho, alpha, beta(alpha, g), g)


def unwrapped_positions(geom: ZigzagGeometry, m: int) -> np.ndarray:
    """Positions x(i, j, k, l) of the n = 4*m*ell atoms before the axial wrap,
    shape (m, ell, 2, 2, 3) in flat-index order (j, i, k, l)."""
    if m < 1:
        raise InvalidParameterError(f"m must be at least 1, got {m}")
    ell = geom.ell
    i = np.arange(1, ell + 1)
    j = np.arange(m)
    k = np.arange(2)
    l = np.arange(2)
    jj, ii, kk, ll = np.meshgrid(j, i, k, l, indexing="ij")
    x1 = kk * (geom.lambda1 + geom.sigma) + jj * geom.mu + ll * (2.0 * geom.sigma + geom.lambda1)
    ang = np.pi * (2.0 * ii + kk) / ell
    return np.stack([x1, geom.rho * np.cos(ang), geom.rho * np.sin(ang)], axis=-1)


def build_nanotube(geom: ZigzagGeometry, m: int) -> Nanotube:
    """Materialize the n = 4*m*ell atom positions, wrapped into [0, L) axially."""
    pos = unwrapped_positions(geom, m)
    L = m * geom.mu
    pos[..., 0] = np.mod(pos[..., 0], L)
    return Nanotube(pos.reshape(-1, 3), L, geom.ell, m, geom)


def axial_rotations(angles) -> np.ndarray:
    """Rotations about the tube axis e1 by each of angles, shape (..., 3, 3)."""
    c, s = np.cos(angles), np.sin(angles)
    rot = np.zeros(np.shape(angles) + (3, 3))
    rot[..., 0, 0] = 1.0
    rot[..., 1, 1], rot[..., 1, 2] = c, -s
    rot[..., 2, 1], rot[..., 2, 2] = s, c
    return rot
