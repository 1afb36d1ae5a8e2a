"""Symmetric cell energy, its reduced (inner-minimized) form, and the
closed-form facts hanging off them: reference angles, the unstretched period,
family energy minimization, and numerical convexity checks.

The reduced energy at (mu, gamma, gamma) equals the family energy per basic
cell, so one three-variable minimization recovers the optimal bond lengths of
the whole periodic tube.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundaryWarning,
    DomainError,
    InvalidParameterError,
    OptimizationFailureError,
    VerificationFailureError,
)
from .geometry import ZigzagGeometry, gamma, solve_family
from .potentials import TWO_THIRDS_PI, PotentialSet

ALPHA_LO = float(np.arccos(-0.4))
ALPHA_HI = float(np.arccos(-0.6))
LAMBDA_LO = 0.9
LAMBDA_HI = 1.1


def beta(alpha, gam):
    """Out-of-plane bond angle 2*arcsin(sin(alpha)*sin(gam/2))."""
    s = np.sin(alpha) * np.sin(0.5 * np.asarray(gam, dtype=float))
    if np.any(np.abs(s) > 1.0 + 1e-12):
        raise DomainError("arcsin argument exceeds 1")
    return 2.0 * np.arcsin(np.clip(s, -1.0, 1.0))


def beta_derivatives(alpha, gam):
    """(d_alpha, d_gamma, d2_alpha_alpha, d2_gamma_gamma, d2_alpha_gamma) of beta."""
    alpha = np.asarray(alpha, dtype=float)
    gam = np.asarray(gam, dtype=float)
    u = np.sin(alpha)
    cu = np.cos(alpha)
    w = np.sin(0.5 * gam)
    cw = np.cos(0.5 * gam)
    s = u * w
    if np.any(np.abs(s) >= 1.0):
        raise DomainError("arcsin argument reaches 1; derivatives undefined")
    d2 = 1.0 - s**2
    d = np.sqrt(d2)
    b_a = 2.0 * cu * w / d
    b_g = u * cw / d
    b_aa = 2.0 * w * (-u * d2 + s * w * cu**2) / d**3
    b_gg = 0.5 * u * (-w * d2 + s * u * cw**2) / d**3
    b_ag = cu * cw * (d2 + w * s * u) / d**3
    return b_a, b_g, b_aa, b_gg, b_ag


@dataclass(frozen=True)
class ReducedPoint:
    """A point (mu, gamma1, gamma2; lambda, alpha1, alpha2) of the symmetric energy."""

    mu: float
    gamma1: float
    gamma2: float
    lam: float
    alpha1: float
    alpha2: float

    @property
    def lambda4(self) -> float:
        # axial hexagon diameter: lambda1 - 2*lambda2*cos(alpha1) with
        # lambda1 = mu/2 + lambda*cos(alpha1)
        return float(0.5 * self.mu - self.lam * np.cos(self.alpha1))


def sym_energy(pt: ReducedPoint, pots: PotentialSet) -> float:
    """Cell energy of a fully symmetric cell, as a function of its six parameters."""
    v2, v3 = pots.v2, pots.v3
    m1 = 0.5 * pt.mu + pt.lam * np.cos(pt.alpha1)
    m2 = 0.5 * pt.mu + pt.lam * np.cos(pt.alpha2)
    return float(
        2.0 * v2.value(pt.lam)
        + 0.5 * v2.value(m1)
        + 0.5 * v2.value(m2)
        + 2.0 * v3.value(pt.alpha1)
        + 2.0 * v3.value(pt.alpha2)
        + v3.value(beta(pt.alpha1, pt.gamma1))
        + v3.value(beta(pt.alpha2, pt.gamma2))
    )


def _sym_grad_hess(pt: ReducedPoint, pots: PotentialSet):
    """Analytic gradient (6,) and Hessian (6, 6) of sym_energy in all six
    variables z = (mu, gamma1, gamma2, lambda, alpha1, alpha2), the field order
    of ReducedPoint."""
    mu, lam = pt.mu, pt.lam
    v2, v3 = pots.v2, pots.v3
    g = np.zeros(6)
    h = np.zeros((6, 6))
    g[3] = 2.0 * v2.deriv(lam)
    h[3, 3] = 2.0 * v2.deriv2(lam)
    for idx, (ai, gi) in enumerate(((pt.alpha1, pt.gamma1), (pt.alpha2, pt.gamma2))):
        ia, ig = 4 + idx, 1 + idx
        ci, si = np.cos(ai), np.sin(ai)
        mi = 0.5 * mu + lam * ci
        bi = beta(ai, gi)
        b_a, b_g, b_aa, b_gg, b_ag = beta_derivatives(ai, gi)
        d1, d2 = v2.deriv(mi), v2.deriv2(mi)
        e1, e2 = v3.deriv(bi), v3.deriv2(bi)
        # dm_i/dmu = 1/2, dm_i/dlambda = cos(alpha_i), dm_i/dalpha_i = -lambda sin(alpha_i)
        g[0] += 0.25 * d1
        g[ig] = e1 * b_g
        g[3] += 0.5 * ci * d1
        g[ia] = -0.5 * lam * si * d1 + e1 * b_a + 2.0 * v3.deriv(ai)
        h[0, 0] += 0.125 * d2
        h[0, 3] += 0.25 * ci * d2
        h[0, ia] = -0.25 * lam * si * d2
        h[ig, ig] = e2 * b_g**2 + e1 * b_gg
        h[ig, ia] = e2 * b_a * b_g + e1 * b_ag
        h[3, 3] += 0.5 * ci**2 * d2
        h[ia, ia] = 0.5 * lam**2 * si**2 * d2 - 0.5 * lam * ci * d1 + 2.0 * v3.deriv2(ai) + e2 * b_a**2 + e1 * b_aa
        h[3, ia] = -0.5 * si * d1 - 0.5 * lam * si * ci * d2
    # the loop fills the upper triangle
    return g, h + np.triu(h, 1).T


_BOX_LO = np.array([LAMBDA_LO, ALPHA_LO, ALPHA_LO])
_BOX_HI = np.array([LAMBDA_HI, ALPHA_HI, ALPHA_HI])
# KKT residual at which the inner Newton solve of reduced_energy stops
GRAD_TOL = 1e-12


def _pinned(x, g):
    """Inner variables at a box bound with the gradient pushing outward."""
    return ((x <= _BOX_LO + 1e-12) & (g > 0.0)) | ((x >= _BOX_HI - 1e-12) & (g < 0.0))


def reduced_energy(
    mu: float,
    gamma1: float,
    gamma2: float,
    pots: PotentialSet,
    max_iter: int = 200,
    warn_boundary: bool = True,
):
    """Minimize sym_energy over (lambda, alpha1, alpha2) in the box.

    Damped Newton from (1, 2pi/3, 2pi/3) with projection onto the box.  It
    stops when the KKT residual (the gradient with the components pinned at a
    bound removed) is at most GRAD_TOL, or when Newton can no longer move (its
    next iterate is the current or the previous one) and the residual is
    within the round-off floor max_i sum_j |H_ij| ulp(x_j) of the free
    variables, which is what one ulp of each variable moves the gradient by.
    Raises OptimizationFailureError otherwise, and warns (BoundaryWarning) when
    the minimizer sits on the box boundary.
    Returns (value, (lambda*, alpha1*, alpha2*)).
    """
    x = np.array([1.0, TWO_THIRDS_PI, TWO_THIRDS_PI])

    def energy_at(y):
        return sym_energy(ReducedPoint(mu, gamma1, gamma2, *y), pots)

    f = energy_at(x)
    prev = x
    for _ in range(max_iter):
        gz, hz = _sym_grad_hess(ReducedPoint(mu, gamma1, gamma2, *x), pots)
        g, h = gz[3:], hz[3:, 3:]
        # variables pinned at a bound stay fixed; Newton runs in the free subspace
        free = ~_pinned(x, g)
        residual = np.max(np.abs(g[free]), initial=0.0)
        if residual <= GRAD_TOL:
            break
        step = np.zeros(3)
        hf = h[np.ix_(free, free)]
        gf = g[free]
        try:
            evals = np.linalg.eigvalsh(hf)
            tau = 0.0 if evals[0] > 1e-10 else (1e-8 - evals[0])
            step[free] = np.linalg.solve(hf + tau * np.eye(int(np.sum(free))), -gf)
        except np.linalg.LinAlgError:
            step[free] = -gf
        t = 1.0
        for _ in range(40):
            cand = np.clip(x + t * step, _BOX_LO, _BOX_HI)
            fc = energy_at(cand)
            if fc <= f + 1e-18 or np.allclose(cand, x):
                break
            t *= 0.5
        # a fixed point or a 2-cycle in floating point: Newton cannot improve x
        stuck = np.array_equal(cand, x) or np.array_equal(cand, prev)
        if stuck and residual <= np.max(np.abs(hf) @ np.spacing(np.abs(x[free])), initial=0.0):
            break
        prev, x, f = x, cand, fc
    else:
        raise OptimizationFailureError(
            f"reduced-energy Newton did not reach |grad| <= {GRAD_TOL} in {max_iter} iterations"
        )
    if warn_boundary and (np.any(x - _BOX_LO < 1e-9) or np.any(_BOX_HI - x < 1e-9)):
        warnings.warn("reduced-energy minimizer on the search box boundary", BoundaryWarning)
    return float(f), (float(x[0]), float(x[1]), float(x[2]))


def reduced_energy_value(mu, gamma1, gamma2, pots) -> float:
    return reduced_energy(mu, gamma1, gamma2, pots)[0]


def _envelope(mu, gamma1, gamma2, pots):
    """Gradient and Hessian of sym_energy in all six variables at the inner
    minimizer, and the mask of its inner variables that are free (not pinned at
    a box bound)."""
    _, x = reduced_energy(mu, gamma1, gamma2, pots)
    g, h = _sym_grad_hess(ReducedPoint(mu, gamma1, gamma2, *x), pots)
    return g, h, ~_pinned(np.array(x), g[3:])


def reduced_gradient(mu, gamma1, gamma2, pots):
    """Envelope first derivatives (d/dmu, d/dgamma1, d/dgamma2) of the reduced energy."""
    return _envelope(mu, gamma1, gamma2, pots)[0][:3]


def reduced_hessian(mu, gamma1, gamma2, pots) -> np.ndarray:
    """3x3 Hessian of the reduced energy in (mu, gamma1, gamma2).

    The envelope Schur complement S_pp - S_px S_xx^-1 S_xp of the six-variable
    Hessian S at the inner minimizer, with p = (mu, gamma1, gamma2) and x the
    free inner variables (a variable pinned at a box bound stays fixed, so it
    is left out of x).
    """
    _, h, free = _envelope(mu, gamma1, gamma2, pots)
    inner = 3 + np.flatnonzero(free)
    s = h[:3, :3] - h[:3, inner] @ np.linalg.solve(h[np.ix_(inner, inner)], h[inner, :3])
    return 0.5 * (s + s.T)


@dataclass(frozen=True)
class ReferenceAngles:
    """Rolled-up, polyhedral, and energy-optimal bond angles for a given ell."""

    ell: int
    alpha_ru: float
    alpha_ch: float
    alpha_us: float
    mu_us: float
    beta_us: float


def _alpha_ch(ell: int) -> float:
    g = gamma(ell)
    lo, hi = ALPHA_LO, ALPHA_HI

    def f(a):
        return beta(a, g) - a

    flo, fhi = f(lo), f(hi)
    if flo * fhi > 0:
        raise DomainError("no sign change for the polyhedral-angle bisection")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or hi - lo < 1e-13:
            break
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def reference_angles(ell: int, pots: PotentialSet) -> ReferenceAngles:
    """Solve for alpha_ch (fixed point of beta) and alpha_us (angle-energy minimizer)."""
    if ell <= 3:
        raise InvalidParameterError(f"ell must exceed 3, got {ell}")
    g = gamma(ell)
    v3 = pots.v3

    def fval(a):
        return 2.0 * v3.value(a) + v3.value(beta(a, g))

    def fprime(a):
        b_a = beta_derivatives(a, g)[0]
        return 2.0 * v3.deriv(a) + v3.deriv(beta(a, g)) * b_a

    def fsecond(a):
        b_a, _, b_aa, _, _ = beta_derivatives(a, g)
        b = beta(a, g)
        return 2.0 * v3.deriv2(a) + v3.deriv2(b) * b_a**2 + v3.deriv(b) * b_aa

    # golden-section bracket, then Newton polish on the stationarity equation
    lo, hi = ALPHA_LO, ALPHA_HI
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fval(c), fval(d)
    for _ in range(80):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fval(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fval(d)
    x = 0.5 * (a + b)
    for _ in range(60):
        fp = fprime(x)
        if abs(fp) < 1e-14:
            break
        x = float(np.clip(x - fp / fsecond(x), ALPHA_LO, ALPHA_HI))
    alpha_us = x
    return ReferenceAngles(
        ell=ell,
        alpha_ru=TWO_THIRDS_PI,
        alpha_ch=_alpha_ch(ell),
        alpha_us=alpha_us,
        mu_us=float(2.0 - 2.0 * np.cos(alpha_us)),
        beta_us=float(beta(alpha_us, g)),
    )


@dataclass(frozen=True)
class FamilyMinimum:
    """Energy-optimal family member at fixed period mu."""

    mu: float
    ell: int
    m: int
    lambda1: float
    lambda2: float
    alpha: float
    energy_per_cell: float
    energy: float
    geometry: ZigzagGeometry


def minimize_family(mu: float, ell: int, pots: PotentialSet, m: int = 1) -> FamilyMinimum:
    """Optimal (lambda1, lambda2) at period mu via the reduced energy at gamma_ell.

    The total energy of the minimizer is 2*m*ell times the per-cell reduced value.
    """
    g = gamma(ell)
    value, (lam, a1, a2) = reduced_energy(mu, g, g, pots)
    lambda1 = float(0.5 * mu + lam * np.cos(a1))
    geom = solve_family(ell, mu, lambda1, lam)
    return FamilyMinimum(
        mu=mu,
        ell=ell,
        m=m,
        lambda1=lambda1,
        lambda2=lam,
        alpha=float(a1),
        energy_per_cell=value,
        energy=float(2 * m * ell * value),
        geometry=geom,
    )


def verify_reduced_hessian(ell: int, pots: PotentialSet, n_split_samples: int = 24, seed: int = 0) -> dict:
    """Positive definiteness and curvature anchor of the reduced energy at the
    unstretched point, plus the gamma-splitting lower bound.

    Raises VerificationFailureError if the 3x3 Hessian is not positive definite.
    """
    if ell < 16:
        raise InvalidParameterError(f"ell must be at least 16, got {ell}")
    refs = reference_angles(ell, pots)
    g = gamma(ell)
    mu0 = refs.mu_us
    hess = reduced_hessian(mu0, g, g, pots)
    evals = np.linalg.eigvalsh(hess)
    if evals[0] <= 0.0:
        raise VerificationFailureError(f"reduced Hessian not positive definite: eigenvalues {evals}")

    v2pp = pots.v2_curvature_at_min()
    v3pp = pots.v3_curvature_at_min()
    kconst = 9.0 + v2pp / (2.0 * v3pp)
    anchor = 2.0 * v2pp / kconst
    ratio = float(hess[0, 0] / anchor)

    grad = reduced_gradient(mu0, g, g, pots)

    rng = np.random.default_rng(seed)
    base = reduced_energy_value(mu0, g, g, pots)
    csplit = np.inf
    eps = min(0.01, 0.25 * (np.pi - g))
    for _ in range(n_split_samples):
        d1, d2 = rng.uniform(-eps, eps, size=2)
        if abs(d1 - d2) < 1e-4:
            continue
        g1, g2 = g + d1, g + d2
        gbar = 0.5 * (g1 + g2)
        gap = reduced_energy_value(mu0, g1, g2, pots) - reduced_energy_value(mu0, gbar, gbar, pots)
        csplit = min(csplit, gap * ell**2 / (g1 - g2) ** 2)

    # strict convexity is guaranteed only near the reference point; report the
    # box actually verified by checking definiteness at its corners
    box_ok = True
    for dmu in (-eps, eps):
        for dg1 in (-eps, eps):
            for dg2 in (-eps, 0.0):
                corner = np.linalg.eigvalsh(reduced_hessian(mu0 + dmu, g + dg1, g + dg2, pots))
                box_ok &= bool(corner[0] > 0.0)

    return {
        "verified_box_halfwidth": float(eps) if box_ok else 0.0,
        "ell": ell,
        "mu_us": mu0,
        "hessian": hess,
        "eigenvalues": evals,
        "positive_definite": bool(evals[0] > 0.0),
        "anchor": anchor,
        "d2mumu": float(hess[0, 0]),
        "anchor_ratio": ratio,
        "anchor_ok": bool(abs(ratio - 1.0) <= 10.0 / ell),
        "gamma_symmetry_residual": float(abs(hess[1, 1] - hess[2, 2])),
        "dgamma_negative": bool(grad[1] < 0.0 and grad[2] < 0.0),
        "dgamma": (float(grad[1]), float(grad[2])),
        "split_constant": float(csplit),
    }


def minimizer_properties(ell: int, pots: PotentialSet, window: float = 0.02, n_grid: int = 13) -> dict:
    """Report-only checks on the family minimizer along a mu-grid around mu_us:
    convexity of E_min, monotone bond lengths, the angle sandwich, and the
    radius trend controlled by sign(6*v3''(2pi/3) - v2''(1))."""
    refs = reference_angles(ell, pots)
    mu0 = refs.mu_us
    mus = np.linspace(mu0 - window, mu0 + window, n_grid)
    sols = [minimize_family(float(mu), ell, pots) for mu in mus]
    evals = np.array([s.energy for s in sols])
    l1 = np.array([s.lambda1 for s in sols])
    l2 = np.array([s.lambda2 for s in sols])
    alph = np.array([s.alpha for s in sols])
    rho = np.array([s.geometry.rho for s in sols])

    second = np.diff(evals, 2)
    h = mus[1] - mus[0]
    i0 = int(np.argmin(np.abs(mus - mu0)))
    d2emin = (evals[i0 + 1] - 2.0 * evals[i0] + evals[i0 - 1]) / h**2
    drho = (rho[i0 + 1] - rho[i0 - 1]) / (2.0 * h)
    trend_sign = float(np.sign(6.0 * pots.v3_curvature_at_min() - pots.v2_curvature_at_min()))

    # The angle sandwich alpha_ch < alpha^mu < alpha_ru holds on a neighborhood
    # of mu_us whose width shrinks with ell; measure it instead of asserting it
    # on the whole grid.
    in_sandwich = (alph > refs.alpha_ch) & (alph < refs.alpha_ru)
    comp_hw = 0.0
    stretch_hw = 0.0
    for mu_i, ok in zip(mus, in_sandwich):
        if not ok:
            continue
        if mu_i <= mu0:
            comp_hw = max(comp_hw, mu0 - mu_i)
        if mu_i >= mu0:
            stretch_hw = max(stretch_hw, mu_i - mu0)
    n = 4 * ell
    return {
        "ell": ell,
        "mu_us": mu0,
        "mu_grid": mus,
        "emin": evals,
        "emin_convex": bool(np.all(second > 0.0)),
        "emin_argmin_at_mu_us": bool(np.argmin(evals) == i0),
        "lambda1_monotone": bool(np.all(np.diff(l1) > 0.0)),
        "lambda2_monotone": bool(np.all(np.diff(l2) > 0.0)),
        "alpha_in_sandwich_at_mu_us": bool(in_sandwich[i0]),
        "sandwich_halfwidth_compression": float(comp_hw),
        "sandwich_halfwidth_stretch": float(stretch_hw),
        "d2emin_at_mu_us": float(d2emin),
        "d2emin_per_atom": float(d2emin / n),
        "drho_dmu_at_mu_us": float(drho),
        "radius_trend_ok": bool(np.sign(drho) == trend_sign),
        "alpha": alph,
        "lambda1": l1,
        "lambda2": l2,
        "rho": rho,
    }
