"""Symmetric cell energy, its reduced (inner-minimized) form, and the
closed-form facts hanging off them: reference angles, the unstretched period,
family energy minimization, and the derivatives of the inner minimum and its
minimizer in (mu, gamma1, gamma2).

The reduced energy at (mu, gamma, gamma) equals the family energy per basic
cell, so one three-variable minimization recovers the optimal bond lengths of
the whole periodic tube.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryWarning, DomainError, InvalidParameterError, OptimizationFailureError
from .geometry import ZigzagGeometry, beta, gamma, solve_family
from .potentials import TWO_THIRDS_PI, PotentialSet

ALPHA_LO = float(np.arccos(-0.4))
ALPHA_HI = float(np.arccos(-0.6))
LAMBDA_LO = 0.9
LAMBDA_HI = 1.1


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


def sym_energy(pt: ReducedPoint, pots: PotentialSet):
    """Cell energy of a fully symmetric cell, as a function of its six
    parameters: a float, or an array when the fields of pt are arrays."""
    v2, v3 = pots.v2, pots.v3
    m1 = 0.5 * pt.mu + pt.lam * np.cos(pt.alpha1)
    m2 = 0.5 * pt.mu + pt.lam * np.cos(pt.alpha2)
    e = (
        2.0 * v2.value(pt.lam)
        + 0.5 * v2.value(m1)
        + 0.5 * v2.value(m2)
        + 2.0 * v3.value(pt.alpha1)
        + 2.0 * v3.value(pt.alpha2)
        + v3.value(beta(pt.alpha1, pt.gamma1))
        + v3.value(beta(pt.alpha2, pt.gamma2))
    )
    return float(e) if np.ndim(e) == 0 else e


def _sym_grad_hess(pt: ReducedPoint, pots: PotentialSet):
    """Analytic gradient (..., 6) and Hessian (..., 6, 6) of sym_energy in all
    six variables z = (mu, gamma1, gamma2, lambda, alpha1, alpha2), the field
    order of ReducedPoint, for fields of any common shape."""
    mu, gamma1, gamma2, lam, alpha1, alpha2 = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (pt.mu, pt.gamma1, pt.gamma2, pt.lam, pt.alpha1, pt.alpha2))
    )
    v2, v3 = pots.v2, pots.v3
    # the two (alpha_i, gamma_i) pairs along a leading axis of length 2
    alpha, gam = np.stack([alpha1, alpha2]), np.stack([gamma1, gamma2])
    c, s = np.cos(alpha), np.sin(alpha)
    m = 0.5 * mu + lam * c
    b = beta(alpha, gam)
    b_a, b_g, b_aa, b_gg, b_ag = beta_derivatives(alpha, gam)
    d1, d2 = v2.deriv(m), v2.deriv2(m)
    e1, e2 = v3.deriv(b), v3.deriv2(b)

    def pairs(v):
        return np.moveaxis(v, 0, -1)

    g = np.zeros(mu.shape + (6,))
    h = np.zeros(mu.shape + (6, 6))
    # dm_i/dmu = 1/2, dm_i/dlambda = cos(alpha_i), dm_i/dalpha_i = -lambda sin(alpha_i)
    g[..., 0] = 0.25 * d1[0] + 0.25 * d1[1]
    g[..., 1:3] = pairs(e1 * b_g)
    g[..., 3] = 2.0 * v2.deriv(lam) + 0.5 * c[0] * d1[0] + 0.5 * c[1] * d1[1]
    g[..., 4:6] = pairs(-0.5 * lam * s * d1 + e1 * b_a + 2.0 * v3.deriv(alpha))
    h[..., 0, 0] = 0.125 * d2[0] + 0.125 * d2[1]
    h[..., 0, 3] = 0.25 * c[0] * d2[0] + 0.25 * c[1] * d2[1]
    h[..., 0, 4:6] = pairs(-0.25 * lam * s * d2)
    h[..., [1, 2], [1, 2]] = pairs(e2 * b_g**2 + e1 * b_gg)
    h[..., [1, 2], [4, 5]] = pairs(e2 * b_a * b_g + e1 * b_ag)
    h[..., 3, 3] = 2.0 * v2.deriv2(lam) + 0.5 * c[0] ** 2 * d2[0] + 0.5 * c[1] ** 2 * d2[1]
    h[..., 3, 4:6] = pairs(-0.5 * s * d1 - 0.5 * lam * s * c * d2)
    h[..., [4, 5], [4, 5]] = pairs(
        0.5 * lam**2 * s**2 * d2 - 0.5 * lam * c * d1 + 2.0 * v3.deriv2(alpha) + e2 * b_a**2 + e1 * b_aa
    )
    # only the upper triangle is filled above
    return g, h + np.swapaxes(np.triu(h, 1), -1, -2)


_BOX_LO = np.array([LAMBDA_LO, ALPHA_LO, ALPHA_LO])
_BOX_HI = np.array([LAMBDA_HI, ALPHA_HI, ALPHA_HI])
_START = np.array([1.0, TWO_THIRDS_PI, TWO_THIRDS_PI])
# KKT residual at which the inner Newton solve of reduced_solve stops, and the
# iterations it may take to get there
GRAD_TOL = 1e-12
MAX_ITER = 200


def _pinned(x, g):
    """Inner variables at a box bound with the gradient pushing outward."""
    return ((x <= _BOX_LO + 1e-12) & (g > 0.0)) | ((x >= _BOX_HI - 1e-12) & (g < 0.0))


def _pin(h, free):
    """The stack h (k, 3, 3) with the row and column of each inner variable not
    free (k, 3) replaced by those of the identity: a solve with a right-hand
    side that is 0 in the pinned rows leaves the pinned variables at 0."""
    return np.where(free[:, :, None] & free[:, None, :], h, np.eye(3))


@dataclass(frozen=True)
class ReducedSolution:
    """Inner minima of sym_energy at N points (mu, gamma1, gamma2).

    value (N,) and x (N, 3) are the minimum and the minimizer (lambda,
    alpha1, alpha2); grad (N, 6) and hess (N, 6, 6) are the derivatives of
    sym_energy in all six variables there, and free (N, 3) marks the inner
    variables not pinned at a box bound.  iterations (N,) counts each point's
    Newton steps and residual (N,) is its final KKT residual.
    """

    value: np.ndarray
    x: np.ndarray
    grad: np.ndarray
    hess: np.ndarray
    free: np.ndarray
    iterations: np.ndarray
    residual: np.ndarray

    def minimizer_derivative(self) -> np.ndarray:
        """(N, 3, 3) derivatives dx*/dp of the minimizer x* = (lambda, alpha1,
        alpha2) in p = (mu, gamma1, gamma2): -S_xx^-1 S_xp by the implicit
        function theorem on the six-variable Hessian S at the minimizer.  A
        variable pinned at a box bound stays fixed, so its row is 0 (its row
        of S_xx is an identity row and its row of S_xp is 0).
        """
        h = self.hess
        h_xp = np.where(self.free[:, :, None], h[:, 3:, :3], 0.0)
        return -np.linalg.solve(_pin(h[:, 3:, 3:], self.free), h_xp)

    def envelope_hessian(self) -> np.ndarray:
        """(N, 3, 3) Hessians of the reduced energy in (mu, gamma1, gamma2):
        the envelope Schur complement S_pp + S_px dx*/dp (see
        minimizer_derivative)."""
        h = self.hess
        s = h[:, :3, :3] + h[:, :3, 3:] @ self.minimizer_derivative()
        return 0.5 * (s + np.swapaxes(s, 1, 2))


def _free_steps(hf, gf):
    """Newton steps -(H + tau I)^-1 g for a stack of systems (pinned variables
    as identity rows, see _pin), with tau lifting the lowest eigenvalue of H
    to at least 1e-8.  A system the solve rejects (singular or not finite)
    takes the step -g."""
    try:
        lowest = np.linalg.eigvalsh(hf)[:, 0]
        tau = np.where(lowest > 1e-10, 0.0, 1e-8 - lowest)
        return np.linalg.solve(hf + tau[:, None, None] * np.eye(hf.shape[-1]), -gf[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        if len(hf) == 1:
            return -gf
        # one bad system fails the stacked call; retry the systems one by one
        return np.concatenate([_free_steps(hf[i : i + 1], gf[i : i + 1]) for i in range(len(hf))])


def reduced_solve(mu, gamma1, gamma2, pots: PotentialSet):
    """Minimize sym_energy over (lambda, alpha1, alpha2) in the box at every
    point of the broadcast arrays (mu, gamma1, gamma2), all points at once.

    Per point: damped Newton from (1, 2pi/3, 2pi/3) with projection onto the
    box.  It stops when the KKT residual (the gradient with the components
    pinned at a bound removed) is at most GRAD_TOL, or when Newton can no
    longer move (its next iterate is the current or the previous one) and the
    residual is within the round-off floor max_i sum_j |H_ij| ulp(x_j) of the
    free variables, which is what one ulp of each variable moves the gradient
    by.  Raises OptimizationFailureError when a point does neither within
    MAX_ITER iterations, and warns (BoundaryWarning) when a minimizer sits on
    the box boundary.  Returns a ReducedSolution over the flattened points.
    Raises InvalidParameterError on a non-finite mu, gamma1 or gamma2.
    """
    mu, gamma1, gamma2 = (np.ravel(v).astype(float) for v in np.broadcast_arrays(mu, gamma1, gamma2))
    for name, v in (("mu", mu), ("gamma1", gamma1), ("gamma2", gamma2)):
        if not np.all(np.isfinite(v)):
            raise InvalidParameterError(f"{name} must be finite, got {v[~np.isfinite(v)][0]}")
    n = len(mu)

    def energy_at(rows, y):
        return sym_energy(ReducedPoint(mu[rows], gamma1[rows], gamma2[rows], *y.T), pots)

    x = np.tile(_START, (n, 1))
    prev = x.copy()
    f = energy_at(np.arange(n), x)
    grad = np.zeros((n, 6))
    hess = np.zeros((n, 6, 6))
    free = np.ones((n, 3), dtype=bool)
    iterations = np.zeros(n, dtype=int)
    residual = np.zeros(n)
    active = np.arange(n)  # points still iterating
    for _ in range(MAX_ITER):
        if len(active) == 0:
            break
        xa = x[active]
        gz, hz = _sym_grad_hess(ReducedPoint(mu[active], gamma1[active], gamma2[active], *xa.T), pots)
        grad[active], hess[active] = gz, hz
        g, h = gz[:, 3:], hz[:, 3:, 3:]
        # variables pinned at a bound stay fixed; Newton runs in the free subspace
        fr = ~_pinned(xa, g)
        free[active] = fr
        res = np.max(np.where(fr, np.abs(g), 0.0), axis=1)
        residual[active] = res
        go = ~(res <= GRAD_TOL)  # a NaN residual keeps iterating, and so fails
        active, xa, g, h, fr, res = active[go], xa[go], g[go], h[go], fr[go], res[go]
        if len(active) == 0:
            break
        hp = _pin(h, fr)
        step = _free_steps(hp, np.where(fr, g, 0.0))
        # backtracking line search; every searching point has the same t
        cand, fc = xa.copy(), f[active]
        searching = np.arange(len(active))
        t = 1.0
        for _ in range(40):
            c = np.clip(xa[searching] + t * step[searching], _BOX_LO, _BOX_HI)
            cand[searching] = c
            fc[searching] = energy_at(active[searching], c)
            accept = (fc[searching] <= f[active[searching]] + 1e-18) | np.all(np.isclose(c, xa[searching]), axis=1)
            searching = searching[~accept]
            if len(searching) == 0:
                break
            t *= 0.5
        # a fixed point or a 2-cycle in floating point: Newton cannot improve x
        stuck = np.all(cand == xa, axis=1) | np.all(cand == prev[active], axis=1)
        ulp = np.where(fr, np.spacing(np.abs(xa)), 0.0)
        moving = ~stuck | (res > np.max(np.abs(hp) @ ulp[:, :, None], axis=(1, 2)))
        active = active[moving]
        prev[active], x[active], f[active] = xa[moving], cand[moving], fc[moving]
        iterations[active] += 1
    if len(active):
        raise OptimizationFailureError(
            f"reduced-energy Newton did not reach |grad| <= {GRAD_TOL} in {MAX_ITER} iterations"
            f" at {len(active)} of {n} points"
        )
    if np.any(x - _BOX_LO < 1e-9) or np.any(_BOX_HI - x < 1e-9):
        warnings.warn("reduced-energy minimizer on the search box boundary", BoundaryWarning)
    return ReducedSolution(f, x, grad, hess, free, iterations, residual)


def reduced_energy(mu: float, gamma1: float, gamma2: float, pots: PotentialSet):
    """reduced_solve at one point.  Returns (value, (lambda*, alpha1*, alpha2*))."""
    sol = reduced_solve(mu, gamma1, gamma2, pots)
    return float(sol.value[0]), tuple(float(v) for v in sol.x[0])


def reduced_gradient(mu, gamma1, gamma2, pots):
    """Envelope first derivatives (d/dmu, d/dgamma1, d/dgamma2) of the reduced energy."""
    return reduced_solve(mu, gamma1, gamma2, pots).grad[0, :3]


def reduced_hessian(mu, gamma1, gamma2, pots) -> np.ndarray:
    """3x3 Hessian of the reduced energy in (mu, gamma1, gamma2); see
    ReducedSolution.envelope_hessian."""
    return reduced_solve(mu, gamma1, gamma2, pots).envelope_hessian()[0]


@dataclass(frozen=True)
class ReferenceAngles:
    """Rolled-up, polyhedral, and energy-optimal bond angles for a given ell."""

    ell: int
    alpha_ru: float
    alpha_ch: float
    alpha_us: float
    mu_us: float
    beta_us: float


def golden_section_min(f, a: float, b: float, steps: int) -> float:
    """Midpoint of the bracket [a, b] after steps golden-section steps toward
    a minimum of the unimodal f."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(steps):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


# Newton steps of the alpha_us polish in reference_angles
_POLISH_STEPS = 60


def reference_angles(ell: int, pots: PotentialSet) -> ReferenceAngles:
    """alpha_ch, the fixed point of beta(., gamma_ell), in closed form: sin(a/2) =
    sin(a) sin(g/2) gives alpha_ch = 2 arccos(1/(2 sin(g/2))).  alpha_us, the
    angle-energy minimizer, by golden section and a Newton polish."""
    g = gamma(ell)
    v3 = pots.v3

    def fval(a):
        return 2.0 * v3.value(a) + v3.value(beta(a, g))

    def slopes(a):
        """(f'(a), f''(a)) of the angle energy fval."""
        b_a, _, b_aa, _, _ = beta_derivatives(a, g)
        b = beta(a, g)
        return (
            2.0 * v3.deriv(a) + v3.deriv(b) * b_a,
            2.0 * v3.deriv2(a) + v3.deriv2(b) * b_a**2 + v3.deriv(b) * b_aa,
        )

    # golden-section bracket, then Newton polish on the stationarity equation
    x, prev = golden_section_min(fval, ALPHA_LO, ALPHA_HI, 80), None
    for it in range(_POLISH_STEPS):
        fp, fpp = slopes(x)
        if abs(fp) < 1e-14:
            break
        step = min(max(float(x - fp / fpp), ALPHA_LO), ALPHA_HI)
        if step == x:
            # a fixed point: the remaining iterations would not move x
            break
        if step == prev:
            # a 2-cycle: the remaining iterations alternate between step and x,
            # so the last of them lands on step when their number is odd
            if (_POLISH_STEPS - it) % 2:
                x = step
            break
        x, prev = step, x
    alpha_us = x
    return ReferenceAngles(
        ell=ell,
        alpha_ru=TWO_THIRDS_PI,
        alpha_ch=float(2.0 * np.arccos(0.5 / np.sin(0.5 * g))),
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


def family_minima(mus, ell: int, pots: PotentialSet, m: int = 1):
    """Optimal (lambda1, lambda2) at each period of mus via one batched solve
    of the reduced energy at gamma_ell.

    The total energy of each minimizer is 2*m*ell times its per-cell reduced
    value.  Returns (list of FamilyMinimum, the ReducedSolution).  Raises
    InvalidParameterError for m < 1.
    """
    if m < 1:
        raise InvalidParameterError(f"m must be at least 1, got {m}")
    g = gamma(ell)
    mus = np.ravel(np.asarray(mus, dtype=float))
    sol = reduced_solve(mus, g, g, pots)
    fams = []
    for mu, value, (lam, a1, _) in zip(mus.tolist(), sol.value.tolist(), sol.x.tolist()):
        lambda1 = float(0.5 * mu + lam * np.cos(a1))
        fams.append(
            FamilyMinimum(
                mu=mu,
                ell=ell,
                m=m,
                lambda1=lambda1,
                lambda2=lam,
                alpha=a1,
                energy_per_cell=value,
                energy=float(2 * m * ell * value),
                geometry=solve_family(ell, mu, lambda1, lam),
            )
        )
    return fams, sol


def minimize_family(mu: float, ell: int, pots: PotentialSet, m: int = 1) -> FamilyMinimum:
    """family_minima at one period mu."""
    return family_minima([mu], ell, pots, m=m)[0][0]
