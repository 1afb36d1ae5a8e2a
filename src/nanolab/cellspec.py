"""Reference cells, the 24-direction basis of cell-configuration space, the
bond/angle map T, and constrained convexity of the cell energy.

The basis splits into six rigid-motion directions (translations plus
infinitesimal rotations of the planar reference), thirteen directions that
change bonds or angles to first order, and five out-of-plane directions that
do so only to second order.  The map T collects the ten cell angles and eight
cell bond lengths; the cell energy factors through T, which reduces its
convexity analysis to kernel geometry plus the angle-sum concavity of nearly
planar junctions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cells import (
    ANGLE_SLOTS,
    ANGLE_WEIGHTS,
    BOND_SLOTS,
    BOND_WEIGHTS,
    CELL_GRAPH,
    cell_angles,
    cell_bond_lengths,
)
from .energy import _angle_term, _bond_term, _bond_vectors, _leg_vectors, term_hessian
from .errors import InvalidParameterError, VerificationFailureError
from .geometry import gamma
from .potentials import PotentialSet
from .reduced import golden_section_min, reference_angles

SQ3 = np.sqrt(3.0)


def planar_reference() -> np.ndarray:
    """Flat honeycomb cell with unit bonds in the z = 0 plane."""
    return np.array(
        [
            [-1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [-0.5, SQ3 / 2.0, 0.0],
            [0.5, SQ3 / 2.0, 0.0],
            [0.5, -SQ3 / 2.0, 0.0],
            [-0.5, -SQ3 / 2.0, 0.0],
            [-2.0, 0.0, 0.0],
            [2.0, 0.0, 0.0],
        ]
    )


def kink_cell(ell: int, pots: PotentialSet) -> np.ndarray:
    """Unit-bond cell of the unstretched optimal tube: two half planes meeting
    along the axis at the interior angle gamma_ell."""
    refs = reference_angles(ell, pots)
    sig = -np.cos(refs.alpha_us)
    g = gamma(ell)
    sy = np.sin(refs.alpha_us) * np.sin(0.5 * g)
    sz = np.sin(refs.alpha_us) * np.cos(0.5 * g)
    return np.array(
        [
            [-0.5 - sig, 0.0, 0.0],
            [0.5 + sig, 0.0, 0.0],
            [-0.5, sy, sz],
            [0.5, sy, sz],
            [0.5, -sy, sz],
            [-0.5, -sy, sz],
            [-1.5 - sig, 0.0, 0.0],
            [1.5 + sig, 0.0, 0.0],
        ]
    )


def _sparse(entries) -> np.ndarray:
    v = np.zeros((8, 3))
    for atom, vec in entries.items():
        v[atom] = vec
    return v


def _good_vectors() -> np.ndarray:
    u = np.zeros((13, 8, 3))
    u[0] = planar_reference() * np.array([1.0, 1.0, 0.0])
    u[0][6] = u[0][7] = 0.0
    u[1] = _sparse({2: (0.5, SQ3 / 2, 0.0), 3: (-0.5, SQ3 / 2, 0.0)})
    u[2] = _sparse({1: (1.0, 0.0, 0.0), 3: (1.0, 0.0, 0.0), 4: (1.0, 0.0, 0.0)})
    u[3] = _sparse(
        {
            1: (0.5, -SQ3 / 2, 0.0),
            2: (0.5, SQ3 / 2, 0.0),
            3: (-0.5, SQ3 / 2, 0.0),
            4: (1.0, 0.0, 0.0),
        }
    )
    u[4] = _sparse({6: (-1.0, 0.0, 0.0)})
    u[5] = _sparse({6: (-1.0, 0.0, 0.0), 7: (1.0, 0.0, 0.0)})
    u[6] = _sparse({0: (SQ3, 0.0, 0.0), 2: (0.0, 1.0, 0.0), 5: (0.0, -1.0, 0.0)})
    u[7] = _sparse({2: (SQ3 / 2, -0.5, 0.0), 3: (SQ3 / 2, 0.5, 0.0)})
    u[8] = _sparse(
        {
            0: (SQ3 / 2, 0.5, 0.0),
            1: (-SQ3 / 2, 0.5, 0.0),
            2: (0.0, 1.0, 0.0),
            3: (0.0, 1.0, 0.0),
        }
    )
    u[9] = _sparse({6: (0.0, 1.0, 0.0)})
    u[10] = _sparse({6: (0.0, 1.0, 0.0), 7: (0.0, 1.0, 0.0)})
    u[11] = _sparse({0: (1.0, 0.0, 0.0)})
    u[12] = _sparse({0: (0.0, 1.0, 0.0)})
    return u


def _bad_vectors() -> np.ndarray:
    w = np.zeros((5, 8, 3))
    w[0] = _sparse({0: (0.0, 0.0, 1.0)})
    w[1] = _sparse({0: (0.0, 0.0, 1.0), 2: (0.0, 0.0, 1.0)})
    w[2] = _sparse({0: (0.0, 0.0, 1.0), 3: (0.0, 0.0, 1.0), 4: (0.0, 0.0, 1.0)})
    w[3] = _sparse({6: (0.0, 0.0, 1.0)})
    w[4] = _sparse({6: (0.0, 0.0, 1.0), 7: (0.0, 0.0, 1.0)})
    return w


@dataclass(frozen=True)
class CellBasis:
    """24 directions of cell-configuration space: degenerate, good, bad."""

    degenerate: np.ndarray
    good: np.ndarray
    bad: np.ndarray


def cell_basis() -> CellBasis:
    x0 = planar_reference()
    degen = np.zeros((6, 8, 3))
    for d in range(3):
        degen[d, :, d] = 1.0
    rots = [
        np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
        np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]]),
    ]
    for d, a in enumerate(rots):
        degen[3 + d] = x0 @ a.T
    return CellBasis(degen, _good_vectors(), _bad_vectors())


ANGLE_SUM_VECTORS = np.zeros((3, 10))
ANGLE_SUM_VECTORS[0, 0:6] = 1.0
ANGLE_SUM_VECTORS[1, [0, 6, 7]] = 1.0
ANGLE_SUM_VECTORS[2, [1, 8, 9]] = 1.0


def t_map(cell: np.ndarray) -> np.ndarray:
    """T(x) of an 8-atom cell: the 18-vector of its ten angles (ANGLE_SLOTS
    order), then its eight bond lengths (BOND_SLOTS order)."""
    cell = np.asarray(cell, dtype=float)
    if cell.shape != (8, 3):
        raise InvalidParameterError(f"cell must have shape (8, 3), got {cell.shape}")
    return np.concatenate([cell_angles(cell), cell_bond_lengths(cell)])


def tilde_gradient(y: np.ndarray, pots: PotentialSet) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    return np.concatenate([ANGLE_WEIGHTS * pots.v3.deriv(y[:10]), BOND_WEIGHTS * pots.v2.deriv(y[10:])])


def tilde_hessian_diag(y: np.ndarray, pots: PotentialSet) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    return np.concatenate([ANGLE_WEIGHTS * pots.v3.deriv2(y[:10]), BOND_WEIGHTS * pots.v2.deriv2(y[10:])])


class _Identity:
    """v(x) = x: with it the term kernels differentiate the bond lengths and
    angles themselves."""

    @staticmethod
    def deriv(x):
        return np.ones_like(x)

    @staticmethod
    def deriv2(x):
        return np.zeros_like(x)


def t_jacobian(cell: np.ndarray) -> np.ndarray:
    """(18, 24) analytic Jacobian of t_map at the given cell: an angle row is
    -(1/sin(theta)) dc/dx, a bond row +-rh on its two atoms."""
    cell = np.asarray(cell, dtype=float)
    jac = np.zeros((18, 8, 3))
    d = _bond_vectors(cell, CELL_GRAPH)
    angles, _ = _angle_term(*_leg_vectors(d, CELL_GRAPH), _Identity)
    bonds, _ = _bond_term(d, _Identity)
    jac[np.arange(10)[:, None], ANGLE_SLOTS] = angles
    jac[10 + np.arange(8)[:, None], BOND_SLOTS] = bonds
    return jac.reshape(18, 24)


def t_jacobian_kernel() -> dict:
    """Kernel dimensions of DT and DT^a at the planar reference via SVD, with
    singular values below 1e-8 of the largest counted as zero.

    Also reports the largest principal angle between the computed kernel of DT
    and the span of the degenerate-plus-bad basis directions.
    """
    from scipy.linalg import subspace_angles

    jac = t_jacobian(planar_reference())
    u, s, vt = np.linalg.svd(jac)
    rank = int(np.sum(s > 1e-8 * s[0]))
    kernel = vt[rank:].T
    sa = np.linalg.svd(jac[:10], compute_uv=False)
    rank_a = int(np.sum(sa > 1e-8 * sa[0]))

    basis = cell_basis()
    span = np.concatenate([basis.degenerate, basis.bad], axis=0).reshape(-1, 24).T
    qspan, _ = np.linalg.qr(span)
    max_angle = float(np.max(subspace_angles(qspan, kernel))) if kernel.size else float("nan")
    return {
        "rank": rank,
        "kernel_dim": 24 - rank,
        "kernel_dim_angles": 24 - rank_a,
        "kernel": kernel,
        "singular_values": s,
        "max_principal_angle": max_angle,
    }


def tilde_derivative_signs(ells, pots: PotentialSet, cells=None) -> dict:
    """Sign and scale structure of the tilde-energy derivatives at the kink cell.

    Bond entries of the gradient vanish (unit bonds at the pair minimum); angle
    entries are strictly negative with magnitude of order 1/ell^2; the Hessian
    is diagonal with entries in a fixed positive band.  cells, when given,
    holds the kink cell of each ell (see kink_cell).  scaling_slope, the
    log-log slope of the mean angle entry over ell, is None without two
    distinct ell.  Raises VerificationFailureError on a sign violation.
    """
    rows = []
    for ell, cell in zip(ells, cells or [None] * len(ells)):
        if ell < 16:
            raise InvalidParameterError(f"ell must be at least 16, got {ell}")
        y = t_map(kink_cell(ell, pots) if cell is None else cell)
        g = tilde_gradient(y, pots)
        hd = tilde_hessian_diag(y, pots)
        bond_res = float(np.max(np.abs(g[10:])))
        angle_max = float(np.max(g[:10]))
        if angle_max >= 0.0:
            raise VerificationFailureError(f"angle derivative not negative at ell={ell}")
        rows.append(
            {
                "ell": ell,
                "bond_grad_residual": bond_res,
                "angle_grad": g[:10],
                "angle_grad_scaled_lo": float(np.min(-g[:10]) * ell**2),
                "angle_grad_scaled_hi": float(np.max(-g[:10]) * ell**2),
                "hess_diag_min": float(np.min(hd)),
                "hess_diag_max": float(np.max(hd)),
            }
        )
    ells_arr = np.array([r["ell"] for r in rows], dtype=float)
    mags = np.array([np.mean(-r["angle_grad"]) for r in rows])
    slope = float(np.polyfit(np.log(ells_arr), np.log(mags), 1)[0]) if len(set(ells_arr)) > 1 else None
    return {"rows": rows, "scaling_slope": slope}


def cell_hessian(cell: np.ndarray, pots: PotentialSet) -> np.ndarray:
    """24x24 analytic Hessian of the weighted cell energy: the term_hessian of
    CELL_GRAPH with the cell weights."""
    return term_hessian(np.asarray(cell, dtype=float), CELL_GRAPH, pots.v2, pots.v3, BOND_WEIGHTS, ANGLE_WEIGHTS)


# points of the geometric nu scan before golden-section refinement
N_SCAN = 60
# eigenvalues of H + nu*P this close to the smallest, relative to max|lambda(H)|,
# belong to its eigenspace: golden section leaves a multiple eigenvalue split by
# about 1e-16 of that scale, and the next distinct one at the kink cells sits
# at 6e-10 of it or more
EIGENSPACE_TOL = 1e-10
# The dual value lambda_min(H + nu*P) - nu*r^2 is lowered by
# DUAL_ROUNDOFF_ULPS * eps * max|lambda(H + nu*P)|, a bound on eigvalsh's
# round-off with room to spare, so that the reported lower bound holds in
# floating point: at the kink cells of ell = 16 .. 128 the bare dual value
# exceeded the upper bound in 26 of 226 cases, by up to 0.17 of that unit.
DUAL_ROUNDOFF_ULPS = 24.0


def constrained_rayleigh_min(hess: np.ndarray, span: np.ndarray, r: float) -> dict:
    """Lower bound on min v'Hv over unit v with |proj_span(v)| <= r.

    Weak Lagrangian duality: for any nu >= 0, lambda_min(H + nu*P) - nu*r^2 is
    a valid lower bound; the best nu is found by scanning plus golden-section
    refinement (the dual function is concave in nu).  The companion upper bound
    is v'Hv at a feasible v from the dual-optimal eigenspace: the unit vector
    there with |Pv| = r when one exists (then v'Hv equals the dual value),
    else the smallest eigenvector with its in-span part shrunk to |Pv| = r.
    The lower bound is the dual value less its round-off allowance
    (DUAL_ROUNDOFF_ULPS).
    """
    if not (0.0 < r < 1.0):
        raise InvalidParameterError(f"r must lie in (0, 1), got {r}")
    q, _ = np.linalg.qr(span)
    proj = q @ q.T

    def dual(nu):
        return float(np.linalg.eigvalsh(hess + nu * proj)[0]) - nu * r**2

    scale = float(np.max(np.abs(np.linalg.eigvalsh(hess))))
    nus = np.concatenate([[0.0], np.geomspace(1e-6 * scale, 10.0 * scale, N_SCAN)])
    # the scan as one stacked eigensolve: each matrix and its eigenvalues are
    # the ones dual(nu) computes
    vals = np.linalg.eigvalsh(hess + nus[:, None, None] * proj)[:, 0] - nus * r**2
    best = int(np.argmax(vals))
    lo = nus[max(0, best - 1)]
    hi = nus[min(len(nus) - 1, best + 1)]
    nu_star = golden_section_min(lambda nu: -dual(nu), lo, hi, 60)
    # At the kink cells the smallest eigenvalue is multiple, so a single eigh
    # vector would be an arbitrary pick.  In the eigenspace V, |PVc|^2 ranges
    # over the eigenvalues of V'PV; mixing the extreme two hits r^2.
    evals, evecs = np.linalg.eigh(hess + nu_star * proj)
    roundoff = DUAL_ROUNDOFF_ULPS * np.finfo(float).eps
    lower = dual(nu_star) - roundoff * float(np.max(np.abs(evals)))
    if best == 0:
        lower = max(lower, float(vals[0]) - roundoff * scale)
    space = evecs[:, evals <= evals[0] + EIGENSPACE_TOL * scale]
    p_evals, p_evecs = np.linalg.eigh(space.T @ proj @ space)
    if p_evals[0] <= r**2 <= p_evals[-1] and p_evals[0] < p_evals[-1]:
        s2 = (r**2 - p_evals[0]) / (p_evals[-1] - p_evals[0])
        v = space @ (np.sqrt(1.0 - s2) * p_evecs[:, 0] + np.sqrt(s2) * p_evecs[:, -1])
    else:
        v = evecs[:, 0]
        pv = proj @ v
        npv = np.linalg.norm(pv)
        if npv > r:
            # shrink the in-span component to the constraint boundary
            perp = v - pv
            nperp = np.linalg.norm(perp)
            if nperp > 1e-14:
                v = (r / npv) * pv + np.sqrt(1.0 - r**2) * perp / nperp
    v = v / np.linalg.norm(v)
    upper = float(v @ hess @ v)
    return {"lower": lower, "upper": upper, "nu": float(nu_star)}


def angle_sum_concavity() -> dict:
    """Angle-sum concavity constant c_kink at the planar reference, exactly:
    -lambda_max of the analytic angle-sum Hessian H on the five bad directions
    with their rigid-motion parts projected out.  Also the rate -w'Hw/|w|^2
    of each such direction w (ratios).

    The angle sum is invariant under rigid motions and stationary at the
    planar reference, so H annihilates the six rigid directions and c_kink is
    the least rate -v'Hv/|v_perp|^2 over the whole degenerate-plus-bad span,
    v_perp the part of v off the rigid motions.
    """
    basis = cell_basis()
    qdeg, _ = np.linalg.qr(basis.degenerate.reshape(6, 24).T)
    bad = basis.bad.reshape(5, 24)
    perp = bad - (bad @ qdeg) @ qdeg.T
    q, _ = np.linalg.qr(perp.T)
    # the angle sum is the cell's term sum with zero bond weights
    hess = term_hessian(planar_reference(), CELL_GRAPH, _Identity, _Identity, 0.0, ANGLE_SUM_VECTORS.sum(axis=0))
    ratios = -np.einsum("bi,ij,bj->b", perp, hess, perp) / np.sum(perp**2, axis=1)
    return {"c_kink": float(-np.linalg.eigvalsh(q.T @ hess @ q)[-1]), "ratios": ratios}


def cell_hessian_convexity(ell: int, pots: PotentialSet, r: float = 0.9, cell=None, c_kink=None) -> dict:
    """Constrained convexity of the cell-energy Hessian at the kink cell.

    (a) directions r-separated from the degenerate-plus-bad span have Rayleigh
    quotients bounded below by a positive constant; (b) directions merely
    r-separated from the rigid motions keep a positive bound of order 1/ell^2;
    (c) the angle-sum concavity constant at the planar reference is positive.
    cell (the kink cell of ell) and c_kink (angle_sum_concavity's constant)
    are computed when not given.  Raises VerificationFailureError if a
    certified lower bound is nonpositive.
    """
    if ell < 16:
        raise InvalidParameterError(f"ell must be at least 16, got {ell}")
    basis = cell_basis()
    hess = cell_hessian(kink_cell(ell, pots) if cell is None else cell, pots)
    span_db = np.concatenate([basis.degenerate, basis.bad], axis=0).reshape(-1, 24).T
    span_d = basis.degenerate.reshape(6, 24).T
    good = constrained_rayleigh_min(hess, span_db, r)
    weak = constrained_rayleigh_min(hess, span_d, r)
    if good["lower"] <= 0.0 or weak["lower"] <= 0.0:
        raise VerificationFailureError(
            f"nonpositive constrained convexity bound at ell={ell}: {good['lower']}, {weak['lower']}"
        )
    if c_kink is None:
        c_kink = angle_sum_concavity()["c_kink"]
    return {
        "ell": ell,
        "r": r,
        "c_good": good["lower"],
        "c_good_upper": good["upper"],
        "c_weak": weak["lower"],
        "c_weak_upper": weak["upper"],
        "c_kink": c_kink,
    }
