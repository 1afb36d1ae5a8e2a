"""Independent references the fast paths are tested against: the brute-force
bond graph (pair search and perturbation sampler), the finite-difference
stencils of the analytic derivatives (energy.hessian, cellspec.cell_hessian,
cellspec.t_jacobian, the angle-sum Hessian in cellspec.angle_sum_concavity,
reduced.reduced_hessian) and the brute-force family minimizer
(reduced.minimize_family)."""

from itertools import combinations

import numpy as np


def pairs_brute(pos: np.ndarray, L: float, cutoff: float):
    """O(n^2) pair search under the modulo-L metric over the images t in {0, -1, +1}.

    Returns (i, j, shift, dist) for the pairs i < j at distance below cutoff,
    in (i, j) order, plus the full distance matrix.
    """
    d = pos[:, None, :] - pos[None, :, :]
    dx = d[..., 0]
    cand = np.stack([dx, dx - L, dx + L])
    k = np.argmin(np.abs(cand), axis=0)
    shifts = np.array([0, -1, 1])[k]
    dxw = np.take_along_axis(cand, k[None], axis=0)[0]
    dist = np.sqrt(dxw**2 + d[..., 1] ** 2 + d[..., 2] ** 2)
    ii, jj = np.where(np.triu(dist < cutoff, k=1))
    return ii, jj, shifts[ii, jj], dist


def graph_brute(tube, cutoff: float = 1.1):
    """(pairs, pair_shifts, triples, triple_shifts) from the brute pair search
    and a Python loop over the angle triples at each vertex."""
    ii, jj, tt, _ = pairs_brute(tube.positions, tube.period, cutoff)
    pairs = np.stack([ii, jj], axis=1) if len(ii) else np.zeros((0, 2), dtype=int)
    adjacency = [[] for _ in range(tube.n)]
    for (a, b), t in zip(pairs, tt):
        adjacency[a].append((int(b), -int(t)))
        adjacency[b].append((int(a), int(t)))
    trip, tsh = [], []
    for j in range(tube.n):
        for (a, ta), (b, tb) in combinations(sorted(adjacency[j]), 2):
            trip.append((a, j, b))
            tsh.append((ta, tb))
    triples = np.array(trip, dtype=int) if trip else np.zeros((0, 3), dtype=int)
    triple_shifts = np.array(tsh, dtype=int) if tsh else np.zeros((0, 2), dtype=int)
    return pairs, np.asarray(tt, dtype=int), triples, triple_shifts


def assert_graph_equals_brute(graph, tube, cutoff: float = 1.1):
    pairs, shifts, triples, triple_shifts = graph_brute(tube, cutoff)
    assert np.array_equal(graph.pairs, pairs)
    assert np.array_equal(graph.pair_shifts, shifts)
    assert np.array_equal(graph.triples, triples)
    assert np.array_equal(graph.triple_shifts, triple_shifts)


def hessian_fd(tube, pots, graph, step: float = 1e-5):
    """Central differences of the analytic gradient on a frozen bond graph,
    symmetrized: 6n gradient calls for the (3n, 3n) Hessian."""
    from nanolab.energy import gradient

    n3 = 3 * tube.n
    hess = np.empty((n3, n3))
    flat = tube.positions.ravel().copy()
    for col in range(n3):
        x = flat.copy()
        x[col] += step
        gp = gradient(tube.with_positions(x.reshape(-1, 3)), pots, graph).ravel()
        x[col] -= 2.0 * step
        gm = gradient(tube.with_positions(x.reshape(-1, 3)), pots, graph).ravel()
        hess[:, col] = (gp - gm) / (2.0 * step)
    return 0.5 * (hess + hess.T)


def cell_hessian_fd(cell, pots, step: float = 1e-4):
    """Richardson-extrapolated central differences of the analytic cell
    gradient, symmetrized: 96 cell_energy_gradient calls."""
    from nanolab.cells import cell_energy_gradient

    flat = np.asarray(cell, dtype=float).ravel()

    def fd(h):
        cols = []
        for idx in range(24):
            x = flat.copy()
            x[idx] += h
            gp = cell_energy_gradient(x.reshape(8, 3), pots).ravel()
            x[idx] -= 2.0 * h
            gm = cell_energy_gradient(x.reshape(8, 3), pots).ravel()
            cols.append((gp - gm) / (2.0 * h))
        return np.stack(cols, axis=1)

    hess = (4.0 * fd(0.5 * step) - fd(step)) / 3.0
    return 0.5 * (hess + hess.T)


def t_jacobian_fd(cell, step: float = 1e-6):
    """(18, 24) central-difference Jacobian of cellspec.t_map."""
    from nanolab.cellspec import t_map

    flat = np.asarray(cell, dtype=float).ravel()
    cols = []
    for idx in range(24):
        x = flat.copy()
        x[idx] += step
        fp = t_map(x.reshape(8, 3)).vector
        x[idx] -= 2.0 * step
        fm = t_map(x.reshape(8, 3)).vector
        cols.append((fp - fm) / (2.0 * step))
    return np.stack(cols, axis=1)


def angle_sum_second_fd(cell, v, step: float = 1e-3):
    """Richardson-extrapolated second difference of the total angle sum (all
    three angle-sum functionals) along the direction v (8, 3)."""
    from nanolab.cellspec import t_map

    def total(c):
        return float(np.sum(t_map(c).angle_sums()))

    base = total(cell)

    def second(h):
        return (total(cell + h * v) - 2.0 * base + total(cell - h * v)) / h**2

    return (4.0 * second(0.5 * step) - second(step)) / 3.0


def reduced_hessian_fd(mu, gamma1, gamma2, pots, step: float = 1e-4):
    """Richardson-extrapolated central differences of the envelope gradient
    reduced.reduced_gradient, symmetrized: 12 reduced Newton solves."""
    from nanolab.reduced import reduced_gradient

    x0 = np.array([mu, gamma1, gamma2], dtype=float)

    def fd(h):
        cols = []
        for d in range(3):
            e = np.zeros(3)
            e[d] = h
            cols.append((reduced_gradient(*(x0 + e), pots) - reduced_gradient(*(x0 - e), pots)) / (2.0 * h))
        return np.stack(cols, axis=1)

    hess = (4.0 * fd(0.5 * step) - fd(step)) / 3.0
    return 0.5 * (hess + hess.T)


def minimize_family_direct(mu: float, ell: int, pots, m: int = 1, resolution: float = 1e-3):
    """Brute-force family minimizer: grid over (lambda1, lambda2) plus local
    pattern-search polish of the closed-form family energy.

    Returns (lambda1, lambda2, total energy).  Independent of the Newton path
    through reduced.reduced_energy.
    """
    from nanolab.energy import family_energy
    from nanolab.errors import InvalidParameterError
    from nanolab.geometry import solve_family
    from nanolab.reduced import LAMBDA_HI, LAMBDA_LO

    def energy(l1, l2):
        try:
            return family_energy(solve_family(ell, mu, l1, l2), m, pots)
        except InvalidParameterError:
            return np.inf

    grid = np.arange(LAMBDA_LO + resolution, LAMBDA_HI, resolution)
    best = (np.inf, None, None)
    for l1 in grid:
        for l2 in grid:
            e = energy(l1, l2)
            if e < best[0]:
                best = (e, l1, l2)
    e0, l1, l2 = best
    step = resolution
    for _ in range(40):
        improved = False
        for d1, d2 in ((step, 0), (-step, 0), (0, step), (0, -step), (step, step), (-step, -step), (step, -step), (-step, step)):
            e = energy(l1 + d1, l2 + d2)
            if e < e0:
                e0, l1, l2 = e, l1 + d1, l2 + d2
                improved = True
        if not improved:
            step *= 0.5
            if step < 1e-10:
                break
    return float(l1), float(l2), float(e0)
