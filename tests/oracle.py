"""Independent references the fast paths are tested against: the brute-force
bond graph (pair search and perturbation sampler), the finite-difference
stencils of the analytic derivatives (energy.hessian, cellspec.cell_hessian,
cellspec.t_jacobian, the angle-sum Hessian in cellspec.angle_sum_concavity,
reduced.reduced_hessian), the brute-force family minimizer
(reduced.minimize_family), the one-point-at-a-time inner Newton solve
(reduced.reduced_solve), the scan-plus-bisection fracture threshold
(fracture.fracture_threshold) and the one-trial-at-a-time stability ensemble
with a bond graph rebuilt for every draw (stability.stability_trial)."""

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


def reduced_energy_scalar(mu, gamma1, gamma2, pots, max_iter: int = 200):
    """The inner minimization of reduced.reduced_solve, one point at a time
    on Python scalars: damped, box-projected Newton from (1, 2pi/3, 2pi/3)
    with the same pinned-variable rule, GRAD_TOL exit and round-off-floor
    exit.  Returns (value, (lambda*, alpha1*, alpha2*))."""
    from nanolab.errors import OptimizationFailureError
    from nanolab.potentials import TWO_THIRDS_PI
    from nanolab.reduced import _BOX_HI, _BOX_LO, GRAD_TOL, ReducedPoint, _pinned, _sym_grad_hess, sym_energy

    x = np.array([1.0, TWO_THIRDS_PI, TWO_THIRDS_PI])

    def energy_at(y):
        return sym_energy(ReducedPoint(mu, gamma1, gamma2, *y), pots)

    f = energy_at(x)
    prev = x
    for _ in range(max_iter):
        gz, hz = _sym_grad_hess(ReducedPoint(mu, gamma1, gamma2, *x), pots)
        g, h = gz[3:], hz[3:, 3:]
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
        stuck = np.array_equal(cand, x) or np.array_equal(cand, prev)
        if stuck and residual <= np.max(np.abs(hf) @ np.spacing(np.abs(x[free])), initial=0.0):
            break
        prev, x, f = x, cand, fc
    else:
        raise OptimizationFailureError(f"scalar reduced Newton did not converge in {max_iter} iterations")
    return float(f), (float(x[0]), float(x[1]), float(x[2]))


# mu points of the coarse scan for a sign change, and the bisection tolerance
COARSE_STEPS = 49
BISECTION_TOL = 1e-6


def fracture_threshold_scan(ell: int, m: int, pots, window: float = 0.12) -> float:
    """Smallest mu with E(cleaved) < E(optimal family at mu), by a coarse scan
    of COARSE_STEPS points over [mu_us, min(mu_us + window, 3.1 - 1e-9)] plus
    bisection to BISECTION_TOL, one scalar reduced solve per evaluation.
    Raises WindowTooSmallError without a crossing."""
    from nanolab.errors import WindowTooSmallError
    from nanolab.fracture import cleaved_energy
    from nanolab.geometry import gamma
    from nanolab.reduced import reference_angles

    mu_us = reference_angles(ell, pots).mu_us
    e_cleaved = cleaved_energy(ell, m, pots)
    g = gamma(ell)

    def excess(mu):
        # positive while the stretched periodic tube is still favorable
        return e_cleaved - 2 * m * ell * reduced_energy_scalar(mu, g, g, pots)[0]

    grid = np.linspace(mu_us, min(mu_us + window, 3.1 - 1e-9), COARSE_STEPS)
    vals = [excess(float(mu)) for mu in grid]
    bracket = next(
        ((float(a), float(b)) for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]) if fa > 0.0 >= fb),
        None,
    )
    if bracket is None:
        raise WindowTooSmallError(f"no fracture crossing for ell={ell}, m={m}")
    lo, hi = bracket
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sample_perturbation_rebuild(base, spec, trial: int, max_rejections: int = 1000):
    """One trial's displaced copy of base, drawn from the trial's own stream
    and redrawn until bond_graph, rebuilt for every draw, has base's bonds.
    Returns (tube, graph, rejections)."""
    from nanolab.energy import bond_graph
    from nanolab.errors import EtaTooLargeError
    from nanolab.stability import _displacement, _trial_rng

    base_pairs = bond_graph(base).pairs
    rng = _trial_rng(spec.seed, trial)
    rejections = 0
    while True:
        tube = base.with_positions(base.positions + _displacement(rng, base.n, spec.eta, spec.mode))
        graph = bond_graph(tube)
        if np.array_equal(graph.pairs, base_pairs):
            return tube, graph, rejections
        rejections += 1
        if rejections >= max_rejections:
            raise EtaTooLargeError(f"{max_rejections} consecutive samples broke the bond graph at eta={spec.eta}")


def stability_trial_loop(mu, ell, m, spec, pots, collect_ratios: bool = True) -> dict:
    """stability.stability_trial one trial at a time: sample_perturbation_rebuild,
    then one total_energy and one symmetry defect per tube."""
    from nanolab.cells import gather_cells, symmetrize, to_local
    from nanolab.energy import total_energy
    from nanolab.geometry import build_nanotube
    from nanolab.reduced import minimize_family
    from nanolab.stability import BondBand

    base = build_nanotube(minimize_family(mu, ell, pots, m=m).geometry, m)
    e_base = total_energy(base, pots)
    gaps, ratios, failures = [], [], []
    rejections = skipped_trivial = 0
    for trial in range(spec.count):
        tube, graph, rej = sample_perturbation_rebuild(base, spec, trial)
        rejections += rej
        if np.max(np.abs(tube.positions - base.positions)) == 0.0:
            skipped_trivial += 1
            continue
        gap = total_energy(tube, pots, graph) - e_base
        gaps.append(gap)
        if collect_ratios:
            delta_sum = float(np.sum(symmetrize(to_local(gather_cells(tube)))[2]))
            if delta_sum > 1e-14:
                ratios.append(gap / delta_sum)
        if gap <= 0.0:
            failures.append({"trial": trial, "energy_gap": gap, "positions": tube.positions.copy()})
    gaps, ratios = np.array(gaps), np.array(ratios)
    stat = lambda f, a: float(f(a)) if len(a) else float("nan")
    return {
        "mu": mu,
        "ell": ell,
        "m": m,
        "eta": spec.eta,
        "seed": spec.seed,
        "mode": spec.mode,
        "count": spec.count,
        "evaluated": len(gaps),
        "skipped_trivial": skipped_trivial,
        "rejections": rejections,
        "graph_rebuilds": 0 if BondBand(base, spec.eta).fixed_images else spec.count + rejections,
        "base_energy": e_base,
        "min_gap": stat(np.min, gaps),
        "max_gap": stat(np.max, gaps),
        "mean_gap": stat(np.mean, gaps),
        "gap_ratio_min": stat(np.min, ratios),
        "gap_ratio_median": stat(np.median, ratios),
        "gap_ratio_max": stat(np.max, ratios),
        "n_failures": len(failures),
        "failures": failures,
    }
