"""Independent references the fast paths are tested against: the brute-force
bond graph (pair search and perturbation sampler) and the finite-difference
Hessian (analytic energy.hessian)."""

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
