"""Reference computations the workload checks compare against.

None of this calls the program: each function rebuilds what it needs
from the raw inputs (grid side, edge lists, point coordinates) with
numpy and scipy. scipy is imported inside the functions, so loading this
module before the work imports nothing the program has not already
imported, and the program's own import time is measured untouched.
"""

from __future__ import annotations

import numpy as np


def mean_std(xs):
    """Sample mean and standard deviation (n - 1 in the denominator)."""
    a = np.asarray(xs, dtype=float)
    return float(a.mean()), float(a.std(ddof=1))


def _grid_arcs(side):
    """Directed arcs of the side x side grid, row-major ids, both ways."""
    idx = np.arange(side * side).reshape(side, side)
    u = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    v = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    return np.concatenate([u, v]), np.concatenate([v, u])


def grid_fpp_times(side, beta, L, replicates, seed):
    """Finish times of SI spread with homogeneous external rate on a grid,
    sampled as first-passage percolation.

    With state-oblivious external rates, SI spread from node 0 infects v
    at T(v) = min(X_v, min_u T(u) + E_uv), X_v ~ Exp(L/m) per node and
    E_uv ~ Exp(beta) per directed arc: one Dijkstra from a virtual source
    joined to node 0 at weight 0 and to every other node at weight X_v.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    m = side * side
    src, dst = _grid_arcs(side)
    arcs = src.size
    src = np.concatenate([src, np.full(m, m)])
    dst = np.concatenate([dst, np.arange(m)])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    indptr = np.searchsorted(src, np.arange(m + 2))
    is_arc = order < arcs  # the source's arcs sort last, node 0's first
    gen = np.random.default_rng(list(seed))
    out = []
    for _ in range(replicates):
        data = np.where(
            is_arc,
            gen.exponential(1.0 / beta, src.size),
            gen.exponential(m / L, src.size),
        )
        data[indptr[m]] = 0.0  # virtual source -> node 0
        dist = dijkstra(csr_matrix((data, dst, indptr), shape=(m + 1, m + 1)), indices=m)
        out.append(float(dist[:m].max()))
    return out


def exact_finish_mean(n, edges, external, beta=1.0, seed_node=0):
    """Exact expected time until all n nodes are infected, from seed_node.

    First-step analysis over the infected subsets: from subset A the next
    infection hits healthy v at rate beta * |N(v) & A| + external[v], so
    E[A] = (1 + sum_v r_v E[A + v]) / sum_v r_v, solved from the full set
    down (subsets only grow).
    """
    nbr = [0] * n
    for u, v in edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    full = (1 << n) - 1
    expect = {full: 0.0}
    for mask in sorted(range(full), key=lambda x: -bin(x).count("1")):
        if not mask >> seed_node & 1:
            continue
        total = 0.0
        acc = 1.0
        for v in range(n):
            if mask >> v & 1:
                continue
            r = beta * bin(nbr[v] & mask).count("1") + external[v]
            if r > 0:
                total += r
                acc += r * expect[mask | 1 << v]
        expect[mask] = acc / total
    return expect[1 << seed_node]


def rgg_pairs(coords, radius):
    """Unordered point pairs within ``radius``, from a k-d tree."""
    from scipy.spatial import cKDTree

    pairs = cKDTree(np.asarray(coords, dtype=float)).query_pairs(radius)
    return {(min(i, j), max(i, j)) for i, j in pairs}


def piece_diameter(adjacency, piece):
    """Hop diameter of the subgraph induced by ``piece``; None if it is
    disconnected."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    local = {v: i for i, v in enumerate(piece)}
    rows, cols = [], []
    for v in piece:
        for w in adjacency[v]:
            if w in local:
                rows.append(local[v])
                cols.append(local[w])
    k = len(piece)
    m = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(k, k))
    dist = shortest_path(m, directed=False, unweighted=True)
    if not np.isfinite(dist).all():
        return None
    return int(dist.max())

