"""Reference answers written independently of the compiler under test.

Shortest-path distances come from ``scipy.sparse.csgraph.dijkstra``; widest
paths, k-core and set cover use the small implementations below.  Nothing
here calls the library's algorithms, runtimes or scalar oracle: the only
library object used is the graph's CSR arrays.
"""

from __future__ import annotations

import heapq

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

#: The library's "unreached" distance (int64 max) and widest-path source width.
INT_MAX = np.iinfo(np.int64).max
SOURCE_WIDTH = 2**40


def to_scipy(indptr, indices, weights) -> csr_matrix:
    n = len(indptr) - 1
    return csr_matrix(
        (np.asarray(weights, dtype=np.float64), np.asarray(indices), np.asarray(indptr)),
        shape=(n, n),
    )


def distances(matrix: csr_matrix, sources) -> np.ndarray:
    """Exact integer distances (``INT_MAX`` where unreachable), one row per source."""
    raw = np.atleast_2d(dijkstra(matrix, directed=True, indices=list(sources)))
    out = np.full(raw.shape, INT_MAX, dtype=np.int64)
    reached = np.isfinite(raw)
    out[reached] = raw[reached].astype(np.int64)
    return out


def widest(indptr, indices, weights, source: int) -> np.ndarray:
    """Max-min (bottleneck) path widths by a max-heap Dijkstra."""
    indptr = np.asarray(indptr).tolist()
    indices = np.asarray(indices).tolist()
    weights = np.asarray(weights).tolist()
    width = [0] * (len(indptr) - 1)
    width[source] = SOURCE_WIDTH
    heap = [(-SOURCE_WIDTH, source)]
    while heap:
        negative, v = heapq.heappop(heap)
        w_v = -negative
        if w_v != width[v]:
            continue
        for slot in range(indptr[v], indptr[v + 1]):
            u = indices[slot]
            candidate = min(w_v, weights[slot])
            if candidate > width[u]:
                width[u] = candidate
                heapq.heappush(heap, (-candidate, u))
    return np.asarray(width, dtype=np.int64)


def widest_many(indptr, indices, weights, sources) -> np.ndarray:
    """Max-min path widths from several sources at once, one row each.

    A label-correcting fixpoint over whole-edge sweeps (every row relaxes
    every edge until nothing changes); used where many sources need checking
    and a per-source heap walk in Python would be too slow.
    """
    indptr = np.asarray(indptr)
    indices = np.asarray(indices)
    weights = np.asarray(weights, dtype=np.int64)
    n = indptr.size - 1
    rows = np.arange(len(sources))
    width = np.zeros((len(sources), n), dtype=np.int64)
    width[rows, list(sources)] = SOURCE_WIDTH
    if indices.size == 0:
        return width
    tails = np.repeat(np.arange(n), np.diff(indptr))
    order = np.argsort(indices, kind="stable")
    heads, tails, weights = indices[order], tails[order], weights[order]
    starts = np.flatnonzero(np.r_[True, heads[1:] != heads[:-1]])
    targets = heads[starts]
    while True:
        best = np.maximum.reduceat(np.minimum(width[:, tails], weights), starts, axis=1)
        improved = best > width[:, targets]
        if not improved.any():
            return width
        width[:, targets] = np.maximum(width[:, targets], best)


def coreness(indptr, indices) -> np.ndarray:
    """k-core number of every vertex by bucketed peeling (Batagelj-Zaversnik)."""
    indptr = np.asarray(indptr)
    degree = np.diff(indptr).astype(np.int64)
    n = degree.size
    adjacency = np.asarray(indices).tolist()
    starts = indptr.tolist()
    deg = degree.tolist()
    max_degree = max(deg, default=0)
    buckets = [0] * (max_degree + 2)
    for d in deg:
        buckets[d] += 1
    start = 0
    for d in range(max_degree + 1):
        buckets[d], start = start, start + buckets[d]
    position = [0] * n
    order = [0] * n
    for v in range(n):
        position[v] = buckets[deg[v]]
        order[position[v]] = v
        buckets[deg[v]] += 1
    for d in range(max_degree, 0, -1):
        buckets[d] = buckets[d - 1]
    buckets[0] = 0
    for i in range(n):
        v = order[i]
        for slot in range(starts[v], starts[v + 1]):
            u = adjacency[slot]
            if deg[u] > deg[v]:
                du = deg[u]
                pu = position[u]
                pw = buckets[du]
                w = order[pw]
                if u != w:
                    order[pu], order[pw] = w, u
                    position[u], position[w] = pw, pu
                buckets[du] += 1
                deg[u] -= 1
    return np.asarray(deg, dtype=np.int64)


def is_cover(indptr, indices, cover) -> bool:
    """Whether the closed neighbourhoods of ``cover`` cover every vertex."""
    indptr = np.asarray(indptr)
    indices = np.asarray(indices)
    n = indptr.size - 1
    cover = np.asarray(cover, dtype=np.int64)
    if cover.size and (cover.min() < 0 or cover.max() >= n):
        return False
    covered = np.zeros(n, dtype=bool)
    covered[cover] = True
    counts = np.diff(indptr)[cover]
    if counts.size:
        starts = indptr[cover]
        slots = np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(
            int(counts.sum())
        )
        covered[indices[slots]] = True
    return bool(covered.all())


def same(answer, reference) -> bool:
    answer = np.asarray(answer)
    reference = np.asarray(reference)
    return answer.shape == reference.shape and bool(np.array_equal(answer, reference))
