"""Graph indexes: k-NN graph, exact alpha-SNG, Vamana, and greedy search.

The greedy searcher keeps a bounded best-list of beam width b >= k and a
visited set; expanding the closest unexpanded list entry until the list
stabilizes is equivalent to rescanning every queue member's neighborhood
each round, but does each node's neighborhood exactly once.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from annkit.core import (
    Collection,
    DistanceKind,
    TopKResult,
    _smallest,
    pairwise_scores,
    score_rows,
    top_k_from_scores,
)

__all__ = [
    "NeighborGraph",
    "SearchTrace",
    "build_knn_graph",
    "greedy_search",
    "robust_prune",
    "build_alpha_sng_exact",
    "build_vamana",
    "connectivity_check",
    "medoid",
    "alpha_shortcut_violations",
]


@dataclass
class NeighborGraph:
    adjacency: list  # per-id sorted int64 arrays of out-neighbors
    directed: bool
    entry: int
    kind: DistanceKind = DistanceKind.L2_SQUARED
    alpha: Optional[float] = None
    degree_cap: Optional[int] = None
    construction: str = ""

    def __len__(self) -> int:
        return len(self.adjacency)

    def out_degree(self) -> np.ndarray:
        return np.array([a.size for a in self.adjacency], dtype=np.int64)


@dataclass
class SearchTrace:
    visited: int = 0  # distance evaluations
    hops: int = 0  # expanded nodes
    best_history: list = field(default_factory=list)


def medoid(X: Collection) -> int:
    """Default entry point: the data point closest (in L2) to the collection mean."""
    center = X.vectors.astype(np.float64).mean(axis=0)
    return int(top_k_from_scores(pairwise_scores(X, center, DistanceKind.L2_SQUARED), 1).ids[0])


def build_knn_graph(X: Collection, k: int, kind: DistanceKind = DistanceKind.L2_SQUARED) -> NeighborGraph:
    """Each node points at its k closest other nodes (brute force)."""
    m = len(X)
    if not 1 <= k < m:
        raise ValueError("need 1 <= k < m")
    adjacency = []
    for i in range(m):
        scores = score_rows(X, np.arange(m), X.vectors[i].astype(np.float64), kind)
        scores[i] = np.inf  # no self-loops
        adjacency.append(np.sort(top_k_from_scores(scores, k).ids))
    return NeighborGraph(adjacency=adjacency, directed=True, entry=medoid(X),
                         kind=kind, construction="knn")


def greedy_search(
    G: NeighborGraph,
    X: Collection,
    q: np.ndarray,
    k: int,
    entry: Optional[int] = None,
    beam: Optional[int] = None,
) -> tuple[TopKResult, SearchTrace]:
    """Best-first graph traversal returning the best k of the visited nodes.

    The beam is a Python list of ``(score, id)`` pairs kept sorted; every
    entry before position ``i`` is expanded, so the next node to expand is
    found by scanning on from ``i``.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    b = max(beam or k, k)
    start = G.entry if entry is None else entry
    if not 0 <= start < len(G):
        raise ValueError("entry must be a valid node id")
    q64 = np.asarray(q, dtype=np.float64)
    adjacency, kind = G.adjacency, G.kind
    trace = SearchTrace()
    history = trace.best_history

    start_score = float(score_rows(X, np.array([start]), q64, kind)[0])
    beam_list: list[tuple[float, int]] = [(start_score, start)]
    visited, expanded = 1, set()
    unscored = np.ones(len(G), dtype=bool)
    unscored[start] = False

    i = 0
    while i < len(beam_list):
        u = beam_list[i][1]
        if u in expanded:
            i += 1
            continue
        expanded.add(u)
        adj = adjacency[u]
        nbrs = adj[unscored[adj]]
        if nbrs.size:
            visited += nbrs.size
            unscored[nbrs] = False
            scores = score_rows(X, nbrs, q64, kind).tolist()
            beam_list += zip(scores, nbrs.tolist())
            beam_list.sort()
            del beam_list[b:]
            # no new entry sorts before the first entry scoring min(scores)
            i = min(i, bisect_left(beam_list, (min(scores),)))
        history.append(beam_list[0][0])

    trace.visited, trace.hops = visited, len(expanded)
    top = beam_list[: min(k, len(beam_list))]
    result = TopKResult(
        ids=np.array([u for _, u in top], dtype=np.int64),
        scores=np.array([s for s, _ in top]),
        k=k,
    )
    return result, trace


_U64 = 2.0 ** -53  # unit roundoff of float64
# pairs of the cover masks worked out at a time, as rows of every column:
# one block holds every row of a Vamana prune (tens of candidates), and an
# exact-SNG prune, which keeps a few of thousands of candidates, works out
# few rows that it never visits
_COVER_PAIRS = 4096
# lo_w = r_w (1 - 20u) - e_w and hi_w = r_w (1 + 20u) + e_w, in one broadcast
_THRESHOLD_SCALE = np.array([[1.0 - 20 * _U64], [1.0 + 20 * _U64]])
_THRESHOLD_SIGN = np.array([[-1.0], [1.0]])


def _cover_thresholds(cmat: np.ndarray, d_u: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Squared row norms ``n`` of ``cmat`` and the per-column thresholds
    ``[lo, hi]`` for the Gram test of :func:`_cover_rows`.

    Candidate v covers w when ``d_u[w] > fl(alpha * fl(sqrt(S_vw)))``,
    where ``S_vw`` is the squared distance as one diff-einsum pass computes
    it (``einsum`` of ``fl(c_v - c_w)`` squared). The Gram value is
    ``s_vw = (n_v + n_w) - 2 G_vw``, ``G = C C^T`` summed by one matmul in
    any order.

    The rows are float32 values, so every product of two entries is exact
    in float64 and nothing underflows. With ``N = n_v + n_w``,
    ``gamma_k = k u / (1 - k u)`` (Higham, §3.1) and ``u = 2^-53``:
    ``n_v`` and ``G_vw`` are within ``gamma_{d-1} n_v`` and
    ``gamma_{d-1} N / 2`` of their real values, forming ``s_vw`` adds at
    most ``3u N``, and ``S_vw`` is within ``gamma_{d+2} |c_v - c_w|^2 <=
    2 gamma_{d+2} N`` of the real squared distance. So ``|s_vw - S_vw| <=
    5.1 gamma_{d+2} N``, and ``e_w = 8 gamma_{d+2} (max n + n_w)`` covers
    it, with room for the roundings of the tests.

    Correctly rounded ``sqrt`` and the product with ``alpha`` put the
    threshold within a factor ``(1 +- u)^2`` of ``alpha sqrt(S_vw)``. With
    ``r_w = fl(fl(d_u[w] / alpha)^2)``, within ``(1 +- 3.01u)`` of the real
    square, ``s_vw < lo_w = r_w (1 - 20u) - e_w`` means that v covers w,
    and ``s_vw >= hi_w = r_w (1 + 20u) + e_w`` that it does not.
    """
    d = cmat.shape[1]
    nu = (d + 2) * _U64
    n = np.einsum("ij,ij->i", cmat, cmat)
    e = n + n.max()
    e *= 8.0 * nu / (1.0 - nu)
    r = d_u / alpha
    r *= r
    return n, _THRESHOLD_SCALE * r + _THRESHOLD_SIGN * e


def _cover_rows(rows: list, cmat: np.ndarray, cmat_t: np.ndarray, n: np.ndarray,
                thresholds: np.ndarray) -> bytes:
    """Masks ``[covers, maybe]`` of the rows ``rows`` against every column,
    packed little-endian row by row: v covers w for sure where
    ``s_vw < lo_w``, and may cover it where ``s_vw < hi_w``.
    ``cmat_t`` is a contiguous copy of ``cmat.T``, so that the product is
    a plain matmul."""
    rows = np.array(rows)
    gram = cmat[rows] @ cmat_t
    s = n[rows, None] + n
    gram *= 2.0
    s -= gram
    return np.packbits(s < thresholds[:, None, :], axis=2, bitorder="little").tobytes()


def robust_prune(
    u: int,
    candidates: np.ndarray,
    alpha: float,
    cap: int,
    X: Collection,
) -> np.ndarray:
    """Keep the nearest candidate, discard everything it covers at factor
    alpha, repeat until the cap is hit or nothing is left.

    The alpha comparison multiplies true (unsquared) L2 distances; squared
    values would silently rescale alpha. Candidate v covers w when
    ``d(u, w) > alpha * d(v, w)``, with ``d(v, w)`` as one diff-einsum pass
    computes it. A Gram block settles almost every pair
    (:func:`_cover_thresholds`); only the pairs it leaves open are computed
    by the diff-einsum itself, so the kept set is the row-by-row prune's,
    bit for bit. The keep loop holds the candidates still in the running
    and each row of the cover masks as ints, bit w for candidate w, and
    works out the rows it reaches in blocks of the next alive candidates.
    """
    if alpha < 1.0:
        raise ValueError("alpha must be at least 1")
    # np.unique would hash the ids first: 11 us more on a Vamana prune's ~36
    # ids, 95 us more on the exact alpha-SNG's 999
    cand = np.sort(np.asarray(candidates, dtype=np.int64))
    fresh = cand != u
    fresh[1:] &= cand[1:] != cand[:-1]
    cand = cand[fresh]
    if cand.size == 0:
        return cand
    u64 = X.vectors[u].astype(np.float64)
    d_u = np.sqrt(score_rows(X, cand, u64, DistanceKind.L2_SQUARED))
    order = _smallest(d_u, cand.size, cand)  # the keep loop goes in (distance, id) order
    cand, d_u = cand[order], d_u[order]
    cmat = X.vectors[cand].astype(np.float64)
    sq_norms, thresholds = _cover_thresholds(cmat, d_u, alpha)
    cmat_t = cmat.T.copy()
    width = (cand.size + 7) // 8  # bytes per packed row
    rows = max(8, _COVER_PAIRS // cand.size)  # per block
    block: list[int] = []  # the candidates whose mask rows are in ``packed``, ascending
    kept: list[int] = []
    alive = (1 << cand.size) - 1
    while alive:
        v = (alive & -alive).bit_length() - 1
        kept.append(v)
        if len(kept) >= cap:
            break
        # v was alive when the block was made, so it is in the block unless
        # it lies past it; then the next block starts at v and holds the next
        # ``rows`` alive candidates, or every row from v on if they fit
        if not block or v > block[-1]:
            block = list(range(v, cand.size)) if cand.size - v <= rows else _low_bits(alive, rows)
            packed = _cover_rows(block, cmat, cmat_t, sq_norms, thresholds)
        j, size = bisect_left(block, v), len(block)
        covers_row = packed[j * width:(j + 1) * width]
        maybe_row = packed[(size + j) * width:(size + j + 1) * width]
        covers = int.from_bytes(covers_row, "little")
        alive &= ~(covers | 1 << v)
        if maybe_row == covers_row:
            continue
        unsure = int.from_bytes(maybe_row, "little") & ~covers & alive  # left open by the bounds: rare
        if unsure:
            ws = np.array(_low_bits(unsure, cand.size))
            diff = cmat[ws] - cmat[v]
            d_v = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            for w in ws[d_u[ws] > alpha * d_v].tolist():
                alive &= ~(1 << w)
    return np.sort(cand[kept])


def _low_bits(mask: int, count: int) -> list:
    """Positions of the lowest ``count`` set bits of ``mask``, ascending."""
    out = []
    while mask and len(out) < count:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def build_alpha_sng_exact(X: Collection, alpha: float) -> NeighborGraph:
    """Exact alpha-shortcut neighborhood graph by the full O(m^3) prune."""
    if alpha < 1.0:
        raise ValueError("alpha must be at least 1")
    m = len(X)
    adjacency = []
    all_ids = np.arange(m, dtype=np.int64)
    for u in range(m):
        cand = all_ids[all_ids != u]
        adjacency.append(robust_prune(u, cand, alpha, cap=m, X=X))
    return NeighborGraph(adjacency=adjacency, directed=True, entry=medoid(X),
                         kind=DistanceKind.L2_SQUARED, alpha=alpha, construction="sng")


def alpha_shortcut_violations(G: NeighborGraph, X: Collection, alpha: float) -> int:
    """Count (u, w) pairs with no edge and no covering neighbor; 0 on a
    valid alpha-SNG (exhaustive triple loop, desk scale only)."""
    m = len(X)
    mat = X.vectors.astype(np.float64)
    # same per-row arithmetic as robust_prune so boundary cases agree bitwise
    all_ids = np.arange(m, dtype=np.int64)
    dist = np.stack([np.sqrt(score_rows(X, all_ids, mat[u], DistanceKind.L2_SQUARED))
                     for u in range(m)])
    violations = 0
    for u in range(m):
        nbrs = G.adjacency[u]
        edge_mask = np.zeros(m, dtype=bool)
        edge_mask[nbrs] = True
        for w in range(m):
            if w == u or edge_mask[w]:
                continue
            if not np.any(dist[u, w] >= alpha * dist[w, nbrs]):
                violations += 1
    return violations


def build_vamana(
    X: Collection,
    alpha: float,
    cap: int,
    beam: int,
    seed: int,
    kind: DistanceKind = DistanceKind.L2_SQUARED,
    passes: int = 2,
) -> NeighborGraph:
    """Practical alpha-SNG approximation: start from a random regular graph,
    then for each node (in random order) re-link it from a greedy search of
    the current snapshot, and add reverse edges with re-pruning whenever a
    target's degree would exceed the cap.

    While building, out-neighbors live in one fixed-width table plus a
    degree vector, and the graph's rows are views of it. A row's order
    never matters (the search sorts its beam by ``(score, id)``, the prune
    takes the unique candidates), so rows are sorted once, at the end.
    """
    m = len(X)
    if not 1 <= cap < m:
        raise ValueError("need 1 <= cap < m")
    rng = np.random.default_rng(seed)
    # reverse edges accumulate a little past the cap before re-pruning;
    # a final sweep restores the cap everywhere
    slack = cap + max(8, cap // 2)
    table = np.full((m, slack + 1), -1, dtype=np.int64)  # -1 past each row's degree
    deg = np.full(m, cap, dtype=np.int64)
    for u in range(m):
        choices = rng.permutation(m - 1)[:cap]
        table[u, :cap] = np.where(choices >= u, choices + 1, choices)  # skip self
    rows = [table[u, :cap] for u in range(m)]
    G = NeighborGraph(adjacency=rows, directed=True, entry=medoid(X), kind=kind,
                      alpha=alpha, degree_cap=cap, construction="vamana")

    def relink(u: int, candidates: np.ndarray) -> np.ndarray:
        kept = robust_prune(u, candidates, alpha, cap, X)
        table[u, :kept.size] = kept
        table[u, kept.size:deg[u]] = -1
        deg[u] = kept.size
        rows[u] = table[u, :kept.size]
        return kept

    for _ in range(passes):
        for u in rng.permutation(m).tolist():
            result, _ = greedy_search(G, X, X.vectors[u], k=beam, beam=beam)
            kept = relink(u, np.concatenate((result.ids, rows[u])))
            # reverse edges: each target row changes on its own
            targets = kept[~(table[kept] == u).any(axis=1)]
            table[targets, deg[targets]] = u
            deg[targets] += 1
            for v, size in zip(targets.tolist(), deg[targets].tolist()):
                if size > slack:
                    relink(v, table[v, :size])
                else:
                    rows[v] = table[v, :size]
    for u in range(m):
        if deg[u] > cap:
            relink(u, rows[u])
    G.adjacency = [np.sort(row) for row in rows]
    return G


def connectivity_check(G: NeighborGraph) -> tuple[float, int]:
    """BFS from the entry node: (reachable fraction, unreachable count)."""
    m = len(G)
    seen = np.zeros(m, dtype=bool)
    queue = [G.entry]
    seen[G.entry] = True
    while queue:
        u = queue.pop()
        for v in G.adjacency[u].tolist():
            if not seen[v]:
                seen[v] = True
                queue.append(v)
    reachable = int(seen.sum())
    return reachable / m, m - reachable
