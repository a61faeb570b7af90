"""Graph indexes: k-NN graph, exact alpha-SNG, Vamana, and greedy search.

The greedy searcher keeps a bounded best-list of beam width b >= k and a
visited set; expanding the closest unexpanded list entry until the list
stabilizes is equivalent to rescanning every queue member's neighborhood
each round, but does each node's neighborhood exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from annkit.core import Collection, DistanceKind, TopKResult, pairwise_scores, score_rows, top_k_from_scores

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
    """Best-first graph traversal returning the best k of the visited nodes."""
    if k < 1:
        raise ValueError("k must be at least 1")
    b = max(beam or k, k)
    start = G.entry if entry is None else entry
    if not 0 <= start < len(G):
        raise ValueError("entry must be a valid node id")
    q64 = np.asarray(q, dtype=np.float64)
    trace = SearchTrace()

    start_score = float(score_rows(X, np.array([start]), q64, G.kind)[0])
    trace.visited = 1
    beam_list: list[tuple[float, int]] = [(start_score, start)]
    expanded = np.zeros(len(G), dtype=bool)
    scored = np.zeros(len(G), dtype=bool)
    scored[start] = True

    while True:
        frontier = next(((s, u) for s, u in beam_list if not expanded[u]), None)
        if frontier is None:
            break
        _, u = frontier
        expanded[u] = True
        trace.hops += 1
        adj = G.adjacency[u]
        nbrs = adj[~scored[adj]]
        if nbrs.size:
            scores = score_rows(X, nbrs, q64, G.kind)
            trace.visited += nbrs.size
            scored[nbrs] = True
            beam_list.extend(zip(scores.tolist(), nbrs.tolist()))
            beam_list.sort()
            del beam_list[b:]
        trace.best_history.append(beam_list[0][0])

    top = beam_list[: min(k, len(beam_list))]
    result = TopKResult(
        ids=np.array([u for _, u in top], dtype=np.int64),
        scores=np.array([s for s, _ in top]),
        k=k,
    )
    return result, trace


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
    values would silently rescale alpha.
    """
    if alpha < 1.0:
        raise ValueError("alpha must be at least 1")
    cand = np.unique(np.asarray(candidates, dtype=np.int64))
    cand = cand[cand != u]
    if cand.size == 0:
        return cand
    u64 = X.vectors[u].astype(np.float64)
    d_u = np.sqrt(score_rows(X, cand, u64, DistanceKind.L2_SQUARED))
    order = np.lexsort((cand, d_u))
    cand, d_u = cand[order], d_u[order]
    cmat = X.vectors[cand].astype(np.float64)
    kept: list[int] = []
    alive = np.ones(cand.size, dtype=bool)
    pos = 0
    while pos < cand.size:
        if not alive[pos]:  # candidates are in (distance, id) order
            pos += 1
            continue
        kept.append(int(cand[pos]))
        if len(kept) >= cap:
            break
        diff = cmat - cmat[pos]
        d_v = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        alive[d_u > alpha * d_v] = False
        alive[pos] = False
        pos += 1
    return np.sort(np.array(kept, dtype=np.int64))


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
    target's degree would exceed the cap."""
    m = len(X)
    if not 1 <= cap < m:
        raise ValueError("need 1 <= cap < m")
    rng = np.random.default_rng(seed)
    adjacency = []
    for u in range(m):
        choices = rng.permutation(m - 1)[:cap]
        choices = np.where(choices >= u, choices + 1, choices)  # skip self
        adjacency.append(np.sort(choices).astype(np.int64))
    start = medoid(X)
    G = NeighborGraph(adjacency=adjacency, directed=True, entry=start, kind=kind,
                      alpha=alpha, degree_cap=cap, construction="vamana")

    # reverse edges accumulate a little past the cap before re-pruning;
    # a final sweep restores the cap everywhere
    slack = cap + max(8, cap // 2)
    for _ in range(passes):
        for u in rng.permutation(m):
            u = int(u)
            result, _ = greedy_search(G, X, X.vectors[u], k=beam, beam=beam)
            candidates = np.union1d(result.ids, G.adjacency[u])
            G.adjacency[u] = robust_prune(u, candidates, alpha, cap, X)
            for v in G.adjacency[u].tolist():
                if u in G.adjacency[v]:
                    continue
                merged = np.append(G.adjacency[v], u)
                if merged.size > slack:
                    G.adjacency[v] = robust_prune(v, merged, alpha, cap, X)
                else:
                    G.adjacency[v] = np.sort(merged)
    for u in range(m):
        if G.adjacency[u].size > cap:
            G.adjacency[u] = robust_prune(u, G.adjacency[u], alpha, cap, X)
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
