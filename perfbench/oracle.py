"""Reference answers and answer checks made with numpy alone.

Nothing here imports annkit: the benchmark judges annkit's answers against
these computations. Scores follow the annkit contract: float32 storage
accumulated in float64, squared L2 or negated inner product, smaller is
better, ties broken by id. Exact distances are computed the way the
contract states them (a float64 difference, then a row-wise einsum), so an
exact family's scores can be compared bit for bit.
"""

from __future__ import annotations

import numpy as np

L2 = "l2"
IP = "ip"

# Candidates per query kept by the float32 GEMM screen in exact_topk.
_SCREEN = 64
# Queries per GEMM block: small enough that the screen's (block, m)
# arrays stay well below the memory of the indexes being measured.
_BLOCK = 32
# Bound on |screen score - exact score| relative to the score scale. A
# float32 d-term dot product errs by at most about d * 6e-8 of |x| |q|, so
# this holds with a wide margin up to d = 256.
_SCREEN_TOL = 1e-4


def exact_scores(X32: np.ndarray, ids: np.ndarray, q, kind: str) -> np.ndarray:
    """Exact float64 scores of rows ``ids`` of ``X32`` against ``q``."""
    mat = np.asarray(X32, dtype=np.float32)[np.asarray(ids, dtype=np.int64)].astype(np.float64)
    q64 = np.asarray(q, dtype=np.float32).astype(np.float64)
    if kind == L2:
        diff = mat - q64
        return np.einsum("ij,ij->i", diff, diff)
    if kind == IP:
        return -np.einsum("ij,j->i", mat, q64)
    raise ValueError(f"unknown score kind {kind!r}")


def topk_of(ids: np.ndarray, scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k best (score, id) pairs of a candidate set, in order."""
    ids = np.asarray(ids, dtype=np.int64)
    order = np.lexsort((ids, scores))[:k]
    return ids[order], scores[order]


def exact_topk(X32: np.ndarray, Q32: np.ndarray, k: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k of every query: ``(ids, scores)``, each ``(n, k)``.

    A float32 GEMM screens ``_SCREEN`` candidates per query, which are
    then rescored exactly (the einsum gives each row the same bits whether
    rows are scored alone or batched). A query's screen is accepted only
    when its widest screen score, less the error bound, still exceeds the
    exact k-th score, so no point outside it can enter or tie the top k;
    otherwise that query is scored exactly against every row.
    """
    X32 = np.ascontiguousarray(X32, dtype=np.float32)
    Q32 = np.ascontiguousarray(Q32, dtype=np.float32)
    m = X32.shape[0]
    if k > m:
        raise ValueError("k exceeds the collection size")
    width = min(_SCREEN, m)
    X64 = X32.astype(np.float64)
    x_norms = np.einsum("ij,ij->i", X64, X64)
    x_norms32 = x_norms.astype(np.float32)
    out_ids = np.empty((Q32.shape[0], k), dtype=np.int64)
    out_scores = np.empty((Q32.shape[0], k), dtype=np.float64)
    all_ids = np.arange(m, dtype=np.int64)
    for start in range(0, Q32.shape[0], _BLOCK):
        block = Q32[start:start + _BLOCK]
        b64 = block.astype(np.float64)
        q_norms = np.einsum("ij,ij->i", b64, b64)
        gemm = block @ X32.T
        if kind == L2:
            screen = x_norms32[None, :] - 2.0 * gemm + q_norms.astype(np.float32)[:, None]
            scale = x_norms.max() + q_norms
        else:
            screen = -gemm
            scale = np.sqrt(x_norms.max() * q_norms)
        cand = np.argpartition(screen, width - 1, axis=1)[:, :width]
        rows = X64[cand]
        if kind == L2:
            diff = rows - b64[:, None, :]
            scores = np.einsum("bij,bij->bi", diff, diff)
        elif kind == IP:
            scores = -np.einsum("bij,bj->bi", rows, b64)
        else:
            raise ValueError(f"unknown score kind {kind!r}")
        order = np.lexsort((cand, scores), axis=1)[:, :k]
        ids = np.take_along_axis(cand, order, axis=1)
        best = np.take_along_axis(scores, order, axis=1)
        edge = np.take_along_axis(screen, cand, axis=1).max(axis=1).astype(np.float64)
        unsure = ~(edge - _SCREEN_TOL * scale > best[:, -1]) if width < m else np.zeros(len(block), bool)
        for row in np.flatnonzero(unsure):
            ids[row], best[row] = topk_of(all_ids, exact_scores(X32, all_ids, block[row], kind), k)
        out_ids[start:start + len(block)] = ids
        out_scores[start:start + len(block)] = best
    return out_ids, out_scores


def recall_at(truth_ids: np.ndarray, ids: np.ndarray, k: int) -> float:
    """Share of the true top-k found among the returned ids."""
    return np.intersect1d(truth_ids[:k], ids).size / k


def check_exact(ids, scores, truth_ids, X32, q, kind: str) -> bool:
    """An exact family returns the reference ids in (score, id) order and
    scores bit-identical to numpy's exact distances for those ids."""
    ids = np.asarray(ids, dtype=np.int64)
    if not np.array_equal(ids, truth_ids):
        return False
    return np.array_equal(np.asarray(scores, dtype=np.float64), exact_scores(X32, ids, q, kind))


def check_rescored(ids, scores, X32, q, k: int, kind: str) -> bool:
    """A rescoring family returns at most k unique in-range ids in
    (score, id) order, each score bit-identical to its exact distance."""
    ids = np.asarray(ids)
    scores = np.asarray(scores, dtype=np.float64)
    m = X32.shape[0]
    if ids.ndim != 1 or ids.shape != scores.shape or not 1 <= ids.size <= k:
        return False
    if not np.issubdtype(ids.dtype, np.integer) or ids.min() < 0 or ids.max() >= m:
        return False
    if np.unique(ids).size != ids.size:
        return False
    if not np.array_equal(scores, exact_scores(X32, ids, q, kind)):
        return False
    order = np.lexsort((ids, scores))
    return bool(np.array_equal(order, np.arange(ids.size)))


def check_candidate_topk(ids, scores, candidates, X32, q, k: int, kind: str) -> bool:
    """The answer is exactly the reference top-k of the candidate set that
    the benchmark rebuilt from the index's public fields."""
    if not check_rescored(ids, scores, X32, q, k, kind):
        return False
    cand = np.unique(np.asarray(candidates, dtype=np.int64))
    want_ids, want_scores = topk_of(cand, exact_scores(X32, cand, q, kind), k)
    return bool(np.array_equal(np.asarray(ids), want_ids)
                and np.array_equal(np.asarray(scores, dtype=np.float64), want_scores))


def route_ivf(centroids32: np.ndarray, lists, q, ell: int, kind: str) -> np.ndarray:
    """Member ids of the ``ell`` clusters closest to q, rebuilt from the
    centroids and inverted lists alone."""
    c_ids = np.arange(centroids32.shape[0], dtype=np.int64)
    routed, _ = topk_of(c_ids, exact_scores(centroids32, c_ids, q, kind), ell)
    return np.concatenate([np.asarray(lists[int(c)], dtype=np.int64) for c in routed])


def route_rp_leaf(root, q) -> np.ndarray:
    """Ids of the leaf q descends to, read from the tree's nodes: left when
    the projection is at most the threshold."""
    node = root
    q64 = np.asarray(q, dtype=np.float32).astype(np.float64)
    while node.ids is None:
        node = node.left if q64 @ node.direction <= node.threshold else node.right
    return np.asarray(node.ids, dtype=np.int64)


def check_graph(adjacency, cap: int) -> bool:
    """Every node has at most ``cap`` unique in-range out-neighbours and no
    self-loop."""
    m = len(adjacency)
    for u, nbrs in enumerate(adjacency):
        nbrs = np.asarray(nbrs)
        if nbrs.size > cap or np.unique(nbrs).size != nbrs.size:
            return False
        if nbrs.size and (nbrs.min() < 0 or nbrs.max() >= m or np.any(nbrs == u)):
            return False
    return True


def parse_query_csv(text: str, n_queries: int, k: int, m: int):
    """Parse ``annkit query`` output into ``(ids, scores)`` per query.

    Returns one entry per query: the arrays when that query's block holds
    exactly k rows ranked 0..k-1 with unique in-range ids and
    non-decreasing scores, else None.
    """
    lines = text.splitlines()
    per_query: list = [[] for _ in range(n_queries)]
    if not lines or lines[0] != "query_id,rank,id,score":
        return [None] * n_queries
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 4:
            return [None] * n_queries
        qi, rank, pid, score = int(parts[0]), int(parts[1]), int(parts[2]), float(parts[3])
        if not 0 <= qi < n_queries:
            return [None] * n_queries
        per_query[qi].append((rank, pid, score))
    out = []
    for rows in per_query:
        ranks = [r for r, _, _ in rows]
        ids = np.array([p for _, p, _ in rows], dtype=np.int64)
        scores = np.array([s for _, _, s in rows], dtype=np.float64)
        ok = (ranks == list(range(k)) and ids.size == k and np.unique(ids).size == k
              and ids.min() >= 0 and ids.max() < m and not np.any(np.diff(scores) < 0))
        out.append((ids, scores) if ok else None)
    return out
