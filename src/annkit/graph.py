"""Graph indexes: k-NN graph, exact alpha-SNG, Vamana, and greedy search.

The greedy searcher keeps a bounded best-list of beam width b >= k and a
visited set; expanding the closest unexpanded list entry until the list
stabilizes is equivalent to rescanning every queue member's neighborhood
each round, but does each node's neighborhood exactly once. The batch
searcher runs many such searches in lockstep over one adjacency table, with
every beam held in arrays, and the batch prune prunes many nodes at once;
Vamana construction uses both.
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
    "greedy_search_batch",
    "robust_prune",
    "robust_prune_batch",
    "build_alpha_sng_exact",
    "build_vamana",
    "connectivity_check",
    "medoid",
]


@dataclass
class NeighborGraph:
    offsets: np.ndarray  # int64 row bounds, m + 1 of them, from 0 to ids.size
    ids: np.ndarray  # int64 out-neighbors: node u's are ids[offsets[u]:offsets[u + 1]], ascending
    directed: bool
    entry: int
    kind: DistanceKind = DistanceKind.L2_SQUARED
    alpha: Optional[float] = None
    degree_cap: Optional[int] = None
    construction: str = ""

    def __len__(self) -> int:
        return self.offsets.size - 1

    def out_degree(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def adjacency(self) -> list:
        """The rows as read-only views of ``ids``, for callers that take a list of rows."""
        return np.split(np.lib.stride_tricks.as_strided(self.ids, writeable=False), self.offsets[1:-1])


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
    table = np.empty((m, k), dtype=np.int64)
    for i in range(m):
        scores = score_rows(X, np.arange(m), X.vectors[i].astype(np.float64), kind)
        scores[i] = np.inf  # no self-loops
        table[i] = top_k_from_scores(scores, k).ids
    table.sort(axis=1)
    return NeighborGraph(offsets=np.arange(m + 1, dtype=np.int64) * k, ids=table.reshape(-1), directed=True,
                         entry=medoid(X), kind=kind, construction="knn")


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
    found by scanning on from ``i``. Dense L2 hops are scored by
    :func:`_l2_rows` itself, without :func:`score_rows`' dispatch.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    b = max(beam or k, k)
    start = G.entry if entry is None else entry
    if not 0 <= start < len(G):
        raise ValueError("entry must be a valid node id")
    q64 = np.asarray(q, dtype=np.float64)
    offsets, ids, kind = G.offsets, G.ids, G.kind
    dense_l2 = kind is DistanceKind.L2_SQUARED and X.is_dense
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
        adj = ids[offsets.item(u):offsets.item(u + 1)]
        nbrs = adj[unscored[adj]]
        if nbrs.size:
            visited += nbrs.size
            unscored[nbrs] = False
            scores = (_l2_rows(X.vectors, nbrs, q64) if dense_l2 else score_rows(X, nbrs, q64, kind)).tolist()
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


# the seen masks of one block of a batch search hold at most this many bytes
_SEEN_BYTES = 1 << 22


def greedy_search_batch(
    table: np.ndarray,
    X: Collection,
    Q: np.ndarray,
    entries: np.ndarray,
    beam: int,
    kind: DistanceKind = DistanceKind.L2_SQUARED,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`greedy_search` for many queries at once, in lockstep.

    ``table`` is an ``(m, w)`` adjacency table: row u holds u's distinct
    out-neighbors, padded with -1. Query j starts from ``entries[j]``.
    Returns the ``(B, beam)`` ids and scores of the final beams, padded
    with -1 and +inf where a beam never filled. Row j equals the beam of
    ``greedy_search`` on ``Q[j]`` from the same entry at this beam width,
    in ids and score bits: a row's score depends only on its row and its
    query, and both beams are kept in ``(score, id)`` order.

    Every query expands the first unexpanded node of its beam in each
    round, and all of their state is arrays: the beams' ids, scores and
    open flags, and one seen mask per query. The queries are taken in
    blocks whose seen masks fit in ``_SEEN_BYTES``.
    """
    if beam < 1:
        raise ValueError("beam must be at least 1")
    Q64 = np.asarray(Q, dtype=np.float64)
    if Q64.ndim != 2:
        raise ValueError("Q must hold one query per row")
    m = table.shape[0]
    if table.ndim != 2 or (table.size and not (-1 <= table.min() <= table.max() < m)):
        raise ValueError("table rows must hold node ids in [0, m), padded with -1")
    entries = np.asarray(entries, dtype=np.int64)
    if entries.shape != (Q64.shape[0],) or (entries.size and not (0 <= entries.min() <= entries.max() < m)):
        raise ValueError("need one valid entry node id per query")
    ids = np.empty((Q64.shape[0], beam), dtype=np.int64)
    scores = np.empty((Q64.shape[0], beam))
    step = max(1, _SEEN_BYTES // (m + 1))
    for lo in range(0, Q64.shape[0], step):
        hi = lo + step
        ids[lo:hi], scores[lo:hi] = _search_block(table, X, Q64[lo:hi], entries[lo:hi], beam, kind)
    return ids, scores


def _l2_rows(vectors: np.ndarray, ids: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Squared L2 distances of the float32 rows ``vectors[ids]`` to ``Q``
    (one vector, or one per id), equal bit for bit to :func:`score_rows`':
    the rows are upcast first, which is exact, so each float64 difference
    is rounded once as in a mixed subtract, and one einsum reduces each row.
    """
    diff = vectors[ids].astype(np.float64)
    diff -= Q
    return np.einsum("ij,ij->i", diff, diff)


def _pair_scores(X: Collection, ids: np.ndarray, Q64: np.ndarray, rows: np.ndarray,
                 kind: DistanceKind) -> np.ndarray:
    """Scores of the query ``Q64[rows[i]]`` against the row ``ids[i]`` of
    ``X``, each equal bit for bit to :func:`score_rows`'."""
    if kind is DistanceKind.L2_SQUARED and X.is_dense:
        return _l2_rows(X.vectors, ids, Q64[rows])
    return np.array([score_rows(X, ids[i:i + 1], Q64[r], kind)[0] for i, r in enumerate(rows.tolist())])


def _search_block(table: np.ndarray, X: Collection, Q64: np.ndarray, entries: np.ndarray,
                  b: int, kind: DistanceKind) -> tuple[np.ndarray, np.ndarray]:
    n, (m, w) = Q64.shape[0], table.shape
    out_ids = np.empty((n, b), dtype=np.int64)
    out_scores = np.empty((n, b))
    # one seen row per query plus a last column that is always set: a -1
    # pad at flat index q (m + 1) - 1 reads the set column of the row before
    seen = np.zeros((n, m + 1), dtype=bool)
    seen[:, m] = True
    seen[np.arange(n), entries] = True
    seen = seen.reshape(-1)
    # per live query: its beam in the first b columns, kept in (score, id)
    # order, and the neighbors of the node it expands in the last w; empty
    # slots hold id m and a NaN score, which sorts after every score and
    # equals none
    ids = np.full((n, b + w), m, dtype=np.int64)
    scores = np.full((n, b + w), np.nan)
    is_open = np.zeros((n, b + w), dtype=bool)  # holds a node not yet expanded
    qid = np.arange(n)
    ids[:, 0], scores[:, 0], is_open[:, 0] = entries, _pair_scores(X, entries, Q64, qid, kind), True
    live = np.ones(n, dtype=bool)
    while True:
        if not live.all():  # finished queries leave the block
            done = ~live
            out_ids[qid[done]], out_scores[qid[done]] = ids[done, :b], scores[done, :b]
            qid, ids, scores, is_open = qid[live], ids[live], scores[live], is_open[live]
            if not qid.size:
                break
        rows = np.arange(qid.size)
        pos = is_open[:, :b].argmax(axis=1)
        is_open[rows, pos] = False
        nbr = table[ids[rows, pos]]
        flat = nbr + (qid * (m + 1))[:, None]
        fresh = ~seen[flat]
        seen[flat[fresh]] = True
        r, c = np.nonzero(fresh)
        c += b
        ids[:, b:], scores[:, b:], is_open[:, b:] = m, np.nan, fresh
        ids[r, c] = nbr[fresh]
        scores[r, c] = _pair_scores(X, ids[r, c], Q64, qid[r], kind)
        # the first b + 1 by score are the first b + 1 by (score, id) unless
        # two of them tie; rows with a tie are ordered by (score, id)
        order = np.argsort(scores, axis=1, kind="stable")[:, :b + 1]
        order += (rows * (b + w))[:, None]
        top = scores.reshape(-1)[order]
        tied = np.flatnonzero((top[:, 1:] == top[:, :-1]).any(axis=1))
        if tied.size:
            order[tied] = np.lexsort((ids[tied], scores[tied]), axis=1)[:, :b + 1] + (tied * (b + w))[:, None]
        order = order[:, :b]
        ids[:, :b], scores[:, :b], is_open[:, :b] = \
            ids.reshape(-1)[order], scores.reshape(-1)[order], is_open.reshape(-1)[order]
        live = is_open[:, :b].any(axis=1)
    empty = out_ids == m
    out_ids[empty], out_scores[empty] = -1, np.inf
    return out_ids, out_scores


_U64 = 2.0 ** -53  # unit roundoff of float64
# pairs of the cover masks worked out at a time, as rows of every column:
# one block holds every row of a Vamana prune (tens of candidates), and an
# exact-SNG prune, which keeps a few of thousands of candidates, works out
# few rows that it never visits
_COVER_PAIRS = 4096


def _cover_thresholds(cmat: np.ndarray, d_u: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Squared row norms ``n`` of ``cmat`` and the per-column thresholds
    ``[lo, hi]`` (a leading axis of 2) for the Gram test of
    :func:`_cover_rows`. Leading axes of ``cmat`` and ``d_u`` are a batch of
    independent prunes, zero rows padding a prune's candidates.

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
    d = cmat.shape[-1]
    nu = (d + 2) * _U64
    n = np.einsum("...ij,...ij->...i", cmat, cmat)
    e = n + n.max(axis=-1, keepdims=True)
    e *= 8.0 * nu / (1.0 - nu)
    r = d_u / alpha
    r *= r
    return n, np.stack((r * (1.0 - 20 * _U64) - e, r * (1.0 + 20 * _U64) + e))


def _covered(w_rows: np.ndarray, v_rows: np.ndarray, d_uw: np.ndarray, alpha: float) -> np.ndarray:
    """The exact test for the pairs the Gram bounds leave open: v covers w
    when ``d(u, w) > alpha * d(v, w)``, with ``d(v, w)`` from one
    diff-einsum pass over the float64 rows."""
    diff = w_rows - v_rows
    return d_uw > alpha * np.sqrt(np.einsum("ij,ij->i", diff, diff))


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
    if cap < 1:
        raise ValueError("cap must be at least 1")
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
            for w in ws[_covered(cmat[ws], cmat[v], d_u[ws], alpha)].tolist():
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


# a batch prune pads its nodes' candidates into (B, n_max, d) float64 blocks
# whose rows and Gram blocks, B n_max (d + n_max) 8 bytes, hold at most this
# many bytes (or one node); the node relinks of a Vamana batch fit in a few,
# the final sweep over thousands of nodes in many
_PRUNE_BYTES = 1 << 20


def robust_prune_batch(
    us: np.ndarray,
    candidate_lists: list,
    alpha: float,
    cap: int,
    X: Collection,
) -> list:
    """:func:`robust_prune` for many nodes at once: entry i equals
    ``robust_prune(us[i], candidate_lists[i], alpha, cap, X)`` bit for bit.

    The nodes are pruned independently. One sort of ``node * m + id`` keys
    takes the unique candidates of every list. The nodes, ordered by
    candidate count, are then taken in chunks whose padded
    ``(B, n_max, d)`` float64 candidate blocks and ``(B, n_max, n_max)``
    Gram blocks fit in ``_PRUNE_BYTES``.
    A chunk takes its Gram blocks with one stacked matmul and settles each
    pair with the certified thresholds of :func:`_cover_thresholds`. Its
    keep loop runs over all of its nodes at once, for at most ``cap``
    steps: each step keeps every node's first live candidate in
    ``(distance, id)`` order and clears what that candidate covers; only
    the pairs the bounds leave open are decided by :func:`_covered`.
    """
    if alpha < 1.0:
        raise ValueError("alpha must be at least 1")
    if cap < 1:
        raise ValueError("cap must be at least 1")
    us = np.asarray(us, dtype=np.int64)
    if us.ndim != 1 or len(candidate_lists) != us.size:
        raise ValueError("need one candidate list per node")
    if not us.size:
        return []
    lists = [np.asarray(c, dtype=np.int64).reshape(-1) for c in candidate_lists]
    m, d = len(X), X.vectors.shape[1]
    ids = np.concatenate(lists)
    if ids.size and not 0 <= ids.min() <= ids.max() < m:
        raise ValueError("candidate ids must lie in [0, m)")
    keys = np.repeat(np.arange(us.size), [c.size for c in lists]) * m + ids
    keys.sort()
    owner = keys // m
    ids = keys - owner * m
    fresh = ids != us[owner]
    fresh[1:] &= keys[1:] != keys[:-1]
    owner, ids = owner[fresh], ids[fresh]
    count = np.bincount(owner, minlength=us.size)
    first = np.cumsum(count) - count  # where each node's candidates start
    # every node's kept ids, ascending, padded with m
    out = np.full((us.size, min(cap, int(count.max(initial=0)))), m, dtype=np.int64)
    nodes = np.argsort(count, kind="stable")
    nodes = nodes[count[nodes] > 0]
    lo = 0
    while lo < nodes.size:
        # the chunk [lo, hi) pads to its last node's count n_max, and so
        # takes (hi - lo) n_max (d + n_max) 8 bytes
        n_max = count[nodes[lo:]]
        size = np.arange(1, n_max.size + 1) * n_max * (d + n_max) * 8
        hi = lo + max(1, int(np.searchsorted(size, _PRUNE_BYTES, side="right")))
        chunk = nodes[lo:hi]
        kept = _prune_chunk(us[chunk], ids, first[chunk], count[chunk], alpha, cap, X)
        out[chunk, :kept.shape[1]] = kept
        lo = hi
    valid = out < m
    return np.split(out[valid], np.cumsum(valid.sum(axis=1))[:-1])


def _prune_chunk(us: np.ndarray, ids: np.ndarray, first: np.ndarray, count: np.ndarray,
                 alpha: float, cap: int, X: Collection) -> np.ndarray:
    """The kept ids of the nodes ``us``, one ascending row each padded with
    m; node j's unique candidates are ``ids[first[j]:first[j] + count[j]]``."""
    (nb,), width, (m, d) = us.shape, int(count.max()), X.vectors.shape
    node = np.repeat(np.arange(nb), count)
    col = np.arange(node.size) - np.repeat(np.cumsum(count) - count, count)
    cand = np.full((nb, width), m, dtype=np.int64)  # each row's ids ascending, padded with m
    cand[node, col] = ids[np.repeat(first, count) + col]
    cmat = np.zeros((nb, width, d))
    cmat[node, col] = X.vectors[cand[node, col]]
    # d(u, w) by score_rows' diff-einsum, a float64 difference per row
    diff = (cmat - X.vectors[us].astype(np.float64)[:, None, :]).reshape(-1, d)
    d_u = np.sqrt(np.einsum("ij,ij->i", diff, diff)).reshape(nb, width)
    d_u[cand == m] = np.inf
    # each row in (distance, id) order, the order of the keep loop
    by = np.arange(nb)[:, None], np.argsort(d_u, axis=1, kind="stable")
    cand, cmat, d_u = cand[by], cmat[by], d_u[by]
    n, (lo, hi) = _cover_thresholds(cmat, d_u, alpha)
    s = n[:, :, None] + n[:, None, :]
    gram = cmat @ cmat.transpose(0, 2, 1)
    gram *= 2.0
    s -= gram
    spare = s >= lo[:, None, :]  # row v does not cover column w for sure
    spare[:, np.arange(width), np.arange(width)] = False  # nor may it stay alive once kept
    unsure = s < hi[:, None, :]  # where spared, the bounds leave the pair open
    kept = np.zeros((nb, width), dtype=bool)
    rows, alive = np.arange(nb), cand < m
    for step in range(min(cap, width)):
        v = alive.argmax(axis=1)
        kept[rows, v] = True
        if step + 1 == cap:
            break
        alive &= spare[rows, v]
        r, w = np.nonzero(unsure[rows, v] & alive)  # rare
        if r.size:
            b = rows[r]
            gone = _covered(cmat[b, w], cmat[b, v[r]], d_u[b, w], alpha)
            alive[r[gone], w[gone]] = False
        live = alive.any(axis=1)
        if not live.all():
            rows, alive = rows[live], alive[live]
            if not rows.size:
                break
    cand[~kept] = m
    cand.sort(axis=1)
    return cand[:, :min(cap, width)]


def build_alpha_sng_exact(X: Collection, alpha: float) -> NeighborGraph:
    """Exact alpha-shortcut neighborhood graph by the full O(m^3) prune."""
    if alpha < 1.0:
        raise ValueError("alpha must be at least 1")
    m = len(X)
    rows = [robust_prune(u, np.arange(m), alpha, cap=m, X=X) for u in range(m)]  # the prune drops u itself
    return NeighborGraph(offsets=np.cumsum([0] + [row.size for row in rows], dtype=np.int64),
                         ids=np.concatenate(rows), directed=True, entry=medoid(X),
                         kind=DistanceKind.L2_SQUARED, alpha=alpha, construction="sng")


def _random_start(rng: np.random.Generator, m: int, cap: int) -> np.ndarray:
    """An ``(m, cap)`` start graph: row u holds ``cap`` distinct ids drawn
    uniformly from the ids other than u, by Floyd's sampling run over all
    rows at once (``cap`` draws of ``m`` integers, no permutation per row)."""
    picks = np.empty((m, cap), dtype=np.int64)
    for c, top in enumerate(range(m - 1 - cap, m - 1)):
        t = rng.integers(0, top + 1, size=m)
        picks[:, c] = np.where((picks[:, :c] == t[:, None]).any(axis=1), top, t)
    picks += picks >= np.arange(m)[:, None]  # skip self
    return picks


# a Vamana pass inserts its nodes in batches of 1, 2, 4, ... nodes, at most
# this share of m (and at least one node) per batch
_BATCH_FRACTION = 0.02


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
    then re-link every node, in random order and in batches, from a greedy
    search of the graph, and add reverse edges with re-pruning whenever a
    target's degree would exceed the cap.

    Each pass walks its permutation in prefix-doubling batches (1, 2, 4, ...
    nodes, at most ``_BATCH_FRACTION`` of m). A batch is searched in
    lockstep (:func:`greedy_search_batch`) against the graph as it stands
    before the batch, and its nodes are pruned in one
    :func:`robust_prune_batch` call. The batch's reverse edges are then
    grouped per target: a target with room in its slack takes them all, and
    the targets that would overflow are re-pruned in one batch call, each
    over its row plus all of its new sources. A final batch call restores
    the cap on every row. Each call prunes distinct nodes from lists that
    read only their own rows, so it equals pruning them one by one. With
    one node per batch this is the node-by-node build.

    Out-neighbors live in one fixed-width table plus a degree vector. A
    row's order never matters (the search sorts its beam by ``(score,
    id)``, the prune takes the unique candidates), so rows are sorted once,
    at the end, in one sort of the whole table.
    """
    m = len(X)
    if not 1 <= cap < m:
        raise ValueError("need 1 <= cap < m")
    rng = np.random.default_rng(seed)
    entry = medoid(X)
    # reverse edges accumulate a little past the cap before re-pruning;
    # a final sweep restores the cap everywhere
    slack = cap + max(8, cap // 2)
    table = np.full((m, slack), -1, dtype=np.int64)  # -1 past each row's degree
    table[:, :cap] = _random_start(rng, m, cap)
    deg = np.full(m, cap, dtype=np.int64)
    largest = max(1, int(_BATCH_FRACTION * m))

    def relink(nodes: np.ndarray, candidate_lists: list) -> list:
        # distinct nodes, each re-linked from a list that reads only its own row
        kept = robust_prune_batch(nodes, candidate_lists, alpha, cap, X)
        sizes = np.array([k.size for k in kept], dtype=np.int64)
        table[nodes] = -1
        if sizes.sum():
            rows = np.repeat(nodes, sizes)
            table[rows, np.arange(rows.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)] = np.concatenate(kept)
        deg[nodes] = sizes
        return kept

    for _ in range(passes):
        order, start, size = rng.permutation(m), 0, 1
        while start < m:
            batch = order[start:start + size]
            start, size = start + batch.size, min(2 * size, largest)
            found, _ = greedy_search_batch(table, X, X.vectors[batch], np.full(batch.size, entry),
                                           beam, kind)
            kept = relink(batch, [np.concatenate((ids[ids >= 0], table[u, :deg[u]]))
                                  for u, ids in zip(batch.tolist(), found)])
            # reverse edges (src, dst) that are new, grouped by target
            dst = np.concatenate(kept)
            src = np.repeat(batch, [k.size for k in kept])
            new = ~(table[dst] == src[:, None]).any(axis=1)
            src, dst = src[new], dst[new]
            by_target = np.argsort(dst * m + src)
            src, dst = src[by_target], dst[by_target]
            targets, first, count = np.unique(dst, return_index=True, return_counts=True)
            fits = deg[targets] + count <= slack
            fit = np.repeat(fits, count)
            rank = np.arange(dst.size) - np.repeat(first, count)
            table[dst[fit], deg[dst[fit]] + rank[fit]] = src[fit]
            deg[targets[fits]] += count[fits]
            over = targets[~fits]
            relink(over, [np.concatenate((table[v, :deg[v]], src[lo:lo + n]))
                          for v, lo, n in zip(over.tolist(), first[~fits].tolist(), count[~fits].tolist())])
    over = np.flatnonzero(deg > cap)
    relink(over, [table[u, :deg[u]] for u in over.tolist()])
    table.sort(axis=1)  # the -1 pads first in each row
    return NeighborGraph(offsets=np.concatenate(([0], np.cumsum(deg))), ids=table[table >= 0], directed=True,
                         entry=entry, kind=kind, alpha=alpha, degree_cap=cap, construction="vamana")


def connectivity_check(G: NeighborGraph) -> tuple[float, int]:
    """Search from the entry node: (reachable fraction, unreachable count)."""
    offsets, ids = G.offsets.tolist(), G.ids.tolist()
    seen, queue = {G.entry}, [G.entry]
    while queue:
        u = queue.pop()
        fresh = set(ids[offsets[u]:offsets[u + 1]]) - seen
        seen |= fresh
        queue += fresh
    return len(seen) / len(G), len(G) - len(seen)
