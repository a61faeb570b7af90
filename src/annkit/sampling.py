"""MIPS without full inner products: wedge sampling and dimension-sampling
candidate elimination.

Wedge sampling draws (dimension, point) pairs whose point-marginal is
proportional to |q_t u_t| and tallies signed counts, so the count of each
point estimates its inner-product rank without computing inner products.
The eliminator accumulates partial inner products over dimensions sampled
without replacement and repeatedly discards the weaker half of the
candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from annkit.core import Collection, DistanceKind, TopKResult, _smallest, rescore, top_k_from_scores

__all__ = [
    "AliasTable",
    "alias_build",
    "alias_sample",
    "alias_sample_many",
    "WedgeIndex",
    "build_wedge_index",
    "wedge_topk",
    "boundedme_topk",
    "boundedme_schedule",
    "sample_size_h",
]


@dataclass(frozen=True)
class AliasTable:
    """Walker/Vose table: one uniform draw plus one comparison per sample."""

    prob: np.ndarray  # acceptance probability per slot
    alias: np.ndarray  # fallback index per slot
    weight_sum: float

    def __len__(self) -> int:
        return self.prob.size


def alias_build(weights) -> AliasTable:
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty 1-d sequence")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be non-negative and finite")
    total = float(w.sum())
    if total == 0.0:
        raise ValueError("weights must not all be zero")
    n = w.size
    scaled = w * (n / total)
    prob = np.ones(n)
    alias = np.arange(n, dtype=np.int64)
    small = [i for i in range(n) if scaled[i] < 1.0]
    large = [i for i in range(n) if scaled[i] >= 1.0]
    while small and large:
        s = small.pop()
        g = large.pop()
        prob[s] = scaled[s]
        alias[s] = g
        scaled[g] = (scaled[g] + scaled[s]) - 1.0
        (small if scaled[g] < 1.0 else large).append(g)
    for i in small + large:
        prob[i] = 1.0
    return AliasTable(prob=prob, alias=alias, weight_sum=total)


def alias_sample(table: AliasTable, rng: np.random.Generator) -> int:
    i = int(rng.integers(len(table)))
    return i if rng.random() < table.prob[i] else int(table.alias[i])


def alias_sample_many(table: AliasTable, rng: np.random.Generator, n: int) -> np.ndarray:
    slots = rng.integers(len(table), size=n)
    coins = rng.random(n)
    take = coins < table.prob[slots]
    return np.where(take, slots, table.alias[slots])


@dataclass
class WedgeIndex:
    """Per-dimension alias tables over |u_t| plus the per-dimension column
    sums; dimensions whose column sum is zero are dropped entirely."""

    dims: np.ndarray  # active dimension ids
    tables: list  # alias table per active dimension
    column_sums: np.ndarray  # sum_u |u_t| per active dimension
    dim: int


def build_wedge_index(X: Collection) -> WedgeIndex:
    mat = np.abs(X.vectors.astype(np.float64))
    sums = mat.sum(axis=0)
    dims = np.flatnonzero(sums > 0).astype(np.int64)
    tables = [alias_build(mat[:, t]) for t in dims]
    return WedgeIndex(dims=dims, tables=tables, column_sums=sums[dims], dim=X.dim)


def wedge_topk(
    index: WedgeIndex,
    X: Collection,
    q: np.ndarray,
    samples: int,
    k: int,
    k_prime: int = 0,
    seed: int = 0,
) -> TopKResult:
    """Draw (dimension, point) samples, tally Sign(q_t u_t) per point, then
    rescore the k' highest-count points exactly and return the top k."""
    if samples < 1:
        raise ValueError("need at least one sample")
    if k_prime == 0:
        k_prime = max(10 * k, 50)
    if k_prime < k:
        raise ValueError("k_prime must be at least k")
    q64 = np.asarray(q, dtype=np.float64)
    dim_weights = np.abs(q64[index.dims]) * index.column_sums
    if not np.any(dim_weights > 0):
        raise ValueError("query has no mass on the index's non-zero dimensions")
    rng = np.random.default_rng(seed)
    dim_table = alias_build(dim_weights)

    counts = np.zeros(len(X), dtype=np.float64)
    dim_draws = alias_sample_many(dim_table, rng, samples)
    mat = X.vectors
    for slot in range(index.dims.size):
        n_t = int(np.count_nonzero(dim_draws == slot))
        if n_t == 0:
            continue
        t = int(index.dims[slot])
        points = alias_sample_many(index.tables[slot], rng, n_t)
        signs = np.sign(q64[t] * mat[points, t].astype(np.float64))
        np.add.at(counts, points, signs)

    top = top_k_from_scores(-counts, k_prime).ids
    return rescore(X, top, q64, k, DistanceKind.NEG_INNER_PRODUCT)


def sample_size_h(x: float, d: int) -> float:
    """Minimum without-replacement sample count for an epsilon-accurate
    mean, as a function of x = (budget exponent) and the universe size d."""
    return min((1.0 + x) / (1.0 + x / d), (x + x / d) / (1.0 + x / d))


def boundedme_schedule(n_alive: int, k: int, eps_i: float, delta_i: float, d: int) -> int:
    """Dimension budget t_i for one halving round (natural log), capped at d."""
    gap = n_alive - k
    if gap <= 0:
        return 0
    x = (2.0 / eps_i**2) * math.log(2.0 * gap / (delta_i * (gap // 2 + 1)))
    return min(d, max(1, math.ceil(sample_size_h(x, d))))


def _contribution_block(block: np.ndarray, lo: np.ndarray, span_safe: np.ndarray,
                        q_scaled: np.ndarray) -> np.ndarray:
    """Twice the contributions in [0, 1] of float32 ``block`` (sampled
    dimensions x rows, one row per dimension), whose sums over any shared
    dimension set rank points exactly like the raw partial inner products;
    ``lo``, ``span_safe`` and ``q_scaled`` are the per-dimension arrays of
    those dimensions.

    Each element is ``(x - lo) / span_safe * q' + 1`` in float64, one
    correctly rounded operation at a time in that order, so it does not
    depend on which block it was computed in. It is 0 or at least
    ``2^-53`` and at most 2, so halving it, the contribution proper, is
    exact.
    """
    contrib = np.subtract(block, lo[:, None])
    contrib /= span_safe[:, None]
    contrib *= q_scaled[:, None]
    contrib += 1.0
    return contrib


def _column_sums(block: np.ndarray) -> np.ndarray:
    """Sums over the rows of the ``(t, n)`` float64 ``block``, equal bit
    for bit to ``np.ascontiguousarray(block.T).sum(axis=1)``; ``block``
    is overwritten.

    numpy sums each contiguous row of ``block.T`` pairwise: fewer than 8
    terms in turn from 0; up to 128 in 8 running sums, combined as
    ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))``, then the
    remainder in turn; more split at ``t // 2`` rounded down to a multiple
    of 8 and add the sums of the two halves. Here each step adds whole
    n-long rows, in the same order, so the sums run along contiguous
    memory instead of across rows only t wide.
    """
    t, n = block.shape
    if t < 8:
        out = np.zeros(n)
        for row in block:
            out += row
        return out
    if t > 128:
        half = t // 2 - (t // 2) % 8
        out = _column_sums(block[:half])
        out += _column_sums(block[half:])
        return out
    acc = block[:8]
    tail = t - t % 8
    for i in range(8, tail, 8):
        acc += block[i:i + 8]
    acc[0::2] += acc[1::2]
    acc[0::4] += acc[2::4]
    out = acc[0]
    out += acc[4]
    for row in block[tail:]:
        out += row
    out += 0.0  # numpy adds the sum to its identity, +0: a -0 sum comes out +0
    return out


def boundedme_topk(
    X: Collection,
    q: np.ndarray,
    k: int,
    eps: float,
    delta: float,
    seed: int = 0,
) -> tuple[TopKResult, dict]:
    """Iterative halving over partial inner products.

    Dimensions come from one global seeded permutation shared by every
    survivor (sampling without replacement; accumulators stay comparable).
    Each round extends accumulators by the schedule's step, keeps points
    strictly above the median-ish threshold (ties die), and halves eps /
    delta for the next round. Survivors are rescored with exact inner
    products for the final ranking.

    Per-dimension contributions in [0, 1] stand in for the coordinate
    products: data coordinates map affinely into [0, 1], the query is
    scaled by the data span per coordinate (compensating the data scaling)
    then by its max magnitude, and each contribution is
    ``(q'_t u'_t + 1) / 2``. A round computes them only for its
    ``new dimensions x alive`` block, gathered from the collection's
    column-major copy (:attr:`Collection.columns`) so that every float64
    pass and the sums run along rows as long as the survivors. The
    accumulators hold twice the partial sums: every contribution and
    partial sum is far inside float64's normal range, so halving is exact
    and commutes with each rounding, and the thresholds, comparisons and
    survivors are those of the halved sums.

    Returns the result plus diagnostics: ``products`` (the number of
    contributions accumulated), ``schedule`` (the dimension budget of each
    round) and ``rounds``.
    """
    m = len(X)
    if k < 1:
        raise ValueError("k must be at least 1")
    if not (0 < eps < 1 and 0 < delta < 1):
        raise ValueError("eps and delta must lie in (0, 1)")
    d = X.dim
    if k >= m:
        result = rescore(X, np.arange(m), q, k, DistanceKind.NEG_INNER_PRODUCT)
        return result, {"products": 0, "schedule": [], "rounds": 0}

    columns = X.columns
    lo, hi = X.column_range
    span = hi - lo
    span_safe = np.where(span > 0, span, 1.0)
    q_scaled = np.asarray(q, dtype=np.float64) * span
    q_max = np.abs(q_scaled).max()
    if q_max > 0:
        q_scaled = q_scaled / q_max

    rng = np.random.default_rng(seed)
    perm = rng.permutation(d)

    alive = np.arange(m, dtype=np.int64)
    acc = np.zeros(m)  # twice the partial sums of the rows in ``alive``
    eps_i, delta_i = eps / 4.0, delta / 2.0
    t_prev = 0
    products = 0
    schedule = []

    while alive.size > k:
        t_i = max(boundedme_schedule(alive.size, k, eps_i, delta_i, d), t_prev)
        schedule.append(t_i)
        new_dims = perm[t_prev:t_i]
        if new_dims.size:
            block = np.take(columns, new_dims, axis=0)
            if alive.size < m:  # two takes gather faster than one 2-d fancy index
                block = block.take(alive, axis=1)
            acc += _column_sums(_contribution_block(block, lo[new_dims], span_safe[new_dims],
                                                    q_scaled[new_dims]))
            products += alive.size * new_dims.size
        t_prev = t_i

        gap = alive.size - k
        rank = math.ceil(gap / 2)  # threshold at the rank-th smallest score
        threshold = np.partition(acc, rank - 1)[rank - 1]
        keep = np.flatnonzero(acc > threshold)
        if keep.size < k:
            # strict thresholding can over-kill on ties; refill by best scores
            keep = np.sort(_smallest(-acc, k, alive))
        alive, acc = alive[keep], acc[keep]
        eps_i *= 0.75
        delta_i /= 2.0

    result = rescore(X, alive, q, k, DistanceKind.NEG_INNER_PRODUCT)
    return result, {"products": products, "schedule": schedule, "rounds": len(schedule)}
