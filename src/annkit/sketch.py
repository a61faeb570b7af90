"""Dimensionality-reduction sketches for inner products.

Three estimators with very different contracts: the JL/Rademacher linear
sketch (unbiased, symmetric), the asymmetric max/min envelope sketch
(biased but a guaranteed upper bound, query stays raw), and threshold
sampling (unbiased, coordinate-exact values, shared hash between sketches).

All randomness is realized as seeded integer hashing of coordinates, so
sketches are reproducible across runs. Each sign matrix or threshold
sample hashes all its (mapping, coordinate) pairs in one broadcast call.
The envelope sketch gathers bucket positions from a small cache of
read-only tables, one per (seed, mappings, buckets, dimension), while the
table stays small; past that (a hashed sparse vocabulary, say) it hashes
only the coordinates it is given, so its cost follows the non-zeros and
not the dimension.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from annkit.core import SparseVector

__all__ = [
    "JlSketcher",
    "jl_project",
    "jl_ip_estimate",
    "AsymSketch",
    "asym_sketch",
    "asym_upper_bound",
    "ThresholdSketcher",
    "ThresholdSketch",
    "threshold_ip_estimate",
]


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over uint64 arrays."""
    with np.errstate(over="ignore"):
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))


def _hash_ints(*parts: np.ndarray) -> np.ndarray:
    acc = np.uint64(0x9E3779B97F4A7C15)
    out = None
    for p in parts:
        arr = np.asarray(p, dtype=np.uint64)
        term = _mix64(arr + acc)
        out = term if out is None else _mix64(out ^ term)
        acc = np.uint64(int(acc) * 3 % (1 << 64))
    return out


# ---------------------------------------------------------------------------
# JL / Rademacher linear sketch


@dataclass(frozen=True)
class JlSketcher:
    """Implicit Rademacher matrix: entry (row, col) is +-1/sqrt(out_dim),
    the sign derived by hashing (seed, row, col). Nothing is stored."""

    out_dim: int
    seed: int

    def signs(self, dim: int) -> np.ndarray:
        rows = np.arange(self.out_dim, dtype=np.uint64)[:, None]
        cols = np.arange(dim, dtype=np.uint64)[None, :]
        bits = _hash_ints(self.seed, rows + np.uint64(1), cols + np.uint64(1))
        return np.where((bits >> np.uint64(63)).astype(bool), 1.0, -1.0)


def jl_project(sketcher: JlSketcher, u: np.ndarray) -> np.ndarray:
    u64 = np.asarray(u, dtype=np.float64)
    mat = sketcher.signs(u64.shape[0]) / np.sqrt(sketcher.out_dim)
    return mat @ u64


def jl_ip_estimate(su: np.ndarray, sv: np.ndarray) -> float:
    """Plain inner product of two sketches: unbiased for <u, v>."""
    return float(np.asarray(su, dtype=np.float64) @ np.asarray(sv, dtype=np.float64))


# ---------------------------------------------------------------------------
# asymmetric envelope sketch


@dataclass
class AsymSketch:
    """Bucketed value envelopes of one vector.

    ``upper[k]`` / ``lower[k]`` hold the max / min over all sketched
    coordinate values that any of the h mappings sends to bucket k.
    ``nz`` is None in dense mode, where every coordinate (zeros included)
    is enveloped and nothing needs storing. ``lower`` is None when the
    caller declared the vector non-negative.
    """

    nz: Optional[np.ndarray]
    upper: np.ndarray
    lower: Optional[np.ndarray]
    h: int
    seed: int
    dim: int

    @property
    def buckets(self) -> int:
        return self.upper.shape[0]


def _support(u: Union[np.ndarray, SparseVector], dense: bool = False) -> tuple:
    """``(coords, values, dim)`` of a vector: its non-zero coordinates, or
    every coordinate when ``dense``, with their values as float64."""
    if isinstance(u, SparseVector):
        return u.indices, u.values.astype(np.float64), u.dim
    arr = np.asarray(u, dtype=np.float64)
    coords = np.arange(arr.shape[0], dtype=np.int64) if dense else np.flatnonzero(arr).astype(np.int64)
    return coords, arr[coords], arr.shape[0]


def _bucket_of(seed: int, mapping: Union[int, np.ndarray], coords: np.ndarray, n_buckets: int) -> np.ndarray:
    """Bucket of each coordinate under each mapping, broadcast: an ``(h, 1)``
    column of mappings against n coordinates gives ``(h, n)`` buckets."""
    hashed = _hash_ints(seed, np.asarray(mapping, dtype=np.uint64) + np.uint64(1),
                        np.asarray(coords, dtype=np.uint64) + np.uint64(1))
    return (hashed % np.uint64(n_buckets)).astype(np.int64)


# largest bucket table kept, in (mapping, coordinate) entries: 256 KiB of
# int32, so the 16 cached tables hold at most 4 MiB
_TABLE_ENTRIES = 1 << 16


@functools.lru_cache(maxsize=16)
def _bucket_table(seed: int, h: int, n_buckets: int, dim: int) -> np.ndarray:
    """Read-only ``(h, dim)`` table: the bucket of every coordinate under
    every mapping. It depends on these four values alone, so it is cached
    by them and built at most once per sketch shape."""
    table = _bucket_of(seed, np.arange(h)[:, None], np.arange(dim), n_buckets).astype(np.int32)
    table.setflags(write=False)
    return table


def _buckets(seed: int, h: int, n_buckets: int, dim: int, coords: np.ndarray) -> np.ndarray:
    """``(h, n)`` buckets of n coordinates under every mapping: gathered
    from the cached table when it has at most ``_TABLE_ENTRIES`` entries,
    else hashed for these coordinates alone. Both give the same values."""
    if h * dim <= _TABLE_ENTRIES:
        return _bucket_table(seed, h, n_buckets, dim)[:, coords]
    return _bucket_of(seed, np.arange(h)[:, None], coords, n_buckets)


def asym_sketch(
    u: Union[np.ndarray, SparseVector],
    sketch_dim: int,
    h: int,
    seed: int,
    non_negative: bool = False,
    dense: bool = False,
) -> AsymSketch:
    """Sketch one vector into sketch_dim/2 upper and lower buckets.

    Sparse mode envelopes the non-zero coordinates and records their ids;
    dense mode envelopes every coordinate and records nothing. Buckets no
    coordinate reaches hold 0. The envelopes equal a sequential max/min
    over the coordinates, mapping by mapping, that keeps the first of equal
    values (which only shows as the sign of a zero). A NaN value makes
    every bucket it reaches NaN.
    """
    if sketch_dim % 2 != 0 or sketch_dim < 2:
        raise ValueError("sketch size must be even and positive")
    if h < 1:
        raise ValueError("need at least one mapping")
    n_buckets = sketch_dim // 2
    coords, values, dim = _support(u, dense)
    buckets = _buckets(seed, h, n_buckets, dim, coords).ravel()  # mapping-major
    values = np.tile(values, h)
    upper = np.full(n_buckets, -np.inf)
    lower = np.full(n_buckets, np.inf)
    np.maximum.at(upper, buckets, values)
    np.minimum.at(lower, buckets, values)
    # numpy's max/min may keep either of two equal values, a sequential one
    # keeps the first; only a zero's sign can differ, so the first zero sets it
    zeros = np.flatnonzero(values == 0)
    hit, first = np.unique(buckets[zeros], return_index=True)
    for env in (upper, lower):
        env[hit] = np.where(env[hit] == 0, values[zeros[first]], env[hit])
    untouched = np.bincount(buckets, minlength=n_buckets) == 0
    upper[untouched] = lower[untouched] = 0.0
    return AsymSketch(
        nz=None if dense else coords,
        upper=upper,
        lower=None if non_negative else lower,
        h=h,
        seed=seed,
        dim=dim,
    )


def asym_upper_bound(q: Union[np.ndarray, SparseVector], sketch: AsymSketch) -> float:
    """Guaranteed upper bound on <q, u> from u's envelope sketch.

    A positive query coordinate multiplies the least upper bound over its h
    buckets; a negative one multiplies the greatest lower bound.
    """
    q_coords, q_values, q_dim = _support(q)
    if q_dim != sketch.dim:
        raise ValueError(f"query dimension {q_dim} does not match the sketch's {sketch.dim}")
    if sketch.nz is not None:
        if sketch.dim <= _TABLE_ENTRIES:
            support = np.zeros(sketch.dim, dtype=bool)
            support[sketch.nz] = True
            keep = support[q_coords]
        else:
            keep = np.isin(q_coords, sketch.nz)
        q_coords, q_values = q_coords[keep], q_values[keep]
    if q_coords.size == 0:
        return 0.0

    buckets = _buckets(sketch.seed, sketch.h, sketch.buckets, sketch.dim, q_coords)
    least_upper = sketch.upper[buckets].min(axis=0)
    pos = q_values > 0
    total = float(q_values[pos] @ least_upper[pos])
    neg = q_values < 0
    if np.any(neg):
        if sketch.lower is None:
            raise ValueError("negative query coordinates need a lower-bound sketch")
        greatest_lower = sketch.lower[buckets].max(axis=0)
        total += float(q_values[neg] @ greatest_lower[neg])
    return total


# ---------------------------------------------------------------------------
# threshold sampling


@dataclass(frozen=True)
class ThresholdSketcher:
    """Shared sampler: one system-wide hash pi(i) ~ U[0,1] per coordinate,
    so the retained index sets of different vectors correlate correctly."""

    out_dim: int
    seed: int

    def uniforms(self, coords: np.ndarray) -> np.ndarray:
        bits = _hash_ints(self.seed, np.asarray(coords, dtype=np.uint64) + np.uint64(1))
        return (bits >> np.uint64(11)).astype(np.float64) / float(1 << 53)

    def sketch(self, u: Union[np.ndarray, SparseVector]) -> "ThresholdSketch":
        coords, values, _ = _support(u)
        norm_sq = float(values @ values)
        if norm_sq == 0.0:
            raise ValueError("cannot sketch a zero vector")
        if self.out_dim == 0:
            keep = np.zeros(coords.shape, dtype=bool)
        else:
            theta = self.out_dim * values**2 / norm_sq
            keep = self.uniforms(coords) <= theta
        return ThresholdSketch(
            indices=coords[keep],
            values=values[keep],
            norm_sq=norm_sq,
            out_dim=self.out_dim,
        )


@dataclass(frozen=True)
class ThresholdSketch:
    indices: np.ndarray  # retained coordinate ids, ascending
    values: np.ndarray  # exact retained values
    norm_sq: float
    out_dim: int

    def __len__(self) -> int:
        return self.indices.size


def threshold_ip_estimate(su: ThresholdSketch, sv: ThresholdSketch) -> float:
    """Inverse-probability weighted sum over the shared retained indices;
    unbiased for <u, v> when both sketches share the sampler hash."""
    if su.out_dim != sv.out_dim:
        raise ValueError("sketches must come from the same sampler")
    common, iu, iv = np.intersect1d(su.indices, sv.indices, return_indices=True)
    if common.size == 0:
        return 0.0
    d_out = su.out_dim
    pu = np.minimum(1.0, d_out * su.values[iu] ** 2 / su.norm_sq)
    pv = np.minimum(1.0, d_out * sv.values[iv] ** 2 / sv.norm_sq)
    p = np.minimum(pu, pv)
    return float(np.sum(su.values[iu] * sv.values[iv] / p))
