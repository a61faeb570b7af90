"""Locality-sensitive hash families and the multi-table PLEB index.

Four families: bit sampling (Hamming), hyperplane and cross-polytope
(angular), and the p-stable construction for Euclidean distance. An index
is L tables of composite buckets, each bucket key the tuple of l hash
values mixed into one 64-bit key. Mixer collisions only ever add spurious
candidates, never remove true ones.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from annkit.core import Collection, DistanceKind, TopKResult, rescore
from annkit.core import pairwise_scores  # noqa: F401 -- perfbench traces calls through this name
from annkit.sketch import _mix64
from annkit.transforms import TransformedPair, mips_to_mcs

__all__ = [
    "FamilyKind",
    "HashFamily",
    "LshIndex",
    "PlebAnswer",
    "derive_params",
    "build_index",
    "pleb_query",
    "lsh_topk",
    "RadiusLadder",
    "build_radius_ladder",
    "approx_nn",
    "MipsHashIndex",
    "mips_hash_index",
    "pstable_collision_probability",
]


class FamilyKind(enum.Enum):
    BIT_SAMPLING = "bit"
    HYPERPLANE = "hyperplane"
    CROSS_POLYTOPE = "cross_polytope"
    P_STABLE_L2 = "pstable"


def _next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length()


def _fwht(x: np.ndarray) -> np.ndarray:
    """Orthonormal fast Walsh-Hadamard transform along the last axis."""
    shape = x.shape
    n = shape[-1]
    y = x.reshape(-1, n).copy()
    h = 1
    while h < n:
        blocks = y.reshape(-1, n // (2 * h), 2, h)
        a = blocks[:, :, 0, :] + blocks[:, :, 1, :]
        b = blocks[:, :, 0, :] - blocks[:, :, 1, :]
        y = np.stack([a, b], axis=2).reshape(-1, n)
        h *= 2
    return (y / math.sqrt(n)).reshape(shape)


_CROSS_POLYTOPE_PAIRS = 1 << 14  # (row, function) pairs hashed at once


def _cross_polytope(mat: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Cross-polytope hashes of every row of ``mat`` under each function's
    (3, n) sign vectors, an (n_rows, n_functions) matrix."""
    x = np.zeros((mat.shape[0], signs.shape[0], signs.shape[2]), dtype=np.float64)
    x[:, :, : mat.shape[1]] = mat[:, None, :]
    for o in range(3):  # pseudo-rotation: three rounds of sign flips + Hadamard
        x = _fwht(x * signs[:, o])
    i = np.argmax(np.abs(x), axis=2)
    neg = np.take_along_axis(x, i[:, :, None], axis=2)[:, :, 0] < 0
    return (2 * i + neg).astype(np.int64)


@dataclass(frozen=True)
class HashFamily:
    """A seeded family; function ``f`` of the family is fully determined by
    (kind, seed, d, f), so rebuilding with the same seed is bit-identical."""

    kind: FamilyKind
    seed: int
    d: int
    r: float = 1.0  # bucket width, p-stable family only
    _cache: dict = field(default_factory=dict, repr=False, compare=False)  # function -> parameters
    _stacks: dict = field(default_factory=dict, repr=False, compare=False)  # (first, count) -> stacked

    def _rng(self, func_index: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(entropy=(self.seed, func_index)))

    def _params(self, func_index: int):
        if func_index not in self._cache:
            rng = self._rng(func_index)
            if self.kind is FamilyKind.BIT_SAMPLING:
                p = int(rng.integers(self.d))
            elif self.kind is FamilyKind.HYPERPLANE:
                v = rng.standard_normal(self.d)
                p = v / np.linalg.norm(v)
            elif self.kind is FamilyKind.CROSS_POLYTOPE:
                n = _next_pow2(self.d)
                p = rng.choice([-1.0, 1.0], size=(3, n))
            elif self.kind is FamilyKind.P_STABLE_L2:
                alpha = rng.standard_normal(self.d)
                beta = rng.uniform(0.0, self.r)
                p = (alpha, beta)
            else:
                raise ValueError(f"unknown family kind {self.kind!r}")
            self._cache[func_index] = p
        return self._cache[func_index]

    def _stacked(self, first: int, count: int):
        """Parameters of functions first..first+count-1, stacked along a
        leading function axis (p-stable: the alphas and the betas)."""
        key = (first, count)
        if key not in self._stacks:
            params = [self._params(f) for f in range(first, first + count)]
            if self.kind is FamilyKind.P_STABLE_L2:
                self._stacks[key] = (np.stack([a for a, _ in params]), np.array([b for _, b in params]))
            else:
                self._stacks[key] = np.array(params)
        return self._stacks[key]

    def hash_block(self, first: int, count: int, mat: np.ndarray) -> np.ndarray:
        """Hash every row of ``mat`` with functions first..first+count-1,
        giving an (n, count) matrix. Each projection is one einsum reduction
        per (row, function), so a value does not depend on how rows or
        functions are batched."""
        mat = np.atleast_2d(np.asarray(mat, dtype=np.float64))
        if mat.shape[1] != self.d:
            raise ValueError("input dimension mismatch")
        params = self._stacked(first, count)
        if self.kind is FamilyKind.BIT_SAMPLING:
            if not np.all((mat == 0.0) | (mat == 1.0)):
                raise ValueError("bit sampling requires binary vectors")
            return mat[:, params].astype(np.int64)
        if self.kind is FamilyKind.HYPERPLANE:
            return (np.einsum("ij,fj->if", mat, params) >= 0.0).astype(np.int64)
        if self.kind is FamilyKind.CROSS_POLYTOPE:
            # rows in chunks, so that the (rows, count, n) work array stays
            # near _CROSS_POLYTOPE_PAIRS * n floats however many rows come in
            step = max(1, _CROSS_POLYTOPE_PAIRS // count)
            return np.concatenate([_cross_polytope(mat[s:s + step], params)
                                   for s in range(0, max(mat.shape[0], 1), step)])
        alpha, beta = params
        return np.floor((np.einsum("ij,fj->if", mat, alpha) + beta) / self.r).astype(np.int64)

    def hash_many(self, func_index: int, mat: np.ndarray) -> np.ndarray:
        """Hash every row of ``mat`` with function ``func_index``."""
        return self.hash_block(func_index, 1, mat)[:, 0]

    def hash(self, func_index: int, u: np.ndarray) -> int:
        return int(self.hash_many(func_index, np.asarray(u)[None, :])[0])

    def distance(self, u: np.ndarray, v: np.ndarray) -> float:
        """The distance this family is sensitive to."""
        u64 = np.asarray(u, dtype=np.float64)
        v64 = np.asarray(v, dtype=np.float64)
        if self.kind is FamilyKind.BIT_SAMPLING:
            return float(np.abs(u64 - v64).sum())
        if self.kind in (FamilyKind.HYPERPLANE, FamilyKind.CROSS_POLYTOPE):
            cos = u64 @ v64 / (np.linalg.norm(u64) * np.linalg.norm(v64))
            return float(np.arccos(np.clip(cos, -1.0, 1.0)))
        return float(np.linalg.norm(u64 - v64))


def derive_params(m: int, p1: float, p2: float) -> tuple[int, int, float]:
    """Table geometry (l, L, rho) for a family with collision rates p1 > p2."""
    if not 0.0 < p2 < p1 < 1.0:
        raise ValueError("need 0 < p2 < p1 < 1")
    rho = math.log(p1) / math.log(p2)
    ell = max(1, math.ceil(math.log(m) / math.log(1.0 / p2)))
    big_l = max(1, math.ceil(m**rho))
    return ell, big_l, rho


def _mix_keys(columns: np.ndarray) -> np.ndarray:
    """Mix rows of hash values (n, ell) into 64-bit bucket keys (n,)."""
    mixed = _mix64(columns.astype(np.uint64))
    with np.errstate(over="ignore"):
        h = np.full(columns.shape[0], 0x9E3779B97F4A7C15, dtype=np.uint64)
        for x in mixed.T:
            h = (h ^ x) * np.uint64(0x85EBCA77C2B2AE63)
    return h


@dataclass
class LshIndex:
    family: HashFamily
    ell: int
    big_l: int
    tables: list  # one dict per table: bucket key -> ascending int64 id array
    eps: float = 0.0

    def bucket_keys(self, table: int, mat: np.ndarray) -> np.ndarray:
        return _mix_keys(self.family.hash_block(table * self.ell, self.ell, mat))

    def bucket_key(self, table: int, u: np.ndarray) -> int:
        return int(self.bucket_keys(table, np.asarray(u)[None, :])[0])

    def query_keys(self, u: np.ndarray) -> list:
        """The bucket key of ``u`` in every table, from one stacked hash of
        all L * ell functions."""
        cols = self.family.hash_block(0, self.big_l * self.ell, np.asarray(u)[None, :])
        return _mix_keys(cols.reshape(self.big_l, self.ell)).tolist()


_NO_IDS = np.zeros(0, dtype=np.int64)


@dataclass
class PlebAnswer:
    yes: bool
    point_id: Optional[int] = None
    score: Optional[float] = None
    visited: int = 0


def build_index(X: Collection, family: HashFamily, ell: int, big_l: int, eps: float = 0.0) -> LshIndex:
    if ell < 1 or big_l < 1:
        raise ValueError("need at least one hash per bucket and one table")
    index = LshIndex(family=family, ell=ell, big_l=big_l, tables=[], eps=eps)
    mat = np.asarray(X.vectors, dtype=np.float64)
    for t in range(big_l):
        keys = index.bucket_keys(t, mat)
        # a stable sort keeps each bucket's ids ascending; every bucket is
        # a read-only view of the one order array
        order = np.argsort(keys, kind="stable")
        order.setflags(write=False)
        keys = keys[order]
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        index.tables.append(dict(zip(keys[starts].tolist(), np.split(order, starts[1:]))))
    return index


def pleb_query(index: LshIndex, X: Collection, q: np.ndarray, r: float, eps: float) -> PlebAnswer:
    """Decision query: is anything within r?  Scans the query's bucket in
    each table in order, ascending id within a bucket, touching at most
    4L candidates; answers Yes with the first point within (1+eps)r."""
    budget = 4 * index.big_l
    visited = 0
    for table, key in zip(index.tables, index.query_keys(q)):
        for i in table.get(key, _NO_IDS).tolist():
            if visited >= budget:
                return PlebAnswer(yes=False, visited=visited)
            visited += 1
            dist = index.family.distance(q, X.vectors[i])
            if dist <= (1.0 + eps) * r:
                return PlebAnswer(yes=True, point_id=i, score=dist, visited=visited)
    return PlebAnswer(yes=False, visited=visited)


def lsh_topk(index: LshIndex, X: Collection, q: np.ndarray, k: int,
             kind: DistanceKind = DistanceKind.L2_SQUARED) -> TopKResult:
    """Practical retrieval: union of the query's L buckets, rescored exactly."""
    seen = np.zeros(len(X), dtype=bool)
    for table, key in zip(index.tables, index.query_keys(q)):
        bucket = table.get(key)
        if bucket is not None:
            seen[bucket] = True
    return rescore(X, np.flatnonzero(seen), q, k, kind)


def pstable_collision_probability(dist: float, r: float) -> float:
    """Collision probability of the p-stable family at separation ``dist``,
    by numeric quadrature (1e-6 absolute tolerance)."""
    # imported on use, so that importing annkit (every CLI start) does not load it
    from scipy import integrate

    if dist <= 0:
        return 1.0

    def integrand(t: float) -> float:
        z = t / dist
        f = math.sqrt(2.0 / math.pi) * math.exp(-z * z / 2.0)  # pdf of |N(0,1)|
        return (f / dist) * (1.0 - t / r)

    val, _ = integrate.quad(integrand, 0.0, r, epsabs=1e-6)
    return float(val)


def _sample_aspect_ratio(X: Collection, seed: int, pairs: int = 1000) -> tuple[float, float]:
    """Estimate (min, max) pairwise distance from a random pair sample."""
    rng = np.random.default_rng(seed)
    m = len(X)
    mat = X.vectors.astype(np.float64)
    lo, hi = math.inf, 0.0
    for _ in range(pairs):
        i, j = rng.integers(m), rng.integers(m)
        if i == j:
            continue
        dist = float(np.linalg.norm(mat[i] - mat[j]))
        if dist > 0:
            lo = min(lo, dist)
            hi = max(hi, dist)
    if not math.isfinite(lo) or hi == 0.0:
        raise ValueError("collection is degenerate: all sampled points identical")
    return lo, hi


def _ladder_step(eps: float) -> float:
    """sqrt(1+eps)-1: ladder spacing and PLEB factor compound to 1+eps."""
    return math.sqrt(1.0 + eps) - 1.0


@dataclass(frozen=True)
class RadiusLadder:
    """Reusable stack of PLEB indexes at geometrically spaced radii.

    The ladder spacing and the PLEB witness each contribute their own
    approximation factor, so both run at sqrt(1+eps)-1 internally and the
    end-to-end factor of a ladder query stays within the requested
    (1+eps). A huge eps (at least the aspect ratio) collapses the ladder
    to a single level. Indexes are built lazily, at most once per level.
    """

    X: Collection
    eps: float
    seed: int
    levels: tuple
    _indexes: dict = field(default_factory=dict, repr=False)

    @property
    def pleb_eps(self) -> float:
        """The factor each PLEB query and the ladder spacing run at, derived
        from ``eps`` so that the two cannot disagree."""
        return _ladder_step(self.eps)

    def _index_for(self, j: int) -> LshIndex:
        if j not in self._indexes:
            r = self.levels[j]
            p1 = pstable_collision_probability(r, r)
            p2 = pstable_collision_probability((1.0 + self.pleb_eps) * r, r)
            ell, big_l, _ = derive_params(len(self.X), p1, p2)
            fam = HashFamily(FamilyKind.P_STABLE_L2, seed=self.seed * 1_000_003 + j,
                             d=self.X.dim, r=r)
            self._indexes[j] = build_index(self.X, fam, ell, big_l, eps=self.pleb_eps)
        return self._indexes[j]

    def query(self, q: np.ndarray) -> PlebAnswer:
        """Binary search for the smallest radius whose PLEB answers Yes."""
        best: Optional[PlebAnswer] = None
        lo_j, hi_j = 0, len(self.levels) - 1
        while lo_j <= hi_j:
            mid = (lo_j + hi_j) // 2
            ans = pleb_query(self._index_for(mid), self.X, q, self.levels[mid], self.pleb_eps)
            if ans.yes:
                best = ans
                hi_j = mid - 1
            else:
                lo_j = mid + 1
        if best is None:
            # every level said No (can happen with unlucky hashes); report
            # the top level's answer
            best = pleb_query(self._index_for(len(self.levels) - 1), self.X, q,
                              self.levels[-1], self.pleb_eps)
        return best


def build_radius_ladder(X: Collection, eps: float, seed: int = 0) -> RadiusLadder:
    """Size the radius ladder from a sampled aspect ratio."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    step = _ladder_step(eps)
    lo, hi = _sample_aspect_ratio(X, seed)
    n_levels = max(1, math.ceil(math.log(hi / lo) / math.log(1.0 + step)))
    levels = tuple(lo * (1.0 + step) ** j for j in range(n_levels))
    return RadiusLadder(X=X, eps=eps, seed=seed, levels=levels)


def approx_nn(X: Collection, q: np.ndarray, eps: float, seed: int = 0) -> PlebAnswer:
    """One-shot (1+eps)-approximate NN; see :class:`RadiusLadder` for the
    reusable build-once form."""
    return build_radius_ladder(X, eps, seed).query(q)


@dataclass
class MipsHashIndex:
    """Angular LSH over the MIPS-to-MCS transform of a collection."""

    pair: TransformedPair
    index: LshIndex
    transformed: Collection

    def topk(self, X: Collection, q: np.ndarray, k: int) -> TopKResult:
        tq = self.pair.query_map(q)
        res = lsh_topk(self.index, self.transformed, tq, k, DistanceKind.ANGULAR)
        # rescore in the original space: ranking is preserved, scores are not
        return rescore(X, res.ids, q, k, DistanceKind.NEG_INNER_PRODUCT)


def mips_hash_index(X: Collection, ell: int, big_l: int, seed: int,
                    kind: FamilyKind = FamilyKind.HYPERPLANE) -> MipsHashIndex:
    pair = mips_to_mcs(X)
    transformed = pair.transform_collection(X)
    family = HashFamily(kind, seed=seed, d=X.dim + 1)
    index = build_index(transformed, family, ell, big_l)
    return MipsHashIndex(pair=pair, index=index, transformed=transformed)
