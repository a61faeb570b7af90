"""Vector types, distance kinds, the exact brute-force oracle, and metrics.

Every index family in this package is tested against :func:`brute_force_topk`,
so the conventions here (float32 storage, float64 accumulation, smaller-is-
better scores, ``(score, id)`` tie-breaking) are the ground truth for the
whole toolkit.
"""

from __future__ import annotations

import enum
import functools
import math
import mmap
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

__all__ = [
    "DistanceKind",
    "SparseVector",
    "Collection",
    "TopKResult",
    "dense_vector",
    "distance",
    "brute_force_topk",
    "score_rows",
    "rescore",
    "recall",
    "epsilon_valid",
]


class DistanceKind(enum.Enum):
    """Distance flavors, all normalized so that smaller means more similar."""

    L2_SQUARED = "l2sq"
    ANGULAR = "angular"
    NEG_INNER_PRODUCT = "neg_ip"
    NEG_JACCARD = "neg_jaccard"


def dense_vector(values: Sequence[float]) -> np.ndarray:
    """Validate and convert ``values`` into a float32 dense vector."""
    arr = np.asarray(values, dtype=np.float32)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("dense vector must be one-dimensional and non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("dense vector entries must be finite")
    return arr


@dataclass(frozen=True)
class SparseVector:
    """Sparse vector: strictly increasing indices paired with non-zero values."""

    indices: np.ndarray
    values: np.ndarray
    dim: int

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        val = np.asarray(self.values, dtype=np.float32)
        if idx.shape != val.shape or idx.ndim != 1:
            raise ValueError("indices and values must be 1-d and equally long")
        if idx.size and (np.any(np.diff(idx) <= 0) or idx[0] < 0 or idx[-1] >= self.dim):
            raise ValueError("indices must be strictly increasing and in [0, dim)")
        if np.any(val == 0) or not np.all(np.isfinite(val)):
            raise ValueError("values must be non-zero and finite")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.dim, dtype=np.float32)
        out[self.indices] = self.values
        return out


Vector = Union[np.ndarray, SparseVector]


@dataclass(frozen=True)
class Collection:
    """An ordered, immutable set of ``m`` same-dimensional vectors, ids 0..m-1.

    Dense collections are stored as one read-only ``(m, d)`` float32
    matrix; sparse collections as a tuple of :class:`SparseVector`. The
    fields cannot be reassigned, so data-only quantities derived from a
    dense matrix (:attr:`screen_rows`, :attr:`column_range`,
    :attr:`columns`) are computed on first use and then kept.
    """

    vectors: Union[np.ndarray, tuple]
    dim: int = field(init=False)

    def __post_init__(self):
        if isinstance(self.vectors, np.ndarray):
            mat = np.asarray(self.vectors, dtype=np.float32)
            if mat.ndim != 2 or mat.shape[0] < 1 or mat.shape[1] < 1:
                raise ValueError("dense collection must be a non-empty (m, d) matrix")
            if not np.all(np.isfinite(mat)):
                raise ValueError("collection entries must be finite")
            mat.setflags(write=False)
            object.__setattr__(self, "vectors", mat)
            object.__setattr__(self, "dim", mat.shape[1])
        else:
            vecs = tuple(self.vectors)
            if not vecs:
                raise ValueError("collection must hold at least one vector")
            if not all(isinstance(v, SparseVector) for v in vecs):
                raise ValueError("sparse collection must hold SparseVector entries only")
            dims = {v.dim for v in vecs}
            if len(dims) != 1:
                raise ValueError("collection vectors must share one dimensionality")
            object.__setattr__(self, "vectors", vecs)
            object.__setattr__(self, "dim", vecs[0].dim)

    @property
    def is_dense(self) -> bool:
        return isinstance(self.vectors, np.ndarray)

    def _dense(self) -> np.ndarray:
        if not self.is_dense:
            raise ValueError("only a dense collection has derived row and column data")
        return self.vectors

    @functools.cached_property
    def screen_rows(self) -> Optional["_ScreenRows"]:
        """The float32 screen's data-only row terms, from the row norms
        (see :func:`_screen`); None where the screen cannot use them.
        Computed on first use, by :func:`_screen_rows`."""
        return _screen_rows(self._dense())

    @functools.cached_property
    def column_range(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-column minimum and maximum, as float64 ``(lo, hi)``.
        Computed on first use, by :func:`_column_range`."""
        return _column_range(self._dense())

    @functools.cached_property
    def columns(self) -> np.ndarray:
        """The dense matrix transposed: a read-only ``(d, m)`` C-order
        float32 copy, one contiguous row per column. Computed on first
        use, by :func:`_columns`."""
        return _columns(self._dense())

    def __len__(self) -> int:
        return len(self.vectors)

    def __getitem__(self, i: int) -> Vector:
        return self.vectors[i]


@dataclass(frozen=True)
class TopKResult:
    """Neighbors as parallel (ids, scores) arrays, non-decreasing in score."""

    ids: np.ndarray
    scores: np.ndarray
    k: int

    def __post_init__(self):
        ids = np.asarray(self.ids, dtype=np.int64)
        scores = np.asarray(self.scores, dtype=np.float64)
        if ids.shape != scores.shape or ids.ndim != 1:
            raise ValueError("ids and scores must be parallel 1-d arrays")
        if len(set(ids.tolist())) != ids.size:
            raise ValueError("result ids must be unique")
        if np.any(scores[1:] < scores[:-1]):
            raise ValueError("scores must be non-decreasing")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "scores", scores)

    def __len__(self) -> int:
        return self.ids.size


def _as_f64(u: np.ndarray) -> np.ndarray:
    return np.asarray(u, dtype=np.float64)


def _nz_set(u: Vector) -> np.ndarray:
    if isinstance(u, SparseVector):
        return u.indices
    return np.flatnonzero(np.asarray(u))


def _sparse_ip(u: SparseVector, v: SparseVector) -> float:
    i = j = 0
    acc = 0.0
    ui, uv, vi, vv = u.indices, u.values, v.indices, v.values
    while i < ui.size and j < vi.size:
        if ui[i] == vi[j]:
            acc += float(uv[i]) * float(vv[j])
            i += 1
            j += 1
        elif ui[i] < vi[j]:
            i += 1
        else:
            j += 1
    return acc


def _ip(u: Vector, v: Vector) -> float:
    if isinstance(u, SparseVector) and isinstance(v, SparseVector):
        return _sparse_ip(u, v)
    if isinstance(u, SparseVector):
        return float(_as_f64(np.asarray(v)[u.indices]) @ _as_f64(u.values))
    if isinstance(v, SparseVector):
        return float(_as_f64(np.asarray(u)[v.indices]) @ _as_f64(v.values))
    return float(_as_f64(u) @ _as_f64(v))


def _norm_sq(u: Vector) -> float:
    if isinstance(u, SparseVector):
        vals = _as_f64(u.values)
        return float(vals @ vals)
    vals = _as_f64(u)
    return float(vals @ vals)


def _dim_of(u: Vector) -> int:
    return u.dim if isinstance(u, SparseVector) else int(np.asarray(u).shape[0])


def distance(kind: DistanceKind, u: Vector, v: Vector) -> float:
    """Distance between two vectors under ``kind``; smaller = more similar."""
    if _dim_of(u) != _dim_of(v):
        raise ValueError(f"dimension mismatch: {_dim_of(u)} vs {_dim_of(v)}")
    if kind is DistanceKind.L2_SQUARED:
        return _norm_sq(u) - 2.0 * _ip(u, v) + _norm_sq(v)
    if kind is DistanceKind.ANGULAR:
        nu, nv = _norm_sq(u), _norm_sq(v)
        if nu == 0.0 or nv == 0.0:
            raise ValueError("angular distance undefined for zero vectors")
        return 1.0 - _ip(u, v) / np.sqrt(nu * nv)
    if kind is DistanceKind.NEG_INNER_PRODUCT:
        return -_ip(u, v)
    if kind is DistanceKind.NEG_JACCARD:
        a, b = _nz_set(u), _nz_set(v)
        union = np.union1d(a, b).size
        if union == 0:
            return 0.0
        inter = np.intersect1d(a, b).size
        return -inter / union
    raise ValueError(f"unknown distance kind {kind!r}")


_DENSE_KINDS = (DistanceKind.L2_SQUARED, DistanceKind.NEG_INNER_PRODUCT, DistanceKind.ANGULAR)


def _dense_scores(mat: np.ndarray, q: np.ndarray, kind: DistanceKind) -> np.ndarray:
    """Scores of a dense query against the float32 rows of ``mat``.

    Only einsum reductions are used, so each row's score is bit-identical
    however the rows are batched or gathered. L2 upcasts inside the
    subtraction, which gives the same float64 differences as converting
    the rows first, without a float64 copy of them.
    """
    qv = _as_f64(q)
    if qv.shape[0] != mat.shape[1]:
        raise ValueError(f"dimension mismatch: {qv.shape[0]} vs {mat.shape[1]}")
    if kind is DistanceKind.L2_SQUARED:
        diff = np.subtract(mat, qv)
        return np.einsum("ij,ij->i", diff, diff)
    mat = _as_f64(mat)
    if kind is DistanceKind.NEG_INNER_PRODUCT:
        return -np.einsum("ij,j->i", mat, qv)
    norms = np.sqrt(np.einsum("ij,ij->i", mat, mat))
    qn = np.sqrt(qv @ qv)
    if qn == 0.0 or np.any(norms == 0.0):
        raise ValueError("angular distance undefined for zero vectors")
    return 1.0 - np.einsum("ij,j->i", mat, qv) / (norms * qn)


def _is_dense_case(X: Collection, q: Vector, kind: DistanceKind) -> bool:
    return X.is_dense and not isinstance(q, SparseVector) and kind in _DENSE_KINDS


def pairwise_scores(X: Collection, q: Vector, kind: DistanceKind) -> np.ndarray:
    """Scores of ``q`` against every vector in ``X`` (float64)."""
    if _is_dense_case(X, q, kind):
        return _dense_scores(X.vectors, q, kind)
    return np.array([distance(kind, q, X[i]) for i in range(len(X))], dtype=np.float64)


def score_rows(X: Collection, ids: np.ndarray, q: Vector, kind: DistanceKind) -> np.ndarray:
    """Scores of ``q`` against the rows ``ids`` of ``X`` (float64).

    Equal, bit for bit, to ``pairwise_scores(X, q, kind)[ids]``, but only
    the rows asked for are read, and no sub-collection is built or checked.
    """
    if _is_dense_case(X, q, kind):
        return _dense_scores(X.vectors[ids], q, kind)
    return np.array([distance(kind, q, X[int(i)]) for i in ids], dtype=np.float64)


def _smallest(scores: np.ndarray, k: int, ids: Optional[np.ndarray] = None) -> np.ndarray:
    """Positions of the k smallest scores in (score, id) order; the ids
    default to the positions themselves.

    A partial selection finds the k-th score; only the entries scoring at
    most that much (ties included) are then sorted, so the result equals
    the first k entries of the full ``lexsort`` order. A NaN k-th score,
    which means fewer than k non-NaN scores, takes the full sort instead.
    """
    k_eff = min(k, scores.size)
    if 0 < k_eff < scores.size:
        kth = np.partition(scores, k_eff - 1)[k_eff - 1]
        if not np.isnan(kth):
            pos = np.flatnonzero(scores <= kth)
            ties = pos if ids is None else ids[pos]
            return pos[np.lexsort((ties, scores[pos]))[:k_eff]]
    ties = np.arange(scores.size) if ids is None else ids
    # a copy, so that the result does not keep the full order alive
    return np.lexsort((ties, scores))[:k_eff].copy()


def top_k_from_scores(scores: np.ndarray, k: int) -> TopKResult:
    """Select the k smallest scores with (score, id) lexicographic ties,
    where the id of a score is its position."""
    if k < 1:
        raise ValueError("k must be at least 1")
    scores = np.asarray(scores, dtype=np.float64)
    ids = _smallest(scores, k)
    return TopKResult(ids=ids, scores=scores[ids], k=k)


def _rescore(X: Collection, ids: np.ndarray, q: Vector, k: int, kind: DistanceKind) -> TopKResult:
    scores = score_rows(X, ids, q, kind)
    pos = _smallest(scores, k, ids)
    return TopKResult(ids=ids[pos], scores=scores[pos], k=k)


# Fewest candidate rows that rescore (and a k-d leaf batch) screens first.
# Below it, the screen's fixed cost (about a dozen numpy calls) exceeds the
# float64 rows it saves: at d = 64 the two paths broke even near 192 rows
# for L2 and 256 for inner product (README, "Search contract").
_SCREEN_MIN_ROWS = 192


def rescore(X: Collection, ids: np.ndarray, q: Vector, k: int, kind: DistanceKind) -> TopKResult:
    """Exact top-k of the candidate rows ``ids`` (unique, in any order).

    The one rescoring path of every candidate family: :func:`score_rows`,
    then the selection of :func:`top_k_from_scores` with ties broken by
    id, so the result equals brute force over the candidates. From
    ``_SCREEN_MIN_ROWS`` candidates on, only the rows that :func:`_screen`
    keeps are scored, with the same result bit for bit.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size >= _SCREEN_MIN_ROWS:
        kept = _screen(X, q, k, kind, ids)
        if kept is not None:
            ids = kept
    return _rescore(X, ids, q, k, kind)


def _column_range(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column minimum and maximum of ``mat``, as read-only float64.

    A reduction over axis 0 runs one d-long inner loop per row; folding 16
    rows into one wide row first makes those loops 16 times longer, about
    three times faster at d = 64. Min and max are exact, so the grouping
    cannot change the result.
    """
    fold = 16
    m, d = mat.shape
    wide = mat[:m - m % fold].reshape(-1, fold * d)
    tail = mat[m - m % fold:]
    lo = np.concatenate((wide.min(axis=0, initial=np.inf).reshape(fold, d), tail)).min(axis=0)
    hi = np.concatenate((wide.max(axis=0, initial=-np.inf).reshape(fold, d), tail)).max(axis=0)
    return _frozen(lo.astype(np.float64)), _frozen(hi.astype(np.float64))


def _columns(mat: np.ndarray) -> np.ndarray:
    """``mat.T`` as a read-only C-order float32 array of its own.

    The copy lives in an anonymous memory mapping rather than on the
    heap, so it costs its own size in resident memory. Made on the heap
    (``np.ascontiguousarray(mat.T)``) it raised the query-clustered
    benchmark's peak resident set by about 13 MB instead of 5, having
    landed in a heap that earlier large frees had left behind (README,
    BoundedME).
    """
    m, d = mat.shape
    cols = np.frombuffer(mmap.mmap(-1, 4 * m * d), dtype=np.float32).reshape(d, m)
    cols[...] = mat.T
    return _frozen(cols)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


_F32_MAX = float(np.finfo(np.float32).max)
_U32 = 2.0 ** -24  # unit roundoff of float32
_TINY64 = 2.0 ** -1074  # smallest float64 subnormal
_SCREEN_KINDS = (DistanceKind.L2_SQUARED, DistanceKind.NEG_INNER_PRODUCT)
_NO_SCORES = _frozen(np.zeros(0))


def _gamma32(d: int) -> Optional[float]:
    """``g = gamma_{d+2}`` in float32 (see :func:`_screen`); None where it
    is not defined, d + 2 >= 2^23."""
    nu = (d + 2) * _U32
    return None if nu >= 0.5 else nu / (1.0 - nu)


class _ScreenRows(NamedTuple):
    """The float32 screen's data-only row terms (see :func:`_screen`), one
    read-only float64 entry per row: ``c_i = sqrt(n_i + d 2^-149) (1 + g)
    >= |x_i|`` and ``n_i -+ g c_i^2``, where ``n_i = fl32(|x_i|^2)``; and
    the largest ``c_i``."""

    c: np.ndarray
    n_lo: np.ndarray
    n_hi: np.ndarray
    c_max: float


def _screen_rows(mat: np.ndarray) -> Optional[_ScreenRows]:
    """:class:`_ScreenRows` of a float32 matrix; None where ``g`` is not
    defined or a float32 row norm overflows, for the screen then gives up."""
    d = mat.shape[1]
    g = _gamma32(d)
    if g is None:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        n = np.einsum("ij,ij->i", mat, mat).astype(np.float64)
    if not np.isfinite(n).all():
        return None
    c = np.sqrt(n + d * 2.0 ** -149)
    c *= 1.0 + g
    w = c * c
    w *= g
    return _ScreenRows(_frozen(c), _frozen(n - w), _frozen(n + w), float(c.max()))


def _screen(X: Collection, q: Vector, k: int, kind: DistanceKind, ids: Optional[np.ndarray] = None,
            known: np.ndarray = _NO_SCORES) -> Optional[np.ndarray]:
    """Rows of ``ids`` (all rows by default) that may hold the exact top-k,
    from a certified float32 scan; None where the screen does not apply.
    ``known`` are exact scores of other rows, competing for the same k.

    Each row i gets a float32-fast estimate ``a_i`` of its exact score
    ``s_i`` (the float64 value :func:`score_rows` returns) and a bound
    ``e_i >= |a_i - s_i|``. With ``T`` the k-th smallest of ``known`` and
    the ``a_i + e_i``, every row scoring at most the k-th exact score of
    all of them, ties included, satisfies ``a_i - e_i <= s_i <= T``. So
    the rows ``a_i - e_i <= T`` hold those of the top-k, and rescoring them
    gives brute force's answer bit for bit.

    The estimate: ``q32 = fl32(q)``, ``p_i = fl32(x_i . q32)`` (one
    sgemv), ``n_i = fl32(|x_i|^2)``; then ``a_i = n_i - 2 p_i + |q|^2``
    for L2_SQUARED and ``a_i = -p_i`` for NEG_INNER_PRODUCT.

    The bound, with ``gamma_n = n u / (1 - n u)`` (Higham, *Accuracy and
    Stability of Numerical Algorithms*, §3.1), ``u`` the unit roundoff
    (``2^-24`` float32, ``2^-53`` float64), ``g = gamma_{d+2}`` in
    float32, ``c_i >= |x_i|``, ``b >= max(|q|, |q32|)`` and
    ``rho >= |q - q32|``, sums over j taken in any order, fused or not:

    * float32 sums: ``|n_i - |x_i|^2| <= gamma_d |x_i|^2`` and
      ``|p_i - x_i . q32| <= gamma_d sum_j |x_ij q32_j| <= gamma_d c_i b``;
    * underflow: a float32 product may also lose ``2^-150`` in absolute
      terms (additions lose nothing there), so ``n_i`` and ``2 p_i``
      together lose at most ``3 d 2^-150 (1 + gamma_d)`` and ``p_i`` alone
      ``d 2^-150 (1 + gamma_d)``; float64 underflow adds ``O(d 2^-1074)``;
    * rounding q: ``x_i . q - x_i . q32 = x_i . (q - q32)``, at most
      ``c_i rho`` in size by Cauchy-Schwarz;
    * float64: ``|q|^2`` and forming ``a_i`` lose at most
      ``(gamma_d + 3u) (c_i + b)^2``, and ``s_i`` itself is within
      ``gamma_{d+2} (c_i + b)^2`` (L2) or ``gamma_d c_i b`` (IP) of the
      real-number score;
    * widening: ``g`` exceeds float32's ``gamma_d`` by at least
      ``2^-23``, far more than the float64 terms above plus the roundings
      of computing ``c_i``, ``b``, ``rho`` and ``a_i +- e_i`` (each of the
      few float64 operations below loses at most ``u`` of a value below
      ``2 (c_i + b)^2`` for L2_SQUARED, ``3 c_i b`` for
      NEG_INNER_PRODUCT), so ``g`` in place of ``gamma_d``, on the
      relative and the underflow terms alike, covers them.

    Since ``|x_i|^2 + 2 c_i b + |q|^2 <= (c_i + b)^2``, this gives
    ``e_i = g (c_i + b)^2 + 2 rho c_i + 3 d 2^-150 (1 + g)`` for
    L2_SQUARED and ``e_i = (g b + rho) c_i + d 2^-150 (1 + g)`` for
    NEG_INNER_PRODUCT. The data-only terms ``c_i`` and ``n_i -+ g c_i^2``
    are computed once per collection (:attr:`Collection.screen_rows`), so
    a query forms, in float64,
    ``a_i -+ e_i = (n_i -+ g c_i^2) -+ 2 (g b + rho) c_i - 2 p_i
    + (|q|^2 -+ (g b^2 + 3 d 2^-150 (1 + g)))`` for L2_SQUARED and
    ``-p_i -+ ((g b + rho) c_i + d 2^-150 (1 + g))`` for
    NEG_INNER_PRODUCT.

    The bound assumes no overflow, so the screen gives up (None) when
    ``|q|`` reaches float32's largest value, a row norm overflows float32,
    or ``b max_i c_i`` exceeds half that value (every float32 partial sum
    of ``p_i`` is at most ``(1 + gamma_d) c_i b`` in size, so none
    overflows); also when there are no more than k rows and known scores
    together, for other kinds (ANGULAR keeps its zero-row check), sparse
    vectors, and a query of the wrong shape (the full path raises).
    """
    if kind not in _SCREEN_KINDS or not X.is_dense or isinstance(q, SparseVector):
        return None
    mat = X.vectors
    m, d = mat.shape
    qv = _as_f64(q)
    if k >= (m if ids is None else ids.size) + known.size or qv.shape != (d,):
        return None
    qq = float(qv @ qv)
    rows = X.screen_rows
    if not qq < _F32_MAX * _F32_MAX or rows is None:  # also catches a NaN or infinite q
        return None
    g = _gamma32(d)
    q32 = qv.astype(np.float32)  # finite: every |q_j| <= |q| < float32's largest value
    r = qv - q32  # exact: q32 is the rounding of qv
    rho = math.sqrt(float(r @ r) + d * _TINY64) * (1.0 + g)
    b = math.sqrt(qq + d * _TINY64) * (1.0 + g) + rho
    if not b * rows.c_max <= 0.5 * _F32_MAX:
        return None
    l2 = kind is DistanceKind.L2_SQUARED
    p32 = (mat if ids is None else mat.take(ids, axis=0)) @ q32
    v = np.multiply(p32, -2.0 if l2 else -1.0, dtype=np.float64)  # exact
    c = rows.c if ids is None else rows.c.take(ids)
    lin = c * (2.0 * (g * b + rho) if l2 else g * b + rho)  # the bound's term linear in c_i
    if l2:
        t = g * b * b + 3 * d * 2.0 ** -150 * (1.0 + g)
        hi = rows.n_hi + lin if ids is None else rows.n_hi.take(ids) + lin
        lo = rows.n_lo - lin if ids is None else rows.n_lo.take(ids) - lin
        hi += v
        hi += qq + t
        lo += v
        lo += qq - t
    else:
        lin += d * 2.0 ** -150 * (1.0 + g)
        hi = v + lin
        lo = v - lin
    if known.size:
        hi = np.concatenate((known, hi))
    kth = np.partition(hi, k - 1)[k - 1]
    keep = np.flatnonzero(lo <= kth)
    return keep if ids is None else ids[keep]


def brute_force_topk(X: Collection, q: Vector, k: int, kind: DistanceKind) -> TopKResult:
    """Exact top-k of X for q: the oracle every other index is compared to.

    Dense L2_SQUARED and NEG_INNER_PRODUCT queries rescore only the rows a
    certified float32 screen keeps (:func:`_screen`); the result is the
    same, ids and scores bit for bit, as selecting from
    :func:`pairwise_scores`, which every other case does.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    cand = _screen(X, q, k, kind)
    if cand is None:
        return top_k_from_scores(pairwise_scores(X, q, kind), k)
    return _rescore(X, cand, q, k, kind)


def recall(exact: TopKResult, approx: TopKResult, k: int) -> float:
    """|exact ids ∩ approx ids| / k."""
    if len(exact) < k:
        raise ValueError("exact result must have k entries")
    shared = np.intersect1d(exact.ids[:k], approx.ids).size
    return shared / k


def epsilon_valid(exact_kth_score: float, candidate_score: float, eps: float) -> bool:
    """Is the candidate within a (1+eps) factor of the exact k-th score?

    Only meaningful for non-negative (metric) scores; negative inner-product
    scores are rejected.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if exact_kth_score < 0 or candidate_score < 0:
        raise ValueError("epsilon validity requires non-negative metric scores")
    return candidate_score <= (1.0 + eps) * exact_kth_score
