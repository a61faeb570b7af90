"""Clustering-based retrieval: KMeans training, centroid routing, and
two-stage search over inverted lists.

Euclidean KMeans is plain Lloyd with k-means++ style seeding. Spherical
KMeans assigns by maximal cosine and renormalizes means; it is the right
coarse quantizer for inner-product retrieval, where points should group by
direction rather than location.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from annkit.core import Collection, DistanceKind, TopKResult, _smallest, pairwise_scores, rescore

__all__ = ["KMeansKind", "KMeansModel", "IvfIndex", "kmeans_train", "build_ivf", "inverted_lists", "route",
           "ivf_search"]


class KMeansKind(enum.Enum):
    EUCLIDEAN = "euclidean"
    SPHERICAL = "spherical"


@dataclass(frozen=True)
class KMeansModel:
    """A trained coarse quantizer. The centroids are checked and wrapped
    in ``centroid_set`` once, when the model is made; ``centroids`` is
    that Collection's read-only matrix. The fields cannot be reassigned,
    so the two cannot drift apart."""

    centroids: np.ndarray  # (C, d) float32
    assignment: np.ndarray  # (m,) int64
    objective_trace: list
    kind: KMeansKind
    centroid_set: Collection = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        centroid_set = Collection(self.centroids)
        object.__setattr__(self, "centroid_set", centroid_set)
        object.__setattr__(self, "centroids", centroid_set.vectors)

    @property
    def n_clusters(self) -> int:
        return self.centroids.shape[0]


@dataclass
class IvfIndex:
    model: KMeansModel
    lists: list  # cluster id -> sorted int64 array of member ids
    kind: DistanceKind  # query-time routing/scoring kind


# Rows per block of the seeding and objective passes: their float64
# differences go through one reused (rows, d) buffer of at most 512 KiB.
_BLOCK_ELEMS = 1 << 16


def _sq_dists_rowwise(mat: np.ndarray, centroids: np.ndarray, assign, out: np.ndarray) -> np.ndarray:
    """``out[i] = |mat[i] - centroids[assign[i]]|^2``, or against the one
    row ``centroids[assign]`` when ``assign`` is an int. The differences
    are taken block by block in one reused buffer; each value equals the
    full-size difference einsum's bit for bit."""
    m, d = mat.shape
    step = max(1, _BLOCK_ELEMS // d)
    buf = np.empty((min(step, m), d))
    for s in range(0, m, step):
        e = min(s + step, m)
        target = centroids[assign] if isinstance(assign, int) else centroids[assign[s:e]]
        diff = np.subtract(mat[s:e], target, out=buf[:e - s])
        np.einsum("ij,ij->i", diff, diff, out=out[s:e])
    return out


def _plusplus_init(mat: np.ndarray, C: int, rng: np.random.Generator) -> np.ndarray:
    """Distance-weighted seeding."""
    m = mat.shape[0]
    centroids = np.empty((C, mat.shape[1]))
    centroids[0] = mat[rng.integers(m)]
    d2, latest = _sq_dists_rowwise(mat, centroids, 0, np.empty(m)), np.empty(m)
    for c in range(1, C):
        total = d2.sum()
        if total <= 0:
            centroids[c] = mat[rng.integers(m)]
        else:
            centroids[c] = mat[rng.choice(m, p=d2 / total)]
        if c + 1 < C:  # the last centroid's distances would go unused
            np.minimum(d2, _sq_dists_rowwise(mat, centroids, c, latest), out=d2)
    return centroids


def _normalize_rows(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return mat / norms


def _sq_norms(mat: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", mat, mat)


def _sq_dists(mat: np.ndarray, sq_norms: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(m, C) squared distances ``(|x|^2 - 2 x.c) + |c|^2``, built in place
    on one GEMM's output. Scaling by -2 is exact and ``a + (-b)`` is
    ``a - b`` in IEEE arithmetic, so the bits equal the three-temporary
    expression. The GEMM is not split by rows: smaller row blocks can
    change its float64 products."""
    d2 = mat @ centroids.T
    d2 *= -2.0
    d2 += sq_norms[:, None]
    d2 += _sq_norms(centroids)
    return d2


def _assign(mat: np.ndarray, centroids: np.ndarray, kind: KMeansKind,
            sq_norms: np.ndarray | None = None) -> np.ndarray:
    """Nearest centroid per row. ``sq_norms`` are ``mat``'s squared row
    norms, computed here when not given (Euclidean only)."""
    if kind is KMeansKind.EUCLIDEAN:
        if sq_norms is None:
            sq_norms = _sq_norms(mat)
        return np.argmin(_sq_dists(mat, sq_norms, centroids), axis=1)
    return np.argmax(mat @ centroids.T, axis=1)


def _objective(mat: np.ndarray, centroids: np.ndarray, assign: np.ndarray, kind: KMeansKind) -> float:
    if kind is KMeansKind.EUCLIDEAN:
        return float(_sq_dists_rowwise(mat, centroids, assign, np.empty(mat.shape[0])).sum())
    return float(-np.einsum("ij,ij->i", mat, centroids[assign]).sum())


def _lloyd_means(mat: np.ndarray, assign: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One Lloyd update of float64 ``mat``'s rows under ``assign``.

    Returns a copy of ``centroids`` in which every centroid with members
    moves to their mean, and the member counts; a centroid without members
    keeps its place. Each (cluster, column) bin of the one weighted
    ``bincount`` adds its members in row order from +0.0, as
    ``mat[members].mean(axis=0)`` does, and the division is the same, so
    the means are that reduce's bit for bit. A single column is the
    exception: numpy sums it pairwise, so there each cluster's mean is taken
    by that same reduce over its slice of the rows sorted by cluster.
    """
    C, d = centroids.shape
    counts = np.bincount(assign, minlength=C)
    out = centroids.copy()
    if d == 1:
        rows = mat[np.argsort(assign, kind="stable")]
        ends = np.cumsum(counts)
        for c in np.flatnonzero(counts):
            out[c] = rows[ends[c] - counts[c]:ends[c]].mean(axis=0)
        return out, counts
    bins = (assign * d)[:, None] + np.arange(d)
    sums = np.bincount(bins.ravel(), weights=mat.ravel(), minlength=C * d).reshape(C, d)
    filled = counts > 0
    out[filled] = sums[filled] / counts[filled, None]
    return out, counts


def kmeans_train(
    X: Collection,
    C: int,
    kind: KMeansKind = KMeansKind.EUCLIDEAN,
    max_iters: int = 50,
    seed: int = 0,
) -> KMeansModel:
    """Lloyd iterations to an assignment fixpoint or the iteration cap.

    Empty clusters are repaired by re-seeding them at the costliest point of
    the largest cluster, which never increases the Euclidean objective.
    """
    trace = []
    centroids, assign = _lloyd(X.vectors.astype(np.float64), C, kind, max_iters, seed, trace)
    return KMeansModel(
        centroids=centroids.astype(np.float32),
        assignment=assign.astype(np.int64),
        objective_trace=trace,
        kind=kind,
    )


def _lloyd(mat: np.ndarray, C: int, kind: KMeansKind, max_iters: int, seed: int,
           trace: list | None = None) -> tuple[np.ndarray, np.ndarray]:
    """:func:`kmeans_train` on float64 rows: returns the float64 centroids
    and the assignment, and appends the objective after every assignment to
    ``trace`` when one is given (PQ keeps none)."""
    m = mat.shape[0]
    if not 1 <= C <= m:
        raise ValueError("need 1 <= C <= m")
    rng = np.random.default_rng(seed)
    sq_norms = _sq_norms(mat) if kind is KMeansKind.EUCLIDEAN else None
    centroids = _plusplus_init(mat, C, rng)
    if kind is KMeansKind.SPHERICAL:
        centroids = _normalize_rows(centroids)
    assign = _assign(mat, centroids, kind, sq_norms)
    if trace is not None:
        trace.append(_objective(mat, centroids, assign, kind))

    for _ in range(max_iters):
        new_centroids, counts = _lloyd_means(mat, assign, centroids)
        if kind is KMeansKind.SPHERICAL:
            new_centroids = _normalize_rows(new_centroids)
        # repair empty clusters before the next assignment
        for c in np.flatnonzero(counts == 0):
            largest = int(np.argmax(counts))
            members = np.flatnonzero(assign == largest)
            diff = mat[members] - new_centroids[largest]
            worst = members[int(np.argmax(np.einsum("ij,ij->i", diff, diff)))]
            new_centroids[c] = mat[worst]
            if kind is KMeansKind.SPHERICAL:
                new_centroids[c] = _normalize_rows(new_centroids[c][None, :])[0]
            assign[worst] = c
            counts = np.bincount(assign, minlength=C)
        centroids = new_centroids
        new_assign = _assign(mat, centroids, kind, sq_norms)
        if trace is not None:
            trace.append(_objective(mat, centroids, new_assign, kind))
        if np.array_equal(new_assign, assign):
            assign = new_assign
            break
        assign = new_assign
    return centroids, assign


def build_ivf(X: Collection, C: int, kind: DistanceKind = DistanceKind.L2_SQUARED,
              max_iters: int = 50, seed: int = 0) -> IvfIndex:
    """Train the coarse quantizer and materialize the inverted lists.

    ``C`` defaults to ceil(sqrt(m)) when passed as 0. MIPS indexes train
    spherically, NN indexes with plain KMeans.
    """
    if C == 0:
        C = int(np.ceil(np.sqrt(len(X))))
    km_kind = KMeansKind.SPHERICAL if kind is DistanceKind.NEG_INNER_PRODUCT else KMeansKind.EUCLIDEAN
    model = kmeans_train(X, C, km_kind, max_iters, seed)
    return IvfIndex(model=model, lists=inverted_lists(model.assignment, model.n_clusters), kind=kind)


def inverted_lists(assignment: np.ndarray, C: int) -> list:
    """Cluster id -> sorted int64 ids of its members, from one stable sort
    of the assignment split at the cluster sizes."""
    order = np.argsort(assignment, kind="stable").astype(np.int64, copy=False)
    return np.split(order, np.cumsum(np.bincount(assignment, minlength=C))[:-1])


def route(index: IvfIndex, q: np.ndarray, ell: int) -> np.ndarray:
    """Top-ell clusters by the index's query kind over the centroids, in
    ``(score, id)`` order, scored against the model's own centroid
    Collection, with no ``Collection`` or ``TopKResult`` built per query."""
    C = index.model.n_clusters
    if not 1 <= ell <= C:
        raise ValueError("need 1 <= ell <= C")
    return _smallest(pairwise_scores(index.model.centroid_set, q, index.kind), ell)


def ivf_search(index: IvfIndex, X: Collection, q: np.ndarray, k: int, ell: int) -> TopKResult:
    """Route, then brute-force the union of the routed inverted lists."""
    clusters = route(index, q, ell)
    candidates = np.concatenate([index.lists[int(c)] for c in clusters])
    return rescore(X, np.sort(candidates), q, k, index.kind)
