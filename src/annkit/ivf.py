"""Clustering-based retrieval: KMeans training, centroid routing, and
two-stage search over inverted lists.

Euclidean KMeans is plain Lloyd with k-means++ style seeding. Spherical
KMeans assigns by maximal cosine and renormalizes means; it is the right
coarse quantizer for inner-product retrieval, where points should group by
direction rather than location.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from annkit.core import Collection, DistanceKind, TopKResult, pairwise_scores, rescore, top_k_from_scores

__all__ = ["KMeansKind", "KMeansModel", "IvfIndex", "kmeans_train", "build_ivf", "route", "ivf_search"]


class KMeansKind(enum.Enum):
    EUCLIDEAN = "euclidean"
    SPHERICAL = "spherical"


@dataclass
class KMeansModel:
    centroids: np.ndarray  # (C, d) float32
    assignment: np.ndarray  # (m,) int64
    objective_trace: list
    kind: KMeansKind

    @property
    def n_clusters(self) -> int:
        return self.centroids.shape[0]


@dataclass
class IvfIndex:
    model: KMeansModel
    lists: list  # cluster id -> sorted int64 array of member ids
    kind: DistanceKind  # query-time routing/scoring kind


def _plusplus_init(mat: np.ndarray, C: int, rng: np.random.Generator) -> np.ndarray:
    """Distance-weighted seeding."""
    m = mat.shape[0]
    centroids = np.empty((C, mat.shape[1]))
    centroids[0] = mat[rng.integers(m)]
    d2 = np.einsum("ij,ij->i", mat - centroids[0], mat - centroids[0])
    for c in range(1, C):
        total = d2.sum()
        if total <= 0:
            centroids[c] = mat[rng.integers(m)]
        else:
            centroids[c] = mat[rng.choice(m, p=d2 / total)]
        diff = mat - centroids[c]
        d2 = np.minimum(d2, np.einsum("ij,ij->i", diff, diff))
    return centroids


def _normalize_rows(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return mat / norms


def _assign(mat: np.ndarray, centroids: np.ndarray, kind: KMeansKind) -> np.ndarray:
    if kind is KMeansKind.EUCLIDEAN:
        d2 = (
            np.einsum("ij,ij->i", mat, mat)[:, None]
            - 2.0 * (mat @ centroids.T)
            + np.einsum("ij,ij->i", centroids, centroids)[None, :]
        )
        return np.argmin(d2, axis=1)
    return np.argmax(mat @ centroids.T, axis=1)


def _objective(mat: np.ndarray, centroids: np.ndarray, assign: np.ndarray, kind: KMeansKind) -> float:
    if kind is KMeansKind.EUCLIDEAN:
        diff = mat - centroids[assign]
        return float(np.einsum("ij,ij->i", diff, diff).sum())
    return float(-np.einsum("ij,ij->i", mat, centroids[assign]).sum())


def _lloyd_means(mat: np.ndarray, assign: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """One Lloyd update: a copy of ``centroids`` in which every centroid
    with members moves to their mean, ``mat[members].mean(axis=0)``; a
    centroid without members keeps its place."""
    out = centroids.copy()
    for c in range(out.shape[0]):
        members = np.flatnonzero(assign == c)
        if members.size:
            out[c] = mat[members].mean(axis=0)
    return out


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
    m = len(X)
    if not 1 <= C <= m:
        raise ValueError("need 1 <= C <= m")
    rng = np.random.default_rng(seed)
    mat = X.vectors.astype(np.float64)
    centroids = _plusplus_init(mat, C, rng)
    if kind is KMeansKind.SPHERICAL:
        centroids = _normalize_rows(centroids)
    assign = _assign(mat, centroids, kind)
    trace = [_objective(mat, centroids, assign, kind)]

    for _ in range(max_iters):
        new_centroids = _lloyd_means(mat, assign, centroids)
        if kind is KMeansKind.SPHERICAL:
            new_centroids = _normalize_rows(new_centroids)
        # repair empty clusters before the next assignment
        counts = np.bincount(assign, minlength=C)
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
        new_assign = _assign(mat, centroids, kind)
        trace.append(_objective(mat, centroids, new_assign, kind))
        if np.array_equal(new_assign, assign):
            assign = new_assign
            break
        assign = new_assign

    return KMeansModel(
        centroids=centroids.astype(np.float32),
        assignment=assign.astype(np.int64),
        objective_trace=trace,
        kind=kind,
    )


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
    lists = [np.flatnonzero(model.assignment == c).astype(np.int64) for c in range(model.n_clusters)]
    return IvfIndex(model=model, lists=lists, kind=kind)


def route(index: IvfIndex, q: np.ndarray, ell: int) -> np.ndarray:
    """Top-ell clusters by the index's query kind over the centroids."""
    C = index.model.n_clusters
    if not 1 <= ell <= C:
        raise ValueError("need 1 <= ell <= C")
    scores = pairwise_scores(Collection(index.model.centroids), q, index.kind)
    return top_k_from_scores(scores, ell).ids


def ivf_search(index: IvfIndex, X: Collection, q: np.ndarray, k: int, ell: int) -> TopKResult:
    """Route, then brute-force the union of the routed inverted lists."""
    clusters = route(index, q, ell)
    candidates = np.concatenate([index.lists[int(c)] for c in clusters])
    return rescore(X, np.sort(candidates), q, k, index.kind)
