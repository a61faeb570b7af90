"""k-d tree with exact best-first search under squared L2.

Axes rotate round-robin with depth and each split happens at the lower
median. Every point whose split-axis value ties the median is routed right,
except the median element itself, which stays left; this keeps both sides
non-empty even when the collection contains duplicates, so construction
always terminates.

Search visits leaves in order of a certified lower bound on their scores
(Arya & Mount's priority search, made exact): a leaf's bound is the largest
squared plane distance over the ancestors whose split puts it on the far
side from the query. Leaves are scored in growing batches until the next
bound exceeds the k-th best score, each large batch through the certified
float32 screen of brute force, so the answer equals brute force's, ids and
scores bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from annkit.core import _SCREEN_MIN_ROWS, Collection, DistanceKind, TopKResult, _screen, _smallest, score_rows
from annkit.core import pairwise_scores  # noqa: F401 -- perfbench traces calls through this name
from annkit.trees.preorder import grow, leaf_offsets, leaf_paths, node_view

__all__ = ["KdTree", "kd_build", "kd_search_exact"]


@dataclass
class KdTree:
    """A k-d tree as its pre-order arrays (:mod:`annkit.trees.preorder`)."""

    leaf_size: np.ndarray  # (n_nodes,) int64 pre-order: a leaf's size, -1 for an inner node
    leaf_ids: np.ndarray  # int64, the leaves' ids in pre-order, each leaf's ascending
    axes: np.ndarray  # (n_inner,) int64 split axis per inner node, pre-order
    splits: np.ndarray  # (n_inner,) float64 split value per inner node
    leaf_capacity: int
    dim: int
    size: int
    paths: np.ndarray = field(init=False, repr=False, compare=False)  # see leaf_paths
    offsets: np.ndarray = field(init=False, repr=False, compare=False)  # see leaf_offsets

    def __post_init__(self):
        self.paths = leaf_paths(self.leaf_size)
        self.offsets = leaf_offsets(self.leaf_size)

    @cached_property
    def root(self):
        """The tree as linked nodes, built on first read: see :func:`node_view`."""
        return node_view(self.leaf_size, self.leaf_ids)


def kd_build(X: Collection, leaf_capacity: int = 1) -> KdTree:
    """Build a k-d tree over a dense collection."""
    if not X.is_dense:
        raise ValueError("k-d trees require dense vectors")
    if leaf_capacity < 1:
        raise ValueError("leaf capacity must be at least 1")
    axes, splits = [], []

    def split(ids, depth):
        axis = depth % X.dim
        vals = X.vectors[ids, axis]
        mid = np.lexsort((ids, vals))[(ids.size - 1) // 2]
        axes.append(axis)
        splits.append(float(vals[mid]))
        left = (vals < vals[mid]) | (ids == ids[mid])
        return ids[left], ids[~left]

    leaf_size, leaf_ids = grow(len(X), leaf_capacity, split)  # fills axes and splits
    return KdTree(leaf_size, leaf_ids, np.array(axes, dtype=np.int64), np.array(splits, dtype=np.float64),
                  leaf_capacity=leaf_capacity, dim=X.dim, size=len(X))


def _leaf_bounds(tree: KdTree, q64: np.ndarray) -> np.ndarray:
    """Lower bound on every score in each leaf.

    A leaf on the far side of a split at ``s`` on axis ``a`` holds only
    points with ``|x_a - q_a| >= |s - q_a|`` (ties to the median go right,
    the median itself left, matching the near side chosen here). Rounding
    is monotone and a row's score adds non-negative squares, so the
    float64 ``diff * diff`` never exceeds any float64 score in that leaf.
    A NaN or infinite coordinate admits no such test, so every bound is 0.
    """
    if not np.isfinite(q64).all():
        return np.zeros(tree.paths.shape[0])
    diff = q64[tree.axes] - tree.splits
    sq = diff * diff
    far = np.zeros(2 * diff.size + 1)  # the last slot pads short paths
    far[0:-1:2] = np.where(diff > 0, sq, 0.0)  # leaves left of a split
    far[1:-1:2] = np.where(diff <= 0, sq, 0.0)  # leaves right of a split
    return far[tree.paths].max(axis=1)


def kd_search_exact(tree: KdTree, X: Collection, q: np.ndarray, k: int) -> TopKResult:
    """Exact top-k: leaves in ``(bound, leaf)`` order, scored in batches of
    1, 4, 16, ... leaves until the next bound exceeds the k-th best score.

    Matches :func:`annkit.core.brute_force_topk` on ids and scores: a leaf
    is skipped only when its bound alone certifies that nothing in it can
    improve (or tie) the best set. Within a batch of ``_SCREEN_MIN_ROWS``
    rows or more, :func:`annkit.core._screen` drops the rows whose float32
    lower bound exceeds the k-th smallest of the best scores and the
    batch's upper bounds, so only the rest are scored in float64.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    q64 = np.asarray(q, dtype=np.float64)
    if q64.shape[0] != tree.dim:
        raise ValueError("query dimension mismatch")
    bounds = _leaf_bounds(tree, q64)
    order = np.argsort(bounds, kind="stable")
    sorted_bounds = bounds[order]
    best_ids = np.zeros(0, dtype=np.int64)
    best_scores = np.zeros(0)
    start, batch = 0, 1
    while start < order.size:
        stop = min(start + batch, order.size)
        if best_ids.size == k:
            stop = min(stop, int(np.searchsorted(sorted_bounds, best_scores[-1], side="right")))
            if stop <= start:
                break
        leaves = order[start:stop]
        first = tree.offsets[leaves]
        counts = tree.offsets[leaves + 1] - first
        # the batch's leaves' runs of leaf_ids, back to back
        shift = np.repeat(first - (np.cumsum(counts) - counts), counts)
        ids = tree.leaf_ids[shift + np.arange(shift.size)]
        if ids.size >= _SCREEN_MIN_ROWS:
            kept = _screen(X, q64, k, DistanceKind.L2_SQUARED, ids, best_scores)
            if kept is not None:
                ids = kept
        scores = score_rows(X, ids, q64, DistanceKind.L2_SQUARED)
        ids = np.concatenate((best_ids, ids))
        scores = np.concatenate((best_scores, scores))
        pos = _smallest(scores, k, ids)
        best_ids, best_scores = ids[pos], scores[pos]
        start, batch = stop, batch * 4
    return TopKResult(ids=best_ids, scores=best_scores, k=k)
