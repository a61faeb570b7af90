"""k-d tree with exact bound-pruned search under squared L2.

Axes rotate round-robin with depth and each split happens at the lower
median. Every point whose split-axis value ties the median is routed right,
except the median element itself, which stays left; this keeps both sides
non-empty even when the collection contains duplicates, so construction
always terminates.

Search orders the leaves by a certified lower bound on their scores (as
in Arya & Mount's priority search, made exact): a leaf's bound is the largest
squared plane distance over the ancestors whose split puts it on the far
side from the query. The rows of the fewest leaves in bound order that
hold k rows are rescored first; their k-th score ``t`` is at least the
true k-th score, so every leaf whose bound exceeds ``t`` is skipped and
the rest are rescored, by brute force when none is skipped. The answer
equals brute force's, ids and scores bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from annkit.core import Collection, DistanceKind, TopKResult, brute_force_topk, rescore
from annkit.core import pairwise_scores  # noqa: F401 -- perfbench traces calls through this name
from annkit.trees.preorder import grow, leaf_offsets, levels, node_view

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
    levels: list = field(init=False, repr=False, compare=False)  # see levels
    offsets: np.ndarray = field(init=False, repr=False, compare=False)  # see leaf_offsets

    def __post_init__(self):
        self.levels = levels(self.leaf_size)
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
        return np.zeros(tree.offsets.size - 1)
    diff = q64[tree.axes] - tree.splits
    sq = diff * diff
    far = np.empty(2 * diff.size)  # slot 2 * j + side of split j
    far[0::2] = np.where(diff > 0, sq, 0.0)  # nodes left of a split
    far[1::2] = np.where(diff <= 0, sq, 0.0)  # nodes right of a split
    bound = np.zeros(tree.leaf_size.size)  # inner node j at j, leaf i at ~i
    for codes, parents, slots in tree.levels:  # a node's bound is its parent's or its far term
        bound[codes] = np.maximum(bound[parents], far[slots])
    return bound[tree.axes.size:][::-1]


def _leaf_rows(tree: KdTree, leaves: np.ndarray) -> np.ndarray:
    """The rows of ``leaves``: their runs of ``leaf_ids``, back to back."""
    first = tree.offsets[leaves]
    counts = tree.offsets[leaves + 1] - first
    shift = np.repeat(first - (np.cumsum(counts) - counts), counts)
    return tree.leaf_ids[shift + np.arange(shift.size)]


def kd_search_exact(tree: KdTree, X: Collection, q: np.ndarray, k: int) -> TopKResult:
    """Exact top-k in two rescores: the fewest leaves, in ``(bound, leaf)``
    order, that hold k rows give a k-th score ``t``; then the rows of every
    leaf whose bound is not above ``t`` are rescored, or brute force
    answers when that is every leaf.

    Matches :func:`annkit.core.brute_force_topk` on ids and scores: every
    row of a skipped leaf scores at least its bound, which exceeds ``t``,
    and ``t`` is at least the true k-th score. ``t`` is +inf when there are
    fewer than k rows, and a NaN ``t`` keeps every leaf.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    q64 = np.asarray(q, dtype=np.float64)
    if q64.shape != (tree.dim,):
        raise ValueError("query dimension mismatch")
    bounds = _leaf_bounds(tree, q64)
    order = np.argsort(bounds, kind="stable")
    first = order[:int(np.searchsorted(np.cumsum(np.diff(tree.offsets)[order]), k)) + 1]
    seed = rescore(X, _leaf_rows(tree, first), q64, k, DistanceKind.L2_SQUARED)
    t = seed.scores[k - 1] if len(seed) == k else np.inf
    kept = np.flatnonzero(~(bounds > t))
    if kept.size == bounds.size:
        return brute_force_topk(X, q64, k, DistanceKind.L2_SQUARED)
    return rescore(X, _leaf_rows(tree, kept), q64, k, DistanceKind.L2_SQUARED)
