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
from typing import NamedTuple, Optional

import numpy as np

from annkit.core import _SCREEN_MIN_ROWS, Collection, DistanceKind, TopKResult, _screen, _smallest, score_rows
from annkit.core import pairwise_scores  # noqa: F401 -- perfbench traces calls through this name

__all__ = ["KdNode", "KdTree", "kd_build", "kd_search_exact"]


@dataclass
class KdNode:
    axis: int = -1
    split_value: float = 0.0
    left: Optional["KdNode"] = None
    right: Optional["KdNode"] = None
    ids: Optional[np.ndarray] = None  # leaf payload

    @property
    def is_leaf(self) -> bool:
        return self.ids is not None


class _Layout(NamedTuple):
    """Flat arrays derived from the nodes, for search. ``leaf_size``,
    ``axes``, ``splits`` and ``leaf_ids`` are also the tree's saved form."""

    leaf_size: np.ndarray  # (n_nodes,) pre-order: a leaf's size, -1 for an inner node
    axes: np.ndarray  # (n_inner,) split axis per inner node, pre-order
    splits: np.ndarray  # (n_inner,) split value per inner node
    paths: np.ndarray  # (n_leaves, depth) ancestor slots per leaf, 2 * n_inner pads
    offsets: np.ndarray  # (n_leaves + 1,) leaf i holds leaf_ids[offsets[i]:offsets[i + 1]]
    leaf_ids: np.ndarray


def _layout(root: KdNode) -> _Layout:
    """Number inner nodes and leaves in pre-order. Each ancestor of a leaf
    is recorded as the slot ``2 * node + side``, side 1 when the leaf lies
    right of that node's split, 0 when left."""
    leaf_size, axes, splits, paths, parts = [], [], [], [], []
    stack = [(root, ())]
    while stack:
        node, path = stack.pop()
        if node.is_leaf:
            leaf_size.append(node.ids.size)
            paths.append(path)
            parts.append(node.ids)
            continue
        leaf_size.append(-1)
        j = len(axes)
        axes.append(node.axis)
        splits.append(node.split_value)
        stack.append((node.right, path + (2 * j + 1,)))
        stack.append((node.left, path + (2 * j,)))
    pad = np.full((len(paths), max(1, max(map(len, paths)))), 2 * len(axes), dtype=np.intp)
    for row, path in zip(pad, paths):
        row[:len(path)] = path
    offsets = np.cumsum([0] + [ids.size for ids in parts], dtype=np.intp)
    return _Layout(np.array(leaf_size, dtype=np.int64), np.array(axes, dtype=np.int64),
                   np.array(splits, dtype=np.float64), pad, offsets, np.concatenate(parts))


@dataclass
class KdTree:
    root: KdNode
    leaf_capacity: int
    dim: int
    size: int
    layout: _Layout = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.layout = _layout(self.root)


def _build(X: np.ndarray, ids: np.ndarray, depth: int, m0: int, d: int) -> KdNode:
    if ids.size <= m0:
        return KdNode(ids=np.sort(ids))
    axis = depth % d
    vals = X[ids, axis]
    order = np.lexsort((ids, vals))
    mid = (ids.size - 1) // 2
    median_id = ids[order[mid]]
    median_val = float(vals[order[mid]])
    left_mask = (vals < median_val) | (ids == median_id)
    left_ids = ids[left_mask]
    right_ids = ids[~left_mask]
    node = KdNode(axis=axis, split_value=median_val)
    node.left = _build(X, left_ids, depth + 1, m0, d)
    node.right = _build(X, right_ids, depth + 1, m0, d)
    return node


def kd_build(X: Collection, leaf_capacity: int = 1) -> KdTree:
    """Build a k-d tree over a dense collection."""
    if not X.is_dense:
        raise ValueError("k-d trees require dense vectors")
    if leaf_capacity < 1:
        raise ValueError("leaf capacity must be at least 1")
    ids = np.arange(len(X), dtype=np.int64)
    root = _build(X.vectors, ids, 0, leaf_capacity, X.dim)
    return KdTree(root=root, leaf_capacity=leaf_capacity, dim=X.dim, size=len(X))


def _leaf_bounds(layout: _Layout, q64: np.ndarray) -> np.ndarray:
    """Lower bound on every score in each leaf.

    A leaf on the far side of a split at ``s`` on axis ``a`` holds only
    points with ``|x_a - q_a| >= |s - q_a|`` (ties to the median go right,
    the median itself left, matching the near side chosen here). Rounding
    is monotone and a row's score adds non-negative squares, so the
    float64 ``diff * diff`` never exceeds any float64 score in that leaf.
    A NaN or infinite coordinate admits no such test, so every bound is 0.
    """
    if not np.isfinite(q64).all():
        return np.zeros(layout.paths.shape[0])
    diff = q64[layout.axes] - layout.splits
    sq = diff * diff
    far = np.zeros(2 * diff.size + 1)  # the last slot pads short paths
    far[0:-1:2] = np.where(diff > 0, sq, 0.0)  # leaves left of a split
    far[1:-1:2] = np.where(diff <= 0, sq, 0.0)  # leaves right of a split
    return far[layout.paths].max(axis=1)


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
    layout = tree.layout
    bounds = _leaf_bounds(layout, q64)
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
        first = layout.offsets[leaves]
        counts = layout.offsets[leaves + 1] - first
        # the batch's leaves' runs of leaf_ids, back to back
        shift = np.repeat(first - (np.cumsum(counts) - counts), counts)
        ids = layout.leaf_ids[shift + np.arange(shift.size)]
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
