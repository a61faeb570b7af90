"""k-d tree with exact backtracking search under squared L2.

Axes rotate round-robin with depth and each split happens at the lower
median. Every point whose split-axis value ties the median is routed right,
except the median element itself, which stays left; this keeps both sides
non-empty even when the collection contains duplicates, so construction
always terminates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from annkit.core import Collection, DistanceKind, TopKResult, score_rows
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


@dataclass
class KdTree:
    root: KdNode
    leaf_capacity: int
    dim: int
    size: int


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


def kd_search_exact(tree: KdTree, X: Collection, q: np.ndarray, k: int) -> TopKResult:
    """Exact top-k: defeatist descent plus backtracking certification.

    Matches :func:`annkit.core.brute_force_topk` on ids and scores; a branch
    is pruned only when the splitting plane alone certifies that nothing on
    the far side can improve (or tie) the current best set.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    q64 = np.asarray(q, dtype=np.float64)
    if q64.shape[0] != tree.dim:
        raise ValueError("query dimension mismatch")
    best_ids = np.zeros(0, dtype=np.int64)
    best_scores = np.zeros(0)

    def visit(node: KdNode) -> None:
        nonlocal best_ids, best_scores
        if node.is_leaf:
            scores = score_rows(X, node.ids, q64, DistanceKind.L2_SQUARED)
            # a leaf whose every score is above the k-th best cannot enter
            if best_ids.size < k or scores.min() <= best_scores[-1]:
                ids = np.concatenate((best_ids, node.ids))
                scores = np.concatenate((best_scores, scores))
                order = np.lexsort((ids, scores))[:k]
                best_ids, best_scores = ids[order], scores[order]
            return
        diff = q64[node.axis] - node.split_value
        near, far = (node.left, node.right) if diff <= 0 else (node.right, node.left)
        visit(near)
        if best_ids.size < k or diff * diff <= best_scores[-1]:
            visit(far)

    visit(tree.root)
    return TopKResult(ids=best_ids, scores=best_scores, k=k)
