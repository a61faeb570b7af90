"""Randomized partition trees and spill trees with defeatist search.

Split directions are isotropic Gaussian draws normalized onto the unit
sphere. RP trees cut at a random beta-fractile of the projections with
beta in [1/4, 3/4]; spill trees cut at the (1/2 - alpha)- and
(1/2 + alpha)-fractiles so near-boundary points land in both children,
while queries are routed by the median.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from annkit.core import Collection, DistanceKind, TopKResult, rescore
from annkit.trees.preorder import children, grow, leaf_offsets, node_view

__all__ = [
    "RpTree",
    "SpillTree",
    "rp_build",
    "spill_build",
    "defeatist_search",
    "potential_phi",
]


@dataclass
class RpTree:
    """A random-projection tree as its pre-order arrays (:mod:`annkit.trees.preorder`)."""

    leaf_size: np.ndarray  # (n_nodes,) int64 pre-order: a leaf's size, -1 for an inner node
    leaf_ids: np.ndarray  # int64, the leaves' ids in pre-order, each leaf's ascending
    dirs: np.ndarray  # (n_inner, dim) float64 unit split direction per inner node, pre-order
    thresholds: np.ndarray  # (n_inner,) float64: a query goes left when q @ dir <= threshold
    sizes: np.ndarray  # (n_inner,) int64 points under each inner node; a spill node's children overlap
    leaf_capacity: int
    dim: int
    seed: int
    # _route_to_leaf's walk as Python lists: children, rows of dirs, thresholds, leaf offsets
    _route: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._route = (*children(self.leaf_size), list(self.dirs), self.thresholds.tolist(),
                       leaf_offsets(self.leaf_size).tolist())

    @cached_property
    def root(self):
        """The tree as linked nodes, built on first read: see :func:`node_view`."""
        return node_view(self.leaf_size, self.leaf_ids, direction=self.dirs, threshold=self.thresholds)


@dataclass
class SpillTree(RpTree):
    alpha: float = 0.0


def _grow(X: np.ndarray, leaf_capacity: int, rng: np.random.Generator, cut) -> tuple:
    """A tree's arrays in the order of :class:`RpTree`'s fields. An inner
    node draws a unit direction and sorts its ids by their projections onto
    it; ``cut(sorted projections) -> (threshold, hi, lo)`` sends the first
    ``hi`` left and those from ``lo`` on right."""
    dirs, thresholds, sizes = [], [], []

    def split(ids, depth):
        direction = rng.standard_normal(X.shape[1])
        direction /= np.linalg.norm(direction)
        proj = X[ids].astype(np.float64) @ direction
        order = np.lexsort((ids, proj))
        threshold, hi, lo = cut(proj[order])
        dirs.append(direction)
        thresholds.append(threshold)
        sizes.append(ids.size)
        return ids[order[:hi]], ids[order[lo:]]

    return (*grow(X.shape[0], leaf_capacity, split), np.array(dirs).reshape(len(dirs), X.shape[1]),
            np.array(thresholds, dtype=np.float64), np.array(sizes, dtype=np.int64))


def rp_build(X: Collection, leaf_capacity: int, seed: int) -> RpTree:
    if leaf_capacity < 1:
        raise ValueError("leaf capacity must be at least 1")
    rng = np.random.default_rng(seed)

    def cut(proj):
        n = proj.size
        # clamp the cut index so both child fractions stay inside [1/4, 3/4]
        j = int(np.ceil(rng.uniform(0.25, 0.75) * n))
        j = max(int(np.ceil(n / 4)), min(j, n - int(np.ceil(n / 4))))
        j = max(1, min(j, n - 1))
        return float(0.5 * (proj[j - 1] + proj[j])), j, j

    return RpTree(*_grow(X.vectors, leaf_capacity, rng, cut), leaf_capacity=leaf_capacity, dim=X.dim, seed=seed)


def spill_build(X: Collection, leaf_capacity: int, alpha: float, seed: int) -> SpillTree:
    if not 0.0 <= alpha < 0.5:
        raise ValueError("spill overlap alpha must lie in [0, 1/2)")
    if leaf_capacity < 1:
        raise ValueError("leaf capacity must be at least 1")

    def cut(proj):
        n = proj.size
        hi = int(np.ceil((0.5 + alpha) * n))
        if hi >= n:  # overlap would stop the node from shrinking; fall back to a median cut
            hi = (n + 1) // 2
        mid = (n - 1) // 2
        return float(proj[mid] if n % 2 == 1 else 0.5 * (proj[mid] + proj[mid + 1])), hi, n - hi

    return SpillTree(*_grow(X.vectors, leaf_capacity, np.random.default_rng(seed), cut),
                     leaf_capacity=leaf_capacity, dim=X.dim, seed=seed, alpha=alpha)


def _route_to_leaf(tree: RpTree, q: np.ndarray) -> np.ndarray:
    """The ids of the leaf that ``q`` routes to: from the root, left while
    ``q @ dir <= threshold``, one 1-D product per level."""
    left, right, node, dirs, thresholds, offsets = tree._route
    q64 = np.asarray(q, dtype=np.float64)
    while node >= 0:
        node = left[node] if q64 @ dirs[node] <= thresholds[node] else right[node]
    return tree.leaf_ids[offsets[~node]:offsets[~node + 1]]


def defeatist_search(
    trees: Union[RpTree, Sequence[RpTree]],
    X: Collection,
    q: np.ndarray,
    k: int,
    kind: DistanceKind = DistanceKind.L2_SQUARED,
) -> TopKResult:
    """Route to one leaf per tree (no backtracking) and scan the candidate
    union exhaustively. Candidates are de-duplicated by id before scoring."""
    if isinstance(trees, RpTree):
        trees = [trees]
    candidates = np.zeros(len(X), dtype=bool)
    for tree in trees:
        candidates[_route_to_leaf(tree, q)] = True
    return rescore(X, np.flatnonzero(candidates), q, k, kind)


def potential_phi(X: Collection, q: np.ndarray, s: int) -> float:
    """Difficulty diagnostic: mean ratio of the nearest distance to each of
    the s nearest distances, with plain (unsquared) L2.

    Values near 1 mean the s closest points are nearly equidistant from q
    (unstable retrieval); values near 0 mean the nearest neighbor is well
    separated. Undefined when q coincides with its nearest neighbor.
    """
    m = len(X)
    if not 2 <= s <= m:
        raise ValueError("s must satisfy 2 <= s <= m")
    mat = X.vectors.astype(np.float64)
    q64 = np.asarray(q, dtype=np.float64)
    dists = np.sqrt(np.maximum(0.0, np.einsum("ij,ij->i", mat, mat) - 2.0 * (mat @ q64) + q64 @ q64))
    nearest = np.sort(dists)[:s]
    if nearest[0] == 0.0:
        raise ValueError("potential undefined when q coincides with its nearest neighbor")
    return float(np.mean(nearest[0] / nearest))
