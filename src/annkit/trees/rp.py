"""Randomized partition trees and spill trees with defeatist search.

Split directions are isotropic Gaussian draws normalized onto the unit
sphere. RP trees cut at a random beta-fractile of the projections with
beta in [1/4, 3/4]; spill trees cut at the (1/2 - alpha)- and
(1/2 + alpha)-fractiles so near-boundary points land in both children,
while queries are routed by the median.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from annkit.core import Collection, DistanceKind, TopKResult, rescore

__all__ = [
    "ProjNode",
    "RpTree",
    "SpillTree",
    "rp_build",
    "spill_build",
    "defeatist_search",
    "potential_phi",
]


@dataclass
class ProjNode:
    direction: Optional[np.ndarray] = None
    threshold: float = 0.0
    left: Optional["ProjNode"] = None
    right: Optional["ProjNode"] = None
    ids: Optional[np.ndarray] = None
    size: int = 0  # points under the node; the children of a spill node overlap

    @property
    def is_leaf(self) -> bool:
        return self.ids is not None


@dataclass
class RpTree:
    root: ProjNode
    leaf_capacity: int
    dim: int
    seed: int


@dataclass
class SpillTree(RpTree):
    alpha: float = 0.0


def _unit_direction(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)
    return v.astype(np.float64)


def _sorted_by_projection(X: np.ndarray, ids: np.ndarray, direction: np.ndarray) -> tuple:
    proj = X[ids].astype(np.float64) @ direction
    order = np.lexsort((ids, proj))
    return ids[order], proj[order]


def _build_rp(X, ids, m0, rng) -> ProjNode:
    n = ids.size
    if n <= m0:
        return ProjNode(ids=np.sort(ids), size=n)
    direction = _unit_direction(rng, X.shape[1])
    beta = rng.uniform(0.25, 0.75)
    sorted_ids, proj = _sorted_by_projection(X, ids, direction)
    # clamp the cut index so both child fractions stay inside [1/4, 3/4]
    j = int(np.ceil(beta * n))
    j = max(int(np.ceil(n / 4)), min(j, n - int(np.ceil(n / 4))))
    j = max(1, min(j, n - 1))
    threshold = 0.5 * (proj[j - 1] + proj[j])
    node = ProjNode(direction=direction, threshold=float(threshold), size=n)
    node.left = _build_rp(X, sorted_ids[:j], m0, rng)
    node.right = _build_rp(X, sorted_ids[j:], m0, rng)
    return node


def rp_build(X: Collection, leaf_capacity: int, seed: int) -> RpTree:
    if leaf_capacity < 1:
        raise ValueError("leaf capacity must be at least 1")
    rng = np.random.default_rng(seed)
    root = _build_rp(X.vectors, np.arange(len(X), dtype=np.int64), leaf_capacity, rng)
    return RpTree(root=root, leaf_capacity=leaf_capacity, dim=X.dim, seed=seed)


def _build_spill(X, ids, m0, alpha, rng) -> ProjNode:
    n = ids.size
    if n <= m0:
        return ProjNode(ids=np.sort(ids), size=n)
    direction = _unit_direction(rng, X.shape[1])
    sorted_ids, proj = _sorted_by_projection(X, ids, direction)
    hi = int(np.ceil((0.5 + alpha) * n))
    lo = n - hi
    if hi >= n or lo <= 0:
        # overlap would stop the node from shrinking; fall back to a median cut
        hi = (n + 1) // 2
        lo = n - hi
    mid = (n - 1) // 2
    threshold = float(proj[mid] if n % 2 == 1 else 0.5 * (proj[mid] + proj[mid + 1]))
    node = ProjNode(direction=direction, threshold=threshold, size=n)
    node.left = _build_spill(X, sorted_ids[:hi], m0, alpha, rng)
    node.right = _build_spill(X, sorted_ids[lo:], m0, alpha, rng)
    return node


def spill_build(X: Collection, leaf_capacity: int, alpha: float, seed: int) -> SpillTree:
    if not 0.0 <= alpha < 0.5:
        raise ValueError("spill overlap alpha must lie in [0, 1/2)")
    if leaf_capacity < 1:
        raise ValueError("leaf capacity must be at least 1")
    rng = np.random.default_rng(seed)
    root = _build_spill(X.vectors, np.arange(len(X), dtype=np.int64), leaf_capacity, alpha, rng)
    return SpillTree(root=root, leaf_capacity=leaf_capacity, dim=X.dim, seed=seed, alpha=alpha)


def _route_to_leaf(tree: RpTree, q: np.ndarray) -> np.ndarray:
    node = tree.root
    q64 = np.asarray(q, dtype=np.float64)
    while not node.is_leaf:
        node = node.left if q64 @ node.direction <= node.threshold else node.right
    return node.ids


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
