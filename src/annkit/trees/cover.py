"""Cover tree: a leveled metric tree with nesting, covering and separation.

The tree lives over true (unsquared) L2 because its invariants are metric
statements; squared-L2 queries are converted internally and squared scores
are returned. Levels are integers: a node at level l covers its attached
children within distance 2^l, and any two nodes present at level l are more
than 2^l apart. The root level is finite (chosen from the first observed
distance) and is raised lazily whenever a new point falls outside the
root's cover radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from annkit.core import Collection, DistanceKind, TopKResult, _smallest, score_rows

__all__ = [
    "CoverTree",
    "DuplicatePointError",
    "cover_build",
    "cover_insert",
    "cover_nn",
    "cover_nn_approx",
]

_NO_LINKS = np.empty((2, 0), dtype=np.int64)


class DuplicatePointError(ValueError):
    """Raised when a point already present in the tree is inserted again."""


@dataclass
class CoverTree:
    """The tree as its parent links grouped by attach level; a point's
    level is the level it is attached at, the root's is ``root_level``."""

    X: Collection
    root: Optional[int] = None  # point id
    root_level: Optional[int] = None
    size: int = 0
    # attach level -> [links, used]: links[:, :used] are the (point, parent)
    # pairs attached at that level in insertion order, in a (2, room) array
    # grown by doubling
    by_level: dict = field(default_factory=dict, repr=False, compare=False)

    def link(self, point_id: int, parent: int, level: int) -> None:
        """Attach ``point_id`` at ``level`` below ``parent``."""
        entry = self.by_level.setdefault(level, [np.empty((2, 16), dtype=np.int64), 0])
        links, used = entry
        if used == links.shape[1]:
            links = entry[0] = np.concatenate((links, np.empty_like(links)), axis=1)
        links[:, used] = point_id, parent
        entry[1] = used + 1

    def links(self, level: int) -> np.ndarray:
        """The ``(2, n)`` (point, parent) pairs attached at ``level``."""
        entry = self.by_level.get(level)
        return _NO_LINKS if entry is None else entry[0][:, :entry[1]]

    def _sq_dist_many(self, q64: np.ndarray, ids: np.ndarray) -> np.ndarray:
        return score_rows(self.X, ids, q64, DistanceKind.L2_SQUARED)

    def _dist_many(self, q64: np.ndarray, ids: np.ndarray) -> np.ndarray:
        return np.sqrt(self._sq_dist_many(q64, ids))


def _children(tree: CoverTree, member: np.ndarray, q_ids: np.ndarray, level: int) -> np.ndarray:
    """Points attached at ``level`` below any point of ``q_ids``: one pass
    of ``member``, an all-False mask over the collection made once per
    descent, over that level's links alone. The one descent step of
    insertion and both searches."""
    point, parent = tree.links(level)
    member[q_ids] = True
    kids = point[member[parent]]
    member[q_ids] = False
    return kids


def cover_insert(tree: CoverTree, point_id: int) -> None:
    """Insert one point by the recursive candidate-descent procedure.

    The parent is the closest candidate at the level where the descent
    bottomed out; picking the closest among the valid parents is our
    convention (any candidate within the cover radius would satisfy the
    invariants).
    """
    if tree.root is not None:
        # candidate pruning during descent can skip a deep duplicate, so the
        # presence check must be an exact search
        nearest = cover_nn(tree, tree.X.vectors[point_id], 1)
        if nearest.scores[0] == 0.0:
            raise DuplicatePointError(
                f"point {point_id} duplicates point {int(nearest.ids[0])}")
    _insert(tree, point_id)


def _insert(tree: CoverTree, point_id: int) -> None:
    """:func:`cover_insert` for a point known to duplicate no indexed point.

    The descent keeps, level by level, the frame's nodes and their
    distances. When it bottoms out, the frames are unwound from the
    deepest, each reusing its distances: the first with a node within its
    radius takes the point, under its closest node.
    """
    if tree.root is None:
        tree.root = point_id
        tree.root_level = None  # pinned once a second point arrives
        tree.size = 1
        return
    q64 = tree.X.vectors[point_id].astype(np.float64)
    q_ids = np.array([tree.root], dtype=np.int64)
    q_dists = tree._dist_many(q64, q_ids)
    root_dist = float(q_dists[0])
    if tree.root_level is None:
        tree.root_level = max(int(math.ceil(math.log2(root_dist))), -60)
    while root_dist > 2.0 ** tree.root_level:
        tree.root_level += 1

    member = np.zeros(len(tree.X), dtype=bool)
    frames = []
    level = tree.root_level
    while True:
        kids = _children(tree, member, q_ids, level - 1)
        cand_ids = np.concatenate((q_ids, kids))
        cand_dists = np.concatenate((q_dists, tree._dist_many(q64, kids)))
        if np.any(cand_dists == 0.0):
            raise DuplicatePointError(f"point {point_id} duplicates an indexed point")
        radius = 2.0 ** level
        if float(cand_dists.min()) > radius:
            break  # no parent below this level
        frames.append((level, q_ids, q_dists))
        keep = cand_dists <= radius
        q_ids, q_dists = cand_ids[keep], cand_dists[keep]
        level -= 1
    for level, q_ids, q_dists in reversed(frames):
        valid = np.flatnonzero(q_dists <= 2.0 ** level)
        if valid.size:
            best = valid[_smallest(q_dists[valid], 1, q_ids[valid])[0]]
            tree.link(point_id, int(q_ids[best]), level - 1)
            tree.size += 1
            return
    # cannot happen once the root radius covers the point
    raise AssertionError("cover tree insertion failed to find a parent")


def cover_build(X: Collection) -> CoverTree:
    """Build by repeated insertion in id order.

    The tree equals the one :func:`cover_insert` builds point by point, and
    a duplicate raises the same error: the first point, in id order, equal
    to an earlier one, naming that earlier point. Over finite float32 rows,
    distance 0 means equal element for element, so one pass over the row
    bytes (``+ 0.0`` turns -0.0 into 0.0) replaces a search per insert.
    """
    rows = np.ascontiguousarray(X.vectors + 0.0)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    earlier = first[inverse.ravel()]
    dups = np.flatnonzero(earlier != np.arange(len(X)))
    if dups.size:
        i = int(dups[0])
        raise DuplicatePointError(f"point {i} duplicates point {int(earlier[i])}")
    tree = CoverTree(X=X)
    for i in range(len(X)):
        _insert(tree, i)
    return tree


def _descend(tree: CoverTree, q64: np.ndarray, keep_rule, stop_rule=None):
    """Shared level-by-level search descent; returns the surviving ids and
    their squared distances.

    Each level adds the frame's children and keeps the candidates for which
    ``keep_rule(ids, dists, level)`` is True; rules see true distances,
    because the cover radii are metric statements. The descent runs down to
    the lowest attach level; below the point where no frame node has
    children left it only prunes, which neither rule's answer can notice.
    """
    ids = np.array([tree.root], dtype=np.int64)
    sq = tree._sq_dist_many(q64, ids)
    if not tree.by_level:
        return ids, sq
    member = np.zeros(len(tree.X), dtype=bool)
    lowest, level = min(tree.by_level), tree.root_level
    while level > lowest:
        if stop_rule is not None and stop_rule(math.sqrt(sq.min()), level):
            break
        kids = _children(tree, member, ids, level - 1)
        ids = np.concatenate((ids, kids))
        sq = np.concatenate((sq, tree._sq_dist_many(q64, kids)))
        keep = keep_rule(ids, np.sqrt(sq), level)
        ids, sq = ids[keep], sq[keep]
        level -= 1
    return ids, sq


def cover_nn(tree: CoverTree, q: np.ndarray, k: int = 1) -> TopKResult:
    """Exact top-k search; prunes a candidate only when the covering radius
    proves no descendant can enter the current top-k."""
    if tree.root is None:
        raise ValueError("cover tree is empty")
    if k < 1:
        raise ValueError("k must be at least 1")

    def keep_rule(ids, dists, level):
        kth = np.partition(dists, min(k, dists.size) - 1)[min(k, dists.size) - 1]
        return dists <= kth + 2.0 ** level

    ids, sq = _descend(tree, np.asarray(q, dtype=np.float64), keep_rule)
    order = _smallest(sq, k, ids)
    return TopKResult(ids=ids[order], scores=sq[order], k=k)


def cover_nn_approx(tree: CoverTree, q: np.ndarray, eps: float) -> tuple:
    """(1+eps)-approximate top-1: stop descending once the remaining cover
    radius cannot improve the best candidate by more than a (1+eps) factor.

    Returns ``(point_id, squared_score)``.
    """
    if tree.root is None:
        raise ValueError("cover tree is empty")
    if eps <= 0:
        raise ValueError("eps must be positive")

    def keep_rule(ids, dists, level):
        return dists <= dists.min() + 2.0 ** level

    def stop_rule(best_dist, level):
        return best_dist >= 2.0 ** (level + 1) * (1.0 + 1.0 / eps)

    ids, sq = _descend(tree, np.asarray(q, dtype=np.float64), keep_rule, stop_rule)
    best = _smallest(sq, 1, ids)[0]
    return int(ids[best]), float(sq[best])
