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
    "CoverNode",
    "CoverTree",
    "DuplicatePointError",
    "cover_build",
    "cover_insert",
    "cover_nn",
    "cover_nn_approx",
]


class DuplicatePointError(ValueError):
    """Raised when a point already present in the tree is inserted again."""


@dataclass
class CoverNode:
    point_id: int
    level: int  # level at which this node entered the tree
    children: dict = field(default_factory=dict)  # attach level -> list[CoverNode]

    def attach(self, child: "CoverNode", level: int) -> None:
        self.children.setdefault(level, []).append(child)


@dataclass
class CoverTree:
    X: Collection
    root: Optional[CoverNode] = None
    root_level: Optional[int] = None
    size: int = 0
    # parent links grouped by attach level, kept for insertion
    _links: Optional["_Links"] = field(default=None, init=False, repr=False, compare=False)

    def _sq_dist_many(self, q64: np.ndarray, ids: np.ndarray) -> np.ndarray:
        return score_rows(self.X, ids, q64, DistanceKind.L2_SQUARED)

    def _dist_many(self, q64: np.ndarray, ids: np.ndarray) -> np.ndarray:
        return np.sqrt(self._sq_dist_many(q64, ids))


class _Links:
    """A cover tree's parent links grouped by attach level: for each level,
    the points attached there over the points they hang below, in a
    ``(2, room)`` array grown by appending. The children of a descent
    frame are one membership-mask pass over its level's links alone."""

    def __init__(self, tree: CoverTree):
        self.root, self.size = tree.root, tree.size
        self.member = np.zeros(len(tree.X), dtype=bool)
        self.by_level: dict = {}  # attach level -> [links, used]
        self.nodes = {tree.root.point_id: tree.root}
        stack = [tree.root]
        while stack:
            node = stack.pop()
            for level, kids in node.children.items():
                for kid in kids:
                    self._link(kid, node.point_id, level)
                stack.extend(kids)

    @staticmethod
    def of(tree: CoverTree) -> "_Links":
        """The tree's links, rebuilt by one walk of its nodes if the tree
        was made or changed other than by :func:`cover_insert` and
        :func:`cover_build`."""
        links = tree._links
        if links is None or links.root is not tree.root or links.size != tree.size \
                or links.member.size != len(tree.X):
            links = tree._links = _Links(tree)
        return links

    def _link(self, node: CoverNode, parent: int, level: int) -> None:
        self.nodes[node.point_id] = node
        entry = self.by_level.setdefault(level, [np.empty((2, 16), dtype=np.int64), 0])
        links, used = entry
        if used == links.shape[1]:
            links = entry[0] = np.concatenate((links, np.empty_like(links)), axis=1)
        links[:, used] = node.point_id, parent
        entry[1] = used + 1

    def attach(self, point_id: int, parent: int, level: int) -> None:
        node = CoverNode(point_id, level)
        self.nodes[parent].attach(node, level)
        self._link(node, parent, level)
        self.size += 1

    def children(self, q_ids: np.ndarray, level: int) -> np.ndarray:
        """Points attached at ``level`` below any point of ``q_ids``."""
        entry = self.by_level.get(level)
        if entry is None:
            return q_ids[:0]
        links, used = entry
        self.member[q_ids] = True
        kids = links[0, :used][self.member[links[1, :used]]]
        self.member[q_ids] = False
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
        tree.root = CoverNode(point_id=point_id, level=0)
        tree.root_level = None  # pinned once a second point arrives
        tree.size = 1
        return
    links = _Links.of(tree)
    q64 = tree.X.vectors[point_id].astype(np.float64)
    q_ids = np.array([tree.root.point_id], dtype=np.int64)
    q_dists = tree._dist_many(q64, q_ids)
    root_dist = float(q_dists[0])
    if tree.root_level is None:
        tree.root_level = max(int(math.ceil(math.log2(root_dist))), -60)
    while root_dist > 2.0 ** tree.root_level:
        tree.root_level += 1
    tree.root.level = tree.root_level

    frames = []
    level = tree.root_level
    while True:
        kids = links.children(q_ids, level - 1)
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
            links.attach(point_id, int(q_ids[best]), level - 1)
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
    """Shared level-by-level descent; returns the surviving candidate nodes.

    The cache maps point id to *squared* distance; rules receive true
    distances (sqrt applied) because the cover radii are metric statements.
    """
    root_sq = float(tree._sq_dist_many(q64, np.array([tree.root.point_id]))[0])
    frontier = {tree.root.point_id: tree.root}
    sq_cache = {tree.root.point_id: root_sq}
    level = tree.root_level if tree.root_level is not None else tree.root.level

    while True:
        if stop_rule is not None:
            best = math.sqrt(min(sq_cache[pid] for pid in frontier))
            if stop_rule(best, level):
                break
        pending = any(
            node.children and min(node.children) <= level - 1
            for node in frontier.values()
        )
        if not pending:
            break
        candidates = dict(frontier)
        new_nodes = []
        for node in frontier.values():
            for child in node.children.get(level - 1, ()):
                if child.point_id not in candidates:
                    candidates[child.point_id] = child
                    new_nodes.append(child)
        if new_nodes:
            ids = np.array([n.point_id for n in new_nodes], dtype=np.int64)
            for pid, sq in zip(ids, tree._sq_dist_many(q64, ids)):
                sq_cache[int(pid)] = float(sq)
        keep_ids = keep_rule(candidates, sq_cache, level)
        frontier = {pid: candidates[pid] for pid in keep_ids}
        level -= 1

    return frontier, sq_cache


def cover_nn(tree: CoverTree, q: np.ndarray, k: int = 1) -> TopKResult:
    """Exact top-k search; prunes a candidate only when the covering radius
    proves no descendant can enter the current top-k."""
    if tree.root is None:
        raise ValueError("cover tree is empty")
    if k < 1:
        raise ValueError("k must be at least 1")
    q64 = np.asarray(q, dtype=np.float64)

    def keep_rule(candidates, sq_cache, level):
        dists = np.sqrt(np.array([sq_cache[pid] for pid in candidates]))
        kth = np.partition(dists, min(k, dists.size) - 1)[min(k, dists.size) - 1]
        bound = kth + 2.0 ** level
        return [pid for pid, d in zip(candidates, dists) if d <= bound]

    frontier, sq_cache = _descend(tree, q64, keep_rule)
    ids = np.fromiter(frontier, dtype=np.int64, count=len(frontier))
    sq = np.array([sq_cache[pid] for pid in frontier])
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
    q64 = np.asarray(q, dtype=np.float64)

    def keep_rule(candidates, sq_cache, level):
        dists = np.sqrt(np.array([sq_cache[pid] for pid in candidates]))
        bound = dists.min() + 2.0 ** level
        return [pid for pid, d in zip(candidates, dists) if d <= bound]

    def stop_rule(best_dist, level):
        return best_dist >= 2.0 ** (level + 1) * (1.0 + 1.0 / eps)

    frontier, sq_cache = _descend(tree, q64, keep_rule, stop_rule)
    best_pid = min(frontier, key=lambda pid: (sq_cache[pid], pid))
    return best_pid, sq_cache[best_pid]
