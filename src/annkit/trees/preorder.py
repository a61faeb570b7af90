"""The pre-order arrays that are the k-d, RP and spill trees and their saved
form: ``leaf_size``, one integer per node in pre-order (the leaf's size,
or -1 for an inner node), ``leaf_ids``, the leaves' ids in that order, and
arrays with one row per inner node, numbered in pre-order. An inner node
is followed by its left subtree, then its right. What a search needs
besides is derived here.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np


def grow(m: int, leaf_capacity: int, split) -> tuple[np.ndarray, np.ndarray]:
    """``leaf_size`` and ``leaf_ids`` of a tree over the ids ``0..m-1``. Nodes
    are made in pre-order; one of more than ``leaf_capacity`` ids is inner,
    and ``split(ids, depth) -> (left ids, right ids)`` records its rows."""
    leaf_size, parts = [], []
    stack = [(np.arange(m, dtype=np.int64), 0)]
    while stack:
        ids, depth = stack.pop()
        if ids.size <= leaf_capacity:
            leaf_size.append(ids.size)
            parts.append(np.sort(ids))
        else:
            leaf_size.append(-1)
            left, right = split(ids, depth)
            stack += ((right, depth + 1), (left, depth + 1))
    return np.array(leaf_size, dtype=np.int64), np.concatenate(parts)


def leaf_offsets(leaf_size: np.ndarray) -> np.ndarray:
    """Leaf i holds ``leaf_ids[offsets[i]:offsets[i + 1]]``."""
    return np.concatenate(([0], np.cumsum(leaf_size[leaf_size >= 0])))


def children(leaf_size: np.ndarray) -> tuple[list, list, int]:
    """Each inner node's left and right child, and the root, as codes: inner
    node j as j, leaf i as ``~i`` (below 0)."""
    inner = leaf_size < 0
    codes = np.where(inner, np.cumsum(inner) - 1, ~(np.cumsum(~inner) - 1))
    left = codes[np.flatnonzero(inner) + 1].tolist()
    # the node after a leaf is the right child of the latest inner node
    # without one: that leaf ended the inner node's left subtree
    right, pending = [0] * len(left), []
    for prev, code in zip(codes.tolist(), codes[1:].tolist()):
        if prev >= 0:
            pending.append(prev)
        else:
            right[pending.pop()] = code
    return left, right, int(codes[0])


def subtree_leaves(leaf_size: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The leaves beneath each inner node, a run in pre-order: inner node j
    holds leaves ``first[j]`` up to ``stop[j] - 1``."""
    left, right, _ = children(leaf_size)
    first, stop = [0] * len(left), [0] * len(left)
    for j in reversed(range(len(left))):  # inner children are numbered after their parent
        first[j] = ~left[j] if left[j] < 0 else first[left[j]]
        stop[j] = ~right[j] + 1 if right[j] < 0 else stop[right[j]]
    return np.array(first, dtype=np.int64), np.array(stop, dtype=np.int64)


def levels(leaf_size: np.ndarray) -> list:
    """The tree top-down, one ``(codes, parents, slots)`` per level below the
    root: each node's code (as :func:`children` gives it), its parent's
    number j and its slot ``2 * j + side``, side 1 for a right child."""
    left, right, root = children(leaf_size)
    kids, table, codes = np.ravel([left, right], order="F"), [], np.array([root])
    while (parents := codes[codes >= 0]).size:
        slots = (2 * parents[:, None] + (0, 1)).ravel()
        codes = kids[slots]
        table.append((codes, parents.repeat(2), slots))
    return table


def node_view(leaf_size: np.ndarray, leaf_ids: np.ndarray, **rows) -> SimpleNamespace:
    """The root of the tree as linked nodes: a leaf has
    ``ids``, a read-only view of its run of ``leaf_ids``; an inner node has
    ``ids`` None, ``left``, ``right`` and its row of each array in ``rows``.
    It stays until the benchmark, which walks such nodes, reads the arrays
    (ROADMAP item 7)."""
    ids = np.lib.stride_tricks.as_strided(leaf_ids, writeable=False)
    offsets = leaf_offsets(leaf_size).tolist()
    left, right, root = children(leaf_size)
    # nodes[code]: inner node j at j, leaf i at ~i, each made after its children
    nodes = [None] * len(right) + [SimpleNamespace(ids=ids[a:b]) for a, b in zip(offsets, offsets[1:])][::-1]
    for j in reversed(range(len(right))):
        nodes[j] = SimpleNamespace(ids=None, left=nodes[left[j]], right=nodes[right[j]],
                                   **{name: a[j] for name, a in rows.items()})
    return nodes[root]
