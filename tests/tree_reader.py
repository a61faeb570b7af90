"""The k-d, RP and spill trees' nodes read from their pre-order arrays,
written apart from ``annkit.trees.preorder`` so that the tree tests check
the layout rather than reuse it."""

from typing import NamedTuple

import numpy as np


class Inner(NamedTuple):
    j: int  # inner-node number in pre-order: the node's row of the per-inner-node arrays
    left: object  # an Inner, or a leaf's ids
    right: object


def read_tree(tree):
    """The root of ``tree``: an inner node as an ``Inner``, a leaf as its
    ids. Pre-order lists a node, then its left subtree, then its right."""
    sizes = iter(tree.leaf_size.tolist())
    inner = iter(range(tree.leaf_size.size))
    parts = iter(np.split(tree.leaf_ids, np.cumsum(tree.leaf_size[tree.leaf_size >= 0])[:-1]))

    def node():
        if next(sizes) >= 0:
            return next(parts)
        return Inner(next(inner), node(), node())

    return node()


def leaves(node) -> list:
    """The ids of each leaf under ``node``, left to right."""
    if isinstance(node, Inner):
        return leaves(node.left) + leaves(node.right)
    return [node]


def n_points(node) -> int:
    """The points under ``node``, counted from its leaves; an id in several
    leaves (a spill tree's overlap) counts once."""
    return np.unique(np.concatenate(leaves(node))).size
