import numpy as np
import pytest

from annkit.core import Collection, DistanceKind, brute_force_topk
from annkit.trees import kd_build, kd_search_exact


def rand_collection(m, d, seed):
    return Collection(np.random.default_rng(seed).standard_normal((m, d)).astype(np.float32))


def leaves_of(node, acc):
    if node.is_leaf:
        acc.append(node)
    else:
        leaves_of(node.left, acc)
        leaves_of(node.right, acc)
    return acc


class TestBuild:
    def test_single_point_is_leaf(self):
        tree = kd_build(Collection(np.array([[1, 2]], dtype=np.float32)), 1)
        assert tree.root.is_leaf
        assert tree.root.ids.tolist() == [0]

    def test_hand_construction_collinear(self):
        X = Collection(np.array([[0, 0], [1, 0], [2, 0], [3, 0]], dtype=np.float32))
        tree = kd_build(X, 1)
        root = tree.root
        assert root.axis == 0
        assert root.split_value == 1.0  # lower median along axis 0
        leaves = leaves_of(root, [])
        assert sorted(leaf.ids.tolist()[0] for leaf in leaves) == [0, 1, 2, 3]
        assert all(leaf.ids.size == 1 for leaf in leaves)

    def test_duplicates_terminate(self):
        X = Collection(np.ones((9, 3), dtype=np.float32))
        tree = kd_build(X, 1)
        leaves = leaves_of(tree.root, [])
        collected = sorted(i for leaf in leaves for i in leaf.ids.tolist())
        assert collected == list(range(9))

    def test_leaves_partition_ids(self):
        X = rand_collection(257, 6, 0)
        tree = kd_build(X, 8)
        leaves = leaves_of(tree.root, [])
        collected = sorted(i for leaf in leaves for i in leaf.ids.tolist())
        assert collected == list(range(257))
        assert all(leaf.ids.size <= 8 for leaf in leaves)

    def test_round_robin_axes(self):
        X = rand_collection(64, 3, 1)
        tree = kd_build(X, 4)

        def walk(node, depth):
            if node.is_leaf:
                return
            assert node.axis == depth % 3
            walk(node.left, depth + 1)
            walk(node.right, depth + 1)

        walk(tree.root, 0)

    def test_balanced_depth(self):
        X = rand_collection(128, 4, 2)
        tree = kd_build(X, 1)

        def depth(node):
            if node.is_leaf:
                return 0
            return 1 + max(depth(node.left), depth(node.right))

        assert depth(tree.root) <= int(np.ceil(np.log2(128))) + 1


class TestSearchExact:
    def test_matches_oracle_uniform(self):
        rng = np.random.default_rng(3)
        X = Collection(rng.uniform(-1, 1, size=(100, 4)).astype(np.float32))
        tree = kd_build(X, 4)
        for _ in range(30):
            q = rng.uniform(-1, 1, 4).astype(np.float32)
            got = kd_search_exact(tree, X, q, 7)
            want = brute_force_topk(X, q, 7, DistanceKind.L2_SQUARED)
            assert got.ids.tolist() == want.ids.tolist()
            assert got.scores.tolist() == want.scores.tolist()

    def test_query_on_data_point(self):
        X = rand_collection(50, 3, 4)
        tree = kd_build(X, 2)
        res = kd_search_exact(tree, X, X.vectors[17], 1)
        assert res.ids.tolist() == [17]
        assert res.scores[0] == 0.0

    def test_k_equals_m_full_ordering(self):
        X = rand_collection(40, 5, 5)
        tree = kd_build(X, 4)
        q = np.random.default_rng(6).standard_normal(5).astype(np.float32)
        got = kd_search_exact(tree, X, q, 40)
        want = brute_force_topk(X, q, 40, DistanceKind.L2_SQUARED)
        assert got.ids.tolist() == want.ids.tolist()

    def test_duplicate_rows_bit_identical_to_brute_force(self):
        rng = np.random.default_rng(7)
        base = rng.standard_normal((30, 4)).astype(np.float32)
        X = Collection(base[rng.integers(0, 30, size=300)])  # every row about ten times
        for leaf_capacity in (1, 4, 16):
            tree = kd_build(X, leaf_capacity)
            for i in range(12):
                q = X.vectors[i] if i % 2 else rng.standard_normal(4).astype(np.float32)
                for k in (1, 9, 25):
                    got = kd_search_exact(tree, X, q, k)
                    want = brute_force_topk(X, q, k, DistanceKind.L2_SQUARED)
                    assert np.array_equal(got.ids, want.ids)
                    assert np.array_equal(got.scores, want.scores)

    def test_rejects_sparse(self):
        from annkit.core import SparseVector

        sv = SparseVector(indices=np.array([0]), values=np.array([1.0], dtype=np.float32), dim=3)
        with pytest.raises(ValueError):
            kd_build(Collection((sv,)), 1)
