import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annkit.core import Collection, DistanceKind, brute_force_topk
from annkit.harness.container import load_index, save_index
from annkit.trees import kd_build, kd_search_exact


# sha256 of the seeded container in test_kd_container_bytes_pinned, in the
# pre-order tree layout (leaf sizes, leaf ids, and axis/split per inner node)
# with each integer array at its narrowest width
KD_AKX_SHA256 = "1577f03575d7db115b0bc0ae9e2309bdad4115e32f4434821525c6ea98489360"


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

    def test_non_finite_query_equals_brute_force(self):
        X = rand_collection(200, 4, 0)
        tree = kd_build(X, 8)
        for q in ([np.nan, 0, 0, 0], [0, np.inf, 0, 0], [-np.inf, 0, np.nan, 1]):
            q = np.array(q)
            for k in (1, 3, 200):
                got = kd_search_exact(tree, X, q, k)
                want = brute_force_topk(X, q, k, DistanceKind.L2_SQUARED)
                assert np.array_equal(got.ids, want.ids)
                assert got.scores.tobytes() == want.scores.tobytes()
        got = kd_search_exact(tree, X, np.array([np.nan, 0, 0, 0]), 3)
        assert got.ids.tolist() == [0, 1, 2]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_brute_force_on_tied_grids(self, data):
        """Ids and score bits equal brute force's on integer grids (many
        ties, duplicate rows), for queries on a data row or a split value,
        every k from 1 to m + 2, leaf capacities up to a single-leaf tree,
        and for a tree reloaded from its container."""
        m = data.draw(st.integers(1, 40), label="m")
        d = data.draw(st.integers(1, 4), label="d")
        span = data.draw(st.integers(0, 3), label="span")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        X = Collection(rng.integers(-span, span + 1, size=(m, d)).astype(np.float32))
        tree = kd_build(X, data.draw(st.integers(1, m + 1), label="leaf_capacity"))
        if data.draw(st.booleans(), label="reload"):
            with tempfile.TemporaryDirectory() as tmp:
                save_index(Path(tmp) / "kd.akx", tree)
                tree = load_index(Path(tmp) / "kd.akx")
        q = rng.integers(-span - 1, span + 2, size=d).astype(np.float64)
        where = data.draw(st.sampled_from(["grid", "row", "split"]), label="query")
        if where == "row":
            q = X.vectors[rng.integers(m)].astype(np.float64)
        elif where == "split" and tree.layout.splits.size:
            axis = rng.integers(tree.layout.axes.size)
            q[tree.layout.axes[axis]] = tree.layout.splits[axis]
        q += data.draw(st.sampled_from([0.0, 0.5, 1e-9]), label="offset")
        for k in range(1, m + 3):
            got = kd_search_exact(tree, X, q, k)
            want = brute_force_topk(X, q, k, DistanceKind.L2_SQUARED)
            assert np.array_equal(got.ids, want.ids)
            assert got.scores.tobytes() == want.scores.tobytes()

    def test_rejects_sparse(self):
        from annkit.core import SparseVector

        sv = SparseVector(indices=np.array([0]), values=np.array([1.0], dtype=np.float32), dim=3)
        with pytest.raises(ValueError):
            kd_build(Collection((sv,)), 1)


class TestContainerBytes:
    def test_kd_container_bytes_pinned(self, tmp_path):
        """A seeded tree's container is its search layout's pre-order
        arrays (leaf sizes, leaf ids, axes, splits) and nothing else, and
        re-saving a loaded tree gives the same bytes."""
        rng = np.random.default_rng(11)
        X = Collection(rng.integers(-3, 4, size=(300, 5)).astype(np.float32))
        path = tmp_path / "kd.akx"
        save_index(path, kd_build(X, 4))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == KD_AKX_SHA256
        save_index(tmp_path / "again.akx", load_index(path))
        assert (tmp_path / "again.akx").read_bytes() == path.read_bytes()
