import hashlib

import numpy as np
import pytest

from annkit.core import Collection, DistanceKind, brute_force_topk, recall
from annkit.harness.container import load_index, save_index
from annkit.trees import defeatist_search, potential_phi, rp_build, spill_build


# sha256 of the seeded containers in test_forest_container_bytes_pinned, in
# the pre-order tree layout (leaf sizes, leaf ids, and dir/threshold/size
# per inner node) with each integer array at its narrowest width
RP_AKX_SHA256 = "fc520291c582a0992ddca65c264c8585215344c14992659dfceef520e106ddaf"
SPILL_AKX_SHA256 = "3c2061c52c77565e69bbf85d7509da7e368ccedaa43e522aefd373b77ab65708"


def rand_collection(m, d, seed):
    return Collection(np.random.default_rng(seed).standard_normal((m, d)).astype(np.float32))


def internal_nodes(node, acc):
    if not node.is_leaf:
        acc.append(node)
        internal_nodes(node.left, acc)
        internal_nodes(node.right, acc)
    return acc


def leaf_ids(node, acc):
    if node.is_leaf:
        acc.extend(node.ids.tolist())
    else:
        leaf_ids(node.left, acc)
        leaf_ids(node.right, acc)
    return acc


class TestRpBuild:
    def test_deterministic_for_seed(self):
        X = rand_collection(200, 6, 0)
        a, b = rp_build(X, 16, seed=7), rp_build(X, 16, seed=7)

        def same(x, y):
            if x.is_leaf != y.is_leaf:
                return False
            if x.is_leaf:
                return np.array_equal(x.ids, y.ids)
            return (np.array_equal(x.direction, y.direction)
                    and x.threshold == y.threshold
                    and same(x.left, y.left) and same(x.right, y.right))

        assert same(a.root, b.root)

    def test_directions_unit_norm(self):
        tree = rp_build(rand_collection(300, 8, 1), 16, seed=3)
        for node in internal_nodes(tree.root, []):
            assert abs(np.linalg.norm(node.direction) - 1.0) < 1e-6

    def test_child_fraction_bounds(self):
        tree = rp_build(rand_collection(500, 8, 2), 8, seed=5)
        for node in internal_nodes(tree.root, []):
            for count in (node.left.size, node.right.size):
                assert node.size / 4 <= count <= 3 * node.size / 4 + 1e-9

    def test_leaves_partition(self):
        tree = rp_build(rand_collection(321, 5, 3), 16, seed=1)
        assert sorted(leaf_ids(tree.root, [])) == list(range(321))


class TestSpillBuild:
    def test_rejects_alpha_half(self):
        with pytest.raises(ValueError):
            spill_build(rand_collection(32, 4, 4), 4, alpha=0.5, seed=0)

    def test_zero_alpha_matches_median_split_sizes(self):
        X = rand_collection(256, 6, 5)
        tree = spill_build(X, 16, alpha=0.0, seed=9)
        for node in internal_nodes(tree.root, []):
            assert node.left.size == int(np.ceil(node.size / 2))
            assert node.right.size == int(np.ceil(node.size / 2))

    def test_duplication_when_spilling(self):
        X = rand_collection(1024, 8, 6)
        tree = spill_build(X, 16, alpha=0.1, seed=2)
        total = len(leaf_ids(tree.root, []))
        assert total >= 1024  # boundary points live in both children

    def test_child_size_bounds(self):
        tree = spill_build(rand_collection(400, 6, 7), 8, alpha=0.15, seed=3)
        for node in internal_nodes(tree.root, []):
            n = node.size
            for count in (node.left.size, node.right.size):
                assert np.ceil(n / 2) <= count <= np.ceil((0.5 + 0.15) * n) + 1e-9


class TestDefeatist:
    def test_single_leaf_equals_oracle(self):
        X = rand_collection(12, 4, 8)
        tree = rp_build(X, 16, seed=1)  # m <= leaf capacity: a single leaf
        q = np.random.default_rng(0).standard_normal(4).astype(np.float32)
        got = defeatist_search(tree, X, q, 5)
        want = brute_force_topk(X, q, 5, DistanceKind.L2_SQUARED)
        assert got.ids.tolist() == want.ids.tolist()
        assert got.scores.tolist() == want.scores.tolist()

    def test_forest_beats_single_tree(self):
        X = rand_collection(2048, 32, 9)
        rng = np.random.default_rng(1)
        queries = rng.standard_normal((40, 32)).astype(np.float32)
        oracles = [brute_force_topk(X, q, 10, DistanceKind.L2_SQUARED) for q in queries]
        forest = [rp_build(X, 32, seed=100 + t) for t in range(8)]
        r1 = np.mean([recall(o, defeatist_search(forest[:1], X, q, 10), 10)
                      for q, o in zip(queries, oracles)])
        r8 = np.mean([recall(o, defeatist_search(forest, X, q, 10), 10)
                      for q, o in zip(queries, oracles)])
        assert r8 >= r1

    def test_mean_recall_non_decreasing_in_forest_size(self):
        X = rand_collection(512, 16, 20)
        rng = np.random.default_rng(21)
        queries = rng.standard_normal((10, 16)).astype(np.float32)
        oracles = [brute_force_topk(X, q, 10, DistanceKind.L2_SQUARED) for q in queries]
        sizes = (1, 2, 4, 8)
        means = []
        for T in sizes:
            per_seed = []
            for seed_set in range(30):
                forest = [rp_build(X, 32, seed=1000 * seed_set + t) for t in range(T)]
                per_seed.append(np.mean([
                    recall(o, defeatist_search(forest, X, q, 10), 10)
                    for q, o in zip(queries, oracles)
                ]))
            means.append(np.mean(per_seed))
        inversions = sum(1 for a, b in zip(means, means[1:]) if a > b)
        # tolerance: one inversion per 10 comparisons, so none in 3
        assert inversions == 0, means

    def test_spill_tree_recall_on_seen_point(self):
        X = rand_collection(512, 16, 10)
        hits = 0
        trials = 40
        for t in range(trials):
            tree = spill_build(X, 32, alpha=0.2, seed=t)
            qid = t % 512
            res = defeatist_search(tree, X, X.vectors[qid], 1)
            hits += res.ids[0] == qid
        assert hits / trials >= 0.95


class TestPotential:
    def test_equidistant_points(self):
        X = Collection(np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], dtype=np.float32))
        assert potential_phi(X, np.zeros(2, dtype=np.float32), 4) == pytest.approx(1.0)

    def test_direct_formula(self):
        X = Collection(np.array([[1, 0], [2, 0]], dtype=np.float32))
        phi = potential_phi(X, np.zeros(2, dtype=np.float32), 2)
        assert phi == pytest.approx((1 + 0.5) / 2)

    def test_minimum_s(self):
        X = rand_collection(10, 3, 11)
        with pytest.raises(ValueError):
            potential_phi(X, np.zeros(3, dtype=np.float32), 1)

    def test_coincident_query_rejected(self):
        X = rand_collection(10, 3, 12)
        with pytest.raises(ValueError):
            potential_phi(X, X.vectors[4], 3)


class TestContainerBytes:
    @pytest.mark.parametrize("name,build,digest", [
        ("rp", lambda X: [rp_build(X, 16, seed=t) for t in range(3)], RP_AKX_SHA256),
        ("spill", lambda X: [spill_build(X, 16, 0.1, seed=t) for t in range(2)], SPILL_AKX_SHA256),
    ], ids=["rp", "spill"])
    def test_forest_container_bytes_pinned(self, tmp_path, name, build, digest):
        """A seeded forest's container is each tree's pre-order arrays and
        nothing else, and re-saving a loaded forest gives the same bytes."""
        path = tmp_path / f"{name}.akx"
        save_index(path, build(rand_collection(200, 5, 7)))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        save_index(tmp_path / "again.akx", load_index(path))
        assert (tmp_path / "again.akx").read_bytes() == path.read_bytes()
