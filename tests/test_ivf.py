import hashlib

import numpy as np
import pytest

from annkit.core import Collection, DistanceKind, brute_force_topk, recall
from annkit.ivf import KMeansKind, build_ivf, ivf_search, kmeans_train, route


def rand_collection(m, d, seed):
    return Collection(np.random.default_rng(seed).standard_normal((m, d)).astype(np.float32))


class TestKMeans:
    def test_seeded_centroid_bits_pinned(self):
        """Lloyd's mean step keeps its summation order: seeded Euclidean
        and spherical centroids keep their bits."""
        X = Collection(np.random.default_rng(61).standard_normal((400, 8)).astype(np.float32))
        euclidean = kmeans_train(X, 6, KMeansKind.EUCLIDEAN, max_iters=20, seed=2)
        spherical = kmeans_train(X, 6, KMeansKind.SPHERICAL, max_iters=20, seed=2)
        digest = hashlib.sha256(euclidean.centroids.tobytes() + spherical.centroids.tobytes()).hexdigest()
        assert digest == "067fe437aa91b162628358d5b78d4e661647e9c7a58fec5bd7926c98fcf76859"

    def test_repeated_locations_recovered(self):
        anchors = np.array([[0, 0], [10, 0], [0, 10]], dtype=np.float32)
        X = Collection(np.repeat(anchors, 5, axis=0))
        model = kmeans_train(X, 3, seed=0)
        assert model.objective_trace[-1] == pytest.approx(0.0, abs=1e-9)
        got = sorted(map(tuple, model.centroids.tolist()))
        assert got == sorted(map(tuple, anchors.tolist()))

    def test_single_cluster_is_mean(self):
        X = rand_collection(50, 4, 1)
        model = kmeans_train(X, 1, seed=2)
        assert model.centroids[0] == pytest.approx(X.vectors.mean(axis=0), abs=1e-5)

    def test_objective_non_increasing(self):
        X = rand_collection(1000, 16, 3)
        model = kmeans_train(X, 32, seed=4)
        trace = np.array(model.objective_trace)
        assert np.all(np.diff(trace) <= 1e-9)

    def test_spherical_centroids_unit_norm(self):
        X = rand_collection(300, 8, 5)
        model = kmeans_train(X, 16, KMeansKind.SPHERICAL, seed=6)
        norms = np.linalg.norm(model.centroids.astype(np.float64), axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-6

    def test_rejects_too_many_clusters(self):
        with pytest.raises(ValueError):
            kmeans_train(rand_collection(5, 2, 7), 6)

    def test_terminates_by_fixpoint(self):
        X = rand_collection(100, 4, 8)
        model = kmeans_train(X, 4, max_iters=500, seed=9)
        assert len(model.objective_trace) < 100


class TestRoute:
    def test_full_route_ranks_all(self):
        X = rand_collection(200, 6, 10)
        index = build_ivf(X, 8, seed=11)
        clusters = route(index, np.zeros(6, dtype=np.float32), 8)
        assert sorted(clusters.tolist()) == list(range(8))

    def test_centroid_query_hits_own_cluster(self):
        X = rand_collection(200, 6, 12)
        index = build_ivf(X, 8, seed=13)
        for c in range(8):
            assert route(index, index.model.centroids[c], 1)[0] == c

    def test_hand_distance(self):
        X = Collection(np.array([[0, 0], [0.1, 0], [10, 0], [10.1, 0]], dtype=np.float32))
        index = build_ivf(X, 2, seed=14)
        clusters = route(index, np.array([2, 0], dtype=np.float32), 1)
        near_origin = route(index, np.array([0, 0], dtype=np.float32), 1)[0]
        assert clusters[0] == near_origin


class TestSearch:
    def test_full_sweep_equals_oracle(self):
        X = rand_collection(300, 8, 15)
        index = build_ivf(X, 16, seed=16)
        rng = np.random.default_rng(17)
        for _ in range(10):
            q = rng.standard_normal(8).astype(np.float32)
            got = ivf_search(index, X, q, 10, 16)
            want = brute_force_topk(X, q, 10, DistanceKind.L2_SQUARED)
            assert got.ids.tolist() == want.ids.tolist()
            assert got.scores.tolist() == want.scores.tolist()

    def test_partition_invariant(self):
        X = rand_collection(257, 5, 18)
        index = build_ivf(X, 20, seed=19)
        collected = np.sort(np.concatenate(index.lists))
        assert collected.tolist() == list(range(257))

    def test_recall_non_decreasing_in_ell(self):
        X = rand_collection(600, 8, 20)
        index = build_ivf(X, 24, seed=21)
        rng = np.random.default_rng(22)
        queries = rng.standard_normal((40, 8)).astype(np.float32)
        oracles = [brute_force_topk(X, q, 1, DistanceKind.L2_SQUARED) for q in queries]
        curve = []
        for ell in (1, 3, 6, 12, 24):
            curve.append(np.mean([recall(o, ivf_search(index, X, q, 1, ell), 1)
                                  for q, o in zip(queries, oracles)]))
        inversions = sum(a > b for a, b in zip(curve, curve[1:]))
        assert inversions <= 1
        assert curve[-1] == 1.0

    def test_empty_cluster_listing_tolerated(self):
        X = rand_collection(40, 4, 23)
        index = build_ivf(X, 8, seed=24)
        index.lists[3] = np.array([], dtype=np.int64)  # simulate a dead cluster
        q = np.random.default_rng(25).standard_normal(4).astype(np.float32)
        res = ivf_search(index, X, q, 5, 8)
        assert len(res) == 5

    def test_spherical_for_mips(self):
        X = rand_collection(300, 8, 26)
        index = build_ivf(X, 16, DistanceKind.NEG_INNER_PRODUCT, seed=27)
        assert index.model.kind is KMeansKind.SPHERICAL
        q = np.random.default_rng(28).standard_normal(8).astype(np.float32)
        got = ivf_search(index, X, q, 5, 16)
        want = brute_force_topk(X, q, 5, DistanceKind.NEG_INNER_PRODUCT)
        assert got.ids.tolist() == want.ids.tolist()
