import hashlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import annkit.ivf as ivf
from annkit.core import Collection, DistanceKind, SparseVector, _score_bounds, brute_force_topk, recall
from annkit.harness.container import save_index
from annkit.ivf import KMeansKind, KMeansModel, _lloyd_means, build_ivf, ivf_search, kmeans_train, route
from script_module import load_script


def rand_collection(m, d, seed):
    return Collection(np.random.default_rng(seed).standard_normal((m, d)).astype(np.float32))


def lloyd_means_reference(mat, assign, centroids):
    """The per-cluster Lloyd update: every centroid with members moves to
    ``mat[members].mean(axis=0)``, the rest keep their place."""
    out = centroids.copy()
    for c in range(out.shape[0]):
        members = np.flatnonzero(assign == c)
        if members.size:
            out[c] = mat[members].mean(axis=0)
    return out


def plusplus_init_reference(mat, C, rng):
    """Distance-weighted seeding that scores every row against every new
    seed with one full-size difference einsum."""
    m = mat.shape[0]
    centroids = np.empty((C, mat.shape[1]))
    centroids[0] = mat[rng.integers(m)]
    diff = mat - centroids[0]
    d2 = np.einsum("ij,ij->i", diff, diff)
    for c in range(1, C):
        total = d2.sum()
        if total <= 0:
            centroids[c] = mat[rng.integers(m)]
        else:
            centroids[c] = mat[rng.choice(m, p=d2 / total)]
        diff = mat - centroids[c]
        np.minimum(d2, np.einsum("ij,ij->i", diff, diff), out=d2)
    return centroids


class RecordingRng:
    """A seeded generator that keeps a copy of every ``p`` the seeding
    draws from, so that two seedings can be compared on every ``d2 / total``
    they form, not only on the rows they draw."""

    def __init__(self, seed):
        self.rng, self.draws = np.random.default_rng(seed), []

    def integers(self, high):
        return self.rng.integers(high)

    def choice(self, m, p):
        self.draws.append(p.copy())
        return self.rng.choice(m, p=p)


def sq_dists_reference(mat, sq_norms, centroids):
    """``(|x|^2 - 2 x.c) + |c|^2`` with the -2 applied to the GEMM's output."""
    d2 = mat @ centroids.T
    d2 *= -2.0
    d2 += sq_norms[:, None]
    d2 += np.einsum("ij,ij->i", centroids, centroids)
    return d2


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def seeding_cases(draw):
    """Float32 rows for the seeding: Gaussian, small integer grids (tied
    distances), wide ones whose rows come in twins one unit apart (so that
    a new seed often lowers a row's distance by a few millionths of it), a
    few distinct rows repeated, all rows equal (every distance 0), or
    near-equal rows under a large offset; scaled so that row norms run
    from about 1e-30 to 1e18, or to 3e19, whose float32 squared norm
    overflows and makes the bound give up. C runs up to m."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 60))
    d = draw(st.sampled_from([1, 2, 3, 64]))
    style = draw(st.sampled_from(["gauss", "int", "wide", "dup", "equal", "offset"]))
    if style == "int":
        rows = rng.integers(-2, 3, size=(m, d)).astype(np.float64)
    elif style == "wide":
        rows = rng.integers(-4096, 4097, size=(m, d)).astype(np.float64)
        rows[1::2] = rows[::2][:m // 2]
        rows[1::2, rng.integers(d)] += 1.0
    elif style == "dup":
        base = rng.standard_normal((draw(st.integers(1, 4)), d))
        rows = base[rng.integers(0, base.shape[0], size=m)]
    elif style == "equal":
        rows = np.repeat(rng.standard_normal((1, d)), m, axis=0)
    elif style == "offset":
        rows = 1.0 + 1e-6 * rng.standard_normal((m, d))
    else:
        rows = rng.standard_normal((m, d))
    scale = draw(st.sampled_from([1e-30, 1e-20, 1.0, 1e15, 1e18, 3e19]))
    C = draw(st.one_of(st.just(m), st.integers(1, m)))
    return Collection((rows * scale).astype(np.float32)), C, draw(st.integers(0, 2**32 - 1))


class TestLloydMeans:
    """The one-call update against the per-cluster loop, bit for bit."""

    @pytest.mark.parametrize("m,d,C,seed", [(1, 1, 1, 0), (50, 3, 7, 1), (2000, 2, 16, 2),
                                            (3000, 64, 100, 3), (400, 5, 500, 4), (5000, 1, 3, 5),
                                            (20000, 2, 1, 6), (700, 1, 40, 7)])
    def test_equals_reference_on_gaussian_data(self, m, d, C, seed):
        rng = np.random.default_rng(seed)
        mat = rng.standard_normal((m, d)) * rng.uniform(0.1, 1e4, size=d)
        assign = rng.integers(C, size=m)
        centroids = rng.standard_normal((C, d))
        got, counts = _lloyd_means(mat, assign, centroids)
        assert_same_bits(got, lloyd_means_reference(mat, assign, centroids))
        assert counts.tolist() == np.bincount(assign, minlength=C).tolist()

    def test_empty_clusters_keep_their_place(self):
        rng = np.random.default_rng(5)
        mat = rng.standard_normal((30, 4))
        assign = rng.choice([1, 4, 5], size=30)
        centroids = rng.standard_normal((8, 4))
        got, counts = _lloyd_means(mat, assign, centroids)
        for c in (0, 2, 3, 6, 7):
            assert counts[c] == 0
            assert got[c].tobytes() == centroids[c].tobytes()
        assert_same_bits(got, lloyd_means_reference(mat, assign, centroids))

    def test_duplicate_and_integer_rows(self):
        rng = np.random.default_rng(6)
        mat = np.repeat(rng.integers(-5, 6, size=(9, 3)).astype(np.float64), 7, axis=0)
        assign = rng.integers(4, size=mat.shape[0])
        centroids = np.zeros((4, 3))
        got, _ = _lloyd_means(mat, assign, centroids)
        assert_same_bits(got, lloyd_means_reference(mat, assign, centroids))

    def test_negative_zero_column_pinned_to_positive_zero(self):
        """A column whose members are all -0.0: the loop's mean and the
        update both return +0.0 there."""
        mat = np.array([[-0.0, 1.0], [-0.0, 2.0], [3.0, -0.0], [5.0, 4.0]])
        assign = np.array([0, 0, 1, 2])
        centroids = np.full((3, 2), 7.0)
        got, _ = _lloyd_means(mat, assign, centroids)
        want = lloyd_means_reference(mat, assign, centroids)
        assert_same_bits(got, want)
        assert got[0, 0] == 0.0 and not np.signbit(got[0, 0])
        assert got[1, 1] == 0.0 and not np.signbit(got[1, 1])

    def test_non_contiguous_chunk(self):
        rng = np.random.default_rng(7)
        full = rng.standard_normal((500, 12))
        chunk = full[:, 4:6]
        assign = rng.integers(16, size=500)
        centroids = rng.standard_normal((16, 2))
        got, _ = _lloyd_means(chunk, assign, centroids)
        assert_same_bits(got, lloyd_means_reference(chunk, assign, centroids))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 5), st.integers(1, 9), st.integers(0, 2**32 - 1),
           st.sampled_from(["gaussian", "integers", "duplicates", "signed-zeros"]))
    def test_equals_reference(self, m, d, C, seed, style):
        rng = np.random.default_rng(seed)
        if style == "gaussian":
            mat = rng.standard_normal((m, d)) * 10.0 ** rng.integers(-8, 9)
        elif style == "integers":
            mat = rng.integers(-3, 4, size=(m, d)).astype(np.float64)
        elif style == "duplicates":
            mat = np.repeat(rng.standard_normal((1, d)), m, axis=0)
        else:
            mat = rng.choice([-0.0, 0.0, 1.0], size=(m, d))
        assign = rng.integers(C, size=m)
        centroids = rng.standard_normal((C, d))
        got, _ = _lloyd_means(mat, assign, centroids)
        assert_same_bits(got, lloyd_means_reference(mat, assign, centroids))


class TestPlusPlusInit:
    """The seeding scores exactly only the rows its float32 bound leaves
    open; its seeds must equal scoring every row, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(seeding_cases())
    def test_equals_reference_on_adversarial_data(self, case):
        X, C, seed = case
        mat = X.vectors.astype(np.float64)
        got_rng, want_rng = RecordingRng(seed), RecordingRng(seed)
        got = ivf._plusplus_init(X, mat, C, got_rng)
        assert_same_bits(got, plusplus_init_reference(mat, C, want_rng))
        assert len(got_rng.draws) == len(want_rng.draws)
        for p, want in zip(got_rng.draws, want_rng.draws):
            assert_same_bits(p, want)

    def test_bound_gives_up_and_equals_reference(self):
        rng = np.random.default_rng(3)
        X = Collection((rng.standard_normal((40, 2)) * 3e19).astype(np.float32))
        mat = X.vectors.astype(np.float64)
        assert _score_bounds(X, mat[0], DistanceKind.L2_SQUARED) is None
        got = ivf._plusplus_init(X, mat, 12, np.random.default_rng(4))
        assert_same_bits(got, plusplus_init_reference(mat, 12, np.random.default_rng(4)))

    def test_bound_leaves_few_rows_to_the_exact_pass(self):
        rng = np.random.default_rng(5)
        centres = rng.standard_normal((20, 16)) * 1.5
        X = Collection((centres[rng.integers(20, size=3000)] + rng.standard_normal((3000, 16))).astype(np.float32))
        mat = X.vectors.astype(np.float64)
        scored, rowwise = [], ivf._sq_dists_rowwise

        def spy(*args):
            out = rowwise(*args)
            scored.append(out.size)
            return out

        with mock.patch.object(ivf, "_sq_dists_rowwise", spy):
            got = ivf._plusplus_init(X, mat, 40, np.random.default_rng(6))
        assert_same_bits(got, plusplus_init_reference(mat, 40, np.random.default_rng(6)))
        # the first seed scores all 3000 rows; the next 38 a small share
        assert scored[0] == 3000 and len(scored) == 39
        assert sum(scored[1:]) < 0.2 * 38 * 3000


class TestSqDists:
    """The assignment's GEMM against ``-2 c`` equals scaling its output by
    -2, bit for bit, down to float32's subnormals and up to its largest
    values, for centroids that are rows, means and normalized rows."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 50), st.sampled_from([1, 2, 5, 64]),
           st.integers(1, 12))
    def test_folded_scale_equals_three_steps(self, seed, m, d, C):
        rng = np.random.default_rng(seed)
        mant = rng.uniform(1.0, 1.5, size=(m, d)) * rng.choice([-1.0, 1.0], size=(m, d))
        rows = np.ldexp(mant, rng.integers(-149, 127, size=(m, d))).astype(np.float32)
        rows[rng.random((m, d)) < 0.1] = 0.0
        mat = rows.astype(np.float64)
        sq_norms = ivf._sq_norms(mat)
        means, _ = _lloyd_means(mat, rng.integers(C, size=m), mat[rng.integers(m, size=C)])
        for centroids in (mat[rng.integers(m, size=C)], means, ivf._normalize_rows(mat[:C]),
                          ivf._normalize_rows(means)):
            assert_same_bits(ivf._sq_dists(mat, sq_norms, centroids),
                             sq_dists_reference(mat, sq_norms, centroids))


class TestKMeans:
    def test_seeded_centroid_bits_pinned(self):
        """Lloyd's mean step keeps its summation order: seeded Euclidean
        and spherical centroids keep their bits."""
        X = Collection(np.random.default_rng(61).standard_normal((400, 8)).astype(np.float32))
        euclidean = kmeans_train(X, 6, KMeansKind.EUCLIDEAN, max_iters=20, seed=2)
        spherical = kmeans_train(X, 6, KMeansKind.SPHERICAL, max_iters=20, seed=2)
        digest = hashlib.sha256(euclidean.centroids.tobytes() + spherical.centroids.tobytes()).hexdigest()
        assert digest == "067fe437aa91b162628358d5b78d4e661647e9c7a58fec5bd7926c98fcf76859"

    def test_seeded_empty_cluster_repair_pinned(self):
        """Duplicate integer rows and more clusters than distinct rows: the
        seeding falls back to uniform draws and Lloyd repairs empty
        clusters; centroids, trace and assignment keep their bits."""
        rows = np.random.default_rng(3).integers(-3, 4, (20, 4)).astype(np.float32)
        model = kmeans_train(Collection(np.repeat(rows, 10, axis=0)), 25, max_iters=30, seed=1)
        digest = hashlib.sha256(model.centroids.tobytes() + np.array(model.objective_trace).tobytes()
                                + model.assignment.tobytes()).hexdigest()
        assert digest == "e75c1b3a27758c09cacfde9274f4d74538dc05271827135dd5b8d57c3579749d"

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


class TestBuild:
    # the .akx digests with each integer array at its narrowest width
    @pytest.mark.parametrize("kind,digest,lists_digest", [
        (DistanceKind.L2_SQUARED,
         "084f74448b9a703bc6d1c568624a9d83053142b83e4468faa2bfc989d2973f75",
         "8b4affa017e8a49358ebf5fc477f4778c97c4d3e7b37069b497f1bc954367898"),
        (DistanceKind.NEG_INNER_PRODUCT,
         "78174dc8e5f6e7f5a30fcb27a890f7fb6be417cad34f7abe07ae9b4fc1e64794",
         "144024f74df1c13b331abf676c4e3d4302e9596f5847b154c58225a5219463a8"),
    ], ids=["l2", "ip"])
    def test_seeded_index_bytes_pinned(self, tmp_path, kind, digest, lists_digest):
        """The .akx file holds the centroids, the assignment and the
        objective trace; with the inverted lists it keeps its bits."""
        X = Collection(np.random.default_rng(61).standard_normal((1000, 16)).astype(np.float32))
        index = build_ivf(X, 0, kind, max_iters=20, seed=4)
        save_index(tmp_path / "ivf.akx", index)
        assert hashlib.sha256((tmp_path / "ivf.akx").read_bytes()).hexdigest() == digest
        assert hashlib.sha256(b"".join(ids.tobytes() for ids in index.lists)).hexdigest() == lists_digest

    def test_lists_are_the_sorted_members(self):
        X = rand_collection(300, 3, 30)
        index = build_ivf(X, 40, seed=31)
        assert len(index.lists) == 40
        for c, ids in enumerate(index.lists):
            assert ids.dtype == np.int64
            assert ids.tolist() == np.flatnonzero(index.model.assignment == c).tolist()


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

    def test_route_is_the_brute_force_order_over_the_centroids(self):
        X = rand_collection(300, 6, 18)
        rng = np.random.default_rng(19)
        sparse = SparseVector(indices=np.array([1, 4]), values=np.array([0.5, -2.0], dtype=np.float32), dim=6)
        for kind in (DistanceKind.L2_SQUARED, DistanceKind.NEG_INNER_PRODUCT):
            index = build_ivf(X, 9, kind, seed=20)
            centroids = Collection(index.model.centroids.copy())
            for q in [*rng.standard_normal((4, 6)).astype(np.float32), sparse]:
                for ell in (1, 4, 9):
                    assert route(index, q, ell).tolist() == brute_force_topk(centroids, q, ell, kind).ids.tolist()

    def test_centroids_are_checked_and_wrapped_once(self):
        X = rand_collection(200, 6, 21)
        index = build_ivf(X, 8, seed=22)
        model = index.model
        assert model.centroid_set.vectors is model.centroids and not model.centroids.flags.writeable
        with mock.patch.object(Collection, "__post_init__", side_effect=AssertionError("a Collection per query")):
            for q in np.random.default_rng(23).standard_normal((5, 6)):
                route(index, q, 3)
                ivf_search(index, X, q, 5, 3)
        bad = model.centroids.copy()
        bad[2, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            KMeansModel(centroids=bad, assignment=model.assignment, objective_trace=[], kind=model.kind)

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


class TestBenchConstructionCheck:
    """``scripts/bench_construction.py --check`` builds each row once,
    compares its digests, writes nothing and fails on a mismatch."""

    out_path = Path(__file__).resolve().parent.parent / "BENCH_construction.json"

    def test_ivf_cli_files_digests_match(self, capsys):
        before = self.out_path.read_bytes()
        assert load_script("bench_construction").main(["--check", "--only", "ivf-cli-files"]) == 0
        assert "ivf-cli-files: median" in capsys.readouterr().out
        assert self.out_path.read_bytes() == before

    def test_mismatch_exits_1(self):
        bench = load_script("bench_construction")
        bench.PINNED["ivf-cli-files"] = (None, "0" * 64)
        assert bench.main(["--check", "--only", "ivf-cli-files"]) == 1

    @pytest.mark.parametrize("argv", [[], ["--check", "--label", "x"]])
    def test_needs_exactly_one_of_label_and_check(self, argv):
        with pytest.raises(SystemExit) as exit_info:
            load_script("bench_construction").main(argv)
        assert exit_info.value.code == 2
