import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import annkit.core as core
from annkit.core import (
    Collection,
    DistanceKind,
    SparseVector,
    TopKResult,
    brute_force_topk,
    dense_vector,
    distance,
    epsilon_valid,
    pairwise_scores,
    recall,
    rescore,
    score_rows,
    top_k_from_scores,
)
from annkit.trees import kd_build, kd_search_exact

finite_floats = st.floats(min_value=-100, max_value=100, allow_nan=False, width=32)


def vec(*values):
    return dense_vector(values)


class TestDistance:
    def test_l2_pythagorean(self):
        assert distance(DistanceKind.L2_SQUARED, vec(0, 0), vec(3, 4)) == pytest.approx(25.0)

    def test_neg_ip_orthogonal(self):
        assert distance(DistanceKind.NEG_INNER_PRODUCT, vec(1, 0), vec(0, 1)) == 0.0

    def test_neg_jaccard_direct_count(self):
        u = SparseVector(indices=np.array([1, 2]), values=np.array([1.0, 1.0], dtype=np.float32), dim=5)
        v = SparseVector(indices=np.array([2, 3]), values=np.array([1.0, 1.0], dtype=np.float32), dim=5)
        assert distance(DistanceKind.NEG_JACCARD, u, v) == pytest.approx(-1 / 3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            distance(DistanceKind.L2_SQUARED, vec(1, 2), vec(1, 2, 3))

    def test_angular_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            distance(DistanceKind.ANGULAR, vec(0, 0), vec(1, 0))

    def test_angular_value(self):
        assert distance(DistanceKind.ANGULAR, vec(1, 0), vec(0, 2)) == pytest.approx(1.0)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(finite_floats, min_size=2, max_size=8),
           st.lists(finite_floats, min_size=2, max_size=8))
    def test_symmetry(self, a, b):
        n = min(len(a), len(b))
        u, v = vec(*a[:n]), vec(*b[:n])
        for kind in (DistanceKind.L2_SQUARED, DistanceKind.NEG_JACCARD):
            assert distance(kind, u, v) == pytest.approx(distance(kind, v, u), abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(finite_floats, min_size=2, max_size=8))
    def test_reflexivity(self, a):
        u = vec(*a)
        assert distance(DistanceKind.L2_SQUARED, u, u) == pytest.approx(0.0, abs=1e-9)
        if np.linalg.norm(u) > 1e-3:
            assert distance(DistanceKind.ANGULAR, u, u) == pytest.approx(0.0, abs=1e-9)


class TestBruteForce:
    def test_singleton(self):
        X = Collection(np.array([[5, 5]], dtype=np.float32))
        res = brute_force_topk(X, vec(0, 0), 1, DistanceKind.L2_SQUARED)
        assert res.ids.tolist() == [0]

    def test_hand_enumeration(self):
        X = Collection(np.array([[0, 0], [1, 0], [0, 2]], dtype=np.float32))
        res = brute_force_topk(X, vec(0.9, 0), 2, DistanceKind.L2_SQUARED)
        assert res.ids.tolist() == [1, 0]
        assert res.scores == pytest.approx([0.01, 0.81], rel=1e-5)

    def test_k_truncation(self):
        X = Collection(np.array([[0], [1], [2]], dtype=np.float32))
        res = brute_force_topk(X, vec(0), 10, DistanceKind.L2_SQUARED)
        assert len(res) == 3

    def test_full_sort_scores_non_decreasing(self):
        rng = np.random.default_rng(0)
        X = Collection(rng.standard_normal((40, 5)).astype(np.float32))
        res = brute_force_topk(X, rng.standard_normal(5).astype(np.float32), 40,
                               DistanceKind.L2_SQUARED)
        assert np.all(np.diff(res.scores) >= 0)
        assert len(res) == 40

    def test_tie_break_by_id(self):
        X = Collection(np.array([[1, 0], [1, 0], [2, 0]], dtype=np.float32))
        res = brute_force_topk(X, vec(1, 0), 2, DistanceKind.L2_SQUARED)
        assert res.ids.tolist() == [0, 1]

    def test_sparse_collection(self):
        vecs = tuple(
            SparseVector(indices=np.array([i]), values=np.array([1.0], dtype=np.float32), dim=4)
            for i in range(4)
        )
        X = Collection(vecs)
        q = SparseVector(indices=np.array([2]), values=np.array([1.0], dtype=np.float32), dim=4)
        res = brute_force_topk(X, q, 1, DistanceKind.NEG_JACCARD)
        assert res.ids.tolist() == [2]


def odd_multiples_of_2_to_minus_75(rng, *shape):
    """float32 values whose pairwise products are odd multiples of 2^-150,
    so every float32 product sits on a rounding tie at the underflow
    threshold and rounds by the full 2^-150 the screen's bound allows."""
    return ((2 * rng.integers(-3, 3, size=shape) + 1) * 2.0 ** -75).astype(np.float32)


@st.composite
def screen_cases(draw):
    """A dense collection and a query built to stress the float32 screen:
    heavy integer ties, duplicate rows, near-ties under a large common
    offset, norms near 1e15 or 1e-20, queries on, or one float32 or float64
    ulp off, a row, and queries whose float32 rounding is coarse (float64
    components in float32's subnormal range). Style "tie" puts every
    float32 product on a rounding tie at the underflow threshold."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 30))
    d = draw(st.sampled_from([1, 1, 2, 3, 5, 8]))
    style = draw(st.sampled_from(["int", "dup", "offset", "gauss", "tie"]))
    if style == "tie":
        return (Collection(odd_multiples_of_2_to_minus_75(rng, m, d)),
                odd_multiples_of_2_to_minus_75(rng, d))
    if style == "int":
        rows = rng.integers(-2, 3, size=(m, d)).astype(np.float64)
    elif style == "dup":
        base = rng.standard_normal((draw(st.integers(1, 4)), d))
        rows = base[rng.integers(0, base.shape[0], size=m)]
    elif style == "offset":
        rows = 1000.0 + 1e-3 * rng.standard_normal((m, d))
    else:
        rows = rng.standard_normal((m, d))
    scale = draw(st.sampled_from([1.0, 1e15, 1e-20]))
    X32 = (rows * scale).astype(np.float32)
    row = X32[rng.integers(m)]
    how = draw(st.sampled_from(["row", "ulp32", "ulp64", "gauss64", "gauss32", "sub32"]))
    if how == "row":
        q = row.copy()
    elif how == "ulp32":
        q = np.nextafter(row, np.where(rng.random(d) < 0.5, -np.inf, np.inf).astype(np.float32))
    elif how == "ulp64":
        q64 = row.astype(np.float64)
        q = np.nextafter(q64, np.where(rng.random(d) < 0.5, -np.inf, np.inf))
    elif how == "sub32":
        q = rng.standard_normal(d) * 2.0 ** -147
    else:
        q = (1000.0 + 1e-3 * rng.standard_normal(d) if style == "offset" else rng.standard_normal(d))
        q = q * scale
        q = q.astype(np.float32) if how == "gauss32" else q
    return Collection(X32), q


def assert_same_topk(got, want):
    assert np.array_equal(got.ids, want.ids)
    assert np.array_equal(got.scores.view(np.uint64), want.scores.view(np.uint64))


class TestScreen:
    """``brute_force_topk`` scans dense L2 and inner-product queries with a
    certified float32 screen; its answers must equal selecting from the
    full float64 scores, ids and scores bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(screen_cases())
    def test_equals_full_scores_on_adversarial_data(self, case):
        self.check_every_k(*case)

    def test_rounding_ties_at_the_underflow_threshold(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            m, d = rng.integers(2, 12), rng.integers(1, 5)
            self.check_every_k(Collection(odd_multiples_of_2_to_minus_75(rng, m, d)),
                               odd_multiples_of_2_to_minus_75(rng, d))

    def test_query_rounding_to_float32_subnormals(self):
        # float64 query components in float32's subnormal range lose up to
        # half their size when rounded; against rows near 1e15 that error
        # is far above every other term of the bound
        rng = np.random.default_rng(22)
        for _ in range(50):
            m, d = rng.integers(2, 12), rng.integers(1, 5)
            X = Collection((rng.standard_normal((m, d)) * 1e15).astype(np.float32))
            self.check_every_k(X, rng.standard_normal(d) * 2.0 ** -147)

    @staticmethod
    def check_every_k(X, q):
        for kind in (DistanceKind.L2_SQUARED, DistanceKind.NEG_INNER_PRODUCT):
            full = pairwise_scores(X, q, kind)
            for k in range(1, len(X) + 3):
                assert_same_topk(brute_force_topk(X, q, k, kind), top_k_from_scores(full, k))

    @staticmethod
    def full_path_calls(monkeypatch, X, q, k, kind):
        """Brute force's answer, checked against the full scores, and how
        often it fell back to :func:`pairwise_scores`."""
        want = top_k_from_scores(pairwise_scores(X, q, kind), k)
        calls = []

        def spy(*args):
            calls.append(args)
            return pairwise_scores(*args)

        with monkeypatch.context() as patch:
            patch.setattr(core, "pairwise_scores", spy)
            assert_same_topk(brute_force_topk(X, q, k, kind), want)
        return len(calls)

    def test_screen_serves_ordinary_queries(self, monkeypatch):
        rng = np.random.default_rng(11)
        X = Collection(rng.standard_normal((500, 16)).astype(np.float32))
        q = rng.standard_normal(16)
        for kind in (DistanceKind.L2_SQUARED, DistanceKind.NEG_INNER_PRODUCT):
            assert self.full_path_calls(monkeypatch, X, q, 10, kind) == 0

    def test_query_beyond_float32_range_falls_back(self, monkeypatch):
        X = Collection(np.array([[1.0, 2.0], [3.0, 4.0], [-1.0, 0.0]], dtype=np.float32))
        q = np.array([1e39, 0.0])
        for kind in (DistanceKind.L2_SQUARED, DistanceKind.NEG_INNER_PRODUCT):
            assert self.full_path_calls(monkeypatch, X, q, 1, kind) == 1

    def test_float32_overflow_falls_back(self, monkeypatch):
        X = Collection(np.array([[3e19, 0.0], [0.0, 1.0], [-3e19, 2e19]], dtype=np.float32))
        q = np.array([2e19, 2e19], dtype=np.float32)
        for kind in (DistanceKind.L2_SQUARED, DistanceKind.NEG_INNER_PRODUCT):
            assert self.full_path_calls(monkeypatch, X, q, 2, kind) == 1

    def test_k_at_least_m_falls_back(self, monkeypatch):
        X = Collection(np.array([[0.0], [1.0]], dtype=np.float32))
        assert self.full_path_calls(monkeypatch, X, vec(0.4), 2, DistanceKind.L2_SQUARED) == 1

    def test_angular_rejects_zero_row(self):
        X = Collection(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]], dtype=np.float32))
        with pytest.raises(ValueError, match="zero vectors"):
            brute_force_topk(X, vec(1, 1), 1, DistanceKind.ANGULAR)


class TestTopKSelection:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_full_lexsort_under_heavy_ties(self, data):
        m = data.draw(st.integers(1, 200))
        scores = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m)),
                          dtype=np.float64)
        k = data.draw(st.integers(1, m + 2))
        res = top_k_from_scores(scores, k)
        order = np.lexsort((np.arange(m), scores))[:k]
        assert np.array_equal(res.ids, order)
        assert np.array_equal(res.scores, scores[order])

    def test_nan_scores_rank_last(self):
        scores = np.array([np.nan, 2.0, np.nan, 1.0, np.nan])
        for k in range(1, 6):
            order = np.lexsort((np.arange(5), scores))[:k]
            assert top_k_from_scores(scores, k).ids.tolist() == order.tolist()

    def test_brute_force_ids_do_not_hold_the_full_order(self):
        rng = np.random.default_rng(3)
        m = 5000
        X = Collection(rng.standard_normal((m, 8)).astype(np.float32))
        res = brute_force_topk(X, rng.standard_normal(8).astype(np.float32), 10,
                               DistanceKind.L2_SQUARED)
        assert res.ids.base is None or res.ids.base.size < m
        assert res.scores.base is None or res.scores.base.size < m


class TestRescore:
    """``rescore`` against the reference it replaces: score the candidate
    sub-collection, then take the full ``(score, id)`` lexsort."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equals_sub_collection_plus_full_lexsort(self, data):
        kind = data.draw(st.sampled_from([DistanceKind.L2_SQUARED, DistanceKind.NEG_INNER_PRODUCT,
                                          DistanceKind.ANGULAR]))
        m = data.draw(st.integers(1, 60))
        d = data.draw(st.integers(1, 5))
        # few small non-zero integers: many tied scores and duplicate rows
        values = st.lists(st.sampled_from([-2, -1, 1, 2]), min_size=m * d, max_size=m * d)
        X = Collection(np.array(data.draw(values), dtype=np.float32).reshape(m, d))
        q = np.array(data.draw(st.lists(st.sampled_from([-1, 1, 2]), min_size=d, max_size=d)),
                     dtype=np.float32)
        ids = np.array(data.draw(st.permutations(range(m)))[:data.draw(st.integers(0, m))],
                       dtype=np.int64)
        k = data.draw(st.integers(1, m + 2))
        got = rescore(X, ids, q, k, kind)
        if ids.size == 0:
            assert got.ids.size == 0 and got.scores.size == 0
            return
        scores = pairwise_scores(Collection(X.vectors[ids]), q, kind)
        order = np.lexsort((ids, scores))[:k]
        assert got.ids.dtype == np.int64 and got.scores.dtype == np.float64
        assert np.array_equal(got.ids, ids[order])
        assert np.array_equal(got.scores, scores[order])

    def test_score_rows_equal_full_scores_bit_for_bit(self):
        rng = np.random.default_rng(11)
        X = Collection(rng.standard_normal((300, 33)).astype(np.float32))
        q = rng.standard_normal(33).astype(np.float32)
        ids = rng.permutation(300)[:57]
        for kind in (DistanceKind.L2_SQUARED, DistanceKind.NEG_INNER_PRODUCT, DistanceKind.ANGULAR):
            assert np.array_equal(score_rows(X, ids, q, kind), pairwise_scores(X, q, kind)[ids])


def unscreened(X, ids, q, k, kind):
    """The float64 path the screen stands in front of: every row of ``ids``
    scored, then the (score, id) selection."""
    ids = np.asarray(ids, dtype=np.int64)
    scores = score_rows(X, ids, q, kind)
    pos = core._smallest(scores, k, ids)
    return TopKResult(ids=ids[pos], scores=scores[pos], k=k)


def overflow_cases():
    """(collection, query) pairs on which the screen gives up: a query
    beyond float32's range, a row whose float32 norm overflows, and finite
    norms whose product with the query's could overflow a float32 sum."""
    return [
        (Collection(np.array([[1.0, 2.0], [3.0, 4.0], [-1.0, 0.0], [2.0, 2.0]], dtype=np.float32)),
         np.array([1e39, 0.0])),
        (Collection(np.array([[3e19, 0.0], [0.0, 1.0], [-3e19, 2e19], [1.0, 1.0]], dtype=np.float32)),
         np.array([2e19, 2e19], dtype=np.float32)),
        (Collection(np.array([[1.2e19, 0.0], [0.0, 1.0], [-1.2e19, 1.0], [1.0, 1.0]], dtype=np.float32)),
         np.array([1.5e19, 0.0], dtype=np.float32)),
    ]


class TestScreenedPaths:
    """``rescore`` and ``kd_search_exact`` screen their rows in float32
    before scoring them; the answers must equal scoring every row, ids and
    score bits alike. The candidate-count rule is set to 1 here, so that
    every path screens whatever its size."""

    @settings(max_examples=300, deadline=None)
    @given(screen_cases(), st.data())
    def test_rescore_equals_unscreened_on_adversarial_data(self, case, data):
        X, q = case
        m = len(X)
        ids = np.array(data.draw(st.permutations(range(m)))[:data.draw(st.integers(0, m))], dtype=np.int64)
        k = data.draw(st.integers(1, m + 2))
        with mock.patch.object(core, "_SCREEN_MIN_ROWS", 1):
            for kind in (DistanceKind.L2_SQUARED, DistanceKind.NEG_INNER_PRODUCT):
                assert_same_topk(rescore(X, ids, q, k, kind), unscreened(X, ids, q, k, kind))

    @settings(max_examples=300, deadline=None)
    @given(screen_cases(), st.data())
    def test_kd_search_equals_unscreened_on_adversarial_data(self, case, data):
        X, q = case
        tree = kd_build(X, data.draw(st.integers(1, 4)))
        k = data.draw(st.integers(1, len(X) + 2))
        with mock.patch.object(core, "_SCREEN_MIN_ROWS", 1):
            got = kd_search_exact(tree, X, q, k)
        assert_same_topk(got, unscreened(X, np.arange(len(X)), q, k, DistanceKind.L2_SQUARED))

    @pytest.mark.parametrize("case", range(3))
    def test_overflow_gives_up_and_equals_unscreened(self, case):
        X, q = overflow_cases()[case]
        ids = np.array([3, 0, 2, 1])
        with mock.patch.object(core, "_SCREEN_MIN_ROWS", 1):
            for kind in (DistanceKind.L2_SQUARED, DistanceKind.NEG_INNER_PRODUCT):
                assert core._screen(X, q, 1, kind, ids) is None
                for k in range(1, 6):
                    assert_same_topk(rescore(X, ids, q, k, kind), unscreened(X, ids, q, k, kind))
            for k in range(1, 6):
                assert_same_topk(kd_search_exact(kd_build(X, 1), X, q, k),
                                 unscreened(X, ids, q, k, DistanceKind.L2_SQUARED))

    def test_rescore_screens_many_candidates(self):
        rng = np.random.default_rng(12)
        X = Collection(rng.standard_normal((3000, 16)).astype(np.float32))
        ids = rng.permutation(3000)[:core._SCREEN_MIN_ROWS + 500]
        scored = []

        def spy(X, ids, q, kind):
            scored.append(len(ids))
            return score_rows(X, ids, q, kind)

        for kind in (DistanceKind.L2_SQUARED, DistanceKind.NEG_INNER_PRODUCT):
            q = rng.standard_normal(16)
            want = unscreened(X, ids, q, 10, kind)
            with mock.patch.object(core, "score_rows", spy):
                assert_same_topk(rescore(X, ids, q, 10, kind), want)
                assert_same_topk(rescore(X, ids[:core._SCREEN_MIN_ROWS - 1], q, 10, kind),
                                 unscreened(X, ids[:core._SCREEN_MIN_ROWS - 1], q, 10, kind))
        # screened: a few dozen rows scored in float64; below the rule: all
        assert scored[0] < 100 and scored[2] < 100
        assert scored[1] == scored[3] == core._SCREEN_MIN_ROWS - 1

    def test_kd_search_screens_its_leaf_batches(self):
        rng = np.random.default_rng(13)
        X = Collection(rng.standard_normal((4000, 32)).astype(np.float32))
        tree = kd_build(X, 16)
        q = rng.standard_normal(32)
        scored = []

        def spy(X, ids, q, kind):
            scored.append(len(ids))
            return score_rows(X, ids, q, kind)

        with mock.patch.object(core, "score_rows", spy):
            got = kd_search_exact(tree, X, q, 10)
        assert_same_topk(got, brute_force_topk(X, q, 10, DistanceKind.L2_SQUARED))
        # the screen leaves few of the 4000 rows to the float64 score
        assert sum(scored) < 500


class TestCollectionDerivedData:
    def test_vectors_cannot_be_reassigned(self):
        X = Collection(np.ones((3, 2), dtype=np.float32))
        with pytest.raises(dataclasses.FrozenInstanceError):
            X.vectors = np.zeros((3, 2), dtype=np.float32)
        with pytest.raises(ValueError):
            X.vectors[0, 0] = 2.0
        assert np.all(X.vectors == 1.0)

    def test_screen_rows_computed_once_per_collection(self):
        calls, screen_rows = [], core._screen_rows

        def spy(mat):
            calls.append(mat.shape)
            return screen_rows(mat)

        rng = np.random.default_rng(14)
        mats = [rng.standard_normal((400, 8)).astype(np.float32) for _ in range(2)]
        with mock.patch.object(core, "_screen_rows", spy):
            for mat in mats:
                X = Collection(mat)
                for kind in (DistanceKind.L2_SQUARED, DistanceKind.NEG_INNER_PRODUCT):
                    for q in rng.standard_normal((3, 8)):
                        brute_force_topk(X, q, 5, kind)
                        rescore(X, np.arange(0, 400, 2), q, 5, kind)
                assert X.screen_rows is X.screen_rows
        assert calls == [(400, 8), (400, 8)]

    def test_column_range_is_the_column_min_and_max(self):
        rng = np.random.default_rng(15)
        for m in (1, 15, 16, 17, 100):
            mat = rng.standard_normal((m, 5)).astype(np.float32)
            lo, hi = Collection(mat).column_range
            assert lo.dtype == hi.dtype == np.float64
            assert np.array_equal(lo, mat.min(axis=0)) and np.array_equal(hi, mat.max(axis=0))

    def test_columns_are_the_read_only_transpose(self):
        rng = np.random.default_rng(16)
        for m, d in ((1, 1), (1, 7), (5, 1), (300, 64)):
            mat = rng.standard_normal((m, d)).astype(np.float32)
            mat[0, 0] = -0.0
            cols = Collection(mat).columns
            assert cols.shape == (d, m) and cols.dtype == np.float32 and cols.flags.c_contiguous
            assert cols.tobytes() == np.ascontiguousarray(mat.T).tobytes()
            assert not cols.flags.writeable
            with pytest.raises(ValueError):
                cols[0, 0] = 1.0
        # there is no empty matrix to transpose: a Collection is never empty
        for m, d in ((0, 4), (3, 0)):
            with pytest.raises(ValueError):
                Collection(np.zeros((m, d), dtype=np.float32))

    def test_columns_computed_once_per_collection(self):
        from annkit.sampling import boundedme_topk

        calls, columns = [], core._columns

        def spy(mat):
            calls.append(mat.shape)
            return columns(mat)

        rng = np.random.default_rng(17)
        mats = [rng.standard_normal((400, 16)).astype(np.float32) for _ in range(2)]
        with mock.patch.object(core, "_columns", spy):
            for mat in mats:
                X = Collection(mat)
                for seed, q in enumerate(rng.standard_normal((8, 16))):
                    boundedme_topk(X, q, 5, eps=0.3, delta=0.3, seed=seed)
                assert X.columns is X.columns
            two = Collection(mats[0][:2])
            q = rng.standard_normal(16)
            res, diag = boundedme_topk(two, q, 1, eps=0.3, delta=0.3)
            assert diag["rounds"] == 1 and len(res) == 1
            assert two.columns.shape == (16, 2)
        assert calls == [(400, 16), (400, 16), (2, 16)]

    def test_sparse_collection_has_no_derived_data(self):
        X = Collection((SparseVector(indices=np.array([0]), values=np.array([1.0], dtype=np.float32), dim=3),))
        with pytest.raises(ValueError, match="dense"):
            X.screen_rows
        with pytest.raises(ValueError, match="dense"):
            X.columns


def _search_entry_points():
    """name -> search(k) over one small collection, for every path that
    selects its top k through top_k_from_scores or rescore."""
    from annkit.ivf import build_ivf, ivf_search
    from annkit.lsh import FamilyKind, HashFamily, build_index, lsh_topk
    from annkit.sampling import build_wedge_index, wedge_topk
    from annkit.trees import defeatist_search, rp_build

    rng = np.random.default_rng(70)
    X = Collection(rng.standard_normal((50, 8)).astype(np.float32))
    q = rng.standard_normal(8).astype(np.float32)
    lsh = build_index(X, HashFamily(FamilyKind.HYPERPLANE, seed=1, d=8), 2, 3)
    ivf, forest, wedge = build_ivf(X, 4, seed=1), [rp_build(X, 8, seed=t) for t in range(2)], build_wedge_index(X)
    return {
        "top_k_from_scores": lambda k: top_k_from_scores(pairwise_scores(X, q, DistanceKind.L2_SQUARED), k),
        "rescore": lambda k: rescore(X, np.arange(50), q, k, DistanceKind.L2_SQUARED),
        "brute_force_topk": lambda k: brute_force_topk(X, q, k, DistanceKind.L2_SQUARED),
        "lsh_topk": lambda k: lsh_topk(lsh, X, q, k),
        "ivf_search": lambda k: ivf_search(ivf, X, q, k, 4),
        "defeatist_search": lambda k: defeatist_search(forest, X, q, k),
        "wedge_topk": lambda k: wedge_topk(wedge, X, q, samples=200, k=k, seed=1),
    }


@pytest.mark.parametrize("k", [0, -3])
@pytest.mark.parametrize("entry", sorted(_search_entry_points()))
def test_search_rejects_k_below_one(entry, k):
    with pytest.raises(ValueError, match="k must be at least 1"):
        _search_entry_points()[entry](k)


class TestRecall:
    def _result(self, ids):
        ids = np.array(ids, dtype=np.int64)
        return TopKResult(ids=ids, scores=np.arange(ids.size, dtype=np.float64), k=ids.size)

    def test_identical(self):
        r = self._result([3, 1, 4, 1 + 4, 9])
        assert recall(r, r, 5) == 1.0

    def test_disjoint(self):
        assert recall(self._result([0, 1]), self._result([2, 3]), 2) == 0.0

    def test_half(self):
        assert recall(self._result([0, 1]), self._result([1, 5]), 2) == 0.5


class TestEpsilonValid:
    def test_inside(self):
        assert epsilon_valid(1.0, 1.05, 0.1)

    def test_outside(self):
        assert not epsilon_valid(1.0, 1.2, 0.1)

    def test_exact_zero(self):
        assert epsilon_valid(0.0, 0.0, 0.5)

    def test_rejects_negative_scores(self):
        with pytest.raises(ValueError):
            epsilon_valid(-1.0, 0.5, 0.1)


class TestTypes:
    def test_dense_vector_rejects_nan(self):
        with pytest.raises(ValueError):
            dense_vector([1.0, float("nan")])

    def test_sparse_vector_rejects_unsorted(self):
        with pytest.raises(ValueError):
            SparseVector(indices=np.array([3, 1]), values=np.array([1.0, 2.0], dtype=np.float32), dim=5)

    def test_sparse_vector_rejects_zero_values(self):
        with pytest.raises(ValueError):
            SparseVector(indices=np.array([1]), values=np.array([0.0], dtype=np.float32), dim=5)

    def test_collection_requires_rows(self):
        with pytest.raises(ValueError):
            Collection(np.zeros((0, 3), dtype=np.float32))

    def test_topk_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            TopKResult(ids=np.array([1, 1]), scores=np.array([0.0, 1.0]), k=2)

    def test_topk_rejects_decreasing_scores(self):
        with pytest.raises(ValueError):
            TopKResult(ids=np.array([1, 2]), scores=np.array([1.0, 0.0]), k=2)

    def test_topk_order_check_is_silent_on_infinite_scores(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = TopKResult(ids=np.array([4, 2, 7, 1]),
                             scores=np.array([-np.inf, -np.inf, np.inf, np.inf]), k=4)
            assert res.ids.tolist() == [4, 2, 7, 1]
            with pytest.raises(ValueError):
                TopKResult(ids=np.array([1, 2, 3]), scores=np.array([np.inf, np.inf, 0.0]), k=3)
