import hashlib
import math
from pathlib import Path

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from annkit import sampling
from annkit.core import Collection, DistanceKind, brute_force_topk, recall, rescore
from annkit.sampling import (
    _column_sums,
    _contribution_block,
    alias_build,
    alias_sample,
    alias_sample_many,
    boundedme_schedule,
    boundedme_topk,
    build_wedge_index,
    sample_size_h,
    wedge_topk,
)
from script_module import load_script


def rand_collection(m, d, seed):
    return Collection(np.random.default_rng(seed).standard_normal((m, d)).astype(np.float32))


def _contributions(X, q):
    """Reference: the full (m, d) matrix of BoundedME's per-dimension
    contributions in [0, 1], one float64 operation at a time in the order
    ``boundedme_topk`` uses on its per-round blocks."""
    lo = X.vectors.min(axis=0).astype(np.float64)
    span = X.vectors.max(axis=0).astype(np.float64) - lo
    q_scaled = np.asarray(q, dtype=np.float64) * span
    q_max = np.abs(q_scaled).max()
    if q_max > 0:
        q_scaled = q_scaled / q_max
    contrib = np.subtract(X.vectors, lo)
    contrib /= np.where(span > 0, span, 1.0)
    contrib *= q_scaled
    contrib += 1.0
    contrib *= 0.5
    return contrib


def boundedme_reference(X, q, k, eps, delta, seed=0, round_sums=None):
    """Reference BoundedME over the full contribution matrix, gathering
    each round's ``alive x new dimensions`` block from it; returns the
    result, the diagnostics and how many rounds took the refill branch,
    and appends each round's row sums to ``round_sums`` when given."""
    m, d = len(X), X.dim
    if k >= m:
        return rescore(X, np.arange(m), q, k, DistanceKind.NEG_INNER_PRODUCT), \
            {"products": 0, "schedule": [], "rounds": 0}, 0
    contrib = _contributions(X, q)
    perm = np.random.default_rng(seed).permutation(d)
    alive = np.arange(m, dtype=np.int64)
    acc = np.zeros(m)
    eps_i, delta_i = eps / 4.0, delta / 2.0
    t_prev = products = refills = 0
    schedule = []
    while alive.size > k:
        t_i = max(boundedme_schedule(alive.size, k, eps_i, delta_i, d), t_prev)
        schedule.append(t_i)
        new_dims = perm[t_prev:t_i]
        if new_dims.size:
            sums = contrib[np.ix_(alive, new_dims)].sum(axis=1)
            if round_sums is not None:
                round_sums.append(sums)
            acc[alive] += sums
            products += alive.size * new_dims.size
        t_prev = t_i
        rank = math.ceil((alive.size - k) / 2)
        alive_scores = acc[alive]
        threshold = np.partition(alive_scores, rank - 1)[rank - 1]
        survivors = alive[alive_scores > threshold]
        if survivors.size < k:
            refills += 1
            order = np.lexsort((alive, -alive_scores))
            survivors = np.sort(alive[order[:k]])
        alive = survivors
        eps_i *= 0.75
        delta_i /= 2.0
    result = rescore(X, alive, q, k, DistanceKind.NEG_INNER_PRODUCT)
    return result, {"products": products, "schedule": schedule, "rounds": len(schedule)}, refills


class TestAlias:
    def test_single_weight(self):
        table = alias_build([3.0])
        rng = np.random.default_rng(0)
        assert all(alias_sample(table, rng) == 0 for _ in range(50))

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            alias_build([0.0, 0.0])
        with pytest.raises(ValueError):
            alias_build([1.0, -2.0])

    def test_uniform_frequencies(self):
        table = alias_build([1, 1, 1, 1])
        draws = alias_sample_many(table, np.random.default_rng(1), 100_000)
        freqs = np.bincount(draws, minlength=4) / 100_000
        assert np.abs(freqs - 0.25).max() <= 0.02

    def test_weighted_frequencies(self):
        table = alias_build([1, 3])
        draws = alias_sample_many(table, np.random.default_rng(2), 100_000)
        freqs = np.bincount(draws, minlength=2) / 100_000
        assert abs(freqs[0] - 0.25) <= 0.02 and abs(freqs[1] - 0.75) <= 0.02

    def test_chi_square_goodness_of_fit(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            weights = rng.uniform(0.1, 5.0, size=rng.integers(3, 12))
            table = alias_build(weights)
            n = 100_000
            draws = alias_sample_many(table, np.random.default_rng(100 + trial), n)
            observed = np.bincount(draws, minlength=weights.size)
            expected = weights / weights.sum() * n
            _, p = stats.chisquare(observed, expected)
            assert p > 0.001


class TestWedge:
    def test_zero_query_dimension_never_sampled(self):
        X = Collection(np.array([[1, 0], [0, 1]], dtype=np.float32))
        index = build_wedge_index(X)
        res = wedge_topk(index, X, np.array([1, 0], dtype=np.float32),
                         samples=200, k=1, k_prime=2, seed=0)
        assert res.ids[0] == 0  # all mass lands on point 0

    def test_full_rescore_equals_oracle(self):
        X = rand_collection(30, 6, 4)
        index = build_wedge_index(X)
        q = np.random.default_rng(5).standard_normal(6).astype(np.float32)
        res = wedge_topk(index, X, q, samples=500, k=5, k_prime=30, seed=1)
        want = brute_force_topk(X, q, 5, DistanceKind.NEG_INNER_PRODUCT)
        assert res.ids.tolist() == want.ids.tolist()

    def test_signed_count_mean_matches_lemma(self):
        X = rand_collection(10, 6, 6)
        index = build_wedge_index(X)
        q64 = np.random.default_rng(7).standard_normal(6)
        mat = X.vectors.astype(np.float64)
        N = np.abs(q64[None, :] * mat).sum()
        S = 100_000
        dims = index.dims
        dim_table = alias_build(np.abs(q64[dims]) * index.column_sums)
        rng = np.random.default_rng(8)
        counts = np.zeros(10)
        drawn = alias_sample_many(dim_table, rng, S)
        for slot in range(dims.size):
            n_t = int(np.count_nonzero(drawn == slot))
            if n_t == 0:
                continue
            t = int(dims[slot])
            pts = alias_sample_many(index.tables[slot], rng, n_t)
            counts += np.bincount(pts, weights=np.sign(q64[t] * mat[pts, t]), minlength=10)
        theory = (mat @ q64) / N
        per_point_abs = np.abs(q64[None, :] * mat).sum(axis=1)
        var = per_point_abs / N - theory**2
        z = np.abs(counts / S - theory) / np.sqrt(var / S)
        assert z.max() <= 3.0

    def test_rejects_zero_mass_query(self):
        X = Collection(np.array([[1, 0], [2, 0]], dtype=np.float32))
        index = build_wedge_index(X)
        with pytest.raises(ValueError):
            wedge_topk(index, X, np.array([0, 5], dtype=np.float32), samples=10, k=1)

    def test_zero_column_dimensions_dropped(self):
        X = Collection(np.array([[1, 0, 2], [3, 0, 4]], dtype=np.float32))
        index = build_wedge_index(X)
        assert index.dims.tolist() == [0, 2]

    def test_top1_rate_improves_with_samples(self):
        X = rand_collection(120, 16, 9)
        index = build_wedge_index(X)
        rng = np.random.default_rng(10)
        queries = rng.standard_normal((40, 16)).astype(np.float32)
        oracles = [brute_force_topk(X, q, 1, DistanceKind.NEG_INNER_PRODUCT) for q in queries]

        def rate(samples):
            hits = 0
            for i, (q, o) in enumerate(zip(queries, oracles)):
                res = wedge_topk(index, X, q, samples=samples, k=1, k_prime=5, seed=i)
                hits += recall(o, res, 1)
            return hits / len(queries)

        rates = [rate(s) for s in (20, 200, 4000)]
        assert rates[0] < rates[1] < rates[2]


class TestBoundedMe:
    def test_schedule_formula(self):
        n_alive, k, eps_i, delta_i, d = 500, 10, 0.05, 0.05, 64
        gap = n_alive - k
        x = (2.0 / eps_i**2) * math.log(2.0 * gap / (delta_i * (gap // 2 + 1)))
        expected = min(d, max(1, math.ceil(min((1 + x) / (1 + x / d),
                                               (x + x / d) / (1 + x / d)))))
        assert boundedme_schedule(n_alive, k, eps_i, delta_i, d) == expected

    def test_schedule_frozen_values(self):
        # independently computed with the printed formula (natural log)
        assert boundedme_schedule(500, 10, 0.2 / 4, 0.1 / 2, 64) == 63
        assert boundedme_schedule(100, 5, 0.1, 0.05, 1000) == 467
        assert boundedme_schedule(11, 10, 0.3, 0.2, 32) == 21

    def test_h_function(self):
        assert sample_size_h(0.0, 10) == 0.0
        x, d = 7.0, 16
        assert sample_size_h(x, d) == min((1 + x) / (1 + x / d), (x + x / d) / (1 + x / d))

    def test_k_equals_m_immediate(self):
        X = rand_collection(20, 8, 11)
        q = np.random.default_rng(12).standard_normal(8).astype(np.float32)
        res, diag = boundedme_topk(X, q, k=20, eps=0.2, delta=0.1, seed=0)
        assert len(res) == 20 and diag["rounds"] == 0

    def test_tiny_d_equals_oracle(self):
        X = rand_collection(200, 4, 13)
        rng = np.random.default_rng(14)
        for trial in range(10):
            q = rng.standard_normal(4).astype(np.float32)
            res, diag = boundedme_topk(X, q, k=5, eps=0.3, delta=0.1, seed=trial)
            want = brute_force_topk(X, q, 5, DistanceKind.NEG_INNER_PRODUCT)
            assert max(diag["schedule"]) == 4  # full inner products
            assert res.ids.tolist() == want.ids.tolist()

    def test_work_cap_and_no_resampling(self):
        X = rand_collection(500, 64, 15)
        q = np.random.default_rng(16).standard_normal(64).astype(np.float32)
        res, diag = boundedme_topk(X, q, k=10, eps=0.2, delta=0.1, seed=2)
        assert diag["products"] <= 500 * 64
        assert all(b >= a for a, b in zip(diag["schedule"], diag["schedule"][1:]))
        assert max(diag["schedule"]) <= 64

    def test_epsilon_validity_rate(self):
        ok = 0
        runs = 50
        for s in range(runs):
            X = rand_collection(300, 64, 700 + s)
            q = np.random.default_rng(800 + s).standard_normal(64).astype(np.float32)
            res, diag = boundedme_topk(X, q, k=10, eps=0.2, delta=0.1, seed=s)
            full = _contributions(X, q).mean(axis=1)
            kth_exact = np.sort(full)[::-1][9]
            kth_got = np.sort(full[res.ids])[::-1][9]
            ok += (kth_exact - kth_got) <= 0.2
        assert ok / runs >= 0.85

    def _assert_matches_reference(self, X, q, k, eps, delta, seed):
        """Ids, score bits and diagnostics equal the reference's, and so
        does every round's sums, halved (an ulp there rarely moves a
        survivor, so the answers alone would not show it)."""
        got_sums, want_sums, depth = [], [], [0]

        def spy(block):  # records the outermost calls; the helper recurses above 128 rows
            depth[0] += 1
            try:
                sums = _column_sums(block)
            finally:
                depth[0] -= 1
            if depth[0] == 0:
                got_sums.append(np.multiply(sums, 0.5))
            return sums

        with mock.patch.object(sampling, "_column_sums", spy):
            got, diag = boundedme_topk(X, q, k, eps=eps, delta=delta, seed=seed)
        want, want_diag, refills = boundedme_reference(X, q, k, eps, delta, seed, want_sums)
        assert np.array_equal(got.ids, want.ids)
        assert got.scores.tobytes() == want.scores.tobytes()
        assert diag == want_diag
        assert [a.tobytes() for a in got_sums] == [b.tobytes() for b in want_sums]
        return refills

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_blocks_equal_full_matrix_reference(self, data):
        """Per-round blocks give the reference's ids, score bits, products,
        schedule and rounds: integer ties and duplicate rows, constant
        columns (span 0), zero queries (q_max = 0), k from 1 to m + 2."""
        m = data.draw(st.integers(1, 60), label="m")
        d = data.draw(st.integers(1, 12), label="d")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        span = data.draw(st.integers(0, 3), label="span")
        mat = rng.integers(-span, span + 1, size=(m, d)).astype(np.float32)
        if data.draw(st.booleans(), label="scaled"):
            mat *= np.float32(rng.standard_normal())
        constant = data.draw(st.lists(st.integers(0, d - 1), max_size=d), label="constant")
        mat[:, constant] = mat[0, constant]
        q = rng.integers(-2, 3, size=d).astype(np.float32)
        if data.draw(st.booleans(), label="zero_query"):
            q[:] = 0
        k = data.draw(st.integers(1, m + 2), label="k")
        eps = data.draw(st.sampled_from([0.05, 0.3, 0.9]), label="eps")
        delta = data.draw(st.sampled_from([0.1, 0.9]), label="delta")
        self._assert_matches_reference(Collection(mat), q, k, eps, delta, data.draw(st.integers(0, 5)))

    def test_ties_reach_refill_and_match_reference(self):
        rng = np.random.default_rng(17)
        base = rng.integers(0, 2, size=(6, 16)).astype(np.float32)
        X = Collection(base[rng.integers(0, 6, size=300)])  # 300 rows, 6 distinct
        refills = 0
        for seed in range(6):
            q = rng.integers(-1, 2, size=16).astype(np.float32)
            for k in (1, 7, 60):
                refills += self._assert_matches_reference(X, q, k, 0.3, 0.2, seed)
        assert refills > 0

    def test_blocks_match_reference_on_gaussian_data(self):
        rng = np.random.default_rng(18)
        X = rand_collection(2000, 32, 19)
        for seed in range(5):
            q = rng.standard_normal(32).astype(np.float32)
            self._assert_matches_reference(X, q, 10, 0.9, 0.9, seed)
            self._assert_matches_reference(X, q, 2000, 0.9, 0.9, seed)
            self._assert_matches_reference(X, q, 2001, 0.9, 0.9, seed)

    def test_diagnostics_hold_no_matrix(self):
        X = rand_collection(300, 16, 20)
        q = np.random.default_rng(21).standard_normal(16).astype(np.float32)
        _, diag = boundedme_topk(X, q, k=5, eps=0.3, delta=0.1, seed=0)
        assert set(diag) == {"products", "schedule", "rounds"}

    def test_contribution_block_bits_equal_reference_columns(self):
        rng = np.random.default_rng(22)
        for m, d in ((1, 3), (37, 5), (500, 64)):
            X = Collection((rng.standard_normal((m, d)) * rng.uniform(0.01, 100, d)).astype(np.float32))
            q = rng.standard_normal(d)
            full = _contributions(X, q)
            lo, hi = X.column_range
            span = hi - lo
            q_scaled = q * span
            if np.abs(q_scaled).max() > 0:
                q_scaled = q_scaled / np.abs(q_scaled).max()
            rows = np.sort(rng.choice(m, size=max(1, m // 3), replace=False))
            dims = rng.permutation(d)[:max(1, d // 2)]
            block = _contribution_block(X.columns[dims[:, None], rows], lo[dims],
                                        np.where(span > 0, span, 1.0)[dims], q_scaled[dims])
            # the block holds twice each contribution, and halving it is exact
            assert np.multiply(block, 0.5).T.tobytes() == full[np.ix_(rows, dims)].tobytes()

    def test_column_sums_equal_numpy_row_sums(self):
        """The column sums equal numpy's pairwise row sums of the
        transpose bit for bit, across the sequential (t < 8), 8-way
        (t <= 128) and split (t > 128) cases and magnitudes 1e-8..1e8."""
        rng = np.random.default_rng(23)
        for t in range(301):
            block = rng.standard_normal((t, 40)) * 10.0 ** rng.uniform(-8, 8, size=(t, 40))
            block[:, 0] = -0.0  # an all -0 column sums to +0
            block[: t // 2, 1] = 0.0
            want = np.ascontiguousarray(block.T).sum(axis=1)
            got = _column_sums(block.copy())
            assert got.tobytes() == want.tobytes(), t

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_wide_rounds_equal_full_matrix_reference(self, data):
        """As above, with up to 200 dimensions and small eps, so that a
        round takes more than 8 and more than 128 new dimensions."""
        m = data.draw(st.integers(2, 80), label="m")
        d = data.draw(st.integers(9, 200), label="d")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        if data.draw(st.booleans(), label="ties"):
            mat = rng.integers(-2, 3, size=(m, d)).astype(np.float32)
        else:
            mat = (rng.standard_normal((m, d)) * 10.0 ** rng.uniform(-3, 3, size=d)).astype(np.float32)
        q = rng.standard_normal(d).astype(np.float32)
        k = data.draw(st.integers(1, m), label="k")
        eps = data.draw(st.sampled_from([0.02, 0.05, 0.3]), label="eps")
        self._assert_matches_reference(Collection(mat), q, k, eps, 0.1, data.draw(st.integers(0, 5)))

    def test_rounds_past_8_and_128_dimensions_match_reference(self):
        rng = np.random.default_rng(24)
        widest = 0
        for d in (9, 64, 128, 129, 200):
            X = rand_collection(150, d, 25 + d)
            for seed, eps in enumerate((0.02, 0.05, 0.3)):
                q = rng.standard_normal(d).astype(np.float32)
                _, diag = boundedme_topk(X, q, 10, eps=eps, delta=0.1, seed=seed)
                self._assert_matches_reference(X, q, 10, eps, 0.1, seed)
                steps = np.diff([0] + diag["schedule"])
                widest = max(widest, int(steps.max()))
        assert widest > 128

    def test_query_clustered_answers_match_pinned_digest(self):
        """The 120 BoundedME answers at query-clustered's shape hash to the
        digest that ``scripts/bench_queries.py`` pins."""
        bench = load_script("bench_queries")
        data, queries = bench.mixture(1, 20000, max(bench.COUNTS.values()))
        X = Collection(data)
        digest = hashlib.sha256()
        for q in queries[:bench.COUNTS["boundedme"]]:
            res, _ = boundedme_topk(X, q, bench.K, eps=0.9, delta=0.9, seed=3)
            digest.update(res.ids.tobytes() + res.scores.tobytes())
        assert digest.hexdigest() == bench.PINNED["boundedme"]

    def test_bench_check_compares_digests_and_writes_nothing(self, monkeypatch, capsys):
        bench = load_script("bench_queries")
        out = Path(bench.__file__).resolve().parent.parent / "BENCH_queries.json"
        before = out.read_bytes() if out.exists() else None
        brute = lambda X: {"brute": lambda q: brute_force_topk(X, q, bench.K, DistanceKind.L2_SQUARED)}
        monkeypatch.setattr(bench, "families", brute)
        assert bench.main(["--check"]) == 0
        monkeypatch.setitem(bench.PINNED, "brute", "0" * 64)
        assert bench.main(["--check"]) == 1
        assert "brute: p50" in capsys.readouterr().out
        assert (out.read_bytes() if out.exists() else None) == before
        with pytest.raises(SystemExit):
            bench.main(["--check", "--label", "x"])

