import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annkit.core import SparseVector, brute_force_topk, DistanceKind, recall
from annkit.harness.container import save_index
from annkit.harness.synth import generate_sparse
from annkit.sketch import (
    AsymSketch,
    JlSketcher,
    ThresholdSketcher,
    _bucket_of,
    _bucket_table,
    asym_sketch,
    asym_upper_bound,
    jl_ip_estimate,
    jl_project,
)


def sparse_vec(rng, d, nnz, signed=True):
    idx = np.sort(rng.choice(d, size=nnz, replace=False)).astype(np.int64)
    vals = rng.exponential(1.0, size=nnz) + 1e-6
    if signed:
        vals *= rng.choice([-1.0, 1.0], size=nnz)
    return SparseVector(indices=idx, values=vals.astype(np.float32), dim=d)


def reference_support(u, dense=False):
    if isinstance(u, SparseVector):
        return u.indices, u.values.astype(np.float64), u.dim
    arr = np.asarray(u, dtype=np.float64)
    coords = np.arange(arr.shape[0], dtype=np.int64) if dense else np.flatnonzero(arr).astype(np.int64)
    return coords, arr[coords], arr.shape[0]


def reference_asym_sketch(u, sketch_dim, h, seed, non_negative=False, dense=False):
    """The envelope sketch as one sequential max/min per coordinate,
    mapping by mapping, where the first value to reach a bucket sets it."""
    n_buckets = sketch_dim // 2
    coords, values, dim = reference_support(u, dense)
    upper = np.zeros(n_buckets)
    lower = np.zeros(n_buckets)
    touched = np.zeros(n_buckets, dtype=bool)
    for o in range(h):
        for b, v in zip(_bucket_of(seed, o, coords, n_buckets), values):
            if not touched[b]:
                upper[b] = lower[b] = v
                touched[b] = True
            else:
                upper[b] = max(upper[b], v)
                lower[b] = min(lower[b], v)
    return AsymSketch(nz=None if dense else coords, upper=upper,
                      lower=None if non_negative else lower, h=h, seed=seed, dim=dim)


def reference_upper_bound(q, sketch):
    """The upper bound with one hash call and one gather per mapping."""
    q_coords, q_values, _ = reference_support(q)
    if sketch.nz is not None:
        keep = np.isin(q_coords, sketch.nz)
        q_coords, q_values = q_coords[keep], q_values[keep]
    if q_coords.size == 0:
        return 0.0
    ups = np.empty((sketch.h, q_coords.size))
    lows = np.empty((sketch.h, q_coords.size)) if sketch.lower is not None else None
    for o in range(sketch.h):
        buckets = _bucket_of(sketch.seed, o, q_coords, sketch.buckets)
        ups[o] = sketch.upper[buckets]
        if lows is not None:
            lows[o] = sketch.lower[buckets]
    least_upper = ups.min(axis=0)
    total = float(q_values[q_values > 0] @ least_upper[q_values > 0])
    neg = q_values < 0
    if np.any(neg):
        if lows is None:
            raise ValueError("negative query coordinates need a lower-bound sketch")
        total += float(q_values[neg] @ lows.max(axis=0)[neg])
    return total


def same_bits(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def sha256_of_container(obj, tmp_path) -> str:
    path = tmp_path / "obj.akx"
    save_index(path, obj)
    return hashlib.sha256(path.read_bytes()).hexdigest()


# values with ties and both signed zeros next to arbitrary finite floats
_values = st.one_of(st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0]),
                    st.floats(-1e6, 1e6, width=32))


def _vector(values, sparse):
    arr = np.array(values, dtype=np.float32)
    if not sparse:
        return arr
    nz = np.flatnonzero(arr)
    return SparseVector(indices=nz, values=arr[nz], dim=arr.size)


@st.composite
def sketch_cases(draw):
    d = draw(st.integers(1, 24))
    non_negative = draw(st.booleans())
    u_values = draw(st.lists(_values, min_size=d, max_size=d))
    q_values = draw(st.lists(_values, min_size=d, max_size=d))
    if non_negative:
        u_values, q_values = np.abs(u_values), np.abs(q_values)
    u = _vector(u_values, sparse=draw(st.booleans()))
    q = _vector(q_values, sparse=draw(st.booleans()))
    sketch_dim = 2 * draw(st.integers(1, d + 1))  # one bucket makes every coordinate collide
    params = dict(sketch_dim=sketch_dim, h=draw(st.integers(1, 5)), seed=draw(st.integers(0, 2**40)),
                  non_negative=non_negative, dense=draw(st.booleans()))
    return u, q, params


@settings(max_examples=400, deadline=None)
@given(sketch_cases())
def test_asym_sketch_and_bound_equal_the_sequential_reference(case):
    u, q, params = case
    sk, ref = asym_sketch(u, **params), reference_asym_sketch(u, **params)
    assert same_bits(sk.nz, ref.nz)
    assert same_bits(sk.upper, ref.upper)
    assert same_bits(sk.lower, ref.lower)
    try:
        expected = reference_upper_bound(q, ref)
    except ValueError:
        with pytest.raises(ValueError):
            asym_upper_bound(q, sk)
        return
    assert same_bits(asym_upper_bound(q, sk), expected)


def test_asym_sketch_signed_zero_ties_keep_the_first():
    # one bucket: the envelope is zero and its sign is the first zero's
    for values in ([0.0, -0.0, -1.0], [-0.0, 0.0, -1.0], [-1.0, -0.0, 0.0, 2.0]):
        u = np.array(values, dtype=np.float32)
        for h in (1, 3):
            sk = asym_sketch(u, sketch_dim=2, h=h, seed=5, dense=True)
            ref = reference_asym_sketch(u, sketch_dim=2, h=h, seed=5, dense=True)
            assert same_bits(sk.upper, ref.upper) and same_bits(sk.lower, ref.lower)


def test_asym_sketch_nan_value_makes_its_buckets_nan():
    u = np.array([1.0, np.nan, -2.0, 0.5])
    with np.errstate(invalid="ignore"):
        sk = asym_sketch(u, sketch_dim=2, h=2, seed=3, dense=True)
    assert np.isnan(sk.upper[0]) and np.isnan(sk.lower[0])


def test_pinned_asym_set_container(tmp_path):
    rng = np.random.default_rng(2024)
    sketches = []
    for i in range(60):
        d = 48
        if i % 3 == 0:
            u = rng.integers(-2, 3, size=d).astype(np.float32)  # ties and zeros
            sketches.append(asym_sketch(u, sketch_dim=24, h=3, seed=17, dense=True))
        else:
            idx = np.sort(rng.choice(d, size=int(rng.integers(1, 12)), replace=False))
            vals = (rng.exponential(1.0, size=idx.size) + 1e-3).astype(np.float32)
            if i % 3 == 1:
                vals *= rng.choice([-1.0, 1.0], size=idx.size).astype(np.float32)
            sketches.append(asym_sketch(SparseVector(indices=idx, values=vals, dim=d), sketch_dim=24,
                                        h=3, seed=17, non_negative=i % 3 == 2))
    assert sha256_of_container(sketches, tmp_path) == ASYM_SET_SHA256


def test_pinned_jl_signs():
    digest = hashlib.sha256()
    for out_dim, seed, dim in ((4, 0, 6), (64, 5, 32), (16, 123456789, 100), (3, 2**40, 7)):
        digest.update(JlSketcher(out_dim, seed).signs(dim).tobytes())
    assert digest.hexdigest() == JL_SIGNS_SHA256


def test_pinned_threshold_sketches(tmp_path):
    rng = np.random.default_rng(2025)
    sketches = []
    for s in range(40):
        u = rng.standard_normal(64)
        u[rng.random(64) < 0.3] = 0.0
        sketches.append(ThresholdSketcher(out_dim=12, seed=s).sketch(u))
    assert sha256_of_container(sketches, tmp_path) == THRESHOLD_SET_SHA256


def test_bucket_table_is_read_only_and_keyed_by_value():
    table = _bucket_table(7, 3, 16, 40)
    assert not table.flags.writeable
    assert np.array_equal(table, _bucket_of(7, np.arange(3)[:, None], np.arange(40), 16))
    assert _bucket_table(np.int64(7), np.int64(3), 16, 40) is table
    assert not np.array_equal(_bucket_table(8, 3, 16, 40), table)


@pytest.mark.parametrize("h", [1, 5])
def test_huge_sparse_dimension_hashes_only_the_non_zeros(h):
    # a hashed-feature dimension far past any table: sketching and bounding
    # must cost what the non-zeros cost, and equal the reference
    dim = 2**40
    u = SparseVector(indices=np.array([3, 2**20, 2**33 + 7, dim - 1]),
                     values=np.array([1.5, -2.0, 0.25, 4.0], dtype=np.float32), dim=dim)
    q = SparseVector(indices=np.array([3, 99, 2**33 + 7, dim - 1]),
                     values=np.array([-1.0, 2.0, 3.0, 0.5], dtype=np.float32), dim=dim)
    sk = asym_sketch(u, sketch_dim=16, h=h, seed=11)
    ref = reference_asym_sketch(u, sketch_dim=16, h=h, seed=11)
    assert all(same_bits(getattr(sk, f), getattr(ref, f)) for f in ("nz", "upper", "lower"))
    assert asym_upper_bound(q, sk) == reference_upper_bound(q, ref)
    assert asym_upper_bound(u, sk) >= float(u.values.astype(np.float64) @ u.values) - 1e-9


# sha256 digests pinned from the per-mapping loop implementation; the two
# containers' with each integer array at its narrowest width
ASYM_SET_SHA256 = "6e0b3b28d55f11daa2b5e66be478bd4a51a68c85cb0823aa2de6f3a7464e67eb"
JL_SIGNS_SHA256 = "ce28766d00638d54872631b802518d577eed0e1c8e4b6989b83eb6aa5716ecbc"
THRESHOLD_SET_SHA256 = "1ab8db546b1e28dedb4eb90364e1dfa19fe191fb269c9229408ed3d3683869b3"


class TestJl:
    def test_zero_vector(self):
        sk = JlSketcher(out_dim=16, seed=0)
        proj = jl_project(sk, np.zeros(10))
        assert np.all(proj == 0.0)
        assert jl_ip_estimate(proj, proj) == 0.0

    def test_deterministic(self):
        sk = JlSketcher(out_dim=8, seed=5)
        u = np.random.default_rng(1).standard_normal(12)
        assert np.array_equal(jl_project(sk, u), jl_project(JlSketcher(8, 5), u))

    def test_entries_are_scaled_signs(self):
        sk = JlSketcher(out_dim=4, seed=2)
        signs = sk.signs(6)
        assert set(np.unique(signs).tolist()) <= {-1.0, 1.0}

    def test_unbiased(self):
        rng = np.random.default_rng(3)
        u, v = rng.standard_normal(24), rng.standard_normal(24)
        truth = float(u @ v)
        ests = np.array([
            jl_ip_estimate(jl_project(JlSketcher(32, s), u), jl_project(JlSketcher(32, s), v))
            for s in range(3000)
        ])
        assert abs(ests.mean() - truth) <= 3 * ests.std() / np.sqrt(ests.size)

    def test_variance_matches_formula(self):
        rng = np.random.default_rng(4)
        u, v = rng.standard_normal(16), rng.standard_normal(16)
        d_out = 64
        ests = np.array([
            jl_ip_estimate(jl_project(JlSketcher(d_out, s), u), jl_project(JlSketcher(d_out, s), v))
            for s in range(4000)
        ])
        theory = (np.sum(u**2) * np.sum(v**2) + float(u @ v) ** 2 - 2 * np.sum(u**2 * v**2)) / d_out
        assert abs(ests.var() - theory) <= 0.2 * theory


class TestAsym:
    def test_single_nonzero_coordinate(self):
        u = SparseVector(indices=np.array([5]), values=np.array([2.5], dtype=np.float32), dim=16)
        sk = asym_sketch(u, sketch_dim=8, h=2, seed=0)
        touched = sk.upper != 0
        assert np.all(sk.upper[touched] == pytest.approx(2.5))
        assert np.all(sk.lower[touched] == pytest.approx(2.5))

    def test_bucket_recompute_invariant(self):
        rng = np.random.default_rng(1)
        u = sparse_vec(rng, 64, 12)
        sk = asym_sketch(u, sketch_dim=16, h=3, seed=7)
        from annkit.sketch import _bucket_of

        upper = np.zeros(8)
        lower = np.zeros(8)
        touched = np.zeros(8, dtype=bool)
        for o in range(3):
            buckets = _bucket_of(7, o, u.indices, 8)
            for b, v in zip(buckets, u.values.astype(np.float64)):
                if not touched[b]:
                    upper[b] = lower[b] = v
                    touched[b] = True
                else:
                    upper[b] = max(upper[b], v)
                    lower[b] = min(lower[b], v)
        assert np.array_equal(upper, sk.upper)
        assert np.array_equal(lower, sk.lower)

    def test_disjoint_supports_zero(self):
        u = SparseVector(indices=np.array([0, 1]), values=np.array([1.0, 2.0], dtype=np.float32), dim=8)
        q = np.zeros(8, dtype=np.float32)
        q[5] = 3.0
        sk = asym_sketch(u, sketch_dim=4, h=1, seed=3)
        assert asym_upper_bound(q, sk) == 0.0

    def test_collision_free_seed_is_exact(self):
        rng = np.random.default_rng(2)
        d = 12
        u = sparse_vec(rng, d, 6)
        from annkit.sketch import _bucket_of

        seed = None
        for candidate in range(1000):
            buckets = _bucket_of(candidate, 0, u.indices, d)  # 2*d/2 >= d buckets
            if np.unique(buckets).size == u.indices.size:
                seed = candidate
                break
        assert seed is not None
        sk = asym_sketch(u, sketch_dim=2 * d, h=1, seed=seed)
        q = rng.standard_normal(d).astype(np.float32)
        exact = float(q.astype(np.float64)[u.indices] @ u.values.astype(np.float64))
        assert asym_upper_bound(q, sk) == pytest.approx(exact, abs=1e-9)

    def test_upper_bound_never_violated(self):
        rng = np.random.default_rng(5)
        violations = 0
        for trial in range(2000):
            u = sparse_vec(rng, 48, int(rng.integers(3, 16)))
            q = rng.standard_normal(48).astype(np.float32)
            sk = asym_sketch(u, sketch_dim=16, h=2, seed=trial % 11)
            bound = asym_upper_bound(q, sk)
            exact = float(q.astype(np.float64)[u.indices] @ u.values.astype(np.float64))
            violations += bound < exact - 1e-9
        assert violations == 0

    def test_non_negative_mode_drops_lower(self):
        rng = np.random.default_rng(6)
        u = sparse_vec(rng, 32, 8, signed=False)
        sk = asym_sketch(u, sketch_dim=8, h=2, seed=1, non_negative=True)
        assert sk.lower is None
        q = np.abs(rng.standard_normal(32)).astype(np.float32)
        exact = float(q.astype(np.float64)[u.indices] @ u.values.astype(np.float64))
        assert asym_upper_bound(q, sk) >= exact - 1e-9

    def test_negative_query_needs_lower_sketch(self):
        rng = np.random.default_rng(7)
        u = sparse_vec(rng, 16, 4, signed=False)
        sk = asym_sketch(u, sketch_dim=8, h=1, seed=2, non_negative=True)
        q = np.zeros(16, dtype=np.float32)
        q[u.indices[0]] = -1.0
        with pytest.raises(ValueError):
            asym_upper_bound(q, sk)

    def test_query_dimension_must_match(self):
        u = SparseVector(indices=np.array([1, 7]), values=np.array([1.0, -2.0], dtype=np.float32), dim=8)
        for dense in (False, True):
            sk = asym_sketch(u, sketch_dim=4, h=2, seed=1, dense=dense)
            with pytest.raises(ValueError, match="dimension"):
                asym_upper_bound(np.ones(12, dtype=np.float32), sk)

    def test_dense_mode_skips_nz_and_bounds(self):
        rng = np.random.default_rng(8)
        u = rng.standard_normal(20).astype(np.float32)
        sk = asym_sketch(u, sketch_dim=12, h=2, seed=4, dense=True)
        assert sk.nz is None
        for trial in range(200):
            q = rng.standard_normal(20).astype(np.float32)
            exact = float(q.astype(np.float64) @ u.astype(np.float64))
            assert asym_upper_bound(q, sk) >= exact - 1e-9

    def test_retrieval_sanity_band(self):
        X = generate_sparse(m=1000, d=512, nnz=24, seed=9, positive=False)
        sketches = [asym_sketch(X[i], sketch_dim=256, h=2, seed=42) for i in range(1000)]
        rng = np.random.default_rng(10)
        recalls = []
        for qi in range(20):
            q = sparse_vec(rng, 512, 24)
            bounds = np.array([asym_upper_bound(q, sk) for sk in sketches])
            top50 = np.lexsort((np.arange(1000), -bounds))[:50]
            exact = brute_force_topk(X, q, 10, DistanceKind.NEG_INNER_PRODUCT)
            rescored = sorted(
                top50, key=lambda i: (-float(np.dot(q.to_dense().astype(np.float64),
                                                    X[i].to_dense().astype(np.float64))), i))[:10]
            from annkit.core import TopKResult

            approx = TopKResult(ids=np.array(rescored, dtype=np.int64),
                                scores=np.arange(10, dtype=np.float64), k=10)
            recalls.append(recall(exact, approx, 10))
        assert np.mean(recalls) >= 0.8


class TestThreshold:
    def test_equal_magnitudes_fully_kept(self):
        u = np.ones(8)
        ts = ThresholdSketcher(out_dim=8, seed=0)
        sk = ts.sketch(u)
        assert len(sk) == 8
        other = ts.sketch(np.ones(8) * 2.0)
        from annkit.sketch import threshold_ip_estimate

        assert threshold_ip_estimate(sk, other) == pytest.approx(16.0)

    def test_zero_out_dim_empty(self):
        ts = ThresholdSketcher(out_dim=0, seed=1)
        sk = ts.sketch(np.ones(5))
        assert len(sk) == 0

    def test_zero_vector_rejected(self):
        ts = ThresholdSketcher(out_dim=4, seed=2)
        with pytest.raises(ValueError):
            ts.sketch(np.zeros(5))

    def test_values_are_exact_coordinates(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(30)
        ts = ThresholdSketcher(out_dim=10, seed=4)
        sk = ts.sketch(u)
        assert np.array_equal(sk.values, u[sk.indices])

    def test_expected_size(self):
        rng = np.random.default_rng(5)
        u = rng.standard_normal(40)
        d_out = 12
        expected = np.sum(np.minimum(1.0, d_out * u**2 / np.sum(u**2)))
        sizes = [len(ThresholdSketcher(d_out, s).sketch(u)) for s in range(1000)]
        sd = np.std(sizes) / np.sqrt(len(sizes))
        assert abs(np.mean(sizes) - expected) <= 3 * max(sd, 1e-9)

    def test_disjoint_supports_estimate_zero(self):
        from annkit.sketch import threshold_ip_estimate

        u = np.zeros(10)
        v = np.zeros(10)
        u[:5] = 1.0
        v[5:] = 1.0
        ts = ThresholdSketcher(out_dim=10, seed=6)
        assert threshold_ip_estimate(ts.sketch(u), ts.sketch(v)) == 0.0

    def test_unbiased(self):
        from annkit.sketch import threshold_ip_estimate

        rng = np.random.default_rng(7)
        u, v = rng.standard_normal(32), rng.standard_normal(32)
        truth = float(u @ v)
        ests = np.array([
            threshold_ip_estimate(ThresholdSketcher(12, s).sketch(u),
                                  ThresholdSketcher(12, s).sketch(v))
            for s in range(4000)
        ])
        assert abs(ests.mean() - truth) <= 3 * ests.std() / np.sqrt(ests.size)

    def test_variance_bound(self):
        from annkit.sketch import threshold_ip_estimate

        rng = np.random.default_rng(8)
        for d_out in (8, 32):
            u, v = rng.standard_normal(24), rng.standard_normal(24)
            ests = np.array([
                threshold_ip_estimate(ThresholdSketcher(d_out, s).sketch(u),
                                      ThresholdSketcher(d_out, s).sketch(v))
                for s in range(3000)
            ])
            star = (u != 0) & (v != 0)
            bound = 2 / d_out * max(np.sum(u[star] ** 2) * np.sum(v**2),
                                    np.sum(u**2) * np.sum(v[star] ** 2))
            assert ests.var() <= 1.1 * bound
