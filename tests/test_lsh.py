import dataclasses
import math

import numpy as np
import pytest

from annkit.core import Collection, DistanceKind, brute_force_topk, epsilon_valid, recall
from annkit.lsh import (
    FamilyKind,
    HashFamily,
    approx_nn,
    build_index,
    derive_params,
    mips_hash_index,
    pleb_query,
    pstable_collision_probability,
)


def rand_collection(m, d, seed):
    return Collection(np.random.default_rng(seed).standard_normal((m, d)).astype(np.float32))


def assert_same_tables(got, want):
    """LSH tables equal table by table: the same bucket keys, and under each
    key int64 ids equal to the wanted ones (an array or a list)."""
    assert len(got) == len(want)
    for table, expected in zip(got, want):
        assert sorted(table) == sorted(expected)
        for key, ids in table.items():
            assert ids.dtype == np.int64 and np.array_equal(ids, expected[key]), key


class TestDeriveParams:
    def test_formula_values(self):
        ell, big_l, rho = derive_params(10_000, 0.9, 0.5)
        assert rho == pytest.approx(math.log(0.9) / math.log(0.5))
        assert ell == math.ceil(math.log(10_000) / math.log(2.0))
        assert big_l == math.ceil(10_000**rho)
        assert (ell, big_l) == (14, 5)

    def test_degenerate_close_probabilities(self):
        ell, big_l, rho = derive_params(100, 0.500001, 0.5)
        assert rho > 0.999
        assert big_l >= 99

    def test_minimum_ell_enforced(self):
        ell, _, _ = derive_params(1, 0.9, 0.5)
        assert ell == 1

    def test_rejects_p1_not_above_p2(self):
        with pytest.raises(ValueError):
            derive_params(100, 0.5, 0.5)


class TestHashFamilies:
    def test_equality_ignores_parameter_caches(self):
        a = HashFamily(FamilyKind.HYPERPLANE, seed=1, d=3)
        b = HashFamily(FamilyKind.HYPERPLANE, seed=1, d=3)
        u = np.ones(3)
        a.hash(0, u)
        b.hash_block(0, 2, u[None, :])
        assert a == b
        assert a != HashFamily(FamilyKind.HYPERPLANE, seed=2, d=3)

    @pytest.mark.parametrize("field,value", [("kind", FamilyKind.P_STABLE_L2), ("seed", 2), ("d", 4), ("r", 2.0)])
    def test_fields_frozen_after_hashing(self, field, value):
        """The parameter caches hold what the fields gave; a field cannot
        change under them."""
        fam = HashFamily(FamilyKind.HYPERPLANE, seed=1, d=3)
        fam.hash_block(0, 4, np.ones((2, 3)))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(fam, field, value)

    @pytest.mark.parametrize("r", [0.0, -1.0, math.nan, math.inf])
    def test_pstable_width_must_be_finite_and_positive(self, r):
        with pytest.raises(ValueError, match="p-stable bucket width r must be finite and positive"):
            HashFamily(FamilyKind.P_STABLE_L2, seed=1, d=3, r=r)
        HashFamily(FamilyKind.HYPERPLANE, seed=1, d=3, r=r)  # only the p-stable family reads r

    def test_hyperplane_antipodal_never_collides(self):
        fam = HashFamily(FamilyKind.HYPERPLANE, seed=0, d=6)
        u = np.random.default_rng(1).standard_normal(6)
        assert all(fam.hash(i, u) != fam.hash(i, -u) for i in range(200))

    def test_hyperplane_right_angle_rate(self):
        fam = HashFamily(FamilyKind.HYPERPLANE, seed=2, d=8)
        u = np.zeros(8); u[0] = 1.0
        v = np.zeros(8); v[1] = 1.0
        n = 10_000
        rate = sum(fam.hash(i, u) == fam.hash(i, v) for i in range(n)) / n
        assert abs(rate - 0.5) <= 3 * math.sqrt(0.25 / n)

    def test_pstable_hand_example(self):
        fam = HashFamily(FamilyKind.P_STABLE_L2, seed=0, d=2, r=1.0)
        fam._cache[0] = (np.array([1.0, 0.0]), 0.8)  # pinned (alpha, beta)
        assert fam.hash(0, np.array([0.3, 9.0])) == 1

    def test_bit_sampling_requires_binary(self):
        fam = HashFamily(FamilyKind.BIT_SAMPLING, seed=1, d=4)
        assert fam.hash(0, np.array([1.0, 0, 1, 0])) in (0, 1)
        with pytest.raises(ValueError):
            fam.hash(0, np.array([0.5, 0, 0, 0]))

    def test_pstable_collision_monotone_in_distance(self):
        fam_seed = 5
        d, r, n = 8, 2.0, 10_000
        rng = np.random.default_rng(0)
        u = rng.standard_normal(d)
        direction = rng.standard_normal(d)
        direction /= np.linalg.norm(direction)
        rates = []
        fam = HashFamily(FamilyKind.P_STABLE_L2, seed=fam_seed, d=d, r=r)
        for dist in (0.25, 0.5, 1.0, 2.0, 4.0):
            v = u + dist * direction
            mat = np.stack([u, v])
            coll = sum(
                fam.hash_many(i, mat)[0] == fam.hash_many(i, mat)[1] for i in range(n)
            )
            rates.append(coll / n)
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_cross_polytope_distance_sensitivity(self):
        fam = HashFamily(FamilyKind.CROSS_POLYTOPE, seed=9, d=16)
        rng = np.random.default_rng(2)
        u = rng.standard_normal(16)
        u /= np.linalg.norm(u)
        w = rng.standard_normal(16)
        w -= (w @ u) * u
        w /= np.linalg.norm(w)

        def rate(dist, n=10_000):
            cos = 1 - dist**2 / 2
            v = cos * u + math.sqrt(1 - cos**2) * w
            mat = np.stack([u, v])
            return sum(fam.hash_many(i, mat)[0] == fam.hash_many(i, mat)[1]
                       for i in range(n)) / n

        assert rate(0.2) > rate(1.2)

    def test_pstable_quadrature_reference_value(self):
        # p(r) at distance == bucket width, against an independent midpoint sum
        r = 1.0
        ts = np.linspace(0, r, 20_001)[:-1] + r / 40_000
        f = np.sqrt(2 / np.pi) * np.exp(-(ts**2) / 2)
        riemann = float(np.sum(f * (1 - ts / r)) * (r / 20_000))
        assert pstable_collision_probability(1.0, 1.0) == pytest.approx(riemann, abs=1e-5)


class TestIndex:
    def test_one_bit_two_buckets(self):
        X = rand_collection(64, 2, 3)
        fam = HashFamily(FamilyKind.HYPERPLANE, seed=4, d=2)
        index = build_index(X, fam, ell=1, big_l=1)
        assert len(index.tables[0]) <= 2

    def test_identical_vectors_share_buckets(self):
        X = Collection(np.tile(np.random.default_rng(5).standard_normal(4), (7, 1)).astype(np.float32))
        fam = HashFamily(FamilyKind.P_STABLE_L2, seed=6, d=4, r=1.0)
        index = build_index(X, fam, ell=3, big_l=4)
        for table in index.tables:
            assert len(table) == 1

    def test_bucket_sizes_sum_to_m(self):
        X = rand_collection(150, 6, 7)
        fam = HashFamily(FamilyKind.HYPERPLANE, seed=8, d=6)
        index = build_index(X, fam, ell=3, big_l=5)
        for table in index.tables:
            assert sum(len(ids) for ids in table.values()) == 150

    def test_ids_sorted_in_buckets(self):
        X = rand_collection(100, 4, 9)
        fam = HashFamily(FamilyKind.HYPERPLANE, seed=1, d=4)
        index = build_index(X, fam, ell=2, big_l=3)
        for table in index.tables:
            for ids in table.values():
                assert np.array_equal(ids, np.sort(ids))

    def test_deterministic_rebuild(self):
        X = rand_collection(90, 5, 11)
        a = build_index(X, HashFamily(FamilyKind.P_STABLE_L2, seed=12, d=5, r=2.0), 3, 4)
        b = build_index(X, HashFamily(FamilyKind.P_STABLE_L2, seed=12, d=5, r=2.0), 3, 4)
        assert_same_tables(a.tables, b.tables)


def _golden_inputs(kind):
    rng = np.random.default_rng(2024)
    real = Collection(rng.standard_normal((4, 5)).astype(np.float32))
    bits = Collection((rng.random((4, 5)) < 0.5).astype(np.float32))
    return bits if kind is FamilyKind.BIT_SAMPLING else real


# bucket keys of build_index(_golden_inputs(kind), HashFamily(kind, seed=17, d=5, r=1.5),
# ell=2, big_l=2), recorded from the per-function hashing and mixing that the
# stacked path replaced: they pin the family parameters, the hashes and the mixer
GOLDEN_TABLES = {
    FamilyKind.BIT_SAMPLING: [
        [(7474122154768515502, [0, 3]), (12625994271908667519, [1, 2])],
        [(3726783526585247088, [1]), (7474122154768515502, [2]), (12625994271908667519, [0, 3])],
    ],
    FamilyKind.HYPERPLANE: [
        [(3726783526585247088, [0, 3]), (7474122154768515502, [2]), (9455998881361994749, [1])],
        [(3726783526585247088, [0, 2, 3]), (12625994271908667519, [1])],
    ],
    FamilyKind.CROSS_POLYTOPE: [
        [(6853861111426726173, [1]), (12932512738290084495, [0]), (15233876699831730167, [3]),
         (18417387968796742665, [2])],
        [(71821172764252720, [1]), (1155564691202938701, [3]), (10915730973859549832, [2]),
         (15233876699831730167, [0])],
    ],
    FamilyKind.P_STABLE_L2: [
        [(11106947005267860311, [3]), (11528619866141895516, [0]), (13359741158660888813, [2]),
         (14840733671420057898, [1])],
        [(3726783526585247088, [2]), (11106947005267860311, [0]), (14782015320885546093, [1]),
         (16227481403549772285, [3])],
    ],
}


class TestStackedHashing:
    @pytest.mark.parametrize("kind", list(FamilyKind))
    def test_table_keys_equal_recorded_values(self, kind):
        index = build_index(_golden_inputs(kind), HashFamily(kind, seed=17, d=5, r=1.5), ell=2, big_l=2)
        assert_same_tables(index.tables, [dict(table) for table in GOLDEN_TABLES[kind]])

    @pytest.mark.parametrize("kind", list(FamilyKind))
    def test_query_keys_equal_per_table_keys(self, kind):
        rng = np.random.default_rng(40)
        d = 9  # cross-polytope pads to 16
        if kind is FamilyKind.BIT_SAMPLING:
            mat = (rng.random((50, d)) < 0.5).astype(np.float32)
        else:
            mat = rng.standard_normal((50, d)).astype(np.float32)
        index = build_index(Collection(mat), HashFamily(kind, seed=3, d=d, r=0.7), ell=3, big_l=5)
        for u in mat[:20]:
            keys = index.query_keys(u)
            assert keys == [index.bucket_key(t, u) for t in range(index.big_l)]
            # a point always finds itself in every table
            assert all(key in table for key, table in zip(keys, index.tables))

    @pytest.mark.parametrize("kind", list(FamilyKind))
    def test_block_hashes_equal_single_function_hashes(self, kind):
        rng = np.random.default_rng(41)
        if kind is FamilyKind.BIT_SAMPLING:
            mat = (rng.random((30, 6)) < 0.5).astype(np.float64)
        else:
            mat = rng.standard_normal((30, 6))
        fam = HashFamily(kind, seed=8, d=6, r=0.9)
        block = fam.hash_block(3, 7, mat)
        assert block.shape == (30, 7)
        for j in range(7):
            single = HashFamily(kind, seed=8, d=6, r=0.9)
            assert np.array_equal(block[:, j], single.hash_many(3 + j, mat))
            assert [single.hash(3 + j, u) for u in mat[:5]] == block[:5, j].tolist()


class TestPleb:
    def test_self_collision_yes(self):
        X = rand_collection(50, 4, 13)
        fam = HashFamily(FamilyKind.P_STABLE_L2, seed=14, d=4, r=1.0)
        index = build_index(X, fam, ell=2, big_l=3)
        ans = pleb_query(index, X, X.vectors[7], r=0.5, eps=0.5)
        assert ans.yes and ans.score == 0.0

    def test_empty_buckets_no(self):
        X = Collection(np.full((5, 3), 100.0, dtype=np.float32))
        fam = HashFamily(FamilyKind.P_STABLE_L2, seed=15, d=3, r=0.1)
        index = build_index(X, fam, ell=8, big_l=2)
        ans = pleb_query(index, X, np.full(3, -100.0, dtype=np.float32), r=0.1, eps=0.5)
        assert not ans.yes and ans.visited == 0

    def test_visit_budget_hard_cap(self):
        X = Collection(np.zeros((200, 3), dtype=np.float32))  # everything collides
        fam = HashFamily(FamilyKind.P_STABLE_L2, seed=16, d=3, r=1.0)
        index = build_index(X, fam, ell=1, big_l=2)
        ans = pleb_query(index, X, np.full(3, 50.0, dtype=np.float32), r=1.0, eps=0.01)
        assert not ans.yes
        assert ans.visited <= 4 * index.big_l

    def test_planted_pair_found(self):
        m, d, r = 500, 16, 1.0
        p1 = pstable_collision_probability(r, r)
        p2 = pstable_collision_probability(2 * r, r)
        ell, big_l, _ = derive_params(m, p1, p2)
        yes = 0
        for s in range(20):
            rng = np.random.default_rng(400 + s)
            q = rng.standard_normal(d)
            q /= np.linalg.norm(q)
            dirs = rng.standard_normal((m, d))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            far = q + dirs * (rng.uniform(2.2, 4.0, size=(m, 1)) * r)
            pv = rng.standard_normal(d)
            pv /= np.linalg.norm(pv)
            X = Collection(np.vstack([far, (q + 0.5 * r * pv)[None, :]]).astype(np.float32))
            fam = HashFamily(FamilyKind.P_STABLE_L2, seed=s, d=d, r=r)
            index = build_index(X, fam, ell, big_l)
            ans = pleb_query(index, X, q.astype(np.float32), r, eps=1.0)
            assert ans.visited <= 4 * big_l
            yes += ans.yes
        assert yes / 20 >= 0.9


class TestApproxNn:
    def test_two_clusters(self):
        hits = 0
        for s in range(10):
            rng = np.random.default_rng(600 + s)
            a = rng.standard_normal((40, 8)) * 0.2
            b = rng.standard_normal((40, 8)) * 0.2 + 20.0
            X = Collection(np.vstack([a, b]).astype(np.float32))
            q = (rng.standard_normal(8) * 0.2).astype(np.float32)
            ans = approx_nn(X, q, eps=0.5, seed=s)
            hits += ans.yes and ans.point_id < 40
        assert hits >= 9

    def test_epsilon_validity_rate(self):
        from annkit.lsh import build_radius_ladder

        X = rand_collection(1000, 16, 50)
        ladder = build_radius_ladder(X, eps=0.5, seed=7)
        rng = np.random.default_rng(51)
        valid = 0
        trials = 100
        for _ in range(trials):
            q = rng.standard_normal(16).astype(np.float32)
            exact = brute_force_topk(X, q, 1, DistanceKind.L2_SQUARED)
            ans = ladder.query(q)
            if ans.yes and epsilon_valid(float(np.sqrt(exact.scores[0])), float(ans.score), 0.5):
                valid += 1
        assert valid / trials >= 0.85

    def test_pleb_eps_follows_eps(self):
        from annkit.lsh import RadiusLadder, build_radius_ladder

        X = rand_collection(50, 4, 52)
        assert build_radius_ladder(X, eps=0.44, seed=1).pleb_eps == np.sqrt(1.0 + 0.44) - 1.0
        ladder = RadiusLadder(X=X, eps=3.0, seed=0, levels=[1.0])
        assert ladder.pleb_eps == 1.0
        with pytest.raises(AttributeError):
            ladder.pleb_eps = 0.5
        with pytest.raises(TypeError):
            RadiusLadder(X=X, eps=3.0, seed=0, levels=[1.0], pleb_eps=0.5)

    @pytest.mark.parametrize("field,value", [("eps", 0.1), ("seed", 5), ("levels", (2.0,))])
    def test_ladder_fields_frozen(self, field, value):
        """Built levels are cached by index; eps, seed and levels cannot
        change under them."""
        from annkit.lsh import build_radius_ladder

        ladder = build_radius_ladder(rand_collection(50, 4, 52), eps=0.5, seed=1)
        ladder.query(np.zeros(4, dtype=np.float32))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ladder, field, value)

    def test_degenerate_collection_rejected(self):
        X = Collection(np.ones((20, 4), dtype=np.float32))
        with pytest.raises(ValueError):
            approx_nn(X, np.zeros(4, dtype=np.float32), eps=0.5)

    def test_huge_eps_single_level(self):
        from annkit.lsh import build_radius_ladder

        X = rand_collection(60, 6, 30)
        q = np.random.default_rng(31).standard_normal(6).astype(np.float32)
        ladder = build_radius_ladder(X, eps=1000.0, seed=3)
        ans, levels = ladder.query(q), ladder.levels
        assert len(levels) == 1
        # any indexed point within (1+eps) * r_min qualifies, so the bound
        # is vacuous and whatever point came back is a valid witness
        if ans.yes:
            assert ans.score <= (1 + 1000.0) * levels[0]


class TestMipsHash:
    def test_unit_norm_data_matches_plain_index(self):
        rng = np.random.default_rng(19)
        mat = rng.standard_normal((60, 8))
        mat /= np.linalg.norm(mat, axis=1, keepdims=True)
        X = Collection(mat.astype(np.float32))
        mh = mips_hash_index(X, ell=2, big_l=4, seed=20)
        # transform appends an exactly-zero tail for unit-norm data
        tails = mh.transformed.vectors[:, -1]
        assert np.abs(tails).max() <= 1e-3
        plain = build_index(mh.transformed, HashFamily(FamilyKind.HYPERPLANE, seed=20, d=9), 2, 4)
        assert_same_tables(mh.index.tables, plain.tables)

    def test_self_collision_probability_one(self):
        X = rand_collection(30, 6, 21)
        mh = mips_hash_index(X, ell=3, big_l=3, seed=22)
        u = mh.transformed.vectors[4]
        fam = mh.index.family
        assert all(fam.hash(i, u) == fam.hash(i, u.copy()) for i in range(50))

    def test_planted_argmax_recovered(self):
        hits = 0
        trials = 20
        for s in range(trials):
            rng = np.random.default_rng(700 + s)
            mat = rng.standard_normal((200, 12)).astype(np.float32)
            q = rng.standard_normal(12).astype(np.float32)
            planted = (3.0 * q / np.linalg.norm(q)).astype(np.float32)
            mat[123] = planted
            X = Collection(mat)
            mh = mips_hash_index(X, ell=4, big_l=16, seed=s)
            res = mh.topk(X, q, 1)
            oracle = brute_force_topk(X, q, 1, DistanceKind.NEG_INNER_PRODUCT)
            hits += res.ids.size and recall(oracle, res, 1) == 1.0
        assert hits / trials >= 0.8
