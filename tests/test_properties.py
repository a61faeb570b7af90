"""Cross-module property tests over seeded random instances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annkit.core import Collection, DistanceKind, brute_force_topk, recall
from annkit.sampling import alias_build
from annkit.transforms import mips_to_mcs

seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(2, 30), st.integers(1, 6))
def test_oracle_self_recall_is_one(seed, m, d):
    rng = np.random.default_rng(seed)
    X = Collection(rng.standard_normal((m, d)).astype(np.float32))
    q = rng.standard_normal(d).astype(np.float32)
    k = int(rng.integers(1, m + 1))
    res = brute_force_topk(X, q, k, DistanceKind.L2_SQUARED)
    assert recall(res, res, min(k, m)) == 1.0
    assert np.all(np.diff(res.scores) >= 0)


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(2, 12))
def test_duplicate_rows_rank_by_id(seed, copies):
    rng = np.random.default_rng(seed)
    row = rng.standard_normal(4).astype(np.float32)
    X = Collection(np.tile(row, (copies, 1)))
    res = brute_force_topk(X, row, copies, DistanceKind.L2_SQUARED)
    assert res.ids.tolist() == list(range(copies))


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(2, 40), st.integers(1, 8))
def test_mcs_transform_norms(seed, m, d):
    rng = np.random.default_rng(seed)
    X = Collection(rng.standard_normal((m, d)).astype(np.float32))
    pair = mips_to_mcs(X)
    tx = pair.transform_collection(X)
    norms = np.linalg.norm(tx.vectors.astype(np.float64), axis=1)
    assert np.abs(norms - 1.0).max() <= 1e-6


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(1, 12))
def test_alias_table_preserves_mass(seed, n):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.01, 10.0, size=n)
    table = alias_build(weights)
    # reconstructed per-slot probability mass equals the normalized weights
    mass = table.prob / n
    for slot, alias in enumerate(table.alias):
        if alias != slot:
            mass[alias] += (1.0 - table.prob[slot]) / n
    assert mass == pytest.approx(weights / weights.sum(), abs=1e-9)
