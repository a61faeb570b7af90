import hashlib
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import annkit.graph as graph
from annkit.core import Collection, DistanceKind, TopKResult, brute_force_topk, recall, score_rows
from annkit.harness.container import save_index
from annkit.graph import (
    NeighborGraph,
    build_alpha_sng_exact,
    build_knn_graph,
    build_vamana,
    connectivity_check,
    greedy_search,
    greedy_search_batch,
    medoid,
    robust_prune,
    robust_prune_batch,
)
from script_module import load_script


def rand_collection(m, d, seed):
    return Collection(np.random.default_rng(seed).standard_normal((m, d)).astype(np.float32))


def greedy_search_reference(G, X, q, k, entry):
    """Queue-stabilization formulation: rescan every queue member's
    neighborhood, admit the single best improving outsider, repeat until
    the queue stops changing. The oracle for ``greedy_search`` at beam k."""
    q64 = np.asarray(q, dtype=np.float64)
    score_cache: dict[int, float] = {}

    def score(u: int) -> float:
        if u not in score_cache:
            score_cache[u] = float(score_rows(X, np.array([u]), q64, G.kind)[0])
        return score_cache[u]

    queue = {entry}
    changed = True
    while changed:
        changed = False
        outside = set().union(*(set(G.adjacency[u].tolist()) for u in queue)) - queue
        if not outside:
            break
        best = min(outside, key=lambda u: (score(u), u))
        worst = max(queue, key=lambda u: (score(u), u))
        if len(queue) < k:
            queue.add(best)
            changed = True
        elif (score(best), best) < (score(worst), worst):
            queue.remove(worst)
            queue.add(best)
            changed = True
    ordered = sorted(queue, key=lambda u: (score(u), u))[:k]
    return TopKResult(
        ids=np.array(ordered, dtype=np.int64),
        scores=np.array([score(u) for u in ordered]),
        k=k,
    )


def robust_prune_reference(u, candidates, alpha, cap, X):
    """Row-by-row prune: after keeping each candidate, in (distance, id)
    order, rescan its distance to every candidate with one diff-einsum
    pass. The oracle for ``robust_prune``."""
    cand = np.unique(np.asarray(candidates, dtype=np.int64))
    cand = cand[cand != u]
    if cand.size == 0:
        return cand
    d_u = np.sqrt(score_rows(X, cand, X.vectors[u].astype(np.float64), DistanceKind.L2_SQUARED))
    order = np.lexsort((cand, d_u))
    cand, d_u = cand[order], d_u[order]
    cmat = X.vectors[cand].astype(np.float64)
    kept = []
    alive = np.ones(cand.size, dtype=bool)
    for pos in range(cand.size):
        if not alive[pos]:
            continue
        kept.append(int(cand[pos]))
        if len(kept) >= cap:
            break
        diff = cmat - cmat[pos]
        d_v = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        alive[d_u > alpha * d_v] = False
        alive[pos] = False
    return np.sort(np.array(kept, dtype=np.int64))


def alpha_shortcut_violations(G, X, alpha):
    """Count (u, w) pairs with no edge and no covering neighbor; 0 on a
    valid alpha-SNG (exhaustive triple loop, desk scale only)."""
    m = len(X)
    mat = X.vectors.astype(np.float64)
    # same per-row arithmetic as robust_prune so boundary cases agree bitwise
    all_ids = np.arange(m, dtype=np.int64)
    dist = np.stack([np.sqrt(score_rows(X, all_ids, mat[u], DistanceKind.L2_SQUARED))
                     for u in range(m)])
    violations = 0
    for u in range(m):
        nbrs = G.adjacency[u]
        edge_mask = np.zeros(m, dtype=bool)
        edge_mask[nbrs] = True
        for w in range(m):
            if w == u or edge_mask[w]:
                continue
            if not np.any(dist[u, w] >= alpha * dist[w, nbrs]):
                violations += 1
    return violations


def graph_of(rows, **fields):
    """A directed ``NeighborGraph`` whose node u has the out-neighbors
    ``rows[u]``, given ascending."""
    return NeighborGraph(offsets=np.cumsum([0] + [len(row) for row in rows], dtype=np.int64),
                         ids=np.concatenate(rows).astype(np.int64), directed=True, **fields)


def adjacency_table(adjacency):
    """The graph's rows as one table, padded with -1."""
    table = np.full((len(adjacency), max(1, max(a.size for a in adjacency))), -1, dtype=np.int64)
    for u, row in enumerate(adjacency):
        table[u, :row.size] = row
    return table


def build_vamana_reference(X, alpha, cap, beam, seed, kind=DistanceKind.L2_SQUARED, passes=2):
    """Node-by-node Vamana: each node, in a seeded random order, is searched
    for with ``greedy_search`` on the graph as it stands, re-linked by
    ``robust_prune_reference``, and adds its reverse edges one target at a
    time, re-pruning a target that overflows its slack. The oracle for
    ``build_vamana`` with one node per batch."""
    m = len(X)
    rng = np.random.default_rng(seed)
    slack = cap + max(8, cap // 2)
    rows = [np.sort(row) for row in graph._random_start(rng, m, cap)]  # each kept ascending
    fields = dict(entry=medoid(X), kind=kind, alpha=alpha, degree_cap=cap, construction="vamana")

    def relink(u, candidates):
        rows[u] = robust_prune_reference(u, candidates, alpha, cap, X)
        return rows[u]

    for _ in range(passes):
        for u in rng.permutation(m).tolist():
            result, _ = greedy_search(graph_of(rows, **fields), X, X.vectors[u], k=beam, beam=beam)
            for v in relink(u, np.concatenate((result.ids, rows[u]))).tolist():
                if u not in rows[v]:
                    rows[v] = np.insert(rows[v], np.searchsorted(rows[v], u), u)
                    if rows[v].size > slack:
                        relink(v, rows[v])
    for u in range(m):
        if rows[u].size > cap:
            relink(u, rows[u])
    return graph_of(rows, **fields)


@st.composite
def batch_search_cases(draw):
    """Batch search inputs: integer grids (many score ties), duplicate rows
    and Gaussian rows; tables of any degree, down to none, so that some
    beams never fill; queries drawn from the rows (score 0) or off them;
    one entry per query; any beam."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, d = draw(st.integers(1, 40), label="m"), draw(st.integers(1, 4), label="d")
    style = draw(st.sampled_from(["int", "dup", "gauss"]))
    if style == "int":
        rows = rng.integers(-2, 3, size=(m, d))
    elif style == "dup":
        rows = rng.standard_normal((m, d))[rng.integers(0, max(1, m // 3), size=m)]
    else:
        rows = rng.standard_normal((m, d))
    X = Collection(rows.astype(np.float32))
    width = draw(st.integers(0, min(m, 8)), label="width")
    adjacency = [np.sort(rng.choice(m, size=int(rng.integers(0, width + 1)), replace=False)).astype(np.int64)
                 for _ in range(m)]
    n = draw(st.integers(1, 6), label="queries")
    Q = np.where(rng.random((n, 1)) < 0.5, X.vectors[rng.integers(0, m, size=n)],
                 rng.integers(-2, 3, size=(n, d)) if style == "int" else rng.standard_normal((n, d)))
    return adjacency, X, Q.astype(np.float32), rng.integers(0, m, size=n), draw(st.integers(1, 10), label="beam")


def assert_batch_equals_single(adjacency, X, Q, entries, beam, kind=DistanceKind.L2_SQUARED):
    """Row j of the batch search is ``greedy_search``'s beam for ``Q[j]``,
    ids and score bits, for k = 1 and k = beam."""
    G = graph_of(adjacency, entry=0, kind=kind)
    ids, scores = greedy_search_batch(adjacency_table(adjacency), X, Q, entries, beam, kind)
    assert ids.shape == scores.shape == (len(Q), beam)
    for j, q in enumerate(Q):
        for k in (1, beam):
            want, _ = greedy_search(G, X, q, k=k, entry=int(entries[j]), beam=beam)
            assert ids[j, :want.ids.size].tolist() == want.ids.tolist()
            assert scores[j, :want.ids.size].tobytes() == want.scores.tobytes()
        # where the beam never filled, the rest is padding
        assert np.all(ids[j, want.ids.size:] == -1) and np.all(scores[j, want.ids.size:] == np.inf)


@st.composite
def prune_cases(draw):
    """Prune inputs built to sit on or near the alpha thresholds: integer
    rows (exact ties at alpha 1 and 2), duplicate rows, rows scaled over
    2^-60..2^60 or down to float32 subnormals, rows whose Gram block
    cancels, and Gaussian rows; any candidate multiset, u among the
    candidates or not, and any cap."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, d = draw(st.integers(2, 24)), draw(st.integers(1, 5))
    style = draw(st.sampled_from(["int", "dup", "scaled", "tiny", "offset", "gauss"]))
    if style == "int":
        rows = rng.integers(-3, 4, size=(m, d)).astype(np.float64)
    elif style == "dup":
        rows = rng.standard_normal((m, d))[rng.integers(0, max(1, m // 3), size=m)]
    elif style == "scaled":
        rows = rng.standard_normal((m, d)) * 2.0 ** rng.integers(-60, 61, size=(m, 1))
    elif style == "tiny":
        rows = rng.integers(-4, 5, size=(m, d)) * 2.0 ** -146
    elif style == "offset":  # integer geometry far from the origin: the Gram block cancels
        rows = rng.integers(-3, 4, size=(m, d + 1)) * 2.0 ** -20
        rows[:, 0] = 2.0 ** 20
    else:
        rows = rng.standard_normal((m, d))
    X = Collection(rows.astype(np.float32))
    u = int(rng.integers(m))
    candidates = rng.integers(0, m, size=draw(st.integers(1, 2 * m)))
    alpha = draw(st.sampled_from([1.0, 2.0, 1.2, 3.0]))
    cap = draw(st.integers(1, m + 2))
    return u, candidates, alpha, cap, X


@st.composite
def batch_prune_cases(draw):
    """Batch prune inputs: the rows, alpha and cap of ``prune_cases``, with
    up to eight nodes (repeats allowed) whose lists have very different
    lengths, from empty to 3m ids, and may hold their own node; and a byte
    budget that puts one node, a few or all of them in one chunk."""
    u, candidates, alpha, cap, X = draw(prune_cases())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, b = len(X), draw(st.integers(1, 8), label="nodes")
    us = np.concatenate(([u], rng.integers(0, m, size=b - 1)))
    lists = [candidates] + [rng.integers(0, m, size=n) for n in rng.choice([0, 1, max(1, m // 2), 3 * m], b - 1)]
    lists = [np.append(c, v) if rng.random() < 0.3 else c for v, c in zip(us.tolist(), lists)]
    budget = draw(st.sampled_from([1, 256, graph._PRUNE_BYTES]), label="budget")
    return us, lists, alpha, cap, X, budget


class TestKnnGraph:
    def test_collinear_hand_example(self):
        X = Collection(np.array([[0.0], [1.0], [3.0]], dtype=np.float32))
        G = build_knn_graph(X, 1)
        assert [a.tolist() for a in G.adjacency] == [[1], [0], [1]]

    def test_complete_graph(self):
        X = rand_collection(8, 3, 0)
        G = build_knn_graph(X, 7)
        for u in range(8):
            assert G.adjacency[u].tolist() == [v for v in range(8) if v != u]

    def test_mips_kind_plumbed(self):
        X = Collection(np.array([[1.0], [2.0], [4.0]], dtype=np.float32))
        G = build_knn_graph(X, 1, DistanceKind.NEG_INNER_PRODUCT)
        # largest inner product always comes from the largest point (id 2),
        # except for node 2 itself which points at the runner-up
        assert [a.tolist() for a in G.adjacency] == [[2], [2], [1]]

    def test_rejects_k_ge_m(self):
        with pytest.raises(ValueError):
            build_knn_graph(rand_collection(5, 2, 1), 5)

    def test_no_self_loops(self):
        X = rand_collection(30, 4, 2)
        G = build_knn_graph(X, 5)
        for u in range(30):
            assert u not in G.adjacency[u]

    def test_rows_are_read_only_views_of_the_csr_arrays(self):
        G = build_knn_graph(rand_collection(30, 4, 3), 5)
        assert G.offsets.dtype == G.ids.dtype == np.int64 and G.offsets.tolist() == list(range(0, 151, 5))
        rows = G.adjacency
        assert len(rows) == len(G) == 30
        for u, row in enumerate(rows):
            assert np.shares_memory(row, G.ids) and not row.flags.writeable
            assert row.tolist() == G.ids[5 * u:5 * u + 5].tolist()
        with pytest.raises(AttributeError):
            G.adjacency = rows


class TestGreedySearch:
    def test_complete_graph_equals_oracle(self):
        X = rand_collection(25, 4, 3)
        G = build_knn_graph(X, 24)
        rng = np.random.default_rng(4)
        for _ in range(10):
            q = rng.standard_normal(4).astype(np.float32)
            res, _ = greedy_search(G, X, q, k=5)
            want = brute_force_topk(X, q, 5, DistanceKind.L2_SQUARED)
            assert res.ids.tolist() == want.ids.tolist()
            assert res.scores.tobytes() == want.scores.tobytes()

    def test_matches_reference_at_beam_k(self):
        X = rand_collection(120, 6, 5)
        G = build_vamana(X, alpha=1.2, cap=8, beam=16, seed=6)
        rng = np.random.default_rng(7)
        for trial in range(15):
            q = rng.standard_normal(6).astype(np.float32)
            for k in (1, 3, 7):
                got, _ = greedy_search(G, X, q, k=k, entry=trial % 120, beam=k)
                want = greedy_search_reference(G, X, q, k=k, entry=trial % 120)
                assert got.ids.tolist() == want.ids.tolist()

    def test_best_score_monotone(self):
        X = rand_collection(200, 8, 8)
        G = build_vamana(X, alpha=1.2, cap=8, beam=16, seed=9)
        q = np.random.default_rng(10).standard_normal(8).astype(np.float32)
        _, trace = greedy_search(G, X, q, k=5, beam=10)
        assert all(a >= b for a, b in zip(trace.best_history, trace.best_history[1:]))

    def test_trace_counts(self):
        X = rand_collection(100, 4, 11)
        G = build_knn_graph(X, 6)
        _, trace = greedy_search(G, X, X.vectors[3], k=3)
        assert trace.visited >= trace.hops >= 1


class TestGreedySearchBatch:
    @pytest.mark.parametrize("beam", [1, 8, 32])
    def test_equals_greedy_search_on_a_vamana_graph(self, beam):
        X = rand_collection(600, 8, 41)
        G = build_vamana(X, alpha=1.2, cap=8, beam=16, seed=42)
        Q = np.random.default_rng(43).standard_normal((40, 8)).astype(np.float32)
        entries = np.random.default_rng(44).integers(0, 600, size=40)
        assert_batch_equals_single(G.adjacency, X, Q, entries, beam)

    @pytest.mark.parametrize("kind", [DistanceKind.L2_SQUARED, DistanceKind.NEG_INNER_PRODUCT])
    def test_equals_greedy_search_on_a_knn_graph_from_one_entry(self, kind):
        X = rand_collection(200, 4, 45)
        G = build_knn_graph(X, 5, kind)
        Q = np.concatenate((X.vectors[:10], np.random.default_rng(46).standard_normal((10, 4)).astype(np.float32)))
        assert_batch_equals_single(G.adjacency, X, Q, np.full(20, G.entry), 10, kind)

    def test_blocks_of_queries_equal_one_block(self, monkeypatch):
        X = rand_collection(300, 6, 47)
        table = adjacency_table(build_knn_graph(X, 6).adjacency)
        Q = np.random.default_rng(48).standard_normal((25, 6)).astype(np.float32)
        entries = np.arange(25)
        whole = greedy_search_batch(table, X, Q, entries, 12)
        monkeypatch.setattr(graph, "_SEEN_BYTES", 3 * 301)  # three queries per block
        blocked = greedy_search_batch(table, X, Q, entries, 12)
        assert all(np.array_equal(a, b) for a, b in zip(whole, blocked))

    @settings(max_examples=300, deadline=None)
    @given(batch_search_cases())
    def test_equals_greedy_search_on_adversarial_data(self, case):
        assert_batch_equals_single(*case)

    @pytest.mark.parametrize("table,entries,beam,message", [
        (np.full((5, 2), -1), np.array([0, 5]), 4, "need one valid entry node id per query"),
        (np.full((5, 2), -1), np.array([0]), 4, "need one valid entry node id per query"),
        (np.full((5, 2), -1), np.array([0, 0]), 0, "beam must be at least 1"),
        (np.full((5, 2), 5), np.array([0, 0]), 4, "table rows must hold node ids in [0, m), padded with -1"),
        (np.full((5, 2), -2), np.array([0, 0]), 4, "table rows must hold node ids in [0, m), padded with -1"),
        (np.full(5, -1), np.array([0, 0]), 4, "table rows must hold node ids in [0, m), padded with -1"),
    ])
    def test_rejects_bad_input(self, table, entries, beam, message):
        X = rand_collection(5, 2, 49)
        with pytest.raises(ValueError, match=re.escape(message)):
            greedy_search_batch(table, X, X.vectors[:2], entries, beam)


class TestRobustPrune:
    def test_collinear_alpha_one(self):
        X = Collection(np.array([[0.0], [1.0], [2.0]], dtype=np.float32))
        assert robust_prune(0, np.array([1, 2]), 1.0, 10, X).tolist() == [1]

    def test_collinear_alpha_three(self):
        X = Collection(np.array([[0.0], [1.0], [2.0]], dtype=np.float32))
        assert robust_prune(0, np.array([1, 2]), 3.0, 10, X).tolist() == [1, 2]

    def test_single_candidate_kept(self):
        X = rand_collection(5, 3, 12)
        assert robust_prune(0, np.array([3]), 1.0, 10, X).tolist() == [3]

    def test_cap_respected(self):
        X = rand_collection(40, 4, 13)
        kept = robust_prune(0, np.arange(1, 40), 2.0, 5, X)
        assert kept.size <= 5

    @pytest.mark.parametrize("alpha,cap,message", [(0.9, 4, "alpha must be at least 1"),
                                                   (1.2, 0, "cap must be at least 1")])
    def test_rejects_bad_alpha_or_cap(self, alpha, cap, message):
        with pytest.raises(ValueError, match=message):
            robust_prune(0, np.array([1]), alpha, cap, rand_collection(5, 2, 57))

    @settings(max_examples=400, deadline=None)
    @given(prune_cases())
    def test_equals_reference_on_adversarial_data(self, case):
        u, candidates, alpha, cap, X = case
        assert np.array_equal(robust_prune(u, candidates, alpha, cap, X),
                              robust_prune_reference(u, candidates, alpha, cap, X))

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_exact_ties_are_left_to_the_diff_einsum(self, alpha):
        # on a line from u = 0, d(u, w) = w ties alpha * d(v, w) = alpha |w - v|
        # at v = 2w (alpha 1) and w = 2v (alpha 2); the Gram bounds must
        # leave every tie open and settle the rest as the exact test does
        X = Collection(np.arange(9, dtype=np.float32)[:, None])
        cmat = X.vectors[1:].astype(np.float64)
        d_u = np.arange(1.0, 9.0)
        n, (lo, hi) = graph._cover_thresholds(cmat, d_u, alpha)
        s = (n[:, None] + n) - 2.0 * (cmat @ cmat.T)  # the Gram value of every pair (v, w)
        covers, maybe = s < lo, s < hi
        exact = alpha * np.abs(d_u[None, :] - d_u[:, None])
        ties = d_u == exact
        assert ties.any()
        assert np.all(maybe[ties] & ~covers[ties])
        assert np.array_equal(covers[~ties], (d_u > exact)[~ties])
        assert np.array_equal(maybe[~ties], (d_u > exact)[~ties])
        for u in range(9):
            assert np.array_equal(robust_prune(u, np.arange(9), alpha, 9, X),
                                  robust_prune_reference(u, np.arange(9), alpha, 9, X))

    @pytest.mark.parametrize("style", ["int", "gauss"])
    def test_equals_reference_past_the_first_block(self, style):
        # 300 candidates, all of a collection, pruned to the cap or to the end
        rng = np.random.default_rng(40)
        if style == "int":
            rows = rng.integers(-6, 7, size=(301, 2)).astype(np.float32)
        else:
            rows = rng.standard_normal((301, 8)).astype(np.float32)
        X = Collection(rows)
        for u in range(0, 301, 60):
            for alpha, cap in ((1.0, 301), (1.2, 301), (1.2, 40)):
                assert np.array_equal(robust_prune(u, np.arange(301), alpha, cap, X),
                                      robust_prune_reference(u, np.arange(301), alpha, cap, X))


class TestRobustPruneBatch:
    @settings(max_examples=300, deadline=None)
    @given(batch_prune_cases())
    def test_each_entry_equals_the_single_prune(self, case):
        us, lists, alpha, cap, X, budget = case
        with mock.patch.object(graph, "_PRUNE_BYTES", budget):
            got = robust_prune_batch(us, lists, alpha, cap, X)
        assert len(got) == len(us)
        for u, candidates, kept in zip(us.tolist(), lists, got):
            want = robust_prune_reference(u, candidates, alpha, cap, X)
            assert kept.dtype == np.int64 and np.array_equal(kept, want)
            assert np.array_equal(kept, robust_prune(u, candidates, alpha, cap, X))

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_open_pairs_go_to_the_exact_test(self, monkeypatch, alpha):
        # among integer points many pairs tie d(u, w) = alpha * d(v, w)
        # exactly; the Gram bounds leave them open
        X = Collection(np.random.default_rng(58).integers(-6, 7, size=(49, 2)).astype(np.float32))
        opened = []

        def spy(w_rows, v_rows, d_uw, alpha):
            opened.append(d_uw.size)
            return covered(w_rows, v_rows, d_uw, alpha)

        covered = graph._covered
        monkeypatch.setattr(graph, "_covered", spy)
        everyone = np.arange(49)
        got = robust_prune_batch(everyone, [everyone] * 49, alpha, 49, X)
        assert sum(opened) > 0
        for u in range(49):
            assert np.array_equal(got[u], robust_prune_reference(u, everyone, alpha, 49, X))

    def test_one_node_chunks_build_the_same_graph(self, monkeypatch):
        X = rand_collection(300, 8, 54)
        whole = build_vamana(X, alpha=1.2, cap=6, beam=12, seed=55)
        monkeypatch.setattr(graph, "_PRUNE_BYTES", 1)  # every chunk holds one node
        chunked = build_vamana(X, alpha=1.2, cap=6, beam=12, seed=55)
        assert all(np.array_equal(a, b) for a, b in zip(whole.adjacency, chunked.adjacency))

    def test_no_nodes(self):
        assert robust_prune_batch(np.empty(0, dtype=np.int64), [], 1.2, 4, rand_collection(5, 2, 56)) == []

    @pytest.mark.parametrize("us,lists,alpha,cap,message", [
        ([0], [np.array([1])], 0.9, 4, "alpha must be at least 1"),
        ([0], [np.array([1])], 1.2, 0, "cap must be at least 1"),
        ([0, 1], [np.array([1])], 1.2, 4, "need one candidate list per node"),
        ([0], [np.array([5])], 1.2, 4, "candidate ids must lie in [0, m)"),
        ([0], [np.array([-1])], 1.2, 4, "candidate ids must lie in [0, m)"),
    ])
    def test_rejects_bad_input(self, us, lists, alpha, cap, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            robust_prune_batch(np.array(us), lists, alpha, cap, rand_collection(5, 2, 57))


def sng_collection(style, m, d, seed):
    """Gaussian rows, or rows of the integer grid [-3, 3]^d, with exact
    distance ties and duplicate rows."""
    rng = np.random.default_rng(seed)
    if style == "gauss":
        return Collection(rng.standard_normal((m, d)).astype(np.float32))
    return Collection(rng.integers(-3, 4, size=(m, d)).astype(np.float32))


# (data style, m, d, data seed, alpha) -> sha256 of the sized rows and of
# the .akx file, pinned from the single-node prune with certified Gram
# blocks that built the exact alpha-SNG before the plain distance-matrix
# prune; the integer grid holds 22 duplicate rows
SNG_SHA256 = {
    ("gauss", 200, 6, 90, 1.0): (
        "822dda72edc1f8f1b9422989ea8103d1b7820c218a96d02d833d9c64492ad98b",
        "2d515ff586b586b0ac16ce08b5919f0668b54989ee923806d8b37e45f9721618"),
    ("gauss", 200, 6, 90, 1.2): (
        "9c4543304080d760deca848bab76ad4a9dee1675fbcd730f2b7ef55537f41fd4",
        "8f5b4f510f9be17b818b5a152bc79617448b6012e41ea4622051b3393d898d9e"),
    ("gauss", 200, 6, 90, 2.0): (
        "9c1e01eba43f47690d4c5aaf1bed82963773ceda9f8221c862fb8e402d1ad51a",
        "3c477e9c2c152fb151c959b64348e297bce3fc58495c268975f37120d7f510d0"),
    ("int", 150, 3, 91, 1.0): (
        "65853375b7cdd2fd766086b019923980e71fe7ac29ef9c282660211bc5a5b253",
        "d1d56902f2fd960b43fac23a731d546c7aafda4cb5424197c7fbdb3f3b61723c"),
    ("int", 150, 3, 91, 1.2): (
        "219fc5d90877508672f4aacad6c57f034b6ae1aa5d7a92c50c6915b8e6d0416d",
        "b119154461f96654face109faf124b9d7fb072cd69c9e3be275151f3e8f27395"),
    ("int", 150, 3, 91, 2.0): (
        "40cf85d82c7f545e240605c3009ae7a50bb99d0cf51ac62dde479894c63213be",
        "4ebdf4275205bd251700fa14fe72dd150852c4a311e1ad1e14ca3552ea1f2500"),
}


class TestAlphaSng:
    def test_two_points_mutual_edge(self):
        X = rand_collection(2, 3, 14)
        G = build_alpha_sng_exact(X, 1.0)
        assert G.adjacency[0].tolist() == [1]
        assert G.adjacency[1].tolist() == [0]

    def test_planar_hand_construction(self):
        # u=origin; points at distances 1, 2 (behind 1), and far off-axis
        X = Collection(np.array([[0, 0], [1, 0], [2, 0], [0, 3]], dtype=np.float32))
        G = build_alpha_sng_exact(X, 1.0)
        # node 0: keeps 1 (nearest); 2 pruned (d(0,2)=2 > d(2,1)=1); keeps 3
        assert G.adjacency[0].tolist() == [1, 3]

    def test_shortcut_reachability(self):
        X = rand_collection(100, 4, 15)
        for alpha in (1.0, 1.2):
            G = build_alpha_sng_exact(X, alpha)
            assert alpha_shortcut_violations(G, X, alpha) == 0

    def test_density_grows_with_alpha(self):
        X = rand_collection(200, 8, 16)
        counts = []
        for alpha in (1.0, 1.1, 1.2, 1.3):
            G = build_alpha_sng_exact(X, alpha)
            counts.append(sum(a.size for a in G.adjacency))
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_weak_optimality_self_queries(self):
        X = rand_collection(60, 4, 17)
        G = build_alpha_sng_exact(X, 1.0)
        for j in range(60):
            for entry in range(0, 60, 7):
                res, _ = greedy_search(G, X, X.vectors[j], k=1, entry=entry, beam=1)
                assert res.ids[0] == j

    @settings(max_examples=200, deadline=None)
    @given(prune_cases())
    def test_rows_equal_the_reference_prune(self, case):
        _, _, alpha, _, X = case
        m = len(X)
        G = build_alpha_sng_exact(X, alpha)
        for u in range(m):
            assert np.array_equal(G.adjacency[u], robust_prune_reference(u, np.arange(m), alpha, m, X))

    @pytest.mark.parametrize("shape", sorted(SNG_SHA256))
    def test_pinned_rows_and_container(self, shape, tmp_path):
        style, m, d, data_seed, alpha = shape
        G = build_alpha_sng_exact(sng_collection(style, m, d, data_seed), alpha)
        digest = hashlib.sha256()
        for row in G.adjacency:
            assert row.dtype == np.int64 and np.all(np.diff(row) > 0)
            digest.update(np.int64(row.size).tobytes() + row.tobytes())
        save_index(tmp_path / "sng.akx", G)
        assert (digest.hexdigest(), hashlib.sha256((tmp_path / "sng.akx").read_bytes()).hexdigest()) \
            == SNG_SHA256[shape]


# (m, d, data seed, alpha, cap, beam, seed) -> sha256 of the sized rows and
# of the .akx file, pinned from the batch build (batches of up to 2% of m,
# start graph by Floyd's sampling), the .akx file's with each integer array
# at its narrowest width; the node-by-node build that it replaced is
# build_vamana_reference
VAMANA_SHA256 = {
    (1000, 16, 31, 1.2, 8, 16, 32): (
        "1786aecd26bd8c011b184299228304a38e3684aee1543ebb82d8c8c02890aab4",
        "993ade8c2697aa527a707ca1e03cbe018b058824e2f0b82493bf50177eac75a4"),
    (600, 8, 33, 2.0, 12, 24, 34): (
        "04af868c42a097744d7d1dcb200d58995e416e3e305bdca588e47d9366dabe21",
        "a40f6d4218b7d8e6010e871bea2af26a1205ed6c84972a2d3348b3d066b2b906"),
}


class TestVamana:
    def test_degree_cap(self):
        X = rand_collection(400, 8, 18)
        G = build_vamana(X, alpha=1.2, cap=12, beam=24, seed=19)
        assert G.out_degree().max() <= 12
        assert not any(u in row for u, row in enumerate(G.adjacency))

    def test_seed_reproducibility(self):
        X = rand_collection(150, 6, 20)
        a = build_vamana(X, alpha=1.2, cap=8, beam=16, seed=21)
        b = build_vamana(X, alpha=1.2, cap=8, beam=16, seed=21)
        assert all(np.array_equal(x, y) for x, y in zip(a.adjacency, b.adjacency))

    def test_near_complete_at_degenerate_capacity(self):
        X = rand_collection(20, 4, 22)
        G = build_vamana(X, alpha=10.0, cap=19, beam=20, seed=23)
        q = np.random.default_rng(24).standard_normal(4).astype(np.float32)
        res, _ = greedy_search(G, X, q, k=5, beam=20)
        want = brute_force_topk(X, q, 5, DistanceKind.L2_SQUARED)
        assert res.ids.tolist() == want.ids.tolist()

    @pytest.mark.parametrize("m,d,data_seed,alpha,cap,beam,seed,passes", [
        (300, 8, 50, 1.2, 6, 12, 51, 2),
        (400, 4, 52, 2.0, 10, 10, 53, 1),
        *(shape + (2,) for shape in sorted(VAMANA_SHA256)),
    ])
    def test_one_node_batches_equal_the_reference(self, monkeypatch, m, d, data_seed, alpha, cap, beam,
                                                  seed, passes):
        X = rand_collection(m, d, data_seed)
        monkeypatch.setattr(graph, "_BATCH_FRACTION", 0.0)
        got = build_vamana(X, alpha=alpha, cap=cap, beam=beam, seed=seed, passes=passes)
        want = build_vamana_reference(X, alpha=alpha, cap=cap, beam=beam, seed=seed, passes=passes)
        assert got.entry == want.entry
        assert all(np.array_equal(a, b) for a, b in zip(got.adjacency, want.adjacency))

    def test_start_graph_rows_are_distinct_and_skip_self(self):
        for m, cap in ((2, 1), (9, 8), (50, 7), (500, 32)):
            start = graph._random_start(np.random.default_rng(m), m, cap)
            assert start.shape == (m, cap) and start.dtype == np.int64
            assert np.all((start >= 0) & (start < m)) and not np.any(start == np.arange(m)[:, None])
            assert all(np.unique(row).size == cap for row in start)

    @pytest.mark.parametrize("shape", sorted(VAMANA_SHA256))
    def test_pinned_adjacency_and_container(self, shape, tmp_path):
        # at 1000x16 with cap 8, reverse edges overflow rows and re-prune them
        m, d, data_seed, alpha, cap, beam, seed = shape
        G = build_vamana(rand_collection(m, d, data_seed), alpha=alpha, cap=cap, beam=beam, seed=seed)
        digest = hashlib.sha256()
        for row in G.adjacency:
            assert row.dtype == np.int64 and np.all(np.diff(row) > 0)
            digest.update(np.int64(row.size).tobytes() + row.tobytes())
        save_index(tmp_path / "graph.akx", G)
        assert (digest.hexdigest(), hashlib.sha256((tmp_path / "graph.akx").read_bytes()).hexdigest()) \
            == VAMANA_SHA256[shape]

    def test_construction_script_digest_equals_the_pinned_rows(self):
        """``scripts/bench_construction.py`` hashes a graph's rows, read from
        its CSR arrays, as the pinned row digest does."""
        shape = (600, 8, 33, 2.0, 12, 24, 34)
        m, d, data_seed, alpha, cap, beam, seed = shape
        G = build_vamana(rand_collection(m, d, data_seed), alpha=alpha, cap=cap, beam=beam, seed=seed)
        assert load_script("bench_construction").adjacency_sha256(G) == VAMANA_SHA256[shape][0]

    def test_recall_smoke(self):
        X = rand_collection(1000, 16, 25)
        G = build_vamana(X, alpha=1.2, cap=16, beam=32, seed=26)
        rng = np.random.default_rng(27)
        recs = []
        for _ in range(30):
            q = rng.standard_normal(16).astype(np.float32)
            res, _ = greedy_search(G, X, q, k=10, beam=32)
            recs.append(recall(brute_force_topk(X, q, 10, DistanceKind.L2_SQUARED), res, 10))
        assert np.mean(recs) >= 0.85


class TestConnectivity:
    def test_complete_graph_fully_reachable(self):
        X = rand_collection(12, 3, 28)
        G = build_knn_graph(X, 11)
        frac, missing = connectivity_check(G)
        assert frac == 1.0 and missing == 0

    def test_two_isolated_cliques(self):
        G = graph_of([[1], [0], [3], [2]], entry=0)
        frac, missing = connectivity_check(G)
        assert frac == 0.5 and missing == 2

    def test_medoid_on_skewed_cloud(self):
        mat = np.zeros((5, 2), dtype=np.float32)
        mat[4] = [10, 10]
        X = Collection(mat)
        assert medoid(X) == 0  # nearest to mean among the origin cluster
