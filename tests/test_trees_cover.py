import hashlib

import numpy as np
import pytest

from annkit.core import Collection, DistanceKind, brute_force_topk, epsilon_valid
from annkit.harness.container import load_index, save_index
from annkit.trees import (
    CoverTree,
    DuplicatePointError,
    cover_build,
    cover_insert,
    cover_nn,
    cover_nn_approx,
)


def rand_collection(m, d, seed):
    return Collection(np.random.default_rng(seed).standard_normal((m, d)).astype(np.float32))


def collect_nodes(tree):
    """(point_id, level, parent_id) for every node: the root, then the
    level links from the top level down, each level in insertion order."""
    if tree.root is None:
        return []
    out = [(tree.root, tree.root_level, None)]
    for lvl in sorted(tree.by_level, reverse=True):
        out.extend((kid, lvl, parent) for kid, parent in tree.links(lvl).T.tolist())
    return out


def scan_invariants(tree: CoverTree):
    """Full structural scan of nesting, covering, and separation."""
    mat = tree.X.vectors.astype(np.float64)

    def dist(a, b):
        return float(np.linalg.norm(mat[a] - mat[b]))

    nodes = collect_nodes(tree)
    # every point appears exactly once (nesting is implicit via self-children)
    ids = sorted(p for p, _, _ in nodes)
    assert ids == sorted(set(ids))

    # covering: a node attached at level l sits within 2^(l+1) of its parent
    for kid, lvl, parent in nodes[1:]:
        assert dist(parent, kid) <= 2.0 ** (lvl + 1) + 1e-12

    # separation: for each level, points present at that level are > 2^level apart
    levels = sorted({lvl for _, lvl, _ in nodes})
    top = {p: lvl for p, lvl, _ in nodes}
    for lvl in levels:
        present = [p for p, t in top.items() if t >= lvl]
        for i, a in enumerate(present):
            for b in present[i + 1:]:
                assert dist(a, b) > 2.0 ** lvl - 1e-12, (a, b, lvl)


class TestBuildAndInvariants:
    def test_insert_into_empty_then_second(self):
        X = Collection(np.array([[0, 0], [3, 0]], dtype=np.float32))
        tree = CoverTree(X=X)
        cover_insert(tree, 0)
        assert tree.root == 0
        cover_insert(tree, 1)
        assert tree.root_level == int(np.ceil(np.log2(3.0)))
        assert tree.size == 2

    def test_duplicate_rejected(self):
        X = Collection(np.array([[1, 1], [1, 1]], dtype=np.float32))
        tree = CoverTree(X=X)
        cover_insert(tree, 0)
        with pytest.raises(DuplicatePointError):
            cover_insert(tree, 1)

    @staticmethod
    def insert_each(X):
        tree = CoverTree(X=X)
        for i in range(len(X)):
            cover_insert(tree, i)
        return tree

    @pytest.mark.parametrize("m,d,seed", [(300, 4, 7), (200, 16, 8), (150, 2, 9)])
    def test_build_equals_per_insert_insertion(self, m, d, seed):
        X = rand_collection(m, d, seed)
        built, inserted = cover_build(X), self.insert_each(X)
        assert collect_nodes(built) == collect_nodes(inserted)
        assert (built.root_level, built.size) == (inserted.root_level, inserted.size)

    def test_insert_into_a_loaded_tree(self, tmp_path):
        # a decoded tree appends its links in container order; inserting
        # into it gives the tree that inserting into the built one gives
        X = rand_collection(120, 2, 11)
        tree = CoverTree(X=X)
        for i in range(80):
            cover_insert(tree, i)
        save_index(tmp_path / "cover.akx", tree)
        loaded = load_index(tmp_path / "cover.akx", X)
        for i in range(80, 120):
            cover_insert(tree, i)
            cover_insert(loaded, i)
        for name, grown in (("inserted", tree), ("loaded", loaded), ("built", cover_build(X))):
            save_index(tmp_path / f"{name}.akx", grown)
        inserted = (tmp_path / "inserted.akx").read_bytes()
        assert (tmp_path / "loaded.akx").read_bytes() == inserted == (tmp_path / "built.akx").read_bytes()

    def test_insert_after_the_collection_grows(self, tmp_path):
        X = rand_collection(300, 3, 12)
        tree = cover_build(Collection(X.vectors[:200]))
        tree.X = X
        for i in range(200, 300):
            cover_insert(tree, i)
        save_index(tmp_path / "grown.akx", tree)
        save_index(tmp_path / "built.akx", cover_build(X))
        assert (tmp_path / "grown.akx").read_bytes() == (tmp_path / "built.akx").read_bytes()

    @pytest.mark.parametrize("copies,message", [
        ({1: 0}, "point 1 duplicates point 0"),  # at the start
        ({23: 17, 31: 2}, "point 23 duplicates point 17"),  # in the middle; the lower id raises
        ({20: 5, 12: 5}, "point 12 duplicates point 5"),  # three equal rows
        ({39: 0}, "point 39 duplicates point 0"),  # at the end
        ({39: 38}, "point 39 duplicates point 38"),
    ], ids=["start", "middle", "triple", "end_root", "end"])
    def test_build_names_the_first_duplicate(self, copies, message):
        rows = np.random.default_rng(10).standard_normal((40, 3)).astype(np.float32)
        for dup, src in copies.items():
            rows[dup] = rows[src]
        for build in (cover_build, self.insert_each):
            with pytest.raises(DuplicatePointError, match=f"^{message}$"):
                build(Collection(rows))

    def test_build_treats_negative_zero_as_zero(self):
        rows = np.array([[1, 2], [0.0, 3], [4, 4], [-0.0, 3], [5, 1]], dtype=np.float32)
        for build in (cover_build, self.insert_each):
            with pytest.raises(DuplicatePointError, match="^point 3 duplicates point 1$"):
                build(Collection(rows))

    def test_invariant_scan_uniform(self):
        X = Collection(np.random.default_rng(0).uniform(0, 1, size=(256, 8)).astype(np.float32))
        tree = cover_build(X)
        scan_invariants(tree)

    def test_invariant_scan_gaussian(self):
        tree = cover_build(rand_collection(200, 4, 1))
        scan_invariants(tree)

    def test_pinned_container_and_answers(self, tmp_path):
        # sha256 digests pinned from the lexsort-based parent and answer
        # selection; the container's with each integer array at its narrowest width
        X = rand_collection(2000, 64, 2026)
        tree = cover_build(X)
        save_index(tmp_path / "cover.akx", tree)
        assert hashlib.sha256((tmp_path / "cover.akx").read_bytes()).hexdigest() == COVER_SHA256
        answers = hashlib.sha256()
        for q in np.random.default_rng(2027).standard_normal((20, 64)).astype(np.float32):
            res = cover_nn(tree, q, 10)
            answers.update(res.ids.tobytes() + res.scores.tobytes())
        assert answers.hexdigest() == COVER_ANSWERS_SHA256

    def test_pinned_deep_tree(self, tmp_path):
        # in 3 dimensions the tree spans 11 levels, so inserts descend and
        # unwind through many frames
        X = rand_collection(2000, 3, 35)
        tree = cover_build(X)
        assert len({level for _, level, _ in collect_nodes(tree)}) == 11
        save_index(tmp_path / "cover.akx", tree)
        assert hashlib.sha256((tmp_path / "cover.akx").read_bytes()).hexdigest() == DEEP_COVER_SHA256
        answers = hashlib.sha256()
        for q in np.random.default_rng(36).standard_normal((50, 3)).astype(np.float32):
            res = cover_nn(tree, q, 10)
            answers.update(res.ids.tobytes() + res.scores.tobytes())
        assert answers.hexdigest() == DEEP_COVER_ANSWERS_SHA256


COVER_SHA256 = "64e603e0cb97d1c3d7ec20ceeb5e3e1aac329c1c84313fcdeb458cabb2ee79af"
COVER_ANSWERS_SHA256 = "d11ab26e5807e4b8aae1bf8d67dcd5076058b8b8f1e9a3168d499d14ac8f120a"
# pinned from the build over CoverNode children dicts; the container's with
# each integer array at its narrowest width
DEEP_COVER_SHA256 = "ef2b2a08c75ebf2a37ef32332d28c0ccf79cff96410d0c1110f827c5c74b9cd4"
DEEP_COVER_ANSWERS_SHA256 = "24a049eb5aaa551a55883decdc6b16ac23212c617ad5ac701fd73d6117e4dc6b"
# eps 0.25 and 0.5 on the deep 2000x3 tree, then on the 2000x64 tree
APPROX_ANSWERS_SHA256 = "4fcce93be10030ac4de0ea697440c2d94d30a2bcac6ff1652afeaeb0dc7d5d2f"


class TestSearch:
    def test_singleton(self):
        X = Collection(np.array([[2, 2]], dtype=np.float32))
        tree = cover_build(X)
        res = cover_nn(tree, np.zeros(2, dtype=np.float32), 1)
        assert res.ids.tolist() == [0]

    def test_empty_tree_rejected(self):
        X = rand_collection(4, 2, 2)
        tree = CoverTree(X=X)
        with pytest.raises(ValueError):
            cover_nn(tree, np.zeros(2, dtype=np.float32), 1)

    def test_exact_matches_oracle(self):
        X = rand_collection(500, 16, 3)
        tree = cover_build(X)
        rng = np.random.default_rng(4)
        for _ in range(100):
            q = rng.standard_normal(16).astype(np.float32)
            got = cover_nn(tree, q, 5)
            want = brute_force_topk(X, q, 5, DistanceKind.L2_SQUARED)
            assert got.ids.tolist() == want.ids.tolist()
            assert got.scores.tolist() == want.scores.tolist()

    def test_candidates_always_contain_oracle_topk(self):
        # instrumented variant of the pruning-never-discards-answer invariant
        from annkit.trees.cover import _descend

        X = rand_collection(300, 8, 5)
        tree = cover_build(X)
        rng = np.random.default_rng(6)
        k = 5
        for _ in range(20):
            q = rng.standard_normal(8).astype(np.float32)
            q64 = q.astype(np.float64)
            want = set(brute_force_topk(X, q, k, DistanceKind.L2_SQUARED).ids.tolist())
            survivors = set()

            def keep_rule(ids, dists, level):
                kth = np.partition(dists, min(k, dists.size) - 1)[min(k, dists.size) - 1]
                keep = dists <= kth + 2.0 ** level
                survivors.clear()
                survivors.update(ids[keep].tolist())
                return keep

            _descend(tree, q64, keep_rule)
            assert want <= survivors

    def test_pinned_approx_answers(self):
        # digest pinned from the descent over node dicts
        answers = hashlib.sha256()
        for m, d, seed, q_seed, n_q in ((2000, 3, 35, 36, 50), (2000, 64, 2026, 2027, 20)):
            tree = cover_build(rand_collection(m, d, seed))
            queries = np.random.default_rng(q_seed).standard_normal((n_q, d)).astype(np.float32)
            for eps in (0.25, 0.5):
                for q in queries:
                    pid, score = cover_nn_approx(tree, q, eps)
                    answers.update(np.int64(pid).tobytes() + np.float64(score).tobytes())
        assert answers.hexdigest() == APPROX_ANSWERS_SHA256

    def test_approx_epsilon_valid(self):
        X = rand_collection(400, 8, 7)
        tree = cover_build(X)
        rng = np.random.default_rng(8)
        for eps in (0.25, 0.5):
            for _ in range(50):
                q = rng.standard_normal(8).astype(np.float32)
                exact = brute_force_topk(X, q, 1, DistanceKind.L2_SQUARED)
                pid, score = cover_nn_approx(tree, q, eps)
                assert epsilon_valid(float(np.sqrt(exact.scores[0])), float(np.sqrt(score)), eps)
