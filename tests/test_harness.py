import dataclasses
import hashlib
import importlib
import json
import math
import re
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annkit.core import Collection, DistanceKind, brute_force_topk
from annkit.graph import build_knn_graph, build_vamana, greedy_search
from annkit.harness.container import load_index, save_index
from annkit.harness import cli, container, experiments
from annkit.harness.experiments import benchmark, experiment_coincidence, experiment_instability, self_coincidence_fraction
from annkit.harness.io import load_vecs, save_vecs
from annkit.harness.synth import Distribution, SyntheticSpec, generate
from annkit.ivf import build_ivf, ivf_search
from annkit.lsh import FamilyKind, HashFamily, build_index, lsh_topk
from annkit.quant import aq_adc, aq_encode, aq_train, opq_train, pq_adc, pq_train
from annkit.sampling import build_wedge_index, wedge_topk
from annkit.sketch import JlSketcher, ThresholdSketcher, asym_sketch, jl_project
from annkit.trees import cover_build, cover_nn, defeatist_search, kd_build, kd_search_exact, rp_build, spill_build
from quant_reference import aq_distance


def rand_collection(m, d, seed):
    return Collection(np.random.default_rng(seed).standard_normal((m, d)).astype(np.float32))


# container family name -> (pinned tag, build of a small index object)
FAMILIES = {
    "kd": (1, lambda X: kd_build(X, 8)),
    "rp_forest": (2, lambda X: [rp_build(X, 16, seed=t) for t in range(2)]),
    "spill_forest": (3, lambda X: [spill_build(X, 16, 0.1, seed=t) for t in range(2)]),
    "cover": (4, cover_build),
    "lsh": (5, lambda X: build_index(X, HashFamily(FamilyKind.HYPERPLANE, seed=1, d=X.dim), 2, 3)),
    "graph": (6, lambda X: build_knn_graph(X, 4)),
    "ivf": (7, lambda X: build_ivf(X, 4, seed=1)),
    "pq": (8, lambda X: pq_train(X, 2, 4, seed=1)),
    "opq": (9, lambda X: opq_train(X, 2, 4, iters=1, seed=1)),
    "aq": (10, lambda X: aq_train(X, 2, 4, beam=2, iters=1, seed=1)[0]),
    "wedge": (11, build_wedge_index),
    "jl": (12, lambda X: JlSketcher(out_dim=4, seed=1)),
    "asym_set": (13, lambda X: [asym_sketch(u, sketch_dim=4, h=2, seed=1, dense=i % 2 == 0)
                                for i, u in enumerate(X.vectors[:3])]),
    "threshold_set": (14, lambda X: [ThresholdSketcher(out_dim=4, seed=1).sketch(u) for u in X.vectors[:3]]),
}
FAMILY_X = rand_collection(60, 8, 50)

# sha256 of the (id, score) answers in test_tree_answers_pinned, taken with
# the container layout that stored child pointers and leaf ranges per node
TREE_ANSWERS_SHA256 = "18ec44cad29e9f6336de88c8f3e8e987c50eb76d0378d015540c39a46255fe6d"

# sha256 of the CSV of `annkit bench forest` in test_bench_forest_csv_pinned,
# taken while the trees were node objects
BENCH_FOREST_SHA256 = "9c206242b9d20532db6011ab7caaf99396da4119eef560f1c81010037e217d60"


def assert_same_object(a, b, where: str = "obj") -> None:
    """Two index objects equal field by field: dataclasses, lists and dicts
    recursively, arrays in dtype, shape and values, anything else in type
    and value; derived dataclass fields (``compare=False``) skipped."""
    assert type(a) is type(b), where
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            if f.compare:
                assert_same_object(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), where
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same_object(x, y, f"{where}[{i}]")
    elif isinstance(a, dict):
        assert a.keys() == b.keys(), where
        for key in a:
            assert_same_object(a[key], b[key], f"{where}[{key!r}]")
    else:
        assert a == b, where


def assert_loads_as_built(built, loaded, family: str) -> None:
    """``loaded`` equals ``built`` apart from what a container does not
    hold: an OPQ model's training trace. A cover tree's links, which the
    dataclass comparison skips, must match level by level."""
    if family == "opq":
        built = dataclasses.replace(built, objective_trace=None)
    assert_same_object(built, loaded)
    if family == "cover":
        assert sorted(built.by_level) == sorted(loaded.by_level)
        for level in built.by_level:
            assert sorted(built.links(level).T.tolist()) == sorted(loaded.links(level).T.tolist())


def stored_dtypes(raw: bytes) -> dict:
    """Array name -> the dtype string a container's bytes store it at."""
    (meta_len,) = struct.unpack_from("<I", raw, 8)
    pos = 12 + meta_len
    (n_arrays,) = struct.unpack_from("<I", raw, pos)
    pos, out = pos + 4, {}
    for _ in range(n_arrays):
        (name_len,) = struct.unpack_from("<H", raw, pos)
        name = raw[pos + 2:pos + 2 + name_len].decode()
        pos += 2 + name_len
        (dtype_len,) = struct.unpack_from("<H", raw, pos)
        dtype = raw[pos + 2:pos + 2 + dtype_len].decode()
        pos += 2 + dtype_len
        shape = struct.unpack_from(f"<{raw[pos]}Q", raw, pos + 1)
        pos += 1 + 8 * len(shape) + int(np.prod(shape)) * np.dtype(dtype).itemsize
        out[name] = dtype
    return out


def all_int64_blob(family: str, obj) -> bytes:
    """A container of ``obj`` in the layout written before integer arrays
    were narrowed: every array at the dtype its encoder gives it, which is
    int64 for every integer array but the LSH keys (uint64)."""
    spec = container._FAMILIES[family]
    meta, arrays = spec.encode(obj)
    meta_b = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    out = [b"AKIX", struct.pack("<HHI", 1, spec.tag, len(meta_b)), meta_b, struct.pack("<I", len(arrays))]
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        arr = arr.astype(arr.dtype.newbyteorder("<"))
        out += [struct.pack("<H", len(name)), name.encode(), struct.pack("<H", len(arr.dtype.str)),
                arr.dtype.str.encode(), struct.pack(f"<B{arr.ndim}Q", arr.ndim, *arr.shape), arr.tobytes()]
    return b"".join(out)


@pytest.fixture(scope="module")
def containers(tmp_path_factory) -> dict:
    """Family name -> the bytes of one saved container of that family."""
    out = {}
    for family, (_, build) in FAMILIES.items():
        path = tmp_path_factory.mktemp("containers") / f"{family}.akx"
        save_index(path, build(FAMILY_X))
        out[family] = path.read_bytes()
    return out


class TestSynth:
    def test_reproducible(self):
        spec = SyntheticSpec(Distribution.GAUSSIAN_STD, m=4, d=2, seed=9)
        a, b = generate(spec), generate(spec)
        assert np.array_equal(a.vectors, b.vectors)

    def test_positive_support(self):
        X = generate(SyntheticSpec(Distribution.UNIFORM_POSITIVE, m=200, d=3, seed=1))
        assert np.all(X.vectors >= 0)

    def test_gaussian_moments(self):
        X = generate(SyntheticSpec(Distribution.GAUSSIAN_STD, m=100_000, d=1, seed=2))
        vals = X.vectors.astype(np.float64).ravel()
        assert abs(vals.mean()) <= 3 / np.sqrt(vals.size)
        assert abs(vals.var() - 1.0) <= 3 * np.sqrt(2 / vals.size)

    def test_unit_variance_uniforms(self):
        for dist in (Distribution.UNIFORM_CENTERED, Distribution.UNIFORM_POSITIVE):
            X = generate(SyntheticSpec(dist, m=100_000, d=1, seed=3))
            assert abs(X.vectors.astype(np.float64).var() - 1.0) <= 0.02


class TestVecsIo:
    def test_round_trip_bit_identical(self, tmp_path):
        X = rand_collection(100, 8, 4)
        path = tmp_path / "x.vecs"
        save_vecs(path, X)
        again = load_vecs(path)
        assert np.array_equal(X.vectors, again.vectors)
        save_vecs(tmp_path / "y.vecs", again)
        assert (tmp_path / "x.vecs").read_bytes() == (tmp_path / "y.vecs").read_bytes()

    def test_exact_byte_layout(self, tmp_path):
        X = Collection(np.array([[1.0, 2.0]], dtype=np.float32))
        path = tmp_path / "one.vecs"
        save_vecs(path, X)
        raw = path.read_bytes()
        assert len(raw) == 12
        assert struct.unpack("<i", raw[:4])[0] == 2
        assert struct.unpack("<2f", raw[4:])[0:2] == (1.0, 2.0)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.vecs"
        path.write_bytes(b"")
        with pytest.raises(ValueError):
            load_vecs(path)

    def test_truncated_record_rejected(self, tmp_path):
        path = tmp_path / "trunc.vecs"
        path.write_bytes(struct.pack("<i", 3) + struct.pack("<2f", 1.0, 2.0))
        with pytest.raises(ValueError):
            load_vecs(path)

    def test_inconsistent_dims_rejected(self, tmp_path):
        path = tmp_path / "mixed.vecs"
        path.write_bytes(
            struct.pack("<i", 1) + struct.pack("<f", 1.0)
            + struct.pack("<i", 2) + struct.pack("<2f", 1.0, 2.0)
        )
        with pytest.raises(ValueError):
            load_vecs(path)


class TestContainerRoundTrips:
    def test_kd(self, tmp_path):
        X = rand_collection(120, 6, 5)
        tree = kd_build(X, 8)
        save_index(tmp_path / "kd.akx", tree)
        loaded = load_index(tmp_path / "kd.akx")
        q = np.random.default_rng(6).standard_normal(6).astype(np.float32)
        assert kd_search_exact(loaded, X, q, 5).ids.tolist() == \
            kd_search_exact(tree, X, q, 5).ids.tolist()
        assert_same_object(loaded, tree)

    def test_rp_and_spill_forest(self, tmp_path):
        X = rand_collection(200, 5, 7)
        forest = [rp_build(X, 16, seed=t) for t in range(3)]
        save_index(tmp_path / "rp.akx", forest)
        loaded = load_index(tmp_path / "rp.akx")
        q = np.random.default_rng(8).standard_normal(5).astype(np.float32)
        assert defeatist_search(loaded, X, q, 5).ids.tolist() == \
            defeatist_search(forest, X, q, 5).ids.tolist()
        assert len(loaded) == len(forest)
        for a, b in zip(loaded, forest):
            assert_same_object(a, b)

        spills = [spill_build(X, 16, 0.1, seed=t) for t in range(2)]
        save_index(tmp_path / "sp.akx", spills)
        loaded = load_index(tmp_path / "sp.akx")
        assert defeatist_search(loaded, X, q, 5).ids.tolist() == \
            defeatist_search(spills, X, q, 5).ids.tolist()
        assert loaded[0].alpha == 0.1
        assert len(loaded) == len(spills)
        for a, b in zip(loaded, spills):
            assert_same_object(a, b)

    def test_tree_answers_pinned(self, tmp_path):
        """Saved and reloaded k-d, RP and spill trees answer as they did
        under the previous tree layout."""
        rng = np.random.default_rng(11)
        kd_X = Collection(rng.integers(-3, 4, size=(300, 5)).astype(np.float32))
        X = rand_collection(200, 5, 7)
        indexes = {"kd.akx": kd_build(kd_X, 4), "rp.akx": [rp_build(X, 16, seed=t) for t in range(3)],
                   "sp.akx": [spill_build(X, 16, 0.1, seed=t) for t in range(2)]}
        for name, index in indexes.items():
            save_index(tmp_path / name, index)
        kd, rp, spill = (load_index(tmp_path / name) for name in indexes)
        digest = hashlib.sha256()
        for q_kd, q in zip(np.random.default_rng(12).uniform(-4, 4, (20, 5)),
                           np.random.default_rng(8).standard_normal((20, 5)).astype(np.float32)):
            for got in (kd_search_exact(kd, kd_X, q_kd, 10), defeatist_search(rp, X, q, 10),
                        defeatist_search(spill, X, q, 10)):
                digest.update(got.ids.astype(np.int64).tobytes() + got.scores.astype(np.float64).tobytes())
        assert digest.hexdigest() == TREE_ANSWERS_SHA256

    def test_cover(self, tmp_path):
        X = rand_collection(150, 4, 9)
        tree = cover_build(X)
        save_index(tmp_path / "cv.akx", tree)
        loaded = load_index(tmp_path / "cv.akx", X=X)
        q = np.random.default_rng(10).standard_normal(4).astype(np.float32)
        assert cover_nn(loaded, q, 5).ids.tolist() == cover_nn(tree, q, 5).ids.tolist()

    def test_lsh(self, tmp_path):
        X = rand_collection(100, 6, 11)
        fam = HashFamily(FamilyKind.P_STABLE_L2, seed=12, d=6, r=2.0)
        index = build_index(X, fam, 3, 4)
        save_index(tmp_path / "lsh.akx", index)
        loaded = load_index(tmp_path / "lsh.akx")
        q = np.random.default_rng(13).standard_normal(6).astype(np.float32)
        assert lsh_topk(loaded, X, q, 5).ids.tolist() == lsh_topk(index, X, q, 5).ids.tolist()
        assert_same_object(loaded.tables, index.tables)

    def test_graph(self, tmp_path):
        X = rand_collection(150, 6, 14)
        G = build_vamana(X, alpha=1.2, cap=8, beam=16, seed=15)
        save_index(tmp_path / "g.akx", G)
        loaded = load_index(tmp_path / "g.akx")
        q = np.random.default_rng(16).standard_normal(6).astype(np.float32)
        a, _ = greedy_search(G, X, q, 5, beam=16)
        b, _ = greedy_search(loaded, X, q, 5, beam=16)
        assert a.ids.tolist() == b.ids.tolist()
        assert loaded.alpha == G.alpha and loaded.entry == G.entry

    def test_ivf(self, tmp_path):
        X = rand_collection(200, 5, 17)
        index = build_ivf(X, 12, seed=18)
        save_index(tmp_path / "ivf.akx", index)
        loaded = load_index(tmp_path / "ivf.akx")
        q = np.random.default_rng(19).standard_normal(5).astype(np.float32)
        assert ivf_search(loaded, X, q, 5, 4).ids.tolist() == \
            ivf_search(index, X, q, 5, 4).ids.tolist()

    def test_pq_and_opq(self, tmp_path):
        X = rand_collection(100, 8, 20)
        cb = pq_train(X, 2, 16, seed=21)
        save_index(tmp_path / "pq.akx", cb)
        loaded = load_index(tmp_path / "pq.akx")
        assert np.array_equal(loaded.codewords, cb.codewords)
        q = np.random.default_rng(22).standard_normal(8)
        assert np.array_equal(pq_adc(loaded, q), pq_adc(cb, q))

        opq = opq_train(X, 2, 8, iters=3, seed=23)
        save_index(tmp_path / "opq.akx", opq)
        loaded = load_index(tmp_path / "opq.akx")
        assert np.array_equal(loaded.rotation, opq.rotation)
        assert np.array_equal(loaded.codebook.codewords, opq.codebook.codewords)

    def test_aq(self, tmp_path):
        X = rand_collection(60, 6, 24)
        cb, _, _ = aq_train(X, 2, 4, beam=4, iters=2, seed=25)
        save_index(tmp_path / "aq.akx", cb)
        loaded = load_index(tmp_path / "aq.akx")
        u = X.vectors[7]
        code = aq_encode(cb, u)
        q = np.random.default_rng(26).standard_normal(6)
        assert aq_distance(loaded, q, code) == aq_distance(cb, q, code)

    def test_wedge(self, tmp_path):
        X = rand_collection(80, 6, 27)
        index = build_wedge_index(X)
        save_index(tmp_path / "w.akx", index)
        loaded = load_index(tmp_path / "w.akx")
        q = np.random.default_rng(28).standard_normal(6).astype(np.float32)
        a = wedge_topk(index, X, q, samples=500, k=5, seed=3)
        b = wedge_topk(loaded, X, q, samples=500, k=5, seed=3)
        assert a.ids.tolist() == b.ids.tolist()

    def test_jl(self, tmp_path):
        sk = JlSketcher(out_dim=16, seed=29)
        save_index(tmp_path / "jl.akx", sk)
        loaded = load_index(tmp_path / "jl.akx")
        u = np.random.default_rng(30).standard_normal(10)
        assert np.array_equal(jl_project(loaded, u), jl_project(sk, u))

    def test_asym_sketch_set(self, tmp_path):
        from annkit.core import SparseVector
        from annkit.sketch import asym_sketch, asym_upper_bound

        rng = np.random.default_rng(40)
        sketches = []
        for _ in range(8):
            nnz = int(rng.integers(2, 6))
            idx = np.sort(rng.choice(24, size=nnz, replace=False)).astype(np.int64)
            vals = (rng.standard_normal(nnz) + 2.0).astype(np.float32)
            u = SparseVector(indices=idx, values=vals, dim=24)
            sketches.append(asym_sketch(u, sketch_dim=8, h=2, seed=41))
        save_index(tmp_path / "as.akx", sketches)
        loaded = load_index(tmp_path / "as.akx")
        q = rng.standard_normal(24).astype(np.float32)
        for a, b in zip(sketches, loaded):
            assert asym_upper_bound(q, a) == asym_upper_bound(q, b)

    def test_threshold_sketch_set(self, tmp_path):
        from annkit.sketch import ThresholdSketcher, threshold_ip_estimate

        rng = np.random.default_rng(42)
        ts = ThresholdSketcher(out_dim=6, seed=43)
        sketches = [ts.sketch(rng.standard_normal(16)) for _ in range(6)]
        save_index(tmp_path / "ts.akx", sketches)
        loaded = load_index(tmp_path / "ts.akx")
        for a, b in zip(sketches, loaded):
            assert threshold_ip_estimate(a, sketches[0]) == threshold_ip_estimate(b, loaded[0])

    def test_save_is_deterministic(self, tmp_path):
        X = rand_collection(100, 6, 31)
        index = build_ivf(X, 8, seed=32)
        save_index(tmp_path / "a.akx", index)
        save_index(tmp_path / "b.akx", index)
        assert (tmp_path / "a.akx").read_bytes() == (tmp_path / "b.akx").read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.akx"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError):
            load_index(path)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_load_equals_the_built_object(self, tmp_path, family):
        # re-saving gives the same bytes: test_resave_is_identical_and_tag_pinned
        built = FAMILIES[family][1](FAMILY_X)
        save_index(tmp_path / "x.akx", built)
        assert_loads_as_built(built, load_index(tmp_path / "x.akx", X=FAMILY_X), family)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_all_int64_layout_loads_to_the_same_object(self, tmp_path, family):
        built = FAMILIES[family][1](FAMILY_X)
        raw = all_int64_blob(family, built)
        assert all(dtype in ("<i8", "<u8") for dtype in stored_dtypes(raw).values()
                   if np.dtype(dtype).kind in "iu")
        path = tmp_path / "wide.akx"
        path.write_bytes(raw)
        assert_loads_as_built(built, load_index(path, X=FAMILY_X), family)

    def test_all_int64_layout_is_the_one_pinned_before(self):
        """all_int64_blob writes the former layout byte for byte: the k-d
        tree of test_kd_container_bytes_pinned hashes to its earlier pin."""
        rng = np.random.default_rng(11)
        X = Collection(rng.integers(-3, 4, size=(300, 5)).astype(np.float32))
        assert hashlib.sha256(all_int64_blob("kd", kd_build(X, 4))).hexdigest() == \
            "6429849845f629425b85835fdd135adf3723be306147d52019dd32bdee89e4da"

    def test_integer_arrays_stored_at_their_narrowest_width(self, tmp_path):
        X = rand_collection(10000, 8, 60)
        path = tmp_path / "lsh.akx"
        save_index(path, build_index(X, HashFamily(FamilyKind.HYPERPLANE, seed=1, d=8), 2, 3))
        assert stored_dtypes(path.read_bytes()) == {"ids": "<u2", "keys": "<u8", "offsets": "<u2"}
        save_index(path, cover_build(FAMILY_X))  # parent[0] is -1 and levels fall below 0: signed
        assert stored_dtypes(path.read_bytes()) == {"level": "|i1", "parent": "|i1", "point": "|u1"}

    def test_width_rule(self):
        cases = [([], "u1"), ([0, 255], "u1"), ([-1, 127], "i1"), ([0, 256], "u2"), ([-129], "i2"),
                 ([65535], "u2"), ([2**16], "u4"), ([-2**15 - 1], "i4"), ([2**32 - 1], "u4"),
                 ([2**32], "i8"), ([-2**31 - 1], "i8")]
        for values, want in cases:
            assert container._narrowest(np.array(values, dtype=np.int64)).dtype == np.dtype(want), values
        assert container._narrowest(np.array([2**64 - 1], dtype=np.uint64)).dtype == np.uint64
        assert container._narrowest(np.array([7], dtype=np.uint64)).dtype == np.uint8
        floats = np.array([1.0, 2.0])
        assert container._narrowest(floats) is floats

    @pytest.mark.parametrize("family", FAMILIES)
    def test_resave_is_identical_and_tag_pinned(self, tmp_path, containers, family):
        first, again = tmp_path / "first.akx", tmp_path / "again.akx"
        first.write_bytes(containers[family])
        loaded = load_index(first, X=FAMILY_X)
        save_index(again, loaded)
        assert again.read_bytes() == containers[family]
        assert struct.unpack_from("<H", containers[family], 6)[0] == FAMILIES[family][0]
        # the registry names the class by strings, which family_of matches without importing
        spec = container._FAMILIES[family]
        cls = type(loaded[0]) if spec.listed else type(loaded)
        assert container.family_of(loaded) == family
        assert getattr(importlib.import_module(spec.module.name), spec.type_name) is cls


def _blob(version=1, tag=8, meta=b"{}", dtype=b"<f4", shape=(2,), data=b"\0" * 8, name=b"codewords"):
    """A hand-made container holding one array, named "codewords" by default."""
    return (b"AKIX" + struct.pack("<HHI", version, tag, len(meta)) + meta + struct.pack("<IH", 1, len(name))
            + name + struct.pack("<H", len(dtype)) + dtype
            + struct.pack(f"<B{len(shape)}Q", len(shape), *shape) + data)


def _save_mangled(path, family, obj, mangle) -> None:
    """Save ``obj`` after ``mangle(meta, arrays)`` edits its encoded form."""
    spec = container._FAMILIES[family]
    meta, arrays = spec.encode(obj)
    mangle(meta, arrays)
    with open(path, "wb") as fh:
        container._write_blob(fh, spec.tag, meta, arrays)


class TestContainerInputChecks:
    def test_hand_made_blob_loads(self, tmp_path):
        path = tmp_path / "ok.akx"
        path.write_bytes(_blob(meta=b'{"L":1,"C":1,"d_sub":2}', shape=(1, 1, 2)))
        assert load_index(path).codewords.shape == (1, 1, 2)

    @pytest.mark.parametrize("raw,message", [
        (b"NOPE" + b"\0" * 16, "not an index container"),
        (_blob(version=2), "unsupported container version 2"),
        (_blob(tag=99), "unknown family tag 99"),
        (b"AKIX\1", "truncated"),
        (_blob()[:30], "truncated"),
        (_blob()[:-1], "needs 8 bytes, 7 left"),
        (_blob(meta=b'{"L":1}')[:16], "truncated"),
        (_blob(meta=b"{"), "corrupt meta block"),
        (_blob(tag=12, meta=b"[1]"), "corrupt meta block: not a JSON object"),
        (_blob(dtype=b"zz!"), "array 'codewords' has unknown dtype b'zz!'"),
        (_blob(dtype=b"|O"), "array 'codewords' has dtype b'|O', which cannot be read from bytes"),
        (_blob(dtype=b"V0"), "array 'codewords' has dtype b'V0', which cannot be read from bytes"),
        (_blob() + b"junk", "4 trailing bytes"),
        (_blob(shape=(1000,)), "shape (1000,) needs 4000 bytes, 8 left"),
        (_blob(shape=(2**40, 2**40)), "needs"),
        (_blob(meta=b'{"L":1,"C":1,"d_sub":2}', shape=(1, 1, 2), name=b"a"),
         "malformed pq container: missing 'codewords'"),
        (_blob(tag=12), "malformed jl container: missing 'out_dim'"),
        (_blob(tag=12, meta=b'{"out_dim":"x","seed":1}'), "malformed jl container: meta 'out_dim' must be int, not 'x'"),
        (_blob(tag=12, meta=b'{"out_dim":4,"seed":true}'), "malformed jl container: meta 'seed' must be int, not True"),
        (_blob(tag=10, meta=b'{"L":1,"C":1,"beam":2.5}', shape=(1, 1, 2)),
         "malformed aq container: meta 'beam' must be int, not 2.5"),
        (_blob(tag=5, meta=b'{"kind":"nope"}'), "malformed lsh container: meta 'kind' must name a FamilyKind, not 'nope'"),
    ], ids=["magic", "version", "tag", "short_header", "short_array_header", "short_data", "short_meta",
            "meta", "meta_list", "dtype", "object_dtype", "empty_dtype", "trailing", "shape", "huge_shape", "array_name", "meta_key",
            "meta_type", "meta_bool_as_int", "meta_float_as_int", "meta_enum"])
    def test_malformed_container_rejected(self, tmp_path, raw, message):
        path = tmp_path / "bad.akx"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*" + re.escape(message)):
            load_index(path)

    def test_truncated_meta_block_reported_as_truncated(self, tmp_path):
        path = tmp_path / "bad.akx"
        path.write_bytes(_blob(meta=b'{"L":1,"C":1,"d_sub":2}')[:20])
        with pytest.raises(ValueError) as err:
            load_index(path)
        assert str(err.value) == f"{path}: truncated: 23 bytes expected at offset 12, 8 left"

    @pytest.mark.parametrize("family,message", [
        ("graph", "neighbour ids must lie in [0, 60)"),
        ("lsh", "table 0's ids must be a permutation of [0, 60), as table 0's are"),
    ])
    def test_two_byte_id_out_of_range_rejected(self, tmp_path, family, message):
        meta, arrays = container._FAMILIES[family].encode(FAMILIES[family][1](FAMILY_X))
        arrays["ids"][5] = 60000  # stored at u2, the narrowest width that holds it
        path = tmp_path / "bad.akx"
        with open(path, "wb") as fh:
            container._write_blob(fh, container._FAMILIES[family].tag, meta, arrays)
        assert stored_dtypes(path.read_bytes())["ids"] == "<u2"
        with pytest.raises(ValueError, match=re.escape(f"{path}: malformed {family} container: {message}")):
            load_index(path, X=FAMILY_X)

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_ivf_assignment_out_of_range_rejected(self, tmp_path, bad):
        index = build_ivf(Collection(np.random.default_rng(3).standard_normal((40, 3)).astype(np.float32)),
                          4, seed=1)
        index.model.assignment[7] = bad
        path = tmp_path / "bad.akx"
        save_index(path, index)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: malformed ivf container: assignment must hold cluster ids in [0, 4)")):
            load_index(path)

    @pytest.mark.parametrize("mangle,message", [
        (lambda m, a: a["centroids"].put(5, np.nan), "centroids must be a non-empty (C, d) matrix of finite numbers"),
        (lambda m, a: a["centroids"].put(0, -np.inf), "centroids must be a non-empty (C, d) matrix of finite numbers"),
        (lambda m, a: a.update(centroids=a["centroids"].ravel()),
         "centroids must be a non-empty (C, d) matrix of finite numbers"),
        (lambda m, a: a.update(centroids=a["centroids"][:0]),
         "centroids must be a non-empty (C, d) matrix of finite numbers"),
        (lambda m, a: a.update(centroids=a["centroids"].astype("S4")),
         "centroids must be a non-empty (C, d) matrix of finite numbers"),
        (lambda m, a: a.update(centroids=a["centroids"][:, :5]), "the centroids have 5 columns, the collection 8"),
        (lambda m, a: a.update(assignment=a["assignment"][:-1]), "the assignment holds 59 ids, the collection 60"),
    ], ids=["nan", "inf", "flat", "no_rows", "bytes", "dimension", "short_assignment"])
    def test_malformed_ivf_rejected(self, tmp_path, mangle, message):
        path = tmp_path / "bad.akx"
        _save_mangled(path, "ivf", build_ivf(FAMILY_X, 4, seed=1), mangle)
        with pytest.raises(ValueError, match=re.escape(f"{path}: malformed ivf container: {message}")):
            load_index(path, X=FAMILY_X)

    @pytest.mark.parametrize("mangle,message", [
        (lambda m, a: a.update(level=a["level"][:-1]), "point, level and parent must be integer arrays of one length"),
        (lambda m, a: a["parent"].put(0, 0), "parent[0] must be -1 and every other parent an earlier node"),
        (lambda m, a: a["parent"].put(3, 999), "parent[0] must be -1 and every other parent an earlier node"),
        (lambda m, a: a["parent"].put(1, 2), "parent[0] must be -1 and every other parent an earlier node"),
        (lambda m, a: a["point"].put(2, 60), "points must be distinct ids in [0, 60)"),
        (lambda m, a: a["point"].put(2, -1), "points must be distinct ids in [0, 60)"),
        (lambda m, a: a["point"].put(2, a["point"][1]), "points must be distinct ids in [0, 60)"),
        (lambda m, a: m.update(size=3), "size 3 differs from the 60 nodes"),
        (lambda m, a: a["level"].put(1, a["level"][0]), "a node's level must be below its parent's"),
        (lambda m, a: a["level"].put(0, a["level"][0] + 1), "the root's level must be root_level"),
        (lambda m, a: (m.update(root_level=1023), a["level"].put(0, 1023)),
         "levels must not exceed 1022, where the radius 2^(level + 1) overflows"),
    ], ids=["short_level", "root_parent", "parent_out_of_range", "later_parent", "point_out_of_range",
            "negative_point", "repeated_point", "size", "child_level", "root_level", "level_overflow"])
    def test_malformed_cover_rejected(self, tmp_path, mangle, message):
        path = tmp_path / "bad.akx"
        _save_mangled(path, "cover", cover_build(FAMILY_X), mangle)
        with pytest.raises(ValueError, match=re.escape(f"{path}: malformed cover container: {message}")):
            load_index(path, X=FAMILY_X)

    def test_cover_without_collection_rejected(self, tmp_path):
        path = tmp_path / "cover.akx"
        save_index(path, cover_build(FAMILY_X))
        with pytest.raises(ValueError, match=re.escape(f"{path}: cover tree loading requires the collection")):
            load_index(path)

    @pytest.mark.parametrize("family,mangle,message", [
        ("kd", lambda m, a: a.update(leaf_size=np.append(a["leaf_size"], 1)),
         "the pre-order shape must close on exactly the"),
        ("kd", lambda m, a: a.update(leaf_size=a["leaf_size"][:-1]), "the pre-order shape must close on exactly the"),
        ("rp_forest", lambda m, a: a["t1_leaf_size"].put(0, 3), "the pre-order shape must close on exactly the"),
        ("kd", lambda m, a: a["leaf_size"].put(0, -2), "the pre-order shape must close on exactly the"),
        ("kd", lambda m, a: a.update(leaf_size=a["leaf_size"].astype(np.float64)),
         "leaf_size and leaf_ids must be 1-D integer arrays"),
        ("kd", lambda m, a: a.update(axis=a["axis"][:-1]),
         "axis must be a 1-D integer array with one row per inner node"),
        ("kd", lambda m, a: a.update(split=a["split"].astype(np.int64)),
         "split must be a 1-D float array with one row per inner node"),
        ("rp_forest", lambda m, a: a.update(t0_threshold=a["t0_threshold"][:-1]),
         "t0_threshold must be a 1-D float array with one row per inner node"),
        ("spill_forest", lambda m, a: a.update(t1_size=np.append(a["t1_size"], 5)),
         "t1_size must be a 1-D integer array with one row per inner node"),
        ("kd", lambda m, a: a["leaf_size"].put(np.argmax(a["leaf_size"] > 0), 0),
         "leaf sizes must be positive and sum to the 60 leaf ids"),
        ("kd", lambda m, a: a.update(leaf_ids=a["leaf_ids"][:-1]), "leaf sizes must be positive and sum to the 59 leaf ids"),
        ("spill_forest", lambda m, a: a.update(t0_leaf_ids=np.append(a["t0_leaf_ids"], 0)),
         "leaf sizes must be positive and sum to the"),
        ("kd", lambda m, a: a["leaf_ids"].put(0, a["leaf_ids"][1]), "leaf_ids must be a permutation of [0, 60)"),
        ("kd", lambda m, a: a["leaf_ids"].put(0, 60), "leaf_ids must be a permutation of [0, 60)"),
        ("kd", lambda m, a: m.update(size=61), "leaf_ids must be a permutation of [0, 61)"),
        ("kd", lambda m, a: a["axis"].put(0, 8), "axis values must lie in [0, 8)"),
        ("kd", lambda m, a: a["axis"].put(0, -1), "axis values must lie in [0, 8)"),
        ("rp_forest", lambda m, a: a.update(t0_dir=a["t0_dir"][:, :4]), "t0_dir must have 8 columns"),
        ("spill_forest", lambda m, a: a.update(t1_dir=a["t1_dir"][:, None]),
         "t1_dir must be a 2-D float array with one row per inner node"),
        ("rp_forest", lambda m, a: a["t1_leaf_ids"].put(0, a["t1_leaf_ids"][1]),
         "t1_leaf_ids must be a permutation of [0, 60)"),
        ("rp_forest", lambda m, a: a["t0_size"].put(0, 59), "t0_leaf_ids must be a permutation of [0, 59)"),
        ("spill_forest", lambda m, a: a["t0_leaf_ids"].put(3, 60), "t0_leaf_ids must lie in [0, 60)"),
        ("spill_forest", lambda m, a: a["t1_leaf_ids"].put(3, -1), "t1_leaf_ids must lie in [0, 60)"),
        ("spill_forest", lambda m, a: np.place(a["t0_leaf_ids"], a["t0_leaf_ids"] == 7, 8),
         "t0_leaf_ids must hold every id of [0, 60)"),
        ("rp_forest", lambda m, a: m.update(seeds=[0]), "seeds must hold one seed per tree (2)"),
        ("spill_forest", lambda m, a: m.update(alphas=[0.1]), "alphas must hold one alpha per tree (2)"),
        ("rp_forest", lambda m, a: m.update(n_trees=3, seeds=[0, 1, 2]),
         "arrays differ from the pre-order tree layout: unexpected [], missing ['t2_dir'"),
        ("kd", lambda m, a: a.update(left=a["leaf_size"]),
         "arrays differ from the pre-order tree layout: unexpected ['left'], missing []"),
        ("rp_forest", lambda m, a: a["t0_size"].put(2, 999),
         "t0_size must count the distinct leaf ids beneath each inner node"),
        ("spill_forest", lambda m, a: a["t1_size"].put(1, a["t1_size"][1] - 1),
         "t1_size must count the distinct leaf ids beneath each inner node"),
    ], ids=["kd_extra_node", "kd_missing_node", "rp_root_leaf", "kd_size_minus_two", "kd_float_sizes",
            "kd_short_axis", "kd_int_split", "rp_short_threshold", "spill_long_size", "kd_empty_leaf",
            "kd_short_ids", "spill_long_ids", "kd_repeated_id", "kd_id_out_of_range", "kd_size_meta",
            "kd_axis_dim", "kd_negative_axis", "rp_dir_columns", "spill_dir_3d", "rp_repeated_id",
            "rp_root_size", "spill_id_out_of_range", "spill_negative_id", "spill_missing_id", "rp_seeds",
            "spill_alphas",
            "rp_n_trees", "kd_extra_array", "rp_inner_size", "spill_inner_size"])
    def test_malformed_tree_rejected(self, tmp_path, family, mangle, message):
        path = tmp_path / "bad.akx"
        _save_mangled(path, family, FAMILIES[family][1](FAMILY_X), mangle)
        with pytest.raises(ValueError, match=re.escape(f"{path}: malformed {family} container: {message}")):
            load_index(path)

    @pytest.mark.parametrize("family", ["kd", "rp_forest", "spill_forest"])
    def test_child_pointer_tree_layout_rejected(self, tmp_path, family):
        """The earlier tree layout (per node: child pointers, a leaf range,
        and for RP trees padded rows and child counts) is not read; here a
        root split into two leaves of two points each."""
        pointers = {"left": np.array([1, -1, -1]), "right": np.array([2, -1, -1]),
                    "leaf_start": np.array([-1, 0, 2]), "leaf_end": np.array([-1, 2, 4]), "leaf_ids": np.arange(4)}
        if family == "kd":
            meta, arrays = {"leaf_capacity": 2, "dim": 2, "size": 4}, {
                "axis": np.array([0, -1, -1]), "split": np.array([2.0, 0.0, 0.0]), **pointers}
            unexpected, missing = ["leaf_end", "leaf_start", "left", "right"], ["leaf_size"]
        else:
            meta = {"n_trees": 1, "dim": 2, "leaf_capacity": 2, "seeds": [0], "alphas": [0.1]}
            arrays = {"t0_" + name: a for name, a in {
                "dir": np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]), "threshold": np.array([2.0, 0.0, 0.0]),
                "size": np.array([4, 2, 2]), "left_count": np.array([2, 0, 0]),
                "right_count": np.array([2, 0, 0]), **pointers}.items()}
            unexpected = ["t0_leaf_end", "t0_leaf_start", "t0_left", "t0_left_count", "t0_right",
                          "t0_right_count"]
            missing = ["t0_leaf_size"]
        path = tmp_path / "old.akx"
        with open(path, "wb") as fh:
            container._write_blob(fh, FAMILIES[family][0], meta, arrays)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: malformed {family} container: arrays differ from the pre-order tree layout: "
                f"unexpected {unexpected}, missing {missing}")):
            load_index(path)

    @settings(max_examples=300, deadline=None)
    @given(family=st.sampled_from(["kd", "rp_forest", "spill_forest"]), data=st.data())
    def test_mangled_tree_loads_or_raises_value_error(self, tmp_path_factory, family, data):
        """Any one array value changed, or any one array cut or grown by a
        row, loads or fails with a ValueError naming the file."""
        meta, arrays = container._FAMILIES[family].encode(FAMILIES[family][1](FAMILY_X))
        name = data.draw(st.sampled_from(sorted(arrays)), label="array")
        change = data.draw(st.sampled_from(["value", "cut", "grow"]), label="change")
        a = arrays[name]
        if change == "value" and a.size:
            a.flat[data.draw(st.integers(0, a.size - 1), label="at")] = data.draw(st.integers(-3, 70), label="to")
        elif change == "cut":
            arrays[name] = a[:-1]
        else:
            arrays[name] = np.concatenate((a, a[:1]))
        path = tmp_path_factory.getbasetemp() / "mangled_tree.akx"
        with open(path, "wb") as fh:
            container._write_blob(fh, container._FAMILIES[family].tag, meta, arrays)
        try:
            load_index(path)
        except ValueError as err:
            assert str(err).startswith(f"{path}: ")

    @pytest.mark.parametrize("mangle,message", [
        (lambda m, a: a["ids"].put(5, 999), "neighbour ids must lie in [0, 60)"),
        (lambda m, a: a["ids"].put(5, -1), "neighbour ids must lie in [0, 60)"),
        (lambda m, a: a["offsets"].put(0, 1), "offsets must run from 0 up to 240 without decreasing"),
        (lambda m, a: a["offsets"].put(2, 3), "offsets must run from 0 up to 240 without decreasing"),
        (lambda m, a: a["offsets"].put(-1, 239), "offsets must run from 0 up to 240 without decreasing"),
        (lambda m, a: m.update(entry=60), "entry 60 must lie in [0, 60)"),
        (lambda m, a: m.update(entry=-1), "entry -1 must lie in [0, 60)"),
        (lambda m, a: a["ids"].put(6, a["ids"][5]), "each node's neighbour ids must be strictly ascending"),
        (lambda m, a: a["ids"].put(np.arange(4, 8), a["ids"][7:3:-1].copy()),
         "each node's neighbour ids must be strictly ascending"),
    ], ids=["id_999", "negative_id", "offsets_start", "offsets_decrease", "offsets_end", "entry_n",
            "negative_entry", "repeated_id", "falling_ids"])
    def test_malformed_graph_rejected(self, tmp_path, mangle, message):
        path = tmp_path / "bad.akx"
        _save_mangled(path, "graph", build_knn_graph(FAMILY_X, 4), mangle)
        with pytest.raises(ValueError, match=re.escape(f"{path}: malformed graph container: {message}")):
            load_index(path)

    @pytest.mark.parametrize("mangle,message", [
        (lambda m, a: m.update(table_sizes=[4, 4]), "table_sizes must hold 3 sizes summing to the 12 buckets"),
        (lambda m, a: m.update(table_sizes=[4, 4, 4, 0]), "table_sizes must hold 3 sizes summing to the 12 buckets"),
        (lambda m, a: m.update(table_sizes=[1, 1, 1]), "table_sizes must hold 3 sizes summing to the 12 buckets"),
        (lambda m, a: m.update(table_sizes=[4, 3, 5]), "table 1's ids must be a permutation of [0, 60), as table 0's are"),
        (lambda m, a: m.update(table_sizes=[8, -1, 5]), "table_sizes must hold 3 sizes summing to the 12 buckets"),
        (lambda m, a: m.update(table_sizes=[0, 8, 4]), "table 1's ids must be a permutation of [0, 0), as table 0's are"),
        (lambda m, a: a["ids"].fill(999), "table 0's ids must be a permutation of [0, 60), as table 0's are"),
        (lambda m, a: a["ids"].put(-1, -1), "table 2's ids must be a permutation of [0, 60), as table 0's are"),
        (lambda m, a: a["ids"].put(70, a["ids"][71]),
         "table 1's ids must be a permutation of [0, 60), as table 0's are"),
        (lambda m, a: a.update(ids=a["ids"].astype(np.float64)), "ids must be an integer array"),
        (lambda m, a: a.update(keys=a["keys"][:-1]), "keys must be a 1-D integer array with one key per bucket (12)"),
        (lambda m, a: a["keys"].put(1, a["keys"][0]), "table 0's keys must increase"),
    ], ids=["short_sizes", "long_sizes", "small_sizes", "shifted_sizes", "negative_size", "empty_table", "ids_999",
            "negative_id", "repeated_id", "float_ids", "short_keys", "repeated_key"])
    def test_malformed_lsh_rejected(self, tmp_path, mangle, message):
        path = tmp_path / "bad.akx"
        _save_mangled(path, "lsh", FAMILIES["lsh"][1](FAMILY_X), mangle)
        with pytest.raises(ValueError, match=re.escape(f"{path}: malformed lsh container: {message}")):
            load_index(path)

    def test_lsh_against_another_collection_rejected(self, tmp_path):
        path = tmp_path / "lsh.akx"
        save_index(path, FAMILIES["lsh"][1](FAMILY_X))
        assert len(load_index(path, X=FAMILY_X).tables) == 3
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: malformed lsh container: the tables hold 60 ids, the collection 59")):
            load_index(path, X=Collection(FAMILY_X.vectors[:59]))

    @pytest.mark.parametrize("mangle,message", [
        (lambda m, a: a.update(upper=a["upper"][:2]), "upper and lower must be 2-D float arrays of one shape "
         "with one row per sketch (3)"),
        (lambda m, a: a.update(lower=a["lower"][:2]), "upper and lower must be 2-D float arrays of one shape "
         "with one row per sketch (3)"),
        (lambda m, a: a.update(upper=a["upper"][0]), "upper and lower must be 2-D float arrays of one shape "
         "with one row per sketch (3)"),
        (lambda m, a: m.update(dims=m["dims"] + [8]), "has_nz and has_lower must hold one flag per sketch (4)"),
        (lambda m, a: m.update(has_nz=m["has_nz"][:2]), "has_nz and has_lower must hold one flag per sketch (3)"),
        (lambda m, a: m.update(has_lower=m["has_lower"] + [True]),
         "has_nz and has_lower must hold one flag per sketch (3)"),
        (lambda m, a: a.update(nz_offsets=a["nz_offsets"][:-1], nz=a["nz"][:a["nz_offsets"][-2]]),
         "nz_offsets must hold one part per sketch (3)"),
    ], ids=["short_upper", "short_lower", "flat_upper", "long_dims", "short_has_nz", "long_has_lower",
            "short_nz_offsets"])
    def test_malformed_asym_set_rejected(self, tmp_path, mangle, message):
        path = tmp_path / "bad.akx"
        _save_mangled(path, "asym_set", FAMILIES["asym_set"][1](FAMILY_X), mangle)
        with pytest.raises(ValueError, match=re.escape(f"{path}: malformed asym_set container: {message}")):
            load_index(path)

    @settings(max_examples=300, deadline=None)
    @given(family=st.sampled_from(["lsh", "asym_set"]), data=st.data())
    def test_mangled_lsh_or_sketch_loads_or_raises_value_error(self, tmp_path_factory, family, data):
        """Any one array value changed, any one array cut or grown by a row,
        or any one meta list cut or grown by an entry, loads or fails with a
        ValueError naming the file."""
        meta, arrays = container._FAMILIES[family].encode(FAMILIES[family][1](FAMILY_X))
        lists = sorted(key for key, value in meta.items() if isinstance(value, list))
        name = data.draw(st.sampled_from(sorted(arrays) + lists), label="field")
        change = data.draw(st.sampled_from(["value", "cut", "grow"]), label="change")
        if name in meta:
            meta[name] = meta[name][:-1] if change == "cut" else meta[name] + meta[name][:1]
        elif change == "value" and arrays[name].size:
            a, low = arrays[name], 0 if arrays[name].dtype.kind == "u" else -3
            a.flat[data.draw(st.integers(0, a.size - 1), label="at")] = data.draw(st.integers(low, 70), label="to")
        elif change == "cut":
            arrays[name] = arrays[name][:-1]
        else:
            arrays[name] = np.concatenate((arrays[name], arrays[name][:1]))
        path = tmp_path_factory.getbasetemp() / "mangled_sketch.akx"
        with open(path, "wb") as fh:
            container._write_blob(fh, container._FAMILIES[family].tag, meta, arrays)
        try:
            load_index(path, X=FAMILY_X)
        except ValueError as err:
            assert str(err).startswith(f"{path}: ")

    @settings(max_examples=150, deadline=None)
    @given(family=st.sampled_from(sorted(FAMILIES)), cut=st.integers(0, 2**20),
           tail=st.binary(max_size=16))
    def test_truncated_or_extended_container_raises_value_error(self, tmp_path_factory, containers,
                                                                family, cut, tail):
        blob = containers[family]
        path = tmp_path_factory.getbasetemp() / "mangled.akx"
        path.write_bytes(blob + tail if tail else blob[:cut % len(blob)])
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_index(path, X=FAMILY_X)


class TestExperiments:
    def test_coincidence_m1(self):
        X = Collection(np.array([[1.0, 2.0]], dtype=np.float32))
        assert self_coincidence_fraction(X) == 1.0

    def test_coincidence_rises_with_d(self):
        report = experiment_coincidence(Distribution.GAUSSIAN_STD, m=2000, dims=[4, 64], seed=34)
        fracs = report.column("coincidence_fraction")
        assert fracs[0] < fracs[1]

    def test_benchmark_times_only_the_search(self, monkeypatch):
        clock = [0.0]
        monkeypatch.setattr(experiments.time, "perf_counter", lambda: clock[0])
        X = rand_collection(30, 4, 37)
        queries = rand_collection(3, 4, 38).vectors

        def run(param, q):
            clock[0] += 1.0  # the search

            def cost():
                clock[0] += 100.0  # counting the cost, e.g. routing again
                return param

            return brute_force_topk(X, q, 2, DistanceKind.L2_SQUARED), cost

        report = benchmark("t", X, queries, 2, DistanceKind.L2_SQUARED, [5, 7], run, timings=True)
        assert report.column("wall_ms") == [3000.0, 3000.0]
        assert report.column("dist_evals_mean") == [5.0, 7.0]
        assert report.column("recall_mean") == [1.0, 1.0]

    def test_instability_m1_ratio_one(self):
        report = experiment_instability(Distribution.GAUSSIAN_STD, m=1, dims=[4],
                                        n_queries=5, seed=35)
        assert report.column("ratio_mean")[0] == pytest.approx(1.0)

    def test_instability_ratio_falls_with_d(self):
        report = experiment_instability(Distribution.GAUSSIAN_STD, m=2000, dims=[4, 256],
                                        n_queries=30, seed=36)
        ratios = report.column("ratio_mean")
        fracs = report.column("frac_within_eps")
        assert ratios[0] > ratios[1]
        assert fracs[0] < fracs[1]

    def test_csv_shape(self):
        report = experiment_coincidence(Distribution.EXPONENTIAL, m=100, dims=[2, 4], seed=37)
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "distribution,m,d,coincidence_fraction"
        assert len(lines) == 3

    def test_positive_support_breaks_coincidence(self):
        # zero-mean draws approach full self-coincidence much earlier than
        # positive-support draws (which also converge, just far later)
        gauss = experiment_coincidence(Distribution.GAUSSIAN_STD, m=2000, dims=[32], seed=38)
        positive = experiment_coincidence(Distribution.UNIFORM_POSITIVE, m=2000, dims=[32], seed=38)
        g = gauss.column("coincidence_fraction")[0]
        p = positive.column("coincidence_fraction")[0]
        assert p < g - 0.3

    def test_spherical_beats_euclidean_ivf_for_mips(self):
        # norm-skewed instance, matched ell: the MIPS-configured pipeline
        # (spherical training, inner-product routing) against the
        # NN-configured one (euclidean training, L2 routing), both rescoring
        # candidates by exact inner product
        from annkit.core import pairwise_scores, recall, TopKResult
        from annkit.ivf import IvfIndex, KMeansKind, kmeans_train, route

        rng = np.random.default_rng(39)
        m, d, C, ell = 1500, 8, 38, 3
        dirs = rng.standard_normal((m, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        norms = rng.lognormal(0.0, 0.7, size=m)
        X = Collection((dirs * norms[:, None]).astype(np.float32))
        queries = rng.standard_normal((60, d)).astype(np.float32)
        oracles = [brute_force_topk(X, q, 1, DistanceKind.NEG_INNER_PRODUCT) for q in queries]

        def index_with(train_kind, route_kind):
            model = kmeans_train(X, C, train_kind, seed=40)
            lists = [np.flatnonzero(model.assignment == c).astype(np.int64) for c in range(C)]
            return IvfIndex(model=model, lists=lists, kind=route_kind)

        def mips_recall(index):
            hits = []
            for q, o in zip(queries, oracles):
                clusters = route(index, q, ell)
                cand = np.sort(np.concatenate([index.lists[int(c)] for c in clusters]))
                scores = pairwise_scores(Collection(X.vectors[cand]), q,
                                         DistanceKind.NEG_INNER_PRODUCT)
                order = np.lexsort((cand, scores))[:1]
                hits.append(recall(o, TopKResult(ids=cand[order], scores=scores[order], k=1), 1))
            return np.mean(hits)

        r_spherical = mips_recall(index_with(KMeansKind.SPHERICAL, DistanceKind.NEG_INNER_PRODUCT))
        r_euclidean = mips_recall(index_with(KMeansKind.EUCLIDEAN, DistanceKind.L2_SQUARED))
        assert r_spherical > r_euclidean


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "annkit.harness.cli", *argv],
        capture_output=True, text=True,
    )
    return proc


def cli_modules(*argv) -> set:
    """The annkit modules a run of ``python -m annkit.harness.cli`` has
    imported when it exits."""
    code = ("import runpy, sys\n"
            f"sys.argv = ['annkit', *{list(argv)!r}]\n"
            "try:\n"
            "    runpy.run_module('annkit.harness.cli', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as stop:\n"
            "    assert not stop.code, stop.code\n"
            "print(' '.join(m for m in sys.modules if m.startswith('annkit')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


FAMILY_MODULES = {"annkit.graph", "annkit.ivf", "annkit.lsh", "annkit.quant", "annkit.sampling",
                  "annkit.sketch", "annkit.transforms", "annkit.trees"}


class TestCli:
    def test_generate_query_deterministic(self, tmp_path):
        data = tmp_path / "d.vecs"
        queries = tmp_path / "q.vecs"
        assert run_cli("generate", "--m", "80", "--d", "6", "--seed", "3", "--out", str(data)).returncode == 0
        assert run_cli("generate", "--m", "4", "--d", "6", "--seed", "4", "--out", str(queries)).returncode == 0
        idx = tmp_path / "kd.akx"
        assert run_cli("build", "--index", "kd", "--data", str(data), "--out", str(idx)).returncode == 0
        a = run_cli("query", "--index-file", str(idx), "--data", str(data), "--queries", str(queries), "--k", "3")
        b = run_cli("query", "--index-file", str(idx), "--data", str(data), "--queries", str(queries), "--k", "3")
        assert a.returncode == 0 and a.stdout == b.stdout
        assert a.stdout.startswith("query_id,rank,id,score")

    def test_bench_rows(self, tmp_path):
        data, queries = tmp_path / "d.vecs", tmp_path / "q.vecs"
        run_cli("generate", "--m", "120", "--d", "4", "--seed", "5", "--out", str(data))
        run_cli("generate", "--m", "3", "--d", "4", "--seed", "6", "--out", str(queries))
        out = run_cli("bench", "ivf", "--data", str(data), "--queries", str(queries),
                      "--k", "3", "--sweep-l", "1,2,5,10")
        assert out.returncode == 0
        assert len(out.stdout.strip().split("\n")) == 5  # header + 4 rows

    def test_bench_forest_csv_pinned(self, tmp_path):
        """The cost column counts the ids of the leaves each query routes to."""
        data, queries = tmp_path / "d.vecs", tmp_path / "q.vecs"
        run_cli("generate", "--m", "400", "--d", "8", "--seed", "31", "--out", str(data))
        run_cli("generate", "--m", "6", "--d", "8", "--seed", "32", "--out", str(queries))
        out = run_cli("bench", "forest", "--data", str(data), "--queries", str(queries), "--k", "5",
                      "--leaf-capacity", "16", "--sweep-trees", "1,2,4,8", "--seed", "33")
        assert out.returncode == 0, out.stderr
        assert hashlib.sha256(out.stdout.encode()).hexdigest() == BENCH_FOREST_SHA256

    def test_experiment_row_count(self):
        out = run_cli("experiment", "coincidence", "--dist", "gaussian",
                      "--m", "300", "--dims", "2,4,8,16")
        assert out.returncode == 0
        assert len(out.stdout.strip().split("\n")) == 5

    def test_bench_vamana_reports_visited(self, tmp_path):
        data, queries = tmp_path / "d.vecs", tmp_path / "q.vecs"
        run_cli("generate", "--m", "200", "--d", "4", "--seed", "7", "--out", str(data))
        run_cli("generate", "--m", "3", "--d", "4", "--seed", "8", "--out", str(queries))
        out = run_cli("bench", "vamana", "--data", str(data), "--queries", str(queries),
                      "--k", "3", "--degree", "8", "--beam", "16", "--sweep-beam", "8,16")
        assert out.returncode == 0
        lines = out.stdout.strip().split("\n")
        assert lines[0] == "index,param,k,recall_mean,dist_evals_mean"
        assert len(lines) == 3
        assert all(float(line.split(",")[4]) > 0 for line in lines[1:])

    def test_experiment_sketch_stat_rows(self):
        out = run_cli("experiment", "sketch", "--sketch", "jl", "--trials", "5",
                      "--d", "8", "--out-dim", "4")
        lines = out.stdout.strip().split("\n")
        assert lines[0] == "sketch,d,out_dim,seed,estimate,truth"
        assert len(lines) == 6

    def test_bench_boundedme_rows(self, tmp_path):
        data, queries = tmp_path / "d.vecs", tmp_path / "q.vecs"
        run_cli("generate", "--m", "150", "--d", "8", "--seed", "9", "--out", str(data))
        run_cli("generate", "--m", "2", "--d", "8", "--seed", "10", "--out", str(queries))
        out = run_cli("bench", "boundedme", "--data", str(data), "--queries", str(queries),
                      "--k", "3", "--sweep-eps", "0.2,0.4", "--delta", "0.1")
        assert out.returncode == 0
        assert len(out.stdout.strip().split("\n")) == 3

    def test_unknown_flag_usage_exit(self):
        out = run_cli("generate", "--nonsense", "1")
        assert out.returncode == 2

    @pytest.mark.parametrize("argv", [
        ["query", "--index-file", "{pq}", "--k", "0"],
        ["query", "--index-file", "{pq}", "--k", "-3"],
        ["bench", "ivf", "--k", "0"],
        ["build", "--index", "rp", "--out", "{pq}", "--trees", "0"],
        ["build", "--index", "spill", "--out", "{pq}", "--trees", "-1"],
    ], ids=["query_k0", "query_k_minus_3", "bench_k0", "rp_trees0", "spill_trees_minus_1"])
    def test_k_below_one_is_a_usage_error(self, tmp_path, argv):
        data, queries, pq = tmp_path / "d.vecs", tmp_path / "q.vecs", tmp_path / "pq.akx"
        save_vecs(data, rand_collection(50, 8, 61))
        save_vecs(queries, rand_collection(2, 8, 62))
        save_index(pq, pq_train(load_vecs(data), 2, 4, seed=1))
        extra = ["--queries", str(queries)] if argv[0] != "build" else []
        out = run_cli(*(arg.format(pq=pq) for arg in argv), "--data", str(data), *extra)
        assert out.returncode == 2 and out.stdout == ""
        assert f"argument {argv[-2]}: must be at least 1" in out.stderr

    @pytest.mark.parametrize("case", ["pq_subspaces", "query_dimension", "truncated_akx", "nan_centroid",
                                      "repeated_neighbour", "missing_file", "pq_subspaces0", "opq_subspaces0",
                                      "aq_codebooks0"])
    def test_bad_input_exits_2_with_one_error_line(self, tmp_path, case):
        data, queries, idx = tmp_path / "d.vecs", tmp_path / "q.vecs", tmp_path / "kd.akx"
        save_vecs(data, rand_collection(50, 8, 63))
        save_vecs(queries, rand_collection(2, 8 if case != "query_dimension" else 6, 64))
        save_index(idx, kd_build(load_vecs(data), 8))
        query = ["query", "--index-file", str(idx), "--data", str(data), "--queries", str(queries)]
        if case == "pq_subspaces":
            argv, message = ["build", "--index", "pq", "--subspaces", "3", "--data", str(data),
                             "--out", str(tmp_path / "pq.akx")], "d=8 not divisible by L=3"
        elif case.endswith("0"):  # no subspace or codebook: one error line, not a ZeroDivisionError
            family, flag = case[:-1].split("_")
            argv, message = ["build", "--index", family, f"--{flag}", "0", "--data", str(data),
                             "--out", str(tmp_path / "q.akx")], f"need at least one {flag[:-1]}, not L=0"
        elif case == "query_dimension":
            argv, message = query, f"{queries}: queries have dimension 6, the data {data} 8"
        elif case == "truncated_akx":
            idx.write_bytes(idx.read_bytes()[:40])
            argv, message = query, f"{idx}: truncated"
        elif case == "nan_centroid":
            _save_mangled(idx, "ivf", build_ivf(load_vecs(data), 4, seed=1),
                          lambda m, a: a["centroids"].put(3, np.nan))
            argv, message = query, f"{idx}: malformed ivf container: centroids must be a non-empty"
        elif case == "repeated_neighbour":  # in the entry's row, which every query expands
            _save_mangled(idx, "graph", build_knn_graph(load_vecs(data), 4),
                          lambda m, a: a["ids"].put(a["offsets"][m["entry"]] + 1, a["ids"][a["offsets"][m["entry"]]]))
            argv, message = query, f"{idx}: malformed graph container: each node's neighbour ids must be strictly"
        else:
            idx.unlink()
            argv, message = query, f"No such file or directory: '{idx}'"
        out = run_cli(*argv)
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr.startswith("annkit: error: ") and out.stderr.count("\n") == 1
        assert message in out.stderr

    @pytest.mark.parametrize("family,rows,width", [
        *((family, 20, 8) for family in ("kd", "rp_forest", "spill_forest", "graph", "wedge")),
        *((family, 200, 9) for family in ("kd", "rp_forest", "spill_forest", "wedge", "pq", "opq", "aq")),
    ])
    def test_index_over_another_collection_exits_2(self, tmp_path, family, rows, width):
        # a graph records no width, so it has no wider case; a quantizer
        # records no rows, so it has no shorter one
        data, queries, idx = tmp_path / "d.vecs", tmp_path / "q.vecs", tmp_path / f"{family}.akx"
        save_index(idx, FAMILIES[family][1](rand_collection(200, 8, 67)))
        save_vecs(data, rand_collection(rows, width, 68))
        save_vecs(queries, rand_collection(2, width, 69))
        out = run_cli("query", "--index-file", str(idx), "--data", str(data), "--queries", str(queries))
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr.startswith(f"annkit: error: {idx}: malformed {family} container: ")
        assert out.stderr.count("\n") == 1

    @pytest.mark.parametrize("mangle,message", [
        (lambda m, a: a["alias"].fill(500), "each table's alias ids must lie in [0, its length)"),
        (lambda m, a: a.update(dims=a["dims"] + 1), "dims must be strictly ascending integers in [0, 4)"),
        (lambda m, a: a.update(dims=np.insert(a["dims"], 2, 2)),
         "lengths, column_sums and weight_sums must hold one entry per dim (4)"),
        (lambda m, a: a["prob"].fill(np.nan), "prob must hold acceptance probabilities in [0, 1]"),
        (lambda m, a: a["prob"].put(0, 1.5), "prob must hold acceptance probabilities in [0, 1]"),
    ], ids=["aliases_500", "dims_shifted", "dim_without_table", "prob_nan", "prob_above_one"])
    def test_malformed_wedge_exits_2(self, tmp_path, mangle, message):
        data, queries, idx = tmp_path / "d.vecs", tmp_path / "q.vecs", tmp_path / "wedge.akx"
        X = np.random.default_rng(70).standard_normal((50, 4)).astype(np.float32)
        X[:, 2] = 0  # dimension 2 has no table
        save_vecs(data, Collection(X))
        save_vecs(queries, rand_collection(2, 4, 71))
        _save_mangled(idx, "wedge", build_wedge_index(load_vecs(data)), mangle)
        out = run_cli("query", "--index-file", str(idx), "--data", str(data), "--queries", str(queries))
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr == f"annkit: error: {idx}: malformed wedge container: {message}\n"

    @pytest.mark.parametrize("family,mangle,message", [
        ("pq", lambda m, a: a["codewords"].put(3, np.nan), "codewords must be a non-empty (2, 4, 4) "
         "float array of finite values"),
        ("pq", lambda m, a: a["codewords"].put(0, np.inf), "codewords must be a non-empty (2, 4, 4) "
         "float array of finite values"),
        ("pq", lambda m, a: a.update(codewords=a["codewords"][0]), "codewords must be a non-empty (2, 4, 4) "
         "float array of finite values"),
        ("pq", lambda m, a: a.update(codewords=a["codewords"].astype(np.int64)),
         "codewords must be a non-empty (2, 4, 4) float array of finite values"),
        ("pq", lambda m, a: m.update(C=3), "codewords must be a non-empty (2, 3, 4) float array of finite values"),
        ("pq", lambda m, a: m.update(d_sub=2), "codewords must be a non-empty (2, 4, 2) float array of finite values"),
        ("pq", lambda m, a: (m.update(L=1, d_sub=2), a.update(codewords=a["codewords"][:1, :, :2])),
         "the index has width 2, the collection 8"),
        ("opq", lambda m, a: a["codewords"].put(5, np.nan), "codewords must be a non-empty (2, 4, d) "
         "float array of finite values"),
        ("opq", lambda m, a: m.update(L=3), "codewords must be a non-empty (3, 4, d) float array of finite values"),
        ("opq", lambda m, a: a["rotation"].put(9, np.nan), "rotation must be a (8, 8) float array of finite values, "
         "d = L * d_sub"),
        ("opq", lambda m, a: a.update(rotation=a["rotation"][:6, :6]), "rotation must be a (8, 8) float array "
         "of finite values, d = L * d_sub"),
        ("opq", lambda m, a: a.update(rotation=a["rotation"].ravel()), "rotation must be a (8, 8) float array "
         "of finite values, d = L * d_sub"),
        ("opq", lambda m, a: a.update(codewords=a["codewords"][:, :, :3], rotation=a["rotation"][:6, :6]),
         "the index has width 6, the collection 8"),
        ("aq", lambda m, a: m.update(beam=0), "beam must be at least 1, not 0"),
        ("aq", lambda m, a: m.update(beam=-2), "beam must be at least 1, not -2"),
        ("aq", lambda m, a: a["codewords"].put(7, -np.inf), "codewords must be a non-empty (2, 4, d) "
         "float array of finite values"),
        ("aq", lambda m, a: a.update(codewords=a["codewords"][:, :, :5]), "the index has width 5, the collection 8"),
        ("threshold_set", lambda m, a: m.update(norms=m["norms"][:1]), "norms must hold one norm per sketch (3)"),
        ("threshold_set", lambda m, a: m.update(norms=m["norms"] + [1.0]), "norms must hold one norm per sketch (3)"),
    ], ids=["pq_nan", "pq_inf", "pq_2d", "pq_int", "pq_meta_C", "pq_meta_d_sub", "pq_narrow", "opq_nan",
            "opq_meta_L", "opq_rotation_nan", "opq_rotation_small", "opq_rotation_flat", "opq_narrow", "aq_beam_0",
            "aq_beam_negative", "aq_inf", "aq_narrow", "threshold_short_norms", "threshold_long_norms"])
    def test_malformed_quantizer_or_threshold_set_exits_2(self, tmp_path, family, mangle, message):
        data, queries, idx = tmp_path / "d.vecs", tmp_path / "q.vecs", tmp_path / f"{family}.akx"
        save_vecs(data, rand_collection(50, 8, 72))
        save_vecs(queries, rand_collection(2, 8, 73))
        _save_mangled(idx, family, FAMILIES[family][1](load_vecs(data)), mangle)
        out = run_cli("query", "--index-file", str(idx), "--data", str(data), "--queries", str(queries))
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr == f"annkit: error: {idx}: malformed {family} container: {message}\n"

    def test_lsh_over_a_wider_collection_exits_2(self, tmp_path):
        data, queries, idx = tmp_path / "d.vecs", tmp_path / "q.vecs", tmp_path / "lsh.akx"
        save_index(idx, FAMILIES["lsh"][1](rand_collection(50, 8, 74)))
        save_vecs(data, rand_collection(50, 16, 75))
        save_vecs(queries, rand_collection(2, 16, 76))
        out = run_cli("query", "--index-file", str(idx), "--data", str(data), "--queries", str(queries))
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr == f"annkit: error: {idx}: malformed lsh container: the index has width 8, the collection 16\n"

    @pytest.mark.parametrize("mangle,message", [
        (lambda m, a: m.update(r=0.0), "p-stable bucket width r must be finite and positive, not 0.0"),
        (lambda m, a: m.update(r=-1.0), "p-stable bucket width r must be finite and positive, not -1.0"),
        (lambda m, a: m.update(r=math.inf), "p-stable bucket width r must be finite and positive, not inf"),
        (lambda m, a: m.update(ell=0), "ell and big_l must be at least 1"),
        (lambda m, a: m.update(big_l=0, table_sizes=[]), "ell and big_l must be at least 1"),
    ], ids=["r_0", "r_negative", "r_inf", "ell_0", "big_l_0"])
    def test_malformed_pstable_lsh_exits_2(self, tmp_path, mangle, message):
        data, queries, idx = tmp_path / "d.vecs", tmp_path / "q.vecs", tmp_path / "lsh.akx"
        save_vecs(data, rand_collection(50, 8, 77))
        save_vecs(queries, rand_collection(2, 8, 78))
        _save_mangled(idx, "lsh", build_index(load_vecs(data), HashFamily(FamilyKind.P_STABLE_L2, seed=1, d=8),
                                              2, 3), mangle)
        out = run_cli("query", "--index-file", str(idx), "--data", str(data), "--queries", str(queries))
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr == f"annkit: error: {idx}: malformed lsh container: {message}\n"

    @pytest.mark.parametrize("radius", ["0", "-1", "nan", "inf"])
    def test_pstable_radius_not_finite_and_positive_exits_2(self, tmp_path, radius):
        data, idx = tmp_path / "d.vecs", tmp_path / "lsh.akx"
        save_vecs(data, rand_collection(50, 8, 79))
        out = run_cli("build", "--index", "lsh", "--family", "pstable", "--radius", radius,
                      "--data", str(data), "--out", str(idx))
        assert out.returncode == 2 and out.stdout == "" and not idx.exists()
        assert out.stderr == (f"annkit: error: p-stable bucket width r must be finite and positive, "
                              f"not {float(radius)}\n")

    @pytest.mark.parametrize("family", ["jl", "asym_set", "threshold_set"])
    def test_querying_a_sketch_container_exits_2(self, tmp_path, family):
        data, queries, idx = tmp_path / "d.vecs", tmp_path / "q.vecs", tmp_path / f"{family}.akx"
        save_vecs(data, rand_collection(20, 8, 65))
        save_vecs(queries, rand_collection(2, 8, 66))
        save_index(idx, FAMILIES[family][1](load_vecs(data)))
        out = run_cli("query", "--index-file", str(idx), "--data", str(data), "--queries", str(queries))
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr == (f"annkit: error: {idx}: a {family} container is a sketch, "
                              "not a searchable index\n")

    def test_selftest_passes(self):
        out = run_cli("selftest")
        assert out.returncode == 0
        assert "all checks passed" in out.stdout

    @pytest.mark.parametrize("index,extra", [
        ("rp", ["--trees", "3"]),
        ("spill", ["--trees", "2", "--overlap", "0.15"]),
        ("sng", ["--alpha", "1.1"]),
        ("pq", ["--subspaces", "2", "--codewords", "8"]),
        ("opq", ["--subspaces", "2", "--codewords", "8", "--iters", "2"]),
        ("aq", ["--codebooks", "2", "--codewords", "8", "--iters", "2"]),
        ("wedge", []),
        ("kd", ["--leaf-capacity", "8"]),
        ("cover", []),
        ("lsh", ["--ell", "2", "--tables", "3"]),
        ("knn", ["--k", "5"]),
        ("vamana", ["--degree", "8"]),
        ("ivf", ["--clusters", "6", "--iters", "3"]),
    ])
    def test_build_query_all_families(self, tmp_path, index, extra):
        data, queries = tmp_path / "d.vecs", tmp_path / "q.vecs"
        run_cli("generate", "--m", "120", "--d", "8", "--seed", "20", "--out", str(data))
        run_cli("generate", "--m", "2", "--d", "8", "--seed", "21", "--out", str(queries))
        idx = tmp_path / f"{index}.akx"
        built = run_cli("build", "--index", index, "--data", str(data),
                        "--out", str(idx), "--seed", "22", *extra)
        assert built.returncode == 0, built.stderr
        out = run_cli("query", "--index-file", str(idx), "--data", str(data),
                      "--queries", str(queries), "--k", "3")
        assert out.returncode == 0, out.stderr
        assert len(out.stdout.strip().split("\n")) == 7  # header + 2 queries x 3

    def test_build_index_choices(self):
        out = run_cli("build", "--help")
        assert "--index {kd,rp,spill,cover,lsh,knn,sng,vamana,ivf,pq,opq,aq,wedge}" in out.stdout
        assert "--family {" + ",".join(f.value for f in FamilyKind) + "}" in out.stdout

    def test_import_does_not_load_scipy_integrate(self):
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, annkit.harness.cli; print('scipy.integrate' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout == "False\n"

    def test_generate_imports_no_family(self, tmp_path):
        loaded = cli_modules("generate", "--m", "10", "--d", "4", "--out", str(tmp_path / "d.vecs"))
        assert "annkit.harness.synth" in loaded
        # run as __main__, the CLI is never imported a second time by name
        assert not loaded & (FAMILY_MODULES | {"annkit.harness.experiments", "annkit.harness.cli"})

    def test_pq_query_imports_only_its_family(self, tmp_path):
        data, queries, idx = tmp_path / "d.vecs", tmp_path / "q.vecs", tmp_path / "pq.akx"
        save_vecs(data, rand_collection(50, 8, 72))
        save_vecs(queries, rand_collection(2, 8, 73))
        save_index(idx, pq_train(load_vecs(data), 2, 4, seed=1))
        loaded = cli_modules("query", "--index-file", str(idx), "--data", str(data), "--queries", str(queries),
                             "--out", str(tmp_path / "pq.csv"))
        assert "annkit.quant" in loaded
        assert not loaded & {"annkit.graph", "annkit.lsh", "annkit.trees", "annkit.sampling", "annkit.sketch"}

    def test_quantizer_names_rebound_on_the_cli_reach_builds_and_queries(self, tmp_path, monkeypatch):
        """A traced benchmark run wraps these names on the CLI module."""
        data, queries = tmp_path / "d.vecs", tmp_path / "q.vecs"
        save_vecs(data, rand_collection(60, 8, 74))
        save_vecs(queries, rand_collection(2, 8, 75))
        calls = []
        for name in ("pq_train", "opq_train", "pq_encode_all"):
            def traced(*args, _name=name, _orig=getattr(cli, name), **kwargs):
                calls.append(_name)
                return _orig(*args, **kwargs)
            monkeypatch.setattr(cli, name, traced)
        for index in ("pq", "opq"):
            assert cli.main(["build", "--index", index, "--data", str(data), "--out", str(tmp_path / f"{index}.akx"),
                             "--codewords", "4", "--iters", "1"]) == 0
        assert cli.main(["query", "--index-file", str(tmp_path / "pq.akx"), "--data", str(data),
                         "--queries", str(queries), "--out", str(tmp_path / "pq.csv")]) == 0
        assert calls == ["pq_train", "opq_train", "pq_encode_all"]

    @pytest.mark.parametrize("index,extra", [
        ("pq", ["--subspaces", "4", "--codewords", "8"]),
        ("opq", ["--subspaces", "4", "--codewords", "8", "--iters", "2"]),
    ])
    def test_in_process_queries_match_fresh_processes(self, tmp_path, index, extra):
        # two indexes queried one after the other in one process must not
        # share encoded state
        data, queries = tmp_path / "d.vecs", tmp_path / "q.vecs"
        save_vecs(data, rand_collection(200, 8, 23))
        save_vecs(queries, rand_collection(4, 8, 24))
        for seed in ("1", "2"):
            assert cli.main(["build", "--index", index, "--data", str(data), "--seed", seed,
                             "--out", str(tmp_path / f"{seed}.akx"), *extra]) == 0
        flags = ["--data", str(data), "--queries", str(queries), "--k", "5"]
        for seed in ("1", "2"):
            inproc = tmp_path / f"{seed}.csv"
            assert cli.main(["query", "--index-file", str(tmp_path / f"{seed}.akx"),
                             "--out", str(inproc), *flags]) == 0
        fresh = [run_cli("query", "--index-file", str(tmp_path / f"{seed}.akx"), *flags)
                 for seed in ("1", "2")]
        assert fresh[0].stdout != fresh[1].stdout
        for seed, proc in zip(("1", "2"), fresh):
            assert proc.returncode == 0, proc.stderr
            assert (tmp_path / f"{seed}.csv").read_text() == proc.stdout

    def test_aq_query_encodes_each_point_once(self, tmp_path, monkeypatch):
        X = rand_collection(40, 6, 25)
        Q = rand_collection(3, 6, 26)
        data, queries, idx, out = (tmp_path / name for name in ("d.vecs", "q.vecs", "aq.akx", "o.csv"))
        save_vecs(data, X)
        save_vecs(queries, Q)
        cb, _, _ = aq_train(X, 2, 4, beam=2, iters=1, seed=27)
        save_index(idx, cb)
        calls = []

        def counting_encode(*args, **kwargs):
            calls.append(1)
            return aq_encode(*args, **kwargs)

        monkeypatch.setattr(cli, "aq_encode", counting_encode)
        assert cli.main(["query", "--index-file", str(idx), "--data", str(data),
                         "--queries", str(queries), "--k", "5", "--out", str(out)]) == 0
        assert len(calls) == len(X)

        # reference: per-row aq_distance and the full (score, id) sort
        loaded = load_index(idx, X=X)
        codes = [aq_encode(loaded, X.vectors[i]) for i in range(len(X))]
        lines = ["query_id,rank,id,score"]
        for qi, q in enumerate(Q.vectors):
            tables = aq_adc(loaded, q)
            scores = np.array([aq_distance(loaded, q, c, tables) for c in codes])
            order = np.lexsort((np.arange(len(X)), scores))[:5]
            lines += [f"{qi},{rank},{int(i)},{float(scores[i])!r}" for rank, i in enumerate(order)]
        assert out.read_text() == "\n".join(lines) + "\n"
