"""Tagged, versioned binary envelope shared by every index family.

Layout: magic ``AKIX``, u16 version, u16 family tag, a compact JSON meta
block, then named arrays (dtype string, shape, raw little-endian bytes).
Writing is fully deterministic: meta keys are sorted and arrays are
emitted in sorted name order.

Each integer array is stored at the narrowest of 1, 2 or 4 bytes that
holds all its values (unsigned unless a value is negative; an empty array
as ``u1``), or at its own 8-byte dtype when none does. Reading widens
every 1-, 2- or 4-byte integer array to int64, so decoders see the int64
arrays of the earlier all-int64 layout, whose files still load.

Each family is one ``_FAMILIES`` entry, the only family table: its pinned
tag, the module and name of its index object's exact type, its
encode/decode pair, and the `annkit build` and `annkit query` adapters
:mod:`annkit.harness.cli` runs. A family's module is imported only when
a process first builds, loads, saves or searches that family:
:func:`family_of` matches type names and imports nothing.
"""

from __future__ import annotations

import enum
import importlib
import json
import math
import struct
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

import numpy as np

from annkit.core import Collection, DistanceKind, top_k_from_scores

if TYPE_CHECKING:  # for annotations only: family modules load on demand
    from annkit.graph import NeighborGraph
    from annkit.ivf import IvfIndex
    from annkit.lsh import LshIndex
    from annkit.quant import AqCodebook, OpqModel, PqCodebook
    from annkit.sampling import WedgeIndex
    from annkit.sketch import JlSketcher
    from annkit.trees.cover import CoverTree
    from annkit.trees.kd import KdTree

__all__ = ["family_of", "save_index", "load_index"]


class _Lazy:
    """A module imported on its first attribute read, so that a process
    loads only the families it handles."""

    def __init__(self, name: str):
        self.name = name

    def __getattr__(self, attr):
        return getattr(importlib.import_module(self.name), attr)


_kd, _rp, _cover = _Lazy("annkit.trees.kd"), _Lazy("annkit.trees.rp"), _Lazy("annkit.trees.cover")
_preorder = _Lazy("annkit.trees.preorder")
_lsh, _graph, _ivf = _Lazy("annkit.lsh"), _Lazy("annkit.graph"), _Lazy("annkit.ivf")
_quant, _sampling, _sketch = _Lazy("annkit.quant"), _Lazy("annkit.sampling"), _Lazy("annkit.sketch")

_MAGIC = b"AKIX"
_VERSION = 1


def _narrowest(arr: np.ndarray) -> np.ndarray:
    """An integer array at the narrowest 1-, 2- or 4-byte dtype that holds
    its values, or unchanged when none does; other arrays unchanged."""
    if arr.dtype.kind not in "iu":
        return arr
    if not arr.size:
        return arr.astype(np.uint8)
    lo, hi = int(arr.min()), int(arr.max())
    for size in (1, 2, 4):
        dtype = np.dtype(f"{'u' if lo >= 0 else 'i'}{size}")
        if np.iinfo(dtype).min <= lo and hi <= np.iinfo(dtype).max:
            return arr.astype(dtype)
    return arr


def _write_blob(fh, tag: int, meta: dict, arrays: dict) -> None:
    fh.write(_MAGIC)
    fh.write(struct.pack("<HH", _VERSION, tag))
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    fh.write(struct.pack("<I", len(meta_bytes)))
    fh.write(meta_bytes)
    fh.write(struct.pack("<I", len(arrays)))
    for name in sorted(arrays):
        arr = _narrowest(np.ascontiguousarray(arrays[name]))
        arr = arr.astype(arr.dtype.newbyteorder("<"))
        name_b = name.encode()
        dtype_b = arr.dtype.str.encode()
        fh.write(struct.pack("<H", len(name_b)))
        fh.write(name_b)
        fh.write(struct.pack("<H", len(dtype_b)))
        fh.write(dtype_b)
        fh.write(struct.pack("<B", arr.ndim))
        for dim in arr.shape:
            fh.write(struct.pack("<Q", dim))
        fh.write(arr.tobytes())


def _read_blob(path) -> tuple[str, dict, dict]:
    """Parse a container; anything but one whole container, byte for byte,
    raises ValueError naming ``path``."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != _MAGIC:
        raise ValueError(f"{path}: not an index container")
    pos = 4

    def take(n: int) -> bytes:
        nonlocal pos
        if n > len(raw) - pos:
            raise ValueError(f"{path}: truncated: {n} bytes expected at offset {pos}, "
                             f"{len(raw) - pos} left")
        pos += n
        return raw[pos - n:pos]

    def unpack(fmt: str) -> tuple:
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    version, tag = unpack("<HH")
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported container version {version}")
    if tag not in _NAME_OF_TAG:
        raise ValueError(f"{path}: unknown family tag {tag}")
    (meta_len,) = unpack("<I")
    meta_b = take(meta_len)
    try:
        meta = json.loads(meta_b)
    except ValueError as err:  # JSONDecodeError or UnicodeDecodeError
        raise ValueError(f"{path}: corrupt meta block: {err}") from None
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: corrupt meta block: not a JSON object")
    (n_arrays,) = unpack("<I")
    arrays = {}
    for _ in range(n_arrays):
        (name_len,) = unpack("<H")
        name = take(name_len).decode()
        (dtype_len,) = unpack("<H")
        dtype_b = take(dtype_len)
        try:
            dtype = np.dtype(dtype_b.decode())
        except (TypeError, ValueError):  # ValueError covers UnicodeDecodeError
            raise ValueError(f"{path}: array {name!r} has unknown dtype {dtype_b!r}") from None
        if dtype.hasobject or not dtype.itemsize:
            raise ValueError(f"{path}: array {name!r} has dtype {dtype_b!r}, which cannot be read from bytes")
        (ndim,) = unpack("<B")
        shape = unpack(f"<{ndim}Q")
        count = math.prod(shape)
        if count * dtype.itemsize > len(raw) - pos:
            raise ValueError(f"{path}: array {name!r} of shape {shape} needs "
                             f"{count * dtype.itemsize} bytes, {len(raw) - pos} left")
        arr = np.frombuffer(raw, dtype=dtype, count=count, offset=pos).reshape(shape)
        arrays[name] = arr.astype(np.int64) if dtype.kind in "iu" and dtype.itemsize < 8 else arr.copy()
        pos += count * dtype.itemsize
    if pos != len(raw):
        raise ValueError(f"{path}: {len(raw) - pos} trailing bytes after the last array")
    return _NAME_OF_TAG[tag], meta, arrays


# ---------------------------------------------------------------------------
# per-family encoders: object -> (meta, arrays); each decoder, next to its
# encoder, inverts it: (meta, arrays, X) -> object


class _BadMeta(Exception):
    """A meta value of the wrong type, or array values that do not fit the
    family; :func:`load_index` names the file."""


def _require(ok, message: str) -> None:
    if not ok:
        raise _BadMeta(message)


def _require_rows(X: Optional[Collection], rows: int, dim: int) -> None:
    """With the collection given, require the rows and width the index
    records to be the collection's."""
    if X is not None:
        _require((rows, dim) == (len(X), X.dim),
                 f"the index covers {rows} rows of width {dim}, the collection {len(X)} of width {X.dim}")


def _fits(value, kind) -> bool:
    if isinstance(kind, list):
        return isinstance(value, list) and all(_fits(v, kind[0]) for v in value)
    if kind is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, kind)


def _meta(meta: dict, key: str, kind, optional: bool = False):
    """The one typed reader of meta values: ``meta[key]`` when it is a JSON
    ``kind`` (int, float, bool or str; ``[int]`` is a list of ints; float
    admits ints, int rejects bools), or None when ``optional``. An Enum
    ``kind`` reads a str and returns the member. A missing key raises
    KeyError, a wrong type ``_BadMeta``."""
    value = meta[key]
    if optional and value is None:
        return None
    if isinstance(kind, type) and issubclass(kind, enum.Enum):
        try:
            return kind(value)
        except ValueError:
            raise _BadMeta(f"meta {key!r} must name a {kind.__name__}, not {value!r}") from None
    if not _fits(value, kind):
        name = f"a list of {kind[0].__name__}" if isinstance(kind, list) else kind.__name__
        raise _BadMeta(f"meta {key!r} must be {name}, not {value!r}")
    return value


def _pack_ragged(parts, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Variable-length parts -> (their concatenation as ``dtype``, int64
    offsets): part i is ``flat[offsets[i]:offsets[i + 1]]``."""
    offsets = np.cumsum([0] + [len(p) for p in parts], dtype=np.int64)
    return np.concatenate([np.asarray(p, dtype=dtype) for p in parts] or [np.zeros(0, dtype)]), offsets


def _unpack_ragged(flat: np.ndarray, offsets: np.ndarray) -> list:
    _require(flat.ndim == offsets.ndim == 1 and offsets.dtype.kind in "iu" and offsets.size
             and offsets[0] == 0 and offsets[-1] == flat.size and np.all(offsets[1:] >= offsets[:-1]),
             f"offsets must run from 0 up to {flat.size} without decreasing")
    return [flat[offsets[i]:offsets[i + 1]].copy() for i in range(offsets.size - 1)]


def _require_arrays(arrays: dict, names: set) -> None:
    extra, missing = sorted(set(arrays) - names), sorted(names - set(arrays))
    _require(not extra and not missing,
             f"arrays differ from the pre-order tree layout: unexpected {extra}, missing {missing}")


def _require_tree_shape(arrays: dict, prefix: str, rows: dict) -> None:
    """Require a tree shape in pre-order (see :mod:`annkit.trees.preorder`):
    ``leaf_size`` closing on exactly its nodes, leaf sizes summing to the
    ``leaf_ids``, and each array of ``rows``, mapped to its (dtype kinds,
    ndim), with one row per inner node."""
    leaf_size, leaf_ids = arrays[prefix + "leaf_size"], arrays[prefix + "leaf_ids"]
    _require(leaf_size.ndim == leaf_ids.ndim == 1 and leaf_size.dtype.kind == "i"
             and leaf_ids.dtype.kind in "iu", f"{prefix}leaf_size and {prefix}leaf_ids must be 1-D integer arrays")
    is_inner = leaf_size == -1
    open_slots = 1 + np.cumsum(np.where(is_inner, 1, -1))  # child slots still unfilled after each node
    _require(leaf_size.size and open_slots[-1] == 0 and np.all(open_slots[:-1] > 0),
             f"the pre-order shape must close on exactly the {leaf_size.size} stored nodes")
    sizes = leaf_size[~is_inner]
    _require(np.all((0 < sizes) & (sizes <= leaf_ids.size)) and sizes.sum() == leaf_ids.size,
             f"leaf sizes must be positive and sum to the {leaf_ids.size} leaf ids")
    n_inner = leaf_size.size - sizes.size
    for name, (kinds, ndim) in rows.items():
        a = arrays[prefix + name]
        _require(a.ndim == ndim and a.dtype.kind in kinds and a.shape[0] == n_inner,
                 f"{prefix}{name} must be a {ndim}-D {'float' if kinds == 'f' else 'integer'} array "
                 f"with one row per inner node ({n_inner})")


def _encode_kd(tree: KdTree):
    return {"leaf_capacity": tree.leaf_capacity, "dim": tree.dim, "size": tree.size}, {
        "leaf_size": tree.leaf_size, "leaf_ids": tree.leaf_ids, "axis": tree.axes, "split": tree.splits}


def _decode_kd(meta, arrays, X) -> KdTree:
    dim, size = _meta(meta, "dim", int), _meta(meta, "size", int)
    _require_arrays(arrays, {"leaf_size", "leaf_ids", "axis", "split"})
    _require_tree_shape(arrays, "", {"axis": ("iu", 1), "split": ("f", 1)})
    _require(np.array_equal(np.sort(arrays["leaf_ids"]), np.arange(size)),
             f"leaf_ids must be a permutation of [0, {size})")
    _require(np.all((0 <= arrays["axis"]) & (arrays["axis"] < dim)), f"axis values must lie in [0, {dim})")
    _require_rows(X, size, dim)
    return _kd.KdTree(arrays["leaf_size"], arrays["leaf_ids"], arrays["axis"], arrays["split"],
                      leaf_capacity=_meta(meta, "leaf_capacity", int), dim=dim, size=size)


_PROJ_ROWS = {"dir": ("f", 2), "threshold": ("f", 1), "size": ("iu", 1)}


def _encode_rp_forest(forest):
    meta = {"n_trees": len(forest), "dim": forest[0].dim,
            "leaf_capacity": forest[0].leaf_capacity, "seeds": [t.seed for t in forest]}
    arrays: dict = {}
    for i, tree in enumerate(forest):
        arrays.update({f"t{i}_leaf_size": tree.leaf_size, f"t{i}_leaf_ids": tree.leaf_ids, f"t{i}_dir": tree.dirs,
                       f"t{i}_threshold": tree.thresholds, f"t{i}_size": tree.sizes})
    return meta, arrays


def _decode_rp_forest(meta, arrays, X, alphas: Optional[list] = None) -> list:
    """An RP forest, or given one alpha per tree a spill forest."""
    leaf_capacity, dim = _meta(meta, "leaf_capacity", int), _meta(meta, "dim", int)
    n_trees, seeds = _meta(meta, "n_trees", int), _meta(meta, "seeds", [int])
    _require(len(seeds) == n_trees, f"seeds must hold one seed per tree ({n_trees})")
    _require(alphas is None or len(alphas) == n_trees, f"alphas must hold one alpha per tree ({n_trees})")
    _require_arrays(arrays, {f"t{i}_{name}" for i in range(n_trees)
                             for name in ("leaf_size", "leaf_ids", *_PROJ_ROWS)})
    forest = []
    for i, seed in enumerate(seeds):
        prefix = f"t{i}_"
        _require_tree_shape(arrays, prefix, _PROJ_ROWS)
        dirs, sizes, ids = arrays[prefix + "dir"], arrays[prefix + "size"], arrays[prefix + "leaf_ids"]
        _require(dirs.shape[1] == dim, f"{prefix}dir must have {dim} columns")
        root_size = int(sizes[0]) if sizes.size else ids.size
        if alphas is None:
            _require(np.array_equal(np.sort(ids), np.arange(root_size)),
                     f"{prefix}leaf_ids must be a permutation of [0, {root_size})")
        else:  # a spill node's children overlap, so an id may sit in several leaves
            _require(0 <= ids.min() and ids.max() < root_size, f"{prefix}leaf_ids must lie in [0, {root_size})")
            _require(np.unique(ids).size == root_size, f"{prefix}leaf_ids must hold every id of [0, {root_size})")
        leaf_size = arrays[prefix + "leaf_size"]
        offsets = _preorder.leaf_offsets(leaf_size)
        first, stop = (offsets[s] for s in _preorder.subtree_leaves(leaf_size))
        beneath = stop - first if alphas is None else [np.unique(ids[a:b]).size for a, b in zip(first, stop)]
        _require(np.array_equal(sizes, beneath),
                 f"{prefix}size must count the distinct leaf ids beneath each inner node")
        _require_rows(X, root_size, dim)
        fields = {"leaf_size": leaf_size, "leaf_ids": ids, "dirs": dirs, "sizes": sizes,
                  "thresholds": arrays[prefix + "threshold"], "leaf_capacity": leaf_capacity, "dim": dim, "seed": seed}
        forest.append(_rp.RpTree(**fields) if alphas is None else _rp.SpillTree(**fields, alpha=alphas[i]))
    return forest


def _encode_spill_forest(forest):
    meta, arrays = _encode_rp_forest(forest)
    meta["alphas"] = [t.alpha for t in forest]
    return meta, arrays


def _decode_spill_forest(meta, arrays, X) -> list:
    return _decode_rp_forest(meta, arrays, X, _meta(meta, "alphas", [float]))


def _encode_cover(tree: CoverTree):
    """Pre-order (point, level, parent) arrays; a node's children come in
    ascending attach level, each level's in the order they were attached."""
    children: dict = {}  # parent -> [(point, level)]
    for level in sorted(tree.by_level):
        for point, parent in tree.links(level).T.tolist():
            children.setdefault(parent, []).append((point, level))
    points, levels, parents = [], [], []
    root_level = 0 if tree.root_level is None else tree.root_level
    stack = [] if tree.root is None else [(tree.root, root_level, -1)]
    while stack:
        point, level, parent = stack.pop()
        points.append(point)
        levels.append(level)
        parents.append(parent)
        stack.extend((kid, kid_level, len(points) - 1)
                     for kid, kid_level in reversed(children.get(point, ())))
    return {"root_level": tree.root_level, "size": tree.size}, {
        "point": np.array(points, dtype=np.int64),
        "level": np.array(levels, dtype=np.int64),
        "parent": np.array(parents, dtype=np.int64),
    }


def _decode_cover(meta, arrays, X) -> CoverTree:
    point, level, parent = arrays["point"], arrays["level"], arrays["parent"]
    n, size, root_level = point.size, _meta(meta, "size", int), _meta(meta, "root_level", int, optional=True)
    _require(all(a.ndim == 1 and a.size == n and a.dtype.kind in "iu" for a in (point, level, parent)),
             "point, level and parent must be integer arrays of one length")
    _require(size == n, f"size {size} differs from the {n} nodes")
    _require(not n or (parent[0] == -1 and np.all((0 <= parent[1:]) & (parent[1:] < np.arange(1, n)))),
             "parent[0] must be -1 and every other parent an earlier node")
    _require(not n or (0 <= point.min() and point.max() < len(X) and np.unique(point).size == n),
             f"points must be distinct ids in [0, {len(X)})")
    _require(not n or (level[0] == (0 if root_level is None else root_level)
                       and (n == 1 or root_level is not None)),
             "the root's level must be root_level")
    _require(np.all(level[1:] < level[parent[1:]]), "a node's level must be below its parent's")
    _require(not n or level.max() <= 1022, "levels must not exceed 1022, where the radius 2^(level + 1) overflows")
    tree = _cover.CoverTree(X=X, root=int(point[0]) if n else None, root_level=root_level, size=n)
    for i in range(1, n):
        tree.link(int(point[i]), int(point[parent[i]]), int(level[i]))
    return tree


def _encode_lsh(index: LshIndex):
    keys = [key for table in index.tables for key in sorted(table)]
    ids, offsets = _pack_ragged([table[key] for table in index.tables for key in sorted(table)], np.int64)
    meta = {
        "kind": index.family.kind.value,
        "seed": index.family.seed,
        "d": index.family.d,
        "r": index.family.r,
        "ell": index.ell,
        "big_l": index.big_l,
        "eps": index.eps,
        "table_sizes": [len(t) for t in index.tables],
    }
    return meta, {"keys": np.array(keys, dtype=np.uint64), "offsets": offsets, "ids": ids}


def _decode_lsh(meta, arrays, X) -> LshIndex:
    try:
        fam = _lsh.HashFamily(_meta(meta, "kind", _lsh.FamilyKind), seed=_meta(meta, "seed", int),
                              d=_meta(meta, "d", int), r=_meta(meta, "r", float))
    except ValueError as err:  # a bucket width the family refuses
        raise _BadMeta(str(err)) from None
    _require_width(X, fam.d)
    index = _lsh.LshIndex(family=fam, ell=_meta(meta, "ell", int), big_l=_meta(meta, "big_l", int), tables=[],
                          eps=_meta(meta, "eps", float))
    _require(index.ell >= 1 and index.big_l >= 1, "ell and big_l must be at least 1")
    keys, ids, offsets = arrays["keys"], arrays["ids"], arrays["offsets"]
    buckets = _unpack_ragged(ids, offsets)
    sizes = _meta(meta, "table_sizes", [int])
    _require(keys.ndim == 1 and keys.dtype.kind in "iu" and keys.size == len(buckets),
             f"keys must be a 1-D integer array with one key per bucket ({len(buckets)})")
    _require(len(sizes) == index.big_l and min(sizes, default=0) >= 0 and sum(sizes) == len(buckets),
             f"table_sizes must hold {index.big_l} sizes summing to the {len(buckets)} buckets")
    _require(ids.dtype.kind in "iu", "ids must be an integer array")
    starts = np.cumsum([0] + sizes)
    n = int(offsets[starts[1]]) if sizes else 0
    for t, (lo, hi) in enumerate(zip(starts[:-1].tolist(), starts[1:].tolist())):
        _require(np.all(np.diff(keys[lo:hi]) > 0), f"table {t}'s keys must increase")
        members = np.sort(ids[offsets[lo]:offsets[hi]])
        _require(np.array_equal(members, np.arange(n)),
                 f"table {t}'s ids must be a permutation of [0, {n}), as table 0's are")
        index.tables.append(dict(zip(keys[lo:hi].tolist(), buckets[lo:hi])))
    if X is not None:
        _require(n == len(X), f"the tables hold {n} ids, the collection {len(X)}")
    return index


def _encode_graph(graph: NeighborGraph):
    meta = {
        "directed": graph.directed,
        "entry": graph.entry,
        "kind": graph.kind.value,
        "alpha": graph.alpha,
        "degree_cap": graph.degree_cap,
        "construction": graph.construction,
    }
    return meta, {"offsets": graph.offsets, "ids": graph.ids}


def _decode_graph(meta, arrays, X) -> NeighborGraph:
    offsets, ids, entry = arrays["offsets"], arrays["ids"], _meta(meta, "entry", int)
    _require(offsets.ndim == ids.ndim == 1 and offsets.dtype.kind in "iu" and offsets.size
             and offsets[0] == 0 and offsets[-1] == ids.size and np.all(offsets[1:] >= offsets[:-1]),
             f"offsets must run from 0 up to {ids.size} without decreasing")
    n = offsets.size - 1
    _require(ids.dtype.kind in "iu" and (not ids.size or 0 <= ids.min() <= ids.max() < n),
             f"neighbour ids must lie in [0, {n})")
    # ids may fail to rise only where a row starts
    _require(np.isin(np.flatnonzero(ids[1:] <= ids[:-1]) + 1, offsets).all(),
             "each node's neighbour ids must be strictly ascending")
    _require(0 <= entry < n, f"entry {entry} must lie in [0, {n})")
    if X is not None:
        _require(n == len(X), f"the graph has {n} nodes, the collection {len(X)}")
    return _graph.NeighborGraph(
        offsets=offsets.astype(np.int64, copy=False), ids=ids.astype(np.int64, copy=False),
        directed=_meta(meta, "directed", bool),
        entry=entry,
        kind=_meta(meta, "kind", DistanceKind),
        alpha=_meta(meta, "alpha", float, optional=True),
        degree_cap=_meta(meta, "degree_cap", int, optional=True),
        construction=_meta(meta, "construction", str),
    )


def _encode_ivf(index: IvfIndex):
    meta = {
        "kind": index.kind.value,
        "kmeans_kind": index.model.kind.value,
        "objective_trace": index.model.objective_trace,
    }
    return meta, {
        "centroids": index.model.centroids.astype(np.float32),
        "assignment": index.model.assignment.astype(np.int64),
    }


def _decode_ivf(meta, arrays, X) -> IvfIndex:
    centroids, ids = arrays["centroids"], arrays["assignment"]
    _require(centroids.ndim == 2 and centroids.size and centroids.dtype.kind in "iuf"
             and np.all(np.isfinite(centroids)), "centroids must be a non-empty (C, d) matrix of finite numbers")
    C, dim = centroids.shape
    _require(ids.dtype.kind in "iu" and (not ids.size or 0 <= ids.min() <= ids.max() < C),
             f"assignment must hold cluster ids in [0, {C})")
    if X is not None:
        _require(dim == X.dim, f"the centroids have {dim} columns, the collection {X.dim}")
        _require(ids.size == len(X), f"the assignment holds {ids.size} ids, the collection {len(X)}")
    model = _ivf.KMeansModel(
        centroids=centroids,
        assignment=ids,
        objective_trace=_meta(meta, "objective_trace", [float]),
        kind=_meta(meta, "kmeans_kind", _ivf.KMeansKind),
    )
    return _ivf.IvfIndex(model=model, lists=_ivf.inverted_lists(ids, C), kind=_meta(meta, "kind", DistanceKind))


def _encode_pq(cb: PqCodebook):
    meta = {"L": cb.n_subspaces, "C": cb.n_codewords, "d_sub": cb.sub_dim}
    return meta, {"codewords": cb.codewords.astype(np.float32)}


def _codewords(meta, arrays, width: Optional[int] = None) -> np.ndarray:
    """The codewords: a non-empty ``(L, C, width)`` float array of finite
    values, with L and C as meta records them (and any width if None)."""
    cw, L, C = arrays["codewords"], _meta(meta, "L", int), _meta(meta, "C", int)
    _require(cw.ndim == 3 and cw.size and cw.dtype.kind == "f" and cw.shape[:2] == (L, C)
             and (width is None or cw.shape[2] == width) and np.all(np.isfinite(cw)),
             f"codewords must be a non-empty ({L}, {C}, {'d' if width is None else width}) "
             "float array of finite values")
    return cw


def _require_width(X: Optional[Collection], width: int) -> None:
    """With the collection given, require the index's vector width to be
    the collection's."""
    if X is not None:
        _require(width == X.dim, f"the index has width {width}, the collection {X.dim}")


def _decode_pq(meta, arrays, X) -> PqCodebook:
    cw = _codewords(meta, arrays, _meta(meta, "d_sub", int))
    _require_width(X, cw.shape[0] * cw.shape[2])
    return _quant.PqCodebook(codewords=cw)


def _encode_opq(model: OpqModel):
    meta = {"L": model.codebook.n_subspaces, "C": model.codebook.n_codewords}
    return meta, {
        "rotation": model.rotation.astype(np.float32),
        "codewords": model.codebook.codewords.astype(np.float32),
    }


def _decode_opq(meta, arrays, X) -> OpqModel:
    cw, rot = _codewords(meta, arrays), arrays["rotation"]
    d = cw.shape[0] * cw.shape[2]
    _require(rot.shape == (d, d) and rot.dtype.kind == "f" and np.all(np.isfinite(rot)),
             f"rotation must be a ({d}, {d}) float array of finite values, d = L * d_sub")
    _require_width(X, d)
    return _quant.OpqModel(rotation=rot, codebook=_quant.PqCodebook(codewords=cw))


def _encode_aq(cb: AqCodebook):
    meta = {"L": cb.n_codebooks, "C": cb.n_codewords, "beam": cb.beam_width}
    return meta, {"codewords": cb.codewords.astype(np.float32)}


def _decode_aq(meta, arrays, X) -> AqCodebook:
    beam, cw = _meta(meta, "beam", int), _codewords(meta, arrays)
    _require(beam >= 1, f"beam must be at least 1, not {beam}")
    _require_width(X, cw.shape[2])
    return _quant.AqCodebook(codewords=cw, beam_width=beam)


def _encode_wedge(index: WedgeIndex):
    prob, offsets = _pack_ragged([t.prob for t in index.tables], np.float64)
    alias, _ = _pack_ragged([t.alias for t in index.tables], np.int64)
    return {"dim": index.dim}, {
        "dims": index.dims.astype(np.int64),
        "column_sums": index.column_sums.astype(np.float64),
        "prob": prob,
        "alias": alias,
        "lengths": np.diff(offsets),
        "weight_sums": np.array([t.weight_sum for t in index.tables]),
    }


def _decode_wedge(meta, arrays, X) -> WedgeIndex:
    dim, dims, lengths = _meta(meta, "dim", int), arrays["dims"], arrays["lengths"]
    _require(dims.ndim == 1 and dims.dtype.kind in "iu" and np.all((0 <= dims) & (dims < dim))
             and np.all(dims[1:] > dims[:-1]), f"dims must be strictly ascending integers in [0, {dim})")
    _require(lengths.shape == arrays["column_sums"].shape == arrays["weight_sums"].shape == dims.shape,
             f"lengths, column_sums and weight_sums must hold one entry per dim ({dims.size})")
    if X is not None:
        _require(dim == X.dim, f"the index has width {dim}, the collection {X.dim}")
        _require(np.all(lengths == len(X)), f"every table must hold one slot per row of the collection ({len(X)})")
    offsets = np.cumsum([0, *lengths], dtype=np.int64)
    aliases = _unpack_ragged(arrays["alias"], offsets)
    _require(all(np.all((0 <= alias) & (alias < alias.size)) for alias in aliases),
             "each table's alias ids must lie in [0, its length)")
    _require(arrays["prob"].dtype.kind == "f" and np.all((0 <= arrays["prob"]) & (arrays["prob"] <= 1)),
             "prob must hold acceptance probabilities in [0, 1]")
    tables = [_sampling.AliasTable(prob=prob, alias=alias, weight_sum=float(wsum))
              for prob, alias, wsum in zip(_unpack_ragged(arrays["prob"], offsets), aliases, arrays["weight_sums"])]
    return _sampling.WedgeIndex(dims=dims, tables=tables, column_sums=arrays["column_sums"], dim=dim)


def _encode_jl(sketcher: JlSketcher):
    return {"out_dim": sketcher.out_dim, "seed": sketcher.seed}, {}


def _decode_jl(meta, arrays, X) -> JlSketcher:
    return _sketch.JlSketcher(out_dim=_meta(meta, "out_dim", int), seed=_meta(meta, "seed", int))


def _encode_asym_set(sketches):
    nz, nz_offsets = _pack_ragged([() if sk.nz is None else sk.nz for sk in sketches], np.int64)
    buckets = sketches[0].buckets
    meta = {
        "h": sketches[0].h,
        "seed": sketches[0].seed,
        "dims": [sk.dim for sk in sketches],
        "has_nz": [sk.nz is not None for sk in sketches],
        "has_lower": [sk.lower is not None for sk in sketches],
    }
    return meta, {
        "upper": np.stack([sk.upper for sk in sketches]),
        "lower": np.stack([sk.lower if sk.lower is not None else np.zeros(buckets)
                           for sk in sketches]),
        "nz": nz,
        "nz_offsets": nz_offsets,
    }


def _decode_asym_set(meta, arrays, X) -> list:
    nzs = _unpack_ragged(arrays["nz"], arrays["nz_offsets"])
    h, seed = _meta(meta, "h", int), _meta(meta, "seed", int)
    dims = _meta(meta, "dims", [int])
    has_nz, has_lower = _meta(meta, "has_nz", [bool]), _meta(meta, "has_lower", [bool])
    n = len(dims)
    _require(len(has_nz) == len(has_lower) == n, f"has_nz and has_lower must hold one flag per sketch ({n})")
    upper, lower = arrays["upper"], arrays["lower"]
    _require(upper.ndim == 2 and upper.dtype.kind == "f" and upper.shape[0] == n and lower.shape == upper.shape
             and lower.dtype.kind == "f", f"upper and lower must be 2-D float arrays of one shape "
             f"with one row per sketch ({n})")
    _require(len(nzs) == n, f"nz_offsets must hold one part per sketch ({n})")
    return [_sketch.AsymSketch(nz=nzs[i] if has_nz[i] else None, upper=upper[i].copy(),
                       lower=lower[i].copy() if has_lower[i] else None, h=h, seed=seed, dim=dim)
            for i, dim in enumerate(dims)]


def _encode_threshold_set(sketches):
    indices, offsets = _pack_ragged([sk.indices for sk in sketches], np.int64)
    values, _ = _pack_ragged([sk.values for sk in sketches], np.float64)
    meta = {"out_dim": sketches[0].out_dim, "norms": [sk.norm_sq for sk in sketches]}
    return meta, {"indices": indices, "values": values, "offsets": offsets}


def _decode_threshold_set(meta, arrays, X) -> list:
    out_dim, norms = _meta(meta, "out_dim", int), _meta(meta, "norms", [float])
    indices = _unpack_ragged(arrays["indices"], arrays["offsets"])
    _require(len(norms) == len(indices), f"norms must hold one norm per sketch ({len(indices)})")
    return [_sketch.ThresholdSketch(indices=idx, values=vals, norm_sq=norm, out_dim=out_dim)
            for idx, vals, norm in zip(indices, _unpack_ragged(arrays["values"], arrays["offsets"]), norms)]


# ---------------------------------------------------------------------------
# `annkit build` and `annkit query` adapters. Each takes first ``cli``, the
# running CLI module: its flag vocabulary, and pq_train, opq_train,
# pq_encode_all and aq_encode, called through it so that rebinding them
# there reaches every build and query.


def _prepare_pq(cli, cb: PqCodebook, X: Collection):
    return _quant.adc_offsets(cli.pq_encode_all(cb, X), cb.n_codewords)


def _prepare_opq(cli, model: OpqModel, X: Collection):
    rot = model.rotation.astype(np.float64)
    return _prepare_pq(cli, model.codebook,
                       Collection((X.vectors.astype(np.float64) @ rot.T).astype(np.float32)))


def _search_opq(cli, model: OpqModel, X, q, k, args, prepared):
    rq = model.rotation.astype(np.float64) @ np.asarray(q, dtype=np.float64)
    return top_k_from_scores(_quant.pq_adc_scan(_quant.pq_adc(model.codebook, rq), prepared), k)


def _prepare_aq(cli, cb: AqCodebook, X: Collection):
    encode = cli.aq_encode
    codes = [encode(cb, X.vectors[i]) for i in range(len(X))]
    offsets = _quant.adc_offsets(np.stack([c.codes for c in codes]), cb.n_codewords)
    return offsets, np.array([c.norm_sq for c in codes])


def _search_forest(cli, forest, X, q, k, args, prepared):
    return _rp.defeatist_search(forest, X, q, k)


# ---------------------------------------------------------------------------
# the family registry


class _Family(NamedTuple):
    """Everything annkit knows of one container family. Quantizers
    ``prepare`` X once per `annkit query` process, so that every query is
    one table-lookup scan: ADC offsets for PQ and OPQ (X rotated first),
    plus stored norms for AQ."""

    tag: int  # written into every container; never renumber
    module: _Lazy  # the module defining the index object's type, by path in ``module.name``
    type_name: str  # the index object's exact type, by name
    encode: Callable  # obj -> (meta, arrays)
    decode: Callable  # (meta, arrays, X or None) -> obj
    builds: dict  # `annkit build --index` name -> build(cli, X, args)
    search: Optional[Callable] = None  # (cli, obj, X, q, k, args, prepared) -> TopKResult; None: a sketch
    prepare: Callable = lambda cli, obj, X: None  # (cli, obj, X) -> prepared
    listed: bool = False  # the index object is a list or tuple of ``type_name``


_FAMILIES = {
    "kd": _Family(1, _kd, "KdTree", _encode_kd, _decode_kd,
                  {"kd": lambda cli, X, a: _kd.kd_build(X, a.leaf_capacity)},
                  lambda cli, obj, X, q, k, a, p: _kd.kd_search_exact(obj, X, q, k)),
    "rp_forest": _Family(2, _rp, "RpTree", _encode_rp_forest, _decode_rp_forest, {
        "rp": lambda cli, X, a: [_rp.rp_build(X, a.leaf_capacity, seed=a.seed + t) for t in range(a.trees)],
    }, _search_forest, listed=True),
    "spill_forest": _Family(3, _rp, "SpillTree", _encode_spill_forest, _decode_spill_forest, {
        "spill": lambda cli, X, a: [_rp.spill_build(X, a.leaf_capacity, a.overlap, seed=a.seed + t)
                                    for t in range(a.trees)],
    }, _search_forest, listed=True),
    "cover": _Family(4, _cover, "CoverTree", _encode_cover, _decode_cover,
                     {"cover": lambda cli, X, a: _cover.cover_build(X)},
                     lambda cli, obj, X, q, k, a, p: _cover.cover_nn(obj, q, k)),
    "lsh": _Family(5, _lsh, "LshIndex", _encode_lsh, _decode_lsh, {
        "lsh": lambda cli, X, a: _lsh.build_index(
            X, _lsh.HashFamily(_lsh.FamilyKind(a.family), seed=a.seed, d=X.dim, r=a.radius),
            a.ell, a.tables, eps=a.eps),
    }, lambda cli, obj, X, q, k, a, p: _lsh.lsh_topk(obj, X, q, k, cli._KINDS[a.kind])),
    "graph": _Family(6, _graph, "NeighborGraph", _encode_graph, _decode_graph, {
        "knn": lambda cli, X, a: _graph.build_knn_graph(X, a.k, cli._KINDS[a.kind]),
        "sng": lambda cli, X, a: _graph.build_alpha_sng_exact(X, a.alpha),
        "vamana": lambda cli, X, a: _graph.build_vamana(X, alpha=a.alpha, cap=a.degree,
                                                        beam=a.beam or 2 * a.degree, seed=a.seed),
    }, lambda cli, obj, X, q, k, a, p: _graph.greedy_search(
        obj, X, q, k, entry=None if a.entry < 0 else a.entry, beam=a.beam)[0]),
    "ivf": _Family(7, _ivf, "IvfIndex", _encode_ivf, _decode_ivf, {
        "ivf": lambda cli, X, a: _ivf.build_ivf(X, cli._clusters(a), cli._KINDS[a.kind], max_iters=a.iters,
                                                seed=a.seed),
    }, lambda cli, obj, X, q, k, a, p: _ivf.ivf_search(obj, X, q, k, a.ell or max(1, obj.model.n_clusters // 10))),
    "pq": _Family(8, _quant, "PqCodebook", _encode_pq, _decode_pq,
                  {"pq": lambda cli, X, a: cli.pq_train(X, a.subspaces, a.codewords, seed=a.seed)},
                  lambda cli, obj, X, q, k, a, p: top_k_from_scores(_quant.pq_adc_scan(_quant.pq_adc(obj, q), p), k),
                  _prepare_pq),
    "opq": _Family(9, _quant, "OpqModel", _encode_opq, _decode_opq, {
        "opq": lambda cli, X, a: cli.opq_train(X, a.subspaces, a.codewords, iters=a.iters, seed=a.seed),
    }, _search_opq, _prepare_opq),
    "aq": _Family(10, _quant, "AqCodebook", _encode_aq, _decode_aq, {
        "aq": lambda cli, X, a: _quant.aq_train(X, a.codebooks, a.codewords, beam=a.beam or a.codebooks,
                                                iters=a.iters, seed=a.seed)[0],
    }, lambda cli, obj, X, q, k, a, p: top_k_from_scores(_quant.aq_adc_scan(obj, q, *p), k), _prepare_aq),
    "wedge": _Family(11, _sampling, "WedgeIndex", _encode_wedge, _decode_wedge,
                     {"wedge": lambda cli, X, a: _sampling.build_wedge_index(X)},
                     lambda cli, obj, X, q, k, a, p: _sampling.wedge_topk(
                         obj, X, q, samples=a.samples, k=k, k_prime=a.k_prime, seed=a.seed)),
    "jl": _Family(12, _sketch, "JlSketcher", _encode_jl, _decode_jl, {}),
    "asym_set": _Family(13, _sketch, "AsymSketch", _encode_asym_set, _decode_asym_set, {}, listed=True),
    "threshold_set": _Family(14, _sketch, "ThresholdSketch", _encode_threshold_set, _decode_threshold_set, {},
                             listed=True),
}
_NAME_OF_TAG = {f.tag: name for name, f in _FAMILIES.items()}
_NAME_OF_TYPE = {(f.module.name, f.type_name, f.listed): name for name, f in _FAMILIES.items()}


def family_of(obj) -> str:
    """The container family name of an index object, matched on its exact
    type's module and name, or its first element's for a forest or sketch
    set; no family module is imported."""
    listed = isinstance(obj, (list, tuple)) and bool(obj)
    cls = type(obj[0]) if listed else type(obj)
    key = (cls.__module__, cls.__qualname__, listed)
    if key not in _NAME_OF_TYPE:
        raise TypeError(f"no container encoding for {type(obj).__name__}")
    return _NAME_OF_TYPE[key]


def save_index(path, obj) -> None:
    family = _FAMILIES[family_of(obj)]
    meta, arrays = family.encode(obj)
    with open(path, "wb") as fh:
        _write_blob(fh, family.tag, meta, arrays)


def load_index(path, X: Optional[Collection] = None):
    """Load an index; tree families that keep the collection inside
    (cover trees) need ``X`` supplied."""
    family, meta, arrays = _read_blob(path)
    if family == "cover" and X is None:
        raise ValueError(f"{path}: cover tree loading requires the collection")
    try:
        return _FAMILIES[family].decode(meta, arrays, X)
    except KeyError as err:  # a well-framed file whose meta or arrays do not fit its family
        raise ValueError(f"{path}: malformed {family} container: missing {err}") from None
    except _BadMeta as err:
        raise ValueError(f"{path}: malformed {family} container: {err}") from None
