#!/usr/bin/env python3
"""Time graph, cover-tree and k-means construction, and cover-tree search,
and check their pinned outputs.

Ten rows, each repeated:

* ``vamana-build-gaussian``: ``build_vamana`` at the build-gaussian
  benchmark's shape (5000 x 64 iid Gaussian rows, alpha 1.2, degree cap 16,
  build beam 32, 2 passes, data of benchmark seed 1);
* ``vamana-criterion-07``: ``build_vamana`` at acceptance criterion 07's
  shape (5000 x 32, alpha 1.2, cap 32, beam 64, its first seed);
* ``sng-300x8`` and ``sng-1500x32``: ``build_alpha_sng_exact`` at alpha 1.2
  over acceptance criterion 06's data (300 x 8 Gaussian rows, seed 601) and
  over 1500 x 32 Gaussian rows (seed 1500);
* ``cover-2000x64``: ``cover_build`` over the first 2000 rows of the
  build-gaussian data;
* ``cover-nn-2000x64``: ``cover_nn`` top-10 for the build-gaussian
  benchmark's 300 cover queries over that tree, built once untimed;
* ``pq-cli-files``, ``opq-cli-files`` and ``ivf-cli-files``: ``pq_train``,
  ``opq_train`` and ``build_ivf`` with the cli-files benchmark's build flags
  (10000 x 64 rows of ``annkit generate --dist gaussian --seed 0``, 32
  subspaces of 16 codewords, 10 OPQ iterations, ``--clusters auto`` with 10
  Lloyd iterations, build seed 0);
* ``ivf-query-clustered``: ``build_ivf`` at the query-clustered benchmark's
  shape (20000 x 64 rows of its Gaussian mixture, data seed 1, C = 142, 20
  Lloyd iterations, build seed 1).

Every row's output is hashed (the sized adjacency rows and the ``.akx``
bytes for graphs, the ``(id, score)`` answers for the cover search, the
``.akx`` bytes for the rest) and compared with pinned digests; a mismatch
fails the run. The Vamana digests are pinned from the batch build, the
SNG digests from the single-node prune with certified Gram blocks, the
others from the per-cluster Lloyd loop and the cover search over node
dicts; every ``.akx`` digest from the container that stores each integer
array at its narrowest width. Beside each ``.akx`` digest goes the file's
size in bytes, ``akx_bytes``, and beside a Vamana graph's digests its recall@10
for 300 Gaussian queries (the build-gaussian benchmark's first 300, or
seed 800 at criterion 07's shape), searched by ``greedy_search`` at beam
64.
Results are merged into ``BENCH_construction.json`` at the repository root
under ``--label`` and the build's name, so that runs of two source trees on
one machine sit side by side, and builds of the two can be run in turn:

    PYTHONPATH=src python scripts/bench_construction.py --label after

``--check`` builds every row once, compares the digests and writes
nothing; the exit code is 1 if any digest differs:

    PYTHONPATH=src python scripts/bench_construction.py --check

BLAS is pinned to one thread unless the environment says otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from annkit.core import Collection, DistanceKind, brute_force_topk, recall  # noqa: E402
from annkit.graph import build_alpha_sng_exact, build_vamana, greedy_search  # noqa: E402
from annkit.harness.container import save_index  # noqa: E402
from annkit.ivf import build_ivf  # noqa: E402
from annkit.quant import opq_train, pq_train  # noqa: E402
from annkit.trees import cover_build, cover_nn  # noqa: E402

# row -> the sha256 digests of its output: for builds, of the sized
# adjacency rows (graphs only) and of the .akx file; for searches, of the
# answers
PINNED = {
    "vamana-build-gaussian": (
        "7b83f301930e98ea466bc6504e0cdef791fd49e0bd92019a48c32082fa126047",
        "c79842d4974a0a0b2b4a816867ec69e9a83a2a70bed0da97a6e2c6f4865de936"),
    "vamana-criterion-07": (
        "cce9d258f048385172e7e2795478bb685a68e67fd58db187cca8d6196dd83cbe",
        "5745c8f1c27df167171328b2c846c1ff38abde1e7d8ec6cad9cab68096b286e1"),
    "sng-300x8": (
        "99b1aadb71d043023f69ca890e5a80dca056ef7d77bf70067094e8a0c5e3fc61",
        "7d3f6a74afd82ca1191a7b576983b91c0be56a15bf473e9b59f785464bba0bea"),
    "sng-1500x32": (
        "d586a5c6aac1b8f98d85945f2d65522ab0d3b8fcdd55142a82890fe9fa4161ee",
        "d76a9320b12a944994a07c9df09a414c9b6ed8ab375d91559b641df723ee6d32"),
    "cover-2000x64": (
        None,
        "55a0eae9ac1432e3377bdcec1526eec821c5cea2b21f3b340336565500e0830f"),
    "cover-nn-2000x64": (
        "cf37af0f9ca18bdf6bf2c0454db396aa20a21eb277590287dd936100f31160fd",),
    "pq-cli-files": (
        None,
        "59e57501e877fa3f20701f97341142a716ca58164a17774f6f33fb9e1597cfa9"),
    "opq-cli-files": (
        None,
        "6c167d50b77f9b6d82b68f8d1e099f56973a1f3695695bcd57e9f6f8a38cd46b"),
    "ivf-cli-files": (
        None,
        "c0921743bd223eddc17ced477d5b0028511757c441d49bb70e770d8d011ba251"),
    "ivf-query-clustered": (
        None,
        "4198fb8c0fc8dc9581ac2bcaf90cc463cb684d1e699f9e9d4fb3a1ce2e79544a"),
}


def gaussian_rows(seed, m: int, d: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((m, d)).astype(np.float32)


def mixture_rows(seed: int, m: int) -> np.ndarray:
    """The query-clustered benchmark's data: 50 unit-variance Gaussian
    components in 64 dimensions, centres N(0, 1.5^2 I), Dirichlet(2) weights."""
    rng = np.random.default_rng([seed, 0x51C])
    centres = rng.standard_normal((50, 64)) * 1.5
    weights = rng.dirichlet(np.full(50, 2.0))
    comp = rng.choice(50, size=m, p=weights)
    return (centres[comp] + rng.standard_normal((m, 64))).astype(np.float32)


def adjacency_sha256(G) -> str:
    """sha256 of the graph's rows in order, each as its int64 size followed
    by its int64 ids."""
    sized = np.insert(G.ids, G.offsets[:-1], np.diff(G.offsets))
    return hashlib.sha256(sized.astype(np.int64).tobytes()).hexdigest()


def akx_sha256(obj, workdir: Path) -> tuple[str, int]:
    """The sha256 digest and the size in bytes of ``obj``'s .akx file."""
    path = workdir / "index.akx"
    save_index(path, obj)
    raw = path.read_bytes()
    path.unlink()
    return hashlib.sha256(raw).hexdigest(), len(raw)


# each *_digests(output, workdir) returns (its digests, its .akx size or None)
def graph_digests(G, workdir: Path) -> tuple:
    digest, size = akx_sha256(G, workdir)
    return (adjacency_sha256(G), digest), size


def index_digests(obj, workdir: Path) -> tuple:
    digest, size = akx_sha256(obj, workdir)
    return (None, digest), size


def answers_digests(answers, workdir: Path) -> tuple:
    digest = hashlib.sha256()
    for res in answers:
        digest.update(res.ids.tobytes() + res.scores.tobytes())
    return (digest.hexdigest(),), None


def graph_recall(G, X, queries) -> float:
    """Mean recall@10 of ``greedy_search`` at beam 64 over ``queries``."""
    return float(np.mean([recall(brute_force_topk(X, q, 10, DistanceKind.L2_SQUARED),
                                 greedy_search(G, X, q, 10, beam=64)[0], 10) for q in queries]))


def rows():
    """name -> (untimed set-up, the timed run over what it returns, the
    digests of the run's output, and for graphs the queries of its recall)."""
    rng = np.random.default_rng([1, 0xB6])  # build-gaussian's rows, then its queries
    bg = rng.standard_normal((5000, 64)).astype(np.float32)
    bq = rng.standard_normal((2000, 64)).astype(np.float32)[:300]
    c07 = Collection(gaussian_rows(700, 5000, 32))
    c07q = gaussian_rows(800, 300, 32)
    c06 = Collection(gaussian_rows(601, 300, 8))
    s1500 = Collection(gaussian_rows(1500, 1500, 32))
    cf = Collection(gaussian_rows(0, 10000, 64))
    qc = Collection(mixture_rows(1, 20000))
    return {
        "vamana-build-gaussian": (
            lambda: Collection(bg),
            lambda X: build_vamana(X, alpha=1.2, cap=16, beam=32, seed=5, passes=2), graph_digests, bq),
        "vamana-criterion-07": (
            lambda: c07, lambda X: build_vamana(X, alpha=1.2, cap=32, beam=64, seed=0), graph_digests, c07q),
        "sng-300x8": (lambda: c06, lambda X: build_alpha_sng_exact(X, 1.2), graph_digests, None),
        "sng-1500x32": (lambda: s1500, lambda X: build_alpha_sng_exact(X, 1.2), graph_digests, None),
        "cover-2000x64": (lambda: Collection(bg[:2000]), cover_build, index_digests, None),
        "cover-nn-2000x64": (
            lambda: cover_build(Collection(bg[:2000])),
            lambda tree: [cover_nn(tree, q, 10) for q in bq], answers_digests, None),
        "pq-cli-files": (lambda: cf, lambda X: pq_train(X, 32, 16, seed=0), index_digests, None),
        "opq-cli-files": (lambda: cf, lambda X: opq_train(X, 32, 16, iters=10, seed=0), index_digests, None),
        "ivf-cli-files": (lambda: cf, lambda X: build_ivf(X, 0, max_iters=10, seed=0), index_digests, None),
        "ivf-query-clustered": (lambda: qc, lambda X: build_ivf(X, 0, max_iters=20, seed=1), index_digests, None),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", help="key of this run in the output file")
    parser.add_argument("--check", action="store_true",
                        help="only compare every digest with its pin; write nothing")
    parser.add_argument("--repeats", type=int, help="repeats per row (default 3, 1 with --check)")
    parser.add_argument("--only", action="append", help="run only the named row (repeatable)")
    args = parser.parse_args(argv)
    if args.check == bool(args.label):
        parser.error("give exactly one of --label and --check")
    if args.repeats is None:
        args.repeats = 1 if args.check else 3
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    results, ok = {}, True
    with tempfile.TemporaryDirectory() as tmp:
        for name, (setup, run, digests, queries) in rows().items():
            if args.only and name not in args.only:
                continue
            given, seconds = setup(), []
            for _ in range(args.repeats):
                t0 = time.perf_counter()
                out = run(given)
                seconds.append(time.perf_counter() - t0)
            got, akx_bytes = digests(out, Path(tmp))
            match = got == PINNED[name]
            ok &= match
            results[name] = {"median_s": round(statistics.median(seconds), 3),
                             "seconds": [round(s, 3) for s in seconds], "repeats": args.repeats,
                             "digests_match": match, "sha256": got}
            if akx_bytes is not None:
                results[name]["akx_bytes"] = akx_bytes
            quality = ""
            if queries is not None and not args.check:
                results[name]["recall_at_10"] = round(graph_recall(out, given, queries), 4)
                quality = f", recall@10 {results[name]['recall_at_10']:.4f}"
            print(f"{name}: median {statistics.median(seconds):.3f} s over {args.repeats}, "
                  f"digests {'match' if match else 'DIFFER'}{quality}", flush=True)

    if args.check:
        return 0 if ok else 1
    out_path = Path(__file__).resolve().parent.parent / "BENCH_construction.json"
    doc = json.loads(out_path.read_text()) if out_path.exists() else {}
    run = doc.setdefault("runs", {}).setdefault(args.label, {})
    run["machine"] = {"cpus": os.cpu_count(), "machine": platform.machine(),
                      "python": platform.python_version(), "numpy": np.__version__,
                      "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}
    run.setdefault("builds", {}).update(results)
    out_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
