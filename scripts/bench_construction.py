#!/usr/bin/env python3
"""Time graph and cover-tree construction and check their pinned outputs.

Three builds, each repeated:

* ``vamana-build-gaussian``: ``build_vamana`` at the build-gaussian
  benchmark's shape (5000 x 64 iid Gaussian rows, alpha 1.2, degree cap 16,
  build beam 32, 2 passes, data of benchmark seed 1);
* ``vamana-criterion-07``: ``build_vamana`` at acceptance criterion 07's
  shape (5000 x 32, alpha 1.2, cap 32, beam 64, its first seed);
* ``cover-2000x64``: ``cover_build`` over the first 2000 rows of the
  build-gaussian data.

Every build's output is hashed (the sized adjacency rows and the ``.akx``
bytes for graphs, the ``.akx`` bytes for the cover tree) and compared with
digests pinned from the row-by-row construction; a mismatch fails the run.
Results are merged into ``BENCH_construction.json`` at the repository root
under ``--label`` and the build's name, so that runs of two source trees on
one machine sit side by side, and builds of the two can be run in turn:

    PYTHONPATH=src python scripts/bench_construction.py --label after

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

from annkit.core import Collection  # noqa: E402
from annkit.graph import build_vamana  # noqa: E402
from annkit.harness.container import save_index  # noqa: E402
from annkit.trees import cover_build  # noqa: E402

# build -> (sha256 of the sized adjacency rows, sha256 of the .akx file);
# the cover tree has no adjacency digest
PINNED = {
    "vamana-build-gaussian": (
        "2be7f04e60b9b0427464db1e20d045e2054c52f66586f935c689c40d2bfd45c1",
        "c61f293f8175473e725f64f2bae9bf5c2c0297deba410caffe1a90647835d194"),
    "vamana-criterion-07": (
        "4b16ba610ab3b18678ae4f0682ea5e2081201c5ba901232f1cdc9e3d856aa34c",
        "cf2577f58e1f08dfb906cd9ce46a0e428a8939edd8051eb7d1ed017441877439"),
    "cover-2000x64": (
        None,
        "466ece105a9d74f5e04477e68de75c7ae653b535ce085a9972fe2529ce794021"),
}


def gaussian_rows(seed, m: int, d: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((m, d)).astype(np.float32)


def adjacency_sha256(G) -> str:
    digest = hashlib.sha256()
    for row in G.adjacency:
        digest.update(np.int64(row.size).tobytes() + row.astype(np.int64).tobytes())
    return digest.hexdigest()


def akx_sha256(obj, workdir: Path) -> str:
    path = workdir / "index.akx"
    save_index(path, obj)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    path.unlink()
    return digest


def builds():
    """name -> (zero-argument build, whether it makes a graph)."""
    bg = gaussian_rows([1, 0xB6], 5000, 64)
    c07 = Collection(gaussian_rows(700, 5000, 32))
    return {
        "vamana-build-gaussian": (
            lambda: build_vamana(Collection(bg), alpha=1.2, cap=16, beam=32, seed=5, passes=2), True),
        "vamana-criterion-07": (
            lambda: build_vamana(c07, alpha=1.2, cap=32, beam=64, seed=0), True),
        "cover-2000x64": (lambda: cover_build(Collection(bg[:2000])), False),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="key of this run in the output file")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--only", action="append", help="run only the named build (repeatable)")
    args = parser.parse_args(argv)

    results, ok = {}, True
    with tempfile.TemporaryDirectory() as tmp:
        for name, (build, is_graph) in builds().items():
            if args.only and name not in args.only:
                continue
            seconds = []
            for _ in range(args.repeats):
                t0 = time.perf_counter()
                out = build()
                seconds.append(time.perf_counter() - t0)
            got = (adjacency_sha256(out) if is_graph else None, akx_sha256(out, Path(tmp)))
            match = got == PINNED[name]
            ok &= match
            results[name] = {"median_s": round(statistics.median(seconds), 3),
                             "seconds": [round(s, 3) for s in seconds], "repeats": args.repeats,
                             "digests_match": match, "sha256": got}
            print(f"{name}: median {statistics.median(seconds):.3f} s over {args.repeats}, "
                  f"digests {'match' if match else 'DIFFER'}", flush=True)

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
