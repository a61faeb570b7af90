#!/usr/bin/env python3
"""Time each query-clustered family's queries one by one, and check their
pinned answers.

Six rows, one per family of the query-clustered benchmark, at its shape:
20000 x 64 rows of its Gaussian mixture (50 unit-variance components,
centres N(0, 1.5^2 I), Dirichlet(2) weights, data seed 1) and held-out
queries from the same mixture, k = 10:

* ``brute``: ``brute_force_topk`` under squared L2, 1000 queries;
* ``ivf``: ``ivf_search`` probing 4 lists of ``build_ivf(X, 0,
  max_iters=20, seed=1)``, 4000 queries;
* ``rp``: ``defeatist_search`` over 8 RP trees of leaf capacity 128
  (seeds 100..107), 3000 queries;
* ``lsh``: ``lsh_topk`` under squared L2 over 16 hyperplane tables of 8
  bits (family seed 7), 1000 queries;
* ``kd``: ``kd_search_exact`` on a k-d tree of leaf capacity 32, 60
  queries;
* ``boundedme``: ``boundedme_topk`` with eps = delta = 0.9 and seed 3,
  120 queries.

Each index is built once, untimed; ``--only`` runs and builds only the
named families. Every query is timed on its own; a row reports the
median over all repeats (``p50_ms``) and each repeat's median. Every
answer's ``(ids, scores)`` bytes are hashed in query order and compared
with a pinned digest; a mismatch fails the run.
Results are merged into ``BENCH_queries.json`` at the repository root
under ``--label`` and the family's name, so that runs of two source trees
on one machine sit side by side:

    PYTHONPATH=src python scripts/bench_queries.py --label after

``--check`` answers every family's queries once, compares the digests
and writes nothing; the exit code is 1 if any digest differs:

    PYTHONPATH=src python scripts/bench_queries.py --check

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
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from annkit import ivf, lsh, sampling, trees  # noqa: E402
from annkit.core import Collection, DistanceKind, brute_force_topk  # noqa: E402

K = 10
COUNTS = {"brute": 1000, "ivf": 4000, "rp": 3000, "lsh": 1000, "kd": 60, "boundedme": 120}

# family -> sha256 of its answers' (ids, scores) bytes, in query order
PINNED = {
    "brute": "db37906af52fd69cb5c264e008216dc8f022613d412ad9cdb53087a83eac92ab",
    "ivf": "b6adcbfab3c1f3965ccae968af6bc5904cb9136920ce09676388eeb8bf188394",
    "rp": "b7a7aee1446f06eb05237e27ea96609909633b2cbdebfb6f656344b6340ecae2",
    "lsh": "d5ba5df7966f84f7ca4288f706bafaedce7859e93078ee62fc0715cdd167bc0e",
    "kd": "13a0006d6b3beac639e2128ceb7b508056ca716c840ff6302ce830c460681d6c",
    "boundedme": "dfc932a50afe11833facdc17e339db8babc6af6b5c62c99b883c8b6253dcc224",
}


def mixture(seed: int, m: int, n_queries: int) -> tuple[np.ndarray, np.ndarray]:
    """The query-clustered benchmark's data and queries for ``seed``."""
    rng = np.random.default_rng([seed, 0x51C])
    centres = rng.standard_normal((50, 64)) * 1.5
    weights = rng.dirichlet(np.full(50, 2.0))

    def draw(n):
        comp = rng.choice(50, size=n, p=weights)
        return (centres[comp] + rng.standard_normal((n, 64))).astype(np.float32)

    return draw(m), draw(n_queries)


def families(X: Collection, names) -> dict:
    """family -> one query's search, for each family in ``names``; only
    their indexes are built, here."""
    l2 = DistanceKind.L2_SQUARED

    def search(name):
        if name == "brute":
            return lambda q: brute_force_topk(X, q, K, l2)
        if name == "ivf":
            index = ivf.build_ivf(X, 0, max_iters=20, seed=1)
            return lambda q: ivf.ivf_search(index, X, q, K, 4)
        if name == "rp":
            forest = [trees.rp_build(X, 128, seed=100 + t) for t in range(8)]
            return lambda q: trees.defeatist_search(forest, X, q, K)
        if name == "lsh":
            tables = lsh.build_index(X, lsh.HashFamily(lsh.FamilyKind.HYPERPLANE, seed=7, d=X.dim), 8, 16)
            return lambda q: lsh.lsh_topk(tables, X, q, K, l2)
        if name == "kd":
            kd = trees.kd_build(X, 32)
            return lambda q: trees.kd_search_exact(kd, X, q, K)
        return lambda q: sampling.boundedme_topk(X, q, K, eps=0.9, delta=0.9, seed=3)[0]  # boundedme

    return {name: search(name) for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", help="key of this run in the output file")
    parser.add_argument("--check", action="store_true",
                        help="only compare every digest with its pin; write nothing")
    parser.add_argument("--repeats", type=int, help="repeats per family (default 3, 1 with --check)")
    parser.add_argument("--only", action="append", choices=list(COUNTS),
                        help="run and build only the named family (repeatable)")
    args = parser.parse_args(argv)
    if args.check == bool(args.label):
        parser.error("give exactly one of --label and --check")
    if args.repeats is None:
        args.repeats = 1 if args.check else 3
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    X32, Q32 = mixture(1, 20000, max(COUNTS.values()))
    X = Collection(X32)
    results, ok = {}, True
    for name, search in families(X, [name for name in COUNTS if name in (args.only or COUNTS)]).items():
        queries = Q32[:COUNTS[name]]
        medians, seconds = [], []
        for _ in range(args.repeats):
            times, digest = [], hashlib.sha256()
            for q in queries:
                t0 = time.perf_counter()
                res = search(q)
                times.append(time.perf_counter() - t0)
                digest.update(res.ids.tobytes() + res.scores.tobytes())
            medians.append(1000.0 * statistics.median(times))
            seconds += times
        got = digest.hexdigest()
        match = got == PINNED[name]
        ok &= match
        results[name] = {"p50_ms": round(1000.0 * statistics.median(seconds), 4),
                         "p50_ms_per_repeat": [round(v, 4) for v in medians],
                         "queries": len(queries), "repeats": args.repeats,
                         "digests_match": match, "sha256": got}
        print(f"{name}: p50 {results[name]['p50_ms']:.3f} ms over {args.repeats} x {len(queries)} "
              f"queries, digest {'matches' if match else 'DIFFERS'}", flush=True)

    if args.check:
        return 0 if ok else 1
    out_path = Path(__file__).resolve().parent.parent / "BENCH_queries.json"
    doc = json.loads(out_path.read_text()) if out_path.exists() else {}
    run = doc.setdefault("runs", {}).setdefault(args.label, {})
    run["machine"] = {"cpus": os.cpu_count(), "machine": platform.machine(),
                      "python": platform.python_version(), "numpy": np.__version__,
                      "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}
    run.setdefault("families", {}).update(results)
    out_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
