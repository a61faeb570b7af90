"""Outside reference for the k-d path: scipy's cKDTree on query-clustered data.

Usage, from the repository root:

    python3 perfbench/reference.py [--seed 1]

Builds ``scipy.spatial.cKDTree`` over query-clustered's data (leaf size
32, as the benchmark's k-d tree) and answers the k-d family's queries
exactly, checking the ids against the numpy oracle. It prints build and
query seconds next to annkit's ``kd_build`` / ``kd_search_exact`` on the
same inputs. Not part of the benchmark command; the README quotes it.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402
from scipy.spatial import cKDTree  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    from annkit.core import Collection
    from annkit.trees import kd_build, kd_search_exact

    n = workloads.QC_COUNTS["kd"]
    X32, Q32 = workloads.mixture(args.seed, workloads.QC_M, n)
    truth, _ = oracle.exact_topk(X32, Q32, workloads.K, oracle.L2)
    X = Collection(X32)

    t0 = time.perf_counter()
    tree = cKDTree(X32.astype(np.float64), leafsize=workloads.QC_KD_LEAF)
    scipy_build = time.perf_counter() - t0
    t0 = time.perf_counter()
    _, scipy_ids = tree.query(Q32.astype(np.float64), k=workloads.K)
    scipy_query = time.perf_counter() - t0

    t0 = time.perf_counter()
    kd = kd_build(X, workloads.QC_KD_LEAF)
    annkit_build = time.perf_counter() - t0
    t0 = time.perf_counter()
    annkit_ids = np.stack([kd_search_exact(kd, X, q, workloads.K).ids for q in Q32])
    annkit_query = time.perf_counter() - t0

    # cKDTree breaks distance ties its own way; the data has none in practice
    print(f"queries {n}, m {workloads.QC_M}, d {workloads.QC_D}, k {workloads.K}, seed {args.seed}")
    print(f"cKDTree  build {scipy_build:.4f} s  query {scipy_query:.4f} s  "
          f"ids match oracle: {np.array_equal(scipy_ids, truth)}")
    print(f"annkit kd build {annkit_build:.4f} s  query {annkit_query:.4f} s  "
          f"ids match oracle: {np.array_equal(annkit_ids, truth)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
