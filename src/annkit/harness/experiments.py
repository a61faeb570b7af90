"""Experiment runners: self-coincidence under MIPS, distance instability
across dimensions, and the recall-vs-cost benchmark loop."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from annkit.core import Collection, DistanceKind, brute_force_topk, recall
from annkit.harness.synth import Distribution, SyntheticSpec, generate, generate_queries

__all__ = [
    "ExperimentReport",
    "experiment_coincidence",
    "experiment_instability",
    "benchmark",
]


@dataclass
class ExperimentReport:
    columns: list
    rows: list = field(default_factory=list)

    def add(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError("row width does not match columns")
        self.rows.append(tuple(values))

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def to_csv(self) -> str:
        def fmt(v) -> str:
            if isinstance(v, (float, np.floating)):
                return repr(float(v))
            return str(v)

        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(fmt(v) for v in row))
        return "\n".join(lines) + "\n"


def self_coincidence_fraction(X: Collection, block: int = 1024) -> float:
    """Fraction of data points that win their own MIPS query.

    A point wins when no other point has a strictly larger inner product
    with it, and no point with a smaller id ties it (the oracle tie rule).
    """
    mat = X.vectors.astype(np.float64)
    m = len(X)
    wins = 0
    for start in range(0, m, block):
        rows = mat[start:start + block]
        gram = rows @ mat.T
        for i in range(rows.shape[0]):
            gid = start + i
            row = gram[i]
            # all comparisons stay inside one gram row so identical values
            # cannot diverge by accumulation order
            if np.flatnonzero(row == row.max())[0] == gid:
                wins += 1
    return wins / m


def experiment_coincidence(
    distribution: Distribution, m: int, dims: Sequence[int], seed: int
) -> ExperimentReport:
    """Per dimensionality: use every data point as a MIPS query over the
    collection and report the fraction that answer their own query."""
    report = ExperimentReport(columns=["distribution", "m", "d", "coincidence_fraction"])
    for d in dims:
        X = generate(SyntheticSpec(distribution=distribution, m=m, d=d, seed=seed))
        report.add(distribution.value, m, d, self_coincidence_fraction(X))
    return report


def experiment_instability(
    distribution: Distribution,
    m: int,
    dims: Sequence[int],
    n_queries: int,
    seed: int,
    eps: float = 0.1,
) -> ExperimentReport:
    """Per dimensionality: ratio of the farthest to the nearest data point
    for independent queries (mean and sd), plus the fraction of points
    inside the (1+eps)-enlarged nearest-neighbor ball."""
    report = ExperimentReport(
        columns=["distribution", "m", "d", "n_queries", "ratio_mean", "ratio_sd", "frac_within_eps"]
    )
    for d in dims:
        spec = SyntheticSpec(distribution=distribution, m=m, d=d, seed=seed)
        X = generate(spec)
        queries = generate_queries(spec, n_queries)
        mat = X.vectors.astype(np.float64)
        sq_norms = np.einsum("ij,ij->i", mat, mat)
        ratios = np.empty(n_queries)
        fracs = np.empty(n_queries)
        for i in range(n_queries):
            q = queries[i].astype(np.float64)
            d2 = np.maximum(sq_norms - 2.0 * (mat @ q) + q @ q, 0.0)
            dists = np.sqrt(d2)
            nearest, farthest = dists.min(), dists.max()
            ratios[i] = farthest / nearest if nearest > 0 else 1.0
            fracs[i] = np.mean(dists <= (1.0 + eps) * nearest)
        report.add(distribution.value, m, d, n_queries,
                   float(ratios.mean()), float(ratios.std()), float(fracs.mean()))
    return report


def benchmark(
    name: str,
    X: Collection,
    queries: np.ndarray,
    k: int,
    kind: DistanceKind,
    sweep: Sequence,
    run_query: Callable,
    timings: bool = False,
) -> ExperimentReport:
    """Recall-vs-cost sweep: ``run_query(param, q) -> (TopKResult, cost)``
    where cost counts candidate distance evaluations. A cost that takes
    work to count, such as routing the query again, is passed as a
    zero-argument callable and evaluated after the clock stops.

    Wall-clock milliseconds (``run_query`` calls only) are reported only
    when ``timings`` is set, so default reports stay byte-reproducible.
    """
    columns = ["index", "param", "k", "recall_mean", "dist_evals_mean"]
    if timings:
        columns.append("wall_ms")
    report = ExperimentReport(columns=columns)
    oracles = [brute_force_topk(X, q, k, kind) for q in queries]
    for param in sweep:
        recalls = []
        costs = []
        elapsed_ms = 0.0
        for q, oracle in zip(queries, oracles):
            t0 = time.perf_counter()
            result, cost = run_query(param, q)
            elapsed_ms += (time.perf_counter() - t0) * 1000.0
            recalls.append(recall(oracle, result, k))
            costs.append(cost() if callable(cost) else cost)
        row = [name, param, k, float(np.mean(recalls)), float(np.mean(costs))]
        if timings:
            row.append(elapsed_ms)
        report.add(*row)
    return report
