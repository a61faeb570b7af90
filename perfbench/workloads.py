"""The benchmark's three workloads.

Each workload has a ``setup`` (inputs plus the numpy reference answers,
run ``setup_repeats`` times; the median is ``setup_s``) and a ``measure`` that builds every index and answers
the fixed query set once, checking every answer. ``measure`` returns a
:class:`Round`; in a traced run it also fills ``Round.layers`` with the
per-layer metrics read from the tracer's spans.

Query counts are fixed per family so that, at the commit that introduced
this benchmark, each family took a similar share of ``query_s``; see the
README for the numbers behind them.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD_SITE = Path(__file__).resolve().parent / "childsite"
K = 10


@dataclass
class Round:
    build_s: float = 0.0
    query_s: float = 0.0
    # approximate family -> mean recall@10. Exact families (brute force,
    # k-d, cover) are left out: an answer of theirs that differs from the
    # oracle's already fails its check.
    recalls: dict = field(default_factory=dict)
    index_bytes: int = 0
    peak_rss_mb: float = 0.0  # cli-files only: the largest child process
    attempted: int = 0
    failed: int = 0
    layers: dict = field(default_factory=dict)  # per-layer metric -> value

    def check(self, ok: bool) -> None:
        """Count one operation and whether its output was correct."""
        self.attempted += 1
        self.failed += 0 if ok else 1

    @property
    def recall_at_10(self) -> float:
        return statistics.fmean(self.recalls.values())


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def answer_all(tracer, span: str, fn, queries) -> tuple[float, list]:
    """Answer every query in order; returns (total seconds, answers)."""
    answers = []
    t0 = time.perf_counter()
    for q in queries:
        with tracer.span(span):
            answers.append(fn(q))
    return time.perf_counter() - t0, answers


def ms(seconds) -> float:
    return 1000.0 * seconds


def median_ms(values) -> float:
    return ms(statistics.median(values)) if values else 0.0


def p99_ms(values) -> float:
    """99th percentile; asked for only where a family answers >= 1000 queries."""
    return ms(float(np.percentile(values, 99))) if values else 0.0


def file_bytes(path) -> int:
    return os.path.getsize(path)


def partition_ok(groups, m: int) -> bool:
    """The id groups of an index cover 0..m-1 exactly once."""
    flat = np.concatenate([np.asarray(g, dtype=np.int64) for g in groups])
    return flat.size == m and np.array_equal(np.sort(flat), np.arange(m))


def leaves(node) -> list:
    out, stack = [], [node]
    while stack:
        n = stack.pop()
        if n.ids is not None:
            out.append(n.ids)
        else:
            stack.extend((n.left, n.right))
    return out


# ---------------------------------------------------------------------------
# query-clustered: the read path over the library API

QC_M, QC_D = 20_000, 64
QC_COMPONENTS, QC_CENTER_SCALE, QC_DIRICHLET = 50, 1.5, 2.0
QC_COUNTS = {"brute": 1000, "ivf": 4000, "rp": 3000, "lsh": 1000, "kd": 60, "boundedme": 120}
QC_BUILD_REPEATS = 3
# Lloyd runs ~40 iterations to converge here; the cap makes the build's
# work the same for every seed.
QC_IVF_ITERS = 20
QC_IVF_ELL = 4
QC_RP_TREES, QC_RP_LEAF = 8, 128
QC_LSH_ELL, QC_LSH_TABLES = 8, 16
QC_KD_LEAF = 32
QC_BME_EPS, QC_BME_DELTA = 0.9, 0.9


def mixture(seed: int, m: int, n_queries: int):
    """Gaussian mixture data and held-out queries from the same mixture:
    QC_COMPONENTS unit-variance components whose centres are
    N(0, QC_CENTER_SCALE^2 I) and whose weights are Dirichlet(QC_DIRICHLET)."""
    rng = np.random.default_rng([seed, 0x51C])
    centres = rng.standard_normal((QC_COMPONENTS, QC_D)) * QC_CENTER_SCALE
    weights = rng.dirichlet(np.full(QC_COMPONENTS, QC_DIRICHLET))

    def draw(n):
        comp = rng.choice(QC_COMPONENTS, size=n, p=weights)
        return (centres[comp] + rng.standard_normal((n, QC_D))).astype(np.float32)

    return draw(m), draw(n_queries)


def boundedme(sampling, X, q):
    """BoundedME answer and product count; its m x d diagnostic matrix is
    dropped at once so that answers held for checking stay small."""
    res, diag = sampling.boundedme_topk(X, q, K, eps=QC_BME_EPS, delta=QC_BME_DELTA, seed=3)
    return res, diag["products"]


class QueryClustered:
    name = "query-clustered"
    setup_repeats = 3  # one set-up takes ~1 s

    def __init__(self, m=QC_M, counts=None, build_repeats=QC_BUILD_REPEATS):
        self.m = m
        self.counts = dict(counts or QC_COUNTS)
        self.build_repeats = build_repeats

    def setup(self, seed: int, workdir: Path):
        from annkit.core import Collection

        X32, Q32 = mixture(seed, self.m, max(self.counts.values()))
        truth_l2 = oracle.exact_topk(X32, Q32, K, oracle.L2)
        truth_ip = oracle.exact_topk(X32, Q32[:self.counts["boundedme"]], K, oracle.IP)
        return {"X32": X32, "Q32": Q32, "X": Collection(X32),
                "truth_l2": truth_l2, "truth_ip": truth_ip}

    def _build(self, X, tracer):
        from annkit import ivf, lsh, trees

        built = {}
        with tracer.span("build.ivf"):
            built["ivf"] = ivf.build_ivf(X, 0, max_iters=QC_IVF_ITERS, seed=1)
        with tracer.span("build.rp"):
            built["rp"] = [trees.rp_build(X, QC_RP_LEAF, seed=100 + t) for t in range(QC_RP_TREES)]
        with tracer.span("build.lsh"):
            family = lsh.HashFamily(lsh.FamilyKind.HYPERPLANE, seed=7, d=X.dim)
            built["lsh"] = lsh.build_index(X, family, QC_LSH_ELL, QC_LSH_TABLES)
        with tracer.span("build.kd"):
            built["kd"] = trees.kd_build(X, QC_KD_LEAF)
        return built

    def rebind_targets(self):
        import annkit.core as core
        import annkit.ivf as ivf
        import annkit.lsh as lsh
        import annkit.trees.kd as kd

        return [(mod, "pairwise_scores", "core.pairwise_scores") for mod in (core, ivf, lsh, kd)] + [
            (core, "top_k_from_scores", "core.top_k_from_scores"),
            (ivf, "route", "ivf.route"),
            (lsh.LshIndex, "bucket_key", "lsh.bucket_key"),
        ]

    def measure(self, inp, tracer, workdir: Path) -> Round:
        from annkit import ivf, lsh, sampling, trees
        from annkit.core import DistanceKind, brute_force_topk
        from annkit.harness.container import save_index

        rnd = Round()
        X, X32, Q32 = inp["X"], inp["X32"], inp["Q32"]
        n = self.counts
        L2 = DistanceKind.L2_SQUARED

        families = {
            "brute": lambda q: brute_force_topk(X, q, K, L2),
            "ivf": lambda q: ivf.ivf_search(built["ivf"], X, q, K, QC_IVF_ELL),
            "rp": lambda q: trees.defeatist_search(built["rp"], X, q, K),
            "lsh": lambda q: lsh.lsh_topk(built["lsh"], X, q, K, L2),
            "kd": lambda q: trees.kd_search_exact(built["kd"], X, q, K),
            "boundedme": lambda q: boundedme(sampling, X, q),
        }
        # The builds are spread over the round, each followed by its share of
        # every family's queries, so that build_s and query_s each sample the
        # machine's speed across the whole round rather than one stretch of
        # it. The builds are deterministic, so every share sees the same indexes.
        reps = self.build_repeats
        answers = {fam: [] for fam in families}
        for rep in range(reps):
            dt, built = timed(self._build, X, tracer)
            rnd.build_s += dt / reps
            for fam, fn in families.items():
                share = Q32[n[fam] * rep // reps:n[fam] * (rep + 1) // reps]
                dt, part = answer_all(tracer, f"query.{fam}", fn, share)
                answers[fam] += part
                rnd.query_s += dt

        # -- checks, outside every timed region --------------------------
        index = built["ivf"]
        rnd.check(partition_ok(index.lists, self.m))
        for tree in built["rp"]:
            rnd.check(partition_ok(leaves(tree.root), self.m))
        rnd.check(partition_ok(leaves(built["kd"].root), self.m))
        for table in built["lsh"].tables:
            rnd.check(partition_ok(list(table.values()), self.m))

        truth_ids, _ = inp["truth_l2"]
        recalls = {fam: [] for fam in ("ivf", "rp", "lsh", "boundedme")}
        cand_counts = {"ivf": [], "rp": []}
        for fam in ("brute", "kd"):
            for i, res in enumerate(answers[fam]):
                rnd.check(oracle.check_exact(res.ids, res.scores, truth_ids[i], X32, Q32[i], oracle.L2))
        for i, res in enumerate(answers["ivf"]):
            cand = oracle.route_ivf(index.model.centroids, index.lists, Q32[i], QC_IVF_ELL, oracle.L2)
            cand_counts["ivf"].append(cand.size)
            rnd.check(oracle.check_candidate_topk(res.ids, res.scores, cand, X32, Q32[i], K, oracle.L2))
            recalls["ivf"].append(oracle.recall_at(truth_ids[i], res.ids, K))
        for i, res in enumerate(answers["rp"]):
            cand = np.unique(np.concatenate([oracle.route_rp_leaf(t.root, Q32[i]) for t in built["rp"]]))
            cand_counts["rp"].append(cand.size)
            rnd.check(oracle.check_candidate_topk(res.ids, res.scores, cand, X32, Q32[i], K, oracle.L2))
            recalls["rp"].append(oracle.recall_at(truth_ids[i], res.ids, K))
        for i, res in enumerate(answers["lsh"]):
            rnd.check(oracle.check_rescored(res.ids, res.scores, X32, Q32[i], K, oracle.L2))
            recalls["lsh"].append(oracle.recall_at(truth_ids[i], res.ids, K))
        ip_ids, _ = inp["truth_ip"]
        for i, (res, _) in enumerate(answers["boundedme"]):
            rnd.check(oracle.check_rescored(res.ids, res.scores, X32, Q32[i], K, oracle.IP))
            recalls["boundedme"].append(oracle.recall_at(ip_ids[i], res.ids, K))
        rnd.recalls = {fam: statistics.fmean(r) for fam, r in recalls.items()}

        for fam in ("ivf", "rp", "lsh", "kd"):
            path = workdir / f"qc-{fam}.akx"
            save_index(path, built[fam])
            rnd.index_bytes += file_bytes(path)
            path.unlink()

        if tracer.enabled:
            rnd.layers = self._layers(tracer, rnd, built, answers, cand_counts, Q32)
        return rnd

    def _layers(self, tracer, rnd, built, answers, cand_counts, Q32) -> dict:
        n = self.counts
        rescorers = {"query.ivf", "query.lsh", "query.rp", "query.kd"}
        rescore = tracer.durations("core.pairwise_scores", rescorers)
        kd_leaves = tracer.durations("core.pairwise_scores", {"query.kd"})
        lsh_index = built["lsh"]
        lsh_cands = np.zeros(n["lsh"], dtype=np.int64)
        keys = [lsh_index.bucket_keys(t, Q32[:n["lsh"]].astype(np.float64)) for t in range(lsh_index.big_l)]
        for i in range(n["lsh"]):
            seen = set()
            for t, table in enumerate(lsh_index.tables):
                seen.update(table.get(int(keys[t][i]), ()))
            lsh_cands[i] = len(seen)
        brute = tracer.durations("query.brute")
        ivf_q = tracer.durations("query.ivf")
        rp_q = tracer.durations("query.rp")
        lsh_q = tracer.durations("query.lsh")
        reps = self.build_repeats
        return {
            "core.brute_force_p50_ms": median_ms(brute),
            "core.brute_force_p99_ms": p99_ms(brute),
            "core.score_ms": median_ms(tracer.child_durations("query.brute", "core.pairwise_scores")),
            "core.select_ms": median_ms(tracer.child_durations("query.brute", "core.top_k_from_scores")),
            "core.rescore_s": sum(rescore),
            "core.rescore_calls": len(rescore) / (n["ivf"] + n["lsh"] + n["rp"] + n["kd"]),
            "ivf.build_s": sum(tracer.durations("build.ivf")) / reps,
            "ivf.kmeans_iters": len(built["ivf"].model.objective_trace) - 1,
            "lsh.build_s": sum(tracer.durations("build.lsh")) / reps,
            "trees.rp_build_s": sum(tracer.durations("build.rp")) / reps,
            "ivf.search_p50_ms": median_ms(ivf_q),
            "ivf.search_p99_ms": p99_ms(ivf_q),
            "ivf.route_ms": median_ms(tracer.child_durations("query.ivf", "ivf.route")),
            "ivf.candidates": statistics.fmean(cand_counts["ivf"]),
            "trees.rp_search_p50_ms": median_ms(rp_q),
            "trees.rp_search_p99_ms": p99_ms(rp_q),
            "trees.rp_candidates": statistics.fmean(cand_counts["rp"]),
            "trees.kd_search_p50_ms": median_ms(tracer.durations("query.kd")),
            "trees.kd_leaves_scored": len(kd_leaves) / n["kd"],
            "lsh.topk_p50_ms": median_ms(lsh_q),
            "lsh.topk_p99_ms": p99_ms(lsh_q),
            "lsh.hash_ms": median_ms(tracer.child_durations("query.lsh", "lsh.bucket_key")),
            "lsh.candidates": float(lsh_cands.mean()),
            "sampling.boundedme_p50_ms": median_ms(tracer.durations("query.boundedme")),
            "sampling.boundedme_products": statistics.fmean(
                products for _, products in answers["boundedme"]),
            "ivf.recall_at_10": rnd.recalls["ivf"],
            "trees.rp_recall_at_10": rnd.recalls["rp"],
            "lsh.recall_at_10": rnd.recalls["lsh"],
            "sampling.boundedme_recall_at_10": rnd.recalls["boundedme"],
        }


# ---------------------------------------------------------------------------
# build-gaussian: the write path over the library API

BG_M, BG_D = 5_000, 64
BG_COVER_M = 2_000
BG_GRAPH_QUERIES, BG_COVER_QUERIES = 2000, 300
BG_ALPHA, BG_CAP, BG_BUILD_BEAM, BG_PASSES = 1.2, 16, 32, 2
BG_QUERY_BEAM = 64


class BuildGaussian:
    name = "build-gaussian"
    setup_repeats = 18  # one set-up takes ~0.17 s; 18 span about 3 s

    def __init__(self, m=BG_M, cover_m=BG_COVER_M, graph_queries=BG_GRAPH_QUERIES,
                 cover_queries=BG_COVER_QUERIES):
        self.m, self.cover_m = m, cover_m
        self.graph_queries, self.cover_queries = graph_queries, cover_queries

    def setup(self, seed: int, workdir: Path):
        from annkit.core import Collection

        rng = np.random.default_rng([seed, 0xB6])
        X32 = rng.standard_normal((self.m, BG_D)).astype(np.float32)
        Q32 = rng.standard_normal((max(self.graph_queries, self.cover_queries), BG_D)).astype(np.float32)
        return {
            "X32": X32, "Q32": Q32, "X": Collection(X32), "Xc": Collection(X32[:self.cover_m]),
            "truth": oracle.exact_topk(X32, Q32[:self.graph_queries], K, oracle.L2),
            "truth_cover": oracle.exact_topk(X32[:self.cover_m], Q32[:self.cover_queries], K, oracle.L2),
        }

    def rebind_targets(self):
        import annkit.graph as graph

        return [(graph, "greedy_search", "graph.greedy_search"),
                (graph, "robust_prune", "graph.robust_prune")]

    def measure(self, inp, tracer, workdir: Path) -> Round:
        from annkit import graph, trees
        from annkit.harness.container import save_index

        rnd = Round()
        X, Xc, X32, Q32 = inp["X"], inp["Xc"], inp["X32"], inp["Q32"]

        def search(q):
            return graph.greedy_search(G, X, q, K, beam=BG_QUERY_BEAM)

        # Half the graph queries run between the two builds, so that query_s
        # samples the machine's speed at two points of the round.
        half = self.graph_queries // 2
        with tracer.span("build.vamana"):
            dt_v, G = timed(graph.build_vamana, X, alpha=BG_ALPHA, cap=BG_CAP, beam=BG_BUILD_BEAM,
                            seed=5, passes=BG_PASSES)
        dt_g1, graph_answers = answer_all(tracer, "query.graph", search, Q32[:half])
        with tracer.span("build.cover"):
            dt_b, cover = timed(trees.cover_build, Xc)
        dt_g2, more = answer_all(tracer, "query.graph", search, Q32[half:self.graph_queries])
        graph_answers += more
        dt_c, cover_answers = answer_all(
            tracer, "query.cover", lambda q: trees.cover_nn(cover, q, K), Q32[:self.cover_queries])
        rnd.build_s = dt_v + dt_b
        rnd.query_s = dt_g1 + dt_g2 + dt_c

        rnd.check(oracle.check_graph(G.adjacency, BG_CAP))
        rnd.check(cover.size == self.cover_m)
        truth_ids, _ = inp["truth"]
        graph_recall = []
        for i, (res, _) in enumerate(graph_answers):
            rnd.check(oracle.check_rescored(res.ids, res.scores, X32, Q32[i], K, oracle.L2))
            graph_recall.append(oracle.recall_at(truth_ids[i], res.ids, K))
        cover_ids, _ = inp["truth_cover"]
        for i, res in enumerate(cover_answers):
            rnd.check(oracle.check_exact(res.ids, res.scores, cover_ids[i], X32, Q32[i], oracle.L2))
        rnd.recalls = {"graph": statistics.fmean(graph_recall)}

        for fam, obj in (("graph", G), ("cover", cover)):
            path = workdir / f"bg-{fam}.akx"
            save_index(path, obj)
            rnd.index_bytes += file_bytes(path)
            path.unlink()

        if tracer.enabled:
            in_build = {"build.vamana"}
            searches = tracer.durations("graph.greedy_search", in_build)
            prunes = tracer.durations("graph.robust_prune", in_build)
            graph_q = tracer.durations("query.graph")
            rnd.layers = {
                "graph.vamana_build_s": sum(tracer.durations("build.vamana")),
                "graph.build_search_s": sum(searches),
                "graph.build_search_calls": len(searches),
                "graph.build_prune_s": sum(prunes),
                "graph.build_prune_calls": len(prunes),
                "trees.cover_build_s": sum(tracer.durations("build.cover")),
                "graph.search_p50_ms": median_ms(graph_q),
                "graph.search_p99_ms": p99_ms(graph_q),
                "graph.dist_evals": statistics.fmean(tr.visited for _, tr in graph_answers),
                "graph.hops": statistics.fmean(tr.hops for _, tr in graph_answers),
                "trees.cover_search_p50_ms": median_ms(tracer.durations("query.cover")),
                "graph.recall_at_10": rnd.recalls["graph"],
            }
        return rnd


# ---------------------------------------------------------------------------
# cli-files: the CLI as a user runs it, one process per command

CF_M, CF_D, CF_QUERIES = 10_000, 64, 100
CF_KINDS = ("pq", "opq", "lsh", "ivf")
CF_BUILD_FLAGS = {
    "pq": ["--subspaces", "32", "--codewords", "16"],
    "opq": ["--subspaces", "32", "--codewords", "16", "--iters", "10"],
    "lsh": ["--family", "hyperplane", "--ell", "6", "--tables", "16"],
    "ivf": ["--clusters", "auto", "--iters", "10"],
}
CF_QUERY_FLAGS = {"pq": [], "opq": [], "lsh": ["--kind", "l2"], "ivf": ["--ell", "20"]}
CHILD_TIMEOUT_S = 170


class CliFailed(RuntimeError):
    pass


def read_vecs(path) -> np.ndarray:
    """Parse a .vecs file with numpy alone: int32 d, then d float32, per row."""
    raw = np.fromfile(path, dtype="<i4")
    if raw.size == 0:
        raise ValueError(f"{path}: empty")
    d = int(raw[0])
    if d <= 0 or raw.size % (d + 1):
        raise ValueError(f"{path}: malformed")
    rows = raw.reshape(-1, d + 1)
    if np.any(rows[:, 0] != d):
        raise ValueError(f"{path}: inconsistent dimensions")
    return np.ascontiguousarray(rows[:, 1:]).view("<f4").astype(np.float32)


class CliRunner:
    """Runs ``python -m annkit.harness.cli`` one process at a time, with
    BLAS pinned to one thread, and records each process's peak RSS."""

    def __init__(self, workdir: Path):
        self.rss_file = workdir / "child_rss_kb"
        self.peak_rss_kb = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(CHILD_SITE)])
        self.env["PERFBENCH_RSS_FILE"] = str(self.rss_file)

    def run(self, argv: list, tracer=None, span: str = "") -> float:
        """Run one child to completion; returns its wall time in seconds."""
        self.rss_file.unlink(missing_ok=True)
        t0 = time.perf_counter()
        with tracer.span(span) if tracer else contextlib.nullcontext():
            proc = subprocess.run([sys.executable, *argv], env=self.env, cwd=ROOT,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  timeout=CHILD_TIMEOUT_S)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            raise CliFailed(f"{' '.join(argv)} exited {proc.returncode}: "
                            f"{proc.stderr.decode(errors='replace')[-2000:]}")
        if self.rss_file.exists():
            self.peak_rss_kb = max(self.peak_rss_kb, int(self.rss_file.read_text()))
        return dt

    def cli(self, *args, tracer=None, span: str = "") -> float:
        return self.run(["-m", "annkit.harness.cli", *args], tracer, span)


class CliFiles:
    name = "cli-files"
    setup_repeats = 3  # one set-up (two CLI processes plus the oracle) takes ~2 s

    def __init__(self, m=CF_M, n_queries=CF_QUERIES):
        self.m, self.n_queries = m, n_queries

    def paths(self, workdir: Path):
        return workdir / "data.vecs", workdir / "queries.vecs"

    def rebind_targets(self):
        return []  # the traced quant calls are rebound inside _layers

    def setup(self, seed: int, workdir: Path):
        data, queries = self.paths(workdir)
        runner = CliRunner(workdir)
        runner.cli("generate", "--dist", "gaussian", "--m", str(self.m), "--d", str(CF_D),
                   "--seed", str(seed), "--out", str(data))
        runner.cli("generate", "--dist", "gaussian", "--m", str(self.n_queries), "--d", str(CF_D),
                   "--seed", str(seed + 1_000_003), "--out", str(queries))
        X32, Q32 = read_vecs(data), read_vecs(queries)
        # annkit's gaussian generator is numpy's default_rng(seed).standard_normal;
        # redrawing it here checks what generate wrote
        expect = np.random.default_rng(seed).standard_normal((self.m, CF_D)).astype(np.float32)
        expect_q = np.random.default_rng(seed + 1_000_003).standard_normal(
            (self.n_queries, CF_D)).astype(np.float32)
        return {"X32": X32, "Q32": Q32, "runner": runner,
                "files_ok": np.array_equal(X32, expect) and np.array_equal(Q32, expect_q),
                "truth": oracle.exact_topk(X32, Q32, K, oracle.L2)}

    def measure(self, inp, tracer, workdir: Path) -> Round:
        rnd = Round()
        data, queries = self.paths(workdir)
        runner = inp["runner"]
        X32, Q32 = inp["X32"], inp["Q32"]
        truth_ids, _ = inp["truth"]
        rnd.check(inp["files_ok"])
        built = {}
        for kind in CF_KINDS:
            akx = workdir / f"{kind}.akx"
            try:
                rnd.build_s += runner.cli("build", "--index", kind, "--data", str(data), "--out", str(akx),
                                          "--seed", "0", *CF_BUILD_FLAGS[kind],
                                          tracer=tracer, span=f"cli.build.{kind}")
                built[kind] = True
            except CliFailed as err:
                print(f"perfbench: {err}", file=sys.stderr)
                built[kind] = False
            rnd.check(built[kind])
        for kind in CF_KINDS:
            csv = workdir / f"{kind}.csv"
            rows = [None] * self.n_queries
            if built[kind]:
                try:
                    rnd.query_s += runner.cli("query", "--index-file", str(workdir / f"{kind}.akx"),
                                              "--data", str(data), "--queries", str(queries),
                                              "--k", str(K), "--out", str(csv), *CF_QUERY_FLAGS[kind],
                                              tracer=tracer, span=f"cli.query.{kind}")
                    rows = oracle.parse_query_csv(csv.read_text(), self.n_queries, K, self.m)
                except CliFailed as err:
                    print(f"perfbench: {err}", file=sys.stderr)
            recalls = []
            for i, row in enumerate(rows):
                ok = row is not None
                if ok and kind in ("lsh", "ivf"):
                    ok = oracle.check_rescored(row[0], row[1], X32, Q32[i], K, oracle.L2)
                rnd.check(ok)
                recalls.append(oracle.recall_at(truth_ids[i], row[0], K) if row is not None else 0.0)
            rnd.recalls[kind] = statistics.fmean(recalls)
            if built[kind]:
                rnd.index_bytes += file_bytes(workdir / f"{kind}.akx")
        rnd.peak_rss_mb = runner.peak_rss_kb / 1024.0

        if tracer.enabled:
            rnd.layers = self._layers(tracer, rnd, runner, workdir)
        return rnd

    def _layers(self, tracer, rnd, runner: CliRunner, workdir: Path) -> dict:
        """Per-layer metrics: CLI process times from the spans, plus the
        harness and quant layers timed inside this process."""
        import annkit.harness.cli as cli
        from annkit.core import Collection
        from annkit.harness.container import load_index, save_index
        from annkit.harness.io import load_vecs, save_vecs

        data, queries = self.paths(workdir)
        layers = {}
        starts = [runner.run(["-c", "import annkit.harness.cli"]) for _ in range(3)]
        layers["harness.cli_start_s"] = statistics.median(starts)
        X = Collection(read_vecs(data))
        with tracer.span("harness.save_vecs"):
            save_vecs(workdir / "copy.vecs", X)
        layers["harness.save_vecs_s"] = sum(tracer.durations("harness.save_vecs"))
        (workdir / "copy.vecs").unlink()
        with tracer.span("harness.load_vecs"):
            X = load_vecs(data)
        layers["harness.load_vecs_s"] = sum(tracer.durations("harness.load_vecs"))
        for kind in CF_KINDS:
            akx = workdir / f"{kind}.akx"
            with tracer.span(f"harness.load_index.{kind}"):
                obj = load_index(akx, X=X)
            with tracer.span(f"harness.save_index.{kind}"):
                save_index(workdir / "copy.akx", obj)
            (workdir / "copy.akx").unlink()
            layers[f"harness.load_index_s.{kind}"] = sum(tracer.durations(f"harness.load_index.{kind}"))
            layers[f"harness.save_index_s.{kind}"] = sum(tracer.durations(f"harness.save_index.{kind}"))
            layers[f"harness.cli_build_s.{kind}"] = sum(tracer.durations(f"cli.build.{kind}"))
            layers[f"harness.cli_query_s.{kind}"] = sum(tracer.durations(f"cli.query.{kind}"))
            layers[f"harness.akx_bytes.{kind}"] = file_bytes(akx)

        # one in-process build per quantizer and one in-process pq query,
        # with the quant functions the CLI calls traced
        targets = [(cli, "pq_train", "quant.pq_train"), (cli, "opq_train", "quant.opq_train"),
                   (cli, "pq_encode_all", "quant.pq_encode_all"),
                   (cli, "_query_index", "cli.query_index")]
        with tracer.rebind(*targets):
            for kind in ("pq", "opq"):
                cli.main(["build", "--index", kind, "--data", str(data),
                          "--out", str(workdir / "inproc.akx"), "--seed", "0", *CF_BUILD_FLAGS[kind]])
            (workdir / "inproc.akx").unlink()
            cli.main(["query", "--index-file", str(workdir / "pq.akx"), "--data", str(data),
                      "--queries", str(queries), "--k", str(K), "--out", str(workdir / "inproc.csv")])
            (workdir / "inproc.csv").unlink()
        layers["quant.pq_train_s"] = sum(tracer.durations("quant.pq_train"))
        layers["quant.opq_train_s"] = sum(tracer.durations("quant.opq_train"))
        layers["quant.encode_s"] = sum(tracer.durations("quant.pq_encode_all", {"cli.query_index"}))
        scans = [total - enc for total, enc in zip(
            tracer.durations("cli.query_index"),
            tracer.child_durations("cli.query_index", "quant.pq_encode_all"))]
        layers["quant.adc_scan_ms"] = median_ms(scans)
        layers["quant.pq_recall_at_10"] = rnd.recalls["pq"]
        layers["quant.opq_recall_at_10"] = rnd.recalls["opq"]
        return layers


WORKLOADS = {w.name: w for w in (QueryClustered, BuildGaussian, CliFiles)}
