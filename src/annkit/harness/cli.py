"""Command-line harness: generate / build / query / bench / experiment /
selftest.

`build` looks its --index name up, and `query` the loaded container's
family, in the one family registry (``container._FAMILIES``). A process
imports only the family modules its command uses: `generate` none, `build`
and `query` their family's. Every run with the same flags and seed writes
byte-identical output (benchmark wall-clock columns appear only behind
--timings). Exit codes: 0 ok, 1 test failure, 2 usage error or bad input
(a ValueError or OSError, printed as one ``annkit: error:`` line).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from annkit.core import Collection, DistanceKind, TopKResult, brute_force_topk
from annkit.harness.container import _FAMILIES, family_of, load_index, save_index
from annkit.harness.io import load_vecs, save_vecs
from annkit.harness.synth import Distribution, SyntheticSpec, generate

__all__ = ["main"]

_KINDS = {
    "l2": DistanceKind.L2_SQUARED,
    "ip": DistanceKind.NEG_INNER_PRODUCT,
    "angular": DistanceKind.ANGULAR,
}

# --family choices: the values of annkit.lsh.FamilyKind, which only an lsh build imports
_LSH_FAMILIES = ["bit", "hyperplane", "cross_polytope", "pstable"]

# --index name -> build(cli, X, args), in registry order: a view of the registry
_BUILDS = {name: build for family in _FAMILIES.values() for name, build in family.builds.items()}


def __getattr__(name):
    """The quantizer functions the registry's adapters call through this
    module, imported on first use; rebinding one here reaches them."""
    if name in ("pq_train", "opq_train", "pq_encode_all", "aq_encode"):
        from annkit import quant

        return getattr(quant, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _ints(csv: str) -> list[int]:
    return [int(tok) for tok in csv.split(",") if tok]


def _positive_int(text: str) -> int:
    """argparse type of --k and --trees: an int of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def _load_data_and_queries(args) -> tuple[Collection, Collection]:
    X, queries = load_vecs(args.data), load_vecs(args.queries)
    if queries.dim != X.dim:
        raise ValueError(f"{args.queries}: queries have dimension {queries.dim}, "
                         f"the data {args.data} {X.dim}")
    return X, queries


def _cmd_generate(args) -> int:
    spec = SyntheticSpec(Distribution(args.dist), m=args.m, d=args.d, seed=args.seed)
    save_vecs(args.out, generate(spec))
    return 0


def _clusters(args) -> int:
    return 0 if args.clusters == "auto" else int(args.clusters)


def _cmd_build(args) -> int:
    save_index(args.out, _BUILDS[args.index](sys.modules[__name__], load_vecs(args.data), args))
    return 0


def _query_index(obj, X, q, k, args, prepared) -> TopKResult:
    """One query against a loaded index; ``prepared`` is what its family's
    ``prepare`` returned for ``obj`` and ``X``."""
    return _FAMILIES[family_of(obj)].search(sys.modules[__name__], obj, X, q, k, args, prepared)


def _cmd_query(args) -> int:
    X, queries = _load_data_and_queries(args)
    obj = load_index(args.index_file, X=X)
    family = family_of(obj)
    if _FAMILIES[family].search is None:
        raise ValueError(f"{args.index_file}: a {family} container is a sketch, not a searchable index")
    prepared = _FAMILIES[family].prepare(sys.modules[__name__], obj, X)
    lines = ["query_id,rank,id,score"]
    for qi in range(len(queries)):
        result = _query_index(obj, X, queries.vectors[qi], args.k, args, prepared)
        for rank, (pid, score) in enumerate(zip(result.ids, result.scores)):
            lines.append(f"{qi},{rank},{int(pid)},{float(score)!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_bench(args) -> int:
    from annkit.harness.experiments import benchmark

    X, queries = _load_data_and_queries(args)
    queries = queries.vectors
    kind = _KINDS[args.kind]
    if args.target == "ivf":
        from annkit.ivf import build_ivf, ivf_search, route

        index = build_ivf(X, _clusters(args), kind, seed=args.seed)
        sweep = _ints(args.sweep_l)

        def cost(ell, q):
            clusters = route(index, q, ell)
            return index.model.n_clusters + sum(index.lists[int(c)].size for c in clusters)

        def run(ell, q):
            return ivf_search(index, X, q, args.k, ell), lambda: cost(ell, q)

        report = benchmark("ivf", X, queries, args.k, kind, sweep, run, timings=args.timings)
    elif args.target == "vamana":
        from annkit.graph import build_vamana, greedy_search

        G = build_vamana(X, alpha=args.alpha, cap=args.degree, beam=args.beam, seed=args.seed)
        sweep = _ints(args.sweep_beam)

        def run(beam, q):
            result, trace = greedy_search(G, X, q, args.k, beam=beam)
            return result, trace.visited

        report = benchmark("vamana", X, queries, args.k, kind, sweep, run, timings=args.timings)
    elif args.target == "forest":
        from annkit.trees.rp import _route_to_leaf, defeatist_search, rp_build

        sweep = _ints(args.sweep_trees)
        forest = [rp_build(X, args.leaf_capacity, seed=args.seed + t) for t in range(max(sweep))]

        def cost(n_trees, q):
            leaves = set()
            for tree in forest[:n_trees]:
                leaves.update(_route_to_leaf(tree, q).tolist())
            return len(leaves)

        def run(n_trees, q):
            return defeatist_search(forest[:n_trees], X, q, args.k), lambda: cost(n_trees, q)

        report = benchmark("forest", X, queries, args.k, kind, sweep, run, timings=args.timings)
    elif args.target == "boundedme":
        from annkit.sampling import boundedme_topk

        sweep = [float(tok) for tok in args.sweep_eps.split(",") if tok]

        def run(eps, q):
            result, diag = boundedme_topk(X, q, args.k, eps=eps, delta=args.delta,
                                          seed=args.seed)
            return result, diag["products"]

        report = benchmark("boundedme", X, queries, args.k,
                           DistanceKind.NEG_INNER_PRODUCT, sweep, run, timings=args.timings)
    else:
        raise ValueError(f"unknown bench target {args.target}")
    _emit(report.to_csv(), args.out)
    return 0


def _cmd_experiment(args) -> int:
    from annkit.harness.experiments import experiment_coincidence, experiment_instability

    dist = Distribution(args.dist)
    if args.what == "coincidence":
        report = experiment_coincidence(dist, m=args.m, dims=_ints(args.dims), seed=args.seed)
    elif args.what == "instability":
        report = experiment_instability(dist, m=args.m, dims=_ints(args.dims),
                                        n_queries=args.queries, seed=args.seed)
    elif args.what == "sketch":
        report = _sketch_statistics(args)
    else:
        raise ValueError(f"unknown experiment {args.what}")
    _emit(report.to_csv(), args.out)
    return 0


def _sketch_statistics(args) -> "ExperimentReport":
    """Per-seed (estimate, truth) rows for the unbiased sketch estimators."""
    from annkit.harness.experiments import ExperimentReport
    from annkit.sketch import JlSketcher, ThresholdSketcher, jl_ip_estimate, jl_project, threshold_ip_estimate

    rng = np.random.default_rng(args.seed)
    u = rng.standard_normal(args.d)
    v = rng.standard_normal(args.d)
    truth = float(u @ v)
    report = ExperimentReport(columns=["sketch", "d", "out_dim", "seed", "estimate", "truth"])
    for s in range(args.trials):
        if args.sketch == "jl":
            sk = JlSketcher(out_dim=args.out_dim, seed=s)
            est = jl_ip_estimate(jl_project(sk, u), jl_project(sk, v))
        else:
            ts = ThresholdSketcher(out_dim=args.out_dim, seed=s)
            est = threshold_ip_estimate(ts.sketch(u), ts.sketch(v))
        report.add(args.sketch, args.d, args.out_dim, s, float(est), truth)
    return report


def _cmd_selftest(args) -> int:
    from annkit.ivf import build_ivf, ivf_search
    from annkit.lsh import FamilyKind, HashFamily, build_index as lsh_build
    from annkit.quant import adc_offsets, pq_adc, pq_adc_scan, pq_decode, pq_encode_all, pq_train
    from annkit.trees import cover_build, cover_nn, kd_build, kd_search_exact

    failures = []
    rng = np.random.default_rng(args.seed)

    def check(label, ok):
        print(f"[selftest] {label}: {'PASS' if ok else 'FAIL'}")
        if not ok:
            failures.append(label)

    X = Collection(rng.standard_normal((300, 8)).astype(np.float32))
    queries = rng.standard_normal((20, 8)).astype(np.float32)

    tree = kd_build(X, 4)
    ok = all(
        np.array_equal(kd_search_exact(tree, X, q, 5).ids,
                       brute_force_topk(X, q, 5, DistanceKind.L2_SQUARED).ids)
        for q in queries
    )
    check("kd search matches oracle", ok)

    ct = cover_build(X)
    ok = all(
        np.array_equal(cover_nn(ct, q, 5).ids,
                       brute_force_topk(X, q, 5, DistanceKind.L2_SQUARED).ids)
        for q in queries
    )
    check("cover search matches oracle", ok)

    # the scan `annkit query` runs over every row against the decoded rows
    cb = pq_train(X, 2, 8, seed=1)
    codes = pq_encode_all(cb, X)
    offsets = adc_offsets(codes, cb.n_codewords)
    decoded = np.stack([pq_decode(cb, code) for code in codes]).astype(np.float64)
    ok = True
    for q in queries[:5]:
        adc = pq_adc_scan(pq_adc(cb, q), offsets)
        direct = np.sum((q.astype(np.float64) - decoded) ** 2, axis=1)
        ok = ok and bool(np.all(np.abs(adc - direct) <= 1e-5 * np.maximum(direct, 1e-9)))
    check("pq adc identity", ok)

    fam = HashFamily(FamilyKind.HYPERPLANE, seed=3, d=8)
    i1 = lsh_build(X, fam, 2, 3)
    i2 = lsh_build(X, HashFamily(FamilyKind.HYPERPLANE, seed=3, d=8), 2, 3)
    check("lsh deterministic rebuild", all(
        a.keys() == b.keys() and all(np.array_equal(a[key], b[key]) for key in a)
        for a, b in zip(i1.tables, i2.tables)))

    idx = build_ivf(X, 16, seed=2)
    q = queries[0]
    check(
        "ivf full sweep equals oracle",
        np.array_equal(ivf_search(idx, X, q, 5, 16).ids,
                       brute_force_topk(X, q, 5, DistanceKind.L2_SQUARED).ids),
    )

    if failures:
        print(f"[selftest] {len(failures)} failure(s)")
        return 1
    print("[selftest] all checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="annkit", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="RNG seed")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("generate", help="write a synthetic .vecs file")
    p.add_argument("--dist", choices=[d.value for d in Distribution], default="gaussian")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = add_parser("build", help="build an index container from a .vecs file")
    p.add_argument("--index", required=True, choices=list(_BUILDS))
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--kind", choices=sorted(_KINDS), default="l2")
    p.add_argument("--leaf-capacity", type=int, default=32)
    p.add_argument("--trees", type=_positive_int, default=1)
    p.add_argument("--alpha", type=float, default=1.2, help="prune slack for sng/vamana")
    p.add_argument("--overlap", type=float, default=0.1, help="spill tree overlap fraction")
    p.add_argument("--family", choices=_LSH_FAMILIES, default="hyperplane")
    p.add_argument("--ell", type=int, default=4)
    p.add_argument("--tables", type=int, default=8)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--degree", type=int, default=32)
    p.add_argument("--beam", type=int, default=0, help="0 = twice the degree cap")
    p.add_argument("--clusters", default="auto")
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--subspaces", type=int, default=2)
    p.add_argument("--codebooks", type=int, default=2)
    p.add_argument("--codewords", type=int, default=16)
    p.set_defaults(func=_cmd_build)

    p = add_parser("query", help="run top-k queries against a saved index")
    p.add_argument("--index-file", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--k", type=_positive_int, default=10)
    p.add_argument("--kind", choices=sorted(_KINDS), default="l2")
    p.add_argument("--beam", type=int, default=None)
    p.add_argument("--entry", type=int, default=-1, help="graph entry id; -1 = stored medoid")
    p.add_argument("--ell", type=int, default=0)
    p.add_argument("--samples", type=int, default=2048)
    p.add_argument("--k-prime", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_query)

    p = add_parser("bench", help="recall-vs-cost sweeps")
    p.add_argument("target", choices=["ivf", "vamana", "forest", "boundedme"])
    p.add_argument("--data", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--k", type=_positive_int, default=10)
    p.add_argument("--kind", choices=sorted(_KINDS), default="l2")
    p.add_argument("--clusters", default="auto")
    p.add_argument("--sweep-l", default="1,2,4,8")
    p.add_argument("--alpha", type=float, default=1.2)
    p.add_argument("--degree", type=int, default=32)
    p.add_argument("--beam", type=int, default=64)
    p.add_argument("--sweep-beam", default="16,32,64")
    p.add_argument("--leaf-capacity", type=int, default=32)
    p.add_argument("--sweep-trees", default="1,2,4,8")
    p.add_argument("--sweep-eps", default="0.1,0.2,0.4")
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--timings", action="store_true",
                   help="append wall-clock columns (breaks byte reproducibility)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bench)

    p = add_parser("experiment", help="desk-scale phenomenon reproductions")
    p.add_argument("what", choices=["coincidence", "instability", "sketch"])
    p.add_argument("--dist", choices=[d.value for d in Distribution], default="gaussian")
    p.add_argument("--m", type=int, default=10_000)
    p.add_argument("--dims", default="4,16,64,256")
    p.add_argument("--queries", type=int, default=100)
    p.add_argument("--sketch", choices=["jl", "threshold"], default="jl")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--d", type=int, default=32)
    p.add_argument("--out-dim", type=int, default=16)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_experiment)

    p = add_parser("selftest", help="fast invariant checks, exit 0 on pass")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:  # bad input: a flag value the library rejects, or a bad file
        print(f"annkit: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
