"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
All tolerances are pinned here; instances are desk-scale and seeded.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from annkit.core import (
    Collection,
    DistanceKind,
    SparseVector,
    brute_force_topk,
    epsilon_valid,
    recall,
)
from annkit.graph import (
    build_alpha_sng_exact,
    build_vamana,
    greedy_search,
)
from annkit.harness.experiments import experiment_coincidence, experiment_instability
from annkit.harness.synth import Distribution, generate
from annkit.ivf import build_ivf, ivf_search
from annkit.lsh import (
    FamilyKind,
    HashFamily,
    build_index,
    derive_params,
    pleb_query,
    pstable_collision_probability,
)
from annkit.quant import (
    aq_encode,
    aq_train,
    opq_train,
    pq_adc,
    pq_decode,
    pq_encode_all,
    pq_train,
)
from annkit.sampling import (
    alias_build,
    alias_sample_many,
    boundedme_schedule,
    boundedme_topk,
    build_wedge_index,
    wedge_topk,
)
from annkit.sketch import JlSketcher, ThresholdSketcher, asym_sketch, asym_upper_bound, jl_ip_estimate, jl_project
from annkit.trees import cover_build, cover_nn, cover_nn_approx, kd_build, kd_search_exact
from tests.test_graph import alpha_shortcut_violations
from tests.test_sampling import _contributions
from tests.test_trees_cover import scan_invariants


def report(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {label}: {status}{suffix}")
    assert ok, f"criterion {number} failed: {label} {suffix}"


def gaussian(m, d, seed):
    return Collection(np.random.default_rng(seed).standard_normal((m, d)).astype(np.float32))


def test_criterion_01_exact_tree_searches_match_oracle():
    t0 = time.time()
    mismatches = 0
    total = 0
    for inst in range(5):
        X = gaussian(1000, 16, 100 + inst)
        kd = kd_build(X, 8)
        cover = cover_build(X)
        rng = np.random.default_rng(200 + inst)
        for _ in range(200):
            q = rng.standard_normal(16).astype(np.float32)
            want = brute_force_topk(X, q, 10, DistanceKind.L2_SQUARED)
            got_kd = kd_search_exact(kd, X, q, 10)
            got_cv = cover_nn(cover, q, 10)
            total += 1
            if not (np.array_equal(got_kd.ids, want.ids) and np.array_equal(got_kd.scores, want.scores)):
                mismatches += 1
            if not (np.array_equal(got_cv.ids, want.ids) and np.array_equal(got_cv.scores, want.scores)):
                mismatches += 1
    elapsed = time.time() - t0
    report(1, "kd + cover exact equals oracle on 1000 queries",
           mismatches == 0 and elapsed < 60.0,
           f"{total} queries, {mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_02_cover_invariants_and_approx():
    X = Collection(np.random.default_rng(300).uniform(0, 1, size=(512, 8)).astype(np.float32))
    tree = cover_build(X)
    scan_invariants(tree)
    rng = np.random.default_rng(301)
    failures = 0
    trials = 0
    for eps in (0.25, 0.5):
        for _ in range(100):
            q = rng.uniform(0, 1, 8).astype(np.float32)
            exact = brute_force_topk(X, q, 1, DistanceKind.L2_SQUARED)
            _, score = cover_nn_approx(tree, q, eps)
            trials += 1
            if not epsilon_valid(float(np.sqrt(exact.scores[0])), float(np.sqrt(score)), eps):
                failures += 1
    report(2, "cover invariants + eps-approximate validity",
           failures == 0, f"structural scan ok, {trials} approx queries, {failures} invalid")


def test_criterion_03_hyperplane_collision_rate():
    d = 8
    fam = HashFamily(FamilyKind.HYPERPLANE, seed=400, d=d)
    n = 10_000
    worst_z = 0.0
    for theta in (math.pi / 6, math.pi / 4, math.pi / 2, 3 * math.pi / 4):
        u = np.zeros(d)
        u[0] = 1.0
        v = np.zeros(d)
        v[0], v[1] = math.cos(theta), math.sin(theta)
        mat = np.stack([u, v])
        hits = sum(int(h[0] == h[1]) for h in (fam.hash_many(i, mat) for i in range(n)))
        expected = 1.0 - theta / math.pi
        sigma = math.sqrt(expected * (1 - expected) / n)
        worst_z = max(worst_z, abs(hits / n - expected) / sigma)
    report(3, "hyperplane collision rate is 1 - theta/pi", worst_z <= 3.0,
           f"worst |z| = {worst_z:.2f}")


def test_criterion_04_pleb_planted_pair():
    m, d, r = 500, 16, 1.0
    p1 = pstable_collision_probability(r, r)
    p2 = pstable_collision_probability(2 * r, r)
    ell, big_l, _ = derive_params(m, p1, p2)
    yes = 0
    budget_ok = True
    for s in range(100):
        rng = np.random.default_rng(500 + s)
        q = rng.standard_normal(d)
        q /= np.linalg.norm(q)
        dirs = rng.standard_normal((m, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        far = q + dirs * (rng.uniform(2.2, 4.0, size=(m, 1)) * r)
        pv = rng.standard_normal(d)
        pv /= np.linalg.norm(pv)
        X = Collection(np.vstack([far, (q + 0.5 * r * pv)[None, :]]).astype(np.float32))
        family = HashFamily(FamilyKind.P_STABLE_L2, seed=s, d=d, r=r)
        index = build_index(X, family, ell, big_l)
        ans = pleb_query(index, X, q.astype(np.float32), r, eps=1.0)
        yes += int(ans.yes)
        budget_ok = budget_ok and ans.visited <= 4 * big_l
    report(4, "PLEB yes-rate on planted pair with derived parameters",
           yes / 100 >= 0.75 and budget_ok,
           f"yes-rate {yes / 100:.2f}, ell={ell}, L={big_l}, visits capped: {budget_ok}")


def test_criterion_05_graph_weak_optimality():
    X = gaussian(300, 8, 600)
    G = build_alpha_sng_exact(X, 1.0)
    failures = 0
    for j in range(300):
        q = X.vectors[j]
        for entry in range(300):
            res, _ = greedy_search(G, X, q, k=1, entry=entry, beam=1)
            if res.ids[0] != j:
                failures += 1
    report(5, "greedy self-queries on exact SNG from every entry",
           failures == 0, f"90000 walks, {failures} failures")


def test_criterion_06_alpha_shortcut_reachability():
    X = gaussian(300, 8, 601)
    details = []
    ok = True
    for alpha in (1.0, 1.2):
        G = build_alpha_sng_exact(X, alpha)
        violations = alpha_shortcut_violations(G, X, alpha)
        details.append(f"alpha={alpha}: {violations}")
        ok = ok and violations == 0
    report(6, "alpha-shortcut reachability exhaustive at m=300", ok, "; ".join(details))


def test_criterion_07_vamana_recall():
    recalls = []
    max_degree = 0
    for seed in range(3):
        X = gaussian(5000, 32, 700 + seed)
        G = build_vamana(X, alpha=1.2, cap=32, beam=64, seed=seed)
        max_degree = max(max_degree, int(G.out_degree().max()))
        rng = np.random.default_rng(800 + seed)
        for _ in range(100):
            q = rng.standard_normal(32).astype(np.float32)
            res, _ = greedy_search(G, X, q, k=10, beam=64)
            recalls.append(recall(brute_force_topk(X, q, 10, DistanceKind.L2_SQUARED), res, 10))
    mean_recall = float(np.mean(recalls))
    report(7, "Vamana recall@10 over 3 seeds with degree cap",
           mean_recall >= 0.9 and max_degree <= 32,
           f"recall {mean_recall:.3f}, max degree {max_degree}")


def test_criterion_08_ivf_recall_curve():
    X = gaussian(4000, 16, 900)
    index = build_ivf(X, 0, seed=901)  # C = ceil(sqrt(m)) = 64
    C = index.model.n_clusters
    rng = np.random.default_rng(902)
    queries = rng.standard_normal((100, 16)).astype(np.float32)
    oracles = [brute_force_topk(X, q, 1, DistanceKind.L2_SQUARED) for q in queries]
    sweep = [max(1, round(C * pct)) for pct in (0.02, 0.05, 0.1, 0.25, 0.5, 1.0)]
    curve = []
    for ell in sweep:
        curve.append(float(np.mean([
            recall(o, ivf_search(index, X, q, 1, ell), 1) for q, o in zip(queries, oracles)
        ])))
    inversions = sum(1 for a, b in zip(curve, curve[1:]) if a > b)
    report(8, "IVF recall curve: exact at full sweep, near-monotone",
           curve[-1] == 1.0 and inversions <= 1,
           f"curve {['%.2f' % c for c in curve]}, inversions {inversions}")


def test_criterion_09_quantizer_contracts():
    X = gaussian(1000, 16, 1000)
    cb = pq_train(X, 4, 16, seed=1001)
    rng = np.random.default_rng(1002)
    queries = rng.standard_normal((100, 16))
    codes = pq_encode_all(cb, gaussian(100, 16, 1003))
    worst_rel = 0.0
    for qi in range(100):
        tables = pq_adc(cb, queries[qi])
        for ci in range(100):
            adc = float(tables[np.arange(4), codes[ci]].sum())
            direct = float(np.sum((queries[qi] - pq_decode(cb, codes[ci]).astype(np.float64)) ** 2))
            worst_rel = max(worst_rel, abs(adc - direct) / max(direct, 1e-12))
    adc_ok = worst_rel <= 1e-5

    opq = opq_train(X, 4, 16, iters=6, seed=1004)
    R = opq.rotation.astype(np.float64)
    orth_ok = np.abs(R @ R.T - np.eye(16)).max() <= 1e-6
    opq_trace = np.array(opq.objective_trace)
    opq_mono = bool(np.all(np.diff(opq_trace) <= 1e-9))

    Xa = gaussian(200, 8, 1005)
    aq_cb, _, aq_trace = aq_train(Xa, 2, 4, beam=16, iters=5, seed=1006)
    aq_mono = bool(np.all(np.diff(np.array(aq_trace)) <= 1e-9))
    words = aq_cb.codewords.astype(np.float64)
    beam_gap = 0.0
    for i in range(50):
        u = Xa.vectors[i].astype(np.float64)
        code = aq_encode(aq_cb, u, beam=16)  # B = C^2
        err = float(np.sum((u - words[0, code.codes[0]] - words[1, code.codes[1]]) ** 2))
        best = min(float(np.sum((u - words[0, a] - words[1, b]) ** 2))
                   for a in range(4) for b in range(4))
        beam_gap = max(beam_gap, abs(err - best))
    beam_ok = beam_gap <= 1e-9

    report(9, "PQ ADC identity, OPQ orthogonal+monotone, AQ monotone+beam-exhaustive",
           adc_ok and orth_ok and opq_mono and aq_mono and beam_ok,
           f"adc rel {worst_rel:.2e}, beam gap {beam_gap:.2e}")


def test_criterion_10_wedge_sampling():
    X = gaussian(10, 6, 1100)
    index = build_wedge_index(X)
    q64 = np.random.default_rng(1101).standard_normal(6)
    mat = X.vectors.astype(np.float64)
    N = np.abs(q64[None, :] * mat).sum()
    S = 100_000
    dim_table = alias_build(np.abs(q64[index.dims]) * index.column_sums)
    rng = np.random.default_rng(1102)
    counts = np.zeros(10)
    drawn = alias_sample_many(dim_table, rng, S)
    for slot in range(index.dims.size):
        n_t = int(np.count_nonzero(drawn == slot))
        if n_t == 0:
            continue
        t = int(index.dims[slot])
        pts = alias_sample_many(index.tables[slot], rng, n_t)
        counts += np.bincount(pts, weights=np.sign(q64[t] * mat[pts, t]), minlength=10)
    theory = (mat @ q64) / N
    var = np.abs(q64[None, :] * mat).sum(axis=1) / N - theory**2
    worst_z = float(np.max(np.abs(counts / S - theory) / np.sqrt(var / S)))

    Xr = gaussian(120, 16, 1103)
    index_r = build_wedge_index(Xr)
    rng = np.random.default_rng(1104)
    queries = rng.standard_normal((40, 16)).astype(np.float32)
    oracles = [brute_force_topk(Xr, q, 1, DistanceKind.NEG_INNER_PRODUCT) for q in queries]

    def rate(samples):
        hits = 0.0
        for i, (q, o) in enumerate(zip(queries, oracles)):
            res = wedge_topk(index_r, Xr, q, samples=samples, k=1, k_prime=5, seed=i)
            hits += recall(o, res, 1)
        return hits / len(queries)

    rates = [rate(s) for s in (20, 200, 4000)]
    increasing = rates[0] < rates[1] < rates[2]
    report(10, "wedge signed-count means within 3 sigma; top-1 rate rises with S",
           worst_z <= 3.0 and increasing,
           f"worst |z| {worst_z:.2f}, rates {['%.2f' % r for r in rates]}")


def test_criterion_11_boundedme():
    gap = 500 - 10
    x = (2.0 / 0.05**2) * math.log(2.0 * gap / (0.05 * (gap // 2 + 1)))
    want = min(64, max(1, math.ceil(min((1 + x) / (1 + x / 64), (x + x / 64) / (1 + x / 64)))))
    formula_ok = boundedme_schedule(500, 10, 0.05, 0.05, 64) == want

    ok = 0
    runs = 200
    cap_ok = True
    for s in range(runs):
        X = gaussian(500, 64, 1200 + s)
        q = np.random.default_rng(1500 + s).standard_normal(64).astype(np.float32)
        res, diag = boundedme_topk(X, q, k=10, eps=0.2, delta=0.1, seed=s)
        cap_ok = cap_ok and diag["products"] <= 500 * 64
        full = _contributions(X, q).mean(axis=1)
        kth_exact = np.sort(full)[::-1][9]
        kth_got = np.sort(full[res.ids])[::-1][9]
        ok += int(kth_exact - kth_got <= 0.2)
    rate = ok / runs
    report(11, "BoundedME eps-validity rate, work cap, schedule arithmetic",
           rate >= 1 - 0.1 - 0.05 and cap_ok and formula_ok,
           f"success {rate:.3f}, cap ok {cap_ok}, schedule ok {formula_ok}")


def test_criterion_12_sketches():
    # asymmetric upper bound: 1000 sketched vectors x 100 queries, no violations
    rng = np.random.default_rng(1600)
    d = 64
    sketches = []
    vectors = []
    for i in range(1000):
        nnz = int(rng.integers(4, 20))
        idx = np.sort(rng.choice(d, size=nnz, replace=False)).astype(np.int64)
        vals = (rng.exponential(1.0, size=nnz) + 1e-6) * rng.choice([-1.0, 1.0], size=nnz)
        u = SparseVector(indices=idx, values=vals.astype(np.float32), dim=d)
        vectors.append(u)
        sketches.append(asym_sketch(u, sketch_dim=32, h=2, seed=7))
    violations = 0
    for qi in range(100):
        q = rng.standard_normal(d).astype(np.float32)
        q64 = q.astype(np.float64)
        for u, sk in zip(vectors, sketches):
            exact = float(q64[u.indices] @ u.values.astype(np.float64))
            if asym_upper_bound(q, sk) < exact - 1e-9:
                violations += 1
    asym_ok = violations == 0

    # threshold sampling: unbiased mean, variance under the printed bound
    rng = np.random.default_rng(1601)
    u, v = rng.standard_normal(48), rng.standard_normal(48)
    truth = float(u @ v)
    ests = np.array([
        __t(u, v, s) for s in range(10_000)
    ])
    mean_ok = abs(ests.mean() - truth) <= 3 * ests.std() / np.sqrt(ests.size)
    star = (u != 0) & (v != 0)
    bound = 2 / 16 * max(np.sum(u[star] ** 2) * np.sum(v**2), np.sum(u**2) * np.sum(v[star] ** 2))
    var_ok = ests.var() <= 1.1 * bound

    # JL: unbiased, variance within 20% of the formula
    rng = np.random.default_rng(1602)
    a, b = rng.standard_normal(32), rng.standard_normal(32)
    jl_truth = float(a @ b)
    jl_ests = np.array([
        jl_ip_estimate(jl_project(JlSketcher(64, s), a), jl_project(JlSketcher(64, s), b))
        for s in range(10_000)
    ])
    jl_mean_ok = abs(jl_ests.mean() - jl_truth) <= 3 * jl_ests.std() / np.sqrt(jl_ests.size)
    jl_theory = (np.sum(a**2) * np.sum(b**2) + jl_truth**2 - 2 * np.sum(a**2 * b**2)) / 64
    jl_var_ok = abs(jl_ests.var() - jl_theory) <= 0.2 * jl_theory

    report(12, "asym bound, threshold estimator, JL estimator",
           asym_ok and mean_ok and var_ok and jl_mean_ok and jl_var_ok,
           f"asym violations {violations}, thr var {ests.var():.2f} <= {1.1 * bound:.2f}, "
           f"jl var ratio {jl_ests.var() / jl_theory:.3f}")


def __t(u, v, s):
    ts = ThresholdSketcher(out_dim=16, seed=s)
    from annkit.sketch import threshold_ip_estimate

    return threshold_ip_estimate(ts.sketch(u), ts.sketch(v))


def test_criterion_13_experiments():
    t0 = time.time()
    coin = experiment_coincidence(Distribution.GAUSSIAN_STD, m=10_000, dims=[4, 256], seed=1700)
    fracs = dict(zip(coin.column("d"), coin.column("coincidence_fraction")))
    coin_ok = fracs[256] >= 0.95 and fracs[4] < 0.5

    inst = experiment_instability(Distribution.GAUSSIAN_STD, m=10_000,
                                  dims=[10, 100, 1000], n_queries=100, seed=1701)
    ratios = inst.column("ratio_mean")
    inst_ok = ratios[0] > ratios[1] > ratios[2]
    elapsed = time.time() - t0
    report(13, "coincidence and instability trends at desk scale",
           coin_ok and inst_ok and elapsed < 300.0,
           f"coincidence d4={fracs[4]:.3f} d256={fracs[256]:.3f}, "
           f"ratios {['%.2f' % r for r in ratios]}, {elapsed:.0f}s")


def test_criterion_14_cli_determinism(tmp_path):
    def run(*argv):
        proc = subprocess.run([sys.executable, "-m", "annkit.harness.cli", *argv],
                              capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    results = []
    for attempt in ("a", "b"):
        base = tmp_path / attempt
        base.mkdir()
        data = base / "data.vecs"
        queries = base / "q.vecs"
        run("generate", "--m", "400", "--d", "8", "--seed", "11", "--out", str(data))
        run("generate", "--m", "5", "--d", "8", "--seed", "12", "--out", str(queries))
        index = base / "v.akx"
        run("build", "--index", "vamana", "--data", str(data), "--out", str(index),
            "--degree", "8", "--beam", "16", "--seed", "13")
        query_out = run("query", "--index-file", str(index), "--data", str(data),
                        "--queries", str(queries), "--k", "5")
        bench_out = run("bench", "ivf", "--data", str(data), "--queries", str(queries),
                        "--k", "3", "--sweep-l", "1,2,4", "--seed", "14")
        exp_out = run("experiment", "coincidence", "--dist", "gaussian", "--m", "500",
                      "--dims", "4,16", "--seed", "15")
        results.append((data.read_bytes(), index.read_bytes(), query_out, bench_out, exp_out))
    identical = all(x == y for x, y in zip(results[0], results[1]))
    report(14, "byte-identical artifacts across repeated seeded runs", identical)
