"""Fast self-test of the benchmark: ``python3 -m pytest perfbench``.

It runs every workload end to end at toy sizes, traced, and shows that the
checker fails an answer with a swapped id, a perturbed score or rows out of
order. The full-size benchmark is perfbench/run.py.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracle  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TOY = {
    "query-clustered": lambda: workloads.QueryClustered(
        m=2000, counts={"brute": 20, "ivf": 20, "rp": 20, "lsh": 20, "kd": 5, "boundedme": 5},
        build_repeats=2),
    "build-gaussian": lambda: workloads.BuildGaussian(m=300, cover_m=150, graph_queries=20, cover_queries=10),
    "cli-files": lambda: workloads.CliFiles(m=500, n_queries=8),
}
RUN_LAYERS = {"host.probe_ms", "trace.overhead_pct"}  # added by run.py itself


@pytest.fixture(scope="module")
def toy_rounds(tmp_path_factory):
    rounds = {}
    for name, make in TOY.items():
        workload = make()
        workdir = tmp_path_factory.mktemp(name)
        inputs = workload.setup(3, workdir)
        tracer = Tracer()
        with tracer.rebind(*workload.rebind_targets()):
            rounds[name] = workload.measure(inputs, tracer, workdir)
    return rounds


def test_workload_names_match_spec():
    assert sorted(TOY) == sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TOY))
def test_toy_workload_runs_clean(toy_rounds, name):
    rnd = toy_rounds[name]
    assert rnd.attempted > 0 and rnd.failed == 0
    assert 0.0 < rnd.recall_at_10 <= 1.0
    assert rnd.build_s > 0 and rnd.query_s > 0 and rnd.index_bytes > 0


def test_traced_layers_cover_the_spec(toy_rounds):
    produced = set(RUN_LAYERS)
    for rnd in toy_rounds.values():
        assert not produced & set(rnd.layers), "a per-layer metric comes from two workloads"
        produced |= set(rnd.layers)
    assert produced == {m["name"] for m in SPEC["per_layer"]}


@pytest.fixture
def data():
    rng = np.random.default_rng(0)
    X32 = rng.standard_normal((400, 16)).astype(np.float32)
    X32[200:210] = X32[100]  # exact ties
    Q32 = rng.standard_normal((30, 16)).astype(np.float32)
    Q32[0] = X32[100]
    return X32, Q32


@pytest.mark.parametrize("kind", [oracle.L2, oracle.IP])
def test_oracle_matches_a_full_sort(data, kind):
    X32, Q32 = data
    ids, scores = oracle.exact_topk(X32, Q32, 10, kind)
    all_ids = np.arange(len(X32))
    for i, q in enumerate(Q32):
        want_ids, want_scores = oracle.topk_of(all_ids, oracle.exact_scores(X32, all_ids, q, kind), 10)
        assert np.array_equal(ids[i], want_ids) and np.array_equal(scores[i], want_scores)


def test_oracle_falls_back_when_the_screen_is_unsure():
    X32 = np.ones((100, 4), dtype=np.float32)  # every point ties: no screen is certain
    ids, _ = oracle.exact_topk(X32, np.zeros((2, 4), dtype=np.float32), 5, oracle.L2)
    assert np.array_equal(ids, np.tile(np.arange(5), (2, 1)))


def _mutations(ids, scores):
    swapped = ids.copy()
    swapped[3] = next(i for i in range(10_000) if i not in set(ids.tolist()))
    perturbed = scores.copy()
    perturbed[2] = np.nextafter(perturbed[2], np.inf)
    return {
        "swapped id": (swapped, scores),
        "perturbed score": (ids, perturbed),
        "rows out of order": (ids[::-1].copy(), scores[::-1].copy()),
    }


def test_checker_fails_corrupted_answers(data):
    X32, Q32 = data
    q = Q32[5]
    truth_ids, truth_scores = oracle.exact_topk(X32, Q32[5:6], 10, oracle.L2)
    ids, scores = truth_ids[0], truth_scores[0]
    cand = np.arange(len(X32))
    assert oracle.check_exact(ids, scores, ids, X32, q, oracle.L2)
    assert oracle.check_rescored(ids, scores, X32, q, 10, oracle.L2)
    assert oracle.check_candidate_topk(ids, scores, cand, X32, q, 10, oracle.L2)
    for label, (bad_ids, bad_scores) in _mutations(ids, scores).items():
        assert not oracle.check_exact(bad_ids, bad_scores, ids, X32, q, oracle.L2), label
        assert not oracle.check_rescored(bad_ids, bad_scores, X32, q, 10, oracle.L2), label
        assert not oracle.check_candidate_topk(bad_ids, bad_scores, cand, X32, q, 10, oracle.L2), label


def test_csv_parser_fails_corrupted_blocks():
    rows = [f"0,{r},{i},{s!r}" for r, (i, s) in enumerate(zip([5, 9, 2], [0.5, 1.0, 2.0]))]
    good = "query_id,rank,id,score\n" + "\n".join(rows) + "\n"
    assert oracle.parse_query_csv(good, 1, 3, 10)[0] is not None
    out_of_order = good.replace("0,1,9,1.0", "0,1,9,3.0")
    repeated = good.replace("0,2,2,", "0,2,5,")
    out_of_range = good.replace("0,2,2,", "0,2,10,")
    short = "\n".join(good.splitlines()[:-1])
    for text in (out_of_order, repeated, out_of_range, short):
        assert oracle.parse_query_csv(text, 1, 3, 10)[0] is None


def test_graph_check_fails_self_loops_and_wide_nodes():
    assert oracle.check_graph([np.array([1, 2]), np.array([0]), np.array([0, 1])], cap=2)
    assert not oracle.check_graph([np.array([0, 2]), np.array([0]), np.array([0])], cap=2)
    assert not oracle.check_graph([np.array([1, 2]), np.array([0, 2]), np.array([0])], cap=1)


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "cli-files", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
