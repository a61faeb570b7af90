#!/usr/bin/env python3
"""Time each annkit CLI process at the cli-files benchmark's flags.

One round is ten steps, each one ``python -m annkit.harness.cli`` process
timed from start to exit:

* ``generate-data`` and ``generate-queries``: the cli-files set-up, the
  two processes its ``setup_s`` is made of (10000 x 64 and 100 x 64
  Gaussian rows, data seed 1 and query seed 1000004);
* ``build-{pq,opq,lsh,ivf}`` and ``query-{pq,opq,lsh,ivf}``: cli-files'
  build and query processes with its flags (read from
  ``perfbench/workloads.py``), build seed 0, k = 10.

Several source trees can be timed in one run, each given as
``--tree LABEL=SRC``. Every step runs once per tree in turn, the trees'
order reversed each round, so that drift of the host falls on all of them
alike. An untimed first round per tree writes its output files; every
tree's ``.vecs``, ``.akx`` and ``.csv`` bytes must equal the first tree's,
or the run fails. Children get one BLAS thread and the caller's
environment otherwise, bytecode caching included.

Rows are merged into ``BENCH_cli.json`` at the repository root under each
label and step: the median and quartiles of the process seconds, and
every run. For example, with a checkout of an earlier commit's ``src``:

    python scripts/bench_cli.py --tree before=/tmp/parent/src --tree after=src --rounds 12
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402

from workloads import CF_BUILD_FLAGS, CF_D, CF_KINDS, CF_M, CF_QUERIES, CF_QUERY_FLAGS, K  # noqa: E402

SEED = 1


def steps() -> dict:
    """Step name -> the CLI arguments, with files named relative to the
    tree's work directory."""
    out = {
        "generate-data": ["generate", "--dist", "gaussian", "--m", str(CF_M), "--d", str(CF_D),
                          "--seed", str(SEED), "--out", "data.vecs"],
        "generate-queries": ["generate", "--dist", "gaussian", "--m", str(CF_QUERIES), "--d", str(CF_D),
                             "--seed", str(SEED + 1_000_003), "--out", "queries.vecs"],
    }
    for kind in CF_KINDS:
        out[f"build-{kind}"] = ["build", "--index", kind, "--data", "data.vecs", "--out", f"{kind}.akx",
                                "--seed", "0", *CF_BUILD_FLAGS[kind]]
    for kind in CF_KINDS:
        out[f"query-{kind}"] = ["query", "--index-file", f"{kind}.akx", "--data", "data.vecs",
                                "--queries", "queries.vecs", "--k", str(K), "--out", f"{kind}.csv",
                                *CF_QUERY_FLAGS[kind]]
    return out


def run_step(argv: list, src: str, workdir: Path) -> float:
    env = dict(os.environ, PYTHONPATH=src)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "annkit.harness.cli", *argv], env=env, cwd=workdir,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    seconds = time.perf_counter() - t0
    if proc.returncode:
        raise SystemExit(f"bench_cli: {' '.join(argv)} with {src} exited {proc.returncode}: "
                         f"{proc.stderr.decode(errors='replace')}")
    return seconds


def digests(workdir: Path) -> dict:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(workdir.iterdir())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", required=True, metavar="LABEL=SRC",
                        help="a label and the src directory it times (repeatable)")
    parser.add_argument("--rounds", type=int, default=12)
    args = parser.parse_args(argv)
    trees = {label: str(Path(src).resolve()) for label, src in (tree.split("=", 1) for tree in args.tree)}

    plan = steps()
    seconds = {label: {step: [] for step in plan} for label in trees}
    with tempfile.TemporaryDirectory() as tmp:
        workdirs = {label: Path(tmp) / label for label in trees}
        for label, src in trees.items():
            workdirs[label].mkdir()
            for step_argv in plan.values():
                run_step(step_argv, src, workdirs[label])
        first, *others = trees
        outputs = digests(workdirs[first])
        for label in others:
            if digests(workdirs[label]) != outputs:
                raise SystemExit(f"bench_cli: the output files of {label} differ from those of {first}")
        order = list(trees)
        for _ in range(args.rounds):
            for step, step_argv in plan.items():
                for label in order:
                    seconds[label][step].append(run_step(step_argv, trees[label], workdirs[label]))
            order.reverse()

    path = ROOT / "BENCH_cli.json"
    doc = json.loads(path.read_text()) if path.exists() else {"runs": {}}
    machine = {"python": platform.python_version(), "numpy": np.__version__, "machine": platform.machine(),
               "cpus": os.cpu_count(), "blas_threads": "1",
               "bytecode_written": not os.environ.get("PYTHONDONTWRITEBYTECODE")}
    for label in trees:
        rows = {}
        for step, runs in seconds[label].items():
            q1, median, q3 = statistics.quantiles(runs, n=4)
            rows[step] = {"median_s": round(median, 4), "q1_s": round(q1, 4), "q3_s": round(q3, 4),
                          "seconds": [round(s, 4) for s in runs]}
        doc["runs"][label] = {"steps": rows, "rounds": args.rounds, "outputs_sha256": outputs, "machine": machine}
        print(f"{label}: " + ", ".join(f"{step} {row['median_s']:.3f} s" for step, row in rows.items()))
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
