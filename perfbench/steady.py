"""Steadiness check: run every workload N times and summarize each metric.

Usage, from the repository root:

    python3 perfbench/steady.py --runs 10 [--first-seed 1]

Run i uses seed first_seed + i, and the workloads of BENCHMARK.json
alternate their order from one run to the next. Each run is its own
process, as the benchmark command is. For every end-to-end metric it
prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), min, max and the spread
(Q3 - Q1) / median, next to the metric's bound in BENCHMARK.json, and
the failed share of operations. The raw results are
appended to perfbench/out/steady.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(spec: dict, workload: str, results: list) -> list:
    lines = [f"{workload}: {len(results)} runs, failed share "
             f"{sorted({r['failed'] / r['attempted'] for r in results})}"]
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        lines.append(f"  {m['name']:13s} median {med:12.5g} {m['unit']:5s} q1 {q1:12.5g} q3 {q3:12.5g} "
                     f"min {min(values):12.5g} max {max(values):12.5g} spread {spread:6.2%} "
                     f"(bound {m['bound']:.0%})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    results: dict = {w: [] for w in names}
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    with open(out / "steady.jsonl", "a") as log:
        for i in range(args.runs):
            seed = args.first_seed + i
            for w in (names if i % 2 == 0 else names[::-1]):
                res = run_once(w, seed, spec["run_seconds"])
                results[w].append(res)
                log.write(json.dumps({"workload": w, "seed": seed, **res}) + "\n")
                log.flush()
                print(f"run {i + 1}/{args.runs} {w} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()), flush=True)
    for w in names:
        print("\n".join(summarize(spec, w, results[w])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
