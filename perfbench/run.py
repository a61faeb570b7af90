"""annkit benchmark: one workload per process, checked against numpy.

Usage, from the repository root:

    python3 perfbench/run.py --workload query-clustered --seed 1 --seconds 20 --trace 0

It builds nothing: annkit is imported from ``src/`` of the checkout, and the
run fails (exit 2, no result line) when that is missing. ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` runs the workload once
untraced and once traced and prints the per-layer metrics, writing every
span to ``perfbench/out/``. The last line of standard output is the JSON
result; the line before it records the interpreter, numpy and BLAS
versions and the number of usable cores.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads; CLI children inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def read_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def peak_rss_mb() -> float:
    """This process's peak resident set (VmHWM); ru_maxrss would include
    the resident size of whatever process spawned this one."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
    }


def host_probe_ms() -> float:
    """A fixed numpy-plus-interpreter task; its time tells a slow machine
    from a slow program."""
    import numpy as np

    t0 = time.perf_counter()
    a = np.linspace(0.0, 1.0, 160 * 160).reshape(160, 160)
    for _ in range(8):
        a = np.tanh(a @ a / 160.0)
    total = 0
    for i in range(100_000):
        total += i & 7
    return 1000.0 * (time.perf_counter() - t0)


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(spec: dict, setups: list, rounds: list, peak_mb: float) -> dict:
    values = {
        "setup_s": statistics.median(setups),
        "build_s": statistics.median(r.build_s for r in rounds),
        "query_s": statistics.median(r.query_s for r in rounds),
        "recall_at_10": statistics.median(r.recall_at_10 for r in rounds),
        "index_bytes": rounds[-1].index_bytes,
        "peak_rss_mb": peak_mb,
    }
    return {m["name"]: metric(values[m["name"]], m["unit"]) for m in spec["end_to_end"]}


def per_layer(spec: dict, layers: dict) -> dict:
    """Every per-layer metric of the spec; a layer this workload does not
    exercise reads 0 (no calls, no time, no answers)."""
    names = {m["name"] for m in spec["per_layer"]}
    unknown = sorted(set(layers) - names)
    if unknown:
        raise RuntimeError(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
    return {m["name"]: metric(layers.get(m["name"], 0.0), m["unit"]) for m in spec["per_layer"]}


def main(argv=None) -> int:
    from workloads import WORKLOADS  # noqa: E402 (needs numpy, after thread pinning)

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure whole rounds until this many seconds have passed (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from tracing import NullTracer, Tracer

    spec = read_spec()
    workload = WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    probes: list = []

    def probe() -> None:
        if args.trace:
            probes.append(host_probe_ms())

    try:
        setups = []
        for _ in range(workload.setup_repeats):
            probe()
            t0 = time.perf_counter()
            inputs = workload.setup(args.seed, workdir)
            setups.append(time.perf_counter() - t0)
        probe()

        rounds = []
        t0 = time.perf_counter()
        while not rounds or (not args.trace and time.perf_counter() - t0 < args.seconds):
            rounds.append(workload.measure(inputs, NullTracer(), workdir))
            probe()
        if args.trace:
            tracer = Tracer()
            with tracer.rebind(*workload.rebind_targets()):
                traced = workload.measure(inputs, tracer, workdir)
            probe()
            rounds.append(traced)
            untraced = rounds[0].build_s + rounds[0].query_s
            layers = dict(traced.layers)
            layers["trace.overhead_pct"] = 100.0 * ((traced.build_s + traced.query_s) / untraced - 1.0)
            layers["host.probe_ms"] = statistics.median(probes)
            tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
            metrics = per_layer(spec, layers)
        else:
            child_peak = max(r.peak_rss_mb for r in rounds)
            metrics = end_to_end(spec, setups, rounds, child_peak or peak_rss_mb())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "rounds": len(rounds), "env": env, **result}
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print("perfbench env: " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if not (SRC / "annkit" / "__init__.py").is_file():
        sys.exit(fail(f"annkit sources not found under {SRC.relative_to(ROOT)}/ of this checkout"))
    sys.path[:0] = [str(HERE), str(SRC)]
    sys.exit(main())
