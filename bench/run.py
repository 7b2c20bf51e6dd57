"""Run one spinfridge benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Imports the package from `src/` of the checkout this file sits in, repeats
whole calls of the workload until S seconds have passed, checks every
result, and prints one JSON line last: `correct`, `attempted`, `failed`
and `metrics`. With `--trace 0` the metrics are `setup_s`, `run_s` and
`peak_rss_mib`; with `--trace 1` they are per-layer call counts and self
times from a traced run, and the spans are written to `bench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYERS, RESULT_COUNTERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"
# BLAS threads are pinned so a run does not depend on the OpenBLAS default.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
# Set-up is timed in this process and in this many fresh interpreters.
SETUP_PROBES = 4


def set_up(name: str, seed: int):
    """Import the package, build the inputs and make one LAPACK call.

    Returns (workload, seconds taken).
    """
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import spinfridge

    origin = Path(spinfridge.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"spinfridge imported from {origin}, not from "
                         f"{ROOT / 'src'}")
    import workloads

    if name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[name](seed)
    a = np.random.default_rng(seed).normal(size=(16, 16))
    np.linalg.eigvalsh(a + a.T)
    return workload, time.perf_counter() - start


def probe_setup(name: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def timed_calls(workload, seconds: float, tracer=None):
    """Repeat whole calls until `seconds` have passed.

    With a tracer, calls alternate untraced and traced, at least one each.
    Returns (untraced times, traced times, results, attempted, failed,
    peak RSS in MiB), attempted and failed counted in operations. The peak
    is read after the first successful call, so it covers set-up plus one
    call however many calls fit.
    """
    from spinfridge import SpinFridgeError

    plain, traced, results = [], [], []
    calls = failed = 0
    peak = None
    start = time.perf_counter()
    while calls < (2 if tracer else 1) \
            or time.perf_counter() - start < seconds:
        use_tracer = tracer is not None and calls % 2 == 1
        calls += 1
        t0 = time.perf_counter()
        try:
            if use_tracer:
                with tracer:
                    result = tracer.span(f"workload.{workload.name}",
                                         workload.call)()
            else:
                result = workload.call()
        except SpinFridgeError as exc:
            print(f"call failed: {exc!r}", file=sys.stderr)
            failed += workload.operations
            continue
        (traced if use_tracer else plain).append(time.perf_counter() - t0)
        results.append(result)
        if peak is None:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return plain, traced, results, calls * workload.operations, failed, peak


def layer_metrics(tracer, traced_calls: int, overhead: float) -> dict:
    """Per traced call: calls and self time per layer, plus counters."""
    totals = tracer.layer_totals()
    metrics = {}
    for layer in LAYERS:
        calls, self_s = totals.get(layer, (0, 0.0))
        metrics[f"{layer}.calls"] = (calls / traced_calls, "count")
        metrics[f"{layer}.self_s"] = (self_s / traced_calls, "s")
    for name in RESULT_COUNTERS:
        metrics[name] = (tracer.counters[name] / traced_calls, "count")
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    workload, setup_s = set_up(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setups = [setup_s] + [probe_setup(args.workload, args.seed)
                          for _ in range(SETUP_PROBES)]

    tracer = Tracer() if args.trace else None
    plain, traced, results, attempted, failed, peak_rss_mib = timed_calls(
        workload, args.seconds, tracer)
    if not plain or (tracer and not traced):
        raise SystemExit(f"{args.workload}: too few calls succeeded to time")

    problems = [p for result in results for p in workload.check(result)]
    problems += workload.verify(results[0])
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "run_s": (statistics.median(plain), "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
    else:
        overhead = statistics.median(traced) - statistics.median(plain)
        metrics = layer_metrics(tracer, len(traced), overhead)
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")

    print(f"{args.workload}: blas_threads={BLAS_THREADS} setups={setups} "
          f"untraced={plain} traced={traced}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
