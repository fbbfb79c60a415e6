"""Benchmark of the schreier library: one workload, one seed, one run.

    python3 perfbench/run.py --workload query --seed 1 --seconds 10 --trace 0

Run from the repository root; the library is imported from ``src``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones (see README.md).

Every workload is a closed loop in one process and one thread: the next
operation starts when the previous one has returned.  A run repeats whole
passes over the workload's seeded inputs until ``--seconds`` have gone by.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from measure import (ENV, HERE, SRC, bench_env, min_samples, peak_rss_mib,
                     tail_latency, throughput, timed_passes, warm_pass)

SETUP_PROBES = 5

UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
         "latency_tail_ms": "ms", "peak_rss_mib": "MiB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description="schreier benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: time one cold set-up and exit")
    return ap.parse_args(argv)


def setup_probe(args) -> None:
    """Cold set-up in a fresh process: import, bind and one warm pass.

    Prints when it became ready, how long input generation took (set-up
    time excludes it) and the process's peak resident memory.
    """
    from workloads import WORKLOADS, direct

    t0 = time.monotonic()
    wl = WORKLOADS[args.workload](args.seed)
    excluded = time.monotonic() - t0
    for _kind, op in wl.bind(direct):
        op()
    print(json.dumps({"ready": time.monotonic(), "excluded": excluded,
                      "peak_rss_mib": peak_rss_mib()}))


def measure_cold_processes(args) -> dict:
    """Set-up time and peak memory of fresh processes, median of each.

    A probe process holds the library and one pass of the workload and
    nothing of the benchmark's own checking, so its peak memory is the
    program's.
    """
    times, peaks = [], []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe"]
        t0 = time.monotonic()  # CLOCK_MONOTONIC: the same clock in the child
        done = subprocess.run(cmd, env=bench_env(), capture_output=True, text=True,
                              timeout=120, check=True)
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        times.append(probe["ready"] - t0 - probe["excluded"])
        peaks.append(probe["peak_rss_mib"])
    return {"setup_s": statistics.median(times), "peak_rss_mib": statistics.median(peaks)}


def run_untraced(args, wl) -> dict:
    from workloads import direct

    refs = wl.expectations()
    ops = wl.bind(direct)
    expected = warm_pass(wl, ops, refs)
    latencies, failed, _ = timed_passes(wl, ops, expected, args.seconds,
                                        least=min_samples(wl.tail_percentile))
    metrics = throughput(latencies, len(ops))
    metrics["latency_tail_ms"] = tail_latency(latencies, len(ops), wl.tail_percentile) * 1e3
    metrics.update(measure_cold_processes(args))
    return {"attempted": len(latencies), "failed": failed, "metrics": metrics,
            "units": UNITS}


def main(argv=None) -> int:
    args = parse_args(argv)
    if any(os.environ.get(k) != v for k, v in ENV.items()):
        # re-enter with the benchmark's own environment
        os.execve(sys.executable, [sys.executable, str(HERE / "run.py")] + sys.argv[1:],
                  bench_env())
    sys.path.insert(0, str(SRC))
    try:
        import schreier  # noqa: F401
    except ImportError as e:
        print(f"cannot import the library from {SRC}: {e}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args)
        return 0

    from reference import Mismatch
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed)
    try:
        if args.trace:
            from tracing import run_traced

            result = run_traced(args, wl)
        else:
            result = run_untraced(args, wl)
    except Mismatch as e:
        print(f"MISMATCH {e}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": result["units"][k]}
                    for k, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
