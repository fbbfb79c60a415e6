"""Paths, environment and the timing loop shared by the plain and traced runs."""

from __future__ import annotations

import math
import os
import statistics
import time
from pathlib import Path
from time import perf_counter

from reference import expect
from workloads import digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# set before the interpreter starts: hash order and numpy's thread pools
ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def bench_env() -> dict:
    env = dict(os.environ, **ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def min_samples(p: float) -> int:
    """Fewest samples that leave ten beyond the p-th percentile."""
    return math.ceil(11 / (1 - p / 100))


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile; demands ten samples beyond it."""
    ordered = sorted(samples)
    k = math.ceil(p / 100 * len(ordered)) - 1
    expect(len(ordered) - 1 - k >= 10, "too few samples for the tail",
           f"{len(ordered)} samples at p{p}")
    return ordered[k]


def warm_pass(wl, ops, refs):
    """One untimed pass: every output is checked against its expectation.

    Returns what each later pass must reproduce exactly.
    """
    expected = []
    for i, (_kind, op) in enumerate(ops):
        out = op()
        wl.deep_check(i, out, refs[i])
        expected.append(digest(out))
    return expected


def timed_passes(wl, ops, expected, seconds: float, least: int = 1, on_output=None):
    """Whole passes until `seconds` have elapsed and `least` operations ran.

    Only the operations are timed; each output must equal the checked
    output of the warm pass.
    """
    latencies = []
    failed = passes = 0
    deadline = time.monotonic() + seconds
    while passes == 0 or time.monotonic() < deadline or len(latencies) < least:
        for i, (kind, op) in enumerate(ops):
            t0 = perf_counter()
            out = op()
            latencies.append(perf_counter() - t0)
            expect(digest(out) == expected[i], f"{wl.name} op {i} ({kind}): output changed")
            failed += wl.failed(i, out)
            if on_output is not None:
                on_output(kind, out)
        passes += 1
    return latencies, failed, passes


def least_latencies(latencies, ops_per_pass: int) -> list:
    """Each operation's least latency over the run's whole passes.

    Every operation of a pass repeats once per pass; its least latency in
    the run is its cost with the least interference from the rest of the
    machine, which on a shared host slows whole passes by up to 1.8x for
    minutes at a time.
    """
    return [min(latencies[i::ops_per_pass]) for i in range(ops_per_pass)]


def tail_latency(latencies, ops_per_pass: int, p: float) -> float:
    """Nearest-rank p-th percentile of every timed operation of the run,
    each counted at its operation's least latency.

    A percentile of the raw latencies timed the machine's stalls more
    than the slow operations: on a shared host an operation's median
    latency sat 1.5-1.7x above its least.
    """
    passes = len(latencies) // ops_per_pass
    return percentile(least_latencies(latencies, ops_per_pass) * passes, p)


def throughput(latencies, ops_per_pass: int) -> dict:
    """Throughput and median latency at each operation's best."""
    best = least_latencies(latencies, ops_per_pass)
    return {
        "ops_per_s": ops_per_pass / sum(best),
        "latency_p50_ms": statistics.median(best) * 1e3,
    }


def peak_rss_mib() -> float:
    """High-water resident memory of this process image, from the kernel.

    VmHWM belongs to the address space made at exec, whereas ru_maxrss
    keeps the resident size of the parent the process was forked from.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024  # kB
    raise RuntimeError("/proc/self/status has no VmHWM line")
