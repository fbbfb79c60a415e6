"""The traced run: spans around the benchmark's calls into each layer.

A span is ``[name, start, end, parent, callback_s, size]``.  Spans stay in
memory and are written to ``perfbench/out/`` when the run ends.  Calls
the program makes back into objects the benchmark passed in (a counting
colouring and a counting family) are not spans: their count and time are
charged to the innermost open span, so a search span's self time is its
duration minus its child spans and those callbacks.

Every traced run reports every per-layer metric.  The named workload
alternates untraced and traced passes for the run length, which gives the
tracing overhead; each other workload runs one traced pass; then come
the layer replays, the CLI cold start and the acceptance checks.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from reference import expect

SIZERS = {
    "families.enumerate": len,
    "masks.build": lambda fam: fam.member_count(),
}

SEARCH_KINDS = ("homogenize", "dichotomy", "separation", "chain", "transfer")

# name -> (unit, better); the order is the order of the report
PER_LAYER = {
    "ordinals.descend_per_s": ("1/s", "higher"),
    "ordinals.compare_per_s": ("1/s", "higher"),
    "finsets.subsets_per_s": ("1/s", "higher"),
    "families.member_per_s": ("1/s", "higher"),
    "families.star_per_s": ("1/s", "higher"),
    "families.union_member_per_s": ("1/s", "higher"),
    "families.enumerate_members_per_s": ("1/s", "higher"),
    "canonical.rep_per_s": ("1/s", "higher"),
    "canonical.trichotomy_per_s": ("1/s", "higher"),
    "rank.symbolic_per_s": ("1/s", "higher"),
    "masks.build_members_per_s": ("1/s", "higher"),
    "masks.section_per_s": ("1/s", "higher"),
    "masks.root_mib": ("MiB", "lower"),
    "colorings.calls": ("count", "lower"),
    "colorings.busy_s": ("s", "lower"),
    "search.member_calls": ("count", "lower"),
    "search.self_s": ("s", "lower"),
    **{f"search.{k}_ms": ("ms", "lower") for k in SEARCH_KINDS},
    "certificates.verify_ms": ("ms", "lower"),
    "certificates.roundtrip_per_s": ("1/s", "higher"),
    "cli.cold_start_s": ("s", "lower"),
    **{f"acceptance.check_{n:02d}_s": ("s", "lower") for n in range(1, 12)},
    "trace.ops_overhead_pct": ("%", "lower"),
    "trace.p50_overhead_pct": ("%", "lower"),
}

CLI_RUNS = 3
REPLAY_S = 0.3


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.callbacks = defaultdict(int)
        self.callback_s = defaultdict(float)

    def call(self, name, fn, *args):
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, 0.0, 1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            out = fn(*args)
        finally:
            rec[2] = perf_counter()
            self.stack.pop()
        sizer = SIZERS.get(name)
        if sizer is not None:
            rec[5] = sizer(out)
        return out

    def callback(self, kind, seconds):
        self.callbacks[kind] += 1
        self.callback_s[kind] += seconds
        if self.stack:
            self.spans[self.stack[-1]][4] += seconds

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            for i, (name, a, b, parent, cb, size) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": a - t0, "end": b - t0,
                                    "parent": parent, "callback_s": cb, "size": size}) + "\n")


def counting_factories(tracer):
    """A family whose member counts then delegates, and a counting colouring."""
    from schreier import Coloring, FamilySpec, hash_coloring, parse_family

    class CountingSpec(FamilySpec):
        def member(self, s):
            t0 = perf_counter()
            try:
                return FamilySpec.member(self, s)
            finally:
                tracer.callback("member", perf_counter() - t0)

    def spec(text):
        base = parse_family(text)
        return CountingSpec(kind=base.kind, ordinal=base.ordinal)

    def coloring(seed, colors):
        base = hash_coloring(seed, colors)

        def oracle(s):
            t0 = perf_counter()
            try:
                return base.oracle(s)
            finally:
                tracer.callback("coloring", perf_counter() - t0)

        return Coloring(oracle, colors=colors, name=base.name)

    return spec, coloring


def traced_ops(wl, tracer):
    if wl.name == "search":
        ops = wl.bind(tracer.call, *counting_factories(tracer))
    else:
        ops = wl.bind(tracer.call)
    return [(kind, lambda k=kind, op=op: tracer.call(f"op.{k}", op)) for kind, op in ops]


# -- replays of single layers -----------------------------------------


def _replay(tracer, name, body, count):
    """Repeat body (which does `count` units of work) for REPLAY_S seconds."""
    done = 0
    t_end = time.monotonic() + REPLAY_S
    while done == 0 or time.monotonic() < t_end:
        tracer.call(name, body)
        tracer.spans[-1][5] = count
        done += 1


def replay_layers(tracer, query, enumerate_wl):
    from schreier import Window, compare, descend, parse_family
    from workloads import THIN_PANEL

    steps, pairs = [], []
    for text in THIN_PANEL:
        xi = parse_family(text).system_ordinal()
        for s in query.sets:
            r = xi
            for n in s:
                if r.is_zero:
                    break
                nxt = descend(r, n)
                steps.append((r, n))
                pairs.append((r, nxt))
                r = nxt

    def walk():
        for r, n in steps:
            descend(r, n)

    def comparisons():
        for a, b in pairs:
            compare(a, b)

    windows = [Window(g[0], g[-1], g) for kind, _fam, g in enumerate_wl.tasks
               if kind in ("enum", "star")]

    def subsets():
        for w in windows:
            for _ in w.subsets():
                pass

    _replay(tracer, "ordinals.descend", walk, len(steps))
    _replay(tracer, "ordinals.compare", comparisons, len(pairs))
    _replay(tracer, "finsets.subsets", subsets, sum(1 << len(w.ground) for w in windows))


def cli_cold_start(env, root) -> float:
    times = []
    for _ in range(CLI_RUNS):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-m", "schreier.cli", "member", "--family", "A:w",
             "--set", "{3,5,9}"],
            env=env, cwd=root, capture_output=True, text=True, timeout=60)
        times.append(time.monotonic() - t0)
        expect(done.returncode == 0 and done.stdout.strip() == "true",
               "cli member A:w {3,5,9}", f"{done.returncode} {done.stdout!r}")
    return statistics.median(times)


def acceptance_times():
    from schreier import run_one

    out = {}
    for n in range(1, 12):
        res = run_one(n)
        expect(res.passed, f"acceptance check {n}", res.detail)
        out[f"acceptance.check_{n:02d}_s"] = res.seconds
    return out


# -- the run ------------------------------------------------------------


def layer_metrics(tracer, search_passes, root_bytes):
    spans = defaultdict(list)  # name -> [(duration, callback_s, size)]
    for name, a, b, _parent, cb, size in tracer.spans:
        spans[name].append((b - a, cb, size))

    def rate(name, sized=False):
        got = spans[name]
        expect(bool(got), f"trace has no {name} spans")
        return sum(s if sized else 1 for _, _, s in got) / sum(d for d, _, _ in got)

    def median_ms(name):
        return statistics.median(d for d, _, _ in spans[name]) * 1e3

    def per_pass(total):
        expect(total % search_passes == 0, "per-pass count differs between passes",
               f"{total} over {search_passes}")
        return total // search_passes

    m = {
        "ordinals.descend_per_s": rate("ordinals.descend", sized=True),
        "ordinals.compare_per_s": rate("ordinals.compare", sized=True),
        "finsets.subsets_per_s": rate("finsets.subsets", sized=True),
        "families.member_per_s": rate("families.member"),
        "families.star_per_s": rate("families.star"),
        "families.union_member_per_s": rate("families.union_member"),
        "families.enumerate_members_per_s": rate("families.enumerate", sized=True),
        "canonical.rep_per_s": rate("canonical.rep"),
        "canonical.trichotomy_per_s": rate("canonical.trichotomy"),
        "rank.symbolic_per_s": rate("rank.symbolic"),
        "masks.build_members_per_s": rate("masks.build", sized=True),
        "masks.section_per_s": rate("masks.section"),
        "masks.root_mib": root_bytes / 2 ** 20,
        "colorings.calls": per_pass(tracer.callbacks["coloring"]),
        "colorings.busy_s": tracer.callback_s["coloring"] / search_passes,
        "search.member_calls": per_pass(tracer.callbacks["member"]),
        "search.self_s": sum(d - cb for k in SEARCH_KINDS
                             for d, cb, _ in spans[f"search.{k}"]) / search_passes,
    }
    for k in SEARCH_KINDS:
        m[f"search.{k}_ms"] = median_ms(f"search.{k}")
    m["certificates.verify_ms"] = median_ms("certificates.verify")
    trips = len(spans["certificates.to_json"])
    m["certificates.roundtrip_per_s"] = trips / sum(
        d for name in ("certificates.to_json", "certificates.from_json")
        for d, _, _ in spans[name])
    return m


def run_traced(args, named):
    from measure import HERE, ROOT, bench_env, throughput, timed_passes, warm_pass
    from workloads import WORKLOADS, direct

    tracer = Tracer()
    workloads = {name: (named if name == named.name else cls(args.seed))
                 for name, cls in WORKLOADS.items()}
    plain_ops, expected = {}, {}
    for name, wl in workloads.items():
        plain_ops[name] = wl.bind(direct)
        expected[name] = warm_pass(wl, plain_ops[name], wl.expectations())

    root_bytes = 0

    def note_root(kind, out):
        nonlocal root_bytes
        if kind == "mask":
            root_bytes = max(root_bytes, out[2].nbytes)

    # untraced and traced passes alternate, so both see the same load
    # from the rest of the machine
    named_ops = traced_ops(named, tracer)
    plain, traced = [], []
    failed = passes = 0
    deadline = time.monotonic() + args.seconds
    while passes == 0 or time.monotonic() < deadline:
        for ops, sink, hook in ((plain_ops[named.name], plain, None),
                                (named_ops, traced, note_root)):
            lat, f, _ = timed_passes(named, ops, expected[named.name], 0.0, on_output=hook)
            sink += lat
            failed += f
        passes += 1
    search_passes = passes if named.name == "search" else 1
    for name, wl in workloads.items():
        if wl is not named:
            timed_passes(wl, traced_ops(wl, tracer), expected[name], 0.0, on_output=note_root)

    replay_layers(tracer, workloads["query"], workloads["enumerate"])
    metrics = layer_metrics(tracer, search_passes, root_bytes)
    metrics["cli.cold_start_s"] = cli_cold_start(bench_env(), ROOT)
    metrics.update(acceptance_times())

    n = len(expected[named.name])
    untraced, with_trace = throughput(plain, n), throughput(traced, n)
    metrics["trace.ops_overhead_pct"] = (untraced["ops_per_s"] / with_trace["ops_per_s"] - 1) * 100
    metrics["trace.p50_overhead_pct"] = (
        with_trace["latency_p50_ms"] / untraced["latency_p50_ms"] - 1) * 100
    tracer.write(HERE / "out" / f"trace-{named.name}-seed{args.seed}.jsonl")
    return {
        "attempted": len(plain) + len(traced),
        "failed": failed,
        "metrics": {k: metrics[k] for k in PER_LAYER},
        "units": {k: unit for k, (unit, _) in PER_LAYER.items()},
    }
