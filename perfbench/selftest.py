"""Self-test of the benchmark's checks: planted wrong expectations are caught.

    python3 perfbench/selftest.py

Each case corrupts one expectation (or one recorded output) and runs the
affected operations through the same check the benchmark uses; the check
must stop with a mismatch that names the planted fault.  Exit status 0
when every plant is caught.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import reference as R  # noqa: E402
import workloads as W  # noqa: E402
from measure import timed_passes, warm_pass  # noqa: E402


@contextmanager
def planted(module, name, value):
    old = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, old)


def only(wl, keep):
    """The workload cut down to the operations whose task passes `keep`."""
    tasks = getattr(wl, "tasks", None)
    if tasks is None:
        wl.sets = wl.sets[:2]
    else:
        wl.tasks = [t for t in tasks if keep(t)][:1]
    return wl


def caught(label, run, needle):
    try:
        run()
    except R.Mismatch as e:
        ok = needle in str(e)
        print(f"{'caught' if ok else 'WRONG '}  {label}: {e}")
        return ok
    print(f"MISSED  {label}")
    return False


def check(wl):
    def go():
        ops = wl.bind(W.direct)
        warm_pass(wl, ops, wl.expectations())
    return go


def main() -> int:
    results = []
    fib = R.fibonacci
    with planted(R, "fibonacci", lambda n: fib(n) + 1):
        wl = only(W.Enumerate(0), lambda t: t[:2] == ("mask", "A:w"))
        results.append(caught("A:w count off by one", check(wl), "Fibonacci count"))

    member = R.member
    with planted(R, "member", lambda fam, s: (not member(fam, s)) if fam == "A:w^2" else member(fam, s)):
        wl = only(W.Query(0), None)
        results.append(caught("A:w^2 closed form negated", check(wl), "closed-form member"))

    counts = R.transfer_counts
    with planted(R, "transfer_counts", lambda lv, n: (counts(lv, n)[0] + 1, counts(lv, n)[1])):
        wl = only(W.Search(0), lambda t: t[0] == "transfer")
        results.append(caught("transfer spread count off by one", check(wl), "containment counts"))

    colour = R.sha_colour
    with planted(R, "sha_colour", lambda seed, k, s: colour(seed, k, s) % k + 1):
        wl = only(W.Search(0), lambda t: t[0] == "homogenize")
        results.append(caught("SHA-256 colour shifted", check(wl), "monochromatic"))

    union = R.union_members
    with planted(R, "union_members", lambda lv, g: union(lv, g)[1:]):
        wl = only(W.Enumerate(0), lambda t: t[0] == "union")
        results.append(caught("union level missing its first member", check(wl), "member list"))

    def replay_with_stale_output():
        wl = only(W.Search(0), lambda t: t[0] == "chain")
        ops = wl.bind(W.direct)
        expected = warm_pass(wl, ops, wl.expectations())
        expected[0] = expected[0][:0]  # as if the warm pass had seen no certificate
        timed_passes(wl, ops, expected, 0.0)

    results.append(caught("recorded output differs", replay_with_stale_output, "output changed"))

    print(f"{sum(results)}/{len(results)} planted faults caught")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
