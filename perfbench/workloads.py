"""The three workloads: seeded inputs, operations, and their checks.

Each workload is built in three steps with different costs:

* ``Workload(seed)`` makes the inputs from the seed alone, without the
  program (input generation, excluded from set-up time);
* ``bind(call)`` turns them into operations on the program, routing every
  call into a public function through ``call(name, fn, *args)`` so the
  traced run can time it;
* ``expectations()`` computes what the outputs must be, apart from the
  program (reference work, also excluded from set-up time).

Every pass runs the same operations in the same order, so the share of
failed operations is the same in every pass.
"""

from __future__ import annotations

import hashlib
import random
from math import comb
from typing import Any, Callable, List, Sequence, Tuple

import reference as R
from reference import expect

Call = Callable[..., Any]


def direct(_name: str, fn, *args):
    return fn(*args)


def _thinned(rng: random.Random, hi: int) -> Tuple[int, ...]:
    """[1, hi] without two seeded elements among its top four.

    Every seed gets a ground of the same size whose small elements, which
    set most of the membership work, are all present; dropping lower
    elements moved the work of a pass by a fifth from seed to seed.
    """
    gone = set(rng.sample(range(hi - 3, hi + 1), 2))
    return tuple(x for x in range(1, hi + 1) if x not in gone)


# -- query ------------------------------------------------------------

THIN_PANEL = ("A:w", "A:w+1", "A:w*2", "A:w^2", "A:w^w")
UNION_PANEL = ("F:1", "F:2")


class Query:
    """Point questions about one long set against the whole family panel."""

    name = "query"
    # ten of the 160 sets lie beyond the tail, and with that many sets the
    # dearest tenth costs much the same for every seed
    tail_percentile = 93
    sets_per_pass = 160
    set_length = 48

    def __init__(self, seed: int):
        rng = random.Random(f"query:{seed}")
        self.sets: List[Tuple[int, ...]] = []
        for i in range(self.sets_per_pass):
            # runs of whole A:w blocks (a block starting at v has v
            # elements), cut to a fixed length; the cut leaves the tail
            s: List[int] = []
            v = 3 + i % 2
            while len(s) < self.set_length:
                x = v
                s.append(x)
                for _ in range(v - 1):
                    x += rng.choice((1, 2))
                    s.append(x)
                v = x + rng.choice((1, 2))
            self.sets.append(tuple(s[: self.set_length]))

    def bind(self, call: Call):
        from schreier import canonical_rep, parse_family, symbolic_rank, trichotomy

        thin = [(parse_family(t), parse_family(t).system_ordinal()) for t in THIN_PANEL]
        union = [parse_family(t) for t in UNION_PANEL]

        def ask(s):
            out = []
            for spec, xi in thin:
                m = call("families.member", spec.member, s)
                st = call("families.star", spec.star, s)
                rep = call("canonical.rep", canonical_rep, spec, s)
                tri = call("canonical.trichotomy", trichotomy, spec, s)
                head = rep.blocks[0] if rep.blocks else s
                ranks = tuple(
                    call("rank.symbolic", symbolic_rank, xi, p)
                    for p in (rep.tail, head, head[:-1])
                )
                out.append((m, st, rep, tri, ranks))
            for spec in union:
                out.append((call("families.union_member", spec.member, s),
                            call("families.union_star", spec.star, s)))
            return out

        self._member = {t: spec.member for t, (spec, _) in zip(THIN_PANEL, thin)}
        return [("query", lambda s=s: ask(s)) for s in self.sets]

    def expectations(self):
        return [None] * len(self.sets)

    def deep_check(self, i: int, out, _ref) -> None:
        s = self.sets[i]
        for fam, (m, st, rep, tri, ranks) in zip(THIN_PANEL, out):
            where = f"query set {i} on {fam}"
            blocks, tail = rep.blocks, rep.tail
            head = blocks[0] if blocks else s
            expect(rep.reconstruct() == s, f"{where}: reconstruct", f"{rep}")
            prefixes = [k for k in range(1, len(s) + 1) if self._member[fam](s[:k])]
            expect(len(prefixes) <= 1, f"{where}: more than one member prefix")
            for b in blocks:
                expect(self._member[fam](b), f"{where}: block {b} is not a member")
            expect((str(ranks[1]) == "0") == bool(blocks),
                   f"{where}: rank 0 must hold exactly for members", f"{ranks[1]}")
            expect(str(ranks[2]) != "0" and str(ranks[0]) != "0",
                   f"{where}: non-member prefix has rank 0")
            want_tri = ("ExtendsMember", blocks[0]) if blocks else ("ProperPrefixOfMember", None)
            expect(tri == want_tri, f"{where}: trichotomy disagrees with the decomposition")
            expect(m == (len(blocks) == 1 and not tail), f"{where}: member")
            expect(st == (len(blocks) + bool(tail) <= 1), f"{where}: star")
            if fam in R.CLOSED_FORM_FAMILIES:
                expect(m == R.member(fam, s), f"{where}: closed-form member")
                expect(st == R.star(fam, s), f"{where}: closed-form star")
                expect((blocks, tail) == R.decompose(fam, s),
                       f"{where}: closed-form decomposition")
                for p, r in zip((tail, head, head[:-1]), ranks):
                    expect(str(r) == R.residual_text(fam, p),
                           f"{where}: closed-form rank of {p}", f"{r}")
        for level, (m, st) in zip((1, 2), out[len(THIN_PANEL):]):
            expect(m == R.union_member(level, s), f"query set {i} on F:{level}: member")
            expect(st == m, f"query set {i} on F:{level}: star of a nonempty set")

    def failed(self, _i: int, _out) -> bool:
        return False


# -- enumerate --------------------------------------------------------

MASK_TASKS = (("A:w", 28), ("A:w+1", 23), ("A:w*2", 21), ("A:w^2", 21), ("A:w^w", 18))
GENERIC_FAMILIES = ("A:2", "A:3", "A:w", "A:w+1", "A:w*2", "A:w^2")
STAR_FAMILIES = ("A:w", "A:w^2")


class Enumerate:
    """Whole families listed on windows: mask engine, generic filter, union levels."""

    name = "enumerate"
    tail_percentile = 95

    def __init__(self, seed: int):
        rng = random.Random(f"enumerate:{seed}")
        self.tasks: List[Tuple[str, str, Any]] = []
        self.tasks += [("mask", fam, hi) for fam, hi in MASK_TASKS]
        self.tasks += [("enum", fam, _thinned(rng, 14)) for fam in GENERIC_FAMILIES]
        self.tasks += [("star", fam, _thinned(rng, 14)) for fam in STAR_FAMILIES]
        # union-level counts swing widely with the ground, so these stay fixed
        self.tasks += [("union", 1, tuple(range(1, 19))), ("union", 2, tuple(range(1, 15)))]
        # the order stays fixed, so every run has the same allocation history

    def bind(self, call: Call):
        from schreier import (MaskFamily, Window, enumerate_family,
                              enumerate_union_schreier, parse_family, star_closure)

        def window(ground):
            return Window(ground[0], ground[-1], ground)

        def masks(xi, hi):
            fam = call("masks.build", MaskFamily, xi, hi)
            count = call("masks.count", fam.member_count)
            sections = tuple(len(call("masks.section", fam.section_masks, m))
                             for m in range(1, hi + 1))
            return count, sections, fam.member_masks()

        ops = []
        for kind, fam, arg in self.tasks:
            if kind == "mask":
                xi = parse_family(fam).system_ordinal()
                op = lambda xi=xi, hi=arg: masks(xi, hi)
            elif kind == "enum":
                op = lambda spec=parse_family(fam), w=window(arg): call(
                    "families.enumerate", enumerate_family, spec, w)
            elif kind == "star":
                op = lambda spec=parse_family(fam), w=window(arg): call(
                    "families.star_closure", star_closure, spec, w)
            else:
                op = lambda a=fam, w=window(arg): call(
                    "families.enumerate_union", enumerate_union_schreier, a, w)
            ops.append((kind, op))
        return ops

    def expectations(self):
        refs = []
        for kind, fam, arg in self.tasks:
            if kind == "mask":
                refs.append(R.member_counts(fam, arg) if fam in R.CLOSED_FORM_FAMILIES else None)
            elif kind == "union":
                refs.append(R.union_members(fam, arg))
            else:
                k = R.finite_index(fam)
                members = [s for s in R.subsets(arg)
                           if (len(s) == k if k is not None else R.member(fam, s))]
                if kind == "star":
                    seen = {s[:j] for s in members for j in range(len(s) + 1)}
                    members = sorted(seen | {()}, key=lambda s: (len(s), s))
                refs.append(members)
        return refs

    def deep_check(self, i: int, out, ref) -> None:
        kind, fam, arg = self.tasks[i]
        where = f"enumerate task {i} ({kind} {fam} on {arg})"
        if kind != "mask":
            if kind == "enum" and R.finite_index(fam) is not None:
                expect(len(out) == comb(len(arg), R.finite_index(fam)),
                       f"{where}: binomial count", f"{len(out)}")
            expect(out == ref, f"{where}: member list differs from the closed form",
                   f"{len(out)} vs {len(ref)}")
            return
        count, sections, root = out
        expect(sum(sections) == count, f"{where}: section sizes sum to member_count",
               f"{sum(sections)} vs {count}")
        expect(len(root) == count, f"{where}: root array length")
        _check_masks_thin(root, f"{where}")
        if fam == "A:w":
            expect(count == R.fibonacci(arg), f"{where}: Fibonacci count", f"{count}")
        if ref is not None:
            expect((count, list(sections)) == ref, f"{where}: closed-form counts")
            step = max(1, len(root) // 2000)
            for m in root[::step]:
                s = _decode(int(m))
                expect(R.member(fam, s), f"{where}: {s} is not a member")

    def failed(self, _i: int, _out) -> bool:
        return False


def _decode(m: int) -> Tuple[int, ...]:
    return tuple(e for e in range(m.bit_length()) if m >> e & 1)


def _check_masks_thin(root, where: str) -> None:
    """No mask is a proper initial segment (its lowest bits) of another.

    Strips the highest bit of every mask repeatedly and looks each proper
    prefix up in the sorted array; distinct masks are required too.
    """
    import numpy as np

    if len(root) == 0:
        return
    expect(int(root.max()) < 1 << 52, f"{where}: masks too wide for the float check")
    ordered = np.sort(root)
    expect(bool(np.all(ordered[1:] != ordered[:-1])), f"{where}: duplicate masks")
    for lo in range(0, len(root), 1 << 16):
        cur = root[lo: lo + (1 << 16)].copy()
        while True:
            top = np.floor(np.log2(cur.astype(np.float64))).astype(np.uint64)
            cur = cur ^ (np.uint64(1) << top)
            cur = cur[cur != 0]
            if len(cur) == 0:
                break
            pos = np.minimum(np.searchsorted(ordered, cur), len(ordered) - 1)
            expect(not bool(np.any(ordered[pos] == cur)),
                   f"{where}: the mask array is not thin")


# -- search -----------------------------------------------------------

# backtracking work varies a lot from one colouring to the next, so each
# pass searches many small instances and their sum moves little with --seed
HOMOGENIZE = (("A:2", 18, 4), ("A:3", 16, 4), ("A:w", 18, 5))
HOMOGENIZE_EACH = 16
# 3-colour certificates are rejected offline because the colouring's name
# drops its palette size; their seeds stay fixed so that the failed share
# is the same for every --seed
THREE_COLOUR_SEEDS = (0, 1, 2, 3)
DICHOTOMIES = (("down:F:1", "exL", 30, "B"), ("down:exL", "exR", 30, "A"))
SEPARATIONS = (("1", "2", 16, 4), ("2", "3", 16, 5), ("2", "w", 20, 6),
               ("w", "w+1", 20, 6), ("w", "w*2", 20, 6), ("w", "w^2", 20, 6))
CHAINS = (("down:A:3", 12, 4), ("down:F:1", 20, 6), ("down:exL", 20, 8))
TRANSFERS = ((1, 16), (2, 14))


def _closed_predicate(desc: str) -> Callable[[Sequence[int]], bool]:
    """The hereditary predicates the search workload uses, in closed form."""
    return {
        "down:F:1": lambda t: not t or len(t) <= t[0],
        "down:exL": lambda t: not t or len(t) <= 2 * t[0] + 1,
        "down:exR": lambda t: not t or len(t) <= t[0],
        "down:A:3": lambda t: len(t) <= 3,
    }[desc]


def _exl_proper_prefix(t) -> bool:
    return not t or len(t) < 2 * t[0] + 1


class Search:
    """Certified searches, each certificate re-verified offline."""

    name = "search"
    tail_percentile = 99

    def __init__(self, seed: int):
        rng = random.Random(f"search:{seed}")
        self.tasks: List[Tuple] = []
        for fam, hi, target in HOMOGENIZE:
            for _ in range(HOMOGENIZE_EACH):
                self.tasks.append(("homogenize", fam, hi, target, rng.randrange(1 << 30), 2))
        self.tasks += [("homogenize", "A:2", 18, 4, s, 3) for s in THREE_COLOUR_SEEDS]
        self.tasks += [("dichotomy",) + d for d in DICHOTOMIES]
        self.tasks += [("separation",) + s for s in SEPARATIONS]
        self.tasks += [("chain",) + c for c in CHAINS]
        self.tasks += [("transfer",) + t for t in TRANSFERS]
        rng.shuffle(self.tasks)

    def bind(self, call: Call, spec_factory=None, coloring_factory=None):
        """spec_factory and coloring_factory let the traced run pass in
        counting families and colourings; by default the program's own."""
        from schreier import (Window, detect_chain, from_json, hash_coloring,
                              hereditary_dichotomy, homogenize, parse_family,
                              parse_ordinal, rank_separation, schreier_transfer,
                              to_json, verify_certificate)

        spec_factory = spec_factory or parse_family
        coloring_factory = coloring_factory or hash_coloring

        def certify(kind, search, *args):
            found = call(f"search.{kind}", search, *args)
            certs = found if isinstance(found, list) else [found]
            out = []
            for cert in certs:
                text = call("certificates.to_json", to_json, cert)
                back = call("certificates.from_json", from_json, text)
                out.append((text, back == cert,
                            call("certificates.verify", verify_certificate, back)))
            return out

        ops = []
        for task in self.tasks:
            kind = task[0]
            if kind == "homogenize":
                _, fam, hi, target, seed, colors = task
                args = (spec_factory(fam), coloring_factory(seed, colors),
                        Window(1, hi), target)
            elif kind == "dichotomy":
                _, desc, fam, hi, _branch = task
                args = (desc, spec_factory(fam), Window(1, hi))
            elif kind == "separation":
                _, a, b, hi, target = task
                args = (parse_ordinal(a), parse_ordinal(b), Window(1, hi), target)
            elif kind == "chain":
                _, desc, hi, depth = task
                args = (desc, Window(1, hi), depth)
            else:
                _, level, hi = task
                args = (level, Window(1, hi))
            search = {"homogenize": homogenize, "dichotomy": hereditary_dichotomy,
                      "separation": rank_separation, "chain": detect_chain,
                      "transfer": schreier_transfer}[kind]
            ops.append((kind, lambda k=kind, f=search, a=args: certify(k, f, *a)))
        return ops

    def expectations(self):
        return [R.transfer_counts(t[1], t[2]) if t[0] == "transfer" else None
                for t in self.tasks]

    def deep_check(self, i: int, out, ref) -> None:
        import json

        task = self.tasks[i]
        kind = task[0]
        where = f"search task {i} ({' '.join(map(str, task))})"
        expect(len(out) >= 1, f"{where}: no certificate")
        for text, roundtrip_equal, (ok, reason) in out:
            expect(roundtrip_equal, f"{where}: from_json(to_json(c)) != c")
            doc = json.loads(text)
            L = tuple(doc["witness"])
            p = doc["payload"]
            subsets = list(R.subsets(L))
            if kind == "homogenize":
                _, fam, hi, target, seed, colors = task
                expect(len(L) == target and L[-1] <= hi, f"{where}: witness size/window")
                expect(p["coloring"] == f"hash[{seed}]", f"{where}: colouring name")
                k = R.finite_index(fam)
                members = [s for s in subsets
                           if (len(s) == k if k is not None else R.member(fam, s))]
                expect(all(R.sha_colour(seed, colors, s) == p["color"] for s in members),
                       f"{where}: witness is not monochromatic under the SHA-256 colour")
                if colors == 2:
                    expect(ok, f"{where}: valid certificate rejected", reason)
            elif kind == "dichotomy":
                _, desc, fam, _hi, branch = task
                hered = _closed_predicate(desc)
                expect(p["branch"] == branch and len(out) == 1, f"{where}: branch")
                if branch == "A":
                    down = _closed_predicate(f"down:{fam}")
                    expect(all(hered(t) for t in subsets if down(t)), f"{where}: branch A")
                else:
                    expect(all(_exl_proper_prefix(t) for t in subsets if hered(t)),
                           f"{where}: branch B")
                expect(ok, f"{where}: certificate rejected", reason)
            elif kind == "separation":
                _, a, b, _hi, target = task
                fa = f"A:{a}"
                fb = f"A:{b}"
                expect(len(L) == target, f"{where}: witness size")
                expect(all(not R.member(fa, t) or (R.star(fb, t) and not R.member(fb, t))
                           for t in subsets), f"{where}: separation fails on the witness")
                expect(ok, f"{where}: certificate rejected", reason)
            elif kind == "chain":
                _, desc, _hi, depth = task
                hered = _closed_predicate(desc)
                links = [tuple(x) for x in p["chain"]]
                expect(len(links) == depth and links[-1] == L, f"{where}: chain shape")
                expect(all(hered(t) for t in links), f"{where}: link outside the family")
                expect(all(len(a) < len(b) and b[: len(a)] == a
                           for a, b in zip(links, links[1:])), f"{where}: not a prefix chain")
                expect(ok, f"{where}: certificate rejected", reason)
            else:
                _, level, hi = task
                expect(L == tuple(range(3, hi + 1)), f"{where}: witness")
                expect((p["spread_checked"], p["closure_checked"]) == ref,
                       f"{where}: containment counts", f"{p} vs {ref}")
                expect(ok, f"{where}: certificate rejected", reason)

    def failed(self, i: int, out) -> bool:
        # only rejection of a certificate whose witness checked out counts
        return any(not ok for _, _, (ok, _) in out)


WORKLOADS = {w.name: w for w in (Query, Enumerate, Search)}


def digest(out) -> Any:
    """A comparable stand-in for an output: mask arrays by their bytes."""
    if isinstance(out, tuple) and len(out) == 3 and hasattr(out[2], "tobytes"):
        return out[0], out[1], hashlib.sha256(out[2].tobytes()).hexdigest()
    return out
