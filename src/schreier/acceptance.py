"""Exact acceptance checks, runnable as a suite or one at a time.

Eleven numbered checks cover the core contracts: ordinal descent closed
forms, the section law, thinness and the prefix trichotomy, canonical
decomposition uniqueness, rank oracle agreement, the Ramsey searches,
hierarchy transfer, and certificate soundness under mutation.  Every
check is tolerance-free; a failure message names the first offending
instance.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations
from time import perf_counter
from typing import Callable, List, Optional, Tuple

import numpy as np

from .canonical import canonical_rep, sperner_witness, trichotomy
from .certificates import from_json, transcript_digest, verify_certificate
from .colorings import get_coloring, hash_coloring
from .families import (
    _down_test,
    check_thin,
    enumerate_family,
    parse_family,
    residual_after,
)
from .finsets import Window
from .masks import MaskFamily, sort_masks
from .ordinals import (
    OMEGA,
    ONE,
    ZERO,
    add,
    descend,
    from_int,
    fundamental,
    nat_multiple,
    omega_power,
    parse_ordinal,
    wainer_fundamental,
)
from .rank import brute_derivative, closure_index
from .search import (
    detect_chain,
    hereditary_dichotomy,
    homogenize,
    schreier_transfer,
    sperner_refine,
)

# the index ordinals sampled throughout: small naturals plus the first
# interesting limits and successors
XI_SAMPLE = ("1", "2", "3", "w", "w+1", "w*2", "w^2", "w^w")

Check = Callable[[], Tuple[bool, str]]


@dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str
    seconds: float


# -- 1: descent closed forms ------------------------------------------


def _sample_ordinal(rng, depth: int = 2):
    if depth == 0 or rng.random() < 0.35:
        return from_int(rng.randrange(0, 4))
    out = ZERO
    for _ in range(rng.randrange(1, 3)):
        e = _sample_ordinal(rng, depth - 1)
        out = add(out, nat_multiple(e, rng.randrange(1, 4)))
    return out


def _descent_weight(a, n: int) -> float:
    """Estimate of the expanded length of the descent chain from a.

    A coefficient unit at a natural exponent contributes one step; a unit
    at exponent e contributes about n to the length of e's own chain, so
    nested towers blow up fast.  Samples are rejected against this before
    they reach fundamental(), which writes the chain out term by term.
    """
    t = 0.0
    for e, c in a.terms:
        if e.is_zero:
            t += c
        else:
            t += c * float(n) ** min(_descent_weight(e, n), 64.0)
        if t > 1e18:
            return 1e18
    return t


_WEIGHT_BUDGET = 5000.0


def _tame_pair(rng, n_hi: int):
    # nonzero ordinal plus an index whose expansion stays writable;
    # nesting survives only with a small index, flat forms with a large one
    while True:
        a = _sample_ordinal(rng)
        if a == ZERO:
            a = ONE
        n = rng.randrange(1, n_hi)
        if _descent_weight(a, n) <= _WEIGHT_BUDGET:
            return a, n


def _check_1() -> Tuple[bool, str]:
    rng = random.Random(0x51D3)
    n_per_case = 200

    # value at w is the entry count shifted down by one
    for _ in range(n_per_case):
        n = rng.randrange(1, 400)
        if fundamental(OMEGA, n) != from_int(n - 1):
            return False, f"w at {n}"

    # successor exponent peels one power times (n-1)
    for _ in range(n_per_case):
        a, n = _tame_pair(rng, 60)
        lhs = fundamental(omega_power(add(a, ONE)), n)
        rest = fundamental(omega_power(a), n)
        rhs = rest if n == 1 else add(nat_multiple(a, n - 1), rest)
        if lhs != rhs:
            return False, f"w^(a+1) at a={a}, n={n}"

    # limit exponent defers to its own approximant
    for _ in range(n_per_case):
        while True:
            e = add(_sample_ordinal(rng, 1), ONE)
            a = add(_sample_ordinal(rng, 1),
                    nat_multiple(e, rng.randrange(1, 3)))
            n = rng.randrange(1, 12)
            if _descent_weight(a, n) <= _WEIGHT_BUDGET:
                break
        lhs = fundamental(omega_power(a), n)
        rhs = fundamental(omega_power(wainer_fundamental(a, n)), n)
        if lhs != rhs:
            return False, f"w^a at limit a={a}, n={n}"

    # coefficients peel one copy
    for _ in range(n_per_case):
        a, n = _tame_pair(rng, 60)
        p = rng.randrange(2, 5)
        lhs = fundamental(nat_multiple(a, p), n)
        rhs = add(nat_multiple(a, p - 1), fundamental(omega_power(a), n))
        if lhs != rhs:
            return False, f"w^a*p at a={a}, p={p}, n={n}"

    # only the last normal-form term descends
    for _ in range(n_per_case):
        while True:
            e_lo = add(_sample_ordinal(rng, 1), ONE)
            e_hi = add(e_lo, add(_sample_ordinal(rng, 1), ONE))
            g = nat_multiple(e_hi, rng.randrange(1, 4))
            t = nat_multiple(e_lo, rng.randrange(1, 4))
            n = rng.randrange(1, 40)
            if _descent_weight(t, n) <= _WEIGHT_BUDGET:
                break
        if fundamental(add(g, t), n) != add(g, fundamental(t, n)):
            return False, f"g+t at g={g}, t={t}, n={n}"

    return True, f"{5 * n_per_case} sampled identities across five closed forms"


# -- 2: the section law across the wide-window engine ------------------


def _check_2() -> Tuple[bool, str]:
    hi = 30
    checked = 0
    for text in XI_SAMPLE:
        xi = parse_ordinal(text)
        fam = MaskFamily(xi, hi)
        for m in range(1, 13):
            lhs = sort_masks(fam.section_masks(m))
            sub = MaskFamily(descend(xi, m), hi, root_start=m)
            rhs = sort_masks(sub.member_masks())
            if lhs.shape != rhs.shape or not np.array_equal(lhs, rhs):
                return False, f"section law fails at xi={text}, m={m}"
            checked += 1
        del fam
    return True, f"{checked} section identities on [1,{hi}], exact set equality"


# -- 3: thinness and the prefix trichotomy -----------------------------


def _check_3() -> Tuple[bool, str]:
    win = Window(1, 15)
    for text in XI_SAMPLE:
        ok, pair = check_thin(parse_family(f"A:{text}"), win)
        if not ok:
            return False, f"A:{text} not thin: {pair}"

    # families whose greedy member completions from [1,15] stay below 40
    bounded = {"1", "2", "3", "w", "w+1"}
    pairs = completions = 0
    for text in XI_SAMPLE:
        xi = parse_ordinal(text)
        spec = parse_family(f"A:{text}")
        for s in win.subsets():
            if not s:
                continue
            # single forward walk: where the residual first hits zero
            r, hit, stuck = xi, None, False
            for i, n in enumerate(s):
                if r.is_zero:
                    stuck = True
                    break
                r = descend(r, n)
                if r.is_zero:
                    hit = i + 1
            kind, w = trichotomy(spec, s)
            if hit is not None or stuck:
                if kind != "ExtendsMember" or w != s[:hit]:
                    return False, f"A:{text} misclassifies {s}: {kind}, {w}"
            else:
                if kind != "ProperPrefixOfMember":
                    return False, f"A:{text} misclassifies {s}: {kind}"
                if text in bounded:
                    # corroborate: finish the member inside the headroom
                    v = s[-1]
                    while not r.is_zero:
                        v += 1
                        if v > 40:
                            return False, f"A:{text}: no completion of {s} by 40"
                        r = descend(r, v)
                    completions += 1
            pairs += 1
    return True, (f"8 families thin on [1,15]; trichotomy exact on {pairs} "
                  f"pairs, {completions} completions shown within [1,40]")


# -- 4: finite levels are exactly the k-subsets ------------------------


def _check_4() -> Tuple[bool, str]:
    win = Window(1, 12)
    for k in range(6):
        got = enumerate_family(parse_family(f"A:{k}"), win)
        want = [tuple(c) for c in combinations(range(1, 13), k)]
        if got != want:
            return False, f"A:{k} does not enumerate the {k}-subsets"
    return True, "A:k lists exactly the k-subsets of [1,12] for k <= 5"


# -- 5: canonical decomposition uniqueness -----------------------------


def _decompositions(xi, s):
    """Every (blocks, tail) split: blocks members, tail a strict prefix."""
    out = []

    def go(i, blocks):
        if len(out) > 1:
            return
        rest = s[i:]
        if not rest:
            out.append((tuple(blocks), ()))
            return
        r = residual_after(xi, rest)
        if r is not None and r != ZERO:
            out.append((tuple(blocks), rest))
        rr = xi
        for j, n in enumerate(rest):
            if rr.is_zero:
                break
            rr = descend(rr, n)
            if rr.is_zero:
                go(i + j + 1, blocks + [rest[: j + 1]])

    go(0, [])
    return out


def _check_5() -> Tuple[bool, str]:
    win = Window(1, 15)
    total = 0
    for text in ("A:2", "A:w", "A:w+1", "A:w*2"):
        spec = parse_family(text)
        xi = spec.system_ordinal()
        for s in win.subsets():
            if not s:
                continue
            found = _decompositions(xi, s)
            if len(found) != 1:
                return False, f"{text}: {s} has {len(found)} decompositions"
            rep = canonical_rep(spec, s)
            if (rep.blocks, rep.tail) != found[0]:
                return False, f"{text}: greedy disagrees with brute on {s}"
            total += 1
    return True, f"unique decomposition reproduced on {total} set-family pairs"


# -- 6: rank oracle equivalence ----------------------------------------


def _check_6() -> Tuple[bool, str]:
    win = Window(1, 14)
    for k in range(1, 5):
        spec = parse_family(f"A:{k}")
        table = brute_derivative(_down_test(spec), win, max_steps=8)
        if table.exhausted or table.index != k + 1:
            return False, f"brute index of A:{k} closure is {table.index}"
        if closure_index(spec) != from_int(k + 1):
            return False, f"symbolic index of A:{k} closure is off"
    for text in XI_SAMPLE:
        xi = parse_ordinal(text)
        if closure_index(parse_family(f"A:{text}")) != add(xi, ONE):
            return False, f"symbolic index at xi={text} is not xi+1"
    return True, ("brute index k+1 for k <= 4 on [1,14]; symbolic xi+1 "
                  "on all eight sampled indices")


# -- 7: pair-coloring homogeneous search -------------------------------


def _check_7() -> Tuple[bool, str]:
    spec = parse_family("A:2")
    win = Window(1, 18)
    for seed in range(100):
        cert = homogenize(spec, hash_coloring(seed), win, 4)
        if cert is None:
            return False, f"seed {seed}: no homogeneous 4-set in [1,18]"
        ok, reason = verify_certificate(cert)
        if not ok:
            return False, f"seed {seed}: certificate rejected: {reason}"
    return True, "100/100 seeded colorings homogenized and verified on [1,18]"


# -- 8: boundary dichotomies -------------------------------------------


def _check_8() -> Tuple[bool, str]:
    win = Window(1, 30)
    cases = [
        ("down:F:1", "exL", ["B"]),
        ("down:exL", "exR", ["A"]),
    ]
    for desc, fam, expect in cases:
        certs = hereditary_dichotomy(desc, parse_family(fam), win)
        got = sorted(c.payload_dict()["branch"] for c in certs)
        if got != expect:
            return False, f"({desc}, {fam}) realized branches {got}"
        for c in certs:
            ok, reason = verify_certificate(c)
            if not ok:
                return False, f"({desc}, {fam}) certificate rejected: {reason}"
    return True, "branch B for (F:1, exL) and branch A for (exL*, exR), re-checked"


# -- 9: mixed-family regression ----------------------------------------


def _check_9() -> Tuple[bool, str]:
    spec = parse_family("ex112")
    win = Window(1, 12)
    small, large = (2, 3, 4, 5), (1, 2, 3, 4, 5, 6)
    if not (spec.member(small) and spec.member(large)):
        return False, "expected memberships missing"
    pair = sperner_witness(spec, win)
    if pair != (small, large):
        return False, f"violating pair is {pair}"
    ok, bad = check_thin(spec, win)
    if not ok:
        return False, f"thinness lost: {bad}"
    return True, ("members nest as {2,3,4,5} inside {1,...,6}, found as the "
                  "unique violating pair; family still thin")


# -- 10: hierarchy transfer containments -------------------------------

# exhaustively measured once and frozen; the level-1 counts follow the
# Fibonacci recurrence of the smallest union level
_TRANSFER_COUNTS = {1: (75024, 121393), 2: (2481894, 581518)}


def _check_10() -> Tuple[bool, str]:
    win = Window(1, 25)
    for level, counts in _TRANSFER_COUNTS.items():
        cert = schreier_transfer(level, win)
        ok, reason = verify_certificate(cert)
        if not ok:
            return False, f"level {level} certificate rejected: {reason}"
        p = cert.payload_dict()
        if (p["spread_checked"], p["closure_checked"]) != counts:
            return False, (f"level {level} counts {p['spread_checked']}, "
                           f"{p['closure_checked']}")

    return True, ("two-sided containments exhaustive on [1,25]: "
                  "75024+121393 sets at level 1, 2481894+581518 at level 2")


# -- 11: certificate soundness under mutation --------------------------


def _mutate(rng, doc):
    while True:
        d = json.loads(json.dumps(doc))
        k = rng.randrange(6)
        if k == 0 and d["witness"]:
            d["witness"].pop(rng.randrange(len(d["witness"])))
        elif k == 1:
            x = rng.randrange(1, 45)
            if x in d["witness"]:
                continue
            d["witness"].append(x)
        elif k == 2:
            d["window"]["hi"] += rng.choice((1, 3))
        elif k == 3:
            d["window"]["lo"] += 1
        elif k == 4:
            keys = sorted(d["payload"])
            key = rng.choice(keys)
            v = d["payload"][key]
            if isinstance(v, bool):
                d["payload"][key] = not v
            elif isinstance(v, int):
                d["payload"][key] = v + 1
            elif isinstance(v, str):
                d["payload"][key] = v + "x"
            elif isinstance(v, list):
                d["payload"][key] = v + [99]
            else:
                continue
        else:
            h = d["transcript_hash"]
            i = rng.randrange(len(h))
            c = "0" if h[i] != "0" else "f"
            d["transcript_hash"] = h[:i] + c + h[i + 1:]
        if d != doc:
            return d


def _resign(doc):
    """Recompute a valid digest over a tampered body: a forgery, which
    must fall to the semantic re-check rather than the hash."""
    d = json.loads(json.dumps(doc))
    d["transcript_hash"] = "0" * 64
    c = from_json(d)
    d["transcript_hash"] = transcript_digest(c.kind, c.family, c.window,
                                             c.witness, c.payload)
    return d


def _rejected(doc) -> bool:
    try:
        ok, _ = verify_certificate(from_json(doc))
    except Exception:
        return True  # unparseable or crashing input counts as rejected
    return not ok


def _set_payload(doc, key, value):
    d = json.loads(json.dumps(doc))
    d["payload"][key] = value
    return d


def _set_top(doc, key, value):
    d = json.loads(json.dumps(doc))
    d[key] = value
    return d


def _clash_element(witness, color):
    """An element whose new pairs disagree with the recorded parity color."""
    want_parity = 0 if color == 2 else 1  # make some pair sum flip class
    x = 1
    while x in witness or (witness[0] + x) % 2 != want_parity:
        x += 1
    return sorted(witness + [x])


def _build_bases():
    bases = {}
    cert = homogenize(parse_family("A:2"), get_coloring("parity-sum"),
                      Window(1, 8), 3)
    if cert is None or cert.witness != (1, 3, 5):
        raise RuntimeError("homogeneous fixture drifted")
    bases["Homogeneous"] = cert

    certs = hereditary_dichotomy("down:exL", parse_family("exR"),
                                 Window(1, 12), target=6)
    if [c.kind for c in certs] != ["DichotomyBranchA"] or \
            certs[0].witness != (1, 2, 3, 4, 5, 6):
        raise RuntimeError("branch A fixture drifted")
    bases["DichotomyBranchA"] = certs[0]

    certs = hereditary_dichotomy("down:F:1", parse_family("exL"),
                                 Window(1, 12), target=6)
    if [c.kind for c in certs] != ["DichotomyBranchB"] or \
            certs[0].witness != (1, 2, 3, 4, 5, 6):
        raise RuntimeError("branch B fixture drifted")
    bases["DichotomyBranchB"] = certs[0]

    cert = sperner_refine(parse_family("ex112"), Window(1, 25), 6)
    if cert is None:
        raise RuntimeError("antichain fixture drifted")
    bases["SpernerRefined"] = cert

    cert = detect_chain("down:A:3", Window(1, 12), 4)
    if cert is None or cert.witness != (1, 2, 3):
        raise RuntimeError("chain fixture drifted")
    bases["Chain"] = cert

    bases["Transfer"] = schreier_transfer(1, Window(1, 12))
    return bases


def _forgeries(kind: str, doc) -> list:
    """Tampered bodies, each provably invalid once re-signed: five or six
    per kind, then a window that leaves out the witness."""
    w = doc["window"]
    ground = w.get("ground", range(w["lo"], w["hi"] + 1))
    return _kind_forgeries(kind, doc) + [_set_top(doc, "window", dict(
        w, ground=[x for x in ground if x != doc["witness"][-1]]))]


def _kind_forgeries(kind: str, doc) -> list:
    # the target off by one, or right but a float
    n = len(doc["witness"])
    sizes = [_set_payload(doc, "target", t) for t in (n + 1, float(n))]
    if kind == "Homogeneous":
        color = doc["payload"]["color"]
        return sizes + [
            _set_payload(doc, "color", 3 - color),
            _set_top(doc, "witness", doc["witness"][:-1]),
            _set_top(doc, "witness", _clash_element(doc["witness"], color)),
        ]
    if kind == "DichotomyBranchA":
        return sizes + [
            _set_payload(doc, "hereditary", "member:A:2"),
            _set_payload(doc, "hereditary", "member:F:1"),
            _set_payload(doc, "hereditary", "down:A:1"),
            _set_top(doc, "kind", "DichotomyBranchB"),
        ]
    if kind == "DichotomyBranchB":
        return sizes + [
            _set_payload(doc, "hereditary", "all"),
            _set_payload(doc, "hereditary", "member:exL"),
            _set_top(doc, "family", "exR"),
            _set_top(doc, "kind", "DichotomyBranchA"),
        ]
    if kind == "SpernerRefined":
        return sizes + [
            _set_top(doc, "witness", [1, 2, 3, 4, 5, 6]),
            _set_top(doc, "witness", [1, 2, 3, 4, 5, 6, 7]),
            _set_top(doc, "kind", "Chain"),
            _set_top(doc, "kind", "Homogeneous"),
        ]
    if kind == "Chain":
        chain = doc["payload"]["chain"]
        return [
            _set_payload(doc, "chain", chain[:1] + chain[2:]),
            _set_payload(doc, "depth", doc["payload"]["depth"] + 1),
            _set_payload(doc, "depth", float(doc["payload"]["depth"])),
            _set_payload(doc, "chain", [chain[0], [2]] + chain[2:]),
            _set_top(doc, "witness", doc["witness"][:-1]),
        ]
    if kind == "Transfer":
        return [
            _set_top(doc, "witness", doc["witness"][:-1]),
            _set_payload(doc, "spread_checked",
                         doc["payload"]["spread_checked"] + 1),
            _set_payload(doc, "xi", "3"),
            {**json.loads(json.dumps(doc)),
             "window": {"lo": 1, "hi": doc["window"]["hi"] - 1}},
            _set_top(doc, "family", "B:2"),
            _set_payload(doc, "dropped", doc["payload"]["dropped"][::-1]),
        ]
    raise ValueError(kind)


def _check_11() -> Tuple[bool, str]:
    rng = random.Random(0xCE27)
    bases = _build_bases()
    total = 0
    for kind, cert in bases.items():
        doc = cert.to_json_dict()
        for i in range(96):
            mutated = _mutate(rng, doc)
            if not _rejected(mutated):
                return False, f"{kind}: mutation {i} accepted: {mutated}"
            total += 1
        for i, body in enumerate(_forgeries(kind, doc)):
            if not _rejected(_resign(body)):
                return False, f"{kind}: re-signed forgery {i} accepted"
            total += 1
    return True, f"{total} mutated certificates rejected across 6 kinds"


# -- runner ------------------------------------------------------------

CRITERIA: List[Tuple[int, str, Check]] = [
    (1, "descent closed forms", _check_1),
    (2, "section law on the wide-window engine", _check_2),
    (3, "thinness and prefix trichotomy", _check_3),
    (4, "finite levels are the k-subsets", _check_4),
    (5, "canonical decomposition uniqueness", _check_5),
    (6, "rank oracle equivalence", _check_6),
    (7, "pair-coloring homogeneous search", _check_7),
    (8, "boundary dichotomies", _check_8),
    (9, "mixed-family regression", _check_9),
    (10, "hierarchy transfer containments", _check_10),
    (11, "certificate soundness under mutation", _check_11),
]


def format_line(res: CriterionResult) -> str:
    word = "PASS" if res.passed else "FAIL"
    return (f"acceptance {res.number:>2}: {word} - {res.detail} "
            f"({res.seconds:.2f} s)")


def run_one(number: int) -> CriterionResult:
    for num, title, fn in CRITERIA:
        if num == number:
            break
    else:
        raise ValueError(f"no acceptance check numbered {number}")
    t0 = perf_counter()
    try:
        passed, detail = fn()
    except Exception as e:
        passed, detail = False, f"crashed: {e!r}"
    return CriterionResult(num, title, passed, detail, perf_counter() - t0)


def run_all(emit: Optional[Callable[[str], None]] = None) -> List[CriterionResult]:
    out = []
    for num, _title, _fn in CRITERIA:
        res = run_one(num)
        out.append(res)
        if emit is not None:
            emit(format_line(res))
    return out
