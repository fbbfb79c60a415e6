"""Windowed dichotomy and homogeneity searches with certificates.

The existence statements these searches shadow quantify over infinite
ground sets.  Everything here works inside a finite window instead and
emits a certificate whose claim is re-checkable by direct enumeration;
an exhausted window is reported as a negative, never as a disproof.
Candidates extend in lexicographic-increasing order throughout, so runs
are reproducible without any seed plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from .certificates import Certificate, hereditary_predicate, make_certificate
from .colorings import Coloring
from .families import (
    FamilySpec,
    _down_test,
    _lex_walk,
    _system_walk,
    _union_step,
    _union_test,
    iter_union_schreier,
    parse_family,
)
from .finsets import (
    EMPTY,
    FinSet,
    Window,
    check_hereditary,
    spread,
    subsets_of,
)
from .ordinals import (
    ONE,
    ZERO,
    Ordinal,
    add,
    as_ordinal,
    compare,
    descend,
    format_ordinal,
    omega_power,
    parse_ordinal,
)


def _probe_hereditary(hered, window: Window) -> None:
    """Check hered on the nonempty subsets of the first 12 window elements;
    whether the empty set belongs is the predicate's own call."""
    check_hereditary(hered, subsets_of(window.ground[:12],
                                       include_empty=False))


def _lex_first(ground: Sequence[int], target: int, admit, state=None):
    """Lex-first target-subset L of ground grown one element at a time.

    admit(partial, e, state) returns (ok, state'); e joins partial only
    when ok, carrying state' into the deeper search.  Returns (L, state)
    or None when the ground is exhausted.
    """
    n = len(ground)

    def pick(partial, state, start):
        if len(partial) == target:
            return partial, state
        need = target - len(partial)
        for i in range(start, n - need + 1):
            e = ground[i]
            ok, next_state = admit(partial, e, state)
            if ok:
                hit = pick(partial + (e,), next_state, i + 1)
                if hit is not None:
                    return hit
        return None

    return pick((), state, 0)


# -- homogeneity ------------------------------------------------------


def homogenize(spec: FamilySpec, coloring: Coloring, window: Window,
               target: int) -> Optional[Certificate]:
    """Find L of the target size whose family members are monochromatic.

    Lex-increasing backtracking; a candidate element is admitted only if
    every member it completes agrees with the color fixed so far.  None
    when the window is exhausted; only an infinite ground set guarantees
    a witness exists.
    """
    if target < 1:
        raise ValueError("target must be at least 1")
    admit, root = _homogenize_admit(spec, coloring)
    hit = _lex_first(window.ground, target, admit, root)
    if hit is None:
        return None
    L, (color, _) = hit
    payload = {
        "coloring": coloring.name,
        "color": 1 if color is None else color,
        "target": target,
        "order": "lex",
    }
    _record_palette(payload, coloring)
    return make_certificate("Homogeneous", spec.literal(), window, L, payload)


_CLASH = object()


def _shared_color(coloring: Coloring, color, members):
    """The colour of every set in members, agreeing with color unless that
    is None (not fixed yet); _CLASH at the first set that differs."""
    for t in members:
        col = coloring(t)
        if color is None:
            color = col
        elif col != color:
            return _CLASH
    return color


def _homogenize_admit(spec: FamilySpec, coloring):
    """homogenize's admit rule and root state for _lex_first.

    A state is (colour fixed so far or None, frontier).  For a system
    family the frontier lists each subset of the partial set whose
    residual is not 0, with that residual, so appending e costs one
    descend per entry: a residual of 0 is a member to colour, any other
    extends the frontier.  Other kinds test every subset of the partial
    set and carry no frontier.
    """
    xi = spec.system_ordinal()
    if xi is None:
        def admit(partial, e, state):
            completed = (s + (e,) for s in subsets_of(partial))
            color = _shared_color(coloring, state[0],
                                  filter(spec.member, completed))
            return color is not _CLASH, (color, None)
        return admit, (None, None)

    def admit(partial, e, state):
        color, frontier = state
        grown = [(s + (e,), descend(r, e)) for s, r in frontier]
        color = _shared_color(coloring, color,
                               (t for t, r in grown if r is ZERO))
        return color is not _CLASH, (
            color, frontier + [g for g in grown if g[1] is not ZERO])

    return admit, (None, [] if xi is ZERO else [(EMPTY, xi)])


def _record_palette(payload, coloring: Coloring) -> None:
    # the 2-colour default stays implicit, so those certificates keep
    # their bytes; any other palette is needed to rebuild the coloring
    if coloring.colors != 2:
        payload["colors"] = coloring.colors


@dataclass(frozen=True)
class StreamBudget:
    """Caps for the stream recursion.

    depth bounds section descent, horizon bounds how much of the ground
    sequence is examined per level, emit caps the returned prefix.
    """

    depth: int = 8
    horizon: int = 24
    emit: int = 8


@dataclass(frozen=True)
class StreamOutcome:
    prefix: FinSet
    color: int
    status: str  # ok | budget_exhausted | failed
    labels: Tuple[Tuple[int, int], ...]
    certificate: Optional[Certificate]


def majority_strategy(labels: Sequence[Tuple[int, int]]) -> int:
    """Pick the most frequent branch color; ties go to the smaller index."""
    if not labels:
        return 1
    counts = {}
    for _, c in labels:
        counts[c] = counts.get(c, 0) + 1
    best = max(counts.values())
    return min(c for c, k in counts.items() if k == best)


def homogenize_stream(spec: FamilySpec, coloring: Coloring,
                      ground: Iterable[int],
                      strategy: Optional[Callable] = None,
                      budget: Optional[StreamBudget] = None) -> StreamOutcome:
    """Proof-shaped recursion: peel the head, homogenize its section family
    over the tail with the head adjoined to every query, then keep the
    heads whose branch color the strategy judges to recur.

    The strategy stands in for the non-constructive choice of an
    infinitely recurring color; the default samples to the horizon and
    takes the majority.  The emitted prefix is re-checked exhaustively,
    so a bad strategy shows up as status ``failed``, and running out of
    descent depth as ``budget_exhausted``.
    """
    budget = budget if budget is not None else StreamBudget()
    strategy = strategy or majority_strategy
    xi = spec.system_ordinal()
    if xi is None:
        raise ValueError("stream recursion needs a section-indexed family")
    seq = list(islice(iter(ground), budget.horizon))
    for a, b in zip(seq, seq[1:]):
        if b <= a:
            raise ValueError("ground sequence must be strictly increasing")
    exhausted = False

    def walk(level, col, work, depth_left):
        nonlocal exhausted
        if level == ZERO:
            # the one member is the empty set; nothing to thin
            return col(EMPTY), list(work)
        labels = []
        work = list(work)
        for _ in range(budget.horizon):
            if not work:
                break
            if depth_left <= 0:
                exhausted = True
                break
            m, tail = work[0], work[1:]
            sub_col, sub_work = walk(
                descend(level, m),
                lambda s, m=m: col((m,) + s),
                tail,
                depth_left - 1,
            )
            labels.append((m, sub_col))
            work = sub_work
        i_star = strategy(labels)
        thinned = [m for m, c in labels if c == i_star]
        return i_star, thinned

    color, thinned = walk(xi, lambda s: coloring(s), seq, budget.depth)
    prefix = tuple(thinned[:budget.emit])

    mono = all(not spec.member(s) or coloring(s) == color
               for s in subsets_of(prefix))
    if not mono:
        status = "failed"
    elif exhausted:
        status = "budget_exhausted"
    else:
        status = "ok"

    cert = None
    if mono:
        if seq:
            cw = Window(min(seq), max(seq), tuple(seq))
        else:
            cw = Window(1, 1)
        payload = {
            "coloring": coloring.name,
            "color": color,
            "target": len(prefix),
            "order": "stream",
            "status": status,
        }
        _record_palette(payload, coloring)
        cert = make_certificate("Homogeneous", spec.literal(), cw, prefix,
                                payload)
    labels_flat = tuple((m, c) for m, c in zip(prefix, [color] * len(prefix)))
    return StreamOutcome(prefix, color, status, labels_flat, cert)


# -- Sperner refinement -----------------------------------------------


def sperner_refine(spec: FamilySpec, window: Window,
                   target: int) -> Optional[Certificate]:
    """Find L whose family members form an antichain under inclusion.

    Equivalent to homogenizing against the minimal members: within any L,
    members are pairwise incomparable iff each one has no proper member
    subset, so the search admits an element only while every member it
    completes stays minimal: homogenize's admit with minimality as the
    colour.  Both admits meet every member subset of a member before the
    member itself, so the first member met is minimal and fixes the
    colour at True.
    """
    if target < 1:
        raise ValueError("target must be at least 1")

    def minimal(t):
        return not any(
            spec.member(s)
            for k in range(1, len(t))
            for s in combinations(t, k)
        )

    admit, root = _homogenize_admit(spec, minimal)
    hit = _lex_first(window.ground, target, admit, root)
    if hit is None:
        return None
    L, _ = hit
    payload = {"target": target, "op": "sperner-refine"}
    return make_certificate("SpernerRefined", spec.literal(), window, L,
                            payload)


# -- dichotomies ------------------------------------------------------


def hereditary_dichotomy(hered_desc: str, spec: FamilySpec, window: Window,
                         target: int = 8,
                         max_candidates: int = 5000) -> List[Certificate]:
    """Search for L realizing one of the two containment branches.

    Branch A: every subset-closure set of the family within L lies in the
    hereditary predicate.  Branch B: every predicate set within L is a
    proper initial segment of a family member.  Both certificates are
    returned when both branches hold at the first realized witness; an
    empty list means the candidate budget ran out.
    """
    hered = hereditary_predicate(hered_desc)
    down = _down_test(spec)  # raises before the probe without a closed form
    _probe_hereditary(hered, window)
    ground = window.ground
    if not 1 <= target <= len(ground):
        raise ValueError("target outside the window")
    for count, L in enumerate(combinations(ground, target)):
        if count >= max_candidates:
            break
        okA = okB = True
        for t in subsets_of(L):
            if okA and down(t) and not hered(t):
                okA = False
            if okB and hered(t) and not (spec.star(t) and not spec.member(t)):
                okB = False
            if not (okA or okB):
                break
        certs = []
        base = {"hereditary": hered_desc, "target": target}
        if okA:
            certs.append(make_certificate(
                "DichotomyBranchA", spec.literal(), window, L,
                dict(base, branch="A")))
        if okB:
            certs.append(make_certificate(
                "DichotomyBranchB", spec.literal(), window, L,
                dict(base, branch="B")))
        if certs:
            return certs
    return []


def rank_separation(xi1, xi2, window: Window,
                    target: int = 6) -> Optional[Certificate]:
    """Find L where every level-xi1 member is a proper initial segment of
    a level-xi2 member.  Requires xi1 < xi2."""
    xi1, xi2 = as_ordinal(xi1), as_ordinal(xi2)
    if compare(xi1, xi2) >= 0:
        raise ValueError("separation needs xi1 < xi2")
    if not 1 <= target <= len(window.ground):
        raise ValueError("target outside the window")

    admit, root = _separation_admit(xi1, xi2)
    hit = _lex_first(window.ground, target, admit, root)
    if hit is None:
        return None
    L, _ = hit
    payload = {
        "hereditary": f"member:A:{format_ordinal(xi1)}",
        "branch": "B",
        "op": "rank-separation",
        "target": target,
    }
    return make_certificate("DichotomyBranchB", f"A:{format_ordinal(xi2)}",
                            window, L, payload)


def _separation_admit(xi1: Ordinal, xi2: Ordinal):
    """rank_separation's admit rule and root frontier for _lex_first.

    Appending e must leave every level-xi1 member it completes a proper
    initial segment of a level-xi2 member.  The frontier holds, for each
    subset of the partial set whose xi1 residual is not 0, its residuals
    at xi1 and at xi2 (None once stuck); a subset at 0 or stuck for xi1
    completes no member any more.
    """
    def admit(partial, e, frontier):
        grown = []
        for r1, r2 in frontier:
            r1 = descend(r1, e)
            r2 = None if r2 is None or r2 is ZERO else descend(r2, e)
            if r1 is not ZERO:
                grown.append((r1, r2))
            elif r2 is None or r2 is ZERO:
                return False, frontier
        return True, frontier + grown

    return admit, [] if xi1 is ZERO else [(xi1, xi2)]


def detect_chain(hered_desc: str, window: Window,
                 depth: int) -> Optional[Certificate]:
    """Find a chain of proper initial segments of the given depth.

    For a hereditary predicate every prefix of a set it contains is again
    contained, so single-element growth steps lose no generality: a chain
    of any step sizes yields one through the prefixes of its last link.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    hered = hereditary_predicate(hered_desc)
    _probe_hereditary(hered, window)
    root_empty = hered(EMPTY)
    needed = depth - 1 if root_empty else depth
    hit = _lex_first(window.ground, needed,
                     lambda partial, e, state: (hered(partial + (e,)), state))
    if hit is None:
        return None
    A, _ = hit
    links = ([EMPTY] if root_empty else []) + \
        [A[:k] for k in range(1, needed + 1)]
    payload = {
        "hereditary": hered_desc,
        "depth": depth,
        "chain": [list(s) for s in links],
    }
    return make_certificate("Chain", hered_desc, window, links[-1], payload)


# -- transfer between the union-built and section-indexed hierarchies --


def _as_level(xi) -> int:
    xi = as_ordinal(xi)
    if not xi.is_natural:
        raise ValueError("union level must be a natural number")
    n = xi.as_int()
    if n > 2:
        raise ValueError("the shift transfer is checked at union levels 0-2")
    return n


class _Escape(Exception):
    """A walk met a set outside the containment it checks."""


def _transfer_containments(level: int, window: Window):
    """Exhaustive two-sided check of the shift containment chain.

    Side one spreads every union-level index set onto the window ground
    minus its first two elements and requires the result to be an initial
    segment of a benchmark member over the infinite line.  Side two takes
    every initial segment of a benchmark member witnessed inside the
    window and requires it back in the union level; the empty prefix is
    skipped, as the union levels consist of nonempty sets.
    """
    ground = window.ground
    if len(ground) < 3:
        raise ValueError("window too small to drop two elements")
    L = ground[2:]
    level_ord = as_ordinal(level)
    sys_ord = omega_power(level_ord)
    # the union walk over positions carries its spread's residual: a
    # spread gets stuck exactly when its parent's residual is already 0
    positions = tuple(range(1, len(L) + 1))
    root, union_step = _union_step(level_ord, positions)

    def spread_step(state, s, k):
        u, r = state
        if r is ZERO:
            raise _Escape(f"spread of {s} lands outside the star closure")
        c = union_step(u, s, k)
        return (c, descend(r, L[k])) if c else False

    member = _union_test(level_ord)
    try:
        spread_checked = sum(1 for _ in _lex_walk(positions, (root, sys_ord),
                                                  spread_step, False))
        closure_checked = 0
        for p in _system_walk(sys_ord, ground):
            if not member(p):
                raise _Escape(f"prefix {p} escapes the union level")
            closure_checked += 1
    except _Escape as e:
        return {"ok": False, "reason": str(e)}
    return {
        "ok": True,
        "spread_checked": spread_checked,
        "closure_checked": closure_checked,
        "L": L,
    }


def schreier_transfer(xi, window: Window,
                      assume_dense: bool = False) -> Certificate:
    """Certify the two-sided containment chain for a union level.

    Drops the first two window elements and checks, exhaustively, that
    spread index sets are initial segments of benchmark members and that
    witnessed benchmark prefixes fall back into the union level.  A
    failed containment is an internal inconsistency, not exhaustion, and
    raises.  The density assumption flag is recorded, never verified: no
    window can check a for-every-infinite-set hypothesis.
    """
    level = _as_level(xi)
    data = _transfer_containments(level, window)
    if not data["ok"]:
        raise RuntimeError(f"containment check failed: {data['reason']}")
    payload = {
        "xi": str(level),
        "variant": "shift",
        "assume_dense": bool(assume_dense),
        "dropped": list(window.ground[:2]),
        "spread_checked": data["spread_checked"],
        "closure_checked": data["closure_checked"],
    }
    return make_certificate("Transfer", f"B:{level}", window, data["L"],
                            payload)


def _transfer_route(level: int, sigma: Optional[Ordinal]) -> str:
    """The route for a symbolic index against the boundary w^level + 1.

    "direct" above it or for an infinite index (None), "lift" at it; an
    index below it raises ValueError.
    """
    if sigma is None:
        return "direct"
    c = compare(as_ordinal(sigma), add(omega_power(as_ordinal(level)), ONE))
    if c < 0:
        raise ValueError("symbolic index below the boundary value")
    return "direct" if c > 0 else "lift"


def _spread_into(level: int, L: FinSet, H) -> Tuple[int, Optional[FinSet]]:
    """Spread each level member onto L and test it with H, in lex order.

    Returns the number that passed and the first that failed, or None.
    """
    checked = 0
    for s in iter_union_schreier(as_ordinal(level), Window(1, len(L))):
        if not H(spread(s, L)):
            return checked, s
        checked += 1
    return checked, None


def large_index_transfer(into_desc: str, sigma: Optional[Ordinal], xi,
                         window: Window, target: int = 8,
                         max_candidates: int = 2000) -> Optional[Certificate]:
    """Route a large symbolic index into a spread containment.

    Strictly above the boundary value the target predicate is used as
    is; at the boundary the predicate is lifted by adjoining a fresh
    minimum (the lift stays hereditary and its index rises by one) and
    two further elements are dropped to absorb it.  Below the boundary
    the premise fails and the call is rejected.  The emitted certificate
    only ever claims the final containment, which is re-checked directly
    against the original predicate.
    """
    level = _as_level(xi)
    H = hereditary_predicate(into_desc)
    route = _transfer_route(level, sigma)
    if route == "direct":
        pred = H
        extra_drop = 0
    else:
        def pred(t):
            return (not t) or H(t[1:])
        extra_drop = 2

    down = _down_test(parse_family(f"B:{level}"))
    ground = window.ground
    size = target + 2 + extra_drop
    if size > len(ground):
        raise ValueError("window too small for the requested target")

    for count, cand in enumerate(combinations(ground, size)):
        if count >= max_candidates:
            break
        if any(down(t) and not pred(t) for t in subsets_of(cand)):
            continue
        L = cand[2 + extra_drop:]
        checked, escaped = _spread_into(level, L, H)
        if escaped is not None:
            continue
        payload = {
            "variant": "large-index",
            "into": into_desc,
            "sigma": "infinity" if sigma is None else format_ordinal(sigma),
            "xi": str(level),
            "route": route,
            "target": target,
            "spread_checked": checked,
        }
        return make_certificate("Transfer", f"B:{level}", window, L, payload)
    return None


def recheck_transfer(cert: Certificate):
    """Independent semantic re-check for transfer certificates."""
    p = cert.payload_dict()
    variant = p.get("variant")
    try:
        level = int(p.get("xi", "-1"))
    except (TypeError, ValueError):
        return False, "unreadable level"
    if not 0 <= level <= 2:
        return False, f"level {level} outside the checkable range"

    if variant == "shift":
        try:
            data = _transfer_containments(level, cert.window)
        except ValueError as e:
            return False, str(e)
        if not data["ok"]:
            return False, data["reason"]
        if data["L"] != cert.witness:
            return False, "witness disagrees with the shifted ground set"
        if (data["spread_checked"] != p.get("spread_checked")
                or data["closure_checked"] != p.get("closure_checked")):
            return False, "recorded check counts disagree"
        return True, "ok"

    if variant == "large-index":
        try:
            H = hereditary_predicate(p.get("into", ""))
        except Exception as e:
            return False, str(e)
        sigma_text = p.get("sigma", "")
        route = p.get("route")
        try:
            sigma = (None if sigma_text == "infinity"
                     else parse_ordinal(sigma_text))
        except Exception as e:
            return False, f"unreadable symbolic index: {e}"
        try:
            expected = _transfer_route(level, sigma)
        except ValueError as e:
            return False, str(e)
        if route != expected:
            return False, f"route {route!r} disagrees with the index"
        checked, escaped = _spread_into(level, cert.witness, H)
        if escaped is not None:
            return False, f"spread of {escaped} escapes the target predicate"
        if checked != p.get("spread_checked"):
            return False, "recorded check counts disagree"
        return True, "ok"

    return False, f"unknown transfer variant {variant!r}"
