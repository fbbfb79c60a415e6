"""Windowed dichotomy and homogeneity searches with certificates.

The existence statements these searches shadow quantify over infinite
ground sets.  Everything here works inside a finite window instead and
emits a certificate; an exhausted window is reported as a negative,
never as a disproof.  Candidates extend in lexicographic-increasing
order throughout, so runs are reproducible without any seed plumbing.
A search whose frontier of kept subsets (families._kept) would pass
families._MAX_KEPT entries raises ValueError; so does one that lists
subsets of its witness, at a target over 25 (families._cap), before it
starts.  A certificate is checked by its own search: recheck reruns it
on the witness and compares the record it writes.
"""

from __future__ import annotations

from functools import wraps
from itertools import count
from typing import List, Optional, Sequence, Tuple

from .certificates import Certificate, hereditary_predicate, make_certificate
from .colorings import Coloring, get_coloring, hash_coloring
from .families import (
    FamilySpec,
    _cap,
    _down_test,
    _kept,
    _member_counts,
    parse_family,
)
from .finsets import EMPTY, FinSet, Window, spread
from .ordinals import (
    ONE,
    ZERO,
    Ordinal,
    _walk,
    as_ordinal,
    compare,
    descend,
    format_ordinal,
    omega_power,
    parse_ordinal,
)
from .rank import index_compare


def _probe_hereditary(desc: str) -> None:
    """Raise ValueError unless the predicate desc names is hereditary.

    Decided on the description, whatever the window.  ``all`` and the
    ``down:`` forms are subset-closed by construction.  A ``member:`` form
    is hereditary when its family is a union level, whose nonempty initial
    segments of members are members, or a system family of index at most
    1.  Every other family that parses is thin with a member of two or
    more elements, so that member's nonempty proper prefix is not one.
    """
    if not desc.startswith("member:"):
        return
    spec = parse_family(desc[len("member:"):])
    xi = spec.system_ordinal()
    if spec.kind != "F" and (xi is None or compare(xi, ONE) > 0):
        raise ValueError(f"{desc} is not hereditary: {spec.literal()} is thin "
                         "and has a member of two or more elements")


def _target(target) -> None:
    """Raise ValueError unless target is an int >= 1; a bool is none."""
    if type(target) is not int or target < 1:
        raise ValueError(f"target must be an integer >= 1, got {target!r}")


def _lex_first(ground: Sequence[int], target: int, admit, state=None):
    """Lex-first target-subset L of ground grown one element at a time.

    admit(partial, e, state) returns (ok, state'); e joins partial only
    when ok, carrying state' into the deeper search.  Returns (L, state)
    or None when the ground is exhausted.  It backtracks on a stack of
    (partial, state, next index) frames, so a deep target does not recurse.
    """
    stack = [((), state, 0)]
    while stack:
        partial, state, i = stack.pop()
        if len(partial) == target:
            return partial, state
        for i in range(i, len(ground) - target + len(partial) + 1):
            ok, next_state = admit(partial, e := ground[i], state)
            if ok:
                stack.append((partial, state, i + 1))
                stack.append((partial + (e,), next_state, i + 1))
                break
    return None


def _certified(search):
    """search, its records made certificates.

    A search body returns its record (kind, family, window, L, payload),
    a list of them or None; recheck reruns the body, search.__wrapped__,
    so a check hashes no record but the one it is given.
    """
    @wraps(search)
    def certified(*args, **kwargs):
        found = search(*args, **kwargs)
        if found.__class__ is list:
            return [make_certificate(*r) for r in found]
        return found and make_certificate(*found)

    return certified


# -- homogeneity ------------------------------------------------------


@_certified
def homogenize(spec: FamilySpec, coloring: Coloring, window: Window,
               target: int) -> Optional[Certificate]:
    """Find L of the target size whose family members are monochromatic.

    Lex-increasing backtracking; a candidate element is admitted only if
    every member it completes agrees with the color fixed so far.  None
    when the window is exhausted; only an infinite ground set guarantees
    a witness exists.
    """
    _target(target)
    _cap(target)
    admit, root = _homogenize_admit(spec, coloring)
    hit = _lex_first(window.ground, target, admit, root)
    if hit is None:
        return None
    L, (color, _) = hit
    payload = {"coloring": coloring.name, "color": 1 if color is None else color,
               "target": target, "order": "lex"}
    # the 2-colour default stays implicit, so those certificates keep
    # their bytes; any other palette is needed to rebuild the coloring
    if coloring.colors != 2:
        payload["colors"] = coloring.colors
    return "Homogeneous", spec.literal(), window, L, payload


def _homogenize_admit(spec: FamilySpec, coloring):
    """homogenize's admit rule and root state for _lex_first.

    A state is (colour fixed so far or None, _star_kept frontier).
    Appending e colours each kept s + (e,) that is a member, at residual
    0 or by the member test, and is refused at the first colour that
    differs, that member its state.
    """
    grow, root = _star_kept(spec)

    def admit(partial, e, state):
        color, frontier = state
        grown, frontier = grow(frontier, e)
        for t, r in grown:
            if r is ZERO or r is None and spec.member(t):
                col = coloring(t)
                color = col if color is None else color
                if col != color:
                    return False, t
        return True, (color, frontier)

    return admit, (None, root)


def _star_kept(spec: FamilySpec):
    """_kept over the star sets, which hold every member; a custom kind
    without a star test keeps every set."""
    return _kept(spec if spec.kind != "custom" or spec.star_predicate
                 else lambda t: True)


# -- Sperner refinement -----------------------------------------------


@_certified
def sperner_refine(spec: FamilySpec, window: Window,
                   target: int) -> Optional[Certificate]:
    """Find L whose family members form an antichain under inclusion.

    An element e joins the partial set only while check_sperner holds on
    partial + (e,), decided by _sperner_admit on the members e completes.
    """
    _target(target)
    _cap(target)
    hit = _lex_first(window.ground, target, *_sperner_admit(spec))
    if hit is None:
        return None
    L, _ = hit
    payload = {"target": target, "op": "sperner-refine"}
    return "SpernerRefined", spec.literal(), window, L, payload


def _sperner_admit(spec: FamilySpec):
    """sperner_refine's admit rule and root state for _lex_first.

    A state is (_star_kept frontier, the members so far as sorted (size,
    mask over positions in the partial set, set) triples).  Appending e
    makes each kept s + (e,) that is a member a new one, and is refused,
    that nested pair its state, when an old member lies inside a new one
    or two new ones nest.  No new member, which holds e, lies inside an
    old one, so on a partial set whose every prefix passed this is
    check_sperner.
    """
    grow, root = _star_kept(spec)

    def admit(partial, e, state):
        frontier, members = state
        grown, frontier = grow(frontier, e)
        bit = {x: 1 << i for i, x in enumerate(partial + (e,))}
        new = [(len(t), sum(map(bit.__getitem__, t)), t) for t, r in grown
               if r is ZERO or r is None and spec.member(t)]
        members = sorted(members + new)
        for k, m, t in new:
            for j, n, s in members:  # only a smaller member can lie inside t
                if j >= k:
                    break
                if n & m == n:
                    return False, (s, t)
        return True, (frontier, members)

    return admit, (root, [(0, 0, EMPTY)] if spec.member(EMPTY) else [])


# -- dichotomies ------------------------------------------------------


@_certified
def hereditary_dichotomy(hered_desc: str, spec: FamilySpec, window: Window,
                         target: int = 8) -> List[Certificate]:
    """Search for L realizing one of the two containment branches.

    Branch A: every subset-closure set of the family within L lies in the
    hereditary predicate.  Branch B: every predicate set within L is a
    proper initial segment of a family member.  Both certificates are
    returned when both branches hold at the lex-first witness; an empty
    list means the window or the admit budget, _MAX_ADMITS, ran out.  Each
    branch holds on every subset of an L where it holds, so an element is
    admitted while either branch survives.

    The predicate must be hereditary, and this is decided on hered_desc,
    whatever the window: ``all``, every ``down:`` form and the ``member:``
    forms of ``F:<level>``, ``A:0``, ``A:1`` and ``B:0`` are accepted;
    every other ``member:`` form raises ValueError.  Branch A reads the
    family's subset closure, its star test; ex112 and custom specs have
    none and raise ValueError before that decision.
    """
    _target(target)
    admit_a, root_a = _branch("A", hered_desc, spec)  # ex112 and custom raise
    _probe_hereditary(hered_desc)
    if target > len(window.ground):
        raise ValueError("target outside the window")
    _cap(target)
    admit_b, root_b = _branch("B", hered_desc, spec)

    def admit(partial, e, state):
        a, b = admit_a(partial, e, state[0]), admit_b(partial, e, state[1])
        return a[0] or b[0], (a[1], b[1])

    hit = _lex_first(window.ground, target, _budgeted(admit), (root_a, root_b))
    if hit is None:
        return []
    L, branches = hit
    base = {"hereditary": hered_desc, "target": target}
    return [(f"DichotomyBranch{b}", spec.literal(), window, L,
             dict(base, branch=b))
            for b, frontier in zip("AB", branches) if frontier.__class__ is list]


_MAX_ADMITS = 50_000  # per dichotomy or large-index transfer search


def _budgeted(admit):
    """admit, refusing every element once _MAX_ADMITS calls are spent."""
    calls = count(1)
    return lambda p, e, state: (admit(p, e, state) if next(calls) <= _MAX_ADMITS
                                else (False, state))


def _every(keep, ok):
    """Admit and root state for "every subset of the partial set that keep
    keeps passes ok(t, r)", r its _kept residual: a _kept frontier (a
    list), or the first kept set that failed, which refuses every e."""
    grow, root = _kept(keep)

    def admit(partial, e, state):
        if state.__class__ is tuple:
            return False, state
        grown, frontier = grow(state, e)
        bad = next((t for t, r in grown if not ok(t, r)), None)
        return (True, frontier) if bad is None else (False, bad)

    r = root[0][1] if root else ZERO  # the empty set's residual
    kept = isinstance(keep, FamilySpec) or keep(EMPTY)  # a star test keeps ()
    return admit, EMPTY if kept and not ok(EMPTY, r) else root


# why a dichotomy branch's admit refuses a set, by certificate kind
_FAILS = {
    "DichotomyBranchA": "is in the subset closure but outside the target",
    "DichotomyBranchB": "is not a proper initial segment of a member",
}


def _branch(branch: str, desc, spec: FamilySpec):
    """_every's admit and root state for dichotomy branch A or B.

    A keeps the family's subset closure and checks each set is in the
    predicate desc names.  B keeps the predicate's sets, or a ``member:``
    form's star sets and checks only its members, and checks each is a
    proper initial segment of a family member.
    """
    if isinstance(desc, str) and desc.startswith("member:"):
        form = parse_family(desc[len("member:"):])
        hered = form.member
    else:  # CertificateError, a ValueError, for a malformed desc
        form = hered = hereditary_predicate(desc)
    if branch == "A":
        _down_test(spec)
        return _every(spec, lambda t, r: hered(t))
    xi = spec.system_ordinal()
    proper = ((lambda t: _walk(xi, t)[0] is not ZERO) if xi is not None
              else lambda t: spec.star(t) and not spec.member(t))
    if form is hered:
        return _every(form, lambda t, r: proper(t))
    # a kept star set is a member at residual 0, or by the member test
    return _every(form, lambda t, r: not (r is ZERO or r is None and hered(t))
                  or proper(t))


@_certified
def rank_separation(xi1, xi2, window: Window,
                    target: int = 6) -> Optional[Certificate]:
    """Find L where every level-xi1 member is a proper initial segment of
    a level-xi2 member.  Requires xi1 < xi2.  This is _branch's branch B
    for member:A:xi1 against A:xi2."""
    _target(target)
    xi1, xi2 = as_ordinal(xi1), as_ordinal(xi2)
    if compare(xi1, xi2) >= 0:
        raise ValueError("separation needs xi1 < xi2")
    if target > len(window.ground):
        raise ValueError("target outside the window")
    _cap(target)
    desc = f"member:A:{format_ordinal(xi1)}"
    hit = _lex_first(window.ground, target,
                     *_branch("B", desc, FamilySpec("A", xi2)))
    if hit is None:
        return None
    L, _ = hit
    payload = {"hereditary": desc, "branch": "B", "op": "rank-separation",
               "target": target}
    return "DichotomyBranchB", f"A:{format_ordinal(xi2)}", window, L, payload


@_certified
def detect_chain(hered_desc: str, window: Window,
                 depth: int) -> Optional[Certificate]:
    """Find a chain of proper initial segments of the given depth.

    For a hereditary predicate every prefix of a set it contains is again
    contained, so single-element growth steps lose no generality: a chain
    of any step sizes yields one through the prefixes of its last link.

    Heredity is decided on hered_desc, whatever the window, as for
    hereditary_dichotomy; an unhereditary ``member:`` form raises.

    A candidate e is admitted when partial + (e,), padded to the chain's
    length with the largest ground elements, is in the family.  The chain
    is sound: at the last link the padding is empty, so the link is
    tested itself, and heredity covers its prefixes.  It is the lex-first
    chain when the predicate also spreads, staying true when an element
    moves up; then no candidate is retried.  The ``down:`` forms of
    ``A:k``, ``A:w+k``, ``A:w*p+k``, ``A:w^2``, ``A:w^2+1``, ``A:w^3``,
    ``A:w^w``, ``B:1``, ``B:2``, ``B:3``, ``exL``, ``exR`` and
    ``F:<level>`` spread, as do ``all``, ``member:A:1`` and
    ``member:F:<level>``.
    """
    if type(depth) is not int or depth < 1:  # a bool or float is no depth
        raise ValueError(f"depth must be an integer >= 1, got {depth!r}")
    hered = hereditary_predicate(hered_desc)
    _probe_hereditary(hered_desc)
    root_empty = hered(EMPTY)
    needed = depth - 1 if root_empty else depth
    ground = window.ground
    n = len(ground)
    # tops[k]: the k largest ground elements, all above any candidate
    # that leaves k more to pick
    tops = [ground[n - k:] for k in range(min(needed, n))]
    hit = _lex_first(ground, needed, lambda partial, e, state: (
        hered(partial + (e,) + tops[needed - len(partial) - 1]), state))
    if hit is None:
        return None
    A, _ = hit
    links = ([EMPTY] if root_empty else []) + \
        [A[:k] for k in range(1, needed + 1)]
    payload = {"hereditary": hered_desc, "depth": depth,
               "chain": [list(s) for s in links]}
    return "Chain", hered_desc, window, links[-1], payload


# -- transfer between the union-built and section-indexed hierarchies --


def _as_level(xi) -> int:
    xi = as_ordinal(xi)
    if not xi.is_natural:
        raise ValueError("union level must be a natural number")
    n = xi.as_int()
    if n > 2:
        raise ValueError("the shift transfer is checked at union levels 0-2")
    return n


def _union_check(level: int, n: int):
    """The level's block rule as a step over a ground of n elements.

    step(u, x, k) is the state of s + (x,), x = ground[k], for a member s
    in state u (None at the root), or False when no child of s + (x,) is a
    member.  It reads neither set nor residual: every singleton is a level-0
    leaf; level 1 keeps t[0] - len(t), level 2 (t[0] - parts, part end -
    len(t)) for the greedy parts.
    """
    if level == 0:
        return lambda u, x, k: False
    if level == 1:
        return lambda b, x, k: k + 1 < n and (x if b is None else b) - 1 or False

    def step(u, x, k):
        b, r = u or (x, 0)  # the root opens a part with x parts to spend
        u = (b, r - 1) if r else (b - 1, x - 1)
        return u if k + 1 < n and u != (0, 0) else False

    return step


# The transfer memo's limit in row cells.  Level 2 fits up to [1,54] and
# level 1 up to about [1,1025], at 4-7 s and 150 MiB on a 2-vCPU VM.
_TRANSFER_CELLS = 1 << 20


def _product_count(elements, a_root, a_step, b_root, b_step, b_closed):
    """Count and check the nodes of a lex walk by their product state.

    a_step(a, x, m) is the walk state of s + (x,), x = elements[m], for a
    node s in state a: None if that set is no node, False if it is a leaf.
    b_step(b, x, m) is its check state; every child of a node whose check
    state is b_closed fails the check.  Returns the number of nodes, or
    the lex-first failing node as a tuple.
    Raises ValueError rather than hold over _TRANSFER_CELLS row cells; the
    root's row, as long as the window, always fits.
    """
    n = len(elements)
    rows = {}

    def fill(a, b, i):
        # rows[a, b][i]: the node count, or the lex-first failing node, of
        # the subtrees of the children at positions i.. of a node in state
        # (a, b).  A row fills from n down in a loop, so recursion follows
        # descents only, and a lower position, lex-earlier, wins.
        row = rows.get((a, b))
        if row is None:
            if rows and (len(rows) + 1) * (n + 1) > _TRANSFER_CELLS:
                raise ValueError(f"transfer memo limit of {_TRANSFER_CELLS} cells passed")
            row = rows[a, b] = [None] * n + [0]
        m = i
        while row[m] is None:
            m += 1
        got = row[m]
        for m in range(m - 1, i - 1, -1):
            x = elements[m]
            a2 = a_step(a, x, m)
            if a2 is not None:
                sub = (EMPTY if b is b_closed else 0 if a2 is False
                       else fill(a2, b_step(b, x, m), m + 1))
                if sub.__class__ is tuple:
                    got = (x,) + sub
                elif got.__class__ is int:
                    got += 1 + sub
            row[m] = got
        return got

    try:
        return fill(a_root, b_root, 0)
    finally:
        del fill  # it refers to itself: drop the cycle, and the memo, now


def _transfer_containments(level: int, window: Window):
    """Exhaustive two-sided check of the shift containment chain.

    Side one spreads every union-level index set onto the window ground
    minus its first two elements and requires the result to be an initial
    segment of a benchmark member over the infinite line.  Side two takes
    every initial segment of a benchmark member witnessed inside the
    window and requires it back in the union level; the empty prefix is
    skipped, as the union levels consist of nonempty sets.  Each side is
    counted by product state, not set by set.  Both read the union level
    by its block rule (_union_check), never by the benchmark's residual.
    """
    ground = window.ground
    if len(ground) < 3:
        raise ValueError("window too small to drop two elements")
    L = ground[2:]
    sys_ord = omega_power(as_ordinal(level))
    # spread side: the union walk over positions carries its spread's
    # residual, which is stuck below a node whose residual is already 0
    spread = _product_count(range(1, len(L) + 1), None,
                            _union_check(level, len(L)), sys_ord,
                            lambda r, _, m: descend(r, L[m]), ZERO)
    if isinstance(spread, tuple):
        return {"ok": False,
                "reason": f"spread of {spread} lands outside the star closure"}
    # closure side: the residual walk over the window, kept to prefixes of
    # members inside it by the count rows, carries the union state
    rows, _ = _member_counts(sys_ord, ground)

    def witnessed(r, x, m):
        row = rows[r]
        if row[m] == row[m + 1]:
            return None
        d = descend(r, x)
        return False if d is ZERO else d

    closure = _product_count(ground, sys_ord, witnessed, None,
                             _union_check(level, len(ground)), False)
    if isinstance(closure, tuple):
        return {"ok": False, "reason": f"prefix {closure} escapes the union level"}
    return {"ok": True, "spread_checked": spread, "closure_checked": closure,
            "L": L}


@_certified
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
    return "Transfer", f"B:{level}", window, data["L"], payload


def _transfer_route(level: int, sigma: Optional[Ordinal]) -> str:
    """The route for a symbolic index against the boundary w^level + 1.

    "direct" above it or for an infinite index (None), "lift" at it; an
    index below it raises ValueError.
    """
    if sigma is None:
        return "direct"
    branch = index_compare(sigma, omega_power(as_ordinal(level)))
    if branch == "SecondBranch":
        raise ValueError("symbolic index below the boundary value")
    return "lift" if branch == "Boundary" else "direct"


def _spread_into(level: int, L: FinSet, H) -> Tuple[int, Optional[FinSet]]:
    """Spread each level member onto L and test it with H.

    The members are the sets _kept grows over the positions 1..|L| by the
    star test of B:level, since F:a is star(B:a) without the empty set.
    Returns the number that passed and the first that failed, or None.
    """
    grow, frontier = _kept(FamilySpec("B", as_ordinal(level)))
    checked = 0
    for e in range(1, len(L) + 1):
        grown, frontier = grow(frontier, e)
        for s, _ in grown:
            if not H(spread(s, L)):
                return checked, s
            checked += 1
    return checked, None


def _large_index_record(into_desc: str, sigma: Optional[Ordinal],
                        level: int, window: Window, L: FinSet):
    """The large-index Transfer record for a found L.

    Computes the route and the spread count on L, with target len(L).
    Raises ValueError when L is empty or a spread escapes the target
    predicate.
    """
    _target(len(L))
    route = _transfer_route(level, sigma)
    checked, escaped = _spread_into(level, L, hereditary_predicate(into_desc))
    if escaped is not None:
        raise ValueError(f"spread of {escaped} escapes the target predicate")
    payload = {
        "variant": "large-index",
        "into": into_desc,
        "sigma": "infinity" if sigma is None else format_ordinal(sigma),
        "xi": str(level),
        "route": route,
        "target": len(L),
        "spread_checked": checked,
    }
    return "Transfer", f"B:{level}", window, L, payload


@_certified
def large_index_transfer(into_desc: str, sigma: Optional[Ordinal], xi,
                         window: Window,
                         target: int = 8) -> Optional[Certificate]:
    """Route a large symbolic index into a spread containment.

    Strictly above the boundary value the target predicate is used as
    is; at the boundary the predicate is lifted by adjoining a fresh
    minimum (the lift stays hereditary and its index rises by one) and
    two further elements are dropped to absorb it.  Below the boundary
    the premise fails and the call is rejected.  The emitted certificate
    only ever claims the final containment, which is re-checked directly
    against the original predicate.  None means the window or the admit
    budget, _MAX_ADMITS, ran out.
    """
    _target(target)
    level = _as_level(xi)
    H = hereditary_predicate(into_desc)
    lift = _transfer_route(level, sigma) == "lift"
    pred = (lambda t, r: not t or H(t[1:])) if lift else lambda t, r: H(t)
    drop = 4 if lift else 2
    every, root = _every(FamilySpec("B", as_ordinal(level)), pred)
    size = target + drop
    if size > len(window.ground):
        raise ValueError("window too small for the requested target")

    def admit(partial, e, frontier):
        # the subset filter prunes; spreading onto a subset of L is not
        # monotone, so the spread check waits for the last element
        ok, frontier = every(partial, e, frontier)
        L = (partial + (e,))[drop:]
        return ok and (len(partial) + 1 < size
                       or _spread_into(level, L, H)[1] is None), frontier

    hit = _lex_first(window.ground, size, _budgeted(admit), root)
    if hit is None:
        return None
    return _large_index_record(into_desc, sigma, level, window,
                               hit[0][drop:])


def _recorded_coloring(p) -> Coloring:
    """The colouring a Homogeneous record names, at its palette."""
    name = p.get("coloring")
    if not isinstance(name, str) or name.startswith("external:"):
        raise ValueError(f"coloring {name!r} needs a caller-supplied oracle")
    if name.startswith("hash[") and name.endswith("]"):
        return hash_coloring(int(name[5:-1]), p.get("colors", 2))
    return get_coloring(name)


def recheck(cert: Certificate, coloring: Optional[Coloring] = None):
    """Rerun the search that writes cert's kind on its witness and compare.

    The search's inputs are read from the record (the colouring, unless
    one is given).  Each search but the shift transfer reruns on
    Window(lo, hi, witness) at target len(witness), so the only L it can
    find is the witness.  The record it writes must match cert's kind,
    family, witness and every payload key, typed: a recorded 8.0 or True
    is not the 8 or 1 a search writes.  A rerun that finds nothing is
    refused with the first counterexample its search's own admit meets,
    folded over the witness.  No digest is computed.
    """
    p = cert.payload_dict()
    kind, op, w = cert.kind, p.get("op"), cert.witness
    why = None  # the row's reason when the rerun finds nothing
    try:
        on = Window(cert.window.lo, cert.window.hi, w)
        if kind == "Homogeneous" and op is None:
            spec, color = parse_family(cert.family), p.get("color")
            coloring = coloring or _recorded_coloring(p)
            found = homogenize.__wrapped__(spec, coloring, on, len(w))
            if found is None:  # homogenize's admit from the recorded colour
                admit, (_, root) = _homogenize_admit(spec, coloring)
                t = _refused(admit, (color, root), w)  # None: a fickle oracle
                why = t and (f"member {t} has color {coloring(t)}, expected "
                             f"{color} ({coloring.name}, {coloring.colors} "
                             "colors)")
        elif kind in _FAILS and op is None:
            desc, spec = p.get("hereditary"), parse_family(cert.family)
            found = next((r for r in hereditary_dichotomy.__wrapped__(
                desc, spec, on, len(w)) if r[0] == kind), None)
            if found is None:
                t = _refused(*_branch(kind[-1], desc, spec), w)
                why = f"{t} {_FAILS[kind]}"
        elif kind == "DichotomyBranchB" and op == "rank-separation":
            # the levels follow the last colon; the compare refuses the rest
            xi1, xi2 = (parse_ordinal(str(v).rpartition(":")[2])
                        for v in (p.get("hereditary"), cert.family))
            found = rank_separation.__wrapped__(xi1, xi2, on, len(w))
            if found is None:
                t = _refused(*_branch("B", f"member:A:{format_ordinal(xi1)}",
                                      FamilySpec("A", xi2)), w)
                why = f"{t} {_FAILS[kind]}"
        elif kind == "SpernerRefined" and op == "sperner-refine":
            spec = parse_family(cert.family)
            found = sperner_refine.__wrapped__(spec, on, len(w))
            if found is None:
                pair = _refused(*_sperner_admit(spec), w)
                why = "members {} and {} are nested".format(*pair)
        elif kind == "Chain" and op is None:
            depth = p.get("depth")
            found = detect_chain.__wrapped__(p.get("hereditary"), on, depth)
            why = f"no chain of depth {depth!r} ends at the witness {w}"
        elif kind == "Transfer" and op is None:
            level, variant = _as_level(int(str(p.get("xi")))), p.get("variant")
            if variant == "shift":
                found = schreier_transfer.__wrapped__(level, cert.window,
                                                      p.get("assume_dense"))
            elif variant == "large-index":
                sigma = str(p.get("sigma"))
                found = _large_index_record(
                    p.get("into"),
                    None if sigma == "infinity" else parse_ordinal(sigma),
                    level, cert.window, w)
            else:
                return False, f"unknown transfer variant {variant!r}"
        else:
            return False, f"no search writes a {kind} record with op {op!r}"
    except (ValueError, RuntimeError) as e:
        return False, str(e)
    if found is None:
        return False, why or f"the search finds no {kind} record on the witness"
    _, family, _, L, want = found  # the kind is the one dispatched on
    for key, built in (("family", family), ("witness", L)):
        if getattr(cert, key) != built:
            return False, f"recorded {key} disagrees with the re-check"
    for key in sorted(want.keys() | p.keys()):
        got, built = ((key in d, type(d.get(key)), d.get(key))
                      for d in (p, want))
        if got != built:
            return False, f"recorded {key} disagrees with the re-check"
    return True, "ok"


def _refused(admit, state, w):
    """The state admit refuses with, folded over w, or None."""
    for i, x in enumerate(w):
        ok, state = admit(w[:i], x, state)
        if not ok:
            return state
    return None
