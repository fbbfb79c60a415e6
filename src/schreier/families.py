"""The ordinal-indexed families: membership, stars, closures, enumeration.

Three constructions live here.

* The recursive system family at index xi ("A" in the CLI grammar): a set
  belongs iff consuming its elements left to right drives a residual ordinal
  from xi exactly to 0, where each element n descends the residual by
  predecessor (successor case) or fundamental(residual, n) (limit case).
* The union-built hierarchy ("F"): level 0 is the singletons; level a+1
  collects unions of at most min-many consecutive level-a blocks; at limits a
  set belongs iff it belongs to some approximant level a_n with n <= min.
  A natural level a is the star of the system family at omega**a without
  the empty set, so it walks that residual; a greedy block decomposition
  decides the infinite levels.
* Named one-off families used as fixtures: two size-vs-minimum families and
  a mixed-section family built from system families.

The "B" kind is the system family at omega**a.  At a = 1 it is the classical
Schreier family of sets with |s| = min s, which is also the named exR; both
resolve to the system family at omega, so they take the same paths.

Membership predicates use the infinite ground line: a star test asks for an
extension somewhere in the naturals, not merely inside a window.  Windowed
enumeration is exhaustive over the window's ground set: a prefix walk,
by residual for the system families (pruned by the count rows) and the
natural union levels, by a first-child member test at the infinite union
levels, else pruned by the star test, lists it level by level in shortlex
order, except that a custom kind with no star test filters every subset.
A section at any point m >= 1 lists the window's ground above m; closures
computed on a window only count witnesses inside the window (documented
on the operations).  The searches and the containment checks instead
grow one frontier of kept subsets an element at a time (_kept), bounded
at _MAX_KEPT entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence

from .finsets import (EMPTY, FinSet, Window, as_finset, mask_of,
                      shortlex_key, subsets_of)
from .ordinals import (
    OMEGA,
    ZERO,
    Ordinal,
    _walk,
    as_ordinal,
    descend,
    format_ordinal,
    omega_power,
    parse_ordinal,
    predecessor,
    wainer_fundamental,
)


# -- system families --------------------------------------------------


def residual_after(xi: Ordinal, s: Iterable[int]) -> Optional[Ordinal]:
    """Residual ordinal after consuming s left to right; None if stuck.

    Stuck means some element had to descend a zero residual, i.e. s passed
    a member boundary and is not an initial segment of any member.  A
    one-shot iterable is read at most one element past that boundary.
    """
    r = as_ordinal(xi)
    if isinstance(s, (tuple, list)):
        r, i = _walk(r, s)
        return r if i == len(s) else None
    for n in s:
        if r is ZERO:
            return None
        r, _ = _walk(r, (n,))
    return r


def uniform_member(xi, s: FinSet) -> bool:
    """s belongs to the system family at xi (residual consumed exactly)."""
    return residual_after(xi, s) is ZERO


def uniform_star(xi, s: FinSet) -> bool:
    """s is an initial segment of some member over the infinite ground line.

    Equivalent to the residual walk never getting stuck: any leftover
    residual can always be driven to zero by sufficiently many further
    elements, so no window bound enters.
    """
    return residual_after(xi, s) is not None


# -- union-built hierarchy (generalized Schreier) ---------------------
#
# Level 0: singletons.  Level a+1: unions of n consecutive level-a blocks,
# n <= min of the whole set.  Limit a: member of some approximant a_n with
# n <= min.  Nonempty initial segments of members are members (cutting the
# last block leaves a smaller block at the same level), so from any start
# the feasible block lengths form a contiguous range and, at infinite
# levels, a longest-block greedy decomposition decides membership.  A
# natural level a is star(B:a) without the empty set (_resolve).


def union_schreier_member(a, s: FinSet) -> bool:
    return FamilySpec("F", a)._member(s)


def _greedy_covers(a: Ordinal, s: FinSet, cache) -> bool:
    """Whole of s splits into at most s[0] greedy level-(a-1) blocks.

    At a limit a: into the blocks of some approximant a_n with n <= s[0].
    Either way, the longest level-a prefix of s is all of s.
    """
    return _longest_block(a, s, 0, cache) == len(s)


def _longest_block(b: Ordinal, s: FinSet, i: int, cache) -> int:
    """Length of the longest prefix of s[i:] that is a level-b member.

    Always >= 1: singletons belong to every level.  Each (level, position)
    key is solved once into cache; a key waits for its sub-blocks on an
    explicit stack, so a long run of successor levels does not recurse.
    """
    out = cache.get((b, i))
    if out is not None:
        return out
    stack = [((b, i), _block_steps(b, s, i))]
    while stack:
        key, steps = stack[-1]
        try:
            need = steps.send(out)
        except StopIteration as done:
            stack.pop()
            out = cache[key] = done.value
            continue
        # a level-0 block is a singleton: answer it without a frame
        out = 1 if need[0].is_zero else cache.get(need)
        if out is None:
            stack.append((need, _block_steps(need[0], s, need[1])))
    return out


def _block_steps(b: Ordinal, s: FinSet, i: int):
    """The longest level-b block at s[i], as a coroutine for _longest_block.

    Yields the (level, position) key of each sub-block it needs, is sent
    that block's length, and returns its own length.
    """
    if b.is_zero:
        return 1
    if b.is_limit:
        # the longest over the approximants n <= s[i]; none can pass the
        # end of s, so stop at the first that reaches it
        out = 0
        for n in range(1, s[i] + 1):
            out = max(out, (yield wainer_fundamental(b, n), i))
            if out == len(s) - i:
                break
        return out
    c = predecessor(b)
    pos = i
    for _ in range(s[i]):  # at most s[i] sub-blocks fit the budget
        if pos >= len(s):
            break
        pos += yield c, pos
    return min(pos, len(s)) - i


# -- family literals --------------------------------------------------

_ORDINAL_KINDS = ("A", "B", "F")
_NAMED_KINDS = ("exL", "exR", "ex112")


@dataclass(frozen=True)
class FamilySpec:
    """A concrete family: one of the built-in kinds or a custom predicate.

    kind is the CLI literal tag: "A" (system family at the given ordinal),
    "B" (system family at omega**ordinal), "F" (union-built hierarchy),
    the named fixtures "exL" / "exR" / "ex112", or "custom".
    """

    kind: str
    ordinal: Optional[Ordinal] = None
    predicate: Optional[Callable[[FinSet], bool]] = None
    star_predicate: Optional[Callable[[FinSet], bool]] = None
    name: Optional[str] = None

    def __post_init__(self):
        # the resolved tests live outside the fields, so ==, hash and repr
        # see the literal only
        member, star, root = _resolve(self)
        object.__setattr__(self, "_member", member)
        object.__setattr__(self, "_star", star)
        object.__setattr__(self, "_root", root)

    def __reduce__(self):
        # the resolved tests are closures: rebuild them from the fields
        return type(self), (self.kind, self.ordinal, self.predicate,
                            self.star_predicate, self.name)

    # the system ordinal actually consumed by the residual walk, when the
    # family is a system family
    def system_ordinal(self) -> Optional[Ordinal]:
        return None if self.kind == "F" else self._root

    def member(self, s: FinSet) -> bool:
        return self._member(s)

    def star(self, s: FinSet) -> bool:
        """Initial-segment closure test over the infinite ground line."""
        return self._star(s)

    def down(self, s: FinSet) -> bool:
        """Subset-closure test over the infinite ground line.

        The star test for the kinds whose star is subset-closed: A, B,
        exL, exR and F.  Raises ValueError for ex112 and custom kinds,
        whatever s is.
        """
        return _down_test(self)(s)

    def literal(self) -> str:
        if self.kind in _ORDINAL_KINDS:
            return f"{self.kind}:{format_ordinal(self.ordinal)}"
        if self.kind == "custom":
            return self.name or "custom"
        return self.kind

    def __str__(self) -> str:
        return self.literal()


def _resolve(spec: FamilySpec):
    """Check a family literal and pick its member and star tests and its
    residual root, once: xi for A:xi, w^a for B:a and a natural F:a, w for
    exR ({s : |s| = min s} is A:w), None for the other kinds."""
    kind = spec.kind
    if kind in _ORDINAL_KINDS:
        if spec.ordinal is None:
            raise ValueError(f"kind {kind} needs an ordinal")
        a = as_ordinal(spec.ordinal)
        if kind == "F" and not a.is_natural:
            # nonempty initial segments of members are members
            return (lambda s: bool(s) and _greedy_covers(a, s, {}),
                    lambda s: not s or _greedy_covers(a, s, {}), None)
        root = a if kind == "A" else omega_power(a)
        if kind == "F":  # a natural level is star(B:a) without the empty set
            return (lambda s: bool(s) and residual_after(root, s) is not None,
                    lambda s: residual_after(root, s) is not None, root)
    elif kind in _NAMED_KINDS:
        if spec.ordinal is not None:
            raise ValueError(f"kind {kind} takes no ordinal")
        if kind == "exL":
            return (lambda s: bool(s) and len(s) == 2 * s[0] + 1,
                    lambda s: not s or len(s) <= 2 * s[0] + 1, None)
        if kind == "ex112":
            def walk(s, five=as_ordinal(5), w2=OMEGA + OMEGA):
                # ex112, mixed 2w-uniform: the section at 1 is the 5-sets,
                # at 2 exR, above 2 the system family at w+n = w*2[n+1]
                n = s[0]
                sec = five if n == 1 else OMEGA if n == 2 else descend(w2, n + 1)
                return residual_after(sec, s[1:])
            return (lambda s: bool(s) and walk(s) is ZERO,
                    lambda s: not s or walk(s) is not None, None)
        root = OMEGA
    elif kind != "custom":
        raise ValueError(f"unknown family kind {kind!r}")
    else:
        pred, star = spec.predicate, spec.star_predicate
        if pred is None:
            raise ValueError("custom kind needs a membership predicate")
        if star is None:
            missing = f"no initial-segment test available for {spec.literal()}"

            def star(s):
                raise ValueError(missing)
        return (lambda s: bool(pred(s))), (lambda s: bool(star(s))), None
    return (lambda s: residual_after(root, s) is ZERO,
            lambda s: residual_after(root, s) is not None, root)


def parse_family(text: str) -> FamilySpec:
    """Parse a family literal: ``A:<ordinal>``, ``B:<ordinal>``,
    ``F:<ordinal>``, ``exL``, ``exR`` or ``ex112``."""
    t = text.strip()
    if t in _NAMED_KINDS:
        return FamilySpec(kind=t)
    if ":" in t:
        kind, _, rest = t.partition(":")
        kind = kind.strip()
        if kind in _ORDINAL_KINDS:
            return FamilySpec(kind=kind, ordinal=parse_ordinal(rest.strip()))
    raise ValueError(
        f"bad family literal {text!r}; expected A:<ord>, B:<ord>, F:<ord>, "
        "exL, exR or ex112"
    )


# -- subset closure ---------------------------------------------------


def _down_test(spec: FamilySpec) -> Callable[[FinSet], bool]:
    """The family's subset-closure test: its star test, picked once.

    The initial-segment closure of exL is subset-closed by its closed
    form.  A union level (F) is its own closure less the empty set, and
    hereditary: by induction on the level, a subset's nonempty traces on
    a member's blocks are blocks, no more of them, and its minimum is no
    smaller.  A system family's (A, B and exR) star sets are the sets the
    residual walk does not strand (r admits t when the walk from r over t
    never descends 0), and skipping an element never strands it: if r
    admits (x,) + t with x < t[0], r admits t.  By induction on r.  A
    successor's step does not read the element.  At a limit lam, lam[x]
    admits t, hence t[1:] by induction, and lam[t[0]] descends to lam[x]
    through steps at indices <= t[0]; each step can be put before t[1:]
    and dropped again by induction, so lam[t[0]] admits t[1:].  Dropping
    elements one at a time, every subset of an initial segment of a
    member is one.
    ``test_down_closed_form_vs_witness_search`` and
    ``test_system_star_is_hereditary`` in tests/test_families.py check
    this against the witness search and on the subsets of [1,16].

    Raises ValueError for ex112, whose star is not subset-closed
    ((2,...,6) lies below the star set (1,...,6) but is not one), and for
    custom kinds.
    """
    if spec.kind in ("A", "B", "exL", "exR", "F"):
        return spec._star
    raise ValueError(f"no subset-closure form for {spec.literal()}")


# -- windowed enumeration and checks ----------------------------------


def enumerate_family(spec: FamilySpec, window: Window) -> List[FinSet]:
    """All members whose elements lie in the window's ground set, shortlex.

    The ground set is capped at 25 elements by _cap.
    """
    return _members(spec, window.ground)


def section(spec: FamilySpec, m: int, window: Window) -> List[FinSet]:
    """The section at m: sets s over the window's ground above m with
    {m} union s a member, shortlex; m is any element (m < 1 raises)."""
    return _members(spec, window.tail(m), as_finset((m,)))


def star_closure(spec: FamilySpec, window: Window) -> List[FinSet]:
    """Initial segments of members found within the window, shortlex.

    Only witnesses inside the window count, so a set star-true over the
    infinite ground line may be absent here.
    """
    xi = spec.system_ordinal()
    if xi is not None:
        _cap(len(window.ground))
        rows, _ = _member_counts(xi, window.ground)  # nodes below members
        return [EMPTY, *_residual_walk(window.ground, xi, rows)]
    if spec.kind == "F":  # a union level is prefix-closed
        return [EMPTY, *enumerate_family(spec, window)]
    return sorted({s[:k] for s in enumerate_family(spec, window)
                   for k in range(len(s) + 1)} | {EMPTY}, key=shortlex_key)


def check_thin(spec: FamilySpec, window: Window):
    """No member a proper initial segment of another, within the window.

    Returns (True, None) or (False, (shorter, longer)).
    """
    members = enumerate_family(spec, window)
    have = set(members)
    for t in members:
        for k in range(1, len(t)):
            if t[:k] in have:
                return False, (t[:k], t)
    return True, None


def check_sperner(spec: FamilySpec, window: Window):
    """No member a proper subset of another, within the window.

    Scans candidate pairs in shortlex order on the larger set, then the
    smaller, so the reported counterexample is deterministic.
    """
    members = enumerate_family(spec, window)
    masks = [mask_of(s) for s in members]
    for j, t in enumerate(members):
        mt = masks[j]
        for i, s in enumerate(members):
            if len(s) >= len(t):
                break
            if masks[i] & ~mt == 0:
                return False, (s, t)
    return True, None


def _cap(n: int):
    if n > 25:
        raise ValueError(
            f"ground set of {n} elements is too wide for exhaustive subset "
            f"enumeration (cap 25); use the array interface"
        )


# -- prefix walks ------------------------------------------------------
#
# A listing walks the prefix tree over a ground list level by level,
# children in ground order, so it comes out in shortlex order unsorted:
# by residual (_residual_walk), else by a step protocol (_level_walk).


def _residual_walk(ground: Sequence[int], root: Ordinal, rows=None,
                   members=False) -> List[FinSet]:
    """The nonempty nodes the walk from the residual root keeps over the
    ground list (with members, those at 0), in shortlex order.

    A child costs one inline memo read and no step call; a node at 0 is
    listed but not expanded.  With a system family's count rows a child
    is kept when row[k] - row[k + 1], its members, is nonzero, up to the
    row's first 0.  Without rows every child of a nonzero residual is
    kept, a natural union level, and one at the end is a leaf.
    """
    n, out, ones = len(ground), [], [(x,) for x in ground]
    level = [(EMPTY, root, 0)] if n and root is not ZERO else []
    while level:
        below = []
        for s, r, j in level:
            memo = r._next
            if rows is None:
                for k in range(j, n - 1):
                    out.append(t := s + ones[k])
                    d = memo.get(x := ground[k]) or descend(r, x)
                    if d is not ZERO:
                        below.append((t, d, k + 1))
                out.append(s + ones[-1])
                continue
            row = rows[r]  # rows fall to row[n] == 0
            for k in range(j, row.index(0, j)):
                if row[k] == row[k + 1]:
                    continue
                t = s + ones[k]
                d = memo.get(x := ground[k]) or descend(r, x)
                if d is ZERO or not members:
                    out.append(t)
                if d is not ZERO:
                    below.append((t, d, k + 1))
        level = below
    return out


def _level_walk(ground: Sequence[int], root, step, closed):
    """Every node below the root that step keeps, in shortlex order.

    step(state, x, k) gives the state of s + (x,), x = ground[k], a child
    of s in that state, or None to drop that child and everything under
    it.  A node whose state is `closed` is listed but not expanded.
    """
    kids, out = [(k, x, (x,)) for k, x in enumerate(ground)], []
    level = [(EMPTY, root, 0)]
    while level:
        below = []
        for s, state, j in level:
            for k, x, one in kids[j:]:
                c = step(state, x, k)
                if c is None:
                    continue
                out.append(t := s + one)
                if c is not closed:
                    below.append((t, c, k + 1))
        level = below
    return out


def _member_counts(xi: Ordinal, ground: Sequence[int], j: int = 0):
    """Per-state count rows of the system family at xi over the ground list.

    Returns (rows, lo).  rows[r][i] is the number of members of the state-r
    family over ground[i:], in Python ints, for i from lo[r] up to
    len(ground).  A row is filled only below its state's first dead
    position, from which no member can finish: a natural k needs k more
    elements, and a residual of at least w whose next element is y >= 2
    needs y of them, y included, since it reaches w at some z >= y and w
    then needs z - 1 more.  Cells from the dead position on are 0 from the
    start, other cells below lo[r] are None, and a state reached only in
    dead cells has no row.  So a reader takes a child's count from its
    parent's row, rows[r][i] - rows[r][i + 1], before it looks the child
    up.  The zero state has no row; its one member, the empty set, counts 1.
    """
    n = len(ground)
    # grounds increase, so the dead cells of a residual >= w are a suffix;
    # below a natural root every residual is natural
    dead = n if xi.is_natural else next(
        (i for i, x in enumerate(ground) if x >= 2 and x > n - i), n)
    rows = {}
    lo = {}

    def fill(r: Ordinal, i: int) -> int:
        # a row is known from lo[r] to n; extend it down to i in a loop, so
        # the recursion follows descents only.  A parent fills only live
        # cells, which start each child at or below the child's dead
        # position, so an extension never recounts a dead cell; only the
        # root may start above its own.
        row = rows.get(r)
        if row is None:
            e, k = r.terms[0]  # r > 0 is the natural k iff its exponent is 0
            m = max(n - k + 1, 0) if e is ZERO else dead
            row = rows[r] = [None] * m + [0] * (n + 1 - m)
        else:
            got = row[i]
            if got is not None:
                return got
            m = lo[r]
        got = row[m]
        memo = r._next
        for m in range(m - 1, i - 1, -1):
            x = ground[m]
            d = memo.get(x)
            if d is None:
                d = descend(r, x)
            got += 1 if d is ZERO else fill(d, m + 1)
            row[m] = got
        lo[r] = i
        return got

    try:
        if xi is not ZERO:
            fill(xi, j)
    finally:
        del fill  # it refers to itself: drop the cycle now
    return rows, lo


# frontier entries a search or a containment check may hold
_MAX_KEPT = 1 << 20


def _kept(keep):
    """The frontier of the subsets of the partial set that keep keeps.

    keep is a FamilySpec, kept by its star test, or a predicate, and
    keeps every nonempty prefix of a set it keeps.  A frontier lists
    (s, r), in the order met, for the empty set and each kept subset s,
    but not for a member of a system family, which has no kept child;
    grow(frontier, e) returns the kept s + (e,) with their r, and the
    frontier after e.  For a system family r is the residual of s, so a
    child costs one descend, and a member is at 0; otherwise r is None.
    Folded over a ground list, the grown sets are each kept nonempty set
    once.  grow raises ValueError rather than hold over _MAX_KEPT entries.
    """
    xi = keep.system_ordinal() if isinstance(keep, FamilySpec) else None
    test = keep.star if isinstance(keep, FamilySpec) else keep

    def grow(frontier, e):
        # a step that may pass the bound counts its kept children first
        if 2 * len(frontier) > _MAX_KEPT and len(frontier) + sum(
                1 for s, r in frontier if (test(s + (e,)) if xi is None else
                (r._next.get(e) or descend(r, e)) is not ZERO)) > _MAX_KEPT:
            raise ValueError(f"more than {_MAX_KEPT} kept subsets")
        if xi is None:
            grown = kept = [(t, None) for s, _ in frontier
                            if test(t := s + (e,))]
        else:
            # descend's memo read inline, as in _walk; no ordinal is falsy
            grown = [(s + (e,), r._next.get(e) or descend(r, e))
                     for s, r in frontier]
            kept = [g for g in grown if g[1] is not ZERO]
        return grown, frontier + kept

    return grow, ([(EMPTY, None)] if xi is None else
                  [] if xi is ZERO else [(EMPTY, xi)])


def _members(spec: FamilySpec, ground: Sequence[int],
             head: FinSet = EMPTY) -> List[FinSet]:
    """The sets t over the ground list with head + t a member, shortlex.

    By the residual walk from head's residual for a system family or a
    natural union level; at an infinite union level, by a prefix walk
    that tests each member's first child; else by the star test.
    """
    _cap(len(ground))
    if spec._root is not None:
        r = residual_after(spec._root, head) if head else spec._root
        if r is None or r is ZERO:
            return [] if r is None else [EMPTY]
        if spec.kind == "F":  # F:a is star(B:a) without the empty set
            return [EMPTY] * bool(head) + _residual_walk(ground, r)
        return _residual_walk(ground, r, _member_counts(r, ground)[0], True)
    if spec.kind == "F" and not head:
        # Prefix closure (see the union hierarchy above): no union member
        # lies below a non-member.  Appended-element independence: for
        # nonempty s, whether s + (x,) is a member does not depend on
        # x > max s.  By induction on the level: at 0 two elements never
        # are; at a successor the greedy blocks of s stay, only the last
        # can absorb x, which by induction does not depend on x, and the
        # block budget s[0] is unchanged; at a limit the approximant index
        # runs to n <= s[0], also unchanged.  So a member's first child
        # decides all of its children: a state is the member, or False.
        n, member = len(ground), spec._member
        return _level_walk(ground, EMPTY, lambda s, x, k: (
            k + 1 < n and member(s + (x, ground[k + 1])) and s + (x,)
            or False), False)
    if spec.kind == "custom" and spec.star_predicate is None:
        return [t for t in subsets_of(ground) if spec.member(head + t)]
    keep = spec.star  # prefix-closed: nothing is kept below a dropped head
    kept = _level_walk(
        ground, head, lambda s, x, k: t if keep(t := s + (x,)) else None, None)
    return [t for t in [EMPTY, *kept] if spec.member(head + t)]


def enumerate_union_schreier(a, window: Window) -> List[FinSet]:
    """All union-hierarchy members at level a inside the window, shortlex.

    The ground set is capped at 25 elements by _cap.
    """
    return _members(FamilySpec("F", a), window.ground)
