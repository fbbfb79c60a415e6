"""The ordinal-indexed families: membership, stars, closures, enumeration.

Three constructions live here.

* The recursive system family at index xi ("A" in the CLI grammar): a set
  belongs iff consuming its elements left to right drives a residual ordinal
  from xi exactly to 0, where each element n descends the residual by
  predecessor (successor case) or fundamental(residual, n) (limit case).
* The union-built hierarchy ("F"): level 0 is the singletons; level a+1
  collects unions of at most min-many consecutive level-a blocks; at limits a
  set belongs iff it belongs to some approximant level a_n with n <= min.
* Named one-off families used as fixtures: two size-vs-minimum families and
  a mixed-section family built from system families.

The "B" kind is the system family at omega**a; at a = 1 it is the classical
family of sets with |s| = min s.

Membership predicates use the infinite ground line: a star test asks for an
extension somewhere in the naturals, not merely inside a window.  Windowed
enumeration is exhaustive over the window's ground set: a prefix walk for
the system families and the union levels, a subset filter for the rest;
closures computed on a window only count witnesses inside the window
(documented on the operations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from .finsets import (EMPTY, FinSet, Window, mask_of, set_of_mask,
                      shortlex_key, subsets_of)
from .ordinals import (
    ONE,
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

__all__ = [
    "residual_after",
    "uniform_member",
    "uniform_star",
    "union_schreier_member",
    "FamilySpec",
    "parse_family",
    "enumerate_family",
    "section",
    "star_closure",
    "down_closure",
    "check_thin",
    "check_sperner",
    "enumerate_union_schreier",
    "iter_union_schreier",
    "spread_union_schreier",
]


# -- system families --------------------------------------------------


def residual_after(xi: Ordinal, s: Iterable[int]) -> Optional[Ordinal]:
    """Residual ordinal after consuming s left to right; None if stuck.

    Stuck means some element had to descend a zero residual, i.e. s passed
    a member boundary and is not an initial segment of any member.
    """
    rest = iter(s)
    r = _walk(as_ordinal(xi), rest)
    if r is ZERO:
        for _ in rest:
            return None
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
# the feasible block lengths form a contiguous range and a longest-block
# greedy decomposition decides membership.


def union_schreier_member(a, s: FinSet) -> bool:
    a = as_ordinal(a)
    return bool(s) and _union_test(a)(s)


def _greedy_covers(a: Ordinal, s: FinSet, cache) -> bool:
    """Whole of s splits into at most s[0] greedy level-(a-1) blocks."""
    if a.is_zero:
        return len(s) == 1
    if a.is_limit:
        return any(
            _greedy_covers(wainer_fundamental(a, n), s, cache) for n in range(1, s[0] + 1)
        )
    b = predecessor(a)
    pos = 0
    blocks = 0
    while pos < len(s):
        if blocks == s[0]:
            return False
        pos += _longest_block(b, s, pos, cache)
        blocks += 1
    return True


def _longest_block(b: Ordinal, s: FinSet, i: int, cache) -> int:
    """Length of the longest prefix of s[i:] that is a level-b member.

    Always >= 1: singletons belong to every level.
    """
    key = (b, i)
    hit = cache.get(key)
    if hit is not None:
        return hit
    if b.is_zero:
        out = 1
    elif b.is_limit:
        # the longest over the approximants n <= s[i]; none can pass the
        # end of s, so stop at the first that reaches it
        out = 0
        for n in range(1, s[i] + 1):
            out = max(out, _longest_block(wainer_fundamental(b, n), s, i, cache))
            if out == len(s) - i:
                break
    else:
        c = predecessor(b)
        pos = i
        for _ in range(s[i]):  # at most s[i] sub-blocks fit the budget
            if pos >= len(s):
                break
            pos += _longest_block(c, s, pos, cache)
        out = min(pos, len(s)) - i
    cache[key] = out
    return out


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
        member, star = _resolve(self)
        object.__setattr__(self, "_member", member)
        object.__setattr__(self, "_star", star)

    def __reduce__(self):
        # the resolved tests are closures: rebuild them from the fields
        return type(self), (self.kind, self.ordinal, self.predicate,
                            self.star_predicate, self.name)

    # the system ordinal actually consumed by the residual walk, when the
    # family is a system family
    def system_ordinal(self) -> Optional[Ordinal]:
        if self.kind == "A":
            return self.ordinal
        if self.kind == "B":
            return omega_power(self.ordinal)
        return None

    def member(self, s: FinSet) -> bool:
        return self._member(s)

    def star(self, s: FinSet) -> bool:
        """Initial-segment closure test over the infinite ground line."""
        return self._star(s)

    def down(self, s: FinSet) -> bool:
        """Subset-closure test over the infinite ground line (closed forms).

        Available for the kinds with a worked-out characterization; raises
        for the rest rather than guessing, whatever s is.
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
    """Check a family literal and pick its member and star tests, once."""
    kind = spec.kind
    if kind in _ORDINAL_KINDS:
        if spec.ordinal is None:
            raise ValueError(f"kind {kind} needs an ordinal")
        a = as_ordinal(spec.ordinal)
        if kind == "F":
            # nonempty initial segments of members are members
            test = _union_test(a)
            return (lambda s: bool(s) and test(s)), (lambda s: not s or test(s))
        root = a if kind == "A" else omega_power(a)
        return (lambda s: residual_after(root, s) is ZERO,
                lambda s: residual_after(root, s) is not None)
    if kind in _NAMED_KINDS:
        if spec.ordinal is not None:
            raise ValueError(f"kind {kind} takes no ordinal")
        if kind == "exL":
            return (lambda s: bool(s) and len(s) == 2 * s[0] + 1,
                    lambda s: not s or len(s) <= 2 * s[0] + 1)
        if kind == "exR":
            return (lambda s: bool(s) and len(s) == s[0],
                    lambda s: not s or len(s) <= s[0])

        def walk(s):
            # ex112, mixed 2w-uniform: the section at 1 is the 5-sets, at 2
            # the |s|=min s family, above 2 the system family at w+n
            n = s[0]
            sec = as_ordinal(5) if n == 1 else OMEGA if n == 2 else OMEGA + n
            return residual_after(sec, s[1:])
        return (lambda s: bool(s) and walk(s) is ZERO,
                lambda s: not s or walk(s) is not None)
    if kind != "custom":
        raise ValueError(f"unknown family kind {kind!r}")
    pred, star = spec.predicate, spec.star_predicate
    if pred is None:
        raise ValueError("custom kind needs a membership predicate")
    if star is None:
        missing = f"no initial-segment test available for {spec.literal()}"

        def star(s):
            raise ValueError(missing)
    return (lambda s: bool(pred(s))), (lambda s: bool(star(s)))


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


# -- subset-closure closed forms --------------------------------------


def _schreier_star_parts(t: FinSet, pos: int = 0) -> int:
    """Minimal number of parts of t[pos:], each with |part| <= its own minimum.

    Greedy longest-part is optimal: from position i the feasible part
    lengths are exactly 1..min(t[i], rest), a contiguous range.
    """
    parts = 0
    while pos < len(t):
        pos += t[pos]
        parts += 1
    return parts


def _down_test(spec: FamilySpec) -> Callable[[FinSet], bool]:
    """The family's subset-closure test, its closed form picked once.

    Raises ValueError for a family with no closed form.
    """
    if spec.kind in ("exL", "exR", "F"):
        # their initial-segment closures are subset-closed already
        return spec._star
    xi = spec.system_ordinal()
    if xi is not None:
        if xi.is_natural:
            k = xi.as_int()
            return lambda t: len(t) <= k
        terms = xi.terms
        # w*p + k: k leading elements are free, then at most p parts each
        # bounded by its own minimum
        if terms[0][0] == ONE and (len(terms) == 1 or (
                len(terms) == 2 and terms[1][0].is_zero)):
            p = terms[0][1]
            k = terms[1][1] if len(terms) > 1 else 0
            return lambda t: _schreier_star_parts(t, k) <= p
        # w^2: at most min-many bounded parts
        if xi == omega_power(2):
            return lambda t: not t or _schreier_star_parts(t) <= t[0]
    raise ValueError(f"no subset-closure form for {spec.literal()}")


# -- windowed enumeration and checks ----------------------------------


def enumerate_family(spec: FamilySpec, window: Window) -> List[FinSet]:
    """All members whose elements lie in the window's ground set, shortlex.

    System families are listed by the count-pruned prefix walk, other
    kinds by filtering every subset.  Either way the ground set is capped
    at 25 elements; wider windows belong to the vectorized array interface.
    """
    _cap(len(window.ground))
    xi = spec.system_ordinal()
    if xi is not None:
        return _system_members(xi, window.ground)
    return [s for s in window.subsets() if spec.member(s)]


def section(spec: FamilySpec, m: int, window: Window) -> List[FinSet]:
    """The section at m: sets s > m with {m} union s a member, shortlex."""
    if m not in window:
        raise ValueError(f"{m} is not in the window ground set")
    tail = window.tail(m)
    _cap(len(tail))
    xi = spec.system_ordinal()
    if xi is not None:
        return [] if xi is ZERO else _system_members(descend(xi, m), tail)
    return [s for s in subsets_of(tail) if spec.member((m,) + s)]


def star_closure(spec: FamilySpec, window: Window) -> List[FinSet]:
    """Initial segments of members found within the window, shortlex.

    Only witnesses inside the window count, so a set star-true over the
    infinite ground line may be absent here.
    """
    xi = spec.system_ordinal()
    if xi is not None:
        _cap(len(window.ground))
        # every node the walk keeps lies below a member inside the window
        return sorted([EMPTY] + list(_system_walk(xi, window.ground)),
                      key=len)
    seen = {EMPTY: None}
    for s in enumerate_family(spec, window):
        for k in range(1, len(s) + 1):
            seen.setdefault(s[:k], None)
    return sorted(seen, key=shortlex_key)


def down_closure(spec: FamilySpec, window: Window) -> List[FinSet]:
    """Subsets of members found within the window, shortlex (same caveat)."""
    seen = set()
    for s in enumerate_family(spec, window):
        m = mask_of(s)
        # walk all submasks
        sub = m
        while True:
            seen.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & m
    return sorted((set_of_mask(x) for x in seen), key=shortlex_key)


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
# Both hierarchies are listed by one depth-first walk of the prefix tree
# over a ground list, whose frames carry a state.  Preorder on that tree
# is lex order, and a stable sort by size turns it into shortlex.

_END = object()


def _lex_walk(ground: Sequence[int], root, step, closed) -> Iterator[FinSet]:
    """Every node below the root that step keeps, in lex order.

    step(state, t, k) gives the state of t = s + (ground[k],), a child of
    s in that state.  It returns None to drop t and everything under it,
    and _END to drop t and its later siblings too.  A node whose state is
    `closed` is yielded but not expanded; neither is a closed root.
    """
    n = len(ground)
    singles = [(x,) for x in ground]
    stack = [] if root is closed else [(EMPTY, root, iter(range(n)))]
    while stack:
        s, state, ks = stack[-1]
        for k in ks:
            t = s + singles[k]
            c = step(state, t, k)
            if c is None:
                continue
            if c is _END:
                stack.pop()
                break
            yield t
            if c is not closed:
                stack.append((t, c, iter(range(k + 1, n))))
                break
        else:
            stack.pop()


def _member_counts(xi: Ordinal, ground: Sequence[int], j: int = 0):
    """Counts of the members of residual r over ground[i:], keyed (r, i),
    for every pair reached from (xi, j), in Python ints."""
    n = len(ground)
    count = {}

    def fill(r: Ordinal, i: int) -> int:
        # a state's entries run from its least start to n; extend them down
        # to i in a loop, so the recursion follows descents only
        got = count.get((r, i))
        if got is None:
            if r is ZERO:
                got = count[r, i] = 1  # the empty set
            else:
                m = i
                while m < n and (r, m) not in count:
                    m += 1
                got = count.setdefault((r, m), 0)  # m == n: nothing left
                for m in range(m - 1, i - 1, -1):
                    got += fill(descend(r, ground[m]), m + 1)
                    count[r, m] = got
        return got

    fill(xi, j)
    return count


def _system_walk(xi: Ordinal, ground: Sequence[int]) -> Iterator[FinSet]:
    """The nonempty initial segments of the members of the system family
    at xi inside the ground list, in lex order.

    A node's state is its residual, so each node costs one descend, and a
    child is entered only when the per-call count table gives it members.
    """
    count = _member_counts(xi, ground)

    def step(r, t, k):
        d = descend(r, ground[k])
        if count[d, k + 1]:
            return d
        return None if count[r, k + 1] else _END

    return _lex_walk(ground, xi, step, ZERO)


def _system_members(xi: Ordinal, ground: Sequence[int]) -> List[FinSet]:
    """Members of the system family at xi inside the ground list, shortlex.

    The walk keeps only nodes below a member, so a non-member node has a
    child, while a member has none: the members are the nodes not
    followed by a longer one.
    """
    if xi is ZERO:
        return [EMPTY]
    nodes = list(_system_walk(xi, ground))
    return sorted([t for t, u in zip(nodes, nodes[1:] + [EMPTY])
                   if len(u) <= len(t)], key=len)


# Prefix closure (see the union hierarchy above): no union member lies
# below a non-member.  Appended-element independence: for nonempty s,
# whether s + (x,) is a member does not depend on x > max s.  By induction
# on the level: at 0 two elements never are; at a successor the greedy
# blocks of s stay, only the last can absorb x, which by induction does
# not depend on x, and the block budget s[0] is unchanged; at a limit the
# approximant index runs to n <= s[0], also unchanged.  So one test per
# prefix, on its first child, decides all of its children.


def _union_test(a: Ordinal) -> Callable[[FinSet], bool]:
    """union_schreier_member at level a on nonempty sets, dispatched once."""
    if a == 1:
        return lambda s: len(s) <= s[0]
    if a == 2:
        return lambda s: _schreier_star_parts(s) <= s[0]
    return lambda s: _greedy_covers(a, s, {})


def _union_step(a: Ordinal, ground: Sequence[int]):
    """Root state and step of the level-a walk over ground.

    A node's state is false when its children are not members.  Levels 1
    and 2 answer the first-child test from the prefix alone: at level 2
    the state holds the greedy part count and where the last part ends.
    """
    n = len(ground)
    if a == 1:
        return True, lambda _, t, k: k + 1 < n and len(t) < t[0]
    if a == 2:
        def step(state, t, k):
            parts, end = state
            i = len(t) - 1
            if i == end:  # t's last element starts a part
                parts, end = parts + 1, i + t[i]
            if k + 1 < n and parts + (i + 1 == end) <= t[0]:
                return parts, end
            return False
        return (0, 0), step
    member = _union_test(a)
    return True, lambda _, t, k: k + 1 < n and member(t + (ground[k + 1],))


def enumerate_union_schreier(a, window: Window) -> List[FinSet]:
    """All union-hierarchy members at level a inside the window, shortlex."""
    return sorted(iter_union_schreier(a, window), key=len)


def iter_union_schreier(a, window: Window) -> Iterator[FinSet]:
    """Stream the level-a members inside the window in lex order, each once."""
    # singletons, the root's children, are members at every level
    root, step = _union_step(as_ordinal(a), window.ground)
    return _lex_walk(window.ground, root, step, False)


def spread_union_schreier(a, ground_list: Tuple[int, ...]) -> List[FinSet]:
    """The level-a family spread onto a listed ground set.

    Members over positions 1..len(ground_list) are relabeled through
    position i -> ground_list[i-1]; an increasing ground list keeps the
    shortlex order of the positions.
    """
    w = Window(1, max(len(ground_list), 1))
    return [tuple(ground_list[i - 1] for i in s)
            for s in enumerate_union_schreier(a, w)]
