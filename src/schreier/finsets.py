"""Finite subsets of the positive naturals, windows, and basic order helpers.

A finite set is represented as a strictly increasing tuple of ints >= 1; the
empty tuple is the empty set.  A window is a finite truncation [lo, hi] of the
ground line, optionally thinned to an explicit ground list, on which
enumeration and certificate checking are exhaustive.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain, combinations
from operator import lt
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

FinSet = Tuple[int, ...]

EMPTY: FinSet = ()

_INT = frozenset((int,))


def as_finset(elements: Iterable[int]) -> FinSet:
    """Normalise to a sorted tuple, rejecting duplicates and non-positives.

    A tuple of plain ints that is already a set is returned as it is,
    checked by builtins rather than element by element.
    """
    if (type(elements) is tuple and set(map(type, elements)) <= _INT
            and (not elements or elements[0] >= 1)
            and all(map(lt, elements, elements[1:]))):
        return elements
    xs = tuple(sorted(elements))
    prev = 0
    for x in xs:
        if not isinstance(x, int) or isinstance(x, bool):
            raise TypeError(f"set elements must be ints, got {x!r}")
        if x < 1:
            raise ValueError(f"set elements must be >= 1, got {x}")
        if x == prev:
            raise ValueError(f"duplicate element {x}")
        prev = x
    return xs


def parse_finset(text: str) -> FinSet:
    """Parse the ``{2,3,4}`` text form; ``{}`` is the empty set."""
    t = text.strip()
    if not (t.startswith("{") and t.endswith("}")):
        raise ValueError(f"expected a set literal like {{2,3,4}}, got {text!r}")
    body = t[1:-1].strip()
    if not body:
        return EMPTY
    try:
        elems = [int(p.strip()) for p in body.split(",")]
    except ValueError:
        raise ValueError(f"bad set literal {text!r}") from None
    return as_finset(elems)


def format_finset(s: FinSet) -> str:
    return "{" + ",".join(str(x) for x in s) + "}"


def shortlex_key(s: FinSet):
    return (len(s), s)


def subsets_of(base: Sequence[int], include_empty: bool = True) -> Iterator[FinSet]:
    """All subsets of a sorted base in shortlex order (size, then lex)."""
    start = 0 if include_empty else 1
    return chain.from_iterable(
        combinations(base, k) for k in range(start, len(base) + 1)
    )


def check_hereditary(pred: Callable[[FinSet], bool],
                     sets: Iterable[FinSet]) -> List[FinSet]:
    """The sets pred accepts, in order, after checking they lose no element.

    pred is called once per set.  Every one-element removal from an
    accepted set must be accepted too; sets has to hold each nonempty
    removal (all subsets of a ground list do).  The removal to the empty
    set is checked only when the empty set is among sets, so predicates
    given by their nonempty members pass.  Each accepted set costs one
    superset test of its removals; the first set that fails it raises
    ValueError naming the set and its first removal that pred rejects,
    removing the elements in order.
    """
    sets = list(sets)
    members = [s for s in sets if pred(s)]
    have = set(members)
    if EMPTY not in sets:
        have.add(EMPTY)
    for t in members:
        if t and not have.issuperset(combinations(t, len(t) - 1)):
            for i in range(len(t)):
                r = t[:i] + t[i + 1:]
                if r not in have:
                    raise ValueError(
                        f"predicate is not hereditary on the window: "
                        f"{t} is in but {r} is not"
                    )
    return members


def spread(indices: FinSet, ground: Sequence[int]) -> FinSet:
    """Relabel index positions into a sorted ground list: i -> ground[i-1].

    The result of moving a set of positions {n_1 < ... < n_k} onto the
    listed ground set.  Indices outside 1..len(ground) are an error.
    """
    out = []
    for i in indices:
        if not 1 <= i <= len(ground):
            raise ValueError(f"index {i} outside 1..{len(ground)}")
        out.append(ground[i - 1])
    return as_finset(out)


# -- bitmask form -----------------------------------------------------
#
# For engine work a set is an int with bit e set for each element e.
# Element values therefore stay <= 63 when packed into uint64 arrays;
# plain Python ints have no such cap.


def mask_of(s: FinSet) -> int:
    m = 0
    for x in s:
        m |= 1 << x
    return m


def set_of_mask(m: int) -> FinSet:
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return tuple(out)


# the ground tuple of a wider window alone takes more than 8 MiB, and no
# exhaustive operation finishes on one
_MAX_SPAN = 1 << 20


@dataclass(frozen=True)
class Window:
    """Finite truncation [lo, hi], optionally thinned to a ground list."""

    lo: int
    hi: int
    ground: Tuple[int, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if not (1 <= self.lo <= self.hi):
            raise ValueError(f"need 1 <= lo <= hi, got [{self.lo}, {self.hi}]")
        if self.hi - self.lo >= _MAX_SPAN:
            raise ValueError(f"window [{self.lo}, {self.hi}] spans more than "
                             f"{_MAX_SPAN} elements")
        g = self.ground
        if g is None:
            g = tuple(range(self.lo, self.hi + 1))
        else:
            g = as_finset(g)
            if g and not (self.lo <= g[0] and g[-1] <= self.hi):
                raise ValueError("ground set must lie within [lo, hi]")
        object.__setattr__(self, "ground", g)

    def __contains__(self, x: int) -> bool:
        return x in self.ground

    def contains_set(self, s: FinSet) -> bool:
        """Whether the ground holds every element of s, by bisection."""
        g = self.ground
        return all((i := bisect_left(g, x)) < len(g) and g[i] == x for x in s)

    def subsets(self) -> Iterator[FinSet]:
        """All subsets of the ground set in shortlex order (size, then lex)."""
        return subsets_of(self.ground)

    def tail(self, m: int) -> Tuple[int, ...]:
        """Ground elements strictly above m."""
        return tuple(x for x in self.ground if x > m)

    def describe(self) -> str:
        base = f"{self.lo}..{self.hi}"
        if self.ground != tuple(range(self.lo, self.hi + 1)):
            base += " ground " + ",".join(map(str, self.ground))
        return base


def parse_window(text: str, ground: Optional[str] = None) -> Window:
    """Parse ``1..30`` plus an optional ``2,4,6`` ground listing."""
    parts = text.split("..")
    if len(parts) != 2:
        raise ValueError(f"expected lo..hi, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"expected lo..hi with integers, got {text!r}") from None
    g = None
    if ground is not None:
        try:
            g = tuple(int(p) for p in ground.split(",") if p.strip())
        except ValueError:
            raise ValueError(f"bad ground listing {ground!r}") from None
    return Window(lo, hi, g)
