"""Expectations computed apart from the program under test.

Nothing here imports ``schreier``.  The system families whose members
are runs of "A:w blocks" (a block starting at v holds exactly v
elements) get a closed-form residual walk; counts come from dynamic
programs and recurrences over the same closed forms, and colours from
the benchmark's own SHA-256 rule.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Iterator, List, Optional, Sequence, Tuple

FinSet = Tuple[int, ...]

# blocks: number of A:w blocks in a member (None: set by the first element,
# as in A:w^2); lead: free elements before the first block
_SHAPES = {
    "A:w": (1, 0),
    "A:w+1": (1, 1),
    "A:w*2": (2, 0),
    "A:w^2": (None, 0),
}
CLOSED_FORM_FAMILIES = tuple(_SHAPES)


class Mismatch(AssertionError):
    """An output disagrees with its independent expectation."""


def expect(cond: bool, name: str, detail: str = "") -> None:
    if not cond:
        raise Mismatch(f"{name}: {detail}" if detail else name)


def finite_index(family: str) -> Optional[int]:
    tag, _, rest = family.partition(":")
    return int(rest) if tag == "A" and rest.isdigit() else None


def _render(blocks: int, extra: int) -> str:
    parts = []
    if blocks:
        parts.append("w" if blocks == 1 else f"w*{blocks}")
    if extra:
        parts.append(str(extra))
    return " + ".join(parts) or "0"


def _initial_text(family: str) -> str:
    return {"A:w": "w", "A:w+1": "w + 1", "A:w*2": "w*2", "A:w^2": "w^2"}[family]


def residual_text(family: str, p: Sequence[int]) -> Optional[str]:
    """Residual after walking p, as the program prints ordinals; None if stuck.

    The residual of a block family is w*B + E: B blocks not yet started
    and E elements still owed (free leads or the rest of a block).
    """
    k = finite_index(family)
    if k is not None:
        return str(k - len(p)) if len(p) <= k else None
    if not p:
        return _initial_text(family)
    blocks, lead = _SHAPES[family]
    owed = 0
    for i, x in enumerate(p):
        if i > 0 and blocks == 0 and owed == 0 and lead == 0:
            return None  # walked past a member boundary
        if lead:
            lead -= 1
        elif owed:
            owed -= 1
        else:
            blocks = x - 1 if blocks is None else blocks - 1
            owed = x - 1
    return _render(blocks if blocks is not None else 0, lead + owed)


def member(family: str, s: Sequence[int]) -> bool:
    return bool(s) and residual_text(family, s) == "0"


def star(family: str, s: Sequence[int]) -> bool:
    return residual_text(family, s) is not None


def decompose(family: str, s: FinSet) -> Tuple[Tuple[FinSet, ...], FinSet]:
    """Blocks (members, left to right) and the tail that follows them."""
    blocks = []
    start = 0
    for end in range(1, len(s) + 1):
        if residual_text(family, s[start:end]) == "0":
            blocks.append(s[start:end])
            start = end
    return tuple(blocks), s[start:]


def union_member(level: int, s: Sequence[int]) -> bool:
    """The union-built level 1 or 2: greedy parts no more than min s."""
    if not s:
        return False
    if level == 1:
        return len(s) <= s[0]
    parts = pos = 0
    while pos < len(s):
        pos += min(s[pos], len(s) - pos)
        parts += 1
    return parts <= s[0]


def union_members(level: int, ground: Sequence[int]) -> List[FinSet]:
    """Members of union level 1 or 2 over a ground list, shortlex."""
    if level == 1:
        out = [(a,) + rest
               for i, a in enumerate(ground)
               for j in range(a)
               for rest in combinations(ground[i + 1:], j)]
    else:
        out = [s for s in subsets(ground) if union_member(level, s)]
    return sorted(out, key=lambda s: (len(s), s))


def sha_colour(seed: int, colors: int, s: Sequence[int]) -> int:
    digest = hashlib.sha256(f"{seed}:{','.join(map(str, s))}".encode()).digest()
    return digest[0] % colors + 1


# -- counts -----------------------------------------------------------


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def member_counts(family: str, hi: int) -> Tuple[int, List[int]]:
    """Members inside [1, hi] and the section size at each m in 1..hi."""
    k = finite_index(family)
    if k is not None:
        sections = [comb(hi - m, k - 1) if k else 0 for m in range(1, hi + 1)]
        return (comb(hi, k), sections)

    @lru_cache(maxsize=None)
    def completions(blocks: int, owed: int, last: int) -> int:
        if blocks == 0 and owed == 0:
            return 1
        total = 0
        for x in range(last + 1, hi + 1):
            if owed:
                total += completions(blocks, owed - 1, x)
            else:
                total += completions(blocks - 1, x - 1, x)
        return total

    blocks, lead = _SHAPES[family]
    sections = []
    for m in range(1, hi + 1):
        if lead:
            sections.append(completions(blocks, 0, m))
        else:
            b = m - 1 if blocks is None else blocks - 1
            sections.append(completions(b, m - 1, m))
    return sum(sections), sections


def union_count(level: int, n: int) -> int:
    """Members of union level 1 or 2 inside [1, n], by the part recurrence.

    A part starting at v takes v elements when that many remain; a short
    part ends the set.  ways(v, r) counts completions from a part at v
    with r parts allowed.
    """

    @lru_cache(maxsize=None)
    def ways(v: int, r: int) -> int:
        short = sum(comb(n - v, j) for j in range(v - 1))  # fewer than v
        full = 0
        # b: last element of a full part; v - 2 elements lie strictly
        # between v and b
        for b in ([1] if v == 1 else range(2 * v - 1, n + 1)):
            fill = 1 if v == 1 else comb(b - v - 1, v - 2)
            after = 1
            if r > 1:
                after += sum(ways(u, r - 1) for u in range(b + 1, n + 1))
            full += fill * after
        return short + full

    return sum(ways(v, 1 if level == 1 else v) for v in range(1, n + 1))


def block_members(family: str, n: int) -> Iterator[FinSet]:
    """Every member inside [1, n], generated from the closed form."""

    def go(acc: FinSet, blocks: Optional[int], lead: int, owed: int):
        if acc and blocks == 0 and lead == 0 and owed == 0:
            yield acc
            return
        for x in range((acc[-1] if acc else 0) + 1, n + 1):
            if lead:
                yield from go(acc + (x,), blocks, lead - 1, 0)
            elif owed:
                yield from go(acc + (x,), blocks, 0, owed - 1)
            else:
                b = x - 1 if blocks is None else blocks - 1
                yield from go(acc + (x,), b, 0, x - 1)

    blocks, lead = _SHAPES[family]
    yield from go((), blocks, lead, 0)


def transfer_counts(level: int, n: int) -> Tuple[int, int]:
    """(spread_checked, closure_checked) of the transfer on [1, n].

    Spread side: union-level members over the n - 2 positions left after
    dropping two elements.  Closure side: distinct nonempty prefixes of
    the level's system members (A:w, A:w^2) inside [1, n].
    """
    prefixes = set()
    for s in block_members("A:w" if level == 1 else "A:w^2", n):
        prefixes.update(s[:k] for k in range(1, len(s) + 1))
    return union_count(level, n - 2), len(prefixes)


def subsets(ground: Sequence[int]) -> Iterator[FinSet]:
    for k in range(len(ground) + 1):
        yield from combinations(ground, k)
