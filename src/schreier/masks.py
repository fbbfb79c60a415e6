"""Vectorized enumeration of system families over wide windows.

Finite sets are uint64 bitmasks (bit e set iff element e belongs), so a
window may reach element 62.  For a root ordinal xi the engine reads the
count table the prefix walks use, which holds every (state, start) pair
the root reaches and how many completions each has, then assembles one
mask array per state, ordered by descending first element.  That ordering makes
"all members with first element > m" a prefix slice, so sections and tail
restrictions are O(1) views into the root array.

Only pairs the root actually demands get array coverage: a finite residual
k, covered from every start, would otherwise cost all C(hi, k) subsets.
"""

from __future__ import annotations

from functools import cmp_to_key
from typing import Dict, List

import numpy as np

from .families import _member_counts
from .finsets import FinSet, set_of_mask
from .ordinals import ZERO, Ordinal, as_ordinal, compare, descend

__all__ = ["MaskFamily", "masks_to_sets", "sort_masks"]

# one uint64 per member: 2**27 members are 1 GiB of masks
_MAX_MEMBERS = 1 << 27


class MaskFamily:
    """The system family at xi over the window [root_start+1, hi].

    member_masks() holds every member whose elements all exceed
    root_start, as bitmasks grouped by descending first element.  More
    than 2**27 members (1 GiB of masks) raise ValueError before assembly.
    """

    def __init__(self, xi, hi: int, root_start: int = 0):
        xi = as_ordinal(xi)
        if not 1 <= hi <= 62:
            raise ValueError("window top must be in 1..62")
        if not 0 <= root_start <= hi:
            raise ValueError("root_start must be in 0..hi")
        self.xi = xi
        self.hi = hi
        self.root_start = root_start
        if xi.is_zero:
            # the family {empty set}
            self._root = np.zeros(1, dtype=np.uint64)
            return
        self._cnt = _member_counts(xi, range(1, hi + 1), root_start)
        members = self.member_count()
        if members > _MAX_MEMBERS:
            raise ValueError(
                f"{members} members would take {members * 8 / 2**30:.1f} GiB "
                f"of masks; the limit is {_MAX_MEMBERS} members (1 GiB)")
        self._assemble()

    def _count_at(self, r: Ordinal, m: int) -> int:
        """Members of the state-r family inside (m, hi]."""
        got = self._cnt.get((r, m))
        if got is None:
            raise ValueError(f"start {m} below covered range for state")
        return got

    # -- mask arrays ----------------------------------------------------

    def _assemble(self):
        # each state is covered from the least start the root reaches it at
        lo: Dict[Ordinal, int] = {}
        for r, m in self._cnt:
            if r is not ZERO and m < lo.get(r, m + 1):
                lo[r] = m
        arrays: Dict[Ordinal, np.ndarray] = {}
        for r in sorted(lo, key=cmp_to_key(compare)):
            chunks: List[np.ndarray] = []
            for n in range(self.hi, lo[r], -1):
                bit = np.uint64(1 << n)
                d = descend(r, n)
                if d is ZERO:
                    chunks.append(np.array([bit], dtype=np.uint64))
                else:
                    c = self._cnt[d, n]
                    if c:
                        chunks.append(arrays[d][:c] | bit)
            arrays[r] = (
                np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.uint64)
            )
        self._root = arrays[self.xi]
        # subsidiary arrays are copies inside the root; free them
        del arrays

    # -- public views -------------------------------------------------

    def member_count(self, above: int | None = None) -> int:
        if self.xi.is_zero:
            return 1
        m = self.root_start if above is None else above
        return self._count_at(self.xi, m)

    def member_masks(self, above: int | None = None) -> np.ndarray:
        """Members with all elements > above (default: the whole window).

        Prefix view of the root array; no copy.
        """
        if self.xi.is_zero:
            return self._root
        return self._root[: self.member_count(above)]

    def section_masks(self, m: int) -> np.ndarray:
        """Masks of the section at m: s with {m} u s a member, s > m."""
        if self.xi.is_zero:
            raise ValueError("the zero-index family has no sections")
        if not self.root_start < m <= self.hi:
            raise ValueError(f"section point {m} outside ({self.root_start}, {self.hi}]")
        start = self._count_at(self.xi, m)
        stop = self._count_at(self.xi, m - 1)
        return self._root[start:stop] ^ np.uint64(1 << m)


def sort_masks(masks: np.ndarray) -> np.ndarray:
    """Ascending numeric sort; a canonical order for set comparison."""
    return np.sort(masks, kind="stable")


def masks_to_sets(masks) -> List[FinSet]:
    """Decode masks to sorted tuples (small result sets only)."""
    return [set_of_mask(int(m)) for m in masks]
