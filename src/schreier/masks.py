"""Vectorized enumeration of system families over wide windows.

Finite sets are uint64 bitmasks (bit e set iff element e belongs), so a
window may reach element 62.  For a root ordinal xi the engine reads the
per-state count rows the prefix walks use: for every state the root
reaches, how many completions it has from each start it is reached at.
One mask array per state, ordered by descending first element, holds the
state's members above its least start.  That ordering makes "all members
with first element > m" a prefix slice, so sections and tail restrictions
are O(1) views into the root array.

The rows size every array before anything is allocated, so a window whose
arrays would together hold too many masks is refused up front.  A state's
array is built on first demand, after the arrays of the states it descends
to: it is allocated once, and each first-element chunk, a prefix of a
child's array with one more bit, is or-ed straight into its slice.

Only pairs the root actually demands get array coverage: a finite residual
k, covered from every start, would otherwise cost all C(hi, k) subsets.
The rows stop where no member can finish, so a state reached only there
has no row: a chunk's size is read from its parent's row, and the child is
descended to only when that size is nonzero.
"""

from __future__ import annotations

from typing import Dict, List

# The package modules come before numpy.  ``from schreier import
# MaskFamily`` may be the first import of the package, and with numpy
# loaded first the walk kernel's objects land after numpy's allocations:
# enumeration then ran about 12% slower, at a higher peak RSS.
from .families import _member_counts
from .finsets import FinSet, set_of_mask
from .ordinals import ZERO, Ordinal, as_ordinal, descend

import numpy as np

__all__ = ["MaskFamily", "masks_to_sets", "sort_masks"]

# one uint64 per mask: the state arrays may hold 2**27 masks, 1 GiB
_MAX_MASKS = 1 << 27


class MaskFamily:
    """The system family at xi over the window [root_start+1, hi].

    member_masks() holds every member whose elements all exceed
    root_start, as bitmasks grouped by descending first element.  When
    the state arrays the assembly holds would exceed 2**27 masks (1 GiB)
    together, ValueError is raised before any of them is allocated.
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
        rows, lo = _member_counts(xi, range(1, hi + 1), root_start)
        self._row = rows[xi]
        held = sum(row[lo[r]] for r, row in rows.items())
        if held > _MAX_MASKS:
            raise ValueError(
                f"{self.member_count()} members need {held} masks in the "
                f"state arrays, {held * 8 / 2**30:.1f} GiB; the limit is "
                f"{_MAX_MASKS} masks (1 GiB)")
        self._root = self._assemble(rows, lo)

    def _count_at(self, m: int) -> int:
        """Members of the root family inside (m, hi]."""
        if not self.root_start <= m <= self.hi:
            raise ValueError(
                f"start {m} outside the covered range "
                f"[{self.root_start}, {self.hi}]")
        return self._row[m]

    # -- mask arrays ----------------------------------------------------

    def _assemble(self, rows, lo) -> np.ndarray:
        # position k of the ground list range(1, hi + 1) holds element k + 1,
        # and its chunk holds row[k] - row[k + 1] masks: only a nonzero chunk
        # looks up its child, which has no row when met only in dead cells
        arrays: Dict[Ordinal, np.ndarray] = {}

        def build(r: Ordinal) -> np.ndarray:
            row = rows[r]
            out = arrays[r] = np.empty(row[lo[r]], dtype=np.uint64)
            off = 0
            memo = r._next
            for k in range(self.hi - 1, lo[r] - 1, -1):
                c = row[k] - row[k + 1]
                if not c:
                    continue
                e = k + 1
                bit = np.uint64(1 << e)
                d = memo.get(e)
                if d is None:
                    d = descend(r, e)
                if d is ZERO:
                    out[off] = bit
                    off += 1
                    continue
                sub = arrays.get(d)
                if sub is None:
                    sub = build(d)
                np.bitwise_or(sub[:c], bit, out=out[off:off + c])
                off += c
            return out

        root = build(self.xi)
        del build  # it refers to itself: drop the cycle, and the arrays, now
        return root

    # -- public views -------------------------------------------------

    def member_count(self, above: int | None = None) -> int:
        if self.xi.is_zero:
            return 1
        return self._count_at(self.root_start if above is None else above)

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
        start = self._count_at(m)
        stop = self._count_at(m - 1)
        return self._root[start:stop] ^ np.uint64(1 << m)


def sort_masks(masks: np.ndarray) -> np.ndarray:
    """Ascending numeric sort; a canonical order for set comparison."""
    return np.sort(masks, kind="stable")


def masks_to_sets(masks) -> List[FinSet]:
    """Decode masks to sorted tuples (small result sets only)."""
    return [set_of_mask(int(m)) for m in masks]
