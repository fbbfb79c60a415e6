"""Cantor-Bendixson style rank and index for downward-closed families.

Two routes that meet on small finite cases:

* symbolic: the rank of an initial segment inside the closure of the
  system family at xi is just the leftover residual of the walk, and the
  closure's index is xi + 1;
* brute force: iterate the derivative on a window, deciding "cofinally
  extendable" through an explicit probe horizon.  The genuine derivative
  quantifies over infinite ground sets and is not window-computable, so
  the probe demands unanimity on (H, 2H] and aborts loudly on a split
  vote rather than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from .families import FamilySpec, residual_after
from .finsets import EMPTY, FinSet, Window, as_finset, check_hereditary
from .ordinals import ONE, Ordinal, add, as_ordinal, compare, omega_power


def symbolic_rank(xi, s) -> Ordinal:
    """Rank of s in the derivative hierarchy of the system family closure.

    The empty set has rank xi; consuming an element descends the rank the
    same way membership does.  Only initial segments of members carry a
    symbolic rank; anything else is rejected.
    """
    xi = as_ordinal(xi)
    s = as_finset(s)
    r = residual_after(xi, s)
    if r is None:
        raise ValueError(f"{s} is not an initial segment of any member")
    return r


def closure_index(spec: FamilySpec) -> Ordinal:
    """Symbolic index of the family's downward closure.

    The closure of the system family at xi has index xi + 1; the union
    hierarchy at level a sits at omega**a + 1.  Families without a known
    symbolic index are rejected.
    """
    xi = omega_power(spec.ordinal) if spec.kind == "F" else spec.system_ordinal()
    if xi is None:
        raise ValueError(f"no symbolic index for {spec.literal()}")
    return add(xi, ONE)


class ProbeInconsistency(RuntimeError):
    """The eventual-membership probe saw a split vote; the window cannot
    settle this derivative step."""

    def __init__(self, subject: FinSet, step: int, votes: Dict[int, bool]):
        self.subject = subject
        self.step = step
        self.votes = votes
        ins = sorted(m for m, v in votes.items() if v)
        outs = sorted(m for m, v in votes.items() if not v)
        super().__init__(
            f"derivative step {step} of {subject}: extensions disagree "
            f"(in via {ins[:4]}, out via {outs[:4]})"
        )


@dataclass
class RankTable:
    """Finite ranks of every family member on the window.

    index is rank(empty) + 1 when the iteration emptied out within
    max_steps; exhausted marks tables that hit the step cap instead.
    """

    ranks: Dict[FinSet, int]
    index: Optional[int]
    exhausted: bool
    horizon: int


def brute_derivative(
    pred: Callable[[FinSet], bool],
    window: Window,
    max_steps: int = 16,
    horizon: Optional[int] = None,
) -> RankTable:
    """Iterate the derivative of a hereditary family given as a predicate.

    pred must be meaningful on all finite sets (the probe evaluates it
    beyond the window).  A set survives one step iff all probe extensions
    A u {m}, m in (H, 2H], land inside the current derivative.
    """
    H = horizon if horizon is not None else window.hi
    if H < window.hi:
        raise ValueError("probe horizon below the window top")

    members = check_hereditary(pred, window.subsets())

    memo: Dict[Tuple[FinSet, int], bool] = {}

    def in_derivative(A: FinSet, k: int) -> bool:
        if k == 0:
            return pred(A)
        key = (A, k)
        hit = memo.get(key)
        if hit is not None:
            return hit
        votes = {
            m: in_derivative(tuple(sorted(A + (m,))), k - 1)
            for m in range(H + 1, 2 * H + 1)
            if m not in A
        }
        vals = set(votes.values())
        if len(vals) > 1:
            raise ProbeInconsistency(A, k, votes)
        out = vals.pop()
        memo[key] = out
        return out

    ranks: Dict[FinSet, int] = {}
    exhausted = False
    for A in members:
        k = 0
        while k < max_steps and in_derivative(A, k + 1):
            k += 1
        ranks[A] = k
        if k == max_steps:
            exhausted = True
    index = None if exhausted else (ranks.get(EMPTY, -1) + 1)
    return RankTable(ranks=ranks, index=index, exhausted=exhausted, horizon=H)


def index_compare(sigma, xi) -> str:
    """Which branch of the index dichotomy applies at level xi.

    FirstBranch when xi + 1 < sigma, SecondBranch when sigma < xi + 1,
    Boundary at equality.
    """
    sigma = as_ordinal(sigma)
    threshold = add(as_ordinal(xi), ONE)
    c = compare(sigma, threshold)
    if c > 0:
        return "FirstBranch"
    if c < 0:
        return "SecondBranch"
    return "Boundary"
