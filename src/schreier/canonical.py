"""Canonical block decomposition of finite sets against a uniform family.

Any nonempty finite set splits uniquely into consecutive family members
followed by a tail that is a proper initial segment of a member.  Thinness
of the family is what makes the greedy scan correct: at most one prefix of
any set is a member, so the first member prefix found is the only choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .families import FamilySpec, check_sperner
from .finsets import FinSet, Window, as_finset
from .ordinals import ZERO, _walk

__all__ = [
    "CanonicalRep",
    "FamilyContractError",
    "canonical_rep",
    "trichotomy",
    "sperner_witness",
]


class FamilyContractError(ValueError):
    """The family violated a uniformity assumption (e.g. is not thin)."""


@dataclass(frozen=True)
class CanonicalRep:
    """Blocks are members in increasing order; the tail extends to a member.

    type is the number of blocks; type 0 means the whole set is a proper
    initial segment of a member (empty tail means the set ends exactly on
    a block boundary).
    """

    blocks: Tuple[FinSet, ...]
    tail: FinSet

    @property
    def type(self) -> int:
        return len(self.blocks)

    def reconstruct(self) -> FinSet:
        out: Tuple[int, ...] = ()
        for b in self.blocks:
            out += b
        return out + self.tail

    def as_json_dict(self) -> dict:
        return {
            "blocks": [list(b) for b in self.blocks],
            "tail": list(self.tail),
            "type": self.type,
        }


def _first_block(spec: FamilySpec, A: FinSet) -> int:
    """Length of the member prefix of nonempty A, or 0 when there is none.

    By thinness no later prefix can be a member, so for a system family
    one residual walk that stops at its first zero decides; a walk that
    never reaches zero is never stuck, and A extends to a member.  Other
    families are scanned prefix by prefix, which also checks the contract.
    """
    xi = spec.system_ordinal()
    if xi is not None and not xi.is_zero:
        r, k = _walk(xi, A)
        return k if r is ZERO else 0
    hits = [k for k in range(1, len(A) + 1) if spec.member(A[:k])]
    if len(hits) > 1:
        raise FamilyContractError(
            f"{spec.literal()} is not thin: {A[:hits[0]]} and "
            f"{A[:hits[1]]} are both members"
        )
    if not hits and not spec.star(A):
        raise FamilyContractError(
            f"{spec.literal()} is not uniform here: {A} has no member "
            "prefix and does not extend to a member"
        )
    return hits[0] if hits else 0


def canonical_rep(spec: FamilySpec, A) -> CanonicalRep:
    A = as_finset(A)
    if not A:
        raise ValueError("canonical representation is defined for nonempty sets")
    blocks: List[FinSet] = []
    while A:
        k = _first_block(spec, A)
        if not k:
            break
        blocks.append(A[:k])
        A = A[k:]
    return CanonicalRep(blocks=tuple(blocks), tail=A)


def trichotomy(spec: FamilySpec, A) -> Tuple[str, Optional[FinSet]]:
    """Classify A: extends past a member, or sits strictly inside one.

    Returns ("ExtendsMember", witness) where witness is the unique member
    prefix of A (possibly A itself), or ("ProperPrefixOfMember", None).
    """
    A = as_finset(A)
    if not A:
        raise ValueError("the empty set is not classified")
    k = _first_block(spec, A)
    if k:
        return "ExtendsMember", A[:k]
    return "ProperPrefixOfMember", None


def sperner_witness(spec: FamilySpec, window: Window):
    """First member pair s strictly inside t within the window, if any."""
    ok, pair = check_sperner(spec, window)
    return None if ok else pair
