"""Canonical representation: greedy vs all-decompositions brute force."""

from itertools import combinations

import pytest

from schreier.canonical import (
    CanonicalRep,
    FamilyContractError,
    canonical_rep,
    sperner_witness,
    trichotomy,
)
from schreier.families import FamilySpec, parse_family
from schreier.finsets import EMPTY, Window
from schreier.ordinals import parse_ordinal


def spec_of(text):
    return parse_family(text)


def count_decompositions(spec, A):
    """Number of (blocks, tail) splits satisfying the representation laws.

    Blocks are member prefixes cut left to right; the tail (possibly
    empty) must extend to a member without being one.
    """

    def ways(rest):
        total = 0
        if not rest:
            total += 1  # empty tail
        elif spec.star(rest) and not spec.member(rest):
            total += 1  # proper-prefix tail
        for k in range(1, len(rest) + 1):
            if spec.member(rest[:k]):
                total += ways(rest[k:])
        return total

    return ways(A)


def all_subsets(hi):
    vals = range(1, hi + 1)
    for k in range(1, hi + 1):
        yield from combinations(vals, k)


SPECS = ["A:2", "A:w", "A:w+1", "A:w*2"]


@pytest.mark.parametrize("text", SPECS)
def test_rep_is_unique_and_greedy_finds_it(text):
    spec = spec_of(text)
    for A in all_subsets(11):
        rep = canonical_rep(spec, A)
        assert rep.reconstruct() == A
        for b in rep.blocks:
            assert spec.member(b)
        if rep.tail:
            assert spec.star(rep.tail) and not spec.member(rep.tail)
        assert count_decompositions(spec, A) == 1, A


def test_singleton_family_rep():
    spec = spec_of("A:1")
    rep = canonical_rep(spec, (3, 5, 8))
    assert rep.blocks == ((3,), (5,), (8,))
    assert rep.tail == EMPTY
    assert rep.type == 3


def test_spec_examples():
    rep = canonical_rep(spec_of("A:w"), (2, 3, 4, 5, 6))
    assert rep.blocks == ((2, 3),)
    assert rep.tail == (4, 5, 6)
    assert rep.type == 1

    rep = canonical_rep(spec_of("A:w"), (1, 3))
    assert rep.blocks == ((1,),)
    assert rep.tail == (3,)
    assert rep.type == 1


def test_type_zero_is_proper_prefix():
    spec = spec_of("A:w")
    for A in all_subsets(10):
        rep = canonical_rep(spec, A)
        kind, witness = trichotomy(spec, A)
        assert (rep.type == 0) == (kind == "ProperPrefixOfMember")
        if kind == "ExtendsMember":
            assert witness == rep.blocks[0]


def test_generic_path_matches_system_path():
    # a custom wrapper hides the system ordinal, so it takes the generic
    # prefix-by-prefix scan: the definitional oracle for the residual walk
    for text in ("A:2", "A:w", "A:w+1", "A:w*2", "A:w^2", "A:w^w"):
        sysspec = spec_of(text)
        wrapped = FamilySpec(
            kind="custom",
            predicate=sysspec.member,
            star_predicate=sysspec.star,
            name="wrapped",
        )
        for A in all_subsets(10):
            assert canonical_rep(sysspec, A) == canonical_rep(wrapped, A), \
                (text, A)
            assert trichotomy(sysspec, A) == trichotomy(wrapped, A), (text, A)


def test_mixed_family_rep():
    spec = spec_of("ex112")
    rep = canonical_rep(spec, (1, 2, 3, 4, 5, 6, 2 + 7))
    # block (1,2,3,4,5,6) since the tail 1 takes five more, then {9} starts
    assert rep.blocks[0] == (1, 2, 3, 4, 5, 6)
    assert rep.reconstruct() == (1, 2, 3, 4, 5, 6, 9)


def test_rep_rejects_empty():
    with pytest.raises(ValueError):
        canonical_rep(spec_of("A:w"), ())


def test_contract_violation_reported():
    fat = FamilySpec(
        kind="custom",
        predicate=lambda s: s in ((2,), (2, 3)),
        name="not-thin",
    )
    with pytest.raises(FamilyContractError):
        canonical_rep(fat, (2, 3, 4))
    stuckfam = FamilySpec(
        kind="custom",
        predicate=lambda s: False,
        star_predicate=lambda s: not s,
        name="no-members",
    )
    with pytest.raises(FamilyContractError):
        canonical_rep(stuckfam, (4, 5))


def test_trichotomy_examples():
    assert trichotomy(spec_of("A:w"), (4, 5)) == ("ProperPrefixOfMember", None)
    assert trichotomy(spec_of("A:w"), (2, 3, 9)) == ("ExtendsMember", (2, 3))
    assert trichotomy(spec_of("A:2"), (5, 8)) == ("ExtendsMember", (5, 8))


def test_restriction_stability():
    # recomputing against a ground superset changes nothing: membership only
    # consults the elements themselves
    spec = spec_of("A:w*2")
    for A in ((2, 3, 4, 5), (1, 4, 7), (3, 4, 5, 6, 7, 8, 9)):
        rep = canonical_rep(spec, A)
        again = canonical_rep(spec, A)
        assert rep == again


def test_sperner_witness_delegates():
    assert sperner_witness(spec_of("ex112"), Window(1, 12)) == (
        (2, 3, 4, 5),
        (1, 2, 3, 4, 5, 6),
    )
    assert sperner_witness(spec_of("A:3"), Window(1, 10)) is None
