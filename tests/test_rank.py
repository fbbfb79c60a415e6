"""Derivative ranks: symbolic residuals vs finitary probe computation."""

from itertools import combinations

import pytest

from schreier.families import parse_family
from schreier.finsets import EMPTY, Window
from schreier.ordinals import ZERO, add, compare, parse_ordinal
from schreier.rank import (
    ProbeInconsistency,
    RankTable,
    brute_derivative,
    closure_index,
    index_compare,
    symbolic_rank,
)


def o(text):
    return parse_ordinal(text)


def test_symbolic_rank_finite_levels():
    for k in range(1, 6):
        xi = o(str(k))
        for size in range(0, k + 1):
            s = tuple(range(2, 2 + size))
            assert symbolic_rank(xi, s) == o(str(k - size))


def test_symbolic_rank_limit_cases():
    assert symbolic_rank(o("w"), ()) == o("w")
    assert symbolic_rank(o("w"), (3,)) == o("2")
    assert symbolic_rank(o("w"), (3, 5)) == o("1")
    assert symbolic_rank(o("w^2"), (2,)) == o("w+1")


def test_symbolic_rank_rejects_dead_ends():
    # (2,5): after 2 the residual is 1 and the element 5 brings it to 0,
    # so (2,5) is a member; appending anything is a dead end
    with pytest.raises(ValueError):
        symbolic_rank(o("2"), (2, 5, 7))


def test_symbolic_rank_checks_xi_before_the_set():
    # with both arguments bad, the ordinal's error wins
    for bad_set in ((0,), (3, 1), ("x",)):
        with pytest.raises(TypeError, match="as an ordinal"):
            symbolic_rank("x", bad_set)
    with pytest.raises(ValueError, match=">= 1"):
        symbolic_rank(o("2"), (0,))


def test_closure_index_symbolic():
    assert closure_index(parse_family("A:w")) == o("w+1")
    assert closure_index(parse_family("A:3")) == o("4")
    assert closure_index(parse_family("B:1")) == o("w+1")
    assert closure_index(parse_family("F:1")) == o("w+1")
    assert closure_index(parse_family("B:2")) == o("w^2+1")
    assert closure_index(parse_family("exR")) == o("w+1")  # exR is A:w
    with pytest.raises(ValueError):
        closure_index(parse_family("exL"))


def star_pred(text):
    spec = parse_family(text)
    return lambda s: spec.star(s)


def test_brute_pairs_family():
    table = brute_derivative(star_pred("A:2"), Window(1, 12))
    assert table.ranks[(5,)] == 1
    assert table.ranks[(3, 7)] == 0
    assert table.ranks[EMPTY] == 2
    assert table.index == 3
    assert not table.exhausted


def test_brute_triples_family():
    table = brute_derivative(star_pred("A:3"), Window(1, 14))
    assert table.index == 4


def test_brute_trivial_family():
    table = brute_derivative(lambda s: s == EMPTY, Window(1, 8))
    assert table.index == 1


def test_brute_matches_symbolic_on_finite_levels():
    for k in range(1, 5):
        xi = o(str(k))
        table = brute_derivative(star_pred(f"A:{k}"), Window(1, 14))
        assert table.index == k + 1
        for s, r in table.ranks.items():
            assert symbolic_rank(xi, s) == o(str(r))


def test_step_cap_reports_exhaustion():
    table = brute_derivative(star_pred("A:4"), Window(1, 12), max_steps=2)
    assert table.exhausted
    assert table.index is None


def test_rejects_non_hereditary():
    pred = lambda s: s == EMPTY or s == (2, 5)
    with pytest.raises(ValueError):
        brute_derivative(pred, Window(1, 8))


def test_rejects_family_without_empty_set():
    with pytest.raises(ValueError):
        brute_derivative(lambda s: s == (3,), Window(1, 8))


def test_probe_inconsistency_carries_diagnostics():
    err = ProbeInconsistency((2, 4), 1, {9: True, 10: False})
    assert err.subject == (2, 4)
    assert err.step == 1
    assert 9 in err.votes and 10 in err.votes
    assert "step 1" in str(err)


def test_horizon_validation():
    with pytest.raises(ValueError):
        brute_derivative(star_pred("A:2"), Window(1, 12), horizon=5)


def test_nested_families_have_ordered_indexes():
    small = brute_derivative(star_pred("A:2"), Window(1, 12))
    big = brute_derivative(star_pred("A:3"), Window(1, 12))
    assert small.index < big.index


def test_index_compare_trichotomy():
    assert index_compare(o("w+1"), o("2")) == "FirstBranch"
    assert index_compare(o("w+1"), o("w")) == "Boundary"
    assert index_compare(o("3"), o("w")) == "SecondBranch"
