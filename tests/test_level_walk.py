"""The level walk against the frontier and the subset filter.

``enumerate_family``, ``section``, ``star_closure`` and
``enumerate_union_schreier`` walk the prefix tree level by level.  Two
oracles hold the listings to their answers: the kept-subset frontier
that the searches grow, folded over the ground list by the star test,
and the filter that tests every subset of the ground list.  The union
levels get a third oracle: F:a is the star of B:a without the empty
set.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import schreier.families as families
from schreier.cli import main
from schreier.families import (FamilySpec, _greedy_covers, _kept,
                               _longest_block, enumerate_family,
                               enumerate_union_schreier, parse_family,
                               section, star_closure, uniform_star,
                               union_schreier_member)
from schreier.finsets import (EMPTY, Window, format_finset, shortlex_key,
                              subsets_of)
from schreier.ordinals import (omega_power, parse_ordinal, predecessor,
                               wainer_fundamental)


def _odd_triple(s):
    return len(s) == 3 and sum(s) % 2 == 1


ODD_TRIPLE = FamilySpec("custom", predicate=_odd_triple,
                        star_predicate=lambda s: len(s) < 3 or _odd_triple(s),
                        name="odd-triple")

SYSTEM = [f"{k}:{a}" for k in "AB" for a in ("2", "w", "w+1", "w*2", "w^2")]
UNION = [f"F:{a}" for a in ("0", "1", "2", "3", "4", "5", "6", "w", "w^2")]
PANEL = [parse_family(t) for t in SYSTEM + UNION + ["exL", "exR", "ex112"]]
PANEL.append(ODD_TRIPLE)


# -- oracles ------------------------------------------------------------


def folded(spec, ground, head=EMPTY):
    """Every t over ground with head + t a member, from the sets the
    frontier grows over head + ground, each once; sorted shortlex."""
    grow, frontier = _kept(spec)
    kept = [EMPTY] if spec.star(EMPTY) else []
    for x in head + tuple(ground):
        grown, frontier = grow(frontier, x)
        kept += [t for t, _ in grown]
    assert len(set(kept)) == len(kept)
    n = len(head)
    return sorted((t[n:] for t in kept if t[:n] == head and spec.member(t)),
                  key=shortlex_key)


def filtered(spec, ground, head=EMPTY):
    """Every t over ground, shortlex, with head + t a member."""
    return [t for t in subsets_of(ground) if spec.member(head + t)]


def shortlex_once(sets):
    return (sets == sorted(sets, key=shortlex_key)
            and len(set(sets)) == len(sets))


def check(spec, ground, head, got):
    assert shortlex_once(got), (spec, ground, head)
    assert got == folded(spec, ground, head), (spec, ground, head)
    assert got == filtered(spec, ground, head), (spec, ground, head)


# -- the listings --------------------------------------------------------


@pytest.mark.parametrize("spec", PANEL, ids=str)
@settings(max_examples=10, deadline=None)
@given(ground=st.sets(st.integers(1, 16), min_size=1, max_size=10))
def test_thinned_listing_and_sections_match_both_oracles(spec, ground):
    g = tuple(sorted(ground))
    w = Window(g[0], g[-1], g)
    check(spec, g, EMPTY, enumerate_family(spec, w))
    for m in g[:3]:
        check(spec, w.tail(m), (m,), section(spec, m, w))
    if len(g) > 2:  # a two-element head
        check(spec, g[2:], g[:2], families._members(spec, g[2:], g[:2]))


@pytest.mark.parametrize("spec,hi", [
    *((s, 12) for s in PANEL), (parse_family("F:w^w"), 9)], ids=str)
def test_window_listing_matches_both_oracles(spec, hi):
    w = Window(1, hi)
    check(spec, w.ground, EMPTY, enumerate_family(spec, w))
    check(spec, w.tail(2), (2,), section(spec, 2, w))


@pytest.mark.parametrize("text", SYSTEM + ["A:0", "A:3"] + UNION)
@pytest.mark.parametrize("w", [Window(1, 13), Window(2, 17, (2, 3, 5, 6, 8, 9,
                                                             11, 13, 16, 17))],
                         ids=["interval", "thinned"])
def test_system_star_closure_matches_both_oracles(text, w):
    spec = parse_family(text)
    got = star_closure(spec, w)
    assert shortlex_once(got)
    prefixes = {s[:k] for s in filtered(spec, w.ground)
                for k in range(len(s) + 1)}
    assert got == sorted(prefixes | {EMPTY}, key=shortlex_key)


# -- the union levels ----------------------------------------------------


@pytest.mark.parametrize("level,hi,members", [(1, 18, 6764), (2, 14, 6717)])
def test_union_listing_walks_the_residual_of_w_to_the_level(monkeypatch, level,
                                                            hi, members):
    # a natural level lists by the residual of w^level, one memo read per
    # child: no step walk and no walk from the root, and once the memo is
    # warm no descend either
    def refuse(*args):
        raise AssertionError("the listing left the residual walk")

    monkeypatch.setattr(families, "_level_walk", refuse)
    monkeypatch.setattr(families, "residual_after", refuse)
    w = Window(1, hi)
    got = enumerate_union_schreier(level, w)
    assert len(got) == members
    assert shortlex_once(got)
    made = []
    real = families.descend
    monkeypatch.setattr(families, "descend",
                        lambda *args: made.append(args) or real(*args))
    assert enumerate_union_schreier(level, w) == got
    assert made == []


def test_union_sections_count_pinned():
    # the sections of F:3 at 1..5 on [1,16] walk from each head's residual
    spec, w = parse_family("F:3"), Window(1, 16)
    assert sum(len(section(spec, m, w)) for m in range(1, 6)) == 30721


IDENTITY_LEVELS = ["0", "1", "2", "3", "4", "5", "6", "w", "w+1", "w+2", "w*2",
                   "w^2"]


@pytest.mark.parametrize("a_text", IDENTITY_LEVELS)
def test_union_level_is_the_star_of_b_without_empty(a_text):
    # F:a = star(B:a) \ {EMPTY}, with the union level read by the block
    # greedy, since union_schreier_member walks B:a's residual at natural
    # levels: every nonempty subset of [1,12], then 300 random sets from
    # [1,60] per level
    a = parse_ordinal(a_text)
    b = omega_power(a)
    for s in subsets_of(range(1, 13), include_empty=False):
        assert _greedy_covers(a, s, {}) == uniform_star(b, s), s
    rng = random.Random(f"union-star:{a_text}")
    for _ in range(300):
        s = tuple(sorted(rng.sample(range(1, 61), rng.randint(1, 12))))
        assert _greedy_covers(a, s, {}) == uniform_star(b, s), s


@pytest.mark.parametrize("a_text", IDENTITY_LEVELS)
@pytest.mark.parametrize("w", [Window(1, 13), Window(2, 17, (2, 3, 5, 6, 8, 9,
                                                             11, 13, 16, 17))],
                         ids=["interval", "thinned"])
def test_union_listing_is_the_star_of_b(a_text, w):
    b = omega_power(parse_ordinal(a_text))
    assert enumerate_union_schreier(parse_ordinal(a_text), w) == [
        s for s in subsets_of(w.ground, include_empty=False)
        if uniform_star(b, s)]


def test_star_of_b_passes_the_expansion_limit_at_w_to_the_w():
    # the identity cannot replace the union greedy: at B:w^w the residual
    # walk's first descent at 6 runs past the normal-form limit
    a = parse_ordinal("w^w")
    assert union_schreier_member(a, (6, 7))
    with pytest.raises(ValueError, match="20000 terms"):
        uniform_star(omega_power(a), (6, 7))


def test_high_natural_level_answers_by_the_residual(capsys):
    # the block greedy recursed once per level: F:1200 raised RecursionError
    assert parse_family("F:1200").member((5, 6, 7, 8))
    assert main(["member", "--family", "F:1200", "--set", "{5,6,7,8}"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    with pytest.raises(ValueError, match="20000 terms"):
        parse_family("F:30000").member((5, 6, 7, 8))
    assert main(["member", "--family", "F:30000", "--set", "{5,6,7,8}"]) == 2
    assert capsys.readouterr().err.startswith("error:")


# -- the block greedy against its recursive form ------------------------


def recursive_covers(a, s, cache):
    """The union greedy as it recursed once per level: the oracle."""
    if a.is_zero:
        return len(s) == 1
    if a.is_limit:
        return any(recursive_covers(wainer_fundamental(a, n), s, cache)
                   for n in range(1, s[0] + 1))
    b = predecessor(a)
    pos = blocks = 0
    while pos < len(s):
        if blocks == s[0]:
            return False
        pos += recursive_block(b, s, pos, cache)
        blocks += 1
    return True


def recursive_block(b, s, i, cache):
    key = (b, i)
    if key in cache:
        return cache[key]
    if b.is_zero:
        out = 1
    elif b.is_limit:
        out = 0
        for n in range(1, s[i] + 1):
            out = max(out, recursive_block(wainer_fundamental(b, n), s, i,
                                           cache))
            if out == len(s) - i:
                break
    else:
        c = predecessor(b)
        pos = i
        for _ in range(s[i]):
            if pos >= len(s):
                break
            pos += recursive_block(c, s, pos, cache)
        out = min(pos, len(s)) - i
    cache[key] = out
    return out


@pytest.mark.parametrize("a_text", ["w", "w+1", "w+2", "w+5", "w*2+1",
                                    "w^2+3"])
def test_stacked_greedy_matches_the_recursive_greedy(a_text):
    # 300 random sets from [1,39] per level: the whole-set answer and the
    # longest block at every position, one cache shared along each set
    a = parse_ordinal(a_text)
    rng = random.Random(f"stacked-greedy:{a_text}")
    for _ in range(300):
        s = tuple(sorted(rng.sample(range(1, 40), rng.randint(1, 12))))
        assert _greedy_covers(a, s, {}) == recursive_covers(a, s, {}), s
        cache, oracle = {}, {}
        for i in range(len(s)):
            assert (_longest_block(a, s, i, cache)
                    == recursive_block(a, s, i, oracle)), (s, i)


def test_long_successor_run_does_not_recurse(capsys):
    # the greedy recursed once per successor step: F:w+1200 raised
    # RecursionError through the API, and both CLI verbs printed a traceback
    a = parse_ordinal("w+1200")
    assert union_schreier_member(a, (5, 6, 7, 8))
    assert main(["member", "--family", "F:w+1200", "--set", "{5,6,7,8}"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["enum", "--family", "F:w+1200", "--window", "1..6"]) == 0
    assert capsys.readouterr().out.split() == [
        format_finset(s) for s in enumerate_union_schreier(a, Window(1, 6))]
