"""Family membership, stars, closures, sections, enumeration.

The load-bearing oracles here are independent of the library's greedy
paths: an all-decompositions recursion for the union hierarchy and a
free-insertion walk for subset-closure witnesses.
"""

import time
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from schreier import finsets
from schreier.canonical import canonical_rep, trichotomy
from schreier.families import (
    FamilySpec,
    check_sperner,
    check_thin,
    enumerate_family,
    enumerate_union_schreier,
    parse_family,
    section,
    star_closure,
    uniform_member,
    uniform_star,
    union_schreier_member,
    _down_test,
    _kept,
)
from schreier.finsets import EMPTY, Window
from schreier.ordinals import (
    OMEGA,
    ZERO,
    as_ordinal,
    descend,
    omega_power,
    parse_ordinal,
    predecessor,
    wainer_fundamental,
)


def subsets_of(hi, lo=1):
    vals = range(lo, hi + 1)
    for k in range(hi - lo + 2):
        yield from combinations(vals, k)


# -- independent oracle: union hierarchy by trying every decomposition --


@lru_cache(maxsize=None)
def brute_F(a, s) -> bool:
    a = as_ordinal(a)
    if not s:
        return False
    if a.is_zero:
        return len(s) == 1
    if a.is_limit:
        return any(brute_F(wainer_fundamental(a, n), s) for n in range(1, s[0] + 1))
    b = predecessor(a)

    def cover(i, blocks_left):
        if i == len(s):
            return True
        if blocks_left == 0:
            return False
        return any(
            brute_F(b, s[i:j]) and cover(j, blocks_left - 1)
            for j in range(i + 1, len(s) + 1)
        )

    return cover(0, s[0])


# -- independent oracle: subset-closure witness by free-insertion walk --


def has_member_superset(xi, t) -> bool:
    """Some member of the system family at xi contains t (ground line N).

    Walk t left to right keeping the residual; between consumed elements
    (and below the first) extra elements may be inserted.  After max(t) an
    extension to a member exists iff the walk never got stuck.
    """
    xi = as_ordinal(xi)

    seen = set()

    def go(i, last, r):
        if r.is_zero:
            return i == len(t)
        if i == len(t):
            return True  # kill the rest beyond max(t)
        key = (i, last, r)
        if key in seen:
            return False
        seen.add(key)
        if go(i + 1, t[i], descend(r, t[i])):
            return True
        for v in range(last + 1, t[i]):
            if go(i, v, descend(r, v)):
                return True
        return False

    return go(0, 0, xi)


# -- system family membership ----------------------------------------


def test_member_examples():
    assert uniform_member(OMEGA, (3, 5, 9))
    assert not uniform_member(OMEGA, (1, 2))
    assert uniform_member(OMEGA, (1,))
    assert uniform_member(ZERO, EMPTY)
    assert not uniform_member(ZERO, (4,))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_finite_levels_are_uniform_size(k):
    for s in subsets_of(9):
        assert uniform_member(k, s) == (len(s) == k)


def test_omega_is_size_equals_min():
    for s in subsets_of(10):
        assert uniform_member(OMEGA, s) == (bool(s) and len(s) == s[0])


def test_star_examples():
    assert uniform_star(OMEGA, (4, 5, 6))
    assert not uniform_star(OMEGA, (2, 3, 4))
    for xi in ("1", "w", "w^2", "w^w"):
        assert uniform_star(parse_ordinal(xi), EMPTY)


def test_omega_star_is_size_at_most_min():
    for s in subsets_of(10):
        assert uniform_star(OMEGA, s) == (not s or len(s) <= s[0])


@pytest.mark.parametrize("xi_text", ["2", "w", "w+1", "w*2", "w^2"])
def test_trichotomy_walk(xi_text):
    # exactly one of: member; star but not member; a proper prefix is a member
    xi = parse_ordinal(xi_text)
    for s in subsets_of(12):
        if not s:
            continue
        m = uniform_member(xi, s)
        st = uniform_star(xi, s)
        prefix_member = any(uniform_member(xi, s[:k]) for k in range(1, len(s)))
        assert sum([m, st and not m, prefix_member]) == 1


@pytest.mark.parametrize("xi_text", ["1", "2", "3", "w", "w+1", "w*2", "w^2"])
@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_section_law(xi_text, m):
    # the section at m is the family at the descended ordinal, above m
    xi = parse_ordinal(xi_text)
    w = Window(1, 14)
    got = section(FamilySpec(kind="A", ordinal=xi), m, w)
    tail_spec = FamilySpec(kind="A", ordinal=descend(xi, m))
    expect = enumerate_family(tail_spec, Window(m + 1, 14))
    assert got == expect


def test_section_at_any_point():
    # the section at m is defined for every m >= 1: it lists the window's
    # ground above m as the window with m added to its ground does, for m
    # below, inside, between and above the ground
    for w in (Window(3, 16, (3, 5, 6, 9, 10, 12, 15, 16)),
              Window(2, 20, (2, 4, 7, 8, 13, 14, 19))):
        for text in ("A:2", "A:w", "A:w*2+1", "B:1", "B:2", "F:2", "F:w",
                     "exL", "ex112"):
            spec = parse_family(text)
            for m in (1, 2, 3, 4, 7, 11, 16, 20, 40):
                wider = Window(min(w.lo, m), max(w.hi, m),
                               tuple(sorted(set(w.ground) | {m})))
                got = section(spec, m, w)
                assert got == section(spec, m, wider), (text, m)
                assert got == [t for t in finsets.subsets_of(w.tail(m))
                               if spec.member((m,) + t)], (text, m)
    for m in (0, -3):
        with pytest.raises(ValueError):
            section(FamilySpec(kind="A", ordinal=OMEGA), m, Window(1, 8))


# -- union hierarchy --------------------------------------------------


def test_level_one_is_size_at_most_min():
    for s in subsets_of(12):
        assert union_schreier_member(1, s) == (bool(s) and len(s) <= s[0])


def test_base_level_is_singletons():
    for s in subsets_of(8):
        assert union_schreier_member(0, s) == (len(s) == 1)


@pytest.mark.parametrize("a_text", ["1", "2", "3", "w", "w+1", "w^2+1", "w^3",
                                    "w^w", "w^w+1"])
def test_union_membership_vs_brute(a_text):
    a = parse_ordinal(a_text)
    for s in subsets_of(11):
        assert union_schreier_member(a, s) == brute_F(a, s), s


def test_limit_block_stops_at_the_end_of_the_set():
    # w^w's approximants below 7 fan out over every ordinal with
    # coefficients up to 7 unless the block search stops once a block
    # covers the rest of the set
    t0 = time.perf_counter()
    assert union_schreier_member(parse_ordinal("w^w+1"), tuple(range(7, 14)))
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("a_text", ["1", "2", "w", "w+1"])
def test_union_prefix_closed(a_text):
    a = parse_ordinal(a_text)
    for s in subsets_of(12):
        if union_schreier_member(a, s):
            for k in range(1, len(s)):
                assert union_schreier_member(a, s[:k])


@pytest.mark.parametrize("a", [0, 1, 2])
def test_system_power_inside_union_level(a):
    xi = omega_power(a)
    for s in subsets_of(12):
        if uniform_member(xi, s):
            assert union_schreier_member(a, s)


THINNED = Window(1, 14, (1, 2, 4, 5, 7, 8, 10, 11, 13, 14))


@pytest.mark.parametrize("a_text, w", [
    *(pytest.param(t, Window(1, 10), id=t) for t in
      ["1", "2", "3", "w", "w+1", "w*2", "w^2", "w^3"]),
    pytest.param("w^w", Window(1, 9), id="w^w"),
    *(pytest.param(t, THINNED, id=f"{t}-thinned") for t in ["1", "2", "w"]),
])
def test_union_enumeration_matches_filter(a_text, w):
    a = parse_ordinal(a_text)
    got = enumerate_union_schreier(a, w)
    expect = sorted(
        (s for s in w.subsets() if s and union_schreier_member(a, s)),
        key=lambda s: (len(s), s),
    )
    assert got == expect


@pytest.mark.parametrize("a_text",
                         ["0", "1", "2", "3", "w", "w+1", "w*2", "w^2", "w^w"])
def test_union_appended_element_independence(a_text):
    # the enumeration walk tests one child per prefix: whether s + (x,) is
    # a member must not depend on which x > max s is appended
    a = parse_ordinal(a_text)
    for s in subsets_of(12):
        if s:
            got = {union_schreier_member(a, s + (x,))
                   for x in range(s[-1] + 1, 14)}
            assert len(got) == 1, s


# -- named fixtures ---------------------------------------------------


def test_mixed_family_vectors():
    spec = parse_family("ex112")
    assert spec.member((1, 2, 3, 4, 5, 6))
    assert spec.member((2, 3, 4, 5))
    assert set((2, 3, 4, 5)) < set((1, 2, 3, 4, 5, 6))
    assert not spec.member((1, 2, 3))
    assert spec.star(EMPTY)
    assert spec.star((1, 2, 3))
    assert not spec.star((2, 3, 4, 5, 6))  # {3,4,5,6} past the min-2 member


def test_mixed_family_sections():
    spec = parse_family("ex112")
    w = Window(1, 9)
    got = section(spec, 1, w)
    assert got == [s for s in combinations(range(2, 10), 5)]
    # section at 2 is the size-equals-min family above 2
    got2 = section(spec, 2, w)
    assert got2 == [
        s for s in Window(3, 9).subsets() if s and len(s) == s[0]
    ]
    # section at n > 2 follows the shifted system family
    got4 = section(spec, 4, w)
    expect4 = [
        s
        for s in Window(5, 9).subsets()
        if uniform_member(parse_ordinal("w+4"), (4,) + s)
    ]
    assert got4 == expect4


def test_size_min_fixtures():
    L = parse_family("exL")
    R = parse_family("exR")
    for s in subsets_of(9):
        assert L.member(s) == (bool(s) and len(s) == 2 * s[0] + 1)
        assert R.member(s) == (bool(s) and len(s) == s[0])
        assert L.star(s) == (not s or len(s) <= 2 * s[0] + 1)
        assert R.star(s) == (not s or len(s) <= s[0])


def test_exR_is_the_system_family_at_w():
    # {s : |s| = min s} resolves to A:w and takes its every path; the
    # closed form above stays the oracle
    R, A = parse_family("exR"), parse_family("A:w")
    assert R.system_ordinal() == OMEGA and R.literal() == "exR"
    w = Window(1, 16)
    for s in w.subsets():
        assert R.member(s) == A.member(s) == (bool(s) and len(s) == s[0])
        assert R.star(s) == A.star(s)
        if s:
            assert canonical_rep(R, s) == canonical_rep(A, s)
            assert trichotomy(R, s) == trichotomy(A, s)
    assert enumerate_family(R, w) == enumerate_family(A, w)
    assert star_closure(R, w) == star_closure(A, w)
    for m in w.ground:
        assert section(R, m, w) == section(A, m, w)
    (grow_r, frontier_r), (grow_a, frontier_a) = _kept(R), _kept(A)
    for e in w.ground:
        grown_r, frontier_r = grow_r(frontier_r, e)
        grown_a, frontier_a = grow_a(frontier_a, e)
        assert grown_r == grown_a
    assert frontier_r == frontier_a


# -- family specs -----------------------------------------------------


def test_parse_family_literals():
    assert parse_family("A:w^2").system_ordinal() == omega_power(2)
    assert parse_family("B:2").system_ordinal() == omega_power(2)
    assert parse_family("B:0").system_ordinal() == as_ordinal(1)
    assert parse_family("F:w").ordinal == OMEGA
    assert parse_family("exL").kind == "exL"
    for bad in ("", "A:", "Q:3", "A", "ex999"):
        with pytest.raises(ValueError):
            parse_family(bad)


def test_family_literal_roundtrip():
    for text in ("A:w^2", "B:1", "F:w", "exL", "exR", "ex112"):
        spec = parse_family(text)
        assert parse_family(spec.literal()) == spec


def test_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec(kind="A")
    with pytest.raises(ValueError):
        FamilySpec(kind="exL", ordinal=OMEGA)
    with pytest.raises(ValueError):
        FamilySpec(kind="custom")
    with pytest.raises(ValueError):
        FamilySpec(kind="nope", ordinal=OMEGA)


def test_base_index_families():
    b0 = parse_family("B:0")
    assert b0.member((7,))
    b1 = parse_family("B:1")
    for s in subsets_of(10):
        assert b1.member(s) == (bool(s) and len(s) == s[0])
    f1 = parse_family("F:1")
    for s in subsets_of(10):
        assert f1.member(s) == (bool(s) and len(s) <= s[0])


# -- subset closure ---------------------------------------------------


@pytest.mark.parametrize(
    "text", ["A:3", "A:w", "A:w+1", "A:w+2", "A:w*2", "A:w*2+1", "A:w^2",
             "A:w^2+1", "A:w^3", "A:w^w", "A:w^(w+1)", "B:1", "B:2", "B:3",
             "B:w"]
)
def test_down_closed_form_vs_witness_search(text):
    spec = parse_family(text)
    xi = spec.system_ordinal()
    for t in subsets_of(9):
        assert spec.down(t) == has_member_superset(xi, t), t


@pytest.mark.parametrize("text", ["F:1", "F:2"])
def test_union_levels_hereditary(text):
    # subsets of members stay members, so the closure adds only the empty set
    spec = parse_family(text)
    for s in subsets_of(10):
        if spec.member(s):
            for k in range(len(s)):
                for t in combinations(s, k + 1):
                    assert spec.member(t)
        assert spec.down(s) == (not s or spec.member(s))


def test_down_closed_form_unavailable():
    # ex112's star is not subset-closed: (1,...,6) is a star set and
    # (2,...,6) is not.  The form is resolved before the set is looked at,
    # so the empty set raises too
    ex112 = parse_family("ex112")
    assert ex112.star((1, 2, 3, 4, 5, 6)) and not ex112.star((2, 3, 4, 5, 6))
    for s in ((), (1,), (2,)):
        with pytest.raises(ValueError, match="no subset-closure form"):
            ex112.down(s)
    with pytest.raises(ValueError, match="no subset-closure form"):
        _down_test(ex112)
    # the system indices past w^2 answer with their star test
    for text in ("A:w^w", "A:w^3", "A:w^2+1"):
        spec = parse_family(text)
        assert _down_test(spec) is spec._star
        for s in ((), (1,), (2,), (1, 2), (2, 3, 4), (5, 6, 7, 8, 9)):
            assert spec.down(s) == has_member_superset(spec.ordinal, s), s


@pytest.mark.parametrize(
    "text", ["A:1", "A:3", "A:w", "A:w+2", "A:w*2+1", "A:w^2", "A:w^2+1",
             "A:w^3", "A:w^w", "A:w^(w+1)", "B:1", "B:2", "B:3", "B:w"]
)
def test_system_star_is_hereditary(text):
    # no star set of [1,16] loses an element of the star closure
    spec = parse_family(text)
    stars = finsets.check_hereditary(
        spec.star, finsets.subsets_of(range(1, 17), include_empty=False))
    assert stars and all(spec.down(s) for s in stars)


# -- windowed operations ----------------------------------------------


def test_enumerate_singleton_family():
    one = FamilySpec(kind="custom", predicate=lambda s: s == (2, 3), name="pair")
    w = Window(1, 5)
    assert enumerate_family(one, w) == [(2, 3)]
    assert star_closure(one, w) == [EMPTY, (2,), (2, 3)]


def test_closure_outputs_are_closed():
    spec = parse_family("A:w")
    w = Window(1, 8)
    stars = star_closure(spec, w)
    star_set = set(stars)
    for s in stars:
        for k in range(len(s)):
            assert s[:k] in star_set


# -- the count-pruned walk against the subset filter -----------------

WALKED = ["A:0", "A:3", "A:w", "A:w+2", "A:w*2", "A:w^2", "A:w^w", "B:2"]


def _filtered(spec, ground):
    return [s for s in combinations_all(ground) if spec.member(s)]


def combinations_all(ground):
    for k in range(len(ground) + 1):
        yield from combinations(ground, k)


@settings(max_examples=40, deadline=None)
@given(text=st.sampled_from(WALKED),
       ground=st.sets(st.integers(1, 16), min_size=1, max_size=12))
def test_walk_matches_subset_filter(text, ground):
    spec = parse_family(text)
    g = tuple(sorted(ground))
    w = Window(g[0], g[-1], g)
    members = _filtered(spec, g)
    assert enumerate_family(spec, w) == members
    prefixes = {s[:k] for s in members for k in range(len(s) + 1)}
    assert star_closure(spec, w) == sorted(prefixes | {EMPTY},
                                           key=lambda s: (len(s), s))
    for m in g:
        tail = tuple(x for x in g if x > m)
        assert section(spec, m, w) == [
            s for s in combinations_all(tail) if spec.member((m,) + s)], m


def test_walk_edge_residuals():
    w = Window(1, 9)
    # the family at 0 is {empty set}: nothing below the root
    zero = parse_family("A:0")
    assert enumerate_family(zero, w) == [EMPTY]
    assert star_closure(zero, w) == [EMPTY]
    assert section(zero, 3, w) == []
    # a section whose singleton is already a member holds only the empty set
    assert section(parse_family("A:1"), 4, w) == [EMPTY]
    assert section(parse_family("A:w"), 1, w) == [EMPTY]
    # no member fits: only the empty prefix is witnessed
    assert enumerate_family(parse_family("A:w"), Window(5, 8)) == []
    assert star_closure(parse_family("A:w"), Window(5, 8)) == [EMPTY]


def test_enumeration_cap():
    with pytest.raises(ValueError):
        enumerate_family(parse_family("A:w"), Window(1, 26))
    for level in (1, OMEGA):  # the union listing, natural or not
        with pytest.raises(ValueError, match="cap 25"):
            enumerate_union_schreier(level, Window(1, 26))


@pytest.mark.parametrize("text", ["A:2", "A:w", "A:w^2", "B:1", "ex112", "exL"])
def test_thinness(text):
    ok, witness = check_thin(parse_family(text), Window(1, 12))
    assert ok and witness is None


def test_sperner_violation_found():
    ok, pair = check_sperner(parse_family("ex112"), Window(1, 12))
    assert not ok
    assert pair == ((2, 3, 4, 5), (1, 2, 3, 4, 5, 6))


def test_sperner_clean_families():
    ok, _ = check_sperner(parse_family("A:3"), Window(1, 10))
    assert ok
    ok, _ = check_sperner(parse_family("exR"), Window(1, 12))
    assert ok
