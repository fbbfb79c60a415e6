"""The whole-set residual walk against a walk that descends once per element.

The oracle below is the definitional walk: every element costs one call to
``descend``, and an element met at a zero residual means the set is stuck.
Every caller of the shared kernel must agree with it on tuples, lists and
one-shot generators alike.
"""

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from schreier import ordinals
from schreier.canonical import FamilyContractError, canonical_rep, trichotomy
from schreier.families import (parse_family, residual_after, uniform_member,
                               uniform_star)
from schreier.ordinals import (OMEGA, ZERO, _walk, as_ordinal, descend,
                               from_int, parse_ordinal)
from schreier.rank import symbolic_rank

PANEL = ("A:0", "A:3", "A:w", "A:w+1", "A:w*2", "A:w^2", "A:w^w", "B:2",
         # multi-term successors: runs that end at a limit or mid-set
         "A:w*2+3", "A:w^2+w+2", "A:w^w+5", "B:w+1")

FORMS = {
    "tuple": tuple,
    "list": list,
    "generator": lambda s: (x for x in s),
}


def oracle_residual(xi, s):
    r = as_ordinal(xi)
    for n in s:
        if r is ZERO:
            return None
        r = descend(r, n)
    return r


def oracle_first_block(xi, A):
    r = xi
    for k, n in enumerate(A, 1):
        r = descend(r, n)
        if r is ZERO:
            return k
    return 0


def oracle_rep(xi, A):
    blocks = []
    while A:
        k = oracle_first_block(xi, A)
        if not k:
            break
        blocks.append(A[:k])
        A = A[k:]
    return tuple(blocks), A


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, FamilyContractError) as e:
        return type(e)


sets = st.lists(st.integers(1, 60), unique=True, max_size=48).map(
    lambda xs: tuple(sorted(xs)))


@settings(max_examples=150, deadline=None)
@given(text=st.sampled_from(PANEL), s=sets, form=st.sampled_from(sorted(FORMS)))
@example(text="A:w", s=(), form="generator")
@example(text="A:w", s=(2, 3, 4), form="generator")  # stuck after (2, 3)
@example(text="A:3", s=(5, 6, 7), form="generator")  # a member, used up
@example(text="A:0", s=(1,), form="generator")
def test_walk_callers_match_per_element_descent(text, s, form):
    spec = parse_family(text)
    xi = spec.system_ordinal()
    make = FORMS[form]
    want = oracle_residual(xi, s)
    assert residual_after(xi, make(s)) is want
    assert uniform_member(xi, make(s)) == (want is ZERO)
    assert uniform_star(xi, make(s)) == (want is not None)
    assert spec.member(make(s)) == (want is ZERO)
    assert spec.star(make(s)) == (want is not None)
    rank = outcome(symbolic_rank, xi, make(s))
    assert rank is (ValueError if want is None else want)

    rep = outcome(canonical_rep, spec, make(s))
    tri = outcome(trichotomy, spec, make(s))
    if not s:
        assert rep is tri is ValueError
    elif xi is ZERO:
        # no nonempty set starts a member of A:0: the generic scan objects
        assert rep is tri is FamilyContractError
    else:
        blocks, tail = oracle_rep(xi, s)
        assert (rep.blocks, rep.tail) == (blocks, tail)
        k = oracle_first_block(xi, s)
        assert tri == (("ExtendsMember", s[:k]) if k
                       else ("ProperPrefixOfMember", None))


def oracle_walk(r, s, i):
    while r is not ZERO and i < len(s):
        r = descend(r, s[i])
        i += 1
    return r, i


@settings(max_examples=200, deadline=None)
@given(text=st.sampled_from(("0", "5", "w+7", "w*3+2", "w^2*2+w*3+4",
                             "w^3+1", "w^w+w^2+2", "w^(w+1)+3")),
       s=sets, data=st.data())
def test_kernel_from_any_index_matches_per_element_descent(text, s, data):
    xi = parse_ordinal(text)
    i = data.draw(st.integers(0, len(s)))
    got = _walk(xi, s, i)
    want = oracle_walk(xi, s, i)
    assert got[0] is want[0] and got[1] == want[1]


@pytest.mark.parametrize("text", PANEL)
def test_walk_leaves_the_rest_of_a_stuck_generator_alone(text):
    # a stuck walk reads exactly one element past the member boundary
    spec = parse_family(text)
    xi = spec.system_ordinal()
    s = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)
    seen = []

    def elements():
        for x in s:
            seen.append(x)
            yield x

    want = oracle_residual(xi, s)
    assert residual_after(xi, elements()) is want
    if want is None:
        k = oracle_first_block(xi, s) if xi is not ZERO else 0
        assert seen == list(s[:k + 1])
    else:
        assert seen == list(s)


# from w^w + 5 the count's sixth element opens a descent too long to read
@pytest.mark.parametrize("text", [t for t in PANEL if t != "A:w^w+5"])
def test_walk_stops_one_element_past_the_first_member_of_an_endless_input(text):
    xi = parse_family(text).system_ordinal()
    k, r = 0, xi
    while r is not ZERO:
        k += 1
        r = descend(r, k)
    seen = []

    def elements():
        for x in itertools.count(1):
            seen.append(x)
            yield x

    assert residual_after(xi, elements()) is None
    assert seen == list(range(1, k + 2))


@pytest.mark.parametrize("text, s", [
    ("w", (9, 10)),               # 8, cut to 7
    ("w*2+3", (4,)),              # w*2 + 2: the leading run, cut
    ("w^2+w+2", (5, 6, 7, 8)),    # the run ends at w^2 + w; 7 opens
                                  # w^2 + 6, cut to w^2 + 5
    ("w^w+5", (1, 2)),            # w^w + 3
    ("w^2", (3, 4)),              # w*2 + 2, cut to w*2 + 1
])
def test_partial_run_lands_on_the_interned_node(text, s):
    xi = parse_ordinal(text)
    for form in FORMS.values():
        got = residual_after(xi, form(s))
        assert got is oracle_residual(xi, s)
        assert not got.is_zero


def test_run_is_jumped_without_building_its_residuals():
    # from w, 600 leads to 599, whose run the next 499 elements only shorten
    before = len(ordinals._INTERNED)
    r = residual_after(OMEGA, tuple(range(600, 1100)))
    grown = len(ordinals._INTERNED) - before
    assert r is from_int(100)
    assert grown <= 2
