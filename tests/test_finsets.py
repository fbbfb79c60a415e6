from enum import IntEnum

import pytest
from hypothesis import example, given, strategies as st

from schreier.finsets import (
    EMPTY,
    Window,
    as_finset,
    check_hereditary,
    format_finset,
    mask_of,
    parse_finset,
    parse_window,
    set_of_mask,
    spread,
    subsets_of,
)

sets = st.builds(as_finset, st.sets(st.integers(1, 40), max_size=8))


def test_as_finset_sorts_and_validates():
    assert as_finset([3, 1, 2]) == (1, 2, 3)
    assert as_finset([]) == EMPTY
    with pytest.raises(ValueError):
        as_finset([0, 1])
    with pytest.raises(ValueError):
        as_finset([2, 2])
    with pytest.raises(TypeError):
        as_finset([True])


def loop_as_finset(elements):
    """The element-by-element validation: the oracle for as_finset."""
    xs = tuple(sorted(elements))
    prev = 0
    for x in xs:
        if not isinstance(x, int) or isinstance(x, bool):
            raise TypeError(f"set elements must be ints, got {x!r}")
        if x < 1:
            raise ValueError(f"set elements must be >= 1, got {x}")
        if x == prev:
            raise ValueError(f"duplicate element {x}")
        prev = x
    return xs


class Level(IntEnum):
    LOW = 2
    HIGH = 7


def outcome(fn, make):
    try:
        return "value", fn(make())
    except Exception as e:  # compared by type and message
        return type(e), str(e)


CONTAINERS = {
    "tuple": tuple,
    "sorted tuple": lambda xs: tuple(sorted(set(xs))),
    "list": list,
    "set": set,
    "generator": lambda xs: (x for x in xs),
}

elements = st.one_of(
    st.integers(-3, 70),
    st.integers(2**63 - 2, 2**64 + 2),
    st.sampled_from([True, False, Level.LOW, Level.HIGH, 1.0, 2.5, None]),
    st.floats(allow_nan=False),
)


@given(xs=st.one_of(st.lists(elements, max_size=12),
                    st.lists(st.integers(-1, 40), max_size=12)),
       kind=st.sampled_from(sorted(CONTAINERS)))
@example(xs=[1, 1], kind="sorted tuple")
@example(xs=[True], kind="tuple")
@example(xs=[1, True], kind="tuple")
@example(xs=[1, Level.HIGH], kind="tuple")
@example(xs=[1, 2**64], kind="tuple")
@example(xs=[0, 1], kind="tuple")
@example(xs=[1, 1], kind="tuple")
@example(xs=[3, 2], kind="tuple")
@example(xs=[1, 2.0], kind="tuple")
@example(xs=[], kind="generator")
def test_as_finset_matches_the_element_loop(xs, kind):
    make = lambda: CONTAINERS[kind](xs)
    got, want = outcome(as_finset, make), outcome(loop_as_finset, make)
    assert got == want
    if got[0] == "value":
        # equal values could still differ in type: 1 == True == 1.0
        assert type(got[1]) is tuple
        assert list(map(type, got[1])) == list(map(type, want[1]))


@given(sets)
def test_set_literal_roundtrip(s):
    assert parse_finset(format_finset(s)) == s


def test_parse_finset_forms():
    assert parse_finset("{2,3,4}") == (2, 3, 4)
    assert parse_finset("{ 2 , 3 }") == (2, 3)
    assert parse_finset("{}") == EMPTY
    for bad in ("2,3", "{2;3}", "{a}", ""):
        with pytest.raises(ValueError):
            parse_finset(bad)


def test_spread():
    assert spread((1, 3), (4, 7, 9, 12)) == (4, 9)
    assert spread(EMPTY, (4, 7)) == EMPTY
    with pytest.raises(ValueError):
        spread((5,), (4, 7))
    with pytest.raises(ValueError):
        spread((0,), (4, 7))


@given(sets)
def test_mask_roundtrip(s):
    assert set_of_mask(mask_of(s)) == s


def test_window_basics():
    w = Window(1, 5)
    assert w.ground == (1, 2, 3, 4, 5)
    assert list(w.subsets())[:7] == [(), (1,), (2,), (3,), (4,), (5,), (1, 2)]
    assert w.contains_set((2, 5)) and not w.contains_set((2, 6))
    assert w.tail(3) == (4, 5)
    assert 3 in w

    thinned = Window(1, 10, ground=(2, 4, 6))
    assert thinned.ground == (2, 4, 6)
    assert not thinned.contains_set((3,))
    assert thinned.tail(4) == (6,)

    with pytest.raises(ValueError):
        Window(3, 2)
    with pytest.raises(ValueError):
        Window(2, 5, ground=(1, 3))


def test_window_subset_count_and_order():
    w = Window(1, 6)
    subs = list(w.subsets())
    assert len(subs) == 64
    assert len(set(subs)) == 64
    sizes = [len(s) for s in subs]
    assert sizes == sorted(sizes)


def test_parse_window():
    assert parse_window("1..30") == Window(1, 30)
    assert parse_window("4..15", "4,6,8") == Window(4, 15, (4, 6, 8))
    for bad in ("1-30", "a..b", ".."):
        with pytest.raises(ValueError):
            parse_window(bad)


# -- check_hereditary --------------------------------------------------


def at_most_pairs_but_not_one(s):
    return len(s) <= 2 and s != (1,)


@pytest.mark.parametrize("include_empty", [False, True])
def test_check_hereditary_names_the_first_failing_removal(include_empty):
    # (1, 2) is the first accepted set with a rejected removal; removing
    # its elements in order gives (2,) first, which is accepted, then (1,)
    sets = subsets_of((1, 2, 3), include_empty=include_empty)
    with pytest.raises(ValueError) as e:
        check_hereditary(at_most_pairs_but_not_one, sets)
    assert str(e.value) == ("predicate is not hereditary on the window: "
                            "(1, 2) is in but (1,) is not")


def test_check_hereditary_removal_to_the_empty_set():
    def singletons(s):
        return len(s) == 1

    nonempty = list(subsets_of((1, 2, 3), include_empty=False))
    assert check_hereditary(singletons, nonempty) == [(1,), (2,), (3,)]
    with pytest.raises(ValueError) as e:
        check_hereditary(singletons, subsets_of((1, 2, 3)))
    assert str(e.value) == ("predicate is not hereditary on the window: "
                            "(1,) is in but () is not")
