"""Mask engine vs the generic subset-filter enumeration, plus scale checks.

The frozen large-window counts were computed twice: once by the engine's
completion-count recursion and once by independent closed forms (the
size-equals-min family on [1,n] has Fibonacci(n) members; the two-block
variant is a convolution of boundary-split counts).
"""

import gc
import hashlib
import time
import tracemalloc
from functools import lru_cache
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schreier.families import (FamilySpec, _member_counts, enumerate_family,
                               section, uniform_member)
from schreier.finsets import Window, mask_of, subsets_of
from schreier.masks import MaskFamily, masks_to_sets, sort_masks
from schreier.ordinals import ZERO, descend, omega_power, parse_ordinal

SAMPLED = ["1", "2", "3", "w", "w+1", "w*2", "w^2", "w^w"]


def spec_of(text):
    return FamilySpec(kind="A", ordinal=parse_ordinal(text))


@pytest.mark.parametrize("xi_text", SAMPLED)
def test_engine_matches_generic_enumeration(xi_text):
    xi = parse_ordinal(xi_text)
    fam = MaskFamily(xi, 16)
    got = sorted(masks_to_sets(fam.member_masks()))
    expect = sorted(enumerate_family(spec_of(xi_text), Window(1, 16)))
    assert got == expect


@pytest.mark.parametrize("xi_text", ["w", "w+1", "w*2", "w^2"])
@pytest.mark.parametrize("m", [1, 2, 3, 7])
def test_engine_sections_match_generic(xi_text, m):
    fam = MaskFamily(parse_ordinal(xi_text), 15)
    got = sorted(masks_to_sets(fam.section_masks(m)))
    expect = sorted(section(spec_of(xi_text), m, Window(1, 15)))
    assert got == expect


def test_tail_restriction_is_prefix_slice():
    fam = MaskFamily(parse_ordinal("w+1"), 14)
    for m in (0, 1, 5, 9):
        got = sorted(masks_to_sets(fam.member_masks(above=m)))
        expect = sorted(
            s for s in enumerate_family(spec_of("w+1"), Window(1, 14)) if s and s[0] > m
        )
        assert got == expect


def test_restricted_root_instance():
    # building with root_start m equals filtering the full build; on
    # [1,14] no member lies above 4, on [1,21] 4,326 members lie above 3
    for hi, m in ((14, 4), (21, 3)):
        full = MaskFamily(parse_ordinal("w*2"), hi)
        part = MaskFamily(parse_ordinal("w*2"), hi, root_start=m)
        a = np.sort(full.member_masks(above=m))
        b = np.sort(part.member_masks())
        assert np.array_equal(a, b)


def test_zero_root_is_empty_set_only():
    fam = MaskFamily(0, 10)
    assert fam.member_count() == 1
    assert masks_to_sets(fam.member_masks()) == [()]


def test_section_bounds_checked():
    fam = MaskFamily(parse_ordinal("w"), 12, root_start=2)
    with pytest.raises(ValueError):
        fam.section_masks(2)
    with pytest.raises(ValueError):
        fam.section_masks(13)
    got = sorted(masks_to_sets(fam.section_masks(3)))
    assert got == sorted(section(spec_of("w"), 3, Window(1, 12)))


def test_member_count_range_checked():
    # the root's counts cover the starts root_start..hi
    fam = MaskFamily(2, 10, root_start=3)
    with pytest.raises(ValueError, match=r"start 2 outside the covered range \[3, 10\]"):
        fam.member_count(2)
    assert fam.member_count(10) == 0
    assert len(fam.member_masks(above=10)) == 0
    with pytest.raises(ValueError, match=r"start 11 outside the covered range \[3, 10\]"):
        fam.member_count(11)


# -- pinned arrays ----------------------------------------------------
#
# SHA-256 of member_masks().tobytes(), recorded from the build that
# assembled the arrays by concatenating sorted state arrays.  The hash
# fixes the order as well as the set: sections and `above` slices are
# read off the order.

PINNED_ARRAYS = [
    ("w", 28, 0, 317811,
     "b221cee41c5f9ff9a0267d62d9dc61cbc2a13804c8ac0e55016a4a2957a98666"),
    ("w+1", 23, 0, 170711,
     "0fcb937380390954fab6b0b623aab509f41f12a5b9dafc16d317837572573cb4"),
    ("w*2", 21, 0, 80659,
     "63c12f9cde2567c195a8452d633eff78a377854ade0f81d30c8ecd8b456a8c20"),
    ("w^2", 21, 0, 37285,
     "731defa43b0f9e7e4e289c197a70d469006d55cb46ab3127f7f6156d101ff418"),
    ("w^w", 18, 0, 6673,
     "4de91f98fa536c3eea8d6a50d12ec2619b1a21e490b262623f946f2b7b957afb"),
    # these two windows hold no member above their root_start
    ("w*2", 14, 4, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("w^2", 16, 2, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("w*2", 21, 3, 4326,
     "2242c60f5b6f06a44513b66d15ee524c01df464127134304067870f219d1afec"),
    ("w^2", 21, 1, 37284,
     "101eeae285318e9ef1b6d4bbe588b0958c9b4cef021bcbf288928ecc608b13b5"),
]


@pytest.mark.parametrize("xi_text,hi,root_start,count,digest", PINNED_ARRAYS)
def test_pinned_mask_arrays(xi_text, hi, root_start, count, digest):
    masks = MaskFamily(parse_ordinal(xi_text), hi,
                       root_start=root_start).member_masks()
    assert len(masks) == count
    assert hashlib.sha256(masks.tobytes()).hexdigest() == digest


# -- count rows -------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(xi_text=st.sampled_from(SAMPLED),
       ground=st.lists(st.integers(1, 40), min_size=1, max_size=12,
                       unique=True).map(sorted),
       data=st.data())
def test_count_rows_match_brute_counts(xi_text, ground, data):
    xi = parse_ordinal(xi_text)
    j = data.draw(st.integers(0, len(ground)), label="j")
    rows, lo = _member_counts(xi, ground, j)
    assert lo[xi] == j
    # a member over ground[i:] is one whose first element sits at i or later
    first = [ground.index(s[0]) for s in subsets_of(tuple(ground),
                                                     include_empty=False)
             if uniform_member(xi, s)]
    for i in range(j, len(ground) + 1):
        assert rows[xi][i] == sum(1 for p in first if p >= i), i


def uncut_counts(xi, ground, j=0):
    """The count rows with no dead-position cut: every state the root
    reaches, through any cell, gets a row filled from that cell down."""
    n = len(ground)
    rows, lo = {}, {}

    def fill(r, i):
        row = rows.get(r)
        if row is None:
            row = rows[r] = [None] * n + [0]
            m = n
        else:
            if row[i] is not None:
                return row[i]
            m = lo[r]
        got = row[m]
        for m in range(m - 1, i - 1, -1):
            d = descend(r, ground[m])
            got += 1 if d is ZERO else fill(d, m + 1)
            row[m] = got
        lo[r] = i
        return got

    if xi is not ZERO:
        fill(xi, j)
    return rows, lo


@settings(max_examples=80, deadline=None)
@given(xi_text=st.sampled_from(SAMPLED + ["B:3"]),
       ground=st.lists(st.integers(1, 40), min_size=1, max_size=20,
                       unique=True).map(sorted),
       data=st.data())
def test_cut_rows_agree_with_uncut_rows(xi_text, ground, data):
    xi = omega_power(3) if xi_text == "B:3" else parse_ordinal(xi_text)
    j = data.draw(st.integers(0, len(ground)), label="j")
    want, _ = uncut_counts(xi, ground, j)
    rows, lo = _member_counts(xi, ground, j)
    for r, full in want.items():
        if any(full):
            assert r in rows, r
        for i, c in enumerate(rows.get(r, ())):
            if c is not None and full[i] is not None:
                assert c == full[i], (r, i)
    # below the root, a row starts at or under its dead position
    assert all(row[i] is None for r, row in rows.items() if r is not xi
               for i in range(lo[r])), lo


def test_dead_cells_get_no_rows():
    # A:w^2 on [1,21]: 247 rows without the cut, 13 of them nonzero
    ground = range(1, 22)
    assert len(uncut_counts(omega_power(2), ground)[0]) == 247
    rows, _ = _member_counts(omega_power(2), ground)
    assert len(rows) <= 65


def test_count_rows_free_on_release():
    # the rows must go when the caller drops them, not at the next
    # cyclic collection
    ground = range(1, 22)
    _member_counts(omega_power(2), ground)
    gc.collect()
    gc.disable()
    try:
        rows, lo = _member_counts(omega_power(2), ground)
        del rows, lo
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- frozen wide-window counts ---------------------------------------


@lru_cache(maxsize=None)
def fib(n):
    return n if n < 2 else fib(n - 1) + fib(n - 2)


def test_size_equals_min_counts_are_fibonacci():
    # members with elements in [1, n]: first element v, v-1 more above it:
    # classic Fibonacci count
    for n in (5, 10, 20, 30):
        fam = MaskFamily(parse_ordinal("w"), n)
        assert fam.member_count() == fib(n)


def schreier_count_with_max(v, m):
    """Size-equals-min members with first element v and maximum m."""
    if v == 1:
        return 1 if m == 1 else 0
    if m <= v:
        return 0
    return comb(m - v - 1, v - 2)


def test_two_block_count_by_convolution():
    hi = 24
    fam = MaskFamily(parse_ordinal("w*2"), hi)
    total = 0
    for v in range(1, hi + 1):
        for m in range(v, hi + 1):
            left = schreier_count_with_max(v, m)
            if not left:
                continue
            right = sum(
                comb(hi - u, u - 1) for u in range(m + 1, hi + 1)
            )
            total += left * right
    assert fam.member_count() == total


def test_frozen_wide_counts():
    # computed from the completion-count recursion and pinned; the w case
    # is independently Fibonacci(30), the others guard against regression
    expected = {
        "w": 832_040,
        "w+1": 6_566_290,
        "w^2": 4_985_788,
        "w^w": 4_902_241,
    }
    for text, count in expected.items():
        fam = MaskFamily(parse_ordinal(text), 30)
        assert fam.member_count() == count, text


def test_window_over_member_limit_refused():
    # A:w*2 on [1,36] has 939,683,219 members (7 GiB of masks); the count
    # pass alone must refuse it, well before assembly could run
    start = time.perf_counter()
    with pytest.raises(ValueError, match="939683219 members .* GiB"):
        MaskFamily(parse_ordinal("w*2"), 36)
    assert time.perf_counter() - start < 1.0


def test_held_arrays_over_limit_refused():
    # A:w on [1,40] has 102,334,155 members, under the 2**27 limit, but
    # the state arrays the assembly holds would take 204,668,309 masks
    # (1.5 GiB); the count rows must refuse it before any allocation
    start = time.perf_counter()
    with pytest.raises(ValueError,
                       match="102334155 members need 204668309 masks .* GiB"):
        MaskFamily(parse_ordinal("w"), 40)
    assert time.perf_counter() - start < 1.0


def test_assembly_peak_stays_within_held_arrays():
    # every state array is written in place, so tracing sees the held
    # arrays and little else: no concatenated temporaries
    xi = parse_ordinal("w")
    rows, lo = _member_counts(xi, range(1, 31))
    held = 8 * sum(row[lo[r]] for r, row in rows.items())
    tracemalloc.start()
    try:
        MaskFamily(xi, 30)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= held + 2**20, (peak, held)


def test_sort_masks_orders_numerically():
    fam = MaskFamily(parse_ordinal("w"), 10)
    arr = sort_masks(fam.member_masks())
    assert np.all(arr[:-1] < arr[1:])
