"""Mask engine vs the generic subset-filter enumeration, plus scale checks.

The frozen large-window counts were computed twice: once by the engine's
completion-count recursion and once by independent closed forms (the
size-equals-min family on [1,n] has Fibonacci(n) members; the two-block
variant is a convolution of boundary-split counts).
"""

import time
from functools import lru_cache
from math import comb

import numpy as np
import pytest

from schreier.families import FamilySpec, enumerate_family, section
from schreier.finsets import Window, mask_of
from schreier.masks import MaskFamily, masks_to_sets, sort_masks
from schreier.ordinals import parse_ordinal

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
    # building with root_start m equals filtering the full build
    full = MaskFamily(parse_ordinal("w*2"), 14)
    part = MaskFamily(parse_ordinal("w*2"), 14, root_start=4)
    a = np.sort(full.member_masks(above=4))
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


def test_sort_masks_orders_numerically():
    fam = MaskFamily(parse_ordinal("w"), 10)
    arr = sort_masks(fam.member_masks())
    assert np.all(arr[:-1] < arr[1:])
