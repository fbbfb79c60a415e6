"""FamilySpec picks its member, star and subset-closure tests once.

The per-kind forms the specs once re-dispatched on every call stay here as
the oracle: the member and star chains, the subset-closure forms and the
union levels' closed forms.
"""

import copy
import dataclasses
import pickle
from itertools import combinations

import pytest

from schreier.families import (
    FamilySpec,
    _greedy_covers,
    _schreier_star_parts,
    parse_family,
    uniform_member,
    uniform_star,
    union_schreier_member,
)
from schreier.finsets import Window
from schreier.ordinals import OMEGA, ONE, as_ordinal, omega_power
from schreier.search import hereditary_dichotomy

# -- the per-call dispatch, as it was ---------------------------------


def oracle_union_member(a, s):
    a = as_ordinal(a)
    if not s:
        return False
    if a.is_zero:
        return len(s) == 1
    if a.is_natural:
        n = a.as_int()
        if n == 1:
            return len(s) <= s[0]
        if n == 2:
            return _schreier_star_parts(s) <= s[0]
    return _greedy_covers(a, s, {})


def ex112_section(n):
    return as_ordinal(5) if n == 1 else OMEGA if n == 2 else OMEGA + n


def oracle_member(spec, s):
    xi = spec.system_ordinal()
    if xi is not None:
        return uniform_member(xi, s)
    if spec.kind == "F":
        return oracle_union_member(spec.ordinal, s)
    if spec.kind == "exL":
        return bool(s) and len(s) == 2 * s[0] + 1
    if spec.kind == "exR":
        return bool(s) and len(s) == s[0]
    if spec.kind == "ex112":
        return bool(s) and uniform_member(ex112_section(s[0]), s[1:])
    return bool(spec.predicate(s))


def oracle_star(spec, s):
    xi = spec.system_ordinal()
    if xi is not None:
        return uniform_star(xi, s)
    if spec.kind == "F":
        return not s or oracle_union_member(spec.ordinal, s)
    if spec.kind == "exL":
        return not s or len(s) <= 2 * s[0] + 1
    if spec.kind == "exR":
        return not s or len(s) <= s[0]
    if spec.kind == "ex112":
        return not s or uniform_star(ex112_section(s[0]), s[1:])
    if spec.star_predicate is None:
        raise ValueError(f"no initial-segment test available for {spec.literal()}")
    return bool(spec.star_predicate(s))


def oracle_down(spec, t):
    if spec.kind == "exR":
        return not t or len(t) <= t[0]
    if spec.kind == "exL":
        return not t or len(t) <= 2 * t[0] + 1
    if spec.kind == "F":
        return not t or oracle_union_member(spec.ordinal, t)
    xi = spec.system_ordinal()
    if xi is not None:
        if xi.is_natural:
            return len(t) <= xi.as_int()
        terms = xi.terms
        if terms[0][0] == ONE and (len(terms) == 1 or (
                len(terms) == 2 and terms[1][0].is_zero)):
            k = terms[1][1] if len(terms) > 1 else 0
            return _schreier_star_parts(t, k) <= terms[0][1]
        if xi == omega_power(2):
            return not t or _schreier_star_parts(t) <= t[0]
    raise ValueError(f"no subset-closure form for {spec.literal()}")


# -- the panel --------------------------------------------------------

LITERALS = ["A:0", "A:3", "A:w", "A:w*2+1", "A:w^2", "A:w^w", "B:0", "B:2",
            "F:0", "F:1", "F:2", "F:3", "F:w", "exL", "exR", "ex112"]


def odd_sum(s):
    return sum(s) % 2 == 1


PANEL = [parse_family(t) for t in LITERALS] + [
    FamilySpec(kind="custom", predicate=odd_sum, star_predicate=bool,
               name="odd-sum"),
    FamilySpec(kind="custom", predicate=odd_sum, name="odd-sum-no-star"),
]
SUBSETS = [s for k in range(13) for s in combinations(range(1, 13), k)]


def answer(test, spec, s):
    """The test's value, or the type and text of what it raised."""
    try:
        return test(spec, s)
    except ValueError as e:
        return ValueError, str(e)


@pytest.mark.parametrize("spec", PANEL, ids=str)
def test_resolved_tests_match_the_per_kind_forms(spec):
    for name, oracle in (("member", oracle_member), ("star", oracle_star),
                         ("down", oracle_down)):
        method = getattr(FamilySpec, name)
        for s in SUBSETS:
            assert answer(method, spec, s) == answer(oracle, spec, s), (name, s)


@pytest.mark.parametrize("a", ["0", "1", "2", "3", "w", "w+1", "w*2"])
def test_union_member_matches_the_level_forms(a):
    a = parse_family(f"F:{a}").ordinal
    for s in SUBSETS:
        assert union_schreier_member(a, s) == oracle_union_member(a, s), s


@pytest.mark.parametrize("spec", PANEL[:len(LITERALS)], ids=str)
def test_specs_survive_pickle_copy_and_replace(spec):
    for twin in (pickle.loads(pickle.dumps(spec)), copy.copy(spec),
                 copy.deepcopy(spec), dataclasses.replace(spec)):
        assert type(twin) is FamilySpec
        assert twin == spec and hash(twin) == hash(spec)
        assert repr(twin) == repr(spec)
        for s in SUBSETS[::7]:
            assert twin.member(s) == spec.member(s)
            assert twin.star(s) == spec.star(s)


def test_repr_and_equality_see_the_literal_only():
    spec = parse_family("B:2")
    assert repr(spec) == ("FamilySpec(kind='B', ordinal=Ordinal('2'), "
                          "predicate=None, star_predicate=None, name=None)")
    assert spec == FamilySpec(kind="B", ordinal=parse_family("A:2").ordinal)
    assert [f.name for f in dataclasses.fields(spec)] == [
        "kind", "ordinal", "predicate", "star_predicate", "name"]


def test_member_override_sees_every_member_call():
    # the tracing harness counts membership by overriding member
    calls = []

    class Counting(FamilySpec):
        def member(self, s):
            calls.append(s)
            return FamilySpec.member(self, s)

    spec = Counting(kind="exL")
    resolved, tested = spec._member, []

    def counted(s):
        tested.append(s)
        return resolved(s)

    object.__setattr__(spec, "_member", counted)
    certs = hereditary_dichotomy("down:F:1", spec, Window(1, 30))
    assert [c.payload_dict()["branch"] for c in certs] == ["B"]
    assert calls and calls == tested


@pytest.mark.parametrize("fields, error", [
    (dict(kind="A"), ValueError),
    (dict(kind="B"), ValueError),
    (dict(kind="F"), ValueError),
    (dict(kind="exL", ordinal=OMEGA), ValueError),
    (dict(kind="ex112", ordinal=OMEGA), ValueError),
    (dict(kind="custom"), ValueError),
    (dict(kind="custom", star_predicate=bool), ValueError),
    (dict(kind="nope", ordinal=OMEGA), ValueError),
    (dict(kind="A", ordinal="w"), TypeError),
    (dict(kind="B", ordinal=1.5), TypeError),
    (dict(kind="F", ordinal=[1]), TypeError),
])
def test_bad_literals_raise_at_construction(fields, error):
    with pytest.raises(error):
        FamilySpec(**fields)
