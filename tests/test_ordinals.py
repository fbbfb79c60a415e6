import copy
import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from schreier import ordinals
from schreier.ordinals import (
    ZERO,
    ONE,
    OMEGA,
    Ordinal,
    OrdinalParseError,
    add,
    as_ordinal,
    classify,
    compare,
    descend,
    format_ordinal,
    from_int,
    fundamental,
    nat_multiple,
    omega_power,
    parse_ordinal,
    predecessor,
    wainer_fundamental,
)

W = OMEGA


def o(text):
    return parse_ordinal(text)


# -- independent oracle below w^w -------------------------------------
#
# Ordinals below w^w are finitely supported maps {nat exponent: coeff}.
# Comparison and addition have direct definitions on that form, giving a
# reference implementation that shares no code with the Ordinal class.


def to_vec(x):
    return {e.as_int(): c for e, c in x.terms}


def from_vec(v):
    out = ZERO
    for e in sorted(v, reverse=True):
        if v[e]:
            out = add(out, nat_multiple(e, v[e]))
    return out


def vec_cmp(a, b):
    for e in sorted(set(a) | set(b), reverse=True):
        ca, cb = a.get(e, 0), b.get(e, 0)
        if ca != cb:
            return -1 if ca < cb else 1
    return 0


def vec_add(a, b):
    if not b:
        return dict(a)
    lead = max(b)
    out = {e: c for e, c in a.items() if e > lead}
    out[lead] = a.get(lead, 0) + b[lead]
    for e, c in b.items():
        if e < lead:
            out[e] = c
    return out


small_ordinals = st.builds(
    from_vec,
    st.dictionaries(st.integers(0, 5), st.integers(1, 9), max_size=4),
)

# exponents drawn from the small pool: reaches past w^w without going wild
deep_ordinals = st.builds(
    lambda pairs: _build(pairs),
    st.lists(st.tuples(small_ordinals, st.integers(1, 5)), max_size=4),
)


def _build(pairs):
    out = ZERO
    for exp, coeff in sorted(pairs, key=lambda p: p[0], reverse=True):
        candidate = add(out, nat_multiple(exp, coeff))
        out = candidate
    return out


@given(small_ordinals, small_ordinals)
def test_compare_matches_vector_oracle(x, y):
    assert compare(x, y) == vec_cmp(to_vec(x), to_vec(y))


@given(small_ordinals, small_ordinals)
def test_add_matches_vector_oracle(x, y):
    assert to_vec(add(x, y)) == {
        e: c for e, c in vec_add(to_vec(x), to_vec(y)).items() if c
    }


@given(deep_ordinals, deep_ordinals, deep_ordinals)
def test_add_associative(x, y, z):
    assert add(add(x, y), z) == add(x, add(y, z))


@given(deep_ordinals, deep_ordinals)
def test_add_monotone(x, y):
    s = add(x, y)
    assert s >= x
    assert s >= y
    if not y.is_zero:
        assert s > x


def test_constants():
    assert ZERO.is_zero and not ZERO.is_successor and not ZERO.is_limit
    assert ONE.is_successor and ONE.as_int() == 1
    assert OMEGA.is_limit
    assert ZERO < ONE < from_int(2) < OMEGA < add(OMEGA, ONE)


def test_int_interop():
    assert from_int(3) == 3
    assert hash(from_int(3)) == hash(3)
    assert from_int(0) == 0
    assert as_ordinal(7) == from_int(7)
    assert o("w") != 5
    assert {from_int(2): "a", 2: "b"} == {2: "b"}


def test_normal_form_enforced():
    with pytest.raises(ValueError):
        Ordinal(((ZERO, 1), (ONE, 1)))  # increasing exponents
    with pytest.raises(ValueError):
        Ordinal(((ONE, 0),))  # zero coefficient
    with pytest.raises(ValueError):
        from_int(-1)


@pytest.mark.parametrize("terms", [((ZERO, 1.0),), ((ZERO, 7.0),), ((0, 1),)])
def test_malformed_terms_rejected_whatever_is_interned(terms):
    # the intern table's keys compare numerically: ((ZERO, 1.0),) and
    # ((0, 1),) equal the key of ONE, ((ZERO, 7.0),) that of 7
    assert from_int(7) is parse_ordinal("7")
    with pytest.raises((TypeError, ValueError)):
        Ordinal(terms)


def test_classify_and_predecessor():
    kind, pred = classify(o("w*2 + 3"))
    assert kind == "successor" and pred == o("w*2 + 2")
    assert classify(o("w^2*5")) == ("limit", None)
    assert classify(ZERO) == ("zero", None)
    assert predecessor(o("w + 1")) == W
    with pytest.raises(ValueError):
        predecessor(W)
    with pytest.raises(ValueError):
        predecessor(ZERO)


@given(deep_ordinals)
def test_successor_predecessor_roundtrip(x):
    assert predecessor(add(x, ONE)) == x


# -- text form --------------------------------------------------------


@pytest.mark.parametrize(
    "text,expect",
    [
        ("0", ZERO),
        ("7", from_int(7)),
        ("w", W),
        ("w*3", nat_multiple(ONE, 3)),
        ("w^2", omega_power(2)),
        ("w^w", omega_power(W)),
        ("w^(w+1)", omega_power(add(W, ONE))),
        ("w^{w+1}", omega_power(add(W, ONE))),
        ("w^2*3 + w*2 + 5", add(add(nat_multiple(2, 3), nat_multiple(1, 2)), from_int(5))),
        (" w  +  1 ", add(W, ONE)),
        ("1+w", W),  # left absorption normalises
        ("w^w^w", omega_power(omega_power(W))),
    ],
)
def test_parse_examples(text, expect):
    assert parse_ordinal(text) == expect


@pytest.mark.parametrize("bad", ["", "w^", "3+", "w**2", "w^2)", "(w", "+w", "w^2 3", "x"])
def test_parse_rejects(bad):
    with pytest.raises(OrdinalParseError):
        parse_ordinal(bad)


@pytest.mark.parametrize("nest", [
    lambda n: "w^" * n + "1",
    lambda n: "w^(" * n + "1" + ")" * n,
], ids=["tower", "parenthesised"])
def test_parse_nesting_bound(nest):
    # a deep tower raised RecursionError, not the parser's ValueError
    limit = ordinals._NESTING_LIMIT
    x = parse_ordinal(nest(limit))
    assert parse_ordinal(format_ordinal(x)) is x
    assert compare(x, parse_ordinal(nest(limit - 1))) == 1
    for depth in (limit + 1, 1000):
        with pytest.raises(OrdinalParseError, match="recursion bound of 300"):
            parse_ordinal(nest(depth))


@given(deep_ordinals)
def test_format_parse_roundtrip(x):
    assert parse_ordinal(format_ordinal(x)) == x


@given(deep_ordinals)
def test_equal_ordinals_are_one_object(x):
    assert parse_ordinal(format_ordinal(x)) is x
    assert pickle.loads(pickle.dumps(x)) is x
    assert copy.deepcopy(x) is x


def test_interning_is_one_object_across_threads():
    # threads racing to build the same new ordinals all get one node each
    texts = [f"w^{k}*3 + w*{k} + 7" for k in range(300, 500)]
    results = []

    def build():
        results.append([parse_ordinal(t) for t in texts])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 8
    assert all(r[i] is results[0][i] for r in results for i in range(len(texts)))


def test_format_examples():
    assert format_ordinal(ZERO) == "0"
    assert format_ordinal(o("w^(w^2+1)*2 + w^w + 4")) == "w^(w^2 + 1)*2 + w^w + 4"
    assert str(o("w*2+1")) == "w*2 + 1"


# -- fundamental sequences -------------------------------------------


def test_fundamental_at_omega():
    assert [fundamental(W, n) for n in (1, 2, 3, 4)] == [0, 1, 2, 3]


def test_fundamental_frozen_values():
    # successor exponent: w^2 descends through w-many copies of w
    assert fundamental(o("w^2"), 3) == o("w*2 + 2")
    assert fundamental(o("w^2"), 1) == ZERO
    # coefficient split
    assert fundamental(o("w*2"), 4) == o("w + 3")
    assert fundamental(o("w^2*2"), 2) == o("w^2 + w + 1")
    # multi-term: only the last term moves
    assert fundamental(o("w^2 + w"), 3) == o("w^2 + 2")
    # limit exponent goes through the Wainer assignment
    assert fundamental(o("w^w"), 1) == ZERO
    assert fundamental(o("w^w"), 2) == o("w + 1")
    assert fundamental(o("w^w"), 3) == o("w^2*2 + w*2 + 2")
    assert fundamental(o("w^(w+1)"), 2) == o("w^w + w + 1")


def test_wainer_frozen_values():
    assert wainer_fundamental(W, 3) == 3
    assert wainer_fundamental(o("w^2"), 3) == o("w*3")
    assert wainer_fundamental(o("w^w"), 2) == o("w^2")
    assert wainer_fundamental(o("w*2"), 5) == o("w + 5")
    assert wainer_fundamental(o("w^w*2"), 3) == o("w^w + w^3")
    assert wainer_fundamental(o("w^w + w"), 4) == o("w^w + 4")


def test_fundamental_rejects_non_limits():
    for bad in (ZERO, ONE, o("w+1")):
        with pytest.raises(ValueError):
            fundamental(bad, 2)
        with pytest.raises(ValueError):
            wainer_fundamental(bad, 2)
    with pytest.raises(ValueError):
        fundamental(W, 0)


@given(
    st.builds(from_vec, st.dictionaries(st.integers(0, 3), st.integers(1, 3), max_size=3)),
    st.integers(1, 4),
)
def test_fundamental_below_and_monotone(x, n):
    # w^(x+1) is always a limit; the strategy stays small because the
    # normal form of fundamental() grows like the descent length of x
    y = omega_power(add(x, ONE))
    a = fundamental(y, n)
    b = fundamental(y, n + 1)
    assert a < y
    assert a < b
    wa = wainer_fundamental(y, n)
    wb = wainer_fundamental(y, n + 1)
    assert wa < y
    assert wa < wb


def test_fundamental_large_entries_and_towers():
    # w^w at entry n lands on the full (n-1)-coefficient staircase below w^n
    v = fundamental(o("w^w"), 30)
    assert len(v.terms) == 30
    assert v.terms[0] == (from_int(29), 29)
    assert v.terms[-1] == (ZERO, 29)
    assert v < o("w^30")
    # towers stay computable and ordered even when the result gets wide
    t3 = fundamental(o("w^w^w"), 3)
    t4 = fundamental(o("w^w^w"), 4)
    assert t3 < t4 < o("w^w^w")
    assert fundamental(o("w^w^w"), 2) == o("w^(w+1) + w^w + w + 1")


SRC = Path(__file__).resolve().parent.parent / "src"


def run_bounded(*args):
    # the climbing exponent used to loop without bound: a time limit turns
    # that into a failure instead of a hung suite
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=30)


def test_climbing_exponent_hits_the_expansion_limit():
    # at 9 the exponent of w^(w^w^w) gains terms while no finished term is
    # written; its terms now count against the limit
    api = run_bounded("-c", (
        "from schreier.ordinals import fundamental, parse_ordinal\n"
        "try:\n"
        "    fundamental(parse_ordinal('w^(w^w^w)'), 9)\n"
        "except ValueError as e:\n"
        "    print(e)\n"))
    assert api.returncode == 0, api.stderr[-2000:]
    assert api.stdout.strip() == ("normal form of the value at 9 runs past "
                                  "20000 terms; use a smaller index")
    cli = run_bounded("-m", "schreier.cli", "member", "--family", "B:w^w^w",
                      "--set", "{9,10}")
    assert cli.returncode == 2
    assert cli.stderr.startswith("error:")
    assert "20000 terms" in cli.stderr


def acc_only_fundamental(x, n, limit):
    # fundamental as it was, counting only the finished terms
    acc = list(x.terms[:-1])
    e, p = x.terms[-1]
    if p > 1:
        acc.append((e, p - 1))
    while True:
        if len(acc) > limit:
            raise ValueError("limit")
        if e is ONE:
            if n > 1:
                acc.append((ZERO, n - 1))
            break
        if e.is_successor:
            b = predecessor(e)
            if n > 1:
                acc.append((b, n - 1))
            e = b
        else:
            e = wainer_fundamental(e, n)
    return Ordinal(tuple(acc))


@pytest.mark.parametrize("limit", [1, 3, 7, 20, 60])
def test_expansion_limit_refuses_what_counting_finished_terms_did(
        monkeypatch, limit):
    monkeypatch.setattr(ordinals, "_EXPANSION_LIMIT", limit)
    for text in ("w", "w*3", "w^2*2+w", "w^3", "w^w", "w^w*2", "w^(w+1)",
                 "w^(w^2)", "w^(w^w)", "w^(w^w+w)", "w^5+w^2*3+w",
                 "w^(w^2)+w^(w*2+1)"):
        x = o(text)
        for n in range(1, 7):
            try:
                want = acc_only_fundamental(x, n, limit)
            except ValueError:
                with pytest.raises(ValueError, match=f"past {limit} terms"):
                    fundamental(x, n)
            else:
                assert fundamental(x, n) is want


tiny_ordinals = st.builds(
    from_vec,
    st.dictionaries(st.integers(0, 3), st.integers(1, 3), max_size=3),
)


@given(tiny_ordinals, st.data())
@settings(deadline=None)
def test_descend_reaches_zero(x, data):
    """Any descent sequence with entries >= 1 is finite."""
    r = x
    steps = 0
    while not r.is_zero:
        n = data.draw(st.integers(1, 3))
        r2 = descend(r, n)
        assert r2 < r
        r = r2
        steps += 1
        assert steps < 5_000
    assert r == ZERO


def test_descend_chain_past_omega_tower():
    # step count explodes with the entry size, so pin n == 2 and just
    # confirm the chain bottoms out for exponents above w
    for start in (o("w^w"), o("w^w^w"), o("w^(w*2) + w^2")):
        r = start
        steps = 0
        while not r.is_zero:
            prev = r
            r = descend(r, 2)
            assert r < prev
            steps += 1
            assert steps < 100_000
    assert descend(descend(descend(descend(o("w^w"), 2), 2), 2), 2) == ZERO


def test_descend_dispatch():
    assert descend(o("w + 1"), 9) == W
    assert descend(o("w"), 4) == 3
    with pytest.raises(ValueError):
        descend(ZERO, 1)
