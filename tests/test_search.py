"""Search operations: witnesses, branch selection, and certificate re-checks."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from schreier import search
from schreier.certificates import make_certificate, verify_certificate
from schreier.colorings import Coloring, get_coloring, hash_coloring
from schreier.families import (FamilySpec, parse_family, residual_after,
                               uniform_member, uniform_star)
from schreier.finsets import Window, subsets_of
from schreier.ordinals import ZERO, compare, from_int, parse_ordinal
from schreier.rank import index_compare
from schreier.search import (
    StreamBudget,
    _homogenize_admit,
    _lex_first,
    _separation_admit,
    detect_chain,
    hereditary_dichotomy,
    homogenize,
    homogenize_stream,
    large_index_transfer,
    majority_strategy,
    rank_separation,
    recheck_transfer,
    schreier_transfer,
    sperner_refine,
)


def o(text):
    return parse_ordinal(text)


# -- homogenize -------------------------------------------------------


def test_homogenize_parity_pairs():
    cert = homogenize(parse_family("A:2"), get_coloring("parity-sum"),
                      Window(1, 20), 4)
    assert cert is not None
    assert cert.witness == (1, 3, 5, 7)  # lex-first all-odd witness
    assert cert.payload_dict()["color"] == 1
    ok, reason = verify_certificate(cert)
    assert ok, reason


def test_homogenize_singletons_pigeonhole():
    c = hash_coloring(3)
    cert = homogenize(parse_family("A:1"), c, Window(1, 9), 4)
    assert cert is not None
    colors = {c((x,)) for x in cert.witness}
    assert len(colors) == 1
    assert verify_certificate(cert, coloring=c)[0]


def test_homogenize_span_threshold():
    cert = homogenize(parse_family("A:w"), get_coloring("span-threshold"),
                      Window(1, 30), 5)
    assert cert is not None
    assert verify_certificate(cert)[0]


def test_homogenize_window_exhaustion():
    assert homogenize(parse_family("A:1"), get_coloring("parity-sum"),
                      Window(1, 3), 4) is None


def test_homogenize_deterministic():
    a = homogenize(parse_family("A:2"), hash_coloring(9), Window(1, 18), 4)
    b = homogenize(parse_family("A:2"), hash_coloring(9), Window(1, 18), 4)
    assert a == b and a.transcript_hash == b.transcript_hash


# -- homogenize_stream ------------------------------------------------


def test_stream_singleton_base_case():
    c = hash_coloring(1)
    out = homogenize_stream(parse_family("A:1"), c, range(1, 10),
                            budget=StreamBudget(depth=1, horizon=9, emit=9))
    assert out.status == "ok"
    assert out.prefix
    assert {c((x,)) for x in out.prefix} == {out.color}
    assert verify_certificate(out.certificate, coloring=c)[0]
    # majority sampling picks the bigger singleton class
    counts = {1: 0, 2: 0}
    for x in range(1, 10):
        counts[c((x,))] += 1
    assert out.color == min(k for k, v in counts.items()
                            if v == max(counts.values()))


def test_stream_pairs_on_evens():
    out = homogenize_stream(parse_family("A:2"), get_coloring("parity-sum"),
                            range(2, 40, 2),
                            budget=StreamBudget(depth=2, horizon=12, emit=6))
    assert out.status == "ok"
    assert out.color == 1  # even + even sums are even
    assert out.prefix == (2, 4, 6, 8, 10, 12)
    ok, reason = verify_certificate(out.certificate)
    assert ok, reason


def test_stream_budget_zero_trivially_certified():
    out = homogenize_stream(parse_family("A:2"), get_coloring("parity-sum"),
                            range(1, 30), budget=StreamBudget(0, 0, 0))
    assert out.status == "ok"
    assert out.prefix == ()
    assert out.certificate is not None
    assert verify_certificate(out.certificate)[0]


def test_stream_depth_exhaustion_reported():
    out = homogenize_stream(parse_family("A:w"), get_coloring("parity-sum"),
                            range(5, 30),
                            budget=StreamBudget(depth=2, horizon=6, emit=2))
    assert out.status == "budget_exhausted"
    assert out.certificate is not None  # prefix too short to hold a member


def test_stream_contrarian_strategy_self_cancels():
    # picking the anti-majority color thins every level to nothing: the
    # empty prefix is still (vacuously) certified
    def contrarian(labels):
        return 2 if majority_strategy(labels) == 1 else 1

    out = homogenize_stream(parse_family("A:2"), get_coloring("parity-sum"),
                            range(2, 40, 2), strategy=contrarian,
                            budget=StreamBudget(depth=2, horizon=12, emit=6))
    assert out.status == "ok"
    assert out.prefix == ()
    assert verify_certificate(out.certificate)[0]


def test_stream_impure_oracle_reported_as_failure():
    # an oracle that changes its answers between recursion and re-check
    # breaks the purity contract; the final check must catch it
    calls = {"n": 0}

    def flaky(s):
        calls["n"] += 1
        return 1 if calls["n"] <= 9 else 2

    out = homogenize_stream(parse_family("A:1"),
                            Coloring(flaky, name="impure"), range(1, 10),
                            budget=StreamBudget(depth=1, horizon=9, emit=9))
    assert out.status == "failed"
    assert out.certificate is None


def test_stream_input_validation():
    with pytest.raises(ValueError):
        homogenize_stream(parse_family("exL"), get_coloring("parity-sum"),
                          range(1, 10))
    with pytest.raises(ValueError):
        homogenize_stream(parse_family("A:2"), get_coloring("parity-sum"),
                          [3, 3, 4])


# -- sperner_refine ---------------------------------------------------


def test_sperner_equal_sizes_trivial():
    cert = sperner_refine(parse_family("A:3"), Window(1, 10), 6)
    assert cert.witness == (1, 2, 3, 4, 5, 6)
    assert verify_certificate(cert)[0]


def test_sperner_mixed_family():
    spec = parse_family("ex112")
    cert = sperner_refine(spec, Window(1, 25), 6)
    assert cert is not None
    members = [s for k in range(1, 7)
               for s in combinations(cert.witness, k) if spec.member(s)]
    for i, s in enumerate(members):
        for t in members[i + 1:]:
            assert not (set(s) < set(t) or set(t) < set(s))
    assert verify_certificate(cert)[0]


def test_sperner_size_equals_min():
    cert = sperner_refine(parse_family("exR"), Window(1, 12), 5)
    assert cert.witness == (1, 2, 3, 4, 5)
    assert verify_certificate(cert)[0]


# -- carried frontiers against the subset-walking admits ---------------
#
# The searches once re-tested every subset of the partial set on each
# admit; those admits stay here as the oracle for the carried frontiers.


def oracle_homogenize_admit(spec, coloring):
    def admit(partial, e, color):
        for s in subsets_of(partial):
            t = s + (e,)
            if spec.member(t):
                col = coloring(t)
                if color is None:
                    color = col
                elif col != color:
                    return False, color
        return True, color
    return admit


def oracle_separation_admit(xi1, xi2):
    def admissible(t):
        return not uniform_member(xi1, t) or (
            uniform_star(xi2, t) and not uniform_member(xi2, t))

    def admit(partial, e, state):
        return all(admissible(s + (e,)) for s in subsets_of(partial)), state
    return admit


FRONTIER_FAMILIES = ["A:0", "A:2", "A:3", "A:w", "A:w+1", "A:w*2", "A:w^2",
                     "A:w^w", "B:2"]
SEPARATION_PAIRS = [
    (a, b)
    for a in ("0", "2", "3", "w", "w+1", "w*2", "w^2", "w^w")
    for b in ("0", "2", "3", "w", "w+1", "w*2", "w^2", "w^w")
    if compare(o(a), o(b)) < 0
]
partial_sets = st.builds(lambda xs: tuple(sorted(xs)),
                         st.sets(st.integers(1, 14), min_size=1))


def greedy_walk(admit, state, oracle, want_state, ground):
    """Offer ground's elements in turn to both admits, as _lex_first does
    before it backtracks; yields each partial set, element, verdict pair
    and pair of states."""
    partial = ()
    for e in ground:
        ok, next_state = admit(partial, e, state)
        want_ok, want_next = oracle(partial, e, want_state)
        yield partial, e, (ok, want_ok), (next_state, want_next)
        if ok and want_ok:
            partial += (e,)
            state, want_state = next_state, want_next


@pytest.mark.parametrize("family", FRONTIER_FAMILIES)
@settings(max_examples=50, deadline=None)
@given(ground=partial_sets, seed=st.integers(0, 1 << 20))
def test_homogenize_frontier_matches_subset_admit(family, ground, seed):
    spec = parse_family(family)
    coloring = hash_coloring(seed)
    admit, root = _homogenize_admit(spec, coloring)
    oracle = oracle_homogenize_admit(spec, coloring)
    kept, frontier = (), root[1]
    for partial, e, (ok, want_ok), (state, want_color) in greedy_walk(
            admit, root, oracle, None, ground):
        assert ok == want_ok, (partial, e)
        if ok:
            assert state[0] == want_color, (partial, e)
            kept, frontier = partial + (e,), state[1]
    # the frontier holds each subset of the kept set that is neither
    # stuck nor a member, once, with its residual
    xi = spec.system_ordinal()
    alive = [(s, residual_after(xi, s)) for s in subsets_of(kept)]
    assert sorted(frontier) == sorted(
        (s, r) for s, r in alive if r is not None and r is not ZERO)


@settings(max_examples=150, deadline=None)
@given(pair=st.sampled_from(SEPARATION_PAIRS), ground=partial_sets)
def test_separation_frontier_matches_subset_admit(pair, ground):
    xi1, xi2 = o(pair[0]), o(pair[1])
    admit, root = _separation_admit(xi1, xi2)
    oracle = oracle_separation_admit(xi1, xi2)
    for partial, e, (ok, want_ok), _ in greedy_walk(admit, root, oracle,
                                                      None, ground):
        assert ok == want_ok, (partial, e)


@pytest.mark.parametrize("family", FRONTIER_FAMILIES + ["F:1", "exL"])
def test_homogenize_witness_matches_subset_search(family):
    spec = parse_family(family)
    for seed in range(3):
        coloring = hash_coloring(seed, 3)
        cert = homogenize(spec, coloring, Window(1, 14), 4)
        hit = _lex_first(Window(1, 14).ground, 4,
                         oracle_homogenize_admit(spec, coloring))
        if hit is None:
            assert cert is None
            continue
        L, color = hit
        assert cert.witness == L
        assert cert.payload_dict()["color"] == (1 if color is None else color)


def oracle_sperner_admit(spec):
    def minimal(t):
        return not any(spec.member(s) for k in range(1, len(t))
                       for s in combinations(t, k))

    def admit(partial, e, state):
        return all(not spec.member(s + (e,)) or minimal(s + (e,))
                   for s in subsets_of(partial)), state
    return admit


# the system families are Sperner already, so the rejections come from
# the kinds that keep the subset admit
SPERNER_FAMILIES = [parse_family(f) for f in FRONTIER_FAMILIES
                    + ["F:1", "F:2", "exL", "ex112"]] + [FamilySpec(
    kind="custom", predicate=lambda s: len(s) in (2, 3) and s[0] % 2 == 1,
    name="odd-min-pairs-and-triples")]


@pytest.mark.parametrize("spec", SPERNER_FAMILIES, ids=str)
def test_sperner_witness_matches_subset_search(spec):
    for window, target in ((Window(1, 12), 3), (Window(1, 14), 5),
                           (Window(2, 16), 6), (Window(1, 6), 6)):
        cert = sperner_refine(spec, window, target)
        hit = _lex_first(window.ground, target, oracle_sperner_admit(spec))
        if hit is None:
            assert cert is None
            continue
        assert cert.witness == hit[0]


# -- hereditary_dichotomy ---------------------------------------------


def branches_of(certs):
    return sorted(c.payload_dict()["branch"] for c in certs)


def test_dichotomy_prefix_side():
    certs = hereditary_dichotomy("down:F:1", parse_family("exL"),
                                 Window(1, 30), target=8)
    assert branches_of(certs) == ["B"]
    ok, reason = verify_certificate(certs[0])
    assert ok, reason


def test_dichotomy_containment_side():
    certs = hereditary_dichotomy("down:exL", parse_family("exR"),
                                 Window(1, 30), target=8)
    assert branches_of(certs) == ["A"]
    ok, reason = verify_certificate(certs[0])
    assert ok, reason


def test_dichotomy_all_sets():
    certs = hereditary_dichotomy("all", parse_family("A:2"), Window(1, 12),
                                 target=5)
    assert branches_of(certs) == ["A"]


def test_dichotomy_ladder_matches_symbolic_comparison():
    for k in range(1, 5):
        for j in range(1, 5):
            certs = hereditary_dichotomy(f"down:A:{k}", parse_family(f"A:{j}"),
                                         Window(1, 14), target=6)
            got = branches_of(certs)
            verdict = index_compare(from_int(k + 1), from_int(j))
            if verdict == "FirstBranch":
                assert got == ["A"], (k, j)
            elif verdict == "SecondBranch":
                assert got == ["B"], (k, j)
            else:
                assert "A" in got, (k, j)
            for c in certs:
                assert verify_certificate(c)[0]


def test_dichotomy_validation():
    with pytest.raises(ValueError):
        hereditary_dichotomy("member:A:2", parse_family("exL"), Window(1, 20))
    with pytest.raises(ValueError):
        hereditary_dichotomy("down:F:1", parse_family("ex112"), Window(1, 20))


def test_dichotomy_without_closed_form_raises_before_the_probe(monkeypatch):
    def probe(*_):
        raise AssertionError("the heredity probe ran")

    monkeypatch.setattr(search, "check_hereditary", probe)
    for family in ("A:w^3", "ex112"):
        with pytest.raises(ValueError, match="no subset-closure form"):
            hereditary_dichotomy("down:F:1", parse_family(family),
                                 Window(1, 20))


# -- rank_separation --------------------------------------------------


def test_separation_pairs_into_size_equals_min():
    cert = rank_separation(2, o("w"), Window(1, 20))
    assert cert is not None
    assert cert.witness == (3, 4, 5, 6, 7, 8)
    ok, reason = verify_certificate(cert)
    assert ok, reason


def test_separation_singletons_into_pairs():
    cert = rank_separation(1, 2, Window(1, 12))
    assert cert.witness == (1, 2, 3, 4, 5, 6)
    assert verify_certificate(cert)[0]


def test_separation_limit_levels():
    cert = rank_separation(o("w"), o("w*2"), Window(1, 40))
    assert cert is not None
    assert verify_certificate(cert)[0]


def test_separation_rejects_bad_order():
    with pytest.raises(ValueError):
        rank_separation(o("w"), 2, Window(1, 20))
    with pytest.raises(ValueError):
        rank_separation(2, 2, Window(1, 20))


# -- detect_chain -----------------------------------------------------


def test_chain_all_sets():
    cert = detect_chain("all", Window(1, 12), 6)
    links = cert.payload_dict()["chain"]
    assert links[0] == [] and len(links) == 6
    assert verify_certificate(cert)[0]


def test_chain_bounded_cardinality():
    assert detect_chain("down:A:3", Window(1, 14), 5) is None
    cert = detect_chain("down:A:3", Window(1, 14), 4)
    assert cert is not None
    assert verify_certificate(cert)[0]


def test_chain_needs_min_at_least_depth():
    cert = detect_chain("member:F:1", Window(1, 14), 4)
    links = [tuple(s) for s in cert.payload_dict()["chain"]]
    assert links == [(4,), (4, 5), (4, 5, 6), (4, 5, 6, 7)]
    assert verify_certificate(cert)[0]


# -- transfers --------------------------------------------------------


def test_transfer_shift_level_one():
    w = Window(1, 15)
    cert = schreier_transfer(1, w)
    assert cert.witness == tuple(range(3, 16))
    p = cert.payload_dict()
    from schreier.families import enumerate_union_schreier, star_closure
    assert p["spread_checked"] == len(
        enumerate_union_schreier(o("1"), Window(1, 13)))
    assert p["closure_checked"] == len(
        star_closure(parse_family("B:1"), w)) - 1  # empty prefix skipped
    ok, reason = verify_certificate(cert)
    assert ok, reason


# witness, spread and closure counts and transcript hash on a thinned
# ground, where the spread side relabels through a ground with gaps
THINNED = Window(1, 16, (1, 2, 3, 5, 6, 8, 9, 10, 12, 13, 15, 16))
THINNED_TRANSFERS = [
    (0, 10, 12, "6566b3249e553ce54ae68bbd073eb8e77bd7238bbbb55f3b74024ab7f3afea44"),
    (1, 143, 239, "978888ffc4c45bab277b59afd60a4e5e71dcca369122ed2ac7a524690671b7e2"),
    (2, 488, 242, "d24e72316ea11960dfdb8746f0c9f4620c1333f8c89971fedbdbcd892f94c334"),
]


@pytest.mark.parametrize("level,spread_n,closure_n,digest", THINNED_TRANSFERS)
def test_transfer_thinned_ground_pinned(level, spread_n, closure_n, digest):
    cert = schreier_transfer(level, THINNED)
    p = cert.payload_dict()
    assert cert.witness == (3, 5, 6, 8, 9, 10, 12, 13, 15, 16)
    assert (p["spread_checked"], p["closure_checked"]) == (spread_n, closure_n)
    assert cert.transcript_hash == digest
    assert verify_certificate(cert)[0]


# The walks stop at the lex-first set outside a containment.  A benchmark
# index patched to the wrong value must make each side report the same set
# as a definitional scan of the union members or the witnessed prefixes.


def test_transfer_spread_escape_is_lex_first(monkeypatch):
    import schreier.search as S
    from schreier.families import iter_union_schreier, uniform_star

    small = o("w")  # below w^2, so level-2 spreads leave its star closure
    monkeypatch.setattr(S, "omega_power", lambda a: small)
    w = Window(1, 12)
    L = w.ground[2:]
    first = next(s for s in iter_union_schreier(2, Window(1, len(L)))
                 if not uniform_star(small, tuple(L[i - 1] for i in s)))
    assert S._transfer_containments(2, w) == {
        "ok": False, "reason": f"spread of {first} lands outside the star closure"}


def test_transfer_closure_escape_is_lex_first(monkeypatch):
    import schreier.search as S
    from schreier.families import star_closure, union_schreier_member

    wide = o("w*3")  # three w-blocks: its witnessed prefixes leave level 2
    monkeypatch.setattr(S, "omega_power", lambda a: wide)
    w = Window(1, 12)
    first = next(p for p in sorted(star_closure(parse_family("A:w*3"), w))
                 if p and not union_schreier_member(2, p))
    assert S._transfer_containments(2, w) == {
        "ok": False, "reason": f"prefix {first} escapes the union level"}


def test_transfer_level_zero_trivial():
    cert = schreier_transfer(0, Window(1, 10))
    assert verify_certificate(cert)[0]


def test_transfer_level_zero_wide_window():
    # the count table extends a state's entries in a loop, so a window
    # wider than the recursion limit is fine where the walk itself is
    cert = schreier_transfer(0, Window(1, 1500))
    p = cert.payload_dict()
    assert (p["spread_checked"], p["closure_checked"]) == (1498, 1500)


def test_transfer_validation():
    with pytest.raises(ValueError):
        schreier_transfer(3, Window(1, 20))
    with pytest.raises(ValueError):
        schreier_transfer(o("w"), Window(1, 20))
    with pytest.raises(ValueError):
        schreier_transfer(1, Window(1, 2))


def test_transfer_forged_witness_rejected():
    good = schreier_transfer(1, Window(1, 15))
    forged = make_certificate("Transfer", good.family, good.window,
                              good.witness[1:], good.payload_dict())
    ok, reason = recheck_transfer(forged)
    assert not ok and "witness" in reason


def test_transfer_density_flag_recorded_not_checked():
    cert = schreier_transfer(1, Window(1, 15), assume_dense=True)
    assert cert.payload_dict()["assume_dense"] is True
    assert verify_certificate(cert)[0]


def test_large_index_direct_route():
    cert = large_index_transfer("down:A:w*2", o("w*2+1"), 1, Window(1, 40))
    assert cert is not None
    assert cert.payload_dict()["route"] == "direct"
    ok, reason = verify_certificate(cert)
    assert ok, reason


def test_large_index_boundary_lift():
    cert = large_index_transfer("down:B:1", o("w+1"), 1, Window(1, 30))
    assert cert is not None
    assert cert.payload_dict()["route"] == "lift"
    ok, reason = verify_certificate(cert)
    assert ok, reason


def test_large_index_infinity_surrogate():
    cert = large_index_transfer("all", None, 1, Window(1, 20))
    assert cert is not None
    assert cert.payload_dict()["sigma"] == "infinity"
    assert verify_certificate(cert)[0]


def test_large_index_rejects_small_index():
    with pytest.raises(ValueError):
        large_index_transfer("down:A:2", o("3"), 1, Window(1, 20))


def test_large_index_route_forgery_rejected():
    good = large_index_transfer("all", None, 1, Window(1, 20))
    p = good.payload_dict()
    p["route"] = "lift"
    forged = make_certificate("Transfer", good.family, good.window,
                              good.witness, p)
    ok, reason = recheck_transfer(forged)
    assert not ok and "route" in reason
