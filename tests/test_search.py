"""Search operations: witnesses, branch selection, and certificate re-checks."""

import time
import tracemalloc
from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from schreier import families, search
from schreier.certificates import (hereditary_predicate, make_certificate,
                                  verify_certificate)
from schreier.colorings import get_coloring, hash_coloring
from schreier.families import (FamilySpec, _down_test, _greedy_covers,
                               check_sperner,
                               parse_family, residual_after, uniform_member,
                               uniform_star)
from schreier.finsets import Window, check_hereditary, subsets_of
from schreier.ordinals import (ONE, ZERO, add, compare, descend, from_int,
                               omega_power, parse_ordinal)
from schreier.rank import index_compare
from schreier.search import (
    _homogenize_admit,
    _lex_first,
    detect_chain,
    hereditary_dichotomy,
    homogenize,
    large_index_transfer,
    rank_separation,
    recheck,
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


def odd_min_pairs(star):
    # members are the pairs with an odd minimum; their initial segments
    # are the empty set, the odd singletons and the members
    return FamilySpec(
        kind="custom", predicate=lambda s: len(s) == 2 and s[0] % 2 == 1,
        star_predicate=(lambda s: not s or len(s) <= 2 and s[0] % 2 == 1)
        if star else None, name="odd-min-pairs")


HOMOGENIZE_FRONTIER_SPECS = [
    pytest.param(parse_family(f), id=f)
    for f in FRONTIER_FAMILIES + ["F:1", "F:2", "exL", "exR", "ex112"]] + [
    pytest.param(odd_min_pairs(True), id="odd-min-pairs-star"),
    pytest.param(odd_min_pairs(False), id="odd-min-pairs-no-star")]


@pytest.mark.parametrize("spec", HOMOGENIZE_FRONTIER_SPECS)
@settings(max_examples=50, deadline=None)
@given(ground=partial_sets, seed=st.integers(0, 1 << 20))
def test_homogenize_frontier_matches_subset_admit(spec, ground, seed):
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
    # for a system family the frontier holds each subset of the kept set
    # that is neither stuck nor a member, once, with its residual; for
    # other kinds the empty set and each subset the star test keeps, or
    # every subset when there is no star test
    xi = spec.system_ordinal()
    if xi is not None:
        alive = [(s, residual_after(xi, s)) for s in subsets_of(kept)]
        want = [(s, r) for s, r in alive if r is not None and r is not ZERO]
    else:
        keep = spec.star if spec.star_predicate or spec.kind != "custom" \
            else (lambda s: True)
        want = [(s, None) for s in subsets_of(kept) if not s or keep(s)]
    assert sorted(frontier) == sorted(want)


def separation_admit(xi1, xi2):
    """The admit and root state that rank_separation hands to _lex_first."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_lex_first",
                   lambda ground, target, admit, state: seen.append(
                       (admit, state)))
        search.rank_separation(xi1, xi2, Window(1, 1), 1)
    return seen[0]


@settings(max_examples=150, deadline=None)
@given(pair=st.sampled_from(SEPARATION_PAIRS), ground=partial_sets)
def test_separation_frontier_matches_subset_admit(pair, ground):
    xi1, xi2 = o(pair[0]), o(pair[1])
    admit, root = separation_admit(xi1, xi2)
    oracle = oracle_separation_admit(xi1, xi2)
    kept, frontier = (), root
    for partial, e, (ok, want_ok), (state, _) in greedy_walk(
            admit, root, oracle, None, ground):
        assert ok == want_ok, (partial, e)
        if ok:
            kept, frontier = partial + (e,), state
    # the frontier holds each subset of the kept set alive at xi1 and not
    # a level-xi1 member, once, with its xi1 residual
    alive = [(s, residual_after(xi1, s)) for s in subsets_of(kept)]
    assert sorted(frontier) == sorted(
        (s, r) for s, r in alive if r is not None and r is not ZERO)


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
# the other kinds, whose frontiers their star tests prune
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


def oracle_minimal_colour_admit(spec):
    """sperner_refine's former admit: homogenize's admit with minimality as
    the colour, each member it completes tested against every proper
    subset."""
    def minimal(t):
        return not any(spec.member(s) for k in range(1, len(t))
                       for s in combinations(t, k))
    return _homogenize_admit(spec, minimal)


def custom_sperner_spec(star):
    # members are the pairs and triples with an odd minimum: nested ones
    # meet on a thinned ground
    return FamilySpec(
        kind="custom", predicate=lambda s: len(s) in (2, 3) and s[0] % 2 == 1,
        star_predicate=(lambda s: not s or len(s) <= 3 and s[0] % 2 == 1)
        if star else None, name="odd-min-pairs-and-triples")


SPERNER_PANEL = [pytest.param(parse_family(f), id=f) for f in (
    "A:0", "A:3", "A:w", "A:w+2", "A:w^2", "B:1", "B:2", "F:0", "F:1", "F:2",
    "F:w", "exL", "exR", "ex112")] + [
    pytest.param(custom_sperner_spec(True), id="custom-star"),
    pytest.param(custom_sperner_spec(False), id="custom-no-star")]
THINNED_GROUNDS = [Window(1, 16, (1, 2, 4, 5, 7, 8, 10, 11, 13, 14)),
                   Window(2, 20, tuple(range(2, 21, 2))),
                   Window(1, 18, (1, 3, 4, 5, 9, 10, 11, 12, 17, 18)),
                   Window(1, 22, (1, 2, 3, 5, 6, 7, 9, 10, 12, 13, 14, 16,
                                  18, 20, 22))]


@pytest.mark.parametrize("spec", SPERNER_PANEL)
def test_sperner_witness_matches_minimal_colour(spec):
    # the system families and exL are Sperner, so their witnesses are the
    # ground's first elements; ex112 and the custom kinds refuse some, and
    # the union levels past F:0 run out past two elements
    for window in THINNED_GROUNDS:
        for target in (2, 4, 6):
            cert = sperner_refine(spec, window, target)
            admit, root = oracle_minimal_colour_admit(spec)
            hit = _lex_first(window.ground, target, admit, root)
            assert (cert and cert.witness) == (hit and hit[0]), (window, target)


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


LADDER = ["2", "w", "w+1", "w+2", "w*2"]
# a finite window puts small minima in every witness, where A:w*2's members
# are short: its branch there is not the symbolic one
LADDER_ARTEFACTS = {("w+1", "w*2"): ["A"], ("w+2", "w*2"): ["A"],
                    ("w*2", "w+2"): ["B"]}


@pytest.mark.parametrize("b", LADDER)
@pytest.mark.parametrize("a", LADDER)
def test_dichotomy_ladder_at_infinite_indices(a, b):
    certs = hereditary_dichotomy(f"down:A:{a}", parse_family(f"A:{b}"),
                                 Window(1, 20), target=6)
    verdict = index_compare(add(o(a), ONE), o(b))
    symbolic = {"FirstBranch": ["A"], "SecondBranch": ["B"],
                "Boundary": ["A"]}[verdict]
    assert branches_of(certs) == LADDER_ARTEFACTS.get((a, b), symbolic)
    for c in certs:
        assert verify_certificate(c) == (True, "ok")


def test_dichotomy_validation():
    with pytest.raises(ValueError):
        hereditary_dichotomy("member:A:2", parse_family("exL"), Window(1, 20))
    with pytest.raises(ValueError):
        hereditary_dichotomy("down:F:1", parse_family("ex112"), Window(1, 20))
    # A:w's least member above 20 has 21 elements, more than a probe of
    # the window's first 12 sees
    with pytest.raises(ValueError, match="not hereditary"):
        hereditary_dichotomy("member:A:w", parse_family("exR"),
                             Window(20, 40), target=4)


def test_dichotomy_without_closed_form_raises_before_the_probe(monkeypatch):
    def probe(*_):
        raise AssertionError("the heredity probe ran")

    monkeypatch.setattr(search, "_probe_hereditary", probe)
    with pytest.raises(ValueError, match="no subset-closure form"):
        hereditary_dichotomy("down:F:1", parse_family("ex112"), Window(1, 20))


def test_dichotomy_past_w_squared():
    # A:w^3's subset closure is its star test; branch A holds at the
    # first candidate
    certs = hereditary_dichotomy("down:A:w^2", parse_family("A:w^3"),
                                 Window(1, 14), target=6)
    assert branches_of(certs) == ["A"]
    assert certs[0].witness == (1, 2, 3, 4, 5, 6)
    assert verify_certificate(certs[0]) == (True, "ok")


# -- the lex searches against the candidate loops ---------------------
#
# hereditary_dichotomy and large_index_transfer once stepped through
# every target-subset of the ground in lex order and re-tested all of its
# subsets, under a candidate budget.  Those loops stay here, with no
# budget, as the oracles for the lex searches.


def oracle_dichotomy(hered_desc, spec, window, target):
    hered = hereditary_predicate(hered_desc)
    down = _down_test(spec)
    for L in combinations(window.ground, target):
        okA = all(hered(t) for t in subsets_of(L) if down(t))
        okB = all(spec.star(t) and not spec.member(t)
                  for t in subsets_of(L) if hered(t))
        base = {"hereditary": hered_desc, "target": target}
        certs = [make_certificate(f"DichotomyBranch{b}", spec.literal(),
                                  window, L, dict(base, branch=b))
                 for b, ok in (("A", okA), ("B", okB)) if ok]
        if certs:
            return certs
    return []


def oracle_large_index_transfer(into_desc, sigma, level, window, target):
    H = hereditary_predicate(into_desc)
    route = search._transfer_route(level, sigma)
    drop = 2 if route == "direct" else 4
    pred = H if route == "direct" else (lambda t: not t or H(t[1:]))
    down = _down_test(parse_family(f"B:{level}"))
    if target + drop > len(window.ground):
        raise ValueError("window too small for the requested target")
    for cand in combinations(window.ground, target + drop):
        if not all(pred(t) for t in subsets_of(cand) if down(t)):
            continue
        L = cand[drop:]
        checked, escaped = search._spread_into(level, L, H)
        if escaped is None:
            return make_certificate("Transfer", f"B:{level}", window, L, {
                "variant": "large-index", "into": into_desc,
                "sigma": "infinity" if sigma is None else str(sigma),
                "xi": str(level), "route": route, "target": target,
                "spread_checked": checked})
    return None


DICHOTOMY_PREDICATES = ["all", "down:A:1", "down:A:2", "down:A:w", "down:F:1",
                        "down:exL", "member:F:1", "member:F:2", "member:A:1",
                        "member:A:0"]
DICHOTOMY_FAMILIES = ["A:1", "A:2", "A:3", "A:w", "A:w+1", "B:1", "F:1",
                      "F:2", "exL", "exR"]
thinned_grounds = st.sets(st.integers(1, 16), min_size=1, max_size=12).map(
    lambda xs: Window(1, 16, tuple(xs)))


def check_sperner_admit(spec):
    """sperner_refine's admit before the member frontier: check_sperner on
    the partial set with e appended, listing its members afresh."""
    def admit(partial, e, state):
        L = partial + (e,)
        return check_sperner(spec, Window(L[0], e, L))[0], state
    return admit


# the empty set is a member of this one, so its first other member nests
EVEN_SIZED = FamilySpec(kind="custom", predicate=lambda s: len(s) % 2 == 0,
                        name="even-sized")


@settings(max_examples=200, deadline=None)
@given(spec=st.sampled_from([p.values[0] for p in SPERNER_PANEL]
                            + [EVEN_SIZED]),
       window=thinned_grounds, target=st.integers(1, 6))
def test_sperner_admit_matches_check_sperner(spec, window, target):
    admit, root = search._sperner_admit(spec)
    hit = _lex_first(window.ground, target, check_sperner_admit(spec))
    got = _lex_first(window.ground, target, admit, root)
    assert (got and got[0]) == (hit and hit[0])
    # folded over the whole ground, it refuses where check_sperner first
    # fails, and its state is then a nested pair of members
    g, state = window.ground, root
    for i, x in enumerate(g):
        ok, state = admit(g[:i], x, state)
        assert ok == check_sperner(spec, Window(g[0], x, g[:i + 1]))[0]
        if not ok:
            s, t = state
            assert spec.member(s) and spec.member(t)
            assert set(s) < set(t) <= set(g[:i + 1]) and x in t
            break


@settings(max_examples=200, deadline=None)
@given(desc=st.sampled_from(DICHOTOMY_PREDICATES),
       family=st.sampled_from(DICHOTOMY_FAMILIES),
       window=thinned_grounds, target=st.integers(1, 5))
def test_dichotomy_matches_candidate_loop(desc, family, window, target):
    target = min(target, len(window.ground))
    spec = parse_family(family)
    certs = hereditary_dichotomy(desc, spec, window, target)
    assert certs == oracle_dichotomy(desc, spec, window, target)


DICHOTOMY_CASES = [
    ("down:F:1", "exL", 30, 8), ("down:exL", "exR", 30, 8),
    ("all", "A:2", 12, 5), ("down:A:w^2", "A:w^3", 14, 6),
    # F has no empty member, so member:F:* fails branch A at the empty set
    ("member:F:1", "A:2", 14, 6), ("member:F:1", "exL", 20, 6),
    ("member:F:2", "A:w", 12, 5),
] + [(f"down:A:{k}", f"A:{j}", 14, 6) for k in range(1, 5) for j in range(1, 5)]


@pytest.mark.parametrize("desc,family,hi,target", DICHOTOMY_CASES)
def test_dichotomy_fixed_cases_match_candidate_loop(desc, family, hi, target):
    spec, window = parse_family(family), Window(1, hi)
    certs = hereditary_dichotomy(desc, spec, window, target)
    want = oracle_dichotomy(desc, spec, window, target)
    assert [(c.witness, c.transcript_hash) for c in certs] == \
        [(c.witness, c.transcript_hash) for c in want]
    assert branches_of(certs) == branches_of(want)


def test_dichotomy_past_the_old_candidate_budget():
    # every candidate starting at 1 fails both branches, and there are
    # C(19, 5) = 11,628 of them
    start = time.perf_counter()
    certs = hereditary_dichotomy("down:A:1", parse_family("A:w"),
                                 Window(1, 20), target=6)
    assert time.perf_counter() - start < 1
    assert branches_of(certs) == ["B"]
    assert certs[0].witness == (2, 3, 4, 5, 6, 7)
    assert verify_certificate(certs[0]) == (True, "ok")


def test_dichotomy_budget_counts_admits(monkeypatch):
    monkeypatch.setattr(search, "_MAX_ADMITS", 10)
    assert hereditary_dichotomy("down:A:1", parse_family("A:w"),
                                Window(1, 20), target=6) == []


# -- the heredity decision --------------------------------------------


HEREDITY_FAMILIES = ["A:0", "A:1", "A:2", "A:3", "A:w", "A:w+1", "A:w*2",
                     "A:w^2", "A:w^w", "B:0", "B:1", "B:2", "exL", "exR",
                     "ex112", "F:0", "F:1", "F:2", "F:3"]


def resolvable(desc):
    try:
        hereditary_predicate(desc)
    except ValueError:
        return False
    return True


HEREDITY_FORMS = [desc for desc in ["all"] + [
    f"{form}:{family}" for form in ("down", "member")
    for family in HEREDITY_FAMILIES] if resolvable(desc)]


@pytest.mark.parametrize("desc", HEREDITY_FORMS)
def test_heredity_decision_matches_the_window_probe(desc):
    # the oracle: the removal check on the nonempty subsets of 12-element
    # windows, each of which sees only the members that fit in it
    hered = hereditary_predicate(desc)
    fails = 0
    for lo in (1, 2, 3, 5):
        ground = tuple(range(lo, lo + 12))
        try:
            check_hereditary(hered, subsets_of(ground, include_empty=False))
        except ValueError:
            fails += 1
    if fails:
        with pytest.raises(ValueError, match="not hereditary"):
            search._probe_hereditary(desc)
    else:
        search._probe_hereditary(desc)


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


# -- the witness cap ---------------------------------------------------
#
# The Homogeneous, Dichotomy and Sperner checks list the witness's
# subsets and refuse a witness over families._cap's 25 elements, so the
# searches that build those certificates refuse such a target first.

CAPPED_SEARCHES = {
    "homogenize": lambda t: homogenize(
        parse_family("A:1"), get_coloring("parity-sum"), Window(1, 60), t),
    "sperner_refine": lambda t: sperner_refine(
        parse_family("A:2"), Window(1, 40), t),
    "hereditary_dichotomy": lambda t: hereditary_dichotomy(
        "down:F:1", parse_family("exL"), Window(1, 40), target=t),
    "rank_separation": lambda t: rank_separation(1, 2, Window(1, 40), t),
}


@pytest.mark.parametrize("name", sorted(CAPPED_SEARCHES))
def test_search_refuses_a_target_its_check_refuses(monkeypatch, name):
    # each of these returned a certificate that verify_certificate
    # rejected, or raised the cap error from inside an admit
    def refuse(*args):
        raise AssertionError("the search started")

    monkeypatch.setattr(search, "_lex_first", refuse)
    with pytest.raises(ValueError, match=r"26 elements .*\(cap 25\)"):
        CAPPED_SEARCHES[name](26)


@pytest.mark.parametrize("name", sorted(CAPPED_SEARCHES))
def test_search_at_the_cap_verifies(name):
    got = CAPPED_SEARCHES[name](25)
    for cert in got if isinstance(got, list) else [got]:
        assert len(cert.witness) == 25
        assert verify_certificate(cert) == (True, "ok")


# -- the target rule --------------------------------------------------
#
# Every search takes its target by search._target, detect_chain's depth
# rule: an int >= 1, never a bool.  A True target once wrote certificates
# their own check refused, 2.0 raised TypeError, and the large-index
# transfer took any target down to -5, emitting an empty witness at 0.

TARGET_SEARCHES = {
    **CAPPED_SEARCHES,
    "large_index_transfer": lambda t: large_index_transfer(
        "down:A:w*2", o("w*2+1"), 1, Window(1, 40), t),
}


@pytest.mark.parametrize("target", [True, False, 2.0, 0, -1])
@pytest.mark.parametrize("name", sorted(TARGET_SEARCHES))
def test_search_refuses_a_target_that_is_no_positive_int(monkeypatch, name,
                                                          target):
    def refuse(*args):
        raise AssertionError("the search started")

    monkeypatch.setattr(search, "_lex_first", refuse)
    with pytest.raises(ValueError, match=r"target must be an integer >= 1, "
                       f"got {target!r}$"):
        TARGET_SEARCHES[name](target)


def test_resigned_empty_large_index_record_is_refused():
    cert = TARGET_SEARCHES["large_index_transfer"](8)
    payload = dict(cert.payload_dict(), target=0, spread_checked=0)
    empty = make_certificate("Transfer", cert.family, cert.window, (), payload)
    assert verify_certificate(empty) == (
        False, "target must be an integer >= 1, got 0")


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


def test_chain_look_ahead_call_count(monkeypatch):
    # every predicate call, the empty set's test included; a search that
    # retries every sibling made 9,255 and 192,041 past that test
    calls = []
    resolve = search.hereditary_predicate

    def counting(desc):
        hered = resolve(desc)

        def pred(s):
            calls.append(s)
            return hered(s)
        return pred

    monkeypatch.setattr(search, "hereditary_predicate", counting)
    for window, depth, count in ((Window(1, 20), 8, 10),
                                 (Window(1, 24), 9, 12)):
        calls.clear()
        assert detect_chain("down:exL", window, depth) is not None
        assert len(calls) == count <= len(window.ground) * depth


def test_chain_rejects_a_thin_member_form_above_small_windows():
    # a probe of the window's first 12 elements let this through, with a
    # chain whose first link (20,) is not a member of A:w
    with pytest.raises(ValueError, match="not hereditary"):
        detect_chain("member:A:w", Window(20, 60), 20)


def test_chain_deeper_than_the_recursion_limit():
    # _lex_first recursed once per element: this raised RecursionError
    cert = detect_chain("down:F:1", Window(1, 3000), 1200)
    assert cert.witness == tuple(range(1199, 2398))
    assert verify_certificate(cert) == (True, "ok")


def recursive_lex_first(ground, target, admit, state=None):
    """_lex_first as the recursion it replaced, kept as its oracle."""
    n = len(ground)

    def pick(partial, state, start):
        if len(partial) == target:
            return partial, state
        need = target - len(partial)
        for i in range(start, n - need + 1):
            e = ground[i]
            ok, next_state = admit(partial, e, state)
            if ok:
                hit = pick(partial + (e,), next_state, i + 1)
                if hit is not None:
                    return hit
        return None

    return pick((), state, 0)


@settings(max_examples=200, deadline=None)
@given(ground=st.sets(st.integers(1, 14), max_size=12),
       target=st.integers(0, 7), seed=st.integers(0, 2**32),
       odds=st.integers(2, 5))
def test_lex_first_matches_the_recursion(ground, target, seed, odds):
    # a random admit rule, fixed by its arguments: both searches must make
    # the same admit calls in the same order and return the same hit
    ground = tuple(sorted(ground))

    def run(search_fn):
        calls = []

        def admit(partial, e, state):
            calls.append((partial, e, state))
            return hash((seed, partial, e, state)) % odds != 0, state + e

        return search_fn(ground, target, admit, 0), calls

    assert run(_lex_first) == run(recursive_lex_first)


def backtracking_chain(desc, window, depth):
    """detect_chain's witness by the search that admits e when
    partial + (e,) is in the family and backtracks out of every subtree
    that cannot reach the depth."""
    hered = hereditary_predicate(desc)
    needed = depth - 1 if hered(()) else depth
    hit = _lex_first(window.ground, needed,
                     lambda partial, e, state: (hered(partial + (e,)), state))
    return None if hit is None else hit[0]


# hereditary and spreading: the look-ahead must find the lex-first chain
CHAIN_FORMS = ["all", "down:A:3", "down:A:w+2", "down:A:w*2+1", "down:A:w^2",
               "down:A:w^2+1", "down:A:w^3", "down:A:w^w", "down:B:1",
               "down:B:2", "down:B:3", "down:exL", "down:exR", "down:F:1",
               "down:F:2", "down:F:3", "member:A:1", "member:F:1",
               "member:F:2"]


@pytest.mark.parametrize("desc", CHAIN_FORMS)
@settings(max_examples=40, deadline=None)
@given(dropped=st.sets(st.integers(1, 20), max_size=10),
       depth=st.integers(1, 9))
def test_chain_look_ahead_matches_backtracking(desc, dropped, depth):
    window = Window(1, 20, tuple(x for x in range(1, 21) if x not in dropped))
    cert = detect_chain(desc, window, depth)
    assert (None if cert is None else cert.witness) == backtracking_chain(
        desc, window, depth)


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
    from schreier.families import enumerate_union_schreier, uniform_star

    small = o("w")  # below w^2, so level-2 spreads leave its star closure
    monkeypatch.setattr(S, "omega_power", lambda a: small)
    w = Window(1, 12)
    L = w.ground[2:]
    members = sorted(enumerate_union_schreier(2, Window(1, len(L))))  # lex
    first = next(s for s in members
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


# The per-node walk that the product count replaced, kept as its oracle.
# It visits every spread set and every witnessed prefix in lex order, tests
# each with the definitional member and star tests, and reports the first
# that escapes.  Union membership is the block greedy, not the residual of
# B:level, which the spread side walks.


def _lex_nodes(elements, keep, s=()):
    """Nonempty sets over elements that keep accepts, in lex order; keep
    must accept every nonempty prefix of a set it accepts."""
    for i in range(elements.index(s[-1]) + 1 if s else 0, len(elements)):
        t = s + (elements[i],)
        if keep(t):
            yield t
            yield from _lex_nodes(elements, keep, t)


def walked_transfer(level, window, xi):
    ground = window.ground
    L = ground[2:]
    spread_checked = 0

    def member(s):
        return _greedy_covers(from_int(level), s, {})

    for s in _lex_nodes(tuple(range(1, len(L) + 1)), member):
        if not uniform_star(xi, tuple(L[i - 1] for i in s)):
            return {"ok": False,
                    "reason": f"spread of {s} lands outside the star closure"}
        spread_checked += 1

    @cache
    def completes(r, i):
        # some member of the state-r family lies inside ground[i:]
        for j in range(i, len(ground)):
            d = descend(r, ground[j])
            if d is ZERO or completes(d, j + 1):
                return True
        return False

    def witnessed(p):
        r = residual_after(xi, p)
        return r is not None and (
            r is ZERO or completes(r, ground.index(p[-1]) + 1))

    closure_checked = 0
    for p in _lex_nodes(ground, witnessed):
        if not member(p):
            return {"ok": False, "reason": f"prefix {p} escapes the union level"}
        closure_checked += 1
    return {"ok": True, "spread_checked": spread_checked,
            "closure_checked": closure_checked, "L": L}


@pytest.mark.parametrize("level,hi", [(0, 3), (0, 18), (1, 4), (1, 18),
                                      (2, 5), (2, 13), (2, 18)])
def test_transfer_count_matches_walk(level, hi):
    w = Window(1, hi)
    want = walked_transfer(level, w, omega_power(from_int(level)))
    assert search._transfer_containments(level, w) == want


@settings(max_examples=30, deadline=None)
@given(level=st.integers(0, 2),
       ground=st.lists(st.integers(1, 18), min_size=3, unique=True))
def test_transfer_count_matches_walk_thinned(level, ground):
    w = Window(1, 18, sorted(ground))
    want = walked_transfer(level, w, omega_power(from_int(level)))
    assert search._transfer_containments(level, w) == want


# A benchmark index patched below or beside w^level makes one side escape;
# the count must report the same lex-first set as the walk, or the same
# counts where nothing escapes.
@pytest.mark.parametrize("xi_text", ["w", "w*2", "w*3", "w^2+1"])
@pytest.mark.parametrize("level", [0, 1, 2])
@pytest.mark.parametrize("window", [Window(1, 13), THINNED, Window(4, 18),
                                    Window(2, 17, (2, 4, 5, 7, 8, 11, 12, 16, 17))],
                         ids=["plain", "thinned", "shifted", "gapped"])
def test_transfer_escape_matches_walk(monkeypatch, xi_text, level, window):
    xi = o(xi_text)
    monkeypatch.setattr(search, "omega_power", lambda a: xi)
    assert (search._transfer_containments(level, window)
            == walked_transfer(level, window, xi))


@pytest.mark.parametrize("ground", [tuple(range(1, 15)),
                                    (2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17)],
                         ids=["interval", "thinned"])
@pytest.mark.parametrize("level", [0, 1, 2])
def test_union_check_matches_the_block_greedy(level, ground):
    # a set is a level member when no step of the check starts from a leaf
    step = search._union_check(level, len(ground))
    for s in subsets_of(ground):
        if not s:
            continue
        u, from_leaf = None, False
        for x in s:
            if u is False:
                from_leaf = True
                break
            u = step(u, x, ground.index(x))
        assert _greedy_covers(from_int(level), s, {}) != from_leaf, s


def test_transfer_level_zero_reads_no_residual(monkeypatch):
    # the spread side's level-0 step asked the residual of B:0 whether
    # each pair is a member: 15 residual_after calls on [1,18]
    calls = []
    real = families.residual_after
    monkeypatch.setattr(families, "residual_after",
                        lambda *a: calls.append(a) or real(*a))
    cert = schreier_transfer(0, Window(1, 18))
    assert calls == []
    assert cert.witness == tuple(range(3, 19))
    assert cert.payload_dict() == {
        "assume_dense": False, "closure_checked": 18, "dropped": [1, 2],
        "spread_checked": 16, "variant": "shift", "xi": "0"}


def test_transfer_level_zero_trivial():
    cert = schreier_transfer(0, Window(1, 10))
    assert verify_certificate(cert)[0]


def test_transfer_level_zero_wide_window():
    # the count table extends a state's entries in a loop, so a window
    # wider than the recursion limit is fine where the walk itself is
    cert = schreier_transfer(0, Window(1, 1500))
    p = cert.payload_dict()
    assert (p["spread_checked"], p["closure_checked"]) == (1498, 1500)


def test_transfer_rehashed_wide_window_verifies():
    # a well-formed document made with make_certificate alone: its check
    # is counted, so a window of 43 positions verifies in under a second
    base = schreier_transfer(2, Window(1, 14)).payload_dict()
    payload = dict(base, spread_checked=2176089831844,
                   closure_checked=168448980192)
    cert = make_certificate("Transfer", "B:2", Window(1, 45),
                            tuple(range(3, 46)), payload)
    assert verify_certificate(cert) == (True, "ok")


def test_transfer_memo_limit(monkeypatch):
    import tracemalloc

    # level 2 on [1,60] needs about 1.6 million memo cells; the check stops
    # before the row that would pass the limit is allocated
    monkeypatch.setattr(search, "_TRANSFER_CELLS", 4096)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="memo limit of 4096 cells"):
            schreier_transfer(2, Window(1, 60))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    payload = dict(schreier_transfer(2, Window(1, 14)).payload_dict(),
                   spread_checked=0, closure_checked=0)
    cert = make_certificate("Transfer", "B:2", Window(1, 60),
                            tuple(range(3, 61)), payload)
    ok, reason = verify_certificate(cert)
    assert not ok and "memo limit" in reason


def test_transfer_memo_limit_passes_the_root_row(monkeypatch):
    # level 0 holds one row a side, as long as the window; a window past
    # the limit still answers, as the walk over singletons did
    monkeypatch.setattr(search, "_TRANSFER_CELLS", 64)
    p = schreier_transfer(0, Window(1, 200)).payload_dict()
    assert (p["spread_checked"], p["closure_checked"]) == (198, 200)
    with pytest.raises(ValueError, match="memo limit of 64 cells"):
        schreier_transfer(1, Window(1, 200))


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
    ok, reason = recheck(forged)
    assert not ok and "witness" in reason


def _resigned(cert, key, value):
    """cert re-made with its family or one payload key set to value."""
    if key == "family":
        return make_certificate("Transfer", value, cert.window, cert.witness,
                                cert.payload_dict())
    return make_certificate("Transfer", cert.family, cert.window,
                            cert.witness, dict(cert.payload, **{key: value}))


TRANSFER_BASES = {
    "shift": lambda: schreier_transfer(1, Window(1, 15)),
    "large-index": lambda: large_index_transfer("down:A:w*2", o("w*2+1"), 1,
                                                Window(1, 40)),
}


@pytest.mark.parametrize("variant, key, value, reason", [
    ("shift", "family", "B:2", "recorded family disagrees"),
    ("shift", "family", "A:7", "recorded family disagrees"),
    ("shift", "dropped", [1, 3], "recorded dropped disagrees"),
    ("shift", "closure_checked", 0, "recorded closure_checked disagrees"),
    ("shift", "assume_dense", "yes", "recorded assume_dense disagrees"),
    ("shift", "assume_dense", 0, "recorded assume_dense disagrees"),
    ("shift", "xi", "3", "levels 0-2"),
    ("shift", "xi", 1, "recorded xi disagrees"),
    ("shift", "variant", "walked", "unknown transfer variant"),
    ("large-index", "family", "B:2", "recorded family disagrees"),
    ("large-index", "family", "A:7", "recorded family disagrees"),
    ("large-index", "target", 7, "recorded target disagrees"),
    ("large-index", "target", 8.0, "recorded target disagrees"),
    ("large-index", "spread_checked", 1, "recorded spread_checked disagrees"),
    ("large-index", "sigma", "w", "below the boundary"),
    pytest.param("large-index", "sigma", "w^(" * 5000, "recursion",
                 id="large-index-sigma-nested"),
    ("large-index", "into", "down:A:2", "escapes the target predicate"),
    ("large-index", "extra", None, "recorded extra disagrees"),
])
def test_transfer_recheck_rebuilds_every_field(variant, key, value, reason):
    good = TRANSFER_BASES[variant]()
    assert recheck(good) == (True, "ok")
    ok, why = recheck(_resigned(good, key, value))
    assert not ok and reason in why, why


@pytest.mark.parametrize("dense", [False, True])
def test_transfer_density_flag_any_bool_passes(dense):
    good = schreier_transfer(1, Window(1, 15))
    assert verify_certificate(_resigned(good, "assume_dense", dense)) == (
        True, "ok")


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


def test_large_index_kept_subsets_carry_residuals(monkeypatch):
    # the B:2 keep grows each kept subset by one descend, so no star test
    # walks from its root, w^2; the down:F:1 predicate walks from w
    calls = []
    real = families.residual_after
    root = omega_power(2)
    monkeypatch.setattr(families, "residual_after",
                        lambda xi, s: (xi == root and calls.append(s))
                        or real(xi, s))
    cert = large_index_transfer("down:F:1", o("w^2+5"), 2, Window(1, 24), 5)
    assert cert.witness == (7, 8, 9, 10, 11)
    assert calls == []


@pytest.mark.parametrize("level", [0, 1, 2])
def test_spread_fold_meets_each_level_member_once(level):
    # the B:level frontier folded over the positions grows exactly the
    # F:level members (F:a = star(B:a) without the empty set)
    from schreier.families import enumerate_union_schreier
    L = (3, 5, 6, 8, 9, 10, 12, 13, 15, 16, 18, 20)
    members = enumerate_union_schreier(level, Window(1, len(L)))
    seen = []
    assert search._spread_into(level, L, lambda t: seen.append(t) or True) == (
        len(members), None)
    assert sorted(seen) == sorted(tuple(L[i - 1] for i in s) for s in members)
    # a predicate refusing spreads of three or more stops at such a member
    checked, escaped = search._spread_into(level, L, lambda t: len(t) < 3)
    assert (escaped is None) == all(len(s) < 3 for s in members)
    if escaped is not None:
        assert escaped in members and len(escaped) == 3 and checked < len(members)


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


TRANSFER_PREDICATES = ["all", "down:A:1", "down:A:2", "down:A:w", "down:F:1",
                       "down:B:1", "member:F:1"]


@settings(max_examples=100, deadline=None)
@given(desc=st.sampled_from(TRANSFER_PREDICATES), level=st.integers(0, 2),
       above=st.sampled_from([None, "1", "2", "w^(level+1)"]),
       window=thinned_grounds.filter(lambda w: len(w.ground) >= 5),
       target=st.integers(1, 4))
def test_large_index_matches_candidate_loop(desc, level, above, window, target):
    # above picks the index: infinity, the boundary w^level + 1, just
    # above it, or w^(level+1)
    sigma = None if above is None else o(
        f"w^{level + 1}" if above.startswith("w") else f"w^{level}+{above}")
    try:
        want = oracle_large_index_transfer(desc, sigma, level, window, target)
    except ValueError:  # window too small for the route
        with pytest.raises(ValueError, match="too small"):
            large_index_transfer(desc, sigma, level, window, target)
        return
    assert large_index_transfer(desc, sigma, level, window, target) == want


def test_large_index_past_the_old_candidate_budget():
    cert = large_index_transfer("down:F:1", o("w^2+5"), 2, Window(1, 24),
                                target=5)
    assert cert.witness == (7, 8, 9, 10, 11)
    assert verify_certificate(cert) == (True, "ok")


def test_large_index_route_forgery_rejected():
    good = large_index_transfer("all", None, 1, Window(1, 20))
    p = good.payload_dict()
    p["route"] = "lift"
    forged = make_certificate("Transfer", good.family, good.window,
                              good.witness, p)
    ok, reason = recheck(forged)
    assert not ok and "route" in reason


# -- the frontier bound ------------------------------------------------
#
# A frontier refuses to hold more than families._MAX_KEPT kept subsets, so
# a search or a re-check that would need more raises or is refused instead
# of exhausting memory.  The bound is lowered here so the refusals come
# fast; every subset of a 13-element set is an A:40 star set, 2^13 > 4096.


@pytest.fixture
def small_frontier(monkeypatch):
    monkeypatch.setattr(families, "_MAX_KEPT", 4096)


def test_searches_refuse_past_the_frontier_bound(small_frontier):
    spec, w = parse_family("A:40"), Window(1, 40)
    with pytest.raises(ValueError, match="more than 4096 kept subsets"):
        homogenize(spec, get_coloring("parity-sum"), w, 13)
    with pytest.raises(ValueError, match="more than 4096 kept subsets"):
        hereditary_dichotomy("all", spec, w, target=13)


@pytest.mark.parametrize("level", [1, 2])
def test_forged_large_index_transfer_refused_at_the_bound(small_frontier,
                                                          level):
    # the spread side of 5..64 folds every F:level member over 60 positions
    forged = make_certificate(
        "Transfer", f"B:{level}", Window(1, 70), tuple(range(5, 65)),
        {"variant": "large-index", "into": "all", "sigma": "infinity",
         "xi": str(level), "route": "direct", "target": 60,
         "spread_checked": 0})
    assert verify_certificate(forged) == (False, "more than 4096 kept subsets")


def test_frontier_refusal_peaks_no_higher_than_the_last_step_that_fits(
        small_frontier):
    # the refusing step counts its kept children before it grows them: at
    # target 13 the A:40 frontier would pass 4096 sets, and refusing it
    # allocates no more than the search to target 12, which fits; the
    # grown list built before the check doubled that peak
    spec, w = parse_family("A:40"), Window(1, 40)
    coloring = get_coloring("parity-sum")

    def peak(target):
        tracemalloc.start()
        try:
            homogenize(spec, coloring, w, target)
        except ValueError as refused:
            assert str(refused) == "more than 4096 kept subsets"
        else:
            assert target == 12
        out = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return out

    peak(12), peak(13)  # warm the ordinal memos and the tuple free lists
    fits, refused = peak(12), peak(13)
    assert refused < 1.25 * fits, (fits, refused)
