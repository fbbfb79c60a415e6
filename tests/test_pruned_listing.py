"""Pruned prefix walks against the subset filters they replace.

Two oracles test every subset of a ground list: the member filter that
``enumerate_family`` and ``section`` ran for the kinds that are not system
families, and the Dichotomy verifier's loop over every subset of the
witness.  The library now lists only the sets a prefix-closed test keeps;
these tests hold it to the oracles' answers, and count that the subsets it
skips are really skipped.  The Dichotomy and Homogeneous checks' own
folds, which the search rules replaced, are kept as oracles too, and so
are the per-kind checks that rerunning the search replaced.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

import schreier.families as families
import schreier.finsets as finsets
import schreier.search as search
from schreier.certificates import (CERT_KINDS, hereditary_predicate,
                                   make_certificate, transcript_digest,
                                   verify_certificate)
from schreier.cli import main
from schreier.colorings import get_coloring, hash_coloring
from schreier.families import (FamilySpec, _cap, _down_test, _kept,
                               check_sperner, enumerate_family, parse_family,
                               section)
from schreier.finsets import EMPTY, Window, as_finset, subsets_of
from schreier.ordinals import ZERO, parse_ordinal
from schreier.search import (detect_chain, hereditary_dichotomy, homogenize,
                             rank_separation, schreier_transfer,
                             sperner_refine)


# -- oracles ------------------------------------------------------------


def filter_members(spec, ground, head=EMPTY):
    """Every t over ground, shortlex, with head + t a member."""
    return [t for t in subsets_of(ground) if spec.member(head + t)]


def filter_failures(cert):
    """Every subset of the witness the Dichotomy check rejects, shortlex."""
    spec = parse_family(cert.family)
    hered = hereditary_predicate(cert.payload_dict()["hereditary"])
    if cert.kind == "DichotomyBranchA":
        down = _down_test(spec)
        return [t for t in subsets_of(cert.witness)
                if down(t) and not hered(t)]
    return [t for t in subsets_of(cert.witness)
            if hered(t) and not (spec.star(t) and not spec.member(t))]


# -- custom kinds -------------------------------------------------------


def _odd_triple(s):
    return len(s) == 3 and sum(s) % 2 == 1


def _odd_triple_star(s):
    # any shorter set extends to an odd-sum triple over the ground line
    return len(s) < 3 or _odd_triple(s)


ODD_TRIPLE = FamilySpec("custom", predicate=_odd_triple,
                        star_predicate=_odd_triple_star, name="odd-triple")
ODD_TRIPLE_BARE = FamilySpec("custom", predicate=_odd_triple,
                             name="odd-triple-bare")

PANEL = [parse_family(t) for t in
         ("F:0", "F:1", "F:2", "F:3", "exL", "exR", "ex112")]
PANEL += [ODD_TRIPLE, ODD_TRIPLE_BARE]


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(PANEL),
       ground=st.sets(st.integers(1, 14), min_size=1, max_size=12))
def test_listing_matches_subset_filter(spec, ground):
    g = tuple(sorted(ground))
    w = Window(g[0], g[-1], g)
    assert enumerate_family(spec, w) == filter_members(spec, g)
    for m in g:
        tail = tuple(x for x in g if x > m)
        assert section(spec, m, w) == filter_members(spec, tail, (m,)), m


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(PANEL[:-1]),
       ground=st.sets(st.integers(1, 14), max_size=10),
       head=st.sampled_from([EMPTY, (1,), (2,), (1, 3)]))
def test_kept_sets_is_the_filtered_star(spec, ground, head):
    # the frontier folded over head + g grows each kept set once; those
    # that start with head are the star sets above it
    g = tuple(x for x in sorted(ground) if not head or x > head[-1])
    grow, frontier = _kept(spec)
    got = [EMPTY] if spec.star(EMPTY) else []
    for x in head + g:
        grown, frontier = grow(frontier, x)
        got += [t for t, _ in grown]
    assert len(set(got)) == len(got)
    n = len(head)
    assert {t[n:] for t in got if t[:n] == head} == {
        t for t in subsets_of(g) if spec.star(head + t)}


@pytest.mark.parametrize("text", ["F:1", "exL", "exR", "ex112"])
def test_listing_skips_the_subset_filter(monkeypatch, text):
    def refuse(*_, **__):
        raise AssertionError("every subset was listed")

    monkeypatch.setattr(families, "subsets_of", refuse)
    monkeypatch.setattr(finsets, "subsets_of", refuse)
    spec = parse_family(text)
    g = tuple(range(1, 13))
    assert enumerate_family(spec, Window(1, 12)) == filter_members(spec, g)
    assert section(spec, 2, Window(1, 12)) == filter_members(spec, g[2:],
                                                             (2,))


def test_custom_kind_without_star_filters(monkeypatch):
    seen = []
    real = families.subsets_of
    monkeypatch.setattr(families, "subsets_of",
                        lambda g: seen.append(g) or real(g))
    assert enumerate_family(ODD_TRIPLE_BARE, Window(1, 6)) == [
        t for t in subsets_of(range(1, 7)) if _odd_triple(t)]
    assert seen == [(1, 2, 3, 4, 5, 6)]


def test_enum_exr_counts_fibonacci(capsys):
    # members of exR on [1,n], |s| = min s, number Fib(n)
    assert main(["enum", "--family", "exR", "--window", "1..25",
                 "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 75025


# -- the Dichotomy verifier --------------------------------------------


def _fixed():
    """Dichotomy certificates of both branches and every predicate form."""
    made = [
        make_certificate("DichotomyBranchB", "exL", Window(1, 30),
                         (1, 2, 3, 4, 5, 6),
                         {"hereditary": "down:F:1", "branch": "B",
                          "target": 6}),
        make_certificate("DichotomyBranchB", "A:1", Window(1, 10), (1, 2, 3),
                         {"hereditary": "member:A:1", "branch": "B",
                          "target": 3}),
        make_certificate("DichotomyBranchA", "exR", Window(1, 30),
                         (1, 2, 3, 4, 5, 6),
                         {"hereditary": "down:exL", "branch": "A",
                          "target": 6}),
        make_certificate("DichotomyBranchA", "exL", Window(1, 30),
                         (1, 2, 3, 4),
                         {"hereditary": "down:F:1", "branch": "A",
                          "target": 4}),
        make_certificate("DichotomyBranchB", "A:w", Window(1, 20),
                         (2, 3, 4, 5, 6, 7),
                         {"hereditary": "all", "branch": "B", "target": 6}),
    ]
    for desc, fam, hi, target in [
            ("all", "A:2", 12, 5), ("down:A:1", "A:w", 20, 6),
            ("down:A:2", "A:w", 14, 6), ("down:F:1", "exL", 30, 6),
            ("down:exL", "exR", 30, 8), ("member:F:1", "A:w", 16, 6),
            ("member:A:1", "A:2", 12, 5), ("down:A:w*2", "A:w+2", 20, 6)]:
        made += hereditary_dichotomy(desc, parse_family(fam),
                                     Window(1, hi), target)
    for xi1, xi2, hi, target in [("1", "2", 12, 6), ("2", "w", 20, 6),
                                 ("w", "w^2", 20, 6), ("w", "w*2", 20, 6)]:
        made.append(rank_separation(parse_ordinal(xi1), parse_ordinal(xi2),
                                    Window(1, hi), target))
    return made


def _mutants(cert):
    """The certificate re-made on every witness one element away, each
    with its own size as the target."""
    w, lo, hi = cert.witness, cert.window.lo, cert.window.hi
    near = {w[:i] + w[i + 1:] for i in range(len(w))}
    near |= {tuple(sorted(w + (x,))) for x in range(lo, hi + 1)
             if x not in w}
    near |= {tuple(sorted(w[:i] + (w[i] + 1,) + w[i + 1:]))
             for i in range(len(w)) if w[i] + 1 not in w}
    return [make_certificate(cert.kind, cert.family, cert.window, v,
                             dict(cert.payload_dict(), target=len(v)))
            for v in sorted(near)]


def test_dichotomy_verifier_matches_subset_oracle():
    base = _fixed()
    assert {c.kind for c in base} == {"DichotomyBranchA", "DichotomyBranchB"}
    rejected = 0
    for cert in base + [m for c in base for m in _mutants(c)]:
        failures = filter_failures(cert)
        ok, reason = verify_certificate(cert)
        assert ok == (not failures), (cert, reason)
        if failures:
            # the walk names the lex-first failing set
            assert reason.startswith(f"{min(failures)} "), (cert, reason)
            rejected += 1
    assert rejected > 0


def test_dichotomy_verifier_lists_only_the_subset_closure(monkeypatch):
    # 20 elements: the subset filter made 2^20 = 1,048,576 closure tests,
    # while A:2's closure holds 211 sets there; the frontier grows each of
    # them once
    calls = []
    real = search._kept

    def counting(keep):
        grow, root = real(keep)

        def counted(frontier, e):
            grown, frontier = grow(frontier, e)
            calls.extend(grown)
            return grown, frontier
        return counted, root

    monkeypatch.setattr(search, "_kept", counting)
    cert = make_certificate("DichotomyBranchA", "A:2", Window(21, 40),
                            tuple(range(21, 41)),
                            {"hereditary": "all", "branch": "A",
                             "target": 20})
    assert verify_certificate(cert) == (True, "ok")
    assert len(calls) < 2000


# -- the checks against the folds they replace ----------------------------
#
# The Dichotomy and Homogeneous checks once kept their own rules: a
# frontier fold with its own member-form keep, and a loop over the members
# that enumerate_family lists.  Both now fold the search's rule; the old
# loops stay here as oracles for the verdicts.


def old_dichotomy_check(cert):
    """The Dichotomy check's own frontier fold, before it used _branch."""
    branch = cert.kind[-1]
    desc = cert.payload_dict().get("hereditary", "")
    try:
        spec = parse_family(cert.family)
        if isinstance(desc, str) and desc.startswith("member:"):
            keep = parse_family(desc[len("member:"):])
            hered = keep.member
        else:
            hered = keep = hereditary_predicate(desc)
        if branch == "A":
            _down_test(spec)
            keep = spec
        grow, frontier = _kept(keep)

        def kept_sets(frontier):
            if isinstance(keep, FamilySpec) or keep(EMPTY):
                yield EMPTY, None
            for x in cert.witness:
                grown, frontier = grow(frontier, x)
                yield from grown

        for t, r in kept_sets(frontier):
            if branch == "A" and not hered(t):
                return False, f"{t} is in the subset closure but outside the target"
            if (branch == "B" and (hered(t) if r is None else r is ZERO)
                    and not (spec.star(t) and not spec.member(t))):
                return False, f"{t} is not a proper initial segment of a member"
    except ValueError as e:
        return False, str(e)
    return True, "ok"


def old_homogeneous_check(cert):
    """The Homogeneous check's loop over the listed members, with
    homogenize's colour 1 where the witness holds no coloured member."""
    p, w = cert.payload_dict(), cert.witness
    members = enumerate_family(parse_family(cert.family),
                               Window(w[0], w[-1], w)) if w else []
    seed = int(p["coloring"][len("hash["):-1])
    coloring = hash_coloring(seed, p.get("colors", 2))
    colors = {coloring(s) for s in members if s} or {1}
    return colors == {p["color"]}


def test_dichotomy_check_matches_its_old_fold():
    certs = _fixed()
    certs += [m for c in certs for m in _mutants(c)]
    verdicts = [verify_certificate(c) for c in certs]
    assert verdicts == [old_dichotomy_check(c) for c in certs]
    assert 0 < sum(ok for ok, _ in verdicts) < len(certs)


HOMOGENEOUS_FAMILIES = ["A:0", "A:2", "A:w", "F:1", "exL", "ex112"]


@pytest.mark.parametrize("colors", [2, 3])
@pytest.mark.parametrize("text", HOMOGENEOUS_FAMILIES)
def test_homogeneous_check_matches_its_old_listing(text, colors):
    certs = [homogenize(parse_family(text), hash_coloring(seed, colors),
                        Window(1, 16), 4) for seed in range(4)]
    certs = [c for c in certs if c is not None]
    assert certs
    verdicts = []
    for cert in certs + [m for c in certs for m in _mutants(c)]:
        ok, reason = verify_certificate(cert)
        assert ok == old_homogeneous_check(cert), (cert, reason)
        verdicts.append(ok)
    # A:0's only member is the empty set, which is never coloured
    assert all(verdicts) if text == "A:0" else not all(verdicts)


# -- verify against the per-kind checks it replaced ------------------------
#
# verify_certificate once kept a hand-written check per kind, which read
# the recorded target and the fields its search writes one by one.  It now
# reruns the search on the witness; the old checks stay here as oracles.


def old_verify_homogeneous(cert, coloring):
    p = cert.payload_dict()
    color = p.get("color")
    name = p.get("coloring", "")
    colors = p.get("colors", 2)
    if p.get("order", "lex") != "lex":
        return False, f"order must be 'lex', got {p.get('order')!r}"
    if type(color) is not int:
        return False, f"color must be an integer, got {color!r}"
    if not isinstance(name, str):
        return False, f"coloring must be a name, got {name!r}"
    if coloring is None:
        if name.startswith("external:"):
            return False, "external coloring requires a caller-supplied oracle"
        try:
            if name.startswith("hash[") and name.endswith("]"):
                coloring = hash_coloring(int(name[5:-1]), colors)
            else:
                coloring = get_coloring(name, int(p.get("seed", 0)))
        except (TypeError, ValueError) as e:
            return False, str(e)
    if type(colors) is not int or colors != coloring.colors:
        return False, (f"colors {colors!r} disagrees with {coloring.name}'s "
                       f"palette of {coloring.colors}")
    w = cert.witness
    try:
        _cap(len(w))
        admit, root = search._homogenize_admit(parse_family(cert.family),
                                               coloring)
        s = (color, root[1])
        for i, x in enumerate(w):
            ok, s = admit(w[:i], x, s)
            if not ok:
                return False, f"member {s} has color {coloring(s)}, expected {color}"
    except ValueError as e:
        return False, str(e)
    return True, "ok"


def old_verify_dichotomy(cert):
    p = cert.payload_dict()
    branch, desc = cert.kind[-1], p.get("hereditary", "")
    if p.get("branch") != branch:
        return False, f"branch {p.get('branch')!r} disagrees with {cert.kind}"
    try:
        _cap(len(cert.witness))
        spec = parse_family(cert.family)
        step, state = search._branch(branch, desc, spec)
        if "op" not in p:
            search._probe_hereditary(desc)
        elif not (p["op"] == "rank-separation" and branch == "B"
                  and spec.kind == "A" and desc.startswith("member:A:")):
            return False, f"op {p['op']!r} does not fit {cert.kind} on {desc}"
        for x in cert.witness:
            state = step(state, x)
    except ValueError as e:
        return False, str(e)
    if state.__class__ is list:
        return True, "ok"
    if branch == "A":
        return False, f"{state} is in the subset closure but outside the target"
    return False, f"{state} is not a proper initial segment of a member"


def old_verify_sperner(cert):
    if cert.payload_dict().get("op") != "sperner-refine":
        return False, "op must be 'sperner-refine'"
    w = cert.witness
    try:
        spec = parse_family(cert.family)
        ok, pair = (check_sperner(spec, Window(w[0], w[-1], w)) if w
                    else (True, None))
    except ValueError as e:
        return False, str(e)
    if not ok:
        return False, "members {} and {} are nested".format(*pair)
    return True, "ok"


def old_verify_chain(cert):
    p = cert.payload_dict()
    try:
        hered = hereditary_predicate(p.get("hereditary", ""))
        search._probe_hereditary(p["hereditary"])
    except ValueError as e:
        return False, str(e)
    if cert.family != p["hereditary"]:
        return False, "family disagrees with the recorded predicate"
    try:
        links = [as_finset(s) for s in p.get("chain", ())]
    except (TypeError, ValueError) as e:
        return False, f"chain must be a list of sets: {e}"
    if type(p.get("depth")) is not int or p.get("depth") != len(links):
        return False, "chain length disagrees with recorded depth"
    if not links:
        return False, "empty chain"
    for s in links:
        if not hered(s):
            return False, f"{s} is outside the family"
    for a, b in zip(links, links[1:]):
        if not (len(a) < len(b) and b[:len(a)] == a):
            return False, f"{a} is not a proper initial segment of {b}"
    if links[-1] != cert.witness:
        return False, "witness disagrees with final chain link"
    return True, "ok"


def old_verify_certificate(cert, coloring=None):
    """The hash, the window, the recorded target, then the kind's check;
    a Transfer was already rebuilt by its search."""
    digest = transcript_digest(cert.kind, cert.family, cert.window,
                               cert.witness, cert.payload)
    if digest != cert.transcript_hash:
        return False, "transcript hash mismatch"
    if not cert.window.contains_set(cert.witness):
        return False, "witness leaves the window's ground"
    target = cert.payload_dict().get("target")
    if cert.kind not in ("Chain", "Transfer") and (
            type(target) is not int or target != len(cert.witness)):
        return False, f"witness size {len(cert.witness)} != target {target!r}"
    if cert.kind == "Homogeneous":
        return old_verify_homogeneous(cert, coloring)
    if cert.kind.startswith("Dichotomy"):
        return old_verify_dichotomy(cert)
    if cert.kind == "SpernerRefined":
        return old_verify_sperner(cert)
    if cert.kind == "Chain":
        return old_verify_chain(cert)
    return search.recheck(cert)


def _searched():
    """Certificates of all six searches over a panel of inputs."""
    made = []
    for text in ("A:0", "A:2", "A:w", "F:1", "exL", "ex112"):
        spec = parse_family(text)
        made += [homogenize(spec, hash_coloring(seed, colors), Window(1, 14),
                            4) for seed in range(3) for colors in (2, 3)]
        made += [sperner_refine(spec, w, 5) for w in (
            Window(1, 14), Window(1, 16, (1, 2, 4, 5, 7, 8, 10, 11, 13)))]
    for desc, fam, hi, target in [
            ("all", "A:2", 12, 5), ("down:A:1", "A:w", 20, 6),
            ("down:F:1", "exL", 30, 6), ("down:exL", "exR", 30, 8),
            ("member:F:1", "A:w", 16, 6), ("member:A:1", "A:2", 12, 5)]:
        made += hereditary_dichotomy(desc, parse_family(fam), Window(1, hi),
                                     target)
    made += [rank_separation(parse_ordinal(a), parse_ordinal(b),
                             Window(1, 20), 6)
             for a, b in [("1", "2"), ("2", "w"), ("w", "w^2")]]
    made += [detect_chain(desc, Window(1, 12), depth) for desc, depth in [
        ("down:A:3", 4), ("all", 5), ("down:exL", 6), ("member:F:1", 4)]]
    made += [schreier_transfer(level, Window(1, 12)) for level in range(3)]
    return [c for c in made if c is not None]


def _uncoloured_homogeneous(cert):
    """A Homogeneous record whose witness holds no coloured member, with
    a colour other than the 1 homogenize writes there."""
    w = cert.witness
    return (cert.kind == "Homogeneous" and cert.payload_dict()["color"] != 1
            and not any(enumerate_family(parse_family(cert.family),
                                         Window(w[0], w[-1], w))))


# the records the old checks took and no search writes, each by name
NO_SEARCH_WRITES = {"uncoloured-homogeneous": _uncoloured_homogeneous}


def test_verify_matches_the_old_checks():
    base = _searched()
    assert {c.kind for c in base} == set(CERT_KINDS)
    differ = {name: 0 for name in NO_SEARCH_WRITES}
    certs = base + [m for c in base for m in _mutants(c)]
    for cert in certs:
        ok, reason = verify_certificate(cert)
        old_ok, old_reason = old_verify_certificate(cert)
        if ok == old_ok:
            continue
        # verify refuses; the old check took a record no search writes
        assert old_ok and not ok, (cert, reason, old_reason)
        names = [n for n, test in NO_SEARCH_WRITES.items() if test(cert)]
        assert names, (cert, reason)
        differ[names[0]] += 1
    assert differ == {"uncoloured-homogeneous": 4}
    assert all(verify_certificate(c) == (True, "ok") for c in base)
    assert 0 < sum(verify_certificate(c)[0] for c in certs) < len(certs)
