"""Certificate plumbing: hash binding, JSON round-trips, semantic re-checks."""

import functools
import json
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from schreier import certificates, finsets, search
from schreier.certificates import (
    CERT_KINDS,
    Certificate,
    CertificateError,
    from_json,
    hereditary_predicate,
    make_certificate,
    to_json,
    transcript_digest,
    verify_certificate,
)
from schreier.colorings import Coloring, get_coloring, hash_coloring
from schreier.families import FamilySpec, parse_family
from schreier.finsets import Window
from schreier.ordinals import parse_ordinal
from schreier.search import (detect_chain, hereditary_dichotomy, homogenize,
                             large_index_transfer, rank_separation,
                             schreier_transfer, sperner_refine)


def good_homogeneous():
    # all pairs of odds have even sum
    return make_certificate(
        "Homogeneous", "A:2", Window(1, 20), (1, 3, 5, 7),
        {"coloring": "parity-sum", "color": 1, "target": 4, "order": "lex"})


def test_roundtrip_and_verify():
    cert = good_homogeneous()
    ok, reason = verify_certificate(cert)
    assert ok, reason
    again = from_json(to_json(cert))
    assert again == cert
    assert verify_certificate(again)[0]


def test_mutated_witness_rejected_by_hash():
    cert = good_homogeneous()
    d = cert.to_json_dict()
    d["witness"] = [1, 3, 5, 9]
    mutated = from_json(json.dumps(d))
    ok, reason = verify_certificate(mutated)
    assert not ok and reason == "transcript hash mismatch"


def test_resigned_forgery_rejected_semantically():
    # valid hash over a wrong claim: {1,2} has odd sum, color 2
    cert = make_certificate(
        "Homogeneous", "A:2", Window(1, 20), (1, 2, 3, 4),
        {"coloring": "parity-sum", "color": 1, "target": 4, "order": "lex"})
    ok, reason = verify_certificate(cert)
    assert not ok and "color" in reason


def test_wrong_target_rejected():
    cert = make_certificate(
        "Homogeneous", "A:2", Window(1, 20), (1, 3, 5),
        {"coloring": "parity-sum", "color": 1, "target": 4, "order": "lex"})
    ok, reason = verify_certificate(cert)
    assert not ok and "target" in reason


def _counted_certificates():
    parity = get_coloring("parity-sum")
    return {
        "branch-B": hereditary_dichotomy("down:F:1", parse_family("exL"),
                                         Window(1, 30), target=8)[0],
        "sperner": sperner_refine(parse_family("ex112"), Window(1, 25), 6),
        "homogeneous": homogenize(parse_family("A:2"), parity,
                                  Window(1, 20), 4),
        "singleton": homogenize(parse_family("A:2"), parity,
                                Window(1, 20), 1),
        "chain": detect_chain("down:A:3", Window(1, 12), 4),
    }


@pytest.mark.parametrize("name,key,forged", [
    ("branch-B", "target", 3), ("branch-B", "target", 9),
    ("sperner", "target", 2), ("sperner", "target", 6.0),
    ("homogeneous", "target", 4.0), ("singleton", "target", True),
    ("chain", "depth", 4.0), ("chain", "depth", "4")])
def test_recorded_count_must_be_the_integer_size(name, key, forged):
    # bool and float counts compare equal to ints, so the type is checked
    cert = _counted_certificates()[name]
    assert verify_certificate(cert) == (True, "ok")
    payload = cert.payload_dict()
    forgery = make_certificate(cert.kind, cert.family, cert.window,
                               cert.witness, dict(payload, **{key: forged}))
    ok, reason = verify_certificate(forgery)
    assert not ok and key in reason, reason


def test_external_coloring_needs_oracle():
    cert = make_certificate(
        "Homogeneous", "A:2", Window(1, 10), (2, 4, 6, 8),
        {"coloring": "external:somecmd", "color": 1, "target": 4,
         "order": "lex"})
    ok, reason = verify_certificate(cert)
    assert not ok and "oracle" in reason
    oracle = Coloring(lambda s: 1, name="external:somecmd")
    ok, _ = verify_certificate(cert, coloring=oracle)
    assert ok


def test_hash_name_embeds_seed():
    c = get_coloring("hash", 5)
    assert c.name == "hash[5]"
    # find a monochromatic 2-set for this coloring so the cert verifies
    cert = make_certificate(
        "Homogeneous", "A:1", Window(1, 9), (1, 2),
        {"coloring": c.name, "color": c((1,)), "target": 2, "order": "lex"})
    ok, reason = verify_certificate(cert)
    assert ok == (c((1,)) == c((2,))), reason


def three_colour_cert(seed):
    return homogenize(parse_family("A:2"), hash_coloring(seed, colors=3),
                      Window(1, 18), 4)


def test_three_colour_certificates_verify_offline():
    for seed in range(20):
        cert = three_colour_cert(seed)
        assert cert.payload_dict()["colors"] == 3
        assert verify_certificate(from_json(to_json(cert))) == (True, "ok"), seed


@pytest.mark.parametrize("colors", [0, True, "3"])
def test_forged_palette_rejected(colors):
    cert = three_colour_cert(0)
    forged = make_certificate(
        "Homogeneous", cert.family, cert.window, cert.witness,
        dict(cert.payload_dict(), colors=colors))
    ok, reason = verify_certificate(forged)
    assert not ok and "colors" in reason


def test_unreadable_hash_seed_rejected():
    cert = make_certificate(
        "Homogeneous", "A:1", Window(1, 9), (1, 2),
        {"coloring": "hash[x]", "color": 1, "target": 2})
    assert not verify_certificate(cert)[0]


def test_unreadable_registry_seed_rejected():
    cert = make_certificate(
        "Homogeneous", "A:2", Window(1, 20), (1, 3, 5, 7),
        {"coloring": "parity-sum", "color": 1, "target": 4, "seed": [1]})
    ok, reason = verify_certificate(cert)
    assert not ok and reason


@pytest.mark.parametrize("name", [["parity-sum"], 7, None, {"a": 1}])
def test_non_string_coloring_rejected(name):
    cert = make_certificate(
        "Homogeneous", "A:2", Window(1, 20), (1, 3, 5, 7),
        {"coloring": name, "color": 1, "target": 4})
    ok, reason = verify_certificate(cert)
    assert not ok and "coloring" in reason


def test_hereditary_predicate_forms():
    assert hereditary_predicate("all")((4, 9))
    down = hereditary_predicate("down:A:2")
    assert down((7,)) and down(()) and not down((1, 2, 3))
    mem = hereditary_predicate("member:A:2")
    assert mem((1, 2)) and not mem((5,))
    with pytest.raises(CertificateError):
        hereditary_predicate("upward:A:2")


def test_dichotomy_verifiers():
    # branch B: every set with |t| <= min t extends properly inside exL
    certB = make_certificate(
        "DichotomyBranchB", "exL", Window(1, 30), (1, 2, 3, 4, 5, 6),
        {"hereditary": "down:F:1", "branch": "B", "target": 6})
    ok, reason = verify_certificate(certB)
    assert ok, reason
    # forged branch B: singletons are full members of the singleton family
    bad = make_certificate(
        "DichotomyBranchB", "A:1", Window(1, 10), (1, 2, 3),
        {"hereditary": "member:A:1", "branch": "B", "target": 3})
    ok, reason = verify_certificate(bad)
    assert not ok

    certA = make_certificate(
        "DichotomyBranchA", "exR", Window(1, 30), (1, 2, 3, 4, 5, 6),
        {"hereditary": "down:exL", "branch": "A", "target": 6})
    ok, reason = verify_certificate(certA)
    assert ok, reason
    badA = make_certificate(
        "DichotomyBranchA", "exL", Window(1, 30), (1, 2, 3, 4),
        {"hereditary": "down:F:1", "branch": "A", "target": 4})
    ok, reason = verify_certificate(badA)
    assert not ok


def test_sperner_verifier():
    good = make_certificate(
        "SpernerRefined", "A:3", Window(1, 10), (1, 2, 3, 4, 5, 6),
        {"target": 6, "op": "sperner-refine"})
    assert verify_certificate(good)[0]
    # {2,3,4} and {1,2,3,4,5,6} are nested members of the mixed family
    bad = make_certificate(
        "SpernerRefined", "ex112", Window(1, 12), (1, 2, 3, 4, 5, 6),
        {"target": 6, "op": "sperner-refine"})
    ok, reason = verify_certificate(bad)
    assert not ok and "nested" in reason


def test_sperner_verifier_empty_witness():
    # sperner_refine refuses target 0, so no search writes this record
    empty = make_certificate("SpernerRefined", "A:3", Window(1, 10), (),
                             {"target": 0, "op": "sperner-refine"})
    assert verify_certificate(empty) == (
        False, "target must be an integer >= 1, got 0")


# 40 odd numbers below 80: listing their subsets would walk 2^40 sets
WIDE = tuple(range(1, 80, 2))
WIDE_CLAIMS = [
    ("Homogeneous", {"coloring": "parity-sum", "color": 1, "target": 40,
                     "order": "lex"}),
    ("DichotomyBranchA", {"hereditary": "all", "target": 40, "branch": "A"}),
    ("DichotomyBranchB", {"hereditary": "down:A:1", "target": 40,
                          "branch": "B"}),
    ("SpernerRefined", {"target": 40, "op": "sperner-refine"}),
]


@pytest.mark.parametrize("kind,payload", WIDE_CLAIMS)
def test_wide_witness_refused_before_listing_subsets(kind, payload):
    cert = make_certificate(kind, "A:2", Window(1, 80), WIDE, payload)
    start = time.perf_counter()
    ok, reason = verify_certificate(cert)
    assert time.perf_counter() - start < 1
    assert not ok and "40 elements" in reason and "cap 25" in reason


def test_homogeneous_verifier_lists_members_only():
    # 25 odd numbers: A:2 has 300 members there among 2^25 subsets, and
    # every pair of odds has an even sum
    odds = tuple(range(1, 50, 2))
    cert = make_certificate(
        "Homogeneous", "A:2", Window(1, 49), odds,
        {"coloring": "parity-sum", "color": 1, "target": 25, "order": "lex"})
    start = time.perf_counter()
    assert verify_certificate(cert) == (True, "ok")
    assert time.perf_counter() - start < 1


def test_homogeneous_verifier_edge_witnesses():
    # the empty set is A:0's member and is never coloured, so homogenize
    # writes colour 1 there; it refuses an empty witness, at target 0
    def cert(family, witness, color):
        return make_certificate(
            "Homogeneous", family, Window(1, 9), witness,
            {"coloring": "parity-sum", "color": color,
             "target": len(witness), "order": "lex"})
    assert verify_certificate(cert("A:0", (1, 2, 3), 1)) == (True, "ok")
    assert verify_certificate(cert("A:0", (1, 2, 3), 7)) == (
        False, "recorded color disagrees with the re-check")
    assert verify_certificate(cert("A:2", (), 7)) == (
        False, "target must be an integer >= 1, got 0")
    ok, reason = verify_certificate(cert("A:2", (1, 2, 3), 1))
    assert not ok and reason.startswith("member (1, 2) has color")


def test_wide_chain_and_transfer_witnesses_still_verify():
    chain = detect_chain("all", Window(1, 40), 31)
    transfer = schreier_transfer(1, Window(1, 40))
    assert len(chain.witness) == 30 and len(transfer.witness) == 38
    assert verify_certificate(chain) == (True, "ok")
    assert verify_certificate(transfer) == (True, "ok")


def test_chain_verifier():
    links = [[], [1], [1, 2], [1, 2, 3]]
    good = make_certificate(
        "Chain", "down:A:3", Window(1, 10), (1, 2, 3),
        {"hereditary": "down:A:3", "depth": 4, "chain": links})
    assert verify_certificate(good)[0]
    broken = make_certificate(
        "Chain", "down:A:3", Window(1, 10), (1, 2, 4),
        {"hereditary": "down:A:3", "depth": 3,
         "chain": [[1], [1, 3], [1, 2, 4]]})
    ok, reason = verify_certificate(broken)
    assert not ok and "witness" in reason
    shallow = make_certificate(
        "Chain", "down:A:3", Window(1, 10), (1, 2),
        {"hereditary": "down:A:3", "depth": 4, "chain": [[1], [1, 2]]})
    ok, reason = verify_certificate(shallow)
    assert not ok and "depth" in reason


def rejected_both_ways(cert):
    """The verdict on cert and on its JSON round-trip; each must be a
    rejection with a reason, never a raise."""
    for c in (cert, from_json(to_json(cert))):
        ok, reason = verify_certificate(c)
        assert not ok and reason
    return reason


@pytest.mark.parametrize("hereditary", [3, None, ["down:exL"], "down:bogus",
                                        "down:ex112"], ids=repr)
def test_malformed_hereditary_rejected(hereditary):
    chain = make_certificate(
        "Chain", "down:A:3", Window(1, 10), (1, 2, 3),
        {"hereditary": hereditary, "depth": 4,
         "chain": [[], [1], [1, 2], [1, 2, 3]]})
    branches = [make_certificate(
        f"DichotomyBranch{b}", "exR", Window(1, 30), (1, 2, 3, 4, 5, 6),
        {"hereditary": hereditary, "branch": b, "target": 6}) for b in "AB"]
    for cert in [chain] + branches:
        reason = rejected_both_ways(cert)
        if not isinstance(hereditary, str):
            assert "must be a string" in reason


@pytest.mark.parametrize("chain", [5, [1, 2], None, ["ab"], [[2, 2]]],
                         ids=repr)
def test_malformed_chain_rejected(chain):
    cert = make_certificate(
        "Chain", "down:A:3", Window(1, 10), (1, 2, 3),
        {"hereditary": "down:A:3", "depth": 4, "chain": chain})
    assert "recorded chain disagrees" in rejected_both_ways(cert)


def test_unparseable_family_is_rejected_not_raised():
    # a custom family has no literal, so its certificate cannot be rechecked
    pairs = FamilySpec(kind="custom", predicate=lambda s: len(s) == 2,
                       name="pairs")
    refined = sperner_refine(pairs, Window(1, 8), 4)
    assert refined.family == "pairs"
    ok, reason = verify_certificate(refined)
    assert not ok and "bad family literal 'pairs'" in reason
    forged = [
        make_certificate("Homogeneous", "nonsense", Window(1, 10), (1, 3, 5),
                         {"coloring": "parity-sum", "color": 1, "target": 3}),
        make_certificate("DichotomyBranchA", "nonsense", Window(1, 10), (1, 2),
                         {"hereditary": "all", "branch": "A", "target": 2}),
        make_certificate("DichotomyBranchB", "A:w+", Window(1, 10), (1, 2),
                         {"hereditary": "all", "branch": "B", "target": 2}),
    ]
    for cert in forged:
        ok, reason = verify_certificate(cert)
        assert not ok and reason, cert.kind


def test_unknown_kind_rejected():
    with pytest.raises(CertificateError):
        make_certificate("Mystery", "A:2", Window(1, 10), (1, 2), {})


def test_from_json_rejects_malformed():
    with pytest.raises(CertificateError):
        from_json('{"kind": "Homogeneous"}')
    cert = good_homogeneous()
    d = cert.to_json_dict()
    d["kind"] = "Mystery"
    with pytest.raises(CertificateError):
        from_json(json.dumps(d))


def _with(field, value):
    d = good_homogeneous().to_json_dict()
    d[field] = value
    return json.dumps(d)


@pytest.mark.parametrize("text", [
    _with("payload", []),
    _with("window", {"lo": 5, "hi": 2}),
    _with("witness", [3, 3]),
    _with("witness", [0, 2]),
    _with("witness", ["a"]),
    _with("family", 3),
    _with("family", ["A:2"]),
    "not json {",
    "[]",
    "3",
], ids=["payload-list", "window-lo-above-hi", "witness-duplicate",
        "witness-zero", "witness-text", "family-number", "family-list",
        "not-json", "json-list", "json-number"])
def test_from_json_malformed_raises_certificate_error(text):
    with pytest.raises(CertificateError):
        from_json(text)
    if text.startswith("{"):
        with pytest.raises(CertificateError):
            from_json(json.loads(text))


def test_from_json_deep_nesting_raises_certificate_error():
    with pytest.raises(CertificateError):
        from_json("[" * 100000)


def test_from_json_window_span_refused():
    # building the ground of [1, 10^12] would exhaust memory
    with pytest.raises(CertificateError):
        from_json(_with("window", {"lo": 1, "hi": 10 ** 12}))
    with pytest.raises(CertificateError):
        from_json(_with("window", {"lo": 1, "hi": 10 ** 12, "ground": [1, 2]}))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12)

CERT_FIELDS = ["kind", "family", "window", "witness", "payload",
               "transcript_hash"]


def _from_json_or_certificate_error(doc):
    try:
        cert = from_json(doc)
    except CertificateError:
        return
    assert isinstance(cert, Certificate)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_from_json_fuzz_arbitrary_values(value):
    _from_json_or_certificate_error(value)
    _from_json_or_certificate_error(json.dumps(value))


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(
           [(f,) for f in CERT_FIELDS]
           + [("window", k) for k in ("lo", "hi", "ground")]
           + [("payload", k) for k in ("coloring", "color", "target", "new")]),
       value=json_values, drop=st.booleans())
def test_from_json_fuzz_mutated_documents(path, value, drop):
    doc = good_homogeneous().to_json_dict()
    doc["window"] = dict(doc["window"])
    doc["payload"] = dict(doc["payload"])
    *outer, key = path
    target = doc[outer[0]] if outer else doc
    if drop:
        target.pop(key, None)
    else:
        target[key] = value
    _from_json_or_certificate_error(doc)
    _from_json_or_certificate_error(json.dumps(doc))


def test_digest_ignores_payload_order():
    w = Window(1, 10)
    a = make_certificate("SpernerRefined", "A:3", w, (1, 2, 3),
                         {"target": 3, "op": "sperner-refine"})
    b = make_certificate("SpernerRefined", "A:3", w, (1, 2, 3),
                         {"op": "sperner-refine", "target": 3})
    assert a.transcript_hash == b.transcript_hash


def test_window_ground_participates_in_digest():
    plain = make_certificate("SpernerRefined", "A:3", Window(1, 10),
                             (2, 4, 6), {"target": 3})
    thinned = make_certificate("SpernerRefined", "A:3",
                               Window(1, 10, tuple(range(2, 11, 2))),
                               (2, 4, 6), {"target": 3})
    assert plain.transcript_hash != thinned.transcript_hash


def mutate_dict(d, rng):
    """One random structural mutation of a serialized certificate."""
    d = json.loads(json.dumps(d))
    roll = rng.randrange(4)
    if roll == 0 and d["witness"]:
        d["witness"] = d["witness"][:-1]
    elif roll == 1 and d["witness"]:
        i = rng.randrange(len(d["witness"]))
        d["witness"][i] = d["witness"][i] + 101
    elif roll == 2:
        d["window"]["hi"] = d["window"]["hi"] + 1
    else:
        key = sorted(d["payload"])[rng.randrange(len(d["payload"]))]
        v = d["payload"][key]
        d["payload"][key] = (v + 1) if isinstance(v, int) else str(v) + "x"
    return d


def test_random_mutations_rejected():
    cert = good_homogeneous()
    base = cert.to_json_dict()
    rng = random.Random(12)
    for _ in range(25):
        mutated = mutate_dict(base, rng)
        if mutated == base:
            continue
        ok, reason = verify_certificate(from_json(json.dumps(mutated)))
        assert not ok and reason == "transcript hash mismatch"


def test_kind_catalogue():
    assert CERT_KINDS == ("Homogeneous", "DichotomyBranchA",
                          "DichotomyBranchB", "SpernerRefined", "Chain",
                          "Transfer")


# -- the window check -------------------------------------------------


def _dichotomy(branch):
    hered, family = (("down:exL", "exR") if branch == "A"
                     else ("down:F:1", "exL"))
    [cert] = hereditary_dichotomy(hered, parse_family(family), Window(1, 12),
                                  target=6)
    assert cert.kind == f"DichotomyBranch{branch}"
    return cert


WINDOW_BASES = {
    "Homogeneous": lambda: homogenize(
        parse_family("A:2"), get_coloring("parity-sum"), Window(1, 8), 3),
    "DichotomyBranchA": lambda: _dichotomy("A"),
    "DichotomyBranchB": lambda: _dichotomy("B"),
    "SpernerRefined": lambda: sperner_refine(parse_family("ex112"),
                                             Window(1, 25), 6),
    "Chain": lambda: detect_chain("down:A:3", Window(1, 12), 4),
    "Transfer-shift": lambda: schreier_transfer(1, Window(1, 12)),
    "Transfer-large-index": lambda: large_index_transfer(
        "down:A:w*2", parse_ordinal("w*2+1"), 1, Window(1, 40)),
}


@functools.cache
def _window_base(name):
    return WINDOW_BASES[name]()


@pytest.mark.parametrize("name", sorted(WINDOW_BASES))
def test_witness_outside_the_window_rejected(name):
    cert = WINDOW_BASES[name]()
    assert verify_certificate(cert) == (True, "ok")
    w = cert.window
    ground = tuple(x for x in w.ground if x != cert.witness[-1])
    forged = make_certificate(cert.kind, cert.family,
                              Window(w.lo, w.hi, ground), cert.witness,
                              cert.payload_dict())
    assert verify_certificate(forged) == (
        False, "witness leaves the window's ground")


def test_window_check_builds_no_set(monkeypatch):
    def no_set(*args):
        raise AssertionError("the window check built a set")

    wide = Window(1, 1 << 20)
    thinned = Window(1, 1 << 20, (2, 4, 1 << 20))
    cert = make_certificate("Chain", "all", wide, (1, 2), {
        "hereditary": "all", "depth": 3, "chain": [[], [1], [1, 2]]})
    with monkeypatch.context() as patched:
        patched.setattr(finsets, "set", no_set, raising=False)
        assert wide.contains_set((1, 5, 1 << 20))
        assert not thinned.contains_set((2, 3))
        assert cert.window.contains_set(cert.witness)
    # the re-check builds the witness's own window, a set of two
    assert verify_certificate(cert) == (True, "ok")


@settings(max_examples=200, deadline=None)
@given(ground=st.sets(st.integers(1, 30), min_size=1),
       s=st.sets(st.integers(1, 31), max_size=6))
def test_window_check_matches_set_inclusion(ground, s):
    w = Window(1, 30, tuple(ground))
    assert w.contains_set(tuple(sorted(s))) == (s <= ground)


def test_dichotomy_member_form_parsed_once(monkeypatch):
    cert = rank_separation(parse_ordinal("w"), parse_ordinal("w^2"),
                           Window(1, 20))
    assert cert.payload_dict()["hereditary"] == "member:A:w"
    parsed = []
    real = certificates.parse_family
    for module in (certificates, search):
        monkeypatch.setattr(module, "parse_family",
                            lambda text: parsed.append(text) or real(text))
    assert verify_certificate(cert) == (True, "ok")
    # rank_separation reads the levels as ordinals and parses the form
    assert parsed == ["A:w"]


# -- each check reads every field its search records --------------------
#
# Each record below is re-hashed, so only the claim check can refuse it,
# and each is one that no search writes.


def forged(cert, **changes):
    return make_certificate(cert.kind, cert.family, cert.window, cert.witness,
                            dict(cert.payload_dict(), **changes))


@pytest.mark.parametrize("key,value", [
    ("branch", "B"), ("branch", "Q"), ("branch", None),
    ("op", "rank-separation"), ("op", None)])
def test_dichotomy_check_reads_branch_and_op(key, value):
    cert = _dichotomy("A")
    assert "op" not in cert.payload_dict()
    ok, reason = verify_certificate(forged(cert, **{key: value}))
    assert not ok and key in reason, reason


def test_dichotomy_check_reads_the_separation_op():
    cert = rank_separation(parse_ordinal("2"), parse_ordinal("w"),
                           Window(1, 20))
    assert verify_certificate(cert) == (True, "ok")
    for key, value in (("op", "anything"), ("hereditary", "down:A:2")):
        ok, reason = verify_certificate(forged(cert, **{key: value}))
        assert not ok and key in reason, reason
    # the op on a branch-B record of a family that is not A: names it
    branch_b = _dichotomy("B")
    ok, reason = verify_certificate(forged(
        branch_b, op="rank-separation", hereditary="member:A:1"))
    assert not ok and "'exL'" in reason, reason


def test_dichotomy_check_probes_heredity():
    record = make_certificate(
        "DichotomyBranchB", "exL", Window(1, 5), (1, 2, 3),
        {"hereditary": "member:A:2", "branch": "B", "target": 3})
    ok, reason = verify_certificate(record)
    assert not ok and "not hereditary" in reason
    with pytest.raises(ValueError, match="not hereditary"):
        hereditary_dichotomy("member:A:2", parse_family("exL"), Window(1, 5),
                             3)


@pytest.mark.parametrize("key,value", [
    ("order", "colex"), ("order", None), ("colors", 3), ("colors", 1),
    ("color", None), ("color", 1.0), ("color", "1"), ("color", True)])
def test_homogeneous_check_reads_order_palette_and_color(key, value):
    # a None colour would leave the fold free to take the first member's
    cert = homogenize(parse_family("A:2"), get_coloring("parity-sum"),
                      Window(1, 20), 4)
    assert verify_certificate(cert) == (True, "ok")
    ok, reason = verify_certificate(forged(cert, **{key: value}))
    assert not ok and key in reason, reason


def test_homogeneous_palette_matches_a_supplied_coloring():
    cert = three_colour_cert(0)
    assert verify_certificate(cert, hash_coloring(0, 3)) == (True, "ok")
    ok, reason = verify_certificate(cert, hash_coloring(0))
    assert not ok and "2 colors" in reason, reason


@pytest.mark.parametrize("op", ["anything", None])
def test_sperner_check_reads_op(op):
    cert = sperner_refine(parse_family("ex112"), Window(1, 25), 6)
    assert verify_certificate(cert) == (True, "ok")
    ok, reason = verify_certificate(forged(cert, op=op))
    assert not ok and "op" in reason, reason


def test_chain_check_probes_heredity():
    record = make_certificate(
        "Chain", "member:exL", Window(1, 5), (1, 2, 3),
        {"hereditary": "member:exL", "depth": 1, "chain": [[1, 2, 3]]})
    ok, reason = verify_certificate(record)
    assert not ok and "not hereditary" in reason
    with pytest.raises(ValueError, match="not hereditary"):
        detect_chain("member:exL", Window(1, 5), 1)


def test_chain_check_reads_family():
    cert = detect_chain("down:A:3", Window(1, 12), 4)
    record = make_certificate("Chain", "down:A:2", cert.window, cert.witness,
                              cert.payload_dict())
    ok, reason = verify_certificate(record)
    assert not ok and "family" in reason, reason


# -- every certificate a search returns verifies ------------------------

HOMOGENIZE_FAMILIES = ["A:0", "A:1", "A:2", "A:3", "A:w", "A:w+1", "B:1",
                       "F:1", "F:2", "exL", "exR", "ex112"]
DICHOTOMY_PREDICATES = ["all", "down:A:1", "down:A:2", "down:F:1",
                        "down:exL", "down:exR", "down:A:w", "member:F:1",
                        "member:A:0", "member:A:1", "member:B:0"]
DICHOTOMY_FAMILIES = ["A:1", "A:2", "A:w", "A:w+2", "B:1", "F:1", "F:2",
                      "exL", "exR"]
SEPARATION_PAIRS = [("0", "1"), ("1", "2"), ("2", "w"), ("w", "w+1"),
                    ("w", "w*2"), ("w", "w^2")]
grounds = st.sets(st.integers(1, 16), min_size=3, max_size=11).map(
    lambda g: tuple(sorted(g)))


@st.composite
def searches(draw):
    """(search name, call) on a random small window."""
    g = draw(grounds)
    w = Window(g[0], g[-1], g)
    small = st.integers(1, min(6, len(g)))
    name = draw(st.sampled_from(["homogenize", "dichotomy", "separation",
                                 "sperner", "chain", "transfer"]))
    if name == "homogenize":
        spec = parse_family(draw(st.sampled_from(HOMOGENIZE_FAMILIES)))
        coloring = draw(st.one_of(
            st.sampled_from([get_coloring("parity-sum"),
                             get_coloring("span-threshold")]),
            st.builds(hash_coloring, st.integers(0, 1 << 20),
                      st.integers(1, 3))))
        return name, lambda t=draw(small): [homogenize(spec, coloring, w, t)]
    if name == "dichotomy":
        desc = draw(st.sampled_from(DICHOTOMY_PREDICATES))
        spec = parse_family(draw(st.sampled_from(DICHOTOMY_FAMILIES)))
        return name, lambda t=draw(small): hereditary_dichotomy(desc, spec,
                                                                w, t)
    if name == "separation":
        a, b = map(parse_ordinal, draw(st.sampled_from(SEPARATION_PAIRS)))
        return name, lambda t=draw(small): [rank_separation(a, b, w, t)]
    if name == "sperner":
        spec = parse_family(draw(st.sampled_from(HOMOGENIZE_FAMILIES)))
        return name, lambda t=draw(small): [sperner_refine(spec, w, t)]
    if name == "chain":
        desc = draw(st.sampled_from(DICHOTOMY_PREDICATES))
        return name, lambda d=draw(small): [detect_chain(desc, w, d)]
    return name, lambda xi=draw(st.integers(0, 2)): [schreier_transfer(xi, w)]


@settings(max_examples=300, deadline=None)
@given(search=searches())
def test_every_search_certificate_verifies(search):
    name, run = search
    for cert in run():
        if cert is None:  # the window ran out
            continue
        for c in (cert, from_json(to_json(cert))):
            assert verify_certificate(c) == (True, "ok"), (name, c)


# -- records no search writes are refused by the rerun search -------------


def test_separation_record_needs_the_lower_level_below():
    record = make_certificate(
        "DichotomyBranchB", "A:1", Window(1, 5), (1,),
        {"hereditary": "member:A:2", "branch": "B", "op": "rank-separation",
         "target": 1})
    assert verify_certificate(record) == (False, "separation needs xi1 < xi2")
    with pytest.raises(ValueError, match="xi1 < xi2"):
        rank_separation(parse_ordinal("2"), parse_ordinal("1"), Window(1, 5),
                        1)


@pytest.mark.parametrize("color", [7, 2])
def test_uncoloured_witness_records_colour_one(color):
    # A:0's only member, the empty set, is never coloured
    cert = homogenize(parse_family("A:0"), get_coloring("parity-sum"),
                      Window(1, 9), 3)
    assert cert.payload_dict()["color"] == 1
    assert verify_certificate(forged(cert, color=color)) == (
        False, "recorded color disagrees with the re-check")


@pytest.mark.parametrize("name", ["Homogeneous", "DichotomyBranchA",
                                  "DichotomyBranchB", "SpernerRefined",
                                  "Chain"])
def test_extra_payload_key_refused(name):
    cert = WINDOW_BASES[name]()
    assert verify_certificate(cert) == (True, "ok")
    assert verify_certificate(forged(cert, extra=5)) == (
        False, "recorded extra disagrees with the re-check")


@settings(max_examples=300, deadline=None)
@given(base=st.sampled_from(sorted(WINDOW_BASES)),
       changes=st.lists(st.tuples(
           st.sampled_from(["kind", "family", "hereditary", "op", "target",
                            "depth", "chain", "color", "coloring", "colors",
                            "variant", "xi", "sigma", "into", "extra"]),
           st.sampled_from(list(CERT_KINDS)) | json_values
           | st.sampled_from(["A:2", "down:A:2", "member:A:w", "hash[3]",
                              "external:x", "shift", "large-index",
                              "infinity", "w^(", "exL", "B:1"])),
           min_size=1, max_size=3))
def test_resigned_records_are_refused_not_raised(base, changes):
    # a re-signed record of any kind with any fields changed is verified
    # or refused with a reason, never a stray exception
    doc = json.loads(to_json(_window_base(base)))
    for key, value in changes:
        (doc if key in ("kind", "family") else doc["payload"])[key] = value
    try:
        cert = from_json(doc)
    except CertificateError:
        return
    cert = make_certificate(cert.kind, cert.family, cert.window,
                            cert.witness, cert.payload_dict())
    ok, reason = verify_certificate(cert)
    assert ok or reason


@pytest.mark.parametrize("name", sorted(WINDOW_BASES))
def test_recheck_computes_no_digest(monkeypatch, name):
    # the rerun calls the undecorated search, so only verify_certificate
    # hashes, once, the record it is given
    cert = _window_base(name)
    extra = forged(cert, extra=5)

    def no_digest(*args):
        raise AssertionError("the re-check computed a digest")

    monkeypatch.setattr(certificates, "transcript_digest", no_digest)
    assert search.recheck(cert) == (True, "ok")
    assert search.recheck(extra) == (
        False, "recorded extra disagrees with the re-check")
