import io
import json
import sys

import pytest

from schreier import colorings
from schreier.cli import build_parser, main
from schreier.finsets import Window


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv, "--json")
    return rc, json.loads(out), err


# -- membership -------------------------------------------------------


def test_member_true(capsys):
    rc, out, _ = run(capsys, "member", "--family", "A:w", "--set", "{3,5,9}")
    assert rc == 0
    assert out.strip() == "true"


def test_member_false(capsys):
    rc, out, _ = run(capsys, "member", "--family", "A:w", "--set", "{1,2}")
    assert rc == 1
    assert out.strip() == "false"


def test_member_json_agrees(capsys):
    rc, doc, _ = run_json(capsys, "member", "--family", "A:w",
                          "--set", "{3,5,9}")
    assert rc == 0
    assert doc == {"family": "A:w", "set": [3, 5, 9], "member": True}


def test_member_braceless_set(capsys):
    # a shell may eat the braces; the bare listing still parses
    rc, out, _ = run(capsys, "member", "--family", "A:w", "--set", "3,5,9")
    assert rc == 0 and out.strip() == "true"


def test_bad_family_literal_is_usage_error(capsys):
    rc, _, err = run(capsys, "member", "--family", "Q:w", "--set", "{1}")
    assert rc == 2
    assert "family" in err


# -- enumeration and sections -----------------------------------------


def test_enum_count(capsys):
    rc, doc, _ = run_json(capsys, "enum", "--family", "B:1",
                          "--window", "1..20")
    assert rc == 0
    assert doc["count"] == 6765
    assert doc["members"][0] == [1]


def test_enum_plain_lists_sets(capsys):
    rc, out, _ = run(capsys, "enum", "--family", "A:2", "--window", "1..4")
    assert rc == 0
    assert out.splitlines() == ["{1,2}", "{1,3}", "{1,4}", "{2,3}",
                               "{2,4}", "{3,4}"]


def test_section_below_window(capsys):
    # the at-point may sit below the window holding the section sets
    rc, doc, _ = run_json(capsys, "section", "--family", "A:w",
                          "--at", "3", "--window", "4..15")
    assert rc == 0
    assert doc["count"] == 66
    assert all(len(s) == 2 for s in doc["members"])


def test_section_inside_window(capsys):
    rc, doc, _ = run_json(capsys, "section", "--family", "A:2",
                          "--at", "2", "--window", "1..6")
    assert rc == 0
    assert doc["members"] == [[3], [4], [5], [6]]


def test_section_above_window(capsys):
    # the section is defined at every point: above the window only the
    # empty set can continue {100} to a member of A:1
    rc, out, _ = run(capsys, "section", "--family", "A:1", "--at", "100",
                     "--window", "1..20")
    assert rc == 0
    assert out.splitlines() == ["{}"]


# -- canonical form, rank, index --------------------------------------


def test_canon_json_schema(capsys):
    rc, doc, _ = run_json(capsys, "canon", "--family", "A:w",
                          "--set", "{2,3,4,5,6}")
    assert rc == 0
    assert doc == {"blocks": [[2, 3]], "tail": [4, 5, 6], "type": 1}


def test_canon_plain_agrees(capsys):
    rc, out, _ = run(capsys, "canon", "--family", "A:w",
                     "--set", "{2,3,4,5,6}")
    assert rc == 0
    assert out.splitlines() == ["blocks: {2,3}", "tail: {4,5,6}", "type: 1"]


def test_canon_pure_tail_is_type_zero(capsys):
    rc, doc, _ = run_json(capsys, "canon", "--family", "A:w",
                          "--set", "{3,4}")
    assert rc == 0
    assert doc == {"blocks": [], "tail": [3, 4], "type": 0}


def test_rank_value(capsys):
    rc, out, _ = run(capsys, "rank", "--family", "A:w", "--set", "{3}")
    assert rc == 0
    assert out.strip() == "2"
    # exR is the system family at w, so it carries a rank and an index
    rc, out, _ = run(capsys, "rank", "--family", "exR", "--set", "{3,4}")
    assert (rc, out.strip()) == (0, "1")


def test_rank_dead_end(capsys):
    rc, _, err = run(capsys, "rank", "--family", "A:2", "--set", "{1,2,3}")
    assert rc == 1
    assert "no rank" in err


def test_rank_needs_system_family(capsys):
    rc, _, err = run(capsys, "rank", "--family", "exL", "--set", "{1}")
    assert rc == 2


def test_index_value(capsys):
    rc, out, _ = run(capsys, "index", "--family-closure", "A:w")
    assert rc == 0
    assert out.strip() == "w + 1"
    rc, out, _ = run(capsys, "index", "--family-closure", "exR")
    assert (rc, out.strip()) == (0, "w + 1")


def test_index_json(capsys):
    rc, doc, _ = run_json(capsys, "index", "--family-closure", "B:2")
    assert rc == 0
    assert doc == {"family": "B:2", "index": "w^2 + 1"}


# -- ordinal verbs ----------------------------------------------------


def test_fundseq_value(capsys):
    rc, out, _ = run(capsys, "fundseq", "--ordinal", "w^2", "--at", "3")
    assert rc == 0
    assert out.strip() == "w*2 + 2"


def test_fundseq_json_agrees(capsys):
    rc, doc, _ = run_json(capsys, "fundseq", "--ordinal", "w^2", "--at", "3")
    assert rc == 0
    assert doc["value"] == "w*2 + 2"
    assert doc["scheme"] == "wainer"


def test_fundseq_rejects_successor(capsys):
    rc, _, err = run(capsys, "fundseq", "--ordinal", "w+1", "--at", "2")
    assert rc == 2
    assert "limit" in err


def test_ord_normalises(capsys):
    rc, out, _ = run(capsys, "ord", "--ordinal", "1 + w")
    assert rc == 0
    assert out.strip() == "w (limit)"


def test_ord_compare(capsys):
    rc, out, _ = run(capsys, "ord", "--ordinal", "w", "--compare", "w^2")
    assert rc == 0
    assert out.strip() == "lt"
    rc, doc, _ = run_json(capsys, "ord", "--ordinal", "w*2+1",
                          "--compare", "w*2+1")
    assert doc["compare"]["relation"] == "eq"
    assert doc["classification"] == "successor"
    assert doc["predecessor"] == "w*2"


# -- searches ---------------------------------------------------------


def test_homogenize_parity(capsys):
    rc, doc, _ = run_json(capsys, "homogenize", "--family", "A:2",
                          "--coloring", "parity-sum",
                          "--window", "1..20", "--target", "4")
    assert rc == 0
    assert doc["verified"] is True
    assert doc["certificate"]["witness"] == [1, 3, 5, 7]


def test_homogenize_seeded_deterministic(capsys):
    args = ("homogenize", "--family", "A:2", "--coloring", "hash",
            "--window", "1..18", "--target", "4", "--seed", "5")
    rc1, doc1, _ = run_json(capsys, *args)
    rc2, doc2, _ = run_json(capsys, *args)
    assert rc1 == rc2 == 0
    assert doc1 == doc2


def test_homogenize_exhaustion(capsys):
    rc, doc, _ = run_json(capsys, "homogenize", "--family", "A:2",
                          "--coloring", "hash", "--window", "1..3",
                          "--target", "4")
    assert rc == 1
    assert doc == {"status": "exhausted"}


def test_homogenize_external_coloring(capsys, monkeypatch):
    procs = []

    class Recording(colorings.ExternalColoring):
        def __init__(self, command, colors=2):
            super().__init__(command, colors)
            procs.append(self._proc)

    monkeypatch.setattr(colorings, "ExternalColoring", Recording)
    cmd = (f"external:{sys.executable} -c \""
           "import sys\n"
           "for line in sys.stdin:\n"
           "    s = eval(line)\n"
           "    print(1 + sum(s) % 2); sys.stdout.flush()\"")
    rc, doc, _ = run_json(capsys, "homogenize", "--family", "A:2",
                          "--coloring", cmd, "--window", "1..20",
                          "--target", "4")
    assert rc == 0
    assert doc["certificate"]["witness"] == [1, 3, 5, 7]
    # the child is reaped and both pipes closed before main returns
    [proc] = procs
    assert proc.poll() is not None
    assert proc.stdin.closed and proc.stdout.closed


def test_dichotomy_branch_b(capsys):
    rc, out, _ = run(capsys, "dichotomy", "--hereditary", "F:1",
                     "--family", "exL", "--window", "1..30")
    assert rc == 0
    assert out.startswith("branch B:")


def test_dichotomy_branch_a_json(capsys):
    rc, doc, _ = run_json(capsys, "dichotomy", "--hereditary", "exL",
                          "--family", "exR", "--window", "1..30")
    assert rc == 0
    assert doc["branches"] == ["A"]


def test_dichotomy_past_w_squared(capsys):
    rc, doc, _ = run_json(capsys, "dichotomy", "--hereditary", "A:w^3",
                          "--family", "A:w^2", "--window", "1..14",
                          "--target", "6")
    assert rc == 0
    assert doc["branches"] == ["A"]
    assert doc["certificates"][0]["witness"] == [1, 2, 3, 4, 5, 6]


def test_dichotomy_past_the_old_candidate_budget(capsys):
    rc, out, _ = run(capsys, "dichotomy", "--hereditary", "A:1",
                     "--family", "A:w", "--window", "1..20", "--target", "6")
    assert rc == 0
    assert out.strip() == "branch B: {2,3,4,5,6,7}"


def test_separate(capsys):
    rc, doc, _ = run_json(capsys, "separate", "--lower", "2", "--upper", "w",
                          "--window", "1..30")
    assert rc == 0
    assert doc["certificate"]["witness"] == [3, 4, 5, 6, 7, 8]


def test_separate_bad_order(capsys):
    rc, _, err = run(capsys, "separate", "--lower", "w", "--upper", "2",
                     "--window", "1..30")
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ("dichotomy", "--hereditary", "all", "--family", "A:w", "--window",
     "1..40", "--target", "26"),
    ("separate", "--lower", "1", "--upper", "2", "--window", "1..40",
     "--target", "26"),
    ("homogenize", "--family", "A:1", "--coloring", "parity-sum", "--window",
     "1..60", "--target", "26"),
], ids=["dichotomy", "separate", "homogenize"])
def test_search_target_over_the_cap_is_usage_error(capsys, argv):
    # these printed certificates that verify rejects, or a traceback
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "cap 25" in err


@pytest.mark.parametrize("argv", [
    ("ord", "--ordinal", "w^" * 1000 + "1"),
    ("member", "--family", "A:" + "w^" * 700 + "1", "--set", "{1,2}"),
], ids=["ord", "member"])
def test_deeply_nested_ordinal_is_usage_error(capsys, argv):
    # both exited 1 with a RecursionError traceback
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == "" and err.startswith("error:")


def test_chain(capsys):
    rc, doc, _ = run_json(capsys, "chain", "--hereditary", "member:F:1",
                          "--window", "1..30", "--depth", "4")
    assert rc == 0
    assert doc["certificate"]["payload"]["chain"] == \
        [[4], [4, 5], [4, 5, 6], [4, 5, 6, 7]]


def test_chain_too_deep(capsys):
    rc, out, _ = run(capsys, "chain", "--hereditary", "A:3",
                     "--window", "1..30", "--depth", "5")
    assert rc == 1
    assert "no chain" in out


def test_chain_thin_member_form_is_usage_error(capsys):
    rc, _, err = run(capsys, "chain", "--hereditary", "member:A:w",
                     "--window", "20..60", "--depth", "20")
    assert rc == 2
    assert "not hereditary" in err


# -- transfer ---------------------------------------------------------


def test_transfer_shift(capsys):
    rc, doc, _ = run_json(capsys, "transfer", "--xi", "1",
                          "--window", "1..20")
    assert rc == 0
    cert = doc["certificate"]
    assert cert["witness"] == list(range(3, 21))
    # spread side: every level-1 index set over an 18 element line,
    # one short of a Fibonacci number; closure side measured once
    assert cert["payload"]["spread_checked"] == 6764
    assert cert["payload"]["closure_checked"] == 10945


def test_transfer_level_two_wide_window(capsys):
    # counted by product state, not listed: 2.2e12 spread sets in a second
    rc, doc, _ = run_json(capsys, "transfer", "--xi", "2",
                          "--window", "1..45")
    assert rc == 0
    p = doc["certificate"]["payload"]
    assert (p["spread_checked"], p["closure_checked"]) == (2176089831844,
                                                           168448980192)


def test_transfer_records_density_flag(capsys):
    rc, doc, _ = run_json(capsys, "transfer", "--xi", "1",
                          "--window", "1..15", "--assume-dense")
    assert rc == 0
    assert doc["certificate"]["payload"]["assume_dense"] is True


def test_transfer_into_closure_direct(capsys):
    rc, doc, _ = run_json(capsys, "transfer", "--xi", "1",
                          "--window", "1..20", "--into-closure", "A:w*2")
    assert rc == 0
    assert doc["certificate"]["payload"]["route"] == "direct"


def test_transfer_into_closure_lift(capsys):
    rc, doc, _ = run_json(capsys, "transfer", "--xi", "1",
                          "--window", "1..20", "--into-closure", "B:1")
    assert rc == 0
    assert doc["certificate"]["payload"]["route"] == "lift"


def test_transfer_into_closure_past_w_squared(capsys):
    rc, doc, _ = run_json(capsys, "transfer", "--xi", "1",
                          "--window", "1..30", "--into-closure", "A:w^3")
    assert rc == 0
    cert = doc["certificate"]
    assert cert["witness"] == list(range(3, 11))
    assert cert["payload"]["spread_checked"] == 54


def test_transfer_into_everything(capsys):
    rc, doc, _ = run_json(capsys, "transfer", "--xi", "1",
                          "--window", "1..20", "--into-closure", "all")
    assert rc == 0
    assert doc["certificate"]["payload"]["sigma"] == "infinity"


def test_transfer_premise_failure(capsys):
    rc, _, err = run(capsys, "transfer", "--xi", "1",
                     "--window", "1..20", "--into-closure", "A:3")
    assert rc == 1
    assert "premise" in err


def test_transfer_level_cap(capsys):
    rc, _, err = run(capsys, "transfer", "--xi", "3", "--window", "1..20")
    assert rc == 2


# -- parser-level behaviour -------------------------------------------


# -- offline verification ---------------------------------------------


def chain_certificate_text():
    from schreier import detect_chain, to_json

    return to_json(detect_chain("down:A:3", Window(1, 12), 4))


def test_verify_accepts_certificate_file(capsys, tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(chain_certificate_text())
    rc, out, _ = run(capsys, "verify", "--cert", str(path))
    assert rc == 0
    assert out.strip() == "verified: true"


def test_verify_reads_standard_input(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(chain_certificate_text()))
    rc, doc, _ = run_json(capsys, "verify", "--cert", "-")
    assert rc == 0
    assert doc == {"verified": True, "reason": "ok", "kind": "Chain"}


def test_verify_rejects_edited_certificate(capsys, monkeypatch, tmp_path):
    doc = json.loads(chain_certificate_text())
    doc["witness"] = [1, 2, 4]
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    rc, out, _ = run(capsys, "verify", "--cert", str(path))
    assert rc == 1
    assert out.splitlines() == ["verified: false",
                                "reason: transcript hash mismatch"]
    # a re-hashed forgery passes the hash and fails the claim
    from schreier.certificates import make_certificate, to_json

    forged = make_certificate("Chain", "down:A:3", Window(1, 10), (1, 2, 3, 4),
                              {"hereditary": "down:A:3", "depth": 4,
                               "chain": [[1], [1, 2], [1, 2, 3],
                                         [1, 2, 3, 4]]})
    monkeypatch.setattr(sys, "stdin", io.StringIO(to_json(forged)))
    rc, doc, _ = run_json(capsys, "verify", "--cert", "-")
    assert rc == 1
    assert doc == {"verified": False, "kind": "Chain",
                   "reason": "recorded witness disagrees with the re-check"}


def test_verify_refuses_wide_witness(capsys, monkeypatch):
    from schreier.certificates import make_certificate, to_json

    forged = make_certificate(
        "Homogeneous", "A:2", Window(1, 80), tuple(range(1, 80, 2)),
        {"coloring": "parity-sum", "color": 1, "target": 40, "order": "lex"})
    monkeypatch.setattr(sys, "stdin", io.StringIO(to_json(forged)))
    rc, out, _ = run(capsys, "verify", "--cert", "-")
    assert rc == 1
    assert out.splitlines()[0] == "verified: false"
    assert "cap 25" in out


def test_verify_unparseable_family_is_rejected(capsys, monkeypatch):
    # a well-formed, re-hashed document naming no family is a failed
    # claim (exit 1), not a usage error (exit 2)
    from schreier.certificates import make_certificate, to_json

    forged = make_certificate("Homogeneous", "nonsense", Window(1, 10),
                              (1, 3, 5), {"coloring": "parity-sum",
                                          "color": 1, "target": 3})
    monkeypatch.setattr(sys, "stdin", io.StringIO(to_json(forged)))
    rc, doc, _ = run_json(capsys, "verify", "--cert", "-")
    assert rc == 1
    assert doc["verified"] is False and doc["kind"] == "Homogeneous"
    assert "bad family literal 'nonsense'" in doc["reason"]


def test_verify_mistyped_payload_is_rejected(capsys, monkeypatch):
    # a re-hashed chain whose links are not sets is a failed claim, not a
    # traceback
    from schreier.certificates import make_certificate, to_json

    forged = make_certificate("Chain", "down:A:3", Window(1, 10), (1, 2, 3),
                              {"hereditary": "down:A:3", "depth": 4,
                               "chain": 5})
    monkeypatch.setattr(sys, "stdin", io.StringIO(to_json(forged)))
    rc, out, _ = run(capsys, "verify", "--cert", "-")
    assert rc == 1
    assert out.splitlines()[0] == "verified: false"
    assert "recorded chain disagrees" in out


def test_verify_malformed_certificate_is_usage_error(capsys, monkeypatch,
                                                     tmp_path):
    monkeypatch.setattr(sys, "stdin", io.StringIO("{not json"))
    rc, out, err = run(capsys, "verify", "--cert", "-")
    assert rc == 2 and out == ""
    assert "certificate is not JSON" in err
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"kind": "Chain"}))
    rc, _, err = run(capsys, "verify", "--cert", str(path))
    assert rc == 2
    assert "missing certificate field" in err
    rc, _, err = run(capsys, "verify", "--cert", str(tmp_path / "absent"))
    assert rc == 2
    assert "cannot read" in err


def test_unknown_verb_exits_with_usage(capsys):
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2


def test_all_verbs_registered():
    parser = build_parser()
    text = parser.format_help()
    for verb in ("member", "enum", "section", "canon", "rank", "index",
                 "fundseq", "ord", "homogenize", "dichotomy", "separate",
                 "chain", "transfer", "verify", "check"):
        assert verb in text


def test_check_reports_seconds(capsys, monkeypatch):
    from schreier import acceptance

    def run_one(number):
        num, title, _ = acceptance.CRITERIA[number - 1]
        return acceptance.CriterionResult(num, title, True, "stub", 0.25)

    monkeypatch.setattr(acceptance, "run_one", run_one)
    rc, out, _ = run(capsys, "check")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == len(acceptance.CRITERIA)
    assert lines[0] == "acceptance  1: PASS - stub (0.25 s)"
    rc, doc, _ = run_json(capsys, "check")
    assert rc == 0
    assert [c["seconds"] for c in doc["criteria"]] == \
        [0.25] * len(acceptance.CRITERIA)


def test_seed_range_checked(capsys):
    rc, _, err = run(capsys, "homogenize", "--family", "A:2", "--coloring",
                     "hash", "--window", "1..10", "--target", "3",
                     "--seed", "-3")
    assert rc == 2
    assert "seed" in err


def test_seed_only_on_homogenize(capsys):
    # the hash colouring is the only reader of a seed
    with pytest.raises(SystemExit) as e:
        main(["member", "--family", "A:1", "--set", "{1}", "--seed", "3"])
    assert e.value.code == 2
    assert "--seed" in capsys.readouterr().err
