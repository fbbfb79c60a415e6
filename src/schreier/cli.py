"""Command line front end.

One verb per library operation.  Output is plain text by default and a
stable JSON document under ``--json``; both carry the same content.

Exit status: 0 for success or a found certificate, 1 for a computed
negative (non-membership, search exhaustion, a violated premise, a
rejected certificate), 2 for usage errors and malformed certificates.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Tuple

from .canonical import FamilyContractError, canonical_rep
from .certificates import (Certificate, from_json, hereditary_predicate,
                           verify_certificate)
from .colorings import ColoringProtocolError, get_coloring, registry_names
from .families import enumerate_family, parse_family, section
from .finsets import Window, format_finset, parse_finset, parse_window
from .ordinals import (
    classify,
    compare,
    format_ordinal,
    fundamental,
    parse_ordinal,
)
from .rank import closure_index, symbolic_rank
from .search import (
    detect_chain,
    hereditary_dichotomy,
    homogenize,
    large_index_transfer,
    rank_separation,
    schreier_transfer,
)

OK, NEGATIVE, USAGE = 0, 1, 2

# handler return convention: (exit status, json document, plain lines)
Result = Tuple[int, dict, List[str]]


def _cli_set(text: str):
    t = text.strip()
    if not t.startswith("{"):
        t = "{" + t + "}"  # forgive a shell that ate the braces
    return parse_finset(t)


def _window(args):
    return parse_window(args.window, args.ground)


def _hered_desc(text: str) -> str:
    """Normalise the --hereditary argument to a predicate description.

    A bare family literal means its subset closure; ``all`` and explicit
    ``down:``/``member:`` forms pass through.
    """
    t = text.strip()
    if t != "all" and not t.startswith(("down:", "member:")):
        t = f"down:{t}"
    hereditary_predicate(t)  # validates, raising on a bad literal
    return t


def _cert_doc(cert: Certificate) -> dict:
    return {"certificate": cert.to_json_dict()}


# -- verb handlers ----------------------------------------------------


def _run_member(args) -> Result:
    spec = parse_family(args.family)
    s = _cli_set(args.set)
    m = spec.member(s)
    out = {"family": spec.literal(), "set": list(s), "member": m}
    return (OK if m else NEGATIVE), out, ["true" if m else "false"]


def _listing(spec, win: Window, sets, **at) -> Result:
    out = {"family": spec.literal(), **at, "window": win.describe(),
           "count": len(sets), "members": [list(s) for s in sets]}
    return OK, out, [format_finset(s) for s in sets] or ["(none)"]


def _run_enum(args) -> Result:
    spec = parse_family(args.family)
    win = _window(args)
    return _listing(spec, win, enumerate_family(spec, win))


def _run_section(args) -> Result:
    spec = parse_family(args.family)
    win = _window(args)
    return _listing(spec, win, section(spec, args.at, win), at=args.at)


def _run_canon(args) -> Result:
    spec = parse_family(args.family)
    s = _cli_set(args.set)
    rep = canonical_rep(spec, s)
    out = rep.as_json_dict()
    blocks = " ".join(format_finset(b) for b in rep.blocks) or "(none)"
    lines = [
        f"blocks: {blocks}",
        f"tail: {format_finset(rep.tail)}",
        f"type: {rep.type}",
    ]
    return OK, out, lines


def _run_rank(args) -> Result:
    spec = parse_family(args.family)
    xi = spec.system_ordinal()
    if xi is None:
        raise ValueError(
            f"rank needs a system family (A:<ord>, B:<ord> or exR), "
            f"got {spec.literal()}"
        )
    s = _cli_set(args.set)
    try:
        r = symbolic_rank(xi, s)
    except ValueError as e:
        print(f"no rank: {e}", file=sys.stderr)
        return NEGATIVE, {}, []
    text = format_ordinal(r)
    out = {"family": spec.literal(), "set": list(s), "rank": text}
    return OK, out, [text]


def _run_index(args) -> Result:
    spec = parse_family(args.family_closure)
    idx = closure_index(spec)
    text = format_ordinal(idx)
    return OK, {"family": spec.literal(), "index": text}, [text]


def _run_fundseq(args) -> Result:
    x = parse_ordinal(args.ordinal)
    v = fundamental(x, args.at)  # rejects non-limits and at < 1
    text = format_ordinal(v)
    out = {
        "ordinal": format_ordinal(x),
        "at": args.at,
        "scheme": "wainer",  # the only assignment implemented
        "value": text,
    }
    return OK, out, [text]


def _run_ord(args) -> Result:
    x = parse_ordinal(args.ordinal)
    kind, pred = classify(x)
    out = {"ordinal": format_ordinal(x), "classification": kind}
    if pred is not None:
        out["predecessor"] = format_ordinal(pred)
    if args.compare is None:
        return OK, out, [f"{format_ordinal(x)} ({kind})"]
    y = parse_ordinal(args.compare)
    c = compare(x, y)
    rel = "lt" if c < 0 else ("gt" if c > 0 else "eq")
    out["compare"] = {"to": format_ordinal(y), "relation": rel}
    return OK, out, [rel]


def _run_homogenize(args) -> Result:
    spec = parse_family(args.family)
    win = _window(args)
    if not 0 <= args.seed < 2 ** 64:
        raise ValueError("--seed must fit in 64 bits")
    coloring = get_coloring(args.coloring, args.seed)
    try:
        cert = homogenize(spec, coloring, win, args.target)
        if cert is None:
            return NEGATIVE, {"status": "exhausted"}, ["exhausted"]
        ok, reason = verify_certificate(cert, coloring=coloring)
    finally:
        close = getattr(coloring.oracle, "close", None)
        if close is not None:
            close()
    if not ok:
        # the searcher and the checker disagreeing is a bug, not a miss
        raise RuntimeError(f"fresh certificate failed verification: {reason}")
    color = cert.payload_dict()["color"]
    out = _cert_doc(cert)
    out["verified"] = True
    lines = [
        f"witness: {format_finset(cert.witness)}",
        f"color: {color}",
        "verified: true",
    ]
    return OK, out, lines


def _run_dichotomy(args) -> Result:
    desc = _hered_desc(args.hereditary)
    spec = parse_family(args.family)
    win = _window(args)
    certs = hereditary_dichotomy(desc, spec, win, target=args.target)
    if not certs:
        return NEGATIVE, {"status": "exhausted"}, ["exhausted"]
    branches = [c.payload_dict()["branch"] for c in certs]
    out = {
        "branches": branches,
        "certificates": [c.to_json_dict() for c in certs],
    }
    lines = [
        f"branch {b}: {format_finset(c.witness)}"
        for b, c in zip(branches, certs)
    ]
    return OK, out, lines


def _run_separate(args) -> Result:
    lo = parse_ordinal(args.lower)
    hi = parse_ordinal(args.upper)
    win = _window(args)
    cert = rank_separation(lo, hi, win, target=args.target)
    if cert is None:
        return NEGATIVE, {"status": "exhausted"}, ["exhausted"]
    out = _cert_doc(cert)
    return OK, out, [f"witness: {format_finset(cert.witness)}"]


def _run_chain(args) -> Result:
    desc = _hered_desc(args.hereditary)
    win = _window(args)
    cert = detect_chain(desc, win, args.depth)
    if cert is None:
        msg = f"no chain of depth {args.depth}"
        return NEGATIVE, {"status": "exhausted"}, [msg]
    links = cert.payload_dict()["chain"]
    out = _cert_doc(cert)
    chain_text = " < ".join(format_finset(tuple(l)) for l in links)
    return OK, out, [f"chain: {chain_text}"]


def _run_transfer(args) -> Result:
    xi = parse_ordinal(args.xi)
    win = _window(args)
    if args.into_closure is None:
        try:
            cert = schreier_transfer(xi, win, assume_dense=args.assume_dense)
        except RuntimeError as e:
            print(f"containment failure: {e}", file=sys.stderr)
            return NEGATIVE, {}, []
        p = cert.payload_dict()
        out = _cert_doc(cert)
        lines = [
            f"witness: {format_finset(cert.witness)}",
            f"spread sets checked: {p['spread_checked']}",
            f"closure prefixes checked: {p['closure_checked']}",
        ]
        return OK, out, lines

    lit = args.into_closure.strip()
    if lit == "all":
        desc, sigma = "all", None
    else:
        desc = f"down:{lit}"
        sigma = closure_index(parse_family(lit))
    try:
        cert = large_index_transfer(desc, sigma, xi, win, target=args.target)
    except ValueError as e:
        if "boundary" in str(e):
            # the premise is violated; that is an answer, not bad usage
            print(f"premise fails: {e}", file=sys.stderr)
            return NEGATIVE, {}, []
        raise
    if cert is None:
        return NEGATIVE, {"status": "exhausted"}, ["exhausted"]
    p = cert.payload_dict()
    out = _cert_doc(cert)
    lines = [
        f"witness: {format_finset(cert.witness)}",
        f"route: {p['route']}",
        f"spread sets checked: {p['spread_checked']}",
    ]
    return OK, out, lines


def _run_verify(args) -> Result:
    if args.cert == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.cert, encoding="utf-8") as f:
                text = f.read()
        except OSError as e:
            raise ValueError(f"cannot read {args.cert}: {e.strerror}") from e
    cert = from_json(text)  # CertificateError is a ValueError: usage
    ok, reason = verify_certificate(cert)
    out = {"verified": ok, "reason": reason, "kind": cert.kind}
    lines = [f"verified: {'true' if ok else 'false'}"]
    if not ok:
        lines.append(f"reason: {reason}")
    return (OK if ok else NEGATIVE), out, lines


def _run_check(args) -> Result:
    from .acceptance import run_all

    emit = None if args.json else print
    results = run_all(emit=emit)
    passed = all(r.passed for r in results)
    out = {
        "criteria": [
            {"number": r.number, "title": r.title, "passed": r.passed,
             "detail": r.detail, "seconds": r.seconds}
            for r in results
        ],
        "passed": passed,
    }
    return (OK if passed else NEGATIVE), out, []


# -- parser wiring ----------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a JSON document instead of plain text")

    parser = argparse.ArgumentParser(
        prog="schreier",
        description="Uniform set families indexed by ordinals: membership, "
                    "enumeration, ranks and certified window searches.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")

    def verb(name, handler, help_text, **kwargs):
        p = sub.add_parser(name, parents=[common], help=help_text, **kwargs)
        p.set_defaults(handler=handler)
        return p

    def add_window(p, required=True):
        p.add_argument("--window", required=required, metavar="LO..HI",
                       help="finite window, e.g. 1..30")
        p.add_argument("--ground", default=None, metavar="A,B,...",
                       help="thin the window to this ground listing")

    p = verb("member", _run_member, "membership test for one set")
    p.add_argument("--family", required=True)
    p.add_argument("--set", required=True, metavar="{A,B,...}")

    p = verb("enum", _run_enum, "list every member inside a window")
    p.add_argument("--family", required=True)
    add_window(p)

    p = verb("section", _run_section, "members continuing past an element")
    p.add_argument("--family", required=True)
    p.add_argument("--at", required=True, type=int, metavar="M")
    add_window(p)

    p = verb("canon", _run_canon, "block decomposition of a set")
    p.add_argument("--family", required=True)
    p.add_argument("--set", required=True, metavar="{A,B,...}")

    p = verb("rank", _run_rank, "symbolic derivative rank of a set")
    p.add_argument("--family", required=True)
    p.add_argument("--set", required=True, metavar="{A,B,...}")

    p = verb("index", _run_index, "symbolic index of a family closure")
    p.add_argument("--family-closure", required=True, dest="family_closure",
                   metavar="FAMILY")

    p = verb("fundseq", _run_fundseq, "fundamental sequence value")
    p.add_argument("--ordinal", required=True)
    p.add_argument("--at", required=True, type=int, metavar="N")

    p = verb("ord", _run_ord, "normalise or compare ordinal expressions")
    p.add_argument("--ordinal", required=True)
    p.add_argument("--compare", default=None, metavar="ORDINAL")

    p = verb("homogenize", _run_homogenize,
             "search for a monochromatic ground set")
    p.add_argument("--family", required=True)
    p.add_argument("--coloring", required=True,
                   help=f"one of {', '.join(registry_names())}, or "
                        "external:<command>")
    add_window(p)
    p.add_argument("--target", required=True, type=int)
    p.add_argument("--seed", type=int, default=0, metavar="U64",
                   help="seed for the hash coloring (default 0)")

    p = verb("dichotomy", _run_dichotomy,
             "containment dichotomy against a hereditary predicate")
    p.add_argument("--hereditary", required=True, metavar="FAMILY",
                   help="family literal (subset closure), or all, "
                        "or down:/member: prefixed")
    p.add_argument("--family", required=True)
    add_window(p)
    p.add_argument("--target", type=int, default=8)

    p = verb("separate", _run_separate,
             "ground set separating two system levels")
    p.add_argument("--lower", required=True, metavar="ORDINAL")
    p.add_argument("--upper", required=True, metavar="ORDINAL")
    add_window(p)
    p.add_argument("--target", type=int, default=6)

    p = verb("chain", _run_chain, "initial-segment chain inside a predicate")
    p.add_argument("--hereditary", required=True, metavar="FAMILY")
    add_window(p)
    p.add_argument("--depth", required=True, type=int)

    p = verb("transfer", _run_transfer,
             "certified containment between the hierarchies")
    p.add_argument("--xi", required=True, metavar="LEVEL")
    add_window(p)
    p.add_argument("--assume-dense", action="store_true",
                   help="record the unverifiable density hypothesis")
    p.add_argument("--into-closure", default=None, metavar="FAMILY",
                   help="route the closure index of this family "
                        "(or 'all') through the spread containment")
    p.add_argument("--target", type=int, default=8)

    p = verb("verify", _run_verify, "re-check a certificate offline")
    p.add_argument("--cert", required=True, metavar="FILE",
                   help="certificate JSON file, or - for standard input")

    verb("check", _run_check, "run the full acceptance suite")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status, out, lines = args.handler(args)
    except FamilyContractError as e:
        print(f"family contract violated: {e}", file=sys.stderr)
        return NEGATIVE
    except ColoringProtocolError as e:
        print(f"coloring protocol failure: {e}", file=sys.stderr)
        return NEGATIVE
    except (ValueError, RecursionError) as e:  # too deep a nesting is bad input
        print(f"error: {e}", file=sys.stderr)
        return USAGE
    if args.json:
        print(json.dumps(out, indent=2))
    else:
        for line in lines:
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
