"""Verifiable search artifacts.

Every search emits a certificate binding its witness, family, window and
outcome under a transcript hash.  Verification recomputes the hash first
(any mutation is rejected before semantics are consulted), then requires
the witness inside the window's ground, then re-checks the claim by the
rule the search applied: the Homogeneous and Dichotomy checks fold the
search's admit over the witness, the Sperner check and search both apply
check_sperner, and a Transfer certificate is rebuilt by its builder.  The
first three refuse a witness over families._cap's 25 elements, and a fold
refuses past families._MAX_KEPT kept subsets, as the search would.  Each
check also reads the other fields its search records (a branch, an op, a
palette), so a record no search writes is refused.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from .colorings import Coloring, get_coloring, hash_coloring
from .families import _cap, _down_test, check_sperner, parse_family
from .finsets import FinSet, Window, as_finset

CERT_KINDS = (
    "Homogeneous",
    "DichotomyBranchA",
    "DichotomyBranchB",
    "SpernerRefined",
    "Chain",
    "Transfer",
)


class CertificateError(ValueError):
    """Certificate is structurally malformed."""


@dataclass(frozen=True, eq=True)
class Certificate:
    kind: str
    family: str
    window: Window
    witness: FinSet
    payload: Tuple[Tuple[str, object], ...]
    transcript_hash: str

    def payload_dict(self) -> Dict[str, object]:
        return dict(self.payload)

    def to_json_dict(self) -> Dict[str, object]:
        d = _transcript_body(self.kind, self.family, self.window, self.witness,
                             self.payload)
        d["transcript_hash"] = self.transcript_hash
        return d


def _jsonify(value):
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    return str(value)


def _transcript_body(kind, family, window, witness, payload) -> Dict[str, object]:
    w = {"lo": window.lo, "hi": window.hi}
    if window.ground != tuple(range(window.lo, window.hi + 1)):
        w["ground"] = list(window.ground)
    return {
        "kind": kind,
        "family": family,
        "window": w,
        "witness": list(witness),
        "payload": _jsonify(dict(payload)),
    }


def transcript_digest(kind, family, window, witness, payload) -> str:
    body = _transcript_body(kind, family, window, witness, payload)
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def make_certificate(kind: str, family: str, window: Window, witness,
                     payload: Dict[str, object]) -> Certificate:
    if kind not in CERT_KINDS:
        raise CertificateError(f"unknown certificate kind {kind!r}")
    witness = as_finset(witness)
    items = tuple(sorted(payload.items()))
    digest = transcript_digest(kind, family, window, witness, items)
    return Certificate(kind, family, window, witness, items, digest)


def to_json(cert: Certificate) -> str:
    return json.dumps(cert.to_json_dict(), sort_keys=True, indent=2)


def from_json(data) -> Certificate:
    """Rebuild a certificate from its JSON text or decoded document.

    Any malformed input raises CertificateError; the hash and the claim
    are left to verify_certificate.
    """
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except (ValueError, RecursionError) as e:
            raise CertificateError(f"certificate is not JSON: {e}") from e
    if not isinstance(data, dict):
        raise CertificateError("a certificate must be a JSON object")
    try:
        kind = data["kind"]
        family = data["family"]
        w = data["window"]
        window = Window(w["lo"], w["hi"],
                        tuple(w["ground"]) if "ground" in w else None)
        witness = as_finset(data["witness"])
        payload = tuple(sorted(data["payload"].items()))
        digest = data["transcript_hash"]
    except KeyError as e:
        raise CertificateError(f"missing certificate field: {e}") from e
    except (TypeError, ValueError, AttributeError) as e:
        raise CertificateError(f"malformed certificate: {e}") from e
    if kind not in CERT_KINDS:
        raise CertificateError(f"unknown certificate kind {kind!r}")
    return Certificate(kind, family, window, witness, payload, digest)


def hereditary_predicate(desc: str) -> Callable[[FinSet], bool]:
    """Resolve a recorded set-family predicate description.

    Forms: ``all`` (every finite set), ``down:<family>`` (subset closure,
    the family's star test; ex112 has none and raises ValueError),
    ``member:<family>`` (plain membership; used when the left side of a
    containment is itself a family rather than a closure).
    """
    if not isinstance(desc, str):
        raise CertificateError(
            f"predicate description must be a string, got {desc!r}")
    if desc == "all":
        return lambda s: True
    if desc.startswith("down:"):
        return _down_test(parse_family(desc[len("down:"):]))
    if desc.startswith("member:"):
        return parse_family(desc[len("member:"):]).member
    raise CertificateError(f"unknown predicate description {desc!r}")


def _verify_homogeneous(cert: Certificate, coloring: Optional[Coloring]):
    from .search import _homogenize_admit  # search imports this module
    p = cert.payload_dict()
    color = p.get("color")
    name = p.get("coloring", "")
    colors = p.get("colors", 2)
    if p.get("order", "lex") != "lex":
        return False, f"order must be 'lex', got {p.get('order')!r}"
    if type(color) is not int:  # None would leave the fold's colour open
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
    # bool is an int subclass, so test the exact type
    if type(colors) is not int or colors != coloring.colors:
        return False, (f"colors {colors!r} disagrees with {coloring.name}'s "
                       f"palette of {coloring.colors}")
    w = cert.witness
    try:
        _cap(len(w))
        # homogenize's admit from the recorded colour; a refusal's state
        # is the first member whose colour differs
        admit, root = _homogenize_admit(parse_family(cert.family), coloring)
        s = (color, root[1])
        for i, x in enumerate(w):
            ok, s = admit(w[:i], x, s)
            if not ok:
                return False, f"member {s} has color {coloring(s)}, expected {color}"
    except ValueError as e:
        return False, str(e)
    return True, "ok"


def _verify_dichotomy(cert: Certificate):
    from .search import _branch, _probe_hereditary  # search imports this module
    p = cert.payload_dict()
    branch, desc = cert.kind[-1], p.get("hereditary", "")
    if p.get("branch") != branch:
        return False, f"branch {p.get('branch')!r} disagrees with {cert.kind}"
    try:
        _cap(len(cert.witness))
        spec = parse_family(cert.family)
        step, state = _branch(branch, desc, spec)
        # only rank_separation records an op, and a thin member: form
        if "op" not in p:
            _probe_hereditary(desc)
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


def _verify_sperner(cert: Certificate):
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


def _verify_chain(cert: Certificate):
    from .search import _probe_hereditary  # search imports this module
    p = cert.payload_dict()
    try:
        hered = hereditary_predicate(p.get("hereditary", ""))
        _probe_hereditary(p["hereditary"])
    except ValueError as e:  # CertificateError, or no test for the family
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


def verify_certificate(cert: Certificate,
                       coloring: Optional[Coloring] = None) -> Tuple[bool, str]:
    """Hash check, then the witness's window and size, then the claim."""
    digest = transcript_digest(cert.kind, cert.family, cert.window,
                               cert.witness, cert.payload)
    if digest != cert.transcript_hash:
        return False, "transcript hash mismatch"
    if not cert.window.contains_set(cert.witness):
        return False, "witness leaves the window's ground"
    # bool is an int subclass, so test the exact type
    target = cert.payload_dict().get("target")
    if cert.kind not in ("Chain", "Transfer") and (
            type(target) is not int or target != len(cert.witness)):
        return False, f"witness size {len(cert.witness)} != target {target!r}"
    if cert.kind == "Homogeneous":
        return _verify_homogeneous(cert, coloring)
    if cert.kind.startswith("Dichotomy"):
        return _verify_dichotomy(cert)
    if cert.kind == "SpernerRefined":
        return _verify_sperner(cert)
    if cert.kind == "Chain":
        return _verify_chain(cert)
    if cert.kind == "Transfer":
        from .search import recheck_transfer  # search imports this module
        return recheck_transfer(cert)
    return False, f"unknown certificate kind {cert.kind!r}"
