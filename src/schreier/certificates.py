"""Verifiable search artifacts.

Every search emits a certificate binding its witness, family, window and
outcome under a transcript hash.  Verification recomputes the hash first
(any mutation is rejected before semantics are consulted), then requires
the witness inside the window's ground, then reruns the search that
writes the record's kind on the witness and compares the record it
writes, field by field (search.recheck).  This module keeps no claim
rule of its own: a search's preconditions (the 25-element cap, the
heredity probe, xi1 < xi2, target >= 1) refuse a record as they refuse
a call, and a record no search writes is refused.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from .colorings import Coloring
from .families import _down_test, parse_family
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


def _transcript_body(kind, family, window, witness, payload) -> Dict[str, object]:
    w = {"lo": window.lo, "hi": window.hi}
    if window.ground != tuple(range(window.lo, window.hi + 1)):
        w["ground"] = list(window.ground)
    return {
        "kind": kind,
        "family": family,
        "window": w,
        "witness": list(witness),
        "payload": dict(payload),
    }


def transcript_digest(kind, family, window, witness, payload) -> str:
    body = _transcript_body(kind, family, window, witness, payload)
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"), default=str)
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
    return json.dumps(cert.to_json_dict(), sort_keys=True, indent=2, default=str)


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
    if not isinstance(family, str):
        raise CertificateError(f"family must be a string, got {family!r}")
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


def verify_certificate(cert: Certificate,
                       coloring: Optional[Coloring] = None) -> Tuple[bool, str]:
    """The hash, the witness's window, then the search rerun on the
    witness (search.recheck)."""
    digest = transcript_digest(cert.kind, cert.family, cert.window,
                               cert.witness, cert.payload)
    if digest != cert.transcript_hash:
        return False, "transcript hash mismatch"
    if not cert.window.contains_set(cert.witness):
        return False, "witness leaves the window's ground"
    from .search import recheck  # search imports this module
    return recheck(cert, coloring)
