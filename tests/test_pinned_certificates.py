"""Pinned search outputs: witnesses and transcript hashes must not drift.

The searches promise reproducible lex-first witnesses, so a refactor of
their internals has to leave every certificate byte-identical.  The
expected values below were recorded from the original per-search
backtracking implementations.
"""

import pytest

from schreier import (
    Coloring,
    Window,
    detect_chain,
    hash_coloring,
    homogenize,
    parse_family,
    parse_ordinal,
    rank_separation,
    sperner_refine,
    verify_certificate,
)

HOMOGENIZE_PINS = [
    ("A:2", 0, (1, 3, 6, 11),
     "2d09392778f9baa6828b35b03fc382fa09f72613d09a534ef0d550241758ce77"),
    ("A:2", 1, (1, 2, 15, 18),
     "842d32e678fe8b06f238032fcaad24b25e545cb8f6900e6d29f33dc0253cb7c2"),
    ("A:2", 2, (1, 2, 8, 11),
     "f02bbd721accf77cd06d30d63512872e7d7162a51f1e0b807438494ca10c108b"),
    ("A:w", 0, (1, 2, 4, 5),
     "17c6c543bb110f5f81390e95b93484a301c8b6529a2a06bf2a123d0b28d13a7c"),
    ("A:w", 1, (1, 2, 3, 4),
     "24fe92ee8dde651492cabe5630674f98577a59078b23083cddaa72367c102bd3"),
    ("A:w", 2, (1, 2, 5, 7),
     "31a03a278a8e51baf859041adf7b9136e4849971863dd1e843971690bd08e5ee"),
]


@pytest.mark.parametrize("family,seed,witness,digest", HOMOGENIZE_PINS)
def test_homogenize_pinned(family, seed, witness, digest):
    coloring = hash_coloring(seed)
    cert = homogenize(parse_family(family), coloring, Window(1, 18), 4)
    assert (cert.witness, cert.transcript_hash) == (witness, digest)
    assert verify_certificate(cert, coloring=coloring) == (True, "ok")


# colouring calls per homogenize search, under hash_coloring(0) and (1):
# the searches stop at the first member whose colour clashes, so these
# counts pin the order in which the frontier meets the members
COLORING_CALL_PINS = [
    ("A:2", 18, 4, (60, 39)),
    ("A:w", 18, 5, (6, 8)),
    ("F:1", 14, 4, (240, 49)),
    ("exL", 14, 4, (15, 5)),
]


@pytest.mark.parametrize("family,hi,target,calls", COLORING_CALL_PINS)
def test_homogenize_coloring_calls_pinned(family, hi, target, calls):
    made = []
    for seed in (0, 1):
        seen, oracle = [], hash_coloring(seed).oracle
        homogenize(parse_family(family),
                   Coloring(lambda s: seen.append(s) or oracle(s)),
                   Window(1, hi), target)
        made.append(len(seen))
    assert tuple(made) == calls


def test_sperner_refine_pinned():
    cert = sperner_refine(parse_family("ex112"), Window(1, 25), 6)
    assert cert.witness == (1, 2, 5, 6, 7, 8)
    assert cert.transcript_hash == (
        "186ff59212076e5a33398b9a3d4d24664e71b52b573407d1875a70d6b22dc2d2")
    assert verify_certificate(cert) == (True, "ok")


def test_rank_separation_pinned():
    cert = rank_separation(parse_ordinal("w"), parse_ordinal("w^2"),
                           Window(1, 20), 6)
    assert cert.witness == (2, 3, 4, 5, 6, 7)
    assert cert.transcript_hash == (
        "70fe0efc18a584dec553b55b30f7601e319ccb29b9d58b652814578a8220c988")
    assert verify_certificate(cert) == (True, "ok")


def test_rank_separation_wide_window_pinned():
    # recorded when every admit still re-walked each subset of the partial
    # set; the carried frontier must find the same lex-first witness
    cert = rank_separation(parse_ordinal("w*2"), parse_ordinal("w^2"),
                           Window(1, 30), 7)
    assert cert.witness == (1, 7, 8, 9, 10, 11, 12)
    assert cert.transcript_hash == (
        "c0a99bcbae95b5ef49722a8455be8cbefcf1a6ea3e9457745ccdcef9ef056cf5")
    assert verify_certificate(cert) == (True, "ok")


def test_detect_chain_pinned():
    cert = detect_chain("down:exL", Window(1, 20), 8)
    assert cert.witness == (3, 4, 5, 6, 7, 8, 9)
    assert cert.payload_dict()["chain"] == [
        [], [3], [3, 4], [3, 4, 5], [3, 4, 5, 6], [3, 4, 5, 6, 7],
        [3, 4, 5, 6, 7, 8], [3, 4, 5, 6, 7, 8, 9]]
    assert cert.transcript_hash == (
        "1c906c183f9145c37a11333f272379a83272c9c35dc64cdf02b1838f78191164")
    assert verify_certificate(cert) == (True, "ok")
