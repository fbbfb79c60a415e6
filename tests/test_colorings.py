import sys

import pytest

from schreier.colorings import (
    Coloring,
    ColoringProtocolError,
    ExternalColoring,
    get_coloring,
    hash_coloring,
    registry_names,
)


def test_parity_sum():
    c = get_coloring("parity-sum")
    assert c((2, 4)) == 1
    assert c((2, 5)) == 2
    assert c(()) == 1  # empty sum is even


def test_span_threshold():
    c = get_coloring("span-threshold")
    assert c((1, 20)) == 1  # span 19 > 4
    assert c((5, 6)) == 2  # span 1 <= 4
    assert c((7,)) == 2
    assert c(()) == 2


def test_hash_coloring_deterministic_and_seed_sensitive():
    a = hash_coloring(7)
    b = hash_coloring(7)
    other = hash_coloring(8)
    probe = [(1, 2), (3,), (2, 5, 9), (1, 4)]
    assert [a(s) for s in probe] == [b(s) for s in probe]
    assert all(a(s) in (1, 2) for s in probe)
    # over many sets, both seeds disagree somewhere and both colors occur
    sets = [(i, i + j) for i in range(1, 30) for j in range(1, 4)]
    colors_a = [a(s) for s in sets]
    assert {1, 2} == set(colors_a)
    assert colors_a != [other(s) for s in sets]


def test_registry_contents():
    assert registry_names() == ("hash", "parity-sum", "span-threshold")
    with pytest.raises(ValueError):
        get_coloring("no-such")


def test_out_of_range_reply_rejected():
    bad = Coloring(lambda s: 3, colors=2, name="bad")
    with pytest.raises(ColoringProtocolError):
        bad((1, 2))


ECHO_PARITY = (
    "import sys\n"
    "for line in sys.stdin:\n"
    "    body = line.strip().strip('{}')\n"
    "    vals = [int(x) for x in body.split(',')] if body else []\n"
    "    print(1 if sum(vals) % 2 == 0 else 2, flush=True)\n"
)


def test_external_process_protocol():
    cmd = f"{sys.executable} -c \"{ECHO_PARITY}\""
    with ExternalColoring(cmd) as ext:
        assert ext.query((2, 4)) == 1
        assert ext.query((2, 5)) == 2
        assert ext.query(()) == 1


def test_external_eof_raises():
    cmd = f"{sys.executable} -c \"pass\""
    ext = ExternalColoring(cmd)
    try:
        with pytest.raises(ColoringProtocolError):
            ext.query((1, 2))
    finally:
        ext.close()


def test_external_garbage_raises():
    # the child blocks on its input after the garbage reply, so it exits at
    # the EOF close() sends instead of holding close() up
    cmd = (f"{sys.executable} -c \"import sys; print('purple', flush=True); "
           "sys.stdin.read()\"")
    ext = ExternalColoring(cmd)
    try:
        with pytest.raises(ColoringProtocolError):
            ext.query((1, 2))
    finally:
        ext.close()


def test_external_registry_spelling():
    with pytest.raises(ValueError):
        get_coloring("external:")


@pytest.mark.parametrize("colors", [0, -1, True, False, 2.0, "3", None],
                         ids=repr)
def test_palette_below_one_refused(colors):
    # 0 would divide by zero at the first call, and True pass as one colour
    with pytest.raises(ValueError, match="colors must be an integer >= 1"):
        Coloring(lambda s: 1, colors=colors)
    with pytest.raises(ValueError, match="colors must be an integer >= 1"):
        hash_coloring(1, colors)


def test_one_colour_palette_builds():
    assert hash_coloring(1, 1)((1, 2)) == 1
