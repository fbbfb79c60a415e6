"""numpy loads only with the bitmask engine and the acceptance suite.

``import schreier`` binds every other name eagerly; ``MaskFamily``,
``masks_to_sets``, ``sort_masks``, ``run_all`` and ``run_one`` (and the
``masks`` and ``acceptance`` submodules) load on first access.  Each case
runs in a fresh interpreter, since this one has long since loaded numpy.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

DEFERRED = ("numpy", "schreier.masks", "schreier.acceptance")


def run_fresh(code):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout


def loaded_after(code):
    out = run_fresh(code + f"\nimport sys\nprint([m for m in {DEFERRED!r} "
                    "if m in sys.modules])")
    return out.strip().splitlines()[-1]


def test_point_queries_and_searches_leave_numpy_unloaded():
    code = """
import schreier
spec = schreier.parse_family("A:w")
assert spec.member((3, 5, 9))
schreier.canonical_rep(spec, (2, 3, 4, 5, 6))
schreier.symbolic_rank(schreier.parse_ordinal("w"), (3, 5))
cert = schreier.homogenize(schreier.parse_family("A:2"),
                           schreier.get_coloring("parity-sum"),
                           schreier.Window(1, 14), target=4)
assert cert is not None and schreier.verify_certificate(cert)[0]
"""
    assert loaded_after(code) == "[]"


def test_cli_member_leaves_numpy_unloaded():
    code = """
from schreier.cli import main
assert main(["member", "--family", "A:w", "--set", "{3,5,9}"]) == 0
"""
    assert loaded_after(code) == "[]"


def test_deferred_names_load_on_first_access():
    code = """
import sys
import schreier
assert "numpy" not in sys.modules
assert set(schreier.__all__) <= set(dir(schreier))
ns = {}
exec("from schreier import *", ns)
assert set(schreier.__all__) <= set(ns), set(schreier.__all__) - set(ns)
assert "numpy" in sys.modules
assert schreier.masks.MaskFamily is schreier.MaskFamily
assert schreier.acceptance.run_one is schreier.run_one
try:
    schreier.no_such_name
except AttributeError as e:
    assert "no_such_name" in str(e)
else:
    raise AssertionError("an unknown attribute resolved")
"""
    run_fresh(code)


def test_one_deferred_name_loads_numpy():
    assert loaded_after("from schreier import MaskFamily") == repr(
        list(DEFERRED[:2]))
