"""``import schreier`` loads no submodule: every name loads on first use.

``schreier/__init__.py`` keeps one table, submodule -> the public names
it defines.  ``__all__`` and the name -> submodule map that PEP 562
``__getattr__`` reads both come from it, so every public name and every
submodule attribute loads on first access by one code path.  A point
query never loads the searches, the certificates or the colourings, and
only the bitmask engine (``MaskFamily``, ``masks_to_sets``,
``sort_masks``) and the acceptance suite (``run_all``, ``run_one``) load
numpy.  Each case runs in a fresh interpreter, since this one has long
since loaded them all.
"""

import ast
import inspect
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


# the public names, as before the one table
PUBLIC = [
    "CanonicalRep", "Certificate", "CertificateError", "Coloring",
    "ColoringProtocolError", "ExternalColoring", "FamilyContractError",
    "FamilySpec", "MaskFamily", "OMEGA", "ONE", "Ordinal", "Window",
    "ZERO", "__version__", "add", "as_finset", "as_ordinal",
    "brute_derivative", "canonical_rep", "check_sperner", "check_thin",
    "classify", "closure_index", "compare", "descend", "detect_chain",
    "enumerate_family", "enumerate_union_schreier", "format_finset",
    "format_ordinal", "from_int", "from_json", "fundamental",
    "get_coloring", "hash_coloring", "hereditary_dichotomy",
    "hereditary_predicate", "homogenize", "index_compare",
    "large_index_transfer", "masks_to_sets", "nat_multiple", "omega_power",
    "parse_family", "parse_finset", "parse_ordinal", "parse_window",
    "predecessor", "rank_separation", "recheck", "registry_names",
    "residual_after", "run_all", "run_one", "schreier_transfer", "section",
    "sort_masks", "sperner_refine", "sperner_witness", "spread",
    "star_closure", "symbolic_rank", "to_json", "transcript_digest",
    "trichotomy", "uniform_member", "uniform_star",
    "union_schreier_member", "verify_certificate", "wainer_fundamental",
]


def test_import_loads_no_submodule():
    out = run_fresh("""
import sys
import schreier
print(sorted(m for m in sys.modules if m.startswith("schreier.")))
""")
    assert out.strip().splitlines()[-1] == "[]"


def test_point_queries_leave_the_searches_unloaded():
    out = run_fresh("""
import sys
import schreier
spec = schreier.parse_family("A:w")
assert spec.member((3, 5, 9))
schreier.canonical_rep(spec, (2, 3, 4, 5, 6))
schreier.symbolic_rank(schreier.parse_ordinal("w"), (3, 5))
print([m for m in ("schreier.search", "schreier.certificates",
                   "schreier.colorings", "subprocess") if m in sys.modules])
""")
    assert out.strip().splitlines()[-1] == "[]"


def test_public_names_are_unchanged():
    import schreier

    assert len(PUBLIC) == 71
    assert sorted(schreier.__all__) == PUBLIC


def test_every_table_name_is_its_submodule_attribute():
    import schreier

    for module, names in schreier._EXPORTS.items():
        home = getattr(schreier, module)
        assert home.__name__ == f"schreier.{module}"
        for name in names:
            assert getattr(home, name) is getattr(schreier, name), name
    assert set(schreier.__all__) | set(schreier._EXPORTS) <= set(dir(schreier))


def test_every_table_name_is_defined_by_its_submodule():
    # the table is the only list of public names, so this is what guards
    # that each entry points at the module that owns the name, not one
    # that imports it: classes and functions by __module__, constants by
    # an assignment at the top of the module's own source
    import schreier

    for module, names in schreier._EXPORTS.items():
        home = getattr(schreier, module)
        assigned = {target.id
                    for node in ast.parse(inspect.getsource(home)).body
                    if isinstance(node, ast.Assign)
                    for target in node.targets
                    if isinstance(target, ast.Name)}
        for name in names:
            assert name in vars(home), (module, name)
            value = vars(home)[name]
            if callable(value):
                assert value.__module__ == home.__name__, (module, name)
            else:
                assert name in assigned, (module, name)
