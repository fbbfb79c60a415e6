"""Uniform families of finite sets indexed by ordinals below epsilon_0.

Membership and rank computations, canonical decompositions, window
enumeration, and certified Ramsey-style searches over finite windows.

``import schreier`` loads no submodule.  Every public name, and every
submodule served as an attribute, loads on first access (PEP 562
``__getattr__``), so a point query never loads the searches, the
certificates or the colourings.  Only the bitmask engine (``MaskFamily``,
``masks_to_sets``, ``sort_masks``) and the acceptance suite (``run_all``,
``run_one``) need numpy.
"""

__version__ = "0.1.0"

# submodule -> the public names it defines, each written only here
_EXPORTS = {
    "ordinals": (
        "Ordinal", "ZERO", "ONE", "OMEGA", "as_ordinal", "from_int",
        "parse_ordinal", "format_ordinal", "compare", "add", "omega_power",
        "nat_multiple", "classify", "predecessor", "descend", "fundamental",
        "wainer_fundamental",
    ),
    "finsets": (
        "Window", "as_finset", "parse_finset", "format_finset",
        "parse_window", "spread",
    ),
    "families": (
        "FamilySpec", "parse_family", "enumerate_family", "section",
        "star_closure", "check_thin", "check_sperner", "uniform_member",
        "uniform_star", "residual_after", "union_schreier_member",
        "enumerate_union_schreier",
    ),
    "canonical": (
        "CanonicalRep", "FamilyContractError", "canonical_rep", "trichotomy",
        "sperner_witness",
    ),
    "rank": ("symbolic_rank", "closure_index", "brute_derivative",
             "index_compare"),
    "masks": ("MaskFamily", "masks_to_sets", "sort_masks"),
    "colorings": (
        "Coloring", "ColoringProtocolError", "ExternalColoring",
        "get_coloring", "hash_coloring", "registry_names",
    ),
    "certificates": (
        "Certificate", "CertificateError", "from_json", "to_json",
        "hereditary_predicate", "transcript_digest", "verify_certificate",
    ),
    "search": (
        "homogenize", "sperner_refine", "hereditary_dichotomy",
        "rank_separation", "detect_chain", "schreier_transfer",
        "large_index_transfer", "recheck",
    ),
    "acceptance": ("run_all", "run_one"),
    "cli": (),
}

# name -> the submodule that defines it; a submodule is its own home
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in (module, *names)}

__all__ = [name for names in _EXPORTS.values() for name in names] + [
    "__version__"]


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
