"""Uniform families of finite sets indexed by ordinals below epsilon_0.

Membership and rank computations, canonical decompositions, window
enumeration, and certified Ramsey-style searches over finite windows.

Only the bitmask engine (``MaskFamily``, ``masks_to_sets``, ``sort_masks``)
and the acceptance suite (``run_all``, ``run_one``) need numpy.  They load
on first use, so ``import schreier`` and every other name here never
import it.
"""

from .ordinals import (
    Ordinal,
    ZERO,
    ONE,
    OMEGA,
    as_ordinal,
    from_int,
    parse_ordinal,
    format_ordinal,
    compare,
    add,
    omega_power,
    nat_multiple,
    classify,
    predecessor,
    descend,
    fundamental,
    wainer_fundamental,
)
from .finsets import (
    Window,
    as_finset,
    parse_finset,
    format_finset,
    parse_window,
    spread,
)
from .families import (
    FamilySpec,
    parse_family,
    enumerate_family,
    section,
    star_closure,
    check_thin,
    check_sperner,
    uniform_member,
    uniform_star,
    residual_after,
    union_schreier_member,
    enumerate_union_schreier,
)
from .canonical import (
    CanonicalRep,
    FamilyContractError,
    canonical_rep,
    trichotomy,
    sperner_witness,
)
from .rank import (
    symbolic_rank,
    closure_index,
    brute_derivative,
    index_compare,
)
from .colorings import (
    Coloring,
    ColoringProtocolError,
    ExternalColoring,
    get_coloring,
    hash_coloring,
    registry_names,
)
from .certificates import (
    Certificate,
    CertificateError,
    from_json,
    to_json,
    hereditary_predicate,
    transcript_digest,
    verify_certificate,
)
from .search import (
    homogenize,
    sperner_refine,
    hereditary_dichotomy,
    rank_separation,
    detect_chain,
    schreier_transfer,
    large_index_transfer,
    recheck,
)

__version__ = "0.1.0"

# name -> submodule that defines it; the submodules are served too
_DEFERRED = {
    "MaskFamily": "masks",
    "masks_to_sets": "masks",
    "sort_masks": "masks",
    "run_all": "acceptance",
    "run_one": "acceptance",
    "masks": "masks",
    "acceptance": "acceptance",
}


def __getattr__(name):
    module = _DEFERRED.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_DEFERRED))

__all__ = [
    "Ordinal",
    "ZERO",
    "ONE",
    "OMEGA",
    "as_ordinal",
    "from_int",
    "parse_ordinal",
    "format_ordinal",
    "compare",
    "add",
    "omega_power",
    "nat_multiple",
    "classify",
    "predecessor",
    "descend",
    "fundamental",
    "wainer_fundamental",
    "Window",
    "as_finset",
    "parse_finset",
    "format_finset",
    "parse_window",
    "spread",
    "FamilySpec",
    "parse_family",
    "enumerate_family",
    "section",
    "star_closure",
    "check_thin",
    "check_sperner",
    "uniform_member",
    "uniform_star",
    "residual_after",
    "union_schreier_member",
    "enumerate_union_schreier",
    "CanonicalRep",
    "FamilyContractError",
    "canonical_rep",
    "trichotomy",
    "sperner_witness",
    "symbolic_rank",
    "closure_index",
    "brute_derivative",
    "index_compare",
    "MaskFamily",
    "masks_to_sets",
    "sort_masks",
    "Coloring",
    "ColoringProtocolError",
    "ExternalColoring",
    "get_coloring",
    "hash_coloring",
    "registry_names",
    "Certificate",
    "CertificateError",
    "from_json",
    "to_json",
    "hereditary_predicate",
    "transcript_digest",
    "verify_certificate",
    "homogenize",
    "sperner_refine",
    "hereditary_dichotomy",
    "rank_separation",
    "detect_chain",
    "schreier_transfer",
    "large_index_transfer",
    "recheck",
    "run_all",
    "run_one",
    "__version__",
]
