"""ulrich-forge: exact computational commutative algebra for Ulrich-existence
certificates over monomial and presented subrings of polynomial rings.

The verify path is imported eagerly.  The sequence-analysis layer (`finlen`,
`koszul`, `sequences`), which on the command line only the `koszul` and
`analyze` subcommands use, is imported on first access to one of its names
(PEP 562).
"""

from .fields import QQ, PrimeField, field_from_name
from .orders import GREVLEX, LEXICOGRAPHIC, BlockOrder
from .poly import Polynomial, PolyRing
from .parse import ParseError, parse_generator_list, parse_polynomial
from .groebner import Ideal, buchberger, ideal_multiplicity
from .semigroup import (
    AffineSemigroup,
    gap_set_auto,
    hilbert_samuel,
    localize_at_face,
    multiplicity,
    nu_max_ideal,
    sg_member,
)
from .subring import (
    BuilderParams,
    HypothesisFailure,
    PresentedSubring,
    build_ring,
    parse_ring_spec,
    s2_multiplier_witness,
)
from .reduction import ReductionCertificate, is_integral, is_reduction, verify_minimal_reduction
from .report import Check, VerificationReport
from .pipelines import (
    PipelineError,
    localization_semigroup,
    no_ulrich_semigroup,
    no_ulrich_subring,
    reduction_ideal,
    verify_localization,
    verify_no_ulrich,
    verify_ulrich_equivalence,
)

__version__ = "0.1.0"

# name -> submodule it is loaded from on first access; a submodule's own name
# maps to itself
_LAZY = {
    **dict.fromkeys(("finlen", "FiniteLengthModule"), "finlen"),
    **dict.fromkeys((
        "koszul",
        "KoszulTally",
        "MonomialModule",
        "colon_module",
        "koszul_cyclic",
        "koszul_finlen",
        "koszul_ideal_module",
        "koszul_monomial_R",
    ), "koszul"),
    **dict.fromkeys((
        "sequences",
        "AsymptoticTable",
        "DirectSum",
        "FinLenModule",
        "FreeModule",
        "IdealModule",
        "MonomialRModule",
        "SequenceFamily",
        "analyze",
        "direct_sum",
        "parse_family_spec",
        "saturate_over_S",
        "torsion_reduce",
    ), "sequences"),
}

# the eager names, their submodules and those the submodules import, then
# the lazy names
__all__ = [
    "QQ", "PrimeField", "field_from_name",
    "GREVLEX", "LEXICOGRAPHIC", "BlockOrder",
    "Polynomial", "PolyRing",
    "ParseError", "parse_generator_list", "parse_polynomial",
    "Ideal", "buchberger", "ideal_multiplicity",
    "AffineSemigroup", "gap_set_auto", "hilbert_samuel", "localize_at_face",
    "multiplicity", "nu_max_ideal", "sg_member",
    "BuilderParams", "HypothesisFailure", "PresentedSubring", "build_ring",
    "parse_ring_spec", "s2_multiplier_witness",
    "ReductionCertificate", "is_integral", "is_reduction", "verify_minimal_reduction",
    "Check", "VerificationReport",
    "PipelineError", "localization_semigroup", "no_ulrich_semigroup",
    "no_ulrich_subring", "reduction_ideal", "verify_localization",
    "verify_no_ulrich", "verify_ulrich_equivalence",
    "fields", "orders", "poly", "parse", "groebner", "semigroup", "subring",
    "reduction", "report", "pipelines", "linalg", "newton", "patterns",
    *_LAZY,
]


def __getattr__(name):
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = module if name == module_name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
