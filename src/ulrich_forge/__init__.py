"""ulrich-forge: exact computational commutative algebra for Ulrich-existence
certificates over monomial and presented subrings of polynomial rings."""

from .fields import QQ, PrimeField, field_from_name
from .orders import EQ, GREVLEX, GT, LEXICOGRAPHIC, LT, BlockOrder, compare_monomials, elimination_order
from .poly import Polynomial, PolyRing
from .parse import ParseError, parse_generator_list, parse_polynomial
from .groebner import Ideal, buchberger, ideal_multiplicity
from .semigroup import (
    AffineSemigroup,
    gap_set,
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
    extend_to_S,
    parse_ring_spec,
    s2_multiplier_witness,
)
from .reduction import ReductionCertificate, is_integral, is_reduction, verify_minimal_reduction
from .finlen import FiniteLengthModule
from .koszul import (
    KoszulTally,
    MonomialModule,
    colon_module,
    koszul_cyclic,
    koszul_finlen,
    koszul_ideal_module,
    koszul_monomial_R,
)
from .sequences import (
    AsymptoticTable,
    DirectSum,
    FinLenModule,
    FreeModule,
    IdealModule,
    MonomialRModule,
    SequenceFamily,
    analyze,
    direct_sum,
    parse_family_spec,
    resolution_ranks,
    saturate_over_S,
    torsion_reduce,
)
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
