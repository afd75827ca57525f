"""Exact arithmetic for Keller maps over truncated local rings."""

from .errors import (
    ArityMismatch,
    BadPrime,
    BudgetExceeded,
    DegenerateComponent,
    DegenerateKernel,
    InvalidInput,
    KellermapsError,
    NoRootWithinBudget,
    NonSingular,
    NonUnitInverse,
    NotKeller,
    NotUnimodularVector,
    ParseError,
    PrecisionTooLow,
    PreconditionFailed,
    RingMismatch,
    SizeGuardExceeded,
    TheoremViolation,
    ValidationError,
    WrongCharacteristic,
    WrongRingKind,
)
from .rings import (
    DEFAULT_BUDGET,
    Ring,
    RingElement,
    build_unramified,
    enumerate_residue_points,
    lift_from_residue,
    residue_field,
    truncated_fpt,
    truncated_zp,
)
from .polynomials import (
    MultiPoly,
    PolyMap,
    functional_eq_on_residue,
    map_compose,
    residue_values,
)
from .jacobian import (
    AffineKellerAuto,
    PolyMatrix,
    apply_affine,
    complete_to_sl,
    det_poly_matrix,
    is_keller,
    jacobian_matrix,
    random_affine_keller,
    repeat_map,
    translate_map,
)
from .unimodular import (
    UnimodularityReport,
    bezout_check,
    certify_q_minus_1,
    check_unimodular,
    degree_bound_predicate,
    dim2_refinement_check,
    random_triangular_keller,
    residue_zero_count,
)
from .hensel import (
    HenselLiftResult,
    discriminant,
    fiber_points,
    hensel_lift,
    lift_univariate_root,
    resultant,
)
from .constructions import (
    PairTransitivityWitness,
    QuasiDruzkowskiWitness,
    char_p_counterexample,
    find_d_unimodular_extension,
    g_composition_example,
    g_composition_zero_defect,
    invariance_probe,
    pair_transitivity,
    quasi_druzkowski_witness,
    restrict_scalars,
)
from .parsing import map_digest, map_document, parse_map_document, parse_poly, poly_text

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
