"""Exact arithmetic for Keller maps over truncated local rings.

The package namespace is lazy (PEP 562): a public name or a submodule is
imported on first access, so a process compiles only the modules it uses.
"""

import importlib

_EXPORTS = {
    "errors": (
        "ArityMismatch",
        "BadPrime",
        "BudgetExceeded",
        "DegenerateComponent",
        "DegenerateKernel",
        "InvalidInput",
        "KellermapsError",
        "NoRootWithinBudget",
        "NonSingular",
        "NonUnitInverse",
        "NotKeller",
        "NotUnimodularVector",
        "ParseError",
        "PrecisionTooLow",
        "PreconditionFailed",
        "RingMismatch",
        "SizeGuardExceeded",
        "TheoremViolation",
        "ValidationError",
        "WrongCharacteristic",
        "WrongRingKind",
    ),
    "rings": (
        "DEFAULT_BUDGET",
        "Ring",
        "RingElement",
        "build_unramified",
        "enumerate_residue_points",
        "lift_from_residue",
        "residue_field",
        "truncated_fpt",
        "truncated_zp",
    ),
    "polynomials": (
        "MultiPoly",
        "PolyMap",
        "functional_eq_on_residue",
        "map_compose",
        "residue_values",
    ),
    "jacobian": (
        "AffineKellerAuto",
        "PolyMatrix",
        "apply_affine",
        "complete_to_sl",
        "det_poly_matrix",
        "is_keller",
        "jacobian_matrix",
        "random_affine_keller",
        "repeat_map",
        "translate_map",
    ),
    "unimodular": (
        "UnimodularityReport",
        "bezout_check",
        "certify_q_minus_1",
        "check_unimodular",
        "degree_bound_predicate",
        "dim2_refinement_check",
        "random_triangular_keller",
        "residue_zero_count",
    ),
    "hensel": (
        "HenselLiftResult",
        "discriminant",
        "fiber_points",
        "hensel_lift",
        "lift_univariate_root",
        "resultant",
    ),
    "constructions": (
        "PairTransitivityWitness",
        "QuasiDruzkowskiWitness",
        "char_p_counterexample",
        "find_d_unimodular_extension",
        "g_composition_example",
        "g_composition_zero_defect",
        "invariance_probe",
        "pair_transitivity",
        "quasi_druzkowski_witness",
        "restrict_scalars",
    ),
    "parsing": ("map_digest", "map_document", "parse_map_document", "parse_poly", "poly_text"),
}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

# `from kellermaps import *` binds every public name and every library
# module; the command-line module stays out of it
__all__ = sorted([*_HOME, *_EXPORTS])

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
