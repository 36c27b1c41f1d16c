"""Verification and construction toolkit for (semi)stability of syzygy
bundles attached to m-primary families of monomials."""

from .criterion import (
    Stability,
    StabilityVerdict,
    SubsetWitness,
    a_seq,
    check_brute_force,
    check_efficient,
    equal_degree_margin,
    family_slope,
    gcd_closure,
    subset_quotient,
    verify_verdict,
)
from .errors import (
    CapacityError,
    CommonFactorError,
    DuplicateMemberError,
    Error,
    ExcludedCaseError,
    FamilyFormatError,
    InvalidFamilyError,
    InvalidVerdictError,
    MismatchedVariablesError,
    UnsupportedRangeError,
)
from .families import (
    FamilyRecipe,
    generate,
    generate_P2,
    generate_P31,
    generate_P32,
    generate_P33,
    generate_P34,
    generate_full_set,
    generate_pure_powers,
)
from .moduli import ModuliReport, chern_and_slope, cohomology_table, moduli_dimension
from .monomial import (
    Monomial,
    MonomialFamily,
    exponent_vectors_of_degree,
)
from .search import SearchReport, exhaustive_search

__all__ = [
    "CapacityError",
    "CommonFactorError",
    "DuplicateMemberError",
    "Error",
    "ExcludedCaseError",
    "FamilyFormatError",
    "FamilyRecipe",
    "InvalidFamilyError",
    "InvalidVerdictError",
    "MismatchedVariablesError",
    "ModuliReport",
    "Monomial",
    "MonomialFamily",
    "SearchReport",
    "Stability",
    "StabilityVerdict",
    "SubsetWitness",
    "UnsupportedRangeError",
    "a_seq",
    "check_brute_force",
    "check_efficient",
    "chern_and_slope",
    "cohomology_table",
    "equal_degree_margin",
    "exhaustive_search",
    "exponent_vectors_of_degree",
    "family_slope",
    "gcd_closure",
    "generate",
    "generate_P2",
    "generate_P31",
    "generate_P32",
    "generate_P33",
    "generate_P34",
    "generate_full_set",
    "generate_pure_powers",
    "moduli_dimension",
    "subset_quotient",
    "verify_verdict",
    "__version__",
]

__version__ = "0.1.0"
