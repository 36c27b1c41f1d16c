"""Verification and construction toolkit for (semi)stability of syzygy
bundles attached to m-primary families of monomials.

Importing the package loads none of its modules: each public name is
imported from its home module on first use, so that a process loads only
what it runs.
"""

from importlib import import_module

# Home module of each public name; ``__getattr__`` resolves them.
_EXPORTS = {
    "criterion": (
        "Stability",
        "StabilityVerdict",
        "SubsetWitness",
        "a_seq",
        "check_brute_force",
        "check_efficient",
        "equal_degree_margin",
        "family_slope",
        "gcd_closure",
        "subset_quotient",
        "verify_verdict",
    ),
    "errors": (
        "CapacityError",
        "CommonFactorError",
        "DuplicateMemberError",
        "Error",
        "ExcludedCaseError",
        "FamilyFormatError",
        "InvalidFamilyError",
        "InvalidVerdictError",
        "MismatchedVariablesError",
        "UnsupportedRangeError",
    ),
    "families": (
        "FamilyRecipe",
        "generate",
        "generate_P2",
        "generate_P31",
        "generate_P32",
        "generate_P33",
        "generate_P34",
        "generate_full_set",
        "generate_pure_powers",
    ),
    "moduli": ("ModuliReport", "chern_and_slope", "cohomology_table", "moduli_dimension"),
    "monomial": ("Monomial", "MonomialFamily", "exponent_vectors_of_degree"),
    "search": ("SearchReport", "exhaustive_search"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_HOME), "__version__"]

__version__ = "0.1.0"


def __getattr__(name: str):
    # Any other name, a submodule's included, must raise AttributeError so
    # that ``from syzstab import criterion`` falls back to importing it.
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
