"""Exception types shared across the package."""

from __future__ import annotations


class Error(Exception):
    """Base class for all syzstab errors."""


class FamilyFormatError(Error):
    """A family description (text or JSON) could not be parsed."""


class MismatchedVariablesError(Error):
    """Monomials over different variable counts were combined."""


class DuplicateMemberError(Error):
    """A family listed the same monomial twice."""


class InvalidFamilyError(Error):
    """A family does not meet the preconditions of an operation."""


class CommonFactorError(Error):
    """All members share a non-trivial common factor, so the family does
    not define a syzygy bundle; divide it out and re-check the quotient."""


class InvalidVerdictError(Error):
    """A stability verdict does not carry the witness its status needs, or
    the witness does not recompute on the claimed side of the slope."""


class CapacityError(Error):
    """An enumeration or closure would exceed its configured budget."""


class UnsupportedRangeError(Error):
    """No construction is available for the requested parameters."""


class ExcludedCaseError(Error):
    """The requested parameters fall in a case the dimension formulas
    deliberately do not cover."""
