"""Closed-form invariants of syzygy bundles of n general degree-d forms on
projective N-space: Chern data, cohomology of the twisted endomorphism
bundle, and the dimension of the moduli component the bundle sits on.

All formulas assume the syzygy bundle is stable, which holds in the size
range N+1 <= n <= (d+2)(d+1)/2 + N - 2 except for the plane count
(n, d) = (5, 2) and, pending separate treatment, the three-dimensional
base N = 3; asking for those raises ``ExcludedCaseError``.  Parameters
whose invariants have more digits than Python converts to text by default
raise ``UnsupportedRangeError``, before any binomial too long to print is
computed.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import comb

from ._value import Value
from .errors import ExcludedCaseError, UnsupportedRangeError

#: Most decimal digits an invariant may have: ``str`` and ``json`` refuse
#: to convert a longer int under the interpreter's default limit.
MAX_DIGITS = sys.int_info.default_max_str_digits
_UNPRINTABLE = 10**MAX_DIGITS


def _too_long(what: str) -> UnsupportedRangeError:
    return UnsupportedRangeError(
        f"{what} has more than {MAX_DIGITS} digits, too many to print"
    )


class ModuliReport(Value):
    """Numeric invariants of the syzygy bundle of n degree-d forms on P^N.

    ``h0`` through ``h3`` are the cohomology dimensions of the bundle
    itself, ``h1_twist`` is h^1 of its twist by d, and ``ext1`` is the
    dimension of the space of first-order deformations, which equals the
    dimension of the (generically smooth) moduli component.
    """

    _FIELDS = (
        "N", "n", "d", "rank", "c1", "slope", "h0", "h1", "h2", "h3",
        "h1_twist", "ext1", "component_dim",
    )
    __slots__ = _FIELDS


def chern_and_slope(n: int, d: int) -> tuple[int, Fraction]:
    """First Chern class and slope of the syzygy bundle of n degree-d forms."""
    if n < 2:
        raise UnsupportedRangeError(f"need at least 2 forms, got n={n}")
    if d < 1:
        raise UnsupportedRangeError(f"degree must be at least 1, got {d}")
    return -n * d, Fraction(-n * d, n - 1)


def _validate_range(N: int, n: int, d: int) -> None:
    if N < 2:
        raise UnsupportedRangeError(f"base space must be P^N with N >= 2, got N={N}")
    if d < 1:
        raise UnsupportedRangeError(f"degree must be at least 1, got {d}")
    upper = comb(d + 2, 2) + N - 2
    if not N + 1 <= n <= upper:
        if upper >= _UNPRINTABLE:
            raise _too_long("the largest n the formulas cover")
        raise UnsupportedRangeError(
            f"formulas cover {N + 1} <= n <= {upper} for N={N}, d={d}; got n={n}"
        )
    if N == 3:
        raise ExcludedCaseError(
            "cohomology of the twisted endomorphism bundle on P^3 is not "
            "settled by these formulas"
        )
    if (N, n, d) == (2, 5, 2):
        raise ExcludedCaseError(
            "the plane bundle of five general conics is strictly semistable; "
            "the moduli formulas assume stability"
        )


def cohomology_table(N: int, n: int, d: int) -> ModuliReport:
    """Cohomology and moduli component dimension for the syzygy bundle of n
    general degree-d forms on P^N (N = 2 or N >= 4).

    The deformation space has dimension n * h1_twist + h2; vanishing
    obstructions make it the dimension of the moduli component.
    """
    _validate_range(N, n, d)
    # C(N+d, d) >= ((N+d)/m)^m >= 2^((bits of q - 1) * m), with m = min(N, d)
    # and q = (N+d) // m >= 2.  Refusing here keeps comb from building a
    # number that could not be printed, which takes about 40 s at
    # N = d = 10^6.  Below the bound, C(N+d, d) <= (e(N+d)/m)^m has fewer
    # than 20,000 digits, and the report's own values are checked exactly.
    m = min(N, d)
    if (((N + d) // m).bit_length() - 1) * m >= _UNPRINTABLE.bit_length():
        raise _too_long("C(N+d, d)")
    h1_twist = comb(N + d, d) - n
    h2 = n * comb(d - 1, 2) if N == 2 else 0
    ext1 = n * h1_twist + h2
    c1, slope = chern_and_slope(n, d)
    report = ModuliReport(
        N=N,
        n=n,
        d=d,
        rank=n - 1,
        c1=c1,
        slope=slope,
        h0=0,
        h1=1,
        h2=h2,
        h3=0,
        h1_twist=h1_twist,
        ext1=ext1,
        component_dim=ext1,
    )
    for name, value in zip(report._FIELDS, report._values()):
        # An int is its own numerator, over the denominator 1.
        if max(abs(value.numerator), value.denominator) >= _UNPRINTABLE:
            raise _too_long(name)
    return report


def moduli_dimension(N: int, n: int, d: int) -> int:
    """Dimension of the moduli component containing the syzygy bundle of n
    general degree-d forms on P^N (N = 2 or N >= 4)."""
    return cohomology_table(N, n, d).component_dim
