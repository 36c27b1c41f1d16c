from fractions import Fraction
from math import comb

import pytest

from syzstab.errors import ExcludedCaseError, UnsupportedRangeError
from syzstab.moduli import (
    chern_and_slope,
    cohomology_table,
    moduli_dimension,
)


def test_chern_and_slope():
    assert chern_and_slope(4, 3) == (-12, Fraction(-4))
    assert chern_and_slope(5, 2) == (-10, Fraction(-5, 2))
    with pytest.raises(UnsupportedRangeError):
        chern_and_slope(1, 3)
    with pytest.raises(UnsupportedRangeError):
        chern_and_slope(4, 0)


def test_component_dimension_fixtures():
    assert moduli_dimension(2, 4, 3) == 28
    assert moduli_dimension(4, 5, 1) == 0
    assert moduli_dimension(2, 3, 2) == 9


def test_plane_report_fields():
    rep = cohomology_table(2, 4, 3)
    assert rep.rank == 3
    assert rep.c1 == -12
    assert rep.slope == Fraction(-4)
    assert (rep.h0, rep.h1, rep.h2, rep.h3) == (0, 1, 4, 0)
    assert rep.h1_twist == comb(5, 3) - 4 == 6
    assert rep.ext1 == 4 * 6 + 4 == 28
    assert rep.component_dim == 28


def test_higher_dimension_report_fields():
    rep = cohomology_table(4, 6, 2)
    assert (rep.h0, rep.h1, rep.h2, rep.h3) == (0, 1, 0, 0)
    assert rep.h1_twist == comb(6, 2) - 6 == 9
    assert rep.ext1 == 54
    assert rep.component_dim == 54


def test_plane_curve_count_formula():
    # On the plane the component dimension splits into a twist part and a
    # genuine h^2 correction.
    for d in range(1, 11):
        for n in range(3, comb(d + 2, 2) + 1):
            if (n, d) == (5, 2):
                continue
            rep = cohomology_table(2, n, d)
            expected = n * comb(d + 2, 2) + n * comb(d - 1, 2) - n * n
            assert rep.component_dim == expected, (n, d)


def test_higher_dimension_formula():
    for N in (4, 5, 6):
        for d in range(1, 6):
            for n in range(N + 1, comb(d + 2, 2) + N - 1):
                rep = cohomology_table(N, n, d)
                assert rep.h2 == 0
                assert rep.ext1 == n * rep.h1_twist
                assert rep.component_dim == n * comb(d + N, N) - n * n


def test_excluded_cases():
    with pytest.raises(ExcludedCaseError):
        cohomology_table(3, 5, 2)
    with pytest.raises(ExcludedCaseError):
        cohomology_table(3, 4, 1)
    with pytest.raises(ExcludedCaseError):
        cohomology_table(2, 5, 2)


def test_unsupported_ranges():
    with pytest.raises(UnsupportedRangeError):
        cohomology_table(2, 30, 2)  # above the full set of conics
    with pytest.raises(UnsupportedRangeError):
        cohomology_table(2, 2, 5)  # below the minimum size
    with pytest.raises(UnsupportedRangeError):
        cohomology_table(1, 3, 5)
    with pytest.raises(UnsupportedRangeError):
        cohomology_table(4, 6, 0)


def test_refuses_invariants_too_long_to_print():
    # Printing any of these ended in a ValueError; the third first spent
    # about 40 s in comb.  The binomial bound refuses them before comb runs.
    for N, n, d in (
        (100_000, 100_001, 100_000),
        (2, 4, 10**2200),
        (1_000_000, 1_000_001, 1_000_000),
    ):
        with pytest.raises(UnsupportedRangeError, match="C\\(N\\+d, d\\) has more"):
            cohomology_table(N, n, d)
    # Below that bound the report's values are checked exactly: h2 and ext1
    # have 4,301 digits here, and 4,300, the most that prints, just below.
    with pytest.raises(UnsupportedRangeError, match="h2 has more than 4300 digits"):
        cohomology_table(2, 4, 10**2150)
    d = 5 * 10**2149
    report = cohomology_table(2, 4, d)
    assert len(str(report.ext1)) == 4300
    assert report.ext1 == 4 * comb(d + 2, 2) + 4 * comb(d - 1, 2) - 16
    # The out-of-range message would print the bound on n itself.
    with pytest.raises(UnsupportedRangeError, match="largest n"):
        cohomology_table(2, 2, 10**2200)


def test_json_shape():
    out = cohomology_table(2, 4, 3).to_json_dict()
    assert out == {
        "N": 2,
        "n": 4,
        "d": 3,
        "rank": 3,
        "c1": -12,
        "slope": [-4, 1],
        "h0": 0,
        "h1": 1,
        "h2": 4,
        "h3": 0,
        "h1_twist": 6,
        "ext1": 28,
        "component_dim": 28,
    }
