import copy
import pickle
import re
import resource
import subprocess
import sys
from itertools import product
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from syzstab.errors import (
    DuplicateMemberError,
    FamilyFormatError,
    MismatchedVariablesError,
)
from syzstab.monomial import (
    MAX_DEGREE,
    MAX_FAMILY_CELLS,
    Monomial,
    MonomialFamily,
    exponent_vectors_of_degree,
)

from conftest import CHILD_ENV, canon_key


def test_monomial_basics():
    m = Monomial((5, 0, 3))
    assert m.var_count == 3
    assert m.degree == 8
    assert not m.is_unit
    assert Monomial((0, 0, 0, 0)).is_unit


def test_monomial_validation():
    with pytest.raises(ValueError):
        Monomial((3,))  # single variable
    with pytest.raises(ValueError):
        Monomial((1, -2))
    with pytest.raises(ValueError):
        Monomial((10**6, 1))  # degree over the cap
    with pytest.raises(TypeError, match="'int' object is not iterable"):
        Monomial(5)  # not a sequence of exponents


@pytest.mark.parametrize(
    "exponents, shown",
    [
        ((1.7, 2), "1.7"),
        ((2.0, 1), "2.0"),
        ((0, 1, 0.5), "0.5"),
        (("3", "4"), "'3'"),
        ((3, None), "None"),
    ],
)
def test_monomial_refuses_non_integral_exponents(exponents, shown):
    # int() would truncate 1.7 to 1 and read "3" as 3; the exponent is
    # refused instead, by name.
    with pytest.raises(ValueError, match=f"^exponent {re.escape(shown)} is not an integer$"):
        Monomial(exponents)


@pytest.mark.parametrize(
    "wrap", [list, lambda t: (e for e in t), iter], ids=["list", "generator", "iterator"]
)
@pytest.mark.parametrize("exponents, shown", [((1, "a"), "'a'"), ((1, 2.5), "2.5")])
def test_monomial_reads_any_iterable_once(wrap, exponents, shown):
    # A generator or iterator is read once, so the exponent that index()
    # refuses is still there to be named.
    assert Monomial(wrap((1, 2))) == Monomial((1, 2))
    with pytest.raises(ValueError, match=f"^exponent {re.escape(shown)} is not an integer$"):
        Monomial(wrap(exponents))


def test_family_refuses_non_integral_exponents():
    with pytest.raises(ValueError, match="exponent 1.9 is not an integer"):
        MonomialFamily.of([(1.9, 0.2), (0, 2)])
    with pytest.raises(ValueError, match="exponent '2' is not an integer"):
        MonomialFamily.of([(1, 1), ("2", 0)])


def test_monomial_accepts_integer_like_exponents():
    np = pytest.importorskip("numpy")
    for exponents in ((True, 2), (np.int64(1), np.uint8(2)), np.array([1, 2])):
        m = Monomial(exponents)
        assert m == Monomial((1, 2))
        assert all(type(e) is int for e in m.exponents)
        assert repr(m) == "Monomial(exponents=(1, 2))"


def test_parse_and_str_forms():
    assert Monomial.parse("x0^5 x2^3", var_count=3) == Monomial((5, 0, 3))
    assert Monomial.parse("X1^2 X2", var_count=3) == Monomial((0, 2, 1))
    assert Monomial.parse("1", var_count=3).is_unit
    assert str(Monomial((5, 0, 3))) == "x0^5 x2^3"
    assert str(Monomial((0, 0))) == "1"
    with pytest.raises(FamilyFormatError):
        Monomial.parse("x9^2", var_count=3)  # index beyond declared vars
    with pytest.raises(FamilyFormatError):
        Monomial.parse("y^2", var_count=3)
    with pytest.raises(FamilyFormatError):
        Monomial.parse("x0^2000000 x1")  # degree over the cap
    # Without var_count, parse infers it as from_text does for one line.
    for text in ("x0^5 x2^3", "x1", "5 0 3", "0 0"):
        (member,) = MonomialFamily.from_text(text).members
        assert Monomial.parse(text) == member
    for text in ("1", "5", "x0 y"):
        with pytest.raises(FamilyFormatError):
            MonomialFamily.from_text(text)
        with pytest.raises(FamilyFormatError):
            Monomial.parse(text)
    # int() refuses more than 4,300 digits, and '²' passes str.isdigit.
    long = "9" * 5000
    for text in (f"x0^{long} x1", f"{long} 0", f"x{long}", "² 0"):
        with pytest.raises(FamilyFormatError, match="cannot read number"):
            Monomial.parse(text)


@pytest.mark.parametrize(
    "args, message",
    [
        (("",), "line 1: empty monomial"),
        (("y^2", 3), "line 1: unrecognized token 'y^2'"),
        (("² 0",), "line 1: cannot read number '²'"),
        (("x9^2", 3), "line 1: variable x9 out of range for 3 variables"),
        # Failures of the inferred variable count name no line, as in
        # from_text, where they concern every line at once.
        (("5",), "exponent vectors need at least 2 entries"),
        (("1",), "cannot infer variable count"),
    ],
)
def test_parse_errors_name_the_line_as_from_text_does(args, message):
    with pytest.raises(FamilyFormatError) as info:
        Monomial.parse(*args)
    assert str(info.value) == message
    # A family of that one line fails alike, but an empty text has no line.
    if len(args) == 1 and args[0]:
        with pytest.raises(FamilyFormatError) as info:
            MonomialFamily.from_text(args[0])
        assert str(info.value) == message


# Parses a huge inferred and a huge pinned variable count in a child
# process with a 512 MB address-space limit and reports how each was refused.
PARSE_PROBE = """
from syzstab.errors import FamilyFormatError
from syzstab.monomial import Monomial
for text, var_count in (("x99999999", None), ("x0", 10**8)):
    try:
        Monomial.parse(text, var_count)
    except FamilyFormatError as err:
        print("refused:", err)
"""


def test_parse_refuses_huge_variable_counts_before_allocating():
    # Without the member-cell cap each would build [0] * 10**8, about 800 MB.
    limit = 512 * 2**20
    proc = subprocess.run(
        [sys.executable, "-c", PARSE_PROBE],
        capture_output=True,
        text=True,
        timeout=30,
        env=CHILD_ENV,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2, proc.stdout
    assert all(line.startswith("refused: family too large: ") for line in lines)


def test_family_sorts_canonically():
    fam = MonomialFamily.of([(0, 5, 0), (4, 1, 0), (5, 0, 0), (0, 0, 5)])
    assert [m.exponents for m in fam.members] == [
        (5, 0, 0),
        (4, 1, 0),
        (0, 5, 0),
        (0, 0, 5),
    ]
    assert fam.n == 4
    assert fam.degrees == (5, 5, 5, 5)
    assert fam.is_equal_degree
    assert fam.degree_sum == 20


def test_family_rejects_bad_input():
    # Every way to an empty family ends in the constructor's one check.
    for empty in (
        lambda: MonomialFamily.of([]),
        lambda: MonomialFamily.of([], var_count=2),
        lambda: MonomialFamily(3, ()),
    ):
        with pytest.raises(FamilyFormatError, match="^a family needs at least one member$"):
            empty()
    with pytest.raises(DuplicateMemberError):
        MonomialFamily.of([(1, 2), (1, 2)])
    with pytest.raises(MismatchedVariablesError):
        MonomialFamily.of([(1, 2), (1, 2, 0)])


def test_m_primary_and_multiples():
    fam = MonomialFamily.of([(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0)])
    assert fam.is_m_primary()
    assert fam.overall_gcd().is_unit
    missing_power = MonomialFamily.of([(2, 0, 0), (0, 2, 0), (0, 1, 1)])
    assert not missing_power.is_m_primary()


def test_from_text_variants():
    text = """# a comment
vars=3
x0^5
x1^5
x2^5
x0^4 x1
"""
    fam = MonomialFamily.from_text(text)
    assert fam.var_count == 3
    assert fam.n == 4

    # bare exponent vectors, dimension inferred from their length
    fam2 = MonomialFamily.from_text("5 0 0\n0 5 0\n0 0 5\n4 1 0\n")
    assert fam2 == fam

    # compact lines without a header: dimension from the largest index
    fam3 = MonomialFamily.from_text("x0^5\nx1^5\nx2^5\nx0^4 x1\n")
    assert fam3 == fam


def test_from_text_errors_carry_line_numbers():
    with pytest.raises(FamilyFormatError) as err:
        MonomialFamily.from_text("x0^2\nwhat\n")
    assert "line 2" in str(err.value)
    with pytest.raises(FamilyFormatError) as err:
        MonomialFamily.from_text("x0\n# degree over the cap\nx1^2000000\n")
    assert "line 3" in str(err.value)
    with pytest.raises(FamilyFormatError):
        MonomialFamily.from_text("")
    with pytest.raises(FamilyFormatError):
        MonomialFamily.from_text("vars=1\nx0^2\n")


@pytest.mark.parametrize(
    "text, error, message",
    [
        pytest.param("# a comment\n", FamilyFormatError, "no monomials found",
                     id="no-monomials"),
        pytest.param("x0\nx1 y\n", FamilyFormatError,
                     "line 2: unrecognized token 'y'", id="unrecognized-token"),
        pytest.param("x0\n\u00b2 0\n", FamilyFormatError,
                     "line 2: cannot read number '\u00b2'", id="unreadable-number"),
        pytest.param(f"x0^{'9' * 5000} x1\n", FamilyFormatError,
                     "line 1: cannot read number of 5000 digits", id="long-number"),
        pytest.param("1 0\n1 0 0\n", FamilyFormatError,
                     "inconsistent exponent vector lengths [2, 3]",
                     id="inconsistent-lengths"),
        pytest.param("5\n", FamilyFormatError,
                     "exponent vectors need at least 2 entries", id="short-vector"),
        pytest.param("1\n", FamilyFormatError, "cannot infer variable count",
                     id="no-variable-count"),
        pytest.param("vars=1000001\nx0\n", FamilyFormatError,
                     "family too large: 1 members x 1000001 variables exceeds "
                     "the limit of 1000000 member cells", id="too-many-cells"),
        pytest.param("vars=3\nx0\n1 0\n", FamilyFormatError,
                     "line 3: expected 3 exponents, got 2", id="vector-length"),
        # The first index out of range in token order, not the largest.
        pytest.param("vars=2\nx0\nx1 x7 x5 x7\n", FamilyFormatError,
                     "line 3: variable x7 out of range for 2 variables",
                     id="index-out-of-range"),
        pytest.param("x0\n1000001 0\n", FamilyFormatError,
                     "line 2: degree 1000001 exceeds the limit 1000000",
                     id="degree-over-cap"),
        pytest.param("x0\nvars=2\n", FamilyFormatError,
                     "line 2: vars= header must come first", id="late-header"),
        pytest.param("# a comment\nvars=1\nx0\n", FamilyFormatError,
                     "line 2: vars= must be at least 2", id="header-below-2"),
        pytest.param("x0\nx1\nx0\n", DuplicateMemberError, "duplicate member x0",
                     id="duplicate-member"),
    ],
)
def test_from_text_error_messages(text, error, message):
    with pytest.raises(error) as err:
        MonomialFamily.from_text(text)
    assert type(err.value) is error
    assert str(err.value) == message


def test_from_text_refuses_more_member_cells_than_the_cap():
    # Checked before any member is built, so no 10^8-entry vector is made.
    for text in ("x99999999\n", "vars=100000000\nx0\nx1\n"):
        with pytest.raises(FamilyFormatError, match="member cells"):
            MonomialFamily.from_text(text)
    width = MAX_FAMILY_CELLS // 2
    assert MonomialFamily.from_text(f"vars={width}\nx0\nx1\n").n == 2
    with pytest.raises(FamilyFormatError, match="member cells"):
        MonomialFamily.from_text(f"vars={width + 1}\nx0\nx1\n")


def test_text_round_trip():
    fam = MonomialFamily.of([(5, 0, 0), (0, 5, 0), (0, 0, 5), (2, 2, 1)])
    assert MonomialFamily.from_text(fam.to_text()) == fam
    assert fam.to_text().startswith("vars=3\n")
    assert str(MonomialFamily.of([(1, 0), (0, 1)])) == "{x0, x1}"


def test_family_to_json_dict():
    fam = MonomialFamily.of([(0, 0, 5), (2, 2, 1), (0, 5, 0), (5, 0, 0)])
    assert fam.to_json_dict() == {
        "vars": 3,
        "members": [[5, 0, 0], [2, 2, 1], [0, 5, 0], [0, 0, 5]],
    }


def test_exponent_vectors_of_degree():
    vecs = list(exponent_vectors_of_degree(3, 2))
    assert vecs == [
        (2, 0, 0),
        (1, 1, 0),
        (1, 0, 1),
        (0, 2, 0),
        (0, 1, 1),
        (0, 0, 2),
    ]
    assert len(list(exponent_vectors_of_degree(4, 3))) == 20
    for var_count in (2, 3, 4):
        for degree in range(5):
            monos = list(map(Monomial, exponent_vectors_of_degree(var_count, degree)))
            assert monos == sorted(set(monos), key=canon_key)
            assert {m.degree for m in monos} == {degree}
            assert len(monos) == comb(var_count - 1 + degree, degree)


def _same_value(g, reference):
    """``g`` and ``reference`` are one value to every consumer of it."""
    assert g == reference and reference == g
    assert hash(g) == hash(reference)
    assert repr(g) == repr(reference)
    for again in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
        assert again == reference
        assert repr(again) == repr(reference)
        assert type(again) is Monomial


@st.composite
def monomials(draw, var_count=None):
    v = var_count or draw(st.integers(min_value=2, max_value=5))
    exps = draw(st.lists(st.integers(0, 9), min_size=v, max_size=v))
    return Monomial(tuple(exps))


@given(monomials())
@settings(max_examples=200, deadline=None)
def test_str_parse_round_trip(m):
    assert Monomial.parse(str(m), var_count=m.var_count) == m


def test_gcd_at_the_degree_cap():
    a = Monomial((MAX_DEGREE, 0, 0))
    b = Monomial((MAX_DEGREE - 1, 1, 0))
    c = Monomial((0, 0, MAX_DEGREE))
    fam = MonomialFamily.of([a, b, c])
    _same_value(fam.overall_gcd(), Monomial((0, 0, 0)))
    _same_value(MonomialFamily.of([a, b]).overall_gcd(), Monomial((MAX_DEGREE - 1, 0, 0)))


@given(st.integers(2, 4), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_degree_enumeration_is_complete_and_sorted(v, d):
    from math import comb

    vecs = list(exponent_vectors_of_degree(v, d))
    assert len(vecs) == comb(d + v - 1, v - 1)
    assert len(set(vecs)) == len(vecs)
    assert all(sum(vec) == d for vec in vecs)
    assert vecs == sorted(vecs, reverse=True)


def test_enumerator_matches_sorted_product_reference():
    # The order bench pools, random_family and acceptance test 1 draw from:
    # every vector of the degree, descending lexicographically.
    for v in range(2, 7):
        for d in range(9):
            reference = sorted(
                (
                    (*head, d - sum(head))
                    for head in product(range(d + 1), repeat=v - 1)
                    if sum(head) <= d
                ),
                reverse=True,
            )
            assert list(exponent_vectors_of_degree(v, d)) == reference, (v, d)


@pytest.mark.parametrize(
    "var_count, degree, message",
    [
        (1, 2, "need at least two variables"),
        (0, 0, "need at least two variables"),
        (-3, 2, "need at least two variables"),
        (2, -1, "degree must be nonnegative"),
        (5, -7, "degree must be nonnegative"),
    ],
)
def test_enumerator_errors(var_count, degree, message):
    # Raised at the call, before the first vector is asked for.
    with pytest.raises(ValueError) as err:
        exponent_vectors_of_degree(var_count, degree)
    assert str(err.value) == message


def test_enumerator_needs_no_recursion():
    # Sixty variables under a recursion limit of 40, and the 1,200
    # variables a recursive walk could not reach at the default limit.
    code = """
import sys
from math import comb
from syzstab.monomial import exponent_vectors_of_degree
sys.setrecursionlimit(40)
for v, d in [(60, 2), (1200, 1)]:
    vecs = list(exponent_vectors_of_degree(v, d))
    assert len(vecs) == comb(v - 1 + d, d)
    assert all(len(vec) == v and sum(vec) == d for vec in vecs)
    assert all(a > b for a, b in zip(vecs, vecs[1:]))
    print(len(vecs))
"""
    done = subprocess.run(
        [sys.executable, "-c", code], env=CHILD_ENV, capture_output=True, text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1830", "1200"]


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_family_order_matches_canon_key_reference(data):
    # Mixed degrees over a small exponent range, so duplicates are common.
    v = data.draw(st.integers(2, 5))
    vector = st.tuples(*[st.integers(0, 3)] * v)
    members = [Monomial(e) for e in data.draw(st.lists(vector, min_size=1, max_size=30))]
    reference = sorted(members, key=canon_key)
    repeats = [a for a, b in zip(reference, reference[1:]) if a == b]
    if repeats:
        with pytest.raises(DuplicateMemberError) as err:
            MonomialFamily(v, tuple(members))
        assert str(err.value) == f"duplicate member {repeats[0]}"
    else:
        family = MonomialFamily(v, tuple(members))
        assert family.members == tuple(sorted(set(members), key=canon_key))


def m_primary_reference(fam):
    """The per-member definition: a pure power of every variable occurs."""
    covered = [False] * fam.var_count
    for m in fam.members:
        if sum(e > 0 for e in m.exponents) == 1:
            covered[next(i for i, e in enumerate(m.exponents) if e > 0)] = True
    return all(covered)


@st.composite
def families_with_powers(draw):
    """Families with zero, one or two pure powers of each variable, maybe
    the unit, and a few other members."""
    v = draw(st.integers(2, 4))
    members = set()
    for i in range(v):
        for e in draw(st.sets(st.integers(1, 4), max_size=2)):
            members.add(tuple(e if j == i else 0 for j in range(v)))
    if draw(st.booleans()):
        members.add((0,) * v)
    members |= draw(st.sets(st.tuples(*[st.integers(0, 3)] * v), max_size=4))
    return MonomialFamily.of(sorted(members or {(0,) * v}))


@given(families_with_powers())
@example(MonomialFamily.of([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)]))
@example(MonomialFamily.of([(0, 0, 0), (2, 0, 0), (0, 2, 0), (1, 0, 1)]))
@example(MonomialFamily.of([(2, 0, 0), (0, 2, 0), (1, 0, 1)]))
@example(MonomialFamily.of([(2, 0, 0), (3, 0, 0), (0, 2, 0), (0, 0, 1)]))
@example(MonomialFamily.of([(2, 0, 0), (3, 0, 0), (0, 0, 1)]))
@settings(max_examples=300, deadline=None)
def test_m_primary_matches_per_member_definition(fam):
    assert fam.is_m_primary() == m_primary_reference(fam)
