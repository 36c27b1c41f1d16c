import gc
import json
import tracemalloc
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import comb, prod
from operator import le

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from syzstab import criterion
from syzstab.criterion import (
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
from syzstab.errors import (
    CapacityError,
    CommonFactorError,
    InvalidFamilyError,
    InvalidVerdictError,
)
from syzstab.families import generate, generate_P2
from syzstab.monomial import (
    MAX_DEGREE,
    Monomial,
    MonomialFamily,
    exponent_vectors_of_degree,
)

from conftest import canon_key


def _table(family: MonomialFamily):
    return criterion._thresholds([m.exponents for m in family.members])


def gcd_of(a: Monomial, b: Monomial) -> Monomial:
    """The componentwise minimum of two monomials' exponent vectors."""
    return Monomial(tuple(map(min, a.exponents, b.exponents)))


def check_closure(family: MonomialFamily):
    """``check_efficient`` forced onto the closed-cell scan."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(criterion, "GRID_LIMIT", 0)
        return check_efficient(family)


# Recurring fixtures.  Member indices in the comments refer to the family's
# canonical order (degree ascending, exponents descending-lex).
STABLE_QUINTIC = MonomialFamily.of([(5, 0, 0), (0, 5, 0), (0, 0, 5), (2, 2, 1)])
UNSTABLE_QUINTIC = MonomialFamily.of([(5, 0, 0), (0, 5, 0), (0, 0, 5), (4, 1, 0)])
QUADRICS_52 = MonomialFamily.of(
    [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1)]
)
MIXED_SEMI = MonomialFamily.of([(2, 0), (0, 3), (1, 2)])


def test_family_slope_values():
    assert family_slope(STABLE_QUINTIC) == Fraction(-20, 3)
    assert family_slope(QUADRICS_52) == Fraction(-5, 2)
    assert family_slope(MIXED_SEMI) == Fraction(-8, 2)
    with pytest.raises(InvalidFamilyError):
        family_slope(MonomialFamily.of([(2, 0)]))


def test_subset_quotient_witness_fields():
    # Members sort to x0^5, x0^4 x1, x1^5, x2^5; the violating pair is (0, 1).
    w = subset_quotient(UNSTABLE_QUINTIC, (0, 1))
    assert w.indices == (0, 1)
    assert w.gcd == Monomial((4, 0, 0))
    assert w.gcd_degree == 4
    assert w.size == 2
    assert w.quotient == Fraction(-6)
    assert w.family_slope == Fraction(-20, 3)
    assert w.quotient > w.family_slope
    # Integer-like indices are stored as ints, so the JSON holds no bools.
    np = pytest.importorskip("numpy")
    for indices in ((0, True), (np.int64(0), np.uint8(1))):
        again = subset_quotient(UNSTABLE_QUINTIC, indices)
        assert again == w
        assert all(type(i) is int for i in again.indices)
        assert json.dumps(again.to_json_dict()["indices"]) == "[0, 1]"


def test_subset_quotient_accepts_full_index_set():
    # With no common factor the full set recovers the slope itself.
    w = subset_quotient(STABLE_QUINTIC, (0, 1, 2, 3))
    assert w.quotient == family_slope(STABLE_QUINTIC)


def test_subset_quotient_index_validation():
    with pytest.raises(InvalidFamilyError):
        subset_quotient(STABLE_QUINTIC, (2,))
    with pytest.raises(InvalidFamilyError):
        subset_quotient(STABLE_QUINTIC, (1, 1))
    with pytest.raises(InvalidFamilyError):
        subset_quotient(STABLE_QUINTIC, (0, 4))
    with pytest.raises(InvalidFamilyError):
        subset_quotient(STABLE_QUINTIC, (-1, 0))


@pytest.mark.parametrize("indices", [(0, 1.0), (0, "1"), (0, None)])
def test_subset_quotient_refuses_non_integer_indices(indices):
    # Indices go through operator.index, as Monomial's exponents do, so a
    # witness holding such an index fails verify_verdict's own error.
    with pytest.raises(InvalidFamilyError) as info:
        subset_quotient(UNSTABLE_QUINTIC, indices)
    assert str(info.value) == f"indices {indices} are not all integers"
    verdict = check_efficient(UNSTABLE_QUINTIC)
    w = verdict.violation
    broken = SubsetWitness(indices, w.gcd, w.size, w.quotient, w.family_slope)
    with pytest.raises(InvalidVerdictError, match="^violation is not a subset: indices"):
        verify_verdict(
            UNSTABLE_QUINTIC,
            StabilityVerdict(verdict.status, verdict.family_slope, broken),
        )


def test_equal_degree_margin_values():
    # x^9, y^9, x^5 y^4: the pair with gcd degree 5 violates by exactly one.
    assert equal_degree_margin(3, 9, 5, 2) == -1
    # The five quadrics: x0 divides three members, landing exactly on zero.
    assert equal_degree_margin(5, 2, 1, 3) == 0
    # The unstable quintic's witness pair, and a comfortable stable case.
    assert equal_degree_margin(4, 5, 4, 2) == -2
    assert equal_degree_margin(4, 5, 2, 2) == 4
    for bad in [(1, 5, 1, 2), (4, 5, 1, 1), (4, 0, 0, 2), (4, 5, -1, 2)]:
        with pytest.raises(ValueError):
            equal_degree_margin(*bad)


def test_a_seq_values_and_monotonicity():
    assert a_seq(3, 2) == Fraction(-6)
    assert a_seq(3, 3) == Fraction(-9, 2)
    assert a_seq(5, 4) == Fraction(-20, 3)
    for d in (1, 4, 9):
        values = [a_seq(d, j) for j in range(2, 30)]
        assert all(a < b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        a_seq(3, 1)
    with pytest.raises(ValueError):
        a_seq(0, 4)


@pytest.mark.parametrize("check", [check_brute_force, check_efficient])
def test_stable_quintic(check):
    verdict = check(STABLE_QUINTIC)
    assert verdict.status is Stability.STABLE
    assert verdict.family_slope == Fraction(-20, 3)
    assert verdict.violation is None
    assert verdict.equality_witness is None
    assert not verdict.criterion_value_only


@pytest.mark.parametrize("check", [check_brute_force, check_efficient])
def test_unstable_quintic_witness(check):
    verdict = check(UNSTABLE_QUINTIC)
    assert verdict.status is Stability.UNSTABLE
    w = verdict.violation
    assert w is not None
    assert w.indices == (0, 1)
    assert w.gcd == Monomial((4, 0, 0))
    assert w.quotient == Fraction(-6)
    assert w.family_slope == Fraction(-20, 3)


@pytest.mark.parametrize("check", [check_brute_force, check_efficient])
def test_unstable_two_variables(check):
    fam = MonomialFamily.of([(9, 0), (0, 9), (5, 4)])
    verdict = check(fam)
    assert verdict.status is Stability.UNSTABLE
    assert verdict.family_slope == Fraction(-27, 2)
    assert verdict.violation.quotient == Fraction(-13)


@pytest.mark.parametrize("check", [check_brute_force, check_efficient])
def test_five_quadrics_semistable_only(check):
    verdict = check(QUADRICS_52)
    assert verdict.status is Stability.SEMISTABLE_ONLY
    w = verdict.equality_witness
    assert w is not None
    assert w.quotient == w.family_slope == Fraction(-5, 2)
    # Re-validate the witness independently of how the checker found it.
    again = subset_quotient(QUADRICS_52, w.indices)
    assert again.quotient == w.quotient
    assert again.gcd == w.gcd


@pytest.mark.parametrize("check", [check_brute_force, check_efficient])
def test_mixed_degrees_semistable_only(check):
    verdict = check(MIXED_SEMI)
    assert verdict.status is Stability.SEMISTABLE_ONLY
    w = verdict.equality_witness
    assert w.indices == (0, 1)
    assert w.quotient == Fraction(-4)


def test_verdict_json_shape():
    out = check_efficient(UNSTABLE_QUINTIC).to_json_dict()
    assert out["status"] == "unstable"
    assert out["family_slope"] == [-20, 3]
    assert out["violation"]["indices"] == [0, 1]
    assert out["violation"]["gcd"] == [4, 0, 0]
    assert out["violation"]["quotient"] == [-6, 1]
    assert "equality_witness" not in out


def test_gcd_closure_contents():
    fam = MonomialFamily.of([(2, 0), (1, 1), (0, 2)])
    closure = gcd_closure(fam)
    assert closure == (
        Monomial((0, 0)),
        Monomial((1, 0)),
        Monomial((0, 1)),
        Monomial((2, 0)),
        Monomial((1, 1)),
        Monomial((0, 2)),
    )


def test_gcd_closure_is_closed():
    fam = MonomialFamily.of([(3, 1, 0), (0, 2, 2), (1, 0, 3), (2, 2, 0)])
    closure = set(gcd_closure(fam))
    for a in closure:
        for b in closure:
            assert gcd_of(a, b) in closure


@given(
    st.integers(min_value=2, max_value=3).flatmap(
        lambda v: st.lists(
            st.tuples(*[st.integers(min_value=0, max_value=4)] * v),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
)
@settings(max_examples=150, deadline=None)
def test_gcd_closure_is_exactly_the_subset_gcds(members):
    fam = MonomialFamily.of(members)
    expected = {
        reduce(gcd_of, subset)
        for k in range(1, fam.n + 1)
        for subset in combinations(fam.members, k)
    }
    assert gcd_closure(fam) == tuple(sorted(expected, key=canon_key))


def test_gcd_closure_capacity(monkeypatch):
    # The scan raises on its (CLOSURE_LIMIT + 1)-th gcd, not before.  The
    # first family's six gcds: the three members, x0, x1 and the unit.
    for members, size in (
        ([(2, 0), (1, 1), (0, 2)], 6),
        ([(2, 0), (0, 3), (1, 2)], 6),
        ([(3, 1, 0), (0, 2, 2), (1, 0, 3), (2, 2, 0)], 10),
    ):
        fam = MonomialFamily.of(members)
        monkeypatch.setattr(criterion, "CLOSURE_LIMIT", 3)
        with pytest.raises(CapacityError):
            gcd_closure(fam)
        monkeypatch.setattr(criterion, "CLOSURE_LIMIT", size - 1)
        with pytest.raises(CapacityError):
            gcd_closure(fam)
        monkeypatch.setattr(criterion, "CLOSURE_LIMIT", size)
        assert len(gcd_closure(fam)) == size


def test_brute_force_capacity(monkeypatch):
    # All 25 monomials of degree 24 in two variables: every divisor scan
    # lands exactly on the slope, so the family is semistable only.
    fam = MonomialFamily.of([(i, 24 - i) for i in range(25)])
    with pytest.raises(CapacityError):
        check_brute_force(fam)
    assert check_efficient(fam).status is Stability.SEMISTABLE_ONLY
    # The budget is read at each call.  Four members visit 2^4 subsets.
    monkeypatch.setattr(criterion, "BRUTE_BUDGET", 2**4 - 1)
    with pytest.raises(CapacityError):
        check_brute_force(STABLE_QUINTIC)
    monkeypatch.setattr(criterion, "BRUTE_BUDGET", 2**4)
    assert check_brute_force(STABLE_QUINTIC).status is Stability.STABLE


def test_mixed_checker_capacity(monkeypatch):
    # MIXED_SEMI's closure: its three members, x0, x1^2 and the unit.  A
    # single member is no subset, so the checker visits only the last
    # three, and CLOSURE_LIMIT caps those visits.
    monkeypatch.setattr(criterion, "CLOSURE_LIMIT", 2)
    with pytest.raises(CapacityError):
        check_closure(MIXED_SEMI)
    with pytest.raises(CapacityError):
        check_efficient(MIXED_SEMI)
    monkeypatch.setattr(criterion, "CLOSURE_LIMIT", 3)
    assert check_closure(MIXED_SEMI) == check_brute_force(MIXED_SEMI)
    assert check_efficient(MIXED_SEMI) == check_brute_force(MIXED_SEMI)


@pytest.mark.parametrize("check", [check_brute_force, check_efficient])
def test_common_factor_rejected(check):
    fam = MonomialFamily.of([(2, 1), (1, 2)])
    with pytest.raises(CommonFactorError):
        check(fam)


@pytest.mark.parametrize("check", [check_brute_force, check_efficient])
def test_single_member_rejected(check):
    with pytest.raises(InvalidFamilyError):
        check(MonomialFamily.of([(2, 0)]))


@pytest.mark.parametrize("check", [check_brute_force, check_efficient])
def test_non_m_primary_flagged(check):
    fam = MonomialFamily.of([(2, 0, 0), (0, 2, 0), (1, 1, 0)])
    verdict = check(fam)
    assert verdict.criterion_value_only
    assert verdict.status is Stability.SEMISTABLE_ONLY


@pytest.mark.parametrize(
    "fam", [STABLE_QUINTIC, UNSTABLE_QUINTIC, QUADRICS_52, MIXED_SEMI]
)
def test_verify_verdict_accepts_checker_output(fam):
    verify_verdict(fam, check_brute_force(fam))
    verify_verdict(fam, check_efficient(fam))


def test_verify_verdict_rejects_broken_verdicts():
    unstable = check_efficient(UNSTABLE_QUINTIC)
    semi = check_efficient(QUADRICS_52)
    w = unstable.violation
    U, S = Stability.UNSTABLE, Stability.SEMISTABLE_ONLY
    slope, flag = unstable.family_slope, unstable.criterion_value_only
    semi_slope, semi_flag = semi.family_slope, semi.criterion_value_only
    # Each broken verdict below changes one field of these two.
    assert unstable == StabilityVerdict(U, slope, w, None, flag)
    assert semi == StabilityVerdict(S, semi_slope, None, semi.equality_witness, semi_flag)
    low = SubsetWitness(w.indices, w.gcd, w.size, -5, w.family_slope)
    outside = SubsetWitness((0, 9), w.gcd, w.size, w.quotient, w.family_slope)
    broken = [
        (UNSTABLE_QUINTIC, StabilityVerdict(U, slope, None, None, flag)),
        (UNSTABLE_QUINTIC, StabilityVerdict(U, slope, w, w, flag)),
        (UNSTABLE_QUINTIC, StabilityVerdict(U, Fraction(-6), w, None, flag)),
        (UNSTABLE_QUINTIC, StabilityVerdict(Stability.STABLE, slope, w, None, flag)),
        (UNSTABLE_QUINTIC, StabilityVerdict(S, slope, w, None, flag)),
        (UNSTABLE_QUINTIC, StabilityVerdict(U, slope, low, None, flag)),
        (UNSTABLE_QUINTIC, StabilityVerdict(U, slope, outside, None, flag)),
        (
            UNSTABLE_QUINTIC,
            StabilityVerdict(
                U, slope, subset_quotient(UNSTABLE_QUINTIC, (2, 3)), None, flag
            ),
        ),
        (
            QUADRICS_52,
            StabilityVerdict(
                S,
                semi_slope,
                None,
                subset_quotient(QUADRICS_52, (0, 1, 2, 3)),
                semi_flag,
            ),
        ),
    ]
    for fam, verdict in broken:
        with pytest.raises(InvalidVerdictError):
            verify_verdict(fam, verdict)


def test_grid_and_closure_paths_agree(monkeypatch):
    for fam in (STABLE_QUINTIC, UNSTABLE_QUINTIC, QUADRICS_52):
        assert check_efficient(fam) == check_closure(fam)

    # GRID_LIMIT counts the cells of the clipped exponent box: 5 * 5 * 5
    # for the quintic, whose exponents clip to at most d - 1 = 4.
    closure_calls = []
    closed_cells = criterion._closed_cells

    def counting(*args):
        closure_calls.append(args)
        return closed_cells(*args)

    monkeypatch.setattr(criterion, "_closed_cells", counting)
    verdicts = []
    for limit, closure_count in ((125, 0), (124, 1), (0, 2)):
        monkeypatch.setattr(criterion, "GRID_LIMIT", limit)
        verdicts.append(check_efficient(UNSTABLE_QUINTIC))
        assert len(closure_calls) == closure_count, limit
    assert verdicts[0] == verdicts[1] == verdicts[2]
    assert verdicts[0].status is Stability.UNSTABLE


_exponent = st.one_of(
    st.integers(0, 4), st.integers(3, 6), st.integers(MAX_DEGREE - 3, MAX_DEGREE)
)


@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda v: st.lists(st.tuples(*[_exponent] * v), min_size=1, max_size=12)
    )
)
@example([(5,), (5,), (7,)])  # a repeated value, the smallest above 0
@example([(MAX_DEGREE, 0), (0, MAX_DEGREE), (MAX_DEGREE - 1, 1)])
@settings(max_examples=300, deadline=None)
def test_thresholds_match_sorted_set_reference(vectors):
    # Each distinct value once, ascending, with the mask of exactly the
    # vectors at or above it.
    table = criterion._thresholds(vectors)
    columns = list(zip(*vectors))
    assert len(table) == len(columns)
    for column, pairs in zip(columns, table):
        assert [value for value, _ in pairs] == sorted(set(column))
        for value, mask in pairs:
            assert mask == sum(1 << i for i, e in enumerate(column) if e >= value)


def test_lattice_scan_skips_unused_variables(monkeypatch):
    # 2,998 variables that no member uses hold one value each: the walk
    # does not descend them, so its depth is not the variable count.
    pad = (0,) * 2998
    fam = MonomialFamily.of([(2, 0) + pad, (0, 2) + pad, (1, 1) + pad])
    table = _table(fam)
    assert table[2:] == [[(0, 0b111)]] * 2998
    depths = []
    walk = criterion._lattice_walk

    def recording(table, depth, *args):
        depths.append(depth)
        walk(table, depth, *args)

    monkeypatch.setattr(criterion, "_lattice_walk", recording)
    # Members in canonical order: x0^2, x0 x1, x1^2; x0 divides the first
    # two (mask 0b011), x1 the last two (mask 0b110).
    candidates = sorted(criterion._equal_candidates(table, fam.n, 2))
    assert candidates == [(-3, 1, 0b011), (-3, 1, 0b110)]
    assert max(depths) == 1
    assert check_efficient(fam) == check_brute_force(fam)


def test_lattice_walk_leaves_no_garbage():
    # The walk is a module-level function, so a check leaves no reference
    # cycle for the cyclic collector to free.
    fam = MonomialFamily.of(
        [(6, 0, 0), (0, 6, 0), (0, 0, 6), (3, 2, 1), (2, 2, 2), (1, 4, 1), (0, 3, 3)]
    )
    assert list(criterion._equal_candidates(_table(fam), fam.n, 6))
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        check_efficient(fam)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def _broadcast_candidates(family: MonomialFamily, d: int) -> list[tuple]:
    """Reference for the lattice scan: find the multiples of every divisor
    of degree 1..d-1 on the value grid, each of whose exponents some member
    has, by comparing it with every member."""
    n, v = family.n, family.var_count
    members = [m.exponents for m in family.members]
    held = [set(column) for column in zip(*members)]
    out = []
    for t in range(1, d):
        for g in exponent_vectors_of_degree(v, t):
            if not all(a in values for a, values in zip(g, held)):
                continue
            mask = sum(1 << i for i, e in enumerate(members) if all(map(le, g, e)))
            k = mask.bit_count()
            if k >= 2 and (d - t) * n + t - d * k <= 0:
                out.append((t - d * k, k - 1, mask))
    return out


@st.composite
def lattice_families(draw):
    # Pure powers have exponent d, past every candidate's degree.  A common
    # factor x0^c, allowed since the scan is called directly, puts column
    # 0's smallest value above 0.
    var_count = draw(st.integers(min_value=2, max_value=5))
    d = draw(st.integers(min_value=1, max_value=8))
    powers = draw(st.sets(st.integers(0, var_count - 1), min_size=1))
    pool = list(exponent_vectors_of_degree(var_count, d))
    extras = draw(st.lists(st.sampled_from(pool), max_size=12, unique=True))
    c = draw(st.integers(min_value=0, max_value=2))
    members = {_pure(var_count, i, d) for i in powers} | set(extras)
    return MonomialFamily.of([(e[0] + c, *e[1:]) for e in members])


@given(lattice_families())
@example(MonomialFamily.of([(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
@example(MonomialFamily.of(list(exponent_vectors_of_degree(5, 3))))
@example(MonomialFamily.of(list(exponent_vectors_of_degree(3, 22))))
@example(
    MonomialFamily.of(
        {e for e in exponent_vectors_of_degree(3, 26) if e[0] >= 13}
        | {(26, 0, 0), (0, 26, 0), (0, 0, 26)}
    )
)
@example(MonomialFamily.of([(0, 4, 0)]))
@example(generate_P2(33, 40)[0])  # sparse: 33 members, exponents up to 40
@example(  # sparse and unstable: off-grid cells are candidates too
    MonomialFamily.of(
        [(12, 0, 0), (0, 12, 0), (0, 0, 12), (9, 3, 0), (9, 0, 3), (6, 6, 0), (3, 9, 0)]
    )
)
@example(MonomialFamily.of([(3, 1, 0), (2, 2, 0), (1, 2, 1), (1, 0, 3)]))
@example(MonomialFamily.of([(3, 0, 1), (1, 2, 1), (0, 3, 1), (2, 1, 1)]))
@settings(max_examples=300, deadline=None)
def test_lattice_scan_matches_broadcast_reference(fam):
    # Exactly the reference's candidates on the value grid.  The last two
    # families have the common factors x0 and x2, the second in a column
    # that holds one value.
    d = fam.degrees[0]
    lattice = criterion._equal_candidates(_table(fam), fam.n, d)
    assert sorted(lattice) == sorted(_broadcast_candidates(fam, d))


@given(
    st.integers(min_value=2, max_value=300),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=2, max_value=7),
)
@example(4, 2, 3)
@example(2, 3, 3)
@settings(max_examples=300, deadline=None)
def test_scan_band_is_exact(n, d, v):
    # A degree-t cell of an equal-degree-d family in v variables has at most
    # C(d-t+v-1, v-1) multiples; with k of them it is a candidate iff its
    # quotient reaches the slope.  The band is exactly the largest degree
    # and the fewest multiples among such (t, k): a wider band wastes work,
    # a narrower one loses candidates.
    slope = Fraction(-n * d, n - 1)
    possible = [
        (t, k)
        for t in range(1, d)
        for k in range(2, min(n, comb(d - t + v - 1, v - 1)) + 1)
        if Fraction(t - d * k, k - 1) >= slope
    ]
    top = max((t for t, _ in possible), default=0)
    k_min = min((k for _, k in possible), default=n + 1)
    assert criterion._scan_band(n, d, v) == (top, k_min)


def _pure(var_count: int, index: int, exponent: int) -> tuple[int, ...]:
    exps = [0] * var_count
    exps[index] = exponent
    return tuple(exps)


@st.composite
def equal_degree_families(draw):
    # Two pure powers keep the overall gcd trivial by construction.
    var_count = draw(st.integers(min_value=2, max_value=3))
    d = draw(st.integers(min_value=1, max_value=5))
    seeds = {_pure(var_count, 0, d), _pure(var_count, 1, d)}
    pool = [v for v in exponent_vectors_of_degree(var_count, d) if v not in seeds]
    extras = draw(
        st.lists(
            st.sampled_from(pool) if pool else st.nothing(),
            max_size=min(7, len(pool)),
            unique=True,
        )
        if pool
        else st.just([])
    )
    return MonomialFamily.of(sorted(seeds) + extras)


@st.composite
def mixed_families(draw):
    var_count = draw(st.integers(min_value=2, max_value=3))
    seeds = {
        _pure(var_count, 0, draw(st.integers(min_value=1, max_value=4))),
        _pure(var_count, 1, draw(st.integers(min_value=1, max_value=4))),
    }
    extras = draw(
        st.lists(
            st.tuples(
                *[st.integers(min_value=0, max_value=4)] * var_count
            ).filter(any),
            max_size=5,
            unique=True,
        )
    )
    return MonomialFamily.of(seeds | set(extras))


def _tuple_closure_masks(family: MonomialFamily) -> dict[tuple[int, ...], int]:
    """Reference for the closed-cell scan: the gcd closure built member by
    member over exponent tuples, each gcd mapped to the mask of the
    members it divides, with the gcd taken coordinate-wise."""
    closure: dict[tuple[int, ...], int] = {}
    for i, m in enumerate(family.members):
        e, bit = m.exponents, 1 << i
        updates = [(tuple(map(min, c, e)), mask) for c, mask in closure.items()]
        updates.append((e, 0))
        for g, mask in updates:
            closure[g] = closure.get(g, 0) | mask | bit
    return closure


@st.composite
def closure_families(draw):
    # One exponent per member takes up the rest of its degree, which is near
    # MAX_DEGREE or small, equal for every member or not.
    var_count = draw(st.integers(min_value=2, max_value=4))
    top = draw(st.sampled_from([12, MAX_DEGREE]))
    equal = draw(st.booleans())
    rest = st.lists(st.integers(0, 3), min_size=var_count - 1, max_size=var_count - 1)
    members = set()
    for _ in range(draw(st.integers(min_value=1, max_value=14))):
        exps = draw(rest)
        degree = top if equal else top - draw(st.integers(0, 2))
        exps.insert(draw(st.integers(0, var_count - 1)), degree - sum(exps))
        members.add(tuple(exps))
    return MonomialFamily.of(members)


any_family = st.one_of(closure_families(), mixed_families(), equal_degree_families())


@given(any_family)
@example(MonomialFamily.of([(2, 0), (0, 3), (1, 2)]))
@example(MonomialFamily.of([(MAX_DEGREE, 0), (0, MAX_DEGREE), (MAX_DEGREE - 1, 1)]))
@settings(max_examples=200, deadline=None)
def test_closed_cell_scan_matches_tuple_reference(fam):
    # Every gcd of a nonempty subset is visited exactly once, with the mask
    # of its multiples and its degree.
    visited = [
        (tuple(rung[0] for rung in rungs), t, mask, k)
        for rungs, t, mask, k in criterion._closed_cells(_table(fam), fam.n)
    ]
    cells = [cell for cell, _, _, _ in visited]
    assert len(cells) == len(set(cells))
    assert {cell: mask for cell, _, mask, _ in visited} == _tuple_closure_masks(fam)
    assert all(t == sum(cell) and k == mask.bit_count() for cell, t, mask, k in visited)


@given(any_family)
@settings(max_examples=150, deadline=None)
def test_checker_answers_within_the_closure_size(fam):
    # A pruned scan visits no more cells than the family has gcds of
    # subsets, so a CLOSURE_LIMIT of that size never raises.
    assume(fam.overall_gcd().is_unit and fam.n >= 2)
    expected = check_efficient(fam), check_closure(fam)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(criterion, "CLOSURE_LIMIT", len(_tuple_closure_masks(fam)))
        assert (check_efficient(fam), check_closure(fam)) == expected


def test_pruned_scan_on_the_fallback_family():
    # generate(6, 80, 20): 80 members of degree 20 in seven variables, a
    # lattice box past GRID_LIMIT.  The scan drops every cell with fewer
    # than _scan_band's k_min = 5 multiples, so it visits 527 of the 771
    # gcds.  The verdict JSON was recorded from the gcd-closure dict that
    # the scan replaced.
    fam = generate(6, 80, 20)[0]
    columns = zip(*(m.exponents for m in fam.members))
    box = [min(max(column), 19) + 1 for column in columns]
    assert prod(box) > criterion.GRID_LIMIT
    assert criterion._scan_band(80, 20, 7) == (19, 5)
    visits = []
    closed_cells = criterion._closed_cells

    def counting(*args):
        for cell in closed_cells(*args):
            visits.append(cell)
            yield cell

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(criterion, "_closed_cells", counting)
        verdict = check_efficient(fam)
    assert len(visits) == 527 < len(gcd_closure(fam)) == 771
    assert json.dumps(verdict.to_json_dict()) == (
        '{"status": "stable", "family_slope": [-1600, 79], '
        '"criterion_value_only": false}'
    )


def _index_tuple(mask):
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


@given(st.lists(st.integers(1, 2**14 - 1), min_size=1, max_size=30, unique=True))
@example([0b111, 0b11])  # a prefix comes first
@example([0b11, 0b101])  # the lowest differing bit decides
@example([0b1011, 0b11])  # the other mask has a bit above it
@example([1 << 40, 1 << 40 | 1, 1 << 39])
@settings(max_examples=500, deadline=None)
def test_first_mask_is_the_smallest_index_tuple(masks):
    # check_efficient's witness rule, applied pairwise as each tie arrives,
    # against building every mask's index tuple and taking the smallest.
    assert reduce(criterion._first_mask, masks) == min(masks, key=_index_tuple)


def test_two_variable_ties_pick_the_smallest_witness():
    # All degree-40 monomials in two variables, forced onto the closed-cell
    # scan: every candidate ties at the slope, and the witness is the
    # oracle's first tied subset, members 0 and 1 (x0^40 and x0^39 x1).
    fam = MonomialFamily.of(list(exponent_vectors_of_degree(2, 40)))
    verdict = check_closure(fam)
    assert verdict == check_efficient(fam)
    assert verdict.status is Stability.SEMISTABLE_ONLY
    assert verdict.equality_witness.indices == (0, 1)


def test_tied_candidates_are_not_held():
    # All 101 degree-100 binary forms on the closed-cell scan tie at the
    # slope on 5,049 cells.  Keeping one best mask, the check peaks at
    # about 31 kB; holding every tied mask took about 240 kB.
    fam = MonomialFamily.of(list(exponent_vectors_of_degree(2, 100)))
    tracemalloc.start()
    try:
        verdict = check_closure(fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.equality_witness.indices == (0, 1)
    assert peak < 100_000


@given(equal_degree_families())
@settings(max_examples=150, deadline=None)
def test_checkers_agree_equal_degree(fam):
    brute = check_brute_force(fam)
    assert brute == check_efficient(fam) == check_closure(fam)


@given(mixed_families())
@settings(max_examples=150, deadline=None)
def test_checkers_agree_mixed_degrees(fam):
    brute = check_brute_force(fam)
    assert brute == check_efficient(fam) == check_closure(fam)


@given(equal_degree_families(), st.permutations(range(3)))
@settings(max_examples=100, deadline=None)
def test_status_invariant_under_variable_permutation(fam, perm):
    perm = perm[: fam.var_count]
    if sorted(perm) != list(range(fam.var_count)):
        perm = list(range(fam.var_count))
    permuted = MonomialFamily.of(
        [tuple(m.exponents[p] for p in perm) for m in fam.members]
    )
    assert check_efficient(fam).status is check_efficient(permuted).status


@given(mixed_families(), st.integers(min_value=1, max_value=4))
@settings(max_examples=100, deadline=None)
def test_status_invariant_under_exponent_scaling(fam, c):
    scaled = MonomialFamily.of(
        [tuple(c * e for e in m.exponents) for m in fam.members]
    )
    original = check_efficient(fam)
    stretched = check_efficient(scaled)
    assert original.status is stretched.status
    assert stretched.family_slope == c * original.family_slope


def reference_oracle(family: MonomialFamily) -> StabilityVerdict:
    """The subset oracle before integer comparisons: the same include-first
    walk over every subset, one ``Fraction`` per subset compared through
    ``Fraction``, validated ``Monomial`` gcds, and the verdict assembled
    here rather than by the checkers' shared helper."""
    n, members = family.n, family.members
    best_q, best_idx = None, ()

    def visit(i, chosen, g, deg_sum):
        nonlocal best_q, best_idx
        if i == n:
            k = len(chosen)
            if 2 <= k < n:
                q = Fraction(g.degree - deg_sum, k - 1)
                idx = tuple(chosen)
                if best_q is None or q > best_q or (q == best_q and idx < best_idx):
                    best_q, best_idx = q, idx
            return
        m = members[i]
        chosen.append(i)
        visit(i + 1, chosen, m if g is None else gcd_of(g, m), deg_sum + m.degree)
        chosen.pop()
        visit(i + 1, chosen, g, deg_sum)

    visit(0, [], None, 0)
    slope = Fraction(-family.degree_sum, n - 1)
    flag = not family.is_m_primary()
    if best_q is None or best_q < slope:
        return StabilityVerdict(Stability.STABLE, slope, criterion_value_only=flag)
    witness = SubsetWitness(
        best_idx,
        Monomial(tuple(map(min, *(members[i].exponents for i in best_idx)))),
        len(best_idx),
        best_q,
        slope,
    )
    if best_q == slope:
        return StabilityVerdict(
            Stability.SEMISTABLE_ONLY, slope, None, witness, flag
        )
    return StabilityVerdict(Stability.UNSTABLE, slope, witness, None, flag)


@st.composite
def oracle_families(draw):
    """Gcd-1 families in 2 to 4 variables with 2 to 12 members: equal
    degree d <= 6 half the time, exponents up to 4 otherwise."""
    var_count = draw(st.integers(min_value=2, max_value=4))
    if draw(st.booleans()):
        d = draw(st.integers(min_value=1, max_value=6))
        pool = list(exponent_vectors_of_degree(var_count, d))
        members = draw(
            st.lists(
                st.sampled_from(pool),
                min_size=2,
                max_size=min(12, len(pool)),
                unique=True,
            )
        )
    else:
        vector = st.tuples(*[st.integers(min_value=0, max_value=4)] * var_count)
        members = draw(
            st.lists(vector.filter(any), min_size=2, max_size=12, unique=True)
        )
    family = MonomialFamily.of(members)
    assume(family.overall_gcd().is_unit)
    return family


# Families whose largest quotient is reached by several subsets, each with
# the witness the lexicographically smallest of them gives.  The walk
# visits an extension such as (0, 1, 2) before the tuple (0, 1) itself, and
# (0, 1, 2) before (1, 2), so a tie must be settled by comparing tuples and
# not by the order of the walk.
TIE_FAMILIES = [
    # Twisted cubic: (0, 1), (1, 2), (2, 3), (0, 1, 2) and (1, 2, 3) all
    # lie on the slope.
    ([(3, 0), (2, 1), (1, 2), (0, 3)], Stability.SEMISTABLE_ONLY, (0, 1)),
    # (0, 1) ties with its own extension (0, 1, 2), above the slope.
    ([(0, 1, 0), (3, 0, 1), (2, 0, 3), (0, 3, 3)], Stability.UNSTABLE, (0, 1)),
    # (0, 1, 2) ties with (1, 2), which the walk reaches later.
    ([(3, 0, 0), (0, 2, 2), (1, 3, 1), (3, 2, 2)], Stability.UNSTABLE, (0, 1, 2)),
    # Equal degree: (1, 2), (2, 3) and (1, 2, 3).
    ([(3, 0, 2), (2, 3, 0), (1, 3, 1), (0, 3, 2)], Stability.UNSTABLE, (1, 2)),
    # (0, 1) and (0, 2) on the slope, (0, 1) reached first.
    ([(2, 0), (0, 2), (3, 1)], Stability.SEMISTABLE_ONLY, (0, 1)),
    # Mixed: six maximizers, prefixes and extensions among them.
    ([(0, 1), (2, 0), (2, 1), (1, 2)], Stability.SEMISTABLE_ONLY, (0, 1)),
]


@pytest.mark.parametrize("members, status, indices", TIE_FAMILIES)
def test_oracle_ties_go_to_the_smallest_index_tuple(members, status, indices):
    fam = MonomialFamily.of(members)
    verdict = check_brute_force(fam)
    assert verdict == reference_oracle(fam)
    assert verdict.status is status
    witness = verdict.violation or verdict.equality_witness
    assert witness.indices == indices
    # Every maximizer, by the definition, and the witness is the least.
    quotients = {
        idx: subset_quotient(fam, idx).quotient
        for k in range(2, fam.n)
        for idx in combinations(range(fam.n), k)
    }
    top = max(quotients.values())
    tied = sorted(idx for idx, q in quotients.items() if q == top)
    assert len(tied) >= 2 and tied[0] == indices
    assert verdict == check_efficient(fam) == check_closure(fam)


@given(oracle_families())
@example(MonomialFamily.of([(1, 0), (0, 1)]))
@example(MonomialFamily.of([(MAX_DEGREE, 0), (0, MAX_DEGREE), (MAX_DEGREE - 1, 1)]))
@example(MonomialFamily.of(list(exponent_vectors_of_degree(3, 4))[:12]))
@example(
    MonomialFamily.of(
        [(4, 0, 0), (0, 4, 0), (0, 0, 3), (1, 1, 0), (2, 0, 1), (0, 2, 2),
         (1, 1, 1), (3, 1, 0), (0, 1, 3), (2, 2, 0), (1, 0, 2), (4, 4, 4)]
    )
)
@settings(max_examples=150, deadline=None)
def test_oracle_matches_fraction_reference(fam):
    # Whole verdicts: status, slope, witness indices, gcd, size, quotient
    # and the m-primary flag.
    assert check_brute_force(fam) == reference_oracle(fam)


def test_oracle_walks_exponent_tuples(monkeypatch):
    # 2^12 subsets, whose gcds the walk keeps as exponent tuples: the only
    # Monomials built are the overall gcd and the witness's.
    fam = MonomialFamily.of(
        [(4, 0, 0), (0, 4, 0), (0, 0, 3), (1, 1, 0), (2, 0, 1), (0, 2, 2),
         (1, 1, 1), (3, 1, 0), (0, 1, 3), (2, 2, 0), (1, 0, 2), (4, 4, 4)]
    )
    expected = reference_oracle(fam)
    inits = []
    init = Monomial.__init__

    def counting_init(self, exponents):
        inits.append(exponents)
        init(self, exponents)

    monkeypatch.setattr(Monomial, "__init__", counting_init)
    verdict = check_brute_force(fam)
    assert len(inits) == 2
    assert verdict == expected
    assert verdict.status is Stability.UNSTABLE
