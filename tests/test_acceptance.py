import hashlib
import random
import time
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from syzstab.criterion import (
    Stability,
    a_seq,
    check_efficient,
    equal_degree_margin,
)
from syzstab.errors import ExcludedCaseError
from syzstab.moduli import cohomology_table, moduli_dimension
from syzstab.monomial import MonomialFamily, exponent_vectors_of_degree
from syzstab.search import NONE_SEMISTABLE, exhaustive_search

from conftest import load_script

RANDOM_SEED = 20260825
# SHA-256 of the to_text() of the 10,000 seeded random families of test 1.
RANDOM_FAMILIES_SHA256 = (
    "eb1aa5142d1088d8922eb1fd4a40e125fb9921693a1bf3161bb4ace7e0b02680"
)

# The fuzzing script draws acceptance test 1's random families and holds its
# per-family check; the sweep script holds tests 3 and 4's expected verdicts.
run_oracle_fuzz = load_script("run_oracle_fuzz")
run_sweep = load_script("run_sweep")


def all_plane_m_primary_families(d_max, n_max):
    """Every m-primary family of equal-degree monomials in three variables
    with degree up to d_max and size up to n_max."""
    for d in range(1, d_max + 1):
        pure = [tuple(d if i == j else 0 for i in range(3)) for j in range(3)]
        free = [
            exps
            for exps in exponent_vectors_of_degree(3, d)
            if exps not in pure
        ]
        for k in range(0, n_max - 3 + 1):
            for extra in combinations(free, k):
                yield MonomialFamily.of(pure + list(extra))


def test_subset_oracle_and_divisor_scan_agree_everywhere():
    # Exhaustive over small plane families, then a large seeded random
    # sample including mixed degrees and up to four variables.  Whole
    # verdicts must agree, witness included, on the default path and on
    # the forced closed-cell scan, and the witness must re-validate.
    def agree(family):
        _, problem = run_oracle_fuzz.disagreement(family)
        assert problem is None, f"{problem}\n{family.to_text()}"

    count = 0
    for family in all_plane_m_primary_families(d_max=4, n_max=7):
        agree(family)
        count += 1
    assert count == 902

    rng = random.Random(RANDOM_SEED)
    digest = hashlib.sha256()
    for _ in range(10_000):
        family = run_oracle_fuzz.random_family(rng)
        digest.update(family.to_text().encode())
        agree(family)
    assert digest.hexdigest() == RANDOM_FAMILIES_SHA256


def test_exact_fixture_verdicts():
    stable = MonomialFamily.of([(5, 0, 0), (0, 5, 0), (0, 0, 5), (2, 2, 1)])
    assert check_efficient(stable).status is Stability.STABLE

    unstable = MonomialFamily.of([(5, 0, 0), (0, 5, 0), (0, 0, 5), (4, 1, 0)])
    verdict = check_efficient(unstable)
    assert verdict.status is Stability.UNSTABLE
    assert verdict.violation.quotient == -6
    assert verdict.family_slope == Fraction(-20, 3)

    binary = MonomialFamily.of([(9, 0), (0, 9), (5, 4)])
    assert check_efficient(binary).status is Stability.UNSTABLE
    assert equal_degree_margin(3, 9, 5, 2) == -1

    quadrics = MonomialFamily.of(
        [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1)]
    )
    assert check_efficient(quadrics).status is Stability.SEMISTABLE_ONLY


def test_plane_constructions_stable_at_every_size():
    # Every plane size n = 3..C(d+2, 2), each family of n members of degree
    # d with every pure power, stable except exactly (n, d) = (5, 2).
    total, failures = 0, []
    for d in range(2, 21):
        _, _, count, problems = run_sweep.sweep_cell((2, d))
        total += count
        failures += problems
    assert not failures, failures
    assert total == sum(comb(d + 2, 2) - 2 for d in range(2, 21))


def test_higher_dimension_constructions_stable_at_every_size():
    # Sizes N+1..C(d+2, 2)+N-2 and the full monomial set, each family of n
    # members of degree d with every pure power, all stable.
    failures = []
    for N in (3, 4, 5):
        for d in range(1, 9):
            failures += run_sweep.sweep_cell((N, d))[3]
    assert not failures, failures


def test_search_finds_no_semistable_triple_of_nonic_binary_forms():
    start = time.perf_counter()
    report = exhaustive_search(1, 9, 3)
    elapsed = time.perf_counter() - start
    assert report.best_status == NONE_SEMISTABLE
    assert report.exhausted
    assert report.families_examined == 8
    assert elapsed < 1.0


def test_component_dimension_matches_closed_forms():
    for d in range(1, 11):
        for n in range(3, comb(d + 2, 2) + 1):
            if (n, d) == (5, 2):
                continue
            expected = n * comb(d + 2, 2) + n * comb(d - 1, 2) - n * n
            assert moduli_dimension(2, n, d) == expected, (2, n, d)
    for N in (4, 5):
        for d in range(1, 11):
            for n in range(N + 1, comb(d + 2, 2) + N - 2 + 1):
                report = cohomology_table(N, n, d)
                assert report.component_dim == n * comb(d + N, N) - n * n
                assert report.ext1 == n * report.h1_twist
    with pytest.raises(ExcludedCaseError):
        moduli_dimension(3, 6, 2)


def test_slope_sequence_and_margin_monotonicity():
    for d in range(1, 101):
        previous = a_seq(d, 2)
        for j in range(3, 51):
            current = a_seq(d, j)
            assert current > previous, (d, j)
            previous = current

    rng = random.Random(RANDOM_SEED)
    for _ in range(1_000):
        n = rng.randint(3, 40)
        d = rng.randint(1, 30)
        d_J = rng.randint(0, d)
        margins = [equal_degree_margin(n, d, d_J, k) for k in range(2, n + 1)]
        assert all(a > b for a, b in zip(margins, margins[1:])), (n, d, d_J)
