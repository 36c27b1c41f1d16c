"""Orbit counts of whole searches against Burnside's lemma.

An exhausted search's ``orbits_examined`` is the number of orbits of
S_{N+1}, permuting the variables, on the k-subsets of the free monomials
(degree d, not pure powers), k = n - (N + 1).  ``orbit_count`` counts them
from cycle types alone, sharing nothing with the search's filter, walk or
tree, so it checks searches far past the sizes where the per-family
definition tests can go."""

from itertools import product
from math import comb, factorial

import pytest

from syzstab import search
from syzstab.search import exhaustive_search


def cycle_types(total, largest=None):
    """Every partition of ``total`` into parts of at most ``largest``, as
    a descending tuple."""
    if total == 0:
        yield ()
        return
    for part in range(min(total, largest or total), 0, -1):
        for rest in cycle_types(total - part, part):
            yield (part, *rest)


def orbit_count(N, d, k):
    """Orbits of S_{N+1} on the k-subsets of the free monomials of degree
    d in N + 1 variables, by Burnside's lemma in Pólya's form: the sum over
    cycle types of the class size times [x^k] of the product, over the
    cycles that one permutation of the type induces on the free monomials,
    of (1 + x^length), divided by (N+1)!.  (G. Pólya, Acta Math. 68, 1937;
    N. G. de Bruijn, "Pólya's theory of counting", 1964.)"""
    # A free monomial has every exponent below d.
    free = [v for v in product(range(d), repeat=N + 1) if sum(v) == d]
    index = {v: i for i, v in enumerate(free)}
    total = 0
    for parts in cycle_types(N + 1):
        # One permutation of this type, each part a cycle of consecutive
        # points, and its class size (N+1)! / prod(part) / prod(m_i!).
        perm, size = [], factorial(N + 1)
        for part in parts:
            start = len(perm)
            perm += [start + (i + 1) % part for i in range(part)]
            size //= part
        for part in set(parts):
            size //= factorial(parts.count(part))
        image = [index[tuple(v[i] for i in perm)] for v in free]
        # coeffs[j] counts the j-subsets fixed by the permutation: unions
        # of its cycles on the free monomials.
        coeffs = [1] + [0] * k
        seen = bytearray(len(free))
        for c in range(len(free)):
            if seen[c]:
                continue
            length = 0
            while not seen[c]:
                seen[c] = 1
                c = image[c]
                length += 1
            for j in range(k, length - 1, -1):
                coeffs[j] += coeffs[j - length]
        total += size * coeffs[k]
    assert total % factorial(N + 1) == 0
    return total // factorial(N + 1)


def test_orbit_count_on_small_cases():
    # The free quadrics x0x1, x0x2, x1x2 form one orbit, and so do their
    # pairs.  The free cubics of three variables are the six x_i^2 x_j, one
    # orbit, and x0x1x2.  The eight free nonics of two variables pair up
    # under the swap, as test_search's cubic binary forms count them.
    assert [orbit_count(2, 2, k) for k in range(5)] == [1, 1, 1, 1, 0]
    assert orbit_count(2, 3, 1) == 2
    assert orbit_count(1, 9, 1) == 4


def test_orbit_counts_match_the_digest_corpus():
    # Every whole search of the ``scripts/digest.py searches`` corpus: each
    # (N, d, n) with N <= 4, d <= 5, 2 <= n and at most 50,000 families,
    # none where n <= N.  They take the one-block lanes, the orderly tree
    # and the walk.
    checked = 0
    for N, d in product(range(1, 5), range(1, 6)):
        monomials = comb(N + d, N)
        for n in range(2, monomials + 1):
            k = n - (N + 1)
            if k >= 0 and comb(monomials - (N + 1), k) > 50_000:
                continue
            report = exhaustive_search(N, d, n)
            assert report.exhausted
            expected = orbit_count(N, d, k) if k >= 0 else 0
            assert report.orbits_examined == expected, (N, d, n)
            checked += 1
    assert checked == 169


# Whole d = 2 searches past the corpus, one for each route of the filter
# past block 0: (N, n, lanes, blocks, image table height).  N = 5 and 6
# keep every permutation in several blocks of lanes, N = 7 keeps 5,350
# lanes and a table of the other 34,970 permutations, and N = 8 keeps
# 3,237 lanes and streams the images of the other 359,643.
PAST_THE_CORPUS = [
    (5, 10, 720, 6, 0),
    (6, 11, 5040, 42, 0),
    (7, 11, 5350, 45, 34970),
    (8, 10, 3237, 27, 0),
]


@pytest.mark.parametrize("N, n, lanes, blocks, height", PAST_THE_CORPUS)
def test_orbit_counts_match_searches_past_n_4(N, n, lanes, blocks, height):
    space = search._Space(N, 2, n)
    assert (space.lanes, space.block_count, space.height) == (lanes, blocks, height)
    report = exhaustive_search(N, 2, n)
    assert report.exhausted
    assert report.orbits_examined == orbit_count(N, 2, n - (N + 1))
