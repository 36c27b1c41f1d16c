"""Deciding (semi)stability of the syzygy bundle of a monomial family.

A family of n monomials without a common factor determines the bundle of
relations among its members on projective space; that bundle has rank n-1
and slope ``-(sum of degrees)/(n-1)``.  (Semi)stability reduces to finitely
many exact comparisons: every subset J of at least two members, other than
the whole family, must satisfy::

    (deg gcd(J) - sum of degrees over J) / (|J| - 1)  <  slope   (stable)
                                                      <=        (semistable)

This module offers two independent deciders.  ``check_brute_force`` walks
every subset and is the transparent oracle.  ``check_efficient`` scans only
candidate gcds and is exact as well: every subset's gcd shows up as a
candidate, and every candidate's extreme value is realized by an actual
subset.  Its candidates come from one of two scans, both on Python ints
used as bitsets, and each candidate is the mask of its subset's members
(bit i for member i); the witness gcd is taken from the witness members.
Both read one threshold table, built by ``_thresholds``: for each
variable, the distinct exponents its column holds, ascending, each with
the mask of the members whose exponent is at least that value.

Every equal-degree family takes its candidates from ``_equal_candidates``,
the one place that chooses between the two scans.  When the exponent box,
min(max exponent of x_i, d-1) + 1 cells along axis i, has at most
``GRID_LIMIT`` cells, counted whole although the walk visits only the
held exponents, a lattice scan walks depth-first over the cells whose
every exponent is one its column holds, keeps the members divisible by
the current cell as the bits of one int, and prunes every branch that
can hold no candidate.  A cell between two held exponents has the
multiples of the next held one at a lower degree, so it never wins.
Every other family takes the closed-cell scan.  It walks the gcds of
subsets of members (the closed cells) depth-first, each once, raising
one variable at a time through that variable's distinct exponents and
ANDing in a threshold mask, and keeps no table of the gcds it has seen.
An equal-degree family there drops every cell with too few multiples to
hold a candidate.  ``exhaustive_search`` shares both: within the limit it
walks one table of all its monomials with ``_lattice_walk`` to decide
each orbit representative, and past it hands each representative's own
table to ``_equal_candidates``.  The oracle visits at most
``BRUTE_BUDGET`` subsets and the closed-cell scan at most
``CLOSURE_LIMIT`` cells, the gcd closure's size when unpruned; both raise
``CapacityError`` beyond.  All three limits are read at call time.

Both report the same witness for a verdict that is not stable: the subset
with the largest quotient, ties going to the lexicographically smallest
index tuple.  ``verify_verdict`` re-checks any verdict from scratch.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import comb, inf, prod
from operator import index

from ._value import Value, json_form
from .errors import (
    CapacityError,
    CommonFactorError,
    InvalidFamilyError,
    InvalidVerdictError,
)
from .monomial import Monomial, MonomialFamily, _canonical

BRUTE_BUDGET = 2**24
GRID_LIMIT = 500_000
CLOSURE_LIMIT = 10**6


class Stability(Enum):
    """Verdict for a family, from best to worst."""

    STABLE = "stable"
    SEMISTABLE_ONLY = "semistable-only"
    UNSTABLE = "unstable"


class SubsetWitness(Value):
    """A subset of member indices together with its exact quotient.

    For an unstable family the quotient exceeds the family slope; for a
    merely semistable family it equals the slope.  ``indices`` refer to the
    family's canonical member order.
    """

    _FIELDS = ("indices", "gcd", "size", "quotient", "family_slope")
    __slots__ = _FIELDS

    @property
    def gcd_degree(self) -> int:
        return self.gcd.degree

    def to_json_dict(self) -> dict:
        return {
            "indices": list(self.indices),
            "gcd": list(self.gcd.exponents),
            "gcd_degree": self.gcd_degree,
            "size": self.size,
            "quotient": json_form(self.quotient),
            "family_slope": json_form(self.family_slope),
        }


class StabilityVerdict(Value):
    """Outcome of a stability check.

    ``violation`` is set exactly when the status is unstable and
    ``equality_witness`` exactly when it is semistable-only.  When the family
    is not m-primary the combinatorial comparison is still reported but the
    bundle-theoretic reading does not apply; ``criterion_value_only`` flags
    that case.
    """

    _FIELDS = (
        "status", "family_slope", "violation", "equality_witness",
        "criterion_value_only",
    )
    __slots__ = _FIELDS
    _DEFAULTS = {
        "violation": None, "equality_witness": None, "criterion_value_only": False,
    }

    def to_json_dict(self) -> dict:
        out: dict = {
            "status": self.status.value,
            "family_slope": json_form(self.family_slope),
            "criterion_value_only": self.criterion_value_only,
        }
        for key in ("violation", "equality_witness"):
            witness = getattr(self, key)
            if witness is not None:
                out[key] = witness.to_json_dict()
        return out


def family_slope(family: MonomialFamily) -> Fraction:
    """Slope of the syzygy bundle: (deg gcd - sum of degrees) / (n - 1)."""
    if family.n < 2:
        raise InvalidFamilyError("slope needs at least two members")
    return Fraction(
        family.overall_gcd().degree - family.degree_sum, family.n - 1
    )


def subset_quotient(
    family: MonomialFamily, indices: tuple[int, ...]
) -> SubsetWitness:
    """Evaluate one subset exactly: its gcd and the quotient the criterion
    compares against the family slope, read off the chosen members'
    exponent tuples.  Accepts the full index set too, so witnesses can be
    re-validated independently of how they were found.  Indices are read
    through ``operator.index``, as ``Monomial`` reads exponents."""
    raw = tuple(indices)
    try:
        idx = tuple(map(index, raw))
    except TypeError:
        raise InvalidFamilyError(f"indices {raw} are not all integers") from None
    if len(idx) < 2:
        raise InvalidFamilyError("a subset needs at least two members")
    if len(set(idx)) != len(idx):
        raise InvalidFamilyError(f"duplicate indices in {idx}")
    for i in idx:
        if not 0 <= i < family.n:
            raise InvalidFamilyError(f"index {i} out of range in {idx}")
    chosen = [family.members[i].exponents for i in idx]
    g = tuple(map(min, *chosen))
    quotient = Fraction(sum(g) - sum(map(sum, chosen)), len(idx) - 1)
    return SubsetWitness(
        indices=idx,
        gcd=Monomial(g),
        size=len(idx),
        quotient=quotient,
        family_slope=family_slope(family),
    )


def equal_degree_margin(n: int, d: int, gcd_degree: int, k: int) -> int:
    """Integer whose sign is the sign of ``slope - quotient`` for a size-k
    subset with gcd degree ``gcd_degree`` in an n-member equal-degree-d
    family: positive means the subset respects strict stability, zero means
    equality, negative means a violation.  Strictly decreasing in k, so for
    a fixed gcd only the full set of its multiples matters."""
    if n < 2 or k < 2:
        raise ValueError("margin needs n >= 2 and k >= 2")
    if d < 1 or gcd_degree < 0:
        raise ValueError("margin needs d >= 1 and gcd_degree >= 0")
    return (d - gcd_degree) * n + gcd_degree - d * k


def a_seq(d: int, j: int) -> Fraction:
    """Slope ``-j*d/(j-1)`` of a family of j degree-d members; strictly
    increasing in j, which is what makes adding members never hurt."""
    if j < 2:
        raise ValueError("a_seq needs j >= 2")
    if d < 1:
        raise ValueError("a_seq needs d >= 1")
    return Fraction(-j * d, j - 1)


def _validate_for_check(family: MonomialFamily) -> Fraction:
    """The family slope, once the family has two members and no common
    factor."""
    if family.n < 2:
        raise InvalidFamilyError("stability needs at least two members")
    g = family.overall_gcd()
    if not g.is_unit:
        raise CommonFactorError(
            f"members share the common factor {g}; divide it out and "
            "re-check the quotient family"
        )
    return Fraction(g.degree - family.degree_sum, family.n - 1)


def _verdict(
    family: MonomialFamily,
    slope: Fraction,
    num: int = 0,
    den: int = 0,
    indices: tuple[int, ...] = (),
) -> StabilityVerdict:
    """Package a checker's maximizing subset ``indices``, of quotient
    ``num / den``, into a verdict: stable when there is none (``den`` 0)
    or its quotient is below the slope, semistable-only on the slope,
    unstable above it.  Only a witness builds its ``Fraction`` and its
    gcd, the componentwise minimum of the subset's exponents."""
    flag = not family.is_m_primary()
    if not den or num * slope.denominator < slope.numerator * den:
        return StabilityVerdict(Stability.STABLE, slope, criterion_value_only=flag)
    quotient = Fraction(num, den)
    exps = (family.members[i].exponents for i in indices)
    witness = SubsetWitness(
        indices=indices,
        gcd=Monomial(tuple(map(min, *exps))),
        size=len(indices),
        quotient=quotient,
        family_slope=slope,
    )
    if quotient == slope:
        return StabilityVerdict(
            Stability.SEMISTABLE_ONLY,
            slope,
            equality_witness=witness,
            criterion_value_only=flag,
        )
    return StabilityVerdict(
        Stability.UNSTABLE, slope, violation=witness, criterion_value_only=flag
    )


def verify_verdict(family: MonomialFamily, verdict: StabilityVerdict) -> None:
    """Check a verdict against the family, independently of how it was found.

    The verdict must carry exactly the witness its status needs, and that
    witness must recompute through ``subset_quotient`` (indices, gcd, size
    and quotient) on the claimed side of the family slope.  Raises
    ``InvalidVerdictError`` naming the first broken invariant.
    """
    slope = family_slope(family)
    if verdict.family_slope != slope:
        raise InvalidVerdictError(
            f"verdict slope {verdict.family_slope} is not the family slope {slope}"
        )
    needed = {
        Stability.UNSTABLE: "violation",
        Stability.SEMISTABLE_ONLY: "equality_witness",
    }.get(verdict.status)
    for field in ("violation", "equality_witness"):
        present = getattr(verdict, field) is not None
        if present != (field == needed):
            verb = "carries" if present else "lacks"
            raise InvalidVerdictError(
                f"{verdict.status.value} verdict {verb} a {field}"
            )
    if needed is None:
        return
    w = getattr(verdict, needed)
    try:
        again = subset_quotient(family, w.indices)
    except InvalidFamilyError as err:
        raise InvalidVerdictError(f"{needed} is not a subset: {err}") from None
    if again != w:
        raise InvalidVerdictError(
            f"{needed} on {list(w.indices)} does not recompute: "
            f"gcd {again.gcd}, quotient {again.quotient}"
        )
    if verdict.status is Stability.UNSTABLE and not w.quotient > slope:
        raise InvalidVerdictError(
            f"violation quotient {w.quotient} is not above the slope {slope}"
        )
    if verdict.status is Stability.SEMISTABLE_ONLY and w.quotient != slope:
        raise InvalidVerdictError(
            f"equality quotient {w.quotient} is not the slope {slope}"
        )


def check_brute_force(family: MonomialFamily) -> StabilityVerdict:
    """Decide stability by evaluating every proper subset of size >= 2.

    The maximizing subset (ties broken by lexicographically smallest index
    tuple) becomes the witness when the verdict is not stable.  The walk
    runs on exponent tuples, each node carrying its subset's gcd as one,
    and compares quotients as integer pairs by cross-multiplication; it
    builds an index tuple only for a subset that ties or beats the best.
    """
    slope = _validate_for_check(family)
    n = family.n
    if 2**n > BRUTE_BUDGET:
        raise CapacityError(
            f"brute force over {n} members would visit 2^{n} subsets, "
            f"beyond the budget {BRUTE_BUDGET}; use check_efficient instead"
        )
    exps, degs = [m.exponents for m in family.members], family.degrees

    # The best quotient so far is best_num / best_den; -1 / 0 stands below
    # every quotient, since denominators are positive.  The root's gcd is
    # the members' lcm, which every member divides.
    best_num, best_den, best_idx = -1, 0, ()
    chosen: list[int] = []

    def visit(i: int, g: tuple[int, ...], deg_sum: int):
        nonlocal best_num, best_den, best_idx
        if i == n:
            den = len(chosen) - 1
            if 0 < den < n - 1:
                num = sum(g) - deg_sum
                cross = num * best_den - best_num * den
                if cross >= 0:
                    idx = tuple(chosen)
                    if cross or idx < best_idx:
                        best_num, best_den, best_idx = num, den, idx
            return
        chosen.append(i)
        visit(i + 1, tuple(map(min, g, exps[i])), deg_sum + degs[i])
        chosen.pop()
        visit(i + 1, g, deg_sum)

    visit(0, tuple(map(max, *exps)), 0)
    return _verdict(family, slope, best_num, best_den, best_idx)


def _thresholds(vectors) -> list[list[tuple[int, int]]]:
    """The threshold table of the exponent vectors ``vectors``: for each
    variable, the distinct exponents of its column in ascending order, each
    paired with the mask of the vectors whose exponent is at least that
    value (bit i for vector i).  The first pair's mask holds every vector.
    Exponents are dict keys, so the cost does not grow with their size."""
    bits = [1 << i for i in range(len(vectors))]
    table = []
    for column in zip(*vectors):
        buckets: dict[int, int] = {}
        for e, bit in zip(column, bits):
            buckets[e] = buckets.get(e, 0) | bit
        pairs, at_least = [], 0
        for e in sorted(buckets, reverse=True):
            at_least |= buckets[e]
            pairs.append((e, at_least))
        pairs.reverse()
        table.append(pairs)
    return table


def _closed_cells(table, n: int, k_min: int = 1):
    """Every closed cell of the n members of threshold table ``table``
    (see ``_thresholds``) with at least ``k_min`` multiples, once each, as
    (rungs, degree, mask of its multiples, number of multiples).

    A rung is a tuple ``(value, above, next)``: one of a column's distinct
    exponents, the mask of the members whose exponent exceeds it, which is
    the table's mask at the next value, and the rung of the next larger
    value; the last rung has value infinity and nothing above.  A cell
    holds one rung per variable, so its exponents are the rungs' values
    and its multiples are the members that no ``above`` excludes.  It is
    closed when it is the gcd of its multiples, that is no ``above`` holds
    the whole mask, so the closed cells are exactly the gcds of nonempty
    subsets.  The walk is depth-first by prefix-preserving closure
    extension (Uno, Kiyomi and Arimura, "LCM ver. 2", FIMI 2004): from a
    closed cell reached by raising variable ``core``, raise a variable
    j >= core to its next rung, close the cell by raising every variable
    while the mask fits inside its ``above``, and keep the child only if
    no variable before j would rise.  Each closed cell then has exactly
    one parent.  Masks only shrink along the walk, so a child with fewer
    than ``k_min`` multiples is dropped with everything below it.  Raises
    ``CapacityError`` on visiting more than ``CLOSURE_LIMIT`` cells.
    """
    root = []
    for pairs in table:
        rung, above = (inf, 0, None), 0
        for value, at_least in reversed(pairs):
            rung, above = (value, above, rung), at_least
        root.append(rung)
    stack, visited = [(root, (1 << n) - 1, n, 0)], 0
    while stack:
        rungs, mask, k, core = stack.pop()
        visited += 1
        if visited > CLOSURE_LIMIT:
            raise CapacityError(f"gcd closure exceeded {CLOSURE_LIMIT} elements")
        yield rungs, sum([rung[0] for rung in rungs]), mask, k
        for j in range(core, len(rungs)):
            m = mask & rungs[j][1]
            k = m.bit_count()
            if k < k_min or any(m & rung[1] == m for rung in rungs[:j]):
                continue  # too few multiples, or a variable before j would rise
            child = rungs[:j]
            for rung in rungs[j:]:
                while m & rung[1] == m:
                    rung = rung[2]
                child.append(rung)
            stack.append((child, m, k, j))


def gcd_closure(family: MonomialFamily) -> tuple[Monomial, ...]:
    """All gcds of nonempty subsets of the family, in canonical order.

    Includes the members themselves and, whenever the family has no common
    factor, the unit.  Raises ``CapacityError`` beyond ``CLOSURE_LIMIT``
    elements.
    """
    table = _thresholds([m.exponents for m in family.members])
    cells = _closed_cells(table, family.n)
    gcds = [Monomial(tuple([r[0] for r in cell[0]])) for cell in cells]
    return tuple(_canonical(gcds))


def _mixed_candidates(family: MonomialFamily, slope: Fraction, table):
    """Candidates of a family of mixed degrees from the closed cells of its
    threshold table ``table``: for every cell g and size k, the k-prefix
    of g's multiples in canonical order, as (numerator, denominator, mask)
    of the quotient bound (deg g - degree sum) / (k - 1), where the prefix
    is the mask of the k lowest bits of g's multiples; only bounds at or
    above the slope."""
    n, degs = family.n, family.degrees
    slope_num, slope_den = slope.numerator, slope.denominator
    for _, num, mask, _ in _closed_cells(table, n, 2):
        k, rest = 0, mask
        while rest and k < n - 1:
            low = rest & -rest
            rest ^= low
            num -= degs[low.bit_length() - 1]
            if k and num * slope_den >= slope_num * k:
                yield num, k, mask ^ rest
            k += 1


def _scan_band(n: int, d: int, v: int) -> tuple[int, int]:
    """Bounds ``(top, k_min)`` on the candidates of an n-member
    equal-degree-d family in v variables: every candidate cell has degree
    at most ``top`` and at least ``k_min`` multiples.

    A degree-t cell with k multiples is a candidate iff d*k >= (d-t)*n + t,
    that is t >= t_min(k) = ceil(d*(n-k)/(n-1)), and it has at most
    C(d-t+v-1, v-1) multiples (one per degree-(d-t) cofactor).  ``top`` is
    the largest t <= d-1 at which that cap passes the test, or 0.  A cell
    with k multiples leads to a candidate of degree at most ``top`` only if
    t_min(k) <= top, that is d*k >= (d-top)*n + top.  Both bounds only
    shrink along a walk that raises exponents, so a scan can stop at the
    first cell outside them.
    """
    for top in range(d - 1, 0, -1):
        if d * comb(d - top + v - 1, v - 1) >= (d - top) * n + top:
            return top, max(2, -(-((d - top) * n + top) // d))
    return 0, n + 1


def _lattice_walk(table, depth, mask, t, n, d, top, k_min, out) -> None:
    """Walk the value grid of a threshold table depth-first, from column
    ``depth`` down to column 0, appending to ``out`` every cell of degree
    1..``top`` whose multiples are a candidate of an n-member
    equal-degree-d family, as (numerator, denominator, mask of the
    multiples) of its quotient; only margins at or below zero.

    ``table[j]`` holds the ``(value, mask)`` pairs of the j-th walked
    variable (see ``_thresholds``), so a cell's exponents are values that
    its columns hold.  ``mask`` holds the multiples of the cell reached so
    far, of degree t, and each step ANDs in one mask and adds its value,
    so a cell's multiples are the bits of its mask.  Raising an exponent
    raises the degree and drops multiples, so a loop stops at the first
    cell outside ``_scan_band``'s bounds (``top``, ``k_min``); a value of
    d or more is past ``top``.  Bit positions are the table's:
    ``check_efficient`` numbers members in canonical order, the search's
    shared table by free index."""
    for value, above in table[depth]:
        below = mask & above
        k = below.bit_count()
        s = t + value
        if s > top or k < k_min:
            break
        if depth:
            _lattice_walk(table, depth - 1, below, s, n, d, top, k_min, out)
        elif s and (d - s) * n + s <= d * k:
            out.append((s - d * k, k - 1, below))


def _equal_candidates(table, n: int, d: int):
    """Yield, for every cell g of degree 1..d-1 with k >= 2 multiples
    among the n members of an equal-degree-d threshold table ``table``,
    the full multiple set, where the quotient is largest, as (numerator,
    denominator, mask of the multiples); only margins at or below zero.

    The one place that routes between the scans.  When the exponent box,
    of min(max exponent of x_i, d-1) + 1 cells along axis i, has at most
    ``GRID_LIMIT`` cells, ``_lattice_walk`` visits the value grid, without
    the variables that no member uses, so the depth stays below the number
    of axes such a box can have.  Otherwise ``_closed_cells`` visits the
    gcds of subsets with at least ``_scan_band``'s ``k_min`` multiples; a
    cell of degree t above the band's ``top`` has at most C(d-t+v-1, v-1)
    < ``k_min`` multiples, so the degree bound holds there too."""
    top, k_min = _scan_band(n, d, len(table))
    if prod(min(pairs[-1][0], d - 1) + 1 for pairs in table) > GRID_LIMIT:
        for _, t, mask, k in _closed_cells(table, n, k_min):
            if t and (d - t) * n + t <= d * k:
                yield t - d * k, k - 1, mask
    elif top:
        # The walk runs from its last column down, so x_0 leads.
        walked = [pairs for pairs in reversed(table) if pairs[-1][0]]
        out = []
        _lattice_walk(
            walked, len(walked) - 1, (1 << n) - 1, 0, n, d, top, k_min, out
        )
        yield from out


def check_efficient(family: MonomialFamily) -> StabilityVerdict:
    """Decide stability by scanning candidate gcds instead of subsets.

    A subset of size k whose gcd is divisible by g has a quotient at most
    that of the first k multiples of g in canonical order, which have the
    smallest degrees; with g the subset's own gcd, that prefix attains the
    bound.  So the maximum over candidates g and prefixes is the maximum
    over subsets, and the lexicographically smallest maximizing prefix is
    the oracle's witness.  A maximizing prefix's gcd is g itself, or a
    larger gcd would give a larger quotient, so a candidate is only the
    mask of its members.  The family's threshold table, built here, goes
    to ``_equal_candidates`` when every member has one degree, where only
    full multiple sets matter because the quotient grows with k, and which
    picks the lattice walk or the closed-cell scan by the exponent box;
    otherwise to ``_mixed_candidates``, on the closed-cell scan.  The
    closed-cell scan visits each gcd of a subset at most once and raises
    ``CapacityError`` past ``CLOSURE_LIMIT`` visits.  Verdicts equal
    ``check_brute_force``'s.
    """
    slope = _validate_for_check(family)
    table = _thresholds([m.exponents for m in family.members])
    if family.is_equal_degree:
        candidates = _equal_candidates(table, family.n, family.degrees[0])
    else:
        candidates = _mixed_candidates(family, slope, table)
    # As in check_brute_force, -1 / 0 stands below every quotient; ties
    # keep the witness rule's first mask as they arrive.
    best_num, best_den, best = -1, 0, 0
    for num, den, mask in candidates:
        cross = num * best_den - best_num * den
        if cross > 0:
            best_num, best_den, best = num, den, mask
        elif cross == 0:
            best = _first_mask(best, mask)
    indices = tuple(i for i in range(best.bit_length()) if best >> i & 1)
    return _verdict(family, slope, best_num, best_den, indices)


def _first_mask(first: int, mask: int) -> int:
    """Of two masks, the one whose index tuple (its set bits, ascending) is
    lexicographically smaller, compared without building tuples.  The masks
    agree below their lowest differing bit; the one holding that bit comes
    first, unless the other has no bit above it and so is a prefix of it."""
    diff = first ^ mask
    low = diff & -diff
    holder, other = (first, mask) if first & low else (mask, first)
    return holder if other > low else other
