"""Constructions of equal-degree monomial families with (semi)stable syzygy
bundles, for every supported (variables, size, degree) combination.

The plane case (three variables) is covered by four constructions keyed by
where the family size n sits relative to the degree d:

* a catalog of hand-picked families for n up to 18,
* a layered triangular pattern for 18 < n <= d+2,
* a strip along two edges of the degree triangle for d+2 < n <= 3d,
* corner-filled patterns for 3d < n < the full triangle.

More variables are handled by induction: extend a family in one fewer
variable by the pure power of the new variable.  Every returned family is
post-validated (size, degree, distinctness, pure power of each variable).

``generate`` returns the family together with a ``FamilyRecipe`` recording
which construction fired and its derived parameters.  The recipe ``source``
strings ("P31", "P32", ..., "Induction") are stable contract identifiers
for callers; the builder functions carry the descriptive names.
"""

from __future__ import annotations

from math import comb
from typing import Iterable

from ._value import Value
from .errors import InvalidFamilyError, UnsupportedRangeError
from .monomial import (
    MAX_DEGREE,
    MAX_FAMILY_CELLS,
    MonomialFamily,
    exponent_vectors_of_degree,
    pure_powers,
)

#: Catalog constructions cover family sizes 3..18 in the plane.
CATALOG_MAX_SIZE = 18


class FamilyRecipe(Value):
    """Which construction produced a family, with its derived parameters."""

    _FIELDS = ("N", "n", "d", "source", "params")
    __slots__ = _FIELDS

    def __init__(
        self, N: int, n: int, d: int, source: str, params: dict | None = None
    ) -> None:
        self._assign(N, n, d, source, {} if params is None else params)


def _comb2(x: int) -> int:
    """x choose 2, clamped to 0 for x < 2."""
    return comb(x, 2) if x >= 2 else 0


def _balanced_triple(d: int) -> tuple[int, int, int]:
    """Split d into three near-equal parts, largest first."""
    e0 = -(-d // 3)
    e2 = d // 3
    return e0, d - e0 - e2, e2


def _level_cuts(d: int, parts: int, count: int) -> tuple[tuple[int, ...], int, int]:
    """First ``count`` cut positions when d is split into ``parts`` near-equal
    steps: cut l sits at l*m + min(l, t) where d = m*parts + t."""
    m, t = divmod(d, parts)
    return tuple(l * m + min(l, t) for l in range(1, count + 1)), m, t


def _validated(
    members: list[tuple[int, ...]], N: int, n: int, d: int, source: str,
    params: dict | None = None,
) -> tuple[MonomialFamily, FamilyRecipe]:
    """The family of ``members`` over N+1 variables, checked to have n
    members, all of degree d, among them every pure power, with the recipe
    of the construction ``source`` that built it."""
    family = MonomialFamily.of(members, var_count=N + 1)
    if family.n != n:
        raise InvalidFamilyError(f"expected {n} members, built {family.n}")
    if any(m.degree != d for m in family.members):
        raise InvalidFamilyError(f"expected every member of degree {d}")
    if not family.is_m_primary():
        raise InvalidFamilyError("family must contain every pure power")
    return family, FamilyRecipe(N, n, d, source, params)


# -- catalog: plane families of size 3..18 ------------------------------

#: Hand-placed members of the catalog families at these (n, d), beside the
#: pure powers.
_TUNED = {
    (9, 8): [(3, 3, 2), (6, 2, 0), (2, 0, 6), (5, 0, 3), (0, 6, 2), (0, 3, 5)],
    (10, 9): [
        (3, 3, 3), (6, 3, 0), (3, 6, 0),
        (6, 0, 3), (3, 0, 6), (0, 6, 3), (0, 3, 6),
    ],
    (11, 12): [
        (9, 3, 0), (6, 6, 0), (3, 9, 0),
        (9, 0, 3), (6, 0, 6), (3, 0, 9),
        (0, 9, 3), (0, 6, 6),
    ],
    (12, 11): [
        (8, 3, 0), (8, 0, 3), (5, 2, 4), (4, 4, 3),
        (3, 8, 0), (3, 0, 8), (2, 5, 4), (0, 8, 3), (0, 3, 8),
    ],
}


def _edges(
    d: int, a: Iterable[int], b: Iterable[int], c: Iterable[int]
) -> list[tuple[int, ...]]:
    """Members on the edges of the degree-d triangle: X0^i X1^(d-i) for
    each i in a, then X0^i X2^(d-i) for each i in b, then X1^i X2^(d-i)
    for each i in c."""
    return (
        [(i, d - i, 0) for i in a]
        + [(i, 0, d - i) for i in b]
        + [(0, i, d - i) for i in c]
    )


def _catalog_members(n: int, d: int) -> tuple[list[tuple[int, ...]], dict]:
    """Member list and parameter record for the size-3..18 catalog."""
    out = pure_powers(3, d)
    tuned = _TUNED.get((n, d))
    if tuned is not None:
        return out + tuned, {"tuned": True}
    e = e0, e1, e2 = _balanced_triple(d)

    if n == 3:
        return out, {}
    if n == 4:
        return out + [e], {"e": e}
    if n == 5:
        i = -(-d // 2)
        return out + [e, (0, d - i, i)], {"e": e, "i": i}
    if n == 6:
        return out + _edges(d, [e0], [d - e0], [e0]), {"e0": e0}
    if n == 7:
        return out + [e] + _edges(d, [e0], [d - e0], [e0]), {"e": e}
    if n == 8:
        return out + [e] + _edges(d, [e0 + e1], [e2], [e0 + e1, e0]), {"e": e}
    if n == 9:
        levels, m, t = _level_cuts(d, 3, 2)
        extra = _edges(d, levels, [d - i for i in levels], levels)
        return out + extra, {"m": m, "t": t, "levels": levels}
    if n in (10, 11):
        levels, m, t = _level_cuts(d, 5, 4)
        i1, i2, i3, i4 = levels
        extra = [(i2, i1, d - i1 - i2)]
        extra += _edges(d, (i4, i2, i3)[: n - 8], (i3, i1), (i2, i4))
        return out + extra, {"m": m, "t": t, "levels": levels}
    # 12 <= n <= CATALOG_MAX_SIZE: the pure powers and every level on every
    # edge make 3 * parts members; the first n - 3 * parts inner members
    # X0^i_a X1^(d-i_b) X2^(i_b-i_a), for the level pairs (a, b), make the
    # rest.
    parts = 4 if n <= 15 else 5
    levels, m, t = _level_cuts(d, parts, parts - 1)
    i = (0,) + levels  # i[l] is cut l, with i[0] = 0
    pairs = ((2, 3), (1, 2), (1, 3)) if parts == 4 else ((2, 3), (2, 4), (1, 3))
    inner = [(i[a], d - i[b], i[b] - i[a]) for a, b in pairs[: n - 3 * parts]]
    extra = inner + _edges(d, levels, levels, levels)
    return out + extra, {"m": m, "t": t, "levels": levels}


def generate_P31(n: int, d: int) -> tuple[MonomialFamily, FamilyRecipe]:
    """Catalog construction: plane families of size 3..18 with d >= n-2."""
    if not (3 <= n <= CATALOG_MAX_SIZE and d >= n - 2):
        raise UnsupportedRangeError(
            f"catalog covers 3 <= n <= {CATALOG_MAX_SIZE} with d >= n-2; "
            f"got n={n}, d={d}"
        )
    members, params = _catalog_members(n, d)
    return _validated(members, 2, n, d, "P31", params)


# -- layered triangular construction: 18 < n <= d+2 ---------------------

def generate_P32(n: int, d: int) -> tuple[MonomialFamily, FamilyRecipe]:
    """Layered construction for 18 < n <= d+2.

    A core of T = (j+2)(j+3)/2 monomials is built from j cut levels of the
    degree interval; the remaining r = n - T members come from a fixed
    auxiliary sequence of midpoints between the cuts.
    """
    if not 18 < n <= d + 2:
        raise UnsupportedRangeError(
            f"layered construction covers 18 < n <= d+2; got n={n}, d={d}"
        )
    j = 3
    while comb(j + 4, 2) <= n:
        j += 1
    r = n - comb(j + 3, 2)
    levels, m, t = _level_cuts(d, j + 1, j)
    e = -(-m // 2)
    i = (0,) + levels  # i[l] is cut l, with i[0] = 0

    core: list[tuple[int, ...]] = [(d, 0, 0)]
    for l in range(j, 0, -1):
        core.append((i[l], d - i[l], 0))
        for h in range(l + 1, j + 1):
            core.append((i[l], d - i[h], i[h] - i[l]))
        core.append((i[l], 0, d - i[l]))
    core.append((0, d, 0))
    for h in range(j, 0, -1):
        core.append((0, i[h], d - i[h]))
    core.append((0, 0, d))

    q = -(-(j - 1) // 3)
    aux: list[tuple[int, ...]] = []
    for u in range(q + 1):
        a, b = i[j - u] + e, i[u] + e
        aux.append((a, d - a, 0))
        aux.append((b, 0, d - b))
        aux.append((0, a, d - a))

    params = {"j": j, "r": r, "m": m, "t": t, "e": e, "levels": levels}
    return _validated(core + aux[:r], 2, n, d, "P32", params)


# -- two-edge strip: d+2 < n <= 3d --------------------------------------

def generate_P33(n: int, d: int) -> tuple[MonomialFamily, FamilyRecipe]:
    """Edge-strip construction for d+2 < n <= 3d.

    The full first edge of the degree triangle plus the opposite corner,
    extended along the other two edges in a fixed order.  The (n, d) =
    (5, 2) family is the lone merely-semistable output.

    The generic tail order breaks down at n = 2d+1 exactly: there the
    slope bound forces every exponent-(d-1) power to divide at most two
    members, which the full first edge already saturates for X0 and X1,
    so the tail element for that step must avoid both.  Those sizes get
    a substitute member (d >= 4) or a bespoke family (d = 3).
    """
    if (n, d) == (5, 2):
        members = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1)]
        return _validated(members, 2, n, d, "P33", {"tuned": True})
    if not d + 2 < n <= 3 * d:
        raise UnsupportedRangeError(
            f"edge-strip construction covers d+2 < n <= 3d; got n={n}, d={d}"
        )
    i = n - d - 2
    if (n, d) == (7, 3):
        members = [
            (3, 0, 0), (0, 3, 0), (0, 0, 3),
            (2, 1, 0), (0, 2, 1), (1, 0, 2), (1, 1, 1),
        ]
        return _validated(members, 2, n, d, "P33", {"i": i, "tuned": True})
    base = [(a, d - a, 0) for a in range(d, -1, -1)] + [(0, 0, d)]
    tail = (
        [(a, 0, d - a) for a in range(1, d - 1)]
        + [(0, d - 1, 1), (d - 1, 0, 1)]
        + [(0, b, d - b) for b in range(1, d - 1)]
    )
    chosen = tail[:i]
    params = {"i": i}
    if i == d - 1:
        # Swap out X1^(d-1) X2: it would give X1^(d-1) a third multiple
        # at the one size where two is the most a (d-1)-th power allows.
        chosen[-1] = (0, 2, d - 2)
        params["tuned"] = True
    return _validated(base + chosen, 2, n, d, "P33", params)


# -- corner fills: 3d < n < full triangle -------------------------------

def generate_P34(n: int, d: int) -> tuple[MonomialFamily, FamilyRecipe]:
    """Corner-fill construction for 3d < n <= the full triangle count.

    Members are all monomials with some exponent below a threshold j (three
    filled corners), plus a prefix of one row through the middle.  Three
    sub-cases successively relax the threshold on one axis.  The very top
    count with d divisible by 3 is the full set instead.
    """
    full = comb(d + 2, 2)
    if not 3 * d < n <= full:
        raise UnsupportedRangeError(
            f"corner-fill construction covers 3d < n <= {full}; "
            f"got n={n}, d={d}"
        )
    if n == full and d % 3 == 0:
        return generate_full_set(2, d)

    matches = [
        j
        for j in range(1, (d + 2) // 3)
        if full - _comb2(d + 2 - 3 * j) < n <= full - _comb2(d - 3 * j - 1)
    ]
    if len(matches) != 1:
        raise InvalidFamilyError(
            f"threshold for n={n}, d={d} not unique: {matches}"
        )
    (j,) = matches
    lo = full - _comb2(d + 2 - 3 * j)
    c1 = full - _comb2(d + 1 - 3 * j)
    c2 = full - _comb2(d - 3 * j)

    if n <= c1:
        case, i = 1, n - lo
        keep = lambda v: v[0] < j or v[1] < j or v[2] < j
        row = [(d - 2 * j - u, j + u, j) for u in range(d - 3 * j + 1)]
    elif n <= c2:
        case, i = 2, n - c1
        keep = lambda v: v[0] < j or v[1] < j or v[2] <= j
        row = [(j + u, j, d - 2 * j - u) for u in range(d - 3 * j)]
    else:
        case, i = 3, n - c2
        keep = lambda v: v[0] < j or v[1] <= j or v[2] <= j
        row = [(j, j + u, d - 2 * j - u) for u in range(1, d - 3 * j)]

    corners = [v for v in exponent_vectors_of_degree(3, d) if keep(v)]
    return _validated(corners + row[:i], 2, n, d, f"P34-case{case}", {"j": j, "i": i})


# -- universal families -------------------------------------------------

def generate_pure_powers(N: int, d: int) -> tuple[MonomialFamily, FamilyRecipe]:
    """The N+1 pure powers X_i^d."""
    return _validated(pure_powers(N + 1, d), N, N + 1, d, "PurePowers")


def generate_full_set(N: int, d: int) -> tuple[MonomialFamily, FamilyRecipe]:
    """All monomials of degree d in N+1 variables."""
    members = list(exponent_vectors_of_degree(N + 1, d))
    return _validated(members, N, len(members), d, "FullSet")


# -- dispatchers --------------------------------------------------------

def _check_request(var_count: int, n: int, d: int) -> None:
    """Reject a degree no member can have, or more than ``MAX_FAMILY_CELLS``
    member cells, before any member is built."""
    if not 1 <= d <= MAX_DEGREE:
        raise UnsupportedRangeError(
            f"degree must be between 1 and {MAX_DEGREE}, got {d}"
        )
    if var_count * n > MAX_FAMILY_CELLS:
        raise UnsupportedRangeError(
            f"family too large: {n} members x {var_count} variables exceeds "
            f"the limit of {MAX_FAMILY_CELLS} member cells"
        )


def generate_P2(n: int, d: int) -> tuple[MonomialFamily, FamilyRecipe]:
    """Plane dispatcher: pick the construction for 3 <= n <= (d+2)(d+1)/2."""
    _check_request(3, n, d)
    full = comb(d + 2, 2)
    if not 3 <= n <= full:
        raise UnsupportedRangeError(
            f"plane families need 3 <= n <= {full} for degree {d}; got n={n}"
        )
    if n == full:
        return generate_full_set(2, d)
    if n <= CATALOG_MAX_SIZE and n <= d + 2:
        return generate_P31(n, d)
    if n <= d + 2:
        return generate_P32(n, d)
    if n <= 3 * d:
        return generate_P33(n, d)
    return generate_P34(n, d)


def _direct(N: int, n: int, d: int):
    """The (family, recipe) of the construction that covers (N, n, d)
    without induction, or None when there is none."""
    if N == 2:
        return generate_P2(n, d)
    if (N, n, d) == (3, 5, 2):
        members = [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2),
                   (1, 1, 0, 0)]
        return _validated(members, N, n, d, "Special352")
    if n == N + 1:
        return generate_pure_powers(N, d)
    if n == comb(d + N, N):
        return generate_full_set(N, d)
    return None


def generate(N: int, n: int, d: int) -> tuple[MonomialFamily, FamilyRecipe]:
    """Construct a size-n degree-d family in N+1 variables whose syzygy
    bundle is stable (semistable only for the plane (n, d) = (5, 2) case).

    Supported sizes: N+1 <= n <= (d+2)(d+1)/2 + N - 2, plus the full set of
    all degree-d monomials.  Sizes in between those two bounds have no known
    construction here and raise ``UnsupportedRangeError``.  Families of
    more than ``MAX_FAMILY_CELLS`` members times variables are refused too.
    """
    if N < 2:
        raise UnsupportedRangeError(
            f"constructions need at least 3 variables (N >= 2), got N={N}"
        )
    _check_request(N + 1, n, d)
    full = comb(d + N, N)
    upper = comb(d + 2, 2) + N - 2
    if N > 2 and not (N + 1 <= n <= upper or n == full):
        raise UnsupportedRangeError(
            f"no construction for N={N}, n={n}, d={d}: supported sizes are "
            f"{N + 1} <= n <= {upper}, or n = {full} (all degree-{d} monomials); "
            f"the range {upper} < n < {full} is an open gap"
        )
    # Induction: drop the last k variables and their pure powers until a
    # construction of its own applies, which it does by N - k = 2 at the
    # latest; then add them back, with one validation of the whole family.
    k = 0
    while (built := _direct(N - k, n - k, d)) is None:
        k += 1
    if k == 0:
        return built
    members = [m.exponents + (0,) * k for m in built[0].members]
    members += pure_powers(N + 1, d)[N + 1 - k:]
    params = {"base_N": N - 1, "base_n": n - 1}
    return _validated(members, N, n, d, "Induction", params)
