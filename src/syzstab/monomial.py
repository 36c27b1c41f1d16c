"""Monomials with nonnegative integer exponents, and finite families of them.

A monomial is an exponent vector over a fixed list of variables x0, x1, ...
Families keep their members in a canonical order (degree ascending, then
exponent vector descending lexicographically) so that equal families always
serialize identically and member indices are reproducible.
"""

from __future__ import annotations

import re
from functools import cached_property
from operator import attrgetter, index
from typing import Iterable, Iterator, Sequence

from ._value import Value
from .errors import (
    DuplicateMemberError,
    FamilyFormatError,
    MismatchedVariablesError,
)

# Guard against pathological inputs; everything downstream assumes exact
# integer arithmetic, which stays cheap only for sane exponents.
MAX_DEGREE = 10**6

#: Largest number of member cells, members times variables, of a parsed or
#: generated family; checked before any member is built, so a huge variable
#: index or ``vars=`` header is an input error and not an allocation.
MAX_FAMILY_CELLS = 10**6

_TOKEN_RE = re.compile(r"^[xX](\d+)(?:\^(\d+))?$")


class Monomial(Value):
    """A single monomial, stored as its exponent vector."""

    _FIELDS = ("exponents",)
    __slots__ = _FIELDS

    # Built once per member by the generators and the parser, so __init__
    # is written out instead of built from _FIELDS.
    def __init__(self, exponents: tuple[int, ...]) -> None:
        # A one-shot iterable is read once, so that the loop below can still
        # name its refused exponent.
        values = tuple(exponents)
        try:
            exps = tuple(map(index, values))
        except TypeError:
            # ``index`` refuses floats and strings, which ``int`` would
            # truncate or parse; name the first such exponent.
            for e in values:
                try:
                    index(e)
                except TypeError:
                    raise ValueError(f"exponent {e!r} is not an integer") from None
        if len(exps) < 2:
            raise ValueError("a monomial needs at least two variables")
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        if sum(exps) > MAX_DEGREE:
            raise ValueError(f"degree {sum(exps)} exceeds the limit {MAX_DEGREE}")
        object.__setattr__(self, "exponents", exps)

    @property
    def var_count(self) -> int:
        return len(self.exponents)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    @property
    def is_unit(self) -> bool:
        return all(e == 0 for e in self.exponents)

    @classmethod
    def parse(cls, text: str, var_count: int | None = None) -> Monomial:
        """Parse a single monomial, either compact (``x0^5 x2^3``) or as a
        bare exponent vector (``5 0 3``), as the one member line of a family:
        the variable count is inferred and capped as in ``from_text``, and
        a failure of the line names it as line 1."""
        try:
            parsed = _parse_member_line(text)
        except FamilyFormatError as err:
            raise FamilyFormatError(f"line 1: {err}") from None
        return _build_members([(1, parsed)], var_count)[0]

    def __str__(self) -> str:
        if self.is_unit:
            return "1"
        parts = []
        for i, e in enumerate(self.exponents):
            if e == 1:
                parts.append(f"x{i}")
            elif e > 1:
                parts.append(f"x{i}^{e}")
        return " ".join(parts)


_exponents = attrgetter("exponents")
_degree = attrgetter("degree")


def _canonical(monomials: Iterable[Monomial]) -> list[Monomial]:
    """Monomials over one variable count in canonical order, degree
    ascending and then exponent vectors descending lexicographically, by
    two stable sorts on keys read in C: exponent vectors descending, then
    degree ascending.  Equal monomials end up adjacent."""
    ordered = sorted(monomials, key=_exponents, reverse=True)
    ordered.sort(key=_degree)
    return ordered


def _parse_int(text: str) -> int:
    """``int(text)`` for a run of digits, refusing as a ``FamilyFormatError``
    what ``int`` cannot read: more digits than Python converts by default,
    or a character such as '²' that ``str.isdigit`` accepts."""
    try:
        return int(text)
    except ValueError:
        shown = repr(text) if len(text) <= 20 else f"of {len(text)} digits"
        raise FamilyFormatError(f"cannot read number {shown}") from None


def _parse_member_line(line: str) -> list[int] | dict[int, int]:
    """One member line as data: a bare exponent vector as a list, or the
    compact form as a dict from variable index to exponent, its indices in
    the order they first occur (``{}`` for the unit ``1``)."""
    tokens = line.split()
    if not tokens:
        raise FamilyFormatError("empty monomial")
    if tokens == ["1"]:
        return {}
    if all(tok.isdigit() for tok in tokens):
        return [_parse_int(tok) for tok in tokens]
    powers: dict[int, int] = {}
    for tok in tokens:
        m = _TOKEN_RE.match(tok)
        if m is None:
            raise FamilyFormatError(f"unrecognized token {tok!r}")
        index = _parse_int(m.group(1))
        exponent = 1 if m.group(2) is None else _parse_int(m.group(2))
        powers[index] = powers.get(index, 0) + exponent
    return powers


def _build_members(raw: list, var_count: int | None) -> tuple[Monomial, ...]:
    """Build member lines, ``(lineno, parsed)`` pairs with ``parsed`` from
    ``_parse_member_line``, over ``var_count`` variables, or over the count
    the lines imply when it is None.  Refuses more than
    ``MAX_FAMILY_CELLS`` member cells before any member is built.  Every
    failure of a line, ``Monomial``'s own validation included, is a
    ``FamilyFormatError`` that names the line."""
    if var_count is None:
        vector_lens = {len(p) for _, p in raw if isinstance(p, list)}
        if len(vector_lens) > 1:
            raise FamilyFormatError(
                f"inconsistent exponent vector lengths {sorted(vector_lens)}"
            )
        if vector_lens:
            var_count = vector_lens.pop()
            if var_count < 2:
                raise FamilyFormatError("exponent vectors need at least 2 entries")
        else:
            indices = [i for _, powers in raw for i in powers]
            if not indices:
                raise FamilyFormatError("cannot infer variable count")
            var_count = max(2, max(indices) + 1)
    if len(raw) * var_count > MAX_FAMILY_CELLS:
        raise FamilyFormatError(
            f"family too large: {len(raw)} members x {var_count} variables "
            f"exceeds the limit of {MAX_FAMILY_CELLS} member cells"
        )
    members = []
    for lineno, exps in raw:
        try:
            if isinstance(exps, dict):
                powers, exps = exps, [0] * var_count
                for index, exponent in powers.items():
                    if index >= var_count:
                        raise FamilyFormatError(
                            f"variable x{index} out of range for {var_count} variables"
                        )
                    exps[index] = exponent
            elif len(exps) != var_count:
                raise FamilyFormatError(
                    f"expected {var_count} exponents, got {len(exps)}"
                )
            members.append(Monomial(tuple(exps)))
        except (FamilyFormatError, ValueError) as err:
            raise FamilyFormatError(f"line {lineno}: {err}") from None
    return tuple(members)


class MonomialFamily(Value):
    """An ordered set of distinct monomials over a common variable list.

    Construction canonicalizes member order, so two families with the same
    member set compare equal and report the same member indices.
    """

    # No __slots__: the cached ``degrees`` lives in the instance __dict__.
    _FIELDS = ("var_count", "members")

    def __init__(self, var_count: int, members: tuple[Monomial, ...]) -> None:
        members = tuple(members)
        if not members:
            raise FamilyFormatError("a family needs at least one member")
        for m in members:
            if m.var_count != var_count:
                raise MismatchedVariablesError(
                    f"member {m} has {m.var_count} variables, family expects "
                    f"{var_count}"
                )
        ordered = tuple(_canonical(members))
        for a, b in zip(ordered, ordered[1:]):
            if a.exponents == b.exponents:
                raise DuplicateMemberError(f"duplicate member {a}")
        object.__setattr__(self, "var_count", var_count)
        object.__setattr__(self, "members", ordered)

    @classmethod
    def of(
        cls, members: Iterable[Monomial | Sequence[int]], var_count: int | None = None
    ) -> MonomialFamily:
        """Build a family from monomials or raw exponent vectors."""
        monos = [
            m if isinstance(m, Monomial) else Monomial(tuple(m)) for m in members
        ]
        if var_count is None and monos:
            var_count = monos[0].var_count
        return cls(var_count, tuple(monos))

    @property
    def n(self) -> int:
        return len(self.members)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(m.degree for m in self.members)

    @property
    def degree_sum(self) -> int:
        return sum(self.degrees)

    @property
    def is_equal_degree(self) -> bool:
        return len(set(self.degrees)) == 1

    def overall_gcd(self) -> Monomial:
        exps = zip(*(m.exponents for m in self.members))
        return Monomial(tuple(map(min, exps)))

    def is_m_primary(self) -> bool:
        """True when the family contains a pure power of every variable,
        i.e. the ideal it generates contains the whole maximal ideal to a
        power and cuts out only the origin."""
        others = self.var_count - 1
        covered = {
            e.index(max(e))
            for e in (m.exponents for m in self.members)
            if e.count(0) == others
        }
        return len(covered) == self.var_count

    # -- serialization ---------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> MonomialFamily:
        """Parse the line-oriented family format.

        One monomial per line, compact (``x0^5 x2^3``) or bare exponent
        vector (``5 0 3``); ``#`` starts a comment; an optional first line
        ``vars=K`` pins the variable count.
        """
        var_count: int | None = None
        raw: list[tuple[int, list[int] | dict[int, int]]] = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                header = re.match(r"^vars\s*=\s*(\d+)$", line)
                if header is None:
                    raw.append((lineno, _parse_member_line(line)))
                    continue
                if raw or var_count is not None:
                    raise FamilyFormatError("vars= header must come first")
                var_count = _parse_int(header.group(1))
                if var_count < 2:
                    raise FamilyFormatError("vars= must be at least 2")
            except FamilyFormatError as err:
                raise FamilyFormatError(f"line {lineno}: {err}") from None
        if not raw:
            raise FamilyFormatError("no monomials found")
        members = _build_members(raw, var_count)
        return cls(members[0].var_count, members)

    def to_text(self) -> str:
        lines = [f"vars={self.var_count}"]
        lines.extend(str(m) for m in self.members)
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "vars": self.var_count,
            "members": [list(m.exponents) for m in self.members],
        }

    def __str__(self) -> str:
        return "{" + ", ".join(str(m) for m in self.members) + "}"


def pure_powers(var_count: int, d: int) -> list[tuple[int, ...]]:
    """The exponent vectors of X_0^d, ..., X_(v-1)^d, in that order, for
    v = ``var_count``."""
    zeros = (0,) * var_count
    return [zeros[:i] + (d,) + zeros[i + 1:] for i in range(var_count)]


def exponent_vectors_of_degree(
    var_count: int, degree: int
) -> Iterator[tuple[int, ...]]:
    """Exponent vectors of the given total degree, in canonical order
    (descending lexicographic), without the Monomial wrapper.

    A depth-first walk on an explicit stack, so no variable count meets
    the recursion limit: it extends prefixes of the first var_count - 2
    exponents, and each full prefix takes every split of what remains
    between the last two."""
    if var_count < 2:
        raise ValueError("need at least two variables")
    if degree < 0:
        raise ValueError("degree must be nonnegative")

    def walk(last: int):
        stack = [((), degree)]
        while stack:
            prefix, rest = stack.pop()
            if len(prefix) == last:
                for e in range(rest, -1, -1):
                    yield prefix + (e, rest - e)
            else:
                # Pushed ascending, so the largest next exponent pops first.
                stack.extend([(prefix + (e,), rest - e) for e in range(rest + 1)])

    return walk(var_count - 2)
