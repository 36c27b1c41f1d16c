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

    # Built once per member by the generators and compared once per adjacent
    # pair in a family's duplicate check, so __init__, __eq__ and __hash__
    # are written out instead of looping over _FIELDS.
    def __init__(self, exponents: tuple[int, ...]) -> None:
        try:
            exps = tuple(map(index, exponents))
        except TypeError:
            # ``index`` refuses floats and strings, which ``int`` would
            # truncate or parse; name the first such exponent.
            for e in exponents:
                try:
                    index(e)
                except TypeError:
                    raise ValueError(f"exponent {e!r} is not an integer") from None
            raise
        if len(exps) < 2:
            raise ValueError("a monomial needs at least two variables")
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        if sum(exps) > MAX_DEGREE:
            raise ValueError(f"degree {sum(exps)} exceeds the limit {MAX_DEGREE}")
        object.__setattr__(self, "exponents", exps)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.exponents == other.exponents

    def __hash__(self) -> int:
        return hash((self.exponents,))

    @property
    def var_count(self) -> int:
        return len(self.exponents)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    @property
    def is_unit(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def gcd(self, other: Monomial) -> Monomial:
        """Componentwise minimum of the two exponent vectors."""
        if len(other.exponents) != len(self.exponents):
            raise MismatchedVariablesError(
                f"cannot combine monomials over {self.var_count} and "
                f"{other.var_count} variables"
            )
        return Monomial(tuple(map(min, self.exponents, other.exponents)))

    def canon_key(self) -> tuple[int, tuple[int, ...]]:
        """Sort key: degree ascending, then exponents descending-lex.
        Families sort by ``_canonical``, which gives the same order."""
        return (self.degree, tuple(-e for e in self.exponents))

    @classmethod
    def parse(cls, text: str, var_count: int | None = None) -> Monomial:
        """Parse a single monomial, either compact (``x0^5 x2^3``) or as a
        bare exponent vector (``5 0 3``), as the one member line of a family:
        the variable count is inferred and capped as in ``from_text``."""
        return _build_members([(1, *_parse_member_line(text))], var_count)[0]

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
    """Monomials over one variable count in the order of
    ``Monomial.canon_key``, by two stable sorts on keys read in C:
    exponent vectors descending, then degree ascending.  Equal monomials
    end up adjacent."""
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


def _parse_member_line(line: str):
    """Classify one member line; returns (kind, payload)."""
    tokens = line.split()
    if not tokens:
        raise FamilyFormatError("empty monomial")
    if tokens == ["1"]:
        return "unit", None
    if all(tok.isdigit() for tok in tokens):
        return "vector", [_parse_int(tok) for tok in tokens]
    pairs = []
    for tok in tokens:
        m = _TOKEN_RE.match(tok)
        if m is None:
            raise FamilyFormatError(f"unrecognized token {tok!r}")
        index = _parse_int(m.group(1))
        exponent = 1 if m.group(2) is None else _parse_int(m.group(2))
        pairs.append((index, exponent))
    return "compact", pairs


def _build_members(raw: list, var_count: int | None) -> tuple[Monomial, ...]:
    """Build classified member lines, ``(lineno, kind, payload)``, over
    ``var_count`` variables, or over the count the lines imply when it is
    None.  Refuses more than ``MAX_FAMILY_CELLS`` member cells before any
    member is built."""
    if var_count is None:
        vector_lens = {len(p) for _, kind, p in raw if kind == "vector"}
        if len(vector_lens) > 1:
            raise FamilyFormatError(
                f"inconsistent exponent vector lengths {sorted(vector_lens)}"
            )
        if vector_lens:
            var_count = vector_lens.pop()
            if var_count < 2:
                raise FamilyFormatError("exponent vectors need at least 2 entries")
        else:
            indices = [i for _, kind, p in raw if kind == "compact" for i, _ in p]
            if not indices:
                raise FamilyFormatError("cannot infer variable count")
            var_count = max(2, max(indices) + 1)
    if len(raw) * var_count > MAX_FAMILY_CELLS:
        raise FamilyFormatError(
            f"family too large: {len(raw)} members x {var_count} variables "
            f"exceeds the limit of {MAX_FAMILY_CELLS} member cells"
        )
    members = []
    for lineno, kind, payload in raw:
        try:
            members.append(_to_monomial(kind, payload, var_count))
        except FamilyFormatError as err:
            raise FamilyFormatError(f"line {lineno}: {err}") from None
    return tuple(members)


def _to_monomial(kind: str, payload, var_count: int) -> Monomial:
    """Build one classified member line over ``var_count`` variables.
    Every failure, including ``Monomial``'s own validation, is reported as
    a ``FamilyFormatError``."""
    if kind == "vector":
        if len(payload) != var_count:
            raise FamilyFormatError(
                f"expected {var_count} exponents, got {len(payload)}"
            )
        exps = list(payload)
    else:
        exps = [0] * var_count
        for index, exponent in payload or ():
            if index >= var_count:
                raise FamilyFormatError(
                    f"variable x{index} out of range for {var_count} variables"
                )
            exps[index] += exponent
    try:
        return Monomial(tuple(exps))
    except ValueError as err:
        raise FamilyFormatError(str(err)) from None


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
            if a == b:
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
        if var_count is None:
            if not monos:
                raise FamilyFormatError("a family needs at least one member")
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
        raw: list[tuple[int, str, object]] = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            header = re.match(r"^vars\s*=\s*(\d+)$", line)
            if header:
                if raw or var_count is not None:
                    raise FamilyFormatError(
                        f"line {lineno}: vars= header must come first"
                    )
                try:
                    var_count = _parse_int(header.group(1))
                except FamilyFormatError as err:
                    raise FamilyFormatError(f"line {lineno}: {err}") from None
                if var_count < 2:
                    raise FamilyFormatError("vars= must be at least 2")
                continue
            try:
                raw.append((lineno, *_parse_member_line(line)))
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
