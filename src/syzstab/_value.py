"""The base of the package's immutable result types.

A subclass names its fields in ``_FIELDS`` and writes its own
``__init__``, which sets each field once: through ``_assign``, or through
``object.__setattr__`` where a constructor is hot.  The base compares,
hashes, prints and pickles instances by their field values, in
``_FIELDS`` order, and refuses any later assignment.  Unlike
``dataclasses``, it imports nothing, so a process that only prints a
report does not load ``inspect``.
"""


class Value:
    """Equality, hash, repr, immutability and pickling over ``_FIELDS``."""

    __slots__ = ()
    _FIELDS: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # Lets a class pattern match fields by position: ``case Monomial(e)``.
        cls.__match_args__ = cls._FIELDS

    def _assign(self, *values) -> None:
        """Set the fields, in ``_FIELDS`` order, once."""
        for name, value in zip(self._FIELDS, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._FIELDS])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._FIELDS)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Rebuilt through __init__, since __setattr__ refuses the default
        # route's assignments to slots.
        return self.__class__, self._values()
