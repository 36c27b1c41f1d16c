"""The base of the package's immutable result types.

A subclass names its fields in ``_FIELDS``.  Unless it writes its own
``__init__``, it gets one built from ``_FIELDS``: one parameter per field,
in order, each set once, where the trailing fields named in ``_DEFAULTS``
take the defaults it maps them to.  The constructor is compiled from
source, as ``dataclasses`` builds one, so ``inspect.signature`` and
``help()`` show its parameters and defaults.  A hand-written constructor
sets each field once: through ``_assign``, or through
``object.__setattr__`` where a constructor is hot.

The base compares, hashes, prints and pickles instances by their field
values, in ``_FIELDS`` order, and refuses any later assignment.  Its
``to_json_dict`` maps each field name to ``json_form`` of the value.
Unlike ``dataclasses``, it imports nothing, so a process that only prints
a report does not load ``inspect``.
"""


def json_form(value):
    """A field value as JSON data: a ``Value`` through its own
    ``to_json_dict``, a tuple as a list, a dict sorted by key and a
    ``Fraction`` as ``[numerator, denominator]``; ints, strings and
    ``None`` as they are."""
    if value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, Value):
        return value.to_json_dict()
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, dict):
        return dict(sorted(value.items()))
    # The one field type left is Fraction, read by its attributes so that
    # a process with no fraction need not import ``fractions``.
    return [value.numerator, value.denominator]


def _constructor(cls):
    """An ``__init__`` that sets the fields of ``cls`` from its arguments."""
    fields, defaults = cls._FIELDS, cls._DEFAULTS
    if tuple(defaults) != fields[len(fields) - len(defaults):]:
        raise TypeError(f"{cls.__name__}._DEFAULTS must name the last fields")
    body = "".join(f"\n    _set(self, {name!r}, {name})" for name in fields)
    namespace: dict = {}
    exec(f"def __init__(self, {', '.join(fields)}):{body}",
         {"_set": object.__setattr__}, namespace)
    init = namespace["__init__"]
    init.__defaults__ = tuple(defaults.values()) or None
    init.__module__ = cls.__module__
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


class Value:
    """Equality, hash, repr, immutability, pickling and JSON over ``_FIELDS``."""

    __slots__ = ()
    _FIELDS: tuple[str, ...] = ()
    _DEFAULTS: dict = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # Lets a class pattern match fields by position: ``case Monomial(e)``.
        cls.__match_args__ = cls._FIELDS
        if "__init__" not in cls.__dict__:
            cls.__init__ = _constructor(cls)

    def _assign(self, *values) -> None:
        """Set the fields, in ``_FIELDS`` order, once."""
        for name, value in zip(self._FIELDS, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._FIELDS])

    def to_json_dict(self) -> dict:
        return {name: json_form(getattr(self, name)) for name in self._FIELDS}

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
