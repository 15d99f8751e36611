"""Plain classes for the pipeline's records and immutable values, in place
of dataclasses: a dataclass generates and compiles its methods when its
module is imported, which every CLI run pays for, and a frozen one sets each
field through `object.__setattr__` in a generated `__init__`.

A class names its fields in `__slots__`, in order; a slot whose name starts
with `_` holds state derived from the fields (or is `__dict__`, for a
`functools.cached_property`), and is not a field. Its `__init__` sets the
fields; a `Value`'s `__init__` sets each with `set_field`. Two instances
are equal when they are of the same class and their fields are equal, as
dataclasses compare them.
"""

from __future__ import annotations

from operator import attrgetter

# sets a field of a `Value` in its `__init__`, past its guard
set_field = object.__setattr__


class Record:
    """A mutable record: equal by its fields, and so unhashable."""

    __slots__ = ()
    __hash__ = None
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(name for name in cls.__slots__
                            if not name.startswith("_"))
        # `_key` gives the tuple of the fields' values, as a dataclass
        # builds it; `Value` declares no field
        if len(cls._fields) == 1:
            get = attrgetter(cls._fields[0])
            cls._key = staticmethod(lambda obj: (get(obj),))
        elif cls._fields:
            cls._key = staticmethod(attrgetter(*cls._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Value(Record):
    """An immutable record, hashed as a frozen dataclass is: by the tuple of
    its fields. Assigning to a field raises AttributeError, so `__init__`
    sets each with `set_field`."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field '{name}' of an "
                             f"immutable {type(self).__qualname__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field '{name}' of an "
                             f"immutable {type(self).__qualname__}")


def replace(obj: Record, **changes):
    """A new instance of `obj`'s class with the fields of `obj`, except those
    `changes` names, built by its `__init__`."""
    fields = dict(zip(obj._fields, obj._key(obj)))
    return type(obj)(**{**fields, **changes})
