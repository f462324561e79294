"""Value records: `__slots__` classes compared, hashed and shown by field,
and the two rules every range condition on an input is stated with.

Not `dataclasses`, on purpose: importing it loads `inspect` and `ast`, and
each decoration compiles generated methods, which cost a CLI process
several times the rest of the package's import.

at_least and between are the two rules: each raises the one ValueError
text for its kind of bound, "need NAME >= LOW" or "need LOW <= NAME <=
HIGH", and the value got.  Every window of the library's domain is stated
through them, and the CLI reports their text against the flag at fault."""

from __future__ import annotations

from operator import attrgetter


def at_least(name: str, value: int, lowest: int) -> None:
    if value < lowest:
        raise ValueError(f"need {name} >= {lowest}, got {value}")


def between(name: str, value: int, lowest: int, highest: int) -> None:
    if not lowest <= value <= highest:
        raise ValueError(f"need {lowest} <= {name} <= {highest}, got {value}")


class Record:
    """An immutable record of the fields named in `__slots__`, in that order.

    Equality, hash, repr, pickling, copying and this constructor (by position
    or keyword) use them; a record that checks its input sets them in its __init__.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        if cls.__slots__:
            # the field values as one tuple, read in C; needs two fields or more
            cls._values = attrgetter(*cls.__slots__)

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self.__slots__
        if kwargs:
            args += tuple(kwargs.pop(key) for key in names[len(args):] if key in kwargs)
        if kwargs or len(args) != len(names):
            raise TypeError(f"{type(self).__name__} takes the fields {names}")
        for key, value in zip(names, args):
            object.__setattr__(self, key, value)

    def __eq__(self, other: object) -> bool:
        same = other.__class__ is self.__class__
        return self._values(self) == other._values(other) if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{key}={getattr(self, key)!r}" for key in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values(self)

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {key!r}")

    def __delattr__(self, key: str) -> None:
        raise AttributeError(f"cannot delete field {key!r}")


class MutableRecord(Record):
    """A record whose fields may be reassigned; it is unhashable."""

    __slots__ = ()
    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
