"""Shared exception types, and ``Record``, the base of the package's frozen value records."""

from operator import attrgetter

__all__ = ["BudgetExceeded", "DomainError"]


class DomainError(Exception):
    """Input violates the documented contract of an operation."""


class BudgetExceeded(DomainError):
    """A bounded search hit its explicit case or output budget.

    Raised instead of silently truncating, so a partial result can never be
    mistaken for an exhaustive one.
    """

    def __init__(self, message: str, count: int | None = None):
        super().__init__(message)
        self.count = count


class Record:
    """A frozen value record with slots: equality, hash and repr over ``_fields``.

    A subclass names its fields, in order, in ``_fields`` (at least two) and
    every slot it stores in ``__slots__``; a slot outside ``_fields`` takes
    no part in equality, hashing or repr.  Its ``__init__`` fills the slots
    through ``object.__setattr__``.  Records equal only records of the same
    class, hash as the tuple of their fields, and print as a dataclass would.
    Assigning or deleting an attribute raises
    ``dataclasses.FrozenInstanceError``; ``copy`` and ``pickle`` go through
    ``__getstate__`` and ``__setstate__``.

    The stdlib ``dataclasses`` builds each class's methods by ``exec`` and
    imports ``inspect``, a cost every CLI start would pay, so it is imported
    only on the error path.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._astuple = staticmethod(attrgetter(*cls._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple(self) == self._astuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._astuple(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __getstate__(self):
        return tuple(map(self.__getattribute__, self.__slots__))

    def __setstate__(self, state):
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)
