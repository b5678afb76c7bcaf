"""Immutable value records, the base of every formula node, model and report.

A record's fields are the parameters of its ``__init__``, in order, and
``__init__`` sets each one once with ``object.__setattr__``.  After that the
record cannot be changed: assigning or deleting any attribute raises
``AttributeError``.  Two records are equal when they are of the same class
and their fields are equal in order; the hash is that of the field tuple, so
a record holding a mapping is unhashable.  ``repr`` lists every field as
``Name(field=value, ...)``.

A record may also set private attributes that are not fields, such as a
memo of results derived from its fields (``JointProbabilityTable._memo``).
It sets them in ``__init__`` like a field; they play no part in equality,
hashing or ``repr``.
"""

from __future__ import annotations

from typing import Any, ClassVar


class Record:
    _fields: ClassVar[tuple[str, ...]] = ()

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]
        cls.__match_args__ = cls._fields

    def _values(self) -> tuple[Any, ...]:
        fields = self.__dict__
        return tuple([fields[name] for name in self._fields])

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"
