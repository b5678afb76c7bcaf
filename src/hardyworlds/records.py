"""Immutable value records, the base of every formula node, model and report.

A record's fields are its own class annotations, in order.  A field's
default is the class attribute of the same name, as in
``vacuous_flags: tuple[VacuousFlag, ...] = ()``, and only trailing fields
may have one.  A class without an ``__init__`` gets one that takes the
fields in order and sets each once with ``object.__setattr__``.  A class
writes its own ``__init__`` only to validate or convert its arguments; it
then takes the fields in order and sets each one the same way.

After that the record cannot be changed: assigning or deleting any
attribute raises ``AttributeError``.  Two records are equal when they are of
the same class and their fields are equal in order; the hash is that of the
field tuple, so a record holding a mapping is unhashable.  ``repr`` lists
every field as ``Name(field=value, ...)``.

A record may also set attributes that are not fields: ``World.index``,
``WorldModel.mask`` or ``JointProbabilityTable.values``.  It sets them in
its own ``__init__`` like a field, or a builder that skips the checks sets
them with the fields (``WorldModel._set``); they play no part in equality,
hashing or ``repr``, except where a class defines its own, as ``World``
compares and hashes its ``index``.
"""

from __future__ import annotations

from typing import Any, Callable, ClassVar


def _field_setter(cls: type, fields: tuple[str, ...]) -> Callable[..., None]:
    """An ``__init__`` taking ``fields`` in order, compiled once per class;
    its ``__qualname__`` keeps ``TypeError`` texts as ``Class.__init__() ...``."""
    namespace = {"__name__": cls.__module__, "_setattr": object.__setattr__}
    params = []
    for name in fields:
        if name in cls.__dict__:
            namespace[f"_default_{name}"] = cls.__dict__[name]
            name = f"{name}=_default_{name}"
        params.append(name)
    body = "".join(f"\n    _setattr(self, {name!r}, {name})" for name in fields)
    exec(f"def __init__(self, {', '.join(params)}):{body}", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


class Record:
    _fields: ClassVar[tuple[str, ...]] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = cls.__match_args__ = tuple(cls.__dict__.get("__annotations__", ()))
        if "__init__" not in cls.__dict__:
            cls.__init__ = _field_setter(cls, cls._fields)

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
