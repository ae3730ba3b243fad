"""Dataclass methods written once, shared by the package's value classes.

``@dataclass`` writes ``__init__``, ``__repr__`` and ``__eq__``, and for a
frozen class ``__hash__``, ``__setattr__`` and ``__delattr__``, as source
text and compiles it with ``exec`` for every class it decorates: about
1 ms a class at import.  A class declared

    class Point(Frozen):
        x: float
        y: float = 0.0

is made a dataclass by inheritance, with ``init``, ``repr`` and ``eq``
off, so ``fields``, ``replace``, ``asdict``, ``__match_args__``, pickling
and ``copy.replace`` work as for a decorated class, but it takes those
methods from ``Frozen`` (or ``Record``, when mutable), which read its
fields once and behave as the generated ones do.  Fields may have a
plain default and no other option.  ``require_finite`` is the check of
NaN and +-inf that the input classes share.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields


@functools.cache
def _layout(cls: type) -> tuple[tuple[str, ...], dict]:
    """The field names of ``cls`` in order, and the defaults it has."""
    fs = fields(cls)
    odd = [f.name for f in fs if f.default_factory is not MISSING
           or f.kw_only or f.hash is not None
           or not (f.init and f.repr and f.compare)]
    if odd:
        raise TypeError(f"{cls.__qualname__}: fields {odd} have options "
                        f"other than a default")
    return (tuple(f.name for f in fs),
            {f.name: f.default for f in fs if f.default is not MISSING})


def _values(obj: Record) -> tuple:
    return tuple(getattr(obj, n) for n in _layout(type(obj))[0])


def require_finite(record: Record, *names: str) -> None:
    """Refuse NaN and +-inf in the named fields of ``record``."""
    for name in names:
        value = getattr(record, name)
        if not abs(value) < math.inf:       # written so that NaN fails it
            raise ValueError(f"{name} must be finite, got {value!r}")


class _InitSignature:
    """``inspect.signature`` of a record class: its generated ``__init__``'s."""

    def __get__(self, obj, cls):
        par = inspect.Parameter
        return inspect.Signature(
            [par(f.name, par.POSITIONAL_OR_KEYWORD, annotation=f.type,
                 default=par.empty if f.default is MISSING else f.default)
             for f in fields(cls)], return_annotation=None)


class Record:
    """Base of a mutable dataclass: ``__init__``, ``__repr__``, ``__eq__``.

    A subclass becomes a dataclass by inheritance, with these three flags
    off; instances are unhashable, as those of an ``eq=True`` dataclass.
    """

    __signature__ = _InitSignature()
    __hash__ = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__module__ != __name__:      # Frozen is a base, not a record
            dataclass(cls, init=False, repr=False, eq=False)

    def __init__(self, *args, **kwargs):
        names, defaults = _layout(type(self))
        where = f"{type(self).__qualname__}.__init__()"
        if len(args) > len(names):
            raise TypeError(f"{where} takes {len(names) + 1} positional "
                            f"arguments but {len(args) + 1} were given")
        given = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{where} got an unexpected keyword "
                                f"argument {name!r}")
            if name in given:
                raise TypeError(f"{where} got multiple values for "
                                f"argument {name!r}")
            given[name] = value
        values = {**defaults, **given}
        missing = [n for n in names if n not in values]
        if missing:
            raise TypeError(f"{where} missing required arguments: "
                            + ", ".join(map(repr, missing)))
        for name in names:
            object.__setattr__(self, name, values[name])
        self.__post_init__()

    def __post_init__(self):
        pass

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={getattr(self, n)!r}"
                         for n in _layout(type(self))[0])
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return _values(self) == _values(other)
        return NotImplemented


class Frozen(Record):
    """Base of a frozen dataclass: ``Record`` that refuses assignment and
    hashes as a tuple of its fields."""

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(_values(self))
