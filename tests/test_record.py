"""``Record`` and ``Frozen`` against the methods ``@dataclass`` generates.

Each shared-base class, a dataclass by subclassing alone, has a stdlib twin
with the same fields, default and ``__post_init__``; every test requires
the two to behave alike.  Needs neither numpy nor pytest:
``python tests/test_record.py`` runs every test here on any supported
Python.
"""

import copy
import importlib.util
import inspect
import pickle
import sys
from dataclasses import (FrozenInstanceError, asdict, dataclass, fields,
                         replace)
from pathlib import Path


def _load_record():
    # by path, since ``import qcrlab`` loads numpy and this module does not
    path = (Path(__file__).resolve().parent.parent / "src" / "qcrlab"
            / "_record.py")
    spec = importlib.util.spec_from_file_location("_record", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_record = _load_record()


@dataclass(frozen=True)
class FrozenTwin:
    x: float
    label: str = "a"

    def __post_init__(self):
        if not self.x >= 0:
            raise ValueError("x must be nonnegative")


class FrozenShared(_record.Frozen):
    x: float
    label: str = "a"

    def __post_init__(self):
        if not self.x >= 0:
            raise ValueError("x must be nonnegative")


@dataclass
class MutableTwin:
    x: float
    label: str = "a"

    def __post_init__(self):
        if not self.x >= 0:
            raise ValueError("x must be nonnegative")


class MutableShared(_record.Record):
    x: float
    label: str = "a"

    def __post_init__(self):
        if not self.x >= 0:
            raise ValueError("x must be nonnegative")


PAIRS = [(FrozenTwin, FrozenShared), (MutableTwin, MutableShared)]


def raises(exc, call, *args, **kwargs):
    try:
        call(*args, **kwargs)
    except exc as err:
        return err
    raise AssertionError(f"{call} did not raise {exc.__name__}")


def both(make):
    """``make(cls)`` for each pair, as (twin's result, shared's result)."""
    return [(make(twin), make(shared)) for twin, shared in PAIRS]


def test_repr_text():
    for a, b in both(lambda c: c(1.5, label="it's")):
        assert (repr(a)[len(type(a).__qualname__):]
                == repr(b)[len(type(b).__qualname__):])
        assert repr(b).startswith(type(b).__qualname__ + "(x=1.5, ")


def test_equality():
    for twin, shared in PAIRS:
        for cls in twin, shared:
            assert cls(1.0) == cls(1.0, "a")
            assert not cls(1.0) != cls(1.0)
            assert cls(1.0) != cls(2.0) and cls(1.0) != cls(1.0, "b")
            # another class, even one with the same fields, never equals
            assert cls(1.0) != (1.0, "a")
            assert cls.__eq__(cls(1.0), (1.0, "a")) is NotImplemented
        assert shared(1.0) != twin(1.0)
    assert FrozenShared(1.0) != MutableShared(1.0)


def test_hash():
    assert hash(FrozenShared(1.0, "b")) == hash(FrozenTwin(1.0, "b"))
    assert hash(FrozenShared(1.0, "b")) == hash((1.0, "b"))
    for twin, shared in PAIRS[1:]:
        assert twin.__hash__ is None and shared.__hash__ is None
        raises(TypeError, hash, twin(1.0))
        raises(TypeError, hash, shared(1.0))


def test_frozen_refuses_assignment_and_deletion():
    for obj in FrozenTwin(1.0), FrozenShared(1.0):
        raises(FrozenInstanceError, setattr, obj, "x", 2.0)
        raises(FrozenInstanceError, setattr, obj, "other", 2.0)
        raises(FrozenInstanceError, delattr, obj, "x")
        assert obj.x == 1.0


def test_mutable_assigns():
    for obj in MutableTwin(1.0), MutableShared(1.0):
        obj.x = 3.0
        obj.other = 4.0
        assert (obj.x, obj.other) == (3.0, 4.0)


def test_init_arguments():
    for twin, shared in PAIRS:
        for cls in twin, shared:
            assert cls(2.0).label == "a"
            assert cls(label="b", x=2.0).label == "b"
            raises(TypeError, cls)                    # missing
            raises(TypeError, cls, label="b")         # missing
            raises(TypeError, cls, 1.0, y=2.0)        # unexpected
            raises(TypeError, cls, 1.0, x=2.0)        # repeated
            raises(TypeError, cls, 1.0, "b", 3)       # too many
            raises(ValueError, cls, -1.0)             # __post_init__
            raises(ValueError, cls, float("nan"))


def test_replace_asdict_fields_match_args():
    for a, b in both(lambda c: c(1.0, "b")):
        assert asdict(replace(a, x=4.0)) == asdict(replace(b, x=4.0)) \
            == {"x": 4.0, "label": "b"}
        raises(ValueError, replace, b, x=-1.0)
        raises(TypeError, replace, b, y=1.0)
        assert ([(f.name, f.type, f.default) for f in fields(a)]
                == [(f.name, f.type, f.default) for f in fields(b)])
        assert type(a).__match_args__ == type(b).__match_args__


def test_match_statement():
    for a, b in both(lambda c: c(1.0, "b")):
        for obj in a, b:
            match obj:
                case FrozenTwin(x, label) | FrozenShared(x, label) \
                        | MutableTwin(x, label) | MutableShared(x, label):
                    assert (x, label) == (1.0, "b")
                case _:
                    raise AssertionError(obj)


def test_pickle_and_deepcopy_round_trip():
    for a, b in both(lambda c: c(1.0, "b")):
        for obj in a, b:
            for clone in (pickle.loads(pickle.dumps(obj)),
                          copy.deepcopy(obj), copy.copy(obj)):
                assert type(clone) is type(obj) and clone == obj


def test_copy_replace():
    if not hasattr(copy, "replace"):  # Python 3.13 and later
        return
    for a, b in both(lambda c: c(1.0, "b")):
        assert copy.replace(a, x=2.0).x == copy.replace(b, x=2.0).x == 2.0
        raises(ValueError, copy.replace, b, x=-1.0)


def test_signature():
    for twin, shared in PAIRS:
        assert str(inspect.signature(shared)) == str(inspect.signature(twin))
        # @dataclass writes it from the signature for a class without one
        assert (shared.__doc__[len(shared.__name__):]
                == twin.__doc__[len(twin.__name__):])


def test_field_options_other_than_a_default_are_refused():
    from dataclasses import field

    class Odd(_record.Record):
        x: list = field(default_factory=list)

    raises(TypeError, Odd)


if __name__ == "__main__":
    tests = [f for name, f in list(globals().items())
             if name.startswith("test_")]
    for test in tests:
        test()
    print(f"{len(tests)} tests passed on Python {sys.version.split()[0]}")
