"""ferchar's value classes against the standard library's frozen data classes.

The value classes are the named-tuple subclasses in ferchar's modules.
Each gets a twin made by `dataclasses.make_dataclass(..., frozen=True)`
from the same field names and defaults; the two must construct and print
alike, and the value class must compare and hash over its fields, refuse
assignment and deletion of a field, and pickle to its own class.
"""

from __future__ import annotations

import dataclasses
import importlib
import pickle
import pkgutil

import pytest

import ferchar
from ferchar.presented import Presentation


def value_classes() -> list:
    modules = [importlib.import_module(f"ferchar.{m.name}")
               for m in pkgutil.iter_modules(ferchar.__path__)]
    return sorted({c for module in modules for c in vars(module).values()
                   if isinstance(c, type) and hasattr(c, "_fields")},
                  key=lambda c: (c.__module__, c.__name__))


CLASSES = value_classes()


def twin(cls):
    fields = [(n, object) if n not in cls._field_defaults else
              (n, object, dataclasses.field(default=cls._field_defaults[n]))
              for n in cls._fields]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


def sample(cls, salt=0) -> tuple:
    # distinct hashable values of several types, one per field
    kinds = (lambda i: f"v{i}", lambda i: (i, None), lambda i: i * 7 + 1)
    return tuple(kinds[i % 3](i + salt) for i in range(len(cls._fields)))


def test_every_value_class_is_found():
    assert len(CLASSES) == 17
    assert all(c.__module__.startswith("ferchar.") for c in CLASSES)
    assert all(issubclass(c, tuple) for c in CLASSES)
    # Presentation alone keeps an instance dict, for its cached properties
    assert [c.__name__ for c in CLASSES if "__slots__" not in vars(c)] == ["Presentation"]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_value_class_matches_a_frozen_data_class(cls):
    other_cls = twin(cls)
    values = sample(cls)
    a, b = cls(*values), other_cls(*values)
    assert [getattr(a, n) for n in cls._fields] == list(values)
    assert repr(a) == repr(b)
    # by keyword, with every default left out
    required = {n: v for n, v in zip(cls._fields, values) if n not in cls._field_defaults}
    short, other_short = cls(**required), other_cls(**required)
    assert repr(short) == repr(other_short)
    assert [getattr(short, n) for n in cls._fields] == \
        [getattr(other_short, n) for n in cls._fields]
    for name in required:
        with pytest.raises(TypeError):
            cls(**{n: v for n, v in required.items() if n != name})
    # equality and a hash over the fields
    assert a == cls(*values) and hash(a) == hash(cls(*values)) == hash(b) == hash(values)
    assert a != cls(*sample(cls, salt=1))
    # frozen
    name = cls._fields[0]
    with pytest.raises(AttributeError):
        setattr(a, name, None)
    with pytest.raises(AttributeError):
        delattr(a, name)
    assert getattr(a, name) == values[0]
    restored = pickle.loads(pickle.dumps(a))
    assert type(restored) is cls and restored == a and repr(restored) == repr(a)


def test_presentation_keeps_its_own_hash():
    p = Presentation((1, 2), (3,))
    assert "_hash" not in vars(p)
    assert hash(p) == hash(((1, 2), (3,)))
    assert "_hash" in vars(p)  # the cached property, not the tuple hash
    assert pickle.loads(pickle.dumps(p)) == p
