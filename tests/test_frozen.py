"""`ferchar.frozen` against the standard library's frozen data classes.

Every value class of ferchar gets a twin made by
`dataclasses.make_dataclass(..., frozen=True)` from the same field names
and defaults; the two must construct, compare, hash, print, refuse
assignment and pickle alike.
"""

from __future__ import annotations

import dataclasses
import importlib
import pickle
import pkgutil

import pytest

import ferchar
from ferchar import frozen
from ferchar.presented import Presentation


def value_classes() -> list:
    modules = [importlib.import_module(f"ferchar.{m.name}")
               for m in pkgutil.iter_modules(ferchar.__path__)]
    return sorted({c for module in modules for c in vars(module).values()
                   if isinstance(c, type) and c.__setattr__ is frozen._assign},
                  key=lambda c: (c.__module__, c.__name__))


CLASSES = value_classes()


def twin(cls):
    fields = [(n, object) if n not in vars(cls) else
              (n, object, dataclasses.field(default=vars(cls)[n]))
              for n in cls.__annotations__]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


def sample(cls, salt=0) -> tuple:
    # distinct hashable values of several types, one per field
    kinds = (lambda i: f"v{i}", lambda i: (i, None), lambda i: i * 7 + 1)
    return tuple(kinds[i % 3](i + salt) for i in range(len(cls.__annotations__)))


def refusals(obj, name) -> list:
    """The messages of assigning and deleting obj.name, each an AttributeError."""
    out = []
    for act in (lambda: setattr(obj, name, None), lambda: delattr(obj, name)):
        with pytest.raises(AttributeError) as exc:
            act()
        out.append(str(exc.value))
    return out


def test_every_value_class_is_found():
    assert len(CLASSES) == 17
    assert all(c.__module__.startswith("ferchar.") for c in CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_value_class_matches_a_frozen_data_class(cls):
    other_cls = twin(cls)
    values = sample(cls)
    a, b = cls(*values), other_cls(*values)
    assert vars(a) == vars(b)
    assert repr(a) == repr(b)
    # by keyword, with every default left out
    required = {n: v for n, v in zip(cls.__annotations__, values) if n not in vars(cls)}
    assert repr(cls(**required)) == repr(other_cls(**required))
    assert vars(cls(**required)) == vars(other_cls(**required))
    if required:
        with pytest.raises(TypeError):
            cls()
    # equality within one class only, and a hash over the fields
    assert a == cls(*values) and hash(a) == hash(cls(*values)) == hash(b)
    assert a != cls(*sample(cls, salt=1))
    assert a != b and b != a
    # frozen, with the same messages
    name = next(iter(cls.__annotations__))
    assert refusals(a, name) == refusals(b, name)
    assert getattr(a, name) == values[0]
    restored = pickle.loads(pickle.dumps(a))
    assert type(restored) is cls and restored == a and repr(restored) == repr(a)


def test_presentation_keeps_its_own_hash():
    p = Presentation((1, 2), (3,))
    assert "_hash" not in vars(p)
    assert hash(p) == hash(((1, 2), (3,)))
    assert "_hash" in vars(p)  # the cached property, not a generated hash
    assert pickle.loads(pickle.dumps(p)) == p


def test_frozen_instance_error_is_an_attribute_error():
    assert issubclass(frozen.FrozenInstanceError, AttributeError)
    with pytest.raises(frozen.FrozenInstanceError, match="cannot assign to field 'kind'"):
        ferchar.FieldMode.exact().kind = "x"
