"""Frozen value classes, without the standard library's data-class
module, whose import loads `inspect`, `ast` and `dis`.

`@frozen` reads a class's fields from its annotations, in order; a field
with a class attribute has that value as its default.  It adds what a
frozen standard data class has: `__init__`, `__repr__` (the same text),
`__eq__` between instances of the same class, `__hash__` over the fields
unless the class defines its own, and a `__setattr__` and `__delattr__`
that raise FrozenInstanceError.  The first four come from one `exec` per
class.  Instances keep a `__dict__`, so they pickle and take
`functools.cached_property`.
"""


class FrozenInstanceError(AttributeError):
    """A field of a frozen instance was assigned or deleted."""


def _assign(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delete(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def frozen(cls):
    """cls, given the methods of a frozen value class (see the module docstring)."""
    names = tuple(cls.__annotations__)
    own = "".join(f"self.{n}," for n in names)
    other = "".join(f"other.{n}," for n in names)
    fields = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    source = "\n".join([
        f"def __init__(self, {', '.join(names)}):",
        *(f" _set(self, {n!r}, {n})" for n in names),
        "def __repr__(self):",
        f" return self.__class__.__qualname__ + f'({fields})'",
        "def __eq__(self, other):",
        f" if other.__class__ is self.__class__: return ({own}) == ({other})",
        " return NotImplemented",
        f"def __hash__(self): return hash(({own}))"])
    methods: dict = {}
    exec(source, {"_set": object.__setattr__}, methods)
    methods["__init__"].__defaults__ = tuple(
        cls.__dict__[n] for n in names if n in cls.__dict__)
    if "__hash__" in cls.__dict__:
        del methods["__hash__"]
    for name, fn in methods.items():
        fn.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, fn)
    cls.__setattr__, cls.__delattr__ = _assign, _delete
    return cls
