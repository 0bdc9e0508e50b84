"""Immutable value classes without the ``dataclasses`` module.

``@frozen`` gives a class with annotated fields what
``@dataclass(frozen=True)`` gives it: an ``__init__`` taking the fields in
order, positionally or by keyword, with class-level defaults and a
``__post_init__`` hook; a ``__repr__``; ``__eq__`` and ``__hash__`` over the
compared fields, the hash being that of their tuple; and ``__setattr__`` /
``__delattr__`` that refuse.  Methods a class defines itself are kept.

The methods are closures.  Importing ``dataclasses`` loads ``inspect``,
``ast`` and ``dis``, and each decorated class ``exec``s its generated
methods; on the import path of an orbit report the two took about 1 MiB of
resident memory.
"""

from __future__ import annotations

from operator import attrgetter


def frozen(cls=None, *, uncompared: tuple[str, ...] = ()):
    """Class decorator; ``uncompared`` names fields left out of == and hash."""
    if cls is None:
        return lambda c: frozen(c, uncompared=uncompared)
    names = tuple(cls.__dict__.get("__annotations__", ()))
    required = 0
    while required < len(names) and names[required] not in cls.__dict__:
        required += 1
    if any(n not in cls.__dict__ for n in names[required:]):
        raise TypeError(f"{cls.__name__}: a field without a default follows one with")
    tail = tuple([cls.__dict__[n] for n in names[required:]])
    compared = [n for n in names if n not in uncompared]
    if len(compared) == 1:
        get = attrgetter(compared[0])

        def key(self) -> tuple:
            return (get(self),)
    else:
        key = attrgetter(*compared)
    post_init = cls.__dict__.get("__post_init__")

    def __init__(self, *args, **kwargs):
        if kwargs:
            args = _bind(cls.__name__, names, tail, args, kwargs)
        elif not required <= len(args) <= len(names):
            raise TypeError(f"{cls.__name__}() takes the fields {names}")
        elif len(args) < len(names):
            args += tail[len(args) - required:]
        self.__dict__.update(zip(names, args))
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return key(self) == key(other)

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        fields = ", ".join([f"{n}={self.__dict__[n]!r}" for n in names])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        if method.__name__ not in cls.__dict__:
            method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
            setattr(cls, method.__name__, method)
    return cls


def _bind(name: str, names: tuple, tail: tuple, args: tuple, kwargs: dict) -> tuple:
    """The field values, in field order, of a call with keyword arguments;
    tail holds the defaults of the last len(tail) fields."""
    if not args and len(kwargs) == len(names):
        try:  # every field by keyword
            return tuple([kwargs[n] for n in names])
        except KeyError:
            pass
    values = dict(zip(names, args))
    if len(args) > len(names) or not values.keys().isdisjoint(kwargs) \
            or not set(kwargs) <= set(names):
        raise TypeError(f"{name}() takes the fields {names}")
    values.update(kwargs)
    values = {**dict(zip(names[len(names) - len(tail):], tail)), **values}
    missing = [n for n in names if n not in values]
    if missing:
        raise TypeError(f"{name}() missing the fields {tuple(missing)}")
    return tuple([values[n] for n in names])
