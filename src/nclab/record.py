"""Immutable value records without generated code.

Every value class of nclab (AST nodes, boxes, grids, matrices, reports,
configs) subclasses Record.  `dataclasses` writes out and `exec`s the
source of each class's methods when the class is created; for nclab's
24 classes that was about 20 ms of every fresh process's start-up
(Python 3.11, 2-CPU x86-64).  Record serves every class with one
generic implementation and generates no code:

    class Box(Record):
        n: int
        M: int = 0          # a class attribute of a field's name is its default

The annotations, in order, are the fields (a base record's come
first).  Instances take them positionally or by keyword, run
`__post_init__` (validation), refuse assignment and deletion with
AttributeError, compare equal only to the same type with equal fields,
hash their field tuple and print as `Box(n=1, M=0)`.
"""

from __future__ import annotations


class Record:
    # per class, set by __init_subclass__ (names as in typing.NamedTuple)
    _fields: tuple[str, ...] = ()
    _field_defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__annotations__)
        cls._fields = cls._fields + own
        cls._field_defaults = {**cls._field_defaults, **{f: cls.__dict__[f] for f in own if f in cls.__dict__}}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """All field values from a call's arguments, defaults filled in."""
        name, fields = cls.__qualname__, cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = list(args)
        for f in fields[len(args):]:
            if f in kwargs:
                values.append(kwargs.pop(f))
            elif f in cls._field_defaults:
                values.append(cls._field_defaults[f])
            else:
                raise TypeError(f"{name}() missing required argument {f!r}")
        for key in kwargs:
            kind = "multiple values for" if key in fields else "an unexpected keyword"
            raise TypeError(f"{name}() got {kind} argument {key!r}")
        return values

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({args})"


def replace(obj: Record, **changes) -> Record:
    """A copy of obj with the given fields changed; it is validated
    again by `__post_init__`."""
    return type(obj)(**{**dict(zip(obj._fields, obj._values())), **changes})
