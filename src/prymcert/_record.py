"""Record: the base of the package's small value classes, in place of dataclasses.

A subclass lists its fields as class annotations, in order; a class
attribute of the same name is the field's default, and a list default is
copied for each instance.  Construction, __post_init__, equality, hashing
and repr behave as in a dataclass.  to_json returns the fields by name, as
a dict in field order; a subclass with another JSON layout overrides it.
Records are frozen (assignment raises AttributeError) unless declared with
``frozen=False``.  No code is generated, so importing the package loads
neither dataclasses nor inspect.
"""

from __future__ import annotations


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, frozen: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        if not frozen:
            cls.__setattr__, cls.__delattr__ = object.__setattr__, object.__delattr__
            cls.__hash__ = None

    def __init__(self, *args, **kwargs):
        cls = type(self)
        values = dict(zip(cls._fields, args))
        if len(args) > len(cls._fields) or not kwargs.keys() <= set(cls._fields) - set(values):
            raise TypeError(f"{cls.__name__}() takes {cls._fields}, got {args} {kwargs}")
        values.update(kwargs)
        for name in set(cls._fields) - values.keys():
            if name not in cls.__dict__:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
            default = cls.__dict__[name]
            values[name] = list(default) if isinstance(default, list) else default
        vars(self).update(values)
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot assign {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(vars(self)[name] for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def to_json(self) -> dict:
        return {name: vars(self)[name] for name in self._fields}

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={vars(self)[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
