"""Record: the immutable value type of the package's results, without the dataclasses module.

A subclass's fields are its annotations, in order, with defaults as class
attributes; it gets a generated __init__, which ends with __post_init__ when
the class defines one.  Records are equal only within one class with equal
field tuples, hash as that tuple, repr as ClassName(field=value, ...), refuse
assignment and deletion, pickle, and keep a __dict__ for cached_property.
"""

from __future__ import annotations


class Record:
    _fields = ()

    def __init_subclass__(cls):
        fields = cls._fields = cls._fields + tuple(cls.__annotations__)
        defaults = {name: getattr(cls, name) for name in fields if hasattr(cls, name)}
        params = "".join(f", {name}=_defaults[{name!r}]" if name in defaults else f", {name}" for name in fields)
        sets = "".join(f"    _set(self, {name!r}, {name})\n" for name in fields)
        post = "    self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""
        values = "".join(f"self.{name}, " for name in fields)
        namespace = {"_defaults": defaults, "_set": object.__setattr__}
        exec(f"def __init__(self{params}):\n{sets}{post}def _values(self):\n    return ({values})\n", namespace)
        cls.__init__, cls._values = namespace["__init__"], namespace["_values"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__
