"""Frozen records without the `dataclasses` machinery.

A record class subclasses `Record`, annotates its fields in order, and
stores them in a plain ``__init__`` with ``object.__setattr__``, after
checking them where the record has an invariant.  `Record` supplies,
from the annotated field names, equality and hashing over the field
values, a ``Name(field=value, ...)`` repr, and assignment and deletion
that raise AttributeError.  No code is generated at class creation.
Instances keep a ``__dict__``: `NumberField` caches its tables there,
and `Torus`, through `Torus.memo`, the NS basis and the endomorphism
ring's basis and structure constants, each computed once per torus
object.  A value `build_torus` already has, such as det C and its sign,
is a field instead.  What is kept there is no field, so
equality, hashing and repr ignore it, and it holds no reference back to
the instance, which refcounting then frees with its last reference.
"""

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        # the field values, compared and hashed as one (a lone field as itself)
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
