"""The base of the engines' immutable record classes.

A record class annotates its fields in the class body and checks and
stores them in its own __init__ (with object.__setattr__).  This base
holds the rest: the repr `Name(field=value, ...)` over every annotated
field; equality over the tuple of every field, with a record of the same
class only; the hash of that tuple; and AttributeError on assigning or
deleting an attribute.  A record holding a dict cannot be hashed
(MassTable says so with `__hash__ = None`).

Two classes write their own __eq__ and __hash__: TorsionClass, which is
hashed and compared tens of thousands of times per elliptic-term sweep,
reads its one field directly and is ordered by it; BuildingBlock compares
its doubled weights only.
"""


class Record:
    __slots__ = ()

    #: The annotated field names of the class, in order.
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)

    def _key(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
