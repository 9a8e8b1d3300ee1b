"""The base of the engines' immutable record classes.

A record class annotates its fields in the class body, checks and stores
them in its own __init__ (with object.__setattr__), and writes __eq__ and
__hash__ over the fields that identify it.  Those two run in
the hot loops (torsion classes are hashed and compared thousands of times
per elliptic-term sweep), so each class reads its fields directly.  This
base holds the parts that are not hot: the repr `Name(field=value, ...)`
over every annotated field, and AttributeError on assigning or deleting an
attribute.
"""


class Record:
    __slots__ = ()

    #: The annotated field names of the class, in order, for the repr.
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
