"""The base of the engines' immutable record classes.

A record class annotates its fields in its body, in order, and may give a
field a default there (`exact: bool = True`).  The base's one constructor
stores the fields by position or keyword and fills any other from its
default; an unknown, repeated or missing field, or too many positional
arguments, is a TypeError.  A record that checks its fields does so in its
own __init__, then stores them with one `super().__init__(...)`.  The base
also gives the repr `Name(field=value, ...)` over every annotated field;
equality over the tuple of every field, with a record of the same class
only; the hash of that tuple; and AttributeError on assigning or deleting
an attribute.  A record holding a dict cannot be hashed (MassTable says so
with `__hash__ = None`).

Two classes write their own __eq__ and __hash__: TorsionClass, which is
hashed and compared tens of thousands of times per elliptic-term sweep,
reads its one field directly; BuildingBlock compares its doubled weights
only.
"""


class Record:
    __slots__ = ()

    #: The annotated field names of the class, in order.
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        # not __dict__.update, which would make every later field read slower
        for name, value in zip(self._fields, args):
            object.__setattr__(self, name, value)

    @classmethod
    def _bind(cls, args, kwargs):
        # every field's value, in order, from the call and the class-body defaults
        name, fields = cls.__qualname__, cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() got {len(args)} positional arguments for {len(fields)} fields")
        given = dict(zip(fields, args))
        for field in kwargs:
            if field in given or field not in fields:
                problem = "multiple values for" if field in given else "an unexpected"
                raise TypeError(f"{name}() got {problem} field {field!r}")
        values = {f: cls.__dict__[f] for f in fields if f in cls.__dict__} | given | kwargs
        for field in fields:
            if field not in values:
                raise TypeError(f"{name}() missing field {field!r}")
        return [values[field] for field in fields]

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
