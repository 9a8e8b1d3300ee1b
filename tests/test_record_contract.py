"""The constructor contract of `agcoh.records.Record`, checked for every
record class the package defines: fields by position or keyword, defaults
from the class body, and TypeError on an unknown, repeated or missing field
or on too many positional arguments."""
import importlib
import pkgutil

import pytest

import agcoh
from agcoh.records import Record
from test_records import CASES


def _engine_records():
    """Every Record subclass the package defines, found after importing each
    of its modules."""
    for module in pkgutil.iter_modules(agcoh.__path__):
        importlib.import_module(f"agcoh.{module.name}")
    found, todo = [], [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("agcoh."):
                found.append(cls)
    return sorted(found, key=lambda cls: cls.__name__)


@pytest.mark.parametrize("cls", _engine_records(), ids=lambda cls: cls.__name__)
def test_every_record_keeps_the_constructor_contract(cls):
    # a record added later needs a row in CASES, so it cannot skip these checks
    fields = next((case[1] for case in CASES if case[0] is cls), None)
    assert fields is not None, f"no CASES row in test_records.py for {cls.__name__}"
    assert tuple(fields) == cls._fields
    values = list(fields.values())
    assert cls(*values) == cls(**fields)
    assert repr(cls(*values)) == repr(cls(**fields))
    first = next(iter(fields))
    bad_calls = {
        "unknown": lambda: cls(**fields, no_such_field=1),
        "repeated": lambda: cls(values[0], **fields),
        "missing": lambda: cls(**{k: v for k, v in fields.items() if k != first}),
        "none given": lambda: cls(),
        "too many positional": lambda: cls(*values, values[-1]),
    }
    for what, call in bad_calls.items():
        with pytest.raises(TypeError):
            call()
            pytest.fail(f"{what}: no TypeError")


class Point(Record):
    x: int
    y: int = 0


def test_base_constructor_stores_fields_and_fills_defaults():
    assert Point(1, 2) == Point(x=1, y=2) == Point(1, y=2) == Point(y=2, x=1)
    assert Point(1) == Point(x=1) == Point(1, 0)
    assert repr(Point(3)) == "Point(x=3, y=0)"
    assert vars(Point(4, 5)) == {"x": 4, "y": 5}


@pytest.mark.parametrize("args, kwargs, message", [
    ((1,), {"z": 2}, "Point() got an unexpected field 'z'"),
    ((1,), {"x": 2}, "Point() got multiple values for field 'x'"),
    ((), {"y": 2}, "Point() missing field 'x'"),
    ((), {}, "Point() missing field 'x'"),
    ((1, 2, 3), {}, "Point() got 3 positional arguments for 2 fields"),
])
def test_base_constructor_refuses_bad_calls(args, kwargs, message):
    with pytest.raises(TypeError) as info:
        Point(*args, **kwargs)
    assert str(info.value) == message
