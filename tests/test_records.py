"""The engines' record classes: construction, repr, equality, hashing, order
and immutability, pinned to what the frozen dataclasses they replaced did."""
from fractions import Fraction

import pytest

from agcoh.arthur import ArthurParameter, BlockKind, BuildingBlock
from agcoh.proportionality import PiScaledRational
from agcoh.spin import IHResult, ShapeReport, ShapeVariant
from agcoh.symplectic import HighestWeight
from agcoh.tables import Bound, ReferenceTable
from agcoh.torsion import MassTable, TorsionClass, elliptic_term
from oracles import h_series

OO, OE, S = BlockKind.ODD_ORTHOGONAL, BlockKind.EVEN_ORTHOGONAL, BlockKind.SYMPLECTIC
TRIVIAL = BuildingBlock(OO, (), 1, ("",), 1)
SYM2 = BuildingBlock(OO, (22,), 1, ("Sym2D11",), 1)
C3 = TorsionClass(((3, 1),))
VARIANT = ShapeVariant((), (1, 0, 1), (2,), (0,), True, None)
REPORT = ShapeReport("[3]", 1, (VARIANT,))

# (class, every field by keyword in order, the compared fields, the repr of
# the parent's dataclass, one compared field changed)
CASES = [
    (HighestWeight, {"g": 2, "lam": (2, 0)}, ("g", "lam"),
     "HighestWeight(g=2, lam=(2, 0))", {"lam": (1, 1)}),
    (TorsionClass, {"pairs": ((3, 1),)}, ("pairs",),
     "TorsionClass(pairs=((3, 1),))", {"pairs": ((6, 1),)}),
    (MassTable, {"genus": 1, "masses": {C3: Fraction(1, 3)}, "provenance": "",
                 "warnings": ()},
     ("genus", "masses", "provenance", "warnings"),
     "MassTable(genus=1, masses={TorsionClass(pairs=((3, 1),)): Fraction(1, 3)}, "
     "provenance='', warnings=())",
     {"masses": {C3: Fraction(1, 2)}}),
    (BuildingBlock, {"kind": S, "doubled_weights": (11,), "cardinality": 1,
                     "names": ("D11",), "field_degree": 1},
     ("doubled_weights",),
     "BuildingBlock(kind=<BlockKind.SYMPLECTIC: 'symplectic'>, doubled_weights=(11,), "
     "cardinality=1, names=('D11',), field_degree=1)",
     {"doubled_weights": (15,)}),
    (ArthurParameter, {"genus": 1, "principal": (TRIVIAL, 3), "factors": ()},
     ("genus", "principal", "factors"),
     "ArthurParameter(genus=1, principal=(BuildingBlock(kind=<BlockKind.ODD_ORTHOGONAL: "
     "'odd_orthogonal'>, doubled_weights=(), cardinality=1, names=('',), "
     "field_degree=1), 3), factors=())",
     {"principal": (SYM2, 1)}),
    (ShapeVariant, {"signs": (), "betti": (1, 0, 1), "nu": (2,), "primitive": (0,),
                    "s_trivial": True, "hodge": None},
     ("signs", "betti", "nu", "primitive", "s_trivial", "hodge"),
     "ShapeVariant(signs=(), betti=(1, 0, 1), nu=(2,), primitive=(0,), "
     "s_trivial=True, hodge=None)",
     {"nu": (1, 1)}),
    (ShapeReport, {"shape": "[3]", "multiplicity": 1, "variants": (VARIANT,)},
     ("shape", "multiplicity", "variants"),
     "ShapeReport(shape='[3]', multiplicity=1, variants=(ShapeVariant(signs=(), "
     "betti=(1, 0, 1), nu=(2,), primitive=(0,), s_trivial=True, hodge=None),))",
     {"multiplicity": 2}),
    (IHResult, {"genus": 1, "lam": (0,), "betti": (1, 0, 1), "per_shape": (REPORT,),
                "warnings": ()},
     ("genus", "lam", "betti", "per_shape", "warnings"),
     "IHResult(genus=1, lam=(0,), betti=(1, 0, 1), per_shape=(ShapeReport(shape='[3]', "
     "multiplicity=1, variants=(ShapeVariant(signs=(), betti=(1, 0, 1), nu=(2,), "
     "primitive=(0,), s_trivial=True, hodge=None),)),), warnings=())",
     {"betti": None}),
    (PiScaledRational, {"rational": Fraction(1, 24), "pi_exponent": 2},
     ("rational", "pi_exponent"),
     "PiScaledRational(rational=Fraction(1, 24), pi_exponent=2)", {"pi_exponent": 0}),
    (Bound, {"value": 2, "exact": False}, ("value", "exact"),
     "Bound(value=2, exact=False)", {"exact": True}),
    (ReferenceTable, {"identifier": "t", "degrees": (0, 2), "values": (1, Bound(1)),
                      "citation": "c"},
     ("identifier", "degrees", "values", "citation"),
     "ReferenceTable(identifier='t', degrees=(0, 2), values=(1, Bound(value=1, "
     "exact=True)), citation='c')",
     {"citation": "d"}),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, fields, compared, text, changed", CASES, ids=IDS)
def test_construction_and_repr(cls, fields, compared, text, changed):
    by_keyword = cls(**fields)
    by_position = cls(*fields.values())
    assert repr(by_keyword) == repr(by_position) == text
    assert by_keyword == by_position
    for name, value in fields.items():
        assert getattr(by_position, name) == value


@pytest.mark.parametrize("cls, fields, compared, text, changed", CASES, ids=IDS)
def test_equality_and_hash_over_the_compared_fields(cls, fields, compared, text, changed):
    obj = cls(**fields)
    key = tuple(fields[name] for name in compared)
    other = cls(**dict(fields, **changed))
    assert obj != other and not obj == other
    # another class never compares equal, the field tuple included
    assert obj.__eq__(key) is NotImplemented
    assert obj != key
    if cls is MassTable:
        # the masses are a dict, so the table is unhashable, as it was
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == hash(cls(**fields)) == hash(key)


@pytest.mark.parametrize("cls, fields, compared, text, changed", CASES, ids=IDS)
def test_fields_are_read_only(cls, fields, compared, text, changed):
    obj = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert repr(obj) == text


def test_defaults():
    table = MassTable(genus=1, masses={C3: 1})
    assert (table.provenance, table.warnings) == ("", ())
    block = BuildingBlock(OE, (4, 2), 0)
    assert (block.names, block.field_degree) == ((), None)
    assert Bound(3).exact is True


def test_building_block_compares_doubled_weights_only():
    assert BuildingBlock(S, (11,), 1, ("D11",), 1) == BuildingBlock(S, (11,), 0)
    empty_oe = BuildingBlock(OE, (22, 10), 0)
    empty_oo = BuildingBlock(OO, (22, 10), 0)
    assert empty_oe == empty_oo and hash(empty_oe) == hash(empty_oo)
    assert len({empty_oe, empty_oo}) == 1


def test_torsion_class_ignores_its_stored_data():
    fresh, used = TorsionClass(((3, 1),)), TorsionClass(((3, 1),))
    used.characteristic_polynomial()
    used.negate()
    h_series(used, 6)
    assert used == fresh and hash(used) == hash(fresh) == hash((((3, 1),),))
    assert repr(used) == repr(fresh)


def test_highest_weight_and_mass_table_ignore_their_stored_data():
    fresh_hw, used_hw = HighestWeight(1, (4,)), HighestWeight(1, (4,))
    fresh, used = MassTable(genus=1, masses={C3: 1}), MassTable(genus=1, masses={C3: 1})
    elliptic_term(used_hw, used)            # an even-parity call
    elliptic_term(HighestWeight(1, (3,)), used)     # and an odd one
    assert vars(used_hw) == {"g": 1, "lam": (4,)}   # a weight stores its fields alone
    assert used_hw == fresh_hw and hash(used_hw) == hash(fresh_hw) == hash((1, (4,)))
    assert repr(used_hw) == repr(fresh_hw) == "HighestWeight(g=1, lam=(4,))"
    assert used == fresh and repr(used) == repr(fresh) == \
        "MassTable(genus=1, masses={TorsionClass(pairs=((3, 1),)): 1}, " \
        "provenance='', warnings=())"
    with pytest.raises(TypeError):
        hash(used)


def test_shape_variant_with_a_hodge_diamond_is_unhashable():
    variant = ShapeVariant((), (1, 0, 1), (2,), (0,), True, {(0, 0): 1, (1, 1): 1})
    assert variant == ShapeVariant((), (1, 0, 1), (2,), (0,), True, {(0, 0): 1, (1, 1): 1})
    with pytest.raises(TypeError):
        hash(variant)
