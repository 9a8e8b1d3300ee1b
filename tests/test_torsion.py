import random
from fractions import Fraction
from pathlib import Path

import pytest

from agcoh import torsion as to
from agcoh.exact import zeta_negative
from agcoh.spin import ih_betti
from agcoh.symplectic import HighestWeight

DEMO_MASSES = Path(__file__).resolve().parent.parent / "demos" / "data" / "masses"


def test_class_encoding_roundtrip():
    c = to.TorsionClass.parse("1^2,3^1,12^2")
    assert c.encode() == "1^2,3^1,12^2"
    assert c.degree == 2 + 2 + 8
    with pytest.raises(to.MassTableError):
        to.TorsionClass.parse("3^1, 4^1")   # no spaces allowed
    with pytest.raises(to.MassTableError):
        to.TorsionClass.parse("1^1")        # odd multiplicity of index 1


def test_negation_and_representatives():
    c = to.TorsionClass.parse("1^2,3^1")
    assert c.negate().encode() == "2^2,6^1"
    assert c.negate().negate() == c
    assert c.orbit_representative() == c
    assert to.TorsionClass.parse("2^2,6^1").orbit_representative() == c
    assert to.TorsionClass.parse("4^1").is_negation_fixed()


def test_enumeration_small_rank():
    full = to.enumerate_torsion_classes(1)
    assert sorted(c.encode() for c in full) == ["1^2", "2^2", "3^1", "4^1", "6^1"]
    assert len(to.enumerate_torsion_classes(1, mod_negation=True)) == 3


@pytest.mark.parametrize("g,count", [(1, 3), (2, 12), (3, 32), (4, 92), (5, 219)])
def test_enumeration_published_counts(g, count):
    assert len(to.enumerate_torsion_classes(g, mod_negation=True)) == count


def test_full_count_negation_identity():
    for g in range(1, 6):
        full = to.enumerate_torsion_classes(g)
        mod = to.enumerate_torsion_classes(g, mod_negation=True)
        fixed = [c for c in full if c.is_negation_fixed()]
        assert len(full) == 2 * len(mod) - len(fixed)
        assert {c.orbit_representative() for c in full} == set(mod)
        assert all(c.degree == 2 * g for c in full)


def test_central_mass_default():
    assert to.central_mass_default(1) == Fraction(-1, 12)
    assert to.central_mass_default(2) == zeta_negative(1) * zeta_negative(2)


def test_parse_mass_table_defaults_and_negation_closure():
    table = to.parse_mass_table("genus: 1\n3^1\t1/3\n4^1\t1/2\n", 1)
    assert table.mass(to.TorsionClass.parse("1^2")) == Fraction(-1, 12)
    assert table.mass(to.TorsionClass.parse("2^2")) == Fraction(-1, 12)
    assert table.mass(to.TorsionClass.parse("6^1")) == Fraction(1, 3)
    assert not table.missing and not table.warnings


def test_parse_mass_table_errors():
    with pytest.raises(to.MassTableError):
        to.parse_mass_table("3^1\t1/3\n", 1)                     # no genus header
    with pytest.raises(to.MassTableError):
        to.parse_mass_table("genus: 2\n3^1\t1/3\n", 1)           # genus mismatch
    with pytest.raises(to.MassTableError):
        to.parse_mass_table("genus: 1\n1^1\t1/2\n", 1)           # odd multiplicity
    with pytest.raises(to.MassTableError):
        to.parse_mass_table("genus: 1\n3^2\t1/3\n", 1)           # degree 4 != 2
    with pytest.raises(to.MassTableError):
        to.parse_mass_table("genus: 1\n3^1\t1/3\n6^1\t1/3\n", 1)  # duplicate orbit
    with pytest.raises(to.MassTableError):
        to.parse_mass_table("genus: 1\n3^1\tx\n", 1)             # bad rational
    with pytest.raises(to.MassTableError):
        to.parse_mass_table("genus: 1\n", 1)                     # incomplete, strict


def test_parse_mass_table_lenient():
    table = to.parse_mass_table("genus: 1\n", 1, strict=False)
    assert table.warnings and len(table.missing) == 3
    assert table.mass(to.TorsionClass.parse("3^1")) == 0
    # the central default still applies
    assert table.mass(to.TorsionClass.parse("1^2")) == Fraction(-1, 12)


def test_elliptic_term_toy_table():
    # only the central classes, both at the default mass m: lambda = 0 gives 2m
    table = to.parse_mass_table("genus: 2\n", 2, strict=False)
    hw = HighestWeight(2, (0, 0))
    with pytest.raises(to.MassTableError):
        to.elliptic_term(hw, table)          # strict refuses the zero-filled table
    value = to.elliptic_term(hw, table, strict=False)
    assert value == 2 * to.central_mass_default(2)


def test_elliptic_term_odd_weight_vanishes_randomized():
    rng = random.Random(20240810)
    cases = 0
    while cases < 100:
        g = rng.choice((1, 2, 3))
        lam = tuple(sorted((rng.randint(0, 4) for _ in range(g)), reverse=True))
        if sum(lam) % 2 == 0:
            continue
        cases += 1
        lines = [f"genus: {g}"]
        for c in to.enumerate_torsion_classes(g, mod_negation=True):
            lines.append(f"{c.encode()}\t{rng.randint(-30, 30)}/{rng.randint(1, 9)}")
        table = to.parse_mass_table("\n".join(lines) + "\n", g)
        assert to.elliptic_term(HighestWeight(g, lam), table) == 0


def _dim_cusp_forms_sl2z(k):
    """dim S_k(SL_2(Z)) for even k >= 4, by the valence formula."""
    return k // 12 - (1 if k % 12 == 2 else 0)


def test_genus_one_demo_masses_match_eichler_shimura():
    # independent oracles: e_c of the rank-1 space is 1, and with the
    # Sym^k system (k even) it is -(2 dim S_{k+2} + 1)
    table = to.load_mass_table(DEMO_MASSES / "g1.tsv", 1)
    assert table.total() == 1
    assert _dim_cusp_forms_sl2z(12) == _dim_cusp_forms_sl2z(16) == 1
    assert _dim_cusp_forms_sl2z(14) == 0 and _dim_cusp_forms_sl2z(24) == 2
    for k in range(2, 61, 2):
        assert to.elliptic_term(HighestWeight(1, (k,)), table) == \
            -1 - 2 * _dim_cusp_forms_sl2z(k + 2), k
    # third route: the IH Betti numbers of the minimal compactification put
    # 2 dim S_{k+2} in degree 1 (k <= 10, the built-in registry bound), and
    # the elliptic term is -1 minus that Betti number
    assert ih_betti(HighestWeight(1, (0,)), signs="both").betti == (1, 0, 1)
    for k in range(2, 11, 2):
        hw = HighestWeight(1, (k,))
        betti = ih_betti(hw, signs="both").betti
        assert betti == (0, 2 * _dim_cusp_forms_sl2z(k + 2), 0), k
        assert to.elliptic_term(hw, table) == -1 - betti[1], k


def test_elliptic_term_genus_mismatch():
    table = to.parse_mass_table("genus: 1\n3^1\t1/3\n4^1\t1/2\n", 1)
    with pytest.raises(ValueError):
        to.elliptic_term(HighestWeight(2, (0, 0)), table)
