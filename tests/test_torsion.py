import functools
import itertools
import random
import re
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from agcoh import torsion as to
from agcoh.errors import InputError, MassTableError
from agcoh.exact import euler_phi, zeta_product
from agcoh.spin import ih_betti
from agcoh.symplectic import HighestWeight
from agcoh.torsion import character_at_torsion
from oracles import (factorwise_characteristic_polynomial, h_series,
                     naive_elliptic_term, zeta_negative, zeta_negative_product)

DEMO_MASSES = Path(__file__).resolve().parent.parent / "demos" / "data" / "masses"


def _is_negation_fixed(c):
    return c.negate() == c


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
    assert _is_negation_fixed(to.TorsionClass.parse("4^1"))


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
        fixed = [c for c in full if _is_negation_fixed(c)]
        assert len(full) == 2 * len(mod) - len(fixed)
        assert {c.orbit_representative() for c in full} == set(mod)
        assert all(c.degree == 2 * g for c in full)


def test_central_mass_default():
    assert zeta_product(0) == 1
    assert zeta_product(1) == Fraction(-1, 12)
    assert zeta_product(2) == zeta_negative(1) * zeta_negative(2)
    for g in range(1, 41):
        assert zeta_product(g) == zeta_negative_product(g)
    # the central classes take it when a table omits them
    for g in (1, 2, 3):
        table = to.parse_mass_table(f"genus: {g}\n", g, strict=False)
        for d in (1, 2):
            assert table.mass(to.TorsionClass(((d, 2 * g),))) == zeta_product(g)


def test_parse_mass_table_defaults_and_negation_closure():
    table = to.parse_mass_table("genus: 1\n3^1\t1/3\n4^1\t1/2\n", 1)
    assert table.mass(to.TorsionClass.parse("1^2")) == Fraction(-1, 12)
    assert table.mass(to.TorsionClass.parse("2^2")) == Fraction(-1, 12)
    assert table.mass(to.TorsionClass.parse("6^1")) == Fraction(1, 3)
    assert not table.warnings


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
    # a mass is p or p/q: no exponent (whose expansion is unbounded), no
    # decimal point, no underscores, one slash at most
    for text in ("1e1000000", "0.5", "1_000", "1/2/3"):
        with pytest.raises(to.MassTableError, match="expected p or p/q"):
            to.parse_mass_table(f"genus: 1\n3^1\t{text}\n", 1, strict=False)
    with pytest.raises(to.MassTableError, match="invalid rational"):
        to.parse_mass_table("genus: 1\n3^1\t1/0\n", 1, strict=False)
    # an index past the interpreter's digit limit is malformed data too
    with pytest.raises(to.MassTableError, match="invalid class"):
        to.parse_mass_table("genus: 1\n1" + "0" * 5000 + "^1\t1\n", 1, strict=False)
    # an index too large for the rank is refused before its totient is
    # computed: trial division of this prime used to run for minutes
    for g, enc in ((1, "1000000000000000003^1"), (1, "9^1"), (2, "3^2,33^1")):
        with pytest.raises(to.MassTableError, match="cyclotomic index"):
            to.parse_mass_table(f"genus: {g}\n{enc}\t1\n", g, strict=False)
    with pytest.raises(to.MassTableError, match="has degree 4, expected 2"):
        to.parse_mass_table("genus: 1\n8^1\t1\n", 1, strict=False)   # 8 = 2(2g)^2
    table = to.parse_mass_table("genus: 1\n3^1\t -2/6 \n4^1\t+3\n", 1)
    assert table.mass(to.TorsionClass.parse("3^1")) == Fraction(-1, 3)
    assert table.mass(to.TorsionClass.parse("4^1")) == 3
    with pytest.raises(to.MassTableError):
        to.parse_mass_table("genus: 1\n", 1)                     # incomplete, strict


@pytest.mark.parametrize("text", [
    "genus: \u0661\n",                       # ARABIC-INDIC DIGIT ONE
    "genus: 0_1\n",                           # int() reads "0_1" as 1
    "genus: +1\n",
    "genus: 1" + "0" * 5000 + "\n",           # past the digit limit
])
def test_genus_header_takes_ascii_digits_only(text):
    with pytest.raises(MassTableError) as info:
        to.parse_mass_table(text, 1, strict=False)
    assert str(info.value) == "line 1: bad genus header"


def test_records_take_ascii_digits_only():
    for record, message in (("\uff13^1\t1/3", "invalid class encoding"),    # FULLWIDTH 3
                            ("3^1\t\uff11/3", "invalid rational"),
                            ("3^\u0661\t1", "invalid class encoding")):
        with pytest.raises(MassTableError, match=message):
            to.parse_mass_table(f"genus: 1\n{record}\n", 1, strict=False)
    # the whole text must match: `$` alone admits a trailing newline
    with pytest.raises(MassTableError, match="invalid class encoding"):
        to.TorsionClass.parse("3^1\n")


@pytest.mark.parametrize("text,message", [
    # the header is compared with g where it stands
    ("genus: 2\n3^1\tx\n", "genus header 2 does not match requested 1"),
    ("genus: 2\ngenus: 1\n", "genus header 2 does not match requested 1"),
    # a record's rank is checked as its line is read
    ("genus: 1\n3^2\t1\n3^1\t1/0\n", "class 3^2 has degree 4, expected 2"),
    ("genus: 1\n3^2\t1\nno tab\n", "class 3^2 has degree 4, expected 2"),
    ("genus: 1\n3^1\t1\n3^1\t1\ngenus: 1\n", "duplicate mass for class 3^1 (orbit 3^1)"),
    ("genus: 1\n3^1\tx\n3^2\t1\n", "invalid rational 'x': expected p or p/q"),
])
def test_parse_mass_table_reports_the_first_fault_in_file_order(text, message):
    for strict in (True, False):
        with pytest.raises(MassTableError) as info:
            to.parse_mass_table(text, 1, strict=strict)
        assert str(info.value) == message


def test_parse_mass_table_reads_its_input_once():
    # lines are checked as they are read: a fault stops the read there
    def lines(*head):
        yield from head
        raise AssertionError("read past the first fault")

    for head, message in ((["genus: 2\n"], "genus header 2"),
                          (["genus: 1\n", "3^2\t1\n"], "has degree 4"),
                          (["genus: 1\n", "3^1\t1\n", "6^1\t1\n"], "duplicate mass")):
        with pytest.raises(MassTableError, match=message):
            to.parse_mass_table(lines(*head), 1)
    table = to.parse_mass_table(iter(["genus: 1\n", "3^1\t1/3\n", "4^1\t1/2\n"]), 1)
    assert len(table.masses) == 5


def test_listed_rank_is_the_last_rank_within_the_class_bound():
    counts = [to.count_torsion_classes(g) for g in range(1, 17)]
    assert counts == sorted(counts)         # adding two eigenvalues 1 embeds rank g in g + 1
    assert counts[to._LISTED_RANK - 1] <= to._CLASS_BOUND < counts[to._LISTED_RANK]
    assert counts[12:14] == [141_877, 259_373]


def test_parse_mass_table_lenient():
    table = to.parse_mass_table("genus: 1\n", 1, strict=False)
    assert table.warnings == ("3 classes missing from mass table, treated as zero",)
    assert table.mass(to.TorsionClass.parse("3^1")) == 0
    # the central default still applies
    assert table.mass(to.TorsionClass.parse("1^2")) == Fraction(-1, 12)


@pytest.mark.parametrize("mass", [0.5, True, "1/3"])
def test_mass_table_refuses_masses_that_are_not_rational(mass):
    # a float once got as far as elliptic_term (AttributeError on .numerator)
    with pytest.raises(TypeError, match="int or Fraction"):
        to.MassTable(genus=1, masses={to.TorsionClass.parse("3^1"): mass})


@pytest.mark.parametrize("mass", [Fraction(1, 2), 3])
def test_mass_table_takes_int_and_fraction_masses(mass):
    c = to.TorsionClass.parse("3^1")
    hw = HighestWeight(1, (2,))
    table = to.MassTable(genus=1, masses={c: mass})
    assert to.elliptic_term(hw, table) == mass * character_at_torsion(hw, c)


def test_elliptic_term_toy_table():
    # only the central classes, both at the default mass m: lambda = 0 gives 2m
    table = to.parse_mass_table("genus: 2\n", 2, strict=False)
    hw = HighestWeight(2, (0, 0))
    value = to.elliptic_term(hw, table)
    assert value == 2 * zeta_product(2)


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


def _random_weight(rng, g, parity):
    while True:
        lam = tuple(sorted((rng.randint(0, 4) for _ in range(g)), reverse=True))
        if sum(lam) % 2 == parity:
            return HighestWeight(g, lam)


def _random_mass(rng):
    return Fraction(rng.randint(-20, 20), rng.randint(1, 12))


def _random_tables(rng, g):
    """Hand-built tables that need not be negation-symmetric: independent
    masses for c and -c (zeros among them, some classes left out), and the
    two central classes alone."""
    full = to.enumerate_torsion_classes(g)
    independent = to.MassTable(genus=g, masses={
        c: rng.choice((Fraction(0), _random_mass(rng)))
        for c in full if rng.random() < 0.8})
    yield independent
    # -c carries m_c up to sign: on one parity of |lambda| the orbit cancels
    yield to.MassTable(genus=g, masses={
        d: m for c, m in independent.masses.items()
        for d in (c, c.negate()) for m in (m if d == c else rng.choice((m, -m)),)})
    for d in (1, 2):
        yield to.MassTable(genus=g, masses={to.TorsionClass(((d, 2 * g),)): _random_mass(rng)})


def test_elliptic_term_matches_naive_sum_on_asymmetric_tables():
    rng = random.Random(20261018)
    for g in (1, 2, 3, 4):
        for _ in range(3):
            for table in _random_tables(rng, g):
                for parity in (0, 1):
                    hw = _random_weight(rng, g, parity)
                    assert to.elliptic_term(hw, table) == naive_elliptic_term(hw, table), \
                        (hw, sorted((c.encode(), m) for c, m in table.masses.items()))


def test_elliptic_term_matches_naive_sum_at_every_length():
    # every branch of the character kernel, l(lambda) = 0 to 5, on hand-built
    # asymmetric rank-5 tables at both parities of |lambda|
    rng = random.Random(30)
    tables = list(_random_tables(rng, 5))
    for length in range(6):
        for parity in (0, 1) if length else (0,):
            while True:
                parts = sorted((rng.randint(1, 3) for _ in range(length)), reverse=True)
                if sum(parts) % 2 == parity:
                    break
            hw = HighestWeight(5, tuple(parts) + (0,) * (5 - length))
            for table in tables:
                assert to.elliptic_term(hw, table) == naive_elliptic_term(hw, table), hw


def test_elliptic_term_weight_budget_only_when_a_character_is_evaluated():
    table = to.load_mass_table(DEMO_MASSES / "g1.tsv", 1)
    # odd weight on a symmetric table: no orbit is weighted, so no plan
    hw = HighestWeight(1, (to.H_SERIES_BOUND + 1,))
    assert to.elliptic_term(hw, table) == 0
    # an over-bound even weight raises on every call
    hw = HighestWeight(1, (to.H_SERIES_BOUND,))
    for _ in range(2):
        with pytest.raises(InputError, match="^work bound: .* exceeds the h-series bound"):
            to.elliptic_term(hw, table)


def _bound_classes(monkeypatch, rank, count):
    monkeypatch.setattr(to, "_LISTED_RANK", rank)
    monkeypatch.setattr(to, "_CLASS_BOUND", count)


def test_class_listing_work_bound(monkeypatch):
    # ranks 2 and 3 have 19 and 59 classes; past the bound nothing is
    # counted or listed
    _bound_classes(monkeypatch, 2, 19)
    assert len(to.enumerate_torsion_classes(2)) == 19
    monkeypatch.setattr(to, "TorsionClass", None)   # any listing would fail
    monkeypatch.setattr(to, "count_torsion_classes", None)      # and any count
    for mod_negation in (False, True):
        with pytest.raises(InputError) as info:
            to.enumerate_torsion_classes(3, mod_negation=mod_negation)
        assert str(info.value) == \
            "work bound: rank 3 has more than 19 torsion classes, too many to list"
    monkeypatch.undo()
    _bound_classes(monkeypatch, 2, 19)
    # strict parsing reports the missing count and names no class; lenient
    # parsing would have to list the orbits to zero-fill them
    with pytest.raises(MassTableError) as info:
        to.parse_mass_table("genus: 3\n", 3)
    assert str(info.value) == "mass table incomplete: 57 classes missing"
    with pytest.raises(InputError, match="^work bound"):
        to.parse_mass_table("genus: 3\n", 3, strict=False)
    _bound_classes(monkeypatch, 3, 59)              # at the bound a class is named
    with pytest.raises(MassTableError, match=r"57 classes missing, e\.g\. "):
        to.parse_mass_table("genus: 3\n", 3)


def test_elliptic_term_matches_naive_sum_on_lenient_tables():
    rng = random.Random(7)
    for g in (1, 2, 3, 4):
        orbits = to.enumerate_torsion_classes(g, mod_negation=True)
        lines = [f"genus: {g}"] + [f"{c.encode()}\t{_random_mass(rng)}"
                                   for c in rng.sample(orbits, len(orbits) // 2)]
        table = to.parse_mass_table("\n".join(lines) + "\n", g, strict=False)
        assert table.warnings
        for parity in (0, 1, 0, 1):
            hw = _random_weight(rng, g, parity)
            assert to.elliptic_term(hw, table) == \
                naive_elliptic_term(hw, table)


def test_elliptic_term_evaluates_one_character_per_weighted_orbit(monkeypatch):
    calls = []      # every class handed to the character kernel
    kernel = to._character_sum

    def counting(plan, weighted):
        calls.extend(c for c, _ in weighted)
        return kernel(plan, weighted)

    monkeypatch.setattr(to, "_character_sum", counting)
    rng = random.Random(11)
    for g in (1, 2, 3):
        for table in _random_tables(rng, g):
            for parity in (0, 1):
                hw = _random_weight(rng, g, parity)
                sign = (-1) ** parity
                weights = {}
                for c, m in table.masses.items():
                    orbit = frozenset((c, c.negate()))
                    if len(orbit) == 1:         # tr(c) = sign tr(c)
                        weights[orbit] = m * (1 + sign) / 2
                    else:
                        weights[orbit] = weights.get(orbit, 0) + \
                            (m if c == min(orbit, key=lambda x: x.pairs) else sign * m)
                calls.clear()
                to.elliptic_term(hw, table)
                assert len(calls) == len(set(calls)) == sum(1 for w in weights.values() if w)
    # a negation-symmetric table at odd weight evaluates no character at all
    table = to.load_mass_table(DEMO_MASSES / "g1.tsv", 1)
    calls.clear()
    assert to.elliptic_term(HighestWeight(1, (3,)), table) == 0 and calls == []


def test_h_series_memo_rising_then_falling():
    shared = to.TorsionClass.parse("1^2,3^1,4^1")
    for top in list(range(0, 12)) + list(range(11, -1, -1)):
        for lam in ((top, 0, 0), (top, min(top, 2), 1 if top else 0)):
            hw = HighestWeight(3, lam)
            fresh = to.TorsionClass.parse("1^2,3^1,4^1")
            assert character_at_torsion(hw, shared) == character_at_torsion(hw, fresh), lam
    assert h_series(shared, 5) == h_series(to.TorsionClass.parse("1^2,3^1,4^1"), 5)
    assert len(h_series(shared, 5)) == 5


def test_h_series_memo_under_threads():
    # threads extend the series of shared classes in interleaved orders; a
    # reader must never see a partial series, so every value equals the one
    # computed on a fresh instance
    encodings = [c.encode() for c in to.enumerate_torsion_classes(3)][::3]
    weights = [HighestWeight(3, (top, 1, 1)) for top in range(1, 40)]
    want = {(hw.lam, e): character_at_torsion(hw, to.TorsionClass.parse(e))
            for hw in weights for e in encodings}
    errors = []

    def worker(seed, shared, barrier):
        order = weights[:]
        random.Random(seed).shuffle(order)
        try:
            barrier.wait(timeout=60)
            for hw in order:
                for e, c in zip(encodings, shared):
                    if character_at_torsion(hw, c) != want[hw.lam, e]:
                        errors.append((seed, hw.lam, e))
        except Exception as exc:    # a thread's exception fails the test below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for rnd in range(4):
            shared = [to.TorsionClass.parse(e) for e in encodings]
            barrier = threading.Barrier(6)
            threads = [threading.Thread(target=worker, args=(6 * rnd + i, shared, barrier))
                       for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []


def _seeded_table_text(g, seed, skip=()):
    """A seeded record per negation orbit, but for the orbits at the
    positions in `skip`."""
    rng = random.Random(seed)
    reps = to.enumerate_torsion_classes(g, mod_negation=True)
    lines = [f"genus: {g}"] + [f"{c.encode()}\t{_random_mass(rng)}"
                               for i, c in enumerate(reps) if i not in skip]
    return "\n".join(lines) + "\n"


def test_orbit_weights_and_index_rows_under_threads():
    # threads share one table and one weight per lambda, so each weight's
    # index rows and each class's h-series are built by whichever thread
    # gets there first (the table's orbit weights were built when it was
    # made); every value must equal the one computed from a fresh table and
    # a fresh weight
    text = _seeded_table_text(3, 41)
    lams = [lam for lam in itertools.product(range(5), repeat=3)
            if list(lam) == sorted(lam, reverse=True) and sum(lam) <= 6]
    want = {lam: to.elliptic_term(HighestWeight(3, lam), to.parse_mass_table(text, 3))
            for lam in lams}
    assert any(sum(lam) % 2 for lam in lams) and any(want.values())
    errors = []

    def worker(seed, table, weights, barrier):
        order = weights[:]
        random.Random(seed).shuffle(order)
        try:
            barrier.wait(timeout=60)
            for hw in order:
                if to.elliptic_term(hw, table) != want[hw.lam]:
                    errors.append((seed, hw.lam))
        except Exception as exc:    # a thread's exception fails the test below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for rnd in range(4):
            table = to.parse_mass_table(text, 3)
            weights = [HighestWeight(3, lam) for lam in lams]
            barrier = threading.Barrier(6)
            threads = [threading.Thread(target=worker,
                                        args=(6 * rnd + i, table, weights, barrier))
                       for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []


def test_mass_table_keeps_its_own_masses():
    c, d = to.TorsionClass.parse("3^1"), to.TorsionClass.parse("4^1")
    hw = HighestWeight(1, (2,))
    given = {c: Fraction(1, 3), d: Fraction(1, 2)}
    table = to.MassTable(genus=1, masses=given)
    before = to.elliptic_term(hw, table)
    given[c] = Fraction(5)
    del given[d]
    given[to.TorsionClass.parse("6^1")] = Fraction(7)
    assert table.masses == {c: Fraction(1, 3), d: Fraction(1, 2)}
    assert to.elliptic_term(hw, table) == before
    # the same holds when the edit comes before the first elliptic_term
    table = to.MassTable(genus=1, masses=given)
    given.clear()
    assert to.elliptic_term(hw, table) == \
        5 * character_at_torsion(hw, c) + 7 * character_at_torsion(hw, c.negate())


def test_mass_table_refuses_a_class_of_the_wrong_rank():
    # such a class was once skipped by elliptic_term when its weight was
    # zero or when it was negation-fixed at odd weight, and the call gave an
    # answer; the table now refuses it when it is made, whatever its mass
    right = to.TorsionClass.parse("1^4")
    for wrong, mass in (("3^1", 0),             # weight zero
                        ("4^1", 1),             # negation-fixed
                        ("1^2,4^2", 2)):        # degree 6
        c = to.TorsionClass.parse(wrong)
        with pytest.raises(ValueError,
                           match=f"class {re.escape(wrong)} has degree {c.degree}, "
                                 "expected 4"):
            to.MassTable(genus=2, masses={right: 1, c: mass})
    # an index too large for the rank is refused before its totient is computed
    huge = to.TorsionClass(((1000000000000000003, 1),))
    with pytest.raises(ValueError, match="class 1000000000000000003\\^1 has cyclotomic index"):
        to.MassTable(genus=1, masses={huge: 0})


def test_mass_table_refuses_a_wrong_rank_orbit_in_either_order():
    # only the member of an orbit that the walk keeps, the one with the
    # smaller pairs, is checked, so a bad class beside its negation is
    # refused, and named, whichever of the two comes first (10^1, the
    # negation of 5^1, has an index past the rank-1 bound)
    right = to.TorsionClass.parse("1^2")
    for enc in ("3^2", "5^1"):
        c = to.TorsionClass.parse(enc)
        for first, second in ((c, c.negate()), (c.negate(), c)):
            with pytest.raises(MassTableError,
                               match=rf"^class {re.escape(enc)} has degree 4, expected 2$"):
                to.MassTable(genus=1, masses={right: 1, first: 1, second: 2})


def test_mass_table_checks_each_negation_orbit_once(monkeypatch):
    g = 4
    calls = []
    check = to._check_rank
    monkeypatch.setattr(to, "_check_rank", lambda c, genus: calls.append(c) or check(c, genus))
    to.MassTable(genus=g, masses={c: 1 for c in to.enumerate_torsion_classes(g)})
    orbits = to.enumerate_torsion_classes(g, mod_negation=True)
    assert len(calls) == len(orbits) < len(to.enumerate_torsion_classes(g))
    assert {c.orbit_representative() for c in calls} == set(orbits)


@pytest.mark.parametrize("pairs", [((3.0, 1),), ((4, True),), ((True, 2),),
                                   ((3, 1.0),), (("3", 1),), ((3, Fraction(1)),)])
def test_torsion_class_refuses_entries_that_are_not_ints(pairs):
    # `3.0^1` was once encoded, which parse refuses, and `4^True`
    with pytest.raises(TypeError, match="class entries must be integers"):
        to.TorsionClass(pairs)


def test_torsion_class_stores_its_pairs_as_a_tuple():
    # a list of pairs was once kept as given: unequal to its tuple twin,
    # and unhashable
    for given in ([(3, 1)], [[3, 1]], iter([(3, 1)])):
        c = to.TorsionClass(given)
        assert c.pairs == ((3, 1),) and type(c.pairs) is tuple
        assert type(c.pairs[0]) is tuple
        assert c == to.TorsionClass(((3, 1),))
        assert hash(c) == hash(to.TorsionClass(((3, 1),)))
        assert c.encode() == "3^1" and to.TorsionClass.parse(c.encode()) == c


def test_h_series_bound_leaves_memo_short(monkeypatch):
    monkeypatch.setattr(to, "H_SERIES_BOUND", 6)
    c = to.TorsionClass.parse("3^1,4^1")
    character_at_torsion(HighestWeight(2, (4, 2)), c)
    with pytest.raises(InputError, match="h-series bound"):
        character_at_torsion(HighestWeight(2, (9, 0)), c)
    # the stored series holds deg P_c = 4 leading zeros, then the h-terms
    assert len(c.__dict__["_hseries"]) - c.degree <= 6


def test_negation_links_both_ways():
    for enc in ("1^2,3^1", "3^1,4^1", "1^4", "5^1"):
        c = to.TorsionClass.parse(enc)
        neg = c.negate()
        assert neg != c and neg.negate() is c and c.negate() is neg


def _count_class_builds(monkeypatch):
    built = []
    init = to.TorsionClass.__init__

    def counting_init(self, pairs):
        built.append(pairs)
        init(self, pairs)

    monkeypatch.setattr(to.TorsionClass, "__init__", counting_init)
    return built


def test_parsed_table_walk_builds_no_class(monkeypatch):
    # a parsed table holds each class and its negation linked both ways, the
    # defaulted central classes included, so the orbit walk of a table made
    # from its masses constructs no TorsionClass
    tables = [to.parse_mass_table(_seeded_table_text(g, 7), g) for g in (2, 3)]
    tables.append(to.load_mass_table(DEMO_MASSES / "g1.tsv", 1))
    built = _count_class_builds(monkeypatch)
    for table in tables:
        rebuilt = to.MassTable(table.genus, table.masses)
        assert rebuilt._orbits == table._orbits
    assert built == []


def test_lenient_table_walk_builds_no_class(monkeypatch):
    # lenient mode zero-fills each missing orbit with its representative and
    # that class's negation, linked both ways like the records' partners
    table = to.parse_mass_table("genus: 3\n", 3, strict=False)
    built = _count_class_builds(monkeypatch)
    rebuilt = to.MassTable(3, table.masses, warnings=table.warnings)
    assert built == []
    assert to.elliptic_term(HighestWeight(3, (2, 0, 0)), rebuilt) == Fraction(1, 8640)
    assert all(c.negate().negate() is c for c in table.masses)


def test_elliptic_term_sets_nothing_on_the_table():
    # the orbit weights of both parities are built when the table is made
    rng = random.Random(5)
    tables = [to.parse_mass_table(_seeded_table_text(g, 9), g) for g in (1, 2, 3)]
    tables.append(to.parse_mass_table("genus: 2\n", 2, strict=False))
    for g in (1, 2, 3):
        tables += _random_tables(rng, g)
    c, d = to.TorsionClass.parse("3^1"), to.TorsionClass.parse("6^1")
    tables.append(to.MassTable(genus=1, masses={c: Fraction(1, 3), d: Fraction(1, 2)}))
    tables.append(to.MassTable(genus=1, masses={c: 1}))     # -c absent
    assert any(m != table.masses.get(k.negate()) for table in tables
               for k, m in table.masses.items())
    for table in tables:
        before = dict(vars(table))
        for parity in (0, 1, 0, 1):
            to.elliptic_term(_random_weight(rng, table.genus, parity), table)
        after = vars(table)
        assert after.keys() == before.keys() and all(after[k] is v for k, v in before.items())


def test_count_torsion_classes_matches_enumeration():
    counts = [to.count_torsion_classes(g) for g in range(1, 11)]
    assert counts == [5, 19, 59, 165, 419, 1001, 2257, 4877, 10133, 20399]
    assert counts == [len(to.enumerate_torsion_classes(g)) for g in range(1, 11)]
    with pytest.raises(ValueError, match="rank must be positive"):
        to.count_torsion_classes(0)


# recorded before completeness became a count: the first error in record
# order, the count of missing classes and the first of them in enumeration order
_PARSE_ERRORS = [
    pytest.param("genus: 1\n", 1,
                 "mass table incomplete: 3 classes missing, e.g. 3^1", id="empty"),
    pytest.param("genus: 1\n4^1\t1\n", 1,
                 "mass table incomplete: 2 classes missing, e.g. 3^1", id="one-record"),
    pytest.param(_seeded_table_text(2, 5, skip=(0, 3)), 2,
                 "mass table incomplete: 4 classes missing, e.g. 10^1", id="rank2-two-left-out"),
    pytest.param(_seeded_table_text(3, 5, skip=(7, 20, 21)), 3,
                 "mass table incomplete: 5 classes missing, e.g. 1^2,3^1,4^1",
                 id="rank3-three-left-out"),
    pytest.param("genus: 3\n", 3,
                 "mass table incomplete: 57 classes missing, e.g. 14^1", id="rank3-header-only"),
    pytest.param("genus: 2\n1^2,3^1\t1\n", 2,
                 "mass table incomplete: 15 classes missing, e.g. 10^1", id="rank2-one-record"),
    pytest.param("genus: 1\n3^1\t1/3\n6^1\t1/3\n", 1,
                 "duplicate mass for class 6^1 (orbit 3^1)", id="duplicate-partner"),
    pytest.param("genus: 1\n6^1\t1\n6^1\t2\n", 1,
                 "duplicate mass for class 6^1 (orbit 3^1)", id="duplicate-class"),
    pytest.param("genus: 1\n1^2\t1\n2^2\t1\n", 1,
                 "duplicate mass for class 2^2 (orbit 1^2)", id="duplicate-central"),
    pytest.param("genus: 1\n4^1\t1\n4^1\t1\n", 1,
                 "duplicate mass for class 4^1 (orbit 4^1)", id="duplicate-fixed"),
    pytest.param("genus: 1\n3^1\t1\n6^1\t1\n3^2\t1\n", 1,
                 "duplicate mass for class 6^1 (orbit 3^1)", id="duplicate-before-degree"),
    pytest.param("genus: 1\n3^2\t1\n3^1\t1\n6^1\t1\n", 1,
                 "class 3^2 has degree 4, expected 2", id="degree-before-duplicate"),
    pytest.param("genus: 1\n3^2\t1/3\n", 1,
                 "class 3^2 has degree 4, expected 2", id="degree"),
    pytest.param("genus: 1\n9^1\t1\n", 1,
                 "class 9^1 has cyclotomic index 9 > 8, so its degree exceeds 2", id="index-rank1"),
    pytest.param("genus: 2\n3^2,33^1\t1\n", 2,
                 "class 3^2,33^1 has cyclotomic index 33 > 32, so its degree exceeds 4",
                 id="index-rank2"),
]


@pytest.mark.parametrize("text,g,message", _PARSE_ERRORS)
def test_parse_mass_table_messages_pinned(text, g, message):
    with pytest.raises(to.MassTableError) as excinfo:
        to.parse_mass_table(text, g)
    assert str(excinfo.value) == message
    if message.startswith("mass table incomplete"):
        # lenient mode fills the same classes in and says how many
        table = to.parse_mass_table(text, g, strict=False)
        missing = message.split(": ")[1].split(" classes")[0]
        assert table.warnings == (f"{missing} classes missing from mass table, treated as zero",)
        assert len(table.masses) == to.count_torsion_classes(g)
        assert set(table.masses) == set(to.enumerate_torsion_classes(g))
    else:
        with pytest.raises(to.MassTableError) as excinfo:
            to.parse_mass_table(text, g, strict=False)
        assert str(excinfo.value) == message


@functools.lru_cache(maxsize=None)
def _class_set(g):
    return frozenset(to.enumerate_torsion_classes(g))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_every_valid_pair_multiset_is_enumerated(data):
    # a class that passes TorsionClass validation and the rank check is one
    # of enumerate_torsion_classes(g), so the parse needs no membership test
    g = data.draw(st.integers(1, 5), label="g")
    pairs, remaining = {}, 2 * g
    while remaining:
        choices = [d for d in range(1, 2 * (2 * g) ** 2 + 1) if d not in pairs
                   and (2 if d <= 2 else euler_phi(d)) <= remaining]
        assume(choices)
        d = data.draw(st.sampled_from(choices))
        step = 2 if d <= 2 else 1
        m = step * data.draw(st.integers(1, remaining // (step * euler_phi(d))))
        pairs[d] = m
        remaining -= m * euler_phi(d)
    c = to.TorsionClass(tuple(sorted(pairs.items())))
    to._check_rank(c, g)
    assert c in _class_set(g)


def test_characteristic_polynomial_matches_factorwise_product():
    for g in range(1, 7):
        for c in to.enumerate_torsion_classes(g):
            assert c.characteristic_polynomial() == factorwise_characteristic_polynomial(c), c
    assert to.TorsionClass(()).characteristic_polynomial() == (1,)


def test_parsed_tables_are_their_records_negations_and_central_defaults():
    texts = [((DEMO_MASSES / "g1.tsv").read_text(), 1)]
    texts += [(_seeded_table_text(g, 3), g) for g in range(1, 6)]
    # seeded tables without their central records take the default
    for g in range(1, 5):
        lines = _seeded_table_text(g, 4).splitlines()
        texts.append(("\n".join(ln for ln in lines if not ln.startswith(f"1^{2 * g}\t")), g))
    for text, g in texts:
        expected = {}
        for line in text.splitlines():
            if line and not line.startswith(("#", "genus:")):
                enc, mass = line.split("\t")
                c = to.TorsionClass.parse(enc)
                expected[c] = expected[c.negate()] = Fraction(mass)
        for d in (1, 2):
            expected.setdefault(to.TorsionClass(((d, 2 * g),)), zeta_product(g))
        table = to.parse_mass_table(text, g)
        assert table.masses == expected and not table.warnings
        assert set(table.masses) == set(to.enumerate_torsion_classes(g))


def test_memo_leaves_equality_hash_and_order_alone():
    a, b = to.TorsionClass.parse("1^2,3^1"), to.TorsionClass.parse("1^2,3^1")
    h_series(a, 30)
    a.negate()
    a.characteristic_polynomial()
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert a.encode() == b.encode()     # the order of enumerate_torsion_classes
    assert {b: 1}[a] == 1
    assert a.negate() == b.negate() and a.negate() is a.negate()
    fixed = to.TorsionClass.parse("4^1")
    assert fixed.negate() is fixed


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
