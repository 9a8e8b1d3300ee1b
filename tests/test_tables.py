import json

import pytest

from agcoh import tables as tb
from agcoh import torsion as to
from agcoh.cli import run
from agcoh.errors import InputError
from agcoh.spin import ih_betti
from agcoh.symplectic import HighestWeight
from agcoh.tautring import poincare_polynomial


def test_reference_values_bit_exact():
    assert tb.reference_table("perf4_ih").values == (1, 2, 4, 9, 14, 16, 14, 9, 4, 2, 1)
    assert tb.reference_table("vor4").values == (1, 3, 5, 11, 17, 19, 17, 11, 5, 3, 1)
    assert tb.reference_table("tor2").values == (1, 2, 2, 1)
    assert tb.reference_table("tor3").values == (1, 2, 4, 6, 4, 2, 1)
    assert tb.reference_table("perf4_low").values == (1, 0, 2, 0, 4, 0, 8, 0, 14)
    assert tb.reference_table("hain_a3").values == (1, 1, 1, 2)
    assert tb.reference_table("hain_sat3").values == (1, 1, 1, 3, 1, 1, 1)
    assert tb.reference_table("euler_ag").values == (1, 2, 5, 9, 18, 46, 104, 200, 528)
    assert tb.reference_table("euler_ag").values[6] == 104
    assert tb.reference_table("torsion_counts").values == (3, 12, 32, 92, 219, 530, 1158)
    with pytest.raises(InputError, match="unknown reference table 'nope'"):
        tb.reference_table("nope")


def test_sat4_constraints_are_typed_bounds():
    table = tb.reference_table("sat4_constraints")
    exact = [v for v in table.values if isinstance(v, tb.Bound) and v.exact]
    bounds = [v for v in table.values if isinstance(v, tb.Bound) and not v.exact]
    assert len(exact) == 7 and len(bounds) == 4
    b10 = dict(zip(table.degrees, table.values))[10]
    assert not b10.exact and b10.admits(2) and b10.admits(5) and not b10.admits(1)
    assert str(b10) == ">=2"


def test_palindromic_tables():
    for name in ("tor2", "tor3", "vor4", "perf4_ih"):
        values = tb.reference_table(name).values
        assert values == values[::-1]


def test_tables_roundtrip_through_cli_serializer():
    for name in tb.table_ids():
        code, out, _ = run(["tables", "--id", name])
        assert code == 0
        doc = json.loads(out)
        table = tb.reference_table(name)
        assert doc["result"]["degrees"] == list(table.degrees)
        rendered = [v if isinstance(v, int) else str(v) for v in table.values]
        assert doc["result"]["values"] == rendered


def test_torsion_counts_cross_module():
    table = tb.reference_table("torsion_counts")
    for g, want in zip(table.degrees, table.values):
        assert len(to.enumerate_torsion_classes(g, mod_negation=True)) == want


def test_stable_series_examples():
    assert tb.stable_series("ag", 6)["coefficients"] == [1, 0, 1, 0, 1, 0, 2]
    assert tb.stable_series("sat", 6)["coefficients"][6] == 3
    assert tb.stable_series("universal:1", 2)["coefficients"][2] == 2
    ih = tb.stable_series("ih_sat", 6)
    assert (ih["space"], ih["coefficients"]) == ("ih_sat", [1, 0, 1, 0, 1, 0, 2])
    with pytest.raises(InputError):
        tb.stable_series("nowhere", 4)
    with pytest.raises(InputError):
        tb.stable_series("universal", 4)
    with pytest.raises(InputError):
        tb.stable_series("ag", -1)


def test_stable_series_more_degrees():
    # ag coefficients: partitions into parts from {2, 6, 10, 14, ...}
    coeffs = tb.stable_series("ag", 14)["coefficients"]
    assert coeffs[8] == 2    # 2^4, 2+6
    assert coeffs[12] == 4   # 2^6, 2^3+6, 6+6, 2+10
    sat = tb.stable_series("sat", 10)["coefficients"]
    assert sat[8] == 3       # x2^4, x2*x6, x2*y6
    assert sat[10] == 5      # x2^5, x2^2*x6, x2^2*y6, x10, y10
    uni = tb.stable_series("universal(2)", 4)["coefficients"]
    # generators: lambda_1, T_1, T_2, P_12 in degree 2: dim in degree 2 is 4
    assert uni[2] == 4


def test_consistency_triangle_small_rank():
    # intersection Betti numbers at trivial weight = tautological dimensions =
    # stable series, in degrees below the rank
    for g in range(1, 6):
        betti = ih_betti(HighestWeight(g, (0,) * g)).betti
        poincare = poincare_polynomial(g).coeff_list(0, g * (g + 1))
        stable = tb.stable_series("ag", g * (g + 1))["coefficients"]
        for k in range(g * (g + 1) + 1):
            assert betti[k] == int(poincare[k])
            if k < g:
                assert betti[k] == stable[k]


def _series_by_generator(degrees, max_degree):
    """Oracle: multiply by 1/(1 - t^d) once per generator."""
    coeffs = [1] + [0] * max_degree
    for d in degrees:
        for n in range(d, max_degree + 1):
            coeffs[n] += coeffs[n - d]
    return coeffs


def test_stable_series_matches_per_generator_oracle():
    for max_degree in (0, 1, 2, 3, 7, 18, 31, 60):
        lam = list(range(2, max_degree + 1, 4))
        cases = [("ag", lam), ("sat", lam + list(range(6, max_degree + 1, 4)))]
        cases += [(f"universal:{n}", lam + [2] * (n + n * (n - 1) // 2))
                  for n in (0, 1, 2, 5, 40)]
        for space, degrees in cases:
            got = tb.stable_series(space, max_degree)["coefficients"]
            assert got == _series_by_generator(degrees, max_degree), (space, max_degree)



def test_stable_series_work_bound(monkeypatch):
    # every stable call of the tests and the benchmark is admitted
    for space in ("ag", "sat", "ih_sat", "universal:40", "universal(4)"):
        tb.stable_series(space, 60)
    # a refused series allocates nothing: the check comes first
    monkeypatch.setattr(tb, "Counter", None)
    # ag to degree 20: 4 passes over 21 coefficients of one size unit, and
    # rendering them costs 100 passes more
    monkeypatch.setattr(tb, "_WORK_BOUND", (4 + 100) * 21)
    with pytest.raises(TypeError):          # admitted, then stopped by the stub
        tb.stable_series("ag", 20)
    for space, max_degree in (("ag", 21), ("sat", 20), ("universal:1", 30)):
        with pytest.raises(InputError, match=f"^work bound: the .* series to degree "
                                             f"{max_degree} is too large"):
            tb.stable_series(space, max_degree)
    # the binomials of universal:N grow with log N: C(N(N+1)/2 + 1, 1) needs
    # two size units past 4096 bits
    monkeypatch.setattr(tb, "_WORK_BOUND", 1000)
    with pytest.raises(TypeError):
        tb.stable_series(f"universal:{10 ** 600}", 2)
    with pytest.raises(InputError, match="^work bound"):
        tb.stable_series(f"universal:{10 ** 700}", 2)
    code, out, err = run(["stable", "--space", "ag", "--max-degree", "100"])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {
        "type": "usage",
        "message": "work bound: the ag series to degree 100 is too large to compute"}


def test_compactification_tables_contain_the_satake_ih():
    # A toroidal compactification maps properly and birationally onto A_g^Sat,
    # so by the decomposition theorem (Beilinson-Bernstein-Deligne-Gabber)
    # IH(A_g^Sat) is a direct summand of its IH, and the complement is
    # palindromic about the middle degree by relative hard Lefschetz.  tor2
    # and tor3 are IH (unique toroidal compactifications with finite quotient
    # singularities), and perf4_ih is IH by its citation.
    differences = {"tor2": (0, 1, 1, 0), "tor3": (0, 1, 3, 4, 3, 1, 0),
                   "perf4_ih": (0, 1, 3, 7, 12, 14, 12, 7, 3, 1, 0)}
    for table_id, g in (("tor2", 2), ("tor3", 3), ("perf4_ih", 4)):
        table = tb.reference_table(table_id)
        betti = ih_betti(HighestWeight(g, (0,) * g)).betti
        assert len(betti) == g * (g + 1) + 1
        assert table.degrees == tuple(range(0, g * (g + 1) + 1, 2))
        assert not any(betti[1::2])
        diff = tuple(value - betti[k] for k, value in zip(table.degrees, table.values))
        assert min(diff) >= 0 and diff == diff[::-1], table_id
        assert diff == differences[table_id]
