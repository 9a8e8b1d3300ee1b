import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agcoh.exact import (LaurentPoly, bareiss, bernoulli, cyclotomic, euler_phi,
                         negate_cyclotomic_index, nu_character, poly_divmod,
                         poly_mul, zeta_negative)


def bernoulli_by_recurrence(n: int) -> Fraction:
    """Independent oracle: solve sum_{k<=m} C(m+1,k) B_k = 0 from scratch."""
    table = [Fraction(1)]
    for m in range(1, n + 1):
        acc = sum(math.comb(m + 1, k) * table[k] for k in range(m))
        table.append(-acc / (m + 1))
    return table[n]


def test_bernoulli_examples():
    assert bernoulli(0) == 1
    assert bernoulli(2) == bernoulli_by_recurrence(2) == Fraction(1, 6)
    assert bernoulli(12) == bernoulli_by_recurrence(12) == Fraction(-691, 2730)


def test_bernoulli_odd_vanish_and_recurrence():
    for n in range(3, 31, 2):
        assert bernoulli(n) == 0
    for n in range(1, 31):
        total = sum(math.comb(n + 1, k) * bernoulli(k) for k in range(n + 1))
        assert total == 0


def test_zeta_negative_examples():
    assert zeta_negative(1) == Fraction(-1, 12)
    assert zeta_negative(2) == Fraction(1, 120)
    assert zeta_negative(3) == Fraction(-1, 252)
    with pytest.raises(ValueError):
        zeta_negative(0)


def test_cyclotomic_examples():
    assert cyclotomic(1) == (-1, 1)
    assert cyclotomic(4) == (1, 0, 1)
    # divide x^12 - 1 by the proper divisors' polynomials by hand
    num = tuple([-1] + [0] * 11 + [1])
    for e in (1, 2, 3, 4, 6):
        num, rem = poly_divmod(num, cyclotomic(e))
        assert not rem
    assert cyclotomic(12) == num == (1, 0, -1, 0, 1)


def test_cyclotomic_product_identity():
    for d in range(1, 201):
        prod = (1,)
        for e in range(1, d + 1):
            if d % e == 0:
                prod = poly_mul(prod, cyclotomic(e))
        expected = tuple([-1] + [0] * (d - 1) + [1])
        assert prod == expected, d


def test_cyclotomic_degree_is_phi():
    for d in range(1, 60):
        assert len(cyclotomic(d)) - 1 == euler_phi(d)


def test_negate_index_rule_and_involution():
    assert negate_cyclotomic_index(1) == 2
    assert negate_cyclotomic_index(3) == 6
    assert negate_cyclotomic_index(4) == 4
    for d in range(1, 300):
        assert negate_cyclotomic_index(negate_cyclotomic_index(d)) == d


def test_negation_actually_negates_roots():
    # Phi_{d'}(x) must equal +-Phi_d(-x) as polynomials
    for d in range(1, 80):
        dd = negate_cyclotomic_index(d)
        flipped = tuple(c if i % 2 == 0 else -c
                        for i, c in enumerate(cyclotomic(d)))
        if flipped[-1] < 0:
            flipped = tuple(-c for c in flipped)
        assert flipped == cyclotomic(dd), d


# -- Laurent polynomials -------------------------------------------------------

def _lp(nvars):
    exps = st.tuples(*([st.integers(-4, 4)] * nvars))
    coeff = st.integers(-5, 5)
    return st.dictionaries(exps, coeff, max_size=5).map(
        lambda d: LaurentPoly(nvars, d))


@settings(max_examples=60, deadline=None)
@given(_lp(1), _lp(1), _lp(1))
def test_laurent_ring_axioms_one_var(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a + b == b + a


@settings(max_examples=40, deadline=None)
@given(_lp(2), _lp(2), _lp(2))
def test_laurent_ring_axioms_two_var(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)


def test_laurent_basics():
    t = LaurentPoly.t_power
    p = (t(1) + t(-1)) * (t(2) + t(-2))
    assert p.coeff_list(-3, 3) == [1, 0, 1, 0, 1, 0, 1]
    assert p.is_symmetric()
    assert p.evaluate_all_ones() == 4
    assert (p - p).is_zero()
    with pytest.raises(ValueError):
        LaurentPoly(1, {(1,): 1}) + LaurentPoly(2, {(1, 0): 1})
    doubled = p.scale_exponents(2)
    assert doubled.scale_exponents(1, 2) == p
    with pytest.raises(ValueError):
        (t(1) + t(2)).scale_exponents(1, 2)


def test_nu_character():
    assert nu_character(1) == LaurentPoly.one(1)
    assert nu_character(4).coeff_list(-3, 3) == [1, 0, 1, 0, 1, 0, 1]
    assert nu_character(5).evaluate_all_ones() == 5


def test_laurent_integer_coefficients_and_halve():
    t = LaurentPoly.t_power
    p = (t(1) + t(-1)) ** 3 * 2 + 4
    assert all(type(c) is int for _, c in p.items())
    assert type(p.evaluate_all_ones()) is int
    assert p.halve() == (t(1) + t(-1)) ** 3 + 2
    with pytest.raises(ValueError, match="cannot halve"):
        (p + t(5)).halve()


def _int_terms(nvars):
    exps = st.tuples(*([st.integers(-3, 3)] * nvars))
    return st.dictionaries(exps, st.integers(-4, 4), max_size=6)


def _naive(pairs):
    """Collect (exponents, coefficient) pairs into a dict without zeros."""
    out = {}
    for e, c in pairs:
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c != 0}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((1, 2)).flatmap(
           lambda n: st.tuples(st.just(n), _int_terms(n), _int_terms(n))),
       st.integers(-3, 3), st.integers(1, 3))
def test_laurent_results_match_naive_dicts(polys, k, scale):
    # results skip the constructor's checks, so pin them against plain dicts:
    # no zero coefficient is stored and int inputs stay int
    nvars, da, db = polys
    a, b = LaurentPoly(nvars, da), LaurentPoly(nvars, db)
    ta, tb = list(da.items()), list(db.items())
    cases = [
        (a + b, _naive(ta + tb)),
        (a - b, _naive(ta + [(e, -c) for e, c in tb])),
        (-a, _naive((e, -c) for e, c in ta)),
        (a * b, _naive((tuple(x + y for x, y in zip(e1, e2)), c1 * c2)
                       for e1, c1 in ta for e2, c2 in tb)),
        (a * k, _naive((e, k * c) for e, c in ta)),
        (k * a, _naive((e, k * c) for e, c in ta)),
        ((a * 2).halve(), _naive(ta)),
        (a.scale_exponents(scale), _naive((tuple(scale * x for x in e), c)
                                          for e, c in ta)),
    ]
    if nvars == 2:
        cases.append((a.set_var_to_one(0), _naive(((e[1],), c) for e, c in ta)))
    for poly, expected in cases:
        assert dict(poly.items()) == expected
        assert all(type(c) is int and c != 0 for _, c in poly.items())


def test_laurent_constructor_validates_caller_data():
    with pytest.raises(ValueError, match="wrong arity"):
        LaurentPoly(2, {(1,): 1})
    with pytest.raises(ValueError, match="wrong arity"):
        LaurentPoly(1, {(1, 0): 1})
    with pytest.raises(ValueError, match="1 or 2 variables"):
        LaurentPoly(3, {})
    assert LaurentPoly(1, {(1,): 2, (3,): 0}).items() == [((1,), 2)]
    # coefficients are ints by type: nothing is converted, not even an
    # integral Fraction
    for c in ("1/2", "half", 0.25, 1.0, Fraction(1, 2), Fraction(2)):
        with pytest.raises(TypeError, match="not an int"):
            LaurentPoly(1, {(0,): c})
    # scalars are ints too, and any other operand is a TypeError
    p = LaurentPoly.t_power(1)
    for op in (lambda: p * 0.5, lambda: p + "x", lambda: p * Fraction(1, 2),
               lambda: p - 0.5, lambda: p + Fraction(2), lambda: 0.5 * p,
               lambda: "x" + p, lambda: 0.5 - p):
        with pytest.raises(TypeError):
            op()
    assert p != 0.5 and p != "x" and LaurentPoly.one(1) != Fraction(1)
    assert LaurentPoly.one(1) == 1 and 2 * p - 1 == LaurentPoly(1, {(1,): 2, (0,): -1})


# -- fraction-free elimination ---------------------------------------------------

def test_bareiss_det_row_pivoting():
    assert bareiss([[0, 1], [1, 0]]) == (2, -1)
    assert bareiss([[0, 2, 1], [0, 1, 3], [4, 0, 0]]) == (3, 20)
    assert bareiss([[1, 2, 3], [2, 4, 6], [0, 1, 1]]) == (2, 0)
    assert bareiss([[7]]) == (1, 7)


def test_bareiss_rank():
    # rectangular, both ways, with a pivot-free column to skip
    assert bareiss([[0, 1, 2], [0, 2, 5]]) == (2, 0)
    assert bareiss([[0, 1], [0, 2], [0, 3]]) == (1, 0)
    assert bareiss([[1, 2, 3, 4], [2, 4, 6, 8], [1, 2, 4, 4], [0, 0, 0, 1]]) == (3, 0)
    assert bareiss([[0, 0], [0, 0]]) == (0, 0)
    assert bareiss([[0]]) == (0, 0)
    assert bareiss([]) == (0, 1)
