import math
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agcoh import exact
from agcoh.exact import (LaurentPoly, bareiss, bernoulli, cyclotomic,
                         euler_phi, negate_cyclotomic_index, poly_mul)
from agcoh.torsion import _character_sum
from oracles import (bernoulli_table, monomial, nu_character, poly_divmod, set_var_to_one,
                     zeta_negative)


def test_bernoulli_examples():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_matches_recurrence_to_400():
    # each value comes from its own tangent pass, so the order of the calls
    # cannot matter: ascending and descending give the same table
    table = bernoulli_table(400)
    assert [bernoulli(n) for n in range(401)] == table
    assert [bernoulli(n) for n in range(400, -1, -1)] == table[::-1]


def test_bernoulli_odd_vanish_and_recurrence():
    for n in range(3, 31, 2):
        assert bernoulli(n) == 0
    for n in range(1, 31):
        total = sum(math.comb(n + 1, k) * bernoulli(k) for k in range(n + 1))
        assert total == 0


def test_bernoulli_values_under_threads():
    # eight threads asking in both orders, switching as often as they can
    expected = bernoulli_table(40)
    results = []

    def work(order):
        results.extend((n, bernoulli(n)) for n in order)

    threads = [threading.Thread(target=work, args=(range(40, -1, -1) if i % 2 else range(41),))
               for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 8 * 41
    assert all(value == expected[n] for n, value in results)


def test_exact_keeps_no_process_state():
    # no module-level container or lock: the only memo is the lru_cache of
    # euler_phi, a pure function, which holds values, not progress
    held = {name: type(value).__name__ for name, value in vars(exact).items()
            if not name.startswith("__")
            and isinstance(value, (dict, list, set, type(threading.Lock())))}
    assert not held, held
    assert [name for name, value in vars(exact).items() if hasattr(value, "cache_info")] \
        == ["euler_phi"]


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
    # every index a class of rank <= 13 can hold: phi(d) <= 26 forces d <= 2 * 26^2
    indices = [d for d in range(1, 2 * 26 ** 2 + 1) if euler_phi(d) <= 26]
    assert len(indices) == 53
    for d in indices:
        poly = cyclotomic(d)
        assert len(poly) - 1 == euler_phi(d) and poly[-1] == 1, d


def _times_by_loops(coeffs, e, k):
    """coeffs times (1 - x^e)^k, truncated, one Python step per coefficient."""
    out = list(coeffs)
    for _ in range(k):
        for i in range(len(out) - 1, e - 1, -1):
            out[i] -= out[i - e]
    for _ in range(-k):
        for i in range(e, len(out)):
            out[i] += out[i - e]
    return out


@pytest.mark.parametrize("n, e, k", [
    (12, 3, 2), (12, 3, -2),            # k > 0 and k < 0
    (10, 1, 4), (10, 1, -3),            # e = 1
    (30, 5, -3), (36, 6, -2),           # e^2 <= n: sums per residue class
    (30, 7, -3), (30, 29, -1), (30, 11, 2),     # e^2 > n: sums block by block
    (10, 10, -2), (10, 12, 3),          # e >= n
    (10, 3, 0), (0, 1, -1), (1, 1, 5),
])
def test_series_times_matches_the_coefficient_loops(n, e, k):
    rng = random.Random(n * 1000 + e * 10 + k)
    coeffs = [rng.choice((0, 1, -1, 3, -7, 10**30)) for _ in range(n)]
    got = list(coeffs)
    assert exact.series_times(got, e, k) is None
    assert got == _times_by_loops(coeffs, e, k)
    exact.series_times(got, e, -k)      # (1 - x^e)^k (1 - x^e)^(-k) = 1
    assert got == coeffs


def test_mobius_divisors_match_the_divisor_sum():
    def mobius(n):
        primes = [p for p in range(2, n + 1) if n % p == 0
                  and all(p % q for q in range(2, p))]
        return 0 if any(n % (p * p) == 0 for p in primes) else (-1) ** len(primes)

    for d in range(1, 301):
        got = exact.mobius_divisors(d)
        assert got[0] == (d, 1) and len(got) == len(set(got)), d
        assert sorted(got) == [(e, mobius(d // e)) for e in range(1, d + 1)
                               if d % e == 0 and mobius(d // e)], d


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


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2).flatmap(_lp), st.booleans())
def test_is_symmetric_matches_negated_polynomial(p, symmetrize):
    # symmetric exactly when p equals p with every exponent negated
    if symmetrize:
        p = p + LaurentPoly(p.nvars, {tuple(-e for e in exps): c for exps, c in p.items()})
    negated = LaurentPoly(p.nvars, {tuple(-e for e in exps): c for exps, c in p.items()})
    assert p.is_symmetric() is (p == negated)
    if symmetrize:
        assert p.is_symmetric()


def test_laurent_basics():
    t = monomial
    p = (t(1) + t(-1)) * (t(2) + t(-2))
    assert p.coeff_list(-3, 3) == [1, 0, 1, 0, 1, 0, 1]
    assert p.is_symmetric()
    assert p.evaluate_all_ones() == 4
    assert (p - p).items() == []
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
    t = monomial
    cube = math.prod([t(1) + t(-1)] * 3)
    p = cube * 2 + 4
    assert all(type(c) is int for _, c in p.items())
    assert type(p.evaluate_all_ones()) is int
    assert p.halve() == cube + 2
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
        cases.append((set_var_to_one(a, 0), _naive(((e[1],), c) for e, c in ta)))
    for poly, expected in cases:
        assert dict(poly.items()) == expected
        assert all(type(c) is int and c != 0 for _, c in poly.items())


def _dense(poly: LaurentPoly) -> tuple[int, ...]:
    """Coefficients of T^0 .. T^top of a one-variable polynomial, top its
    largest exponent (() for zero)."""
    top = max((e for (e,), _ in poly.items()), default=-1)
    return tuple(poly.coeff(e) for e in range(top + 1))


def test_poly_mul_matches_the_laurent_product():
    # poly_mul is the one dense integer product (IH T-lists): pin it against
    # the sparse product on seeded tuples with interior and trailing zeros,
    # unit coefficients and a big entry
    rng = random.Random(32)
    pool = (0, 0, 0, 1, 1, 1, -1, 2, -3, 10**20)
    samples = [(), (0,), (1,), (1, 0, 1), (0, 1, 0, 2, 0, 1, 0)] + [
        tuple(rng.choice(pool) for _ in range(rng.randint(1, 14))) for _ in range(200)]
    sparse = lambda a: LaurentPoly(1, {(i,): c for i, c in enumerate(a)})
    for _ in range(400):
        a, b = rng.choice(samples), rng.choice(samples)
        assert poly_mul(a, b) == _dense(sparse(a) * sparse(b)), (a, b)


def test_lcm_numerators_on_ints_and_fractions():
    assert exact.lcm_numerators({}) == ([], 1)
    assert exact.lcm_numerators({"a": 3, "b": -2}) == ([("a", 3), ("b", -2)], 1)
    pairs, den = exact.lcm_numerators({1: Fraction(1, 6), 2: Fraction(-3, 4), 3: 2})
    assert den == 12 and pairs == [(1, 2), (2, -9), (3, 24)]
    assert all(type(n) is int for _, n in pairs)


def test_laurent_poly_is_immutable():
    # values are shared between threads (the spin factor cache), so no
    # attribute can be assigned or deleted, a stored one included
    p = LaurentPoly(1, {(1,): 2})
    for name in ("nvars", "_coeffs", "extra"):
        with pytest.raises(AttributeError):
            setattr(p, name, 2)
        with pytest.raises(AttributeError):
            delattr(p, name)
    assert p.nvars == 1 and p.items() == [((1,), 2)]


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
    for c in ("1/2", "half", 0.25, 1.0, Fraction(1, 2), Fraction(2), True, False):
        with pytest.raises(TypeError, match="not an int"):
            LaurentPoly(1, {(0,): c})
    # exponents too: (1.9,) and (True,) used to be stored as T^1
    for exps in ((1.9,), (True,), (1.0,), ("1",), (0, False), (Fraction(1), 0)):
        with pytest.raises(TypeError, match="not an int"):
            LaurentPoly(len(exps), {exps: 1})
        with pytest.raises(TypeError, match="not an int"):
            LaurentPoly.term(len(exps), exps)
    with pytest.raises(TypeError, match="not an int"):
        LaurentPoly(1, {(0.5,): 1})
    # scalars are ints too, and any other operand is a TypeError
    p = monomial(1)
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


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.lists(
    st.lists(st.one_of(st.just(0), st.integers(-3, 3), st.integers(-10**12, 10**12)),
             min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_determinant_matches_bareiss(rows):
    # zero-heavy entries, as at torsion points, where Bareiss pivots on rows
    want = bareiss([row[:] for row in rows])[1]
    assert _kernel_determinant(rows) == want


class _Entries:
    """Stands in for a torsion class: its padded h-series is one zero, then
    the entries of a matrix row by row."""

    def __init__(self, rows):
        self.series = (0,) + tuple(x for row in rows for x in row)

    def padded_h_series(self, size):
        return self.series


def _kernel_determinant(rows):
    """det(rows) from torsion._character_sum, the elliptic-term kernel,
    given a plan whose entry (i, j) reads series index 1 + n i + j plus the
    leading zero, as every Jacobi-Trudi entry of the first column does."""
    n = len(rows)
    plan = tuple(tuple((1 + n * i + j, 0) for j in range(n)) for i in range(n))
    return _character_sum((1 + n * n, plan), ((_Entries(rows), 1),))


def test_determinant_closed_forms():
    assert _kernel_determinant([]) == 1 and _kernel_determinant([[-5]]) == -5
    assert _kernel_determinant([[0, 1], [1, 0]]) == -1
    assert _kernel_determinant([[0, 2, 1], [0, 1, 3], [4, 0, 0]]) == 20
    # each of the six 2x2 minors of the first two rows carries its sign
    assert _kernel_determinant([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]) == 1
    assert _kernel_determinant([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]]) == -1
    assert _kernel_determinant([[2, 0, 0, 0], [0, 3, 0, 0], [0, 0, 5, 0], [0, 0, 0, 7]]) == 210
