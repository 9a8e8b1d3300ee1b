import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from agcoh import tautring as tr
from agcoh.exact import double_factorial_odd, strict_partition_count


def test_rewrite_examples():
    assert dict(tr.monomial(2, (2, 0)).items()) == {0b10: Fraction(2)}
    assert tr.monomial(2, (0, 2)).is_zero()
    assert tr.monomial(2, (2, 1)).is_zero()


def test_multiply_examples():
    assert tr.u(3, 1) * tr.u(3, 1) == tr.monomial(3, (2, 0, 0))
    x = tr.u(4, 2) + 3 * tr.u(4, 3) * tr.u(4, 1)
    assert tr.one(4) * x == x
    assert (tr.u(2, 1) * (tr.u(2, 1) * tr.u(2, 2))).is_zero()
    with pytest.raises(tr.GenusMismatchError):
        tr.u(2, 1) * tr.u(3, 1)


def test_coefficients_are_int_or_fraction():
    assert tr.RingElement(2, {0: Fraction(1, 10), 1: -3}).items() == \
        [(0, Fraction(1, 10)), (1, Fraction(-3))]
    # a float used to be stored as its binary expansion
    for c in (0.1, 1.0, True, "1"):
        with pytest.raises(TypeError, match="int or Fraction"):
            tr.RingElement(2, {0: c})
    x = tr.u(2, 1)
    assert x * Fraction(1, 2) == Fraction(1, 2) * x == tr.RingElement(2, {1: Fraction(1, 2)})
    for scalar in (0.5, True, "2", None):
        with pytest.raises(TypeError):
            x * scalar
        with pytest.raises(TypeError):
            scalar * x


def test_bitmasks_are_int():
    assert tr.RingElement(2, {3: 1}).items() == [(3, Fraction(1))]
    for mask in (1.5, 1.0, True, "1", Fraction(1)):
        with pytest.raises(TypeError, match="bitmasks must be int"):
            tr.RingElement(2, {mask: 1})


def test_add_and_mul_refuse_other_operands():
    x = tr.u(2, 1)
    for other in (1, Fraction(1, 2), 0.5, "u1", None):
        with pytest.raises(TypeError):
            x + other
        with pytest.raises(TypeError):
            other + x
        with pytest.raises(TypeError):
            x - other
    assert x.__add__(1) is NotImplemented
    assert x.__mul__(0.5) is NotImplemented and x.__mul__("2") is NotImplemented


def test_poincare_polynomial():
    p1 = tr.poincare_polynomial(1)
    assert p1.coeff_list(0, 2) == [Fraction(1), Fraction(0), Fraction(1)]
    p3 = tr.poincare_polynomial(3)
    assert p3.coeff_list(0, 12) == [Fraction(x) for x in
                                    (1, 0, 1, 0, 1, 0, 2, 0, 1, 0, 1, 0, 1)]
    for g in range(1, 13):
        assert tr.poincare_polynomial(g).evaluate_all_ones() == 2 ** g


def test_graded_dimensions_are_strict_partition_counts():
    for g in range(1, 9):
        p = tr.poincare_polynomial(g)
        for k in range(0, g * (g + 1) // 2 + 1):
            assert p.coeff(2 * k) == strict_partition_count(k, g)
            assert tr.graded_dimension(g, 2 * k) == strict_partition_count(k, g)


def test_socle_pairing_examples():
    assert tr.socle_pairing(tr.u(2, 1), tr.u(2, 1) * tr.u(2, 2)) == 0
    assert tr.socle_pairing(tr.u(2, 1), tr.u(2, 2)) == 1
    for g in (1, 2, 3, 5):
        assert tr.socle_pairing(tr.one(g), tr.socle(g)) == 1
    assert tr.socle_pairing(tr.u(2, 1), tr.monomial(2, (2, 0))) == 2


def test_normal_form_linearity_rank_certification():
    # the normal forms of all monomials of degree <= g(g+1) span a space of
    # rank 2^g, certifying confluence of the rewrite system
    for g in range(1, 7):
        n = g * (g + 1) // 2
        rows = []

        def gen(i, rem, acc):
            if i == g:
                rows.append(tuple(acc))
                return
            for k in range(0, rem // (i + 1) + 1):
                acc.append(k)
                gen(i + 1, rem - k * (i + 1), acc)
                acc.pop()

        gen(0, n, [])
        dim = 1 << g
        mat = [[tr.monomial(g, e).coeff(m) for m in range(dim)]
               for e in rows]
        assert tr.matrix_rank(mat) == dim


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.data())
def test_normal_form_is_linear(g, data):
    # sums of monomials are additive in their terms and agree with the
    # oracle's normal form of the whole formal polynomial
    exps = st.tuples(*([st.integers(0, 3)] * g))
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=4)
    e1 = data.draw(st.dictionaries(exps, coeff, max_size=3))
    e2 = data.draw(st.dictionaries(exps, coeff, max_size=3))
    merged = dict(e1)
    for k, v in e2.items():
        merged[k] = merged.get(k, Fraction(0)) + v

    def combine(expr):
        return sum((c * tr.monomial(g, e) for e, c in expr.items()), tr.RingElement(g))

    assert combine(merged) == combine(e1) + combine(e2) == oracles.normal_form(g, merged)


def test_pairing_matrices_nonsingular():
    # and equal, entry for entry, to the socle pairing of basis elements
    for g in range(1, 7):
        top = g * (g + 1)

        def basis(degree):
            return [tr.RingElement(g, {m: 1}) for m in range(1 << g)
                    if 2 * sum(tr.mask_to_subset(m)) == degree]

        for deg in range(0, top + 1, 2):
            m = tr.pairing_matrix(g, deg)
            assert len(m) == len(m[0])
            assert tr.matrix_rank(m) == len(m)
            assert m == [[tr.socle_pairing(a, b) for b in basis(top - deg)]
                         for a in basis(deg)], (g, deg)
            assert all(type(c) is int for row in m for c in row)


def test_socle_coefficient():
    for g in range(1, 6):
        full = (1 << g) - 1
        for exps in [(0,) * g, (1,) * g, (g * (g + 1) // 2,) + (0,) * (g - 1)]:
            got = tr.socle_coefficient(g, exps)
            assert type(got) is int
            assert got == tr.monomial(g, exps).coeff(full)
    assert tr.socle_coefficient(2, (1, 1)) == 1
    assert tr.socle_coefficient(2, (3, 0)) == 2
    with pytest.raises(ValueError):
        tr.socle_coefficient(2, (1, 1, 0))
    with pytest.raises(ValueError):
        tr.socle_coefficient(2, (-1, 2))
    # exponents are exactly ints: a float or a bool is never truncated
    for exps in ((1.5, 0), (True, 0), (1.0, 1.0)):
        with pytest.raises(TypeError, match="exponents must be integers"):
            tr.monomial(2, exps)
        with pytest.raises(TypeError, match="exponents must be integers"):
            tr.socle_coefficient(2, exps)


def test_duality_shape():
    # pairing of complementary square-free monomials never vanishes
    for g in range(1, 8):
        full = (1 << g) - 1
        for mask in range(1 << g):
            a = tr.RingElement(g, {mask: Fraction(1)})
            b = tr.RingElement(g, {full ^ mask: Fraction(1)})
            assert tr.socle_pairing(a, b) != 0, (g, mask)


def test_top_power_identity():
    for g in range(1, 7):
        n = g * (g + 1) // 2
        got = tr.monomial(g, (n,) + (0,) * (g - 1)).coeff((1 << g) - 1)
        expected = Fraction(math.factorial(n), double_factorial_odd(g))
        assert got == expected == oracles.top_power_coefficient(g)


def test_quotient_by_top():
    for g in range(2, 7):
        corr = tr.quotient_by_top(g)
        assert len(corr) == 2 ** (g - 1)
        assert all(corr[m] == m for m in corr)
    # relation u_1^2 = 0 in the quotient image of g=2
    proj = {m: c for m, c in tr.monomial(2, (2, 0)).items() if not m & 0b10}
    assert proj == {}  # u_1^2 = 2 u_2 dies when u_2 is set to zero
    assert tr.monomial(1, (2,)).is_zero()


def test_quotient_by_top_matches_all_pairs_oracle():
    for g in range(2, 7):
        assert tr.quotient_by_top(g) == oracles.quotient_by_top_all_pairs(g)


@pytest.fixture
def fresh_normal_forms():
    # a tampered rewrite must not leave wrong entries in the cache
    yield
    tr._normal_form_monomial.cache_clear()


@pytest.mark.parametrize("g, exps", [
    (3, (2, 0, 0)),     # u_1 * u_1, which projects to R_2
    (3, (0, 0, 2)),     # u_3 * u_3, zero in R_3
    (4, (1, 2, 0, 1)),  # u_2 * u_1 u_2 u_4, in the kernel (u_4)
    (4, (0, 1, 2, 0)),  # u_3 * u_2 u_3
])
def test_quotient_by_top_detects_a_wrong_generator_product(monkeypatch, fresh_normal_forms,
                                                           g, exps):
    # one generator product gains a constant term, which no projection drops
    real = tr._normal_form_monomial
    coeffs = dict(real(g, exps))
    coeffs[0] = coeffs.get(0, 0) + 1
    wrong = tuple(sorted(coeffs.items()))

    def tampered(gg, ee):
        return wrong if (gg, ee) == (g, exps) else real(gg, ee)

    monkeypatch.setattr(tr, "_normal_form_monomial", tampered)
    with pytest.raises(AssertionError, match=rf"R_{g}/\(u_{g}\) differs"):
        tr.quotient_by_top(g)
    monkeypatch.undo()
    real.cache_clear()
    assert tr.quotient_by_top(g) == {m: m for m in range(1 << (g - 1))}


def test_normal_forms_match_oracle_on_basis_pairs():
    # every product of two basis monomials, g <= 7, as normal forms and as
    # RingElement products
    for g in range(1, 8):
        basis = [tr.RingElement(g, {m: 1}) for m in range(1 << g)]
        for m1 in range(1 << g):
            for m2 in range(m1, 1 << g):
                exps = oracles.pair_exps(g, m1, m2)
                want = oracles.normal_form_monomial(g, exps)
                assert tr._normal_form_monomial(g, exps) == want, (g, m1, m2)
                assert (basis[m1] * basis[m2]).items() == \
                    [(m, Fraction(c)) for m, c in want], (g, m1, m2)


def test_normal_forms_match_oracle_on_random_exponents():
    # entries 0-4; most such monomials lie above the top degree and vanish,
    # so draws continue until 100 per genus lie within it
    rng = random.Random(11)
    for g in range(1, 8):
        within = 0
        while within < 100:
            exps = tuple(rng.randint(0, 4) for _ in range(g))
            within += sum(i * e for i, e in enumerate(exps, start=1)) <= g * (g + 1) // 2
            want = oracles.normal_form_monomial(g, exps)
            assert tr._normal_form_monomial(g, exps) == want, (g, exps)
            assert tr.monomial(g, exps).items() == [(m, Fraction(c)) for m, c in want]
            full = (1 << g) - 1
            assert tr.socle_coefficient(g, exps) == dict(want).get(full, 0)


@st.composite
def rational_elements(draw, g):
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=12)
    return draw(st.dictionaries(st.integers(0, (1 << g) - 1), coeff, max_size=5))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.data())
def test_products_match_fraction_oracle(g, data):
    a = data.draw(rational_elements(g))
    b = data.draw(rational_elements(g))
    got = tr.RingElement(g, a) * tr.RingElement(g, b)
    want = oracles.fraction_product(g, a, b)
    assert dict(got.items()) == want
    assert repr(got.items()) == repr(sorted(want.items()))
    assert all(type(c) is Fraction for _, c in got.items())
    assert got == tr.RingElement(g, want)


def gauss_jordan_rank(rows):
    """Independent oracle: rank over Q by Gauss-Jordan elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [c * inv for c in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


@st.composite
def planted_matrices(draw):
    """Random rational rows plus rational combinations of them, shuffled;
    returns the matrix and the number of drawn (not planted) rows."""
    ncols = draw(st.integers(0, 6))
    entry = st.fractions(min_value=-6, max_value=6, max_denominator=5)
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    base = draw(st.lists(row, max_size=5))
    rows = list(base)
    if base:
        for _ in range(draw(st.integers(0, 4))):
            weights = draw(st.lists(entry, min_size=len(base), max_size=len(base)))
            rows.append([sum((w * r[j] for w, r in zip(weights, base)), Fraction(0))
                         for j in range(ncols)])
    return draw(st.permutations(rows)), len(base)


@settings(max_examples=60, deadline=None)
@given(planted_matrices())
def test_matrix_rank_matches_gauss_jordan(case):
    rows, drawn = case
    rank = tr.matrix_rank(rows)
    assert rank == gauss_jordan_rank(rows)
    assert rank <= drawn
