from fractions import Fraction

import pytest

from agcoh import proportionality as pr
from agcoh import tautring
from agcoh.errors import InputError
from oracles import (bernoulli_factor, lambda1_power_closed_form, normal_form_monomial,
                     top_power_coefficient)


def top_monomials(g):
    """All exponent vectors with sum i*n_i = g(g+1)/2."""
    n = g * (g + 1) // 2
    out = []

    def rec(i, rem, acc):
        if i == 0:
            if rem == 0:
                out.append(tuple(acc))
            return
        for k in range(rem // i, -1, -1):
            acc.append(k)
            rec(i - 1, rem - k * i, acc)
            acc.pop()

    rec(g, n, [])
    return [tuple(reversed(e)) for e in out]


def test_compact_dual_degree_examples():
    assert pr.compact_dual_degree(1, (1,)) == 1
    assert pr.compact_dual_degree(2, (3, 0)) == 2
    assert pr.compact_dual_degree(3, (6, 0, 0)) == 16
    for g in range(1, 5):
        n = g * (g + 1) // 2
        assert type(pr.compact_dual_degree(g, (n,) + (0,) * (g - 1))) is int
        assert type(top_power_coefficient(g)) is int
    with pytest.raises(InputError):
        pr.compact_dual_degree(2, (1, 0))


@pytest.mark.parametrize("exponents", [(1.9, 1), (True, 1), (1, 1.0), ("1", 1)])
def test_exponents_are_ints_by_type(exponents):
    # nothing is truncated: (1.9, 1) and (True, 1) used to give the degree of (1, 1)
    for entry in (pr.compact_dual_degree, pr.lambda_intersection):
        with pytest.raises(TypeError, match="must be integers"):
            entry(2, exponents)


def test_lambda_intersection_anchors():
    assert pr.lambda_intersection(1, (1,)) == Fraction(1, 24)
    assert pr.lambda_intersection(2, (3, 0)) == Fraction(1, 2880)
    assert pr.lambda_intersection(2, (1, 1)) == Fraction(1, 5760)


def test_lambda1_power_examples():
    assert pr.lambda1_power(1) == Fraction(1, 24)
    assert pr.lambda1_power(2) == Fraction(1, 2880)
    assert pr.lambda1_power(3) == Fraction(1, 181440)
    for g in range(1, 41):
        assert pr.lambda1_power(g) == lambda1_power_closed_form(g)


def test_two_formulas_agree_and_signs():
    for g in range(1, 7):
        n = g * (g + 1) // 2
        assert pr.proportionality_constant(g) > 0
        pure = (n,) + (0,) * (g - 1)
        assert pr.lambda_intersection(g, pure) == pr.lambda1_power(g)
        for exps in top_monomials(g):
            dual = pr.compact_dual_degree(g, exps)
            value = pr.lambda_intersection(g, exps)
            assert dual == int(dual) and dual >= 0
            assert value >= 0
            assert (value > 0) == (dual > 0)


def test_pure_power_degree_closed_form():
    # N! / prod (2j-1)!! is the compact-dual degree of the pure power
    for g in range(1, 7):
        n = g * (g + 1) // 2
        assert pr.compact_dual_degree(g, (n,) + (0,) * (g - 1)) == \
            top_power_coefficient(g)


def test_pure_power_degree_to_genus_12():
    for g in range(1, 13):
        n = g * (g + 1) // 2
        assert pr.compact_dual_degree(g, (n,) + (0,) * (g - 1)) == top_power_coefficient(g)
    # N = 3 and N = 15 fill their packed digit exactly: u_1^N has every bit set
    for g, width in ((2, 2), (5, 4)):
        n = g * (g + 1) // 2
        assert n == (1 << width) - 1 and tautring._ring(g).width == width
        assert tautring._ring(g).pack((n,) + (0,) * (g - 1)) == n


def test_top_degree_monomials_match_oracle():
    for g in range(1, 8):
        full = (1 << g) - 1
        for exps in top_monomials(g):
            want = dict(normal_form_monomial(g, exps)).get(full, 0)
            assert tautring.monomial(g, exps).coeff(full) == want, exps
            assert pr.compact_dual_degree(g, exps) == want, exps


def test_modular_form_asymptotics():
    assert pr.modular_form_asymptotics(1) == (Fraction(1, 12), 1)
    assert pr.modular_form_asymptotics(2) == (Fraction(1, 8640), 3)
    coeff, expo = pr.modular_form_asymptotics(3)
    assert expo == 6 and coeff > 0
    for g in range(1, 41):
        assert pr.modular_form_asymptotics(g) == \
            (2 ** ((g - 1) * (g - 2) // 2) * bernoulli_factor(g), g * (g + 1) // 2)


def test_siegel_volume():
    v1 = pr.siegel_volume(1)
    assert (v1.rational, v1.pi_exponent) == (Fraction(1, 3), 1)
    v2 = pr.siegel_volume(2)
    assert v2.pi_exponent == 3
    for g in range(1, 41):
        assert pr.siegel_volume(g) == \
            pr.PiScaledRational(2 ** (g * g + 1) * bernoulli_factor(g), g * (g + 1) // 2)
    # consistency with the asymptotic coefficient:
    # vol * 2^{-N-g} / pi^N = leading coefficient of dim M_k(level) before
    # cancelling the index; at full level the powers of two differ by the
    # documented 2^{(g-1)(g-2)/2} factor
    for g in range(1, 6):
        coeff, n = pr.modular_form_asymptotics(g)
        vol = pr.siegel_volume(g)
        assert vol.pi_exponent == n
        ratio = vol.rational / coeff
        assert ratio == Fraction(2) ** (g * g + 1 - (g - 1) * (g - 2) // 2)


def test_pi_scaled_arithmetic():
    a = pr.PiScaledRational(Fraction(2, 3), 1)
    assert "pi^1" in str(a)
