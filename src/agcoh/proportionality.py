"""Exact top intersection numbers of the Hodge-bundle Chern classes and the
asymptotics they control, via Hirzebruch-Mumford proportionality.

Top lambda-monomials on a smooth toroidal compactification equal the
corresponding Chern numbers of the tautological subbundle on the compact dual
times the proportionality constant

    (-1)^{g(g+1)/2} 2^{-g} prod_{j=1}^{g} zeta(1-2j)   (exact.zeta_product).

All values are stacky, i.e. the generic involution -1 is taken into account;
in particular the degree of the Hodge line bundle in genus one is 1/24.
Everything is exact: pi stays symbolic via PiScaledRational.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction

from .exact import double_factorial_odd, zeta_product
from .records import Record
from .tautring import compact_dual_degree


class PiScaledRational(Record):
    """Exactly (rational) * pi^(pi_exponent)."""

    rational: Fraction
    pi_exponent: int

    def __str__(self):
        if self.pi_exponent == 0:
            return str(self.rational)
        return f"({self.rational})*pi^{self.pi_exponent}"


@functools.lru_cache(maxsize=None)
def proportionality_constant(g: int) -> Fraction:
    """(-1)^{g(g+1)/2} 2^{-g} prod_{j=1}^{g} zeta(1-2j), once per genus."""
    sign = -1 if (g * (g + 1) // 2) % 2 else 1
    return zeta_product(g) * Fraction(sign, 2 ** g)


def lambda_intersection(g: int, exponents) -> Fraction:
    """lambda_1^{n_1} ... lambda_g^{n_g} on a smooth toroidal compactification
    (stacky normalization), for sum i*n_i = g(g+1)/2."""
    return proportionality_constant(g) * compact_dual_degree(g, exponents)


def lambda1_power(g: int) -> Fraction:
    """Closed form for lambda_1^{g(g+1)/2}: the proportionality constant
    times the compact-dual degree (g(g+1)/2)! / prod_{k=1}^{g} (2k-1)!!."""
    if g < 1:
        raise ValueError("genus must be positive")
    n = g * (g + 1) // 2
    return proportionality_constant(g) * (math.factorial(n) // double_factorial_odd(g))


def _bernoulli_factor(g: int) -> Fraction:
    """prod_{j=1}^{g} ((j-1)!/(2j)!) (-1)^{j-1} B_{2j}.  As B_{2j} =
    -2j zeta(1-2j), each factor is (-1)^j 2 (j!/(2j)!) zeta(1-2j), so the
    product is proportionality_constant(g) * 4^g / prod_{j=1}^{g} (2j)!/j!."""
    den = math.prod(math.perm(2 * j, j) for j in range(1, g + 1))
    return proportionality_constant(g) * Fraction(4 ** g, den)


def modular_form_asymptotics(g: int) -> tuple[Fraction, int]:
    """Leading term of dim M_k for scalar weight-k forms of full level, k even,
    as (coefficient, exponent): dim M_k ~ coefficient * k^exponent with

    coefficient = 2^{(g-1)(g-2)/2} prod_{j=1}^{g} ((j-1)!/(2j)!) (-1)^{j-1} B_{2j}
    exponent    = g(g+1)/2.
    """
    if g < 1:
        raise ValueError("genus must be positive")
    coeff = 2 ** ((g - 1) * (g - 2) // 2) * _bernoulli_factor(g)
    return coeff, g * (g + 1) // 2


def siegel_volume(g: int) -> PiScaledRational:
    """Siegel's volume V_g = 2^{g^2+1} pi^{g(g+1)/2}
    prod_{j=1}^{g} ((j-1)!/(2j)!) (-1)^{j-1} B_{2j}, kept exact in pi."""
    if g < 1:
        raise ValueError("genus must be positive")
    return PiScaledRational(2 ** (g * g + 1) * _bernoulli_factor(g),
                            g * (g + 1) // 2)
