"""Exact top intersection numbers of the Hodge-bundle Chern classes and the
asymptotics they control, via Hirzebruch-Mumford proportionality.

Top lambda-monomials on a smooth toroidal compactification equal the
corresponding Chern numbers of the tautological subbundle on the compact dual
times the proportionality constant

    (-1)^{g(g+1)/2} 2^{-g} prod_{j=1}^{g} zeta(1-2j).

All values are stacky, i.e. the generic involution -1 is taken into account;
in particular the degree of the Hodge line bundle in genus one is 1/24.
Everything is exact: pi stays symbolic via PiScaledRational.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction

from . import tautring
from .errors import InputError
from .exact import bernoulli, double_factorial_odd, zeta_negative
from .records import Record


class PiScaledRational(Record):
    """Exactly (rational) * pi^(pi_exponent)."""

    rational: Fraction
    pi_exponent: int

    def __init__(self, rational: Fraction, pi_exponent: int):
        object.__setattr__(self, "rational", rational)
        object.__setattr__(self, "pi_exponent", pi_exponent)

    def __mul__(self, other):
        if isinstance(other, PiScaledRational):
            return PiScaledRational(self.rational * other.rational,
                                    self.pi_exponent + other.pi_exponent)
        return PiScaledRational(self.rational * Fraction(other), self.pi_exponent)

    __rmul__ = __mul__

    def __str__(self):
        if self.pi_exponent == 0:
            return str(self.rational)
        return f"({self.rational})*pi^{self.pi_exponent}"


def _check_degree(g: int, exponents) -> tuple[int, ...]:
    """Ints only, never truncated (TypeError), of top degree (InputError)."""
    exponents = tuple(exponents)
    if any(type(n) is not int for n in exponents):
        raise TypeError(f"exponents must be integers, got {exponents!r}")
    if len(exponents) != g or any(n < 0 for n in exponents):
        raise InputError(f"need {g} nonnegative exponents, got {exponents}")
    total = sum(i * n for i, n in enumerate(exponents, start=1))
    if total != g * (g + 1) // 2:
        raise InputError(
            f"not a top-degree monomial: sum i*n_i = {total} != {g * (g + 1) // 2}")
    return exponents


def compact_dual_degree(g: int, exponents) -> int:
    """Degree of u_1^{n_1} ... u_g^{n_g} on the compact dual, normalized so
    that the socle u_1 ... u_g has degree 1.  Always a nonnegative integer."""
    value = tautring.socle_coefficient(g, _check_degree(g, exponents))
    if value < 0:
        raise AssertionError(f"compact dual degree came out negative: {value}")
    return value


@functools.lru_cache(maxsize=None)
def proportionality_constant(g: int) -> Fraction:
    """(-1)^{g(g+1)/2} 2^{-g} prod_{j=1}^{g} zeta(1-2j), once per genus."""
    sign = -1 if (g * (g + 1) // 2) % 2 else 1
    return Fraction(sign, 2 ** g) * math.prod(
        (zeta_negative(j) for j in range(1, g + 1)), start=Fraction(1))


def lambda_intersection(g: int, exponents) -> Fraction:
    """lambda_1^{n_1} ... lambda_g^{n_g} on a smooth toroidal compactification
    (stacky normalization), for sum i*n_i = g(g+1)/2."""
    return proportionality_constant(g) * compact_dual_degree(g, exponents)


def lambda1_power(g: int) -> Fraction:
    """Closed form for lambda_1^{g(g+1)/2}:

    (-1)^{g(g+1)/2} ((g(g+1)/2)! / 2^g) prod_{k=1}^{g} zeta(1-2k)/(2k-1)!!
    """
    if g < 1:
        raise ValueError("genus must be positive")
    n = g * (g + 1) // 2
    sign = -1 if n % 2 else 1
    value = Fraction(sign * math.factorial(n), 2 ** g)
    value /= double_factorial_odd(g)
    for k in range(1, g + 1):
        value *= zeta_negative(k)
    return value


def _bernoulli_factor(g: int) -> Fraction:
    return math.prod((Fraction((-1) ** (j - 1)) * Fraction(math.factorial(j - 1),
                                                           math.factorial(2 * j)) * bernoulli(2 * j)
                      for j in range(1, g + 1)), start=Fraction(1))


def modular_form_asymptotics(g: int) -> tuple[Fraction, int]:
    """Leading term of dim M_k for scalar weight-k forms of full level, k even,
    as (coefficient, exponent): dim M_k ~ coefficient * k^exponent with

    coefficient = 2^{(g-1)(g-2)/2} prod_{j=1}^{g} ((j-1)!/(2j)!) (-1)^{j-1} B_{2j}
    exponent    = g(g+1)/2.
    """
    if g < 1:
        raise ValueError("genus must be positive")
    coeff = Fraction(2) ** ((g - 1) * (g - 2) // 2) * _bernoulli_factor(g)
    return coeff, g * (g + 1) // 2


def siegel_volume(g: int) -> PiScaledRational:
    """Siegel's volume V_g = 2^{g^2+1} pi^{g(g+1)/2}
    prod_{j=1}^{g} ((j-1)!/(2j)!) (-1)^{j-1} B_{2j}, kept exact in pi."""
    if g < 1:
        raise ValueError("genus must be positive")
    return PiScaledRational(Fraction(2) ** (g * g + 1) * _bernoulli_factor(g),
                            g * (g + 1) // 2)
