"""The graded ring R_g generated by classes u_1, ..., u_g (deg u_i = 2i)
subject to (1 + u_1 + ... + u_g)(1 - u_1 + u_2 - ... + (-1)^g u_g) = 1.

The degree-4k part of the relation rewrites every square:

    u_k^2  ->  2 * sum_{j=0}^{k-1} (-1)^{j+k+1} u_j u_{2k-j}

with u_0 = 1 and u_m = 0 for m > g, so R_g has the square-free monomials
u_S = prod_{i in S} u_i, S subset of {1..g}, as a linear basis (2^g of them).
Subsets are encoded as bitmasks with bit i-1 standing for u_i.

R_g is Gorenstein with socle u_1 u_2 ... u_g; the tautological ring of the
moduli space itself is R_{g-1} (with lambda_i in place of u_i and
lambda_g = 0), and the tautological ring of any smooth toroidal
compactification is R_g.  Both facades are a relabeling of this one engine.

The structure constants are integers.  The cached normal form of a monomial
has int coefficients, and the socle coefficients, the pairing matrices and
the quotient check read it directly.  Only RingElement, a rational linear
combination of basis monomials, carries Fraction coefficients.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Mapping

from .exact import (LaurentPoly, bareiss, double_factorial_odd,
                    strict_partition_count)

ExponentVector = tuple[int, ...]


class GenusMismatchError(ValueError):
    pass


@functools.lru_cache(maxsize=None)
def _normal_form_monomial(g: int, exps: ExponentVector) -> tuple[tuple[int, int], ...]:
    """Normal form of u_1^{e_1} ... u_g^{e_g} as ((bitmask, int coeff), ...),
    sorted by bitmask.

    Rewrites are applied to the largest squared index first.  Termination:
    replacing u_k^2 by u_j u_{2k-j} strictly increases sum_i e_i * i^2 while
    sum_i e_i * i is constant, and the former is bounded by g * sum_i e_i * i.
    """
    squared = [k for k in range(g, 0, -1) if exps[k - 1] >= 2]
    if not squared:
        mask = 0
        for i, e in enumerate(exps):
            if e:
                mask |= 1 << i
        return ((mask, 1),)

    k = squared[0]
    base = list(exps)
    base[k - 1] -= 2
    acc: dict[int, int] = {}
    for j in range(k):
        coeff = 2 * (-1) ** (j + k + 1)
        child = list(base)
        if j > 0:
            child[j - 1] += 1
        other = 2 * k - j
        if other > g:
            continue
        child[other - 1] += 1
        for mask, c in _normal_form_monomial(g, tuple(child)):
            acc[mask] = acc.get(mask, 0) + coeff * c
    return tuple(sorted((m, c) for m, c in acc.items() if c != 0))


def _check_exps(g: int, exps) -> ExponentVector:
    exps = tuple(exps)
    if len(exps) != g or any(e < 0 for e in exps):
        raise ValueError(f"bad exponent vector {exps} for genus {g}")
    return exps


def _pair_exps(g: int, m1: int, m2: int) -> ExponentVector:
    """Exponent vector of the product of the basis monomials m1 and m2."""
    return tuple((m1 >> i & 1) + (m2 >> i & 1) for i in range(g))


class RingElement:
    """Element of R_g: Fraction coefficients on square-free basis monomials,
    keyed by subset bitmask.  Products scale them by the integer structure
    constants of the normal form.  Immutable."""

    __slots__ = ("g", "_coeffs")

    def __init__(self, g: int, coeffs: Mapping[int, Fraction] | None = None):
        if g < 1:
            raise ValueError("genus must be positive")
        cleaned = {}
        for mask, c in (coeffs or {}).items():
            if mask < 0 or mask >= (1 << g):
                raise ValueError(f"bitmask {mask} out of range for genus {g}")
            c = Fraction(c)
            if c != 0:
                cleaned[int(mask)] = c
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "_coeffs", cleaned)

    # -- inspection ---------------------------------------------------------
    def coeff(self, mask: int) -> Fraction:
        return self._coeffs.get(mask, Fraction(0))

    def items(self):
        return sorted(self._coeffs.items())

    def is_zero(self) -> bool:
        return not self._coeffs

    def _check(self, other: "RingElement") -> None:
        if self.g != other.g:
            raise GenusMismatchError(f"genus mismatch: {self.g} vs {other.g}")

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        out = dict(self._coeffs)
        for m, c in other._coeffs.items():
            out[m] = out.get(m, Fraction(0)) + c
        return RingElement(self.g, out)

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + (-other)

    def __neg__(self) -> "RingElement":
        return RingElement(self.g, {m: -c for m, c in self._coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return RingElement(self.g, {m: c * v for m, v in self._coeffs.items()})
        self._check(other)
        g = self.g
        out: dict[int, Fraction] = {}
        for m1, c1 in self._coeffs.items():
            for m2, c2 in other._coeffs.items():
                c = c1 * c2
                if m1 & m2 == 0:
                    mask = m1 | m2
                    out[mask] = out.get(mask, Fraction(0)) + c
                else:
                    for mask, cc in _normal_form_monomial(g, _pair_exps(g, m1, m2)):
                        out[mask] = out.get(mask, Fraction(0)) + c * cc
        return RingElement(g, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, RingElement) and self.g == other.g \
            and self._coeffs == other._coeffs

    def __hash__(self):
        return hash((self.g, frozenset(self._coeffs.items())))

    def __repr__(self):
        if not self._coeffs:
            return f"RingElement(g={self.g}, 0)"
        parts = []
        for mask, c in self.items():
            mono = "".join(f"u{i}" for i in mask_to_subset(mask)) or "1"
            parts.append(f"{c}*{mono}")
        return f"RingElement(g={self.g}, " + " + ".join(parts) + ")"


def mask_to_subset(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def one(g: int) -> RingElement:
    return RingElement(g, {0: 1})


def u(g: int, i: int) -> RingElement:
    """The generator u_i in R_g."""
    if not 1 <= i <= g:
        raise ValueError(f"u_{i} does not exist in R_{g}")
    return RingElement(g, {1 << (i - 1): 1})


def socle(g: int) -> RingElement:
    return RingElement(g, {(1 << g) - 1: 1})


def normal_form(g: int, expr: Mapping[ExponentVector, Fraction]) -> RingElement:
    """Normal form of a formal polynomial in u_1..u_g, given as a mapping
    from exponent vectors (e_1, ..., e_g) to coefficients."""
    out: dict[int, Fraction] = {}
    for exps, coeff in expr.items():
        exps = _check_exps(g, exps)
        coeff = Fraction(coeff)
        if coeff == 0:
            continue
        for mask, c in _normal_form_monomial(g, exps):
            out[mask] = out.get(mask, Fraction(0)) + coeff * c
    return RingElement(g, out)


def monomial(g: int, exps: ExponentVector) -> RingElement:
    """Normal form of the single monomial u_1^{e_1} ... u_g^{e_g}."""
    return normal_form(g, {tuple(exps): 1})


def socle_coefficient(g: int, exps: ExponentVector) -> int:
    """Coefficient of the socle u_1 u_2 ... u_g in the normal form of
    u_1^{e_1} ... u_g^{e_g}."""
    return dict(_normal_form_monomial(g, _check_exps(g, exps))).get((1 << g) - 1, 0)


def poincare_polynomial(g: int) -> LaurentPoly:
    """sum_k dim R_g^{2k} T^{2k} = prod_{k=1}^{g} (1 + T^{2k}).

    dim R_g^{2k} is the number of partitions of k into distinct parts <= g,
    and the total dimension at T = 1 is 2^g.
    """
    if g < 1:
        raise ValueError("genus must be positive")
    result = LaurentPoly.one(1)
    for k in range(1, g + 1):
        result = result * (LaurentPoly.one(1) + LaurentPoly.t_power(2 * k))
    return result


def graded_dimension(g: int, degree: int) -> int:
    """dim of the degree `degree` piece of R_g (degree of u_i is 2i)."""
    if degree % 2 == 1 or degree < 0 or degree > g * (g + 1):
        return 0
    return strict_partition_count(degree // 2, g)


def socle_pairing(a: RingElement, b: RingElement) -> Fraction:
    """Coefficient of the socle u_1 u_2 ... u_g in a * b."""
    a._check(b)
    return (a * b).coeff((1 << a.g) - 1)


def top_power_coefficient(g: int) -> int:
    """u_1^{g(g+1)/2} = N! / prod_{j=1}^{g}(2j-1)!! times the socle, N = g(g+1)/2.

    This is the intersection degree of the compact dual under the socle
    normalization, used as a cross-check of the proportionality constant.
    """
    n = g * (g + 1) // 2
    return math.factorial(n) // double_factorial_odd(g)


def quotient_by_top(g: int) -> dict[int, int]:
    """Structural check of R_g/(u_g) = R_{g-1}.

    Sets u_g = 0 in R_g (drops every basis monomial containing u_g) and
    verifies that all products of the surviving basis agree with products in
    R_{g-1}.  Returns the induced basis correspondence as a bitmask map
    (identity on subsets of {1..g-1}).
    """
    if g < 2:
        raise ValueError("quotient_by_top needs g >= 2")
    h = g - 1
    top_bit = 1 << (g - 1)
    for m1 in range(1 << h):
        for m2 in range(m1, 1 << h):
            exps = _pair_exps(h, m1, m2)
            projected = tuple((m, c) for m, c in _normal_form_monomial(g, exps + (0,))
                              if not m & top_bit)
            if projected != _normal_form_monomial(h, exps):
                raise AssertionError(
                    f"R_{g}/(u_{g}) differs from R_{h} on basis product {m1:b} * {m2:b}")
    return {m: m for m in range(1 << h)}


def pairing_matrix(g: int, degree: int) -> list[list[int]]:
    """Matrix of the socle pairing between the basis of R_g^{degree} and the
    basis of the complementary degree g(g+1) - degree."""
    index_sum = [sum(mask_to_subset(m)) for m in range(1 << g)]
    left = [m for m, s in enumerate(index_sum) if 2 * s == degree]
    right = [m for m, s in enumerate(index_sum) if 2 * s == g * (g + 1) - degree]
    return [[socle_coefficient(g, _pair_exps(g, ml, mr)) for mr in right] for ml in left]


def matrix_rank(rows: list[list[int | Fraction]]) -> int:
    """Exact rank over Q: each row is scaled to integers by the lcm of its
    denominators, then eliminated fraction-free by exact.bareiss."""
    scaled = []
    for row in rows:
        den = math.lcm(*(c.denominator for c in row))
        scaled.append([c.numerator * (den // c.denominator) for c in row])
    return bareiss(scaled)[0]
