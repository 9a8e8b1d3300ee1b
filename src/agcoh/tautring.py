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
combination of basis monomials, carries Fraction coefficients; a product
scales each operand to integer numerators by the lcm of its denominators,
accumulates ints, and divides once per output coefficient.

R_g/(u_g) = R_{g-1} is checked on generators: the projection that drops
every basis monomial containing u_g is a ring map onto R_{g-1} once it
respects each product u_i * u_S, and then its kernel is the ideal (u_g).
"""
from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Mapping

from .exact import LaurentPoly, bareiss, strict_partition_count

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
    k = g
    while k and exps[k - 1] < 2:
        k -= 1
    if not k:
        mask = 0
        for i, e in enumerate(exps):
            if e:
                mask |= 1 << i
        return ((mask, 1),)

    base = list(exps)
    base[k - 1] -= 2
    acc: dict[int, int] = {}
    first = max(0, 2 * k - g)  # u_{2k-j} = 0 for j < 2k - g
    coeff = 2 if (first + k) % 2 else -2  # 2 * (-1)^(j+k+1) at j = first
    for j in range(first, k):
        child = base.copy()
        if j:
            child[j - 1] += 1
        child[2 * k - j - 1] += 1
        for mask, c in _normal_form_monomial(g, tuple(child)):
            acc[mask] = acc.get(mask, 0) + coeff * c
        coeff = -coeff
    return tuple(sorted([(m, c) for m, c in acc.items() if c]))


def _check_exps(g: int, exps) -> ExponentVector:
    exps = tuple(exps)
    # a good vector costs one pass: every lambda integral is checked here
    if len(exps) != g or any(type(e) is not int or e < 0 for e in exps):
        if any(type(e) is not int for e in exps):
            raise TypeError(f"exponents must be integers, got {exps!r}")
        raise ValueError(f"bad exponent vector {exps} for genus {g}")
    return exps


@functools.lru_cache(maxsize=None)
def _mask_exps(g: int, mask: int) -> ExponentVector:
    """Exponent vector of the basis monomial with the given bitmask."""
    return tuple(mask >> i & 1 for i in range(g))


def _pair_exps(g: int, m1: int, m2: int) -> ExponentVector:
    """Exponent vector of the product of the basis monomials m1 and m2."""
    return tuple(map(operator.add, _mask_exps(g, m1), _mask_exps(g, m2)))


@functools.lru_cache(maxsize=None)
def _masks_by_index_sum(g: int) -> tuple[tuple[int, ...], ...]:
    """The basis bitmasks of R_g bucketed by index sum: entry s lists the
    masks of the monomials of degree 2s, in increasing order."""
    buckets: list[list[int]] = [[] for _ in range(g * (g + 1) // 2 + 1)]
    for mask in range(1 << g):
        buckets[sum(mask_to_subset(mask))].append(mask)
    return tuple(map(tuple, buckets))


def _numerators(coeffs: Mapping[int, Fraction]) -> tuple[list[tuple[int, int]], int]:
    """The coefficients as (mask, integer numerator) over one common
    denominator, the lcm of theirs."""
    den = math.lcm(*(c.denominator for c in coeffs.values()))
    return [(m, c.numerator * (den // c.denominator)) for m, c in coeffs.items()], den


def _coefficient(c) -> Fraction:
    """An int (not a bool) or a Fraction, as a Fraction (else TypeError)."""
    if type(c) is not int and not isinstance(c, Fraction):
        raise TypeError(f"coefficients must be int or Fraction, got {c!r}")
    return Fraction(c)


class RingElement:
    """Element of R_g: Fraction coefficients on square-free basis monomials,
    keyed by subset bitmask.  Products run on integer numerators over a
    common denominator and scale them by the integer structure constants of
    the normal form.  Immutable."""

    __slots__ = ("g", "_coeffs")

    def __init__(self, g: int, coeffs: Mapping[int, Fraction] | None = None):
        if g < 1:
            raise ValueError("genus must be positive")
        cleaned = {}
        for mask, c in (coeffs or {}).items():
            if type(mask) is not int:
                raise TypeError(f"bitmasks must be int, got {mask!r}")
            if mask < 0 or mask >= (1 << g):
                raise ValueError(f"bitmask {mask} out of range for genus {g}")
            c = _coefficient(c)
            if c != 0:
                cleaned[mask] = c
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "_coeffs", cleaned)

    @classmethod
    def _trusted(cls, g: int, coeffs: dict[int, Fraction]) -> "RingElement":
        """An element from coefficients already in range, Fraction and nonzero."""
        self = object.__new__(cls)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "_coeffs", coeffs)
        return self

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
        if not isinstance(other, RingElement):
            return NotImplemented
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
        if type(other) is int or isinstance(other, Fraction):
            c = Fraction(other)
            return RingElement(self.g, {m: c * v for m, v in self._coeffs.items()})
        if not isinstance(other, RingElement):
            return NotImplemented
        self._check(other)
        g = self.g
        left, d1 = _numerators(self._coeffs)
        right, d2 = _numerators(other._coeffs)
        acc: dict[int, int] = {}
        for m1, c1 in left:
            for m2, c2 in right:
                c = c1 * c2
                if m1 & m2 == 0:
                    mask = m1 | m2
                    acc[mask] = acc.get(mask, 0) + c
                else:
                    for mask, cc in _normal_form_monomial(g, _pair_exps(g, m1, m2)):
                        acc[mask] = acc.get(mask, 0) + c * cc
        den = d1 * d2
        return RingElement._trusted(g, {m: Fraction(c, den) for m, c in acc.items() if c})

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


def monomial(g: int, exps: ExponentVector) -> RingElement:
    """Normal form of the single monomial u_1^{e_1} ... u_g^{e_g}."""
    return RingElement(g, dict(_normal_form_monomial(g, _check_exps(g, exps))))


def socle_coefficient(g: int, exps: ExponentVector) -> int:
    """Coefficient of the socle u_1 u_2 ... u_g in the normal form of
    u_1^{e_1} ... u_g^{e_g}."""
    return _socle_term(g, _normal_form_monomial(g, _check_exps(g, exps)))


def _socle_term(g: int, form: tuple[tuple[int, int], ...]) -> int:
    """The socle coefficient of a normal form: its last term, since the
    socle has the largest bitmask."""
    return form[-1][1] if form and form[-1][0] == (1 << g) - 1 else 0


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


def quotient_by_top(g: int) -> dict[int, int]:
    """Structural check of R_g/(u_g) = R_{g-1}.

    Let pi drop every basis monomial of R_g that contains u_g.  The check is
    pi(u_i * u_S) = pi(u_i) * pi(u_S), the right side computed in R_{g-1},
    for every generator u_i and every basis monomial u_S of R_g.  Products
    are linear and generated by the u_i, so by induction on the number of
    generator factors pi is then a ring map R_g -> R_{g-1}; its kernel, the
    span of the monomials containing u_g, is u_g * R_g = (u_g).  When i is
    not in S both sides are the basis monomial u_{S+i} (or 0 if it contains
    u_g), so only the g * 2^(g-1) products with i in S need a normal form.
    Returns the induced basis correspondence as a bitmask map (identity on
    subsets of {1..g-1}).
    """
    if g < 2:
        raise ValueError("quotient_by_top needs g >= 2")
    h = g - 1
    top_bit = 1 << h
    for mask in range(1 << g):
        exps = _mask_exps(g, mask)
        for i in range(g):
            if not mask >> i & 1:
                continue
            squared = exps[:i] + (2,) + exps[i + 1:]
            projected = tuple(item for item in _normal_form_monomial(g, squared)
                              if not item[0] & top_bit)
            expected = () if mask & top_bit else _normal_form_monomial(h, squared[:h])
            if projected != expected:
                raise AssertionError(
                    f"R_{g}/(u_{g}) differs from R_{h} on u_{i + 1} * {mask:b}")
    return {m: m for m in range(1 << h)}


def pairing_matrix(g: int, degree: int) -> list[list[int]]:
    """Matrix of the socle pairing between the basis of R_g^{degree} and the
    basis of the complementary degree g(g+1) - degree."""
    if degree % 2 or not 0 <= degree <= g * (g + 1):
        return []
    by_index_sum = _masks_by_index_sum(g)
    left = by_index_sum[degree // 2]
    right = by_index_sum[g * (g + 1) // 2 - degree // 2]
    # complementary degrees: a product without a repeated index is the socle
    return [[1 if not ml & mr else _socle_term(g, _normal_form_monomial(g, _pair_exps(g, ml, mr)))
             for mr in right] for ml in left]


def matrix_rank(rows: list[list[int | Fraction]]) -> int:
    """Exact rank over Q: each row is scaled to integers by the lcm of its
    denominators, then eliminated fraction-free by exact.bareiss."""
    scaled = []
    for row in rows:
        den = math.lcm(*(c.denominator for c in row))
        scaled.append([c.numerator * (den // c.denominator) for c in row])
    return bareiss(scaled)[0]
