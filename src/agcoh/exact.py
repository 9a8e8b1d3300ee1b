"""Exact arithmetic substrate: rationals, Bernoulli numbers, zeta special
values, cyclotomic polynomials, sparse Laurent polynomials, and fraction-free
elimination.

It owns the closed forms the engines share: the Hirzebruch-Mumford product
zeta(-1) ... zeta(1-2g) (zeta_product) and the partition counts behind
prod_{k<=g} (1 + T^{2k}) (strict_partition_counts), the one product of a
truncated series by (1 - x^e)^k (series_times), the one dense integer
polynomial product (poly_mul) and the one scaling of rationals to integer
numerators over the lcm of their denominators (lcm_numerators).  Values keep
their exact type: `int` where integral, Laurent coefficients included, and
`fractions.Fraction` (always reduced, positive denominator) for the
Bernoulli and zeta values.  The module keeps no state but the lru_cache of
euler_phi, and every value is immutable, so values can be shared freely
between threads.
"""
from __future__ import annotations

import functools
import math
from itertools import accumulate
from operator import add, sub
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction
    from typing import Mapping

# `fractions` (and the `decimal` it loads) is imported inside the functions
# that build a Fraction, bernoulli and zeta_product, so engines that never touch
# a rational load neither.


def _tangent_numbers(k: int) -> list[int]:
    """[T_1, ..., T_k], the tangent numbers tan x = sum T_j x^(2j-1) / (2j-1)!,
    from one pass of the integer triangle of Brent & Harvey (2013): O(k^2)
    int operations."""
    t = [0, 1] + [0] * (k - 1)
    for j in range(2, k + 1):
        t[j] = (j - 1) * t[j - 1]
    for j in range(2, k + 1):
        for i in range(j, k + 1):
            t[i] = (i - j) * t[i - 1] + (i - j + 2) * t[i]
    return t[1:k + 1]


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n in the convention x/(e^x - 1) = sum B_k x^k / k!.

    So B_1 = -1/2, B_n = 0 for odd n >= 3, and B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))
    from the tangent number T_k (_tangent_numbers): O(n^2) int operations."""
    from fractions import Fraction
    if n < 0:
        raise ValueError("bernoulli index must be nonnegative")
    if n == 0:
        return Fraction(1)
    if n % 2:
        return Fraction(-1 if n == 1 else 0, 2)
    k = n // 2
    return Fraction((-1) ** (k - 1) * n * _tangent_numbers(k)[-1], 4 ** k * (4 ** k - 1))


def zeta_product(g: int) -> Fraction:
    """prod_{j=1}^{g} zeta(1-2j) (1 for g = 0).  As zeta(1-2j) = -B_{2j}/(2j)
    = (-1)^j T_j / (4^j (4^j - 1)), it is one Fraction of two integer
    products over one _tangent_numbers pass, each factor reduced first so
    that the last gcd is small."""
    from fractions import Fraction
    num = den = 1
    for j, t in enumerate(_tangent_numbers(g), start=1):
        q = 4 ** j * (4 ** j - 1)
        r = math.gcd(t, q)
        num, den = num * (t // r), den * (q // r)
    return Fraction(-num if g * (g + 1) // 2 % 2 else num, den)


def lcm_numerators(values: Mapping[object, int | Fraction]) -> tuple[list, int]:
    """([(key, numerator over L)], L) for a mapping of rationals, L the lcm
    of their denominators (1 for an empty mapping).  Reads only .numerator
    and .denominator, so an int or a Fraction will do and nothing is imported."""
    den = math.lcm(*(v.denominator for v in values.values()))
    return [(k, v.numerator * (den // v.denominator)) for k, v in values.items()], den


def _prime_factors(d: int) -> list[int]:
    """The distinct primes dividing d >= 1, ascending, by trial division."""
    primes = []
    p = 2
    while p * p <= d:
        if d % p == 0:
            primes.append(p)
            while d % p == 0:
                d //= p
        p += 1
    if d > 1:
        primes.append(d)
    return primes


@functools.lru_cache(maxsize=None)
def euler_phi(d: int) -> int:
    """Euler totient phi(d)."""
    if d < 1:
        raise ValueError("euler_phi expects a positive integer")
    for p in _prime_factors(d):
        d -= d // p
    return d


# ---------------------------------------------------------------------------
# dense integer polynomials and truncated series
# ---------------------------------------------------------------------------

def poly_trim(coeffs: list[int]) -> tuple[int, ...]:
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return tuple(coeffs[:end])


def poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return poly_trim(out)


def series_times(coeffs: list[int], e: int, k: int) -> None:
    """Multiply the truncated series `coeffs` (dense from the constant term)
    in place by (1 - x^e)^k, e >= 1: k passes c_i -= c_(i-e), or -k passes
    c_i += c_(i-e), each in slices (per residue class mod e when e^2 <= n,
    the length, else per run of e terms), never a step per coefficient."""
    n = len(coeffs)
    for _ in range(k):
        coeffs[e:] = map(sub, coeffs[e:], coeffs[:n - e])
    for _ in range(-k):
        if e * e <= n:
            for r in range(e):
                coeffs[r::e] = accumulate(coeffs[r::e])
        else:
            for i in range(e, n, e):
                coeffs[i:i + e] = map(add, coeffs[i:i + e], coeffs[i - e:i])


def mobius_divisors(d: int) -> list[tuple[int, int]]:
    """(e, mu(d/e)) for the divisors e of d >= 1 with d/e square-free, (d, 1)
    first: Phi_d = prod (1 - x^e)^mu(d/e) for d >= 2, and -Phi_1 = 1 - x."""
    out = [(d, 1)]
    for p in _prime_factors(d):
        out += [(e // p, -mu) for e, mu in out]
    return out


def cyclotomic(d: int) -> tuple[int, ...]:
    """Phi_d as dense integer coefficients from the constant term.  Phi_1 =
    x - 1; for d >= 2, the product of mobius_divisors as a power series cut
    at degree phi(d) = sum_{e | d} mu(d/e) e, one series_times per factor."""
    if d < 1:
        raise ValueError("cyclotomic index must be positive")
    if d == 1:
        return (-1, 1)
    factors = mobius_divisors(d)
    coeffs = [1] + [0] * sum(e * mu for e, mu in factors)
    for e, mu in factors:
        series_times(coeffs, e, mu)
    return tuple(coeffs)


def negate_cyclotomic_index(d: int) -> int:
    """Index d' such that the negatives of the primitive d-th roots of unity
    are exactly the primitive d'-th roots of unity.

    This realizes the m_{-c} = m_c symmetry on cyclotomic multisets.
    """
    if d < 1:
        raise ValueError("cyclotomic index must be positive")
    if d % 2 == 1:
        return 2 * d
    if d % 4 == 2:
        return d // 2
    return d


# ---------------------------------------------------------------------------
# sparse Laurent polynomials in one or two variables
# ---------------------------------------------------------------------------

class LaurentPoly:
    """Laurent polynomial, sparse over exponent tuples (possibly negative),
    with `int` coefficients: a character's coefficients are dimensions.  The
    constructor refuses any other coefficient type (`bool` included), and
    scalar arithmetic takes `int` only.  Zero coefficients are never stored.
    """

    __slots__ = ("nvars", "_coeffs")

    def __init__(self, nvars: int,
                 coeffs: dict[tuple[int, ...], int] | None = None):
        if nvars not in (1, 2):
            raise ValueError("LaurentPoly supports 1 or 2 variables")
        cleaned: dict[tuple[int, ...], int] = {}
        for exps, c in (coeffs or {}).items():
            if len(exps) != nvars:
                raise ValueError(f"exponent tuple {exps} has wrong arity")
            if any(type(e) is not int for e in exps):
                raise TypeError(f"exponent tuple {exps!r} has an entry that is not an int")
            if type(c) is not int:
                raise TypeError(
                    f"coefficient {c!r} is a {type(c).__name__}, not an int")
            if c != 0:
                cleaned[tuple(exps)] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_coeffs", cleaned)

    @classmethod
    def _trusted(cls, nvars: int, coeffs: dict) -> "LaurentPoly":
        """Result of arithmetic on validated polynomials: the keys are already
        integer tuples of the right arity and the coefficients `int`, so only
        the zero coefficients are dropped."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "nvars", nvars)
        object.__setattr__(poly, "_coeffs", {e: c for e, c in coeffs.items() if c})
        return poly

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    # -- constructors -------------------------------------------------------
    @classmethod
    def one(cls, nvars: int = 1) -> "LaurentPoly":
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def term(cls, nvars: int, exps: tuple[int, ...], coeff=1) -> "LaurentPoly":
        return cls(nvars, {tuple(exps): coeff})

    # -- inspection ---------------------------------------------------------
    def items(self):
        return sorted(self._coeffs.items())

    def terms(self):  # unsorted
        return self._coeffs.items()

    def coeff(self, *exps: int):
        return self._coeffs.get(tuple(exps), 0)

    def evaluate_all_ones(self):
        return sum(self._coeffs.values())

    def is_symmetric(self) -> bool:
        """True when coefficients are invariant under negating all exponents."""
        get = self._coeffs.get
        if self.nvars == 1:
            for (a,), c in self._coeffs.items():
                if get((-a,)) != c:
                    return False
        else:
            for (a, b), c in self._coeffs.items():
                if get((-a, -b)) != c:
                    return False
        return True

    # -- arithmetic ---------------------------------------------------------
    def _check(self, other: "LaurentPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch")

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.term(self.nvars, (0,) * self.nvars, other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        out = dict(self._coeffs)
        for exps, c in other._coeffs.items():
            out[exps] = out.get(exps, 0) + c
        return LaurentPoly._trusted(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._trusted(self.nvars, {e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, (int, LaurentPoly)):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly._trusted(
                self.nvars, {e: other * v for e, v in self._coeffs.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        out: dict[tuple[int, ...], int] = {}
        get = out.get
        terms = list(other._coeffs.items())
        if self.nvars == 1:
            for (a,), c1 in self._coeffs.items():
                for (b,), c2 in terms:
                    key = (a + b,)
                    out[key] = get(key, 0) + c1 * c2
        else:
            for (a, s), c1 in self._coeffs.items():
                for (b, t), c2 in terms:
                    key = (a + b, s + t)
                    out[key] = get(key, 0) + c1 * c2
        return LaurentPoly._trusted(self.nvars, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.term(self.nvars, (0,) * self.nvars, other)
        return isinstance(other, LaurentPoly) and self.nvars == other.nvars \
            and self._coeffs == other._coeffs

    def __hash__(self):
        return hash((self.nvars, frozenset(self._coeffs.items())))

    # -- structural maps ----------------------------------------------------
    def scale_exponents(self, num: int, den: int = 1) -> "LaurentPoly":
        """Multiply every exponent by num/den, requiring exact integrality."""
        out = {}
        for exps, c in self._coeffs.items():
            key = []
            for e in exps:
                v = e * num
                if v % den != 0:
                    raise ValueError(f"exponent {e} not divisible for scaling by {num}/{den}")
                key.append(v // den)
            out[tuple(key)] = c
        return LaurentPoly._trusted(self.nvars, out)

    def halve(self) -> "LaurentPoly":
        """Exact half of a polynomial whose coefficients are even; raises
        ValueError on an odd coefficient."""
        out = {}
        for exps, c in self._coeffs.items():
            if c % 2:
                raise ValueError(f"cannot halve coefficient {c} exactly")
            out[exps] = c // 2
        return LaurentPoly._trusted(self.nvars, out)

    def coeff_list(self, lo: int, hi: int) -> list:
        """Coefficients of T^lo .. T^hi for a one-variable polynomial."""
        if self.nvars != 1:
            raise ValueError("coeff_list applies to one-variable polynomials")
        return [self._coeffs.get((e,), 0) for e in range(lo, hi + 1)]

    def __repr__(self):
        if not self._coeffs:
            return "LaurentPoly(0)"
        names = ("T",) if self.nvars == 1 else ("S", "T")
        parts = []
        for exps, c in self.items():
            mono = "*".join(f"{n}^{e}" for n, e in zip(names, exps) if e != 0)
            parts.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "LaurentPoly(" + " + ".join(parts) + ")"


def double_factorial_odd(g: int) -> int:
    """prod_{j=1}^{g} (2j-1)!!"""
    return math.prod(math.prod(range(1, 2 * j, 2)) for j in range(1, g + 1))


def strict_partition_counts(k: int, max_part: int) -> list[int]:
    """Entry n <= k counts the partitions of n into distinct parts <= max_part:
    the T^n coefficient of prod_{i<=max_part} (1 + T^i), a slice sum per part."""
    counts = [1] + [0] * k
    for part in range(1, min(max_part, k) + 1):
        counts[part:] = map(add, counts[part:], counts[:k + 1 - part])
    return counts


# ---------------------------------------------------------------------------
# fraction-free elimination
# ---------------------------------------------------------------------------

def bareiss(rows: list[list[int]]) -> tuple[int, int]:
    """(rank, determinant) of an integer matrix (overwritten) by fraction-free
    Bareiss elimination with row pivoting; a column without a pivot is
    skipped.  Every division is exact, because each entry is a minor of the
    input.  The determinant is 0 unless the matrix is square of full rank,
    and the empty matrix has rank 0 and determinant 1."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    sign, prev, rank = 1, 1, 0
    for col in range(ncols):
        if rows[rank][col] == 0:
            swap = next((i for i in range(rank + 1, nrows) if rows[i][col]), None)
            if swap is None:
                continue
            rows[rank], rows[swap] = rows[swap], rows[rank]
            sign = -sign
        pivot, prow = rows[rank][col], rows[rank]
        for i in range(rank + 1, nrows):
            ri = rows[i]
            lead = ri[col]
            for j in range(col + 1, ncols):
                ri[j] = (ri[j] * pivot - lead * prow[j]) // prev
        prev = pivot
        rank += 1
        if rank == nrows:
            break
    return rank, (sign * prev if rank == nrows == ncols else 0)

