"""Exact arithmetic substrate: rationals, Bernoulli numbers, zeta special
values, cyclotomic polynomials, sparse Laurent polynomials, and fraction-free
elimination.

Values keep their exact type: `int` where integral, Laurent coefficients
included, and `fractions.Fraction` (always reduced, positive denominator)
for the Bernoulli and zeta values.  Everything in this module is immutable
after construction and all operations are pure, so values can be shared
freely between threads.
"""
from __future__ import annotations

import functools
import math
import threading
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction

# `fractions` (and the `decimal` it loads) is imported inside bernoulli, the
# one function here that builds a Fraction, so the engines that never touch a
# rational load neither.  The first bernoulli call seeds the cache with B_0.
_bernoulli_cache: dict[int, Fraction] = {}
_bernoulli_lock = threading.Lock()


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n in the convention x/(e^x - 1) = sum B_k x^k / k!.

    So B_1 = -1/2 and B_n = 0 for odd n >= 3.  Computed by the recurrence
    sum_{k=0}^{n} C(n+1, k) B_k = 0 and memoized per process.
    """
    from fractions import Fraction
    if n < 0:
        raise ValueError("bernoulli index must be nonnegative")
    with _bernoulli_lock:
        if not _bernoulli_cache:
            _bernoulli_cache[0] = Fraction(1)
        if n in _bernoulli_cache:
            return _bernoulli_cache[n]
        top = max(_bernoulli_cache) + 1
        for m in range(top, n + 1):
            acc = Fraction(0)
            for k in range(m):
                acc += math.comb(m + 1, k) * _bernoulli_cache[k]
            _bernoulli_cache[m] = -acc / (m + 1)
        return _bernoulli_cache[n]


def zeta_negative(j: int) -> Fraction:
    """zeta(1 - 2j) = -B_{2j} / (2j) for j >= 1.

    These are the zeta special values entering the Hirzebruch-Mumford
    proportionality constant and the default central masses.
    """
    if j < 1:
        raise ValueError("zeta_negative expects j >= 1 (returns zeta(1-2j))")
    return -bernoulli(2 * j) / (2 * j)


@functools.lru_cache(maxsize=None)
def euler_phi(d: int) -> int:
    """Euler totient phi(d)."""
    if d < 1:
        raise ValueError("euler_phi expects a positive integer")
    result = d
    n = d
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


# ---------------------------------------------------------------------------
# dense integer polynomials, just enough for cyclotomic arithmetic
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


def poly_divmod(num: tuple[int, ...], den: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Exact division of integer polynomials; the divisor must be monic."""
    if not den or den[-1] != 1:
        raise ValueError("divisor must be a monic integer polynomial")
    rem = list(num)
    deg_d = len(den) - 1
    quo = [0] * max(len(num) - deg_d, 0)
    for i in range(len(rem) - 1, deg_d - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        quo[i - deg_d] = c
        for j, cd in enumerate(den):
            rem[i - deg_d + j] -= c * cd
    return poly_trim(quo), poly_trim(rem)


@functools.lru_cache(maxsize=None)
def cyclotomic(d: int) -> tuple[int, ...]:
    """Phi_d as dense integer coefficients from the constant term, by exact
    division of x^d - 1 by the Phi_e with e | d, e < d."""
    if d < 1:
        raise ValueError("cyclotomic index must be positive")
    poly = poly_trim([-1] + [0] * (d - 1) + [1])
    for e in range(1, d):
        if d % e == 0:
            poly, rem = poly_divmod(poly, cyclotomic(e))
            if rem:
                raise AssertionError(f"x^{d} - 1 not divisible by Phi_{e}")
    if len(poly) - 1 != euler_phi(d) or poly[-1] != 1:
        raise AssertionError(f"Phi_{d} failed the degree/monic sanity check")
    return poly


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

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, nvars: int = 1) -> "LaurentPoly":
        return cls(nvars, {})

    @classmethod
    def one(cls, nvars: int = 1) -> "LaurentPoly":
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def term(cls, nvars: int, exps: tuple[int, ...], coeff=1) -> "LaurentPoly":
        return cls(nvars, {tuple(exps): coeff})

    @classmethod
    def t_power(cls, e: int, coeff=1) -> "LaurentPoly":
        """Single-variable monomial coeff * T^e."""
        return cls(1, {(e,): coeff})

    # -- inspection ---------------------------------------------------------
    def items(self):
        return sorted(self._coeffs.items())

    def terms(self):  # unsorted
        return self._coeffs.items()

    def coeff(self, *exps: int):
        return self._coeffs.get(tuple(exps), 0)

    def is_zero(self) -> bool:
        return not self._coeffs

    def support(self) -> list[tuple[int, ...]]:
        return sorted(self._coeffs)

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

    def __rsub__(self, other):
        return (-self) + other

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

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not supported")
        result = LaurentPoly.one(self.nvars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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


def strict_partition_count(k: int, max_part: int) -> int:
    """Number of partitions of k into distinct parts <= max_part."""
    counts = [1] + [0] * k
    for part in range(1, max_part + 1):
        for n in range(k, part - 1, -1):
            counts[n] += counts[n - part]
    return counts[k]


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
