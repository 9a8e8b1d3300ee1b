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

Normal forms run on packed keys: digit i of an exponent vector's key, of
w = N.bit_length() bits for the top index sum N = g(g+1)/2, is e_{i+1}.  R_g
is zero above N, so nothing above it is packed; at or below it each entry is
at most N < 2^w, and rewrites keep the index sum, so no digit overflows.  Each
of the min(k, g-k) children of u_k^2 adds a precomputed key.  Any rewrite
order terminates (sum_i e_i * i^2 rises while sum_i e_i * i stays fixed) and
gives the same form (the square-free monomials are a basis); below the top
the squared index with the fewest children goes first, ties to the larger k,
and in the top degree the largest.  The top degree, spanned by the socle and
closed under rewrites, has its own memo of int socle coefficients; below it
the memo keeps {bitmask: nonzero int coeff}, a dict of ints the cyclic GC does
not track, which callers only read.  A miss descends on an explicit stack, so no
rewrite chain is too deep; when a memo's entries plus the keys waiting on its
stack would pass _MEMO_BOUND, InputError ("work bound").

The structure constants are integers; only RingElement carries Fraction
coefficients.  A product scales each operand to integer numerators over the
lcm of its denominators (exact.lcm_numerators, the kernel MassTable shares),
accumulates ints, and divides once per output coefficient.  matrix_rank
certifies a full rank mod 2 (every pairing matrix for g <= 11 has one) before Bareiss.

R_g/(u_g) = R_{g-1} is checked on generators: the projection that drops
every basis monomial containing u_g is a ring map onto R_{g-1} once it
respects each product u_i * u_S, and then its kernel is the ideal (u_g).
"""
from __future__ import annotations

import functools
from fractions import Fraction
from typing import Mapping

from .errors import InputError
from .exact import LaurentPoly, bareiss, lcm_numerators, strict_partition_counts

ExponentVector = tuple[int, ...]

# Per memo and genus: lambda_1^N keeps about 351k at g = 14, 1.1M at g = 15.
_MEMO_BOUND = 600_000


class GenusMismatchError(ValueError):
    pass


class _Ring(dict):
    """R_g's packed-key tables and memos; as a dict, bitmask -> (key, index
    sum) of a basis monomial, filled on first use (no 2^g table at large g)."""

    def __init__(self, g: int):
        super().__init__()
        self.g, self.top, self.full = g, g * (g + 1) // 2, (1 << g) - 1
        self.width = w = self.top.bit_length()
        self.unit = (0,) + tuple(1 << w * i for i in range(g))  # keys of u_0 = 1, ..., u_g
        self.high = ((1 << w) - 2) * sum(self.unit)  # a digit >= 2 leaves a bit here
        # children[k]: (key of u_j u_{2k-j}, 2 (-1)^(j+k+1)) for each j with 2k - j <= g
        self.children = tuple(tuple((self.unit[j] + self.unit[2 * k - j], 2 if (j + k) % 2 else -2)
                                    for j in range(max(0, 2 * k - g), k)) for k in range(g + 1))
        # key -> normal form below the top, int at it, where the socle's own key has 1
        self.forms, self.socle = {}, {sum(self.unit): 1}

    def __missing__(self, mask: int) -> tuple[int, int]:
        subset = mask_to_subset(mask)
        self[mask] = found = sum(self.unit[i] for i in subset), sum(subset)
        return found

    @functools.cached_property
    def by_index_sum(self) -> list[list[int]]:  # entry s: the bitmasks of degree 2s, ascending
        buckets: list[list[int]] = [[] for _ in range(self.top + 1)]
        for mask in range(1 << self.g):
            buckets[self[mask][1]].append(mask)
        return buckets

    def pack(self, exps: ExponentVector) -> int:
        return sum(e << self.width * i for i, e in enumerate(exps))

    def _check_room(self, memo: dict, waiting: int) -> None:
        """Refuse a key past _MEMO_BOUND, counting the memo and `waiting` stack keys."""
        if len(memo) + waiting >= _MEMO_BOUND:
            raise InputError(f"work bound: the normal forms of R_{self.g} would keep "
                             f"more than {_MEMO_BOUND} monomials")

    def _mask(self, key: int) -> int:  # of a square-free key, by scanning its set bits
        mask = 0
        while key:
            mask, key = mask | 1 << ((key & -key).bit_length() - 1) // self.width, key & key - 1
        return mask

    def socle_value(self, key: int) -> int:
        """The socle coefficient of a top-degree key."""
        memo, high = self.socle, self.high
        value = memo.get(key)
        if value is not None:
            return value
        stack: list = []  # (key, base, children left, partial sum, coeff of the child)
        while True:  # enter `key`: rewrite its largest squared index
            self._check_room(memo, len(stack))
            k = ((key & high).bit_length() - 1) // self.width + 1
            base, kids, value = key - 2 * self.unit[k], iter(self.children[k]), 0
            while True:  # the children left, resumed after each descent
                for step, coeff in kids:
                    child = base + step
                    c = memo.get(child)
                    if c is None:
                        break  # not kept yet: descend into it
                    value += coeff * c
                else:  # all children kept: keep the value, resume the parent
                    memo[key] = value
                    if not stack:
                        return value
                    key, base, kids, partial, coeff = stack.pop()
                    value = partial + coeff * value
                    continue
                break
            stack.append((key, base, kids, value, coeff))
            key = child

    def form(self, key: int) -> dict[int, int]:
        """The normal form {bitmask: nonzero int} of a key below the top degree; read only."""
        memo = self.forms
        value = memo.get(key)
        if value is not None:
            return value
        high, w = self.high, self.width
        if not key & high:
            return {self._mask(key): 1}
        stack: list = []  # (key, base, children left, partial sums, coeff of the child)
        while True:  # enter `key`: rewrite the squared index with the fewest children
            self._check_room(memo, len(stack))
            squared = key & high
            k, low = ((part.bit_length() - 1) // w + 1 for part in (squared, squared & -squared))
            k = low if len(self.children[low]) < len(self.children[k]) else k
            base, kids, acc = key - 2 * self.unit[k], iter(self.children[k]), {}
            while True:  # the children left, resumed after each descent
                for step, coeff in kids:
                    child = base + step
                    if not child & high:  # square-free: its own basis monomial
                        mask = self._mask(child)
                        acc[mask] = acc.get(mask, 0) + coeff
                    elif (terms := memo.get(child)) is None:
                        break  # not kept yet: descend into it
                    else:
                        for mask, c in terms.items():
                            acc[mask] = acc.get(mask, 0) + coeff * c
                else:  # all children kept or square-free: keep the form, resume the parent
                    memo[key] = value = {m: c for m, c in acc.items() if c}
                    if not stack:
                        return value
                    key, base, kids, acc, coeff = stack.pop()
                    for mask, c in value.items():
                        acc[mask] = acc.get(mask, 0) + coeff * c
                    continue
                break
            stack.append((key, base, kids, acc, coeff))
            key = child


_ring = functools.lru_cache(maxsize=None)(_Ring)


def _packed_form(ring: _Ring, key: int, degree: int) -> dict[int, int]:
    """The normal form {bitmask: nonzero int} of a packed key of index sum `degree`
    <= ring.top: ring.form's (read only) below the top, {ring.full: value} or {} at it."""
    if degree < ring.top:
        return ring.form(key)
    value = ring.socle_value(key)
    return {ring.full: value} if value else {}


def _normal_form_monomial(g: int, exps: ExponentVector) -> tuple[tuple[int, int], ...]:
    """Normal form of u_1^{e_1} ... u_g^{e_g} as a new sorted ((bitmask, int coeff), ...):
    () above the top degree, else the items of the packed key's normal form."""
    degree = sum(i * e for i, e in enumerate(exps, start=1))
    ring = _ring(g)
    form = {} if degree > ring.top else _packed_form(ring, ring.pack(exps), degree)
    return tuple(sorted(form.items()))


def _check_exps(g: int, exps) -> ExponentVector:
    """exps as a tuple of g nonnegative ints, in one pass: TypeError for an
    entry that is not an int (a bool included), else InputError."""
    exps = tuple(exps)
    if len(exps) != g or any(type(e) is not int or e < 0 for e in exps):
        if any(type(e) is not int for e in exps):
            raise TypeError(f"exponents must be integers, got {exps!r}")
        raise InputError(f"need {g} nonnegative exponents, got {exps}")
    return exps


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
            if type(c) is not int and not isinstance(c, Fraction):
                raise TypeError(f"coefficients must be int or Fraction, got {c!r}")
            c = Fraction(c)
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

    __setattr__, __delattr__ = LaurentPoly.__setattr__, LaurentPoly.__delattr__  # immutable

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
        g, ring = self.g, _ring(self.g)
        top, full = ring.top, ring.full
        left, d1 = lcm_numerators(self._coeffs)
        right, d2 = lcm_numerators(other._coeffs)
        right = [(m2, c2, *ring[m2]) for m2, c2 in right]
        acc: dict[int, int] = {}
        for m1, c1 in left:
            k1, s1 = ring[m1]
            for m2, c2, k2, s2 in right:  # split by index sum; above the top is zero
                c = c1 * c2
                if m1 & m2 == 0:
                    mask = m1 | m2
                    acc[mask] = acc.get(mask, 0) + c
                elif s1 + s2 == top:
                    acc[full] = acc.get(full, 0) + c * ring.socle_value(k1 + k2)
                elif s1 + s2 < top:
                    for mask, cc in ring.form(k1 + k2).items():
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


def compact_dual_degree(g: int, exponents) -> int:
    """Degree of u_1^{n_1} ... u_g^{n_g} on the compact dual, normalized so
    that the socle u_1 ... u_g has degree 1: the socle memo's entry for a
    top-degree vector (else InputError), a nonnegative integer."""
    exponents = _check_exps(g, exponents)
    total = sum(i * n for i, n in enumerate(exponents, start=1))
    if total != g * (g + 1) // 2:
        raise InputError(
            f"not a top-degree monomial: sum i*n_i = {total} != {g * (g + 1) // 2}")
    ring = _ring(g)
    value = ring.socle_value(ring.pack(exponents))
    if value < 0:
        raise AssertionError(f"compact dual degree came out negative: {value}")
    return value


def poincare_polynomial(g: int) -> LaurentPoly:
    """sum_k dim R_g^{2k} T^{2k} = prod_{k=1}^{g} (1 + T^{2k}).

    dim R_g^{2k} is the number of partitions of k into distinct parts <= g,
    and the total dimension at T = 1 is 2^g.
    """
    if g < 1:
        raise ValueError("genus must be positive")
    counts = strict_partition_counts(g * (g + 1) // 2, g)
    return LaurentPoly(1, {(2 * k,): c for k, c in enumerate(counts)})


def graded_dimension(g: int, degree: int) -> int:
    """dim of the degree `degree` piece of R_g (degree of u_i is 2i)."""
    if degree % 2 == 1 or degree < 0 or degree > g * (g + 1):
        return 0
    return strict_partition_counts(degree // 2, g)[-1]


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
    h, top_bit = g - 1, 1 << (g - 1)
    ring, low = _ring(g), _ring(h)
    for mask in range(1 << g):
        key, index_sum = ring[mask]
        for i in range(1, g + 1):
            if not mask >> (i - 1) & 1:
                continue
            degree = index_sum + i  # of u_i * u_S; nothing above a top is packed
            projected = {} if degree > ring.top else {
                m: c for m, c in _packed_form(ring, key + ring.unit[i], degree).items()
                if not m & top_bit}
            expected = {} if mask & top_bit or degree > low.top else \
                _packed_form(low, low[mask][0] + low.unit[i], degree)
            if projected != expected:
                raise AssertionError(
                    f"R_{g}/(u_{g}) differs from R_{h} on u_{i} * {mask:b}")
    return {m: m for m in range(1 << h)}


def pairing_matrix(g: int, degree: int) -> list[list[int]]:
    """Matrix of the socle pairing between the basis of R_g^{degree} and the
    basis of the complementary degree g(g+1) - degree."""
    if degree % 2 or not 0 <= degree <= g * (g + 1):
        return []
    ring = _ring(g)
    left, right = ring.by_index_sum[degree // 2], ring.by_index_sum[ring.top - degree // 2]
    # complementary degrees: a product without a repeated index is the socle
    return [[1 if not ml & mr else ring.socle_value(ring[ml][0] + ring[mr][0])
             for mr in right] for ml in left]


def matrix_rank(rows: list[list[int]]) -> int:
    """Exact rank of an integer matrix, such as a pairing matrix; an entry that
    is not an int is a TypeError.  rank over GF(2) <= rank over Q <= min(rows,
    columns), so when the rows' odd entries, as int bit sets eliminated by XOR
    on their leading bits, reach min(rows, columns), that is the rank; only
    otherwise does exact.bareiss run, on a copy."""
    if any(type(c) is not int for row in rows for c in row):
        raise TypeError("matrix entries must be int")
    full, pivots = min(len(rows), len(rows[0])) if rows else 0, {}  # leading bit -> row
    for row in rows:
        bits = sum(1 << j for j, c in enumerate(row) if c & 1)
        while bits and (lead := bits.bit_length()) in pivots:
            bits ^= pivots[lead]
        if bits:
            pivots[lead] = bits
    return full if len(pivots) == full else bareiss([list(row) for row in rows])[0]
