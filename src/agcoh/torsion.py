"""Torsion conjugacy classes of the integral symplectic group, their
characters on the irreducible representations V_lambda, ingestion of mass
tables, and the elliptic term of the trace formula.

A torsion class of rank g is encoded by the multiset of cyclotomic
polynomials whose product (of total degree 2g) is its characteristic
polynomial; the indices 1 and 2 must occur with even multiplicity.  The
canonical text encoding is `d1^m1,d2^m2,...` with indices ascending and no
spaces.  Negation acts indexwise through negate_cyclotomic_index and masses
satisfy m_{-c} = m_c, so mass files carry one record per negation orbit
(the lexicographically smallest encoding), each mass written p or p/q; the
central classes 1^{2g} and 2^{2g} default to exact.zeta_product(g).

Torsion elements are singular (the Weyl denominator vanishes there), so
characters come from the symplectic Jacobi-Trudi identity of Koike-Terada
(Fulton-Harris, Representation Theory, (24.18)).  With l = l(lambda) the
number of nonzero parts,

    tr(c | V_lambda) = det M,   1 <= i, j <= l,
    M_{i,1} = h_{lambda_i - i + 1},
    M_{i,j} = h_{lambda_i - i + j} + h_{lambda_i - i - j + 2}   (j >= 2),

with h_k = 0 for k < 0 and the empty determinant (lambda = 0) equal to 1.
The h_k are the complete symmetric functions of the eigenvalues of c: the
integer coefficients of 1/P_c(z), where P_c = prod Phi_d^{m_d} is the
class's characteristic polynomial (self-reciprocal, constant term 1).  Each
class keeps the longest series asked for so far behind deg P_c = 2g leading
zeros, the h_k of negative k (TorsionClass.padded_h_series), so the
characters of one class over a range of lambda share one series.  The plan
of a weight, _jacobi_trudi_rows, is the index of every entry of M in that
padded layout; it depends on lambda alone and refuses a series longer than
H_SERIES_BOUND with a "work bound" InputError.  The kernel _character_sum
sums weighted characters over many classes for one plan, reading each
class's series once into closed forms up to 4x4 on index locals (ad - bc,
the cofactor expansion, the Laplace expansion over the 2x2 minors of the
first two rows) and, from 5x5 up, fraction-free Bareiss elimination with
row pivoting (zero pivots occur at torsion points), all in integers.  The tests check the determinant
against an independent oracle: the Freudenthal weight system of V_lambda,
evaluated as a weight sum in Z[x]/Phi_N.

The elliptic term

    T_ell(g, lambda) = sum_c m_c tr(c | V_lambda)

over the full class set equals the compactly supported Euler characteristic
e(A_g, V_lambda); the masses themselves are external data computed from
orbital integrals and are only ever ingested here, never computed.

Because -1 acts on V_lambda by (-1)^{|lambda|},

    tr(-c | V_lambda) = (-1)^{|lambda|} tr(c | V_lambda),

so elliptic_term evaluates one character per negation orbit, weighted by
m_c + (-1)^{|lambda|} m_{-c}.  The identity holds for any table, symmetric
or not; a class with c = -c has trace zero at odd |lambda|, so on a
symmetric table no odd-weight character is evaluated at all.  A MassTable
is plain data: when it is made it copies the masses it is given, refuses
any class of the wrong degree, and in one walk over the classes stores the
nonzero orbit weights of both parities as integer numerators over one
denominator, the lcm of all its masses' denominators (exact.lcm_numerators),
so elliptic_term adds ints and no Fraction and sets nothing on the table.
Each class stores its negation (and a new -c stores c as its own, so the
partners a parsed table holds, zero-filled and central ones included, are
linked both ways and the orbit walk builds no class) and its padded
h-series, whose growth alone forms P_c from cached cyclotomic powers.  So
a sweep builds each series once, and a call builds one plan for one
_character_sum.

parse_mass_table checks completeness without listing the class set: a
class that passes TorsionClass validation and the rank check is one of the
count_torsion_classes(g) classes of enumerate_torsion_classes, so a table
whose keys reach that count is complete, and the set is enumerated only to
name or zero-fill what is missing.  Past _LISTED_RANK, the last rank with
at most _CLASS_BOUND classes (counts never decrease in g), nothing is
listed: enumeration fails on a work bound before it counts, and a strict
parse names no class.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import reduce
from operator import mul
from typing import Iterable

from .errors import InputError, MassTableError
from .exact import (bareiss, cyclotomic_power, euler_phi, lcm_numerators,
                    negate_cyclotomic_index, poly_mul, zeta_product)
from .records import Record


# ASCII digits only: \d and int() take any Unicode digit, and int() takes "_"
_ENC_RE = re.compile(r"[0-9]+\^[0-9]+(,[0-9]+\^[0-9]+)*")
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
_GENUS_RE = re.compile(r"[0-9]+")
#: the most classes enumerate_torsion_classes lists (g = 13 has 141,877, g = 14 259,373)
_CLASS_BOUND = 200_000
#: the last rank with at most _CLASS_BOUND classes; class counts never decrease in g
_LISTED_RANK = 13
# Guard for the characters at torsion: the longest h-series (lambda_1 +
# l(lambda) terms) computed per class.  Far above every weight of interest,
# while a series this long still costs at most tens of milliseconds per class.
H_SERIES_BOUND = 10_000


class TorsionClass(Record):
    """Multiset of (cyclotomic index, multiplicity) pairs, indices ascending.
    Equality, hashing and order are those of `pairs` alone."""

    pairs: tuple[tuple[int, int], ...]
    # caches, not fields; object.__setattr__ stores them without building __dict__
    _negation = None
    _hseries = ()

    def __init__(self, pairs: tuple[tuple[int, int], ...]):
        pairs = tuple(map(tuple, pairs))
        super().__init__(pairs)
        seen = set()
        odd = 0     # the first of the indices 1, 2 with odd multiplicity
        for d, m in pairs:
            if type(d) is not int or type(m) is not int:
                raise TypeError(f"class entries must be integers, got {pairs!r}")
            if d < 1 or m < 1:
                raise ValueError(f"invalid pair ({d}, {m})")
            if d in seen:
                raise ValueError(f"repeated index {d}; merge multiplicities")
            seen.add(d)
            if d <= 2 and m % 2 and not odd:
                odd = d
        if list(pairs) != sorted(pairs):
            raise ValueError("indices must be ascending")
        if odd:
            raise ValueError(f"index {odd} must have even multiplicity")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.pairs == other.pairs
        return NotImplemented

    def __hash__(self):
        return hash((self.pairs,))

    @property
    def degree(self) -> int:
        return sum(m * euler_phi(d) for d, m in self.pairs)

    def encode(self) -> str:
        return ",".join(f"{d}^{m}" for d, m in self.pairs)

    @classmethod
    def parse(cls, text: str) -> "TorsionClass":
        if not _ENC_RE.fullmatch(text):
            raise MassTableError(f"invalid class encoding {text!r}")
        try:   # int() refuses a number past the digit limit with a ValueError
            pairs = [tuple(map(int, chunk.split("^"))) for chunk in text.split(",")]
            return cls(tuple(sorted(pairs)))
        except ValueError as exc:
            raise MassTableError(f"invalid class {text!r}: {exc}") from exc

    def negate(self) -> "TorsionClass":
        """-c, computed once per instance and stored beside the fields like
        _hseries; a negation-fixed class returns itself.  A new -c stores
        this instance as its own negation, so -(-c) is c and builds nothing."""
        neg = self._negation
        if neg is None:
            pairs = tuple(sorted((negate_cyclotomic_index(d), m) for d, m in self.pairs))
            if pairs == self.pairs:
                neg = self
            else:
                neg = TorsionClass(pairs)
                object.__setattr__(neg, "_negation", self)
            object.__setattr__(self, "_negation", neg)
        return neg

    def orbit_representative(self) -> "TorsionClass":
        """Lexicographically smallest encoding among {c, -c}."""
        other = self.negate()
        return self if self.encode() <= other.encode() else other

    def characteristic_polynomial(self) -> tuple[int, ...]:
        """P_c = prod_d Phi_d^{m_d}, dense integer coefficients from the
        constant term.  It is self-reciprocal with constant term 1, so it is
        also det(1 - z c).  Each call forms one product per pair after the
        first, from the cached powers exact.cyclotomic_power; padded_h_series
        asks for it only when it extends a series."""
        powers = [cyclotomic_power(d, m) for d, m in self.pairs]
        return reduce(poly_mul, powers) if powers else (1,)

    def padded_h_series(self, size: int) -> tuple[int, ...]:
        """The stored series: deg P_c zeros, then h_0, h_1, ... (so entry i
        is h_{i - deg P_c}, zero for a negative index), at least `size`
        entries long.  The longest series asked for so far is kept on the
        instance; a longer request extends a copy by the recurrence
        h_k = -sum_{j=1..deg} P_j h_{k-j} and replaces the stored tuple
        whole, so a concurrent reader never sees a partial series.  The
        caller bounds size: _jacobi_trudi_rows checks H_SERIES_BOUND first."""
        series = self._hseries
        if len(series) < size:
            poly = self.characteristic_polynomial()
            deg = len(poly) - 1
            h = list(series) or [0] * deg + [1]
            tail = poly[:0:-1]      # P_deg, ..., P_1, against h_{k-deg}, ..., h_{k-1}
            for k in range(len(h), size):
                h.append(-sum(map(mul, tail, h[k - deg:k])))
            series = tuple(h)
            object.__setattr__(self, "_hseries", series)
        return series

    def __str__(self) -> str:
        return self.encode()


# -- characters at torsion elements ------------------------------------------

def character_at_torsion(hw, cls: TorsionClass) -> int:
    """Exact trace of a torsion class on V_lambda, hw a
    symplectic.HighestWeight: _character_sum of the one class.  Every call
    checks the class against the rank before it builds anything
    (ValueError), its largest index (_check_index) before its degree, a sum
    of totients, and then raises InputError past H_SERIES_BOUND."""
    _check_index(cls, hw.g, ValueError)
    if cls.degree != 2 * hw.g:
        raise ValueError(
            f"class degree {cls.degree} does not match group rank {2 * hw.g}")
    return _character_sum(_jacobi_trudi_rows(hw), ((cls, 1),))


def _character_sum(plan: tuple[int, tuple], weighted) -> int:
    """sum n tr(c | V_lambda) over (class, int) pairs, for the plan
    _jacobi_trudi_rows(hw) of lambda, the classes taken to have degree 2g
    unchecked.  Column 1 reads h[a] alone, since h[0] = 0."""
    size, rows = plan
    if not rows:
        return sum(n for _, n in weighted)
    if len(rows) == 1:      # the entry h_{lambda_1}, the trace on Sym^{lambda_1}
        a0 = rows[0][0][0]
        return sum(n * cls.padded_h_series(size)[a0] for cls, n in weighted)
    total = 0
    if len(rows) == 2:
        ((a0, _), (a1, A1)), ((b0, _), (b1, B1)) = rows
        for cls, n in weighted:
            h = cls.padded_h_series(size)
            total += n * (h[a0] * (h[b1] + h[B1]) - (h[a1] + h[A1]) * h[b0])
    elif len(rows) == 3:
        (a0, _), (a1, A1), (a2, A2) = rows[0]
        (b0, _), (b1, B1), (b2, B2) = rows[1]
        (c0, _), (c1, C1), (c2, C2) = rows[2]
        for cls, n in weighted:
            h = cls.padded_h_series(size)
            p0, p1, p2 = h[a0], h[a1] + h[A1], h[a2] + h[A2]
            q0, q1, q2 = h[b0], h[b1] + h[B1], h[b2] + h[B2]
            s0, s1, s2 = h[c0], h[c1] + h[C1], h[c2] + h[C2]
            total += n * (p0 * (q1 * s2 - q2 * s1) - p1 * (q0 * s2 - q2 * s0)
                          + p2 * (q0 * s1 - q1 * s0))
    elif len(rows) == 4:
        (a0, _), (a1, A1), (a2, A2), (a3, A3) = rows[0]
        (b0, _), (b1, B1), (b2, B2), (b3, B3) = rows[1]
        (c0, _), (c1, C1), (c2, C2), (c3, C3) = rows[2]
        (d0, _), (d1, D1), (d2, D2), (d3, D3) = rows[3]
        for cls, n in weighted:
            h = cls.padded_h_series(size)
            p0, p1, p2, p3 = h[a0], h[a1] + h[A1], h[a2] + h[A2], h[a3] + h[A3]
            q0, q1, q2, q3 = h[b0], h[b1] + h[B1], h[b2] + h[B2], h[b3] + h[B3]
            s0, s1, s2, s3 = h[c0], h[c1] + h[C1], h[c2] + h[C2], h[c3] + h[C3]
            t0, t1, t2, t3 = h[d0], h[d1] + h[D1], h[d2] + h[D2], h[d3] + h[D3]
            total += n * ((p0 * q1 - p1 * q0) * (s2 * t3 - s3 * t2)
                          - (p0 * q2 - p2 * q0) * (s1 * t3 - s3 * t1)
                          + (p0 * q3 - p3 * q0) * (s1 * t2 - s2 * t1)
                          + (p1 * q2 - p2 * q1) * (s0 * t3 - s3 * t0)
                          - (p1 * q3 - p3 * q1) * (s0 * t2 - s2 * t0)
                          + (p2 * q3 - p3 * q2) * (s0 * t1 - s1 * t0))
    else:
        for cls, n in weighted:
            h = cls.padded_h_series(size)
            total += n * bareiss([[h[a] + h[b] for a, b in row] for row in rows])[1]
    return total


def _jacobi_trudi_rows(hw) -> tuple[int, tuple]:
    """(size, rows) for the determinants of _character_sum, as indices
    into TorsionClass.padded_h_series, where h_k sits at 2g + k, so its 2g
    leading zeros are the h_k of k < 0 (an entry reads k >= 3 - 2 l(lambda)).
    size = 2g + lambda_1 + l(lambda) covers every index.  Row i holds one
    index pair per entry, M_{i,j} = h[a] + h[b]; for j = 1, b = 0, a
    leading zero.  lambda = 0 gives no rows.  Raises a "work bound"
    InputError past H_SERIES_BOUND, before building anything."""
    lam = [part for part in hw.lam if part]
    if not lam:
        return 0, ()
    length = lam[0] + len(lam)
    if length > H_SERIES_BOUND:
        raise InputError(f"work bound: lambda_1 + l(lambda) = {length} exceeds "
                         f"the h-series bound {H_SERIES_BOUND}")
    pad = 2 * hw.g
    rows = []
    for i, part in enumerate(lam, start=1):
        a = pad + part - i
        rows.append(((a + 1, 0),) + tuple((a + j, a - j + 2) for j in range(2, len(lam) + 1)))
    return pad + length, tuple(rows)


def _index_bound(g: int) -> int:
    """No larger cyclotomic index fits in rank g: phi(d) >= sqrt(d/2) > 2g."""
    return 2 * (2 * g) ** 2


def _cyclotomic_indices(g: int) -> list[int]:
    """The indices d <= _index_bound(g) with phi(d) <= 2g, ascending."""
    if g < 1:
        raise ValueError("rank must be positive")
    return [d for d in range(1, _index_bound(g) + 1) if euler_phi(d) <= 2 * g]


def count_torsion_classes(g: int) -> int:
    """len(enumerate_torsion_classes(g)) without listing a class: the x^{2g}
    coefficient of (1 - x^2)^{-2} prod_{d >= 3} (1 - x^{phi(d)})^{-1} over
    the same indices, the indices 1 and 2 taken in pairs."""
    budget = 2 * g
    coeffs = [1] + [0] * budget
    for d in _cyclotomic_indices(g):
        step = 2 if d <= 2 else euler_phi(d)
        for k in range(step, budget + 1):
            coeffs[k] += coeffs[k - step]
    return coeffs[budget]


def enumerate_torsion_classes(g: int, mod_negation: bool = False) -> list[TorsionClass]:
    """All torsion classes of rank g: multisets of cyclotomic indices with
    total degree 2g and even multiplicity of the indices 1 and 2.  With
    mod_negation, one representative per negation orbit (the representative
    with the lexicographically smallest encoding).  InputError past
    _LISTED_RANK, before anything is counted or listed."""
    if g > _LISTED_RANK:
        raise InputError(f"work bound: rank {g} has more than {_CLASS_BOUND} "
                         "torsion classes, too many to list")
    budget = 2 * g
    indices = _cyclotomic_indices(g)
    out: list[TorsionClass] = []

    def extend(pos: int, remaining: int, acc: list[tuple[int, int]]) -> None:
        if remaining == 0:
            out.append(TorsionClass(tuple(acc)))
            return
        if pos == len(indices):
            return
        d = indices[pos]
        phi = euler_phi(d)
        step = 2 if d in (1, 2) else 1
        extend(pos + 1, remaining, acc)
        m = step
        while m * phi <= remaining:
            extend(pos + 1, remaining - m * phi, acc + [(d, m)])
            m += step

    extend(0, budget, [])
    if mod_negation:
        out = [c for c in out if c.orbit_representative() == c]
    return sorted(out, key=lambda c: c.encode())


class MassTable(Record):
    """Masses m_c for the full torsion class set of one rank, copied when the
    table is made, and the weighted orbits elliptic_term reads.  Every mass
    is an int or a Fraction (TypeError, a bool included) and every class has
    degree 2 * genus (_check_rank, MassTableError), checked once per negation
    orbit, as c and -c have the same degree."""

    genus: int
    masses: dict[TorsionClass, Fraction]
    provenance: str
    warnings: tuple[str, ...]

    def __init__(self, genus: int, masses: dict[TorsionClass, Fraction],
                 provenance: str = "", warnings: tuple[str, ...] = ()):
        masses = dict(masses)
        for c, m in masses.items():
            if type(m) is not int and type(m) is not Fraction:
                raise TypeError(f"mass of class {c} must be int or Fraction, got {m!r}")
        super().__init__(genus, masses, provenance, warnings)
        # not a field: (L, even, odd), L the lcm of the masses' denominators and
        # at each parity of |lambda| the orbits c with n_c / L = m_c +- m_{-c} != 0
        numerators, den = lcm_numerators(masses)
        nums = dict(numerators)
        even, odd = [], []
        for c, n in nums.items():
            neg = c.negate()
            if neg.pairs < c.pairs and neg in nums:
                continue                    # counted, and checked, with its partner -c
            _check_rank(c, genus)
            if neg is c:
                plus, minus = n, 0          # tr(c) = tr(-c) = -tr(c) at odd |lambda|
            else:
                m = nums.get(neg, 0)
                plus, minus = n + m, n - m
            if plus:
                even.append((c, plus))
            if minus:
                odd.append((c, minus))
        object.__setattr__(self, "_orbits", (den, tuple(even), tuple(odd)))

    __hash__ = None    # the masses are a dict

    def mass(self, c: TorsionClass) -> Fraction:
        return self.masses[c]

    def total(self) -> Fraction:
        """sum_c m_c over the full class set; equals e(A_g) for correct data."""
        return sum(self.masses.values(), Fraction(0))


def _check_index(c: TorsionClass, g: int, error: type[ValueError]) -> None:
    """error unless c's largest cyclotomic index fits in rank g
    (_index_bound), checked before any totient is computed."""
    if c.pairs and c.pairs[-1][0] > _index_bound(g):
        raise error(f"class {c} has cyclotomic index {c.pairs[-1][0]} > "
                    f"{_index_bound(g)}, so its degree exceeds {2 * g}")


def _check_rank(c: TorsionClass, g: int) -> None:
    """MassTableError unless c has degree 2g.  An index too large for rank g
    is refused before its totient is computed (_check_index).  Called once
    per record by parse_mass_table and once per negation orbit of the table
    when a MassTable is made."""
    _check_index(c, g, MassTableError)
    if c.degree != 2 * g:
        raise MassTableError(f"class {c} has degree {c.degree}, expected {2 * g}")


def _parse_fraction(text: str) -> Fraction:
    """p or p/q only: Fraction() alone would expand an exponent unboundedly."""
    if not _RATIONAL_RE.fullmatch(text):
        raise MassTableError(f"invalid rational {text!r}: expected p or p/q")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise MassTableError(f"invalid rational {text!r}") from exc


def parse_mass_table(stream: Iterable[str] | str, g: int, strict: bool = True,
                     provenance: str = "") -> MassTable:
    """Parse a TSV mass table: a required `genus: N` header, `#` comments,
    then one record `class<TAB>p/q` per negation orbit, in ASCII digits,
    expanded to the full class set by m_{-c} = m_c; the central classes
    1^{2g} and 2^{2g} default to exact.zeta_product(g).  One pass, so the
    first fault in file order is reported: the header is compared with g
    where it stands, and each record is parsed, checked against the rank
    (_check_rank) and for a duplicate orbit, and stored with its negation as
    it is read.  Strict mode requires every class (a count), naming the
    first missing one when g <= _LISTED_RANK; lenient mode zero-fills each
    missing orbit and records a warning."""
    if isinstance(stream, str):
        stream = stream.split("\n")
    masses: dict[TorsionClass, Fraction] = {}
    genus: int | None = None
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("genus:"):
            if genus is not None:
                raise MassTableError(f"line {lineno}: duplicate genus header")
            value = line[len("genus:"):].strip()
            try:    # int() refuses a number past the digit limit with a ValueError
                if not _GENUS_RE.fullmatch(value):
                    raise ValueError(value)
                genus = int(value)
            except ValueError as exc:
                raise MassTableError(f"line {lineno}: bad genus header") from exc
            if genus != g:
                raise MassTableError(f"genus header {genus} does not match requested {g}")
            continue
        if genus is None:
            raise MassTableError(f"line {lineno}: missing `genus:` header before records")
        if "\t" not in raw:
            raise MassTableError(f"line {lineno}: expected `class<TAB>mass`")
        enc, mass_text = raw.split("\t", 1)
        c = TorsionClass.parse(enc.strip())
        mass = _parse_fraction(mass_text.strip())
        _check_rank(c, g)
        if c in masses:                     # a record set c and -c alike
            raise MassTableError(
                f"duplicate mass for class {c} (orbit {c.orbit_representative()})")
        masses[c] = masses[c.negate()] = mass
    if genus is None:
        raise MassTableError("missing `genus:` header")

    one = TorsionClass(((1, 2 * g),))
    for central in (one, one.negate()):     # 1^{2g} and 2^{2g}, linked
        if central not in masses:
            masses[central] = zeta_product(g)
    # every key passed TorsionClass validation and _check_rank, so it is one
    # of the counted classes: the table is complete when the counts agree
    missing = count_torsion_classes(g) - len(masses)
    if not missing:
        return MassTable(g, masses, provenance)
    if strict:          # names a missing class only if the set may be listed
        first = "" if g > _LISTED_RANK else ", e.g. " + str(
            next(c for c in enumerate_torsion_classes(g) if c not in masses))
        raise MassTableError(f"mass table incomplete: {missing} classes missing{first}")
    for rep in enumerate_torsion_classes(g, mod_negation=True):
        if rep not in masses:           # nor -rep: keys come in orbits
            masses[rep] = masses[rep.negate()] = Fraction(0)
    warning = f"{missing} classes missing from mass table, treated as zero"
    return MassTable(g, masses, provenance, (warning,))


def load_mass_table(path, g: int) -> MassTable:
    """The complete mass table of rank g in the file at `path`."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_mass_table(fh, g, provenance=str(path))


def elliptic_term(hw, masses: MassTable) -> Fraction:
    """T_ell = sum over the full torsion class set of m_c tr(c | V_lambda);
    equals the compactly supported Euler characteristic e(A_g, V_lambda).

    One character per negation orbit: c is evaluated once, weighted by
    m_c + (-1)^{|lambda|} m_{-c} (m_{-c} = 0 when -c is not in the table),
    and only when that weight is nonzero.  A class with c = -c is weighted
    by m_c at even |lambda| and skipped at odd |lambda|, where its trace is
    zero.  The table holds these weights for both parities as integers over
    one common denominator, its classes checked when it was made; a call
    builds hw's plan and makes one _character_sum over its parity, unless
    that parity weights no orbit, and one Fraction."""
    if masses.genus != hw.g:
        raise ValueError(f"mass table rank {masses.genus} != weight rank {hw.g}")
    den, even, odd = masses._orbits
    weighted = odd if hw.weight % 2 else even
    if not weighted:
        return Fraction(0)
    return Fraction(_character_sum(_jacobi_trudi_rows(hw), weighted), den)
