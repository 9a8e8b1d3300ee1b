"""Torsion conjugacy classes of the integral symplectic group, ingestion of
mass tables, and the elliptic term of the trace formula.

A torsion class of rank g is encoded by the multiset of cyclotomic
polynomials whose product (of total degree 2g) is its characteristic
polynomial; the indices 1 and 2 must occur with even multiplicity.  The
canonical text encoding is `d1^m1,d2^m2,...` with indices ascending and no
spaces.  Negation acts indexwise through negate_cyclotomic_index and masses
satisfy m_{-c} = m_c, so mass files carry one record per negation orbit
(the lexicographically smallest encoding).

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
symmetric table no odd-weight character is evaluated at all.  Each class
stores its negation, its characteristic polynomial and the longest h-series
prefix asked for so far (TorsionClass.h_series), so a sweep over many
lambda builds each series once.
"""
from __future__ import annotations

import io
import math
import re
from fractions import Fraction
from typing import Iterable

from .errors import MassTableError
from .exact import (cyclotomic, euler_phi, negate_cyclotomic_index, poly_mul,
                    zeta_negative)
from .records import Record
from .symplectic import character_at_torsion


_ENC_RE = re.compile(r"^\d+\^\d+(,\d+\^\d+)*$")


class TorsionClass(Record):
    """Multiset of (cyclotomic index, multiplicity) pairs, indices ascending.
    Equality, hashing and order are those of `pairs` alone."""

    pairs: tuple[tuple[int, int], ...]

    def __init__(self, pairs: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "pairs", pairs)
        seen = set()
        for d, m in pairs:
            if d < 1 or m < 1:
                raise ValueError(f"invalid pair ({d}, {m})")
            if d in seen:
                raise ValueError(f"repeated index {d}; merge multiplicities")
            seen.add(d)
        if list(pairs) != sorted(pairs):
            raise ValueError("indices must be ascending")
        for d in (1, 2):
            if self.multiplicity(d) % 2:
                raise ValueError(f"index {d} must have even multiplicity")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.pairs == other.pairs
        return NotImplemented

    def __hash__(self):
        return hash((self.pairs,))

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self.pairs < other.pairs
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return self.pairs <= other.pairs
        return NotImplemented

    def __gt__(self, other):
        if other.__class__ is self.__class__:
            return self.pairs > other.pairs
        return NotImplemented

    def __ge__(self, other):
        if other.__class__ is self.__class__:
            return self.pairs >= other.pairs
        return NotImplemented

    def multiplicity(self, d: int) -> int:
        for dd, m in self.pairs:
            if dd == d:
                return m
        return 0

    @property
    def degree(self) -> int:
        return sum(m * euler_phi(d) for d, m in self.pairs)

    def encode(self) -> str:
        return ",".join(f"{d}^{m}" for d, m in self.pairs)

    @classmethod
    def parse(cls, text: str) -> "TorsionClass":
        if not _ENC_RE.match(text):
            raise MassTableError(f"invalid class encoding {text!r}")
        pairs = []
        for chunk in text.split(","):
            d, m = chunk.split("^")
            pairs.append((int(d), int(m)))
        try:
            return cls(tuple(sorted(pairs)))
        except ValueError as exc:
            raise MassTableError(f"invalid class {text!r}: {exc}") from exc

    def negate(self) -> "TorsionClass":
        """-c, computed once per instance and stored like _charpoly; a
        negation-fixed class returns itself."""
        neg = self.__dict__.get("_negation")
        if neg is None:
            pairs = tuple(sorted((negate_cyclotomic_index(d), m) for d, m in self.pairs))
            neg = self if pairs == self.pairs else TorsionClass(pairs)
            self.__dict__["_negation"] = neg
        return neg

    def is_negation_fixed(self) -> bool:
        return self.negate() == self

    def orbit_representative(self) -> "TorsionClass":
        """Lexicographically smallest encoding among {c, -c}."""
        other = self.negate()
        return self if self.encode() <= other.encode() else other

    def characteristic_polynomial(self) -> tuple[int, ...]:
        """P_c = prod_d Phi_d^{m_d}, dense integer coefficients from the
        constant term.  It is self-reciprocal with constant term 1, so it is
        also det(1 - z c).  Computed once per instance."""
        poly = self.__dict__.get("_charpoly")
        if poly is None:
            poly = (1,)
            for d, m in self.pairs:
                for _ in range(m):
                    poly = poly_mul(poly, cyclotomic(d))
            # stored beside the fields, so equality, hashing and order ignore it
            self.__dict__["_charpoly"] = poly
        return poly

    def h_series(self, n: int) -> tuple[int, ...]:
        """The first n coefficients h_0, ..., h_{n-1} of 1/P_c(z): the
        complete symmetric functions of the eigenvalues of c.  The longest
        prefix asked for so far is stored on the instance; a longer request
        extends a copy and replaces the stored tuple whole, so a concurrent
        reader never sees a partial series.  The caller bounds n:
        character_at_torsion checks symplectic.H_SERIES_BOUND first."""
        series = self.__dict__.get("_hseries", (1,))
        if len(series) < n:
            poly = self.characteristic_polynomial()
            deg = len(poly) - 1
            h = list(series)
            for k in range(len(h), n):
                h.append(-sum(poly[j] * h[k - j] for j in range(1, min(k, deg) + 1)))
            series = tuple(h)
            self.__dict__["_hseries"] = series
        return series[:n]

    def __str__(self) -> str:
        return self.encode()


def enumerate_torsion_classes(g: int, mod_negation: bool = False) -> list[TorsionClass]:
    """All torsion classes of rank g: multisets of cyclotomic indices with
    total degree 2g and even multiplicity of the indices 1 and 2.  With
    mod_negation, one representative per negation orbit (the representative
    with the lexicographically smallest encoding)."""
    if g < 1:
        raise ValueError("rank must be positive")
    budget = 2 * g
    indices = [d for d in range(1, 2 * budget * budget + 1) if euler_phi(d) <= budget]
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


def central_mass_default(g: int) -> Fraction:
    """Default mass of the central classes 1^{2g} and 2^{2g}:
    zeta(-1) zeta(-3) ... zeta(1-2g)."""
    return math.prod((zeta_negative(j) for j in range(1, g + 1)), start=Fraction(1))


class MassTable(Record):
    """Masses m_c for the full torsion class set of one rank.  Every mass is
    an int or a Fraction (TypeError otherwise, a bool included)."""

    genus: int
    masses: dict[TorsionClass, Fraction]
    provenance: str
    missing: frozenset[TorsionClass]
    warnings: tuple[str, ...]

    def __init__(self, genus: int, masses: dict[TorsionClass, Fraction],
                 provenance: str = "", missing: frozenset[TorsionClass] = frozenset(),
                 warnings: tuple[str, ...] = ()):
        for c, m in masses.items():
            if type(m) is not int and type(m) is not Fraction:
                raise TypeError(f"mass of class {c} must be int or Fraction, got {m!r}")
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "provenance", provenance)
        object.__setattr__(self, "missing", missing)
        object.__setattr__(self, "warnings", warnings)

    __hash__ = None    # the masses are a dict

    def mass(self, c: TorsionClass) -> Fraction:
        return self.masses[c]

    def total(self) -> Fraction:
        """sum_c m_c over the full class set; equals e(A_g) for correct data."""
        return sum(self.masses.values(), Fraction(0))


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise MassTableError(f"invalid rational {text!r}") from exc


def parse_mass_table(stream: Iterable[str] | str, g: int, strict: bool = True,
                     provenance: str = "") -> MassTable:
    """Parse a TSV mass table: a required `genus: N` header, `#` comments,
    then one record `class<TAB>p/q` per negation orbit.  The table is
    expanded to the full class set by m_{-c} = m_c; the central classes
    1^{2g} and 2^{2g} default to zeta(-1)...zeta(1-2g) when omitted.  In
    strict mode every class must be covered; lenient mode zero-fills the
    rest and records a warning."""
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    lines = [ln.rstrip("\n") for ln in stream]
    records: list[tuple[TorsionClass, Fraction]] = []
    genus_header: int | None = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("genus:"):
            if genus_header is not None:
                raise MassTableError(f"line {lineno}: duplicate genus header")
            try:
                genus_header = int(line.split(":", 1)[1].strip())
            except ValueError as exc:
                raise MassTableError(f"line {lineno}: bad genus header") from exc
            continue
        if genus_header is None:
            raise MassTableError(f"line {lineno}: missing `genus:` header before records")
        if "\t" not in raw:
            raise MassTableError(f"line {lineno}: expected `class<TAB>mass`")
        enc, mass_text = raw.split("\t", 1)
        c = TorsionClass.parse(enc.strip())
        records.append((c, _parse_fraction(mass_text.strip())))
    if genus_header is None:
        raise MassTableError("missing `genus:` header")
    if genus_header != g:
        raise MassTableError(f"genus header {genus_header} does not match requested {g}")

    full = enumerate_torsion_classes(g)
    full_set = set(full)
    masses: dict[TorsionClass, Fraction] = {}
    covered_orbits: set[TorsionClass] = set()
    for c, mass in records:
        if c.degree != 2 * g:
            raise MassTableError(f"class {c} has degree {c.degree}, expected {2 * g}")
        if c not in full_set:
            raise MassTableError(f"class {c} is not a torsion class of rank {g}")
        rep = c.orbit_representative()
        if rep in covered_orbits:
            raise MassTableError(f"duplicate mass for class {c} (orbit {rep})")
        covered_orbits.add(rep)
        masses[c] = mass
        masses[c.negate()] = mass

    warnings: list[str] = []
    for d in (1, 2):
        central = TorsionClass(((d, 2 * g),))
        if central not in masses:
            masses[central] = central_mass_default(g)

    missing = [c for c in full if c not in masses]
    if missing:
        if strict:
            raise MassTableError(
                f"mass table incomplete: {len(missing)} classes missing, e.g. {missing[0]}")
        for c in missing:
            masses[c] = Fraction(0)
        warnings.append(f"{len(missing)} classes missing from mass table, treated as zero")
    return MassTable(genus=g, masses=masses, provenance=provenance,
                     missing=frozenset(missing), warnings=tuple(warnings))


def load_mass_table(path, g: int, strict: bool = True) -> MassTable:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_mass_table(fh, g, strict=strict, provenance=str(path))


def elliptic_term(hw, masses: MassTable, strict: bool = True) -> Fraction:
    """T_ell = sum over the full torsion class set of m_c tr(c | V_lambda);
    equals the compactly supported Euler characteristic e(A_g, V_lambda).

    One character per negation orbit: c is evaluated once, weighted by
    m_c + (-1)^{|lambda|} m_{-c} (m_{-c} = 0 when -c is not in the table),
    and only when that weight is nonzero.  A class with c = -c is weighted
    by m_c at even |lambda| and skipped at odd |lambda|, where its trace is
    zero.  The products numerator * trace are summed as integers per mass
    denominator, and one Fraction is built at the end."""
    if masses.genus != hw.g:
        raise ValueError(f"mass table rank {masses.genus} != weight rank {hw.g}")
    if strict and masses.missing:
        raise MassTableError(
            f"mass table incomplete ({len(masses.missing)} classes); "
            "parse leniently or supply the missing masses")
    sign = -1 if hw.weight % 2 else 1
    table = masses.masses
    sums: dict[int, int] = {}
    for c, m in table.items():
        neg = c.negate()
        if neg is c:
            if sign < 0:
                continue                # tr(c) = tr(-c) = -tr(c) = 0
            m_neg = 0
        else:
            m_neg = table.get(neg)
            if m_neg is None:
                m_neg = 0
            elif neg.pairs < c.pairs:
                continue                # counted with its partner -c
        p, q = m.numerator, m.denominator
        pn, qn = sign * m_neg.numerator, m_neg.denominator
        if p == -pn and q == qn:
            continue                    # m_c + sign m_{-c} = 0
        trace = character_at_torsion(hw, c)
        sums[q] = sums.get(q, 0) + p * trace
        sums[qn] = sums.get(qn, 0) + pn * trace
    den = math.lcm(*sums)
    return Fraction(sum(num * (den // q) for q, num in sums.items()), den)
