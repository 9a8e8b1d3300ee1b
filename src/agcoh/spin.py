"""Spin and half-spin branching of parameters and assembly of the
intersection-cohomology data of the minimal compactification: graded Betti
numbers, primitive-class decompositions, and Hodge diamonds.

Every factor (block, d) of a parameter acts on cohomology through the
two-parameter character in S (the circle action, recording q - p) and T (the
Lefschetz torus, recording the shift from middle degree).  The standard
representation attached to the factor contributes one weight line per
inverse pair: for each block weight w and each exponent e in {d-1, d-3, ...}
the pair (2w, e); odd orthogonal standard pieces carry extra lines (0, e)
with e > 0 and a single zero weight.  The factor's spin (odd standard
dimension) or half-spin (even) character is the signed product over lines,
half-spins being the even/odd minus-sign halves.  The plus half is the one
whose largest eigenvalue on the block's infinitesimal-character vector is
bigger.  A line's eigenvalue tau = 2w + e is positive on every line of a
valid factor (its weight runs stay in the positive integers), so the plus
half is always the even half.  A factor's halves always differ (by
+-prod (m - 1/m) over its lines), so every factor needs a user-facing sign
choosing its half, because the general sign rule is not pinned down here:
exactly the two assignments recoverable from the worked rank-6 and rank-7
examples ship as bundled defaults, and everything else needs an explicit
sign file or emit-both mode.

Weight lines keep the doubled exponents (2w, e), because a symplectic
weight w is half-integral.  No character needs them: a symplectic factor
has len(w) * d lines, an even number since d is even, each with odd 2w and
odd e, so every monomial of the line products (a signed sum of one exponent
pair per line) has even doubled exponents; an orthogonal factor's lines are
even to begin with.  So the factor build halves the exponents once, and
every character after it is a plain two-variable LaurentPoly in its true
exponents, with integer coefficients by type (the half-spins are exact
halves, LaurentPoly.halve).  A factor's spin data depends only on its
(kind, doubled weights, d), so it is built once per process and shared by
every parameter and every call; parameters differ only in the
per-sign-vector products.  A variant is read in one pass over its product
into a dense int list of its coefficients of T^-n .. T^n at S = 1,
n = g(g+1)/2: the graded dimensions, whose torus strings and primitive
degrees follow from that list alone.
"""
from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping, Sequence

from .arthur import (ArthurParameter, BlockKind, BuildingBlock, Registry,
                     check_kind_d, enumerate_parameters)
from .errors import SignPolicyError
from .exact import LaurentPoly
from .records import Record
from .symplectic import HighestWeight


#: Sign assignments recoverable from the worked examples; everything else
#: requires an explicit sign file or emit-both mode.
BUNDLED_SIGNS: dict[str, tuple[str, ...]] = {
    "D11[2]+[9]": ("-",),
    "D11[4]+[7]": ("+",),
}


class WeightLine(Record):
    """One inverse pair of weights S^(+-2w) T^(+-e) of a factor's standard
    representation, stored as (s, t) = (2w, e): these are the doubled
    exponents of the half-line monomial entering the spin products.
    Canonical positivity: s > 0, or s = 0 and t >= 0."""

    s: int
    t: int

    def __init__(self, s: int, t: int):
        if s < 0 or (s == 0 and t < 0):
            raise ValueError("line breaks canonical positivity")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)


def _weight_lines(block: BuildingBlock, d: int) -> tuple[WeightLine, ...]:
    """Weight lines of the factor's standard representation (the block's
    standard tensored with the d-dimensional torus string).  The zero
    weight, present exactly for odd orthogonal blocks, has no line."""
    check_kind_d(block.kind, d)
    lines: list[WeightLine] = []
    nu_exps = range(d - 1, -d, -2)
    for dv in block.doubled_weights:
        lines.extend(WeightLine(dv, e) for e in nu_exps)
    if block.kind is BlockKind.ODD_ORTHOGONAL:
        lines.extend(WeightLine(0, e) for e in nu_exps if e > 0)
    return tuple(lines)


def _line_products(lines: Sequence[WeightLine]) -> tuple[LaurentPoly, LaurentPoly]:
    """(prod (m + 1/m), prod (m - 1/m)) over half-line monomials m; their
    half-sum/difference are the two minus-sign-parity halves, in doubled
    exponents."""
    plus = LaurentPoly.one(2)
    minus = LaurentPoly.one(2)
    for line in lines:
        up = LaurentPoly.term(2, (line.s, line.t))
        down = LaurentPoly.term(2, (-line.s, -line.t))
        plus = plus * (up + down)
        minus = minus * (up - down)
    return plus, minus


#: Spin data per factor (kind, doubled weights, d).  The kind is part of the
#: key because BuildingBlock equality compares the weights only.  Entries are
#: immutable, so threads racing on a miss at worst build one twice.
_FACTOR_SPINS: dict[tuple[BlockKind, tuple[int, ...], int], tuple[LaurentPoly, ...]] = {}


def _factor_spins(block: BuildingBlock, d: int) -> tuple[LaurentPoly, ...]:
    """Spin data of one factor, built once per process per (kind, doubled
    weights, d) and halved there to true exponents: (full,) for an odd
    standard piece, the labeled (plus, minus) half-spin pair for an even
    one, whose plus half is the even minus-sign half.  A half-spin factor
    needs every weight run to stay positive (2 w_min > d - 1), as for the
    factors of a parameter."""
    key = (block.kind, block.doubled_weights, d)
    spins = _FACTOR_SPINS.get(key)
    if spins is not None:
        return spins
    lines = _weight_lines(block, d)
    if block.kind is BlockKind.ODD_ORTHOGONAL:
        doubled = (_line_products(lines)[0],)
    else:
        low = block.doubled_weights[-1]
        if low <= d - 1:
            raise ValueError(
                f"weight run for 2w={low}, d={d} leaves the positive integers")
        p, q = _line_products(lines)
        doubled = ((p + q).halve(), (p - q).halve())
    spins = tuple(char.scale_exponents(1, 2) for char in doubled)
    _FACTOR_SPINS[key] = spins
    return spins


def _characters(param: ArthurParameter, sign_vectors: Iterable[Sequence[str | None]]
                ) -> Iterator[tuple[tuple[str, ...], LaurentPoly]]:
    """(signs, character) for each sign vector (aligned with param.factors,
    extra entries cut off): the principal spin character and each factor's
    half-spin pair come from the per-process factor cache, then are
    multiplied per vector."""
    block0, d0 = param.principal
    (principal,) = _factor_spins(block0, d0)
    pairs = [_factor_spins(block, d) for block, d in param.factors]
    for signs in sign_vectors:
        signs = tuple(signs)[:param.r]
        result = principal
        for (block, d), (plus, minus), sign in itertools.zip_longest(
                param.factors, pairs, signs):
            if sign is None:
                raise SignPolicyError(
                    f"factor {block.label}[{d}] of {param.canonical_shape()} has "
                    "distinct half-spins; provide an explicit sign or use emit-both")
            if sign not in ("+", "-"):
                raise SignPolicyError(f"invalid sign {sign!r}")
            result = result * (plus if sign == "+" else minus)
        if result.evaluate_all_ones() != 2 ** (param.genus - param.r):
            raise AssertionError("assembled character has the wrong dimension")
        if not result.is_symmetric():
            raise AssertionError("assembled character is not self-dual")
        yield signs, result


def rho_psi(param: ArthurParameter, signs: Sequence[str | None] = ()
            ) -> LaurentPoly:
    """Product of the principal spin character with the chosen half-spin of
    every factor; total dimension 2^(g - r).  `signs` aligns with
    param.factors and needs '+' or '-' for every factor."""
    return next(_characters(param, [signs]))[1]


def _t_strings(coeffs: list[int]) -> list[int]:
    """Decompose a torus character, given as the dense list of its
    coefficients of T^-n .. T^n (c_k, the coefficient of T^k, at
    coeffs[n + k]), into irreducible torus strings: the d-string occurs
    c_(d-1) - c_(d+1) times.  Returns the string dimensions d (descending,
    with repetition), checked by re-expansion.  An asymmetric list or a
    negative count is not a genuine torus character (ValueError)."""
    if coeffs != coeffs[::-1]:
        raise ValueError(f"not a genuine torus character: T-coefficients {coeffs}")
    n = len(coeffs) // 2
    padded = coeffs + [0, 0]
    ends = [0] * (2 * n + 3)    # stride-2 differences of the re-expansion
    nus: list[int] = []
    for d in range(n + 1, 0, -1):
        count = padded[n + d - 1] - padded[n + d + 1]
        if count < 0:
            raise ValueError(f"negative count of the {d}-string in T-coefficients {coeffs}")
        if count:
            nus += [d] * count
            ends[n - d + 1] += count    # T^(d-1) + T^(d-3) + ... + T^(1-d)
            ends[n + d + 1] -= count
    ends[0::2] = itertools.accumulate(ends[0::2])
    ends[1::2] = itertools.accumulate(ends[1::2])
    if ends[:-2] != coeffs:
        raise AssertionError("string decomposition failed to re-expand")
    return nus


def primitive_degrees(genus: int, nus: Sequence[int]) -> list[int]:
    """A d-string contributes one primitive class in degree
    g(g+1)/2 - d + 1."""
    n = genus * (genus + 1) // 2
    return sorted(n - d + 1 for d in nus)


def hodge_diamond(char: LaurentPoly, genus: int, weight: int = 0
                  ) -> dict[tuple[int, int], int]:
    """Bigraded dimensions: a monomial S^a T^b contributes to (p, q) with
    q - p = a and p + q = b + g(g+1)/2 + w, where w is the coefficient
    weight (the Hodge structure on degree-k classes with nontrivial
    coefficients is pure of weight k + w, so the bidegrees shift by w).
    A negative coefficient, or a parity or positivity failure, means the
    sign assignment was invalid (ValueError)."""
    n = genus * (genus + 1) // 2 + weight
    out: dict[tuple[int, int], int] = {}
    for (a, b), coeff in char.items():
        if coeff < 0:
            raise ValueError("character has a negative coefficient")
        if (a + b + n) % 2 or abs(a) > b + n:
            raise ValueError(
                f"monomial S^{a} T^{b} violates Hodge parity/positivity "
                "(invalid sign assignment)")
        p = (b + n - a) // 2
        q = (b + n + a) // 2
        out[(p, q)] = out.get((p, q), 0) + coeff
    return out


# -- assembly ----------------------------------------------------------------

class ShapeVariant(Record):
    signs: tuple[str, ...]
    betti: tuple[int, ...]          # per unit multiplicity, degrees 0 .. g(g+1)
    nu: tuple[int, ...]
    primitive: tuple[int, ...]
    s_trivial: bool
    hodge: dict[tuple[int, int], int] | None

    def __init__(self, signs: tuple[str, ...], betti: tuple[int, ...],
                 nu: tuple[int, ...], primitive: tuple[int, ...], s_trivial: bool,
                 hodge: dict[tuple[int, int], int] | None):
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "betti", betti)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "primitive", primitive)
        object.__setattr__(self, "s_trivial", s_trivial)
        object.__setattr__(self, "hodge", hodge)


class ShapeReport(Record):
    shape: str
    multiplicity: int
    variants: tuple[ShapeVariant, ...]

    def __init__(self, shape: str, multiplicity: int,
                 variants: tuple[ShapeVariant, ...]):
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "multiplicity", multiplicity)
        object.__setattr__(self, "variants", variants)


class IHResult(Record):
    genus: int
    lam: tuple[int, ...]
    betti: tuple[int, ...] | None   # None when emit-both variants disagree
    per_shape: tuple[ShapeReport, ...]
    warnings: tuple[str, ...]

    def __init__(self, genus: int, lam: tuple[int, ...],
                 betti: tuple[int, ...] | None, per_shape: tuple[ShapeReport, ...],
                 warnings: tuple[str, ...]):
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "betti", betti)
        object.__setattr__(self, "per_shape", per_shape)
        object.__setattr__(self, "warnings", warnings)

    def euler_characteristic(self) -> int:
        if self.betti is None:
            raise ValueError("Betti numbers are ambiguous under emit-both")
        return sum((-1) ** k * b for k, b in enumerate(self.betti))


def _variant(signs: tuple[str, ...], char: LaurentPoly, genus: int, weight: int,
             include_hodge: bool) -> ShapeVariant:
    n = genus * (genus + 1) // 2
    betti = [0] * (2 * n + 1)
    s_trivial = True
    for (a, b), c in char.terms():
        if not -n <= b <= n:
            raise AssertionError(f"T^{b} lies outside the degrees of genus {genus}")
        betti[n + b] += c
        if a:
            s_trivial = False
    nus = tuple(_t_strings(betti))
    if min(betti) < 0:
        raise AssertionError("negative graded dimension")
    return ShapeVariant(
        signs=signs,
        betti=tuple(betti),
        nu=nus,
        primitive=tuple(primitive_degrees(genus, nus)),
        s_trivial=s_trivial,
        hodge=hodge_diamond(char, genus, weight) if include_hodge else None,
    )


def ih_betti(hw: HighestWeight, registry: Registry | None = None,
             signs: str | Mapping[str, Sequence[str]] = "bundled",
             include_hodge: bool = False) -> IHResult:
    """Graded dimensions of the intersection cohomology of the minimal
    compactification with coefficients in V_lambda:

        b_k = sum over parameters of multiplicity * [T^(k - g(g+1)/2)]
              of the parameter character at S = 1.

    `signs` is 'bundled' (known assignments only), 'both' (emit every sign
    choice), or a mapping from canonical shape strings to sign vectors
    (explicit assignments win over bundled ones).  Every shape with at least
    one factor needs a sign vector unless `signs` is 'both'."""
    warnings: list[str] = []
    if hw.weight % 2:
        warnings.append("odd weight: all cohomology of the local system vanishes")
    genus = hw.g
    n2 = genus * (genus + 1)
    reports: list[ShapeReport] = []
    total = [0] * (n2 + 1)
    ambiguous: list[str] = []
    for param, mult in enumerate_parameters(hw, registry):
        shape = param.canonical_shape()
        if signs == "both":
            sign_vectors = itertools.product(("+", "-"), repeat=param.r)
        elif isinstance(signs, Mapping) and shape in signs:
            sign_vectors = [signs[shape]]
        elif shape in BUNDLED_SIGNS:
            sign_vectors = [BUNDLED_SIGNS[shape]]
        elif param.r:
            raise SignPolicyError(
                f"shape {shape} needs half-spin signs that are neither "
                "bundled nor supplied; pass an explicit sign file or "
                "use emit-both mode")
        else:
            sign_vectors = [()]
        variants = tuple(_variant(vec, char, genus, hw.weight, include_hodge)
                         for vec, char in _characters(param, sign_vectors))
        reports.append(ShapeReport(shape=shape, multiplicity=mult, variants=variants))
        bettis = {v.betti for v in variants}
        if len(bettis) > 1:
            ambiguous.append(shape)
        else:
            b = variants[0].betti
            for k in range(n2 + 1):
                total[k] += mult * b[k]
    if ambiguous:
        warnings.append(
            "Betti numbers differ between sign choices for: " + ", ".join(ambiguous))
        betti: tuple[int, ...] | None = None
    else:
        betti = tuple(total)
    return IHResult(genus=genus, lam=hw.lam, betti=betti,
                    per_shape=tuple(reports), warnings=tuple(warnings))
