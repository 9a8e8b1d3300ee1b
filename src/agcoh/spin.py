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

Exponents are stored doubled throughout (so half-integral weights stay
exact); halving happens once when a character is read out, with an
integrality assertion.  Coefficients are integers by type (LaurentPoly holds
`int` only, and the half-spins are exact halves, LaurentPoly.halve), so the
read-outs check signs and shapes, never integrality.  A factor's spin data
depends only on its (kind, doubled weights, d), so it is built once per
process and shared by every parameter and every call; parameters differ only
in the per-sign-vector products.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .arthur import (ArthurParameter, BlockKind, BuildingBlock, Registry,
                     check_kind_d, enumerate_parameters)
from .errors import SignPolicyError
from .exact import LaurentPoly
from .symplectic import HighestWeight


#: Sign assignments recoverable from the worked examples; everything else
#: requires an explicit sign file or emit-both mode.
BUNDLED_SIGNS: dict[str, tuple[str, ...]] = {
    "D11[2]+[9]": ("-",),
    "D11[4]+[7]": ("+",),
}


@dataclass(frozen=True)
class WeightLine:
    """One inverse pair of weights S^(+-2w) T^(+-e) of a factor's standard
    representation, stored as (s, t) = (2w, e): these are the doubled
    exponents of the half-line monomial entering the spin products.
    Canonical positivity: s > 0, or s = 0 and t >= 0."""

    s: int
    t: int

    def __post_init__(self):
        if self.s < 0 or (self.s == 0 and self.t < 0):
            raise ValueError("line breaks canonical positivity")


def standard_weight_lines(block: BuildingBlock, d: int) -> tuple[WeightLine, ...]:
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


@dataclass(frozen=True)
class TwoVarCharacter:
    """Character in (S, T) with internally doubled exponents; symmetric
    under inverting either variable; genus, local-system weight and sign
    metadata travel with assembled parameter characters."""

    doubled: LaurentPoly
    genus: int | None = None
    signs: tuple[str, ...] | None = None
    weight: int = 0

    def undoubled(self) -> LaurentPoly:
        """The honest character; asserts all doubled exponents are even."""
        return self.doubled.scale_exponents(1, 2)

    def dimension(self) -> int:
        return self.doubled.evaluate_all_ones()

    def specialize_s1(self) -> LaurentPoly:
        """One-variable T-character (undoubled exponents)."""
        return self.undoubled().set_var_to_one(0)

    def is_s_trivial(self) -> bool:
        return all(exps[0] == 0 for exps in self.doubled.support())

    def is_symmetric(self) -> bool:
        return self.doubled.is_symmetric()


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
    """Spin data of one factor in doubled exponents, built once per process
    per (kind, doubled weights, d): (full,) for an odd standard piece, the
    labeled (plus, minus) half-spin pair for an even one, whose plus half is
    the even minus-sign half.  A half-spin factor needs every weight run to
    stay positive (2 w_min > d - 1), as for the factors of a parameter."""
    key = (block.kind, block.doubled_weights, d)
    spins = _FACTOR_SPINS.get(key)
    if spins is not None:
        return spins
    lines = standard_weight_lines(block, d)
    if block.kind is BlockKind.ODD_ORTHOGONAL:
        spins = (_line_products(lines)[0],)
    else:
        low = block.doubled_weights[-1]
        if low <= d - 1:
            raise ValueError(
                f"weight run for 2w={low}, d={d} leaves the positive integers")
        p, q = _line_products(lines)
        spins = ((p + q).halve(), (p - q).halve())
    _FACTOR_SPINS[key] = spins
    return spins


def spin_character(block: BuildingBlock, d: int, half: str) -> TwoVarCharacter:
    """Spin ('full', odd standard dimension) or labeled half-spin ('plus' /
    'minus', even standard dimension) character of one factor, with doubled
    exponents."""
    if half == "full":
        if block.kind is not BlockKind.ODD_ORTHOGONAL:
            raise ValueError("full spin only applies to odd standard pieces")
        return TwoVarCharacter(_factor_spins(block, d)[0])
    if half not in ("plus", "minus"):
        raise ValueError(f"half must be 'full', 'plus' or 'minus', not {half!r}")
    if block.kind is BlockKind.ODD_ORTHOGONAL:
        raise ValueError("half-spins only apply to even standard pieces")
    plus, minus = _factor_spins(block, d)
    return TwoVarCharacter(plus if half == "plus" else minus)


def _characters(param: ArthurParameter, sign_vectors: Iterable[Sequence[str | None]]
                ) -> Iterator[TwoVarCharacter]:
    """The parameter character for each sign vector (aligned with
    param.factors, extra entries ignored): the principal spin character and
    each factor's half-spin pair come from the per-process factor cache
    (built once per (kind, weights, d)), then are multiplied per vector."""
    block0, d0 = param.principal
    principal = spin_character(block0, d0, "full").doubled
    pairs = [_factor_spins(block, d) for block, d in param.factors]
    weight = sum(param.tau_set) - param.genus * (param.genus + 1) // 2
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
        char = TwoVarCharacter(result, genus=param.genus, signs=signs,
                               weight=weight)
        if char.dimension() != 2 ** (param.genus - param.r):
            raise AssertionError("assembled character has the wrong dimension")
        if not char.is_symmetric():
            raise AssertionError("assembled character is not self-dual")
        yield char


def rho_psi(param: ArthurParameter, signs: Sequence[str | None] = ()
            ) -> TwoVarCharacter:
    """Product of the principal spin character with the chosen half-spin of
    every factor; total dimension 2^(g - r).  `signs` aligns with
    param.factors and needs '+' or '-' for every factor."""
    return next(_characters(param, [signs]))


def nu_decompose(char: LaurentPoly) -> list[int]:
    """Decompose a one-variable character into irreducible torus strings:
    the d-string occurs c_(d-1) - c_(d+1) times, c_k the coefficient of T^k.
    Returns the string dimensions d (descending, with repetition), checked
    by re-expansion.  An asymmetric character or a negative count is not a
    genuine torus character (ValueError)."""
    if char.nvars != 1:
        raise ValueError("nu_decompose expects a one-variable character")
    if not char.is_symmetric():
        raise ValueError(f"not a genuine torus character: {char}")
    coeffs = dict(char.items())
    counts: dict[int, int] = {}
    for d in range(char.exponent_range()[1] + 1, 0, -1):
        count = coeffs.get((d - 1,), 0) - coeffs.get((d + 1,), 0)
        if count < 0:
            raise ValueError(f"negative count of the {d}-string in {char}")
        if count:
            counts[d] = count
    # re-expand: the d-string is T^(d-1) + T^(d-3) + ... + T^(1-d)
    check: dict[tuple[int], int] = {}
    for d, count in counts.items():
        for e in range(d - 1, -d, -2):
            check[(e,)] = check.get((e,), 0) + count
    if check != coeffs:
        raise AssertionError("string decomposition failed to re-expand")
    return [d for d, count in counts.items() for _ in range(count)]


def primitive_degrees(genus: int, nus: Sequence[int]) -> list[int]:
    """A d-string contributes one primitive class in degree
    g(g+1)/2 - d + 1."""
    n = genus * (genus + 1) // 2
    return sorted(n - d + 1 for d in nus)


def hodge_diamond(char: TwoVarCharacter) -> dict[tuple[int, int], int]:
    """Bigraded dimensions: a monomial S^a T^b contributes to (p, q) with
    q - p = a and p + q = b + g(g+1)/2 + w, where w is the coefficient
    weight (the Hodge structure on degree-k classes with nontrivial
    coefficients is pure of weight k + w, so the bidegrees shift by w).
    A negative coefficient, or a parity or positivity failure, means the
    sign assignment was invalid (ValueError)."""
    if char.genus is None:
        raise ValueError("hodge_diamond needs genus metadata")
    n = char.genus * (char.genus + 1) // 2 + char.weight
    out: dict[tuple[int, int], int] = {}
    for (a, b), coeff in char.undoubled().items():
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

@dataclass(frozen=True)
class ShapeVariant:
    signs: tuple[str, ...]
    betti: tuple[int, ...]          # per unit multiplicity, degrees 0 .. g(g+1)
    nu: tuple[int, ...]
    primitive: tuple[int, ...]
    s_trivial: bool
    hodge: dict[tuple[int, int], int] | None


@dataclass(frozen=True)
class ShapeReport:
    shape: str
    multiplicity: int
    variants: tuple[ShapeVariant, ...]


@dataclass(frozen=True)
class IHResult:
    genus: int
    lam: tuple[int, ...]
    betti: tuple[int, ...] | None   # None when emit-both variants disagree
    per_shape: tuple[ShapeReport, ...]
    warnings: tuple[str, ...]

    def euler_characteristic(self) -> int:
        if self.betti is None:
            raise ValueError("Betti numbers are ambiguous under emit-both")
        return sum((-1) ** k * b for k, b in enumerate(self.betti))


def _betti_from_char(t_char: LaurentPoly, genus: int) -> tuple[int, ...]:
    """Graded dimensions, degrees 0 .. g(g+1), of a one-variable T-character."""
    n = genus * (genus + 1) // 2
    out = tuple(t_char.coeff_list(-n, n))
    if any(c < 0 for c in out):
        raise AssertionError("negative graded dimension")
    return out


def _variant(char: TwoVarCharacter, include_hodge: bool) -> ShapeVariant:
    t_char = char.specialize_s1()
    nus = tuple(nu_decompose(t_char))
    return ShapeVariant(
        signs=char.signs,
        betti=_betti_from_char(t_char, char.genus),
        nu=nus,
        primitive=tuple(primitive_degrees(char.genus, nus)),
        s_trivial=char.is_s_trivial(),
        hodge=hodge_diamond(char) if include_hodge else None,
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
        variants = tuple(_variant(char, include_hodge)
                         for char in _characters(param, sign_vectors))
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
