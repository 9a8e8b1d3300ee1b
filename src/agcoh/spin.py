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
every parameter and every call.

Only the Hodge diamonds need those two-variable characters.  Setting S = 1
is a ring homomorphism, and a line's T exponent depends on d alone, so at
S = 1 a factor's spin data depends only on its type (kind, weight count,
d): the characters of each type's first factor, summed over S into dense
T-lists, each flagged when it has no monomial with a nonzero S exponent,
are kept once per process.  One loop forms each sign prefix's product once
per call: over the T-lists (dense integer products, exact.poly_mul) for
the graded dimensions, torus strings and primitive degrees of the
variants, checked once and then kept per (factor types, signs), and over
the two-variable characters when Hodge data is asked for.  A parameter's
sign vectors and weight runs are checked on every call.
"""
from __future__ import annotations

import itertools
import operator
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from .arthur import (ArthurParameter, BlockKind, BuildingBlock, Registry,
                     check_kind_d, enumerate_parameters)
from .errors import SignPolicyError
from .exact import LaurentPoly, poly_mul
from .records import Record
from .symplectic import HighestWeight


#: Sign assignments recoverable from the worked examples; everything else
#: requires an explicit sign file or emit-both mode.
BUNDLED_SIGNS: dict[str, tuple[str, ...]] = {
    "D11[2]+[9]": ("-",),
    "D11[4]+[7]": ("+",),
}


def _weight_lines(block: BuildingBlock, d: int) -> tuple[tuple[int, int], ...]:
    """Weight lines (s, t) = (2w, e) of the factor's standard representation
    (the block's standard tensored with the d-dimensional torus string), one
    per inverse pair of weights S^(+-2w) T^(+-e): the doubled exponents of a
    half-line monomial.  The zero weight (odd orthogonal blocks) has no line."""
    check_kind_d(block.kind, d)
    nu_exps = range(d - 1, -d, -2)
    lines = [(dv, e) for dv in block.doubled_weights for e in nu_exps]
    if block.kind is BlockKind.ODD_ORTHOGONAL:
        lines.extend((0, e) for e in nu_exps if e > 0)
    return tuple(lines)


def _line_products(lines: Sequence[tuple[int, int]]) -> tuple[LaurentPoly, LaurentPoly]:
    """(prod (m + 1/m), prod (m - 1/m)) over half-line monomials m; their
    half-sum/difference are the two minus-sign-parity halves, in doubled
    exponents."""
    plus = LaurentPoly.one(2)
    minus = LaurentPoly.one(2)
    for s, t in lines:
        up = LaurentPoly.term(2, (s, t))
        down = LaurentPoly.term(2, (-s, -t))
        plus = plus * (up + down)
        minus = minus * (up - down)
    return plus, minus


#: A factor's type: (kind, weight count, d).
_FactorType = tuple[BlockKind, int, int]
#: A factor character or product: a LaurentPoly, or a (T-list, flag) at S = 1.
_P = TypeVar("_P")


def _factor_type(block: BuildingBlock, d: int) -> _FactorType:
    """The factor's type, after the check that a half-spin factor's weight
    runs stay positive (2 w_min > d - 1), which the type cannot record."""
    if block.kind is not BlockKind.ODD_ORTHOGONAL and block.doubled_weights[-1] <= d - 1:
        raise ValueError(f"weight run for 2w={block.doubled_weights[-1]}, d={d} "
                         "leaves the positive integers")
    return block.kind, len(block.doubled_weights), d


#: Spin data per factor (kind, doubled weights, d).  The kind is part of the
#: key because BuildingBlock equality compares the weights only.  Entries are
#: immutable, so threads racing on a miss at worst build one twice.
_FACTOR_SPINS: dict[tuple[BlockKind, tuple[int, ...], int], tuple[LaurentPoly, ...]] = {}


def _factor_spins(block: BuildingBlock, d: int) -> tuple[LaurentPoly, ...]:
    """Spin data of one factor, built once per process per (kind, doubled
    weights, d) and halved there to true exponents: (full,) for an odd
    standard piece, the labeled (plus, minus) half-spin pair for an even
    one, whose plus half is the even minus-sign half."""
    key = (block.kind, block.doubled_weights, d)
    spins = _FACTOR_SPINS.get(key)
    if spins is not None:
        return spins
    lines = _weight_lines(block, d)
    _factor_type(block, d)    # the weight-run check
    if block.kind is BlockKind.ODD_ORTHOGONAL:
        doubled = (_line_products(lines)[0],)
    else:
        p, q = _line_products(lines)
        doubled = ((p + q).halve(), (p - q).halve())
    spins = tuple(char.scale_exponents(1, 2) for char in doubled)
    _FACTOR_SPINS[key] = spins
    return spins


#: Spin data at S = 1 per factor type, shared like _FACTOR_SPINS.
_TYPE_T_LISTS: dict[_FactorType, tuple[tuple[list[int], bool], ...]] = {}


def _type_t_lists(ftype: _FactorType, block: BuildingBlock, d: int
                  ) -> tuple[tuple[list[int], bool], ...]:
    """Spin data at S = 1 of ftype = _factor_type(block, d), read off the
    _factor_spins characters of the first factor of the type: one
    (T-list, flag) per character (_at_s_one)."""
    t_lists = _TYPE_T_LISTS.get(ftype)
    if t_lists is None:
        t_lists = _TYPE_T_LISTS[ftype] = tuple(map(_at_s_one, _factor_spins(block, d)))
    return t_lists


def _at_s_one(char: LaurentPoly) -> tuple[list[int], bool]:
    """A factor character's centered T-list (coefficients of T^-k .. T^k
    summed over the S exponent, nonzero at both ends, as none is negative)
    and a flag saying that no monomial has a nonzero S exponent."""
    terms = char.terms()
    k = max(abs(t) for (_, t), _ in terms)
    t_list = [0] * (2 * k + 1)
    for (_, t), c in terms:
        t_list[k + t] += c
    return t_list, not any(s for (s, _), _ in terms)


def _signed(param: ArthurParameter, signs: Sequence[str | None]) -> tuple[str, ...]:
    """The sign vector cut to param's factors, each of which needs a '+' or
    a '-'."""
    signs = tuple(signs)[:param.r]
    for (block, d), sign in itertools.zip_longest(param.factors, signs):
        if sign is None:
            raise SignPolicyError(
                f"factor {block.label}[{d}] of {param.canonical_shape()} has "
                "distinct half-spins; provide an explicit sign or use emit-both")
        if sign not in ("+", "-"):
            raise SignPolicyError(f"invalid sign {sign!r}")
    return signs


def _signed_products(first: _P, pairs: Sequence[Sequence[_P]],
                     checked_vectors: Iterable[tuple[str, ...]],
                     mul: Callable[[_P, _P], _P]) -> Iterator[tuple[tuple[str, ...], _P]]:
    """(signs, product) for each sign vector checked by _signed: `first`
    times, through `mul`, the half pairs[i][0] for a '+' and pairs[i][1]
    for a '-'.  Each sign prefix's product is formed once per call, shared
    by every vector that starts with it (2 + 4 + ... + 2^r products under
    emit-both, not r 2^r)."""
    prefixes: dict[tuple[str, ...], _P] = {}
    for signs in checked_vectors:
        result = first
        for i, (pair, sign) in enumerate(zip(pairs, signs)):
            product = prefixes.get(signs[:i + 1])
            if product is None:
                product = prefixes[signs[:i + 1]] = mul(result, pair[sign == "-"])
            result = product
        yield signs, result


def _characters(param: ArthurParameter, checked_vectors: Iterable[tuple[str, ...]]
                ) -> Iterator[tuple[tuple[str, ...], LaurentPoly]]:
    """(signs, two-variable character) for each sign vector checked by
    _signed: the principal spin character and each factor's half-spin pair
    come from the per-process factor cache and are multiplied in
    _signed_products."""
    (principal,) = _factor_spins(*param.principal)
    pairs = [_factor_spins(block, d) for block, d in param.factors]
    for signs, char in _signed_products(principal, pairs, checked_vectors, operator.mul):
        if char.evaluate_all_ones() != 2 ** (param.genus - param.r):
            raise AssertionError("assembled character has the wrong dimension")
        if not char.is_symmetric():
            raise AssertionError("assembled character is not self-dual")
        yield signs, char


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
    sign assignment was invalid (ValueError).  The dict's order is
    unspecified: sort its items for a stable rendering."""
    n = genus * (genus + 1) // 2 + weight
    out: dict[tuple[int, int], int] = {}
    for (a, b), coeff in char.terms():
        if coeff < 0 or (a + b + n) % 2 or abs(a) > b + n:
            break
        p = (b + n - a) // 2
        q = (b + n + a) // 2
        out[(p, q)] = out.get((p, q), 0) + coeff
    else:
        return out
    for (a, b), coeff in char.items():    # name the first fault in sorted order
        if coeff < 0:
            raise ValueError("character has a negative coefficient")
        if (a + b + n) % 2 or abs(a) > b + n:
            raise ValueError(
                f"monomial S^{a} T^{b} violates Hodge parity/positivity "
                "(invalid sign assignment)")


# -- assembly ----------------------------------------------------------------

class ShapeVariant(Record):
    signs: tuple[str, ...]
    betti: tuple[int, ...]          # per unit multiplicity, degrees 0 .. g(g+1)
    nu: tuple[int, ...]
    primitive: tuple[int, ...]
    s_trivial: bool
    hodge: dict[tuple[int, int], int] | None


class ShapeReport(Record):
    shape: str
    multiplicity: int
    variants: tuple[ShapeVariant, ...]


class IHResult(Record):
    genus: int
    lam: tuple[int, ...]
    betti: tuple[int, ...] | None   # None when emit-both variants disagree
    per_shape: tuple[ShapeReport, ...]
    warnings: tuple[str, ...]


def _betti_data(t_list: Sequence[int], genus: int
                ) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """(betti, nu, primitive) of a variant from its centered T-list: the
    graded dimensions are its coefficients of T^-n .. T^n, n = g(g+1)/2.
    A nonzero coefficient beyond T^(+-n) (it never wraps round) or a
    negative dimension is an AssertionError; a list that is not a genuine
    torus character is a ValueError (_t_strings)."""
    t_list = list(t_list)    # a product is poly_mul's tuple; _t_strings pads lists
    n = genus * (genus + 1) // 2
    extra = len(t_list) // 2 - n
    if extra > 0:
        if any(t_list[:extra]) or any(t_list[-extra:]):
            raise AssertionError(
                f"T-coefficients {t_list} reach outside the degrees of genus {genus}")
        betti = t_list[extra:-extra]
    else:
        betti = [0] * -extra + t_list + [0] * -extra
    nus = tuple(_t_strings(betti))
    if min(betti) < 0:
        raise AssertionError("negative graded dimension")
    return tuple(betti), nus, tuple(primitive_degrees(genus, nus))


#: Variants without Hodge data, keyed by (types of all the pairs of a parameter,
#: principal first, which fix its genus; signs).  Shared like _FACTOR_SPINS.
_VARIANTS: dict[tuple[tuple[_FactorType, ...], tuple[str, ...]], ShapeVariant] = {}


def _betti_variants(types: tuple[_FactorType, ...], checked: Sequence[tuple[str, ...]],
                    genus: int, pairs: Sequence[tuple[BuildingBlock, int]]
                    ) -> list[ShapeVariant]:
    """The variants, without Hodge data, of the checked sign vectors of a
    parameter with these (block, d) pairs, principal first, and types; only
    the misses of _VARIANTS are built and checked.  T-lists end in nonzero
    values, so their poly_mul products, trimmed of trailing zeros, stay
    centered.  The S-trivial flag is the AND of the factors': every factor
    character has nonnegative coefficients and is self-dual under
    (a, b) -> (-a, -b), so no product cancels a monomial with a nonzero S
    exponent."""
    misses = [signs for signs in checked if (types, signs) not in _VARIANTS]
    if misses:
        (first,), *halves = (_type_t_lists(ftype, *pair) for ftype, pair in zip(types, pairs))
        for signs, (t_list, s_trivial) in _signed_products(
                first, halves, misses, lambda a, b: (poly_mul(a[0], b[0]), a[1] and b[1])):
            if sum(t_list) != 2 ** (genus - len(signs)):
                raise AssertionError("assembled character has the wrong dimension")
            _VARIANTS[types, signs] = ShapeVariant(signs, *_betti_data(t_list, genus),
                                                   s_trivial, None)
    return [_VARIANTS[types, signs] for signs in checked]


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
    one factor needs a sign vector unless `signs` is 'both'.

    Calls share parameter enumeration only through a shared `registry`
    (see `enumerate_parameters`); without one, each call enumerates on a
    fresh `Registry.builtin()`."""
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
        pairs = (param.principal,) + param.factors
        types = tuple(_factor_type(block, d) for block, d in pairs)
        checked = [_signed(param, vec) for vec in sign_vectors]
        variants = _betti_variants(types, checked, genus, pairs)
        if include_hodge:
            variants = [ShapeVariant(v.signs, v.betti, v.nu, v.primitive, v.s_trivial,
                                     hodge_diamond(char, genus, hw.weight))
                        for v, (_, char) in zip(variants, _characters(param, checked))]
        reports.append(ShapeReport(shape, mult, tuple(variants)))
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
    return IHResult(genus, hw.lam, betti, tuple(reports), tuple(warnings))
