import itertools
from fractions import Fraction

import pytest

from agcoh import arthur as ar
from agcoh import spin as sp
from agcoh.exact import LaurentPoly
from agcoh.records import Record
from agcoh.symplectic import HighestWeight
from test_arthur import _synthetic_registry
from oracles import (betti_from_char, closed_form_oracle, exponent_range, monomial,
                     nu_character, rho_psi, set_var_to_one, sparse_variant)

REG = ar.Registry.builtin()
OO, OE, S = ar.BlockKind.ODD_ORTHOGONAL, ar.BlockKind.EVEN_ORTHOGONAL, \
    ar.BlockKind.SYMPLECTIC
D11 = REG.lookup(S, (11,))
TRIV = REG.lookup(OO, ())
SYM2 = REG.lookup(OO, (22,))


def t_lift(poly):
    """Lift a one-variable T-polynomial into the (S, T) plane."""
    return LaurentPoly(2, {(0, e): c for (e,), c in poly.items()})


def t_strings(char):
    """Torus strings of a one-variable character, through `_t_strings` on
    its T-coefficient list."""
    n = max(map(abs, exponent_range(char)))
    return sp._t_strings(char.coeff_list(-n, n))


def dominant_weights(g, max_l1):
    def rec(i, prev, acc):
        if i == g:
            yield tuple(acc)
            return
        for v in range(prev, -1, -1):
            acc.append(v)
            yield from rec(i + 1, v, acc)
            acc.pop()
    yield from rec(0, max_l1, [])


def all_sign_choices(param):
    return itertools.product(("+", "-"), repeat=param.r)


# -- weight lines ---------------------------------------------------------------

def test_standard_weight_lines_examples():
    assert sp._weight_lines(D11, 2) == ((11, 1), (11, -1))
    assert sp._weight_lines(TRIV, 9) == ((0, 8), (0, 6), (0, 4), (0, 2))
    assert sp._weight_lines(SYM2, 1) == ((22, 0),)


def test_line_count_matches_standard_dimension():
    for block, d in [(D11, 2), (D11, 6), (SYM2, 3), (TRIV, 13),
                     (REG.lookup(S, (21, 13)), 2)]:
        # odd orthogonal pieces carry the zero weight, which has no line
        lines = sp._weight_lines(block, d)
        has_zero = block.kind is OO
        assert 2 * len(lines) + has_zero == block.standard_dimension * d


def test_weight_line_validation():
    with pytest.raises(ValueError):
        sp._weight_lines(D11, 3)


# -- spin characters --------------------------------------------------------------

def test_spin_character_small_examples():
    # trivial principal block with d = 2g+1: prod (T^j + T^-j)
    for g in (1, 2, 3, 4):
        (full,) = sp._factor_spins(TRIV, 2 * g + 1)
        char = set_var_to_one(full, 0)
        expected = LaurentPoly.one(1)
        for j in range(1, g + 1):
            expected = expected * (monomial(j) + monomial(-j))
        assert char == expected
    plus, minus = sp._factor_spins(D11, 2)
    assert plus == LaurentPoly(2, {(11, 0): 1, (-11, 0): 1})
    assert minus == t_lift(nu_character(2))


def test_spin_character_plus_labeling_delta11_4():
    # the plus half carries the symmetric square of the standard piece
    plus, minus = sp._factor_spins(D11, 4)
    sym2_std = LaurentPoly(2, {(22, 0): 1, (0, 0): 1, (-22, 0): 1})
    assert plus == sym2_std + t_lift(nu_character(5))
    std = LaurentPoly(2, {(11, 0): 1, (-11, 0): 1})
    assert minus == std * t_lift(nu_character(4))


def test_factor_spin_cache_keys_on_kind():
    # equal as BuildingBlocks (weights only), but an odd orthogonal piece has
    # one full spin character and an even orthogonal one a half-spin pair
    oo = ar.BuildingBlock(OO, (10, 4), 0)
    oe = ar.BuildingBlock(OE, (10, 4), 0)
    assert oo == oe
    for first, second in ((oo, oe), (oe, oo)):
        sp._FACTOR_SPINS.clear()
        sp._factor_spins(first, 1)
        assert len(sp._factor_spins(second, 1)) == (1 if second is oo else 2)
    (full,) = sp._factor_spins(oo, 1)
    assert full.scale_exponents(2) == \
        sp._line_products(sp._weight_lines(oo, 1))[0]
    assert full not in sp._factor_spins(oe, 1)


def test_cached_half_spins_match_rebuilt():
    for block, d in [(D11, 2), (D11, 4), (REG.lookup(S, (21, 13)), 2),
                     (ar.BuildingBlock(OE, (10, 4), 0), 3)]:
        cached = sp._factor_spins(block, d)
        assert sp._factor_spins(block, d) is cached
        lines = sp._weight_lines(block, d)
        p, q = sp._line_products(lines)
        plus, minus = cached
        assert plus.scale_exponents(2) == (p + q).halve(), (block.label, d)
        assert minus.scale_exponents(2) == (p - q).halve(), (block.label, d)


@pytest.mark.parametrize("kind, doubled_weights, ds", [
    (S, (13,), (2, 4, 6)), (S, (17, 9), (2, 4, 6)), (S, (23, 15, 7), (2, 4, 6)),
    (OE, (10, 4), (1, 3)), (OE, (30, 24, 12, 6), (1, 3)),
    (OO, (), (1, 3, 5, 7)), (OO, (22,), (1, 3, 5, 7)),
    (OO, (30, 8), (1, 3, 5, 7)), (OO, (36, 20, 4), (1, 3, 5, 7))])
def test_line_products_halve_to_true_exponents(kind, doubled_weights, ds):
    # every monomial of a factor's line products has even doubled exponents,
    # so its characters hold true exponents: doubling them back gives the
    # (halved) doubled line products, blocks beyond the registry included
    block = ar.BuildingBlock(kind, doubled_weights, 0)
    for d in ds:
        p, q = sp._line_products(sp._weight_lines(block, d))
        assert all(e % 2 == 0 for exps, _ in p.items() for e in exps), d
        want = (p,) if kind is OO else ((p + q).halve(), (p - q).halve())
        got = tuple(char.scale_exponents(2) for char in sp._factor_spins(block, d))
        assert got == want, (doubled_weights, d)


def test_ambiguous_half_spin():
    # weight 1/2 with d = 2 gives the run {1, 0}, which leaves the positive
    # integers (the tau eigenvalue 0)
    block = ar.BuildingBlock(S, (1,), 0)
    with pytest.raises(ValueError, match="leaves the positive integers"):
        sp._factor_spins(block, 2)


@pytest.mark.parametrize("kind, doubled_weights", [
    (S, (1,)), (S, (3,)), (S, (5,)), (S, (11,)),
    # an even orthogonal block needs two weights; the top one is far enough
    # up that its runs stay positive and apart from the bottom one's
    (OE, (40, 2)), (OE, (40, 4)), (OE, (40, 6)), (OE, (40, 10))])
def test_half_spins_refuse_exactly_nonpositive_runs(kind, doubled_weights):
    block = ar.BuildingBlock(kind, doubled_weights, 0)
    for d in range(1, 15):
        if (kind is S) != (d % 2 == 0):
            continue
        try:
            ar.weight_block(kind, doubled_weights, d)
            leaves = False
        except ValueError as exc:
            assert "leaves the positive integers" in str(exc), (doubled_weights, d)
            leaves = True
        if leaves:
            with pytest.raises(ValueError, match="leaves the positive integers"):
                sp._factor_spins(block, d)
        else:
            plus, minus = sp._factor_spins(block, d)
            assert plus != minus


def test_closed_form_oracle_examples():
    (poly,) = closed_form_oracle(TRIV, 9)
    expected = LaurentPoly.one(1)
    for j in range(1, 5):
        expected = expected * (monomial(j) + monomial(-j))
    assert poly == expected
    pair = closed_form_oracle(D11, 2)
    assert {pair[0], pair[1]} == {LaurentPoly.term(1, (0,), 2), nu_character(2)}
    oe = ar.BuildingBlock(OE, (10, 4), 0)
    pair = closed_form_oracle(oe, 1)
    assert pair[0] == pair[1] == LaurentPoly.term(1, (0,), 2)


def test_oracle_equality_across_enumerated_factors():
    # S=1 specializations of the weight-built spin characters equal the
    # closed forms, factor by factor, over everything enumerable with g <= 7,
    # and the two labeled half-spins of every even piece differ
    pieces = {}
    for g in range(1, 8):
        for lam in dominant_weights(g, 11 - g):
            if sum(lam) % 2:
                continue
            for param, _ in ar.enumerate_parameters(HighestWeight(g, lam), REG):
                for block, d in [param.principal] + list(param.factors):
                    pieces.setdefault((block.kind, block.doubled_weights, d),
                                      (block, d))
    assert len(pieces) > 20
    # an ingested even orthogonal block: its halves coincide at S = 1 only
    oe = REG.with_records([{"kind": "oe", "doubled_weights": [30, 24],
                            "cardinality": 1}]).lookup(OE, (30, 24))
    for d in (1, 3):
        pieces[(OE, oe.doubled_weights, d)] = (oe, d)
    for key, (block, d) in pieces.items():
        oracle = closed_form_oracle(block, d)
        if block.kind is OO:
            (full,) = sp._factor_spins(block, d)
            assert (set_var_to_one(full, 0),) == oracle, key
        else:
            plus, minus = sp._factor_spins(block, d)
            assert plus != minus, key
            assert {set_var_to_one(plus, 0), set_var_to_one(minus, 0)} == set(oracle), key


def test_characters_have_int_coefficients():
    # half-spins are exact halves of integer polynomials, so no Fraction
    # survives into the assembled characters or the closed forms
    for g in range(1, 8):
        for lam in dominant_weights(g, 7 - g):
            for param, _ in ar.enumerate_parameters(HighestWeight(g, lam), REG):
                for combo in all_sign_choices(param):
                    char = rho_psi(param, combo)
                    assert all(type(c) is int for _, c in char.items())
                for block, d in [param.principal] + list(param.factors):
                    for poly in closed_form_oracle(block, d):
                        assert all(type(c) is int for _, c in poly.items())


# -- assembled characters ---------------------------------------------------------

def test_rho_psi_principal_only_is_graded_ring():
    for g in range(1, 6):
        hw = HighestWeight(g, (0,) * g)
        (param, _), = ar.enumerate_parameters(hw, REG)
        char = rho_psi(param)
        expected = LaurentPoly.one(1)
        for j in range(1, g + 1):
            expected = expected * (monomial(j) + monomial(-j))
        assert set_var_to_one(char, 0) == expected
        assert exponent_range(char, 0) == (0, 0)


def test_rho_psi_g6_example():
    hw = HighestWeight(6, (0,) * 6)
    param = next(p for p, _ in ar.enumerate_parameters(hw, REG)
                 if p.canonical_shape() == "D11[2]+[9]")
    char = rho_psi(param, ("-",))
    assert exponent_range(char, 0) == (0, 0)
    nus = t_strings(set_var_to_one(char, 0))
    assert nus == [12, 10, 6, 4]
    assert sp.primitive_degrees(6, nus) == [10, 12, 16, 18]
    diamond = sp.hodge_diamond(char, 6)
    assert all(p == q for p, q in diamond)


def test_rho_psi_g7_example():
    hw = HighestWeight(7, (0,) * 7)
    param = next(p for p, _ in ar.enumerate_parameters(hw, REG)
                 if p.canonical_shape() == "D11[4]+[7]")
    char = rho_psi(param, ("+",))
    sym2_std = LaurentPoly(2, {(22, 0): 1, (0, 0): 1, (-22, 0): 1})
    expected = (t_lift(nu_character(7)) + 1) * (sym2_std + t_lift(nu_character(5)))
    assert char == expected
    diamond = sp.hodge_diamond(char, 7)
    assert {q - p for p, q in diamond} == {-22, 0, 22}
    assert all(diamond[(p, q)] == diamond[(q, p)] for p, q in diamond)


def test_rho_psi_missing_sign():
    hw = HighestWeight(8, (0,) * 8)
    param = next(p for p, _ in ar.enumerate_parameters(hw, REG)
                 if p.canonical_shape() == "D11[6]+[5]")
    for signs in ((), (None,), ("x",)):
        with pytest.raises(sp.SignPolicyError):
            rho_psi(param, signs)
    assert rho_psi(param, ("+",)).evaluate_all_ones() == 2 ** 7
    # entries beyond the factors are cut off
    assert sp._signed(param, ("-", "+")) == ("-",)
    assert rho_psi(param, ("-", "+")) == rho_psi(param, ("-",))


def test_shared_sign_prefixes_match_separate_products():
    # emit-both shares each sign prefix's product between the vectors that
    # start with it; every character equals its own unshared product
    for g in range(6, 12):
        for lam in dominant_weights(g, 11 - g):
            hw = HighestWeight(g, lam)
            for param, _ in ar.enumerate_parameters(hw, REG):
                got = list(sp._characters(param, all_sign_choices(param)))
                assert got == [(signs, rho_psi(param, signs))
                               for signs in all_sign_choices(param)]


def test_sign_prefixes_are_shared(monkeypatch):
    # emit-both over three factors: each route forms 2 + 4 + 8 prefix
    # products, not 3 * 8, with every memo cold
    hw = HighestWeight(10, (0,) * 10)
    param = next(p for p, _ in ar.enumerate_parameters(hw, REG)
                 if p.canonical_shape() == "D19[2]+D15[2]+D11[2]+[9]")
    checked = list(all_sign_choices(param))
    pairs = (param.principal,) + param.factors
    types = tuple(sp._factor_type(block, d) for block, d in pairs)
    for name in ("_FACTOR_SPINS", "_TYPE_T_LISTS", "_VARIANTS"):
        monkeypatch.setattr(sp, name, {})
    calls = []
    poly_mul = sp.poly_mul
    monkeypatch.setattr(sp, "poly_mul", lambda a, b: calls.append("T") or poly_mul(a, b))
    assert [v.signs for v in sp._betti_variants(types, checked, 10, pairs)] == checked
    assert calls == ["T"] * 14
    calls.clear()
    for block, d in pairs:    # D15[2] and D11[2] took their T-lists from D19[2]
        sp._factor_spins(block, d)
    mul = LaurentPoly.__mul__
    monkeypatch.setattr(LaurentPoly, "__mul__", lambda a, b: calls.append("ST") or mul(a, b))
    assert [signs for signs, _ in sp._characters(param, checked)] == checked
    assert calls == ["ST"] * 14


def test_shared_sign_prefixes_still_check_every_vector(monkeypatch):
    # ih_betti checks each sign vector before either route forms a product
    hw = HighestWeight(8, (0,) * 8)
    param = next(p for p, _ in ar.enumerate_parameters(hw, REG)
                 if p.canonical_shape() == "D15[2]+D11[2]+[9]")
    monkeypatch.setattr(sp, "enumerate_parameters", lambda hw, registry=None: [(param, 1)])
    monkeypatch.setattr(sp, "_VARIANTS", {})

    def unchecked(*args):
        raise AssertionError("a product was formed before the signs were checked")
    monkeypatch.setattr(sp, "_signed_products", unchecked)
    for bad, message in ((("+", "x"), "invalid sign"), (("+",), "distinct half-spins"),
                         (("+", None), "distinct half-spins")):
        for include_hodge in (False, True):
            with pytest.raises(sp.SignPolicyError, match=message):
                sp.ih_betti(hw, REG, signs={"D15[2]+D11[2]+[9]": bad},
                            include_hodge=include_hodge)


# -- structural invariants over everything enumerable -----------------------------

def test_structural_invariants_all_parameters():
    for g in range(1, 8):
        n = g * (g + 1) // 2
        for lam in dominant_weights(g, 11 - g):
            if sum(lam) % 2:
                continue
            for param, _ in ar.enumerate_parameters(HighestWeight(g, lam), REG):
                for combo in all_sign_choices(param):
                    char = rho_psi(param, combo)
                    assert char.evaluate_all_ones() == 2 ** (g - param.r)
                    assert char.is_symmetric()
                    t_char = set_var_to_one(char, 0)
                    exps = [e for (e,), _ in t_char.items()]
                    assert len({e % 2 for e in exps}) <= 1
                    betti = betti_from_char(t_char, g)
                    assert betti == betti[::-1]
                    for parity in (0, 1):
                        seq = betti[parity::2]
                        half = seq[:(len(seq) + 1) // 2]
                        assert all(a <= b for a, b in zip(half, half[1:]))
                    euler = sum((-1) ** k * b for k, b in enumerate(betti))
                    assert abs(euler) == 2 ** (g - param.r)
                    if param.canonical_shape() != f"[{2 * g + 1}]":
                        mindeg = next(k for k, b in enumerate(betti) if b)
                        assert mindeg >= 2 * g - 2
                    diamond = sp.hodge_diamond(char, g, sum(lam))
                    assert all(diamond[(p, q)] == diamond[(q, p)]
                               for p, q in diamond)


def test_vanishing_bound_attained_even_g():
    hw = HighestWeight(6, (0,) * 6)
    res = sp.ih_betti(hw, REG)
    # the degree-(2g-2) = 10 part exceeds the tautological dimension at even g
    from agcoh.tautring import graded_dimension
    assert res.betti[10] == graded_dimension(6, 10) + 1


def test_nu_decompose_examples():
    assert t_strings(nu_character(2)) == [2]
    p2 = (monomial(1) + monomial(-1)) * \
        (monomial(2) + monomial(-2))
    assert t_strings(p2) == [4]
    p3 = p2 * (monomial(3) + monomial(-3))
    assert t_strings(p3) == [7, 1]
    assert t_strings(LaurentPoly(1)) == []
    with pytest.raises(ValueError):
        t_strings(monomial(1))          # asymmetric
    with pytest.raises(ValueError):
        t_strings(nu_character(3) - nu_character(1))   # negative count
    assert t_strings(nu_character(4) + nu_character(1)) == [4, 1]
    assert t_strings(3 * nu_character(2)) == [2, 2, 2]
    with pytest.raises(TypeError):   # a non-integral character cannot be built
        LaurentPoly(1, {(0,): Fraction(1, 2)})


def test_t_strings_refuses_non_characters():
    assert sp._t_strings([0, 1, 0, 1, 0]) == [2]
    assert sp._t_strings([1, 0, 2, 0, 1]) == [3, 1]
    with pytest.raises(ValueError, match="genuine"):
        sp._t_strings([0, 1, 0, 0, 0])                   # asymmetric
    with pytest.raises(ValueError, match="genuine"):
        sp._t_strings([2, 1, 0, 1, 1])                   # asymmetric, same total
    with pytest.raises(ValueError, match="negative count of the 1-string"):
        sp._t_strings([1, 0, 0, 0, 1])                   # T^2 + T^-2
    with pytest.raises(ValueError, match="negative count of the 2-string"):
        sp._t_strings([1, 0, 0, 0, 0, 0, 1])             # T^3 + T^-3


def centered_t_list(char):
    """The T-list at S = 1 of a two-variable character: its coefficients of
    T^-k .. T^k, k the largest |T exponent|."""
    t_char = set_var_to_one(char, 0)
    k = max(map(abs, exponent_range(t_char)))
    return t_char.coeff_list(-k, k)


def test_variant_refuses_t_degree_out_of_range():
    # genus 1 has degrees T^-1 .. T^1; nothing beyond may wrap round to the
    # other end of the list: T^-3 alone would land on T^0, a genuine 1-string
    for terms in ({(0, 2): 1, (0, -2): 1}, {(0, 5): 1, (0, -5): 1}, {(0, -3): 1},
                  {(0, -2): 1, (0, 1): 1}, {(1, 3): 2}):
        with pytest.raises(AssertionError, match="outside"):
            sp._betti_data(centered_t_list(LaurentPoly(2, terms)), 1)
    ok = sp._betti_data(centered_t_list(LaurentPoly(2, {(0, 1): 1, (0, -1): 1})), 1)
    assert ok == ((1, 0, 1), (2,), (0,))
    # zero coefficients beyond T^(+-n) are no fault
    assert sp._betti_data([0, 1, 0, 1, 0], 1) == ok
    with pytest.raises(ValueError, match="genuine"):
        sp._betti_data(centered_t_list(LaurentPoly(2, {(1, 1): 1, (0, 0): 1})), 1)


def assert_matches_sparse_oracle(reg, max_rank, include_hodge):
    # every field of every variant, against the route through one-variable
    # characters of the two-variable products, on every weight with
    # lambda_1 + g <= max_rank that the registry can enumerate
    for g in range(1, max_rank + 1):
        for lam in dominant_weights(g, max_rank - g):
            hw = HighestWeight(g, lam)
            try:
                params = ar.enumerate_parameters(hw, reg)
            except ar.RegistryIncompleteError:
                continue
            res = sp.ih_betti(hw, reg, signs="both", include_hodge=include_hodge)
            assert [r.shape for r in res.per_shape] == \
                [p.canonical_shape() for p, _ in params]
            for report, (param, _) in zip(res.per_shape, params):
                want = tuple(sparse_variant(signs, char, g, hw.weight, include_hodge)
                             for signs, char in sp._characters(
                                 param, all_sign_choices(param)))
                assert report.variants == want, (g, lam, report.shape)


@pytest.mark.parametrize("include_hodge", [False, True])
def test_ih_betti_matches_sparse_oracle(include_hodge):
    assert_matches_sparse_oracle(REG, 11, include_hodge)


@pytest.mark.parametrize("include_hodge", [False, True])
def test_ih_betti_matches_sparse_oracle_bound30(include_hodge):
    # the synthetic registry adds S(23), of the type of D11, and an even
    # orthogonal block, whose halves coincide at S = 1
    assert_matches_sparse_oracle(_synthetic_registry(), 13, include_hodge)


def factor_pieces(blocks, max_d):
    """Every (block, d) with d <= max_d valid for the block's kind whose
    weight runs stay positive."""
    for block in blocks:
        for d in range(1, max_d + 1):
            if (block.kind is S) != (d % 2 == 0):
                continue
            try:
                sp._factor_type(block, d)
            except ValueError:
                continue
            yield block, d


def test_type_t_lists_and_s_trivial_flags(monkeypatch):
    # with cold memos, each type's T-lists are read off its first factor, so
    # every factor is checked against those: each T-list is the S = 1
    # specialization of the factor's own half, and each flag says that no
    # monomial of that half has a nonzero S exponent
    for name in ("_FACTOR_SPINS", "_TYPE_T_LISTS"):
        monkeypatch.setattr(sp, name, {})
    extra = [b for b in _synthetic_registry().blocks() if b not in REG.blocks()]
    assert len(extra) == 3
    pieces = list(factor_pieces(REG.blocks() + extra, 8))
    shared = {(b.label, d) for b, d in pieces if sp._factor_type(b, d) == (S, 1, 2)}
    assert shared >= {("D11", 2), ("D15", 2), ("D17", 2), ("D19", 2), ("D21", 2),
                      ("S(23)", 2)}
    trivial_halves = set()
    for block, d in pieces:
        spins = sp._factor_spins(block, d)
        t_lists = sp._type_t_lists(sp._factor_type(block, d), block, d)
        assert len(t_lists) == len(spins)
        for half, char, (t_list, flag) in zip("+-", spins, t_lists):
            assert t_list == centered_t_list(char), (block.label, d, half)
            assert flag == (exponent_range(char, 0) == (0, 0)), (block.label, d, half)
            if flag and block.kind is not OO:
                trivial_halves.add((block.label, d, half))
    # the minus half of D_w[2] (lines (2w, 1) and (2w, -1)) is S-trivial; no
    # other half of a half-spin factor is
    assert trivial_halves == {(b.label, 2, "-") for b in REG.blocks() + extra
                              if b.kind is S and len(b.doubled_weights) == 1}
    assert ("D11", 2, "-") in trivial_halves
    assert sp._type_t_lists((S, 1, 2), D11, 2)[1] == ([1, 0, 1], True)


def test_warm_memos_skip_no_check(monkeypatch):
    hw = HighestWeight(8, (0,) * 8)
    warm = [sp.ih_betti(hw, REG, signs="both", include_hodge=h) for h in (False, True)]
    good = {"D11[6]+[5]": ("+",), "D15[2]+D11[2]+[9]": ("-", "-"), "D15[2]+[13]": ("+",)}
    for shape, bad, message in (("D11[6]+[5]", (None,), "distinct half-spins"),
                                ("D11[6]+[5]", ("x",), "invalid sign"),
                                ("D11[6]+[5]", (), "distinct half-spins"),
                                ("D15[2]+D11[2]+[9]", ("-",), "distinct half-spins"),
                                ("D15[2]+D11[2]+[9]", ("-", "x"), "invalid sign")):
        for include_hodge in (False, True):
            with pytest.raises(sp.SignPolicyError, match=message):
                sp.ih_betti(hw, REG, signs=good | {shape: bad}, include_hodge=include_hodge)
    # D11[2] and D15[2] share the type (symplectic, one weight, d = 2): the
    # same Betti data, each with its own Hodge diamond
    d11, d15 = (sp.ih_betti(HighestWeight(2, lam), REG, signs="both", include_hodge=True)
                for lam in ((4, 4), (6, 6)))
    (r11,), (r15,) = d11.per_shape, d15.per_shape
    assert (r11.shape, r15.shape) == ("D11[2]+[1]", "D15[2]+[1]")
    for v11, v15 in zip(r11.variants, r15.variants):
        assert (v11.signs, v11.betti, v11.nu, v11.primitive, v11.s_trivial) == \
            (v15.signs, v15.betti, v15.nu, v15.primitive, v15.s_trivial)
        assert v11.hodge != v15.hodge
    (p15, _), = ar.enumerate_parameters(HighestWeight(2, (6, 6)), REG)
    assert [v.hodge for v in r15.variants] == \
        [sp.hodge_diamond(rho_psi(p15, signs), 2, 12) for signs in (("+",), ("-",))]
    # a factor of that warm type whose run leaves the positive integers
    low = ar.BuildingBlock(S, (1,), 0)
    assert (S, 1, 2) in sp._TYPE_T_LISTS
    with pytest.raises(ValueError, match="leaves the positive integers"):
        sp._factor_type(low, 2)
    bad = ar.ArthurParameter.__new__(ar.ArthurParameter)
    Record.__init__(bad, 2, (TRIV, 1), ((low, 2),))    # unchecked
    monkeypatch.setattr(sp, "enumerate_parameters", lambda hw, registry=None: [(bad, 1)])
    for include_hodge in (False, True):
        with pytest.raises(ValueError, match="leaves the positive integers"):
            sp.ih_betti(HighestWeight(2, (4, 4)), REG, signs="both",
                        include_hodge=include_hodge)
    monkeypatch.undo()
    # cold memos give the same results
    for name in ("_FACTOR_SPINS", "_TYPE_T_LISTS", "_VARIANTS"):
        monkeypatch.setattr(sp, name, {})
    assert [sp.ih_betti(hw, REG, signs="both", include_hodge=h) for h in (False, True)] == warm
    assert sp.ih_betti(HighestWeight(2, (4, 4)), REG, signs="both",
                       include_hodge=True) == d11


# -- ih_betti ----------------------------------------------------------------------

def test_ih_betti_matches_taut_ring_small_rank():
    from agcoh.tautring import poincare_polynomial
    for g in range(1, 6):
        res = sp.ih_betti(HighestWeight(g, (0,) * g), REG)
        poincare = poincare_polynomial(g)
        assert list(res.betti) == [int(c) for c in
                                   poincare.coeff_list(0, g * (g + 1))]
        assert sum((-1) ** k * b for k, b in enumerate(res.betti)) == 2 ** g


def test_ih_betti_vanishing_example():
    # even weight, yet no parameters: the cohomology vanishes identically
    res = sp.ih_betti(HighestWeight(3, (1, 1, 0)), REG)
    assert res.betti == (0,) * 13
    assert not res.per_shape
    assert not res.warnings


def test_ih_betti_odd_weight_warning():
    res = sp.ih_betti(HighestWeight(2, (2, 1)), REG)
    assert res.betti == (0,) * 7
    assert any("odd weight" in w for w in res.warnings)


def test_hodge_diamond_weight_shift():
    # rank-2 parameter with coefficients of weight 8: the middle classes are
    # holomorphic/antiholomorphic of bidegree (11,0)/(0,11)
    hw = HighestWeight(2, (4, 4))
    (param, _), = ar.enumerate_parameters(hw, REG)
    assert param.canonical_shape() == "D11[2]+[1]"
    holo = sp.hodge_diamond(rho_psi(param, ("+",)), 2, hw.weight)
    assert holo == {(11, 0): 1, (0, 11): 1}
    other = sp.hodge_diamond(rho_psi(param, ("-",)), 2, hw.weight)
    assert other == {(5, 5): 1, (6, 6): 1}


def test_ih_betti_sign_policies():
    hw = HighestWeight(8, (0,) * 8)
    with pytest.raises(sp.SignPolicyError):
        sp.ih_betti(hw, REG, signs="bundled")
    explicit = {
        "D11[6]+[5]": ("+",),
        "D15[2]+D11[2]+[9]": ("-", "-"),
        "D15[2]+[13]": ("+",),
    }
    res = sp.ih_betti(hw, REG, signs=explicit)
    assert res.betti is not None
    both = sp.ih_betti(hw, REG, signs="both")
    shapes = {r.shape: r for r in both.per_shape}
    assert len(shapes["D11[6]+[5]"].variants) == 2
    assert len(shapes["[17]"].variants) == 1
    # Betti numbers differ between the halves here, so the total is ambiguous
    assert both.betti is None
    assert any("differ between sign choices" in w for w in both.warnings)


def test_ih_betti_g6_bundled():
    res = sp.ih_betti(HighestWeight(6, (0,) * 6), REG, include_hodge=True)
    from agcoh.tautring import graded_dimension
    extra = {d: 0 for d in range(0, 43)}
    for d0 in (12, 10, 6, 4):
        for k in range(21 - d0 + 1, 21 + d0, 2):
            extra[k] += 1
    for k in range(0, 43):
        assert res.betti[k] == graded_dimension(6, k) + extra[k], k
    report = {r.shape: r for r in res.per_shape}["D11[2]+[9]"]
    assert report.variants[0].hodge is not None
