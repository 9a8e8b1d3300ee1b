import itertools
from fractions import Fraction

import pytest

from agcoh import arthur as ar
from agcoh import spin as sp
from agcoh.exact import LaurentPoly, nu_character
from agcoh.symplectic import HighestWeight
from oracles import closed_form_oracle

REG = ar.Registry.builtin()
OO, OE, S = ar.BlockKind.ODD_ORTHOGONAL, ar.BlockKind.EVEN_ORTHOGONAL, \
    ar.BlockKind.SYMPLECTIC
D11 = REG.lookup(S, (11,))
TRIV = REG.lookup(OO, ())
SYM2 = REG.lookup(OO, (22,))


def t_lift(poly):
    """Lift a one-variable T-polynomial into the (S, T) plane."""
    return LaurentPoly(2, {(0, e): c for (e,), c in poly.items()})


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
    lines = sp.standard_weight_lines(D11, 2)
    assert [(l.s, l.t) for l in lines] == [(11, 1), (11, -1)]
    lines = sp.standard_weight_lines(TRIV, 9)
    assert [(l.s, l.t) for l in lines] == [(0, 8), (0, 6), (0, 4), (0, 2)]
    lines = sp.standard_weight_lines(SYM2, 1)
    assert [(l.s, l.t) for l in lines] == [(22, 0)]


def test_line_count_matches_standard_dimension():
    for block, d in [(D11, 2), (D11, 6), (SYM2, 3), (TRIV, 13),
                     (REG.lookup(S, (21, 13)), 2)]:
        # odd orthogonal pieces carry the zero weight, which has no line
        lines = sp.standard_weight_lines(block, d)
        has_zero = block.kind is OO
        assert 2 * len(lines) + has_zero == block.standard_dimension * d


def test_weight_line_validation():
    with pytest.raises(ValueError):
        sp.WeightLine(-2, 0)     # breaks canonical positivity
    with pytest.raises(ValueError):
        sp.standard_weight_lines(D11, 3)


# -- spin characters --------------------------------------------------------------

def test_spin_character_small_examples():
    # trivial principal block with d = 2g+1: prod (T^j + T^-j)
    for g in (1, 2, 3, 4):
        char = sp.spin_character(TRIV, 2 * g + 1, "full").specialize_s1()
        expected = LaurentPoly.one(1)
        for j in range(1, g + 1):
            expected = expected * (LaurentPoly.t_power(j) + LaurentPoly.t_power(-j))
        assert char == expected
    plus = sp.spin_character(D11, 2, "plus").undoubled()
    minus = sp.spin_character(D11, 2, "minus").undoubled()
    assert plus == LaurentPoly(2, {(11, 0): 1, (-11, 0): 1})
    assert minus == t_lift(nu_character(2))


def test_spin_character_plus_labeling_delta11_4():
    # the plus half carries the symmetric square of the standard piece
    plus = sp.spin_character(D11, 4, "plus").undoubled()
    sym2_std = LaurentPoly(2, {(22, 0): 1, (0, 0): 1, (-22, 0): 1})
    assert plus == sym2_std + t_lift(nu_character(5))
    minus = sp.spin_character(D11, 4, "minus").undoubled()
    std = LaurentPoly(2, {(11, 0): 1, (-11, 0): 1})
    assert minus == std * t_lift(nu_character(4))


def test_spin_character_kind_guards():
    with pytest.raises(ValueError):
        sp.spin_character(D11, 2, "full")
    with pytest.raises(ValueError):
        sp.spin_character(TRIV, 9, "plus")
    with pytest.raises(ValueError):
        sp.spin_character(D11, 2, "sideways")


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
    full = sp.spin_character(oo, 1, "full").doubled
    assert full == sp._line_products(sp.standard_weight_lines(oo, 1))[0]
    assert full not in sp._factor_spins(oe, 1)


def test_cached_half_spins_match_rebuilt():
    for block, d in [(D11, 2), (D11, 4), (REG.lookup(S, (21, 13)), 2),
                     (ar.BuildingBlock(OE, (10, 4), 0), 3)]:
        cached = sp._factor_spins(block, d)
        assert sp._factor_spins(block, d) is cached
        lines = sp.standard_weight_lines(block, d)
        p, q = sp._line_products(lines)
        plus, minus = cached
        assert plus == (p + q).halve(), (block.label, d)
        assert minus == (p - q).halve(), (block.label, d)
        assert sp.spin_character(block, d, "plus").doubled == plus
        assert sp.spin_character(block, d, "minus").doubled == minus


def test_ambiguous_half_spin():
    # weight 1/2 with d = 2 gives the run {1, 0}, which leaves the positive
    # integers (the tau eigenvalue 0)
    block = ar.BuildingBlock(S, (1,), 0)
    with pytest.raises(ValueError, match="leaves the positive integers"):
        sp.spin_character(block, 2, "plus")


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
                sp.spin_character(block, d, "plus")
        else:
            plus = sp.spin_character(block, d, "plus")
            assert plus.doubled != sp.spin_character(block, d, "minus").doubled


def test_closed_form_oracle_examples():
    (poly,) = closed_form_oracle(TRIV, 9)
    expected = LaurentPoly.one(1)
    for j in range(1, 5):
        expected = expected * (LaurentPoly.t_power(j) + LaurentPoly.t_power(-j))
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
            got = (sp.spin_character(block, d, "full").specialize_s1(),)
            assert got == oracle, key
        else:
            plus = sp.spin_character(block, d, "plus")
            minus = sp.spin_character(block, d, "minus")
            assert plus.doubled != minus.doubled, key
            assert {plus.specialize_s1(), minus.specialize_s1()} == set(oracle), key


def test_characters_have_int_coefficients():
    # half-spins are exact halves of integer polynomials, so no Fraction
    # survives into the assembled characters or the closed forms
    for g in range(1, 8):
        for lam in dominant_weights(g, 7 - g):
            for param, _ in ar.enumerate_parameters(HighestWeight(g, lam), REG):
                for combo in all_sign_choices(param):
                    char = sp.rho_psi(param, combo)
                    assert all(type(c) is int for _, c in char.doubled.items())
                for block, d in [param.principal] + list(param.factors):
                    for poly in closed_form_oracle(block, d):
                        assert all(type(c) is int for _, c in poly.items())


# -- assembled characters ---------------------------------------------------------

def test_rho_psi_principal_only_is_graded_ring():
    for g in range(1, 6):
        hw = HighestWeight(g, (0,) * g)
        (param, _), = ar.enumerate_parameters(hw, REG)
        char = sp.rho_psi(param)
        expected = LaurentPoly.one(1)
        for j in range(1, g + 1):
            expected = expected * (LaurentPoly.t_power(j) + LaurentPoly.t_power(-j))
        assert char.specialize_s1() == expected
        assert char.is_s_trivial()


def test_rho_psi_g6_example():
    hw = HighestWeight(6, (0,) * 6)
    param = next(p for p, _ in ar.enumerate_parameters(hw, REG)
                 if p.canonical_shape() == "D11[2]+[9]")
    char = sp.rho_psi(param, ("-",))
    assert char.is_s_trivial()
    nus = sp.nu_decompose(char.specialize_s1())
    assert nus == [12, 10, 6, 4]
    assert sp.primitive_degrees(6, nus) == [10, 12, 16, 18]
    diamond = sp.hodge_diamond(char)
    assert all(p == q for p, q in diamond)


def test_rho_psi_g7_example():
    hw = HighestWeight(7, (0,) * 7)
    param = next(p for p, _ in ar.enumerate_parameters(hw, REG)
                 if p.canonical_shape() == "D11[4]+[7]")
    char = sp.rho_psi(param, ("+",))
    sym2_std = LaurentPoly(2, {(22, 0): 1, (0, 0): 1, (-22, 0): 1})
    expected = (t_lift(nu_character(7)) + 1) * (sym2_std + t_lift(nu_character(5)))
    assert char.undoubled() == expected
    diamond = sp.hodge_diamond(char)
    assert {q - p for p, q in diamond} == {-22, 0, 22}
    assert all(diamond[(p, q)] == diamond[(q, p)] for p, q in diamond)


def test_rho_psi_missing_sign():
    hw = HighestWeight(8, (0,) * 8)
    param = next(p for p, _ in ar.enumerate_parameters(hw, REG)
                 if p.canonical_shape() == "D11[6]+[5]")
    for signs in ((), (None,), ("x",)):
        with pytest.raises(sp.SignPolicyError):
            sp.rho_psi(param, signs)
    assert sp.rho_psi(param, ("+",)).dimension() == 2 ** 7
    # entries beyond the factors are ignored
    assert sp.rho_psi(param, ("-", "+")).signs == ("-",)


# -- structural invariants over everything enumerable -----------------------------

def test_structural_invariants_all_parameters():
    for g in range(1, 8):
        n = g * (g + 1) // 2
        for lam in dominant_weights(g, 11 - g):
            if sum(lam) % 2:
                continue
            for param, _ in ar.enumerate_parameters(HighestWeight(g, lam), REG):
                for combo in all_sign_choices(param):
                    char = sp.rho_psi(param, combo)
                    assert char.dimension() == 2 ** (g - param.r)
                    assert char.is_symmetric()
                    t_char = char.specialize_s1()
                    exps = [e for (e,), _ in t_char.items()]
                    assert len({e % 2 for e in exps}) <= 1
                    betti = sp._betti_from_char(t_char, g)
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
                    diamond = sp.hodge_diamond(char)
                    assert all(diamond[(p, q)] == diamond[(q, p)]
                               for p, q in diamond)


def test_vanishing_bound_attained_even_g():
    hw = HighestWeight(6, (0,) * 6)
    res = sp.ih_betti(hw, REG)
    # the degree-(2g-2) = 10 part exceeds the tautological dimension at even g
    from agcoh.tautring import graded_dimension
    assert res.betti[10] == graded_dimension(6, 10) + 1


def test_nu_decompose_examples():
    assert sp.nu_decompose(nu_character(2)) == [2]
    p2 = (LaurentPoly.t_power(1) + LaurentPoly.t_power(-1)) * \
        (LaurentPoly.t_power(2) + LaurentPoly.t_power(-2))
    assert sp.nu_decompose(p2) == [4]
    p3 = p2 * (LaurentPoly.t_power(3) + LaurentPoly.t_power(-3))
    assert sp.nu_decompose(p3) == [7, 1]
    assert sp.nu_decompose(LaurentPoly.zero(1)) == []
    with pytest.raises(ValueError):
        sp.nu_decompose(LaurentPoly.t_power(1))          # asymmetric
    with pytest.raises(ValueError):
        sp.nu_decompose(nu_character(3) - nu_character(1))   # negative count
    assert sp.nu_decompose(nu_character(4) + nu_character(1)) == [4, 1]
    assert sp.nu_decompose(3 * nu_character(2)) == [2, 2, 2]
    with pytest.raises(TypeError):   # a non-integral character cannot be built
        LaurentPoly(1, {(0,): Fraction(1, 2)})


# -- ih_betti ----------------------------------------------------------------------

def test_ih_betti_matches_taut_ring_small_rank():
    from agcoh.tautring import poincare_polynomial
    for g in range(1, 6):
        res = sp.ih_betti(HighestWeight(g, (0,) * g), REG)
        poincare = poincare_polynomial(g)
        assert list(res.betti) == [int(c) for c in
                                   poincare.coeff_list(0, g * (g + 1))]
        assert res.euler_characteristic() == 2 ** g


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
    holo = sp.hodge_diamond(sp.rho_psi(param, ("+",)))
    assert holo == {(11, 0): 1, (0, 11): 1}
    other = sp.hodge_diamond(sp.rho_psi(param, ("-",)))
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
