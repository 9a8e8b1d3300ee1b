import random
import time
from fractions import Fraction

import pytest

from agcoh import torsion
from agcoh.errors import InputError
from agcoh.exact import bareiss, euler_phi
from agcoh.symplectic import HighestWeight, weyl_dimension
from agcoh.torsion import (TorsionClass, _jacobi_trudi_rows, character_at_torsion,
                           enumerate_torsion_classes)
from oracles import (NonIntegralCharacterError, chosen_eigenvalue_exponents,
                     class_exponents, dominant_rep, freudenthal, h_series,
                     oracle_character, orbit_expansion, orbit_size,
                     weight_sum_character)


def dominant_weights(g, max_size):
    """Every dominant weight of rank g with |lambda| <= max_size."""
    def extend(i, prev, left):
        if i == g:
            yield ()
            return
        for v in range(min(prev, left), -1, -1):
            for rest in extend(i + 1, v, left - v):
                yield (v,) + rest
    return list(extend(0, max_size, max_size))


def test_highest_weight_validation():
    hw = HighestWeight(3, (4, 2, 2))
    assert hw.weight == 8
    assert hw.tau == (7, 4, 3)
    with pytest.raises(ValueError):
        HighestWeight(2, (1, 2))
    with pytest.raises(ValueError):
        HighestWeight(2, (1,))
    with pytest.raises(ValueError):
        HighestWeight(2, (1, -1))
    # entries are ints by type: nothing is truncated or parsed
    for lam in ((2.7, 0.9), ("4",), (True,), (2, Fraction(2))):
        with pytest.raises(TypeError, match="must be integers"):
            HighestWeight(len(lam), lam)


def test_weyl_dimension_examples():
    assert weyl_dimension(HighestWeight(3, (0, 0, 0))) == 1
    assert weyl_dimension(HighestWeight(2, (1, 0))) == 4
    assert weyl_dimension(HighestWeight(2, (1, 1))) == 5
    assert weyl_dimension(HighestWeight(1, (2,))) == 3
    # rank-3 adjoint representation: dimension 21
    assert weyl_dimension(HighestWeight(3, (2, 0, 0))) == 21


def test_weight_system_examples():
    ws = freudenthal(HighestWeight(1, (2,)))
    assert orbit_expansion(ws) == {(2,): 1, (0,): 1, (-2,): 1}
    ws = freudenthal(HighestWeight(2, (1, 0)))
    assert orbit_expansion(ws) == {(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1}
    ws = freudenthal(HighestWeight(2, (1, 1)))
    assert orbit_expansion(ws) == {(1, 1): 1, (1, -1): 1, (-1, 1): 1, (-1, -1): 1,
                                   (0, 0): 1}


@pytest.mark.parametrize("g,lam", [
    (1, (6,)), (2, (3, 1)), (2, (4, 4)), (3, (2, 1, 1)), (3, (3, 2, 0)),
    (4, (2, 1, 1, 0)), (5, (1, 1, 0, 0, 0)),
])
def test_weight_mass_equals_weyl_dimension(g, lam):
    hw = HighestWeight(g, lam)
    ws = freudenthal(hw)
    assert sum(orbit_expansion(ws).values()) == weyl_dimension(hw) == \
        sum(orbit_size(mu) * m for mu, m in ws.items())


def test_weight_system_weyl_invariance():
    ws = freudenthal(HighestWeight(3, (2, 1, 1)))
    full = orbit_expansion(ws)
    rng = random.Random(7)
    for vec, mult in list(full.items())[:50]:
        perm = list(vec)
        rng.shuffle(perm)
        flipped = tuple(v * rng.choice((1, -1)) for v in perm)
        assert full[flipped] == ws[dominant_rep(flipped)] == mult


def test_character_at_central_elements():
    for g, lam in [(1, (2,)), (2, (1, 1)), (2, (3, 1)), (3, (2, 1, 1))]:
        hw = HighestWeight(g, lam)
        dim = weyl_dimension(hw)
        iden = TorsionClass(((1, 2 * g),))
        neg = TorsionClass(((2, 2 * g),))
        assert character_at_torsion(hw, iden) == dim
        assert character_at_torsion(hw, neg) == (-1) ** hw.weight * dim


def test_character_example_order_four():
    assert character_at_torsion(HighestWeight(1, (2,)), TorsionClass(((4, 1),))) == -1


def test_character_degree_mismatch():
    with pytest.raises(ValueError):
        character_at_torsion(HighestWeight(2, (1, 0)), TorsionClass(((4, 1),)))
    # an index past 2(2g)^2 is refused before any totient: 30030 at g = 1,
    # and 10**14 + 31, whose totient would trial-divide up to 10**7
    cls = TorsionClass(((30030, 1),))
    with pytest.raises(ValueError, match=r"^class 30030\^1 has cyclotomic index "
                                         r"30030 > 8, so its degree exceeds 2$"):
        character_at_torsion(HighestWeight(1, (2,)), cls)
    huge = TorsionClass(((10**14 + 31, 1),))
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"cyclotomic index 100000000000031 > 8,"):
        character_at_torsion(HighestWeight(1, (2,)), huge)
    assert time.perf_counter() - start < 0.1 and huge._hseries == ()
    # inside the bound (30,752 at g = 62) the degree is a sum of totients:
    # P_c of a large index (Phi_30030 has degree 5760) is never built, nor is
    # any h-series
    with pytest.raises(ValueError,
                       match="^class degree 5760 does not match group rank 124$"):
        character_at_torsion(HighestWeight(62, (2,) + (0,) * 61), cls)
    assert cls._hseries == ()


def test_character_choice_independence():
    # permuting eigenvalue exponents and inverting pairs leaves the value alone
    rng = random.Random(3)
    hw = HighestWeight(2, (2, 2))
    full = orbit_expansion(freudenthal(hw))
    for cls in enumerate_torsion_classes(2):
        exps, order = class_exponents(cls)
        reference = weight_sum_character(full, exps, order)
        assert reference == character_at_torsion(hw, cls)
        for _ in range(4):
            variant = [e if rng.random() < 0.5 else (-e) % order for e in exps]
            rng.shuffle(variant)
            assert weight_sum_character(full, variant, order) == reference


def test_character_negation_factorization():
    for g, lam in [(1, (3,)), (2, (2, 1)), (2, (2, 2))]:
        hw = HighestWeight(g, lam)
        for cls in enumerate_torsion_classes(g):
            lhs = character_at_torsion(hw, cls.negate())
            rhs = (-1) ** hw.weight * character_at_torsion(hw, cls)
            assert lhs == rhs, (g, lam, cls.encode())


def test_character_values_are_integers_galois_stable():
    # the oracle's weight sum reduces to a rational integer (it raises
    # NonIntegralCharacterError otherwise) and the determinant is that integer
    hw = HighestWeight(3, (1, 1, 0))
    full = orbit_expansion(freudenthal(hw))
    for cls in enumerate_torsion_classes(3, mod_negation=True):
        value = character_at_torsion(hw, cls)
        assert type(value) is int
        assert value == oracle_character(full, cls)


def test_non_integral_character_detection():
    # an order-5 pair in rank 1 has trace zeta_5 + zeta_5^{-1}, which is a
    # quadratic irrationality: the spectrum is not symplectic of rank 1
    full = orbit_expansion(freudenthal(HighestWeight(1, (1,))))
    with pytest.raises(NonIntegralCharacterError):
        weight_sum_character(full, [1], 5)


def test_h_series_bound_guard(monkeypatch):
    # the elliptic path is bounded by its h-series length lambda_1 + l(lambda),
    # not by dim V_lambda: check the guard at a small bound
    monkeypatch.setattr(torsion, "H_SERIES_BOUND", 6)
    cls = TorsionClass(((1, 4),))
    assert character_at_torsion(HighestWeight(2, (4, 2)), cls) == \
        weyl_dimension(HighestWeight(2, (4, 2)))
    with pytest.raises(InputError, match=r"^work bound: lambda_1 \+ l\(lambda\) = 7 "
                                         "exceeds the h-series bound 6$"):
        character_at_torsion(HighestWeight(2, (5, 2)), cls)
    with pytest.raises(InputError, match="h-series bound 6"):
        character_at_torsion(HighestWeight(2, (6, 0)), cls)


def test_h_series_bound_raises_on_every_call(monkeypatch):
    # an over-bound weight stores nothing, so a second call checks again
    monkeypatch.setattr(torsion, "H_SERIES_BOUND", 6)
    hw = HighestWeight(2, (5, 2))
    for cls in (TorsionClass(((1, 4),)), TorsionClass(((3, 1), (4, 1)))):
        for _ in range(2):
            with pytest.raises(InputError, match="h-series bound 6"):
                character_at_torsion(hw, cls)
    # the degree check still comes first, on every call
    with pytest.raises(ValueError, match="does not match group rank"):
        character_at_torsion(hw, TorsionClass(((4, 1),)))


def test_index_rows_shared_by_classes_match_fresh_weights():
    # one weight's characters over every class of its rank, in both orders
    # of a sweep, equal those of a weight built for each call
    for g, lams in ((1, [(0,), (1,), (6,)]), (2, [(0, 0), (3, 1), (4, 4)]),
                    (3, [(2, 1, 1), (5, 0, 0), (3, 3, 2)])):
        classes = enumerate_torsion_classes(g)
        for lam in lams:
            shared = HighestWeight(g, lam)
            for cls in classes + classes[::-1]:
                assert character_at_torsion(shared, cls) == \
                    character_at_torsion(HighestWeight(g, lam), cls), (lam, cls.encode())
            with pytest.raises(ValueError, match="does not match group rank"):
                character_at_torsion(shared, TorsionClass(((1, 2 * g + 2),)))


@pytest.mark.parametrize("g,max_size", [(1, 8), (2, 8), (3, 8), (4, 4), (5, 3)])
def test_jacobi_trudi_matches_weight_sum_oracle(g, max_size):
    classes = enumerate_torsion_classes(g)
    for lam in dominant_weights(g, max_size):
        hw = HighestWeight(g, lam)
        full = orbit_expansion(freudenthal(hw))
        for cls in classes:
            assert character_at_torsion(hw, cls) == oracle_character(full, cls), \
                (lam, cls.encode())


def _jacobi_trudi_matrix(lam, cls):
    """M of the torsion module docstring, l(lambda) x l(lambda), from the
    class's h-series."""
    lam = [part for part in lam if part]
    if not lam:
        return []
    series = h_series(cls, lam[0] + len(lam))

    def h(k):
        return series[k] if k >= 0 else 0
    return [[h(part - i + 1)] + [h(part - i + j) + h(part - i - j + 2)
                                 for j in range(2, len(lam) + 1)]
            for i, part in enumerate(lam, start=1)]


def test_length_four_closed_form_matches_bareiss():
    # the 4x4 Laplace expansion against Bareiss on the same matrix, for every
    # class of ranks 4 and 5 and every lambda with l(lambda) = 4, |lambda| <= 7
    # (from |lambda| = 7 on, the first column is nonzero below its second row)
    for g in (4, 5):
        lams = [lam for lam in dominant_weights(g, 7) if sum(1 for p in lam if p) == 4]
        assert lams
        for cls in enumerate_torsion_classes(g):
            for lam in lams:
                want = bareiss(_jacobi_trudi_matrix(lam, cls))[1]
                assert character_at_torsion(HighestWeight(g, lam), cls) == want, \
                    (lam, cls.encode())


@pytest.mark.parametrize("length", range(6))
def test_character_sum_matches_weighted_bareiss(length):
    # the kernel of elliptic_term against sum n det M, M built explicitly and
    # reduced by Bareiss, on seeded weighted classes of ranks l(lambda) and 5
    rng = random.Random(length)
    for g in sorted({max(length, 1), 5}):
        classes = enumerate_torsion_classes(g)
        for _ in range(4):
            parts = sorted((rng.randint(1, 4) for _ in range(length)), reverse=True)
            hw = HighestWeight(g, tuple(parts) + (0,) * (g - length))
            weighted = [(cls, rng.choice((0, rng.randint(-9, 9), rng.randint(-10**30, 10**30))))
                        for cls in rng.sample(classes, min(40, len(classes)))]
            want = sum(n * bareiss(_jacobi_trudi_matrix(hw.lam, cls))[1] for cls, n in weighted)
            plan = _jacobi_trudi_rows(hw)
            assert torsion._character_sum(plan, weighted) == want, hw
            assert torsion._character_sum(plan, weighted[:1]) == \
                weighted[0][1] * character_at_torsion(hw, weighted[0][0])
            assert torsion._character_sum(plan, []) == 0


def test_lengths_up_to_four_need_no_bareiss(monkeypatch):
    # a rank-4 sweep over l(lambda) <= 4 runs on the closed forms alone
    classes = enumerate_torsion_classes(4)
    lams = dominant_weights(4, 5)
    want = {(lam, cls): character_at_torsion(HighestWeight(4, lam), cls)
            for lam in lams for cls in classes}

    def refuse(rows):
        raise AssertionError("bareiss called")
    monkeypatch.setattr(torsion, "bareiss", refuse)
    for lam in lams:
        hw = HighestWeight(4, lam)
        for cls in classes:
            assert character_at_torsion(hw, TorsionClass(cls.pairs)) == want[lam, cls]
    with pytest.raises(AssertionError, match="bareiss called"):
        character_at_torsion(HighestWeight(5, (1, 1, 1, 1, 1)), TorsionClass(((1, 10),)))


def test_eigenvalue_exponents_cover_pairs():
    for g in (1, 2, 3):
        for cls in enumerate_torsion_classes(g):
            chosen = chosen_eigenvalue_exponents(cls)
            assert len(chosen) == g
            for k, d in chosen:
                assert 0 <= k <= d // 2
                if d >= 3:
                    assert 0 < k < d / 2 and euler_phi(d) % 2 == 0
