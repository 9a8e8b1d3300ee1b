import gc
import json
import math
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from agcoh import cli
from agcoh import proportionality as pr
from agcoh import tautring as tr
from agcoh.errors import InputError
from agcoh.exact import bareiss, double_factorial_odd, strict_partition_counts


def test_rewrite_examples():
    assert dict(tr.monomial(2, (2, 0)).items()) == {0b10: Fraction(2)}
    assert tr.monomial(2, (0, 2)).is_zero()
    assert tr.monomial(2, (2, 1)).is_zero()


def test_multiply_examples():
    assert tr.u(3, 1) * tr.u(3, 1) == tr.monomial(3, (2, 0, 0))
    x = tr.u(4, 2) + 3 * tr.u(4, 3) * tr.u(4, 1)
    assert tr.one(4) * x == x
    assert (tr.u(2, 1) * (tr.u(2, 1) * tr.u(2, 2))).is_zero()
    with pytest.raises(tr.GenusMismatchError):
        tr.u(2, 1) * tr.u(3, 1)


def test_coefficients_are_int_or_fraction():
    assert tr.RingElement(2, {0: Fraction(1, 10), 1: -3}).items() == \
        [(0, Fraction(1, 10)), (1, Fraction(-3))]
    # a float used to be stored as its binary expansion
    for c in (0.1, 1.0, True, "1"):
        with pytest.raises(TypeError, match="int or Fraction"):
            tr.RingElement(2, {0: c})
    x = tr.u(2, 1)
    assert x * Fraction(1, 2) == Fraction(1, 2) * x == tr.RingElement(2, {1: Fraction(1, 2)})
    for scalar in (0.5, True, "2", None):
        with pytest.raises(TypeError):
            x * scalar
        with pytest.raises(TypeError):
            scalar * x


def test_bitmasks_are_int():
    assert tr.RingElement(2, {3: 1}).items() == [(3, Fraction(1))]
    for mask in (1.5, 1.0, True, "1", Fraction(1)):
        with pytest.raises(TypeError, match="bitmasks must be int"):
            tr.RingElement(2, {mask: 1})


def test_ring_element_is_immutable():
    x = tr.u(2, 1)
    for name in ("g", "_coeffs", "extra"):
        with pytest.raises(AttributeError):
            setattr(x, name, 7)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x.g == 2 and x == tr.u(2, 1)


def test_add_and_mul_refuse_other_operands():
    x = tr.u(2, 1)
    for other in (1, Fraction(1, 2), 0.5, "u1", None):
        with pytest.raises(TypeError):
            x + other
        with pytest.raises(TypeError):
            other + x
        with pytest.raises(TypeError):
            x - other
    assert x.__add__(1) is NotImplemented
    assert x.__mul__(0.5) is NotImplemented and x.__mul__("2") is NotImplemented


def test_poincare_polynomial():
    p1 = tr.poincare_polynomial(1)
    assert p1.coeff_list(0, 2) == [Fraction(1), Fraction(0), Fraction(1)]
    p3 = tr.poincare_polynomial(3)
    assert p3.coeff_list(0, 12) == [Fraction(x) for x in
                                    (1, 0, 1, 0, 1, 0, 2, 0, 1, 0, 1, 0, 1)]
    for g in range(1, 13):
        assert tr.poincare_polynomial(g).evaluate_all_ones() == 2 ** g


def test_graded_dimensions_are_strict_partition_counts():
    for g in range(1, 31):
        p = tr.poincare_polynomial(g)
        assert p == oracles.poincare_product(g)
        counts = strict_partition_counts(g * (g + 1) // 2, g)
        assert p.coeff_list(0, g * (g + 1))[::2] == counts
        if g <= 8:
            for k, count in enumerate(counts):
                assert tr.graded_dimension(g, 2 * k) == count


def test_socle_pairing_examples():
    # the socle pairing <a, b> is the socle coefficient of the product a * b
    assert (tr.u(2, 1) * (tr.u(2, 1) * tr.u(2, 2))).coeff(0b11) == 0
    assert (tr.u(2, 1) * tr.u(2, 2)).coeff(0b11) == 1
    for g in (1, 2, 3, 5):
        assert (tr.one(g) * tr.socle(g)).coeff((1 << g) - 1) == 1
    assert (tr.u(2, 1) * tr.monomial(2, (2, 0))).coeff(0b11) == 2


def test_normal_form_linearity_rank_certification():
    # the normal forms of all monomials of degree <= g(g+1) span a space of
    # rank 2^g, certifying confluence of the rewrite system
    for g in range(1, 7):
        n = g * (g + 1) // 2
        rows = []

        def gen(i, rem, acc):
            if i == g:
                rows.append(tuple(acc))
                return
            for k in range(0, rem // (i + 1) + 1):
                acc.append(k)
                gen(i + 1, rem - k * (i + 1), acc)
                acc.pop()

        gen(0, n, [])
        dim = 1 << g
        mat = [[tr.monomial(g, e).coeff(m) for m in range(dim)]
               for e in rows]
        assert oracles.fraction_matrix_rank(mat) == dim


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.data())
def test_normal_form_is_linear(g, data):
    # sums of monomials are additive in their terms and agree with the
    # oracle's normal form of the whole formal polynomial
    exps = st.tuples(*([st.integers(0, 3)] * g))
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=4)
    e1 = data.draw(st.dictionaries(exps, coeff, max_size=3))
    e2 = data.draw(st.dictionaries(exps, coeff, max_size=3))
    merged = dict(e1)
    for k, v in e2.items():
        merged[k] = merged.get(k, Fraction(0)) + v

    def combine(expr):
        return sum((c * tr.monomial(g, e) for e, c in expr.items()), tr.RingElement(g))

    assert combine(merged) == combine(e1) + combine(e2) == oracles.normal_form(g, merged)


def test_pairing_matrices_nonsingular():
    # and equal, entry for entry, to the socle pairing of basis elements
    for g in range(1, 7):
        top = g * (g + 1)

        def basis(degree):
            return [tr.RingElement(g, {m: 1}) for m in range(1 << g)
                    if 2 * sum(tr.mask_to_subset(m)) == degree]

        for deg in range(0, top + 1, 2):
            m = tr.pairing_matrix(g, deg)
            assert len(m) == len(m[0])
            assert tr.matrix_rank(m) == len(m)
            assert m == [[(a * b).coeff((1 << g) - 1) for b in basis(top - deg)]
                         for a in basis(deg)], (g, deg)
            assert all(type(c) is int for row in m for c in row)


def test_socle_coefficient():
    for g in range(1, 6):
        full = (1 << g) - 1
        for exps in [(0,) * g, (1,) * g, (g * (g + 1) // 2,) + (0,) * (g - 1)]:
            want = dict(oracles.normal_form_monomial(g, exps)).get(full, 0)
            assert tr.monomial(g, exps).coeff(full) == want
    assert tr.monomial(2, (1, 1)).coeff(0b11) == 1
    assert tr.monomial(2, (3, 0)).coeff(0b11) == 2
    # the one exponent check refuses a bad vector as input, for both entries
    for exps in ((1, 1, 0), (-1, 2)):
        for entry in (tr.monomial, tr.compact_dual_degree):
            with pytest.raises(InputError, match=r"^need 2 nonnegative exponents, got "):
                entry(2, exps)
    # exponents are exactly ints: a float or a bool is never truncated
    for exps in ((1.5, 0), (True, 0), (1.0, 1.0)):
        with pytest.raises(TypeError, match="exponents must be integers"):
            tr.monomial(2, exps)
        with pytest.raises(TypeError, match="exponents must be integers"):
            pr.compact_dual_degree(2, exps)


def test_duality_shape():
    # pairing of complementary square-free monomials never vanishes
    for g in range(1, 8):
        full = (1 << g) - 1
        for mask in range(1 << g):
            a = tr.RingElement(g, {mask: Fraction(1)})
            b = tr.RingElement(g, {full ^ mask: Fraction(1)})
            assert (a * b).coeff(full) != 0, (g, mask)


def test_top_power_identity():
    for g in range(1, 7):
        n = g * (g + 1) // 2
        got = tr.monomial(g, (n,) + (0,) * (g - 1)).coeff((1 << g) - 1)
        expected = Fraction(math.factorial(n), double_factorial_odd(g))
        assert got == expected == oracles.top_power_coefficient(g)


def test_quotient_by_top():
    for g in range(2, 7):
        corr = tr.quotient_by_top(g)
        assert len(corr) == 2 ** (g - 1)
        assert all(corr[m] == m for m in corr)
    # relation u_1^2 = 0 in the quotient image of g=2
    proj = {m: c for m, c in tr.monomial(2, (2, 0)).items() if not m & 0b10}
    assert proj == {}  # u_1^2 = 2 u_2 dies when u_2 is set to zero
    assert tr.monomial(1, (2,)).is_zero()


def test_quotient_by_top_matches_all_pairs_oracle():
    for g in range(2, 7):
        assert tr.quotient_by_top(g) == oracles.quotient_by_top_all_pairs(g)


@pytest.fixture
def fresh_normal_forms():
    # start from empty memos, and leave no tampered or partial entries behind
    tr._ring.cache_clear()
    yield
    tr._ring.cache_clear()


@pytest.mark.parametrize("g, exps", [
    (3, (2, 0, 0)),     # u_1 * u_1, which projects to R_2
    (3, (0, 0, 2)),     # u_3 * u_3, zero in R_3
    (4, (1, 2, 0, 1)),  # u_2 * u_1 u_2 u_4, in the kernel (u_4)
    (4, (0, 1, 2, 0)),  # u_3 * u_2 u_3
])
def test_quotient_by_top_detects_a_wrong_generator_product(monkeypatch, fresh_normal_forms,
                                                           g, exps):
    # one generator product gains a constant term, which no projection drops;
    # normal forms are {bitmask: int} dicts, so the tampered one is too
    real = tr._packed_form
    key = tr._ring(g).pack(exps)
    wrong = dict(tr._normal_form_monomial(g, exps))
    wrong[0] = wrong.get(0, 0) + 1

    def tampered(ring, kk, degree):
        return wrong if (ring.g, kk) == (g, key) else real(ring, kk, degree)

    monkeypatch.setattr(tr, "_packed_form", tampered)
    with pytest.raises(AssertionError, match=rf"R_{g}/\(u_{g}\) differs"):
        tr.quotient_by_top(g)
    monkeypatch.undo()
    tr._ring.cache_clear()
    assert tr.quotient_by_top(g) == {m: m for m in range(1 << (g - 1))}


def test_work_bound_counts_the_entries_kept(monkeypatch, fresh_normal_forms):
    g, power = 6, (21, 0, 0, 0, 0, 0)
    want = oracles.top_power_coefficient(g)
    assert tr.monomial(g, power).coeff((1 << g) - 1) == want
    kept = len(tr._ring(g).socle)
    tr._ring.cache_clear()
    monkeypatch.setattr(tr, "_MEMO_BOUND", kept)  # exactly enough
    assert pr.compact_dual_degree(g, power) == want
    tr._ring.cache_clear()
    monkeypatch.setattr(tr, "_MEMO_BOUND", kept - 1)
    with pytest.raises(InputError, match=rf"^work bound: .* R_{g} .* {kept - 1} monomials"):
        pr.compact_dual_degree(g, power)
    # kept entries and keys waiting on the stack count together, so the
    # refusal comes before the memo itself reaches the bound
    assert len(tr._ring(g).socle) < kept - 1
    # the memo below the top degree is bounded alike
    monkeypatch.setattr(tr, "_MEMO_BOUND", 3)
    with pytest.raises(InputError, match="^work bound"):
        tr.monomial(g, (12, 0, 0, 0, 0, 0))
    assert len(tr._ring(g).forms) < 3


def test_work_bound_is_a_usage_error(monkeypatch, fresh_normal_forms):
    monkeypatch.setattr(tr, "_MEMO_BOUND", 50)
    code, out, err = cli.run(["intersect", "--g", "6", "--exponents", "21,0,0,0,0,0"])
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["type"] == "usage" and error["message"].startswith("work bound: ")
    monkeypatch.undo()
    tr._ring.cache_clear()
    code, out, err = cli.run(["intersect", "--g", "6", "--exponents", "21,0,0,0,0,0"])
    assert code == 0 and json.loads(out)["result"]["compact_dual_degree"] == \
        str(oracles.top_power_coefficient(6))


@pytest.mark.parametrize("g", [60, 100, 200])
def test_deep_rewrite_chains_reach_the_work_bound(monkeypatch, fresh_normal_forms, g):
    # lambda_1^N rewrites through a chain far deeper than Python's recursion
    # limit; the explicit stack reaches the work bound instead (exit 2, not 5)
    n = g * (g + 1) // 2
    monkeypatch.setattr(tr, "_MEMO_BOUND", 2000)
    code, out, err = cli.run(["intersect", "--g", str(g), "--exponents",
                              ",".join([str(n)] + ["0"] * (g - 1))])
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["type"] == "usage" and error["message"].startswith("work bound: ")
    with pytest.raises(InputError, match="^work bound"):  # below the top degree
        tr.monomial(g, (n - 1,) + (0,) * (g - 1))
    assert len(tr._ring(g).socle) < 2000 and len(tr._ring(g).forms) < 2000


def test_normal_forms_match_oracle_on_basis_pairs():
    # every product of two basis monomials, g <= 7, as normal forms and as
    # RingElement products
    for g in range(1, 8):
        basis = [tr.RingElement(g, {m: 1}) for m in range(1 << g)]
        for m1 in range(1 << g):
            for m2 in range(m1, 1 << g):
                exps = oracles.pair_exps(g, m1, m2)
                want = oracles.normal_form_monomial(g, exps)
                assert tr._normal_form_monomial(g, exps) == want, (g, m1, m2)
                assert (basis[m1] * basis[m2]).items() == \
                    [(m, Fraction(c)) for m, c in want], (g, m1, m2)


def test_normal_forms_match_oracle_on_random_exponents():
    # entries 0-4; most such monomials lie above the top degree and vanish,
    # so draws continue until 100 per genus lie within it
    rng = random.Random(11)
    for g in range(1, 8):
        within = 0
        while within < 100:
            exps = tuple(rng.randint(0, 4) for _ in range(g))
            within += sum(i * e for i, e in enumerate(exps, start=1)) <= g * (g + 1) // 2
            want = oracles.normal_form_monomial(g, exps)
            assert tr._normal_form_monomial(g, exps) == want, (g, exps)
            assert tr.monomial(g, exps).items() == [(m, Fraction(c)) for m, c in want]


def test_memos_shared_by_threads_keep_only_correct_entries(fresh_normal_forms):
    # eight threads race from empty memos on one genus, each in its own order
    g = 7
    pairs = [(m1, m2) for m1 in range(1 << g) for m2 in range(m1, 1 << g)][::4]
    want = {p: oracles.normal_form_monomial(g, oracles.pair_exps(g, *p)) for p in pairs}
    errors = []

    def work(seed):
        order = random.Random(seed).sample(pairs, len(pairs))
        for m1, m2 in order:
            if tr._normal_form_monomial(g, oracles.pair_exps(g, m1, m2)) != want[m1, m2]:
                errors.append((seed, m1, m2))

    threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    # every stored entry, intermediate vectors included, is the oracle's
    ring = tr._ring(g)
    digit = (1 << ring.width) - 1

    def oracle(key):
        return oracles.normal_form_monomial(g, tuple(key >> ring.width * i & digit
                                                     for i in range(g)))

    assert ring.forms and ring.socle
    assert all(form == dict(oracle(key)) for key, form in ring.forms.items())
    assert all(dict(oracle(key)).get(ring.full, 0) == value for key, value in ring.socle.items())


def test_normal_form_memo_holds_untracked_int_dicts(fresh_normal_forms):
    # below the top degree each kept form is {bitmask: nonzero int}, a dict
    # the cyclic GC does not track
    tr.quotient_by_top(6)
    g = 7
    rng = random.Random(7)
    for _ in range(20):
        a, b = (tr.RingElement(g, {rng.randrange(1 << g): rng.randint(-3, 3) or 1
                                   for _ in range(4)}) for _ in range(2))
        a * b  # keeps the forms of products below the top degree
    for ring in (tr._ring(5), tr._ring(6), tr._ring(g)):
        assert ring.forms
        for form in ring.forms.values():
            assert type(form) is dict and not gc.is_tracked(form)
            assert all(type(m) is int and 0 <= m < 1 << ring.g for m in form)
            assert all(type(c) is int and c != 0 for c in form.values())
    exps = (3, 1, 0, 0, 0, 0, 0)
    got = tr._normal_form_monomial(g, exps)
    assert type(got) is tuple and got == oracles.normal_form_monomial(g, exps)
    assert got == tuple(sorted(tr._ring(g).forms[tr._ring(g).pack(exps)].items()))


def test_mask_by_bit_scan_matches_a_digit_read():
    rng = random.Random(12)
    for g in range(1, 13):
        ring = tr._ring(g)

        def naive(key):
            return sum(1 << i for i in range(g) if key >> ring.width * i & 1)

        for mask in [0, ring.full] + [rng.randrange(1 << g) for _ in range(50)]:
            key = ring.pack(tuple(mask >> i & 1 for i in range(g)))
            assert ring._mask(key) == naive(key) == mask, (g, mask)


def test_normal_forms_match_oracle_on_sampled_pairs_at_genus_8():
    # g <= 7 is exhaustive above; here index sums fall above, at and below N
    g, top = 8, 36
    rng = random.Random(8)
    sides = {-1: 0, 0: 0, 1: 0}
    for _ in range(500):
        m1, m2 = rng.randrange(1 << g), rng.randrange(1 << g)
        exps = oracles.pair_exps(g, m1, m2)
        want = oracles.normal_form_monomial(g, exps)
        assert tr._normal_form_monomial(g, exps) == want, (m1, m2)
        product = tr.RingElement(g, {m1: 1}) * tr.RingElement(g, {m2: 1})
        assert product.items() == [(m, Fraction(c)) for m, c in want], (m1, m2)
        index_sum = sum(tr.mask_to_subset(m1)) + sum(tr.mask_to_subset(m2))
        sides[(index_sum > top) - (index_sum < top)] += 1
    assert all(sides.values()), sides


@st.composite
def rational_elements(draw, g):
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=12)
    return draw(st.dictionaries(st.integers(0, (1 << g) - 1), coeff, max_size=5))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.data())
def test_products_match_fraction_oracle(g, data):
    a = data.draw(rational_elements(g))
    b = data.draw(rational_elements(g))
    got = tr.RingElement(g, a) * tr.RingElement(g, b)
    want = oracles.fraction_product(g, a, b)
    assert dict(got.items()) == want
    assert repr(got.items()) == repr(sorted(want.items()))
    assert all(type(c) is Fraction for _, c in got.items())
    assert got == tr.RingElement(g, want)


def gauss_jordan_rank(rows):
    """Independent oracle: rank over Q by Gauss-Jordan elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [c * inv for c in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


@st.composite
def planted_matrices(draw):
    """Random rational rows plus rational combinations of them, shuffled;
    returns the matrix and the number of drawn (not planted) rows."""
    ncols = draw(st.integers(0, 6))
    entry = st.fractions(min_value=-6, max_value=6, max_denominator=5)
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    base = draw(st.lists(row, max_size=5))
    rows = list(base)
    if base:
        for _ in range(draw(st.integers(0, 4))):
            weights = draw(st.lists(entry, min_size=len(base), max_size=len(base)))
            rows.append([sum((w * r[j] for w, r in zip(weights, base)), Fraction(0))
                         for j in range(ncols)])
    return draw(st.permutations(rows)), len(base)


@settings(max_examples=60, deadline=None)
@given(planted_matrices())
def test_matrix_rank_matches_gauss_jordan(case):
    rows, drawn = case
    rank = oracles.fraction_matrix_rank(rows)
    assert rank == gauss_jordan_rank(rows)
    assert rank <= drawn
    # the whole matrix scaled to integers has the same rank, and
    # tautring.matrix_rank leaves it as it was
    den = math.lcm(*(c.denominator for row in rows for c in row))
    ints = [[int(c * den) for c in row] for row in rows]
    copy = [row[:] for row in ints]
    assert tr.matrix_rank(ints) == rank
    assert ints == copy


@pytest.fixture
def bareiss_calls(monkeypatch):
    calls = []

    def counted(rows):
        calls.append(rows)
        return bareiss(rows)

    monkeypatch.setattr(tr, "bareiss", counted)
    return calls


@pytest.mark.parametrize("rows, rank", [
    ([[2]], 1),
    ([[2, 0], [0, 2]], 2),
    ([[1, 1], [1, -1]], 2),
    ([[3, 1], [1, 3]], 2),
    ([[2, 4, 6]], 1),
    ([[0, 0], [0, 0]], 0),
    ([[1, 2], [2, 4]], 1),
])
def test_matrix_rank_falls_back_to_bareiss_below_full_rank_mod_2(bareiss_calls, rows, rank):
    # the mod-2 rank falls short of min(rows, columns), so only Bareiss can answer
    copy = [row[:] for row in rows]
    assert tr.matrix_rank(rows) == rank == oracles.fraction_matrix_rank(rows)
    assert rows == copy and len(bareiss_calls) == 1 and bareiss_calls[0] is not rows


@pytest.mark.parametrize("rows, rank", [
    ([], 0),
    ([[], [], []], 0),
    ([[1]], 1),
    ([[-3]], 1),
    ([[1, 0, 1, 5], [0, 1, 1, -2]], 2),         # wide
    ([[1, 0], [0, 1], [1, 1], [7, -4]], 2),     # tall
    ([[2, 1, 0], [1, 1, 1], [0, 1, 3]], 3),
])
def test_matrix_rank_certified_mod_2_skips_bareiss(bareiss_calls, rows, rank):
    copy = [row[:] for row in rows]
    assert tr.matrix_rank(rows) == rank
    assert rows == copy and bareiss_calls == []
    if rows and rows[0]:
        assert oracles.fraction_matrix_rank(rows) == rank


def test_pairing_ranks_need_no_bareiss(monkeypatch):
    # every pairing matrix for g <= 11 (297 of them) has full rank mod 2, so
    # the certificate alone gives its rank, the graded dimension
    def refuse(rows):
        raise AssertionError("bareiss reached")

    monkeypatch.setattr(tr, "bareiss", refuse)
    for g in range(1, 12):
        for degree in range(0, g * (g + 1) + 1, 2):
            rank = tr.matrix_rank(tr.pairing_matrix(g, degree))
            assert rank == tr.graded_dimension(g, degree), (g, degree)


def test_pairing_matrices_are_unitriangular_on_complements():
    # with rows u_S (ascending masks) and columns the complements u_{S^c} in
    # the same order, the pairing matrix is upper unitriangular, so its
    # determinant is +-1 and it has full rank mod 2
    for g in range(1, 12):
        ring = tr._ring(g)
        for degree in range(0, g * (g + 1) + 1, 2):
            left = ring.by_index_sum[degree // 2]
            right = ring.by_index_sum[ring.top - degree // 2]
            matrix = tr.pairing_matrix(g, degree)
            column = {m: j for j, m in enumerate(right)}
            matched = [[row[column[ring.full ^ m]] for m in left] for row in matrix]
            for i, row in enumerate(matched):
                assert row[i] == 1 and not any(row[:i]), (g, degree, i)


def test_matrix_rank_takes_int_entries_only():
    assert tr.matrix_rank([[1, 2], [2, 4]]) == 1
    for bad in (Fraction(1), Fraction(1, 2), 1.0, True, "1"):
        with pytest.raises(TypeError, match="must be int"):
            tr.matrix_rank([[1, 2], [bad, 4]])
