import json

import pytest

from agcoh import arthur as ar
from agcoh.symplectic import HighestWeight
from oracles import set_enumerate_parameters

OO, OE, S = ar.BlockKind.ODD_ORTHOGONAL, ar.BlockKind.EVEN_ORTHOGONAL, \
    ar.BlockKind.SYMPLECTIC

# published classification tables for the trivial system, ranks 6..11
TABLE_SHAPES = {
    6: {"D11[2]+[9]"},
    7: {"D11[4]+[7]"},
    8: {"D11[6]+[5]", "D15[2]+D11[2]+[9]", "D15[2]+[13]"},
    9: {"D11[8]+[3]", "D17[2]+D11[4]+[7]", "D17[2]+[15]", "D15[4]+[11]"},
    10: {"D19,7[2]+D15[2]+D11[2]+[5]", "D19[2]+D11[6]+[5]", "D11[10]+[1]",
         "D19[2]+[17]", "D19[2]+D15[2]+D11[2]+[9]", "D15[6]+[9]",
         "D17[4]+D11[2]+[9]", "D19[2]+D15[2]+[13]", "D17[4]+[13]"},
    11: {"D21[2]+[19]", "D21[2]+D11[8]+[3]", "D21,5[2]+D17[2]+D11[4]+[3]",
         "D21[2]+D17[2]+D11[4]+[7]", "D19[4]+D11[4]+[7]", "D21,9[2]+D15[4]+[7]",
         "D15[8]+[7]", "D21[2]+D17[2]+[15]", "D19[4]+[15]",
         "D11[10]+Sym2D11", "D17[6]+[11]", "D21[2]+D15[4]+[11]",
         "D21,13[2]+D17[2]+[11]"},
}


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


# -- building blocks and registry ----------------------------------------------

def test_block_validation():
    with pytest.raises(ValueError):
        ar.BuildingBlock(S, (10,), 1)        # symplectic weights must be odd
    with pytest.raises(ValueError):
        ar.BuildingBlock(OO, (11,), 1)       # orthogonal weights must be even
    with pytest.raises(ValueError):
        ar.BuildingBlock(OE, (8,), 1)        # even orthogonal needs even count
    with pytest.raises(ValueError):
        ar.BuildingBlock(S, (5, 7), 1)       # strictly decreasing
    # parity emptiness: one odd-orthogonal weight must be odd
    with pytest.raises(ValueError):
        ar.BuildingBlock(OO, (8,), 1)
    assert ar.BuildingBlock(OO, (8,), 0).cardinality == 0


@pytest.mark.parametrize("weights", [(23.9,), (23.0,), ("23",), (True,), (25, 23.0)])
def test_block_refuses_non_integer_weights(weights):
    # nothing is truncated: (23.9,) used to become S(23)
    with pytest.raises(TypeError, match="integers"):
        ar.BuildingBlock(S, weights, 1)
    assert ar.BuildingBlock(S, (25, 23), 1).doubled_weights == (25, 23)


def test_block_labels_and_dimensions():
    reg = ar.Registry.builtin()
    d11 = reg.lookup(S, (11,))
    assert d11.label == "D11" and d11.standard_dimension == 2
    sym2 = reg.lookup(OO, (22,))
    assert sym2.label == "Sym2D11" and sym2.standard_dimension == 3
    triv = reg.lookup(OO, ())
    assert triv.is_trivial and triv.standard_dimension == 1
    unnamed = reg.lookup(S, (13,))
    assert unnamed.cardinality == 0 and unnamed.label == "S(13)"


def test_registry_lookup_and_bound():
    reg = ar.Registry.builtin()
    assert reg.lookup(S, (21, 13)).cardinality == 1
    assert reg.lookup(S, (21, 7)).cardinality == 0
    assert reg.lookup(OE, (10, 4)).cardinality == 0
    # parity-violating blocks are empty even beyond the bound
    assert reg.lookup(OO, (24,), ).cardinality == 0
    with pytest.raises(ar.RegistryIncompleteError):
        reg.lookup(S, (23,))
    # weights are ints by type: (11.7,) used to find the real block D11
    for weights in ((11.7,), (11.0,), ("11",), (True,), (21, 13.0)):
        with pytest.raises(TypeError, match="is not an integer"):
            reg.lookup(S, weights)
    assert reg.center_status(S, 11) == "viable"
    assert reg.center_status(S, 13) == "viable"     # via D21,13
    assert reg.center_status(S, 3) == "dead"
    assert reg.center_status(S, 23) == "unknown"
    assert reg.center_status(OE, 10) == "dead"


def test_registry_builds_empty_blocks():
    reg = ar.Registry.builtin()
    for kind, weights in ((S, (13,)), (OE, (10, 4)), (OO, (24,)), (S, (21, 7))):
        block = reg.lookup(kind, weights)
        assert block.cardinality == 0
        assert block.kind is kind
        assert reg.lookup(kind, weights[::-1]) == block
    # past the bound every lookup raises
    for _ in range(3):
        with pytest.raises(ar.RegistryIncompleteError):
            reg.lookup(S, (23,))
        with pytest.raises(ar.RegistryIncompleteError):
            reg.lookup(S, (25, 13))
    # an extension returns the block it ingested, and its base is unchanged
    assert reg.lookup(S, (13,)).names == ()
    extended = reg.with_records([
        {"kind": "symplectic", "doubled_weights": [13], "cardinality": 0,
         "names": ["X13"]},
        {"kind": "symplectic", "doubled_weights": [23], "cardinality": 2}])
    assert extended.lookup(S, (13,)).names == ("X13",)
    assert extended.lookup(S, (23,)).cardinality == 2
    assert reg.lookup(S, (13,)).names == ()
    with pytest.raises(ar.RegistryIncompleteError):
        reg.lookup(S, (23,))


def test_empty_lookups_leave_the_registry_unchanged():
    # parity-violating blocks are empty at any size, past the bound included
    reg = ar.Registry.builtin()
    before = repr(vars(reg))
    for w in range(24, 40_021, 4):
        assert reg.lookup(OO, (w,)).cardinality == 0
    assert repr(vars(reg)) == before


def test_ingest_examples():
    reg = ar.Registry.builtin()
    extended = ar.ingest_cardinalities(json.dumps([
        {"kind": "symplectic", "doubled_weights": [23], "cardinality": 2},
    ]), reg)
    assert extended.lookup(S, (23,)).cardinality == 2
    assert extended.center_status(S, 23) == "viable"
    with pytest.raises(ar.RegistryConflictError):
        ar.ingest_cardinalities(json.dumps([
            {"kind": "symplectic", "doubled_weights": [11], "cardinality": 2},
        ]), reg)
    with pytest.raises(ar.RegistryConflictError):
        # odd-orthogonal parity violation with nonzero cardinality
        ar.ingest_cardinalities(json.dumps([
            {"kind": "odd_orthogonal", "doubled_weights": [24], "cardinality": 1},
        ]), reg)
    # restating a built-in identically is harmless
    same = ar.ingest_cardinalities(json.dumps([
        {"kind": "symplectic", "doubled_weights": [11], "cardinality": 1},
    ]), reg)
    assert same.lookup(S, (11,)).cardinality == 1


@pytest.mark.parametrize("field, value", [
    ("doubled_weights", [23.9]), ("doubled_weights", ["25"]),
    ("doubled_weights", [True]), ("doubled_weights", "25"),
    ("cardinality", 1.7), ("cardinality", "1"), ("cardinality", True),
    ("field_degree", 2.0), ("field_degree", "2"), ("field_degree", False)])
def test_ingest_refuses_non_integer_fields(field, value):
    # JSON integers only: nothing is truncated, parsed or read as 0/1
    record = {"kind": "symplectic", "doubled_weights": [25], "cardinality": 1,
              field: value}
    with pytest.raises(ar.RegistryConflictError, match="malformed"):
        ar.ingest_cardinalities(json.dumps([record]))
    record[field] = [25] if field == "doubled_weights" else 1
    assert ar.ingest_cardinalities(json.dumps([record])).lookup(S, (25,)).cardinality == 1


@pytest.mark.parametrize("names", ["Delta25", [5], ["Delta25", None], {"Delta25": 1},
                                   ("Delta25",)])
def test_ingest_refuses_names_that_are_not_a_list_of_strings(names):
    # a bare string used to be stored as its characters
    record = {"kind": "symplectic", "doubled_weights": [25], "cardinality": 1, "names": names}
    with pytest.raises(ar.RegistryConflictError, match="malformed"):
        ar.ingest_cardinalities([record])
    record["names"] = ["Delta25"]
    block = ar.ingest_cardinalities([record]).lookup(S, (25,))
    assert block.names == ("Delta25",) and block.label == "Delta25"
    del record["names"]
    assert ar.ingest_cardinalities([record]).lookup(S, (25,)).names == ()


# -- weight blocks ---------------------------------------------------------------

def test_weight_block_examples():
    assert ar.weight_block(S, (11,), 2) == {6, 5}
    assert ar.weight_block(OO, (), 9) == {4, 3, 2, 1}
    assert ar.weight_block(OO, (22,), 1) == {11}
    with pytest.raises(ValueError):
        ar.weight_block(S, (11,), 3)        # symplectic needs even d
    with pytest.raises(ValueError):
        ar.weight_block(OE, (10, 4), 2)     # orthogonal needs odd d
    with pytest.raises(ValueError):
        ar.weight_block(S, (1,), 2)         # run {0, 1} leaves the positives
    with pytest.raises(ValueError):
        ar.weight_block(S, (5, 3), 2)       # runs {3,2} and {2,1} collide


# -- enumeration -----------------------------------------------------------------

def test_trivial_system_counts_and_tables():
    reg = ar.Registry.builtin()
    expected_counts = [1, 1, 1, 1, 1, 2, 2, 4, 5, 10, 14]
    for g, want in zip(range(1, 12), expected_counts):
        hw = HighestWeight(g, (0,) * g)
        params = ar.enumerate_parameters(hw, reg)
        assert sum(m for _, m in params) == want, g
        shapes = {p.canonical_shape() for p, _ in params}
        assert f"[{2 * g + 1}]" in shapes
        if g <= 5:
            assert shapes == {f"[{2 * g + 1}]"}
        else:
            assert shapes == TABLE_SHAPES[g] | {f"[{2 * g + 1}]"}, g


def test_small_weight_vanishing_example():
    hw = HighestWeight(3, (1, 1, 0))
    assert hw.tau == (4, 3, 1)
    assert ar.enumerate_parameters(hw) == []


def test_parameter_structure():
    hw = HighestWeight(6, (0,) * 6)
    params = dict((p.canonical_shape(), p) for p, _ in ar.enumerate_parameters(hw))
    p = params["D11[2]+[9]"]
    assert p.r == 1 and p.multiplicity == 1 and p.field_degree == 1
    assert set().union(*(ar.weight_block(b.kind, b.doubled_weights, d)
                         for b, d in (p.principal, *p.factors))) == set(hw.tau)
    block, d = p.factors[0]
    assert block.label == "D11" and d == 2
    assert p.principal[0].is_trivial and p.principal[1] == 9


def test_parameter_counts_match_degree_identity():
    reg = ar.Registry.builtin()
    for g in (6, 8, 10, 11):
        for p, _ in ar.enumerate_parameters(HighestWeight(g, (0,) * g), reg):
            total = p.principal[0].standard_dimension * p.principal[1]
            total += sum(b.standard_dimension * d for b, d in p.factors)
            assert total == 2 * g + 1


def test_odd_weight_always_empty():
    reg = ar.Registry.builtin()
    for g in range(1, 12):
        for lam in dominant_weights(g, 11 - g):
            if sum(lam) % 2 == 0:
                continue
            assert ar.enumerate_parameters(HighestWeight(g, lam), reg) == [], \
                (g, lam)


def test_full_sweep_totals():
    # frozen totals of the combinatorial parameter count over the
    # 1055 even-weight pairs with rank + top entry <= 11
    reg = ar.Registry.builtin()
    total = nonzero = pairs = 0
    for g in range(1, 12):
        for lam in dominant_weights(g, 11 - g):
            if sum(lam) % 2:
                continue
            pairs += 1
            count = sum(m for _, m in
                        ar.enumerate_parameters(HighestWeight(g, lam), reg))
            total += count
            nonzero += count > 0
    assert pairs == 1055
    assert total == 282
    assert nonzero == 174


def test_registry_incompleteness_error():
    reg = ar.Registry.builtin()
    with pytest.raises(ar.RegistryIncompleteError):
        ar.enumerate_parameters(HighestWeight(1, (12,)), reg)
    with pytest.raises(ar.RegistryIncompleteError):
        ar.enumerate_parameters(HighestWeight(12, (0,) * 12), reg)


def _synthetic_registry():
    # synthetic world with exhaustive knowledge up to doubled weight 30:
    # one nontrivial odd-orthogonal block of cardinality 3, a symplectic
    # block of cardinality 2 and an even-orthogonal block of cardinality 5
    blocks = list(ar.Registry.builtin().blocks()) + [
        ar.BuildingBlock(S, (23,), 2),
        ar.BuildingBlock(OO, (26,), 3),
        ar.BuildingBlock(OE, (26, 8), 5),
    ]
    return ar.Registry(blocks, bound_doubled=30)


def test_multiplicities_multiply():
    reg = _synthetic_registry()
    params = {p.canonical_shape(): m
              for p, m in ar.enumerate_parameters(HighestWeight(1, (12,)), reg)}
    assert params == {"Oo(26)": 3}
    params = {p.canonical_shape(): m
              for p, m in ar.enumerate_parameters(HighestWeight(12, (0,) * 12), reg)}
    assert params["S(23)[2]+[21]"] == 2
    assert params["[25]"] == 1
    # a shape using both extra blocks multiplies their cardinalities: 2*3 = 6
    hw = HighestWeight(13, (0,) * 13)
    params = {p.canonical_shape(): m
              for p, m in ar.enumerate_parameters(hw, reg)}
    assert params["S(23)[2]+D11[10]+Oo(26)"] == 6


# -- the frozenset enumeration oracle --------------------------------------------

def _enumeration_or_error(enumerate_parameters, hw, reg):
    try:
        return [(repr(p), m) for p, m in enumerate_parameters(hw, reg)]
    except ar.RegistryIncompleteError as exc:
        return str(exc)


@pytest.mark.parametrize("registry, max_rank", [
    (ar.Registry, 11), (_synthetic_registry, 13)], ids=["builtin", "bound30"])
def test_enumeration_matches_set_oracle(registry, max_rank):
    # every weight with lambda_1 + g <= max_rank, odd weights too: the same
    # (parameter, multiplicity) list in the same order, block kinds, names
    # and cardinalities included
    reg, oracle_reg = registry(), registry()
    nonzero = even_orthogonal = 0
    for g in range(1, max_rank + 1):
        for lam in dominant_weights(g, max_rank - g):
            hw = HighestWeight(g, lam)
            got = _enumeration_or_error(ar.enumerate_parameters, hw, reg)
            assert got == _enumeration_or_error(set_enumerate_parameters, hw,
                                                oracle_reg), (g, lam)
            nonzero += bool(got)
            even_orthogonal += any("EVEN_ORTHOGONAL" in param for param, _ in got)
    assert (nonzero, even_orthogonal) == {11: (174, 0), 13: (525, 145)}[max_rank]


@pytest.mark.parametrize("registry, g, lam", [
    (ar.Registry, 1, (12,)), (ar.Registry, 12, (0,) * 12),
    (_synthetic_registry, 1, (15,))])
def test_incompleteness_message_matches_set_oracle(registry, g, lam):
    hw = HighestWeight(g, lam)
    with pytest.raises(ar.RegistryIncompleteError) as got:
        ar.enumerate_parameters(hw, registry())
    with pytest.raises(ar.RegistryIncompleteError) as want:
        set_enumerate_parameters(hw, registry())
    assert str(got.value) == str(want.value)
    assert "exceeds the registry bound" in str(got.value)


# -- the enumeration memos on the registry ---------------------------------------

def _sweep(reg, max_rank, enumerate_parameters=ar.enumerate_parameters):
    return {(g, lam): _enumeration_or_error(enumerate_parameters, HighestWeight(g, lam), reg)
            for g in range(1, max_rank + 1) for lam in dominant_weights(g, max_rank - g)}


def test_warm_registry_still_raises_the_oracle_message():
    # no entry is stored for a mask whose build raised, so a registry warmed
    # over the whole exhaustive range raises again, and with the same text
    reg = ar.Registry.builtin()
    _sweep(reg, 11)
    for hw in (HighestWeight(12, (0,) * 12), HighestWeight(1, (12,))):
        want = _enumeration_or_error(set_enumerate_parameters, hw, ar.Registry.builtin())
        assert "exceeds the registry bound" in want
        for _ in range(2):
            assert _enumeration_or_error(ar.enumerate_parameters, hw, reg) == want


def _registry_with_s25_s23():
    return ar.Registry.builtin().with_records([
        {"kind": "symplectic", "doubled_weights": [25], "cardinality": 1},
        {"kind": "symplectic", "doubled_weights": [23], "cardinality": 1}])


def test_pool_grouping_error_leaves_no_entry():
    # the pool (25, 23) finds S(25) + S(23), then raises at the pair (25, 23):
    # the finished sub-pool (23,) is kept, the pool itself is not
    reg = _registry_with_s25_s23()
    for _ in range(2):
        with pytest.raises(ar.RegistryIncompleteError, match=r"\(25, 23\) exceeds"):
            ar._pool_groupings(S, (25, 23), reg)
    assert (S, (23,)) in reg._groupings and (S, (25, 23)) not in reg._groupings
    assert _sweep(reg, 11) == _sweep(_registry_with_s25_s23(), 11, set_enumerate_parameters)


def test_extensions_start_with_empty_memos():
    # a warm base and two registries built from it, each agreeing with the
    # oracle; the synthetic blocks come in through with_records (bound 22)
    # and through the constructor at bound 30, where the base's errors past
    # weight 11 are results, so a memo read across registries would show
    base = ar.Registry.builtin()
    before = _sweep(base, 13)
    assert before == _sweep(ar.Registry.builtin(), 13, set_enumerate_parameters)
    records = [{"kind": "symplectic", "doubled_weights": [23], "cardinality": 2},
               {"kind": "odd_orthogonal", "doubled_weights": [26], "cardinality": 3},
               {"kind": "even_orthogonal", "doubled_weights": [26, 8], "cardinality": 5}]
    extended = base.with_records(records)
    bound30 = ar.Registry(extended.blocks(), bound_doubled=30)
    assert not (extended._runs or extended._groupings or bound30._runs or bound30._groupings)
    assert _sweep(extended, 13) == _sweep(
        ar.Registry.builtin().with_records(records), 13, set_enumerate_parameters)
    assert _sweep(bound30, 13) == _sweep(_synthetic_registry(), 13, set_enumerate_parameters)
    assert _sweep(base, 13) == before


def test_run_assignments_are_shared(monkeypatch):
    # every enumeration on one registry shares the run-assignment memo: over
    # g <= 8, lambda = 0 the cold pass stores 36 (d0, mask) entries in 93
    # calls, and a second pass makes only the 44 top-level calls (one per
    # central run length c = 0..g), each a hit
    reg = ar.Registry.builtin()
    calls = []
    run_assignments = ar._run_assignments
    monkeypatch.setattr(ar, "_run_assignments", lambda mask, d0, registry: (
        calls.append((mask, d0)) or run_assignments(mask, d0, registry)))
    weights = [HighestWeight(g, (0,) * g) for g in range(1, 9)]
    for hw in weights:
        ar.enumerate_parameters(hw, reg)
    assert (len(calls), sum(map(len, reg._runs.values()))) == (93, 36)
    calls.clear()
    for hw in weights:
        ar.enumerate_parameters(hw, reg)
    assert (len(calls), sum(map(len, reg._runs.values()))) == (44, 36)


# -- independent brute-force oracle ---------------------------------------------

def _cover(kind, doubled_weights, d):
    """Recompute the covered weight set from scratch (no library calls)."""
    vals = set()
    for w2 in doubled_weights:
        for j in range(d):
            v2 = w2 + d - 1 - 2 * j
            if v2 <= 0 or v2 % 2:
                return None
            v = v2 // 2
            if v in vals:
                return None
            vals.add(v)
    if kind == "oo":
        central = set(range(1, (d - 1) // 2 + 1))
        if central & vals:
            return None
        vals |= central
    return vals


BRUTE_BLOCKS = [
    # (kind, doubled weights, cardinality) for every nonzero block
    ("oo", (), 1), ("oo", (22,), 1),
    ("s", (11,), 1), ("s", (15,), 1), ("s", (17,), 1), ("s", (19,), 1),
    ("s", (21,), 1), ("s", (19, 7), 1), ("s", (21, 5), 1), ("s", (21, 9), 1),
    ("s", (21, 13), 1),
]


def brute_force_count(hw):
    """Exhaustive search over block/multiplier combinations, independent of
    the production enumeration."""
    target = frozenset(hw.tau)
    g = hw.g
    principal_opts = []
    for kind, dw, card in BRUTE_BLOCKS:
        if kind != "oo":
            continue
        for d in range(1, 2 * g + 2, 2):
            cov = _cover(kind, dw, d)
            if cov is not None and cov <= target:
                principal_opts.append((dw, d, frozenset(cov), card))
    factor_opts = []
    for kind, dw, card in BRUTE_BLOCKS:
        if kind == "oo":
            continue
        start = 2 if kind == "s" else 1
        step = 2
        for d in range(start, 2 * g + 2, step):
            cov = _cover(kind, dw, d)
            if cov is not None and cov <= target:
                factor_opts.append((kind, dw, d, frozenset(cov), card))

    count = 0
    for dw0, d0, cov0, card0 in principal_opts:
        remaining = target - cov0
        if len(cov0) + len(remaining) != g:
            continue

        def search(idx, remaining, mult):
            nonlocal count
            if not remaining:
                count += mult
                return
            if idx == len(factor_opts):
                return
            search(idx + 1, remaining, mult)
            kind, dw, d, cov, card = factor_opts[idx]
            if cov <= remaining:
                search(idx + 1, remaining - cov, mult * card)

        search(0, remaining, card0)
    return count


def test_brute_force_oracle_agrees():
    reg = ar.Registry.builtin()
    for g in range(1, 12):
        for lam in dominant_weights(g, 11 - g):
            if sum(lam) % 2:
                continue
            hw = HighestWeight(g, lam)
            fast = sum(m for _, m in ar.enumerate_parameters(hw, reg))
            assert fast == brute_force_count(hw), (g, lam)
