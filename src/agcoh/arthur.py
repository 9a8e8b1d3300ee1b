"""Level-one cuspidal building blocks and the enumeration of discrete
unramified parameter sets for the rank-g symplectic group.

A building block is a finite set of self-dual level-one cuspidal automorphic
representations of a general linear group, identified by its kind (odd
orthogonal / even orthogonal / symplectic dual group), its strictly
decreasing positive weight vector, and its cardinality.  Weights are stored
doubled (2*w_i) so the half-integral symplectic case stays exact.  The
built-in registry is the classification of everything with top weight
w_1 <= 11: the trivial block, the five elliptic eigenform blocks D11, D15,
D17, D19, D21, the symmetric square Sym2D11, and the four vector-valued
genus-two blocks D19,7, D21,5, D21,9, D21,13; every other block with
w_1 <= 11 is empty.

A parameter is a formal sum pi_0[d_0] + pi_1[d_1] + ... + pi_r[d_r]: an odd
orthogonal principal pair (d_0 odd) plus distinct factor pairs, even
orthogonal when d_i is odd and symplectic when d_i is even, subject to the
degree identity (2g_0+1)d_0 + sum 2 g_i d_i = 2g+1 and to the weight blocks
(runs of consecutive integers centered at the block weights, plus the
central run {1..(d_0-1)/2}) exactly partitioning {w_1, ..., w_g} where
w = lambda + rho.

Enumeration peels maximal-element-anchored consecutive runs off the weight
set for every admissible central run length, pruning as soon as a run center
cannot belong to any nonzero registered block.  The multiplicity of a shape
is the product of its block cardinalities; two factors can never share the
same (weight vector, d) since their runs would collide, so the product needs
no binomial corrections.
"""
from __future__ import annotations

import enum
import itertools
import json
from typing import Iterable

from .errors import RegistryConflictError, RegistryIncompleteError
from .records import Record
from .symplectic import HighestWeight


class BlockKind(enum.Enum):
    ODD_ORTHOGONAL = "odd_orthogonal"
    EVEN_ORTHOGONAL = "even_orthogonal"
    SYMPLECTIC = "symplectic"


_KIND_ALIASES = {
    "odd_orthogonal": BlockKind.ODD_ORTHOGONAL, "oo": BlockKind.ODD_ORTHOGONAL,
    "even_orthogonal": BlockKind.EVEN_ORTHOGONAL, "oe": BlockKind.EVEN_ORTHOGONAL,
    "symplectic": BlockKind.SYMPLECTIC, "s": BlockKind.SYMPLECTIC,
}


def block_parity_ok(kind: BlockKind, doubled_weights: tuple[int, ...]) -> bool:
    """Parity emptiness: an odd orthogonal block with m weights needs
    sum w_i = m(m+1)/2 mod 2, an even orthogonal block with 2m weights needs
    sum w_i = m mod 2; symplectic blocks are unconstrained."""
    if kind is BlockKind.SYMPLECTIC:
        return True
    total = sum(doubled_weights) // 2
    m = len(doubled_weights)
    if kind is BlockKind.ODD_ORTHOGONAL:
        return total % 2 == (m * (m + 1) // 2) % 2
    return total % 2 == (m // 2) % 2


class BuildingBlock(Record):
    """A block by its kind, doubled weights and cardinality.  Equality and
    hashing are those of `doubled_weights` alone."""

    kind: BlockKind
    doubled_weights: tuple[int, ...]
    cardinality: int
    names: tuple[str, ...]
    field_degree: int | None

    def __init__(self, kind: BlockKind, doubled_weights: tuple[int, ...],
                 cardinality: int, names: tuple[str, ...] = (),
                 field_degree: int | None = None):
        dw = tuple(doubled_weights)
        if any(type(x) is not int for x in dw):
            raise TypeError(f"doubled weights must be integers, got {dw!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "doubled_weights", dw)
        object.__setattr__(self, "cardinality", cardinality)
        object.__setattr__(self, "names", tuple(names))
        object.__setattr__(self, "field_degree", field_degree)
        if any(a <= b for a, b in zip(dw, dw[1:])) or (dw and dw[-1] <= 0):
            raise ValueError(f"weights must be strictly decreasing positive: {dw}")
        if kind is BlockKind.SYMPLECTIC:
            if not dw:
                raise ValueError("symplectic blocks need at least one weight")
            if any(x % 2 == 0 for x in dw):
                raise ValueError(f"symplectic weights must be half-integral: {dw}")
        else:
            if any(x % 2 for x in dw):
                raise ValueError(f"orthogonal weights must be integral: {dw}")
        if kind is BlockKind.EVEN_ORTHOGONAL and (len(dw) < 2 or len(dw) % 2):
            raise ValueError("even orthogonal blocks need a positive even weight count")
        if cardinality < 0:
            raise ValueError("cardinality must be nonnegative")
        if cardinality > 0 and not block_parity_ok(kind, dw):
            raise ValueError(
                f"parity-violating block cannot be nonempty: {kind.value} {dw}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.doubled_weights == other.doubled_weights
        return NotImplemented

    def __hash__(self):
        return hash((self.doubled_weights,))

    @property
    def standard_dimension(self) -> int:
        """Dimension of the standard representation of the dual group."""
        n = 2 * len(self.doubled_weights)
        return n + 1 if self.kind is BlockKind.ODD_ORTHOGONAL else n

    @property
    def is_trivial(self) -> bool:
        return self.kind is BlockKind.ODD_ORTHOGONAL and not self.doubled_weights

    @property
    def label(self) -> str:
        """Canonical token: the classification name for named singleton
        blocks, otherwise kind letters with doubled weights."""
        if self.cardinality == 1 and len(self.names) == 1:
            return self.names[0]
        prefix = {BlockKind.ODD_ORTHOGONAL: "Oo", BlockKind.EVEN_ORTHOGONAL: "Oe",
                  BlockKind.SYMPLECTIC: "S"}[self.kind]
        return f"{prefix}({','.join(map(str, self.doubled_weights))})"


_BUILTIN_BLOCKS: tuple[BuildingBlock, ...] = (
    BuildingBlock(BlockKind.ODD_ORTHOGONAL, (), 1, ("",), 1),
    BuildingBlock(BlockKind.SYMPLECTIC, (11,), 1, ("D11",), 1),
    BuildingBlock(BlockKind.SYMPLECTIC, (15,), 1, ("D15",), 1),
    BuildingBlock(BlockKind.SYMPLECTIC, (17,), 1, ("D17",), 1),
    BuildingBlock(BlockKind.SYMPLECTIC, (19,), 1, ("D19",), 1),
    BuildingBlock(BlockKind.SYMPLECTIC, (21,), 1, ("D21",), 1),
    BuildingBlock(BlockKind.ODD_ORTHOGONAL, (22,), 1, ("Sym2D11",), 1),
    BuildingBlock(BlockKind.SYMPLECTIC, (19, 7), 1, ("D19,7",), 1),
    BuildingBlock(BlockKind.SYMPLECTIC, (21, 5), 1, ("D21,5",), 1),
    BuildingBlock(BlockKind.SYMPLECTIC, (21, 9), 1, ("D21,9",), 1),
    BuildingBlock(BlockKind.SYMPLECTIC, (21, 13), 1, ("D21,13",), 1),
)

BUILTIN_BOUND_DOUBLED = 22  # exhaustive knowledge up to top weight w_1 = 11


def _record_int(value):
    """A registry integer (a record field or a looked-up weight), taken as
    is: an int only, never a bool, float or string (TypeError)."""
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an integer")
    return value


def _record_names(value) -> tuple[str, ...]:
    """A registry record's names: a JSON array of strings (TypeError
    otherwise; a bare string is not split into its characters)."""
    if not isinstance(value, list) or any(not isinstance(n, str) for n in value):
        raise TypeError(f"names must be a list of strings, got {value!r}")
    return tuple(value)


class Registry:
    """Known building blocks plus the bound up to which knowledge is
    exhaustive.  Immutable; extensions return a new registry."""

    def __init__(self, blocks: Iterable[BuildingBlock] = _BUILTIN_BLOCKS,
                 bound_doubled: int = BUILTIN_BOUND_DOUBLED):
        self._blocks: dict[tuple[BlockKind, tuple[int, ...]], BuildingBlock] = {}
        for b in blocks:
            key = (b.kind, b.doubled_weights)
            if key in self._blocks:
                raise RegistryConflictError(f"duplicate block {b.label}")
            self._blocks[key] = b
        self.bound_doubled = bound_doubled
        # empty blocks built by lookup, shared by later lookups of the same key
        self._empty: dict[tuple[BlockKind, tuple[int, ...]], BuildingBlock] = {}
        self._viable: dict[BlockKind, set[int]] = {k: set() for k in BlockKind}
        for b in self._blocks.values():
            if b.cardinality > 0:
                self._viable[b.kind].update(b.doubled_weights)

    @classmethod
    def builtin(cls) -> "Registry":
        return cls()

    def blocks(self) -> list[BuildingBlock]:
        return list(self._blocks.values())

    def lookup(self, kind: BlockKind, doubled_weights: Iterable[int]) -> BuildingBlock:
        dw = tuple(sorted(map(_record_int, doubled_weights), reverse=True))
        key = (kind, dw)
        block = self._blocks.get(key) or self._empty.get(key)
        if block is not None:
            return block
        if not block_parity_ok(kind, dw) or all(x <= self.bound_doubled for x in dw):
            # setdefault keeps the first of two racing builds
            return self._empty.setdefault(key, BuildingBlock(kind, dw, 0))
        raise RegistryIncompleteError(
            f"block {kind.value} with doubled weights {dw} exceeds the registry "
            f"bound 2*w_1 <= {self.bound_doubled} and was not ingested")

    def center_status(self, kind: BlockKind, doubled_center: int) -> str:
        """'viable' when some nonzero block of this kind contains the weight,
        'dead' when exhaustive knowledge rules it out, 'unknown' otherwise."""
        if doubled_center in self._viable[kind]:
            return "viable"
        if doubled_center <= self.bound_doubled:
            return "dead"
        return "unknown"

    def with_records(self, records: Iterable[dict]) -> "Registry":
        merged = dict(self._blocks)
        for rec in records:
            try:
                kind = _KIND_ALIASES[str(rec["kind"]).lower()]
                dw = tuple(_record_int(x) for x in rec["doubled_weights"])
                card = _record_int(rec["cardinality"])
                names = _record_names(rec.get("names", []))
                fdeg = rec.get("field_degree")
                fdeg = None if fdeg is None else _record_int(fdeg)
            except (KeyError, TypeError, ValueError) as exc:
                raise RegistryConflictError(f"malformed registry record {rec!r}") from exc
            try:
                block = BuildingBlock(kind, dw, card, names, fdeg)
            except ValueError as exc:
                raise RegistryConflictError(str(exc)) from exc
            key = (kind, block.doubled_weights)
            if key in merged:
                old = merged[key]
                if old.cardinality != block.cardinality:
                    raise RegistryConflictError(
                        f"record for {block.label} conflicts with existing "
                        f"cardinality {old.cardinality}")
                continue
            if block.cardinality > 0 and block.doubled_weights and \
                    max(block.doubled_weights) <= self.bound_doubled:
                raise RegistryConflictError(
                    f"record for {block.label} contradicts the exhaustive "
                    f"classification below doubled weight {self.bound_doubled}")
            merged[key] = block
        return Registry(merged.values(), self.bound_doubled)


def ingest_cardinalities(stream, base: Registry | None = None) -> Registry:
    """Merge a JSON array of block records {kind, doubled_weights,
    cardinality, names?, field_degree?} into the registry."""
    if isinstance(stream, str):
        records = json.loads(stream)
    elif hasattr(stream, "read"):
        records = json.load(stream)
    else:
        records = list(stream)
    if not isinstance(records, list):
        raise RegistryConflictError("registry extension must be a JSON array of records")
    return (base or Registry.builtin()).with_records(records)


def check_kind_d(kind: BlockKind, d: int) -> None:
    """Raise ValueError unless d is a valid multiplier for the kind: positive,
    even for symplectic blocks and odd for orthogonal ones."""
    if d < 1:
        raise ValueError("multiplier d must be positive")
    if kind is BlockKind.SYMPLECTIC and d % 2:
        raise ValueError("symplectic factors need even d")
    if kind is not BlockKind.SYMPLECTIC and d % 2 == 0:
        raise ValueError("orthogonal factors need odd d")


def weight_block(kind: BlockKind, doubled_weights: Iterable[int], d: int) -> set[int]:
    """The set of positive integers covered by one pair (block, d): a run of
    d consecutive integers centered at each weight, plus the central run
    {1, ..., (d-1)/2} for the (necessarily principal) odd orthogonal kind."""
    check_kind_d(kind, d)
    dw = tuple(doubled_weights)
    out: set[int] = set()
    expected = len(dw) * d
    for dv in dw:
        for j in range(d):
            doubled_val = dv + (d - 1) - 2 * j
            if doubled_val <= 0 or doubled_val % 2:
                raise ValueError(
                    f"weight run for 2w={dv}, d={d} leaves the positive integers")
            out.add(doubled_val // 2)
    if kind is BlockKind.ODD_ORTHOGONAL:
        central = set(range(1, (d - 1) // 2 + 1))
        expected += len(central)
        out |= central
    if len(out) != expected:
        raise ValueError("weight runs of the block collide")
    return out


class ArthurParameter(Record):
    """A shape pi_0[d_0] + pi_1[d_1] + ... + pi_r[d_r] with validated weight
    block partition.  The factors are canonically ordered (descending weight
    vectors, then descending d); the principal pair comes separately."""

    genus: int
    principal: tuple[BuildingBlock, int]
    factors: tuple[tuple[BuildingBlock, int], ...]

    def __init__(self, genus: int, principal: tuple[BuildingBlock, int],
                 factors: tuple[tuple[BuildingBlock, int], ...]):
        block0, d0 = principal
        if block0.kind is not BlockKind.ODD_ORTHOGONAL or d0 < 1 or d0 % 2 == 0:
            raise ValueError("principal pair must be odd orthogonal with odd d")
        ordered = tuple(sorted(factors,
                               key=lambda bd: (bd[0].doubled_weights, bd[1]),
                               reverse=True))
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "principal", principal)
        object.__setattr__(self, "factors", ordered)
        seen = set()
        degree = block0.standard_dimension * d0
        covered = weight_block(block0.kind, block0.doubled_weights, d0)
        count = len(covered)
        for block, d in ordered:
            if block.kind is BlockKind.ODD_ORTHOGONAL:
                raise ValueError("only the principal factor may be odd orthogonal")
            key = (block.kind, block.doubled_weights, d)
            if key in seen:
                raise ValueError(f"repeated factor {block.label}[{d}]")
            seen.add(key)
            degree += block.standard_dimension * d
            wb = weight_block(block.kind, block.doubled_weights, d)
            count += len(wb)
            covered |= wb
        if degree != 2 * genus + 1:
            raise ValueError(
                f"degree identity fails: {degree} != {2 * genus + 1}")
        if len(covered) != count or len(covered) != genus:
            raise ValueError("weight blocks are not disjoint or do not fill rank")
        object.__setattr__(self, "_tau_set", frozenset(covered))

    @property
    def r(self) -> int:
        return len(self.factors)

    @property
    def multiplicity(self) -> int:
        m = self.principal[0].cardinality
        for block, _ in self.factors:
            m *= block.cardinality
        return m

    @property
    def tau_set(self) -> frozenset[int]:
        return self._tau_set  # type: ignore[attr-defined]

    @property
    def field_degree(self) -> int | None:
        """1 when every block is known to have field degree 1; otherwise the
        compositum degree is not determined by the blocks alone."""
        degs = [self.principal[0].field_degree] + [b.field_degree for b, _ in self.factors]
        return 1 if all(d == 1 for d in degs) else None

    def canonical_shape(self) -> str:
        tokens = []
        for block, d in self.factors:
            tokens.append(f"{block.label}[{d}]" if d > 1 else block.label)
        block0, d0 = self.principal
        if block0.is_trivial:
            tokens.append(f"[{d0}]")
        else:
            tokens.append(f"{block0.label}[{d0}]" if d0 > 1 else block0.label)
        return "+".join(tokens)

    def __str__(self):
        return self.canonical_shape()


def _run_assignments(rest: tuple[int, ...], d0: int, registry: Registry
                     ) -> list[tuple[tuple[int, ...], dict]]:
    """Peel runs of consecutive integers off `rest`, assigning each either to
    the principal block (runs of length exactly d0 whose center lies in some
    nonzero odd orthogonal block) or to a factor pool keyed by (kind, d).
    Returns all (principal_doubled_centers, pools) assignments; raises
    RegistryIncompleteError when a run center is beyond registry knowledge.
    """
    memo: dict[frozenset[int], list[tuple[tuple[int, ...], dict]]] = {}

    def viable(kind: BlockKind, doubled_center: int) -> bool:
        st = registry.center_status(kind, doubled_center)
        if st == "unknown":
            raise RegistryIncompleteError(
                f"run centered at weight {doubled_center}/2 exceeds the registry "
                "bound; ingest cardinalities to enumerate")
        return st == "viable"

    def recurse(remaining: frozenset[int]) -> list[tuple[tuple[int, ...], dict]]:
        if not remaining:
            return [((), {})]
        if remaining in memo:
            return memo[remaining]
        out: list[tuple[tuple[int, ...], dict]] = []
        top = max(remaining)
        run_len = 0
        while top - run_len >= 1 and (top - run_len) in remaining:
            run_len += 1
            doubled_center = 2 * top - run_len + 1
            options: list[tuple[str, tuple[BlockKind, int] | None]] = []
            if run_len % 2:
                if run_len == d0 and viable(BlockKind.ODD_ORTHOGONAL, doubled_center):
                    options.append(("principal", None))
                if viable(BlockKind.EVEN_ORTHOGONAL, doubled_center):
                    options.append(("pool", (BlockKind.EVEN_ORTHOGONAL, run_len)))
            elif viable(BlockKind.SYMPLECTIC, doubled_center):
                options.append(("pool", (BlockKind.SYMPLECTIC, run_len)))
            if not options:
                continue
            sub = recurse(remaining - frozenset(range(top - run_len + 1, top + 1)))
            for tag, key in options:
                for sub_principal, sub_pools in sub:
                    if tag == "principal":
                        out.append(((doubled_center,) + sub_principal, sub_pools))
                    else:
                        pools = dict(sub_pools)
                        pools[key] = (doubled_center,) + pools.get(key, ())
                        out.append((sub_principal, pools))
        memo[remaining] = out
        return out

    return recurse(frozenset(rest))


def _pool_groupings(kind: BlockKind, centers: tuple[int, ...], registry: Registry
                    ) -> list[tuple[BuildingBlock, ...]]:
    """All ways to split a pool of run centers into nonzero blocks of the
    given kind (even group sizes for the even orthogonal kind)."""
    even_sizes = kind is BlockKind.EVEN_ORTHOGONAL
    results: list[tuple[BuildingBlock, ...]] = []

    def recurse(todo: tuple[int, ...], acc: tuple[BuildingBlock, ...]):
        if not todo:
            results.append(acc)
            return
        first, rest = todo[0], todo[1:]
        for size in range(0, len(rest) + 1):
            if even_sizes and (size + 1) % 2:
                continue
            for mates in itertools.combinations(rest, size):
                block = registry.lookup(kind, (first,) + mates)
                if block.cardinality == 0:
                    continue
                left = tuple(x for x in rest if x not in mates)
                recurse(left, acc + (block,))

    recurse(centers, ())
    return results


def enumerate_parameters(hw: HighestWeight, registry: Registry | None = None
                         ) -> list[tuple[ArthurParameter, int]]:
    """All parameter shapes whose weight blocks exactly partition the set
    {w_1, ..., w_g}, w = lambda + rho, each with multiplicity equal to the
    product of the referenced block cardinalities.  Shapes touching any
    empty block are dropped; shapes needing blocks beyond the registry's
    knowledge raise RegistryIncompleteError."""
    registry = registry or Registry.builtin()
    tau = set(hw.tau)
    g = hw.g
    found: dict[str, tuple[ArthurParameter, int]] = {}
    for c in range(g + 1):
        if c > 0 and c not in tau:
            break
        d0 = 2 * c + 1
        rest = tuple(sorted(tau - set(range(1, c + 1)), reverse=True))
        for principal_centers, pools in _run_assignments(rest, d0, registry):
            principal_block = registry.lookup(BlockKind.ODD_ORTHOGONAL, principal_centers)
            if principal_block.cardinality == 0:
                continue
            per_pool = []
            dead = False
            for (kind, d), centers in sorted(pools.items(),
                                             key=lambda kv: (kv[0][0].value, kv[0][1])):
                groupings = _pool_groupings(kind, tuple(sorted(centers, reverse=True)),
                                            registry)
                if not groupings:
                    dead = True
                    break
                per_pool.append([(d, grouping) for grouping in groupings])
            if dead:
                continue
            for combo in itertools.product(*per_pool):
                factors = tuple((block, d) for d, grouping in combo for block in grouping)
                param = ArthurParameter(g, (principal_block, d0), factors)
                shape = param.canonical_shape()
                if shape in found:
                    raise AssertionError(f"shape {shape} enumerated twice")
                found[shape] = (param, param.multiplicity)
    return [found[k] for k in sorted(found)]
