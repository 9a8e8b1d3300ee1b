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
cannot belong to any nonzero registered block; the weights are an int
bitmask, so a run comes off with one mask operation.  The run assignments of
a mask and the groupings of a pool of run centers into blocks are memoized
on the `Registry`, so every enumeration on one registry shares them.  The
multiplicity of a shape is the product of its block cardinalities; two
factors can never share the same (weight vector, d) since their runs would
collide, so the product needs no binomial corrections.
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
    __hash__ = object.__hash__    # members are singletons; Enum's hash runs in Python


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
        super().__init__(kind, dw, cardinality, tuple(names), field_degree)
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
    exhaustive.  Immutable; extensions return a new registry.

    Every enumeration on one registry shares its two memos: the run
    assignments of `_run_assignments` by d0, then mask, and the pool
    groupings of `_pool_groupings` by (kind, centers).  Each holds at most one entry
    per key visited, every entry is an immutable tuple stored only once it
    is complete, and an extension starts with both empty."""

    def __init__(self, blocks: Iterable[BuildingBlock] = _BUILTIN_BLOCKS,
                 bound_doubled: int = BUILTIN_BOUND_DOUBLED):
        self._blocks: dict[tuple[BlockKind, tuple[int, ...]], BuildingBlock] = {}
        for b in blocks:
            key = (b.kind, b.doubled_weights)
            if key in self._blocks:
                raise RegistryConflictError(f"duplicate block {b.label}")
            self._blocks[key] = b
        self.bound_doubled = bound_doubled
        self._viable: dict[BlockKind, set[int]] = {k: set() for k in BlockKind}
        for b in self._blocks.values():
            if b.cardinality > 0:
                self._viable[b.kind].update(b.doubled_weights)
        self._runs: dict[int, dict[int, tuple[_Assignment, ...]]] = {}
        self._groupings: dict[tuple[BlockKind, tuple[int, ...]],
                              tuple[tuple[BuildingBlock, ...], ...]] = {}

    @classmethod
    def builtin(cls) -> "Registry":
        return cls()

    def blocks(self) -> list[BuildingBlock]:
        return list(self._blocks.values())

    def lookup(self, kind: BlockKind, doubled_weights: Iterable[int]) -> BuildingBlock:
        """The ingested block, else an empty one built afresh where parity or
        exhaustive knowledge rules it out; RegistryIncompleteError otherwise."""
        dw = tuple(sorted(map(_record_int, doubled_weights), reverse=True))
        block = self._nonzero(kind, dw)
        return block or self._blocks.get((kind, dw)) or BuildingBlock(kind, dw, 0)

    def _nonzero(self, kind: BlockKind, dw: tuple[int, ...]) -> BuildingBlock | None:
        # lookup's nonzero block, or None; dw is descending ints already
        block = self._blocks.get((kind, dw))
        if block is not None:
            return block if block.cardinality else None
        if block_parity_ok(kind, dw) and any(x > self.bound_doubled for x in dw):
            raise RegistryIncompleteError(
                f"block {kind.value} with doubled weights {dw} exceeds the registry "
                f"bound 2*w_1 <= {self.bound_doubled} and was not ingested")
        return None

    def center_status(self, kind: BlockKind, doubled_center: int) -> str:
        """'viable' when some nonzero block of this kind contains the weight,
        'dead' when exhaustive knowledge rules it out, 'unknown' otherwise."""
        try:
            viable = _run_center_viable(self._viable[kind], self.bound_doubled,
                                        doubled_center)
        except RegistryIncompleteError:
            return "unknown"
        return "viable" if viable else "dead"

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
        super().__init__(genus, principal, ordered)
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


_Assignment = tuple[tuple[int, ...], tuple[tuple[int, tuple[int, ...]], ...]]
_EMPTY_MASK: tuple[_Assignment, ...] = (((), ()),)    # nothing left: one empty assignment
_NO_ASSIGNMENTS: tuple[_Assignment, ...] = ()          # every dead mask's entry


def _run_center_viable(viable: set[int], bound_doubled: int, doubled_center: int
                       ) -> bool:
    # whether a run center lies in a nonzero block, `viable` holding the
    # centers of the kind's nonzero blocks; past exhaustive knowledge it raises
    if doubled_center in viable:
        return True
    if doubled_center <= bound_doubled:
        return False
    raise RegistryIncompleteError(
        f"run centered at weight {doubled_center}/2 exceeds the registry "
        "bound; ingest cardinalities to enumerate")


def _pooled(pools: tuple[tuple[int, tuple[int, ...]], ...], d: int, doubled_center: int
            ) -> tuple[tuple[int, tuple[int, ...]], ...]:
    # `pools` with the center put first in the pool of run length d; pools
    # stay in enumeration order, odd d (even orthogonal) then even d
    # (symplectic), each ascending
    order = (d % 2 == 0, d)
    for i, (e, centers) in enumerate(pools):
        if e == d:
            return pools[:i] + ((d, (doubled_center,) + centers),) + pools[i + 1:]
        if (e % 2 == 0, e) > order:
            return pools[:i] + ((d, (doubled_center,)),) + pools[i:]
    return pools + ((d, (doubled_center,)),)


def _run_assignments(mask: int, d0: int, registry: Registry) -> tuple[_Assignment, ...]:
    """Peel runs off the weight bitmask `mask` (bit w for weight w; a top run
    of length k comes off by keeping the bits below top - k + 1), assigning
    each either to the principal block (length exactly d0, center in some
    nonzero odd orthogonal block) or to the factor pool of its length d,
    symplectic for even d and even orthogonal for odd d.  Returns all
    (principal_doubled_centers, ((d, doubled_centers), ...)) assignments,
    centers descending and pools in `_pooled` order; raises
    RegistryIncompleteError when a run center is beyond registry knowledge,
    checking a run's principal center before its pooled one.

    Memoized on the registry by d0, then mask: one entry per key visited,
    an immutable tuple stored only once complete (every dead mask shares
    one empty tuple), so an error leaves no entry for the mask it was
    raised under."""
    if not mask:
        return _EMPTY_MASK
    runs = registry._runs.get(d0)
    if runs is None:
        runs = registry._runs[d0] = {}
    found = runs.get(mask)
    if found is not None:
        return found
    viable, bound = registry._viable, registry.bound_doubled
    out: list[_Assignment] = []
    top = mask.bit_length() - 1
    run_len = 0
    while top > run_len and mask >> (top - run_len) & 1:
        run_len += 1
        doubled_center = 2 * top - run_len + 1
        principal = run_len == d0 and _run_center_viable(    # d0 is odd
            viable[BlockKind.ODD_ORTHOGONAL], bound, doubled_center)
        pooled = _run_center_viable(
            viable[BlockKind.EVEN_ORTHOGONAL if run_len % 2 else BlockKind.SYMPLECTIC],
            bound, doubled_center)
        if not (principal or pooled):
            continue
        sub = _run_assignments(mask & ((1 << (top - run_len + 1)) - 1), d0, registry)
        if principal:
            out += [((doubled_center,) + centers, pools) for centers, pools in sub]
        if pooled:
            out += [(centers, _pooled(pools, run_len, doubled_center))
                    for centers, pools in sub]
    found = runs[mask] = tuple(out) if out else _NO_ASSIGNMENTS
    return found


def _pool_groupings(kind: BlockKind, centers: tuple[int, ...], registry: Registry
                    ) -> tuple[tuple[BuildingBlock, ...], ...]:
    """All ways to split a pool of run centers (descending) into nonzero
    blocks of the given kind (even group sizes for the even orthogonal
    kind), the block holding the first center first.  Memoized on the
    registry by (kind, centers), sub-pools included, an entry stored only
    once complete: a RegistryIncompleteError from `_nonzero` partway through
    a pool leaves no entry for it."""
    if not centers:
        return ((),)
    found = registry._groupings.get((kind, centers))
    if found is not None:
        return found
    first, rest = centers[0], centers[1:]
    even_sizes = kind is BlockKind.EVEN_ORTHOGONAL    # first plus an odd number of mates
    out: list[tuple[BuildingBlock, ...]] = []
    for size in range(even_sizes, len(rest) + 1, 1 + even_sizes):
        for mates in itertools.combinations(rest, size):
            block = registry._nonzero(kind, (first,) + mates)
            if block is not None:
                left = tuple(x for x in rest if x not in mates)
                out += [(block,) + grouping
                        for grouping in _pool_groupings(kind, left, registry)]
    found = registry._groupings[kind, centers] = tuple(out)
    return found


def enumerate_parameters(hw: HighestWeight, registry: Registry | None = None
                         ) -> list[tuple[ArthurParameter, int]]:
    """All parameter shapes whose weight blocks exactly partition the set
    {w_1, ..., w_g}, w = lambda + rho, each with multiplicity equal to the
    product of the referenced block cardinalities.  Shapes touching any
    empty block are dropped; shapes needing blocks beyond the registry's
    knowledge raise RegistryIncompleteError.

    Calls share work only through a shared `registry`, whose memos hold the
    run assignments and pool groupings; without one, each call builds a
    fresh `Registry.builtin()` and starts cold."""
    registry = registry or Registry.builtin()
    g = hw.g
    rest = sum(1 << w for w in hw.tau)
    found: dict[str, tuple[ArthurParameter, int]] = {}
    for c in range(g + 1):
        if c and not rest >> c & 1:
            break
        rest &= ~(1 << c)    # the central run {1..c} takes weight c (no weight is 0)
        d0 = 2 * c + 1
        for principal_centers, pools in _run_assignments(rest, d0, registry):
            principal_block = registry._nonzero(BlockKind.ODD_ORTHOGONAL, principal_centers)
            if principal_block is None:
                continue
            per_pool = []
            for d, centers in pools:    # even orthogonal (odd d), then symplectic
                kind = BlockKind.EVEN_ORTHOGONAL if d % 2 else BlockKind.SYMPLECTIC
                groupings = _pool_groupings(kind, centers, registry)
                if not groupings:
                    break
                per_pool.append([(d, grouping) for grouping in groupings])
            else:
                for combo in itertools.product(*per_pool):
                    factors = tuple((block, d) for d, grouping in combo for block in grouping)
                    param = ArthurParameter(g, (principal_block, d0), factors)
                    shape = param.canonical_shape()
                    if shape in found:
                        raise AssertionError(f"shape {shape} enumerated twice")
                    found[shape] = (param, param.multiplicity)
    return [found[k] for k in sorted(found)]
