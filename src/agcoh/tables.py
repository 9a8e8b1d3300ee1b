"""Verified reference tables (published Betti numbers, Euler
characteristics, torsion-class counts) and stable Poincare series.

The tables are embedded constants serving as acceptance oracles; they are
never recomputed.  Bounds-only entries (the rank-4 minimal compactification)
are stored as typed bounds, not bare numbers.  The stable series are the
graded dimensions of free graded-commutative algebras on even-degree
generator sets, so plain partition counting; validity ranges (degree < g)
are reported as metadata and deliberately not enforced, since the series is
the stable limit itself.
"""
from __future__ import annotations

from collections import Counter
from typing import Mapping, Sequence

from .errors import InputError
from .records import Record


class Bound(Record):
    """A typed table entry: an exact value or a one-sided lower bound."""

    value: int
    exact: bool = True

    def __str__(self):
        return str(self.value) if self.exact else f">={self.value}"

    def admits(self, n: int) -> bool:
        return n == self.value if self.exact else n >= self.value


class ReferenceTable(Record):
    identifier: str
    degrees: tuple[int, ...]
    values: tuple
    citation: str


_TABLES: dict[str, ReferenceTable] = {}


def _register(identifier: str, degrees: Sequence[int], values: Sequence,
              citation: str) -> None:
    if len(degrees) != len(values):
        raise AssertionError(f"table {identifier} is ragged")
    _TABLES[identifier] = ReferenceTable(identifier, tuple(degrees), tuple(values),
                                         citation)


_register(
    "tor2", range(0, 7, 2), (1, 2, 2, 1),
    "even Betti numbers of the toroidal compactification in rank 2; "
    "the cycle map is an isomorphism and odd cohomology vanishes")
_register(
    "tor3", range(0, 13, 2), (1, 2, 4, 6, 4, 2, 1),
    "even Betti numbers of the toroidal compactification in rank 3; "
    "the cycle map is an isomorphism and odd cohomology vanishes")
_register(
    "vor4", range(0, 21, 2), (1, 3, 5, 11, 17, 19, 17, 11, 5, 3, 1),
    "even Betti numbers of the rank-4 second Voronoi compactification; "
    "odd cohomology vanishes and all classes are algebraic")
_register(
    "perf4_low", range(0, 9), (1, 0, 2, 0, 4, 0, 8, 0, 14),
    "Betti numbers of the rank-4 perfect cone compactification in degree "
    "at most 8 (Tate classes)")
_register(
    "sat4_constraints", range(0, 21, 2),
    (Bound(1), Bound(1), Bound(1), Bound(3), Bound(3), Bound(2, exact=False),
     Bound(2, exact=False), Bound(2, exact=False), Bound(1, exact=False),
     Bound(1), Bound(1)),
    "constraints on the even Betti numbers of the rank-4 minimal "
    "compactification; middle-range entries are lower bounds only")
_register(
    "perf4_ih", range(0, 21, 2), (1, 2, 4, 9, 14, 16, 14, 9, 4, 2, 1),
    "intersection Betti numbers of the rank-4 perfect cone compactification; "
    "odd intersection cohomology vanishes")
_register(
    "hain_a3", range(0, 7, 2), (1, 1, 1, 2),
    "rational cohomology of the rank-3 moduli space: a truncated polynomial "
    "ring on the first Chern class away from degree 6, where the group is "
    "two-dimensional")
_register(
    "hain_sat3", range(0, 13, 2), (1, 1, 1, 3, 1, 1, 1),
    "rational cohomology of the rank-3 minimal compactification: a truncated "
    "polynomial ring on the first Chern class away from degree 6, where the "
    "group is three-dimensional")
_register(
    "euler_ag", range(1, 10), (1, 2, 5, 9, 18, 46, 104, 200, 528),
    "Euler characteristics e(A_g) for g = 1..9 from the elliptic part of "
    "the trace formula")
_register(
    "torsion_counts", range(1, 8), (3, 12, 32, 92, 219, 530, 1158),
    "number of torsion conjugacy classes modulo negation (= number of "
    "masses) in ranks 1..7")


def table_ids() -> list[str]:
    return sorted(_TABLES)


def reference_table(identifier: str) -> ReferenceTable:
    if identifier not in _TABLES:
        raise InputError(f"unknown reference table {identifier!r}; "
                         f"known: {', '.join(table_ids())}")
    return _TABLES[identifier]


# -- stable series ------------------------------------------------------------

#: stable_series refuses work past this, so an admitted call, rendering
#: included, takes about 2 s
_WORK_BOUND = 40_000_000

def _series_from_generators(counts: Mapping[int, int], max_degree: int) -> list[int]:
    """Graded dimensions of the free graded-commutative algebra with
    counts[d] generators in each even degree d (a polynomial algebra), by
    partition counting.

    k generators of degree d multiply the series by
    (1 - t^d)^(-k) = sum_j C(k - 1 + j, j) t^(dj).  The degree with the most
    generators starts the series from these binomials; every other degree
    multiplies it by (1 - t^d)^(-k) (exact.series_times, k passes).  So the
    N(N+1)/2 degree-2 generators of universal:N cost one pass, not one each."""
    from .exact import series_times     # here, so `tables --id` loads no arithmetic
    groups = sorted(counts.items(), key=lambda item: -item[1])
    coeffs = [1] + [0] * max_degree
    if groups:
        d, k = groups.pop(0)
        binomial = 1
        for j in range(1, max_degree // d + 1):
            binomial = binomial * (k - 1 + j) // j
            coeffs[d * j] = binomial
    for d, k in groups:
        series_times(coeffs, d, -k)
    return coeffs


def stable_series(space: str, max_degree: int) -> dict:
    """Stable (rank-independent) graded cohomology dimensions in degrees
    0..max_degree.

    space 'ag': freely generated by the odd Hodge classes (degrees 4i+2).
    space 'sat': the minimal compactification; polynomial on x-classes in
    degrees 4i+2 (i >= 0) and y-classes in degrees 4j+2 (j >= 1).
    space 'ih_sat': its intersection cohomology, the 'ag' algebra.
    space 'universal:N' or 'universal(N)': the N-th fibre power of the
    universal family; the 'ag' algebra with N theta classes and C(N,2)
    normalized Poincare classes, all of degree 2.

    Space names are case-insensitive.  The validity range (degree < rank)
    is reported as metadata only.
    """
    name = space.lower()
    if name.startswith("universal"):
        tail = name[len("universal"):]
        if tail[:1] not in (":", "("):
            raise InputError("use --space universal:N")
        try:
            n = int(tail.strip(":()"))
        except ValueError:
            raise InputError(f"bad universal fibre power in {space!r}")
        name = f"universal({n})"
    if max_degree < 0:
        raise InputError("max_degree must be nonnegative")
    fibre = 0                   # the degree-2 classes of the fibre power
    if name.startswith("universal"):
        if n < 0:
            raise InputError("space 'universal' needs a fibre power n >= 0")
        fibre = n + n * (n - 1) // 2
    elif name not in ("ag", "sat", "ih_sat"):
        raise InputError(f"unknown stable space {name!r}")
    # The work, bounded before anything is allocated: a pass over the
    # coefficients per generator of degree > 2, on numbers the size of the
    # largest binomial C(fibre + j, j) (in units of 4096 bits); rendering them,
    # quadratic in that size, costs about 100 * size passes more.
    passes = max(0, (max_degree - 2) // 4) * (2 if name == "sat" else 1)
    half = max_degree // 2
    size = 1 + min(half, fibre) * (fibre + half).bit_length() // 4096
    if (passes + 100 * size) * (max_degree + 1) * size > _WORK_BOUND:
        raise InputError(f"work bound: the {name} series to degree {max_degree} "
                         "is too large to compute")
    gens = Counter(range(2, max_degree + 1, 4))  # the odd Chern classes of the Hodge bundle
    if name == "sat":
        gens.update(range(6, max_degree + 1, 4))
    gens[2] += fibre
    return {
        "space": name,
        "coefficients": _series_from_generators(gens, max_degree),
        "validity": "valid in degrees below the rank",
    }
