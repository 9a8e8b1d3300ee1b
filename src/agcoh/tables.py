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
    exact: bool

    def __init__(self, value: int, exact: bool = True):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "exact", exact)

    def __str__(self):
        return str(self.value) if self.exact else f">={self.value}"

    def admits(self, n: int) -> bool:
        return n == self.value if self.exact else n >= self.value


class ReferenceTable(Record):
    identifier: str
    degrees: tuple[int, ...]
    values: tuple
    citation: str

    def __init__(self, identifier: str, degrees: tuple[int, ...], values: tuple,
                 citation: str):
        object.__setattr__(self, "identifier", identifier)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "citation", citation)


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

def _series_from_generators(counts: Mapping[int, int], max_degree: int) -> list[int]:
    """Graded dimensions of the free graded-commutative algebra with
    counts[d] generators in each even degree d (a polynomial algebra), by
    partition counting.

    k generators of degree d multiply the series by
    (1 - t^d)^(-k) = sum_j C(k - 1 + j, j) t^(dj).  The degree with the most
    generators starts the series from these binomials; every other
    generator multiplies it by 1/(1 - t^d) in one pass.  So the N(N+1)/2
    degree-2 generators of universal:N cost one pass, not one each."""
    if any(d <= 0 for d in counts):
        raise ValueError("generator degrees must be positive")
    groups = sorted(counts.items(), key=lambda item: -item[1])
    coeffs = [1] + [0] * max_degree
    if groups:
        d, k = groups.pop(0)
        binomial = 1
        for j in range(1, max_degree // d + 1):
            binomial = binomial * (k - 1 + j) // j
            coeffs[d * j] = binomial
    for d, k in groups:
        for _ in range(k):
            for n in range(d, max_degree + 1):
                coeffs[n] += coeffs[n - d]
    return coeffs


def _lambda_degrees(max_degree: int) -> list[int]:
    """Degrees 2, 6, 10, ... of the odd Chern classes of the Hodge bundle."""
    return list(range(2, max_degree + 1, 4))


def stable_series(space: str, max_degree: int, n: int | None = None
                  ) -> dict:
    """Stable (rank-independent) graded cohomology dimensions in degrees
    0..max_degree.

    space 'ag': freely generated by the odd Hodge classes (degrees 4i+2).
    space 'sat': the minimal compactification; polynomial on x-classes in
    degrees 4i+2 (i >= 0) and y-classes in degrees 4j+2 (j >= 1).
    space 'universal': the n-th fibre power of the universal family; the
    'ag' algebra with n theta classes and C(n,2) normalized Poincare classes,
    all of degree 2.

    The validity range (degree < rank) is reported as metadata only.
    """
    if max_degree < 0:
        raise InputError("max_degree must be nonnegative")
    space = space.lower()
    gens = Counter(_lambda_degrees(max_degree))
    if space == "sat":
        gens.update(range(6, max_degree + 1, 4))
    elif space == "universal":
        if n is None or n < 0:
            raise InputError("space 'universal' needs a fibre power n >= 0")
        gens[2] += n + n * (n - 1) // 2
    elif space != "ag":
        raise InputError(f"unknown stable space {space!r}")
    return {
        "space": space if space != "universal" else f"universal({n})",
        "coefficients": _series_from_generators(gens, max_degree),
        "validity": "valid in degrees below the rank",
    }


def stable_ih_series(max_degree: int) -> dict:
    """Stable intersection-cohomology series of the minimal
    compactification: identical to the 'ag' series (the stable intersection
    cohomology is the polynomial algebra on the odd Hodge classes)."""
    out = stable_series("ag", max_degree)
    out["space"] = "ih_sat"
    return out
