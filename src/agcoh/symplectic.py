"""Irreducible representations V_lambda of the rank-g symplectic group:
Weyl dimensions, weight multiplicities by the Freudenthal recursion, and
exact character values at torsion elements.

Torsion elements are singular (the Weyl denominator vanishes there), so
characters come from the symplectic Jacobi-Trudi identity of Koike-Terada
(Fulton-Harris, Representation Theory, (24.18)).  With l = l(lambda) the
number of nonzero parts,

    tr(c | V_lambda) = det M,   1 <= i, j <= l,
    M_{i,1} = h_{lambda_i - i + 1},
    M_{i,j} = h_{lambda_i - i + j} + h_{lambda_i - i - j + 2}   (j >= 2),

with h_k = 0 for k < 0 and the empty determinant (lambda = 0) equal to 1.
The h_k are the complete symmetric functions of the eigenvalues of c: the
integer coefficients of 1/P_c(z), where P_c = prod Phi_d^{m_d} is the
class's characteristic polynomial (self-reciprocal, constant term 1).  The
determinant is taken by fraction-free Bareiss elimination with row
pivoting, because zero pivots do occur at torsion points, so the trace is
an integer by construction and no weight system is built.

The Freudenthal weight system (weight_multiplicities) stays public; the
tests evaluate characters from it as weight sums in Z[x]/Phi_N, as an
independent oracle for the determinant.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import WeightBudgetError
from .exact import bareiss

if TYPE_CHECKING:
    from .torsion import TorsionClass

# Guard for weight_multiplicities: refuse representations whose dimension
# dim V_lambda exceeds this (the intended scale is |lambda| <= ~20, g <= 7).
DEFAULT_WEIGHT_BUDGET = 2_000_000

# Guard for character_at_torsion: the longest h-series (lambda_1 + l(lambda)
# terms) it computes per class.  Far above every weight of interest, while a
# series this long still costs at most tens of milliseconds per class.
H_SERIES_BOUND = 10_000


@dataclass(frozen=True)
class HighestWeight:
    """Dominant weight lambda_1 >= ... >= lambda_g >= 0 for the rank-g
    symplectic group."""

    g: int
    lam: tuple[int, ...]

    def __post_init__(self):
        lam = tuple(int(x) for x in self.lam)
        object.__setattr__(self, "lam", lam)
        if self.g < 1 or len(lam) != self.g:
            raise ValueError(f"need {self.g} weight entries, got {lam}")
        if any(a < b for a, b in zip(lam, lam[1:])) or lam[-1] < 0:
            raise ValueError(f"weight {lam} is not dominant")

    @property
    def weight(self) -> int:
        """w(lambda) = sum lambda_i; odd-weight local systems have trivial
        cohomology because -1 acts by (-1)^{w(lambda)}."""
        return sum(self.lam)

    @property
    def tau(self) -> tuple[int, ...]:
        """lambda + rho: the strictly decreasing integers w_i = lambda_i + g + 1 - i."""
        return tuple(l + self.g + 1 - i for i, l in enumerate(self.lam, start=1))

    def __str__(self):
        return f"g={self.g}, lambda=({','.join(map(str, self.lam))})"


def weyl_dimension(hw: HighestWeight) -> int:
    """dim V_lambda by the Weyl formula for type C."""
    tau = hw.tau
    rho = tuple(range(hw.g, 0, -1))
    num = den = 1
    for i in range(hw.g):
        num *= tau[i]
        den *= rho[i]
        for j in range(i + 1, hw.g):
            num *= tau[i] ** 2 - tau[j] ** 2
            den *= rho[i] ** 2 - rho[j] ** 2
    if num % den:
        raise AssertionError("Weyl dimension is not integral")
    return num // den


def _dominant_candidates(hw: HighestWeight) -> list[tuple[int, ...]]:
    """Dominant mu <= lambda: nonincreasing, nonnegative, prefix sums bounded
    by those of lambda, and sum(lambda - mu) even."""
    g, lam = hw.g, hw.lam
    prefix = list(itertools.accumulate(lam))
    total_parity = sum(lam) % 2
    out: list[tuple[int, ...]] = []

    def extend(i: int, prev: int, acc: list[int], acc_sum: int) -> None:
        if i == g:
            if acc_sum % 2 == total_parity:
                out.append(tuple(acc))
            return
        for v in range(min(prev, lam[0]), -1, -1):
            if acc_sum + v > prefix[i]:
                continue
            acc.append(v)
            extend(i + 1, v, acc, acc_sum + v)
            acc.pop()

    extend(0, lam[0] if lam else 0, [], 0)
    return out


def _positive_roots(g: int) -> list[tuple[int, ...]]:
    roots = []
    for i in range(g):
        for j in range(i + 1, g):
            for sign in (1, -1):
                r = [0] * g
                r[i], r[j] = 1, sign
                roots.append(tuple(r))
        r = [0] * g
        r[i] = 2
        roots.append(tuple(r))
    return roots


def _dominant_rep(vec: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted((abs(v) for v in vec), reverse=True))


def _orbit_size(mu: tuple[int, ...]) -> int:
    g = len(mu)
    perms = math.factorial(g)
    for _, grp in itertools.groupby(mu):
        perms //= math.factorial(len(list(grp)))
    return perms * 2 ** sum(1 for v in mu if v)


class WeightSystem:
    """Weight multiplicities of one V_lambda, stored on dominant orbits.
    Invariant under permutations and sign flips, total mass equal to the
    Weyl dimension."""

    def __init__(self, hw: HighestWeight, dominant: dict[tuple[int, ...], int]):
        self.hw = hw
        self.dominant = dict(dominant)

    @property
    def dimension(self) -> int:
        return sum(_orbit_size(mu) * m for mu, m in self.dominant.items())

    def multiplicity(self, vec) -> int:
        return self.dominant.get(_dominant_rep(tuple(vec)), 0)


def _freudenthal(hw: HighestWeight) -> dict[tuple[int, ...], int]:
    g, lam = hw.g, hw.lam
    rho = tuple(range(g, 0, -1))
    lam_rho = tuple(a + b for a, b in zip(lam, rho))
    norm_top = sum(v * v for v in lam_rho)
    roots = _positive_roots(g)
    cands = _dominant_candidates(hw)
    cands.sort(key=lambda mu: sum((a + b) ** 2 for a, b in zip(mu, rho)), reverse=True)
    mult: dict[tuple[int, ...], int] = {}
    for mu in cands:
        if mu == lam:
            mult[mu] = 1
            continue
        acc = 0
        for alpha in roots:
            plus = next(i for i, a in enumerate(alpha) if a > 0)
            k = 1
            while mu[plus] + k * alpha[plus] <= lam[0]:
                nu = tuple(a + k * b for a, b in zip(mu, alpha))
                m = mult.get(_dominant_rep(nu), 0)
                if m:
                    acc += 2 * m * sum(a * b for a, b in zip(nu, alpha))
                k += 1
        mu_rho = tuple(a + b for a, b in zip(mu, rho))
        denom = norm_top - sum(v * v for v in mu_rho)
        if denom <= 0 or acc % denom:
            raise AssertionError(f"Freudenthal recursion failed at {mu}")
        m = acc // denom
        if m:
            mult[mu] = m
    return mult


@functools.lru_cache(maxsize=256)
def _cached_weight_multiplicities(hw: HighestWeight) -> WeightSystem:
    ws = WeightSystem(hw, _freudenthal(hw))
    if ws.dimension != weyl_dimension(hw):
        raise AssertionError(
            f"weight system mass {ws.dimension} != Weyl dimension {weyl_dimension(hw)}")
    return ws


def weight_multiplicities(hw: HighestWeight,
                          weight_budget: int = DEFAULT_WEIGHT_BUDGET) -> WeightSystem:
    """Full weight system of V_lambda with multiplicities summing to the Weyl
    dimension.  Raises WeightBudgetError when dim V_lambda exceeds the budget."""
    dim = weyl_dimension(hw)
    if dim > weight_budget:
        raise WeightBudgetError(
            f"dim V_lambda = {dim} exceeds the weight budget {weight_budget}")
    return _cached_weight_multiplicities(hw)


# -- characters at torsion elements ------------------------------------------

def _h_series(poly: tuple[int, ...], n: int) -> list[int]:
    """The first n coefficients of 1/poly(z), for poly with constant term 1."""
    h = [1] + [0] * (n - 1)
    deg = len(poly) - 1
    for k in range(1, n):
        h[k] = -sum(poly[j] * h[k - j] for j in range(1, min(k, deg) + 1))
    return h


def character_at_torsion(hw: HighestWeight, cls: TorsionClass) -> int:
    """Exact trace of a torsion class on V_lambda, by the symplectic
    Jacobi-Trudi determinant (see the module docstring).  Raises
    WeightBudgetError when the h-series would exceed H_SERIES_BOUND terms."""
    if cls.degree != 2 * hw.g:
        raise ValueError(
            f"class degree {cls.degree} does not match group rank {2 * hw.g}")
    lam = [part for part in hw.lam if part]
    if not lam:
        return 1
    length = lam[0] + len(lam)
    if length > H_SERIES_BOUND:
        raise WeightBudgetError(
            f"lambda_1 + l(lambda) = {length} exceeds the h-series bound {H_SERIES_BOUND}")
    series = _h_series(cls.characteristic_polynomial(), length)

    def h(k: int) -> int:
        return series[k] if k >= 0 else 0

    rows = [[h(part - i + 1)] + [h(part - i + j) + h(part - i - j + 2)
                                 for j in range(2, len(lam) + 1)]
            for i, part in enumerate(lam, start=1)]
    return bareiss(rows)[1]
