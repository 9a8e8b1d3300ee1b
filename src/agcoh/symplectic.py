"""Irreducible representations V_lambda of the rank-g symplectic group:
Weyl dimensions and exact character values at torsion elements.

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
class's characteristic polynomial (self-reciprocal, constant term 1).  Each
class computes that series once and keeps it behind 2g leading zeros
(TorsionClass.padded_h_series), so h_k for k < 0 is read in place; it is
extended only when a longer lambda_1 + l(lambda) asks for more terms, so
the characters of one class over a range of lambda share one series.
Each weight likewise keeps the part of M that depends on lambda alone, the
index of every entry in that padded series.  One kernel per weight
(_character_sum) sums weighted characters over many classes, reading each
class's series once into closed forms up to 4x4 on index locals (ad - bc,
the cofactor expansion, the Laplace expansion over the 2x2 minors of the
first two rows) and, from 5x5 up, fraction-free Bareiss elimination with
row pivoting (zero pivots occur at torsion points), all in integers.

The tests check the determinant against an independent oracle: the
Freudenthal weight system of V_lambda, evaluated as a weight sum in
Z[x]/Phi_N.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from . import exact
from .errors import WeightBudgetError
from .records import Record

if TYPE_CHECKING:
    from .torsion import TorsionClass

# Guard for the characters at torsion: the longest h-series (lambda_1 +
# l(lambda) terms) computed per class.  Far above every weight of interest,
# while a series this long still costs at most tens of milliseconds per class.
H_SERIES_BOUND = 10_000


class HighestWeight(Record):
    """Dominant weight lambda_1 >= ... >= lambda_g >= 0 for the rank-g
    symplectic group."""

    g: int
    lam: tuple[int, ...]
    # cache, not a field, as on TorsionClass: the Jacobi-Trudi index rows
    # of _character_sum
    _jacobi_trudi = None

    def __init__(self, g: int, lam: tuple[int, ...]):
        lam = tuple(lam)
        if any(type(x) is not int for x in lam):
            raise TypeError(f"weight entries must be integers, got {lam!r}")
        if g < 1 or len(lam) != g:
            raise ValueError(f"need {g} weight entries, got {lam}")
        if any(a < b for a, b in zip(lam, lam[1:])) or lam[-1] < 0:
            raise ValueError(f"weight {lam} is not dominant")
        super().__init__(g, lam)

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


# -- characters at torsion elements ------------------------------------------

def character_at_torsion(hw: HighestWeight, cls: TorsionClass) -> int:
    """Exact trace of a torsion class on V_lambda: _character_sum of the one
    class, after a check of its degree against the rank on every call
    (ValueError).  Past H_SERIES_BOUND, WeightBudgetError on every call."""
    if len(cls.characteristic_polynomial()) != 2 * hw.g + 1:
        raise ValueError(
            f"class degree {cls.degree} does not match group rank {2 * hw.g}")
    return _character_sum(hw, ((cls, 1),))


def _character_sum(hw: HighestWeight, weighted) -> int:
    """sum n tr(c | V_lambda) over (class, int) pairs, the classes taken to
    have degree 2g unchecked.  No pairs give 0 before hw's plan is built or
    read; column 1 reads h[a] alone, since h[0] = 0 (_jacobi_trudi_rows)."""
    if not weighted:
        return 0
    plan = hw._jacobi_trudi
    if plan is None:
        plan = _jacobi_trudi_rows(hw)
        object.__setattr__(hw, "_jacobi_trudi", plan)
    size, rows = plan
    if not rows:
        return sum(n for _, n in weighted)
    if len(rows) == 1:      # the entry h_{lambda_1}, the trace on Sym^{lambda_1}
        a0 = rows[0][0][0]
        return sum(n * cls.padded_h_series(size)[a0] for cls, n in weighted)
    total = 0
    if len(rows) == 2:
        ((a0, _), (a1, A1)), ((b0, _), (b1, B1)) = rows
        for cls, n in weighted:
            h = cls.padded_h_series(size)
            total += n * (h[a0] * (h[b1] + h[B1]) - (h[a1] + h[A1]) * h[b0])
    elif len(rows) == 3:
        (a0, _), (a1, A1), (a2, A2) = rows[0]
        (b0, _), (b1, B1), (b2, B2) = rows[1]
        (c0, _), (c1, C1), (c2, C2) = rows[2]
        for cls, n in weighted:
            h = cls.padded_h_series(size)
            p0, p1, p2 = h[a0], h[a1] + h[A1], h[a2] + h[A2]
            q0, q1, q2 = h[b0], h[b1] + h[B1], h[b2] + h[B2]
            s0, s1, s2 = h[c0], h[c1] + h[C1], h[c2] + h[C2]
            total += n * (p0 * (q1 * s2 - q2 * s1) - p1 * (q0 * s2 - q2 * s0)
                          + p2 * (q0 * s1 - q1 * s0))
    elif len(rows) == 4:
        (a0, _), (a1, A1), (a2, A2), (a3, A3) = rows[0]
        (b0, _), (b1, B1), (b2, B2), (b3, B3) = rows[1]
        (c0, _), (c1, C1), (c2, C2), (c3, C3) = rows[2]
        (d0, _), (d1, D1), (d2, D2), (d3, D3) = rows[3]
        for cls, n in weighted:
            h = cls.padded_h_series(size)
            p0, p1, p2, p3 = h[a0], h[a1] + h[A1], h[a2] + h[A2], h[a3] + h[A3]
            q0, q1, q2, q3 = h[b0], h[b1] + h[B1], h[b2] + h[B2], h[b3] + h[B3]
            s0, s1, s2, s3 = h[c0], h[c1] + h[C1], h[c2] + h[C2], h[c3] + h[C3]
            t0, t1, t2, t3 = h[d0], h[d1] + h[D1], h[d2] + h[D2], h[d3] + h[D3]
            total += n * ((p0 * q1 - p1 * q0) * (s2 * t3 - s3 * t2)
                          - (p0 * q2 - p2 * q0) * (s1 * t3 - s3 * t1)
                          + (p0 * q3 - p3 * q0) * (s1 * t2 - s2 * t1)
                          + (p1 * q2 - p2 * q1) * (s0 * t3 - s3 * t0)
                          - (p1 * q3 - p3 * q1) * (s0 * t2 - s2 * t0)
                          + (p2 * q3 - p3 * q2) * (s0 * t1 - s1 * t0))
    else:
        for cls, n in weighted:
            h = cls.padded_h_series(size)
            total += n * exact.bareiss([[h[a] + h[b] for a, b in row] for row in rows])[1]
    return total


def _jacobi_trudi_rows(hw: HighestWeight) -> tuple[int, tuple]:
    """(size, rows) for the determinants of _character_sum, as indices
    into TorsionClass.padded_h_series, where h_k sits at 2g + k, so its 2g
    leading zeros are the h_k of k < 0 (an entry reads k >= 3 - 2 l(lambda)).
    size = 2g + lambda_1 + l(lambda) covers every index.  Row i holds one
    index pair per entry, M_{i,j} = h[a] + h[b]; for j = 1, b = 0, a
    leading zero.  lambda = 0 gives no rows.  Raises WeightBudgetError past
    H_SERIES_BOUND, before building anything."""
    lam = [part for part in hw.lam if part]
    if not lam:
        return 0, ()
    length = lam[0] + len(lam)
    if length > H_SERIES_BOUND:
        raise WeightBudgetError(
            f"lambda_1 + l(lambda) = {length} exceeds the h-series bound {H_SERIES_BOUND}")
    pad = 2 * hw.g
    rows = []
    for i, part in enumerate(lam, start=1):
        a = pad + part - i
        rows.append(((a + 1, 0),) + tuple((a + j, a - j + 2) for j in range(2, len(lam) + 1)))
    return pad + length, tuple(rows)
