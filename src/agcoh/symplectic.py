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
index of every entry in that padded series, so the characters of one
lambda over many classes only fill those entries from each class's series.
The determinant is the entry itself for l(lambda) = 1 and exact.determinant
otherwise: closed forms up to 4x4 (ad - bc, the cofactor expansion, the
Laplace expansion over the 2x2 minors of the first two rows) and
fraction-free Bareiss elimination with row pivoting from 5x5 up, since zero
pivots do occur at torsion points.  So the trace is an integer by
construction and no weight system is built.

The tests check the determinant against an independent oracle: the
Freudenthal weight system of V_lambda, evaluated as a weight sum in
Z[x]/Phi_N.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import WeightBudgetError
from .exact import determinant
from .records import Record

if TYPE_CHECKING:
    from .torsion import TorsionClass

# Guard for character_at_torsion: the longest h-series (lambda_1 + l(lambda)
# terms) it computes per class.  Far above every weight of interest, while a
# series this long still costs at most tens of milliseconds per class.
H_SERIES_BOUND = 10_000


class HighestWeight(Record):
    """Dominant weight lambda_1 >= ... >= lambda_g >= 0 for the rank-g
    symplectic group."""

    g: int
    lam: tuple[int, ...]
    # cache, not a field, as on TorsionClass: the Jacobi-Trudi index rows
    # of character_at_torsion
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
    """Exact trace of a torsion class on V_lambda, by the symplectic
    Jacobi-Trudi determinant (see the module docstring).  Checks, in order:
    the class degree against the rank, on every call; lambda = 0 gives 1;
    WeightBudgetError when the h-series would exceed H_SERIES_BOUND terms.
    The entry indices are built on the first call for hw that passes the
    bound and kept on hw, so an over-bound weight raises on every call."""
    if len(cls.characteristic_polynomial()) != 2 * hw.g + 1:
        raise ValueError(
            f"class degree {cls.degree} does not match group rank {2 * hw.g}")
    plan = hw._jacobi_trudi
    if plan is None:
        plan = _jacobi_trudi_rows(hw)
        object.__setattr__(hw, "_jacobi_trudi", plan)
    size, rows = plan
    if not rows:
        return 1
    h = cls.padded_h_series(size)
    if len(rows) == 1:      # l(lambda) = 1: the entry h_{lambda_1}, the trace on Sym^{lambda_1}
        return h[rows[0][0][0]]
    return determinant([[h[a] + h[b] for a, b in row] for row in rows])


def _jacobi_trudi_rows(hw: HighestWeight) -> tuple[int, tuple]:
    """(size, rows) for the determinant of character_at_torsion, as indices
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
