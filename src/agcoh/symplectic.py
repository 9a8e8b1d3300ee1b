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
class computes that series once and keeps it (TorsionClass.h_series),
extending it only when a longer lambda_1 + l(lambda) asks for more terms,
so the characters of one class over a range of lambda share one series.  The
determinant is taken by fraction-free Bareiss elimination with row
pivoting, because zero pivots do occur at torsion points, so the trace is
an integer by construction and no weight system is built.

The tests check the determinant against an independent oracle: the
Freudenthal weight system of V_lambda, evaluated as a weight sum in
Z[x]/Phi_N.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import WeightBudgetError
from .exact import bareiss
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

    def __init__(self, g: int, lam: tuple[int, ...]):
        lam = tuple(lam)
        if any(type(x) is not int for x in lam):
            raise TypeError(f"weight entries must be integers, got {lam!r}")
        if g < 1 or len(lam) != g:
            raise ValueError(f"need {g} weight entries, got {lam}")
        if any(a < b for a, b in zip(lam, lam[1:])) or lam[-1] < 0:
            raise ValueError(f"weight {lam} is not dominant")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "lam", lam)

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
    Jacobi-Trudi determinant (see the module docstring).  Raises
    WeightBudgetError when the h-series would exceed H_SERIES_BOUND terms."""
    if len(cls.characteristic_polynomial()) != 2 * hw.g + 1:
        raise ValueError(
            f"class degree {cls.degree} does not match group rank {2 * hw.g}")
    lam = [part for part in hw.lam if part]
    if not lam:
        return 1
    length = lam[0] + len(lam)
    if length > H_SERIES_BOUND:
        raise WeightBudgetError(
            f"lambda_1 + l(lambda) = {length} exceeds the h-series bound {H_SERIES_BOUND}")
    # h_k = 0 for k < 0: the matrix reads h_k down to k = 3 - 2 l(lambda)
    pad = 2 * len(lam)
    h = (0,) * pad + cls.h_series(length)
    rows = []
    for i, part in enumerate(lam, start=1):
        a = pad + part - i
        rows.append([h[a + 1]] + [h[a + j] + h[a - j + 2] for j in range(2, len(lam) + 1)])
    return bareiss(rows)[1]
