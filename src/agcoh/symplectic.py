"""Irreducible representations V_lambda of the rank-g symplectic group: the
dominant weights that name them (HighestWeight) and their Weyl dimensions.

A HighestWeight is plain weight data, compared, hashed and printed by its
fields alone.  Its characters at torsion elements live in `torsion`
(character_at_torsion, elliptic_term), beside the h-series of each class
that their Jacobi-Trudi determinants read.
"""
from __future__ import annotations

from .records import Record


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
