"""Torsion conjugacy classes and the elliptic term of the trace formula.

A torsion class is a multiset of cyclotomic polynomials of total degree 2g
with the linear factors appearing evenly; negation acts index-wise and
preserves masses, so mass tables carry one record per negation orbit.  The
mass-weighted character sum over the full class set is the compactly
supported Euler characteristic of the local system.  Masses come from
external data: the orbital-integral computation is out of scope here, and
only a rank-1 example table ships with the repo.
"""
from pathlib import Path

from agcoh import torsion as to
from agcoh.symplectic import HighestWeight

print("== class enumeration ==")
for g in range(1, 8):
    full = len(to.enumerate_torsion_classes(g))
    mod = len(to.enumerate_torsion_classes(g, mod_negation=True))
    print(f"g={g}: {full:4d} classes, {mod:4d} modulo negation")

print("\nrank-1 classes:", [c.encode() for c in to.enumerate_torsion_classes(1)])
c = to.TorsionClass.parse("1^2,3^1")
print(f"negation of {c} is {c.negate()}; orbit representative {c.orbit_representative()}")

print("\n== the example rank-1 mass table ==")
path = Path(__file__).parent / "data" / "masses" / "g1.tsv"
table = to.load_mass_table(path, 1)
for cls in to.enumerate_torsion_classes(1):
    print(f"  m[{cls.encode():4s}] = {table.mass(cls)}")
print("sum of masses = e(A_1) =", table.total())

print("\n== elliptic terms against classical modular forms ==")
print("With the 2k-th symmetric power system the elliptic term equals")
print("-(2 dim S_{2k+2} + 1); dim S_12 = 1 is the discriminant form.")
for k in (1, 4, 5, 7, 8):
    hw = HighestWeight(1, (2 * k,))
    value = to.elliptic_term(hw, table)
    print(f"  coefficients Sym^{2*k}: elliptic term = {value}")

# -1 acts on V_lambda by (-1)^{|lambda|}, so tr(-c) = -tr(c) at odd weight:
# with the negation-symmetric masses of a parsed table each orbit's weight
# m_c - m_{-c} is zero, a class with c = -c has trace zero, and
# elliptic_term evaluates no character at all.
print("\nodd-weight systems vanish identically:",
      to.elliptic_term(HighestWeight(1, (3,)), table))
