"""The tautological ring in rank g: a 2^g-dimensional graded Gorenstein ring.

The ring is generated by classes u_1, ..., u_g of degree 2, 4, ..., 2g with
the single relation (1 + u_1 + ... + u_g)(1 - u_1 + u_2 - ...) = 1, whose
graded pieces rewrite every square u_k^2 into square-free monomials.  The
square-free monomials u_S therefore form a basis; the socle is u_1 ... u_g,
and complementary monomials pair perfectly.
"""
from agcoh import tautring as tr

g = 3
print(f"== the ring at g = {g} ==")
print("dimension:", 2 ** g)
poincare = tr.poincare_polynomial(g)
print("Poincare polynomial coefficients (degrees 0..{}):".format(g * (g + 1)),
      [int(c) for c in poincare.coeff_list(0, g * (g + 1))])

print("\n== square rewriting ==")
print("u_1^2          ->", tr.monomial(g, (2, 0, 0)))
print("u_2^2          ->", tr.monomial(g, (0, 2, 0)))
print("u_1^2 u_2      ->", tr.monomial(g, (2, 1, 0)))
print("u_1^6 (socle): ->", tr.monomial(g, (6, 0, 0)))

print("\n== socle pairing ==")
u1, u2, u3 = (tr.u(g, i) for i in (1, 2, 3))
socle = (1 << g) - 1  # the bitmask of u_1 u_2 u_3
print("<u_1, u_2 u_3> =", (u1 * (u2 * u3)).coeff(socle))
print("<u_1, u_1^2>   =", (u1 * (u1 * u1)).coeff(socle), "  (via u_1^3 = 2 u_1 u_2 + ...)")
print("<u_1 u_2, u_3> =", (u1 * u2 * u3).coeff(socle))

print("\nperfect pairing: ranks of the degree-paired matrices")
for deg in range(0, g * (g + 1) + 1, 2):
    m = tr.pairing_matrix(g, deg)
    print(f"  degree {deg:2d}: size {len(m)}x{len(m[0])}, rank {tr.matrix_rank(m)}")

print("\n== quotient by the top generator ==")
corr = tr.quotient_by_top(g)
print(f"setting u_{g} = 0 reproduces the rank-{g - 1} ring on a basis of",
      len(corr), "monomials")

print("\ntotal dimensions for g = 1..12:",
      [int(tr.poincare_polynomial(k).evaluate_all_ones()) for k in range(1, 13)])
