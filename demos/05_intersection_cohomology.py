"""Intersection cohomology of the minimal compactification.

Each parameter contributes a two-variable character: the T-variable records
the shift from middle degree (so the Betti numbers are its coefficients)
and the S-variable the circle action q - p on the Hodge bigrading.  For
ranks up to 5 only the principal parameter exists and the answer is the
graded tautological ring; from rank 6 on, extra parameters contribute
primitive classes below middle degree.
"""
from agcoh import arthur as ar
from agcoh import spin as sp
from agcoh import tautring as tr
from agcoh.symplectic import HighestWeight

reg = ar.Registry.builtin()

print("== ranks 1..5: the graded tautological ring ==")
for g in range(1, 6):
    res = sp.ih_betti(HighestWeight(g, (0,) * g), reg)
    assert list(res.betti) == [int(c) for c in
                               tr.poincare_polynomial(g).coeff_list(0, g * (g + 1))]
    print(f"g={g}: even Betti numbers {list(res.betti[::2])}")

print("\n== rank 6: one extra parameter ==")
res = sp.ih_betti(HighestWeight(6, (0,) * 6), reg, include_hodge=True)
print("even Betti numbers:", list(res.betti[::2]))
for report in res.per_shape:
    v = report.variants[0]
    print(f"shape {report.shape}: signs {v.signs}, strings {list(v.nu)}, "
          f"primitive degrees {list(v.primitive)}")
    if v.hodge and report.shape != "[13]":
        print("  Hodge diamond diagonal?", all(p == q for p, q in v.hodge))

print("\n== rank 7: the worked two-variable decomposition ==")
both = sp.ih_betti(HighestWeight(7, (0,) * 7), reg, signs="both", include_hodge=True)
report = next(r for r in both.per_shape if r.shape == "D11[4]+[7]")
variant = next(v for v in report.variants if v.signs == ("+",))
print("shape:", report.shape, " dimension:", sum(variant.betti))
print("q - p values present:", sorted({q - p for p, q in variant.hodge}))
print("strings at S=1:", list(variant.nu))

print("\n== rank 8 needs sign input: emit-both mode ==")
both = sp.ih_betti(HighestWeight(8, (0,) * 8), reg, signs="both")
print("warnings:", list(both.warnings))
for report in both.per_shape:
    if len(report.variants) > 1:
        betti_sets = [sum(v.betti) for v in report.variants]
        print(f"shape {report.shape}: {len(report.variants)} sign variants, "
              f"total dimensions {betti_sets}")

print("\n== local systems: vanishing and a Saito-Kurokawa-type diamond ==")
print("rank 3, weights (1,1,0):",
      list(sp.ih_betti(HighestWeight(3, (1, 1, 0)), reg).betti))
(report,) = sp.ih_betti(HighestWeight(2, (4, 4)), reg, signs="both",
                        include_hodge=True).per_shape
print(f"rank 2, weights (4,4): shape {report.shape}")
for variant in report.variants:
    print(f"  sign {variant.signs[0]}: Hodge diamond {sorted(variant.hodge.items())}")
