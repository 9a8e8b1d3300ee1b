"""Published reference tables and stable Poincare series.

The tables are embedded verbatim as acceptance oracles.  The stable series
are the rank-independent limits: a polynomial algebra on the odd Hodge
classes for the open space, with extra even generators for the minimal
compactification, and with degree-2 theta/Poincare classes for fibre powers
of the universal family.
"""
from agcoh import tables as tb
from agcoh import torsion as to

print("== reference tables ==")
for name in tb.table_ids():
    table = tb.reference_table(name)
    values = ", ".join(str(v) for v in table.values)
    print(f"{name:16s} degrees {table.degrees[0]}..{table.degrees[-1]}: {values}")

print("\nbounds are typed: the rank-4 minimal compactification row")
table = tb.reference_table("sat4_constraints")
for d, v in zip(table.degrees, table.values):
    print(f"  b_{d} {'=' if v.exact else '>='} {v.value}")

print("\n== cross-checks ==")
counts = tb.reference_table("torsion_counts")
recomputed = [len(to.enumerate_torsion_classes(g, mod_negation=True))
              for g in counts.degrees]
print("torsion counts recomputed:", recomputed, "match:", tuple(recomputed) == counts.values)

print("\n== stable series ==")
for space in ("ag", "sat"):
    data = tb.stable_series(space, 14)
    print(f"{space:4s}: {data['coefficients']}  ({data['validity']})")
data = tb.stable_series("universal:2", 8)
print(f"{data['space']}:", data["coefficients"])
print("ih_sat:", tb.stable_series("ih_sat", 14)["coefficients"],
      " (identical to the open-space series)")
