"""Exact-arithmetic invariants of the moduli space of principally polarized
abelian varieties and its compactifications.

Submodules:
  exact            Bernoulli/zeta values, cyclotomic and integer Laurent
                   polynomial arithmetic, fraction-free elimination
  tautring         the 2^g-dimensional graded ring on the tautological Chern
                   classes, its pairing matrices and rank-reduction quotient
  proportionality  exact top intersection numbers of the Hodge classes and
                   modular-form dimension asymptotics
  symplectic       highest weights of irreducible symplectic
                   representations and their Weyl dimensions
  torsion          torsion conjugacy classes, their exact characters on
                   V_lambda, mass-table ingestion, and the elliptic term of
                   the trace formula
  arthur           level-one cuspidal building blocks and parameter
                   enumeration
  spin             spin/half-spin branching and intersection-cohomology
                   Betti numbers and Hodge diamonds of the minimal
                   compactification
  tables           published reference tables and stable Poincare series
  errors           the exceptions the command maps to exit codes
  records          the base of the engines' immutable record classes
  cli              the `agcoh` command-line front end

`import agcoh` is lazy: it loads no engine.  Each name in `__all__` imports
its submodule on first access (PEP 562), so `agcoh.ih_betti` costs the
`spin` engine and what it needs, and nothing else.
"""
import importlib

__version__ = "0.1.0"

# The public names, by the submodule that defines them.
_EXPORTS = {
    "exact": ("LaurentPoly", "bernoulli", "cyclotomic", "negate_cyclotomic_index"),
    "tautring": ("RingElement", "compact_dual_degree", "poincare_polynomial",
                 "quotient_by_top"),
    "proportionality": ("PiScaledRational", "lambda1_power", "lambda_intersection",
                        "modular_form_asymptotics", "siegel_volume"),
    "symplectic": ("HighestWeight", "weyl_dimension"),
    "torsion": ("MassTable", "TorsionClass", "character_at_torsion", "elliptic_term",
                "enumerate_torsion_classes", "parse_mass_table"),
    "arthur": ("ArthurParameter", "BlockKind", "BuildingBlock", "Registry",
               "enumerate_parameters", "ingest_cardinalities", "weight_block"),
    "spin": ("IHResult", "hodge_diamond", "ih_betti"),
    "tables": ("reference_table", "stable_series"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
