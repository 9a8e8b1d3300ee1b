"""Command-line front end.

Every invocation prints a schema-versioned JSON document on stdout:

    {"schema_version": 1, "command": ..., "inputs": ..., "citations": [...],
     "result": ..., "warnings": [...]}

with deterministic key order, so identical inputs give byte-identical
output.  TSV and LaTeX renderings are lossy projections of the same result.
Errors are structured JSON on stderr with exit code 2 (input validation),
3 (missing or inconsistent data files), 4 (registry incompleteness) or 5
(an internal invariant failed: a bug, never the user's input).

Data files can live in a directory named by AGCOH_DATA_DIR (masses/g{N}.tsv,
registry.json, signs.json); explicit flags override the environment.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

# Only the exceptions are imported here: each subcommand imports the engines
# it runs, so a call pays for nothing else.
from .errors import (MassTableError, RegistryConflictError,
                     RegistryIncompleteError, SignPolicyError,
                     WeightBudgetError)

if TYPE_CHECKING:
    from .arthur import Registry
    from .symplectic import HighestWeight

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_REGISTRY = 4
EXIT_INTERNAL = 5

DATA_DIR_ENV = "AGCOH_DATA_DIR"


class UsageError(ValueError):
    pass


class DataFileError(ValueError):
    pass


def _fr(x) -> str:
    """A rational as "n" or "n/d", exactly.  Decimal renders integers of any
    length, where str(int) stops at the interpreter's digit limit."""
    from decimal import Decimal
    text = str(Decimal(x.numerator))
    return text if x.denominator == 1 else f"{text}/{Decimal(x.denominator)}"


def _highest_weight(args) -> HighestWeight:
    """The weight --lambda (all zeros when absent) of rank --g; HighestWeight
    checks the entry count and dominance."""
    from .symplectic import HighestWeight
    if args.g < 1:
        raise UsageError("genus must be positive")
    try:
        lam = (0,) * args.g if args.lam is None else \
            tuple(int(x) for x in args.lam.split(","))
    except ValueError:
        raise UsageError(
            f"--lambda must be comma-separated integers, got {args.lam!r}")
    try:
        return HighestWeight(args.g, lam)
    except ValueError as exc:
        raise UsageError(f"--lambda: {exc}") from None


def _data_dir() -> Path | None:
    env = os.environ.get(DATA_DIR_ENV)
    return Path(env) if env else None


def _mass_path(args) -> Path:
    if args.masses:
        return Path(args.masses)
    base = _data_dir()
    if base is not None:
        candidate = base / "masses" / f"g{args.g}.tsv"
        if candidate.exists():
            return candidate
    raise DataFileError(
        f"no mass table: pass --masses FILE or put masses/g{args.g}.tsv "
        f"under ${DATA_DIR_ENV}")


def _load_registry(args) -> Registry:
    from .arthur import Registry, ingest_cardinalities
    path = getattr(args, "registry", None)
    if path is None:
        base = _data_dir()
        if base is not None and (base / "registry.json").exists():
            path = base / "registry.json"
    if path is None:
        return Registry.builtin()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return ingest_cardinalities(fh)
    except OSError as exc:
        raise DataFileError(f"cannot read registry file {path}: {exc}") from exc
    except (RegistryConflictError, json.JSONDecodeError) as exc:
        raise DataFileError(f"bad registry file {path}: {exc}") from exc


def _load_signs(args):
    mode = getattr(args, "signs", "default") or "default"
    if mode == "default":
        return "bundled"
    if mode == "both":
        return "both"
    path = Path(mode)
    if not path.exists():
        base = _data_dir()
        if base is not None and (base / mode).exists():
            path = base / mode
        else:
            raise DataFileError(f"sign file {mode} not found")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            mapping = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataFileError(f"bad sign file {path}: {exc}") from exc
    if not isinstance(mapping, dict):
        raise DataFileError("sign file must be a JSON object shape -> sign list")
    try:
        return {str(k): tuple(v) for k, v in mapping.items()}
    except TypeError as exc:
        raise DataFileError(
            f"bad sign file {path}: every value must be a sign list") from exc


# -- subcommands ---------------------------------------------------------------

def _cmd_taut(args):
    from . import tautring
    g = args.g
    poly = tautring.poincare_polynomial(g)
    return {
        "genus": g,
        "dimension": 2 ** g,
        "poincare": poly.coeff_list(0, g * (g + 1)),
    }, ["graded ring on the Chern classes of the tautological subbundle of "
        "the compact dual; graded dimensions count partitions into distinct "
        "parts bounded by the rank"], []


def _cmd_intersect(args):
    from . import proportionality
    g = args.g
    result = {"genus": g, "lambda1_power": _fr(proportionality.lambda1_power(g))}
    if args.exponents:
        try:
            exps = tuple(int(x) for x in args.exponents.split(","))
        except ValueError:
            raise UsageError("--exponents must be comma-separated integers")
        try:
            dual = proportionality.compact_dual_degree(g, exps)
        except ValueError as exc:
            raise UsageError(str(exc))
        result["exponents"] = list(exps)
        result["compact_dual_degree"] = _fr(dual)
        result["lambda_intersection"] = _fr(proportionality.lambda_intersection(g, exps))
    return result, ["Hirzebruch-Mumford proportionality with stacky "
                    "normalization; the rank-1 Hodge line bundle has degree 1/24"], []


def _cmd_modforms(args):
    from . import proportionality
    g = args.g
    coeff, expo = proportionality.modular_form_asymptotics(g)
    vol = proportionality.siegel_volume(g)
    return {
        "genus": g,
        "leading_coefficient": _fr(coeff),
        "exponent": expo,
        "siegel_volume": {"rational": _fr(vol.rational), "pi_exponent": vol.pi_exponent},
    }, ["leading term of the dimension of scalar modular forms of growing "
        "even weight; Siegel volume kept exact in pi"], []


def _cmd_torsion(args):
    from . import torsion
    classes = torsion.enumerate_torsion_classes(args.g, mod_negation=args.mod_negation)
    return {
        "genus": args.g,
        "mod_negation": bool(args.mod_negation),
        "count": len(classes),
        "classes": [c.encode() for c in classes],
    }, ["torsion conjugacy classes as cyclotomic multisets of total degree "
        "twice the rank with even multiplicity of the linear factors"], []


def _cmd_euler(args):
    from . import torsion
    g = args.g
    hw = _highest_weight(args)
    path = _mass_path(args)
    try:
        table = torsion.load_mass_table(path, g, strict=not args.lenient)
    except OSError as exc:
        raise DataFileError(f"cannot read mass table {path}: {exc}") from exc
    except MassTableError as exc:
        raise DataFileError(f"bad mass table {path}: {exc}") from exc
    warnings = list(table.warnings)
    if hw.weight % 2:
        warnings.append("odd weight: the elliptic term vanishes identically")
    value = torsion.elliptic_term(hw, table, strict=not args.lenient)
    return {
        "genus": g,
        "lambda": list(hw.lam),
        "mass_file": str(path),
        "classes": len(table.masses),
        "elliptic_term": _fr(value),
    }, ["elliptic part of the trace formula: mass-weighted character sum "
        "over torsion classes; equals the compactly supported Euler "
        "characteristic of the local system"], warnings


def _cmd_arthur(args):
    from .arthur import enumerate_parameters
    g = args.g
    hw = _highest_weight(args)
    registry = _load_registry(args)
    params = enumerate_parameters(hw, registry)
    warnings = []
    if hw.weight % 2:
        warnings.append("odd weight: the parameter set is empty")
    return {
        "genus": g,
        "lambda": list(hw.lam),
        "count": sum(m for _, m in params),
        "shapes": [{
            "shape": p.canonical_shape(),
            "multiplicity": m,
            "r": p.r,
            "field_degree": p.field_degree,
        } for p, m in params],
    }, ["level-one discrete parameters: weight blocks partitioning "
        "lambda + rho into runs centered at registered block weights"], warnings


def _cmd_ih(args):
    from . import spin
    g = args.g
    hw = _highest_weight(args)
    registry = _load_registry(args)
    signs = _load_signs(args)
    result = spin.ih_betti(hw, registry, signs=signs, include_hodge=args.hodge)
    per_shape = []
    for report in result.per_shape:
        variants = []
        for v in report.variants:
            entry = {
                "signs": list(v.signs),
                "betti": list(v.betti),
                "nu": list(v.nu),
                "primitive_degrees": list(v.primitive),
                "s_trivial": v.s_trivial,
            }
            if v.hodge is not None:
                entry["hodge"] = {f"{p},{q}": n for (p, q), n in sorted(v.hodge.items())}
            variants.append(entry)
        shape_entry = {"shape": report.shape, "multiplicity": report.multiplicity}
        if len(variants) == 1:
            shape_entry.update(variants[0])
        else:
            shape_entry["variants"] = variants
        per_shape.append(shape_entry)
    return {
        "genus": g,
        "lambda": list(hw.lam),
        "betti": list(result.betti) if result.betti is not None else None,
        "per_shape": per_shape,
    }, ["intersection cohomology of the minimal compactification via "
        "spin/half-spin branching of the enumerated parameters"], \
        list(result.warnings)


def _cmd_tables(args):
    from . import tables
    table = tables.reference_table(args.id)
    return {
        "id": table.identifier,
        "degrees": list(table.degrees),
        "values": [v if isinstance(v, int) else str(v) for v in table.values],
        "citation": table.citation,
    }, [table.citation], []


def _cmd_stable(args):
    from . import tables
    space = args.space
    n = None
    if space.startswith("universal"):
        tail = space[len("universal"):]
        if tail.startswith(":") or tail.startswith("("):
            try:
                n = int(tail.strip(":()"))
            except ValueError:
                raise UsageError(f"bad universal fibre power in {space!r}")
            space = "universal"
        else:
            raise UsageError("use --space universal:N")
    if space == "ih_sat":
        data = tables.stable_ih_series(args.max_degree)
    else:
        try:
            data = tables.stable_series(space, args.max_degree, n=n)
        except ValueError as exc:
            raise UsageError(str(exc))
    return data, ["stable graded dimensions: free graded-commutative algebra "
                  "on even-degree generators, by partition counting"], []


# -- plumbing ------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="agcoh", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--format", choices=("json", "tsv", "latex"), default="json")
        return p

    p = add("taut", _cmd_taut, help="tautological ring dimensions")
    p.add_argument("--g", type=int, required=True)

    p = add("intersect", _cmd_intersect, help="top intersection numbers")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--exponents", default=None,
                   help="comma-separated exponent vector n_1,...,n_g")

    p = add("modforms", _cmd_modforms, help="modular form dimension asymptotics")
    p.add_argument("--g", type=int, required=True)

    p = add("torsion", _cmd_torsion, help="torsion conjugacy classes")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--mod-negation", action="store_true")

    p = add("euler", _cmd_euler, help="elliptic term / Euler characteristic")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("--masses", default=None)
    p.add_argument("--lenient", action="store_true",
                   help="zero-fill missing masses instead of failing")

    p = add("arthur", _cmd_arthur, help="enumerate discrete parameters")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("--registry", default=None)

    p = add("ih", _cmd_ih, help="intersection cohomology of the minimal "
                                "compactification")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("--registry", default=None)
    p.add_argument("--signs", default="default",
                   help="default | both | path to a JSON sign file")
    p.add_argument("--hodge", action="store_true")

    p = add("tables", _cmd_tables, help="published reference tables")
    p.add_argument("--id", required=True)

    p = add("stable", _cmd_stable, help="stable Poincare series")
    p.add_argument("--space", required=True,
                   help="ag | sat | ih_sat | universal:N")
    p.add_argument("--max-degree", type=int, required=True)

    return parser


def _render_tsv(doc: dict) -> str:
    result = doc["result"]
    lines = []
    for key, value in result.items():
        if isinstance(value, list) and all(not isinstance(x, (dict, list)) for x in value):
            for i, x in enumerate(value):
                lines.append(f"{key}[{i}]\t{x}")
        elif isinstance(value, (str, int, float, bool)) or value is None:
            lines.append(f"{key}\t{value}")
        else:
            lines.append(f"{key}\t{json.dumps(value, sort_keys=True)}")
    return "\n".join(lines) + "\n"


def _render_latex(doc: dict) -> str:
    result = doc["result"]
    rows = []
    for key, value in result.items():
        if isinstance(value, list) and all(not isinstance(x, (dict, list)) for x in value):
            rendered = ", ".join(str(x) for x in value)
        elif isinstance(value, (str, int, float, bool)) or value is None:
            rendered = str(value)
        else:
            rendered = json.dumps(value, sort_keys=True)
        key_tex = key.replace("_", r"\_")
        rows.append(f"{key_tex} & {rendered} \\\\")
    return ("\\begin{tabular}{ll}\n" + "\n".join(rows) + "\n\\end{tabular}\n")


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift the interpreter's int-to-str digit limit (Python 3.11+; absent on
    some 3.10 releases) while a computed document renders, so that exact
    integers of any length print; parsing user input keeps the limit."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        yield
        return
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def load_result_schema() -> dict:
    """The JSON schema every result document validates against."""
    from importlib import resources
    text = resources.files("agcoh").joinpath(
        "schemas/command_result.schema.json").read_text(encoding="utf-8")
    return json.loads(text)


def run(argv) -> tuple[int, str, str]:
    """Run one invocation; returns (exit_code, stdout_text, stderr_text)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        result, citations, warnings = args.func(args)
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "inputs": {k: v for k, v in sorted(vars(args).items())
                       if k not in ("func", "command") and v is not None},
            "citations": citations,
            "result": result,
            "warnings": warnings,
        }
        with _unlimited_int_digits():
            if args.format == "tsv":
                return EXIT_OK, _render_tsv(doc), ""
            if args.format == "latex":
                return EXIT_OK, _render_latex(doc), ""
            return EXIT_OK, json.dumps(doc, indent=2) + "\n", ""
    except UsageError as exc:
        return _error(EXIT_USAGE, "usage", exc)
    except (DataFileError, MassTableError) as exc:
        return _error(EXIT_DATA, "data", exc)
    except RegistryIncompleteError as exc:
        return _error(EXIT_REGISTRY, "registry", exc)
    except SignPolicyError as exc:
        return _error(EXIT_DATA, "signs", exc)
    except KeyError as exc:
        # str(KeyError) quotes its message, so report the message itself
        return _error(EXIT_USAGE, "usage", exc.args[0] if exc.args else exc)
    except (ValueError, WeightBudgetError) as exc:
        return _error(EXIT_USAGE, "usage", exc)
    except AssertionError as exc:
        return _error(EXIT_INTERNAL, "internal",
                      f"internal invariant failed: {exc}")


def _error(code: int, kind: str, message: object) -> tuple[int, str, str]:
    err = {"error": {"type": kind, "message": str(message)}}
    return code, "", json.dumps(err, indent=2) + "\n"


def main(argv=None) -> int:
    code, out, err = run(sys.argv[1:] if argv is None else argv)
    if out:
        sys.stdout.write(out)
    if err:
        sys.stderr.write(err)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
