"""Command-line front end.

Every successful invocation prints a schema-versioned JSON document on
stdout (--help prints plain-text help instead):

    {"schema_version": 1, "command": ..., "inputs": ..., "citations": [...],
     "result": ..., "warnings": [...]}

with deterministic key order, so identical inputs give byte-identical
output.  TSV and LaTeX renderings are lossy projections of the same result.
Errors are structured JSON on stderr; the exception's type decides the exit
code: 2 for input refused or past a work bound (InputError), 3 for data
files (DataFileError, MassTableError, SignPolicyError), 4 for
RegistryIncompleteError, 5 for any other exception (a bug, never the input).

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
from .errors import (InputError, MassTableError, RegistryIncompleteError,
                     SignPolicyError)

if TYPE_CHECKING:
    from typing import Iterator

    from .arthur import Registry
    from .symplectic import HighestWeight

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_REGISTRY = 4
EXIT_INTERNAL = 5

DATA_DIR_ENV = "AGCOH_DATA_DIR"


class DataFileError(ValueError):
    pass


def _fr(x) -> str:
    """A rational as "n" or "n/d", exactly, of any length."""
    with _unlimited_int_digits():
        return str(x)


def _highest_weight(args) -> HighestWeight:
    """The weight --lambda (all zeros when absent) of rank --g; HighestWeight
    checks the entry count and dominance."""
    from .symplectic import HighestWeight
    try:
        lam = (0,) * args.g if args.lam is None else \
            tuple(int(x) for x in args.lam.split(","))
    except ValueError:
        raise InputError(f"--lambda must be comma-separated integers, got {args.lam!r}")
    try:
        return HighestWeight(args.g, lam)
    except ValueError as exc:
        raise InputError(f"--lambda: {exc}") from None


def _data_file(name: str) -> Path | None:
    """$AGCOH_DATA_DIR/name when the variable is set and that file exists."""
    env = os.environ.get(DATA_DIR_ENV)
    path = Path(env, name) if env else None
    return path if path is not None and path.exists() else None


def _mass_path(args) -> Path:
    path = Path(args.masses) if args.masses else _data_file(f"masses/g{args.g}.tsv")
    if path is None:
        raise DataFileError(
            f"no mass table: pass --masses FILE or put masses/g{args.g}.tsv "
            f"under ${DATA_DIR_ENV}")
    return path


def _read_data_file(path, what: str, parse, errors=(ValueError, RecursionError)):
    """parse(fh) of the UTF-8 data file at path.  A file that cannot be
    opened or read is "cannot read {what} {path}"; one that is not UTF-8, or
    that parse refuses with one of errors, is "bad {what} {path}"; both exit
    3.  The default errors are json.load's (bad JSON, an integer past the
    digit limit, nesting past the recursion limit) and RegistryConflictError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh)
    except OSError as exc:
        raise DataFileError(f"cannot read {what} {path}: {exc}") from exc
    except (UnicodeDecodeError, *errors) as exc:
        raise DataFileError(f"bad {what} {path}: {exc}") from exc


def _load_registry(args) -> Registry:
    from .arthur import Registry, ingest_cardinalities
    path = args.registry or _data_file("registry.json")
    if path is None:
        return Registry.builtin()
    return _read_data_file(path, "registry file", ingest_cardinalities)


def _load_signs(mode: str):
    if mode == "default":
        return "bundled"
    if mode == "both":
        return "both"
    path = Path(mode)
    if not path.exists():
        path = _data_file(mode)
        if path is None:
            raise DataFileError(f"sign file {mode} not found")
    mapping = _read_data_file(path, "sign file", json.load)
    if not isinstance(mapping, dict):
        raise DataFileError("sign file must be a JSON object shape -> sign list")
    # a bare string is not split into its characters
    if not all(isinstance(v, list) for v in mapping.values()):
        raise DataFileError(f"bad sign file {path}: every value must be a sign list")
    return {k: tuple(v) for k, v in mapping.items()}


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
            raise InputError("--exponents must be comma-separated integers")
        result["exponents"] = list(exps)
        result["compact_dual_degree"] = _fr(proportionality.compact_dual_degree(g, exps))
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
    table = _read_data_file(path, "mass table", lambda fh: torsion.parse_mass_table(
        fh, g, strict=not args.lenient, provenance=str(path)), (MassTableError,))
    warnings = list(table.warnings)
    if hw.weight % 2:
        warnings.append("odd weight: the elliptic term vanishes identically")
    value = torsion.elliptic_term(hw, table)
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
    signs = _load_signs(args.signs)
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
    return tables.stable_series(args.space, args.max_degree), [
        "stable graded dimensions: free graded-commutative algebra "
        "on even-degree generators, by partition counting"], []


# -- plumbing ------------------------------------------------------------------

class _HelpRequested(Exception):
    """Carries the --help text from the parser to run."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)

    def print_help(self, file=None):
        # argparse's --help prints and exits; run returns the text instead
        raise _HelpRequested(self.format_help())


def _nonempty(text: str) -> str:
    """A flag value given explicitly: empty is refused, never read as absent."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


_G = ("--g", {"type": int, "required": True})
_LAMBDA = ("--lambda", {"dest": "lam", "default": None})
_REGISTRY = ("--registry", {"type": _nonempty})

#: name -> (function, help, arguments after --format as (flag, keywords))
_SUBCOMMANDS = {
    "taut": (_cmd_taut, "tautological ring dimensions", [_G]),
    "intersect": (_cmd_intersect, "top intersection numbers", [
        _G, ("--exponents", {"type": _nonempty,
                             "help": "comma-separated exponent vector n_1,...,n_g"})]),
    "modforms": (_cmd_modforms, "modular form dimension asymptotics", [_G]),
    "torsion": (_cmd_torsion, "torsion conjugacy classes",
                [_G, ("--mod-negation", {"action": "store_true"})]),
    "euler": (_cmd_euler, "elliptic term / Euler characteristic", [
        _G, _LAMBDA, ("--masses", {"type": _nonempty}),
        ("--lenient", {"action": "store_true",
                       "help": "zero-fill missing masses instead of failing"})]),
    "arthur": (_cmd_arthur, "enumerate discrete parameters", [_G, _LAMBDA, _REGISTRY]),
    "ih": (_cmd_ih, "intersection cohomology of the minimal compactification", [
        _G, _LAMBDA, _REGISTRY,
        ("--signs", {"type": _nonempty, "default": "default",
                     "help": "default | both | path to a JSON sign file"}),
        ("--hodge", {"action": "store_true"})]),
    "tables": (_cmd_tables, "published reference tables", [("--id", {"required": True})]),
    "stable": (_cmd_stable, "stable Poincare series", [
        ("--space", {"required": True, "help": "ag | sat | ih_sat | universal:N"}),
        ("--max-degree", {"type": int, "required": True})]),
}


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser for argv.  Parsing it needs only the subparser that its
    first word names, so only that one is built when there is one;
    otherwise (no arguments, --help, an unknown name) all of them are, for
    the full help text and the list of choices."""
    parser = _Parser(prog="agcoh", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    names = argv[:1] if argv and argv[0] in _SUBCOMMANDS else _SUBCOMMANDS
    for name in names:
        func, help_text, arguments = _SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--format", choices=("json", "tsv", "latex"), default="json")
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
    return parser


def _flat_entries(result: dict) -> Iterator[tuple[str, str | list[str]]]:
    """(key, text) per entry of a result: a list of scalars gives its items'
    texts as a list, a scalar its str, anything else its sorted JSON."""
    for key, value in result.items():
        if isinstance(value, list) and all(not isinstance(x, (dict, list)) for x in value):
            yield key, [str(x) for x in value]
        elif isinstance(value, (str, int, float, bool)) or value is None:
            yield key, str(value)
        else:
            yield key, json.dumps(value, sort_keys=True)


def _render_tsv(doc: dict) -> str:
    lines = []
    for key, text in _flat_entries(doc["result"]):
        if isinstance(text, list):    # one line per item, none for an empty list
            lines.extend(f"{key}[{i}]\t{x}" for i, x in enumerate(text))
        else:
            lines.append(f"{key}\t{text}")
    return "\n".join(lines) + "\n"


def _render_latex(doc: dict) -> str:
    rows = []
    for key, text in _flat_entries(doc["result"]):
        rendered = ", ".join(text) if isinstance(text, list) else text
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
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
        if getattr(args, "g", 1) < 1:
            raise InputError("genus must be positive")
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
    except _HelpRequested as req:
        return EXIT_OK, req.args[0], ""
    except InputError as exc:
        return _error(EXIT_USAGE, "usage", exc)
    except (DataFileError, MassTableError) as exc:
        return _error(EXIT_DATA, "data", exc)
    except SignPolicyError as exc:
        return _error(EXIT_DATA, "signs", exc)
    except RegistryIncompleteError as exc:
        return _error(EXIT_REGISTRY, "registry", exc)
    except AssertionError as exc:
        return _error(EXIT_INTERNAL, "internal", f"internal invariant failed: {exc}")
    except Exception as exc:
        return _error(EXIT_INTERNAL, "internal", f"{type(exc).__name__}: {exc}")


def _error(code: int, kind: str, message: object) -> tuple[int, str, str]:
    err = {"error": {"type": kind, "message": str(message)}}
    return code, "", json.dumps(err, indent=2) + "\n"


def main(argv=None) -> int:
    code, out, err = run(sys.argv[1:] if argv is None else argv)
    sys.stdout.write(out)
    sys.stderr.write(err)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
