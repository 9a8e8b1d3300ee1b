"""Per-workload job runners and output checks, used inside worker processes.

Each workload has `setup(spec)` (load the generated inputs through the
program's own parsers), `run(state, job)` (the timed work of one job),
`check(state, job, output)` (untimed; returns a list of problems) and
`digest(job, output)` (a stable text form of the output, hashed and compared
with the digests recorded at the seed commit for the default seed).
"""
from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction

from agcoh import proportionality, spin, tables, tautring, torsion
from agcoh.arthur import Registry
from agcoh.symplectic import HighestWeight, weyl_dimension
from agcoh.torsion import MassTable, TorsionClass
from inputs import child_env

CHILD_TIMEOUT_S = 60


def _cusp_forms_sl2z(k: int) -> int:
    """dim S_k(SL_2(Z)) for even k >= 2."""
    if k < 12 or k % 2:
        return 0
    return k // 12 - (1 if k % 12 == 2 else 0)


# -- euler ---------------------------------------------------------------------

class Euler:
    @staticmethod
    def setup(spec):
        return {int(g): torsion.load_mass_table(path, int(g))
                for g, path in spec["tables"].items()}

    @staticmethod
    def run(loaded, job):
        return torsion.elliptic_term(HighestWeight(job["g"], tuple(job["lam"])), loaded[job["g"]])

    @staticmethod
    def check(loaded, job, value):
        g, lam = job["g"], tuple(job["lam"])
        hw = HighestWeight(g, lam)
        problems = []
        if g == 1 and lam[0] > 0:
            want = -1 - 2 * _cusp_forms_sl2z(lam[0] + 2)
            if value != want:
                problems.append(f"rank 1: {value} != -1 - 2 dim S_{lam[0] + 2} = {want}")
        if not any(lam):
            if value != loaded[g].total():
                problems.append(f"lambda=0: {value} != total mass {loaded[g].total()}")
            problems += _class_count_problems(g, loaded[g])
        dim = weyl_dimension(hw)
        for d, sign in ((1, 1), (2, (-1) ** sum(lam))):
            central = MassTable(genus=g, masses={TorsionClass(((d, 2 * g),)): Fraction(1)})
            got = torsion.elliptic_term(hw, central)
            if got != sign * dim:
                problems.append(f"{d}^{2 * g}-only table: {got} != {sign * dim}")
        return problems

    @staticmethod
    def digest(job, value):
        return str(value)


def _class_count_problems(g: int, table: MassTable) -> list[str]:
    ref = tables.reference_table("torsion_counts")
    want = dict(zip(ref.degrees, ref.values))[g]
    problems = []
    orbits = len(torsion.enumerate_torsion_classes(g, mod_negation=True))
    if orbits != want:
        problems.append(f"rank {g}: {orbits} orbits != reference {want}")
    full = len(torsion.enumerate_torsion_classes(g))
    if len(table.masses) != full:
        problems.append(f"rank {g}: mass table covers {len(table.masses)} of {full} classes")
    return problems


# -- ih_taut -------------------------------------------------------------------

class IHTaut:
    """ih_betti jobs (kind "ih") and tautological-ring jobs (the rest)."""

    @staticmethod
    def setup(spec):
        elements = {job["id"]: [tautring.RingElement(job["g"], {m: c for m, c in element})
                                for element in job["elements"]]
                    for job in spec["jobs"] if job["kind"] == "triple"}
        return Registry.builtin(), elements

    @staticmethod
    def run(state, job):
        registry, elements = state
        kind, g = job["kind"], job["g"]
        if kind == "ih":
            return spin.ih_betti(HighestWeight(g, tuple(job["lam"])), registry,
                                 signs="both", include_hodge=job["hodge"])
        if kind == "lambda":
            return proportionality.lambda_intersection(g, tuple(job["exponents"]))
        if kind == "rank":
            return tautring.matrix_rank(tautring.pairing_matrix(g, job["degree"]))
        if kind == "quotient":
            return tautring.quotient_by_top(g)
        a, b, c = elements[job["id"]]
        return ((a * b) * c, a * (b * c), a * b, b * a)

    @staticmethod
    def check(state, job, out):
        kind, g = job["kind"], job["g"]
        if kind == "ih":
            return _ih_problems(job, out)
        if kind == "lambda":
            if job["exponents"][0] == g * (g + 1) // 2 and out != proportionality.lambda1_power(g):
                return [f"lambda_1 power {out} != closed form {proportionality.lambda1_power(g)}"]
        elif kind == "rank":
            want = tautring.graded_dimension(g, job["degree"])
            if out != want:
                return [f"pairing rank {out} != graded dimension {want}"]
        elif kind == "quotient":
            if out != {m: m for m in range(1 << (g - 1))}:
                return ["quotient map is not the identity on R_{g-1}"]
        else:
            left, right, ab, ba = out
            problems = []
            if left != right:
                problems.append("product is not associative")
            if ab != ba:
                problems.append("product is not commutative")
            return problems
        return []

    @staticmethod
    def digest(job, out):
        if job["kind"] == "ih":
            shapes = [[r.shape, r.multiplicity,
                       [[list(v.signs), list(v.betti), list(v.nu), list(v.primitive),
                         v.s_trivial, sorted([list(k), n] for k, n in (v.hodge or {}).items())]
                        for v in r.variants]] for r in out.per_shape]
            return json.dumps([out.betti, shapes, list(out.warnings)])
        if job["kind"] == "quotient":
            return str(len(out))
        if job["kind"] == "triple":
            return repr(out[0].items())
        return str(out)


def _ih_problems(job, result) -> list[str]:
    g, lam = job["g"], tuple(job["lam"])
    problems = []
    if g <= 5 and not any(lam):
        want = [int(c) for c in tautring.poincare_polynomial(g).coeff_list(0, g * (g + 1))]
        if list(result.betti or ()) != want:
            problems.append(f"betti {result.betti} != tautological ring {want}")
    if result.betti is not None and result.betti != result.betti[::-1]:
        problems.append("total Betti numbers are not symmetric")
    for report in result.per_shape:
        for v in report.variants:
            if v.betti != v.betti[::-1]:
                problems.append(f"{report.shape} {v.signs}: Betti not symmetric")
            if job["hodge"] and sum(v.hodge.values()) != sum(v.betti):
                problems.append(f"{report.shape} {v.signs}: Hodge total != Betti total")
    return problems


# -- cli -----------------------------------------------------------------------

class CLI:
    @staticmethod
    def setup(spec):
        from agcoh import cli
        cli.build_parser()
        return {"tables": {int(g): torsion.load_mass_table(path, int(g))
                           for g, path in spec["tables"].items()},
                "schema": None}

    @staticmethod
    def run(state, job):
        proc = subprocess.run([sys.executable, "-m", "agcoh.cli", *job["argv"]],
                              capture_output=True, text=True, env=child_env(),
                              timeout=CHILD_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    @staticmethod
    def run_in_process(state, job):
        from agcoh import cli
        return cli.run(job["argv"])

    @staticmethod
    def check(state, job, out):
        """Success: exit 0, empty stderr, JSON stdout that validates against
        the program's schema.  Error path: the expected documented exit code
        (any documented nonzero one where none is pinned), empty stdout and a
        structured JSON error on stderr.  Never a traceback."""
        import jsonschema
        from agcoh import cli

        if state["schema"] is None:
            state["schema"] = cli.load_result_schema()
        documented = {v for k, v in vars(cli).items()
                      if k.startswith("EXIT_") and isinstance(v, int)}
        code, stdout, stderr = out
        if "Traceback" in stderr:
            return [f"traceback on stderr (exit {code})"]
        if code not in documented:
            return [f"undocumented exit code {code}"]
        expect = job["expect"]
        if expect == 0:
            if code != 0 or stderr:
                return [f"exit {code}, stderr {stderr[:200]!r}"]
            if "--format" not in job["argv"]:
                try:
                    jsonschema.validate(json.loads(stdout), state["schema"])
                except (ValueError, jsonschema.ValidationError) as exc:
                    return [f"stdout does not validate: {str(exc)[:200]}"]
            elif not stdout:
                return ["empty rendering"]
            return []
        if code == 0 or (expect != "documented" and code != expect):
            return [f"exit {code}, expected {expect}"]
        try:
            err = json.loads(stderr)
        except ValueError:
            return ["stderr is not JSON"]
        report = err.get("error") if isinstance(err, dict) else None
        if stdout or set(err) != {"error"} or not isinstance(report, dict) or \
                not isinstance(report.get("type"), str) or \
                not isinstance(report.get("message"), str):
            return [f"error report is not structured: {stderr[:200]!r}"]
        return []

    @staticmethod
    def digest(job, out):
        """Success: the exact bytes.  Error path: the exit code and error
        type only, so that rewording a message is not a changed output."""
        code, stdout, stderr = out
        if job["expect"] == 0:
            return json.dumps([code, stdout, stderr])
        try:
            kind = json.loads(stderr)["error"]["type"]
        except (ValueError, KeyError, TypeError):
            kind = "<unstructured>"
        return json.dumps([code, kind])


WORKLOADS = {"euler": Euler, "ih_taut": IHTaut, "cli": CLI}
