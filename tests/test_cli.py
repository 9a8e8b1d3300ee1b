import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agcoh import cli, proportionality, spin, tables
from agcoh.cli import (EXIT_DATA, EXIT_INTERNAL, EXIT_REGISTRY, EXIT_USAGE,
                       load_result_schema, run)
from agcoh.exact import zeta_product
from agcoh.proportionality import lambda1_power
from agcoh.symplectic import HighestWeight, weyl_dimension

DEMO_MASSES = Path(__file__).resolve().parent.parent / "demos" / "data" / "masses"
SRC = Path(__file__).resolve().parent.parent / "src"


def run_ok(argv):
    code, out, err = run(argv)
    assert code == 0, err
    assert err == ""
    return json.loads(out)


def test_every_subcommand_validates_against_schema():
    schema = load_result_schema()
    invocations = [
        ["taut", "--g", "3"],
        ["intersect", "--g", "2", "--exponents", "1,1"],
        ["modforms", "--g", "2"],
        ["torsion", "--g", "2", "--mod-negation"],
        ["euler", "--g", "1", "--masses", str(DEMO_MASSES / "g1.tsv")],
        ["arthur", "--g", "6", "--lambda", "0,0,0,0,0,0"],
        ["ih", "--g", "4", "--lambda", "0,0,0,0"],
        ["tables", "--id", "perf4_ih"],
        ["stable", "--space", "ag", "--max-degree", "8"],
    ]
    for argv in invocations:
        doc = run_ok(argv)
        jsonschema.validate(doc, schema)
        assert doc["schema_version"] == 1


def test_determinism_byte_identical():
    for argv in (["ih", "--g", "5", "--lambda", "0,0,0,0,0", "--hodge"],
                 ["torsion", "--g", "3"],
                 ["stable", "--space", "universal:2", "--max-degree", "10"]):
        code1, out1, _ = run(argv)
        code2, out2, _ = run(argv)
        assert code1 == code2 == 0
        assert out1 == out2


def test_ih_output_bytes_pinned():
    # sha256 of the stdout documents, recorded before the spin assembly was
    # restructured; refactors of the character engines must keep them
    pinned = {
        ("ih", "--g", "8", "--signs", "both", "--hodge"):
            "7cf0500e6b271cc02fda12269b959bc211ebafaca3c8a3807723662846c84056",
        ("ih", "--g", "6", "--hodge"):
            "aa3a45639ac72542335f5ddfab33f6c8e873163fbcdb34cb9520429fb0a79ca0",
        ("ih", "--g", "4", "--lambda", "6,2,2,0", "--signs", "both", "--hodge"):
            "7595d9111a9bcbc8fdf9be1775efb66cf1e3a90cc89c62efb7e4ead53a4794e4",
        # recorded while spin characters still carried doubled exponents
        ("ih", "--g", "11", "--signs", "both", "--hodge"):
            "f3e3971aab71cd4f5f477c18454417b80a378ec48d06f68bec2eec407c5b8f1f",
        ("ih", "--g", "2", "--lambda", "4,4", "--signs", "both", "--hodge"):
            "93e0fd861e3d0afc6133142ac372bdfed5f8e846c0d8300c39cd066963e0af7c",
    }
    for argv, digest in pinned.items():
        code, out, err = run(list(argv))
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_closed_form_output_bytes_pinned():
    """sha256 over every code, stdout and stderr of intersect, modforms and
    taut at g = 1..40 in each format, recorded before the closed forms were
    rebuilt from integer products.  A deliberate change to these documents
    re-records the value."""
    digest = hashlib.sha256()
    for g in range(1, 41):
        for cmd in ("intersect", "modforms", "taut"):
            for fmt in ("json", "tsv", "latex"):
                code, out, err = run([cmd, "--g", str(g), "--format", fmt])
                digest.update(f"{code}|{out}|{err}".encode())
    assert digest.hexdigest() == \
        "61dcdec7ee041d7558c3303a11117da311cfd977470cf61ef3f549e55ce425c5"


def test_euler_output_bytes_pinned(tmp_path, monkeypatch):
    """sha256 over every code, stdout and stderr of euler in each format: the
    bundled rank-1 table at every even k < 60, and rank-2 and rank-3 tables
    written here from a fixed seed at every dominant lambda of size <= 6 and
    <= 4, odd sizes included.  Recorded before the elliptic term kept its
    orbit weights per table and its Jacobi-Trudi index rows per weight.  The
    tables are named relative to the working directory, so the documents do
    not depend on where the checkout lives."""
    from agcoh.torsion import enumerate_torsion_classes

    monkeypatch.chdir(tmp_path)
    (tmp_path / "g1.tsv").write_text((DEMO_MASSES / "g1.tsv").read_text())
    invocations = [("1", str(k)) for k in range(0, 60, 2)]
    rng = random.Random(2025)
    for g, size in ((2, 6), (3, 4)):
        lines = [f"genus: {g}"] + [
            f"{c.encode()}\t{rng.randint(-99, 99)}/{rng.choice((1, 2, 3, 4, 6, 8, 9, 12, 45))}"
            for c in enumerate_torsion_classes(g, mod_negation=True)]
        (tmp_path / f"g{g}.tsv").write_text("\n".join(lines) + "\n")
        invocations += [(str(g), ",".join(map(str, lam)))
                        for lam in itertools.product(range(size + 1), repeat=g)
                        if list(lam) == sorted(lam, reverse=True) and sum(lam) <= size]
    digest = hashlib.sha256()
    for g, lam in invocations:
        for fmt in ("json", "tsv", "latex"):
            code, out, err = run(["euler", "--g", g, "--lambda", lam,
                                  "--masses", f"g{g}.tsv", "--format", fmt])
            digest.update(f"{code}|{out}|{err}".encode())
    assert digest.hexdigest() == \
        "c28b9adb2ae422131e7a8c7ef509ea94599bab142d816cdab78b0c186b4d565f"


def test_euler_lenient_output_bytes_pinned(tmp_path, monkeypatch):
    """sha256 over every code, stdout and stderr of `euler --lenient` in each
    format on header-only tables, where every class but the two central
    ones is zero-filled: rank 4 at lambda = (8,4,2,0) and rank 3 at
    (2,0,0).  Recorded before completeness became a count."""
    monkeypatch.chdir(tmp_path)
    for g in (4, 3):
        (tmp_path / f"g{g}.tsv").write_text(f"genus: {g}\n")
    digest = hashlib.sha256()
    for g, lam in (("4", "8,4,2,0"), ("3", "2,0,0")):
        for fmt in ("json", "tsv", "latex"):
            code, out, err = run(["euler", "--g", g, "--lambda", lam, "--masses",
                                  f"g{g}.tsv", "--format", fmt, "--lenient"])
            digest.update(f"{code}|{out}|{err}".encode())
    assert digest.hexdigest() == \
        "5206d776a43a3fcbe57a09baf8e7bead585a204e3c1003a7500d858c50c73405"


def test_ih_expected_betti():
    doc = run_ok(["ih", "--g", "4", "--lambda", "0,0,0,0"])
    assert doc["result"]["betti"] == [1, 0, 1, 0, 1, 0, 2, 0, 2, 0, 2, 0, 2,
                                      0, 2, 0, 1, 0, 1, 0, 1]


def test_ih_odd_weight_warning():
    doc = run_ok(["ih", "--g", "2", "--lambda", "2,1"])
    assert all(b == 0 for b in doc["result"]["betti"])
    assert any("odd weight" in w for w in doc["warnings"])


def test_tables_euler_row():
    doc = run_ok(["tables", "--id", "euler_ag"])
    assert doc["result"]["values"] == [1, 2, 5, 9, 18, 46, 104, 200, 528]


def test_exit_code_usage():
    # a bad --lambda is a usage error that names the flag
    for lam in ("1,2", "1", "1,-1", "x,0"):
        code, out, err = run(["ih", "--g", "2", "--lambda", lam])
        assert code == EXIT_USAGE and out == "", lam
        error = json.loads(err)["error"]
        assert error["type"] == "usage" and "--lambda" in error["message"], lam
    code, _, err = run(["tables", "--id", "unknown_table"])
    assert code == EXIT_USAGE
    error = json.loads(err)["error"]
    assert error["type"] == "usage"
    assert error["message"].startswith("unknown reference table 'unknown_table'")
    code, _, err = run(["stable", "--space", "universal", "--max-degree", "4"])
    assert code == EXIT_USAGE
    # past the h-series bound of the elliptic path: refused before any work
    code, out, err = run(["euler", "--g", "1", "--lambda", "20000",
                          "--masses", str(DEMO_MASSES / "g1.tsv")])
    assert (code, out) == (EXIT_USAGE, "")
    error = json.loads(err)["error"]
    assert error["type"] == "usage" and error["message"].startswith("work bound:")
    assert "h-series bound" in error["message"]
    # one check refuses a nonpositive genus for every subcommand with --g,
    # before any engine runs
    for command in ("taut", "intersect", "modforms", "torsion", "euler", "arthur", "ih"):
        for g in ("0", "-1"):
            code, out, err = run([command, "--g", g])
            assert code == EXIT_USAGE and out == "", (command, g)
            error = json.loads(err)["error"]
            assert error == {"type": "usage", "message": "genus must be positive"}


def test_help_returns_text(monkeypatch):
    # run returns the help text; the command prints the same bytes and exits 0
    monkeypatch.setenv("COLUMNS", "80")
    for argv in (["--help"], ["taut", "--help"], ["euler", "-h"]):
        code, out, err = run(argv)
        assert code == 0 and err == "", argv
        assert out.startswith("usage: agcoh"), argv
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-m", "agcoh.cli"] + argv,
                              capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, ""), argv


def test_exit_code_data(tmp_path):
    code, _, err = run(["euler", "--g", "2"])
    assert code == EXIT_DATA
    assert json.loads(err)["error"]["type"] == "data"
    code, _, err = run(["euler", "--g", "1", "--masses", "/nonexistent.tsv"])
    assert code == EXIT_DATA
    # malformed data files are structured data errors, not tracebacks
    record = {"kind": "s", "doubled_weights": [25], "cardinality": 1}
    malformed = [
        (["arthur", "--g", "1"], "--registry", [dict(record, names=5)]),
        # a bare string is not a list of names
        (["arthur", "--g", "1"], "--registry", [dict(record, names="Delta25")]),
        (["arthur", "--g", "1"], "--registry", [dict(record, field_degree=[1])]),
        # a float is not truncated into a block S(23) of cardinality 1
        (["arthur", "--g", "1"], "--registry",
         [{"kind": "s", "doubled_weights": [23.9], "cardinality": 1.7}]),
        (["ih", "--g", "3"], "--signs", {"[7]": 5}),
        # a bare string is not a list of signs: "-+" is not split into two
        (["ih", "--g", "6"], "--signs", {"D11[2]+[9]": "-+", "D11[4]+[7]": "+"}),
    ]
    for i, (argv, flag, content) in enumerate(malformed):
        path = tmp_path / f"malformed{i}.json"
        path.write_text(json.dumps(content))
        code, out, err = run(argv + [flag, str(path)])
        assert code == EXIT_DATA and out == "", argv
        assert json.loads(err)["error"]["type"] == "data"
        if flag == "--registry":
            assert "malformed registry record" in json.loads(err)["error"]["message"]
    # a file json cannot decode is a data error, not an internal one: an
    # integer past the digit limit (ValueError) or nesting past the
    # recursion limit (RecursionError)
    undecodable = [
        (["arthur", "--g", "2", "--registry"],
         '[{"kind": "s", "doubled_weights": [25], "cardinality": 1%s}]' % ("0" * 5000)),
        (["ih", "--g", "9", "--signs"], '{"[19]": [1%s]}' % ("0" * 5000)),
        (["arthur", "--g", "2", "--registry"], "[" * 100_000 + "]" * 100_000),
        (["ih", "--g", "9", "--signs"], "[" * 100_000 + "]" * 100_000),
    ]
    for i, (argv, text) in enumerate(undecodable):
        path = tmp_path / f"undecodable{i}.json"
        path.write_text(text)
        code, out, err = run(argv + [str(path)])
        assert code == EXIT_DATA and out == "", argv
        error = json.loads(err)["error"]
        assert error["type"] == "data" and error["message"].startswith("bad "), argv
    # a path that cannot be read is "cannot read", whichever flag names it
    for argv, what in ((["euler", "--g", "1", "--masses"], "mass table"),
                       (["arthur", "--g", "1", "--registry"], "registry file"),
                       (["ih", "--g", "2", "--signs"], "sign file")):
        code, out, err = run(argv + [str(tmp_path)])
        assert code == EXIT_DATA and out == "", argv
        assert json.loads(err)["error"]["message"].startswith(f"cannot read {what} "), argv
    # a file that is not UTF-8 is a data error too, whichever flag names it
    binary = tmp_path / "binary"
    binary.write_bytes(b"\xff\xfe\x00 not text")
    for argv in (["euler", "--g", "1", "--masses"], ["arthur", "--g", "1", "--registry"],
                 ["ih", "--g", "2", "--signs"]):
        code, out, err = run(argv + [str(binary)])
        assert code == EXIT_DATA and out == "", argv
        assert json.loads(err)["error"]["type"] == "data", argv
    # sign policy failures are data errors pointing at the sign file interface
    code, _, err = run(["ih", "--g", "8", "--lambda", "0,0,0,0,0,0,0,0"])
    assert code == EXIT_DATA
    assert json.loads(err)["error"]["type"] == "signs"


def test_exit_code_data_for_an_index_too_large(tmp_path):
    # used to hang computing the totient of a large prime index
    table = tmp_path / "g1.tsv"
    table.write_text("genus: 1\n1000000000000000003^1\t1\n")
    code, out, err = run(["euler", "--g", "1", "--lambda", "2", "--masses", str(table)])
    assert (code, out) == (EXIT_DATA, "")
    error = json.loads(err)["error"]
    assert error["type"] == "data"
    assert "cyclotomic index 1000000000000000003 > 8" in error["message"]


def test_exit_code_registry():
    code, _, err = run(["arthur", "--g", "1", "--lambda", "12"])
    assert code == EXIT_REGISTRY
    assert json.loads(err)["error"]["type"] == "registry"


def test_euler_demo_masses():
    doc = run_ok(["euler", "--g", "1", "--masses", str(DEMO_MASSES / "g1.tsv")])
    assert doc["result"]["elliptic_term"] == "1"
    doc = run_ok(["euler", "--g", "1", "--lambda", "10",
                  "--masses", str(DEMO_MASSES / "g1.tsv")])
    assert doc["result"]["elliptic_term"] == "-3"


def test_data_dir_env(monkeypatch, tmp_path):
    masses = tmp_path / "masses"
    masses.mkdir()
    (masses / "g1.tsv").write_text((DEMO_MASSES / "g1.tsv").read_text())
    monkeypatch.setenv("AGCOH_DATA_DIR", str(tmp_path))
    doc = run_ok(["euler", "--g", "1"])
    assert doc["result"]["elliptic_term"] == "1"


def test_signs_file_and_both(tmp_path):
    signs = tmp_path / "signs.json"
    signs.write_text(json.dumps({
        "D11[6]+[5]": ["+"],
        "D15[2]+D11[2]+[9]": ["+", "+"],
        "D15[2]+[13]": ["-"],
    }))
    doc = run_ok(["ih", "--g", "8", "--lambda", "0,0,0,0,0,0,0,0",
                  "--signs", str(signs)])
    assert doc["result"]["betti"] is not None
    doc = run_ok(["ih", "--g", "8", "--lambda", "0,0,0,0,0,0,0,0",
                  "--signs", "both"])
    assert doc["result"]["betti"] is None
    shapes = {entry["shape"]: entry for entry in doc["result"]["per_shape"]}
    assert len(shapes["D11[6]+[5]"]["variants"]) == 2
    # single-variant shapes are flattened per the document contract
    assert "variants" not in shapes["[17]"] and "nu" in shapes["[17]"]


def test_arthur_cli_counts():
    doc = run_ok(["arthur", "--g", "11"] + ["--lambda", ",".join(["0"] * 11)])
    assert doc["result"]["count"] == 14
    shapes = {s["shape"] for s in doc["result"]["shapes"]}
    assert "D11[10]+Sym2D11" in shapes


def test_tsv_and_latex_renderings():
    code, out, _ = run(["tables", "--id", "tor2", "--format", "tsv"])
    assert code == 0
    assert "values[0]\t1" in out
    code, out, _ = run(["tables", "--id", "tor2", "--format", "latex"])
    assert code == 0
    assert out.startswith("\\begin{tabular}") and "1, 2, 2, 1" in out


def test_hodge_serialization():
    doc = run_ok(["ih", "--g", "6", "--lambda", "0,0,0,0,0,0", "--hodge"])
    shapes = {entry["shape"]: entry for entry in doc["result"]["per_shape"]}
    hodge = shapes["D11[2]+[9]"]["hodge"]
    assert all(key.split(",")[0] == key.split(",")[1] for key in hodge)


def test_euler_beyond_weight_budget(tmp_path):
    # dim V_(8,4,2,0) is in the millions, which does not limit the elliptic
    # term: its cost is the h-series length, here 11
    header_only = tmp_path / "g4.tsv"
    header_only.write_text("genus: 4\n")
    code, out, err = run(["euler", "--g", "4", "--lambda", "8,4,2,0",
                          "--masses", str(header_only), "--lenient"])
    assert code == 0, err
    doc = json.loads(out)
    jsonschema.validate(doc, load_result_schema())
    hw = HighestWeight(4, (8, 4, 2, 0))
    assert weyl_dimension(hw) == 3_825_536
    # only the central classes +-1 carry mass, and both act by +1 (even weight)
    expected = 2 * zeta_product(4) * weyl_dimension(hw)
    assert doc["result"]["elliptic_term"] == str(expected) == "29887/340200"


def test_euler_odd_weight_past_the_h_series_bound():
    # no orbit of the symmetric g1.tsv table is weighted at odd weight, so
    # no character is evaluated and the weight budget is never consulted
    doc = run_ok(["euler", "--g", "1", "--lambda", "10001",
                  "--masses", str(DEMO_MASSES / "g1.tsv")])
    assert doc["result"]["elliptic_term"] == "0"


def test_torsion_class_work_bound(tmp_path, monkeypatch):
    # rank 3 has 59 classes: past the bound, listing them is refused (exit 2)
    # and a strict parse reports the missing count without naming a class
    from agcoh import torsion
    monkeypatch.setattr(torsion, "_LISTED_RANK", 2)
    monkeypatch.setattr(torsion, "_CLASS_BOUND", 19)
    header_only = tmp_path / "g3.tsv"
    header_only.write_text("genus: 3\n")
    message = "work bound: rank 3 has more than 19 torsion classes, too many to list"
    for argv in (["torsion", "--g", "3"], ["torsion", "--g", "3", "--mod-negation"],
                 ["euler", "--g", "3", "--masses", str(header_only), "--lenient"]):
        code, out, err = run(argv)
        assert code == EXIT_USAGE and out == ""
        assert json.loads(err)["error"] == {"type": "usage", "message": message}
    code, out, err = run(["euler", "--g", "3", "--masses", str(header_only)])
    assert code == EXIT_DATA and out == ""
    assert json.loads(err)["error"]["message"].endswith(
        ": mass table incomplete: 57 classes missing")
    assert run_ok(["torsion", "--g", "2"])["result"]["count"] == 19


def test_torsion_listing_refused_by_rank_at_once():
    # the rank is compared with the last listed rank before anything is counted
    # (counting the classes of rank 1000 alone would take minutes)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for flags in ([], ["--mod-negation"]):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "agcoh.cli", "torsion", "--g", "1000000"]
                              + flags, capture_output=True, text=True, env=env, timeout=5)
        assert time.perf_counter() - start < 0.5
        assert (proc.returncode, proc.stdout) == (EXIT_USAGE, "")
        assert json.loads(proc.stderr)["error"] == {
            "type": "usage",
            "message": "work bound: rank 1000000 has more than 200000 torsion classes, "
                       "too many to list"}


def test_euler_header_only_lenient_parse_at_rank_300_is_quick(tmp_path):
    # the class count lists the cyclotomic indices from their factorizations;
    # with a trial-division totient of each of the 8g^2 candidates this
    # parse took 7.9 s
    path = tmp_path / "g300.tsv"
    path.write_text("genus: 300\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "agcoh.cli", "euler", "--g", "300",
                           "--masses", str(path), "--lenient"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert time.perf_counter() - start < 2
    assert (proc.returncode, proc.stdout) == (EXIT_USAGE, "")
    assert json.loads(proc.stderr)["error"]["message"].startswith("work bound: rank 300")


@pytest.mark.parametrize("text", ["genus: \u0661\n\u0663^1\t\u0661/3\n", "genus: 0_1\n",
                                  "genus: 1\n\uff13^1\t\uff11/3\n", "genus: +1\n"])
def test_euler_mass_files_take_ascii_digits_only(tmp_path, text):
    path = tmp_path / "g1.tsv"
    path.write_text(text, encoding="utf-8")
    for lenient in ([], ["--lenient"]):
        code, out, err = run(["euler", "--g", "1", "--masses", str(path)] + lenient)
        assert (code, out) == (EXIT_DATA, "")
        assert json.loads(err)["error"]["message"].startswith(f"bad mass table {path}: ")


@pytest.mark.parametrize("with_data_dir", [False, True])
@pytest.mark.parametrize("argv, flag", [
    (["intersect", "--g", "2", "--exponents", ""], "--exponents"),
    (["euler", "--g", "1", "--masses", ""], "--masses"),
    (["ih", "--g", "2", "--signs", ""], "--signs"),
    (["arthur", "--g", "2", "--registry", ""], "--registry"),
])
def test_explicit_empty_value_is_refused(monkeypatch, tmp_path, argv, flag, with_data_dir):
    # an empty value is not an absent flag: it neither falls back to the
    # data directory or the bundled data nor is silently dropped
    if with_data_dir:
        (tmp_path / "masses").mkdir()
        (tmp_path / "masses" / "g1.tsv").write_text((DEMO_MASSES / "g1.tsv").read_text())
        (tmp_path / "registry.json").write_text("[]")
        monkeypatch.setenv("AGCOH_DATA_DIR", str(tmp_path))
    else:
        monkeypatch.delenv("AGCOH_DATA_DIR", raising=False)
    code, out, err = run(argv)
    assert (code, out) == (EXIT_USAGE, "")
    error = json.loads(err)["error"]
    assert error == {"type": "usage", "message": f"argument {flag}: must not be empty"}


def test_exact_values_past_int_digit_limit():
    # the numerator has more digits than str(int) converts by default
    doc = run_ok(["intersect", "--g", "57"])
    jsonschema.validate(doc, load_result_schema())
    num, _, den = doc["result"]["lambda1_power"].partition("/")
    assert len(num) > 4300
    value = Fraction(int(Decimal(num)), int(Decimal(den)))
    assert value == lambda1_power(57)
    doc = run_ok(["modforms", "--g", "70"])
    jsonschema.validate(doc, load_result_schema())


def test_internal_invariant_failure_is_structured(monkeypatch):
    def broken(coeffs):
        raise AssertionError("string decomposition failed to re-expand")
    monkeypatch.setattr(spin, "_t_strings", broken)
    monkeypatch.setattr(spin, "_VARIANTS", {})    # variants are checked when built
    code, out, err = run(["ih", "--g", "2"])
    assert code == EXIT_INTERNAL and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "internal"
    assert error["message"] == ("internal invariant failed: "
                                "string decomposition failed to re-expand")


@pytest.mark.parametrize("exc", [ValueError("not a genuine torus character"),
                                 KeyError("D11"), TypeError("bad operand"),
                                 IndexError("list index out of range")])
@pytest.mark.parametrize("module, name, argv", [
    (spin, "_t_strings", ["ih", "--g", "2"]),
    (proportionality, "compact_dual_degree", ["intersect", "--g", "2", "--exponents", "1,1"]),
    (tables, "reference_table", ["tables", "--id", "tor2"]),
])
def test_engine_exceptions_are_internal(monkeypatch, exc, module, name, argv):
    # only an InputError is the user's fault: any other engine exception is
    # a bug, so it exits 5, not 2, and never escapes as a traceback
    def broken(*args, **kwargs):
        raise exc
    monkeypatch.setattr(module, name, broken)
    monkeypatch.setattr(spin, "_VARIANTS", {})    # variants are checked when built
    code, out, err = run(argv)
    assert code == EXIT_INTERNAL and out == ""
    assert json.loads(err) == {"error": {
        "type": "internal", "message": f"{type(exc).__name__}: {exc}"}}


def _subcommands(parser):
    (action,) = [a for a in parser._actions if a.dest == "command"]
    return list(action.choices)


def test_parser_builds_the_named_subcommand_only(monkeypatch):
    every = ["taut", "intersect", "modforms", "torsion", "euler", "arthur", "ih",
             "tables", "stable"]
    assert _subcommands(cli.build_parser()) == every
    for argv in ([], ["--help"], ["nope"], ["--", "taut"], ["ta"], ["-h", "taut"]):
        assert _subcommands(cli.build_parser(argv)) == every, argv
    for name in every:
        assert _subcommands(cli.build_parser([name, "--g", "2"])) == [name]
    # the reduced parser answers every call as the full one does
    monkeypatch.setenv("COLUMNS", "80")
    argvs = [["--help"], ["taut", "--help"], ["euler", "-h"], [], ["nope"],
             ["--", "taut", "--g", "2"], ["ih", "--g", "x"], ["taut"],
             ["taut", "--g", "2", "--format", "xml"], ["taut", "--g", "2", "ih"],
             ["stable", "--space", "ag", "--max", "5"], ["tables", "--id", "tor2"],
             ["ih", "--g", "3", "--signs", "both", "--format", "tsv"],
             ["arthur", "--g", "2", "--lambda", "12,0"], ["modforms", "--g", "0"]]
    reduced = [run(argv) for argv in argvs]
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv=(): full())
    assert [run(argv) for argv in argvs] == reduced


def test_stable_space_is_case_insensitive():
    for lower, upper in (("ag", "AG"), ("ih_sat", "IH_SAT"), ("universal:2", "UNIVERSAL:2"),
                         ("universal(3)", "Universal(3)")):
        want = run_ok(["stable", "--space", lower, "--max-degree", "10"])["result"]
        assert run_ok(["stable", "--space", upper, "--max-degree", "10"])["result"] == want
    code, _, err = run(["stable", "--space", "UNIVERSAL:x", "--max-degree", "4"])
    assert code == EXIT_USAGE
    assert json.loads(err)["error"]["message"] == "bad universal fibre power in 'UNIVERSAL:x'"


def test_integers_past_digit_limit_render(monkeypatch):
    # a stable series this large takes seconds to compute, so fake its result
    big = 10 ** 5000
    monkeypatch.setattr(tables, "stable_series", lambda space, max_degree: {
        "space": space, "coefficients": [1, big], "validity": "none"})
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    limit = get_limit()
    argv = ["stable", "--space", "universal:3000", "--max-degree", "1"]
    code, out, err = run(argv)
    assert code == 0, err
    # json.loads would parse the integer with int(), which has the limit
    assert json.loads(out, parse_int=Decimal)["result"]["coefficients"] == [1, big]
    digits = "1" + "0" * 5000
    for fmt, expected in (("tsv", f"coefficients[1]\t{digits}\n"),
                          ("latex", f"coefficients & 1, {digits} \\\\")):
        code, out, err = run(argv + ["--format", fmt])
        assert code == 0, err
        assert expected in out, fmt
    assert get_limit() == limit
    # parsing user input keeps the limit
    code, out, err = run(["stable", "--space", "ag", "--max-degree", "-" + "1" * 5000])
    assert code == EXIT_USAGE and out == ""
    if limit is not None:
        assert "invalid int value" in json.loads(err)["error"]["message"]


_JUNK = st.text(alphabet="0123456789,:-()xyz_ ", max_size=10)


def _csv(values):
    return ",".join(map(str, values))


@st.composite
def _argv(draw):
    rank = draw(st.integers(-1, 4))
    g = str(rank)
    entries = st.lists(st.integers(0, 6), min_size=1, max_size=4).map(_csv)
    dominant = st.lists(st.integers(0, 6), min_size=max(rank, 1), max_size=max(rank, 1)
                        ).map(lambda v: _csv(sorted(v, reverse=True)))
    # mostly a dominant weight of the right length, so the engines run
    lam = draw(st.one_of(dominant, dominant, dominant, entries, _JUNK))
    command = draw(st.sampled_from(
        ["taut", "intersect", "modforms", "torsion", "euler", "arthur", "ih",
         "tables", "stable"]))
    if command in ("taut", "modforms"):
        return [command, "--g", g]
    if command == "intersect":
        exps = draw(st.one_of(st.just(None), entries, _JUNK))
        return [command, "--g", g] + (["--exponents", exps] if exps is not None else [])
    if command == "torsion":
        return [command, "--g", g] + draw(st.sampled_from([[], ["--mod-negation"]]))
    if command == "euler":
        masses = draw(st.sampled_from([[], ["--masses", str(DEMO_MASSES / "g1.tsv")],
                                       ["--masses", "/nonexistent.tsv"]]))
        return [command, "--g", g, "--lambda", lam] + masses + \
            draw(st.sampled_from([[], ["--lenient"]]))
    if command == "arthur":
        return [command, "--g", g, "--lambda", lam]
    if command == "ih":
        signs = draw(st.one_of(st.sampled_from(["default", "both"]), _JUNK))
        return [command, "--g", g, "--lambda", lam, "--signs", signs] + \
            draw(st.sampled_from([[], ["--hodge"]]))
    if command == "tables":
        return [command, "--id", draw(st.one_of(st.sampled_from(tables.table_ids()),
                                                _JUNK))]
    space = draw(st.one_of(st.sampled_from(["ag", "sat", "ih_sat"]),
                           st.integers(0, 50).map(lambda n: f"universal:{n}"), _JUNK))
    return [command, "--space", space, "--max-degree", str(draw(st.integers(-2, 30)))]


@settings(max_examples=60, deadline=None)
@given(_argv())
def test_every_outcome_follows_the_error_contract(argv):
    # exit 0 with a schema-valid document, or a documented error code with
    # nothing on stdout and one structured error on stderr; an exit 5 would
    # be a bug, so it does not count as a documented outcome of any input
    code, out, err = run(argv)
    if code == 0:
        assert err == ""
        jsonschema.validate(json.loads(out), load_result_schema())
        return
    assert code in (EXIT_USAGE, EXIT_DATA, EXIT_REGISTRY), (argv, err)
    assert out == ""
    doc = json.loads(err)
    assert list(doc) == ["error"] and sorted(doc["error"]) == ["message", "type"]
    assert doc["error"]["type"] in ("usage", "data", "registry", "signs")
    assert isinstance(doc["error"]["message"], str) and doc["error"]["message"]
