import hashlib
import json
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agcoh import spin, tables
from agcoh.cli import (EXIT_DATA, EXIT_INTERNAL, EXIT_REGISTRY, EXIT_USAGE,
                       load_result_schema, run)
from agcoh.proportionality import lambda1_power
from agcoh.symplectic import HighestWeight, weyl_dimension
from agcoh.torsion import central_mass_default

DEMO_MASSES = Path(__file__).resolve().parent.parent / "demos" / "data" / "masses"


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
    }
    for argv, digest in pinned.items():
        code, out, err = run(list(argv))
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


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
    code, _, err = run(["euler", "--g", "1", "--lambda", "20000",
                        "--masses", str(DEMO_MASSES / "g1.tsv")])
    assert code == EXIT_USAGE
    assert "h-series bound" in json.loads(err)["error"]["message"]
    # a nonpositive genus is refused before any weight is built
    for command in ("euler", "arthur", "ih"):
        for g in ("0", "-1"):
            code, out, err = run([command, "--g", g])
            assert code == EXIT_USAGE and out == "", (command, g)
            error = json.loads(err)["error"]
            assert error == {"type": "usage", "message": "genus must be positive"}


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
        (["arthur", "--g", "1"], "--registry", [dict(record, field_degree=[1])]),
        (["ih", "--g", "3"], "--signs", {"[7]": 5}),
    ]
    for i, (argv, flag, content) in enumerate(malformed):
        path = tmp_path / f"malformed{i}.json"
        path.write_text(json.dumps(content))
        code, out, err = run(argv + [flag, str(path)])
        assert code == EXIT_DATA and out == "", argv
        assert json.loads(err)["error"]["type"] == "data"
    # sign policy failures are data errors pointing at the sign file interface
    code, _, err = run(["ih", "--g", "8", "--lambda", "0,0,0,0,0,0,0,0"])
    assert code == EXIT_DATA
    assert json.loads(err)["error"]["type"] == "signs"


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
    expected = 2 * central_mass_default(4) * weyl_dimension(hw)
    assert doc["result"]["elliptic_term"] == str(expected) == "29887/340200"


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
    def broken(char):
        raise AssertionError("string decomposition failed to re-expand")
    monkeypatch.setattr(spin, "nu_decompose", broken)
    code, out, err = run(["ih", "--g", "2"])
    assert code == EXIT_INTERNAL and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "internal"
    assert error["message"] == ("internal invariant failed: "
                                "string decomposition failed to re-expand")


def test_integers_past_digit_limit_render(monkeypatch):
    # a stable series this large takes seconds to compute, so fake its result
    big = 10 ** 5000
    monkeypatch.setattr(tables, "stable_series", lambda space, max_degree, n=None: {
        "space": f"universal({n})", "coefficients": [1, big], "validity": "none"})
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
