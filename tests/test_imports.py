"""The lazy package root and the import footprint of the `agcoh` command."""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import agcoh
from agcoh import errors

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

ERROR_HOMES = {
    "InputError": "tables",
    "MassTableError": "torsion",
    "RegistryConflictError": "arthur",
    "RegistryIncompleteError": "arthur",
    "SignPolicyError": "spin",
}


def test_every_public_name_resolves_to_its_submodule():
    assert len(agcoh.__all__) == len(set(agcoh.__all__)) == 33
    for name in agcoh.__all__:
        module = importlib.import_module(f"agcoh.{agcoh._MODULE_OF[name]}")
        assert getattr(agcoh, name) is getattr(module, name), name
    # the torsion characters live beside the h-series layout they index
    symplectic = importlib.import_module("agcoh.symplectic")
    for name in ("character_at_torsion", "_character_sum", "H_SERIES_BOUND"):
        assert not hasattr(symplectic, name), name


def test_star_import():
    namespace = {}
    exec("from agcoh import *", namespace)
    assert set(agcoh.__all__) <= set(namespace)
    assert namespace["ih_betti"] is importlib.import_module("agcoh.spin").ih_betti


def test_unknown_attribute():
    # seven moved to the tests as oracles; Rational (an alias of Fraction),
    # nu_decompose, spin_character, socle_pairing and stable_ih_series were
    # deleted; standard_weight_lines became private
    for name in ("no_such_name", "WeightSystem", "weight_multiplicities",
                 "closed_form_oracle", "nu_character", "normal_form", "Rational",
                 "nu_decompose", "spin_character", "standard_weight_lines",
                 "rho_psi", "socle_pairing", "zeta_negative", "stable_ih_series"):
        with pytest.raises(AttributeError, match=name):
            getattr(agcoh, name)


def test_errors_keep_their_old_module_paths():
    for name, home in ERROR_HOMES.items():
        cls = getattr(errors, name)
        assert cls.__module__ == "agcoh.errors"
        assert getattr(importlib.import_module(f"agcoh.{home}"), name) is cls


def _agcoh_modules(argv=None):
    """The agcoh modules a fresh interpreter holds after `import agcoh.cli`,
    the ones `cli.run(argv)` adds to them, and the other modules it adds."""
    script = (
        "import json, sys\n"
        "import agcoh.cli\n"
        "before = set(sys.modules)\n"
        f"argv = {argv!r}\n"
        "if argv is not None:\n"
        "    code, _, err = agcoh.cli.run(argv)\n"
        "    assert code == 0, err\n"
        "print(json.dumps([sorted(before), sorted(set(sys.modules) - before)]))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, check=True)
    before, added = json.loads(proc.stdout)
    ours = lambda names: {m for m in names if m.split(".")[0] == "agcoh"}
    return ours(before), ours(added), set(added) - ours(added)


def test_cli_imports_no_engine():
    before, _, _ = _agcoh_modules()
    assert before == {"agcoh", "agcoh.cli", "agcoh.errors"}


@pytest.mark.parametrize("argv, engines", [
    (["tables", "--id", "tor2"], {"agcoh.tables", "agcoh.records"}),
    (["stable", "--space", "ag", "--max-degree", "6"],
     {"agcoh.tables", "agcoh.exact", "agcoh.records"}),
    (["taut", "--g", "3"], {"agcoh.tautring", "agcoh.exact"}),
    (["torsion", "--g", "2"], {"agcoh.torsion", "agcoh.exact", "agcoh.records"}),
    (["arthur", "--g", "2"], {"agcoh.arthur", "agcoh.symplectic", "agcoh.records"}),
    (["ih", "--g", "2"], {"agcoh.arthur", "agcoh.exact", "agcoh.records", "agcoh.spin",
                          "agcoh.symplectic"}),
    (["euler", "--g", "1", "--lambda", "2",
      "--masses", str(ROOT / "demos" / "data" / "masses" / "g1.tsv")],
     {"agcoh.exact", "agcoh.records", "agcoh.symplectic", "agcoh.torsion"}),
])
def test_subcommand_imports_only_its_engines(argv, engines):
    _, added, _ = _agcoh_modules(argv)
    assert added == engines


@pytest.mark.parametrize("argv", [
    ["taut", "--g", "3"],
    ["intersect", "--g", "2"],
    ["modforms", "--g", "2"],
    ["torsion", "--g", "2"],
    ["euler", "--g", "1", "--lambda", "2",
     "--masses", str(ROOT / "demos" / "data" / "masses" / "g1.tsv")],
    ["arthur", "--g", "2"],
    ["ih", "--g", "2"],
    ["tables", "--id", "tor2"],
    ["stable", "--space", "ag", "--max-degree", "6"],
], ids=lambda argv: argv[0])
def test_subcommand_stays_off_heavy_stdlib_modules(argv):
    # records are plain classes: no dataclasses, so no inspect (and ast, dis,
    # tokenize); exact loads fractions (and decimal) only for Bernoulli values
    _, _, others = _agcoh_modules(argv)
    assert not others & {"dataclasses", "inspect"}
    if argv[0] in ("ih", "arthur"):
        assert "fractions" not in others
