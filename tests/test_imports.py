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

SRC = Path(__file__).resolve().parent.parent / "src"

ERROR_HOMES = {
    "MassTableError": "torsion",
    "RegistryConflictError": "arthur",
    "RegistryIncompleteError": "arthur",
    "SignPolicyError": "spin",
    "WeightBudgetError": "symplectic",
}


def test_every_public_name_resolves_to_its_submodule():
    assert len(agcoh.__all__) == len(set(agcoh.__all__)) == 43
    for name in agcoh.__all__:
        module = importlib.import_module(f"agcoh.{agcoh._MODULE_OF[name]}")
        assert getattr(agcoh, name) is getattr(module, name), name


def test_star_import():
    namespace = {}
    exec("from agcoh import *", namespace)
    assert set(agcoh.__all__) <= set(namespace)
    assert namespace["ih_betti"] is importlib.import_module("agcoh.spin").ih_betti


def test_unknown_attribute():
    # three moved to the tests as oracles; Rational (an alias of Fraction)
    # was deleted
    for name in ("no_such_name", "WeightSystem", "weight_multiplicities",
                 "closed_form_oracle", "Rational"):
        with pytest.raises(AttributeError, match=name):
            getattr(agcoh, name)


def test_errors_keep_their_old_module_paths():
    for name, home in ERROR_HOMES.items():
        cls = getattr(errors, name)
        assert cls.__module__ == "agcoh.errors"
        assert getattr(importlib.import_module(f"agcoh.{home}"), name) is cls


def _agcoh_modules(argv=None):
    """The agcoh modules a fresh interpreter holds after `import agcoh.cli`,
    and the ones `cli.run(argv)` adds to them."""
    script = (
        "import json, sys\n"
        "import agcoh.cli\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'agcoh')\n"
        "before = loaded()\n"
        f"argv = {argv!r}\n"
        "if argv is not None:\n"
        "    code, _, err = agcoh.cli.run(argv)\n"
        "    assert code == 0, err\n"
        "print(json.dumps([before, sorted(set(loaded()) - set(before))]))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, check=True)
    before, added = json.loads(proc.stdout)
    return set(before), set(added)


def test_cli_imports_no_engine():
    before, _ = _agcoh_modules()
    assert before == {"agcoh", "agcoh.cli", "agcoh.errors"}


@pytest.mark.parametrize("argv, engines", [
    (["tables", "--id", "tor2"], {"agcoh.tables"}),
    (["stable", "--space", "ag", "--max-degree", "6"], {"agcoh.tables"}),
    (["taut", "--g", "3"], {"agcoh.tautring", "agcoh.exact"}),
])
def test_subcommand_imports_only_its_engines(argv, engines):
    _, added = _agcoh_modules(argv)
    assert added == engines
