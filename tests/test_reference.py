"""prymcert.reference: the code no command runs, and how its old modules reach it."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import prymcert
from prymcert import reference

# old module -> the names it re-exports from prymcert.reference
MOVED = {
    "intpoly": (
        "reduce_and_factor_degrees", "RAMIFIED", "_RamifiedType", "irreducible_over_Q",
        "Reducible", "_rational_root_factor", "_divisors", "irreducible_composite_rule",
        "build_family", "family_disc_pair", "DiscPair",
    ),
    "signedperm": (
        "compose", "in_wdm", "kappa_u", "roots_f", "cycle_type_from_label_action",
        "stabilizer_generators", "stabilizer_orbit_count",
    ),
    "fpmodule": (
        "function_space_on_roots", "even_space", "even_zero_space", "constant_space",
        "vf_space", "vf_plus_space", "d2_matrix", "orbit_count_formula",
        "heart_f2_irreducible", "lambda_rank_check",
    ),
    "prymcalc": ("BasisForm", "omega_basis", "anti_invariant_partition"),
}
PAIRS = [(module, name) for module, names in MOVED.items() for name in names]


def _top_level_names(path):
    names = set()
    for node in ast.parse(Path(path).read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("module, name", PAIRS)
def test_a_moved_name_resolves_from_its_old_module(module, name):
    old = importlib.import_module(f"prymcert.{module}")
    assert getattr(old, name) is getattr(reference, name)
    scope = {}
    exec(f"from prymcert.{module} import {name}", scope)
    assert scope[name] is getattr(reference, name)


@pytest.mark.parametrize("module", MOVED)
def test_each_moved_definition_exists_once(module):
    old = importlib.import_module(f"prymcert.{module}")
    assert old._MOVED == set(MOVED[module])
    moved = set(MOVED[module])
    assert moved <= _top_level_names(reference.__file__)
    assert not moved & _top_level_names(old.__file__)


@pytest.mark.parametrize("module", MOVED)
def test_an_unknown_name_names_its_old_module(module):
    old = importlib.import_module(f"prymcert.{module}")
    with pytest.raises(AttributeError, match=f"module 'prymcert.{module}' has no attribute 'no_such_name'"):
        old.no_such_name


def test_no_command_loads_the_reference_module():
    runs = [
        ["verify", "--p", "5", "--r", "2"],
        ["verify", "--p", "3", "--r", "2"],
        ["galois", "--m", "13"],
        ["galois", "--m", "7", "--mode", "sample", "--samples", "100"],
        ["galois", "--poly", "x^6 - 2x^4 + x^2", "--mode", "sample", "--samples", "20"],
        ["scan", "--p-max", "13", "--r-max", "8"],
        ["invariants", "--p", "5", "--r", "4"],
    ]
    code = (
        "import contextlib, importlib, io, json, sys\n"
        "from prymcert.certcli import main\n"
        "results = []\n"
        f"for argv in {runs!r}:\n"
        "    err = io.StringIO()\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):\n"
        "        code = main(argv)\n"
        "    results.append([code, err.getvalue(), 'prymcert.reference' in sys.modules])\n"
        f"for module in {list(MOVED)!r}:\n"
        "    try:\n"
        "        getattr(importlib.import_module('prymcert.' + module), 'no_such_name')\n"
        "    except AttributeError:\n"
        "        pass\n"
        "results.append('prymcert.reference' in sys.modules)\n"
        "print(json.dumps(results))\n"
    )
    src = str(Path(prymcert.__file__).resolve().parents[1])  # the package under test
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=60)
    assert res.returncode == 0, res.stderr.decode()
    *commands, after_lookups = json.loads(res.stdout)
    assert [code for code, _, _ in commands] == [0, 2, 0, 2, 3, 0, 0]  # Probabilistic is exit 2
    assert "is not squarefree: it shares the factor x^3 - x with its derivative" in commands[4][1]
    assert [loaded for _, _, loaded in commands] == [False] * len(runs)
    assert after_lookups is False
