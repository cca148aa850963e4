"""The package's export list matches the mapping its ``__init__`` reads, and
each export is imported from its module on first use; the bounds and the
CLI's ``bound`` and ``table`` load no numpy."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import permarray

MODULES = ("bounds", "constructions", "exactmath", "perm", "search")


def test_all_lists_each_public_name_once():
    mapped = [name for names in permarray._EXPORTS.values() for name in names]
    # today's order: modules alphabetical, each module's names sorted
    assert tuple(permarray._EXPORTS) == MODULES
    assert all(list(names) == sorted(names) for names in permarray._EXPORTS.values())
    assert len(set(mapped)) == len(mapped)  # no name maps to two modules
    assert permarray.__all__ == [*mapped, "__version__"]
    for module, names in permarray._EXPORTS.items():
        home = importlib.import_module(f"permarray.{module}")
        for name in names:
            assert getattr(permarray, name) is getattr(home, name), f"{module}.{name}"


def test_every_listed_name_resolves():
    namespace = {}
    exec("from permarray import *", namespace)
    for name in permarray.__all__:
        assert namespace[name] is getattr(permarray, name)


def test_submodules_resolve_from_the_package():
    namespace = {}
    exec("from permarray import cli, pafile", namespace)
    assert namespace["cli"] is importlib.import_module("permarray.cli")
    assert namespace["pafile"] is importlib.import_module("permarray.pafile")
    for module in MODULES:
        assert getattr(permarray, module) is importlib.import_module(f"permarray.{module}")
    assert set(dir(permarray)) >= {*permarray.__all__, *MODULES}
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(permarray, "no_such_name")


def _fresh(code, cwd=None):
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          cwd=cwd, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_bounds_and_exact_arithmetic_load_no_numpy():
    # a bare import and the exact rules leave numpy unloaded; the first name
    # that needs it loads it
    assert _fresh(
        "import sys\n"
        "import permarray\n"
        "assert permarray.best_upper_bound(7, 5).value == 210\n"
        "permarray.candidate_bounds(7, 5)\n"
        "permarray.cw_pa_bound(7, 4, 5)\n"
        "permarray.CwTable.loads('20 8 5 16 exact')\n"
        "assert permarray.ball_volume(5, 2) == 11 and permarray.factorial(5) == 120\n"
        "print('numpy' in sys.modules)\n"
        "permarray.PermutationArray\n"
        "print('numpy' in sys.modules)\n"
    ) == "False\nTrue\n"


def test_bound_and_table_commands_load_no_numpy(tmp_path):
    # bound and table, as text, as JSON and with an A(n,d,w) table, leave
    # numpy unloaded; verify is the first command that loads it
    (tmp_path / "table.txt").write_text("7 4 3 7 exact\n", encoding="utf-8")
    (tmp_path / "cyclic3.pa").write_text("pa n=3 d=3 w=- count=3\n0,1,2\n1,2,0\n2,0,1\n",
                                         encoding="utf-8")
    assert _fresh(
        "import contextlib, io, sys\n"
        "from permarray.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in ('bound 7 5', 'bound 20 8 --json', 'table 2:20 2:20',\n"
        "                 'table 2:20 2:20 --json', 'bound 7 5 --cw-table table.txt'):\n"
        "        assert main(argv.split()) == 0, argv\n"
        "    print('numpy' in sys.modules, file=sys.__stdout__)\n"
        "    assert main(['verify', 'cyclic3.pa']) == 0\n"
        "print('numpy' in sys.modules)\n",
        tmp_path,
    ) == "False\nTrue\n"
