"""README.md as tests: every `$ permarray ...` transcript gives the stdout it
shows, the `>>>` examples run as doctests, every private name it cites
exists, and the sources keep to the grammar of the oldest Python it names
and read every name they import."""

import ast
import doctest
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import permarray
from permarray.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
BLOCKS = re.findall(r"^```[a-z]*\n(.*?)^```", README.read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def test_transcripts_print_what_the_readme_shows(capsys, tmp_path, monkeypatch):
    # in README order, in one directory: the verify transcript reads the
    # file the construct transcript writes
    monkeypatch.chdir(tmp_path)
    transcripts = [block for block in BLOCKS if block.startswith("$ permarray ")]
    assert len(transcripts) == 5
    for block in transcripts:
        command, shown = block.split("\n", 1)
        assert main(shlex.split(command)[2:]) == 0, command
        assert capsys.readouterr().out == shown, command


def test_doctest_examples():
    examples = [block for block in BLOCKS if block.startswith(">>> ")]
    assert len(examples) == 1
    test = doctest.DocTestParser().get_doctest(examples[0], {}, "README", str(README), 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.summarize(verbose=False) == doctest.TestResults(0, 5)


def test_private_names_are_attributes_of_the_package():
    # a backticked private name, bare (`_columns`) or with its module
    # (`perm._check_points`), is an attribute of a permarray module
    modules = {info.name: importlib.import_module(f"permarray.{info.name}")
               for info in pkgutil.iter_modules(permarray.__path__)}
    names = re.findall(r"`(?:(\w+)\.)?(_[A-Za-z]\w*)`", README.read_text(encoding="utf-8"))
    assert names
    for module, name in names:
        owners = [modules.get(module)] if module else list(modules.values())
        assert any(hasattr(owner, name) for owner in owners), f"{module}.{name}"


def test_sources_parse_as_python_3_10():
    # README promises Python 3.10; this checks the grammar (no ``except*``,
    # no 3.12 type statement), not the standard library a file calls
    assert "Python 3.10 or newer" in README.read_text(encoding="utf-8")
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert len(paths) > 10
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_sources_use_every_name_they_import():
    # each name a module imports at top level is read somewhere in that
    # module, as a name or as the base of an attribute
    paths = sorted((ROOT / "src" / "permarray").glob("*.py"))
    assert len(paths) > 5
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= read, f"{path.name}: {sorted(imported - read)}"
