"""The package's export list matches the names its ``__init__`` binds."""

import ast
from pathlib import Path

import permarray


def _bound_names():
    """The names bound at the top level of permarray/__init__.py."""
    tree = ast.parse(Path(permarray.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets if isinstance(target, ast.Name))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def test_all_lists_each_public_name_once():
    public = {name for name in _bound_names() if not name.startswith("_")}
    assert sorted(permarray.__all__) == sorted(public | {"__version__"})


def test_every_listed_name_resolves():
    namespace = {}
    exec("from permarray import *", namespace)
    for name in permarray.__all__:
        assert namespace[name] is getattr(permarray, name)
