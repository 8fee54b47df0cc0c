"""No module of the package or of the tests imports a name it never uses.

A stand-in for a linter's unused-import check (pyflakes' F401): every name
an import binds must be read somewhere in its module, or be listed in the
module's ``__all__``, or its import line must carry ``# noqa: F401``.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src" / "cpl_kit").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every name an import binds and the module never reads.
    The string entries of a list or tuple ``__all__`` count as read."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [(alias, alias.asname or alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [(alias, alias.asname or alias.name) for alias in node.names]
        else:
            continue
        for alias, name in names:
            if "# noqa: F401" not in lines[alias.lineno - 1] + lines[node.lineno - 1]:
                bound.append((alias.lineno, name))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return [(line, name) for line, name in bound if name not in read]


@pytest.mark.parametrize("path", FILES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_finds_an_unused_import_and_honours_noqa():
    source = ("import math\nimport os  # noqa: F401\nfrom sys import (\n    argv,\n    path,\n)\n"
              "__all__ = ['path']\n")
    assert unused_imports(source) == [(1, "math"), (4, "argv")]
