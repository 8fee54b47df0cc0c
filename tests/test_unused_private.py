"""No private definition of the package is left that no module of the package reads.

A private function, a private class and every method of a private class
must be read somewhere in ``src/cpl_kit``, as a name or as an attribute,
outside its own body. A kernel that only the tests call belongs in the
tests: the package should carry one path for each job. Dunder methods are
called by the language, not by name, and are left out.
"""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "cpl_kit").glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _reads(tree: ast.AST) -> Counter:
    """How often each name is loaded, as a name or as an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute))
                   and isinstance(node.ctx, ast.Load))


def _definitions(tree: ast.Module):
    """(label, name, node) of every module-level private function or class,
    every private method and every method of a private class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if _private(node.name):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
                        and (_private(node.name) or _private(item.name))):
                    yield f"{node.name}.{item.name}", item.name, item


def unread_private(sources: dict[str, str]) -> list[str]:
    """``module:line label`` of every private definition that no source reads
    outside the definition itself."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    return [f"{module}:{node.lineno} {label}"
            for module, tree in trees.items()
            for label, name, node in _definitions(tree)
            if reads[name] == _reads(node)[name]]


def test_every_private_definition_is_read():
    assert unread_private({path.stem: path.read_text(encoding="utf-8") for path in FILES}) == []


def test_check_finds_unread_definitions():
    sources = {
        "a": ("def _used():\n    pass\n\n\ndef _recursive(n):\n    return _recursive(n - 1)\n\n\n"
              "class _Table:\n    def build(self):\n        pass\n\n"
              "    def stale(self):\n        pass\n\n    def __call__(self):\n        pass\n\n\n"
              "class Public:\n    def method(self):\n        pass\n\n"
              "    def _helper(self):\n        pass\n"),
        "b": "from a import _Table, _used\n_used()\n_Table().build()\n",
    }
    assert unread_private(sources) == ["a:5 _recursive", "a:13 _Table.stale",
                                       "a:24 Public._helper"]
