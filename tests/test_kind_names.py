"""Every mechanism kind is named as a string in ``mechanisms.py`` alone.

What a kind does, and which constants it has, lives with the mechanism. A
module that compares a kind name against a string carries per-kind
knowledge of its own, which then drifts from the mechanism's. Other modules
take kind names from ``KINDS`` or from their input.
"""
import ast
from pathlib import Path

from cpl_kit.mechanisms import KINDS

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "cpl_kit").glob("*.py"))


def kind_constants(sources: dict[str, str]) -> list[str]:
    """``module:line 'kind'`` of every string constant equal to a kind name."""
    return [f"{module}:{node.lineno} {node.value!r}"
            for module, source in sources.items()
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and node.value in KINDS]


def test_no_module_but_mechanisms_names_a_kind():
    assert kind_constants({path.stem: path.read_text(encoding="utf-8")
                           for path in FILES if path.name != "mechanisms.py"}) == []


def test_check_finds_kind_names():
    sources = {
        "a": 'def f(kind):\n    return kind == "olh"\n',
        "b": 'ENGINE = f"exact-{kind}"\nLABEL = "grr-like"\nKIND = ("she",)\n',
    }
    assert kind_constants(sources) == ["a:2 'olh'", "b:3 'she'"]
