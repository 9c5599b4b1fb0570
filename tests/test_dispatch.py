"""Library walkers dispatch on the exact node type, not on class patterns.

A `case App(f, args):` pattern costs an isinstance test and an attribute
read per positional field, and a walker's loop pays it at every node: the
shape test's own time under cProfile fell by about half once it dispatched
on `type(u) is App` instead.  This test keeps the slow idiom from coming
back into a walker.  Tuple and literal patterns stay allowed
(`alpha.verify_derivation` reads a conclusion's tag with them).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "nomrew"


def class_patterns(source: str) -> list[int]:
    """The line of every class pattern (`case Name(...)`) in source."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.MatchClass)]


def test_the_scan_sees_a_class_pattern():
    source = "def f(t):\n    match t:\n        case (App(g, xs), _):\n            return g\n"
    assert class_patterns(source) == [3]
    assert class_patterns("match d:\n    case ('fresh', a):\n        pass\n    case _:\n        pass\n") == []


def test_no_library_module_matches_on_classes():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 5
    found = {path.name: lines for path in modules if (lines := class_patterns(path.read_text()))}
    assert found == {}
