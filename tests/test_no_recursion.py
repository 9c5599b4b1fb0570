"""Library functions may not call themselves.

A function that calls itself once per level of a term raises RecursionError
on valid terms about a thousand deep, so the walkers keep their own stacks
(`terms._fold` and the worklists).  No library function calls itself; one
that must would be listed in ALLOWED with its reason.  This test keeps a
new walker from bringing the depth limit back unnoticed, and drops an entry
from the list once its function no longer recurses.
"""

import ast
from pathlib import Path

from nomrew.terms import Term

SRC = Path(__file__).resolve().parent.parent / "src" / "nomrew"

ALLOWED: dict[str, str] = {}


def self_calls(source: str, module: str) -> set[str]:
    """Qualified names of the functions in source that call themselves by
    bare name, or, as methods, through self; calls from nested functions
    and lambdas count, since they run on the same stack."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + [child.name]
                if not isinstance(child, ast.ClassDef) and any(
                    isinstance(call, ast.Call) and _names(call.func, child.name) for call in ast.walk(child)
                ):
                    found.add(".".join([module, *inner]))
                visit(child, inner)
            else:
                visit(child, scope)

    visit(ast.parse(source), [])
    return found


def _names(func: ast.expr, name: str) -> bool:
    if isinstance(func, ast.Name):
        return func.id == name
    return (
        isinstance(func, ast.Attribute)
        and func.attr == name
        and isinstance(func.value, ast.Name)
        and func.value.id == "self"
    )


def test_detector_sees_direct_nested_and_method_recursion():
    source = """
def walk(t):
    return [walk(u) for u in t]

def outer(t):
    def inner(u):
        return inner(u[0]) if u else outer(u)
    return inner(t)

class P:
    def term(self):
        return self.term()

    def other(self):
        return self.term() + term()
"""
    assert self_calls(source, "m") == {"m.walk", "m.outer", "m.outer.inner", "m.P.term"}


def test_only_allowlisted_functions_call_themselves():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= self_calls(path.read_text(encoding="utf-8"), path.stem)
    assert not found - ALLOWED.keys(), f"new self-recursive functions: {sorted(found - ALLOWED.keys())}"
    assert not ALLOWED.keys() - found, f"no longer recursive, drop from ALLOWED: {sorted(ALLOWED.keys() - found)}"


def test_no_term_class_has_its_own_repr():
    """A dataclass-generated __repr__ shows the fields, and so recurses once
    per level of the term; the source scan above cannot see generated code.
    Every term class shows its concrete syntax through Term.__repr__."""
    classes = Term.__subclasses__()
    assert len(classes) == 4
    assert [cls.__name__ for cls in classes if "__repr__" in vars(cls)] == []
