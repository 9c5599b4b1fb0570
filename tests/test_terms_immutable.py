"""Nothing outside terms.py assigns a field of a term or a name.

Term nodes are plain slotted classes, immutable by convention only: a node
is shared between many terms and its hash is kept once computed, so
assigning one of its fields would change every term that holds it and
leave its kept hash stale.  This test scans the package for such an
assignment, and for any setattr, since a field name could come in a
string.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "nomrew"

FIELDS = {"atom", "body", "args", "former", "perm", "unknown", "name", "_hash"}


def field_writes(source: str) -> list[str]:
    """Where source assigns an attribute named like a term or name field,
    or calls setattr or object.__setattr__, as "line: what"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
            for target in targets:
                for part in ast.walk(target):
                    if isinstance(part, ast.Attribute) and part.attr in FIELDS:
                        found.append(f"{node.lineno}: .{part.attr}")
        elif isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "setattr") or (
                isinstance(func, ast.Attribute) and func.attr == "__setattr__"
            ):
                found.append(f"{node.lineno}: {ast.unparse(func)}")
    return found


def test_detector_sees_assignments_and_setattr():
    source = """
t.body = u
t.args += (v,)
x, t.atom = 1, a
s.perm: object = p
del t._hash
setattr(t, "former", "f")
object.__setattr__(t, "unknown", x)
t.bodies = u
mapping = {}
u = t.body
"""
    assert field_writes(source) == [
        "2: .body",
        "3: .args",
        "4: .atom",
        "5: .perm",
        "6: ._hash",
        "7: setattr",
        "8: object.__setattr__",
    ]


def test_nothing_outside_terms_assigns_a_term_field():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name != "terms.py":
            writes = field_writes(path.read_text(encoding="utf-8"))
            if writes:
                found[path.name] = writes
    assert not found, f"term or name fields assigned outside terms.py: {found}"
