"""Every name a module imports is used in it.  An unused import suggests a
check or a dependency that the module does not have.  The package's
`__init__.py` is exempt, as its imports are the public API.

Every module-level function and class of the package is read somewhere in
it outside its own definition, or exported by `__init__.py`: one that
neither is left over from code that no longer calls it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path
    for pattern in ("src/nomrew/*.py", "tests/*.py", "scripts/*.py")
    for path in ROOT.glob(pattern)
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of a module that nothing in it reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names if alias.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_scan_sees_unused_names():
    source = "from __future__ import annotations\nimport os, re as regex\nfrom a.b import c, d\nimport x.y\n"
    assert unused_imports(source + "print(c, x)\n") == ["os", "regex", "d"]


def test_no_unused_imports():
    assert len(FILES) > 20
    unused = {str(path.relative_to(ROOT)): names for path in FILES if (names := unused_imports(path.read_text()))}
    assert unused == {}


SRC = ROOT / "src" / "nomrew"


def unread_definitions(sources: dict[str, str], exported: set[str]) -> list[str]:
    """The module-level functions and classes of the modules (name to
    source) that no module reads outside their own definition and that are
    not in `exported`.  A read is a name, an attribute or an imported name."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        own = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
                own.update((id(inner), node.name) for inner in ast.walk(node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if own.get(id(node)) != name:  # a definition reading itself is no use of it
                read.add(name)
    return [f"{module}.{name}" for module, name in defined if name not in read | exported]


def test_the_scan_sees_unread_definitions():
    sources = {
        "a": "def used():\n    return helper()\n\ndef helper():\n    return helper()\n\n"
        "def lonely():\n    return lonely()\n",
        "b": "from .a import used\n\nclass Kept:\n    pass\n\nclass Dropped:\n    x = used\n",
    }
    assert unread_definitions(sources, {"Kept"}) == ["a.lonely", "b.Dropped"]


def test_every_definition_is_read_or_exported():
    init = ast.parse((SRC / "__init__.py").read_text())
    exported = {alias.name for node in ast.walk(init) if isinstance(node, ast.ImportFrom) for alias in node.names}
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert len(sources) > 5 and len(exported) > 50
    assert unread_definitions(sources, exported) == []
