"""Every name a module imports is used in it.  An unused import suggests a
check or a dependency that the module does not have.  The package's
`__init__.py` is exempt, as its imports are the public API."""

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
