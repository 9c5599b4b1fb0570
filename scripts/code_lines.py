#!/usr/bin/env python3
"""Split the lines of a package's modules into docstring, code, comment and
blank lines, in total and per module.

A docstring line is one inside a string-only statement (a module, class or
function docstring, or any other bare string), a code line is one that
holds any other token, a comment line holds a comment and nothing else, and
a blank line holds nothing.  A line that holds code and a docstring or a
comment counts as code, and every line counts once, so the four add up to
the lines of the files.

    python scripts/code_lines.py [PACKAGE_DIR] [--json]   # default src/nomrew
"""

import argparse
import ast
import io
import json
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("code", "docstring", "comment", "blank")
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def split(source: str) -> dict[str, int]:
    """The count of each kind of line in one module's source."""
    lines = source.splitlines()
    # ast gives columns in UTF-8 bytes, tokenize in characters: compare bytes.
    spans = [
        ((node.lineno, node.col_offset), (node.end_lineno, node.end_col_offset))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
    ]
    at = lambda row, col: (row, len(lines[row - 1][:col].encode()))
    kind: dict[int, str] = {}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            kind.setdefault(tok.start[0], "comment")
            continue
        if tok.type in LAYOUT:
            continue
        start, end = at(*tok.start), at(*tok.end)
        doc = tok.type == tokenize.STRING and any(lo <= start and end <= hi for lo, hi in spans)
        for row in range(tok.start[0], tok.end[0] + 1):
            if not doc:
                kind[row] = "code"
            elif kind.get(row) != "code":
                kind[row] = "docstring"
    out = dict.fromkeys(KINDS, 0)
    for row in range(1, len(lines) + 1):
        out[kind.get(row, "blank")] += 1
    return out


def measure(package: Path) -> dict:
    """The split of every module under package, and their total."""
    modules = {
        path.relative_to(package).as_posix(): split(path.read_text(encoding="utf-8"))
        for path in sorted(package.rglob("*.py"))
    }
    total = {k: sum(m[k] for m in modules.values()) for k in KINDS}
    return {"total": total, "modules": modules}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", type=Path, default=ROOT / "src" / "nomrew")
    parser.add_argument("--json", action="store_true", help="print the split as JSON")
    args = parser.parse_args(argv)
    got = measure(args.package)
    if args.json:
        print(json.dumps(got, indent=1))
        return
    print(f"{'module':<16}" + "".join(f"{k:>10}" for k in KINDS) + f"{'lines':>10}")
    for name, counts in [*got["modules"].items(), ("total", got["total"])]:
        print(f"{name:<16}" + "".join(f"{counts[k]:>10,}" for k in KINDS) + f"{sum(counts.values()):>10,}")


if __name__ == "__main__":
    main()
