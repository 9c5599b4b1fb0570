"""The engine names that the benchmark and the scripts use still resolve.

perfbench/ reaches the engine by name: the tracer reports the spans listed
in `SPAN_METRICS` (perfbench/run.py), and the workloads and their oracle
call through chains such as `self.e.rewrite.replay_step`,
`nomrew.symmetric_search` and `terms.Abstraction`, where `nomrew` and
`terms` are bound to the package and to `nomrew.terms`.  A name that no
longer resolves silently zeroes a traced metric or breaks a workload, and
the scripts break on a lost import.  This reads those names with `ast`,
without running the benchmark, and looks each one up.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _missing(names) -> list[str]:
    out = []
    for module, name in names:
        mod = importlib.import_module("nomrew" if module == "nomrew" else f"nomrew.{module}")
        if not hasattr(mod, name):
            out.append(f"{module}.{name}")
    return out


def span_metrics() -> set[tuple[str, str]]:
    for node in ast.walk(_tree(PERFBENCH / "run.py")):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SPAN_METRICS" for t in node.targets):
            return {tuple(name.split(".")) for name in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/run.py defines no SPAN_METRICS")


def engine_chains(path: Path) -> set[tuple[str, str]]:
    """(module, name) for every `<...>.e.<module>.<name>`, `nomrew.<name>`
    and `terms.<name>` attribute chain in the file; module "nomrew" is the
    package itself."""
    out = set()
    for node in ast.walk(_tree(path)):
        if not isinstance(node, ast.Attribute):
            continue
        inner = node.value
        if isinstance(inner, ast.Name) and inner.id in ("nomrew", "terms"):
            out.add((inner.id, node.attr))
        elif isinstance(inner, ast.Attribute) and isinstance(inner.value, ast.Attribute) and inner.value.attr == "e":
            out.add((inner.attr, node.attr))
    return out


def script_imports() -> set[tuple[str, str]]:
    out = set()
    for path in sorted((ROOT / "scripts").glob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "nomrew":
                module = node.module.partition(".")[2] or "nomrew"
                out.update((module, alias.name) for alias in node.names)
    return out


def test_traced_span_metrics_resolve():
    names = span_metrics()
    assert ("closed", "freshen_rule") in names and ("closed", "is_closed_rule") in names
    assert not _missing(names)


def test_workload_chains_resolve():
    names = engine_chains(PERFBENCH / "workloads.py")
    assert ("rewrite", "replay_step") in names and ("nomrew", "symmetric_search") in names
    assert ("terms", "Abstraction") in names
    for path in (PERFBENCH / "run.py", PERFBENCH / "selftest.py", PERFBENCH / "oracle.py"):
        names |= engine_chains(path)
    assert not _missing(names)


def test_script_imports_resolve():
    names = script_imports()
    assert ("nomrew", "is_closed_rule") in names and ("syntax", "parse_theory") in names
    assert not _missing(names)
