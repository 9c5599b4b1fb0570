"""The engine names that the benchmark and the scripts use still resolve.

perfbench/ reaches the engine by name: the tracer reports the spans listed
in `SPAN_METRICS` (perfbench/run.py), and the workloads and their oracle
call through chains such as `self.e.rewrite.replay_step`,
`nomrew.symmetric_search` and `terms.Abstraction`, where `nomrew` and
`terms` are bound to the package and to `nomrew.terms`.  A name that no
longer resolves silently zeroes a traced metric or breaks a workload, and
the scripts break on a lost import.  This reads those names with `ast`,
without running the benchmark, and looks each one up.  Every call through
them must also bind to the callee's signature, so that a benchmark or a
script passing an argument the engine no longer takes fails here rather
than in a benchmark run.
"""

import ast
import importlib
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _module(module: str):
    return importlib.import_module("nomrew" if module == "nomrew" else f"nomrew.{module}")


def _missing(names) -> list[str]:
    return [f"{module}.{name}" for module, name in names if not hasattr(_module(module), name)]


def span_metrics() -> set[tuple[str, str]]:
    for node in ast.walk(_tree(PERFBENCH / "run.py")):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SPAN_METRICS" for t in node.targets):
            return {tuple(name.split(".")) for name in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/run.py defines no SPAN_METRICS")


def _chain(node: ast.AST) -> tuple[str, str] | None:
    """(module, name) when node is a `<...>.e.<module>.<name>`,
    `nomrew.<name>` or `terms.<name>` attribute chain; module "nomrew" is
    the package itself."""
    if not isinstance(node, ast.Attribute):
        return None
    inner = node.value
    if isinstance(inner, ast.Name) and inner.id in ("nomrew", "terms"):
        return inner.id, node.attr
    if isinstance(inner, ast.Attribute) and isinstance(inner.value, ast.Attribute) and inner.value.attr == "e":
        return inner.attr, node.attr
    return None


def engine_chains(path: Path) -> set[tuple[str, str]]:
    """(module, name) for every engine attribute chain in the file."""
    return {chain for node in ast.walk(_tree(path)) if (chain := _chain(node))}


def _imported(path: Path) -> dict[str, tuple[str, str]]:
    """The names a file imports from nomrew, by the local name bound."""
    out = {}
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "nomrew":
            module = node.module.partition(".")[2] or "nomrew"
            out.update({alias.asname or alias.name: (module, alias.name) for alias in node.names})
    return out


def script_imports() -> set[tuple[str, str]]:
    return {name for path in sorted((ROOT / "scripts").glob("*.py")) for name in _imported(path).values()}


def unbound_calls(path: Path, callee) -> tuple[int, list[str]]:
    """Bind every call whose callee(func) names an engine function to that
    function's signature, with placeholders for the arguments.  Returns the
    number of calls checked and a line for each that does not bind; a call
    spreading *args or **kwargs cannot be bound and counts as failing."""
    checked, out = 0, []
    for node in ast.walk(_tree(path)):
        if not isinstance(node, ast.Call) or not (name := callee(node.func)):
            continue
        where = f"{path.name}:{node.lineno} {'.'.join(name)}"
        fn = getattr(_module(name[0]), name[1])
        if any(isinstance(arg, ast.Starred) for arg in node.args) or any(kw.arg is None for kw in node.keywords):
            out.append(f"{where}: spread arguments")
            continue
        try:
            inspect.signature(fn).bind(*node.args, **{kw.arg: kw.value for kw in node.keywords})
        except TypeError as e:
            out.append(f"{where}: {e}")
        checked += 1
    return checked, out


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


def test_engine_calls_bind_to_their_signatures():
    total, unbound = 0, []
    for path in sorted(PERFBENCH.glob("*.py")):
        checked, bad = unbound_calls(path, _chain)
        total, unbound = total + checked, unbound + bad
    for path in sorted((ROOT / "scripts").glob("*.py")):
        imported = _imported(path)
        callee = lambda func: _chain(func) or (imported.get(func.id) if isinstance(func, ast.Name) else None)
        checked, bad = unbound_calls(path, callee)
        total, unbound = total + checked, unbound + bad
    assert total > 80
    assert not unbound


def test_a_removed_keyword_does_not_bind(tmp_path):
    path = tmp_path / "workload.py"
    path.write_text(
        "nomrew.closed_reachable(ctx, s, theory, 2, max_support=6)\n"
        "nomrew.closed_normalize(ctx, s, theory, fuel=10)\n"
        "self.e.rewrite.replay_step(ctx, step)\n"
    )
    checked, unbound = unbound_calls(path, _chain)
    assert checked == 3 and len(unbound) == 2
    assert "closed_reachable" in unbound[0] and "max_support" in unbound[0] and "replay_step" in unbound[1]
