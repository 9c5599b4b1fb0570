import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import nomrew
import nomrew.cli as cli_module
from nomrew.cli import main

BETAETA = resources.files("nomrew") / "theories" / "betaeta.nrw"
NONCLOSED = resources.files("nomrew") / "theories" / "nonclosed.nrw"
REMARK43 = resources.files("nomrew") / "theories" / "remark43.nrw"
FOL = resources.files("nomrew") / "theories" / "fol.nrw"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_betaeta_all_closed(capsys):
    code, out, _ = run(capsys, "check", str(BETAETA))
    assert code == 0
    for name in ("beta_app", "beta_var", "beta_eps", "beta_fn", "eta"):
        assert f"{name}: closed" in out


def test_check_nonclosed_exits_one(capsys):
    code, out, _ = run(capsys, "check", str(NONCLOSED))
    assert code == 1
    assert "atom_ab: not closed" in out and "strip: not closed" in out


def test_check_remark43_closed(capsys):
    code, out, _ = run(capsys, "check", str(REMARK43))
    assert code == 0 and "expand: closed" in out


def test_check_parse_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.nrw"
    bad.write_text("sig lam:1 ;\nrule r : lam(X,Y) -> X ;\n")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2 and "parse error" in err


@pytest.mark.parametrize("argv, line", [
    (["equal", str(FOL), "imp(P", "P"], "parse error: line 1, col 6: expected ')', found 'end of input'"),
    (["equal", str(FOL), "P", "and(P,)"], "parse error: line 1, col 7: expected a term, found ')'"),
    (["equal", str(FOL), "P", "P", "--ctx", "a#X,b"], "parse error: line 1, col 6: expected '#', found 'end of input'"),
])
def test_parse_error_positions(capsys, argv, line):
    assert run(capsys, *argv) == (2, "", line + "\n")


def test_theory_parse_error_position_counts_a_tab_as_one_column(tmp_path, capsys):
    bad = tmp_path / "bad.nrw"
    bad.write_text("// a comment line\nsig f:1 ;\n\trule r : f(X) -> g(X) ;\n")
    assert run(capsys, "check", str(bad)) == (2, "", "parse error: line 3, col 19: unknown term-former 'g'\n")


@pytest.mark.parametrize("argv, line", [
    (["check", "/nonexistent.nrw"], "error: [Errno 2] No such file or directory: '/nonexistent.nrw'"),
    (["match", "", "X", "", "X"], "error: pattern and target share unknowns: X"),
])
def test_missing_file_and_nominal_errors_exit_two(capsys, argv, line):
    assert run(capsys, *argv) == (2, "", line + "\n")


def test_flag_misuse_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["normalize", str(BETAETA), "--strategy", "sideways", "--term", "a"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["equal", str(FOL), "P", "P", "--fuel", "0"], "argument --fuel: must be at least 1, got 0"),
    (["normalize", str(FOL), "--term", "P", "--fuel", "-3"], "argument --fuel: must be at least 1, got -3"),
    (["normalize", str(FOL), "--term", "P", "--general", "--max-support", "-1"],
     "argument --max-support: must be at least 0, got -1"),
    (["step", str(FOL), "--term", "P", "--general", "--max-support", "-1"],
     "argument --max-support: must be at least 0, got -1"),
    (["equal", str(FOL), "P", "P", "--fuel", "x"], "argument --fuel: invalid int value: 'x'"),
])
def test_bad_fuel_or_max_support_is_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2 and err.startswith("usage: nomrew ") and message in err


def test_normalize_closed(capsys):
    code, out, _ = run(
        capsys, "normalize", str(BETAETA), "--term", "app(lam([a]app(a,a)),b)", "--trace"
    )
    assert code == 0
    assert out.splitlines()[0] == "app(b, b)"
    assert "status: normal_form" in out


def test_normalize_general_trace_json_replays(tmp_path, capsys):
    code, out, _ = run(
        capsys, "normalize", str(BETAETA), "--term", "app(lam([a]app(a,a)),b)",
        "--general", "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1 and report["status"] == "normal_form"
    path = tmp_path / "report.json"
    path.write_text(out)
    code, out, _ = run(capsys, "replay", str(path))
    assert code == 0 and "all valid" in out


def test_equal_exit_codes(capsys):
    code, _, _ = run(capsys, "equal", str(BETAETA), "app(lam([a]app(a,a)),b)", "app(b,b)")
    assert code == 0
    code, _, _ = run(capsys, "equal", str(BETAETA), "a", "b", "--assume-convergent")
    assert code == 1
    code, _, _ = run(capsys, "equal", str(BETAETA), "a", "b")
    assert code == 3


def test_equal_eta_under_context(capsys):
    code, _, _ = run(
        capsys, "equal", str(BETAETA), "lam([a]app(X,a))", "X", "--ctx", "a#X"
    )
    assert code == 0


def test_equal_rejects_nonclosed_theory(capsys):
    code, _, err = run(capsys, "equal", str(NONCLOSED), "a", "b")
    assert code == 2 and "not closed" in err


def test_alpha_command(capsys):
    code, out, _ = run(capsys, "alpha", "--ctx", "a#X,b#X", "(a b).X", "X")
    assert code == 0 and out.strip() == "yes"
    code, out, _ = run(capsys, "alpha", "[a]X", "[b]X")
    assert code == 1 and out.strip() == "no"


def test_alpha_trace_prints_derivation(capsys):
    code, out, _ = run(capsys, "alpha", "[a]a", "[b]b", "--trace")
    assert code == 0 and "~[b]" in out and "=a=" in out


def test_fresh_command(capsys):
    code, out, _ = run(capsys, "fresh", "a", "[a]a")
    assert code == 0 and out.strip() == "yes"
    code, out, _ = run(capsys, "fresh", "a", "X", "--ctx", "")
    assert code == 1


def test_match_command(capsys):
    code, out, _ = run(capsys, "match", "", "[a]X", "", "[b]b")
    assert code == 0 and "X -> a" in out
    code, out, _ = run(capsys, "match", "a#X", "X", "", "a")
    assert code == 1 and "no match" in out


def test_step_general_json_contains_permuted_result(tmp_path, capsys):
    code, out, _ = run(
        capsys, "step", str(NONCLOSED), "--term", "[b][a]a", "--general", "--json"
    )
    assert code == 0
    report = json.loads(out)
    results = {s["result"] for s in report["steps"]}
    assert "[a]b" in results
    step = next(s for s in report["steps"] if s["result"] == "[a]b")
    assert step["perm"] == [["a", "b"]]
    path = tmp_path / "steps.json"
    path.write_text(out)
    code, out, _ = run(capsys, "replay", str(path))
    assert code == 0 and "all valid" in out


def test_step_closed_replays(tmp_path, capsys):
    code, out, _ = run(capsys, "step", str(REMARK43), "--term", "X", "--json")
    assert code == 0
    report = json.loads(out)
    assert any(s["result"] == "f(X)" for s in report["steps"])
    path = tmp_path / "steps.json"
    path.write_text(out)
    code, out, _ = run(capsys, "replay", str(path))
    assert code == 0


def test_fol_theory_self_consistency(capsys):
    code, _, _ = run(capsys, "check", str(FOL))
    assert code == 0
    code, out, _ = run(
        capsys, "normalize", str(FOL), "--term", "forall([a]and(P,imp(Q,Q)))", "--ctx", "a#P,a#Q"
    )
    assert code == 0
    assert out.splitlines()[0] == "and(P, or(not(Q), Q))"


def test_closed_report_is_the_same_under_any_hash_seed():
    """Fresh names are picked in name order and contexts print sorted, so a
    closed trace does not depend on how strings hash."""
    src = Path(nomrew.__file__).resolve().parent.parent
    argv = [
        sys.executable, "-m", "nomrew.cli", "normalize", str(BETAETA),
        "--term", "app(lam([a]app(app(a,X),lam([b]app(Y,b)))),c)", "--ctx", "a#Y,b#Y,c#X,d#X,d#Y", "--json",
    ]
    outs = []
    for seed in ("1", "4"):  # the context and the extensions iterate in other orders under these
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
        outs.append(subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout)
    assert outs[0] == outs[1]
    report = json.loads(outs[0])
    assert report["status"] == "normal_form" and len(report["trace"]) > 1
    assert any(len(step["ctx_extension"]) > 1 for step in report["trace"])


REPLAY_CASES = {
    "normalize-closed": ("normalize", str(BETAETA), "--term", "app(lam([a]app(app(a,X),a)),b)"),
    "normalize-general-outermost": (
        "normalize", str(BETAETA), "--term", "app(lam([a]app(app(a,X),a)),b)",
        "--general", "--strategy", "outermost",
    ),
    "normalize-general-innermost": (
        "normalize", str(BETAETA), "--term", "app(lam([a]app(app(a,X),a)),b)",
        "--general", "--strategy", "innermost",
    ),
    "step-closed": ("step", str(BETAETA), "--term", "app(lam([a]app(X,a)),app(lam([b]b),c))"),
    "step-general": ("step", str(BETAETA), "--term", "app(lam([a]app(X,a)),app(lam([b]b),c))", "--general"),
    "equal": ("equal", str(FOL), "forall([a]and(P,imp(Q,Q)))", "and(P,or(not(Q),Q))", "--ctx", "a#P,a#Q"),
}


@pytest.mark.parametrize("case", sorted(REPLAY_CASES))
def test_every_trace_replays(case, tmp_path, capsys):
    code, out, _ = run(capsys, *REPLAY_CASES[case], "--json")
    assert code == 0
    path = tmp_path / "report.json"
    path.write_text(out)
    code, out, _ = run(capsys, "replay", str(path))
    assert code == 0 and "all valid" in out
    assert int(out.split()[1]) > 0  # "replayed N steps"


def _one_step_report(capsys):
    code, out, _ = run(capsys, "normalize", str(BETAETA), "--term", "app(lam([a]a),b)", "--json")
    assert code == 0
    report = json.loads(out)
    assert [s["rule"] for s in report["trace"]] == ["beta_var"]
    return report


def test_replay_rejects_forged_closed_step(tmp_path, capsys):
    report = _one_step_report(capsys)
    step = report["trace"][0]
    step.update(source="b", variant="b", result="c", path=[], perm=[], subst={}, ctx_extension=[])
    step["freshened"].update(ctx="", lhs="b", rhs="c")
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(report))
    code, out, _ = run(capsys, "replay", str(path))
    assert code == 1 and "FAILED" in out


def test_replay_rejects_wrong_context_extension(tmp_path, capsys):
    code, out, _ = run(capsys, "step", str(REMARK43), "--term", "X", "--json")
    report = json.loads(out)
    step = next(s for s in report["steps"] if s["result"] == "f(X)")
    assert step["ctx_extension"]
    step["ctx_extension"].append(["a", "X"])  # a is the subject's own atom, not a fresh one
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(report))
    code, _, _ = run(capsys, "replay", str(path))
    assert code == 1


def test_replay_rejects_rule_missing_from_theory(tmp_path, capsys):
    report = _one_step_report(capsys)
    report["trace"][0]["rule"] = "no_such_rule"
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(report))
    code, out, _ = run(capsys, "replay", str(path))
    assert code == 1 and "FAILED" in out


def test_replay_rejects_a_position_that_does_not_exist(tmp_path, capsys):
    code, out, _ = run(capsys, "normalize", str(BETAETA), "--term", "app(c, app(lam([a]a), b))", "--json")
    report = json.loads(out)
    step = report["trace"][0]
    assert code == 0 and len(report["trace"]) == 1 and step["path"] == [1]
    # Index -1 would pick the last argument, and plugging a term back in
    # there would make four arguments from two.
    source = "g(c, app(lam([a]a), b))"
    step.update(path=[-1], source=source, variant=source, result="g(c, b, c, app(lam([a]a), b))")
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(report))
    code, out, _ = run(capsys, "replay", str(path))
    assert code == 1 and "FAILED" in out
    # A step is "body" or a JSON integer, never coerced to one: int() would
    # read each of these as 0.
    code, out, _ = run(capsys, "normalize", str(BETAETA), "--term", "lam([c]app(lam([a]a), b))", "--json")
    report = json.loads(out)
    assert code == 0 and report["trace"][0]["path"] == [0, "body"]
    for first in (0.9, False, "0", -0.5):
        report["trace"][0]["path"] = [first, "body"]
        path.write_text(json.dumps(report))
        code, out, _ = run(capsys, "replay", str(path))
        assert code == 1 and "FAILED" in out, first


def test_normalize_general_truncated_universe_exits_three(tmp_path, capsys):
    # The step needs pi = (a z), but z is cut from the 6-atom universe.
    theory = tmp_path / "trunc.nrw"
    theory.write_text("theory trunc ;\nsig f:1 g:0 h:7 ;\nrule r : f(a) -> g ;\n")
    term = "h(b,c,d,e,k,m,f(z))"
    code, out, _ = run(capsys, "normalize", str(theory), "--term", term, "--general", "--json")
    report = json.loads(out)
    assert code == 3 and report["status"] == "truncated" and report["schema"] == 1
    code, out, _ = run(capsys, "normalize", str(theory), "--term", term, "--general", "--max-support", "9")
    assert code == 0 and out.splitlines()[0] == "h(b, c, d, e, k, m, g)"


def test_step_general_truncated_universe_exits_three(tmp_path, capsys):
    # Same cut universe as above: "no steps" proves nothing, so it is not a yes.
    theory = tmp_path / "trunc.nrw"
    theory.write_text("theory trunc ;\nsig f:1 g:0 h:7 ;\nrule r : f(a) -> g ;\n")
    term = "h(b,c,d,e,k,m,f(z))"
    code, out, _ = run(capsys, "step", str(theory), "--term", term, "--general")
    assert code == 3 and out.splitlines() == [
        "no steps", "(permutation universe truncated: absence of steps is inconclusive)",
    ]
    code, out, _ = run(capsys, "step", str(theory), "--term", term, "--general", "--json")
    report = json.loads(out)
    assert code == 3 and report["truncated"] and report["steps"] == [] and report["schema"] == 1
    code, out, _ = run(capsys, "step", str(theory), "--term", term, "--general", "--max-support", "9")
    assert code == 0 and "->1 h(b, c, d, e, k, m, g)" in out


def test_general_rewriting_with_no_fitting_hole_is_not_truncated(capsys):
    # Six subject atoms cut every betaeta rule's universe, but no lhs fits
    # any position of this term, so no permutation could give a step.
    from nomrew.rewrite import Subject, _prepare_general
    from nomrew.syntax import parse_term

    term = "app(app(a,b),app(c,app(d,app(e,f))))"
    theory = cli_module._load_theory(str(BETAETA))[0]
    subject = Subject(nomrew.EMPTY_CTX, parse_term(term))
    assert all(_prepare_general(subject, rule, sides={}).truncated for rule in theory.rules)
    code, out, _ = run(capsys, "normalize", str(BETAETA), "--term", term, "--general", "--json")
    assert code == 0 and json.loads(out)["status"] == "normal_form"
    code, out, _ = run(capsys, "step", str(BETAETA), "--term", term, "--general")
    assert code == 0 and out.splitlines() == ["no steps"]
    # eta fits this term but needs a#X; no universe is cut, so it is normal.
    code, out, _ = run(capsys, "normalize", str(BETAETA), "--term", "lam([a]app(X,a))", "--general")
    assert code == 0 and out.splitlines()[1] == "status: normal_form after 0 steps"


def test_unexpected_error_never_exits_one(capsys):
    code, _, err = run(capsys, "fresh", "b", "[a]" * 1500 + "a")
    assert code in (0, 2)
    if code == 2:
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built = []
    build = cli_module.build_parser
    monkeypatch.setattr(cli_module, "build_parser", lambda: built.append(1) or build())
    cli_module._parser.cache_clear()
    assert run(capsys, "check", str(REMARK43))[0] == 0
    assert run(capsys, "check", str(NONCLOSED))[0] == 1
    assert built == [1]


def test_theory_file_is_parsed_once_per_text(tmp_path, monkeypatch, capsys):
    parsed = []
    parse = cli_module.parse_theory
    monkeypatch.setattr(cli_module, "parse_theory", lambda text: parsed.append(text) or parse(text))
    cli_module._parse_theory_text.cache_clear()
    path = tmp_path / "swap.nrw"
    path.write_text("sig f:1 g:1 ;\nrule r : f(X) -> g(X) ;\n")
    for _ in range(2):
        code, out, _ = run(capsys, "normalize", str(path), "--term", "f(a)")
        assert code == 0 and out.splitlines()[0] == "g(a)"
    assert len(parsed) == 1
    path.write_text("sig f:1 g:1 ;\nrule r : g(X) -> f(X) ;\n")
    code, out, _ = run(capsys, "normalize", str(path), "--term", "g(a)")
    assert code == 0 and out.splitlines()[0] == "f(a)"
    assert len(parsed) == 2


def test_theory_text_is_printed_once_per_text(monkeypatch, capsys):
    printed = []
    show = cli_module.pretty_theory
    monkeypatch.setattr(cli_module, "pretty_theory", lambda theory: printed.append(theory) or show(theory))
    cli_module._parse_theory_text.cache_clear()
    commands = [
        ("check", str(FOL)),
        ("normalize", str(FOL), "--term", "not(not(c))"),
        ("equal", str(FOL), "not(not(c))", "c"),
        ("step", str(FOL), "--term", "not(not(c))"),
    ]
    reports = [json.loads(run(capsys, *argv, "--json")[1]) for argv in commands * 2]
    assert len(printed) == 1
    assert {r["theory"] for r in reports} == {show(nomrew.syntax.parse_theory(FOL.read_text()))}


NULLARY = "theory nullary ;\nsig f:1 g:0 h:1 ;\nrule r : f(X) -> g ;\n"


@pytest.mark.parametrize("argv", [
    ["normalize", "--term", "f(f(c))"],
    ["normalize", "--term", "f(f(c))", "--general"],
    ["normalize", "--term", "h(f(g))", "--strategy", "innermost"],
    ["step", "--term", "h(f(f(g)))"],
    ["step", "--term", "h(f(f(g)))", "--general"],
])
def test_reports_with_a_nullary_former_replay(argv, tmp_path, capsys):
    # Replay parses under the theory's signature, so g reads back as the
    # former, not as an atom, and the recorded steps check out.
    theory = tmp_path / "nullary.nrw"
    theory.write_text(NULLARY)
    code, out, _ = run(capsys, argv[0], str(theory), *argv[1:], "--json")
    report = json.loads(out)
    assert code == 0 and "g" in json.dumps(report["trace" if argv[0] == "normalize" else "steps"])
    path = tmp_path / "report.json"
    path.write_text(out)
    code, out, _ = run(capsys, "replay", str(path))
    assert code == 0 and "all valid" in out


def test_replay_rejects_a_step_fired_on_the_freshened_rule_own_atom(tmp_path, capsys):
    # The binder c renamed to p$0, the atom f(p) -> g is freshened to, made
    # the rule fire under [c]; the same rule over q fires nowhere.
    step = {
        "rule": "r", "path": ["body"], "perm": [], "subst": {},
        "source": "[c]f(c)", "variant": "[p$0]f(p$0)", "result": "[c]g",
        "mode": "closed", "ctx_extension": [],
        "freshened": {"name": "r", "ctx": "", "lhs": "f(p$0)", "rhs": "g"},
    }
    report = {
        "schema": 1, "command": "step", "theory": "theory t ;\nsig f:1 g:0 ;\nrule r : f(p) -> g ;\n",
        "ctx": "", "mode": "closed", "term": "[c]f(c)", "truncated": False, "steps": [step],
    }
    path = tmp_path / "unsound.json"
    path.write_text(json.dumps(report))
    code, out, _ = run(capsys, "replay", str(path))
    assert code == 1 and "FAILED" in out
    theory = tmp_path / "t.nrw"
    theory.write_text(report["theory"])
    code, out, _ = run(capsys, "step", str(theory), "--term", "[c]f(c)")
    assert code == 0 and out == "no steps\n"


JSON_CASES = {
    **{f"check-{theory.stem}": ("check", str(theory)) for theory in (BETAETA, FOL, NONCLOSED, REMARK43)},
    "normalize-closed": ("normalize", str(BETAETA), "--term", "app(lam([a]app(app(a,X),a)),b)", "--trace"),
    "normalize-general": (
        "normalize", str(FOL), "--term", "forall([a]and(P,imp(Q,Q)))", "--ctx", "a#P,a#Q", "--general",
    ),
    "normalize-nonclosed": ("normalize", str(NONCLOSED), "--term", "[b][a]a", "--general"),
    "normalize-fuel": ("normalize", str(REMARK43), "--term", "X", "--ctx", "a#X", "--fuel", "3"),
    "step-general": ("step", str(BETAETA), "--term", "app(lam([a]app(X,a)),app(lam([b]b),c))", "--general"),
    "step-closed": ("step", str(REMARK43), "--term", "X"),
    "equal": ("equal", str(FOL), "forall([a]and(P,imp(Q,Q)))", "and(P,or(not(Q),Q))", "--ctx", "a#P,a#Q"),
    "equal-convergent": ("equal", str(BETAETA), "a", "b", "--assume-convergent"),
    "alpha": ("alpha", "--ctx", "a#X,b#X", "[a]f((a b).X, é)", "[b]f(X, é)"),
    "fresh": ("fresh", "--ctx", "a#X", "a", "[b]f(X, b)"),
    "match": ("match", "", "[a]f(X, a)", "", "[b]f(c, b)"),
}


@pytest.mark.parametrize("case", sorted(JSON_CASES))
def test_json_reports_print_as_json_dumps(case, capsys, monkeypatch):
    reports = []
    write = cli_module._json_text
    monkeypatch.setattr(cli_module, "_json_text", lambda report: reports.append(report) or write(report))
    _, out, _ = run(capsys, *JSON_CASES[case], "--json")
    [report] = reports
    assert out == json.dumps(report, indent=2) + "\n"


def test_json_text_is_json_dumps_on_deep_and_odd_reports():
    leaf = {"text": 'tab\t"quote" \\ café ∀ \U0001d4b3 \x00', "empty": [{}, [], ()], "n": [-3, 0, True, False, None]}
    report: dict = leaf
    for depth in range(400):
        report = {"node": depth, "children": [report, ("tuple", leaf)] if depth % 3 else (report,)}
    assert cli_module._json_text(report) == json.dumps(report, indent=2)
    for value in ({}, [], (), "", 7, None):
        assert cli_module._json_text(value) == json.dumps(value, indent=2)
    for bad in ({"x": 1.5}, {1: "int key"}, [{"x": object()}]):
        with pytest.raises(TypeError):
            cli_module._json_text(bad)


def test_json_text_writes_a_report_5000_deep():
    report: list = []
    for _ in range(4999):
        report = [report]
    lines = cli_module._json_text(report).split("\n")
    assert lines == [" " * 2 * i + "[" for i in range(4999)] + [" " * 9998 + "[]"] + [
        " " * 2 * i + "]" for i in reversed(range(4999))
    ]
    with pytest.raises(RecursionError):
        json.dumps(report, indent=2)
