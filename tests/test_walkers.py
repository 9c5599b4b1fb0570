"""The term walkers and the command line at any depth, and the walkers
against their recursive references.

Deep inputs are spines: n levels, alternately an abstraction [a]... and a
unary application, wrapped around a small bottom term.  Results on them are
checked through their printed text and, since term == and hash keep their
own stack, with == against the expected term built separately.  The rewriting
engines walk positions with one cursor (`_places`), whose places share their
parents' rebuild frames, and are checked at 10^4, a replayed report at 10^5.
The command line is run in process, as deep terms make arguments longer than
one argv string may be.
"""

import json
import random
from functools import cache
from importlib import resources
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nomrew import (
    EMPTY_CTX,
    Abstraction,
    App,
    Atom,
    AtomTerm,
    FreshnessContext,
    MatchProblem,
    Permutation,
    RewriteRule,
    RewriteStep,
    Substitution,
    Suspension,
    Unknown,
    act,
    alpha_holds,
    check_alpha,
    check_fresh,
    closed_normalize,
    closed_reachable,
    closed_rewrite_step,
    decide_equal,
    fresh_holds,
    normalize_general,
    rewrite_step_general,
    scrub,
    solve_match,
    substitute,
    subterms,
    swap,
    term_depth,
    term_size,
    var,
)
from nomrew import cli
from nomrew import rewrite as rewrite_module
from nomrew.rewrite import _decompositions, _fresh_renaming, _path, _places, _plug, _rename_rule, _rename_term, path_str
from nomrew.syntax import parse_term, parse_theory, pretty
from nomrew.terms import atoms_of, names_of, unknowns_of

import reference_walkers as ref
from strategies import ATOMS, contexts_st, perms_st, random_ctx, random_term, substs_st, terms_st

a, b, c, d, e = (Atom(n) for n in "abcde")
X, Y = Unknown("X"), Unknown("Y")
DEPTHS = [10**3, 10**4, 10**5]
BOTTOM = App("g", (Suspension(swap(a, b), X), AtomTerm(c)))  # g((a b).X, c)
THEORIES = resources.files("nomrew") / "theories"
BETAETA = parse_theory((THEORIES / "betaeta.nrw").read_text())
REMARK43 = parse_theory((THEORIES / "remark43.nrw").read_text())


def spine(n: int, bottom, former: str = "u", binder: Atom = a):
    t = bottom
    for i in range(n):
        t = App(former, (t,)) if i % 2 else Abstraction(binder, t)
    return t


def spine_text(n: int, bottom: str, former: str = "u", binder: str = "a") -> str:
    levels = (f"{former}(" if i % 2 else f"[{binder}]" for i in reversed(range(n)))
    return "".join(levels) + bottom + ")" * (n // 2)


@cache
def deep(n: int):
    return spine(n, BOTTOM)


def spine_path(n: int) -> tuple:
    return tuple(0 if i % 2 else "body" for i in reversed(range(n)))


# -- every rerouted walker answers on spines 10^3, 10^4 and 10^5 deep ---------


@pytest.mark.parametrize("n", DEPTHS)
def test_pretty_size_and_depth_at_depth(n):
    t = deep(n)
    assert pretty(t) == spine_text(n, "g((a b).X, c)")
    assert parse_term(pretty(t)) == t
    assert term_size(t) == n + 3
    assert term_depth(t) == n + 2
    assert next(islice(subterms(t), n, None)) is BOTTOM


@pytest.mark.parametrize("n", DEPTHS)
def test_act_and_substitute_at_depth(n):
    t = deep(n)
    pi = swap(a, d)
    swapped = spine_text(n, pretty(act(pi, BOTTOM)), binder="d")
    assert pretty(act(pi, t)) == swapped
    assert act(pi, t) == spine(n, act(pi, BOTTOM), binder=d)
    sigma = Substitution({X: App("f", (AtomTerm(a),))})
    assert pretty(substitute(t, sigma)) == spine_text(n, "g(f(b), c)")
    assert substitute(t, sigma) == spine(n, App("g", (App("f", (AtomTerm(b),)), AtomTerm(c))))
    # a deep image, once under a suspension's permutation and once bare
    twice = substitute(App("h", (Suspension(pi, Y), var(Y))), Substitution({Y: t}))
    assert pretty(twice) == f"h({swapped}, {spine_text(n, 'g((a b).X, c)')})"
    assert twice == App("h", (spine(n, act(pi, BOTTOM), binder=d), spine(n, BOTTOM)))


@pytest.mark.parametrize("n", DEPTHS)
def test_freshness_at_depth(n):
    t = deep(n)
    assert not fresh_holds(EMPTY_CTX, d, t)  # d # (a b).X needs d # X
    assert fresh_holds(FreshnessContext.of((d, X)), d, t)
    assert not fresh_holds(FreshnessContext.of((d, X)), c, t)
    assert fresh_holds(FreshnessContext.of((a, X)), b, t)  # (a b)^-1(b) = a
    assert check_fresh(EMPTY_CTX, d, t) is None
    deriv = check_fresh(FreshnessContext.of((d, X)), d, t)
    assert deriv.conclusion[3] is t
    rules = []
    while len(deriv.children) == 1:
        rules.append(deriv.rule)
        (deriv,) = deriv.children
    assert rules == ["#f" if i % 2 else "#[b]" for i in reversed(range(n))]
    assert deriv.rule == "#f" and [child.rule for child in deriv.children] == ["#X", "#ab"]


@pytest.mark.parametrize("n", DEPTHS)
def test_scrub_at_depth(n):
    t = deep(n)
    ctx = FreshnessContext.of((a, X), (b, X))
    assert pretty(scrub(ctx, t, [c, d])) == spine_text(n, "g(X, c)")
    assert scrub(ctx, t, [c, d]) == spine(n, App("g", (var(X), AtomTerm(c))))


@pytest.mark.parametrize("n", DEPTHS)
def test_names_at_depth(n):
    t = deep(n)
    ctx = FreshnessContext.of((d, Y))
    assert names_of(t) == ({a, b, c}, {X}) and names_of(ctx, t) == ({a, b, c, d}, {X, Y})
    assert atoms_of(ctx, t) == {a, b, c, d} and unknowns_of(ctx, t) == {X, Y}
    assert names_of(spine(n, AtomTerm(e), binder=d), t) == ({a, b, c, d, e}, {X})


def test_parse_wide_term():
    t = App("g", tuple(spine(i % 7, AtomTerm(ATOMS[i % 4])) for i in range(10**4)))
    assert parse_term(pretty(t)) == t


def test_term_repr_at_depth():
    t = deep(10**4)
    assert repr(t) == f"App({pretty(t)!r})"
    step = RewriteStep("r", (), Permutation(), Substitution({X: t}), t, t, t)
    assert repr(step).count(repr(t)) == 4


# -- the engines answer on inputs 10^3 and 10^4 deep -------------------------


def test_positions_at_depth():
    for n in DEPTHS:
        t = deep(n)
        outer, inner = list(_places(t)), list(_places(t, innermost=True))
        assert len(outer) == len(inner) == n + 3
        assert outer[0] == (None, t) and inner[-1] == (None, t)
        assert outer[n][1] is BOTTOM and inner[2][1] is BOTTOM
        assert _path(outer[n][0]) == _path(inner[2][0]) == spine_path(n)
        assert _plug(outer[n][0], AtomTerm(d)) == _plug(inner[2][0], AtomTerm(d)) == spine(n, AtomTerm(d))


def test_normalization_reads_the_cursor_lazily(monkeypatch):
    # The root is a redex, so the first step reads one place; the second
    # walk finds the argument 10^4 deep in normal form.
    n = 10**4
    arg = spine(n, AtomTerm(c), "lam")
    s = App("app", (App("lam", (Abstraction(b, AtomTerm(b)),)), arg))
    real, counts = rewrite_module._places, []

    def counted(*args):
        counts.append(0)
        for place in real(*args):
            counts[-1] += 1
            yield place

    monkeypatch.setattr(rewrite_module, "_places", counted)
    for normalize in (closed_normalize, normalize_general):
        counts.clear()
        res = normalize(EMPTY_CTX, s, BETAETA)
        assert res.status == "normal_form" and [step.path for step in res.trace] == [()]
        assert res.term == arg and counts == [1, n + 1]


def test_solve_match_at_depth():
    n = 10**3
    # [e]Y against [d]t sends Y to (d e).t, which leaves e # t to prove.
    target, ctx = Abstraction(d, deep(n)), FreshnessContext.of((e, X))
    problem = MatchProblem(EMPTY_CTX, Abstraction(e, var(Y)), ctx, target)
    sigma = solve_match(problem).sigma
    assert alpha_holds(ctx, substitute(problem.pattern, sigma), target)
    assert pretty(sigma[Y]) == spine_text(n, pretty(act(swap(d, e), BOTTOM)))
    assert sigma == Substitution({Y: spine(n, act(swap(d, e), BOTTOM))})
    assert solve_match(MatchProblem(EMPTY_CTX, problem.pattern, EMPTY_CTX, target)) is None


def test_normalization_and_equality_at_depth():
    n = 10**4
    redex = App("app", (App("lam", (Abstraction(b, AtomTerm(b)),)), AtomTerm(c)))
    s, normal = spine(n, redex, "lam"), spine_text(n, "c", "lam")
    for res in (closed_normalize(EMPTY_CTX, s, BETAETA), normalize_general(EMPTY_CTX, s, BETAETA)):
        assert res.status == "normal_form" and len(res.trace) == 1
        assert res.trace[0].path == spine_path(n)
        assert pretty(res.term) == normal
        assert res.term == spine(n, AtomTerm(c), "lam")
    decision = decide_equal(EMPTY_CTX, s, spine(n, AtomTerm(c), "lam"), BETAETA, assume_convergent=True)
    assert decision.verdict == "equal"


def test_closed_step_and_reachability_at_depth(monkeypatch):
    n = 10**4
    redex = App("app", (App("lam", (Abstraction(b, AtomTerm(b)),)), AtomTerm(c)))
    s, normal = spine(n, redex, "lam"), spine_text(n, "c", "lam")
    beta_var = next(rule for rule in BETAETA.rules if rule.name == "beta_var")
    # A closed step fires at the cursor's own place: no descent from the
    # root, and a path read off its frames only for the step built.
    calls = []
    for name in ("_decompositions", "_path"):
        real = getattr(rewrite_module, name)
        monkeypatch.setattr(rewrite_module, name, lambda *args, name=name, real=real: calls.append(name) or real(*args))
    [step] = closed_rewrite_step(EMPTY_CTX, s, beta_var)
    assert step.path == spine_path(n) and pretty(step.result) == normal
    assert step.result == spine(n, AtomTerm(c), "lam") and step.variant is s
    assert [pretty(t) for t in closed_reachable(EMPTY_CTX, s, BETAETA, 2)] == [pretty(s), normal]
    assert calls == ["_path", "_path"]


def test_general_steps_at_depth():
    # f(...f(c)) 10^3 deep, no binders: general steps under binders try every
    # renaming of them, which is exponential in the depth.
    n = 10**3
    t = AtomTerm(c)
    for _ in range(n):
        t = App("f", (t,))
    wrapped = "f(" * (n + 1) + "c" + ")" * (n + 1)
    # A universe of the rule's atom alone gives one instance per position.
    steps = rewrite_step_general(EMPTY_CTX, t, REMARK43.rules[0], max_support=1)
    assert steps.truncated and [step.path for step in steps] == [_path(frames) for frames, _ in _places(t)]
    assert all(step.perm.is_identity and pretty(step.result) == wrapped for step in steps)
    res = normalize_general(EMPTY_CTX, t, REMARK43, fuel=3)
    assert res.status == "fuel_exhausted" and [step.path for step in res.trace] == [()] * 3
    assert pretty(res.term) == "f(" * (n + 3) + "c" + ")" * (n + 3)


def test_fresh_renaming_at_depth():
    n = 10**3
    a0, b0, c0, x0 = Atom("a$0"), Atom("b$0"), Atom("c$0"), Unknown("X$0")
    # b occurs only in the context and a suspension, so the check ends by
    # comparing whole renamed rules.
    rule = RewriteRule("deep", FreshnessContext.of((b, X)), spine(n, Suspension(swap(a, b), X)), var(X))
    assert _fresh_renaming(rule, _rename_rule(rule, {a: a0, b: b0}, {X: x0}), EMPTY_CTX)
    bad = RewriteRule("deep", FreshnessContext.of((b0, x0)), spine(n, Suspension(swap(a0, c0), x0), binder=a0), var(x0))
    assert not _fresh_renaming(rule, bad, EMPTY_CTX)


# -- the command line answers on inputs 10^3, 10^4 and 10^5 deep -------------


@pytest.mark.parametrize("n", DEPTHS[:2])
def test_every_command_at_depth(tmp_path, capsys, n):
    betaeta = str(THEORIES / "betaeta.nrw")
    redex, normal = spine_text(n, "app(lam([b]b), c)", "lam"), spine_text(n, "c", "lam")
    deep_rule = tmp_path / "deep.nrw"
    deep_rule.write_text(f"sig lam:1 app:2 ;\nrule deep : {spine_text(n, 'app(X, b)', 'lam')} -> X ;\n")
    report = tmp_path / "normalize.json"
    assert cli.main(["normalize", betaeta, "--term", redex, "--fuel", "2", "--json"]) == 0
    report.write_text(capsys.readouterr().out)
    runs = [
        (["replay", str(report)], 0, "replayed 1 steps: all valid\n"),
        (["normalize", betaeta, "--term", redex, "--fuel", "2"], 0, f"{normal}\nstatus: normal_form after 1 steps\n"),
        (["equal", betaeta, redex, normal, "--fuel", "2"], 0,
         f"equal\n  {redex} ->* {normal} [normal_form]\n  {normal} ->* {normal} [normal_form]\n"),
        (["step", betaeta, "--term", redex], 0, f"beta_var at {path_str(spine_path(n))} pi=id ->1 {normal}\n"),
        (["check", str(deep_rule)], 1, "deep: not closed\n"),
        (["alpha", redex, normal], 1, "no\n"),
        (["fresh", "c", redex, "--trace"], 1, "no\n"),
        (["match", "", spine_text(n, "app(X, Y)", "lam"), "", redex], 0, "solution {X -> lam([b]b), Y -> c}\n"),
    ]
    for argv, code, out in runs:
        assert (cli.main(argv), capsys.readouterr().out) == (code, out), argv[0]
    if n > 10**3:  # each node of a derivation prints its subterm: quadratic
        return
    # a derivation has a node per subterm of a term with no binder on d
    assert cli.main(["fresh", "d", redex, "--trace"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "yes" and len(lines) == 1 + n + 5


def test_normalize_report_replays_at_depth(tmp_path, capsys):
    n = 10**5
    redex, normal = spine_text(n, "app(lam([b]b), c)", "lam"), spine_text(n, "c", "lam")
    assert cli.main(["normalize", str(THEORIES / "betaeta.nrw"), "--term", redex, "--json"]) == 0
    report = tmp_path / "normalize.json"
    report.write_text(capsys.readouterr().out)
    [step] = json.loads(report.read_text())["trace"]
    assert (step["rule"], step["path"], step["result"]) == ("beta_var", list(spine_path(n)), normal)
    assert cli.main(["replay", str(report)]) == 0
    assert capsys.readouterr().out == "replayed 1 steps: all valid\n"


def test_plain_judgements_at_depth(capsys):
    # Without --trace or --json no derivation is built, whose printed
    # subterms would take time quadratic in the depth.
    n = 10**4
    runs = [
        (["alpha", "[a]" + spine_text(n, "a"), "[b]" + spine_text(n, "b", binder="b")], 0, "yes\n"),
        (["fresh", "d", spine_text(n, "c")], 0, "yes\n"),
        (["match", "", spine_text(n, "X"), "", spine_text(n, "c")], 0, "solution {X -> c}\n"),
    ]
    for argv, code, out in runs:
        assert (cli.main(argv), capsys.readouterr().out) == (code, out), argv[0]


def test_report_500_steps_deep_replays(tmp_path, capsys, monkeypatch):
    # X ->1 f(X) under a#X runs to the default fuel, so the last terms of
    # the report are 500 deep.
    assert cli.main(["normalize", str(THEORIES / "remark43.nrw"), "--term", "X", "--ctx", "a#X", "--json"]) == 3
    text = capsys.readouterr().out
    report = tmp_path / "remark43.json"
    report.write_text(text)
    # Each distinct term text is parsed once, though each step repeats the
    # last one's result as its source and its source as its variant.
    texts = set()
    for step in json.loads(text)["trace"]:
        texts |= {step["source"], step["variant"], step["result"], *step["subst"].values()}
        texts |= {step["freshened"]["lhs"], step["freshened"]["rhs"]}
    calls = []
    monkeypatch.setattr(cli, "parse_term", lambda *args, **kwargs: calls.append(1) or parse_term(*args, **kwargs))
    assert cli.main(["replay", str(report)]) == 0
    assert capsys.readouterr().out == "replayed 500 steps: all valid\n"
    assert 0 < len(calls) <= len(texts) < 3000


class _Indents:
    """A stdout that keeps only the indentation of each line printed."""

    def __init__(self):
        self.indents = []

    def write(self, text):
        if text != "\n":
            self.indents.append(len(text) - len(text.lstrip(" ")))


def test_derivation_report_at_depth(monkeypatch):
    n = 10**4
    t = spine(n, AtomTerm(c))
    # Each judgement prints its terms in full, which is quadratic in n; the
    # report's shape is what is checked here.
    monkeypatch.setattr(cli, "pretty", lambda u: type(u).__name__)
    monkeypatch.setattr(cli, "pretty_ctx", lambda ctx: "")
    info = cli._deriv_json(check_alpha(EMPTY_CTX, t, t))
    rules, node = [], info
    while node["children"]:
        rules.append(node["rule"])
        [node] = node["children"]
    assert rules + [node["rule"]] == ["~f", "~[a]"] * (n // 2) + ["~a"]
    assert info["judgement"] == " |- App =a= App" and node["judgement"] == " |- AtomTerm =a= AtomTerm"
    out = _Indents()
    monkeypatch.setattr("sys.stdout", out)
    cli._print_deriv(info)
    assert out.indents == [2 * i for i in range(n + 1)]


# -- every rerouted walker agrees with its recursive reference ---------------


def _shares_unchanged(got, source):
    """A subterm of got equal to source's subterm at the same position is
    source's own object: a rebuild hands back what it does not change."""
    for path, u in ref.positions(source):
        v = ref.subterm_at(got, path)
        assert v is u or v != u
    return got


@settings(max_examples=150, deadline=None)
@given(terms_st, perms_st, substs_st)
def test_actions_match_reference(t, pi, sigma):
    assert _shares_unchanged(act(pi, t), t) == ref.act(pi, t)
    assert _shares_unchanged(substitute(t, sigma), t) == ref.substitute(t, sigma)
    for amap in ({a: Atom("a$0"), b: c, c: b}, {a: Atom("a$0")}):
        umap = {X: Unknown("Z$1")}
        assert _shares_unchanged(_rename_term(t, amap, umap), t) == ref.rename_term(t, amap, umap)


def test_rebuilds_that_change_nothing_return_their_input():
    t = App("g", (Abstraction(c, App("u", (AtomTerm(c),))), App("g", (Suspension(swap(a, b), X), AtomTerm(d)))))
    ground = t.args[0]
    assert act(swap(a, b), ground) is ground and act(swap(a, e), t).args[0] is ground
    assert substitute(t, Substitution({Y: AtomTerm(a)})) is t
    assert _rename_term(t, {e: Atom("e$0")}, {Y: Unknown("Y$0")}) is t
    assert scrub(EMPTY_CTX, t, ATOMS) is t


def test_act_calls_the_permutation_for_no_node(monkeypatch):
    # act reads atoms straight off the permutation's mapping in the rebuild
    # loop, so it makes no Python call per atom leaf or binder.
    calls = 0
    call = Permutation.__call__

    def counted(self, atom):
        nonlocal calls
        calls += 1
        return call(self, atom)

    monkeypatch.setattr(Permutation, "__call__", counted)
    t = App("g", tuple(Abstraction(a, App("h", (AtomTerm(b),))) for _ in range(333)))
    assert term_size(t) == 1000
    got = act(swap(a, b), t)
    assert calls == 0
    assert got == App("g", tuple(Abstraction(b, App("h", (AtomTerm(a),))) for _ in range(333)))


def test_scrub_rename_keeps_inner_binders_it_renames_back():
    # renaming [a$0] to [b] carries (b a$0) into the body, where the inner
    # [b] reads as [a$0] and is renamed back to [b], undoing the swap
    inner = Abstraction(b, AtomTerm(b))
    out = scrub(EMPTY_CTX, App("u", (Abstraction(Atom("a$0"), inner),)), [b, c])
    assert out == App("u", (Abstraction(b, inner),)) and out.args[0].body is inner


@settings(max_examples=150, deadline=None)
@given(terms_st)
def test_shape_walkers_match_reference(t):
    assert list(subterms(t)) == list(ref.subterms(t))
    assert term_size(t) == len(list(ref.subterms(t)))
    assert term_depth(t) == ref.term_depth(t)
    assert pretty(t) == ref.pretty(t)
    for innermost in (False, True):
        places = list(_places(t, innermost))
        assert [(_path(frames), u) for frames, u in places] == ref.positions(t, innermost)
        # each place's frames are those the descent along its path builds
        assert all(next(_decompositions(EMPTY_CTX, t, _path(frames), []))[1] == frames for frames, _ in places)


@settings(max_examples=150, deadline=None)
@given(contexts_st, terms_st)
def test_freshness_matches_reference(ctx, t):
    for atom in ATOMS:
        assert fresh_holds(ctx, atom, t) == ref.fresh_holds(ctx, atom, t)
        assert check_fresh(ctx, atom, t) == ref.check_fresh(ctx, atom, t)


@settings(max_examples=150, deadline=None)
@given(contexts_st, terms_st, st.sampled_from(ATOMS))
def test_scrub_matches_reference(ctx, t, machine):
    # renaming one atom to a machine name gives scrub binders to rename
    t = _rename_term(t, {machine: Atom(machine.name + "$0")}, {})
    pool = [z for z in ATOMS if z != machine]
    assert _shares_unchanged(scrub(ctx, t, pool), t) == ref.scrub(ctx, t, pool)


def test_scrub_matches_reference_on_nested_machine_binders():
    # Machine atoms bind inside binders of the same atom and inside each
    # other, so scrub's renaming and its reading of which binder an atom
    # leaf or a suspension refers to are tested where scopes nest and end.
    rng = random.Random(5)
    atoms = [*ATOMS[:3], Atom("a$0"), Atom("b$0"), Atom("c$1")]
    for _ in range(3000):
        t, ctx = random_term(rng, 7, atoms), random_ctx(rng, atoms)
        pool = rng.sample(atoms, rng.randint(1, 4))
        assert scrub(ctx, t, pool) == ref.scrub(ctx, t, pool)


def _reference_decompositions(ctx, t, path, universe):
    """The recursive definition, with rebuild closures in place of frames."""
    if not path:
        yield t, lambda u: u
        return
    if path[0] == "body":
        at, body = t.atom, t.body
        for z in [at] + [z for z in universe if z != at and ref.fresh_holds(ctx, z, body)]:
            inner = body if z == at else ref.act(swap(z, at), body)
            for hole, rebuild in _reference_decompositions(ctx, inner, path[1:], universe):
                yield hole, (lambda u, z=z, rb=rebuild: Abstraction(z, rb(u)))
    else:
        i = path[0]
        for hole, rebuild in _reference_decompositions(ctx, t.args[i], path[1:], universe):
            yield hole, (lambda u, t=t, i=i, rb=rebuild: App(t.former, t.args[:i] + (rb(u),) + t.args[i + 1 :]))


@settings(max_examples=100, deadline=None)
@given(contexts_st, terms_st)
def test_decompositions_match_reference(ctx, t):
    # A decomposition renames some binder exactly when its frames, plugged,
    # differ from t with the same term put at the path.
    for path, _ in ref.positions(t):
        got = [
            (hole, _plug(frames, hole), _plug(frames, AtomTerm(e)), renamed)
            for hole, frames, renamed in _decompositions(ctx, t, path, ATOMS)
        ]
        want = [
            (hole, rb(hole), rb(AtomTerm(e)), rb(AtomTerm(e)) != ref.replace_at(t, path, AtomTerm(e)))
            for hole, rb in _reference_decompositions(ctx, t, path, ATOMS)
        ]
        assert got == want
