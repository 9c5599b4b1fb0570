import dataclasses
import random
from collections import Counter
from functools import partial
from importlib import resources
from unittest import mock

import hypothesis.strategies as hst
import pytest
from hypothesis import given, settings

import nomrew.cli as cli_module
import nomrew.closed as closed_module
import nomrew.rewrite as rewrite_module
import reference_walkers as ref
from nomrew import (
    Abstraction,
    App,
    Atom,
    AtomTerm,
    EMPTY_CTX,
    FreshnessContext,
    ID,
    MatchProblem,
    MatchProblemError,
    RewriteRule,
    RuleError,
    Signature,
    Substitution,
    Suspension,
    Theory,
    Unknown,
    act,
    alpha_holds,
    alpha_key,
    atoms_of,
    closed_normalize,
    closed_reachable,
    closed_rewrite_step,
    normalize_general,
    replay_step,
    rewrite_closure_reachable,
    rewrite_step_general,
    solve_match,
    substitute,
    subterms,
    swap,
    symmetric_search,
    term_size,
    unknowns_of,
    var,
)
from nomrew.rewrite import (
    MAX_SUPPORT, PreparedRule, Subject, _build, _candidate_perms, _candidates, _decompositions, _fresh_maps,
    _fresh_renaming, _invertible, _path, _places, _plug, _prepare_general, _rename_rule, _rename_term,
    _kept_counts_differ, _kind_counts, _renaming, _spans, _spliced_key, _Tree, _universe, normalize, reachable,
    rewrite_steps,
)
from nomrew.syntax import parse_term, parse_theory
from nomrew.terms import MACHINE_MARK
from oracles import check_equivariance_sample
from strategies import (
    FORMERS, contexts_st, perms_st, random_ctx, random_perm, random_term, sig_terms_st, substs_st, terms_st,
)

a, b, c = Atom("a"), Atom("b"), Atom("c")
X, Xp, Y = Unknown("X"), Unknown("Xp"), Unknown("Y")


def lam(atom, body):
    return App("lam", (Abstraction(atom, body),))


def app(f, x):
    return App("app", (f, x))


SIG = Signature.of({"lam": 1, "app": 2, "f": 1})

BETA_VAR = RewriteRule("beta_var", EMPTY_CTX, app(lam(a, AtomTerm(a)), var(X)), var(X))
ETA = RewriteRule("eta", FreshnessContext.of((a, X)), lam(a, app(var(X), AtomTerm(a))), var(X))
STRIP = RewriteRule("strip", EMPTY_CTX, Abstraction(a, var(X)), var(X))
ATOM_AB = RewriteRule("atom_ab", EMPTY_CTX, AtomTerm(a), AtomTerm(b))
EXPAND = RewriteRule("expand", FreshnessContext.of((a, X)), var(X), App("f", (var(X),)))

BETA_APP = RewriteRule(
    "beta_app",
    EMPTY_CTX,
    app(lam(a, app(var(X), var(Xp))), var(Y)),
    app(app(lam(a, var(X)), var(Y)), app(lam(a, var(Xp)), var(Y))),
)
BETAETA = Theory(SIG, (BETA_APP, BETA_VAR,
                       RewriteRule("beta_eps", FreshnessContext.of((a, Y)), app(lam(a, var(Y)), var(X)), var(Y)),
                       RewriteRule("beta_fn", FreshnessContext.of((b, Y)),
                                   app(lam(a, lam(b, var(X))), var(Y)),
                                   lam(b, app(lam(a, var(X)), var(Y)))),
                       ETA))


def positions(t, innermost=False):
    """The cursor's places, each with its path read off its frames."""
    return [(_path(frames), u) for frames, u in _places(t, innermost)]


def test_positions_atom():
    assert positions(AtomTerm(a)) == [((), AtomTerm(a))]


def test_positions_abstraction():
    t = Abstraction(a, AtomTerm(b))
    assert positions(t) == [((), t), (("body",), AtomTerm(b))]


def test_positions_leftmost_outermost():
    t = App("app", (AtomTerm(a), App("f", (AtomTerm(b),))))
    paths = [p for p, _ in positions(t)]
    assert paths == [(), (0,), (1,), (1, 0)]


def test_subterm_and_replace_roundtrip():
    t = app(lam(a, AtomTerm(a)), AtomTerm(b))
    for frames, sub in _places(t):
        path = _path(frames)
        assert ref.subterm_at(t, path) == sub
        assert ref.replace_at(t, path, sub) == t == _plug(frames, sub)


def test_positions_leftmost_innermost():
    t = App("app", (AtomTerm(a), App("f", (AtomTerm(b),))))
    assert [p for p, _ in positions(t, innermost=True)] == [(0,), (1, 0), (1,), ()]


@pytest.mark.parametrize("path", [(-1,), (2,), (True,), ("body",), (0, "body"), (0, 0, 0)])
def test_a_position_that_does_not_exist_raises(path):
    t = app(lam(a, AtomTerm(a)), AtomTerm(b))  # app(lam([a]a), b)
    with pytest.raises(IndexError):
        next(_decompositions(EMPTY_CTX, t, path, []))


def test_rule_validation():
    with pytest.raises(RuleError):
        RewriteRule("bad", EMPTY_CTX, var(X), var(Y)).validate()
    with pytest.raises(RuleError):
        RewriteRule("bad", FreshnessContext.of((a, Y)), var(X), var(X)).validate()
    with pytest.raises(RuleError):
        RewriteRule("bad", EMPTY_CTX, var(X), App("f", (var(X),))).validate()
    EXPAND.validate()  # constrained variable lhs is allowed


def test_step_beta_var():
    s = app(lam(a, AtomTerm(a)), AtomTerm(b))
    steps = rewrite_step_general(EMPTY_CTX, s, BETA_VAR)
    assert any(st.result == AtomTerm(b) for st in steps)


def test_step_strip_finds_permuted_result():
    # [b][a]a reaches [a]b at the body position of its variant [a][b]b,
    # with a non-identity permutation.
    s = Abstraction(b, Abstraction(a, AtomTerm(a)))
    want = Abstraction(a, AtomTerm(b))
    steps = rewrite_step_general(EMPTY_CTX, s, STRIP)
    hits = [st for st in steps if alpha_holds(EMPTY_CTX, st.result, want)]
    assert hits
    st = hits[0]
    assert not st.perm.is_identity
    assert st.subst.image(next(iter(st.subst))) == AtomTerm(a)
    assert alpha_holds(EMPTY_CTX, st.variant, s)


def test_step_atom_rule_moves_to_fresh_atom():
    steps = rewrite_step_general(EMPTY_CTX, AtomTerm(c), ATOM_AB)
    results = {st.result for st in steps}
    assert any(isinstance(t, AtomTerm) and t.atom.is_machine for t in results)
    assert not steps.truncated


def test_step_expand_needs_context():
    assert list(rewrite_step_general(EMPTY_CTX, var(X), EXPAND)) == []
    ctx = FreshnessContext.of((b, X))
    steps = rewrite_step_general(ctx, var(X), EXPAND)
    assert any(alpha_holds(ctx, st.result, App("f", (var(X),))) for st in steps)


def test_steps_replay():
    rng = random.Random(3)
    for s in (
        app(lam(a, AtomTerm(a)), AtomTerm(b)),
        Abstraction(b, Abstraction(a, AtomTerm(a))),
        AtomTerm(c),
        random_term(rng, depth=3, unknowns=[]),
    ):
        for rule in (BETA_VAR, STRIP, ATOM_AB):
            for st in rewrite_step_general(EMPTY_CTX, s, rule):
                assert replay_step(EMPTY_CTX, st, rule)


def test_truncation_flag():
    t = App("app", (AtomTerm(c), AtomTerm(Atom("d"))))
    steps = rewrite_step_general(EMPTY_CTX, t, ATOM_AB, max_support=2)
    assert steps.truncated


def test_closure_contains_alpha_variants():
    s = Abstraction(a, AtomTerm(a))
    reach = rewrite_closure_reachable(EMPTY_CTX, s, Theory(SIG, (BETA_VAR,)), fuel=1)
    assert Abstraction(b, AtomTerm(b)) in reach


def test_closure_of_strip_reaches_permuted_form():
    s = Abstraction(b, Abstraction(a, AtomTerm(a)))
    reach = rewrite_closure_reachable(EMPTY_CTX, s, Theory(SIG, (STRIP,)), fuel=1)
    assert Abstraction(a, AtomTerm(b)) in reach


def test_normalize_beta_eta():
    s = app(lam(a, app(AtomTerm(a), AtomTerm(a))), AtomTerm(b))
    res = normalize_general(EMPTY_CTX, s, BETAETA, fuel=50)
    assert res.status == "normal_form"
    assert alpha_holds(EMPTY_CTX, res.term, app(AtomTerm(b), AtomTerm(b)))


def test_normalize_normal_form_is_noop():
    res = normalize_general(EMPTY_CTX, AtomTerm(b), BETAETA, fuel=5)
    assert res.term == AtomTerm(b) and res.trace == [] and res.status == "normal_form"


def test_normalize_eta_under_context():
    ctx = FreshnessContext.of((a, X))
    res = normalize_general(ctx, lam(a, app(var(X), AtomTerm(a))), Theory(SIG, (ETA,)), fuel=10)
    assert res.status == "normal_form"
    assert alpha_holds(ctx, res.term, var(X))


def test_normalize_fuel_exhaustion():
    loop = RewriteRule("loop", EMPTY_CTX, App("f", (var(X),)), App("f", (var(X),)))
    res = normalize_general(EMPTY_CTX, App("f", (AtomTerm(a),)), Theory(SIG, (loop,)), fuel=3)
    assert res.status == "fuel_exhausted" and len(res.trace) == 3


def test_normalize_strategies_differ_on_first_step():
    s = app(lam(a, AtomTerm(a)), app(lam(a, AtomTerm(a)), AtomTerm(b)))
    outer = normalize_general(EMPTY_CTX, s, Theory(SIG, (BETA_VAR,)), strategy="outermost", fuel=10)
    inner = normalize_general(EMPTY_CTX, s, Theory(SIG, (BETA_VAR,)), strategy="innermost", fuel=10)
    assert outer.trace[0].path == ()
    assert inner.trace[0].path != ()
    assert alpha_holds(EMPTY_CTX, outer.term, AtomTerm(b))
    assert alpha_holds(EMPTY_CTX, inner.term, AtomTerm(b))


def test_symmetric_search_remark():
    th = Theory(Signature.of({"f": 1}), (EXPAND,))
    hit = symmetric_search(EMPTY_CTX, var(X), App("f", (var(X),)), th, fuel=100, gamma_budget=1)
    assert hit.found and len(hit.gamma) == 1
    for st in hit.trace:
        rule = next(r for r in list(th.rules) + [RewriteRule("expand~", EXPAND.ctx, EXPAND.rhs, EXPAND.lhs)] if r.name == st.rule)
        assert replay_step(hit.ctx, st, rule)
    miss = symmetric_search(EMPTY_CTX, var(X), App("f", (var(X),)), th, fuel=100, gamma_budget=0)
    assert not miss.found


def test_symmetric_search_reflexive_ground():
    th = Theory(SIG, (BETA_VAR,))
    s = Abstraction(a, AtomTerm(a))
    res = symmetric_search(EMPTY_CTX, s, Abstraction(b, AtomTerm(b)), th, fuel=10)
    assert res.found and res.trace == []


def test_symmetric_search_uses_reversed_rules():
    th = Theory(SIG, (BETA_VAR,))
    # b = app(lam([a]a), b) needs the reversed (expansion) direction.
    res = symmetric_search(EMPTY_CTX, AtomTerm(b), app(lam(a, AtomTerm(a)), AtomTerm(b)), th, fuel=50)
    assert res.found


def test_symmetric_search_refuses_a_negative_gamma_budget():
    th = Theory(SIG, (BETA_VAR,))
    for s in (var(X), AtomTerm(b)):  # the budget names gamma atoms only when there are unknowns
        with pytest.raises(ValueError):
            symmetric_search(EMPTY_CTX, s, AtomTerm(b), th, fuel=5, gamma_budget=-1)
        with pytest.raises(ValueError):
            symmetric_search(EMPTY_CTX, s, AtomTerm(b), th, fuel=-1)
    assert symmetric_search(EMPTY_CTX, var(X), var(X), th, gamma_budget=0).gamma == EMPTY_CTX
    # fuel 0 expands nothing, so it finds s's own class and no step
    s = app(lam(a, AtomTerm(a)), AtomTerm(b))
    assert symmetric_search(EMPTY_CTX, s, app(lam(c, AtomTerm(c)), AtomTerm(b)), th, fuel=0).trace == []
    assert not symmetric_search(EMPTY_CTX, s, AtomTerm(b), th, fuel=0).found
    assert len(symmetric_search(EMPTY_CTX, s, AtomTerm(b), th, fuel=1).trace) == 1


def test_equivariance_samples():
    s = app(lam(a, AtomTerm(a)), AtomTerm(b))
    steps = rewrite_step_general(EMPTY_CTX, s, BETA_VAR)
    t = next(st.result for st in steps if st.result == AtomTerm(b))
    assert check_equivariance_sample(EMPTY_CTX, s, t, BETA_VAR, swap(a, c))
    assert check_equivariance_sample(EMPTY_CTX, s, t, BETA_VAR, ID)
    assert check_equivariance_sample(EMPTY_CTX, AtomTerm(a), AtomTerm(b), ATOM_AB, swap(a, c))


def test_equivariance_on_random_steps():
    rng = random.Random(17)
    checked = 0
    for _ in range(60):
        s = random_term(rng, depth=3, unknowns=[])
        for rule in (BETA_VAR, ATOM_AB, STRIP):
            steps = rewrite_step_general(EMPTY_CTX, s, rule)
            if not steps:
                continue
            st = rng.choice(list(steps))
            pi = random_perm(rng)
            assert check_equivariance_sample(EMPTY_CTX, s, st.result, rule, pi)
            checked += 1
    assert checked > 20


# the shape test -----------------------------------------------------------------

BUNDLED = [
    parse_theory((resources.files("nomrew") / "theories" / f"{name}.nrw").read_text())
    for name in ("betaeta", "fol", "nonclosed", "remark43")
]


def _apart(t):
    """t with its unknowns renamed to machine names, which no other term here uses."""
    return _rename_term(t, {}, {x: Unknown(x.name + MACHINE_MARK) for x in unknowns_of(t)})


def _matches_under_some_perm(pattern, ctx, hole) -> bool:
    """Brute force over every candidate permutation of the general engine's universe."""
    rule_atoms = sorted(atoms_of(pattern))
    universe, _ = _universe(set(rule_atoms), atoms_of(ctx, hole), MAX_SUPPORT)
    return any(
        solve_match(MatchProblem(EMPTY_CTX, act(pi, pattern), ctx, hole)) is not None
        for pi in _candidate_perms(rule_atoms, universe)
    )


def _fits(pattern, hole) -> bool:
    """The shape test as the core runs it: a lookup in the one-rule tree of
    a rule with lhs pattern."""
    return bool(_Tree((RewriteRule("r", EMPTY_CTX, pattern, pattern),)).fits(hole))


@settings(max_examples=200, deadline=None)
@given(terms_st, contexts_st, terms_st)
def test_shape_test_rejects_only_unmatchable_holes(pattern, ctx, hole):
    pattern = _apart(pattern)
    if not _fits(pattern, hole):
        assert not _matches_under_some_perm(pattern, ctx, hole)


@settings(max_examples=200, deadline=None)
@given(terms_st, perms_st, substs_st)
def test_shape_test_passes_every_instance(pattern, pi, sigma):
    assert _fits(pattern, act(pi, substitute(pattern, sigma)))


def test_shape_test_on_bundled_rules():
    holes = {u for th in BUNDLED for rule in th.rules for side in (rule.lhs, rule.rhs) for u in subterms(side)}
    rejected = passed = 0
    for th in BUNDLED:
        for rule in th.rules:
            pattern = _apart(rule.lhs)
            for hole in holes:
                if _fits(pattern, hole):
                    passed += 1
                else:
                    rejected += 1
                    assert not _matches_under_some_perm(pattern, EMPTY_CTX, hole), (rule.name, hole)
    assert rejected > 500 and passed > 50


# remark43's suspension lhs first, then rules with an abstraction and an
# atom lhs: the tree must list the suspension lhs for every hole.
_MIXED = Theory(BUNDLED[3].signature, BUNDLED[3].rules + BUNDLED[2].rules, name="mixed")
_theory_terms = hst.sampled_from([*BUNDLED, _MIXED]).flatmap(lambda th: hst.tuples(hst.just(th), sig_terms_st(th)))


def _engine_runs(ctx, theory, s):
    out = []
    for strategy in ("outermost", "innermost"):
        out.append(normalize_general(ctx, s, theory, strategy, fuel=4))
        out.append(closed_normalize(ctx, s, theory, 4, strategy))
    for rule in theory.rules:
        out.append(list(rewrite_step_general(ctx, s, rule)))
        out.append(list(closed_rewrite_step(ctx, s, rule)))
    return out


@settings(max_examples=60, deadline=None)
@given(_theory_terms, contexts_st)
def test_shape_test_changes_no_trace(theory_term, ctx):
    # With the tree's lookup answering every rule at every hole, in theory
    # order, every rule is tried at every hole.
    theory, s = theory_term
    filtered = _engine_runs(ctx, theory, s)
    with mock.patch.object(_Tree, "fits", _every_rule):
        assert _engine_runs(ctx, theory, s) == filtered


def _every_rule(tree, hole):
    """A tree lookup with no shape test: every rule, in theory order."""
    return list(range(len(tree.rules)))


def _never(theory, s, t):
    """The count check patched off, so that every search runs: a test that
    compares two search configurations then compares searches, not two
    answers given at once."""
    return False


def _prepare_afresh(kept, prepare, subject, rules, i):
    """The core's kept preparation with nothing kept: the rule prepared anew
    at every hole that asks for it."""
    return prepare(subject, rules[i])


def _kept_runs(ctx, theory, s, t):
    out = []
    for strategy in ("outermost", "innermost"):
        out.append(normalize_general(ctx, s, theory, strategy, fuel=6))
        out.append(closed_normalize(ctx, s, theory, 6, strategy))
    out.append(list(rewrite_closure_reachable(ctx, s, theory, fuel=2)))
    out.append(list(closed_reachable(ctx, s, theory, 2)))
    # A target a step or two away, so that the search finds something, and
    # one drawn, which it mostly does not.
    for target in (out[0].term, t):
        res = symmetric_search(ctx, s, target, theory, fuel=2)
        out.append((res.found, res.trace, res.ctx))
    return out


@settings(max_examples=40, deadline=None)
@given(_theory_terms.flatmap(lambda ts: hst.tuples(hst.just(ts), sig_terms_st(ts[0]))), contexts_st)
def test_kept_preparations_step_as_preparing_afresh_does(case, ctx):
    (theory, s), t = case
    # With the tree's lookup answering every rule at every hole, normalize
    # and the searches try every rule at every hole and prepare afresh at
    # each one: the searches prepare through `_prepared` too.
    with mock.patch.object(rewrite_module, "_kept_counts_differ", _never):
        got = _kept_runs(ctx, theory, s, t)
        with mock.patch.object(rewrite_module, "_prepared", _prepare_afresh), \
                mock.patch.object(_Tree, "fits", _every_rule):
            assert got == _kept_runs(ctx, theory, s, t)


def test_normalize_prepares_each_rule_once_per_names(monkeypatch):
    # Every subject of these normalizations has the atoms {a} and the
    # unknowns {P, Q}, or a subset.  A rule is prepared at most once for each
    # pair met, not once per step, and only for the pairs of the subjects
    # where some hole the search visits fits its lhs.
    fol = next(theory for theory in BUNDLED if theory.name == "fol")
    s = parse_term("not(not(imp(forall([a]and(P,Q)),exists([a]or(P,not(not(Q)))))))", fol.signature)
    fitted, searched = set(), []
    real_first_step, real_fits = rewrite_module._first_step, _Tree.fits

    def first_step(term, *args):
        searched.append(Subject(EMPTY_CTX, term))
        return real_first_step(term, *args)

    def fits(tree, hole):
        found = real_fits(tree, hole)
        for i in found:
            fitted.add((tree.rules[i].name, searched[-1].atoms, searched[-1].unknowns))
        return found

    monkeypatch.setattr(rewrite_module, "_first_step", first_step)
    monkeypatch.setattr(_Tree, "fits", fits)
    for module, name, run in [
        (closed_module, "_prepare_closed", lambda: closed_normalize(EMPTY_CTX, s, fol)),
        (rewrite_module, "_prepare_general", lambda: normalize_general(EMPTY_CTX, s, fol)),
    ]:
        calls, real = Counter(), getattr(module, name)
        fitted.clear()

        def counted(subject, rule, *args, **kwargs):
            calls[rule.name, subject.atoms, subject.unknowns] += 1
            return real(subject, rule, *args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        res = run()
        assert res.status == "normal_form" and len(res.trace) == 5
        assert set(calls.values()) == {1} and set(calls) == fitted
        assert len({rule for rule, _, _ in calls}) == 5 < len(fol.rules)


def test_normalize_walks_no_names_of_a_term_no_lhs_fits(monkeypatch):
    # Every fol lhs is rooted at imp, not, forall or exists, so no hole of
    # this term fits one: nothing is prepared and the term is never walked
    # for its atoms or unknowns.
    fol = next(theory for theory in BUNDLED if theory.name == "fol")
    s = parse_term("and(or(P,a),and(b,or(Q,P)))", fol.signature)
    walks = Counter()
    for name in ("atoms_of", "unknowns_of", "_names_of"):
        real = getattr(rewrite_module, name)
        monkeypatch.setattr(rewrite_module, name, lambda *parts, real=real, name=name: walks.update([name]) or real(*parts))
    res = closed_normalize(FreshnessContext.of((a, Unknown("P"))), s, fol)
    assert res.term == s and res.status == "normal_form" and not res.trace
    assert walks == Counter()
    # A subject's names are collected in one walk, whichever sort is read
    # first, and kept.
    subject = Subject(FreshnessContext.of((a, Unknown("P"))), s)
    assert subject.unknowns == {Unknown("P"), Unknown("Q")} and subject.atoms == {a, b}
    assert (subject.atoms, subject.unknowns) == (atoms_of(subject.ctx, s), unknowns_of(subject.ctx, s))
    assert walks == Counter(["_names_of"])


def test_no_step_search_prepares_a_rule_whose_lhs_fits_no_hole(monkeypatch):
    # Every betaeta lhs is rooted at lam or has a lam under its root app, so
    # no hole of this term fits one.  Of the reversals only beta_var~ and
    # eta~ fit it, their lhs being a bare unknown, so a search expanding the
    # term alone prepares those two and no other rule.
    betaeta = next(theory for theory in BUNDLED if theory.name == "betaeta")
    s = parse_term("app(app(a,b),app(c,app(d,app(e,f))))", betaeta.signature)
    prepared = Counter()
    for module, name in [(rewrite_module, "_prepare_general"), (closed_module, "_prepare_closed")]:
        def counted(subject, rule, *args, real=getattr(module, name), **kwargs):
            prepared[rule.name] += 1
            return real(subject, rule, *args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    for rule in betaeta.rules:
        assert not rewrite_step_general(EMPTY_CTX, s, rule) and not closed_rewrite_step(EMPTY_CTX, s, rule)
    assert list(rewrite_closure_reachable(EMPTY_CTX, s, betaeta, fuel=3)) == [s]
    assert list(closed_reachable(EMPTY_CTX, s, betaeta, 3)) == [s]
    assert prepared == Counter()
    res = symmetric_search(EMPTY_CTX, s, parse_term("app(a,b)", betaeta.signature), betaeta, fuel=1)
    assert not res.found and prepared == Counter(["beta_var~", "eta~"])


def test_general_preparation_refuses_shared_unknowns(monkeypatch):
    # Every hole is a subterm of the subject, so a rule not renamed apart
    # from the subject must be refused once, up front, not matched.
    monkeypatch.setattr(rewrite_module, "_freshen_rule_unknowns", lambda rule, away_from: rule)
    s = app(lam(a, AtomTerm(a)), var(X))
    with pytest.raises(MatchProblemError):
        rewrite_step_general(EMPTY_CTX, s, BETA_VAR)
    with pytest.raises(MatchProblemError):
        normalize_general(EMPTY_CTX, s, BETAETA)


# reachability and search against scans of the reference check_alpha --------------


class _ScanSet:
    """The reference for ReachableSet: a list of representatives and
    membership by a scan of the rule-by-rule check_alpha."""

    def __init__(self, ctx):
        self.ctx, self.reps = ctx, []

    def __contains__(self, t):
        return any(ref.check_alpha(self.ctx, rep, t) is not None for rep in self.reps)

    def add(self, t):
        if t in self:
            return False
        self.reps.append(t)
        return True

    def __iter__(self):
        return iter(self.reps)

    def __len__(self):
        return len(self.reps)


def _scan_reachable(ctx, s, theory, fuel, step):
    """reachable's reference: breadth-first by levels, every step built by
    `step(ctx, u, rule)` (rewrite_step_general or closed_rewrite_step), and
    membership by a scan of the rule-by-rule check_alpha."""
    reached = _ScanSet(ctx)
    reached.add(s)
    frontier = [s]
    for _ in range(fuel):
        frontier = [st.result for u in frontier for rule in theory.rules for st in step(ctx, u, rule)
                    if reached.add(st.result)]
    return reached


def _joinable(ctx, s, t, theory, fuel, reach=closed_reachable):
    """Is there a term both sides closed-rewrite to within the fuel?"""
    from_t = reach(ctx, t, theory, fuel)
    return any(u in from_t for u in reach(ctx, s, theory, fuel))


def _every_reversal(theory):
    """Every executable reversal, none left out."""
    return tuple(RewriteRule(r.name + "~", r.ctx, r.rhs, r.lhs) for r in theory.rules if _invertible(r))


def _scan_search(ctx, s, t, theory, fuel, max_support=MAX_SUPPORT):
    """symmetric_search's breadth-first loop with the target test and the
    visited set done by scans of the rule-by-rule check_alpha, firing every
    reversal; ctx is the extended context."""
    same = lambda u, v: ref.check_alpha(ctx, u, v) is not None
    rules = [*theory.rules, *_every_reversal(theory)]
    if same(s, t):
        return True, []
    reached = _ScanSet(ctx)
    reached.add(s)
    frontier, expansions = [(s, [])], 0
    while frontier and expansions < fuel:
        nxt = []
        for u, trace in frontier:
            if expansions >= fuel:
                break
            expansions += 1
            for rule in rules:
                for step in rewrite_step_general(ctx, u, rule, max_support):
                    if same(step.result, t):
                        return True, trace + [step]
                    if reached.add(step.result):
                        nxt.append((step.result, trace + [step]))
        frontier = nxt
    return False, None


def _seeded_cases(seed, count, theories=BUNDLED):
    """(theory, ctx, s, t) over the theories, the bundled ones by default: t
    is one step from s, an alpha-variant of such a step, or an unrelated
    term."""
    rng = random.Random(seed)
    for _ in range(count):
        theory = rng.choice(theories)
        formers = list(theory.signature.arities) or FORMERS
        ctx = random_ctx(rng) if rng.random() < 0.5 else EMPTY_CTX
        s = random_term(rng, rng.randint(2, 4), formers=formers)
        if rng.random() < 0.5:  # a rule instance, so that most cases can step
            rule = rng.choice(theory.rules)
            sigma = Substitution({x: random_term(rng, 2, formers=formers) for x in unknowns_of(rule.lhs)})
            s = substitute(rule.lhs, sigma)
        steps = [st for rule in theory.rules for st in rewrite_step_general(ctx, s, rule)]
        if steps and rng.random() < 0.7:
            t = rng.choice(steps).result
        else:
            t = random_term(rng, rng.randint(1, 4), formers=formers)
        yield theory, ctx, s, t


def test_a_step_fired_on_the_subject_as_written_reuses_it():
    counts = Counter()
    for theory, ctx, s, _ in _seeded_cases(67, 40):
        for rule in theory.rules:
            for step in closed_rewrite_step(ctx, s, rule):
                assert step.variant is step.source
            for step in rewrite_step_general(ctx, s, rule):
                # A variant that renames a binder above the hole differs from s.
                assert (step.variant is step.source) == (step.variant == step.source)
                counts[step.variant is step.source] += 1
    assert counts[True] and counts[False]


def test_a_renamed_binder_over_a_body_it_leaves_alone_is_recorded():
    # Renaming [a] to [d] in [a]f(c) hands back the body itself, so the hole
    # is the subject's own subterm although a binder above it was renamed;
    # the step must still record the renamed variant, which replays.  The
    # rule names the free atom c, so it is not closed and its steps are
    # tried on alpha-variants: [a] as written and, the rule having one atom
    # and no binder lying below [a], its first fresh target [d] (the spare
    # [p$0] would reach no new class).
    d = Atom("d")
    rule = RewriteRule("r", EMPTY_CTX, App("f", (AtomTerm(c),)), App("h", (AtomTerm(c),)))
    assert not closed_module.is_closed_rule(rule)
    body = App("f", (AtomTerm(c),))
    s = App("g", (Abstraction(a, body), AtomTerm(d)))
    assert act(swap(d, a), body) is body
    steps = rewrite_step_general(EMPTY_CTX, s, rule)
    assert sorted(st.variant.args[0].atom.name for st in steps) == ["a", "d"]
    for st in steps:
        assert st.variant.args[0].atom == st.result.args[0].atom
        assert (st.variant is s) == (st.variant.args[0].atom == a)
        assert replay_step(EMPTY_CTX, st, rule)


def test_a_closed_rule_under_many_binders_lists_the_subject_as_written():
    # Renaming each binder above the redex into the universe listed 3,750
    # steps under 4 distinct binders and 380,778 under 6, and trying every
    # candidate image of its bound atom listed 6 alpha-equal steps.
    # beta_var is closed, so only the subject as written is tried, and only
    # up to its first instance: one step, under 100 binders as under none.
    s = app(lam(a, AtomTerm(a)), AtomTerm(c))
    for i in range(100):
        s = lam(Atom(f"x{i % 4}"), s)
    assert closed_module._is_closed(BETA_VAR)
    steps = rewrite_step_general(EMPTY_CTX, s, BETA_VAR)
    assert len(steps) == 1 and steps.truncated
    assert all(st.variant is s and st.path == (0, "body") * 100 for st in steps)
    assert len({alpha_key(EMPTY_CTX, st.result) for st in steps}) == 1


def test_closed_rules_reach_the_same_classes_with_alpha_variants_tried(monkeypatch):
    # A closed rule is uniform, so its step on an alpha-variant of the
    # subject is alpha-equal to one on the subject as written: trying the
    # variants, as for a rule that is not closed, reaches no other class,
    # and a search finds what it found.
    cases = [case for case in _seeded_cases(73, 200) if case[0].name != "nonclosed"]
    listed = Counter()
    monkeypatch.setattr(rewrite_module, "_kept_counts_differ", _never)

    def run(side):
        listed[side] = sum(len(rewrite_step_general(ctx, s, rule)) for th, ctx, s, _ in cases for rule in th.rules)
        reached = [set(rewrite_closure_reachable(ctx, s, th, fuel=3).reps) for th, ctx, s, _ in cases]
        searched = [symmetric_search(ctx, s, t, th, fuel=3) for th, ctx, s, t in cases]
        return reached, [(res.found, res.trace) for res in searched]

    as_written = run("as written")
    monkeypatch.setattr(closed_module, "_is_closed", lambda rule: False)
    assert run("variants") == as_written
    assert listed["variants"] > listed["as written"] > 0


# Rules that are not closed, with 1 to 3 atoms each, which they introduce
# into a result: one under a binder of its lhs, one under a freshness side
# condition.
ESCAPES = parse_theory(
    """
    theory escapes ;
    sig f:1 g:2 h:1 ;
    rule one   : f(X) -> b ;
    rule two   : f(X) -> g(b, c) ;
    rule three : f(a) -> g(b, c) ;
    rule bound : [a]f(X) -> [a]g(X, b) ;
    rule side  : a#X |- h(X) -> g(X, a) ;
    """
)


def _every_fresh_target(monkeypatch):
    """Rename each binder above a hole to every fresh universe atom, as
    with no cap on the targets tried."""
    every = rewrite_module._decompositions
    monkeypatch.setattr(rewrite_module, "_decompositions", lambda ctx, t, path, universe, width=None: every(
        ctx, t, path, universe))


def _escape_cases(seed, count):
    """(max_support, ctx, s, t) for ESCAPES: s is a stack of up to 3
    binders over a term that often holds a redex, under max_support 5 (often
    truncated) or 8; t is a step or two from s, or an unrelated term."""
    rng = random.Random(seed)
    atoms, formers = [Atom(n) for n in "abcde"], [("f", 1), ("g", 2), ("h", 1)]
    for _ in range(count):
        s = random_term(rng, rng.randint(1, 3), atoms[:4], [X] if rng.random() < 0.3 else [], formers)
        if rng.random() < 0.6:
            s = App(rng.choice("fh"), (s,))
        for _ in range(rng.randint(0, 3)):
            s = Abstraction(rng.choice(atoms), s)
        if rng.random() < 0.3:
            s = App("g", (s, AtomTerm(rng.choice(atoms))))
        ctx = FreshnessContext.of((rng.choice(atoms), X)) if rng.random() < 0.3 else EMPTY_CTX
        max_support = rng.choice((5, 8))
        t = random_term(rng, rng.randint(1, 3), atoms[:4], [], formers)
        for i in range(rng.randint(0, 2)):
            steps = [st for rule in ESCAPES.rules for st in rewrite_step_general(ctx, t if i else s, rule, max_support)]
            if steps:
                t = rng.choice(steps).result
        yield max_support, ctx, s, t


def test_capped_variants_reach_the_classes_every_variant_reaches(monkeypatch):
    # A binder above a hole is renamed only to its first m + j fresh targets,
    # m the rule's atoms and j the binders below it on the path (module
    # docstring).  Renaming it to every fresh target lists more steps but
    # reaches no other class at any position, and the first representative
    # of each class comes from the same candidate, so reachability keeps the
    # same representatives and a search finds the same trace.
    cases = list(_escape_cases(79, 150))
    listed, cut = Counter(), set()
    monkeypatch.setattr(rewrite_module, "_kept_counts_differ", _never)

    def run(side):
        classes = []
        for max_support, ctx, s, _ in cases:
            for rule in ESCAPES.rules:
                steps = rewrite_step_general(ctx, s, rule, max_support)
                listed[side] += len(steps)
                cut.add(steps.truncated)
                at = {}
                for st in steps:
                    at.setdefault(st.path, set()).add(alpha_key(ctx, st.result))
                classes.append(at)
        reached = [list(rewrite_closure_reachable(ctx, s, ESCAPES, 1, ms).reps.items()) for ms, ctx, s, _ in cases]
        searched = [symmetric_search(ctx, s, t, ESCAPES, fuel=2, max_support=ms) for ms, ctx, s, t in cases]
        return classes, reached, [(res.found, res.trace) for res in searched]

    capped = run("capped")
    _every_fresh_target(monkeypatch)
    assert run("every") == capped
    assert listed["every"] > listed["capped"] > 0
    assert cut == {True, False}
    assert sum(found for found, _ in capped[2]) > 20


def test_a_rule_that_is_not_closed_lists_fewer_variants_under_four_binders(monkeypatch):
    # f(X) -> b introduces b, which a renamed binder may capture, so its
    # steps are tried on alpha-variants.  With each of the four binders
    # renamed to every fresh target they list 3,125 steps; with each renamed
    # to its first 1 + j (one rule atom, j binders below it) they list 600,
    # and both reach the same 9 classes at the one position.
    rule = ESCAPES.rules[0]
    s = parse_term("[a][b][c][d]f(d)", ESCAPES.signature)

    def listing():
        steps = rewrite_step_general(EMPTY_CTX, s, rule)
        assert not steps.truncated and all(replay_step(EMPTY_CTX, st, rule) for st in steps[::50])
        return len(steps), {alpha_key(EMPTY_CTX, st.result) for st in steps}

    capped = listing()
    _every_fresh_target(monkeypatch)
    every = listing()
    assert capped[0] == 600 and every[0] == 3125
    assert capped[1] == every[1] and len(capped[1]) == 9


def test_a_capped_binder_tests_no_target_past_its_cap(monkeypatch):
    # Six universe atoms, none in the body h(c): with width 1 the outer
    # binder (one binder below it) takes its first 2 fresh targets and each
    # of its 3 renamings the inner binder's first 1, so 2 + 3 x 1 freshness
    # tests; with no width 5 + 6 x 5.
    calls, real = Counter(), rewrite_module.fresh_holds
    monkeypatch.setattr(rewrite_module, "fresh_holds", lambda ctx, a, t: calls.update([a]) or real(ctx, a, t))
    universe = [Atom(n) for n in ("a", "b", "d", "e", "p$0", "p$1")]
    s = parse_term("[a][b]h(c)", ESCAPES.signature)
    for width, tests, variants in ((1, 5, 6), (None, 35, 36)):
        calls.clear()
        assert len(list(_decompositions(EMPTY_CTX, s, ("body", "body"), universe, width))) == variants
        assert sum(calls.values()) == tests


def test_reachability_matches_scan_reference():
    scan_closed = lambda ctx, s, theory, fuel: _scan_reachable(ctx, s, theory, fuel, closed_rewrite_step)
    nonempty = 0
    for theory, ctx, s, t in _seeded_cases(61, 40):
        general = list(rewrite_closure_reachable(ctx, s, theory, fuel=2))
        assert general == list(_scan_reachable(ctx, s, theory, 2, rewrite_step_general))
        assert list(closed_reachable(ctx, s, theory, 2)) == list(scan_closed(ctx, s, theory, 2))
        assert _joinable(ctx, s, t, theory, 2) == _joinable(ctx, s, t, theory, 2, scan_closed)
        nonempty += len(general) > 1
    assert nonempty > 10


def test_reachable_fuel_counts_levels():
    # fuel 1 reaches exactly s's class and every class one step away
    deeper = 0
    for theory, ctx, s, _ in _seeded_cases(61, 20):
        for reach, step in [
            (rewrite_closure_reachable, rewrite_step_general),
            (closed_reachable, closed_rewrite_step),
        ]:
            one = reach(ctx, s, theory, 1)
            expected = _ScanSet(ctx)
            expected.add(s)
            for rule in theory.rules:
                for st in step(ctx, s, rule):
                    expected.add(st.result)
            assert len(one) == len(expected) and all(u in one for u in expected)
            deeper += len(reach(ctx, s, theory, 2)) > len(one)
    assert deeper > 5


def test_closed_reachability_walks_no_term_for_its_spans(monkeypatch):
    # Only a general candidate is keyed by splicing its source's key, so a
    # term's spans are walked when the first one comes, and closed
    # reachability, which keys each built result, never walks them.
    betaeta = next(theory for theory in BUNDLED if theory.name == "betaeta")
    calls = Counter()
    real = rewrite_module._spans
    monkeypatch.setattr(rewrite_module, "_spans", lambda t: calls.update([t]) or real(t))
    s = parse_term("app(lam([a]app(lam([b]app(b,a)),a)),c)")
    assert len(closed_reachable(EMPTY_CTX, s, betaeta, 3)) == 17 and not calls
    assert len(rewrite_closure_reachable(EMPTY_CTX, s, betaeta, 1)) > 1 and list(calls.values()) == [1]


def test_a_search_expands_fuel_terms(monkeypatch):
    # symmetric_search's fuel counts the terms it expands, one walk of the
    # cursor (`_places`) and one of `_spans` each (every term it expands
    # here has a general candidate), however many classes a level holds.
    # The target is s with its outer h's arguments swapped: it keeps every
    # count s has, so the count check does not answer it, and nonclosed's
    # rules only rename atoms and add or drop binders, so no search reaches it.
    nonclosed = next(theory for theory in BUNDLED if theory.name == "nonclosed")
    s, unreachable = parse_term("h(g([c]c),h(a,a))"), parse_term("h(h(a,a),g([c]c))")
    assert not _kept_counts_differ(nonclosed, s, unreachable)
    assert len(rewrite_closure_reachable(EMPTY_CTX, s, nonclosed, fuel=1)) >= 4  # at least 3 classes one step away
    calls = Counter()
    for name in ("_places", "_spans"):
        real = getattr(rewrite_module, name)
        monkeypatch.setattr(rewrite_module, name, lambda *args, name=name, real=real: calls.update([name]) or real(*args))
    for fuel in (0, 1, 2, 3):
        calls.clear()
        assert not symmetric_search(EMPTY_CTX, s, unreachable, nonclosed, fuel=fuel).found
        assert calls["_places"] == calls["_spans"] == fuel


def test_symmetric_search_matches_scan_reference():
    found = 0
    for theory, ctx, s, t in _seeded_cases(67, 40):
        res = symmetric_search(ctx, s, t, theory, fuel=3)
        assert (res.found, res.trace) == _scan_search(res.ctx, s, t, theory, fuel=3)
        found += res.found
    assert 5 < found < 35


def test_a_search_builds_one_step_per_new_class(monkeypatch):
    # symmetric_search keys each candidate without building it: it builds a
    # step for each class it meets first, and the step that reaches the
    # target, which ends the search.  The scan reference counts the classes.
    built, added = [], Counter()
    real_init, real_add = rewrite_module.RewriteStep.__init__, _ScanSet.add

    def init(self, *args):
        built.append(self)
        real_init(self, *args)

    def add(self, t):
        new = real_add(self, t)
        added["classes"] += new
        return new

    monkeypatch.setattr(_ScanSet, "add", add)
    monkeypatch.setattr(rewrite_module, "_kept_counts_differ", _never)  # every search expands s
    nonclosed = next(theory for theory in BUNDLED if theory.name == "nonclosed")
    example = (nonclosed, EMPTY_CTX, parse_term("h(g([c]c),h(a,a))"), parse_term("h(g([c]c),h(b,b))"))
    outcomes = Counter()
    for theory, ctx, s, t in [*_seeded_cases(67, 40), example]:
        built.clear()
        with monkeypatch.context() as patched:
            patched.setattr(rewrite_module.RewriteStep, "__init__", init)
            res = symmetric_search(ctx, s, t, theory, fuel=3)
        added.clear()
        assert (res.found, res.trace) == _scan_search(res.ctx, s, t, theory, fuel=3)
        stepped = bool(res.trace)  # found by a step, which is built last
        assert len(built) == max(added["classes"] - 1, 0) + stepped  # s's own class is no step's
        keys = [alpha_key(res.ctx, step.result) for step in built]
        assert len(set(keys)) == len(keys) and alpha_key(res.ctx, s) not in keys
        if stepped:
            assert built[-1] is res.trace[-1]
        outcomes[res.found] += 1
    assert outcomes[True] and outcomes[False]


def test_general_reachability_builds_one_step_per_new_class(monkeypatch):
    # rewrite_closure_reachable keys each general candidate without building
    # it, so the steps built are exactly those that reach a new class, and
    # their results are the representatives after s's own.
    built = []
    real_init = rewrite_module.RewriteStep.__init__

    def init(self, *args):
        built.append(self)
        real_init(self, *args)

    nonclosed = next(theory for theory in BUNDLED if theory.name == "nonclosed")
    # Most candidates of these land in a class already met: built before
    # being keyed, they would cost 521 and 1,112 steps.
    pinned = [(nonclosed, EMPTY_CTX, parse_term(text), classes)
              for text, classes in [("h(g([c]c),h(a,a))", 123), ("h([a]g(b),[c]h(a,c))", 165)]]
    for theory, ctx, s, classes in [*((th, ctx, s, None) for th, ctx, s, _ in _seeded_cases(61, 40)), *pinned]:
        built.clear()
        with monkeypatch.context() as patched:
            patched.setattr(rewrite_module.RewriteStep, "__init__", init)
            reached = list(rewrite_closure_reachable(ctx, s, theory, fuel=2))
        assert [step.result for step in built] == reached[1:]
        assert classes in (None, len(reached))


def _spliced_against_built(ctx, s, rule) -> Counter:
    """Check that every candidate step of s by rule, as rewrite_step_general
    finds them, has the key of its built result as its spliced key, and
    count the renamed variants and the results with suspensions."""
    places = [(i, frames, here) for i, (frames, here) in enumerate(_places(s)) if rule._tree.fits(here)]
    prepared = _prepare_general(Subject(ctx, s), rule, sides={})
    spans, key = _spans(s), alpha_key(ctx, s)
    seen = Counter()
    for candidate in _candidates(s, places, prepared):
        result = _build(s, candidate).result
        assert _spliced_key(ctx, key, spans, candidate) == alpha_key(ctx, result)
        seen["renamed"] += candidate[4]
        seen["suspension"] += any(type(u) is Suspension for u in subterms(result))
    return seen


@settings(max_examples=150, deadline=None)
@given(hst.data())
def test_a_spliced_key_is_the_key_of_the_built_result(data):
    theory = data.draw(hst.sampled_from(BUNDLED))
    rule = data.draw(hst.sampled_from(theory.rules + theory._reversed_rules))
    ctx, s = data.draw(contexts_st), data.draw(sig_terms_st(theory))
    for atom in data.draw(hst.lists(hst.sampled_from([a, b]), max_size=3)):  # [a][a]... shadows
        s = Abstraction(atom, s)
    _spliced_against_built(ctx, s, rule)


def test_spliced_keys_cover_variants_suspensions_and_shadowed_binders():
    seen = Counter()
    shadows = [(), (a, a), (b, a, b)]
    for i, (theory, ctx, s, _) in enumerate(_seeded_cases(71, 30)):
        for atom in shadows[i % 3]:
            s = Abstraction(atom, s)
        for rule in theory.rules + theory._reversed_rules:
            seen += _spliced_against_built(ctx, s, rule)
        seen["shadowed"] += bool(shadows[i % 3])
    assert seen["renamed"] and seen["suspension"] and seen["shadowed"]


# kept general preparations against per-subject renaming ----------------------------


def _reference_prepare_general(
    subject, rule, max_support=MAX_SUPPORT, extra_atoms=frozenset(), sides=None, every=False
):
    """The general preparation with nothing kept: the rule's unknowns renamed
    apart from each subject, and every permuted side built up front.  sides
    is accepted and ignored.  A closed rule tries no alpha-variant and stops
    at its first instance at a hole, read off the same verdict; with every
    set, it lists every instance all the same."""
    ctx, s = subject.ctx, subject.term
    subject_unknowns = unknowns_of(ctx, s)
    clashing = rule.unknowns() & subject_unknowns
    renamed = _rename_rule(rule, {}, _fresh_maps((), clashing, {x.name for x in rule.unknowns() | subject_unknowns})[1])
    rule_atoms = sorted(renamed.atoms())
    universe, truncated = _universe(set(rule_atoms), atoms_of(ctx, s) | set(extra_atoms), max_support)
    permuted = [(pi, act(pi, renamed.lhs), act(pi, renamed.rhs)) for pi in _candidate_perms(rule_atoms, universe)]

    closed = closed_module._is_closed(rule)

    def instances(hole):
        for pi, lhs, rhs in permuted:
            sol = solve_match(MatchProblem(renamed.ctx, lhs, ctx, hole))
            if sol is not None:
                yield pi, sol.sigma, substitute(rhs, sol.sigma)
                if closed and not every:
                    return

    return PreparedRule(rule, ctx, [] if closed else universe, instances, truncated)


# Half of the subjects mention the machine names that the kept renamings of
# these rules pick, in the context and maybe in the term, so that those
# preparations must fall back to renaming for the subject alone.  The
# theories are module-level, so what one example keeps with a rule is there
# for the next.
_KEPT_THEORIES = [th for th in BUNDLED if th.name in ("betaeta", "nonclosed", "remark43")]
_RULE_UNKNOWNS = [X, Xp, Y]
_MACHINE_UNKNOWNS = [Unknown(f"{x.name}{MACHINE_MARK}0") for x in _RULE_UNKNOWNS]
_machine_contexts = hst.tuples(contexts_st, hst.sampled_from([a, b, c]), hst.sampled_from(_MACHINE_UNKNOWNS)).map(
    lambda cax: cax[0] | FreshnessContext.of(cax[1:])
)
# Half of the subjects are h(u, u), so that a call meets the same holes
# twice and the second time reads what it kept from the first.  General
# steps try every renaming of the binders above a position, so u is kept
# small and has at most two binders, which keeps the reachability and the
# searches of the doubled term quick.
_small = lambda u: term_size(u) <= 10 and sum(type(v) is Abstraction for v in subterms(u)) <= 2
_repeated = lambda terms: hst.one_of(terms, terms.filter(_small).map(lambda u: App("h", (u, u))))
_kept_general_cases = hst.one_of([
    hst.tuples(
        hst.just(theory), _repeated(sig_terms_st(theory, unknowns=hst.sampled_from(names))), sig_terms_st(theory), ctxs
    )
    for theory in _KEPT_THEORIES
    for names, ctxs in ((_RULE_UNKNOWNS, contexts_st), (_RULE_UNKNOWNS + _MACHINE_UNKNOWNS, _machine_contexts))
])


@settings(max_examples=60, deadline=None)
@given(_kept_general_cases)
def test_kept_general_preparation_steps_as_per_subject_renaming_does(case):
    theory, s, t, ctx = case
    for strategy in ("outermost", "innermost"):
        got = normalize_general(ctx, s, theory, strategy, fuel=4)
        assert got == normalize(ctx, s, theory, _reference_prepare_general, strategy, 4)
    for rule in theory.rules:
        got = rewrite_step_general(ctx, s, rule)
        want = rewrite_steps(ctx, s, rule, _reference_prepare_general)
        assert (got, got.truncated) == (want, want.truncated)
    got = list(rewrite_closure_reachable(ctx, s, theory, fuel=2))
    assert got == list(reachable(ctx, s, theory, _reference_prepare_general, 2))
    # One target a step away, so that searches find something, and one drawn,
    # which most searches do not find and so expand a second subject.
    steps = [step for rule in theory.rules for step in rewrite_step_general(ctx, s, rule)]
    for target, fuel in [(step.result, 1) for step in steps[:1]] + [(t, 2)]:
        with mock.patch.object(rewrite_module, "_kept_counts_differ", _never):
            res = symmetric_search(ctx, s, target, theory, fuel=fuel)
            with mock.patch.object(rewrite_module, "_prepare_general", _reference_prepare_general):
                want = symmetric_search(ctx, s, target, theory, fuel=fuel)
        assert (res.found, res.trace) == (want.found, want.trace)


def test_general_renamings_are_kept_per_clashing_set(monkeypatch):
    # A theory of its own, so nothing is kept yet.  Renaming at every
    # preparation makes 650 renamings of these 50 normalizations.
    theory = parse_theory((resources.files("nomrew") / "theories" / "betaeta.nrw").read_text())
    calls = Counter()
    real = rewrite_module._rename_rule

    def counted(rule, amap, umap):
        calls[rule.name, frozenset(umap)] += 1
        return real(rule, amap, umap)

    monkeypatch.setattr(rewrite_module, "_rename_rule", counted)
    subjects = [
        "app(lam([a]app(X,a)),Y)",
        "app(lam([a]app(Xp,X)),app(lam([b]b),Y))",
        "lam([a]app(app(lam([b]b),X),a))",
        "app(lam([a]lam([b]app(X,b))),Y)",
        "app(lam([a]app(lam([c]c),a)),app(Y,Xp))",
    ]
    for i in range(50):
        res = normalize_general(EMPTY_CTX, parse_term(subjects[i % len(subjects)], theory.signature), theory)
        assert res.status == "normal_form"
    assert len(calls) > 3 and max(calls.values()) == 1


def test_general_search_solves_each_hole_once_per_call(monkeypatch):
    # One search of the nonclosed-search benchmark's kind.  Every match the
    # engine makes is attributed to the rule and universe of the preparation
    # stepping: symmetric_search draws all the candidates of one preparation
    # before it draws the next's.
    theory = parse_theory((resources.files("nomrew") / "theories" / "nonclosed.nrw").read_text())
    s, t = parse_term("h(g([c]c),h(a,a))"), parse_term("h(g([c]c),h(b,b))")
    calls, now, candidates, owner = Counter(), {}, {}, {}
    real_solve, real_universe, real_freshen = solve_match, rewrite_module._universe, rewrite_module._freshen_rule_unknowns
    real_prepare, real_candidates = rewrite_module._prepare_general, rewrite_module._candidates

    def counted(problem):
        calls[now["rule"], now["universe"], problem.target] += 1
        return real_solve(problem)

    def universe(rule_atoms, other_atoms, max_support):
        out, truncated = real_universe(rule_atoms, other_atoms, max_support)
        now["universe"] = tuple(out)
        candidates[now["rule"], tuple(out)] = len(_candidate_perms(sorted(rule_atoms), out))
        return out, truncated

    def freshen(rule, away_from):
        now["rule"] = rule.name
        return real_freshen(rule, away_from)

    def prepare(*args, **kwargs):  # the rule and universe the two above saw
        prepared = real_prepare(*args, **kwargs)
        owner[id(prepared)] = now["rule"], now["universe"]
        return prepared

    def unbuilt(s, places, prep):
        now["rule"], now["universe"] = owner[id(prep)]
        return real_candidates(s, places, prep)

    monkeypatch.setattr(rewrite_module, "solve_match", counted)
    monkeypatch.setattr(rewrite_module, "_universe", universe)
    monkeypatch.setattr(rewrite_module, "_freshen_rule_unknowns", freshen)
    monkeypatch.setattr(rewrite_module, "_prepare_general", prepare)
    monkeypatch.setattr(rewrite_module, "_candidates", unbuilt)
    res = symmetric_search(EMPTY_CTX, s, t, theory, fuel=10)
    assert res.found and len(res.trace) == 2
    engine = sum(calls.values())
    assert all(n <= candidates[rule, universe] for (rule, universe, _), n in calls.items())

    monkeypatch.undo()
    calls.clear()
    monkeypatch.setitem(globals(), "solve_match", lambda problem: calls.update(["reference"]) or real_solve(problem))
    with mock.patch.object(rewrite_module, "_prepare_general", _reference_prepare_general):
        want = symmetric_search(EMPTY_CTX, s, t, theory, fuel=10)
    assert (res.found, res.trace) == (want.found, want.trace)
    assert 0 < engine < calls["reference"]


def test_kept_instances_resume_where_the_first_reader_stopped(monkeypatch):
    # [a]X matches [c]g(c) under each of the three candidates for a.
    nonclosed = next(theory for theory in BUNDLED if theory.name == "nonclosed")
    rule = next(r for r in nonclosed.rules if r.name == "strip")
    s = parse_term("h([c]g(c),[c]g(c))")
    hole = s.args[0]
    calls = Counter()
    monkeypatch.setattr(rewrite_module, "solve_match", lambda problem: calls.update(["match"]) or solve_match(problem))
    want = list(_reference_prepare_general(Subject(EMPTY_CTX, s), rule).instances(hole))
    assert len(want) == 3
    prepared = _prepare_general(Subject(EMPTY_CTX, s), rule, sides={})
    reader = prepared.instances(hole)
    assert next(reader) == want[0] and calls["match"] == 1
    # A reader dropped mid-way, as `_first_step` drops one after its first
    # instance, leaves the others where they were.
    dropped = prepared.instances(hole)
    assert [next(dropped), next(dropped)] == want[:2] and calls["match"] == 2
    del dropped
    assert list(prepared.instances(s.args[1])) == want and calls["match"] == 3
    # The first reader goes on where it stopped, from what is kept.
    assert list(reader) == want[1:] and calls["match"] == 3
    assert list(prepared.instances(hole)) == want and calls["match"] == 3


# closed rules fire once per hole ---------------------------------------------------

_every_instance = lambda *args, **kwargs: _reference_prepare_general(*args, **kwargs, every=True)


def test_a_closed_rule_drops_only_instances_alpha_equal_to_the_first(monkeypatch):
    # Every general instance of a closed rule at a hole plugs to a result
    # alpha-equal under ctx to the first one's, so the search stops at the
    # first: normal forms, reached classes and found traces are those of
    # the search that lists every instance.  Forcing the verdict off brings
    # back every instance at every alpha-variant.
    cases = [case for case in _seeded_cases(89, 200) if case[0].name != "nonclosed"]
    dropped = listed = 0
    monkeypatch.setattr(rewrite_module, "_kept_counts_differ", _never)
    for theory, ctx, s, t in cases:
        for rule in theory.rules + theory._reversed_rules:
            assert closed_module._is_closed(rule)
            cut = rewrite_step_general(ctx, s, rule)
            every = rewrite_steps(ctx, s, rule, _every_instance)
            first = {}
            for step in every:
                first.setdefault(step.path, step)
                assert alpha_holds(ctx, step.result, first[step.path].result)
            assert (cut, cut.truncated) == (list(first.values()), every.truncated)
            dropped += len(every) - len(cut)
            listed += len(cut)
        for strategy in ("outermost", "innermost"):
            got = normalize_general(ctx, s, theory, strategy, fuel=6)
            assert got == normalize(ctx, s, theory, _every_instance, strategy, 6)
        got = list(rewrite_closure_reachable(ctx, s, theory, fuel=2))
        assert got == list(reachable(ctx, s, theory, _every_instance, 2))
        res = symmetric_search(ctx, s, t, theory, fuel=3)
        with mock.patch.object(rewrite_module, "_prepare_general", _every_instance):
            want = symmetric_search(ctx, s, t, theory, fuel=3)
        assert (res.found, res.trace) == (want.found, want.trace)
    assert len(cases) > 100 and dropped > listed > 0

    monkeypatch.setattr(closed_module, "_is_closed", lambda rule: False)
    forced = 0
    for theory, ctx, s, _ in cases:
        for rule in theory.rules + theory._reversed_rules:
            got = rewrite_step_general(ctx, s, rule)
            assert got == rewrite_steps(ctx, s, rule, _reference_prepare_general)
            forced += len(got)
    assert forced > listed + dropped


def test_general_rewriting_lists_one_step_per_position_for_a_closed_rule():
    # The paper's claim as a count: a closed rule needs no permutation
    # search, so general rewriting lists at most one step where it fires.
    # A rule that is not closed still lists every instance.
    listed = Counter()
    for theory, ctx, s, _ in _seeded_cases(97, 60):
        for rule in theory.rules + theory._reversed_rules:
            steps = rewrite_step_general(ctx, s, rule)
            per_path = max(Counter(step.path for step in steps).values(), default=0)
            if closed_module._is_closed(rule):
                assert per_path <= 1
            else:
                assert steps == rewrite_steps(ctx, s, rule, _every_instance)
                listed["several at a path"] += per_path > 1
            listed[closed_module._is_closed(rule)] += len(steps)
    assert listed[True] and listed[False] and listed["several at a path"]

    # remark43's expand on [a]a listed (a p$0) at e besides id, both giving f([a]a).
    remark43 = next(theory for theory in BUNDLED if theory.name == "remark43")
    steps = rewrite_step_general(EMPTY_CTX, parse_term("[a]a"), remark43.rules[0])
    assert [step.perm for step in steps if step.path == ()] == [ID]
    nonclosed = next(theory for theory in BUNDLED if theory.name == "nonclosed")
    strip, atom_ab = (next(r for r in nonclosed.rules if r.name == name) for name in ("strip", "atom_ab"))
    assert not closed_module._is_closed(strip) and not closed_module._is_closed(atom_ab)
    assert len(rewrite_step_general(EMPTY_CTX, parse_term("[c]g(c)"), strip)) == 3
    assert len(rewrite_step_general(EMPTY_CTX, parse_term("g(a)"), atom_ab)) > 1


def _renamed_rules(theory):
    """The rule objects that can keep permuted sides: the theory's rules,
    their reversals and the renamings each keeps."""
    for rule in theory.rules + theory._reversed_rules:
        yield rule
        yield from rule.compiled.get("apart", {}).values()


def _forget_sides(theory) -> int:
    """Drop every kept "permuted" entry; returns how many universes they held."""
    return sum(len(renamed.compiled.pop("permuted", {})) for renamed in _renamed_rules(theory))


def test_permuted_sides_are_built_once_per_renamed_rule_and_universe(monkeypatch):
    # A theory of its own, so nothing is kept yet.  No subject mentions a
    # machine unknown, so every renamed rule is kept with its rule.
    theory = parse_theory((resources.files("nomrew") / "theories" / "betaeta.nrw").read_text())
    builds = Counter()
    real = rewrite_module._candidate_perms

    def counted(rule_atoms, universe):
        builds[tuple(rule_atoms), tuple(universe)] += 1
        return real(rule_atoms, universe)

    monkeypatch.setattr(rewrite_module, "_candidate_perms", counted)
    subjects = [
        parse_term(text, theory.signature)
        for text in ("app(lam([a]app(X,a)),Y)", "lam([a]app(app(lam([b]b),X),a))", "app(lam([a]lam([b]app(X,b))),c)")
    ]
    target = parse_term("lam([a]app(X,a))", theory.signature)
    totals = []
    for _ in range(3):
        for s in subjects:
            normalize_general(EMPTY_CTX, s, theory)
            for rule in theory.rules:
                rewrite_step_general(EMPTY_CTX, s, rule)
            rewrite_closure_reachable(EMPTY_CTX, s, theory, fuel=1)
            symmetric_search(EMPTY_CTX, s, target, theory, fuel=2)
        totals.append(sum(builds.values()))
    # Every build is kept, none twice, and later calls build nothing.
    kept = sum(len(renamed.compiled.get("permuted", {})) for renamed in _renamed_rules(theory))
    assert totals[0] == totals[-1] == kept > 10

    # Calls that differ only in max_support or in extra_atoms get entries of
    # their own, and each steps as preparing afresh does, cold and warm.
    theory = parse_theory((resources.files("nomrew") / "theories" / "betaeta.nrw").read_text())
    rule = next(r for r in theory.rules if r.name == "beta_fn")
    s = parse_term("app(lam([c]lam([b]app(c,b))),e)", theory.signature)
    variants = [(MAX_SUPPORT, frozenset()), (2, frozenset()), (MAX_SUPPORT, frozenset({Atom("d")}))]
    for i, (max_support, extra) in enumerate(variants * 2):
        got = rewrite_step_general(EMPTY_CTX, s, rule, max_support, extra)
        prepare = partial(_reference_prepare_general, max_support=max_support, extra_atoms=extra)
        want = rewrite_steps(EMPTY_CTX, s, rule, prepare)
        assert (got, got.truncated) == (want, want.truncated) and got
        assert len(rule.compiled["permuted"]) == min(i + 1, len(variants))
    assert [universe[:2] for universe in rule.compiled["permuted"]] == [(a, b)] * 3


_CLI_CASES = {
    "betaeta": ("app(lam([a]app(X,a)),app(lam([b]b),c))", ""),
    "fol": ("not(forall([a]and(P,imp(Q,not(not(Q))))))", "a#Q"),
    "nonclosed": ("[c][b][a]a", ""),
    "remark43": ("f(f(X))", "a#X"),
}


def test_kept_sides_leave_outputs_byte_identical(capsys):
    # Each output is taken cold (the theory parsed afresh), warm, and after
    # every kept "permuted" entry is dropped.
    for name, (term, ctx) in _CLI_CASES.items():
        path = str(resources.files("nomrew") / "theories" / f"{name}.nrw")
        for command in ("step", "normalize"):
            cli_module._parse_theory_text.cache_clear()
            argv = [command, path, "--term", term, "--ctx", ctx, "--general", "--json"]
            argv += ["--fuel", "6"] if command == "normalize" else []
            outputs = []
            for run in ("cold", "warm", "cleared"):
                if run == "cleared":
                    assert _forget_sides(cli_module._load_theory(path)[0])
                assert cli_module.main(argv) != 2
                outputs.append(capsys.readouterr().out)
            assert outputs[0] == outputs[1] == outputs[2]
    dropped = 0
    for theory, ctx, s, t in _seeded_cases(83, 12):
        theory = parse_theory((resources.files("nomrew") / "theories" / f"{theory.name}.nrw").read_text())
        searches = []
        for run in ("cold", "warm", "cleared"):
            if run == "cleared":
                dropped += _forget_sides(theory)
            res = symmetric_search(ctx, s, t, theory, fuel=3)
            searches.append(repr((res.found, res.trace)))
        assert searches[0] == searches[1] == searches[2]
    assert dropped


def test_reversed_rules_are_kept_with_the_theory(monkeypatch):
    # A theory of its own, so nothing is kept yet.  Reversing the rules at
    # every search makes 100 renamings of expand~ in these 100 searches.
    theory = parse_theory((resources.files("nomrew") / "theories" / "remark43.nrw").read_text())
    calls = Counter()
    real = rewrite_module._rename_rule

    def counted(rule, amap, umap):
        calls[rule.name] += 1
        return real(rule, amap, umap)

    monkeypatch.setattr(rewrite_module, "_rename_rule", counted)
    s, t = parse_term("f(X)", theory.signature), parse_term("f(f(f(X)))", theory.signature)
    results = [symmetric_search(EMPTY_CTX, s, t, theory, fuel=5) for _ in range(100)]
    assert calls == Counter({"expand": 1, "expand~": 1})
    assert [rule.name for rule in theory._reversed_rules] == ["expand~"]
    monkeypatch.undo()
    res = results[0]
    assert res.found and all((r.found, r.trace) == (res.found, res.trace) for r in results)
    assert (res.found, res.trace) == _scan_search(res.ctx, s, t, theory, fuel=5)


# reversals that rename an earlier rule -------------------------------------------

COMM = parse_theory(
    "theory comm ; sig f:2 h:1 g:1 ;"
    "axiom comm : f(X,Y) = f(Y,X) ; axiom ab : h(a) = h(b) ; axiom gg : g(X) = g(g(X)) ;"
)


def test_a_search_answers_as_one_firing_every_reversal(monkeypatch):
    # A reversal left out renames an earlier rule within its own atoms, so
    # every class it reaches from a term is met first: found, the trace and
    # the context are those of a search firing every reversal, and of the
    # scan reference, on cut universes (max_support 3) too.  Each pair is
    # searched both ways, since t one rule step from s needs a reversal back.
    dropped = {"atom_ab~", "comm~", "ab~"}
    cases = [case for case in _seeded_cases(101, 160) if case[0].name != "fol"]
    cases += list(_seeded_cases(103, 160, [COMM]))
    cases += [(theory, ctx, t, s) for theory, ctx, s, t in cases]
    fired, outcomes = Counter(), Counter()
    real = rewrite_module._candidates
    monkeypatch.setattr(rewrite_module, "_kept_counts_differ", _never)

    def counted(s, places, prep):
        for candidate in real(s, places, prep):
            fired[prep.rule.name] += prep.rule.name in dropped
            yield candidate

    for i, (theory, ctx, s, t) in enumerate(cases):
        max_support, gamma_budget = (MAX_SUPPORT, 3)[i % 2], (None, 0)[i // 2 % 2]
        search = partial(symmetric_search, ctx, s, t, theory, 3, gamma_budget, max_support)
        res = search()
        with monkeypatch.context() as patched:
            patched.setattr(Theory, "_reversed_rules", property(_every_reversal))
            patched.setattr(Theory, "_search_tree", property(lambda th: _Tree((*th.rules, *_every_reversal(th)))))
            patched.setattr(rewrite_module, "_candidates", counted)
            want = search()
        assert (res.found, res.trace, sorted(res.ctx)) == (want.found, want.trace, sorted(want.ctx))
        assert (res.found, res.trace) == _scan_search(res.ctx, s, t, theory, 3, max_support)
        outcomes[theory.name, res.found] += 1
    assert all(fired[name] for name in dropped)
    assert all(outcomes[name, found] for name in ("nonclosed", "comm") for found in (True, False))


def test_a_reversal_that_renames_an_earlier_rule_is_left_out():
    names = lambda theory: [rule.name for rule in theory._reversed_rules]
    theories = {theory.name: theory for theory in BUNDLED}
    assert names(theories["nonclosed"]) == ["strip~"] and names(theories["remark43"]) == ["expand~"]
    assert len(names(theories["betaeta"])) == 4 and len(names(theories["fol"])) == 7
    for name in ("betaeta", "fol"):
        assert names(theories[name]) == [rule.name for rule in _every_reversal(theories[name])]
    assert names(COMM) == ["gg~"]  # comm~ is comm under (X Y), ab~ is ab under (a b)
    # Each reversal renames the other rule, but onto another atom set, which
    # sets another universe: both are kept.
    sig = Signature.of({"f": 2, "g": 1})
    other_atoms = Theory(sig, tuple(
        RewriteRule(name, EMPTY_CTX, parse_term(lhs), parse_term(rhs))
        for name, lhs, rhs in (("cd", "f(c,d)", "f(d,d)"), ("xy", "f(x,x)", "f(y,x)"))
    ))
    assert names(other_atoms) == ["cd~", "xy~"]
    assert _renaming(other_atoms.rules[0], other_atoms._reversed_rules[1])
    # ba~ is ab~, kept, under (a b).
    swapped = Theory(sig, tuple(
        RewriteRule(name, EMPTY_CTX, parse_term(lhs), parse_term(rhs))
        for name, lhs, rhs in (("ab", "f(a,b)", "g(a)"), ("ba", "f(b,a)", "g(b)"))
    ))
    assert names(swapped) == ["ab~"]
    # Renaming keeps a rule closed or not, so the rule a reversal renames
    # fires on the same alpha-variants.
    left_out = 0
    for theory in (*BUNDLED, COMM, other_atoms, swapped):
        kept = [*theory.rules, *theory._reversed_rules]
        for rev in _every_reversal(theory):
            if rev.name in names(theory):
                continue
            renamed = [r for r in kept if r.atoms() == rev.atoms() and _renaming(r, rev)]
            assert renamed and all(closed_module._is_closed(r) == closed_module._is_closed(rev) for r in renamed)
            left_out += 1
    assert left_out == 4


def test_renaming_ignores_names_and_refuses_a_map_that_is_not_one_to_one():
    d, Z = Atom("d"), Unknown("Z")
    rule = RewriteRule("r", FreshnessContext.of((b, X)), App("f", (Suspension(swap(a, c), X),)), var(X))
    image = _rename_rule(rule, {a: c, b: d, c: a}, {X: Z})
    # b occurs only in the context, a and c only in a suspension.
    assert _renaming(rule, image) and _renaming(rule, dataclasses.replace(image, name="s"))
    # Replay still asks a freshened rule for the name of the rule it renames.
    assert _fresh_renaming(rule, image, EMPTY_CTX)
    assert not _fresh_renaming(rule, dataclasses.replace(image, name="s"), EMPTY_CTX)
    assert not _renaming(rule, dataclasses.replace(image, ctx=FreshnessContext.of((c, Z))))
    assert not _renaming(rule, dataclasses.replace(image, lhs=App("f", (Suspension(swap(c, d), Z),))))
    # Two atoms, or two unknowns, onto one.
    pair = lambda u, v: RewriteRule("p", EMPTY_CTX, App("f", (u, v)), App("g", ()))
    assert not _renaming(pair(AtomTerm(a), AtomTerm(b)), pair(AtomTerm(c), AtomTerm(c)))
    assert not _renaming(pair(AtomTerm(c), AtomTerm(c)), pair(AtomTerm(a), AtomTerm(b)))
    assert not _renaming(pair(var(X), var(Y)), pair(var(Z), var(Z)))
    assert not _renaming(pair(var(Z), var(Z)), pair(var(X), var(Y)))
    assert _renaming(pair(var(X), var(Y)), pair(var(Y), var(X)))
    # A suspension's atoms follow the renaming the other atoms fix.
    assert not _renaming(pair(Suspension(swap(a, b), X), AtomTerm(a)), pair(Suspension(swap(c, b), X), AtomTerm(a)))


# searches answered by a count no rule changes ----------------------------------

# Hand-made theories for the count check: commutativity, which changes no
# count; a rule that drops an unknown, so the theory keeps no count; an lhs
# with a permuted suspension; and an lhs that is a bare suspension.
COUNTED = [
    parse_theory(text) for text in (
        "theory swap ; sig f:2 ; rule comm : f(X,Y) -> f(Y,X) ;",
        "theory drop ; sig f:2 g:1 ; rule drop : f(X,Y) -> g(X) ;",
        "theory permuted ; sig h:1 g:2 ; rule p : h((a b).X) -> g([a]X,b) ;",
        "theory bare ; sig k:2 ; rule grow : a#X |- X -> k(X,a) ;",
    )
]


def test_each_theory_changes_the_kinds_counted_by_hand():
    changed = {theory.name: theory._changed_kinds for theory in [*BUNDLED, *COUNTED]}
    assert changed == {
        "betaeta": None,  # beta_eps drops X, beta_app doubles Y
        "fol": {("forall", 1), ("exists", 1), ("not", 1), ("or", 2), ("imp", 2), Abstraction},
        "nonclosed": {Abstraction},  # atom_ab renames an atom
        "remark43": {("f", 1)},
        "swap": frozenset(),
        "drop": None,
        "permuted": {("h", 1), ("g", 2), Abstraction, AtomTerm},
        "bare": {("k", 2), AtomTerm},
    }
    assert _kind_counts(parse_term("f([a]a,(a b).X)")) == Counter(
        {("f", 2): 1, Abstraction: 1, AtomTerm: 1, X: 1}
    )


def test_a_pair_the_count_check_refutes_has_no_trace(monkeypatch):
    # The oracle is the scan reference, which fires every reversal and knows
    # nothing of counts: it finds no pair the check refutes at fuel 3.  Every
    # step of every trace found keeps each count no rule changes, and the
    # check changes no answer, context or gamma.
    theories = [theory for theory in BUNDLED if theory.name != "betaeta"] + COUNTED
    refuted, found = Counter(), Counter()
    for theory, ctx, s, t in _seeded_cases(5, 300, theories):
        res = symmetric_search(ctx, s, t, theory, fuel=3)
        with monkeypatch.context() as patched:
            patched.setattr(rewrite_module, "_kept_counts_differ", _never)
            want = symmetric_search(ctx, s, t, theory, fuel=3)
        assert (res.found, res.trace, res.gamma, res.ctx) == (want.found, want.trace, want.gamma, want.ctx)
        if _kept_counts_differ(theory, s, t):
            refuted[theory.name] += 1
            assert _scan_search(res.ctx, s, t, theory, fuel=3) == (False, None)
        changed = theory._changed_kinds
        kept = lambda u: {kind: n for kind, n in _kind_counts(u).items() if kind not in changed}
        for step in (res.trace or []) if changed is not None else []:
            assert kept(step.source) == kept(step.variant) == kept(step.result)
        found[theory.name] += res.found
    assert refuted["drop"] == 0 and all(refuted[th.name] for th in theories if th.name != "drop")
    assert all(found[th.name] for th in theories)


def test_a_refuted_search_checks_its_arguments_and_answers_with_its_context(monkeypatch):
    # remark43 changes only f's count, so X and [a]X differ in a kept count:
    # the search answers at once, expanding nothing, under the gamma and the
    # context a search with the check off runs under.
    remark43 = next(theory for theory in BUNDLED if theory.name == "remark43")
    ctx, s, t = FreshnessContext.of((b, X)), var(X), Abstraction(a, var(X))
    assert _kept_counts_differ(remark43, s, t)
    with pytest.raises(ValueError):
        symmetric_search(ctx, s, t, remark43, fuel=-1)
    with pytest.raises(ValueError):
        symmetric_search(ctx, s, t, remark43, gamma_budget=-1)
    expanded = Counter()
    real = rewrite_module._breadth_first
    monkeypatch.setattr(rewrite_module, "_breadth_first", lambda *args: expanded.update(["search"]) or real(*args))
    res = symmetric_search(ctx, s, t, remark43, fuel=5)
    assert not expanded and (res.found, res.trace) == (False, None) and res.gamma
    monkeypatch.setattr(rewrite_module, "_kept_counts_differ", _never)
    want = symmetric_search(ctx, s, t, remark43, fuel=5)
    assert expanded["search"] == 1 and not want.found
    assert (res.gamma, res.ctx) == (want.gamma, want.ctx)
