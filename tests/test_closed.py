import dataclasses
import random
from collections import Counter
from functools import partial
from importlib import resources

import hypothesis.strategies as hst
import pytest
from hypothesis import example, given, settings

import nomrew.closed as closed_module
from nomrew import (
    Abstraction,
    App,
    Atom,
    AtomTerm,
    EMPTY_CTX,
    FreshnessContext,
    MatchProblemError,
    NotClosedError,
    PAIR_FORMER,
    RewriteRule,
    Signature,
    Theory,
    Unknown,
    alpha_holds,
    atoms_of,
    closed_normalize,
    closed_reachable,
    closed_rewrite_step,
    decide_equal,
    fresh_holds,
    freshen_rule,
    is_closed,
    is_closed_rule,
    is_solution,
    replay_step,
    RewriteStep,
    rewrite_step_general,
    scrub,
    substitute,
    subterms,
    swap,
    unknowns_of,
    var,
)
from nomrew.matching import MatchProblem, solve_match
from nomrew.rewrite import (
    MAX_SUPPORT, SPARE_CAP, PreparedRule, _fresh_maps, _fresh_renaming, _prepare_general, _rename_rule, _rename_ctx,
    _rename_term, _universe, normalize, reachable, rewrite_steps,
)
from nomrew.syntax import parse_context, parse_term, parse_theory, pretty
from nomrew.terms import ID, MACHINE_MARK, Substitution, fresh_names

import reference_walkers as ref
from strategies import (
    ATOMS, UNKNOWNS, alpha_mod_machine, atoms_st, contexts_st, machine_atoms, random_ctx, random_term, sig_terms_st,
    step_classes_match, terms_st,
)

a, b, c = Atom("a"), Atom("b"), Atom("c")
X, Xp, Y = Unknown("X"), Unknown("Xp"), Unknown("Y")


def lam(atom, body):
    return App("lam", (Abstraction(atom, body),))


def app(f, x):
    return App("app", (f, x))


SIG = Signature.of({"lam": 1, "app": 2, "f": 1})
ETA = RewriteRule("eta", FreshnessContext.of((a, X)), lam(a, app(var(X), AtomTerm(a))), var(X))
ATOM_AB = RewriteRule("atom_ab", EMPTY_CTX, AtomTerm(a), AtomTerm(b))
STRIP = RewriteRule("strip", EMPTY_CTX, Abstraction(a, var(X)), var(X))
EXPAND = RewriteRule("expand", FreshnessContext.of((a, X)), var(X), App("f", (var(X),)))
BETAETA = Theory(
    SIG,
    (
        RewriteRule(
            "beta_app", EMPTY_CTX,
            app(lam(a, app(var(X), var(Xp))), var(Y)),
            app(app(lam(a, var(X)), var(Y)), app(lam(a, var(Xp)), var(Y))),
        ),
        RewriteRule("beta_var", EMPTY_CTX, app(lam(a, AtomTerm(a)), var(X)), var(X)),
        RewriteRule("beta_eps", FreshnessContext.of((a, Y)), app(lam(a, var(Y)), var(X)), var(Y)),
        RewriteRule(
            "beta_fn", FreshnessContext.of((b, Y)),
            app(lam(a, lam(b, var(X))), var(Y)),
            lam(b, app(lam(a, var(X)), var(Y))),
        ),
        ETA,
    ),
)


# freshening -----------------------------------------------------------------


def test_freshen_abstractions_get_distinct_atoms():
    t = Abstraction(a, Abstraction(b, var(X)))
    renamed = _rename_term(t, *_fresh_maps(atoms_of(t), unknowns_of(t), set()))
    assert isinstance(renamed, Abstraction)
    outer, inner = renamed.atom, renamed.body.atom
    assert outer != inner
    assert outer.is_machine and inner.is_machine
    assert renamed.body.body.unknown.is_machine


def test_freshen_constraint():
    fresh = freshen_rule(RewriteRule("r", FreshnessContext.of((a, X)), var(X), App("f", (var(X),))))
    (fa, fx), = list(fresh.ctx)
    assert fa.is_machine and fx.is_machine
    assert fresh.lhs.unknown == fx


def test_freshen_never_identifies_atoms():
    rng = random.Random(3)
    for _ in range(100):
        t = random_term(rng, depth=4)
        ctx = random_ctx(rng)
        # Machine names on the term's own stems, which freshening must skip.
        skip = rng.randint(0, 3)
        taken = {Atom(f"{x.name}{MACHINE_MARK}{n}") for x in atoms_of(ctx, t) for n in range(skip)}
        amap, umap = _fresh_maps(atoms_of(ctx, t), unknowns_of(ctx, t), {x.name for x in taken})
        assert len(set(amap.values())) == len(amap)
        assert len(set(umap.values())) == len(umap)
        originals = atoms_of(ctx, t) | unknowns_of(ctx, t) | taken
        images = set(amap.values()) | set(umap.values())
        assert not originals & images
        # freshen_rule renames a rule by the same maps, avoiding the same names
        rule = RewriteRule("r", ctx, t, t)
        fresh = freshen_rule(rule, taken)
        assert fresh == _rename_rule(rule, amap, umap)
        assert not (fresh.atoms() | fresh.unknowns()) & originals


def test_freshen_rule_is_structure_preserving():
    renamed = freshen_rule(ETA)
    amap, umap = _fresh_maps(ETA.atoms(), ETA.unknowns(), set())
    assert renamed.name == ETA.name
    assert len(renamed.ctx) == len(ETA.ctx)
    # applying the bijections to the original reproduces the variant
    from nomrew.closed import _rename_ctx

    assert _rename_term(ETA.lhs, amap, umap) == renamed.lhs
    assert _rename_term(ETA.rhs, amap, umap) == renamed.rhs
    assert _rename_ctx(ETA.ctx, amap, umap) == renamed.ctx


# closedness ------------------------------------------------------------------


def test_eta_pair_is_closed():
    res = is_closed(FreshnessContext.of((a, X)), App(PAIR_FORMER, (ETA.lhs, ETA.rhs)))
    assert res.closed
    assert is_solution(res.problem, res.witness)


def test_atom_rule_not_closed():
    assert not is_closed(EMPTY_CTX, App(PAIR_FORMER, (AtomTerm(a), AtomTerm(b)))).closed


def test_strip_rule_not_closed():
    # the rhs occurrence of X needs a#X, which the closedness context lacks
    assert not is_closed(EMPTY_CTX, App(PAIR_FORMER, (Abstraction(a, var(X)), var(X)))).closed


def test_constrained_expansion_is_closed():
    res = is_closed(FreshnessContext.of((a, X)), App(PAIR_FORMER, (var(X), App("f", (var(X),)))))
    assert res.closed and is_solution(res.problem, res.witness)


def test_is_closed_rule_wrapper():
    assert is_closed_rule(ETA).closed
    assert not is_closed_rule(ATOM_AB).closed
    assert not is_closed_rule(STRIP).closed
    assert is_closed_rule(EXPAND).closed
    for rule in BETAETA.rules:
        assert is_closed_rule(rule).closed


def _renamed_copy(rule: RewriteRule) -> RewriteRule:
    """The rule with every atom and unknown renamed one-to-one, onto names
    the random subjects also use, so that its freshened variant differs."""
    return _rename_rule(rule, {a: b, b: c, c: Atom("d")}, {X: Y, Xp: Unknown("Z"), Y: X})


def test_closedness_verdict_is_independent_of_names():
    for rule in (ETA, ATOM_AB, STRIP, EXPAND, *BETAETA.rules):
        copy = _renamed_copy(rule)
        assert freshen_rule(copy) != freshen_rule(rule)
        assert is_closed_rule(copy).closed == is_closed_rule(rule).closed
    assert is_closed_rule(_renamed_copy(ETA)).closed
    assert not is_closed_rule(_renamed_copy(ATOM_AB)).closed


def test_closedness_of_a_rule_matches_its_kept_variant(monkeypatch):
    # is_closed_rule matches the variant the rule keeps for closed rewriting;
    # is_closed freshens the pair term itself.  The two pick the same names.
    freshenings = Counter()
    real = closed_module.freshen_rule

    def counted(rule, *args):
        freshenings[id(rule)] += 1
        return real(rule, *args)

    monkeypatch.setattr(closed_module, "freshen_rule", counted)
    bundled = [rule for name in ("betaeta", "fol", "nonclosed", "remark43") for rule in _bundled(name).rules]
    assert len(bundled) == 15
    verdicts = set()
    for rule in bundled + [_renamed_copy(rule) for rule in bundled]:
        got = is_closed_rule(rule)
        assert freshenings[id(rule)] == 1  # the kept variant, made here
        want = is_closed(rule.ctx, App(PAIR_FORMER, (rule.lhs, rule.rhs)))
        assert (got.closed, got.witness, got.problem) == (want.closed, want.witness, want.problem)
        assert is_closed_rule(rule) == got
        assert freshenings[id(rule)] == 1  # none beyond it
        verdicts.add(got.closed)
    assert verdicts == {True, False}


# closed steps ----------------------------------------------------------------


def test_closed_step_ignores_atom_identity():
    assert list(closed_rewrite_step(EMPTY_CTX, AtomTerm(a), ATOM_AB)) == []
    assert list(closed_rewrite_step(EMPTY_CTX, AtomTerm(c), ATOM_AB)) == []


def test_closed_step_expand_from_bare_unknown():
    steps = closed_rewrite_step(EMPTY_CTX, var(X), EXPAND)
    want = App("f", (var(X),))
    assert steps and all(alpha_holds(EMPTY_CTX, st.result, want) for st in steps)
    assert all(st.ctx_extension for st in steps)  # the freshened constraint landed


def test_closed_step_beta_redex():
    s = app(lam(a, app(AtomTerm(a), AtomTerm(a))), AtomTerm(b))
    steps = closed_rewrite_step(EMPTY_CTX, s, BETAETA.rules[0])
    want = app(app(lam(a, AtomTerm(a)), AtomTerm(b)), app(lam(a, AtomTerm(a)), AtomTerm(b)))
    assert any(alpha_holds(EMPTY_CTX, st.result, want) for st in steps)


def test_closed_steps_replay():
    rng = random.Random(5)
    for _ in range(40):
        s = random_term(rng, depth=3)
        ctx = random_ctx(rng)
        for rule in BETAETA.rules:
            for st in closed_rewrite_step(ctx, s, rule):
                assert replay_step(ctx, st, st.freshened) and replay_step(ctx, st, rule)


def test_closed_replay_checks_the_freshening():
    from dataclasses import replace

    ctx = FreshnessContext.of((a, X))
    st = next(iter(closed_rewrite_step(ctx, var(X), EXPAND)))
    assert replay_step(ctx, st, EXPAND) and replay_step(ctx, st, st.freshened)
    # the recorded rule must rename the rule it names
    assert not replay_step(ctx, st, RewriteRule("expand", EMPTY_CTX, var(X), App("f", (var(X),))))
    # to names fresh for the context and the source
    stale = replace(st.freshened, ctx=FreshnessContext.of((a, next(iter(st.freshened.unknowns())))))
    assert not replay_step(ctx, replace(st, freshened=stale, ctx_extension=FreshnessContext.of((a, X))), EXPAND)
    # and the context extension must be exactly what the freshening justifies
    assert not replay_step(ctx, replace(st, ctx_extension=st.ctx_extension.with_pairs([(b, X)])), EXPAND)
    assert not replay_step(ctx, replace(st, ctx_extension=EMPTY_CTX), EXPAND)


def test_closed_step_scrubs_eta_result():
    ctx = FreshnessContext.of((a, X))
    steps = closed_rewrite_step(ctx, lam(a, app(var(X), AtomTerm(a))), ETA)
    assert any(st.result == var(X) for st in steps)


def test_scrub_minimizes_suspension():
    from nomrew import Suspension

    z = Atom("z$1")
    ctx = FreshnessContext.of((a, X), (z, X))
    # (a z$1).X collapses to X: both swapped atoms are fresh for X in ctx
    scrubbed = scrub(ctx, App("f", (Suspension(swap(a, z), X),)), [a, b])
    assert scrubbed == App("f", (var(X),))


def test_scrub_renames_machine_binder():
    z = Atom("z$1")
    scrubbed = scrub(EMPTY_CTX, Abstraction(z, AtomTerm(z)), [a, b])
    assert scrubbed == Abstraction(a, AtomTerm(a))
    # a machine binder that is itself in the pool still moves to a plain atom
    assert scrub(EMPTY_CTX, Abstraction(z, AtomTerm(b)), [z, a]) == Abstraction(a, AtomTerm(b))


def test_scrub_names_a_shadowing_machine_binder_as_scrubbing_it_first_would():
    # The outer [a$0] becomes [a], and (a a$0) carries the inner [a$0] onto
    # the plain atom a.  It is still renamed, to the first pool atom fresh
    # for its body, as scrubbing the body before the binder does; renaming
    # only the binders that the pending permutation leaves machine-named
    # would give [a]g(q, [a]b).
    a0, q = Atom("a$0"), Atom("q")
    t = Abstraction(a0, App("g", (AtomTerm(q), Abstraction(a0, AtomTerm(b)))))
    want = Abstraction(a, App("g", (AtomTerm(q), Abstraction(q, AtomTerm(b)))))
    assert scrub(EMPTY_CTX, t, [q, a]) == want == ref.scrub_innermost_first(EMPTY_CTX, t, [q, a])


def test_closed_normalize_renames_a_binder_the_match_makes_shadow():
    # beta_fn fires on lam([b]app(..., [b]Z)), so the result holds
    # [b$0]...[b$0]Z.  The outer [b$0] is renamed to d, and (d b$0) carries
    # the inner one onto d; it still gets b, the first pool atom fresh for
    # its body, as the innermost-first rule gives it.
    ctx = parse_context("a#X,d#Y,c#Y,d#Z,d#X,b#X")
    s = parse_term("[d]app(lam([a]lam([b]app(app(c, (b c).X), [b]Z))), lam(lam((a c).Z)))")
    result = closed_normalize(ctx, s, _bundled("betaeta"), 12)
    assert pretty(result.term) == "[d]lam([d]app(app(c, (c d).X), app(lam([a][b]Z), lam(lam((a c).Z)))))"


def test_scrub_may_keep_another_machine_binder_than_innermost_first():
    # With the pool [c], only one of [b$0] and [a$0] can be renamed.
    a0, b0 = Atom("a$0"), Atom("b$0")
    t = Abstraction(b0, Abstraction(a0, AtomTerm(b0)))
    one_pass = scrub(EMPTY_CTX, t, [c])
    innermost_first = ref.scrub_innermost_first(EMPTY_CTX, t, [c])
    assert one_pass == Abstraction(c, Abstraction(a0, AtomTerm(c)))
    assert innermost_first == Abstraction(c, Abstraction(b0, AtomTerm(c)))
    assert alpha_holds(EMPTY_CTX, one_pass, t) and alpha_holds(EMPTY_CTX, innermost_first, t)


_MACHINE = {z: Atom(z.name + "$0") for z in ATOMS}


@settings(max_examples=200, deadline=None)
@given(
    contexts_st,
    terms_st,
    hst.lists(hst.sampled_from(ATOMS), min_size=1, max_size=2, unique=True),
    hst.lists(hst.sampled_from(ATOMS + list(_MACHINE.values())), max_size=3, unique=True),
)
def test_scrub_is_alpha_equal_and_leaves_no_renamable_machine_binder(ctx, t, machine, pool):
    # Some atoms of the term and the context become machine-named, so the
    # context may make machine atoms fresh, as a closed step's extension does.
    amap = {z: _MACHINE[z] for z in machine}
    ctx, t = _rename_ctx(ctx, amap, {}), _rename_term(t, amap, {})
    out = scrub(ctx, t, pool)
    assert alpha_holds(ctx, out, t)
    for u in subterms(out):
        if type(u) is Abstraction and u.atom.is_machine and u.atom not in pool:
            assert not any(z != u.atom and fresh_holds(ctx, z, u.body) for z in pool)
    # Where every machine binder can be renamed into a pool of plain atoms,
    # the binders get the names that scrubbing innermost first gives them.
    old = ref.scrub_innermost_first(ctx, t, pool)
    renamed_all = not any(type(u) is Abstraction and u.atom.is_machine for u in subterms(old))
    if renamed_all and not any(z.is_machine for z in pool):
        assert out == old


def _nested(binders, bottom=AtomTerm(c)):
    """[z0]u([z1]u(...[zk]u(bottom)...)) for the binders z0 ... zk."""
    t = bottom
    for z in reversed(binders):
        t = Abstraction(z, App("u", (t,)))
    return t


def _machine_binders(n):
    return [Atom(f"a${k}") for k in range(n)]


@pytest.mark.parametrize("n", [8, 10, 12])
def test_scrub_of_nested_machine_binders_agrees_with_innermost_first(n):
    t, pool = _nested(_machine_binders(n)), [Atom("p"), Atom("q")]
    assert scrub(EMPTY_CTX, t, pool) == ref.scrub_innermost_first(EMPTY_CTX, t, pool)


def _seeded_subjects(theory, seed, count):
    """Rule instances over the theory's signature, some under a binder, each
    with a random context."""
    rng = random.Random(seed)
    formers = list(theory.signature.arities)
    for _ in range(count):
        rule = rng.choice(theory.rules)
        sigma = Substitution({x: random_term(rng, 3, formers=formers) for x in sorted(unknowns_of(rule.lhs))})
        s = substitute(rule.lhs, sigma)
        yield random_ctx(rng), Abstraction(rng.choice(ATOMS), s) if rng.random() < 0.3 else s


def test_scrub_agrees_with_innermost_first_on_closed_normalizations(monkeypatch):
    # The two rules differ only where the pool holds a machine atom or some
    # machine binder cannot be renamed (the tests above); on closed steps of
    # the bundled theories they agree, so traces stay byte-identical.
    calls = Counter()

    def checked(ctx, t, pool):
        out = scrub(ctx, t, pool)
        assert out == ref.scrub_innermost_first(ctx, t, pool)
        calls["scrub"] += 1
        calls["machine_binders"] += any(type(u) is Abstraction and u.atom.is_machine for u in subterms(t))
        return out

    monkeypatch.setattr(closed_module, "scrub", checked)
    for seed, name in enumerate(("fol", "betaeta", "remark43")):
        theory = _bundled(name)
        for ctx, s in _seeded_subjects(theory, seed, 200):
            for strategy in ("outermost", "innermost"):
                closed_normalize(ctx, s, theory, 12, strategy)
    assert calls["scrub"] > 5000 and calls["machine_binders"] > 300


def test_variant_independence_of_closed_steps():
    """A rule and a renamed copy of it are freshened to different variants
    but make the same steps."""
    rng = random.Random(29)
    stepped = 0
    for _ in range(30):
        s = random_term(rng, depth=3)
        ctx = random_ctx(rng)
        for rule in (BETAETA.rules[0], BETAETA.rules[1], ETA, EXPAND):
            one = closed_rewrite_step(ctx, s, rule)
            two = closed_rewrite_step(ctx, s, _renamed_copy(rule))
            assert step_classes_match(ctx, [st.result for st in one], [st.result for st in two])
            if one:
                assert one[0].freshened != two[0].freshened
                stepped += 1
    assert stepped >= 20


# strengthening (fresh constraints do not change closed rewriting) -------------


def test_strengthening_fresh_context_both_directions():
    rng = random.Random(31)
    checked = 0
    for _ in range(40):
        s = random_term(rng, depth=3)
        ctx = random_ctx(rng)
        fresh = Atom("w")  # not produced by random_term's pool on purpose
        assert fresh not in atoms_of(ctx, s)
        gamma = [(fresh, x) for x in unknowns_of(s) or {X}]
        bigger = ctx.with_pairs(gamma)
        for rule in (BETAETA.rules[1], ETA, EXPAND):
            plain = [st.result for st in closed_rewrite_step(ctx, s, rule)]
            extended = [st.result for st in closed_rewrite_step(bigger, s, rule)]
            assert step_classes_match(bigger, plain, extended)
            checked += bool(plain)
    assert checked >= 5


# normalization and equality ----------------------------------------------------


def test_closed_normalize_beta_eta():
    s = app(lam(a, app(AtomTerm(a), AtomTerm(a))), AtomTerm(b))
    res = closed_normalize(EMPTY_CTX, s, BETAETA)
    assert res.status == "normal_form"
    assert alpha_holds(EMPTY_CTX, res.term, app(AtomTerm(b), AtomTerm(b)))


def test_closed_normalize_of_normal_form():
    res = closed_normalize(EMPTY_CTX, AtomTerm(b), BETAETA)
    assert res.term == AtomTerm(b) and res.trace == [] and res.status == "normal_form"


def test_closed_normalize_eta():
    ctx = FreshnessContext.of((a, X))
    res = closed_normalize(ctx, lam(a, app(var(X), AtomTerm(a))), BETAETA)
    assert alpha_holds(ctx, res.term, var(X))


def test_closed_reachable_collects_alpha_classes():
    s = app(lam(a, app(AtomTerm(a), AtomTerm(a))), AtomTerm(b))
    reach = closed_reachable(EMPTY_CTX, s, BETAETA, fuel=5)
    assert s in reach and app(AtomTerm(b), AtomTerm(b)) in reach
    assert app(lam(c, app(AtomTerm(c), AtomTerm(c))), AtomTerm(b)) in reach  # an alpha-variant of s
    assert AtomTerm(a) not in reach
    assert len(reach) == len(list(reach))
    assert not reach.add(app(lam(c, app(AtomTerm(c), AtomTerm(c))), AtomTerm(b)))
    one = closed_reachable(EMPTY_CTX, s, BETAETA, fuel=1)
    assert app(AtomTerm(b), AtomTerm(b)) not in one and len(one) < len(reach)
    with pytest.raises(ValueError):
        closed_reachable(EMPTY_CTX, s, BETAETA, fuel=0)


def _closed_joinable(ctx, s, t, theory, fuel):
    """Is there a term both sides closed-rewrite to within the fuel?"""
    from_t = closed_reachable(ctx, t, theory, fuel)
    return any(u in from_t for u in closed_reachable(ctx, s, theory, fuel))


def test_closed_joinable():
    assert _closed_joinable(EMPTY_CTX, app(lam(a, AtomTerm(a)), AtomTerm(c)), AtomTerm(c), BETAETA, fuel=3)
    assert not _closed_joinable(EMPTY_CTX, AtomTerm(a), AtomTerm(b), BETAETA, fuel=3)


def test_decide_equal_beta():
    s = app(lam(a, app(AtomTerm(a), AtomTerm(a))), AtomTerm(b))
    d = decide_equal(EMPTY_CTX, s, app(AtomTerm(b), AtomTerm(b)), BETAETA)
    assert d.verdict == "equal"


def test_decide_equal_eta():
    ctx = FreshnessContext.of((a, X))
    d = decide_equal(ctx, lam(a, app(var(X), AtomTerm(a))), var(X), BETAETA)
    assert d.verdict == "equal"


def test_decide_equal_distinct_atoms():
    assert decide_equal(EMPTY_CTX, AtomTerm(a), AtomTerm(b), BETAETA, assume_convergent=True).verdict == "not_equal"
    assert decide_equal(EMPTY_CTX, AtomTerm(a), AtomTerm(b), BETAETA).verdict == "inconclusive"


def test_decide_equal_rejects_non_closed_theories():
    bad = Theory(SIG, (ATOM_AB,))
    with pytest.raises(NotClosedError) as err:
        decide_equal(EMPTY_CTX, AtomTerm(a), AtomTerm(b), bad)
    assert "atom_ab" in str(err.value)


# the Remark 4.3 differential ---------------------------------------------------


def test_general_vs_closed_differential():
    assert list(rewrite_step_general(EMPTY_CTX, var(X), EXPAND)) == []
    closed = closed_rewrite_step(EMPTY_CTX, var(X), EXPAND)
    assert closed and all(alpha_holds(EMPTY_CTX, st.result, App("f", (var(X),))) for st in closed)


def test_closed_preparation_refuses_shared_unknowns(monkeypatch):
    # A freshening that kept the rule's unknowns would let holes share them;
    # the preparation refuses it once instead of matching.  A rule keeps its
    # variant once made, so fresh copies of the rules are compiled under the
    # patched freshening.
    monkeypatch.setattr(closed_module, "freshen_rule", lambda rule, *args, **kw: rule)
    s = lam(a, app(var(X), AtomTerm(a)))
    with pytest.raises(MatchProblemError):
        closed_rewrite_step(FreshnessContext.of((a, X)), s, dataclasses.replace(ETA))
    theory = dataclasses.replace(BETAETA, rules=tuple(dataclasses.replace(r) for r in BETAETA.rules))
    with pytest.raises(MatchProblemError):
        closed_normalize(FreshnessContext.of((a, X)), s, theory)


# kept variants and verdicts --------------------------------------------------


def _bundled(name):
    return parse_theory((resources.files("nomrew") / "theories" / f"{name}.nrw").read_text())


def test_subject_mentioning_the_kept_variant_gets_one_freshened_apart():
    rule = next(r for r in _bundled("fol").rules if r.name == "forall_const")  # a#P |- forall([a]P) -> P
    kept = closed_module._variant(rule)
    (ka,), (kx,) = kept.atoms(), kept.unknowns()
    ctx = parse_context(f"{ka.name}#{kx.name}", allow_machine=True)
    s = parse_term(f"forall([{ka.name}]{kx.name})", allow_machine=True)
    (step,) = closed_rewrite_step(ctx, s, rule)
    assert step.result == var(kx)
    assert step.freshened == freshen_rule(rule, atoms_of(ctx, s), unknowns_of(ctx, s)) != kept
    assert not step.freshened.atoms() & atoms_of(ctx, s) and not step.freshened.unknowns() & unknowns_of(ctx, s)
    assert _fresh_renaming(rule, step.freshened, ctx, s) and not _fresh_renaming(rule, kept, ctx, s)
    assert replay_step(ctx, step, rule)
    assert closed_module._variant(rule) is kept


def _reference_prepare(subject, rule):
    """The closed preparation with nothing kept: the rule freshened against
    each subject, and everything built up front."""
    ctx, s = subject.ctx, subject.term
    subject_atoms, subject_unknowns = atoms_of(ctx, s), unknowns_of(ctx, s)
    frule = freshen_rule(rule, subject_atoms, subject_unknowns)
    extension = FreshnessContext(frozenset((x, y) for x in frule.atoms() for y in subject_unknowns))
    ctx2 = ctx | extension
    used = {x.name for x in rule.atoms() | subject_atoms}
    spares = [Atom(n) for n in fresh_names("p", min(len(rule.atoms()), SPARE_CAP), used)]
    pool = sorted(subject_atoms) + sorted(rule.atoms() - subject_atoms) + spares

    def instances(hole):
        sol = solve_match(MatchProblem(frule.ctx, frule.lhs, ctx2, hole))
        if sol is not None:
            yield ID, sol.sigma, scrub(ctx2, substitute(frule.rhs, sol.sigma), pool)

    return PreparedRule(rule, ctx2, [], instances, freshened=frule, ctx_extension=extension)


def _same_steps(ctx, rules, got, want):
    assert [(st.rule, st.path) for st in got] == [(st.rule, st.path) for st in want]
    assert all(alpha_mod_machine(ctx, g.result, w.result) for g, w in zip(got, want))
    assert all(replay_step(ctx, st, rules[st.rule]) for st in got)
    # The kept variant is the one per-subject freshening picks, names and all.
    assert got == want


# Subjects may mention the machine names of the variants that the rules of
# fol.nrw and betaeta.nrw keep, so that some preparations must fall back.
_KEPT = [_bundled("fol"), _bundled("betaeta")]
_VARIANTS = [freshen_rule(rule) for theory in _KEPT for rule in theory.rules]
_MACHINE_ATOMS = sorted(set().union(*(v.atoms() for v in _VARIANTS)))
_MACHINE_UNKNOWNS = sorted(set().union(*(v.unknowns() for v in _VARIANTS)))
_NAMES = [
    (hst.sampled_from(ATOMS), hst.sampled_from(UNKNOWNS)),
    (hst.sampled_from(ATOMS + _MACHINE_ATOMS), hst.sampled_from(UNKNOWNS + _MACHINE_UNKNOWNS)),
]
_kept_terms = hst.one_of(
    [hst.tuples(hst.just(theory), sig_terms_st(theory, *names)) for theory in _KEPT for names in _NAMES]
)


@settings(max_examples=80, deadline=None)
@given(_kept_terms, contexts_st)
def test_kept_variants_step_as_per_subject_freshening_does(theory_term, ctx):
    theory, s = theory_term
    rules = {rule.name: rule for rule in theory.rules}
    for strategy in ("outermost", "innermost"):
        got = closed_normalize(ctx, s, theory, 4, strategy)
        want = normalize(ctx, s, theory, _reference_prepare, strategy, 4)
        assert got.status == want.status
        _same_steps(ctx, rules, got.trace, want.trace)
    for rule in theory.rules:
        want = rewrite_steps(ctx, s, rule, _reference_prepare)
        _same_steps(ctx, rules, closed_rewrite_step(ctx, s, rule), want)


def test_decide_equal_compiles_each_rule_once(monkeypatch):
    theory = _bundled("fol")
    calls = Counter()

    def count(name):
        real = getattr(closed_module, name)

        def counted(*args, **kw):
            calls[name] += 1
            return real(*args, **kw)

        monkeypatch.setattr(closed_module, name, counted)

    count("freshen_rule")
    count("is_closed_rule")
    pairs = [
        ("", "not(not(P))", "P"),
        ("a#P", "forall([a]P)", "P"),
        ("", "forall([a]and(a,P))", "and(forall([b]b),forall([a]P))"),
        ("", "imp(a,b)", "or(not(a),c)"),
        ("b#Q", "not(forall([b]or(Q,b)))", "exists([c]not(or(Q,c)))"),
    ]
    for i in range(50):
        ctx, s, t = pairs[i % len(pairs)]
        decide_equal(parse_context(ctx), parse_term(s), parse_term(t), theory, assume_convergent=True)
    assert 0 < calls["freshen_rule"] <= len(theory.rules)
    assert 0 < calls["is_closed_rule"] <= len(theory.rules)


# closed steps fire on the subject as written -----------------------------------


def _enumerating_prepare(subject, rule):
    """The closed preparation that also tries every alpha-variant of the
    subject renaming the binders above a position into the general engine's
    permutation universe, as closed rewriting once did."""
    universe, _ = _universe(rule.atoms(), atoms_of(subject.ctx, subject.term), MAX_SUPPORT)
    return dataclasses.replace(_reference_prepare(subject, rule), universe=universe)


def _classes_match(ctx, s, got, want):
    """Do two lists of results cover the same classes, compared under ctx
    extended with freshness of every machine atom in either list for every
    unknown of (ctx, s)?  Results may keep a freshened variant's atoms in
    suspensions, such as (b b$0)(c d).Z, that only the extension makes
    collapse, so the classes are compared under it."""
    machine = set().union(*map(machine_atoms, [*got, *want]))
    ext = ctx.with_pairs((m, x) for m in machine for x in unknowns_of(ctx, s))
    return step_classes_match(ext, got, want)


def _under_binders(binders_term):
    binders, t = binders_term
    for atom in reversed(binders):
        t = Abstraction(atom, t)
    return t


_ALL_BUNDLED = [_bundled(name) for name in ("betaeta", "fol", "nonclosed", "remark43")]
_subjects = hst.one_of([
    hst.tuples(hst.just(theory), hst.tuples(hst.lists(atoms_st, max_size=2), sig_terms_st(theory)).map(_under_binders))
    for theory in _ALL_BUNDLED
])


@settings(max_examples=60, deadline=None)
@given(_subjects, contexts_st)
def test_closed_steps_of_the_subject_cover_those_of_its_alpha_variants(theory_term, ctx):
    theory, s = theory_term
    for rule in theory.rules:
        got = closed_rewrite_step(ctx, s, rule)
        want = rewrite_steps(ctx, s, rule, _enumerating_prepare)
        assert all(st.variant == s for st in got)
        assert _classes_match(ctx, s, [st.result for st in got], [st.result for st in want])
        # Replay still accepts a closed step fired on an alpha-variant.
        assert all(replay_step(ctx, st, rule) for st in want)
    got = list(closed_reachable(ctx, s, theory, 2))
    want = list(reachable(ctx, s, theory, _enumerating_prepare, 2))
    assert _classes_match(ctx, s, got, want)


@settings(max_examples=60, deadline=None)
@given(_subjects, contexts_st)
@example((_bundled("fol"), parse_term("and(exists([a]d),(a b).Z)")), parse_context("a#Z, b#Z"))
def test_closed_steps_keep_every_subterm_off_the_path_to_the_hole(theory_term, ctx):
    # The step rebuilds the path down to the hole and scrubs only what it
    # puts there, so under any context, and with permuted suspensions that
    # the context makes redundant, as (a b).Z above, each subterm neither
    # above nor inside the hole is the subject's own object.
    theory, s = theory_term
    for rule in theory.rules:
        for step in closed_rewrite_step(ctx, s, rule):
            for path, u in ref.positions(s):
                n = min(len(path), len(step.path))
                if path[:n] != step.path[:n]:
                    assert ref.subterm_at(step.result, path) is u


def _repeated_steps(steps):
    """How many steps repeat the (path, result, pi, theta) of an earlier one."""
    keys = [(st.path, st.result, st.perm, st.subst) for st in steps]
    return len(keys) - len(set(keys))


# Binders drawn from two atoms, so that most subjects shadow one, as [a][a]t.
_shadowed = hst.one_of([
    hst.tuples(hst.just(theory), hst.tuples(hst.lists(hst.sampled_from([a, b]), max_size=2), sig_terms_st(theory)))
    .map(lambda tb: (tb[0], _under_binders(tb[1])))
    for theory in _ALL_BUNDLED
])


@settings(max_examples=150, deadline=None)
@given(_shadowed, contexts_st)
def test_rewrite_steps_lists_each_step_once(theory_term, ctx):
    theory, s = theory_term
    for rule in theory.rules:
        for prepare in (partial(_prepare_general, sides={}), closed_module._prepare_closed):
            assert _repeated_steps(rewrite_steps(ctx, s, rule, prepare)) == 0


def _repeating_prepare(subject, rule):
    """`_enumerating_prepare` over a universe that lists an atom twice, as
    one would that does not take the rule's atoms out of the subject's."""
    universe = sorted(rule.atoms()) + sorted(atoms_of(subject.ctx, subject.term))
    return dataclasses.replace(_reference_prepare(subject, rule), universe=universe)


def test_a_scrubbing_alpha_variant_search_repeats_steps():
    # The check above can fail: a variant search over the universe [a, a, b]
    # renames a binder of [b][b][a]a to a twice, and so fires two steps twice.
    rule = next(r for r in _bundled("nonclosed").rules if r.name == "strip")
    s = parse_term("[b][b][a]a")
    assert _repeated_steps(rewrite_steps(EMPTY_CTX, s, rule, _repeating_prepare)) == 2
    assert _repeated_steps(rewrite_steps(EMPTY_CTX, s, rule, _enumerating_prepare)) == 0
    assert _repeated_steps(rewrite_steps(EMPTY_CTX, s, rule, closed_module._prepare_closed)) == 0


def test_closed_steps_do_not_depend_on_the_rule_atom_names():
    # An alpha-variant search would rename the binder c to the spare p$0,
    # the very name f(p) -> g is freshened to, and fire the rule under [c],
    # where f(q) -> g fires nowhere.
    sig = Signature.of({"f": 1, "g": 0, "h": 1})
    for text in ("[c]f(c)", "h([c]f(c))"):
        s = parse_term(text, sig)
        for name in ("p", "q"):
            rule = RewriteRule("r", EMPTY_CTX, App("f", (AtomTerm(Atom(name)),)), App("g", ()))
            assert list(closed_rewrite_step(EMPTY_CTX, s, rule)) == []
            assert closed_normalize(EMPTY_CTX, s, Theory(sig, (rule,))).trace == []


def test_replay_rejects_a_freshened_name_in_the_variant():
    # The unsound step an alpha-variant search would report for [c]f(c).
    p0 = Atom("p$0")
    rule = RewriteRule("r", EMPTY_CTX, App("f", (AtomTerm(Atom("p")),)), App("g", ()))
    fr = freshen_rule(rule)
    assert fr.lhs == App("f", (AtomTerm(p0),))
    source = Abstraction(c, App("f", (AtomTerm(c),)))
    variant = Abstraction(p0, App("f", (AtomTerm(p0),)))
    step = RewriteStep(
        "r", ("body",), ID, Substitution(), source, variant, Abstraction(c, App("g", ())), "closed", fr, EMPTY_CTX
    )
    assert _fresh_renaming(rule, fr, EMPTY_CTX, source)
    assert not _fresh_renaming(rule, fr, EMPTY_CTX, source, variant)
    assert not replay_step(EMPTY_CTX, step, rule)


def _beta_var_under(n, redex=app(lam(a, AtomTerm(a)), AtomTerm(c))):
    t = redex
    for i in range(n):
        t = lam(Atom(f"x{i % 4}"), t)
    return t


def test_closed_step_under_binders_lists_the_subject_as_written():
    # Listing a step per alpha-variant gives 320 steps under 4 binders and
    # 81,920 under 8.
    for n in (5, 8):
        s = _beta_var_under(n)
        (step,) = closed_rewrite_step(EMPTY_CTX, s, BETAETA.rules[1])
        assert step.path == (0, "body") * n
        assert step.variant == s and step.result == _beta_var_under(n, AtomTerm(c))


def test_closed_reachable_answers_on_a_200_binder_spine():
    # Terms compare by their printed text: a deeper == would recurse.
    s = _beta_var_under(200)
    reached = closed_reachable(EMPTY_CTX, s, BETAETA, fuel=2)
    assert [pretty(t) for t in reached] == [pretty(s), pretty(_beta_var_under(200, AtomTerm(c)))]
