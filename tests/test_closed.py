import random

import pytest

import nomrew.closed as closed_module
from nomrew import (
    Abstraction,
    App,
    Atom,
    AtomTerm,
    EMPTY_CTX,
    FreshenedVariant,
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
    closed_joinable,
    closed_normalize,
    closed_reachable,
    closed_rewrite_step,
    decide_equal,
    freshen_rule,
    freshen_term_in_context,
    is_closed,
    is_closed_rule,
    is_solution,
    replay_closed_step,
    replay_step,
    rewrite_step_general,
    scrub,
    substitute,
    swap,
    unknowns_of,
    var,
)
from nomrew.rewrite import _rename_rule
from nomrew.terms import MACHINE_MARK
from strategies import alpha_mod_machine, random_ctx, random_term, step_classes_match

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
    fv = freshen_term_in_context(EMPTY_CTX, t)
    _, renamed = fv.renamed
    assert isinstance(renamed, Abstraction)
    outer, inner = renamed.atom, renamed.body.atom
    assert outer != inner
    assert outer.is_machine and inner.is_machine
    assert renamed.body.body.unknown.is_machine


def test_freshen_constraint():
    fv = freshen_term_in_context(FreshnessContext.of((a, X)), var(X))
    ctx, t = fv.renamed
    (fa, fx), = list(ctx)
    assert fa.is_machine and fx.is_machine
    assert t.unknown == fx


def test_freshen_never_identifies_atoms():
    rng = random.Random(3)
    for _ in range(100):
        t = random_term(rng, depth=4)
        ctx = random_ctx(rng)
        # Machine names on the term's own stems, which freshening must skip.
        skip = rng.randint(0, 3)
        taken = {Atom(f"{x.name}{MACHINE_MARK}{n}") for x in atoms_of(ctx, t) for n in range(skip)}
        fv = freshen_term_in_context(ctx, t, taken)
        assert len(set(fv.atom_map.values())) == len(fv.atom_map)
        assert len(set(fv.unknown_map.values())) == len(fv.unknown_map)
        originals = atoms_of(ctx, t) | unknowns_of(ctx, t) | taken
        images = set(fv.atom_map.values()) | set(fv.unknown_map.values())
        assert not originals & images


def test_freshen_rule_is_structure_preserving():
    fv = freshen_rule(ETA)
    renamed = fv.renamed
    assert substitute(renamed.lhs, _inverse_subst(fv)) is not None  # shape sanity
    assert renamed.name == ETA.name
    assert len(renamed.ctx) == len(ETA.ctx)
    # applying the recorded bijections to the original reproduces the variant
    from nomrew.closed import _rename_ctx, _rename_term

    assert _rename_term(ETA.lhs, fv.atom_map, fv.unknown_map) == renamed.lhs
    assert _rename_term(ETA.rhs, fv.atom_map, fv.unknown_map) == renamed.rhs
    assert _rename_ctx(ETA.ctx, fv.atom_map, fv.unknown_map) == renamed.ctx


def _inverse_subst(fv):
    from nomrew import Substitution

    return Substitution({x2: var(x1) for x1, x2 in fv.unknown_map.items()})


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
        assert freshen_rule(copy).renamed != freshen_rule(rule).renamed
        assert is_closed_rule(copy).closed == is_closed_rule(rule).closed
    assert is_closed_rule(_renamed_copy(ETA)).closed
    assert not is_closed_rule(_renamed_copy(ATOM_AB)).closed


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
                assert replay_closed_step(ctx, st) and replay_step(ctx, st, rule)


def test_closed_replay_checks_the_freshening():
    from dataclasses import replace

    ctx = FreshnessContext.of((a, X))
    st = next(iter(closed_rewrite_step(ctx, var(X), EXPAND)))
    assert replay_step(ctx, st, EXPAND) and replay_closed_step(ctx, st)
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


def test_closed_joinable():
    assert closed_joinable(EMPTY_CTX, app(lam(a, AtomTerm(a)), AtomTerm(c)), AtomTerm(c), BETAETA, fuel=3)
    assert not closed_joinable(EMPTY_CTX, AtomTerm(a), AtomTerm(b), BETAETA, fuel=3)


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
    # the preparation refuses it once instead of matching.
    monkeypatch.setattr(closed_module, "freshen_rule", lambda rule, *args, **kw: FreshenedVariant(rule, {}, {}))
    s = lam(a, app(var(X), AtomTerm(a)))
    with pytest.raises(MatchProblemError):
        closed_rewrite_step(FreshnessContext.of((a, X)), s, ETA)
    with pytest.raises(MatchProblemError):
        closed_normalize(FreshnessContext.of((a, X)), s, BETAETA)
