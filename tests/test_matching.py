import random
from collections import Counter
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nomrew.alpha
import nomrew.matching
import nomrew.terms
import reference_walkers as ref
from nomrew import (
    ID,
    Abstraction,
    App,
    Atom,
    AtomTerm,
    EMPTY_CTX,
    FreshnessContext,
    MatchProblem,
    MatchProblemError,
    Substitution,
    Suspension,
    Unknown,
    act,
    freshen_rule,
    fresh_holds,
    is_solution,
    solve_match,
    subterms,
    substitute,
    swap,
    var,
)
from nomrew.rewrite import _rename_rule
from nomrew.syntax import parse_theory
from oracles import OracleOverflow, enumerate_solutions_small, solution_by_definition
from strategies import (
    ATOMS,
    alpha_perturb,
    atoms_st,
    contexts_st,
    perms_st,
    random_ctx,
    random_perm,
    random_subst,
    random_term,
    substs_st,
    terms_st,
)

a, b, c = Atom("a"), Atom("b"), Atom("c")
X, Y, Z = Unknown("X"), Unknown("Y"), Unknown("Z")


def test_shared_unknowns_rejected():
    with pytest.raises(MatchProblemError):
        MatchProblem(EMPTY_CTX, var(X), EMPTY_CTX, App("f", (var(X),)))


def test_match_variable_to_atom():
    p = MatchProblem(EMPTY_CTX, var(X), EMPTY_CTX, AtomTerm(a))
    assert solve_match(p).sigma == Substitution({X: AtomTerm(a)})


def test_match_under_renamed_binder():
    p = MatchProblem(EMPTY_CTX, Abstraction(a, var(X)), EMPTY_CTX, Abstraction(b, AtomTerm(b)))
    sol = solve_match(p)
    assert sol.sigma == Substitution({X: AtomTerm(a)})


def test_match_suspension_inverts():
    p = MatchProblem(EMPTY_CTX, Suspension(swap(a, b), X), EMPTY_CTX, App("f", (AtomTerm(a),)))
    assert solve_match(p).sigma == Substitution({X: App("f", (AtomTerm(b),))})


def test_match_fails_on_unsatisfiable_freshness():
    p = MatchProblem(FreshnessContext.of((a, X)), var(X), EMPTY_CTX, AtomTerm(a))
    assert solve_match(p) is None


def test_match_duplicate_unknown_consistency():
    pat = App("g", (var(X), var(X)))
    assert solve_match(MatchProblem(EMPTY_CTX, pat, EMPTY_CTX, App("g", (AtomTerm(a), AtomTerm(a))))) is not None
    assert solve_match(MatchProblem(EMPTY_CTX, pat, EMPTY_CTX, App("g", (AtomTerm(a), AtomTerm(b))))) is None


def test_match_duplicate_unknown_up_to_alpha():
    pat = App("g", (var(X), var(X)))
    target = App("g", (Abstraction(a, AtomTerm(a)), Abstraction(b, AtomTerm(b))))
    assert solve_match(MatchProblem(EMPTY_CTX, pat, EMPTY_CTX, target)) is not None


def test_match_target_unknowns_pass_through():
    p = MatchProblem(
        FreshnessContext.of((a, X)), App("f", (var(X),)),
        FreshnessContext.of((a, Y)), App("f", (var(Y),)),
    )
    sol = solve_match(p)
    assert sol.sigma == Substitution({X: var(Y)})
    assert is_solution(p, sol.sigma)


def test_context_only_unknowns_are_satisfiable():
    # Y appears only in the pattern context: any image fresh for `a` works.
    p = MatchProblem(FreshnessContext.of((a, Y)), var(X), EMPTY_CTX, AtomTerm(a))
    sol = solve_match(p)
    assert sol is not None and is_solution(p, sol.sigma)


def test_is_solution_conditions():
    p = MatchProblem(EMPTY_CTX, var(X), EMPTY_CTX, AtomTerm(a))
    assert is_solution(p, Substitution({X: AtomTerm(a)}))
    assert not is_solution(p, Substitution({X: AtomTerm(b)}))
    assert not is_solution(p, Substitution({X: AtomTerm(a), Z: AtomTerm(b)}))  # domain too big


def test_oracle_contains_solution():
    p = MatchProblem(EMPTY_CTX, var(X), EMPTY_CTX, AtomTerm(a))
    assert Substitution({X: AtomTerm(a)}) in enumerate_solutions_small(p)


def test_oracle_empty_when_unsatisfiable():
    p = MatchProblem(FreshnessContext.of((a, X)), var(X), EMPTY_CTX, AtomTerm(a))
    assert enumerate_solutions_small(p) == []


def test_oracle_solutions_all_verify():
    p = MatchProblem(EMPTY_CTX, Abstraction(a, var(X)), EMPTY_CTX, Abstraction(b, AtomTerm(b)))
    sols = enumerate_solutions_small(p)
    assert sols and all(is_solution(p, s) for s in sols)


def test_oracle_overflow_is_loud():
    big = AtomTerm(a)
    for _ in range(13):
        big = App("u", (big,))
    with pytest.raises(OracleOverflow):
        enumerate_solutions_small(MatchProblem(EMPTY_CTX, var(X), EMPTY_CTX, big))


APART = {X: var(Unknown("P")), Y: var(Unknown("Q")), Z: var(Unknown("R"))}


def _rename_unknowns_apart(t):
    """Pattern-side copies of X,Y,Z so pattern and target stay disjoint."""
    return substitute(t, Substitution(APART))


def test_solver_sound_on_random_solvable_problems():
    # Build solvable problems by generalising random subterms of the target
    # into fresh pattern unknowns.
    rng = random.Random(7)
    hits = 0
    for _ in range(300):
        target = random_term(rng, depth=4)
        delta = random_ctx(rng)
        pattern = _generalise(rng, target)
        pattern = _rename_unknowns_apart(pattern)
        p = MatchProblem(EMPTY_CTX, pattern, delta, target)
        sol = solve_match(p)
        if sol is not None:
            hits += 1
            assert is_solution(p, sol.sigma)  # solve_match asserts this too
    assert hits > 150  # most generalisations must match


def _generalise(rng, t, fresh=None):
    fresh = fresh if fresh is not None else iter("PQR")
    if rng.random() < 0.3:
        try:
            return var(Unknown(next(fresh)))
        except StopIteration:
            return t
    match t:
        case Abstraction(atom, body):
            return Abstraction(atom, _generalise(rng, body, fresh))
        case App(f, args):
            return App(f, tuple(_generalise(rng, u, fresh) for u in args))
        case _:
            return t


def test_solution_stability_under_alpha():
    # From a verified solution, any pointwise alpha-equal substitution is a
    # solution too.
    rng = random.Random(13)
    checked = 0
    for _ in range(200):
        target = random_term(rng, depth=4)
        delta = random_ctx(rng)
        pattern = _rename_unknowns_apart(_generalise(rng, target))
        p = MatchProblem(EMPTY_CTX, pattern, delta, target)
        sol = solve_match(p)
        if sol is None:
            continue
        perturbed = Substitution({x: alpha_perturb(rng, delta, t) for x, t in sol.sigma.items()})
        assert is_solution(p, perturbed)
        checked += 1
    assert checked > 100


# -- the solution check, read in one walk, against its definition ------------


H = Unknown("H")


def _with_own_subterm(rng, t, pi):
    """t with the subterm s0 at the end of a random path replaced by pi.H
    and the binders on the path each renamed half the time; and s0."""
    kind = type(t)
    if kind is Abstraction and rng.random() < 0.8:
        body, s0 = _with_own_subterm(rng, t.body, pi)
        return Abstraction(rng.choice(ATOMS) if rng.random() < 0.5 else t.atom, body), s0
    if kind is App and t.args and rng.random() < 0.8:
        i = rng.randrange(len(t.args))
        arg, s0 = _with_own_subterm(rng, t.args[i], pi)
        return App(t.former, (*t.args[:i], arg, *t.args[i + 1:])), s0
    return Suspension(pi, H), t


def _agree(problem, sigma):
    verdict = is_solution(problem, sigma)
    assert verdict == solution_by_definition(problem, sigma)
    return verdict


def test_is_solution_agrees_with_its_definition():
    # Solutions found by solve_match, each also perturbed: one image with a
    # leaf or binder changed, one image mentioning a pattern unknown (which
    # substitution leaves as it is), an extra domain unknown, and an image
    # that breaks a freshness constraint of the pattern.
    rng = random.Random(17)
    outcomes = Counter()
    for _ in range(1500):
        target, delta = random_term(rng, depth=4), random_ctx(rng)
        pattern = _rename_unknowns_apart(_generalise(rng, target))
        unknowns = sorted({u.unknown for u in subterms(pattern) if type(u) is Suspension})
        pattern_ctx = FreshnessContext(frozenset((atom, x) for atom in ATOMS for x in unknowns if rng.random() < 0.2))
        problem = MatchProblem(pattern_ctx, pattern, delta, target)
        sol = solve_match(problem)
        if sol is None:
            continue
        sigma = dict(sol.sigma)
        outcomes["solved", _agree(problem, sol.sigma)] += 1
        for x in sigma:
            outcomes["near miss", _agree(problem, Substitution({**sigma, x: _mutate(rng, sigma[x])}))] += 1
            image = App("g", (sigma[x], var(rng.choice(unknowns))))
            outcomes["unknown in image", _agree(problem, Substitution({**sigma, x: image}))] += 1
        outcomes["extra domain", _agree(problem, Substitution({**sigma, X: AtomTerm(a)}))] += 1
        for atom, x in pattern_ctx:
            image = App("g", (sigma.get(x, var(x)), AtomTerm(atom)))
            outcomes["not fresh", _agree(problem, Substitution({**sigma, x: image}))] += 1
    assert outcomes["solved", True] > 800 and not outcomes["solved", False]
    assert outcomes["near miss", True] > 300 and outcomes["near miss", False] > 150
    assert outcomes["unknown in image", False] > 500
    assert outcomes["extra domain", False] > 800 and not outcomes["extra domain", True]
    assert outcomes["not fresh", False] > 200 and not outcomes["not fresh", True]
    # An image naming a pattern unknown stays as it is, as substitution
    # leaves it: g(P, Q) by P -> Q, Q -> a is g(Q, a), not g(a, a).
    Q = Unknown("Q")
    problem = MatchProblem(EMPTY_CTX, App("g", (var(P), var(Q))), EMPTY_CTX, App("g", (AtomTerm(a), AtomTerm(a))))
    assert not _agree(problem, Substitution({P: var(Q), Q: AtomTerm(a)}))


def test_is_solution_agrees_with_its_definition_on_own_subterm_images():
    # The image of H is the target's own subterm under the pattern's
    # binders, which are renamed half the time, and H is suspended under a
    # random permutation half the time: the walk may skip such an image
    # only when the two sides' binders give its atoms the same levels and
    # the permutation moves none of them.
    rng = random.Random(23)
    outcomes = Counter()
    for _ in range(3000):
        target, delta = random_term(rng, depth=5), random_ctx(rng)
        pi = random_perm(rng) if rng.random() < 0.5 else ID
        pattern, s0 = _with_own_subterm(rng, target, pi)
        pattern_ctx = FreshnessContext(frozenset((atom, H) for atom in ATOMS if rng.random() < 0.2))
        problem = MatchProblem(pattern_ctx, _rename_unknowns_apart(pattern), delta, target)
        verdict = _agree(problem, Substitution({H: s0}))
        outcomes[verdict, pi.is_identity] += 1
    assert min(outcomes.values()) > 100, outcomes


def test_is_solution_builds_no_instance_for_own_subterm_images(monkeypatch):
    # Under binders named alike every image solve_match gives is the
    # target's own subterm, and the check reads each in place: it neither
    # substitutes nor rebuilds.
    calls = Counter()
    for name in ("substitute", "_rebuild"):
        real = getattr(nomrew.terms, name)
        monkeypatch.setattr(nomrew.terms, name, lambda *args, real=real, name=name: calls.update([name]) or real(*args))
    deep = App("g", (App("u", (App("u", (AtomTerm(b),)),)), AtomTerm(c)))
    target = Abstraction(a, App("g", (deep, Abstraction(b, App("g", (AtomTerm(a), Abstraction(c, AtomTerm(b))))))))
    pattern = Abstraction(a, App("g", (var(P), Abstraction(b, App("g", (var(Unknown("Q")), var(Unknown("R"))))))))
    alike = MatchProblem(EMPTY_CTX, pattern, EMPTY_CTX, target)
    sigma = solve_match(alike).sigma
    assert sigma[P] is deep and calls == Counter()
    assert is_solution(alike, sigma) and calls == Counter()
    # With the binder above renamed, the target's own subterm is not P's
    # image: its deep leaf a, bound by [a] in the target, would be free in
    # the instance.  The two sides' levels differ, so the image is walked
    # and the leaf is caught.
    deep = App("g", (App("u", (App("u", (AtomTerm(a),)),)), AtomTerm(c)))
    target = Abstraction(a, App("g", (deep, AtomTerm(c))))
    problem = MatchProblem(EMPTY_CTX, Abstraction(b, App("g", (var(P), AtomTerm(c)))), EMPTY_CTX, target)
    assert solve_match(problem).sigma == Substitution({P: act(swap(a, b), deep)})
    wrong = Substitution({P: deep})
    assert not is_solution(problem, wrong) and not solution_by_definition(problem, wrong)
    # Under more than _SKIP_DEPTH binders the levels are not compared: the
    # images are walked, still in place, with the same verdicts.
    calls.clear()
    for problem, sigma, verdict in ((alike, sigma, True), (problem, wrong, False)):
        pattern, target = problem.pattern, problem.target
        for i in range(nomrew.alpha._SKIP_DEPTH + 4):
            pattern, target = Abstraction(Atom(f"z{i}"), pattern), Abstraction(Atom(f"z{i}"), target)
        assert is_solution(MatchProblem(EMPTY_CTX, pattern, EMPTY_CTX, target), sigma) is verdict
    assert calls == Counter()


# -- the pending permutation against the eager copy ---------------------------


def _same_answer(problem):
    got, want = solve_match(problem), ref.solve_match(problem)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.sigma == want.sigma
    return got is not None


@settings(max_examples=300, deadline=None)
@given(terms_st, terms_st, substs_st, contexts_st, contexts_st, st.randoms(use_true_random=False))
def test_solve_match_agrees_with_eager_reference(t, other, sigma, pctx, tctx, rng):
    # The pattern is t with its unknowns renamed apart; the targets are an
    # unrelated term and an instance of t whose binders are renamed where
    # freshness allows, so binders mismatch.
    pattern = _rename_unknowns_apart(t)
    pattern_ctx = FreshnessContext(frozenset((a, APART[x].unknown) for a, x in pctx))
    for target in (other, alpha_perturb(rng, tctx, substitute(t, sigma))):
        _same_answer(MatchProblem(pattern_ctx, pattern, tctx, target))


def _mutate(rng, t):
    """t with one atom leaf or binder on a random path replaced at random."""
    kind = type(t)
    if kind is AtomTerm:
        return AtomTerm(rng.choice(ATOMS))
    if kind is Abstraction:
        atom = t.atom if rng.random() < 0.7 else rng.choice(ATOMS)
        return Abstraction(atom, _mutate(rng, t.body))
    if kind is App and t.args:
        i = rng.randrange(len(t.args))
        return App(t.former, (*t.args[:i], _mutate(rng, t.args[i]), *t.args[i + 1:]))
    return t


def test_solve_match_agrees_with_eager_reference_on_near_instances():
    # Instances with binders renamed where freshness allows, and the same
    # with one leaf or binder changed, which mostly breaks them deep inside,
    # after the walk has hidden and restored pending checks on the way.
    rng = random.Random(11)
    hits = misses = 0
    for _ in range(1500):
        t, tctx = random_term(rng, depth=5), random_ctx(rng)
        pattern_ctx = FreshnessContext(frozenset((atom, APART[x].unknown) for atom, x in random_ctx(rng)))
        instance = alpha_perturb(rng, tctx, substitute(t, random_subst(rng)))
        for target in (instance, _mutate(rng, instance)):
            if _same_answer(MatchProblem(pattern_ctx, _rename_unknowns_apart(t), tctx, target)):
                hits += 1
            else:
                misses += 1
    assert hits > 300 and misses > 300


def test_a_pattern_binder_hides_a_pending_check_for_its_body_only():
    # [a]f(b, [b]b) against [b]f(a, [b]b): the mismatched binders ask
    # b # f(b, [b]b), which the inner [b] hides only in its own body, so the
    # free b fails it whichever argument the walk reads first.
    inner = Abstraction(b, AtomTerm(b))
    for args in ((AtomTerm(b), inner), (inner, AtomTerm(b))):
        target_args = tuple(AtomTerm(a) if u == AtomTerm(b) else u for u in args)
        problem = MatchProblem(EMPTY_CTX, Abstraction(a, App("f", args)), EMPTY_CTX, Abstraction(b, App("f", target_args)))
        assert solve_match(problem) is None
    # With X where the free b was, X's image would be b, which the check forbids.
    pattern = Abstraction(a, App("f", (var(X), inner)))
    target = Abstraction(b, App("f", (AtomTerm(a), inner)))
    assert solve_match(MatchProblem(EMPTY_CTX, pattern, EMPTY_CTX, target)) is None


def _bundled_rules():
    files = sorted(f for f in (resources.files("nomrew") / "theories").iterdir() if f.name.endswith(".nrw"))
    return [rule for f in files for rule in parse_theory(f.read_text()).rules]


def test_solve_match_agrees_with_eager_reference_on_bundled_rules():
    # Each lhs, freshened as the closed engine does and with only its
    # unknowns renamed as the general engine does, against every subterm of
    # every bundled rule.
    rules = _bundled_rules()
    hits = 0
    for rule in rules:
        apart = _rename_rule(rule, {}, {x: Unknown(x.name + "$") for x in rule.unknowns()})
        fresh = freshen_rule(rule)
        for pattern in (apart, fresh):
            for other in rules:
                extension = {(a, x) for a in fresh.atoms() for x in other.unknowns()}
                for target in [*subterms(other.lhs), *subterms(other.rhs)]:
                    hits += _same_answer(MatchProblem(pattern.ctx, pattern.lhs, other.ctx.with_pairs(extension), target))
    assert hits > 100


def _binder_chain(n):
    """[a0]...[a_n-1]f(X, a0) against [b0]...[b_n-1]f(c, b0): n mismatched
    binders over one suspension."""
    pattern, target = App("f", (var(X), AtomTerm(Atom("a0")))), App("f", (AtomTerm(c), AtomTerm(Atom("b0"))))
    for i in reversed(range(n)):
        pattern, target = Abstraction(Atom(f"a{i}"), pattern), Abstraction(Atom(f"b{i}"), target)
    return MatchProblem(EMPTY_CTX, pattern, EMPTY_CTX, target)


@pytest.mark.parametrize("n", [10, 100])
def test_mismatched_binders_never_permute_the_pattern(n, monkeypatch):
    calls = []
    act = nomrew.matching.act
    monkeypatch.setattr(nomrew.matching, "act", lambda pi, t: calls.append(pi) or act(pi, t))
    sol = solve_match(_binder_chain(n))
    assert sol.sigma == Substitution({X: AtomTerm(c)})
    assert len(calls) == 1  # the suspension's binding only


# -- a repeated unknown is reconciled against its first target ----------------

P = Unknown("P")


@settings(max_examples=300, deadline=None)
@given(terms_st, terms_st, perms_st, perms_st, atoms_st, atoms_st, contexts_st, contexts_st,
       st.randoms(use_true_random=False))
def test_repeated_unknowns_agree_with_eager_reference(t, other, pi, bare_pi, x, z, pctx, tctx, rng):
    # g([x]pi.P, g([x]pi.P, bare_pi.P)): P twice under a binder and once
    # bare.  The targets are instances by P -> t with both binders renamed
    # to z where freshness allows (the two occurrences under them reach P
    # with equal pending permutations, the bare one with another), with
    # binders renamed at random (mostly differently), and with an unrelated
    # bare occurrence.
    under_x = Abstraction(x, Suspension(pi, P))
    pattern = App("g", (under_x, App("g", (under_x, Suspension(bare_pi, P)))))
    pattern_ctx = FreshnessContext(frozenset((atom, P) for atom, _ in pctx))
    instance = substitute(pattern, Substitution({P: t}))
    (left, (right, bare)) = instance.args[0], instance.args[1].args

    def to_z(u):
        return Abstraction(z, act(swap(z, u.atom), u.body)) if fresh_holds(tctx, z, u.body) else u

    alike = App("g", (to_z(left), App("g", (to_z(right), bare))))
    unrelated = App("g", (left, App("g", (right, other))))
    found = _same_answer(MatchProblem(pattern_ctx, pattern, tctx, alike))
    assert found or pattern_ctx  # an instance matches when the pattern context asks nothing
    for target in (alpha_perturb(rng, tctx, instance), unrelated):
        _same_answer(MatchProblem(pattern_ctx, pattern, tctx, target))


def test_repeated_unknown_is_permuted_once(monkeypatch):
    # [a]g(X,[b]h(Y,a),X) against the instance with a renamed to e and b to
    # f: both occurrences of X reach it under (e a), so X's image is built
    # once, and Y's once; the eager copy made one per occurrence.
    e, f = Atom("e"), Atom("f")
    ix, iy = App("w", (AtomTerm(a), AtomTerm(c))), Abstraction(c, App("k", (AtomTerm(b), AtomTerm(a))))
    pattern = Abstraction(a, App("g", (var(X), Abstraction(b, App("h", (var(Y), AtomTerm(a)))), var(X))))
    ea, fb = swap(e, a), swap(f, b)
    target = Abstraction(e, App("g", (
        act(ea, ix), Abstraction(f, App("h", (act(ea, act(fb, iy)), AtomTerm(e)))), act(ea, ix))))
    calls = []
    real = nomrew.matching.act
    monkeypatch.setattr(nomrew.matching, "act", lambda pi, t: calls.append(pi) or real(pi, t))
    sol = solve_match(MatchProblem(EMPTY_CTX, pattern, EMPTY_CTX, target))
    assert sol.sigma == Substitution({X: ix, Y: iy})
    assert len([pi for pi in calls if pi != ID]) == 2
