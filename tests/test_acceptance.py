"""Acceptance suite: one test per criterion, each printing a pass/fail line
(run with -s to see them) and enforcing its stated wall-clock budget."""

import itertools
import json
import random
import time
from contextlib import contextmanager
from importlib import resources

from nomrew import (
    Abstraction,
    App,
    Atom,
    AtomTerm,
    EMPTY_CTX,
    FreshnessContext,
    ID,
    Substitution,
    Suspension,
    Unknown,
    act,
    alpha_holds,
    atoms_of,
    check_alpha,
    closed_normalize,
    closed_rewrite_step,
    fresh_holds,
    is_closed_rule,
    is_solution,
    rewrite_closure_reachable,
    replay_step,
    rewrite_step_general,
    solve_match,
    substitute,
    swap,
    symmetric_search,
    term_depth,
    unknowns_of,
    var,
)
from nomrew.cli import main as cli_main
from nomrew.matching import MatchProblem
from nomrew.syntax import parse_term, parse_theory
from oracles import alpha_oracle_ground, enumerate_solutions_small, nameless_form
from strategies import (
    alpha_mod_machine,
    alpha_perturb,
    random_ctx,
    random_perm,
    random_subst,
    random_term,
    step_classes_match,
)

a, b, c = Atom("a"), Atom("b"), Atom("c")
X, Y, Z = Unknown("X"), Unknown("Y"), Unknown("Z")


def load_theory(name):
    text = (resources.files("nomrew") / "theories" / f"{name}.nrw").read_text()
    return parse_theory(text)


BETAETA = load_theory("betaeta")
NONCLOSED = load_theory("nonclosed")
REMARK43 = load_theory("remark43")
FOL = load_theory("fol")


@contextmanager
def criterion(number, description, budget):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL  {description}")
        raise
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s, budget {budget}s"
    print(f"[criterion {number:2d}] PASS  {description}  ({elapsed:.2f}s)")


def test_criterion_01_beta_eta_reduction(capsys):
    with criterion(1, "closed normalize app(lam([a]app(a,a)),b) -> app(b,b)", budget=1.0):
        s = parse_term("app(lam([a]app(a,a)),b)", BETAETA.signature)
        want = parse_term("app(b,b)", BETAETA.signature)
        res = closed_normalize(EMPTY_CTX, s, BETAETA)
        assert res.status == "normal_form"
        assert alpha_holds(EMPTY_CTX, res.term, want)
        code = cli_main([
            "normalize", str(resources.files("nomrew") / "theories" / "betaeta.nrw"),
            "--term", "app(lam([a]app(a,a)),b)", "--closed",
        ])
        out = capsys.readouterr().out
        assert code == 0 and out.splitlines()[0] == "app(b, b)"


def test_criterion_02_permutation_in_rew(capsys):
    # The paper example: under [a]X -> X the term [b][a]a rewrites to [a]b,
    # through its alpha-variant [a][b]b with a non-identity permutation.
    # [a]b is itself reducible, so this is a one-step/reachability claim,
    # not a claim about the final normal form.
    with criterion(2, "[b][a]a reaches [a]b under [a]X -> X with non-identity pi", budget=1.0):
        strip = NONCLOSED.rules[1]
        s = parse_term("[b][a]a")
        want = parse_term("[a]b")
        steps = rewrite_step_general(EMPTY_CTX, s, strip)
        hits = [st for st in steps if alpha_holds(EMPTY_CTX, st.result, want)]
        assert hits, "no one-step rewrite reaches [a]b"
        assert any(not st.perm.is_identity for st in hits)
        assert all(replay_step(EMPTY_CTX, st, strip) for st in hits)
        reach = rewrite_closure_reachable(EMPTY_CTX, s, NONCLOSED, fuel=1)
        assert want in reach
        code = cli_main([
            "step", str(resources.files("nomrew") / "theories" / "nonclosed.nrw"),
            "--term", "[b][a]a", "--general", "--json",
        ])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        hit = next(st for st in report["steps"] if st["result"] == "[a]b")
        assert hit["perm"] == [["a", "b"]]


def test_criterion_03_closedness_verdicts(capsys):
    with criterion(3, "closedness verdicts across the bundled corpus", budget=5.0):
        for rule in BETAETA.rules:
            res = is_closed_rule(rule)
            assert res.closed, rule.name
            assert is_solution(res.problem, res.witness)
        for rule in NONCLOSED.rules:
            assert not is_closed_rule(rule).closed, rule.name
        res = is_closed_rule(REMARK43.rules[0])
        assert res.closed and is_solution(res.problem, res.witness)
        code = cli_main(["check", str(resources.files("nomrew") / "theories" / "betaeta.nrw")])
        capsys.readouterr()
        assert code == 0
        code = cli_main(["check", str(resources.files("nomrew") / "theories" / "nonclosed.nrw")])
        capsys.readouterr()
        assert code == 1


def test_criterion_04_remark_43_differential():
    with criterion(4, "general vs closed vs symmetric search on a#X |- X -> f(X)", budget=10.0):
        expand = REMARK43.rules[0]
        fX = App("f", (var(X),))
        assert list(rewrite_step_general(EMPTY_CTX, var(X), expand)) == []
        closed = closed_rewrite_step(EMPTY_CTX, var(X), expand)
        assert closed
        assert all(alpha_holds(EMPTY_CTX, st.result, fX) for st in closed)
        with_budget = symmetric_search(EMPTY_CTX, var(X), fX, REMARK43, fuel=100, gamma_budget=1)
        assert with_budget.found
        without = symmetric_search(EMPTY_CTX, var(X), fX, REMARK43, fuel=100, gamma_budget=0)
        assert not without.found


def test_criterion_05_non_closed_name_behaviour():
    with criterion(5, "a -> b rewrites by name generally, never closed", budget=10.0):
        atom_ab = NONCLOSED.rules[0]
        from_a = rewrite_step_general(EMPTY_CTX, AtomTerm(a), atom_ab)
        assert any(st.result == AtomTerm(b) for st in from_a)
        from_c = rewrite_step_general(EMPTY_CTX, AtomTerm(c), atom_ab)
        fresh_images = {
            st.result.atom.name
            for st in from_c
            if isinstance(st.result, AtomTerm) and st.result.atom.name not in ("a", "b", "c")
        }
        assert fresh_images, "no permutation image outside {a, b, c}"
        assert list(closed_rewrite_step(EMPTY_CTX, AtomTerm(a), atom_ab)) == []
        assert list(closed_rewrite_step(EMPTY_CTX, AtomTerm(c), atom_ab)) == []


def test_criterion_06_core_laws():
    with criterion(6, "functoriality/commutation/composition laws, 1000 cases", budget=10.0):
        rng = random.Random(2024)
        atoms = [Atom(n) for n in "abcd"]
        unknowns = [Unknown(n) for n in ("X", "Y", "Z")]
        for _ in range(1000):
            t = random_term(rng, depth=6, atoms=atoms, unknowns=unknowns)
            assert term_depth(t) <= 6
            pi, pi2 = random_perm(rng, atoms), random_perm(rng, atoms)
            sigma = random_subst(rng, depth=3, atoms=atoms, unknowns=unknowns)
            theta = random_subst(rng, depth=3, atoms=atoms, unknowns=unknowns)
            assert act(pi * pi2, t) == act(pi, act(pi2, t))
            assert act(ID, t) == t
            assert act(pi, substitute(t, sigma)) == substitute(act(pi, t), sigma)
            assert substitute(t, sigma.compose(theta)) == substitute(substitute(t, sigma), theta)


def _ground_terms_by_depth(max_depth):
    atoms = (a, b)
    layers = {1: [AtomTerm(x) for x in atoms]}
    for d in range(2, max_depth + 1):
        below = [t for k in range(1, d) for t in layers[k]]
        exact = layers[d - 1]
        layer = [Abstraction(x, t) for x in atoms for t in exact]
        layer += [App("u", (t,)) for t in exact]
        layer += [
            App("g", (s, t))
            for s, t in itertools.product(below, below)
            if max(term_depth(s), term_depth(t)) == d - 1
        ]
        layers[d] = layer
    return [t for k in layers for t in layers[k]]


def test_criterion_07_alpha_oracle_equivalence():
    description = "alpha_holds agrees with the nameless oracle, exhaustive depth 3; check_alpha on a sample"
    with criterion(7, description, budget=60.0):
        terms = _ground_terms_by_depth(3)
        assert len(terms) > 100
        assert alpha_oracle_ground(terms[0], terms[0])  # oracle sanity on a ground input
        # alpha_oracle_ground(s, t) is nameless_form(s) == nameless_form(t);
        # precomputing the forms makes the exhaustive sweep quadratic-cheap.
        forms = [(t, nameless_form(t)) for t in terms]
        pairs = list(itertools.product(forms, forms))
        for (s, sform), (t, tform) in pairs:
            assert alpha_holds(EMPTY_CTX, s, t) == (sform == tform)
        # check_alpha builds the derivation: a seeded sample of 2,000 of the
        # sweep's pairs, and every alpha-equivalent pair, since few drawn are.
        equal = [pair for pair in pairs if pair[0][1] == pair[1][1]]
        sample = random.Random(7).sample(pairs, 2000) + equal
        for (s, sform), (t, tform) in sample:
            assert (check_alpha(EMPTY_CTX, s, t) is not None) == (sform == tform)


def _patterns():
    leaves = [AtomTerm(a), AtomTerm(b), var(X), Suspension(swap(a, b), X), var(Y)]
    depth2 = [Abstraction(x, t) for x in (a, b) for t in leaves]
    depth2 += [App("u", (t,)) for t in leaves]
    depth2 += [App("g", (s, t)) for s, t in itertools.product(leaves, leaves)]
    # depth 3: abstractions over the non-g depth-2 layer keeps the sweep
    # inside the wall-clock budget while still stacking binders
    depth3 = [Abstraction(x, t) for x in (a, b) for t in depth2 if not isinstance(t, App) or t.former != "g"]
    return leaves + depth2 + depth3


def _targets():
    leaves = [AtomTerm(a), AtomTerm(b), var(Z), Suspension(swap(a, b), Z)]
    depth2 = [Abstraction(x, t) for x in (a, b) for t in leaves]
    depth2 += [App("u", (t,)) for t in leaves]
    depth2 += [App("g", (s, t)) for s, t in itertools.product(leaves, leaves)]
    depth3 = [Abstraction(x, t) for x in (a, b) for t in depth2]
    return leaves + depth2 + depth3


def test_criterion_08_matching_soundness_and_completeness():
    with criterion(8, "solve_match vs brute-force oracle, exhaustive small sweep", budget=60.0):
        pattern_ctxs = [EMPTY_CTX, FreshnessContext.of((a, X))]
        target_ctxs = [EMPTY_CTX, FreshnessContext.of((a, Z))]
        problems = solutions = 0
        for pattern in _patterns():
            for target in _targets():
                for pctx, tctx in zip(pattern_ctxs, target_ctxs):
                    problem = MatchProblem(pctx, pattern, tctx, target)
                    sol = solve_match(problem)  # asserts is_solution internally
                    oracle = enumerate_solutions_small(problem, atom_budget=1)
                    assert (sol is None) == (not oracle), (pattern, target)
                    problems += 1
                    solutions += sol is not None
        assert problems > 10_000 and solutions > 500


CLOSED_CORPUS = [
    (theory, rule)
    for theory in (BETAETA, REMARK43, FOL)
    for rule in theory.rules
]


def _redex_subject(rng, theory, rule):
    """A ground term containing an instance of the rule's lhs: instantiate
    the rule's unknowns with ground terms satisfying its context, perturb
    the redex alpha-wise, and wrap it in a little surrounding structure."""
    formers = [(f, n) for f, n in theory.signature.arities]
    theta = {}
    for x in sorted(rule.unknowns()):
        banned = {atom for atom, y in rule.ctx if y == x}
        pool = [atom for atom in (a, b, c) if atom not in banned]
        theta[x] = random_term(rng, depth=2, atoms=pool, unknowns=[], formers=formers)
    redex = substitute(rule.lhs, Substitution(theta))
    redex = alpha_perturb(rng, EMPTY_CTX, redex, atoms=[a, b, c])
    for _ in range(rng.randint(0, 2)):
        former, arity = rng.choice(formers) if formers else (None, 0)
        if former is None:
            break
        args = [random_term(rng, depth=2, atoms=[a, b], unknowns=[], formers=formers) for _ in range(arity)]
        args[rng.randrange(arity)] = redex
        redex = App(former, tuple(args))
    return redex


def test_criterion_09_closed_rewriting_propositions():
    with criterion(9, "strengthening + general/closed correspondence, 200+ steps each", budget=120.0):
        rng = random.Random(99)
        fresh_gamma_atom = Atom("w")
        seen_512 = seen_514 = seen_516 = 0
        rounds = 0
        while min(seen_512, seen_514, seen_516) < 200 and rounds < 400:
            rounds += 1
            theory, rule = CLOSED_CORPUS[rng.randrange(len(CLOSED_CORPUS))]
            s = _redex_subject(rng, theory, rule)
            ctx = random_ctx(rng, atoms=[a, b], unknowns=[X, Y])
            assert fresh_gamma_atom not in atoms_of(ctx, s)

            closed_steps = closed_rewrite_step(ctx, s, rule)
            general_steps = rewrite_step_general(ctx, s, rule)

            if closed_steps:
                # Prop: adding/removing a fresh constraint set leaves closed
                # one-step rewriting unchanged (both directions).
                gamma = [(fresh_gamma_atom, x) for x in (unknowns_of(ctx, s) or {X})]
                bigger = ctx.with_pairs(gamma)
                extended = closed_rewrite_step(bigger, s, rule)
                assert step_classes_match(
                    bigger, [st.result for st in closed_steps], [st.result for st in extended]
                )
                seen_512 += len(closed_steps)

            if general_steps:
                # Prop: on closed rules every general step has a closed step
                # with an alpha-equivalent result.
                ext = closed_steps[0].ctx_extension if closed_steps else EMPTY_CTX
                cmp_ctx = ctx | ext
                for st in general_steps:
                    assert any(
                        alpha_mod_machine(cmp_ctx, st.result, cst.result) for cst in closed_steps
                    ), (rule.name, st)
                seen_514 += len(general_steps)

            for cst in closed_steps:
                # Prop: every closed step is a general step once the trace's
                # machine-fresh constraints extend the context.
                ctx_ext = ctx | cst.ctx_extension
                again = rewrite_step_general(ctx_ext, s, rule, max_support=10)
                assert any(
                    alpha_mod_machine(ctx_ext, cst.result, st.result) for st in again
                ), (rule.name, cst)
                seen_516 += 1

        assert seen_512 >= 200 and seen_514 >= 200 and seen_516 >= 200


def test_criterion_10_strengthening_weakening():
    with criterion(10, "junk constraints never matter; supersets never hurt, 500+ cases", budget=10.0):
        rng = random.Random(77)
        junk_atom = Atom("j")
        for _ in range(500):
            ctx = random_ctx(rng)
            s = random_term(rng, depth=4)
            t = alpha_perturb(rng, ctx, s) if rng.random() < 0.5 else random_term(rng, depth=4)
            assert junk_atom not in atoms_of(s, t)
            x = rng.choice([X, Y, Z])
            junked = ctx.with_pairs([(junk_atom, x)])
            assert alpha_holds(junked, s, t) == alpha_holds(ctx, s, t)
            assert fresh_holds(junked, a, s) == fresh_holds(ctx, a, s)
            extra = random_ctx(rng)
            if alpha_holds(ctx, s, t):
                assert alpha_holds(ctx | extra, s, t)
            if fresh_holds(ctx, b, s):
                assert fresh_holds(ctx | extra, b, s)
