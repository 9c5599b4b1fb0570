"""The discrimination tree over the rules' lhs shapes (`rewrite._Tree`)
against the rule-by-rule shape test it replaced, with the binding test of
atom leaves added (`reference_walkers.may_match`), and against matching
itself.

The holes are every term up to size 5 over a small signature: atoms a and b,
the unknown X under the identity and under (a b), and the formers f/1 and
g/2 (4, 12, 52, 252 and 1,316 terms of size 1 to 5).  On each hole, a
tree's lookup must list exactly the rules whose lhs the reference passes, in
rule order.  On each hole up to size 4, it must list every rule that some
candidate of either engine matches there."""

import itertools
import random
from collections import Counter
from functools import cache
from importlib import resources

import reference_walkers as ref
from nomrew import (
    EMPTY_CTX, ID, Abstraction, App, Atom, AtomTerm, FreshnessContext, MatchProblem, Permutation, RewriteRule,
    Suspension, Theory, Unknown, act, atoms_of, closed_normalize, freshen_rule, normalize_general,
    rewrite_step_general, swap, term_size, unknowns_of,
)
from nomrew.rewrite import _Tree
from nomrew.syntax import parse_term, parse_theory

a, b = Atom("a"), Atom("b")
X = Unknown("X")
LEAVES = (AtomTerm(a), AtomTerm(b), Suspension(ID, X), Suspension(swap(a, b), X))
SIZES = (4, 12, 52, 252, 1316)


@cache
def sized(n: int, formers=(("f", 1), ("g", 2))) -> tuple:
    """Every term of exactly n nodes over the atoms, the two suspensions and
    the formers, a suspension being one node."""
    if n == 1:
        return LEAVES
    out = [Abstraction(atom, t) for atom in (a, b) for t in sized(n - 1, formers)]
    for former, arity in formers:
        # Every split of the n - 1 nodes below the root among the arguments.
        splits = [()]
        for _ in range(arity):
            splits = [(*split, k) for split in splits for k in range(1, n)]
        for split in (split for split in splits if sum(split) == n - 1):
            args = [()]
            for k in split:
                args = [(*done, t) for done in args for t in sized(k, formers)]
            out += [App(former, tuple(these)) for these in args]
    return tuple(out)


HOLES = [t for n in range(1, 6) for t in sized(n)]


def reference_fits(rules, hole) -> list[int]:
    return [i for i, rule in enumerate(rules) if ref.may_match(rule.lhs, hole)]


def assert_tree_matches_reference(tree, holes=HOLES):
    for hole in holes:
        assert tree.fits(hole) == reference_fits(tree.rules, hole), hole


def _onto_fg(t):
    """t with each former renamed by its arity onto f (1) or g (2)."""
    if type(t) is App:
        return App({1: "f", 2: "g"}[len(t.args)], tuple(map(_onto_fg, t.args)))
    if type(t) is Abstraction:
        return Abstraction(t.atom, _onto_fg(t.body))
    return t


def bundled():
    for name in ("betaeta", "fol", "nonclosed", "remark43"):
        yield parse_theory((resources.files("nomrew") / "theories" / f"{name}.nrw").read_text())


def test_the_holes_are_every_term_up_to_size_five():
    assert tuple(len(sized(n)) for n in range(1, 6)) == SIZES
    assert len(set(HOLES)) == len(HOLES) == sum(SIZES)


def test_each_bundled_rule_set_looks_up_as_the_reference_tests():
    # Each theory as written, whose lhs mostly fit no hole here but bare
    # unknowns, and with its formers renamed onto f and g, which makes many
    # lhs share a shape (fol's forall_const and exists_const both read
    # f([a]P)); each with and without its kept reversals, through the trees
    # the theory keeps.
    fitted = Counter()
    for theory in bundled():
        renamed = Theory(theory.signature, tuple(
            RewriteRule(rule.name, rule.ctx, _onto_fg(rule.lhs), _onto_fg(rule.rhs)) for rule in theory.rules
        ))
        for th in (theory, renamed):
            for tree in (th._tree, th._search_tree):
                assert_tree_matches_reference(tree)
                fitted[len(tree.rules) > len(th.rules)] += sum(map(len, map(tree.fits, HOLES)))
            assert th._search_tree.rules == (*th.rules, *th._reversed_rules)
    assert fitted[False] > 1000 and fitted[True] > fitted[False]


def random_lhs(rng, size):
    """A random term of the given size over the hole signature and the
    formers f/2 and g/1, so that an lhs can differ from a hole in arity
    alone."""
    if size == 1:
        return rng.choice(LEAVES)
    roll = rng.randrange(3)
    if roll == 0:
        return Abstraction(rng.choice((a, b)), random_lhs(rng, size - 1))
    if roll == 1 or size == 2:
        return App(rng.choice("fg"), (random_lhs(rng, size - 1),))
    left = rng.randrange(1, size - 1)
    return App(rng.choice("fg"), (random_lhs(rng, left), random_lhs(rng, size - 1 - left)))


# Lhs whose atom leaves lie under their own binders, over the holes'
# formers, so that they fit holes whose binders bind the leaves the same way.
BOUND_LHS = tuple(parse_term(text) for text in (
    "[a]f(a)", "[a][b]g(b, a)", "[a][b]g(a, b)", "[a][a]f(a)", "[a]g(a, b)", "[a]f([b]a)", "g([a]a, a)",
    "[a]g(a, X)", "[a]f(b)",
))
HOLES_TO_4 = [t for n in range(1, 5) for t in sized(n)]


def test_random_lhs_sets_with_a_suspension_lhs_look_up_as_the_reference_tests():
    rng = random.Random(31)
    for _ in range(60):
        lhss = [random_lhs(rng, rng.randint(1, 4)) for _ in range(rng.randint(2, 5))]
        lhss.insert(rng.randrange(len(lhss) + 1), rng.choice(LEAVES[2:]))  # X or (a b).X
        lhss += rng.sample(BOUND_LHS, rng.randint(1, 3))
        lhss += rng.sample(lhss, rng.randint(0, 2))  # the same shape under two rules
        rules = tuple(RewriteRule(f"r{i}", EMPTY_CTX, lhs, lhs) for i, lhs in enumerate(lhss))
        assert_tree_matches_reference(_Tree(rules), HOLES_TO_4)


def test_a_bound_leaf_fits_only_a_leaf_bound_the_same_way():
    rules = tuple(RewriteRule(f"r{i}", EMPTY_CTX, lhs, lhs) for i, lhs in enumerate(BOUND_LHS))
    tree = _Tree(rules)
    fits = lambda text: [rules[i].lhs for i in tree.fits(parse_term(text))]
    assert fits("[b]f(b)") == [parse_term("[a]f(a)")]
    assert fits("[a]f(b)") == fits("[b]f(a)") == [parse_term("[a]f(b)")]
    assert fits("[b][a]g(a, b)") == [parse_term("[a][b]g(b, a)")]
    assert fits("[b][b]f(b)") == [parse_term("[a][a]f(a)")]
    assert fits("[a][b]f(a)") == []  # [a][b]f(b) shape, but the leaf is bound one binder further out
    assert fits("g([b]b, a)") == [parse_term("g([a]a, a)")]
    assert fits("g([b]a, a)") == []
    # beta_var's lhs app(lam([a]a), X) fits no lam whose body is a free
    # atom; beta_eps's app(lam([a]Y), X) fits either, Y being a wildcard.
    betaeta = next(theory for theory in bundled() if theory.name == "betaeta")
    names = lambda text: [betaeta.rules[i].name for i in betaeta._tree.fits(parse_term(text, betaeta.signature))]
    assert names("app(lam([a]b), c)") == ["beta_eps"]
    assert names("app(lam([a]a), c)") == ["beta_var", "beta_eps"]


def test_every_rule_a_candidate_matches_is_listed():
    # General: some permutation over the rule's and the hole's atoms plus
    # two fresh ones (every image of the rule's atoms, up to equivariance)
    # makes the lhs match.  Closed: the rule's variant freshened apart from
    # the hole matches under freshness of its atoms for the hole's unknowns.
    # Either way the tree must list the rule; its unknown is Y, apart from X.
    rng = random.Random(33)
    lhss = [*BOUND_LHS, *(random_lhs(rng, rng.randint(1, 4)) for _ in range(12)), *LEAVES[2:]]
    lhss = [ref.rename_term(lhs, {}, {X: Unknown("Y")}) for lhs in lhss]
    rules = tuple(RewriteRule(f"r{i}", EMPTY_CTX, lhs, lhs) for i, lhs in enumerate(lhss))
    tree = _Tree(rules)
    universe = [a, b, Atom("c"), Atom("d")]
    perms = [Permutation.from_mapping(dict(zip(universe, image))) for image in itertools.permutations(universe)]
    matched, hit = Counter(), set()
    for hole in HOLES_TO_4:
        listed, xs = tree.fits(hole), unknowns_of(hole)
        for i, rule in enumerate(rules):
            general = any(ref.solve_match(MatchProblem(rule.ctx, act(pi, rule.lhs), EMPTY_CTX, hole)) for pi in perms)
            fr = freshen_rule(rule, atoms_of(hole), xs)
            extension = FreshnessContext(frozenset((c, x) for c in fr.atoms() for x in xs))
            closed = ref.solve_match(MatchProblem(fr.ctx, fr.lhs, extension, hole)) is not None
            if general or closed:
                assert i in listed, (hole, rule.lhs)
                hit.add(i)
            matched[general, closed, i in listed] += 1
    # Over a thousand pairs match both ways; a few only under a permutation
    # that moves a free leaf of the lhs (closed matching keeps the variant's
    # atoms apart from the hole's).  Each bound lhs that a hole here can
    # match, by its size, matches one.
    assert matched[True, True, True] > 1000 and matched[True, False, True] > 0
    assert hit >= {i for i, lhs in enumerate(BOUND_LHS) if term_size(lhs) <= 4}


def test_a_tree_is_built_once_per_rule_set(monkeypatch):
    built = Counter()
    real = _Tree.__init__

    def init(tree, rules):
        built[tuple(rule.name for rule in rules)] += 1
        real(tree, rules)

    monkeypatch.setattr(_Tree, "__init__", init)
    betaeta = next(theory for theory in bundled() if theory.name == "betaeta")
    s = parse_term("app(lam([a]app(a,a)),app(lam([a]app(a,a)),b))", betaeta.signature)
    for _ in range(25):
        assert normalize_general(EMPTY_CTX, s, betaeta, fuel=20).status == "normal_form"
        assert closed_normalize(EMPTY_CTX, s, betaeta, fuel=20).status == "normal_form"
    for rule in betaeta.rules:
        for _ in range(3):
            rewrite_step_general(EMPTY_CTX, s, rule)
    names = tuple(rule.name for rule in betaeta.rules)
    assert built == Counter({names: 1, **{(name,): 1 for name in names}})
