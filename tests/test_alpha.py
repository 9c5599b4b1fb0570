import itertools
import random

import hypothesis.strategies as hst
import pytest
from hypothesis import given, settings

import reference_walkers as ref
from nomrew import (
    Abstraction,
    App,
    Atom,
    AtomTerm,
    Derivation,
    EMPTY_CTX,
    FreshnessContext,
    Suspension,
    Unknown,
    act,
    alpha_holds,
    alpha_key,
    check_alpha,
    check_fresh,
    fresh_holds,
    swap,
    term_depth,
    var,
    verify_derivation,
)
from nomrew.rewrite import ReachableSet, _path, _places, _spans
from oracles import NonGroundError, alpha_oracle_ground
from strategies import alpha_perturb, contexts_st, ground_terms_st, random_ctx, random_perm, random_term, terms_st

a, b, c, d = Atom("a"), Atom("b"), Atom("c"), Atom("d")
X, Y = Unknown("X"), Unknown("Y")


def test_fresh_distinct_atoms():
    assert fresh_holds(EMPTY_CTX, a, AtomTerm(b))
    assert not fresh_holds(EMPTY_CTX, a, AtomTerm(a))


def test_fresh_under_own_binder():
    assert fresh_holds(EMPTY_CTX, a, Abstraction(a, AtomTerm(a)))


def test_fresh_suspension_uses_inverse():
    ctx = FreshnessContext.of((b, X))
    assert fresh_holds(ctx, a, Suspension(swap(a, b), X))
    assert not fresh_holds(EMPTY_CTX, a, var(X))


def test_alpha_abstractions():
    assert alpha_holds(EMPTY_CTX, Abstraction(a, AtomTerm(a)), Abstraction(b, AtomTerm(b)))
    assert not alpha_holds(EMPTY_CTX, Abstraction(a, AtomTerm(b)), Abstraction(b, AtomTerm(a)))


def test_alpha_suspensions_need_context():
    ctx = FreshnessContext.of((a, X), (b, X))
    assert alpha_holds(ctx, Suspension(swap(a, b), X), var(X))
    assert not alpha_holds(EMPTY_CTX, Suspension(swap(a, b), X), var(X))
    assert not alpha_holds(ctx, var(X), var(Y))


def test_alpha_nested_abstractions():
    s = Abstraction(b, Abstraction(a, AtomTerm(a)))
    t = Abstraction(a, Abstraction(b, AtomTerm(b)))
    assert alpha_holds(EMPTY_CTX, s, t)


def test_alpha_different_binders_over_unknown():
    assert not alpha_holds(EMPTY_CTX, Abstraction(a, var(X)), Abstraction(b, var(X)))
    ctx = FreshnessContext.of((a, X), (b, X))
    assert alpha_holds(ctx, Abstraction(a, var(X)), Abstraction(b, var(X)))


def test_derivations_replay():
    ctx = FreshnessContext.of((b, X))
    d = check_fresh(ctx, a, App("g", (Suspension(swap(a, b), X), AtomTerm(b))))
    assert d is not None and verify_derivation(d)
    d = check_alpha(EMPTY_CTX, Abstraction(a, AtomTerm(a)), Abstraction(b, AtomTerm(b)))
    assert d.rule == "~[b]" and verify_derivation(d)
    assert [child.rule for child in d.children] == ["#ab", "~a"]


def test_a_tampered_derivation_does_not_replay():
    s, t = App("f", (Abstraction(a, AtomTerm(a)), AtomTerm(c))), App("f", (Abstraction(b, AtomTerm(b)), AtomTerm(c)))
    d = check_alpha(EMPTY_CTX, s, t)
    (left, right) = d.children
    bad = [
        Derivation("~f", d.conclusion, (left,)),  # a child missing
        Derivation("~f", d.conclusion, (left, Derivation("~X", right.conclusion))),  # a wrong rule
        Derivation("~f", d.conclusion, (right, left)),  # children swapped
        Derivation("~f", ("alpha", EMPTY_CTX, s, s), d.children),  # a wrong conclusion
        Derivation("~f", ("alpha", EMPTY_CTX, s, AtomTerm(c)), d.children),  # not derivable
        Derivation("~f", ("equal", EMPTY_CTX, s, t), d.children),  # no such judgement
    ]
    assert verify_derivation(d)
    assert not any(verify_derivation(x) for x in bad)


def test_oracle_examples():
    assert alpha_oracle_ground(Abstraction(a, AtomTerm(a)), Abstraction(b, AtomTerm(b)))
    assert not alpha_oracle_ground(Abstraction(a, AtomTerm(b)), Abstraction(b, AtomTerm(a)))
    s = App("f", (AtomTerm(a), Abstraction(a, AtomTerm(a))))
    t = App("f", (AtomTerm(a), Abstraction(c, AtomTerm(c))))
    assert alpha_oracle_ground(s, t)
    with pytest.raises(NonGroundError):
        alpha_oracle_ground(var(X), var(X))


def all_ground_terms(depth, atoms=(a, b)):
    """Every ground term of the given depth bound over two atoms, one unary
    and one binary former (atoms have depth 1)."""
    layers = {1: [AtomTerm(x) for x in atoms]}
    for d in range(2, depth + 1):
        prev = [t for k in range(1, d) for t in layers[k]]
        layer = [Abstraction(x, t) for x in atoms for t in layers[d - 1]]
        layer += [App("u", (t,)) for t in layers[d - 1]]
        layer += [
            App("g", (s, t))
            for s, t in itertools.product(prev, prev)
            if max(term_depth(s), term_depth(t)) == d - 1
        ]
        layers[d] = layer
    return [t for k in layers for t in layers[k]]


def test_oracle_agreement_small():
    terms = all_ground_terms(2)
    for s, t in itertools.product(terms, terms):
        assert alpha_holds(EMPTY_CTX, s, t) == alpha_oracle_ground(s, t)


@given(contexts_st, terms_st)
def test_reflexivity(ctx, t):
    assert alpha_holds(ctx, t, t)


def test_symmetry_and_transitivity_on_derivable_triples():
    rng = random.Random(11)
    for _ in range(300):
        ctx = random_ctx(rng)
        t = random_term(rng, depth=4)
        s = alpha_perturb(rng, ctx, t)
        u = alpha_perturb(rng, ctx, t)
        assert alpha_holds(ctx, t, s)
        assert alpha_holds(ctx, s, t)
        assert alpha_holds(ctx, s, u)


def test_strengthening_junk_constraint():
    rng = random.Random(23)
    spare = Atom("junk")
    for _ in range(300):
        ctx = random_ctx(rng)
        s = random_term(rng, depth=4)
        t = alpha_perturb(rng, ctx, s) if rng.random() < 0.5 else random_term(rng, depth=4)
        bigger = ctx.with_pairs([(spare, X)])
        assert alpha_holds(ctx, s, t) == alpha_holds(bigger, s, t)
        assert fresh_holds(ctx, a, s) == fresh_holds(bigger, a, s)


def test_weakening_superset_context():
    rng = random.Random(37)
    for _ in range(300):
        ctx = random_ctx(rng)
        extra = random_ctx(rng)
        s = random_term(rng, depth=4)
        t = alpha_perturb(rng, ctx, s)
        assert alpha_holds(ctx | extra, s, t)
        for atom in (a, b):
            if fresh_holds(ctx, atom, s):
                assert fresh_holds(ctx | extra, atom, s)


def test_freshness_equivariance_ground():
    rng = random.Random(41)
    for _ in range(300):
        s = random_term(rng, depth=4, unknowns=[])
        pi = random_perm(rng)
        for atom in (a, b, c):
            assert fresh_holds(EMPTY_CTX, atom, s) == fresh_holds(EMPTY_CTX, pi(atom), act(pi, s))


@given(ground_terms_st, ground_terms_st, hst.randoms(use_true_random=False))
def test_oracle_agreement_random(s, t, rng):
    # Besides the random pair, an alpha-variant of s and a permuted copy of
    # it, so that both verdicts are common.
    u = alpha_perturb(rng, EMPTY_CTX, s)
    for left, right in ((s, t), (s, u), (s, act(random_perm(rng), u))):
        assert alpha_holds(EMPTY_CTX, left, right) == alpha_oracle_ground(left, right)


# alpha_holds compares alpha keys; the reference check_alpha applies the rules --


def _pairs(rng, ctx, s, t):
    """A random pair, an alpha-variant pair and a near miss: an
    alpha-variant moved by a random permutation."""
    u = alpha_perturb(rng, ctx, s)
    return [(s, t), (s, u), (s, act(random_perm(rng), alpha_perturb(rng, ctx, s)))]


def _assert_agrees(ctx, s, t) -> bool:
    derivable = ref.check_alpha(ctx, s, t) is not None
    assert alpha_holds(ctx, s, t) == derivable
    assert alpha_holds(ctx, t, s) == derivable
    return derivable


@settings(max_examples=300, deadline=None)
@given(contexts_st, terms_st, terms_st, hst.randoms(use_true_random=False))
def test_alpha_key_agrees_with_rules(ctx, s, t, rng):
    for left, right in _pairs(rng, ctx, s, t):
        _assert_agrees(ctx, left, right)


def test_alpha_key_agrees_with_rules_seeded():
    rng = random.Random(53)
    verdicts = {True: 0, False: 0}
    for _ in range(1500):
        ctx = random_ctx(rng)
        s, t = random_term(rng, depth=5), random_term(rng, depth=5)
        for left, right in _pairs(rng, ctx, s, t):
            verdicts[_assert_agrees(ctx, left, right)] += 1
    assert verdicts[True] > 1000 and verdicts[False] > 1000


def test_alpha_key_tokens_cannot_collide():
    # A free atom named "[" must not read as a binder, and a nullary former
    # must not read as an atom of the same name.
    bracket, x = AtomTerm(Atom("[")), Atom("x")
    pairs = [
        (App("h", (Abstraction(a, AtomTerm(c)), bracket, AtomTerm(d))),
         App("h", (bracket, AtomTerm(c), Abstraction(x, AtomTerm(d))))),
        (App("a", ()), AtomTerm(a)),
    ]
    for s, t in pairs:
        assert ref.check_alpha(EMPTY_CTX, s, t) is None
        assert alpha_key(EMPTY_CTX, s) != alpha_key(EMPTY_CTX, t)


_WIDTH = {AtomTerm: 1, Abstraction: 1, App: 3, Suspension: 3}


@settings(max_examples=300, deadline=None)
@given(contexts_st, terms_st, hst.lists(hst.sampled_from([a, b, c]), max_size=3))
def test_alpha_key_has_a_fixed_width_per_node(ctx, t, outer):
    # Rewriting splices keys on this layout: each node takes 1 token (an
    # atom, an abstraction) or 3 (an application, a suspension), so the
    # subterm at a position is the slice starting at the widths of the
    # positions before it, and keying the subterm alone under the binders
    # above it gives that slice, which `_spans` finds in one walk.  `outer`
    # wraps t in binders, repeats included, so scopes with shadowed names
    # are covered.
    for atom in reversed(outer):
        t = Abstraction(atom, t)
    key = alpha_key(ctx, t)
    places = [(_path(frames), u) for frames, u in _places(t)]
    assert len(key) == sum(_WIDTH[type(u)] for _, u in places)
    start, spans = 0, _spans(t)
    assert len(spans) == len(places)
    for (path, u), span in zip(places, spans):
        scope, v = [], t
        for step in path:
            if step == "body":
                scope.append(v.atom)
                v = v.body
            else:
                v = v.args[step]
        part = alpha_key(ctx, u, scope)
        assert key[start:start + len(part)] == part and span == [start, start + len(part)]
        start += _WIDTH[type(u)]


def test_alpha_key_scope_lets_the_innermost_binder_win():
    body = App("g", (AtomTerm(a), Suspension(swap(a, b), X)))
    wrapped = Abstraction(a, Abstraction(b, Abstraction(a, body)))
    assert alpha_key(EMPTY_CTX, body, [a, b, a]) == alpha_key(EMPTY_CTX, wrapped)[3:]
    assert alpha_key(EMPTY_CTX, body, [a, b, a]) != alpha_key(EMPTY_CTX, body, [b, a, b])
    assert alpha_key(EMPTY_CTX, body, ()) == alpha_key(EMPTY_CTX, body)


@settings(max_examples=300, deadline=None)
@given(contexts_st, terms_st, terms_st, hst.randoms(use_true_random=False))
def test_check_alpha_reads_off_the_reference_derivation(ctx, s, t, rng):
    derived = []
    for left, right in _pairs(rng, ctx, s, t):
        d = check_alpha(ctx, left, right)
        assert d == ref.check_alpha(ctx, left, right)
        assert d is None or verify_derivation(d)
        derived.append(d is not None)
    assert derived[1]  # the alpha-variant pair always holds; the seeded test counts both verdicts


def test_check_alpha_reads_off_the_reference_derivation_seeded():
    rng = random.Random(59)
    verdicts = {True: 0, False: 0}
    for _ in range(500):
        ctx = random_ctx(rng)
        s, t = random_term(rng, depth=5), random_term(rng, depth=5)
        for left, right in _pairs(rng, ctx, s, t):
            d = check_alpha(ctx, left, right)
            assert d == ref.check_alpha(ctx, left, right)
            verdicts[d is not None] += 1
    assert verdicts[True] > 300 and verdicts[False] > 300


# depth --------------------------------------------------------------------------


def renamed_chain(n: int, stem: str, k: int) -> App:
    """[stem0]...[stem(n-1)] g(stem k, stem 0, c), built without recursion."""
    t = App("g", (AtomTerm(Atom(f"{stem}{k}")), AtomTerm(Atom(f"{stem}0")), AtomTerm(c)))
    for i in reversed(range(n)):
        t = Abstraction(Atom(f"{stem}{i}"), t)
    return t


@pytest.mark.parametrize("n", [10**3, 10**4, 10**5])
def test_alpha_on_deep_renamed_chains(n):
    s = renamed_chain(n, "s", n // 2)
    assert alpha_holds(EMPTY_CTX, s, renamed_chain(n, "t", n // 2))
    assert not alpha_holds(EMPTY_CTX, s, renamed_chain(n, "t", n // 2 + 1))


def same_binder_chain(n: int) -> Abstraction:
    """[a]...[a]a, n binders deep, built without recursion."""
    t = AtomTerm(a)
    for _ in range(n):
        t = Abstraction(a, t)
    return t


@pytest.mark.parametrize("n", [10**4, 10**5])
def test_derivations_on_deep_same_binder_chains(n):
    s, t = same_binder_chain(n), same_binder_chain(n)
    d = check_alpha(EMPTY_CTX, s, t)
    assert d.rule == "~[a]" and verify_derivation(d)
    assert check_alpha(EMPTY_CTX, s, Abstraction(b, t)) is None
    fr = check_fresh(EMPTY_CTX, b, s)
    assert fr.rule == "#[b]" and verify_derivation(fr)


def test_reachable_set_takes_deep_terms():
    n = 10**4
    reached = ReachableSet(EMPTY_CTX)
    assert reached.add(renamed_chain(n, "s", 7))
    assert not reached.add(renamed_chain(n, "t", 7))
    assert renamed_chain(n, "u", 8) not in reached
    assert len(reached) == 1
