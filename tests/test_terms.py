import copy
import pickle
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from nomrew import (
    EMPTY_CTX,
    Abstraction,
    App,
    Atom,
    AtomTerm,
    EMPTY_SUBST,
    FreshnessContext,
    MatchProblem,
    ID,
    Permutation,
    Signature,
    SignatureError,
    Substitution,
    Suspension,
    Unknown,
    act,
    atoms_of,
    check_alpha,
    check_fresh,
    fresh_holds,
    solve_match,
    substitute,
    swap,
    unknowns_of,
    var,
    verify_derivation,
)
import pytest
from nomrew import matching
from nomrew.terms import _flat_key, fresh_names
from reference_walkers import cycle_swaps, swap_list_mapping
from strategies import ATOMS, atoms_st, perms_st, random_perm, random_subst, random_term, substs_st, terms_st

a, b, c, d, e = (Atom(n) for n in "abcde")
X, Y = Unknown("X"), Unknown("Y")


def test_swap_application():
    assert swap(a, b)(a) == b
    assert swap(a, b)(b) == a
    assert ID(c) == c


def test_compose_acts_right_to_left():
    # (a b) o (b c): evaluated pointwise via (pi o pi')(x) = pi(pi'(x))
    pi = swap(a, b) * swap(b, c)
    assert pi(a) == b
    assert pi(b) == c
    assert pi(c) == a


def test_compose_identity_and_involution():
    assert (ID * swap(a, b)) == swap(a, b)
    assert (swap(a, b) * swap(a, b)).is_identity


def test_compose_support_bounded():
    pi = swap(a, b) * swap(b, c)
    assert pi.support <= {a, b, c}


def test_inverse():
    assert ID.inverse().is_identity
    assert swap(a, b).inverse() == swap(a, b)
    pi = swap(a, b) * swap(b, c)
    assert pi.inverse() == swap(b, c) * swap(a, b)
    for atom in (a, b, c, d):
        assert pi.inverse()(pi(atom)) == atom


def test_behavioural_equality():
    assert Permutation(((a, b), (a, b))) == ID
    assert hash(Permutation(((a, b), (a, b)))) == hash(ID)
    assert swap(a, b) != swap(a, c)
    # support-union agreement is what matters, not the swap lists
    assert Permutation(((a, b), (b, c))) == Permutation.from_mapping({a: b, b: c, c: a})


def test_from_mapping_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation.from_mapping({a: b, c: b})


def test_act_on_abstraction():
    t = Abstraction(a, App("f", (AtomTerm(a), AtomTerm(c))))
    assert act(swap(a, b), t) == Abstraction(b, App("f", (AtomTerm(b), AtomTerm(c))))


def test_act_absorbs_into_suspension():
    assert act(swap(a, b), Suspension(swap(b, c), X)) == Suspension(swap(a, b) * swap(b, c), X)


def test_act_identity():
    t = App("g", (Abstraction(a, var(X)), AtomTerm(b)))
    assert act(ID, t) == t


def test_substitution_is_capturing():
    assert substitute(Abstraction(a, var(X)), Substitution({X: AtomTerm(a)})) == Abstraction(a, AtomTerm(a))


def test_substitution_applies_suspended_perm():
    sigma = Substitution({X: App("f", (AtomTerm(a),))})
    assert substitute(Suspension(swap(a, b), X), sigma) == App("f", (AtomTerm(b),))


def test_substitution_outside_domain():
    t = Suspension(swap(a, b), X)
    assert substitute(t, Substitution({Y: AtomTerm(a)})) == t


def test_subst_compose_identity():
    theta = Substitution({X: AtomTerm(a)})
    assert EMPTY_SUBST.compose(theta) == theta
    assert theta.compose(EMPTY_SUBST) == theta


def test_subst_compose_pointwise():
    sigma = Substitution({X: var(Y)})
    theta = Substitution({Y: AtomTerm(a)})
    composed = sigma.compose(theta)
    assert composed.image(X) == AtomTerm(a)
    assert composed.image(Y) == AtomTerm(a)


def test_subst_compose_on_term():
    t = App("g", (var(X), Abstraction(a, var(Y))))
    sigma = Substitution({X: var(Y)})
    theta = Substitution({Y: AtomTerm(b)})
    assert substitute(t, sigma.compose(theta)) == substitute(substitute(t, sigma), theta)


def test_atoms_and_unknowns():
    assert atoms_of(Suspension(swap(a, b), X)) == {a, b}
    t = Abstraction(a, AtomTerm(b))
    assert atoms_of(t) == {a, b}
    assert unknowns_of(t) == set()
    assert unknowns_of(App("f", (var(X), Suspension(swap(a, b), Y)))) == {X, Y}


def test_signature_checks():
    with pytest.raises(SignatureError):
        Signature.of([("f", 1), ("f", 2)])


def test_fresh_names_refuses_a_negative_count():
    assert fresh_names("g", 2, {"g$0"}) == ["g$1", "g$2"]
    assert fresh_names("g", 0, set()) == []
    with pytest.raises(ValueError):
        fresh_names("g", -1, set())


def test_swaps_are_the_canonical_cycle_list():
    assert ID.swaps == ()
    assert Permutation(((c, a), (b, c))).swaps == ((a, c), (c, b))  # a -> c -> b -> a
    assert Permutation(((d, c), (b, a))).swaps == ((a, b), (c, d))
    assert repr(swap(b, a)) == "Permutation((a b))"


# -- the swap-list reading of a permutation: one composition, then the map ---

# repeated swaps and self-swaps (a a) included
swap_lists_st = st.lists(st.tuples(atoms_st, atoms_st), max_size=8)


@settings(max_examples=300, deadline=None)
@given(swap_lists_st, swap_lists_st)
def test_permutation_agrees_with_swap_list_reference(s1, s2):
    p, q = Permutation(s1), Permutation(s2)
    assert p.mapping == swap_list_mapping(s1)
    assert p.inverse().mapping == swap_list_mapping(s1[::-1])
    assert (p * q).mapping == swap_list_mapping(s1 + s2)
    assert p.swaps == cycle_swaps(swap_list_mapping(s1))
    assert Permutation(p.swaps) == p and Permutation(p.swaps).mapping == p.mapping
    assert Permutation.from_mapping(p.mapping) == p
    assert p.inverse() * p == ID and hash(p * p.inverse()) == hash(ID)


# algebraic laws ------------------------------------------------------------


@given(perms_st, perms_st, terms_st)
def test_permutation_action_is_functorial(pi, pi2, t):
    assert act(pi * pi2, t) == act(pi, act(pi2, t))
    assert act(ID, t) == t


@given(perms_st, terms_st, substs_st)
def test_permutation_commutes_with_substitution(pi, t, sigma):
    assert act(pi, substitute(t, sigma)) == substitute(act(pi, t), sigma)


@given(terms_st, substs_st, substs_st)
def test_substitution_composition_law(t, sigma, theta):
    assert substitute(t, sigma.compose(theta)) == substitute(substitute(t, sigma), theta)


@given(perms_st)
def test_identity_outside_support(pi):
    spare = Atom("zz")
    assert pi(spare) == spare
    for atom in ATOMS:
        if atom not in pi.support:
            assert pi(atom) == atom


@given(terms_st)
def test_empty_substitution_is_identity(t):
    assert substitute(t, EMPTY_SUBST) == t


def test_laws_on_seeded_random_terms():
    rng = random.Random(5)
    for _ in range(200):
        t = random_term(rng, depth=5)
        pi, pi2 = random_perm(rng), random_perm(rng)
        sigma, theta = random_subst(rng), random_subst(rng)
        assert act(pi * pi2, t) == act(pi, act(pi2, t))
        assert act(pi, substitute(t, sigma)) == substitute(act(pi, t), sigma)
        assert substitute(t, sigma.compose(theta)) == substitute(substitute(t, sigma), theta)


# -- the kernel: interned names, flat == and hash ------------------------------


def test_names_are_interned_and_immutable():
    assert Atom("a") is a and Unknown("X") is X
    assert Atom("a") != Unknown("a") and hash(Atom("a")) != hash(Unknown("a"))
    for name in (a, X, Atom("m$0")):
        assert copy.copy(name) is name and copy.deepcopy(name) is name
        assert pickle.loads(pickle.dumps(name)) is name
        with pytest.raises(AttributeError):
            name.name = "b"
    assert repr(a) == "Atom('a')" and repr(X) == "Unknown('X')"
    assert sorted([c, a, b]) == [a, b, c] and Atom("m$0").is_machine and not X.is_machine


def test_terms_copy_and_pickle_as_values():
    t = Abstraction(a, App("g", (Suspension(swap(a, b), X), AtomTerm(c))))
    hash(t)
    for u in (copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        # A kept hash depends on the addresses of the names, so a copy,
        # which may be made in another process, starts without one.
        assert not hasattr(u, "_hash")
        assert u == t and hash(u) == hash(t) and u.body.args[0].unknown is X


def _rebuilt(t):
    """A copy of t sharing no node with it."""
    return act(swap(a, b), act(swap(a, b), t))


@settings(max_examples=300, deadline=None)
@given(terms_st, terms_st)
def test_equality_and_hash_follow_the_flat_key(s, t):
    for u in (t, _rebuilt(s)):
        assert (s == u) == (_flat_key(s) == _flat_key(u))
        if s == u:
            assert hash(s) == hash(u)
    assert s == _rebuilt(s) and not s != _rebuilt(s)


def _chain(n: int, bottom):
    t = bottom
    for i in range(n):
        t = App("u", (t,)) if i % 2 else Abstraction(a, t)
    return t


def test_equality_and_hash_at_depth():
    n = 10**5
    s, t = _chain(n, AtomTerm(c)), _chain(n, AtomTerm(c))
    assert s is not t and s == t and hash(s) == hash(t)
    assert {s: 1}[t] == 1
    assert s != _chain(n, AtomTerm(d)) and s != _chain(n - 1, AtomTerm(c))


def test_derivations_verify_at_depth():
    n = 10**4
    s = _chain(n, Abstraction(a, App("g", (AtomTerm(a), Suspension(swap(a, b), X)))))
    t = _chain(n, Abstraction(b, App("g", (AtomTerm(b), Suspension(swap(a, b), X)))))
    ctx = FreshnessContext.of((b, X))  # b # (a b).X, that is a # X, fails
    assert check_alpha(ctx, s, t) is None
    ctx = FreshnessContext.of((a, X), (b, X), (c, X))
    assert verify_derivation(check_alpha(ctx, s, t))
    assert verify_derivation(check_fresh(ctx, c, s))


def test_substitutions_with_a_deep_image_compare_and_hash():
    n = 10**5
    sigma, theta = Substitution({X: _chain(n, AtomTerm(c))}), Substitution({X: _chain(n, AtomTerm(c))})
    assert sigma == theta and hash(sigma) == hash(theta)
    assert sigma != Substitution({X: _chain(n, AtomTerm(d))})


# -- matching checks pending freshness on the pattern, not its instance ------------


@pytest.mark.parametrize(
    "image, holds",
    [
        (App("g", (AtomTerm(c), AtomTerm(d), AtomTerm(e))), True),
        (App("g", (AtomTerm(c), AtomTerm(a))), False),  # c # [b]f(X, X) fails
        (App("g", (AtomTerm(c), AtomTerm(b))), False),  # d # f(X, X) fails
        (Abstraction(a, App("g", (AtomTerm(a), Suspension(swap(c, e), Y)))), True),
        (Suspension(swap(a, e), Y), False),  # asks e # Y, which the context does not give
    ],
)
def test_pending_freshness_agrees_with_the_substituted_body(monkeypatch, image, holds):
    # [a][b]f(X, X) against [c][d]f(s, s): both binders mismatch, leaving
    # c # [b]f(X, X) and then d # f(X, X), with X sent to rho^-1.s where
    # rho = (d b) o (c a).
    pattern = Abstraction(a, Abstraction(b, App("f", (var(X), var(X)))))
    target = Abstraction(c, Abstraction(d, App("f", (image, image))))
    delta = FreshnessContext.of((c, Y), (b, Y))
    sigma = Substitution({X: act((swap(d, b) * swap(c, a)).inverse(), image)})
    expected = fresh_holds(delta, c, substitute(pattern.body, sigma)) and fresh_holds(
        delta, d, substitute(pattern.body.body, sigma)
    )
    asked = []
    monkeypatch.setattr(matching, "fresh_holds", lambda ctx, atom, t: asked.append((atom, t)) or fresh_holds(ctx, atom, t))
    got = solve_match(MatchProblem(EMPTY_CTX, pattern, delta, target))
    assert (got is not None) == expected == holds
    if got is not None:
        assert got.sigma == sigma
    # X occurs four times in the two pending bodies, and is asked about at
    # most once per atom, on its raw target: c # rho^-1.image is asked as
    # rho(c) # image.
    rho = swap(d, b) * swap(c, a)
    assert asked in ([(rho(c), image), (rho(d), image)], [(rho(c), image)])


def test_a_failing_freshness_check_builds_no_image(monkeypatch):
    # remark43's expand (a # X |- X -> f(X)) under the candidate (a c)
    # matches (a c).X against f(c): X's image would be f(a), and a # f(a)
    # fails.  The check is c # f(c) on the raw target, so no image is built.
    moved = []

    def counted(pi, t):
        if not pi.is_identity:
            moved.append(pi)
        return act(pi, t)

    monkeypatch.setattr(matching, "act", counted)
    problem = MatchProblem(FreshnessContext.of((a, X)), Suspension(swap(a, c), X), EMPTY_CTX, App("f", (AtomTerm(c),)))
    assert solve_match(problem) is None
    assert moved == []
