import random

from hypothesis import given, settings
from hypothesis import strategies as st

from nomrew import (
    Abstraction,
    App,
    Atom,
    AtomTerm,
    EMPTY_SUBST,
    ID,
    Permutation,
    Signature,
    SignatureError,
    Substitution,
    Suspension,
    Unknown,
    act,
    atoms_of,
    substitute,
    swap,
    unknowns_of,
    var,
)
import pytest
from reference_walkers import cycle_swaps, swap_list_mapping
from strategies import ATOMS, atoms_st, perms_st, random_perm, random_subst, random_term, substs_st, terms_st

a, b, c, d = (Atom(n) for n in "abcd")
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
    sig = Signature.of({"lam": 1, "app": 2})
    sig.check_term(App("app", (AtomTerm(a), AtomTerm(b))))
    with pytest.raises(SignatureError):
        sig.check_term(App("app", (AtomTerm(a),)))
    with pytest.raises(SignatureError):
        sig.check_term(App("nope", ()))
    with pytest.raises(SignatureError):
        Signature.of([("f", 1), ("f", 2)])


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
