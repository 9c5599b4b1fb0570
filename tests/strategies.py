"""Shared term generators: hypothesis strategies for property tests and
plain seeded-random generators for the large fixed-count suites; plus a
comparison helper for results that may mention machine-fresh atoms."""

from __future__ import annotations

import itertools
import random

import hypothesis.strategies as st

from nomrew import (
    Abstraction,
    App,
    Atom,
    AtomTerm,
    FreshnessContext,
    Permutation,
    Substitution,
    Suspension,
    Unknown,
    act,
    alpha_holds,
    atoms_of,
    fresh_holds,
    substitute,
    swap,
    unknowns_of,
)

ATOMS = [Atom(n) for n in ("a", "b", "c", "d")]
UNKNOWNS = [Unknown(n) for n in ("X", "Y", "Z")]
FORMERS = [("u", 1), ("g", 2)]

atoms_st = st.sampled_from(ATOMS)
unknowns_st = st.sampled_from(UNKNOWNS)

perms_st = st.lists(st.tuples(atoms_st, atoms_st), max_size=3).map(
    lambda swaps: Permutation(tuple(swaps))
)

_leaves = st.one_of(
    atoms_st.map(AtomTerm),
    st.tuples(perms_st, unknowns_st).map(lambda pu: Suspension(*pu)),
)

terms_st = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.tuples(atoms_st, kids).map(lambda ab: Abstraction(*ab)),
        kids.map(lambda t: App("u", (t,))),
        st.tuples(kids, kids).map(lambda ts: App("g", ts)),
    ),
    max_leaves=8,
)

ground_terms_st = st.recursive(
    atoms_st.map(AtomTerm),
    lambda kids: st.one_of(
        st.tuples(atoms_st, kids).map(lambda ab: Abstraction(*ab)),
        kids.map(lambda t: App("u", (t,))),
        st.tuples(kids, kids).map(lambda ts: App("g", ts)),
    ),
    max_leaves=8,
)

substs_st = st.dictionaries(unknowns_st, terms_st, max_size=3).map(Substitution)

contexts_st = st.frozensets(st.tuples(atoms_st, unknowns_st), max_size=8).map(FreshnessContext)


def sig_terms_st(theory, atoms=atoms_st, unknowns=unknowns_st):
    """Terms over a theory's signature, most of them with rule instances
    (redexes) inside."""
    perms = st.lists(st.tuples(atoms, atoms), max_size=3).map(lambda swaps: Permutation(tuple(swaps)))
    leaves = st.one_of(atoms.map(AtomTerm), st.tuples(perms, unknowns).map(lambda pu: Suspension(*pu)))

    def grow(kids):
        options = [st.tuples(atoms, kids).map(lambda ab: Abstraction(*ab))]
        for f, n in theory.signature.arities:
            options.append(st.lists(kids, min_size=n, max_size=n).map(lambda args, f=f: App(f, tuple(args))))
        return st.one_of(options)

    plain = st.recursive(leaves, grow, max_leaves=6)
    # Rule instances put redexes in most draws.
    redex = st.tuples(st.sampled_from(theory.rules), st.lists(plain, min_size=3, max_size=3)).map(
        lambda ra: substitute(ra[0].lhs, Substitution(zip(sorted(unknowns_of(ra[0].lhs)), ra[1])))
    )
    return st.recursive(st.one_of(plain, redex), grow, max_leaves=3)


def random_perm(rng: random.Random, atoms=ATOMS, max_swaps: int = 3) -> Permutation:
    swaps = []
    for _ in range(rng.randint(0, max_swaps)):
        swaps.append(tuple(rng.sample(atoms, 2)))
    return Permutation(tuple(swaps))


def random_term(rng: random.Random, depth: int, atoms=ATOMS, unknowns=UNKNOWNS, formers=FORMERS):
    leaf_kinds = ["atom", "susp"] if unknowns else ["atom"]
    kinds = leaf_kinds if depth <= 1 else leaf_kinds + ["abs", "app", "app"]
    match rng.choice(kinds):
        case "atom":
            return AtomTerm(rng.choice(atoms))
        case "susp":
            return Suspension(random_perm(rng, atoms), rng.choice(unknowns))
        case "abs":
            return Abstraction(rng.choice(atoms), random_term(rng, depth - 1, atoms, unknowns, formers))
        case "app":
            former, arity = rng.choice(formers)
            args = tuple(random_term(rng, depth - 1, atoms, unknowns, formers) for _ in range(arity))
            return App(former, args)


def random_subst(rng: random.Random, depth: int = 3, atoms=ATOMS, unknowns=UNKNOWNS) -> Substitution:
    chosen = [x for x in unknowns if rng.random() < 0.6]
    return Substitution({x: random_term(rng, depth, atoms, unknowns) for x in chosen})


def random_ctx(rng: random.Random, atoms=ATOMS, unknowns=UNKNOWNS) -> FreshnessContext:
    pairs = {(a, x) for a in atoms for x in unknowns if rng.random() < 0.3}
    return FreshnessContext(frozenset(pairs))


def machine_atoms(t):
    return {a for a in atoms_of(t) if a.is_machine}


def alpha_mod_machine(ctx: FreshnessContext, s, t) -> bool:
    """Alpha-equivalence up to a bijective renaming of machine-fresh atoms.

    The freshened variant depends on the names of the rule and the subject,
    so two runs of the closed engine may report results differing only in
    which machine atoms they picked; this is the right notion of agreement
    for such results.
    """
    if alpha_holds(ctx, s, t):
        return True
    ms, mt = sorted(machine_atoms(s)), sorted(machine_atoms(t))
    if len(ms) != len(mt) or not ms:
        return False
    for images in itertools.permutations(ms):
        pi = Permutation(tuple(zip(mt, images)))
        if alpha_holds(ctx, s, act(pi, t)):
            return True
    return False


def step_classes_match(ctx: FreshnessContext, left_results, right_results) -> bool:
    """Do two collections of step results cover the same alpha-classes,
    modulo machine-atom renaming?"""
    return all(
        any(alpha_mod_machine(ctx, l, r) for r in right_results) for l in left_results
    ) and all(
        any(alpha_mod_machine(ctx, l, r) for l in left_results) for r in right_results
    )


def alpha_perturb(rng: random.Random, ctx: FreshnessContext, t, atoms=ATOMS):
    """A term alpha-equivalent to t under ctx, built by renaming binders
    where freshness allows and padding suspensions with context-justified
    swaps."""
    match t:
        case AtomTerm():
            return t
        case Suspension(pi, x):
            fresh_for_x = [a for a in atoms if (a, x) in ctx]
            if len(fresh_for_x) >= 2 and rng.random() < 0.5:
                # pi o (a b) disagrees with pi exactly on {a, b}, both of
                # which the context makes fresh for x.
                extra = swap(*rng.sample(fresh_for_x, 2))
                return Suspension(pi * extra, x)
            return t
        case Abstraction(a, body):
            body = alpha_perturb(rng, ctx, body, atoms)
            candidates = [z for z in atoms if z != a and fresh_holds(ctx, z, body)]
            if candidates and rng.random() < 0.5:
                z = rng.choice(candidates)
                return Abstraction(z, act(swap(z, a), body))
            return Abstraction(a, body)
        case App(f, args):
            return App(f, tuple(alpha_perturb(rng, ctx, u, atoms) for u in args))
