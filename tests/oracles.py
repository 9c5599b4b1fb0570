"""Oracles that tests check the engine against, kept apart from it.

Each decides its question without the engine's fast paths: the nameless
form of a ground term decides alpha-equivalence, the brute-force
enumeration of candidate substitutions decides matching on desk-scale
problems, and the equivariance sample checks that a permuted step is still
a step.
"""

from __future__ import annotations

import itertools

from nomrew import (
    Abstraction,
    App,
    Atom,
    AtomTerm,
    FreshnessContext,
    MAX_SUPPORT,
    MatchProblem,
    NominalError,
    Permutation,
    RewriteRule,
    Substitution,
    Suspension,
    Term,
    act,
    alpha_holds,
    atoms_of,
    is_solution,
    rewrite_step_general,
    subterms,
    term_size,
    unknowns_of,
)
from nomrew.terms import fresh_names


# -- alpha-equivalence of ground terms -----------------------------------------


class NonGroundError(NominalError):
    pass


def nameless_form(t: Term, binders: tuple[Atom, ...] = ()) -> tuple:
    """Convert a ground term to a nameless (binder-indexed) tree.

    Bound atoms become their de Bruijn distance to the binder, free atoms
    stay by name.  Two ground terms are alpha-equivalent exactly when their
    nameless forms are equal.
    """
    match t:
        case AtomTerm(a):
            for i, b in enumerate(reversed(binders)):
                if a == b:
                    return ("bound", i)
            return ("free", a.name)
        case Abstraction(a, body):
            return ("abs", nameless_form(body, binders + (a,)))
        case App(f, args):
            return ("app", f, tuple(nameless_form(u, binders) for u in args))
        case Suspension():
            raise NonGroundError(f"term contains an unknown: {t!r}")
    raise TypeError(f"not a term: {t!r}")


def alpha_oracle_ground(s: Term, t: Term) -> bool:
    """Alpha-equivalence of ground terms, decided independently of the
    Figure-style rules via the nameless conversion."""
    if unknowns_of(s) or unknowns_of(t):
        raise NonGroundError("alpha_oracle_ground requires ground terms")
    return nameless_form(s) == nameless_form(t)


# -- matching by brute force ----------------------------------------------------


class OracleOverflow(NominalError):
    """The brute-force oracle refused an input beyond its documented bounds."""


MAX_ORACLE_NODES = 12
MAX_ORACLE_UNKNOWNS = 3


def enumerate_solutions_small(problem: MatchProblem, atom_budget: int = 1) -> list[Substitution]:
    """Brute-force matching oracle for desk-scale problems.

    Candidate images are the subterms of the target (plus bare atoms) closed
    under all permutations of the problem's atoms plus `atom_budget` spare
    atoms; every assignment of pattern unknowns to candidates is filtered
    through is_solution.  Used to certify no-match answers in tests.
    Raises OracleOverflow beyond its documented bounds rather than silently
    truncating.
    """
    if term_size(problem.target) > MAX_ORACLE_NODES:
        raise OracleOverflow(f"target has more than {MAX_ORACLE_NODES} nodes")
    pattern_unknowns = sorted(unknowns_of(problem.pattern_ctx, problem.pattern))
    if len(pattern_unknowns) > MAX_ORACLE_UNKNOWNS:
        raise OracleOverflow(f"pattern has more than {MAX_ORACLE_UNKNOWNS} unknowns")

    base = atoms_of(problem.pattern_ctx, problem.pattern, problem.target_ctx, problem.target)
    spare_names = fresh_names("s", atom_budget, {a.name for a in base})
    universe = sorted(base) + [Atom(n) for n in spare_names]

    seeds = list(subterms(problem.target)) + [AtomTerm(a) for a in universe]
    candidates = set()
    for perm_images in itertools.permutations(universe):
        pi = Permutation.from_mapping(dict(zip(universe, perm_images)))
        for u in seeds:
            candidates.add(act(pi, u))
    ordered = sorted(candidates, key=repr)

    out = []
    seen = set()
    for images in itertools.product(ordered, repeat=len(pattern_unknowns)):
        sigma = Substitution(zip(pattern_unknowns, images))
        if sigma in seen:
            continue
        seen.add(sigma)
        if is_solution(problem, sigma):
            out.append(sigma)
    return out


# -- equivariance of one step ---------------------------------------------------


def check_equivariance_sample(
    ctx: FreshnessContext,
    s: Term,
    t: Term,
    rule: RewriteRule,
    pi: Permutation,
    max_support: int = MAX_SUPPORT,
) -> bool:
    """Given that s one-step rewrites to t, confirm pi.s one-step rewrites
    to pi.t (equivariance of the one-step relation).  The target's atoms are
    added to the search universe so the witnessing permutation is in range."""
    target = act(pi, t)
    steps = rewrite_step_general(ctx, act(pi, s), rule, max_support, extra_atoms=atoms_of(target))
    return any(alpha_holds(ctx, step.result, target) for step in steps)
