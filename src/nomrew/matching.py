"""Nominal matching: instantiate the unknowns of a pattern-in-context so it
becomes alpha-equivalent to a target term under the target's context.

The solver decomposes a worklist of pattern/target pairs, reading the
pattern under a pending permutation rho that it carries down instead of
applying (Calves & Fernandez).  A mismatched abstraction [a]l against [b]s
records the obligation rho^-1(b) # l, mirroring the ~[b] rule, and goes on
with l under (b rho(a)) o rho; a suspension pi.X resolves to
X -> (rho o pi)^-1 . target.  Duplicate occurrences are reconciled by an
alpha check, and the pending and pattern-context obligations are checked
once the substitution is complete.  Matching solutions are unique up to
alpha-equivalence under the target context; the solver returns the first
computed, which is not canonical.  The alpha checks are linear, but each
mismatched binder's pending freshness check walks its substituted body, so
a chain of n nested mismatched binders costs O(n^2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .alpha import FreshnessContext, alpha_holds, fresh_holds
from .terms import (
    ID,
    Abstraction,
    App,
    Atom,
    AtomTerm,
    NominalError,
    Permutation,
    Substitution,
    Suspension,
    Term,
    Unknown,
    act,
    atoms_of,
    fresh_names,
    subterms,
    substitute,
    swap,
    term_size,
    unknowns_of,
)


class MatchProblemError(NominalError):
    pass


class OracleOverflow(NominalError):
    """The brute-force oracle refused an input beyond its documented bounds."""


def _require_apart(pattern_unknowns: set[Unknown], target_unknowns: set[Unknown]) -> None:
    """Raise MatchProblemError when the two sides share an unknown."""
    shared = pattern_unknowns & target_unknowns
    if shared:
        names = ", ".join(sorted(x.name for x in shared))
        raise MatchProblemError(f"pattern and target share unknowns: {names}")


@dataclass(frozen=True)
class MatchProblem:
    """(pattern_ctx |- pattern) matched against (target_ctx |- target).

    The two sides may not share unknowns.  The public constructor checks
    this on every problem.  The rewriting engines instead check it once per
    prepared rule against the whole subject, whose subterms are the only
    targets they match, and then build each problem with `_unchecked`.
    """

    pattern_ctx: FreshnessContext
    pattern: Term
    target_ctx: FreshnessContext
    target: Term

    def __post_init__(self):
        _require_apart(unknowns_of(self.pattern_ctx, self.pattern), unknowns_of(self.target_ctx, self.target))

    @classmethod
    def _unchecked(
        cls, pattern_ctx: FreshnessContext, pattern: Term, target_ctx: FreshnessContext, target: Term
    ) -> "MatchProblem":
        """A problem whose sides the caller has already kept apart."""
        problem = object.__new__(cls)
        problem.__dict__.update(pattern_ctx=pattern_ctx, pattern=pattern, target_ctx=target_ctx, target=target)
        return problem


@dataclass(frozen=True)
class MatchSolution:
    sigma: Substitution


def is_solution(problem: MatchProblem, sigma: Substitution) -> bool:
    """The three defining conditions: the domain lies within the pattern
    side, the instantiated pattern context holds under the target context,
    and the instantiated pattern is alpha-equivalent to the target."""
    if not set(sigma) <= unknowns_of(problem.pattern_ctx, problem.pattern):
        return False
    for a, x in problem.pattern_ctx:
        if not fresh_holds(problem.target_ctx, a, sigma.image(x)):
            return False
    return alpha_holds(problem.target_ctx, substitute(problem.pattern, sigma), problem.target)


def solve_match(problem: MatchProblem) -> Optional[MatchSolution]:
    """Return a solution, or None when none exists."""
    delta = problem.target_ctx
    binds: dict = {}
    pending: list[tuple[Atom, Term]] = []  # c # l, checked once binds is complete
    work = [(problem.pattern, problem.target, ID)]
    while work:
        l, s, rho = work.pop()  # rho.l is to match s
        match (l, s):
            case (AtomTerm(a), AtomTerm(b)):
                if rho(a) != b:
                    return None
            case (Suspension(pi, x), _):
                image = act((rho * pi).inverse(), s)
                if x in binds:
                    if not alpha_holds(delta, binds[x], image):
                        return None
                else:
                    binds[x] = image
            case (Abstraction(a, lbody), Abstraction(b, sbody)):
                a = rho(a)
                if a != b:  # b # rho.lbody, and (b a).rho.lbody matches sbody
                    pending.append((rho.inverse()(b), lbody))
                    rho = swap(b, a) * rho
                work.append((lbody, sbody, rho))
            case (App(f, largs), App(g, sargs)):
                if f != g or len(largs) != len(sargs):
                    return None
                work.extend(zip(largs, sargs, itertools.repeat(rho)))
            case _:
                return None

    # Unknowns constrained by the pattern context but absent from the
    # pattern can always be sent to an atom fresh for everything in sight.
    leftover = {x for _, x in problem.pattern_ctx if x not in binds}
    if leftover:
        used = {a.name for a in atoms_of(problem.pattern_ctx, problem.pattern, problem.target_ctx, problem.target)}
        spare = AtomTerm(Atom(fresh_names("m", 1, used)[0]))
        for x in leftover:
            binds[x] = spare

    sigma = Substitution(binds)
    for b, p in pending:
        if not fresh_holds(delta, b, substitute(p, sigma)):
            return None
    for a, x in problem.pattern_ctx:
        if not fresh_holds(delta, a, sigma.image(x)):
            return None
    assert is_solution(problem, sigma)
    return MatchSolution(sigma)


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
