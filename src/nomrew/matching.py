"""Nominal matching: instantiate the unknowns of a pattern-in-context so it
becomes alpha-equivalent to a target term under the target's context.

The solver decomposes a worklist of pattern/target pairs, reading the
pattern under a pending permutation rho that it carries down instead of
applying (Calves & Fernandez).  A mismatched abstraction [a]l against [b]s
records the obligation rho^-1(b) # l, mirroring the ~[b] rule, and goes on
with l under (b rho(a)) o rho; a suspension pi.X resolves to
X -> (rho o pi)^-1 . target, from X's first occurrence (q0, s0), built
once every check has passed.  A repeated occurrence (q, s) is checked
by s0 ~ (q0^-1 o q).s, which holds exactly when q0.s0 ~ q.s does, since
permutations preserve alpha-equivalence under a fixed context (Urban, Pitts
& Gabbay), and which copies nothing when q = q0.  The pending and
pattern-context obligations are checked once the walk is done.
Matching solutions are unique up to alpha-equivalence under the target
context; the solver returns the first computed, which is not canonical.
The alpha checks are linear.  A pending check c # l.sigma builds no
instance: it walks the pattern body l, and at a suspension pi.X asks
pi^-1(c) # sigma(X), which is r(c) # s for X's image r^-1.s, on the raw
target s, each (atom, unknown) pair once per solve.  So each target is
walked once per distinct pair however often X occurs, and a match whose
freshness fails builds no image.  A chain of n nested mismatched binders
in the pattern still walks O(n^2) pattern nodes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .alpha import FreshnessContext, _fresh_where, alpha_holds, fresh_holds
from .terms import (
    ID,
    Abstraction,
    App,
    Atom,
    AtomTerm,
    NominalError,
    Substitution,
    Suspension,
    Term,
    Unknown,
    act,
    atoms_of,
    fresh_names,
    substitute,
    swap,
    unknowns_of,
)


class MatchProblemError(NominalError):
    pass


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
    binds: dict = {}  # X -> (r, s) at X's first occurrence, r = rho o pi; X's image is r^-1.s
    pending: list[tuple[Atom, Term]] = []  # c # l, checked once binds is complete
    work = [(problem.pattern, problem.target, ID)]
    while work:
        l, s, rho = work.pop()  # rho.l is to match s
        kind = type(l)
        if kind is Suspension:
            r, x = rho * l.perm, l.unknown
            if x not in binds:
                binds[x] = r, s
            elif not alpha_holds(delta, binds[x][1], act(binds[x][0] * r.inverse(), s)):
                return None
        elif kind is not type(s):
            return None
        elif kind is AtomTerm:
            if rho(l.atom) is not s.atom:
                return None
        elif kind is Abstraction:
            a, b = rho(l.atom), s.atom
            if a is not b:  # b # rho.lbody, and (b a).rho.lbody matches sbody
                pending.append((rho.inverse()(b), l.body))
                rho = swap(b, a) * rho
            work.append((l.body, s.body, rho))
        elif kind is App and l.former == s.former and len(l.args) == len(s.args):
            work.extend(zip(l.args, s.args, itertools.repeat(rho)))
        else:
            return None

    # Unknowns constrained by the pattern context but absent from the
    # pattern can always be sent to an atom fresh for everything in sight.
    leftover = {x for _, x in problem.pattern_ctx if x not in binds}
    if leftover:
        used = {a.name for a in atoms_of(problem.pattern_ctx, problem.pattern, problem.target_ctx, problem.target)}
        spare = AtomTerm(Atom(fresh_names("m", 1, used)[0]))
        for x in leftover:
            binds[x] = ID, spare

    # b # p.sigma is read off the pattern p: a suspension pi.X asks
    # pi^-1(b) # sigma(X), and c # r^-1.s is r(c) # s, so each (atom,
    # unknown) pair is asked once, of the raw target, before any image.
    known: dict = {}

    def fresh_image(c: Atom, x: Unknown) -> bool:
        got = known.get((c, x))
        if got is None:
            r, s = binds[x]
            got = known[c, x] = fresh_holds(delta, r(c), s)
        return got

    for b, p in pending:
        if not _fresh_where(b, p, fresh_image):
            return None
    for a, x in problem.pattern_ctx:
        if not fresh_image(a, x):
            return None
    sigma = Substitution({x: act(r.inverse(), s) for x, (r, s) in binds.items()})
    assert is_solution(problem, sigma)
    return MatchSolution(sigma)

