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
& Gabbay), and which copies nothing when q = q0.
Matching solutions are unique up to alpha-equivalence under the target
context; the solver returns the first computed, which is not canonical.

rho is one map and its inverse, updated in place in O(1) at a mismatched
binder and put back by a restore entry once the binder's body is done, as
`alpha_holds` restores its levels; rho o pi is built only at a suspension.
The obligations c # l are answered in the same walk, which visits every
node of l anyway: the walk keeps the atoms c pending under the binders
above it, a pattern binder of c hides c in its body, a pattern atom leaf
that is pending fails the match at once, and a suspension pi.X under
pending c asks pi^-1(c) # sigma(X).  That is r(c) # s for X's image
r^-1.s, asked of the raw target s once X is bound, each (atom, unknown)
pair once per solve, together with the pattern context's.  So a chain of
n nested mismatched binders takes O(n) steps plus one O(n) snapshot of
rho per suspension, a match whose freshness fails builds no image, and the
alpha checks, linear and stopping at the first difference, build no key.

The solution is checked against its definition before it is returned
(`is_solution`), again without building the instance pattern.sigma: the
alpha walk reads each pattern suspension pi.X as pi.sigma(X) where it
meets it.  For a bare X first met under no mismatched binder, rho o pi is
the identity, so sigma(X) is the target subterm s0 met there and
pi.sigma(X) is s0 itself; the same object under binders that both sides
map to equal levels keys alike, so the pair is skipped unwalked.  Anywhere
else the image is walked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .alpha import FreshnessContext, alpha_holds, fresh_holds
from .terms import (
    ID,
    _END,
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
    _swap_into,
    _undo,
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
    and the instantiated pattern is alpha-equivalent to the target.

    The last is asked in one walk with no instance built: `alpha_holds`
    reads each pattern suspension pi.X as act(pi, sigma(X)) in place, and
    skips the pair unwalked where that is the target's own node under
    binders that both sides map to equal levels (module docstring)."""
    if not set(sigma) <= unknowns_of(problem.pattern_ctx, problem.pattern):
        return False
    for a, x in problem.pattern_ctx:
        if not fresh_holds(problem.target_ctx, a, sigma.image(x)):
            return False
    return alpha_holds(problem.target_ctx, problem.pattern, problem.target, sigma)


def solve_match(problem: MatchProblem) -> Optional[MatchSolution]:
    """Return a solution, or None when none exists."""
    delta = problem.target_ctx
    binds: dict = {}  # X -> (r, s) at X's first occurrence, r = rho o pi; X's image is r^-1.s
    asks: dict = {}  # (c, X) -> None: c # sigma(X) is asked once binds is complete
    rho: dict[Atom, Atom] = {}  # the pending permutation's moved atoms, pattern side -> target side
    back: dict[Atom, Atom] = {}  # rho^-1
    pending: dict[Atom, bool] = {}  # c -> True while c # l is pending for the pattern node l walked
    work: list = [(problem.pattern, problem.target)]
    while work:
        l, s = work.pop()  # rho.l is to match s
        kind = type(l)
        if kind is Suspension:
            x = l.unknown
            r = Permutation._of(dict(rho)) * l.perm if rho else l.perm
            if x not in binds:
                binds[x] = r, s
            elif not alpha_holds(delta, binds[x][1], act(binds[x][0] * r.inverse(), s)):
                return None
            if pending:  # c # pi.X is pi^-1(c) # X
                inverse = l.perm.inverse()
                for c in pending:
                    asks[inverse(c), x] = None
        elif kind is not type(s):
            if l is _END:  # a restore entry: the binder's body is done
                _undo(s)
                continue
            return None
        elif kind is AtomTerm:
            a = l.atom
            if a in pending or rho.get(a, a) is not s.atom:
                return None
        elif kind is Abstraction:
            a, b = l.atom, s.atom
            ra = rho.get(a, a)
            undo: list = []
            if a in pending:  # [a] hides a from the checks pending above it
                undo.append((pending, a, True))
                del pending[a]
            if ra is not b:  # rho^-1(b) # lbody, and (b ra) o rho . lbody matches sbody
                c = back.get(b, b)
                if c not in pending:
                    undo.append((pending, c, None))
                    pending[c] = True
                _swap_into(rho, back, b, ra, undo)
            if undo and work:
                work.append((_END, undo))
            work.append((l.body, s.body))
        elif kind is App and l.former == s.former and len(l.args) == len(s.args):
            work.extend(zip(l.args, s.args))
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

    # c # sigma(X) is c # r^-1.s, that is r(c) # s: each (atom, unknown)
    # pair is asked once, of the raw target, before any image is built.
    for a, x in problem.pattern_ctx:
        asks[a, x] = None
    for c, x in asks:
        r, s = binds[x]
        if not fresh_holds(delta, r(c), s):
            return None
    sigma = Substitution({x: act(r.inverse(), s) for x, (r, s) in binds.items()})
    assert is_solution(problem, sigma)
    return MatchSolution(sigma)
