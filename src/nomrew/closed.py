"""Freshened variants, the closedness test, closed rewriting, and the
equality decision procedure for convergent closed theories.

Closed rewriting runs on the core in rewrite.py with its own preparation of
a rule for a subject.  Each rule is freshened once, with nothing to avoid:
its atoms and unknowns are renamed to machine names (stem$n), which no
parsed subject can mention, and that variant is kept with the rule object
together with its closedness verdict.  The closedness test matches the rule
against that same variant, and closed steps fire it; a subject only falls
back to a variant freshened away from it when it already mentions one of the
kept variant's names.  The core prepares a rule for a subject at the first
hole the rule's lhs fits, in one object (`_prepare_closed`): the context is
extended with freshness of the variant's atoms for the subject's unknowns,
and each hole is solved by plain matching under the identity permutation.
There is no permutation search at all, which is the efficiency payoff over
general rewriting, and no alpha-variant of the subject is tried: firing a
variant freshened apart from the subject makes closed steps respect
alpha-equivalence (Fernandez & Gabbay), so the steps of the subject as
written are all there is to find.  Machine atoms that the match drags into
the result only ever occur where the extended context proves them fresh, so
one scrubbing pass from the root rewrites each result to an alpha-equivalent
representative mentioning as few of them as possible: each machine binder is
renamed once, before its body is walked, into a pool of the subject's atoms,
the rule's and a few spares.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_not
from typing import Optional

from .alpha import FreshnessContext, alpha_holds, fresh_holds
from .matching import MatchProblem, _require_apart, solve_match
from .rewrite import (
    NormalizeResult,
    PreparedRule,
    ReachableSet,
    RewriteRule,
    StepResults,
    Subject,
    Theory,
    _complete_perm,
    _fresh_maps,
    _rename_ctx,
    _rename_rule,
    _rename_term,
    _spares,
    normalize,
    reachable,
    rewrite_steps,
)
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
    atoms_of,
    substitute,
    swap,
    unknowns_of,
)

PAIR_FORMER = "$pair"  # reserved 2-ary former used by the rule closedness test


class NotClosedError(NominalError):
    pass


def freshen_rule(
    rule: RewriteRule,
    avoid_atoms: set[Atom] = frozenset(),
    avoid_unknowns: set[Unknown] = frozenset(),
) -> RewriteRule:
    """The rule with its atoms and its unknowns renamed one to one to machine
    names that avoid the given ones and everything in the rule."""
    avoid = {v.name for v in [*avoid_atoms, *avoid_unknowns]}
    return _rename_rule(rule, *_fresh_maps(rule.atoms(), rule.unknowns(), avoid))


@dataclass(frozen=True)
class ClosednessResult:
    closed: bool
    problem: MatchProblem
    witness: Optional[Substitution]

    def __bool__(self):
        return self.closed


def is_closed(ctx: FreshnessContext, t: Term) -> ClosednessResult:
    """Does (ctx |- t) match its own freshened variant under ctx extended
    with freshness of all the variant's atoms for all of t's unknowns?  The
    answer does not depend on which freshened variant is chosen."""
    amap, umap = _fresh_maps(atoms_of(ctx, t), unknowns_of(ctx, t), set())
    return _match_variant(ctx, t, _rename_ctx(ctx, amap, umap), _rename_term(t, amap, umap))


def is_closed_rule(rule: RewriteRule) -> ClosednessResult:
    """A rule (or axiom) is closed when its context paired with both sides,
    packed with a reserved pair former, is closed.  The variant matched is
    the one the rule keeps for closed rewriting; paired up, it is the very
    variant that is_closed picks for the pair."""
    variant = _variant(rule)
    pair = lambda r: App(PAIR_FORMER, (r.lhs, r.rhs))
    return _match_variant(rule.ctx, pair(rule), variant.ctx, pair(variant))


def _match_variant(ctx: FreshnessContext, t: Term, fresh_ctx: FreshnessContext, fresh_t: Term) -> ClosednessResult:
    """Match (fresh_ctx |- fresh_t), a freshened variant of (ctx |- t),
    against t under ctx extended with freshness of the variant's atoms."""
    extension = {(a, x) for a in atoms_of(fresh_ctx, fresh_t) for x in unknowns_of(ctx, t)}
    problem = MatchProblem(fresh_ctx, fresh_t, ctx.with_pairs(extension), t)
    sol = solve_match(problem)
    return ClosednessResult(sol is not None, problem, sol.sigma if sol else None)


def scrub(ctx: FreshnessContext, t: Term, pool: list[Atom]) -> Term:
    """Rewrite t to an alpha-equivalent term (under ctx) mentioning as few
    machine atoms as possible, in one pass from the root that carries a
    pending permutation pi, the renamings made above.  A binder [c]b
    stands for [a]pi.b with a = pi(c).  When c or a is machine-named, it
    takes the first pool atom z that is either a itself, if a is not
    machine-named, or fresh for pi.b, and b is walked under (z a) o pi;
    otherwise it stays [a].  Atoms are mapped through pi, and each
    suspension s.X becomes pi o s less the disagreements that ctx makes
    fresh for X.  Testing c as well as a gives a machine binder that an
    outer rename moved onto a plain atom the name it would get on its own,
    so steps name binders as when each body was scrubbed before its binder.
    A node it does not change comes back as the same object, as in every
    rebuild of terms.py."""
    stack: list = [(t, ID)]
    values: list = []
    while stack:
        entry = stack.pop()
        if type(entry) is not tuple:  # entry's children are done
            if type(entry) is Abstraction:
                a, body = values[-2:]
                values[-2:] = [entry if a is entry.atom and body is entry.body else Abstraction(a, body)]
            else:
                n = len(values) - len(entry.args)
                args = values[n:]  # entry itself unless an argument came back new
                values[n:] = [App(entry.former, tuple(args)) if any(map(is_not, args, entry.args)) else entry]
            continue
        u, pi = entry
        kind = type(u)
        if kind is AtomTerm:
            values.append(u if (a := pi(u.atom)) is u.atom else AtomTerm(a))
        elif kind is Suspension:
            # disagreements may stay only on atoms ctx makes fresh for x
            x = u.unknown
            perm = _complete_perm({c: v for c, v in (pi * u.perm).mapping.items() if (c, x) not in ctx})
            values.append(u if perm == u.perm else Suspension(perm, x))
        elif kind is Abstraction:
            a = pi(u.atom)
            if a.is_machine or u.atom.is_machine:
                back = pi.inverse()
                for z in pool:
                    if z is a and not a.is_machine:
                        break
                    if z is not a and fresh_holds(ctx, back(z), u.body):  # z # pi.body
                        pi, a = swap(z, a) * pi, z
                        break
            values.append(a)
            stack += (u, (u.body, pi))
        elif kind is App:
            stack += (u, *[(v, pi) for v in reversed(u.args)])
        else:
            raise TypeError(f"not a term: {u!r}")
    return values[0]


def _variant(rule: RewriteRule) -> RewriteRule:
    """The rule freshened with nothing to avoid, made once per rule object."""
    compiled = rule.compiled
    if "variant" not in compiled:
        compiled["variant"] = freshen_rule(rule)
    return compiled["variant"]


def _is_closed(rule: RewriteRule) -> bool:
    """The rule's closedness verdict, decided once per rule object."""
    compiled = rule.compiled
    if "closed" not in compiled:
        compiled["closed"] = is_closed_rule(rule).closed
    return compiled["closed"]


def _prepare_closed(subject: Subject, rule: RewriteRule) -> PreparedRule:
    """Match the rule's kept variant, or one freshened away from the subject
    when the subject already mentions a name of it, under the context
    extended with freshness of the variant's atoms for the subject's
    unknowns; each hole is solved by plain matching and results are
    scrubbed.  The core calls this at the first hole the rule's own lhs
    fits, and builds it from the subject's names that every rule's
    preparation shares."""
    ctx, subject_atoms, subject_unknowns = subject.ctx, subject.atoms, subject.unknowns
    frule = _variant(rule)
    # The kept variant is the one freshening away from the subject would
    # pick unless the subject mentions one of its names (of either sort,
    # as freshening avoids both); only then is the rule freshened again.
    taken = {v.name for v in (*subject_atoms, *subject_unknowns)}
    if any(v.name in taken for v in (*frule.atoms(), *frule.unknowns())):
        frule = freshen_rule(rule, subject_atoms, subject_unknowns)
    _require_apart(frule.lhs_unknowns, subject_unknowns)
    extension = FreshnessContext(frozenset((a, x) for a in frule.atoms() for x in subject_unknowns))
    ctx2 = ctx | extension
    # Binders the match drags in are renamed back to the subject's and
    # the rule's atoms where freshness allows, else to a few spares.
    pool = sorted(subject_atoms) + sorted(rule.atoms() - subject_atoms) + _spares(rule.atoms(), subject_atoms)

    def instances(hole: Term):
        sol = solve_match(MatchProblem._unchecked(frule.ctx, frule.lhs, ctx2, hole))
        if sol is not None:
            yield ID, sol.sigma, substitute(frule.rhs, sol.sigma)

    finish = lambda t: scrub(ctx2, t, pool)
    return PreparedRule(rule, ctx2, [], instances, finish=finish, freshened=frule, ctx_extension=extension)


def closed_rewrite_step(ctx: FreshnessContext, s: Term, rule: RewriteRule) -> StepResults:
    """All closed one-step rewrites of s as written by the rule.  Closed
    steps respect alpha-equivalence: what an alpha-variant of s steps to is,
    under the step's extended context, alpha-equivalent to one of these."""
    return rewrite_steps(ctx, s, rule, _prepare_closed)


def closed_normalize(
    ctx: FreshnessContext,
    s: Term,
    theory: Theory,
    fuel: int = 500,
    strategy: str | None = None,
) -> NormalizeResult:
    """Normalize by closed steps (leftmost-outermost by default, first rule
    in theory order)."""
    return normalize(ctx, s, theory, _prepare_closed, strategy, fuel)


def closed_reachable(ctx: FreshnessContext, s: Term, theory: Theory, fuel: int) -> ReachableSet:
    """Everything reachable from s in at most `fuel` closed steps."""
    return reachable(ctx, s, theory, _prepare_closed, fuel)


@dataclass
class Decision:
    verdict: str  # "equal" | "not_equal" | "inconclusive"
    left: NormalizeResult
    right: NormalizeResult
    assume_convergent: bool


def decide_equal(
    ctx: FreshnessContext,
    s: Term,
    t: Term,
    theory: Theory,
    assume_convergent: bool = False,
    fuel: int = 500,
) -> Decision:
    """Normalize both sides by closed rewriting and compare normal forms up
    to alpha.  "equal" is always definitive (soundness); "not_equal" is
    definitive only under the convergence assumption, otherwise it degrades
    to "inconclusive", as does running out of fuel.

    Every rule of the theory must be closed; otherwise the theorems backing
    this procedure do not apply and the offending rules are reported.
    """
    bad = [rule.name for rule in theory.rules if not _is_closed(rule)]
    if bad:
        raise NotClosedError(f"rules not closed: {', '.join(bad)}")
    left = closed_normalize(ctx, s, theory, fuel)
    right = closed_normalize(ctx, t, theory, fuel)
    if alpha_holds(ctx, left.term, right.term):
        return Decision("equal", left, right, assume_convergent)
    if left.status == "normal_form" and right.status == "normal_form" and assume_convergent:
        return Decision("not_equal", left, right, assume_convergent)
    return Decision("inconclusive", left, right, assume_convergent)
