"""Freshened variants, the closedness test, closed rewriting, and the
equality decision procedure for convergent closed theories.

Closed rewriting runs on the core in rewrite.py with its own preparation of
a rule for a subject: the rule's atoms and unknowns are renamed once to
machine-fresh ones, the context is extended with freshness of those new
atoms for the subject's unknowns, and each hole is solved by plain matching
under the identity permutation.  There is no permutation search at all,
which is the efficiency payoff over general rewriting.  Machine atoms that
the match drags into the result only ever occur where the extended context
proves them fresh, so a scrubbing pass rewrites each result to an
alpha-equivalent representative mentioning as few of them as possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

from .alpha import FreshnessContext, alpha_holds, fresh_holds
from .matching import MatchProblem, _require_apart, solve_match
from .rewrite import (
    MAX_SUPPORT,
    NormalizeResult,
    PreparedRule,
    ReachableSet,
    RewriteRule,
    RewriteStep,
    StepResults,
    Theory,
    _complete_perm,
    _fresh_maps,
    _rename_ctx,
    _rename_rule,
    _rename_term,
    _universe,
    normalize,
    reachable,
    replay,
    rewrite_steps,
)
from .terms import (
    ID,
    Abstraction,
    App,
    Atom,
    NominalError,
    Substitution,
    Suspension,
    Term,
    Unknown,
    _fold,
    act,
    atoms_of,
    substitute,
    swap,
    unknowns_of,
)

PAIR_FORMER = "$pair"  # reserved 2-ary former used by the rule closedness test


class NotClosedError(NominalError):
    pass


@dataclass(frozen=True)
class FreshenedVariant:
    """A structure-preserving renaming to machine-fresh atoms and unknowns.

    `renamed` has exactly the shape of the original with the two bijections
    applied; the images avoid the caller's avoid sets and everything in the
    original.
    """

    renamed: object
    atom_map: dict
    unknown_map: dict


def freshen_term_in_context(
    ctx: FreshnessContext,
    t: Term,
    avoid_atoms: set[Atom] = frozenset(),
    avoid_unknowns: set[Unknown] = frozenset(),
) -> FreshenedVariant:
    avoid = {v.name for v in [*avoid_atoms, *avoid_unknowns]}
    amap, umap = _fresh_maps(atoms_of(ctx, t), unknowns_of(ctx, t), avoid)
    return FreshenedVariant((_rename_ctx(ctx, amap, umap), _rename_term(t, amap, umap)), amap, umap)


def freshen_rule(
    rule: RewriteRule,
    avoid_atoms: set[Atom] = frozenset(),
    avoid_unknowns: set[Unknown] = frozenset(),
) -> FreshenedVariant:
    avoid = {v.name for v in [*avoid_atoms, *avoid_unknowns]}
    amap, umap = _fresh_maps(rule.atoms(), rule.unknowns(), avoid)
    return FreshenedVariant(_rename_rule(rule, amap, umap), amap, umap)


@dataclass(frozen=True)
class ClosednessResult:
    closed: bool
    problem: MatchProblem
    witness: Optional[Substitution]
    variant: FreshenedVariant

    def __bool__(self):
        return self.closed


def is_closed(ctx: FreshnessContext, t: Term) -> ClosednessResult:
    """Does (ctx |- t) match its own freshened variant under ctx extended
    with freshness of all the variant's atoms for all of t's unknowns?  The
    answer does not depend on which freshened variant is chosen."""
    variant = freshen_term_in_context(ctx, t)
    fresh_ctx, fresh_t = variant.renamed
    extension = {
        (a, x)
        for a in atoms_of(fresh_ctx, fresh_t)
        for x in unknowns_of(ctx, t)
    }
    problem = MatchProblem(fresh_ctx, fresh_t, ctx.with_pairs(extension), t)
    sol = solve_match(problem)
    return ClosednessResult(sol is not None, problem, sol.sigma if sol else None, variant)


def is_closed_rule(rule: RewriteRule) -> ClosednessResult:
    """A rule (or axiom) is closed when its context paired with both sides,
    packed with a reserved pair former, is closed."""
    return is_closed(rule.ctx, App(PAIR_FORMER, (rule.lhs, rule.rhs)))


def scrub(ctx: FreshnessContext, t: Term, pool: list[Atom]) -> Term:
    """Rewrite t to an alpha-equivalent term (under ctx) mentioning as few
    machine atoms as possible: suspension permutations are minimized using
    the freshness facts ctx provides, and machine-named binders are renamed
    into the pool where freshness allows."""

    def on_susp(u: Suspension) -> Term:
        # disagreements may stay only on atoms ctx makes fresh for x
        x = u.unknown
        return Suspension(_complete_perm({c: v for c, v in u.perm.mapping.items() if (c, x) not in ctx}), x)

    def on_abs(u: Abstraction, body: Term) -> Term:
        a = u.atom
        if a.is_machine:
            for z in pool:
                if z != a and fresh_holds(ctx, z, body):
                    # the rename pushes a swap into suspensions, so the
                    # renamed body needs scrubbing again
                    return Abstraction(z, scrub(ctx, act(swap(z, a), body), pool))
        return Abstraction(a, body)

    return _fold(t, lambda u: u, on_susp, on_abs, lambda u, args: App(u.former, args))


def _prepare_closed(
    ctx: FreshnessContext,
    s: Term,
    rule: RewriteRule,
    max_support: int = MAX_SUPPORT,
) -> PreparedRule:
    """Freshen the rule once against everything in sight, extend the context
    with freshness of the freshened atoms for the subject's unknowns, and
    solve each hole by plain matching; results are scrubbed."""
    subject_atoms, subject_unknowns = atoms_of(ctx, s), unknowns_of(ctx, s)
    variant = freshen_rule(rule, subject_atoms, subject_unknowns)
    frule: RewriteRule = variant.renamed
    _require_apart(unknowns_of(frule.ctx, frule.lhs), subject_unknowns)
    extension = FreshnessContext(frozenset((a, x) for a in frule.atoms() for x in subject_unknowns))
    ctx2 = ctx | extension
    # Same variant universe as the general engine so the two step relations
    # stay comparable on closed rules.  Without a permutation search the cap
    # loses no step, so the preparation is never truncated.
    universe, _ = _universe(rule.atoms(), subject_atoms, max_support)
    pool = sorted(subject_atoms) + sorted(rule.atoms() - subject_atoms) + [a for a in universe if a.is_machine]

    def instances(hole: Term):
        sol = solve_match(MatchProblem._unchecked(frule.ctx, frule.lhs, ctx2, hole))
        if sol is not None:
            yield ID, sol.sigma, substitute(frule.rhs, sol.sigma)

    return PreparedRule(
        rule, frule.lhs, ctx2, universe, False, instances,
        lambda t: scrub(ctx2, t, pool), "closed", frule, extension,
    )


def closed_rewrite_step(
    ctx: FreshnessContext,
    s: Term,
    rule: RewriteRule,
    max_support: int = MAX_SUPPORT,
) -> StepResults:
    """All closed one-step rewrites of s by the rule, modulo alpha on the
    subject."""
    return rewrite_steps(s, _prepare_closed(ctx, s, rule, max_support))


def replay_closed_step(ctx: FreshnessContext, step: RewriteStep) -> bool:
    """Re-verify a closed step from its recorded freshened rule and context
    extension, the recorded rule standing in for the theory's."""
    return replay(ctx, step, step.freshened)


def closed_normalize(
    ctx: FreshnessContext,
    s: Term,
    theory: Theory,
    fuel: int = 500,
    strategy: str | None = None,
    max_support: int = MAX_SUPPORT,
) -> NormalizeResult:
    """Normalize by closed steps (leftmost-outermost by default, first rule
    in theory order)."""
    return normalize(ctx, s, theory, partial(_prepare_closed, max_support=max_support), strategy, fuel)


def closed_reachable(
    ctx: FreshnessContext,
    s: Term,
    theory: Theory,
    fuel: int,
    max_support: int = MAX_SUPPORT,
) -> ReachableSet:
    """Everything reachable from s in at most `fuel` closed steps."""
    return reachable(ctx, s, theory, partial(_prepare_closed, max_support=max_support), fuel)


def closed_joinable(
    ctx: FreshnessContext,
    s: Term,
    t: Term,
    theory: Theory,
    fuel: int = 5,
    max_support: int = MAX_SUPPORT,
) -> bool:
    """Is there a term both sides closed-rewrite to (within the fuel)?"""
    from_s = closed_reachable(ctx, s, theory, fuel, max_support)
    from_t = closed_reachable(ctx, t, theory, fuel, max_support)
    return any(u in from_t for u in from_s)


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
    max_support: int = MAX_SUPPORT,
) -> Decision:
    """Normalize both sides by closed rewriting and compare normal forms up
    to alpha.  "equal" is always definitive (soundness); "not_equal" is
    definitive only under the convergence assumption, otherwise it degrades
    to "inconclusive", as does running out of fuel.

    Every rule of the theory must be closed; otherwise the theorems backing
    this procedure do not apply and the offending rules are reported.
    """
    bad = [rule.name for rule in theory.rules if not is_closed_rule(rule)]
    if bad:
        raise NotClosedError(f"rules not closed: {', '.join(bad)}")
    left = closed_normalize(ctx, s, theory, fuel, max_support=max_support)
    right = closed_normalize(ctx, t, theory, fuel, max_support=max_support)
    if alpha_holds(ctx, left.term, right.term):
        return Decision("equal", left, right, assume_convergent)
    if left.status == "normal_form" and right.status == "normal_form" and assume_convergent:
        return Decision("not_equal", left, right, assume_convergent)
    return Decision("inconclusive", left, right, assume_convergent)
