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
the instance only ever occur where the extended context proves them fresh,
so one scrubbing pass over the instance rewrites it to an alpha-equivalent
one mentioning as few of them as possible: each machine binder is renamed
once, before its body is walked, into a pool of the subject's atoms, the
rule's and a few spares.  A step's result is C[scrub(r theta)], as a general
one is C[pi.(r theta)]: nothing outside the hole changes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import is_not
from typing import Optional

from .alpha import FreshnessContext, alpha_holds
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
    _swap_into,
    _undo,
    atoms_of,
    names_of,
    substitute,
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
    amap, umap = _fresh_maps(*names_of(ctx, t), set())
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
    rebuild of terms.py.

    pi is one map and its inverse, updated in place at a renamed binder and
    put back once its body is done.  z # pi.b is pi^-1(z) # b, which
    `_Bindings` answers by binary search after one pass over the subtree of
    the first machine binder met, so n nested machine binders take time
    O(n log n).
    """
    rename: dict[Atom, Atom] = {}  # pi's moved atoms
    back: dict[Atom, Atom] = {}  # pi^-1
    bindings = None  # for the subtree of a machine binder met outside the last one's subtree
    pos = -1  # the preorder position of the node walked
    stack: list = [t]
    values: list = []
    while stack:
        u = stack.pop()
        if u is _END:  # the node next on the stack has its children done
            u = stack.pop()
            if type(u) is Abstraction:
                _undo(stack.pop())  # pi as it was above the binder
                a, body = values[-2:]
                values[-2:] = [u if a is u.atom and body is u.body else Abstraction(a, body)]
            else:
                n = len(values) - len(u.args)
                args = values[n:]  # u itself unless an argument came back new
                values[n:] = [App(u.former, tuple(args)) if any(map(is_not, args, u.args)) else u]
            continue
        pos += 1
        kind = type(u)
        if kind is AtomTerm:
            values.append(u if (a := rename.get(u.atom, u.atom)) is u.atom else AtomTerm(a))
        elif kind is Suspension:
            # disagreements may stay only on atoms ctx makes fresh for x
            x = u.unknown
            composed = Permutation._of(dict(rename)) * u.perm if rename else u.perm
            perm = _complete_perm({c: v for c, v in composed.mapping.items() if (c, x) not in ctx})
            values.append(u if perm == u.perm else Suspension(perm, x))
        elif kind is Abstraction:
            c = u.atom
            a = rename.get(c, c)
            undo: list | tuple = ()
            if a.is_machine or c.is_machine:
                undo = []
                if bindings is None or pos > bindings.stop:
                    bindings = _Bindings(u, pos)
                for z in pool:
                    if z is a and not a.is_machine:
                        break
                    if z is not a and bindings.fresh(ctx, back.get(z, z), pos):  # z # pi.body
                        _swap_into(rename, back, z, a, undo)
                        a = z
                        break
            values.append(a)
            stack += (undo, u, _END, u.body)
        elif kind is App:
            stack += (u, _END, *reversed(u.args))
        else:
            raise TypeError(f"not a term: {u!r}")
    return values[0]


class _Bindings:
    """Where each binding of a term is used, read in one preorder pass, to
    answer y # b for the body b of any binder in the term.

    Nodes are named by their preorder positions, the root's being `first`.
    A binding is the position of a binder, or -1 for an atom free in the
    term.  An atom leaf is filed under its atom and binding, and each
    binder keeps the last position of its body and the binding its atom
    had around it.  Then y # b holds when no leaf filed under y and y's
    binding at b lies in b, found by binary search, and every suspension
    pi.X in b either is under another binder of y or has (pi^-1(y), X) in
    the context.
    """

    def __init__(self, t: Term, first: int):
        self.starts: dict[Atom, list[int]] = {}  # atom -> its binders
        self.last: dict[int, int] = {}  # binder -> the last position of its body
        self.outer: dict[int, int] = {}  # binder -> its atom's binding around it
        self.leaves: dict[tuple[Atom, int], list[int]] = {}
        self.suspension_at: list[int] = []
        self.suspensions: list[Suspension] = []
        scope: dict[Atom, int] = {}  # atom -> its binding at the node walked, if bound in t
        pos = first - 1
        stack: list = [t]
        while stack:
            u = stack.pop()
            if u is _END:
                start, a = stack.pop(), stack.pop()
                self.last[start] = pos
                if self.outer[start] < 0:
                    del scope[a]
                else:
                    scope[a] = self.outer[start]
                continue
            pos += 1
            kind = type(u)
            if kind is AtomTerm:
                self.leaves.setdefault((u.atom, scope.get(u.atom, -1)), []).append(pos)
            elif kind is Abstraction:
                a = u.atom
                self.starts.setdefault(a, []).append(pos)
                self.outer[pos] = scope.get(a, -1)
                scope[a] = pos
                stack += (a, pos, _END, u.body)
            elif kind is App:
                stack.extend(reversed(u.args))
            elif kind is Suspension:
                self.suspension_at.append(pos)
                self.suspensions.append(u)
            else:
                raise TypeError(f"not a term: {u!r}")
        self.stop = pos

    def binding(self, y: Atom, pos: int) -> int:
        """y's binding at the node at pos.  The last binder of y before pos
        holds pos or ended before it.  Binders of one atom nest or are
        disjoint, so in the second case any binder of y around pos is around
        that one too, and the walk out through `outer` reaches the innermost."""
        starts = self.starts.get(y, ())
        i = bisect_left(starts, pos) - 1
        b = starts[i] if i >= 0 else -1
        while b >= 0 and self.last[b] < pos:
            b = self.outer[b]
        return b

    def fresh(self, ctx: FreshnessContext, y: Atom, binder: int) -> bool:
        """ctx |- y # b for the body b of the binder at that position."""
        lo, hi = binder + 1, self.last[binder]
        binding = self.binding(y, lo)
        used = self.leaves.get((y, binding), ())
        i = bisect_left(used, lo)
        if i < len(used) and used[i] <= hi:
            return False
        at = self.suspension_at
        for i in range(bisect_left(at, lo), bisect_right(at, hi)):
            u = self.suspensions[i]
            if (u.perm.inverse()(y), u.unknown) not in ctx and self.binding(y, at[i]) == binding:
                return False
        return True


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
    unknowns; each hole is solved by plain matching and its instance
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
    _require_apart(frule.unknowns(), subject_unknowns)
    extension = FreshnessContext(frozenset((a, x) for a in frule.atoms() for x in subject_unknowns))
    ctx2 = ctx | extension
    # Binders the match drags in are renamed back to the subject's and
    # the rule's atoms where freshness allows, else to a few spares.
    pool = sorted(subject_atoms) + sorted(rule.atoms() - subject_atoms) + _spares(rule.atoms(), subject_atoms)

    def instances(hole: Term):
        sol = solve_match(MatchProblem._unchecked(frule.ctx, frule.lhs, ctx2, hole))
        if sol is not None:
            yield ID, sol.sigma, scrub(ctx2, substitute(frule.rhs, sol.sigma), pool)

    return PreparedRule(rule, ctx2, [], instances, freshened=frule, ctx_extension=extension)


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
