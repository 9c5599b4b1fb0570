"""General nominal rewriting, and the rewriting core both engines share.

A one-step rewrite instantiates a rule at a position of the subject under a
permutation: the subject decomposes as C[s'], a permutation pi and a
substitution theta are found with the rule context entailed, s' alpha-equal
to pi.(lhs theta), and the result is C[pi.(rhs theta)], where the step's
output is only meaningful up to alpha-equivalence.  Because the reflexive
case of the rewrite relation is alpha-equivalence itself, general step
enumeration also explores alpha-variants of the subject obtained by renaming
the binders above the chosen position into the permutation universe; that
is how [b][a]a reaches [a]b under the abstraction-stripping rule.  It does
so only for rules that are not closed.  A closed rule is uniform (Fernandez
& Gabbay, Nominal rewriting, I&C 2007): a # l.theta implies a # r.theta.
Its step on a variant renaming [a] to [z] is (z a) applied to the
subject's own step under (z a) o pi, uniformity makes z fresh for that
step's result, and so the two results are alpha-equal.  Nor is a second
instance at a hole needed: under ctx plus freshness of a fresh variant's
atoms each is alpha-equal to the closed step there, unique up to alpha;
those atoms occur in neither result, so any two are alpha-equal under ctx
and the search stops at the first.  Closed rewriting needs no variants
either: it fires a variant freshened apart from the subject and so respects
alpha-equivalence by itself, and its steps are the subject's as written.

Nor does a rule that is not closed need every variant.  A variant renaming
[b] to a fresh [z] fires (z b) applied to a step on the subject, so its
result differs from that step's only where an atom the rule introduces is z
there, and so escapes b's binder in the variant.  Any other fresh target z'
then reaches the same class, by (z z'), a candidate even on a cut universe
since z' is a universe atom, if it avoids three kinds of atom: those the
result uses under their own names; the targets of the other binders an
introduced atom escapes (with the above at most m - 1, m being the rule's
atoms, of which b takes one); and the j binder names below [b] on the path.
So a binder is tried as written and with only its first m + j fresh
targets: one of them serves, and comes first in enumeration order, so
each class keeps its first representative and a search its trace.

Nor does a symmetric search fire a reversal that only renames an earlier
rule, within that rule's own atoms and unknowns (nonclosed's `b -> a` is
`a -> b` under (a b), and `f(X,Y) = f(Y,X)` reverses onto itself).  General
rewriting is equivariant: if the reversal is the rule renamed by tau, its
candidate sigma gives the step the rule's candidate agreeing with
sigma o tau on the rule's atoms gives, over the same universe, which the
atom set decides.  Renaming keeps a rule closed or not, so the two try the
same variants.  The earlier rule runs first on every frontier term, so each
class the reversal would reach is already met: traces, representatives and
`found` do not change.  This argues general rewriting only.

Nor does a symmetric search run when s and t differ in the count of a node
kind that no rule changes (`_kept_counts_differ`).  A kind is a token of
the tree below (an atom, an abstraction, a former with its arity) or one
unknown's suspensions.  A step C[h] -> C[pi.(r theta)], h alpha-equal to
pi.(l theta), changes a kind's count by (its count in r - in l) + the sum
over the rule's unknowns X of (X's occurrences in r - in l) x (its count in
theta X).  So when each rule has each unknown as often on its two sides, a
kind keeps its count unless some rule's sides differ in it.  Permutations,
alpha-variants, alpha-equivalence and gamma change no count, each kept
reversal is a rule reversed, and the target test compares alpha keys: no
trace joins two terms that differ in a kept count.  A theory with a rule
that has an unknown a different number of times on its two sides (betaeta's
beta_eps and beta_app) keeps no count, and its searches all run.

The core is written once: one cursor yielding positions as rebuild frames
(`_places`), step enumeration over them x alpha-variants (`_candidates`,
built by `rewrite_steps`), the first step and normalization (`normalize`),
one breadth-first search for `reachable` and `symmetric_search`
(`_breadth_first`), and replay.  The engines differ only in how one rule is
prepared for one subject, a `PreparedRule`: its context, universe and
instances at a hole, and how a result is finished.  It reads of the subject
only the atoms and unknowns the core collects once per subject, both in one
walk (`Subject`).  The general preparation here renames the rule's unknowns
away from the subject's and tries the candidate permutations over a
universe; the closed preparation (closed.py) matches the rule's fixed
freshened variant under an extended context and the identity permutation,
and scrubs the result.  No renaming changes the shape of an lhs, so each rule
set keeps one discrimination tree of its rules' own lhs shapes (`_Tree`),
built once per rule-set object: a theory's rules, a search's rules and kept
reversals, the lone rule of `rewrite_steps`.  Each position visited is looked
up in it in one walk, which lists the rules whose lhs fits there in rule
order, and a rule is prepared only at the first position it fits: a rule
that fits no position is never prepared, and a subject no rule fits is never
walked for its names.

What does not depend on the step is not redone at each step.  Every caller
prepares a rule at most once per call for each pair of atoms and unknowns
its subjects have (`_prepared`).  The renamed rule depends only on the
unknowns it shares with the subject, so it is kept with the rule once per
shared set, and its names are collected once with it; a subject that mentions
a machine unknown (stem$n, a name the renaming may pick) falls back to a rule
renamed for it alone.  The permuted sides (pi, pi.lhs, pi.rhs) depend only on
the renamed rule and the universe, so they are kept with the renamed rule
across calls, one list per universe, each side built when a search first
reaches its candidate.  The instances found at a hole depend on those, the
context and the hole, so `normalize_general`, `rewrite_closure_reachable` and
`symmetric_search` keep them in a dict of their own for the length of the
call (`rewrite_step_general`'s call is one step), keyed by the hole's flat
key, which the dict keeps per hole object, so a hole is keyed once per call
however many rules fit it: readers of a hole share one search through
`itertools.tee` copies, so it runs once per distinct hole per call, however
often the hole comes back.  Like generators, the copies must
not be read from two threads at once.
`_breadth_first` keys a general step without building it: a node has a fixed
width in its alpha key (de Bruijn), so the key of C[r] is the subject's with
the hole's slice replaced by r's key under C's binders (an alpha-variant keys
as the subject outside the hole), and only the steps that reach the target or
a new class are built.  A closed step is built, then keyed.

The permutation search is bounded: candidates are generated from the rule's
atoms mapped injectively into a finite universe (the atoms of the rule, the
context and the subject, plus a few machine-fresh spares).  Two permutations
agreeing on the rule's atoms produce identical steps, so this enumeration
loses nothing inside the universe; the universe cap itself is a documented
source of incompleteness, surfaced through the `truncated` flag and the
`truncated` normalization status.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Iterable, Iterator, Optional

from .alpha import EMPTY_CTX, FreshnessContext, alpha_holds, alpha_key, fresh_holds
from .matching import MatchProblem, _require_apart, solve_match
from .terms import (
    MACHINE_MARK,
    Abstraction,
    App,
    Atom,
    AtomTerm,
    NominalError,
    Permutation,
    Signature,
    Substitution,
    Suspension,
    Term,
    Unknown,
    _flat_key,
    _rebuild,
    act,
    atoms_of,
    fresh_names,
    substitute,
    subterms,
    swap,
    unknowns_of,
)

Path = tuple  # steps are "body" or an integer argument index (0-based)


class RuleError(NominalError):
    pass


def path_str(path: Path) -> str:
    if not path:
        return "e"
    return ".".join("body" if s == "body" else f"arg{s + 1}" if type(s) is int else repr(s) for s in path)


def _places(t: Term, innermost: bool = False) -> Iterator[tuple[tuple | None, Term]]:
    """The positions of t, lazily, as (rebuild frames, subterm) in
    leftmost-outermost (preorder) order, or leftmost-innermost (postorder)
    when innermost is set.  The frames are those `_decompositions` builds,
    each sharing its parent's, so a walk is linear at any depth.  A stack
    entry is the pair it yields; a node with arguments, in innermost order,
    goes back under them wrapped as (pair,), to be yielded after them."""
    stack: list = [(None, t)]
    while stack:
        entry = stack.pop()
        if len(entry) == 1:
            yield entry[0]
            continue
        frames, u = entry
        kind = type(u)
        if kind is Abstraction:
            below = [((u.atom, frames), u.body)]
        elif kind is App and u.args:
            below = [(((u, i), frames), u.args[i]) for i in range(len(u.args) - 1, -1, -1)]
        else:  # a leaf, yielded as it is popped in either order
            yield entry
            continue
        if innermost:
            stack.append((entry,))
        else:
            yield entry
        stack += below


def _path(frames: tuple | None) -> Path:
    """The path to the hole of rebuild frames, outermost step first."""
    out = []
    while frames is not None:
        frame, frames = frames
        out.append("body" if type(frame) is Atom else frame[1])
    return tuple(reversed(out))


def _binders(frames: tuple | None) -> list[Atom]:
    """The binders of rebuild frames, innermost first."""
    out = []
    while frames is not None:
        frame, frames = frames
        if type(frame) is Atom:
            out.append(frame)
    return out


def _names_of(ctx: FreshnessContext, *terms: Term) -> tuple[frozenset[Atom], frozenset[Unknown]]:
    """The atoms and the unknowns of ctx and the terms, as `atoms_of` and
    `unknowns_of` collect them, in one walk."""
    atoms, unknowns, stack = {a for a, _ in ctx}, {x for _, x in ctx}, list(terms)
    while stack:
        u = stack.pop()
        kind = type(u)
        if kind is App:
            stack += u.args
        elif kind is Suspension:
            atoms.update(u.perm.mapping)
            unknowns.add(u.unknown)
        else:  # an atom or an abstraction
            atoms.add(u.atom)
            if kind is Abstraction:
                stack.append(u.body)
    return frozenset(atoms), frozenset(unknowns)


@dataclass(frozen=True)
class RewriteRule:
    """ctx |- lhs -> rhs.  Executability requires the unknowns of the rhs
    and of the context to occur in the lhs."""

    name: str
    ctx: FreshnessContext
    lhs: Term
    rhs: Term

    def validate(self) -> None:
        for part, what in ((self.rhs, "unknowns on rhs"), (self.ctx, "context constrains unknowns")):
            extra = unknowns_of(part) - unknowns_of(self.lhs)
            if extra:
                names = ", ".join(sorted(x.name for x in extra))
                raise RuleError(f"rule {self.name}: {what} not on lhs: {names}")
        if isinstance(self.lhs, Suspension) and not any(x == self.lhs.unknown for _, x in self.ctx):
            # A completely unconstrained variable lhs would rewrite every
            # term to an instance of the rhs; reject it as degenerate.
            raise RuleError(f"rule {self.name}: lhs is an unconstrained variable")

    def atoms(self) -> frozenset[Atom]:
        return self._names[0]

    def unknowns(self) -> frozenset[Unknown]:
        return self._names[1]

    @cached_property
    def _names(self) -> tuple[frozenset[Atom], frozenset[Unknown]]:
        """The rule's atoms and unknowns, collected on first use."""
        return _names_of(self.ctx, self.lhs, self.rhs)

    @cached_property
    def lhs_unknowns(self) -> frozenset[Unknown]:
        """The unknowns of the context and the lhs, which a subject may not
        share with the rule when the rule fires on it."""
        return frozenset(unknowns_of(self.ctx, self.lhs))

    @cached_property
    def _tree(self) -> "_Tree":
        """The one-rule discrimination tree `rewrite_steps` reads."""
        return _Tree((self,))

    @cached_property
    def compiled(self) -> dict:
        """What an engine works out once for this rule object and keeps with
        it: closed.py its variant and closedness verdict, the general engine
        its renamings ("apart") and permuted sides per universe ("permuted")."""
        return {}


@dataclass(frozen=True)
class Theory:
    """A signature together with a finite list of rules.  kind is "rewrite"
    for oriented rules and "equational" for axioms written with =."""

    signature: Signature
    rules: tuple[RewriteRule, ...]
    kind: str = "rewrite"
    name: str = ""

    def atoms(self) -> set[Atom]:
        return set().union(*(rule.atoms() for rule in self.rules))

    @cached_property
    def _reversed_rules(self) -> tuple[RewriteRule, ...]:
        """The executable reversals of the rules, made once per theory object
        so that what each keeps (its renamings) lasts across searches.  They
        need not pass the parse-time lhs restriction: a bare variable lhs
        just makes an expansion step, which a search's fuel bounds.  A
        reversal that renames an earlier rule (a rule, or a reversal kept)
        within the same atoms is left out: it steps to no class the earlier
        rule does not reach first (module docstring)."""
        kept: list[RewriteRule] = []
        for r in filter(_invertible, self.rules):
            rev = RewriteRule(r.name + "~", r.ctx, r.rhs, r.lhs)
            if not any(e.atoms() == rev.atoms() and _renaming(e, rev) for e in (*self.rules, *kept)):
                kept.append(rev)
        return tuple(kept)

    @cached_property
    def _tree(self) -> "_Tree":
        """The discrimination tree of the rules, which `normalize` and
        `reachable` read, built once per theory object."""
        return _Tree(self.rules)

    @cached_property
    def _search_tree(self) -> "_Tree":
        """The tree of the rules and then the kept reversals, which
        `symmetric_search` reads."""
        return _Tree((*self.rules, *self._reversed_rules))

    @cached_property
    def _changed_kinds(self) -> frozenset | None:
        """The node kinds whose count some rule changes, or None when some
        rule changes an unknown's (module docstring)."""
        changed: set = set()
        for rule in self.rules:
            lhs, rhs = _kind_counts(rule.lhs), _kind_counts(rule.rhs)
            changed.update(lhs - rhs, rhs - lhs)
        return None if any(type(kind) is Unknown for kind in changed) else frozenset(changed)


# The bounded permutation search acts on at most MAX_SUPPORT atoms (6 atoms
# means at most 720 distinct permutations per position), among them up to
# SPARE_CAP machine-fresh spares, so a rule atom can be sent somewhere fresh
# for the subject.
MAX_SUPPORT = 6
SPARE_CAP = 2


@dataclass(frozen=True)
class RewriteStep:
    """A replayable witness for one rewrite step.

    `variant` is the alpha-variant of `source` the step actually fired on
    (equal to `source` when no binder was renamed).  For closed steps the
    freshened rule and the context extension are recorded too, so the step
    replays bit-exactly.
    """

    rule: str
    path: Path
    perm: Permutation
    subst: Substitution
    source: Term
    variant: Term
    result: Term
    mode: str = "general"
    freshened: Optional[RewriteRule] = None
    ctx_extension: FreshnessContext = EMPTY_CTX


class StepResults(list):
    """A list of RewriteStep with a flag telling whether the permutation
    universe was truncated (in which case absence of steps is inconclusive)."""

    def __init__(self, steps=(), truncated=False):
        super().__init__(steps)
        self.truncated = truncated


@dataclass
class NormalizeResult:
    term: Term
    trace: list[RewriteStep]
    status: str  # "normal_form" | "truncated" | "fuel_exhausted"


@dataclass(frozen=True)
class Subject:
    """A term to rewrite under a context.  Its atoms and unknowns (the
    context's included) are collected together, in one walk, on first use of
    either, and then read by every rule prepared for it; a subject no rule's
    lhs fits is never walked."""

    ctx: FreshnessContext
    term: Term

    @cached_property
    def atoms(self) -> frozenset[Atom]:
        return self._names[0]

    @cached_property
    def unknowns(self) -> frozenset[Unknown]:
        return self._names[1]

    @cached_property
    def _names(self) -> tuple[frozenset[Atom], frozenset[Unknown]]:
        return _names_of(self.ctx, self.term)


@dataclass(frozen=True)
class PreparedRule:
    """One rule made ready by one engine to fire on one subject, and so on
    every subject with the same atoms and unknowns under the same context.

    `instances(hole)` yields (pi, theta, pi.(rhs theta)) for every way the
    prepared lhs matches the hole under `ctx`, or for a closed rule the first
    alone (the rest are alpha-equal to it); `finish` turns the rebuilt
    subject into the reported result.  `universe` holds the names binders
    above a position may be renamed to when alpha-variants of the subject
    are enumerated; only general rewriting by a rule that is not closed
    needs them, and every other preparation's universe is empty.
    `truncated` says the permutation search was cut by the universe cap, so
    finding no instance proves nothing.  A closed step also records the
    freshened rule and the context extension it fired under, and these make
    its mode "closed".
    """

    rule: RewriteRule
    ctx: FreshnessContext
    universe: list[Atom]
    instances: Callable[[Term], Iterator[tuple[Permutation, Substitution, Term]]]
    truncated: bool = False
    finish: Callable[[Term], Term] = lambda t: t
    freshened: Optional[RewriteRule] = None
    ctx_extension: FreshnessContext = EMPTY_CTX

    @property
    def mode(self) -> str:
        return "general" if self.freshened is None else "closed"


def _rename_term(t: Term, amap: dict, umap: dict) -> Term:
    def on_susp(u: Suspension) -> Term:  # pi becomes amap o pi o amap^-1, amap being one-to-one
        pi = Permutation.from_mapping({amap.get(c, c): amap.get(v, v) for c, v in u.perm.mapping.items()})
        x = umap.get(u.unknown, u.unknown)
        return u if x is u.unknown and pi == u.perm else Suspension(pi, x)

    return _rebuild(t, amap, on_susp)


def _rename_ctx(ctx: FreshnessContext, amap: dict, umap: dict) -> FreshnessContext:
    return FreshnessContext(frozenset((amap.get(a, a), umap.get(x, x)) for a, x in ctx))


def _rename_rule(rule: RewriteRule, amap: dict, umap: dict) -> RewriteRule:
    return RewriteRule(
        rule.name,
        _rename_ctx(rule.ctx, amap, umap),
        _rename_term(rule.lhs, amap, umap),
        _rename_term(rule.rhs, amap, umap),
    )


def _fresh_maps(atoms, unknowns, avoid_names: set[str]) -> tuple[dict[Atom, Atom], dict[Unknown, Unknown]]:
    """One-to-one renamings of the atoms and of the unknowns, in name order,
    each to the first machine name stem$n on its own stem that avoids
    avoid_names, the names being renamed and the names already picked."""
    used = set(avoid_names) | {v.name for v in itertools.chain(atoms, unknowns)}

    def rename(names, make, default):
        out = {}
        for v in sorted(names):
            fresh = fresh_names(v.name.split(MACHINE_MARK)[0] or default, 1, used)[0]
            used.add(fresh)
            out[v] = make(fresh)
        return out

    return rename(atoms, Atom, "a"), rename(unknowns, Unknown, "V")


def _freshen_rule_unknowns(rule: RewriteRule, away_from: set[Unknown]) -> RewriteRule:
    """The rule with the unknowns it shares with away_from renamed to
    machine names apart from both.  Those names (stem$n) depend only on the
    shared set unless away_from already holds a machine name, so otherwise
    the renamed rule is made once per shared set and kept with the rule."""
    clashing = rule.unknowns() & away_from
    if not clashing:
        return rule
    machine = any(x.is_machine for x in away_from)
    kept = rule.compiled.setdefault("apart", {})
    if machine or clashing not in kept:
        _, renaming = _fresh_maps((), clashing, {x.name for x in rule.unknowns() | away_from})
        renamed = _rename_rule(rule, {}, renaming)
        if machine:
            return renamed
        kept[clashing] = renamed
    return kept[clashing]


def _spares(rule_atoms: set[Atom], other_atoms: set[Atom]) -> list[Atom]:
    """One machine-fresh spare per rule atom, at most SPARE_CAP, named
    apart from the rule atoms and the other atoms."""
    used = {a.name for a in rule_atoms | other_atoms}
    return [Atom(n) for n in fresh_names("p", min(len(rule_atoms), SPARE_CAP), used)]


def _universe(rule_atoms: set[Atom], other_atoms: set[Atom], max_support: int) -> tuple[list[Atom], bool]:
    """The atom universe for the permutation search: rule atoms, then the
    context/subject atoms, then machine-fresh spares, capped at max_support
    (rule atoms always survive the cap)."""
    ordered = sorted(rule_atoms) + sorted(other_atoms - rule_atoms) + _spares(rule_atoms, other_atoms)
    limit = max(max_support, len(rule_atoms))
    return ordered[:limit], len(ordered) > limit


def _complete_perm(mapping: dict[Atom, Atom]) -> Permutation:
    """The least-support permutation extending a one-to-one partial map:
    the atoms in its image but not its domain are sent, in name order, to
    the atoms in its domain but not its image."""
    sources = sorted(set(mapping.values()) - set(mapping))
    images = sorted(set(mapping) - set(mapping.values()))
    return Permutation.from_mapping({**mapping, **dict(zip(sources, images))})


def _candidate_perms(rule_atoms: list[Atom], universe: list[Atom]) -> list[Permutation]:
    if not rule_atoms:
        return [Permutation()]
    perms = []
    for images in itertools.permutations(universe, len(rule_atoms)):
        perms.append(_complete_perm(dict(zip(rule_atoms, images))))
    # Try the least disruptive candidates first so traces stay readable.
    perms.sort(key=lambda p: (len(p.mapping), sorted(a.name for a in p.support)))
    return perms


def _prepare_general(
    subject: Subject,
    rule: RewriteRule,
    max_support: int = MAX_SUPPORT,
    extra_atoms: set[Atom] = frozenset(),
    *,
    sides: dict,
) -> PreparedRule:
    """Rename the rule's unknowns away from the subject's, then try every
    candidate permutation over the universe of rule, subject and extra
    atoms.  The core calls this at the first hole the rule's own lhs fits,
    so a rule that fits no hole of the subject is never prepared.  A closed
    rule (its kept verdict, `closed._is_closed`) fires with an empty
    universe, so no alpha-variant of the subject is tried for it, and its
    search at a hole stops at the first instance, every later one being
    alpha-equal to it (module docstring).

    The renamed rule is kept with the rule, per set of unknowns it shares
    with the subject; a subject that mentions a machine unknown gets a rule
    renamed for it alone.  The permuted sides (pi, pi.lhs, pi.rhs) are
    kept with the renamed rule, in `compiled["permuted"]` per universe, and
    built slot by slot, in candidate order, as the first search to need
    each reaches it (most searches stop at the first instance); later calls
    read them.  `sides`, a dict the caller owns, keeps each hole's
    instances once per renamed rule, universe and context: a caller running
    many steps passes one dict for its whole call.  They are keyed by the
    hole's flat key (`_flat_key`, exact and built without recursion), which
    `sides` also keeps per hole object, so a hole that several rules fit is
    keyed once per call, and readers of a hole share one search through
    `tee` copies, which, like generators, must not be read from two threads
    at once."""
    from .closed import _is_closed  # closed.py imports this module

    ctx = subject.ctx
    renamed = _freshen_rule_unknowns(rule, subject.unknowns)
    _require_apart(renamed.lhs_unknowns, subject.unknowns)
    universe, truncated = _universe(renamed.atoms(), subject.atoms | extra_atoms, max_support)
    closed = _is_closed(rule)
    # Keyed by identity: an entry holds the object whose id keys it (the
    # renamed rule, a hole), so no other object takes that id while the dict
    # lives.  A rule renamed for one subject alone keeps its entries, here
    # and in its own compiled dict.
    at = tuple(universe)
    solved = sides.setdefault((id(renamed), at, ctx), (renamed, {}))[1]
    hole_keys = sides.setdefault("holes", {})
    kept = renamed.compiled.setdefault("permuted", {})
    if at not in kept:
        perms = _candidate_perms(sorted(renamed.atoms()), universe)
        kept[at] = perms, [None] * len(perms)
    perms, permuted = kept[at]

    def search(hole: Term):
        for i, pi in enumerate(perms):
            if permuted[i] is None:  # the first search to reach pi builds its sides
                permuted[i] = act(pi, renamed.lhs), act(pi, renamed.rhs)
            lhs, rhs = permuted[i]
            sol = solve_match(MatchProblem._unchecked(renamed.ctx, lhs, ctx, hole))
            if sol is not None:
                yield pi, sol.sigma, substitute(rhs, sol.sigma)
                if closed:  # every later instance is alpha-equal to this one
                    return

    def instances(hole: Term):
        known = hole_keys.get(id(hole))
        if known is None:
            known = hole_keys[id(hole)] = hole, _flat_key(hole)
        found = solved.get(known[1])
        if found is None:  # kept unread, so its copies replay every item
            found = solved[known[1]] = itertools.tee(search(hole), 1)[0]
        return found.__copy__()

    return PreparedRule(rule, ctx, [] if closed else universe, instances, truncated)


def _token(u: Term):
    """A node's tree token: a former with its arity, else the node's type."""
    return (u.former, len(u.args)) if type(u) is App else type(u)


def _kind_counts(t: Term) -> Counter:
    """Each node kind's count in t: its token, or a suspension's unknown."""
    return Counter(u.unknown if type(u) is Suspension else _token(u) for u in subterms(t))


def _kept_counts_differ(theory: Theory, s: Term, t: Term) -> bool:
    """Do s and t differ in the count of a kind that no rule of the theory
    changes?  Then no search joins them (module docstring)."""
    changed = theory._changed_kinds
    if changed is None:
        return False
    s_counts, t_counts = _kind_counts(s), _kind_counts(t)
    return any(s_counts[kind] != t_counts[kind] for kind in (s_counts.keys() | t_counts.keys()) - changed)


class _Tree:
    """A discrimination tree (Graf, Term Indexing, 1996) over the shapes of
    the rules' lhs.  An lhs is read in preorder as tokens: an atom (any
    atom), an abstraction, a former with its arity, and a suspension as a
    wildcard standing for a whole subterm.  A permutation renames only atoms
    and a substitution only fills suspensions, so no candidate of a rule can
    match a hole whose tokens differ from its lhs's where the lhs has no
    wildcard, and no renaming of a rule changes its tokens: the tree is
    built once per rule set, from the rules as given.  A node maps a token
    to its child, and a leaf (key None) lists the rules whose lhs ends
    there."""

    def __init__(self, rules):
        self.rules, self.root = rules, {}
        for i, rule in enumerate(rules):
            node = self.root
            for u in subterms(rule.lhs):  # preorder, a suspension a leaf
                node = node.setdefault(_token(u), {})
            node.setdefault(None, []).append(i)

    def fits(self, hole: Term) -> list[int]:
        """The indices, in rule order, of the rules whose lhs shape fits the
        hole.  A walk state is a node and the hole's subterms still to read,
        as a linked list; a wildcard skips the next of them whole."""
        out, work = [], [(self.root, (hole, None))]
        while work:
            node, pending = work.pop()
            if pending is None:
                out += node[None]
                continue
            u, rest = pending
            if Suspension in node:
                work.append((node[Suspension], rest))
            kind = type(u)
            if kind is App:
                child = node.get((u.former, len(u.args)))
                if child is not None:
                    for arg in reversed(u.args):
                        rest = arg, rest
                    work.append((child, rest))
            elif kind is not Suspension and kind in node:  # an atom or an abstraction
                work.append((node[kind], (u.body, rest) if kind is Abstraction else rest))
        return sorted(out)


def _decompositions(
    ctx: FreshnessContext, t: Term, path: Path, universe: list[Atom], width: int | None = None
) -> Iterator[tuple[Term, tuple | None, bool]]:
    """Walk down `path`, renaming each binder passed to another universe
    atom that is fresh for the body (an alpha-move), or keeping it.  With
    `width` set, a binder with j binders below it on the path is renamed to
    its first width + j such atoms only, and no later atom is tested for
    freshness (module docstring: width is the rule's atom count).  Yields
    the (possibly renamed) subterm at the hole, its rebuild frames, a
    linked list (frame, outer frames), innermost first, whose frames are
    binders and (application, argument index) pairs, and whether some
    binder was renamed (a renamed body that mentions neither name is the
    body itself); `_plug` puts a term in the hole, and plugging the hole
    itself gives the alpha-variant fired on.  A step is "body" under an
    abstraction or an int (not a bool) from 0 to arity - 1.  With an empty
    universe only t itself is decomposed."""
    stack: list = [(t, 0, None, False, path.count("body"))]
    while stack:
        u, depth, frames, renamed, left = stack.pop()
        if depth == len(path):
            yield u, frames, renamed
            continue
        step = path[depth]
        if type(u) is Abstraction and step == "body":
            a, body = u.atom, u.body
            fresh = (z for z in universe if z != a and fresh_holds(ctx, z, body))
            # left - 1 binders lie below this one on the path.
            renamings = [a, *itertools.islice(fresh, None if width is None else width + left - 1)]
            for z in reversed(renamings):
                moved = z != a
                body_z = act(swap(z, a), body) if moved else body
                stack.append((body_z, depth + 1, (z, frames), renamed or moved, left - 1))
        elif type(u) is App and type(step) is int and 0 <= step < len(u.args):
            stack.append((u.args[step], depth + 1, ((u, step), frames), renamed, left))
        else:
            raise IndexError(f"no position {path_str(path)} in term")


def _plug(frames: tuple | None, u: Term) -> Term:
    """Put u in the hole of a decomposition's rebuild frames."""
    while frames is not None:
        frame, frames = frames
        if type(frame) is Atom:
            u = Abstraction(frame, u)
        else:
            app, i = frame
            u = App(app.former, app.args[:i] + (u,) + app.args[i + 1 :])
    return u


def _candidates(s: Term, places: Iterable[tuple], prep: PreparedRule) -> Iterator[tuple]:
    """The steps of s by one prepared rule, unbuilt and in order, as
    (prepared rule, position index, frames, hole, renamed, pi, theta,
    pi.(rhs theta)): every place of s in `places`, as (its index in
    `_places(s)`, frames, hole), which are the places whose shape the rule's
    lhs fits (`_Tree.fits`); every alpha-variant of s renaming the binders
    above it into the prepared rule's universe (the place itself if it has
    none or that is empty, as for closed rules and closed rewriting); every
    instance found.  Alpha-variants differ from s only in atoms, so one
    shape test covers every variant at a place.  A binder is renamed only to
    its first m + j fresh targets, m the rule's atoms and j the binders below
    it: the later ones reach no class an earlier candidate has not (module
    docstring)."""
    for i, frames, here in places:
        variants = [(here, frames, False)]
        if prep.universe and _binders(frames):
            variants = _decompositions(prep.ctx, s, _path(frames), prep.universe, len(prep.rule.atoms()))
        for hole, at, renamed in variants:
            for pi, theta, rhs in prep.instances(hole):
                yield prep, i, at, hole, renamed, pi, theta, rhs


def _build(s: Term, candidate: tuple) -> RewriteStep:
    prep, _, frames, hole, renamed, pi, theta, rhs = candidate
    # When no binder above the hole was renamed, the variant fired on is s.
    variant = _plug(frames, hole) if renamed else s
    result = prep.finish(_plug(frames, rhs))
    extras = prep.mode, prep.freshened, prep.ctx_extension
    return RewriteStep(prep.rule.name, _path(frames), pi, theta, s, variant, result, *extras)


def rewrite_steps(ctx: FreshnessContext, s: Term, rule: RewriteRule, prepare: Callable[..., PreparedRule]) -> StepResults:
    """All one-step rewrites of s under ctx by the rule, prepared with
    `prepare(subject, rule)`, modulo alpha on the subject: every step
    `_candidates` finds, built.

    The steps are distinct without a check.  Steps at two positions differ
    in their path; two alpha-variants at one position rename some binder
    above it differently, so their general results differ there; two
    general instances at one hole differ in pi.  Closed rewriting has one
    variant, the subject, and at most one instance per hole.  So no result
    is hashed.  The rule is prepared only if some hole fits its lhs shape
    (the rule's own one-rule tree), and `truncated` is set only if then its
    preparation was cut."""
    fits = rule._tree.fits
    places = [(i, frames, here) for i, (frames, here) in enumerate(_places(s)) if fits(here)]
    if not places:
        return StepResults()
    prep = prepare(Subject(ctx, s), rule)
    return StepResults([_build(s, c) for c in _candidates(s, places, prep)], prep.truncated)


def _spans(t: Term) -> list[list[int]]:
    """Each position's [start, end) slice of t's alpha key, in preorder, in
    one walk: a node is 1 token (an atom, an abstraction) or 3 (an
    application, a suspension), and a subterm's span, pushed under its
    arguments, is popped and ended once they are done."""
    spans, stack, at = [], [t], 0
    while stack:
        u = stack.pop()
        if type(u) is list:
            u.append(at)
            continue
        spans.append([at])
        stack.append(spans[-1])
        stack.extend(reversed(u.args) if type(u) is App else (u.body,) if type(u) is Abstraction else ())
        at += 3 if type(u) is App or type(u) is Suspension else 1
    return spans


def _spliced_key(ctx: FreshnessContext, key: tuple, spans: list[list[int]], candidate: tuple) -> tuple:
    """The alpha key under ctx of a general candidate's result (a general
    finish is the identity), unbuilt: its source's key with the hole's
    slice replaced by the key of pi.(rhs theta) under the frames' binders."""
    start, end = spans[candidate[1]]
    return key[:start] + alpha_key(ctx, candidate[7], _binders(candidate[2])[::-1]) + key[end:]


def rewrite_step_general(
    ctx: FreshnessContext,
    s: Term,
    rule: RewriteRule,
    max_support: int = MAX_SUPPORT,
    extra_atoms: set[Atom] = frozenset(),
) -> StepResults:
    """All one-step rewrites of s by the rule, modulo alpha on the subject,
    within a permutation universe of max_support atoms.  extra_atoms widens
    the universe (used when a specific target is in mind)."""
    prepare = partial(_prepare_general, max_support=max_support, extra_atoms=extra_atoms, sides={})
    return rewrite_steps(ctx, s, rule, prepare)


def _fresh_renaming(rule: RewriteRule, renamed: RewriteRule, ctx: FreshnessContext, *terms: Term) -> bool:
    """Is `renamed`, named as `rule`, the image of `rule` under one-to-one
    renamings of its atoms and of its unknowns, onto names that occur nowhere
    in ctx or the terms?"""
    if renamed.atoms() & atoms_of(ctx, *terms) or renamed.unknowns() & unknowns_of(ctx, *terms):
        return False
    return renamed.name == rule.name and _renaming(rule, renamed)


def _renaming(rule: RewriteRule, other: RewriteRule) -> bool:
    """Is `other`, its name aside, the image of `rule` under one-to-one
    renamings of its atoms and of its unknowns?"""
    amap: dict[Atom, Atom] = {}
    umap: dict[Unknown, Unknown] = {}
    work = [(rule.rhs, other.rhs), (rule.lhs, other.lhs)]
    while work:
        u, v = work.pop()
        kind = type(u)
        if kind is not type(v):
            return False
        if kind is AtomTerm or kind is Abstraction:
            if amap.setdefault(u.atom, v.atom) is not v.atom:
                return False
            if kind is Abstraction:
                work.append((u.body, v.body))
        elif kind is Suspension:
            if umap.setdefault(u.unknown, v.unknown) is not v.unknown:
                return False
        elif kind is App and u.former == v.former and len(u.args) == len(v.args):
            work.extend(zip(u.args, v.args))
        else:
            return False
    # Atoms met only in suspensions or in the context: try each assignment.
    rest = sorted(rule.atoms() - amap.keys())
    for images in itertools.permutations(sorted(other.atoms() - set(amap.values())), len(rest)):
        full = {**amap, **dict(zip(rest, images))}
        if len(set(full.values())) == len(full) and len(set(umap.values())) == len(umap):
            image = _rename_rule(rule, full, umap)
            if (image.ctx, image.lhs, image.rhs) == (other.ctx, other.lhs, other.rhs):
                return True
    return False


def replay(ctx: FreshnessContext, step: RewriteStep, rule: Optional[RewriteRule]) -> bool:
    """Re-verify a step from its recorded witness against `rule`, the rule
    the step names (None when there is no such rule).

    A general step re-applies the rule under the recorded permutation.  A
    closed step must record a renaming of the rule to atoms and unknowns
    occurring nowhere in ctx, the source or the variant it fired on, and as
    context extension exactly the freshness of those atoms for the unknowns
    of ctx and the source; the renamed rule is then re-applied under the
    extended context.
    """
    if rule is None or rule.name != step.rule:
        return False
    if step.mode == "general" and step.freshened is None:
        rule = _freshen_rule_unknowns(rule, unknowns_of(ctx, step.source))
    elif step.mode == "closed" and step.freshened is not None:
        fr = step.freshened
        extension = FreshnessContext(
            frozenset((a, x) for a in fr.atoms() for x in unknowns_of(ctx, step.source))
        )
        if step.ctx_extension != extension or not _fresh_renaming(rule, fr, ctx, step.source, step.variant):
            return False
        rule, ctx = fr, ctx | extension
    else:
        return False
    if not alpha_holds(ctx, step.source, step.variant):
        return False
    try:
        hole, frames, _ = next(_decompositions(ctx, step.variant, step.path, []))
    except IndexError:
        return False
    theta = step.subst
    for a, x in rule.ctx:
        if not fresh_holds(ctx, a, theta.image(x)):
            return False
    if not alpha_holds(ctx, hole, substitute(act(step.perm, rule.lhs), theta)):
        return False
    return alpha_holds(ctx, _plug(frames, substitute(act(step.perm, rule.rhs), theta)), step.result)


def replay_step(ctx: FreshnessContext, step: RewriteStep, rule: RewriteRule) -> bool:
    """Re-verify a step from its recorded witness against the named rule."""
    return replay(ctx, step, rule)


def _prepared(kept: dict, prepare: Callable[..., PreparedRule], subject: Subject, rules, i: int) -> PreparedRule:
    """Rule i prepared with `prepare(subject, rule)` and kept in the call's
    dict per pair of the subject's atoms and unknowns, all that a preparation
    reads of a subject under the call's one context."""
    key = subject.atoms, subject.unknowns, i
    if key not in kept:
        kept[key] = prepare(subject, rules[i])
    return kept[key]


def _first_step(s: Term, tree: _Tree, prepared: Callable, innermost: bool) -> tuple[Optional[RewriteStep], bool]:
    """The first step in strategy order of positions, then rule order of
    the rules whose lhs shape fits the hole, read off the rule set's tree
    in one walk per position, each rule prepared by `prepared(i)` at the
    first hole it fits.  Only identity variants are tried: if an
    alpha-variant of s can step, so can s.  With no step, also whether a
    search cut by its universe ran."""
    cut = False
    for frames, hole in _places(s, innermost):
        for i in tree.fits(hole):
            prep = prepared(i)
            for pi, theta, rhs in prep.instances(hole):
                return _build(s, (prep, None, frames, hole, False, pi, theta, rhs)), False
            cut |= prep.truncated
    return None, cut


def normalize(
    ctx: FreshnessContext,
    s: Term,
    theory: Theory,
    prepare: Callable[..., PreparedRule],
    strategy: str | None = None,
    fuel: int = 500,
) -> NormalizeResult:
    """Apply first steps under the strategy (default outermost) until none
    applies or the fuel runs out.  The rules that may fit a hole come from
    the theory's discrimination tree, built once per theory object and kept
    with it, so each position visited is looked up in one walk.  The status
    is normal_form, truncated (no step, but a permutation search was cut
    short) or fuel_exhausted."""
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    if strategy not in (None, "", "outermost", "innermost"):
        raise ValueError(f"unknown strategy {strategy!r}")
    tree = theory._tree
    trace: list[RewriteStep] = []
    current = s
    kept: dict = {}
    while True:
        prepared = partial(_prepared, kept, prepare, Subject(ctx, current), tree.rules)
        step, cut = _first_step(current, tree, prepared, strategy == "innermost")
        if step is None:
            return NormalizeResult(current, trace, "truncated" if cut else "normal_form")
        if len(trace) == fuel:
            return NormalizeResult(current, trace, "fuel_exhausted")
        trace.append(step)
        current = step.result


def normalize_general(
    ctx: FreshnessContext,
    s: Term,
    theory: Theory,
    strategy: str | None = None,
    fuel: int = 500,
    max_support: int = MAX_SUPPORT,
) -> NormalizeResult:
    """Normalize by general rewriting steps."""
    prepare = partial(_prepare_general, max_support=max_support, sides={})
    return normalize(ctx, s, theory, prepare, strategy, fuel)


class ReachableSet:
    """A set of terms up to alpha-equivalence under a fixed context: one
    representative per class, in insertion order, keyed by its alpha key,
    so membership is one hash lookup."""

    def __init__(self, ctx: FreshnessContext):
        self.ctx = ctx
        self.reps: dict[tuple, Term] = {}

    def add(self, t: Term) -> bool:
        """Add t's class; True when it was new."""
        key = alpha_key(self.ctx, t)
        if key in self.reps:
            return False
        self.reps[key] = t
        return True

    def __contains__(self, t: Term) -> bool:
        return alpha_key(self.ctx, t) in self.reps

    def __iter__(self):
        return iter(self.reps.values())

    def __len__(self):
        return len(self.reps)


def _breadth_first(
    ctx: FreshnessContext, s: Term, tree: _Tree, prepare: Callable[..., PreparedRule], reached: ReachableSet,
    levels: int, cap: int | None = None, target: tuple | None = None,
) -> list[RewriteStep] | None:
    """Breadth-first over the steps of the tree's rules from s, `levels`
    steps deep and expanding at most `cap` terms, writing each class's first
    representative into `reached` (keyed under ctx).  Each position of a
    term is looked up in the tree once, and each rule then steps at the
    positions it fits, in rule order.  A general candidate is keyed by
    splicing (`_spliced_key`) and built only when its class is new; a closed
    one is built, then keyed.  Returns the trace to the class of key
    `target`, or None.  A frontier entry is (term, its key, link), a link
    being None or (step, the source's link)."""
    reps, skey = reached.reps, alpha_key(ctx, s)
    if skey == target:
        return []
    reps[skey] = s
    frontier: list[tuple[Term, tuple, tuple | None]] = [(s, skey, None)]
    kept: dict = {}
    expanded = 0
    for _ in range(levels):
        nxt: list[tuple[Term, tuple, tuple | None]] = []
        for u, ukey, link in frontier:
            if expanded == cap:
                return None
            expanded += 1
            spans, subject, fitting = None, Subject(ctx, u), {}
            for at, (frames, here) in enumerate(_places(u)):
                for i in tree.fits(here):
                    fitting.setdefault(i, []).append((at, frames, here))
            for i, places in sorted(fitting.items()):
                prep = _prepared(kept, prepare, subject, tree.rules, i)
                for candidate in _candidates(u, places, prep):
                    general = candidate[0].freshened is None
                    if general:
                        spans = spans or _spans(u)  # read by general candidates alone
                        key = _spliced_key(ctx, ukey, spans, candidate)
                        if key in reps:
                            continue
                    step = _build(u, candidate)
                    if not general:
                        key = alpha_key(ctx, step.result)
                        if key in reps:
                            continue
                    if key == target:
                        trace = [step]
                        while link is not None:
                            step, link = link
                            trace.append(step)
                        return trace[::-1]
                    reps[key] = step.result
                    nxt.append((step.result, key, (step, link)))
        if not nxt:
            return None
        frontier = nxt
    return None


def reachable(
    ctx: FreshnessContext, s: Term, theory: Theory, prepare: Callable[..., PreparedRule], fuel: int
) -> ReachableSet:
    """Everything reachable from s in at most `fuel` one-step rewrites,
    collected up to alpha-equivalence (so the set contains s's own
    alpha-variants by construction of membership).  A general step is built
    only when it reaches a new class; closed reachability builds every
    step, since a closed result is scrubbed under its own extended context."""
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    reached = ReachableSet(ctx)
    _breadth_first(ctx, s, theory._tree, prepare, reached, fuel)
    return reached


def rewrite_closure_reachable(
    ctx: FreshnessContext,
    s: Term,
    theory: Theory,
    fuel: int,
    max_support: int = MAX_SUPPORT,
) -> ReachableSet:
    """Everything reachable from s in at most `fuel` general steps."""
    return reachable(ctx, s, theory, partial(_prepare_general, max_support=max_support, sides={}), fuel)


@dataclass
class SearchResult:
    """A symmetric search's answer: found and its trace, or not found (and
    no trace) within the budget or, at once, by a count no rule changes."""

    found: bool
    trace: list[RewriteStep] | None
    gamma: FreshnessContext
    ctx: FreshnessContext  # the context the search (and its trace) ran under


def _invertible(rule: RewriteRule) -> bool:
    return unknowns_of(rule.lhs) <= unknowns_of(rule.rhs) and unknowns_of(rule.ctx) <= unknowns_of(rule.rhs)


def symmetric_search(
    ctx: FreshnessContext,
    s: Term,
    t: Term,
    theory: Theory,
    fuel: int = 100,
    gamma_budget: int | None = None,
    max_support: int = MAX_SUPPORT,
) -> SearchResult:
    """Bounded search for s <-> t: breadth-first over steps of the theory
    and of the reversals it keeps, under the context extended with up to
    gamma_budget machine-fresh constraints added all at once.

    `found` certifies derivability (the trace replays under the extended
    context); not_found is only a failure to find within the budget.  When s
    and t differ in the count of a node kind that no rule changes, no trace
    can join them, and the search answers not_found at once, expanding
    nothing (module docstring).  `fuel` bounds the terms expanded, so fuel 0
    finds only s's own class.
    """
    if gamma_budget is None:
        gamma_budget = len(theory.atoms())
    if fuel < 0 or gamma_budget < 0:
        raise ValueError("fuel and gamma_budget must not be negative")
    atoms, unknowns = _names_of(ctx, s, t)
    names = fresh_names("g", gamma_budget if unknowns else 0, {a.name for a in atoms | theory.atoms()})
    gamma = FreshnessContext(frozenset((Atom(name), x) for name in names for x in unknowns))
    ctx2 = ctx | gamma
    if _kept_counts_differ(theory, s, t):
        return SearchResult(False, None, gamma, ctx2)
    prepare = partial(_prepare_general, max_support=max_support, sides={})
    trace = _breadth_first(ctx2, s, theory._search_tree, prepare, ReachableSet(ctx2), fuel, fuel, alpha_key(ctx2, t))
    return SearchResult(trace is not None, trace, gamma, ctx2)
