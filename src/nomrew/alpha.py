"""Derivability of freshness (a # t) and alpha-equivalence (s =a= t)
judgements under a freshness context.

`check_alpha` applies the rules ~a, ~[a], ~[b], ~X, ~f by syntax-directed
recursion, and `check_fresh` the rules #ab, #[a], #[b], #X, #f by one fold
over the term (`terms._fold`); both answer with a replayable derivation
tree, or None.  The fast paths answer with a plain boolean: `fresh_holds`
walks the freshness rules with a worklist, and `alpha_holds` compares
canonical alpha keys (`alpha_key`), flat nameless encodings built in one
explicit-stack pass; both run in linear time at any depth.  A de Bruijn
style conversion of ground terms (`nameless_form`) provides an independent
oracle for alpha-equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .terms import (
    Abstraction,
    App,
    Atom,
    AtomTerm,
    NominalError,
    Permutation,
    Suspension,
    Term,
    Unknown,
    _fold,
    act,
    swap,
    unknowns_of,
)


@dataclass(frozen=True, slots=True)
class FreshnessConstraint:
    """A pair a # t."""

    atom: Atom
    target: Term


@dataclass(frozen=True)
class FreshnessContext:
    """A finite set of primitive constraints a # X, the hypotheses of every
    judgement.  Set semantics: order and duplicates are irrelevant."""

    pairs: frozenset[tuple[Atom, Unknown]] = frozenset()

    @classmethod
    def of(cls, *pairs: tuple[Atom, Unknown]) -> "FreshnessContext":
        return cls(frozenset(pairs))

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return len(self.pairs)

    def __contains__(self, pair: tuple[Atom, Unknown]) -> bool:
        return pair in self.pairs

    def __or__(self, other: "FreshnessContext") -> "FreshnessContext":
        return FreshnessContext(self.pairs | other.pairs)

    def with_pairs(self, pairs: Iterable[tuple[Atom, Unknown]]) -> "FreshnessContext":
        return FreshnessContext(self.pairs | frozenset(pairs))

    def atoms(self) -> set[Atom]:
        return {a for a, _ in self.pairs}

    def unknowns(self) -> set[Unknown]:
        return {x for _, x in self.pairs}


EMPTY_CTX = FreshnessContext()


@dataclass(frozen=True)
class Derivation:
    """A rule application tree; each node carries the rule name and the
    judgement it concludes."""

    rule: str
    conclusion: tuple
    children: tuple["Derivation", ...] = ()


def fresh_holds(ctx: FreshnessContext, a: Atom, t: Term) -> bool:
    """Is ctx |- a # t derivable?  Fast path without derivation recording,
    in one worklist pass that skips the bodies of binders of a."""
    stack = [t]
    while stack:
        u = stack.pop()
        kind = type(u)
        if kind is App:
            stack.extend(u.args)
        elif kind is Abstraction:
            if u.atom != a:
                stack.append(u.body)
        elif kind is AtomTerm:
            if u.atom == a:
                return False
        elif kind is Suspension:
            mapping, c = u.perm.mapping, a  # pi^-1(a): follow a's cycle in pi back to a
            while (d := mapping.get(c, a)) != a:
                c = d
            if (c, u.unknown) not in ctx.pairs:
                return False
        else:
            raise TypeError(f"not a term: {u!r}")
    return True


def check_fresh(ctx: FreshnessContext, a: Atom, t: Term) -> Optional[Derivation]:
    """Like fresh_holds but returns the derivation, or None.  A derivation
    that holds has t's own shape, cut below each binder of a (#[a]), so it
    is one fold over t once fresh_holds says yes."""
    if not fresh_holds(ctx, a, t):
        return None
    node = lambda rule, u, children=(): Derivation(rule, ("fresh", ctx, a, u), children)
    on_abs = lambda u, body: node("#[a]", u) if u.atom == a else node("#[b]", u, (body,))
    return _fold(t, lambda u: node("#ab", u), lambda u: node("#X", u), on_abs, lambda u, args: node("#f", u, args))


def disagreement_set(pi: Permutation, pi2: Permutation) -> frozenset[Atom]:
    """The atoms on which the two permutations differ."""
    return frozenset(a for a in pi.support | pi2.support if pi(a) != pi2(a))


# Tags that open a node in an alpha key.  Bound atoms are keyed by their
# de Bruijn distance, which is never negative, and free atoms by their name,
# a string, so a tag can never be read as an atom.
_ABS, _APP, _SUSP = -1, -2, -3


def alpha_key(ctx: FreshnessContext, t: Term) -> tuple:
    """A canonical, hashable key for the alpha-class of t under ctx.

    The key lists t's nodes in preorder, each node opening with one token.
    An atom is its de Bruijn distance to its binder (0 for the innermost)
    when bound, and its name when free.  An abstraction is _ABS followed by
    its body.  An application f(t1..tn) is _APP, f, n followed by its
    arguments.  A suspension pi.X is _SUSP, X's name and the sorted pairs
    (c, key of pi(c)) for the atoms c in supp(pi) or in pi^-1 of an atom
    bound in scope, leaving out those that ctx makes fresh for X; every
    other atom c has pi(c) = c free, so it would map to its own name.
    Tags are negative integers, distances nonnegative integers and names
    strings, so the token stream decodes in exactly one way: a free atom
    named "[" or a nullary former named like an atom cannot be mistaken
    for anything else.

    The walk keeps its own stack, so terms of any depth work, in time
    linear in the term plus, per suspension, the atoms bound above it.
    """
    pairs = ctx.pairs
    out: list = []
    level: dict[str, int] = {}  # bound atom's name -> binders outside its innermost binder
    depth = 0
    stack: list = [t]
    # Dispatch on the exact type: this loop is the alpha layer's hot path,
    # and class patterns in a match statement take about twice as long.
    while stack:
        u = stack.pop()
        kind = type(u)
        if kind is AtomTerm:
            name = u.atom.name
            n = level.get(name)
            out.append(name if n is None else depth - 1 - n)
        elif kind is Abstraction:
            name = u.atom.name
            out.append(_ABS)
            stack.append((name, level.get(name)))  # restores the scope after the body
            level[name] = depth
            depth += 1
            stack.append(u.body)
        elif kind is tuple:
            name, previous = u
            depth -= 1
            if previous is None:
                del level[name]
            else:
                level[name] = previous
        elif kind is App:
            out += (_APP, u.former, len(u.args))
            stack.extend(reversed(u.args))
        elif kind is Suspension:
            out += (_SUSP, u.unknown.name, _suspension_pairs(pairs, u.perm, u.unknown, level, depth))
        else:
            raise TypeError(f"not a term: {u!r}")
    return tuple(out)


def _suspension_pairs(pairs, pi: Permutation, x: Unknown, level: dict[str, int], depth: int) -> tuple:
    """The sorted (c, key of pi(c)) pairs of pi.X under the binders in
    `level`, for the atoms c in supp(pi) or in pi^-1 of a bound atom that
    are not fresh for X."""
    image = {c.name: (c, v.name) for c, v in pi.mapping.items()}
    if level:
        preimage = {v.name: c for c, v in pi.mapping.items()}
        for b in level:
            c = preimage.get(b)
            if c is None:
                image[b] = (Atom(b), b)
    entries = []
    for c, v in image.values():
        if (c, x) not in pairs:
            n = level.get(v)
            entries.append((c.name, v if n is None else depth - 1 - n))
    entries.sort()
    return tuple(entries)


def alpha_holds(ctx: FreshnessContext, s: Term, t: Term) -> bool:
    """Is ctx |- s =a= t derivable?  Fast path without derivation
    recording: it holds exactly when the alpha keys of s and t are equal.

    The key (alpha_key) names bound atoms by their de Bruijn distance and
    free atoms by name, and keys a suspension pi.X by X and the map
    c -> key(pi(c)) over the atoms c not fresh for X.  Leaving out the
    atoms ctx makes fresh for X is sound: the ~X rule lets two suspensions
    on X disagree exactly on such atoms.  It loses no check either: the
    side condition b # pi.X of the ~[b] rule is pi^-1(b) # X, and when that
    fails the pair of pi^-1(b) stays in the key, where b reads as free on
    one side and as bound on the other, so the keys differ.
    """
    return alpha_key(ctx, s) == alpha_key(ctx, t)


def check_alpha(ctx: FreshnessContext, s: Term, t: Term) -> Optional[Derivation]:
    """Like alpha_holds but returns the derivation, or None."""
    conclusion = ("alpha", ctx, s, t)
    match (s, t):
        case (AtomTerm(a), AtomTerm(b)):
            return Derivation("~a", conclusion) if a == b else None
        case (Suspension(p1, x1), Suspension(p2, x2)):
            if x1 == x2 and all((a, x1) in ctx for a in disagreement_set(p1, p2)):
                return Derivation("~X", conclusion)
            return None
        case (Abstraction(a, u), Abstraction(b, v)):
            if a == b:
                sub = check_alpha(ctx, u, v)
                return Derivation("~[a]", conclusion, (sub,)) if sub else None
            fr = check_fresh(ctx, b, u)
            if fr is None:
                return None
            sub = check_alpha(ctx, act(swap(b, a), u), v)
            return Derivation("~[b]", conclusion, (fr, sub)) if sub else None
        case (App(f, xs), App(g, ys)):
            if f != g or len(xs) != len(ys):
                return None
            subs = []
            for u, v in zip(xs, ys):
                sub = check_alpha(ctx, u, v)
                if sub is None:
                    return None
                subs.append(sub)
            return Derivation("~f", conclusion, tuple(subs))
    return None


def ctx_entails(ctx: FreshnessContext, constraints: Iterable[FreshnessConstraint | tuple[Atom, Term]]) -> bool:
    """Does ctx derive every constraint a # t in the collection?"""
    for c in constraints:
        a, t = (c.atom, c.target) if isinstance(c, FreshnessConstraint) else c
        if not fresh_holds(ctx, a, t):
            return False
    return True


def verify_derivation(d: Derivation) -> bool:
    """Replay a derivation: check that each node is a correct application of
    its rule to its children's conclusions."""
    match d.conclusion:
        case ("fresh", ctx, a, t):
            expected = check_fresh(ctx, a, t)
        case ("alpha", ctx, s, t):
            expected = check_alpha(ctx, s, t)
        case _:
            return False
    return expected is not None and _same_shape(expected, d)


def _same_shape(a: Derivation, b: Derivation) -> bool:
    return (
        a.rule == b.rule
        and a.conclusion == b.conclusion
        and len(a.children) == len(b.children)
        and all(_same_shape(x, y) for x, y in zip(a.children, b.children))
    )


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
