"""Derivability of freshness (a # t) and alpha-equivalence (s =a= t)
judgements under a freshness context.

Each judgement is decided once, by a fast path that answers with a plain
boolean: `fresh_holds` walks the freshness rules with a worklist, and
`alpha_holds` walks s and t together, comparing each pair of nodes token by
token as their canonical alpha keys (`alpha_key`) would and stopping at the
first difference; both run in linear time at any depth and build no key.
A derivation that holds is unique, so `check_fresh` (rules #ab, #[a], #[b],
#X, #f) and `check_alpha` (rules ~a, ~[a], ~[b], ~X, ~f) read the
replayable derivation tree off the term once the fast path says yes, with
no failure branches, and answer None otherwise.  Both builds, `alpha_key`
and `verify_derivation` keep their own stacks too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .terms import (
    Abstraction,
    App,
    Atom,
    AtomTerm,
    Permutation,
    Substitution,
    Suspension,
    Term,
    Unknown,
    _ABS,
    _APP,
    _END,
    _SUSP,
    _fold,
    act,
    swap,
)


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


EMPTY_CTX = FreshnessContext()


@dataclass(frozen=True)
class Derivation:
    """A rule application tree; each node carries the rule name and the
    judgement it concludes."""

    rule: str
    conclusion: tuple
    children: tuple["Derivation", ...] = ()


def fresh_holds(ctx: FreshnessContext, a: Atom, t: Term) -> bool:
    """Is ctx |- a # t derivable?  Fast path without derivation recording:
    the freshness rules on one worklist, which skips the bodies of binders
    of a and asks the context pi^-1(a) # X at each suspension pi.X."""
    pairs = ctx.pairs
    stack = [t]
    while stack:
        u = stack.pop()
        kind = type(u)
        if kind is App:
            stack.extend(u.args)
        elif kind is Abstraction:
            if u.atom is not a:
                stack.append(u.body)
        elif kind is AtomTerm:
            if u.atom is a:
                return False
        elif kind is Suspension:
            if (u.perm.inverse()(a), u.unknown) not in pairs:
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


_TERM_KINDS = (AtomTerm, Suspension, Abstraction, App)


# An alpha key opens a node with the flat key's tags (terms.py).  Bound
# atoms are keyed by their de Bruijn distance, which is never negative, and
# free atoms by their name, a string, so a tag can never be read as an atom.
def alpha_key(ctx: FreshnessContext, t: Term, scope: Sequence[Atom] = ()) -> tuple:
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

    Contract: a node takes a fixed number of tokens, 1 for an atom or an
    abstraction and 3 for an application or a suspension, so the subterm
    at a position keys to one slice of the key, found by preorder widths.
    `scope` lists the atoms bound above t, outermost first (the innermost
    wins on a repeated name): the key of t under it is the slice t takes
    in the key of any C[t] whose binders above the hole are `scope`.

    The walk keeps its own stack, so terms of any depth work, in time
    linear in the term plus, per suspension, the atoms bound above it.
    """
    pairs = ctx.pairs
    out: list = []
    level = {a: i for i, a in enumerate(scope)} if scope else {}  # atom -> binders outside its binder
    depth = len(scope)
    stack: list = [t]
    while stack:
        u = stack.pop()
        kind = type(u)
        if kind is AtomTerm:
            a = u.atom
            n = level.get(a)
            out.append(a.name if n is None else depth - 1 - n)
        elif kind is Abstraction:
            a = u.atom
            out.append(_ABS)
            stack += (a, level.get(a), _END, u.body)  # _END restores the scope after the body
            level[a] = depth
            depth += 1
        elif u is _END:
            previous, a = stack.pop(), stack.pop()
            depth -= 1
            if previous is None:
                del level[a]
            else:
                level[a] = previous
        elif kind is App:
            out += (_APP, u.former, len(u.args))
            stack.extend(reversed(u.args))
        elif kind is Suspension:
            out += (_SUSP, u.unknown.name, _suspension_pairs(pairs, u.perm, u.unknown, level, depth))
        else:
            raise TypeError(f"not a term: {u!r}")
    return tuple(out)


def _suspension_pairs(pairs, pi: Permutation, x: Unknown, level: dict[Atom, int], depth: int) -> tuple:
    """The sorted (c, key of pi(c)) pairs of pi.X under the binders in
    `level`, for the atoms c in supp(pi) or in pi^-1 of a bound atom that
    are not fresh for X."""
    image = {b: b for b in level}  # a bound atom outside supp(pi) is its own preimage
    image.update(pi.mapping)
    entries = []
    for c, v in image.items():
        if (c, x) not in pairs:
            n = level.get(v)
            entries.append((c.name, v.name if n is None else depth - 1 - n))
    entries.sort()
    return tuple(entries)


# The deepest binder stack under which alpha_holds compares the two sides'
# levels, in O(depth), to skip a sigma image: past it the image is walked,
# so a deep pattern with a suspension at every level stays linear.
_SKIP_DEPTH = 16


def alpha_holds(ctx: FreshnessContext, s: Term, t: Term, _sigma: Optional[Substitution] = None) -> bool:
    """Is ctx |- s =a= t derivable?  Fast path without derivation
    recording: it holds exactly when the alpha keys of s and t are equal.
    It walks s and t together on one stack, compares each pair of nodes as
    their key tokens would, and stops at the first pair that differs in
    node type, former, arity, atom or suspension.  Each side maps its bound
    atoms to their binders' levels and both share one depth, so two bound
    atoms have equal distances exactly when they have equal levels; a
    restore entry, pushed only when outer work waits on the stack, puts a
    rebound atom's outer level back after the body.  A binder's bodies are
    walked next without a stack entry, and an application's atom-leaf
    arguments are compared in its own loop, under the levels in force at
    it, so only its other arguments go on the stack.

    The key (alpha_key) names bound atoms by their de Bruijn distance and
    free atoms by name, and keys a suspension pi.X by X and the map
    c -> key(pi(c)) over the atoms c not fresh for X.  Leaving out the
    atoms ctx makes fresh for X is sound: the ~X rule lets two suspensions
    on X disagree exactly on such atoms.  It loses no check either: the
    side condition b # pi.X of the ~[b] rule is pi^-1(b) # X, and when that
    fails the pair of pi^-1(b) stays in the key, where b reads as free on
    one side and as bound on the other, so the keys differ.

    `_sigma`, private to `matching.is_solution`, asks s.sigma =a= t with no
    instance built: a suspension pi.X of s with X in dom sigma is read, where
    the walk meets it, as act(pi, sigma(X)), whose own suspensions are read
    as they are, as `substitute` leaves them.  When that term is the very
    node of t it faces and both sides map their bound atoms to equal levels,
    under at most _SKIP_DEPTH binders, the two have equal keys and the pair
    holds unwalked.  Only the branches a suspension reaches test for one,
    so a call without sigma pays one test per suspension and nothing per
    other node.
    """
    pairs = ctx.pairs
    images = every = _sigma._map if _sigma is not None else ()  # () inside an image
    left: dict[Atom, int] = {}
    right: dict[Atom, int] = {}
    depth = 0
    stack: list = []
    u, v = s, t
    while True:
        kind = type(u)
        if kind is not type(v):
            if u is _END:  # a restore entry: the body is done
                a, n, b, m = v
                depth -= 1
                if n is None:
                    del left[a]
                else:
                    left[a] = n
                if m is None:
                    del right[b]
                else:
                    right[b] = m
            elif kind is not Suspension or u.unknown not in images:
                for w in (u, v):
                    if type(w) not in _TERM_KINDS:
                        raise TypeError(f"not a term: {w!r}")
                return False
            elif (u := act(u.perm, images[u.unknown])) is not v or depth > _SKIP_DEPTH or left != right:
                if stack:  # else nothing follows the image
                    stack.append((_END, _END))  # popped once the image is done
                images = ()
                continue
        elif kind is App:
            if u.former != v.former or len(u.args) != len(v.args):
                return False
            for p, q in zip(u.args, v.args):
                if type(p) is AtomTerm and type(q) is AtomTerm:
                    a, b = p.atom, q.atom
                    n = left.get(a)
                    if n != right.get(b) or (n is None and a is not b):
                        return False
                else:
                    stack.append((p, q))
        elif kind is Abstraction:
            a, b = u.atom, v.atom
            if stack:
                stack.append((_END, (a, left.get(a), b, right.get(b))))
            left[a] = right[b] = depth
            depth += 1
            u, v = u.body, v.body  # the body is walked next, without a stack entry
            continue
        elif kind is AtomTerm:
            a, b = u.atom, v.atom
            n = left.get(a)
            if n != right.get(b) or (n is None and a is not b):
                return False
        elif kind is Suspension:
            x = u.unknown
            if x in images:
                if (u := act(u.perm, images[x])) is not v or depth > _SKIP_DEPTH or left != right:
                    if stack:
                        stack.append((_END, _END))
                    images = ()
                    continue
            elif x is not v.unknown or (
                _suspension_pairs(pairs, u.perm, x, left, depth) != _suspension_pairs(pairs, v.perm, x, right, depth)
            ):
                return False
        elif u is _END:  # an image is done: s's suspensions are read through sigma again
            images = every
        else:
            raise TypeError(f"not a term: {u!r}")
        if not stack:
            return True
        u, v = stack.pop()


def check_alpha(ctx: FreshnessContext, s: Term, t: Term) -> Optional[Derivation]:
    """Like alpha_holds but returns the derivation, or None.  A derivation
    that holds follows s and t down together, so once alpha_holds says yes
    it is built on one explicit stack: a pair (u, v) to derive, or a node
    (rule, conclusion, n) whose n children are the last n values built."""
    if not alpha_holds(ctx, s, t):
        return None
    stack: list = [(s, t)]
    values: list[Derivation] = []
    while stack:
        item = stack.pop()
        if len(item) == 3:
            rule, conclusion, n = item
            k = len(values) - n
            values[k:] = [Derivation(rule, conclusion, tuple(values[k:]))]
            continue
        u, v = item
        conclusion = ("alpha", ctx, u, v)
        kind = type(u)
        if kind is AtomTerm:
            values.append(Derivation("~a", conclusion))
        elif kind is Suspension:
            values.append(Derivation("~X", conclusion))
        elif kind is App:
            stack += (("~f", conclusion, len(u.args)), *reversed(tuple(zip(u.args, v.args))))
        elif u.atom == v.atom:
            stack += (("~[a]", conclusion, 1), (u.body, v.body))
        else:  # ~[b]: the freshness child comes first
            values.append(check_fresh(ctx, v.atom, u.body))
            stack += (("~[b]", conclusion, 2), (act(swap(v.atom, u.atom), u.body), v.body))
    return values[0]


def verify_derivation(d: Derivation) -> bool:
    """Replay a derivation: check that each node is a correct application of
    its rule to its children's conclusions, by comparing it node by node
    with the unique derivation of its conclusion."""
    match d.conclusion:
        case ("fresh", ctx, a, t):
            expected = check_fresh(ctx, a, t)
        case ("alpha", ctx, s, t):
            expected = check_alpha(ctx, s, t)
        case _:
            return False
    if expected is None:
        return False
    work = [(expected, d)]
    while work:
        x, y = work.pop()
        if x.rule != y.rule or x.conclusion != y.conclusion or len(x.children) != len(y.children):
            return False
        work.extend(zip(x.children, y.children))
    return True
