"""Nominal term syntax and its two actions.

Atoms are bindable object-level names, unknowns are instantiable variables,
and a term is an atom, a suspension pi.X (a permutation waiting on an
unknown), an atom-abstraction [a]t, or a term-former application
f(t1,...,tn).  Permutations are finitely supported bijections on atoms kept
as the canonical map of the atoms they move; swap lists are only read and
printed.  Substitutions map unknowns to terms and do not avoid capture.

Atoms and unknowns are interned, one object per name in one plain table per
class for the life of the process (`dict.setdefault` gives two threads that
make one name one object), so they compare by identity and hash by address,
both in C.  Term nodes are plain slotted classes, immutable by convention:
nothing outside this module assigns a field (tests/test_terms_immutable.py
keeps it so).  Term `==` and `hash` read the flat preorder key (`_flat_key`)
on an explicit stack, and the hash is kept on the node once computed.  Every
walker keeps its own stack, so terms of any depth work.  The rebuilds
(`act`, `substitute` and renaming) run on `_rebuild`'s loop, which reads the
atom map inline and calls out only at a suspension; it hands back each node
it does not change, so unchanged subterms stay shared, and builds one new
leaf per renamed atom.  `_fold` is left to the folds that build values other
than terms.  A stack entry that is not a node is the private `_END`, so a
non-term reached as a term raises TypeError in every walker.
Walkers dispatch on the exact node type (`type(u) is App`), never on class
patterns in a match statement, which take about twice as long
(tests/test_dispatch.py keeps it so).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from operator import is_not
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .alpha import FreshnessContext

MACHINE_MARK = "$"


class NominalError(Exception):
    """Base class for errors raised by this package."""


class SignatureError(NominalError):
    pass


class _Name:
    """An interned name: one object per (class, name) for the life of the
    process, kept in the class's plain table and stored there with the atomic
    `dict.setdefault`, so two threads that make one name get one object.
    Equality is identity and hashing is the object's own, both in C.  Names
    are immutable; copying or pickling one interns it again."""

    __slots__ = ("name",)

    def __init_subclass__(cls):
        cls._interned = {}

    def __new__(cls, name: str):
        got = cls._interned.get(name)
        if got is None:
            got = object.__new__(cls)
            object.__setattr__(got, "name", name)
            got = cls._interned.setdefault(name, got)
        return got

    def __setattr__(self, attr, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, attr):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), (self.name,)

    @property
    def is_machine(self) -> bool:
        return MACHINE_MARK in self.name

    def __repr__(self):
        return f"{type(self).__name__}({self.name!r})"

    def __lt__(self, other):
        return self.name < other.name


class Atom(_Name):
    """An object-level name; equal iff the names are equal.

    Names containing the reserved ``$`` marker are machine-generated and can
    never be written in user syntax, so they are fresh by construction.
    """

    __slots__ = ()


class Unknown(_Name):
    """A variable standing for an as yet unknown term."""

    __slots__ = ()


class Permutation:
    """A finitely supported bijection on atoms, stored in canonical form:
    the dict `mapping` of the atoms it moves to their images.

    ``Permutation([s1, ..., sn])`` composes the swap list once, as
    ``s1 o ... o sn`` with the rightmost swap acting first.  Equal
    bijections hold equal dicts.  `inverse()` is built once and kept;
    `swaps` is the canonical swap list read off the cycles, for printing.
    """

    __slots__ = ("mapping", "_inverse", "_hash")

    def __init__(self, swaps: Iterable[tuple[Atom, Atom]] = ()):
        mapping: dict[Atom, Atom] = {}
        for a, b in swaps:  # mapping o (a b)
            mapping[a], mapping[b] = mapping.get(b, b), mapping.get(a, a)
        self.mapping = {c: v for c, v in mapping.items() if c != v}
        self._inverse = self._hash = None

    @classmethod
    def _of(cls, mapping: dict[Atom, Atom]) -> "Permutation":
        """The permutation whose nontrivial mapping is the given dict: one
        to one, onto its own keys and without fixed points."""
        pi = object.__new__(cls)
        pi.mapping, pi._inverse, pi._hash = mapping, None, None
        return pi

    @classmethod
    def from_mapping(cls, mapping: Mapping[Atom, Atom]) -> "Permutation":
        """Build a permutation from its mapping (must be bijective)."""
        nontrivial = {a: b for a, b in mapping.items() if a != b}
        if set(nontrivial) != set(nontrivial.values()):
            raise ValueError(f"not a bijection: {mapping}")
        return cls._of(nontrivial)

    @property
    def support(self) -> frozenset[Atom]:
        return frozenset(self.mapping)

    @property
    def is_identity(self) -> bool:
        return not self.mapping

    def __call__(self, a: Atom) -> Atom:
        return self.mapping.get(a, a)

    def inverse(self) -> "Permutation":
        if self._inverse is None:
            self._inverse = Permutation._of({v: c for c, v in self.mapping.items()})
        return self._inverse

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Functional composition: ``(p * q)(a) == p(q(a))``."""
        p, q = self.mapping, other.mapping
        if not p or not q:
            return other if not p else self
        out = {c: p.get(v, v) for c, v in q.items()}
        out.update((c, v) for c, v in p.items() if c not in q)
        return Permutation._of({c: v for c, v in out.items() if c != v})

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.mapping == other.mapping

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.mapping.items()))
        return self._hash

    @property
    def swaps(self) -> tuple[tuple[Atom, Atom], ...]:
        """The canonical swap list: each cycle, in the order of its least
        atom c0 and starting there, as (c0 c1)(c1 c2)...(ck-1 ck)."""
        mapping, seen, out = self.mapping, set(), []
        for start in sorted(mapping):
            c = start
            while c not in seen:
                seen.add(c)
                if mapping[c] != start:
                    out.append((c, mapping[c]))
                c = mapping[c]
        return tuple(out)

    def __repr__(self):
        if self.is_identity:
            return "Permutation(id)"
        body = "".join(f"({a.name} {b.name})" for a, b in self.swaps)
        return f"Permutation({body})"


ID = Permutation()


def swap(a: Atom, b: Atom) -> Permutation:
    return Permutation(((a, b),))


def _swap_into(forward: dict[Atom, Atom], backward: dict[Atom, Atom], a: Atom, b: Atom, undo: list) -> None:
    """Make the permutation pi whose moved atoms map as `forward` and back
    as `backward` into (a b) o pi, in place and in O(1), appending to undo
    the entries `_undo` reads to put pi back.  Only pi^-1(a) and pi^-1(b)
    change their images."""
    x, y = backward.get(a, a), backward.get(b, b)
    for table, key, value in ((forward, x, b), (forward, y, a), (backward, b, x), (backward, a, y)):
        undo.append((table, key, table.get(key)))
        if key is value:
            table.pop(key, None)
        else:
            table[key] = value


def _undo(undo: list) -> None:
    """Put back, last first, each (table, key, old value) entry of undo: a
    key whose old value is None was absent."""
    for table, key, old in reversed(undo):
        if old is None:
            table.pop(key, None)
        else:
            table[key] = old


class Term:
    """Base class of the four term constructors: equal when their flat keys
    are, with the hash computed on first use and kept in the `_hash` slot.
    Their repr shows their concrete syntax, written on `pretty`'s stack."""

    __slots__ = ("_hash",)

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return False if isinstance(other, Term) else NotImplemented
        return _flat_key(self) == _flat_key(other)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = h = hash(_flat_key(self))
            return h

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __repr__(self):
        from .syntax import pretty  # syntax imports this module
        return f"{type(self).__name__}({pretty(self)!r})"


@dataclass(slots=True, eq=False, repr=False)
class AtomTerm(Term):
    atom: Atom


@dataclass(slots=True, eq=False, repr=False)
class Suspension(Term):
    """A permutation suspended on an unknown, applied once it is instantiated."""

    perm: Permutation
    unknown: Unknown


@dataclass(slots=True, eq=False, repr=False)
class Abstraction(Term):
    atom: Atom
    body: Term


@dataclass(slots=True, eq=False, repr=False)
class App(Term):
    former: str
    args: tuple[Term, ...] = ()


def var(x: Unknown) -> Suspension:
    """The bare unknown X, i.e. the identity suspension id.X."""
    return Suspension(ID, x)


# Pushed between a node and its children, which are done when it is popped.
# No term is this object, so a non-term is never read as a stack entry.
_END = object()


def _fold(t: Term, on_atom, on_susp, on_abs, on_app):
    """Combine t bottom-up: a leaf's value is on_atom(u) or on_susp(u), an
    abstraction's on_abs(u, body's value) and an application's on_app(u,
    tuple of its arguments' values).  The folds that build values other
    than terms (check_fresh, term_depth) come here; the walk keeps its own
    stack, so terms of any depth work, and dispatches on the exact type."""
    stack: list = [t]
    values: list = []
    while stack:
        u = stack.pop()
        kind = type(u)
        if kind is AtomTerm:
            values.append(on_atom(u))
        elif kind is Suspension:
            values.append(on_susp(u))
        elif kind is Abstraction:
            stack += (u, _END, u.body)
        elif kind is App:
            stack += (u, _END, *reversed(u.args))
        elif u is not _END:
            raise TypeError(f"not a term: {u!r}")
        elif type(u := stack.pop()) is Abstraction:
            values[-1] = on_abs(u, values[-1])
        else:
            n = len(values) - len(u.args)
            values[n:] = [on_app(u, tuple(values[n:]))]
    return values[0]


def _rebuild(t: Term, mapping: Mapping[Atom, Atom], on_susp) -> Term:
    """t with each atom a, bound or free, renamed to mapping.get(a, a) and
    each suspension u replaced by on_susp(u), the only call the walk makes
    per node.  A node whose atom maps to itself and whose children come
    back as the same objects is returned itself, so unchanged subterms stay
    shared; the leaves of a renamed atom share one new AtomTerm per call,
    which terms being immutable allows.  The walk keeps its own stack, goes
    on to a node's first child without a stack entry, and dispatches on the
    exact type."""
    get = mapping.get
    leaves: dict[Atom, AtomTerm] = {}  # b -> the one AtomTerm(b) this call builds
    stack: list = []
    values: list = []
    u = t
    while True:
        kind = type(u)
        if kind is AtomTerm:
            a = u.atom
            if (b := get(a, a)) is not a:
                u = leaves.get(b) or leaves.setdefault(b, AtomTerm(b))
            values.append(u)
        elif kind is App and u.args:  # its first argument is walked next, without a stack entry
            stack += (u, _END, *u.args[:0:-1])
            u = u.args[0]
            continue
        elif kind is Abstraction:
            stack += (u, _END)
            u = u.body
            continue
        elif kind is Suspension:
            values.append(on_susp(u))
        elif kind is App:
            values.append(u)
        else:
            raise TypeError(f"not a term: {u!r}")
        while True:  # u is done: finish each node whose children now are, up to the next to walk
            if not stack:
                return values[0]
            u = stack.pop()
            if u is not _END:
                break
            u = stack.pop()
            if type(u) is Abstraction:
                a, body = u.atom, values[-1]
                values[-1] = u if (b := get(a, a)) is a and body is u.body else Abstraction(b, body)
            else:
                n = len(values) - len(u.args)
                args = values[n:]  # u itself unless an argument came back new
                values[n:] = [App(u.former, tuple(args)) if any(map(is_not, args, u.args)) else u]


def act(pi: Permutation, t: Term) -> Term:
    """Permutation action on a term.

    Suspensions absorb the permutation eagerly, so a term at rest never
    contains a permutation applied to anything but an unknown; abstracted
    atoms are renamed along with everything else, read off pi's mapping in
    `_rebuild`'s loop with no call per node.  A subterm that holds no
    suspension and no atom pi moves comes back as the same object.
    """
    if pi.is_identity:
        return t
    return _rebuild(t, pi.mapping, lambda u: Suspension(pi * u.perm, u.unknown))


class Substitution(Mapping):
    """A finite map from unknowns to terms; unknowns outside the domain
    behave as the identity.  Identity bindings are dropped on construction
    so equal substitutions compare and hash equal."""

    __slots__ = ("_map",)

    def __init__(self, mapping: Mapping[Unknown, Term] | Iterable[tuple[Unknown, Term]] = ()):
        items = mapping.items() if isinstance(mapping, Mapping) else mapping
        self._map = {x: t for x, t in items if t != var(x)}

    def __getitem__(self, x: Unknown) -> Term:
        return self._map[x]

    def __iter__(self) -> Iterator[Unknown]:
        return iter(self._map)

    def __len__(self) -> int:
        return len(self._map)

    def image(self, x: Unknown) -> Term:
        """sigma(X), which is id.X when X is outside the domain."""
        got = self._map.get(x)
        return var(x) if got is None else got

    def compose(self, other: "Substitution") -> "Substitution":
        """The substitution mapping each X to (X sigma) other."""
        out = {x: substitute(t, other) for x, t in self._map.items()}
        for y, t in other._map.items():
            if y not in out:
                out[y] = t
        return Substitution(out)

    def __hash__(self):
        return hash(frozenset(self._map.items()))

    def __repr__(self):
        inner = ", ".join(f"{x.name}->{t!r}" for x, t in sorted(self._map.items(), key=lambda kv: kv[0].name))
        return f"Substitution({inner})"


EMPTY_SUBST = Substitution()


def substitute(t: Term, sigma: Substitution) -> Term:
    """Substitution action on a term.  Deliberately capturing: abstraction
    bodies are substituted under the binder unchanged."""
    if not sigma:
        return t
    binds = sigma._map
    return _rebuild(t, {}, lambda u: act(u.perm, binds[u.unknown]) if u.unknown in binds else u)


def names_of(*items: Term | FreshnessContext) -> tuple[frozenset[Atom], frozenset[Unknown]]:
    """The atoms and the unknowns of the given terms and freshness contexts,
    in one walk.  The atoms of a suspension are the support of its
    permutation."""
    atoms: set[Atom] = set()
    unknowns: set[Unknown] = set()
    stack: list = []
    for it in items:
        if not hasattr(it, "pairs"):
            stack.append(it)  # a non-term raises TypeError in the walk
        elif it.pairs:
            ctx_atoms, ctx_unknowns = zip(*it.pairs)
            atoms.update(ctx_atoms)
            unknowns.update(ctx_unknowns)
    while stack:
        u = stack.pop()
        kind = type(u)
        if kind is App:
            stack += u.args
        elif kind is AtomTerm:
            atoms.add(u.atom)
        elif kind is Abstraction:
            atoms.add(u.atom)
            stack.append(u.body)
        elif kind is Suspension:
            atoms.update(u.perm.mapping)
            unknowns.add(u.unknown)
        else:
            raise TypeError(f"not a term: {u!r}")
    return frozenset(atoms), frozenset(unknowns)


def atoms_of(*items: Term | FreshnessContext) -> frozenset[Atom]:
    """All atoms of the given terms and freshness contexts (`names_of`)."""
    return names_of(*items)[0]


# Tags that open a node in a flat key.  Atoms are keyed by their name, a
# string, so a tag can never be read as an atom.
_ABS, _APP, _SUSP = -1, -2, -3


def _flat_key(t: Term) -> tuple:
    """An exact, hashable key for t: its nodes in preorder, each opening
    with one token.  An atom is its name, an abstraction _ABS and its atom's
    name, an application _APP, its former and its arity, a suspension _SUSP,
    its unknown's name and its permutation.  The stream decodes in exactly
    one way, so equal keys mean equal terms; term == and hash compare and
    hash it.  The walk keeps its own stack."""
    out: list = []
    stack = [t]
    while stack:
        u = stack.pop()
        kind = type(u)
        if kind is App:
            out += (_APP, u.former, len(u.args))
            stack.extend(reversed(u.args))
        elif kind is Abstraction:
            out += (_ABS, u.atom.name)
            stack.append(u.body)
        elif kind is AtomTerm:
            out.append(u.atom.name)
        elif kind is Suspension:
            out += (_SUSP, u.unknown.name, u.perm)
        else:
            raise TypeError(f"not a term: {u!r}")
    return tuple(out)


# A walk of its own, leaner than names_of's: it is the check on every
# MatchProblem and every is_solution.
def unknowns_of(*items: Term | FreshnessContext) -> set[Unknown]:
    """All unknowns of the given terms and freshness contexts."""
    out: set[Unknown] = set()
    stack: list = []
    for it in items:
        if isinstance(it, Term) or not hasattr(it, "pairs"):
            stack.append(it)  # a non-term raises TypeError in the walk
        else:
            out.update(x for _, x in it.pairs)
    while stack:
        u = stack.pop()
        kind = type(u)
        if kind is App:
            stack.extend(u.args)
        elif kind is Abstraction:
            stack.append(u.body)
        elif kind is Suspension:
            out.add(u.unknown)
        elif kind is not AtomTerm:
            raise TypeError(f"not a term: {u!r}")
    return out


def subterms(t: Term) -> Iterator[Term]:
    """All subterms of t in preorder, including t itself.  Suspensions are
    leaves: nothing under an unknown is a subterm."""
    stack = [t]
    while stack:
        u = stack.pop()
        yield u
        if type(u) is App:
            stack.extend(reversed(u.args))
        elif type(u) is Abstraction:
            stack.append(u.body)


def term_size(t: Term) -> int:
    return sum(1 for _ in subterms(t))


def term_depth(t: Term) -> int:
    """Depth with leaves (atoms and suspensions) at depth 1."""
    leaf = lambda u: 1
    return _fold(t, leaf, leaf, lambda u, d: d + 1, lambda u, ds: 1 + max(ds, default=0))


@dataclass(frozen=True)
class Signature:
    """Term-formers with their arities."""

    arities: tuple[tuple[str, int], ...]

    @classmethod
    def of(cls, mapping: Mapping[str, int] | Iterable[tuple[str, int]]) -> "Signature":
        items = mapping.items() if isinstance(mapping, Mapping) else tuple(mapping)
        seen: dict[str, int] = {}
        for name, arity in items:
            if arity < 0:
                raise SignatureError(f"negative arity for {name}")
            if name in seen and seen[name] != arity:
                raise SignatureError(f"former {name} declared with arities {seen[name]} and {arity}")
            seen[name] = arity
        return cls(tuple(sorted(seen.items())))

    def arity(self, former: str) -> int:
        for name, n in self.arities:
            if name == former:
                return n
        raise SignatureError(f"unknown term-former {former}")

    def __contains__(self, former: str) -> bool:
        return any(name == former for name, _ in self.arities)


def fresh_names(base: str, count: int, avoid: set[str]) -> list[str]:
    """Deterministically pick `count` machine names base$0, base$1, ... that
    avoid the given names."""
    if count < 0:
        raise ValueError("count must not be negative")
    out: list[str] = []
    for n in itertools.count():
        if len(out) == count:
            break
        cand = f"{base}{MACHINE_MARK}{n}"
        if cand not in avoid:
            out.append(cand)
    return out
