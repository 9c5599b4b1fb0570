"""Answer oracles that do not use the engine under test.

Terms come in two shapes here.  Inputs are generated in the benchmark's own
tuple form (``Atom``, ``Susp``, ``Abs`` and ``Fn`` below) and printed or
built into engine terms.  Engine answers are read back by class name and
attribute only, so nothing here imports ``nomrew``.  Walks over engine terms
are iterative, because the deep inputs go past Python's recursion limit.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple


# -- the benchmark's own term form -------------------------------------------


class Atom(NamedTuple):
    name: str


class Susp(NamedTuple):
    """A suspension: `swaps` (leftmost acts last) applied to an unknown."""

    swaps: tuple
    name: str


class Abs(NamedTuple):
    atom: str
    body: object


class Fn(NamedTuple):
    former: str
    args: tuple


def show(t) -> str:
    """Print in the concrete syntax of theory files and the CLI."""
    if isinstance(t, Atom):
        return t.name
    if isinstance(t, Susp):
        perm = "".join(f"({a} {b})" for a, b in t.swaps)
        return f"{perm}.{t.name}" if perm else t.name
    if isinstance(t, Abs):
        return f"[{t.atom}]{show(t.body)}"
    return f"{t.former}({','.join(show(u) for u in t.args)})" if t.args else t.former


def _swap_atom(a: str, x: str, y: str) -> str:
    return y if a == x else x if a == y else a


def swap_term(t, x: str, y: str):
    """The action of the swap (x y): renames every atom, binders included,
    and suspends the swap on unknowns."""
    if isinstance(t, Atom):
        return Atom(_swap_atom(t.name, x, y))
    if isinstance(t, Susp):
        return Susp(((x, y),) + t.swaps, t.name)
    if isinstance(t, Abs):
        return Abs(_swap_atom(t.atom, x, y), swap_term(t.body, x, y))
    return Fn(t.former, tuple(swap_term(u, x, y) for u in t.args))


def rename(t, names: dict):
    """Rename atoms everywhere (binders and suspended swaps too) by a map
    that is a bijection on the atoms it moves."""
    n = lambda a: names.get(a, a)
    if isinstance(t, Atom):
        return Atom(n(t.name))
    if isinstance(t, Susp):
        return Susp(tuple((n(a), n(b)) for a, b in t.swaps), t.name)
    if isinstance(t, Abs):
        return Abs(n(t.atom), rename(t.body, names))
    return Fn(t.former, tuple(rename(u, names) for u in t.args))


def perm_inverse_apply(swaps: tuple, a: str) -> str:
    """pi^-1(a) for the swap list pi (the leftmost swap is undone first)."""
    for x, y in swaps:
        a = _swap_atom(a, x, y)
    return a


def fresh_for(ctx: frozenset, a: str, t) -> bool:
    """Is ctx |- a # t derivable?  ctx holds (atom, unknown) name pairs."""
    if isinstance(t, Atom):
        return t.name != a
    if isinstance(t, Susp):
        return (perm_inverse_apply(t.swaps, a), t.name) in ctx
    if isinstance(t, Abs):
        return t.atom == a or fresh_for(ctx, a, t.body)
    return all(fresh_for(ctx, a, u) for u in t.args)


def free_atom_leaves(t, bound=()) -> Counter:
    """Multiset of free atom occurrences."""
    if isinstance(t, Atom):
        return Counter() if t.name in bound else Counter([t.name])
    if isinstance(t, Susp):
        return Counter()
    if isinstance(t, Abs):
        return free_atom_leaves(t.body, bound + (t.atom,))
    out = Counter()
    for u in t.args:
        out += free_atom_leaves(u, bound)
    return out


def formers(t, skip=frozenset()) -> Counter:
    """Multiset of term-former occurrences, leaving out the formers in skip."""
    if isinstance(t, Fn):
        out = Counter() if t.former in skip else Counter([t.former])
        for u in t.args:
            out += formers(u, skip)
        return out
    if isinstance(t, Abs):
        return formers(t.body, skip)
    return Counter()


def build(t, terms):
    """The engine term for t, built from the classes of the `terms` module."""
    if isinstance(t, Atom):
        return terms.AtomTerm(terms.Atom(t.name))
    if isinstance(t, Susp):
        swaps = tuple((terms.Atom(a), terms.Atom(b)) for a, b in t.swaps)
        return terms.Suspension(terms.Permutation(swaps), terms.Unknown(t.name))
    if isinstance(t, Abs):
        return terms.Abstraction(terms.Atom(t.atom), build(t.body, terms))
    return terms.App(t.former, tuple(build(u, terms) for u in t.args))


# -- reading engine terms ----------------------------------------------------


def nameless(t) -> tuple | None:
    """A flat preorder key of a ground engine term: equal keys iff the
    terms are alpha-equivalent.  Bound atoms become de Bruijn indices.
    None when the term has an unknown."""
    out = []
    binders: dict[str, list[int]] = {}
    depth = 0
    stack = [(0, t)]
    while stack:
        mode, node = stack.pop()
        if mode == 1:  # leaving a binder
            binders[node].pop()
            depth -= 1
            continue
        kind = type(node).__name__
        if kind == "AtomTerm":
            levels = binders.get(node.atom.name)
            out.append(("b", depth - levels[-1]) if levels else ("f", node.atom.name))
        elif kind == "Suspension":
            return None
        elif kind == "Abstraction":
            name = node.atom.name
            depth += 1
            binders.setdefault(name, []).append(depth)
            out.append(("l",))
            stack.append((1, name))
            stack.append((0, node.body))
        elif kind == "App":
            out.append(("a", node.former, len(node.args)))
            stack.extend((0, u) for u in reversed(node.args))
        else:
            raise TypeError(f"not a term: {node!r}")
    return tuple(out)


def perm_support(perm) -> set[str]:
    """Atoms moved by an engine permutation, computed from its swap list."""
    mentioned = {a.name for pair in perm.swaps for a in pair}
    moved = set()
    for c in mentioned:
        img = c
        for a, b in reversed(perm.swaps):
            img = _swap_atom(img, a.name, b.name)
        if img != c:
            moved.add(c)
    return moved


def _rebuild(t, leaf, binder, terms):
    """Copy an engine term bottom-up, mapping leaves and binder atoms."""
    stack, built = [(t, False)], []
    while stack:
        node, children_done = stack.pop()
        kind = type(node).__name__
        if kind == "Abstraction":
            if children_done:
                built.append(terms.Abstraction(binder(node.atom), built.pop()))
            else:
                stack += [(node, True), (node.body, False)]
        elif kind == "App":
            if children_done:
                n = len(node.args)
                args = tuple(built[len(built) - n:])
                del built[len(built) - n:]
                built.append(terms.App(node.former, args))
            else:
                stack.append((node, True))
                stack.extend((u, False) for u in reversed(node.args))
        else:
            built.append(leaf(node))
    return built[0]


def permute(t, swaps: list, terms):
    """The permutation action of a swap list (leftmost acts last) on a
    ground engine term."""
    def image(a: str) -> str:
        for x, y in reversed(swaps):
            a = _swap_atom(a, x, y)
        return a

    def leaf(u):
        if type(u).__name__ != "AtomTerm":
            raise ValueError("permute expects a ground term")
        return terms.AtomTerm(terms.Atom(image(u.atom.name)))

    return _rebuild(t, leaf, lambda a: terms.Atom(image(a.name)), terms)


def instantiate(t, sigma: dict, terms):
    """Apply a substitution (unknown name -> ground engine term) to an
    engine term: capturing, with each suspended permutation applied to the
    image."""
    def leaf(u):
        if type(u).__name__ == "Suspension" and u.unknown.name in sigma:
            return permute(sigma[u.unknown.name], [(a.name, b.name) for a, b in u.perm.swaps], terms)
        return u

    return _rebuild(t, leaf, lambda a: a, terms)


# -- lambda-calculus normal forms --------------------------------------------
# Lambda terms: ("v", index) | ("c", name) | ("lam", body) | ("app", f, x).


def to_lambda(t, opaque) -> tuple:
    """Read an engine term over lam/app as a lambda term.  Free atoms become
    constants; `opaque(suspension)` names the constant a suspension stands
    for."""
    def go(u, env):
        kind = type(u).__name__
        if kind == "AtomTerm":
            name = u.atom.name
            for i, b in enumerate(reversed(env)):
                if b == name:
                    return ("v", i)
            return ("c", name)
        if kind == "Suspension":
            return ("c", opaque(u))
        if kind == "App" and u.former == "app" and len(u.args) == 2:
            return ("app", go(u.args[0], env), go(u.args[1], env))
        if kind == "App" and u.former == "lam" and len(u.args) == 1 and type(u.args[0]).__name__ == "Abstraction":
            return ("lam", go(u.args[0].body, env + (u.args[0].atom.name,)))
        raise ValueError(f"not a lambda term: {u!r}")

    return go(t, ())


def _shift(t, d, cutoff=0):
    tag = t[0]
    if tag == "v":
        return ("v", t[1] + d) if t[1] >= cutoff else t
    if tag == "c":
        return t
    if tag == "lam":
        return ("lam", _shift(t[1], d, cutoff + 1))
    return ("app", _shift(t[1], d, cutoff), _shift(t[2], d, cutoff))


def _subst(t, j, s):
    tag = t[0]
    if tag == "v":
        return s if t[1] == j else t
    if tag == "c":
        return t
    if tag == "lam":
        return ("lam", _subst(t[1], j + 1, _shift(s, 1)))
    return ("app", _subst(t[1], j, s), _subst(t[2], j, s))


def _beta_step(t):
    tag = t[0]
    if tag == "app":
        f, x = t[1], t[2]
        if f[0] == "lam":
            return _shift(_subst(f[1], 0, _shift(x, 1)), -1)
        r = _beta_step(f)
        if r is not None:
            return ("app", r, x)
        r = _beta_step(x)
        return None if r is None else ("app", f, r)
    if tag == "lam":
        r = _beta_step(t[1])
        return None if r is None else ("lam", r)
    return None


def _occurs(t, j):
    tag = t[0]
    if tag == "v":
        return t[1] == j
    if tag == "c":
        return False
    if tag == "lam":
        return _occurs(t[1], j + 1)
    return _occurs(t[1], j) or _occurs(t[2], j)


def _eta(t):
    tag = t[0]
    if tag == "lam":
        body = _eta(t[1])
        if body[0] == "app" and body[2] == ("v", 0) and not _occurs(body[1], 0):
            return _shift(body[1], -1)
        return ("lam", body)
    if tag == "app":
        return ("app", _eta(t[1]), _eta(t[2]))
    return t


def beta_eta_normal(t, max_steps=10_000):
    """The beta-eta normal form by leftmost-outermost beta, then eta."""
    for _ in range(max_steps):
        r = _beta_step(t)
        if r is None:
            return _eta(t)
        t = r
    raise ValueError("no beta normal form within the step budget")
