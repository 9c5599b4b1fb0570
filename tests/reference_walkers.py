"""Recursive reference definitions of the term walkers.

Each function is the plain syntax-directed recursion that the library's
walker replaced with an explicit stack (`terms._fold` or a worklist).  The
property tests in test_walkers.py check that the two agree on small terms;
these references raise RecursionError on terms about a thousand deep, which
is why the library does not use them.
"""

from __future__ import annotations

from nomrew import Abstraction, App, AtomTerm, Derivation, Permutation, Suspension, swap
from nomrew.rewrite import _complete_perm


def act(pi, t):
    if pi.is_identity:
        return t
    match t:
        case AtomTerm(a):
            return AtomTerm(pi(a))
        case Suspension(inner, x):
            return Suspension(pi * inner, x)
        case Abstraction(a, body):
            return Abstraction(pi(a), act(pi, body))
        case App(f, args):
            return App(f, tuple(act(pi, u) for u in args))


def substitute(t, sigma):
    match t:
        case AtomTerm():
            return t
        case Suspension(pi, x):
            return act(pi, sigma[x]) if x in sigma else t
        case Abstraction(a, body):
            return Abstraction(a, substitute(body, sigma))
        case App(f, args):
            return App(f, tuple(substitute(u, sigma) for u in args))


def rename_term(t, amap, umap):
    match t:
        case AtomTerm(a):
            return AtomTerm(amap.get(a, a))
        case Suspension(pi, x):
            swaps = tuple((amap.get(a, a), amap.get(b, b)) for a, b in pi.swaps)
            return Suspension(Permutation(swaps), umap.get(x, x))
        case Abstraction(a, body):
            return Abstraction(amap.get(a, a), rename_term(body, amap, umap))
        case App(f, args):
            return App(f, tuple(rename_term(u, amap, umap) for u in args))


def subterms(t):
    yield t
    match t:
        case Abstraction(_, body):
            yield from subterms(body)
        case App(_, args):
            for u in args:
                yield from subterms(u)


def term_depth(t):
    match t:
        case Abstraction(_, body):
            return 1 + term_depth(body)
        case App(_, args):
            return 1 + max((term_depth(u) for u in args), default=0)
        case _:
            return 1


def fresh_holds(ctx, a, t):
    match t:
        case AtomTerm(b):
            return a != b
        case Suspension(pi, x):
            return (pi.inverse()(a), x) in ctx
        case Abstraction(b, body):
            return a == b or fresh_holds(ctx, a, body)
        case App(_, args):
            return all(fresh_holds(ctx, a, u) for u in args)


def check_fresh(ctx, a, t):
    conclusion = ("fresh", ctx, a, t)
    match t:
        case AtomTerm(b):
            return Derivation("#ab", conclusion) if a != b else None
        case Suspension(pi, x):
            return Derivation("#X", conclusion) if (pi.inverse()(a), x) in ctx else None
        case Abstraction(b, body):
            if a == b:
                return Derivation("#[a]", conclusion)
            sub = check_fresh(ctx, a, body)
            return Derivation("#[b]", conclusion, (sub,)) if sub else None
        case App(_, args):
            subs = []
            for u in args:
                sub = check_fresh(ctx, a, u)
                if sub is None:
                    return None
                subs.append(sub)
            return Derivation("#f", conclusion, tuple(subs))


def pretty_perm(pi):
    return "".join(f"({a.name} {b.name})" for a, b in pi.normalized().swaps)


def pretty(t):
    match t:
        case AtomTerm(a):
            return a.name
        case Suspension(pi, x):
            return x.name if pi.is_identity else f"{pretty_perm(pi)}.{x.name}"
        case Abstraction(a, body):
            return f"[{a.name}]{pretty(body)}"
        case App(f, args):
            return f if not args else f"{f}({', '.join(pretty(u) for u in args)})"


def scrub(ctx, t, pool):
    match t:
        case AtomTerm():
            return t
        case Suspension(pi, x):
            return Suspension(_complete_perm({c: v for c, v in pi.mapping.items() if (c, x) not in ctx}), x)
        case Abstraction(a, body):
            body = scrub(ctx, body, pool)
            if a.is_machine:
                for z in pool:
                    if z != a and fresh_holds(ctx, z, body):
                        return Abstraction(z, scrub(ctx, act(swap(z, a), body), pool))
            return Abstraction(a, body)
        case App(f, args):
            return App(f, tuple(scrub(ctx, u, pool) for u in args))


def positions(t, innermost=False):
    out = []

    def pre(u, here):
        out.append((here, u))
        match u:
            case Abstraction(_, body):
                pre(body, here + ("body",))
            case App(_, args):
                for i, arg in enumerate(args):
                    pre(arg, here + (i,))

    def post(u, here):
        match u:
            case Abstraction(_, body):
                post(body, here + ("body",))
            case App(_, args):
                for i, arg in enumerate(args):
                    post(arg, here + (i,))
        out.append((here, u))

    (post if innermost else pre)(t, ())
    return out


def subterm_at(t, path):
    for step in path:
        match (t, step):
            case (Abstraction(_, body), "body"):
                t = body
            case (App(_, args), int()) if 0 <= step < len(args):
                t = args[step]
            case _:
                raise IndexError(step)
    return t


def replace_at(t, path, new):
    if not path:
        return new
    step, rest = path[0], path[1:]
    if step == "body":
        return Abstraction(t.atom, replace_at(t.body, rest, new))
    return App(t.former, t.args[:step] + (replace_at(t.args[step], rest, new),) + t.args[step + 1 :])
