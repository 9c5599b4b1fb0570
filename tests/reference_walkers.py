"""Reference definitions that the library replaced with faster ones.

Most functions here are the plain syntax-directed recursion that the
library's walker replaced with an explicit stack (`terms._fold` or a
worklist).  The property tests in test_walkers.py check that the two agree
on small terms; these references raise RecursionError on terms about a
thousand deep, which is why the library does not use them.
`scrub_innermost_first` is the scrub rule the library ran before its
one-pass rule, kept to show where the two agree.  `check_alpha`
is the rule-by-rule alpha check that test_alpha.py and test_rewrite.py
compare `alpha_holds` and the library's `check_alpha` against.  At the end are
the swap-list reading of a permutation and the matcher that copies the
pattern body under each mismatched binder, which test_terms.py and
test_matching.py compare `Permutation` and `solve_match` against.  Last
is the character-by-character tokenizer and recursive-descent term reader
that test_syntax.py compares the library's regex scanner and explicit-stack
reader against.
"""

from __future__ import annotations

from nomrew import (
    Abstraction,
    App,
    Atom,
    AtomTerm,
    Derivation,
    MatchSolution,
    Permutation,
    Substitution,
    Suspension,
    Unknown,
    alpha_holds,
    atoms_of,
    swap,
    var,
)
from nomrew.rewrite import _complete_perm
from nomrew.syntax import PUNCT, ParseError, Token, _is_unknown_name, _Parser
from nomrew.terms import ID, MACHINE_MARK, fresh_names


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


def check_alpha(ctx, s, t):
    """The rules ~a, ~[a], ~[b], ~X, ~f applied by syntax-directed recursion,
    each failing where its side condition does; the library reads the same
    derivation off alpha_holds instead."""
    conclusion = ("alpha", ctx, s, t)
    match (s, t):
        case (AtomTerm(a), AtomTerm(b)):
            return Derivation("~a", conclusion) if a == b else None
        case (Suspension(p1, x1), Suspension(p2, x2)):
            # the disagreement set of p1 and p2 is supp(p1^-1 o p2)
            if x1 == x2 and all((a, x1) in ctx for a in (p1.inverse() * p2).support):
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


def pretty_perm(pi):
    return "".join(f"({a.name} {b.name})" for a, b in pi.swaps)


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


def scrub(ctx, t, pool, pi=ID):
    """The library's one-pass scrub of pi.t, stated recursively: each
    binder is named before its body is scrubbed, and the renaming is
    carried down as a pending permutation."""
    match t:
        case AtomTerm(a):
            return AtomTerm(pi(a))
        case Suspension(sigma, x):
            return Suspension(_complete_perm({c: v for c, v in (pi * sigma).mapping.items() if (c, x) not in ctx}), x)
        case Abstraction(c, body):
            a = pi(c)
            if a.is_machine or c.is_machine:
                for z in pool:
                    if z == a and not a.is_machine:
                        break
                    if z != a and fresh_holds(ctx, pi.inverse()(z), body):
                        return Abstraction(z, scrub(ctx, body, pool, swap(z, a) * pi))
            return Abstraction(a, scrub(ctx, body, pool, pi))
        case App(f, args):
            return App(f, tuple(scrub(ctx, u, pool, pi) for u in args))


def scrub_innermost_first(ctx, t, pool):
    """The scrub the library ran before the one-pass rule: the body first,
    then the binder, and the renamed body scrubbed again.  It is
    exponential in nested machine binders.  The one-pass rule names
    binders as this one does when the pool holds no machine atom and
    every machine binder can be renamed into it; otherwise the two may
    pick different binders to rename."""
    match t:
        case AtomTerm():
            return t
        case Suspension(pi, x):
            return Suspension(_complete_perm({c: v for c, v in pi.mapping.items() if (c, x) not in ctx}), x)
        case Abstraction(a, body):
            body = scrub_innermost_first(ctx, body, pool)
            if a.is_machine:
                for z in pool:
                    if z != a and fresh_holds(ctx, z, body):
                        return Abstraction(z, scrub_innermost_first(ctx, act(swap(z, a), body), pool))
            return Abstraction(a, body)
        case App(f, args):
            return App(f, tuple(scrub_innermost_first(ctx, u, pool) for u in args))


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


# -- permutations as swap lists ------------------------------------------------


def swap_list_mapping(swaps):
    """The nontrivial mapping of the swap list [s1, ..., sn] read as
    s1 o ... o sn: each atom it mentions pushed through the swaps, the
    rightmost first."""
    out = {}
    for c in {c for pair in swaps for c in pair}:
        img = c
        for a, b in reversed(swaps):
            if img == a:
                img = b
            elif img == b:
                img = a
        if img != c:
            out[c] = img
    return out


def cycle_swaps(mapping):
    """The canonical swap list of a nontrivial mapping: each cycle, in the
    order of its least atom and starting there, as (c0 c1)(c1 c2)..."""
    swaps = []
    seen = set()
    for start in sorted(mapping):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        nxt = mapping[start]
        while nxt != start:
            cycle.append(nxt)
            seen.add(nxt)
            nxt = mapping[nxt]
        for i in range(len(cycle) - 1):
            swaps.append((cycle[i], cycle[i + 1]))
    return tuple(swaps)


# -- matching with an eager copy under each mismatched binder -----------------


def solve_match(problem):
    """Nominal matching that applies the swap (b a) to a copy of the
    pattern body at each mismatched binder [a]l against [b]s."""
    delta = problem.target_ctx
    binds = {}
    pending = []
    work = [(problem.pattern, problem.target)]
    while work:
        l, s = work.pop()
        match (l, s):
            case (AtomTerm(a), AtomTerm(b)):
                if a != b:
                    return None
            case (Suspension(pi, x), _):
                image = act(pi.inverse(), s)
                if x in binds:
                    if not alpha_holds(delta, binds[x], image):
                        return None
                else:
                    binds[x] = image
            case (Abstraction(a, lbody), Abstraction(b, sbody)):
                if a == b:
                    work.append((lbody, sbody))
                else:
                    pending.append((b, lbody))
                    work.append((act(swap(b, a), lbody), sbody))
            case (App(f, largs), App(g, sargs)):
                if f != g or len(largs) != len(sargs):
                    return None
                work.extend(zip(largs, sargs))
            case _:
                return None
    leftover = {x for _, x in problem.pattern_ctx if x not in binds}
    if leftover:
        used = {a.name for a in atoms_of(problem.pattern_ctx, problem.pattern, problem.target_ctx, problem.target)}
        spare = AtomTerm(Atom(fresh_names("m", 1, used)[0]))
        for x in leftover:
            binds[x] = spare
    sigma = Substitution(binds)
    for b, p in pending:
        if not fresh_holds(delta, b, substitute(p, sigma)):
            return None
    for a, x in problem.pattern_ctx:
        if not fresh_holds(delta, a, sigma.image(x)):
            return None
    return MatchSolution(sigma)


def tokenize(text, allow_machine=False):
    toks = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("|-", i):
            toks.append(Token("TURNSTILE", "|-", line, col))
            i += 2
            col += 2
            continue
        if text.startswith("->", i):
            toks.append(Token("ARROW", "->", line, col))
            i += 2
            col += 2
            continue
        if ch in PUNCT:
            toks.append(Token(PUNCT[ch], ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("NAT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'" or text[j] == MACHINE_MARK):
                j += 1
            word = text[i:j]
            if MACHINE_MARK in word and not allow_machine:
                raise ParseError(f"'{MACHINE_MARK}' is reserved for machine-generated names", line, col)
            toks.append(Token("IDENT", word, line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("EOF", "", line, col))
    return toks


class Parser(_Parser):
    """The library's reader with the tokenizer above and terms read by
    recursive descent; statements and contexts are the library's own."""

    def __init__(self, text, signature=None, allow_machine=False):
        self.toks = tokenize(text, allow_machine)
        self.pos = 0
        self.signature = signature
        self.inferred = {}

    def term(self):
        tok = self.peek()
        if tok.kind == "LBRACK":
            self.next()
            atom = self.atom_name()
            self.expect("RBRACK", "']'")
            return Abstraction(atom, self.term())
        if tok.kind == "LPAREN":
            return self.suspension()
        if tok.kind == "IDENT":
            if _is_unknown_name(tok.text):
                self.next()
                return var(Unknown(tok.text))
            return self.atom_or_app()
        self.fail(f"expected a term, found {tok.text or 'end of input'!r}", tok)

    def atom_or_app(self):
        tok = self.next()
        name = tok.text
        if self.peek().kind == "LPAREN":
            self.next()
            args = [self.term()]
            while self.peek().kind == "COMMA":
                self.next()
                args.append(self.term())
            self.expect("RPAREN", "')'")
            self.check_former(name, len(args), tok)
            return App(name, tuple(args))
        if self.signature is not None and name in self.signature:
            self.check_former(name, 0, tok)
            return App(name, ())
        if self.signature is None and name in self.inferred:
            self.check_former(name, 0, tok)
            return App(name, ())
        return AtomTerm(Atom(name))
