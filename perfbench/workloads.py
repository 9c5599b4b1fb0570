"""The four workloads: seeded inputs, the op each input drives, and the
check of each answer against an oracle that does not use the engine.

A workload is built once the engine is imported and its theories are
loaded.  `inputs(shape, rng)` yields op inputs forever, from the two seeded
generators alone; `run(op)` is the timed call into the engine; `check(op,
out)` runs after it, untimed and untraced, and returns an `Outcome`.
Engine calls go through module attributes at call time, so the tracer's
wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from itertools import count, cycle, product

from oracle import (
    Abs,
    Atom,
    Fn,
    Susp,
    beta_eta_normal,
    build,
    formers,
    free_atom_leaves,
    fresh_for,
    instantiate,
    nameless,
    perm_support,
    permute,
    rename,
    show,
    swap_term,
    to_lambda,
)


@dataclass
class Outcome:
    decided: bool
    error: str | None = None  # set when the answer is wrong
    closed_steps: int = 0
    general_steps: int = 0


def schedule(*axes):
    """Every combination of the axes' values, in a fixed order, repeated
    forever: the mix of input classes a workload cycles through."""
    combos = list(product(*axes))
    random.Random(0).shuffle(combos)
    return cycle(combos)


class Workload:
    """`inputs(shape, rng)` draws everything that decides how much work an
    op is (classes, sizes, term shapes) from `shape`, which is seeded the
    same in every run, and the rest (atom names, which binder a leaf
    points to) from `rng`, seeded by --seed.  Runs with different seeds
    then do the same work on different inputs, so their spread is the
    machine's and not the sample's."""

    name = ""
    theories: tuple[str, ...] = ()
    trace_ops = 0  # ops in each pass of a traced run

    def __init__(self, engine, theories: dict, paths: dict):
        self.e = engine
        self.theories = theories  # file name -> parsed Theory
        self.paths = paths  # file name -> path of the bundled file


# -- fol-equal-cli -----------------------------------------------------------

FOL_ATOMS = ("a", "b", "c", "d")
FOL_UNKNOWNS = ("P", "Q", "R")
FOL_BINARY = ("and", "or", "imp")


class FolEqualCli(Workload):
    """`nomrew equal fol.nrw S T --assume-convergent --json`, in process."""

    name = "fol-equal-cli"
    theories = ("fol.nrw",)
    trace_ops = 24

    def _formula(self, rng, depth, scope):
        if depth <= 1:
            roll = rng.random()
            if roll < 0.35:
                return Susp((), rng.choice(FOL_UNKNOWNS))
            if roll < 0.7 and scope:
                return Atom(rng.choice(scope))
            return Atom(rng.choice(FOL_ATOMS))
        roll = rng.random()
        if roll < 0.35:
            a = rng.choice(FOL_ATOMS)
            body = self._formula(rng, depth - 1, scope + (a,))
            return Fn(rng.choice(("forall", "exists")), (Abs(a, body),))
        if roll < 0.45:
            return Fn("not", (self._formula(rng, depth - 1, scope),))
        left = self._formula(rng, depth - 1, scope)
        right = self._formula(rng, rng.randint(1, max(1, depth - 2)), scope)
        return Fn(rng.choice(FOL_BINARY), (left, right))

    def _rename_binders(self, rng, t, ctx):
        """An alpha-variant: each binder [x]u may become [y](x y).u when
        ctx |- y # u, which makes the two alpha-equivalent."""
        if isinstance(t, Fn):
            return Fn(t.former, tuple(self._rename_binders(rng, u, ctx) for u in t.args))
        if isinstance(t, Abs):
            body = self._rename_binders(rng, t.body, ctx)
            choices = [y for y in FOL_ATOMS if y != t.atom and fresh_for(ctx, y, body)]
            if choices and rng.random() < 0.7:
                y = rng.choice(choices)
                return Abs(y, swap_term(body, t.atom, y))
            return Abs(t.atom, body)
        return t

    def _replace_leaf(self, rng, t):
        """t with one leaf replaced by a free atom other than that leaf, so
        the multiset of free-atom occurrences changes."""
        leaves = []

        def walk(u, path, scope):
            if isinstance(u, Fn):
                for i, v in enumerate(u.args):
                    walk(v, path + (i,), scope)
            elif isinstance(u, Abs):
                walk(u.body, path + ("body",), scope + (u.atom,))
            else:
                leaves.append((path, u, scope))

        walk(t, (), ())
        leaves = [(path, old, [a for a in FOL_ATOMS if a not in scope and old != Atom(a)])
                  for path, old, scope in leaves]
        leaves = [leaf for leaf in leaves if leaf[2]]
        if not leaves:
            return None
        path, _, choices = rng.choice(leaves)
        new = Atom(rng.choice(choices))

        def put(u, rest):
            if not rest:
                return new
            if isinstance(u, Abs):
                return Abs(u.atom, put(u.body, rest[1:]))
            i = rest[0]
            return Fn(u.former, u.args[:i] + (put(u.args[i], rest[1:]),) + u.args[i + 1:])

        return put(t, path)

    def inputs(self, shape, rng):
        for equal, depth in schedule((True, False), (3, 4, 5)):
            ctx = frozenset((a, x) for x in FOL_UNKNOWNS for a in FOL_ATOMS if shape.random() < 0.5)
            t = None
            while t is None:
                s = self._formula(shape, depth, ())
                t = self._rename_binders(shape, s, ctx)
                if not equal:
                    t = self._replace_leaf(shape, t)
            # Renaming every atom by one bijection keeps both oracles' facts.
            names = dict(zip(FOL_ATOMS, rng.sample(FOL_ATOMS, len(FOL_ATOMS))))
            s, t = rename(s, names), rename(t, names)
            ctx = frozenset((names[a], x) for a, x in ctx)
            assert equal or free_atom_leaves(s) != free_atom_leaves(t)
            ctx_text = ",".join(f"{a}#{x}" for a, x in sorted(ctx))
            argv = ["equal", self.paths["fol.nrw"], show(s), show(t),
                    "--ctx", ctx_text, "--assume-convergent", "--json"]
            yield argv, equal

    def run(self, op):
        argv, _ = op
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.e.cli.main(argv)
        return code, buf.getvalue()

    def check(self, op, out):
        argv, equal = op
        code, text = out
        report = json.loads(text)
        steps = len(report["left"]["trace"]) + len(report["right"]["trace"])
        want = "equal" if equal else "not_equal"
        verdict = report["verdict"]
        if verdict != "inconclusive" and verdict != want:
            return Outcome(False, f"{argv[2]} vs {argv[3]} under {argv[5]!r}: {verdict}, expected {want}")
        if code != {"equal": 0, "not_equal": 1}.get(verdict, 3):
            return Outcome(False, f"exit code {code} for verdict {verdict}")
        replayed = replay_report(self.e.cli, text)
        if replayed is not None:
            return Outcome(False, f"report for {argv[2]} vs {argv[3]} does not replay: {replayed}")
        return Outcome(verdict == want, closed_steps=steps)


REPLAY_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out", "replay.json")


def replay_report(cli, text: str) -> str | None:
    """Run `nomrew replay` on a JSON report; None when every step replays."""
    os.makedirs(os.path.dirname(REPLAY_FILE), exist_ok=True)
    with open(REPLAY_FILE, "w", encoding="utf-8") as fh:
        fh.write(text)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(["replay", REPLAY_FILE])
    return None if code == 0 else buf.getvalue().strip()


# -- beta-general ------------------------------------------------------------


def lam(x, body):
    return Fn("lam", (Abs(x, body),))


def app(f, x):
    return Fn("app", (f, x))


# First-order bodies: a body that returns an abstraction would put one in
# function position, and outermost rewriting of app(app(lam([a]lam(..)),
# Y), Z) by these rules grows the term without end.
BETA_BODIES = (
    app(Atom("a"), Atom("a")),  # duplicates the argument
    Atom("a"),                  # beta_var
    app(Atom("a"), Atom("c")),
    Atom("c"),                  # beta_eps
)


class BetaGeneral(Workload):
    """`normalize_general` on betaeta.nrw terms under both strategies, and
    the one-step enumeration `rewrite_step_general` that `nomrew step
    --general` runs."""

    name = "beta-general"
    theories = ("betaeta.nrw",)
    trace_ops = 30

    def _leaf(self, rng):
        x = Susp((), rng.choice(("X", "Y")))
        roll = rng.random()
        if roll < 0.3:
            return Atom("b")
        if roll < 0.45:
            return x
        if roll < 0.65:
            return lam("a", app(x, Atom("a")))                  # eta
        if roll < 0.85:
            return app(lam("a", x), Atom("b"))                  # beta_eps
        return app(lam("a", lam("b", x)), Atom("c"))            # beta_fn

    def _term(self, rng, height):
        t = self._leaf(rng)
        bodies = list(BETA_BODIES)
        for _ in range(height):
            body = rng.choice(bodies)
            if body == BETA_BODIES[0]:
                bodies.remove(body)  # one duplication per tower keeps ops small
            t = app(lam("a", body), t)
        return t

    def inputs(self, shape, rng):
        # Innermost normalization and step enumeration cost several times
        # what outermost does on the same term, so they get single redexes.
        classes = [("outermost", 1), ("outermost", 2), ("outermost", 3), ("innermost", 1), ("step", 1)]
        for [(kind, height)] in schedule(classes):
            t = rename(self._term(shape, height), dict(zip("abc", rng.sample("abc", 3))))
            unknowns = {u.name for u in _leaves(t) if isinstance(u, Susp)}
            # Every atom is fresh for every unknown, so an unknown behaves
            # as a closed constant and the lambda-calculus oracle applies.
            ctx = frozenset((a, x) for a in ("a", "b", "c") for x in unknowns)
            yield kind, ctx, t

    def _engine_args(self, op):
        _, ctx, t = op
        terms = self.e.terms
        ectx = self.e.nomrew.FreshnessContext(
            frozenset((terms.Atom(a), terms.Unknown(x)) for a, x in ctx))
        return ectx, build(t, terms)

    def run(self, op):
        kind = op[0]
        ctx, term = self._engine_args(op)
        nomrew = self.e.nomrew
        theory = self.theories["betaeta.nrw"]
        if kind == "step":
            steps = []
            for rule in theory.rules:
                steps.extend(nomrew.rewrite_step_general(ctx, term, rule))
            return steps
        return nomrew.normalize_general(ctx, term, theory, strategy=kind)

    def _key(self, term, ctx):
        def opaque(s):
            name = s.unknown.name
            if perm_support(s.perm) <= {a for a, x in ctx if x == name}:
                return "?" + name
            return f"!{s!r}"  # a suspension the context does not absorb

        return beta_eta_normal(to_lambda(term, opaque))

    def check(self, op, out):
        kind, ctx, t = op
        ectx, source = self._engine_args(op)
        want = self._key(source, ctx)
        if kind == "step":
            rules = {r.name: r for r in self.theories["betaeta.nrw"].rules}
            source_key = to_lambda(source, lambda s: "?" + s.unknown.name)
            is_normal = beta_eta_normal(source_key) == source_key
            if is_normal != (not out):
                return Outcome(False, f"{show(t)}: {len(out)} steps, but oracle normal={is_normal}")
            for step in out:
                if self._key(step.result, ctx) != want:
                    return Outcome(False, f"{show(t)}: step {step.rule} leaves the beta-eta class")
                if not self.e.rewrite.replay_step(ectx, step, rules[step.rule]):
                    return Outcome(False, f"{show(t)}: step {step.rule} does not replay")
            return Outcome(True, general_steps=len(out))
        if out.status != "normal_form":
            return Outcome(False, general_steps=len(out.trace))
        if self._key(out.term, ctx) != want:
            return Outcome(False, f"{show(t)} ({kind}): wrong normal form")
        got = to_lambda(out.term, lambda s: "?" + s.unknown.name)
        if beta_eta_normal(got) != got:
            return Outcome(False, f"{show(t)} ({kind}): result is not normal")
        return Outcome(True, general_steps=len(out.trace))


def _leaves(t):
    if isinstance(t, Fn):
        for u in t.args:
            yield from _leaves(u)
    elif isinstance(t, Abs):
        yield from _leaves(t.body)
    else:
        yield t


# -- nonclosed-search --------------------------------------------------------


class NonclosedSearch(Workload):
    """`symmetric_search` on nonclosed.nrw and remark43.nrw."""

    name = "nonclosed-search"
    theories = ("nonclosed.nrw", "remark43.nrw")
    trace_ops = 30

    def _small(self, rng, size, atoms, formers_, unknowns):
        if size <= 1:
            if unknowns and rng.random() < 0.3:
                return Susp((), rng.choice(unknowns))
            return Atom(rng.choice(atoms))
        roll = rng.random()
        if roll < 0.4:
            return Abs(rng.choice(atoms), self._small(rng, size - 1, atoms, formers_, unknowns))
        former, arity = rng.choice(formers_)
        if arity == 1:
            return Fn(former, (self._small(rng, size - 1, atoms, formers_, unknowns),))
        k = rng.randint(1, size - 2) if size > 2 else 1
        return Fn(former, (self._small(rng, k, atoms, formers_, unknowns),
                           self._small(rng, max(1, size - 1 - k), atoms, formers_, unknowns)))

    def _positions(self, t, path=()):
        yield path, t
        if isinstance(t, Abs):
            yield from self._positions(t.body, path + ("body",))
        elif isinstance(t, Fn):
            for i, u in enumerate(t.args):
                yield from self._positions(u, path + (i,))

    def _put(self, t, path, new):
        if not path:
            return new
        if isinstance(t, Abs):
            return Abs(t.atom, self._put(t.body, path[1:], new))
        i = path[0]
        return Fn(t.former, t.args[:i] + (self._put(t.args[i], path[1:], new),) + t.args[i + 1:])

    def _atoms(self, t):
        return {u.name for u in _leaves(t) if isinstance(u, Atom)} | {
            u.atom for _, u in self._positions(t) if isinstance(u, Abs)}

    def _one_step(self, rng, theory, s):
        """A term one rule step (or reversed step) away from s."""
        spots = list(self._positions(s))
        if theory == "nonclosed.nrw":
            pool = sorted(self._atoms(s) | {"a", "b"})
            moves = []
            moves += [("atom", p, u) for p, u in spots if isinstance(u, Atom)]
            moves += [("strip", p, u) for p, u in spots if isinstance(u, Abs)]
            moves += [("wrap", p, u) for p, u in spots]
            kind, path, u = rng.choice(moves)
            if kind == "atom":
                return self._put(s, path, Atom(rng.choice([a for a in pool if a != u.name])))
            if kind == "strip":
                return self._put(s, path, u.body)
            return self._put(s, path, Abs(rng.choice(sorted(self._atoms(s) | {"a"})), u))
        moves = [("expand", p, u) for p, u in spots]
        moves += [("shrink", p, u) for p, u in spots if isinstance(u, Fn) and u.former == "f"]
        kind, path, u = rng.choice(moves)
        return self._put(s, path, Fn("f", (u,)) if kind == "expand" else u.args[0])

    def inputs(self, shape, rng):
        classes = schedule(("nonclosed.nrw", "remark43.nrw"), (True, True, True, False), (2, 3, 4), (5, 10, 15, 20))
        for theory, derivable, size, fuel in classes:
            if theory == "nonclosed.nrw" and not derivable:
                # These searches use up their fuel, and on this theory the
                # reversed strip rule wraps every term in binders: the cost
                # climbs steeply with fuel (to seconds at 20).
                fuel = 5
            if theory == "nonclosed.nrw":
                s = self._small(shape, size, ("a", "b", "c"), (("g", 1), ("h", 2)), ())
            else:
                s = self._small(shape, size, ("a", "c"), (("f", 1), ("g", 1)), ("X",))
            t = self._one_step(shape, theory, s)
            if not derivable:
                path, u = shape.choice(list(self._positions(t)))
                t = self._put(t, path, Fn("g", (u,)))
                assert formers(s, {"f"}) != formers(t, {"f"})
            # a and b are the rules' own atoms; c is renamed freely.
            names = {"c": rng.choice(("c", "d", "e"))}
            yield theory, rename(s, names), rename(t, names), fuel, derivable

    def run(self, op):
        theory, s, t, fuel, _ = op
        nomrew, terms = self.e.nomrew, self.e.terms
        return nomrew.symmetric_search(
            nomrew.EMPTY_CTX, build(s, terms), build(t, terms), self.theories[theory], fuel=fuel)

    def check(self, op, out):
        theory, s, t, fuel, derivable = op
        where = f"{theory}: {show(s)} <-> {show(t)} (fuel {fuel})"
        if not out.found:
            return Outcome(False)
        if not derivable:
            return Outcome(False, f"{where}: found, but the pair is underivable")
        rules = {r.name: r for r in self.theories[theory].rules}
        RewriteRule = self.e.rewrite.RewriteRule
        current = build(s, self.e.terms)
        for step in out.trace:
            if step.rule.endswith("~"):
                rule = rules[step.rule[:-1]]
                rule = RewriteRule(step.rule, rule.ctx, rule.rhs, rule.lhs)
            else:
                rule = rules[step.rule]
            if not self.e.rewrite.replay_step(out.ctx, step, rule):
                return Outcome(False, f"{where}: step {step.rule} does not replay")
            if not self._same(out.ctx, step.source, current):
                return Outcome(False, f"{where}: trace is not connected")
            current = step.result
        if not self._same(out.ctx, current, build(t, self.e.terms)):
            return Outcome(False, f"{where}: trace does not end at the target")
        return Outcome(True, general_steps=len(out.trace))

    def _same(self, ctx, u, v):
        ku, kv = nameless(u), nameless(v)
        if ku is not None and kv is not None:
            return ku == kv
        return self.e.alpha.alpha_holds(ctx, u, v)


# -- alpha-match-deep --------------------------------------------------------

DEEP = 1000  # past Python's default recursion limit: these inputs fail today
SIDE = {True: (50, 500), False: (10, 60)}  # Y's image: wide beside a deep X, deep beside a wide one


class AlphaMatchDeep(Workload):
    """`alpha_holds` on renamed-binder chains and `solve_match` on wide and
    deep targets; every twentieth op is one of three fixed inputs about
    10^3 deep."""

    name = "alpha-match-deep"
    trace_ops = 30

    def _chain(self, n, stem, bottom):
        terms = self.e.terms
        t = bottom
        for i in reversed(range(n)):
            t = terms.Abstraction(terms.Atom(f"{stem}{i}"), t)
        return t

    def _chain_pair(self, n, k, m, equal):
        terms = self.e.terms
        leaf = lambda stem, i: terms.AtomTerm(terms.Atom(f"{stem}{i}"))
        free = terms.AtomTerm(terms.Atom("c"))
        s = self._chain(n, "s", terms.App("g", (leaf("s", k), leaf("s", m), free)))
        k2 = k if equal else (k + 1) % n
        t = self._chain(n, "t", terms.App("g", (leaf("t", k2), leaf("t", m), free)))
        return s, t

    def _image(self, rng, size, deep):
        terms = self.e.terms
        atoms = [terms.AtomTerm(terms.Atom(x)) for x in ("a", "b", "c", "d")]
        if not deep:
            return terms.App("w", tuple(rng.choice(atoms) for _ in range(size)))
        t = rng.choice(atoms)
        for i in range(size):
            t = terms.Abstraction(terms.Atom(f"d{i}"), terms.App("k", (t, rng.choice(atoms))))
        return t

    def _match_problem(self, rng, size, deep, matches, side):
        """Pattern [a]g(X, [b]h(Y, a), X) and an alpha-variant of an
        instance of it (or of a near-instance with one former changed)."""
        terms = self.e.terms
        A = lambda x: terms.Atom(x)
        X, Y = (terms.Suspension(terms.Permutation(), terms.Unknown(u)) for u in ("X", "Y"))
        pattern = terms.Abstraction(A("a"), terms.App("g", (
            X, terms.Abstraction(A("b"), terms.App("h", (Y, terms.AtomTerm(A("a"))))), X)))
        ix = self._image(rng, size, deep)
        iy = self._image(rng, side, not deep)
        inner = "h" if matches else "j"
        # The instance, with binder a renamed to e and b to f.  X's image
        # sits under [a], so it is renamed along (a e) and, under [b], Y's
        # image along (a e)(b f) -- both images use neither e nor f.
        target = terms.Abstraction(A("e"), terms.App("g", (
            permute(ix, [("a", "e")], terms),
            terms.Abstraction(A("f"), terms.App(inner, (
                permute(iy, [("a", "e"), ("b", "f")], terms), terms.AtomTerm(A("e"))))),
            permute(ix, [("a", "e")], terms))))
        return pattern, target

    def inputs(self, shape, rng):
        deep_ops = [
            ("alpha",) + self._chain_pair(DEEP, 7, 900, True),
            ("alpha",) + self._chain_pair(DEEP, 7, 900, False),
            ("match",) + self._match_problem(random.Random(DEEP), DEEP, True, True, 100),
        ]
        chains = schedule(range(20, 221, 40), (True, False))
        matches = schedule(((True, 20), (True, 60), (True, 100), (True, 150),
                            (False, 100), (False, 400), (False, 800), (False, 1500)),
                           (True, True, True, True, False))
        for i in count():
            if i % 20 == 19:
                yield deep_ops[(i // 20) % len(deep_ops)]
            elif i % 2 == 0:
                n, equal = next(chains)
                n += shape.randint(0, 19)
                yield ("alpha",) + self._chain_pair(n, rng.randrange(n), rng.randrange(n), equal)
            else:
                (deep, size), instance = next(matches)
                size += shape.randint(0, size // 4)
                yield ("match",) + self._match_problem(rng, size, deep, instance, shape.randint(*SIDE[deep]))

    def run(self, op):
        nomrew = self.e.nomrew
        kind, s, t = op
        if kind == "alpha":
            return nomrew.alpha_holds(nomrew.EMPTY_CTX, s, t)
        return nomrew.solve_match(nomrew.MatchProblem(nomrew.EMPTY_CTX, s, nomrew.EMPTY_CTX, t))

    def check(self, op, out):
        kind, s, t = op
        if kind == "alpha":
            want = nameless(s) == nameless(t)
            if out != want:
                return Outcome(False, f"alpha_holds gave {out} on chains of {_binders(s)} binders, expected {want}")
            return Outcome(True)
        sigma = None if out is None else {x.name: u for x, u in out.sigma.items()}
        matches = t.body.args[1].body.former == "h"
        if sigma is None:
            if matches:
                return Outcome(False, "solve_match found no solution for an instance")
            return Outcome(True)
        if not matches:
            return Outcome(False, "solve_match solved a non-instance")
        if nameless(instantiate(s, sigma, self.e.terms)) != nameless(t):
            return Outcome(False, "solve_match returned a substitution that does not solve the problem")
        return Outcome(True)


def _binders(t):
    n = 0
    while type(t).__name__ == "Abstraction":
        n, t = n + 1, t.body
    return n


WORKLOADS = {w.name: w for w in (FolEqualCli, BetaGeneral, NonclosedSearch, AlphaMatchDeep)}
