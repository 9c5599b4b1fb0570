#!/usr/bin/env python3
"""Count the work general searches spend on alpha-variants of their
subjects.  A rule that is not closed fires on variants renaming the binders
above a hole, each binder to at most its first m + j fresh targets (m the
rule's atoms, j the binders below it on the path); the script runs the same
searches with that cap and, in the same process, with it patched off so
every fresh target is tried, and asserts that both find the same pairs with
the same traces (compared by repr).

Each suite is a list of `symmetric_search` calls, searching from s to t:
the first ops of perfbench's nonclosed-search workload at seed 1 (its own
inputs, on nonclosed.nrw and remark43.nrw); and on nonclosed.nrw, s a stack
of 1 to 4 seeded binders over h(a, g(c)) and t one step from it by a rule
as written.  Per 100
searches it prints the candidate steps `_candidates` yields, those fired on
a renamed variant, the variants `_decompositions` yields, the `solve_match`
calls and the classes the searches reached.

    python scripts/variant_counts.py [SEARCHES]   # per suite, default 100
"""

import itertools
import random
import sys
from importlib import resources
from pathlib import Path

import nomrew.rewrite as rewrite
import nomrew.terms as terms
from nomrew import EMPTY_CTX, Abstraction, App, Atom, AtomTerm, rewrite_step_general
from nomrew.syntax import parse_theory

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from oracle import build  # noqa: E402
from run import op_stream  # noqa: E402
from workloads import NonclosedSearch  # noqa: E402

ATOMS = [Atom(n) for n in "abcd"]


def theory(name):
    return parse_theory((resources.files("nomrew") / "theories" / name).read_text())


def step_away(rng, th, s):
    """A term one step from s by a rule of th, or None.  Only the rules as
    written are drawn from, so which reversals a search keeps does not
    change the suites' inputs."""
    steps = [st for rule in th.rules for st in rewrite_step_general(EMPTY_CTX, s, rule)]
    return rng.choice(steps).result if steps else None


def suites(count):
    theories = {name: theory(name) for name in NonclosedSearch.theories}
    ops = itertools.islice(op_stream(NonclosedSearch(None, theories, {}), 1), count)
    yield "nonclosed-search", [(theories[th], build(s, terms), build(t, terms), fuel) for th, s, t, fuel, _ in ops]
    rng, nonclosed = random.Random(1), theories["nonclosed.nrw"]
    for depth in range(1, 5):
        searches = []
        while len(searches) < count:
            s = App("h", (AtomTerm(ATOMS[0]), App("g", (AtomTerm(ATOMS[2]),))))
            for _ in range(depth):
                s = Abstraction(rng.choice(ATOMS), s)
            searches.append((nonclosed, s, step_away(rng, nonclosed, s), 5))
        yield f"stack-{depth}", searches


def run(searches, cap):
    """Run the searches with the cap on or off; the counts and each
    search's (found, trace) repr."""
    counts = dict.fromkeys(("candidates", "renamed", "variants", "solve_match", "classes"), 0)
    real = {name: getattr(rewrite, name) for name in ("_candidates", "_decompositions", "solve_match", "_breadth_first")}

    def candidates(*args):
        for candidate in real["_candidates"](*args):
            counts["candidates"] += 1
            counts["renamed"] += candidate[4]
            yield candidate

    def decompositions(ctx, t, path, universe, width=None):
        for variant in real["_decompositions"](ctx, t, path, universe, width if cap else None):
            counts["variants"] += 1
            yield variant

    def solve_match(problem):
        counts["solve_match"] += 1
        return real["solve_match"](problem)

    def breadth_first(*args, **kwargs):
        try:
            return real["_breadth_first"](*args, **kwargs)
        finally:
            counts["classes"] += len(args[4])

    patched = {"_candidates": candidates, "_decompositions": decompositions, "solve_match": solve_match,
               "_breadth_first": breadth_first}
    for name, fn in patched.items():
        setattr(rewrite, name, fn)
    try:
        answers = []
        for th, s, t, fuel in searches:
            res = rewrite.symmetric_search(EMPTY_CTX, s, t, th, fuel=fuel)
            answers.append(repr((res.found, res.trace)))
    finally:
        for name, fn in real.items():
            setattr(rewrite, name, fn)
    return counts, answers


def main(count):
    columns = ("candidates", "renamed", "variants", "solve_match", "classes")
    print(f"{'suite':<16} {'side':<7} {'found':>5} " + " ".join(f"{c:>11}" for c in columns))
    for name, searches in suites(count):
        capped, answers = run(searches, cap=True)
        every, every_answers = run(searches, cap=False)
        assert answers == every_answers, f"{name}: the cap changed a search's answer or trace"
        found = sum(a.startswith("(True") for a in answers)
        for side, counts in (("capped", capped), ("every", every)):
            per_100 = (round(100 * counts[c] / len(searches)) for c in columns)
            print(f"{name:<16} {side:<7} {found:>5} " + " ".join(f"{n:>11}" for n in per_100))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 100)
