#!/usr/bin/env python3
"""Time solve_match on chains of nested mismatched binders of growing length.

The pattern is [a0]f([a1]f(...[a(n-1)]f(X, a(n-1))..., a1), a0) and the
target the same chain over the binders b0...b(n-1), ending in the atom c
where the pattern has X: every binder mismatches, and X is bound to c.  The
second column matches the pattern against a non-instance, the target with
its innermost leaf the free atom d, which the walk meets only at the bottom
of the chain.  A linear matcher takes ten times as long for ten times as
many binders.  The last column wraps the instance pair under two different
formers, l(pattern) against r(target), so the pair differs at its first
node: a matcher that stops at the first difference takes the same time at
every length.

    python3 scripts/match_scaling.py            # 10^2, 10^3, 10^4 binders
    python3 scripts/match_scaling.py 50 500     # other sizes
"""

import sys
import time

from nomrew import EMPTY_CTX, Abstraction, App, Atom, AtomTerm, MatchProblem, Unknown, solve_match, var


def chain(n: int, stem: str, bottom, last: str = ""):
    """[stem0]f(...[stem(n-1)]f(bottom, stem(n-1))..., stem0), built without
    recursion; the innermost leaf is the atom `last` instead, if given."""
    t = bottom
    for i in reversed(range(n)):
        leaf = Atom(last if last and i == n - 1 else f"{stem}{i}")
        t = Abstraction(Atom(f"{stem}{i}"), App("f", (t, AtomTerm(leaf))))
    return t


def main(sizes):
    x, c = Unknown("X"), AtomTerm(Atom("c"))
    print(f"{'binders':>8} {'instance (s)':>13} {'non-instance (s)':>17} {'root differs (s)':>17}")
    for n in sizes:
        pattern, target = chain(n, "a", var(x)), chain(n, "b", c)
        problems = (
            (pattern, target, True),
            (pattern, chain(n, "b", c, "d"), False),
            (App("l", (pattern,)), App("r", (target,)), False),
        )
        timings = []
        for left, right, want in problems:
            problem = MatchProblem(EMPTY_CTX, left, EMPTY_CTX, right)
            t0 = time.perf_counter()
            sol = solve_match(problem)
            timings.append(time.perf_counter() - t0)
            assert (sol is not None) == want, (n, want, sol)
            assert sol is None or sol.sigma[x] == c
        print(f"{n:>8} {timings[0]:>13.4f} {timings[1]:>17.4f} {timings[2]:>17.6f}")


if __name__ == "__main__":
    main([int(arg) for arg in sys.argv[1:]] or [10**2, 10**3, 10**4])
