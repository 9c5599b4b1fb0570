#!/usr/bin/env python3
"""Time alpha_holds on pairs of renamed-binder chains of growing length.

Each pair is [s0]...[s(n-1)]g(s k, s m, c) against the same chain with
every binder renamed to t0...t(n-1): once with the same leaves (equal) and
once with the first leaf moved to the next binder (not equal).  A linear
check takes ten times as long for ten times as many binders.  The last
column wraps the equal pair under two different formers, l(s) against
r(t), so the pair differs at its first node: a check that stops at the
first difference takes the same time at every length.

    python3 scripts/alpha_scaling.py            # 10^2, 10^3, 10^4, 10^5 binders
    python3 scripts/alpha_scaling.py 50 500     # other sizes
"""

import sys
import time

from nomrew import EMPTY_CTX, Abstraction, App, Atom, AtomTerm, alpha_holds


def chain(n: int, stem: str, k: int, m: int):
    """[stem0]...[stem(n-1)] g(stem k, stem m, c), built without recursion."""
    t = App("g", (AtomTerm(Atom(f"{stem}{k}")), AtomTerm(Atom(f"{stem}{m}")), AtomTerm(Atom("c"))))
    for i in reversed(range(n)):
        t = Abstraction(Atom(f"{stem}{i}"), t)
    return t


def main(sizes):
    print(f"{'binders':>8} {'equal (s)':>10} {'unequal (s)':>12} {'root differs (s)':>17}")
    for n in sizes:
        k, m = n // 3, (2 * n) // 3
        s = chain(n, "s", k, m)
        equal = chain(n, "t", k, m)
        pairs = (
            (s, equal, True),
            (s, chain(n, "t", (k + 1) % n, m), False),
            (App("l", (s,)), App("r", (equal,)), False),
        )
        timings = []
        for left, right, want in pairs:
            t0 = time.perf_counter()
            got = alpha_holds(EMPTY_CTX, left, right)
            timings.append(time.perf_counter() - t0)
            assert got == want, (n, want, got)
        print(f"{n:>8} {timings[0]:>10.4f} {timings[1]:>12.4f} {timings[2]:>17.6f}")


if __name__ == "__main__":
    main([int(arg) for arg in sys.argv[1:]] or [10**2, 10**3, 10**4, 10**5])
