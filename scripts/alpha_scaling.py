#!/usr/bin/env python3
"""Time alpha_holds on pairs of renamed-binder chains of growing length.

Each pair is [s0]...[s(n-1)]g(s k, s m, c) against the same chain with
every binder renamed to t0...t(n-1): once with the same leaves (equal) and
once with the first leaf moved to the next binder (not equal).  A linear
check takes ten times as long for ten times as many binders.

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
    print(f"{'binders':>8} {'equal (s)':>10} {'unequal (s)':>12}")
    for n in sizes:
        k, m = n // 3, (2 * n) // 3
        s = chain(n, "s", k, m)
        timings = []
        for k2, want in ((k, True), ((k + 1) % n, False)):
            t = chain(n, "t", k2, m)
            t0 = time.perf_counter()
            got = alpha_holds(EMPTY_CTX, s, t)
            timings.append(time.perf_counter() - t0)
            assert got == want, (n, k2, got)
        print(f"{n:>8} {timings[0]:>10.4f} {timings[1]:>12.4f}")


if __name__ == "__main__":
    main([int(arg) for arg in sys.argv[1:]] or [10**2, 10**3, 10**4, 10**5])
