#!/usr/bin/env python3
"""Time the two term actions on terms of growing size.

Each term is a spine of n/3 levels [x] g(x, rest), ending in a leaf, with
x alternating between the atoms a and b.  The act column applies the swap
(a b), which moves every atom and every binder, so every node is rebuilt.
The substitute column fills the same spine with X in place of each atom
leaf, mapping X to c, so every suspension is filled and every node above it
is rebuilt.  Both print microseconds per 1,000 nodes, the best of five
runs; a rebuild linear in the term prints the same figure at every size.

    python3 scripts/action_scaling.py            # 10^2, 10^3, 10^4, 10^5 nodes
    python3 scripts/action_scaling.py 300 3000   # other sizes
"""

import sys
import time

from nomrew import (
    Abstraction, App, Atom, AtomTerm, Substitution, Unknown, act, substitute, swap, term_size, unknowns_of, var,
)


def spine(n: int, leaf):
    """[x] g(leaf(x), [y] g(leaf(y), ... leaf(a))) of about n nodes, with x,
    y alternating between a and b, built without recursion."""
    names = (Atom("a"), Atom("b"))
    t = leaf(names[0])
    for i in range(max(n // 3, 1)):
        x = names[i % 2]
        t = Abstraction(x, App("g", (leaf(x), t)))
    return t


def best_us_per_1k(action, t, nodes: int) -> float:
    """The best of five timings of action(t), in µs per 1,000 nodes; each
    timing repeats the call until it has run for about 20 ms."""
    calls = max(1, 20_000 // nodes)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(calls):
            action(t)
        best = min(best, (time.perf_counter() - t0) / calls)
    return best * 1e9 / nodes


def main(sizes):
    pi = swap(Atom("a"), Atom("b"))
    x = Unknown("X")
    sigma = Substitution({x: AtomTerm(Atom("c"))})
    print(f"{'nodes':>8} {'act us/1k nodes':>16} {'substitute us/1k nodes':>23}")
    for n in sizes:
        atoms, holes = spine(n, AtomTerm), spine(n, lambda a: var(x))
        assert act(pi, act(pi, atoms)) == atoms and act(pi, atoms) != atoms
        assert not unknowns_of(substitute(holes, sigma))
        nodes = term_size(atoms)
        act_us = best_us_per_1k(lambda t: act(pi, t), atoms, nodes)
        sub_us = best_us_per_1k(lambda t: substitute(t, sigma), holes, term_size(holes))
        print(f"{nodes:>8} {act_us:>16.1f} {sub_us:>23.1f}")


if __name__ == "__main__":
    main([int(arg) for arg in sys.argv[1:]] or [10**2, 10**3, 10**4, 10**5])
