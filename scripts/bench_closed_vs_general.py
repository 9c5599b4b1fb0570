#!/usr/bin/env python3
"""Normalize growing stacks of beta-redexes with the general engine (which
tries candidate permutations at every position whose shape can match the
rule) and with the closed engine (plain matching of each rule's one
freshened variant), assert that both reach alpha-equal normal forms, and
print the time each took, the match calls each made and the shape tests
(`_may_match`) each ran.  Closed makes one match per hole that passes the
shape test; general makes up to one per candidate permutation at each
distinct such hole of a normalization, since it keeps what it found at a
hole for the rest of the call, and `beta_app` copies its argument, so the
towers repeat holes.  Both engines shape-test a hole only against the rules
whose lhs head fits it, so they run the same shape tests.  A tower of
height h normalizes in 3 * 2^h - 3 steps, and each height runs on exactly
that much fuel, so any height reaches its normal form.

    python scripts/bench_closed_vs_general.py [HEIGHT ...]   # default 1 to 6
"""

import sys
import time
from contextlib import contextmanager
from importlib import resources

import nomrew.closed
import nomrew.rewrite
from nomrew import EMPTY_CTX, alpha_holds, closed_normalize, normalize_general
from nomrew.syntax import parse_term, parse_theory, pretty


def redex_tower(height: int) -> str:
    term = "b"
    for _ in range(height):
        term = f"app(lam([a]app(a,a)),{term})"
    return term


def tower_steps(height: int) -> int:
    """The steps either engine takes to normalize the tower of this height."""
    return 3 * 2**height - 3


@contextmanager
def counting(module, name):
    """Count the calls the engine module makes to its function `name`."""
    real = getattr(module, name)
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return real(*args)

    setattr(module, name, counted)
    try:
        yield calls
    finally:
        setattr(module, name, real)


def main(heights):
    theory = parse_theory((resources.files("nomrew") / "theories" / "betaeta.nrw").read_text())
    print(f"{'height':>6} {'closed (s)':>12} {'general (s)':>12} {'steps':>6} {'closed matches':>15} "
          f"{'closed shape-tests':>19} {'general matches':>16} {'general shape-tests':>20}")
    for height in heights:
        term = parse_term(redex_tower(height), theory.signature)
        fuel = max(tower_steps(height), 1)

        with counting(nomrew.closed, "solve_match") as closed_matches, \
                counting(nomrew.rewrite, "_may_match") as closed_shapes:
            t0 = time.perf_counter()
            closed = closed_normalize(EMPTY_CTX, term, theory, fuel=fuel)
            closed_s = time.perf_counter() - t0

        with counting(nomrew.rewrite, "solve_match") as general_matches, \
                counting(nomrew.rewrite, "_may_match") as general_shapes:
            t0 = time.perf_counter()
            general = normalize_general(EMPTY_CTX, term, theory, fuel=fuel)
            general_s = time.perf_counter() - t0

        assert closed.status == general.status == "normal_form"
        assert len(closed.trace) == len(general.trace) == tower_steps(height)
        assert alpha_holds(EMPTY_CTX, closed.term, general.term), (
            pretty(closed.term), pretty(general.term))
        print(f"{height:>6} {closed_s:>12.3f} {general_s:>12.3f} {len(closed.trace):>6} {closed_matches[0]:>15} "
              f"{closed_shapes[0]:>19} {general_matches[0]:>16} {general_shapes[0]:>20}")


if __name__ == "__main__":
    main([int(h) for h in sys.argv[1:]] or range(1, 7))
