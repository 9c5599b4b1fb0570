#!/usr/bin/env python3
"""Normalize growing stacks of beta-redexes with the general engine (which
tries candidate permutations at every position whose shape can match the
rule) and with the closed engine (plain matching of each rule's one
freshened variant), assert that both reach alpha-equal normal forms, and
print the time each took, the match calls each made, the (position,
fitting rule) pairs the rule set's discrimination tree answered
(`_Tree.fits`, one lookup per position visited) and the lists of candidate
permutations (`_candidate_perms`) each built, and for closed the nodes of
the terms `closed.scrub` returns, a closed step scrubbing only the instance
it puts in the hole.  Closed makes one match per hole that a rule's lhs
shape fits and builds no permutation list; general makes up to
one match per candidate permutation at each distinct such hole of a
normalization, since it keeps what it found at a hole for the rest of the
call, and `beta_app` copies its argument, so the towers repeat holes.
General keeps each renamed rule's permuted sides across calls, one list
per universe, so a height builds only the lists the lower heights did not.
Both engines look up the same positions in the same tree, so they count
the same pairs.  A tower of
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
from nomrew import EMPTY_CTX, alpha_holds, closed_normalize, normalize_general, term_size
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
def counting(owner, name, weight=lambda result: 1):
    """Count the calls the engine makes to `owner.name` (a module's function
    or a class's method), each weighted by `weight` of its result."""
    real = getattr(owner, name)
    calls = [0]

    def counted(*args):
        result = real(*args)
        calls[0] += weight(result)
        return result

    setattr(owner, name, counted)
    try:
        yield calls
    finally:
        setattr(owner, name, real)


def main(heights):
    theory = parse_theory((resources.files("nomrew") / "theories" / "betaeta.nrw").read_text())
    print(f"{'height':>6} {'closed (s)':>12} {'general (s)':>12} {'steps':>6} {'closed matches':>15} "
          f"{'closed fit-pairs':>17} {'closed perm-lists':>18} {'closed scrubbed-nodes':>22} {'general matches':>16} "
          f"{'general fit-pairs':>18} {'general perm-lists':>19}")
    for height in heights:
        term = parse_term(redex_tower(height), theory.signature)
        fuel = max(tower_steps(height), 1)

        with counting(nomrew.closed, "solve_match") as closed_matches, \
                counting(nomrew.rewrite._Tree, "fits", len) as closed_fits, \
                counting(nomrew.rewrite, "_candidate_perms") as closed_perms, \
                counting(nomrew.closed, "scrub", term_size) as closed_scrubbed:
            t0 = time.perf_counter()
            closed = closed_normalize(EMPTY_CTX, term, theory, fuel=fuel)
            closed_s = time.perf_counter() - t0

        with counting(nomrew.rewrite, "solve_match") as general_matches, \
                counting(nomrew.rewrite._Tree, "fits", len) as general_fits, \
                counting(nomrew.rewrite, "_candidate_perms") as general_perms:
            t0 = time.perf_counter()
            general = normalize_general(EMPTY_CTX, term, theory, fuel=fuel)
            general_s = time.perf_counter() - t0

        assert closed.status == general.status == "normal_form"
        assert closed_perms[0] == 0, "closed rewriting tries no permutation"
        assert len(closed.trace) == len(general.trace) == tower_steps(height)
        assert alpha_holds(EMPTY_CTX, closed.term, general.term), (
            pretty(closed.term), pretty(general.term))
        print(f"{height:>6} {closed_s:>12.3f} {general_s:>12.3f} {len(closed.trace):>6} {closed_matches[0]:>15} "
              f"{closed_fits[0]:>17} {closed_perms[0]:>18} {closed_scrubbed[0]:>22} {general_matches[0]:>16} "
              f"{general_fits[0]:>18} {general_perms[0]:>19}")


if __name__ == "__main__":
    main([int(h) for h in sys.argv[1:]] or range(1, 7))
