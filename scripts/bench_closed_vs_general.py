#!/usr/bin/env python3
"""Normalize growing stacks of beta-redexes with the general engine (which
tries candidate permutations at every position whose shape can match the
rule) and with the closed engine (plain matching after freshening), assert
that both reach alpha-equal normal forms, and print the time each took.
"""

import time
from importlib import resources

from nomrew import EMPTY_CTX, alpha_holds, closed_normalize, normalize_general
from nomrew.syntax import parse_term, parse_theory, pretty


def redex_tower(height: int) -> str:
    term = "b"
    for _ in range(height):
        term = f"app(lam([a]app(a,a)),{term})"
    return term


def main():
    theory = parse_theory((resources.files("nomrew") / "theories" / "betaeta.nrw").read_text())
    print(f"{'height':>6} {'closed (s)':>12} {'general (s)':>12} {'steps':>6}")
    for height in range(1, 5):
        term = parse_term(redex_tower(height), theory.signature)

        t0 = time.perf_counter()
        closed = closed_normalize(EMPTY_CTX, term, theory, fuel=500)
        closed_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        general = normalize_general(EMPTY_CTX, term, theory, fuel=500)
        general_s = time.perf_counter() - t0

        assert closed.status == general.status == "normal_form"
        assert alpha_holds(EMPTY_CTX, closed.term, general.term), (
            pretty(closed.term), pretty(general.term))
        print(f"{height:>6} {closed_s:>12.3f} {general_s:>12.3f} {len(closed.trace):>6}")


if __name__ == "__main__":
    main()
