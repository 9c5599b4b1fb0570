#!/usr/bin/env python3
"""Walk through the toolkit's running examples on the bundled theories:
beta-eta normalization with a replayable trace, rewriting that needs a
permutation, the closed/general differential, and per-rule closedness."""

from importlib import resources

from nomrew import (
    EMPTY_CTX,
    alpha_holds,
    closed_normalize,
    closed_rewrite_step,
    is_closed_rule,
    replay_step,
    rewrite_step_general,
    symmetric_search,
    var,
)
from nomrew.syntax import parse_term, parse_theory, pretty, pretty_perm, pretty_subst


def load(name):
    return parse_theory((resources.files("nomrew") / "theories" / f"{name}.nrw").read_text())


def banner(text):
    print(f"\n== {text} " + "=" * max(0, 60 - len(text)))


def main():
    betaeta = load("betaeta")
    nonclosed = load("nonclosed")
    remark43 = load("remark43")

    banner("closedness of the beta-eta rules")
    for theory in (betaeta, nonclosed, remark43):
        for rule in theory.rules:
            verdict = "closed" if is_closed_rule(rule).closed else "NOT closed"
            print(f"  {theory.name}.{rule.name}: {verdict}")

    banner("closed normalization of app(lam([a]app(a,a)), b)")
    term = parse_term("app(lam([a]app(a,a)),b)", betaeta.signature)
    res = closed_normalize(EMPTY_CTX, term, betaeta)
    print(f"  {pretty(term)}")
    for step in res.trace:
        print(f"    --{step.rule}--> {pretty(step.result)}")
        assert replay_step(EMPTY_CTX, step, step.freshened)
    print(f"  status: {res.status}, every step replays")

    banner("a rewrite that needs a permutation: [b][a]a under [a]X -> X")
    strip = nonclosed.rules[1]
    source = parse_term("[b][a]a")
    want = parse_term("[a]b")
    for step in rewrite_step_general(EMPTY_CTX, source, strip):
        if alpha_holds(EMPTY_CTX, step.result, want):
            print(f"  fired on the alpha-variant {pretty(step.variant)}")
            print(f"  pi = {pretty_perm(step.perm)}, theta = {pretty_subst(step.subst)}")
            print(f"  result: {pretty(step.result)}  (replays: {replay_step(EMPTY_CTX, step, strip)})")
            break

    banner("general vs closed on a#X |- X -> f(X)")
    expand = remark43.rules[0]
    general = rewrite_step_general(EMPTY_CTX, var(next(iter(expand.unknowns()))), expand)
    print(f"  general one-step results from X in the empty context: {len(general)}")
    closed = closed_rewrite_step(EMPTY_CTX, var(next(iter(expand.unknowns()))), expand)
    print(f"  closed one-step results: {[pretty(s.result) for s in closed]}")
    hit = symmetric_search(
        EMPTY_CTX,
        var(next(iter(expand.unknowns()))),
        parse_term("f(X)", remark43.signature),
        remark43,
        fuel=100,
        gamma_budget=1,
    )
    print(f"  symmetric search with one fresh constraint: found={hit.found}")


if __name__ == "__main__":
    main()
