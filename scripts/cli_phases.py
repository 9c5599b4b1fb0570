#!/usr/bin/env python3
"""Split an in-process `nomrew equal fol.nrw LEFT RIGHT --ctx CTX
--assume-convergent --json` into its phases and print the microseconds each
takes per op, best of ROUNDS rounds over a fixed set of fol inputs.

Each phase is timed around the call `cli` makes for it, by a wrapper put in
the module's namespace for the run: argparse (what `main` spends outside
`cmd_equal`), theory load (`_load_theory`, whose parse is kept across calls
in one process), context parse (`parse_context`), term parse (both
`parse_term` calls), `decide_equal`, the report dicts (what `cmd_equal`
spends outside its timed calls: the step dicts, pretty-printing and writing
the text out) and the JSON text (`_json_text`).  A phase's best round and
the total's are taken separately, so the rows need not sum to the total.

    python scripts/cli_phases.py [ROUNDS]   # default 7
"""

import contextlib
import io
import sys
import time
from importlib import resources

from nomrew import cli

FOL = str(resources.files("nomrew") / "theories" / "fol.nrw")

# (left, right, context): equal pairs and unequal ones, of depths 3 to 5.
INPUTS = [
    ("not(not(imp(forall([a]and(P,Q)),exists([a]or(P,not(not(Q)))))))",
     "imp(forall([b]and(P,Q)),exists([c]or(P,Q)))", "a#P,b#Q"),
    ("forall([a]and(imp(P,a),not(forall([b]Q))))", "forall([c]and(imp(P,c),not(forall([d]Q))))",
     "a#Q,b#P,c#Q,d#P"),
    ("exists([a]or(not(not(P)),imp(Q,b)))", "exists([d]or(P,imp(Q,c)))", "a#P,a#Q,d#P,d#Q"),
    ("and(imp(not(forall([b]P)),R),or(a,exists([c]Q)))", "and(imp(not(forall([d]P)),R),or(a,exists([c]Q)))",
     "b#P,d#P,c#Q"),
    ("not(forall([a]imp(P,not(not(a)))))", "exists([b]not(imp(P,b)))", "a#P,b#P"),
]

PHASES = ["argparse", "theory load", "context parse", "term parse", "decide_equal", "report dicts", "JSON text"]
TIMED = {"_load_theory": "theory load", "parse_context": "context parse", "parse_term": "term parse",
         "decide_equal": "decide_equal", "_json_text": "JSON text"}


def timing(spent: dict, phase: str, real):
    """real, adding the seconds each call takes to spent[phase]."""

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return real(*args, **kwargs)
        finally:
            spent[phase] += time.perf_counter() - start

    return timed


@contextlib.contextmanager
def timed_cli(spent: dict):
    """`cli` with each phase's call timed into spent, and `cmd_equal` timed
    whole into spent["cmd_equal"]; the argument parser is rebuilt, before
    any timing, so that it dispatches to the timed `cmd_equal`."""
    names = [*TIMED, "cmd_equal"]
    real = {name: getattr(cli, name) for name in names}
    for name in names:
        setattr(cli, name, timing(spent, TIMED.get(name, name), real[name]))
    cli._parser.cache_clear()
    cli._parser()
    try:
        yield
    finally:
        for name in names:
            setattr(cli, name, real[name])
        cli._parser.cache_clear()


def one_round(argvs: list) -> dict:
    """Seconds per phase, and in total, over one run of every argv."""
    spent = dict.fromkeys([*PHASES, "cmd_equal"], 0.0)
    with timed_cli(spent), contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        for argv in argvs:
            if cli.main(argv) not in (0, 1, 3):
                raise SystemExit(f"nomrew {' '.join(argv)} failed")
        total = time.perf_counter() - start
    inner = sum(spent[phase] for phase in TIMED.values())
    spent["argparse"] = total - spent["cmd_equal"]
    spent["report dicts"] = spent.pop("cmd_equal") - inner
    spent["total"] = total
    return spent


def main(rounds: int) -> None:
    argvs = [["equal", FOL, left, right, "--ctx", ctx, "--assume-convergent", "--json"]
             for left, right, ctx in INPUTS]
    one_round(argvs)  # the theory parse, rule variants and verdicts are kept after this
    best = {}
    for _ in range(rounds):
        for phase, seconds in one_round(argvs).items():
            best[phase] = min(best.get(phase, seconds), seconds)
    print(f"{'phase':<16}{'us/op':>10}")
    for phase in [*PHASES, "total"]:
        print(f"{phase:<16}{best[phase] / len(argvs) * 1e6:>10.1f}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 7)
