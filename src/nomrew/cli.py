"""Command line interface.

Subcommands: check (per-rule closedness), normalize, equal, alpha, fresh,
match, step (one-step enumeration) and replay (re-verify a JSON trace).
Exit codes are a stable contract: 0 yes/equal/all-closed, 1 no/not-equal/
not-closed/no-match, 2 usage, parse or any other error, 3 inconclusive,
truncated or fuel exhausted.  JSON reports carry "schema": 1 and embed the
theory text, so a report replays on its own.  Machine-fresh names are picked
deterministically, so the same command prints the same trace every time.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii

from .alpha import Derivation, FreshnessContext, alpha_holds, check_alpha, check_fresh, fresh_holds
from .closed import NotClosedError, closed_normalize, closed_rewrite_step, decide_equal, is_closed_rule
from .matching import MatchProblem, solve_match
from .rewrite import (
    MAX_SUPPORT,
    RewriteRule,
    RewriteStep,
    Theory,
    normalize_general,
    path_str,
    replay_step,
    rewrite_step_general,
)
from .syntax import (
    ParseError,
    parse_context,
    parse_term,
    parse_theory,
    pretty,
    pretty_ctx,
    pretty_perm,
    pretty_subst,
    pretty_theory,
)
from .terms import Atom, AtomTerm, NominalError, Permutation, Substitution, Unknown

SCHEMA = 1

EXIT_OK = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


def _load_theory(path: str) -> tuple[Theory, str]:
    with open(path, encoding="utf-8") as fh:
        return _parse_theory_text(fh.read())


@functools.lru_cache(maxsize=8)
def _parse_theory_text(text: str) -> tuple[Theory, str]:
    """The theory a file's text parses to and its printed text for reports,
    kept for repeated calls in one process, so the variants and verdicts its
    rules keep are reused and each theory is printed once."""
    theory = parse_theory(text)
    return theory, pretty_theory(theory)


def _printer():
    """`pretty` kept by object (held, so no id is reused) for one report: a
    step's variant is mostly its source, its result the next step's source,
    and a rule's freshened sides recur."""
    memo: dict[int, tuple] = {}
    return lambda t: (memo.get(id(t)) or memo.setdefault(id(t), (t, pretty(t))))[1]


def _subst_json(sigma: Substitution, show=pretty) -> dict:
    return {x.name: show(t) for x, t in sorted(sigma.items(), key=lambda kv: kv[0].name)}


def _ctx_json(ctx: FreshnessContext) -> list:
    return [[a.name, x.name] for a, x in sorted(ctx)]


def _perm_json(pi: Permutation) -> list:
    return [[a.name, b.name] for a, b in pi.swaps]


def _step_json(step: RewriteStep, show) -> dict:
    out = {
        "rule": step.rule,
        "path": list(step.path),
        "perm": _perm_json(step.perm),
        "subst": _subst_json(step.subst, show),
        "source": show(step.source),
        "variant": show(step.variant),
        "result": show(step.result),
        "mode": step.mode,
        "ctx_extension": _ctx_json(step.ctx_extension),
    }
    if step.freshened is not None:
        fr = step.freshened
        out["freshened"] = {
            "name": fr.name,
            "ctx": pretty_ctx(fr.ctx),
            "lhs": show(fr.lhs),
            "rhs": show(fr.rhs),
        }
    else:
        out["freshened"] = None
    return out


def _step_from_json(data: dict, term) -> RewriteStep:
    """The step a report records, its terms read by term(text)."""
    freshened = None
    if data.get("freshened"):
        fr = data["freshened"]
        ctx = parse_context(fr["ctx"], allow_machine=True)
        freshened = RewriteRule(fr["name"], ctx, term(fr["lhs"]), term(fr["rhs"]))
    return RewriteStep(
        rule=data["rule"],
        path=tuple(data["path"]),
        perm=Permutation(tuple((Atom(a), Atom(b)) for a, b in data["perm"])),
        subst=Substitution((Unknown(x), term(t)) for x, t in data["subst"].items()),
        source=term(data["source"]),
        variant=term(data["variant"]),
        result=term(data["result"]),
        mode=data["mode"],
        freshened=freshened,
        ctx_extension=FreshnessContext(
            frozenset((Atom(a), Unknown(x)) for a, x in data["ctx_extension"])
        ),
    )


def _deriv_json(d: Derivation) -> dict:
    """The derivation as nested dicts, built top-down on an explicit stack of
    (node, the children list of its parent's dict)."""
    root: list = []
    stack = [(d, root)]
    while stack:
        node, siblings = stack.pop()
        kind, ctx, left, t = node.conclusion
        if kind == "fresh":
            judgement = f"{pretty_ctx(ctx)} |- {left.name} # {pretty(t)}"
        else:
            judgement = f"{pretty_ctx(ctx)} |- {pretty(left)} =a= {pretty(t)}"
        info = {"rule": node.rule, "judgement": judgement, "children": []}
        siblings.append(info)
        stack.extend((child, info["children"]) for child in reversed(node.children))
    return root[0]


def _print_deriv(info: dict) -> None:
    """Print each node of _deriv_json's dict on a line, in preorder,
    indented two spaces per level."""
    stack = [(info, 0)]
    while stack:
        node, indent = stack.pop()
        print("  " * indent + f"[{node['rule']}] {node['judgement']}")
        stack.extend((child, indent + 1) for child in reversed(node["children"]))


def _json_text(report) -> str:
    """Exactly ``json.dumps(report, indent=2)`` for reports made of dicts
    with string keys, lists, tuples, strings, ints, booleans and None, on an
    explicit stack: a derivation nests as deep as its term, past the depth
    at which the json encoder, which recurses per level, gives up.  Anything
    else raises TypeError; reports hold no floats."""
    if type(report) not in (dict, list, tuple):
        return _json_scalar(report)
    out: list[str] = []
    stack: list = [("", report, "\n")]  # text to write, or (label, container, newline and indent of its level)
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        label, value, indent = item
        kind = type(value)
        if not value:
            out.append(label + ("{}" if kind is dict else "[]"))
            continue
        if kind is dict:
            for key in value:
                if type(key) is not str:
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(label + "{")
            stack.append(indent + "}")
            entries = [(encode_basestring_ascii(key) + ": ", child) for key, child in value.items()]
        else:
            out.append(label + "[")
            stack.append(indent + "]")
            entries = [("", child) for child in value]
        inner = indent + "  "
        for i in range(len(entries) - 1, -1, -1):  # the first entry ends on top
            label, child = entries[i]
            label = ("," if i else "") + inner + label
            kind = type(child)
            if kind is dict or kind is list or kind is tuple:
                stack.append((label, child, inner))
            else:
                stack.append(label + _json_scalar(child))
    return "".join(out)


def _json_scalar(value) -> str:
    """json.dumps of a string, int, boolean or None."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if kind is int:
        return int.__repr__(value)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(_json_text(report))


def cmd_check(args) -> int:
    theory, theory_text = _load_theory(args.theory)
    rows = []
    all_closed = True
    for rule in theory.rules:
        res = is_closed_rule(rule)
        all_closed &= res.closed
        rows.append((rule, res))
        if not args.json:
            verdict = "closed" if res.closed else "not closed"
            witness = f"  witness {pretty_subst(res.witness)}" if res.witness else ""
            print(f"{rule.name}: {verdict}{witness}")
    report = {
        "schema": SCHEMA,
        "command": "check",
        "theory": theory_text,
        "all_closed": all_closed,
        "rules": [
            {"name": rule.name, "closed": res.closed,
             "witness": _subst_json(res.witness) if res.witness else None}
            for rule, res in rows
        ],
    }
    _emit(report, args.json)
    return EXIT_OK if all_closed else EXIT_NO


def cmd_normalize(args) -> int:
    theory, theory_text = _load_theory(args.theory)
    ctx = parse_context(args.ctx)
    term = parse_term(args.term, theory.signature)
    if args.general:
        res = normalize_general(ctx, term, theory, args.strategy, args.fuel, args.max_support)
        mode = "general"
    else:
        res = closed_normalize(ctx, term, theory, args.fuel, args.strategy)
        mode = "closed"
    show = _printer()
    if not args.json:
        print(show(res.term))
        print(f"status: {res.status} after {len(res.trace)} steps")
        if args.trace:
            for i, step in enumerate(res.trace):
                pi = pretty_perm(step.perm) or "id"
                print(
                    f"  {i + 1}. {step.rule} at {path_str(step.path)} pi={pi} "
                    f"theta={pretty_subst(step.subst)} ->1 {show(step.result)}"
                )
    report = {
        "schema": SCHEMA,
        "command": "normalize",
        "theory": theory_text,
        "ctx": pretty_ctx(ctx),
        "mode": mode,
        "term": show(term),
        "result": show(res.term),
        "status": res.status,
        "trace": [_step_json(s, show) for s in res.trace],
    }
    _emit(report, args.json)
    return EXIT_OK if res.status == "normal_form" else EXIT_INCONCLUSIVE


def cmd_equal(args) -> int:
    theory, theory_text = _load_theory(args.theory)
    ctx = parse_context(args.ctx)
    left = parse_term(args.left, theory.signature)
    right = parse_term(args.right, theory.signature)
    try:
        decision = decide_equal(ctx, left, right, theory, args.assume_convergent, args.fuel)
    except NotClosedError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    show = _printer()
    if not args.json:
        print(decision.verdict)
        print(f"  {show(left)} ->* {show(decision.left.term)} [{decision.left.status}]")
        print(f"  {show(right)} ->* {show(decision.right.term)} [{decision.right.status}]")
    report = {
        "schema": SCHEMA,
        "command": "equal",
        "theory": theory_text,
        "ctx": pretty_ctx(ctx),
        "verdict": decision.verdict,
        "left": {"term": show(left), "normal_form": show(decision.left.term),
                 "status": decision.left.status, "trace": [_step_json(s, show) for s in decision.left.trace]},
        "right": {"term": show(right), "normal_form": show(decision.right.term),
                  "status": decision.right.status, "trace": [_step_json(s, show) for s in decision.right.trace]},
    }
    _emit(report, args.json)
    return {"equal": EXIT_OK, "not_equal": EXIT_NO}.get(decision.verdict, EXIT_INCONCLUSIVE)


def _judgement(args, report: dict, holds, derive, *operands) -> int:
    """Answer holds(*operands).  The derivation, derive(*operands) or None,
    is built only to be printed under --trace or reported under --json: it
    writes out the subterm at each node, in time quadratic in the depth."""
    derived = args.trace or args.json
    deriv = derive(*operands) if derived else None
    answer = deriv is not None if derived else holds(*operands)
    info = None if deriv is None else _deriv_json(deriv)
    if not args.json:
        print("yes" if answer else "no")
        if args.trace and info:
            _print_deriv(info)
    _emit({**report, "holds": answer, "derivation": info}, args.json)
    return EXIT_OK if answer else EXIT_NO


def cmd_alpha(args) -> int:
    ctx = parse_context(args.ctx)
    s, t = parse_term(args.left), parse_term(args.right)
    report = {"schema": SCHEMA, "command": "alpha", "ctx": pretty_ctx(ctx), "left": pretty(s), "right": pretty(t)}
    return _judgement(args, report, alpha_holds, check_alpha, ctx, s, t)


def cmd_fresh(args) -> int:
    ctx = parse_context(args.ctx)
    atom = parse_term(args.atom)
    if not isinstance(atom, AtomTerm):
        print("error: first positional argument must be an atom", file=sys.stderr)
        return EXIT_USAGE
    t = parse_term(args.term)
    report = {"schema": SCHEMA, "command": "fresh", "ctx": pretty_ctx(ctx),
              "atom": atom.atom.name, "term": pretty(t)}
    return _judgement(args, report, fresh_holds, check_fresh, ctx, atom.atom, t)


def cmd_match(args) -> int:
    problem = MatchProblem(
        parse_context(args.pattern_ctx),
        parse_term(args.pattern),
        parse_context(args.target_ctx),
        parse_term(args.target),
    )
    sol = solve_match(problem)
    if not args.json:
        print(f"solution {pretty_subst(sol.sigma)}" if sol else "no match")
    report = {
        "schema": SCHEMA, "command": "match",
        "pattern_ctx": pretty_ctx(problem.pattern_ctx), "pattern": pretty(problem.pattern),
        "target_ctx": pretty_ctx(problem.target_ctx), "target": pretty(problem.target),
        "solution": _subst_json(sol.sigma) if sol else None,
    }
    _emit(report, args.json)
    return EXIT_OK if sol else EXIT_NO


def cmd_step(args) -> int:
    theory, theory_text = _load_theory(args.theory)
    ctx = parse_context(args.ctx)
    term = parse_term(args.term, theory.signature)
    steps = []
    truncated = False
    for rule in theory.rules:
        if args.general:
            got = rewrite_step_general(ctx, term, rule, args.max_support)
        else:
            got = closed_rewrite_step(ctx, term, rule)
        truncated |= got.truncated
        steps.extend(got)
    show = _printer()
    if not args.json:
        if not steps:
            print("no steps")
        for step in steps:
            pi = pretty_perm(step.perm) or "id"
            print(f"{step.rule} at {path_str(step.path)} pi={pi} ->1 {show(step.result)}")
        if truncated:
            print("(permutation universe truncated: absence of steps is inconclusive)")
    report = {
        "schema": SCHEMA,
        "command": "step",
        "theory": theory_text,
        "ctx": pretty_ctx(ctx),
        "mode": "general" if args.general else "closed",
        "term": show(term),
        "truncated": truncated,
        "steps": [_step_json(s, show) for s in steps],
    }
    _emit(report, args.json)
    return EXIT_INCONCLUSIVE if truncated and not steps else EXIT_OK


def cmd_replay(args) -> int:
    with open(args.report, encoding="utf-8") as fh:
        report = json.load(fh)
    if report.get("schema") != SCHEMA:
        print(f"error: unsupported schema {report.get('schema')!r}", file=sys.stderr)
        return EXIT_USAGE
    theory = parse_theory(report["theory"], allow_machine=True)
    rules = {rule.name: rule for rule in theory.rules}
    ctx = parse_context(report.get("ctx", ""), allow_machine=True)

    traces = []
    if report["command"] == "normalize":
        traces.append(report["trace"])
    elif report["command"] == "equal":
        traces.append(report["left"]["trace"])
        traces.append(report["right"]["trace"])
    elif report["command"] == "step":
        traces.append(report["steps"])
    else:
        print(f"error: nothing to replay in a {report['command']!r} report", file=sys.stderr)
        return EXIT_USAGE

    # Under the theory's signature, so a nullary former reads back as one;
    # once per text, as a variant is mostly its source, a source the last result.
    term = functools.cache(lambda text: parse_term(text, theory.signature, allow_machine=True))
    checked = 0
    for trace in traces:
        for data in trace:
            try:
                valid = replay_step(ctx, _step_from_json(data, term), rules.get(data["rule"]))
            except ParseError:  # a term outside the theory's signature is no step of it
                valid = False
            if not valid:
                print(f"step {checked + 1} FAILED to replay: {data['rule']} at {data['path']}")
                return EXIT_NO
            checked += 1
    print(f"replayed {checked} steps: all valid")
    return EXIT_OK


def _int_from(low: int):
    """An argparse type: an int no smaller than `low`."""
    def at_least(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    at_least.__name__ = "int"  # so a text that is no int gets argparse's "invalid int value"
    return at_least


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nomrew", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="report closedness of every rule in a theory file")
    p.add_argument("theory")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("normalize", help="rewrite a term to normal form")
    p.add_argument("theory")
    p.add_argument("--term", required=True)
    p.add_argument("--ctx", default="")
    p.add_argument("--fuel", type=_int_from(1), default=500)
    p.add_argument("--strategy", choices=("outermost", "innermost"), default="outermost")
    p.add_argument("--max-support", type=_int_from(0), default=MAX_SUPPORT, dest="max_support", help="general rewriting only")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--general", action="store_true", help="general rewriting (permutation search)")
    mode.add_argument("--closed", action="store_true", help="closed rewriting (default)")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("equal", help="decide equality via closed normal forms")
    p.add_argument("theory")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--ctx", default="")
    p.add_argument("--fuel", type=_int_from(1), default=500)
    p.add_argument("--assume-convergent", action="store_true", dest="assume_convergent")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_equal)

    p = sub.add_parser("alpha", help="check alpha-equivalence of two terms")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--ctx", default="")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_alpha)

    p = sub.add_parser("fresh", help="check a freshness judgement atom # term")
    p.add_argument("atom")
    p.add_argument("term")
    p.add_argument("--ctx", default="")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_fresh)

    p = sub.add_parser("match", help="solve a nominal matching problem")
    p.add_argument("pattern_ctx")
    p.add_argument("pattern")
    p.add_argument("target_ctx")
    p.add_argument("target")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_match)

    p = sub.add_parser("step", help="enumerate one-step rewrites of a term")
    p.add_argument("theory")
    p.add_argument("--term", required=True)
    p.add_argument("--ctx", default="")
    p.add_argument("--max-support", type=_int_from(0), default=MAX_SUPPORT, dest="max_support", help="general rewriting only")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--general", action="store_true", help="general rewriting (permutation search); a rule that "
                      "is not closed also fires on alpha-variants, each binder renamed only to the first fresh atoms "
                      "that can reach a new result")
    mode.add_argument("--closed", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_step)

    p = sub.add_parser("replay", help="re-verify every step in a JSON report")
    p.add_argument("report")
    p.set_defaults(fn=cmd_replay)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call of `main`."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (FileNotFoundError, NominalError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as e:  # exit 1 means "no"; an unexpected failure must not read as one
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_USAGE


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
