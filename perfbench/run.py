#!/usr/bin/env python3
"""The nomrew benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S]

The first form runs one workload in this process as a closed loop (one
client, one thread, the next op sent only after the last one returned) and
prints, as its last line, one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end metrics
of BENCHMARK.json: the first OPS seeded ops run in rounds for --seconds (at
least MIN_ROUNDS rounds after a warm-up round), every time is scaled to
the reference speed (see `reference`), and each op's latency is its
median over the rounds.  With --trace 1 they are the per-layer metrics:
the first trace_ops seeded ops run once untraced and once under the
tracer, and the traced run's spans are written to
perfbench/out/spans-NAME.csv.

The second form runs every workload, each in its own process, untraced and
then traced, prints every metric by name and unit, and exits nonzero if any
answer was wrong.

Every answer is checked, after the timed window, against an oracle that does
not use the engine; one wrong answer makes the run invalid (correct: false,
exit code 1).  An op that raises is counted as failed, not as wrong.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

OPS = 100  # distinct ops in a timed run: a p90 needs ten samples above it
MIN_ROUNDS = 3
SHAPE_SEED = 0  # seeds how much work each op is; --seed seeds the rest
SETUP_REPEATS = 30
REF_MS = 1.0  # a reference() call's time at the reference speed
REF_WINDOW = 5  # an op's speed is read from the reference calls this many ops around it
ENGINE_MODULES = ("terms", "alpha", "matching", "rewrite", "closed", "syntax", "cli")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def ensure_reproducible() -> None:
    """Refuse -O and pin hashing and fresh names, re-executing if needed."""
    if sys.flags.optimize:
        fail("refusing to run under python -O: solve_match's assert is_solution(...) is a correctness check")
    if os.environ.get("PYTHONHASHSEED") != "0" or os.environ.get("NOMREW_SEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0", NOMREW_SEED="0")
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:], env)


# -- the machine's speed -----------------------------------------------------


class _Node:
    __slots__ = ("head", "kids", "tag")

    def __init__(self, head, kids, tag):
        self.head, self.kids, self.tag = head, kids, tag


def _tree(n, depth):
    if depth == 0:
        return ("leaf", n % 5)
    return _Node(f"f{depth}", (_tree(n, depth - 1), _tree(n + 1, depth - 1)), {"n": n})


def _walk(t, seen):
    if isinstance(t, tuple):
        seen.add(t)
        return 1
    return 1 + sum(_walk(k, seen) for k in t.kids) + len(t.tag)


def reference() -> int:
    """A fixed piece of pure-Python work shaped like the engine's (building
    small trees of objects and tuples, walking them recursively, filling
    sets and dicts) that calls nothing in the engine.

    On a few cores of a shared host, the speed of pure-Python code can
    drift by 20-40% within minutes as the neighbours' load changes; the
    process's CPU time drifts with it, so it is the cores that slow, not
    the scheduler that takes time away.  Timed next to every
    op and every set-up, this call reads that speed: the benchmark scales
    each time t to t * REF_MS / (the reference's time at that moment), the
    time it would take where reference() takes REF_MS.  A change to the
    engine moves the scaled times as it moves the raw ones; the drift of the
    machine moves both the op and the reference, and cancels."""
    total = 0
    for i in range(4):
        seen = set()
        total += _walk(_tree(i, 7), seen) + len(frozenset(seen))
    return total


def time_reference() -> float:
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def scale(seconds, reference_times) -> float:
    """`seconds` at the reference speed, read as the median of the
    reference times taken around it."""
    return seconds * (REF_MS / 1000) / statistics.median(reference_times)


# -- set-up ------------------------------------------------------------------


def _engine_modules() -> list[str]:
    return [m for m in sys.modules if m == "nomrew" or m.startswith("nomrew.")]


def import_engine(theory_files):
    """Import nomrew afresh and parse the workload's bundled theories."""
    for name in _engine_modules():
        del sys.modules[name]
    nomrew = importlib.import_module("nomrew")
    engine = SimpleNamespace(nomrew=nomrew, **{
        m: importlib.import_module(f"nomrew.{m}") for m in ENGINE_MODULES})
    theory_dir = os.path.join(os.path.dirname(nomrew.__file__), "theories")
    paths = {f: os.path.join(theory_dir, f) for f in theory_files}
    theories = {}
    for f, path in paths.items():
        with open(path, encoding="utf-8") as fh:
            theories[f] = engine.syntax.parse_theory(fh.read())
    return engine, theories, paths


def timed_set_up(theory_files):
    """A set-up and its time at the reference speed, read from three
    reference calls before it and three after."""
    gc.collect()  # so no set-up pays for collecting an earlier one
    refs = [time_reference() for _ in range(3)]
    t0 = time.perf_counter()
    built = import_engine(theory_files)
    seconds = time.perf_counter() - t0
    refs += [time_reference() for _ in range(3)]
    return scale(seconds, refs), built


def set_up(workload_cls):
    """Import the engine and build the workload; returns it and the set-up
    time at the reference speed."""
    seconds, built = timed_set_up(workload_cls.theories)
    return workload_cls(*built), seconds


def more_set_ups(workload_cls, repeats) -> list[float]:
    """Time further fresh set-ups, then restore the modules the workload
    uses, so the tracer and the workload see one copy of the engine."""
    in_use = {m: sys.modules[m] for m in _engine_modules()}
    times = [timed_set_up(workload_cls.theories)[0] for _ in range(repeats)]
    for name in _engine_modules():
        del sys.modules[name]
    sys.modules.update(in_use)
    return times


# -- the closed loop ---------------------------------------------------------


FAILED = object()  # the output of an op that raised


class Pass:
    """Latencies, failures and checked outcomes of a sequence of ops.
    Answers are checked as they come and then dropped, so memory stays flat
    over a long run."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies, self.ok, self.outcomes = [], [], []
        self.references = []  # the reference's time after each op, when taken
        self.failures = Counter()  # exception name -> ops that raised it

    def run_op(self, op, call=None):
        """Time one op; returns its output, or FAILED if it raised."""
        run = self.workload.run
        t0 = time.perf_counter()
        try:
            out = call(run, op) if call else run(op)
        except Exception as e:  # an op that raises is failed; the loop goes on
            self.latencies.append(time.perf_counter() - t0)
            self.failures[type(e).__name__] += 1
            self.ok.append(False)
            return FAILED
        self.latencies.append(time.perf_counter() - t0)
        self.ok.append(True)
        return out

    def check(self, op, out) -> None:
        if out is not FAILED:
            self.outcomes.append(self.workload.check(op, out))

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    @property
    def wrong(self) -> list[str]:
        return [o.error for o in self.outcomes if o.error]

    def busy_seconds(self) -> float:
        return sum(self.latencies)

    def scaled_latencies(self) -> list[float]:
        """Each op's latency at the reference speed, read from the
        reference calls within REF_WINDOW ops of it."""
        refs = self.references
        return [scale(lat, refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1])
                for i, lat in enumerate(self.latencies)]


def percentile(values, q, half_window=4):
    """The mean of the values ranked within half_window of the nearest-rank
    q-th percentile.  One op's time still moves with the machine by
    several percent; averaging the nine ops around the rank halves the
    spread of p90 between runs."""
    ordered = sorted(values)
    rank = max(0, math.ceil(q / 100 * len(ordered)) - 1)
    return statistics.fmean(ordered[max(0, rank - half_window):rank + half_window + 1])


def op_stream(workload, seed):
    return workload.inputs(random.Random(SHAPE_SEED), random.Random(seed))


def timed_rounds(workload, seed, seconds, setup_times):
    """Run the first OPS seeded ops in rounds until `seconds` have passed
    and at least MIN_ROUNDS rounds follow the first, which warms up.  The
    reference is timed after each op.  Set-ups are timed between the first
    rounds, so set-up time is sampled across the run too."""
    inputs = op_stream(workload, seed)
    ops = [next(inputs) for _ in range(OPS)]
    rounds = []
    start = time.perf_counter()
    while len(rounds) <= MIN_ROUNDS or time.perf_counter() - start < seconds:
        if 0 < len(rounds) <= MIN_ROUNDS:
            setup_times += more_set_ups(type(workload), SETUP_REPEATS // MIN_ROUNDS)
        gc.collect()  # every round starts from the same heap
        done = Pass(workload)
        for op in ops:
            out = done.run_op(op)
            done.references.append(time_reference())
            done.check(op, out)
        rounds.append(done)
    return rounds


def traced_passes(workload, seed, tracer):
    """The first trace_ops ops, each run untraced and then traced, so both
    passes see the same warm-up and the same drift of the machine.  Answers
    are checked with the tracer removed."""
    inputs = op_stream(workload, seed)
    untraced, traced = Pass(workload), Pass(workload)
    call = lambda fn, op: tracer.span("op", fn, op)
    methods = {"matching.MatchProblem": (workload.e.matching.MatchProblem, "__post_init__")}
    for op_id in range(workload.trace_ops):
        op = next(inputs)
        untraced.check(op, untraced.run_op(op))
        tracer.op_id = op_id
        tracer.install(hit_counted=frozenset({"matching.solve_match"}), methods=methods)
        try:
            out = traced.run_op(op, call)
        finally:
            tracer.uninstall()
        traced.check(op, out)
    return untraced, traced


# -- metrics -----------------------------------------------------------------


def end_to_end(rounds, setup_times):
    """Each op's latency is the median, over the rounds after the warm-up
    round, of its time at the reference speed.  An op that failed in any
    round counts as infinitely slow.  Times as the clock read them, and the
    reference speed, go to standard error."""
    timed = rounds[1:]
    scaled = [r.scaled_latencies() for r in timed]
    latencies = [statistics.median(s[i] for s in scaled) for i in range(OPS)]
    slowest = [lat if all(r.ok[i] for r in rounds) else math.inf for i, lat in enumerate(latencies)]
    attempted = sum(r.attempted for r in rounds)
    raw = [statistics.median(r.latencies[i] for r in timed) for i in range(OPS)]
    refs = [t for r in timed for t in r.references]
    print(f"unscaled: ops_per_s {OPS / sum(raw):.4g}, reference {statistics.median(refs) * 1000:.4g} ms "
          f"(quartiles {', '.join(f'{q * 1000:.4g}' for q in statistics.quantiles(refs, n=4))}), "
          f"{len(timed)} timed rounds", file=sys.stderr)
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": OPS / sum(latencies),
        "op_p50_ms": percentile(slowest, 50) * 1000,
        "op_p90_ms": percentile(slowest, 90) * 1000,
        "decided_share": sum(o.decided for r in rounds for o in r.outcomes) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


SPAN_METRICS = (  # callee spans reported as <name>.calls and <name>.self_s
    "closed.freshen_rule", "closed.scrub", "closed.is_closed_rule",
    "terms.atoms_of", "terms.unknowns_of", "terms.act",
    "matching.MatchProblem", "matching.solve_match",
    "rewrite.rewrite_step_general", "rewrite.symmetric_search",
    "alpha.alpha_holds", "alpha.fresh_holds",
    "syntax.parse_theory", "syntax.parse_term", "syntax.pretty", "cli.main",
)


def per_layer(tracer, untraced, traced):
    closed_steps = sum(o.closed_steps for o in traced.outcomes)
    general_steps = sum(o.general_steps for o in traced.outcomes)
    ratio = lambda a, b: a / b if b else 0.0
    out = {}
    for name in SPAN_METRICS:
        out[f"{name}.calls"] = tracer.count(name)
        out[f"{name}.self_s"] = tracer.self_seconds(name)
    for layer in ENGINE_MODULES:
        out[f"{layer}.self_s"] = tracer.layer_self_seconds(layer)
    match_calls = out["matching.solve_match.calls"]
    perms = tracer.count("matching.solve_match", caller="rewrite")
    out.update({
        "closed.steps": closed_steps,
        "closed.freshenings_per_step": ratio(out["closed.freshen_rule.calls"], closed_steps),
        "closed.match_calls_per_step": ratio(tracer.count("matching.solve_match", caller="closed"), closed_steps),
        "matching.solve_match.hit_ratio": ratio(tracer.hit_count("matching.solve_match"), match_calls),
        "rewrite.perms_tried": perms,
        "rewrite.steps": general_steps,
        "rewrite.perms_per_step": ratio(perms, general_steps),
        "rewrite.alpha_checks": tracer.count("alpha.alpha_holds", caller="rewrite"),
        "trace.overhead_share": 1 - untraced.busy_seconds() / traced.busy_seconds(),
    })
    return out


def run_workload(spec, name, seed, seconds, trace) -> int:
    if not os.path.isdir(os.path.join(SRC, "nomrew")):
        fail(f"no engine source at {os.path.join(SRC, 'nomrew')}")
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    workload, setup_s = set_up(WORKLOADS[name])
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        untraced, traced = traced_passes(workload, seed, tracer)
        os.makedirs(OUT, exist_ok=True)
        tracer.write_spans(os.path.join(OUT, f"spans-{name}.csv"))
        values = per_layer(tracer, untraced, traced)
        wanted = spec["per_layer"]
        passes = [untraced, traced]
    else:
        setup_times = [setup_s]
        passes = timed_rounds(workload, seed, seconds, setup_times)
        values = end_to_end(passes, setup_times)
        wanted = spec["end_to_end"]

    if set(values) != {m["name"] for m in wanted}:
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ {m['name'] for m in wanted})}")
    wrong = [message for p in passes for message in p.wrong]
    for message in wrong[:5]:
        print(f"WRONG ANSWER: {message}", file=sys.stderr)
    failures = sum((p.failures for p in passes), Counter())
    if failures:
        print(f"failed ops: {dict(failures)}", file=sys.stderr)
    print(json.dumps({
        "correct": not wrong,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if not wrong else 1


# -- every workload ------------------------------------------------------------


def run_all(spec, seed, seconds) -> int:
    status = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", w["name"],
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                status = 1
            if not lines:
                print(f"{w['name']}: no result (exit code {proc.returncode})")
                continue
            result = json.loads(lines[-1])
            head = f"{w['name']} trace={trace}"
            print(f"{head} correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} failed_share={result['failed'] / result['attempted']:.4f}")
            for metric, v in result["metrics"].items():
                print(f"  {metric:42s} {v['value']:>16.6g} {v['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run one workload; all of them when left out")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload is None:
        return run_all(spec, args.seed, seconds)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
    return run_workload(spec, args.workload, args.seed, seconds, args.trace)


if __name__ == "__main__":
    ensure_reproducible()
    sys.exit(main())
