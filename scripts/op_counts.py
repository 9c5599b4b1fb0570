#!/usr/bin/env python3
"""Count the work of a perfbench workload's first ops, and digest their
answers, so two checkouts can be compared without timing anything.

The script reads the workload and its seeded op stream from perfbench
(`workloads.py`, `run.op_stream`), imports the engine from this checkout's
`src/`, runs the first 5 ops untraced to warm up, and then runs the first
OPS ops again under `sys.settrace` with `f_trace_opcodes` set on every
frame whose code lies in the engine's package.  It prints:

- the opcodes executed and the Python calls made in those frames (a
  resumed generator counts as a call);
- the `solve_match` calls;
- a sha256 digest of the answers.

The digest is taken over canonical text, not `repr`: terms pretty-printed,
contexts as sorted a#X pairs, substitutions sorted by unknown.  Atoms hash
by address, so the iteration order of a set of them, and so its `repr`,
can change between processes.  An op that raises digests as the name of
its exception.  The answers are not checked against perfbench's oracles,
and nothing is written under perfbench/.

Counts repeat only under one hash seed, so the script runs itself again in
a fresh process with PYTHONHASHSEED=0 when that is not already set.  Work
done in C (dict and set operations, hashing, regex scans) is not counted,
and neither are Python frames whose code lies outside the engine's
package, such as `functools.cached_property.__get__` and the lock it takes
on a first read before Python 3.12: a change that removes such work shows
in seconds, not in opcodes.

    python scripts/op_counts.py WORKLOAD [--seed N] [--ops 100]
"""

import argparse
import hashlib
import json
import os
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WARM_UP = 5


def canonical(x, e):
    """x as JSON-ready values that do not depend on the process."""
    if isinstance(x, e.terms.Term):
        return e.syntax.pretty(x)
    if isinstance(x, e.terms.Permutation):
        return e.syntax.pretty_perm(x)
    if isinstance(x, e.nomrew.FreshnessContext):
        return sorted(f"{a.name}#{u.name}" for a, u in x)
    if isinstance(x, e.terms.Substitution):
        return sorted((u.name, e.syntax.pretty(t)) for u, t in x.items())
    if is_dataclass(x):
        return [type(x).__name__, *(canonical(getattr(x, f.name), e) for f in fields(x))]
    if isinstance(x, (list, tuple)):
        return [canonical(v, e) for v in x]
    if x is None or isinstance(x, (bool, int, float, str)):
        return x
    raise TypeError(f"no canonical text for {type(x).__name__}")


def count(workload, ops):
    """Run the ops under the tracer; the counts and the answers' digest."""
    e = workload.e
    package = str(Path(e.nomrew.__file__).parent) + os.sep
    solve_match = e.matching.solve_match.__code__
    counts = dict.fromkeys(("opcodes", "python_calls", "solve_match"), 0)

    def local(frame, event, arg):
        if event == "opcode":
            counts["opcodes"] += 1
        return local

    def enter(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(package):
            return None
        counts["python_calls"] += 1
        counts["solve_match"] += code is solve_match
        frame.f_trace_opcodes = True
        return local

    digest = hashlib.sha256()
    for op in ops:
        sys.settrace(enter)
        try:
            out = answer(workload, op)
        finally:
            sys.settrace(None)
        digest.update(json.dumps(canonical(out, e)).encode() + b"\n")
    return counts, digest.hexdigest()


def answer(workload, op):
    """The op's output, or the name of the exception it raised: perfbench
    counts such an op as failed, and the run goes on."""
    try:
        return workload.run(op)
    except Exception as exc:
        return ["raised", type(exc).__name__]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--ops", type=int, default=100)
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True  # leave no cache under perfbench/
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from run import import_engine, op_stream
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    workload = cls(*import_engine(cls.theories))
    stream = op_stream(workload, args.seed)
    ops = [next(stream) for _ in range(max(args.ops, WARM_UP))]
    for op in ops[:WARM_UP]:
        answer(workload, op)
    counts, digest = count(workload, ops[: args.ops])
    print(f"workload {args.workload} seed {args.seed} ops {args.ops}")
    for name, n in counts.items():
        print(f"{name} {n}")
    print(f"digest {digest}")


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})
    main()
