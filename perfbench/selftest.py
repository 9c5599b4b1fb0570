#!/usr/bin/env python3
"""Tests of the benchmark itself: python3 perfbench/selftest.py

They check that traced runs repeat their counts exactly, that the oracles
reject wrong answers, that the tracer leaves recursion unwrapped and
accounts self time exactly, that scaling to the reference speed cancels a
drift of the machine, and that the benchmark refuses to run under python
-O or without the engine's source.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads as W  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = run.load_spec()
EXACT_UNITS = {"count", "count/step"}


def bench(*args, python_flags=(), cwd=ROOT):
    return subprocess.run([sys.executable, *python_flags, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def span_shape(workload):
    with open(os.path.join(run.OUT, f"spans-{workload}.csv"), encoding="utf-8") as fh:
        return [(row["span"], row["name"], row["parent"], row["op"]) for row in csv.DictReader(fh)]


class TracedRunsRepeat(unittest.TestCase):
    def test_counts_and_span_trees_repeat_exactly(self):
        for w in SPEC["workloads"]:
            name = w["name"]
            results, shapes = [], []
            for _ in range(2):
                proc = bench("--workload", name, "--seed", "3", "--trace", "1")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
                shapes.append(span_shape(name))
            first, second = (r["metrics"] for r in results)
            for metric in SPEC["per_layer"]:
                if metric["unit"] in EXACT_UNITS or metric["name"].endswith("hit_ratio"):
                    self.assertEqual(first[metric["name"]], second[metric["name"]], (name, metric["name"]))
            self.assertEqual(shapes[0], shapes[1], name)


class OraclesRejectWrongAnswers(unittest.TestCase):
    """Each check must flag a tampered answer as wrong."""

    def first_ops(self, cls, n, keep=lambda op: True):
        workload, _ = run.set_up(cls)
        inputs = run.op_stream(workload, 11)
        ops = []
        while len(ops) < n:
            op = next(inputs)
            if keep(op):
                ops.append(op)
        return workload, ops

    def test_fol_flipped_verdict(self):
        workload, ops = self.first_ops(W.FolEqualCli, 2)
        for op in ops:
            code, text = workload.run(op)
            self.assertIsNone(workload.check(op, (code, text)).error)
            report = json.loads(text)
            report["verdict"] = "not_equal" if report["verdict"] == "equal" else "equal"
            self.assertIsNotNone(workload.check(op, (1 - code, json.dumps(report))).error)

    def test_fol_report_that_does_not_replay(self):
        workload, [op] = self.first_ops(W.FolEqualCli, 1, lambda op: op[1])
        code, text = workload.run(op)
        report = json.loads(text)
        steps = report["left"]["trace"] or report["right"]["trace"]
        self.assertTrue(steps, "pick a seed whose first equal pair takes a step")
        steps[0]["result"] = steps[0]["source"]
        self.assertIsNotNone(workload.check(op, (code, json.dumps(report))).error)

    def test_beta_wrong_normal_form(self):
        workload, [op] = self.first_ops(W.BetaGeneral, 1, lambda op: op[0] != "step")
        result = workload.run(op)
        self.assertIsNone(workload.check(op, result).error)
        terms = workload.e.terms
        result.term = terms.App("app", (result.term, terms.AtomTerm(terms.Atom("b"))))
        self.assertIsNotNone(workload.check(op, result).error)

    def test_search_found_on_underivable_pair(self):
        workload, [op] = self.first_ops(W.NonclosedSearch, 1, lambda op: not op[4])
        result = workload.run(op)
        self.assertFalse(result.found)
        result.found, result.trace = True, []
        self.assertIsNotNone(workload.check(op, result).error)

    def test_alpha_and_match_wrong_answers(self):
        workload, ops = self.first_ops(W.AlphaMatchDeep, 6)  # the first deep input is op 19
        for op in ops:
            out = workload.run(op)
            self.assertIsNone(workload.check(op, out).error)
            if op[0] == "alpha":
                self.assertIsNotNone(workload.check(op, not out).error)
            elif out is not None:
                terms = workload.e.terms
                wrong = terms.Substitution({x: terms.AtomTerm(terms.Atom("zz")) for x in out.sigma})
                self.assertIsNotNone(workload.check(op, type(out)(wrong)).error)


class TracerAccounting(unittest.TestCase):
    def setUp(self):
        self.workload, _ = run.set_up(W.AlphaMatchDeep)

    def traced(self, fn, *args):
        tracer = Tracer()
        tracer.install()
        try:
            result = tracer.span("op", fn, *args)
        finally:
            tracer.uninstall()
        return tracer, result

    def test_recursion_stays_unwrapped(self):
        nomrew = self.workload.e.nomrew
        s, t = self.workload._chain_pair(300, 1, 2, True)
        tracer, result = self.traced(nomrew.alpha_holds, nomrew.EMPTY_CTX, s, t)
        self.assertTrue(result)
        self.assertEqual(tracer.count("alpha.alpha_holds"), 1)
        self.assertEqual(tracer.count("terms.act"), 300)
        self.assertIs(nomrew.alpha_holds, self.workload.e.alpha.alpha_holds)
        self.assertFalse(hasattr(nomrew.alpha_holds, "__wrapped__"))

    def test_self_times_add_up_to_the_root_span(self):
        nomrew = self.workload.e.nomrew
        op = next(run.op_stream(self.workload, 2))
        tracer, _ = self.traced(self.workload.run, op)
        root = max(range(len(tracer.span_id)), key=lambda i: tracer.span_end[i] - tracer.span_start[i])
        self.assertEqual(tracer.names[tracer.span_name[root]], "op")
        total = sum(tracer.self_s.values())
        duration = tracer.span_end[root] - tracer.span_start[root]
        self.assertTrue(math.isclose(total, duration, rel_tol=1e-9), (total, duration))
        del nomrew


class ReferenceSpeed(unittest.TestCase):
    def test_drift_that_slows_op_and_reference_alike_cancels(self):
        ref = run.REF_MS / 1000
        steady, drifting = run.Pass(None), run.Pass(None)
        for i in range(30):
            slowdown = 1.4 if 10 <= i < 20 else 1.0
            steady.latencies.append(0.02 * (1 + i % 3))
            steady.references.append(ref)
            drifting.latencies.append(steady.latencies[-1] * slowdown)
            drifting.references.append(ref * slowdown)
        self.assertEqual(steady.scaled_latencies(), steady.latencies)
        scaled = drifting.scaled_latencies()
        for i in [*range(5), *range(15, 30)]:  # the window sees one speed
            self.assertTrue(math.isclose(scaled[i], steady.latencies[i]), i)
        self.assertGreater(sum(drifting.latencies), 1.1 * sum(steady.latencies))

    def test_an_engine_that_is_twice_as_slow_reads_twice_as_slow(self):
        refs = [run.time_reference() for _ in range(5)]
        self.assertTrue(math.isclose(run.scale(0.2, refs), 2 * run.scale(0.1, refs)))


class Refusals(unittest.TestCase):
    def test_refuses_python_O(self):
        proc = bench("--workload", "beta-general", "--seed", "1", "--seconds", "1", "--trace", "0",
                     python_flags=("-O",))
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")
        self.assertIn("-O", proc.stderr)

    def test_fails_without_engine_source(self):
        bare = os.path.join(run.OUT, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = bench("--workload", "fol-equal-cli", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
