import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_demo_walkthrough_runs(capsys):
    runpy.run_path(str(SCRIPTS / "demo_walkthrough.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "every step replays" in out and "found=True" in out


def test_bench_closed_vs_general_runs(capsys, monkeypatch):
    # The script asserts that both engines reach alpha-equal normal forms.
    monkeypatch.setattr("sys.argv", ["bench_closed_vs_general.py", "1", "2", "3", "4"])
    runpy.run_path(str(SCRIPTS / "bench_closed_vs_general.py"), run_name="__main__")
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[-14:] == [
        "closed", "matches", "closed", "fit-pairs", "closed", "perm-lists", "closed", "scrubbed-nodes",
        "general", "matches", "general", "fit-pairs", "general", "perm-lists",
    ]
    assert [row.split()[0] for row in rows] == ["1", "2", "3", "4"]
    # Every rule at every position visited makes 35 / 180 / 820 / 3,520
    # (position, rule) pairs at heights 1-4; the tree answers only the rules
    # whose lhs shape fits the position's.
    general_lists = 0
    for row, every_rule in zip(rows, (35, 180, 820, 3520)):
        steps, closed_matches, closed_fits, closed_lists, scrubbed, general_matches, general_fits, lists = map(
            int, row.split()[3:]
        )
        # Every closed step is one successful match.  General keeps each
        # hole's instances for the whole normalization, and the towers repeat
        # holes, so it may make fewer matches than steps.
        assert steps > 0 and closed_matches >= steps and general_matches > 0
        assert 0 < closed_fits == general_fits < every_rule
        # Closed builds no permutation list.  General builds one per renamed
        # rule and universe, kept across heights since the theory is shared.
        assert closed_lists == 0
        # Each closed step scrubs the instance it puts in the hole, a node at least.
        assert scrubbed >= steps
        general_lists += lists
    assert general_lists > 0


def test_alpha_scaling_runs(capsys, monkeypatch):
    # The script asserts each verdict; small sizes keep the smoke run quick.
    monkeypatch.setattr("sys.argv", ["alpha_scaling.py", "10", "100"])
    runpy.run_path(str(SCRIPTS / "alpha_scaling.py"), run_name="__main__")
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["binders", "equal", "(s)", "unequal", "(s)", "root", "differs", "(s)"]
    assert [row.split()[0] for row in rows] == ["10", "100"]
    assert all(len(row.split()) == 4 for row in rows)


def test_match_scaling_runs(capsys, monkeypatch):
    # The script asserts each verdict and binding; small sizes keep it quick.
    monkeypatch.setattr("sys.argv", ["match_scaling.py", "1", "10", "100"])
    runpy.run_path(str(SCRIPTS / "match_scaling.py"), run_name="__main__")
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["binders", "instance", "(s)", "non-instance", "(s)", "root", "differs", "(s)"]
    assert [row.split()[0] for row in rows] == ["1", "10", "100"]
    assert all(len(row.split()) == 4 for row in rows)


def test_action_scaling_runs(capsys, monkeypatch):
    # The script checks both actions' results; small sizes keep it quick.
    monkeypatch.setattr("sys.argv", ["action_scaling.py", "30", "300"])
    runpy.run_path(str(SCRIPTS / "action_scaling.py"), run_name="__main__")
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["nodes", "act", "us/1k", "nodes", "substitute", "us/1k", "nodes"]
    assert [row.split()[0] for row in rows] == ["31", "301"]
    assert all(len(row.split()) == 3 for row in rows)


def test_cli_phases_runs(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["cli_phases.py", "1"])
    runpy.run_path(str(SCRIPTS / "cli_phases.py"), run_name="__main__")
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["phase", "us/op"]
    phases = ["argparse", "theory load", "context parse", "term parse", "decide_equal", "report dicts", "JSON text"]
    assert [row.rsplit(None, 1)[0] for row in rows] == [*phases, "total"]
    assert all(float(row.split()[-1]) > 0 for row in rows)


def test_variant_counts_runs(capsys, monkeypatch):
    # The script asserts that the cap on renamed binders changes no search's
    # answer or trace; a few searches per suite keep the smoke run quick.
    monkeypatch.setattr("sys.argv", ["variant_counts.py", "6"])
    monkeypatch.setattr("sys.path", [*sys.path])  # the script adds perfbench/
    runpy.run_path(str(SCRIPTS / "variant_counts.py"), run_name="__main__")
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["suite", "side", "found", "candidates", "renamed", "variants", "solve_match", "classes"]
    suites = ["nonclosed-search", "stack-1", "stack-2", "stack-3", "stack-4"]
    assert [row.split()[:2] for row in rows] == [[suite, side] for suite in suites for side in ("capped", "every")]
    for capped, every in zip(rows[::2], rows[1::2]):
        capped, every = [int(n) for n in capped.split()[2:]], [int(n) for n in every.split()[2:]]
        assert capped[0] == every[0] and capped[-1] == every[-1]  # found, classes
        assert all(c <= e for c, e in zip(capped[1:-1], every[1:-1]))
    # Four binders over one redex: the cap drops most renamed candidates.
    assert int(rows[-2].split()[4]) < int(rows[-1].split()[4]) / 1.5


def test_op_counts_repeat_in_fresh_processes():
    # The script runs itself again under PYTHONHASHSEED=0 when that is not
    # set, so two runs under other hash seeds print the same counts and
    # digest; it writes nothing under perfbench/.
    perfbench = SCRIPTS.parent / "perfbench"
    before = sorted(perfbench.rglob("*"))
    outs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        argv = [sys.executable, str(SCRIPTS / "op_counts.py"), "beta-general", "--ops", "3"]
        outs.append(subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout)
    assert outs[0] == outs[1]
    lines = [line.split() for line in outs[0].splitlines()]
    assert lines[0] == ["workload", "beta-general", "seed", "1", "ops", "3"]
    assert [line[0] for line in lines[1:]] == ["opcodes", "python_calls", "solve_match", "digest"]
    opcodes, calls, matches = (int(line[1]) for line in lines[1:4])
    assert opcodes > calls > matches > 0 and len(lines[4][1]) == 64
    assert sorted(perfbench.rglob("*")) == before


def test_pinned_digests_name_every_workload():
    # CI diffs scripts/op_counts.py's digests against this file, one line
    # per seed, 1 then 3, and workload of BENCHMARK.json: the name, the seed
    # and a sha256 digest.
    spec = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())
    lines = [line.split() for line in (SCRIPTS / "op_counts_digests.txt").read_text().splitlines()]
    assert [(name, seed) for name, seed, _ in lines] == [(w["name"], seed) for seed in ("1", "3") for w in spec["workloads"]]
    assert all(len(digest) == 64 and int(digest, 16) >= 0 for _, _, digest in lines)


CODE_LINES_MODULE = '''"""Module doc,
two lines."""

# a comment
import os  # trailing comment


def f(x):
    """One line, µ."""
    s = """not a
docstring"""
    return x  # comment


"""A bare string
statement."""
def g(): """a docstring on a code line"""
'''


def test_code_lines_splits_a_package(tmp_path, capsys, monkeypatch):
    (tmp_path / "sub").mkdir()
    (tmp_path / "a.py").write_text(CODE_LINES_MODULE, encoding="utf-8")
    (tmp_path / "sub" / "b.py").write_text("x = 1\n\n# end\n")
    monkeypatch.setattr("sys.argv", ["code_lines.py", str(tmp_path), "--json"])
    runpy.run_path(str(SCRIPTS / "code_lines.py"), run_name="__main__")
    got = json.loads(capsys.readouterr().out)
    # a.py: code on lines 5, 8, 10-12 and 17; docstrings on 1-2, 9 and
    # 15-16; a comment alone on 4; blank 3, 6-7 and 13-14.
    assert got["modules"] == {
        "a.py": {"code": 6, "docstring": 5, "comment": 1, "blank": 5},
        "sub/b.py": {"code": 1, "docstring": 0, "comment": 1, "blank": 1},
    }
    assert got["total"] == {"code": 7, "docstring": 5, "comment": 2, "blank": 6}
    monkeypatch.setattr("sys.argv", ["code_lines.py", str(tmp_path)])
    runpy.run_path(str(SCRIPTS / "code_lines.py"), run_name="__main__")
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["module", "code", "docstring", "comment", "blank", "lines"]
    assert [row.split() for row in rows] == [
        ["a.py", "6", "5", "1", "5", "17"], ["sub/b.py", "1", "0", "1", "1", "3"], ["total", "7", "5", "2", "6", "20"],
    ]
