"""Growth of the matching and scrubbing walks, read as opcode counts.

Each check runs a library call under `sys.settrace` with `f_trace_opcodes`
set on every frame whose code lies in the `nomrew` package, as
scripts/op_counts.py does, and counts the opcodes executed there.  The
counts depend only on the code and the input, not on the machine, so a
walk that turns quadratic again fails here however fast the host is: ten
times the binders may cost at most twelve times the opcodes.
"""

import os
import sys
from pathlib import Path

import pytest

import nomrew
from nomrew import EMPTY_CTX, Atom, AtomTerm, Substitution, Unknown, scrub, solve_match, var
from test_closed import _machine_binders, _nested
from test_matching import _binder_chain

PACKAGE = str(Path(nomrew.__file__).parent) + os.sep
GROWTH = 12  # the most opcodes may grow for ten times the binders


def opcodes(call, *args):
    """call(*args) and the opcodes it executed in the package's frames."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def enter(frame, event, arg):
        if not frame.f_code.co_filename.startswith(PACKAGE):
            return None
        frame.f_trace_opcodes = True
        return local

    outer = sys.gettrace()
    sys.settrace(enter)
    try:
        out = call(*args)
    finally:
        sys.settrace(outer)
    return out, count


def test_counter_sees_only_the_package():
    _, none = opcodes(sorted, range(100))
    _, some = opcodes(solve_match, _binder_chain(3))
    assert none == 0 < some


def test_solve_match_is_linear_in_nested_mismatched_binders():
    counts = []
    for n in (100, 1000):
        sol, count = opcodes(solve_match, _binder_chain(n))
        assert sol.sigma == Substitution({Unknown("X"): AtomTerm(Atom("c"))})
        counts.append(count)
    assert counts[1] <= GROWTH * counts[0], counts


@pytest.mark.parametrize("bottom", [AtomTerm(Atom("c")), var(Unknown("X"))], ids=["atom", "suspension"])
def test_scrub_is_linear_in_nested_machine_binders(bottom):
    # Over the atom c every binder is renamed to p, the first pool atom
    # fresh for its body; over X, which nothing makes fresh, none is.
    pool = [Atom("p"), Atom("q")]
    counts = []
    for n in (100, 1000):
        binders = _machine_binders(n)
        out, count = opcodes(scrub, EMPTY_CTX, _nested(binders, bottom), pool)
        assert out == _nested([Atom("p")] * n if type(bottom) is AtomTerm else binders, bottom)
        counts.append(count)
    assert counts[1] <= GROWTH * counts[0], counts
