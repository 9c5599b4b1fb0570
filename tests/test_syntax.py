import itertools
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from nomrew import (
    Abstraction,
    App,
    Atom,
    AtomTerm,
    FreshnessContext,
    Signature,
    Suspension,
    Unknown,
    swap,
    var,
)
from nomrew import syntax
from nomrew.syntax import (
    ParseError,
    parse_context,
    parse_term,
    parse_theory,
    pretty,
    pretty_ctx,
    pretty_theory,
)
import reference_walkers as ref
from strategies import contexts_st, terms_st

a, b, c = Atom("a"), Atom("b"), Atom("c")
X, Y = Unknown("X"), Unknown("Y")
SIG = Signature.of({"lam": 1, "app": 2, "tt": 0})


def test_parse_lambda_term():
    t = parse_term("lam([a]app(X,a))", SIG)
    assert t == App("lam", (Abstraction(a, App("app", (var(X), AtomTerm(a)))),))


def test_parse_suspension():
    assert parse_term("(a b).X") == Suspension(swap(a, b), X)
    assert parse_term("(a b)(b c).X") == Suspension(swap(a, b) * swap(b, c), X)
    assert parse_term("X") == var(X)


def test_parse_nullary_former():
    assert parse_term("tt", SIG) == App("tt", ())
    assert parse_term("tt") == AtomTerm(Atom("tt"))  # no signature: an atom


def test_parse_context():
    assert parse_context("") == FreshnessContext.of()
    assert parse_context("a#X, b#Y") == FreshnessContext.of((a, X), (b, Y))


def test_parse_rule():
    th = parse_theory("sig lam:1 app:2 ;\nrule beta_eps : a#Y |- app(lam([a]Y),X) -> Y ;")
    rule = th.rules[0]
    assert rule.name == "beta_eps"
    assert rule.ctx == FreshnessContext.of((a, Y))
    assert rule.lhs == App("app", (App("lam", (Abstraction(a, var(Y)),)), var(X)))
    assert rule.rhs == var(Y)


def test_parse_rule_without_context():
    th = parse_theory("rule ab : a -> b ;")
    assert th.rules[0].ctx == FreshnessContext.of()
    assert th.kind == "rewrite"


def test_parse_axioms_make_equational_theory():
    th = parse_theory("sig f:1 ;\naxiom idem : f(f(X)) = f(X) ;")
    assert th.kind == "equational"


def test_mixed_rules_and_axioms_rejected():
    with pytest.raises(ParseError):
        parse_theory("sig f:1 ;\nrule r : f(X) -> X ;\naxiom s : f(X) = X ;")


def test_arity_error_is_positioned():
    with pytest.raises(ParseError) as err:
        parse_theory("sig lam:1 ;\nrule r : lam(X,Y) -> X ;")
    assert err.value.line == 2
    assert "arity" in str(err.value)


def test_unknown_former_rejected():
    with pytest.raises(ParseError) as err:
        parse_theory("sig lam:1 ;\nrule r : app(X,Y) -> X ;")
    assert "unknown term-former" in str(err.value)


def test_reserved_marker_rejected():
    with pytest.raises(ParseError):
        parse_term("a$1")
    assert parse_term("a$1", allow_machine=True) == AtomTerm(Atom("a$1"))


def test_rhs_unknowns_must_occur_on_lhs():
    with pytest.raises(ParseError) as err:
        parse_theory("sig f:1 ;\nrule r : f(X) -> Y ;")
    assert "rhs" in str(err.value)


def test_unconstrained_variable_lhs_rejected():
    with pytest.raises(ParseError):
        parse_theory("sig f:1 ;\nrule r : X -> f(X) ;")
    # but a constrained variable lhs is fine
    th = parse_theory("sig f:1 ;\nrule r : a#X |- X -> f(X) ;")
    assert th.rules[0].name == "r"


def test_comments_and_theory_name():
    th = parse_theory("// a comment\ntheory demo ;\nsig f:1 ;\nrule r : f(X) -> X ; // trailing\n")
    assert th.name == "demo" and len(th.rules) == 1


def test_duplicate_rule_names_rejected():
    with pytest.raises(ParseError):
        parse_theory("sig f:1 ;\nrule r : f(X) -> X ;\nrule r : f(f(X)) -> X ;")


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_term("lam([a]", SIG)
    assert err.value.line == 1 and err.value.col >= 7


@given(terms_st)
def test_term_roundtrip(t):
    sig = Signature.of({"u": 1, "g": 2})
    assert parse_term(pretty(t), sig) == t


@given(contexts_st)
def test_context_roundtrip(ctx):
    assert parse_context(pretty_ctx(ctx)) == ctx


def test_theory_roundtrip():
    text = (
        "theory demo ;\n"
        "sig lam:1 app:2 ;\n"
        "rule beta_var : app(lam([a]a),X) -> X ;\n"
        "rule eta : a#X |- lam([a]app(X,a)) -> X ;\n"
    )
    th = parse_theory(text)
    assert parse_theory(pretty_theory(th)) == th


def test_numeral_that_is_not_a_decimal_digit_is_a_parse_error():
    with pytest.raises(ParseError) as err:
        parse_theory("sig f:\u00b2 ;")
    assert (err.value.message, err.value.col) == ("unexpected character '\u00b2'", 7)


# The library reader against the tokenizer and recursive-descent reader it
# replaced (reference_walkers.Parser), through every entry point: each text
# must give equal results, or the same error at the same place.
READERS = [
    *(
        lambda text, sig=sig, machine=machine: parse_term(text, sig, allow_machine=machine)
        for sig, machine in itertools.product(
            (None, Signature.of({"u": 1, "g": 2, "tt": 0}), Signature.of({"u": 2, "g": 1})), (False, True)
        )
    ),
    *(lambda text, machine=machine: parse_context(text, allow_machine=machine) for machine in (False, True)),
    *(lambda text, machine=machine: parse_theory(text, allow_machine=machine) for machine in (False, True)),
    *(lambda text, machine=machine: syntax.tokenize(text, machine) for machine in (False, True)),
]


def _outcomes(text):
    got = []
    for read in READERS:
        try:
            got.append(read(text))
        except Exception as e:  # ParseError's text holds its line and column
            got.append((type(e), str(e)))
    return got


def assert_reads_as_reference(text):
    with mock.patch.object(syntax, "_Parser", ref.Parser), mock.patch.object(syntax, "tokenize", ref.tokenize):
        expected = _outcomes(text)
    assert _outcomes(text) == expected


@given(terms_st, contexts_st)
def test_reader_agrees_with_reference_on_printed_terms(t, ctx):
    text = pretty(t)
    assert_reads_as_reference(text)
    assert_reads_as_reference(pretty_ctx(ctx))
    assert_reads_as_reference(f"sig u:1 g:2 ;\nrule r : {pretty_ctx(ctx)} |- {text} -> {text} ; // {text}\n")


PIECES = [" ", "\t", "\r", "\n", "// c\n", "//", "$", "->", "|-", "#", "0", "7", "12", "a", "b", "a$1", "x'", "_y",
          "\u00e9", "\u00bd", "X", "Y", "f", "u(", "g(", "tt", "sig", "rule", "axiom", "theory", "(", ")", "[", "]", ".",
          ",", ":", ";", "=", "-", "|", "/"]


@given(st.lists(st.sampled_from(PIECES), max_size=40).map("".join))
@example("rule r : a -> // c")  # the end of input is where the comment starts
@example("\t\r a\r\n  b")
def test_reader_agrees_with_reference_on_token_strings(text):
    assert_reads_as_reference(text)
