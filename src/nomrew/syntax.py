"""Concrete syntax for terms, freshness contexts and theory files.

The surface syntax is plain ASCII: atoms are lowercase-initial identifiers,
unknowns are uppercase-initial, suspensions write their swaps in front of a
dot as in (a b)(c d).X, abstraction is [a]t, application is f(t1,...,tn)
with 0-ary formers written bare, freshness is a#X, and a theory file is a
sequence of `sig`, `rule` and `axiom` statements terminated by semicolons.
`//` starts a line comment.  The `$` character is reserved for
machine-generated names and is rejected in user input.

The reader is one regular-expression scanner and one term loop with an
explicit stack of open binders and applications, so it takes any depth.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .alpha import FreshnessContext
from .rewrite import RewriteRule, RuleError, Theory
from .terms import (
    MACHINE_MARK,
    Abstraction,
    App,
    Atom,
    AtomTerm,
    NominalError,
    Permutation,
    Signature,
    SignatureError,
    Substitution,
    Suspension,
    Term,
    Unknown,
    var,
)


class ParseError(NominalError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


PUNCT = {"(": "LPAREN", ")": "RPAREN", "[": "LBRACK", "]": "RBRACK",
         ".": "DOT", ",": "COMMA", "#": "HASH", ":": "COLON", ";": "SEMI", "=": "EQ"}


class Token(NamedTuple):
    kind: str  # IDENT | NAT | one of PUNCT values | TURNSTILE | ARROW | EOF
    text: str
    line: int
    col: int


# One alternative per token kind, tried in order; BAD takes any other
# character, so the matches cover the text with no gaps.  IDENT's [^\W\d]
# also takes numerals that are not digits, such as U+00BD, which start no name.
_TOKEN = re.compile(
    r"(?P<NEWLINE>\n)|(?P<SPACE>[ \t\r]+)|(?P<COMMENT>//[^\n]*)|(?P<TURNSTILE>\|-)|(?P<ARROW>->)|(?P<NAT>\d+)"
    rf"|(?P<IDENT>[^\W\d][\w'{re.escape(MACHINE_MARK)}]*)|(?P<PUNCT>[{re.escape(''.join(PUNCT))}])|(?P<BAD>.)"
)


def tokenize(text: str, allow_machine: bool = False) -> list[Token]:
    """The tokens of text, each with the line and column it starts at.  Tab
    and carriage return count as one column; a comment advances none."""
    toks: list[Token] = []
    line, col = 1, 1
    for m in _TOKEN.finditer(text):
        kind, word = m.lastgroup, m.group()
        if kind == "NEWLINE":
            line, col = line + 1, 1
        elif kind == "BAD" or (kind == "IDENT" and not (word[0].isalpha() or word[0] == "_")):
            raise ParseError(f"unexpected character {word[0]!r}", line, col)
        elif kind == "IDENT" and MACHINE_MARK in word and not allow_machine:
            raise ParseError(f"'{MACHINE_MARK}' is reserved for machine-generated names", line, col)
        elif kind != "COMMENT":
            if kind != "SPACE":
                toks.append(Token(PUNCT[word] if kind == "PUNCT" else kind, word, line, col))
            col += len(word)
    toks.append(Token("EOF", "", line, col))
    return toks


def _is_unknown_name(name: str) -> bool:
    return name[0].isupper()


class _Parser:
    def __init__(self, text: str, signature: Signature | None = None, allow_machine: bool = False):
        self.toks = tokenize(text, allow_machine)
        self.pos = 0
        self.signature = signature
        self.inferred: dict[str, int] = {}  # arities seen when no signature is given

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {what or kind}, found {tok.text or 'end of input'!r}", tok.line, tok.col)
        return tok

    def fail(self, message: str, tok: Token):
        raise ParseError(message, tok.line, tok.col)

    # terms ---------------------------------------------------------------

    def term(self) -> Term:
        """A term, read in one loop with an explicit stack of open frames: the
        Atom of each `[a]` waiting for its body, and the name token and the
        arguments so far of each `f(` waiting for its `)`."""
        frames: list = []
        while True:
            tok = self.peek()
            if tok.kind == "LBRACK":
                self.next()
                frames.append(self.atom_name())
                self.expect("RBRACK", "']'")
                continue
            if tok.kind == "IDENT" and not _is_unknown_name(tok.text) and self.peek(1).kind == "LPAREN":
                self.pos += 2  # the name and its '('
                frames.append((tok, []))
                continue
            t = self.leaf()
            while frames:
                top = frames.pop()
                if type(top) is Atom:
                    t = Abstraction(top, t)
                    continue
                name_tok, args = top
                args.append(t)
                if self.peek().kind == "COMMA":
                    self.next()
                    frames.append(top)
                    break  # on to the next argument
                self.expect("RPAREN", "')'")
                self.check_former(name_tok.text, len(args), name_tok)
                t = App(name_tok.text, tuple(args))
            else:
                return t

    def leaf(self) -> Term:
        """A suspension, an unknown, a nullary former or an atom."""
        tok = self.peek()
        if tok.kind == "LPAREN":
            return self.suspension()
        if tok.kind != "IDENT":
            self.fail(f"expected a term, found {tok.text or 'end of input'!r}", tok)
        self.next()
        name = tok.text
        if _is_unknown_name(name):
            return var(Unknown(name))
        if name in (self.inferred if self.signature is None else self.signature):
            self.check_former(name, 0, tok)
            return App(name, ())
        return AtomTerm(Atom(name))

    def suspension(self) -> Term:
        swaps = []
        while self.peek().kind == "LPAREN":
            self.next()
            first = self.atom_name()
            second = self.atom_name()
            self.expect("RPAREN", "')'")
            swaps.append((first, second))
        self.expect("DOT", "'.' after swaps")
        tok = self.expect("IDENT", "an unknown")
        if not _is_unknown_name(tok.text):
            self.fail(f"expected an unknown (uppercase-initial), found {tok.text!r}", tok)
        return Suspension(Permutation(swaps), Unknown(tok.text))

    def atom_name(self) -> Atom:
        tok = self.expect("IDENT", "an atom")
        if _is_unknown_name(tok.text):
            self.fail(f"expected an atom (lowercase-initial), found {tok.text!r}", tok)
        return Atom(tok.text)

    def check_former(self, name: str, arity: int, tok: Token):
        if self.signature is not None:
            try:
                declared = self.signature.arity(name)
            except SignatureError:
                self.fail(f"unknown term-former {name!r}", tok)
            if declared != arity:
                self.fail(f"former {name!r} has arity {declared}, applied to {arity} arguments", tok)
        else:
            if self.inferred.setdefault(name, arity) != arity:
                self.fail(
                    f"former {name!r} used with arities {self.inferred[name]} and {arity}", tok
                )

    # contexts and theories -------------------------------------------------

    def context(self) -> FreshnessContext:
        pairs = []
        if self.peek().kind == "IDENT":
            while True:
                atom = self.atom_name()
                self.expect("HASH", "'#'")
                tok = self.expect("IDENT", "an unknown")
                if not _is_unknown_name(tok.text):
                    self.fail(f"expected an unknown after '#', found {tok.text!r}", tok)
                pairs.append((atom, Unknown(tok.text)))
                if self.peek().kind != "COMMA":
                    break
                self.next()
        return FreshnessContext(frozenset(pairs))

    def theory(self) -> Theory:
        # Rules are checked against the signature as they are parsed, so sig
        # statements must precede the rules that use their formers.
        self.signature = Signature(())
        name = ""
        arities: list[tuple[str, int]] = []
        entries: list[tuple[RewriteRule, str, Token]] = []
        while self.peek().kind != "EOF":
            tok = self.next()
            if tok.kind != "IDENT":
                self.fail(f"expected a statement, found {tok.text!r}", tok)
            if tok.text == "theory":
                name = self.expect("IDENT", "a theory name").text
                self.expect("SEMI", "';'")
            elif tok.text == "sig":
                while self.peek().kind == "IDENT":
                    former = self.next().text
                    self.expect("COLON", "':'")
                    arity = int(self.expect("NAT", "an arity").text)
                    arities.append((former, arity))
                self.expect("SEMI", "';'")
                try:
                    self.signature = Signature.of(arities)
                except SignatureError as e:
                    self.fail(str(e), tok)
            elif tok.text in ("rule", "axiom"):
                rule_tok = self.expect("IDENT", "a rule name")
                self.expect("COLON", "':'")
                ctx = FreshnessContext(frozenset())
                # A body has a context exactly when it opens with one: no
                # term starts with '|-' or with an identifier and '#'.
                first = self.peek().kind
                if first == "TURNSTILE" or (first == "IDENT" and self.peek(1).kind == "HASH"):
                    ctx = self.context()
                    self.expect("TURNSTILE", "'|-'")
                lhs = self.term()
                sep = self.next()
                if tok.text == "rule" and sep.kind != "ARROW":
                    self.fail("expected '->' in a rule (use 'axiom' for '=')", sep)
                if tok.text == "axiom" and sep.kind != "EQ":
                    self.fail("expected '=' in an axiom (use 'rule' for '->')", sep)
                rhs = self.term()
                self.expect("SEMI", "';'")
                entries.append((RewriteRule(rule_tok.text, ctx, lhs, rhs), tok.text, rule_tok))
            else:
                self.fail(f"expected 'theory', 'sig', 'rule' or 'axiom', found {tok.text!r}", tok)

        kinds = {kind for _, kind, _ in entries}
        if kinds == {"rule"} or not kinds:
            theory_kind = "rewrite"
        elif kinds == {"axiom"}:
            theory_kind = "equational"
        else:
            _, _, where = next(e for e in entries if e[1] == "axiom")
            self.fail("a theory may not mix rules and axioms", where)

        seen_names = set()
        checked = []
        for rule, _, where in entries:
            if rule.name in seen_names:
                self.fail(f"duplicate rule name {rule.name}", where)
            seen_names.add(rule.name)
            try:
                rule.validate()
            except RuleError as e:
                self.fail(str(e), where)
            checked.append(rule)
        return Theory(self.signature, tuple(checked), theory_kind, name)


def parse_term(text: str, signature: Signature | None = None, allow_machine: bool = False) -> Term:
    """Parse a term.  With a signature, formers are validated strictly;
    without one, arities are inferred and bare lowercase names are atoms."""
    p = _Parser(text, signature, allow_machine)
    t = p.term()
    tok = p.peek()
    if tok.kind != "EOF":
        p.fail(f"trailing input {tok.text!r}", tok)
    return t


def parse_context(text: str, allow_machine: bool = False) -> FreshnessContext:
    p = _Parser(text, None, allow_machine)
    ctx = p.context()
    tok = p.peek()
    if tok.kind != "EOF":
        p.fail(f"trailing input {tok.text!r}", tok)
    return ctx


def parse_theory(text: str, allow_machine: bool = False) -> Theory:
    return _Parser(text, None, allow_machine).theory()


# printing ------------------------------------------------------------------


def pretty_perm(pi: Permutation) -> str:
    if pi.is_identity:
        return ""
    return "".join(f"({a.name} {b.name})" for a, b in pi.swaps)


def pretty(t: Term) -> str:
    """The concrete syntax of t, its pieces emitted in order by one worklist
    pass and joined once."""
    out: list[str] = []
    stack: list = [t]
    while stack:
        u = stack.pop()
        kind = type(u)
        if kind is str:
            out.append(u)
        elif kind is AtomTerm:
            out.append(u.atom.name)
        elif kind is Suspension:
            out.append(u.unknown.name if u.perm.is_identity else f"{pretty_perm(u.perm)}.{u.unknown.name}")
        elif kind is Abstraction:
            stack += (u.body, f"[{u.atom.name}]")
        elif kind is App:
            out.append(u.former)
            if u.args:  # "(", the arguments between ", " and ")" come off the stack in order
                stack.append(")")
                for arg in reversed(u.args):
                    stack += (arg, ", ")
                stack[-1] = "("
        else:
            raise TypeError(f"not a term: {u!r}")
    return "".join(out)


def pretty_ctx(ctx: FreshnessContext) -> str:
    return ", ".join(f"{a.name}#{x.name}" for a, x in sorted(ctx))


def pretty_subst(sigma: Substitution) -> str:
    items = sorted(sigma.items(), key=lambda kv: kv[0].name)
    return "{" + ", ".join(f"{x.name} -> {pretty(t)}" for x, t in items) + "}"


def pretty_rule(rule: RewriteRule, arrow: str = "->", keyword: str = "rule") -> str:
    ctx = f"{pretty_ctx(rule.ctx)} |- " if len(rule.ctx) else ""
    return f"{keyword} {rule.name} : {ctx}{pretty(rule.lhs)} {arrow} {pretty(rule.rhs)} ;"


def pretty_theory(theory: Theory) -> str:
    lines = []
    if theory.name:
        lines.append(f"theory {theory.name} ;")
    if theory.signature.arities:
        decls = " ".join(f"{f}:{n}" for f, n in theory.signature.arities)
        lines.append(f"sig {decls} ;")
    arrow, keyword = ("=", "axiom") if theory.kind == "equational" else ("->", "rule")
    for rule in theory.rules:
        lines.append(pretty_rule(rule, arrow, keyword))
    return "\n".join(lines) + "\n"
