"""Concrete syntax for terms, freshness contexts and theory files.

The surface syntax is plain ASCII: atoms are lowercase-initial identifiers,
unknowns are uppercase-initial, suspensions write their swaps in front of a
dot as in (a b)(c d).X, abstraction is [a]t, application is f(t1,...,tn)
with 0-ary formers written bare, freshness is a#X, and a theory file is a
sequence of `sig`, `rule` and `axiom` statements terminated by semicolons.
`//` starts a line comment.  The `$` character is reserved for
machine-generated names and is rejected in user input.
"""

from __future__ import annotations

from dataclasses import dataclass

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
KEYWORDS = {"sig", "rule", "axiom", "theory"}


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT | NAT | one of PUNCT values | TURNSTILE | ARROW | EOF
    text: str
    line: int
    col: int


def tokenize(text: str, allow_machine: bool = False) -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("|-", i):
            toks.append(Token("TURNSTILE", "|-", line, col))
            i += 2
            col += 2
            continue
        if text.startswith("->", i):
            toks.append(Token("ARROW", "->", line, col))
            i += 2
            col += 2
            continue
        if ch in PUNCT:
            toks.append(Token(PUNCT[ch], ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("NAT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'" or text[j] == MACHINE_MARK):
                j += 1
            word = text[i:j]
            if MACHINE_MARK in word and not allow_machine:
                raise ParseError(f"'{MACHINE_MARK}' is reserved for machine-generated names", line, col)
            toks.append(Token("IDENT", word, line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
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
        tok = self.peek()
        if tok.kind == "LBRACK":
            self.next()
            atom = self.atom_name()
            self.expect("RBRACK", "']'")
            return Abstraction(atom, self.term())
        if tok.kind == "LPAREN":
            return self.suspension()
        if tok.kind == "IDENT":
            if _is_unknown_name(tok.text):
                self.next()
                return var(Unknown(tok.text))
            return self.atom_or_app()
        self.fail(f"expected a term, found {tok.text or 'end of input'!r}", tok)

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

    def atom_or_app(self) -> Term:
        tok = self.next()
        name = tok.text
        if self.peek().kind == "LPAREN":
            self.next()
            args = [self.term()]
            while self.peek().kind == "COMMA":
                self.next()
                args.append(self.term())
            self.expect("RPAREN", "')'")
            self.check_former(name, len(args), tok)
            return App(name, tuple(args))
        if self.signature is not None and name in self.signature:
            self.check_former(name, 0, tok)
            return App(name, ())
        if self.signature is None and name in self.inferred:
            self.check_former(name, 0, tok)
            return App(name, ())
        return AtomTerm(Atom(name))

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

    def _turnstile_before_rule_body(self) -> bool:
        depth = 0
        ahead = 0
        while True:
            tok = self.peek(ahead)
            if tok.kind == "EOF" or tok.kind == "SEMI":
                return False
            if tok.kind == "TURNSTILE" and depth == 0:
                return True
            if tok.kind in ("ARROW", "EQ") and depth == 0:
                return False
            if tok.kind == "LPAREN":
                depth += 1
            elif tok.kind == "RPAREN":
                depth -= 1
            ahead += 1

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
                if self._turnstile_before_rule_body():
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
