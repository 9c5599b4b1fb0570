"""Concrete syntax for terms, freshness contexts and theory files.

The surface syntax is plain ASCII: atoms are lowercase-initial identifiers,
unknowns are uppercase-initial, suspensions write their swaps in front of a
dot as in (a b)(c d).X, abstraction is [a]t, application is f(t1,...,tn)
with 0-ary formers written bare, freshness is a#X, and a theory file is a
sequence of `sig`, `rule` and `axiom` statements terminated by semicolons.
`//` starts a line comment.  The `$` character is reserved for
machine-generated names and is rejected in user input.

The reader scans a text once, by `re.findall` of one pattern, into token
strings; it reads terms in one loop with an explicit stack, so it takes any
depth, and works out a line and column only for an error, from its offset.
"""

from __future__ import annotations

import re

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


# The kinds of the tokens that are neither names, numerals nor bad
# characters; "" is the end of input.
_KINDS = {"(": "LPAREN", ")": "RPAREN", "[": "LBRACK", "]": "RBRACK", ".": "DOT", ",": "COMMA", "#": "HASH",
          ":": "COLON", ";": "SEMI", "=": "EQ", "|-": "TURNSTILE", "->": "ARROW", "": "EOF"}

# Blanks and line comments; then a token and the blanks and comments after
# it: a turnstile, an arrow, a numeral, a name, or any other character, so
# the matches cover the text with no gaps.  A name's [^\W\d] also takes
# numerals that are not digits, such as U+00BD, which start no name.
_BLANKS = r"[ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*"
_LEADING = re.compile(_BLANKS)
_TOKEN = re.compile(rf"(\|-|->|\d+|[^\W\d][\w'{re.escape(MACHINE_MARK)}]*|.){_BLANKS}")


def _kind(word: str) -> str:
    """A token's kind, read off its first character: IDENT, NAT, BAD (a
    character that starts no token) or one of `_KINDS`."""
    if word in _KINDS:
        return _KINDS[word]
    first = word[0]
    return "IDENT" if first.isalpha() or first == "_" else "NAT" if first.isdecimal() else "BAD"


class _Parser:
    """A reader over the token strings of one text, `toks`, which ends with
    "" for the end of input; `pos` is the index of the next token."""

    def __init__(self, text: str, signature: Signature | None = None, allow_machine: bool = False):
        self.text = text
        self.toks = _TOKEN.findall(text, _LEADING.match(text).end()) + [""]
        self.pos = 0
        self.signature = signature
        self.allow_machine = allow_machine
        self.inferred: dict[str, int] = {}  # arities seen when no signature is given
        if MACHINE_MARK in text and not allow_machine:
            self.check_chars()

    def check_chars(self) -> None:
        """Fail at the first token that is a bad character or, unless machine
        names are allowed, a name with the machine mark in it."""
        for i, word in enumerate(self.toks):
            kind = _kind(word)
            if kind == "BAD":
                raise ParseError(f"unexpected character {word[0]!r}", *self.where(i))
            if kind == "IDENT" and MACHINE_MARK in word and not self.allow_machine:
                raise ParseError(f"'{MACHINE_MARK}' is reserved for machine-generated names", *self.where(i))

    def where(self, i: int) -> tuple[int, int]:
        """The line and column of token i: a tab or carriage return is one column
        and a comment none, so the end of input is where a closing comment starts."""
        text = self.text
        if i < len(self.toks) - 1:
            at = [m.start() for m in _TOKEN.finditer(text, _LEADING.match(text).end())][i]
        else:  # no token holds a '/', so the last line's first "//" starts its comment
            comment = text.find("//", text.rfind("\n") + 1)
            at = len(text) if comment < 0 else comment
        return text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)

    def fail(self, message: str, at: int | None = None):
        """Raise at token `at`, the next one by default; a bad character
        anywhere in the text is reported in its place."""
        self.check_chars()
        raise ParseError(message, *self.where(self.pos if at is None else at))

    def expect(self, kind: str, what: str) -> str:
        """Step over the next token, which must be of the kind; it is `what`
        in the error."""
        word = self.toks[self.pos]
        if _kind(word) != kind:
            self.fail(f"expected {what}, found {word or 'end of input'!r}")
        self.pos += 1
        return word

    def whole(self, read):
        """read(self), which must reach the end of the text."""
        got = read(self)
        if self.toks[self.pos]:
            self.fail(f"trailing input {self.toks[self.pos]!r}")
        return got

    # terms ---------------------------------------------------------------

    def term(self) -> Term:
        """A term, read in one loop with an explicit stack of open frames: the
        Atom of each `[a]` waiting for its body, and the name, its token's
        index and the arguments so far of each `f(` waiting for its `)`."""
        toks = self.toks
        frames: list = []
        while True:
            word = toks[self.pos]
            if word == "[":
                self.pos += 1
                frames.append(self.atom_name())
                self.expect("RBRACK", "']'")
                continue
            if word and toks[self.pos + 1] == "(" and _kind(word) == "IDENT" and not word[0].isupper():
                frames.append((word, self.pos, []))
                self.pos += 2  # the name and its '('
                continue
            t = self.leaf()
            while frames:
                top = frames.pop()
                if type(top) is Atom:
                    t = Abstraction(top, t)
                    continue
                name, at, args = top
                args.append(t)
                if toks[self.pos] == ",":
                    self.pos += 1
                    frames.append(top)
                    break  # on to the next argument
                self.expect("RPAREN", "')'")
                self.check_former(name, len(args), at)
                t = App(name, tuple(args))
            else:
                return t

    def leaf(self) -> Term:
        """A suspension, an unknown, a nullary former or an atom."""
        at = self.pos
        name = self.toks[at]
        if name == "(":
            return self.suspension()
        if _kind(name) != "IDENT":
            self.fail(f"expected a term, found {name or 'end of input'!r}")
        self.pos += 1
        if name[0].isupper():
            return var(Unknown(name))
        if name in (self.inferred if self.signature is None else self.signature):
            self.check_former(name, 0, at)
            return App(name, ())
        return AtomTerm(Atom(name))

    def suspension(self) -> Term:
        swaps = []
        while self.toks[self.pos] == "(":
            self.pos += 1
            first = self.atom_name()
            second = self.atom_name()
            self.expect("RPAREN", "')'")
            swaps.append((first, second))
        self.expect("DOT", "'.' after swaps")
        return Suspension(Permutation(swaps), Unknown(self.name(True, "expected an unknown (uppercase-initial)")))

    def atom_name(self) -> Atom:
        return Atom(self.name(False, "expected an atom (lowercase-initial)"))

    def name(self, unknown: bool, wrong: str) -> str:
        """The next token, a name of the sort asked for: an unknown
        (uppercase-initial) or an atom.  `wrong` opens the error for a name
        of the other sort."""
        word = self.expect("IDENT", "an unknown" if unknown else "an atom")
        if word[0].isupper() != unknown:
            self.fail(f"{wrong}, found {word!r}", self.pos - 1)
        return word

    def check_former(self, name: str, arity: int, at: int):
        if self.signature is not None:
            try:
                declared = self.signature.arity(name)
            except SignatureError:
                self.fail(f"unknown term-former {name!r}", at)
            if declared != arity:
                self.fail(f"former {name!r} has arity {declared}, applied to {arity} arguments", at)
        elif self.inferred.setdefault(name, arity) != arity:
            self.fail(f"former {name!r} used with arities {self.inferred[name]} and {arity}", at)

    # contexts and theories -------------------------------------------------

    def context(self) -> FreshnessContext:
        pairs = []
        if _kind(self.toks[self.pos]) == "IDENT":
            while True:
                atom = self.atom_name()
                self.expect("HASH", "'#'")
                pairs.append((atom, Unknown(self.name(True, "expected an unknown after '#'"))))
                if self.toks[self.pos] != ",":
                    break
                self.pos += 1
        return FreshnessContext(frozenset(pairs))

    def theory(self) -> Theory:
        # Rules are checked against the signature as they are parsed, so sig
        # statements must precede the rules that use their formers.
        toks = self.toks
        self.signature = Signature(())
        name = ""
        arities: list[tuple[str, int]] = []
        entries: list[tuple[RewriteRule, str, int]] = []
        while toks[self.pos]:
            at = self.pos
            word = self.expect("IDENT", "a statement")
            if word == "theory":
                name = self.expect("IDENT", "a theory name")
                self.expect("SEMI", "';'")
            elif word == "sig":
                while _kind(toks[self.pos]) == "IDENT":
                    former = self.expect("IDENT", "a former")
                    self.expect("COLON", "':'")
                    arities.append((former, int(self.expect("NAT", "an arity"))))
                self.expect("SEMI", "';'")
                try:
                    self.signature = Signature.of(arities)
                except SignatureError as e:
                    self.fail(str(e), at)
            elif word in ("rule", "axiom"):
                rule_at = self.pos
                rule_name = self.expect("IDENT", "a rule name")
                self.expect("COLON", "':'")
                ctx = FreshnessContext(frozenset())
                # A body has a context exactly when it opens with one: no
                # term starts with '|-' or with an identifier and '#'.
                first = _kind(toks[self.pos])
                if first == "TURNSTILE" or (first == "IDENT" and toks[self.pos + 1] == "#"):
                    ctx = self.context()
                    self.expect("TURNSTILE", "'|-'")
                lhs = self.term()
                if word == "rule" and toks[self.pos] != "->":
                    self.fail("expected '->' in a rule (use 'axiom' for '=')")
                if word == "axiom" and toks[self.pos] != "=":
                    self.fail("expected '=' in an axiom (use 'rule' for '->')")
                self.pos += 1
                rhs = self.term()
                self.expect("SEMI", "';'")
                entries.append((RewriteRule(rule_name, ctx, lhs, rhs), word, rule_at))
            else:
                self.fail(f"expected 'theory', 'sig', 'rule' or 'axiom', found {word!r}", at)

        kinds = {kind for _, kind, _ in entries}
        if kinds == {"rule", "axiom"}:
            self.fail("a theory may not mix rules and axioms", next(at for _, kind, at in entries if kind == "axiom"))
        seen_names = set()
        for rule, _, at in entries:
            if rule.name in seen_names:
                self.fail(f"duplicate rule name {rule.name}", at)
            seen_names.add(rule.name)
            try:
                rule.validate()
            except RuleError as e:
                self.fail(str(e), at)
        rules = tuple(rule for rule, _, _ in entries)
        return Theory(self.signature, rules, "equational" if kinds == {"axiom"} else "rewrite", name)


def parse_term(text: str, signature: Signature | None = None, allow_machine: bool = False) -> Term:
    """Parse a term.  With a signature, formers are validated strictly;
    without one, arities are inferred and bare lowercase names are atoms."""
    return _Parser(text, signature, allow_machine).whole(_Parser.term)


def parse_context(text: str, allow_machine: bool = False) -> FreshnessContext:
    return _Parser(text, None, allow_machine).whole(_Parser.context)


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
