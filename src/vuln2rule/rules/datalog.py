"""Datalog Horn-clause AST, parser and canonical emitter.

Accepted clause forms:

    interaction_rule((Head :- P1, ..., Pn), rule_desc("text", 1.0)).
    Head :- P1, ..., Pn.

with ``%`` line comments, quoted atoms, integers/decimals and nested terms.
Nested compound arguments are preserved verbatim as constants (their
canonical text), since slot-level reasoning only needs top-level arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import RangeRestrictionViolation, RuleSyntaxError, UnbalancedParens

CONSTANT = "Constant"
VARIABLE = "Variable"
WILDCARD = "Wildcard"


@dataclass(frozen=True)
class Term:
    kind: str
    text: str

    def __post_init__(self):
        if self.kind == WILDCARD and self.text != "_":
            raise ValueError("wildcard text must be '_'")
        if self.kind == VARIABLE and not (self.text[0].isupper() or self.text[0] == "_"):
            raise ValueError(f"variable must start uppercase: {self.text!r}")
        if self.kind == CONSTANT and (not self.text or self.text[0].isupper()):
            raise ValueError(f"constant cannot start uppercase: {self.text!r}")

    @staticmethod
    def constant(text: str) -> Term:
        return Term(CONSTANT, text)

    @staticmethod
    def variable(name: str) -> Term:
        return Term(VARIABLE, name)

    @staticmethod
    def wildcard() -> Term:
        return Term(WILDCARD, "_")


@dataclass(frozen=True)
class Predicate:
    name: str
    args: tuple[Term, ...] = ()

    def __post_init__(self):
        if not self.name:
            raise ValueError("predicate name must be non-empty")

    @property
    def arity(self) -> int:
        return len(self.args)

    def variables(self) -> set[str]:
        return {t.text for t in self.args if t.kind == VARIABLE}


@dataclass(frozen=True)
class InteractionRule:
    head: Predicate
    body: tuple[Predicate, ...]
    description: str = ""
    trace: dict[str, str] = field(default_factory=dict, compare=False, hash=False)

    def __post_init__(self):
        if not self.body:
            raise ValueError("rule body must be non-empty")

    def head_variables_unbound(self) -> set[str]:
        bound = set()
        for pred in self.body:
            bound |= pred.variables()
        return self.head.variables() - bound

    def predicates(self) -> list[Predicate]:
        return [self.head, *self.body]


# --- lexer -----------------------------------------------------------------


_PUNCT = {"(": "LPAREN", ")": "RPAREN", ",": "COMMA", ".": "DOT"}


@dataclass(frozen=True)
class _Tok:
    kind: str
    value: str
    line: int
    col: int


def _lex(text: str) -> list[_Tok]:
    tokens: list[_Tok] = []
    i, line, col = 0, 1, 1
    n = len(text)

    def error(msg: str, expected: str | None = None):
        raise RuleSyntaxError(msg, line, col, expected)

    while i < n:
        ch = text[i]
        if ch == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if ch.isspace():
            i, col = i + 1, col + 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if ch == ":" and text[i : i + 2] == ":-":
            tokens.append(_Tok("NECK", ":-", start_line, start_col))
            i, col = i + 2, col + 2
            continue
        if ch in _PUNCT:
            # '.' starting a number (e.g. inside 1.5) is consumed by NUMBER
            tokens.append(_Tok(_PUNCT[ch], ch, start_line, start_col))
            i, col = i + 1, col + 1
            continue
        if ch == "'" or ch == '"':
            quote = ch
            j = i + 1
            buf = []
            while j < n:
                if text[j] == "\\" and j + 1 < n:
                    buf.append(text[j + 1])
                    j += 2
                    continue
                if text[j] == quote:
                    break
                if text[j] == "\n":
                    error(f"newline inside {quote}-quoted text")
                buf.append(text[j])
                j += 1
            else:
                error(f"unterminated {quote}-quoted text")
            if j >= n:
                error(f"unterminated {quote}-quoted text")
            kind = "QUOTED" if quote == "'" else "STRING"
            tokens.append(_Tok(kind, "".join(buf), start_line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot and j + 1 < n and text[j + 1].isdigit())):
                seen_dot = seen_dot or text[j] == "."
                j += 1
            tokens.append(_Tok("NUMBER", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "VAR" if (ch.isupper() or ch == "_") else "ATOM"
            tokens.append(_Tok(kind, word, start_line, start_col))
            col += j - i
            i = j
            continue
        error(f"unexpected character {ch!r}")
    tokens.append(_Tok("EOF", "", line, col))
    return tokens


# --- parser ----------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.tokens = _lex(text)
        self.pos = 0

    def peek(self, offset: int = 0) -> _Tok:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def next(self) -> _Tok:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Tok:
        tok = self.peek()
        if tok.kind != kind:
            # a clause that ends (or the file that ends) with parens open
            if kind == "RPAREN" and tok.kind in ("EOF", "DOT"):
                raise UnbalancedParens("unclosed parenthesis", tok.line, tok.col, what)
            raise RuleSyntaxError(
                f"found {tok.value!r}" if tok.value else "found end of input",
                tok.line,
                tok.col,
                what,
            )
        return self.next()

    # -- terms ------------------------------------------------------------

    def parse_term(self) -> Term:
        tok = self.peek()
        if tok.kind == "VAR":
            self.next()
            if tok.value == "_":
                return Term.wildcard()
            return Term.variable(tok.value)
        if tok.kind == "NUMBER":
            self.next()
            return Term.constant(tok.value)
        if tok.kind == "QUOTED":
            self.next()
            return Term.constant("'" + tok.value + "'")
        if tok.kind == "STRING":
            self.next()
            return Term.constant('"' + tok.value + '"')
        if tok.kind == "ATOM":
            self.next()
            if self.peek().kind == "LPAREN":
                self.next()
                parts = [self._term_text(self.parse_term())]
                while self.peek().kind == "COMMA":
                    self.next()
                    parts.append(self._term_text(self.parse_term()))
                self.expect("RPAREN", "')' closing nested term")
                return Term.constant(f"{tok.value}({','.join(parts)})")
            return Term.constant(tok.value)
        raise RuleSyntaxError(
            f"found {tok.value!r}" if tok.value else "found end of input",
            tok.line,
            tok.col,
            "a term",
        )

    @staticmethod
    def _term_text(term: Term) -> str:
        return term.text

    def parse_predicate(self) -> Predicate:
        tok = self.peek()
        if tok.kind == "QUOTED":
            self.next()
            name = "'" + tok.value + "'"
        else:
            name = self.expect("ATOM", "a predicate name").value
        if self.peek().kind != "LPAREN":
            return Predicate(name)
        self.next()
        args = [self.parse_term()]
        while self.peek().kind == "COMMA":
            self.next()
            args.append(self.parse_term())
        self.expect("RPAREN", "')' closing the argument list")
        return Predicate(name, tuple(args))

    def parse_horn(self) -> tuple[Predicate, tuple[Predicate, ...]]:
        head = self.parse_predicate()
        self.expect("NECK", "':-' after the rule head")
        body = [self.parse_predicate()]
        while self.peek().kind == "COMMA":
            self.next()
            body.append(self.parse_predicate())
        return head, tuple(body)

    # -- clauses ------------------------------------------------------------

    def parse_clause(self) -> InteractionRule:
        tok = self.peek()
        if (
            tok.kind == "ATOM"
            and tok.value == "interaction_rule"
            and self.peek(1).kind == "LPAREN"
            and self.peek(2).kind == "LPAREN"
        ):
            self.next()
            self.expect("LPAREN", "'(' after interaction_rule")
            self.expect("LPAREN", "'(' opening the clause")
            head, body = self.parse_horn()
            self.expect("RPAREN", "')' closing the clause")
            self.expect("COMMA", "',' before rule_desc")
            desc_tok = self.expect("ATOM", "rule_desc")
            if desc_tok.value != "rule_desc":
                raise RuleSyntaxError(
                    f"found {desc_tok.value!r}", desc_tok.line, desc_tok.col, "rule_desc"
                )
            self.expect("LPAREN", "'(' after rule_desc")
            description = self.expect("STRING", "a description string").value
            if self.peek().kind == "COMMA":
                self.next()
                self.parse_term()  # rule score: accepted, not modeled
            self.expect("RPAREN", "')' closing rule_desc")
            self.expect("RPAREN", "')' closing interaction_rule")
            self.expect("DOT", "'.' ending the clause")
            return InteractionRule(head, body, description)
        head, body = self.parse_horn()
        self.expect("DOT", "'.' ending the clause")
        return InteractionRule(head, body)

    def parse_file(self) -> list[InteractionRule]:
        rules = []
        while self.peek().kind != "EOF":
            rules.append(self.parse_clause())
        return rules


def parse_rule_file(text: str) -> list[InteractionRule]:
    return _Parser(text).parse_file()


# --- emitter ----------------------------------------------------------------


def format_predicate(pred: Predicate) -> str:
    if not pred.args:
        return pred.name
    return pred.name + "(" + ", ".join(t.text for t in pred.args) + ")"


def emit_rule(rule: InteractionRule) -> str:
    """Canonical text: the interaction_rule wrapper with one body predicate
    per line.  Raises when a head variable is unbound in the body."""
    unbound = rule.head_variables_unbound()
    if unbound:
        raise RangeRestrictionViolation(
            f"head variables not bound in body: {sorted(unbound)}"
        )
    escaped = rule.description.replace("\\", "\\\\").replace('"', '\\"')
    body_lines = [f"    {format_predicate(p)}" for p in rule.body]
    return (
        "interaction_rule(\n"
        f"  ({format_predicate(rule.head)} :-\n"
        + ",\n".join(body_lines)
        + "),\n"
        f'  rule_desc("{escaped}", 1.0)).'
    )


def emit_rules(rules: list[InteractionRule]) -> str:
    return "\n\n".join(emit_rule(r) for r in rules) + "\n"
