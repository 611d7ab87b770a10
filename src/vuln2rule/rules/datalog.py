r"""Datalog Horn-clause AST, parser and canonical emitter: every decision
about Datalog text is made here.

Accepted clause forms:

    interaction_rule((Head :- P1, ..., Pn), rule_desc("text", 1.0)).
    Head :- P1, ..., Pn.

with ``%`` line comments, quoted atoms, integers/decimals and nested terms.
Nested compound arguments are preserved verbatim as constants (their
canonical text), since slot-level reasoning only needs top-level arguments.

Quoting: inside ``'...'`` and ``"..."`` a backslash escapes the next
character.  A quoted atom keeps its source text, quotes and escapes
included, as its ``Term`` text, so it is emitted as it was read; only the
``rule_desc`` string is decoded (``unquote``).  ``quote`` writes ``\``,
``'``, ``"`` and ``
`` for a backslash, the quote mark and a newline, so
every emitted rule parses back to itself.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

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

    def check_range_restriction(self) -> None:
        """Raise when a head variable does not occur in the body."""
        check_bound(self.head.variables(), set().union(*(p.variables() for p in self.body)))

    def predicates(self) -> list[Predicate]:
        return [self.head, *self.body]


def check_bound(head_variables: set[str], body_variables: set[str]) -> None:
    """Raise RangeRestrictionViolation when a head variable is not among
    the body's variables."""
    unbound = head_variables - body_variables
    if unbound:
        raise RangeRestrictionViolation(f"head variables not bound in body: {sorted(unbound)}")


def variable_groups(rule: InteractionRule) -> list[frozenset[tuple[int, int]]]:
    """The rule's variable partition: per variable, in order of first
    occurrence, the (atom index, position) nodes that hold it; the head is
    atom 0."""
    by_var: dict[str, set[tuple[int, int]]] = {}
    for ai, pred in enumerate(rule.predicates()):
        for pos, term in enumerate(pred.args):
            if term.kind == VARIABLE:
                by_var.setdefault(term.text, set()).add((ai, pos))
    return [frozenset(nodes) for nodes in by_var.values()]


# --- lexer -----------------------------------------------------------------


class _Tok(NamedTuple):
    kind: str
    value: str
    pos: int


_TOKEN_RE = re.compile(
    r"""
    (?:\s|%[^\n]*)*                             # blanks and line comments
    (?: (?P<NECK>:-) | (?P<LPAREN>\() | (?P<RPAREN>\)) | (?P<COMMA>,) | (?P<DOT>\.)
      | (?P<QUOTED>'(?:\\.|[^'\\\n])*')
      | (?P<STRING>"(?:\\.|[^"\\\n])*")
      | (?P<NEWLINE>'(?:\\.|[^'\\\n])*\n|"(?:\\.|[^"\\\n])*\n)
      | (?P<UNTERMINATED>['"])
      | (?P<NUMBER>-?[0-9]+(?:\.[0-9]+)?)       # ASCII digits only, as in ISO Prolog
      | (?P<NAME>[^\W\d]\w*)                    # VAR or ATOM: no leading digit
      | (?P<EOF>\Z)
      | (?P<UNEXPECTED>.)
    )""",
    re.VERBOSE | re.DOTALL,
)

_LEX_ERRORS = {
    "NEWLINE": "newline inside {}-quoted text",
    "UNTERMINATED": "unterminated {}-quoted text",
    "UNEXPECTED": "unexpected character {!r}",
}


def _position(text: str, pos: int) -> tuple[int, int]:
    """1-based (line, column) of offset ``pos``."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _lex(text: str) -> list[_Tok]:
    tokens: list[_Tok] = []
    pos = 0
    while True:
        m = _TOKEN_RE.match(text, pos)
        kind = m.lastgroup
        value, start = m.group(kind), m.start(kind)
        if kind in _LEX_ERRORS:
            raise RuleSyntaxError(_LEX_ERRORS[kind].format(value[0]), *_position(text, start))
        if kind == "NAME":
            kind = "VAR" if value[0].isupper() or value[0] == "_" else "ATOM"
        tokens.append(_Tok(kind, value, start))
        if kind == "EOF":
            return tokens
        pos = m.end()


def unquote(token: str) -> str:
    """The text of a quoted token: the quotes dropped, ``\\n`` a newline and
    any other backslash pair ``\\c`` the character ``c``."""
    body = token[1:-1]
    return re.sub(r"\\(.)", lambda m: "\n" if m[1] == "n" else m[1], body, flags=re.DOTALL)


def quote(text: str, mark: str) -> str:
    """``text`` as a ``mark``-quoted token (``mark`` is ``'`` or ``"``) that
    lexes as one token and that ``unquote`` maps back to ``text``."""
    escaped = text.replace("\\", "\\\\").replace(mark, "\\" + mark).replace("\n", "\\n")
    return mark + escaped + mark


# --- parser ----------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _lex(text)
        self.pos = 0

    def peek(self, offset: int = 0) -> _Tok:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def next(self) -> _Tok:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def found(self, tok: _Tok, expected: str) -> RuleSyntaxError:
        message = f"found {tok.value!r}" if tok.value else "found end of input"
        return RuleSyntaxError(message, *_position(self.text, tok.pos), expected)

    def expect(self, kind: str, what: str, value: str | None = None) -> _Tok:
        tok = self.peek()
        if tok.kind == kind and value in (None, tok.value):
            return self.next()
        # a clause that ends (or the file that ends) with parens open
        if kind == "RPAREN" and tok.kind in ("EOF", "DOT"):
            raise UnbalancedParens("unclosed parenthesis", *_position(self.text, tok.pos), what)
        raise self.found(tok, what)

    def comma_list(self, parse_item) -> list:
        items = [parse_item()]
        while self.peek().kind == "COMMA":
            self.next()
            items.append(parse_item())
        return items

    def parse_args(self, closing: str) -> tuple[Term, ...]:
        """``(term, ...)`` after a predicate or functor name."""
        self.next()
        args = self.comma_list(self.parse_term)
        self.expect("RPAREN", closing)
        return tuple(args)

    def parse_term(self) -> Term:
        tok = self.next()
        if tok.kind == "VAR":
            return Term.wildcard() if tok.value == "_" else Term.variable(tok.value)
        if tok.kind in ("NUMBER", "QUOTED", "STRING"):
            return Term.constant(tok.value)
        if tok.kind != "ATOM":
            raise self.found(tok, "a term")
        if self.peek().kind != "LPAREN":
            return Term.constant(tok.value)
        args = self.parse_args("')' closing nested term")
        return Term.constant(f"{tok.value}({','.join(t.text for t in args)})")

    def parse_predicate(self) -> Predicate:
        if self.peek().kind == "QUOTED":
            name = self.next().value
        else:
            name = self.expect("ATOM", "a predicate name").value
        if self.peek().kind != "LPAREN":
            return Predicate(name)
        return Predicate(name, self.parse_args("')' closing the argument list"))

    def parse_horn(self) -> tuple[Predicate, tuple[Predicate, ...]]:
        head = self.parse_predicate()
        self.expect("NECK", "':-' after the rule head")
        return head, tuple(self.comma_list(self.parse_predicate))

    def parse_clause(self) -> InteractionRule:
        tok, description = self.peek(), ""
        if (tok.kind, tok.value) == ("ATOM", "interaction_rule") and (
            self.peek(1).kind == self.peek(2).kind == "LPAREN"
        ):
            self.pos += 3
            head, body = self.parse_horn()
            self.expect("RPAREN", "')' closing the clause")
            self.expect("COMMA", "',' before rule_desc")
            self.expect("ATOM", "rule_desc", "rule_desc")
            self.expect("LPAREN", "'(' after rule_desc")
            description = unquote(self.expect("STRING", "a description string").value)
            if self.peek().kind == "COMMA":
                self.next()
                self.parse_term()  # rule score: accepted, not modeled
            self.expect("RPAREN", "')' closing rule_desc")
            self.expect("RPAREN", "')' closing interaction_rule")
        else:
            head, body = self.parse_horn()
        self.expect("DOT", "'.' ending the clause")
        return InteractionRule(head, body, description)


def parse_rule_file(text: str) -> list[InteractionRule]:
    parser = _Parser(text)
    rules = []
    try:
        while parser.peek().kind != "EOF":
            rules.append(parser.parse_clause())
    except RecursionError:
        position = _position(text, parser.peek().pos)
        raise RuleSyntaxError("terms nested too deeply", *position) from None
    return rules


# --- emitter ----------------------------------------------------------------


def format_predicate(pred: Predicate) -> str:
    if not pred.args:
        return pred.name
    return pred.name + "(" + ", ".join(t.text for t in pred.args) + ")"


def emit_rule(rule: InteractionRule) -> str:
    """Canonical text: the interaction_rule wrapper with one body predicate
    per line.  Raises when a head variable is unbound in the body."""
    rule.check_range_restriction()
    body = ",\n".join(f"    {format_predicate(p)}" for p in rule.body)
    description = quote(rule.description, '"')
    return (
        f"interaction_rule(\n  ({format_predicate(rule.head)} :-\n{body}),\n"
        f"  rule_desc({description}, 1.0))."
    )


def emit_rules(rules: list[InteractionRule]) -> str:
    return "\n\n".join(emit_rule(r) for r in rules) + "\n"
