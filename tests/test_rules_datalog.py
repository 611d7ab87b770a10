"""Datalog AST, parser and canonical emitter."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vuln2rule.errors import RangeRestrictionViolation, RuleSyntaxError, UnbalancedParens
from vuln2rule.rules.datalog import (
    CONSTANT,
    VARIABLE,
    WILDCARD,
    InteractionRule,
    Predicate,
    Term,
    emit_rule,
    emit_rules,
    parse_rule_file,
    quote,
    unquote,
)
from vuln2rule.rules.schema import load_default_rule_corpus


def random_rule(rng: np.random.Generator) -> InteractionRule:
    """Well-formed random rule: every head variable also appears in the body."""
    def random_term(allow_var=True) -> Term:
        kind = rng.integers(0, 5)
        if kind == 0 and allow_var:
            return Term.variable(f"V{rng.integers(0, 6)}")
        if kind == 1:
            return Term.wildcard()
        if kind == 2:
            return Term.constant(f"atom{rng.integers(0, 9)}")
        if kind == 3:
            return Term.constant(str(rng.integers(0, 999)))
        return Term.constant(f"'Quoted Atom {rng.integers(0, 9)}'")

    n_body = int(rng.integers(1, 5))
    body = []
    body_vars: set[str] = set()
    for b in range(n_body):
        args = tuple(random_term() for _ in range(int(rng.integers(0, 4))))
        pred = Predicate(f"p{rng.integers(0, 9)}", args)
        body_vars |= pred.variables()
        body.append(pred)
    head_args = []
    for _ in range(int(rng.integers(0, 3))):
        if body_vars and rng.random() < 0.5:
            head_args.append(Term.variable(sorted(body_vars)[int(rng.integers(len(body_vars)))]))
        else:
            head_args.append(random_term(allow_var=False))
    head = Predicate(f"h{rng.integers(0, 5)}", tuple(head_args))
    return InteractionRule(head, tuple(body), description=f"random rule {rng.integers(0, 1000)}")


class TestParser:
    def test_predicate_with_constants_and_variables(self):
        text = 'interaction_rule((execCode(H, P) :- vulExists(dbServer, VulID, oracleDB)), rule_desc("d", 1.0)).'
        rules = parse_rule_file(text)
        pred = rules[0].body[0]
        assert pred.name == "vulExists"
        assert [t.kind for t in pred.args] == [CONSTANT, VARIABLE, CONSTANT]
        assert [t.text for t in pred.args] == ["dbServer", "VulID", "oracleDB"]

    def test_empty_file(self):
        assert parse_rule_file("") == []
        assert parse_rule_file("% only a comment\n") == []

    def test_bare_horn_clause(self):
        rules = parse_rule_file("a(X) :- b(X), c(X, y).\n")
        assert len(rules) == 1
        assert rules[0].head.name == "a"
        assert len(rules[0].body) == 2

    def test_comments_and_quoted_atoms(self):
        text = (
            "% leading comment\n"
            "a(X) :- b(X, 'CVE-2010-2212'), c(X). % trailing comment\n"
        )
        rules = parse_rule_file(text)
        assert rules[0].body[0].args[1].text == "'CVE-2010-2212'"

    def test_integers_and_wildcards(self):
        rules = parse_rule_file("a(X) :- b(X, 8080, _, -3).\n")
        args = rules[0].body[0].args
        assert args[1] == Term.constant("8080")
        assert args[2].kind == WILDCARD
        assert args[3] == Term.constant("-3")

    def test_nested_terms_flatten_to_constants(self):
        rules = parse_rule_file("a(X) :- b(X, f(g(Y), z)).\n")
        nested = rules[0].body[0].args[1]
        assert nested.kind == CONSTANT
        assert nested.text == "f(g(Y),z)"

    def test_nested_terms_with_quotes_and_wildcards_round_trip(self):
        text = "a(X) :- b(f(g('Quoted X'), 42, _), X).\n"
        rules = parse_rule_file(text)
        nested = rules[0].body[0].args[0]
        assert nested.text == "f(g('Quoted X'),42,_)"
        again = parse_rule_file(emit_rule(rules[0]))
        assert again == rules
        assert emit_rule(again[0]) == emit_rule(rules[0])

    def test_rule_desc_score_optional(self):
        with_score = parse_rule_file('interaction_rule((a(X) :- b(X)), rule_desc("d", 2.5)).')
        without = parse_rule_file('interaction_rule((a(X) :- b(X)), rule_desc("d")).')
        assert with_score[0].description == without[0].description == "d"

    def test_syntax_error_carries_position(self):
        with pytest.raises(RuleSyntaxError) as err:
            parse_rule_file("a(X) :- ,b(X).\n")
        assert err.value.line == 1
        assert err.value.column >= 1

    def test_unbalanced_parens(self):
        with pytest.raises(UnbalancedParens):
            parse_rule_file("a(X) :- b(X.\n")

    @pytest.mark.parametrize(
        "text, error, line, column, message",
        [
            ("a(X) :- b(X).\n  c(Y) :- ;", RuleSyntaxError, 2, 11, "unexpected character ';'"),
            ("a(X) :- b(X, 'ab\ncd').", RuleSyntaxError, 1, 14, "newline inside '-quoted text"),
            ('a(X) :- b(X, "ab', RuleSyntaxError, 1, 14, 'unterminated "-quoted text'),
            ("a(X) :- b(X, 'ab\\", RuleSyntaxError, 1, 14, "unterminated '-quoted text"),
            ("a(X) :- b(X, :).", RuleSyntaxError, 1, 14, "unexpected character ':'"),
            ("a(X) :- b(X, -x).", RuleSyntaxError, 1, 14, "unexpected character '-'"),
            # a number is ASCII digits only, as in ISO Prolog
            ("p(H, ٣) :- q(H, ٣).", RuleSyntaxError, 1, 6, "unexpected character '٣'"),
            ("a(X) :-\n\tb(X) c.", RuleSyntaxError, 2, 7, "found 'c'"),
            ("a(X) :- b(X, 1.5.2).", UnbalancedParens, 1, 17, "unclosed parenthesis"),
            ("a(X) :- b(X % open\n", UnbalancedParens, 2, 1, "unclosed parenthesis"),
            # the end of input after a trailing comment is at the comment's end
            ("a(X) :- b(X % open", UnbalancedParens, 1, 19, "unclosed parenthesis"),
        ],
    )
    def test_error_class_and_position(self, text, error, line, column, message):
        with pytest.raises(RuleSyntaxError) as err:
            parse_rule_file(text)
        assert type(err.value) is error
        assert (err.value.line, err.value.column) == (line, column)
        assert message in str(err.value)

    def test_deep_nesting_is_a_syntax_error(self):
        depth = 5000
        with pytest.raises(RuleSyntaxError, match="nested too deeply"):
            parse_rule_file("a(X) :- b(" + "f(" * depth + "x" + ")" * (depth + 1) + ".")

    def test_missing_neck_reported(self):
        with pytest.raises(RuleSyntaxError) as err:
            parse_rule_file("a(X) b(X).\n")
        assert "':-'" in (err.value.expected or "")

    def test_packaged_corpus_parses(self):
        rules = parse_rule_file(load_default_rule_corpus())
        assert len(rules) >= 15
        names = {p.name for r in rules for p in r.predicates()}
        assert {"execCode", "vulExists", "netAccess", "attackerLocated"} <= names


class TestEmitter:
    def test_unbound_head_variable_rejected(self):
        rule = InteractionRule(
            head=Predicate("execCode", (Term.variable("H"), Term.variable("P"))),
            body=(Predicate("attackerLocated", (Term.variable("A"),)),),
        )
        with pytest.raises(RangeRestrictionViolation):
            emit_rule(rule)

    def test_single_body_prints_one_neck(self):
        rule = InteractionRule(
            head=Predicate("a", (Term.variable("X"),)),
            body=(Predicate("b", (Term.variable("X"),)),),
        )
        assert emit_rule(rule).count(":-") == 1

    def test_one_body_predicate_per_line(self):
        rules = parse_rule_file(load_default_rule_corpus())
        text = emit_rule(rules[0])
        body_lines = [l for l in text.splitlines() if l.startswith("    ")]
        assert len(body_lines) == len(rules[0].body)
        assert text.rstrip().endswith(".")

    def test_description_escaping_round_trips(self):
        rule = InteractionRule(
            head=Predicate("a", (Term.variable("X"),)),
            body=(Predicate("b", (Term.variable("X"),)),),
            description='say "hi" \\ there\nand \\n',
        )
        again = parse_rule_file(emit_rule(rule))[0]
        assert again.description == rule.description

    def test_escaped_quote_in_atom_re_emits_as_read(self):
        text = "a(X) :- b(X, 'it\\'s', \"say \\\"hi\\\"\"), 'q\\'d'(X)."
        rule = parse_rule_file(text)[0]
        assert [t.text for t in rule.body[0].args[1:]] == ["'it\\'s'", '"say \\"hi\\""']
        assert rule.body[1].name == "'q\\'d'"
        assert parse_rule_file(emit_rule(rule)) == [rule]

    def test_quote_and_unquote(self):
        assert quote("it's \\ \"x\"\n", "'") == "'it\\'s \\\\ \"x\"\\n'"
        assert quote("it's", '"') == '"it\'s"'
        assert unquote('"a\\\\n\\n\\t\\""') == 'a\\n\nt"'


class TestRoundTrip:
    def test_emit_parse_emit_fixpoint_on_packaged_corpus(self):
        rules = parse_rule_file(load_default_rule_corpus())
        emitted = emit_rules(rules)
        reparsed = parse_rule_file(emitted)
        assert reparsed == rules
        assert emit_rules(reparsed) == emitted

    def test_parse_emit_parse_identity_on_random_rules(self):
        rng = np.random.default_rng(51)
        for _ in range(200):
            rule = random_rule(rng)
            text = emit_rule(rule)
            parsed = parse_rule_file(text)
            assert len(parsed) == 1
            assert parsed[0] == rule
            assert emit_rule(parsed[0]) == text


_TRICKY = st.text(alphabet=st.sampled_from("ab '\"\\\n%(),.:-X_é"), max_size=12)


@settings(max_examples=300, deadline=None)
@given(constants=st.lists(_TRICKY, min_size=1, max_size=3), description=_TRICKY)
def test_quoted_constants_and_descriptions_round_trip(constants, description):
    """Any text quoted as a constant, and any description, survives
    emit -> parse, and emit is a fixpoint."""
    rule = InteractionRule(
        head=Predicate("a", (Term.variable("X"),)),
        body=(
            Predicate("b", (Term.variable("X"), *(Term.constant(quote(c, "'")) for c in constants))),
            Predicate(quote(constants[0], "'"), (Term.constant(quote(description, '"')),)),
        ),
        description=description,
    )
    text = emit_rule(rule)
    assert parse_rule_file(text) == [rule]
    assert emit_rule(parse_rule_file(text)[0]) == text


#: letters and digits of any script, ASCII digits and letters among them
_WORDS = st.text(
    st.one_of(st.sampled_from("0123456789az"), st.characters(categories=("L", "N"))),
    min_size=1,
    max_size=6,
)


def _rule_with(constant: Term) -> InteractionRule:
    return InteractionRule(
        head=Predicate("p", (Term.variable("H"), constant)),
        body=(Predicate("q", (Term.variable("H"), constant)),),
    )


@settings(max_examples=300, deadline=None)
@example(text="٣")
@example(text="²")
@example(text="١٢")
@given(text=_WORDS)
def test_unicode_constants_round_trip(text):
    """A constant of any script's letters and digits survives emit -> parse
    -> emit quoted, and bare unless the parser rejects it; a bare number is
    ASCII digits only, and a bare ASCII atom or integer is never rejected."""
    quoted = _rule_with(Term.constant(quote(text, "'")))
    emitted = emit_rule(quoted)
    assert parse_rule_file(emitted) == [quoted]
    assert emit_rule(parse_rule_file(emitted)[0]) == emitted
    if text[0].isupper():
        return  # bare, it is a variable
    bare = _rule_with(Term.constant(text))
    try:
        parsed = parse_rule_file(emit_rule(bare))
    except RuleSyntaxError:
        assert not re.fullmatch(r"[a-z][A-Za-z0-9_]*|[0-9]+", text)
        return
    assert parsed == [bare]
    assert emit_rule(parsed[0]) == emit_rule(bare)
    assert not text[0].isdecimal() or text.isascii()
