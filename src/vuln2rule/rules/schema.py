"""Predicate lexicon and label-to-predicate mapping tables.

Both ship as editable key-value text files under ``vuln2rule/data`` and can
be overridden per deployment.

Lexicon grammar (predicate_schemas.txt), one declaration per line::

    predicate name(Hint:sort, Hint:sort!, ...)

``Hint`` is the canonical variable name for the slot, ``sort`` its type tag;
a trailing ``!`` marks a constant slot that rule synthesis fills from the
extracted entities (by sort: vulnid, product, protocol, port, range,
consequence).

Mapping grammar (mapping_tables.txt), one entry per line::

    impact <label> head=<predicate> consequence=<constant>
    vector <label> range=<constant> support=<pred>,<pred>,...
    means  <label> body=<pred>,<pred>,...
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

from .._textio import read_data, read_text
from ..errors import ConfigError
from .wiring import Slot

_DECL_RE = re.compile(r"^predicate\s+([a-z]\w*)\((.*)\)$")
_ARG_RE = re.compile(r"^([A-Za-z]\w*):([a-z]\w*)(!?)$")


class VariableNode(NamedTuple):
    """A slot that rule synthesis fills with a variable."""

    pos: int
    slot: Slot
    sort: str
    #: the variable's name when this slot is the first of its group
    hint: str


@dataclass(frozen=True)
class PredicateSchema:
    name: str
    arity: int
    arg_sorts: tuple[str, ...]
    var_hints: tuple[str, ...]
    constant_slots: frozenset[int]

    def __post_init__(self):
        if len(self.arg_sorts) != self.arity or len(self.var_hints) != self.arity:
            raise ValueError(f"{self.name}: sorts/hints must match arity")

    @cached_property
    def variable_nodes(self) -> tuple[VariableNode, ...]:
        """Every slot outside the constant slots, in position order.  The
        hint is the declared one when it reads as a variable (upper case or
        ``_`` first), else the capitalized sort, else ``X``."""
        nodes = []
        for pos, (sort, hint) in enumerate(zip(self.arg_sorts, self.var_hints)):
            if pos in self.constant_slots:
                continue
            if not (hint and (hint[0].isupper() or hint[0] == "_")):
                hint = re.sub(r"\W", "", sort)
                hint = hint[:1].upper() + hint[1:] if hint else "X"
            nodes.append(VariableNode(pos, Slot(self.name, self.arity, pos), sort, hint))
        return tuple(nodes)


@dataclass
class SchemaLexicon:
    schemas: dict[tuple[str, int], PredicateSchema]

    def __post_init__(self):
        self._by_name: dict[str, list[PredicateSchema]] = {}
        for (name, _), schema in self.schemas.items():
            self._by_name.setdefault(name, []).append(schema)

    def get(self, name: str, arity: int) -> PredicateSchema | None:
        return self.schemas.get((name, arity))

    def require(self, name: str) -> PredicateSchema:
        matches = self._by_name.get(name)
        if not matches:
            raise ConfigError(f"predicate {name!r} not in the lexicon")
        if len(matches) > 1:
            arities = " and ".join(str(s.arity) for s in matches)
            raise ConfigError(f"predicate {name!r} is declared at arities {arities}")
        return matches[0]

    def sort_of(self, name: str, arity: int, pos: int) -> str | None:
        schema = self.get(name, arity)
        if schema is None or pos >= schema.arity:
            return None
        return schema.arg_sorts[pos]


def parse_lexicon(text: str) -> SchemaLexicon:
    schemas: dict[tuple[str, int], PredicateSchema] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _DECL_RE.match(line)
        if not m:
            raise ConfigError(f"lexicon line {lineno}: cannot parse {line!r}")
        name, arg_text = m.group(1), m.group(2).strip()
        hints: list[str] = []
        sorts: list[str] = []
        constant_slots: set[int] = set()
        if arg_text:
            for pos, part in enumerate(arg_text.split(",")):
                am = _ARG_RE.match(part.strip())
                if not am:
                    raise ConfigError(
                        f"lexicon line {lineno}: bad argument {part.strip()!r}"
                    )
                hints.append(am.group(1))
                sorts.append(am.group(2))
                if am.group(3):
                    constant_slots.add(pos)
        schema = PredicateSchema(
            name=name,
            arity=len(hints),
            arg_sorts=tuple(sorts),
            var_hints=tuple(hints),
            constant_slots=frozenset(constant_slots),
        )
        schemas[(name, schema.arity)] = schema
    return SchemaLexicon(schemas)


@dataclass(frozen=True)
class ImpactMapping:
    label: str
    head: str
    consequence: str


@dataclass(frozen=True)
class VectorMapping:
    label: str
    range_constant: str
    support: tuple[str, ...]


@dataclass(frozen=True)
class MeansMapping:
    label: str
    body: tuple[str, ...]


@dataclass
class MappingTables:
    impact: dict[str, ImpactMapping]
    vector: dict[str, VectorMapping]
    means: dict[str, MeansMapping]

    def labels(self) -> dict[str, list[str]]:
        return {
            "IMPACT": sorted(self.impact),
            "VECTOR": sorted(self.vector),
            "MEANS": sorted(self.means),
        }

    def predicates(self) -> set[str]:
        """Every predicate name the tables use."""
        return (
            {m.head for m in self.impact.values()}
            | {name for m in self.vector.values() for name in m.support}
            | {name for m in self.means.values() for name in m.body}
        )


def parse_mapping(text: str) -> MappingTables:
    impact: dict[str, ImpactMapping] = {}
    vector: dict[str, VectorMapping] = {}
    means: dict[str, MeansMapping] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 3:
            raise ConfigError(f"mapping line {lineno}: cannot parse {line!r}")
        kind, label = parts[0], parts[1]
        fields: dict[str, str] = {}
        for part in parts[2:]:
            key, sep, value = part.partition("=")
            if not sep:
                raise ConfigError(f"mapping line {lineno}: expected key=value, got {part!r}")
            fields[key] = value
        try:
            if kind == "impact":
                impact[label] = ImpactMapping(label, fields["head"], fields["consequence"])
            elif kind == "vector":
                vector[label] = VectorMapping(
                    label, fields["range"], tuple(fields["support"].split(","))
                )
            elif kind == "means":
                means[label] = MeansMapping(label, tuple(fields["body"].split(",")))
            else:
                raise ConfigError(f"mapping line {lineno}: unknown kind {kind!r}")
        except KeyError as exc:
            raise ConfigError(f"mapping line {lineno}: missing field {exc}") from exc
    return MappingTables(impact=impact, vector=vector, means=means)


def load_lexicon(path: str | Path) -> SchemaLexicon:
    return parse_lexicon(read_text(path))


def load_mapping(path: str | Path) -> MappingTables:
    return parse_mapping(read_text(path))


def load_default_lexicon() -> SchemaLexicon:
    return parse_lexicon(read_data("predicate_schemas.txt"))


def load_default_mapping() -> MappingTables:
    return parse_mapping(read_data("mapping_tables.txt"))


def load_default_rule_corpus() -> str:
    return read_data("interaction_rules.P")
