"""Rule synthesis from extracted/completed entities.

Three steps: structure creation (labels pick the head and body predicates),
variable wiring (slot pairs merge when their learned co-wiring probability
clears the threshold and their sorts agree) and constant assignment (entity
values fill constant slots).  The first two depend on the labels alone, so
``build_template`` does them once per label triple and ``assign_constants``
fills each record's constants into the template by index.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..completer import (
    COMPLETABLE_ENTITIES,
    CompletionModel,
    DiscretizationModel,
    build_feature_vector,
    map_to_cluster,
    predict_missing,
)
from ..corpus import tokenize
from ..embedding import EmbeddingModel
from ..errors import (
    EmptyValue,
    MissingArtifact,
    MissingCoreEntity,
    RangeRestrictionViolation,
    Vuln2RuleError,
)
from ..tagger import BlstmModel, EntitySet, extract_entities
from ..tagger import tag as tag_tokens
from .datalog import WILDCARD, InteractionRule, Predicate, Term, check_bound, quote
from .datalog import variable_groups  # noqa: F401  (read here by perfbench's trace hook)
from .schema import MappingTables, PredicateSchema, SchemaLexicon
from .wiring import Slot, UnionFind, WiringMatrix

#: entity keys used by structure creation, in the order they are checked
CORE_ENTITIES = ("means", "impact", "vector")
_CORE_TO_TAG = {"means": "MEANS", "impact": "IMPACT", "vector": "VECTOR"}
#: the id a rule gets when its record has none
PLACEHOLDER_CVE_ID = "CVE-0000-0000"


class UnmappableClusterError(Vuln2RuleError):
    pass


def create_structure(
    clusters: dict[str, str],
    mapping: MappingTables,
    lexicon: SchemaLexicon,
) -> list[tuple[PredicateSchema, list[Term | None]]]:
    """The rule's atoms, head first: the head from the impact label, then
    the means predicates and the vector's support predicates.  The range
    and consequence constants come from the mapping tables; every other
    slot is None."""
    for key in CORE_ENTITIES:
        if not clusters.get(key):
            raise MissingCoreEntity(key)
    impact = mapping.impact.get(clusters["impact"])
    if impact is None:
        raise UnmappableClusterError(f"impact label {clusters['impact']!r} has no mapping")
    vector = mapping.vector.get(clusters["vector"])
    if vector is None:
        raise UnmappableClusterError(f"vector label {clusters['vector']!r} has no mapping")
    means = mapping.means.get(clusters["means"])
    if means is None:
        raise UnmappableClusterError(f"means label {clusters['means']!r} has no mapping")

    fixed = {
        "range": Term.constant(vector.range_constant),
        "consequence": Term.constant(impact.consequence),
    }
    atoms = []
    for name in [impact.head, *means.body, *vector.support]:
        schema = lexicon.require(name)
        terms = [
            fixed.get(sort) if pos in schema.constant_slots else None
            for pos, sort in enumerate(schema.arg_sorts)
        ]
        atoms.append((schema, terms))
    return atoms


_NON_SLUG_RE = re.compile(r"[^a-z0-9_]+")
_SLUG_RE = re.compile(r"[a-z][a-z0-9_]*")


def to_atom(text: str) -> str:
    """Constant-safe rendering: lowercase_underscore atom, or the quoted text
    when the slug cannot stand alone (leading digit, empty, ...)."""
    slug = _NON_SLUG_RE.sub("_", text.lower()).strip("_")
    if _SLUG_RE.fullmatch(slug):
        return slug
    return quote(text, "'")


#: each record sort's term from the record's entities and CVE id; an open
#: slot of any other sort gets a wildcard
_FILLERS = {
    "vulnid": lambda entities, cve_id: Term.constant(quote(cve_id, "'")),
    "product": lambda entities, _: _entity_constant(_first_value(entities, "PLATFORM")),
    "protocol": lambda entities, _: _entity_constant(_first_value(entities, "PROTOCOL")),
    "port": lambda entities, _: _port_constant(_first_value(entities, "PORT")),
}


def assign_constants(
    template: RuleTemplate, entities: EntitySet, cve_id: str
) -> tuple[list[list[Term]], list[tuple[str, str]]]:
    """The template's atom terms with its open constant slots filled:
    vulnerability ids from the CVE id, products/protocols/ports from the
    entities' first values, wildcards when an entity is absent or its first
    value holds no word.  Each sort's term is made once.  Also returns one
    ``("<pred>#<pos>", note)`` trace entry per filled slot, in fill order."""
    made = []
    for sort in template.sorts:
        filler = _FILLERS.get(sort)
        term = filler(entities, cve_id) if filler else Term.wildcard()
        note = f"no entity for sort {sort!r}" if term.kind == WILDCARD else f"{sort} <- {term.text}"
        made.append((term, note))
    terms = [list(atom_terms) for _, atom_terms in template.atoms]
    trace = []
    for ai, pos, sort, key in template.slots:
        term, note = made[sort]
        terms[ai][pos] = term
        trace.append((key, note))
    return terms, trace


def _first_value(entities: EntitySet, tag: str) -> str | None:
    """The entity's first value, or None when the entity is absent or that
    value holds no word."""
    values = entities.values_for(tag)
    return values[0] if values and values[0].split() else None


def _entity_constant(value: str | None) -> Term:
    if value is None:
        return Term.wildcard()
    return Term.constant(to_atom(value))


def _port_constant(value: str | None) -> Term:
    """A port of ASCII digits is written bare, as a Prolog integer; any
    other value as ``_entity_constant`` writes it."""
    if value is not None and value.isascii() and value.isdecimal():
        return Term.constant(value)
    return _entity_constant(value)


def wire_variables(
    slots: list[Slot], sorts: list[str], matrix: WiringMatrix, threshold: float
) -> list[list[int]]:
    """The wiring decision: union-find merge of every two nodes whose slots
    differ, whose probability is at least ``threshold`` and whose sorts
    agree.  Groups of node indices come ordered by their lowest node, with
    members ascending."""
    n = len(slots)
    uf = UnionFind(n)
    prob_of = matrix.prob
    for i in range(n):
        slot, sort = slots[i], sorts[i]
        for j in range(i + 1, n):
            if slots[j] == slot or sorts[j] != sort:
                continue
            prob = prob_of(slot, slots[j])
            if prob is not None and prob >= threshold:
                uf.union(i, j)
    return sorted(uf.groups().values(), key=min)


# --- parsed rules (cross-validation) -------------------------------------------


def infer_slot_sorts(
    matrix: WiringMatrix, lexicon: SchemaLexicon | None = None
) -> dict[Slot, str]:
    """Sorts for slots outside the lexicon, from a matrix as
    ``estimate_wiring_matrix`` returns it: slots joined by a chain of pairs
    ever co-wired in the corpus (``wired_counts > 0``) share a sort; a class
    adopts a declared member sort when one exists."""
    slot_list = matrix.slots
    uf = UnionFind(len(slot_list))
    for a, b in np.argwhere(np.triu(matrix.wired_counts > 0, 1)):
        uf.union(int(a), int(b))

    sorts: dict[Slot, str] = {}
    for root, members in uf.groups().items():
        declared = []
        if lexicon is not None:
            for m in members:
                s = slot_list[m]
                d = lexicon.sort_of(s.name, s.arity, s.pos)
                if d is not None:
                    declared.append(d)
        class_sort = (
            sorted(declared, key=lambda d: (-declared.count(d), d))[0]
            if declared
            else f"inferred{min(members)}"
        )
        for m in members:
            s = slot_list[m]
            own = lexicon.sort_of(s.name, s.arity, s.pos) if lexicon else None
            sorts[s] = own if own is not None else class_sort
    return sorts


# --- end-to-end generation ------------------------------------------------------


class FailureKind(str, Enum):
    MISSING_CORE_ENTITY = "MissingCoreEntity"
    UNSPECIFIED_VULNERABILITY = "UnspecifiedVulnerability"
    UNMAPPABLE_CLUSTER = "UnmappableCluster"
    RANGE_RESTRICTION = "RangeRestrictionViolation"


@dataclass(frozen=True)
class GenerationFailure:
    kind: FailureKind
    detail: str = ""


@dataclass
class GeneratorModels:
    """Everything generation needs, loaded once and then read-only.  Raises
    MissingArtifact when the discretization or the completion models lack
    a completable entity."""

    embedding: EmbeddingModel
    discretization: dict[str, DiscretizationModel]
    completion: dict[str, CompletionModel]
    wiring: WiringMatrix
    lexicon: SchemaLexicon
    mapping: MappingTables
    threshold: float
    tagger: BlstmModel | None = None

    def __post_init__(self):
        for entity in COMPLETABLE_ENTITIES:
            for kind in ("discretization", "completion"):
                if entity not in getattr(self, kind):
                    raise MissingArtifact(f"{kind}:{entity}")


@dataclass(frozen=True)
class RuleTemplate:
    """What a rule's (impact, vector, means) labels decide, built once and
    filled per record.  ``atoms`` holds each atom's predicate name and
    terms, head first, with the variables and the mapping tables' constants
    in place and None in each constant slot a record fills.  ``slots``
    lists those as ``(atom index, position, sort, trace key)`` in fill
    order (atom order, then ascending position); ``sort`` indexes
    ``sorts``, the distinct sorts in order of first slot.  ``violation``
    is the RangeRestrictionViolation message, or None when the rule is
    range-restricted; it holds for every record, since constants never
    bind a head variable."""

    atoms: tuple[tuple[str, tuple[Term | None, ...]], ...]
    sorts: tuple[str, ...]
    slots: tuple[tuple[int, int, int, str], ...]
    violation: str | None


def build_template(labels: dict[str, str], models: GeneratorModels) -> RuleTemplate:
    """The template of ``labels``; raises MissingCoreEntity and
    UnmappableClusterError as ``create_structure`` does.

    Every slot outside its schema's constant slots is a variable node; the
    variables are the classes ``wire_variables`` returns for them.  A class
    is named from its first node's hint: the hint itself, or else the first
    free ``<hint><n>`` with n >= 2."""
    atoms = create_structure(labels, models.mapping, models.lexicon)
    # (atom index, node) of every variable slot, atom by atom
    nodes = [(ai, node) for ai, (schema, _) in enumerate(atoms) for node in schema.variable_nodes]
    slots = [node.slot for _, node in nodes]
    sorts = [node.sort for _, node in nodes]
    in_head, in_body = set(), set()
    for group in wire_variables(slots, sorts, models.wiring, models.threshold):
        base = name = nodes[group[0]][1].hint
        n = 1
        while name in in_head or name in in_body:
            n += 1
            name = f"{base}{n}"
        variable = Term.variable(name)
        for m in group:
            ai, node = nodes[m]
            atoms[ai][1][node.pos] = variable
            (in_body if ai else in_head).add(name)
    try:
        check_bound(in_head, in_body)
        violation = None
    except RangeRestrictionViolation as exc:
        violation = str(exc)
    # every slot still None is a constant slot that the record fills
    open_slots = [
        (ai, pos, schema.arg_sorts[pos], f"{schema.name}#{pos}")
        for ai, (schema, terms) in enumerate(atoms)
        for pos, term in enumerate(terms)
        if term is None
    ]
    open_sorts = tuple(dict.fromkeys([sort for _, _, sort, _ in open_slots]))
    # tuple() of lists: on CPython 3.11 tuple() of a generator leaves the
    # collector's allocation count one higher, and genrule builds per record
    return RuleTemplate(
        atoms=tuple([(schema.name, tuple(terms)) for schema, terms in atoms]),
        sorts=open_sorts,
        slots=tuple([(ai, pos, open_sorts.index(sort), key) for ai, pos, sort, key in open_slots]),
        violation=violation,
    )


def generate(
    description: str,
    models: GeneratorModels,
    gold_entities: EntitySet | None = None,
    cve_id: str | None = None,
    *,
    templates: dict[tuple[str, str, str], RuleTemplate] | None = None,
) -> InteractionRule | GenerationFailure:
    """Description to interaction rule; failures come back as values.

    With ``gold_entities`` (gold or pre-extracted entities) the tagging
    stage is bypassed; gold entities decouple rule-synthesis evaluation from
    tagger quality, and ``run_pipeline`` passes entities it tagged in a batch.

    The record's (impact, vector, means) labels pick its ``RuleTemplate``:
    the one in ``templates`` under that triple, else one built now and
    stored there (``templates`` defaults to a fresh dict).  The record then
    adds its constants only.  A template that fails range restriction fails
    every record that takes it; a triple whose template cannot be built is
    a failure of this record alone and is not stored.
    """
    if gold_entities is not None:
        entity_set = gold_entities
        cve_id = cve_id or gold_entities.cve_id
    else:
        if models.tagger is None:
            raise MissingArtifact("tagger", "needed when no gold entities are given")
        cve_id = cve_id or PLACEHOLDER_CVE_ID
        tokens = tokenize(description)
        if tokens:
            tagged = tag_tokens(models.tagger, models.embedding, tokens)
            entity_set = extract_entities(zip(tokens, [t for t, _ in tagged]), cve_id)
        else:
            entity_set = EntitySet(cve_id=cve_id)

    if not any(entity_set.entities.values()):
        return GenerationFailure(
            FailureKind.MISSING_CORE_ENTITY, "nothing extracted from the description"
        )

    means_text = " ".join(entity_set.values_for("MEANS")).lower()
    if "unspecified vulnerabilit" in means_text:
        return GenerationFailure(FailureKind.UNSPECIFIED_VULNERABILITY, means_text)

    labels: dict[str, str] = {}
    trace: dict[str, str] = {}
    features = None
    for key in CORE_ENTITIES:
        tag_name = _CORE_TO_TAG[key]
        if entity_set.present(tag_name):
            value = entity_set.values_for(tag_name)[0]
            disc = models.discretization[tag_name]
            try:
                _, label = map_to_cluster(disc, value.split(), models.embedding)
            except EmptyValue:
                return GenerationFailure(
                    FailureKind.MISSING_CORE_ENTITY, f"{tag_name} value {value!r} has no word"
                )
            labels[key] = label
            trace[key] = f"entity value {value!r} -> {label}"
        else:
            # predict_missing leaves the features as they are: build them once
            if features is None:
                features = build_feature_vector(entity_set, models.embedding)
            ranked = predict_missing(models.completion[tag_name], features, top_k=1)
            labels[key] = ranked[0][0]
            trace[key] = f"completed -> {ranked[0][0]} (p={ranked[0][1]:.3f})"

    if templates is None:
        templates = {}
    key = (labels["impact"], labels["vector"], labels["means"])
    template = templates.get(key)
    if template is None:
        try:
            template = templates[key] = build_template(labels, models)
        except MissingCoreEntity as exc:
            return GenerationFailure(FailureKind.MISSING_CORE_ENTITY, str(exc))
        except UnmappableClusterError as exc:
            return GenerationFailure(FailureKind.UNMAPPABLE_CLUSTER, str(exc))
    if template.violation is not None:
        return GenerationFailure(FailureKind.RANGE_RESTRICTION, template.violation)

    terms, constants = assign_constants(template, entity_set, cve_id)
    trace.update(constants)
    platform = _first_value(entity_set, "PLATFORM")
    description = (
        f"{cve_id}: {labels['means']} in "
        f"{platform or 'an unspecified product'} "
        f"enables {labels['impact']} ({labels['vector']} vector); auto-generated"
    )
    predicates = [Predicate(name, tuple(t)) for (name, _), t in zip(template.atoms, terms)]
    return InteractionRule(predicates[0], tuple(predicates[1:]), description, trace)
