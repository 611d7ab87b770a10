"""Structure creation, constant assignment, variable wiring and generation."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from helpers import (
    reference_assign_constants,
    reference_create_structure,
    reference_hint_for,
    reference_wire_rule,
    reference_wire_variables,
)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vuln2rule.errors import (
    ConfigError,
    MissingArtifact,
    MissingCoreEntity,
    RangeRestrictionViolation,
    Vuln2RuleError,
)
from vuln2rule.rules import synthesis
from vuln2rule.rules.datalog import (
    CONSTANT,
    VARIABLE,
    InteractionRule,
    Predicate,
    Term,
    emit_rule,
    parse_rule_file,
)
from vuln2rule.rules.schema import (
    load_default_lexicon,
    load_default_mapping,
    load_default_rule_corpus,
    PredicateSchema,
    parse_lexicon,
    parse_mapping,
)
from vuln2rule.rules.synthesis import (
    FailureKind,
    GenerationFailure,
    UnmappableClusterError,
    assign_constants,
    build_template,
    create_structure,
    generate,
    infer_slot_sorts,
    to_atom,
    variable_groups,
    wire_variables,
)
from vuln2rule.rules.wiring import Slot, WiringMatrix, estimate_wiring_matrix, impute_matrix
from vuln2rule.tagger import EntitySet


@pytest.fixture(scope="module")
def lexicon():
    return load_default_lexicon()


@pytest.fixture(scope="module")
def mapping():
    return load_default_mapping()


@pytest.fixture(scope="module")
def corpus_matrix():
    rules = parse_rule_file(load_default_rule_corpus())
    return impute_matrix(estimate_wiring_matrix(rules), 5)


def entity_set(cve_id="CVE-2020-0200", **values) -> EntitySet:
    es = EntitySet(cve_id=cve_id)
    for key, vals in values.items():
        es.entities[key.upper()].extend(vals)
    return es


def terms_of(atoms, name):
    return next(terms for schema, terms in atoms if schema.name == name)


_REMOTE_EXEC = {"impact": "execCode", "vector": "remote", "means": "bufferOverflow"}


def template_of(demo_models, labels, lexicon, mapping, matrix, threshold=0.5):
    """``build_template`` on the given tables, wiring and threshold."""
    models = replace(
        demo_models.generator, lexicon=lexicon, mapping=mapping, wiring=matrix, threshold=threshold
    )
    return build_template(labels, models)


def rule_of(template, entities=None, cve_id="CVE-2010-2212", description="", trace=None):
    """The rule that ``generate`` makes from ``template``: its constants
    filled, after ``trace``; raises RangeRestrictionViolation with the
    template's message."""
    if template.violation is not None:
        raise RangeRestrictionViolation(template.violation)
    terms, constants = assign_constants(template, entities or EntitySet(cve_id=cve_id), cve_id)
    predicates = [Predicate(name, tuple(t)) for (name, _), t in zip(template.atoms, terms)]
    return InteractionRule(
        predicates[0], tuple(predicates[1:]), description, {**(trace or {}), **dict(constants)}
    )


class TestCreateStructure:
    def test_remote_exec_structure(self, lexicon, mapping):
        atoms = create_structure(
            {"impact": "execCode", "vector": "remote", "means": "bufferOverflow"},
            mapping, lexicon,
        )
        assert atoms[0][0].name == "execCode"
        body_names = [schema.name for schema, _ in atoms[1:]]
        assert set(body_names) >= {"vulExists", "networkService", "attackerLocated", "netAccess"}
        # every slot outside the constant slots is left open
        for schema, terms in atoms:
            for pos, term in enumerate(terms):
                if pos not in schema.constant_slots:
                    assert term is None

    def test_local_vector_swaps_support_predicates(self, lexicon, mapping):
        atoms = create_structure(
            {"impact": "dos", "vector": "local", "means": "raceCondition"},
            mapping, lexicon,
        )
        body_names = [schema.name for schema, _ in atoms[1:]]
        assert "netAccess" not in body_names
        assert "localAccess" in body_names
        # range constant comes from the vector mapping
        vul_property = terms_of(atoms, "vulProperty")
        assert vul_property[1] == Term.constant("localExploit")
        assert vul_property[2] == Term.constant("dosAttack")

    def test_missing_means_rejected(self, lexicon, mapping):
        with pytest.raises(MissingCoreEntity) as err:
            create_structure({"impact": "execCode", "vector": "remote"}, mapping, lexicon)
        assert err.value.which == "means"

    def test_unmapped_label_rejected(self, lexicon, mapping):
        with pytest.raises(UnmappableClusterError):
            create_structure(
                {"impact": "teleport", "vector": "remote", "means": "bufferOverflow"},
                mapping, lexicon,
            )


def test_lexicon_require_rejects_a_name_at_two_arities():
    lexicon = parse_lexicon("predicate h(V:thing)\npredicate h(V:thing, W:thing)\n")
    assert lexicon.get("h", 2).arity == 2
    with pytest.raises(ConfigError, match="'h'.* 1 and 2"):
        lexicon.require("h")
    with pytest.raises(ConfigError, match="not in the lexicon"):
        lexicon.require("g")


class TestAssignConstants:
    @pytest.fixture
    def build(self, demo_models, lexicon, mapping, corpus_matrix):
        template = template_of(demo_models, _REMOTE_EXEC, lexicon, mapping, corpus_matrix)

        def fill(**entities):
            """The filled atoms as (schema, terms) pairs, and the trace."""
            terms, trace = assign_constants(template, entity_set(**entities), "CVE-2010-2212")
            schemas = [lexicon.require(name) for name, _ in template.atoms]
            return list(zip(schemas, terms)), dict(trace)

        return fill

    def test_vulnerability_id_and_product(self, build):
        atoms, trace = build(platform=["adobe reader"])
        vul = terms_of(atoms, "vulExists")
        assert vul[1] == Term.constant("'CVE-2010-2212'")
        assert vul[2] == Term.constant("adobe_reader")
        assert trace["vulExists#1"] == "vulnid <- 'CVE-2010-2212'"
        assert trace["vulExists#2"] == "product <- adobe_reader"

    def test_absent_protocol_port_become_wildcards(self, build):
        atoms, trace = build(platform=["adobe reader"])
        service = terms_of(atoms, "networkService")
        assert service[2] == Term.wildcard()
        assert service[3] == Term.wildcard()
        assert trace["networkService#3"] == "no entity for sort 'port'"

    def test_present_protocol_port_fill_slots(self, build):
        atoms, _ = build(platform=["apache tomcat"], protocol=["http"], port=["8080"])
        service = terms_of(atoms, "networkService")
        assert service[2] == Term.constant("http")
        assert service[3] == Term.constant("8080")

    @pytest.mark.parametrize("blank", ["", "  ", "\t\n"])
    def test_wordless_values_become_wildcards(self, build, blank):
        atoms, trace = build(platform=[blank], protocol=[blank], port=[blank])
        absent, absent_trace = build()
        assert atoms == absent
        assert trace == absent_trace
        assert terms_of(atoms, "networkService")[1:4] == [Term.wildcard()] * 3

    def test_ascii_digit_port_is_bare_and_any_other_is_quoted(self, build):
        """Only 0-9 reads as a Prolog integer; another script's digits or a
        superscript would not, so such a port is a quoted atom."""
        for port, want in [("8080", "8080"), ("\u0663", "'\u0663'"), ("1\u00b2", "'1\u00b2'"),
                           ("\uff18\uff10", "'\uff18\uff10'"), ("http", "http")]:
            atoms, trace = build(port=[port])
            assert terms_of(atoms, "networkService")[3] == Term.constant(want)
            assert trace["networkService#3"] == f"port <- {want}"

    def test_trace_keys_follow_atom_then_position_order(self, build, demo_models, lexicon,
                                                        mapping, corpus_matrix):
        atoms, trace = build(platform=["adobe reader"], protocol=["http"])
        template = template_of(demo_models, _REMOTE_EXEC, lexicon, mapping, corpus_matrix)
        want = [
            f"{schema.name}#{pos}"
            for schema, terms in create_structure(_REMOTE_EXEC, mapping, lexicon)
            for pos in sorted(schema.constant_slots)
            if terms[pos] is None
        ]
        assert list(trace) == [key for _, _, _, key in template.slots] == want
        assert all(t is not None for _, terms in atoms for t in terms)

    def test_template_holds_the_variables_and_the_mapped_constants(
        self, demo_models, lexicon, mapping, corpus_matrix
    ):
        template = template_of(demo_models, _REMOTE_EXEC, lexicon, mapping, corpus_matrix)
        open_slots = {(ai, pos) for ai, pos, _, _ in template.slots}
        for ai, (name, terms) in enumerate(template.atoms):
            schema = lexicon.require(name)
            for pos, term in enumerate(terms):
                if pos not in schema.constant_slots:
                    assert term.kind == VARIABLE
                elif (ai, pos) in open_slots:
                    assert term is None
                else:
                    assert term.kind == CONSTANT and schema.arg_sorts[pos] in (
                        "range", "consequence"
                    )

    def test_each_sort_is_made_once(
        self, demo_models, lexicon, mapping, corpus_matrix, monkeypatch
    ):
        template = template_of(demo_models, _REMOTE_EXEC, lexicon, mapping, corpus_matrix)
        made = []
        for sort, filler in synthesis._FILLERS.items():
            monkeypatch.setitem(
                synthesis._FILLERS, sort,
                lambda *args, sort=sort, filler=filler: made.append(sort) or filler(*args),
            )
        entities = entity_set(platform=["adobe reader"], protocol=["http"], port=["80"])
        assign_constants(template, entities, "CVE-2010-2212")
        sorts = [template.sorts[sort] for _, _, sort, _ in template.slots]
        assert len(sorts) > len(set(sorts))  # some sort fills two slots
        assert made == list(template.sorts) == list(dict.fromkeys(sorts))

    def test_atom_normalization(self):
        assert to_atom("Mac OS X") == "mac_os_x"
        assert to_atom("adobe reader") == "adobe_reader"
        assert to_atom("9front") == "'9front'"
        assert to_atom("3com's router") == "'3com\\'s router'"


class TestWireVariables:
    def hand_matrix(self, entries):
        slots = sorted({s for pair in entries for s in pair})
        index = {s: i for i, s in enumerate(slots)}
        probs = np.zeros((len(slots), len(slots)))
        for (a, b), p in entries.items():
            probs[index[a], index[b]] = probs[index[b], index[a]] = p
        return WiringMatrix(slots=tuple(slots), probs=probs)

    def test_attacker_slot_shares_variable(self, demo_models, lexicon, mapping, corpus_matrix):
        template = template_of(demo_models, _REMOTE_EXEC, lexicon, mapping, corpus_matrix)
        rule = rule_of(template, entity_set(platform=["adobe reader"]))
        located = next(p for p in rule.body if p.name == "attackerLocated")
        access = next(p for p in rule.body if p.name == "netAccess")
        assert located.args[0] == access.args[0]
        assert located.args[0].text == "AttackerHost"

    def test_threshold_above_one_fails_range_restriction(
        self, demo_models, lexicon, mapping, corpus_matrix
    ):
        template = template_of(demo_models, _REMOTE_EXEC, lexicon, mapping, corpus_matrix, 1.1)
        with pytest.raises(RangeRestrictionViolation):
            rule_of(template, entity_set(platform=["x"]))

    def test_transitive_merge_via_union_find(self, demo_models):
        lexicon = parse_lexicon(
            "predicate h(V:thing)\n"
            "predicate p(V:thing)\n"
            "predicate q(V:thing)\n"
        )
        mapping = parse_mapping(
            "impact i head=h consequence=c\n"
            "vector v range=r support=q\n"
            "means m body=p\n"
        )
        entries = {
            (Slot("h", 1, 0), Slot("p", 1, 0)): 0.9,
            (Slot("p", 1, 0), Slot("q", 1, 0)): 0.9,
            (Slot("h", 1, 0), Slot("q", 1, 0)): 0.0,
        }
        labels = {"impact": "i", "vector": "v", "means": "m"}
        matrix = self.hand_matrix(entries)
        rule = rule_of(template_of(demo_models, labels, lexicon, mapping, matrix))
        names = {rule.head.args[0].text} | {p.args[0].text for p in rule.body}
        assert len(names) == 1  # all three slots merged transitively

    def test_sort_gate_blocks_type_absurd_merge(self, demo_models):
        lexicon = parse_lexicon(
            "predicate h(H:host)\n"
            "predicate p(H:host)\n"
            "predicate q(P:port)\n"
        )
        mapping = parse_mapping(
            "impact i head=h consequence=c\n"
            "vector v range=r support=q\n"
            "means m body=p\n"
        )
        entries = {
            (Slot("h", 1, 0), Slot("p", 1, 0)): 1.0,
            (Slot("h", 1, 0), Slot("q", 1, 0)): 1.0,  # statistically high, type-absurd
            (Slot("p", 1, 0), Slot("q", 1, 0)): 0.0,
        }
        labels = {"impact": "i", "vector": "v", "means": "m"}
        matrix = self.hand_matrix(entries)
        rule = rule_of(template_of(demo_models, labels, lexicon, mapping, matrix))
        q_pred = next(p for p in rule.body if p.name == "q")
        assert q_pred.args[0].text != rule.head.args[0].text

    def test_partition_is_ordered_by_lowest_node(self):
        h0, h1, p0, q0 = Slot("h", 2, 0), Slot("h", 2, 1), Slot("p", 1, 0), Slot("q", 1, 0)
        matrix = self.hand_matrix({(h0, q0): 0.9, (p0, h1): 0.9, (h0, p0): 0.9})
        # h0-p0 clears the threshold but their sorts differ
        groups = wire_variables([q0, p0, h1, h0], ["s", "t", "t", "s"], matrix, 0.5)
        assert groups == [[0, 3], [1, 2]]

    def test_two_nodes_of_one_slot_never_merge(self):
        p0 = Slot("p", 1, 0)
        matrix = WiringMatrix(slots=(p0,), probs=np.ones((1, 1)))
        assert wire_variables([p0, p0], ["s", "s"], matrix, 0.5) == [[0], [1]]

    def test_hint_taken_by_another_class_is_not_reused(self, demo_models):
        lexicon = parse_lexicon(
            "predicate h(X:a, X2:b)\n"
            "predicate p(X:a)\n"
            "predicate r(X:a, W:b)\n"
        )
        mapping = parse_mapping(
            "impact i head=h consequence=c\n"
            "vector v range=rr support=r\n"
            "means m body=p\n"
        )
        h0, h1, p0, r0, r1 = (
            Slot("h", 2, 0), Slot("h", 2, 1), Slot("p", 1, 0), Slot("r", 2, 0), Slot("r", 2, 1)
        )
        matrix = self.hand_matrix({(h0, p0): 1.0, (h1, r1): 1.0})
        labels = {"impact": "i", "vector": "v", "means": "m"}
        rule = rule_of(template_of(demo_models, labels, lexicon, mapping, matrix))
        # r#0 has hint X like h#0, and X2 is h#1's own hint
        assert [t.text for t in rule.head.args] == ["X", "X2"]
        assert [t.text for t in rule.body[1].args] == ["X3", "X2"]
        nodes = [(0, 0), (0, 1), (1, 0), (2, 0), (2, 1)]
        groups = wire_variables([h0, h1, p0, r0, r1], ["a", "b", "a", "a", "b"], matrix, 0.5)
        assert set(variable_groups(rule)) == {frozenset(nodes[m] for m in g) for g in groups}


class TestSelfConsistency:
    def test_packaged_corpus_rewires_exactly(self, lexicon, corpus_matrix):
        """Each packaged rule's variable slots, partitioned with the matrix
        learned on the whole corpus, give back the rule's own variables."""
        for rule in parse_rule_file(load_default_rule_corpus()):
            preds = rule.predicates()
            nodes = sorted(n for group in variable_groups(rule) for n in group)
            slots = [Slot(preds[ai].name, preds[ai].arity, pos) for ai, pos in nodes]
            sorts = [
                lexicon.sort_of(s.name, s.arity, s.pos) or f"slot_{s.name}_{s.arity}_{s.pos}"
                for s in slots
            ]
            groups = wire_variables(slots, sorts, corpus_matrix, 0.5)
            assert {frozenset(nodes[m] for m in g) for g in groups} == set(
                variable_groups(rule)
            ), emit_rule(rule)

    def test_inferred_sorts_cover_unknown_predicates(self, lexicon):
        rules = parse_rule_file("foo(X, Y) :- bar(X), baz(Y, Z).\n")
        sorts = infer_slot_sorts(estimate_wiring_matrix(rules), lexicon)
        assert sorts[Slot("foo", 2, 0)] == sorts[Slot("bar", 1, 0)]
        assert sorts[Slot("foo", 2, 1)] == sorts[Slot("baz", 2, 0)]
        assert sorts[Slot("foo", 2, 0)] != sorts[Slot("foo", 2, 1)]


def _packaged_triples(mapping) -> list[dict[str, str]]:
    """Every (impact, vector, means) label triple of the mapping tables,
    then triples that fail: an unmapped label and a missing one."""
    triples = [
        {"impact": i, "vector": v, "means": m}
        for i in mapping.impact for v in mapping.vector for m in mapping.means
    ]
    return triples + [
        {"impact": "teleport", "vector": "remote", "means": "bufferOverflow"},
        {"impact": "execCode", "vector": "remote", "means": ""},
    ]


def _synthesized(steps, clusters, entities, cve_id, threshold):
    """A rule's emitted bytes and trace items, or its failure kind and
    message; ``steps`` runs structure, constants and wiring."""
    try:
        rule = steps(clusters, entities, cve_id, threshold)
    except Vuln2RuleError as exc:
        return type(exc).__name__, str(exc)
    return emit_rule(rule), list(rule.trace.items())


def _core_trace(clusters):
    return {key: f"entity value {label!r} -> {label}" for key, label in clusters.items()}


def _description(clusters, entities, cve_id):
    return f"{cve_id}: {clusters['means']} in {entities.values_for('PLATFORM')}; auto-generated"


def _random_matrix(slots, seed) -> WiringMatrix:
    """Symmetric uniform probabilities over ``slots``, a fifth of them
    Unknown: partitions that the packaged matrix never gives, such as two
    classes with one hint."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((len(slots), len(slots))), 1)
    upper[rng.random(upper.shape) < 0.2] = np.nan
    return WiringMatrix(slots=slots, probs=np.maximum(upper, upper.T))


#: an entity value: absent (None), blank, quoted, unicode, or plain
_ENTITY_VALUE = st.one_of(
    st.none(),
    st.sampled_from(["", " ", "\t\n", "adobe reader", "3com's router", 'say "hi"',
                     "back\\slash", "line\nbreak", "8080", "\u0663", "1\u00b2", "Ünïcödé"]),
    st.text(max_size=8),
)


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    platform=_ENTITY_VALUE,
    protocol=_ENTITY_VALUE,
    port=_ENTITY_VALUE,
    cve_id=st.text(alphabet=st.sampled_from("CVE-2010'\"\\\n xé"), min_size=1, max_size=12),
    threshold=st.sampled_from([0.3, 0.5, 0.8, 1.1]),
    matrix_seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
)
def test_synthesis_matches_the_skeleton_reference(
    demo_models, lexicon, mapping, corpus_matrix, platform, protocol, port, cve_id, threshold,
    matrix_seed,
):
    """Over every label triple of the packaged tables, a template filled
    with the record's constants gives the rule bytes and trace (keys,
    values and order) of the skeleton-object steps, or the same failure.
    The matrix is the packaged one or a random one over its slots."""
    matrix = corpus_matrix
    if matrix_seed is not None:
        matrix = _random_matrix(corpus_matrix.slots, matrix_seed)
    entities = EntitySet(cve_id=cve_id)
    for tag, value in (("PLATFORM", platform), ("PROTOCOL", protocol), ("PORT", port)):
        if value is not None:
            entities.entities[tag].append(value)

    def templated(clusters, entities, cve_id, threshold):
        template = template_of(demo_models, clusters, lexicon, mapping, matrix, threshold)
        description = _description(clusters, entities, cve_id)
        return rule_of(template, entities, cve_id, description, _core_trace(clusters))

    def skeletons(clusters, entities, cve_id, threshold):
        skeleton = reference_create_structure(clusters, mapping, lexicon)
        skeleton.trace.update(_core_trace(clusters))
        skeleton.description = _description(clusters, entities, cve_id)
        reference_assign_constants(skeleton, entities, cve_id)
        return reference_wire_rule(skeleton, matrix, threshold)

    for clusters in _packaged_triples(mapping):
        want = _synthesized(skeletons, clusters, entities, cve_id, threshold)
        got = _synthesized(templated, clusters, entities, cve_id, threshold)
        assert got == want, clusters


@settings(max_examples=150, deadline=None)
@given(
    n_slots=st.integers(1, 6),
    picks=st.lists(st.tuples(st.integers(0, 5), st.sampled_from("ab")), max_size=10),
    threshold=st.sampled_from([0.0, 0.3, 0.5, 0.8, 1.1]),
    seed=st.integers(0, 2**32 - 1),
)
def test_wire_variables_matches_the_reference(n_slots, picks, threshold, seed):
    """Over random matrices, with repeated slots and mixed sorts, the
    groups are the reference's; a pick past the matrix's slots is a slot
    it does not hold."""
    slots = tuple(Slot(f"p{i}", 2, i % 2) for i in range(n_slots))
    matrix = _random_matrix(slots, seed)
    nodes = [Slot(f"p{i}", 2, i % 2) for i, _ in picks]
    sorts = [sort for _, sort in picks]
    want = reference_wire_variables(nodes, sorts, matrix, threshold)
    assert wire_variables(nodes, sorts, matrix, threshold) == want


_NAME_TEXT = st.one_of(st.text(alphabet="_aZé1- ", max_size=4), st.text(max_size=4))


@settings(max_examples=150, deadline=None)
@given(
    args=st.lists(st.tuples(_NAME_TEXT, _NAME_TEXT, st.booleans()), min_size=1, max_size=5)
)
def test_variable_nodes_match_the_per_slot_reference(args):
    """A schema's variable nodes are its slots outside the constant slots,
    in order, each with the hint the per-slot reference gives it."""
    schema = PredicateSchema(
        name="p",
        arity=len(args),
        arg_sorts=tuple(sort for sort, _, _ in args),
        var_hints=tuple(hint for _, hint, _ in args),
        constant_slots=frozenset(pos for pos, (_, _, constant) in enumerate(args) if constant),
    )
    want = [
        (pos, Slot("p", len(args), pos), schema.arg_sorts[pos], reference_hint_for(schema, pos))
        for pos in range(len(args))
        if pos not in schema.constant_slots
    ]
    assert [tuple(node) for node in schema.variable_nodes] == want


class TestGenerate:
    def test_golden_entities_to_golden_rule(self, demo_models):
        from vuln2rule.demo import golden_entity_set, golden_rule_text

        rule = generate("", demo_models.generator, gold_entities=golden_entity_set())
        golden = parse_rule_file(golden_rule_text())[0]
        assert rule.head.name == golden.head.name
        got_body = sorted((p.name, p.arity) for p in rule.body)
        want_body = sorted((p.name, p.arity) for p in golden.body)
        assert got_body == want_body

    def test_unspecified_vulnerability_reported(self, demo_models):
        gold = entity_set(means=["unspecified vulnerability"], platform=["adobe reader"])
        result = generate("", demo_models.generator, gold_entities=gold)
        assert isinstance(result, GenerationFailure)
        assert result.kind == FailureKind.UNSPECIFIED_VULNERABILITY

    def test_empty_description_reports_missing_core_entity(self, demo_models):
        result = generate("", demo_models.generator, cve_id="CVE-2020-0300")
        assert isinstance(result, GenerationFailure)
        assert result.kind == FailureKind.MISSING_CORE_ENTITY

    def test_unmappable_cluster_reported(self, demo_models, lexicon):
        from dataclasses import replace

        models = demo_models.generator
        crippled = parse_mapping("impact execCode head=execCode consequence=privEscalation\n"
                                 "vector remote range=remoteExploit support=netAccess\n"
                                 "means other body=vulExists\n")
        hobbled = replace_models(models, mapping=crippled)
        gold = entity_set(
            means=["buffer overflow"], impact=["execute arbitrary code"],
            vector=["remote"], platform=["adobe reader"],
        )
        result = generate("", hobbled, gold_entities=gold)
        assert isinstance(result, GenerationFailure)
        assert result.kind == FailureKind.UNMAPPABLE_CLUSTER

    def test_feature_vector_built_once_for_two_missing_entities(self, demo_models, monkeypatch):
        from vuln2rule.rules import synthesis

        calls = []
        build = synthesis.build_feature_vector
        monkeypatch.setattr(synthesis, "build_feature_vector",
                            lambda *args: calls.append(args) or build(*args))
        gold = entity_set(means=["buffer overflow"], platform=["adobe reader"])
        rule = generate("", demo_models.generator, gold_entities=gold)
        assert not isinstance(rule, GenerationFailure)
        assert "completed" in rule.trace["impact"] and "completed" in rule.trace["vector"]
        assert len(calls) == 1

    @pytest.mark.parametrize("tag", ["MEANS", "IMPACT", "VECTOR"])
    def test_wordless_core_value_is_a_missing_core_entity(self, demo_models, tag):
        gold = entity_set(
            means=["buffer overflow"], impact=["execute arbitrary code"],
            vector=["remote"], platform=["adobe reader"],
        )
        gold.entities[tag] = [" "]
        result = generate("", demo_models.generator, gold_entities=gold)
        assert result == GenerationFailure(
            FailureKind.MISSING_CORE_ENTITY, f"{tag} value ' ' has no word"
        )

    def test_wordless_platform_reads_as_absent(self, demo_models):
        from vuln2rule.rules.datalog import emit_rule

        core = {"means": ["buffer overflow"], "impact": ["execute arbitrary code"],
                "vector": ["remote"]}
        blank = generate("", demo_models.generator, gold_entities=entity_set(**core, platform=[" "]))
        absent = generate("", demo_models.generator, gold_entities=entity_set(**core))
        assert "in an unspecified product enables" in blank.description
        assert emit_rule(blank) == emit_rule(absent)

    def test_wordless_core_value_fails_only_its_record(self, demo_models):
        from vuln2rule.pipeline import run_pipeline
        from vuln2rule.rules.datalog import emit_rules

        records = demo_models.records[:6]
        inputs = [r.vulnerability for r in records]
        gold = {r.vulnerability.id: r.entities for r in records}
        want_report, want = run_pipeline(demo_models.generator, inputs, gold_entities=gold)
        assert [outcome for _, outcome in want_report.outcomes] == ["rule"] * 6
        blank = entity_set(cve_id=inputs[0].id, means=[""], platform=["adobe reader"])
        report, rules = run_pipeline(
            demo_models.generator, inputs, gold_entities={**gold, inputs[0].id: blank}
        )
        assert report.outcomes == [(inputs[0].id, "MissingCoreEntity"), *want_report.outcomes[1:]]
        assert report.failures == {"MissingCoreEntity": 1}
        assert emit_rules(rules) == emit_rules(want[1:])

    @pytest.mark.parametrize("kind", ["discretization", "completion"])
    @pytest.mark.parametrize("entity", ["VECTOR", "IMPACT", "MEANS"])
    def test_models_without_a_completable_entity_are_rejected(self, demo_models, kind, entity):
        models = demo_models.generator
        lacking = {k: v for k, v in getattr(models, kind).items() if k != entity}
        with pytest.raises(MissingArtifact, match=f"{kind}:{entity}"):
            replace(models, **{kind: lacking})

    def test_generated_rules_satisfy_range_restriction(self, demo_models):
        from vuln2rule.rules.datalog import emit_rule

        for record in demo_models.records[:40]:
            result = generate(
                record.vulnerability.description,
                demo_models.generator,
                gold_entities=record.entities,
            )
            if not isinstance(result, GenerationFailure):
                emit_rule(result)  # raises if a head variable is unbound


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    cve_id=st.text(alphabet=st.sampled_from("CVE-2010'\"\\\n x"), min_size=1, max_size=12),
    platform=st.text(alphabet=st.sampled_from("3com's \"\\\nrouter"), min_size=1, max_size=12),
    port=st.sampled_from(["8080", "1\u00b2", "\u0663", "http's"]),
)
def test_generated_rules_with_quotes_re_parse(demo_models, cve_id, platform, port):
    """CVE ids, products and ports holding quotes, backslashes or newlines
    give rules that parse back to themselves."""
    from vuln2rule.demo import golden_entity_set

    gold = golden_entity_set()
    gold.entities["PLATFORM"] = [platform]
    gold.entities["PORT"] = [port]
    rule = generate("", demo_models.generator, gold_entities=gold, cve_id=cve_id)
    text = emit_rule(rule)
    assert parse_rule_file(text) == [rule]
    assert parse_rule_file(text)[0].description == rule.description
    assert emit_rule(parse_rule_file(text)[0]) == text


def replace_models(models, **changes):
    from dataclasses import replace

    return replace(models, **changes)
