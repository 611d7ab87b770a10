"""Batch generation reports, wiring cross-validation and the eval suite."""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_generate, synthesize_wiring_corpus
from vuln2rule._textio import RANGES, config_meta, read_data
from vuln2rule.corpus import RawVulnerability
from vuln2rule.embedding import EmbeddingConfig, EmbeddingModel
from vuln2rule.demo import generate_demo_records, golden_entity_set
from vuln2rule.errors import ConfigError, TooFewRules
from vuln2rule import pipeline
from vuln2rule.pipeline import (
    EvalInputs,
    PipelineConfig,
    crossvalidate_wiring,
    eval_suite,
    run_pipeline,
)
from vuln2rule.rules.datalog import (
    InteractionRule,
    Predicate,
    Term,
    emit_rule,
    emit_rules,
    parse_rule_file,
)
from vuln2rule.rules import synthesis
from vuln2rule.rules.synthesis import GenerationFailure, GeneratorModels, generate
from vuln2rule.rules.schema import (
    load_default_lexicon,
    load_default_rule_corpus,
    parse_mapping,
)
from vuln2rule.tagger import BlstmConfig, EntitySet


class TestRunPipeline:
    def test_golden_input_succeeds(self, demo_models, tmp_path):
        gold = golden_entity_set()
        record = RawVulnerability("CVE-2010-2212", "placeholder description")
        out = tmp_path / "rules.P"
        report, rules = run_pipeline(
            demo_models.generator, [record], gold_entities={"CVE-2010-2212": gold},
            out_path=out,
        )
        assert report.success_ratio() == 1.0
        assert len(rules) == 1
        assert out.exists()
        assert parse_rule_file(out.read_text("utf-8"))[0].head.name == "execCode"

    def test_empty_inputs_ratio_is_na(self, demo_models):
        report, rules = run_pipeline(demo_models.generator, [])
        assert report.success_ratio() is None
        assert "n/a" in report.metrics_json()
        assert rules == []

    def test_unspecified_means_histogram(self, demo_models):
        inputs = []
        gold = {}
        for i in range(3):
            cve = f"CVE-2022-{1000 + i}"
            inputs.append(RawVulnerability(cve, "an unspecified vulnerability allows bad things"))
            es = golden_entity_set()
            es.cve_id = cve
            es.entities["MEANS"] = ["unspecified vulnerability"]
            gold[cve] = es
        report, rules = run_pipeline(demo_models.generator, inputs, gold_entities=gold)
        assert report.success_ratio() == 0.0
        assert report.failures == {"UnspecifiedVulnerability": 3}

    def test_success_ratio_recomputes_from_outcomes(self, demo_models):
        records = demo_models.records[:30]
        inputs = [r.vulnerability for r in records]
        gold = {r.vulnerability.id: r.entities for r in records}
        report, rules = run_pipeline(demo_models.generator, inputs, gold_entities=gold)
        generated = sum(1 for _, o in report.outcomes if o == "rule")
        assert report.success_ratio() == generated / len(inputs)
        assert generated == len(rules)

    def test_ner_path_runs_without_gold(self, demo_models):
        inputs = [r.vulnerability for r in demo_models.records[:10]]
        report, rules = run_pipeline(demo_models.generator, inputs)
        assert len(report.outcomes) == 10
        assert report.success_ratio() is not None
        assert set(report.timings) == {"tag", "generate"}
        assert "timings" not in report.metrics_json()

    def test_batch_matches_single_record_generate(self, demo_models):
        """Batch tagging in run_pipeline gives the rule file and outcomes of
        one generate call per record."""
        inputs = [r.vulnerability for r in demo_models.records] + [
            RawVulnerability("CVE-2099-0001", "!!! ---"),
            RawVulnerability("CVE-2099-0002", "Unspecified vulnerability in adobe reader"),
        ]
        report, rules = run_pipeline(demo_models.generator, inputs)
        singles = [
            generate(r.description, demo_models.generator, cve_id=r.id) for r in inputs
        ]
        kept = [emit_rule(r) for r in singles if not isinstance(r, GenerationFailure)]
        assert emit_rules(rules) == "\n\n".join(kept) + "\n"
        assert [o for _, o in report.outcomes] == [
            r.kind.value if isinstance(r, GenerationFailure) else "rule" for r in singles
        ]

    def test_gold_records_are_not_tagged(self, demo_models, monkeypatch):
        records = demo_models.records[:6]
        gold = {r.vulnerability.id: r.entities for r in records[::2]}
        seen = []
        original = pipeline.tag_texts

        def recording(model, emb, texts):
            seen.extend(cve_id for cve_id, _ in texts)
            return original(model, emb, texts)

        monkeypatch.setattr(pipeline, "tag_texts", recording)
        inputs = [r.vulnerability for r in records]
        run_pipeline(demo_models.generator, inputs, gold_entities=gold)
        assert seen == [r.vulnerability.id for r in records[1::2]]
        seen.clear()
        run_pipeline(demo_models.generator, inputs[::2], gold_entities=gold)
        assert seen == []


def masked_gold_sets(records) -> dict[str, EntitySet]:
    """Each record's gold set without one of its core entities (the i-th
    record drops its present core entity ``i mod count``), so every record
    goes through completion and wiring."""
    gold = {}
    for i, record in enumerate(records):
        entities = EntitySet(
            cve_id=record.entities.cve_id,
            entities={k: list(v) for k, v in record.entities.entities.items()},
        )
        present = [t for t in ("VECTOR", "IMPACT", "MEANS") if entities.present(t)]
        entities.entities[present[i % len(present)]] = []
        gold[record.vulnerability.id] = entities
    return gold


def fresh_generator(models: GeneratorModels) -> GeneratorModels:
    """The same models behind a new embedding object, whose caches start
    empty."""
    emb = models.embedding
    return replace(
        models, embedding=EmbeddingModel(vocab=emb.vocab, w_in=emb.w_in, w_out=None, config=emb.config)
    )


class TestServeBytes:
    """The rule bytes of the demo models over the demo corpus at seed 7,
    served from tagged text and from gold sets with a core entity masked."""

    TAGGED_SHA256 = "cdccdd691a3df27bef2f30f4f61342ac040f34cf5f082122ce97e3a9816eaa13"
    MASKED_SHA256 = "a53b8481380d0aee1d7c3a9bdef874fa23b4fb21d9f7594813d49b26a71210d2"
    #: the gold entity sets as ``make-demo`` writes them (demo_entities.jsonl)
    ENTITIES_SHA256 = "3af6f049c11e2c30d012d5e154887033a860b744054dd0a92b44c57f6ed2c2b2"

    @staticmethod
    def served(models, gold):
        records = generate_demo_records(160, 7)
        _, rules = run_pipeline(models, [r.vulnerability for r in records], gold_entities=gold)
        return emit_rules(rules).encode("utf-8")

    def test_tagged_bytes_pinned(self, demo_models):
        text = self.served(fresh_generator(demo_models.generator), None)
        assert hashlib.sha256(text).hexdigest() == self.TAGGED_SHA256

    def test_masked_gold_bytes_pinned(self, demo_models):
        gold = masked_gold_sets(generate_demo_records(160, 7))
        text = self.served(fresh_generator(demo_models.generator), gold)
        assert hashlib.sha256(text).hexdigest() == self.MASKED_SHA256

    def test_gold_entity_bytes_pinned(self, tmp_path):
        from vuln2rule.demo import write_demo_entities

        path = tmp_path / "demo_entities.jsonl"
        write_demo_entities(generate_demo_records(160, 7), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.ENTITIES_SHA256

    def test_cold_and_warm_models_serve_the_same_bytes(self, demo_models):
        models = fresh_generator(demo_models.generator)
        gold = masked_gold_sets(generate_demo_records(160, 7))
        cold = self.served(models, gold)
        assert self.served(models, gold) == cold
        assert self.served(models, None) == self.served(fresh_generator(models), None)


def outcome(result) -> tuple:
    """A generation result as data: the rule's bytes and trace, or the
    failure's kind and message."""
    if isinstance(result, GenerationFailure):
        return ("failure", result.kind.value, result.detail)
    return ("rule", emit_rule(result), list(result.trace.items()))


def recorded_run(models, inputs, gold):
    """run_pipeline's report and rules, and the result of each of its
    generate calls."""
    results = []
    original = pipeline.generate

    def recording(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "generate", recording)
        report, rules = run_pipeline(models, inputs, gold_entities=gold)
    return report, rules, results


_MAPPING_LINES = [
    line for line in read_data("mapping_tables.txt").splitlines() if line and not line.startswith("#")
]
_CONSTANT_VALUES = st.sampled_from(["adobe reader", "", "3com's router", "8080", "tcp", "Ünï"])


@st.composite
def gold_files(draw, records):
    """One input file of gold sets drawn from the first 12 demo records, so
    that triples repeat: some lose a core entity or get other constants,
    a few say "unspecified vulnerability" or hold nothing."""
    inputs, gold = [], {}
    for i in range(draw(st.integers(1, 20))):
        source = records[draw(st.integers(0, 11))].entities
        entities = {k: list(v) for k, v in source.entities.items()}
        masked = draw(st.sampled_from([None, "VECTOR", "IMPACT", "MEANS"]))
        if masked is not None:
            entities[masked] = []
        for tag in draw(st.sets(st.sampled_from(["PLATFORM", "PROTOCOL", "PORT"]))):
            entities[tag] = [draw(_CONSTANT_VALUES)]
        special = draw(st.sampled_from([None] * 8 + ["unspecified", "empty"]))
        if special == "unspecified":
            entities["MEANS"] = ["unspecified vulnerability"]
        elif special == "empty":
            entities = {}
        cve_id = f"CVE-2030-{i:04d}"
        inputs.append(RawVulnerability(cve_id, "gold"))
        gold[cve_id] = EntitySet(cve_id=cve_id, entities=entities)
    return inputs, gold


class TestRuleTemplates:
    """run_pipeline builds each triple's template once per call; the
    per-record oracle redoes structure, constants and wiring per record."""

    @settings(max_examples=30, deadline=None)
    @given(
        data=st.data(),
        threshold=st.sampled_from([0.0, 0.5, 0.9, 1.01]),
        dropped=st.sets(st.sampled_from(_MAPPING_LINES), max_size=6),
    )
    def test_matches_the_per_record_oracle(self, demo_models, data, threshold, dropped):
        """Same rule bytes, traces, failure kinds and messages.  Threshold
        1.01 wires nothing, so every template fails range restriction; a
        dropped mapping line makes its label unmappable."""
        mapping = parse_mapping("\n".join(l for l in _MAPPING_LINES if l not in dropped))
        models = replace(demo_models.generator, threshold=threshold, mapping=mapping)
        inputs, gold = data.draw(gold_files(demo_models.records))
        report, rules, results = recorded_run(models, inputs, gold)
        want = [reference_generate(r.description, models, gold[r.id], r.id) for r in inputs]
        assert [outcome(r) for r in results] == [outcome(r) for r in want]
        kept = [r for r in want if not isinstance(r, GenerationFailure)]
        assert [emit_rule(r) for r in rules] == [emit_rule(r) for r in kept]
        assert [o for _, o in report.outcomes] == [
            r.kind.value if isinstance(r, GenerationFailure) else "rule" for r in want
        ]

    def test_one_build_per_distinct_triple_per_call(self, demo_models, monkeypatch):
        """Within a call, create_structure and wire_variables run once per
        distinct triple: the triples a file's records take one at a time.
        A second call, or one with other models, builds its own again."""
        records = generate_demo_records(60, 7)
        inputs = [r.vulnerability for r in records]
        gold = masked_gold_sets(records)
        built, wired = [], []
        create_structure, wire_variables = synthesis.create_structure, synthesis.wire_variables

        def counting_structure(clusters, *args):
            built.append((clusters["impact"], clusters["vector"], clusters["means"]))
            return create_structure(clusters, *args)

        def counting_wiring(*args):
            wired.append(args)
            return wire_variables(*args)

        monkeypatch.setattr(synthesis, "create_structure", counting_structure)
        monkeypatch.setattr(synthesis, "wire_variables", counting_wiring)
        run_pipeline(demo_models.generator, inputs, gold_entities=gold)
        first = list(built)
        assert len(set(first)) == len(first) == len(wired) < len(inputs)
        built.clear()
        for record in inputs:
            run_pipeline(demo_models.generator, [record], gold_entities=gold)
        assert set(built) == set(first) and len(built) == len(inputs)
        built.clear()
        report, _ = run_pipeline(demo_models.generator, inputs, gold_entities=gold)
        assert built == first and report.failures == {}
        built.clear()
        strict = replace(demo_models.generator, threshold=1.01)
        report, rules = run_pipeline(strict, inputs, gold_entities=gold)
        assert built == first
        assert rules == [] and report.failures == {"RangeRestrictionViolation": len(inputs)}


def template_rule(wired: bool, tag: int = 0) -> InteractionRule:
    if wired:
        a, b, c = (Term.variable(n) for n in ("A", "B", "C"))
        body = (Predicate(f"p{tag}", (a, c)), Predicate(f"q{tag}", (c, b)))
        return InteractionRule(Predicate(f"g{tag}", (a, b)), body)
    # every variable distinct: no pair is wired in this variant
    names = ("A", "B", "C", "D", "E", "F")
    a, b, c, d, e, f = (Term.variable(n) for n in names)
    body = (Predicate(f"p{tag}", (c, d)), Predicate(f"q{tag}", (e, f)))
    return InteractionRule(Predicate(f"g{tag}", (a, b)), body)


class TestCrossvalidateWiring:
    def test_uniform_corpus_scores_perfectly(self):
        rules = [template_rule(wired=True) for _ in range(20)]
        result = crossvalidate_wiring(rules, folds=10, k_neighbors=5, threshold=0.5)
        assert result.f1 == 1.0
        assert result.accuracy == 1.0

    def test_contradictory_corpus_bounded(self):
        # 50/50 wired/unwired: the learned ratio straddles the threshold,
        # so the positive class cannot beat F1 = 2/3
        rules = []
        for _ in range(10):
            rules.append(template_rule(wired=True))
            rules.append(template_rule(wired=False))
        result = crossvalidate_wiring(rules, folds=10, k_neighbors=5, threshold=0.5)
        assert result.f1 <= 0.67

    def test_synthetic_noisy_corpus_above_bar(self):
        rules = synthesize_wiring_corpus(n_templates=6, per_template=10, noise_rate=0.1, seed=0)
        assert len(rules) == 60
        result = crossvalidate_wiring(
            rules, folds=10, k_neighbors=5, threshold=0.5, lexicon=load_default_lexicon()
        )
        assert result.f1 >= 0.80

    def test_too_few_rules_rejected(self):
        with pytest.raises(TooFewRules):
            crossvalidate_wiring([template_rule(True)] * 3, folds=10, k_neighbors=5, threshold=0.5)

    # one fold would leave no training rules
    @pytest.mark.parametrize("folds", [0, -1, 1])
    def test_folds_below_one_rejected(self, folds):
        rules = [template_rule(wired=True) for _ in range(20)]
        with pytest.raises(ConfigError, match=f"folds must be at least 2, got {folds}"):
            crossvalidate_wiring(rules, folds=folds, k_neighbors=5, threshold=0.5)

    def test_packaged_corpus_reported(self):
        rules = parse_rule_file(load_default_rule_corpus())
        result = crossvalidate_wiring(
            rules, folds=5, k_neighbors=5, threshold=0.5, lexicon=load_default_lexicon()
        )
        assert 0.0 <= result.f1 <= 1.0
        assert 0.0 <= result.accuracy <= 1.0


#: (corpus, with the lexicon, threshold) -> (fold_f1, fold_accuracy) at k=5;
#: the packaged and seed-3 corpora run 10 folds, the nine-template one 5
FOLD_PINS = {
    ("packaged", True, 0.3): (
        (
            1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.6153846153846153, 1.0, 0.25, 0.0
        ),
        (
            1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.9019607843137255, 1.0, 0.7857142857142857,
            0.7619047619047619
        ),
    ),
    ("packaged", True, 0.5): (
        (
            0.9777777777777777, 0.9777777777777777, 0.972972972972973, 0.972972972972973,
            0.972972972972973, 0.972972972972973, 0.6153846153846153, 1.0, 0.33333333333333337,
            0.0
        ),
        (
            0.9955555555555555, 0.9955555555555555, 0.9917355371900827, 0.9917355371900827,
            0.9917355371900827, 0.9917355371900827, 0.9019607843137255, 1.0, 0.8571428571428571,
            0.7619047619047619
        ),
    ),
    ("packaged", True, 0.8): (
        (
            0.9777777777777777, 0.9777777777777777, 0.972972972972973, 0.972972972972973,
            0.972972972972973, 0.972972972972973, 0.6153846153846153, 0.7499999999999999, 0.0,
            0.0
        ),
        (
            0.9955555555555555, 0.9955555555555555, 0.9917355371900827, 0.9917355371900827,
            0.9917355371900827, 0.9917355371900827, 0.9019607843137255, 0.9047619047619048,
            0.8214285714285714, 0.7619047619047619
        ),
    ),
    ("packaged", False, 0.3): (
        (
            1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.6153846153846153, 1.0, 0.33333333333333337, 0.0
        ),
        (
            1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.9019607843137255, 1.0, 0.8571428571428571,
            0.7619047619047619
        ),
    ),
    ("packaged", False, 0.5): (
        (
            0.9777777777777777, 0.9777777777777777, 0.972972972972973, 0.972972972972973,
            0.972972972972973, 0.972972972972973, 0.6153846153846153, 1.0, 0.33333333333333337,
            0.0
        ),
        (
            0.9955555555555555, 0.9955555555555555, 0.9917355371900827, 0.9917355371900827,
            0.9917355371900827, 0.9917355371900827, 0.9019607843137255, 1.0, 0.8571428571428571,
            0.7619047619047619
        ),
    ),
    ("packaged", False, 0.8): (
        (
            0.9777777777777777, 0.9777777777777777, 0.972972972972973, 0.972972972972973,
            0.972972972972973, 0.972972972972973, 0.6153846153846153, 0.7499999999999999, 0.0,
            0.0
        ),
        (
            0.9955555555555555, 0.9955555555555555, 0.9917355371900827, 0.9917355371900827,
            0.9917355371900827, 0.9917355371900827, 0.9019607843137255, 0.9047619047619048,
            0.8214285714285714, 0.7619047619047619
        ),
    ),
    ("synthetic-3", False, 0.3): (
        (
            1.0, 1.0, 0.9411764705882353, 0.9714285714285714, 1.0, 1.0, 0.9411764705882353, 1.0,
            0.9714285714285714, 1.0
        ),
        (
            1.0, 1.0, 0.9777777777777777, 0.9888888888888889, 1.0, 1.0, 0.9777777777777777, 1.0,
            0.9888888888888889, 1.0
        ),
    ),
    ("synthetic-3", False, 0.5): (
        (
            1.0, 1.0, 0.9411764705882353, 0.9714285714285714, 1.0, 1.0, 0.9411764705882353, 1.0,
            0.9714285714285714, 1.0
        ),
        (
            1.0, 1.0, 0.9777777777777777, 0.9888888888888889, 1.0, 1.0, 0.9777777777777777, 1.0,
            0.9888888888888889, 1.0
        ),
    ),
    ("synthetic-3", False, 0.8): (
        (
            0.9411764705882353, 0.9411764705882353, 0.9090909090909091, 0.8749999999999999,
            0.9090909090909091, 0.9411764705882353, 0.9411764705882353, 0.9714285714285714,
            0.8749999999999999, 0.8750000000000001
        ),
        (
            0.9777777777777777, 0.9777777777777777, 0.9666666666666667, 0.9555555555555556,
            0.9666666666666667, 0.9777777777777777, 0.9777777777777777, 0.9888888888888889,
            0.9555555555555556, 0.9555555555555556
        ),
    ),
    ("synthetic-9", True, 0.3): (
        (
            0.9514563106796117, 0.9411764705882353, 0.9714285714285714, 0.9306930693069307,
            0.9411764705882353
        ),
        (
            0.9814814814814815, 0.9777777777777777, 0.9888888888888889, 0.9740740740740741,
            0.9777777777777777
        ),
    ),
    ("synthetic-9", True, 0.5): (
        (
            0.9306930693069307, 0.9199999999999999, 0.9714285714285714, 0.9306930693069307,
            0.9411764705882353
        ),
        (
            0.9740740740740741, 0.9703703703703703, 0.9888888888888889, 0.9740740740740741,
            0.9777777777777777
        ),
    ),
    ("synthetic-9", True, 0.8): (
        (
            0.8505747126436782, 0.8351648351648352, 0.8181818181818183, 0.8863636363636364,
            0.8636363636363635
        ),
        (
            0.9518518518518518, 0.9444444444444444, 0.9407407407407408, 0.9629629629629629,
            0.9555555555555556
        ),
    ),
}


PIN_CORPORA = {
    "packaged": lambda: parse_rule_file(load_default_rule_corpus()),
    "synthetic-3": lambda: synthesize_wiring_corpus(seed=3),
    "synthetic-9": lambda: synthesize_wiring_corpus(n_templates=9, noise_rate=0.3, seed=5),
}


@pytest.mark.parametrize("corpus, with_lexicon, threshold", sorted(FOLD_PINS))
def test_fold_scores_pinned(corpus, with_lexicon, threshold):
    """Every fold's F1 and accuracy, exactly; the synthetic predicates lie
    outside the lexicon, so their sorts are the inferred ones."""
    fold_f1, fold_accuracy = FOLD_PINS[corpus, with_lexicon, threshold]
    result = crossvalidate_wiring(
        PIN_CORPORA[corpus](),
        folds=len(fold_f1),
        k_neighbors=5,
        threshold=threshold,
        lexicon=load_default_lexicon() if with_lexicon else None,
    )
    assert result.fold_f1 == fold_f1
    assert result.fold_accuracy == fold_accuracy


@pytest.fixture(scope="module")
def eval_data(demo_models):
    records = demo_models.records
    return EvalInputs(
        corpus=[r.vulnerability for r in records],
        labeled=[r.sentence for r in records],
        entity_sets=[r.entities for r in records],
        rules=parse_rule_file(load_default_rule_corpus()),
    )


class TestEvalSuite:
    def test_all_sections_present(self, demo_models, eval_data):
        report = eval_suite(demo_models.generator, eval_data, PipelineConfig())
        for key in ("frequency_top10", "nearest_neighbors", "ner_f1",
                    "completion", "wiring_cv", "success_ratio"):
            assert key in report.metrics, key

    def test_requested_ks_reported(self, demo_models, eval_data):
        report = eval_suite(demo_models.generator, eval_data, PipelineConfig(top_ks=(2, 3)))
        assert report.metrics["completion"]
        for entity, entry in report.metrics["completion"].items():
            assert set(entry) == {"precision@2", "recall@2", "precision@3", "recall@3"}

    #: the metrics of ``eval --demo --seed 7``, which CI checks too
    METRICS_SHA256 = "3a0c72fd7f7320525a4a7f77282c1fe30d1a5242d2890be93b5787ff2fafd57b"

    def test_metrics_deterministic_across_runs(self, demo_models, eval_data):
        first = eval_suite(demo_models.generator, eval_data, PipelineConfig())
        second = eval_suite(demo_models.generator, eval_data, PipelineConfig())
        assert first.metrics_json() == second.metrics_json()

    def test_metrics_pinned(self, demo_models, eval_data):
        text = eval_suite(demo_models.generator, eval_data, PipelineConfig()).metrics_json()
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == self.METRICS_SHA256


class TestPipelineConfig:
    def test_defaults_follow_published_hyperparameters(self):
        assert EmbeddingConfig().dim == 100
        assert EmbeddingConfig().epochs == 300
        assert BlstmConfig().epochs == 100
        assert BlstmConfig().batch_size == 32
        config = PipelineConfig()
        assert config.completer_iterations == 70
        assert config.wiring_k == 5
        assert config.threshold == 0.5

    def test_from_file(self, tmp_path):
        lexicon = tmp_path / "lexicon.txt"
        lexicon.write_text("# empty lexicon\n", "utf-8")
        cfg_file = tmp_path / "pipeline.cfg"
        cfg_file.write_text(
            "# comment\n"
            f"lexicon_path = {lexicon}\n"
            "seed = 11\n"
            "threshold = 0.6\n"
            "k_clusters.VECTOR = 3\n"
            "top_ks = 1,2\n",
            "utf-8",
        )
        config = PipelineConfig.from_file(cfg_file)
        assert config.lexicon_path == lexicon
        assert config.seed == 11
        assert config.threshold == 0.6
        assert config.k_clusters["VECTOR"] == 3
        assert config.top_ks == (1, 2)
        # the embedding and tagger trainers read these from their flags only
        for line in ("embedding.dim = 50", "ner.epochs = 7", f"corpus_path = {lexicon}"):
            cfg_file.write_text(line + "\n", "utf-8")
            with pytest.raises(ConfigError, match="unknown config key"):
                PipelineConfig.from_file(cfg_file)

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("no_such_key = 1\n", "utf-8")
        with pytest.raises(ConfigError):
            PipelineConfig.from_file(cfg_file)

    def test_missing_path_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(f"lexicon_path = {tmp_path/'absent.txt'}\n", "utf-8")
        with pytest.raises(ConfigError):
            PipelineConfig.from_file(cfg_file)

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_wiring_k_below_one_rejected(self, tmp_path, value):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(f"wiring_k = {value}\n", "utf-8")
        with pytest.raises(ConfigError, match="config line 1: wiring_k must be at least 1"):
            PipelineConfig.from_file(cfg_file)

    @pytest.mark.parametrize(
        "line, match",
        [
            ("top_ks = 0", "top_ks must be at least 1"),
            ("top_ks = 1,-2", "top_ks must be at least 1"),
            ("seed = -1", "seed must be at least 0"),
            ("k_clusters.VECTOR = 0", "k_clusters.VECTOR must be at least 1"),
            ("k_clusters.FOO = 3", "unknown config key 'k_clusters.FOO'"),
            ("k_clusters = 3", "unknown config key 'k_clusters'"),
            ("threshold = nan", "threshold must be a number, not NaN"),
            ("completer_l2 = nan", "completer_l2 must be a finite number at least 0"),
            ("completer_l2 = -5", "completer_l2 must be a finite number at least 0"),
            ("completer_l2 = inf", "completer_l2 must be a finite number at least 0"),
            ("completer_iterations = 0", "completer_iterations must be at least 1"),
            ("completer_iterations = -3", "completer_iterations must be at least 1"),
        ],
    )
    def test_value_out_of_range_rejected(self, tmp_path, line, match):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(f"# range checks\n{line}\n", "utf-8")
        with pytest.raises(ConfigError, match=f"config line 2: .*{match}"):
            PipelineConfig.from_file(cfg_file)

    def test_completer_bounds_accepted(self, tmp_path):
        cfg_file = tmp_path / "edge.cfg"
        cfg_file.write_text("completer_l2 = 0\ncompleter_iterations = 1\n", "utf-8")
        config = PipelineConfig.from_file(cfg_file)
        assert (config.completer_l2, config.completer_iterations) == (0.0, 1)

    def test_bad_line_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("just a line without equals\n", "utf-8")
        with pytest.raises(ConfigError):
            PipelineConfig.from_file(cfg_file)


#: per declared range: a value on its boundary, and one just outside it
RANGE_EDGES = {
    "at least 0": (0, -1),
    "at least 1": (1, 0),
    "a finite number > 0": (5e-324, 0.0),
    "a finite number at least 0": (0.0, -5e-324),
    "a number, not NaN": (-math.inf, math.nan),
    "CBOW or SG": ("SG", "XX"),
}

DECLARED_SETTINGS = [
    pytest.param(cls, f, id=f"{cls.__name__}.{f.name}")
    for cls in (EmbeddingConfig, BlstmConfig, PipelineConfig)
    for f in fields(cls)
    if "range" in f.metadata
]


class TestDeclaredSettings:
    def test_every_range_has_edges(self):
        assert set(RANGE_EDGES) == set(RANGES)
        assert len(DECLARED_SETTINGS) == 21

    @pytest.mark.parametrize("cls,f", DECLARED_SETTINGS)
    def test_boundary_accepted_and_just_outside_rejected(self, cls, f):
        inside, outside = RANGE_EDGES[f.metadata["range"]]
        # a dict is checked per value, a tuple per item
        wrap = {
            "k_clusters": lambda v: {"VECTOR": 4, "MEANS": v},
            "top_ks": lambda v: (2, v),
        }.get(f.name, lambda v: v)
        name = "k_clusters.MEANS" if f.name == "k_clusters" else f.name
        assert getattr(cls(**{f.name: wrap(inside)}), f.name) == wrap(inside)
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be "):
            cls(**{f.name: wrap(outside)})

    def test_pipeline_config_built_in_code_is_checked(self):
        with pytest.raises(ValueError, match="^wiring_k must be at least 1, got 0"):
            PipelineConfig(wiring_k=0)

    def test_k_clusters_default_not_shared(self):
        first = PipelineConfig()
        first.k_clusters["VECTOR"] = 9
        assert PipelineConfig().k_clusters == {"VECTOR": 4, "IMPACT": 6, "MEANS": 8}

    def test_field_order_and_defaults_pinned(self):
        assert list(config_meta(EmbeddingConfig()).items()) == list({
            "variant": "CBOW", "dim": "100", "window": "5", "epochs": "300",
            "learning_rate": "0.0001", "max_vocab": "10000", "seed": "0",
        }.items())
        assert list(config_meta(BlstmConfig()).items()) == list({
            "max_len": "150", "dim": "100", "hidden": "100", "epochs": "100",
            "batch_size": "32", "learning_rate": "0.01", "seed": "0",
        }.items())
        assert [f.name for f in fields(PipelineConfig)] == [
            "model_dir", "lexicon_path", "mapping_path", "k_clusters", "completer_l2",
            "completer_iterations", "wiring_k", "threshold", "top_ks", "seed",
        ]
        # perfbench reads these two as class attributes
        assert (PipelineConfig.wiring_k, PipelineConfig.threshold) == (5, 0.5)
