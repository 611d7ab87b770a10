"""Build and set-up phases: train every artifact through the library, save it
as the CLI does, and load it back with ``load_models``.

Library functions are always called through their modules
(``embedding.train_embedding``, not a local import) so that the traced run's
wraps see the calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from vuln2rule import completer, corpus, demo, embedding, pipeline, tagger
from vuln2rule.rules import datalog, schema, wiring

import inputs
from speed import Stopwatch, Timing

#: end-to-end metric each build step is reported under
STEPS = (
    "train_embedding_s",
    "train_completer_s",
    "train_ner_s",
    "learn_wiring_s",
    "xval_wiring_s",
)


@dataclass(frozen=True)
class DemoSizes:
    """``build_demo_models`` defaults (``make-demo --seed 7``)."""

    seed: int = 7
    n_records: int = 160
    dim: int = 32
    embedding_epochs: int = 25
    ner_epochs: int = 60


@dataclass(frozen=True)
class PaperSizes:
    """Paper shape (vocabulary 10,001 with OOV, dim 100, hidden 100,
    max_len 150) on bounded training inputs made at a fixed seed."""

    seed: int = 0
    vocab: int = 10000
    dim: int = 100
    hidden: int = 100
    max_len: int = 150
    pool: int = 30
    embedding_sentences: int = 8
    ner_sentences: int = 96
    ner_epochs: int = 1
    ner_learning_rate: float = 0.1
    completer_records: int = 600
    wiring_rules: int = 183
    wiring_predicates: int = 51


@dataclass
class Built:
    """Step timings and what the build phase leaves behind besides files."""

    min_s: float
    watch: Stopwatch
    #: the timed calls of each step
    timings: dict[str, list[Timing]] = field(default_factory=dict)
    embedding: embedding.EmbeddingModel | None = None
    tagger: tagger.BlstmModel | None = None
    completion: dict[str, completer.CompletionModel] = field(default_factory=dict)
    wiring_slots: int = 0
    wiring_unknown_share: float = 0.0

    def step(self, name: str, fn: Callable[[], object]):
        """Time ``fn`` as the end-to-end metric ``name``; return its result."""
        self.timings[name], result = timed(fn, self.min_s, self.watch)
        return result


def timed(
    fn: Callable[[], object], min_s: float, watch: Stopwatch, reps: int = 30
) -> tuple[list[Timing], object]:
    """Timings of enough calls of ``fn`` to fill ``min_s`` (at least one, at
    most ``reps``), and the last call's result."""
    timings: list[Timing] = []
    result = None
    while not timings or (sum(t.seconds for t in timings) < min_s and len(timings) < reps):
        timing, result = watch.time(fn)
        timings.append(timing)
    return timings, result


def _artifact(model_dir: Path, key: str) -> Path:
    return model_dir / pipeline.ARTIFACTS[key]


def _completer_step(model_dir, emb, entity_sets, fits: dict[str, Callable]) -> dict:
    """Fit, label and train one completion model per core entity, then save
    both files, as ``train-completer`` does."""
    models = {}
    for entity, fit in fits.items():
        disc = fit()
        model = completer.train_completion(entity_sets, emb, disc, entity)
        completer.save_discretization(
            disc, model_dir / pipeline.DISC_TEMPLATE.format(entity.lower())
        )
        completer.save_completion(
            model, model_dir / pipeline.COMPLETION_TEMPLATE.format(entity.lower())
        )
        models[entity] = model
    return models


def _wiring_step(model_dir: Path, rules) -> wiring.WiringMatrix:
    raw = wiring.estimate_wiring_matrix(rules)
    imputed = wiring.impute_matrix(raw, pipeline.PipelineConfig.wiring_k)
    wiring.save_wiring(raw, _artifact(model_dir, "wiring_raw"))
    wiring.save_wiring(imputed, _artifact(model_dir, "wiring"))
    return raw


def _xval_step() -> pipeline.WiringCvResult:
    rules = datalog.parse_rule_file(schema.load_default_rule_corpus())
    return pipeline.crossvalidate_wiring(
        rules,
        folds=10,
        k_neighbors=pipeline.PipelineConfig.wiring_k,
        threshold=pipeline.PipelineConfig.threshold,
        lexicon=schema.load_default_lexicon(),
    )


def _finish(built: Built, model_dir: Path, rules) -> Built:
    raw = built.step("learn_wiring_s", lambda: _wiring_step(model_dir, rules))
    built.wiring_slots = len(raw.slots)
    off = ~np.eye(len(raw.slots), dtype=bool)
    built.wiring_unknown_share = float(np.isnan(raw.probs[off]).mean())
    built.step("xval_wiring_s", _xval_step)
    return built


def build_demo(model_dir: Path, sizes: DemoSizes, built: Built) -> Built:
    """The steps of ``build_demo_models``, one at a time, each with its save."""
    records = demo.generate_demo_records(sizes.n_records, sizes.seed)
    sentences = [[t.norm for t in corpus.tokenize(r.vulnerability.description)] for r in records]
    sentences.append([t.norm for t in corpus.tokenize(demo.golden_fixture()["description"])])
    config = embedding.EmbeddingConfig(
        variant=embedding.CBOW,
        dim=sizes.dim,
        window=5,
        epochs=sizes.embedding_epochs,
        learning_rate=0.05,
        max_vocab=10000,
        seed=sizes.seed,
    )

    def train_embedding():
        emb = embedding.train_embedding(sentences, config)
        embedding.save_embedding(emb, _artifact(model_dir, "embedding"))
        return emb

    emb = built.embedding = built.step("train_embedding_s", train_embedding)

    exemplars = demo.demo_exemplars()
    counts = demo.demo_cluster_counts()
    entity_sets = [r.entities for r in records]

    def fit(entity):
        values = [v for es in entity_sets for v in es.values_for(entity)]
        return lambda: completer.label_clusters_by_exemplars(
            completer.fit_discretization(values, emb, counts[entity], sizes.seed, entity),
            exemplars[entity],
            emb,
        )

    fits = {entity: fit(entity) for entity in ("VECTOR", "MEANS", "IMPACT")}
    built.completion = built.step(
        "train_completer_s", lambda: _completer_step(model_dir, emb, entity_sets, fits)
    )

    ner_config = tagger.BlstmConfig(
        max_len=60,
        dim=sizes.dim,
        hidden=sizes.dim,
        epochs=sizes.ner_epochs,
        batch_size=32,
        learning_rate=0.1,
        seed=sizes.seed,
    )

    def train_ner():
        model = tagger.train_ner([r.sentence for r in records], emb, ner_config)
        tagger.save_ner(model, _artifact(model_dir, "ner"))
        return model

    built.tagger = built.step("train_ner_s", train_ner)
    rules = datalog.parse_rule_file(schema.load_default_rule_corpus())
    return _finish(built, model_dir, rules)


def build_paper(model_dir: Path, sizes: PaperSizes, built: Built) -> Built:
    """Every trainer at paper shape on bounded inputs, with library defaults
    for everything the sizes do not name."""
    vocab_words = inputs.paper_vocabulary(sizes.vocab, sizes.pool)
    n_train = max(sizes.embedding_sentences, sizes.ner_sentences, sizes.completer_records)
    records = inputs.paper_records(vocab_words, n_train, sizes.seed, 0.08, sizes.max_len, id_base=0)
    sentences = [list(r.sentence.norms()) for r in records[: sizes.embedding_sentences]]
    config = embedding.EmbeddingConfig(dim=sizes.dim, epochs=1, max_vocab=sizes.vocab, seed=sizes.seed)

    def train_embedding():
        vocab = corpus.vocabulary_from_sentences([vocab_words.words], sizes.vocab)
        emb = embedding.train_embedding(sentences, config, vocab)
        embedding.save_embedding(emb, _artifact(model_dir, "embedding"))
        return emb

    emb = built.embedding = built.step("train_embedding_s", train_embedding)

    labels = schema.load_default_mapping().labels()
    entity_sets = [r.entities for r in records[: sizes.completer_records]]

    def fit(entity):
        values = [v for es in entity_sets for v in es.values_for(entity)]
        k = len(labels[entity])
        return lambda: completer.label_clusters(
            completer.fit_discretization(values, emb, k, sizes.seed, entity),
            dict(enumerate(labels[entity])),
        )

    fits = {entity: fit(entity) for entity in ("VECTOR", "MEANS", "IMPACT")}
    built.completion = built.step(
        "train_completer_s", lambda: _completer_step(model_dir, emb, entity_sets, fits)
    )

    ner_config = tagger.BlstmConfig(
        max_len=sizes.max_len,
        dim=sizes.dim,
        hidden=sizes.hidden,
        epochs=sizes.ner_epochs,
        learning_rate=sizes.ner_learning_rate,
        seed=sizes.seed,
    )
    labeled = [r.sentence for r in records[: sizes.ner_sentences]]

    def train_ner():
        model = tagger.train_ner(labeled, emb, ner_config)
        tagger.save_ner(model, _artifact(model_dir, "ner"))
        return model

    built.tagger = built.step("train_ner_s", train_ner)
    rules = datalog.parse_rule_file(schema.load_default_rule_corpus())
    rules += inputs.synthetic_rules(sizes.wiring_rules, sizes.wiring_predicates, sizes.seed)
    return _finish(built, model_dir, rules)


def load(model_dir: Path, need_tagger: bool):
    config = pipeline.PipelineConfig(model_dir=model_dir)
    return pipeline.load_models(config, need_tagger=need_tagger)
