"""End-to-end orchestration: configuration, batch rule generation, wiring
cross-validation and the evaluation suite."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import _textio
from ._textio import FIELD_PARSERS, check_settings, setting
from .completer import (
    COMPLETABLE_ENTITIES,
    COMPLETION_ITERATIONS,
    COMPLETION_L2,
    CompletionModel,
    DiscretizationModel,
    completion_example,
    fit_discretization,
    label_clusters_by_exemplars,
    load_completion,
    load_discretization,
    mean_precision_recall_at_k,
    predict_missing,
    save_completion,
    save_discretization,
    train_completion,
)
from .corpus import LabeledSentence, RawVulnerability, word_frequency_report
from .embedding import EmbeddingModel, load_embedding, nearest_neighbors
from .errors import ConfigError, MismatchedArtifacts, MissingArtifact, TooFewRules
from .rules.datalog import InteractionRule, emit_rules, variable_groups
from .rules.schema import (
    SchemaLexicon,
    load_default_lexicon,
    load_default_mapping,
    load_lexicon,
    load_mapping,
)
from .rules.synthesis import (
    GenerationFailure,
    GeneratorModels,
    RuleTemplate,
    generate,
    infer_slot_sorts,
    wire_variables,
)
from .rules.wiring import Slot, estimate_wiring_matrix, impute_matrix, load_wiring
from .tagger import BlstmModel, EntitySet, evaluate_tagger, load_ner, tag_texts


# --- configuration ----------------------------------------------------------

#: artifact file names inside the model directory (versioned)
ARTIFACTS = {
    "embedding": "embedding.v3.bin",
    "ner": "ner.v2.bin",
    "wiring_raw": "wiring_raw.v1.csv",
    "wiring": "wiring.v1.csv",
}
DISC_TEMPLATE = "discretization_{}.v2.bin"
COMPLETION_TEMPLATE = "completion_{}.v2.bin"


@dataclass
class PipelineConfig:
    """What the commands read besides their own flags: the model directory,
    optional lexicon and mapping files, completer, wiring and evaluation
    settings, and the seed.  Each field is the one place its setting's
    default lives; the library functions that read a setting take it as a
    required argument.  The embedding and tagger trainers take their inputs
    and hyperparameters from their flags only."""

    model_dir: Path = Path("models")
    lexicon_path: Path | None = None
    mapping_path: Path | None = None
    k_clusters: dict[str, int] = setting({"VECTOR": 4, "IMPACT": 6, "MEANS": 8}, "at least 1")
    completer_l2: float = setting(COMPLETION_L2, "a finite number at least 0")
    completer_iterations: int = setting(COMPLETION_ITERATIONS, "at least 1")
    wiring_k: int = setting(5, "at least 1")
    threshold: float = setting(0.5, "a number, not NaN")
    top_ks: tuple[int, ...] = setting((1, 2, 3), "at least 1")
    seed: int = setting(0, "at least 0")

    def __post_init__(self):
        check_settings(self)

    @staticmethod
    def from_file(path: str | Path) -> PipelineConfig:
        """Key-value config: one ``key = value`` per line, '#' comments.

        Keys: every field, parsed by its type (top_ks as a comma list),
        with k_clusters set per entity as k_clusters.{VECTOR,IMPACT,MEANS}.
        Any other key, and a value outside the field's declared range, is a
        ConfigError.
        """
        config = PipelineConfig()
        types = {f.name: f.type for f in fields(config)}
        for lineno, raw in enumerate(_textio.read_text(path).splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = (p.strip() for p in line.partition("="))
            if not sep:
                raise ConfigError(f"config line {lineno}: expected 'key = value'")
            name, _, entity = key.partition(".")
            try:
                if name == "k_clusters" and entity in COMPLETABLE_ENTITIES:
                    parsed = {**config.k_clusters, entity: int(value)}
                elif types.get(key) in FIELD_PARSERS:
                    parsed = FIELD_PARSERS[types[key]](value)
                else:
                    raise ConfigError(f"config line {lineno}: unknown config key {key!r}")
                config = replace(config, **{name: parsed})
            except ValueError as exc:
                raise ConfigError(f"config line {lineno}: {exc}") from exc
        for name in ("lexicon_path", "mapping_path"):
            value = getattr(config, name)
            if value is not None and not Path(value).exists():
                raise ConfigError(f"{name} does not exist: {value}")
        return config


def _artifact(config: PipelineConfig, stage: str, name: str) -> Path:
    """The artifact ``name`` in the model directory; raises MissingArtifact
    naming the stage that writes it when the file is absent."""
    path = Path(config.model_dir) / name
    if not path.exists():
        raise MissingArtifact(stage, str(path))
    return path


def _check_dim(config: PipelineConfig, dim: int, path: Path, fits: bool, found: str) -> None:
    if not fits:
        emb_path = Path(config.model_dir) / ARTIFACTS["embedding"]
        raise MismatchedArtifacts(f"{path} has {found}, but {emb_path} has dim {dim}")


def load_embedding_and_tagger(
    config: PipelineConfig, need_tagger: bool = True
) -> tuple[EmbeddingModel, BlstmModel | None]:
    """The embedding and, with ``need_tagger``, the tagger, from the model
    directory; raises MissingArtifact naming the stage whose file is absent,
    and MismatchedArtifacts when the tagger was trained for another
    embedding dimension."""
    emb = load_embedding(_artifact(config, "train-embedding", ARTIFACTS["embedding"]))
    if not need_tagger:
        return emb, None
    ner_path = _artifact(config, "train-ner", ARTIFACTS["ner"])
    tagger_model = load_ner(ner_path)
    got = tagger_model.config.dim
    _check_dim(config, emb.dim, ner_path, got == emb.dim, f"dim {got}")
    return emb, tagger_model


def configured_lexicon(config: PipelineConfig) -> SchemaLexicon:
    """The lexicon at ``lexicon_path``, else the packaged one."""
    return load_lexicon(config.lexicon_path) if config.lexicon_path else load_default_lexicon()


def load_completer(
    config: PipelineConfig, dim: int
) -> tuple[dict[str, DiscretizationModel], dict[str, CompletionModel]]:
    """The discretization and the completion model of every completable
    entity, from the model directory; raises MissingArtifact naming the
    stage whose file is absent, and MismatchedArtifacts when a file was
    trained for another embedding dimension than ``dim``, or a completion
    class is not a cluster of its discretization under that cluster's label."""
    discretization = {}
    completion = {}
    for entity in COMPLETABLE_ENTITIES:
        disc_path = _artifact(config, "train-completer", DISC_TEMPLATE.format(entity.lower()))
        disc = discretization[entity] = load_discretization(disc_path)
        cols = disc.centroids.shape[1]
        _check_dim(config, dim, disc_path, cols == dim, f"{cols}-column centroids")
        comp_path = _artifact(config, "train-completer", COMPLETION_TEMPLATE.format(entity.lower()))
        comp = completion[entity] = load_completion(comp_path)
        # load_completion has checked weights against block_dim
        _check_dim(config, dim, comp_path, comp.block_dim == dim, f"block_dim {comp.block_dim}")
        # train_completion writes each class as (cid, disc.labels[cid])
        for cid, label in comp.classes:
            if disc.labels.get(cid) != label:
                raise MismatchedArtifacts(
                    f"{comp_path} has class {cid}:{label}, but {disc_path} has no "
                    f"cluster {cid} labeled {label}"
                )
    return discretization, completion


def train_completer(
    entity_sets: list[EntitySet],
    emb: EmbeddingModel,
    exemplars: dict[str, dict[str, list[str]]],
    config: PipelineConfig,
) -> tuple[dict[str, DiscretizationModel], dict[str, CompletionModel]]:
    """Per completable entity: cluster its values into the configured number
    of clusters, label each cluster by its nearest exemplar phrase, and train
    the completion model with the configured L2 weight and iteration cap."""
    discretization = {}
    completion = {}
    for entity in COMPLETABLE_ENTITIES:
        values = [v for es in entity_sets for v in es.values_for(entity)]
        disc = fit_discretization(values, emb, config.k_clusters[entity], config.seed, entity)
        disc = discretization[entity] = label_clusters_by_exemplars(disc, exemplars[entity], emb)
        completion[entity] = train_completion(
            entity_sets, emb, disc, entity,
            l2=config.completer_l2, iterations=config.completer_iterations,
        )
    return discretization, completion


def save_completer(
    model_dir: Path,
    discretization: dict[str, DiscretizationModel],
    completion: dict[str, CompletionModel],
) -> None:
    """The six files that ``load_completer`` reads."""
    for entity in COMPLETABLE_ENTITIES:
        name = entity.lower()
        save_discretization(discretization[entity], model_dir / DISC_TEMPLATE.format(name))
        save_completion(completion[entity], model_dir / COMPLETION_TEMPLATE.format(name))


def load_models(config: PipelineConfig, need_tagger: bool = True) -> GeneratorModels:
    """Load every artifact from the model directory; raises MissingArtifact
    naming the stage whose file is absent, and MismatchedArtifacts when a
    file was trained for another embedding dimension than the embedding, or
    holds a cluster label that the mapping tables do not map; raises
    ConfigError when the mapping tables name a predicate that the lexicon
    does not declare, or declares at two arities."""
    emb, tagger_model = load_embedding_and_tagger(config, need_tagger)
    discretization, completion = load_completer(config, emb.dim)
    wiring = load_wiring(_artifact(config, "learn-wiring", ARTIFACTS["wiring"]))
    lexicon = configured_lexicon(config)
    mapping = (
        load_mapping(config.mapping_path) if config.mapping_path else load_default_mapping()
    )
    mapping_source = config.mapping_path or "the packaged mapping tables"
    for name in sorted(mapping.predicates()):
        try:
            lexicon.require(name)
        except ConfigError as exc:
            raise ConfigError(f"{mapping_source}: {exc}") from exc
    mapped = mapping.labels()
    # load_completer has checked each completion class against these labels
    for entity in COMPLETABLE_ENTITIES:
        unmapped = sorted(set(discretization[entity].labels.values()) - set(mapped[entity]))
        if unmapped:
            path = Path(config.model_dir) / DISC_TEMPLATE.format(entity.lower())
            raise MismatchedArtifacts(
                f"{path} has {entity} labels {unmapped} that {mapping_source} do not map"
            )
    return GeneratorModels(
        embedding=emb,
        discretization=discretization,
        completion=completion,
        wiring=wiring,
        lexicon=lexicon,
        mapping=mapping,
        tagger=tagger_model,
        threshold=config.threshold,
    )


# --- run report ----------------------------------------------------------------


@dataclass
class RunReport:
    counts: dict[str, int] = field(default_factory=dict)
    outcomes: list[tuple[str, str]] = field(default_factory=list)
    failures: dict[str, int] = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)

    def success_ratio(self) -> float | None:
        if not self.outcomes:
            return None
        generated = sum(1 for _, outcome in self.outcomes if outcome == "rule")
        return generated / len(self.outcomes)

    def _metrics(self) -> dict:
        ratio = self.success_ratio()
        return {
            "counts": self.counts,
            "failures": self.failures,
            "metrics": self.metrics,
            "success_ratio": "n/a" if ratio is None else ratio,
        }

    def metrics_json(self) -> str:
        """Deterministic metrics section (no timings)."""
        return json.dumps(self._metrics(), sort_keys=True, indent=2)

    def to_json(self) -> str:
        payload = {**self._metrics(), "outcomes": self.outcomes, "timings": self.timings}
        return json.dumps(payload, sort_keys=True, indent=2)

    def render_text(self) -> str:
        lines = ["== run report =="]
        ratio = self.success_ratio()
        lines.append(f"success ratio: {'n/a' if ratio is None else f'{ratio:.3f}'}")
        for key in sorted(self.counts):
            lines.append(f"count {key}: {self.counts[key]}")
        for key in sorted(self.failures):
            lines.append(f"failure {key}: {self.failures[key]}")
        for key in sorted(self.metrics):
            lines.append(f"metric {key}: {json.dumps(self.metrics[key], sort_keys=True)}")
        for key in sorted(self.timings):
            lines.append(f"time {key}: {self.timings[key]:.3f}s")
        return "\n".join(lines) + "\n"


# --- batch generation -------------------------------------------------------------


def run_pipeline(
    models: GeneratorModels,
    inputs: list[RawVulnerability],
    gold_entities: dict[str, EntitySet] | None = None,
    out_path: str | Path | None = None,
) -> tuple[RunReport, list[InteractionRule]]:
    """One rule or one failure reason per input; optionally write the rules
    to ``out_path`` in the canonical file format (an empty file when no rule
    was made).

    Records without gold entities are tokenized, tagged and their entities
    extracted first, all of them in one batched tagger call (length-bucketed
    padded batches); ``generate`` then gets each record's pre-extracted
    entities.  ``timings`` has one entry per stage: ``tag`` and ``generate``.

    Rule templates are built once per call: the records of one input file
    that share an (impact, vector, means) triple share its ``RuleTemplate``
    (predicates, wired variables and range-restriction verdict), and each
    record fills in its constants.  The templates go when the call
    returns.
    """
    report = RunReport()
    rules: list[InteractionRule] = []
    start = time.perf_counter()
    entity_sets = [
        gold_entities.get(record.id) if gold_entities else None for record in inputs
    ]
    untagged = [i for i, entities in enumerate(entity_sets) if entities is None]
    if models.tagger is not None and untagged:
        texts = [(inputs[i].id, inputs[i].description) for i in untagged]
        for i, tagged in zip(untagged, tag_texts(models.tagger, models.embedding, texts)):
            entity_sets[i] = tagged.entities
    report.timings["tag"] = time.perf_counter() - start
    start = time.perf_counter()
    templates: dict[tuple[str, str, str], RuleTemplate] = {}
    for record, entities in zip(inputs, entity_sets):
        result = generate(
            record.description, models, gold_entities=entities, cve_id=record.id,
            templates=templates,
        )
        if isinstance(result, GenerationFailure):
            report.outcomes.append((record.id, result.kind.value))
            report.failures[result.kind.value] = report.failures.get(result.kind.value, 0) + 1
        else:
            report.outcomes.append((record.id, "rule"))
            rules.append(result)
    report.timings["generate"] = time.perf_counter() - start
    report.counts["inputs"] = len(inputs)
    report.counts["rules"] = len(rules)
    if out_path is not None:
        _textio.write_text(out_path, emit_rules(rules) if rules else "")
    return report, rules


# --- wiring cross-validation ---------------------------------------------------------


@dataclass(frozen=True)
class WiringCvResult:
    f1: float
    accuracy: float
    fold_f1: tuple[float, ...]
    fold_accuracy: tuple[float, ...]


def _slot_sort(slot: Slot, lexicon: SchemaLexicon | None, inferred: dict[Slot, str]) -> str:
    declared = lexicon.sort_of(slot.name, slot.arity, slot.pos) if lexicon is not None else None
    if declared is not None:
        return declared
    return inferred.get(slot, f"slot_{slot.name}_{slot.arity}_{slot.pos}")


def crossvalidate_wiring(
    rules: list[InteractionRule],
    folds: int,
    k_neighbors: int,
    threshold: float,
    lexicon: SchemaLexicon | None = None,
) -> WiringCvResult:
    """Per fold: learn the matrix on the training rules, partition each test
    rule's variable slots with ``wire_variables``, and score every pair of
    variable slots as wired/not-wired against the rule's own variables.

    A slot's sort is the lexicon's when its predicate is declared, else the
    training fold's inferred sort, else one of its own.  ``folds < 2``
    raises ConfigError: one fold leaves no training rules."""
    if folds < 2:
        raise ConfigError(f"folds must be at least 2, got {folds}")
    if len(rules) < folds:
        raise TooFewRules(f"{len(rules)} rules for {folds} folds")
    chunks = np.array_split(np.arange(len(rules)), folds)
    fold_f1: list[float] = []
    fold_acc: list[float] = []
    for fold in chunks:
        test_idx = set(int(i) for i in fold)
        train = [r for i, r in enumerate(rules) if i not in test_idx]
        test = [rules[i] for i in sorted(test_idx)]
        raw = estimate_wiring_matrix(train)
        matrix = impute_matrix(raw, k_neighbors)
        inferred = infer_slot_sorts(raw, lexicon)
        tp = fp = fn = tn = 0
        for rule in test:
            # node -> the index of its variable in the rule
            truth = {node: v for v, group in enumerate(variable_groups(rule)) for node in group}
            nodes = sorted(truth)
            predicates = rule.predicates()
            slots = [Slot(predicates[ai].name, predicates[ai].arity, pos) for ai, pos in nodes]
            sorts = [_slot_sort(slot, lexicon, inferred) for slot in slots]
            predicted = [0] * len(nodes)
            for g, members in enumerate(wire_variables(slots, sorts, matrix, threshold)):
                for m in members:
                    predicted[m] = g
            for j in range(len(nodes)):
                for i in range(j):
                    in_truth = truth[nodes[i]] == truth[nodes[j]]
                    in_pred = predicted[i] == predicted[j]
                    if in_truth and in_pred:
                        tp += 1
                    elif in_pred:
                        fp += 1
                    elif in_truth:
                        fn += 1
                    else:
                        tn += 1
        precision = tp / (tp + fp) if tp + fp else (1.0 if fn == 0 else 0.0)
        recall = tp / (tp + fn) if tp + fn else 1.0
        f1 = (
            2 * precision * recall / (precision + recall)
            if precision + recall
            else 0.0
        )
        total = tp + fp + fn + tn
        fold_f1.append(f1)
        fold_acc.append((tp + tn) / total if total else 1.0)
    return WiringCvResult(
        f1=float(np.mean(fold_f1)),
        accuracy=float(np.mean(fold_acc)),
        fold_f1=tuple(fold_f1),
        fold_accuracy=tuple(fold_acc),
    )


# --- evaluation suite ---------------------------------------------------------------

#: the fold count of ``eval``'s wiring cross-validation, and ``xval-wiring``'s default
WIRING_CV_FOLDS = 10
#: the words whose nearest neighbours ``eval`` reports
PROBE_WORDS = ("buffer", "remote", "windows", "code")


@dataclass
class EvalInputs:
    corpus: list[RawVulnerability]
    labeled: list[LabeledSentence]
    entity_sets: list[EntitySet]
    rules: list[InteractionRule]


def eval_suite(models: GeneratorModels, data: EvalInputs, config: PipelineConfig) -> RunReport:
    """Frequency report, neighbor probes, tagger F1, completion ranking
    metrics at ``config.top_ks``, wiring cross-validation (``WIRING_CV_FOLDS``
    folds, ``config.wiring_k`` imputation neighbours) and the end-to-end
    success ratio over ``data.corpus``, all in one machine-readable report."""
    report = RunReport()
    t0 = time.perf_counter()

    report.metrics["frequency_top10"] = [
        [w, c] for w, c in word_frequency_report(data.corpus, 10)
    ]
    probes = {}
    for word in PROBE_WORDS:
        if word in models.embedding.vocab:
            probes[word] = [
                [w, round(s, 6)] for w, s in nearest_neighbors(models.embedding, word, 5)
            ]
    report.metrics["nearest_neighbors"] = probes

    if models.tagger is not None and data.labeled:
        f1 = evaluate_tagger(models.tagger, models.embedding, data.labeled)
        report.metrics["ner_f1"] = {
            "per_class": {
                cls: {"precision": s.precision, "recall": s.recall, "f1": s.f1, "support": s.support}
                for cls, s in f1.per_class.items()
            },
            "micro_f1": f1.micro.f1,
            "macro_f1": f1.macro_f1,
        }

    completion_metrics: dict[str, dict[str, float]] = {}
    for entity, model in models.completion.items():
        disc = models.discretization[entity]
        queries = []
        for entity_set in data.entity_sets:
            example = completion_example(entity_set, entity, models.embedding, disc)
            if example is not None:
                features, cid = example
                ranked = [lbl for lbl, _ in predict_missing(model, features)]
                queries.append((ranked, disc.labels[cid]))
        if not queries:
            continue
        entry = {}
        for k in config.top_ks:
            precision, recall = mean_precision_recall_at_k(queries, k)
            entry[f"precision@{k}"] = precision
            entry[f"recall@{k}"] = recall
        completion_metrics[entity] = entry
    report.metrics["completion"] = completion_metrics

    if len(data.rules) >= WIRING_CV_FOLDS:
        cv = crossvalidate_wiring(
            data.rules, WIRING_CV_FOLDS, config.wiring_k, models.threshold, models.lexicon
        )
        report.metrics["wiring_cv"] = {"f1": cv.f1, "accuracy": cv.accuracy}

    pipeline_report, _ = run_pipeline(models, data.corpus)
    ratio = pipeline_report.success_ratio()
    report.metrics["success_ratio"] = "n/a" if ratio is None else ratio
    report.failures = pipeline_report.failures
    report.outcomes = pipeline_report.outcomes
    report.counts = pipeline_report.counts
    report.timings["eval_suite"] = time.perf_counter() - t0
    return report
