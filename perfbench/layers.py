"""The traced run's layer map: which library names get wrapped, what each
wrap records, and how spans become the per-layer metrics.

Every layer belongs to one phase of a run:

* ``build``: the trainers and their saves, wiring estimation and
  cross-validation;
* ``setup``: ``load_models`` and the artifact loaders it calls;
* ``serve``: one batch pass (``run_pipeline``) and one single pass
  (``generate`` per record) over the workload's records.  Serve figures are
  reported per round, so they do not depend on how many rounds fit in a run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from vuln2rule import completer, embedding, pipeline, tagger
from vuln2rule.rules import synthesis, wiring
from vuln2rule.rules.synthesis import FailureKind, GenerationFailure

from tracer import Span, TraceError, Tracer

BUILD, SETUP, SERVE = "build", "setup", "serve"


@dataclass(frozen=True)
class Layer:
    name: str
    phase: str
    #: work counts summed over calls (or, for slots and unknown_share, taken
    #: from the call on the largest matrix)
    extras: tuple[str, ...] = ()


LAYERS = (
    Layer("corpus.tokenize", SERVE, ("tokens",)),
    Layer("tagger.tag", SERVE, ("tokens", "chunks")),
    Layer("tagger.extract_entities", SERVE, ("spans",)),
    Layer("completer.map_to_cluster", SERVE),
    Layer("completer.build_feature_vector", SERVE),
    Layer("completer.predict_missing", SERVE),
    Layer("rules.synthesis.create_structure", SERVE),
    Layer("rules.synthesis.assign_constants", SERVE),
    Layer("rules.synthesis.wire_variables", SERVE),
    Layer("rules.datalog.emit_rules", SERVE, ("bytes",)),
    Layer("rules.synthesis.generate", SERVE),
    Layer("pipeline.run_pipeline", SERVE),
    Layer("pipeline.load_models", SETUP),
    Layer("embedding.load_embedding", SETUP, ("bytes",)),
    Layer("tagger.load_ner", SETUP),
    Layer("completer.load_discretization", SETUP),
    Layer("completer.load_completion", SETUP),
    Layer("rules.wiring.load_wiring", SETUP),
    Layer("embedding.train_embedding", BUILD),
    Layer("embedding.save_embedding", BUILD, ("bytes",)),
    Layer("tagger.train_ner", BUILD),
    Layer("tagger.loss_and_grads", BUILD),
    Layer("tagger.save_ner", BUILD),
    Layer("completer.fit_discretization", BUILD, ("kmeans_iterations",)),
    Layer("completer.train_completion", BUILD),
    Layer("completer.logistic_objective", BUILD),
    Layer("completer.save_discretization", BUILD),
    Layer("completer.save_completion", BUILD),
    Layer("rules.wiring.estimate_wiring_matrix", BUILD, ("slots", "unknown_share")),
    Layer("rules.wiring.impute_matrix", BUILD, ("slots", "unknown_share")),
    Layer("rules.wiring.save_wiring", BUILD),
    Layer("pipeline.crossvalidate_wiring", BUILD),
)

#: per-layer metrics beyond ``<layer>.{calls,busy_s,self_s,<extras>}``
DERIVED = (
    ("completer.build_feature_vector.per_completed_record", "ratio", "lower"),
    ("rules.wiring.prob.calls", "count", "lower"),
    ("rules.wiring.prob.useful_share", "ratio", "higher"),
    ("embedding.train_embedding.examples_per_s", "1/s", "higher"),
    ("tagger.train_ner.sentences_per_s", "1/s", "higher"),
    *(
        (f"rules.synthesis.failures.{kind.value}", "count", "lower")
        for kind in FailureKind
    ),
    ("trace.wall_s", "s", "lower"),
    ("trace.self_s_sum", "s", "lower"),
    ("trace.self_s_coverage", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.records_per_s_traced", "1/s", "higher"),
    ("trace.records_per_s_untraced", "1/s", "higher"),
    ("trace.overhead_share", "ratio", "lower"),
)

_EXTRA_UNITS = {
    "tokens": "count",
    "chunks": "count",
    "spans": "count",
    "bytes": "B",
    "kmeans_iterations": "count",
    "slots": "count",
    "unknown_share": "ratio",
}


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    specs = []
    for layer in LAYERS:
        specs.append((f"{layer.name}.calls", "count", "lower"))
        specs.append((f"{layer.name}.busy_s", "s", "lower"))
        specs.append((f"{layer.name}.self_s", "s", "lower"))
        specs += [(f"{layer.name}.{x}", _EXTRA_UNITS[x], "lower") for x in layer.extras]
    specs += list(DERIVED)
    return specs


# --- what each wrap records ---------------------------------------------------


def _generate_record(args, kwargs):
    gold = kwargs.get("gold_entities")
    return kwargs.get("cve_id") or (gold.cve_id if gold is not None else None)


def _on_tokenize(tr, span: Span, args, kwargs, result):
    span.attrs["tokens"] = len(result)


def _on_tag(tr, span: Span, args, kwargs, result):
    model, _, sentence = args[:3]
    span.attrs["tokens"] = len(sentence)
    span.attrs["chunks"] = -(-len(sentence) // model.config.max_len)


def _on_extract(tr, span: Span, args, kwargs, result):
    span.attrs["spans"] = sum(len(v) for v in result.entities.values())


def _on_generate(tr, span: Span, args, kwargs, result):
    if isinstance(result, GenerationFailure):
        span.attrs["failure"] = result.kind.value
    else:
        groups = synthesis.variable_groups(result)
        span.attrs["merged_pairs"] = sum(len(g) * (len(g) - 1) // 2 for g in groups)


def _on_emit(tr, span: Span, args, kwargs, result):
    span.attrs["bytes"] = len(result.encode("utf-8"))


def _embedding_bytes(path) -> int:
    return os.path.getsize(path) + os.path.getsize(str(path) + ".out")


def _on_load_embedding(tr, span: Span, args, kwargs, result):
    span.attrs["bytes"] = _embedding_bytes(args[0])


def _on_save_embedding(tr, span: Span, args, kwargs, result):
    span.attrs["bytes"] = _embedding_bytes(args[1])


def _on_train_embedding(tr, span: Span, args, kwargs, result):
    window = result.config.window
    pairs = 0
    for sentence in args[0]:
        n = len(sentence)
        contexts = [min(i, window) + min(n - 1 - i, window) for i in range(n)]
        if result.config.variant == embedding.CBOW:
            pairs += sum(1 for c in contexts if c)
        else:
            pairs += sum(contexts)
    span.attrs["examples"] = pairs * result.config.epochs


def _on_train_ner(tr, span: Span, args, kwargs, result):
    span.attrs["sentences"] = len(args[0]) * result.config.epochs


def _on_fit_discretization(tr, span: Span, args, kwargs, result):
    span.attrs["kmeans_iterations"] = len(result.sse_history)


def _matrix_shape(matrix) -> dict:
    n = len(matrix.slots)
    off = ~np.eye(n, dtype=bool)
    return {"slots": n, "unknown_share": float(np.isnan(matrix.probs[off]).mean()) if n > 1 else 0.0}


def _on_estimate(tr, span: Span, args, kwargs, result):
    span.attrs.update(_matrix_shape(result))


def _on_impute(tr, span: Span, args, kwargs, result):
    span.attrs.update(_matrix_shape(args[0]))


def install(tr: Tracer) -> None:
    """Wrap every traced name, at the module its consumer reads it from."""
    # serve: what generate and run_pipeline call
    tr.wrap(synthesis, "tokenize", "corpus.tokenize", _on_tokenize)
    tr.wrap(synthesis, "tag_tokens", "tagger.tag", _on_tag)
    tr.wrap(synthesis, "extract_entities", "tagger.extract_entities", _on_extract)
    tr.wrap(synthesis, "map_to_cluster", "completer.map_to_cluster")
    tr.wrap(synthesis, "build_feature_vector", "completer.build_feature_vector")
    tr.wrap(synthesis, "predict_missing", "completer.predict_missing")
    tr.wrap(synthesis, "create_structure", "rules.synthesis.create_structure")
    tr.wrap(synthesis, "assign_constants", "rules.synthesis.assign_constants")
    tr.wrap(synthesis, "wire_variables", "rules.synthesis.wire_variables")
    tr.count(wiring.WiringMatrix, "prob", "rules.wiring.prob")
    tr.wrap(pipeline, "emit_rules", "rules.datalog.emit_rules", _on_emit)
    tr.wrap(pipeline, "generate", "rules.synthesis.generate", _on_generate, _generate_record)
    tr.wrap(synthesis, "generate", "rules.synthesis.generate", _on_generate, _generate_record)
    tr.wrap(pipeline, "run_pipeline", "pipeline.run_pipeline")
    # setup
    tr.wrap(pipeline, "load_models", "pipeline.load_models")
    tr.wrap(pipeline, "load_embedding", "embedding.load_embedding", _on_load_embedding)
    tr.wrap(pipeline, "load_ner", "tagger.load_ner")
    tr.wrap(pipeline, "load_discretization", "completer.load_discretization")
    tr.wrap(pipeline, "load_completion", "completer.load_completion")
    tr.wrap(pipeline, "load_wiring", "rules.wiring.load_wiring")
    # build: the benchmark calls the trainers and savers through their
    # modules; the trainers call their inner steps as module globals
    tr.wrap(embedding, "train_embedding", "embedding.train_embedding", _on_train_embedding)
    tr.wrap(embedding, "save_embedding", "embedding.save_embedding", _on_save_embedding)
    tr.wrap(tagger, "train_ner", "tagger.train_ner", _on_train_ner)
    tr.wrap(tagger, "loss_and_grads", "tagger.loss_and_grads")
    tr.wrap(tagger, "save_ner", "tagger.save_ner")
    tr.wrap(completer, "fit_discretization", "completer.fit_discretization", _on_fit_discretization)
    tr.wrap(completer, "train_completion", "completer.train_completion")
    tr.wrap(completer, "logistic_objective", "completer.logistic_objective")
    tr.wrap(completer, "save_discretization", "completer.save_discretization")
    tr.wrap(completer, "save_completion", "completer.save_completion")
    tr.wrap(wiring, "estimate_wiring_matrix", "rules.wiring.estimate_wiring_matrix", _on_estimate)
    tr.wrap(wiring, "impute_matrix", "rules.wiring.impute_matrix", _on_impute)
    tr.wrap(wiring, "save_wiring", "rules.wiring.save_wiring")
    tr.wrap(pipeline, "crossvalidate_wiring", "pipeline.crossvalidate_wiring")
    # cross-validation re-wires held-out rules through pipeline's names
    tr.wrap(pipeline, "estimate_wiring_matrix", "rules.wiring.estimate_wiring_matrix", _on_estimate)
    tr.wrap(pipeline, "impute_matrix", "rules.wiring.impute_matrix", _on_impute)
    tr.wrap(pipeline, "wire_variables", "rules.synthesis.wire_variables")


def required_layers(tagged: bool) -> tuple[set[str], set[str]]:
    """(layers that must record calls, layers that must record none)."""
    must = {layer.name for layer in LAYERS} | {"rules.wiring.prob"}
    tagger_path = {"corpus.tokenize", "tagger.tag", "tagger.extract_entities"}
    if tagged:
        return must, set()
    return must - tagger_path - {"tagger.load_ner"}, tagger_path


# --- spans to metrics ----------------------------------------------------------------


def layer_metrics(tr: Tracer, serve_rounds: int, tagged: bool) -> dict[str, float]:
    """Aggregate the spans into the per-layer metrics; raise TraceError when
    a required layer is silent or a bypassed one is not."""
    selfs = tr.self_seconds()
    phase_of = {layer.name: layer.phase for layer in LAYERS}
    agg: dict[str, dict[str, float]] = {
        layer.name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for layer in LAYERS
    }
    largest: dict[str, int] = {}
    for span, self_s in zip(tr.spans, selfs):
        if phase_of.get(span.name) != span.phase:
            continue
        entry = agg[span.name]
        entry["calls"] += 1
        entry["busy_s"] += span.end - span.start
        entry["self_s"] += self_s
        for key in ("tokens", "chunks", "spans", "bytes", "kmeans_iterations"):
            if key in span.attrs:
                entry[key] = entry.get(key, 0) + span.attrs[key]
        if "slots" in span.attrs and span.attrs["slots"] >= largest.get(span.name, -1):
            largest[span.name] = span.attrs["slots"]
            entry["slots"] = span.attrs["slots"]
            entry["unknown_share"] = span.attrs["unknown_share"]

    prob_calls = tr.counts.get((SERVE, "rules.wiring.prob"), 0)
    must, must_not = required_layers(tagged)
    calls = {name: entry["calls"] for name, entry in agg.items()}
    calls["rules.wiring.prob"] = prob_calls
    silent = sorted(n for n in must if not calls[n])
    if silent:
        raise TraceError(f"layers recorded no calls: {', '.join(silent)}")
    noisy = sorted(n for n in must_not if calls[n])
    if noisy:
        raise TraceError(f"layers the workload bypasses recorded calls: {', '.join(noisy)}")

    out: dict[str, float] = {}
    for layer in LAYERS:
        entry = agg[layer.name]
        scale = 1.0 / serve_rounds if layer.phase == SERVE else 1.0
        for key in ("calls", "busy_s", "self_s") + layer.extras:
            value = entry.get(key, 0)
            if key not in ("slots", "unknown_share"):
                value *= scale
            out[f"{layer.name}.{key}"] = value

    children = tr.children_names()
    generate_spans = [
        s for s in tr.spans if s.name == "rules.synthesis.generate" and s.phase == SERVE
    ]
    completed = sum(1 for s in generate_spans if "completer.predict_missing" in children.get(s.id, ()))
    out["completer.build_feature_vector.per_completed_record"] = (
        agg["completer.build_feature_vector"]["calls"] / completed if completed else 0.0
    )
    out["rules.wiring.prob.calls"] = prob_calls / serve_rounds
    merged = sum(s.attrs.get("merged_pairs", 0) for s in generate_spans)
    out["rules.wiring.prob.useful_share"] = merged / prob_calls if prob_calls else 0.0
    for kind in FailureKind:
        n = sum(1 for s in generate_spans if s.attrs.get("failure") == kind.value)
        out[f"rules.synthesis.failures.{kind.value}"] = n / serve_rounds
    for layer, key, metric in (
        ("embedding.train_embedding", "examples", "embedding.train_embedding.examples_per_s"),
        ("tagger.train_ner", "sentences", "tagger.train_ner.sentences_per_s"),
    ):
        spans = [s for s in tr.spans if s.name == layer and s.phase == BUILD]
        busy = sum(s.end - s.start for s in spans)
        out[metric] = sum(s.attrs.get(key, 0) for s in spans) / busy if busy else 0.0
    self_sum = sum(selfs)
    out["trace.wall_s"] = tr.enabled_s
    out["trace.self_s_sum"] = self_sum
    out["trace.self_s_coverage"] = self_sum / tr.enabled_s if tr.enabled_s else 0.0
    out["trace.spans"] = len(tr.spans)
    return out
