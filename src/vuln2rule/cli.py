"""Command-line interface: one subcommand per pipeline stage.

Exit code 0 means no fatal error; per-input generation failures are data
(reported in the run report), not process errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import demo as demo_mod
from ._textio import read_text, write_text
from .completer import (
    COMPLETABLE_ENTITIES,
    build_feature_vector,
    check_exemplars,
    fit_discretization,
    label_clusters_by_exemplars,
    predict_missing,
    save_completion,
    save_discretization,
    train_completion,
)
from .corpus import (
    RawVulnerability,
    load_labeled_dataset,
    load_nvd_feed,
    sentences_of,
)
from .embedding import EmbeddingConfig, load_embedding, save_embedding, train_embedding
from .errors import ConfigError, MissingArtifact, UnwritableFile, Vuln2RuleError
from .pipeline import (
    ARTIFACTS,
    COMPLETION_TEMPLATE,
    DISC_TEMPLATE,
    EvalInputs,
    PipelineConfig,
    apply_config_key,
    crossvalidate_wiring,
    eval_suite,
    load_models,
    run_pipeline,
)
from .rules.datalog import emit_rule, parse_rule_file
from .rules.schema import load_default_lexicon, load_default_rule_corpus
from .rules.synthesis import PLACEHOLDER_CVE_ID, GenerationFailure, generate
from .rules.wiring import estimate_wiring_matrix, impute_matrix, save_wiring
from .tagger import (
    BlstmConfig,
    EntitySet,
    evaluate_tagger,
    parse_json,
    save_ner,
    tag_texts,
    train_ner,
)


def _config_from(args) -> PipelineConfig:
    config = (
        PipelineConfig.from_file(args.config)
        if getattr(args, "config", None)
        else PipelineConfig()
    )
    if getattr(args, "model_dir", None):
        config.model_dir = Path(args.model_dir)
    for key in ("seed", "threshold"):
        value = getattr(args, key, None)
        if value is not None:
            try:
                apply_config_key(config, key, str(value))
            except ValueError as exc:
                raise ConfigError(f"--{key}: {exc}") from exc
    return config


def _load_corpus(path: str) -> list[RawVulnerability]:
    return list(load_nvd_feed(path).records)


def _load_embedding(config: PipelineConfig):
    path = config.model_dir / ARTIFACTS["embedding"]
    if not path.exists():
        raise MissingArtifact("train-embedding", str(path))
    return load_embedding(path)


def _model_dir(config: PipelineConfig) -> Path:
    try:
        config.model_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UnwritableFile(f"{config.model_dir}: {exc}") from exc
    return config.model_dir


# --- subcommands ---------------------------------------------------------------


def cmd_ingest(args) -> int:
    total_records = 0
    total_skipped = 0
    out_lines: list[str] = []
    for path in args.feeds:
        result = load_nvd_feed(path)
        total_records += len(result.records)
        total_skipped += result.skipped_empty
        for warning in result.malformed:
            print(f"warning: {path}: {warning}", file=sys.stderr)
        out_lines += [f"{r.id}\t{r.description}" for r in result.records]
    if args.out:
        write_text(args.out, "\n".join(out_lines) + ("\n" if out_lines else ""))
    print(f"records: {total_records}  skipped-empty: {total_skipped}")
    return 0


def cmd_train_embedding(args) -> int:
    config = _config_from(args)
    try:
        emb_config = EmbeddingConfig(
            variant=args.variant,
            dim=args.dim,
            window=args.window,
            epochs=args.epochs,
            learning_rate=args.learning_rate,
            max_vocab=args.max_vocab,
            seed=config.seed,
        )
    except ValueError as exc:
        raise ConfigError(f"train-embedding: {exc}") from exc
    records = _load_corpus(args.corpus)
    sentences = [s for record in records for s in sentences_of(record)]
    model = train_embedding(sentences, emb_config)
    out = _model_dir(config) / ARTIFACTS["embedding"]
    save_embedding(model, out)
    print(
        f"trained {emb_config.variant} dim={emb_config.dim} on "
        f"{len(sentences)} sentences; vocab {len(model.vocab)}; "
        f"loss {model.initial_loss:.4f} -> {model.final_loss:.4f}; saved {out}"
    )
    return 0


def cmd_train_ner(args) -> int:
    config = _config_from(args)
    emb = _load_embedding(config)
    try:
        ner_config = BlstmConfig(
            max_len=args.max_len,
            dim=emb.dim,
            hidden=emb.dim if args.hidden is None else args.hidden,
            epochs=args.epochs,
            batch_size=args.batch_size,
            learning_rate=args.learning_rate,
            seed=config.seed,
        )
    except ValueError as exc:
        raise ConfigError(f"train-ner: {exc}") from exc
    data = load_labeled_dataset(args.labeled)
    model = train_ner(data, emb, ner_config)
    out = _model_dir(config) / ARTIFACTS["ner"]
    save_ner(model, out)
    print(f"trained tagger on {len(data)} sentences; saved {out}")
    return 0


def cmd_tag(args) -> int:
    config = _config_from(args)
    if not args.text and not args.input:
        raise ConfigError("tag needs --input or --text")
    models = load_models(config, need_tagger=True)
    if args.text:
        records = [RawVulnerability(args.cve_id, args.text)]
    else:
        records = _load_corpus(args.input)
    tagged = tag_texts(
        models.tagger, models.embedding, [(r.id, r.description) for r in records]
    )
    lines = [json.dumps({**t.entities.to_dict(), "tags": t.tags}, sort_keys=True) for t in tagged]
    output = "\n".join(lines) + "\n"
    if args.out:
        write_text(args.out, output)
    else:
        sys.stdout.write(output)
    return 0


def cmd_eval_ner(args) -> int:
    config = _config_from(args)
    models = load_models(config, need_tagger=True)
    data = load_labeled_dataset(args.labeled)
    result = evaluate_tagger(models.tagger, models.embedding, data)
    print(f"{'class':<12} {'precision':>9} {'recall':>9} {'f1':>9} {'support':>8}")
    for cls, score in result.per_class.items():
        print(
            f"{cls:<12} {score.precision:>9.4f} {score.recall:>9.4f} "
            f"{score.f1:>9.4f} {score.support:>8d}"
        )
    print(f"{'micro':<12} {result.micro.precision:>9.4f} {result.micro.recall:>9.4f} "
          f"{result.micro.f1:>9.4f} {result.micro.support:>8d}")
    print(f"{'macro-f1':<12} {result.macro_f1:>9.4f}")
    return 0


def cmd_train_completer(args) -> int:
    config = _config_from(args)
    emb = _load_embedding(config)
    entity_sets = demo_mod.read_entity_records(args.entities)
    exemplars = check_exemplars(parse_json(read_text(args.exemplars)), args.exemplars)
    for entity in COMPLETABLE_ENTITIES:
        values = [v for es in entity_sets for v in es.values_for(entity)]
        k = config.k_clusters.get(entity, 4)
        disc = fit_discretization(values, emb, k, config.seed, entity)
        disc = label_clusters_by_exemplars(disc, exemplars[entity], emb)
        completion = train_completion(
            entity_sets, emb, disc, entity,
            l2=config.completer_l2, iterations=config.completer_iterations,
        )
        out_dir = _model_dir(config)
        save_discretization(disc, out_dir / DISC_TEMPLATE.format(entity.lower()))
        save_completion(completion, out_dir / COMPLETION_TEMPLATE.format(entity.lower()))
        print(
            f"{entity}: k={k} clusters, {completion.n_classes} classes, "
            f"loss {completion.initial_loss:.4f} -> {completion.final_loss:.4f}"
        )
    return 0


def cmd_complete(args) -> int:
    config = _config_from(args)
    models = load_models(config, need_tagger=False)
    entity = args.entity.upper()
    if entity not in models.completion:
        raise MissingArtifact("train-completer", entity)
    # a JSON object literal, or else a path to a file holding one
    text = args.entities if args.entities.startswith("{") else read_text(args.entities)
    entity_set = EntitySet.from_dict({"cve_id": args.cve_id, "entities": parse_json(text)})
    features = build_feature_vector(entity_set, models.embedding)
    for label, prob in predict_missing(models.completion[entity], features, args.top_k):
        print(f"{label}\t{prob:.6f}")
    return 0


def cmd_learn_wiring(args) -> int:
    config = _config_from(args)
    text = (
        read_text(args.rules) if args.rules else load_default_rule_corpus()
    )
    rules = parse_rule_file(text)
    raw = estimate_wiring_matrix(rules)
    imputed = impute_matrix(raw, config.wiring_k if args.k_neighbors is None else args.k_neighbors)
    out_dir = _model_dir(config)
    save_wiring(raw, out_dir / ARTIFACTS["wiring_raw"])
    save_wiring(imputed, out_dir / ARTIFACTS["wiring"])
    print(f"{len(rules)} rules, {len(raw.slots)} slots; wiring saved to {out_dir}")
    return 0


def cmd_genrule(args) -> int:
    config = _config_from(args)
    gold = None
    if args.gold_entities:
        data = parse_json(read_text(args.gold_entities))
        if isinstance(data, dict):
            data.setdefault("cve_id", PLACEHOLDER_CVE_ID)
        gold = EntitySet.from_dict(data)
    models = load_models(config, need_tagger=gold is None)
    result = generate(args.description or "", models, gold_entities=gold, cve_id=args.cve_id)
    if isinstance(result, GenerationFailure):
        print(f"failure: {result.kind.value}: {result.detail}")
        return 0
    output = emit_rule(result) + "\n"
    if args.out:
        write_text(args.out, output)
    else:
        sys.stdout.write(output)
    return 0


def cmd_pipeline(args) -> int:
    config = _config_from(args)
    models = load_models(config, need_tagger=True)
    inputs = _load_corpus(args.input)
    report, rules = run_pipeline(models, inputs, out_path=args.out)
    if args.report:
        write_text(args.report, report.to_json() + "\n")
    sys.stdout.write(report.render_text())
    print(f"rules emitted: {len(rules)}" + (f" -> {args.out}" if args.out else ""))
    return 0


def cmd_eval(args) -> int:
    config = _config_from(args)
    models = load_models(config, need_tagger=True)
    if args.demo:
        records = demo_mod.generate_demo_records(seed=config.seed)
        data = EvalInputs(
            corpus=[r.vulnerability for r in records],
            labeled=[r.sentence for r in records],
            entity_sets=[r.entities for r in records],
            rules=parse_rule_file(load_default_rule_corpus()),
            pipeline_inputs=[r.vulnerability for r in records],
        )
    else:
        corpus = _load_corpus(args.corpus)
        data = EvalInputs(
            corpus=corpus,
            labeled=load_labeled_dataset(args.labeled) if args.labeled else [],
            entity_sets=demo_mod.read_entity_records(args.entities) if args.entities else [],
            rules=parse_rule_file(
                read_text(args.rules) if args.rules else load_default_rule_corpus()
            ),
            pipeline_inputs=corpus,
        )
    report = eval_suite(models, data, top_ks=config.top_ks)
    if args.report:
        write_text(args.report, report.to_json() + "\n")
    sys.stdout.write(report.render_text())
    return 0


def cmd_xval_wiring(args) -> int:
    config = _config_from(args)
    text = (
        read_text(args.rules) if args.rules else load_default_rule_corpus()
    )
    rules = parse_rule_file(text)
    result = crossvalidate_wiring(
        rules,
        folds=args.folds,
        k_neighbors=config.wiring_k,
        threshold=config.threshold,
        lexicon=load_default_lexicon(),
    )
    print(f"folds: {args.folds}  mean F1: {result.f1:.4f}  mean accuracy: {result.accuracy:.4f}")
    return 0


def cmd_make_demo(args) -> int:
    config = _config_from(args)
    demo = demo_mod.build_demo_models(seed=config.seed)
    out_dir = _model_dir(config)
    save_embedding(demo.embedding, out_dir / ARTIFACTS["embedding"])
    save_ner(demo.tagger, out_dir / ARTIFACTS["ner"])
    for entity in COMPLETABLE_ENTITIES:
        save_discretization(
            demo.discretization[entity], out_dir / DISC_TEMPLATE.format(entity.lower())
        )
        save_completion(
            demo.completion[entity], out_dir / COMPLETION_TEMPLATE.format(entity.lower())
        )
    raw = estimate_wiring_matrix(parse_rule_file(load_default_rule_corpus()))
    save_wiring(raw, out_dir / ARTIFACTS["wiring_raw"])
    save_wiring(demo.generator.wiring, out_dir / ARTIFACTS["wiring"])
    demo_mod.write_demo_corpus(demo.records, out_dir / "demo_corpus.tsv")
    demo_mod.write_demo_labeled(demo.records, out_dir / "demo_labeled.tsv")
    demo_mod.write_demo_entities(demo.records, out_dir / "demo_entities.jsonl")
    print(f"demo artifacts written to {out_dir}")
    return 0


# --- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vuln2rule",
        description="Derive MulVAL-style Datalog interaction rules from "
        "free-text vulnerability descriptions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        p.add_argument("--config", help="key-value config file")
        p.add_argument("--model-dir", help="artifact directory")
        p.add_argument("--seed", type=int, help="global random seed")
        return p

    p = add("ingest", cmd_ingest, "load NVD feeds (JSON or TSV) into a normalized TSV")
    p.add_argument("feeds", nargs="+")
    p.add_argument("--out")

    p = add("train-embedding", cmd_train_embedding, "train the word embedding")
    p.add_argument("--corpus", required=True)
    p.add_argument("--variant", default="CBOW", choices=["CBOW", "SG"])
    p.add_argument("--dim", type=int, default=100)
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--epochs", type=int, default=300)
    p.add_argument("--learning-rate", type=float, default=0.0001)
    p.add_argument("--max-vocab", type=int, default=10000)

    p = add("train-ner", cmd_train_ner, "train the sequence tagger")
    p.add_argument("--labeled", required=True)
    p.add_argument("--max-len", type=int, default=150)
    p.add_argument("--hidden", type=int)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--learning-rate", type=float, default=0.01)

    p = add("tag", cmd_tag, "tag descriptions and emit entities as JSON lines")
    p.add_argument("--input", help="TSV/JSON feed of descriptions")
    p.add_argument("--text", help="tag a single description")
    p.add_argument("--cve-id", default="CVE-0000-0000")
    p.add_argument("--out")

    p = add("eval-ner", cmd_eval_ner, "score the tagger on a labeled TSV")
    p.add_argument("--labeled", required=True)

    p = add("train-completer", cmd_train_completer, "fit discretization + completion models")
    p.add_argument("--entities", required=True, help="JSON-lines entity records")
    p.add_argument(
        "--exemplars", required=True, help="JSON {entity: {label: [phrases]}} for cluster labeling"
    )

    p = add("complete", cmd_complete, "predict a missing entity from an entity record")
    p.add_argument("--entity", required=True, choices=["vector", "impact", "means"])
    p.add_argument("--entities", required=True, help="JSON file or literal with the entity map")
    p.add_argument("--cve-id", default="CVE-0000-0000")
    p.add_argument("--top-k", type=int, default=3)

    p = add("learn-wiring", cmd_learn_wiring, "estimate + impute the wiring matrix")
    p.add_argument("--rules", help="rule corpus (default: packaged)")
    p.add_argument("--k-neighbors", type=int)

    p = add("genrule", cmd_genrule, "generate one interaction rule")
    p.add_argument("--description")
    p.add_argument("--cve-id", help="the rule's CVE id (default: the fixture's, else a placeholder)")
    p.add_argument("--gold-entities", help="JSON fixture with cve_id + entities")
    p.add_argument("--threshold", type=float)
    p.add_argument("--out")

    p = add("pipeline", cmd_pipeline, "run the full pipeline over a feed")
    p.add_argument("--input", required=True)
    p.add_argument("--out", help="emitted rule file")
    p.add_argument("--report", help="JSON run report")
    p.add_argument("--threshold", type=float)

    p = add("eval", cmd_eval, "run the evaluation suite")
    p.add_argument("--demo", action="store_true", help="evaluate on the synthetic demo data")
    p.add_argument("--corpus")
    p.add_argument("--labeled")
    p.add_argument("--entities")
    p.add_argument("--rules")
    p.add_argument("--report")

    p = add("xval-wiring", cmd_xval_wiring, "cross-validate the wiring model")
    p.add_argument("--rules", help="rule corpus (default: packaged)")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--threshold", type=float)

    add("make-demo", cmd_make_demo, "train demo models on the synthetic corpus")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Vuln2RuleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
