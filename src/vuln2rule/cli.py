"""Command-line interface: one subcommand per pipeline stage.

Exit code 0 means no fatal error; per-input generation failures are data
(reported in the run report), not process errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import demo as demo_mod
from ._textio import FIELD_PARSERS, read_text, write_text
from .completer import COMPLETABLE_ENTITIES, build_feature_vector, check_exemplars, predict_missing
from .corpus import (
    CVE_ID_RE,
    RawVulnerability,
    load_labeled_dataset,
    load_nvd_feed,
    sentences_of,
)
from .embedding import EmbeddingConfig, save_embedding, train_embedding
from .errors import ConfigError, MalformedRecord, MissingArtifact, UnwritableFile, Vuln2RuleError
from .pipeline import (
    ARTIFACTS,
    WIRING_CV_FOLDS,
    EvalInputs,
    PipelineConfig,
    configured_lexicon,
    crossvalidate_wiring,
    eval_suite,
    load_completer,
    load_embedding_and_tagger,
    load_models,
    run_pipeline,
    save_completer,
    train_completer,
)
from .rules.datalog import InteractionRule, emit_rule, parse_rule_file
from .rules.schema import load_default_rule_corpus
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
    """The ``--config`` file, or the defaults, with the flags that the command declares."""
    config = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
    for key in ("model_dir", "seed", "threshold"):
        value = getattr(args, key, None)
        if value is not None:
            try:
                config = replace(config, **{key: value})
            except ValueError as exc:
                raise ConfigError(f"--{key}: {exc}") from exc
    return config


def _add_setting_flags(p: argparse.ArgumentParser, cls, *given: str) -> None:
    """One flag per field of the config class ``cls`` except ``given``,
    with the field's name, type and default."""
    for f in fields(cls):
        if f.name not in given:
            p.add_argument(
                "--" + f.name.replace("_", "-"), type=FIELD_PARSERS[f.type], default=f.default
            )


def _trainer_config(command: str, cls, args, **given):
    """``cls`` from its flags in ``args`` and the ``given`` fields; a value
    out of range is a ConfigError naming the command."""
    flags = {f.name: getattr(args, f.name) for f in fields(cls) if f.name not in given}
    try:
        return cls(**flags, **given)
    except ValueError as exc:
        raise ConfigError(f"{command}: {exc}") from exc


def _load_corpus(path: str) -> list[RawVulnerability]:
    return list(load_nvd_feed(path).records)


def _load_rules(path: str | None) -> list[InteractionRule]:
    """The rule corpus at ``path``, else the packaged one."""
    return parse_rule_file(read_text(path) if path else load_default_rule_corpus())


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
    emb_config = _trainer_config("train-embedding", EmbeddingConfig, args, seed=config.seed)
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
    emb, _ = load_embedding_and_tagger(config, need_tagger=False)
    hidden = emb.dim if args.hidden is None else args.hidden
    ner_config = _trainer_config(
        "train-ner", BlstmConfig, args, dim=emb.dim, hidden=hidden, seed=config.seed
    )
    data = load_labeled_dataset(args.labeled)
    model = train_ner(data, emb, ner_config)
    out = _model_dir(config) / ARTIFACTS["ner"]
    save_ner(model, out)
    print(f"trained tagger on {len(data)} sentences; saved {out}")
    return 0


def cmd_tag(args) -> int:
    config = _config_from(args)
    if args.input is not None and args.cve_id is not None:
        raise ConfigError("--cve-id names the --text record; --input records keep their own ids")
    emb, tagger = load_embedding_and_tagger(config)
    if args.text is not None:
        cve_id = PLACEHOLDER_CVE_ID if args.cve_id is None else args.cve_id
        records = [RawVulnerability(cve_id, args.text)]
    else:
        records = _load_corpus(args.input)
    tagged = tag_texts(tagger, emb, [(r.id, r.description) for r in records])
    lines = [json.dumps({**t.entities.to_dict(), "tags": t.tags}, sort_keys=True) for t in tagged]
    output = "\n".join(lines) + "\n"
    if args.out:
        write_text(args.out, output)
    else:
        sys.stdout.write(output)
    return 0


def cmd_eval_ner(args) -> int:
    config = _config_from(args)
    emb, tagger = load_embedding_and_tagger(config)
    data = load_labeled_dataset(args.labeled)
    result = evaluate_tagger(tagger, emb, data)
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
    emb, _ = load_embedding_and_tagger(config, need_tagger=False)
    entity_sets = demo_mod.read_entity_records(args.entities)
    exemplars = check_exemplars(parse_json(read_text(args.exemplars)), args.exemplars)
    discretization, completion = train_completer(entity_sets, emb, exemplars, config)
    save_completer(_model_dir(config), discretization, completion)
    for entity in COMPLETABLE_ENTITIES:
        model = completion[entity]
        print(
            f"{entity}: k={discretization[entity].k_clusters} clusters, {model.n_classes} "
            f"classes, loss {model.initial_loss:.4f} -> {model.final_loss:.4f}"
        )
    return 0


def cmd_complete(args) -> int:
    config = _config_from(args)
    if args.top_k < 1:
        raise ConfigError(f"--top-k must be at least 1, got {args.top_k}")
    emb, _ = load_embedding_and_tagger(config, need_tagger=False)
    _, completion = load_completer(config, emb.dim)
    entity = args.entity.upper()
    if entity not in completion:
        raise MissingArtifact("train-completer", entity)
    # a JSON object literal, or else a path to a file holding one
    text = args.entities if args.entities.lstrip().startswith("{") else read_text(args.entities)
    entity_set = EntitySet.from_dict({"cve_id": PLACEHOLDER_CVE_ID, "entities": parse_json(text)})
    features = build_feature_vector(entity_set, emb)
    for label, prob in predict_missing(completion[entity], features, args.top_k):
        print(f"{label}\t{prob:.6f}")
    return 0


def cmd_learn_wiring(args) -> int:
    config = _config_from(args)
    rules = _load_rules(args.rules)
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
    cve_id = args.cve_id or (gold.cve_id if gold is not None else PLACEHOLDER_CVE_ID)
    if not CVE_ID_RE.fullmatch(cve_id):
        raise MalformedRecord(f"bad CVE identifier {cve_id!r}")
    models = load_models(config, need_tagger=gold is None)
    result = generate(args.description or "", models, gold_entities=gold, cve_id=cve_id)
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
    if not args.demo and not args.corpus:
        raise ConfigError("eval needs --demo or --corpus")
    if args.demo:
        given = [f"--{name}" for name in ("corpus", "labeled", "entities", "rules")
                 if getattr(args, name) is not None]
        if given:
            raise ConfigError(f"eval --demo reads its own data, not {', '.join(given)}")
    models = load_models(config, need_tagger=True)
    if args.demo:
        records = demo_mod.generate_demo_records(seed=config.seed)
        data = EvalInputs(
            corpus=[r.vulnerability for r in records],
            labeled=[r.sentence for r in records],
            entity_sets=[r.entities for r in records],
            rules=_load_rules(None),
        )
    else:
        data = EvalInputs(
            corpus=_load_corpus(args.corpus),
            labeled=load_labeled_dataset(args.labeled) if args.labeled else [],
            entity_sets=demo_mod.read_entity_records(args.entities) if args.entities else [],
            rules=_load_rules(args.rules),
        )
    report = eval_suite(models, data, config)
    if args.report:
        write_text(args.report, report.to_json() + "\n")
    sys.stdout.write(report.render_text())
    return 0


def cmd_xval_wiring(args) -> int:
    config = _config_from(args)
    result = crossvalidate_wiring(
        _load_rules(args.rules),
        folds=args.folds,
        k_neighbors=config.wiring_k,
        threshold=config.threshold,
        lexicon=configured_lexicon(config),
    )
    print(f"folds: {args.folds}  mean F1: {result.f1:.4f}  mean accuracy: {result.accuracy:.4f}")
    return 0


def cmd_make_demo(args) -> int:
    config = _config_from(args)
    demo = demo_mod.build_demo_models(seed=config.seed)
    out_dir = _model_dir(config)
    save_embedding(demo.embedding, out_dir / ARTIFACTS["embedding"])
    save_ner(demo.tagger, out_dir / ARTIFACTS["ner"])
    save_completer(out_dir, demo.discretization, demo.completion)
    raw = estimate_wiring_matrix(_load_rules(None))
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

    # the flags that several commands share; each command declares the ones it reads
    common_flags = {
        "--config": {"help": "key-value config file"},
        "--model-dir": {"type": Path, "help": "artifact directory"},
        "--seed": {"type": int, "help": "global random seed"},
    }

    def add(name: str, func, help_: str, *common: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        for flag in common:
            p.add_argument(flag, **common_flags[flag])
        return p

    artifacts = ("--config", "--model-dir")
    seeded = (*artifacts, "--seed")

    p = add("ingest", cmd_ingest, "load NVD feeds (JSON or TSV) into a normalized TSV")
    p.add_argument("feeds", nargs="+")
    p.add_argument("--out")

    p = add("train-embedding", cmd_train_embedding, "train the word embedding", *seeded)
    p.add_argument("--corpus", required=True)
    _add_setting_flags(p, EmbeddingConfig, "seed")

    p = add("train-ner", cmd_train_ner, "train the sequence tagger", *seeded)
    p.add_argument("--labeled", required=True)
    p.add_argument("--hidden", type=int)
    _add_setting_flags(p, BlstmConfig, "dim", "hidden", "seed")

    p = add("tag", cmd_tag, "tag descriptions and emit entities as JSON lines", *artifacts)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="TSV/JSON feed of descriptions")
    source.add_argument("--text", help="tag a single description")
    p.add_argument(
        "--cve-id", help=f"the CVE id of the --text record (default: {PLACEHOLDER_CVE_ID})"
    )
    p.add_argument("--out")

    p = add("eval-ner", cmd_eval_ner, "score the tagger on a labeled TSV", *artifacts)
    p.add_argument("--labeled", required=True)

    p = add(
        "train-completer", cmd_train_completer, "fit discretization + completion models", *seeded
    )
    p.add_argument("--entities", required=True, help="JSON-lines entity records")
    p.add_argument(
        "--exemplars", required=True, help="JSON {entity: {label: [phrases]}} for cluster labeling"
    )

    p = add("complete", cmd_complete, "predict a missing entity from an entity record", *artifacts)
    p.add_argument("--entity", required=True, choices=["vector", "impact", "means"])
    p.add_argument("--entities", required=True, help="JSON file or literal with the entity map")
    p.add_argument("--top-k", type=int, default=3)

    p = add("learn-wiring", cmd_learn_wiring, "estimate + impute the wiring matrix", *artifacts)
    p.add_argument("--rules", help="rule corpus (default: packaged)")
    p.add_argument("--k-neighbors", type=int)

    p = add("genrule", cmd_genrule, "generate one interaction rule", *artifacts)
    p.add_argument("--description")
    p.add_argument("--cve-id", help="the rule's CVE id (default: the fixture's, else a placeholder)")
    p.add_argument("--gold-entities", help="JSON fixture with cve_id + entities")
    p.add_argument("--threshold", type=float)
    p.add_argument("--out")

    p = add("pipeline", cmd_pipeline, "run the full pipeline over a feed", *artifacts)
    p.add_argument("--input", required=True)
    p.add_argument("--out", help="emitted rule file")
    p.add_argument("--report", help="JSON run report")
    p.add_argument("--threshold", type=float)

    p = add("eval", cmd_eval, "run the evaluation suite", *seeded)
    p.add_argument("--demo", action="store_true", help="evaluate on the synthetic demo data")
    p.add_argument("--corpus")
    p.add_argument("--labeled")
    p.add_argument("--entities")
    p.add_argument("--rules")
    p.add_argument("--report")

    p = add("xval-wiring", cmd_xval_wiring, "cross-validate the wiring model", "--config")
    p.add_argument("--rules", help="rule corpus (default: packaged)")
    p.add_argument("--folds", type=int, default=WIRING_CV_FOLDS)
    p.add_argument("--threshold", type=float)

    add("make-demo", cmd_make_demo, "train demo models on the synthetic corpus", *seeded)

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
