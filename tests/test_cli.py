"""Command-line interface, exercised through main() with temp directories."""

from __future__ import annotations

import json
import shutil
from dataclasses import replace

import numpy as np
import pytest

from vuln2rule import demo
from vuln2rule.cli import build_parser, main
from vuln2rule.completer import COMPLETABLE_ENTITIES, save_completion, save_discretization
from vuln2rule.corpus import load_nvd_feed
from vuln2rule.embedding import save_embedding
from vuln2rule.errors import MismatchedArtifacts
from vuln2rule.pipeline import (
    ARTIFACTS,
    COMPLETION_TEMPLATE,
    DISC_TEMPLATE,
    PipelineConfig,
    crossvalidate_wiring,
    load_models,
    run_pipeline,
    save_completer,
)
from vuln2rule.rules.datalog import Term, emit_rules, parse_rule_file
from vuln2rule.rules.schema import load_default_lexicon, load_default_rule_corpus, load_lexicon
from vuln2rule.rules.synthesis import PLACEHOLDER_CVE_ID
from vuln2rule.rules.wiring import save_wiring
from vuln2rule.tagger import BlstmModel, init_params, save_ner


@pytest.fixture(scope="session")
def model_dir(tmp_path_factory, demo_models):
    """Demo artifacts saved once in the on-disk layout the CLI expects."""
    out = tmp_path_factory.mktemp("models")
    save_embedding(demo_models.embedding, out / ARTIFACTS["embedding"])
    save_ner(demo_models.tagger, out / ARTIFACTS["ner"])
    save_completer(out, demo_models.discretization, demo_models.completion)
    save_wiring(demo_models.generator.wiring, out / ARTIFACTS["wiring"])
    return out


@pytest.fixture()
def demo_corpus(tmp_path, demo_models):
    from vuln2rule.demo import write_demo_corpus

    path = tmp_path / "corpus.tsv"
    write_demo_corpus(demo_models.records[:20], path)
    return path


def test_ingest(tmp_path, capsys):
    feed = tmp_path / "feed.tsv"
    feed.write_text("CVE-2020-0001\tsome text\nCVE-2020-0002\t\n", "utf-8")
    out = tmp_path / "normalized.tsv"
    assert main(["ingest", str(feed), "--out", str(out)]) == 0
    assert "records: 1" in capsys.readouterr().out
    assert out.read_text("utf-8").startswith("CVE-2020-0001\t")


def test_train_embedding_deterministic(tmp_path, demo_corpus):
    dirs = [tmp_path / "m1", tmp_path / "m2"]
    for d in dirs:
        code = main([
            "train-embedding", "--corpus", str(demo_corpus),
            "--model-dir", str(d), "--dim", "8", "--epochs", "2",
            "--learning-rate", "0.05", "--seed", "13",
        ])
        assert code == 0
    first = (dirs[0] / ARTIFACTS["embedding"]).read_bytes()
    second = (dirs[1] / ARTIFACTS["embedding"]).read_bytes()
    assert first == second


def test_trainer_hyperparameter_in_config_is_error(tmp_path, capsys):
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text("embedding.dim = 50\n", "utf-8")
    assert main([
        "train-embedding", "--config", str(cfg), "--corpus", str(tmp_path / "corpus.tsv"),
        "--model-dir", str(tmp_path / "models"),
    ]) == 2
    assert "unknown config key 'embedding.dim'" in capsys.readouterr().err


def test_train_ner_and_completer(tmp_path, demo_models, demo_corpus):
    from vuln2rule.demo import write_demo_labeled, write_demo_entities, demo_exemplars

    model_dir = tmp_path / "models"
    assert main([
        "train-embedding", "--corpus", str(demo_corpus),
        "--model-dir", str(model_dir), "--dim", "8", "--epochs", "2",
        "--learning-rate", "0.05", "--seed", "13",
    ]) == 0

    labeled = tmp_path / "labeled.tsv"
    write_demo_labeled(demo_models.records[:20], labeled)
    assert main([
        "train-ner", "--labeled", str(labeled), "--model-dir", str(model_dir),
        "--epochs", "2", "--max-len", "40", "--seed", "13",
    ]) == 0
    assert (model_dir / ARTIFACTS["ner"]).exists()

    entities = tmp_path / "entities.jsonl"
    write_demo_entities(demo_models.records, entities)
    exemplars = tmp_path / "exemplars.json"
    exemplars.write_text(json.dumps(demo_exemplars()), "utf-8")
    cfg = tmp_path / "conf.cfg"
    cfg.write_text(
        "k_clusters.VECTOR = 3\nk_clusters.MEANS = 6\nk_clusters.IMPACT = 4\n", "utf-8"
    )
    assert main([
        "train-completer", "--entities", str(entities), "--exemplars", str(exemplars),
        "--model-dir", str(model_dir), "--config", str(cfg), "--seed", "13",
    ]) == 0
    for entity in COMPLETABLE_ENTITIES:
        assert (model_dir / DISC_TEMPLATE.format(entity.lower())).exists()
        assert (model_dir / COMPLETION_TEMPLATE.format(entity.lower())).exists()


def test_tag_single_text(model_dir, capsys):
    assert main([
        "tag", "--model-dir", str(model_dir),
        "--text", "Buffer overflow in adobe reader allows remote attackers to execute arbitrary code",
        "--cve-id", "CVE-2010-2212",
    ]) == 0
    line = capsys.readouterr().out.strip()
    payload = json.loads(line)
    assert payload["cve_id"] == "CVE-2010-2212"
    assert len(payload["tags"]) == 12
    assert "MEANS" in payload["tags"]


def test_tag_input_keeps_records_without_words(model_dir, tmp_path, capsys):
    feed = tmp_path / "feed.tsv"
    feed.write_text(
        "CVE-2020-0001\t!!! ---\n"
        "CVE-2020-0002\tBuffer overflow in adobe reader allows remote attackers "
        "to execute arbitrary code\n",
        "utf-8",
    )
    out = tmp_path / "tags.jsonl"
    assert main(["tag", "--model-dir", str(model_dir), "--input", str(feed),
                 "--out", str(out)]) == 0
    blank, text = (json.loads(line) for line in out.read_text("utf-8").splitlines())
    assert blank["cve_id"] == "CVE-2020-0001"
    assert blank["tags"] == []
    assert not any(blank["entities"].values())
    assert text["cve_id"] == "CVE-2020-0002"
    assert len(text["tags"]) == 12
    assert "MEANS" in text["tags"]


def test_tag_and_eval_ner_need_only_the_embedding_and_tagger(
    model_dir, demo_models, tmp_path, capsys
):
    """The own-data training order runs `tag` before `train-completer`:
    both tagger commands read the embedding and the tagger, nothing else."""
    from vuln2rule.demo import write_demo_corpus, write_demo_labeled

    models = tmp_path / "models"
    models.mkdir()
    for key in ("embedding", "ner"):
        shutil.copy(model_dir / ARTIFACTS[key], models)
    records = demo_models.records[:12]
    corpus, labeled = tmp_path / "corpus.tsv", tmp_path / "labeled.tsv"
    write_demo_corpus(records, corpus)
    write_demo_labeled(records, labeled)
    assert main(["tag", "--model-dir", str(models), "--input", str(corpus)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [json.loads(line)["cve_id"] for line in lines] == [
        r.vulnerability.id for r in records
    ]
    assert main(["eval-ner", "--model-dir", str(models), "--labeled", str(labeled)]) == 0
    assert "macro-f1" in capsys.readouterr().out
    (models / ARTIFACTS["ner"]).unlink()
    assert main(["tag", "--model-dir", str(models), "--input", str(corpus)]) == 2
    assert "missing artifact for stage 'train-ner'" in capsys.readouterr().err


def test_complete_ranks_labels(model_dir, tmp_path, capsys):
    entities = tmp_path / "query.json"
    entities.write_text(
        json.dumps({"MEANS": ["buffer overflow"], "IMPACT": ["execute arbitrary code"],
                    "PLATFORM": ["adobe reader"]}),
        "utf-8",
    )
    assert main([
        "complete", "--entity", "vector", "--entities", str(entities),
        "--model-dir", str(model_dir), "--top-k", "3",
    ]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    top_label, top_prob = lines[0].split("\t")
    assert top_label == "remote"
    assert 0.0 <= float(top_prob) <= 1.0


def test_complete_long_literal(model_dir, capsys):
    # longer than a file name may be; read as a literal, never as a path
    entities = {"MEANS": ["buffer overflow"], "IMPACT": ["execute arbitrary code"],
                "PLATFORM": ["adobe reader " * 30]}
    literal = json.dumps(entities)
    assert len(literal.encode("utf-8")) > 255
    assert main([
        "complete", "--entity", "vector", "--entities", literal, "--model-dir", str(model_dir),
    ]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 3
    entities["means"] = entities.pop("MEANS")
    assert main([
        "complete", "--entity", "vector", "--entities", json.dumps(entities),
        "--model-dir", str(model_dir),
    ]) == 2
    assert "error: " in capsys.readouterr().err


def test_complete_literal_after_whitespace(model_dir, capsys):
    # a literal with leading whitespace is still a literal, not a path
    literal = json.dumps({"MEANS": ["buffer overflow"], "IMPACT": ["execute arbitrary code"]})
    assert main(["complete", "--entity", "vector", "--entities", literal,
                 "--model-dir", str(model_dir)]) == 0
    want = capsys.readouterr().out
    for padded in (" " + literal, "\n\t " + literal):
        assert main(["complete", "--entity", "vector", "--entities", padded,
                     "--model-dir", str(model_dir)]) == 0
        assert capsys.readouterr().out == want


def test_complete_reads_the_embedding_and_completer_alone(model_dir, tmp_path, capsys):
    names = [ARTIFACTS["embedding"]] + [
        template.format(entity.lower())
        for entity in COMPLETABLE_ENTITIES
        for template in (DISC_TEMPLATE, COMPLETION_TEMPLATE)
    ]
    for name in names:
        shutil.copy(model_dir / name, tmp_path / name)
    query = ["complete", "--entity", "means", "--entities",
             '{"IMPACT": ["execute arbitrary code"]}']
    assert main([*query, "--model-dir", str(model_dir)]) == 0
    want = capsys.readouterr().out
    assert main([*query, "--model-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == want
    (tmp_path / names[-1]).unlink()
    assert main([*query, "--model-dir", str(tmp_path)]) == 2
    assert "train-completer" in capsys.readouterr().err


def test_complete_has_no_cve_id_flag(model_dir, capsys):
    """A record's CVE id never reaches the completion features, so
    ``complete`` takes none."""
    with pytest.raises(SystemExit) as exc:
        main([
            "complete", "--entity", "vector", "--entities", '{"MEANS": ["buffer overflow"]}',
            "--cve-id", "CVE-2010-2212", "--model-dir", str(model_dir),
        ])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cve-id" in capsys.readouterr().err


#: each subcommand with its required arguments, and the common flags it takes
COMMANDS = {
    "ingest": (["feed.tsv"], set()),
    "train-embedding": (["--corpus", "in.tsv"], {"config", "model_dir", "seed"}),
    "train-ner": (["--labeled", "in.tsv"], {"config", "model_dir", "seed"}),
    "tag": (["--text", "x"], {"config", "model_dir"}),
    "eval-ner": (["--labeled", "in.tsv"], {"config", "model_dir"}),
    "train-completer": (["--entities", "e.jsonl", "--exemplars", "x.json"],
                        {"config", "model_dir", "seed"}),
    "complete": (["--entity", "means", "--entities", "{}"], {"config", "model_dir"}),
    "learn-wiring": ([], {"config", "model_dir"}),
    "genrule": ([], {"config", "model_dir"}),
    "pipeline": (["--input", "in.tsv"], {"config", "model_dir"}),
    "eval": ([], {"config", "model_dir", "seed"}),
    "xval-wiring": ([], {"config"}),
    "make-demo": ([], {"config", "model_dir", "seed"}),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_common_flags_pinned(command):
    """Each subcommand takes only the common flags that it reads."""
    required, common = COMMANDS[command]
    args = vars(build_parser().parse_args([command, *required]))
    assert {"config", "model_dir", "seed"} & args.keys() == common


@pytest.mark.parametrize(
    "command,flag",
    [
        ("ingest", "--config"), ("ingest", "--model-dir"), ("ingest", "--seed"),
        ("xval-wiring", "--model-dir"), ("xval-wiring", "--seed"),
        ("tag", "--seed"), ("eval-ner", "--seed"), ("complete", "--seed"),
        ("learn-wiring", "--seed"), ("genrule", "--seed"), ("pipeline", "--seed"),
    ],
)
def test_unread_common_flag_is_rejected(command, flag, capsys):
    """The common flags a command never reads are not accepted either."""
    with pytest.raises(SystemExit) as exc:
        main([command, *COMMANDS[command][0], flag, "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {flag} 1" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "sources", [["--text", "x", "--input", "feed.tsv"], []], ids=["both", "neither"]
)
def test_tag_takes_exactly_one_of_text_and_input(sources, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tag", *sources])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "--text" in err and "--input" in err and "Traceback" not in err


def test_tag_input_rejects_cve_id(model_dir, tmp_path, capsys):
    """--cve-id names the --text record; a feed's records keep their ids."""
    feed = tmp_path / "feed.tsv"
    feed.write_text("CVE-2020-0001\tBuffer overflow in adobe reader\n", "utf-8")
    argv = ["tag", "--model-dir", str(model_dir), "--input", str(feed)]
    assert main([*argv, "--cve-id", "CVE-1999-0001"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: --cve-id") and "Traceback" not in err
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["cve_id"] == "CVE-2020-0001"
    assert main(["tag", "--model-dir", str(model_dir), "--text", "adobe reader"]) == 0
    assert json.loads(capsys.readouterr().out)["cve_id"] == PLACEHOLDER_CVE_ID


@pytest.mark.parametrize("argument", ["{bad", "absent-entities.json"])
def test_complete_bad_entities_is_error(model_dir, argument, capsys):
    assert main([
        "complete", "--entity", "vector", "--entities", argument, "--model-dir", str(model_dir),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("top_k", ["0", "-1"])
def test_complete_top_k_below_one_is_error(model_dir, capsys, top_k):
    assert main([
        "complete", "--entity", "means", "--entities", "{}", "--model-dir", str(model_dir),
        "--top-k", top_k,
    ]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: --top-k must be at least 1, got {top_k}")
    assert "Traceback" not in err


def test_learn_wiring_default_corpus(tmp_path, capsys):
    model_dir = tmp_path / "models"
    assert main(["learn-wiring", "--model-dir", str(model_dir)]) == 0
    raw = (model_dir / ARTIFACTS["wiring_raw"]).read_text("utf-8")
    imputed = (model_dir / ARTIFACTS["wiring"]).read_text("utf-8")
    assert "?" in raw
    assert "?" not in imputed


@pytest.mark.parametrize("k", ["0", "-1"])
def test_learn_wiring_k_below_one_is_error(tmp_path, capsys, k):
    model_dir = tmp_path / "models"
    assert main(["learn-wiring", "--model-dir", str(model_dir), "--k-neighbors", k]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "k_neighbors" in err and "Traceback" not in err
    assert not model_dir.exists()


def test_genrule_with_gold_entities(model_dir, tmp_path, capsys):
    from importlib import resources

    fixture = resources.files("vuln2rule").joinpath("data", "golden_cve_2010_2212.json").read_text("utf-8")
    gold = tmp_path / "gold.json"
    gold.write_text(fixture, "utf-8")
    out = tmp_path / "rule.P"
    assert main([
        "genrule", "--model-dir", str(model_dir), "--gold-entities", str(gold),
        "--cve-id", "CVE-2010-2212", "--out", str(out),
    ]) == 0
    rule = parse_rule_file(out.read_text("utf-8"))[0]
    assert rule.head.name == "execCode"


def _gold_fixture(tmp_path, **changes):
    fixture = demo.golden_fixture()
    fixture.update(changes.pop("fixture", {}))
    fixture["entities"].update(changes)
    path = tmp_path / "gold.json"
    path.write_text(json.dumps(fixture), "utf-8")
    return path


def test_genrule_takes_the_fixture_cve_id(model_dir, tmp_path, capsys):
    gold = _gold_fixture(tmp_path, fixture={"cve_id": "CVE-2020-0001"})
    assert main(["genrule", "--model-dir", str(model_dir), "--gold-entities", str(gold)]) == 0
    rule = parse_rule_file(capsys.readouterr().out)[0]
    assert Term.constant("'CVE-2020-0001'") in rule.body[0].args
    assert rule.description.startswith("CVE-2020-0001: ")
    assert main(["genrule", "--model-dir", str(model_dir), "--gold-entities", str(gold),
                 "--cve-id", "CVE-2021-0002"]) == 0
    assert "'CVE-2021-0002'" in capsys.readouterr().out
    # the flag's id is the one checked, so it stands in for a bad fixture id
    gold = _gold_fixture(tmp_path, fixture={"cve_id": "bogus"})
    assert main(["genrule", "--model-dir", str(model_dir), "--gold-entities", str(gold),
                 "--cve-id", "CVE-2021-0002"]) == 0
    assert "'CVE-2021-0002'" in capsys.readouterr().out


@pytest.mark.parametrize("source", ["flag", "fixture", "description"])
def test_genrule_bad_cve_id_is_error_before_models_load(tmp_path, capsys, source):
    """The id a rule would carry, ``--cve-id`` else the fixture's, must be
    a CVE identifier; the model directory here holds nothing."""
    argv = ["genrule", "--model-dir", str(tmp_path / "empty")]
    if source == "description":
        argv += ["--description", "a buffer overflow", "--cve-id", "not an id"]
    else:
        gold = _gold_fixture(tmp_path, fixture={"cve_id": "bogus"} if source == "fixture" else {})
        argv += ["--gold-entities", str(gold)]
        if source == "flag":
            argv += ["--cve-id", "not an id"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: bad CVE identifier")
    assert "Traceback" not in captured.err and captured.out == ""


def test_genrule_quoted_platform_re_parses(model_dir, tmp_path):
    gold = _gold_fixture(tmp_path, PLATFORM=["3com's router"])
    out = tmp_path / "rule.P"
    assert main(["genrule", "--model-dir", str(model_dir), "--gold-entities", str(gold),
                 "--out", str(out)]) == 0
    rule = parse_rule_file(out.read_text("utf-8"))[0]
    assert Term.constant("'3com\\'s router'") in rule.body[0].args
    assert "in 3com's router enables" in rule.description


@pytest.mark.parametrize("flag", ["--out", "--report"])
def test_pipeline_unwritable_output_is_error(model_dir, demo_corpus, tmp_path, capsys, flag):
    target = tmp_path / "absent" / "file"
    assert main([
        "pipeline", "--model-dir", str(model_dir), "--input", str(demo_corpus), flag, str(target),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {target}: ")
    assert "Traceback" not in err


def test_unwritable_model_dir_is_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("", "utf-8")
    assert main(["learn-wiring", "--model-dir", str(blocker / "models")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_make_demo(tmp_path, demo_models, monkeypatch, capsys):
    monkeypatch.setattr(demo, "build_demo_models", lambda seed: demo_models)
    out = tmp_path / "models"
    assert main(["make-demo", "--model-dir", str(out), "--seed", "7"]) == 0
    loaded = load_models(PipelineConfig(model_dir=out))
    inputs = list(load_nvd_feed(out / "demo_corpus.tsv"))
    assert len(inputs) == len(demo_models.records)
    _, from_disk = run_pipeline(loaded, inputs)
    _, in_memory = run_pipeline(demo_models.generator, inputs)
    assert from_disk
    assert from_disk == in_memory
    assert emit_rules(from_disk) == emit_rules(in_memory)
    assert len(demo.read_entity_records(out / "demo_entities.jsonl")) == len(inputs)


def test_pipeline_subcommand(model_dir, demo_corpus, tmp_path, capsys):
    out = tmp_path / "rules.P"
    report_path = tmp_path / "report.json"
    assert main([
        "pipeline", "--model-dir", str(model_dir), "--input", str(demo_corpus),
        "--out", str(out), "--report", str(report_path),
    ]) == 0
    report = json.loads(report_path.read_text("utf-8"))
    assert report["counts"]["inputs"] == 20
    assert "success_ratio" in report
    stdout = capsys.readouterr().out
    assert "success ratio" in stdout


def test_eval_ner(model_dir, tmp_path, demo_models, capsys):
    from vuln2rule.demo import write_demo_labeled

    labeled = tmp_path / "labeled.tsv"
    write_demo_labeled(demo_models.records[:15], labeled)
    assert main(["eval-ner", "--model-dir", str(model_dir), "--labeled", str(labeled)]) == 0
    out = capsys.readouterr().out
    assert "macro-f1" in out
    assert "MEANS" in out


def test_xval_wiring_default(capsys):
    assert main(["xval-wiring", "--folds", "5"]) == 0
    out = capsys.readouterr().out
    assert "mean F1" in out


# one fold would leave no training rules
@pytest.mark.parametrize("folds", ["0", "-1", "1"])
def test_xval_wiring_folds_below_one_is_error(capsys, folds):
    assert main(["xval-wiring", "--folds", folds]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: folds must be at least 2, got {folds}")
    assert "Traceback" not in err


def test_train_completer_rewrites_the_demo_completer_files(model_dir, demo_models, tmp_path):
    """`train-completer` at the demo's seed, cluster counts and exemplars
    writes the six files that `make-demo` wrote, byte for byte: both train
    through `pipeline.train_completer`."""
    from vuln2rule.demo import demo_exemplars, write_demo_entities

    models = tmp_path / "models"
    shutil.copytree(model_dir, models)
    completer_files = [
        template.format(entity.lower())
        for entity in COMPLETABLE_ENTITIES
        for template in (DISC_TEMPLATE, COMPLETION_TEMPLATE)
    ]
    for name in completer_files:
        (models / name).unlink()
    entities = tmp_path / "entities.jsonl"
    write_demo_entities(demo_models.records, entities)
    exemplars = tmp_path / "exemplars.json"
    exemplars.write_text(json.dumps(demo_exemplars()), "utf-8")
    cfg = tmp_path / "demo.cfg"
    cfg.write_text("k_clusters.VECTOR = 3\nk_clusters.IMPACT = 4\nk_clusters.MEANS = 6\n", "utf-8")
    assert main([
        "train-completer", "--entities", str(entities), "--exemplars", str(exemplars),
        "--model-dir", str(models), "--config", str(cfg), "--seed", "7",
    ]) == 0
    for name in completer_files:
        assert (models / name).read_bytes() == (model_dir / name).read_bytes(), name


def test_eval_without_input_is_error(tmp_path, capsys):
    """Checked before any artifact loads: the model directory is empty."""
    assert main(["eval", "--model-dir", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: eval needs --demo or --corpus\n"


@pytest.mark.parametrize(
    "flags",
    [["--rules", "/nope.P"], ["--corpus", "c.tsv"], ["--labeled", "l.tsv", "--entities", "e.jsonl"]],
    ids=["rules", "corpus", "labeled+entities"],
)
def test_eval_demo_rejects_input_files(tmp_path, flags, capsys):
    """--demo makes its own data: a file flag beside it is an error line,
    checked before any artifact loads (the model directory is empty)."""
    assert main(["eval", "--demo", "--model-dir", str(tmp_path), *flags]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    named = ", ".join(f for f in flags if f.startswith("--"))
    assert err == f"error: eval --demo reads its own data, not {named}\n"


def test_eval_demo(model_dir, tmp_path, capsys):
    report_path = tmp_path / "eval.json"
    assert main([
        "eval", "--demo", "--model-dir", str(model_dir), "--report", str(report_path),
    ]) == 0
    payload = json.loads(report_path.read_text("utf-8"))
    for key in ("frequency_top10", "ner_f1", "completion", "wiring_cv"):
        assert key in payload["metrics"]


def _xval_line(capsys, *argv) -> str:
    assert main(["xval-wiring", "--folds", "10", *argv]) == 0
    return capsys.readouterr().out.strip()


def test_eval_wiring_cv_reads_wiring_k(model_dir, tmp_path, capsys):
    """`eval` cross-validates the wiring with the configured `wiring_k`,
    as `xval-wiring` does."""
    config = tmp_path / "k1.cfg"
    config.write_text("wiring_k = 1\n", "utf-8")
    report_path = tmp_path / "eval.json"
    assert main([
        "eval", "--demo", "--config", str(config), "--model-dir", str(model_dir),
        "--report", str(report_path),
    ]) == 0
    capsys.readouterr()
    cv = json.loads(report_path.read_text("utf-8"))["metrics"]["wiring_cv"]
    xval = _xval_line(capsys, "--config", str(config))
    assert xval == f"folds: 10  mean F1: {cv['f1']:.4f}  mean accuracy: {cv['accuracy']:.4f}"
    assert xval != _xval_line(capsys)


def test_xval_wiring_reads_lexicon_path(tmp_path, capsys):
    """A lexicon whose every sort belongs to one predicate slot forbids
    every merge across predicates; `xval-wiring` scores with it."""
    declarations = []
    for (name, _), schema in load_default_lexicon().schemas.items():
        args = [
            f"{hint}:{name.lower()}{pos}{'!' if pos in schema.constant_slots else ''}"
            for pos, hint in enumerate(schema.var_hints)
        ]
        declarations.append(f"predicate {name}({', '.join(args)})")
    lexicon = tmp_path / "lexicon.txt"
    lexicon.write_text("\n".join(declarations) + "\n", "utf-8")
    config = tmp_path / "lexicon.cfg"
    config.write_text(f"lexicon_path = {lexicon}\n", "utf-8")
    rules = parse_rule_file(load_default_rule_corpus())
    cv = crossvalidate_wiring(
        rules, folds=10, k_neighbors=5, threshold=0.5, lexicon=load_lexicon(lexicon)
    )
    xval = _xval_line(capsys, "--config", str(config))
    assert xval == f"folds: 10  mean F1: {cv.f1:.4f}  mean accuracy: {cv.accuracy:.4f}"
    assert xval != _xval_line(capsys)


def test_missing_artifact_is_fatal(tmp_path, capsys):
    code = main([
        "tag", "--model-dir", str(tmp_path / "empty"), "--text", "something",
    ])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_pipeline_with_embedding_of_another_dim_is_error(model_dir, demo_corpus, tmp_path, capsys):
    models = tmp_path / "models"
    shutil.copytree(model_dir, models)
    assert main([
        "train-embedding", "--corpus", str(demo_corpus), "--model-dir", str(models),
        "--dim", "8", "--epochs", "1", "--seed", "13",
    ]) == 0
    capsys.readouterr()
    out = tmp_path / "rules.P"
    assert main([
        "pipeline", "--model-dir", str(models), "--input", str(demo_corpus), "--out", str(out),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert ARTIFACTS["ner"] in err and ARTIFACTS["embedding"] in err
    assert not out.exists()


def test_train_completer_without_exemplars_is_error(model_dir, demo_models, tmp_path, capsys):
    # without exemplars the clusters would keep clusterN labels, which no
    # mapping table maps
    from vuln2rule.demo import write_demo_entities

    models = tmp_path / "models"
    models.mkdir()
    shutil.copy(model_dir / ARTIFACTS["embedding"], models)
    entities = tmp_path / "entities.jsonl"
    write_demo_entities(demo_models.records[:40], entities)
    with pytest.raises(SystemExit) as exit_info:
        main(["train-completer", "--entities", str(entities), "--model-dir", str(models)])
    assert exit_info.value.code == 2
    assert "--exemplars" in capsys.readouterr().err
    assert sorted(p.name for p in models.iterdir()) == [ARTIFACTS["embedding"]]


@pytest.mark.parametrize("source", ["completion", "mapping"])
def test_labels_missing_from_mapping_rejected_at_load(model_dir, demo_models, tmp_path, source):
    from vuln2rule._textio import read_data

    models = tmp_path / "models"
    shutil.copytree(model_dir, models)
    config = PipelineConfig(model_dir=models)
    if source == "completion":
        comp = demo_models.completion["MEANS"]
        classes = [(comp.classes[0][0], "unmappedMeans"), *comp.classes[1:]]
        path = models / COMPLETION_TEMPLATE.format("means")
        save_completion(replace(comp, classes=classes), path)
        tables = "the packaged mapping tables"
    else:
        label = demo_models.discretization["MEANS"].labels[0]
        tables = tmp_path / "mapping.txt"
        lines = read_data("mapping_tables.txt").splitlines()
        tables.write_text("\n".join(x for x in lines if not x.startswith(f"means {label} ")), "utf-8")
        config.mapping_path = tables
        path = models / DISC_TEMPLATE.format("means")
    with pytest.raises(MismatchedArtifacts) as excinfo:
        load_models(config)
    assert str(path) in str(excinfo.value) and str(tables) in str(excinfo.value)


@pytest.mark.parametrize(
    "exemplars",
    ['{"VECTOR": 5}', "[1]", '{"VECTOR": {"remote": "x"}}', '{"VECTOR": {"remote": ["x"]}}'],
)
def test_train_completer_badly_shaped_exemplars_is_error(
    model_dir, demo_models, tmp_path, capsys, exemplars
):
    from vuln2rule.demo import write_demo_entities

    models = tmp_path / "models"
    models.mkdir()
    shutil.copy(model_dir / ARTIFACTS["embedding"], models)
    entities = tmp_path / "entities.jsonl"
    write_demo_entities(demo_models.records[:40], entities)
    path = tmp_path / "exemplars.json"
    path.write_text(exemplars, "utf-8")
    assert main([
        "train-completer", "--entities", str(entities), "--exemplars", str(path),
        "--model-dir", str(models),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "exemplars" in err and "Traceback" not in err
    assert sorted(p.name for p in models.iterdir()) == [ARTIFACTS["embedding"]]


def _saved_at_another_dim(demo_models, models, kind: str):
    """Overwrite one artifact in ``models`` with one built for dim + 1;
    return its path."""
    dim = demo_models.embedding.config.dim
    if kind == "ner":
        config = replace(demo_models.tagger.config, dim=dim + 1)
        path = models / ARTIFACTS["ner"]
        save_ner(BlstmModel(init_params(config, np.random.default_rng(0)), config), path)
        return path
    if kind == "discretization":
        disc = demo_models.discretization["VECTOR"]
        path = models / DISC_TEMPLATE.format("vector")
        wider = np.hstack([disc.centroids, np.zeros((disc.k_clusters, 1))])
        save_discretization(replace(disc, centroids=wider), path)
        return path
    comp = demo_models.completion["MEANS"]
    path = models / COMPLETION_TEMPLATE.format("means")
    weights = np.zeros((comp.n_classes, 9 * (dim + 1)))
    save_completion(replace(comp, weights=weights, block_dim=dim + 1), path)
    return path


@pytest.mark.parametrize("kind", ["ner", "discretization", "completion"])
def test_artifacts_of_another_dim_rejected_at_load(model_dir, demo_models, tmp_path, kind):
    models = tmp_path / "models"
    shutil.copytree(model_dir, models)
    path = _saved_at_another_dim(demo_models, models, kind)
    with pytest.raises(MismatchedArtifacts) as excinfo:
        load_models(PipelineConfig(model_dir=models))
    assert str(path) in str(excinfo.value)
    assert str(models / ARTIFACTS["embedding"]) in str(excinfo.value)


@pytest.mark.parametrize(
    "argv",
    [
        ["train-embedding", "--corpus", "unused.tsv", "--model-dir", "models", "--seed", "-1"],
        ["xval-wiring", "--threshold", "nan"],
    ],
)
def test_flag_out_of_range_is_error(tmp_path, monkeypatch, capsys, argv):
    """An error line, and nothing is created: train-embedding makes no
    model directory."""
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --{argv[-2][2:]}: ") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flag,value,named",
    [
        ("--learning-rate", "nan", "learning_rate"),
        ("--learning-rate", "0", "learning_rate"),
        ("--epochs", "-1", "epochs"),
        ("--max-vocab", "0", "max_vocab"),
        ("--dim", "0", "dim"),
        ("--window", "0", "window"),
    ],
)
def test_train_embedding_flag_out_of_range_is_error(tmp_path, demo_corpus, capsys, flag, value, named):
    models = tmp_path / "models"
    argv = ["train-embedding", "--corpus", str(demo_corpus), "--model-dir", str(models),
            "--dim", "8", "--epochs", "1", flag, value]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: train-embedding: {named} must be ") and "Traceback" not in err
    assert not (models / ARTIFACTS["embedding"]).exists()


@pytest.mark.parametrize(
    "flag,value,named",
    [
        ("--learning-rate", "nan", "learning_rate"),
        ("--epochs", "-1", "epochs"),
        ("--max-len", "0", "max_len"),
        ("--batch-size", "0", "batch_size"),
        ("--hidden", "0", "hidden"),
    ],
)
def test_train_ner_flag_out_of_range_is_error(
    model_dir, demo_models, tmp_path, capsys, flag, value, named
):
    from vuln2rule.demo import write_demo_labeled

    models = tmp_path / "models"
    models.mkdir()
    shutil.copy(model_dir / ARTIFACTS["embedding"], models)
    labeled = tmp_path / "labeled.tsv"
    write_demo_labeled(demo_models.records[:4], labeled)
    argv = ["train-ner", "--labeled", str(labeled), "--model-dir", str(models),
            "--epochs", "1", flag, value]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: train-ner: {named} must be ") and "Traceback" not in err
    assert sorted(p.name for p in models.iterdir()) == [ARTIFACTS["embedding"]]


@pytest.mark.parametrize(
    "command,input_flag,defaults",
    [
        ("train-embedding", "--corpus", {"variant": "CBOW", "dim": 100, "window": 5,
                                         "epochs": 300, "learning_rate": 0.0001,
                                         "max_vocab": 10000}),
        ("train-ner", "--labeled", {"max_len": 150, "hidden": None, "epochs": 100,
                                    "batch_size": 32, "learning_rate": 0.01}),
    ],
)
def test_trainer_flags_and_defaults_pinned(command, input_flag, defaults):
    argv = [command, input_flag, "in.tsv"]
    args = vars(build_parser().parse_args(argv))
    common = {"config", "model_dir", "seed", "func", "command", input_flag[2:]}
    assert {k: v for k, v in args.items() if k not in common} == defaults
    for name, default in defaults.items():
        value = "SG" if name == "variant" else "7"
        got = getattr(build_parser().parse_args([*argv, "--" + name.replace("_", "-"), value]), name)
        assert got == (value if name == "variant" else 7)
        assert default is None or type(got) is type(default)


def test_train_embedding_unknown_variant_is_error(tmp_path, demo_corpus, capsys):
    models = tmp_path / "models"
    assert main(["train-embedding", "--corpus", str(demo_corpus), "--model-dir", str(models),
                 "--variant", "XX"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: train-embedding: variant must be CBOW or SG, got XX")
    assert "Traceback" not in err and not models.exists()


def test_completer_config_out_of_range_is_error(model_dir, tmp_path, capsys):
    from vuln2rule.demo import demo_exemplars, write_demo_entities

    models = tmp_path / "models"
    shutil.copytree(model_dir, models)
    before = {p.name: p.read_bytes() for p in models.iterdir()}
    entities = tmp_path / "entities.jsonl"
    write_demo_entities(demo.generate_demo_records(20), entities)
    exemplars = tmp_path / "exemplars.json"
    exemplars.write_text(json.dumps(demo_exemplars()), "utf-8")
    for line in ("completer_l2 = nan", "completer_iterations = 0"):
        cfg = tmp_path / "completer.cfg"
        cfg.write_text(line + "\n", "utf-8")
        assert main([
            "train-completer", "--entities", str(entities), "--exemplars", str(exemplars),
            "--model-dir", str(models), "--config", str(cfg),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config line 1: ") and "Traceback" not in err
    assert {p.name: p.read_bytes() for p in models.iterdir()} == before


def test_top_ks_zero_is_error(model_dir, tmp_path, capsys):
    cfg = tmp_path / "eval.cfg"
    cfg.write_text("top_ks = 0\n", "utf-8")
    assert main(["eval", "--demo", "--config", str(cfg), "--model-dir", str(model_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "top_ks" in err and "Traceback" not in err


@pytest.mark.parametrize("source", ["mapping", "lexicon"])
def test_predicate_not_in_lexicon_rejected_at_load(model_dir, demo_corpus, tmp_path, capsys, source):
    from vuln2rule._textio import read_data

    if source == "mapping":
        tables = tmp_path / "mapping.txt"
        tables.write_text(read_data("mapping_tables.txt").replace(
            "impact dos head=dos ", "impact dos head=noSuchPred "), "utf-8")
        line, named, want = f"mapping_path = {tables}", "noSuchPred", "not in the lexicon"
    else:
        lexicon = tmp_path / "lexicon.txt"
        lexicon.write_text(read_data("predicate_schemas.txt")
                           + "predicate dos(Host:host, A:x, B:y)\n", "utf-8")
        line, named, want = f"lexicon_path = {lexicon}", "dos", "declared at arities 1 and 3"
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text(line + "\n", "utf-8")
    out = tmp_path / "rules.P"
    assert main([
        "pipeline", "--config", str(cfg), "--model-dir", str(model_dir),
        "--input", str(demo_corpus), "--out", str(out),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"predicate {named!r}" in err and want in err
    if source == "mapping":
        assert str(tables) in err
    assert not out.exists()


def test_gold_value_without_a_word_is_error(model_dir, tmp_path, capsys):
    gold = _gold_fixture(tmp_path, MEANS=["  "])
    assert main(["genrule", "--model-dir", str(model_dir), "--gold-entities", str(gold)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "MEANS has a value with no word" in err
    assert "Traceback" not in err
