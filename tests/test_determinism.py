"""Seed-fixed reproducibility across every trainable artifact."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import synthesize_wiring_corpus
from vuln2rule.completer import (
    fit_discretization,
    save_completion,
    save_discretization,
    train_completion,
)
from vuln2rule.corpus import tokenize
from vuln2rule.demo import generate_demo_records
from vuln2rule.embedding import EmbeddingConfig, save_embedding, train_embedding
from vuln2rule.rules.datalog import parse_rule_file
from vuln2rule.rules.schema import load_default_rule_corpus
from vuln2rule.rules.wiring import estimate_wiring_matrix, impute_matrix, save_wiring
from vuln2rule.tagger import BlstmConfig, save_ner, train_ner


@pytest.fixture(scope="module")
def records():
    return generate_demo_records(30, seed=5)


def train_tiny_embedding(records, seed):
    sentences = [[t.norm for t in tokenize(r.vulnerability.description)] for r in records]
    return train_embedding(
        sentences,
        EmbeddingConfig(dim=10, epochs=2, learning_rate=0.05, seed=seed),
    )


def test_embedding_artifact_bytes_stable(tmp_path, records):
    paths = []
    for run in range(2):
        model = train_tiny_embedding(records, seed=21)
        path = tmp_path / f"emb{run}.txt"
        save_embedding(model, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert (tmp_path / "emb0.txt.out").read_bytes() == (tmp_path / "emb1.txt.out").read_bytes()


def test_ner_artifact_bytes_stable(tmp_path, records):
    emb = train_tiny_embedding(records, seed=21)
    config = BlstmConfig(max_len=40, dim=10, hidden=10, epochs=2,
                         batch_size=8, learning_rate=0.05, seed=21)
    paths = []
    for run in range(2):
        model = train_ner([r.sentence for r in records], emb, config)
        path = tmp_path / f"ner{run}.txt"
        save_ner(model, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_completer_artifacts_bytes_stable(tmp_path, records):
    emb = train_tiny_embedding(records, seed=21)
    values = [v for r in records for v in r.entities.values_for("VECTOR")]
    paths = []
    for run in range(2):
        disc = fit_discretization(values, emb, 3, seed=21, entity_type="VECTOR")
        completion = train_completion([r.entities for r in records], emb, disc, "VECTOR")
        disc_path = tmp_path / f"disc{run}.txt"
        comp_path = tmp_path / f"comp{run}.txt"
        save_discretization(disc, disc_path)
        save_completion(completion, comp_path)
        paths.append((disc_path, comp_path))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


def test_wiring_artifact_bytes_stable(tmp_path):
    rules = parse_rule_file(load_default_rule_corpus())
    paths = []
    for run in range(2):
        matrix = impute_matrix(estimate_wiring_matrix(rules), 5)
        path = tmp_path / f"wiring{run}.csv"
        save_wiring(matrix, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_synthetic_corpus_generator_stable():
    first = synthesize_wiring_corpus(seed=4)
    second = synthesize_wiring_corpus(seed=4)
    assert first == second
    assert first != synthesize_wiring_corpus(seed=5)
