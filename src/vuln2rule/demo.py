"""Synthetic demo data and offline demo models.

The real training corpora (an NVD snapshot, hand-labeled sentences) are not
bundled, so this module generates small template-based stand-ins with known
entity structure, and trains every pipeline artifact on them.  Everything is
deterministic for a fixed seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._textio import read_data, read_text, write_text
from .completer import CompletionModel, DiscretizationModel
from .corpus import LabeledSentence, RawVulnerability, Token, tokenize
from .embedding import EmbeddingConfig, EmbeddingModel, train_embedding
from .errors import MalformedRecord
from .pipeline import PipelineConfig, train_completer
from .rules.schema import (
    load_default_lexicon,
    load_default_mapping,
    load_default_rule_corpus,
)
from .rules.datalog import parse_rule_file
from .rules.synthesis import GeneratorModels
from .rules.wiring import estimate_wiring_matrix, impute_matrix
from .tagger import BlstmConfig, BlstmModel, EntitySet, extract_entities, parse_json, train_ner

#: value variants per class; every value keeps the class keyword so that the
#: succinct vectors of one class stay closer to each other than to others.
VECTOR_VALUES = {
    "remote": ["remote", "remote attackers"],
    "local": ["local", "local users"],
    "physical": ["physically proximate", "physically proximate attackers"],
}
MEANS_VALUES = {
    "bufferOverflow": ["buffer overflow", "heap buffer overflow", "stack buffer overflow"],
    "sqlInjection": ["sql injection", "blind sql injection"],
    "crossSiteScripting": ["cross-site scripting", "stored cross-site scripting"],
    "pathTraversal": ["path traversal", "directory path traversal"],
    "raceCondition": ["race condition", "file race condition"],
    "symlinkAttack": ["symlink attack", "insecure symlink attack"],
}
IMPACT_VALUES = {
    "execCode": ["execute arbitrary code", "run arbitrary code"],
    "dos": ["cause denial of service", "trigger denial of service"],
    "accessData": ["obtain sensitive information", "read sensitive information"],
    "gainPrivileges": ["gain elevated privileges", "obtain elevated privileges"],
}

#: which means/impact classes co-occur with each attack vector; the
#: completion models learn exactly these correlations.
VECTOR_PROFILE = {
    "remote": (["bufferOverflow", "sqlInjection", "crossSiteScripting"], ["execCode", "dos"]),
    "local": (["raceCondition", "symlinkAttack"], ["gainPrivileges"]),
    "physical": (["pathTraversal"], ["accessData"]),
}

PLATFORMS = ["adobe reader", "apache tomcat", "openssl library", "cisco gateway", "mysql server", "linux kernel"]
OSES = ["windows", "linux", "mac os x"]
VERSIONS = ["9.x before 9.3.3", "2.0.1", "5.x before 5.1.2", "1.0.2 before 1.0.2k"]
TECHNIQUES = [
    "a crafted http request",
    "a crafted pdf file",
    "a long query string",
    "a malformed packet",
]

#: the share of demo records whose description states no attack vector
VECTOR_MISSING_RATE = 0.15


@dataclass
class DemoRecord:
    vulnerability: RawVulnerability
    sentence: LabeledSentence
    entities: EntitySet


def _segment_tokens(segments: list[tuple[str, str]]) -> tuple[list[Token], list[str]]:
    text = " ".join(s for s, _ in segments)
    tokens = tokenize(text)
    tags: list[str] = []
    for seg_text, seg_tag in segments:
        tags.extend(seg_tag for _ in tokenize(seg_text))
    if len(tags) != len(tokens):
        raise AssertionError("segment tokenization drifted from full tokenization")
    return tokens, tags


def generate_demo_records(n: int = 160, seed: int = 7) -> list[DemoRecord]:
    """Template-generated vulnerability descriptions with gold labels.

    A ``VECTOR_MISSING_RATE`` share of records omit the attack-vector phrase,
    mirroring NVD descriptions that never state how the bug is reached.
    """
    rng = np.random.default_rng(seed)
    vector_labels = sorted(VECTOR_VALUES)
    records: list[DemoRecord] = []
    for i in range(n):
        vector = vector_labels[int(rng.integers(len(vector_labels)))]
        means_pool, impact_pool = VECTOR_PROFILE[vector]
        means = means_pool[int(rng.integers(len(means_pool)))]
        impact = impact_pool[int(rng.integers(len(impact_pool)))]
        means_value = MEANS_VALUES[means][int(rng.integers(len(MEANS_VALUES[means])))]
        impact_value = IMPACT_VALUES[impact][int(rng.integers(len(IMPACT_VALUES[impact])))]
        vector_value = VECTOR_VALUES[vector][int(rng.integers(len(VECTOR_VALUES[vector])))]
        platform = PLATFORMS[int(rng.integers(len(PLATFORMS)))]
        os_name = OSES[int(rng.integers(len(OSES)))]
        version = VERSIONS[int(rng.integers(len(VERSIONS)))]
        technique = TECHNIQUES[int(rng.integers(len(TECHNIQUES)))]
        with_vector = rng.random() >= VECTOR_MISSING_RATE

        segments: list[tuple[str, str]] = [
            (means_value.capitalize(), "MEANS"),
            ("in", "O"),
            (platform, "PLATFORM"),
            (version, "VERSION"),
            ("on", "O"),
            (os_name, "OS"),
            ("allows", "O"),
        ]
        if with_vector:
            segments.append((vector_value, "VECTOR"))
        segments += [
            ("attackers to", "O"),
            (impact_value, "IMPACT"),
            ("via", "O"),
            (technique, "TECHNIQUE"),
        ]
        tokens, tags = _segment_tokens(segments)
        cve_id = f"CVE-2020-{10000 + i}"
        description = " ".join(s for s, _ in segments) + "."
        records.append(
            DemoRecord(
                vulnerability=RawVulnerability(cve_id, description),
                sentence=LabeledSentence(tuple(tokens), tuple(tags)),
                entities=extract_entities(zip(tokens, tags), cve_id),
            )
        )
    return records


def demo_cluster_counts() -> dict[str, int]:
    return {
        "VECTOR": len(VECTOR_VALUES),
        "MEANS": len(MEANS_VALUES),
        "IMPACT": len(IMPACT_VALUES),
    }


def demo_exemplars() -> dict[str, dict[str, list[str]]]:
    return {
        "VECTOR": {k: list(v) for k, v in VECTOR_VALUES.items()},
        "MEANS": {k: list(v) for k, v in MEANS_VALUES.items()},
        "IMPACT": {k: list(v) for k, v in IMPACT_VALUES.items()},
    }


@dataclass
class DemoModels:
    embedding: EmbeddingModel
    tagger: BlstmModel
    discretization: dict[str, DiscretizationModel]
    completion: dict[str, CompletionModel]
    generator: GeneratorModels
    records: list[DemoRecord]


def build_demo_models(
    seed: int = 7,
    n_records: int = 160,
    dim: int = 32,
    embedding_epochs: int = 25,
    ner_epochs: int = 60,
) -> DemoModels:
    """Train the full artifact set on the synthetic corpus.

    Embedding and tagger hyperparameters here are desk-scale overrides;
    library defaults stay at their documented full-scale values.  The
    completers, the wiring and the threshold use the ``PipelineConfig``
    defaults, with one cluster per demo class.
    """
    config = PipelineConfig(seed=seed, k_clusters=demo_cluster_counts())
    records = generate_demo_records(n_records, seed)
    sentences = [[t.norm for t in tokenize(r.vulnerability.description)] for r in records]
    # the golden fixture is part of the demo corpus so its words are in-vocab
    sentences.append([t.norm for t in tokenize(golden_fixture()["description"])])
    emb = train_embedding(
        sentences,
        EmbeddingConfig(dim=dim, epochs=embedding_epochs, learning_rate=0.05, seed=seed),
    )

    discretization, completion = train_completer(
        [r.entities for r in records], emb, demo_exemplars(), config
    )

    ner = train_ner(
        [r.sentence for r in records],
        emb,
        BlstmConfig(
            max_len=60,
            dim=dim,
            hidden=dim,
            epochs=ner_epochs,
            learning_rate=0.1,
            seed=seed,
        ),
    )

    rules = parse_rule_file(load_default_rule_corpus())
    wiring = impute_matrix(estimate_wiring_matrix(rules), config.wiring_k)
    generator = GeneratorModels(
        embedding=emb,
        discretization=discretization,
        completion=completion,
        wiring=wiring,
        lexicon=load_default_lexicon(),
        mapping=load_default_mapping(),
        threshold=config.threshold,
        tagger=ner,
    )
    return DemoModels(
        embedding=emb,
        tagger=ner,
        discretization=discretization,
        completion=completion,
        generator=generator,
        records=records,
    )


# --- on-disk demo assets -------------------------------------------------------


def write_demo_corpus(records: list[DemoRecord], path: str | Path) -> None:
    lines = [f"{r.vulnerability.id}\t{r.vulnerability.description}" for r in records]
    write_text(path, "\n".join(lines) + "\n")


def write_demo_labeled(records: list[DemoRecord], path: str | Path) -> None:
    blocks = []
    for r in records:
        blocks.append(
            "\n".join(f"{t.surface}\t{tag}" for t, tag in zip(r.sentence.tokens, r.sentence.tags))
        )
    write_text(path, "\n\n".join(blocks) + "\n")


def write_demo_entities(records: list[DemoRecord], path: str | Path) -> None:
    lines = [json.dumps(r.entities.to_dict(), sort_keys=True) for r in records]
    write_text(path, "\n".join(lines) + "\n")


def read_entity_records(path: str | Path) -> list[EntitySet]:
    """JSON lines of entity records; a malformed line raises MalformedRecord
    naming the file and the line."""
    records = []
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        if not line.strip():
            continue
        try:
            records.append(EntitySet.from_dict(parse_json(line)))
        except MalformedRecord as exc:
            raise MalformedRecord(f"{path}: {exc}", lineno) from exc
    return records


def golden_fixture() -> dict:
    return json.loads(read_data("golden_cve_2010_2212.json"))


def golden_entity_set() -> EntitySet:
    return EntitySet.from_dict(golden_fixture())


def golden_rule_text() -> str:
    return read_data("golden_cve_2010_2212.P")
