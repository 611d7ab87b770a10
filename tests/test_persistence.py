"""Artifact and entity-record codecs: typed errors for damaged input,
label checks before a save, and byte-level fuzzing of every loader."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vuln2rule.completer import (
    CompletionModel,
    DiscretizationModel,
    load_completion,
    load_discretization,
    save_completion,
    save_discretization,
)
from vuln2rule.demo import golden_entity_set, golden_fixture, read_entity_records
from vuln2rule.embedding import EmbeddingConfig, load_embedding, save_embedding, train_embedding
from vuln2rule.errors import (
    InvalidLabel,
    MalformedRecord,
    UnreadableFile,
    Vuln2RuleError,
)
from vuln2rule.tagger import (
    BlstmConfig,
    BlstmModel,
    EntitySet,
    init_params,
    load_ner,
    parse_json,
    save_ner,
)


def _discretization(labels: dict[int, str]) -> DiscretizationModel:
    k = len(labels)
    return DiscretizationModel(
        entity_type="VECTOR", k_clusters=k, centroids=np.arange(2.0 * k).reshape(k, 2),
        labels=labels, seed=0,
    )


def _completion(classes: list[tuple[int, str]]) -> CompletionModel:
    n = len(classes)
    return CompletionModel(
        entity_type="MEANS", weights=np.linspace(-1, 1, 9 * 2 * n).reshape(18, n),
        biases=np.linspace(0, 1, n), classes=classes, l2=0.01, iterations=3, block_dim=2,
    )


def _saved_artifacts(directory) -> dict:
    """name -> (path, loader) for one small artifact of each kind."""
    emb = train_embedding(
        [["remote", "attackers", "execute", "code"]] * 3, EmbeddingConfig(dim=3, epochs=1, seed=1)
    )
    config = BlstmConfig(max_len=5, dim=3, hidden=2, epochs=1, batch_size=1, seed=2)
    ner = BlstmModel(init_params(config, np.random.default_rng(2)), config)
    record = EntitySet("CVE-2020-0001", {"MEANS": ["sql injection"], "VECTOR": ["remote"]})
    saved = {
        "embedding": (directory / "embedding.txt", load_embedding),
        "tagger": (directory / "ner.txt", load_ner),
        "discretization": (directory / "disc.txt", load_discretization),
        "completion": (directory / "completion.txt", load_completion),
        "entity_record": (directory / "entities.jsonl", read_entity_records),
    }
    save_embedding(emb, saved["embedding"][0])
    save_ner(ner, saved["tagger"][0])
    save_discretization(_discretization({0: "remote", 1: "local"}), saved["discretization"][0])
    save_completion(_completion([(0, "sqlInjection"), (2, "pathTraversal")]), saved["completion"][0])
    saved["entity_record"][0].write_text(json.dumps(record.to_dict()) + "\n", "utf-8")
    return saved


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    return _saved_artifacts(tmp_path_factory.mktemp("artifacts"))


class TestEntitySetCodec:
    def test_round_trip(self):
        record = EntitySet("CVE-2020-0001", {"MEANS": ["sql injection"]})
        decoded = EntitySet.from_dict(json.loads(json.dumps(record.to_dict())))
        assert decoded.cve_id == "CVE-2020-0001"
        assert decoded.values_for("MEANS") == ["sql injection"]
        # decoding fills every entity tag, in tag order
        assert decoded.entities == EntitySet("CVE-2020-0001").entities | {"MEANS": ["sql injection"]}

    def test_extra_keys_ignored(self):
        fixture = golden_fixture()
        assert {"description", "tags"} <= set(fixture)
        entity_set = golden_entity_set()
        assert entity_set.cve_id == fixture["cve_id"]
        assert entity_set.values_for("OS") == ["windows", "mac os x"]

    @pytest.mark.parametrize(
        "data",
        [
            ["not", "an", "object"],
            {"entities": {}},
            {"cve_id": 7, "entities": {}},
            {"cve_id": "CVE-1", "entities": ["MEANS"]},
            {"cve_id": "CVE-1", "entities": {"MEANS": "buffer overflow"}},
            {"cve_id": "CVE-1", "entities": {"MEANS": ["buffer overflow", 3]}},
            {"cve_id": "CVE-1", "entities": {"O": ["the"]}},
            {"cve_id": "CVE-1", "entities": {"means": ["buffer overflow"]}},
        ],
    )
    def test_malformed_record_rejected(self, data):
        with pytest.raises(MalformedRecord):
            EntitySet.from_dict(data)

    def test_bad_json_rejected(self):
        with pytest.raises(MalformedRecord, match="bad JSON"):
            parse_json("{bad")

    def test_read_entity_records_names_line(self, tmp_path):
        path = tmp_path / "entities.jsonl"
        path.write_text('{"cve_id": "CVE-1", "entities": {}}\n\n{"cve_id": "CVE-2"}\n', "utf-8")
        with pytest.raises(MalformedRecord, match="line 3") as excinfo:
            read_entity_records(path)
        assert excinfo.value.line == 3

    def test_read_entity_records_missing_file(self, tmp_path):
        with pytest.raises(UnreadableFile):
            read_entity_records(tmp_path / "absent.jsonl")


def _rewrite(path, old: str, new: str) -> None:
    text = path.read_text("utf-8")
    assert old in text
    path.write_text(text.replace(old, new, 1), "utf-8")


class TestLoaderErrors:
    @pytest.mark.parametrize("name", ["embedding", "tagger"])
    def test_renamed_meta_key(self, tmp_path, name):
        path, load = _saved_artifacts(tmp_path)[name]
        _rewrite(path, "\n# dim ", "\n# dims ")
        with pytest.raises(MalformedRecord, match="'dim'") as excinfo:
            load(path)
        assert str(path) in str(excinfo.value)

    def test_non_integer_matrix_size(self, tmp_path):
        path, load = _saved_artifacts(tmp_path)["discretization"]
        _rewrite(path, "matrix centroids 2 2", "matrix centroids two 2")
        with pytest.raises(MalformedRecord, match=str(path)):
            load(path)

    def test_non_float_cell(self, tmp_path):
        path, load = _saved_artifacts(tmp_path)["completion"]
        _rewrite(path, "matrix biases 1 2\n0.0", "matrix biases 1 2\nzero")
        with pytest.raises(MalformedRecord):
            load(path)

    def test_missing_matrix(self, tmp_path):
        path, load = _saved_artifacts(tmp_path)["completion"]
        _rewrite(path, "matrix biases", "matrix bias")
        with pytest.raises(MalformedRecord, match="'biases'"):
            load(path)

    def test_config_rejection(self, tmp_path):
        path, load = _saved_artifacts(tmp_path)["embedding"]
        _rewrite(path, "# variant CBOW", "# variant GloVe")
        with pytest.raises(MalformedRecord, match="variant"):
            load(path)

    def test_vocabulary_size_mismatch(self, tmp_path):
        path, load = _saved_artifacts(tmp_path)["embedding"]
        _rewrite(path, " code", "")
        with pytest.raises(MalformedRecord, match="w_in"):
            load(path)

    def test_label_count_mismatch(self, tmp_path):
        path, load = _saved_artifacts(tmp_path)["discretization"]
        _rewrite(path, "# labels remote,local", "# labels remote,net,local")
        with pytest.raises(MalformedRecord, match="3 labels"):
            load(path)

    @pytest.mark.parametrize("name", ["embedding", "tagger", "discretization", "completion"])
    def test_non_utf8_and_missing_files(self, tmp_path, name):
        path, load = _saved_artifacts(tmp_path)[name]
        path.write_bytes(path.read_bytes() + b"\xff\xfe")
        with pytest.raises(UnreadableFile, match=str(path)):
            load(path)
        with pytest.raises(UnreadableFile):
            load(tmp_path / "absent.txt")


class TestLabelsRejectedBeforeSave:
    def test_discretization_label_with_comma(self, tmp_path):
        path = tmp_path / "disc.txt"
        model = _discretization({0: "remote,net", 1: "remote", 2: "local"})
        with pytest.raises(InvalidLabel, match="remote,net"):
            save_discretization(model, path)
        assert not path.exists()

    def test_completion_label_with_colon_and_comma(self, tmp_path):
        path = tmp_path / "completion.txt"
        model = _completion([(0, "a:b,c"), (1, "d")])
        with pytest.raises(InvalidLabel, match="a:b,c"):
            save_completion(model, path)
        assert not path.exists()

    @pytest.mark.parametrize("label", ["", "two words", "line\nbreak"])
    def test_other_unsavable_labels(self, tmp_path, label):
        with pytest.raises(InvalidLabel):
            save_discretization(_discretization({0: label, 1: "ok"}), tmp_path / "disc.txt")


# --- fuzzing: damaged bytes give a Vuln2RuleError or a model, nothing else -------


def _mutations(original: bytes):
    truncate = st.integers(0, len(original) - 1).map(lambda n: original[:n])
    edits = st.lists(
        st.tuples(st.integers(0, len(original) - 1), st.binary(min_size=0, max_size=3)),
        min_size=1,
        max_size=4,
    )

    def apply(edit_list):
        data = bytearray(original)
        for pos, replacement in edit_list:
            data[pos : pos + 1] = replacement
        return bytes(data)

    return st.one_of(truncate, edits.map(apply))


@pytest.mark.parametrize(
    "name", ["embedding", "tagger", "discretization", "completion", "entity_record"]
)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_damaged_bytes_raise_only_package_errors(artifacts, tmp_path_factory, name, data):
    path, load = artifacts[name]
    original = path.read_bytes()
    load(path)  # the unmutated file loads
    damaged = data.draw(_mutations(original), label="damaged")
    target = tmp_path_factory.getbasetemp() / f"damaged-{name}"
    target.write_bytes(damaged)
    try:
        load(target)
    except Vuln2RuleError:
        pass
