"""Artifact and entity-record codecs, the other readers and the writers:
typed errors for damaged input and unwritable paths, label checks before a
save, and byte-level fuzzing of every reader."""

from __future__ import annotations

import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vuln2rule._textio import read_model, read_text, write_model, write_text
from vuln2rule.completer import (
    COMPLETION_MARKER,
    DISC_MARKER,
    CompletionModel,
    DiscretizationModel,
    load_completion,
    load_discretization,
    save_completion,
    save_discretization,
)
from vuln2rule.corpus import load_labeled_dataset, load_nvd_feed
from vuln2rule.demo import golden_entity_set, golden_fixture, golden_rule_text, read_entity_records
from vuln2rule.embedding import FORMAT_MARKER as EMBEDDING_MARKER
from vuln2rule.embedding import EmbeddingConfig, load_embedding, save_embedding, train_embedding
from vuln2rule.errors import (
    ConfigError,
    FormatVersionMismatch,
    InvalidLabel,
    MalformedRecord,
    UnreadableFile,
    UnwritableFile,
    Vuln2RuleError,
)
from vuln2rule.pipeline import PipelineConfig
from vuln2rule.rules.datalog import parse_rule_file
from vuln2rule.rules.schema import load_lexicon, load_mapping
from vuln2rule.rules.wiring import (
    estimate_wiring_matrix,
    load_wiring,
    save_wiring,
    wiring_from_csv,
)
from vuln2rule.tagger import (
    MODEL_MARKER,
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
        entity_type="MEANS", weights=np.linspace(-1, 1, 9 * 2 * n).reshape(n, 18),
        biases=np.linspace(0, 1, n), classes=classes, l2=0.01, iterations=3, block_dim=2,
    )


def _read_rules(path):
    return parse_rule_file(read_text(path))


_NVD_JSON = {
    "CVE_Items": [
        {"cve": {"CVE_data_meta": {"ID": f"CVE-2020-000{i}"},
                 "description": {"description_data": [{"lang": "en", "value": text}]}}}
        for i, text in enumerate(["A buffer overflow.", "SQL injection in x."], 1)
    ]
}

#: readers of text files that are not artifacts, with one small valid file each
_TEXT_READERS = {
    "wiring_csv": ("wiring.csv", load_wiring, None),
    "lexicon": (
        "lexicon.txt", load_lexicon,
        "predicate execCode(Host:host, Perm:perm)\npredicate vulExists(Host:host, V:vulnid!)\n",
    ),
    "mapping": (
        "mapping.txt", load_mapping,
        "impact execCode head=execCode consequence=privEscalation\n"
        "vector remote range=remoteExploit support=netAccess,attackerLocated\n"
        "means sqlInjection body=vulExists\n",
    ),
    "nvd_tsv": (
        "feed.tsv", load_nvd_feed,
        "CVE-2020-0001\tA buffer overflow.\nCVE-2020-0002\tSQL injection in x.\n",
    ),
    "nvd_json": ("feed.json", load_nvd_feed, json.dumps(_NVD_JSON)),
    "labeled_tsv": (
        "labeled.tsv", load_labeled_dataset,
        "Buffer\tMEANS\noverflow\tMEANS\nin\tO\nreader\tPLATFORM\n\nremote\tVECTOR\n",
    ),
    "rule_file": (
        "rules.P", _read_rules,
        golden_rule_text() + "a(X) :- b(X, 'it\\'s', f(Y, 2.5), _), 'q'(X). % done\n",
    ),
    "config": (
        "pipeline.cfg", PipelineConfig.from_file,
        "# comment\nmodel_dir = models\nseed = 3\nthreshold = 0.4\ntop_ks = 1,2\n"
        "k_clusters.MEANS = 5\nlexicon_path = {directory}/lexicon.txt\n",
    ),
}


def _saved_artifacts(directory) -> dict:
    """name -> (path, loader) for one small file of each kind the package reads."""
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
    for name, (file_name, load, text) in _TEXT_READERS.items():
        saved[name] = (directory / file_name, load)
        if text is not None:
            saved[name][0].write_text(text.replace("{directory}", str(directory)), "utf-8")
    save_wiring(
        estimate_wiring_matrix(parse_rule_file("a(X) :- b(X, Y), c(Y).\nd(Z) :- c(Z), e(Z).\n")),
        saved["wiring_csv"][0],
    )
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
            {"cve_id": "CVE-1", "entities": {"MEANS": [""]}},
            {"cve_id": "CVE-1", "entities": {"PLATFORM": ["reader", " \t "]}},
        ],
    )
    def test_malformed_record_rejected(self, data):
        with pytest.raises(MalformedRecord):
            EntitySet.from_dict(data)

    def test_value_without_a_word_names_record_and_tag(self, tmp_path):
        path = tmp_path / "entities.jsonl"
        path.write_text('{"cve_id": "CVE-1", "entities": {}}\n'
                        '{"cve_id": "CVE-2", "entities": {"IMPACT": [""]}}\n', "utf-8")
        with pytest.raises(MalformedRecord, match="CVE-2: IMPACT has a value with no word") as e:
            read_entity_records(path)
        assert str(path) in str(e.value) and e.value.line == 2

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


def _rewrite(path, old: bytes, new: bytes) -> None:
    data = path.read_bytes()
    assert old in data
    path.write_bytes(data.replace(old, new, 1))


class TestLoaderErrors:
    @pytest.mark.parametrize("name", ["embedding", "tagger"])
    def test_renamed_meta_key(self, tmp_path, name):
        path, load = _saved_artifacts(tmp_path)[name]
        _rewrite(path, b"\n# dim ", b"\n# dims ")
        with pytest.raises(MalformedRecord, match="'dim'") as excinfo:
            load(path)
        assert str(path) in str(excinfo.value)

    def test_non_integer_matrix_size(self, tmp_path):
        path, load = _saved_artifacts(tmp_path)["discretization"]
        _rewrite(path, b"matrix centroids 2 2", b"matrix centroids two 2")
        with pytest.raises(MalformedRecord, match=str(path)):
            load(path)

    def test_non_float_cell(self, tmp_path):
        # a block shorter than its header declares
        path, load = _saved_artifacts(tmp_path)["completion"]
        _rewrite(path, b"matrix biases 1 2\n", b"matrix biases 1 3\n")
        with pytest.raises(MalformedRecord):
            load(path)

    def test_missing_matrix(self, tmp_path):
        path, load = _saved_artifacts(tmp_path)["completion"]
        _rewrite(path, b"matrix biases", b"matrix bias")
        with pytest.raises(MalformedRecord, match="'biases'"):
            load(path)

    def test_config_rejection(self, tmp_path):
        path, load = _saved_artifacts(tmp_path)["embedding"]
        _rewrite(path, b"# variant CBOW", b"# variant GloVe")
        with pytest.raises(MalformedRecord, match="variant"):
            load(path)

    def test_vocabulary_size_mismatch(self, tmp_path):
        path, load = _saved_artifacts(tmp_path)["embedding"]
        _rewrite(path, b" code", b"")
        with pytest.raises(MalformedRecord, match="w_in"):
            load(path)

    def test_label_count_mismatch(self, tmp_path):
        path, load = _saved_artifacts(tmp_path)["discretization"]
        _rewrite(path, b"# labels remote,local", b"# labels remote,net,local")
        with pytest.raises(MalformedRecord, match="3 labels"):
            load(path)

    @pytest.mark.parametrize("name", ["embedding", "tagger", "discretization", "completion"])
    def test_non_utf8_and_missing_files(self, tmp_path, name):
        path, load = _saved_artifacts(tmp_path)[name]
        _rewrite(path, b"\n# ", b"\n# \xff\xfe")
        with pytest.raises(UnreadableFile, match=str(path)):
            load(path)
        with pytest.raises(UnreadableFile):
            load(tmp_path / "absent.txt")


class TestMatrixBlocks:
    def test_round_trip_is_bit_exact(self, tmp_path):
        tiny = np.finfo(float).smallest_subnormal
        payload_nan = np.array([0x7FF8_0000_0000_0123, 0xFFF0_0000_0000_0001], "<u8").view("<f8")
        matrices = {
            "special": np.array([
                [-0.0, 0.0, np.inf, -np.inf],
                [np.nan, -np.nan, *payload_nan],
                [tiny, -3 * tiny, np.finfo(float).tiny / 3, np.finfo(float).max],
            ]),
            "row": np.array([1 / 3, -2.5e-310]),
            "w_in": np.random.default_rng(0).normal(size=(10_001, 100)),
            "empty": np.zeros((0, 4)),
        }
        path = tmp_path / "model.bin"
        write_model(path, "# test-model 1", {"key": "value"}, matrices)
        meta, loaded = read_model(path, "# test-model 1", lambda meta, m: (meta, m))
        assert meta == {"key": "value"}
        assert list(loaded) == list(matrices)
        for name, original in matrices.items():
            original = np.atleast_2d(original)
            assert loaded[name].shape == original.shape
            assert np.array_equal(loaded[name].view("<u8"), original.view("<u8")), name
            assert loaded[name].flags.writeable
        assert path.stat().st_size < 8 * 10_001 * 100 + 1_000

    @pytest.mark.parametrize(
        "name, old_marker, load, marker",
        [
            ("embedding", "# vuln2rule-embedding 2", load_embedding, EMBEDDING_MARKER),
            ("tagger", "# vuln2rule-blstm 1", load_ner, MODEL_MARKER),
            ("discretization", "# vuln2rule-discretization 1", load_discretization, DISC_MARKER),
            ("completion", "# vuln2rule-completion 1", load_completion, COMPLETION_MARKER),
        ],
    )
    def test_text_format_names_expected_marker(self, tmp_path, name, old_marker, load, marker):
        path = tmp_path / f"{name}.txt"
        path.write_text(f"{old_marker}\n# dim 2\nmatrix w 1 2\n0.5 -0.25\n", "utf-8")
        with pytest.raises(FormatVersionMismatch, match=re.escape(repr(marker))):
            load(path)

    @pytest.mark.parametrize("header", [f"{10**12} 2", f"2 {10**12}", "-2 -2", "3 2"])
    def test_declared_size_beyond_the_file(self, tmp_path, header):
        path, load = _saved_artifacts(tmp_path)["discretization"]
        _rewrite(path, b"matrix centroids 2 2\n", f"matrix centroids {header}\n".encode())
        tracemalloc.start()
        try:
            with pytest.raises(MalformedRecord, match="centroids"):
                load(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("tail", [b"junk\n", b"\x00" * 8, b"\xff", b"\n"])
    def test_trailing_bytes_rejected(self, tmp_path, tail):
        path, load = _saved_artifacts(tmp_path)["completion"]
        path.write_bytes(path.read_bytes() + tail)
        with pytest.raises(MalformedRecord, match=str(path)):
            load(path)

    @pytest.mark.parametrize(
        "old, new",
        [(b"matrix fw_wh 2 8\n", b"matrix fw_wh 8 2\n"), (b"matrix bw_b 1 8\n", b"matrix bw_b 2 4\n")],
    )
    def test_tagger_parameter_shapes_checked(self, tmp_path, old, new):
        # the same number of floats under another shape still fills the block
        path, load = _saved_artifacts(tmp_path)["tagger"]
        _rewrite(path, old, new)
        with pytest.raises(MalformedRecord, match=old.split()[1].decode()):
            load(path)

    @pytest.mark.parametrize(
        "old, new",
        [(b"matrix weights 2 18\n", b"matrix weights 18 2\n"), (b"matrix biases 1 2\n", b"matrix biases 2 1\n")],
    )
    def test_completion_shapes_checked(self, tmp_path, old, new):
        path, load = _saved_artifacts(tmp_path)["completion"]
        _rewrite(path, old, new)
        with pytest.raises(MalformedRecord, match=f"{path}: weights .* for 2 classes at block_dim 2"):
            load(path)


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


class TestReaderErrors:
    @pytest.mark.parametrize(
        "text, match",
        [("slot,a/1#0\na/1#0,x\n", "'x'"), ("slot,a/1#0\na/1#0,?,0.5\n", "out of bounds"),
         ("slot,a/1\n", "invalid literal"),
         ("slot,a/1#0,b/1#0\na/1#0,?,inf\nb/1#0,-3.5,?\n", "outside"),
         ("slot,a/1#0,b/1#0\na/1#0,?,0.5\nb/1#0,0.25,?\n", "differ"),
         ("slot,a/1#0,b/1#0\na/1#0,?,0.5\nb/1#0,?,?\n", "differ")],
    )
    def test_bad_wiring_csv(self, tmp_path, text, match):
        with pytest.raises(MalformedRecord, match=match):
            wiring_from_csv(text)
        path = tmp_path / "wiring.csv"
        path.write_text(text, "utf-8")
        with pytest.raises(MalformedRecord, match=str(path)):
            load_wiring(path)

    @pytest.mark.parametrize("load", [load_wiring, load_lexicon, load_mapping, load_nvd_feed])
    def test_directory_is_unreadable(self, tmp_path, load):
        with pytest.raises(UnreadableFile, match=str(tmp_path)):
            load(tmp_path)

    @pytest.mark.parametrize("load", [load_nvd_feed, load_labeled_dataset])
    def test_latin1_bytes_are_unreadable(self, tmp_path, load):
        path = tmp_path / "latin1.tsv"
        path.write_bytes("CVE-2020-0001\tcaf\u00e9 overflow\n".encode("latin-1"))
        with pytest.raises(UnreadableFile):
            load(path)

    def test_wrongly_typed_feed_items_are_malformed(self, tmp_path):
        good, = _NVD_JSON["CVE_Items"][:1]
        bad_id = {"cve": {**good["cve"], "CVE_data_meta": {"ID": 5}}}
        text_entry = {"cve": {**good["cve"], "description": {"description_data": ["en"]}}}
        bad_value = {"cve": {**good["cve"], "description": {
            "description_data": [{"lang": "en", "value": 7}]}}}
        path = tmp_path / "feed.json"
        path.write_text(json.dumps({"CVE_Items": [bad_id, text_entry, bad_value, good]}), "utf-8")
        result = load_nvd_feed(path)
        assert [r.id for r in result] == ["CVE-2020-0001"]
        assert [m.split(":")[0] for m in result.malformed] == ["item 0", "item 1", "item 2"]
        path.write_text(json.dumps({"CVE_Items": [bad_id, text_entry, bad_value]}), "utf-8")
        with pytest.raises(MalformedRecord, match="all 3 records malformed"):
            load_nvd_feed(path)
        path.write_text(json.dumps({"CVE_Items": 5}), "utf-8")
        with pytest.raises(MalformedRecord, match="CVE_Items"):
            load_nvd_feed(path)

    def test_deeply_nested_json(self, tmp_path):
        deep = "[" * 100_000 + "]" * 100_000
        with pytest.raises(MalformedRecord):
            parse_json(deep)
        path = tmp_path / "feed.json"
        path.write_text(deep, "utf-8")
        with pytest.raises(MalformedRecord):
            load_nvd_feed(path)

    def test_nul_in_config_path(self, tmp_path):
        path = tmp_path / "pipeline.cfg"
        path.write_text("model_dir = mod\0els\n", "utf-8")
        with pytest.raises(ConfigError, match="NUL"):
            PipelineConfig.from_file(path)


class TestWriteErrors:
    def test_missing_directory(self, tmp_path, artifacts):
        target = tmp_path / "absent" / "file.txt"
        with pytest.raises(UnwritableFile, match=str(target)):
            write_text(target, "x")
        with pytest.raises(UnwritableFile):
            save_wiring(load_wiring(artifacts["wiring_csv"][0]), target)
        with pytest.raises(UnwritableFile):
            save_discretization(_discretization({0: "remote", 1: "local"}), target)
        assert not target.parent.exists()


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
    "name",
    ["embedding", "tagger", "discretization", "completion", "entity_record", *_TEXT_READERS],
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
