"""Tokenization, vocabulary, frequency stats and feed/label loading."""

from __future__ import annotations

import json
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import build_vocabulary, reference_normalize
from vuln2rule.corpus import (
    STOPWORDS,
    RawVulnerability,
    load_labeled_dataset,
    load_nvd_feed,
    normalize,
    norms,
    tokenize,
    vocabulary_from_sentences,
    word_frequency_report,
)
from vuln2rule.errors import (
    EmptyCorpus,
    MalformedLine,
    MalformedRecord,
    UnknownTag,
    UnreadableFile,
)


def rec(cve_id: str, text: str) -> RawVulnerability:
    return RawVulnerability(cve_id, text)


@settings(max_examples=500, deadline=None)
@given(st.text())
@example("Port\u00b2")
@example("Vers\u0663ON")
@example("ÄBC")
@example("")
def test_normalize_matches_the_reference(word):
    """Unicode digits such as superscripts and Arabic-Indic digits keep a
    word verbatim, as in the per-character reference."""
    assert normalize(word) == reference_normalize(word)


class TestTokenize:
    def test_empty_text(self):
        assert tokenize("") == []

    def test_plain_words_lowercased(self):
        assert norms("buffer overflow in Adobe Reader") == [
            "buffer", "overflow", "in", "adobe", "reader",
        ]

    def test_version_tokens_survive(self):
        assert norms("9.x before 9.3.3") == ["9.x", "before", "9.3.3"]

    def test_punctuation_dropped_from_norm_stream(self):
        assert norms("overflows, crashes; and (DoS).") == [
            "overflows", "crashes", "and", "dos",
        ]

    def test_spans_index_into_original_text(self):
        # the surfaces are the text's words in order, with no word
        # character between or around them
        text = "Multiple buffer overflows in Adobe Reader."
        end = 0
        for token in tokenize(text):
            start = text.index(token.surface, end)
            assert not re.search(r"\w", text[end:start])
            end = start + len(token.surface)
        assert not re.search(r"\w", text[end:])
        assert [t.surface for t in tokenize(text)] == text.rstrip(".").split()

    def test_digit_tokens_preserved_verbatim(self):
        assert norms("CVE-2010-2212 on port 23") == [
            "CVE-2010-2212", "on", "port", "23",
        ]

    def test_idempotent_on_norm_stream(self):
        samples = [
            "Multiple buffer overflows in Adobe Reader 9.x before 9.3.3",
            "cross-site scripting (XSS) via a crafted URL!",
            "SQL injection on port 8080, CVE-2021-44228",
        ]
        for text in samples:
            once = norms(text)
            assert norms(" ".join(once)) == once


class TestVocabulary:
    def test_hand_counted_tie_break(self):
        # a:2, b:2, c:1 -> top-2 is [a, b] (tie broken lexicographically)
        corpus = [rec("CVE-2020-0001", "a b a"), rec("CVE-2020-0002", "b c")]
        vocab = build_vocabulary(corpus, max_size=2)
        assert list(vocab.words) == ["<oov>", "a", "b"]
        assert vocab.coverage == pytest.approx(4 / 5)

    def test_single_word(self):
        vocab = build_vocabulary([rec("CVE-2020-0003", "a")], max_size=10)
        assert list(vocab.words) == ["<oov>", "a"]
        assert vocab.coverage == 1.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            build_vocabulary([], max_size=10)

    def test_literal_oov_word_is_not_ranked(self):
        """It already has id 0; ranking it too would repeat it in the words."""
        vocab = vocabulary_from_sentences([["<oov>", "x", "<oov>"]], 10)
        assert vocab.words == ("<oov>", "x")
        assert vocab.index_of == {"<oov>": 0, "x": 1}
        assert vocab.coverage == pytest.approx(1 / 3)

    def test_ids_dense_and_inverse(self):
        corpus = [rec("CVE-2020-0004", "x y z z y x q")]
        vocab = build_vocabulary(corpus, max_size=3)
        for i, word in enumerate(vocab.words):
            assert vocab.index_of[word] == i
        assert vocab.id_for("never-seen") == vocab.oov_id == 0

    def test_size_cap_includes_oov(self):
        corpus = [rec("CVE-2020-0005", "a b c d e f g")]
        vocab = build_vocabulary(corpus, max_size=4)
        assert len(vocab) == 5

    def test_coverage_matches_brute_force_recount(self):
        corpus = [
            rec("CVE-2020-0006", "alpha beta gamma alpha delta"),
            rec("CVE-2020-0007", "beta beta epsilon. gamma!"),
        ]
        vocab = build_vocabulary(corpus, max_size=3)
        counts = Counter()
        for r in corpus:
            counts.update(norms(r.description))
        kept = set(vocab.words) - {"<oov>"}
        covered = sum(c for w, c in counts.items() if w in kept)
        assert vocab.coverage == covered / sum(counts.values())


class TestFrequencyReport:
    def test_hand_count(self):
        report = word_frequency_report([rec("CVE-2020-0008", "x x y")], top_k=5)
        assert report == [("x", 2), ("y", 1)]

    def test_all_stopwords_filtered(self):
        report = word_frequency_report([rec("CVE-2020-0009", "the the a")], top_k=5)
        assert report == []

    def test_stopword_list_spares_domain_words(self):
        for word in ("via", "allows", "remote", "attackers", "vulnerability",
                     "arbitrary", "execute", "service", "code", "cause"):
            assert word not in STOPWORDS

    def test_permutation_invariant(self):
        records = [
            rec("CVE-2020-0010", "alpha beta beta"),
            rec("CVE-2020-0011", "gamma alpha"),
            rec("CVE-2020-0012", "beta gamma delta"),
        ]
        forward = word_frequency_report(records, top_k=10)
        backward = word_frequency_report(list(reversed(records)), top_k=10)
        assert forward == backward

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            word_frequency_report([], top_k=3)


class TestLoadNvdFeed:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "feed.tsv"
        path.write_text("", "utf-8")
        result = load_nvd_feed(path)
        assert list(result.records) == []
        assert result.skipped_empty == 0

    def test_tsv_record(self, tmp_path):
        path = tmp_path / "feed.tsv"
        path.write_text(
            "CVE-2010-2212\tMultiple buffer overflows in Adobe Reader allow attackers to execute code.\n",
            "utf-8",
        )
        result = load_nvd_feed(path)
        assert len(result.records) == 1
        assert result.records[0].id == "CVE-2010-2212"

    def test_blank_description_skipped_and_counted(self, tmp_path):
        path = tmp_path / "feed.tsv"
        path.write_text("CVE-2020-0001\t   \nCVE-2020-0002\treal text\n", "utf-8")
        result = load_nvd_feed(path)
        assert len(result.records) == 1
        assert result.skipped_empty == 1

    def test_malformed_lines_reported_not_fatal(self, tmp_path):
        path = tmp_path / "feed.tsv"
        path.write_text("garbage line\nCVE-2020-0003\tok\n", "utf-8")
        result = load_nvd_feed(path)
        assert len(result.records) == 1
        assert len(result.malformed) == 1

    def test_all_malformed_is_fatal(self, tmp_path):
        path = tmp_path / "feed.tsv"
        path.write_text("garbage\nmore garbage\n", "utf-8")
        with pytest.raises(MalformedRecord):
            load_nvd_feed(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(UnreadableFile):
            load_nvd_feed(tmp_path / "absent.tsv")

    def test_json_feed(self, tmp_path):
        feed = {
            "CVE_Items": [
                {
                    "cve": {
                        "CVE_data_meta": {"ID": "CVE-2019-0001"},
                        "description": {
                            "description_data": [
                                {"lang": "es", "value": "texto"},
                                {"lang": "en", "value": "A buffer overflow."},
                            ]
                        },
                    }
                },
                {
                    "cve": {
                        "CVE_data_meta": {"ID": "CVE-2019-0002"},
                        "description": {"description_data": [{"lang": "en", "value": ""}]},
                    }
                },
            ]
        }
        path = tmp_path / "feed.json"
        path.write_text(json.dumps(feed), "utf-8")
        result = load_nvd_feed(path)
        assert [r.id for r in result.records] == ["CVE-2019-0001"]
        assert result.records[0].description == "A buffer overflow."
        assert result.skipped_empty == 1

    def test_record_invariants(self):
        with pytest.raises(MalformedRecord):
            RawVulnerability("NOT-A-CVE", "text")
        with pytest.raises(MalformedRecord):
            RawVulnerability("CVE-2020-0001", "   ")


class TestLoadLabeledDataset:
    def test_two_token_sentence(self, tmp_path):
        path = tmp_path / "labeled.tsv"
        path.write_text("buffer\tMEANS\noverflow\tMEANS\n\n", "utf-8")
        sentences = load_labeled_dataset(path)
        assert len(sentences) == 1
        assert list(sentences[0].tags) == ["MEANS", "MEANS"]
        assert sentences[0].norms() == ["buffer", "overflow"]

    def test_unknown_tag_rejected(self, tmp_path):
        path = tmp_path / "labeled.tsv"
        path.write_text("buffer\tFOO\n", "utf-8")
        with pytest.raises(UnknownTag) as err:
            load_labeled_dataset(path)
        assert err.value.tag == "FOO"
        assert err.value.line == 1

    def test_blank_file(self, tmp_path):
        path = tmp_path / "labeled.tsv"
        path.write_text("", "utf-8")
        assert load_labeled_dataset(path) == []

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "labeled.tsv"
        path.write_text("token-without-tag\n", "utf-8")
        with pytest.raises(MalformedLine):
            load_labeled_dataset(path)

    def test_multiple_sentences(self, tmp_path):
        path = tmp_path / "labeled.tsv"
        path.write_text("a\tO\n\nb\tO\nc\tPLATFORM\n", "utf-8")
        sentences = load_labeled_dataset(path)
        assert [len(s.tokens) for s in sentences] == [1, 2]
