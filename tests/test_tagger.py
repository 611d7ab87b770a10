"""BLSTM tagger: BPTT gradients, training behavior, entity grouping and
F-score evaluation."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import make_embedding
from vuln2rule.corpus import LabeledSentence, Token, tokenize
from vuln2rule.errors import (
    DimensionMismatch,
    EmptyDataset,
    EmptySentence,
    LengthMismatch,
)
from vuln2rule.tagger import (
    ALL_TAGS,
    LOSS_WEIGHTS,
    BlstmConfig,
    BlstmModel,
    _length_buckets,
    _sigmoid,
    evaluate_f1,
    extract_entities,
    extract_spans,
    load_ner,
    loss_and_grads,
    save_ner,
    tag,
    tag_batch,
    tag_texts,
    train_ner,
)


def toy_params(rng, dim, hidden, classes):
    return {
        "fw_wx": rng.normal(scale=0.4, size=(dim, 4 * hidden)),
        "fw_wh": rng.normal(scale=0.4, size=(hidden, 4 * hidden)),
        "fw_b": rng.normal(scale=0.2, size=4 * hidden),
        "bw_wx": rng.normal(scale=0.4, size=(dim, 4 * hidden)),
        "bw_wh": rng.normal(scale=0.4, size=(hidden, 4 * hidden)),
        "bw_b": rng.normal(scale=0.2, size=4 * hidden),
        "dense_w": rng.normal(scale=0.4, size=(2 * hidden, classes)),
        "dense_b": rng.normal(scale=0.2, size=classes),
    }


def tokens_of(text: str) -> list[Token]:
    return tokenize(text)


def sentence_from(text: str, tags: list[str]) -> LabeledSentence:
    return LabeledSentence(tuple(tokenize(text)), tuple(tags))


class TestBpttGradients:
    """All parameter gradients vs central finite differences on a toy model
    (dim = hidden = 3, batch of ragged lengths up to 4, 3 classes)."""

    def test_all_parameters_match_finite_differences(self):
        rng = np.random.default_rng(21)
        dim = hidden = 3
        classes = 3
        params = toy_params(rng, dim, hidden, classes)
        x = rng.normal(size=(2, 4, dim))
        tag_ids = rng.integers(0, classes, size=(2, 4))
        lengths = np.array([4, 2])
        weights = np.array([5.0, 1.0, 2.0])

        _, grads, _ = loss_and_grads(params, x, tag_ids, lengths, weights)

        eps = 1e-6
        for name, matrix in params.items():
            fd = np.zeros_like(matrix)
            it = np.nditer(matrix, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = matrix[idx]
                matrix[idx] = orig + eps
                up, _, _ = loss_and_grads(params, x, tag_ids, lengths, weights)
                matrix[idx] = orig - eps
                down, _, _ = loss_and_grads(params, x, tag_ids, lengths, weights)
                matrix[idx] = orig
                fd[idx] = (up - down) / (2 * eps)
                it.iternext()
            denom = max(np.abs(grads[name]).max(), np.abs(fd).max(), 1e-12)
            assert np.abs(grads[name] - fd).max() / denom < 1e-4, name


class TestLossContract:
    def test_weight_scaling_is_linear(self):
        rng = np.random.default_rng(22)
        params = toy_params(rng, 3, 3, 3)
        x = rng.normal(size=(1, 3, 3))
        tag_ids = np.array([[0, 1, 2]])
        lengths = np.array([3])
        base = np.array([1.0, 1.0, 1.0])
        doubled = np.array([2.0, 1.0, 1.0])
        loss_base, _, _ = loss_and_grads(params, x, tag_ids, lengths, base)
        loss_doubled, _, _ = loss_and_grads(params, x, tag_ids, lengths, doubled)
        only_class0 = np.array([1.0, 0.0, 0.0])
        class0_loss, _, _ = loss_and_grads(params, x, tag_ids, lengths, only_class0)
        assert loss_doubled == pytest.approx(loss_base + class0_loss, rel=1e-12)

    def test_padding_contributes_zero_loss(self):
        rng = np.random.default_rng(23)
        params = toy_params(rng, 3, 3, 3)
        x = rng.normal(size=(1, 2, 3))
        tag_ids = np.array([[0, 1]])
        short, _, _ = loss_and_grads(params, x, tag_ids, np.array([2]))
        padded_x = np.concatenate([x, np.zeros((1, 3, 3))], axis=1)
        padded_ids = np.concatenate([tag_ids, np.zeros((1, 3), dtype=int)], axis=1)
        padded, _, _ = loss_and_grads(params, padded_x, padded_ids, np.array([2]))
        assert padded == pytest.approx(short, abs=1e-12)

    def test_batch_loss_decomposes_per_sentence(self):
        rng = np.random.default_rng(24)
        params = toy_params(rng, 3, 3, 3)
        x = rng.normal(size=(3, 4, 3))
        tag_ids = rng.integers(0, 3, size=(3, 4))
        lengths = np.array([4, 3, 2])
        total, _, per_sentence = loss_and_grads(params, x, tag_ids, lengths)
        assert total == pytest.approx(per_sentence.sum(), abs=1e-9)
        singles = []
        for b in range(3):
            n = lengths[b]
            single, _, _ = loss_and_grads(
                params, x[b : b + 1, :n], tag_ids[b : b + 1, :n], np.array([n])
            )
            singles.append(single)
        assert total == pytest.approx(sum(singles), abs=1e-9)

    def test_loss_weights_shape(self):
        assert list(LOSS_WEIGHTS) == [10.0] * 10 + [1.0]
        assert ALL_TAGS[-1] == "O"
        assert len(ALL_TAGS) == 11


@pytest.fixture(scope="module")
def tiny_embedding():
    rng = np.random.default_rng(25)
    words = ["buffer", "overflow", "in", "adobe", "reader", "allows",
             "remote", "attackers", "code", "execution"]
    return make_embedding({w: rng.normal(size=6) for w in words})


class TestTraining:
    def test_overfits_single_sentence(self, tiny_embedding):
        text = "buffer overflow in adobe reader allows remote code execution"
        gold = ["MEANS", "MEANS", "O", "PLATFORM", "PLATFORM", "O",
                "VECTOR", "IMPACT", "IMPACT"]
        data = [sentence_from(text, gold)]
        config = BlstmConfig(max_len=20, dim=6, hidden=6, epochs=500,
                             batch_size=8, learning_rate=0.05, seed=1)
        model = train_ner(data, tiny_embedding, config)
        predicted = [t for t, _ in tag(model, tiny_embedding, list(data[0].tokens))]
        assert predicted == gold

    def test_deterministic_given_seed(self, tiny_embedding):
        data = [sentence_from("buffer overflow in reader", ["MEANS", "MEANS", "O", "PLATFORM"])]
        config = BlstmConfig(max_len=10, dim=6, hidden=4, epochs=3,
                             batch_size=2, learning_rate=0.01, seed=5)
        first = train_ner(data, tiny_embedding, config)
        second = train_ner(data, tiny_embedding, config)
        for name in first.params:
            assert np.array_equal(first.params[name], second.params[name])

    def test_default_config_echoes_published_values(self):
        config = BlstmConfig()
        assert config.epochs == 100
        assert config.batch_size == 32
        assert config.learning_rate == 0.01
        assert config.max_len == 150

    def test_empty_dataset_rejected(self, tiny_embedding):
        with pytest.raises(EmptyDataset):
            train_ner([], tiny_embedding, BlstmConfig(dim=6, hidden=4))

    def test_dim_mismatch_rejected(self, tiny_embedding):
        data = [sentence_from("buffer", ["MEANS"])]
        with pytest.raises(DimensionMismatch):
            train_ner(data, tiny_embedding, BlstmConfig(dim=7, hidden=4))

    def test_gradient_clipping_flag(self, tiny_embedding):
        data = [sentence_from("buffer overflow in reader", ["MEANS", "MEANS", "O", "PLATFORM"])]
        config = BlstmConfig(max_len=10, dim=6, hidden=4, epochs=3, batch_size=2,
                             learning_rate=0.5, clip_norm=5.0, seed=5)
        first = train_ner(data, tiny_embedding, config)
        second = train_ner(data, tiny_embedding, config)
        for name in first.params:
            assert np.isfinite(first.params[name]).all()
            assert np.array_equal(first.params[name], second.params[name])

    def test_long_sentences_split_at_max_len(self, tiny_embedding):
        tokens = tokenize(" ".join(["buffer"] * 25))
        data = [LabeledSentence(tuple(tokens), tuple(["MEANS"] * 25))]
        config = BlstmConfig(max_len=10, dim=6, hidden=4, epochs=1,
                             batch_size=4, learning_rate=0.01, seed=2)
        model = train_ner(data, tiny_embedding, config)
        result = tag(model, tiny_embedding, tokens)
        assert len(result) == 25


class TestTagging:
    def test_probabilities_sum_to_one(self, tiny_embedding):
        data = [sentence_from("buffer overflow", ["MEANS", "MEANS"])]
        config = BlstmConfig(max_len=10, dim=6, hidden=4, epochs=1,
                             batch_size=2, learning_rate=0.01, seed=3)
        model = train_ner(data, tiny_embedding, config)
        for _, probs in tag(model, tiny_embedding, tokenize("adobe reader allows code")):
            assert probs.shape == (11,)
            assert probs.sum() == pytest.approx(1.0, abs=1e-6)

    def test_empty_sentence_rejected(self, tiny_embedding):
        data = [sentence_from("buffer", ["MEANS"])]
        config = BlstmConfig(max_len=10, dim=6, hidden=4, epochs=1,
                             batch_size=2, learning_rate=0.01, seed=3)
        model = train_ner(data, tiny_embedding, config)
        with pytest.raises(EmptySentence):
            tag(model, tiny_embedding, [])

    def test_reversal_changes_outputs(self, tiny_embedding):
        # both directions see different contexts on a non-palindromic input
        data = [sentence_from("buffer overflow", ["MEANS", "MEANS"])]
        config = BlstmConfig(max_len=10, dim=6, hidden=4, epochs=1,
                             batch_size=2, learning_rate=0.01, seed=4)
        model = train_ner(data, tiny_embedding, config)
        forward_tokens = tokenize("buffer overflow in adobe reader")
        backward_tokens = list(reversed(forward_tokens))
        forward_first = tag(model, tiny_embedding, forward_tokens)[0][1]
        backward_last = tag(model, tiny_embedding, backward_tokens)[-1][1]
        assert not np.allclose(forward_first, backward_last)


class TestSigmoid:
    @staticmethod
    def mask_split(x):
        # reference: each sign's branch evaluated on its own elements
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    def test_matches_mask_split_form_bit_for_bit(self):
        rng = np.random.default_rng(26)
        specials = [0.0, -0.0, 709.0, -709.0, 710.0, -710.0,
                    1e308, -1e308, np.inf, -np.inf, np.nan, -np.nan]
        x = np.concatenate([rng.normal(scale=20.0, size=5000), specials])
        got, want = _sigmoid(x), self.mask_split(x)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_matches_on_strided_gate_slices(self):
        rng = np.random.default_rng(27)
        z = rng.normal(scale=8.0, size=(7, 44))
        for cols in (slice(0, 11), slice(11, 22), slice(33, 44)):
            got = _sigmoid(z[:, cols])
            want = self.mask_split(np.ascontiguousarray(z[:, cols]))
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestTagBatch:
    """tag_batch against per-sentence tag on a model with max_len 5, so
    that long sentences span several chunks."""

    TEXTS = [
        "buffer overflow in adobe reader allows remote attackers to execute code",
        "overflow",
        "adobe reader allows code execution",
        "remote attackers",
        "buffer overflow in reader",
        "in adobe reader buffer overflow allows remote attackers code execution via crafted pdf",
        "code",
    ]

    @pytest.fixture(scope="class")
    def model(self):
        rng = np.random.default_rng(28)
        return BlstmModel(toy_params(rng, 6, 4, len(ALL_TAGS)),
                          BlstmConfig(max_len=5, dim=6, hidden=4))

    @staticmethod
    def assert_same(got, want):
        assert [t for t, _ in got] == [t for t, _ in want]
        assert len(got) == len(want)
        for (_, p_got), (_, p_want) in zip(got, want):
            assert np.abs(p_got - p_want).max() <= 1e-12

    def test_matches_per_sentence_tag(self, model, tiny_embedding):
        sentences = [tokenize(t) for t in self.TEXTS]
        assert max(len(s) for s in sentences) > 2 * model.config.max_len
        for sentence, got in zip(sentences, tag_batch(model, tiny_embedding, sentences)):
            self.assert_same(got, tag(model, tiny_embedding, sentence))

    def test_input_order_does_not_matter(self, model, tiny_embedding):
        sentences = [tokenize(t) for t in self.TEXTS]
        first = tag_batch(model, tiny_embedding, sentences)
        order = np.random.default_rng(29).permutation(len(sentences))
        shuffled = tag_batch(model, tiny_embedding, [sentences[i] for i in order])
        for pos, i in enumerate(order):
            self.assert_same(shuffled[pos], first[i])

    def test_many_chunks_match_per_sentence_tag(self, model, tiny_embedding):
        rng = np.random.default_rng(30)
        words = ["buffer", "overflow", "in", "adobe", "reader", "code", "unknownword"]
        sentences = [
            tokenize(" ".join(rng.choice(words, size=int(n))))
            for n in rng.integers(1, 13, size=90)
        ]
        for sentence, got in zip(sentences, tag_batch(model, tiny_embedding, sentences)):
            self.assert_same(got, tag(model, tiny_embedding, sentence))

    def test_empty_sentence_gets_no_tags(self, model, tiny_embedding):
        tokens = tokenize("buffer overflow")
        empty, tagged = tag_batch(model, tiny_embedding, [[], tokens])
        assert empty == []
        self.assert_same(tagged, tag(model, tiny_embedding, tokens))

    def test_dim_mismatch_rejected(self, tiny_embedding):
        rng = np.random.default_rng(31)
        model = BlstmModel(toy_params(rng, 7, 4, len(ALL_TAGS)),
                           BlstmConfig(max_len=5, dim=7, hidden=4))
        with pytest.raises(DimensionMismatch):
            tag_batch(model, tiny_embedding, [tokenize("buffer")])

    def test_tag_texts_without_words(self, model, tiny_embedding):
        blank, text = tag_texts(
            model, tiny_embedding,
            [("CVE-2020-0003", "!!! ---"), ("CVE-2020-0004", "buffer overflow")],
        )
        assert blank.tags == []
        assert not any(blank.entities.entities.values())
        tagged = tag(model, tiny_embedding, tokenize("buffer overflow"))
        assert text.tags == [t for t, _ in tagged]
        assert text.entities.cve_id == "CVE-2020-0004"


class TestLengthBuckets:
    @staticmethod
    def shapes(lengths):
        chunks = [(i, 0, ["w"] * n) for i, n in enumerate(lengths)]
        return [[len(c[2]) for c in batch] for batch in _length_buckets(chunks)]

    def test_cut_before_a_chunk_over_one_and_a_half_times_the_shortest(self):
        assert self.shapes([4, 2, 3, 6, 10]) == [[2, 3], [4, 6], [10]]

    def test_cut_after_64_chunks(self):
        assert [len(b) for b in self.shapes([3] * 130)] == [64, 64, 2]

    def test_ties_keep_input_order(self):
        chunks = [(i, 0, ["w"] * n) for i, n in enumerate([2, 1, 2, 1])]
        assert [c[0] for b in _length_buckets(chunks) for c in b] == [1, 3, 0, 2]


class TestEntityExtraction:
    def test_golden_fixture_entities(self):
        from vuln2rule.demo import golden_fixture

        fixture = golden_fixture()
        tokens = tokenize(fixture["description"])
        tagged = list(zip(tokens, fixture["tags"]))
        entities = extract_entities(tagged, fixture["cve_id"])
        assert entities.values_for("MEANS") == ["buffer overflow"]
        assert entities.values_for("PLATFORM") == ["adobe reader"]
        assert entities.values_for("OS") == ["windows", "mac os x"]
        assert entities.values_for("IMPACT") == [
            "execute arbitrary code", "cause denial of service",
        ]
        assert entities.values_for("TECHNIQUE") == [
            "pdf file containing flash content with a crafted tag",
        ]
        assert entities.values_for("VERSION") == ["9.x before 9.3.3", "8.x before 8.2.3"]
        assert entities.values_for("VECTOR") == []

    def test_all_o_yields_empty_lists(self):
        tokens = tokenize("nothing to see here")
        entities = extract_entities([(t, "O") for t in tokens], "CVE-2020-0001")
        assert all(not v for v in entities.entities.values())

    def test_interrupted_runs_stay_separate(self):
        tokens = tokenize("buffer unrelated overflow")
        tagged = list(zip(tokens, ["MEANS", "O", "MEANS"]))
        entities = extract_entities(tagged, "CVE-2020-0002")
        assert entities.values_for("MEANS") == ["buffer", "overflow"]

    def test_span_ranges(self):
        tokens = tokenize("buffer overflow here")
        spans = extract_spans(list(zip(tokens, ["MEANS", "MEANS", "O"])))
        assert len(spans) == 1
        assert spans[0].token_range == (0, 2)


class TestEvaluateF1:
    def test_perfect_predictions(self):
        golds = [["MEANS", "O", "PLATFORM"], ["IMPACT"]]
        report = evaluate_f1(golds, golds)
        assert report.micro.f1 == 1.0
        assert report.macro_f1 == 1.0
        for cls in ("MEANS", "PLATFORM", "IMPACT"):
            assert report.per_class[cls].f1 == 1.0

    def test_hand_confusion_gives_half(self):
        # MEANS: tp=1 (pos 0), fn=1 (pos 1 predicted O), fp=1 (pos 2)
        gold = [["MEANS", "MEANS", "O"]]
        pred = [["MEANS", "O", "MEANS"]]
        report = evaluate_f1(pred, gold)
        assert report.per_class["MEANS"].f1 == pytest.approx(0.5)

    def test_zero_support_excluded_from_macro(self):
        gold = [["MEANS", "O"]]
        pred = [["MEANS", "O"]]
        report = evaluate_f1(pred, gold)
        assert report.macro_f1 == 1.0
        assert report.per_class["PORT"].support == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(LengthMismatch):
            evaluate_f1([["O"]], [["O", "O"]])
        with pytest.raises(LengthMismatch):
            evaluate_f1([["O"]], [])

    def test_micro_counts_cross_entity_confusion(self):
        gold = [["MEANS", "IMPACT"]]
        pred = [["IMPACT", "IMPACT"]]
        report = evaluate_f1(pred, gold)
        # tp=1 (IMPACT), fp=1 (MEANS predicted as IMPACT), fn=1 (missed MEANS)
        assert report.micro.precision == pytest.approx(0.5)
        assert report.micro.recall == pytest.approx(0.5)


class TestPersistence:
    def test_round_trip(self, tiny_embedding, tmp_path):
        data = [sentence_from("buffer overflow", ["MEANS", "MEANS"])]
        config = BlstmConfig(max_len=10, dim=6, hidden=4, epochs=2,
                             batch_size=2, learning_rate=0.01, seed=6)
        model = train_ner(data, tiny_embedding, config)
        path = tmp_path / "ner.txt"
        save_ner(model, path)
        loaded = load_ner(path)
        assert loaded.config == model.config
        for name in model.params:
            assert np.array_equal(loaded.params[name], model.params[name])
        tokens = tokenize("adobe reader")
        original = tag(model, tiny_embedding, tokens)
        restored = tag(loaded, tiny_embedding, tokens)
        assert [t for t, _ in original] == [t for t, _ in restored]
