"""BLSTM tagger: BPTT gradients, training behavior, entity grouping and
F-score evaluation."""

from __future__ import annotations

import tracemalloc
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_embedding
from helpers import (
    blstm_forward,
    blstm_loss_and_grads,
    lstm_forward,
    reference_extract_spans,
    reverse_within_lengths,
)
from vuln2rule import tagger as tagger_module
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
    EntitySet,
    _chunks,
    _embed_norms,
    _from_head,
    _head_rows,
    _length_buckets,
    _live_runs,
    _packed_index,
    _pad,
    _sigmoid,
    _state_starts,
    _to_head,
    evaluate_f1,
    extract_entities,
    forward,
    init_params,
    load_ner,
    loss_and_grads,
    param_shapes,
    save_ner,
    split_directions,
    stack_directions,
    tag,
    tag_batch,
    tag_texts,
    train_ner,
)


def toy_named(rng, dim, hidden, classes):
    """Random parameters under the saved per-direction names."""
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


def toy_params(rng, dim, hidden, classes):
    return stack_directions(toy_named(rng, dim, hidden, classes))


def tokens_of(text: str) -> list[Token]:
    return tokenize(text)


def sentence_from(text: str, tags: list[str]) -> LabeledSentence:
    return LabeledSentence(tuple(tokenize(text)), tuple(tags))


def sentence_probs(model, emb, tokens) -> np.ndarray:
    """The (tokens, classes) probabilities of one sentence tagged alone."""
    x, lengths = _pad([_embed_norms([t.norm for t in tokens], emb)])
    log_probs, _ = forward(model.params, x, lengths, keep_cache=False)
    return np.exp(log_probs[0])


class TestBpttGradients:
    """All parameter gradients vs central finite differences on a toy model
    (dim = hidden = 3, batches of ragged lengths up to 4, 3 classes).  Beside
    the ragged batch, the cases where gathering the previous states in
    packed order can go wrong: a row that is its own floor, a floor row past
    its end, and a batch with no padded row."""

    @pytest.mark.parametrize(
        "lengths, steps",
        [([4, 2], 4), ([3], 4), ([4, 1], 4), ([3, 3, 3], 3)],
        ids=["ragged", "one-row batch", "floor row past its end", "no padded row"],
    )
    def test_all_parameters_match_finite_differences(self, lengths, steps):
        rng = np.random.default_rng(21)
        dim = hidden = 3
        classes = 3
        params = toy_params(rng, dim, hidden, classes)
        x = rng.normal(size=(len(lengths), steps, dim))
        tag_ids = rng.integers(0, classes, size=(len(lengths), steps))
        lengths = np.array(lengths)
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

    def test_dataset_of_empty_sentences_rejected(self, tiny_embedding):
        with pytest.raises(EmptyDataset):
            train_ner([LabeledSentence((), ())] * 2, tiny_embedding, BlstmConfig(dim=6, hidden=4))

    def test_dim_mismatch_rejected(self, tiny_embedding):
        data = [sentence_from("buffer", ["MEANS"])]
        with pytest.raises(DimensionMismatch):
            train_ner(data, tiny_embedding, BlstmConfig(dim=7, hidden=4))

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
        tokens = tokenize("adobe reader allows code")
        probs = sentence_probs(model, tiny_embedding, tokens)
        assert probs.shape == (4, 11)
        assert probs.sum(axis=1) == pytest.approx(np.ones(4), abs=1e-6)
        # tag gives each token the most probable class and that probability
        assert tag(model, tiny_embedding, tokens) == [
            (ALL_TAGS[k], p[k]) for p, k in zip(probs, probs.argmax(axis=1))
        ]

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
        forward_first = sentence_probs(model, tiny_embedding, forward_tokens)[0]
        backward_last = sentence_probs(model, tiny_embedding, backward_tokens)[-1]
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


def ragged_corpus(emb) -> list[LabeledSentence]:
    """12 sentences of 1 to 24 tokens with random tags, an OOV word among
    them; several are longer than three times a max_len of 7."""
    rng = np.random.default_rng(40)
    words = list(emb.vocab.words[1:]) + ["unknownword"]
    data = []
    for n in rng.integers(1, 26, size=12):
        tokens = tokenize(" ".join(rng.choice(words, size=int(n))))
        data.append(LabeledSentence(tuple(tokens), tuple(rng.choice(ALL_TAGS, size=int(n)))))
    return data


RAGGED_CONFIG = BlstmConfig(max_len=7, dim=6, hidden=4, epochs=3, batch_size=4,
                            learning_rate=0.1, seed=9)


def reference_init(config, rng):
    """The initial parameters under their saved names, drawn one matrix
    after the other in the saved order."""
    params = {
        name: np.zeros(shape) if name.endswith("_b") else rng.uniform(-0.1, 0.1, size=shape)
        for name, shape in param_shapes(config).items()
    }
    h = config.hidden
    params["fw_b"][h : 2 * h] = 1.0
    params["bw_b"][h : 2 * h] = 1.0
    return params


def reference_train_ner(data, emb, config):
    """The training loop with its own cut and pad code, as it was before
    training and tagging shared ``_chunks`` and ``_pad``, and with the
    per-direction BLSTM of ``helpers``; returns the parameters under their
    saved names."""
    prepared = []
    for s in data:
        norms, ids = s.norms(), [ALL_TAGS.index(t) for t in s.tags]
        for start in range(0, len(norms), config.max_len):
            prepared.append((norms[start : start + config.max_len],
                             ids[start : start + config.max_len]))
    embedded = [(_embed_norms(n, emb), np.asarray(ids)) for n, ids in prepared]
    rng = np.random.default_rng(config.seed)
    params = reference_init(config, rng)
    for _ in range(config.epochs):
        order = rng.permutation(len(embedded))
        for start in range(0, len(order), config.batch_size):
            batch = [embedded[i] for i in order[start : start + config.batch_size]]
            lengths = np.array([len(y) for _, y in batch])
            x = np.zeros((len(batch), int(lengths.max()), config.dim))
            tag_ids = np.zeros((len(batch), int(lengths.max())), dtype=np.intp)
            for b, (xb, yb) in enumerate(batch):
                x[b, : len(yb)] = xb
                tag_ids[b, : len(yb)] = yb
            _, grads, _ = blstm_loss_and_grads(params, x, tag_ids, lengths)
            scale = 1.0 / len(batch)
            for name in params:
                params[name] -= config.learning_rate * scale * grads[name]
    return params


def reference_tag_batch(model, emb, sentences):
    """Per sentence, the probabilities of the tagging loop with its own cut
    and pad code and the per-direction BLSTM of ``helpers``."""
    max_len = model.config.max_len
    chunks = [
        (i, start, [t.norm for t in sentence[start : start + max_len]])
        for i, sentence in enumerate(sentences)
        for start in range(0, len(sentence), max_len)
    ]
    probs = [np.empty((len(sentence), len(ALL_TAGS))) for sentence in sentences]
    for batch in _length_buckets(chunks):
        lengths = np.array([len(norms) for _, _, norms in batch])
        x = np.zeros((len(batch), lengths.max(), model.config.dim))
        for row, (_, _, norms) in enumerate(batch):
            x[row, : len(norms)] = _embed_norms(norms, emb)
        log_probs, _ = blstm_forward(split_directions(model.params), x, lengths)
        for row, (i, start, norms) in enumerate(batch):
            probs[i][start : start + len(norms)] = np.exp(log_probs[row, : len(norms)])
    return probs


def assert_tags_match_reference(tagged, probs):
    """Each token's tag and probability, bit for bit, against the argmax
    and the max of the reference's probability vectors."""
    for got, want in zip(tagged, probs, strict=True):
        assert [t for t, _ in got] == [ALL_TAGS[k] for k in want.argmax(axis=1)]
        assert bits(np.array([p for _, p in got], dtype=float)) == bits(want.max(axis=1))


def assert_buckets_match_reference(model, emb, sentences):
    """The log-probabilities of each of tagging's batches at its real
    positions, all 11 classes, bit for bit against the per-direction BLSTM."""
    chunks = _chunks([[t.norm for t in sentence] for sentence in sentences], model.config.max_len)
    for batch in _length_buckets(chunks):
        x, lengths = _pad([_embed_norms(norms, emb) for _, _, norms in batch])
        got, _ = forward(model.params, x, lengths, keep_cache=False)
        want, _ = blstm_forward(split_directions(model.params), x, lengths)
        real = np.arange(x.shape[1])[None, :] < lengths[:, None]
        assert bits(got[real]) == bits(want[real])


class TestBatchBuilding:
    """Training and tagging cut sentences with ``_chunks`` and pad them with
    ``_pad``; tagging gives the bits of the earlier hand-written loops, and
    training their weights within ``PACKED_REL_TOL``."""

    def test_chunks_cut_without_overlap(self):
        sentences = [list("abcdefghij"), [], list("xy")]
        assert _chunks(sentences, 4) == [
            (0, 0, list("abcd")), (0, 4, list("efgh")), (0, 8, list("ij")), (2, 0, list("xy")),
        ]

    def test_pad_zero_fills_to_the_longest(self):
        x, lengths = _pad([np.ones((2, 3)), np.full((4, 3), 2.0), np.ones((1, 3))])
        assert x.shape == (3, 4, 3) and lengths.tolist() == [2, 4, 1]
        assert x[0, 2:].sum() == 0 and x[2, 1:].sum() == 0 and (x[1] == 2.0).all()
        ids, _ = _pad([np.array([3, 1]), np.array([5])])
        assert ids.dtype == np.array([1]).dtype and ids.tolist() == [[3, 1], [5, 0]]

    def test_training_matches_the_reference_loop(self, tiny_embedding):
        data = ragged_corpus(tiny_embedding)
        model = train_ner(data, tiny_embedding, RAGGED_CONFIG)
        assert_close(
            split_directions(model.params), reference_train_ner(data, tiny_embedding, RAGGED_CONFIG)
        )

    def test_tagging_matches_the_reference_loop(self, tiny_embedding):
        data = ragged_corpus(tiny_embedding)
        model = train_ner(data, tiny_embedding, RAGGED_CONFIG)
        sentences = [list(s.tokens) for s in data] + [[]]
        got = tag_batch(model, tiny_embedding, sentences)
        assert_tags_match_reference(got, reference_tag_batch(model, tiny_embedding, sentences))
        assert_buckets_match_reference(model, tiny_embedding, sentences)

    def test_values_recorded_before_the_shared_builder(self, tiny_embedding):
        # recorded with the hand-written loops; sums are compared to 1e-9
        # because the last bits follow the machine's BLAS kernels
        data = ragged_corpus(tiny_embedding)
        assert [len(s.tokens) for s in data] == [15, 19, 1, 18, 11, 24, 1, 2, 12, 18, 2, 24]
        model = train_ner(data, tiny_embedding, RAGGED_CONFIG)
        named = split_directions(model.params)
        sums = {
            "bw_b": 4.079693760271394, "bw_wh": -0.5376840780925127,
            "bw_wx": 2.276780327568189, "dense_w": -0.14321567988878225,
            "fw_b": 4.286271564324435, "fw_wh": -0.23934292998905127,
            "fw_wx": 2.5646684353283344,
        }
        for name, total in sums.items():
            assert named[name].sum() == pytest.approx(total, rel=1e-9), name
        sentences = [list(s.tokens) for s in data]
        tagged = tag_batch(model, tiny_embedding, sentences)
        probs = reference_tag_batch(model, tiny_embedding, sentences)
        assert_tags_match_reference(tagged, probs)
        assert ["".join("0123456789a"[ALL_TAGS.index(t)] for t, _ in s) for s in tagged] == [
            "833333333333838", "0083333833333388883", "8", "833308883333333833",
            "33229938888", "338833388888838883883888", "8", "88", "833333333338",
            "838333333333338888", "88", "333333888888883333833888",
        ]
        mean_class = sum(float(p @ np.arange(11.0)) for s in probs for p in s)
        assert mean_class == pytest.approx(688.0062129735238, rel=1e-9)


def bits(a) -> bytes:
    a = np.asarray(a)
    return bytes(str((a.dtype, a.shape)), "ascii") + a.tobytes()


def assert_same_bits(got: dict, want: dict):
    assert sorted(got) == sorted(want)
    for name in want:
        assert bits(got[name]) == bits(want[name]), name


#: How far the packed loop's gradients and trained parameters may be from
#: the oracle's, relative to the largest magnitude of each matrix: each
#: step's ``dz @ wh^T`` over the live rows alone rounds otherwise than
#: over the whole batch, and the weight gradients sum over all steps in one
#: product rather than step by step (about 1e-12 after two demo-shape
#: epochs)
PACKED_REL_TOL = 1e-9


def assert_close(got: dict, want: dict, rel: float = PACKED_REL_TOL):
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name].shape == want[name].shape, name
        assert np.abs(got[name] - want[name]).max() <= rel * np.abs(want[name]).max(), name


@st.composite
def blstm_batches(draw, full_length=False):
    """Random per-direction parameters and a ragged batch: batch 1-9, steps
    1-12, dim and hidden 1-6, each length 1 to steps (or every length
    ``steps`` with ``full_length``)."""
    batch = draw(st.integers(1, 9))
    steps = draw(st.integers(1, 12))
    dim, hidden = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    if full_length:
        lengths = np.full(batch, steps)
    else:
        lengths = np.array(draw(st.lists(st.integers(1, steps), min_size=batch, max_size=batch)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    named = toy_named(rng, dim, hidden, len(ALL_TAGS))
    x = rng.normal(size=(batch, steps, dim))
    x[np.arange(steps)[None, :] >= lengths[:, None]] = 0.0
    tag_ids = rng.integers(0, len(ALL_TAGS), size=(batch, steps))
    return named, x, tag_ids, lengths


class TestStackedDirections:
    """The packed, stacked time loop against the per-direction BLSTM it
    replaced (``helpers``): log-probabilities, losses and tagging bit for
    bit at real positions, gradients and trained parameters within
    ``PACKED_REL_TOL``, also when no row is padded."""

    @settings(max_examples=150, deadline=None)
    @given(blstm_batches())
    def test_matches_the_per_direction_loops(self, case):
        named, x, tag_ids, lengths = case
        params = stack_directions(named)
        want_log_probs, _ = blstm_forward(named, x, lengths)
        real = np.arange(x.shape[1])[None, :] < lengths[:, None]
        for keep_cache in (False, True):
            log_probs, _ = forward(params, x, lengths, keep_cache=keep_cache)
            assert bits(log_probs[real]) == bits(want_log_probs[real])
            assert np.isfinite(log_probs).all()
        total, grads, per_sentence = loss_and_grads(params, x, tag_ids, lengths)
        want_total, want_grads, want_per_sentence = blstm_loss_and_grads(
            named, x, tag_ids, lengths
        )
        assert bits(total) == bits(want_total)
        assert bits(per_sentence) == bits(want_per_sentence)
        assert sorted(grads) == sorted(params)
        assert_close(split_directions(grads), want_grads)

    @settings(max_examples=60, deadline=None)
    @given(blstm_batches(full_length=True))
    def test_full_length_rows_match_bit_for_bit(self, case):
        # no row ends early, so every step runs the whole batch
        named, x, tag_ids, lengths = case
        params = stack_directions(named)
        want_log_probs, _ = blstm_forward(named, x, lengths)
        log_probs, _ = forward(params, x, lengths)
        assert bits(log_probs) == bits(want_log_probs)
        _, grads, _ = loss_and_grads(params, x, tag_ids, lengths)
        _, want_grads, _ = blstm_loss_and_grads(named, x, tag_ids, lengths)
        assert_close(split_directions(grads), want_grads)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_a_row_keeps_its_bits_in_any_batch(self, data):
        # a sentence among 1 to 8 other rows (empty ones included), at any
        # place and with any padding after the longest row, against the
        # same sentence twice in a batch of the same length (the head's
        # product over a row's positions may round otherwise at another
        # length); a skipped row never reaches a live one
        dim, hidden = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        n = data.draw(st.integers(0, 10))
        others = data.draw(st.lists(st.integers(0, 10), min_size=1, max_size=8))
        place = data.draw(st.integers(0, len(others)))
        steps = max(n, *others) + data.draw(st.integers(0, 3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        params = toy_params(rng, dim, hidden, len(ALL_TAGS))
        lengths = np.array(others[:place] + [n] + others[place:])
        x = rng.normal(size=(len(lengths), steps, dim))
        x[np.arange(steps)[None, :] >= lengths[:, None]] = 0.0
        pair = np.stack([x[place]] * 2)
        want, _ = forward(params, pair, np.array([n, n]), keep_cache=False)
        for keep_cache in (False, True):
            log_probs, _ = forward(params, x, lengths, keep_cache=keep_cache)
            assert bits(log_probs[place, :n]) == bits(want[0, :n])
            assert np.isfinite(log_probs).all()

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_packed_layout_holds_the_live_positions(self, data):
        # ragged lengths with empty rows, one-row batches and batches of
        # equal lengths among them
        steps = data.draw(st.integers(1, 12))
        batch = data.draw(st.integers(1, 9))
        if data.draw(st.booleans()):
            lengths = np.full(batch, data.draw(st.integers(0, steps)))
        else:
            lengths = np.array(
                data.draw(st.lists(st.integers(0, steps), min_size=batch, max_size=batch))
            )
        ordered = sorted(lengths.tolist(), reverse=True)
        runs = _live_runs(ordered, steps)
        t, j = _packed_index(runs, batch)
        live = [(s, r) for start, stop, n in runs for s in range(start, stop) for r in range(n)]
        # every live position once, time-major, real positions all among them
        assert list(zip(t.tolist(), j.tolist())) == sorted(live)
        assert len(set(live)) == len(live)
        assert {(s, r) for r, n in enumerate(ordered) for s in range(n)} <= set(live)
        # the states hold a zero block of the first step's rows, then one
        # block per step, each no longer than the one before
        starts = _state_starts(runs)
        zero = runs[0][2]
        assert starts[:2] == [0, zero] and starts[-1] == zero + len(t)
        for s in range(steps):
            block = slice(starts[s + 1] - zero, starts[s + 2] - zero)
            assert (t[block] == s).all()
            assert (j[block] == np.arange(block.stop - block.start)).all()
            assert starts[s + 2] - starts[s + 1] <= starts[s + 1] - starts[s]
        # the cache holds the inputs, their products, the states, the cells
        # and their tanh of those positions alone (the states and cells
        # after the zero block), and so do the state gradients
        dim, hidden = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        params = toy_params(np.random.default_rng(47), dim, hidden, len(ALL_TAGS))
        x = np.random.default_rng(48).normal(size=(batch, steps, dim))
        _, (xp, hs, gates, cs, tanh_cs, *_) = forward(params, x, lengths, keep_cache=True)
        positions = sum((stop - start) * n for start, stop, n in runs)
        assert xp.shape == (2, positions, dim)
        assert gates.shape == (2, positions, 4 * hidden)
        assert hs.shape == cs.shape == (2, zero + positions, hidden)
        assert tanh_cs.shape == (2, positions, hidden)
        backward = tagger_module._lstm_backward
        with patch.object(tagger_module, "_lstm_backward", wraps=backward) as spy:
            loss_and_grads(params, x, np.zeros((batch, steps), dtype=int), lengths)
        assert spy.call_args.args[0].shape == (2, positions, hidden)

    @settings(max_examples=150, deadline=None)
    @given(blstm_batches())
    def test_packed_states_match_the_per_direction_loops(self, case):
        # every live position, a floor row past its end included, against
        # the per-direction loop over the whole padded batch
        named, x, _, lengths = case
        params = stack_directions(named)
        log_probs, cache = forward(params, x, lengths)
        _, hs, _, cs, tanh_cs, _, (runs, (t, j), _) = cache
        rows = np.argsort(-lengths, kind="stable")[j]
        zero = runs[0][2]
        inputs = x, reverse_within_lengths(x, lengths)
        for d, name in enumerate(("fw", "bw")):
            weights = (named[f"{name}_{k}"] for k in ("wx", "wh", "b"))
            states, per_step = lstm_forward(inputs[d], *weights)
            # each step's cell as the loop forms it, and its tanh
            cells = np.stack([gf * c + gi * gg for _, _, c, gi, gf, gg, _, _ in per_step], axis=1)
            tanhs = np.stack([tanh_c for *_, tanh_c in per_step], axis=1)
            assert bits(hs[d, zero:]) == bits(states[rows, t])
            assert bits(cs[d, zero:]) == bits(cells[rows, t])
            assert bits(tanh_cs[d]) == bits(tanhs[rows, t])
            assert not hs[d, :zero].any() and not cs[d, :zero].any()
        # the head is the same with and without the cache, padded positions
        # included
        without, _ = forward(params, x, lengths, keep_cache=False)
        assert bits(without) == bits(log_probs)

    def test_training_batch_memory_follows_the_live_positions(self):
        # the paper's dim and hidden, one 150-token row and 31 rows of 20
        # tokens: 20 steps of 32 rows and 130 of the floor's 2, so the
        # batch has P = 900 live positions among B * T = 4,800
        d = h = 100
        batch, steps, live, classes = 32, 150, 20 * 32 + 130 * 2, len(ALL_TAGS)
        rng = np.random.default_rng(49)
        params = init_params(BlstmConfig(dim=d, hidden=h), rng)
        lengths = np.array([steps] + [20] * (batch - 1))
        x = rng.normal(size=(batch, steps, d))
        x[np.arange(steps)[None, :] >= lengths[:, None]] = 0.0
        tag_ids = rng.integers(0, classes, size=(batch, steps))
        # in floats: the cache's packed inputs (2 P d), gates (2 P 4h) and
        # tanh of the cells (2 P h), its states and cells with their zero
        # block (2 * 2 (P + B) h); beside them one padded head array at a
        # time, its input or its gradient ((B T + 1) 2h), the packed state
        # gradients (2 P h), and at most eight (B T classes) arrays
        kept = 2 * live * (d + 4 * h + h) + 2 * 2 * (live + batch) * h
        bound = 8 * (kept + (batch * steps + 1) * 2 * h + 2 * live * h
                     + 8 * batch * steps * classes)
        tracemalloc.start()
        try:
            loss_and_grads(params, x, tag_ids, lengths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound

    def test_layouts_convert_both_ways(self):
        named = toy_named(np.random.default_rng(41), 3, 2, len(ALL_TAGS))
        params = stack_directions(named)
        assert {k: v.shape for k, v in params.items()} == {
            "wx": (2, 3, 8), "wh": (2, 2, 8), "b": (2, 8), "dense_w": (4, 11), "dense_b": (11,),
        }
        assert_same_bits(split_directions(params), named)

    def test_init_draws_the_saved_order(self):
        config = BlstmConfig(dim=3, hidden=2)
        got = init_params(config, np.random.default_rng(42))
        assert_same_bits(split_directions(got), reference_init(config, np.random.default_rng(42)))

    @pytest.mark.parametrize(
        "lengths", [[5, 1, 3, 5, 2], [5, 1, 3, 1, 2]], ids=["ragged", "floor row past its end"]
    )
    def test_head_scatter_and_gather_are_the_row_loop(self, lengths):
        rng = np.random.default_rng(43)
        lengths = np.array(lengths)
        x = rng.normal(size=(5, 5, 4))
        # padded steps hold values neither direction may carry over
        real = np.arange(5)[None, :] < lengths[:, None]
        x[~real] = [-0.0, np.nan, -1.0, np.inf]
        order = np.argsort(-lengths, kind="stable")
        t, j = positions = _packed_index(_live_runs(lengths[order].tolist(), 5), 5)
        head = _head_rows(lengths[order], order, positions, 5)
        # packed states that hold their row's x at their step: the forward
        # ones land there, the backward ones at the step reversed
        packed = np.stack([x[order[j], t]] * 2)
        got = _to_head(packed, head, 5, 5)
        want = np.concatenate([np.where(real[:, :, None], x, 0.0),
                               reverse_within_lengths(x, lengths)], axis=2)
        assert bits(got) == bits(want)
        assert not np.signbit(got[~real]).any()
        # the gather gives each packed position its value back, and exact
        # zeros at the padded ones
        back = _from_head(got, head)
        live_real = t < lengths[order][j]
        assert bits(back[:, live_real]) == bits(packed[:, live_real])
        assert not back[:, ~live_real].any() and not np.signbit(back[:, ~live_real]).any()
        # only a floor row past its end is live at a padded position
        assert (~live_real).any() == (lengths.tolist() == [5, 1, 3, 1, 2])

    def test_demo_shape_training_and_tagging(self, demo_models):
        # the demo tagger's shape, batch and learning rate; two epochs
        from vuln2rule.demo import generate_demo_records

        records = generate_demo_records(160, 7)
        data = [r.sentence for r in records]
        emb = demo_models.embedding
        config = replace(demo_models.tagger.config, epochs=2)
        assert (config.dim, config.hidden, config.batch_size, config.max_len) == (32, 32, 32, 60)
        model = train_ner(data, emb, config)
        assert_close(split_directions(model.params), reference_train_ner(data, emb, config))
        sentences = [list(s.tokens) for s in data]
        tagged = tag_batch(demo_models.tagger, emb, sentences)
        assert_tags_match_reference(tagged, reference_tag_batch(demo_models.tagger, emb, sentences))
        assert_buckets_match_reference(demo_models.tagger, emb, sentences)

    def test_paper_like_shape_over_max_len(self):
        # dim and hidden 100 as in the paper; sentences up to 2.5 x max_len
        rng = np.random.default_rng(44)
        words = [f"w{i}" for i in range(40)]
        emb = make_embedding({w: rng.normal(scale=0.3, size=100) for w in words})
        data = []
        for n in (75, 31, 30, 12, 64, 5, 47, 1, 29, 60):
            tokens = tokenize(" ".join(rng.choice(words + ["unknownword"], size=n)))
            data.append(LabeledSentence(tuple(tokens), tuple(rng.choice(ALL_TAGS, size=n))))
        config = BlstmConfig(max_len=30, dim=100, hidden=100, epochs=2, batch_size=4,
                             learning_rate=0.05, seed=45)
        model = train_ner(data, emb, config)
        assert_close(split_directions(model.params), reference_train_ner(data, emb, config))
        sentences = [list(s.tokens) for s in data]
        tagged = tag_batch(model, emb, sentences)
        assert_tags_match_reference(tagged, reference_tag_batch(model, emb, sentences))
        assert_buckets_match_reference(model, emb, sentences)


class TestConfigRanges:
    @pytest.mark.parametrize(
        "field,value",
        [("max_len", 0), ("dim", 0), ("hidden", -2), ("epochs", -1), ("batch_size", 0)],
    )
    def test_count_below_one_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be at least 1"):
            BlstmConfig(**{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -0.1])
    def test_learning_rate_must_be_finite_and_positive(self, value):
        with pytest.raises(ValueError, match="learning_rate must be a finite number > 0"):
            BlstmConfig(learning_rate=value)


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
        # a run ends where its tag changes, at an O or at another entity tag;
        # the pairs may come as a one-pass iterator
        tokens = tokenize("buffer overflow here adobe reader 9.3.3")
        tags = ["MEANS", "MEANS", "O", "PLATFORM", "PLATFORM", "VERSION"]
        entities = extract_entities(zip(tokens, tags), "CVE-2020-0003")
        assert entities.values_for("MEANS") == ["buffer overflow"]
        assert entities.values_for("PLATFORM") == ["adobe reader"]
        assert entities.values_for("VERSION") == ["9.3.3"]
        assert sum(map(len, entities.entities.values())) == 3

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["buffer", "Overflow", "9.3.3", "x"]),
                              st.sampled_from(["O", "MEANS", "IMPACT", "VERSION"]))))
    @example([])
    @example([("buffer", "O"), ("x", "O")])
    @example([("buffer", "MEANS"), ("x", "IMPACT"), ("9.3.3", "VERSION")])
    @example([("buffer", "MEANS"), ("x", "MEANS"), ("x", "O"), ("Overflow", "MEANS"),
              ("x", "MEANS"), ("buffer", "IMPACT"), ("x", "MEANS")])
    def test_matches_the_reference_run_grouping(self, pairs):
        tagged = [(Token(w, w.lower()), t) for w, t in pairs]
        want = EntitySet(cve_id="CVE-2020-0004")
        for tag_, value, _ in reference_extract_spans(tagged):
            want.entities[tag_].append(value)
        assert extract_entities(iter(tagged), "CVE-2020-0004") == want


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

    def test_file_with_the_dropped_config_lines_loads(self, tiny_embedding, tmp_path):
        # files written before BlstmConfig lost n_classes and clip_norm
        # still hold their metadata lines; the loader ignores them
        data = [sentence_from("buffer overflow", ["MEANS", "MEANS"])]
        config = BlstmConfig(max_len=10, dim=6, hidden=4, epochs=2,
                             batch_size=2, learning_rate=0.01, seed=6)
        model = train_ner(data, tiny_embedding, config)
        path = tmp_path / "ner.v2.bin"
        save_ner(model, path)
        text = path.read_bytes()
        old = text.replace(b"# hidden 4\n", b"# hidden 4\n# n_classes 11\n").replace(
            b"# learning_rate 0.01\n", b"# learning_rate 0.01\n# clip_norm none\n"
        )
        assert old.count(b"# n_classes 11\n") == old.count(b"# clip_norm none\n") == 1
        path.write_bytes(old)
        loaded = load_ner(path)
        assert loaded.config == model.config
        for name in model.params:
            assert np.array_equal(loaded.params[name], model.params[name])
