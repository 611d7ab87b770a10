"""Embedding network: gradients against finite differences, training
behavior, neighbor queries and persistence."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import example_loss_and_grads, reference_mean_loss, reference_train_embedding
from vuln2rule import _textio, embedding
from vuln2rule.corpus import tokenize, vocabulary_from_sentences
from vuln2rule.demo import generate_demo_records
from vuln2rule.embedding import (
    _LOSS_BLOCK,
    CBOW,
    FORMAT_MARKER,
    SKIP_GRAM,
    EmbeddingConfig,
    _gather_inputs,
    _mean_loss,
    _training_pairs,
    load_embedding,
    nearest_neighbors,
    save_embedding,
    train_embedding,
)
from vuln2rule.errors import DegenerateCorpus, FormatVersionMismatch, MalformedRecord


def dense_grads(w_in, w_out, input_ids, target):
    loss, (rows, row_grads), dw_out = example_loss_and_grads(w_in, w_out, input_ids, target)
    dw_in = np.zeros_like(w_in)
    dw_in[rows] = row_grads
    return loss, dw_in, dw_out


def finite_difference(f, x, eps=1e-6):
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        up = f()
        x[idx] = orig - eps
        down = f()
        x[idx] = orig
        grad[idx] = (up - down) / (2 * eps)
        it.iternext()
    return grad


def relative_error(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / denom


class TestGradients:
    """Analytic gradients vs central finite differences (5 words, dim 4)."""

    @pytest.mark.parametrize("input_ids,target", [
        ([1, 2, 3], 4),       # CBOW-style averaged context
        ([2, 2, 3], 1),       # repeated context word
        ([3], 0),             # skip-gram-style single center
    ])
    def test_matches_finite_differences(self, input_ids, target):
        rng = np.random.default_rng(11)
        w_in = rng.normal(scale=0.5, size=(5, 4))
        w_out = rng.normal(scale=0.5, size=(4, 5))

        def loss():
            value, _, _ = example_loss_and_grads(w_in, w_out, input_ids, target)
            return value

        _, dw_in, dw_out = dense_grads(w_in, w_out, input_ids, target)
        assert relative_error(dw_in, finite_difference(loss, w_in)) < 1e-4
        assert relative_error(dw_out, finite_difference(loss, w_out)) < 1e-4


class TestTraining:
    def test_two_word_corpus_neighbors(self):
        # with only two words each word's sole context is the other word
        sentence = ["a", "b"] * 200
        config = EmbeddingConfig(variant=CBOW, dim=8, window=5, epochs=20,
                                 learning_rate=0.05, max_vocab=10, seed=3)
        model = train_embedding([sentence], config)
        assert nearest_neighbors(model, "a", 1)[0][0] == "b"

    def test_deterministic_given_seed(self):
        sentences = [["buffer", "overflow", "in", "reader"]] * 5
        config = EmbeddingConfig(dim=6, epochs=3, learning_rate=0.01, seed=9)
        first = train_embedding(sentences, config)
        second = train_embedding(sentences, config)
        assert np.array_equal(first.w_in, second.w_in)
        assert np.array_equal(first.w_out, second.w_out)

    def test_default_config_echoes_published_values(self):
        config = EmbeddingConfig()
        assert config.dim == 100
        assert config.window == 5
        assert config.epochs == 300
        assert config.learning_rate == 0.0001
        assert config.max_vocab == 10000

    def test_training_reduces_mean_loss(self):
        sentences = [["x", "y", "z", "x", "y"]] * 10
        model = train_embedding(
            sentences, EmbeddingConfig(dim=8, epochs=10, learning_rate=0.05, seed=1)
        )
        assert model.final_loss < model.initial_loss

    def test_degenerate_corpus_rejected(self):
        with pytest.raises(DegenerateCorpus):
            train_embedding([["solo"]], EmbeddingConfig(dim=4, epochs=1, seed=0))

    def test_skip_gram_trains(self):
        sentence = ["a", "b", "c"] * 50
        config = EmbeddingConfig(variant=SKIP_GRAM, dim=6, window=2, epochs=5,
                                 learning_rate=0.05, seed=2)
        model = train_embedding([sentence], config)
        assert model.final_loss < model.initial_loss

    def test_loss_non_increasing_with_small_lr(self):
        # frozen two-sentence corpus; epoch-by-epoch mean loss history
        sentences = [["a", "b", "c"], ["b", "a", "d"]]
        vocab = vocabulary_from_sentences(sentences, 10)
        losses = []
        for epochs in range(1, 6):
            config = EmbeddingConfig(dim=5, epochs=epochs, learning_rate=1e-3, seed=4)
            model = train_embedding(sentences, config, vocab=vocab)
            if epochs == 1:
                losses.append(model.initial_loss)  # the untrained network
            losses.append(model.final_loss)
        assert all(later <= earlier + 1e-12 for earlier, later in zip(losses, losses[1:]))


class TestConfigRanges:
    @pytest.mark.parametrize("field,value", [
        ("dim", 0), ("window", 0), ("epochs", 0), ("epochs", -1), ("max_vocab", 0),
        ("learning_rate", 0.0), ("learning_rate", -0.1), ("learning_rate", float("nan")),
        ("learning_rate", float("inf")),
    ])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            EmbeddingConfig(**{field: value})

    def test_smallest_values_accepted(self):
        config = EmbeddingConfig(dim=1, window=1, epochs=1, max_vocab=1, learning_rate=1e-300)
        assert config.epochs == 1


#: three sentences with repeated words, so CBOW contexts repeat ids
EXACT_CORPUS = [
    "remote attackers execute arbitrary code via a crafted pdf a crafted pdf".split(),
    "buffer overflow in the reader allows remote attackers to execute code".split() * 6,
    "the the the reader reader crafted".split(),
]


class TestExactTraining:
    """``train_embedding`` against the per-example reference trainer."""

    @pytest.mark.parametrize("variant", [CBOW, SKIP_GRAM])
    def test_weights_match_reference_bit_for_bit(self, variant):
        config = EmbeddingConfig(variant=variant, dim=7, window=3, epochs=4,
                                 learning_rate=0.05, max_vocab=12, seed=5)
        vocab = vocabulary_from_sentences(EXACT_CORPUS, config.max_vocab)
        pairs = _training_pairs(EXACT_CORPUS, vocab, variant, config.window)
        assert len(pairs) > _LOSS_BLOCK
        assert any(len(set(inputs)) < len(inputs) for inputs, _ in pairs) == (variant == CBOW)
        got = train_embedding(EXACT_CORPUS, config)
        want = reference_train_embedding(EXACT_CORPUS, config)
        assert got.w_in.tobytes() == want.w_in.tobytes()
        assert got.w_out.tobytes() == want.w_out.tobytes()
        assert got.initial_loss == pytest.approx(want.initial_loss, rel=1e-12)
        assert got.final_loss == pytest.approx(want.final_loss, rel=1e-12)
        assert got.final_loss < got.initial_loss

    @pytest.mark.parametrize("update_block", [1, 26, 39, 91])
    def test_row_blocked_update_matches_reference_bit_for_bit(self, update_block, monkeypatch):
        """At 13 ids, blocks of 1, 26, 39 and 91 elements update ``w_out``'s
        7 rows 1, 2, 3 and 7 at a time; blocks of 2 and 3 leave a short
        last block."""
        monkeypatch.setattr(embedding, "_UPDATE_BLOCK", update_block)
        config = EmbeddingConfig(dim=7, window=3, epochs=3, learning_rate=0.05, max_vocab=12, seed=6)
        got = train_embedding(EXACT_CORPUS, config)
        want = reference_train_embedding(EXACT_CORPUS, config)
        assert got.w_in.tobytes() == want.w_in.tobytes()
        assert got.w_out.tobytes() == want.w_out.tobytes()

    @pytest.mark.parametrize("variant", [CBOW, SKIP_GRAM])
    def test_losses_match_reference_on_random_weights(self, variant):
        vocab = vocabulary_from_sentences(EXACT_CORPUS, 12)
        pairs = _training_pairs(EXACT_CORPUS, vocab, variant, 4)
        rng = np.random.default_rng(3)
        w_in = rng.normal(size=(len(vocab), 5))
        w_out = rng.normal(scale=2.0, size=(5, len(vocab)))
        got = _mean_loss(w_in, w_out, _gather_inputs(pairs))
        assert got == pytest.approx(reference_mean_loss(w_in, w_out, pairs), rel=1e-12)

    @pytest.mark.parametrize("variant, epochs", [(CBOW, 2), (SKIP_GRAM, 1)])
    def test_demo_shape_matches_reference_bit_for_bit(self, variant, epochs):
        """The demo's vocabulary size, dim and window, which the small fixed
        corpus does not reach."""
        sentences = [
            [t.norm for t in tokenize(r.vulnerability.description)]
            for r in generate_demo_records(40, 7)
        ]
        config = EmbeddingConfig(variant=variant, dim=32, window=5, epochs=epochs,
                                 learning_rate=0.05, seed=7)
        got = train_embedding(sentences, config)
        want = reference_train_embedding(sentences, config)
        assert len(got.vocab) > 64
        assert got.w_in.tobytes() == want.w_in.tobytes()
        assert got.w_out.tobytes() == want.w_out.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        sentences=st.integers(2, 8).flatmap(
            lambda n: st.lists(
                st.lists(st.sampled_from("abcdefgh"[:n]), min_size=1, max_size=15),
                min_size=1,
                max_size=4,
            )
        ),
        variant=st.sampled_from([CBOW, SKIP_GRAM]),
        dim=st.integers(1, 9),
        window=st.integers(1, 4),
        max_vocab=st.integers(1, 10),
        epochs=st.integers(1, 2),
        learning_rate=st.sampled_from([0.05, 0.5]),
        seed=st.integers(0, 1000),
        update_block=st.sampled_from([1, 2, 3, 7, 32768]),
    )
    def test_random_corpora_match_reference_bit_for_bit(
        self, sentences, variant, dim, window, max_vocab, epochs, learning_rate, seed,
        update_block,
    ):
        config = EmbeddingConfig(variant=variant, dim=dim, window=window, epochs=epochs,
                                 learning_rate=learning_rate, max_vocab=max_vocab, seed=seed)
        vocab = vocabulary_from_sentences(sentences, max_vocab)
        if not _training_pairs(sentences, vocab, variant, window):
            # the reference has nothing to train on, and the trainer says so
            with pytest.raises(DegenerateCorpus):
                train_embedding(sentences, config)
            return
        # patched here, not with monkeypatch: hypothesis reuses one fixture
        # across its examples
        saved = embedding._UPDATE_BLOCK
        embedding._UPDATE_BLOCK = update_block
        try:
            got = train_embedding(sentences, config)
        finally:
            embedding._UPDATE_BLOCK = saved
        want = reference_train_embedding(sentences, config)
        assert got.w_in.tobytes() == want.w_in.tobytes()
        assert got.w_out.tobytes() == want.w_out.tobytes()

    def test_gathered_inputs_are_each_pairs_unique_ids_and_weights(self):
        pairs = [((4, 2, 4, 4), 1), ((3,), 0), ((1, 1), 2), ((2, 0, 5), 5)]
        inputs = _gather_inputs(pairs)
        assert inputs.targets.tolist() == [1, 0, 2, 5]
        for p, (input_ids, _) in enumerate(pairs):
            lo, hi = inputs.offsets[p], inputs.offsets[p + 1]
            uniq, counts = np.unique(np.asarray(input_ids, dtype=np.intp), return_counts=True)
            assert inputs.ids[lo:hi].tolist() == uniq.tolist()
            assert inputs.weights[lo:hi].tobytes() == (counts / len(input_ids)).tobytes()
        assert inputs.offsets[-1] == len(inputs.ids) == len(inputs.weights)


class TestEmbedQueries:
    def test_in_vocab_is_w_in_row(self):
        sentences = [["one", "two", "three", "four"]] * 3
        model = train_embedding(sentences, EmbeddingConfig(dim=4, epochs=1, seed=0))
        word_id = model.vocab.index_of["two"]
        assert np.array_equal(model.embed("two"), model.w_in[word_id])

    def test_oov_word_gets_oov_row(self):
        sentences = [["one", "two", "three", "four"]] * 3
        model = train_embedding(sentences, EmbeddingConfig(dim=4, epochs=1, seed=0))
        assert np.array_equal(model.embed("zzzz"), model.w_in[0])

    def test_embed_stable_across_calls(self):
        sentences = [["one", "two", "three"]] * 3
        model = train_embedding(sentences, EmbeddingConfig(dim=4, epochs=1, seed=0))
        assert np.array_equal(model.embed("one"), model.embed("one"))

    def test_query_word_excluded_and_cosine_bounded(self):
        sentences = [["p", "q", "r", "s", "t"]] * 4
        model = train_embedding(sentences, EmbeddingConfig(dim=6, epochs=2, seed=5))
        result = nearest_neighbors(model, "p", 10)
        names = [w for w, _ in result]
        assert "p" not in names
        assert "<oov>" not in names
        assert all(-1 - 1e-9 <= s <= 1 + 1e-9 for _, s in result)

    def test_matches_brute_force_scan(self):
        sentences = [["alpha", "beta", "gamma", "delta", "epsilon"]] * 4
        model = train_embedding(sentences, EmbeddingConfig(dim=6, epochs=2, seed=6))
        for word in ("alpha", "delta", "unseen"):
            got = nearest_neighbors(model, word, 4)
            query = model.embed(word)
            expected = []
            for idx, cand in enumerate(model.vocab.words):
                if idx == 0 or cand == word:
                    continue
                vec = model.w_in[idx]
                denom = float(np.linalg.norm(vec)) * float(np.linalg.norm(query))
                sim = float(vec @ query / denom) if denom > 0 else 0.0
                expected.append((cand, sim))
            expected.sort(key=lambda ws: (-ws[1], ws[0]))
            assert got == expected[:4]

    def test_cbow_symmetry_identical_context(self):
        # averaging k copies of one context word must reproduce its row exactly
        rng = np.random.default_rng(12)
        w_in = rng.normal(size=(5, 4))
        w_out = rng.normal(size=(4, 5))
        for k in (1, 2, 3, 7):
            uniq, counts = np.unique([2] * k, return_counts=True)
            hidden = (counts / k) @ w_in[uniq]
            assert np.array_equal(hidden, w_in[2])
            loss_rep, (rows, _), _ = example_loss_and_grads(w_in, w_out, [2] * k, 1)
            loss_single, _, _ = example_loss_and_grads(w_in, w_out, [2], 1)
            assert loss_rep == loss_single
            assert list(rows) == [2]

    def test_softmax_normalized(self):
        rng = np.random.default_rng(13)
        w_in = rng.normal(size=(7, 5))
        w_out = rng.normal(size=(5, 7))
        hidden = w_in[[1, 4]].mean(axis=0)
        scores = hidden @ w_out
        probs = np.exp(scores - scores.max())
        probs /= probs.sum()
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)


class TestPersistence:
    def test_round_trip_identity(self, tmp_path):
        sentences = [["save", "load", "round", "trip", "works"]] * 4
        model = train_embedding(sentences, EmbeddingConfig(dim=5, epochs=2, seed=7))
        path = tmp_path / "model.txt"
        save_embedding(model, path)
        loaded = load_embedding(path)
        assert loaded.vocab.words == model.vocab.words
        assert loaded.vocab.coverage == model.vocab.coverage
        assert np.array_equal(loaded.w_in, model.w_in)
        assert loaded.w_out is None
        _, out = _textio.read_model(str(path) + ".out", FORMAT_MARKER, lambda meta, m: (meta, m))
        assert np.array_equal(out["w_out"], model.w_out)
        assert loaded.config == model.config
        assert nearest_neighbors(loaded, "save", 3) == nearest_neighbors(model, "save", 3)

    def test_header_line_parses_sizes(self, tmp_path):
        sentences = [["h", "e", "a", "d"]] * 3
        model = train_embedding(sentences, EmbeddingConfig(dim=3, epochs=1, seed=8))
        path = tmp_path / "model.txt"
        save_embedding(model, path)
        data = path.read_bytes()
        block = model.w_in.astype("<f8").tobytes()
        assert data.endswith(block)
        header = data[: -len(block)].decode("utf-8").splitlines()[-1]
        assert header == f"matrix w_in {len(model.vocab)} 3"

    def test_truncated_file_rejected(self, tmp_path):
        sentences = [["t", "r", "u", "n", "c"]] * 3
        model = train_embedding(sentences, EmbeddingConfig(dim=3, epochs=1, seed=8))
        path = tmp_path / "model.txt"
        save_embedding(model, path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(MalformedRecord):
            load_embedding(path)

    @pytest.mark.parametrize("words, repeated", [
        ("<oov> a a c", "'a'"),
        ("<oov> a b <oov>", "'<oov>'"),
    ])
    def test_repeated_word_rejected(self, tmp_path, words, repeated):
        model = train_embedding([["a", "b", "c"]] * 3, EmbeddingConfig(dim=2, epochs=1))
        meta = _textio.config_meta(model.config)
        meta["coverage"] = repr(model.vocab.coverage)
        meta["words"] = words
        path = tmp_path / "model.txt"
        _textio.write_model(path, FORMAT_MARKER, meta, {"w_in": model.w_in})
        with pytest.raises(MalformedRecord, match=re.escape(f"{path}: word {repeated} appears")):
            load_embedding(path)

    def test_wrong_format_marker_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("# some-other-format 9\n1 1\nw 0.0\n", "utf-8")
        with pytest.raises(FormatVersionMismatch):
            load_embedding(path)
