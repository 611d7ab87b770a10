"""Domain word-embedding model: shallow CBOW / skip-gram network.

Full-softmax training over a capped vocabulary; the input weight matrix is
the embedding table.  Training is plain per-example SGD, deterministic for a
fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import _textio
from .corpus import OOV_WORD, Vocabulary, vocabulary_from_sentences
from .errors import DegenerateCorpus

FORMAT_MARKER = "# vuln2rule-embedding 3"

CBOW = "CBOW"
SKIP_GRAM = "SG"


@dataclass(frozen=True)
class EmbeddingConfig:
    variant: str = CBOW
    dim: int = 100
    window: int = 5
    epochs: int = 300
    learning_rate: float = 0.0001
    max_vocab: int = 10000
    seed: int = 0

    def __post_init__(self):
        if self.variant not in (CBOW, SKIP_GRAM):
            raise ValueError(f"variant must be {CBOW} or {SKIP_GRAM}")
        for name in ("dim", "window", "epochs", "max_vocab"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(
                f"learning_rate must be a finite number > 0, got {self.learning_rate}"
            )


@dataclass
class EmbeddingModel:
    """Vocabulary plus the two weight matrices of the shallow network.

    ``w_in`` has one row per vocabulary word (the embeddings); ``w_out`` is
    the softmax output matrix of shape (dim, vocab size), or None in a loaded
    model.
    """

    vocab: Vocabulary
    w_in: np.ndarray
    w_out: np.ndarray | None
    config: EmbeddingConfig
    initial_loss: float | None = None
    final_loss: float | None = None

    @property
    def dim(self) -> int:
        return self.w_in.shape[1]

    def embed(self, word: str) -> np.ndarray:
        """Embedding row for ``word``; out-of-vocabulary words get the OOV row."""
        return self.w_in[self.vocab.id_for(word)].copy()


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


def _training_pairs(
    sentences: list[list[str]], vocab: Vocabulary, variant: str, window: int
) -> list[tuple[tuple[int, ...], int]]:
    pairs: list[tuple[tuple[int, ...], int]] = []
    for sentence in sentences:
        ids = [vocab.id_for(w) for w in sentence]
        for i, target in enumerate(ids):
            context = ids[max(0, i - window) : i] + ids[i + 1 : i + 1 + window]
            if not context:
                continue
            if variant == CBOW:
                pairs.append((tuple(context), target))
            else:
                pairs.extend(((target,), ctx) for ctx in context)
    return pairs


class _Inputs(NamedTuple):
    """Every training pair's distinct input ids and their weights (the
    share of the pair's inputs each id makes up), flat: pair ``p`` owns
    ``ids[offsets[p]:offsets[p + 1]]`` and the same slice of ``weights``."""

    offsets: np.ndarray
    ids: np.ndarray
    weights: np.ndarray
    targets: np.ndarray


def _gather_inputs(pairs: list[tuple[tuple[int, ...], int]]) -> _Inputs:
    """``np.unique(inputs, return_counts=True)`` and ``counts / len(inputs)``
    of every pair, as the per-example gradient computes them, in one pass."""
    lengths = np.array([len(inputs) for inputs, _ in pairs], dtype=np.intp)
    flat = np.fromiter(
        (i for inputs, _ in pairs for i in inputs), dtype=np.intp, count=int(lengths.sum())
    )
    owner = np.repeat(np.arange(len(pairs)), lengths)
    order = np.lexsort((flat, owner))
    flat, owner = flat[order], owner[order]
    first = np.ones(len(flat), dtype=bool)
    first[1:] = (flat[1:] != flat[:-1]) | (owner[1:] != owner[:-1])
    starts = np.flatnonzero(first)
    counts = np.diff(np.append(starts, len(flat)))
    offsets = np.zeros(len(pairs) + 1, dtype=np.intp)
    np.cumsum(np.bincount(owner[starts], minlength=len(pairs)), out=offsets[1:])
    return _Inputs(
        offsets=offsets,
        ids=flat[starts],
        weights=counts / lengths[owner[starts]],
        targets=np.array([target for _, target in pairs], dtype=np.intp),
    )


#: pairs per block of the batched loss; a block's scores are block x vocab
_LOSS_BLOCK = 64


def _mean_loss(w_in: np.ndarray, w_out: np.ndarray, inputs: _Inputs) -> float:
    """Mean cross-entropy over all pairs, computed a block of pairs at a
    time; it equals the mean of the per-example losses up to
    rounding."""
    n = len(inputs.targets)
    total = 0.0
    for start in range(0, n, _LOSS_BLOCK):
        stop = min(start + _LOSS_BLOCK, n)
        lo, hi = inputs.offsets[start], inputs.offsets[stop]
        rows = inputs.weights[lo:hi, None] * w_in[inputs.ids[lo:hi]]
        hidden = np.add.reduceat(rows, inputs.offsets[start:stop] - lo)
        scores = hidden @ w_out
        scores -= scores.max(axis=1, keepdims=True)
        log_norm = np.log(np.exp(scores).sum(axis=1))
        picked = scores[np.arange(stop - start), inputs.targets[start:stop]]
        total += float((log_norm - picked).sum())
    return total / n


def train_embedding(
    sentences: list[list[str]],
    config: EmbeddingConfig = EmbeddingConfig(),
    vocab: Vocabulary | None = None,
) -> EmbeddingModel:
    """Train the embedding network on tokenized, normalized sentences.

    One epoch is a pass over all (input, target) pairs in a seeded-shuffle
    order.  Each step is the update of the per-example gradient
    (``example_loss_and_grads`` in ``tests/helpers.py``), with the same
    operations in the same order, so the weights match that per-example
    trainer bit for bit.  Raises DegenerateCorpus when no trainable pairs
    exist.
    """
    if vocab is None:
        vocab = vocabulary_from_sentences(sentences, config.max_vocab)
    pairs = _training_pairs(sentences, vocab, config.variant, config.window)
    if not pairs:
        raise DegenerateCorpus("no (context, target) pairs derivable from corpus")
    inputs = _gather_inputs(pairs)
    del pairs  # the flat arrays replace the pairs for the rest of training

    rng = np.random.default_rng(config.seed)
    size = len(vocab)
    bound = 0.5 / config.dim
    w_in = rng.uniform(-bound, bound, size=(size, config.dim))
    w_out = np.zeros((config.dim, size))

    initial_loss = _mean_loss(w_in, w_out, inputs)
    lr = config.learning_rate
    # per-step scalars come from lists: indexing an array costs more
    offsets, targets = inputs.offsets.tolist(), inputs.targets.tolist()
    ids, weights = inputs.ids, inputs.weights
    dw_out = np.empty_like(w_out)
    for _ in range(config.epochs):
        for p in rng.permutation(len(targets)).tolist():
            lo, hi = offsets[p], offsets[p + 1]
            rows, row_weights = ids[lo:hi], weights[lo:hi]
            hidden = row_weights @ w_in[rows]
            dscores = _softmax(hidden @ w_out)
            dscores[targets[p]] -= 1.0
            dhidden = w_out @ dscores
            np.multiply.outer(hidden, dscores, out=dw_out)
            dw_out *= lr
            w_out -= dw_out
            w_in[rows] -= lr * np.multiply.outer(row_weights, dhidden)
    final_loss = _mean_loss(w_in, w_out, inputs)

    return EmbeddingModel(
        vocab=vocab,
        w_in=w_in,
        w_out=w_out,
        config=config,
        initial_loss=initial_loss,
        final_loss=final_loss,
    )


def nearest_neighbors(
    model: EmbeddingModel, word: str, k: int
) -> list[tuple[str, float]]:
    """Top-k words by cosine similarity (exhaustive scan), excluding the
    query word and the OOV pseudo-word.  Ties broken lexicographically."""
    if k < 1:
        raise ValueError("k must be >= 1")
    query = model.embed(word)
    qnorm = float(np.linalg.norm(query))
    scored: list[tuple[str, float]] = []
    for idx, candidate in enumerate(model.vocab.words):
        if idx == model.vocab.oov_id or candidate == word:
            continue
        vec = model.w_in[idx]
        denom = qnorm * float(np.linalg.norm(vec))
        sim = float(vec @ query / denom) if denom > 0 else 0.0
        scored.append((candidate, sim))
    scored.sort(key=lambda ws: (-ws[1], ws[0]))
    return scored[:k]


# --- persistence ------------------------------------------------------------


def save_embedding(model: EmbeddingModel, path: str | Path) -> None:
    """``_textio`` format: config and vocabulary as metadata, then matrix
    ``w_in``.  The companion ``<path>.out`` file repeats the metadata and
    holds matrix ``w_out``, completing the trained network; loading does not
    read it."""
    meta = _textio.config_meta(model.config)
    meta["coverage"] = repr(model.vocab.coverage)
    meta["words"] = " ".join(model.vocab.words)
    _textio.write_model(path, FORMAT_MARKER, meta, {"w_in": model.w_in})
    _textio.write_model(str(path) + ".out", FORMAT_MARKER, meta, {"w_out": model.w_out})


def load_embedding(path: str | Path) -> EmbeddingModel:
    """The vocabulary and ``w_in``; ``w_out`` is None, since only training
    uses the output matrix."""

    def build(meta: dict[str, str], matrices: dict[str, np.ndarray]) -> EmbeddingModel:
        config = _textio.config_from_meta(EmbeddingConfig, meta)
        words = tuple(meta["words"].split())
        w_in = matrices["w_in"]
        if w_in.shape != (len(words), config.dim):
            raise ValueError(f"w_in is {w_in.shape}, want ({len(words)}, {config.dim})")
        if words[0] != OOV_WORD:
            raise ValueError(f"first word must be {OOV_WORD}")
        vocab = Vocabulary(
            words=words,
            index_of={w: i for i, w in enumerate(words)},
            coverage=float(meta["coverage"]),
        )
        return EmbeddingModel(vocab=vocab, w_in=w_in, w_out=None, config=config)

    return _textio.read_model(path, FORMAT_MARKER, build)
