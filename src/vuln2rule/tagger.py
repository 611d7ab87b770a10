"""Bidirectional-LSTM tagger: token sequences to 11-way attack-entity tags.

The network embeds tokens (via the trained word embedding), runs a forward
and a backward LSTM (stacked, in one time loop), concatenates the two hidden
states per position and applies a shared dense+softmax head.  Training is mini-batch SGD over the
class-weighted cross-entropy, with backpropagation through time; class O
gets weight 1, the ten entity classes get weight 10.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _textio
from .corpus import LabeledSentence, Token, tokenize
from .embedding import EmbeddingModel
from .errors import (
    DimensionMismatch,
    EmptyDataset,
    EmptySentence,
    LengthMismatch,
    MalformedRecord,
)

#: The 11 tags, O last; indices are the class ids everywhere.
ALL_TAGS: tuple[str, ...] = (
    "VECTOR",
    "TECHNIQUE",
    "IMPACT",
    "MEANS",
    "PLATFORM",
    "OS",
    "VERSION",
    "PROTOCOL",
    "PORT",
    "PRIVILEGE",
    "O",
)
ENTITY_TAGS: tuple[str, ...] = ALL_TAGS[:10]
O_TAG = "O"
TAG_INDEX: dict[str, int] = {t: i for i, t in enumerate(ALL_TAGS)}

#: Loss weights: 10 for the entity classes, 1 for O.
LOSS_WEIGHTS = np.array([10.0] * 10 + [1.0])

MODEL_MARKER = "# vuln2rule-blstm 2"


@dataclass(frozen=True)
class BlstmConfig:
    max_len: int = 150
    dim: int = 100
    hidden: int = 100
    epochs: int = 100
    batch_size: int = 32
    learning_rate: float = 0.01
    seed: int = 0

    def __post_init__(self):
        for name in ("max_len", "dim", "hidden", "epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(
                f"learning_rate must be a finite number > 0, got {self.learning_rate}"
            )


@dataclass
class BlstmModel:
    """A tagger; ``params`` has the stacked layout of ``stack_directions``."""

    params: dict[str, np.ndarray]
    config: BlstmConfig


#: The saved layout: one matrix per LSTM direction (``fw_*`` forward,
#: ``bw_*`` backward), then the dense head.
PARAM_SHAPES = {
    "fw_wx": ("dim", "4h"),
    "fw_wh": ("h", "4h"),
    "fw_b": ("4h",),
    "bw_wx": ("dim", "4h"),
    "bw_wh": ("h", "4h"),
    "bw_b": ("4h",),
    "dense_w": ("2h", "classes"),
    "dense_b": ("classes",),
}

#: The LSTM parameters that ``stack_directions`` stacks over the directions.
_LSTM_PARAMS = ("wx", "wh", "b")


def param_shapes(config: BlstmConfig) -> dict[str, tuple[int, ...]]:
    h = config.hidden
    sizes = {"dim": config.dim, "h": h, "4h": 4 * h, "2h": 2 * h, "classes": len(ALL_TAGS)}
    return {name: tuple(sizes[k] for k in dims) for name, dims in PARAM_SHAPES.items()}


def stack_directions(named: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The in-memory parameters from the saved per-direction ones: ``wx``
    (2, dim, 4h), ``wh`` (2, h, 4h) and ``b`` (2, 4h) hold the forward
    direction at index 0 and the backward one at index 1; ``dense_w`` and
    ``dense_b`` are kept as they are."""
    params = {k: np.stack([named[f"fw_{k}"], named[f"bw_{k}"]]) for k in _LSTM_PARAMS}
    params["dense_w"], params["dense_b"] = named["dense_w"], named["dense_b"]
    return params


def split_directions(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Inverse of ``stack_directions``: the ``PARAM_SHAPES`` names, as views."""
    named = {f"{d}_{k}": params[k][i] for i, d in enumerate(("fw", "bw")) for k in _LSTM_PARAMS}
    named["dense_w"], named["dense_b"] = params["dense_w"], params["dense_b"]
    return named


def init_params(config: BlstmConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    h = config.hidden
    # drawn in the saved order, so a seed gives the weights it always gave
    named = {
        name: np.zeros(shape) if name.endswith("_b") else rng.uniform(-0.1, 0.1, size=shape)
        for name, shape in param_shapes(config).items()
    }
    params = stack_directions(named)
    # forget-gate bias starts at 1 to keep early memory open
    params["b"][:, h : 2 * h] = 1.0
    return params


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The logistic function of ``x``, written to ``out`` when given
    (which must not share memory with ``x``)."""
    # exp(-|x|) never overflows; min(x, -x) is -|x| but keeps a NaN's sign
    # bit, so every input gives the same bits as evaluating each sign's
    # branch on its own elements
    ex = np.negative(x, out=out)
    np.exp(np.minimum(x, ex, out=ex), out=ex)
    den = ex + 1.0
    # the numerator: 1 where x >= 0, else exp(-|x|), which is at most 1 (a
    # NaN stays the NaN exp gave)
    np.maximum(ex, x >= 0, out=ex)
    return np.divide(ex, den, out=ex)


def _lstm_forward(
    xw: np.ndarray, wh: np.ndarray, b: np.ndarray, hs: np.ndarray, cs: np.ndarray, tanh_cs: np.ndarray
) -> None:
    """Both LSTM directions in one time loop, from the input products ``xw``
    (2, steps, batch, 4 * hidden), with each step's products one ``matmul``
    over the direction axis.

    Fills ``hs`` (steps + 1, 2, batch, hidden) with the states, zero initial
    state first, and overwrites each step's slice of ``xw`` with its gates.
    ``cs`` gets the cells, zero initial cell first, and ``tanh_cs`` their
    tanh: for every step (steps + 1 and steps rows), or in rings of two and
    one rows when nothing is kept for backpropagation.  States and cells are
    time-major, so that each step's slice is contiguous."""
    steps = xw.shape[1]
    h_size = wh.shape[1]
    rows, kept = len(cs), len(tanh_cs)
    b = b[:, None, :]
    hs[0] = cs[0] = 0.0
    z = np.empty(xw.shape[:1] + xw.shape[2:])
    g_block = slice(2 * h_size, 3 * h_size)
    for t in range(steps):
        # z = xw + h @ wh + b, summed in that order
        gates = xw[:, t]
        np.matmul(hs[t], wh, out=z)
        z += gates
        z += b
        # gate blocks i, f, g, o: one sigmoid call, then tanh over the g block
        _sigmoid(z, out=gates)
        np.tanh(z[..., g_block], out=gates[..., g_block])
        gi, gf, gg, go = (gates[..., k * h_size : (k + 1) * h_size] for k in range(4))
        c = np.add(gf * cs[t % rows], gi * gg, out=cs[(t + 1) % rows])
        np.multiply(go, np.tanh(c, out=tanh_cs[t % kept]), out=hs[t + 1])


def _lstm_backward(
    d_hs: np.ndarray,
    xs: np.ndarray,
    hs: np.ndarray,
    gates_all: np.ndarray,
    cs: np.ndarray,
    tanh_cs: np.ndarray,
    wx: np.ndarray,
    wh: np.ndarray,
):
    """Gradients of ``wx``, ``wh`` and ``b`` from the state gradients
    ``d_hs`` (steps, 2, batch, hidden), through both directions in one
    time loop; ``xs`` (2, batch, steps, dim) are the inputs, and the states,
    gates, cells and their tanh are those ``_lstm_forward`` kept."""
    steps, _, batch, h_size = d_hs.shape
    dwx, dwx_t = np.zeros_like(wx), np.empty_like(wx)
    dwh, dwh_t = np.zeros_like(wh), np.empty_like(wh)
    db = np.zeros((2, 4 * h_size))
    wh_t = wh.transpose(0, 2, 1)
    dh_next = np.zeros((2, batch, h_size))
    dc_next = np.zeros((2, batch, h_size))
    dz = np.zeros((2, batch, 4 * h_size))
    one_minus = np.empty_like(dz)
    d_gi, d_gf, d_gg, d_go = (dz[..., k * h_size : (k + 1) * h_size] for k in range(4))
    for t in reversed(range(steps)):
        gates, tanh_c = gates_all[:, t], tanh_cs[t]
        gi, gf, gg, go = (gates[..., k * h_size : (k + 1) * h_size] for k in range(4))
        dh = d_hs[t] + dh_next
        dc = dc_next + dh * go * (1.0 - tanh_c**2)
        dc_next = dc * gf
        # each gate's gradient through its activation: the i, f and o blocks
        # as (upstream * gate) * (1 - gate) over the whole row, then the g
        # block over its own
        np.multiply(dc, gg, out=d_gi)
        np.multiply(dc, cs[t], out=d_gf)
        np.multiply(dh, tanh_c, out=d_go)
        dz *= gates
        dz *= np.subtract(1.0, gates, out=one_minus)
        np.multiply(dc * gi, 1.0 - gg**2, out=d_gg)
        dwx += np.matmul(xs[:, :, t].transpose(0, 2, 1), dz, out=dwx_t)
        dwh += np.matmul(hs[t].transpose(0, 2, 1), dz, out=dwh_t)
        db += dz.sum(axis=1)
        dh_next = np.matmul(dz, wh_t)
    return dwx, dwh, db


def _reversal(lengths: np.ndarray, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The gather index that reverses each row of a (batch, steps, ...)
    array within its length, and the mask of real steps; a padded step
    reads itself."""
    t = np.arange(steps)
    mask = t < lengths[:, None]
    return np.where(mask, lengths[:, None] - 1 - t, t), mask


def _reverse_within_lengths(x: np.ndarray, reversal) -> np.ndarray:
    """``x`` (batch, steps, features) with each row reversed within its
    length by one gather, and exact zeros at the padded steps."""
    index, mask = reversal
    return np.where(mask[:, :, None], x[np.arange(len(x))[:, None], index], 0.0)


def _carve(*shapes: tuple[int, ...]) -> list[np.ndarray]:
    """Uninitialized float arrays of the given shapes, as views into one
    allocation.

    A forward pass keeps several arrays the size of its batch.  Taken from
    one allocation, the memory goes back to the allocator as one block that
    the next batch reuses.  As separate arrays, their pages went back to the
    system after many training batches, and the next batch faulted them in
    again: about 1,100 page faults for such a batch at demo shape."""
    sizes = [math.prod(shape) for shape in shapes]
    block = np.empty(sum(sizes))
    parts = np.split(block, np.cumsum(sizes)[:-1])
    return [part.reshape(shape) for part, shape in zip(parts, shapes)]


def forward(
    params: dict[str, np.ndarray],
    x: np.ndarray,
    lengths: np.ndarray,
    keep_cache: bool = True,
):
    """Log-probabilities (batch, steps, classes) plus the backprop cache
    (None without ``keep_cache``).

    Both LSTMs run in one time loop, stacked on a leading axis of size 2.
    The backward LSTM consumes each sentence reversed within its true length,
    so trailing padding never influences real positions.
    """
    batch, steps, dim = x.shape
    h_size = params["wh"].shape[1]
    reversal = _reversal(lengths, steps)
    x_rev = _reverse_within_lengths(x, reversal)
    # the input products of every step: one GEMM per direction ahead of the
    # time loop, over rows in time-major order, so that each step's slice
    # of the result is contiguous (each row of a GEMM is its own dot
    # products, so the row order leaves the bits as they are)
    xs_tm = np.empty((2, steps, batch, dim))
    xs_tm[0] = x.transpose(1, 0, 2)
    xs_tm[1] = x_rev.transpose(1, 0, 2)
    kept = steps if keep_cache else 1
    hs = np.empty((steps + 1, 2, batch, h_size))
    xw, cs, tanh_cs, xs = _carve(
        (2, steps, batch, 4 * h_size),
        (kept + 1, 2, batch, h_size),
        (kept, 2, batch, h_size),
        (2, batch, steps, dim) if keep_cache else (0,),
    )
    if keep_cache:
        # backpropagation reads each step's inputs with the strides of
        # batch-major rows: with dim 1, contiguous ones take another matmul
        # path and other bits
        xs[0], xs[1] = x, x_rev
    del x_rev
    np.matmul(xs_tm.reshape(2, -1, dim), params["wx"], out=xw.reshape(2, -1, 4 * h_size))
    del xs_tm
    _lstm_forward(xw, params["wh"], params["b"], hs, cs, tanh_cs)
    if not keep_cache:
        del xw, cs, tanh_cs, xs
    concat = np.empty((batch, steps, 2 * h_size))
    concat[:, :, :h_size] = hs[1:, 0].transpose(1, 0, 2)
    concat[:, :, h_size:] = _reverse_within_lengths(hs[1:, 1].transpose(1, 0, 2), reversal)
    logits = concat @ params["dense_w"] + params["dense_b"]
    shifted = logits - logits.max(axis=2, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=2, keepdims=True))
    if not keep_cache:
        return log_probs, None
    return log_probs, (xs, hs, xw, cs, tanh_cs, concat, reversal)


def loss_and_grads(
    params: dict[str, np.ndarray],
    x: np.ndarray,
    tag_ids: np.ndarray,
    lengths: np.ndarray,
    class_weights: np.ndarray = LOSS_WEIGHTS,
):
    """Weighted cross-entropy summed over real positions, its parameter
    gradients (under the names of ``params``), and the per-sentence loss
    vector."""
    batch, steps, _ = x.shape
    log_probs, (xs, hs, gates, cs, tanh_cs, concat, reversal) = forward(params, x, lengths)
    mask = reversal[1]
    safe_ids = np.where(mask, tag_ids, 0)
    token_w = np.where(mask, class_weights[safe_ids], 0.0)
    rows = np.arange(batch)[:, None], np.arange(steps)[None, :], safe_ids
    per_token = -token_w * log_probs[rows]
    per_sentence = per_token.sum(axis=1)
    total = float(per_sentence.sum())

    dlogits = np.exp(log_probs)
    one_hot_sub = np.zeros_like(dlogits)
    one_hot_sub[rows] = 1.0
    dlogits = (dlogits - one_hot_sub) * token_w[:, :, None]

    h_size = hs.shape[3]
    flat_concat = concat.reshape(-1, 2 * h_size)
    flat_dlogits = dlogits.reshape(-1, dlogits.shape[2])
    grads: dict[str, np.ndarray] = {
        "dense_w": flat_concat.T @ flat_dlogits,
        "dense_b": flat_dlogits.sum(axis=0),
    }
    # the head's activations and gradient are freed before backpropagation
    del concat, flat_concat
    dconcat = dlogits @ params["dense_w"].T
    d_hs = np.empty((steps, 2, batch, h_size))
    d_hs[:, 0] = dconcat[:, :, :h_size].transpose(1, 0, 2)
    d_hs[:, 1] = _reverse_within_lengths(dconcat[:, :, h_size:], reversal).transpose(1, 0, 2)
    del dconcat
    grads["wx"], grads["wh"], grads["b"] = _lstm_backward(
        d_hs, xs, hs, gates, cs, tanh_cs, params["wx"], params["wh"]
    )
    return total, grads, per_sentence


def _embed_norms(norms: list[str], emb: EmbeddingModel) -> np.ndarray:
    return np.stack([emb.w_in[emb.vocab.id_for(w)] for w in norms])


def _chunks(sentences: list, max_len: int) -> list[tuple[int, int, list]]:
    """Every sentence cut into chunks of at most ``max_len`` items with no
    overlap, as (sentence index, start, chunk); an empty sentence has none."""
    return [
        (i, start, sentence[start : start + max_len])
        for i, sentence in enumerate(sentences)
        for start in range(0, len(sentence), max_len)
    ]


def _pad(arrays: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The per-chunk arrays zero-padded along their first axis to the
    longest one and stacked, plus their lengths."""
    lengths = np.array([len(a) for a in arrays])
    out = np.zeros((len(arrays), lengths.max(), *arrays[0].shape[1:]), arrays[0].dtype)
    for row, a in enumerate(arrays):
        out[row, : len(a)] = a
    return out, lengths


def train_ner(
    data: list[LabeledSentence],
    emb: EmbeddingModel,
    config: BlstmConfig,
) -> BlstmModel:
    """Train the tagger; deterministic for a fixed seed.

    Sentences are cut and padded as ``tag_batch`` does; mini-batches follow
    a seeded shuffle of the chunks, and the gradient step uses the mean of
    per-sentence gradients over each mini-batch.
    """
    if not data:
        raise EmptyDataset("no labeled sentences")
    if emb.dim != config.dim:
        raise DimensionMismatch(
            f"embedding dim {emb.dim} != tagger dim {config.dim}"
        )
    chunks = _chunks([s.norms() for s in data], config.max_len)
    xs = [_embed_norms(norms_, emb) for _, _, norms_ in chunks]
    ys = [
        np.array([TAG_INDEX[t] for t in data[i].tags[start : start + len(norms_)]])
        for i, start, norms_ in chunks
    ]

    rng = np.random.default_rng(config.seed)
    params = init_params(config, rng)
    lr = config.learning_rate
    for _ in range(config.epochs):
        order = rng.permutation(len(chunks))
        for start in range(0, len(order), config.batch_size):
            batch_idx = order[start : start + config.batch_size]
            x, lengths = _pad([xs[i] for i in batch_idx])
            tag_ids, _ = _pad([ys[i] for i in batch_idx])
            _, grads, _ = loss_and_grads(params, x, tag_ids, lengths)
            scale = 1.0 / len(batch_idx)
            for name in params:
                params[name] -= lr * scale * grads[name]
    return BlstmModel(params=params, config=config)


#: tag_batch cuts a batch after this many chunks ...
_BATCH_CHUNKS = 64
#: ... or before a chunk longer than this multiple of the batch's shortest,
#: so that padding stays a bounded share of each forward pass
_BATCH_STRETCH = 1.5


def _length_buckets(chunks: list[tuple[int, int, list[str]]]):
    """Chunks sorted by length, cut into batches of similar lengths."""
    batch: list[tuple[int, int, list[str]]] = []
    for chunk in sorted(chunks, key=lambda c: len(c[2])):
        if batch and (
            len(batch) == _BATCH_CHUNKS
            or len(chunk[2]) > _BATCH_STRETCH * len(batch[0][2])
        ):
            yield batch
            batch = []
        batch.append(chunk)
    if batch:
        yield batch


def tag_batch(
    model: BlstmModel, emb: EmbeddingModel, sentences: list[list[Token]]
) -> list[list[tuple[str, np.ndarray]]]:
    """Per sentence, per token: (predicted tag, probability vector over the
    11 classes); an empty sentence gets an empty list.

    Sentences are split at ``max_len`` into chunks, chunks of similar length
    are padded into one batch, and each batch is one forward pass.
    """
    config = model.config
    if emb.dim != config.dim:
        raise DimensionMismatch(f"embedding dim {emb.dim} != tagger dim {config.dim}")
    chunks = _chunks([[t.norm for t in sentence] for sentence in sentences], config.max_len)
    probs = [np.empty((len(sentence), len(ALL_TAGS))) for sentence in sentences]
    for batch in _length_buckets(chunks):
        x, lengths = _pad([_embed_norms(norms_, emb) for _, _, norms_ in batch])
        log_probs, _ = forward(model.params, x, lengths, keep_cache=False)
        for row, (i, start, norms_) in enumerate(batch):
            probs[i][start : start + len(norms_)] = np.exp(log_probs[row, : len(norms_)])
    return [[(ALL_TAGS[k], p[t]) for t, k in enumerate(p.argmax(axis=1))] for p in probs]


def tag(
    model: BlstmModel, emb: EmbeddingModel, sentence: list[Token]
) -> list[tuple[str, np.ndarray]]:
    """Per-token (predicted tag, probability vector over the 11 classes)."""
    if not sentence:
        raise EmptySentence("cannot tag an empty sentence")
    return tag_batch(model, emb, [sentence])[0]


# --- entity grouping ---------------------------------------------------------


@dataclass(frozen=True)
class EntitySpan:
    entity_type: str
    value: str
    token_range: tuple[int, int]


@dataclass
class EntitySet:
    """Per-vulnerability map from entity type to extracted values."""

    cve_id: str
    entities: dict[str, list[str]] = field(
        default_factory=lambda: {t: [] for t in ENTITY_TAGS}
    )

    def values_for(self, entity_type: str) -> list[str]:
        return self.entities.get(entity_type, [])

    def words_for(self, entity_type: str) -> list[str]:
        return [w for value in self.values_for(entity_type) for w in value.split()]

    def present(self, entity_type: str) -> bool:
        return bool(self.values_for(entity_type))

    # the entity-record codec: ``{"cve_id": ..., "entities": {tag: [value]}}``

    def to_dict(self) -> dict:
        return {"cve_id": self.cve_id, "entities": {k: list(v) for k, v in self.entities.items()}}

    @classmethod
    def from_dict(cls, data) -> EntitySet:
        """Decode one record; keys other than ``cve_id`` and ``entities`` are
        ignored.  Raises MalformedRecord unless ``cve_id`` is a string and
        ``entities`` maps entity tags to lists of strings that each hold a
        word."""
        if not isinstance(data, dict):
            raise MalformedRecord(f"entity record is a {type(data).__name__}, not an object")
        cve_id, entities = data.get("cve_id"), data.get("entities")
        if not isinstance(cve_id, str):
            raise MalformedRecord(f"entity record needs a string cve_id, not {type(cve_id).__name__}")
        if not isinstance(entities, dict):
            raise MalformedRecord(f"{cve_id}: entities is a {type(entities).__name__}, not an object")
        entity_set = cls(cve_id=cve_id)
        for key, values in entities.items():
            if key not in ENTITY_TAGS:
                raise MalformedRecord(f"{cve_id}: unknown entity tag {key!r}")
            if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
                raise MalformedRecord(f"{cve_id}: {key} is not a list of strings")
            if not all(v.split() for v in values):
                raise MalformedRecord(f"{cve_id}: {key} has a value with no word")
            entity_set.entities[key].extend(values)
        return entity_set


def parse_json(text: str):
    """``json.loads`` that raises MalformedRecord on bad or too deeply
    nested JSON."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise MalformedRecord(f"bad JSON: {exc}") from exc


def extract_spans(tagged: list[tuple[Token, str]]) -> list[EntitySpan]:
    """Maximal runs of identical non-O tags become one span each."""
    spans: list[EntitySpan] = []
    run_start: int | None = None
    run_tag: str | None = None
    for idx, (_, tag_) in enumerate(tagged):
        if tag_ != run_tag:
            if run_tag is not None and run_tag != O_TAG:
                value = " ".join(tok.norm for tok, _ in tagged[run_start:idx])
                spans.append(EntitySpan(run_tag, value, (run_start, idx)))
            run_start, run_tag = idx, tag_
    if run_tag is not None and run_tag != O_TAG:
        value = " ".join(tok.norm for tok, _ in tagged[run_start:])
        spans.append(EntitySpan(run_tag, value, (run_start, len(tagged))))
    return spans


def extract_entities(tagged: list[tuple[Token, str]], cve_id: str) -> EntitySet:
    entity_set = EntitySet(cve_id=cve_id)
    for span in extract_spans(tagged):
        entity_set.entities[span.entity_type].append(span.value)
    return entity_set


@dataclass(frozen=True)
class TaggedText:
    tags: list[str]
    entities: EntitySet


def tag_texts(
    model: BlstmModel, emb: EmbeddingModel, texts: list[tuple[str, str]]
) -> list[TaggedText]:
    """(cve id, description) pairs to per-token tags and entities, with one
    ``tag_batch`` call; a description without word tokens gets no tags and
    an empty entity set."""
    token_lists = [tokenize(text) for _, text in texts]
    out = []
    for (cve_id, _), tokens, tagged in zip(
        texts, token_lists, tag_batch(model, emb, token_lists)
    ):
        tags = [t for t, _ in tagged]
        out.append(TaggedText(tags, extract_entities(list(zip(tokens, tags)), cve_id)))
    return out


# --- evaluation ---------------------------------------------------------------


@dataclass(frozen=True)
class ClassScore:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class F1Report:
    per_class: dict[str, ClassScore]
    micro: ClassScore
    macro_f1: float


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def evaluate_f1(
    predictions: list[list[str]], golds: list[list[str]]
) -> F1Report:
    """Token-level one-vs-all scores per entity class; micro over all non-O
    tokens; macro over classes with non-zero support."""
    if len(predictions) != len(golds):
        raise LengthMismatch(f"{len(predictions)} predictions vs {len(golds)} golds")
    pairs: list[tuple[str, str]] = []
    for pred_seq, gold_seq in zip(predictions, golds):
        if len(pred_seq) != len(gold_seq):
            raise LengthMismatch(
                f"sentence length {len(pred_seq)} vs {len(gold_seq)}"
            )
        pairs.extend(zip(pred_seq, gold_seq))

    per_class: dict[str, ClassScore] = {}
    micro_tp = micro_fp = micro_fn = 0
    f1_values: list[float] = []
    for cls in ENTITY_TAGS:
        tp = sum(1 for p, g in pairs if p == cls and g == cls)
        fp = sum(1 for p, g in pairs if p == cls and g != cls)
        fn = sum(1 for p, g in pairs if p != cls and g == cls)
        support = tp + fn
        precision, recall, f1 = _prf(tp, fp, fn)
        per_class[cls] = ClassScore(precision, recall, f1, support)
        micro_tp += tp
        micro_fp += fp
        micro_fn += fn
        if support > 0:
            f1_values.append(f1)
    precision, recall, f1 = _prf(micro_tp, micro_fp, micro_fn)
    micro = ClassScore(precision, recall, f1, micro_tp + micro_fn)
    macro = sum(f1_values) / len(f1_values) if f1_values else 0.0
    return F1Report(per_class=per_class, micro=micro, macro_f1=macro)


def evaluate_tagger(
    model: BlstmModel, emb: EmbeddingModel, data: list[LabeledSentence]
) -> F1Report:
    """``evaluate_f1`` of the tagger's predictions on labeled sentences."""
    tagged = tag_batch(model, emb, [list(s.tokens) for s in data])
    return evaluate_f1([[t for t, _ in p] for p in tagged], [list(s.tags) for s in data])


# --- persistence ---------------------------------------------------------------


def save_ner(model: BlstmModel, path: str | Path) -> None:
    named = split_directions(model.params)
    params = {name: named[name] for name in sorted(named)}
    _textio.write_model(path, MODEL_MARKER, _textio.config_meta(model.config), params)


def load_ner(path: str | Path) -> BlstmModel:
    def build(meta: dict[str, str], matrices: dict[str, np.ndarray]) -> BlstmModel:
        config = _textio.config_from_meta(BlstmConfig, meta)
        named = {}
        for name, shape in param_shapes(config).items():
            # biases are saved as one-row matrices
            stored = shape if len(shape) == 2 else (1, *shape)
            if matrices[name].shape != stored:
                raise ValueError(f"{name} is {matrices[name].shape}, want {stored}")
            named[name] = matrices[name].reshape(shape)
        return BlstmModel(params=stack_directions(named), config=config)

    return _textio.read_model(path, MODEL_MARKER, build)
