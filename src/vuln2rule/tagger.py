"""Bidirectional-LSTM tagger: token sequences to 11-way attack-entity tags.

The network embeds tokens (via the trained word embedding), runs a forward
and a backward LSTM, concatenates the two hidden states per position and
applies a shared dense+softmax head.  Training is mini-batch SGD over the
class-weighted cross-entropy, with backpropagation through time; class O
gets weight 1, the ten entity classes get weight 10.
"""

from __future__ import annotations

import json
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
        if self.max_len < 1 or self.hidden < 1:
            raise ValueError("max_len and hidden must be >= 1")


@dataclass
class BlstmModel:
    params: dict[str, np.ndarray]
    config: BlstmConfig


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


def param_shapes(config: BlstmConfig) -> dict[str, tuple[int, ...]]:
    h = config.hidden
    sizes = {"dim": config.dim, "h": h, "4h": 4 * h, "2h": 2 * h, "classes": len(ALL_TAGS)}
    return {name: tuple(sizes[k] for k in dims) for name, dims in PARAM_SHAPES.items()}


def init_params(config: BlstmConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    h = config.hidden
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config).items():
        if name.endswith("_b"):
            params[name] = np.zeros(shape)
        else:
            params[name] = rng.uniform(-0.1, 0.1, size=shape)
    # forget-gate bias starts at 1 to keep early memory open
    params["fw_b"][h : 2 * h] = 1.0
    params["bw_b"][h : 2 * h] = 1.0
    return params


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows; min(x, -x) is -|x| but keeps a NaN's sign
    # bit, so every input gives the same bits as evaluating each sign's
    # branch on its own elements
    ex = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0, ex) / (1.0 + ex)


def _lstm_forward(
    x: np.ndarray, wx: np.ndarray, wh: np.ndarray, b: np.ndarray, keep_cache: bool = True
):
    """Hidden states (batch, steps, hidden) and, with ``keep_cache``, the
    per-step backprop cache (else None).  The input product of every step is
    one GEMM ahead of the time loop."""
    batch, steps, dim = x.shape
    h_size = wh.shape[0]
    xw = (x.reshape(-1, dim) @ wx).reshape(batch, steps, -1)
    h = np.zeros((batch, h_size))
    c = np.zeros((batch, h_size))
    outputs = np.empty((batch, steps, h_size))
    cache = [] if keep_cache else None
    for t in range(steps):
        z = xw[:, t] + h @ wh + b
        # gate blocks i, f, g, o: one sigmoid call, then tanh over the g block
        gates = _sigmoid(z)
        np.tanh(z[:, 2 * h_size : 3 * h_size], out=gates[:, 2 * h_size : 3 * h_size])
        gi, gf, gg, go = (gates[:, k * h_size : (k + 1) * h_size] for k in range(4))
        c_new = gf * c + gi * gg
        tanh_c = np.tanh(c_new)
        h_new = go * tanh_c
        if keep_cache:
            cache.append((x[:, t], h, c, gi, gf, gg, go, tanh_c))
        h, c = h_new, c_new
        outputs[:, t] = h
    return outputs, cache


def _lstm_backward(d_out: np.ndarray, cache, wx: np.ndarray, wh: np.ndarray):
    batch, steps, h_size = d_out.shape
    dwx = np.zeros_like(wx)
    dwh = np.zeros_like(wh)
    db = np.zeros(4 * h_size)
    dh_next = np.zeros((batch, h_size))
    dc_next = np.zeros((batch, h_size))
    for t in reversed(range(steps)):
        x_t, h_prev, c_prev, gi, gf, gg, go, tanh_c = cache[t]
        dh = d_out[:, t] + dh_next
        d_go = dh * tanh_c
        dc = dc_next + dh * go * (1.0 - tanh_c**2)
        d_gf = dc * c_prev
        d_gi = dc * gg
        d_gg = dc * gi
        dc_next = dc * gf
        dz = np.concatenate(
            [
                d_gi * gi * (1.0 - gi),
                d_gf * gf * (1.0 - gf),
                d_gg * (1.0 - gg**2),
                d_go * go * (1.0 - go),
            ],
            axis=1,
        )
        dwx += x_t.T @ dz
        dwh += h_prev.T @ dz
        db += dz.sum(axis=0)
        dh_next = dz @ wh.T
    return dwx, dwh, db


def _reverse_within_lengths(x: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    for b, n in enumerate(lengths):
        out[b, :n] = x[b, :n][::-1]
    return out


def forward(
    params: dict[str, np.ndarray],
    x: np.ndarray,
    lengths: np.ndarray,
    keep_cache: bool = True,
):
    """Log-probabilities (batch, steps, classes) plus the backprop cache
    (None without ``keep_cache``).

    The backward LSTM consumes each sentence reversed within its true length,
    so trailing padding never influences real positions.
    """
    hs_f, cache_f = _lstm_forward(
        x, params["fw_wx"], params["fw_wh"], params["fw_b"], keep_cache
    )
    x_rev = _reverse_within_lengths(x, lengths)
    hs_r, cache_r = _lstm_forward(
        x_rev, params["bw_wx"], params["bw_wh"], params["bw_b"], keep_cache
    )
    hs_b = _reverse_within_lengths(hs_r, lengths)
    concat = np.concatenate([hs_f, hs_b], axis=2)
    logits = concat @ params["dense_w"] + params["dense_b"]
    shifted = logits - logits.max(axis=2, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=2, keepdims=True))
    return log_probs, (cache_f, cache_r, concat, lengths) if keep_cache else None


def loss_and_grads(
    params: dict[str, np.ndarray],
    x: np.ndarray,
    tag_ids: np.ndarray,
    lengths: np.ndarray,
    class_weights: np.ndarray = LOSS_WEIGHTS,
):
    """Weighted cross-entropy summed over real positions, its parameter
    gradients, and the per-sentence loss vector."""
    batch, steps, _ = x.shape
    log_probs, (cache_f, cache_r, concat, _) = forward(params, x, lengths)
    mask = np.arange(steps)[None, :] < lengths[:, None]
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

    h_size = params["fw_wh"].shape[0]
    flat_concat = concat.reshape(-1, 2 * h_size)
    flat_dlogits = dlogits.reshape(-1, dlogits.shape[2])
    grads: dict[str, np.ndarray] = {
        "dense_w": flat_concat.T @ flat_dlogits,
        "dense_b": flat_dlogits.sum(axis=0),
    }
    dconcat = dlogits @ params["dense_w"].T
    d_hs_f = dconcat[:, :, :h_size]
    d_hs_r = _reverse_within_lengths(dconcat[:, :, h_size:], lengths)
    grads["fw_wx"], grads["fw_wh"], grads["fw_b"] = _lstm_backward(
        d_hs_f, cache_f, params["fw_wx"], params["fw_wh"]
    )
    grads["bw_wx"], grads["bw_wh"], grads["bw_b"] = _lstm_backward(
        d_hs_r, cache_r, params["bw_wx"], params["bw_wh"]
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
    params = {name: model.params[name] for name in sorted(model.params)}
    _textio.write_model(path, MODEL_MARKER, _textio.config_meta(model.config), params)


def load_ner(path: str | Path) -> BlstmModel:
    def build(meta: dict[str, str], matrices: dict[str, np.ndarray]) -> BlstmModel:
        config = _textio.config_from_meta(BlstmConfig, meta)
        params = {}
        for name, shape in param_shapes(config).items():
            # biases are saved as one-row matrices
            stored = shape if len(shape) == 2 else (1, *shape)
            if matrices[name].shape != stored:
                raise ValueError(f"{name} is {matrices[name].shape}, want {stored}")
            params[name] = matrices[name].reshape(shape)
        return BlstmModel(params=params, config=config)

    return _textio.read_model(path, MODEL_MARKER, build)
