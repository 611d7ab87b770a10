"""Bidirectional-LSTM tagger: token sequences to 11-way attack-entity tags.

The network embeds tokens (via the trained word embedding), runs a forward
and a backward LSTM (stacked, in one time loop), concatenates the two hidden
states per position and applies a shared dense+softmax head.  Training is mini-batch SGD over the
class-weighted cross-entropy, with backpropagation through time; class O
gets weight 1, the ten entity classes get weight 10.

The time loop runs on the rows of a batch sorted longest first, and each
step only on the rows still inside their sentence (at least two).  The
inputs, their products, the gates, the states, the cells and the state
gradients are packed: one row per such live (step, row) position,
time-major, with a zero block of initial states and cells first.  The input
GEMM runs over those rows only, and backpropagation forms the weight
gradients after its time loop, one product per direction over them.  Only
the dense head works on the padded batch, which one scatter fills from the
packed states and one gather reads the state gradients back from.  Real
positions get the bits of running the directions one after the other over
the whole padded batch, and a row's states have the same bits in any batch
of two rows or more; padded positions get finite log-probabilities.
Gradients and trained weights differ from the full-batch loop's by rounding
only: each step's ``dz @ wh^T`` covers only the live rows, and the weight
gradients sum over all steps in one product, so they differ also when no
row is padded.

Tagging gives each token its most probable tag and that tag's probability,
filled batch by batch from the forward pass; ``extract_entities`` groups
each maximal run of one non-O tag into one entity value.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import accumulate, groupby
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import _textio
from ._textio import check_settings, setting
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
    max_len: int = setting(150, "at least 1")
    dim: int = setting(100, "at least 1")
    hidden: int = setting(100, "at least 1")
    epochs: int = setting(100, "at least 1")
    batch_size: int = setting(32, "at least 1")
    learning_rate: float = setting(0.01, "a finite number > 0")
    seed: int = setting(0, "at least 0")

    def __post_init__(self):
        check_settings(self)


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


def _live_runs(lengths: list[int], steps: int) -> list[tuple[int, int, int]]:
    """The time steps cut into runs that share a live row count, as
    (first step, end step, rows), for ``lengths`` sorted longest first.

    A step's rows are those still inside their sentence, but at least two
    when the batch has as many: one row takes numpy's matrix-vector path
    for ``h @ wh``, whose bits differ from those of every product of 2 to
    64 rows, so that a row keeps its bits whatever batch it is in."""
    floor = min(2, len(lengths))
    runs, start = [], 0
    # all n first rows are live until the n-th longest row ends
    for n in range(len(lengths), floor, -1):
        stop = min(lengths[n - 1], steps)
        if stop > start:
            runs.append((start, stop, n))
            start = stop
    if steps > start:
        runs.append((start, steps, floor))
    return runs


def _packed_index(
    runs: list[tuple[int, int, int]], batch: int
) -> tuple[np.ndarray, np.ndarray]:
    """The packed layout of a batch, as the (step, row) of each of its
    positions: one per live position of ``runs`` (rows sorted longest
    first), time-major, so that each run's positions are one contiguous
    (steps, rows) block."""
    counts = np.repeat([n for _, _, n in runs], [stop - start for start, stop, _ in runs])
    return np.nonzero(np.arange(batch) < counts[:, None])


def _run_views(packed: np.ndarray, runs: list[tuple[int, int, int]]) -> list[np.ndarray]:
    """Each run's (2, run steps, rows, ...) view of ``packed`` (2,
    positions, ...), an array in the layout of ``_packed_index``."""
    views, offset = [], 0
    for start, stop, n in runs:
        end = offset + (stop - start) * n
        views.append(packed[:, offset:end].reshape(2, stop - start, n, -1))
        offset = end
    return views


def _state_starts(runs: list[tuple[int, int, int]]) -> list[int]:
    """The first row of each block of a batch's states: a zero block of
    initial states, one per row of the first step, then one block per
    step in the layout of ``_packed_index``, and last the number of rows.
    Step ``t`` reads its previous states from the first rows of block
    ``t`` and writes its own to block ``t + 1``."""
    rows = [n for start, stop, n in runs for _ in range(start, stop)]
    return list(accumulate(rows[:1] + rows, initial=0))


def _lstm_forward(
    xw: np.ndarray,
    wh: np.ndarray,
    b: np.ndarray,
    hs: np.ndarray,
    cs: np.ndarray,
    tanh_cs: np.ndarray,
    runs: list[tuple[int, int, int]],
    kept: bool,
) -> None:
    """Both LSTM directions in one time loop, from the packed input products
    ``xw`` (2, positions, 4 * hidden) of ``_packed_index``, with each step's
    products one ``matmul`` over the direction axis.  Rows are sorted
    longest first, and each step of a run of ``_live_runs`` computes its
    first ``rows`` rows only: the step's block of ``xw``.

    Fills ``hs`` (2, zero + positions, hidden) with a zero block of initial
    states, one per row of the first step, then the states in the layout of
    ``xw`` (the blocks of ``_state_starts``), and overwrites ``xw`` with the
    gates.  When ``kept``, ``cs`` gets the cells in the layout of ``hs`` and
    ``tanh_cs`` their tanh in that of ``xw``; else each is one block of the
    first step's rows, which every step overwrites.  A step's previous
    states and cells are the first rows of the step before's."""
    h_size = wh.shape[1]
    zero = hs.shape[1] - xw.shape[1]
    b = b[:, None, :]
    hs[:, :zero] = cs[:, :zero] = 0.0
    h_prev, c = hs[:, :zero], cs[:, :zero]
    z_all = np.empty((2, zero, 4 * h_size))
    g_block = slice(2 * h_size, 3 * h_size)
    packed = [xw, hs[:, zero:]] + ([cs[:, zero:], tanh_cs] if kept else [])
    for (start, stop, n), xw_n, hs_n, *cells in zip(
        runs, *(_run_views(a, runs) for a in packed)
    ):
        z = z_all[:, :n]
        h_prev, c, tanh_c = h_prev[:, :n], c[:, :n], tanh_cs[:, :n]
        for k in range(stop - start):
            c_prev = c
            if kept:
                c, tanh_c = cells[0][:, k], cells[1][:, k]
            # z = xw + h @ wh + b, summed in that order
            gates, h = xw_n[:, k], hs_n[:, k]
            np.matmul(h_prev, wh, out=z)
            z += gates
            z += b
            # gate blocks i, f, g, o: one sigmoid call, then tanh over the g block
            _sigmoid(z, out=gates)
            np.tanh(z[..., g_block], out=gates[..., g_block])
            gi, gf, gg, go = (gates[..., i * h_size : (i + 1) * h_size] for i in range(4))
            # without the cache c is c_prev, which gf * c_prev has read by now
            np.add(gf * c_prev, gi * gg, out=c)
            np.multiply(go, np.tanh(c, out=tanh_c), out=h)
            h_prev = h


def _lstm_backward(
    d_hs: np.ndarray,
    xp: np.ndarray,
    hs: np.ndarray,
    gates_all: np.ndarray,
    cs: np.ndarray,
    tanh_cs: np.ndarray,
    wh: np.ndarray,
    runs: list[tuple[int, int, int]],
    positions: tuple[np.ndarray, np.ndarray],
):
    """Gradients of ``wx``, ``wh`` and ``b`` from the packed state
    gradients ``d_hs`` (2, positions, hidden), through both directions in
    one time loop over the runs of ``_live_runs``.  ``xp`` (2, positions,
    dim) are the packed inputs, ``positions`` the (step, row) of each packed
    position, and the states, packed gates, cells and their tanh are those
    ``_lstm_forward`` kept.  A skipped row's gradients are zero, so each
    step works on its live rows alone.

    Each step writes its gate gradients ``dz`` over its gates, which it has
    just read; after the loop the weight gradients are one product (or sum)
    per direction over the packed positions: ``xp^T dz``, ``h_prev^T dz``
    with the previous states gathered in packed order, and ``sum(dz)``."""
    h_size = wh.shape[1]
    zero = hs.shape[1] - xp.shape[1]
    starts = _state_starts(runs)
    wh_t = wh.transpose(0, 2, 1)
    # rows join as the loop walks back in time, with the zero gradients
    # these buffers hold until then
    dh_all = np.zeros((2, zero, h_size))
    dc_all = np.zeros((2, zero, h_size))
    dz_all = np.zeros((2, zero, 4 * h_size))
    one_minus_all = np.empty_like(dz_all)
    views = zip(runs, *(_run_views(a, runs) for a in (gates_all, cs[:, zero:], tanh_cs, d_hs)))
    for (start, stop, n), gates_n, cs_n, tanh_n, d_hs_n in reversed(list(views)):
        dh_next, dc_next = dh_all[:, :n], dc_all[:, :n]
        dz, one_minus = dz_all[:, :n], one_minus_all[:, :n]
        d_gi, d_gf, d_gg, d_go = (dz[..., k * h_size : (k + 1) * h_size] for k in range(4))
        # the cells before the run's first step: the first rows of the block before
        c_first = cs[:, starts[start] : starts[start] + n]
        for k in reversed(range(stop - start)):
            gates, tanh_c = gates_n[:, k], tanh_n[:, k]
            gi, gf, gg, go = (gates[..., i * h_size : (i + 1) * h_size] for i in range(4))
            dh = d_hs_n[:, k] + dh_next
            dc = dc_next + dh * go * (1.0 - tanh_c**2)
            np.multiply(dc, gf, out=dc_next)
            # each gate's gradient through its activation: the i, f and o blocks
            # as (upstream * gate) * (1 - gate) over the whole row, then the g
            # block over its own
            np.multiply(dc, gg, out=d_gi)
            np.multiply(dc, cs_n[:, k - 1] if k else c_first, out=d_gf)
            np.multiply(dh, tanh_c, out=d_go)
            dz *= gates
            dz *= np.subtract(1.0, gates, out=one_minus)
            np.multiply(dc * gi, 1.0 - gg**2, out=d_gg)
            np.matmul(dz, wh_t, out=dh_next)
            gates[...] = dz
    t, j = positions
    # h_prev of (step t, row j) is row j of block t
    h_prev = np.take(hs, np.asarray(starts)[t] + j, axis=1)
    dz = gates_all
    dwx = np.matmul(xp.transpose(0, 2, 1), dz)
    dwh = np.matmul(h_prev.transpose(0, 2, 1), dz)
    return dwx, dwh, dz.sum(axis=1)


def _head_rows(
    ordered: np.ndarray,
    order: np.ndarray,
    positions: tuple[np.ndarray, np.ndarray],
    steps: int,
) -> np.ndarray:
    """Each packed position's row among the head's batch * steps rows,
    (row, step) in the caller's order, as a (2, positions) array: the
    forward direction's at its step, the backward one's at its step
    reversed within the row's length.  A padded position's is the spare
    row ``batch * steps``.  ``order`` sorts the rows longest first, and
    ``ordered`` holds their lengths in that order."""
    t, j = positions
    base = order[j] * steps
    return np.where(t < ordered[j], [base + t, base + ordered[j] - 1 - t], len(order) * steps)


def _to_head(packed: np.ndarray, head: np.ndarray, batch: int, steps: int) -> np.ndarray:
    """The (batch, steps, 2 * features) head input from the packed (2,
    positions, features), by one scatter through ``head`` (``_head_rows``):
    the two directions side by side, and zeros at the padded positions."""
    features = packed.shape[2]
    out = np.zeros((batch * steps + 1, 2, features))
    # as rows of ``features``, (row, step) holds its forward state at 2 *
    # (row * steps + step) and its backward state after it
    out.reshape(-1, features)[2 * head + [[0], [1]]] = packed
    return out[:-1].reshape(batch, steps, 2 * features)


def _from_head(padded: np.ndarray, head: np.ndarray) -> np.ndarray:
    """The inverse of ``_to_head``: the packed (2, positions, features) from
    the contiguous (batch, steps, 2 * features), by one gather, with zeros
    at the padded positions."""
    flat = padded.reshape(-1, padded.shape[2] // 2)
    packed = np.take(flat, 2 * head + [[0], [1]], axis=0, mode="clip")
    packed[head == len(flat) // 2] = 0.0
    return packed


def _carve(*shapes: tuple[int, ...]) -> list[np.ndarray]:
    """Uninitialized float arrays of the given shapes, as views into one
    allocation.

    A forward pass keeps several arrays the size of its batch.  Taken from
    one allocation, the memory goes back to the allocator as one block that
    the next batch reuses.  As separate arrays, their pages went back to the
    system after many training batches, and the next batch faulted them in
    again: about 1,100 page faults for such a batch at demo shape."""
    starts = list(accumulate((math.prod(shape) for shape in shapes), initial=0))
    block = np.empty(starts[-1])
    return [block[a:b].reshape(shape) for a, b, shape in zip(starts, starts[1:], shapes)]


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
    so trailing padding never influences real positions.  The loop runs on
    the rows sorted longest first, and each step only on the rows still
    inside their sentence (``_live_runs``).  The inputs, their products,
    the gates, the states and the cells are packed (``_packed_index``), one
    row per live (step, row) position, and the input products are one GEMM
    per direction over those rows alone.  Only the head works on the padded
    batch: one scatter puts each real position's two states at its (row,
    step) in the caller's order, with zeros at the padded positions.  A
    row's states have the bits they have in any other batch of two rows or
    more (the head's product over a row's positions may round otherwise at
    another padded length).
    """
    batch, steps, dim = x.shape
    h_size = params["wh"].shape[1]
    order = np.argsort(-lengths, kind="stable")
    ordered = lengths[order]
    runs = _live_runs(ordered.tolist(), steps)
    positions = _packed_index(runs, batch)
    live = len(positions[0])
    # the states and cells start with a zero block, one row per row of the
    # first step
    zero = runs[0][2] if runs else 0
    rows = zero + live
    hs = np.empty((2, rows, h_size))
    xp, xw, cs, tanh_cs = _carve(
        (2, live, dim),
        (2, live, 4 * h_size),
        (2, rows if keep_cache else zero, h_size),
        (2, live if keep_cache else zero, h_size),
    )
    head = _head_rows(ordered, order, positions, steps)
    # each packed position reads its input at its head row, and exact zeros
    # where it is padded; "clip" keeps the spare row in range, and writes
    # into xp directly where the default mode buffers a copy of it
    np.take(x.reshape(-1, dim), head, axis=0, out=xp, mode="clip")
    xp[head == batch * steps] = 0.0
    # each row of a GEMM is its own dot products, so the packed row order
    # leaves the bits as they are
    np.matmul(xp, params["wx"], out=xw)
    _lstm_forward(xw, params["wh"], params["b"], hs, cs, tanh_cs, runs, keep_cache)
    if not keep_cache:
        del xp, xw, cs, tanh_cs
    concat = _to_head(hs[:, zero:], head, batch, steps)
    logits = concat @ params["dense_w"] + params["dense_b"]
    shifted = logits - logits.max(axis=2, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=2, keepdims=True))
    if not keep_cache:
        return log_probs, None
    return log_probs, (xp, hs, xw, cs, tanh_cs, concat, (runs, positions, head))


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
    log_probs, (xp, hs, gates, cs, tanh_cs, concat, packing) = forward(params, x, lengths)
    runs, positions, head = packing
    mask = np.arange(steps) < lengths[:, None]
    safe_ids = np.where(mask, tag_ids, 0)
    token_w = np.where(mask, class_weights[safe_ids], 0.0)
    rows = np.arange(batch)[:, None], np.arange(steps)[None, :], safe_ids
    per_token = -token_w * log_probs[rows]
    per_sentence = per_token.sum(axis=1)
    total = float(per_sentence.sum())

    dlogits = np.exp(log_probs)
    dlogits[rows] -= 1.0
    dlogits *= token_w[:, :, None]

    h_size = hs.shape[2]
    flat_concat = concat.reshape(-1, 2 * h_size)
    flat_dlogits = dlogits.reshape(-1, dlogits.shape[2])
    grads: dict[str, np.ndarray] = {
        "dense_w": flat_concat.T @ flat_dlogits,
        "dense_b": flat_dlogits.sum(axis=0),
    }
    # the head's activations and gradient are freed before backpropagation
    del concat, flat_concat
    # the state gradients in the packed layout
    d_hs = _from_head(dlogits @ params["dense_w"].T, head)
    grads["wx"], grads["wh"], grads["b"] = _lstm_backward(
        d_hs, xp, hs, gates, cs, tanh_cs, params["wh"], runs, positions
    )
    return total, grads, per_sentence


def _embed_norms(norms: list[str], emb: EmbeddingModel) -> np.ndarray:
    return emb.w_in[[emb.vocab.id_for(w) for w in norms]]


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
    chunks = _chunks([s.norms() for s in data], config.max_len)
    if not chunks:
        raise EmptyDataset("no labeled sentence has a token")
    if emb.dim != config.dim:
        raise DimensionMismatch(
            f"embedding dim {emb.dim} != tagger dim {config.dim}"
        )
    # word ids, not embedded rows: a mini-batch gathers its rows as it pads
    ids = [np.array([emb.vocab.id_for(w) for w in norms_]) for _, _, norms_ in chunks]
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
            x, lengths = _pad([emb.w_in[ids[i]] for i in batch_idx])
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
) -> list[list[tuple[str, float]]]:
    """Per sentence, per token: (predicted tag, probability of that tag);
    an empty sentence gets an empty list.

    Sentences are split at ``max_len`` into chunks, chunks of similar length
    are padded into one batch, and each batch is one forward pass.
    """
    config = model.config
    if emb.dim != config.dim:
        raise DimensionMismatch(f"embedding dim {emb.dim} != tagger dim {config.dim}")
    chunks = _chunks([[t.norm for t in sentence] for sentence in sentences], config.max_len)
    tagged = [[None] * len(sentence) for sentence in sentences]
    for batch in _length_buckets(chunks):
        x, lengths = _pad([_embed_norms(norms_, emb) for _, _, norms_ in batch])
        log_probs, _ = forward(model.params, x, lengths, keep_cache=False)
        probs = np.exp(log_probs)
        best, top = probs.argmax(axis=2).tolist(), probs.max(axis=2).tolist()
        for row, (i, start, norms_) in enumerate(batch):
            n = len(norms_)
            tags = [ALL_TAGS[k] for k in best[row][:n]]
            tagged[i][start : start + n] = zip(tags, top[row][:n])
    return tagged


def tag(
    model: BlstmModel, emb: EmbeddingModel, sentence: list[Token]
) -> list[tuple[str, float]]:
    """Per-token (predicted tag, probability of that tag)."""
    if not sentence:
        raise EmptySentence("cannot tag an empty sentence")
    return tag_batch(model, emb, [sentence])[0]


# --- entity grouping ---------------------------------------------------------


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


def extract_entities(tagged: Iterable[tuple[Token, str]], cve_id: str) -> EntitySet:
    """Each maximal run of one non-O tag becomes one value of that entity:
    the run's token norms joined by spaces, in text order."""
    entity_set = EntitySet(cve_id=cve_id)
    for tag_, run in groupby(tagged, key=itemgetter(1)):
        if tag_ != O_TAG:
            entity_set.entities[tag_].append(" ".join(token.norm for token, _ in run))
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
        out.append(TaggedText(tags, extract_entities(zip(tokens, tags), cve_id)))
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
