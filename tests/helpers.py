"""Corpus builders, reference trainers and oracles that only the tests use."""

from __future__ import annotations

import numpy as np

from vuln2rule.corpus import RawVulnerability, Vocabulary, sentences_of, vocabulary_from_sentences
from vuln2rule.embedding import EmbeddingConfig, EmbeddingModel, _softmax, _training_pairs
from vuln2rule.errors import EmptyCorpus
from vuln2rule.rules.datalog import InteractionRule, Predicate, Term
from vuln2rule.tagger import LOSS_WEIGHTS


def build_vocabulary(corpus: list[RawVulnerability], max_size: int) -> Vocabulary:
    if not corpus:
        raise EmptyCorpus("empty corpus")
    sentences = [ns for rec in corpus for ns in sentences_of(rec)]
    return vocabulary_from_sentences(sentences, max_size)


def synthesize_wiring_corpus(
    n_templates: int = 6,
    per_template: int = 10,
    noise_rate: float = 0.1,
    seed: int = 0,
) -> list[InteractionRule]:
    """Rules drawn from fixed wiring templates, with a fraction of rules
    carrying one flipped wiring decision.

    Template t: ``goal_t(A, B) :- pre_t(A, C), aux_t(C, B)``.  A noisy rule
    breaks the pre/aux link by giving aux a fresh first variable.
    """
    rng = np.random.default_rng(seed)
    rules = []
    for t in range(n_templates):
        for _ in range(per_template):
            a, b, c = Term.variable("A"), Term.variable("B"), Term.variable("C")
            rules.append(
                InteractionRule(
                    head=Predicate(f"goal{t}", (a, b)),
                    body=(
                        Predicate(f"pre{t}", (a, c)),
                        Predicate(f"aux{t}", (c, b)),
                    ),
                    description=f"template {t}",
                )
            )
    order = rng.permutation(len(rules))
    rules = [rules[i] for i in order]
    n_noisy = int(round(noise_rate * len(rules)))
    for idx in rng.choice(len(rules), size=n_noisy, replace=False):
        rule = rules[idx]
        noisy_aux = Predicate(rule.body[1].name, (Term.variable("N"), rule.body[1].args[1]))
        rules[idx] = InteractionRule(
            head=rule.head,
            body=(rule.body[0], noisy_aux),
            description=rule.description + " (noisy)",
        )
    return rules


def example_loss_and_grads(
    w_in: np.ndarray,
    w_out: np.ndarray,
    input_ids: list[int] | np.ndarray,
    target_id: int,
) -> tuple[float, tuple[np.ndarray, np.ndarray], np.ndarray]:
    """Cross-entropy loss and gradients for one embedding training example:
    the per-example step that ``train_embedding`` matches bit for bit.

    For CBOW ``input_ids`` are the context ids (the hidden vector is the
    average of their one-hot embeddings); for skip-gram it is the single
    center id.  Returns ``(loss, (rows, row_grads), dw_out)`` where ``rows``
    indexes the w_in rows touched by the example.
    """
    uniq, counts = np.unique(np.asarray(input_ids, dtype=np.intp), return_counts=True)
    weights = counts / len(input_ids)
    hidden = weights @ w_in[uniq]
    probs = _softmax(hidden @ w_out)
    loss = -float(np.log(probs[target_id]))
    dscores = probs
    dscores[target_id] -= 1.0
    dw_out = np.outer(hidden, dscores)
    dhidden = w_out @ dscores
    row_grads = np.outer(weights, dhidden)
    return loss, (uniq, row_grads), dw_out


def reference_mean_loss(w_in, w_out, pairs) -> float:
    """Mean of ``example_loss_and_grads``'s losses, one pair at a time."""
    total = 0.0
    for input_ids, target in pairs:
        loss, _, _ = example_loss_and_grads(w_in, w_out, input_ids, target)
        total += loss
    return total / len(pairs)


def reference_train_embedding(
    sentences: list[list[str]], config: EmbeddingConfig, vocab: Vocabulary | None = None
) -> EmbeddingModel:
    """Per-example SGD through ``example_loss_and_grads``: the oracle that
    ``train_embedding`` must match bit for bit in ``w_in`` and ``w_out``."""
    if vocab is None:
        vocab = vocabulary_from_sentences(sentences, config.max_vocab)
    pairs = _training_pairs(sentences, vocab, config.variant, config.window)
    rng = np.random.default_rng(config.seed)
    size = len(vocab)
    bound = 0.5 / config.dim
    w_in = rng.uniform(-bound, bound, size=(size, config.dim))
    w_out = np.zeros((config.dim, size))

    initial_loss = reference_mean_loss(w_in, w_out, pairs)
    lr = config.learning_rate
    for _ in range(config.epochs):
        for idx in rng.permutation(len(pairs)):
            input_ids, target = pairs[idx]
            _, (rows, row_grads), dw_out = example_loss_and_grads(
                w_in, w_out, input_ids, target
            )
            w_out -= lr * dw_out
            w_in[rows] -= lr * row_grads
    final_loss = reference_mean_loss(w_in, w_out, pairs)
    return EmbeddingModel(
        vocab=vocab,
        w_in=w_in,
        w_out=w_out,
        config=config,
        initial_loss=initial_loss,
        final_loss=final_loss,
    )


# --- the BLSTM one direction at a time ----------------------------------------
#
# The tagger runs both LSTM directions in one stacked time loop.  These are
# the per-direction functions it replaced; they take and return the saved
# ``fw_*``/``bw_*`` parameter names, and the stacked loop must match them bit
# for bit.


def sigmoid(x: np.ndarray) -> np.ndarray:
    ex = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0, ex) / (1.0 + ex)


def lstm_forward(
    x: np.ndarray, wx: np.ndarray, wh: np.ndarray, b: np.ndarray, keep_cache: bool = True
):
    """Hidden states (batch, steps, hidden) of one direction and, with
    ``keep_cache``, the per-step backprop cache (else None)."""
    batch, steps, dim = x.shape
    h_size = wh.shape[0]
    xw = (x.reshape(-1, dim) @ wx).reshape(batch, steps, -1)
    h = np.zeros((batch, h_size))
    c = np.zeros((batch, h_size))
    outputs = np.empty((batch, steps, h_size))
    cache = [] if keep_cache else None
    for t in range(steps):
        z = xw[:, t] + h @ wh + b
        gates = sigmoid(z)
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


def lstm_backward(d_out: np.ndarray, cache, wx: np.ndarray, wh: np.ndarray):
    """Gradients of one direction's ``wx``, ``wh`` and ``b``."""
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


def reverse_within_lengths(x: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Each row's first ``lengths[b]`` steps reversed, zeros after; one row
    at a time."""
    out = np.zeros_like(x)
    for b, n in enumerate(lengths):
        out[b, :n] = x[b, :n][::-1]
    return out


def blstm_forward(named: dict[str, np.ndarray], x: np.ndarray, lengths: np.ndarray):
    """``tagger.forward`` one direction at a time: log-probabilities and
    the backprop cache."""
    hs_f, cache_f = lstm_forward(x, named["fw_wx"], named["fw_wh"], named["fw_b"])
    x_rev = reverse_within_lengths(x, lengths)
    hs_r, cache_r = lstm_forward(x_rev, named["bw_wx"], named["bw_wh"], named["bw_b"])
    hs_b = reverse_within_lengths(hs_r, lengths)
    concat = np.concatenate([hs_f, hs_b], axis=2)
    logits = concat @ named["dense_w"] + named["dense_b"]
    shifted = logits - logits.max(axis=2, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=2, keepdims=True))
    return log_probs, (cache_f, cache_r, concat)


def blstm_loss_and_grads(
    named: dict[str, np.ndarray],
    x: np.ndarray,
    tag_ids: np.ndarray,
    lengths: np.ndarray,
    class_weights: np.ndarray = LOSS_WEIGHTS,
):
    """``tagger.loss_and_grads`` one direction at a time, with gradients
    under the ``fw_*``/``bw_*`` names."""
    batch, steps, _ = x.shape
    log_probs, (cache_f, cache_r, concat) = blstm_forward(named, x, lengths)
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

    h_size = named["fw_wh"].shape[0]
    flat_concat = concat.reshape(-1, 2 * h_size)
    flat_dlogits = dlogits.reshape(-1, dlogits.shape[2])
    grads = {
        "dense_w": flat_concat.T @ flat_dlogits,
        "dense_b": flat_dlogits.sum(axis=0),
    }
    dconcat = dlogits @ named["dense_w"].T
    d_hs_f = dconcat[:, :, :h_size]
    d_hs_r = reverse_within_lengths(dconcat[:, :, h_size:], lengths)
    grads["fw_wx"], grads["fw_wh"], grads["fw_b"] = lstm_backward(
        d_hs_f, cache_f, named["fw_wx"], named["fw_wh"]
    )
    grads["bw_wx"], grads["bw_wh"], grads["bw_b"] = lstm_backward(
        d_hs_r, cache_r, named["bw_wx"], named["bw_wh"]
    )
    return total, grads, per_sentence
