"""Corpus builders and reference trainers that only the tests use."""

from __future__ import annotations

import numpy as np

from vuln2rule.corpus import RawVulnerability, Vocabulary, sentences_of, vocabulary_from_sentences
from vuln2rule.embedding import (
    EmbeddingConfig,
    EmbeddingModel,
    _training_pairs,
    example_loss_and_grads,
)
from vuln2rule.errors import EmptyCorpus
from vuln2rule.rules.datalog import InteractionRule, Predicate, Term


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
