"""Corpus builders, reference trainers and oracles that only the tests use."""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

import numpy as np

from vuln2rule.corpus import (
    RawVulnerability,
    Token,
    Vocabulary,
    sentences_of,
    tokenize,
    vocabulary_from_sentences,
)
from vuln2rule.completer import (
    FEATURE_ENTITIES,
    build_feature_vector,
    map_to_cluster,
    predict_missing,
)
from vuln2rule.embedding import EmbeddingConfig, EmbeddingModel, _training_pairs
from vuln2rule.errors import EmptyCorpus, EmptyValue, MissingCoreEntity, RangeRestrictionViolation
from vuln2rule.rules.datalog import VARIABLE, WILDCARD, InteractionRule, Predicate, Term, quote
from vuln2rule.rules.schema import MappingTables, PredicateSchema, SchemaLexicon
from vuln2rule.rules.synthesis import (
    CORE_ENTITIES,
    PLACEHOLDER_CVE_ID,
    FailureKind,
    GenerationFailure,
    GeneratorModels,
    UnmappableClusterError,
    _entity_constant,
    _first_value,
    _port_constant,
    create_structure,
    wire_variables,
)
from vuln2rule.rules.wiring import Slot, UnionFind, WiringMatrix
from vuln2rule.tagger import LOSS_WEIGHTS, O_TAG, EntitySet, extract_entities, tag


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


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


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


def reference_extract_spans(tagged: list[tuple[Token, str]]) -> list[tuple[str, str, tuple]]:
    """Maximal runs of identical non-O tags as (tag, value, token range),
    found by the index loop that ``tagger.extract_entities`` replaced."""
    spans = []
    run_start: int | None = None
    run_tag: str | None = None
    for idx, (_, tag_) in enumerate(tagged):
        if tag_ != run_tag:
            if run_tag is not None and run_tag != O_TAG:
                value = " ".join(tok.norm for tok, _ in tagged[run_start:idx])
                spans.append((run_tag, value, (run_start, idx)))
            run_start, run_tag = idx, tag_
    if run_tag is not None and run_tag != O_TAG:
        value = " ".join(tok.norm for tok, _ in tagged[run_start:])
        spans.append((run_tag, value, (run_start, len(tagged))))
    return spans


# --- rule synthesis over skeleton objects ----------------------------------------
#
# The reference for ``rules.synthesis``: structure creation names every
# variable slot ``V<n>``, and the three steps hand each other a skeleton
# object.  The module's plain-atom-list steps must give the same rules and
# traces.


@dataclass
class SkeletonAtom:
    schema: PredicateSchema
    terms: list[Term | None]


@dataclass
class RuleSkeleton:
    head: SkeletonAtom
    body: list[SkeletonAtom]
    description: str = ""
    trace: dict[str, str] = field(default_factory=dict)

    def atoms(self) -> list[SkeletonAtom]:
        return [self.head, *self.body]


def reference_create_structure(
    clusters: dict[str, str], mapping: MappingTables, lexicon: SchemaLexicon
) -> RuleSkeleton:
    for key in CORE_ENTITIES:
        if not clusters.get(key):
            raise MissingCoreEntity(key)
    impact = mapping.impact.get(clusters["impact"])
    if impact is None:
        raise UnmappableClusterError(f"impact label {clusters['impact']!r} has no mapping")
    vector = mapping.vector.get(clusters["vector"])
    if vector is None:
        raise UnmappableClusterError(f"vector label {clusters['vector']!r} has no mapping")
    means = mapping.means.get(clusters["means"])
    if means is None:
        raise UnmappableClusterError(f"means label {clusters['means']!r} has no mapping")

    counter = itertools.count(1)

    def instantiate(name: str) -> SkeletonAtom:
        schema = lexicon.require(name)
        terms: list[Term | None] = []
        for pos in range(schema.arity):
            if pos in schema.constant_slots:
                sort = schema.arg_sorts[pos]
                if sort == "range":
                    terms.append(Term.constant(vector.range_constant))
                elif sort == "consequence":
                    terms.append(Term.constant(impact.consequence))
                else:
                    terms.append(None)
            else:
                terms.append(Term.variable(f"V{next(counter)}"))
        return SkeletonAtom(schema, terms)

    head = instantiate(impact.head)
    body = [instantiate(name) for name in means.body + vector.support]
    return RuleSkeleton(head=head, body=body)


def reference_assign_constants(
    skeleton: RuleSkeleton, entities: EntitySet, cve_id: str
) -> RuleSkeleton:
    fillers = {
        "vulnid": lambda: Term.constant(quote(cve_id, "'")),
        "product": lambda: _entity_constant(_first_value(entities, "PLATFORM")),
        "protocol": lambda: _entity_constant(_first_value(entities, "PROTOCOL")),
        "port": lambda: _port_constant(_first_value(entities, "PORT")),
    }
    for atom in skeleton.atoms():
        for pos, term in enumerate(atom.terms):
            if term is not None:
                continue
            sort = atom.schema.arg_sorts[pos]
            filler = fillers.get(sort)
            filled = filler() if filler else Term.wildcard()
            atom.terms[pos] = filled
            if filled.kind == WILDCARD:
                skeleton.trace[f"{atom.schema.name}#{pos}"] = f"no entity for sort {sort!r}"
            else:
                skeleton.trace[f"{atom.schema.name}#{pos}"] = f"{sort} <- {filled.text}"
    return skeleton


def reference_hint_for(schema: PredicateSchema, pos: int) -> str:
    hint = schema.var_hints[pos]
    if hint and (hint[0].isupper() or hint[0] == "_"):
        return hint
    sort = re.sub(r"\W", "", schema.arg_sorts[pos])
    return sort[:1].upper() + sort[1:] if sort else "X"


def reference_wire_variables(
    slots: list[Slot], sorts: list[str], matrix: WiringMatrix, threshold: float
) -> list[list[int]]:
    uf = UnionFind(len(slots))
    for i in range(len(slots)):
        for j in range(i + 1, len(slots)):
            if slots[i] == slots[j] or sorts[i] != sorts[j]:
                continue
            prob = reference_prob(matrix, slots[i], slots[j])
            if prob is not None and prob >= threshold:
                uf.union(i, j)
    return sorted(uf.groups().values(), key=min)


def reference_wire_rule(
    skeleton: RuleSkeleton, matrix: WiringMatrix, threshold: float
) -> InteractionRule:
    atoms = skeleton.atoms()
    terms = [list(atom.terms) for atom in atoms]
    nodes: list[tuple[int, int]] = []
    for ai, atom in enumerate(atoms):
        for pos, term in enumerate(atom.terms):
            if term is None:
                raise ValueError(f"{atom.schema.name}#{pos}: constant slot not assigned")
            if term.kind == VARIABLE:
                nodes.append((ai, pos))
    schemas = [atoms[ai].schema for ai, _ in nodes]
    slots = [Slot(s.name, s.arity, pos) for s, (_, pos) in zip(schemas, nodes)]
    sorts = [s.arg_sorts[pos] for s, (_, pos) in zip(schemas, nodes)]
    taken: set[str] = set()
    for group in reference_wire_variables(slots, sorts, matrix, threshold):
        base = name = reference_hint_for(schemas[group[0]], nodes[group[0]][1])
        n = 1
        while name in taken:
            n += 1
            name = f"{base}{n}"
        taken.add(name)
        for m in group:
            ai, pos = nodes[m]
            terms[ai][pos] = Term.variable(name)
    predicates = [Predicate(atom.schema.name, tuple(t)) for atom, t in zip(atoms, terms)]
    rule = InteractionRule(
        head=predicates[0],
        body=tuple(predicates[1:]),
        description=skeleton.description,
        trace=dict(skeleton.trace),
    )
    rule.check_range_restriction()
    return rule


# --- the per-record serve steps -------------------------------------------------
#
# The serve path memoizes each vocabulary word's unit row, keeps slots as
# tuples and reads wiring probabilities as Python floats.  These are the
# forms it replaced; the library must give the same bits, groups and
# strings.


def reference_normalize(word: str) -> str:
    if any(ch.isdigit() for ch in word):
        return word
    return word.lower()


def reference_succinct_vector(words: list[str], emb: EmbeddingModel) -> np.ndarray:
    acc = np.zeros(emb.dim)
    count = 0
    for word in words:
        vec = emb.w_in[emb.vocab.id_for(word)]
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            continue
        acc = acc + vec / norm
        count += 1
    if count == 0:
        return np.zeros(emb.dim)
    return acc / count


def reference_build_feature_vector(entities: EntitySet, emb: EmbeddingModel) -> np.ndarray:
    return np.concatenate(
        [reference_succinct_vector(entities.words_for(t), emb) for t in FEATURE_ENTITIES]
    )


def with_zeroed(features: np.ndarray, entity_type: str) -> np.ndarray:
    """A copy of a feature vector with ``entity_type``'s block zeroed."""
    dim = len(features) // len(FEATURE_ENTITIES)
    i = FEATURE_ENTITIES.index(entity_type)
    masked = features.copy()
    masked[i * dim : (i + 1) * dim] = 0.0
    return masked


def reference_prob(matrix: WiringMatrix, a: Slot, b: Slot) -> float | None:
    ia, ib = matrix.index.get(a), matrix.index.get(b)
    if ia is None or ib is None:
        return None
    value = matrix.probs[ia, ib]
    return None if np.isnan(value) else float(value)


@dataclass(frozen=True, order=True)
class ReferenceSlot:
    """The slot as a frozen, ordered dataclass."""

    name: str
    arity: int
    pos: int


# --- generation, one record at a time ---------------------------------------------
#
# The serve path builds each (impact, vector, means) triple's rule template
# once per input file and fills in each record's constants.  This is the
# path it replaced: structure, constants and wiring redone for every
# record, with the range check on the finished rule.  Both must give the
# same rule bytes, traces and failures.


def reference_per_record_assign_constants(
    atoms, entities: EntitySet, cve_id: str
) -> dict[str, str]:
    fillers = {
        "vulnid": lambda: Term.constant(quote(cve_id, "'")),
        "product": lambda: _entity_constant(_first_value(entities, "PLATFORM")),
        "protocol": lambda: _entity_constant(_first_value(entities, "PROTOCOL")),
        "port": lambda: _port_constant(_first_value(entities, "PORT")),
    }
    filled: dict[str, tuple[Term, str]] = {}
    trace: dict[str, str] = {}
    for schema, terms in atoms:
        for pos in sorted(schema.constant_slots):
            if terms[pos] is not None:
                continue
            sort = schema.arg_sorts[pos]
            if sort not in filled:
                filler = fillers.get(sort)
                term = filler() if filler else Term.wildcard()
                if term.kind == WILDCARD:
                    filled[sort] = term, f"no entity for sort {sort!r}"
                else:
                    filled[sort] = term, f"{sort} <- {term.text}"
            terms[pos], trace[f"{schema.name}#{pos}"] = filled[sort]
    return trace


def reference_per_record_wire_rule(
    atoms, matrix: WiringMatrix, threshold: float, description: str, trace: dict[str, str]
) -> InteractionRule:
    terms = [list(atom_terms) for _, atom_terms in atoms]
    nodes = []
    for ai, (schema, atom_terms) in enumerate(atoms):
        for pos in sorted(schema.constant_slots):
            if atom_terms[pos] is None:
                raise ValueError(f"{schema.name}#{pos}: constant slot not assigned")
        nodes += [(ai, node) for node in schema.variable_nodes]
    slots = [node.slot for _, node in nodes]
    sorts = [node.sort for _, node in nodes]
    taken: set[str] = set()
    for group in wire_variables(slots, sorts, matrix, threshold):
        base = name = nodes[group[0]][1].hint
        n = 1
        while name in taken:
            n += 1
            name = f"{base}{n}"
        taken.add(name)
        variable = Term.variable(name)
        for m in group:
            ai, node = nodes[m]
            terms[ai][node.pos] = variable
    predicates = [Predicate(schema.name, tuple(t)) for (schema, _), t in zip(atoms, terms)]
    rule = InteractionRule(
        head=predicates[0], body=tuple(predicates[1:]), description=description, trace=dict(trace)
    )
    rule.check_range_restriction()
    return rule


def reference_generate(
    description: str, models: GeneratorModels, gold_entities: EntitySet | None = None,
    cve_id: str | None = None,
) -> InteractionRule | GenerationFailure:
    if gold_entities is not None:
        entity_set = gold_entities
        cve_id = cve_id or gold_entities.cve_id
    else:
        cve_id = cve_id or PLACEHOLDER_CVE_ID
        tokens = tokenize(description)
        if tokens:
            tagged = tag(models.tagger, models.embedding, tokens)
            pairs = list(zip(tokens, [t for t, _ in tagged]))
            entity_set = extract_entities(pairs, cve_id)
        else:
            entity_set = EntitySet(cve_id=cve_id)

    if not any(entity_set.entities.values()):
        return GenerationFailure(
            FailureKind.MISSING_CORE_ENTITY, "nothing extracted from the description"
        )
    means_text = " ".join(entity_set.values_for("MEANS")).lower()
    if "unspecified vulnerabilit" in means_text:
        return GenerationFailure(FailureKind.UNSPECIFIED_VULNERABILITY, means_text)

    labels: dict[str, str] = {}
    trace: dict[str, str] = {}
    features = None
    for key, tag_name in (("means", "MEANS"), ("impact", "IMPACT"), ("vector", "VECTOR")):
        if entity_set.present(tag_name):
            value = entity_set.values_for(tag_name)[0]
            try:
                _, label = map_to_cluster(models.discretization[tag_name], value.split(), models.embedding)
            except EmptyValue:
                return GenerationFailure(
                    FailureKind.MISSING_CORE_ENTITY, f"{tag_name} value {value!r} has no word"
                )
            labels[key] = label
            trace[key] = f"entity value {value!r} -> {label}"
        else:
            if features is None:
                features = build_feature_vector(entity_set, models.embedding)
            ranked = predict_missing(models.completion[tag_name], features, top_k=1)
            labels[key] = ranked[0][0]
            trace[key] = f"completed -> {ranked[0][0]} (p={ranked[0][1]:.3f})"

    try:
        atoms = create_structure(labels, models.mapping, models.lexicon)
    except MissingCoreEntity as exc:
        return GenerationFailure(FailureKind.MISSING_CORE_ENTITY, str(exc))
    except UnmappableClusterError as exc:
        return GenerationFailure(FailureKind.UNMAPPABLE_CLUSTER, str(exc))
    trace.update(reference_per_record_assign_constants(atoms, entity_set, cve_id))
    platform = _first_value(entity_set, "PLATFORM")
    description = (
        f"{cve_id}: {labels['means']} in "
        f"{platform or 'an unspecified product'} "
        f"enables {labels['impact']} ({labels['vector']} vector); auto-generated"
    )
    try:
        return reference_per_record_wire_rule(
            atoms, models.wiring, models.threshold, description, trace
        )
    except RangeRestrictionViolation as exc:
        return GenerationFailure(FailureKind.RANGE_RESTRICTION, str(exc))
