"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to see them).

Criterion 10 needs a real NVD snapshot and is skipped unless the
NVD_SNAPSHOT environment variable points at a feed file (JSON or TSV).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from conftest import make_embedding
from helpers import build_vocabulary, example_loss_and_grads, synthesize_wiring_corpus
from vuln2rule.completer import (
    build_feature_vector,
    fit_discretization,
    knn_complete,
    logistic_objective,
    map_to_cluster,
    mean_precision_recall_at_k,
    predict_missing,
    succinct_vector,
    train_completion,
    CompletionModel,
    DiscretizationModel,
)
from vuln2rule.corpus import load_nvd_feed, word_frequency_report
from vuln2rule.demo import (
    generate_demo_records,
    golden_entity_set,
    golden_rule_text,
)
from vuln2rule.embedding import nearest_neighbors
from vuln2rule.pipeline import crossvalidate_wiring, run_pipeline
from vuln2rule.rules.datalog import emit_rule, parse_rule_file
from vuln2rule.rules.schema import load_default_lexicon, load_default_rule_corpus
from vuln2rule.rules.synthesis import generate
from vuln2rule.rules.wiring import Slot, WiringMatrix, estimate_wiring_matrix, impute_matrix
from vuln2rule.tagger import (
    BlstmConfig,
    EntitySet,
    evaluate_f1,
    loss_and_grads,
    stack_directions,
    tag,
    train_ner,
)

RELATIVE_TOLERANCE = 1e-4


def report(number: int, name: str) -> None:
    print(f"\nACCEPTANCE {number:2d} PASS  {name}")


def fd_check(value_fn, grad, array, eps=1e-6):
    """Max relative error between ``grad`` and central finite differences."""
    fd = np.zeros_like(array)
    it = np.nditer(array, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = array[idx]
        array[idx] = orig + eps
        up = value_fn()
        array[idx] = orig - eps
        down = value_fn()
        array[idx] = orig
        fd[idx] = (up - down) / (2 * eps)
        it.iternext()
    denom = max(np.abs(grad).max(), np.abs(fd).max(), 1e-12)
    return np.abs(grad - fd).max() / denom


class TestCriterion1Gradients:
    def test_all_gradients_match_finite_differences(self):
        start = time.perf_counter()
        rng = np.random.default_rng(101)

        # CBOW and skip-gram on a 5-word vocabulary, dim 4
        w_in = rng.normal(scale=0.5, size=(5, 4))
        w_out = rng.normal(scale=0.5, size=(4, 5))
        for input_ids, target in (([1, 2, 3, 2], 4), ([3], 1)):
            loss, (rows, row_grads), dw_out = example_loss_and_grads(
                w_in, w_out, input_ids, target
            )
            dw_in = np.zeros_like(w_in)
            dw_in[rows] = row_grads

            def value():
                v, _, _ = example_loss_and_grads(w_in, w_out, input_ids, target)
                return v

            assert fd_check(value, dw_in, w_in) < RELATIVE_TOLERANCE
            assert fd_check(value, dw_out, w_out) < RELATIVE_TOLERANCE

        # multinomial logistic regression
        x = rng.normal(size=(10, 6))
        y = rng.integers(0, 3, size=10)
        flat = rng.normal(scale=0.4, size=3 * 6 + 3)
        _, grad = logistic_objective(flat, x, y, 3, l2=0.05)

        def lr_value():
            v, _ = logistic_objective(flat, x, y, 3, l2=0.05)
            return v

        assert fd_check(lr_value, grad, flat) < 1e-5

        # full BLSTM via BPTT on a toy model (dim = hidden = 3, len 4, 3 classes)
        params = stack_directions({
            "fw_wx": rng.normal(scale=0.4, size=(3, 12)),
            "fw_wh": rng.normal(scale=0.4, size=(3, 12)),
            "fw_b": rng.normal(scale=0.2, size=12),
            "bw_wx": rng.normal(scale=0.4, size=(3, 12)),
            "bw_wh": rng.normal(scale=0.4, size=(3, 12)),
            "bw_b": rng.normal(scale=0.2, size=12),
            "dense_w": rng.normal(scale=0.4, size=(6, 3)),
            "dense_b": rng.normal(scale=0.2, size=3),
        })
        xs = rng.normal(size=(2, 4, 3))
        tag_ids = rng.integers(0, 3, size=(2, 4))
        lengths = np.array([4, 3])
        weights = np.array([10.0, 10.0, 1.0])
        _, grads, _ = loss_and_grads(params, xs, tag_ids, lengths, weights)
        for name, matrix in params.items():
            def blstm_value():
                v, _, _ = loss_and_grads(params, xs, tag_ids, lengths, weights)
                return v

            assert fd_check(blstm_value, grads[name], matrix) < RELATIVE_TOLERANCE, name

        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        report(1, f"gradient checks (CBOW, SG, logistic, BLSTM) in {elapsed:.1f}s")


class TestCriterion2SuccinctVector:
    def test_hand_computed_examples_and_norm_bound(self):
        basis = np.eye(4)
        emb = make_embedding({
            "e1": basis[0], "e2": basis[1], "double": 2 * basis[0],
        })
        empty = succinct_vector([], emb)
        assert empty.count == 0
        assert np.abs(empty.values).max() <= 1e-12

        single = succinct_vector(["double"], emb)
        assert np.abs(single.values - basis[0]).max() <= 1e-12

        pair = succinct_vector(["e1", "e2"], emb)
        assert np.abs(pair.values - np.array([0.5, 0.5, 0, 0])).max() <= 1e-12
        assert abs(np.linalg.norm(pair.values) - np.sqrt(2) / 2) <= 1e-12

        rng = np.random.default_rng(102)
        vocab = {f"w{i}": rng.normal(size=8) for i in range(60)}
        big = make_embedding(vocab)
        names = list(vocab)
        for _ in range(10_000):
            count = int(rng.integers(0, 9))
            words = [names[int(rng.integers(len(names)))] for _ in range(count)]
            sv = succinct_vector(words, big)
            assert np.linalg.norm(sv.values) <= 1 + 1e-9
        report(2, "succinct vector exact values + norm bound over 10k trials")


class TestCriterion3OracleEquivalence:
    def test_nearest_neighbors(self):
        rng = np.random.default_rng(103)
        emb = make_embedding({f"w{i}": rng.normal(size=8) for i in range(60)})
        names = [w for w in emb.vocab.words]
        for _ in range(1000):
            word = names[int(rng.integers(1, len(names)))]
            k = int(rng.integers(1, 10))
            got = nearest_neighbors(emb, word, k)
            # oracle: repeated max-extraction over an explicit similarity table
            query = emb.w_in[emb.vocab.index_of[word]]
            qnorm = float(np.linalg.norm(query))
            table = {}
            for idx in range(1, len(names)):
                cand = names[idx]
                if cand == word:
                    continue
                vec = emb.w_in[idx]
                denom = qnorm * float(np.linalg.norm(vec))
                table[cand] = float(vec @ query / denom) if denom > 0 else 0.0
            expected = []
            while table and len(expected) < k:
                best = min(table, key=lambda w: (-table[w], w))
                expected.append((best, table.pop(best)))
            assert got == expected
        report(3, "oracle equivalence: nearest_neighbors x1000")

    def test_map_to_cluster(self):
        rng = np.random.default_rng(104)
        emb = make_embedding({f"w{i}": rng.normal(size=6) for i in range(30)})
        names = list(emb.vocab.words[1:])
        for _ in range(1000):
            k = int(rng.integers(2, 7))
            model = DiscretizationModel(
                entity_type="MEANS", k_clusters=k,
                centroids=rng.normal(size=(k, 6)),
                labels={i: f"c{i}" for i in range(k)}, seed=0,
            )
            words = [names[int(rng.integers(len(names)))] for _ in range(int(rng.integers(1, 4)))]
            got, _ = map_to_cluster(model, words, emb)
            sv = succinct_vector(words, emb).values
            best, best_d = 0, np.inf
            for c in range(k):
                d = float(((model.centroids[c] - sv) ** 2).sum())
                if d < best_d:
                    best, best_d = c, d
            assert got == best
        report(3, "oracle equivalence: map_to_cluster x1000")

    def test_knn_complete(self):
        rng = np.random.default_rng(105)
        emb = make_embedding({f"w{i}": rng.normal(size=5) for i in range(40)})
        names = list(emb.vocab.words[1:])

        def random_features():
            es = EntitySet(cve_id="CVE-2020-0001")
            es.entities["MEANS"].append(names[int(rng.integers(len(names)))])
            es.entities["OS"].append(names[int(rng.integers(len(names)))])
            return build_feature_vector(es, emb)

        for _ in range(1000):
            train = [(random_features(), f"v{i}") for i in range(int(rng.integers(2, 10)))]
            query = random_features()
            got = knn_complete(train, query)
            distances = [float(((fv.values - query.values) ** 2).sum()) for fv, _ in train]
            best = min(range(len(train)), key=lambda i: (distances[i], i))
            assert got == train[best][1]
        report(3, "oracle equivalence: knn_complete x1000")

    def test_predict_missing_top1(self):
        rng = np.random.default_rng(106)
        emb = make_embedding({f"w{i}": rng.normal(size=5) for i in range(40)})
        names = list(emb.vocab.words[1:])
        for _ in range(1000):
            k = int(rng.integers(2, 6))
            model = CompletionModel(
                entity_type="VECTOR",
                weights=rng.normal(size=(k, 45)),
                biases=rng.normal(size=k),
                classes=[(i, f"c{i}") for i in range(k)],
                l2=0.01, iterations=70, block_dim=5,
            )
            es = EntitySet(cve_id="CVE-2020-0002")
            es.entities["MEANS"].append(names[int(rng.integers(len(names)))])
            es.entities["PLATFORM"].append(names[int(rng.integers(len(names)))])
            features = build_feature_vector(es, emb)
            got = predict_missing(model, features, 1)[0][0]
            masked = features.with_zeroed("VECTOR").values
            logits = [float(model.weights[c] @ masked + model.biases[c]) for c in range(k)]
            best = max(range(k), key=lambda c: (logits[c], -c))
            assert got == f"c{best}"
        report(3, "oracle equivalence: predict_missing top-1 x1000")


FIVE_RULES = """
a(X, Y) :- b(X, Z), c(Z, Y).
a(X, Y) :- b(X, Z), c(W, Y).
a(X, X) :- b(X, Z).
d(U) :- b(U, V).
a(X, Y) :- c(X, Y).
"""


class TestCriterion4WiringCounts:
    def test_hand_counted_rationals_and_imputation(self):
        matrix = estimate_wiring_matrix(parse_rule_file(FIVE_RULES))

        def prob(a, b):
            return matrix.prob(Slot(*a), Slot(*b))

        assert prob(("a", 2, 0), ("b", 2, 0)) == 3 / 3
        assert prob(("b", 2, 1), ("c", 2, 0)) == 1 / 2
        assert prob(("a", 2, 1), ("c", 2, 1)) == 3 / 3
        assert prob(("a", 2, 0), ("c", 2, 0)) == 1 / 3
        assert prob(("a", 2, 0), ("a", 2, 1)) == 1 / 4
        # rule 3 writes X into both a-slots, so a/2#1 meets b/2#0 once
        assert prob(("a", 2, 1), ("b", 2, 0)) == 1 / 3
        assert prob(("d", 1, 0), ("c", 2, 0)) is None
        assert prob(("d", 1, 0), ("b", 2, 0)) == 1 / 1
        assert prob(("d", 1, 0), ("b", 2, 1)) == 0 / 1

        # imputation toy, hand-computed (see comments): target (0,3) copies
        # 0.6 from the nearest row knowing column 3; target (3,0) copies 0.3;
        # symmetrization averages them to 0.45
        nan = np.nan
        probs = np.array([
            [nan, 0.4, 0.9, nan],
            [0.3, nan, 0.8, 0.6],
            [0.3, 0.3, nan, 0.2],
            [nan, 0.6, 0.2, nan],
        ])
        toy = WiringMatrix(
            slots=tuple(Slot(f"s{i}", 1, 0) for i in range(4)), probs=probs
        )
        filled = impute_matrix(toy, 1)
        assert abs(filled.probs[0, 3] - 0.45) <= 1e-12
        assert abs(filled.probs[3, 0] - 0.45) <= 1e-12

        # all-unknown row: every imputed entry is the global known mean
        probs2 = np.array([
            [nan, 0.2, 0.4, nan],
            [0.2, nan, 0.6, nan],
            [0.4, 0.6, nan, nan],
            [nan, nan, nan, nan],
        ])
        toy2 = WiringMatrix(
            slots=tuple(Slot(f"t{i}", 1, 0) for i in range(4)), probs=probs2
        )
        filled2 = impute_matrix(toy2, 2)
        global_mean = (0.2 + 0.4 + 0.2 + 0.6 + 0.4 + 0.6) / 6
        for j in range(3):
            assert abs(filled2.probs[3, j] - global_mean) <= 1e-12
        report(4, "wiring counts exact + imputation to 1e-12")


class TestCriterion5WiringCrossValidation:
    def test_noisy_template_corpus(self):
        start = time.perf_counter()
        rules = synthesize_wiring_corpus(
            n_templates=6, per_template=10, noise_rate=0.1, seed=0
        )
        assert len(rules) == 60
        result = crossvalidate_wiring(
            rules, folds=10, k_neighbors=5, threshold=0.5, lexicon=load_default_lexicon()
        )
        elapsed = time.perf_counter() - start
        assert result.f1 >= 0.80
        assert elapsed < 10.0
        report(5, f"wiring 10-fold CV F1 {result.f1:.3f} >= 0.80 in {elapsed:.1f}s "
                  f"(published full-corpus reference: 0.84)")


class TestCriterion6NerLearnability:
    def test_overfits_synthetic_sentences(self):
        # The published Table-1 scores (micro 0.83 / macro 0.82 for CBOW)
        # are NOT reproducible here: the 650-description labeled dataset was
        # never released.  This learnability check substitutes: the tagger
        # must overfit 50 synthetic sentences at desk scale.
        records = generate_demo_records(50, seed=3)
        vocab_words = sorted({t.norm for r in records for t in r.sentence.tokens})
        rng = np.random.default_rng(60)
        emb = make_embedding({w: rng.normal(scale=0.5, size=16) for w in vocab_words})
        config = BlstmConfig(max_len=30, dim=16, hidden=16, epochs=100,
                             batch_size=32, learning_rate=0.1, seed=1)
        model = train_ner([r.sentence for r in records], emb, config)
        predictions, golds = [], []
        for r in records:
            tagged = tag(model, emb, list(r.sentence.tokens))
            predictions.append([t for t, _ in tagged])
            golds.append(list(r.sentence.tags))
        f1 = evaluate_f1(predictions, golds)
        assert f1.macro_f1 >= 0.95
        report(6, f"tagger overfits 50 sentences: macro F1 {f1.macro_f1:.3f} >= 0.95")


class TestCriterion7CompletionLearnability:
    def test_separable_then_noisy_comparison(self):
        rng = np.random.default_rng(70)
        vector_words = ["remote", "local", "physical"]
        means_words = ["overflow", "symlink", "traversal"]
        pads = [f"pad{i}" for i in range(260)]
        emb = make_embedding(
            {w: rng.normal(size=12) for w in vector_words + means_words + pads}
        )

        def record(i, cls, label_cls=None):
            es = EntitySet(cve_id=f"CVE-2021-{3000 + i}")
            es.entities["MEANS"].append(f"{means_words[cls]} {pads[i]}")
            es.entities["VECTOR"].append(vector_words[label_cls if label_cls is not None else cls])
            return es

        disc = fit_discretization(vector_words, emb, 3, seed=0, entity_type="VECTOR")

        # part 1: separable data, 3 classes per entity
        train = [record(i, i % 3) for i in range(90)]
        test = [record(100 + i, i % 3) for i in range(30)]
        model = train_completion(train, emb, disc, "VECTOR")
        queries = []
        for es in test:
            gold = map_to_cluster(disc, es.words_for("VECTOR"), emb)[1]
            ranked = [l for l, _ in predict_missing(model, build_feature_vector(es, emb))]
            queries.append((ranked, gold))
        precision1, _ = mean_precision_recall_at_k(queries, 1)
        _, recall3 = mean_precision_recall_at_k(queries, 3)
        assert precision1 >= 0.95
        assert recall3 == 1.0

        # part 2: 15% label noise; regression must beat 1-NN
        noisy = []
        for i in range(150):
            flip = rng.random() < 0.15
            noisy.append(record(i, i % 3, label_cls=int(rng.integers(3)) if flip else None))
        held_out = [record(160 + i, i % 3) for i in range(48)]
        noisy_model = train_completion(noisy, emb, disc, "VECTOR")
        knn_train = [
            (build_feature_vector(es, emb).with_zeroed("VECTOR"), es.values_for("VECTOR")[0])
            for es in noisy
        ]
        lr_hits = knn_hits = 0
        for es in held_out:
            gold = map_to_cluster(disc, es.words_for("VECTOR"), emb)[1]
            features = build_feature_vector(es, emb)
            lr_hits += predict_missing(noisy_model, features, 1)[0][0] == gold
            neighbor_value = knn_complete(knn_train, features.with_zeroed("VECTOR"))
            knn_hits += map_to_cluster(disc, neighbor_value.split(), emb)[1] == gold
        assert lr_hits > knn_hits
        report(7, f"completion: precision@1 {precision1:.2f}, recall@3 {recall3:.2f}; "
                  f"regression {lr_hits}/{len(held_out)} beats 1-NN {knn_hits}/{len(held_out)}")


class TestCriterion8GoldenEndToEnd:
    def test_cve_2010_2212_reconstruction(self, demo_models):
        gold = golden_entity_set()
        start = time.perf_counter()
        rule = generate("", demo_models.generator, gold_entities=gold)
        elapsed = time.perf_counter() - start
        golden = parse_rule_file(golden_rule_text())[0]

        from vuln2rule.rules.synthesis import GenerationFailure

        assert not isinstance(rule, GenerationFailure)
        assert rule.head.name == golden.head.name == "execCode"
        got_multiset = sorted((p.name, p.arity) for p in rule.body)
        want_multiset = sorted((p.name, p.arity) for p in golden.body)
        assert got_multiset == want_multiset

        def partition(r):
            groups = {}
            predicates = r.predicates()
            for ai, pred in enumerate(predicates):
                for pos, term in enumerate(pred.args):
                    if term.kind == "Variable":
                        groups.setdefault(term.text, set()).add((pred.name, pos))
            return {frozenset(g) for g in groups.values()}

        assert partition(rule) == partition(golden)
        assert elapsed < 5.0
        report(8, f"golden CVE-2010-2212 rule reconstructed in {elapsed:.2f}s")


class TestCriterion9ParserRoundTrip:
    def test_500_random_rules_and_packaged_corpus(self):
        from test_rules_datalog import random_rule

        rng = np.random.default_rng(109)
        for _ in range(500):
            rule = random_rule(rng)
            text = emit_rule(rule)
            parsed = parse_rule_file(text)
            assert len(parsed) == 1 and parsed[0] == rule
            assert emit_rule(parsed[0]) == text

        corpus_rules = parse_rule_file(load_default_rule_corpus())
        emitted = "\n\n".join(emit_rule(r) for r in corpus_rules)
        assert parse_rule_file(emitted) == corpus_rules
        report(9, "parser round-trip on 500 random rules + packaged corpus")


PAPER_TOP10 = {
    "via", "allows", "remote", "attackers", "vulnerability",
    "arbitrary", "execute", "service", "code", "cause",
}


@pytest.mark.skipif(
    not os.environ.get("NVD_SNAPSHOT"),
    reason="criterion 10 needs a real NVD snapshot (set NVD_SNAPSHOT=<feed path>)",
)
class TestCriterion10NvdSnapshot:
    def test_vocabulary_coverage_and_frequent_words(self, demo_models):
        records = list(load_nvd_feed(os.environ["NVD_SNAPSHOT"]).records)
        vocab = build_vocabulary(records, max_size=10_000)
        assert 0.90 <= vocab.coverage <= 0.96

        top10 = {w for w, _ in word_frequency_report(records, 10)}
        overlap = len(top10 & PAPER_TOP10)
        assert overlap >= 8

        sample = records[:1000]
        pipeline_report, _ = run_pipeline(demo_models.generator, sample)
        ratio = pipeline_report.success_ratio()
        report(10, f"coverage {vocab.coverage:.3f}, top-10 overlap {overlap}/10, "
                   f"success ratio {ratio:.2f} on 1k sample "
                   f"(published full-scale reference: 0.72; informal comparison)")
