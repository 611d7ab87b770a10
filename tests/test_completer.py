"""Succinct vectors, feature blocks, k-means discretization, logistic
completion, the nearest-neighbor baseline and ranking metrics."""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_embedding
from helpers import reference_build_feature_vector, reference_succinct_vector, with_zeroed
from vuln2rule.completer import (
    BLOCK_INDEX,
    FEATURE_ENTITIES,
    CompletionModel,
    build_feature_vector,
    completion_example,
    fit_discretization,
    kmeans,
    knn_complete,
    label_clusters,
    logistic_objective,
    map_to_cluster,
    mean_precision_recall_at_k,
    precision_recall_at_k,
    predict_missing,
    succinct_vector,
    train_completion,
)
from vuln2rule.errors import (
    EmptyDataset,
    EmptyTrainingSet,
    EmptyValue,
    SingleClass,
    TooFewPoints,
)
from vuln2rule.tagger import EntitySet


@pytest.fixture(scope="module")
def ortho_embedding():
    # orthonormal basis vectors keep the succinct-vector math exact
    dim = 4
    basis = np.eye(dim)
    return make_embedding({
        "e1": basis[0], "e2": basis[1], "e3": basis[2], "e4": basis[3],
        "double": 2 * basis[0],
    })


def entity_set(cve_id="CVE-2020-0100", **values) -> EntitySet:
    es = EntitySet(cve_id=cve_id)
    for key, vals in values.items():
        es.entities[key.upper()].extend(vals)
    return es


class TestSuccinctVector:
    def test_empty_input_is_zero(self, ortho_embedding):
        sv = succinct_vector([], ortho_embedding)
        assert np.array_equal(sv, np.zeros(4))

    def test_single_word_is_normalized_row(self, ortho_embedding):
        sv = succinct_vector(["double"], ortho_embedding)
        assert np.allclose(sv, [1, 0, 0, 0], atol=1e-12)

    def test_two_orthonormal_words(self, ortho_embedding):
        sv = succinct_vector(["e1", "e2"], ortho_embedding)
        assert np.allclose(sv, [0.5, 0.5, 0, 0], atol=1e-12)
        assert np.linalg.norm(sv) == pytest.approx(np.sqrt(2) / 2, abs=1e-12)

    def test_zero_embedding_words_skipped(self, ortho_embedding):
        # the OOV row is all-zero in this fixture; counted, it would halve e1
        sv = succinct_vector(["unknown-word", "e1"], ortho_embedding)
        assert np.allclose(sv, [1, 0, 0, 0], atol=1e-12)

    def test_norm_bounded_by_one(self):
        rng = np.random.default_rng(31)
        words = {f"w{i}": rng.normal(size=6) for i in range(40)}
        emb = make_embedding(words)
        names = list(words)
        for _ in range(2000):
            size = int(rng.integers(1, 8))
            chosen = [names[int(rng.integers(len(names)))] for _ in range(size)]
            sv = succinct_vector(chosen, emb)
            assert np.linalg.norm(sv) <= 1 + 1e-9

    def test_norm_equals_one_iff_identical_directions(self, ortho_embedding):
        same = succinct_vector(["e1", "double"], ortho_embedding)
        assert np.linalg.norm(same) == pytest.approx(1.0, abs=1e-12)
        mixed = succinct_vector(["e1", "e2"], ortho_embedding)
        assert np.linalg.norm(mixed) < 1 - 1e-6


class TestFeatureVector:
    def test_empty_entity_set_is_zero(self, ortho_embedding):
        fv = build_feature_vector(entity_set(), ortho_embedding)
        assert fv.shape == (9 * 4,)
        assert not fv.any()

    def test_only_means_block_nonzero(self, ortho_embedding):
        fv = build_feature_vector(entity_set(means=["e1 e2"]), ortho_embedding)
        for entity, block in zip(FEATURE_ENTITIES, fv.reshape(9, 4)):
            assert bool(block.any()) == (entity == "MEANS")

    def test_block_order_fixed(self):
        assert FEATURE_ENTITIES == (
            "VECTOR", "TECHNIQUE", "IMPACT", "MEANS", "PLATFORM",
            "OS", "VERSION", "PROTOCOL", "PORT",
        )

    def test_900_features_at_dim_100(self):
        rng = np.random.default_rng(32)
        emb = make_embedding({"w": rng.normal(size=100)})
        fv = build_feature_vector(entity_set(means=["w"]), emb)
        assert fv.shape == (900,)

    def test_completion_example_zeroes_the_target_block(self, ortho_embedding):
        record = entity_set(means=["e1"], os=["e2"])
        disc = fit_discretization(["e1", "e3"], ortho_embedding, 2, seed=0, entity_type="MEANS")
        masked, cid = completion_example(record, "MEANS", ortho_embedding, disc)
        fv = build_feature_vector(record, ortho_embedding)
        blocks, fv_blocks = masked.reshape(9, 4), fv.reshape(9, 4)
        assert not blocks[BLOCK_INDEX["MEANS"]].any()
        assert np.array_equal(blocks[BLOCK_INDEX["OS"]], fv_blocks[BLOCK_INDEX["OS"]])
        assert masked.tobytes() == with_zeroed(fv, "MEANS").tobytes()
        assert cid == map_to_cluster(disc, ["e1"], ortho_embedding)[0]

    @pytest.mark.parametrize("means", [[], [" "]])
    def test_no_completion_example_without_a_first_word(self, ortho_embedding, means):
        disc = fit_discretization(["e1", "e3"], ortho_embedding, 2, seed=0, entity_type="MEANS")
        record = entity_set(means=means, os=["e2"])
        assert completion_example(record, "MEANS", ortho_embedding, disc) is None


@st.composite
def embeddings_and_entity_sets(draw):
    """A random embedding whose rows may be zero, hold negative zeros or
    be tiny, an OOV row that may be nonzero, and an entity set whose values
    mix vocabulary words, repeats and out-of-vocabulary words."""
    dim = draw(st.integers(1, 6))
    n_words = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = {}
    for i in range(n_words):
        kind = draw(st.sampled_from(["normal", "zero", "negative zero", "tiny"]))
        row = rng.normal(size=dim)
        if kind == "zero":
            row[:] = 0.0
        elif kind == "negative zero":
            row[rng.random(dim) < 0.5] = -0.0
        elif kind == "tiny":
            row *= 1e-160
        rows[f"w{i}"] = row
    emb = make_embedding(rows)
    if draw(st.booleans()):
        emb.w_in[0] = rng.normal(size=dim)
    word = st.sampled_from([*rows, "oov", "Oov2"])
    value = st.lists(word, min_size=1, max_size=6).map(" ".join)
    entities = EntitySet(cve_id="CVE-2020-0001")
    for tag in draw(st.lists(st.sampled_from(FEATURE_ENTITIES), unique=True)):
        entities.entities[tag] = draw(st.lists(value, min_size=1, max_size=3))
    return emb, entities


@settings(max_examples=200, deadline=None)
@given(embeddings_and_entity_sets())
def test_serve_vectors_match_the_per_word_reference(case):
    """Succinct and feature vectors built from memoized unit rows have the
    bits of the reference's per-word ``vec / norm`` sums, cold and warm."""
    emb, entities = case
    for _ in range(2):
        want = reference_build_feature_vector(entities, emb)
        assert build_feature_vector(entities, emb).tobytes() == want.tobytes()
        for tag in FEATURE_ENTITIES:
            words = entities.words_for(tag)
            got, ref = succinct_vector(words, emb), reference_succinct_vector(words, emb)
            assert got.tobytes() == ref.tobytes()
    assert len(emb._unit_rows) <= len(emb.vocab)


class TestKmeans:
    def brute_force_best_sse(self, points, k):
        # exhaustive over all assignments of <= 12 points to k clusters
        best = np.inf
        n = len(points)
        for assignment in product(range(k), repeat=n):
            sse = 0.0
            for c in range(k):
                members = points[[i for i in range(n) if assignment[i] == c]]
                if len(members):
                    sse += (((members - members.mean(axis=0)) ** 2).sum())
            best = min(best, sse)
        return best

    def test_two_separated_clouds_match_brute_force(self):
        rng = np.random.default_rng(33)
        cloud_a = rng.normal(loc=0.0, scale=0.05, size=(5, 2))
        cloud_b = rng.normal(loc=5.0, scale=0.05, size=(5, 2))
        points = np.vstack([cloud_a, cloud_b])
        centroids, assignments, history = kmeans(points, 2, seed=0)
        sse = 0.0
        for c in range(2):
            members = points[assignments == c]
            sse += ((members - centroids[c]) ** 2).sum()
        assert sse == pytest.approx(self.brute_force_best_sse(points, 2), rel=1e-9)

    def test_k1_centroid_is_mean(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 3.0]])
        centroids, _, _ = kmeans(points, 1, seed=0)
        assert np.allclose(centroids[0], points.mean(axis=0), atol=1e-12)

    def test_sse_non_increasing(self):
        rng = np.random.default_rng(34)
        points = rng.normal(size=(40, 3))
        _, _, history = kmeans(points, 4, seed=1)
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))

    def test_too_few_distinct_points(self, ortho_embedding):
        with pytest.raises(TooFewPoints):
            fit_discretization(["e1", "e1"], ortho_embedding, 2, seed=0)

    def test_attack_vector_style_split(self):
        rng = np.random.default_rng(35)
        emb = make_embedding({
            "remote": rng.normal(size=6),
            "attackers": rng.normal(size=6),
            "local": rng.normal(size=6),
            "physically": rng.normal(size=6),
            "proximate": rng.normal(size=6),
        })
        values = ["remote", "remote attackers", "local", "physically proximate"]
        model = fit_discretization(values, emb, 2, seed=0, entity_type="VECTOR")
        groups = {}
        for value in values:
            cid, _ = map_to_cluster(model, value.split(), emb)
            groups.setdefault(cid, set()).add(value)
        # verify against the pairwise distance structure: the two remote
        # values must land together whenever they are mutually closest
        sv = {v: succinct_vector(v.split(), emb) for v in values}
        d_remote = np.linalg.norm(sv["remote"] - sv["remote attackers"])
        d_cross = min(
            np.linalg.norm(sv["remote"] - sv["local"]),
            np.linalg.norm(sv["remote"] - sv["physically proximate"]),
        )
        assert d_remote < d_cross
        assert {"remote", "remote attackers"} in groups.values()


class TestMapToCluster:
    @pytest.fixture()
    def model(self, ortho_embedding):
        disc = fit_discretization(["e1", "e2"], ortho_embedding, 2, seed=0)
        return label_clusters(disc, {0: "zero", 1: "one"})

    def test_exact_centroid_maps_to_it(self, model, ortho_embedding):
        for cid in range(2):
            got, label = map_to_cluster(
                model, ["e1" if np.argmax(model.centroids[cid]) == 0 else "e2"],
                ortho_embedding,
            )
            assert got == cid
            assert label == model.labels[cid]

    def test_equidistant_goes_to_lower_id(self, ortho_embedding):
        from vuln2rule.completer import DiscretizationModel

        model = DiscretizationModel(
            entity_type="MEANS", k_clusters=2,
            centroids=np.array([[1.0, 0, 0, 0], [-1.0, 0, 0, 0]]),
            labels={0: "a", 1: "b"}, seed=0,
        )
        cid, _ = map_to_cluster(model, ["e2"], ortho_embedding)  # sv orthogonal to both
        assert cid == 0

    def test_empty_words_rejected(self, model, ortho_embedding):
        with pytest.raises(EmptyValue):
            map_to_cluster(model, [], ortho_embedding)

    def test_matches_brute_force_scan(self, ortho_embedding):
        rng = np.random.default_rng(36)
        from vuln2rule.completer import DiscretizationModel

        centroids = rng.normal(size=(5, 4))
        model = DiscretizationModel(
            entity_type="MEANS", k_clusters=5, centroids=centroids,
            labels={i: f"c{i}" for i in range(5)}, seed=0,
        )
        for word in ("e1", "e2", "e3", "e4"):
            cid, _ = map_to_cluster(model, [word], ortho_embedding)
            sv = succinct_vector([word], ortho_embedding)
            distances = [float(((centroids[i] - sv) ** 2).sum()) for i in range(5)]
            assert cid == min(range(5), key=lambda i: (distances[i], i))


def separable_entity_sets(rng, emb, n_per_class=30):
    """VECTOR class is a deterministic function of the MEANS word."""
    means_by_vector = {"e1": "e2", "e3": "e4"}
    records = []
    for vector_word, means_word in means_by_vector.items():
        for i in range(n_per_class):
            records.append(
                entity_set(
                    cve_id=f"CVE-2021-{1000 + len(records)}",
                    vector=[vector_word],
                    means=[means_word],
                )
            )
    return records


@pytest.fixture(scope="module")
def fitted(ortho_embedding):
    rng = np.random.default_rng(37)
    records = separable_entity_sets(rng, ortho_embedding)
    disc = fit_discretization(["e1", "e3"], ortho_embedding, 2, seed=0, entity_type="VECTOR")
    disc = label_clusters(disc, {0: "v0", 1: "v1"})
    model = train_completion(records, ortho_embedding, disc, "VECTOR", l2=0.01)
    return records, disc, model


class TestCompletionTraining:
    def test_separable_data_fits_perfectly(self, fitted, ortho_embedding):
        records, disc, model = fitted
        hits = 0
        for record in records:
            features = build_feature_vector(record, ortho_embedding)
            predicted = predict_missing(model, features, top_k=1)[0][0]
            _, gold = map_to_cluster(disc, record.words_for("VECTOR"), ortho_embedding)
            hits += predicted == gold
        assert hits == len(records)

    def test_two_values_train_on_the_first_values_cluster(self, ortho_embedding):
        """A record whose MEANS has two values is labeled with the cluster of
        the first, the value ``generate`` maps; all its words together lie
        nearer the other cluster."""
        disc = fit_discretization(["e1", "e3"], ortho_embedding, 2, seed=0, entity_type="MEANS")
        disc = label_clusters(disc, {0: "m0", 1: "m1"})
        two = entity_set(vector=["e2"], means=["e1", "e3 e3"])
        one = entity_set(vector=["e4"], means=["e3"])
        first, _ = map_to_cluster(disc, ["e1"], ortho_embedding)
        other, _ = map_to_cluster(disc, ["e3"], ortho_embedding)
        assert first != other
        assert map_to_cluster(disc, two.words_for("MEANS"), ortho_embedding)[0] == other
        assert completion_example(two, "MEANS", ortho_embedding, disc)[1] == first
        model = train_completion([two, one] * 10, ortho_embedding, disc, "MEANS")
        assert model.classes == [(c, disc.labels[c]) for c in sorted((first, other))]
        query = build_feature_vector(entity_set(vector=["e2"]), ortho_embedding)
        assert predict_missing(model, query, 1)[0][0] == disc.labels[first]

    def test_training_reduces_loss(self, fitted):
        _, _, model = fitted
        assert model.final_loss <= model.initial_loss

    def test_stronger_l2_shrinks_weights(self, ortho_embedding):
        rng = np.random.default_rng(38)
        records = separable_entity_sets(rng, ortho_embedding)
        disc = fit_discretization(["e1", "e3"], ortho_embedding, 2, seed=0)
        norms = []
        for l2 in (0.01, 1.0, 100.0):
            model = train_completion(records, ortho_embedding, disc, "VECTOR", l2=l2)
            norms.append(float(np.linalg.norm(model.weights)))
        assert norms[0] > norms[1] > norms[2]

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(39)
        x = rng.normal(size=(12, 5))
        y = rng.integers(0, 3, size=12)
        flat = rng.normal(scale=0.3, size=3 * 5 + 3)
        _, grad = logistic_objective(flat, x, y, 3, l2=0.1)
        eps = 1e-6
        fd = np.zeros_like(flat)
        for i in range(len(flat)):
            orig = flat[i]
            flat[i] = orig + eps
            up, _ = logistic_objective(flat, x, y, 3, l2=0.1)
            flat[i] = orig - eps
            down, _ = logistic_objective(flat, x, y, 3, l2=0.1)
            flat[i] = orig
            fd[i] = (up - down) / (2 * eps)
        denom = max(np.abs(grad).max(), np.abs(fd).max())
        assert np.abs(grad - fd).max() / denom < 1e-5

    def test_single_class_rejected(self, ortho_embedding):
        records = [entity_set(vector=["e1"], means=["e2"]) for _ in range(5)]
        disc = fit_discretization(["e1", "e3"], ortho_embedding, 2, seed=0)
        with pytest.raises(SingleClass):
            train_completion(records, ortho_embedding, disc, "VECTOR")

    def test_empty_dataset_rejected(self, ortho_embedding):
        disc = fit_discretization(["e1", "e3"], ortho_embedding, 2, seed=0)
        with pytest.raises(EmptyDataset):
            train_completion([entity_set(means=["e2"])], ortho_embedding, disc, "VECTOR")


class TestPredictMissing:
    def make_model(self, weights, biases, block_dim=4):
        return CompletionModel(
            entity_type="VECTOR",
            weights=np.asarray(weights, dtype=float),
            biases=np.asarray(biases, dtype=float),
            classes=[(i, f"c{i}") for i in range(len(biases))],
            l2=0.01,
            iterations=70,
            block_dim=block_dim,
        )

    def test_zero_weights_give_uniform(self, ortho_embedding):
        model = self.make_model(np.zeros((3, 36)), np.zeros(3))
        fv = build_feature_vector(entity_set(means=["e1"]), ortho_embedding)
        ranked = predict_missing(model, fv)
        assert all(p == pytest.approx(1 / 3, abs=1e-12) for _, p in ranked)

    def test_probabilities_sum_to_one(self, ortho_embedding):
        rng = np.random.default_rng(40)
        model = self.make_model(rng.normal(size=(4, 36)), rng.normal(size=4))
        fv = build_feature_vector(entity_set(means=["e1 e2"], os=["e3"]), ortho_embedding)
        ranked = predict_missing(model, fv)
        assert sum(p for _, p in ranked) == pytest.approx(1.0, abs=1e-9)
        assert [p for _, p in ranked] == sorted((p for _, p in ranked), reverse=True)

    def test_top1_matches_brute_force_argmax(self, ortho_embedding):
        rng = np.random.default_rng(41)
        for _ in range(50):
            model = self.make_model(rng.normal(size=(5, 36)), rng.normal(size=5))
            fv = build_feature_vector(
                entity_set(means=["e1"], os=["e2 e3"], platform=["e4"]),
                ortho_embedding,
            )
            masked = with_zeroed(fv, "VECTOR")
            logits = [float(model.weights[k] @ masked + model.biases[k]) for k in range(5)]
            expected = max(range(5), key=lambda k: (logits[k], -k))
            assert predict_missing(model, fv, 1)[0][0] == f"c{expected}"

    def test_masking_soundness(self, ortho_embedding):
        rng = np.random.default_rng(42)
        model = self.make_model(rng.normal(size=(3, 36)), rng.normal(size=3))
        fv = build_feature_vector(entity_set(means=["e1"], os=["e2"]), ortho_embedding)
        tampered = fv.copy()
        block = BLOCK_INDEX["VECTOR"]
        tampered[block * 4 : (block + 1) * 4] = 99.0
        assert predict_missing(model, fv) == predict_missing(model, tampered)

    @pytest.mark.parametrize("target", ["zero", "negative zero", "mixed zeros", "nonzero"])
    @pytest.mark.parametrize("others", ["zero", "random"])
    def test_probabilities_match_the_zeroed_copy(self, target, others):
        """An all-zero target block, with +0.0 or -0.0 entries, is scored
        without a copy; the probabilities are the bits of the zeroed copy's,
        and the features are left as they were."""
        rng = np.random.default_rng(44)
        model = self.make_model(rng.normal(size=(5, 36)), rng.normal(size=5))
        values = rng.normal(size=36) if others == "random" else np.zeros(36)
        block = values[BLOCK_INDEX["VECTOR"] * 4 : (BLOCK_INDEX["VECTOR"] + 1) * 4]
        block[:] = {
            "zero": [0.0] * 4,
            "negative zero": [-0.0] * 4,
            "mixed zeros": [-0.0, 0.0, -0.0, 0.0],
            "nonzero": [0.0, -1.5, 0.0, 2.0],
        }[target]
        before = values.tobytes()
        logits = model.weights @ with_zeroed(values, "VECTOR") + model.biases
        exp = np.exp(logits - logits.max())
        want = {f"c{i}": p for i, p in enumerate((exp / exp.sum()).tolist())}
        got = predict_missing(model, values)
        assert [np.float64(p).tobytes() for _, p in got] == [
            np.float64(want[label]).tobytes() for label, _ in got
        ]
        assert sorted(label for label, _ in got) == sorted(want)
        assert values.tobytes() == before

    def test_argmax_invariant_under_uniform_weight_scale(self, ortho_embedding):
        rng = np.random.default_rng(43)
        weights = rng.normal(size=(4, 36))
        fv = build_feature_vector(entity_set(means=["e1 e4"]), ortho_embedding)
        base = predict_missing(self.make_model(weights, np.zeros(4)), fv, 1)[0][0]
        scaled = predict_missing(self.make_model(3.5 * weights, np.zeros(4)), fv, 1)[0][0]
        assert base == scaled


class TestKnnComplete:
    def features(self, emb, **values):
        return build_feature_vector(entity_set(**values), emb)

    def test_exact_match_returns_its_value(self, ortho_embedding):
        train = [
            (self.features(ortho_embedding, means=["e1"]), "first"),
            (self.features(ortho_embedding, means=["e2"]), "second"),
        ]
        assert knn_complete(train, train[1][0]) == "second"

    def test_tie_goes_to_lower_index(self, ortho_embedding):
        same = self.features(ortho_embedding, means=["e1"])
        train = [(same, "low"), (same, "high")]
        query = self.features(ortho_embedding, means=["e2"])
        assert knn_complete(train, query) == "low"

    def test_matches_exhaustive_scan(self, ortho_embedding):
        rng = np.random.default_rng(44)
        emb = make_embedding({f"w{i}": rng.normal(size=6) for i in range(20)})
        train = [
            (build_feature_vector(entity_set(means=[f"w{i}"]), emb), f"v{i}")
            for i in range(15)
        ]
        for j in range(15, 20):
            query = build_feature_vector(entity_set(means=[f"w{j}"]), emb)
            got = knn_complete(train, query)
            distances = [float(((fv - query) ** 2).sum()) for fv, _ in train]
            best = min(range(len(train)), key=lambda i: (distances[i], i))
            assert got == train[best][1]

    def test_empty_training_set_rejected(self, ortho_embedding):
        with pytest.raises(EmptyTrainingSet):
            knn_complete([], self.features(ortho_embedding, means=["e1"]))

    def test_k3_majority_vote(self):
        def fv(x):
            values = np.zeros(9)
            values[0] = x
            return values

        # nearest single point says "b", but two of the three nearest say "a"
        train = [(fv(1.0), "b"), (fv(2.0), "a"), (fv(3.0), "a"), (fv(9.0), "c")]
        query = fv(0.0)
        assert knn_complete(train, query, k=1) == "b"
        assert knn_complete(train, query, k=3) == "a"


class TestPrecisionRecallAtK:
    def test_gold_at_rank_one(self):
        assert precision_recall_at_k(["a", "b"], "a", 1) == (1.0, 1.0)

    def test_gold_below_cutoff(self):
        assert precision_recall_at_k(["a", "b", "gold"], "gold", 2) == (0.0, 0.0)

    def test_gold_at_rank_two_k_three(self):
        precision, recall = precision_recall_at_k(["a", "gold", "b"], "gold", 3)
        assert precision == pytest.approx(1 / 3)
        assert recall == 1.0

    def test_mean_over_queries(self):
        queries = [(["a", "b"], "a"), (["a", "b"], "b")]
        precision, recall = mean_precision_recall_at_k(queries, 1)
        assert precision == pytest.approx(0.5)
        assert recall == pytest.approx(0.5)
