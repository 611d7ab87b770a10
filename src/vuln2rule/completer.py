"""Missing-entity completion.

Entity values become succinct vectors (normalized-average embeddings); nine
entity blocks concatenate into one feature vector; k-means discretizes the
free-text values of an entity into predicate-labeled clusters; a multinomial
logistic model predicts the cluster of a masked entity from the remaining
blocks, with an exact nearest-neighbor completer as the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy.optimize import minimize

from . import _textio
from .embedding import EmbeddingModel
from .errors import (
    EmptyDataset,
    EmptyTrainingSet,
    EmptyValue,
    InvalidLabel,
    MalformedRecord,
    SingleClass,
    TooFewPoints,
)
from .tagger import ENTITY_TAGS, EntitySet

#: Entity types that contribute a feature block, in block order.
FEATURE_ENTITIES: tuple[str, ...] = ENTITY_TAGS[:9]
BLOCK_INDEX: dict[str, int] = {t: i for i, t in enumerate(FEATURE_ENTITIES)}

#: Entities the completion stage predicts.
COMPLETABLE_ENTITIES: tuple[str, ...] = ("VECTOR", "IMPACT", "MEANS")

#: ``train_completion``'s L2 weight and L-BFGS iteration cap, which are also
#: the defaults of ``PipelineConfig.completer_l2``/``completer_iterations``
COMPLETION_L2 = 0.01
COMPLETION_ITERATIONS = 70

#: the cap on ``kmeans``'s Lloyd iterations
KMEANS_MAX_ITER = 300

DISC_MARKER = "# vuln2rule-discretization 2"
COMPLETION_MARKER = "# vuln2rule-completion 2"


@dataclass(frozen=True)
class SuccinctVector:
    """Normalized-average embedding of a word list; zero when no word has a
    nonzero embedding."""

    values: np.ndarray
    count: int


def _add_unit_rows(words: list[str], emb: EmbeddingModel, acc: np.ndarray) -> int:
    """Add each word's unit row to ``acc`` in word order, skipping zero
    rows; the number of rows added."""
    count = 0
    for word in words:
        row = emb.unit_row(word)
        if row is not None:
            acc += row
            count += 1
    return count


def succinct_vector(words: list[str], emb: EmbeddingModel) -> SuccinctVector:
    acc = np.zeros(emb.dim)
    count = _add_unit_rows(words, emb, acc)
    if count:
        acc /= count
    return SuccinctVector(acc, count)


@dataclass(frozen=True)
class FeatureVector:
    """Concatenation of one succinct vector per feature entity; absent
    entities leave their block at zero."""

    values: np.ndarray
    block_dim: int

    def __post_init__(self):
        if self.values.shape != (len(FEATURE_ENTITIES) * self.block_dim,):
            raise ValueError(
                f"feature vector must have {len(FEATURE_ENTITIES)}*{self.block_dim} entries"
            )

    def block(self, entity_type: str) -> np.ndarray:
        i = BLOCK_INDEX[entity_type]
        return self.values[i * self.block_dim : (i + 1) * self.block_dim]

    def with_zeroed(self, entity_type: str) -> FeatureVector:
        masked = self.values.copy()
        i = BLOCK_INDEX[entity_type]
        masked[i * self.block_dim : (i + 1) * self.block_dim] = 0.0
        return FeatureVector(masked, self.block_dim)


def build_feature_vector(entities: EntitySet, emb: EmbeddingModel) -> FeatureVector:
    dim = emb.dim
    values = np.zeros(len(FEATURE_ENTITIES) * dim)
    for i, entity_type in enumerate(FEATURE_ENTITIES):
        words = entities.words_for(entity_type)
        if words:
            block = values[i * dim : (i + 1) * dim]
            count = _add_unit_rows(words, emb, block)
            if count:
                block /= count
    return FeatureVector(values, dim)


# --- k-means discretization ---------------------------------------------------


@dataclass
class DiscretizationModel:
    entity_type: str
    k_clusters: int
    centroids: np.ndarray
    labels: dict[int, str]
    seed: int
    sse_history: list[float] = field(default_factory=list)


def _nearest_centroid(point: np.ndarray, centroids: np.ndarray) -> int:
    # ties broken by lower cluster id (argmin returns the first minimum)
    return int(np.argmin(((centroids - point) ** 2).sum(axis=1)))


def _kmeans_pp_init(
    points: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    sq_dist = ((points - centroids[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = sq_dist.sum()
        if total == 0.0:
            centroids[i] = points[rng.integers(n)]
            continue
        centroids[i] = points[rng.choice(n, p=sq_dist / total)]
        sq_dist = np.minimum(sq_dist, ((points - centroids[i]) ** 2).sum(axis=1))
    return centroids


def kmeans(points: np.ndarray, k: int, seed: int) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Seeded k-means++ then Lloyd iterations to an assignment fixpoint.

    Returns (centroids, assignments, per-iteration within-cluster SSE).
    """
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(points, k, rng)
    assignments = np.full(points.shape[0], -1)
    history: list[float] = []
    for _ in range(KMEANS_MAX_ITER):
        sq = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assignments = sq.argmin(axis=1)
        history.append(float(sq[np.arange(points.shape[0]), new_assignments].sum()))
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
        for c in range(k):
            members = points[assignments == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
    return centroids, assignments, history


def fit_discretization(
    values: list[str],
    emb: EmbeddingModel,
    k_clusters: int,
    seed: int,
    entity_type: str = "",
) -> DiscretizationModel:
    """Cluster the succinct vectors of free-text entity values.

    Cluster labels default to ``cluster<i>``; attach predicate labels with
    :func:`label_clusters` or :func:`label_clusters_by_exemplars`.
    """
    points = np.stack([succinct_vector(v.split(), emb).values for v in values]) if values else np.empty((0, emb.dim))
    distinct = {tuple(p) for p in points}
    if len(distinct) < k_clusters:
        raise TooFewPoints(
            f"{len(distinct)} distinct vectors for {k_clusters} clusters"
        )
    centroids, _, history = kmeans(points, k_clusters, seed)
    labels = {i: f"cluster{i}" for i in range(k_clusters)}
    return DiscretizationModel(
        entity_type=entity_type,
        k_clusters=k_clusters,
        centroids=centroids,
        labels=labels,
        seed=seed,
        sse_history=history,
    )


def label_clusters(
    model: DiscretizationModel, labels: dict[int, str]
) -> DiscretizationModel:
    """Manually assign predicate labels; every cluster id must be covered."""
    missing = set(range(model.k_clusters)) - set(labels)
    if missing:
        raise ValueError(f"labels missing for clusters {sorted(missing)}")
    return replace(model, labels=dict(labels))


def check_exemplars(data: object, source: str) -> dict[str, dict[str, list[str]]]:
    """``data`` if it maps an entity to an object that maps a cluster label
    to a list of exemplar phrases, with a phrase for every completable
    entity; else MalformedRecord naming ``source``.  A label that could not
    be saved raises InvalidLabel."""
    def phrases(value: object) -> bool:
        return isinstance(value, list) and all(isinstance(p, str) for p in value)

    if not isinstance(data, dict) or not all(
        isinstance(labels, dict) and all(map(phrases, labels.values()))
        for labels in data.values()
    ):
        raise MalformedRecord(
            f"{source}: exemplars must map an entity to an object of label -> list of strings"
        )
    unlabeled = [e for e in COMPLETABLE_ENTITIES if not any(data.get(e, {}).values())]
    if unlabeled:
        raise MalformedRecord(f"{source}: exemplars hold no phrase for {', '.join(unlabeled)}")
    for labels in data.values():
        _check_labels(labels)
    return data


def label_clusters_by_exemplars(
    model: DiscretizationModel,
    exemplars: dict[str, list[str]],
    emb: EmbeddingModel,
) -> DiscretizationModel:
    """Give each cluster the label whose exemplar phrase lies nearest to the
    cluster centroid."""
    vectors = [
        (label, succinct_vector(phrase.split(), emb).values)
        for label, phrases in exemplars.items() for phrase in phrases
    ]
    labeled: dict[int, str] = {}
    for cid in range(model.k_clusters):
        best_label, best_dist = None, np.inf
        for label, sv in vectors:
            dist = float(((model.centroids[cid] - sv) ** 2).sum())
            if dist < best_dist:
                best_label, best_dist = label, dist
        labeled[cid] = best_label if best_label is not None else f"cluster{cid}"
    return replace(model, labels=labeled)


def map_to_cluster(
    model: DiscretizationModel, words: list[str], emb: EmbeddingModel
) -> tuple[int, str]:
    """Nearest centroid (Euclidean) of the words' succinct vector; ties go
    to the lower cluster id."""
    if not words:
        raise EmptyValue("no words to map")
    sv = succinct_vector(words, emb)
    cid = _nearest_centroid(sv.values, model.centroids)
    return cid, model.labels[cid]


# --- multinomial logistic completion -------------------------------------------


@dataclass
class CompletionModel:
    entity_type: str
    weights: np.ndarray
    biases: np.ndarray
    classes: list[tuple[int, str]]
    l2: float
    iterations: int
    block_dim: int
    initial_loss: float | None = None
    final_loss: float | None = None

    @property
    def n_classes(self) -> int:
        return len(self.classes)


def logistic_objective(
    flat: np.ndarray, x: np.ndarray, y: np.ndarray, n_classes: int, l2: float
) -> tuple[float, np.ndarray]:
    """Mean multinomial cross-entropy with L2 penalty on the weights, and
    its gradient in the same flat layout (weights then biases)."""
    n, n_features = x.shape
    weights = flat[: n_classes * n_features].reshape(n_classes, n_features)
    biases = flat[n_classes * n_features :]
    logits = x @ weights.T + biases
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = -float(log_probs[np.arange(n), y].mean()) + 0.5 * l2 * float(
        (weights**2).sum()
    )
    dlogits = np.exp(log_probs)
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n
    dweights = dlogits.T @ x + l2 * weights
    dbiases = dlogits.sum(axis=0)
    return loss, np.concatenate([dweights.ravel(), dbiases])


def train_completion(
    dataset: list[EntitySet],
    emb: EmbeddingModel,
    disc: DiscretizationModel,
    entity_type: str,
    l2: float = COMPLETION_L2,
    iterations: int = COMPLETION_ITERATIONS,
) -> CompletionModel:
    """Fit the masked-entity predictor.

    The class of each record is the cluster of its target-entity value; the
    target block of each feature vector is zeroed (the record is scored as
    if the entity were missing).  Optimization is limited-memory BFGS on the
    regularized cross-entropy.
    """
    rows: list[np.ndarray] = []
    cluster_ids: list[int] = []
    for record in dataset:
        words = record.words_for(entity_type)
        if not words:
            continue
        cid, _ = map_to_cluster(disc, words, emb)
        features = build_feature_vector(record, emb).with_zeroed(entity_type)
        rows.append(features.values)
        cluster_ids.append(cid)
    if not rows:
        raise EmptyDataset(f"no training records carry {entity_type}")
    class_ids = sorted(set(cluster_ids))
    if len(class_ids) < 2:
        raise SingleClass(f"only {len(class_ids)} class present for {entity_type}")
    class_index = {cid: i for i, cid in enumerate(class_ids)}

    x = np.stack(rows)
    y = np.array([class_index[c] for c in cluster_ids])
    n_classes, n_features = len(class_ids), x.shape[1]
    flat0 = np.zeros(n_classes * n_features + n_classes)
    initial_loss, _ = logistic_objective(flat0, x, y, n_classes, l2)
    result = minimize(
        logistic_objective,
        flat0,
        args=(x, y, n_classes, l2),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": iterations, "gtol": 1e-6},
    )
    flat = result.x
    weights = flat[: n_classes * n_features].reshape(n_classes, n_features)
    biases = flat[n_classes * n_features :]
    final_loss, _ = logistic_objective(flat, x, y, n_classes, l2)
    return CompletionModel(
        entity_type=entity_type,
        weights=weights,
        biases=biases,
        classes=[(cid, disc.labels[cid]) for cid in class_ids],
        l2=l2,
        iterations=iterations,
        block_dim=emb.dim,
        initial_loss=float(initial_loss),
        final_loss=float(final_loss),
    )


def completion_logits(model: CompletionModel, features: FeatureVector) -> np.ndarray:
    """The model's logits on ``features`` with the target block zeroed; a
    block that holds no nonzero entry (an absent entity's) is used as it
    is, without a copy."""
    if features.block(model.entity_type).any():
        features = features.with_zeroed(model.entity_type)
    return model.weights @ features.values + model.biases


def predict_missing(
    model: CompletionModel, features: FeatureVector, top_k: int | None = None
) -> list[tuple[str, float]]:
    """Ranked (label, probability) for the masked entity.

    The target block is zeroed before scoring, so only the other blocks can
    influence the prediction."""
    logits = completion_logits(model, features)
    exp = np.exp(logits - logits.max())
    probs = exp / exp.sum()
    order = np.argsort(-probs, kind="stable")[:top_k].tolist()
    values = probs.tolist()
    return [(model.classes[i][1], values[i]) for i in order]


def knn_complete(
    train: list[tuple[FeatureVector, str]],
    query: FeatureVector,
    k: int = 1,
) -> str:
    """Exact Euclidean nearest-neighbor completion; equidistant neighbors go
    to the lower training index; k>1 takes a majority vote over the k
    nearest (ties broken by the nearest member of the tied values)."""
    if not train:
        raise EmptyTrainingSet("no training examples")
    sq = [float(((fv.values - query.values) ** 2).sum()) for fv, _ in train]
    order = sorted(range(len(train)), key=lambda i: (sq[i], i))
    if k == 1:
        return train[order[0]][1]
    top = order[:k]
    counts: dict[str, int] = {}
    first_seen: dict[str, int] = {}
    for rank, idx in enumerate(top):
        value = train[idx][1]
        counts[value] = counts.get(value, 0) + 1
        first_seen.setdefault(value, rank)
    return max(counts, key=lambda v: (counts[v], -first_seen[v]))


# --- ranking metrics -------------------------------------------------------------


def precision_recall_at_k(
    ranked: list[str], gold: str, k: int
) -> tuple[float, float]:
    """With a single gold label: recall@k is 1 iff the gold appears in the
    top k; precision@k is that hit divided by k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    hit = 1.0 if gold in ranked[:k] else 0.0
    return hit / k, hit


def mean_precision_recall_at_k(
    queries: list[tuple[list[str], str]], k: int
) -> tuple[float, float]:
    if not queries:
        return 0.0, 0.0
    pairs = [precision_recall_at_k(ranked, gold, k) for ranked, gold in queries]
    return (
        sum(p for p, _ in pairs) / len(pairs),
        sum(r for _, r in pairs) / len(pairs),
    )


# --- persistence -------------------------------------------------------------------


def _check_labels(labels) -> None:
    """A label is saved inside one ``,``-joined metadata line (as
    ``id:label`` for completion classes) and names one mapping-table token,
    so it must be non-empty and free of ``,``, ``:`` and whitespace."""
    for label in labels:
        if not label or any(c in ",:" or c.isspace() for c in label):
            raise InvalidLabel(
                f"cluster label {label!r} must be non-empty, without ',', ':' or whitespace"
            )


def save_discretization(model: DiscretizationModel, path: str | Path) -> None:
    labels = [model.labels[i] for i in range(model.k_clusters)]
    _check_labels(labels)
    meta = {
        "entity_type": model.entity_type,
        "k_clusters": str(model.k_clusters),
        "seed": str(model.seed),
        "labels": ",".join(labels),
    }
    _textio.write_model(path, DISC_MARKER, meta, {"centroids": model.centroids})


def load_discretization(path: str | Path) -> DiscretizationModel:
    def build(meta: dict[str, str], matrices: dict[str, np.ndarray]) -> DiscretizationModel:
        k_clusters = int(meta["k_clusters"])
        labels = meta["labels"].split(",")
        centroids = matrices["centroids"]
        if len(labels) != k_clusters or len(centroids) != k_clusters:
            raise ValueError(
                f"{len(labels)} labels and {len(centroids)} centroids for {k_clusters} clusters"
            )
        return DiscretizationModel(
            entity_type=meta["entity_type"],
            k_clusters=k_clusters,
            centroids=centroids,
            labels=dict(enumerate(labels)),
            seed=int(meta["seed"]),
        )

    return _textio.read_model(path, DISC_MARKER, build)


def save_completion(model: CompletionModel, path: str | Path) -> None:
    _check_labels(label for _, label in model.classes)
    meta = {
        "entity_type": model.entity_type,
        "classes": ",".join(f"{cid}:{label}" for cid, label in model.classes),
        "l2": repr(model.l2),
        "iterations": str(model.iterations),
        "block_dim": str(model.block_dim),
    }
    _textio.write_model(
        path,
        COMPLETION_MARKER,
        meta,
        {"weights": model.weights, "biases": model.biases},
    )


def load_completion(path: str | Path) -> CompletionModel:
    def build(meta: dict[str, str], matrices: dict[str, np.ndarray]) -> CompletionModel:
        classes = []
        for item in meta["classes"].split(","):
            cid, _, label = item.partition(":")
            classes.append((int(cid), label))
        block_dim = int(meta["block_dim"])
        weights, biases = matrices["weights"], matrices["biases"]
        want = ((len(classes), 9 * block_dim), (1, len(classes)))
        if (weights.shape, biases.shape) != want:
            raise ValueError(
                f"weights {weights.shape} and biases {biases.shape} for {len(classes)} "
                f"classes at block_dim {block_dim}, want {want[0]} and {want[1]}"
            )
        return CompletionModel(
            entity_type=meta["entity_type"],
            weights=weights,
            biases=biases[0],
            classes=classes,
            l2=float(meta["l2"]),
            iterations=int(meta["iterations"]),
            block_dim=block_dim,
        )

    return _textio.read_model(path, COMPLETION_MARKER, build)
