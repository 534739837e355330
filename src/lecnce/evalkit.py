"""Evaluation protocols over frozen embeddings: prompt-based zero-shot
classification, bidirectional Recall@N retrieval, linear probing, accuracy
and macro-F1, and a modality-gap scalar.

Everything here is read-only over its inputs; the probe trains a separate
linear head and never touches the features it is given.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateMeanError,
    DimMismatchError,
    FieldValueError,
    KExceedsCorpusError,
    LengthMismatchError,
    SingleClassError,
    check_minimums,
)
from .numerics import as_matrix, cosine_similarity_matrix, make_rng, subsample_frames


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation settings: Recall@k cut-offs, retrieval-set size and the linear probe."""

    recall_ks: tuple[int, ...] = (1, 5, 10)
    retrieval_size: int = 32
    probe_lr: float = 0.001
    probe_weight_decay: float = 0.0005
    probe_epochs: int = 40
    shots: float = 100  # percent of the training procedures the probe sees

    def __post_init__(self):
        if not self.recall_ks or min(self.recall_ks) < 1:
            raise FieldValueError("recall_ks", f"must list cut-offs >= 1, got {self.recall_ks}")
        check_minimums(self, retrieval_size=1, probe_weight_decay=0, probe_epochs=1)
        if not self.probe_lr > 0:
            raise FieldValueError("probe_lr", f"must be > 0, got {self.probe_lr}")
        if not 0 < self.shots <= 100:
            raise FieldValueError("shots", f"must be in (0, 100], got {self.shots}")


def zero_shot_classify(image_emb, class_embs) -> np.ndarray:
    """Nearest class embedding by cosine similarity; ties go to the lowest index."""
    image_emb = as_matrix(image_emb, "image_emb")
    class_embs = as_matrix(class_embs, "class_embs")
    if image_emb.shape[1] != class_embs.shape[1]:
        raise DimMismatchError(f"dims differ: {image_emb.shape[1]} vs {class_embs.shape[1]}")
    sims = cosine_similarity_matrix(image_emb, class_embs)
    return np.argmax(sims, axis=1)


def _recall_one_direction(sim: np.ndarray, k_values) -> dict[int, float]:
    n_queries, n_candidates = sim.shape
    out = {}
    ranks = np.empty(n_queries, dtype=int)
    for i in range(n_queries):
        true = sim[i, i]
        better = int(np.sum(sim[i] > true))
        tied_earlier = int(np.sum(sim[i, :i] == true))
        ranks[i] = 1 + better + tied_earlier
    for k in k_values:
        if k > n_candidates:
            raise KExceedsCorpusError(f"k={k} exceeds corpus size {n_candidates}")
        out[int(k)] = float(np.mean(ranks <= k))
    return out


def recall_at_k(sim, k_values=EvalConfig.recall_ks) -> dict[str, dict[int, float]]:
    """Fraction of queries whose true match (the diagonal) ranks in the top k.

    Rows are text queries against image candidates ("t2i"), columns the
    reverse ("i2t").  Score ties count the lower index as retrieved first.
    """
    sim = as_matrix(sim, "sim")
    if sim.shape[0] != sim.shape[1]:
        raise DimMismatchError(f"diagonal ground truth needs a square matrix, got {sim.shape}")
    return {
        "t2i": _recall_one_direction(sim, k_values),
        "i2t": _recall_one_direction(sim.T, k_values),
    }


def pool_video_embedding(frames, n_samples: int = 10) -> np.ndarray:
    """The rows :func:`subsample_frames` picks, averaged and renormalized."""
    mean = subsample_frames(as_matrix(frames, "frames"), n_samples).mean(axis=0)
    norm = np.linalg.norm(mean)
    if norm < 1e-12:
        raise DegenerateMeanError("pooled video embedding collapsed to zero")
    return mean / norm


@dataclass
class ProbeResult:
    """Trained linear head with its held-out metrics."""

    weights: np.ndarray
    bias: np.ndarray
    accuracy: float
    macro_f1: float
    per_class_f1: list[float]


def linear_probe(
    features,
    labels,
    lr: float = EvalConfig.probe_lr,
    weight_decay: float = EvalConfig.probe_weight_decay,
    epochs: int = EvalConfig.probe_epochs,
    rng: np.random.Generator | None = None,
    test_features=None,
    test_labels=None,
    test_fraction: float = 0.25,
    batch_size: int = 32,
) -> ProbeResult:
    """Multinomial logistic regression on frozen features via mini-batch SGD.

    The classifier starts at zero and never modifies the features.  When no
    explicit test set is given, a seeded fraction of the rows is held out.
    """
    features = as_matrix(features, "features")
    labels = np.asarray(labels, dtype=int)
    if labels.shape[0] != features.shape[0]:
        raise LengthMismatchError(f"{labels.shape[0]} labels for {features.shape[0]} rows")
    rng = rng if rng is not None else make_rng(0)

    if test_features is None:
        n = features.shape[0]
        n_test = max(1, int(np.floor(test_fraction * n)))
        perm = rng.permutation(n)
        test_idx, train_idx = perm[:n_test], perm[n_test:]
        x_train, y_train = features[train_idx], labels[train_idx]
        x_test, y_test = features[test_idx], labels[test_idx]
    else:
        x_train, y_train = features, labels
        x_test = as_matrix(test_features, "test_features")
        y_test = np.asarray(test_labels, dtype=int)

    classes = np.unique(y_train)
    if classes.size < 2:
        raise SingleClassError(f"training labels contain {classes.size} class(es)")
    n_classes = int(max(labels.max(), y_test.max())) + 1

    d = x_train.shape[1]
    w = np.zeros((d, n_classes))
    b = np.zeros(n_classes)
    n_train = x_train.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n_train)
        for start in range(0, n_train, batch_size):
            idx = order[start : start + batch_size]
            xb, yb = x_train[idx], y_train[idx]
            logits = xb @ w + b
            logits -= logits.max(axis=1, keepdims=True)
            p = np.exp(logits)
            p /= p.sum(axis=1, keepdims=True)
            p[np.arange(len(idx)), yb] -= 1.0
            p /= len(idx)
            w -= lr * (xb.T @ p + weight_decay * w)
            b -= lr * p.sum(axis=0)

    preds = np.argmax(x_test @ w + b, axis=1)
    acc, macro, per_class = accuracy_f1(preds, y_test, n_classes)
    return ProbeResult(weights=w, bias=b, accuracy=acc, macro_f1=macro, per_class_f1=per_class)


def accuracy_f1(preds, labels, n_classes: int) -> tuple[float, float, list[float]]:
    """Accuracy, macro F1 (unweighted mean over all classes), per-class F1.

    A class absent from both predictions and labels contributes F1 = 0.
    """
    preds = np.asarray(preds, dtype=int)
    labels = np.asarray(labels, dtype=int)
    if preds.shape != labels.shape:
        raise LengthMismatchError(f"preds shape {preds.shape} != labels shape {labels.shape}")
    if labels.size and (labels.max() >= n_classes or preds.max() >= n_classes):
        raise ValueError("label or prediction out of range")
    accuracy = float(np.mean(preds == labels)) if labels.size else 0.0
    per_class = []
    for c in range(n_classes):
        tp = float(np.sum((preds == c) & (labels == c)))
        fp = float(np.sum((preds == c) & (labels != c)))
        fn = float(np.sum((preds != c) & (labels == c)))
        denom = 2 * tp + fp + fn
        per_class.append(2 * tp / denom if denom > 0 else 0.0)
    return accuracy, float(np.mean(per_class)), per_class


def modality_gap(image_embs, text_embs) -> float:
    """Euclidean distance between the image and text embedding centroids."""
    image_embs = as_matrix(image_embs, "image_embs")
    text_embs = as_matrix(text_embs, "text_embs")
    if image_embs.shape[0] == 0 or text_embs.shape[0] == 0:
        raise DimMismatchError("both embedding sets must be non-empty")
    if image_embs.shape[1] != text_embs.shape[1]:
        raise DimMismatchError(f"dims differ: {image_embs.shape[1]} vs {text_embs.shape[1]}")
    return float(np.linalg.norm(image_embs.mean(axis=0) - text_embs.mean(axis=0)))


@dataclass
class EvalReport:
    """Bundle of metrics with a fixed JSON wire format."""

    accuracy: float | None = None
    macro_f1: float | None = None
    per_class_f1: list[float] = field(default_factory=list)
    recall: dict = field(default_factory=dict)
    modality_gap: float | None = None

    def to_json(self) -> str:
        payload = {
            "accuracy": self.accuracy,
            "macro_f1": self.macro_f1,
            "per_class_f1": self.per_class_f1,
            "recall": {
                direction: {str(k): v for k, v in ks.items()}
                for direction, ks in self.recall.items()
            },
            "modality_gap": self.modality_gap,
        }
        return json.dumps(payload, sort_keys=True, indent=1) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        payload = json.loads(text)
        recall = {
            direction: {int(k): v for k, v in ks.items()}
            for direction, ks in payload.get("recall", {}).items()
        }
        return cls(
            accuracy=payload.get("accuracy"),
            macro_f1=payload.get("macro_f1"),
            per_class_f1=payload.get("per_class_f1", []),
            recall=recall,
            modality_gap=payload.get("modality_gap"),
        )
