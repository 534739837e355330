"""Evaluation protocols over frozen embeddings: prompt-based zero-shot
classification, bidirectional Recall@N retrieval, linear probing, accuracy,
macro-F1 and the modality gap, and :func:`evaluate`, which runs them all.

Everything here is read-only over its inputs; the probe trains a separate
linear head and never touches the features it is given.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import encoders as enc
from .datagen import Dataset
from .errors import (
    DimMismatchError,
    FieldValueError,
    KExceedsCorpusError,
    SingleClassError,
    check_minimums,
    check_positive,
)
from .losses import _pool_segments
from .numerics import as_matrix, check_cells, cosine_similarity_matrix, make_rng, subsample_frames


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation settings: Recall@k cut-offs, retrieval-set size and the linear probe."""

    recall_ks: tuple[int, ...] = (1, 5, 10)
    retrieval_size: int = 32
    probe_weight_decay: float = 0.0005
    probe_epochs: int = 100  # L-BFGS iteration cap
    shots: float = 100  # percent of the training procedures the probe sees

    def __post_init__(self):
        _check_recall_ks(self.recall_ks)
        check_minimums(self, retrieval_size=1, probe_weight_decay=0, probe_epochs=1)
        if not 0 < self.shots <= 100:
            raise FieldValueError("shots", f"must be in (0, 100], got {self.shots}")


def _check_recall_ks(k_values) -> None:
    """Raise :class:`FieldValueError` on ``recall_ks`` unless ``k_values`` lists one or more integer cut-offs >= 1."""
    whole = all(isinstance(k, (int, np.integer)) and not isinstance(k, bool) for k in k_values)
    if len(k_values) == 0 or not whole or min(k_values) < 1:
        raise FieldValueError("recall_ks", f"must list integer cut-offs >= 1, got {k_values}")


def zero_shot_classify(image_emb, class_embs) -> np.ndarray:
    """Nearest class embedding by cosine similarity; ties go to the lowest index.

    ``class_embs`` without cells raises :class:`EmptyMatrixError`.
    """
    image_emb = as_matrix(image_emb, "image_emb")
    class_embs = as_matrix(class_embs, "class_embs")
    check_cells(class_embs, "class_embs")
    if image_emb.shape[1] != class_embs.shape[1]:
        raise DimMismatchError(f"dims differ: {image_emb.shape[1]} vs {class_embs.shape[1]}")
    sims = cosine_similarity_matrix(image_emb, class_embs)
    return np.argmax(sims, axis=1)


def _recall_one_direction(sim: np.ndarray, k_values) -> dict[int, float]:
    n_candidates = sim.shape[1]
    out = {}
    diag = np.diag(sim)[:, None]
    # 1 + candidates scoring above the true match + earlier candidates tied with it
    ranks = 1 + (sim > diag).sum(axis=1) + np.tril(sim == diag, -1).sum(axis=1)
    for k in k_values:
        if k > n_candidates:
            raise KExceedsCorpusError(f"k={k} exceeds corpus size {n_candidates}")
        out[int(k)] = float(np.mean(ranks <= k))
    return out


def recall_at_k(sim, k_values=EvalConfig.recall_ks) -> dict[str, dict[int, float]]:
    """Fraction of queries whose true match (the diagonal) ranks in the top k.

    Rows are text queries against image candidates ("t2i"), columns the
    reverse ("i2t").  Score ties count the lower index as retrieved first.
    Cut-offs are checked as :class:`EvalConfig` checks ``recall_ks``.
    """
    _check_recall_ks(k_values)
    sim = as_matrix(sim, "sim")
    if sim.shape[0] != sim.shape[1]:
        raise DimMismatchError(f"diagonal ground truth needs a square matrix, got {sim.shape}")
    return {
        "t2i": _recall_one_direction(sim, k_values),
        "i2t": _recall_one_direction(sim.T, k_values),
    }


def pool_video_embedding(frames, n_samples: int = 10) -> np.ndarray:
    """:func:`~lecnce.losses._pool_segments` of the rows :func:`subsample_frames` picks: their mean, renormalized.

    ``frames`` without cells raises :class:`EmptyMatrixError`.
    """
    frames = as_matrix(frames, "frames")
    check_cells(frames, "frames")
    return _pool_segments(subsample_frames(frames, n_samples)[None])[0][0]


def _class_ids(values, name: str, n_classes: float = np.inf) -> np.ndarray:
    """``values`` as an int array; an entry that is not a whole number in [0, n_classes) raises FieldValueError."""
    values = np.asarray(values)
    ok = (values == np.round(values)) & (values >= 0) & (values < n_classes)
    if not ok.all():
        raise FieldValueError(name, f"must be whole class ids in [0, {n_classes}), got {values[~ok].flat[0]}")
    return values.astype(int)


@dataclass
class ProbeResult:
    """Trained linear head with its held-out metrics and how far the fit converged."""

    weights: np.ndarray
    bias: np.ndarray
    accuracy: float
    macro_f1: float
    per_class_f1: list[float]
    iterations: int
    grad_norm: float


PROBE_TOL = 1e-4  # the fit stops once the objective's gradient norm is below this
PROBE_TEST_FRACTION = 0.25  # share of the rows held out when no explicit test set is given
_MEMORY = 10  # curvature pairs the L-BFGS direction remembers
_ARMIJO = 1e-4  # sufficient-decrease constant of the backtracking line search
_HALVINGS = 40  # step halvings before a line search gives up and the fit stops


def _probe_objective(x, y, k, wd):
    """The objective of :func:`linear_probe` with ``k`` classes, computed class-major in one reused (k, n) buffer.

    Returns a function of the flat parameters ``theta`` (``w`` row-major, then
    ``b``) giving mean NLL + wd/2 * |w|^2 and its flat gradient.  The logits
    are ``w.T @ x.T`` on a transposed view of the features, never a copy, so
    each sample's max, exp-sum and normalisation run along axis 0 over k
    contiguous rows of length n.  Besides the two products (the logits and
    the weight gradient ``(z @ x).T``), a call makes seven elementwise passes
    over the buffer: add the bias, take the max, subtract it, exp, sum, one
    multiply by 1 / (n * sum), and the bias gradient's sum.  The n true-class
    cells are read and written through one precomputed flat index.  A trial
    point so far out that the logits overflow gives a NaN loss, which the
    line search rejects, instead of a warning.
    """
    n, d = x.shape
    xt = x.T
    buf = np.empty((k, n))
    true_cells = y * n + np.arange(n)  # sample j's true-class cell in buf.reshape(-1)

    @np.errstate(over="ignore", invalid="ignore")
    def f(theta):
        w, b = theta[: d * k].reshape(d, k), theta[d * k :]
        z = np.matmul(w.T, xt, out=buf)
        z += b[:, None]
        z -= z.max(axis=0)
        cells = z.reshape(-1)
        true = cells[true_cells]
        np.exp(z, out=z)
        total = z.sum(axis=0)
        loss = (np.log(total).sum() - true.sum()) / n + 0.5 * wd * float(np.dot(theta[: d * k], theta[: d * k]))
        z *= 1.0 / (n * total)
        cells[true_cells] -= 1.0 / n
        grad_w = (z @ x).T
        grad_w += wd * w
        return loss, np.concatenate([grad_w.ravel(), z.sum(axis=1)])

    return f


def linear_probe(
    features,
    labels,
    lr: float = 1.0,
    weight_decay: float = EvalConfig.probe_weight_decay,
    epochs: int = EvalConfig.probe_epochs,
    rng: np.random.Generator | None = None,
    test_features=None,
    test_labels=None,
    tol: float = PROBE_TOL,
) -> ProbeResult:
    """Multinomial logistic regression on frozen features, fit by full-batch L-BFGS.

    Minimises mean NLL + weight_decay/2 * |W|^2 (the bias is not decayed),
    starting from zero, until the gradient norm is below ``tol`` or after
    ``epochs`` iterations, each one full-batch pass.  ``lr`` is the step
    length of the first iteration, taken before any curvature pair exists.
    Only the classes of the training rows are fit: a class without rows
    there has no finite optimum, so it gets zero weights and a -inf bias
    and is never predicted.
    The fit is deterministic and, up to rounding, independent of the row
    order; ``rng`` only draws the held-out split when no explicit test set
    is given, :data:`PROBE_TEST_FRACTION` of the rows.  The features are
    never modified.  ``lr`` and ``tol`` must be finite and > 0, or
    FieldValueError names the argument.
    """
    check_positive("lr", lr)
    check_positive("tol", tol)
    features = as_matrix(features, "features")
    labels = _class_ids(labels, "labels")
    if labels.shape != (features.shape[0],):
        raise DimMismatchError(f"labels of shape {labels.shape} for {features.shape[0]} rows")
    if (test_features is None) != (test_labels is None):
        raise FieldValueError("test_features", "and test_labels must be given together")
    rng = rng if rng is not None else make_rng(0)

    if test_features is None:
        n = features.shape[0]
        n_test = max(1, int(np.floor(PROBE_TEST_FRACTION * n)))
        perm = rng.permutation(n)
        test_idx, train_idx = perm[:n_test], perm[n_test:]
        x_train, y_train = features[train_idx], labels[train_idx]
        x_test, y_test = features[test_idx], labels[test_idx]
    else:
        x_train, y_train = features, labels
        x_test = as_matrix(test_features, "test_features")
        y_test = _class_ids(test_labels, "test_labels")
        if x_test.shape[1] != features.shape[1]:
            raise DimMismatchError(f"test_features have dim {x_test.shape[1]}, features {features.shape[1]}")
        if y_test.shape != (x_test.shape[0],):
            raise DimMismatchError(f"test_labels of shape {y_test.shape} for {x_test.shape[0]} test rows")

    classes = np.flatnonzero(np.bincount(y_train))  # the sorted distinct ids; np.unique would import numpy.ma
    if classes.size < 2:
        raise SingleClassError(f"training labels contain {classes.size} class(es)")
    n_classes = int(max(labels.max(), y_test.max(initial=0))) + 1

    d, k = x_train.shape[1], classes.size
    objective = _probe_objective(x_train, np.searchsorted(classes, y_train), k, weight_decay)
    theta = np.zeros((d + 1) * k)
    loss, grad = objective(theta)
    pairs: list[tuple[np.ndarray, np.ndarray, float]] = []  # (s, y, 1 / s.y), oldest first
    iterations = 0
    while iterations < epochs and np.linalg.norm(grad) >= tol:
        # two-loop recursion: direction = -H grad, H0 scaled by the newest pair (lr before any)
        q = grad.copy()
        alphas = []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * float(s @ q))
            q -= alphas[-1] * y
        q *= float(pairs[-1][0] @ pairs[-1][1]) / float(pairs[-1][1] @ pairs[-1][1]) if pairs else lr
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            q += (alpha - rho * float(y @ q)) * s
        slope = -float(grad @ q)
        step = 1.0
        for _ in range(_HALVINGS):
            new_loss, new_grad = objective(theta - step * q)
            if new_loss <= loss + _ARMIJO * step * slope:
                break
            step *= 0.5
        else:
            break  # no sufficient decrease: the reported gradient norm shows where the fit stopped
        s, y = -step * q, new_grad - grad
        theta, loss, grad = theta + s, new_loss, new_grad
        iterations += 1
        sy = float(s @ y)
        if sy > 1e-12:  # a pair without positive curvature would break the two-loop recursion
            pairs = (pairs + [(s, y, 1.0 / sy)])[-_MEMORY:]

    w, b = np.zeros((d, n_classes)), np.full(n_classes, -np.inf)
    w[:, classes], b[classes] = theta[: d * k].reshape(d, k), theta[d * k :]
    preds = np.argmax(x_test @ w + b, axis=1)
    acc, macro, per_class = accuracy_f1(preds, y_test, n_classes)
    return ProbeResult(weights=w, bias=b, accuracy=acc, macro_f1=macro, per_class_f1=per_class,
                       iterations=iterations, grad_norm=float(np.linalg.norm(grad)))


def accuracy_f1(preds, labels, n_classes: int) -> tuple[float, float, list[float]]:
    """Accuracy, macro F1 (unweighted mean over all classes), per-class F1.

    A class absent from both predictions and labels contributes F1 = 0.
    """
    preds = _class_ids(preds, "preds", n_classes)
    labels = _class_ids(labels, "labels", n_classes)
    if preds.shape != labels.shape:
        raise DimMismatchError(f"preds shape {preds.shape} != labels shape {labels.shape}")
    accuracy = float(np.mean(preds == labels)) if labels.size else 0.0
    tp = np.bincount(labels[preds == labels], minlength=n_classes)
    denom = sum(np.bincount(ids.ravel(), minlength=n_classes) for ids in (preds, labels))  # 2tp + fp + fn
    per_class = np.divide(2 * tp, denom, out=np.zeros(n_classes), where=denom > 0)
    return accuracy, float(np.mean(per_class)), per_class.tolist()


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
    """Bundle of metrics with a fixed JSON wire format; ``accuracy`` and ``*_f1`` are zero-shot.

    ``probe``, written only when the linear probe ran, holds its accuracy, macro_f1, per_class_f1,
    and the iterations and final gradient norm of its fit.
    """

    accuracy: float | None = None
    macro_f1: float | None = None
    per_class_f1: list[float] = field(default_factory=list)
    recall: dict = field(default_factory=dict)
    modality_gap: float | None = None
    probe: dict | None = None

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
            **({"probe": self.probe} if self.probe is not None else {}),
        }
        return json.dumps(payload, sort_keys=True, indent=1) + "\n"


PROTOCOLS = ("zero_shot", "retrieval", "probe")


def retrieval_clips(holdout: Dataset, size: int):
    """At most ``size`` held-out clips, strided so the retrieval set covers all procedures."""
    clips = holdout.samples["clip"]
    return clips[:: max(1, len(clips) // size)][:size]


def probe_videos(train: Dataset, shots: float):
    """The first ``shots`` percent of the training videos, at least one: the probe's training set."""
    videos = train.samples["video"]
    return videos[: max(1, int(np.floor(len(videos) * float(shots) / 100.0)))]


def evaluate(visual: enc.EncoderParams, text: enc.EncoderParams, train: Dataset, holdout: Dataset,
             cfg: EvalConfig, protocols=PROTOCOLS) -> EvalReport:
    """The report of ``protocols``, a subset of :data:`PROTOCOLS`, and of the modality gap.

    Zero-shot and the probe score the held-out video frames; retrieval and the gap
    pair the pooled :func:`retrieval_clips` with their narrations.  Nothing is random.
    """
    for name in protocols:
        if name not in PROTOCOLS:
            raise FieldValueError("protocols", f"must be among {PROTOCOLS}, got {name!r}")
    report = EvalReport()
    videos = holdout.samples["video"]
    labels = videos.labels.ravel()
    if "zero_shot" in protocols or "probe" in protocols:
        frame_embs = enc.forward(visual, videos.frames.reshape(-1, train.spec.visual_dim))
    if "zero_shot" in protocols:
        truth = train.ground_truth
        preds = zero_shot_classify(frame_embs, enc.forward(text, truth.class_text_features()))
        report.accuracy, report.macro_f1, report.per_class_f1 = accuracy_f1(preds, labels, truth.concepts.shape[0])
    clips = retrieval_clips(holdout, cfg.retrieval_size)
    clip_rows = np.stack([pool_video_embedding(enc.forward(visual, frames)) for frames in clips.frames])
    narr_rows = enc.forward(text, clips.parents)
    if "retrieval" in protocols:
        report.recall = recall_at_k(cosine_similarity_matrix(narr_rows, clip_rows), cfg.recall_ks)
    if "probe" in protocols:
        picked = probe_videos(train, cfg.shots)
        probe = linear_probe(enc.forward(visual, picked.frames.reshape(-1, train.spec.visual_dim)), picked.labels.ravel(),
                             weight_decay=cfg.probe_weight_decay, epochs=cfg.probe_epochs,
                             test_features=frame_embs, test_labels=labels)
        report.probe = {"accuracy": probe.accuracy, "macro_f1": probe.macro_f1, "per_class_f1": probe.per_class_f1,
                        "iterations": probe.iterations, "grad_norm": probe.grad_norm}
    report.modality_gap = modality_gap(clip_rows, narr_rows)
    return report
