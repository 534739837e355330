"""Training objectives: contrastive InfoNCE, alignment-cost construction,
the DTW hinge on reversed text sequences, and their level-specific
combinations.

Every loss returns a :class:`LossValue` carrying the scalar, analytic
gradients with respect to each input array, and the component scalars that
make up the total.  Gradients are exact (validated against central finite
differences in the test suite) and treat the inputs as free variables; the
encoder's normalization Jacobian is applied separately by the encoder
backward pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .alignment import CostMatrix, align, align_batch, dtw_subgradient
from .errors import (
    DimMismatchError,
    EmptyChildSequenceError,
    EmptyMatrixError,
    EmptyPositiveSetError,
    FieldValueError,
    NonFiniteError,
    RowNotNormalizedError,
    ShapeMismatchError,
    ZeroVectorError,
    check_minimums,
)
from .numerics import as_matrix, log_softmax_rows, softmax_rows

HINGE_FORMS = ("standard", "literal")
ROW_NORM_TOL = 1e-6


@dataclass
class LossConfig:
    """Hyperparameters shared by all objectives.

    ``beta`` tempers the alignment-cost softmax, ``phi`` is the hinge
    margin between forward and reversed alignment costs, and
    ``lambda_dtw`` scales the alignment term against the contrastive one.
    """

    temperature_infonce: float = 0.07
    beta: float = 0.1
    phi: float = 0.1
    lambda_dtw: float = 0.01
    hinge_form: str = "standard"
    symmetric: bool = True

    def __post_init__(self):
        if not self.beta > 0:
            raise FieldValueError("beta", f"must be > 0, got {self.beta}")
        if not self.temperature_infonce > 0:
            raise FieldValueError("temperature_infonce", f"must be > 0, got {self.temperature_infonce}")
        check_minimums(self, lambda_dtw=0)
        if self.hinge_form not in HINGE_FORMS:
            raise FieldValueError("hinge_form", f"must be one of {HINGE_FORMS}, got {self.hinge_form!r}")


@dataclass
class LossValue:
    """Scalar loss, per-input gradients, and named component scalars."""

    value: float
    grads: dict = field(default_factory=dict)
    components: dict = field(default_factory=dict)


def diagonal_positives(n: int) -> list[list[int]]:
    """The standard matched-pair positive sets: row i's positive is column i."""
    return [[i] for i in range(n)]


def _row_nce(z: np.ndarray, positives: Sequence[Sequence[int]]) -> tuple[float, np.ndarray]:
    """Mean over rows of -log(sum_pos e^z / sum_all e^z) plus its gradient.

    ``z`` is the already-tempered logit matrix.  The gradient is with
    respect to ``z``.
    """
    b, m = z.shape
    if len(positives) != b:
        raise DimMismatchError(f"{len(positives)} positive sets for {b} rows")
    shifted = z - z.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    denom = exp.sum(axis=1)
    value = 0.0
    grad = exp / denom[:, None] / b
    cols = np.array([int(j) for pos in positives for j in pos], dtype=int)
    if all(len(pos) == 1 for pos in positives) and np.all((cols >= 0) & (cols < m)):
        # one valid positive per row: a gather replaces the per-row index sets
        rows = np.arange(b)
        pos_exp = exp[rows, cols]
        for term in (np.log(denom) - np.log(pos_exp)).tolist():  # in row order, as the loop adds
            value += term
        grad[rows, cols] -= pos_exp / pos_exp / b
    else:
        for i, pos in enumerate(positives):
            idx = np.asarray(sorted(set(int(j) for j in pos)), dtype=int)
            if idx.size == 0:
                raise EmptyPositiveSetError(f"row {i} has no positives")
            if idx.min() < 0 or idx.max() >= m:
                raise DimMismatchError(f"row {i} positive index out of range for {m} columns")
            pos_sum = exp[i, idx].sum()
            value += float(np.log(denom[i]) - np.log(pos_sum))
            grad[i, idx] -= exp[i, idx] / pos_sum / b
    return value / b, grad


def info_nce(
    sim,
    positives: Sequence[Sequence[int]],
    temperature: float = LossConfig.temperature_infonce,
    symmetric: bool = LossConfig.symmetric,
) -> LossValue:
    """Multi-positive contrastive loss over a similarity matrix.

    Row i is an anchor whose positive columns are ``positives[i]``; the
    loss is the mean over rows of -log of the positive mass under the
    row softmax of ``sim / temperature``.  With ``symmetric=True`` the
    matrix must be square and the column direction (single positive on the
    diagonal) is averaged in, matching two-way retrieval training.
    """
    sim = as_matrix(sim, "sim")
    if not temperature > 0:
        raise ValueError(f"temperature must be > 0, got {temperature}")
    z = sim / temperature

    row_value, row_grad = _row_nce(z, positives)
    if not symmetric:
        return LossValue(value=row_value, grads={"sim": row_grad / temperature})

    if sim.shape[0] != sim.shape[1]:
        raise DimMismatchError(f"symmetric loss needs a square matrix, got {sim.shape}")
    col_value, col_grad = _row_nce(z.T, diagonal_positives(sim.shape[1]))
    value = 0.5 * (row_value + col_value)
    grad = 0.5 * (row_grad + col_grad.T) / temperature
    return LossValue(value=value, grads={"sim": grad})


def _costs(frames: np.ndarray, texts: np.ndarray, beta: float) -> np.ndarray:
    """Cost values of (T, d)/(N, d) frames and texts, or of (B, T, d)/(B, N, d) stacks of them."""
    sim = frames @ np.swapaxes(texts, -1, -2)
    return -log_softmax_rows(sim.reshape(-1, sim.shape[-1]), beta).reshape(sim.shape)


def _costs_backward(frames: np.ndarray, texts: np.ndarray, beta: float, grad_cost: np.ndarray):
    """Gradients of :func:`_costs` with respect to ``frames`` and ``texts``."""
    sim = frames @ np.swapaxes(texts, -1, -2)
    p = softmax_rows(sim.reshape(-1, sim.shape[-1]), beta).reshape(sim.shape)
    # dL/ds[i,k] = (p[i,k] * sum_j g[i,j] - g[i,k]) / beta
    grad_sim = (p * grad_cost.sum(axis=-1, keepdims=True) - grad_cost) / beta
    return grad_sim @ texts, np.swapaxes(grad_sim, -1, -2) @ frames


def build_cost_matrix(frames, texts, beta: float = LossConfig.beta, validate: bool = True) -> CostMatrix:
    """Per-frame negative log-probability of each text under a softmax over texts.

    ``c[i][j] = -log softmax_j(frames[i] . texts[j] / beta)``; rows of both
    inputs are expected unit-norm so the dot products are cosines.  Entries
    are non-negative and each row satisfies sum_j exp(-c[i][j]) = 1.
    """
    frames = as_matrix(frames, "frames")
    texts = as_matrix(texts, "texts")
    if frames.shape[1] != texts.shape[1]:
        raise DimMismatchError(f"embedding dims differ: {frames.shape[1]} vs {texts.shape[1]}")
    if validate:
        for name, m in (("frames", frames), ("texts", texts)):
            norms = np.linalg.norm(m, axis=1)
            if np.any(np.abs(norms - 1.0) > ROW_NORM_TOL):
                bad = int(np.argmax(np.abs(norms - 1.0)))
                raise RowNotNormalizedError(f"{name} row {bad} has norm {norms[bad]:.9f}")
    return CostMatrix(values=_costs(frames, texts, beta), beta=beta, reversed_cols=False)


def cost_matrix_backward(frames, texts, beta: float, grad_cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chain a gradient on cost-matrix entries back to the two embedding matrices."""
    return _costs_backward(as_matrix(frames, "frames"), as_matrix(texts, "texts"), beta, grad_cost)


def _hinge(delta, phi: float, form: str):
    """Hinge value and activity for forward-minus-reversed cost gaps ``delta``.

    Elementwise over arrays; ties resolve as Python's ``max`` would.
    """
    if form == "standard":
        return np.where(delta + phi > 0.0, delta + phi, 0.0), delta + phi > 0.0
    return np.where(phi > delta, phi, delta), delta > phi


def dtw_hinge(
    c_forward: CostMatrix,
    c_reversed: CostMatrix,
    phi: float = LossConfig.phi,
    form: str = LossConfig.hinge_form,
    algorithm: str = "greedy",
) -> LossValue:
    """Margin loss between forward and reversed alignment costs.

    standard: max(0, DTW(C) - DTW(C_rev) + phi); the printed one-sided
    reading max(DTW(C) - DTW(C_rev), phi) is available as ``literal``.
    Gradients flow through both alignments via the fixed-path subgradient
    and vanish when the hinge is inactive.
    """
    if form not in HINGE_FORMS:
        raise ValueError(f"form must be one of {HINGE_FORMS}, got {form!r}")
    if c_forward.shape != c_reversed.shape:
        raise ShapeMismatchError(f"cost matrices differ in shape: {c_forward.shape} vs {c_reversed.shape}")
    fwd = align(c_forward, algorithm)
    rev = align(c_reversed, algorithm)
    value, active = _hinge(fwd.cost - rev.cost, phi, form)
    if active:
        grad_fwd = dtw_subgradient(c_forward, fwd)
        grad_rev = -dtw_subgradient(c_reversed, rev)
    else:
        grad_fwd = np.zeros(c_forward.shape)
        grad_rev = np.zeros(c_reversed.shape)
    return LossValue(
        value=float(value),
        grads={"c_forward": grad_fwd, "c_reversed": grad_rev},
        components={"dtw_forward": fwd.cost, "dtw_reversed": rev.cost},
    )


def clip_lecnce(clip_frames, narrations, view_a, view_b, cfg: LossConfig) -> LossValue:
    """Clip-level objective: narration contrast plus two-view self-supervision.

    Row i of every input refers to clip i.  The value is the sum of an
    InfoNCE between clip and narration embeddings and an InfoNCE between
    the two augmented-view embeddings, both with diagonal positives.
    """
    clip_frames = as_matrix(clip_frames, "clip_frames")
    narrations = as_matrix(narrations, "narrations")
    view_a = as_matrix(view_a, "view_a")
    view_b = as_matrix(view_b, "view_b")
    b = clip_frames.shape[0]
    for name, m in (("narrations", narrations), ("view_a", view_a), ("view_b", view_b)):
        if m.shape[0] != b:
            raise DimMismatchError(f"{name} has {m.shape[0]} rows, expected {b}")

    tau = cfg.temperature_infonce
    diag = diagonal_positives(b)
    vl = info_nce(clip_frames @ narrations.T, diag, tau, cfg.symmetric)
    vv = info_nce(view_a @ view_b.T, diag, tau, cfg.symmetric)
    g_vl = vl.grads["sim"]
    g_vv = vv.grads["sim"]
    return LossValue(
        value=vl.value + vv.value,
        grads={
            "clip_frames": g_vl @ narrations,
            "narrations": g_vl.T @ clip_frames,
            "view_a": g_vv @ view_b,
            "view_b": g_vv.T @ view_a,
        },
        components={"vl": vl.value, "vv": vv.value},
    )


def pool_segments(segments: Sequence[np.ndarray]) -> tuple[np.ndarray, tuple]:
    """Renormalized mean of each (T_k, d) segment, as one (B, d) array plus a cache.

    Segments of equal length are averaged in one stacked mean, which adds
    each segment's rows in the order ``segment.mean(axis=0)`` does for
    every d; padding ragged segments with zeros would regroup the pairwise
    sum numpy runs along T when d == 1.
    """
    lengths = np.array([s.shape[0] for s in segments])
    z = np.empty((len(segments), segments[0].shape[1]))
    for t in np.unique(lengths):
        idx = np.flatnonzero(lengths == t)
        z[idx] = np.stack([segments[k] for k in idx]).mean(axis=1)
    # a (1, d) @ (d, 1) product per row is the dot np.linalg.norm takes of a vector
    norms = np.sqrt((z[:, None, :] @ z[:, :, None])[:, 0, 0])
    if np.any(norms < 1e-12):
        raise ZeroVectorError(f"segment {int(np.argmin(norms))} pooled row collapsed to zero")
    u = z / norms[:, None]
    return u, (u, norms, lengths)


def pool_segments_backward(grad_pooled: np.ndarray, cache: tuple) -> np.ndarray:
    """Gradient of :func:`pool_segments` as the segments' rows stacked in order."""
    u, norms, lengths = cache
    radial = (u[:, None, :] @ grad_pooled[:, :, None])[:, 0]
    g_z = (grad_pooled - u * radial) / norms[:, None]
    return np.repeat(g_z / lengths[:, None], lengths, axis=0)


def hier_lecnce(
    segment_frames: Sequence[np.ndarray],
    parent_texts,
    child_texts: Sequence[np.ndarray],
    cfg: LossConfig,
    dtw_algorithm: str = "greedy",
) -> LossValue:
    """Phase/video-level objective: pooled-segment contrast plus DTW hinge.

    Sample k pairs a frame-embedding matrix ``segment_frames[k]`` with one
    parent text (row k of ``parent_texts``) and an ordered child text
    matrix ``child_texts[k]``.  Pooled segment embeddings are contrasted
    against parent texts with diagonal positives; each sample additionally
    pays a reversal hinge on the alignment cost between its frames and its
    child texts, averaged over the batch and scaled by ``lambda_dtw``.
    """
    parent_texts = as_matrix(parent_texts, "parent_texts")
    b, d = len(segment_frames), parent_texts.shape[1]
    if b == 0 or parent_texts.shape[0] != b or len(child_texts) != b:
        raise DimMismatchError(
            f"batch sizes disagree: {b} segments, {parent_texts.shape[0]} parents, {len(child_texts)} child sets"
        )

    # shapes are checked per sample, values once per stack of the samples
    # that share a (T, N) shape, whose cost matrices are built in one pass
    frames = [np.asarray(f, dtype=np.float64) for f in segment_frames]
    children = [np.asarray(c, dtype=np.float64) for c in child_texts]
    groups: dict[tuple[int, int], list[int]] = {}
    for k in range(b):
        for name, m, empty in (
            ("segment_frames", frames[k], EmptyMatrixError),
            ("child_texts", children[k], EmptyChildSequenceError),
        ):
            if m.ndim != 2 or m.shape[1] != d:
                raise DimMismatchError(f"{name}[{k}] must have shape (rows, {d}) for joint dim {d}, got {m.shape}")
            if len(m) == 0:
                raise empty(f"{name}[{k}] has no rows")
        groups.setdefault((len(frames[k]), len(children[k])), []).append(k)
    stacks = []
    matrices = [None] * b
    for idx in groups.values():
        f_stack = np.stack([frames[k] for k in idx])
        c_stack = np.stack([children[k] for k in idx])
        for name, parts, stack in (("segment_frames", frames, f_stack), ("child_texts", children, c_stack)):
            if not np.isfinite(stack).all():
                bad = next(k for k in idx if not np.isfinite(parts[k]).all())
                raise NonFiniteError(f"{name}[{bad}] contains non-finite values")
        for k, m in zip(idx, _costs(f_stack, c_stack, cfg.beta)):
            matrices[k] = m
        stacks.append((np.array(idx), f_stack, c_stack))

    pooled, pool_cache = pool_segments(frames)
    tau = cfg.temperature_infonce
    contrast = info_nce(pooled @ parent_texts.T, diagonal_positives(b), tau, cfg.symmetric)
    g_sim = contrast.grads["sim"]
    grad_parent = g_sim.T @ pooled
    grad_pooled = g_sim @ parent_texts

    grad_rows = pool_segments_backward(grad_pooled, pool_cache)
    grad_frames = np.split(grad_rows, np.cumsum([len(f) for f in frames])[:-1])
    grad_children = [np.zeros_like(c) for c in children]

    # one alignment call for the batch: every forward matrix and its
    # column-reversed view, which needs no re-validation
    costs, paths = align_batch(matrices + [m[:, ::-1] for m in matrices], dtw_algorithm)
    hinge, active = _hinge(costs[:b] - costs[b:], cfg.phi, cfg.hinge_form)
    dtw_total = 0.0
    for value in hinge.tolist():  # sequential, not pairwise, to match a per-sample dtw_hinge sum
        dtw_total += value

    lam = cfg.lambda_dtw
    if lam > 0:
        # an inactive hinge has an all-zero cost gradient and adds nothing;
        # the active samples of each shape go back through one stacked pass
        for idx, f_stack, c_stack in stacks:
            on = active[idx]
            if on.any():
                ks, t, n = idx[on], f_stack.shape[1], c_stack.shape[1]
                # the reversed matrix shares entries with the forward one, so
                # its path folds back after un-flipping the column axis
                grad_cost = paths[ks, :t, :n] - paths[b + ks, :t, :n][:, :, ::-1]
                g_f, g_c = _costs_backward(f_stack[on], c_stack[on], cfg.beta, grad_cost * (lam / b))
                for k, gf, gc in zip(ks, g_f, g_c):
                    grad_frames[k] = grad_frames[k] + gf
                    grad_children[k] = grad_children[k] + gc

    dtw_mean = dtw_total / b
    return LossValue(
        value=contrast.value + lam * dtw_mean,
        grads={
            "segment_frames": grad_frames,
            "parent_texts": grad_parent,
            "child_texts": grad_children,
        },
        components={"infonce": contrast.value, "dtw": dtw_mean},
    )
