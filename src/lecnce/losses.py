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

import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .alignment import CostMatrix, _align_padded, align_batch, check_algorithm
from .errors import (
    DimMismatchError,
    FieldValueError,
    RowNotNormalizedError,
    ZeroVectorError,
    check_minimums,
    check_positive,
)
from .numerics import ZERO_NORM_TOL, _row_dots, as_matrix, as_stack, check_cells

ROW_NORM_TOL = 1e-6


@dataclass
class LossConfig:
    """Hyperparameters shared by all objectives.

    ``beta`` tempers the alignment-cost softmax, ``phi`` is the hinge
    margin between forward and reversed alignment costs, and
    ``lambda_dtw`` scales the alignment term against the contrastive one.
    Every InfoNCE term of the objectives is symmetric.
    """

    temperature_infonce: float = 0.07
    beta: float = 0.1
    phi: float = 0.1
    lambda_dtw: float = 0.01

    def __post_init__(self):
        for name in ("beta", "temperature_infonce"):
            check_positive(name, getattr(self, name))
        if not np.isfinite(self.phi):
            raise FieldValueError("phi", f"must be finite, got {self.phi}")
        check_minimums(self, lambda_dtw=0)


@dataclass
class LossValue:
    """Scalar loss, per-input gradients, and named component scalars."""

    value: float
    grads: dict = field(default_factory=dict)
    components: dict = field(default_factory=dict)


@functools.lru_cache(maxsize=256)  # one immutable object per n, which _row_nce recognises
def diagonal_positives(n: int) -> tuple[tuple[int], ...]:
    """The standard matched-pair positive sets: row i's positive is column i."""
    return tuple((i,) for i in range(n))


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
    grad = exp / denom[:, None] / b
    if positives is diagonal_positives(b) and b <= m:
        # the training case, no Python pass over the rows: a gather, its terms
        # added in row order from 0.0 as the per-row loop adds
        rows = np.arange(b)
        pos_exp = exp[rows, rows]
        value = float(0.0 + np.add.accumulate(np.log(denom) - np.log(pos_exp))[-1])
        grad[rows, rows] -= pos_exp / pos_exp / b
    else:
        value = 0.0
        for i, pos in enumerate(positives):
            idx = np.asarray(sorted(set(int(j) for j in pos)), dtype=int)
            if idx.size == 0:
                raise FieldValueError("positives", f"row {i} has no positives")
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
    symmetric: bool = True,
) -> LossValue:
    """Multi-positive contrastive loss over a similarity matrix.

    Row i is an anchor whose positive columns are ``positives[i]``; the
    loss is the mean over rows of -log of the positive mass under the
    row softmax of ``sim / temperature``.  With ``symmetric=True`` the
    matrix must be square and the column direction (single positive on the
    diagonal) is averaged in, matching two-way retrieval training.  A
    temperature that is not finite and > 0, or a row without positives, raises
    :class:`FieldValueError`, a ``sim`` without cells :class:`EmptyMatrixError`.
    """
    sim = as_matrix(sim, "sim")
    check_cells(sim, "sim")
    check_positive("temperature", temperature)
    if symmetric and sim.shape[0] != sim.shape[1]:
        raise DimMismatchError(f"symmetric loss needs a square matrix, got {sim.shape}")
    return _info_nce(sim, positives, temperature, symmetric)


def _info_nce(sim: np.ndarray, positives, temperature: float, symmetric: bool = True) -> LossValue:
    """:func:`info_nce` on a finite 2-D float64 ``sim``, square when ``symmetric``, unchecked."""
    z = sim / temperature
    row_value, row_grad = _row_nce(z, positives)
    if not symmetric:
        return LossValue(value=row_value, grads={"sim": row_grad / temperature})
    col_value, col_grad = _row_nce(z.T, diagonal_positives(sim.shape[1]))
    value = 0.5 * (row_value + col_value)
    grad = 0.5 * (row_grad + col_grad.T) / temperature
    return LossValue(value=value, grads={"sim": grad})


def _costs(frames: np.ndarray, texts: np.ndarray, beta: float):
    """Cost values of (T, d)/(N, d) frames and texts, or of (B, T, d)/(B, N, d) stacks of them, and ``probs``.

    The costs are :func:`_softmax_costs` of the fresh product ``frames @ texts^T / beta``.  ``texts`` must have
    rows; the entries check that.
    """
    z = frames @ np.swapaxes(texts, -1, -2)
    z /= beta
    return _softmax_costs(z)


def _softmax_costs(z: np.ndarray):
    """-log_softmax over the last axis of the tempered similarities ``z``, in place on ``z``, and ``probs``.

    ``probs(rows)`` is the softmax behind the costs of the matrices ``rows`` selects, from this pass's exp and
    row sums.
    """
    # max-stabilized, in place; log(...) - z would turn its -0.0 costs into +0.0
    # The row max is a fold over the N text columns: numpy reduces a short last axis row by row, about 75 ns a
    # row (110-120 us at (25, 64, 6)), while N - 1 column maxima take a few us each.  A max is exact but for a
    # +0.0/-0.0 tie, which numpy's reduce resolves as this left-to-right fold for N <= 8 only.  Such a tie
    # leaves two entries at exp(+-0) = 1, so total >= 2 and no cost or probability depends on the zero kept.
    top = z[..., 0].copy()
    for j in range(1, z.shape[-1]):
        np.maximum(top, z[..., j], out=top)
    z -= top[..., None]
    e = np.exp(z)
    total = e.sum(axis=-1, keepdims=True)
    z -= np.log(total)
    return np.negative(z, out=z), lambda rows: e[rows] / total[rows]


def _costs_backward(frames: np.ndarray, texts: np.ndarray, probs: np.ndarray, beta: float, grad_cost: np.ndarray):
    """Gradients of :func:`_costs` with respect to ``frames`` and ``texts``, given its ``probs`` of them."""
    # dL/ds[i,k] = (p[i,k] * sum_j g[i,j] - g[i,k]) / beta
    grad_sim = (probs * grad_cost.sum(axis=-1, keepdims=True) - grad_cost) / beta
    return grad_sim @ texts, np.swapaxes(grad_sim, -1, -2) @ frames


def _cost_inputs(frames, texts, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Finite matrices with cells and one embedding dim, and a finite ``beta`` > 0: both cost entries' checks."""
    frames, texts = as_matrix(frames, "frames"), as_matrix(texts, "texts")
    check_cells(frames, "frames")
    check_cells(texts, "texts")
    check_positive("beta", beta)
    if frames.shape[1] != texts.shape[1]:
        raise DimMismatchError(f"embedding dims differ: {frames.shape[1]} vs {texts.shape[1]}")
    return frames, texts


def build_cost_matrix(frames, texts, beta: float = LossConfig.beta) -> CostMatrix:
    """Per-frame negative log-probability of each text under a softmax over texts.

    ``c[i][j] = -log softmax_j(frames[i] . texts[j] / beta) >= 0``; rows of both inputs
    must be unit-norm, so the dot products are cosines, or RowNotNormalizedError
    names the row furthest off.  Each row satisfies sum_j exp(-c[i][j]) = 1.
    A ``beta`` that is not finite and > 0 raises :class:`FieldValueError`, an
    input without cells :class:`EmptyMatrixError`.
    """
    frames, texts = _cost_inputs(frames, texts, beta)
    for name, m in (("frames", frames), ("texts", texts)):
        norms = np.linalg.norm(m, axis=1)
        if np.any(np.abs(norms - 1.0) > ROW_NORM_TOL):
            bad = int(np.argmax(np.abs(norms - 1.0)))
            raise RowNotNormalizedError(f"{name} row {bad} has norm {norms[bad]:.9f}")
    return CostMatrix(values=_costs(frames, texts, beta)[0])


def cost_matrix_backward(frames, texts, beta: float, grad_cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chain a gradient on cost-matrix entries back to the two embedding matrices.

    ``frames``, ``texts`` and ``beta`` are checked as in :func:`build_cost_matrix`,
    except for unit row norms; ``grad_cost`` must have the cost matrix's shape
    (T, N), or :class:`DimMismatchError` names both.
    """
    frames, texts = _cost_inputs(frames, texts, beta)
    grad_cost = np.asarray(grad_cost, dtype=np.float64)
    if grad_cost.shape != (len(frames), len(texts)):
        raise DimMismatchError(f"grad_cost has shape {grad_cost.shape}, the cost matrix {(len(frames), len(texts))}")
    return _costs_backward(frames, texts, _costs(frames, texts, beta)[1](...), beta, grad_cost)


def _hinge(delta, phi: float):
    """Hinge value max(0, delta + phi) and activity for forward-minus-reversed cost gaps ``delta``.

    Elementwise over arrays; ties resolve as Python's ``max`` would.
    """
    return np.where(delta + phi > 0.0, delta + phi, 0.0), delta + phi > 0.0


@functools.lru_cache(maxsize=64)
def _bound_plan(t: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """What :func:`_path_bounds` and :func:`_reversed_lower_bound` reuse for (t, n) matrices.

    ``weights`` is (t * n, n + 1): a flattened matrix times it gives, in one
    product, its n column-choice sums and its staircase sum.  Choice j takes
    column n in the first h = max(t//2, 1) rows and column j in the rest.
    The staircase is the cells (k*t//L, k*n//L), k < L = max(t, n): it runs
    from (0, 0) to (t-1, n-1) by down, right or diagonal moves, so it is a
    path, with one cell per row when t >= n.  ``triu`` (t, t) takes running
    sums down a column as a product too (a sum over the middle axis of a
    small stack costs several times more).
    """
    h, k = max(t // 2, 1), np.arange(max(t, n))
    weights = np.zeros((t, n, n + 1))
    weights[:h, -1, :n] = 1.0
    weights[h:, np.arange(n), np.arange(n)] = 1.0
    weights[k * t // len(k), k * n // len(k), n] = 1.0
    weights, triu = weights.reshape(t * n, n + 1), np.triu(np.ones((t, t)))
    weights.setflags(write=False)
    triu.setflags(write=False)
    return weights, triu


def _path_bounds(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per matrix of a (B, T, N) stack: one path's sum and the sums of N reversed column choices.

    The path is :func:`_bound_plan`'s staircase, so on costs its sum is >=
    the forward DP cost.  Choice j, a (B, N) entry, takes the reversed
    matrix's column 1 in the first ``max(T//2, 1)`` rows and one column
    (forward column j) in the rest: each is >= :func:`_reversed_lower_bound`.
    """
    b, t, n = x.shape
    sums = x.reshape(b, t * n) @ _bound_plan(t, n)[0]
    return sums[:, -1], sums[:, :-1]


def _reversed_lower_bound(x: np.ndarray) -> np.ndarray:
    """Per column-reversed matrix of a (B, T, N) stack: the least sum of one cell per row, columns non-decreasing from 1.

    A path's first column in each row never decreases and is column 1 in
    row 1; on costs, which are >= 0, the path costs at least those cells,
    so this is a lower bound on the reversed DP cost.  It is computed
    column by column: ``G_j = P_j + cummin(G_{j-1} - P_j)`` over the
    running row sums ``P_j`` of reversed column j, where ``G_j[i]`` is the
    least sum of rows 1..i whose last choice is a column <= j.
    """
    # (B, N, T) running row sums of each forward column; reversed column j is forward column N+1-j
    p = np.swapaxes(x, 1, 2) @ _bound_plan(*x.shape[1:])[1]
    g = p[:, -1]
    for j in range(x.shape[2] - 2, -1, -1):
        g = p[:, j] + np.minimum.accumulate(g - p[:, j], axis=1)
    return g[:, -1]


def _hinges_idle(z: np.ndarray, phi: float) -> bool:
    """Whether no DP reversal hinge max(0, DP(C) - DP(C_rev) + phi) of a batch can be active, from its similarities.

    ``z`` is the (B, T, N) stack ``s / beta`` that :func:`_softmax_costs`
    turns into the costs ``c_ij = K_i - z_ij``, ``K_i`` the row's
    log-sum-exp.  Each forward DP cost is at most its staircase's cost
    (:func:`_path_bounds`) and each reversed one at least
    :func:`_reversed_lower_bound`'s.  When T >= N both take exactly one cell
    per row, so on ``-z`` each is its cost-space value less ``sum_i K_i``:
    ``upper + phi < lower`` on ``-z`` is the cost-space decision, with no
    softmax.  When T < N the staircase repeats rows and the ``K_i`` do not
    cancel, so nothing is certified.  Each column choice is >= the lower
    bound, so a batch where one does not clear ``upper + phi`` is ruled out
    before the bound is computed.

    The decision is strict by ``2**-50 * (L**3 * C + |phi|)`` with L = T + N,
    C = 2 max|z| + log N + 1 and u = 2**-53; for L * u < 0.01 that exceeds
    every rounding between it and the float hinge:

    - a computed cost is ``K_i - z_ij`` (``K_i`` the computed row max plus
      log of the row sum) within two roundings, 2uC, and lies in
      [0, (1 + 3u)C], so the staircase's and the relaxation's T cells move
      by 4TuC in all;
    - a DP cost adds at most L costs, <= LC, with a rounding each: 1.01 L^2 uC
      apiece for the forward and the reversed one;
    - the staircase sum on ``-z`` is a product of length TN over T terms of
      size <= max|z|: 1.01 T^2 N uC; the relaxation's running sums are
      products of length T (1.01 T^2 uC each), and its N column steps add
      3.03 TuC and carry a running sum's error twice each;
    - the final ``upper + phi + slack`` rounds twice, 2.01u(TC + |phi|).

    Summed with T^2 N <= 4L^3/27 and TN <= L^2/4 this is under 4u L^3 C +
    2.01u |phi|, half the slack.  So a certified batch has, in real numbers,
    fl(DP(C)) + phi < fl(DP(C_rev)), and the float hinge
    ``fl(fl(DP(C)) - fl(DP(C_rev))) + phi > 0`` is false: rounding is
    monotone and -phi is a float.  A non-finite ``z``, or one whose L^3 C
    overflows, makes the slack inf or nan, which certifies nothing; every
    DP cost of a certified batch is at most LC, so one that would overflow
    still raises :class:`NonFiniteError` in the wavefront.
    """
    t, n = z.shape[1:]
    if t < n:
        return False
    with np.errstate(over="ignore", invalid="ignore"):  # a sum that is inf or nan certifies nothing
        neg = np.negative(z)
        upper, choices = _path_bounds(neg)
        if not (upper[:, None] + phi < choices).all():
            return False
        cost_bound = 2.0 * max(z.max(), neg.max()) + np.log(n) + 1.0
        margin = upper + phi + ((t + n) ** 3 * cost_bound + abs(phi)) * 2.0**-50
    return bool((margin < _reversed_lower_bound(neg)).all())


def dtw_hinge(
    c_forward: CostMatrix,
    c_reversed: CostMatrix,
    phi: float = LossConfig.phi,
    algorithm: str = "greedy",
) -> LossValue:
    """Margin loss max(0, DTW(C) - DTW(C_rev) + phi) between forward and reversed alignment costs.

    The printed one-sided reading max(DTW(C) - DTW(C_rev), phi) is this
    hinge at ``-phi``, its value lower by phi.  Gradients flow through both
    alignments via the fixed-path subgradient and vanish when the hinge is
    inactive.  The pair is aligned in one :func:`align_batch` call.
    """
    if c_forward.shape != c_reversed.shape:
        raise DimMismatchError(f"cost matrices differ in shape: {c_forward.shape} vs {c_reversed.shape}")
    (fwd, rev), paths = align_batch([c_forward.values, c_reversed.values], algorithm)
    value, active = _hinge(fwd - rev, phi)
    grad_fwd, grad_rev = (paths[0], -paths[1]) if active else np.zeros(paths.shape)
    return LossValue(
        value=float(value),
        grads={"c_forward": grad_fwd, "c_reversed": grad_rev},
        components={"dtw_forward": float(fwd), "dtw_reversed": float(rev)},
    )


def clip_lecnce(clip_frames, narrations, view_a, view_b, cfg: LossConfig) -> LossValue:
    """Clip-level objective: narration contrast plus two-view self-supervision.

    Every input has the (B, d) shape of ``clip_frames``; row i of each
    refers to clip i.  The value is the sum of an InfoNCE between clip and
    narration embeddings and an InfoNCE between the two augmented-view
    embeddings, both with diagonal positives.  An input without cells
    raises :class:`EmptyMatrixError`.
    """
    clip_frames = as_matrix(clip_frames, "clip_frames")
    narrations = as_matrix(narrations, "narrations")
    view_a = as_matrix(view_a, "view_a")
    view_b = as_matrix(view_b, "view_b")
    for name, m in (("clip_frames", clip_frames), ("narrations", narrations), ("view_a", view_a), ("view_b", view_b)):
        check_cells(m, name)
        if m.shape != clip_frames.shape:  # checked before any product
            raise DimMismatchError(f"{name} has shape {m.shape}, clip_frames {clip_frames.shape}")
    return _clip_lecnce(clip_frames, narrations, view_a, view_b, cfg)


def _clip_lecnce(clip_frames, narrations, view_a, view_b, cfg: LossConfig) -> LossValue:
    """:func:`clip_lecnce` on four (B, d) float64 matrices, unchecked: a non-finite entry makes the value nan."""
    b = clip_frames.shape[0]
    tau = cfg.temperature_infonce
    diag = diagonal_positives(b)
    vl = _info_nce(clip_frames @ narrations.T, diag, tau)
    vv = _info_nce(view_a @ view_b.T, diag, tau)
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


def _pool_segments(segments: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Renormalized mean over T of each segment of a finite (B, T, d) float64 stack with cells, unchecked.

    Returns the (B, d) means and a backward cache; each segment's rows add in ``segment.mean(axis=0)``'s order.
    """
    z = segments.mean(axis=1)
    norms = np.sqrt(_row_dots(z, z))
    if np.any(norms < ZERO_NORM_TOL):
        raise ZeroVectorError(f"segment {int(np.argmin(norms))} pooled row collapsed to zero")
    u = z / norms[:, None]
    return u, (u, norms, segments.shape[1])


def pool_segments_backward(grad_pooled: np.ndarray, cache: tuple) -> np.ndarray:
    """Gradient of :func:`_pool_segments` with respect to its (B, T, d) stack, from its cache."""
    u, norms, t = cache
    g_z = (grad_pooled - u * _row_dots(u, grad_pooled)[:, None]) / norms[:, None]
    return np.repeat((g_z / t)[:, None, :], t, axis=1)


def hier_lecnce(segment_frames, parent_texts, child_texts, cfg: LossConfig, dtw_algorithm: str = "greedy") -> LossValue:
    """Phase/video-level objective: pooled-segment contrast plus DTW hinge.

    Sample k pairs its frames ``segment_frames[k]`` (a (B, T, d) stack, or B
    equal-shape matrices) with one parent text (row k of ``parent_texts``)
    and its ordered child texts ``child_texts[k]`` (a (B, N, d) stack).
    Pooled segment embeddings are contrasted against parent texts with
    diagonal positives; each sample additionally pays a reversal hinge on
    the alignment cost between its frames and its child texts, averaged over
    the batch and scaled by ``lambda_dtw``.  With DP alignment a batch whose
    hinges are all provably inactive (:func:`_hinges_idle`, asked on the
    tempered similarities) builds no cost matrix and is not aligned: each
    hinge is 0.0 with a zero gradient, as the alignment would give.  Any
    other batch's costs come from the same similarity product, and its
    forward and reversed matrices are aligned in one
    :func:`~lecnce.alignment._align_padded` pass, which is asked for the
    active hinges' paths only.  The frame and child gradients come back as
    (B, T, d) and (B, N, d) arrays.  The inputs are checked here; what is
    built from them is not checked again.
    """
    parent_texts = as_matrix(parent_texts, "parent_texts")
    b, d = parent_texts.shape
    frames = as_stack(segment_frames, "segment_frames")
    children = as_stack(child_texts, "child_texts")
    for name, m in (("segment_frames", frames), ("child_texts", children)):
        if m.shape[0] != b or m.shape[2] != d:
            raise DimMismatchError(f"{name} must have shape ({b}, rows, {d}) for {b} parent texts, got {m.shape}")
    return _hier_lecnce(frames, parent_texts, children, cfg, check_algorithm(dtw_algorithm))


def _hier_lecnce(frames: np.ndarray, parent_texts: np.ndarray, children: np.ndarray, cfg: LossConfig,
                 algorithm: str) -> LossValue:
    """:func:`hier_lecnce` on (B, T, d)/(B, d)/(B, N, d) float64 arrays with cells and a known algorithm, unchecked.

    A non-finite entry makes the value nan, or the DP alignment raises :class:`NonFiniteError`.
    """
    b = parent_texts.shape[0]
    # the whole batch in one pass: its similarity product, which settles
    # every DP hinge or becomes the cost matrices (each cost is -log of a
    # probability, so >= 0) as in _costs; then their column-reversed views
    # in one inf-padded stack, their alignment costs, and the paths and
    # backward of the active hinges only (an inactive hinge has an all-zero
    # cost gradient)
    lam = cfg.lambda_dtw
    z = frames @ np.swapaxes(children, -1, -2)
    z /= cfg.beta
    if algorithm == "dp" and _hinges_idle(z, cfg.phi):
        hinge, active = np.zeros(b), np.zeros(b, dtype=bool)
    else:
        costs, probs = _softmax_costs(z)
        t, n = costs.shape[1:]
        padded = np.full((2 * b, t + 1, n + 1), np.inf)  # the inf border of alignment's walk and DP table
        padded[:b, 1:, 1:] = costs
        padded[b:, 1:, 1:] = costs[:, :, ::-1]
        aligned, paths = _align_padded(padded, algorithm)
        hinge, active = _hinge(aligned[:b] - aligned[b:], cfg.phi)

    pooled, pool_cache = _pool_segments(frames)
    contrast = _info_nce(pooled @ parent_texts.T, diagonal_positives(b), cfg.temperature_infonce)
    g_sim = contrast.grads["sim"]
    grad_frames = pool_segments_backward(g_sim @ parent_texts, pool_cache)
    grad_children = np.zeros_like(children)
    if lam > 0 and active.any():
        # the reversed matrix shares entries with the forward one, so its
        # path folds back after un-flipping the column axis
        pair = np.tile(active, 2)  # the active forward matrices, then their reversed views
        fwd, rev = np.split(paths(pair), 2)
        grad_cost = (fwd - rev[:, :, ::-1]) * (lam / b)
        g_f, g_c = _costs_backward(frames[active], children[active], probs(active), cfg.beta, grad_cost)
        grad_frames[active] += g_f
        grad_children[active] += g_c
    # added in sample order from 0.0, as a per-sample dtw_hinge loop adds (accumulate, unlike sum, never pairs terms)
    dtw_mean = float(0.0 + np.add.accumulate(hinge)[-1]) / b
    grads = {"segment_frames": grad_frames, "parent_texts": g_sim.T @ pooled, "child_texts": grad_children}
    return LossValue(contrast.value + lam * dtw_mean, grads, {"infonce": contrast.value, "dtw": dtw_mean})
