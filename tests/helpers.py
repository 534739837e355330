"""Shared oracles for the test suite: finite-difference comparison, the
tie-margin filter that keeps DTW gradient checks away from path ties, and
the per-row InfoNCE, per-matrix pooling and per-block training step that
the batched code must reproduce."""

import numpy as np

from lecnce import encoders as enc
from lecnce.errors import DimMismatchError, EmptyPositiveSetError, NonFiniteLossError, ZeroVectorError
from lecnce.losses import clip_lecnce, hier_lecnce
from lecnce.numerics import as_matrix, finite_diff_grad, l2_normalize, make_rng, subsample_frames
from lecnce.trainer import LEVELS, _distort, _select_text


def rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    analytic = np.asarray(analytic, dtype=float).ravel()
    numeric = np.asarray(numeric, dtype=float).ravel()
    denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(analytic - numeric) / denom)


def fd_check_single(fn, x: np.ndarray, analytic: np.ndarray, h: float = 1e-5) -> float:
    """Relative error between an analytic gradient and central differences."""
    numeric = finite_diff_grad(lambda v: fn(v), x.copy(), h=h)
    return rel_error(analytic, numeric)


def unit_rows(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return np.stack([l2_normalize(rng.normal(size=cols)) for _ in range(rows)])


def greedy_decision_margin(values: np.ndarray) -> float:
    """Smallest gap among the comparisons the greedy trace actually makes.

    A small margin means a tiny perturbation could flip the path, making
    fixed-path gradients disagree with finite differences.
    """
    t, n = values.shape
    i, j = t, n
    margin = np.inf
    while i > 0 and j > 0:
        if i > 1 and j > 1:
            d, u, l = values[i - 2, j - 2], values[i - 2, j - 1], values[i - 1, j - 2]
            margin = min(margin, abs(d - u), abs(d - l), abs(u - l))
            if d <= u and d <= l:
                i, j = i - 1, j - 1
            elif u <= l:
                i -= 1
            else:
                j -= 1
        elif i > 1:
            i -= 1
        else:
            j -= 1
    return float(margin)


def dp_decision_margin(values: np.ndarray) -> float:
    """Smallest gap between the chosen and the other predecessors on the DP path.

    Every accumulated cost moves by at most (path length) x (entry change)
    under a perturbation, so a margin well above that keeps the optimal
    path, and with it the fixed-path gradient, unchanged.
    """
    t, n = values.shape
    acc = np.full((t + 1, n + 1), np.inf)
    acc[0, 0] = 0.0
    for i in range(1, t + 1):
        for j in range(1, n + 1):
            acc[i, j] = values[i - 1, j - 1] + min(acc[i - 1, j - 1], acc[i - 1, j], acc[i, j - 1])
    i, j = t, n
    margin = np.inf
    while (i, j) != (1, 1):
        cands = {(i - 1, j - 1): acc[i - 1, j - 1], (i - 1, j): acc[i - 1, j], (i, j - 1): acc[i, j - 1]}
        best = min(cands, key=cands.get)
        others = [v for cell, v in cands.items() if cell != best and np.isfinite(v)]
        margin = min([margin] + [v - cands[best] for v in others])
        i, j = best
    return float(margin)


def stable_hinge_instance(frames, children, beta, phi, margin=1e-3, algorithm="greedy") -> bool:
    """True when both alignments and the hinge kink sit away from ties."""
    from lecnce.alignment import align, reverse_columns
    from lecnce.losses import build_cost_matrix

    c_fwd = build_cost_matrix(frames, children, beta, validate=False)
    c_rev = reverse_columns(c_fwd)
    decision_margin = {"greedy": greedy_decision_margin, "dp": dp_decision_margin}[algorithm]
    if min(decision_margin(c_fwd.values), decision_margin(c_rev.values)) < margin:
        return False
    delta = align(c_fwd, algorithm).cost - align(c_rev, algorithm).cost
    return abs(delta + phi) > margin and abs(delta - phi) > margin


def seeded_rng(seed: int) -> np.random.Generator:
    return make_rng(seed)


def row_nce_loop(z: np.ndarray, positives) -> tuple[float, np.ndarray]:
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
    p_all = exp / denom[:, None]

    value = 0.0
    grad = p_all / b
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


def mean_pool_rows(rows: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Arithmetic mean of the rows, re-normalized to the unit sphere."""
    rows = as_matrix(rows, "rows")
    z = rows.mean(axis=0)
    norm = float(np.linalg.norm(z))
    if norm < 1e-12:
        raise ZeroVectorError("pooled row collapsed to zero")
    return z / norm, (z / norm, norm, rows.shape[0])


def mean_pool_rows_backward(grad_pooled: np.ndarray, cache: tuple) -> np.ndarray:
    """Gradient of mean-pool-then-renormalize, broadcast back to each row."""
    u, norm, t = cache
    g_z = (grad_pooled - u * float(u @ grad_pooled)) / norm
    return np.tile(g_z / t, (t, 1))


def _pool_batch(visual: enc.EncoderParams, feature_blocks: list[np.ndarray]):
    """Encode each block of frame features and pool to one row per block."""
    pooled, caches = [], []
    for block in feature_blocks:
        emb, cache = enc.forward(visual, block, return_cache=True)
        row, pool_cache = mean_pool_rows(emb)
        pooled.append(row)
        caches.append((cache, pool_cache))
    return np.stack(pooled), caches


def _pool_batch_backward(visual: enc.EncoderParams, caches, grad_rows: np.ndarray):
    """Accumulate encoder parameter grads through pooling for each block."""
    total = None
    for k, (cache, pool_cache) in enumerate(caches):
        grad_emb = mean_pool_rows_backward(grad_rows[k], pool_cache)
        grads, _ = enc.backward(visual, cache, grad_emb)
        total = grads if total is None else _add_grads(total, grads)
    return total


def _add_grads(a, b):
    return [(dw1 + dw2, db1 + db2) for (dw1, db1), (dw2, db2) in zip(a, b)]


def per_block_train_step(level, batch, state, cfg, rng, global_step=0):
    """``trainer.train_step`` with one encoder call per block and view: the step oracle.

    Updates ``state`` in place like the trainer and returns the loss.
    """
    n_frames = dict(zip(LEVELS, cfg.frames))[level]

    frame_blocks = [subsample_frames(s.frame_features, n_frames) for s in batch]
    texts = np.stack([_select_text(s.parent_text_feature, rng, cfg.p_augmented) for s in batch])

    if level == "clip":
        views_a = [_distort(block, rng) for block in frame_blocks]
        views_b = [_distort(block, rng) for block in frame_blocks]
        clip_rows, clip_caches = _pool_batch(state.visual, frame_blocks)
        rows_a, caches_a = _pool_batch(state.visual, views_a)
        rows_b, caches_b = _pool_batch(state.visual, views_b)
        narr_emb, narr_cache = enc.forward(state.text, texts, return_cache=True)

        loss = clip_lecnce(clip_rows, narr_emb, rows_a, rows_b, cfg.loss)
        v_grads = _pool_batch_backward(state.visual, clip_caches, loss.grads["clip_frames"])
        v_grads = _add_grads(v_grads, _pool_batch_backward(state.visual, caches_a, loss.grads["view_a"]))
        v_grads = _add_grads(v_grads, _pool_batch_backward(state.visual, caches_b, loss.grads["view_b"]))
        t_grads, _ = enc.backward(state.text, narr_cache, loss.grads["narrations"])
    else:
        child_sel = [
            np.stack([_select_text(c, rng, cfg.p_augmented) for c in s.child_text_features])
            for s in batch
        ]
        frame_embs, frame_caches = [], []
        for block in frame_blocks:
            emb, cache = enc.forward(state.visual, block, return_cache=True)
            frame_embs.append(emb)
            frame_caches.append(cache)
        parent_emb, parent_cache = enc.forward(state.text, texts, return_cache=True)
        child_embs, child_caches = [], []
        for children in child_sel:
            emb, cache = enc.forward(state.text, children, return_cache=True)
            child_embs.append(emb)
            child_caches.append(cache)

        loss = hier_lecnce(frame_embs, parent_emb, child_embs, cfg.loss, cfg.dtw_algorithm)
        v_grads = None
        for cache, g in zip(frame_caches, loss.grads["segment_frames"]):
            grads, _ = enc.backward(state.visual, cache, g)
            v_grads = grads if v_grads is None else _add_grads(v_grads, grads)
        t_grads, _ = enc.backward(state.text, parent_cache, loss.grads["parent_texts"])
        for cache, g in zip(child_caches, loss.grads["child_texts"]):
            grads, _ = enc.backward(state.text, cache, g)
            t_grads = _add_grads(t_grads, grads)

    if not np.isfinite(loss.value):
        raise NonFiniteLossError(f"non-finite loss at step {global_step} level {level}")
    state.visual, state.visual_opt = enc.adamw_step(state.visual, v_grads, state.visual_opt)
    state.text, state.text_opt = enc.adamw_step(state.text, t_grads, state.text_opt)
    return loss
