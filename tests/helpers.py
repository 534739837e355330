"""Shared oracles for the test suite: finite-difference comparison, the
per-matrix greedy and DP alignment loops and the hinge built on them, the
tie-margin filter that keeps DTW gradient checks away from path ties, the
cost build with numpy's row-max reduce and the cost-build backward that
recomputes its softmax, the per-layer encoder backward and per-array AdamW update, the
per-row InfoNCE, per-matrix pooling, per-block training step,
per-sample batcher, per-row data generator and per-query/per-class metric
loops that the batched code must reproduce, the hinge that walks every
alignment path, the reversed-cost relaxation as a per-cell loop, a Newton solver for the linear probe's objective, the
evaluation protocols composed sample by sample, the checkpoint layouts
written before the optimizer moments were packed and before each moment was
one packed vector, and a loader for the
benchmark's own modules."""

import base64
import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np

from lecnce import encoders as enc
from lecnce import evalkit, losses
from lecnce.alignment import AlignmentResult, align_batch, dtw_subgradient
from lecnce.datagen import (
    CLIP_LEN,
    CLIP_NOISE_SCALE,
    INSTANCE_NOISE_SCALE,
    RENDER_NOISE_SCALE,
    GroundTruth,
    _from_procedures,
    _full_rank_render,
    _sample_concepts,
    _split_ids,
)
from lecnce.errors import DimMismatchError, FieldValueError, NonFiniteError, ZeroVectorError
from lecnce.losses import LossValue, clip_lecnce, hier_lecnce
from lecnce.numerics import (_row_dots, as_matrix, cosine_similarity_matrix, finite_diff_grad, l2_normalize, make_rng,
                             subsample_frames)
from lecnce.trainer import LEVELS, VIEW_DROPOUT_RATE, VIEW_NOISE_SIGMA


def perfbench_module(name: str):
    """``perfbench/<name>.py`` loaded read-only from its file, as the benchmark runs it apart from the program."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def dtw_greedy_loop(c) -> AlignmentResult:
    """``alignment.dtw_greedy`` one cell at a time: the greedy oracle.

    At each cell the diagonal neighbour is taken when it is no more costly
    than both the up and left neighbours, else the cheaper of up/left.  On
    the borders the only in-bounds move is forced: up when j == 1, left
    when i == 1 (the corner cell exits through the left move).  Every
    visited cell's cost is accumulated, the start and end cells included.
    """
    v = np.asarray(getattr(c, "values", c), dtype=np.float64)
    t, n = v.shape
    v = v.tolist()  # Python floats index faster than numpy scalars, same values
    i, j = t, n
    cost = 0.0
    path: list[tuple[int, int]] = []
    while i > 0 and j > 0:
        cost += v[i - 1][j - 1]
        path.append((i, j))
        if i > 1 and j > 1 and v[i - 2][j - 2] <= v[i - 2][j - 1] and v[i - 2][j - 2] <= v[i - 1][j - 2]:
            i -= 1
            j -= 1
        elif i > 1 and (j == 1 or v[i - 2][j - 1] <= v[i - 1][j - 2]):
            i -= 1
        else:
            j -= 1
    return AlignmentResult(cost=float(cost), path=tuple(path))


def dtw_dp_loop(c) -> AlignmentResult:
    """``alignment.dtw_dp`` one cell at a time: the DP oracle.

    Moves are {down, right, diagonal} from (1, 1) to (T, N); the path is
    recovered by backtracking the table with ties broken diagonal, then up,
    then left.
    """
    v = np.asarray(getattr(c, "values", c), dtype=np.float64)
    t, n = v.shape
    acc = np.empty_like(v)
    acc[0, 0] = v[0, 0]
    for i in range(1, t):
        acc[i, 0] = acc[i - 1, 0] + v[i, 0]
    for j in range(1, n):
        acc[0, j] = acc[0, j - 1] + v[0, j]
    for i in range(1, t):
        for j in range(1, n):
            acc[i, j] = v[i, j] + min(acc[i - 1, j - 1], acc[i - 1, j], acc[i, j - 1])

    path: list[tuple[int, int]] = []
    i, j = t - 1, n - 1
    while True:
        path.append((i + 1, j + 1))
        if i == 0 and j == 0:
            break
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            diag, up, left = acc[i - 1, j - 1], acc[i - 1, j], acc[i, j - 1]
            if diag <= up and diag <= left:
                i -= 1
                j -= 1
            elif up <= left:
                i -= 1
            else:
                j -= 1
    return AlignmentResult(cost=float(acc[t - 1, n - 1]), path=tuple(path))


LOOP_ORACLES = {"greedy": dtw_greedy_loop, "dp": dtw_dp_loop}


def dtw_hinge_loop(c_forward, c_reversed, phi, algorithm="greedy") -> LossValue:
    """``losses.dtw_hinge`` over the loop oracles, one matrix at a time: the hinge oracle."""
    fwd = LOOP_ORACLES[algorithm](c_forward)
    rev = LOOP_ORACLES[algorithm](c_reversed)
    value, active = losses._hinge(fwd.cost - rev.cost, phi)
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
    """True when both alignments and the hinge kink sit away from ties.

    The forward matrix and its column-reversed view are aligned in one :func:`align_batch` call.
    """
    c_fwd = losses._costs(frames, children, beta)[0]
    c_rev = c_fwd[:, ::-1]
    decision_margin = {"greedy": greedy_decision_margin, "dp": dp_decision_margin}[algorithm]
    if min(decision_margin(c_fwd), decision_margin(c_rev)) < margin:
        return False
    fwd, rev = align_batch([c_fwd, c_rev], algorithm)[0]
    return abs(fwd - rev + phi) > margin


def recomputed_costs_backward(frames, texts, beta, grad_cost):
    """The cost build's backward that recomputes ``frames @ texts^T`` and the row softmax of it over ``beta``."""
    sim = frames @ np.swapaxes(texts, -1, -2)
    z = sim.reshape(-1, sim.shape[-1]) / beta
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = (e / e.sum(axis=1, keepdims=True)).reshape(sim.shape)
    grad_sim = (p * grad_cost.sum(axis=-1, keepdims=True) - grad_cost) / beta
    return grad_sim @ texts, np.swapaxes(grad_sim, -1, -2) @ frames


def reduced_costs(frames, texts, beta):
    """The cost build as numpy's row-max reduce computes it, with a fresh array per step: the oracle of ``losses._costs``."""
    sim = frames @ np.swapaxes(texts, -1, -2)
    z = sim / beta
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=-1, keepdims=True)
    return -(z - np.log(total)), lambda rows: e[rows] / total[rows]


def per_layer_backward(params: enc.EncoderParams, cache: enc.ForwardCache, grad_out):
    """``encoders.backward`` one layer at a time: per-layer ``(dW, db)`` plus the input rows' gradient."""
    grad_out = np.asarray(grad_out, dtype=np.float64)
    u = cache.output
    radial = _row_dots(u, grad_out)[:, None]  # the kernel's own row dot: this oracle checks the layout
    delta = (grad_out - u * radial) / cache.norms

    grads = [None] * len(params.layers)
    last = len(params.layers) - 1
    for i in range(last, -1, -1):
        w, _ = params.layers[i]
        h_prev = cache.x if i == 0 else cache.hidden[i - 1]
        grads[i] = (h_prev.T @ delta, delta.sum(axis=0))
        delta = delta @ w.T
    return grads, delta


def flat_grad(grads) -> np.ndarray:
    """Per-layer ``(dW, db)`` as one vector in the parameter layout."""
    return np.concatenate([a.ravel() for layer in grads for a in layer])


def per_array_adamw_step(params: enc.EncoderParams, grads, state: enc.OptimizerState):
    """``encoders.adamw_step`` one parameter array at a time, over per-layer ``(dW, db)`` grads: the AdamW oracle."""
    flat_grads = [g for layer in grads for g in layer]
    t = state.step_count + 1
    b1, b2 = state.beta1, state.beta2
    lr, wd, eps = state.learning_rate, state.weight_decay, state.epsilon
    moments = [[a for layer in params.split(getattr(state, name)) for a in layer]
               for name in ("first_moment", "second_moment")]
    new_m, new_v, new_flat = [], [], []
    for p, g, m, v in zip([a for layer in params.layers for a in layer], flat_grads, *moments, strict=True):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        p = p - lr * m_hat / (np.sqrt(v_hat) + eps) - lr * wd * p
        new_m.append(m)
        new_v.append(v)
        new_flat.append(p)
    new_params = enc.EncoderParams(layers=list(zip(new_flat[::2], new_flat[1::2])))
    new_state = replace(state, step_count=t, first_moment=np.concatenate([m.ravel() for m in new_m]),
                        second_moment=np.concatenate([v.ravel() for v in new_v]))
    return new_params, new_state


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
            raise FieldValueError("positives", f"row {i} has no positives")
        if idx.min() < 0 or idx.max() >= m:
            raise DimMismatchError(f"row {i} positive index out of range for {m} columns")
        pos_sum = exp[i, idx].sum()
        value += float(np.log(denom[i]) - np.log(pos_sum))
        grad[i, idx] -= exp[i, idx] / pos_sum / b
    return value / b, grad


def all_walk_hier_lecnce(frames, parent_texts, children, cfg, dtw_algorithm="greedy") -> LossValue:
    """hier_lecnce on (B, T, d)/(B, d)/(B, N, d) arrays with one align_batch call over all 2B matrices.

    Every forward and reversed alignment path is walked, the inactive ones
    too; only the active hinges' paths enter the gradient.
    """
    b = parent_texts.shape[0]
    lam = cfg.lambda_dtw
    costs, probs = losses._costs(frames, children, cfg.beta)
    aligned, paths = align_batch(np.concatenate([costs, costs[:, :, ::-1]]), dtw_algorithm)
    hinge, active = losses._hinge(aligned[:b] - aligned[b:], cfg.phi)
    pooled, pool_cache = losses._pool_segments(frames)
    sim = pooled @ parent_texts.T
    contrast = losses._info_nce(sim, losses.diagonal_positives(b), cfg.temperature_infonce)
    g_sim = contrast.grads["sim"]
    grad_frames = losses.pool_segments_backward(g_sim @ parent_texts, pool_cache)
    grad_children = np.zeros_like(children)
    if lam > 0 and active.any():
        grad_cost = (paths[:b][active] - paths[b:][active][:, :, ::-1]) * (lam / b)
        g_f, g_c = losses._costs_backward(frames[active], children[active], probs(active), cfg.beta, grad_cost)
        grad_frames[active] += g_f
        grad_children[active] += g_c
    dtw_mean = float(0.0 + np.add.accumulate(hinge)[-1]) / b
    grads = {"segment_frames": grad_frames, "parent_texts": g_sim.T @ pooled, "child_texts": grad_children}
    return LossValue(contrast.value + lam * dtw_mean, grads, {"infonce": contrast.value, "dtw": dtw_mean})


def first_column_relaxation_loop(c: np.ndarray) -> float:
    """The least sum of one cell per row of ``c``, columns non-decreasing from column 1: a per-cell row-by-row loop.

    The oracle of ``losses._reversed_lower_bound`` on the column-reversed ``c``.
    """
    t, n = c.shape
    best = [float(c[0, 0])] + [np.inf] * (n - 1)  # by the column chosen in the last row so far
    for i in range(1, t):
        low = np.inf
        for j in range(n):
            low = min(low, best[j])
            best[j] = low + float(c[i, j])
    return min(best)


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
        grads, _ = per_layer_backward(visual, cache, grad_emb)
        total = grads if total is None else _add_grads(total, grads)
    return total


def _add_grads(a, b):
    return [(dw1 + dw2, db1 + db2) for (dw1, db1), (dw2, db2) in zip(a, b)]


class PerSampleBatcher:
    """Seeded shuffling with wrap-around over a sample list, one sample at a time: the batcher oracle."""

    def __init__(self, samples, rng):
        self.samples = samples
        self.rng = rng
        self.order = list(rng.permutation(len(samples)))
        self.pos = 0

    def next_batch(self, n):
        out = []
        while len(out) < n:
            if self.pos >= len(self.order):
                self.order = list(self.rng.permutation(len(self.samples)))
                self.pos = 0
            out.append(self.samples[self.order[self.pos]])
            self.pos += 1
        return out


def per_block_train_step(level, batch, state, cfg, rng, global_step=0):
    """``trainer.train_step`` with one encoder call per block and view: the step oracle.

    Updates ``state`` in place like the trainer and returns the loss.
    """
    n_frames = dict(zip(LEVELS, cfg.frames))[level]

    frame_blocks = [subsample_frames(s.frame_features, n_frames) for s in batch]
    texts = np.stack([s.parent_text_feature for s in batch])

    if level == "clip":
        # view a of every block, then view b of every block: first each one's
        # noise, then each one's dropout mask
        blocks = [*frame_blocks, *frame_blocks]
        noises = [rng.normal(0.0, VIEW_NOISE_SIGMA, size=block.shape) for block in blocks]
        keeps = [rng.random(block.shape) >= VIEW_DROPOUT_RATE for block in blocks]
        views = [(block + noise) * keep for block, noise, keep in zip(blocks, noises, keeps)]
        views_a, views_b = views[: len(batch)], views[len(batch) :]
        clip_rows, clip_caches = _pool_batch(state.visual, frame_blocks)
        rows_a, caches_a = _pool_batch(state.visual, views_a)
        rows_b, caches_b = _pool_batch(state.visual, views_b)
        narr_emb, narr_cache = enc.forward(state.text, texts, return_cache=True)

        loss = clip_lecnce(clip_rows, narr_emb, rows_a, rows_b, cfg.loss)
        v_grads = _pool_batch_backward(state.visual, clip_caches, loss.grads["clip_frames"])
        v_grads = _add_grads(v_grads, _pool_batch_backward(state.visual, caches_a, loss.grads["view_a"]))
        v_grads = _add_grads(v_grads, _pool_batch_backward(state.visual, caches_b, loss.grads["view_b"]))
        t_grads, _ = per_layer_backward(state.text, narr_cache, loss.grads["narrations"])
    else:
        frame_embs, frame_caches = [], []
        for block in frame_blocks:
            emb, cache = enc.forward(state.visual, block, return_cache=True)
            frame_embs.append(emb)
            frame_caches.append(cache)
        parent_emb, parent_cache = enc.forward(state.text, texts, return_cache=True)
        child_embs, child_caches = [], []
        for sample in batch:
            emb, cache = enc.forward(state.text, sample.child_text_features, return_cache=True)
            child_embs.append(emb)
            child_caches.append(cache)

        loss = hier_lecnce(frame_embs, parent_emb, child_embs, cfg.loss, cfg.dtw_algorithm)
        v_grads = None
        for cache, g in zip(frame_caches, loss.grads["segment_frames"]):
            grads, _ = per_layer_backward(state.visual, cache, g)
            v_grads = grads if v_grads is None else _add_grads(v_grads, grads)
        t_grads, _ = per_layer_backward(state.text, parent_cache, loss.grads["parent_texts"])
        for cache, g in zip(child_caches, loss.grads["child_texts"]):
            grads, _ = per_layer_backward(state.text, cache, g)
            t_grads = _add_grads(t_grads, grads)

    if not np.isfinite(loss.value):
        raise NonFiniteError(f"non-finite loss at step {global_step} level {level}")
    state.visual, state.visual_opt = per_array_adamw_step(state.visual, v_grads, state.visual_opt)
    state.text, state.text_opt = per_array_adamw_step(state.text, t_grads, state.text_opt)
    return loss


def probe_objective(x, y, w, b, weight_decay) -> float:
    """Mean NLL of a linear softmax head plus weight_decay/2 * |w|^2, one row at a time."""
    nll = 0.0
    for row, c in zip(x @ w + b, y):
        top = row.max()
        nll += float(top + np.log(np.sum(np.exp(row - top))) - row[c])
    return nll / len(y) + 0.5 * weight_decay * float(np.sum(w * w))


def row_major_probe_objective(x, y, k, wd):
    """The linear probe's objective with sample-major (n, k) logits: the oracle of ``evalkit._probe_objective``.

    Returns a function of the flat parameters ``theta`` (``w`` row-major, then
    ``b``) giving mean NLL + wd/2 * |w|^2 and its flat gradient; logits that
    overflow give a NaN loss instead of a warning.
    """
    n, d = x.shape
    buf = np.empty((n, k))
    rows = np.arange(n)

    @np.errstate(over="ignore", invalid="ignore")
    def f(theta):
        w, b = theta[: d * k].reshape(d, k), theta[d * k :]
        z = np.matmul(x, w, out=buf)
        z += b
        z -= z.max(axis=1, keepdims=True)
        true = z[rows, y]
        np.exp(z, out=z)
        total = z.sum(axis=1)
        loss = (np.log(total).sum() - true.sum()) / n + 0.5 * wd * float(np.dot(theta[: d * k], theta[: d * k]))
        z /= total[:, None]
        z[rows, y] -= 1.0
        z /= n
        return loss, np.concatenate([(x.T @ z + wd * w).ravel(), z.sum(axis=0)])

    return f


def newton_probe(x, y, n_classes, weight_decay, iterations=60):
    """(w, b) minimising :func:`probe_objective`, by damped Newton with the exact Hessian.

    For small problems only: the Hessian has ((d + 1) k)^2 entries.  It is
    singular along a common shift of the bias, so each step is the
    minimum-norm solution, which keeps the bias summing to zero as a
    solver started at zero does.
    """
    n, d = x.shape
    xa = np.hstack([x, np.ones((n, 1))])
    onehot = np.eye(n_classes)[y]
    decay = np.full((d + 1, n_classes), weight_decay)
    decay[d] = 0.0  # the bias row
    theta = np.zeros((d + 1, n_classes))

    def value(t):
        return probe_objective(x, y, t[:d], t[d], weight_decay)

    for _ in range(iterations):
        logits = xa @ theta
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        grad = xa.T @ (p - onehot) / n + decay * theta
        if np.linalg.norm(grad) < 1e-13:
            break
        curvature = np.einsum("nj,jl->njl", p, np.eye(n_classes)) - np.einsum("nj,nl->njl", p, p)
        hessian = np.einsum("na,nb,njl->ajbl", xa, xa, curvature).reshape(grad.size, grad.size) / n
        hessian += np.diag(decay.ravel())
        step = np.linalg.lstsq(hessian, grad.ravel(), rcond=None)[0].reshape(grad.shape)
        t, f0, slope = 1.0, value(theta), float(np.sum(grad * step))
        while value(theta - t * step) > f0 - 1e-4 * t * slope and t > 1e-12:
            t *= 0.5
        theta = theta - t * step
    return theta[:d], theta[d]


def per_row_generate(spec, n_procedures, holdout_fraction=0.2):
    """``datagen.generate_dataset`` with one draw per row: the generator oracle.

    Draws in the generator's layer-major order, one procedure, position or
    row at a time (a block of shape (P, S, d) is P * S successive draws of
    size d), swaps steps one procedure and position at a time, then stacks
    the noisy latents and renders them with the same ``@``.
    """
    rng = make_rng(spec.seed)
    concepts = _sample_concepts(spec, rng)
    render_visual = _full_rank_render(rng, spec.latent_dim, spec.visual_dim)
    render_text = _full_rank_render(rng, spec.latent_dim, spec.text_dim)
    p, s, c, d = n_procedures, spec.steps_per_procedure, spec.frames_per_step // CLIP_LEN, spec.latent_dim
    sigma = spec.noise_sigma

    orders = [np.sort(np.argsort(rng.random(spec.step_library_size))[:s]) for _ in range(p)]
    uniforms = [[rng.random() for _ in range(s - 1)] for _ in range(p)]
    for order, row in zip(orders, uniforms):
        for k, u in enumerate(row):
            if u < spec.order_noise:
                order[k], order[k + 1] = order[k + 1], order[k]

    def noisy(latents, scale):
        """The (P, n, d) stack of each row of ``latents`` plus its own size-d draw."""
        return np.array([[row + rng.normal(0.0, scale * sigma, size=d) for row in rows] for rows in latents])

    instances = noisy([concepts[order] for order in orders], INSTANCE_NOISE_SCALE)
    clips = noisy([[row for row in rows for _ in range(c)] for rows in instances], CLIP_NOISE_SCALE)
    frames = noisy([[row for row in rows for _ in range(CLIP_LEN)] for rows in clips], RENDER_NOISE_SCALE)
    narrations = noisy(clips, RENDER_NOISE_SCALE)
    keysteps = noisy(instances, RENDER_NOISE_SCALE)
    abstracts = noisy([[concepts[order].mean(axis=0)] for order in orders], RENDER_NOISE_SCALE)[:, 0]

    truth = GroundTruth(concepts, render_visual, render_text)
    ids = list(range(p))
    arrays = (frames @ render_visual, narrations @ render_text, keysteps @ render_text, abstracts @ render_text)
    return tuple(_from_procedures(spec, truth, ids, keep, np.array(orders), *arrays)
                 for keep in _split_ids(ids, holdout_fraction, rng))


def recall_ranks_loop(sim: np.ndarray) -> np.ndarray:
    """Rank of each query's true match (the diagonal), one query at a time; earlier ties rank first."""
    ranks = np.empty(sim.shape[0], dtype=int)
    for i in range(sim.shape[0]):
        true = sim[i, i]
        better = int(np.sum(sim[i] > true))
        tied_earlier = int(np.sum(sim[i, :i] == true))
        ranks[i] = 1 + better + tied_earlier
    return ranks


def per_class_f1_loop(preds: np.ndarray, labels: np.ndarray, n_classes: int) -> list[float]:
    """F1 of each class from its own tp/fp/fn sums; a class absent from both sides scores 0."""
    per_class = []
    for c in range(n_classes):
        tp = float(np.sum((preds == c) & (labels == c)))
        fp = float(np.sum((preds == c) & (labels != c)))
        fn = float(np.sum((preds != c) & (labels == c)))
        denom = 2 * tp + fp + fn
        per_class.append(2 * tp / denom if denom > 0 else 0.0)
    return per_class


def per_sample_evaluate(visual, text, train, holdout, cfg, protocols) -> evalkit.EvalReport:
    """``evalkit.evaluate`` composed from the held-out samples one at a time, as the acceptance tests do."""
    report = evalkit.EvalReport()
    videos = holdout.by_level("video")
    frame_embs = enc.forward(visual, np.concatenate([v.frame_features for v in videos]))
    labels = np.concatenate([v.step_labels for v in videos])
    if "zero_shot" in protocols:
        class_embs = enc.forward(text, train.ground_truth.class_text_features())
        preds = evalkit.zero_shot_classify(frame_embs, class_embs)
        report.accuracy, report.macro_f1, report.per_class_f1 = evalkit.accuracy_f1(
            preds, labels, train.ground_truth.concepts.shape[0])
    clips = holdout.by_level("clip")
    sel = clips[:: max(1, len(clips) // cfg.retrieval_size)][: cfg.retrieval_size]
    clip_rows = np.stack([evalkit.pool_video_embedding(enc.forward(visual, s.frame_features)) for s in sel])
    narr_rows = enc.forward(text, np.stack([s.parent_text_feature for s in sel]))
    if "retrieval" in protocols:
        report.recall = evalkit.recall_at_k(cosine_similarity_matrix(narr_rows, clip_rows), cfg.recall_ks)
    if "probe" in protocols:
        train_videos = train.by_level("video")
        picked = train_videos[: max(1, int(np.floor(len(train_videos) * cfg.shots / 100)))]
        probe = evalkit.linear_probe(
            enc.forward(visual, np.concatenate([v.frame_features for v in picked])),
            np.concatenate([v.step_labels for v in picked]),
            weight_decay=cfg.probe_weight_decay, epochs=cfg.probe_epochs, test_features=frame_embs, test_labels=labels,
        )
        report.probe = {"accuracy": probe.accuracy, "macro_f1": probe.macro_f1, "per_class_f1": probe.per_class_f1,
                        "iterations": probe.iterations, "grad_norm": probe.grad_norm}
    report.modality_gap = evalkit.modality_gap(clip_rows, narr_rows)
    return report


def _per_parameter_moments(payload: dict, key: str) -> dict[str, list[np.ndarray]]:
    """Each packed moment of ``payload[key]`` cut into one array per parameter: W then b per layer of its encoder."""
    dims = payload[key.removesuffix("_optimizer")]["layer_dims"]
    shapes = [shape for fan_in, fan_out in zip(dims[:-1], dims[1:]) for shape in ((fan_in, fan_out), (fan_out,))]
    cuts = np.cumsum([int(np.prod(shape)) for shape in shapes])[:-1]
    out = {}
    for name in ("first_moment", "second_moment"):
        vector = np.frombuffer(base64.b64decode(payload[key][name]["f8le"]), dtype="<f8")
        out[name] = [part.reshape(shape) for part, shape in zip(np.split(vector, cuts), shapes, strict=True)]
    return out


def old_format_checkpoint(payload: dict) -> dict:
    """A current checkpoint payload in the layout written before the moments were packed.

    Each moment becomes one JSON float list per parameter array and there is no ``sha256``.
    """
    old = {k: v for k, v in payload.items() if k != "sha256"}
    for key in ("visual_optimizer", "text_optimizer"):
        if old[key] is not None:
            moments = _per_parameter_moments(payload, key)
            old[key] = {**old[key], **{name: [m.ravel().tolist() for m in arrays] for name, arrays in moments.items()}}
    return old


def per_parameter_checkpoint(payload: dict) -> dict:
    """A current checkpoint payload in the layout written before each moment was one packed vector.

    Each moment becomes a list of packed entries, one per parameter array; the ``sha256`` stays.
    """
    old = dict(payload)
    for key in ("visual_optimizer", "text_optimizer"):
        old[key] = {**old[key], **{
            name: [{"shape": list(m.shape), "f8le": base64.b64encode(m.tobytes()).decode("ascii")} for m in arrays]
            for name, arrays in _per_parameter_moments(payload, key).items()
        }}
    return old
