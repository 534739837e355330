"""Tour of the training objectives and a live gradient check.

Builds the alignment-cost matrix from toy embeddings, evaluates the
reversal hinge, shows the path bounds on the similarities that let a DP
batch of ordered samples skip its cost build and alignment, assembles the clip-level and hierarchical
objectives, and verifies one analytic gradient against central finite
differences.
"""

import numpy as np

from lecnce import losses
from lecnce.alignment import dtw_dp, reverse_columns
from lecnce.losses import (
    LossConfig,
    build_cost_matrix,
    clip_lecnce,
    diagonal_positives,
    dtw_hinge,
    hier_lecnce,
    info_nce,
)
from lecnce.numerics import finite_diff_grad, l2_normalize, make_rng

rng = make_rng(1)
unit = lambda n, d: np.stack([l2_normalize(rng.normal(size=d)) for _ in range(n)])

print("== InfoNCE ==")
sim = np.eye(4) * 0.9 + rng.normal(scale=0.05, size=(4, 4))
out = info_nce(sim, diagonal_positives(4), temperature=0.07)
print(f"near-diagonal similarity, value = {out.value:.4f} (low is aligned)")
out = info_nce(np.zeros((4, 4)), diagonal_positives(4), temperature=0.07)
print(f"uninformative similarity, value = {out.value:.4f} (= ln 4 = {np.log(4):.4f})")

print("\n== alignment cost and reversal hinge ==")
frames = unit(6, 8)
texts = unit(3, 8)
cost = build_cost_matrix(frames, texts, beta=0.1)
print(f"cost matrix shape {cost.shape}; per-row exp(-c) sums: {np.round(np.exp(-cost.values).sum(axis=1), 6)}")
hinge = dtw_hinge(cost, reverse_columns(cost), phi=0.1)
print(
    f"forward cost {hinge.components['dtw_forward']:.3f}, reversed {hinge.components['dtw_reversed']:.3f}, "
    f"hinge value {hinge.value:.3f}"
)

print("\n== path bounds: a DP hinge settled without aligning ==")
# frames drawn near their child texts, in order: the forward alignment is cheap, the reversed one is not
noise = make_rng(2).normal(scale=0.3, size=(12, 8))
ordered = np.stack([l2_normalize(texts[k * 3 // 12] + noise[k]) for k in range(12)])
c = build_cost_matrix(ordered, texts, beta=0.1).values
# each cost is lse_i - z_ij for the similarities z = s / beta; both bounds take one cell per row (T >= N), so
# on -z they are the cost-space bounds less sum_i lse_i, and the gate needs no softmax
z = ordered @ texts.T / 0.1
row_terms = np.logaddexp.reduce(z, axis=1).sum()
upper = losses._path_bounds(-z[None])[0][0]
lower = losses._reversed_lower_bound(-z[None])[0]
print(f"forward:  dtw_dp {dtw_dp(c).cost:8.3f} <= staircase {upper + row_terms:8.3f} = {upper:8.3f} + sum lse")
print(f"reversed: dtw_dp {dtw_dp(c[:, ::-1]).cost:8.3f} >= relaxation {lower + row_terms:7.3f} = {lower:8.3f} + sum lse")
print(f"upper + phi < lower on -z, so the hinge is 0 with no cost matrix and no wavefront: "
      f"{losses._hinges_idle(z[None], 0.1)}")

print("\n== combined objectives ==")
cfg = LossConfig()
clips, narrs, va, vb = unit(5, 8), unit(5, 8), unit(5, 8), unit(5, 8)
clip_loss = clip_lecnce(clips, narrs, va, vb, cfg)
print(f"clip level: total {clip_loss.value:.4f} = vl {clip_loss.components['vl']:.4f} + vv {clip_loss.components['vv']:.4f}")

seg = [unit(4, 8) for _ in range(3)]
parents = unit(3, 8)
children = [unit(2, 8) for _ in range(3)]
hier = hier_lecnce(seg, parents, children, cfg)
print(
    f"phase/video level: total {hier.value:.4f} = infonce {hier.components['infonce']:.4f}"
    f" + {cfg.lambda_dtw} * dtw {hier.components['dtw']:.4f}"
)

print("\n== finite-difference check of the parent-text gradient ==")
numeric = finite_diff_grad(
    lambda flat: hier_lecnce(seg, flat.reshape(3, 8), children, cfg).value, parents.ravel()
)
analytic = hier.grads["parent_texts"].ravel()
rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
print(f"relative error analytic vs central differences: {rel:.2e}")
