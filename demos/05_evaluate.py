"""Every evaluation protocol on one trained checkpoint.

Zero-shot classification against rendered class prompts, bidirectional
recall at several depths, few- and full-shot linear probing on frozen
features, and the modality-gap scalar.
"""

import numpy as np

from lecnce import encoders as enc
from lecnce import evalkit
from lecnce.datagen import ProcedureSpec, generate_dataset
from lecnce.losses import LossConfig
from lecnce.numerics import cosine_similarity_matrix
from lecnce.trainer import TrainConfig, train_run

train, hold = generate_dataset(ProcedureSpec(seed=7), n_procedures=40)
state, _ = train_run(TrainConfig(loss=LossConfig(), seed=11), train)
videos = hold.by_level("video")
n_classes = train.ground_truth.concepts.shape[0]

print("== zero-shot classification ==")
frames = np.concatenate([v.frame_features for v in videos])
labels = np.concatenate([v.step_labels for v in videos])
frame_embs = enc.forward(state.visual, frames)
class_embs = enc.forward(state.text, train.ground_truth.class_text_features())
preds = evalkit.zero_shot_classify(frame_embs, class_embs)
acc, macro, _ = evalkit.accuracy_f1(preds, labels, n_classes)
print(f"accuracy {acc:.3f}, macro F1 {macro:.3f} on {len(labels)} held-out frames")

print("\n== cross-modal retrieval ==")
clips = hold.by_level("clip")
sel = clips[:: max(1, len(clips) // 32)][:32]
clip_rows = np.stack([evalkit.pool_video_embedding(enc.forward(state.visual, s.frame_features)) for s in sel])
narr_rows = enc.forward(state.text, np.stack([s.parent_text_feature for s in sel]))
rec = evalkit.recall_at_k(cosine_similarity_matrix(narr_rows, clip_rows), (1, 5, 10))
for direction in ("t2i", "i2t"):
    print(f"  {direction}: " + "  ".join(f"R@{k} {v:.3f}" for k, v in rec[direction].items()))

print("\n== linear probing on frozen features ==")
train_videos = train.by_level("video")
for shots_pct in (10, 100):
    n_pick = max(1, int(np.floor(len(train_videos) * shots_pct / 100)))
    picked = train_videos[:n_pick]
    feats = enc.forward(state.visual, np.concatenate([v.frame_features for v in picked]))
    lab = np.concatenate([v.step_labels for v in picked])
    probe = evalkit.linear_probe(feats, lab, test_features=frame_embs, test_labels=labels)
    print(f"  {shots_pct:3d}% shots: accuracy {probe.accuracy:.3f}, macro F1 {probe.macro_f1:.3f} "
          f"after {probe.iterations} L-BFGS iterations, grad norm {probe.grad_norm:.1e}")

print("\n== modality gap ==")
gap = evalkit.modality_gap(clip_rows, narr_rows)
print(f"distance between held-out clip and narration centroids: {gap:.4f}")
