"""Every evaluation protocol on one trained checkpoint.

Zero-shot classification against rendered class prompts, bidirectional
recall at several depths, few- and full-shot linear probing on frozen
features, and the modality-gap scalar, each read from an
``evalkit.evaluate`` report.
"""

from lecnce import evalkit
from lecnce.datagen import ProcedureSpec, generate_dataset
from lecnce.losses import LossConfig
from lecnce.trainer import TrainConfig, train_run

train, hold = generate_dataset(ProcedureSpec(seed=7), n_procedures=40)
state, _ = train_run(TrainConfig(loss=LossConfig(), seed=11), train)
report = evalkit.evaluate(state.visual, state.text, train, hold, evalkit.EvalConfig(), ("zero_shot", "retrieval"))

print("== zero-shot classification ==")
n_frames = hold.samples["video"].labels.size
print(f"accuracy {report.accuracy:.3f}, macro F1 {report.macro_f1:.3f} on {n_frames} held-out frames")

print("\n== cross-modal retrieval ==")
for direction in ("t2i", "i2t"):
    print(f"  {direction}: " + "  ".join(f"R@{k} {v:.3f}" for k, v in report.recall[direction].items()))

print("\n== linear probing on frozen features ==")
for shots_pct in (10, 100):
    probe = evalkit.evaluate(state.visual, state.text, train, hold, evalkit.EvalConfig(shots=shots_pct), ("probe",)).probe
    print(f"  {shots_pct:3d}% shots: accuracy {probe['accuracy']:.3f}, macro F1 {probe['macro_f1']:.3f} "
          f"after {probe['iterations']} L-BFGS iterations, grad norm {probe['grad_norm']:.1e}")

print("\n== modality gap ==")
print(f"distance between held-out clip and narration centroids: {report.modality_gap:.4f}")
