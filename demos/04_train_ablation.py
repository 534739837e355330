"""The headline experiment: two identical training runs, with and without
the alignment regularizer, compared on held-out procedures.

Mirrors the acceptance gate: clip-level loss must fall, the regularized
run must discriminate forward from reversed text order at least as well,
and zero-shot step classification must clear its floor.
"""

import time

import numpy as np

from lecnce import encoders as enc
from lecnce import evalkit
from lecnce.alignment import align_batch
from lecnce.datagen import ProcedureSpec, generate_dataset
from lecnce.losses import LossConfig, build_cost_matrix
from lecnce.trainer import TrainConfig, train_run

train, hold = generate_dataset(ProcedureSpec(seed=7), n_procedures=40)
videos = hold.by_level("video")

for lam in (0.0, 0.01):
    cfg = TrainConfig(loss=LossConfig(lambda_dtw=lam), seed=11)
    t0 = time.perf_counter()
    state, log = train_run(cfg, train)
    wall = time.perf_counter() - t0

    clip = log.level_totals("clip")
    decile = len(clip) // 10
    drop = 1.0 - np.mean(clip[-decile:]) / np.mean(clip[:decile])

    # every held-out video's forward cost matrix, then its column-reversed view, aligned in one call
    costs = np.stack([
        build_cost_matrix(enc.forward(state.visual, v.frame_features), enc.forward(state.text, v.child_text_features),
                          cfg.loss.beta).values
        for v in videos
    ])
    aligned = align_batch(np.concatenate([costs, costs[:, :, ::-1]]), "greedy")[0]
    wins = int(np.sum(aligned[: len(videos)] < aligned[len(videos) :]))

    report = evalkit.evaluate(state.visual, state.text, train, hold, evalkit.EvalConfig(), ("zero_shot", "retrieval"))

    print(f"lambda = {lam}")
    print(f"  wall time                     {wall:6.1f} s for {len(log.records)} steps")
    print(f"  clip loss, first->last decile {np.mean(clip[:decile]):.3f} -> {np.mean(clip[-decile:]):.3f} ({drop:.0%} drop)")
    print(f"  held-out order discrimination {wins}/{len(videos)}")
    print(f"  zero-shot step accuracy       {report.accuracy:.3f}")
    print(f"  clip<->narration R@1          {report.recall['t2i'][1]:.3f} (t2i) / {report.recall['i2t'][1]:.3f} (i2t)")
