"""Output checks of one ``generate-data -> train -> eval`` pipeline.

Each check compares an output of the program with a computation made here,
apart from the program (an encoder forward pass, zero-shot accuracy,
Recall@1 and a DTW dynamic program written in plain numpy), or with a
property the method must have.  A check raises :class:`CheckFailed` with the
reason; :func:`check_pipeline` runs them all and collects the outcomes.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from lecnce import alignment, datagen, trainer
from lecnce.numerics import make_rng

LEVELS = ("clip", "phase", "video")
BETA = 0.1  # the workloads keep the default loss.beta


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# reading outputs
# ---------------------------------------------------------------------------


def read_trainlog(path) -> list[dict]:
    """Rows of ``trainlog.csv`` as dicts; only the step, level and total columns are used."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def read_encoders(checkpoint_path):
    """(visual, text) encoders of a checkpoint as (layers, activation), parsed here."""
    with open(checkpoint_path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    out = []
    for key in ("visual", "text"):
        p = payload[key]
        dims = p["layer_dims"]
        layers = [
            (np.asarray(w, dtype=np.float64).reshape(dims[i], dims[i + 1]), np.asarray(b, dtype=np.float64))
            for i, (w, b) in enumerate(zip(p["weights"], p["biases"]))
        ]
        out.append((layers, p["activation"]))
    return tuple(out)


def encode(encoder, x) -> np.ndarray:
    """Affine layers (tanh between hidden layers if configured), then unit rows."""
    layers, activation = encoder
    h = np.asarray(x, dtype=np.float64)
    for i, (w, b) in enumerate(layers):
        h = h @ w + b
        if activation == "tanh" and i < len(layers) - 1:
            h = np.tanh(h)
    return h / np.linalg.norm(h, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------


def sample_counts(train, holdout, data_cfg: dict) -> None:
    """Per-level sample counts and the holdout size implied by the data spec."""
    n = data_cfg["n_procedures"]
    n_hold = max(1, math.floor(data_cfg["holdout_fraction"] * n))
    steps = data_cfg["steps_per_procedure"]
    per_procedure = {"clip": steps * data_cfg["frames_per_step"] // datagen.CLIP_LEN, "phase": steps, "video": 1}
    _require(len(holdout.procedure_ids) == n_hold, f"{len(holdout.procedure_ids)} held-out procedures, expected {n_hold}")
    _require(len(train.procedure_ids) == n - n_hold, f"{len(train.procedure_ids)} train procedures, expected {n - n_hold}")
    for split, procs in ((train, n - n_hold), (holdout, n_hold)):
        for level in LEVELS:
            got, want = len(split.by_level(level)), procs * per_procedure[level]
            _require(got == want, f"{got} {level} samples in a split of {procs} procedures, expected {want}")


def regenerated_equal(train, holdout, data_cfg: dict, data_seed: int) -> None:
    """A dataset generated in memory from the same spec equals the loaded one."""
    spec_fields = {k: v for k, v in data_cfg.items() if k not in ("n_procedures", "holdout_fraction")}
    spec = datagen.ProcedureSpec(seed=data_seed, **spec_fields)
    _require(train.spec == spec, f"loaded spec {train.spec} differs from {spec}")
    fresh = datagen.generate_dataset(spec, data_cfg["n_procedures"], data_cfg["holdout_fraction"])
    for loaded, made in zip((train, holdout), fresh):
        _require(loaded.procedure_ids == made.procedure_ids, "procedure split differs from a regenerated dataset")
        for level in LEVELS:
            a, b = loaded.by_level(level), made.by_level(level)
            _require(len(a) == len(b), f"{level}: {len(a)} loaded samples against {len(b)} regenerated")
            for k, (x, y) in enumerate(zip(a, b)):
                same = (
                    x.procedure_id == y.procedure_id
                    and list(x.step_labels) == list(y.step_labels)
                    and np.array_equal(x.frame_features, y.frame_features)
                    and np.array_equal(x.parent_text_feature, y.parent_text_feature)
                    and np.array_equal(x.child_text_features, y.child_text_features)
                )
                _require(same, f"{level} sample {k} differs from the regenerated dataset")
    for name in ("concepts", "render_visual", "render_text"):
        _require(
            np.array_equal(getattr(train.ground_truth, name), getattr(fresh[0].ground_truth, name)),
            f"ground truth {name} differs from the regenerated dataset",
        )


def step_counts(rows: list[dict], train_cfg: dict) -> None:
    """Steps numbered 1..n, schedule x epochs steps per level, every loss finite."""
    _require([int(r["step"]) for r in rows] == list(range(1, len(rows) + 1)), "step numbers are not 1..n")
    for level, count in zip(LEVELS, train_cfg["schedule"]):
        got = sum(r["level"] == level for r in rows)
        want = count * train_cfg["epochs"]
        _require(got == want, f"{got} {level} steps, expected {want}")
    bad = [r["step"] for r in rows if not math.isfinite(float(r["total"]))]
    _require(not bad, f"non-finite loss at steps {bad[:5]}")


def clip_loss_falls(rows: list[dict]) -> None:
    """The clip loss over the last tenth of clip steps is below that over the first tenth."""
    clip = [float(r["total"]) for r in rows if r["level"] == "clip"]
    _require(len(clip) >= 2, f"{len(clip)} clip steps, need at least 2")
    k = max(1, len(clip) // 10)
    first, last = float(np.mean(clip[:k])), float(np.mean(clip[-k:]))
    _require(last < first, f"clip loss over the last {k} steps {last:.6f} is not below the first {k} {first:.6f}")


def final_checkpoint_is_last(run_dir, epochs: int) -> None:
    """``checkpoint_final.json`` is byte-identical to the last epoch's checkpoint."""
    with open(os.path.join(run_dir, "checkpoint_final.json"), "rb") as fh:
        final = fh.read()
    with open(os.path.join(run_dir, f"checkpoint_{epochs:04d}.json"), "rb") as fh:
        last = fh.read()
    _require(final == last, f"checkpoint_final.json differs from checkpoint_{epochs:04d}.json")


def zero_shot_accuracy(visual, text, train, holdout) -> float:
    """Share of held-out video frames whose nearest class text is their step."""
    frames = np.concatenate([s.frame_features for s in holdout.by_level("video")], axis=0)
    labels = np.concatenate([s.step_labels for s in holdout.by_level("video")])
    classes = encode(text, train.ground_truth.class_text_features())
    preds = np.argmax(encode(visual, frames) @ classes.T, axis=1)
    return float(np.mean(preds == labels))


def _pool(rows: np.ndarray, n_samples: int = 10) -> np.ndarray:
    t = rows.shape[0]
    if t > n_samples:
        rows = rows[(np.arange(n_samples) * (t - 1)) // (n_samples - 1)]
    mean = rows.mean(axis=0)
    return mean / np.linalg.norm(mean)


def recall1_t2i(visual, text, holdout, retrieval_size: int) -> float:
    """Text-to-clip Recall@1 by a full stable sort; ties rank the lower index first."""
    all_clips = holdout.by_level("clip")
    clips = all_clips[:: max(1, len(all_clips) // retrieval_size)][:retrieval_size]
    clip_rows = np.stack([_pool(encode(visual, s.frame_features)) for s in clips])
    narr_rows = encode(text, np.stack([s.parent_text_feature for s in clips]))
    sim = narr_rows @ clip_rows.T
    top = [int(np.argsort(-sim[i], kind="stable")[0]) for i in range(len(clips))]
    return float(np.mean([t == i for i, t in enumerate(top)]))


def eval_report_matches(checkpoint_path, report: dict, train, holdout, retrieval_size: int, untrained) -> dict:
    """Zero-shot accuracy and R@1 recomputed here equal the report, and training helped."""
    visual, text = read_encoders(checkpoint_path)
    acc = zero_shot_accuracy(visual, text, train, holdout)
    r1 = recall1_t2i(visual, text, holdout, retrieval_size)
    _require(acc == report["accuracy"], f"zero-shot accuracy {acc!r} recomputed, report says {report['accuracy']!r}")
    reported_r1 = report["recall"]["t2i"]["1"]
    _require(r1 == reported_r1, f"t2i R@1 {r1!r} recomputed, report says {reported_r1!r}")
    base = zero_shot_accuracy(untrained[0], untrained[1], train, holdout)
    _require(acc > base, f"trained zero-shot accuracy {acc} does not beat the untrained {base}")
    return {"zeroshot_acc": acc, "recall1_t2i": r1}


def untrained_encoders(train_cfg: dict, train_seed: int):
    """The encoders ``train`` starts from, as (layers, activation) pairs."""
    cfg = trainer.TrainConfig(learning_rate=train_cfg["learning_rate"], seed=train_seed)
    state = trainer.init_trainer(cfg, make_rng(train_seed))
    return (state.visual.layers, state.visual.activation), (state.text.layers, state.text.activation)


def reference_dp(values: np.ndarray) -> float:
    """Minimal monotone path cost, row by row over Python floats."""
    rows = values.tolist()
    prev: list[float] = []
    for i, row in enumerate(rows):
        cur: list[float] = []
        for j, v in enumerate(row):
            options = []
            if i > 0:
                options.append(prev[j])
                if j > 0:
                    options.append(prev[j - 1])
            if j > 0:
                options.append(cur[j - 1])
            cur.append(v + min(options) if options else v)
        prev = cur
    return prev[-1]


def cost_matrix(frames: np.ndarray, texts: np.ndarray, beta: float = BETA) -> np.ndarray:
    """-log softmax over texts of frame-text cosines / beta."""
    z = frames @ texts.T / beta
    z = z - z.max(axis=1, keepdims=True)
    return -(z - np.log(np.exp(z).sum(axis=1, keepdims=True)))


def dtw_oracle(checkpoint_path, holdout) -> float:
    """On held-out cost matrices ``dtw_dp`` equals :func:`reference_dp` and is at most
    ``dtw_greedy``; returns the mean reversed-minus-forward DP cost (the order margin)."""
    visual, text = read_encoders(checkpoint_path)
    margins = []
    for k, s in enumerate(holdout.by_level("video")):
        forward = cost_matrix(encode(visual, s.frame_features), encode(text, s.child_text_features))
        costs = []
        for name, c in (("forward", forward), ("reversed", forward[:, ::-1].copy())):
            dp = alignment.dtw_dp(c).cost
            ref = reference_dp(c)
            greedy = alignment.dtw_greedy(c).cost
            _require(dp == ref, f"video {k} {name}: dtw_dp cost {dp!r} != reference DP {ref!r}")
            # the two sums visit cells in opposite orders, so equal paths may differ in the last bit
            _require(dp <= greedy + 1e-12 * max(1.0, abs(greedy)), f"video {k} {name}: dtw_dp {dp!r} > dtw_greedy {greedy!r}")
            costs.append(dp)
        margins.append(costs[1] - costs[0])
    return float(np.mean(margins))


# ---------------------------------------------------------------------------
# one pipeline
# ---------------------------------------------------------------------------


def check_pipeline(workload, data_dir, run_dir, eval_dir, data_seed: int, train_seed: int, retrieval_size: int):
    """Run every check on one pipeline's outputs.

    Returns (outcomes, quality): ``outcomes`` lists (check name, failure
    message or None); ``quality`` holds zeroshot_acc, recall1_t2i and
    order_margin, each None when its check failed.
    """
    outcomes: list[tuple[str, str | None]] = []
    quality = {"zeroshot_acc": None, "recall1_t2i": None, "order_margin": None}

    def attempt(name, fn, *args):
        try:
            result = fn(*args)
        except CheckFailed as exc:
            outcomes.append((name, str(exc)))
            return None
        outcomes.append((name, None))
        return result

    train, holdout = datagen.load_dataset(data_dir)
    rows = read_trainlog(os.path.join(run_dir, "trainlog.csv"))
    with open(os.path.join(eval_dir, "eval_report.json"), "r", encoding="utf-8") as fh:
        report = json.load(fh)
    ckpt = os.path.join(run_dir, "checkpoint_final.json")

    attempt("sample_counts", sample_counts, train, holdout, workload.data)
    attempt("regenerated_equal", regenerated_equal, train, holdout, workload.data, data_seed)
    attempt("step_counts", step_counts, rows, workload.train)
    attempt("clip_loss_falls", clip_loss_falls, rows)
    attempt("final_checkpoint_is_last", final_checkpoint_is_last, run_dir, workload.train["epochs"])
    untrained = untrained_encoders(workload.train, train_seed)
    recomputed = attempt("eval_report_matches", eval_report_matches, ckpt, report, train, holdout, retrieval_size, untrained)
    if recomputed is not None:
        quality.update(recomputed)
    quality["order_margin"] = attempt("dtw_oracle", dtw_oracle, ckpt, holdout)
    return outcomes, quality
