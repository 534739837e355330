"""Alternating hierarchical training loop over one shared pair of encoders.

A schedule cycle runs a configured number of clip-level batches, then
phase-level, then video-level batches; every level updates the same two
encoders.  Clip-level batches add two feature-space distortions per sample
for the two-view objective; text features pass through the stochastic
original-vs-augmented selection before encoding.  The loop is
bit-deterministic in the seed: batches, distortions and augmentation draws
all come from one generator consumed in a fixed order.
"""

from __future__ import annotations

import csv
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import encoders as enc
from .datagen import Dataset, HierarchicalSample
from .errors import AllZeroScheduleError, FieldValueError, MissingLevelDataError, NonFiniteLossError, check_minimums
from .losses import LossConfig, clip_lecnce, hier_lecnce, pool_segments, pool_segments_backward
from .numerics import make_rng, subsample_frames
from .textaug import sample_text

LEVELS = ("clip", "phase", "video")
VIEW_NOISE_SIGMA = 0.05
VIEW_DROPOUT_RATE = 0.10
TEXT_AUG_SIGMA = 0.02  # augmented-text rewrites perturb meaning only slightly

CSV_COLUMNS = ["step", "level", "total", "component_vl", "component_vv", "component_infonce", "component_dtw", "wall_ms"]


@dataclass
class TrainConfig:
    """Everything a run needs; desk-scale defaults, reference-scale values selectable."""

    loss: LossConfig = field(default_factory=LossConfig)
    schedule: tuple[int, int, int] = (5, 3, 3)
    batch_sizes: tuple[int, int, int] = (16, 8, 4)
    frames: tuple[int, int, int] = (4, 16, 64)
    epochs: int = 30
    learning_rate: float = 1e-3
    weight_decay: float = 0.01
    seed: int = 0
    p_augmented: float = 0.5
    dtw_algorithm: str = "greedy"
    visual_layers: tuple[int, ...] = (32, 32)
    text_layers: tuple[int, ...] = (24, 32)
    activation: str = "identity"

    def __post_init__(self):
        if len(self.schedule) != 3 or any(c < 0 for c in self.schedule):
            raise FieldValueError("schedule", "must be three non-negative counts")
        if sum(self.schedule) == 0:
            raise AllZeroScheduleError("schedule", "has zero batches at every level")
        for level, (count, batch) in enumerate(zip(self.schedule, self.batch_sizes)):
            if count > 0 and batch < 2:
                raise FieldValueError("batch_sizes", f"must be >= 2 at contrastive level {LEVELS[level]}, got {batch}")
        if any(n < 1 for n in self.frames):
            raise FieldValueError("frames", f"entries must be >= 1, got {self.frames}")
        check_minimums(self, epochs=1, learning_rate=0, weight_decay=0)
        if not 0.0 <= self.p_augmented <= 1.0:
            raise FieldValueError("p_augmented", f"must be in [0, 1], got {self.p_augmented}")
        if self.dtw_algorithm not in ("greedy", "dp"):
            raise FieldValueError("dtw_algorithm", f"must be greedy or dp, got {self.dtw_algorithm!r}")
        if self.activation not in enc.ACTIVATIONS:
            raise FieldValueError("activation", f"must be one of {enc.ACTIVATIONS}, got {self.activation!r}")
        for name in ("visual_layers", "text_layers"):
            if len(getattr(self, name)) < 2 or min(getattr(self, name)) < 1:
                raise FieldValueError(name, f"must list at least 2 dims >= 1, got {getattr(self, name)}")


@dataclass
class StepRecord:
    global_step: int
    level: str
    total: float
    components: dict[str, float]
    wall_ms: float


@dataclass
class TrainLog:
    records: list[StepRecord] = field(default_factory=list)

    def append(self, rec: StepRecord) -> None:
        if self.records and rec.global_step <= self.records[-1].global_step:
            raise ValueError("global_step must be strictly increasing")
        if not np.isfinite(rec.total):
            raise NonFiniteLossError(f"non-finite loss at step {rec.global_step} level {rec.level}")
        self.records.append(rec)

    def level_totals(self, level: str) -> list[float]:
        return [r.total for r in self.records if r.level == level]

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for r in self.records:
                c = r.components
                writer.writerow(
                    [
                        r.global_step,
                        r.level,
                        repr(r.total),
                        repr(c["vl"]) if "vl" in c else "",
                        repr(c["vv"]) if "vv" in c else "",
                        repr(c["infonce"]) if "infonce" in c else "",
                        repr(c["dtw"]) if "dtw" in c else "",
                        repr(r.wall_ms),
                    ]
                )


def schedule_period(cfg: TrainConfig) -> list[str]:
    """One cycle of the alternating pattern as a list of level names."""
    period = []
    for level, count in zip(LEVELS, cfg.schedule):
        period.extend([level] * count)
    return period


class _Batcher:
    """Seeded shuffling with wrap-around over one level's sample list."""

    def __init__(self, samples: list[HierarchicalSample], rng: np.random.Generator):
        self.samples = samples
        self.rng = rng
        self.order = list(rng.permutation(len(samples)))
        self.pos = 0

    def next_batch(self, n: int) -> list[HierarchicalSample]:
        out = []
        while len(out) < n:
            if self.pos >= len(self.order):
                self.order = list(self.rng.permutation(len(self.samples)))
                self.pos = 0
            out.append(self.samples[self.order[self.pos]])
            self.pos += 1
        return out


def _distort(features: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Additive Gaussian noise plus coordinate dropout, in feature space."""
    noise = rng.normal(0.0, VIEW_NOISE_SIGMA, size=features.shape)
    keep = rng.random(features.shape) >= VIEW_DROPOUT_RATE
    return (features + noise) * keep


def _select_text(feature: np.ndarray, rng: np.random.Generator, p_augmented: float) -> np.ndarray:
    """Original-vs-augmented choice; the augmented variant is an independent re-noising."""
    augmented = feature + rng.normal(0.0, TEXT_AUG_SIGMA, size=feature.shape)
    return sample_text(feature, augmented, p_augmented, rng)


def _split_rows(rows: np.ndarray, blocks: list[np.ndarray]) -> list[np.ndarray]:
    """Views of stacked ``rows`` cut to the row counts of ``blocks``."""
    return np.split(rows, np.cumsum([len(block) for block in blocks])[:-1])


@dataclass
class TrainerState:
    """Shared encoders plus their optimizer states."""

    visual: enc.EncoderParams
    text: enc.EncoderParams
    visual_opt: enc.OptimizerState
    text_opt: enc.OptimizerState


def init_trainer(cfg: TrainConfig, rng: np.random.Generator) -> TrainerState:
    visual = enc.init_params(list(cfg.visual_layers), cfg.activation, rng)
    text = enc.init_params(list(cfg.text_layers), cfg.activation, rng)
    return TrainerState(
        visual=visual,
        text=text,
        visual_opt=enc.init_optimizer(visual, learning_rate=cfg.learning_rate, weight_decay=cfg.weight_decay),
        text_opt=enc.init_optimizer(text, learning_rate=cfg.learning_rate, weight_decay=cfg.weight_decay),
    )


def train_step(
    level: str,
    batch: list[HierarchicalSample],
    state: TrainerState,
    cfg: TrainConfig,
    rng: np.random.Generator,
    global_step: int = 0,
) -> StepRecord:
    """One forward/backward/update on a batch of one level."""
    t0 = time.perf_counter()
    for s in batch:
        if s.level != level:
            raise ValueError(f"batch sample of level {s.level!r} in a {level!r} step")
    n_frames = dict(zip(LEVELS, cfg.frames))[level]

    frame_blocks = [subsample_frames(s.frame_features, n_frames) for s in batch]
    texts = np.stack([_select_text(s.parent_text_feature, rng, cfg.p_augmented) for s in batch])

    # one forward and one backward per encoder: the weight gradients of all
    # blocks sum inside the backward GEMM
    if level == "clip":
        views_a = [_distort(block, rng) for block in frame_blocks]
        views_b = [_distort(block, rng) for block in frame_blocks]
        blocks = frame_blocks + views_a + views_b
        emb, v_cache = enc.forward(state.visual, np.concatenate(blocks), return_cache=True)
        pooled, pool_cache = pool_segments(_split_rows(emb, blocks))
        narr_emb, t_cache = enc.forward(state.text, texts, return_cache=True)

        clip_rows, rows_a, rows_b = np.split(pooled, 3)
        loss = clip_lecnce(clip_rows, narr_emb, rows_a, rows_b, cfg.loss)
        grad_pooled = np.concatenate([loss.grads["clip_frames"], loss.grads["view_a"], loss.grads["view_b"]])
        grad_frames = pool_segments_backward(grad_pooled, pool_cache)
        grad_texts = loss.grads["narrations"]
    else:
        child_sel = [
            np.stack([_select_text(c, rng, cfg.p_augmented) for c in s.child_text_features])
            for s in batch
        ]
        emb, v_cache = enc.forward(state.visual, np.concatenate(frame_blocks), return_cache=True)
        text_emb, t_cache = enc.forward(state.text, np.concatenate([texts] + child_sel), return_cache=True)

        frame_embs = _split_rows(emb, frame_blocks)
        parent_emb, child_embs = text_emb[: len(batch)], _split_rows(text_emb[len(batch) :], child_sel)
        loss = hier_lecnce(frame_embs, parent_emb, child_embs, cfg.loss, cfg.dtw_algorithm)
        grad_frames = np.concatenate(loss.grads["segment_frames"])
        grad_texts = np.concatenate([loss.grads["parent_texts"]] + loss.grads["child_texts"])
    v_grads, _ = enc.backward(state.visual, v_cache, grad_frames)
    t_grads, _ = enc.backward(state.text, t_cache, grad_texts)

    if not np.isfinite(loss.value):
        raise NonFiniteLossError(f"non-finite loss at step {global_step} level {level}")
    state.visual, state.visual_opt = enc.adamw_step(state.visual, v_grads, state.visual_opt)
    state.text, state.text_opt = enc.adamw_step(state.text, t_grads, state.text_opt)

    wall_ms = (time.perf_counter() - t0) * 1000.0
    return StepRecord(
        global_step=global_step,
        level=level,
        total=loss.value,
        components=dict(loss.components),
        wall_ms=wall_ms,
    )


def _save_checkpoint(out_dir, tag: str, state: TrainerState, seed: int, global_step: int) -> None:
    enc.save_checkpoint(os.path.join(out_dir, f"checkpoint_{tag}.json"), state.visual, state.text,
                        state.visual_opt, state.text_opt, seed=seed, schedule_position=global_step)


def train_run(cfg: TrainConfig, datasets: Dataset | dict, out_dir=None) -> tuple[TrainerState, TrainLog]:
    """Run ``cfg.epochs`` schedule cycles; optionally write log and checkpoints.

    ``datasets`` is a :class:`Dataset` or a level -> sample-list mapping and
    must cover every level with a non-zero schedule count.
    """
    samples = datasets.samples if isinstance(datasets, Dataset) else datasets
    for level, count in zip(LEVELS, cfg.schedule):
        if count > 0 and not samples.get(level):
            raise MissingLevelDataError(f"schedule needs {level!r} samples but none were provided")

    rng = make_rng(cfg.seed)
    state = init_trainer(cfg, rng)
    batchers = {
        level: _Batcher(samples[level], rng)
        for level, count in zip(LEVELS, cfg.schedule)
        if count > 0
    }
    batch_size = dict(zip(LEVELS, cfg.batch_sizes))
    period = schedule_period(cfg)

    log = TrainLog()
    global_step = 0
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    for epoch in range(cfg.epochs):
        for level in period:
            global_step += 1
            batch = batchers[level].next_batch(batch_size[level])
            log.append(train_step(level, batch, state, cfg, rng, global_step))
        if out_dir is not None:
            _save_checkpoint(out_dir, f"{epoch + 1:04d}", state, cfg.seed, global_step)
    if out_dir is not None:
        _save_checkpoint(out_dir, "final", state, cfg.seed, global_step)
        log.write_csv(os.path.join(out_dir, "trainlog.csv"))
    return state, log

