"""Alternating hierarchical training loop over one shared pair of encoders.

A schedule cycle runs a configured number of clip-level batches, then
phase-level, then video-level batches; every level updates the same two
encoders.  Clip-level batches add two feature-space distortions of every
sample for the two-view objective, drawn for the whole batch at once; text
features are encoded as they are.  The loop is bit-deterministic in the
seed: batches and distortions come from one generator consumed in a fixed
order.
"""

from __future__ import annotations

import csv
import io
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import encoders as enc
from .alignment import check_algorithm
from .datagen import LEVELS, Dataset, Level
from .errors import FieldValueError, MissingLevelDataError, NonFiniteError, check_minimums, read_text, write_file
from .losses import LossConfig, _clip_lecnce, _hier_lecnce, _pool_segments, pool_segments_backward
from .numerics import make_rng, subsample_frames

VIEW_NOISE_SIGMA = 0.05
VIEW_DROPOUT_RATE = 0.10

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
    dtw_algorithm: str = "greedy"
    visual_layers: tuple[int, ...] = (32, 32)
    text_layers: tuple[int, ...] = (24, 32)

    def __post_init__(self):
        if len(self.schedule) != 3 or any(c < 0 for c in self.schedule):
            raise FieldValueError("schedule", "must be three non-negative counts")
        if sum(self.schedule) == 0:
            raise FieldValueError("schedule", "has zero batches at every level")
        for name in ("batch_sizes", "frames"):
            if len(getattr(self, name)) != len(LEVELS):
                raise FieldValueError(name, f"must have one entry per level {LEVELS}, got {getattr(self, name)}")
        for level, (count, batch) in enumerate(zip(self.schedule, self.batch_sizes)):
            if count > 0 and batch < 2:
                raise FieldValueError("batch_sizes", f"must be >= 2 at contrastive level {LEVELS[level]}, got {batch}")
        if any(n < 1 for n in self.frames):
            raise FieldValueError("frames", f"entries must be >= 1, got {self.frames}")
        check_minimums(self, epochs=1, learning_rate=0, weight_decay=0)
        check_algorithm(self.dtw_algorithm)
        for name in ("visual_layers", "text_layers"):
            if len(getattr(self, name)) < 2 or min(getattr(self, name)) < 1:
                raise FieldValueError(name, f"must list at least 2 dims >= 1, got {getattr(self, name)}")
        if self.visual_layers[-1] != self.text_layers[-1]:
            raise FieldValueError("text_layers", f"must end in the joint dim of visual_layers, "
                                                 f"{self.visual_layers[-1]}, got {self.text_layers[-1]}")


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
            raise FieldValueError("global_step", "must be strictly increasing")
        self.records.append(rec)

    def level_totals(self, level: str) -> list[float]:
        return [r.total for r in self.records if r.level == level]

    def write_csv(self, path) -> None:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(CSV_COLUMNS)
        for r in self.records:
            c = [repr(r.components[k]) if k in r.components else "" for k in ("vl", "vv", "infonce", "dtw")]
            writer.writerow([r.global_step, r.level, repr(r.total), *c, repr(r.wall_ms)])
        write_file(path, buf.getvalue())


def schedule_period(cfg: TrainConfig) -> list[str]:
    """One cycle of the alternating pattern as a list of level names."""
    period = []
    for level, count in zip(LEVELS, cfg.schedule):
        period.extend([level] * count)
    return period


class _Batcher:
    """Seeded shuffling with wrap-around over the rows of one level.

    A batch holds only the kept frames of its samples (``n_frames`` of
    them, uniformly spaced as by ``subsample_frames``) and no labels, which
    training never reads.
    """

    def __init__(self, rows: Level, rng: np.random.Generator, n_frames: int):
        self.rows = rows
        self.rng = rng
        self.index = subsample_frames(np.arange(rows.frames.shape[1]), n_frames)
        self.order = rng.permutation(len(rows))
        self.pos = 0

    def next_batch(self, n: int) -> Level:
        picks = []
        while n > 0:
            if self.pos >= len(self.order):
                self.order = self.rng.permutation(len(self.rows))
                self.pos = 0
            picks.append(self.order[self.pos : self.pos + n])
            self.pos += len(picks[-1])
            n -= len(picks[-1])
        picks = np.concatenate(picks)
        rows = self.rows
        return Level(rows.name, rows.frames[picks[:, None], self.index], rows.parents[picks], rows.children[picks],
                     None, rows.procedure_ids[picks])


def _distort(features: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Additive Gaussian noise plus coordinate dropout, in feature space."""
    noise = rng.normal(0.0, VIEW_NOISE_SIGMA, size=features.shape)
    keep = rng.random(features.shape) >= VIEW_DROPOUT_RATE
    return (features + noise) * keep


@dataclass
class TrainerState:
    """Shared encoders plus their optimizer states."""

    visual: enc.EncoderParams
    text: enc.EncoderParams
    visual_opt: enc.OptimizerState
    text_opt: enc.OptimizerState


def init_trainer(cfg: TrainConfig, rng: np.random.Generator) -> TrainerState:
    visual = enc.init_params(list(cfg.visual_layers), rng)
    text = enc.init_params(list(cfg.text_layers), rng)
    return TrainerState(
        visual=visual,
        text=text,
        visual_opt=enc.init_optimizer(visual, learning_rate=cfg.learning_rate, weight_decay=cfg.weight_decay),
        text_opt=enc.init_optimizer(text, learning_rate=cfg.learning_rate, weight_decay=cfg.weight_decay),
    )


def train_step(
    level: str,
    batch: Level,
    state: TrainerState,
    cfg: TrainConfig,
    rng: np.random.Generator,
    global_step: int = 0,
) -> StepRecord:
    """One forward/backward/update on a batch of one level, over every frame the batch holds.

    The frames a step sees are picked by :class:`_Batcher`, which keeps
    ``cfg.frames`` of them per sample; a batch built otherwise is trained as given.
    """
    t0 = time.perf_counter()
    if batch.name != level:
        raise FieldValueError("batch", f"of level {batch.name!r} in a {level!r} step")
    frames = batch.frames
    b, t, _ = frames.shape

    # one forward and one backward per encoder: the weight gradients of all
    # samples sum inside the backward GEMM
    if level == "clip":
        # view a of every sample, then view b of every sample
        views = _distort(np.concatenate([frames, frames]), rng)
        blocks = np.concatenate([frames, views])
        emb, v_cache = enc.forward(state.visual, blocks.reshape(3 * b * t, -1), return_cache=True)
        pooled, pool_cache = _pool_segments(emb.reshape(3 * b, t, -1))  # forward's checked input, normalized
        narr_emb, t_cache = enc.forward(state.text, batch.parents, return_cache=True)

        clip_rows, rows_a, rows_b = np.split(pooled, 3)
        loss = _clip_lecnce(clip_rows, narr_emb, rows_a, rows_b, cfg.loss)
        grad_pooled = np.concatenate([loss.grads["clip_frames"], loss.grads["view_a"], loss.grads["view_b"]])
        grad_frames = pool_segments_backward(grad_pooled, pool_cache).reshape(3 * b * t, -1)
        grad_texts = loss.grads["narrations"]
    else:
        n = batch.children.shape[1]
        texts = np.concatenate([batch.parents, batch.children.reshape(b * n, -1)])
        emb, v_cache = enc.forward(state.visual, frames.reshape(b * t, -1), return_cache=True)
        text_emb, t_cache = enc.forward(state.text, texts, return_cache=True)

        loss = _hier_lecnce(emb.reshape(b, t, -1), text_emb[:b], text_emb[b:].reshape(b, n, -1), cfg.loss,
                            cfg.dtw_algorithm)
        grad_frames = loss.grads["segment_frames"].reshape(b * t, -1)
        grad_texts = np.concatenate([loss.grads["parent_texts"], loss.grads["child_texts"].reshape(b * n, -1)])
    v_grad = enc.backward(state.visual, v_cache, grad_frames)
    t_grad = enc.backward(state.text, t_cache, grad_texts)

    if not np.isfinite(loss.value):
        raise NonFiniteError(f"non-finite loss at step {global_step} level {level}")
    state.visual, state.visual_opt = enc.adamw_step(state.visual, v_grad, state.visual_opt)
    state.text, state.text_opt = enc.adamw_step(state.text, t_grad, state.text_opt)

    wall_ms = (time.perf_counter() - t0) * 1000.0
    return StepRecord(
        global_step=global_step,
        level=level,
        total=loss.value,
        components=dict(loss.components),
        wall_ms=wall_ms,
    )


def train_run(cfg: TrainConfig, dataset: Dataset, out_dir=None) -> tuple[TrainerState, TrainLog]:
    """Run ``cfg.epochs`` schedule cycles; optionally write log and checkpoints.

    ``dataset`` must hold samples at every level with a non-zero schedule
    count.
    """
    rng = make_rng(cfg.seed)
    state = init_trainer(cfg, rng)
    batchers = {}
    for level, count, n_frames in zip(LEVELS, cfg.schedule, cfg.frames):
        if count > 0:
            if not len(dataset.samples.get(level, ())):
                raise MissingLevelDataError(f"schedule needs {level!r} samples but none were provided")
            batchers[level] = _Batcher(dataset.samples[level], rng, n_frames)
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
            enc.save_checkpoint(os.path.join(out_dir, f"checkpoint_{epoch + 1:04d}.json"), state.visual, state.text,
                                state.visual_opt, state.text_opt, seed=cfg.seed, schedule_position=global_step)
    if out_dir is not None:
        # the final state is the last epoch's, already encoded
        write_file(os.path.join(out_dir, "checkpoint_final.json"),
                   read_text(os.path.join(out_dir, f"checkpoint_{cfg.epochs:04d}.json")))
        log.write_csv(os.path.join(out_dir, "trainlog.csv"))
    return state, log

