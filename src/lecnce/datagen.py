"""Synthetic procedural-video generator with known ground truth.

A procedure is an ordered selection of steps from a shared concept library
on the unit sphere.  Observable frame and text features are random linear
renders of noisy copies of those concepts, at three nested levels:

* clip: a short run of frames plus one narration text,
* phase: all frames of one step plus a keystep text and the ordered
  narrations inside it,
* video: the whole procedure plus an abstract text and the ordered
  keysteps.

Noise is layered: every (procedure, step) instance draws a latent around
its concept, every clip draws a latent around its instance, and every
frame/text adds its own render noise on top (scales in the module
constants below).  Frames and narrations of the same clip therefore share
most of their deviation from the concept, which is what makes
clip-to-narration retrieval ground truth well defined instead of a coin
flip among clips of the same step.  Marginally each feature is still
concept + Gaussian noise at a small multiple of the configured sigma.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DegenerateSplitError, FieldValueError, InfeasibleSpecError, check_minimums
from .numerics import make_rng

LEVELS = ("clip", "phase", "video")
MIN_CONCEPT_ANGLE_DEG = 30.0
CLIP_LEN = 4  # frames per clip chunk; frames_per_step must be a multiple

# how the configured noise_sigma is allocated across the layers; the shared
# layers dominate so that matched frame/text pairs stay resolvable among
# same-step distractors
INSTANCE_NOISE_SCALE = 1.0
CLIP_NOISE_SCALE = 1.5
RENDER_NOISE_SCALE = 0.5


@dataclass(frozen=True)
class ProcedureSpec:
    """Shape and noise parameters of the synthetic procedure distribution."""

    step_library_size: int = 12
    latent_dim: int = 16
    visual_dim: int = 32
    text_dim: int = 24
    steps_per_procedure: int = 6
    frames_per_step: int = 8
    noise_sigma: float = 0.1
    order_noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        check_minimums(self, step_library_size=1, steps_per_procedure=1, latent_dim=2, visual_dim=2, text_dim=2,
                       frames_per_step=CLIP_LEN, noise_sigma=0)
        if self.steps_per_procedure > self.step_library_size:
            raise FieldValueError("steps_per_procedure", "cannot exceed step_library_size")
        if not 0.0 <= self.order_noise <= 1.0:
            raise FieldValueError("order_noise", f"must be in [0, 1], got {self.order_noise}")
        if self.frames_per_step % CLIP_LEN != 0:
            raise FieldValueError("frames_per_step", f"must be a multiple of {CLIP_LEN}, got {self.frames_per_step}")


@dataclass(frozen=True)
class SplitSpec:
    """How many procedures to generate and the fraction of them held out."""

    n_procedures: int = 40
    holdout_fraction: float = 0.2

    def __post_init__(self):
        check_minimums(self, n_procedures=2)
        if not 0.0 < self.holdout_fraction < 1.0:
            raise FieldValueError("holdout_fraction", f"must be in (0, 1), got {self.holdout_fraction}")


@dataclass
class HierarchicalSample:
    """One training item: frames, a parent text, ordered child texts, labels."""

    level: str
    frame_features: np.ndarray
    parent_text_feature: np.ndarray
    child_text_features: np.ndarray  # (N, text_dim); N == 0 at clip level
    step_labels: list[int]
    procedure_id: int


@dataclass
class GroundTruth:
    """Generator internals for oracle evaluations: concepts and render maps."""

    concepts: np.ndarray  # (S, latent_dim), unit rows
    render_visual: np.ndarray  # (latent_dim, visual_dim)
    render_text: np.ndarray  # (latent_dim, text_dim)

    def class_text_features(self) -> np.ndarray:
        """Noise-free text render of every concept; desk-scale class prompts."""
        return self.concepts @ self.render_text

    def recover_steps(self, frames: np.ndarray) -> np.ndarray:
        """Nearest-concept lookup through the pseudo-inverse of the visual render."""
        latents = frames @ np.linalg.pinv(self.render_visual)
        sims = latents @ self.concepts.T
        return np.argmax(sims, axis=1)


@dataclass
class Dataset:
    """Samples at all three levels plus the generator's ground truth."""

    spec: ProcedureSpec
    samples: dict[str, list[HierarchicalSample]] = field(default_factory=dict)
    ground_truth: GroundTruth | None = None
    procedure_ids: list[int] = field(default_factory=list)

    def by_level(self, level: str) -> list[HierarchicalSample]:
        return self.samples.get(level, [])


def _sample_concepts(spec: ProcedureSpec, rng: np.random.Generator) -> np.ndarray:
    """Unit concepts with pairwise angle >= 30 degrees, by rejection."""
    max_cos = np.cos(np.deg2rad(MIN_CONCEPT_ANGLE_DEG))
    concepts: list[np.ndarray] = []
    attempts = 0
    while len(concepts) < spec.step_library_size:
        attempts += 1
        if attempts > 10000:
            raise InfeasibleSpecError(
                f"could not place {spec.step_library_size} concepts with "
                f"{MIN_CONCEPT_ANGLE_DEG} degree separation in dim {spec.latent_dim}"
            )
        v = rng.normal(size=spec.latent_dim)
        v /= np.linalg.norm(v)
        if all(float(v @ c) <= max_cos for c in concepts):
            concepts.append(v)
    return np.stack(concepts)


def _full_rank_render(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    for _ in range(100):
        m = rng.normal(size=(rows, cols)) / np.sqrt(rows)
        if np.linalg.matrix_rank(m) == min(rows, cols):
            return m
    raise InfeasibleSpecError(f"could not draw a full-rank {rows}x{cols} render map")


def generate_dataset(
    spec: ProcedureSpec,
    n_procedures: int,
    holdout_fraction: float = SplitSpec.holdout_fraction,
) -> tuple[Dataset, Dataset]:
    """Generate ``n_procedures`` procedures and split them train/holdout.

    Deterministic in ``spec.seed``.  Returns (train, holdout); both carry
    the same ground truth.
    """
    SplitSpec(n_procedures, holdout_fraction)
    rng = make_rng(spec.seed)
    concepts = _sample_concepts(spec, rng)
    render_visual = _full_rank_render(rng, spec.latent_dim, spec.visual_dim)
    render_text = _full_rank_render(rng, spec.latent_dim, spec.text_dim)
    truth = GroundTruth(concepts=concepts, render_visual=render_visual, render_text=render_text)

    sigma = spec.noise_sigma
    render_sigma = RENDER_NOISE_SCALE * sigma
    d = spec.latent_dim

    def render_vis(latent: np.ndarray) -> np.ndarray:
        return (latent + rng.normal(0.0, render_sigma, size=d)) @ render_visual

    def render_txt(latent: np.ndarray) -> np.ndarray:
        return (latent + rng.normal(0.0, render_sigma, size=d)) @ render_text

    all_samples: dict[str, list[HierarchicalSample]] = {lvl: [] for lvl in LEVELS}
    clips_per_step = spec.frames_per_step // CLIP_LEN

    for pid in range(n_procedures):
        # the step library carries a canonical routine order: a procedure is an
        # ascending-id selection, so labels are non-decreasing along the video
        order = np.sort(rng.permutation(spec.step_library_size)[: spec.steps_per_procedure])
        if spec.order_noise > 0:
            order = order.copy()
            for k in range(len(order) - 1):
                if rng.random() < spec.order_noise:
                    order[k], order[k + 1] = order[k + 1], order[k]

        video_frames, video_labels = [], []
        keystep_texts = []
        for step_id in order:
            step_id = int(step_id)
            instance = concepts[step_id] + rng.normal(0.0, INSTANCE_NOISE_SCALE * sigma, size=d)
            keystep = render_txt(instance)
            keystep_texts.append(keystep)

            step_frames, narrations = [], []
            for _ in range(clips_per_step):
                clip_latent = instance + rng.normal(0.0, CLIP_NOISE_SCALE * sigma, size=d)
                frames = np.stack([render_vis(clip_latent) for _ in range(CLIP_LEN)])
                narration = render_txt(clip_latent)
                narrations.append(narration)
                step_frames.append(frames)
                all_samples["clip"].append(
                    HierarchicalSample(
                        level="clip",
                        frame_features=frames,
                        parent_text_feature=narration,
                        child_text_features=np.empty((0, spec.text_dim)),
                        step_labels=[step_id] * CLIP_LEN,
                        procedure_id=pid,
                    )
                )
            phase_frames = np.concatenate(step_frames, axis=0)
            all_samples["phase"].append(
                HierarchicalSample(
                    level="phase",
                    frame_features=phase_frames,
                    parent_text_feature=keystep,
                    child_text_features=np.stack(narrations),
                    step_labels=[step_id] * spec.frames_per_step,
                    procedure_id=pid,
                )
            )
            video_frames.append(phase_frames)
            video_labels.extend([step_id] * spec.frames_per_step)

        abstract = render_txt(concepts[order].mean(axis=0))
        all_samples["video"].append(
            HierarchicalSample(
                level="video",
                frame_features=np.concatenate(video_frames, axis=0),
                parent_text_feature=abstract,
                child_text_features=np.stack(keystep_texts),
                step_labels=video_labels,
                procedure_id=pid,
            )
        )

    dataset = Dataset(
        spec=spec,
        samples=all_samples,
        ground_truth=truth,
        procedure_ids=list(range(n_procedures)),
    )
    return split_holdout(dataset, holdout_fraction, rng)


def split_holdout(dataset: Dataset, fraction: float, rng: np.random.Generator) -> tuple[Dataset, Dataset]:
    """Split at whole-procedure granularity; floor(fraction * n), at least 1, held out."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    ids = list(dataset.procedure_ids)
    n_hold = max(1, int(np.floor(fraction * len(ids))))
    if n_hold >= len(ids):
        raise DegenerateSplitError(f"holdout of {n_hold} from {len(ids)} procedures leaves no training data")
    perm = rng.permutation(len(ids))
    hold_ids = sorted(ids[i] for i in perm[:n_hold])
    hold_set = set(hold_ids)

    def select(keep_held: bool) -> Dataset:
        picked = {
            lvl: [s for s in dataset.samples[lvl] if (s.procedure_id in hold_set) == keep_held]
            for lvl in dataset.samples
        }
        return Dataset(
            spec=dataset.spec,
            samples=picked,
            ground_truth=dataset.ground_truth,
            procedure_ids=[p for p in dataset.procedure_ids if (p in hold_set) == keep_held],
        )

    return select(False), select(True)


# ---------------------------------------------------------------------------
# on-disk format: JSON manifest + little-endian float64 binary blobs
# ---------------------------------------------------------------------------


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _pack_samples(samples: list[HierarchicalSample]) -> tuple[bytes, list[dict]]:
    blob = bytearray()
    records = []
    for s in samples:
        offset = len(blob)
        for arr in (s.frame_features, np.atleast_2d(s.parent_text_feature), s.child_text_features):
            blob.extend(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        records.append(
            {
                "level": s.level,
                "procedure_id": s.procedure_id,
                "step_labels": list(map(int, s.step_labels)),
                "offset": offset,
                "n_frames": int(s.frame_features.shape[0]),
                "n_children": int(s.child_text_features.shape[0]),
            }
        )
    return bytes(blob), records


def save_dataset(train: Dataset, holdout: Dataset, out_dir) -> None:
    """Write manifest.json, data.bin and groundtruth.bin; hashes in the manifest."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    spec = train.spec
    truth = train.ground_truth

    ordered = [s for lvl in LEVELS for s in train.by_level(lvl)] + [s for lvl in LEVELS for s in holdout.by_level(lvl)]
    split_flags = ["train"] * sum(len(train.by_level(lvl)) for lvl in LEVELS)
    split_flags += ["holdout"] * sum(len(holdout.by_level(lvl)) for lvl in LEVELS)
    data_blob, records = _pack_samples(ordered)
    for rec, flag in zip(records, split_flags):
        rec["split"] = flag

    truth_blob = b"".join(
        np.ascontiguousarray(a, dtype="<f8").tobytes()
        for a in (truth.concepts, truth.render_visual, truth.render_text)
    )
    manifest = {
        "spec": asdict(spec),
        "seed": spec.seed,
        "train_procedures": train.procedure_ids,
        "holdout_procedures": holdout.procedure_ids,
        "samples": records,
        "files": {
            "data.bin": _sha256(data_blob),
            "groundtruth.bin": _sha256(truth_blob),
        },
    }
    with open(os.path.join(out_dir, "data.bin"), "wb") as fh:
        fh.write(data_blob)
    with open(os.path.join(out_dir, "groundtruth.bin"), "wb") as fh:
        fh.write(truth_blob)
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_dataset(in_dir) -> tuple[Dataset, Dataset]:
    """Inverse of :func:`save_dataset`, with hash verification."""
    import os

    with open(os.path.join(in_dir, "manifest.json"), "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    spec = ProcedureSpec(**manifest["spec"])
    with open(os.path.join(in_dir, "data.bin"), "rb") as fh:
        data_blob = fh.read()
    with open(os.path.join(in_dir, "groundtruth.bin"), "rb") as fh:
        truth_blob = fh.read()
    for name, blob in (("data.bin", data_blob), ("groundtruth.bin", truth_blob)):
        if _sha256(blob) != manifest["files"][name]:
            raise ValueError(f"{name} hash mismatch; dataset directory is corrupt")

    s = spec.step_library_size
    d = spec.latent_dim
    truth_arr = np.frombuffer(truth_blob, dtype="<f8")
    concepts = truth_arr[: s * d].reshape(s, d)
    off = s * d
    render_visual = truth_arr[off : off + d * spec.visual_dim].reshape(d, spec.visual_dim)
    off += d * spec.visual_dim
    render_text = truth_arr[off : off + d * spec.text_dim].reshape(d, spec.text_dim)
    truth = GroundTruth(concepts=concepts.copy(), render_visual=render_visual.copy(), render_text=render_text.copy())

    data_arr = np.frombuffer(data_blob, dtype="<f8")
    splits = {"train": {lvl: [] for lvl in LEVELS}, "holdout": {lvl: [] for lvl in LEVELS}}
    for rec in manifest["samples"]:
        t, n = rec["n_frames"], rec["n_children"]
        start = rec["offset"] // 8
        frames = data_arr[start : start + t * spec.visual_dim].reshape(t, spec.visual_dim)
        start += t * spec.visual_dim
        parent = data_arr[start : start + spec.text_dim]
        start += spec.text_dim
        children = data_arr[start : start + n * spec.text_dim].reshape(n, spec.text_dim)
        sample = HierarchicalSample(
            level=rec["level"],
            frame_features=frames.copy(),
            parent_text_feature=parent.copy(),
            child_text_features=children.copy(),
            step_labels=list(rec["step_labels"]),
            procedure_id=rec["procedure_id"],
        )
        splits[rec["split"]][rec["level"]].append(sample)

    def build(split: str, ids: list[int]) -> Dataset:
        return Dataset(spec=spec, samples=splits[split], ground_truth=truth, procedure_ids=list(ids))

    return build("train", manifest["train_procedures"]), build("holdout", manifest["holdout_procedures"])
