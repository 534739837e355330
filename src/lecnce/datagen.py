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

import functools
import hashlib
import json
import math
import os
import typing
from collections.abc import MutableMapping
from dataclasses import asdict, astuple, dataclass

import numpy as np

from .errors import CorruptFileError, FieldValueError, InfeasibleSpecError, check_minimums, is_a, read_json, write_file
from .numerics import f8le, make_rng

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
    step_labels: list[int] | None  # None for a sample of a training batch
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
class Level:
    """The samples of one level as stacked arrays; row k of each array is sample k.

    ``level[k]`` is sample k as a :class:`HierarchicalSample` whose arrays
    are views of row k, and iterating yields those samples in row order;
    any other index (a slice, an index array, a mask) selects rows into a
    new :class:`Level`.  A training batch holds only the frames its batcher kept.
    """

    name: str
    frames: np.ndarray  # (n, T, visual_dim)
    parents: np.ndarray  # (n, text_dim)
    children: np.ndarray  # (n, N, text_dim); N == 0 at clip level
    labels: np.ndarray | None  # (n, T) step ids; None in a training batch, which never reads them
    procedure_ids: np.ndarray  # (n,)

    def __len__(self) -> int:
        return len(self.procedure_ids)

    def __getitem__(self, index):
        labels = None if self.labels is None else self.labels[index]
        if isinstance(index, (int, np.integer)):
            return HierarchicalSample(self.name, self.frames[index], self.parents[index], self.children[index],
                                      None if labels is None else labels.tolist(), int(self.procedure_ids[index]))
        return Level(self.name, self.frames[index], self.parents[index], self.children[index], labels,
                     self.procedure_ids[index])


class _Levels(MutableMapping):
    """The :class:`Level` of each name in :data:`LEVELS`, made by ``gather(name)`` the first time it is read.

    Reading a level twice gathers it once; an assigned level replaces it.
    """

    def __init__(self, gather):
        self._gather, self._levels = gather, dict.fromkeys(LEVELS)

    def __getitem__(self, name: str) -> Level:
        if self._levels[name] is None:
            self._levels[name] = self._gather(name)
        return self._levels[name]

    def __setitem__(self, name: str, level: Level) -> None:
        self._levels[name] = level

    def __delitem__(self, name: str) -> None:
        del self._levels[name]

    def __contains__(self, name) -> bool:
        return name in self._levels

    def __iter__(self):
        return iter(self._levels)

    def __len__(self) -> int:
        return len(self._levels)


@dataclass
class Dataset:
    """One split: its samples at all three levels plus the generator's ground truth.

    The split is rows ``rows`` of the per-procedure arrays ``procedures``
    (the (P, S) step ids, then each array of :func:`_procedure_shapes` with
    a leading P axis, rows in id order), which it shares with the other
    split; row ``rows[k]`` is procedure ``procedure_ids[k]``.  ``samples``
    maps each level name to its :class:`Level`, gathered from those rows as
    its own copy when it is first read.
    """

    spec: ProcedureSpec
    samples: MutableMapping[str, Level]
    ground_truth: GroundTruth
    procedure_ids: list[int]
    rows: np.ndarray
    procedures: tuple[np.ndarray, ...]

    def by_level(self, level: str) -> list[HierarchicalSample]:
        return list(self.samples.get(level, ()))


def _sample_concepts(spec: ProcedureSpec, rng: np.random.Generator) -> np.ndarray:
    """Unit concepts with pairwise angle >= 30 degrees, by rejection."""
    max_cos = np.cos(np.deg2rad(MIN_CONCEPT_ANGLE_DEG))
    concepts: list[np.ndarray] = []
    attempts = 0
    while len(concepts) < spec.step_library_size:
        attempts += 1
        if attempts > 10000:
            raise InfeasibleSpecError(
                f"could not place step_library_size={spec.step_library_size} concepts with "
                f"{MIN_CONCEPT_ANGLE_DEG} degree separation in latent_dim={spec.latent_dim} in 10000 draws"
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
    the same ground truth.  After the concepts and the two render maps,
    every draw is one block for all procedures, in this order: the step
    selections, the (P, S-1) uniforms of the ``order_noise`` swaps, the
    instance latents, the clip latents, then the render noise of frames,
    narrations, key steps and abstracts.  Nothing is drawn per row.
    """
    SplitSpec(n_procedures, holdout_fraction)
    rng = make_rng(spec.seed)
    concepts = _sample_concepts(spec, rng)
    render_visual = _full_rank_render(rng, spec.latent_dim, spec.visual_dim)
    render_text = _full_rank_render(rng, spec.latent_dim, spec.text_dim)
    truth = GroundTruth(concepts=concepts, render_visual=render_visual, render_text=render_text)

    p, s, c, d = n_procedures, spec.steps_per_procedure, spec.frames_per_step // CLIP_LEN, spec.latent_dim
    sigma = spec.noise_sigma
    # the step library carries a canonical routine order: a procedure is an
    # ascending-id selection, so labels are non-decreasing along the video
    orders = np.sort(np.argsort(rng.random((p, spec.step_library_size)), axis=1)[:, :s], axis=1)
    swaps = rng.random((p, s - 1)) < spec.order_noise
    for k in range(s - 1):  # in turn, so a step can travel several places
        orders[swaps[:, k], k : k + 2] = orders[swaps[:, k], k : k + 2][:, ::-1]
    instances = concepts[orders] + rng.normal(0.0, INSTANCE_NOISE_SCALE * sigma, size=(p, s, d))
    clips = np.repeat(instances, c, axis=1) + rng.normal(0.0, CLIP_NOISE_SCALE * sigma, size=(p, s * c, d))

    def render(latents: np.ndarray, render_map: np.ndarray) -> np.ndarray:
        """``latents`` plus one block of render noise, mapped by ``render_map`` in one product."""
        return (latents + rng.normal(0.0, RENDER_NOISE_SCALE * sigma, size=latents.shape)) @ render_map

    frames = render(np.repeat(clips, CLIP_LEN, axis=1), render_visual)
    narrations = render(clips, render_text)
    keysteps = render(instances, render_text)
    abstracts = render(concepts[orders].mean(axis=1), render_text)

    ids = list(range(p))
    return tuple(_from_procedures(spec, truth, ids, keep, orders, frames, narrations, keysteps, abstracts)
                 for keep in _split_ids(ids, holdout_fraction, rng))


def _procedure_shapes(spec: ProcedureSpec) -> list[tuple[int, ...]]:
    """Shapes of one procedure's frames, narrations, key steps and abstract, in data.bin order."""
    s, t = spec.steps_per_procedure, spec.text_dim
    return [(s * spec.frames_per_step, spec.visual_dim), (s * spec.frames_per_step // CLIP_LEN, t), (s, t), (t,)]


def _from_procedures(spec, truth, ids, keep, *procedures) -> Dataset:
    """The split of the procedures of ascending ``ids`` that are in ``keep``, in id order; no level is gathered yet.

    Row k of the (P, S) step ids and of each array after them in
    ``procedures``, shaped as :func:`_procedure_shapes` after the leading
    axis, is procedure ``ids[k]``.
    """
    rows = np.flatnonzero(np.isin(ids, keep))
    kept = [ids[k] for k in rows]
    return Dataset(spec, _Levels(functools.partial(_gather, spec, kept, rows, procedures)), truth, kept, rows,
                   procedures)


def _gather(spec, procedure_ids, rows, procedures, level: str) -> Level:
    """Level ``level`` of rows ``rows`` (procedures ``procedure_ids``) of ``procedures``, as its own copy.

    A clip is CLIP_LEN frames and their narration, a phase one step's
    frames, narrations and key step, a video all of them.
    """
    orders, frames, narrations, keysteps, abstracts = procedures
    s, f, d = spec.steps_per_procedure, spec.frames_per_step, spec.text_dim
    t, parents, children = {"clip": (CLIP_LEN, narrations, np.empty((len(orders), 0, d))),
                            "phase": (f, keysteps, narrations), "video": (s * f, abstracts, keysteps)}[level]
    per = s * f // t  # samples per procedure
    n = len(rows) * per
    return Level(level, frames[rows].reshape(n, t, spec.visual_dim), parents[rows].reshape(n, d),
                 children[rows].reshape(n, children.shape[1] // per, d),
                 np.repeat(orders[rows], f, axis=1).reshape(n, t), np.repeat(np.array(procedure_ids, dtype=int), per))


def _split_ids(ids: list[int], fraction: float, rng: np.random.Generator) -> tuple[list[int], list[int]]:
    """Train and held-out ids, each in ``ids`` order; floor(fraction * n), at least 1, held out.

    Callers pass a valid :class:`SplitSpec` (n >= 2, 0 < fraction < 1), so at
    most n - 1 ids are held out and neither side is empty.
    """
    n_hold = max(1, int(np.floor(fraction * len(ids))))
    hold_ids = {ids[i] for i in rng.permutation(len(ids))[:n_hold]}
    return [p for p in ids if p not in hold_ids], [p for p in ids if p in hold_ids]


# ---------------------------------------------------------------------------
# on-disk format: JSON manifest + little-endian float64 binary blobs
# ---------------------------------------------------------------------------


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _manifest_sha256(manifest: dict) -> str:
    """Hash of every manifest key but ``manifest_sha256`` itself, in canonical JSON."""
    return _sha256(json.dumps({k: v for k, v in manifest.items() if k != "manifest_sha256"}, sort_keys=True).encode())


def save_dataset(train: Dataset, holdout: Dataset, out_dir) -> None:
    """Write manifest.json, data.bin and groundtruth.bin; hashes in the manifest.

    data.bin stores each procedure once, in id order: its video's frames,
    its phases' narrations, its key steps and its abstract, written in one
    block from the per-procedure arrays the two splits share, not from their
    levels (so a write into a gathered level is not saved).  The manifest
    holds the spec, the split, each procedure's step order and the hashes of
    both blobs and of itself.  ``train`` and ``holdout`` must be the two
    splits of one :func:`generate_dataset` or :func:`load_dataset` call.
    """
    spec = train.spec
    orders, *arrays = train.procedures
    if any(a is not b for a, b in zip(holdout.procedures, train.procedures)) or not np.array_equal(
            np.sort(np.concatenate([train.rows, holdout.rows])), np.arange(len(orders))):
        raise FieldValueError("holdout", "must be the other split of the dataset train was split from")
    records = np.concatenate([a.reshape(len(orders), -1) for a in arrays], axis=1, dtype="<f8")
    os.makedirs(out_dir, exist_ok=True)
    write_file(os.path.join(out_dir, "data.bin"), records)
    truth_blob = f8le(astuple(train.ground_truth))  # concepts, render_visual, render_text
    write_file(os.path.join(out_dir, "groundtruth.bin"), truth_blob)
    manifest = {
        "spec": asdict(spec),
        "seed": spec.seed,
        "train_procedures": train.procedure_ids,
        "holdout_procedures": holdout.procedure_ids,
        "step_orders": orders.tolist(),  # the arrays' rows are in id order
        "files": {"data.bin": _sha256(records), "groundtruth.bin": _sha256(truth_blob)},
    }
    manifest["manifest_sha256"] = _manifest_sha256(manifest)
    # last, so a save cut short leaves blobs that the old manifest's hashes refuse
    write_file(os.path.join(out_dir, "manifest.json"), json.dumps(manifest, sort_keys=True, indent=1) + "\n")


def _read_manifest(path: str) -> dict:
    """The manifest at ``path``, checked against its own hash."""
    manifest = read_json(path, CorruptFileError)
    if isinstance(manifest, dict) and "samples" in manifest:
        raise CorruptFileError(f"{path} lists per-sample records, the format before each procedure was stored "
                               "once; regenerate the dataset with `lecnce generate-data`")
    if not isinstance(manifest, dict) or manifest.get("manifest_sha256") != _manifest_sha256(manifest):
        raise CorruptFileError(f"{path} does not match its manifest_sha256; the manifest is corrupt")
    return manifest


def _read_blob(path: str, digest: str, rows: tuple[int, ...], shapes) -> list[np.ndarray]:
    """Read-only views of the float64 arrays of ``shapes`` in ``path``, each with leading dims ``rows``.

    The file stores the arrays of each leading index in turn; its size and
    sha256 must match ``rows``, ``shapes`` and ``digest``; its values must be finite.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    sizes = [math.prod(shape) for shape in shapes]
    if len(blob) != 8 * math.prod(rows) * sum(sizes):
        raise CorruptFileError(f"{path} has {len(blob)} bytes, the manifest implies {8 * math.prod(rows) * sum(sizes)}")
    if _sha256(blob) != digest:
        raise CorruptFileError(f"{path} hash mismatch; dataset directory is corrupt")
    values = np.frombuffer(blob, dtype="<f8")
    if not np.isfinite(values).all():
        raise CorruptFileError(f"{path} holds non-finite values; a dataset holds only finite ones")
    parts = np.split(values.reshape(*rows, -1), np.cumsum(sizes)[:-1], axis=-1)
    return [part.reshape(*rows, *shape) for part, shape in zip(parts, shapes)]


def load_dataset(in_dir) -> tuple[Dataset, Dataset]:
    """Inverse of :func:`save_dataset`.

    Raises :class:`CorruptFileError` when a file does not match its hash,
    the manifest does not describe a dataset, gives a ``spec`` field a value
    of the wrong type (checked as the config's ``data`` section is) or leaves
    a split empty, or a blob's size differs from the one its spec and step
    orders imply or the blob holds a non-finite value.
    """
    path = os.path.join(in_dir, "manifest.json")
    manifest = _read_manifest(path)
    try:
        given = dict(manifest["spec"])
        for name, hint in typing.get_type_hints(ProcedureSpec).items():
            if name in given and not is_a(given[name], hint):
                raise CorruptFileError(f"{path} spec.{name} must be of type {hint.__name__}, got {given[name]!r}")
        spec = ProcedureSpec(**given)
        train_ids, hold_ids = manifest["train_procedures"], manifest["holdout_procedures"]
        ids = sorted(train_ids + hold_ids)
        orders = np.array(manifest["step_orders"])
        digests = [manifest["files"][name] for name in ("groundtruth.bin", "data.bin")]
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptFileError(f"{path} does not describe a dataset ({type(exc).__name__}: {exc})") from None
    if not (all(type(i) is int for i in ids) and ids == sorted(set(ids))
            and orders.dtype.kind == "i" and orders.shape == (len(ids), spec.steps_per_procedure)
            and 0 <= orders.min() and orders.max() < spec.step_library_size):
        raise CorruptFileError(f"{path} lists procedure ids or step orders that do not fit its spec")
    if not (train_ids and hold_ids):
        raise CorruptFileError(f"{path} lists no {'train' if not train_ids else 'holdout'} procedures")
    d = spec.latent_dim
    truth_shapes = [(spec.step_library_size, d), (d, spec.visual_dim), (d, spec.text_dim)]
    truth_arrays = _read_blob(os.path.join(in_dir, "groundtruth.bin"), digests[0], (), truth_shapes)
    truth = GroundTruth(*(a.copy() for a in truth_arrays))
    arrays = _read_blob(os.path.join(in_dir, "data.bin"), digests[1], (len(ids),), _procedure_shapes(spec))
    return tuple(_from_procedures(spec, truth, ids, keep, orders, *arrays) for keep in (train_ids, hold_ids))
