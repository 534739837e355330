"""The benchmark's workloads: pinned configs, seed sets and alignment micro-grid.

Each workload pins every config value it depends on instead of relying on
the CLI defaults, so a later change of defaults cannot silently change what
the benchmark measures.  A round runs ``generate-data -> train -> eval``
once per pipeline; the pipelines of a round use different data and
training seeds, all derived from the run's ``--seed``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    pipelines: int  # pipelines per round, each with its own data and train seed

    @property
    def data(self) -> dict:
        return self.config["data"]

    @property
    def train(self) -> dict:
        return self.config["train"]

    def seeds(self, run_seed: int) -> list[tuple[int, int]]:
        """(data seed, train seed) of each pipeline of a round."""
        base = 100 * run_seed
        return [(base + k, base + 50 + k) for k in range(self.pipelines)]


def _config(data: dict, train: dict) -> dict:
    return {"data": dict(data), "train": dict(train)}


# the documented desk-scale defaults, written out
DESK_DATA = {
    "step_library_size": 12,
    "steps_per_procedure": 6,
    "frames_per_step": 8,
    "n_procedures": 40,
    "holdout_fraction": 0.2,
}
DESK_TRAIN = {
    "schedule": [5, 3, 3],
    "batch_sizes": [16, 8, 4],
    "frames": [4, 16, 64],
    "epochs": 30,
    "learning_rate": 1e-3,
    "dtw_algorithm": "greedy",
}

# the reference shape; the reference learning rate 5e-5 leaves the encoders
# at chance after one epoch, so the default 1e-3 is kept
REF_DATA = {
    "step_library_size": 24,
    "steps_per_procedure": 6,
    "frames_per_step": 32,
    "n_procedures": 200,
    "holdout_fraction": 0.2,
}
REF_TRAIN = {
    "schedule": [25, 15, 115],
    "batch_sizes": [120, 80, 25],
    "frames": [4, 16, 64],
    "epochs": 1,
    "learning_rate": 1e-3,
    "dtw_algorithm": "dp",
}

WORKLOADS = {
    # desk pipelines are short, so a round runs four of them to make set-up
    # and eval intervals long enough to repeat
    "desk": Workload("desk", _config(DESK_DATA, DESK_TRAIN), pipelines=4),
    # after one epoch zero-shot accuracy and R@1 differ by about 10 % between
    # seeds, so a round averages three pipelines
    "ref_dp": Workload("ref_dp", _config(REF_DATA, REF_TRAIN), pipelines=3),
}

def alignment_shapes(workload: Workload) -> list[tuple[int, int, int]]:
    """(batch, frames, texts) of the cost matrices a phase and a video step align.

    A phase sample has ``frames_per_step`` frames and one narration per clip
    of ``CLIP_LEN`` frames; a video sample has every step's frames and one
    key-step text per step.  A step keeps at most ``frames[level]`` frames.
    """
    from lecnce.datagen import CLIP_LEN

    data, train = workload.data, workload.train
    phase_t = data["frames_per_step"]
    video_t = phase_t * data["steps_per_procedure"]
    return [
        (train["batch_sizes"][1], min(train["frames"][1], phase_t), phase_t // CLIP_LEN),
        (train["batch_sizes"][2], min(train["frames"][2], video_t), data["steps_per_procedure"]),
    ]


def micro_grid() -> list[tuple[int, int, int]]:
    """The alignment micro-grid: the phase and video shapes of every workload."""
    return [shape for w in WORKLOADS.values() for shape in alignment_shapes(w)]


def tiny(workload: Workload) -> Workload:
    """A seconds-long variant of a workload with the same algorithm, for tests."""
    data = dict(workload.data, n_procedures=10)
    train = dict(workload.train, epochs=min(workload.train["epochs"], 3))
    if workload.train["epochs"] == 1:
        train["schedule"] = [25, 3, 5]
        train["batch_sizes"] = [16, 8, 2]
    return Workload(workload.name, _config(data, train), pipelines=1)
