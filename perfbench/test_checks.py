"""Each output check passes on real outputs and fails on a planted wrong one.

Runs a tiny variant of each workload once per module, then plants one fault
per test.  Run from the checkout root::

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import json
import shutil
from types import SimpleNamespace

import numpy as np
import pytest

import run
from workloads import WORKLOADS, alignment_shapes, tiny
from yardstick import Yardstick

run.use_checkout_sources()

import checks  # noqa: E402  (needs the checkout's sources on the path)
from lecnce import alignment, datagen, trainer  # noqa: E402


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def outputs(request, tmp_path_factory):
    workload = tiny(WORKLOADS[request.param])
    work = tmp_path_factory.mktemp(request.param)
    config = work / "config.json"
    config.write_text(json.dumps(workload.config))
    ops = run.Ops()
    yardstick = Yardstick()
    with run.StepTimer(trainer, yardstick) as timer:
        rnd = run.run_round(workload, workload.seeds(3), config, work, ops, yardstick, timer)
    assert ops.attempted == 3 and not ops.failed
    data, run_dir, eval_dir, data_seed, train_seed = rnd["pipelines"][0]
    train, holdout = datagen.load_dataset(data)
    return SimpleNamespace(
        workload=workload, rnd=rnd, data=data, run_dir=run_dir, eval_dir=eval_dir,
        data_seed=data_seed, train_seed=train_seed, train=train, holdout=holdout,
        rows=checks.read_trainlog(run_dir / "trainlog.csv"),
        report=json.loads((eval_dir / "eval_report.json").read_text()),
        retrieval_size=json.loads((eval_dir / "resolved_config.json").read_text())["eval"]["retrieval_size"],
    )


def _eval_check(o, report=None, untrained=None):
    return checks.eval_report_matches(
        o.run_dir / "checkpoint_final.json", report or o.report, o.train, o.holdout, o.retrieval_size,
        untrained or checks.untrained_encoders(o.workload.train, o.train_seed),
    )


def test_every_check_passes_on_real_outputs(outputs):
    o = outputs
    outcomes, quality = checks.check_pipeline(
        o.workload, o.data, o.run_dir, o.eval_dir, o.data_seed, o.train_seed, o.retrieval_size
    )
    assert [name for name, error in outcomes if error is not None] == []
    assert len(outcomes) == 7
    assert all(v is not None for v in quality.values())
    assert quality["zeroshot_acc"] == o.report["accuracy"]


def test_alignment_shapes_follow_the_generated_data(outputs):
    """The micro-grid shapes are those of the phase and video samples a step aligns."""
    o = outputs
    frames = dict(zip(trainer.LEVELS, o.workload.train["frames"]))
    shapes = alignment_shapes(o.workload)
    for (b, t, n), level, batch in zip(shapes, ("phase", "video"), o.workload.train["batch_sizes"][1:]):
        sample = o.train.by_level(level)[0]
        assert b == batch
        assert trainer.subsample_frames(sample.frame_features, frames[level]).shape[0] == t
        assert len(sample.child_text_features) == n


def test_sample_counts_catch_a_dropped_sample(outputs):
    holdout = copy.copy(outputs.holdout)
    holdout.samples = dict(holdout.samples, clip=holdout.samples["clip"][:-1])
    with pytest.raises(checks.CheckFailed, match="clip samples"):
        checks.sample_counts(outputs.train, holdout, outputs.workload.data)


def test_sample_counts_catch_a_wrong_holdout_size(outputs):
    data = dict(outputs.workload.data, holdout_fraction=0.5)
    with pytest.raises(checks.CheckFailed, match="held-out procedures"):
        checks.sample_counts(outputs.train, outputs.holdout, data)


def test_regeneration_catches_an_altered_frame(outputs):
    train, _ = datagen.load_dataset(outputs.data)
    train.samples["phase"][0].frame_features[0, 0] += 1e-12
    with pytest.raises(checks.CheckFailed, match="phase sample 0"):
        checks.regenerated_equal(train, outputs.holdout, outputs.workload.data, outputs.data_seed)


def test_regeneration_catches_another_seed(outputs):
    with pytest.raises(checks.CheckFailed, match="spec"):
        checks.regenerated_equal(outputs.train, outputs.holdout, outputs.workload.data, outputs.data_seed + 1)


def test_step_counts_catch_a_dropped_step(outputs):
    rows = [r for r in outputs.rows if r["step"] != str(len(outputs.rows))]
    checks.step_counts(outputs.rows, outputs.workload.train)
    with pytest.raises(checks.CheckFailed, match="steps, expected"):
        checks.step_counts(rows, outputs.workload.train)


def test_step_counts_catch_a_non_finite_loss(outputs):
    rows = [dict(r) for r in outputs.rows]
    rows[1]["total"] = "nan"
    with pytest.raises(checks.CheckFailed, match="non-finite"):
        checks.step_counts(rows, outputs.workload.train)


def test_clip_loss_check_catches_a_rising_loss(outputs):
    clip = [r for r in outputs.rows if r["level"] == "clip"]
    with pytest.raises(checks.CheckFailed, match="not below"):
        checks.clip_loss_falls(clip[::-1])


def test_final_checkpoint_check_catches_changed_bytes(outputs, tmp_path):
    run_dir = tmp_path / "run"
    shutil.copytree(outputs.run_dir, run_dir)
    final = run_dir / "checkpoint_final.json"
    final.write_text(final.read_text().replace('"schedule_position":', '"schedule_position": '))
    with pytest.raises(checks.CheckFailed, match="differs"):
        checks.final_checkpoint_is_last(run_dir, outputs.workload.train["epochs"])


def test_eval_check_catches_a_changed_accuracy(outputs):
    _eval_check(outputs)
    report = copy.deepcopy(outputs.report)
    report["accuracy"] += 1e-9
    with pytest.raises(checks.CheckFailed, match="zero-shot accuracy"):
        _eval_check(outputs, report=report)


def test_eval_check_catches_a_changed_recall(outputs):
    report = copy.deepcopy(outputs.report)
    report["recall"]["t2i"]["1"] = 1.0 - report["recall"]["t2i"]["1"] / 2
    with pytest.raises(checks.CheckFailed, match="R@1"):
        _eval_check(outputs, report=report)


def test_eval_check_catches_encoders_no_better_than_untrained(outputs):
    trained = checks.read_encoders(outputs.run_dir / "checkpoint_final.json")
    with pytest.raises(checks.CheckFailed, match="does not beat the untrained"):
        _eval_check(outputs, untrained=trained)


def test_dtw_check_catches_an_altered_dp_cost(outputs, monkeypatch):
    original = alignment.dtw_dp
    monkeypatch.setattr(alignment, "dtw_dp", lambda c: alignment.AlignmentResult(cost=original(c).cost + 1e-9))
    with pytest.raises(checks.CheckFailed, match="reference DP"):
        checks.dtw_oracle(outputs.run_dir / "checkpoint_final.json", outputs.holdout)


def test_dtw_check_catches_greedy_below_dp(outputs, monkeypatch):
    dp = alignment.dtw_dp
    monkeypatch.setattr(alignment, "dtw_greedy", lambda c: alignment.AlignmentResult(cost=dp(c).cost - 1e-6))
    with pytest.raises(checks.CheckFailed, match="> dtw_greedy"):
        checks.dtw_oracle(outputs.run_dir / "checkpoint_final.json", outputs.holdout)


def test_reference_dp_matches_enumerated_paths():
    values = [[1.0, 4.0, 2.0], [3.0, 1.0, 5.0], [2.0, 2.0, 1.0]]
    # monotone paths from (1, 1) to (3, 3); the cheapest runs down the diagonal
    assert checks.reference_dp(np.asarray(values)) == 3.0


def test_rerun_check_catches_changed_outputs(outputs):
    ops = run.Ops()
    run.check_rerun(outputs.rnd, outputs.rnd, ops, traced=False)
    assert ops.attempted == 1 and not ops.failed
    changed = dict(outputs.rnd, digests=[dict(outputs.rnd["digests"][0], **{"checkpoint_final.json": "0"})])
    run.check_rerun(outputs.rnd, changed, ops, traced=True)
    assert ops.attempted == 2 and "checkpoint_final.json" in ops.failed[0]
