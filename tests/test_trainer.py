import copy

import numpy as np
import pytest
from helpers import per_block_train_step

from lecnce import encoders
from lecnce.datagen import HierarchicalSample, ProcedureSpec, generate_dataset
from lecnce.errors import AllZeroScheduleError, MissingLevelDataError, NonFiniteLossError
from lecnce.losses import LossConfig
from lecnce.numerics import make_rng
from lecnce.trainer import (
    CSV_COLUMNS,
    StepRecord,
    TrainConfig,
    TrainLog,
    init_trainer,
    schedule_period,
    subsample_frames,
    train_run,
    train_step,
)


def tiny_dataset(seed=0, n_procedures=6):
    spec = ProcedureSpec(
        step_library_size=8,
        latent_dim=10,
        visual_dim=12,
        text_dim=9,
        steps_per_procedure=4,
        frames_per_step=4,
        noise_sigma=0.1,
        seed=seed,
    )
    return generate_dataset(spec, n_procedures)


def tiny_config(**overrides):
    base = dict(
        loss=LossConfig(),
        schedule=(2, 1, 1),
        batch_sizes=(4, 3, 2),
        frames=(2, 4, 16),
        epochs=2,
        learning_rate=1e-3,
        seed=3,
        visual_layers=(12, 6),
        text_layers=(9, 6),
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestSchedule:
    def test_reference_pattern(self):
        cfg = tiny_config(schedule=(25, 15, 115))
        seq = schedule_period(cfg)
        assert len(seq) == 155
        assert seq[:25] == ["clip"] * 25
        assert seq[25:40] == ["phase"] * 15
        assert seq[40:155] == ["video"] * 115

    def test_all_clip(self):
        cfg = tiny_config(schedule=(1, 0, 0))
        assert schedule_period(cfg) == ["clip"]

    def test_period_length(self):
        cfg = tiny_config(schedule=(3, 2, 4))
        assert len(schedule_period(cfg)) == 9

    def test_all_zero_rejected(self):
        with pytest.raises(AllZeroScheduleError):
            tiny_config(schedule=(0, 0, 0))

    def test_small_batch_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(batch_sizes=(1, 3, 2))


class TestSubsampleFrames:
    def test_cap_by_length(self):
        frames = np.arange(12, dtype=float).reshape(6, 2)
        np.testing.assert_array_equal(subsample_frames(frames, 10), frames)

    def test_uniform_spacing(self):
        frames = np.arange(30, dtype=float)[:, None]
        out = subsample_frames(frames, 4)
        np.testing.assert_array_equal(out.ravel(), [0, 9, 19, 29])


class TestTrainStep:
    def test_lr_zero_keeps_loss_identical(self):
        train, _ = tiny_dataset()
        cfg = tiny_config(learning_rate=0.0, weight_decay=0.0)
        batch = train.by_level("clip")[:4]
        records = []
        for _ in range(2):
            rng = make_rng(42)
            state = init_trainer(cfg, make_rng(cfg.seed))
            records.append(train_step("clip", batch, state, cfg, rng).total)
        assert records[0] == records[1]

    def test_clip_components_sum(self):
        train, _ = tiny_dataset()
        cfg = tiny_config()
        state = init_trainer(cfg, make_rng(cfg.seed))
        rec = train_step("clip", train.by_level("clip")[:4], state, cfg, make_rng(1))
        assert abs(rec.total - (rec.components["vl"] + rec.components["vv"])) < 1e-12

    def test_hier_components_sum(self):
        train, _ = tiny_dataset()
        cfg = tiny_config()
        state = init_trainer(cfg, make_rng(cfg.seed))
        rec = train_step("video", train.by_level("video")[:2], state, cfg, make_rng(1))
        lam = cfg.loss.lambda_dtw
        assert abs(rec.total - (rec.components["infonce"] + lam * rec.components["dtw"])) < 1e-12

    def test_level_mismatch_rejected(self):
        train, _ = tiny_dataset()
        cfg = tiny_config()
        state = init_trainer(cfg, make_rng(cfg.seed))
        with pytest.raises(ValueError):
            train_step("phase", train.by_level("clip")[:3], state, cfg, make_rng(1))

    def test_every_level_updates_the_same_parameter_set(self):
        train, _ = tiny_dataset()
        cfg = tiny_config()
        state = init_trainer(cfg, make_rng(cfg.seed))
        rng = make_rng(5)
        for level, batch_size in zip(("clip", "phase", "video"), cfg.batch_sizes):
            before_v = [w.copy() for w, _ in state.visual.layers]
            before_t = [w.copy() for w, _ in state.text.layers]
            train_step(level, train.by_level(level)[:batch_size], state, cfg, rng)
            assert any(not np.array_equal(a, w) for a, (w, _) in zip(before_v, state.visual.layers))
            assert any(not np.array_equal(a, w) for a, (w, _) in zip(before_t, state.text.layers))
        # one optimizer per encoder counted every level's update
        assert state.visual_opt.step_count == 3
        assert state.text_opt.step_count == 3


def ragged_batch(level, cfg, seed=0):
    """Hand-built samples whose frame and child counts differ within the batch."""
    rng = make_rng(seed)
    frame_counts, child_counts = [1, 3, 6, 2], [2, 1, 4, 3]
    return [
        HierarchicalSample(
            level=level,
            frame_features=rng.normal(size=(t, cfg.visual_layers[0])),
            parent_text_feature=rng.normal(size=cfg.text_layers[0]),
            child_text_features=rng.normal(size=(n if level != "clip" else 0, cfg.text_layers[0])),
            step_labels=[0] * t,
            procedure_id=k,
        )
        for k, (t, n) in enumerate(zip(frame_counts, child_counts))
    ]


class TestTrainStepOracle:
    """One stacked encoder pass per step against the per-block loop it replaced.

    The weight gradients of the blocks are summed in another order, and a
    row of the stacked forward GEMM may differ from a per-block one in the
    last bit, so everything agrees to an absolute 1e-12.
    """

    @pytest.mark.parametrize(
        "level, algorithm, ragged",
        [
            ("clip", "greedy", False),
            ("phase", "greedy", False),
            ("video", "greedy", False),
            ("phase", "dp", False),
            ("video", "dp", False),
            ("clip", "greedy", True),
            ("phase", "dp", True),
        ],
    )
    def test_matches_per_block_step(self, level, algorithm, ragged):
        train, _ = tiny_dataset()
        cfg = tiny_config(dtw_algorithm=algorithm, loss=LossConfig(lambda_dtw=0.5))
        batch_size = dict(zip(("clip", "phase", "video"), cfg.batch_sizes))[level]
        batch = ragged_batch(level, cfg) if ragged else train.by_level(level)[:batch_size]
        state = init_trainer(cfg, make_rng(cfg.seed))
        oracle_state = copy.deepcopy(state)
        rng, oracle_rng = make_rng(9), make_rng(9)
        # a second step starts from moved weights and non-zero optimizer moments
        for step in (1, 2):
            rec = train_step(level, batch, state, cfg, rng, step)
            want = per_block_train_step(level, batch, oracle_state, cfg, oracle_rng, step)
            assert abs(rec.total - want.value) <= 1e-12
            assert rec.components.keys() == want.components.keys()
            for name, value in want.components.items():
                assert abs(rec.components[name] - value) <= 1e-12
            for got, ref in ((state.visual, oracle_state.visual), (state.text, oracle_state.text)):
                for p, q in zip(got.flat(), ref.flat()):
                    np.testing.assert_allclose(p, q, rtol=0, atol=1e-12)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("level", ["clip", "phase", "video"])
    def test_one_encoder_pass_per_step(self, level, monkeypatch):
        train, _ = tiny_dataset()
        cfg = tiny_config()
        state = init_trainer(cfg, make_rng(cfg.seed))
        calls = []

        def counted(name, fn):
            def wrapper(params, *args, **kwargs):
                calls.append((name, params))
                return fn(params, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(encoders, "forward", counted("forward", encoders.forward))
        monkeypatch.setattr(encoders, "backward", counted("backward", encoders.backward))
        batch_size = dict(zip(("clip", "phase", "video"), cfg.batch_sizes))[level]
        visual, text = state.visual, state.text
        train_step(level, train.by_level(level)[:batch_size], state, cfg, make_rng(1))
        for name in ("forward", "backward"):
            assert [p for n, p in calls if n == name and p is visual] == [visual]
            assert [p for n, p in calls if n == name and p is text] == [text]
        assert len(calls) == 4


class TestTrainLog:
    def test_rejects_nonfinite(self):
        log = TrainLog()
        with pytest.raises(NonFiniteLossError, match="step 1 level clip"):
            log.append(StepRecord(1, "clip", float("nan"), {}, 0.0))

    def test_rejects_non_increasing_steps(self):
        log = TrainLog()
        log.append(StepRecord(1, "clip", 1.0, {}, 0.0))
        with pytest.raises(ValueError):
            log.append(StepRecord(1, "clip", 1.0, {}, 0.0))

    def test_csv_schema(self, tmp_path):
        log = TrainLog()
        log.append(StepRecord(1, "clip", 1.5, {"vl": 1.0, "vv": 0.5}, 2.0))
        log.append(StepRecord(2, "video", 0.7, {"infonce": 0.69, "dtw": 1.0}, 3.0))
        path = tmp_path / "log.csv"
        log.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert lines[1].startswith("1,clip,1.5,1.0,0.5,,,")
        assert lines[2].startswith("2,video,0.7,,,0.69,1.0,")


class TestTrainRun:
    def test_missing_level(self):
        train, _ = tiny_dataset()
        cfg = tiny_config()
        samples = dict(train.samples)
        samples["video"] = []
        with pytest.raises(MissingLevelDataError):
            train_run(cfg, samples)

    def test_deterministic_checkpoints(self, tmp_path):
        train, _ = tiny_dataset()
        cfg = tiny_config()
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        train_run(cfg, train, out_dir=out_a)
        train_run(cfg, train, out_dir=out_b)
        for name in ("checkpoint_final.json", "checkpoint_0001.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_run_writes_log_and_checkpoints(self, tmp_path):
        train, _ = tiny_dataset()
        cfg = tiny_config()
        state, log = train_run(cfg, train, out_dir=tmp_path)
        assert (tmp_path / "trainlog.csv").exists()
        assert (tmp_path / "checkpoint_final.json").exists()
        assert len(log.records) == cfg.epochs * len(schedule_period(cfg))
        steps = [r.global_step for r in log.records]
        assert steps == sorted(steps) and len(set(steps)) == len(steps)
        assert all(np.isfinite(r.total) for r in log.records)

    def test_clip_loss_decreases(self):
        train, _ = tiny_dataset(n_procedures=8)
        cfg = tiny_config(epochs=20, schedule=(3, 1, 1), batch_sizes=(6, 3, 2))
        _, log = train_run(cfg, train)
        clip = log.level_totals("clip")
        third = len(clip) // 3
        assert np.mean(clip[-third:]) < np.mean(clip[:third])

    def test_lambda_zero_matches_pure_contrast_records(self):
        train, _ = tiny_dataset()
        cfg = tiny_config(loss=LossConfig(lambda_dtw=0.0))
        _, log = train_run(cfg, train)
        for rec in log.records:
            if rec.level in ("phase", "video"):
                assert rec.total == rec.components["infonce"]

