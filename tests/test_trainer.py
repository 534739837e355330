import copy
import dataclasses
import hashlib
import os
import sys
from unittest import mock

import numpy as np
import pytest
from helpers import (PerSampleBatcher, flat_grad, per_array_adamw_step, per_block_train_step, per_layer_backward,
                     perfbench_module)

from lecnce import encoders, trainer
from lecnce.datagen import LEVELS, Level, ProcedureSpec, generate_dataset
from lecnce.errors import FieldValueError, MissingLevelDataError, NonFiniteError
from lecnce.losses import LossConfig
from lecnce.numerics import make_rng
from lecnce.trainer import (
    CSV_COLUMNS,
    StepRecord,
    TrainConfig,
    TrainLog,
    _Batcher,
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


def kept_frames(rows: Level, cfg: TrainConfig) -> Level:
    """``rows`` as a training batch: only the frames ``cfg.frames`` keeps of each sample, and no labels."""
    index = subsample_frames(np.arange(rows.frames.shape[1]), dict(zip(LEVELS, cfg.frames))[rows.name])
    return Level(rows.name, rows.frames[:, index], rows.parents, rows.children, None, rows.procedure_ids)


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
        with pytest.raises(FieldValueError, match="schedule has zero batches at every level"):
            tiny_config(schedule=(0, 0, 0))

    def test_small_batch_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(batch_sizes=(1, 3, 2))

    @pytest.mark.parametrize(
        "name, value", [("batch_sizes", (16, 8)), ("frames", (4, 16)), ("batch_sizes", (16, 8, 4, 2)), ("frames", (4, 16, 64, 8))]
    )
    def test_one_entry_per_level(self, name, value):
        """A short list used to fail in train_run on a missing level, and a long one lost its extra entry."""
        with pytest.raises(FieldValueError, match=f"^{name} must have one entry per level") as info:
            TrainConfig(**{name: value})
        assert info.value.field == name


class TestTrainConfigLayers:
    def test_joint_dims_must_match(self):
        """Different joint dims used to pass here and fail in the first clip step with numpy's matmul error."""
        with pytest.raises(FieldValueError) as info:
            tiny_config(visual_layers=(12, 8), text_layers=(9, 6))
        assert info.value.field == "text_layers"
        assert str(info.value) == "text_layers must end in the joint dim of visual_layers, 8, got 6"


class TestTrainConfigFinite:
    @pytest.mark.parametrize("name", ["learning_rate", "weight_decay"])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_field_rejected(self, name, bad):
        with pytest.raises(FieldValueError, match=f"^{name} must be finite") as info:
            tiny_config(**{name: bad})
        assert info.value.field == name


class TestSubsampleFrames:
    def test_cap_by_length(self):
        frames = np.arange(12, dtype=float).reshape(6, 2)
        np.testing.assert_array_equal(subsample_frames(frames, 10), frames)

    def test_uniform_spacing(self):
        frames = np.arange(30, dtype=float)[:, None]
        out = subsample_frames(frames, 4)
        np.testing.assert_array_equal(out.ravel(), [0, 9, 19, 29])

    @pytest.mark.parametrize("n", [0, -2])
    def test_n_below_one_named(self, n):
        with pytest.raises(FieldValueError, match=f"n must be >= 1, got {n}") as info:
            subsample_frames(np.arange(30, dtype=float)[:, None], n)
        assert info.value.field == "n"


class TestTrainStep:
    def test_lr_zero_keeps_loss_identical(self):
        train, _ = tiny_dataset()
        cfg = tiny_config(learning_rate=0.0, weight_decay=0.0)
        batch = train.samples["clip"][:4]
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
        rec = train_step("clip", train.samples["clip"][:4], state, cfg, make_rng(1))
        assert abs(rec.total - (rec.components["vl"] + rec.components["vv"])) < 1e-12

    def test_hier_components_sum(self):
        train, _ = tiny_dataset()
        cfg = tiny_config()
        state = init_trainer(cfg, make_rng(cfg.seed))
        rec = train_step("video", train.samples["video"][:2], state, cfg, make_rng(1))
        lam = cfg.loss.lambda_dtw
        assert abs(rec.total - (rec.components["infonce"] + lam * rec.components["dtw"])) < 1e-12

    def test_level_mismatch_rejected(self):
        train, _ = tiny_dataset()
        cfg = tiny_config()
        state = init_trainer(cfg, make_rng(cfg.seed))
        with pytest.raises(ValueError):
            train_step("phase", train.samples["clip"][:3], state, cfg, make_rng(1))

    def test_every_level_updates_the_same_parameter_set(self):
        train, _ = tiny_dataset()
        cfg = tiny_config()
        state = init_trainer(cfg, make_rng(cfg.seed))
        rng = make_rng(5)
        for level, batch_size in zip(("clip", "phase", "video"), cfg.batch_sizes):
            before_v = [w.copy() for w, _ in state.visual.layers]
            before_t = [w.copy() for w, _ in state.text.layers]
            train_step(level, train.samples[level][:batch_size], state, cfg, rng)
            assert any(not np.array_equal(a, w) for a, (w, _) in zip(before_v, state.visual.layers))
            assert any(not np.array_equal(a, w) for a, (w, _) in zip(before_t, state.text.layers))
        # one optimizer per encoder counted every level's update
        assert state.visual_opt.step_count == 3
        assert state.text_opt.step_count == 3

    def test_non_finite_loss_stops_before_the_update(self):
        train, _ = tiny_dataset()
        cfg = tiny_config()
        state = init_trainer(cfg, make_rng(cfg.seed))
        before = (state.visual.vector.copy(), state.text.vector.copy())
        real = trainer._clip_lecnce

        def nan_loss(*args):
            return dataclasses.replace(real(*args), value=float("nan"))

        with mock.patch.object(trainer, "_clip_lecnce", side_effect=nan_loss), \
                pytest.raises(NonFiniteError, match="non-finite loss at step 7 level clip"):
            train_step("clip", train.samples["clip"][:4], state, cfg, make_rng(1), 7)
        assert np.array_equal(state.visual.vector, before[0]) and np.array_equal(state.text.vector, before[1])
        assert state.visual_opt.step_count == state.text_opt.step_count == 0

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("call", [0, 1], ids=["visual", "text"])
    @pytest.mark.parametrize("level, algorithm", [("clip", "greedy"), ("phase", "greedy"), ("video", "dp")])
    def test_non_finite_encoder_output_stops_before_the_update(self, level, algorithm, call, value):
        # the step's losses do not re-check the encoders' outputs; a non-finite
        # one still ends the step in NonFiniteError, before any update
        train, _ = tiny_dataset()
        cfg = tiny_config(dtw_algorithm=algorithm)
        state = init_trainer(cfg, make_rng(cfg.seed))
        before = (state.visual.vector.copy(), state.text.vector.copy())
        real, calls = encoders.forward, []

        def spoiled_forward(*args, **kwargs):
            out, cache = real(*args, **kwargs)
            if len(calls) == call:
                out[-1, 0] = value
            calls.append(call)
            return out, cache

        batch = train.samples[level][:dict(zip(LEVELS, cfg.batch_sizes))[level]]
        with mock.patch.object(encoders, "forward", side_effect=spoiled_forward), \
                np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteError):
            train_step(level, batch, state, cfg, make_rng(1), 7)
        assert np.array_equal(state.visual.vector, before[0]) and np.array_equal(state.text.vector, before[1])


class TestTrainStepOracle:
    """One stacked encoder pass per step against the per-block loop it replaced.

    The weight gradients of the blocks are summed in another order, and a
    row of the stacked forward GEMM may differ from a per-block one in the
    last bit, so everything agrees to an absolute 1e-12.
    """

    @pytest.mark.parametrize(
        "level, algorithm, gathered",
        [
            ("clip", "greedy", False),
            ("phase", "greedy", False),
            ("video", "greedy", False),
            ("phase", "dp", False),
            ("video", "dp", False),
            ("phase", "greedy", True),
            ("video", "dp", True),
        ],
    )
    def test_matches_per_block_step(self, level, algorithm, gathered):
        train, _ = tiny_dataset()
        cfg = tiny_config(dtw_algorithm=algorithm, loss=LossConfig(lambda_dtw=0.5))
        batch_size = dict(zip(("clip", "phase", "video"), cfg.batch_sizes))[level]
        # a leading slice, or rows gathered out of order as a wrapping batcher
        # yields them (a three-row batch repeats one), with the frames the batcher keeps
        rows = np.array([4, 2, 4, 0][:batch_size]) if gathered else np.arange(batch_size)
        batch = kept_frames(train.samples[level][rows], cfg)
        samples = [train.samples[level][int(k)] for k in rows]
        state = init_trainer(cfg, make_rng(cfg.seed))
        oracle_state = copy.deepcopy(state)
        rng, oracle_rng = make_rng(9), make_rng(9)
        # a second step starts from moved weights and non-zero optimizer moments
        for step in (1, 2):
            rec = train_step(level, batch, state, cfg, rng, step)
            want = per_block_train_step(level, samples, oracle_state, cfg, oracle_rng, step)
            assert abs(rec.total - want.value) <= 1e-12
            assert rec.components.keys() == want.components.keys()
            for name, value in want.components.items():
                assert abs(rec.components[name] - value) <= 1e-12
            for got, ref in ((state.visual, oracle_state.visual), (state.text, oracle_state.text)):
                np.testing.assert_allclose(got.vector, ref.vector, rtol=0, atol=1e-12)
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
        train_step(level, train.samples[level][:batch_size], state, cfg, make_rng(1))
        for name in ("forward", "backward"):
            assert [p for n, p in calls if n == name and p is visual] == [visual]
            assert [p for n, p in calls if n == name and p is text] == [text]
        assert len(calls) == 4


class TestFlatUpdateOracle:
    """A training with the flat backward and fused AdamW equals one driven through their per-layer oracles."""

    @pytest.mark.parametrize("algorithm", ["greedy", "dp"])
    def test_train_run_equals_the_oracle_driven_run(self, algorithm, monkeypatch):
        train, _ = tiny_dataset()
        cfg = tiny_config(dtw_algorithm=algorithm, visual_layers=(12, 8, 6),
                          loss=LossConfig(lambda_dtw=0.5, phi=0.5))
        state, log = train_run(cfg, train)

        def oracle_backward(params, cache, grad_out):
            return flat_grad(per_layer_backward(params, cache, grad_out)[0])

        def oracle_adamw(params, grad, opt):
            return per_array_adamw_step(params, params.split(grad), opt)

        monkeypatch.setattr(encoders, "backward", oracle_backward)
        monkeypatch.setattr(encoders, "adamw_step", oracle_adamw)
        want, want_log = train_run(cfg, train)
        assert [(r.total, r.components) for r in log.records] == [(r.total, r.components) for r in want_log.records]
        for name in ("visual", "text"):
            np.testing.assert_array_equal(getattr(state, name).vector, getattr(want, name).vector)
            got_opt, want_opt = getattr(state, f"{name}_opt"), getattr(want, f"{name}_opt")
            assert got_opt.step_count == want_opt.step_count == len(log.records)
            np.testing.assert_array_equal(got_opt.first_moment, want_opt.first_moment)
            np.testing.assert_array_equal(got_opt.second_moment, want_opt.second_moment)


class TestGeneratorUse:
    """A step draws nothing per sample: the clip views come from one block of each kind."""

    @pytest.mark.parametrize("level", ["phase", "video"])
    def test_hierarchical_step_draws_nothing(self, level):
        train, _ = tiny_dataset()
        cfg = tiny_config()
        state = init_trainer(cfg, make_rng(cfg.seed))
        rng = make_rng(11)
        before = copy.deepcopy(rng.bit_generator.state)
        batch_size = dict(zip(("clip", "phase", "video"), cfg.batch_sizes))[level]
        train_step(level, train.samples[level][:batch_size], state, cfg, rng)
        assert rng.bit_generator.state == before

    def test_clip_step_draws_one_normal_and_one_uniform_block(self):
        train, _ = tiny_dataset()
        cfg = tiny_config()
        state = init_trainer(cfg, make_rng(cfg.seed))
        batch = kept_frames(train.samples["clip"][: cfg.batch_sizes[0]], cfg)
        rng = make_rng(11)
        expected = copy.deepcopy(rng)
        train_step("clip", batch, state, cfg, rng)
        shape = (2 * len(batch), *batch.frames.shape[1:])
        expected.normal(size=shape)
        expected.random(shape)
        assert rng.bit_generator.state == expected.bit_generator.state


class TestBatcher:
    @pytest.mark.parametrize("level, n", [("clip", 6), ("phase", 7), ("video", 2), ("video", 12)])
    def test_yields_the_rows_of_the_per_sample_batcher(self, level, n):
        """Equal rows, kept frames and draws, across wrap-around and batches larger than the level."""
        train, _ = tiny_dataset()
        n_frames = dict(zip(("clip", "phase", "video"), tiny_config().frames))[level]
        batcher = _Batcher(train.samples[level], make_rng(7), n_frames)
        oracle = PerSampleBatcher(train.by_level(level), make_rng(7))
        for _ in range(5):
            batch, want = batcher.next_batch(n), oracle.next_batch(n)
            assert batch.name == level and len(batch) == n and batch.labels is None
            for k, sample in enumerate(want):
                assert batch.procedure_ids[k] == sample.procedure_id
                np.testing.assert_array_equal(batch.frames[k], subsample_frames(sample.frame_features, n_frames))
                np.testing.assert_array_equal(batch.parents[k], sample.parent_text_feature)
                np.testing.assert_array_equal(batch.children[k], sample.child_text_features)
            assert batcher.rng.bit_generator.state == oracle.rng.bit_generator.state


class TestTrainLog:
    def test_rejects_non_increasing_steps(self):
        log = TrainLog()
        log.append(StepRecord(1, "clip", 1.0, {}, 0.0))
        with pytest.raises(FieldValueError, match="global_step must be strictly increasing"):
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


def package_calls(fn) -> int:
    """The Python calls into ``src/lecnce/`` that ``fn()`` makes, counted through ``sys.setprofile``."""
    package = os.path.dirname(trainer.__file__)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and os.path.dirname(frame.f_code.co_filename) == package:
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls


def steady_step_calls(cfg: TrainConfig) -> dict[str, int]:
    """:func:`package_calls` of one train_step per level, each after a first step of its level."""
    train, _ = tiny_dataset()
    rng = make_rng(cfg.seed)
    state = init_trainer(cfg, rng)
    counts = {}
    for level, batch_size, n_frames in zip(LEVELS, cfg.batch_sizes, cfg.frames):
        batcher = _Batcher(train.samples[level], rng, n_frames)
        train_step(level, batcher.next_batch(batch_size), state, cfg, rng, 1)  # fills the cached plans
        batch = batcher.next_batch(batch_size)
        counts[level] = package_calls(lambda: train_step(level, batch, state, cfg, rng, 2))
    return counts


class TestStepCallBudget:
    """A tripwire for the validate-once hot path, free of timing noise: the package calls a training step makes.

    A value is checked where it enters; ``adamw_step``, the losses and
    ``train_step`` do not re-check what was checked at construction or built
    from checked inputs: the step calls the unchecked ``_clip_lecnce`` and
    ``_hier_lecnce`` on its encoders' outputs.  A check that comes back on
    the step's path adds calls here.  The bounds are the counts of the
    current code; re-checking the optimizer state, the pooled frames and the
    cost stack made 72 clip and 82 (greedy) or 86 (DP) phase and video
    calls, and re-checking the encoder outputs in the public losses 4 more
    at each level.  A DP phase or video step also asks ``_hinges_idle`` and
    ``_path_bounds`` whether it may skip the alignment; on this tiny batch
    they say no.  Every encoder forward and backward and every segment
    pooling takes its row dots through one ``numerics._row_dots`` call, 6 a
    step at each level; they check nothing.
    """

    BUDGET = {"greedy": {"clip": 33, "phase": 37, "video": 37}, "dp": {"clip": 33, "phase": 41, "video": 41}}

    @pytest.mark.parametrize("algorithm", ["greedy", "dp"])
    def test_steady_state_steps_stay_within_budget(self, algorithm):
        counts = steady_step_calls(tiny_config(dtw_algorithm=algorithm))
        assert steady_step_calls(tiny_config(dtw_algorithm=algorithm)) == counts  # deterministic
        budget = self.BUDGET[algorithm]
        over = {level: (n, budget[level]) for level, n in counts.items() if n > budget[level]}
        assert not over, f"package calls per step above budget (calls, budget): {over}"


class TestTrainRun:
    def test_missing_level(self):
        train, _ = tiny_dataset()
        cfg = tiny_config()
        train.samples["video"] = train.samples["video"][:0]
        with pytest.raises(MissingLevelDataError):
            train_run(cfg, train)

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
        with mock.patch.object(encoders, "save_checkpoint", wraps=encoders.save_checkpoint) as save:
            state, log = train_run(cfg, train, out_dir=tmp_path)
        assert (tmp_path / "trainlog.csv").exists()
        # one encoding per epoch; the final checkpoint is the last one's bytes
        assert save.call_count == cfg.epochs
        last = tmp_path / f"checkpoint_{cfg.epochs:04d}.json"
        assert (tmp_path / "checkpoint_final.json").read_bytes() == last.read_bytes()
        assert len(log.records) == cfg.epochs * len(schedule_period(cfg))
        steps = [r.global_step for r in log.records]
        assert steps == sorted(steps) and len(set(steps)) == len(steps)
        assert all(np.isfinite(r.total) for r in log.records)

    def test_failed_final_copy_keeps_the_previous_final_checkpoint(self, tmp_path, monkeypatch):
        train, _ = tiny_dataset()
        train_run(tiny_config(), train, out_dir=tmp_path)
        before = (tmp_path / "checkpoint_final.json").read_bytes()
        replace = os.replace

        def fail_on_final(src, dst):
            if str(dst).endswith("checkpoint_final.json"):
                raise OSError("no space left on device")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", fail_on_final)
        with pytest.raises(OSError, match="no space left"):
            train_run(tiny_config(seed=9), train, out_dir=tmp_path)
        monkeypatch.undo()
        last = (tmp_path / f"checkpoint_{tiny_config().epochs:04d}.json").read_bytes()
        assert (tmp_path / "checkpoint_final.json").read_bytes() == before != last
        assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]

    def test_final_checkpoint_holds_the_exact_state(self, tmp_path):
        train, _ = tiny_dataset()
        cfg = tiny_config(visual_layers=(12, 8, 6))
        state, _ = train_run(cfg, train, out_dir=tmp_path)
        final = tmp_path / "checkpoint_final.json"
        loaded = encoders.load_checkpoint(final)
        encoders.save_checkpoint(tmp_path / "resaved.json", *loaded.values())  # load returns the save arguments in order
        assert (tmp_path / "resaved.json").read_bytes() == final.read_bytes()
        for params, opt, key in ((state.visual, state.visual_opt, "visual"), (state.text, state.text_opt, "text")):
            for got, want in zip(loaded[key].layers, params.layers, strict=True):
                assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
            assert loaded[key].vector.tobytes() == params.vector.tobytes()
            back = loaded[f"{key}_optimizer"]
            for name in ("first_moment", "second_moment"):
                assert getattr(back, name).shape == getattr(opt, name).shape == params.vector.shape
                assert getattr(back, name).tobytes() == getattr(opt, name).tobytes()
            assert back.step_count == opt.step_count == cfg.epochs * len(schedule_period(cfg))

    def test_benchmark_reader_agrees_with_load_checkpoint(self, tmp_path):
        checks = perfbench_module("checks")  # it parses checkpoints apart from the program
        train, _ = tiny_dataset()
        train_run(tiny_config(visual_layers=(12, 8, 6)), train, out_dir=tmp_path)
        path = tmp_path / "checkpoint_final.json"
        loaded = encoders.load_checkpoint(path)
        for (layers, activation), key in zip(checks.read_encoders(path), ("visual", "text"), strict=True):
            assert activation == loaded[key].activation
            for (w, b), (w_ref, b_ref) in zip(layers, loaded[key].layers, strict=True):
                assert w.shape == w_ref.shape and b.shape == b_ref.shape
                assert np.all(w == w_ref) and np.all(b == b_ref)

    def test_reference_shaped_dp_run_keeps_its_bytes(self, tmp_path):
        """A one-epoch DP run at the reference data shape writes the checkpoint and log pinned below.

        The batcher keeps 16 of 32 phase frames and 64 of 192 video frames,
        and the clip batches wrap around the level.  The pins are the sha256
        of ``checkpoint_final.json``, of ``trainlog.csv`` without its
        ``wall_ms`` column and of the loaded parameter and moment vectors'
        float64 bytes (numpy 2.4 on OpenBLAS; another BLAS may round
        differently).  They hold since the encoders took their row norms and
        radial terms through ``numerics._row_dots``, which moved the run's
        weights in their last bits (by at most 5.6e-17); the digests before
        that were
        a874c684d014ed81879e8d99f5528c27cdbf06a9f00165f9015bf0e72f38a280,
        e0dac16961e20da92b5298eb14c04d3710ca44cc5d9c9bea52f35452ed64a740 and
        6965afaa5e3ac51d8145fb9386fdcb5c7e08182aa29de19a371bf20b26d04a59.
        """
        spec = ProcedureSpec(step_library_size=24, steps_per_procedure=6, frames_per_step=32, seed=4)
        train, _ = generate_dataset(spec, 10)
        assert [train.samples[level].frames.shape[1] for level in LEVELS] == [4, 32, 192]
        cfg = TrainConfig(schedule=(25, 3, 5), batch_sizes=(16, 8, 2), epochs=1, dtw_algorithm="dp", seed=6)
        train_run(cfg, train, out_dir=tmp_path)
        log = (tmp_path / "trainlog.csv").read_text(encoding="utf-8").splitlines()
        timeless = "".join(line.rsplit(",", 1)[0] + "\n" for line in log).encode()
        assert log[0].endswith(",wall_ms") and len(log) == 1 + 25 + 3 + 5
        checkpoint = (tmp_path / "checkpoint_final.json").read_bytes()
        digests = [hashlib.sha256(data).hexdigest() for data in (checkpoint, timeless)]
        loaded = encoders.load_checkpoint(tmp_path / "checkpoint_final.json")
        vectors = [loaded["visual"].vector, loaded["text"].vector] + [
            getattr(loaded[key], name) for key in ("visual_optimizer", "text_optimizer")
            for name in ("first_moment", "second_moment")]
        digests.append(hashlib.sha256(b"".join(v.astype("<f8").tobytes() for v in vectors)).hexdigest())
        assert digests == ["9ac18f9bdd21585aba6b59fd29fe3cdd085d730d615e5a4a45d562a2d5e90d86",
                           "1753a4d692587f323cb2fe4ec7dc4c68a07e65e8192117f6d35e30cc5d077e94",
                           "23ff2cc3abb3020117713513a746e33d304246a8c3e4dfc8b14c3cd51287b84a"]

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

