import hashlib
import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from helpers import old_format_checkpoint, per_parameter_checkpoint
from hypothesis import strategies as st

from lecnce import cli, datagen, encoders
from lecnce.cli import load_config, resolve_seed, run
from lecnce.datagen import ProcedureSpec, SplitSpec, load_dataset
from lecnce.encoders import init_optimizer, init_params, save_checkpoint
from lecnce.errors import ConfigError, CorruptFileError, UnknownKeyError
from lecnce.evalkit import PROBE_TOL, EvalConfig
from lecnce.losses import LossConfig
from lecnce.numerics import make_rng
from lecnce.textaug import build_step_kb, expand_keystep
from lecnce.trainer import TrainConfig

# the defaults as they stood before the schema was derived from the dataclasses
PINNED_DEFAULTS = {
    "seed": None,
    "data": {
        "step_library_size": 12,
        "latent_dim": 16,
        "visual_dim": 32,
        "text_dim": 24,
        "steps_per_procedure": 6,
        "frames_per_step": 8,
        "noise_sigma": 0.1,
        "order_noise": 0.0,
        "n_procedures": 40,
        "holdout_fraction": 0.2,
    },
    "loss": {
        "temperature_infonce": 0.07,
        "beta": 0.1,
        "phi": 0.1,
        "lambda": 0.01,
    },
    "train": {
        "schedule": [5, 3, 3],
        "batch_sizes": [16, 8, 4],
        "frames": [4, 16, 64],
        "epochs": 30,
        "learning_rate": 1e-3,
        "weight_decay": 0.01,
        "dtw_algorithm": "greedy",
        "visual_layers": [32, 32],
        "text_layers": [24, 32],
    },
    "eval": {
        "recall_ks": [1, 5, 10],
        "retrieval_size": 32,
        "probe_weight_decay": 0.0005,
        "probe_epochs": 100,
        "shots": 100,
    },
}

# the eval report of TestEvalCommand's seeded checkpoint before the probe's objective went class-major,
# without probe.grad_norm, which that change moved in its last digits from PINNED_GRAD_NORM
PINNED_REPORT = {
    "accuracy": 0.25,
    "macro_f1": 0.16025641025641024,
    "modality_gap": 0.5331955301041501,
    "per_class_f1": [0.6153846153846154, 0.0, 0.0, 0.0, 0.0, 0.0, 0.6666666666666666, 0.0],
    "probe": {
        "accuracy": 0.9375,
        "iterations": 39,
        "macro_f1": 0.46825396825396826,
        "per_class_f1": [0.8888888888888888, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.8571428571428571],
    },
    "recall": {"i2t": {"1": 0.375, "5": 0.875}, "t2i": {"1": 0.375, "5": 0.875}},
}
PINNED_GRAD_NORM = 7.098338486264029e-05

HAND_TRACE = [[1.0, 5.0, 5.0], [2.0, 1.0, 5.0], [5.0, 2.0, 1.0]]


def save_untrained(path, visual, text):
    """A checkpoint of ``visual`` and ``text`` with the optimizer states of step 0 and seed 0."""
    save_checkpoint(path, visual, text, init_optimizer(visual), init_optimizer(text), seed=0)


@pytest.fixture()
def small_config(tmp_path):
    cfg = {
        "seed": 5,
        "data": {
            "step_library_size": 8,
            "latent_dim": 10,
            "visual_dim": 12,
            "text_dim": 9,
            "steps_per_procedure": 4,
            "frames_per_step": 8,
            "n_procedures": 8,
        },
        "train": {
            "epochs": 2,
            "schedule": [2, 1, 1],
            "batch_sizes": [4, 3, 2],
            "frames": [2, 4, 16],
            "visual_layers": [12, 6],
            "text_layers": [9, 6],
        },
        "eval": {"retrieval_size": 8, "recall_ks": [1, 5]},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestLoadConfig:
    def test_empty_object_gives_defaults(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{}")
        config = load_config(str(path))
        assert config == PINNED_DEFAULTS
        assert json.dumps(config, sort_keys=True) == json.dumps(PINNED_DEFAULTS, sort_keys=True)
        assert load_config(None) == PINNED_DEFAULTS

    def test_config_fields_are_resolved_once_per_class(self, monkeypatch):
        load_config(None)
        fields = {cls: cli._config_fields(cls) for classes in cli.SECTIONS.values() for cls in classes}
        monkeypatch.setattr(cli.typing, "get_type_hints", lambda cls: pytest.fail(f"{cls.__name__} resolved again"))
        assert load_config(None) == PINNED_DEFAULTS
        for cls, entries in fields.items():
            assert isinstance(entries, tuple) and cli._config_fields(cls) is entries

    def test_partial_override(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"loss": {"phi": 0.25}}')
        cfg = load_config(str(path))
        assert cfg["loss"]["phi"] == 0.25
        assert cfg["loss"]["beta"] == 0.1
        assert cfg["train"]["epochs"] == 30

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"typo_key": 1}')
        with pytest.raises(UnknownKeyError, match="typo_key"):
            load_config(str(path))

    def test_nested_unknown_key_dotted(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"loss": {"lamda": 0.1}}')
        with pytest.raises(UnknownKeyError, match="loss.lamda"):
            load_config(str(path))

    @pytest.mark.parametrize(
        "key, value",
        [("eval.probe_lr", 0.001), ("train.p_augmented", 0.5), ("loss.hinge_form", "literal"), ("loss.symmetric", False),
         ("train.activation", "identity")],
    )
    def test_retired_key_is_unknown(self, tmp_path, capsys, small_config, generated, key, value):
        section, name = key.split(".")
        cfg = json.loads(small_config.read_text())
        cfg.setdefault(section, {})[name] = value
        path = tmp_path / "old.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(UnknownKeyError, match=key):
            load_config(str(path))
        assert run(["train", "--config", str(path), "--data", str(generated), "--out", str(tmp_path / "run")]) == 1
        assert f"'{key}'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_parse_error_has_position(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"loss": }')
        with pytest.raises(ConfigError, match=r"line 1 column 10"):
            load_config(str(path))


class TestResolveSeed:
    def test_precedence(self):
        assert resolve_seed(7, {"seed": 9}) == 7
        assert resolve_seed(None, {"seed": 9}) == 9
        assert resolve_seed(None, {"seed": None}) == 0


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_no_subcommand(self, capsys):
        assert run([]) == 1

    def test_missing_config_file(self, tmp_path):
        assert run(["train", "--config", str(tmp_path / "nope.json"), "--data", "d", "--out", "o"]) == 1

    @pytest.mark.parametrize(
        "content, named",
        [
            ([{"seed": 1}], "c.json must be a JSON object"),
            ({"seed": -1}, "config key 'seed' must be >= 0, got -1"),
        ],
        ids=["root_is_a_list", "negative_seed"],
    )
    def test_bad_config_root_or_seed_exits_1(self, tmp_path, capsys, content, named):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(content))
        out = tmp_path / "d"
        assert run(["generate-data", "--spec", str(path), "--out", str(out)]) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"nope": 1}')
        assert run(["generate-data", "--out", str(tmp_path / "d"), "--spec", str(bad)]) == 1

    def test_runs_as_a_module(self):
        proc = subprocess.run([sys.executable, "-m", "lecnce", "--help"], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "generate-data" in proc.stdout and "RuntimeWarning" not in proc.stderr, proc.stderr


class TestTrainConfigAtLoad:
    """Train values that used to fail mid-run are rejected at config load."""

    def _train_exit(self, tmp_path, capsys, small_config, generated, key, value) -> tuple[int, str]:
        cfg = json.loads(small_config.read_text())
        cfg["train"][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))  # writes NaN and Infinity as the literals json.load accepts
        code = run(["train", "--config", str(path), "--data", str(generated), "--out", str(tmp_path / "run")])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("key", ["schedule", "batch_sizes", "frames"])
    def test_level_tuple_length(self, tmp_path, capsys, small_config, generated, key):
        code, err = self._train_exit(tmp_path, capsys, small_config, generated, key, [2, 1])
        assert code == 1
        assert f"'train.{key}'" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("frames", [[0, 4, 16], [2, -1, 16], [2, 4, 1.5]])
    def test_frames_below_one(self, tmp_path, capsys, small_config, generated, frames):
        code, err = self._train_exit(tmp_path, capsys, small_config, generated, "frames", frames)
        assert code == 1
        assert "'train.frames'" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0, -0.001, "fast"])
    def test_learning_rate_finite_positive(self, tmp_path, capsys, small_config, generated, lr):
        code, err = self._train_exit(tmp_path, capsys, small_config, generated, "learning_rate", lr)
        assert code == 1
        assert "'train.learning_rate'" in err
        assert not (tmp_path / "run").exists()


class TestGenerateData:
    def test_byte_identical_across_runs(self, tmp_path, small_config):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["generate-data", "--seed", "7", "--out", str(a), "--spec", str(small_config)]) == 0
        assert run(["generate-data", "--seed", "7", "--out", str(b), "--spec", str(small_config)]) == 0
        for name in ("manifest.json", "data.bin", "groundtruth.bin", "resolved_config.json", "seed.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_flag_seed_overrides_config(self, tmp_path, small_config):
        out = tmp_path / "d"
        run(["generate-data", "--seed", "99", "--out", str(out), "--spec", str(small_config)])
        assert json.loads((out / "seed.json").read_text())["seed"] == 99

    @pytest.mark.parametrize(
        "flag, config_seed, named",
        [
            (["--seed", "-1"], None, "--seed must be >= 0, got -1"),
            ([], -3, "config key 'seed' must be >= 0, got -3"),
        ],
    )
    def test_negative_seed_named_before_any_output(self, tmp_path, capsys, flag, config_seed, named):
        if config_seed is not None:
            path = tmp_path / "c.json"
            path.write_text(json.dumps({"seed": config_seed}))
            flag = ["--spec", str(path)]
        out = tmp_path / "d"
        assert run(["generate-data", *flag, "--out", str(out)]) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_count_line_at_desk_defaults(self, tmp_path, capsys):
        # 32 train and 8 held-out procedures, each 12 clips, 6 phases and 1 video
        assert run(["generate-data", "--out", str(tmp_path / "d")]) == 0
        assert capsys.readouterr().out == f"wrote 608 train / 152 holdout samples to {tmp_path / 'd'}\n"

    def test_spec_that_cannot_be_drawn_exits_1(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"data": {"latent_dim": 2}}))  # 12 steps 30 degrees apart on a circle
        out = tmp_path / "d"
        assert run(["generate-data", "--spec", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "step_library_size=12" in err and "latent_dim=2" in err
        assert not out.exists()


@pytest.fixture()
def generated(tmp_path, small_config):
    data_dir = tmp_path / "data"
    assert run(["generate-data", "--out", str(data_dir), "--spec", str(small_config)]) == 0
    return data_dir


class TestLevelGatherBudget:
    """A tripwire for what each command reads of a dataset: a level is gathered when first read, and only then.

    ``generate-data`` writes from the procedure arrays and gathers nothing,
    ``train`` gathers the training split's three scheduled levels, and
    ``eval`` the training videos (the probe's) and the held-out videos and
    clips.
    """

    def test_each_command_gathers_the_levels_it_reads(self, tmp_path, monkeypatch, small_config):
        gathered = []
        gather = datagen._gather
        # _gather(spec, procedure_ids, rows, procedures, level)
        monkeypatch.setattr(datagen, "_gather", lambda *a: gathered.append((a[-1], list(a[1]))) or gather(*a))
        data, run_dir = tmp_path / "data", tmp_path / "run"
        assert run(["generate-data", "--out", str(data), "--spec", str(small_config)]) == 0
        assert gathered == []
        manifest = json.loads((data / "manifest.json").read_text())
        train, hold = manifest["train_procedures"], manifest["holdout_procedures"]
        assert run(["train", "--config", str(small_config), "--data", str(data), "--out", str(run_dir)]) == 0
        assert sorted(gathered) == [(level, train) for level in ("clip", "phase", "video")]
        gathered.clear()
        assert run(["eval", "--checkpoint", str(run_dir / "checkpoint_final.json"), "--data", str(data),
                    "--config", str(small_config), "--out", str(tmp_path / "eval")]) == 0
        assert sorted(gathered) == sorted([("video", train), ("video", hold), ("clip", hold)])


class TestTrainCommand:
    def test_run_directory_contents(self, tmp_path, small_config, generated):
        out = tmp_path / "run"
        assert run(["train", "--config", str(small_config), "--data", str(generated), "--out", str(out)]) == 0
        for name in ("resolved_config.json", "seed.json", "trainlog.csv", "checkpoint_final.json"):
            assert (out / name).exists(), name
        header = (out / "trainlog.csv").read_text().splitlines()[0]
        assert header == "step,level,total,component_vl,component_vv,component_infonce,component_dtw,wall_ms"

    def test_lambda_variants_share_schema(self, tmp_path, small_config, generated):
        cfg = json.loads(small_config.read_text())
        headers = []
        for lam in (0.0, 0.01):
            cfg["loss"] = {"lambda": lam}
            path = tmp_path / f"cfg_{lam}.json"
            path.write_text(json.dumps(cfg))
            out = tmp_path / f"run_{lam}"
            assert run(["train", "--config", str(path), "--data", str(generated), "--out", str(out)]) == 0
            headers.append((out / "trainlog.csv").read_text().splitlines()[0])
        assert headers[0] == headers[1]


class TestEvalCommand:
    def test_full_eval_report(self, tmp_path, small_config, generated):
        run_dir = tmp_path / "run"
        assert run(["train", "--config", str(small_config), "--data", str(generated), "--out", str(run_dir)]) == 0
        eval_dir = tmp_path / "eval"
        code = run(
            [
                "eval",
                "--checkpoint",
                str(run_dir / "checkpoint_final.json"),
                "--data",
                str(generated),
                "--out",
                str(eval_dir),
                "--config",
                str(small_config),
            ]
        )
        assert code == 0
        report = json.loads((eval_dir / "eval_report.json").read_text())
        assert report["accuracy"] is not None and 0.0 <= report["accuracy"] <= 1.0
        assert set(report["recall"]) == {"t2i", "i2t"}
        assert report["modality_gap"] is not None and report["modality_gap"] >= 0
        assert (eval_dir / "resolved_config.json").exists() and (eval_dir / "seed.json").exists()

    def test_eval_deterministic(self, tmp_path, small_config, generated):
        run_dir = tmp_path / "run"
        run(["train", "--config", str(small_config), "--data", str(generated), "--out", str(run_dir)])
        outs = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            assert (
                run(
                    [
                        "eval",
                        "--checkpoint",
                        str(run_dir / "checkpoint_final.json"),
                        "--data",
                        str(generated),
                        "--out",
                        str(out),
                        "--config",
                        str(small_config),
                    ]
                )
                == 0
            )
            outs.append((out / "eval_report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_seed_leaves_the_report_unchanged(self, tmp_path, small_config, generated):
        """Evaluation draws nothing random: ``--seed`` reaches seed.json, not the report."""
        rng = make_rng(17)
        save_untrained(tmp_path / "c.json", init_params([12, 6], rng=rng), init_params([9, 6], rng=rng))
        reports = []
        for seed in ("1", "99"):
            out = tmp_path / f"eval{seed}"
            argv = ["eval", "--config", str(small_config), "--checkpoint", str(tmp_path / "c.json"),
                    "--data", str(generated), "--out", str(out), "--seed", seed]
            assert run(argv) == 0
            assert json.loads((out / "seed.json").read_text()) == {"seed": int(seed)}
            reports.append((out / "eval_report.json").read_bytes())
        assert reports[0] == reports[1]


    def test_probe_alone_fills_only_the_probe_section(self, tmp_path, small_config, generated):
        run_dir = tmp_path / "run"
        assert run(["train", "--config", str(small_config), "--data", str(generated), "--out", str(run_dir)]) == 0
        reports = {}
        for flag in (None, "--probe", "--zero-shot"):
            out = tmp_path / f"eval{flag}"
            argv = ["eval", "--config", str(small_config), "--checkpoint", str(run_dir / "checkpoint_final.json"),
                    "--data", str(generated), "--out", str(out)]
            assert run(argv + ([flag] if flag else [])) == 0
            reports[flag] = json.loads((out / "eval_report.json").read_text())
        probe_only = reports["--probe"]
        assert probe_only["accuracy"] is None and probe_only["per_class_f1"] == []
        assert probe_only["probe"] == reports[None]["probe"]
        assert 0.0 <= probe_only["probe"]["accuracy"] <= 1.0 and len(probe_only["probe"]["per_class_f1"]) == 8
        assert 1 <= probe_only["probe"]["iterations"] <= 40 and probe_only["probe"]["grad_norm"] < PROBE_TOL
        assert reports[None]["accuracy"] == reports["--zero-shot"]["accuracy"]
        assert "probe" not in reports["--zero-shot"]

    def test_report_with_every_class_in_the_probe_is_unchanged(self, tmp_path, small_config, generated):
        """With every class in the probe's training rows, the report of a seeded checkpoint keeps its bytes.

        The digest dates from the change that made the probe's objective
        class-major, which moved ``probe.grad_norm`` in its last digits and
        nothing else (numpy 2.4 on OpenBLAS; another BLAS may round
        differently).  ``PINNED_REPORT`` is the report from before that
        change, whose digest was
        ccf892bc534adf13dd600a9b508910b35d67772c62ff0d6df52f21c799b59f3f.
        Folding the objective's two divisions into one multiply moved
        ``probe.grad_norm`` again, from 7.098338486261268e-05 to
        7.098338486270997e-05, and nothing else; the digest before that was
        f8e6232ec8e1cf40b6e7afe5401c7f6e3b10485b587f42aaadbab2205bf896a0.
        Taking the encoders' row dots through ``numerics._row_dots`` moved
        it from 7.098338486270997e-05 to 7.098338486257896e-05, and nothing
        else; the digest before that was
        be44ab643442328f12a71e1891c668ea9e2f1bf3adc88b567f150b8eea7dd291.
        """
        train, _ = load_dataset(str(generated))
        assert set(train.samples["video"].labels.ravel().tolist()) == set(range(8))
        rng = make_rng(17)
        save_untrained(tmp_path / "c.json", init_params([12, 6], rng=rng), init_params([9, 6], rng=rng))
        argv = ["eval", "--config", str(small_config), "--checkpoint", str(tmp_path / "c.json"),
                "--data", str(generated), "--out", str(tmp_path / "eval")]
        assert run(argv) == 0
        report = (tmp_path / "eval" / "eval_report.json").read_bytes()
        assert hashlib.sha256(report).hexdigest() == "7273707c2e5a5675bd47a7983830bc29e48e692455400dfa7434e023f9d11647"
        decoded = json.loads(report)
        grad_norm = decoded["probe"].pop("grad_norm")
        assert abs(grad_norm - PINNED_GRAD_NORM) <= 1e-9 * PINNED_GRAD_NORM
        assert decoded == PINNED_REPORT

    @pytest.mark.parametrize("probe_epochs", [None, 1])
    def test_unconverged_probe_warns(self, tmp_path, capsys, small_config, generated, probe_epochs):
        """A probe that stops at or above PROBE_TOL says so in one stderr line and exits 0; a converged one is silent."""
        config = json.loads(small_config.read_text())
        if probe_epochs is not None:
            config["eval"]["probe_epochs"] = probe_epochs
        (tmp_path / "probe.json").write_text(json.dumps(config))
        rng = make_rng(17)
        save_untrained(tmp_path / "c.json", init_params([12, 6], rng=rng), init_params([9, 6], rng=rng))
        argv = ["eval", "--probe", "--config", str(tmp_path / "probe.json"), "--checkpoint", str(tmp_path / "c.json"),
                "--data", str(generated), "--out", str(tmp_path / "eval")]
        capsys.readouterr()
        assert run(argv) == 0
        probe = json.loads((tmp_path / "eval" / "eval_report.json").read_text())["probe"]
        err = capsys.readouterr().err
        if probe_epochs is None:
            assert probe["grad_norm"] < PROBE_TOL and err == ""
        else:
            assert probe["iterations"] == 1 and probe["grad_norm"] >= PROBE_TOL
            assert err.count("\n") == 1 and err.startswith("warning:")
            assert "1 iterations" in err and f"{probe['grad_norm']:.2e}" in err and "eval.probe_epochs is 1" in err


def _flip_data_byte(data):
    blob = bytearray((data / "data.bin").read_bytes())
    blob[100] ^= 0x04
    (data / "data.bin").write_bytes(bytes(blob))


def _edit_manifest(data, edit, rehash=False):
    manifest = json.loads((data / "manifest.json").read_text())
    edit(manifest)
    if rehash:  # a consistent manifest that no longer fits the blobs
        del manifest["manifest_sha256"]
        manifest["manifest_sha256"] = hashlib.sha256(json.dumps(manifest, sort_keys=True).encode()).hexdigest()
    (data / "manifest.json").write_text(json.dumps(manifest))


def _empty_train_split(manifest):
    manifest["holdout_procedures"] = sorted(manifest["train_procedures"] + manifest["holdout_procedures"])
    manifest["train_procedures"] = []


def _non_finite_blob(data, name):
    """A NaN in the middle of blob ``name``, its hash and the manifest's rehashed so only the value is wrong."""
    values = np.frombuffer((data / name).read_bytes(), dtype="<f8").copy()
    values[len(values) // 2] = np.nan
    (data / name).write_bytes(values.tobytes())
    digest = hashlib.sha256(values.tobytes()).hexdigest()
    _edit_manifest(data, lambda m: m["files"].update({name: digest}), rehash=True)


class TestCorruptFiles:
    """A damaged dataset or checkpoint exits 1 naming the file, without a traceback or any output."""

    @pytest.mark.parametrize(
        "damage, named",
        [
            (_flip_data_byte, "data.bin hash mismatch"),
            (lambda d: _edit_manifest(d, lambda m: m.pop("files")), "manifest.json does not match"),
            (lambda d: _edit_manifest(d, lambda m: m["spec"].update(visual_dim=16)), "manifest.json does not match"),
            (lambda d: _edit_manifest(d, lambda m: m["spec"].update(visual_dim=16), rehash=True), "groundtruth.bin has"),
            (lambda d: _edit_manifest(d, _empty_train_split, rehash=True), "manifest.json lists no train procedures"),
        ],
        ids=["flipped_data", "no_files", "visual_dim", "visual_dim_rehashed", "empty_train_rehashed"],
    )
    def test_damaged_dataset(self, tmp_path, capsys, small_config, generated, damage, named):
        damage(generated)
        argv = ["train", "--config", str(small_config), "--data", str(generated), "--out", str(tmp_path / "run")]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err, err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "damage, named",
        [
            (lambda text: "[1, 2]", "checkpoint {path} is not readable (TypeError"),
            (lambda text: text[: len(text) // 2], "{path} line 1 column "),  # read_json's wording, as for any file
            (lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "visual"}),
             "checkpoint {path} is not readable (KeyError: 'visual'"),
        ],
        ids=["json_list", "truncated", "no_visual"],
    )
    def test_damaged_checkpoint(self, tmp_path, capsys, small_config, generated, damage, named):
        path = tmp_path / "c.json"
        save_untrained(path, init_params([12, 6], make_rng(0)), init_params([9, 6], make_rng(0)))
        path.write_text(damage(path.read_text()))
        argv = ["eval", "--config", str(small_config), "--checkpoint", str(path), "--data", str(generated),
                "--out", str(tmp_path / "eval")]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert named.format(path=path) in err, err
        assert not (tmp_path / "eval").exists()


    @pytest.mark.parametrize(
        "damage, named",
        [
            (old_format_checkpoint, "predates packed optimizer state (moments as float lists); re-train"),
            (per_parameter_checkpoint, "visual_optimizer.first_moment is a list, not an object"),
            (lambda p: p["text"]["weights"][0].__setitem__(0, p["text"]["weights"][0][0] + 0.5), "sha256 mismatch"),
            (lambda p: p["visual_optimizer"].update(beta1=-3), "visual_optimizer.beta1 must be a finite number"),
        ],
        ids=["old_format", "per_parameter_moments", "altered_weight", "beta1"],
    )
    def test_rejected_checkpoint(self, tmp_path, capsys, small_config, generated, damage, named):
        path = tmp_path / "c.json"
        visual, text = init_params([12, 6], make_rng(0)), init_params([9, 6], make_rng(0))
        save_checkpoint(path, visual, text, init_optimizer(visual), init_optimizer(text), seed=1)
        payload = json.loads(path.read_text())
        path.write_text(json.dumps(damage(payload) or payload))
        argv = ["eval", "--config", str(small_config), "--checkpoint", str(path), "--data", str(generated),
                "--out", str(tmp_path / "eval")]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert f"checkpoint {path}" in err and named in err and "Traceback" not in err, err
        assert not (tmp_path / "eval").exists()


    @pytest.mark.parametrize(
        "visual_dims, text_dims, named",
        [
            ([10, 6], [9, 6], "its visual encoder's input dim is 10, but data.visual_dim is 12"),
            ([12, 6], [8, 6], "its text encoder's input dim is 8, but data.text_dim is 9"),
            ([12, 6], [9, 5], "its visual encoder's joint dim is 6, but the text encoder's is 5"),
        ],
        ids=["visual_dim", "text_dim", "joint_dim"],
    )
    def test_checkpoint_dims_checked_against_data(self, tmp_path, capsys, monkeypatch, small_config, generated,
                                                  visual_dims, text_dims, named):
        path = tmp_path / "c.json"
        save_untrained(path, init_params(visual_dims, make_rng(0)), init_params(text_dims, make_rng(0)))

        def no_encoding(*args, **kwargs):
            raise AssertionError("encoded before the checkpoint was checked")

        monkeypatch.setattr(encoders, "forward", no_encoding)
        argv = ["eval", "--config", str(small_config), "--checkpoint", str(path), "--data", str(generated),
                "--out", str(tmp_path / "eval")]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert f"checkpoint {path}" in err and named in err, err
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("command, blob", [("train", "data.bin"), ("eval", "groundtruth.bin")])
    def test_non_finite_blob_exits_1_before_any_output(self, tmp_path, capsys, small_config, generated, command, blob):
        _non_finite_blob(generated, blob)
        out = tmp_path / "out"
        argv = [command, "--config", str(small_config), "--data", str(generated), "--out", str(out)]
        if command == "eval":
            save_untrained(tmp_path / "c.json", init_params([12, 6], make_rng(0)), init_params([9, 6], make_rng(0)))
            argv += ["--checkpoint", str(tmp_path / "c.json")]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: {generated / blob} holds non-finite values; a dataset holds only finite ones\n", err
        assert not out.exists()


def _cli(*argv):
    """Run a subcommand as :func:`cli.run` does, but let its exceptions through."""
    args = cli.build_parser().parse_args([str(a) for a in argv])
    assert args.fn(args) == 0


def _write(target, tmp_path, config, data, variant):
    """Write ``tmp_path/out/target`` through the command that writes it; ``variant`` 0 and 1 write different bytes."""
    out = tmp_path / "out"
    if target == "trainlog.csv":
        _cli("train", "--config", config, "--data", data, "--out", out, "--seed", variant)
    elif target == "eval_report.json":
        checkpoint = tmp_path / "c.json"
        save_untrained(checkpoint, init_params([12, 6], make_rng(0)), init_params([9, 6], make_rng(0)))
        protocol = ("--zero-shot", "--retrieval")[variant]
        _cli("eval", "--config", config, "--checkpoint", checkpoint, "--data", data, "--out", out, protocol)
    elif target == "augmented.jsonl":
        infile = tmp_path / "in.jsonl"
        infile.write_text(json.dumps({"text": ("clipping", "cutting")[variant], "level": "keystep"}) + "\n")
        out.mkdir(exist_ok=True)
        _cli("augment", "--in", infile, "--out", out / target)
    else:  # the dataset and its run records
        _cli("generate-data", "--spec", config, "--out", out, "--seed", variant)
    return out / target


def _fail_replacing(monkeypatch, target):
    """Make ``os.replace`` raise when it would move a file onto one named ``target``."""
    replace = os.replace

    def fail(src, dst):
        if os.path.basename(dst) == target:
            raise OSError("no space left on device")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", fail)


class TestAtomicWrites:
    """Every file a command writes is written whole or not at all: a failed write keeps the previous file."""

    @pytest.mark.parametrize("target", ["data.bin", "groundtruth.bin", "manifest.json", "resolved_config.json",
                                        "seed.json", "trainlog.csv", "eval_report.json", "augmented.jsonl"])
    def test_failed_write_keeps_the_previous_file(self, tmp_path, monkeypatch, small_config, generated, target):
        path = _write(target, tmp_path, small_config, generated, 0)
        before = path.read_bytes()
        _fail_replacing(monkeypatch, target)
        with pytest.raises(OSError, match="no space left"):
            _write(target, tmp_path, small_config, generated, 1)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert not [p.name for p in tmp_path.rglob("*.tmp")]
        _write(target, tmp_path, small_config, generated, 1)  # the write that failed would have changed the file
        assert path.read_bytes() != before and not [p.name for p in tmp_path.rglob("*.tmp")]

    @pytest.mark.parametrize("target", ["groundtruth.bin", "manifest.json"])
    def test_dataset_cut_short_is_refused(self, tmp_path, monkeypatch, small_config, target):
        _write(target, tmp_path, small_config, None, 0)
        _fail_replacing(monkeypatch, target)
        with pytest.raises(OSError, match="no space left"):
            _write(target, tmp_path, small_config, None, 1)
        monkeypatch.undo()
        # the manifest is written last, so the old one's hashes refuse the new blobs
        with pytest.raises(CorruptFileError, match="hash mismatch"):
            load_dataset(tmp_path / "out")


NOT_UTF8 = b'{"seed": 1}\n\xff\xfe\n'


def _path_error_case(case, tmp_path, config, data):
    """(argv, the path the error must name, the output path that must not appear) of one bad-path case."""
    out = tmp_path / "out"
    bad = tmp_path / "bad"
    if case.endswith("_dir"):
        bad.mkdir()
    else:
        bad.write_bytes(NOT_UTF8)
    records = tmp_path / "in.jsonl"
    records.write_text(json.dumps({"text": "clipping", "level": "narration"}) + "\n")
    checkpoint = tmp_path / "c.json"
    save_untrained(checkpoint, init_params([12, 6], make_rng(0)), init_params([9, 6], make_rng(0)))
    argv = {
        "generate-data --out file": ["generate-data", "--spec", str(config), "--out", str(bad)],
        "generate-data --spec not_utf8": ["generate-data", "--spec", str(bad), "--out", str(out)],
        "train --config config_dir": ["train", "--config", str(bad), "--data", str(data), "--out", str(out)],
        "train --data file": ["train", "--config", str(config), "--data", str(bad), "--out", str(out)],
        "eval --checkpoint checkpoint_dir": ["eval", "--config", str(config), "--checkpoint", str(bad),
                                             "--data", str(data), "--out", str(out)],
        "eval --out file": ["eval", "--config", str(config), "--checkpoint", str(checkpoint),
                            "--data", str(data), "--out", str(bad)],
        "augment --in not_utf8": ["augment", "--in", str(bad), "--out", str(out)],
        "augment --vocab not_utf8": ["augment", "--vocab", str(bad), "--in", str(records), "--out", str(out)],
        "augment --kb not_utf8": ["augment", "--kb", str(bad), "--in", str(records), "--out", str(out)],
        "dtw-inspect --matrix not_utf8": ["dtw-inspect", "--matrix", str(bad)],
    }[case]
    return argv, bad, out


@pytest.mark.parametrize(
    "case",
    ["generate-data --out file", "generate-data --spec not_utf8", "train --config config_dir", "train --data file",
     "eval --checkpoint checkpoint_dir", "eval --out file", "augment --in not_utf8", "augment --vocab not_utf8",
     "augment --kb not_utf8", "dtw-inspect --matrix not_utf8"],
)
def test_bad_path_named_with_exit_1(tmp_path, capsys, small_config, generated, case):
    argv, bad, out = _path_error_case(case, tmp_path, small_config, generated)
    before = bad.read_bytes() if bad.is_file() else None
    assert run(argv) == 1
    printed, err = capsys.readouterr()
    assert err.startswith("error: ") and str(bad) in err and "Traceback" not in err, err
    assert "probe accuracy" not in printed
    assert not out.exists()
    assert (bad.read_bytes() if bad.is_file() else None) == before


@pytest.mark.parametrize("case", ["generate-data --out file", "eval --out file"])
def test_out_file_rejected_before_any_work(tmp_path, capsys, monkeypatch, small_config, generated, case):
    argv, bad, _ = _path_error_case(case, tmp_path, small_config, generated)

    def no_work(*args, **kwargs):
        raise AssertionError("worked before the output path was checked")

    monkeypatch.setattr(cli, "generate_dataset", no_work)
    monkeypatch.setattr(cli, "load_dataset", no_work)
    assert run(argv) == 1
    assert f"File exists: '{bad}'" in capsys.readouterr().err


class TestAugmentCommand:
    def test_mock_pipeline(self, tmp_path):
        vocab_path = tmp_path / "vocab.tsv"
        vocab_path.write_text("grasper\t10\nduct\t8\nhook\t5\n")
        kb = build_step_kb(["toy procedure"])
        kb_path = tmp_path / "kb.json"
        kb_path.write_text(json.dumps(kb))
        records = [
            {"text": "graspr the duct", "level": "narration"},
            {"text": "clipping cutting", "level": "keystep"},
            {"text": "a long abstract about the whole procedure and its phases", "level": "abstract"},
        ]
        infile = tmp_path / "in.jsonl"
        infile.write_text("".join(json.dumps(r) + "\n" for r in records))
        outfile = tmp_path / "out.jsonl"
        code = run(
            [
                "augment",
                "--vocab",
                str(vocab_path),
                "--kb",
                str(kb_path),
                "--in",
                str(infile),
                "--out",
                str(outfile),
            ]
        )
        assert code == 0
        lines = [json.loads(l) for l in outfile.read_text().splitlines()]
        assert lines[0]["augmented"].startswith("grasper the duct")
        assert "step_index" in lines[0]
        assert lines[1]["original"] == "clipping cutting" and lines[1]["augmented"] != lines[1]["original"]
        assert lines[2]["augmented"].startswith("summary:")

    def test_step_index_names_the_appended_step(self, tmp_path):
        # the appended step "g" makes "g g g" the closest step to the augmented text
        (tmp_path / "kb.json").write_text(json.dumps({"x": ["g g g", "b c", "d d f", "g"]}))
        infile = tmp_path / "in.jsonl"
        infile.write_text(json.dumps({"text": "f g g f", "level": "narration"}) + "\n")
        outfile = tmp_path / "out.jsonl"
        assert run(["augment", "--kb", str(tmp_path / "kb.json"), "--in", str(infile), "--out", str(outfile)]) == 0
        assert json.loads(outfile.read_text()) == {"original": "f g g f", "augmented": "f g g f. g", "step_index": 3}

    def test_default_uses_mock_clients(self, tmp_path):
        infile = tmp_path / "in.jsonl"
        infile.write_text(json.dumps({"text": "clipping", "level": "keystep"}) + "\n")
        assert run(["augment", "--in", str(infile), "--out", str(tmp_path / "out.jsonl")]) == 0
        line = json.loads((tmp_path / "out.jsonl").read_text())
        assert line["augmented"] == expand_keystep("clipping")

    def test_output_is_pinned(self, tmp_path):
        """Every level, empty texts and a multi-title --kb; narrations match the first title's steps.

        The digests date from the deterministic rewrites' client-protocol
        implementation; the plain rewrite functions must keep its bytes.
        """
        kb = build_step_kb(["laparoscopic gallbladder removal", "toy procedure", "12 step 3.x", ""])
        kb_bytes = json.dumps(kb).encode()
        assert hashlib.sha256(kb_bytes).hexdigest() == "8082ffc54f5c94d558ddf8c745595e0f995f44cdc6de58cfd331ff633477dae3"
        (tmp_path / "kb.json").write_bytes(kb_bytes)
        records = [("graspr the duct", "narration"), ("now we dissect around the gallbladder", "narration"),
                   ("", "narration"), ("clipping cutting", "keystep"), ("", "keystep"),
                   ("this lecture demonstrates a complete laparoscopic cholecystectomy with commentary", "abstract"),
                   ("", "abstract"), ("   ", "abstract")]
        infile = tmp_path / "in.jsonl"
        infile.write_text("".join(json.dumps({"text": t, "level": l}) + "\n" for t, l in records))
        vocab = resources.files("lecnce") / "assets" / "vocab_sample.tsv"
        outfile = tmp_path / "out.jsonl"
        assert run(["augment", "--vocab", str(vocab), "--kb", str(tmp_path / "kb.json"),
                    "--in", str(infile), "--out", str(outfile)]) == 0
        out = outfile.read_bytes()
        assert hashlib.sha256(out).hexdigest() == "77c5b624239c8bd5d907143adce11ef0d8f0380f2a0047e0b915436de675ba87"
        first = kb["laparoscopic gallbladder removal"]
        assert [json.loads(line).get("step_index") for line in out.splitlines()][:3] == [1, 2, 0]
        assert json.loads(out.splitlines()[0])["augmented"] == f"grasper the duct. {first[1]}"

    @pytest.mark.parametrize(
        "line, named",
        [
            ("not json", "not a JSON record"),
            ('["text", "level"]', "'text'"),
            ('{"level": "keystep"}', "'text'"),
            ('{"text": 3, "level": "keystep"}', "'text'"),
            ('{"text": "clipping"}', "'level'"),
            ('{"text": "clipping", "level": "poem"}', "'level': 'poem'"),
        ],
    )
    def test_bad_record_named_by_line(self, tmp_path, capsys, line, named):
        infile = tmp_path / "in.jsonl"
        infile.write_text(json.dumps({"text": "clipping", "level": "keystep"}) + "\n\n" + line + "\n")
        outfile = tmp_path / "out.jsonl"
        assert run(["augment", "--in", str(infile), "--out", str(outfile)]) == 1
        err = capsys.readouterr().err
        assert "line 3" in err and named in err
        assert not outfile.exists()

    @pytest.mark.parametrize(
        "flag, content, named",
        [
            ("--vocab", "grasper\t10\nduct 8\n", "line 2: expected word<TAB>integer frequency"),
            ("--vocab", "grasper\tmany\n", "line 1: expected word<TAB>integer frequency"),
            ("--kb", '{"toy": ["a",\n', "line 2 column 1: not valid JSON"),
            ("--kb", '["a", "b"]', "must be a JSON object"),
            ("--kb", '{"toy": "one step"}', "title 'toy' must be a non-empty list of strings"),
            ("--kb", '{"toy": []}', "title 'toy' must be a non-empty list of strings"),
        ],
    )
    def test_bad_vocab_or_kb_file_named(self, tmp_path, capsys, flag, content, named):
        path = tmp_path / "aux.txt"
        path.write_text(content)
        infile = tmp_path / "in.jsonl"
        infile.write_text(json.dumps({"text": "clipping", "level": "narration"}) + "\n")
        outfile = tmp_path / "out.jsonl"
        assert run(["augment", flag, str(path), "--in", str(infile), "--out", str(outfile)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}") and named in err
        assert not outfile.exists()


class TestDtwInspect:
    def test_hand_trace_greedy(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"values": HAND_TRACE}))
        assert run(["dtw-inspect", "--matrix", str(path), "--algorithm", "greedy"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cost"] == 3.0
        assert payload["path"] == [[3, 3], [2, 2], [1, 1]]
        assert payload["algorithm"] == "greedy"

    def test_bare_list_and_dp(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(HAND_TRACE))
        assert run(["dtw-inspect", "--matrix", str(path), "--algorithm", "dp"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cost"] == 3.0 and payload["algorithm"] == "dp"

    def test_reversed_flag(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps([[1.0, 2.0, 3.0]]))
        assert run(["dtw-inspect", "--matrix", str(path), "--reversed"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cost"] == 6.0  # row sums are reversal-invariant for a 1xN matrix

    @pytest.mark.parametrize(
        "content, named",
        [
            ("{", "line 1 column 2"),
            ('{"beta": 0.1}', "no 'values' key"),
            ("[[1.0, 2.0], [3.0]]", "'values'"),
            ('[["a", 1.0]]', "'values'"),
            ("[]", "'values'"),
            ("[[]]", "'values'"),
            ('{"values": "abc"}', "'values'"),
            ("[[1.0, NaN]]", "'values'"),
            ("[[1.0, Infinity]]", "'values'"),
            ("[[1.0, -2.0]]", "'values'"),
            # a cost matrix carries no temperature: 'beta' is an unknown key, whatever its value
            ('{"values": [[1.0]], "beta": 0}', "'beta'"),
            ('{"values": [[1.0]], "beta": -0.5}', "'beta'"),
            ('{"values": [[1.0]], "beta": "x"}', "'beta'"),
            ('{"values": [[1.0]], "beta": true}', "'beta'"),
            ('{"values": [[1.0]], "beta": NaN}', "'beta'"),
            # only JSON numbers are entries, and 'values' is the only key
            ("[[true, 2], [3, false]]", "each a JSON number"),
            ('[["1", 2]]', "each a JSON number"),
            ('[[1, null]]', "each a JSON number"),
            ('[[1, [2]]]', "each a JSON number"),
            ("[1, 2]", "each a JSON number"),
            ('{"values": [[1, 2]], "betta": 3}', "unknown key 'betta'"),
        ],
    )
    def test_bad_matrix_file(self, tmp_path, capsys, content, named):
        path = tmp_path / "m.json"
        path.write_text(content)
        assert run(["dtw-inspect", "--matrix", str(path)]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and named in err
        assert str(path) in err and not out

    @pytest.mark.parametrize("algorithm", ["greedy", "dp"])
    @pytest.mark.parametrize("flag", [[], ["--reversed"]])
    def test_overflowing_cost(self, tmp_path, capsys, algorithm, flag):
        # every entry is finite, but the cost of any path is not
        path = tmp_path / "m.json"
        path.write_text(json.dumps([[1e308, 1e308], [1e308, 1e308]]))
        assert run(["dtw-inspect", "--matrix", str(path), "--algorithm", algorithm, *flag]) == 1
        out, err = capsys.readouterr()
        assert err == f"error: matrix file {path}: alignment cost overflows\n" and not out

    def test_integer_entries(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"values": [[1, 5, 5], [2, 1, 5], [5, 2, 1]]}))
        assert run(["dtw-inspect", "--matrix", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["cost"] == 3.0


# every case that used to crash, run through every command; each key must be
# named and no run directory created
BAD_VALUES = [
    ("train", "epochs", 0),
    ("train", "dtw_algorithm", "foo"),
    ("loss", "beta", 0),
    ("data", "holdout_fraction", 2),
    ("train", "schedule", ["a", 1, 1]),
    ("loss", "beta", "x"),
    ("train", "epochs", 2.5),
    ("data", "n_procedures", "x"),
    ("eval", "retrieval_size", 0),
    ("loss", "symmetric", "no"),
    ("train", "weight_decay", float("nan")),
    ("train", "epochs", True),
    ("loss", "lambda", -0.1),
    ("train", "activation", "relu"),
    ("train", "visual_layers", [12]),
    ("eval", "recall_ks", []),
    ("eval", "shots", 0),
    ("data", "noise_sigma", float("inf")),
    ("train", "schedule", [-1, 3, 3]),
    ("data", "frames_per_step", 6),
    ("eval", "recall_ks", [0, 5]),
]


def _command(name, config_path, tmp_path) -> list[str]:
    out = str(tmp_path / "run")
    return {
        "generate-data": ["generate-data", "--spec", config_path, "--out", out],
        "train": ["train", "--config", config_path, "--data", str(tmp_path / "data"), "--out", out],
        "eval": ["eval", "--config", config_path, "--checkpoint", str(tmp_path / "c.json"),
                 "--data", str(tmp_path / "data"), "--out", out],
    }[name]


@pytest.mark.parametrize("command", ["generate-data", "train", "eval"])
@pytest.mark.parametrize("section, key, value", BAD_VALUES)
def test_bad_value_named_before_any_output(tmp_path, capsys, small_config, command, section, key, value):
    cfg = json.loads(small_config.read_text())
    cfg.setdefault(section, {})[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert run(_command(command, str(path), tmp_path)) == 1
    err = capsys.readouterr().err
    assert f"'{section}.{key}'" in err, err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "train, key",
    [
        ({"visual_layers": [11, 6]}, "'train.visual_layers'"),
        ({"text_layers": [8, 6]}, "'train.text_layers'"),
        ({"text_layers": [9, 7]}, "'train.visual_layers' and 'train.text_layers'"),
    ],
)
def test_encoder_dims_checked_against_data(tmp_path, capsys, small_config, train, key):
    cfg = json.loads(small_config.read_text())
    cfg["train"].update(train)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert run(_command("generate-data", str(path), tmp_path)) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


class TestEvalInputChecks:
    def test_shots_flag_is_a_usage_error(self, tmp_path, capsys, small_config):
        argv = _command("eval", str(small_config), tmp_path) + ["--shots", "10"]  # eval.shots is the one way
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert "unrecognized arguments: --shots 10" in err and "usage" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("shots", ["0", "-5", "150", "nan", "inf"])
    def test_shots_flag_checked_as_config_key(self, tmp_path, capsys, small_config, shots):
        # the values the deleted flag was checked with: as eval.shots they are refused at load, by that key
        cfg = json.loads(small_config.read_text())
        cfg["eval"]["shots"] = float(shots)
        path = tmp_path / "shots.json"
        path.write_text(json.dumps(cfg))
        assert run(_command("eval", str(path), tmp_path)) == 1
        assert "'eval.shots'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
        assert run(_command("eval", str(small_config), tmp_path) + ["--shots", shots]) == 1
        assert "unrecognized arguments: --shots" in capsys.readouterr().err

    def test_one_class_probe_named_before_the_checkpoint(self, tmp_path, capsys, small_config):
        cfg = json.loads(small_config.read_text())
        cfg["data"]["steps_per_procedure"] = 1  # each video is one step, and 1 % of the videos is one video
        cfg["eval"].update(shots=1, recall_ks=[1])  # the holdout has 2 clips
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert run(["generate-data", "--spec", str(path), "--out", str(tmp_path / "data")]) == 0
        argv = ["eval", "--config", str(path), "--checkpoint", str(tmp_path / "missing.json"),
                "--data", str(tmp_path / "data"), "--out", str(tmp_path / "eval")]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert "'eval.shots'" in err and "1 step class" in err
        assert not (tmp_path / "eval").exists()
        assert run(argv + ["--zero-shot"]) == 1  # without the probe, the missing checkpoint is the next error
        assert "missing.json" in capsys.readouterr().err

    def test_recall_k_beyond_retrieval_set(self, tmp_path, capsys, small_config, generated):
        cfg = json.loads(small_config.read_text())
        del cfg["eval"]["recall_ks"]  # the default cut-offs reach 10; the holdout has 8 clips
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        argv = ["eval", "--config", str(path), "--checkpoint", str(tmp_path / "missing.json"),
                "--data", str(generated), "--out", str(tmp_path / "eval")]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert "'eval.recall_ks'" in err and "8 clips" in err
        assert not (tmp_path / "eval").exists()

    def test_recall_ks_unchecked_without_retrieval(self, tmp_path, small_config, generated):
        run_dir = tmp_path / "run"
        assert run(["train", "--config", str(small_config), "--data", str(generated), "--out", str(run_dir)]) == 0
        cfg = json.loads(small_config.read_text())
        del cfg["eval"]["recall_ks"]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        argv = ["eval", "--config", str(path), "--checkpoint", str(run_dir / "checkpoint_final.json"),
                "--data", str(generated), "--out", str(tmp_path / "eval"), "--zero-shot"]
        assert run(argv) == 0


def test_readme_config_block_is_the_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    assert json.loads(blocks[0]) == load_config(None)


# raw values of every JSON type, including non-finite floats and out-of-range numbers
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 80),
    st.integers(),
    st.floats(),
    st.sampled_from(["greedy", "dp", "identity", "tanh", "standard", "x"]),
    st.lists(st.integers(-1, 40), max_size=4),
    st.lists(st.floats(-1, 40), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def _near(default):
    """Values of the default's JSON type around it, mostly in range."""
    if isinstance(default, int):
        return st.integers(default // 2, 2 * default)
    if isinstance(default, float):
        return st.floats(0.0, 2 * default + 0.5)
    if isinstance(default, list):
        return st.tuples(*[st.integers(max(1, d // 2), 2 * d) for d in default]).map(list)
    return st.sampled_from({"greedy": ["greedy", "dp"]}[default])


# the encoder dims must chain with the data dims, so they stay at their defaults
NEAR = {
    (name, key): st.just(default) if key.endswith(("_dim", "_layers")) else _near(default)
    for name, section in PINNED_DEFAULTS.items()
    if name != "seed"
    for key, default in section.items()
}
NEAR["data", "frames_per_step"] = st.sampled_from([4, 8, 16])
NEAR["eval", "shots"] = st.floats(1.0, 100.0)
DIE = st.integers(0, 15)


@st.composite
def raw_configs(draw):
    """Config objects whose entries keep their default, move near it or take a random JSON value."""
    odds = draw(st.sampled_from([0, 1, 3]))  # chance in 16 that an entry turns into junk

    def junk() -> bool:
        return draw(DIE) < odds

    raw = {}
    if draw(st.booleans()):
        raw["seed"] = draw(JSON_VALUES) if junk() else draw(st.integers(0, 99))
    for name, section in PINNED_DEFAULTS.items():
        if name == "seed":
            continue
        given = {}
        for key, default in section.items():
            roll = draw(DIE)
            if roll < odds:
                given[key] = draw(JSON_VALUES)
            elif roll < 6:
                given[key] = draw(NEAR[name, key])
            elif roll < 10:
                given[key] = default
        if junk():
            given["junk"] = draw(JSON_VALUES)
        raw[name] = draw(JSON_VALUES) if junk() else given
    if junk():
        raw["junk"] = draw(JSON_VALUES)
    return raw


def _tuples(section: dict) -> dict:
    return {key: tuple(v) if isinstance(v, list) else v for key, v in section.items()}


@settings(max_examples=200, deadline=None)
@given(raw=raw_configs())
def test_load_config_property(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "property_config.json"
    path.write_text(json.dumps(raw))
    try:
        config = load_config(str(path))
    except ConfigError:
        return
    data = dict(config["data"])
    split = SplitSpec(data.pop("n_procedures"), data.pop("holdout_fraction"))
    ProcedureSpec(**data)
    loss = dict(config["loss"])
    loss["lambda_dtw"] = loss.pop("lambda")
    TrainConfig(loss=LossConfig(**loss), **_tuples(config["train"]))
    EvalConfig(**_tuples(config["eval"]))
    assert split.n_procedures >= 2
    assert json.loads(json.dumps(config)) == config  # what resolved_config.json records reads back equal
