import json

import pytest

from lecnce.cli import CONFIG_DEFAULTS, load_config, resolve_seed, run
from lecnce.errors import ConfigError, UnknownKeyError
from lecnce.evalkit import EvalReport
from lecnce.textaug import MockAugmenterClient, build_step_kb, save_step_kb

HAND_TRACE = [[1.0, 5.0, 5.0], [2.0, 1.0, 5.0], [5.0, 2.0, 1.0]]


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
        assert load_config(str(path)) == CONFIG_DEFAULTS

    def test_partial_override(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"loss": {"phi": 0.25}}')
        cfg = load_config(str(path))
        assert cfg["loss"]["phi"] == 0.25
        assert cfg["loss"]["beta"] == 0.1
        assert cfg["train"]["epochs"] == CONFIG_DEFAULTS["train"]["epochs"]

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

    def test_parse_error_has_position(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"loss": }')
        with pytest.raises(ConfigError, match=r"line 1 column 10"):
            load_config(str(path))


class TestResolveSeed:
    def test_precedence(self, monkeypatch):
        monkeypatch.setenv("LECNCE_SEED", "11")
        assert resolve_seed(7, {"seed": 9}) == 7
        assert resolve_seed(None, {"seed": 9}) == 9
        assert resolve_seed(None, {"seed": None}) == 11
        monkeypatch.delenv("LECNCE_SEED")
        assert resolve_seed(None, {"seed": None}) == 0

    def test_bad_env(self, monkeypatch):
        monkeypatch.setenv("LECNCE_SEED", "not-a-number")
        with pytest.raises(ConfigError):
            resolve_seed(None, {"seed": None})


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_no_subcommand(self, capsys):
        assert run([]) == 1

    def test_missing_config_file(self, tmp_path):
        assert run(["train", "--config", str(tmp_path / "nope.json"), "--data", "d", "--out", "o"]) == 1

    def test_unknown_config_key_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"nope": 1}')
        assert run(["generate-data", "--out", str(tmp_path / "d"), "--spec", str(bad)]) == 1


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


@pytest.fixture()
def generated(tmp_path, small_config):
    data_dir = tmp_path / "data"
    assert run(["generate-data", "--out", str(data_dir), "--spec", str(small_config)]) == 0
    return data_dir


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
        report = EvalReport.from_json((eval_dir / "eval_report.json").read_text())
        assert report.accuracy is not None and 0.0 <= report.accuracy <= 1.0
        assert set(report.recall) == {"t2i", "i2t"}
        assert report.modality_gap is not None and report.modality_gap >= 0
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


class TestAugmentCommand:
    def test_mock_pipeline(self, tmp_path):
        vocab_path = tmp_path / "vocab.tsv"
        vocab_path.write_text("grasper\t10\nduct\t8\nhook\t5\n")
        kb = build_step_kb(["toy procedure"], MockAugmenterClient("recipe"))
        kb_path = tmp_path / "kb.json"
        save_step_kb(kb, kb_path)
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
                "--mock",
            ]
        )
        assert code == 0
        lines = [json.loads(l) for l in outfile.read_text().splitlines()]
        assert lines[0]["augmented"].startswith("grasper the duct")
        assert "step_index" in lines[0]
        assert lines[1]["original"] == "clipping cutting" and lines[1]["augmented"] != lines[1]["original"]
        assert lines[2]["augmented"].startswith("summary:")

    def test_without_mock_external_disabled(self, tmp_path):
        infile = tmp_path / "in.jsonl"
        infile.write_text(json.dumps({"text": "clipping", "level": "keystep"}) + "\n")
        code = run(["augment", "--in", str(infile), "--out", str(tmp_path / "out.jsonl")])
        assert code == 2


class TestDtwInspect:
    def test_hand_trace_greedy(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"values": HAND_TRACE, "beta": 0.1}))
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
