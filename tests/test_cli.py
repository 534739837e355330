import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lecnce.cli import load_config, resolve_seed, run
from lecnce.datagen import ProcedureSpec, SplitSpec
from lecnce.errors import ConfigError, UnknownKeyError
from lecnce.evalkit import EvalConfig, EvalReport
from lecnce.losses import LossConfig
from lecnce.textaug import MockAugmenterClient, build_step_kb
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
        "hinge_form": "standard",
        "symmetric": True,
    },
    "train": {
        "schedule": [5, 3, 3],
        "batch_sizes": [16, 8, 4],
        "frames": [4, 16, 64],
        "epochs": 30,
        "learning_rate": 1e-3,
        "weight_decay": 0.01,
        "p_augmented": 0.5,
        "dtw_algorithm": "greedy",
        "visual_layers": [32, 32],
        "text_layers": [24, 32],
        "activation": "identity",
    },
    "eval": {
        "recall_ks": [1, 5, 10],
        "retrieval_size": 32,
        "probe_lr": 0.001,
        "probe_weight_decay": 0.0005,
        "probe_epochs": 40,
        "shots": 100,
    },
}

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
        config = load_config(str(path))
        assert config == PINNED_DEFAULTS
        assert json.dumps(config, sort_keys=True) == json.dumps(PINNED_DEFAULTS, sort_keys=True)
        assert load_config(None) == PINNED_DEFAULTS

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

    def test_default_uses_mock_clients(self, tmp_path):
        infile = tmp_path / "in.jsonl"
        infile.write_text(json.dumps({"text": "clipping", "level": "keystep"}) + "\n")
        assert run(["augment", "--in", str(infile), "--out", str(tmp_path / "out.jsonl")]) == 0
        line = json.loads((tmp_path / "out.jsonl").read_text())
        assert line["augmented"] == MockAugmenterClient("dictionary").complete("clipping")

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
            ('{"values": [[1.0]], "beta": 0}', "'beta'"),
            ('{"values": [[1.0]], "beta": -0.5}', "'beta'"),
            ('{"values": [[1.0]], "beta": "x"}', "'beta'"),
            ('{"values": [[1.0]], "beta": true}', "'beta'"),
            ('{"values": [[1.0]], "beta": NaN}', "'beta'"),
        ],
    )
    def test_bad_matrix_file(self, tmp_path, capsys, content, named):
        path = tmp_path / "m.json"
        path.write_text(content)
        assert run(["dtw-inspect", "--matrix", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err


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
    @pytest.mark.parametrize("shots", ["0", "-5", "150", "nan", "inf"])
    def test_shots_flag_checked_as_config_key(self, tmp_path, capsys, small_config, shots):
        argv = _command("eval", str(small_config), tmp_path) + ["--shots", shots]
        assert run(argv) == 1
        assert "'eval.shots'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

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
    st.sampled_from(["greedy", "dp", "identity", "tanh", "standard", "literal", "x"]),
    st.lists(st.integers(-1, 40), max_size=4),
    st.lists(st.floats(-1, 40), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def _near(default):
    """Values of the default's JSON type around it, mostly in range."""
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.integers(default // 2, 2 * default)
    if isinstance(default, float):
        return st.floats(0.0, 2 * default + 0.5)
    if isinstance(default, list):
        return st.tuples(*[st.integers(max(1, d // 2), 2 * d) for d in default]).map(list)
    return st.sampled_from({"greedy": ["greedy", "dp"], "identity": ["identity", "tanh"], "standard": ["standard", "literal"]}[default])


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
