"""Each input rule is checked in one function, so every entry point raises the same type and text."""

import json

import numpy as np
import pytest

from lecnce.alignment import CostMatrix, align, align_batch, dtw_dp
from lecnce.cli import load_config
from lecnce.datagen import load_dataset
from lecnce.encoders import (EncoderParams, OptimizerState, adamw_step, init_optimizer, init_params, load_checkpoint,
                             save_checkpoint)
from lecnce.errors import (ConfigError, CorruptFileError, DimMismatchError, EmptyMatrixError, FieldValueError,
                           NonFiniteError)
from lecnce.evalkit import EvalConfig, pool_video_embedding, recall_at_k, zero_shot_classify
from lecnce.losses import LossConfig, build_cost_matrix, clip_lecnce, cost_matrix_backward, info_nce
from lecnce.numerics import make_rng
from lecnce.trainer import TrainConfig


def _raised(call, error):
    """The message of the ``error`` that ``call()`` raises, which must be of exactly that class."""
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    return str(info.value)


ALGORITHM_ENTRY = {
    "TrainConfig": lambda name: TrainConfig(dtw_algorithm=name),
    "align_batch": lambda name: align_batch(np.ones((1, 2, 2)), name),
    "align": lambda name: align(np.ones((2, 2)), name),
}


@pytest.mark.parametrize("entry", ALGORITHM_ENTRY.values(), ids=ALGORITHM_ENTRY.keys())
def test_unknown_algorithm(entry):
    message = _raised(lambda: entry("beam"), FieldValueError)
    assert message == "dtw_algorithm must be one of ('greedy', 'dp'), got 'beam'"


def test_unknown_algorithm_in_a_config_names_its_key(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"train": {"dtw_algorithm": "beam"}}))
    message = _raised(lambda: load_config(str(path)), ConfigError)
    assert message == "config key 'train.dtw_algorithm' must be one of ('greedy', 'dp'), got 'beam'"


MATRIX_ENTRY = {"CostMatrix": CostMatrix, "dtw_dp": dtw_dp}


@pytest.mark.parametrize("shape", [(3,), (1, 2, 2)], ids=["1d", "3d"])
@pytest.mark.parametrize("entry", MATRIX_ENTRY.values(), ids=MATRIX_ENTRY.keys())
def test_matrix_of_wrong_rank(entry, shape):
    assert _raised(lambda: entry(np.ones(shape)), DimMismatchError) == f"cost matrix must be 2-D, got shape {shape}"


NEGATIVE_ENTRY = {**MATRIX_ENTRY, "align_batch": lambda m: align_batch(m[None], "dp")}


@pytest.mark.parametrize("entry", NEGATIVE_ENTRY.values(), ids=NEGATIVE_ENTRY.keys())
def test_negative_cost(entry):
    message = _raised(lambda: entry(np.array([[1.0, -1e-300], [2.0, 1.0]])), FieldValueError)
    assert message == "cost matrices[0] contains negative values"


BETA_ENTRY = {
    "LossConfig": lambda beta: LossConfig(beta=beta),
    "build_cost_matrix": lambda beta: build_cost_matrix(np.eye(2), np.eye(2), beta),
    "cost_matrix_backward": lambda beta: cost_matrix_backward(np.eye(2), np.eye(2), beta, np.ones((2, 2))),
}


@pytest.mark.parametrize("beta", [-0.1, 0.0, float("inf"), float("nan")])
@pytest.mark.parametrize("entry", BETA_ENTRY.values(), ids=BETA_ENTRY.keys())
def test_beta_out_of_range(entry, beta):
    assert _raised(lambda: entry(beta), FieldValueError) == f"beta must be finite and > 0, got {beta}"


EMPTY_ENTRY = {
    "build_cost_matrix": lambda frames, texts: build_cost_matrix(frames, texts),
    "cost_matrix_backward": lambda frames, texts: cost_matrix_backward(frames, texts, 0.1, np.ones((2, 2))),
}


@pytest.mark.parametrize("empty", ["frames", "texts"])
@pytest.mark.parametrize("entry", EMPTY_ENTRY.values(), ids=EMPTY_ENTRY.keys())
def test_cost_build_input_without_cells(entry, empty):
    inputs = {"frames": np.eye(3)[:2], "texts": np.eye(3)[:2], empty: np.zeros((0, 3))}
    message = _raised(lambda: entry(inputs["frames"], inputs["texts"]), EmptyMatrixError)
    assert message == f"{empty} has no cells, shape (0, 3)"


EMPTY_INPUT_ENTRY = {
    "clip_lecnce": (lambda m: clip_lecnce(m, m, m, m, LossConfig()), "clip_frames"),
    "info_nce": (lambda m: info_nce(m, []), "sim"),
    "zero_shot_classify": (lambda m: zero_shot_classify(np.ones((2, m.shape[1])), m), "class_embs"),
    "pool_video_embedding": (lambda m: pool_video_embedding(m), "frames"),
}


@pytest.mark.parametrize("shape", [(0, 3), (0, 0)])
@pytest.mark.parametrize("entry, name", EMPTY_INPUT_ENTRY.values(), ids=EMPTY_INPUT_ENTRY.keys())
def test_loss_and_eval_input_without_cells(entry, name, shape):
    message = _raised(lambda: entry(np.zeros(shape)), EmptyMatrixError)
    assert message == f"{name} has no cells, shape {shape}"


RECALL_KS_ENTRY = {
    "EvalConfig": lambda ks: EvalConfig(recall_ks=ks),
    "recall_at_k": lambda ks: recall_at_k(np.eye(3), ks),
}


@pytest.mark.parametrize("ks", [(0, -2), (), (1, 0)])
@pytest.mark.parametrize("entry", RECALL_KS_ENTRY.values(), ids=RECALL_KS_ENTRY.keys())
def test_recall_cut_offs_below_one(entry, ks):
    assert _raised(lambda: entry(ks), FieldValueError) == f"recall_ks must list integer cut-offs >= 1, got {ks}"


@pytest.mark.parametrize("ks", [(1.5, 2), (1.5,), (2.0,), (True, 5)])
@pytest.mark.parametrize("entry", RECALL_KS_ENTRY.values(), ids=RECALL_KS_ENTRY.keys())
def test_recall_cut_offs_not_integers(entry, ks):
    assert _raised(lambda: entry(ks), FieldValueError) == f"recall_ks must list integer cut-offs >= 1, got {ks}"


OPTIMIZER_ENTRY = {
    "OptimizerState": lambda name, value: OptimizerState(**{name: value}),
    "init_optimizer": lambda name, value: init_optimizer(init_params([3, 2], make_rng(3)), **{name: value}),
}


@pytest.mark.parametrize("name, value, rule", [
    ("learning_rate", -1.0, "a finite number >= 0"),
    ("epsilon", float("nan"), "a finite number > 0"),
    ("step_count", 1.5, "an integer >= 0"),
])
@pytest.mark.parametrize("entry", OPTIMIZER_ENTRY.values(), ids=OPTIMIZER_ENTRY.keys())
def test_optimizer_hyperparameter_out_of_range(tmp_path, entry, name, value, rule):
    message = _raised(lambda: entry(name, value), FieldValueError)
    assert message == f"{name} must be {rule}, got {value!r}"
    visual, text = init_params([3, 2], make_rng(1)), init_params([4, 2], make_rng(2))
    path = tmp_path / "c.json"
    save_checkpoint(path, visual, text, init_optimizer(visual), init_optimizer(text), seed=0)
    payload = json.loads(path.read_text())
    payload["visual_optimizer"][name] = value
    path.write_text(json.dumps(payload))
    loaded = _raised(lambda: load_checkpoint(path), CorruptFileError)
    assert loaded == f"checkpoint {path} is not readable (FieldValueError: visual_optimizer.{message})"


def _diverged_adamw_step():
    params = init_params([3, 2, 2], make_rng(19))
    grad = np.zeros_like(params.vector)
    grad[-1] = 1e10  # the last bias moves by lr * 1e10 / (1e10 + eps), which overflows
    with np.errstate(over="ignore"):
        adamw_step(params, grad, init_optimizer(params, learning_rate=1e308, weight_decay=0.0))


PARAMETER_ENTRY = {
    "EncoderParams": lambda: EncoderParams(layers=[(np.ones((3, 2)), np.zeros(2)), (np.ones((2, 2)), np.full(2, np.inf))]),
    "adamw_step": _diverged_adamw_step,
}


@pytest.mark.parametrize("entry", PARAMETER_ENTRY.values(), ids=PARAMETER_ENTRY.keys())
def test_non_finite_parameters(entry):
    assert _raised(entry, NonFiniteError) == "layer 1 has non-finite parameters"


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_checkpoint_with_non_finite_weights_is_corrupt(tmp_path, value):
    visual, text = init_params([3, 2], make_rng(1)), init_params([4, 2], make_rng(2))
    path = tmp_path / "c.json"
    save_checkpoint(path, visual, text, init_optimizer(visual), init_optimizer(text), seed=0)
    payload = json.loads(path.read_text())
    payload["text"]["weights"][0][5] = value  # written as NaN, Infinity or -Infinity
    path.write_text(json.dumps(payload))
    message = _raised(lambda: load_checkpoint(path), CorruptFileError)
    assert message == f"checkpoint {path} is not readable (NonFiniteError: layer 0 has non-finite parameters)"


JSON_FILE_ENTRY = {
    "manifest": (lambda path: load_dataset(path.parent), "manifest.json", CorruptFileError),
    "config": (lambda path: load_config(str(path)), "c.json", ConfigError),
    "checkpoint": (load_checkpoint, "c.json", CorruptFileError),
}
BAD_JSON = {
    "not_utf8": (b'{"a": "\xff"}', " is not UTF-8 text (invalid start byte at byte 7)"),
    "truncated": (b'{"a": 1', " line 1 column 8: not valid JSON (Expecting ',' delimiter)"),
    "long_integer": (b'{"a": ' + b"1" * 5000 + b"}", ": not valid JSON (Exceeds the limit (4300 digits)"),
}


@pytest.mark.parametrize("content, after_path", BAD_JSON.values(), ids=BAD_JSON.keys())
@pytest.mark.parametrize("read, name, error", JSON_FILE_ENTRY.values(), ids=JSON_FILE_ENTRY.keys())
def test_unreadable_json_file(tmp_path, read, name, error, content, after_path):
    path = tmp_path / name
    path.write_bytes(content)
    assert _raised(lambda: read(path), error).startswith(f"{path}{after_path}")
