"""Tiny dual encoders mapping pre-extracted features into a shared unit sphere.

An encoder is a stack of affine layers (hidden layers optionally tanh, the
last layer linear) followed by row-wise L2 normalization.  Backpropagation
is written out by hand, including the normalization Jacobian, and updates
use AdamW with decoupled weight decay.  Everything is plain float64 numpy
and bit-deterministic given a seed.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import BadDimsError, CorruptFileError, DimMismatchError, MissingCacheError, ShapeMismatchError, ZeroVectorError
from .numerics import as_matrix, f8le

ACTIVATIONS = ("identity", "tanh")


@dataclass
class EncoderParams:
    """Weights and biases of one encoder; ``layers[i] = (W, b)`` with W (fan_in, fan_out)."""

    layers: list[tuple[np.ndarray, np.ndarray]]
    activation: str = "identity"

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")
        if not self.layers:
            raise BadDimsError("encoder needs at least one layer")
        for i, (w, b) in enumerate(self.layers):
            if w.ndim != 2 or b.ndim != 1 or b.shape[0] != w.shape[1]:
                raise BadDimsError(f"layer {i} shapes do not chain: W {w.shape}, b {b.shape}")
            if i > 0 and self.layers[i - 1][0].shape[1] != w.shape[0]:
                raise BadDimsError(f"layer {i} fan_in {w.shape[0]} != previous fan_out")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {i} has non-finite parameters")

    @property
    def input_dim(self) -> int:
        return self.layers[0][0].shape[0]

    def flat(self) -> list[np.ndarray]:
        """Parameters as a flat list, weights before biases per layer."""
        out = []
        for w, b in self.layers:
            out.extend([w, b])
        return out


@dataclass
class ForwardCache:
    """Intermediates from one forward pass, consumed by :func:`backward`."""

    x: np.ndarray
    hidden: list[np.ndarray]
    norms: np.ndarray
    output: np.ndarray


def init_params(layer_dims: list[int], activation: str = "identity", rng: np.random.Generator | None = None) -> EncoderParams:
    """Glorot-uniform weights (bound sqrt(6/(fan_in+fan_out))), zero biases."""
    if len(layer_dims) < 2 or any(d < 1 for d in layer_dims):
        raise BadDimsError(f"need at least [in, out] with positive dims, got {layer_dims}")
    if rng is None:
        rng = np.random.default_rng(0)
    layers = []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        layers.append((w, np.zeros(fan_out)))
    return EncoderParams(layers=layers, activation=activation)


def forward(params: EncoderParams, x, return_cache: bool = False):
    """Encode feature rows into unit-norm embeddings.

    Hidden layers apply the configured activation; the final layer is
    linear and its rows are L2-normalized.
    """
    x = as_matrix(x, "x")
    if x.shape[1] != params.input_dim:
        raise DimMismatchError(f"input dim {x.shape[1]} != encoder fan_in {params.input_dim}")
    h = x
    hidden = []
    last = len(params.layers) - 1
    for i, (w, b) in enumerate(params.layers):
        a = h @ w + b
        h = np.tanh(a) if (params.activation == "tanh" and i < last) else a
        hidden.append(h)
    norms = np.linalg.norm(h, axis=1, keepdims=True)
    if np.any(norms < 1e-12):
        bad = int(np.argmin(norms))
        raise ZeroVectorError(f"row {bad} collapsed to zero before normalization")
    out = h / norms
    if not return_cache:
        return out
    return out, ForwardCache(x=x, hidden=hidden, norms=norms, output=out)


def backward(params: EncoderParams, cache: ForwardCache | None, grad_out) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """Backpropagate a gradient on the normalized outputs.

    Returns per-layer ``(dW, db)`` in layer order plus the gradient with
    respect to the input rows.  The normalization Jacobian
    (I - u u^T)/||z|| is applied per row first.
    """
    if cache is None:
        raise MissingCacheError("backward needs the cache from forward(..., return_cache=True)")
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape != cache.output.shape:
        raise ShapeMismatchError(f"grad_out shape {grad_out.shape} != output shape {cache.output.shape}")

    u = cache.output
    radial = (u * grad_out).sum(axis=1, keepdims=True)
    delta = (grad_out - u * radial) / cache.norms

    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(params.layers)
    last = len(params.layers) - 1
    for i in range(last, -1, -1):
        w, _ = params.layers[i]
        h_prev = cache.x if i == 0 else cache.hidden[i - 1]
        grads[i] = (h_prev.T @ delta, delta.sum(axis=0))
        delta = delta @ w.T
        if i > 0 and params.activation == "tanh" and (i - 1) < last:
            delta = delta * (1.0 - cache.hidden[i - 1] ** 2)
    return grads, delta


@dataclass
class OptimizerState:
    """AdamW moments and hyperparameters for one encoder's parameter list.

    A loaded checkpoint must hold finite moments, second moments >= 0, an
    integer ``step_count`` >= 0, and finite hyperparameters with
    ``learning_rate`` and ``weight_decay`` >= 0, ``beta1`` and ``beta2`` in
    [0, 1) and ``epsilon`` > 0.
    """

    learning_rate: float = 1e-3
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0
    first_moment: list[np.ndarray] = field(default_factory=list)
    second_moment: list[np.ndarray] = field(default_factory=list)


_MOMENTS = ("first_moment", "second_moment")  # per-parameter arrays; the other fields are scalars
# the range of each float hyperparameter: a test and its wording; beta = 1 would divide by zero
_HYPERPARAMETERS = {
    "learning_rate": (lambda v: v >= 0, ">= 0"),
    "weight_decay": (lambda v: v >= 0, ">= 0"),
    "beta1": (lambda v: 0 <= v < 1, "in [0, 1)"),
    "beta2": (lambda v: 0 <= v < 1, "in [0, 1)"),
    "epsilon": (lambda v: v > 0, "> 0"),
}


def init_optimizer(params: EncoderParams, **hyperparameters) -> OptimizerState:
    """Zero moments for ``params``; keywords override the :class:`OptimizerState` defaults."""
    flats = params.flat()
    moments = {name: [np.zeros_like(p) for p in flats] for name in _MOMENTS}
    return OptimizerState(**hyperparameters, **moments)


def adamw_step(
    params: EncoderParams,
    grads: list[tuple[np.ndarray, np.ndarray]],
    state: OptimizerState,
) -> tuple[EncoderParams, OptimizerState]:
    """One bias-corrected AdamW update with decoupled weight decay.

    The decay term lr * wd * theta is subtracted separately from the
    adaptive gradient step, so zero gradients still shrink the weights.
    """
    flat_params = params.flat()
    flat_grads = []
    for dw, db in grads:
        flat_grads.extend([dw, db])
    if len(flat_grads) != len(flat_params):
        raise ShapeMismatchError(f"{len(flat_grads)} gradient arrays for {len(flat_params)} parameters")
    for p, g in zip(flat_params, flat_grads):
        if p.shape != g.shape:
            raise ShapeMismatchError(f"gradient shape {g.shape} != parameter shape {p.shape}")

    t = state.step_count + 1
    b1, b2 = state.beta1, state.beta2
    lr, wd, eps = state.learning_rate, state.weight_decay, state.epsilon
    new_m, new_v, new_flat = [], [], []
    for p, g, m, v in zip(flat_params, flat_grads, state.first_moment, state.second_moment):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        p = p - lr * m_hat / (np.sqrt(v_hat) + eps) - lr * wd * p
        new_m.append(m)
        new_v.append(v)
        new_flat.append(p)

    layers = [(new_flat[2 * i], new_flat[2 * i + 1]) for i in range(len(params.layers))]
    new_params = EncoderParams(layers=layers, activation=params.activation)
    new_state = replace(state, step_count=t, first_moment=new_m, second_moment=new_v)
    return new_params, new_state


def _params_payload(params: EncoderParams) -> dict:
    return {
        "layer_dims": [params.input_dim] + [w.shape[1] for w, _ in params.layers],
        "activation": params.activation,
        "weights": [w.ravel().tolist() for w, _ in params.layers],
        "biases": [b.tolist() for _, b in params.layers],
    }


_CHECKPOINT_KEYS = ("visual", "text", "visual_optimizer", "text_optimizer", "seed", "schedule_position", "sha256")
_PARAMS_KEYS = ("layer_dims", "activation", "weights", "biases")


def _exact_keys(payload, keys, where: str = "") -> dict:
    """``payload``, which must be an object with exactly ``keys``.

    A missing key raises KeyError and an unknown one ValueError, each naming
    the key with ``where`` as its prefix.
    """
    if not isinstance(payload, dict):
        raise TypeError(f"{where or 'checkpoint'} is a {type(payload).__name__}, not an object")
    prefix = f"{where}." if where else ""
    for key in keys:
        if key not in payload:
            raise KeyError(prefix + key)
    unknown = sorted(set(payload) - set(keys))
    if unknown:
        raise ValueError(f"unknown key {prefix + unknown[0]!r}")
    return payload


def _params_from_payload(payload: dict, key: str) -> EncoderParams:
    dims = _exact_keys(payload, _PARAMS_KEYS, key)["layer_dims"]
    layers = []
    for i, (w_flat, b) in enumerate(zip(payload["weights"], payload["biases"])):
        w = np.asarray(w_flat, dtype=np.float64).reshape(dims[i], dims[i + 1])
        layers.append((w, np.asarray(b, dtype=np.float64)))
    params = EncoderParams(layers=layers, activation=payload["activation"])
    if _params_payload(params)["layer_dims"] != dims:  # also catches weight and bias lists of unequal length
        raise ValueError(f"layer_dims {dims} do not match the weight and bias shapes")
    return params


def _packed(a: np.ndarray) -> dict:
    """An array as its shape and the base64 of its little-endian float64 bytes."""
    return {"shape": list(a.shape), "f8le": base64.b64encode(f8le([a])).decode("ascii")}


def _unpacked(entry: dict, shape: tuple[int, ...], key: str) -> np.ndarray:
    """Inverse of :func:`_packed` for an array that must have ``shape``."""
    if _exact_keys(entry, ("shape", "f8le"), key)["shape"] != list(shape):
        raise ValueError(f"{key} has shape {entry['shape']}, its parameter {list(shape)}")
    raw = base64.b64decode(entry["f8le"], validate=True)
    if base64.b64encode(raw).decode("ascii") != entry["f8le"]:  # unused trailing bits would round-trip silently
        raise ValueError(f"{key} is not canonical base64")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


def _number(key: str, value, ok, rule: str):
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (math.isfinite(value) and ok(value)):
        raise ValueError(f"{key} must be a finite number {rule}, got {value!r}")
    return value


def _count(key: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{key} must be an integer >= 0, got {value!r}")
    return value


def _state_payload(state: OptimizerState) -> dict:
    payload = {f.name: getattr(state, f.name) for f in fields(state)}
    return {**payload, **{name: [_packed(m) for m in payload[name]] for name in _MOMENTS}}


def _state_from_payload(payload: dict, params: EncoderParams, key: str) -> OptimizerState:
    _exact_keys(payload, [f.name for f in fields(OptimizerState)], key)
    shapes = [p.shape for p in params.flat()]
    scalars = {name: _number(f"{key}.{name}", payload[name], ok, rule) for name, (ok, rule) in _HYPERPARAMETERS.items()}
    scalars["step_count"] = _count(f"{key}.step_count", payload["step_count"])
    moments = {}
    for name in _MOMENTS:
        entries = payload[name]
        if len(entries) != len(shapes):
            raise ValueError(f"{key}.{name} has {len(entries)} arrays for {len(shapes)} parameters")
        moments[name] = [_unpacked(e, s, f"{key}.{name}[{i}]") for i, (e, s) in enumerate(zip(entries, shapes))]
        for i, m in enumerate(moments[name]):
            if not np.all(np.isfinite(m)):
                raise ValueError(f"{key}.{name}[{i}] has non-finite values")
            if name == "second_moment" and np.any(m < 0):
                raise ValueError(f"{key}.{name}[{i}] has negative values")
    return OptimizerState(**scalars, **moments)


def _checkpoint_sha256(visual, text, visual_state, text_state, seed, schedule_position) -> str:
    """sha256 of every value of a checkpoint, computed from the arrays in memory.

    It covers the little-endian float64 bytes of each array in a fixed
    order (visual, text, then each optimizer's first and second moments)
    and then the canonical JSON of the shapes and the scalar fields.
    """
    states = [visual_state, text_state]
    moments = [m for s in states if s is not None for name in _MOMENTS for m in getattr(s, name)]
    arrays = visual.flat() + text.flat() + moments
    digest = hashlib.sha256(f8le(arrays))
    scalars = {
        "shapes": [list(a.shape) for a in arrays],
        "activations": [visual.activation, text.activation],
        "optimizers": [None if s is None else {f.name: getattr(s, f.name) for f in fields(s) if f.name not in _MOMENTS}
                       for s in states],
        "seed": seed,
        "schedule_position": schedule_position,
    }
    digest.update(json.dumps(scalars, sort_keys=True).encode())
    return digest.hexdigest()


def save_checkpoint(
    path,
    visual: EncoderParams,
    text: EncoderParams,
    visual_state: OptimizerState | None = None,
    text_state: OptimizerState | None = None,
    seed: int | None = None,
    schedule_position: int = 0,
) -> None:
    """Serialize both encoders plus optimizer state to JSON.

    Weights and biases are JSON floats in Python's shortest round-trip
    repr; each optimizer moment is packed by :func:`_packed`; ``sha256``
    is :func:`_checkpoint_sha256`.  A save -> load -> save cycle is
    byte-identical.
    """
    payload = {
        "visual": _params_payload(visual),
        "text": _params_payload(text),
        "visual_optimizer": None if visual_state is None else _state_payload(visual_state),
        "text_optimizer": None if text_state is None else _state_payload(text_state),
        "seed": seed,
        "schedule_position": schedule_position,
        "sha256": _checkpoint_sha256(visual, text, visual_state, text_state, seed, schedule_position),
    }
    # json.dumps encodes in C; json.dump streams through the pure-Python encoder
    text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_checkpoint(path) -> dict:
    """Inverse of :func:`save_checkpoint`; a file that is not one raises :class:`CorruptFileError`.

    Every object must hold exactly the keys the writer emits, and every value
    is decoded and range-checked first; then the file's ``sha256`` must equal
    the hash of the decoded values.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if isinstance(payload, dict) and "sha256" not in payload:
            raise CorruptFileError(f"checkpoint {path} has no sha256: it predates packed optimizer state "
                                   "(moments as float lists); re-train to write a current checkpoint")
        _exact_keys(payload, _CHECKPOINT_KEYS)
        visual = _params_from_payload(payload["visual"], "visual")
        text = _params_from_payload(payload["text"], "text")
        out = {
            "visual": visual,
            "text": text,
            **{key: None if payload[key] is None else _state_from_payload(payload[key], params, key)
               for key, params in (("visual_optimizer", visual), ("text_optimizer", text))},
            "seed": None if payload["seed"] is None else _count("seed", payload["seed"]),
            "schedule_position": _count("schedule_position", payload["schedule_position"]),
        }
        digest = _checkpoint_sha256(visual, text, out["visual_optimizer"], out["text_optimizer"], out["seed"],
                                    out["schedule_position"])
    # json's errors are ValueErrors; a huge integer where a float belongs is an OverflowError
    except (KeyError, TypeError, ValueError, IndexError, OverflowError, BadDimsError) as exc:
        raise CorruptFileError(f"checkpoint {path} is not readable ({type(exc).__name__}: {exc})") from None
    if payload["sha256"] != digest:
        raise CorruptFileError(f"checkpoint {path} sha256 mismatch; the file is corrupt or was altered")
    return out
