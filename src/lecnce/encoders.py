"""Tiny dual encoders mapping pre-extracted features into a shared unit sphere.

An encoder is a stack of affine layers (hidden layers optionally tanh, the
last layer linear) followed by row-wise L2 normalization.  Backpropagation
is written out by hand, including the normalization Jacobian, and updates
use AdamW with decoupled weight decay.  Everything is plain float64 numpy
and bit-deterministic given a seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import BadDimsError, DimMismatchError, MissingCacheError, ShapeMismatchError, ZeroVectorError
from .numerics import as_matrix

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
    pre_activations: list[np.ndarray]
    hidden: list[np.ndarray]
    prenorm: np.ndarray
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
    pre_acts = []
    hidden = []
    last = len(params.layers) - 1
    for i, (w, b) in enumerate(params.layers):
        a = h @ w + b
        pre_acts.append(a)
        h = np.tanh(a) if (params.activation == "tanh" and i < last) else a
        hidden.append(h)
    norms = np.linalg.norm(h, axis=1, keepdims=True)
    if np.any(norms < 1e-12):
        bad = int(np.argmin(norms))
        raise ZeroVectorError(f"row {bad} collapsed to zero before normalization")
    out = h / norms
    if not return_cache:
        return out
    return out, ForwardCache(x=x, pre_activations=pre_acts, hidden=hidden, prenorm=h, norms=norms, output=out)


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
    """AdamW moments and hyperparameters for one encoder's parameter list."""

    learning_rate: float = 1e-3
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0
    first_moment: list[np.ndarray] = field(default_factory=list)
    second_moment: list[np.ndarray] = field(default_factory=list)


_MOMENTS = ("first_moment", "second_moment")  # per-parameter arrays; the other fields are scalars


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


def _params_from_payload(payload: dict) -> EncoderParams:
    dims = payload["layer_dims"]
    layers = []
    for i, (w_flat, b) in enumerate(zip(payload["weights"], payload["biases"])):
        w = np.asarray(w_flat, dtype=np.float64).reshape(dims[i], dims[i + 1])
        layers.append((w, np.asarray(b, dtype=np.float64)))
    return EncoderParams(layers=layers, activation=payload["activation"])


def _state_payload(state: OptimizerState) -> dict:
    payload = {f.name: getattr(state, f.name) for f in fields(state)}
    return {**payload, **{name: [m.ravel().tolist() for m in payload[name]] for name in _MOMENTS}}


def _state_from_payload(payload: dict, params: EncoderParams) -> OptimizerState:
    shapes = [p.shape for p in params.flat()]
    scalars = {f.name: payload[f.name] for f in fields(OptimizerState) if f.name not in _MOMENTS}
    moments = {name: [np.asarray(m, dtype=np.float64).reshape(s) for m, s in zip(payload[name], shapes)] for name in _MOMENTS}
    return OptimizerState(**scalars, **moments)


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

    Floats are written with Python's shortest round-trip repr, so a
    save -> load -> save cycle is byte-identical.
    """
    payload = {
        "visual": _params_payload(visual),
        "text": _params_payload(text),
        "visual_optimizer": _state_payload(visual_state) if visual_state else None,
        "text_optimizer": _state_payload(text_state) if text_state else None,
        "seed": seed,
        "schedule_position": schedule_position,
    }
    # json.dumps encodes in C; json.dump streams through the pure-Python encoder
    text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_checkpoint(path) -> dict:
    """Inverse of :func:`save_checkpoint`; returns a dict of reconstructed objects."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    visual = _params_from_payload(payload["visual"])
    text = _params_from_payload(payload["text"])
    return {
        "visual": visual,
        "text": text,
        "visual_optimizer": _state_from_payload(payload["visual_optimizer"], visual) if payload["visual_optimizer"] else None,
        "text_optimizer": _state_from_payload(payload["text_optimizer"], text) if payload["text_optimizer"] else None,
        "seed": payload["seed"],
        "schedule_position": payload["schedule_position"],
    }
