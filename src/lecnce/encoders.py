"""Tiny dual encoders mapping pre-extracted features into a shared unit sphere.

An encoder is a stack of affine layers followed by row-wise L2
normalization; no layer has a nonlinearity.  Backpropagation
is written out by hand, including the normalization Jacobian, and updates
use AdamW with decoupled weight decay.  Everything is plain float64 numpy
and bit-deterministic given a seed.
"""

from __future__ import annotations

import base64
import hashlib
import json
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (CorruptFileError, DimMismatchError, FieldValueError, MissingCacheError, NonFiniteError,
                     ZeroVectorError, is_a, read_json, write_file)
from .numerics import ZERO_NORM_TOL, _row_dots, as_matrix, f8le


@dataclass
class EncoderParams:
    """Weights and biases of one encoder; ``layers[i] = (W, b)`` with W (fan_in, fan_out).

    Every W and b is a view of one float64 ``vector`` that holds each layer's
    W (row-major) and then its b, in layer order: the layout of the flat
    gradient from :func:`backward` and of the AdamW moments.  Construction
    copies the given arrays into a new vector.
    """

    layers: list[tuple[np.ndarray, np.ndarray]]
    vector: np.ndarray = field(init=False, repr=False, compare=False)

    @property
    def activation(self) -> str:
        """Always ``"identity"``: every layer is affine.  Checkpoints and their hash still name it."""
        return "identity"

    def __post_init__(self):
        if not self.layers:
            raise DimMismatchError("encoder needs at least one layer")
        for i, (w, b) in enumerate(self.layers):
            if w.ndim != 2 or b.ndim != 1 or b.shape[0] != w.shape[1]:
                raise DimMismatchError(f"layer {i} shapes do not chain: W {w.shape}, b {b.shape}")
            if i > 0 and self.layers[i - 1][0].shape[1] != w.shape[0]:
                raise DimMismatchError(f"layer {i} fan_in {w.shape[0]} != previous fan_out")
        vector = np.concatenate([a.ravel() for layer in self.layers for a in layer], dtype=np.float64)
        _check_finite(self, vector)
        self.vector, self.layers = vector, self.split(vector)

    @property
    def input_dim(self) -> int:
        return self.layers[0][0].shape[0]

    @property
    def layer_dims(self) -> list[int]:
        """The input dim, then each layer's fan_out."""
        return [self.input_dim] + [w.shape[1] for w, _ in self.layers]

    def split(self, vector: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """``vector``, laid out as :attr:`vector`, as per-layer ``(W, b)`` views."""
        out, pos = [], 0
        for w, b in self.layers:
            end = pos + w.size
            out.append((vector[pos:end].reshape(w.shape), vector[end : end + b.size]))
            pos = end + b.size
        return out


def _check_finite(params: EncoderParams, vector: np.ndarray) -> None:
    """:class:`NonFiniteError` naming the first layer of ``params``' layout whose part of ``vector`` is not finite."""
    if not np.isfinite(vector).all():
        bad = next(i for i, layer in enumerate(params.split(vector)) if not all(np.isfinite(a).all() for a in layer))
        raise NonFiniteError(f"layer {bad} has non-finite parameters")


@dataclass
class ForwardCache:
    """Intermediates from one forward pass, consumed by :func:`backward`.

    ``hidden[i]`` is the output of hidden layer i.
    """

    x: np.ndarray
    hidden: list[np.ndarray]
    norms: np.ndarray
    output: np.ndarray


def init_params(layer_dims: list[int], rng: np.random.Generator) -> EncoderParams:
    """Glorot-uniform weights (bound sqrt(6/(fan_in+fan_out))), zero biases."""
    if len(layer_dims) < 2 or any(d < 1 for d in layer_dims):
        raise DimMismatchError(f"need at least [in, out] with positive dims, got {layer_dims}")
    layers = []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        layers.append((w, np.zeros(fan_out)))
    return EncoderParams(layers=layers)


def forward(params: EncoderParams, x, return_cache: bool = False):
    """Encode feature rows into unit-norm embeddings.

    Every layer is affine; the final layer's rows are L2-normalized.
    """
    x = as_matrix(x, "x")
    if x.shape[1] != params.input_dim:
        raise DimMismatchError(f"input dim {x.shape[1]} != encoder fan_in {params.input_dim}")
    h = x
    hidden = []
    for w, b in params.layers[:-1]:
        h = h @ w
        h += b
        hidden.append(h)
    w, b = params.layers[-1]
    out = h @ w
    out += b
    # each row's norm is np.linalg.norm of that row alone, whatever the batch
    norms = np.sqrt(_row_dots(out, out))[:, None]
    if np.any(norms < ZERO_NORM_TOL):
        bad = int(np.argmin(norms))
        raise ZeroVectorError(f"row {bad} collapsed to zero before normalization")
    out /= norms
    if not return_cache:
        return out
    return out, ForwardCache(x=x, hidden=hidden, norms=norms, output=out)


def backward(params: EncoderParams, cache: ForwardCache | None, grad_out) -> np.ndarray:
    """Backpropagate a gradient on the normalized outputs to the parameters.

    Returns the gradient of every parameter as one vector laid out as
    ``params.vector``.  The normalization Jacobian (I - u u^T)/||z|| is
    applied per row first; the input rows get no gradient.
    """
    if cache is None:
        raise MissingCacheError("backward needs the cache from forward(..., return_cache=True)")
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape != cache.output.shape:
        raise DimMismatchError(f"grad_out shape {grad_out.shape} != output shape {cache.output.shape}")

    u = cache.output
    delta = u * _row_dots(u, grad_out)[:, None]
    np.subtract(grad_out, delta, out=delta)
    delta /= cache.norms

    grad = np.empty_like(params.vector)
    for i, (dw, db) in reversed(list(enumerate(params.split(grad)))):
        dw[...] = (cache.x if i == 0 else cache.hidden[i - 1]).T @ delta
        db[...] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ params.layers[i][0].T
    return grad


@dataclass(frozen=True)
class OptimizerState:
    """AdamW moments and hyperparameters for one encoder's parameter vector.

    Each moment is one vector laid out as the encoder's ``vector``.  The
    hyperparameters must be finite, with ``learning_rate`` and
    ``weight_decay`` >= 0, ``beta1`` and ``beta2`` in [0, 1) and
    ``epsilon`` > 0, and ``step_count`` an integer >= 0; a loaded checkpoint
    must also hold finite moments and second moments >= 0.  They are checked
    once, when the state is made: it is frozen, so :func:`adamw_step` keeps
    them unchecked.
    """

    learning_rate: float = 1e-3
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0
    first_moment: np.ndarray = field(default_factory=lambda: np.zeros(0))
    second_moment: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        _scalars(vars(self))


_MOMENTS = ("first_moment", "second_moment")  # vectors laid out as the parameters; the other fields are scalars
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
    return OptimizerState(**hyperparameters, **{name: np.zeros_like(params.vector) for name in _MOMENTS})


def adamw_step(params: EncoderParams, grad, state: OptimizerState) -> tuple[EncoderParams, OptimizerState]:
    """One bias-corrected AdamW update with decoupled weight decay.

    ``grad`` is the flat gradient from :func:`backward`; the new parameter
    vector is checked finite, and nothing else is checked again.  One elementwise
    pass over the parameter and moment vectors; the decay term
    lr * wd * theta is subtracted separately from the adaptive gradient
    step, so zero gradients still shrink the weights.
    """
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != params.vector.shape:
        raise DimMismatchError(f"gradient shape {grad.shape} != parameter vector shape {params.vector.shape}")

    t = state.step_count + 1
    b1, b2 = state.beta1, state.beta2
    lr, wd, eps = state.learning_rate, state.weight_decay, state.epsilon
    theta = params.vector
    # p - lr * m_hat / (sqrt(v_hat) + eps) - lr * wd * p, each operation as written, in place where it can be
    m = b1 * state.first_moment
    m += (1.0 - b1) * grad
    v = (1.0 - b2) * grad
    v *= grad
    v += b2 * state.second_moment
    step = m / (1.0 - b1 ** t)
    step *= lr
    root = v / (1.0 - b2 ** t)
    np.sqrt(root, out=root)
    root += eps
    step /= root
    new = theta - step
    new -= (lr * wd) * theta
    _check_finite(params, new)
    # made without __post_init__: the vector was checked just now, the
    # frozen state's hyperparameters when it was made
    new_params, new_state = object.__new__(EncoderParams), object.__new__(OptimizerState)
    new_params.__dict__.update(vector=new, layers=params.split(new))
    new_state.__dict__.update(vars(state), step_count=t, first_moment=m, second_moment=v)
    return new_params, new_state


def _params_payload(params: EncoderParams) -> dict:
    return {
        "layer_dims": params.layer_dims,
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
    if payload["activation"] != "identity":  # an encoder has no other; a file naming one cannot be run
        raise ValueError(f"{key}.activation must be 'identity', got {payload['activation']!r}")
    weights, biases = payload["weights"], payload["biases"]
    if len(weights) != len(biases):
        raise ValueError(f"{key} has {len(weights)} weight and {len(biases)} bias lists")
    layers = []
    for i, (w_flat, b) in enumerate(zip(weights, biases)):
        for name, values in (("weights", w_flat), ("biases", b)):  # EncoderParams names a non-finite one
            if not (isinstance(values, list) and all(type(v) in (int, float) for v in values)):
                raise ValueError(f"{key}.{name}[{i}] must be a list of JSON numbers")
        w = np.asarray(w_flat, dtype=np.float64).reshape(dims[i], dims[i + 1])
        layers.append((w, np.asarray(b, dtype=np.float64)))
    params = EncoderParams(layers=layers)
    if params.layer_dims != dims:
        raise ValueError(f"layer_dims {dims} do not match the weight and bias shapes")
    return params


def _packed(a: np.ndarray) -> dict:
    """An array as its shape and the base64 of its little-endian float64 bytes."""
    return {"shape": list(a.shape), "f8le": base64.b64encode(f8le([a])).decode("ascii")}


def _unpacked(entry: dict, size: int, key: str) -> np.ndarray:
    """Inverse of :func:`_packed` for a vector that must hold ``size`` values."""
    raw = base64.b64decode(_exact_keys(entry, ("shape", "f8le"), key)["f8le"], validate=True)
    if base64.b64encode(raw).decode("ascii") != entry["f8le"]:  # unused trailing bits would round-trip silently
        raise ValueError(f"{key} is not canonical base64")
    if entry["shape"] != [size] or len(raw) != 8 * size:
        raise ValueError(f"{key} has shape {entry['shape']} and {len(raw)} bytes; its parameters are {size} values")
    return np.frombuffer(bytearray(raw), dtype="<f8")  # over a bytearray, so the moment is writable


def _number(key: str, value, ok, rule: str):
    if not (is_a(value, float) and ok(value)):
        raise FieldValueError(key, f"must be a finite number {rule}, got {value!r}")
    return value


def _count(key: str, value) -> int:
    if not (is_a(value, int) and value >= 0):
        raise FieldValueError(key, f"must be an integer >= 0, got {value!r}")
    return value


def _scalars(values, prefix: str = "") -> dict:
    """The hyperparameters and ``step_count`` of the mapping ``values``, checked; errors name ``prefix + key``."""
    out = {name: _number(prefix + name, values[name], ok, rule) for name, (ok, rule) in _HYPERPARAMETERS.items()}
    out["step_count"] = _count(prefix + "step_count", values["step_count"])
    return out


def _state_payload(state: OptimizerState, params: EncoderParams) -> dict:
    payload = {f.name: getattr(state, f.name) for f in fields(state)}
    for name in _MOMENTS:
        if payload[name].shape != params.vector.shape:
            raise DimMismatchError(f"{name} shape {payload[name].shape} != parameter vector shape {params.vector.shape}")
        payload[name] = _packed(payload[name])
    return payload


def _state_from_payload(payload: dict, params: EncoderParams, key: str) -> OptimizerState:
    _exact_keys(payload, [f.name for f in fields(OptimizerState)], key)
    moments = {name: _unpacked(payload[name], params.vector.size, f"{key}.{name}") for name in _MOMENTS}
    for name, m in moments.items():
        if not np.all(np.isfinite(m)):
            raise ValueError(f"{key}.{name} has non-finite values")
        if name == "second_moment" and np.any(m < 0):
            raise ValueError(f"{key}.{name} has negative values")
    return OptimizerState(**_scalars(payload, f"{key}."), **moments)


def _checkpoint_sha256(visual, text, visual_state, text_state, seed, schedule_position) -> str:
    """sha256 of every value of a checkpoint, computed from the vectors in memory.

    It covers the little-endian float64 bytes of six vectors in a fixed
    order (the visual and text parameters, then the visual optimizer's
    first and second moments and the text optimizer's) and then the
    canonical JSON of both encoders' layer dims and activations, each
    optimizer's scalar fields, the seed and the schedule position.
    """
    states = [visual_state, text_state]
    vectors = [visual.vector, text.vector] + [getattr(s, name) for s in states for name in _MOMENTS]
    digest = hashlib.sha256(f8le(vectors))
    scalars = {
        "layer_dims": [visual.layer_dims, text.layer_dims],
        "activations": [visual.activation, text.activation],
        "optimizers": [{f.name: getattr(s, f.name) for f in fields(s) if f.name not in _MOMENTS} for s in states],
        "seed": seed,
        "schedule_position": schedule_position,
    }
    digest.update(json.dumps(scalars, sort_keys=True).encode())
    return digest.hexdigest()


def save_checkpoint(
    path,
    visual: EncoderParams,
    text: EncoderParams,
    visual_state: OptimizerState,
    text_state: OptimizerState,
    seed: int,
    schedule_position: int = 0,
) -> None:
    """Serialize both encoders plus optimizer state to JSON.

    Weights and biases are JSON floats in Python's shortest round-trip
    repr; each optimizer moment is its whole vector, of shape
    ``[n_params]`` and laid out as the encoder's ``vector``, packed by
    :func:`_packed`; ``sha256`` is :func:`_checkpoint_sha256`.  The file is
    replaced whole (:func:`~lecnce.errors.write_file`).  A save -> load -> save cycle
    is byte-identical.
    """
    payload = {
        "visual": _params_payload(visual),
        "text": _params_payload(text),
        "visual_optimizer": _state_payload(visual_state, visual),
        "text_optimizer": _state_payload(text_state, text),
        "seed": seed,
        "schedule_position": schedule_position,
        "sha256": _checkpoint_sha256(visual, text, visual_state, text_state, seed, schedule_position),
    }
    # json.dumps encodes in C; json.dump streams through the pure-Python encoder
    write_file(path, json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def load_checkpoint(path) -> dict:
    """Inverse of :func:`save_checkpoint`; a file that is not one raises :class:`CorruptFileError`.

    Every object must hold exactly the keys the writer emits, and every value
    is decoded and range-checked first: each ``activation`` is ``"identity"``,
    each weight and bias list holds JSON numbers (not ``"0.5"`` or ``true``),
    and each moment is one finite packed vector of its encoder's length,
    second moments >= 0.  Then the file's ``sha256`` must equal the hash of
    the decoded values.  No older layout is read.  A file that is not UTF-8
    JSON fails with :func:`~lecnce.errors.read_json`'s message, as any input
    file does.
    """
    payload = read_json(path, CorruptFileError)
    try:
        if isinstance(payload, dict) and "sha256" not in payload:
            raise CorruptFileError(f"checkpoint {path} has no sha256: it predates packed optimizer state "
                                   "(moments as float lists); re-train to write a current checkpoint")
        _exact_keys(payload, _CHECKPOINT_KEYS)
        out = {key: _params_from_payload(payload[key], key) for key in ("visual", "text")}
        for key in ("visual", "text"):
            out[f"{key}_optimizer"] = _state_from_payload(payload[f"{key}_optimizer"], out[key], f"{key}_optimizer")
        out |= {key: _count(key, payload[key]) for key in ("seed", "schedule_position")}
        digest = _checkpoint_sha256(*out.values())  # out lists the values in the hash's parameter order
    # a huge integer where a float belongs is an OverflowError
    except (KeyError, TypeError, ValueError, IndexError, OverflowError, DimMismatchError, NonFiniteError) as exc:
        raise CorruptFileError(f"checkpoint {path} is not readable ({type(exc).__name__}: {exc})") from None
    if payload["sha256"] != digest:
        raise CorruptFileError(f"checkpoint {path} sha256 mismatch; the file is corrupt or was altered")
    return out
