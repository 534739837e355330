import base64
import dataclasses
import hashlib
import io
import json
import os

import numpy as np
import pytest
from helpers import (flat_grad, old_format_checkpoint, per_array_adamw_step, per_layer_backward,
                     per_parameter_checkpoint, rel_error, unit_rows)
from hypothesis import given, settings
from hypothesis import strategies as st

from lecnce import encoders
from lecnce.encoders import (
    EncoderParams,
    OptimizerState,
    adamw_step,
    backward,
    forward,
    init_optimizer,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from lecnce.errors import CorruptFileError, DimMismatchError, FieldValueError, MissingCacheError, NonFiniteError
from lecnce.losses import LossConfig, diagonal_positives, hier_lecnce, info_nce
from lecnce.numerics import finite_diff_grad, make_rng


def flat_params(params):
    return params.vector.copy()


def params_from_flat(template, flat):
    return EncoderParams(layers=template.split(flat))


class TestInitParams:
    def test_deterministic(self):
        a = init_params([4, 4], make_rng(7))
        b = init_params([4, 4], make_rng(7))
        for (wa, ba), (wb, bb) in zip(a.layers, b.layers):
            np.testing.assert_array_equal(wa, wb)
            np.testing.assert_array_equal(ba, bb)

    def test_biases_zero(self):
        p = init_params([6, 5, 3], make_rng(1))
        for _, b in p.layers:
            assert not b.any()

    def test_weight_bound(self):
        bound = np.sqrt(6.0 / 8.0)
        rng = make_rng(2)
        draws = []
        for _ in range(250):
            p = init_params([4, 4], rng)
            draws.append(p.layers[0][0].ravel())
        draws = np.concatenate(draws)
        assert draws.size == 4000
        assert np.all(np.abs(draws) <= bound)
        assert np.abs(draws).max() > 0.8 * bound  # the bound is actually approached

    def test_bad_dims(self):
        with pytest.raises(DimMismatchError, match=r"need at least \[in, out\] with positive dims, got \[4\]"):
            init_params([4], make_rng(0))
        with pytest.raises(DimMismatchError, match=r"need at least \[in, out\] with positive dims, got \[4, 0\]"):
            init_params([4, 0], make_rng(0))


class TestForward:
    def test_identity_map(self):
        p = EncoderParams(layers=[(np.eye(3), np.zeros(3))])
        x = unit_rows(make_rng(3), 4, 3)
        np.testing.assert_allclose(forward(p, x), x, atol=1e-12)

    def test_rows_unit_norm(self):
        rng = make_rng(4)
        for _ in range(100):
            dims = [int(rng.integers(2, 7)) for _ in range(int(rng.integers(2, 4)))]
            p = init_params(dims, rng)
            x = rng.normal(size=(int(rng.integers(1, 6)), dims[0]))
            out = forward(p, x)
            np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-9)

    def test_dim_mismatch(self):
        p = init_params([4, 2], make_rng(5))
        with pytest.raises(DimMismatchError):
            forward(p, np.ones((2, 3)))

    def test_vjp_wrt_input_matches_finite_differences(self):
        rng = make_rng(6)
        p = init_params([5, 4, 3], rng)
        x = rng.normal(size=(3, 5))
        w = rng.normal(size=(3, 3))
        out, cache = forward(p, x, return_cache=True)
        _, grad_x = per_layer_backward(p, cache, w)  # backward itself stops at the first layer's weights

        def f(flat):
            return float((w * forward(p, flat.reshape(3, 5))).sum())

        numeric = finite_diff_grad(f, x.ravel())
        assert rel_error(grad_x, numeric) < 1e-4


class TestBackward:
    def test_zero_grad_out(self):
        rng = make_rng(7)
        p = init_params([4, 3], rng)
        x = rng.normal(size=(2, 4))
        _, cache = forward(p, x, return_cache=True)
        grad = backward(p, cache, np.zeros((2, 3)))
        assert grad.shape == p.vector.shape and not grad.any()
        assert not per_layer_backward(p, cache, np.zeros((2, 3)))[1].any()

    def test_radial_grad_out_annihilated(self):
        rng = make_rng(8)
        p = init_params([4, 3], rng)
        x = rng.normal(size=(2, 4))
        out, cache = forward(p, x, return_cache=True)
        grad = backward(p, cache, 2.5 * out)  # parallel to each output row
        assert np.abs(grad).max() < 1e-12
        assert np.abs(per_layer_backward(p, cache, 2.5 * out)[1]).max() < 1e-12

    def test_missing_cache(self):
        p = init_params([3, 2], make_rng(9))
        with pytest.raises(MissingCacheError):
            backward(p, None, np.zeros((1, 2)))

    def test_param_grads_match_finite_differences(self):
        rng = make_rng(10)
        p = init_params([4, 5, 3], rng)
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(3, 3))
        _, cache = forward(p, x, return_cache=True)
        analytic = backward(p, cache, w)

        def f(flat):
            return float((w * forward(params_from_flat(p, flat), x)).sum())

        numeric = finite_diff_grad(f, flat_params(p))
        assert rel_error(analytic, numeric) < 1e-4


class TestRowContract:
    """The row-wise part of the kernel, the norm and the radial term, depends on each row alone, with ==.

    The encoder here has one diagonal layer: each product then is one exact
    multiply in any BLAS kernel, and a one-row call's difference from a
    stacked one can only come from the row-wise code.  (A general W does not
    keep this: numpy takes a one-row product through gemv and a stack
    through gemm, which round differently.)  The stacks include the
    reference video step's 25 x 64 = 1,600 rows.
    """

    @staticmethod
    def _diagonal(rng, d):
        return EncoderParams(layers=[(np.diag(rng.uniform(0.5, 2.0, size=d)), rng.normal(size=d))])

    @pytest.mark.parametrize("n, d", [(2, 6), (64, 32), (1600, 32)])
    def test_row_of_a_stack_equals_the_row_alone(self, n, d):
        rng = make_rng(40)
        p = self._diagonal(rng, d)
        x, g = rng.normal(size=(n, d)), rng.normal(size=(n, d))
        out, cache = forward(p, x, return_cache=True)
        for k in sorted({0, n // 3, n - 1}):
            alone, alone_cache = forward(p, x[k : k + 1], return_cache=True)
            assert np.array_equal(out[k], alone[0]) and cache.norms[k] == alone_cache.norms[0]
            only_k = np.zeros_like(g)
            only_k[k] = g[k]  # the other rows add exact zeros to the sums over rows
            assert np.array_equal(backward(p, cache, only_k), backward(p, alone_cache, g[k : k + 1]))

    @pytest.mark.parametrize("dims", [[12, 6], [24, 32], [32, 32, 32]])
    def test_norm_is_linalg_norm_of_the_row(self, dims):
        rng = make_rng(41)
        p = init_params(dims, rng)
        x = rng.normal(size=(200, dims[0]))
        _, cache = forward(p, x, return_cache=True)
        w, b = p.layers[-1]
        z = (cache.hidden[-1] if cache.hidden else x) @ w  # the stack's own product, so the same bytes
        z += b
        assert cache.norms.shape == (200, 1)
        assert [float(v) for v in cache.norms[:, 0]] == [float(np.linalg.norm(row)) for row in z]


class TestComposedWithLosses:
    """Parameter gradients through encoders and every loss, vs finite differences."""

    def _setup(self, seed):
        rng = make_rng(seed)
        f = init_params([6, 4], rng)
        g = init_params([5, 4], rng)
        return rng, f, g

    def test_info_nce_through_encoders(self):
        rng, f, g = self._setup(11)
        xv = rng.normal(size=(4, 6))
        xt = rng.normal(size=(4, 5))
        cfg = LossConfig(temperature_infonce=0.3)

        def loss_given(fp, gp, want_grads=False):
            ev, cv = forward(fp, xv, return_cache=True)
            et, ct = forward(gp, xt, return_cache=True)
            out = info_nce(ev @ et.T, diagonal_positives(4), cfg.temperature_infonce, True)
            if not want_grads:
                return out.value
            gs = out.grads["sim"]
            return out.value, backward(fp, cv, gs @ et), backward(gp, ct, gs.T @ ev)

        _, fv, gt = loss_given(f, g, want_grads=True)
        for params, analytic, other in ((f, fv, "f"), (g, gt, "g")):

            def scalar(flat, _params=params, _which=other):
                rebuilt = params_from_flat(_params, flat)
                return loss_given(rebuilt if _which == "f" else f, rebuilt if _which == "g" else g)

            numeric = finite_diff_grad(scalar, flat_params(params))
            assert rel_error(analytic, numeric) < 1e-4

    def test_hier_lecnce_through_encoders(self):
        rng, f, g = self._setup(12)
        cfg = LossConfig(lambda_dtw=0.5, temperature_infonce=0.3)
        xv = [rng.normal(size=(3, 6)) for _ in range(3)]
        xp = rng.normal(size=(3, 5))
        xc = [rng.normal(size=(2, 5)) for _ in range(3)]

        def run(fp, gp, want_grads=False):
            f_embs, f_caches = zip(*[forward(fp, x, return_cache=True) for x in xv])
            p_emb, p_cache = forward(gp, xp, return_cache=True)
            c_embs, c_caches = zip(*[forward(gp, x, return_cache=True) for x in xc])
            out = hier_lecnce(list(f_embs), p_emb, list(c_embs), cfg)
            if not want_grads:
                return out.value
            fv = sum(backward(fp, cache, gr) for cache, gr in zip(f_caches, out.grads["segment_frames"]))
            gt = backward(gp, p_cache, out.grads["parent_texts"])
            gt = gt + sum(backward(gp, cache, gr) for cache, gr in zip(c_caches, out.grads["child_texts"]))
            return out.value, fv, gt

        _, fv, gt = run(f, g, want_grads=True)
        for params, analytic, which in ((f, fv, "f"), (g, gt, "g")):

            def scalar(flat, _params=params, _which=which):
                rebuilt = params_from_flat(_params, flat)
                return run(rebuilt if _which == "f" else f, rebuilt if _which == "g" else g)

            numeric = finite_diff_grad(scalar, flat_params(params))
            assert rel_error(analytic, numeric) < 1e-4


class TestAdamW:
    def test_pure_decay_with_zero_gradients(self):
        rng = make_rng(13)
        p = init_params([3, 2], rng)
        state = init_optimizer(p, learning_rate=0.1, weight_decay=0.01)
        new_p, new_state = adamw_step(p, np.zeros_like(p.vector), state)
        for (w0, _), (w1, _) in zip(p.layers, new_p.layers):
            np.testing.assert_allclose(w1, w0 * (1 - 0.001), atol=1e-15)
        assert new_state.step_count == 1

    def test_constant_gradient_approaches_sign_update(self):
        p = EncoderParams(layers=[(np.zeros((1, 1)), np.zeros(1))])
        state = init_optimizer(p, learning_rate=0.05, weight_decay=0.0)
        g = np.full(2, 0.37)  # W, then b
        prev = p.layers[0][0].copy()
        for _ in range(200):
            p, state = adamw_step(p, g, state)
        step = prev - p.layers[0][0]
        # after many constant-gradient steps the per-step move approaches lr
        p2, _ = adamw_step(p, g, state)
        per_step = p.layers[0][0] - p2.layers[0][0]
        assert abs(per_step[0, 0] - 0.05) < 1e-3

    def test_step_count_increments(self):
        p = init_params([2, 2], make_rng(14))
        state = init_optimizer(p)
        zero = np.zeros_like(p.vector)
        for expected in (1, 2, 3):
            p, state = adamw_step(p, zero, state)
            assert state.step_count == expected

    def test_shape_mismatch(self):
        p = init_params([2, 2], make_rng(15))
        state = init_optimizer(p)
        with pytest.raises(DimMismatchError, match=r"gradient shape \(3,\) != parameter vector shape \(6,\)"):
            adamw_step(p, np.zeros(3), state)
        with pytest.raises(DimMismatchError, match=r"gradient shape \(2, 3\) != parameter vector shape \(6,\)"):
            adamw_step(p, np.zeros((2, 3)), state)


class TestFlatLayout:
    def test_layers_are_views_of_one_vector(self):
        w0, b0, w1, b1 = np.arange(12.0).reshape(3, 4), np.arange(4.0), np.arange(8.0).reshape(4, 2), np.arange(2.0)
        p = EncoderParams(layers=[(w0, b0), (w1, b1)])
        np.testing.assert_array_equal(p.vector, np.concatenate([w0.ravel(), b0, w1.ravel(), b1]))
        for a, want in zip([x for layer in p.layers for x in layer], (w0, b0, w1, b1), strict=True):
            assert np.shares_memory(a, p.vector) and not np.shares_memory(a, want)
            np.testing.assert_array_equal(a, want)
        other = np.arange(p.vector.size, dtype=float)
        for (w, b), (ow, ob) in zip(p.layers, p.split(other), strict=True):
            assert ow.shape == w.shape and ob.shape == b.shape and np.shares_memory(ow, other)

    def test_non_finite_parameter_names_its_layer(self):
        w = np.ones((2, 2))
        w[1, 0] = np.inf
        with pytest.raises(NonFiniteError, match="layer 1 has non-finite parameters"):
            EncoderParams(layers=[(np.ones((3, 2)), np.zeros(2)), (w, np.zeros(2))])

    def test_adamw_overflow_names_its_layer(self):
        p = init_params([3, 2, 2], make_rng(19))
        state = init_optimizer(p, learning_rate=1e308, weight_decay=0.0)
        grad = np.zeros_like(p.vector)
        grad[-1] = 1e10  # the last bias moves by lr * 1e10 / (1e10 + eps), which overflows
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="layer 1 has non-finite parameters"):
            adamw_step(p, grad, state)


class TestFlatOracles:
    """The flat backward and the fused AdamW equal the per-layer and per-array loops they replace, with ==."""

    @pytest.mark.parametrize("dims", [[5, 4, 3], [6, 5, 4, 3]])
    def test_backward_and_adamw_equal_their_oracles(self, dims):
        rng = make_rng(20 + len(dims))
        p = init_params(dims, rng)
        state = init_optimizer(p, learning_rate=0.05, weight_decay=0.01)
        oracle_p, oracle_state = p, state
        for _ in range(4):
            x = rng.normal(size=(7, dims[0]))
            grad_out = rng.normal(size=(7, dims[-1]))
            _, cache = forward(p, x, return_cache=True)
            grad = backward(p, cache, grad_out)
            oracle_grads, _ = per_layer_backward(oracle_p, forward(oracle_p, x, return_cache=True)[1], grad_out)
            np.testing.assert_array_equal(grad, flat_grad(oracle_grads))
            p, state = adamw_step(p, grad, state)
            oracle_p, oracle_state = per_array_adamw_step(oracle_p, oracle_grads, oracle_state)
            np.testing.assert_array_equal(p.vector, oracle_p.vector)
            np.testing.assert_array_equal(state.first_moment, oracle_state.first_moment)
            np.testing.assert_array_equal(state.second_moment, oracle_state.second_moment)
            assert state.step_count == oracle_state.step_count
        assert np.any(state.second_moment > 0)


class TestAdamWKeepsCheckedState:
    """The state is checked once, when made; adamw_step neither re-checks it nor lets it change."""

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(OptimizerState)])
    def test_fields_cannot_be_assigned(self, name):
        state = init_optimizer(init_params([3, 2], make_rng(24)))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(state, name, getattr(state, name))

    def test_steps_make_no_scalar_checks_and_equal_the_oracle(self, monkeypatch):
        rng = make_rng(25)
        p = init_params([5, 4, 3], rng)
        state = init_optimizer(p, learning_rate=0.05, weight_decay=0.01)
        oracle_p, oracle_state = p, state
        checks = []  # one entry per _scalars call
        scalars = encoders._scalars
        monkeypatch.setattr(encoders, "_scalars", lambda *args: checks.append(args) or scalars(*args))
        step_checks = 0
        for _ in range(5):
            grad = rng.normal(size=p.vector.shape)
            before = len(checks)
            p, state = adamw_step(p, grad, state)
            step_checks += len(checks) - before
            oracle_p, oracle_state = per_array_adamw_step(oracle_p, p.split(grad), oracle_state)
            assert isinstance(state, OptimizerState) and isinstance(p, EncoderParams)
            np.testing.assert_array_equal(p.vector, oracle_p.vector)
            for (w, b), (ow, ob) in zip(p.layers, oracle_p.layers, strict=True):
                assert np.shares_memory(w, p.vector) and np.shares_memory(b, p.vector)
                np.testing.assert_array_equal(w, ow)
                np.testing.assert_array_equal(b, ob)
            np.testing.assert_array_equal(state.first_moment, oracle_state.first_moment)
            np.testing.assert_array_equal(state.second_moment, oracle_state.second_moment)
            assert vars(state).keys() == vars(oracle_state).keys()
            assert {k: v for k, v in vars(state).items() if k not in ("first_moment", "second_moment")} == \
                {k: v for k, v in vars(oracle_state).items() if k not in ("first_moment", "second_moment")}
        assert step_checks == 0 and state.step_count == 5
        assert checks  # the oracle's dataclasses.replace does run the check


# one invalid value of each constraint; the loader and the constructor reject the same ones
BAD_HYPERPARAMETERS = [
    ("beta2", -0.5),
    ("epsilon", 0.0),
    ("beta1", 1.0),
    ("learning_rate", float("nan")),
    ("weight_decay", -1e-3),
    ("beta1", True),
    ("step_count", 1.5),
    ("step_count", -1),
]


class TestOptimizerHyperparameters:
    @pytest.mark.parametrize("name, value", BAD_HYPERPARAMETERS)
    def test_constructor_rejects_what_the_loader_rejects(self, tmp_path, name, value):
        p = init_params([3, 2], make_rng(21))
        with pytest.raises(FieldValueError, match=f"^{name} must be") as info:
            init_optimizer(p, **{name: value})
        assert info.value.field == name
        path = tmp_path / "c.json"
        trained_checkpoint(path)
        payload = json.loads(path.read_text())
        payload["visual_optimizer"][name] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(CorruptFileError, match=f"visual_optimizer.{name} must be"):
            load_checkpoint(path)

    def test_beta1_one_fails_before_any_step(self):
        p = init_params([3, 2], make_rng(22))
        with pytest.raises(FieldValueError, match=r"beta1 must be a finite number in \[0, 1\), got 1.0"):
            init_optimizer(p, beta1=1.0)

    def test_accepted_edges_train_and_reload(self, tmp_path):
        p = init_params([3, 2], make_rng(23))
        state = init_optimizer(p, learning_rate=0, weight_decay=0.0, beta1=0.0, beta2=0.0, epsilon=1e-300)
        p, state = adamw_step(p, np.ones_like(p.vector), state)
        save_checkpoint(tmp_path / "c.json", p, p, state, state, seed=0)
        assert load_checkpoint(tmp_path / "c.json")["visual_optimizer"].step_count == 1


class TestCheckpoint:
    def test_roundtrip_byte_identical(self, tmp_path):
        rng = make_rng(16)
        f = init_params([4, 3], rng)
        g = init_params([5, 3], rng)
        sf = init_optimizer(f)
        sg = init_optimizer(g)
        # push some non-trivial optimizer state
        f, sf = adamw_step(f, rng.normal(size=f.vector.shape), sf)

        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_checkpoint(first, f, g, sf, sg, seed=99, schedule_position=17)
        loaded = load_checkpoint(first)
        save_checkpoint(
            second,
            loaded["visual"],
            loaded["text"],
            loaded["visual_optimizer"],
            loaded["text_optimizer"],
            seed=loaded["seed"],
            schedule_position=loaded["schedule_position"],
        )
        assert first.read_bytes() == second.read_bytes()
        assert loaded["seed"] == 99 and loaded["schedule_position"] == 17

    def test_bytes_match_streamed_json_dump(self, tmp_path):
        rng = make_rng(17)
        f = init_params([6, 4, 3], rng)
        g = init_params([5, 3], rng)
        sf, sg = init_optimizer(f), init_optimizer(g)
        f, sf = adamw_step(f, rng.normal(size=f.vector.shape), sf)
        path = tmp_path / "ck.json"
        save_checkpoint(path, f, g, sf, sg, seed=3, schedule_position=11)
        written = path.read_text(encoding="utf-8")
        # floats round-trip through their shortest repr, so the parsed payload
        # is the one that was written
        streamed = io.StringIO()
        json.dump(json.loads(written), streamed, sort_keys=True, separators=(",", ":"))
        assert written == streamed.getvalue() + "\n"


def trained_checkpoint(path):
    """A checkpoint of two encoders after two AdamW steps each, so every moment is non-trivial."""
    rng = make_rng(18)
    f = init_params([6, 4, 3], rng)
    g = init_params([5, 3], rng)
    sf, sg = init_optimizer(f), init_optimizer(g, learning_rate=0.01, beta2=0.99)
    for _ in range(2):
        f, sf = adamw_step(f, rng.normal(size=f.vector.shape), sf)
        g, sg = adamw_step(g, rng.normal(size=g.vector.shape), sg)
    save_checkpoint(path, f, g, sf, sg, seed=7, schedule_position=2)
    return f, g, sf, sg


def _packed_nan(payload):
    m = payload["visual_optimizer"]["first_moment"]
    values = np.zeros(m["shape"])
    values.flat[1] = np.nan
    m["f8le"] = base64.b64encode(values.astype("<f8").tobytes()).decode("ascii")


def _packed_negative(payload):
    m = payload["text_optimizer"]["second_moment"]
    values = np.frombuffer(base64.b64decode(m["f8le"]), dtype="<f8").copy()
    values[-1] = -1e-9  # only the last bias entry
    m["f8le"] = base64.b64encode(values.astype("<f8").tobytes()).decode("ascii")


def _short_moment(payload):
    # its last value dropped, the shape kept
    m = payload["visual_optimizer"]["second_moment"]
    m["f8le"] = base64.b64encode(base64.b64decode(m["f8le"])[:-8]).decode("ascii")


def _unused_base64_bit(payload):
    # 43 floats are 344 = 3 * 114 + 2 bytes: 460 characters ending in one "=", the one before it carrying 2 unused bits
    m = payload["visual_optimizer"]["first_moment"]
    assert m["shape"] == [43] and m["f8le"].endswith("=") and not m["f8le"].endswith("==")
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
    last = m["f8le"][-2]
    m["f8le"] = m["f8le"][:-2] + alphabet[alphabet.index(last) ^ 1] + "="


class TestPackedCheckpoint:
    def test_moments_packed_and_hash_covers_every_value(self, tmp_path):
        path = tmp_path / "c.json"
        f, g, sf, sg = trained_checkpoint(path)
        payload = json.loads(path.read_text())
        # each moment is one packed entry holding its whole vector
        moments = [sf.first_moment, sf.second_moment, sg.first_moment, sg.second_moment]
        packed = [payload[key][name] for key in ("visual_optimizer", "text_optimizer")
                  for name in ("first_moment", "second_moment")]
        for m, entry, p in zip(moments, packed, (f, f, g, g), strict=True):
            assert m.shape == p.vector.shape and m.any()
            assert entry == {"shape": [p.vector.size], "f8le": base64.b64encode(m.astype("<f8").tobytes()).decode()}
        # the documented hash: six vectors' bytes in order, then the canonical JSON of layer dims and scalars
        vectors = [f.vector, g.vector] + moments
        digest = hashlib.sha256(b"".join(v.astype("<f8").tobytes() for v in vectors))
        scalars = {
            "layer_dims": [[6, 4, 3], [5, 3]],
            "activations": ["identity", "identity"],
            "optimizers": [{k: v for k, v in payload[key].items() if k not in ("first_moment", "second_moment")}
                           for key in ("visual_optimizer", "text_optimizer")],
            "seed": 7,
            "schedule_position": 2,
        }
        digest.update(json.dumps(scalars, sort_keys=True).encode())
        assert payload["sha256"] == digest.hexdigest()
        loaded = load_checkpoint(path)
        for state, name in ((sf, "visual_optimizer"), (sg, "text_optimizer")):
            for moment in ("first_moment", "second_moment"):
                m, back = getattr(state, moment), getattr(loaded[name], moment)
                assert back.shape == m.shape and back.tobytes() == m.tobytes() and back.flags.writeable

    @pytest.mark.parametrize(
        "edit, named",
        [
            (_packed_nan, "visual_optimizer.first_moment has non-finite values"),
            (_packed_negative, "text_optimizer.second_moment has negative values"),
            (lambda p: p["visual_optimizer"].update(step_count="x"), "visual_optimizer.step_count must be an integer"),
            (lambda p: p["text_optimizer"].update(step_count=-1), "text_optimizer.step_count must be an integer"),
            (lambda p: p["visual_optimizer"].update(beta1=-3), "visual_optimizer.beta1 must be a finite number in"),
            (lambda p: p["text_optimizer"].update(beta2=1.0), "text_optimizer.beta2 must be a finite number in"),
            (lambda p: p["visual_optimizer"].update(epsilon=0.0), "visual_optimizer.epsilon must be a finite number >"),
            (lambda p: p["visual_optimizer"].update(learning_rate=float("inf")), "visual_optimizer.learning_rate"),
            (lambda p: p["text_optimizer"].update(weight_decay=True), "text_optimizer.weight_decay"),
            (lambda p: p.update(seed="abc"), "seed must be an integer >= 0, got 'abc'"),
            (lambda p: p.update(seed=-2), "seed must be an integer >= 0, got -2"),
            (lambda p: p.update(seed=None), "seed must be an integer >= 0, got None"),
            (lambda p: p.update(visual_optimizer=None), "visual_optimizer is a NoneType, not an object"),
            (lambda p: p.update(text_optimizer=None), "text_optimizer is a NoneType, not an object"),
            (lambda p: p.update(schedule_position=-5), "schedule_position must be an integer >= 0, got -5"),
            (lambda p: p["text_optimizer"]["first_moment"].update(shape=[3, 5]),
             "text_optimizer.first_moment has shape [3, 5] and 144 bytes; its parameters are 18 values"),
            (_short_moment, "visual_optimizer.second_moment has shape [43] and 336 bytes; its parameters are 43 values"),
            (lambda p: p["visual"].update(layer_dims=[-1, 4, 3]), "layer_dims [-1, 4, 3] do not match"),
            # an extra trailing list is refused, not dropped by zip; a missing one too
            (lambda p: p["text"]["biases"].append([0.0] * 3), "text has 1 weight and 2 bias lists"),
            (lambda p: p["text"]["weights"].append([0.0] * 15), "text has 2 weight and 1 bias lists"),
            (lambda p: p["visual"]["weights"].pop(), "visual has 1 weight and 2 bias lists"),
            (_unused_base64_bit, "visual_optimizer.first_moment is not canonical base64"),
            # numbers as strings or booleans: float64 converts them, and the hash covers the converted values
            (lambda p: p["visual"]["weights"].__setitem__(0, [repr(v) for v in p["visual"]["weights"][0]]),
             "visual.weights[0] must be a list of JSON numbers"),
            (lambda p: p["text"]["biases"][0].__setitem__(1, True), "text.biases[0] must be a list of JSON numbers"),
            (lambda p: p["visual"]["biases"].__setitem__(1, "0.0"), "visual.biases[1] must be a list of JSON numbers"),
            # the layout written before each moment was one vector: a packed entry per parameter array, its hash kept
            (lambda p: p.update(per_parameter_checkpoint(p)), "visual_optimizer.first_moment is a list, not an object"),
            # a checkpoint of the removed tanh encoders: the activation is checked before the hash
            (lambda p: p["visual"].update(activation="tanh"), "visual.activation must be 'identity', got 'tanh'"),
            (lambda p: p["text"].update(activation="tanh"), "text.activation must be 'identity', got 'tanh'"),
        ],
        ids=["nan_moment", "negative_second_moment", "step_count_str", "step_count_negative", "beta1", "beta2",
             "epsilon", "learning_rate_inf", "weight_decay_bool", "seed_str", "seed_negative", "seed_null",
             "visual_optimizer_null", "text_optimizer_null", "schedule_position", "moment_shape", "moment_length",
             "layer_dims", "extra_bias_list", "extra_weight_list", "missing_weight_list", "unused_base64_bit",
             "weights_as_strings", "bias_bool", "bias_list_as_string", "per_parameter_moments", "visual_tanh",
             "text_tanh"],
    )
    def test_invalid_value_names_the_key(self, tmp_path, edit, named):
        path = tmp_path / "c.json"
        trained_checkpoint(path)
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(CorruptFileError, match="is not readable") as info:
            load_checkpoint(path)
        assert named in str(info.value)

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda p: p.update(note="edited"), "ValueError: unknown key 'note'"),
            (lambda p: p["visual_optimizer"].update(extra=[1, 2]), "ValueError: unknown key 'visual_optimizer.extra'"),
            (lambda p: p["text"].update(dropout=0.1), "ValueError: unknown key 'text.dropout'"),
            (lambda p: p["visual_optimizer"]["first_moment"].update(pad=0),
             "ValueError: unknown key 'visual_optimizer.first_moment.pad'"),
            (lambda p: p.pop("seed"), "KeyError: 'seed'"),
            (lambda p: p["visual"].pop("activation"), "KeyError: 'visual.activation'"),
            (lambda p: p["text_optimizer"].pop("beta1"), "KeyError: 'text_optimizer.beta1'"),
        ],
        ids=["top_level_note", "optimizer_extra", "text_extra", "packed_entry_extra", "no_seed", "no_activation",
             "no_beta1"],
    )
    def test_keys_must_be_exactly_the_written_ones(self, tmp_path, edit, named):
        path = tmp_path / "c.json"
        trained_checkpoint(path)
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(CorruptFileError, match="is not readable") as info:
            load_checkpoint(path)
        assert named in str(info.value)


class TestAtomicSave:
    @pytest.mark.parametrize("target, name", [(json, "dumps"), (os, "replace")], ids=["json.dumps", "os.replace"])
    def test_failed_save_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch, target, name):
        path = tmp_path / "c.json"
        f, g, sf, sg = trained_checkpoint(path)
        before = path.read_bytes()

        def fail(*args, **kwargs):
            raise OSError("no space left on device")

        monkeypatch.setattr(target, name, fail)
        with pytest.raises(OSError, match="no space left"):
            save_checkpoint(path, f, g, sf, sg, seed=8, schedule_position=3)
        monkeypatch.undo()
        assert path.read_bytes() == before and load_checkpoint(path)["seed"] == 7
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]
        save_checkpoint(path, f, g, sf, sg, seed=8, schedule_position=3)  # a save that succeeds leaves no temporary
        assert load_checkpoint(path)["seed"] == 8
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


@pytest.fixture(scope="module")
def checkpoint_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "c.json"
    trained_checkpoint(path)
    return path, path.read_text()


@st.composite
def damaged_checkpoints(draw, text):
    """The text of ``text`` truncated, or a flipped base64 bit, digit, hash or older layout in its payload."""
    kind = draw(st.sampled_from(["truncated", "flipped_f8le", "weight_digit", "wrong_sha256", "old_format",
                                 "per_parameter"]))
    if kind == "truncated":  # at least the closing brace goes
        return text[: draw(st.integers(0, len(text) - 2))]
    payload = json.loads(text)
    if kind == "flipped_f8le":
        entries = [payload[key][name] for key in ("visual_optimizer", "text_optimizer")
                   for name in ("first_moment", "second_moment")]
        entry = draw(st.sampled_from(entries))
        i = draw(st.integers(0, len(entry["f8le"]) - 1))
        flipped = chr(ord(entry["f8le"][i]) ^ (1 << draw(st.integers(0, 6))))
        entry["f8le"] = entry["f8le"][:i] + flipped + entry["f8le"][i + 1 :]
    elif kind == "weight_digit":
        weights = payload[draw(st.sampled_from(["visual", "text"]))]["weights"]
        layer = weights[draw(st.integers(0, len(weights) - 1))]
        k = draw(st.integers(0, len(layer) - 1))
        digits = repr(layer[k])
        i = next(j for j, c in enumerate(digits) if c.isdigit())
        new = draw(st.sampled_from([d for d in "0123456789" if d != digits[i]]))
        layer[k] = float(digits[:i] + new + digits[i + 1 :])
    elif kind == "wrong_sha256":
        payload["sha256"] = draw(st.text("0123456789abcdef", min_size=64, max_size=64).filter(
            lambda h: h != payload["sha256"]))
    elif kind == "per_parameter":  # keeps its sha256
        payload = per_parameter_checkpoint(payload)
    else:
        payload = old_format_checkpoint(payload)
        if draw(st.booleans()):  # a hash added to old-format moments still does not load
            payload["sha256"] = json.loads(text)["sha256"]
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzzed_checkpoint_raises_corrupt_file_error(checkpoint_file, data):
    path, text = checkpoint_file
    damaged = data.draw(damaged_checkpoints(text))
    bad = path.with_name("damaged.json")
    bad.write_text(damaged, encoding="utf-8")
    with pytest.raises(CorruptFileError):
        load_checkpoint(bad)
