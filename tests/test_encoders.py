import io
import json

import numpy as np
import pytest
from helpers import rel_error, unit_rows

from lecnce.encoders import (
    EncoderParams,
    adamw_step,
    backward,
    forward,
    init_optimizer,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from lecnce.errors import BadDimsError, DimMismatchError, MissingCacheError, ShapeMismatchError
from lecnce.losses import LossConfig, diagonal_positives, hier_lecnce, info_nce
from lecnce.numerics import finite_diff_grad, make_rng


def flat_params(params):
    return np.concatenate([p.ravel() for p in params.flat()])


def params_from_flat(template, flat):
    layers = []
    pos = 0
    for w, b in template.layers:
        nw = w.size
        layers.append((flat[pos : pos + nw].reshape(w.shape).copy(), flat[pos + nw : pos + nw + b.size].copy()))
        pos += nw + b.size
    return EncoderParams(layers=layers, activation=template.activation)


class TestInitParams:
    def test_deterministic(self):
        a = init_params([4, 4], "identity", make_rng(7))
        b = init_params([4, 4], "identity", make_rng(7))
        for (wa, ba), (wb, bb) in zip(a.layers, b.layers):
            np.testing.assert_array_equal(wa, wb)
            np.testing.assert_array_equal(ba, bb)

    def test_biases_zero(self):
        p = init_params([6, 5, 3], "tanh", make_rng(1))
        for _, b in p.layers:
            assert not b.any()

    def test_weight_bound(self):
        bound = np.sqrt(6.0 / 8.0)
        rng = make_rng(2)
        draws = []
        for _ in range(250):
            p = init_params([4, 4], "identity", rng)
            draws.append(p.layers[0][0].ravel())
        draws = np.concatenate(draws)
        assert draws.size == 4000
        assert np.all(np.abs(draws) <= bound)
        assert np.abs(draws).max() > 0.8 * bound  # the bound is actually approached

    def test_bad_dims(self):
        with pytest.raises(BadDimsError):
            init_params([4], "identity", make_rng(0))
        with pytest.raises(BadDimsError):
            init_params([4, 0], "identity", make_rng(0))


class TestForward:
    def test_identity_map(self):
        p = EncoderParams(layers=[(np.eye(3), np.zeros(3))], activation="identity")
        x = unit_rows(make_rng(3), 4, 3)
        np.testing.assert_allclose(forward(p, x), x, atol=1e-12)

    def test_rows_unit_norm(self):
        rng = make_rng(4)
        for _ in range(100):
            dims = [int(rng.integers(2, 7)) for _ in range(int(rng.integers(2, 4)))]
            act = "tanh" if rng.random() < 0.5 else "identity"
            p = init_params(dims, act, rng)
            x = rng.normal(size=(int(rng.integers(1, 6)), dims[0]))
            out = forward(p, x)
            np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-9)

    def test_dim_mismatch(self):
        p = init_params([4, 2], "identity", make_rng(5))
        with pytest.raises(DimMismatchError):
            forward(p, np.ones((2, 3)))

    def test_vjp_wrt_input_matches_finite_differences(self):
        rng = make_rng(6)
        p = init_params([5, 4, 3], "tanh", rng)
        x = rng.normal(size=(3, 5))
        w = rng.normal(size=(3, 3))
        out, cache = forward(p, x, return_cache=True)
        _, grad_x = backward(p, cache, w)

        def f(flat):
            return float((w * forward(p, flat.reshape(3, 5))).sum())

        numeric = finite_diff_grad(f, x.ravel())
        assert rel_error(grad_x, numeric) < 1e-4


class TestBackward:
    def test_zero_grad_out(self):
        rng = make_rng(7)
        p = init_params([4, 3], "identity", rng)
        x = rng.normal(size=(2, 4))
        _, cache = forward(p, x, return_cache=True)
        grads, grad_x = backward(p, cache, np.zeros((2, 3)))
        assert not grad_x.any()
        for dw, db in grads:
            assert not dw.any() and not db.any()

    def test_radial_grad_out_annihilated(self):
        rng = make_rng(8)
        p = init_params([4, 3], "tanh", rng)
        x = rng.normal(size=(2, 4))
        out, cache = forward(p, x, return_cache=True)
        grads, grad_x = backward(p, cache, 2.5 * out)  # parallel to each output row
        assert np.abs(grad_x).max() < 1e-12
        for dw, db in grads:
            assert np.abs(dw).max() < 1e-12 and np.abs(db).max() < 1e-12

    def test_missing_cache(self):
        p = init_params([3, 2], "identity", make_rng(9))
        with pytest.raises(MissingCacheError):
            backward(p, None, np.zeros((1, 2)))

    @pytest.mark.parametrize("activation", ["identity", "tanh"])
    def test_param_grads_match_finite_differences(self, activation):
        rng = make_rng(10)
        p = init_params([4, 5, 3], activation, rng)
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(3, 3))
        _, cache = forward(p, x, return_cache=True)
        grads, _ = backward(p, cache, w)
        analytic = np.concatenate([np.concatenate([dw.ravel(), db.ravel()]) for dw, db in grads])

        def f(flat):
            return float((w * forward(params_from_flat(p, flat), x)).sum())

        numeric = finite_diff_grad(f, flat_params(p))
        assert rel_error(analytic, numeric) < 1e-4


class TestComposedWithLosses:
    """Parameter gradients through encoders and every loss, vs finite differences."""

    def _setup(self, seed, activation="tanh"):
        rng = make_rng(seed)
        f = init_params([6, 4], activation, rng)
        g = init_params([5, 4], activation, rng)
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
            fv, _ = backward(fp, cv, gs @ et)
            gt, _ = backward(gp, ct, gs.T @ ev)
            return out.value, fv, gt

        _, fv, gt = loss_given(f, g, want_grads=True)
        for params, grads, other in ((f, fv, "f"), (g, gt, "g")):
            analytic = np.concatenate([np.concatenate([dw.ravel(), db.ravel()]) for dw, db in grads])

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
            from lecnce.encoders import backward as bw

            f_embs, f_caches = zip(*[forward(fp, x, return_cache=True) for x in xv])
            p_emb, p_cache = forward(gp, xp, return_cache=True)
            c_embs, c_caches = zip(*[forward(gp, x, return_cache=True) for x in xc])
            out = hier_lecnce(list(f_embs), p_emb, list(c_embs), cfg)
            if not want_grads:
                return out.value
            fv = None
            for cache, gr in zip(f_caches, out.grads["segment_frames"]):
                grads, _ = bw(fp, cache, gr)
                fv = grads if fv is None else [(a + c, b + d) for (a, b), (c, d) in zip(fv, grads)]
            gt, _ = bw(gp, p_cache, out.grads["parent_texts"])
            for cache, gr in zip(c_caches, out.grads["child_texts"]):
                grads, _ = bw(gp, cache, gr)
                gt = [(a + c, b + d) for (a, b), (c, d) in zip(gt, grads)]
            return out.value, fv, gt

        _, fv, gt = run(f, g, want_grads=True)
        for params, grads, which in ((f, fv, "f"), (g, gt, "g")):
            analytic = np.concatenate([np.concatenate([dw.ravel(), db.ravel()]) for dw, db in grads])

            def scalar(flat, _params=params, _which=which):
                rebuilt = params_from_flat(_params, flat)
                return run(rebuilt if _which == "f" else f, rebuilt if _which == "g" else g)

            numeric = finite_diff_grad(scalar, flat_params(params))
            assert rel_error(analytic, numeric) < 1e-4


class TestAdamW:
    def test_pure_decay_with_zero_gradients(self):
        rng = make_rng(13)
        p = init_params([3, 2], "identity", rng)
        state = init_optimizer(p, learning_rate=0.1, weight_decay=0.01)
        zero = [(np.zeros_like(w), np.zeros_like(b)) for w, b in p.layers]
        new_p, new_state = adamw_step(p, zero, state)
        for (w0, _), (w1, _) in zip(p.layers, new_p.layers):
            np.testing.assert_allclose(w1, w0 * (1 - 0.001), atol=1e-15)
        assert new_state.step_count == 1

    def test_constant_gradient_approaches_sign_update(self):
        p = EncoderParams(layers=[(np.zeros((1, 1)), np.zeros(1))], activation="identity")
        state = init_optimizer(p, learning_rate=0.05, weight_decay=0.0)
        g = [(np.full((1, 1), 0.37), np.full(1, 0.37))]
        prev = p.layers[0][0].copy()
        for _ in range(200):
            p, state = adamw_step(p, g, state)
        step = prev - p.layers[0][0]
        # after many constant-gradient steps the per-step move approaches lr
        p2, _ = adamw_step(p, g, state)
        per_step = p.layers[0][0] - p2.layers[0][0]
        assert abs(per_step[0, 0] - 0.05) < 1e-3

    def test_step_count_increments(self):
        p = init_params([2, 2], "identity", make_rng(14))
        state = init_optimizer(p)
        zero = [(np.zeros_like(w), np.zeros_like(b)) for w, b in p.layers]
        for expected in (1, 2, 3):
            p, state = adamw_step(p, zero, state)
            assert state.step_count == expected

    def test_shape_mismatch(self):
        p = init_params([2, 2], "identity", make_rng(15))
        state = init_optimizer(p)
        with pytest.raises(ShapeMismatchError):
            adamw_step(p, [(np.zeros((3, 3)), np.zeros(2))], state)


class TestCheckpoint:
    def test_roundtrip_byte_identical(self, tmp_path):
        rng = make_rng(16)
        f = init_params([4, 3], "tanh", rng)
        g = init_params([5, 3], "identity", rng)
        sf = init_optimizer(f)
        sg = init_optimizer(g)
        # push some non-trivial optimizer state
        grads = [(rng.normal(size=w.shape), rng.normal(size=b.shape)) for w, b in f.layers]
        f, sf = adamw_step(f, grads, sf)

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
        f = init_params([6, 4, 3], "tanh", rng)
        g = init_params([5, 3], "identity", rng)
        sf, sg = init_optimizer(f), init_optimizer(g)
        grads = [(rng.normal(size=w.shape), rng.normal(size=b.shape)) for w, b in f.layers]
        f, sf = adamw_step(f, grads, sf)
        path = tmp_path / "ck.json"
        save_checkpoint(path, f, g, sf, sg, seed=3, schedule_position=11)
        written = path.read_text(encoding="utf-8")
        # floats round-trip through their shortest repr, so the parsed payload
        # is the one that was written
        streamed = io.StringIO()
        json.dump(json.loads(written), streamed, sort_keys=True, separators=(",", ":"))
        assert written == streamed.getvalue() + "\n"
