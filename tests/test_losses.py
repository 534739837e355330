from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import mean_pool_rows, mean_pool_rows_backward, rel_error, row_nce_loop, stable_hinge_instance, unit_rows

from lecnce import alignment, encoders, evalkit, losses, numerics
from lecnce.alignment import CostMatrix, dtw_greedy, reverse_columns
from lecnce.errors import (
    DimMismatchError,
    EmptyChildSequenceError,
    EmptyMatrixError,
    EmptyPositiveSetError,
    NonFiniteError,
    RowNotNormalizedError,
    ShapeMismatchError,
    ZeroVectorError,
)
from lecnce.losses import (
    LossConfig,
    build_cost_matrix,
    clip_lecnce,
    cost_matrix_backward,
    diagonal_positives,
    dtw_hinge,
    hier_lecnce,
    info_nce,
    pool_segments,
    pool_segments_backward,
)
from lecnce.numerics import finite_diff_grad, make_rng


class TestInfoNce:
    def test_single_cell(self):
        out = info_nce(np.array([[0.42]]), [[0]], temperature=1.0, symmetric=False)
        assert out.value == 0.0

    def test_two_by_two_uniform(self):
        out = info_nce(np.zeros((2, 2)), diagonal_positives(2), temperature=1.0, symmetric=False)
        assert abs(out.value - np.log(2.0)) < 1e-12
        sym = info_nce(np.zeros((2, 2)), diagonal_positives(2), temperature=1.0, symmetric=True)
        assert abs(sym.value - np.log(2.0)) < 1e-12

    def test_multi_positive_matches_direct_formula(self):
        rng = make_rng(10)
        sim = rng.normal(size=(3, 3))
        positives = [[0, 2], [1], [2]]
        tau = 0.4
        out = info_nce(sim, positives, temperature=tau, symmetric=False)
        expected = 0.0
        for i, pos in enumerate(positives):
            e = np.exp(sim[i] / tau)
            expected += -np.log(e[pos].sum() / e.sum())
        expected /= 3
        assert abs(out.value - expected) < 1e-12

    def test_empty_positive_set(self):
        with pytest.raises(EmptyPositiveSetError):
            info_nce(np.zeros((2, 2)), [[0], []], symmetric=False)

    def test_symmetric_needs_square(self):
        with pytest.raises(DimMismatchError):
            info_nce(np.zeros((2, 3)), diagonal_positives(2), symmetric=True)

    def test_shift_invariance(self):
        rng = make_rng(11)
        sim = rng.normal(size=(4, 4))
        for symmetric in (False, True):
            base = info_nce(sim, diagonal_positives(4), temperature=0.07, symmetric=symmetric)
            shifted = info_nce(sim + 3.7, diagonal_positives(4), temperature=0.07, symmetric=symmetric)
            assert abs(base.value - shifted.value) < 1e-9

    def test_nonnegative_and_finite(self):
        rng = make_rng(12)
        for _ in range(50):
            b = int(rng.integers(1, 7))
            sim = rng.normal(scale=2.0, size=(b, b))
            out = info_nce(sim, diagonal_positives(b), temperature=0.07, symmetric=True)
            assert np.isfinite(out.value) and out.value >= 0

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_gradient_matches_finite_differences(self, symmetric):
        rng = make_rng(13)
        for trial in range(10):
            b = int(rng.integers(2, 6))
            sim = rng.normal(size=(b, b))
            positives = [[i] + ([int(rng.integers(0, b))] if rng.random() < 0.5 else []) for i in range(b)]
            tau = float(rng.uniform(0.05, 1.0))
            out = info_nce(sim, positives, temperature=tau, symmetric=symmetric)

            def f(flat):
                return info_nce(flat.reshape(b, b), positives, temperature=tau, symmetric=symmetric).value

            numeric = finite_diff_grad(f, sim.ravel())
            assert rel_error(out.grads["sim"], numeric) < 1e-4


def assert_info_nce_matches_row_loop(sim, positives, temperature, symmetric):
    """info_nce and _row_nce equal their per-row loop versions with ==."""
    got = info_nce(sim, positives, temperature, symmetric)
    with mock.patch.object(losses, "_row_nce", row_nce_loop):
        want = info_nce(sim, positives, temperature, symmetric)
    assert got.value == want.value
    np.testing.assert_array_equal(got.grads["sim"], want.grads["sim"])
    z = np.asarray(sim, dtype=float) / temperature
    value, grad = losses._row_nce(z, positives)
    want_value, want_grad = row_nce_loop(z, positives)
    assert value == want_value
    np.testing.assert_array_equal(grad, want_grad)


class TestInfoNceMatchesRowLoop:
    """The gathered single-positive InfoNCE equals the per-row loop it replaced."""

    @pytest.mark.parametrize("b", [1, 2, 16, 25, 80, 120])
    @pytest.mark.parametrize("symmetric", [False, True])
    def test_diagonal(self, b, symmetric):
        rng = make_rng(40 + b)
        sim = np.clip(rng.normal(scale=0.4, size=(b, b)), -1.0, 1.0)
        assert_info_nce_matches_row_loop(sim, diagonal_positives(b), 0.07, symmetric)

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_permuted_single_positives(self, symmetric):
        rng = make_rng(41)
        b = 25
        m = b if symmetric else 37
        sim = rng.normal(size=(b, m))
        positives = [[int(j)] for j in rng.permutation(m)[:b]]
        assert_info_nce_matches_row_loop(sim, positives, 0.3, symmetric)
        # repeated single columns and numpy index rows take the gather too
        positives = [np.array([int(j)]) for j in rng.integers(0, m, size=b)]
        assert_info_nce_matches_row_loop(sim, positives, 0.3, symmetric)

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_multi_positive_sets(self, symmetric):
        rng = make_rng(42)
        b = 20
        sim = rng.normal(size=(b, b))
        # set sizes 1..12: numpy's pairwise sum regroups from 8 members on
        positives = [list(rng.choice(b, size=1 + k % 12, replace=False)) for k in range(b)]
        positives[3] = [5, 5, 2]  # duplicates count once
        assert max(len(set(p)) for p in positives) >= 8
        assert_info_nce_matches_row_loop(sim, positives, 0.07, symmetric)

    def test_invalid_single_positive_errors_unchanged(self):
        for positives in ([[0], [2]], [[0], [-1]]):
            with pytest.raises(DimMismatchError, match="row 1 positive index out of range"):
                info_nce(np.zeros((2, 2)), positives, symmetric=False)
            with pytest.raises(DimMismatchError, match="row 1 positive index out of range"):
                row_nce_loop(np.zeros((2, 2)), positives)

    @settings(max_examples=60, deadline=None)
    @given(
        b=st.integers(1, 40),
        m=st.integers(1, 40),
        temperature=st.sampled_from([0.01, 0.07, 0.5, 2.0]),
        multi=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property(self, b, m, temperature, multi, seed):
        rng = make_rng(seed)
        sim = np.clip(rng.normal(scale=0.5, size=(b, m)), -1.0, 1.0)
        sizes = rng.integers(1, m + 1, size=b) if multi else np.ones(b, dtype=int)
        positives = [[int(j) for j in rng.choice(m, size=k, replace=False)] for k in sizes]
        assert_info_nce_matches_row_loop(sim, positives, temperature, symmetric=(b == m))

    def test_underflow_edge(self):
        # at a tiny temperature the positive's exp underflows to 0: the
        # value is inf and the positive's gradient 0/0, as in the loop
        sim = np.array([[1.0, -1.0, 0.5], [0.2, 0.9, -1.0], [-0.3, 0.1, 0.8]])
        positives = [[1], [1], [2]]
        z = sim / 1e-3
        with pytest.warns(RuntimeWarning):
            value, grad = losses._row_nce(z, positives)
        with pytest.warns(RuntimeWarning):
            want_value, want_grad = row_nce_loop(z, positives)
        assert value == want_value == np.inf
        np.testing.assert_array_equal(np.isnan(grad), np.isnan(want_grad))
        assert np.isnan(grad[0, 1]) and np.isnan(grad).sum() == 1
        np.testing.assert_array_equal(grad, want_grad)
        with pytest.warns(RuntimeWarning):
            got = info_nce(sim, positives, 1e-3, symmetric=True)
        with pytest.warns(RuntimeWarning), mock.patch.object(losses, "_row_nce", row_nce_loop):
            want = info_nce(sim, positives, 1e-3, symmetric=True)
        assert got.value == want.value == np.inf
        np.testing.assert_array_equal(got.grads["sim"], want.grads["sim"])


class TestBuildCostMatrix:
    def test_single_text_column_is_zero(self):
        frames = unit_rows(make_rng(14), 3, 4)
        texts = unit_rows(make_rng(15), 1, 4)
        c = build_cost_matrix(frames, texts, beta=0.1)
        np.testing.assert_allclose(c.values, 0.0, atol=1e-12)

    def test_analytic_two_texts(self):
        frames = np.array([[1.0, 0.0]])
        texts = np.array([[1.0, 0.0], [0.0, 1.0]])
        c = build_cost_matrix(frames, texts, beta=1.0)
        np.testing.assert_allclose(c.values, [[0.3133, 1.3133]], atol=1e-4)

    def test_rows_are_negative_log_probabilities(self):
        rng = make_rng(16)
        frames = unit_rows(rng, 3, 6)
        texts = unit_rows(rng, 4, 6)
        c = build_cost_matrix(frames, texts, beta=0.1)
        np.testing.assert_allclose(np.exp(-c.values).sum(axis=1), 1.0, atol=1e-9)
        sims = frames @ texts.T
        for i in range(3):
            e = np.exp(sims[i] / 0.1 - (sims[i] / 0.1).max())
            expected = -np.log(e / e.sum())
            np.testing.assert_allclose(c.values[i], expected, atol=1e-9)
        assert np.all(c.values >= 0)

    def test_row_norm_validation(self):
        rng = make_rng(17)
        frames = unit_rows(rng, 2, 3) * 1.5
        with pytest.raises(RowNotNormalizedError):
            build_cost_matrix(frames, unit_rows(rng, 2, 3))
        build_cost_matrix(frames, unit_rows(rng, 2, 3), validate=False)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            build_cost_matrix(np.ones((1, 3)), np.ones((1, 4)))

    def test_backward_matches_finite_differences(self):
        rng = make_rng(18)
        t, n, d = 3, 4, 5
        frames = unit_rows(rng, t, d)
        texts = unit_rows(rng, n, d)
        weights = rng.normal(size=(t, n))
        beta = 0.1

        def loss_of(fr, tx):
            return float((weights * build_cost_matrix(fr, tx, beta, validate=False).values).sum())

        g_frames, g_texts = cost_matrix_backward(frames, texts, beta, weights)
        num_f = finite_diff_grad(lambda v: loss_of(v.reshape(t, d), texts), frames.ravel())
        num_t = finite_diff_grad(lambda v: loss_of(frames, v.reshape(n, d)), texts.ravel())
        assert rel_error(g_frames, num_f) < 1e-6
        assert rel_error(g_texts, num_t) < 1e-6


class TestStackedCostBuild:
    """The stacked cost build and its backward equal per-sample calls with ==."""

    @pytest.mark.parametrize(
        "b, t, n, d",
        [(1, 1, 1, 1), (2, 1, 6, 3), (7, 8, 1, 32), (25, 64, 6, 32), (80, 16, 8, 32), (3, 16, 12, 1), (5, 2, 2, 3), (4, 9, 20, 5)],
    )
    def test_equals_per_sample_build(self, b, t, n, d):
        rng = make_rng(b * 1000 + t * 100 + n * 10 + d)
        frames = np.stack([unit_rows(rng, t, d) for _ in range(b)])
        texts = np.stack([unit_rows(rng, n, d) for _ in range(b)])
        grad_cost = rng.normal(size=(b, t, n))
        costs = losses._costs(frames, texts, 0.1)
        g_frames, g_texts = losses._costs_backward(frames, texts, 0.1, grad_cost)
        assert costs.shape == (b, t, n)
        for k in range(b):
            np.testing.assert_array_equal(costs[k], build_cost_matrix(frames[k], texts[k], 0.1, validate=False).values)
            want_f, want_t = cost_matrix_backward(frames[k], texts[k], 0.1, grad_cost[k])
            np.testing.assert_array_equal(g_frames[k], want_f)
            np.testing.assert_array_equal(g_texts[k], want_t)

    @pytest.mark.parametrize("ragged", [False, True])
    @pytest.mark.parametrize("d", [2, 6])
    def test_hier_lecnce_aligns_per_sample_matrices(self, ragged, d):
        rng = make_rng(43 + d)
        b = 30
        shapes = rng.integers(1, 6, size=(b, 2)) if ragged else np.tile([16, 4], (b, 1))
        frames = [unit_rows(rng, int(t), d) for t, _ in shapes]
        children = [unit_rows(rng, int(n), d) for _, n in shapes]
        seen = []

        def recording_align_batch(matrices, algorithm="dp"):
            seen.append([np.array(m) for m in matrices])
            return alignment.align_batch(matrices, algorithm)

        with mock.patch.object(losses, "align_batch", recording_align_batch):
            hier_lecnce(frames, unit_rows(rng, b, d), children, LossConfig(), "dp")
        (matrices,) = seen
        assert len(matrices) == 2 * b
        for k in range(b):
            want = build_cost_matrix(frames[k], children[k], 0.1, validate=False).values
            np.testing.assert_array_equal(matrices[k], want)
            np.testing.assert_array_equal(matrices[b + k], want[:, ::-1])


class TestDtwHinge:
    def test_zero_gap_gives_margin(self):
        c = CostMatrix(np.array([[1.0, 2.0, 1.0], [3.0, 0.5, 3.0]]))
        out = dtw_hinge(c, reverse_columns(c), phi=0.1, form="standard")
        assert abs(out.value - 0.1) < 1e-12

    def test_inactive_hinge_zero_gradient(self):
        c_fwd = CostMatrix(np.array([[1.0]]))
        c_rev = CostMatrix(np.array([[2.0]]))
        out = dtw_hinge(c_fwd, c_rev, phi=0.1, form="standard")
        assert out.value == 0.0
        assert not out.grads["c_forward"].any()
        assert not out.grads["c_reversed"].any()

    def test_literal_form(self):
        c_fwd = CostMatrix(np.array([[3.0]]))
        c_rev = CostMatrix(np.array([[1.0]]))
        assert dtw_hinge(c_fwd, c_rev, phi=0.1, form="literal").value == 2.0
        assert dtw_hinge(c_rev, c_fwd, phi=0.1, form="literal").value == 0.1
        assert abs(dtw_hinge(c_fwd, c_rev, phi=0.1, form="standard").value - 2.1) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            dtw_hinge(CostMatrix(np.ones((2, 2))), CostMatrix(np.ones((2, 3))))

    def test_monotone_along_fixed_path(self):
        rng = make_rng(19)
        v = rng.uniform(0.5, 4.0, size=(4, 3))
        c_fwd = CostMatrix(v)
        c_rev = reverse_columns(c_fwd)
        out = dtw_hinge(c_fwd, c_rev, phi=10.0, form="standard")  # large margin keeps it active
        path_len = int(out.grads["c_forward"].sum())
        assert path_len == len(dtw_greedy(c_fwd).path)
        delta = 0.01
        # path held fixed: the value moves by exactly delta * |path|
        predicted = float((out.grads["c_forward"] * delta).sum())
        assert abs(predicted - delta * path_len) < 1e-12


class TestClipLecnce:
    def test_near_saturated(self):
        eye = np.eye(4)
        cfg = LossConfig(temperature_infonce=0.01)
        out = clip_lecnce(eye, eye, eye, eye, cfg)
        assert out.value < 0.01

    def test_sum_decomposition_exact(self):
        rng = make_rng(20)
        cfg = LossConfig()
        b, d = 5, 6
        clips, narrs, va, vb = (unit_rows(rng, b, d) for _ in range(4))
        out = clip_lecnce(clips, narrs, va, vb, cfg)
        vl = info_nce(clips @ narrs.T, diagonal_positives(b), cfg.temperature_infonce, cfg.symmetric)
        vv = info_nce(va @ vb.T, diagonal_positives(b), cfg.temperature_infonce, cfg.symmetric)
        assert out.value == vl.value + vv.value
        assert out.components == {"vl": vl.value, "vv": vv.value}

    def test_gradients_match_finite_differences(self):
        rng = make_rng(21)
        cfg = LossConfig(temperature_infonce=0.2)
        b, d = 4, 5
        mats = {name: unit_rows(rng, b, d) for name in ("clip_frames", "narrations", "view_a", "view_b")}
        out = clip_lecnce(**mats, cfg=cfg)
        for name in mats:
            def f(flat, _name=name):
                changed = dict(mats)
                changed[_name] = flat.reshape(b, d)
                return clip_lecnce(**changed, cfg=cfg).value

            numeric = finite_diff_grad(f, mats[name].ravel())
            assert rel_error(out.grads[name], numeric) < 1e-4


def _hier_instance(seed, b=3, t=4, n=3, d=5):
    rng = make_rng(seed)
    frames = [unit_rows(rng, t, d) for _ in range(b)]
    parents = unit_rows(rng, b, d)
    children = [unit_rows(rng, n, d) for _ in range(b)]
    return frames, parents, children


class TestHierLecnce:
    def test_lambda_zero_is_pure_contrast(self):
        frames, parents, children = _hier_instance(22)
        cfg = LossConfig(lambda_dtw=0.0)
        out = hier_lecnce(frames, parents, children, cfg)
        assert out.value == out.components["infonce"]

    def test_single_child_contributes_margin(self):
        frames, parents, _ = _hier_instance(23)
        children = [unit_rows(make_rng(30 + k), 1, 5) for k in range(3)]
        cfg = LossConfig(lambda_dtw=0.5, phi=0.1)
        out = hier_lecnce(frames, parents, children, cfg)
        assert abs(out.components["dtw"] - 0.1) < 1e-12
        assert abs(out.value - (out.components["infonce"] + 0.5 * 0.1)) < 1e-12

    def test_componentwise_recomputation(self):
        frames, parents, children = _hier_instance(24, b=2)
        cfg = LossConfig(lambda_dtw=0.01)
        out = hier_lecnce(frames, parents, children, cfg)
        pooled = np.stack([mean_pool_rows(f)[0] for f in frames])
        contrast = info_nce(pooled @ parents.T, diagonal_positives(2), cfg.temperature_infonce, cfg.symmetric)
        dtw_vals = []
        for f, c in zip(frames, children):
            cf = build_cost_matrix(f, c, cfg.beta, validate=False)
            dtw_vals.append(dtw_hinge(cf, reverse_columns(cf), cfg.phi, cfg.hinge_form).value)
        expected = contrast.value + 0.01 * float(np.mean(dtw_vals))
        assert abs(out.value - expected) < 1e-12

    def test_empty_children_raises(self):
        frames, parents, children = _hier_instance(25)
        children[1] = np.empty((0, 5))
        with pytest.raises(EmptyChildSequenceError):
            hier_lecnce(frames, parents, children, LossConfig())

    def test_gradients_match_finite_differences(self):
        _check_hier_gradients("greedy")

    def test_gradients_match_finite_differences_dp(self):
        _check_hier_gradients("dp")


class TestHierLecnceEntryChecks:
    """Invalid input fails at the hier_lecnce entry with a named error."""

    @pytest.mark.parametrize("ragged", [False, True])
    def test_empty_segment(self, ragged):
        frames, parents, children = _hier_instance(50, b=4)
        if ragged:
            frames[0] = frames[0][:2]
        frames[2] = np.empty((0, 5))
        with pytest.raises(EmptyMatrixError, match=r"segment_frames\[2\]"):
            hier_lecnce(frames, parents, children, LossConfig())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("ragged", [False, True])
    @pytest.mark.parametrize("name", ["segment_frames", "child_texts"])
    def test_non_finite(self, bad, ragged, name):
        frames, parents, children = _hier_instance(51, b=4)
        if ragged:
            children[0] = children[0][:1]
        parts = frames if name == "segment_frames" else children
        parts[3] = parts[3].copy()
        parts[3][1, 2] = bad
        with pytest.raises(NonFiniteError, match=rf"{name}\[3\]"):
            hier_lecnce(frames, parents, children, LossConfig(), "dp")

    def test_child_dim_mismatch(self):
        frames, parents, children = _hier_instance(52, b=3)
        children[1] = unit_rows(make_rng(53), 3, 4)
        with pytest.raises(DimMismatchError):
            hier_lecnce(frames, parents, children, LossConfig())

    def test_one_dimensional_segment(self):
        frames, parents, children = _hier_instance(54, b=3)
        frames[2] = frames[2][0]
        with pytest.raises(DimMismatchError):
            hier_lecnce(frames, parents, children, LossConfig())

    @pytest.mark.parametrize(
        "name, k, make_bad",
        [
            ("child_texts", 1, lambda m: m[:, :4]),
            ("segment_frames", 0, lambda m: m[:, :3]),
            ("segment_frames", 2, lambda m: m[0]),
            ("child_texts", 2, lambda m: m[:, :, None]),
        ],
    )
    def test_shape_errors_name_the_input(self, name, k, make_bad):
        frames, parents, children = _hier_instance(55, b=3)
        parts = frames if name == "segment_frames" else children
        parts[k] = make_bad(parts[k])
        with pytest.raises(DimMismatchError, match=rf"{name}\[{k}\]"):
            hier_lecnce(frames, parents, children, LossConfig())


class TestHierLecnceValidatesOnce:
    def test_no_per_sample_build_or_validation(self, monkeypatch):
        counts = {"build_cost_matrix": 0, "as_matrix": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(losses, "build_cost_matrix", counting("build_cost_matrix", losses.build_cost_matrix))
        as_matrix = counting("as_matrix", numerics.as_matrix)
        for module in (numerics, losses, alignment, encoders, evalkit):
            monkeypatch.setattr(module, "as_matrix", as_matrix)
        # phi far above any cost gap leaves every hinge active, so the
        # backward of every sample runs as well
        cfg = LossConfig(lambda_dtw=0.5, phi=1e3)
        per_size = {}
        for b in (4, 40):
            frames, parents, children = _hier_instance(56, b=b, t=16, n=4, d=8)
            counts.update(build_cost_matrix=0, as_matrix=0)
            out = hier_lecnce(frames, parents, children, cfg, "dp")
            assert out.components["dtw"] > 0
            per_size[b] = dict(counts)
        assert per_size[4]["build_cost_matrix"] == per_size[40]["build_cost_matrix"] == 0
        assert per_size[4]["as_matrix"] == per_size[40]["as_matrix"]


def _check_hier_gradients(algorithm):
    """FD check of every hier_lecnce gradient on instances away from path ties."""
    cfg = LossConfig(lambda_dtw=1.0, temperature_infonce=0.3)
    checked = 0
    seed = 100
    while checked < 6:
        seed += 1
        frames, parents, children = _hier_instance(seed)
        if not all(stable_hinge_instance(f, c, cfg.beta, cfg.phi, algorithm=algorithm) for f, c in zip(frames, children)):
            continue
        out = hier_lecnce(frames, parents, children, cfg, algorithm)
        b, t, n, d = 3, 4, 3, 5

        def with_frames(flat, k):
            fr = [f.copy() for f in frames]
            fr[k] = flat.reshape(t, d)
            return hier_lecnce(fr, parents, children, cfg, algorithm).value

        def with_children(flat, k):
            ch = [c.copy() for c in children]
            ch[k] = flat.reshape(n, d)
            return hier_lecnce(frames, parents, ch, cfg, algorithm).value

        for k in range(b):
            num = finite_diff_grad(lambda v, _k=k: with_frames(v, _k), frames[k].ravel())
            assert rel_error(out.grads["segment_frames"][k], num) < 1e-4
            num = finite_diff_grad(lambda v, _k=k: with_children(v, _k), children[k].ravel())
            assert rel_error(out.grads["child_texts"][k], num) < 1e-4
        num = finite_diff_grad(
            lambda v: hier_lecnce(frames, v.reshape(b, d), children, cfg, algorithm).value, parents.ravel()
        )
        assert rel_error(out.grads["parent_texts"], num) < 1e-4
        checked += 1


def per_sample_hier_lecnce(frames, parents, children, cfg, algorithm):
    """hier_lecnce as one dtw_hinge call per sample: the oracle for the batched alignment."""
    b = len(frames)
    pools = [mean_pool_rows(f) for f in frames]
    pooled = np.stack([row for row, _ in pools])
    contrast = info_nce(pooled @ parents.T, diagonal_positives(b), cfg.temperature_infonce, cfg.symmetric)
    g_sim = contrast.grads["sim"]
    grad_pooled = g_sim @ parents
    grad_frames = [mean_pool_rows_backward(grad_pooled[k], cache) for k, (_, cache) in enumerate(pools)]
    grad_children = [np.zeros_like(c) for c in children]
    total = 0.0
    active = 0
    for k in range(b):
        c_fwd = build_cost_matrix(frames[k], children[k], cfg.beta, validate=False)
        hinge = dtw_hinge(c_fwd, reverse_columns(c_fwd), cfg.phi, cfg.hinge_form, algorithm)
        total += hinge.value
        active += bool(hinge.grads["c_forward"].any())
        if cfg.lambda_dtw > 0:
            grad_cost = hinge.grads["c_forward"] + hinge.grads["c_reversed"][:, ::-1]
            g_f, g_c = cost_matrix_backward(frames[k], children[k], cfg.beta, grad_cost * (cfg.lambda_dtw / b))
            grad_frames[k] = grad_frames[k] + g_f
            grad_children[k] = grad_children[k] + g_c
    grads = {"segment_frames": grad_frames, "parent_texts": g_sim.T @ pooled, "child_texts": grad_children}
    components = {"infonce": contrast.value, "dtw": total / b}
    return contrast.value + cfg.lambda_dtw * (total / b), grads, components, active


class TestHierLecnceBatchedAlignment:
    """The one-call alignment in hier_lecnce equals a per-sample dtw_hinge loop exactly."""

    @pytest.mark.parametrize("algorithm", ["dp", "greedy"])
    @pytest.mark.parametrize("form", ["standard", "literal"])
    @pytest.mark.parametrize("lam", [0.0, 0.7])
    @pytest.mark.parametrize("ragged", [False, True])
    def test_equals_per_sample_hinge(self, algorithm, form, lam, ragged):
        rng = make_rng(31)
        b, d = 12, 6
        shapes = rng.integers(1, 9, size=(b, 2)) if ragged else np.tile([16, 4], (b, 1))
        frames = [unit_rows(rng, int(t), d) for t, _ in shapes]
        children = [unit_rows(rng, int(n), d) for _, n in shapes]
        parents = unit_rows(rng, b, d)
        # phi near the typical cost gap leaves some hinges active and some not
        cfg = LossConfig(lambda_dtw=lam, phi=0.5, hinge_form=form)
        out = hier_lecnce(frames, parents, children, cfg, algorithm)
        value, grads, components, active = per_sample_hier_lecnce(frames, parents, children, cfg, algorithm)
        assert 0 < active < b
        assert out.value == value
        assert out.components == components
        np.testing.assert_array_equal(out.grads["parent_texts"], grads["parent_texts"])
        for name in ("segment_frames", "child_texts"):
            assert len(out.grads[name]) == b
            for got, want in zip(out.grads[name], grads[name]):
                np.testing.assert_array_equal(got, want)


    def test_exact_tie_is_inactive(self):
        # palindromic child texts make the reversed matrix equal the forward
        # one, so with phi = 0 the standard hinge sits exactly on its kink
        rng = make_rng(32)
        frames = [unit_rows(rng, 6, 5) for _ in range(3)]
        children = []
        for _ in range(3):
            a, m = unit_rows(rng, 2, 5)
            children.append(np.stack([a, m, a]))
        parents = unit_rows(rng, 3, 5)
        cfg = LossConfig(lambda_dtw=1.0, phi=0.0)
        out = hier_lecnce(frames, parents, children, cfg, "dp")
        value, grads, components, active = per_sample_hier_lecnce(frames, parents, children, cfg, "dp")
        assert active == 0 and components["dtw"] == 0.0
        assert out.value == value
        for name in ("segment_frames", "child_texts"):
            for got, want in zip(out.grads[name], grads[name]):
                np.testing.assert_array_equal(got, want)


def assert_pool_matches_per_matrix(segments, grad_pooled):
    """pool_segments and its backward equal mean_pool_rows(_backward) per segment with ==."""
    pooled, cache = pool_segments(segments)
    grad_rows = pool_segments_backward(grad_pooled, cache)
    assert pooled.shape == grad_pooled.shape
    assert grad_rows.shape == (sum(len(s) for s in segments), pooled.shape[1])
    start = 0
    for k, seg in enumerate(segments):
        row, seg_cache = mean_pool_rows(seg)
        np.testing.assert_array_equal(pooled[k], row)
        np.testing.assert_array_equal(grad_rows[start : start + len(seg)], mean_pool_rows_backward(grad_pooled[k], seg_cache))
        start += len(seg)


class TestMeanPool:
    def test_forward_is_renormalized_mean(self):
        rng = make_rng(26)
        segments = [rng.normal(size=(t, 4)) for t in (5, 2, 5)]
        pooled, _ = pool_segments(segments)
        for k, rows in enumerate(segments):
            mean = rows.mean(axis=0)
            np.testing.assert_allclose(pooled[k], mean / np.linalg.norm(mean), atol=1e-12)

    def test_backward_matches_finite_differences(self):
        rng = make_rng(27)
        lengths = (4, 1, 3)
        rows = rng.normal(size=(sum(lengths), 3))
        w = rng.normal(size=(len(lengths), 3))

        def f(flat):
            pooled, _ = pool_segments(np.split(flat.reshape(-1, 3), np.cumsum(lengths)[:-1]))
            return float((w * pooled).sum())

        _, cache = pool_segments(np.split(rows, np.cumsum(lengths)[:-1]))
        analytic = pool_segments_backward(w, cache)
        numeric = finite_diff_grad(f, rows.ravel())
        assert rel_error(analytic, numeric) < 1e-6

    @pytest.mark.parametrize(
        "lengths, d",
        [((6, 6, 6, 6), 32), ((4,) * 48, 32), ((7, 1, 3, 7, 12, 2), 5), ((1, 1, 1), 8), ((1,), 3), ((33, 9, 31, 13, 14), 1)],
    )
    def test_equals_per_matrix_oracle(self, lengths, d):
        rng = make_rng(sum(lengths) + d)
        segments = [rng.normal(size=(t, d)) for t in lengths]
        assert_pool_matches_per_matrix(segments, rng.normal(size=(len(lengths), d)))

    @settings(max_examples=80, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 40), min_size=1, max_size=8),
        d=st.integers(1, 64),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_equals_per_matrix_oracle(self, lengths, d, scale, seed):
        rng = make_rng(seed)
        segments = [scale * rng.normal(size=(t, d)) for t in lengths]
        assert_pool_matches_per_matrix(segments, rng.normal(size=(len(lengths), d)))

    def test_collapsed_mean_raises(self):
        rng = make_rng(29)
        row = rng.normal(size=4)
        with pytest.raises(ZeroVectorError, match="segment 1"):
            pool_segments([rng.normal(size=(3, 4)), np.stack([row, -row])])


class TestOrderedSamplesPreferForward:
    def test_forward_cost_below_reversed_on_ordered_data(self):
        # in-order child concepts rendered with small noise: the forward
        # alignment should beat the reversed one nearly always
        rng = make_rng(28)
        wins = 0
        trials = 200
        for _ in range(trials):
            d = 6
            concepts = np.stack([np.eye(d)[k] for k in range(4)])
            frames = np.repeat(concepts, 3, axis=0) + rng.normal(0, 0.05, size=(12, d))
            texts = concepts + rng.normal(0, 0.05, size=(4, d))
            frames /= np.linalg.norm(frames, axis=1, keepdims=True)
            texts /= np.linalg.norm(texts, axis=1, keepdims=True)
            c = build_cost_matrix(frames, texts, beta=0.1)
            if dtw_greedy(c).cost < dtw_greedy(reverse_columns(c)).cost:
                wins += 1
        assert wins >= 0.95 * trials
