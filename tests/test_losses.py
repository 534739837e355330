import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import (
    all_walk_hier_lecnce,
    dtw_greedy_loop,
    first_column_relaxation_loop,
    dtw_hinge_loop,
    mean_pool_rows,
    mean_pool_rows_backward,
    rel_error,
    recomputed_costs_backward,
    reduced_costs,
    row_nce_loop,
    stable_hinge_instance,
    unit_rows,
)

from lecnce import alignment, encoders, evalkit, losses, numerics
from lecnce.alignment import CostMatrix, dtw_dp, dtw_greedy, reverse_columns
from lecnce.errors import (
    DimMismatchError,
    EmptyMatrixError,
    FieldValueError,
    NonFiniteError,
    RowNotNormalizedError,
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
        with pytest.raises(FieldValueError, match="positives row 1 has no positives"):
            info_nce(np.zeros((2, 2)), [[0], []], symmetric=False)

    @pytest.mark.parametrize("tau", [0.0, -0.07, float("nan"), float("inf")])
    def test_non_positive_temperature(self, tau):
        with pytest.raises(FieldValueError, match=r"temperature must be finite and > 0, got"):
            info_nce(np.zeros((2, 2)), diagonal_positives(2), temperature=tau)

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

    @pytest.mark.parametrize("b", [1, 2, 16, 25, 80, 120])
    @pytest.mark.parametrize("direction", ["rows", "columns"])
    def test_diagonal_path_equals_row_loop(self, b, direction):
        rng = make_rng(50 + b)
        z = np.clip(rng.normal(scale=0.4, size=(b, b)), -1.0, 1.0) / 0.07
        if direction == "columns":  # the transposed view _info_nce passes
            z = z.T
        positives = diagonal_positives(b)
        assert positives is diagonal_positives(b) and isinstance(positives, tuple)
        value, grad = losses._row_nce(z, positives)
        want_value, want_grad = row_nce_loop(z, positives)
        assert value == want_value
        np.testing.assert_array_equal(grad, want_grad)

    def test_diagonal_of_a_wide_or_tall_matrix(self):
        rng = make_rng(51)
        z = rng.normal(size=(5, 9))
        value, grad = losses._row_nce(z, diagonal_positives(5))
        want_value, want_grad = row_nce_loop(z, diagonal_positives(5))
        assert value == want_value
        np.testing.assert_array_equal(grad, want_grad)
        # more rows than columns: row 5 has no column 5, as in the loop
        with pytest.raises(DimMismatchError, match="row 5 positive index out of range for 5 columns"):
            losses._row_nce(z.T, diagonal_positives(9))

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_permuted_single_positives(self, symmetric):
        rng = make_rng(41)
        b = 25
        m = b if symmetric else 37
        sim = rng.normal(size=(b, m))
        positives = [[int(j)] for j in rng.permutation(m)[:b]]
        assert_info_nce_matches_row_loop(sim, positives, 0.3, symmetric)
        # repeated single columns and numpy index rows, through the per-row loop too
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


class TestLossConfig:
    @pytest.mark.parametrize("name", ["beta", "temperature_infonce", "phi", "lambda_dtw"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_field_rejected(self, name, bad):
        with pytest.raises(FieldValueError, match=f"^{name} must be finite") as info:
            LossConfig(**{name: bad})
        assert info.value.field == name

    def test_phi_may_be_any_finite_value(self):
        for phi in (-1e300, -0.5, 0.0, 1e300):
            assert LossConfig(phi=phi).phi == phi


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
            return float((weights * losses._costs(fr, tx, beta)[0]).sum())

        g_frames, g_texts = cost_matrix_backward(frames, texts, beta, weights)
        num_f = finite_diff_grad(lambda v: loss_of(v.reshape(t, d), texts), frames.ravel())
        num_t = finite_diff_grad(lambda v: loss_of(frames, v.reshape(n, d)), texts.ravel())
        assert rel_error(g_frames, num_f) < 1e-6
        assert rel_error(g_texts, num_t) < 1e-6

    @pytest.mark.parametrize("shape", [(1, 2), (2, 1), (2,)])
    def test_backward_rejects_a_grad_of_another_shape(self, shape):
        """A grad_cost that would broadcast against the (2, 2) cost matrix used to pass."""
        with pytest.raises(DimMismatchError) as info:
            cost_matrix_backward(np.eye(2), np.eye(2), 0.1, np.ones(shape))
        assert str(info.value) == f"grad_cost has shape {shape}, the cost matrix (2, 2)"


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
        costs, probs = losses._costs(frames, texts, 0.1)
        g_frames, g_texts = losses._costs_backward(frames, texts, probs(...), 0.1, grad_cost)
        assert costs.shape == (b, t, n)
        for k in range(b):
            np.testing.assert_array_equal(costs[k], losses._costs(frames[k], texts[k], 0.1)[0])
            want_f, want_t = cost_matrix_backward(frames[k], texts[k], 0.1, grad_cost[k])
            np.testing.assert_array_equal(g_frames[k], want_f)
            np.testing.assert_array_equal(g_texts[k], want_t)

    @pytest.mark.parametrize("ragged", [False, True])
    @pytest.mark.parametrize("d", [2, 6])
    def test_hier_lecnce_aligns_per_sample_matrices(self, ragged, d):
        rng = make_rng(43 + d)
        b = 30
        frames = [unit_rows(rng, 16, d) for _ in range(b)]
        children = [unit_rows(rng, 4, d) for _ in range(b)]
        if ragged:
            frames[7] = frames[7][:5]
        read, walked = [], []

        def recording(seen, fn):
            def wrapper(matrices, *args):
                seen.append(np.array(matrices))
                return fn(matrices, *args)

            return wrapper

        with mock.patch.object(alignment, "_accumulate", recording(read, alignment._accumulate)), \
                mock.patch.object(alignment, "_dp_walk", recording(walked, alignment._dp_walk)), \
                mock.patch.object(alignment, "_greedy", recording(walked, alignment._greedy)):
            if ragged:  # refused at the entry, before any alignment
                with pytest.raises(DimMismatchError, match="segment_frames"):
                    hier_lecnce(frames, unit_rows(rng, b, d), children, LossConfig(), "dp")
                assert not read and not walked
                return
            out = hier_lecnce(frames, unit_rows(rng, b, d), children, LossConfig(phi=0.5), "dp")
        # one wavefront over the forward matrices, then their column-reversed views, in one inf border
        (padded,) = read
        assert padded.shape == (2 * b, 17, 5)
        assert np.all(padded[:, 0] == np.inf) and np.all(padded[:, :, 0] == np.inf)
        matrices = padded[:, 1:, 1:]
        for k in range(b):
            want = losses._costs(frames[k], children[k], 0.1)[0]
            np.testing.assert_array_equal(matrices[k], want)
            np.testing.assert_array_equal(matrices[b + k], want[:, ::-1])
        # one walk, of the active samples' forward then reversed tables only, taken from that wavefront
        tables = alignment._accumulate(padded)
        costs = tables[:, -1, -1]
        active = np.flatnonzero(costs[:b] - costs[b:] + 0.5 > 0.0)
        assert 0 < len(active) < b and out.components["dtw"] > 0
        (walked_tables,) = walked
        np.testing.assert_array_equal(walked_tables, np.concatenate([tables[active], tables[b + active]]))


TINY = 5e-324  # the least subnormal: a product of +-TINY over beta 10 rounds to +-0.0


def _axis_rows(rng, shape, d, fill):
    """Unit rows: +-1 on one random axis each, entries drawn from ``fill`` on the others."""
    rows = rng.choice(fill, size=(*shape, d))
    axis = rng.integers(0, d, size=shape)
    np.put_along_axis(rows, axis[..., None], rng.choice([-1.0, 1.0], size=shape)[..., None], axis=-1)
    return rows


def _cost_instance(kind, rng, b, t, n):
    """Frames and texts of one oracle case: (t, d)/(n, d) matrices, or (b, t, d)/(b, n, d) stacks unless b is None."""
    lead, d = () if b is None else (b,), int(rng.integers(2, 9))
    if kind in ("random", "tied"):
        frames, texts = rng.normal(size=(*lead, t, d)), rng.normal(size=(*lead, n, d))
        if kind == "tied":  # text row j repeats an earlier row, so columns tie in every frame row
            for j in range(1, n):
                if rng.random() < 0.5:
                    texts[..., j, :] = texts[..., int(rng.integers(0, j)), :]
        return (frames / np.linalg.norm(frames, axis=-1, keepdims=True),
                texts / np.linalg.norm(texts, axis=-1, keepdims=True))
    # axis-aligned rows: a product is +-1, 0 or (for "signed_zero") +-TINY, which beta 10 makes a
    # +0.0/-0.0 tie at the row max where no text shares the frame's axis and sign; for "dominant",
    # beta 0.005 leaves a row with one such text a total of exactly 1.0
    fill = [TINY, -TINY, 0.0, -0.0] if kind == "signed_zero" else [0.0]
    return _axis_rows(rng, (*lead, t), d, [0.0]), _axis_rows(rng, (*lead, n), d, fill)


class TestCostBuildMatchesReduce:
    """The cost build's column fold of the row max against numpy's reduce (``reduced_costs``), with == and sign bits."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["random", "tied", "signed_zero", "dominant"]), st.sampled_from([None, 1, 3]),
           st.integers(1, 20), st.integers(1, 12), st.sampled_from([0.005, 0.1, 1.0, 10.0]), st.integers(0, 2 ** 32 - 1))
    def test_costs_and_probs_equal_the_reduce(self, kind, b, t, n, beta, seed):
        frames, texts = _cost_instance(kind, make_rng(seed), b, t, n)
        costs, probs = losses._costs(frames, texts, beta)
        want, want_probs = reduced_costs(frames, texts, beta)
        assert np.array_equal(costs, want) and np.array_equal(np.signbit(costs), np.signbit(want))
        first = costs.shape[0]
        for rows in (np.arange(first) % 2 == 0, np.array([first - 1, 0]), slice(1, None, 2), ...):
            assert np.array_equal(probs(rows), want_probs(rows))

    def test_cases_reach_signed_zero_ties_and_exact_totals(self):
        # from 9 columns on, numpy's reduce and a left-to-right fold can keep
        # different zeros of a +0.0/-0.0 tie; the costs keep the same bits
        rng, kept_apart = make_rng(29), 0
        for n in range(9, 13):
            frames, texts = _cost_instance("signed_zero", rng, 64, 20, n)
            z = (frames @ np.swapaxes(texts, -1, -2)) / 10.0
            fold = functools.reduce(np.maximum, np.moveaxis(z, -1, 0))
            kept_apart += int(np.sum(np.signbit(fold) != np.signbit(z.max(axis=-1))))
            costs, want = losses._costs(frames, texts, 10.0)[0], reduced_costs(frames, texts, 10.0)[0]
            assert np.array_equal(costs, want) and np.array_equal(np.signbit(costs), np.signbit(want))
        assert kept_apart > 0
        # a total of exactly 1.0 gives its row's max a -0.0 cost, which the build keeps
        frames, texts = _cost_instance("dominant", rng, 8, 20, 6)
        costs, want = losses._costs(frames, texts, 0.005)[0], reduced_costs(frames, texts, 0.005)[0]
        assert np.any((costs == 0.0) & np.signbit(costs))
        assert np.array_equal(costs, want) and np.array_equal(np.signbit(costs), np.signbit(want))


class TestCostsBackwardReadsProbs:
    """_costs_backward given the cost build's probs equals the backward that recomputes the softmax, with ==."""

    @pytest.mark.parametrize("t, n, d", [(1, 1, 1), (3, 4, 5), (16, 6, 32), (64, 1, 8), (9, 20, 3)])
    @pytest.mark.parametrize("beta", [0.01, 0.1, 1.0])
    def test_matrix(self, t, n, d, beta):
        rng = make_rng(t * 100 + n * 10 + d)
        frames, texts = unit_rows(rng, t, d), unit_rows(rng, n, d)
        grad_cost = rng.normal(size=(t, n))
        probs = losses._costs(frames, texts, beta)[1]
        got = losses._costs_backward(frames, texts, probs(...), beta, grad_cost)
        want = recomputed_costs_backward(frames, texts, beta, grad_cost)
        for g, public, w in zip(got, cost_matrix_backward(frames, texts, beta, grad_cost), want):
            np.testing.assert_array_equal(g, w)
            np.testing.assert_array_equal(public, w)

    @pytest.mark.parametrize("b, t, n, d", [(1, 1, 1, 1), (5, 2, 2, 3), (25, 64, 6, 32), (8, 16, 8, 32)])
    @pytest.mark.parametrize("select", ["all", "mask", "index"])
    def test_stack_rows(self, b, t, n, d, select):
        rng = make_rng(b * 1000 + t * 100 + n * 10 + d)
        frames = np.stack([unit_rows(rng, t, d) for _ in range(b)])
        texts = np.stack([unit_rows(rng, n, d) for _ in range(b)])
        pick = {"all": np.ones(b, dtype=bool), "mask": rng.random(b) < 0.5, "index": rng.permutation(b)[: (b + 1) // 2]}
        rows = pick[select]
        grad_cost = rng.normal(size=(b, t, n))[rows]
        probs = losses._costs(frames, texts, 0.1)[1]
        got = losses._costs_backward(frames[rows], texts[rows], probs(rows), 0.1, grad_cost)
        want = recomputed_costs_backward(frames[rows], texts[rows], 0.1, grad_cost)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            np.testing.assert_array_equal(g, w)


class TestDtwHinge:
    def test_zero_gap_gives_margin(self):
        c = CostMatrix(np.array([[1.0, 2.0, 1.0], [3.0, 0.5, 3.0]]))
        out = dtw_hinge(c, reverse_columns(c), phi=0.1)
        assert abs(out.value - 0.1) < 1e-12

    def test_inactive_hinge_zero_gradient(self):
        c_fwd = CostMatrix(np.array([[1.0]]))
        c_rev = CostMatrix(np.array([[2.0]]))
        out = dtw_hinge(c_fwd, c_rev, phi=0.1)
        assert out.value == 0.0
        assert not out.grads["c_forward"].any()
        assert not out.grads["c_reversed"].any()

    @pytest.mark.parametrize("algorithm", ["dp", "greedy"])
    def test_negative_phi_is_one_sided(self, algorithm):
        """At phi = -m the hinge is active exactly when the gap exceeds m: max(gap, m) - m."""
        rng = make_rng(21)
        m = 0.25
        seen = set()
        for _ in range(200):
            t, n = (int(x) for x in rng.integers(1, 6, size=2))
            v = rng.integers(0, 4, size=(t, n)) * 0.125 if rng.random() < 0.5 else rng.uniform(0.0, 2.0, (t, n))
            c_fwd = CostMatrix(v)
            out = dtw_hinge(c_fwd, reverse_columns(c_fwd), -m, algorithm)
            gap = out.components["dtw_forward"] - out.components["dtw_reversed"]
            assert out.grads["c_forward"].any() == (gap > m)
            assert out.value == (gap - m if gap > m else 0.0)
            seen.add(np.sign(gap - m))
        assert seen == {-1.0, 0.0, 1.0}  # below, on and above the kink

    def test_shape_mismatch(self):
        with pytest.raises(DimMismatchError, match=r"cost matrices differ in shape: \(2, 2\) vs \(2, 3\)"):
            dtw_hinge(CostMatrix(np.ones((2, 2))), CostMatrix(np.ones((2, 3))))

    @pytest.mark.parametrize("algorithm", ["dp", "greedy"])
    def test_equals_loop_oracle(self, algorithm):
        """One align_batch call over the pair == the hinge over the per-matrix loops, with ==."""
        rng = make_rng(20)
        for _ in range(60):
            t, n = (int(x) for x in rng.integers(1, 7, size=2))
            v = rng.integers(0, 3, size=(t, n)).astype(float) if rng.random() < 0.5 else rng.uniform(0.0, 3.0, (t, n))
            c_fwd = CostMatrix(v)
            c_rev = reverse_columns(c_fwd)
            phi = float(rng.choice([-0.5, 0.0, 0.1, 1.0]))
            got = dtw_hinge(c_fwd, c_rev, phi, algorithm)
            want = dtw_hinge_loop(c_fwd, c_rev, phi, algorithm)
            assert got.value == want.value
            assert got.components == want.components
            for name in ("c_forward", "c_reversed"):
                np.testing.assert_array_equal(got.grads[name], want.grads[name])
                np.testing.assert_array_equal(np.signbit(got.grads[name]), np.signbit(want.grads[name]))  # zeros too

    def test_monotone_along_fixed_path(self):
        rng = make_rng(19)
        v = rng.uniform(0.5, 4.0, size=(4, 3))
        c_fwd = CostMatrix(v)
        c_rev = reverse_columns(c_fwd)
        out = dtw_hinge(c_fwd, c_rev, phi=10.0)  # large margin keeps it active
        path_len = int(out.grads["c_forward"].sum())
        assert path_len == len(dtw_greedy_loop(c_fwd).path)
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
        vl = info_nce(clips @ narrs.T, diagonal_positives(b), cfg.temperature_infonce)
        vv = info_nce(va @ vb.T, diagonal_positives(b), cfg.temperature_infonce)
        assert out.value == vl.value + vv.value
        assert out.components == {"vl": vl.value, "vv": vv.value}

    @pytest.mark.parametrize("name", ["narrations", "view_a", "view_b"])
    @pytest.mark.parametrize("shape", [(3, 3), (2, 4)], ids=["rows", "dim"])
    def test_shape_errors_name_the_input(self, name, shape):
        mats = {"clip_frames": np.ones((2, 3)), "narrations": np.ones((2, 3)), "view_a": np.ones((2, 3)),
                "view_b": np.ones((2, 3)), name: np.ones(shape)}
        with pytest.raises(DimMismatchError) as info:  # not numpy's ValueError from a product
            clip_lecnce(**mats, cfg=LossConfig())
        assert str(info.value) == f"{name} has shape {shape}, clip_frames (2, 3)"

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
        contrast = info_nce(pooled @ parents.T, diagonal_positives(2), cfg.temperature_infonce)
        dtw_vals = []
        for f, c in zip(frames, children):
            cf = CostMatrix(losses._costs(f, c, cfg.beta)[0])
            dtw_vals.append(dtw_hinge_loop(cf, reverse_columns(cf), cfg.phi).value)
        expected = contrast.value + 0.01 * float(np.mean(dtw_vals))
        assert abs(out.value - expected) < 1e-12

    def test_empty_children_raises(self):
        frames, parents, _ = _hier_instance(25)
        with pytest.raises(EmptyMatrixError, match=r"child_texts has no cells"):
            hier_lecnce(frames, parents, np.empty((3, 0, 5)), LossConfig())

    def test_gradients_match_finite_differences(self):
        _check_hier_gradients("greedy")

    def test_gradients_match_finite_differences_dp(self):
        _check_hier_gradients("dp")


class TestHierLecnceEntryChecks:
    """Invalid input fails at the hier_lecnce entry with a named error."""

    @pytest.mark.parametrize("ragged", [False, True])
    def test_empty_segment(self, ragged):
        frames, parents, children = _hier_instance(50, b=4)
        if ragged:  # one empty segment among full ones is a ragged list
            frames[2] = np.empty((0, 5))
            with pytest.raises(DimMismatchError, match="segment_frames"):
                hier_lecnce(frames, parents, children, LossConfig())
        else:
            with pytest.raises(EmptyMatrixError, match="segment_frames"):
                hier_lecnce(np.empty((4, 0, 5)), parents, children, LossConfig())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("ragged", [False, True])
    @pytest.mark.parametrize("name", ["segment_frames", "child_texts"])
    def test_non_finite(self, bad, ragged, name):
        frames, parents, children = _hier_instance(51, b=4)
        parts = frames if name == "segment_frames" else children
        parts[3] = parts[3].copy()
        parts[3][1, 2] = bad
        if ragged:  # the shape is checked before the values
            parts[0] = parts[0][:1]
            with pytest.raises(DimMismatchError, match=name):
                hier_lecnce(frames, parents, children, LossConfig(), "dp")
        else:
            with pytest.raises(NonFiniteError, match=rf"{name}\[3\]"):
                hier_lecnce(np.stack(frames), parents, np.stack(children), LossConfig(), "dp")

    def test_child_dim_mismatch(self):
        frames, parents, children = _hier_instance(52, b=3)
        with pytest.raises(DimMismatchError, match="child_texts"):
            hier_lecnce(frames, parents, np.stack(children)[:, :, :4], LossConfig())

    def test_one_dimensional_segment(self):
        frames, parents, children = _hier_instance(54, b=3)
        with pytest.raises(DimMismatchError, match="segment_frames"):
            hier_lecnce(np.stack(frames)[:, 0], parents, children, LossConfig())

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
        # one matrix of another shape makes the list ragged
        frames, parents, children = _hier_instance(55, b=3)
        parts = frames if name == "segment_frames" else children
        parts[k] = make_bad(parts[k])
        with pytest.raises(DimMismatchError, match=name):
            hier_lecnce(frames, parents, children, LossConfig())

    @pytest.mark.parametrize(
        "name, make_bad",
        [
            ("segment_frames", lambda m: m[:2]),  # B
            ("segment_frames", lambda m: m[:, :, :4]),  # d
            ("segment_frames", lambda m: m[..., None]),  # rank
            ("child_texts", lambda m: m[:, :, :3]),  # d
            ("child_texts", lambda m: m[0]),  # rank
            ("child_texts", lambda m: np.concatenate([m, m])),  # B
        ],
    )
    def test_stack_shape_errors_name_the_input(self, name, make_bad):
        frames, parents, children = _hier_instance(57, b=3)
        stacks = {"segment_frames": np.stack(frames), "child_texts": np.stack(children)}
        stacks[name] = make_bad(stacks[name])
        with pytest.raises(DimMismatchError, match=name):
            hier_lecnce(stacks["segment_frames"], parents, stacks["child_texts"], LossConfig())

    @pytest.mark.parametrize("algorithm", ["greedy", "dp"])
    def test_overflowing_similarities_raise_non_finite(self, algorithm):
        # finite inputs whose products overflow: the costs built from them are
        # not checked again, and the alignment's overflow check refuses them
        frames, children = np.full((2, 3, 4), 1e200), np.full((2, 2, 4), 1e200)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteError, match="alignment cost overflows"):
            hier_lecnce(frames, np.ones((2, 4)), children, LossConfig(), algorithm)

    def test_empty_batch(self):
        with pytest.raises(EmptyMatrixError, match="segment_frames"):
            hier_lecnce(np.empty((0, 4, 5)), np.empty((0, 5)), np.empty((0, 3, 5)), LossConfig())


class TestHierLecnceValidatesOnce:
    def test_no_per_sample_build_or_validation(self, monkeypatch):
        counts = dict.fromkeys(("build_cost_matrix", "as_matrix", "as_stack", "_non_negative"), 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(losses, "build_cost_matrix", counting("build_cost_matrix", losses.build_cost_matrix))
        as_matrix = counting("as_matrix", numerics.as_matrix)
        as_stack = counting("as_stack", numerics.as_stack)
        for module in (numerics, losses, alignment, encoders, evalkit):
            monkeypatch.setattr(module, "as_matrix", as_matrix)
        for module in (numerics, losses, alignment):
            monkeypatch.setattr(module, "as_stack", as_stack)
        monkeypatch.setattr(alignment, "_non_negative", counting("_non_negative", alignment._non_negative))
        # phi far above any cost gap leaves every hinge active, so the
        # backward of every sample runs as well
        cfg = LossConfig(lambda_dtw=0.5, phi=1e3)
        for algorithm in ("dp", "greedy"):
            per_size = {}
            for b in (4, 40):
                frames, parents, children = _hier_instance(56, b=b, t=16, n=4, d=8)
                counts.update(dict.fromkeys(counts, 0))
                out = hier_lecnce(frames, parents, children, cfg, algorithm)
                assert out.components["dtw"] > 0
                per_size[b] = dict(counts)
            # the entry checks (parent_texts; segment_frames and child_texts), and
            # nothing on the costs hier_lecnce builds, pools or aligns itself or
            # on the probabilities its active backward reads
            assert per_size[4] == per_size[40] == {"build_cost_matrix": 0, "as_matrix": 1, "as_stack": 2,
                                                  "_non_negative": 0}


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
    """hier_lecnce as one loop-oracle hinge per sample: the oracle for the batched alignment."""
    b = len(frames)
    pools = [mean_pool_rows(f) for f in frames]
    pooled = np.stack([row for row, _ in pools])
    contrast = info_nce(pooled @ parents.T, diagonal_positives(b), cfg.temperature_infonce)
    g_sim = contrast.grads["sim"]
    grad_pooled = g_sim @ parents
    grad_frames = [mean_pool_rows_backward(grad_pooled[k], cache) for k, (_, cache) in enumerate(pools)]
    grad_children = [np.zeros_like(c) for c in children]
    total = 0.0
    active = 0
    for k in range(b):
        c_fwd = CostMatrix(losses._costs(frames[k], children[k], cfg.beta)[0])
        hinge = dtw_hinge_loop(c_fwd, reverse_columns(c_fwd), cfg.phi, algorithm)
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


def assert_equals_per_sample(frames, parents, children, cfg, algorithm):
    """hier_lecnce on the stacked batch == per_sample_hier_lecnce, its gradients stacked."""
    out = hier_lecnce(np.stack(frames), parents, np.stack(children), cfg, algorithm)
    value, grads, components, _ = per_sample_hier_lecnce(frames, parents, children, cfg, algorithm)
    assert out.value == value
    assert out.components == components
    np.testing.assert_array_equal(out.grads["parent_texts"], grads["parent_texts"])
    for name in ("segment_frames", "child_texts"):
        np.testing.assert_array_equal(out.grads[name], np.stack(grads[name]))


class TestHierLecnceBatchedAlignment:
    """The one-call alignment in hier_lecnce equals a per-sample loop-oracle hinge exactly."""

    @pytest.mark.parametrize("algorithm", ["dp", "greedy"])
    @pytest.mark.parametrize("lam", [0.0, 0.7])
    @pytest.mark.parametrize("ragged", [False, True])
    def test_equals_per_sample_hinge(self, algorithm, lam, ragged):
        rng = make_rng(31)
        b, d = 12, 6
        shapes = rng.integers(1, 9, size=(b, 2)) if ragged else np.tile([16, 4], (b, 1))
        frames = [unit_rows(rng, int(t), d) for t, _ in shapes]
        children = [unit_rows(rng, int(n), d) for _, n in shapes]
        parents = unit_rows(rng, b, d)
        # phi near the typical cost gap leaves some hinges active and some not
        cfg = LossConfig(lambda_dtw=lam, phi=0.5)
        if ragged:  # a batch of several (T, N) shapes is refused, not grouped
            with pytest.raises(DimMismatchError, match="segment_frames"):
                hier_lecnce(frames, parents, children, cfg, algorithm)
            return
        assert_equals_per_sample(frames, parents, children, cfg, algorithm)
        assert 0 < per_sample_hier_lecnce(frames, parents, children, cfg, algorithm)[3] < b

    @settings(max_examples=60, deadline=None)
    @given(
        # (B, T, N, d); at d == 1 two unit rows of opposite sign pool to zero
        shape=st.tuples(st.integers(1, 10), st.integers(1, 12), st.integers(1, 6), st.integers(2, 8)),
        algorithm=st.sampled_from(["dp", "greedy"]),
        lam=st.sampled_from([0.0, 0.01, 0.7]),
        phi=st.sampled_from([-0.5, 0.0, 0.1, 0.5, 3.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_equals_per_sample_hinge(self, shape, algorithm, lam, phi, seed):
        rng = make_rng(seed)
        b, t, n, d = shape
        frames = [unit_rows(rng, t, d) for _ in range(b)]
        children = [unit_rows(rng, n, d) for _ in range(b)]
        cfg = LossConfig(lambda_dtw=lam, phi=phi)
        assert_equals_per_sample(frames, unit_rows(rng, b, d), children, cfg, algorithm)


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
        _, _, components, active = per_sample_hier_lecnce(frames, parents, children, cfg, "dp")
        assert active == 0 and components["dtw"] == 0.0
        assert_equals_per_sample(frames, parents, children, cfg, "dp")


# (phi, which hinges are active on _walk_instance)
ACTIVITY = [(-1e3, "none"), (0.0, "some"), (0.5, "some"), (1e3, "all")]


def _walk_instance(seed=33, b=12, t=16, n=4, d=6):
    rng = make_rng(seed)
    frames = np.stack([unit_rows(rng, t, d) for _ in range(b)])
    return frames, unit_rows(rng, b, d), np.stack([unit_rows(rng, n, d) for _ in range(b)])


class TestHierLecnceWalksActiveOnly:
    """hier_lecnce walks only the active hinges' paths and equals the hinge that walks them all."""

    @pytest.mark.parametrize("algorithm", ["dp", "greedy"])
    @pytest.mark.parametrize("phi, activity", ACTIVITY)
    @pytest.mark.parametrize("lam", [0.0, 0.7])
    def test_equals_all_walk_oracle(self, algorithm, phi, activity, lam):
        frames, parents, children = _walk_instance()
        cfg = LossConfig(lambda_dtw=lam, phi=phi)
        walked = []

        def recording(fn):
            def wrapper(stack, *args):
                walked.append(len(stack))
                return fn(stack, *args)

            return wrapper

        with mock.patch.object(alignment, "_greedy", recording(alignment._greedy)), \
                mock.patch.object(alignment, "_dp_walk", recording(alignment._dp_walk)):
            out = hier_lecnce(frames, parents, children, cfg, algorithm)
        want = all_walk_hier_lecnce(frames, parents, children, cfg, algorithm)
        assert out.value == want.value
        assert out.components == want.components
        assert out.grads.keys() == want.grads.keys()
        for name in want.grads:
            np.testing.assert_array_equal(out.grads[name], want.grads[name])

        b = len(frames)
        costs = losses._costs(frames, children, cfg.beta)[0]
        aligned = alignment.align_batch(np.concatenate([costs, costs[:, :, ::-1]]), algorithm)[0]
        n_active = int(losses._hinge(aligned[:b] - aligned[b:], phi)[1].sum())
        assert {"none": n_active == 0, "some": 0 < n_active < b, "all": n_active == b}[activity]
        if algorithm == "greedy":  # its walk yields its costs: one call over all 2B matrices
            assert walked == [2 * b]
        else:  # no walk without an active hinge that enters the gradient
            assert walked == ([2 * n_active] if lam > 0 and n_active else [])

    @pytest.mark.parametrize("lam, phi", [(0.7, -1e3), (0.0, 0.5), (0.0, 1e3)])
    def test_dp_without_a_gradient_walks_nothing(self, lam, phi):
        frames, parents, children = _walk_instance(34)
        with mock.patch.object(alignment, "_greedy") as walk, mock.patch.object(alignment, "_dp_walk") as dp_walk:
            hier_lecnce(frames, parents, children, LossConfig(lambda_dtw=lam, phi=phi), "dp")
        walk.assert_not_called()
        dp_walk.assert_not_called()

    def test_unknown_algorithm_raises_before_any_alignment(self):
        frames, parents, children = _walk_instance(35)
        with mock.patch.object(losses, "_align_padded") as align:
            with pytest.raises(FieldValueError, match=r"dtw_algorithm must be one of \('greedy', 'dp'\), got 'beam'"):
                hier_lecnce(frames, parents, children, LossConfig(), "beam")
        align.assert_not_called()


def _gate_instance(rng, b, t, n, d, ordered, noise=0.1):
    """A (B, T, d)/(B, d)/(B, N, d) hier_lecnce batch; ordered frames are drawn near their child texts, in order."""
    children = np.stack([unit_rows(rng, n, d) for _ in range(b)])
    if ordered:
        frames = children[:, np.arange(t) * n // t] + rng.normal(0.0, noise, size=(b, t, d))
        frames /= np.linalg.norm(frames, axis=2, keepdims=True)
    else:
        frames = np.stack([unit_rows(rng, t, d) for _ in range(b)])
    return frames, unit_rows(rng, b, d), children


def assert_equals_all_walk(frames, parents, children, cfg, algorithm="dp"):
    """hier_lecnce == all_walk_hier_lecnce in value, components and every gradient."""
    out = hier_lecnce(frames, parents, children, cfg, algorithm)
    want = all_walk_hier_lecnce(frames, parents, children, cfg, algorithm)
    assert out.value == want.value
    assert out.components == want.components
    assert out.grads.keys() == want.grads.keys()
    for name in want.grads:
        np.testing.assert_array_equal(out.grads[name], want.grads[name])


GATE_PHIS = [-0.5, 0.0, 0.1, 0.5, 3.0]


class TestHingesIdleGate:
    """A DP batch whose hinges the path bounds settle skips the alignment, and nothing else changes."""

    @settings(max_examples=80, deadline=None)
    @given(
        # (B, T, N, d): T < N, T == 1 and N == 1 included
        shape=st.tuples(st.integers(1, 8), st.integers(1, 14), st.integers(1, 8), st.integers(2, 8)),
        ordered=st.booleans(),
        lam=st.sampled_from([0.0, 0.7]),
        phi=st.sampled_from(GATE_PHIS),
        beta=st.sampled_from([0.05, 0.1, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_equals_all_walk_oracle(self, shape, ordered, lam, phi, beta, seed):
        frames, parents, children = _gate_instance(make_rng(seed), *shape, ordered)
        assert_equals_all_walk(frames, parents, children, LossConfig(beta=beta, phi=phi, lambda_dtw=lam))

    def test_idle_and_aligned_batches_equal_the_oracle(self):
        rng = make_rng(61)
        idle = []
        for b, t, n in [(6, 1, 4), (6, 5, 1), (6, 3, 7), (6, 16, 4), (25, 64, 6), (8, 12, 12)]:
            for ordered in (True, False):
                for phi in GATE_PHIS:
                    frames, parents, children = _gate_instance(rng, b, t, n, 8, ordered)
                    cfg = LossConfig(phi=phi, lambda_dtw=0.7)
                    idle.append(losses._hinges_idle(_tempered(frames, children, cfg.beta), phi))
                    assert_equals_all_walk(frames, parents, children, cfg)
        assert 0 < sum(idle) < len(idle)

    def test_ordered_batch_is_not_aligned(self):
        frames, parents, children = _gate_instance(make_rng(62), 8, 32, 4, 8, ordered=True, noise=0.05)
        cfg = LossConfig(lambda_dtw=0.7)
        with mock.patch.object(alignment, "_accumulate", wraps=alignment._accumulate) as accumulate:
            out = hier_lecnce(frames, parents, children, cfg, "dp")
        accumulate.assert_not_called()
        assert out.components["dtw"] == 0.0
        assert_equals_all_walk(frames, parents, children, cfg)

    def test_unordered_batch_is_ruled_out_before_the_relaxation(self):
        frames, parents, children = _gate_instance(make_rng(64), 80, 16, 8, 8, ordered=False)
        with mock.patch.object(losses, "_reversed_lower_bound", wraps=losses._reversed_lower_bound) as lower, \
                mock.patch.object(alignment, "_accumulate", wraps=alignment._accumulate) as accumulate:
            hier_lecnce(frames, parents, children, LossConfig(), "dp")
        lower.assert_not_called()
        accumulate.assert_called_once()

    def test_greedy_never_asks(self):
        frames, parents, children = _gate_instance(make_rng(63), 8, 32, 4, 8, ordered=True, noise=0.05)
        with mock.patch.object(losses, "_hinges_idle", wraps=losses._hinges_idle) as gate:
            hier_lecnce(frames, parents, children, LossConfig(), "greedy")
        gate.assert_not_called()
        assert_equals_all_walk(frames, parents, children, LossConfig(), "greedy")

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 1e308, -np.inf, -1e308])
    def test_non_finite_or_near_overflow_costs_certify_nothing(self, bad):
        z = np.ones((3, 4, 2))
        z[:, :, 1] = 2.0
        assert losses._hinges_idle(z, -1e300)  # any finite gap is far above -phi
        z[1, 2, 0] = bad
        assert not losses._hinges_idle(z, -1e300)

    def test_overflowing_similarities_raise_in_the_wavefront(self):
        frames, parents, children = _gate_instance(make_rng(65), 4, 32, 4, 8, ordered=True, noise=0.05)
        assert losses._hinges_idle(_tempered(frames, children, 0.1), 0.1)  # settled at unit scale
        # finite similarities near 1e307, whose reversed DP costs overflow
        with pytest.raises(NonFiniteError, match="alignment cost overflows"):
            hier_lecnce(frames * 1e153, parents, children * 1e153, LossConfig(), "dp")

    def test_settled_batch_builds_no_cost_matrix(self):
        settled = _gate_instance(make_rng(66), 8, 32, 4, 8, ordered=True, noise=0.05)
        unsettled = _gate_instance(make_rng(67), 8, 32, 4, 8, ordered=False)
        for (frames, parents, children), calls in ((settled, 0), (unsettled, 1)):
            with mock.patch.object(losses, "_costs", wraps=losses._costs) as costs, \
                    mock.patch.object(losses, "_softmax_costs", wraps=losses._softmax_costs) as softmax:
                hier_lecnce(frames, parents, children, LossConfig(lambda_dtw=0.7), "dp")
            costs.assert_not_called()
            assert softmax.call_count == calls

    @pytest.mark.parametrize("algorithm", ["dp", "greedy"])
    def test_unsettled_batch_costs_equal_the_cost_build(self, algorithm):
        frames, parents, children = _gate_instance(make_rng(68), 8, 16, 8, 8, ordered=False)
        built, build = [], losses._softmax_costs

        def record(z):
            built.append(build(z))
            return built[-1]

        with mock.patch.object(losses, "_softmax_costs", side_effect=record):
            hier_lecnce(frames, parents, children, LossConfig(lambda_dtw=0.7), algorithm)
        (costs, probs), = built
        want, want_probs = losses._costs(frames, children, 0.1)
        np.testing.assert_array_equal(costs, want)
        np.testing.assert_array_equal(np.signbit(costs), np.signbit(want))
        np.testing.assert_array_equal(probs(...), want_probs(...))


def _tempered(frames, children, beta):
    """The (B, T, N) similarities over ``beta`` that ``_hier_lecnce`` asks ``_hinges_idle`` about."""
    return frames @ np.swapaxes(children, 1, 2) / beta


def _dp_gaps(frames, children, beta):
    """DP(C) - DP(C_rev) of each sample of a batch, aligned on ``_costs``: its hinge is active when gap + phi > 0."""
    costs = losses._costs(frames, children, beta)[0]
    aligned = alignment.align_batch(np.concatenate([costs, costs[:, :, ::-1]]), "dp")[0]
    return np.subtract(*np.split(aligned, 2))


class TestSimilarityCertificate:
    """_hinges_idle on the similarities never settles a batch whose DP hinge on the costs is active."""

    @settings(max_examples=150, deadline=None)
    @given(
        # (B, T, N, d): T < N, T == 1 and N == 1 included
        shape=st.tuples(st.integers(1, 6), st.integers(1, 14), st.integers(1, 8), st.integers(2, 8)),
        ordered=st.booleans(),
        ties=st.booleans(),
        beta=st.sampled_from([0.005, 0.1, 10.0]),
        phi=st.sampled_from([-3.0, -0.5, -1e-9, 0.0, 0.1, 3.0, None]),
        ulps=st.integers(-64, 64),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_never_settles_an_active_hinge(self, shape, ordered, ties, beta, phi, ulps, seed):
        frames, _, children = _gate_instance(make_rng(seed), *shape, ordered, noise=0.02)
        if ties:  # a coarse grid: equal similarities within and across rows
            frames, children = np.round(frames * 2.0) / 2.0 + 0.5, np.round(children * 2.0) / 2.0
        gaps = _dp_gaps(frames, children, beta)
        if phi is None:  # within a few ulps of the margin at which the batch's first hinge turns on
            phi = -gaps.max()
            for _ in range(abs(ulps)):
                phi = np.nextafter(phi, np.sign(ulps) * np.inf)
        if losses._hinges_idle(_tempered(frames, children, beta), float(phi)):
            assert not losses._hinge(gaps, phi)[1].any()

    @pytest.mark.parametrize("beta", [0.005, 0.1, 10.0])
    def test_near_ties_on_tight_bounds(self, beta):
        """2 x 2 matrices whose staircase is the forward DP path and whose relaxation is the reversed one.

        With unit-vector texts z is the frames over beta.  Row 2 prefers
        column 1, so the reversed DP path and the relaxation take the same
        cells; phi sweeps the ulps around the float hinge's turning point.
        """
        rng = make_rng(69)
        children = np.eye(2)[None]
        settled_near = 0
        for _ in range(40):
            frames = rng.uniform(-1.0, 1.0, size=(1, 2, 2))
            frames[0, 1] = np.sort(frames[0, 1])[::-1]
            z, gaps = _tempered(frames, children, beta), _dp_gaps(frames, children, beta)
            turn = -gaps[0]  # the hinge is active for phi above this float
            phi = turn
            for _ in range(64):
                phi = np.nextafter(phi, np.inf)
                assert not losses._hinges_idle(z, float(phi))
            phi = turn
            for step in range(4096):  # down by ulps, then by steps of 2**-40 of the turn
                if losses._hinges_idle(z, float(phi)):
                    assert not losses._hinge(gaps, phi)[1].any()
                    settled_near += turn - phi < 1e-6 * max(1.0, abs(turn))
                    break
                phi = np.nextafter(phi, -np.inf) if step < 64 else phi - 2.0**-40 * max(1.0, abs(turn))
        assert settled_near == 40

    @settings(max_examples=150, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 4), st.integers(1, 12), st.integers(1, 12)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_row_shifts_move_both_bounds_alike(self, shape, seed):
        """A constant added to a row moves the staircase as the relaxation when T >= N, exactly on integers."""
        b, t, n = shape
        rng = make_rng(seed)
        x = rng.integers(-1000, 1001, size=shape).astype(float)
        shift = rng.integers(-10**6, 10**6 + 1, size=(b, t)).astype(float)
        upper, choices = losses._path_bounds(x)
        shifted_upper, shifted_choices = losses._path_bounds(x + shift[:, :, None])
        per_row = losses._bound_plan(t, n)[0].reshape(t, n, n + 1)[:, :, n].sum(axis=1)  # staircase cells per row
        np.testing.assert_array_equal(shifted_upper, upper + shift @ per_row)
        np.testing.assert_array_equal(shifted_choices, choices + shift.sum(axis=1, keepdims=True))
        np.testing.assert_array_equal(losses._reversed_lower_bound(x + shift[:, :, None]),
                                      losses._reversed_lower_bound(x) + shift.sum(axis=1))
        assert (per_row == 1).all() == (t >= n)


class TestPathBounds:
    """The bounds behind _hinges_idle hold exactly on integer-valued costs, whose float sums are exact."""

    @pytest.mark.parametrize("t", range(1, 13))
    def test_staircase_is_a_path(self, t):
        for n in range(1, 13):
            cells = np.argwhere(losses._bound_plan(t, n)[0].reshape(t, n, n + 1)[:, :, n])  # in row-major order
            assert tuple(cells[0]) == (0, 0) and tuple(cells[-1]) == (t - 1, n - 1)
            assert {tuple(m) for m in np.diff(cells, axis=0)} <= {(1, 0), (0, 1), (1, 1)}

    @settings(max_examples=150, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 4), st.integers(1, 12), st.integers(1, 12)),
        high=st.sampled_from([1, 3, 1000]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bounds_hold_on_integer_costs(self, shape, high, seed):
        costs = make_rng(seed).integers(0, high + 1, size=shape).astype(float)
        upper, choices = losses._path_bounds(costs)
        lower = losses._reversed_lower_bound(costs)
        for k, c in enumerate(costs):
            assert dtw_dp(c).cost <= upper[k]
            assert lower[k] <= dtw_dp(c[:, ::-1]).cost
            assert lower[k] == first_column_relaxation_loop(c[:, ::-1])
            assert (lower[k] <= choices[k]).all()


def assert_pool_matches_per_matrix(segments, grad_pooled):
    """_pool_segments and its backward on a (B, T, d) stack equal mean_pool_rows(_backward) per segment with ==."""
    pooled, cache = losses._pool_segments(segments)
    grad_rows = pool_segments_backward(grad_pooled, cache)
    assert pooled.shape == grad_pooled.shape
    assert grad_rows.shape == segments.shape
    for k, seg in enumerate(segments):
        row, seg_cache = mean_pool_rows(seg)
        np.testing.assert_array_equal(pooled[k], row)
        np.testing.assert_array_equal(grad_rows[k], mean_pool_rows_backward(grad_pooled[k], seg_cache))


class TestMeanPool:
    def test_forward_is_renormalized_mean(self):
        rng = make_rng(26)
        segments = rng.normal(size=(3, 5, 4))
        pooled, _ = losses._pool_segments(segments)
        for k, rows in enumerate(segments):
            mean = rows.mean(axis=0)
            np.testing.assert_allclose(pooled[k], mean / np.linalg.norm(mean), atol=1e-12)

    def test_backward_matches_finite_differences(self):
        rng = make_rng(27)
        segments = rng.normal(size=(3, 4, 3))
        w = rng.normal(size=(3, 3))

        def f(flat):
            pooled, _ = losses._pool_segments(flat.reshape(segments.shape))
            return float((w * pooled).sum())

        _, cache = losses._pool_segments(segments)
        analytic = pool_segments_backward(w, cache)
        numeric = finite_diff_grad(f, segments.ravel())
        assert rel_error(analytic, numeric.reshape(segments.shape)) < 1e-6

    @pytest.mark.parametrize(
        "lengths, d",
        [((6, 6, 6, 6), 32), ((4,) * 48, 32), ((7,) * 6, 5), ((1, 1, 1), 8), ((1,), 3), ((150,) * 5, 1)],
    )
    def test_equals_per_matrix_oracle(self, lengths, d):
        # d == 1 with T > 128 runs numpy's pairwise sum along T in blocks
        rng = make_rng(sum(lengths) + d)
        segments = rng.normal(size=(len(lengths), lengths[0], d))
        assert_pool_matches_per_matrix(segments, rng.normal(size=(len(lengths), d)))

    @settings(max_examples=80, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 8), st.integers(1, 160), st.integers(1, 64)),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_equals_per_matrix_oracle(self, shape, scale, seed):
        rng = make_rng(seed)
        segments = scale * rng.normal(size=shape)
        assert_pool_matches_per_matrix(segments, rng.normal(size=(shape[0], shape[2])))

    def test_collapsed_mean_raises(self):
        rng = make_rng(29)
        row = rng.normal(size=4)
        with pytest.raises(ZeroVectorError, match="segment 1"):
            losses._pool_segments(np.stack([rng.normal(size=(2, 4)), np.stack([row, -row])]))


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
