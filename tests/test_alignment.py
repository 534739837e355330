import numpy as np
import pytest
from hypothesis import given, settings
from helpers import LOOP_ORACLES, dtw_dp_loop
from hypothesis import strategies as st

from lecnce import alignment
from lecnce.alignment import (
    AlignmentResult,
    CostMatrix,
    align,
    align_batch,
    dtw_dp,
    dtw_greedy,
    dtw_subgradient,
    reverse_columns,
)
from lecnce.errors import DimMismatchError, EmptyMatrixError, NonFiniteError
from lecnce.numerics import make_rng

HAND_TRACE_3X3 = np.array([[1.0, 5.0, 5.0], [2.0, 1.0, 5.0], [5.0, 2.0, 1.0]])


def enumerate_min_path_cost(values: np.ndarray) -> float:
    """Brute-force oracle: minimum entry sum over all monotone paths."""
    t, n = values.shape

    def rec(i, j):
        here = values[i, j]
        if i == t - 1 and j == n - 1:
            return here
        best = np.inf
        if i + 1 < t:
            best = min(best, rec(i + 1, j))
        if j + 1 < n:
            best = min(best, rec(i, j + 1))
        if i + 1 < t and j + 1 < n:
            best = min(best, rec(i + 1, j + 1))
        return here + best

    return rec(0, 0)


def path_is_valid(result: AlignmentResult, shape) -> bool:
    t, n = shape
    path = result.path
    if path[0] != (t, n) or path[-1] != (1, 1):
        return False
    for (i1, j1), (i2, j2) in zip(path, path[1:]):
        di, dj = i1 - i2, j1 - j2
        if (di, dj) not in ((1, 0), (0, 1), (1, 1)):
            return False
    return True


class TestDtwGreedy:
    def test_single_cell(self):
        r = dtw_greedy(CostMatrix(np.array([[7.0]])))
        assert r.cost == 7.0
        assert r.path == ((1, 1),)

    def test_hand_trace_3x3(self):
        r = dtw_greedy(CostMatrix(HAND_TRACE_3X3))
        assert r.cost == 3.0
        assert r.path == ((3, 3), (2, 2), (1, 1))

    def test_hand_trace_1x3(self):
        r = dtw_greedy(CostMatrix(np.array([[1.0, 2.0, 3.0]])))
        assert r.cost == 6.0
        assert r.path == ((1, 3), (1, 2), (1, 1))

    def test_left_border_forces_up(self):
        # column matrix: only up moves are available after the corner
        r = dtw_greedy(CostMatrix(np.array([[1.0], [2.0], [3.0]])))
        assert r.cost == 6.0
        assert r.path == ((3, 1), (2, 1), (1, 1))

    def test_cost_equals_path_sum(self):
        rng = make_rng(1)
        for _ in range(200):
            v = rng.uniform(0.0, 9.0, size=(rng.integers(1, 6), rng.integers(1, 6)))
            r = dtw_greedy(CostMatrix(v))
            assert path_is_valid(r, v.shape)
            assert abs(r.cost - sum(v[i - 1, j - 1] for i, j in r.path)) < 1e-9

    def test_empty_raises(self):
        with pytest.raises(EmptyMatrixError):
            dtw_greedy(np.empty((0, 3)))

    def test_overflow_raises(self):
        with pytest.raises(NonFiniteError, match="overflows"):
            dtw_greedy(CostMatrix(np.full((2, 2), 1e308)))


class TestDtwDp:
    def test_single_cell(self):
        assert dtw_dp(CostMatrix(np.array([[7.0]]))).cost == 7.0

    def test_diagonal_beats_detour(self):
        r = dtw_dp(CostMatrix(np.array([[1.0, 9.0], [9.0, 1.0]])))
        assert r.cost == 2.0
        assert r.path == ((2, 2), (1, 1))

    def test_matches_enumeration_up_to_4x4(self):
        rng = make_rng(2)
        for trial in range(120):
            t, n = rng.integers(1, 5), rng.integers(1, 5)
            v = rng.integers(1, 10, size=(t, n)).astype(float)
            r = dtw_dp(CostMatrix(v))
            assert r.cost == enumerate_min_path_cost(v)
            assert path_is_valid(r, v.shape)
            assert abs(r.cost - sum(v[i - 1, j - 1] for i, j in r.path)) < 1e-9

    def test_never_worse_than_greedy(self):
        rng = make_rng(3)
        for _ in range(300):
            v = rng.uniform(0.0, 5.0, size=(rng.integers(1, 7), rng.integers(1, 7)))
            c = CostMatrix(v)
            assert dtw_dp(c).cost <= dtw_greedy(c).cost + 1e-12

    def test_overflow_raises(self):
        with pytest.raises(NonFiniteError, match="overflows"):
            dtw_dp(CostMatrix(np.full((2, 2), 1e308)))


class TestReverseColumns:
    def test_definition(self):
        c = CostMatrix(np.array([[1.0, 2.0, 3.0]]))
        np.testing.assert_array_equal(reverse_columns(c).values, [[3.0, 2.0, 1.0]])

    def test_palindrome_unchanged(self):
        c = CostMatrix(np.array([[1.0, 2.0, 1.0], [4.0, 0.0, 4.0]]))
        np.testing.assert_array_equal(reverse_columns(c).values, c.values)

    def test_involution(self):
        rng = make_rng(4)
        v = rng.uniform(0, 3, size=(3, 5))
        c = CostMatrix(v)
        back = reverse_columns(reverse_columns(c))
        np.testing.assert_array_equal(back.values, v)


class TestDtwSubgradient:
    def test_single_cell(self):
        c = CostMatrix(np.array([[2.0]]))
        np.testing.assert_array_equal(dtw_subgradient(c, dtw_greedy(c)), [[1.0]])

    def test_hand_trace_cells(self):
        c = CostMatrix(HAND_TRACE_3X3)
        g = dtw_subgradient(c, dtw_greedy(c))
        expected = np.zeros((3, 3))
        expected[[2, 1, 0], [2, 1, 0]] = 1.0
        np.testing.assert_array_equal(g, expected)

    def test_linearity_along_fixed_path(self):
        rng = make_rng(5)
        v = rng.uniform(0.5, 4.0, size=(4, 3))
        c = CostMatrix(v)
        r = dtw_greedy(c)
        g = dtw_subgradient(c, r)
        eps = 1e-3
        on = r.path[1]
        off = next(
            (i, j)
            for i in range(1, 5)
            for j in range(1, 4)
            if (i, j) not in r.path
        )
        for cell, expected_delta in ((on, eps), (off, 0.0)):
            perturbed = v.copy()
            perturbed[cell[0] - 1, cell[1] - 1] += eps
            fixed_path_cost = sum(perturbed[i - 1, j - 1] for i, j in r.path)
            assert abs(fixed_path_cost - r.cost - expected_delta) < 1e-12
            assert g[cell[0] - 1, cell[1] - 1] == (1.0 if expected_delta else 0.0)

    def test_out_of_bounds_path(self):
        c = CostMatrix(np.ones((2, 2)))
        with pytest.raises(DimMismatchError, match=r"path cell \(3, 1\) outside 2x2 matrix"):
            dtw_subgradient(c, AlignmentResult(cost=1.0, path=((3, 1),)))


class TestInvariants:
    def test_greedy_path_border_walk(self):
        rng = make_rng(6)
        for _ in range(100):
            v = rng.uniform(0, 9, size=(rng.integers(1, 6), rng.integers(1, 6)))
            for algo in (dtw_greedy, dtw_dp):
                r = algo(CostMatrix(v))
                hit_border = False
                for i, j in r.path:
                    if i == 1 or j == 1:
                        hit_border = True
                    if hit_border:
                        assert i == 1 or j == 1


# (B, T, N) of the phase and video cost stacks: desk phase and video, then
# the reference phase and video shapes
STEP_SHAPES = [(8, 8, 2), (4, 48, 6), (80, 16, 8), (25, 64, 6)]


def assert_matches_per_matrix(mats, algorithm):
    """align_batch == one loop oracle + dtw_subgradient call per matrix of a (B, T, N) stack."""
    costs, masks = align_batch(mats, algorithm)
    assert costs.shape == (len(mats),)
    assert masks.shape == np.shape(mats)
    for k, m in enumerate(mats):
        r = LOOP_ORACLES[algorithm](m)
        assert costs[k] == r.cost
        np.testing.assert_array_equal(masks[k], dtw_subgradient(m, r))


class TestAlignBatch:
    @pytest.mark.parametrize("algorithm", ["dp", "greedy"])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (1, 256), (256, 1)])
    def test_degenerate_shapes(self, algorithm, shape):
        rng = make_rng(40)
        assert_matches_per_matrix(list(rng.uniform(0.0, 3.0, size=(3, *shape))), algorithm)

    @pytest.mark.parametrize("algorithm", ["dp", "greedy"])
    def test_tie_heavy_integer_matrices(self, algorithm):
        rng = make_rng(41)
        for _ in range(60):
            b, t, n = (int(x) for x in rng.integers(1, 8, size=3))
            mats = list(rng.integers(0, 3, size=(b, t, n)).astype(float))
            assert_matches_per_matrix(mats, algorithm)
        assert_matches_per_matrix([np.zeros((5, 4)), np.ones((5, 4))], algorithm)

    @pytest.mark.parametrize("algorithm", ["dp", "greedy"])
    @pytest.mark.parametrize("b,t,n", STEP_SHAPES)
    def test_training_step_shapes(self, algorithm, b, t, n):
        rng = make_rng(42 + t)
        assert_matches_per_matrix(rng.uniform(0.0, 4.0, size=(b, t, n)), algorithm)

    @pytest.mark.parametrize("algorithm", ["dp", "greedy"])
    def test_ragged_batches(self, algorithm):
        rng = make_rng(43)
        for _ in range(40):
            shapes = rng.integers(1, 10, size=(int(rng.integers(2, 7)), 2))
            if len(set(map(tuple, shapes.tolist()))) == 1:
                continue
            mats = [rng.uniform(0.0, 4.0, size=(int(t), int(n))) for t, n in shapes]
            with pytest.raises(DimMismatchError, match="cost matrices"):
                align_batch(mats, algorithm)

    def test_reference_sized_stack(self):
        rng = make_rng(44)
        assert_matches_per_matrix(list(rng.uniform(0.0, 2.0, size=(7, 256, 12))), "dp")

    @settings(max_examples=240, deadline=None)
    @given(
        algorithm=st.sampled_from(["dp", "greedy"]),
        shape=st.tuples(st.integers(1, 6), st.integers(1, 12), st.integers(1, 12)),
        values=st.sampled_from(["integer", "decades", "uniform"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_matches_per_matrix(self, algorithm, shape, values, seed):
        rng = make_rng(seed)
        mats = {
            "integer": lambda: rng.integers(0, 4, size=shape).astype(float),  # tie-heavy
            "decades": lambda: 10.0 ** rng.uniform(-3.0, 3.0, size=shape),
            "uniform": lambda: rng.uniform(0.0, 5.0, size=shape),
        }[values]()
        assert_matches_per_matrix(mats, algorithm)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            align_batch([np.ones((2, 2))], "beam")
        for algorithm in ("dp", "greedy"):
            for empty in ((0, 2, 2), (2, 0, 2), (2, 2, 0)):
                with pytest.raises(EmptyMatrixError):
                    align_batch(np.empty(empty), algorithm)
            for wrong_rank in ([], [np.ones(3)], np.ones((2, 2)), np.ones((1, 2, 2, 1))):
                with pytest.raises(DimMismatchError):
                    align_batch(wrong_rank, algorithm)
            with pytest.raises(DimMismatchError):
                align_batch([np.ones((2, 2)), np.empty((0, 2))], algorithm)
            for bad in ([[1.0, np.nan], [2.0, 1.0]], [[1.0, np.inf], [1.0, 1.0]], [[1.0, 1.0], [1.0, -np.inf]]):
                with pytest.raises(NonFiniteError, match=r"cost matrices\[1\] contains non-finite"):
                    align_batch([np.ones((2, 2)), np.array(bad)], algorithm)
            with pytest.raises(NonFiniteError, match="overflows"):
                align_batch([np.full((2, 2), 1e308)], algorithm)


def aligned_padded(mats, algorithm):
    """The costs and ``paths`` of the unchecked core on the stack ``mats``, bordered as ``align_batch`` borders it."""
    return alignment._align_padded(alignment._padded(mats), algorithm)


def assert_dp_costs_match(mats):
    """The kept tables' corners == align_batch's DP costs == one DP loop cost per matrix, with ==."""
    costs = aligned_padded(mats, "dp")[0]
    np.testing.assert_array_equal(costs, align_batch(mats, "dp")[0])
    assert costs.tolist() == [dtw_dp_loop(m).cost for m in mats]


class TestDpCosts:
    """The DP costs of the kept tables, read before any walk, equal the costs of the full alignment, bit for bit."""

    def test_random_stacks(self):
        rng = make_rng(60)
        for _ in range(40):
            b, t, n = (int(x) for x in rng.integers(1, 12, size=3))
            assert_dp_costs_match(10.0 ** rng.uniform(-3.0, 3.0, size=(b, t, n)))
        for shape in ((1, 1), (1, 9), (9, 1)):
            assert_dp_costs_match(rng.uniform(0.0, 3.0, size=(4, *shape)))

    def test_tie_heavy_integer_matrices(self):
        rng = make_rng(61)
        for _ in range(60):
            b, t, n = (int(x) for x in rng.integers(1, 8, size=3))
            assert_dp_costs_match(rng.integers(0, 3, size=(b, t, n)).astype(float))
        assert_dp_costs_match(np.stack([np.zeros((5, 4)), np.ones((5, 4))]))

    # the forward and reversed stacks of a reference phase and video step
    @pytest.mark.parametrize("b,t,n", [(160, 16, 8), (50, 64, 6)])
    def test_reference_step_shapes(self, b, t, n):
        assert_dp_costs_match(make_rng(62 + t).uniform(0.0, 4.0, size=(b, t, n)))

    @pytest.mark.parametrize("b,t,n", [(12, 16, 8), (7, 5, 5), (5, 1, 4), (5, 4, 1)])
    def test_paths_walked_from_kept_tables_match_dtw_dp(self, b, t, n):
        """Any subset of the kept tables walks to each matrix's DP loop path, ties included."""
        rng = make_rng(63 + t)
        mats = rng.integers(0, 3, size=(b, t, n)).astype(float)
        paths = aligned_padded(mats, "dp")[1]
        rows = np.flatnonzero(rng.random(b) < 0.5)
        masks = paths(rows)
        assert 0 < len(rows) < b and masks.shape == (len(rows), t, n)
        for k, mask in zip(rows, masks, strict=True):
            np.testing.assert_array_equal(mask, dtw_subgradient(mats[k], dtw_dp_loop(mats[k])))


def assert_equals_loop(values, algorithm):
    """The public per-matrix alignment == its loop oracle, cost and path, with ==."""
    got = align(values, algorithm)
    want = LOOP_ORACLES[algorithm](values)
    assert got.cost == want.cost
    assert got.path == want.path


class TestPerMatrixMatchesLoops:
    """dtw_dp and dtw_greedy, the kernel on one matrix, equal the per-cell loops they replaced."""

    @pytest.mark.parametrize("algorithm", ["dp", "greedy"])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (1, 64), (64, 1)])
    def test_degenerate_shapes(self, algorithm, shape):
        rng = make_rng(70)
        for _ in range(5):
            assert_equals_loop(rng.uniform(0.0, 3.0, size=shape), algorithm)
            assert_equals_loop(rng.integers(0, 2, size=shape).astype(float), algorithm)

    @pytest.mark.parametrize("algorithm", ["dp", "greedy"])
    def test_tie_heavy_integer_matrices(self, algorithm):
        rng = make_rng(71)
        for _ in range(200):
            t, n = (int(x) for x in rng.integers(1, 9, size=2))
            assert_equals_loop(CostMatrix(rng.integers(0, 3, size=(t, n)).astype(float)), algorithm)
        for constant in (np.zeros((5, 4)), np.ones((4, 5))):
            assert_equals_loop(constant, algorithm)

    @settings(max_examples=300, deadline=None)
    @given(
        algorithm=st.sampled_from(["dp", "greedy"]),
        shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        values=st.sampled_from(["integer", "decades", "uniform"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property(self, algorithm, shape, values, seed):
        rng = make_rng(seed)
        v = {
            "integer": lambda: rng.integers(0, 3, size=shape).astype(float),  # tie-heavy
            "decades": lambda: 10.0 ** rng.uniform(-3.0, 3.0, size=shape),
            "uniform": lambda: rng.uniform(0.0, 5.0, size=shape),
        }[values]()
        assert_equals_loop(v, algorithm)


# each raw-array entry point of the kernel, on a stack; the per-matrix ones align its first matrix
NEGATIVE_ENTRY = {
    "dtw_dp": lambda mats: dtw_dp(mats[0]),
    "dtw_greedy": lambda mats: dtw_greedy(mats[0]),
    "align_batch dp": lambda mats: align_batch(mats, "dp"),
    "align_batch greedy": lambda mats: align_batch(mats, "greedy"),
}


class TestNegativeCosts:
    """Every raw-array entry point refuses a negative cost, naming the first matrix that holds one."""

    @pytest.mark.parametrize("entry", NEGATIVE_ENTRY.values(), ids=NEGATIVE_ENTRY.keys())
    def test_single_matrix(self, entry):
        with pytest.raises(ValueError, match=r"cost matrices\[0\] contains negative values"):
            entry(np.array([[[-1.0, 2.0], [3.0, -4.0]]]))

    @pytest.mark.parametrize("entry", ["align_batch dp", "align_batch greedy"])
    def test_first_bad_matrix_named(self, entry):
        mats = np.ones((4, 3, 2))
        mats[2, 1, 0] = mats[3, 0, 0] = -1e-300
        with pytest.raises(ValueError, match=r"cost matrices\[2\] contains negative values"):
            NEGATIVE_ENTRY[entry](mats)

    @pytest.mark.parametrize("entry", NEGATIVE_ENTRY.values(), ids=NEGATIVE_ENTRY.keys())
    def test_negative_zero_is_valid(self, entry):
        entry(np.array([[[-0.0, 2.0], [3.0, -0.0]]]))


class TestAlignStack:
    """The unchecked stack core, ``_align_padded``, and the paths of any subset of its matrices."""

    @pytest.mark.parametrize("algorithm", ["dp", "greedy"])
    def test_paths_of_any_rows_match_align_batch(self, algorithm):
        """The paths of an index or boolean selection == those rows of align_batch's masks, with ==."""
        rng = make_rng(80)
        mats = rng.integers(0, 3, size=(9, 7, 4)).astype(float)
        want_costs, want_masks = align_batch(mats, algorithm)
        costs, paths = aligned_padded(mats, algorithm)
        np.testing.assert_array_equal(costs, want_costs)
        pick = rng.random(9) < 0.5
        for rows in (pick, np.flatnonzero(pick), np.array([8, 0, 8]), slice(None)):
            np.testing.assert_array_equal(paths(rows), want_masks[rows])
        assert paths(np.zeros(9, dtype=bool)).shape == (0, 7, 4)
