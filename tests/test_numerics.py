import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lecnce import losses
from lecnce.errors import DimMismatchError, FieldValueError, ZeroVectorError
from lecnce.numerics import (
    _column_sums,
    cosine_similarity_matrix,
    finite_diff_grad,
    l2_normalize,
    make_rng,
)


class TestL2Normalize:
    def test_three_four(self):
        np.testing.assert_allclose(l2_normalize([3.0, 4.0]), [0.6, 0.8], atol=1e-12)

    def test_unit_vector_unchanged(self):
        u = np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(l2_normalize(u), u, atol=1e-15)

    def test_zero_vector_raises(self):
        with pytest.raises(ZeroVectorError):
            l2_normalize([0.0, 0.0])

    def test_output_norm(self):
        rng = make_rng(3)
        for _ in range(100):
            v = rng.normal(size=rng.integers(1, 12)) * 10.0 ** rng.integers(-3, 4)
            assert abs(np.linalg.norm(l2_normalize(v)) - 1.0) < 1e-9

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8))
    def test_idempotent(self, vals):
        v = np.asarray(vals)
        if np.linalg.norm(v) < 1e-6:
            return
        once = l2_normalize(v)
        np.testing.assert_allclose(l2_normalize(once), once, atol=1e-12)


class TestCosineSimilarityMatrix:
    def test_orthonormal_basis_identity(self):
        eye = np.eye(4)
        np.testing.assert_array_equal(cosine_similarity_matrix(eye, eye), np.eye(4))

    def test_single_row_self(self):
        row = l2_normalize([1.0, 2.0, 2.0])[None, :]
        np.testing.assert_allclose(cosine_similarity_matrix(row, row), [[1.0]], atol=1e-12)

    def test_matches_bruteforce_dots(self):
        rng = make_rng(7)
        a = np.stack([l2_normalize(rng.normal(size=4)) for _ in range(3)])
        b = np.stack([l2_normalize(rng.normal(size=4)) for _ in range(5)])
        out = cosine_similarity_matrix(a, b)
        for i in range(3):
            for j in range(5):
                assert abs(out[i, j] - sum(a[i, k] * b[j, k] for k in range(4))) < 1e-12
        assert np.all(out <= 1.0 + 1e-9) and np.all(out >= -1.0 - 1e-9)

    def test_transpose_symmetry_exact(self):
        rng = make_rng(11)
        for rows_a, rows_b in [(3, 5), (200, 300), (513, 513), (1, 64)]:
            a = rng.normal(size=(rows_a, 16))
            b = rng.normal(size=(rows_b, 16))
            np.testing.assert_array_equal(
                cosine_similarity_matrix(a, b), cosine_similarity_matrix(b, a).T
            )

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            cosine_similarity_matrix(np.ones((2, 3)), np.ones((2, 4)))


def cost_softmax(m, beta):
    """``probs`` and ``exp(-costs)`` of ``losses._costs`` of rows ``m`` and identity texts: softmaxes of m / beta."""
    m = np.asarray(m, dtype=np.float64)
    costs, probs = losses._costs(m, np.eye(m.shape[1]), beta)
    return probs(...), np.exp(-costs)


class TestSoftmaxRows:
    """The tempered row softmax of the cost build, both as the probs it keeps and as exp(-costs)."""

    def test_constant_row_uniform(self):
        for beta in (0.01, 0.1, 1.0, 10.0):
            for out in cost_softmax(np.full((2, 5), 3.7), beta):
                np.testing.assert_allclose(out, 0.2, atol=1e-12)

    def test_single_column(self):
        for out in cost_softmax([[4.2], [-1.0]], 0.1):
            np.testing.assert_array_equal(out, np.ones((2, 1)))

    def test_analytic_ln2(self):
        for out in cost_softmax([[0.0, np.log(2.0)]], 1.0):
            np.testing.assert_allclose(out, [[1 / 3, 2 / 3]], atol=1e-12)

    def test_rows_sum_to_one_across_temperatures(self):
        rng = make_rng(5)
        for beta in (0.01, 0.1, 1.0, 10.0):
            m = rng.normal(scale=3.0, size=(6, 7))
            with np.errstate(over="raise", invalid="raise"):  # max-subtraction keeps exp in range at beta 0.01
                outs = cost_softmax(m, beta)
            for out in outs:
                assert np.all(out >= 0)
                np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)

    @settings(max_examples=30)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([0.01, 0.1, 1.0, 10.0]))
    def test_rows_sum_property(self, seed, beta):
        rng = make_rng(seed)
        m = rng.normal(scale=5.0, size=(3, 4))
        for out in cost_softmax(m, beta):
            np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)


class TestFiniteDiffGrad:
    def test_square(self):
        g = finite_diff_grad(lambda x: float(x[0] ** 2), np.array([3.0]), h=1e-5)
        assert abs(g[0] - 6.0) < 1e-6

    def test_constant(self):
        g = finite_diff_grad(lambda x: 1.25, np.zeros(4))
        np.testing.assert_array_equal(g, np.zeros(4))

    def test_quadratic_form(self):
        rng = make_rng(9)
        q = rng.normal(size=(3, 3))
        q = (q + q.T) / 2
        x = rng.normal(size=3)
        g = finite_diff_grad(lambda v: float(v @ q @ v), x)
        np.testing.assert_allclose(g, 2 * q @ x, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("h", [0.0, -1e-5, np.inf, np.nan])
    def test_bad_step_named(self, h):
        with pytest.raises(FieldValueError, match=f"h must be finite and > 0, got {h}"):
            finite_diff_grad(lambda x: float(x[0]), np.zeros(1), h=h)


class TestColumnSums:
    """``_column_sums`` against ``a.sum(axis=-2)``, bit for bit: every sign bit too."""

    # the bias gradients of the clip, phase and video steps at the reference shape, their poolings, a last axis of
    # width 1 (where numpy sums pairwise), a single row and T = 1
    @pytest.mark.parametrize("shape", [(1440, 32), (1280, 32), (1600, 32), (360, 4, 32), (80, 16, 32), (25, 64, 32),
                                       (50, 1), (3, 50, 1), (1, 32), (5, 1, 32)])
    def test_equals_the_numpy_sum(self, shape):
        a = make_rng(41).normal(size=shape)
        got, want = _column_sums(a), a.sum(axis=-2)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_signed_zeros_and_other_layouts(self):
        a = make_rng(42).normal(size=(6, 40, 8))
        a[:, :, 0] = -0.0
        a[:, ::2, 1] = -0.0
        a[:, 1::2, 1] = 0.0
        for view in (a, a.transpose(0, 2, 1), a[:, ::3], a[..., ::2], np.asfortranarray(a)):
            assert _column_sums(view).tobytes() == view.sum(axis=-2).tobytes()


class TestRng:
    def test_equal_seeds_bit_identical_across_processes(self):
        code = (
            "import numpy as np; "
            "r = np.random.default_rng(20240607); "
            "print(r.normal(size=8).tobytes().hex(), r.integers(0, 2**63, size=4).tobytes().hex())"
        )
        runs = [
            subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_same_seed_same_stream(self):
        a = make_rng(77).normal(size=100)
        b = make_rng(77).normal(size=100)
        np.testing.assert_array_equal(a, b)
