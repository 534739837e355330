import hashlib
import itertools
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from helpers import (
    newton_probe,
    per_class_f1_loop,
    per_sample_evaluate,
    probe_objective,
    recall_ranks_loop,
    row_major_probe_objective,
    unit_rows,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from lecnce import encoders as enc
from lecnce import evalkit
from lecnce.datagen import ProcedureSpec, generate_dataset
from lecnce.errors import (
    DimMismatchError,
    FieldValueError,
    KExceedsCorpusError,
    SingleClassError,
    ZeroVectorError,
)
from lecnce.evalkit import (
    PROBE_TOL,
    PROTOCOLS,
    EvalConfig,
    EvalReport,
    _probe_objective,
    accuracy_f1,
    evaluate,
    linear_probe,
    modality_gap,
    pool_video_embedding,
    recall_at_k,
    retrieval_clips,
    zero_shot_classify,
)
from lecnce.numerics import make_rng, subsample_frames
from lecnce.trainer import TrainConfig, train_run


class TestEvalConfig:
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_probe_weight_decay_rejected(self, bad):
        with pytest.raises(FieldValueError, match="^probe_weight_decay must be finite") as info:
            EvalConfig(probe_weight_decay=bad)
        assert info.value.field == "probe_weight_decay"


class TestZeroShotClassify:
    def test_exact_match_wins(self):
        classes = np.eye(5)
        images = classes[[3, 0, 4]]
        np.testing.assert_array_equal(zero_shot_classify(images, classes), [3, 0, 4])

    def test_all_identical_classes_tie_to_zero(self):
        classes = np.tile(np.eye(4)[0], (3, 1))
        images = unit_rows(make_rng(1), 6, 4)
        np.testing.assert_array_equal(zero_shot_classify(images, classes), np.zeros(6, dtype=int))

    def test_matches_bruteforce_argmax(self):
        rng = make_rng(2)
        images = unit_rows(rng, 20, 6)
        classes = unit_rows(rng, 5, 6)
        preds = zero_shot_classify(images, classes)
        for i in range(20):
            sims = [float(images[i] @ classes[c]) for c in range(5)]
            best = max(range(5), key=lambda c: (sims[c], -c))
            assert preds[i] == best

    def test_scale_invariance_of_argmax(self):
        rng = make_rng(3)
        images = unit_rows(rng, 10, 4)
        classes = unit_rows(rng, 3, 4)
        base = zero_shot_classify(images, classes)
        # uniform positive rescaling of all class similarities preserves argmax
        np.testing.assert_array_equal(zero_shot_classify(images * 7.3, classes), base)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            zero_shot_classify(np.ones((1, 3)), np.ones((2, 4)))


def fullsort_recall_oracle(sim: np.ndarray, ks):
    out = {}
    n = sim.shape[0]
    for k in ks:
        hits = 0
        for i in range(n):
            order = sorted(range(sim.shape[1]), key=lambda j: (-sim[i, j], j))
            if i in order[:k]:
                hits += 1
        out[k] = hits / n
    return out


class TestRecallAtK:
    def test_identity_similarity(self):
        out = recall_at_k(np.eye(6), (1, 5))
        assert out["t2i"][1] == 1.0 and out["i2t"][1] == 1.0

    def test_k_equals_corpus(self):
        rng = make_rng(4)
        sim = rng.normal(size=(10, 10))
        out = recall_at_k(sim, (10,))
        assert out["t2i"][10] == 1.0 and out["i2t"][10] == 1.0

    def test_matches_fullsort_oracle(self):
        rng = make_rng(5)
        for _ in range(20):
            sim = rng.normal(size=(8, 8))
            out = recall_at_k(sim, (1, 5, 8))
            assert out["t2i"] == fullsort_recall_oracle(sim, (1, 5, 8))
            assert out["i2t"] == fullsort_recall_oracle(sim.T, (1, 5, 8))

    def test_tie_prefers_lower_index(self):
        sim = np.array([[0.5, 0.5], [0.5, 0.5]])
        out = recall_at_k(sim, (1,))
        # query 0's true match is index 0 and wins its tie; query 1's loses
        assert out["t2i"][1] == 0.5

    def test_non_decreasing_in_k(self):
        rng = make_rng(6)
        for _ in range(30):
            sim = rng.normal(size=(7, 7))
            out = recall_at_k(sim, (1, 2, 3, 4, 5, 6, 7))
            for direction in ("t2i", "i2t"):
                vals = [out[direction][k] for k in range(1, 8)]
                assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_k_exceeds_corpus(self):
        with pytest.raises(KExceedsCorpusError):
            recall_at_k(np.eye(4), (5,))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda n: st.lists(st.integers(0, 3), min_size=n * n, max_size=n * n)))
    def test_matches_per_query_loop_with_ties(self, scores):
        # four score levels make ties with the true match common
        n = int(round(len(scores) ** 0.5))
        sim = np.array(scores, dtype=float).reshape(n, n)
        ks = tuple(range(1, n + 1))
        out = recall_at_k(sim, ks)
        for direction, matrix in (("t2i", sim), ("i2t", sim.T)):
            ranks = recall_ranks_loop(matrix)
            assert out[direction] == {k: float(np.mean(ranks <= k)) for k in ks}


class TestPoolVideoEmbedding:
    def test_identical_frames(self):
        row = unit_rows(make_rng(7), 1, 5)[0]
        frames = np.tile(row, (12, 1))
        np.testing.assert_allclose(pool_video_embedding(frames, 10), row, atol=1e-12)

    def test_antipodal_degenerate(self):
        frames = np.array([[1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(ZeroVectorError):
            pool_video_embedding(frames, 10)

    @pytest.mark.parametrize("n", [0, -2])
    def test_n_below_one_named(self, n):
        with pytest.raises(FieldValueError, match=f"n must be >= 1, got {n}"):
            pool_video_embedding(unit_rows(make_rng(7), 4, 3), n)

    def test_equals_the_normalized_mean_of_the_kept_rows(self):
        """pool_video_embedding == the kept rows' mean over its np.linalg.norm, with ==, at any scale."""
        rng = make_rng(12)
        for _ in range(300):
            t, d, n = rng.integers(1, 40), rng.integers(1, 40), rng.integers(1, 15)
            frames = rng.normal(size=(t, d)) * 10.0 ** rng.uniform(-3, 3)
            mean = subsample_frames(frames, n).mean(axis=0)
            np.testing.assert_array_equal(pool_video_embedding(frames, n), mean / np.linalg.norm(mean))

    def test_spacing_rule(self):
        frames = np.arange(30, dtype=float)[:, None] * np.ones((1, 2))
        frames[:, 1] = 1.0
        pooled = pool_video_embedding(frames, 10)
        idx = [(t * 29) // 9 for t in range(10)]
        mean = frames[idx].mean(axis=0)
        np.testing.assert_allclose(pooled, mean / np.linalg.norm(mean), atol=1e-12)

    def test_few_frames_uses_all(self):
        frames = unit_rows(make_rng(8), 3, 4)
        mean = frames.mean(axis=0)
        np.testing.assert_allclose(pool_video_embedding(frames, 10), mean / np.linalg.norm(mean), atol=1e-12)


def make_blobs(rng, n_per_class=150, d=6, distance=8.0):
    # symmetric about the origin so the margin is expressible with zero bias
    centers = np.zeros((2, d))
    centers[0, 0] = -distance / 2
    centers[1, 0] = distance / 2
    features, labels = [], []
    for c in (0, 1):
        features.append(centers[c] + rng.normal(size=(n_per_class, d)))
        labels.extend([c] * n_per_class)
    return np.concatenate(features), np.asarray(labels)


def make_overlapping(rng, n_per_class=40, d=4, k=3):
    """k Gaussian classes close enough that no head separates them: the objective has a finite minimum."""
    centers = rng.normal(size=(k, d))
    features = np.concatenate([centers[c] + rng.normal(size=(n_per_class, d)) for c in range(k)])
    return features, np.repeat(np.arange(k), n_per_class)


class TestLinearProbe:
    def test_separable_blobs(self):
        rng = make_rng(9)
        features, labels = make_blobs(rng)
        result = linear_probe(features, labels, lr=0.001, weight_decay=0.0005, epochs=40, rng=make_rng(10))
        assert result.accuracy >= 0.99

    def test_converges_within_the_default_cap(self):
        features, labels = make_overlapping(make_rng(23), n_per_class=100, d=8, k=5)
        features /= np.linalg.norm(features, axis=1, keepdims=True)  # unit rows, as the encoders emit
        result = linear_probe(features, labels, rng=make_rng(24))
        assert result.grad_norm < PROBE_TOL
        assert 1 <= result.iterations <= 40

    def test_class_missing_from_training_is_left_out_of_the_fit(self):
        features, labels = make_overlapping(make_rng(23), n_per_class=100, d=8, k=5)
        features /= np.linalg.norm(features, axis=1, keepdims=True)
        keep = labels != 2
        result = linear_probe(features[keep], labels[keep], test_features=features, test_labels=labels)
        # fitting class 2 too would push its bias down until the iteration cap
        assert result.grad_norm < PROBE_TOL and result.iterations < 40
        assert result.bias[2] == -np.inf and not result.weights[:, 2].any()
        assert result.per_class_f1[2] == 0.0 and len(result.per_class_f1) == 5
        # the other classes get the fit of the same rows with the gap closed
        present = [0, 1, 3, 4]
        relabelled = np.searchsorted(present, labels[keep])
        compact = linear_probe(features[keep], relabelled, test_features=features[keep], test_labels=relabelled)
        np.testing.assert_array_equal(result.weights[:, present], compact.weights)
        np.testing.assert_array_equal(result.bias[present], compact.bias)
        assert (result.iterations, result.grad_norm) == (compact.iterations, compact.grad_norm)

    @pytest.mark.parametrize("seed, weight_decay", [(25, 0.0005), (26, 0.01), (27, 0.1)])
    def test_objective_matches_newton_oracle(self, seed, weight_decay):
        x, y = make_overlapping(make_rng(seed))
        result = linear_probe(x, y, weight_decay=weight_decay, epochs=500, tol=1e-8, test_features=x, test_labels=y)
        assert result.grad_norm < 1e-8 and result.iterations <= 500
        w, b = newton_probe(x, y, 3, weight_decay)
        got = probe_objective(x, y, result.weights, result.bias, weight_decay)
        assert abs(got - probe_objective(x, y, w, b, weight_decay)) < 1e-9

    def test_row_order_does_not_change_the_fit(self):
        x, y = make_overlapping(make_rng(28))
        perm = make_rng(29).permutation(len(y))
        kwargs = dict(weight_decay=0.01, epochs=500, tol=1e-8, test_features=x, test_labels=y)
        a = linear_probe(x, y, **kwargs)
        b = linear_probe(x[perm], y[perm], **kwargs)
        np.testing.assert_allclose(b.weights, a.weights, rtol=0, atol=1e-8)
        np.testing.assert_allclose(b.bias, a.bias, rtol=0, atol=1e-8)

    def test_zero_epochs_predicts_class_zero(self):
        rng = make_rng(11)
        features, labels = make_blobs(rng, n_per_class=40)
        result = linear_probe(features, labels, epochs=0, rng=make_rng(12))
        assert not result.weights.any() and not result.bias.any()
        assert result.iterations == 0 and result.grad_norm > PROBE_TOL
        # untrained head has uniform logits; the tie rule picks class 0
        assert result.per_class_f1[1] == 0.0

    def test_overflowing_first_step_stops_without_warning(self):
        features, labels = make_blobs(make_rng(30), n_per_class=20)
        result = linear_probe(features, labels, lr=1e300, rng=make_rng(31))
        assert result.iterations == 0 and not result.weights.any()
        assert np.isfinite(result.grad_norm) and result.grad_norm > PROBE_TOL

    def test_features_bit_unchanged(self):
        rng = make_rng(13)
        features, labels = make_blobs(rng, n_per_class=60)
        before = hashlib.sha256(features.tobytes()).hexdigest()
        linear_probe(features, labels, epochs=5, rng=make_rng(14))
        assert hashlib.sha256(features.tobytes()).hexdigest() == before

    def test_single_class_raises(self):
        features = make_rng(15).normal(size=(20, 3))
        with pytest.raises(SingleClassError):
            linear_probe(features, np.zeros(20, dtype=int), rng=make_rng(16))

    def test_explicit_test_set(self):
        rng = make_rng(17)
        x_train, y_train = make_blobs(rng, n_per_class=100)
        x_test, y_test = make_blobs(rng, n_per_class=50)
        result = linear_probe(
            x_train, y_train, epochs=40, rng=make_rng(18), test_features=x_test, test_labels=y_test
        )
        assert result.accuracy >= 0.99

    def test_deterministic(self):
        rng = make_rng(19)
        features, labels = make_blobs(rng, n_per_class=50)
        a = linear_probe(features, labels, rng=make_rng(20))
        b = linear_probe(features, labels, rng=make_rng(20))
        assert a.weights.tobytes() == b.weights.tobytes() and a.bias.tobytes() == b.bias.tobytes()
        assert (a.accuracy, a.iterations, a.grad_norm) == (b.accuracy, b.iterations, b.grad_norm)

    @pytest.mark.parametrize(
        "kwargs, error, named",
        [
            (dict(test_features=np.ones((4, 6))), FieldValueError, "given together"),
            (dict(test_labels=np.zeros(4, dtype=int)), FieldValueError, "given together"),
            (dict(test_features=np.ones((4, 5)), test_labels=np.zeros(4, dtype=int)), DimMismatchError, "dim 5"),
            (dict(test_features=np.ones((4, 6)), test_labels=np.zeros(3, dtype=int)), DimMismatchError,
             r"test_labels of shape \(3,\) for 4 test rows"),
            (dict(test_features=np.ones((4, 6)), test_labels=[0, 1, -1, 0]), FieldValueError, "test_labels .* got -1"),
            (dict(test_features=np.ones((4, 6)), test_labels=[0, 1, 0.5, 0]), FieldValueError, "test_labels .* got 0.5"),
        ],
        ids=["features_alone", "labels_alone", "dim", "rows", "negative_test_label", "fractional_test_label"],
    )
    def test_bad_test_set_named(self, kwargs, error, named):
        features, labels = make_blobs(make_rng(32), n_per_class=10)
        with pytest.raises(error, match=named):
            linear_probe(features, labels, **kwargs)

    @pytest.mark.parametrize("bad", [-1, 1.7, np.nan])
    def test_label_that_is_no_class_id_rejected(self, bad):
        features, labels = make_blobs(make_rng(33), n_per_class=10)
        labels = labels.astype(float)
        labels[3] = bad  # -1 would otherwise train the last class, 1.7 class 1
        with pytest.raises(FieldValueError, match=r"labels must be whole class ids in \[0, inf\), got"):
            linear_probe(features, labels, rng=make_rng(34))

    def test_label_count_mismatch(self):
        features, labels = make_blobs(make_rng(35), n_per_class=10)
        with pytest.raises(DimMismatchError, match=r"labels of shape \(19,\) for 20 rows"):
            linear_probe(features, labels[:-1], rng=make_rng(36))

    def test_fit_holds_one_logit_buffer_and_no_copy_of_the_features(self):
        """The traced peak of a fit is the (k, n) logit buffer plus a few length-n vectors.

        Measured: the buffer plus about 6 * 8n bytes (numpy 2.4).  A copy of
        the (d, n) features would add d * 8n = 32 * 8n bytes and fail.
        """
        n, d, k = 20_000, 32, 24
        rng = make_rng(42)
        labels = np.arange(n) % k
        features = rng.normal(size=(k, d))[labels] + 3.0 * rng.normal(size=(n, d))
        test_features, test_labels = features[:240].copy(), labels[:240].copy()
        linear_probe(features[:48], labels[:48], epochs=1)  # first-call imports and caches are not the fit's
        tracemalloc.start()
        try:
            result = linear_probe(features, labels, epochs=3, test_features=test_features, test_labels=test_labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.iterations == 3
        assert peak < 8 * n * k + 16 * 8 * n

    @pytest.mark.parametrize(
        "kwargs, named",
        [
            (dict(lr=0), "lr must be a finite number > 0, got 0"),
            (dict(lr=np.inf), "lr must be a finite number > 0, got inf"),
            (dict(tol=-1), "tol must be a finite number > 0, got -1"),
            (dict(tol=np.nan), "tol must be a finite number > 0, got nan"),
        ],
        ids=["lr_zero", "lr_inf", "tol_negative", "tol_nan"],
    )
    def test_bad_argument_named(self, kwargs, named):
        features, labels = make_blobs(make_rng(43), n_per_class=10)
        with pytest.raises(FieldValueError, match=named):
            linear_probe(features, labels, **kwargs)


class TestProbeObjective:
    @pytest.mark.parametrize("n, d, k", [(37, 5, 2), (203, 32, 24), (1001, 8, 7), (30720, 32, 24)])
    def test_matches_the_row_major_oracle(self, n, d, k):
        rng = make_rng(n)
        x, y = rng.normal(size=(n, d)), rng.integers(0, k, n)
        objective, oracle = _probe_objective(x, y, k, 0.01), row_major_probe_objective(x, y, k, 0.01)
        for scale in (0.0, 0.3, 3.0):
            theta = scale * rng.normal(size=(d + 1) * k)
            (loss, grad), (want_loss, want_grad) = objective(theta), oracle(theta)
            assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
            assert np.abs(grad - want_grad).max() <= 1e-12 * np.abs(want_grad).max()

    @pytest.mark.parametrize("n_per_class, d, k", [(100, 8, 5), (40, 32, 24)])
    def test_a_fit_on_the_row_major_oracle_is_the_same_fit(self, monkeypatch, n_per_class, d, k):
        features, labels = make_overlapping(make_rng(d + k), n_per_class=n_per_class, d=d, k=k)
        features /= np.linalg.norm(features, axis=1, keepdims=True)  # unit rows, as the encoders emit
        result = linear_probe(features, labels, rng=make_rng(24))
        monkeypatch.setattr(evalkit, "_probe_objective", row_major_probe_objective)
        oracle = linear_probe(features, labels, rng=make_rng(24))
        assert result.grad_norm < PROBE_TOL and result.iterations > 5
        assert (result.iterations, result.accuracy, result.per_class_f1) == (
            oracle.iterations, oracle.accuracy, oracle.per_class_f1)
        assert abs(result.grad_norm - oracle.grad_norm) <= 1e-9 * oracle.grad_norm

    def test_building_and_one_call_peak_below_k_plus_six_rows_of_n(self):
        """The objective holds its (k, n) buffer, its true-class index and a few length-n vectors, never the features."""
        n, d, k = 30720, 32, 24
        rng = make_rng(45)
        x, y = rng.normal(size=(n, d)), rng.integers(0, k, n)
        theta = 0.1 * rng.normal(size=(d + 1) * k)
        _probe_objective(x[:48], y[:48], k, 0.0005)(theta)  # first-call imports and caches are not the objective's
        tracemalloc.start()
        try:
            _probe_objective(x, y, k, 0.0005)(theta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (k + 6) * n * 8

    @pytest.mark.parametrize("k", [2, 24])
    def test_overflowing_point_gives_nan_loss_without_warning(self, k):
        rng = make_rng(41)
        x, y = 1e10 * rng.normal(size=(45, 6)), rng.integers(0, k, 45)
        theta = 1e300 * rng.normal(size=7 * k)  # the logits overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for make in (_probe_objective, row_major_probe_objective):
                assert np.isnan(make(x, y, k, 0.01)(theta)[0])


class TestAccuracyF1:
    def test_perfect(self):
        acc, macro, per = accuracy_f1([0, 1, 2], [0, 1, 2], 3)
        assert acc == 1.0 and macro == 1.0 and per == [1.0, 1.0, 1.0]

    def test_all_wrong_two_class(self):
        acc, macro, per = accuracy_f1([1, 0], [0, 1], 2)
        assert acc == 0.0 and macro == 0.0

    def test_hand_computed_confusion(self):
        labels = [0, 0, 0, 1, 1, 2]
        preds = [0, 0, 1, 1, 0, 2]
        acc, macro, per = accuracy_f1(preds, labels, 3)
        assert abs(acc - 4 / 6) < 1e-12
        np.testing.assert_allclose(per, [2 / 3, 1 / 2, 1.0], atol=1e-12)
        assert abs(macro - (2 / 3 + 1 / 2 + 1.0) / 3) < 1e-12

    def test_absent_class_contributes_zero(self):
        labels = [0, 0, 1]
        preds = [0, 0, 1]
        acc, macro, per = accuracy_f1(preds, labels, 3)
        assert per[2] == 0.0
        assert abs(macro - (1.0 + 1.0 + 0.0) / 3) < 1e-12
        assert abs(macro - float(np.mean(per))) < 1e-15

    def test_length_mismatch(self):
        with pytest.raises(DimMismatchError, match=r"preds shape \(2,\) != labels shape \(1,\)"):
            accuracy_f1([0, 1], [0], 2)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda k: st.tuples(
        st.just(k), st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), max_size=30))))
    def test_matches_per_class_loop(self, case):
        # short lists over up to six classes leave some classes empty on one or both sides
        n_classes, pairs = case
        preds = np.array([p for p, _ in pairs], dtype=int)
        labels = np.array([l for _, l in pairs], dtype=int)
        acc, macro, per = accuracy_f1(preds, labels, n_classes)
        want = per_class_f1_loop(preds, labels, n_classes)
        assert per == want and macro == float(np.mean(want))
        assert acc == (float(np.mean(preds == labels)) if pairs else 0.0)

    @pytest.mark.parametrize(
        "preds, labels, named",
        [([0, 2], [0, 1], "preds"), ([0, 1], [0, 2], "labels"), ([0, -1], [0, 1], "preds"), ([0, 1], [-1, 1], "labels"),
         ([0, 1.9], [0, 1], "preds")],
    )
    def test_out_of_range_named(self, preds, labels, named):
        with pytest.raises(FieldValueError, match=f"{named} must be whole class ids in \\[0, 2\\)") as info:
            accuracy_f1(preds, labels, 2)
        assert isinstance(info.value, ValueError)


class TestModalityGap:
    def test_identical_sets(self):
        rows = unit_rows(make_rng(21), 5, 4)
        assert modality_gap(rows, rows) == 0.0

    def test_orthogonal_axes(self):
        a = np.tile(np.eye(3)[0], (4, 1))
        b = np.tile(np.eye(3)[1], (2, 1))
        assert abs(modality_gap(a, b) - np.sqrt(2.0)) < 1e-12

    def test_matches_direct_computation(self):
        rng = make_rng(22)
        a = unit_rows(rng, 6, 5)
        b = unit_rows(rng, 9, 5)
        expected = float(np.linalg.norm(a.mean(axis=0) - b.mean(axis=0)))
        assert modality_gap(a, b) == expected


class TestEvalReport:
    def test_json_roundtrip(self):
        report = EvalReport(
            accuracy=0.5,
            macro_f1=0.25,
            per_class_f1=[0.5, 0.0],
            recall={"t2i": {1: 0.5, 5: 1.0}, "i2t": {1: 0.25, 5: 0.75}},
            modality_gap=0.1,
        )
        text = report.to_json()
        assert json.loads(text) == {
            "accuracy": 0.5,
            "macro_f1": 0.25,
            "per_class_f1": [0.5, 0.0],
            "recall": {"t2i": {"1": 0.5, "5": 1.0}, "i2t": {"1": 0.25, "5": 0.75}},
            "modality_gap": 0.1,
        }


SUBSETS = [subset for n in range(1, 4) for subset in itertools.combinations(PROTOCOLS, n)]
SMALL_SPEC = dict(step_library_size=8, latent_dim=10, visual_dim=12, text_dim=9, steps_per_procedure=4, frames_per_step=8)


class TestEvaluate:
    """``evaluate`` equals the protocols composed sample by sample, for every subset of them."""

    @pytest.fixture(scope="class", params=[(3, False), (3, True), (8, False), (8, True)], ids=lambda p: f"data{p[0]}-trained{p[1]}")
    def setting(self, request):
        data_seed, trained = request.param
        train, holdout = generate_dataset(ProcedureSpec(**SMALL_SPEC, seed=data_seed), 10)
        if trained:
            cfg = TrainConfig(schedule=(2, 1, 1), batch_sizes=(4, 3, 2), frames=(2, 4, 16), epochs=2,
                              visual_layers=(12, 6), text_layers=(9, 6), seed=data_seed)
            state, _ = train_run(cfg, train)
            visual, text = state.visual, state.text
        else:
            rng = make_rng(data_seed)
            visual, text = enc.init_params([12, 6], rng=rng), enc.init_params([9, 6], rng=rng)
        return visual, text, train, holdout

    @pytest.mark.parametrize("protocols", SUBSETS, ids="+".join)
    def test_equals_per_sample_composition(self, setting, protocols):
        cfg = EvalConfig(recall_ks=(1, 5), retrieval_size=8, shots=50)
        report = evaluate(*setting, cfg, protocols)
        assert report == per_sample_evaluate(*setting, cfg, protocols)
        assert (report.accuracy is not None) == ("zero_shot" in protocols)
        assert bool(report.recall) == ("retrieval" in protocols)
        assert (report.probe is not None) == ("probe" in protocols)
        assert report.modality_gap is not None

    def test_retrieval_alone_encodes_no_held_out_video_frame(self, setting, monkeypatch):
        visual, _, _, holdout = setting
        cfg = EvalConfig(recall_ks=(1, 5), retrieval_size=8, shots=50)
        full = evaluate(*setting, cfg)
        visual_rows = []
        forward = enc.forward

        def spy(params, x, **kwargs):
            if params is visual:
                visual_rows.append(len(x))
            return forward(params, x, **kwargs)

        monkeypatch.setattr(enc, "forward", spy)
        report = evaluate(*setting, cfg, ("retrieval",))
        assert sum(visual_rows) == sum(len(frames) for frames in retrieval_clips(holdout, 8).frames)
        assert report.recall == full.recall and report.modality_gap == full.modality_gap

    def test_retrieval_clips_stride_over_every_procedure(self, setting):
        holdout = setting[3]
        clips = retrieval_clips(holdout, 8)
        assert len(clips) == 8 and set(clips.procedure_ids) == set(holdout.procedure_ids)
        assert len(retrieval_clips(holdout, 10**6)) == len(holdout.samples["clip"])

    def test_unknown_protocol_named(self, setting):
        with pytest.raises(ValueError, match="'zero-shot'") as info:
            evaluate(*setting, EvalConfig(), ("retrieval", "zero-shot"))
        assert isinstance(info.value, FieldValueError) and info.value.field == "protocols"
