import hashlib

import numpy as np
import pytest
from helpers import unit_rows

from lecnce.errors import (
    DegenerateMeanError,
    DimMismatchError,
    KExceedsCorpusError,
    LengthMismatchError,
    SingleClassError,
)
from lecnce.evalkit import (
    EvalReport,
    accuracy_f1,
    linear_probe,
    modality_gap,
    pool_video_embedding,
    recall_at_k,
    zero_shot_classify,
)
from lecnce.numerics import make_rng


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


class TestPoolVideoEmbedding:
    def test_identical_frames(self):
        row = unit_rows(make_rng(7), 1, 5)[0]
        frames = np.tile(row, (12, 1))
        np.testing.assert_allclose(pool_video_embedding(frames, 10), row, atol=1e-12)

    def test_antipodal_degenerate(self):
        frames = np.array([[1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(DegenerateMeanError):
            pool_video_embedding(frames, 10)

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


class TestLinearProbe:
    def test_separable_blobs(self):
        rng = make_rng(9)
        features, labels = make_blobs(rng)
        result = linear_probe(features, labels, lr=0.001, weight_decay=0.0005, epochs=40, rng=make_rng(10))
        assert result.accuracy >= 0.99

    def test_zero_epochs_predicts_class_zero(self):
        rng = make_rng(11)
        features, labels = make_blobs(rng, n_per_class=40)
        result = linear_probe(features, labels, epochs=0, rng=make_rng(12))
        assert not result.weights.any() and not result.bias.any()
        # untrained head has uniform logits; the tie rule picks class 0
        expected_acc = float(np.mean(labels[:40 * 2 // 4] == 0))  # depends only on split composition
        assert result.per_class_f1[1] == 0.0

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
        a = linear_probe(features, labels, epochs=3, rng=make_rng(20))
        b = linear_probe(features, labels, epochs=3, rng=make_rng(20))
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.accuracy == b.accuracy


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
        with pytest.raises(LengthMismatchError):
            accuracy_f1([0, 1], [0], 2)


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
        back = EvalReport.from_json(text)
        assert back == report
        assert '"recall"' in text and '"modality_gap"' in text
