import math
import sys

import numpy as np
import pytest

from relkit.embed import EmbeddingTable
from relkit.errors import NumericError
from relkit.zeroshot import (LabelEmbeddingMatrix, build_label_matrix,
                             predict_unseen, topk)


def matrix_of(labels, rows) -> LabelEmbeddingMatrix:
    return LabelEmbeddingMatrix(tuple(labels),
                                np.asarray(rows, dtype=np.float64))


class TestPredictUnseen:
    def test_exact_match_is_argmax(self):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(6, 4))
        labels = [f"l{i}" for i in range(6)]
        m = matrix_of(labels, rows)
        for i in range(6):
            probs = predict_unseen(rows[i], m)
            assert int(np.argmax(probs)) == i
            assert abs(probs.sum() - 1.0) <= 1e-9

    def test_duplicate_embeddings_get_equal_probability(self):
        m = matrix_of(["a", "b", "c"],
                      [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        probs = predict_unseen(np.array([2.0, 1.0]), m)
        assert math.isclose(probs[0], probs[1], abs_tol=1e-12)

    def test_four_label_hand_case(self):
        rows = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [1.0, 1.0]]
        v = np.array([1.0, 0.0])
        cosines = [1.0, 0.0, -1.0, 1.0 / math.sqrt(2.0)]
        exps = [math.exp(c - max(cosines)) for c in cosines]
        expected = [x / sum(exps) for x in exps]
        probs = predict_unseen(v, matrix_of(list("abcd"), rows))
        assert np.allclose(probs, expected, atol=1e-12)

    def test_zero_vector_rejected(self):
        m = matrix_of(["a"], [[1.0, 0.0]])
        with pytest.raises(NumericError):
            predict_unseen(np.zeros(2), m)

    @pytest.mark.parametrize("temperature", [math.nan, 0.0, -1.0])
    def test_temperature_not_above_zero_rejected(self, temperature):
        m = matrix_of(["a", "b"], [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(NumericError, match="temperature must be positive"):
            predict_unseen(np.array([1.0, 0.5]), m, temperature=temperature)

    def test_subnormal_temperature_rejected(self):
        m = matrix_of(["a", "b"], [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(NumericError, match="temperature must be positive"):
            predict_unseen(np.array([1.0, 0.5]), m, temperature=1e-320)

    def test_smallest_normal_temperature_stays_finite(self):
        m = matrix_of(["a", "b"], [[1.0, 0.0], [-1.0, 0.0]])
        probs = predict_unseen(np.array([1.0, 0.0]), m,
                               temperature=sys.float_info.min)
        assert probs.tolist() == [1.0, 0.0]

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        m = matrix_of([f"l{i}" for i in range(5)], rng.normal(size=(5, 3)))
        v = rng.normal(size=3)
        for alpha in (0.001, 0.7, 42.0):
            assert np.allclose(predict_unseen(v, m),
                               predict_unseen(alpha * v, m), atol=1e-12)

    def test_duplicate_label_preserves_ratios(self):
        rng = np.random.default_rng(2)
        rows = rng.normal(size=(4, 3))
        v = rng.normal(size=3)
        base = predict_unseen(v, matrix_of(list("abcd"), rows))
        extended = predict_unseen(
            v, matrix_of(list("abcde"), np.vstack([rows, rows[0]])))
        for i in range(1, 4):
            assert math.isclose(base[0] / base[i],
                                extended[0] / extended[i], rel_tol=1e-12)


class TestTopk:
    def test_argmax_case(self):
        m = matrix_of(["a", "b"], [[1.0, 0.0], [0.0, 1.0]])
        probs = predict_unseen(np.array([1.0, 0.1]), m)
        assert topk(probs, m.labels, 1) == ["a"]

    def test_full_ordering(self):
        probs = np.array([0.1, 0.5, 0.4])
        assert topk(probs, ["x", "y", "z"], 3) == ["y", "z", "x"]

    def test_tie_broken_lexicographically(self):
        probs = np.array([0.4, 0.4, 0.2])
        assert topk(probs, ["zeta", "alpha", "mid"], 2) == ["alpha", "zeta"]

    def test_k_larger_than_labels_returns_all(self):
        probs = np.array([0.6, 0.4])
        assert topk(probs, ["a", "b"], 10) == ["a", "b"]

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(NumericError, match="k must be >= 1"):
            topk(np.array([0.6, 0.4]), ["a", "b"], k)


class TestLabelEmbeddingMatrix:
    def test_row_count_must_match_labels(self):
        with pytest.raises(NumericError, match="row count mismatch"):
            matrix_of(["a", "b"], [[1.0, 0.0]])

    def test_zero_row_rejected(self):
        with pytest.raises(NumericError, match="rows must be nonzero"):
            matrix_of(["a", "b"], [[1.0, 0.0], [0.0, 0.0]])


def test_build_label_matrix_pools_phrases():
    table = EmbeddingTable(2, {"standing": np.array([1.0, 0.0]),
                               "by": np.array([0.0, 1.0]),
                               "on": np.array([1.0, 1.0])})
    m = build_label_matrix(["standing by", "on"], table)
    assert np.array_equal(m.matrix[0], [0.5, 0.5])
    assert np.array_equal(m.matrix[1], [1.0, 1.0])
