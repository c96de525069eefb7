import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrlog.errors import DataError
from corrlog.inference import map_bruteforce, margin, predict_map_bp
from corrlog.model import (
    ModelParams,
    MultilabelDataset,
    conditional_label_prob,
    default_label_names,
    ilrs_label_prob,
    joint_score,
    sigmoid,
)

from conftest import all_label_vectors, oracle_conditional, oracle_joint_table, random_params


class TestModelParams:
    def test_zeros_constructible(self):
        p = ModelParams.zeros(3, 5)
        assert p.beta.shape == (3, 5)
        assert np.array_equal(p.alpha, np.zeros((3, 3)))

    def test_rejects_bad_alpha_keys(self):
        with pytest.raises(DataError):
            ModelParams(np.zeros((2, 2)), {(1, 0): 0.5}, 2, 2)
        with pytest.raises(DataError):
            ModelParams(np.zeros((2, 2)), {(0, 0): 0.5}, 2, 2)
        with pytest.raises(DataError):
            ModelParams(np.zeros((2, 2)), {(0, 2): 0.5}, 2, 2)

    def test_rejects_non_finite(self):
        with pytest.raises(DataError):
            ModelParams(np.array([[np.nan]]), {}, 1, 1)
        with pytest.raises(DataError):
            ModelParams(np.zeros((2, 1)), {(0, 1): math.inf}, 2, 1)

    def test_alpha_symmetric(self):
        p = ModelParams(np.zeros((3, 1)), {(0, 2): -0.7}, 3, 1)
        assert p.alpha[0, 2] == -0.7
        assert p.alpha[2, 0] == -0.7
        assert p.alpha[0, 1] == 0.0


class TestAlphaRepresentation:
    def test_mapping_and_dense_array_give_identical_params(self):
        rng = np.random.default_rng(12)
        beta = rng.normal(size=(4, 2))
        pairs = {(0, 1): 0.3, (1, 3): -0.2, (0, 2): 1.1}
        dense = np.zeros((4, 4))
        for (i, j), v in pairs.items():
            dense[i, j] = dense[j, i] = v
        a = ModelParams(beta, pairs, 4, 2)
        b = ModelParams(beta, dense, 4, 2)
        assert a.alpha.dtype == b.alpha.dtype == np.float64
        assert np.array_equal(a.alpha, b.alpha)
        assert np.array_equal(a.beta, b.beta)
        assert (a.num_labels, a.num_features) == (b.num_labels, b.num_features)
        assert a.pairs() == b.pairs() == [(0, 1, 0.3), (0, 2, 1.1), (1, 3, -0.2)]
        assert a.nnz_alpha() == b.nnz_alpha() == 3

    @pytest.mark.parametrize("alpha", [
        np.array([[0.0, 0.5], [0.4, 0.0]]),  # asymmetric
        np.array([[0.1, 0.5], [0.5, 0.0]]),  # nonzero diagonal
        np.zeros((2, 3)),  # wrong shape
        np.zeros((3, 3)),  # wrong label count
        np.array([[0.0, np.nan], [np.nan, 0.0]]),
        np.array([[0.0, np.inf], [np.inf, 0.0]]),
        {(-1, 1): 0.5},  # out of range
        {(0, 1): math.nan},
    ])
    def test_invalid_alpha_rejected(self, alpha):
        with pytest.raises(DataError):
            ModelParams(np.zeros((2, 1)), alpha, 2, 1)


class TestInstanceAndDataset:
    def test_labels_must_be_pm1(self):
        with pytest.raises(DataError):
            MultilabelDataset(np.zeros((1, 2)), np.array([[1, 0]]), ("a", "b"))

    def test_dimension_consistency(self):
        # features must form an n x D table with one row per label row
        with pytest.raises(DataError):
            MultilabelDataset(np.zeros(2), np.array([[1, -1]]), ("a", "b"))

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError):
            MultilabelDataset(np.zeros((0, 2)), np.zeros((0, 2)), ("a", "b"))

    def test_holds_arrays(self):
        ds = MultilabelDataset([[0.5, 1.0], [2.0, -1.0]], [[1, -1], [-1, 1]], ["a", "b"])
        assert ds.features.dtype == np.float64 and ds.labels.dtype == np.int8
        assert (len(ds), ds.num_features, ds.num_labels) == (2, 2, 2)
        assert ds.label_names == ("a", "b")
        assert ds.feature_matrix is ds.features
        assert ds.label_matrix.dtype == np.float64
        assert np.array_equal(ds.label_matrix, [[1.0, -1.0], [-1.0, 1.0]])

    @pytest.mark.parametrize("labels", [[[1, 2]], [[0, 1]], [[1.5, -1]]])
    def test_labels_outside_pm1_rejected(self, labels):
        with pytest.raises(DataError, match="-1 or \\+1"):
            MultilabelDataset(np.zeros((1, 3)), labels, ("a", "b"))

    def test_mismatched_row_counts_rejected(self):
        with pytest.raises(DataError, match="label rows"):
            MultilabelDataset(np.zeros((3, 2)), np.ones((2, 2)), ("a", "b"))

    def test_wrong_number_of_label_names_rejected(self):
        with pytest.raises(DataError, match="label_names"):
            MultilabelDataset(np.zeros((2, 2)), np.ones((2, 2)), ("a", "b", "c"))

    def test_default_label_names_count_from_one(self):
        assert default_label_names(3) == ("label1", "label2", "label3")
        assert default_label_names(0) == ()


class TestJointScore:
    def test_zero_params(self):
        p = ModelParams.zeros(3, 2)
        assert joint_score(p, np.array([0.4, -0.2]), np.array([1, -1, 1])) == 0.0

    def test_direct_two_label_example(self):
        # beta1.x = 0.3, beta2.x = -0.1, alpha12 = 0.5, y = (+1, +1)
        p = ModelParams(np.array([[0.3], [-0.1]]), {(0, 1): 0.5}, 2, 1)
        x = np.array([1.0])
        assert joint_score(p, x, np.array([1, 1])) == pytest.approx(0.7, abs=1e-15)

    def test_matches_enumeration_oracle_up_to_constant(self):
        rng = np.random.default_rng(11)
        p = random_params(rng, 3, 4)
        x = rng.normal(size=4)
        table = oracle_joint_table(p, x)
        for y in all_label_vectors(3):
            assert joint_score(p, x, y) == pytest.approx(table[tuple(int(v) for v in y)], abs=1e-12)

    def test_invariant_under_alpha_reordering(self):
        rng = np.random.default_rng(3)
        beta = rng.normal(size=(4, 2))
        pairs = [((0, 1), 0.3), ((1, 3), -0.2), ((0, 2), 1.1)]
        x = rng.normal(size=2)
        y = np.array([1, -1, -1, 1])
        a = ModelParams(beta, dict(pairs), 4, 2)
        b = ModelParams(beta, dict(reversed(pairs)), 4, 2)
        assert joint_score(a, x, y) == joint_score(b, x, y)

    def test_dimension_mismatch_errors(self):
        p = ModelParams.zeros(2, 3)
        with pytest.raises(DataError):
            joint_score(p, np.zeros(2), np.array([1, 1]))
        with pytest.raises(DataError):
            joint_score(p, np.zeros(3), np.array([1, 1, 1]))

    def test_normalized_distribution_sums_to_one(self):
        rng = np.random.default_rng(7)
        for m in (2, 4, 6, 12):
            p = random_params(rng, m, 3, density=0.4)
            x = rng.normal(size=3)
            scores = np.array([joint_score(p, x, y) for y in all_label_vectors(m)])
            z = np.exp(scores - scores.max()).sum()
            probs = np.exp(scores - scores.max()) / z
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)


class TestConditionalLabelProb:
    def test_zero_params_half(self):
        p = ModelParams.zeros(3, 2)
        x = np.array([0.5, -0.5])
        y = np.array([1, -1, 1])
        for i in range(3):
            assert conditional_label_prob(p, x, y, i) == pytest.approx(0.5, abs=1e-15)

    def test_single_label_sigmoid(self):
        # beta.x = 0.5, y = +1 -> 1 / (1 + e^{-1})
        p = ModelParams(np.array([[0.5]]), {}, 1, 1)
        got = conditional_label_prob(p, np.array([1.0]), np.array([1]), 0)
        assert got == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), abs=1e-12)
        assert got == pytest.approx(0.731059, abs=1e-6)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(23)
        p = random_params(rng, 3, 4)
        for _ in range(20):
            x = rng.normal(size=4)
            y = rng.choice([-1, 1], size=3)
            for i in range(3):
                assert conditional_label_prob(p, x, y, i) == pytest.approx(
                    oracle_conditional(p, x, y, i), abs=1e-12
                )

    def test_index_out_of_range(self):
        p = ModelParams.zeros(2, 1)
        with pytest.raises(IndexError):
            conditional_label_prob(p, np.zeros(1), np.array([1, 1]), 2)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_complement_sums_to_one(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 6))
        d = int(rng.integers(1, 5))
        p = random_params(rng, m, d, alpha_scale=2.0)
        x = rng.normal(size=d) * 3
        y = rng.choice([-1, 1], size=m)
        i = int(rng.integers(0, m))
        y_flip = y.copy()
        y_flip[i] = -y_flip[i]
        total = conditional_label_prob(p, x, y, i) + conditional_label_prob(p, x, y_flip, i)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_stable_for_large_scores(self):
        p = ModelParams(np.array([[100.0]]), {}, 1, 1)
        assert conditional_label_prob(p, np.array([1.0]), np.array([1]), 0) == 1.0
        assert conditional_label_prob(p, np.array([1.0]), np.array([-1]), 0) == pytest.approx(0.0, abs=1e-80)


class TestIlrsLabelProb:
    def test_zero_beta_half(self):
        p = ModelParams.zeros(2, 3)
        assert ilrs_label_prob(p, np.ones(3), 0, 1) == 0.5

    def test_direct_arithmetic(self):
        # beta.x = 1, y = +1 -> e / (e + 1/e)
        p = ModelParams(np.array([[1.0]]), {}, 1, 1)
        got = ilrs_label_prob(p, np.array([1.0]), 0, 1)
        assert got == pytest.approx(math.e / (math.e + math.exp(-1.0)), abs=1e-12)
        assert got == pytest.approx(0.880797, abs=1e-6)

    def test_equals_conditional_with_alpha_emptied(self):
        rng = np.random.default_rng(5)
        p = random_params(rng, 4, 3)
        stripped = ModelParams(p.beta.copy(), {}, 4, 3)
        x = rng.normal(size=3)
        y = rng.choice([-1, 1], size=4)
        for i in range(4):
            assert ilrs_label_prob(p, x, i, int(y[i])) == pytest.approx(
                conditional_label_prob(stripped, x, y, i), abs=1e-15
            )


# Each single-row function as f(params, x, y, i); ilrs_label_prob reads label 1 of y.
ROW_FUNCTIONS = {
    "joint_score": lambda p, x, y, i: joint_score(p, x, y),
    "conditional_label_prob": conditional_label_prob,
    "ilrs_label_prob": lambda p, x, y, i: ilrs_label_prob(p, x, i, y[1]),
    "predict_map_bp": lambda p, x, y, i: predict_map_bp(p, x),
    "map_bruteforce": lambda p, x, y, i: map_bruteforce(p, x),
    "margin": lambda p, x, y, i: margin(p, x, y),
}
READ_LABELS = ["joint_score", "conditional_label_prob", "ilrs_label_prob", "margin"]
READ_INDEX = ["conditional_label_prob", "ilrs_label_prob"]


class TestSingleRowContract:
    """The input rules every single-row function shares: 3 labels, 2 features."""

    params = random_params(np.random.default_rng(8), 3, 2)
    x, y = np.array([0.5, -1.0]), np.array([1.0, -1.0, 1.0])

    def test_valid_row_is_accepted(self):
        for fn in ROW_FUNCTIONS.values():
            fn(self.params, self.x, self.y, 1)

    @pytest.mark.parametrize("name", list(ROW_FUNCTIONS))
    @pytest.mark.parametrize("x", [np.zeros(1), np.zeros(3), np.zeros((2, 2))])
    def test_wrong_length_features_are_a_data_error(self, name, x):
        with pytest.raises(DataError, match="feature vector"):
            ROW_FUNCTIONS[name](self.params, x, self.y, 1)

    @pytest.mark.parametrize("name", list(ROW_FUNCTIONS))
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_features_are_a_data_error(self, name, value):
        # a NaN feature once decoded to labels with only a RuntimeWarning
        x = np.array([0.3, value])
        with pytest.raises(DataError, match="feature vector has non-finite values"):
            ROW_FUNCTIONS[name](self.params, x, self.y, 1)

    @pytest.mark.parametrize("name", READ_LABELS)
    @pytest.mark.parametrize("value", [0.0, 0.5])
    def test_labels_other_than_pm1_are_a_data_error(self, name, value):
        y = self.y.copy()
        y[1] = value
        with pytest.raises(DataError, match="-1 or \\+1"):
            ROW_FUNCTIONS[name](self.params, self.x, y, 1)

    @pytest.mark.parametrize("name", ["joint_score", "conditional_label_prob", "margin"])
    def test_wrong_length_labels_are_a_data_error(self, name):
        with pytest.raises(DataError, match="label vector"):
            ROW_FUNCTIONS[name](self.params, self.x, np.ones(4), 1)

    @pytest.mark.parametrize("name", READ_INDEX)
    @pytest.mark.parametrize("i", [-1, 3])
    def test_label_index_out_of_range_is_an_index_error(self, name, i):
        with pytest.raises(IndexError):
            ROW_FUNCTIONS[name](self.params, self.x, self.y, i)


class TestSigmoid:
    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_complement(self, z):
        assert sigmoid(z) + sigmoid(-z) == pytest.approx(1.0, abs=1e-12)

    def test_no_overflow(self):
        assert sigmoid(1000.0) == 1.0
        assert sigmoid(-1000.0) == 0.0
