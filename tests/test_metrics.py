import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrlog.errors import DataError
from corrlog.metrics import METRIC_NAMES, compute_metrics


def oracle_metrics(y_true, y_pred):
    """Set-based reference implementation, written independently with loops."""
    n = len(y_true)
    m = len(y_true[0])
    hamming = 0.0
    zero_one = 0.0
    jaccard = 0.0
    f1_ex = 0.0
    for t, p in zip(y_true, y_pred):
        wrong = sum(1 for a, b in zip(t, p) if a != b)
        hamming += wrong / m
        zero_one += 1.0 if wrong else 0.0
        ts = {i for i, v in enumerate(t) if v == 1}
        ps = {i for i, v in enumerate(p) if v == 1}
        if not ts and not ps:
            jaccard += 1.0
            f1_ex += 1.0
        else:
            jaccard += len(ts & ps) / len(ts | ps)
            f1_ex += 2 * len(ts & ps) / (len(ts) + len(ps))
    per_label = []
    tp_total = fp_total = fn_total = 0
    for j in range(m):
        tp = sum(1 for t, p in zip(y_true, y_pred) if t[j] == 1 and p[j] == 1)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t[j] != 1 and p[j] == 1)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t[j] == 1 and p[j] != 1)
        tp_total += tp
        fp_total += fp
        fn_total += fn
        per_label.append(1.0 if 2 * tp + fp + fn == 0 else 2 * tp / (2 * tp + fp + fn))
    macro = sum(per_label) / m
    pooled = 2 * tp_total + fp_total + fn_total
    micro = 1.0 if pooled == 0 else 2 * tp_total / pooled
    return {
        "hamming_loss": hamming / n,
        "zero_one_loss": zero_one / n,
        "accuracy": jaccard / n,
        "f1_example": f1_ex / n,
        "macro_f1": macro,
        "micro_f1": micro,
    }


class TestFixtures:
    def test_perfect_predictions(self):
        y = [np.array([1, -1, 1]), np.array([-1, -1, 1])]
        r = compute_metrics(y, [v.copy() for v in y])
        assert r.hamming_loss == 0.0
        assert r.zero_one_loss == 0.0
        assert r.accuracy == 1.0
        assert r.f1_example == 1.0
        assert r.macro_f1 == 1.0
        assert r.micro_f1 == 1.0

    def test_worked_single_example(self):
        # true (+1,-1,+1), predicted (+1,+1,+1): hamming 1/3, zero-one 1,
        # Jaccard 2/3, example-F1 4/5
        r = compute_metrics([np.array([1, -1, 1])], [np.array([1, 1, 1])])
        assert r.hamming_loss == pytest.approx(1 / 3)
        assert r.zero_one_loss == 1.0
        assert r.accuracy == pytest.approx(2 / 3)
        assert r.f1_example == pytest.approx(4 / 5)

    def test_two_example_hand_computation(self):
        y_true = [np.array([1, -1]), np.array([-1, -1])]
        y_pred = [np.array([1, 1]), np.array([-1, -1])]
        r = compute_metrics(y_true, y_pred)
        assert r.hamming_loss == pytest.approx(0.25)
        assert r.zero_one_loss == pytest.approx(0.5)
        assert r.accuracy == pytest.approx(0.75)
        assert r.f1_example == pytest.approx(5 / 6)
        assert r.macro_f1 == pytest.approx(0.5)
        assert r.micro_f1 == pytest.approx(2 / 3)

    def test_everything_wrong(self):
        r = compute_metrics([np.array([1, 1])], [np.array([-1, -1])])
        assert r.hamming_loss == 1.0
        assert r.zero_one_loss == 1.0
        assert r.accuracy == 0.0
        assert r.f1_example == 0.0
        assert r.macro_f1 == 0.0
        assert r.micro_f1 == 0.0

    def test_degenerate_label_flagged_and_counted_as_one(self):
        r = compute_metrics([np.array([-1, 1])], [np.array([-1, 1])])
        assert r.degenerate_labels == (0,)
        assert r.macro_f1 == 1.0
        assert r.micro_f1 == 1.0

    def test_empty_vs_nonempty_positive_sets(self):
        # true has no positives, prediction has one: Jaccard and F1 are 0
        r = compute_metrics([np.array([-1, -1])], [np.array([1, -1])])
        assert r.accuracy == 0.0
        assert r.f1_example == 0.0
        assert r.zero_one_loss == 1.0
        assert r.hamming_loss == pytest.approx(0.5)


class TestAgainstOracle:
    def test_randomized_match(self):
        rng = np.random.default_rng(123)
        for _ in range(20):
            n = int(rng.integers(1, 51))
            m = int(rng.integers(1, 7))
            y_true = [rng.choice([-1, 1], size=m) for _ in range(n)]
            y_pred = [rng.choice([-1, 1], size=m) for _ in range(n)]
            got = compute_metrics(y_true, y_pred)
            want = oracle_metrics([list(v) for v in y_true], [list(v) for v in y_pred])
            for name in METRIC_NAMES:
                assert getattr(got, name) == pytest.approx(want[name], abs=1e-12), name


class TestProperties:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_bounds_and_loss_ordering(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 20))
        m = int(rng.integers(1, 6))
        y_true = [rng.choice([-1, 1], size=m) for _ in range(n)]
        y_pred = [rng.choice([-1, 1], size=m) for _ in range(n)]
        r = compute_metrics(y_true, y_pred)
        for name in METRIC_NAMES:
            assert 0.0 <= getattr(r, name) <= 1.0
        assert r.zero_one_loss >= r.hamming_loss
        assert r.n_eval == n

    def test_micro_equals_macro_for_identical_label_columns(self):
        rng = np.random.default_rng(3)
        col_true = rng.choice([-1, 1], size=12)
        col_pred = rng.choice([-1, 1], size=12)
        y_true = [np.repeat(v, 4) for v in col_true]
        y_pred = [np.repeat(v, 4) for v in col_pred]
        r = compute_metrics(y_true, y_pred)
        assert r.micro_f1 == pytest.approx(r.macro_f1, abs=1e-12)


class TestValidation:
    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            compute_metrics([np.array([1, -1])], [np.array([1, -1, 1])])

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            compute_metrics([np.array([1])], [np.array([1]), np.array([-1])])

    @pytest.mark.parametrize("y_true", [
        [np.array([1, -1]), np.array([1])],  # ragged
        [[1, -1], [1]],
        [1, -1],  # not 2-D
        [[[1, -1]]],
    ])
    def test_ragged_or_non_2d_labels(self, y_true):
        with pytest.raises(DataError, match="equal-length label vectors"):
            compute_metrics(y_true, [np.array([1, -1]), np.array([1, 1])])

    @pytest.mark.parametrize("shape", [(0, 2), (2, 0)])
    def test_no_examples_or_no_labels(self, shape):
        with pytest.raises(DataError, match="^need at least one example and one label$"):
            compute_metrics(np.ones(shape), np.ones(shape))

    def test_bad_label_values(self):
        with pytest.raises(DataError):
            compute_metrics([np.array([1, 0])], [np.array([1, 1])])
