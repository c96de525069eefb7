import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrlog.errors import DataError
from corrlog.inference import (
    BeliefState,
    decode_rows,
    map_bruteforce,
    margin,
    margin_loss,
    predict_map_bp,
)
from corrlog.model import ModelParams

from conftest import (
    all_label_vectors,
    oracle_joint_table,
    random_params,
    reference_predict_map_bp,
)


def tree_model(rng, m: int, kind: str = "random", alpha_scale: float = 1.0,
               drop_prob: float = 0.0) -> ModelParams:
    """Random model whose interaction graph is a chain, star, or random tree/forest."""
    beta = rng.normal(size=(m, 2))
    if kind == "chain":
        edges = [(i, i + 1) for i in range(m - 1)]
    elif kind == "star":
        edges = [(0, i) for i in range(1, m)]
    else:
        edges = [(int(rng.integers(0, k)), k) for k in range(1, m)]
    alpha = {}
    for i, j in edges:
        if rng.uniform() >= drop_prob:
            alpha[(min(i, j), max(i, j))] = float(rng.normal() * alpha_scale)
    return ModelParams(beta, alpha, m, 2)


class TestPredictMapBp:
    def test_empty_alpha_is_sign_rule(self):
        rng = np.random.default_rng(0)
        beta = rng.normal(size=(4, 3))
        params = ModelParams(beta, {}, 4, 3)
        x = rng.normal(size=3)
        labels, state = predict_map_bp(params, x)
        expected = np.where(beta @ x >= 0, 1, -1)
        assert np.array_equal(labels, expected)
        assert state.converged
        assert state.iterations_run == 0
        assert state.messages == {}

    def test_tie_at_zero_goes_positive(self):
        params = ModelParams.zeros(3, 2)
        labels, _ = predict_map_bp(params, np.array([0.3, -0.3]))
        assert np.array_equal(labels, np.array([1, 1, 1]))

    def test_two_label_single_edge_example(self):
        # unaries +0.4 and -0.1, coupling +1.0; enumeration gives
        # (+,+)=1.3, (+,-)=-0.5, (-,+)=-1.5, (-,-)=0.7, so MAP is (+1,+1)
        params = ModelParams(np.array([[0.4], [-0.1]]), {(0, 1): 1.0}, 2, 1)
        x = np.array([1.0])
        table = oracle_joint_table(params, x)
        assert table[(1, 1)] == pytest.approx(1.3)
        assert table[(1, -1)] == pytest.approx(-0.5)
        assert table[(-1, 1)] == pytest.approx(-1.5)
        assert table[(-1, -1)] == pytest.approx(0.7)
        labels, state = predict_map_bp(params, x)
        assert np.array_equal(labels, np.array([1, 1]))
        assert np.array_equal(labels, map_bruteforce(params, x))
        assert state.converged

    def test_exact_on_forests(self):
        rng = np.random.default_rng(42)
        for trial in range(200):
            m = int(rng.integers(2, 11))
            kind = ("chain", "star", "random")[trial % 3]
            params = tree_model(rng, m, kind, drop_prob=0.25 if kind == "random" else 0.0)
            x = rng.normal(size=2)
            bp, _ = predict_map_bp(params, x)
            assert np.array_equal(bp, map_bruteforce(params, x)), f"trial {trial}"

    def test_weak_coupling_agreement_at_least_95_percent(self):
        rng = np.random.default_rng(7)
        agree = 0
        trials = 500
        for _ in range(trials):
            m = int(rng.integers(2, 11))
            params = random_params(rng, m, 2, alpha_scale=0.2 / 3, density=0.5)
            np.clip(params.alpha, -0.2, 0.2, out=params.alpha)
            x = rng.normal(size=2)
            bp, _ = predict_map_bp(params, x)
            if np.array_equal(bp, map_bruteforce(params, x)):
                agree += 1
        assert agree / trials >= 0.95

    def test_strong_coupling_agreement_reported(self, capsys):
        # no assertion on the rate; loopy BP is a heuristic under strong coupling
        rng = np.random.default_rng(8)
        agree = 0
        trials = 100
        for _ in range(trials):
            m = int(rng.integers(3, 9))
            params = random_params(rng, m, 2, alpha_scale=2.0, density=0.7)
            x = rng.normal(size=2)
            bp, _ = predict_map_bp(params, x)
            if np.array_equal(bp, map_bruteforce(params, x)):
                agree += 1
        print(f"strong-coupling BP/bruteforce agreement: {agree}/{trials}")
        assert agree >= 0  # reported, not asserted

    def test_messages_stay_finite(self):
        rng = np.random.default_rng(9)
        params = random_params(rng, 8, 2, alpha_scale=5.0, density=0.9)
        x = rng.normal(size=2) * 10
        _, state = predict_map_bp(params, x, max_iters=50)
        for msg in state.messages.values():
            assert np.all(np.isfinite(msg))
        assert np.all(np.isfinite(state.beliefs))
        assert state.iterations_run <= 50

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        params = random_params(rng, 6, 3, alpha_scale=1.0)
        x = rng.normal(size=3)
        a, _ = predict_map_bp(params, x)
        b, _ = predict_map_bp(params, x)
        assert np.array_equal(a, b)

    def test_dimension_mismatch(self):
        params = ModelParams.zeros(2, 3)
        with pytest.raises(DataError):
            predict_map_bp(params, np.zeros(2))

    def test_zero_weight_edges_are_skipped(self):
        params = ModelParams(np.array([[0.5], [-0.5]]), {(0, 1): 0.0}, 2, 1)
        _, state = predict_map_bp(params, np.array([1.0]))
        assert state.messages == {}

    def test_nonconvergence_reported_not_raised(self):
        # a strongly frustrated odd cycle keeps the messages oscillating;
        # the decoder must stop at the cap and report it
        m = 5
        rng = np.random.default_rng(0)
        beta = rng.normal(size=(m, 1)) * 0.01
        alpha = {(i, i + 1): -2.0 for i in range(m - 1)}
        alpha[(0, m - 1)] = -2.0
        params = ModelParams(beta, alpha, m, 1)
        labels, state = predict_map_bp(params, np.array([1.0]))
        assert not state.converged
        assert state.iterations_run == 50
        assert labels.shape == (m,)
        assert np.all(np.isfinite(state.beliefs))


def assert_same_state(got: BeliefState, want: BeliefState) -> None:
    assert got.converged == want.converged
    assert got.iterations_run == want.iterations_run
    assert list(got.messages) == list(want.messages)
    for key, msg in want.messages.items():
        assert got.messages[key].tobytes() == msg.tobytes(), key
    assert got.beliefs.tobytes() == want.beliefs.tobytes()


class TestReferenceDecoder:
    """The batched kernel against the per-instance dict decoder, bit for bit."""

    # the ids keep the names these cases had while damping was a second parameter
    @pytest.mark.parametrize("max_iters", [1, 5, 50], ids=["1-0.0", "5-0.0", "50-0.0"])
    def test_matches_reference_on_loopy_models(self, max_iters):
        rng = np.random.default_rng(1000 + max_iters)
        for k in range(6):
            m = int(rng.integers(2, 13))
            params = random_params(rng, m, 3, alpha_scale=(0.3, 1.0, 2.0)[k % 3],
                                   density=0.7)
            X = rng.normal(size=(8, 3))
            labels, converged = decode_rows(params, X, max_iters)
            assert labels.dtype == np.int8 and labels.shape == (8, m)
            assert converged.dtype == bool and converged.shape == (8,)
            for r, x in enumerate(X):
                want_labels, want = reference_predict_map_bp(params, x, max_iters)
                got_labels, got = predict_map_bp(params, x, max_iters)
                assert np.array_equal(got_labels, want_labels)
                assert_same_state(got, want)
                assert np.array_equal(labels[r], want_labels)
                assert converged[r] == want.converged

    def test_batch_with_rows_frozen_at_different_rounds(self):
        rng = np.random.default_rng(31)
        params = random_params(rng, 7, 3, alpha_scale=1.0, density=0.7)
        X = rng.normal(size=(12, 3))
        reference = [reference_predict_map_bp(params, x, 50) for x in X]
        rounds = {state.iterations_run for _, state in reference}
        assert len(rounds) >= 3
        assert {state.converged for _, state in reference} == {True, False}
        labels, converged = decode_rows(params, X, 50)
        assert np.array_equal(labels, np.array([lab for lab, _ in reference]))
        assert np.array_equal(converged, [state.converged for _, state in reference])

    def test_edge_free_matches_reference(self):
        rng = np.random.default_rng(32)
        params = ModelParams(rng.normal(size=(4, 3)), {(0, 2): 0.0}, 4, 3)
        X = np.vstack([rng.normal(size=(5, 3)), np.zeros((1, 3))])
        labels, converged = decode_rows(params, X)
        for r, x in enumerate(X):
            want_labels, want = reference_predict_map_bp(params, x)
            got_labels, got = predict_map_bp(params, x)
            assert np.array_equal(got_labels, want_labels)
            assert_same_state(got, want)
            assert np.array_equal(labels[r], want_labels)
        assert converged.all()

    def test_decode_rows_checks_shape(self):
        params = ModelParams.zeros(2, 3)
        with pytest.raises(DataError):
            decode_rows(params, np.zeros(3))
        with pytest.raises(DataError):
            decode_rows(params, np.zeros((4, 2)))


class TestSingleVectorContract:
    """What library callers read from predict_map_bp's state."""

    @pytest.mark.parametrize("alpha", [{(0, 1): 0.8, (1, 2): -0.5, (0, 2): 0.3}, {}])
    def test_belief_state_types(self, alpha):
        rng = np.random.default_rng(33)
        params = ModelParams(rng.normal(size=(3, 2)), alpha, 3, 2)
        labels, state = predict_map_bp(params, rng.normal(size=2))
        assert isinstance(state, BeliefState)
        assert type(state.converged) is bool
        assert type(state.iterations_run) is int
        assert type(state.messages) is dict
        assert len(state.messages) == 2 * len(alpha)
        for (src, dst), msg in state.messages.items():
            assert type(src) is int and type(dst) is int
            assert msg.shape == (2,)
        assert state.beliefs.shape == (3, 2)
        assert labels.dtype == np.int8 and labels.shape == (3,)
        json.dumps({"converged": state.converged, "iterations": state.iterations_run})


class TestMapBruteforce:
    def test_zero_params_all_positive(self):
        params = ModelParams.zeros(4, 2)
        assert np.array_equal(map_bruteforce(params, np.zeros(2)), np.ones(4))

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            m = int(rng.integers(1, 7))
            params = random_params(rng, m, 3)
            x = rng.normal(size=3)
            table = oracle_joint_table(params, x)
            best = max(table.items(), key=lambda kv: kv[1])
            got = map_bruteforce(params, x)
            assert table[tuple(int(v) for v in got)] == pytest.approx(best[1], abs=1e-12)

    def test_frustrated_triangle_lexicographic_tie(self):
        # all-negative couplings with no unaries: six optima; the scan order
        # (+1 before -1 per coordinate) must pick (+1, +1, -1)
        alpha = {(0, 1): -1.0, (0, 2): -1.0, (1, 2): -1.0}
        params = ModelParams(np.zeros((3, 1)), alpha, 3, 1)
        got = map_bruteforce(params, np.zeros(1))
        assert np.array_equal(got, np.array([1, 1, -1]))

    def test_enumeration_guard(self):
        params = ModelParams.zeros(21, 1)
        with pytest.raises(DataError):
            map_bruteforce(params, np.zeros(1))


class TestMargin:
    def test_zero_params_margin_zero(self):
        params = ModelParams.zeros(3, 2)
        for y in all_label_vectors(3):
            assert margin(params, np.zeros(2), y) == 0.0

    def test_single_label_direct(self):
        params = ModelParams(np.array([[0.3]]), {}, 1, 1)
        assert margin(params, np.array([1.0]), np.array([1])) == pytest.approx(0.6, abs=1e-15)
        assert margin(params, np.array([1.0]), np.array([-1])) == pytest.approx(-0.6, abs=1e-15)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(13)
        params = random_params(rng, 3, 2)
        x = rng.normal(size=2)
        table = oracle_joint_table(params, x)
        for y in all_label_vectors(3):
            key = tuple(int(v) for v in y)
            expected = table[key] - max(v for k, v in table.items() if k != key)
            assert margin(params, x, y) == pytest.approx(expected, abs=1e-12)

    def test_map_labeling_has_nonnegative_margin(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            m = int(rng.integers(1, 6))
            params = random_params(rng, m, 2)
            x = rng.normal(size=2)
            y_map = map_bruteforce(params, x)
            assert margin(params, x, y_map) >= 0.0
            for y in all_label_vectors(m):
                if not np.array_equal(y, y_map):
                    assert margin(params, x, y) <= 0.0

    def test_enumeration_guard(self):
        params = ModelParams.zeros(21, 1)
        with pytest.raises(DataError):
            margin(params, np.zeros(1), np.ones(21, dtype=np.int8))

    @pytest.mark.parametrize("y", [[0, 1], [1, 2], [0.5, -1]])
    def test_labels_outside_plus_minus_one_rejected(self, y):
        params = ModelParams(np.array([[0.3], [-0.2]]), {(0, 1): 0.5}, 2, 1)
        x = np.array([1.0])
        with pytest.raises(DataError):
            margin(params, x, np.array(y))
        with pytest.raises(DataError):
            margin_loss(params, x, np.array(y))


class TestMarginLoss:
    @pytest.fixture
    def simple(self):
        # margin for y=+1 is 2 * beta * x, tunable via x
        return ModelParams(np.array([[1.0]]), {}, 1, 1)

    def test_zero_above_gamma(self, simple):
        assert margin_loss(simple, np.array([2.0]), np.array([1]), gamma=1.0) == 0.0

    def test_one_below_zero(self, simple):
        assert margin_loss(simple, np.array([-2.0]), np.array([1]), gamma=1.0) == 1.0

    def test_half_at_half_gamma(self, simple):
        # margin = 2 * 0.25 = 0.5 = gamma / 2
        assert margin_loss(simple, np.array([0.25]), np.array([1]), gamma=1.0) == pytest.approx(0.5)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-3, 3, allow_nan=False), st.floats(0.1, 5.0))
    def test_in_unit_interval_and_monotone(self, x_val, gamma):
        params = ModelParams(np.array([[1.0]]), {}, 1, 1)
        x = np.array([x_val])
        loss = margin_loss(params, x, np.array([1]), gamma=gamma)
        assert 0.0 <= loss <= 1.0
        bigger = margin_loss(params, x + 0.1, np.array([1]), gamma=gamma)
        assert bigger <= loss + 1e-12

    def test_gamma_must_be_positive(self, simple):
        with pytest.raises(DataError):
            margin_loss(simple, np.array([1.0]), np.array([1]), gamma=0.0)
