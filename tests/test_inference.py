import inspect
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrlog import inference
from corrlog.errors import DataError, NumericError
from corrlog.evaluation import predict_dataset
from corrlog.inference import (
    BRUTEFORCE_LIMIT,
    ENUMERATION_LIMIT,
    BeliefState,
    decode_rows,
    decodes_exactly,
    elimination_width,
    map_bruteforce,
    margin,
    margin_loss,
    predict_map_bp,
    sample_from_model,
)
from corrlog.model import ModelParams, joint_score

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
        _, state = predict_map_bp(params, x)
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
        assert state.iterations_run == inference.MAX_ITERS
        assert labels.shape == (m,)
        assert np.all(np.isfinite(state.beliefs))


def assert_same_state(got: BeliefState, want: BeliefState) -> None:
    assert got.converged == want.converged
    assert got.iterations_run == want.iterations_run
    assert list(got.messages) == list(want.messages)
    for key, msg in want.messages.items():
        assert got.messages[key].tobytes() == msg.tobytes(), key
    assert got.beliefs.tobytes() == want.beliefs.tobytes()


@pytest.mark.parametrize("decoder, names", [
    (decode_rows, ["params", "X"]),
    (predict_map_bp, ["params", "x"]),
    (inference._icm, ["unary", "alpha"]),
    (predict_dataset, ["params", "dataset"]),
], ids=["decode_rows", "predict_map_bp", "_icm", "predict_dataset"])
def test_decoding_takes_no_settings(decoder, names):
    # max-product's round cap is the constant MAX_ITERS, and ICM runs to a local optimum
    assert list(inspect.signature(decoder).parameters) == names


class TestReferenceDecoder:
    """``predict_map_bp`` against the per-instance dict decoder, bit for bit."""

    def test_matches_reference_on_loopy_models(self):
        rng = np.random.default_rng(1050)
        flags, rounds = [], set()
        for k in range(6):
            m = int(rng.integers(2, 13))
            params = random_params(rng, m, 3, alpha_scale=(0.3, 1.0, 2.0)[k % 3],
                                   density=0.7)
            # the zero row gives +-0.0 unaries, whose signs the masked adds keep
            for x in np.vstack([rng.normal(size=(8, 3)), np.zeros((1, 3))]):
                want_labels, want = reference_predict_map_bp(params, x)
                got_labels, got = predict_map_bp(params, x)
                assert np.array_equal(got_labels, want_labels)
                assert_same_state(got, want)
                flags.append(got.converged)
                rounds.add(got.iterations_run)
        # vectors that stop at the round cap are compared too, not only converged ones
        assert set(flags) == {True, False} and len(rounds) >= 3

    def test_edge_free_matches_reference(self):
        rng = np.random.default_rng(32)
        params = ModelParams(rng.normal(size=(4, 3)), {(0, 2): 0.0}, 4, 3)
        X = np.vstack([rng.normal(size=(5, 3)), np.zeros((1, 3))])
        labels = decode_rows(params, X)
        for r, x in enumerate(X):
            want_labels, want = reference_predict_map_bp(params, x)
            got_labels, got = predict_map_bp(params, x)
            assert np.array_equal(got_labels, want_labels)
            assert_same_state(got, want)
            assert np.array_equal(labels[r], want_labels)

    def test_isolated_label_in_loopy_model_keeps_negative_zero(self):
        # label 3 has no edges, so its belief at x = 0 stays [0.0, -0.0]: nothing is added
        params = ModelParams(np.ones((4, 1)), {(0, 1): 0.5, (1, 2): -1.0, (0, 2): 0.7}, 4, 1)
        want_labels, want = reference_predict_map_bp(params, np.zeros(1))
        got_labels, got = predict_map_bp(params, np.zeros(1))
        assert np.array_equal(got_labels, want_labels)
        assert_same_state(got, want)
        assert np.signbit(got.beliefs[3, 1])

    def test_infinite_unary_off_the_edges_leaves_them_converging(self):
        # label 2's unary overflows to inf; it sends no messages, so none turns NaN
        params = ModelParams([[1.0, 0.0], [-1.0, 0.0], [0.0, 1e10]], {(0, 1): 0.5}, 3, 2)
        x = np.array([0.3, 1e300])
        with np.errstate(over="ignore", invalid="ignore"):
            want_labels, want = reference_predict_map_bp(params, x)
            got_labels, got = predict_map_bp(params, x)
        assert np.isinf(got.beliefs[2, 0]) and got.converged
        assert np.array_equal(got_labels, want_labels)
        assert_same_state(got, want)

    def test_decode_rows_checks_shape(self):
        params = ModelParams.zeros(2, 3)
        with pytest.raises(DataError):
            decode_rows(params, np.zeros(3))
        with pytest.raises(DataError):
            decode_rows(params, np.zeros((4, 2)))


def spy_on_eliminate(monkeypatch) -> list[np.ndarray]:
    """Record the unary array of every chunk that ``decode_rows`` decodes exactly."""
    seen, eliminate = [], inference._eliminate

    def spy(unary, alpha, scopes):
        seen.append(unary.copy())
        return eliminate(unary, alpha, scopes)

    monkeypatch.setattr(inference, "_eliminate", spy)
    return seen


class TestChunkUnaries:
    """Each chunk's unaries come from one stacked product within the chunk bound."""

    @pytest.mark.parametrize("layout", ["C", "F", "row-strided", "reversed", "columns-reversed"])
    def test_equal_per_row_products_bit_for_bit(self, monkeypatch, layout):
        rng = np.random.default_rng(70)
        params = random_params(rng, 13, 300, density=0.3)
        base = rng.normal(size=(80, 300))
        X = {"C": base[:40], "F": np.asfortranarray(base[:40]), "row-strided": base[::2],
             "reversed": base[:40][::-1], "columns-reversed": base[:40, ::-1]}[layout]
        seen = spy_on_eliminate(monkeypatch)
        decode_rows(params, X)
        assert len(seen) == 1  # one chunk, where a batched X @ beta.T would round differently
        assert seen[0].tobytes() == np.array([params.beta @ x for x in X]).tobytes()

    def test_chunks_bound_the_unary_array(self, monkeypatch):
        # edge-free with 3 features: a row's table is 2 floats, its unaries 40
        rng = np.random.default_rng(71)
        params = ModelParams(rng.normal(size=(40, 3)), {}, 40, 3)
        X = rng.normal(size=(50, 3))
        whole = decode_rows(params, X)
        monkeypatch.setattr(inference, "DECODE_CHUNK_FLOATS", 64)
        seen = spy_on_eliminate(monkeypatch)
        labels = decode_rows(params, X)
        assert max(unary.size for unary in seen) <= 64
        assert sum(map(len, seen)) == 50
        assert labels.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("m", [17, 300])
    def test_icm_chunks_bound_the_label_arrays(self, monkeypatch, m):
        # a complete 17-label graph (width 16: ICM) plus isolated labels; each of ICM's
        # arrays holds one float per label and row
        rng = np.random.default_rng(72)
        alpha = {(i, j): 0.01 for i in range(17) for j in range(i + 1, 17)}
        params = ModelParams(rng.normal(size=(m, 1)), alpha, m, 1)
        X = rng.normal(size=(25, 1))
        whole = decode_rows(params, X)
        monkeypatch.setattr(inference, "DECODE_CHUNK_FLOATS", 4 * m + 3)
        shapes, icm = [], inference._icm

        def spy(unary, alpha):
            shapes.append(unary.shape)
            return icm(unary, alpha)

        monkeypatch.setattr(inference, "_icm", spy)
        labels = decode_rows(params, X)
        assert shapes == [(4, m)] * 6 + [(1, m)]
        assert labels.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("m", [3, 17])  # a complete graph: elimination, then ICM
    @pytest.mark.parametrize("bad", [[np.nan, 0.0], [1e308, 0.0]])
    def test_a_row_whose_label_scores_are_not_finite_is_named(self, monkeypatch, m, bad):
        # every label's score is nan, or 4e308 overflowing to inf, on row 5 of 7; two rows a
        # chunk (a row's largest table is 8 floats at m = 3, ICM's arrays m floats) put it in
        # the third chunk, after two decoded ones
        rng = np.random.default_rng(74)
        alpha = {(i, j): 0.1 for i in range(m) for j in range(i + 1, m)}
        params = ModelParams(np.column_stack([np.full(m, 4.0), rng.normal(size=m)]), alpha, m, 2)
        assert decodes_exactly(params) == (m == 3)
        X = rng.normal(size=(7, 2))
        X[5] = bad
        monkeypatch.setattr(inference, "DECODE_CHUNK_FLOATS", 2 * (8 if m == 3 else m))
        chunks, decoder = [], "_eliminate" if m == 3 else "_icm"
        real = getattr(inference, decoder)

        def spy(unary, *rest):
            chunks.append(len(unary))
            return real(unary, *rest)

        monkeypatch.setattr(inference, decoder, spy)
        with pytest.raises(NumericError, match=r"^row 5 has label scores that are not finite$"):
            decode_rows(params, X)
        assert chunks == [2, 2]


def frustrated_cycle(m: int) -> ModelParams:
    """An odd cycle of strong negative couplings with tiny unaries; BP oscillates on it."""
    rng = np.random.default_rng(0)
    alpha = {(i, i + 1): -2.0 for i in range(m - 1)} | {(0, m - 1): -2.0}
    return ModelParams(rng.normal(size=(m, 1)) * 0.01, alpha, m, 1)


def frustrated_complete(m: int) -> ModelParams:
    """Every pair coupled by -2.0, with tiny unaries: elimination width m - 1."""
    rng = np.random.default_rng(0)
    alpha = {(i, j): -2.0 for i in range(m) for j in range(i + 1, m)}
    return ModelParams(rng.normal(size=(m, 1)) * 0.01, alpha, m, 1)


def integer_model(rng, m: int, edges) -> ModelParams:
    """Small integer weights on the given pairs, so that many rows' optima tie."""
    alpha = {(min(i, j), max(i, j)): float(rng.choice([-2, -1, 1, 2])) for i, j in edges}
    return ModelParams(rng.integers(-1, 2, size=(m, 2)).astype(float), alpha, m, 2)


class TestExactDecode:
    """decode_rows decodes every model of elimination width below ENUMERATION_LIMIT exactly."""

    def test_equals_map_bruteforce_row_by_row(self):
        rng = np.random.default_rng(60)
        for m in range(1, ENUMERATION_LIMIT + 1):
            params = random_params(rng, m, 3, alpha_scale=(0.3, 1.0, 2.0)[m % 3], density=0.7)
            X = rng.normal(size=(4 if m > 12 else 10, 3))
            labels = decode_rows(params, X)
            assert labels.dtype == np.int8 and labels.shape == (len(X), m)
            for r, x in enumerate(X):
                assert labels[r].tobytes() == map_bruteforce(params, x).tobytes(), (m, r)

    def test_frustrated_triangle_tie_is_lexicographically_first(self):
        alpha = {(0, 1): -1.0, (0, 2): -1.0, (1, 2): -1.0}
        params = ModelParams(np.zeros((3, 1)), alpha, 3, 1)
        labels = decode_rows(params, np.zeros((3, 1)))
        assert labels.tolist() == [[1, 1, -1]] * 3

    def test_is_the_exact_map_where_bp_fails(self):
        params = frustrated_cycle(5)
        x = np.array([1.0])
        _, state = predict_map_bp(params, x)
        assert not state.converged
        table = oracle_joint_table(params, x)
        labels = decode_rows(params, x[None, :])
        assert table[tuple(labels[0].tolist())] == max(table.values())

    @pytest.mark.parametrize("m", [3, 9, 16, 24])
    def test_labels_do_not_depend_on_chunk_size(self, monkeypatch, m):
        rng = np.random.default_rng(61 + m)
        params = random_params(rng, m, 4, density=0.8)
        # a row's largest table (width m - 1), or ICM's label arrays at m = 24
        assert decodes_exactly(params) == (m < 24)
        row = 1 << m if m < 24 else m
        X = rng.normal(size=(9, 4))
        whole = decode_rows(params, X)
        for floats in (1, 2 * row, 5 * row):  # one row, two rows and five rows per chunk
            monkeypatch.setattr(inference, "DECODE_CHUNK_FLOATS", floats)
            assert decode_rows(params, X).tobytes() == whole.tobytes(), floats

    def test_forests_match_reference_bp(self):
        rng = np.random.default_rng(62)
        for trial in range(60):
            m = int(rng.integers(2, ENUMERATION_LIMIT + 1))
            kind = ("chain", "star", "random")[trial % 3]
            params = tree_model(rng, m, kind, drop_prob=0.25 if kind == "random" else 0.0)
            X = rng.normal(size=(3, 2))
            labels = decode_rows(params, X)
            want = np.array([reference_predict_map_bp(params, x)[0] for x in X])
            assert labels.tobytes() == want.tobytes(), f"trial {trial}"

    def test_above_the_limit_rows_go_to_icm(self, monkeypatch):
        # the complete 17-label graph has width 16
        params = frustrated_complete(ENUMERATION_LIMIT + 1)
        X = np.ones((3, 1))
        seen = spy_on_eliminate(monkeypatch)
        labels = decode_rows(params, X)
        assert seen == []
        assert labels.tobytes() == inference._icm(X @ params.beta.T, params.alpha).tobytes()

    def test_elimination_width_by_graph_shape(self):
        rng = np.random.default_rng(63)
        for kind in ("chain", "star", "random"):
            assert elimination_width(tree_model(rng, 20, kind, drop_prob=0.3)) <= 1
        assert elimination_width(ModelParams.zeros(ENUMERATION_LIMIT + 4, 1)) == 0
        assert decode_rows(ModelParams.zeros(0, 1), np.zeros((3, 1))).shape == (3, 0)
        chain = tree_model(rng, 6, "chain")
        assert elimination_width(chain) == 1
        alpha = chain.alpha.copy()
        alpha[0, 5] = alpha[5, 0] = 0.5  # closes the chain into a cycle
        assert elimination_width(ModelParams(chain.beta, alpha, 6, 2)) == 2
        assert elimination_width(frustrated_cycle(ENUMERATION_LIMIT + 1)) == 2
        # a star centred on the last label links all the others when that label goes first
        alpha = np.zeros((5, 5))
        alpha[:4, 4] = alpha[4, :4] = 1.0
        assert elimination_width(ModelParams(np.zeros((5, 1)), alpha, 5, 1)) == 4
        assert elimination_width(frustrated_complete(ENUMERATION_LIMIT)) == ENUMERATION_LIMIT - 1
        assert elimination_width(frustrated_complete(ENUMERATION_LIMIT + 1)) == ENUMERATION_LIMIT

    @pytest.mark.parametrize("m", [5, ENUMERATION_LIMIT + 1, BRUTEFORCE_LIMIT])
    def test_star_width_follows_its_centre(self, m):
        # a forest decodes exactly when every parent precedes its children in label order
        for centre, width in ((0, 1), (m - 1, m - 1)):
            alpha = np.zeros((m, m))
            alpha[centre] = alpha[:, centre] = 0.5
            alpha[centre, centre] = 0.0
            params = ModelParams(np.zeros((m, 1)), alpha, m, 1)
            assert elimination_width(params) == width
            assert decodes_exactly(params) == (width < ENUMERATION_LIMIT)

    def test_width_below_the_limit_is_exact_at_any_label_count(self):
        # labels 0..15 complete and label 16 hung on label 0: 17 labels, width 15
        m = ENUMERATION_LIMIT + 1
        rng = np.random.default_rng(66)
        edges = [(i, j) for i in range(m - 1) for j in range(i + 1, m - 1)] + [(0, m - 1)]
        params = integer_model(rng, m, edges)
        assert elimination_width(params) == ENUMERATION_LIMIT - 1
        X = rng.integers(-1, 2, size=(3, 2)).astype(float)
        labels = decode_rows(params, X)
        for r, x in enumerate(X):
            assert labels[r].tobytes() == map_bruteforce(params, x).tobytes(), r

    def test_tied_forest_gets_the_lexicographically_first_optimum(self):
        # max-product tie-breaks each label alone and reports (+1, +1), which scores -1
        params = ModelParams(np.zeros((2, 1)), {(0, 1): -1.0}, 2, 1)
        assert decode_rows(params, np.zeros((1, 1))).tolist() == [[1, -1]]

    def test_tied_forests_equal_map_bruteforce(self):
        rng = np.random.default_rng(67)
        kinds = ("chain", "star", "random")
        # every kind up to 16 labels, then one kind per label count: m = 20 costs 0.4 s a row
        cases = [(m, kind) for m in range(2, 17) for kind in kinds]
        cases += [(m, kinds[m % 3]) for m in range(17, BRUTEFORCE_LIMIT + 1)]
        tied = 0
        for trial, (m, kind) in enumerate(cases):
            tree = tree_model(rng, m, kind, alpha_scale=1.5,
                              drop_prob=0.25 if kind == "random" else 0.0)
            params = ModelParams(np.round(tree.beta), np.round(tree.alpha), m, 2)
            X = rng.integers(-1, 2, size=(12 if m <= 12 else 3 if m <= 16 else 1, 2)).astype(float)
            labels = decode_rows(params, X)
            for r, x in enumerate(X):
                assert labels[r].tobytes() == map_bruteforce(params, x).tobytes(), (trial, r)
                tied += m <= 12 and margin(params, x, labels[r]) == 0.0
        assert tied >= 200

    def test_sparse_loopy_graphs_above_sixteen_labels_equal_map_bruteforce(self):
        rng = np.random.default_rng(68)
        for m in range(ENUMERATION_LIMIT + 1, BRUTEFORCE_LIMIT + 1):
            density = (0.1, 0.15, 0.2, 0.15)[m % 4]
            edges = [(i, j) for i in range(m) for j in range(i + 1, m) if rng.uniform() < density]
            params = integer_model(rng, m, edges)
            assert params.nnz_alpha() >= m  # more pairs than a forest holds
            assert 2 <= elimination_width(params) < ENUMERATION_LIMIT
            X = rng.integers(-1, 2, size=(1, 2)).astype(float)
            labels = decode_rows(params, X)
            assert labels[0].tobytes() == map_bruteforce(params, X[0]).tobytes(), m

    def test_forests_up_to_the_limit_decode_exactly(self):
        rng = np.random.default_rng(64)
        for kind in ("chain", "star", "random"):
            params = tree_model(rng, ENUMERATION_LIMIT, kind)
            assert decodes_exactly(params)
            X = rng.normal(size=(3, 2))
            labels = decode_rows(params, X)
            for r, x in enumerate(X):
                assert labels[r].tobytes() == map_bruteforce(params, x).tobytes(), (kind, r)

    def test_limits_refuse_with_one_message(self):
        def refused(m, limit):
            return f"exact enumeration over 2^{m} label vectors is refused (limit m <= {limit})"

        m, big = ENUMERATION_LIMIT + 1, BRUTEFORCE_LIMIT + 1
        calls = ((lambda: sample_from_model(ModelParams.zeros(m, 1), n=1, seed=0),
                  refused(17, 16)),
                 (lambda: map_bruteforce(ModelParams.zeros(big, 1), np.zeros(1)),
                  refused(21, 20)),
                 (lambda: margin(ModelParams.zeros(big, 1), np.zeros(1), np.ones(big)),
                  refused(21, 20)))
        for call, message in calls:
            with pytest.raises(DataError) as err:
                call()
            assert str(err.value) == message

    @pytest.mark.parametrize("first_label", [1, -1])
    def test_bruteforce_above_the_decode_limit_scores_every_block(self, first_label):
        # m=17 spans two blocks of 2^16 vectors; the first label picks the block of the MAP
        m = ENUMERATION_LIMIT + 1
        rng = np.random.default_rng(65 + first_label)
        params = random_params(rng, m, 2, alpha_scale=0.5, density=0.5)
        params.beta[0] = [5.0 * first_label * m, 0.0]
        x = np.array([1.0, 0.3])
        bits = (np.arange(1 << m)[:, None] >> np.arange(m - 1, -1, -1)) & 1
        configs = 1.0 - 2.0 * bits
        table = configs @ (params.beta @ x) + 0.5 * np.einsum(
            "ci,ij,cj->c", configs, params.alpha, configs)
        order = np.argsort(-table)
        y_map = map_bruteforce(params, x)
        assert y_map.tolist() == configs[order[0]].tolist()
        assert y_map[0] == first_label
        assert margin(params, x, y_map) == pytest.approx(table[order[0]] - table[order[1]],
                                                         abs=1e-9)
        runner_up = configs[order[1]].astype(np.int8)
        assert margin(params, x, runner_up) == pytest.approx(table[order[1]] - table[order[0]],
                                                             abs=1e-9)


def dense_wide_model(m: int) -> tuple[ModelParams, np.ndarray]:
    """A seeded model with every pair coupled (width m - 1) and 20 rows to decode."""
    rng = np.random.default_rng(m)
    return random_params(rng, m, 3), rng.normal(size=(20, 3))


class TestWideDecode:
    """Models of elimination width ENUMERATION_LIMIT or more decode by ICM."""

    @pytest.mark.parametrize("m", [18, 24, 30, 50])
    def test_every_row_is_a_local_optimum(self, m):
        params, X = dense_wide_model(m)
        assert not decodes_exactly(params)
        for x, y in zip(X, decode_rows(params, X)):
            score = joint_score(params, x, y)
            for i in range(m):
                flipped = y.copy()
                flipped[i] = -flipped[i]
                assert joint_score(params, x, flipped) <= score + 1e-12 * abs(score), i

    @pytest.mark.parametrize("m", [18, 24, 30])
    def test_scores_at_least_max_product(self, m):
        params, X = dense_wide_model(m)
        icm = np.mean([joint_score(params, x, y) for x, y in zip(X, decode_rows(params, X))])
        bp = np.mean([joint_score(params, x, predict_map_bp(params, x)[0]) for x in X])
        assert icm >= bp

    def test_keeps_the_best_start(self):
        # the sign rule's start falls to all -1 (score 5); the all +1 start stays (score 7)
        alpha = np.full((3, 3), 2.0) - 2.0 * np.eye(3)
        assert inference._icm(np.array([[3.0, -1.0, -1.0]]), alpha).tolist() == [[1, 1, 1]]

    def test_ties_go_to_the_earlier_start(self):
        # a frustrated triangle: the sign rule (all +1 on zero unaries) ends at (-1, +1, +1)
        # and all -1 at (+1, -1, -1); both score 1, and the earlier start is kept
        alpha = np.eye(3) - 1.0
        assert inference._icm(np.zeros((2, 3)), alpha).tolist() == [[-1, 1, 1]] * 2


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

    def test_overflowing_label_scores_raise(self):
        # beta @ x overflows to (inf, -inf): scored, every vector would be NaN
        params = ModelParams(np.array([[4.0, 0.0], [-4.0, 1.0]]), {}, 2, 2)
        x = np.array([1e308, 0.0])
        for call in (lambda: map_bruteforce(params, x), lambda: margin(params, x, np.ones(2))):
            with pytest.raises(NumericError, match=r"^x has label scores that are not finite$"):
                call()


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
        for gamma in (0.0, np.nan):
            with pytest.raises(DataError):
                margin_loss(simple, np.array([1.0]), np.array([1]), gamma=gamma)
