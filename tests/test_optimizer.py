import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corrlog.optimizer
from corrlog.errors import DataError, NumericError
from corrlog.model import ModelParams, MultilabelDataset
from corrlog.objective import (
    RegularizationConfig,
    full_objective,
    smooth_gradient,
)
from corrlog.optimizer import (
    TrainConfig,
    default_initial_step,
    soft_threshold,
    subgradient_residual,
    train_corrlog,
    train_ilrs,
)

from conftest import (
    GradientBuffer,
    alpha_pairs,
    prox_step,
    random_dataset,
    surrogate_objective,
)


def balanced_coin_dataset(n_quads: int, d: int, seed: int) -> MultilabelDataset:
    """Two labels hitting all four +-1 combinations equally often."""
    rng = np.random.default_rng(seed)
    combos = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    features, labels = [], []
    for _ in range(n_quads):
        for combo in combos:
            x = rng.normal(size=d)
            x /= max(1.0, np.linalg.norm(x))
            features.append(x)
            labels.append(combo)
    return MultilabelDataset(np.array(features), np.array(labels), ("a", "b"))


def correlated_pair_dataset(n: int, seed: int) -> MultilabelDataset:
    """y2 always equals y1; features only weakly informative."""
    rng = np.random.default_rng(seed)
    features, labels = [], []
    for _ in range(n):
        y1 = int(rng.choice([-1, 1]))
        features.append(rng.normal(size=2) * 0.05)
        labels.append([y1, y1])
    return MultilabelDataset(np.array(features), np.array(labels), ("a", "b"))


class TestSoftThreshold:
    def test_basic_cases(self):
        assert soft_threshold(1.0, 0.3) == pytest.approx(0.7)
        assert soft_threshold(-0.2, 0.3) == 0.0
        assert soft_threshold(-1.0, 0.3) == pytest.approx(-0.7)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-1e6, 1e6, allow_nan=False))
    def test_zero_threshold_is_identity(self, u):
        assert soft_threshold(u, 0.0) == u

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-100, 100), st.floats(0, 100))
    def test_shrinks_and_preserves_sign(self, u, t):
        s = soft_threshold(u, t)
        assert abs(s) <= max(abs(u) - t, 0.0) + 1e-12
        if abs(u) <= t:
            assert s == 0.0
        else:
            assert np.sign(s) == np.sign(u)

    def test_rejects_negative_threshold(self):
        with pytest.raises(DataError):
            soft_threshold(1.0, -0.1)

    def test_array_threshold_gives_the_bits_of_scalar_calls(self):
        rng = np.random.default_rng(3)
        u = np.concatenate([rng.normal(size=300) * 10.0 ** rng.integers(-3, 4, size=300),
                            [0.0, -0.0, 0.5, -0.5, 2.0]])
        t = np.abs(rng.normal(size=u.size))
        t[:30] = 0.0
        t[-5:] = [0.0, 0.0, 0.5, 0.5, 0.0]
        want = np.array([soft_threshold(a, b) for a, b in zip(u, t)])
        assert soft_threshold(u, t).tobytes() == want.tobytes()  # the sign of each zero too

    def test_one_negative_threshold_element_is_rejected(self):
        t = np.full(5, 0.3)
        t[3] = -1e-300
        with pytest.raises(DataError, match="nonnegative"):
            soft_threshold(np.ones(5), t)


class TestProxStep:
    def _grad(self, params, dataset, reg):
        return GradientBuffer(*smooth_gradient(params, dataset, reg))

    def test_zero_gradient_eps0_is_identity(self):
        rng = np.random.default_rng(1)
        p = ModelParams(rng.normal(size=(2, 2)), {(0, 1): 0.4}, 2, 2)
        grad = self._grad(ModelParams.zeros(2, 2), random_dataset(rng, 4, 2, 2),
                          RegularizationConfig(0.0, 0.0, 0.0))
        grad.grad_beta[:] = 0.0
        grad.grad_alpha[:] = 0.0
        out = prox_step(p, grad, 0.5, RegularizationConfig(0.1, 0.1, 0.0))
        assert np.array_equal(out.beta, p.beta)
        assert np.array_equal(out.alpha, p.alpha)

    def test_eps0_is_plain_gradient_step(self):
        rng = np.random.default_rng(2)
        ds = random_dataset(rng, 5, 2, 3)
        reg = RegularizationConfig(0.1, 0.1, 0.0)
        p = ModelParams(rng.normal(size=(2, 3)), {(0, 1): -0.3}, 2, 3)
        grad = self._grad(p, ds, reg)
        out = prox_step(p, grad, 0.2, reg)
        assert np.allclose(out.beta, p.beta - 0.2 * grad.grad_beta, atol=1e-15)
        assert out.alpha[0, 1] == pytest.approx(-0.3 - 0.2 * grad.alpha_pair(0, 1), abs=1e-15)

    def test_single_coordinate_arithmetic(self):
        # beta=1, grad=2, eta=0.25, lambda1*eps=0.4: step to 0.5, threshold 0.1 -> 0.4
        p = ModelParams(np.array([[1.0]]), {}, 1, 1)
        grad = GradientBuffer(np.array([[2.0]]), np.zeros((1, 1)))
        out = prox_step(p, grad, 0.25, RegularizationConfig(0.8, 0.1, 0.5))
        assert out.beta[0, 0] == pytest.approx(0.4, abs=1e-15)

    def test_minimizes_surrogate(self):
        # the prox output must beat random candidates on the surrogate value
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, 6, 3, 2)
        reg = RegularizationConfig(0.2, 0.2, 1.0)
        anchor = ModelParams(rng.normal(size=(3, 2)), {(0, 1): 0.5, (1, 2): -0.2}, 3, 2)
        grad = self._grad(anchor, ds, reg)
        eta = 0.1
        star = prox_step(anchor, grad, eta, reg)
        j_star = surrogate_objective(star, anchor, grad, eta, ds, reg)
        for _ in range(25):
            cand_beta = star.beta + rng.normal(size=(3, 2)) * 0.05
            cand_alpha = {k: v + rng.normal() * 0.05 for k, v in alpha_pairs(star).items()}
            cand_alpha.setdefault((0, 2), rng.normal() * 0.05)
            cand = ModelParams(cand_beta, cand_alpha, 3, 2)
            assert j_star <= surrogate_objective(cand, anchor, grad, eta, ds, reg) + 1e-12


class TestTrainingDescent:
    def test_trace_monotone_and_surrogate_majorizes(self):
        rng = np.random.default_rng(7)
        ds = random_dataset(rng, 20, 3, 4)
        reg = RegularizationConfig(0.05, 0.05, 1.0)
        config = TrainConfig(reg=reg, max_iters=200, rel_tol=1e-10)
        params, trace = train_corrlog(ds, config)
        objs = trace.objectives()
        assert np.all(np.diff(objs) <= 1e-12)
        assert trace.iterations > 1

    def test_manual_ista_majorization_conditions(self):
        # with eta = 1 / lipschitz_bound every step must satisfy the surrogate
        # conditions: J(theta_new; theta) >= f(theta_new) and
        # J(theta; theta) == f(theta)
        rng = np.random.default_rng(8)
        ds = random_dataset(rng, 15, 3, 3)
        reg = RegularizationConfig(0.1, 0.1, 1.0)
        eta = default_initial_step(ds, reg)
        params = ModelParams.zeros(3, 3)
        for _ in range(25):
            grad = GradientBuffer(*smooth_gradient(params, ds, reg))
            new_params = prox_step(params, grad, eta, reg)
            j_anchor = surrogate_objective(params, params, grad, eta, ds, reg)
            j_new = surrogate_objective(new_params, params, grad, eta, ds, reg)
            assert j_anchor == pytest.approx(full_objective(params, ds, reg), abs=1e-12)
            assert j_new >= full_objective(new_params, ds, reg) - 1e-10
            assert full_objective(new_params, ds, reg) <= full_objective(params, ds, reg) + 1e-12
            params = new_params

    def test_acceleration_not_slower_to_converge(self):
        rng = np.random.default_rng(9)
        ds = random_dataset(rng, 30, 3, 4)
        reg = RegularizationConfig(0.01, 0.01, 1.0)
        _, trace_fast = train_corrlog(ds, TrainConfig(reg=reg, max_iters=3000, rel_tol=1e-9))
        _, trace_slow = train_corrlog(
            ds, TrainConfig(reg=reg, max_iters=3000, rel_tol=1e-9, accelerate=False)
        )
        assert trace_fast.objectives()[-1] <= trace_slow.objectives()[-1] + 1e-8


class TestPassCount:
    """Each attempted step makes one fused value+gradient pass at its anchor
    and one value pass per candidate; only the zero start asks for the full
    objective.  An attempt first tries twice the last step and then halves, so
    over a run the candidate passes are 2 * attempts - log2(final / start step)."""

    @pytest.fixture
    def passes(self, monkeypatch):
        counts = {"fused": 0, "candidate": 0, "full": 0}
        for key, name in (("fused", "smooth_grad_dense"), ("candidate", "smooth_value_dense"),
                          ("full", "full_value_dense")):
            def counted(*args, _key=key, _original=getattr(corrlog.optimizer, name)):
                counts[_key] += 1
                return _original(*args)
            monkeypatch.setattr(corrlog.optimizer, name, counted)
        return counts

    @staticmethod
    def step_doublings(trace, start):
        doublings = math.log2(trace.records[-1].step_size / start)
        assert doublings == round(doublings)  # every step is start * 2^k
        return round(doublings)

    def test_plain_steps_pass_count_follows_step_growth(self, passes):
        rng = np.random.default_rng(21)
        ds = random_dataset(rng, 30, 4, 5)
        reg = RegularizationConfig(0.01, 0.01, 1.0)
        _, trace = train_corrlog(ds, TrainConfig(reg=reg, max_iters=40, accelerate=False))
        assert trace.iterations == 40 and not trace.converged
        start = default_initial_step(ds, reg)
        doublings = self.step_doublings(trace, start)
        assert doublings > 0  # the loose 1/L start grew
        assert passes["fused"] == 40 and passes["full"] == 1
        assert passes["candidate"] == 2 * 40 - doublings
        assert passes["candidate"] > 40  # some attempts backtracked

    def test_momentum_pass_count_follows_step_growth(self, passes):
        rng = np.random.default_rng(22)
        ds = random_dataset(rng, 30, 4, 5)
        reg = RegularizationConfig(0.01, 0.01, 1.0)
        _, trace = train_corrlog(ds, TrainConfig(reg=reg, max_iters=25, rel_tol=1e-12))
        assert trace.iterations == 25
        attempts = passes["fused"]
        assert trace.iterations < attempts <= 2 * trace.iterations  # restarts happened
        doublings = self.step_doublings(trace, default_initial_step(ds, reg))
        assert passes["full"] == 1
        assert passes["candidate"] == 2 * attempts - doublings
        assert passes["candidate"] > attempts  # some attempts backtracked


class TestTrainCorrlog:
    def test_no_signal_huge_lambda2_zeroes_alpha(self):
        ds = balanced_coin_dataset(10, 3, seed=0)
        reg = RegularizationConfig(1.0, 50.0, 1.0)
        params, trace = train_corrlog(ds, TrainConfig(reg=reg, max_iters=2000, rel_tol=1e-10))
        assert params.nnz_alpha() == 0
        assert np.max(np.abs(params.beta)) < 0.05
        assert trace.objectives()[-1] == pytest.approx(2 * np.log(2), abs=0.05)

    def test_correlated_labels_positive_alpha(self):
        ds = correlated_pair_dataset(200, seed=1)
        reg = RegularizationConfig(0.01, 0.01, 0.0)
        params, _ = train_corrlog(ds, TrainConfig(reg=reg, max_iters=3000, rel_tol=1e-10))
        assert params.alpha[0, 1] > 0.1

    @pytest.mark.parametrize("accelerate", [True, False])
    def test_final_trace_objective_is_full_objective_bit_for_bit(self, accelerate):
        rng = np.random.default_rng(13)
        for _ in range(5):
            ds = random_dataset(rng, 25, 3, 4)
            reg = RegularizationConfig(0.02, 0.01, 1.0)
            params, trace = train_corrlog(
                ds, TrainConfig(reg=reg, max_iters=300, accelerate=accelerate))
            assert trace.records[-1].objective == full_objective(params, ds, reg)

    def test_step_grows_past_the_loose_lipschitz_start(self):
        # with 8 labels the 4(m - 1) term dominates the bound, so 1/L is loose
        rng = np.random.default_rng(31)
        ds = random_dataset(rng, 40, 8, 3)
        reg = RegularizationConfig(0.01, 0.01, 1.0)
        _, trace = train_corrlog(ds, TrainConfig(reg=reg, max_iters=200))
        steps = [r.step_size for r in trace.records]
        assert max(steps) >= 8 * default_initial_step(ds, reg)
        assert np.all(np.diff(trace.objectives()) <= 0.0)

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(12)
        ds = random_dataset(rng, 25, 3, 4)
        config = TrainConfig(reg=RegularizationConfig(0.01, 0.01, 1.0), max_iters=500)
        a, _ = train_corrlog(ds, config)
        b, _ = train_corrlog(ds, config)
        assert np.array_equal(a.beta, b.beta)
        assert np.array_equal(a.alpha, b.alpha)

    def test_nonfinite_data_rejected_with_instance_index(self):
        ds = MultilabelDataset(np.array([[0.1, 0.2], [np.nan, 0.0]]),
                               np.array([[1, -1], [1, 1]]), ("a", "b"))
        with pytest.raises(NumericError, match="instance 1"):
            train_corrlog(ds, TrainConfig())

    def test_requires_positive_lambdas(self):
        ds = balanced_coin_dataset(2, 2, seed=3)
        with pytest.raises(DataError):
            train_corrlog(ds, TrainConfig(reg=RegularizationConfig(0.0, 0.1, 1.0)))
        with pytest.raises(DataError):
            train_corrlog(ds, TrainConfig(reg=RegularizationConfig(0.1, 0.0, 1.0)))

    def test_fixed_point_conditions_at_convergence(self):
        rng = np.random.default_rng(14)
        ds = random_dataset(rng, 30, 3, 3)
        reg = RegularizationConfig(0.02, 0.02, 1.0)
        rel_tol = 1e-13
        params, trace = train_corrlog(
            ds, TrainConfig(reg=reg, max_iters=20000, rel_tol=rel_tol)
        )
        residual = subgradient_residual(params, ds, reg)
        # residual scale from strong convexity: L * sqrt(f_final / (min_lambda * rel_tol))
        from corrlog.optimizer import lipschitz_bound

        f_final = trace.objectives()[-1]
        scale = lipschitz_bound(ds, reg) * np.sqrt(
            max(1.0, f_final) / (min(reg.lambda1, reg.lambda2) * rel_tol)
        )
        assert residual < 10 * rel_tol * scale


class TestTrainIlrs:
    def test_alpha_stays_empty(self):
        rng = np.random.default_rng(15)
        ds = random_dataset(rng, 20, 3, 3)
        params, _ = train_ilrs(ds, TrainConfig(reg=RegularizationConfig(0.01, 0.01, 1.0)))
        assert np.array_equal(params.alpha, np.zeros((3, 3)))

    @pytest.mark.parametrize("accelerate", [True, False])
    def test_has_no_pair_coordinates(self, accelerate):
        ds = random_dataset(np.random.default_rng(18), 40, 4, 5)
        config = TrainConfig(reg=RegularizationConfig(0.01, 0.01, 1.0), accelerate=accelerate)
        params, trace = train_ilrs(ds, config)
        assert len(trace.records) > 5 and all(r.nnz_alpha == 0 for r in trace.records)
        assert params.alpha.tobytes() == np.zeros((4, 4)).tobytes()  # every entry +0.0

    def test_lambda2_zero_still_trains_and_plays_no_role(self):
        ds = random_dataset(np.random.default_rng(19), 40, 3, 4)
        params, _ = train_ilrs(ds, TrainConfig(reg=RegularizationConfig(0.05, 0.0, 1.0)))
        assert params.nnz_beta() > 0
        # lambda2 below lambda1 leaves even the start step unchanged
        same, _ = train_ilrs(ds, TrainConfig(reg=RegularizationConfig(0.05, 0.01, 1.0)))
        assert params.beta.tobytes() == same.beta.tobytes()

    def test_separable_single_label_high_accuracy(self):
        rng = np.random.default_rng(16)
        features, labels = [], []
        for _ in range(100):
            x = rng.normal(size=2)
            x /= max(1.0, np.linalg.norm(x))
            features.append(x)
            labels.append([1 if x[0] + 0.5 * x[1] >= 0 else -1])
        ds = MultilabelDataset(np.array(features), np.array(labels), ("a",))
        params, _ = train_ilrs(
            ds, TrainConfig(reg=RegularizationConfig(1e-4, 1e-4, 0.0), max_iters=5000)
        )
        preds = np.sign(ds.feature_matrix @ params.beta[0])
        preds[preds == 0] = 1
        accuracy = np.mean(preds == ds.label_matrix[:, 0])
        assert accuracy >= 0.99

    def test_matches_corrlog_when_alpha_path_off(self):
        # on a single-label problem there is no alpha path at all
        rng = np.random.default_rng(17)
        rows = [(rng.normal(size=2), [int(rng.choice([-1, 1]))]) for _ in range(30)]
        ds = MultilabelDataset(np.array([x for x, _ in rows]), np.array([y for _, y in rows]),
                               ("a",))
        config = TrainConfig(reg=RegularizationConfig(0.05, 0.05, 1.0))
        ilrs, _ = train_ilrs(ds, config)
        corr, _ = train_corrlog(ds, config)
        assert np.array_equal(ilrs.beta, corr.beta)


class TestSparsityMonotonicity:
    def test_nnz_alpha_decreases_with_epsilon(self):
        # statistical property on a fixed seed: stronger l1 weight cannot
        # produce a denser interaction graph
        from conftest import random_params
        from corrlog.data import sample_from_model

        rng = np.random.default_rng(99)
        truth = random_params(rng, 6, 4, alpha_scale=0.6, density=0.3)
        ds = sample_from_model(truth, n=250, seed=7)
        nnz = {}
        for eps in (0.0, 0.1, 1.0):
            reg = RegularizationConfig(0.02, 0.02, eps)
            params, _ = train_corrlog(ds, TrainConfig(reg=reg, max_iters=4000, rel_tol=1e-9))
            nnz[eps] = sum(1 for v in alpha_pairs(params).values() if abs(v) > 1e-8)
        assert nnz[1.0] <= nnz[0.1] <= nnz[0.0]
        assert nnz[0.0] == 15  # all pairs active without any l1 shrinkage
