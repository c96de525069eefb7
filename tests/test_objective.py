import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrlog.errors import DataError
from corrlog.model import ModelParams, MultilabelDataset, sigmoid
from corrlog.objective import (
    Problem,
    RegularizationConfig,
    _mean_loss,
    _slope,
    activations,
    elastic_net_penalty,
    full_objective,
    neg_log_pseudo_likelihood,
    smooth_grad_dense,
    smooth_gradient,
    smooth_objective,
    smooth_value_dense,
)

from conftest import (
    GradientBuffer,
    alpha_pairs,
    oracle_conditional,
    random_dataset,
    random_params,
    surrogate_objective,
)

FD_STEP = 1e-6


def perturbed(params: ModelParams, *, beta_coord=None, alpha_pair=None, delta=0.0) -> ModelParams:
    beta = params.beta.copy()
    alpha = alpha_pairs(params)
    if beta_coord is not None:
        beta[beta_coord] += delta
    if alpha_pair is not None:
        alpha[alpha_pair] = alpha.get(alpha_pair, 0.0) + delta
    return ModelParams(beta, alpha, params.num_labels, params.num_features)


def fd_smooth_gradient(params, dataset, reg, h=FD_STEP):
    """Central-difference gradient of smooth_objective, coordinate by coordinate."""
    m, d = params.num_labels, params.num_features
    grad_beta = np.zeros((m, d))
    for i in range(m):
        for k in range(d):
            up = smooth_objective(perturbed(params, beta_coord=(i, k), delta=h), dataset, reg)
            dn = smooth_objective(perturbed(params, beta_coord=(i, k), delta=-h), dataset, reg)
            grad_beta[i, k] = (up - dn) / (2 * h)
    grad_alpha = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            up = smooth_objective(perturbed(params, alpha_pair=(i, j), delta=h), dataset, reg)
            dn = smooth_objective(perturbed(params, alpha_pair=(i, j), delta=-h), dataset, reg)
            grad_alpha[i, j] = (up - dn) / (2 * h)
    return grad_beta, grad_alpha


def assert_gradient_matches_fd(params, dataset, reg, rel=1e-5):
    grad = GradientBuffer(*smooth_gradient(params, dataset, reg))
    fd_beta, fd_alpha = fd_smooth_gradient(params, dataset, reg)
    err_beta = np.abs(grad.grad_beta - fd_beta) / np.maximum(1.0, np.abs(grad.grad_beta))
    err_alpha = np.abs(grad.grad_alpha - fd_alpha) / np.maximum(1.0, np.abs(grad.grad_alpha))
    assert err_beta.max() < rel
    assert err_alpha.max() < rel


class TestNegLogPseudoLikelihood:
    def test_zero_params_gives_m_log2(self):
        rng = np.random.default_rng(0)
        ds = random_dataset(rng, 6, 3, 4)
        got = neg_log_pseudo_likelihood(ModelParams.zeros(3, 4), ds)
        assert got == pytest.approx(3 * math.log(2), abs=1e-12)

    def test_single_instance_single_label(self):
        ds = MultilabelDataset(np.array([[1.0]]), np.array([[1]]), ("a",))
        p = ModelParams(np.array([[0.5]]), {}, 1, 1)
        assert neg_log_pseudo_likelihood(p, ds) == pytest.approx(-math.log(1 / (1 + math.exp(-1))), abs=1e-12)
        assert neg_log_pseudo_likelihood(p, ds) == pytest.approx(0.313262, abs=1e-6)

    def test_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(42)
        ds = random_dataset(rng, 5, 3, 2)
        p = random_params(rng, 3, 2)
        expected = 0.0
        for x, y in zip(ds.features, ds.labels):
            for i in range(3):
                expected -= math.log(oracle_conditional(p, x, y, i))
        expected /= len(ds)
        assert neg_log_pseudo_likelihood(p, ds) == pytest.approx(expected, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(9)
        ds = random_dataset(rng, 8, 2, 3)
        p = random_params(rng, 2, 3, alpha_scale=3.0)
        assert neg_log_pseudo_likelihood(p, ds) >= 0.0


class TestElasticNetPenalty:
    def test_zero_params(self):
        reg = RegularizationConfig(0.5, 0.5, 1.0)
        assert elastic_net_penalty(ModelParams.zeros(2, 2), reg) == 0.0

    def test_direct_arithmetic(self):
        # beta = (1, -2), lambda1 = 0.5, eps = 1 -> 0.5 * ((1+4) + (1+2)) = 4.0
        p = ModelParams(np.array([[1.0, -2.0]]), {}, 1, 2)
        reg = RegularizationConfig(0.5, 0.7, 1.0)
        assert elastic_net_penalty(p, reg) == pytest.approx(4.0, abs=1e-15)

    def test_epsilon_zero_is_pure_quadratic(self):
        rng = np.random.default_rng(4)
        p = random_params(rng, 3, 2)
        reg = RegularizationConfig(0.3, 0.9, 0.0)
        expected = 0.3 * np.sum(p.beta ** 2) + 0.9 * sum(v * v for v in alpha_pairs(p).values())
        assert elastic_net_penalty(p, reg) == pytest.approx(expected, abs=1e-14)

    def test_rejects_negative_weights(self):
        with pytest.raises(DataError):
            RegularizationConfig(-0.1, 0.1, 1.0)

    @pytest.mark.parametrize("weights", [(float("nan"), 0.1, 1.0), (0.1, float("inf"), 1.0),
                                         (0.1, 0.1, float("nan"))])
    def test_rejects_weights_that_are_not_finite(self, weights):
        with pytest.raises(DataError, match="^regularization weights must be finite and nonnegative$"):
            RegularizationConfig(*weights)


class TestSmoothObjective:
    def test_epsilon_is_ignored(self):
        rng = np.random.default_rng(17)
        ds = random_dataset(rng, 5, 2, 3)
        p = random_params(rng, 2, 3)
        a = smooth_objective(p, ds, RegularizationConfig(0.1, 0.1, 0.0))
        b = smooth_objective(p, ds, RegularizationConfig(0.1, 0.1, 5.0))
        assert a == b

    def test_zero_params(self):
        rng = np.random.default_rng(18)
        ds = random_dataset(rng, 5, 4, 3)
        got = smooth_objective(ModelParams.zeros(4, 3), ds, RegularizationConfig(0.1, 0.1, 1.0))
        assert got == pytest.approx(4 * math.log(2), abs=1e-12)

    def test_recomposes_from_parts(self):
        rng = np.random.default_rng(19)
        ds = random_dataset(rng, 7, 3, 2)
        p = random_params(rng, 3, 2)
        reg = RegularizationConfig(0.2, 0.4, 1.0)
        expected = (
            neg_log_pseudo_likelihood(p, ds)
            + 0.2 * np.sum(p.beta ** 2)
            + 0.4 * sum(v * v for v in alpha_pairs(p).values())
        )
        assert smooth_objective(p, ds, reg) == pytest.approx(expected, abs=1e-12)


class TestFullObjective:
    @pytest.mark.parametrize("shape", [(3, 2), (2, 3)])
    def test_rejects_a_model_of_other_dimensions(self, shape):
        ds = random_dataset(np.random.default_rng(6), 5, 2, 2)
        with pytest.raises(DataError, match=r"^model dimensions \(\d labels, \d features\) "
                                            r"do not match dataset \(2 labels, 2 features\)$"):
            full_objective(ModelParams.zeros(*shape), ds, RegularizationConfig())

    def test_zero_params(self):
        rng = np.random.default_rng(20)
        ds = random_dataset(rng, 5, 2, 2)
        got = full_objective(ModelParams.zeros(2, 2), ds, RegularizationConfig(0.1, 0.1, 1.0))
        assert got == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_equals_smooth_plus_l1(self):
        rng = np.random.default_rng(21)
        ds = random_dataset(rng, 5, 3, 2)
        p = random_params(rng, 3, 2)
        reg = RegularizationConfig(0.05, 0.03, 2.0)
        expected = (
            smooth_objective(p, ds, reg)
            + 0.05 * 2.0 * np.sum(np.abs(p.beta))
            + 0.03 * 2.0 * sum(abs(v) for v in alpha_pairs(p).values())
        )
        assert full_objective(p, ds, reg) == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.01, 0.99))
    def test_convex_along_segments(self, seed, t):
        rng = np.random.default_rng(seed)
        m, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        ds = random_dataset(rng, int(rng.integers(2, 10)), m, d)
        reg = RegularizationConfig(0.1, 0.1, 1.0)
        pa = random_params(rng, m, d)
        pb = random_params(rng, m, d)
        pairs_a, pairs_b = alpha_pairs(pa), alpha_pairs(pb)
        keys = set(pairs_a) | set(pairs_b)
        mix_alpha = {
            k: t * pairs_a.get(k, 0.0) + (1 - t) * pairs_b.get(k, 0.0) for k in keys
        }
        mix = ModelParams(t * pa.beta + (1 - t) * pb.beta, mix_alpha, m, d)
        lhs = full_objective(mix, ds, reg)
        rhs = t * full_objective(pa, ds, reg) + (1 - t) * full_objective(pb, ds, reg)
        assert lhs <= rhs + 1e-10


class TestSmoothGradient:
    def test_tiny_explicit_case(self):
        # n=1, m=1, D=1, x=1, y=+1, beta=0, lambda1=0: xi = -1, grad = -1
        ds = MultilabelDataset(np.array([[1.0]]), np.array([[1]]), ("a",))
        grad = GradientBuffer(
            *smooth_gradient(ModelParams.zeros(1, 1), ds, RegularizationConfig(0.0, 0.0, 0.0)))
        assert grad.grad_beta[0, 0] == pytest.approx(-1.0, abs=1e-15)

    def test_zero_params_closed_form(self):
        # At zero, xi_li = -y_li, so grad_beta_i = -(1/n) sum_l y_li x_l and
        # grad_alpha_ij = -(2/n) sum_l y_li y_lj.
        rng = np.random.default_rng(33)
        ds = random_dataset(rng, 9, 3, 2)
        grad = GradientBuffer(
            *smooth_gradient(ModelParams.zeros(3, 2), ds, RegularizationConfig(0.0, 0.0, 0.0)))
        x_mat, y_mat = ds.feature_matrix, ds.label_matrix
        expected_beta = -(y_mat.T @ x_mat) / 9
        assert np.allclose(grad.grad_beta, expected_beta, atol=1e-14)
        for i in range(3):
            for j in range(i + 1, 3):
                expected = -2.0 * np.mean(y_mat[:, i] * y_mat[:, j])
                assert grad.alpha_pair(i, j) == pytest.approx(expected, abs=1e-14)

    def test_matches_finite_differences_random(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            m = int(rng.integers(1, 7))
            d = int(rng.integers(1, 9))
            n = int(rng.integers(1, 21))
            ds = random_dataset(rng, n, m, d)
            p = random_params(rng, m, d, density=0.6)
            reg = RegularizationConfig(float(rng.uniform(0, 0.5)), float(rng.uniform(0, 0.5)), 1.0)
            assert_gradient_matches_fd(p, ds, reg)

    @pytest.mark.parametrize("density", [0.0, 0.5, 1.0])
    def test_fused_value_is_the_smooth_value_bit_for_bit(self, density):
        rng = np.random.default_rng(66)
        for _ in range(10):
            m, d, n = int(rng.integers(1, 7)), int(rng.integers(1, 9)), int(rng.integers(1, 21))
            ds = random_dataset(rng, n, m, d)
            p = random_params(rng, m, d, density=density)
            reg = RegularizationConfig(float(rng.uniform(0, 0.5)), float(rng.uniform(0, 0.5)), 1.0)
            problem = Problem(reg, m, d, ds)
            theta = problem.pack(p.beta, p.alpha)
            value, act = smooth_value_dense(theta, problem)
            assert value == smooth_grad_dense(theta, problem, act)[0]

    def test_covers_pairs_with_zero_weight(self):
        rng = np.random.default_rng(55)
        ds = random_dataset(rng, 6, 4, 2)
        p = random_params(rng, 4, 2, density=0.0)  # empty alpha
        grad = GradientBuffer(*smooth_gradient(p, ds, RegularizationConfig(0.1, 0.1, 1.0)))
        assert grad.grad_alpha.shape == (4, 4)
        upper = grad.grad_alpha[np.triu_indices(4, 1)]
        assert np.any(upper != 0.0)

    def test_ilrs_consistency_per_label(self):
        # With alpha = 0 and lambda2 = 0 each row is the gradient of an
        # independent logistic regression with doubled margin.
        rng = np.random.default_rng(88)
        ds = random_dataset(rng, 12, 3, 4)
        beta = rng.normal(size=(3, 4))
        p = ModelParams(beta, {}, 3, 4)
        reg = RegularizationConfig(0.2, 0.0, 0.0)
        grad = GradientBuffer(*smooth_gradient(p, ds, reg))
        x_mat, y_mat = ds.feature_matrix, ds.label_matrix
        for i in range(3):
            acc = np.zeros(4)
            for l in range(12):
                margin = 2.0 * y_mat[l, i] * float(beta[i] @ x_mat[l])
                acc += -2.0 * y_mat[l, i] / (1.0 + math.exp(margin)) * x_mat[l]
            expected = acc / 12 + 2 * 0.2 * beta[i]
            assert np.allclose(grad.grad_beta[i], expected, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        # beyond |activation| ~ 18.4 the sigmoid saturates to exactly 0/1 in
        # float64 and the open bound closes; test the representable range
        st.floats(-18, 18, allow_nan=False),
        st.sampled_from([-1.0, 1.0]),
    )
    def test_xi_range(self, activation, y):
        xi = -2.0 * y * sigmoid(-2.0 * y * activation)
        if y > 0:
            assert -2.0 < xi < 0.0
        else:
            assert 0.0 < xi < 2.0

    def test_empty_dataset_errors(self):
        with pytest.raises(DataError):
            MultilabelDataset(np.zeros((0, 1)), np.zeros((0, 1)), ("a",))


class TestSharedExp:
    """Each loss term and its slope are built from one exp(-|z|)."""

    EXTREMES = (0.0, -0.0, 1e-20, -1e-20, 1.0, -1.0, 30.0, -30.0, 800.0, -800.0,
                np.inf, -np.inf)
    # Fixed from float64 before measuring: each softplus term, by either
    # formula, is within a few ulp of the exact value, and the row sums and the
    # mean of nonnegative terms keep that relative bound up to a few ulp per
    # summed term; the arrays below have at most 7 terms per row.
    LOSS_RTOL = 64 * np.finfo(float).eps

    def grids(self):
        rng = np.random.default_rng(404)
        yield from (np.array([[v]]) for v in self.EXTREMES)
        yield np.array([[v for v in self.EXTREMES if np.isfinite(v)]])
        for scale in (1e-3, 1.0, 10.0, 300.0):
            yield rng.normal(scale=scale, size=(20, 7))

    def test_mean_loss_matches_logaddexp(self):
        for z in self.grids():
            expected = float(np.logaddexp(0.0, z).sum(axis=1).mean())
            got = _mean_loss(z)
            assert got == _mean_loss(z, np.exp(-np.abs(z)))
            if np.isinf(expected):
                assert got == expected
            else:
                assert abs(got - expected) <= self.LOSS_RTOL * abs(expected), z

    def test_mean_loss_propagates_nan(self):
        for z in (np.array([[np.nan]]), np.array([[1.0, np.nan], [-800.0, 800.0]])):
            assert math.isnan(_mean_loss(z))
            with np.errstate(invalid="ignore"):
                assert math.isnan(float(np.logaddexp(0.0, z).sum(axis=1).mean()))

    def test_slope_is_model_sigmoid_bit_for_bit(self):
        for z in self.grids():
            assert np.array_equal(_slope(z, np.exp(-np.abs(z))), sigmoid(z))
        z = np.array([np.nan, -np.nan])
        assert np.isnan(_slope(z, np.exp(-np.abs(z)))).all()

    def test_trainer_gradient_uses_model_sigmoid_bit_for_bit(self):
        rng = np.random.default_rng(67)
        for scale in (0.1, 1.0, 100.0):  # margins from near 0 to saturated
            m, d, n = 4, 5, 15
            ds = random_dataset(rng, n, m, d)
            p = random_params(rng, m, d, alpha_scale=scale)
            beta, upper = p.beta * scale, np.triu(p.alpha, 1)
            reg = RegularizationConfig(0.1, 0.2, 1.0)
            x_mat, y_mat = ds.feature_matrix, ds.label_matrix
            problem = Problem(reg, m, d, ds)
            theta = problem.pack(beta, upper)
            act = activations(theta, problem)
            grad_beta, grad_alpha = problem.unpack(smooth_grad_dense(theta, problem, act)[1])
            xi = -2.0 * y_mat / n * sigmoid(problem.neg2y * act)
            pair = xi.T @ y_mat
            assert np.array_equal(grad_beta, xi.T @ x_mat + 2.0 * reg.lambda1 * beta)
            # both slots of a pair hold its gradient, and the diagonal holds +0.0
            want = np.where(np.eye(m, dtype=bool), 0.0, pair + pair.T)
            assert np.array_equal(grad_alpha, want + 2.0 * reg.lambda2 * (upper + upper.T))


class TestSurrogate:
    def test_equals_full_objective_at_anchor(self):
        rng = np.random.default_rng(101)
        ds = random_dataset(rng, 6, 3, 2)
        p = random_params(rng, 3, 2)
        reg = RegularizationConfig(0.1, 0.1, 1.0)
        grad = GradientBuffer(*smooth_gradient(p, ds, reg))
        j = surrogate_objective(p, p, grad, eta=0.1, dataset=ds, reg=reg)
        assert j == pytest.approx(full_objective(p, ds, reg), abs=1e-12)

    def test_majorizes_with_small_eta(self):
        rng = np.random.default_rng(102)
        ds = random_dataset(rng, 6, 3, 2)
        anchor = random_params(rng, 3, 2)
        reg = RegularizationConfig(0.1, 0.1, 1.0)
        grad = GradientBuffer(*smooth_gradient(anchor, ds, reg))
        eta = 1e-3  # far below any step that could violate the quadratic bound
        for _ in range(10):
            cand = random_params(rng, 3, 2)
            j = surrogate_objective(cand, anchor, grad, eta, ds, reg)
            assert j >= full_objective(cand, ds, reg) - 1e-10
