import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corrlog.optimizer
from corrlog.errors import DataError, NumericError
from corrlog.model import ModelParams, MultilabelDataset
from corrlog.objective import (
    Problem,
    RegularizationConfig,
    activations,
    full_objective,
    smooth_grad_dense,
    smooth_gradient,
)
from corrlog.optimizer import (
    INITIAL_STEP,
    TrainConfig,
    soft_threshold,
    subgradient_residual,
    train_corrlog,
    train_ilrs,
)

from conftest import (
    GradientBuffer,
    alpha_pairs,
    lipschitz_bound,
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
        for t in (-0.1, np.nan):
            with pytest.raises(DataError):
                soft_threshold(1.0, t)

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

    def test_one_nan_threshold_element_is_rejected(self):
        t = np.full(5, 0.3)
        t[3] = np.nan
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
        eta = 1.0 / lipschitz_bound(ds, reg)
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


class TestJacobiMetric:
    def test_metric_is_the_curvature_at_zero(self):
        # a bias column and an all-zero feature column, whose metric is 2 * lambda1 alone
        rng = np.random.default_rng(41)
        x = np.column_stack([rng.normal(size=(30, 3)) * [1.0, 0.1, 0.01],
                             np.zeros(30), np.ones(30)])
        ds = MultilabelDataset(x, rng.choice([-1, 1], size=(30, 4)), ("a", "b", "c", "d"))
        reg = RegularizationConfig(0.01, 0.02, 1.0)
        problem = Problem(reg, 4, 5, ds)
        h = problem.jacobi_metric()
        live = np.concatenate([np.ones(20, bool), np.triu(np.ones((4, 4), bool), 1).ravel()])
        mirror = np.concatenate([np.arange(20), 20 + np.arange(16).reshape(4, 4).T.ravel()])
        delta, central = 1e-4, []
        for k in np.flatnonzero(live):
            e = np.zeros_like(h)
            e[[k, mirror[k]]] = delta  # a pair moves in both of its slots
            plus, minus = (smooth_grad_dense(v, problem, activations(v, problem))[1]
                           for v in (e, -e))
            central.append((plus[k] - minus[k]) / (2 * delta))
        assert np.allclose(h[live], central, rtol=1e-6, atol=0.0)
        assert np.all(h[3:20:5] == 2 * reg.lambda1)  # the zero column
        assert np.all(h[20:] == 2 + 2 * reg.lambda2)  # every slot of the pair block
        params, _ = train_corrlog(ds, TrainConfig(reg=reg))
        assert params.beta[:, 3].tobytes() == np.zeros(4).tobytes()

    @pytest.mark.parametrize("trainer", [train_corrlog, train_ilrs])
    def test_a_feature_whose_square_overflows_is_refused(self, trainer):
        # x^2 overflows in feature 1 and 2 only: the metric there would be inf, every beta
        # step eta / inf = 0, and the unchanged objective would read as convergence
        rng = np.random.default_rng(43)
        x = rng.normal(size=(40, 3)) * [1.0, 1e160, 1e160]
        ds = MultilabelDataset(x, rng.choice([-1, 1], size=(40, 2)), ("a", "b"))
        with pytest.raises(NumericError, match="^feature 1 has a mean square that overflows"):
            trainer(ds, TrainConfig())

    @pytest.mark.parametrize("seed", range(4))
    def test_default_fit_stops_near_the_optimum(self, seed):
        # feature columns spanning 100x in scale, normalized to unit max row norm, plus a bias
        rng = np.random.default_rng(seed)
        scales = np.logspace(0.0, -2.0, 20)
        x = rng.normal(size=(150, 20)) * scales
        score = x @ (rng.normal(size=(6, 20)) / scales).T + rng.normal(size=(150, 6))
        y = np.where(score >= 0, 1, -1)
        x = np.column_stack([x / np.sqrt((x * x).sum(axis=1)).max(), np.ones(150)])
        ds = MultilabelDataset(x, y, tuple(f"label{i + 1}" for i in range(6)))
        reg = RegularizationConfig(1e-3, 1e-3, 1.0)
        _, trace = train_corrlog(ds, TrainConfig(reg=reg))
        _, tight = train_corrlog(ds, TrainConfig(reg=reg, max_iters=100000, rel_tol=1e-15))
        f, f_star = trace.objectives()[-1], tight.objectives()[-1]
        assert f - f_star <= 1e-5 * max(1.0, f)


class TestPassCount:
    """Each attempted step makes one gradient pass at its anchor, which is handed the
    anchor's activations, and one value pass, the only forward product, per candidate;
    only the zero start asks for the full objective.  An attempt tries twice the last
    eta only after a step whose curvature in the metric h,
    rho = (smooth_new - smooth_z - <g, d>) / (sum(h d^2) / 2), has rho * eta <= 1/2 (the
    first attempt always does), else the last eta; then it halves.  So over a run the
    value passes are attempts + growing attempts - log2(final eta / INITIAL_STEP)."""

    @pytest.fixture
    def log(self, monkeypatch):
        """Every pass in call order: ("grad", z, act, smooth_z, g, problem),
        ("value", cand, smooth_new) or ("full",)."""
        entries = []
        grad_pass, value_pass, full_pass = (getattr(corrlog.optimizer, name) for name in
                                            ("smooth_grad_dense", "smooth_value_dense",
                                             "full_value_dense"))

        def grad(theta, problem, act):
            value, g = grad_pass(theta, problem, act)
            # a copy: the trainer may reuse the buffer of A_{k-1} for a later momentum point
            entries.append(("grad", theta, act.copy(), value, g, problem))
            return value, g

        def value(theta, problem):
            out = value_pass(theta, problem)
            entries.append(("value", theta, out[0]))
            return out

        def full(theta, problem, act):
            entries.append(("full",))
            return full_pass(theta, problem, act)

        for name, fn in (("smooth_grad_dense", grad), ("smooth_value_dense", value),
                         ("full_value_dense", full)):
            monkeypatch.setattr(corrlog.optimizer, name, fn)
        return entries

    @staticmethod
    def replay(log):
        """Replays the step rule over the logged passes.

        Returns each attempt's (anchor, value entries, accepted eta) and the number
        of attempts that tried twice the last eta.
        """
        assert log[0] == ("full",) and all(entry[0] != "full" for entry in log[1:])
        attempts = []
        for entry in log[1:]:
            if entry[0] == "grad":
                attempts.append((entry, []))
            else:
                attempts[-1][1].append(entry)
        eta, grow, grown, replayed = INITIAL_STEP, True, 0, []
        for (_, z, _, smooth_z, g, problem), trials in attempts:
            assert trials  # each attempt makes at least one value pass
            grown += grow
            eta = eta * 2.0 ** (grow - (len(trials) - 1))
            # sums over theta weighted as the trainer's: a pair's two alpha slots count once
            d = trials[-1][1] - z
            sq = float(d @ (problem.jacobi_metric() * problem.weight * d))
            excess = trials[-1][2] - smooth_z - float((g * problem.weight) @ d)
            grow = sq == 0.0 or excess / (0.5 * sq) * eta <= 0.5
            replayed.append((z, trials, eta))
        return replayed, grown

    def check_accounting(self, log, trace):
        attempts, grown = self.replay(log)
        assert trace.iterations < len(attempts) <= 2 * trace.iterations  # restarts happened
        assert 1 < grown < len(attempts)  # the gate both allowed and withheld growth
        values = sum(len(trials) for _, trials, _ in attempts)
        doublings = math.log2(trace.records[-1].step_size / INITIAL_STEP)
        assert doublings == round(doublings)  # every step is INITIAL_STEP * 2^k
        assert values == len(attempts) + grown - round(doublings)
        assert values > len(attempts)  # some attempts backtracked
        # an iteration ends at an attempt whose successor is not a restart, which
        # retakes the step from the current point: a candidate the log holds
        cands = [entry[1] for _, trials, _ in attempts for entry in trials]
        restart = [any(z is c for c in cands) for z, _, _ in attempts]
        ends = [eta for (_, _, eta), nxt in zip(attempts, restart[1:] + [False]) if not nxt]
        assert ends == [r.step_size for r in trace.records]

    def test_momentum_pass_count_follows_the_curvature_gate(self, log):
        rng = np.random.default_rng(22)
        ds = random_dataset(rng, 30, 4, 5)
        reg = RegularizationConfig(0.01, 0.01, 1.0)
        _, trace = train_corrlog(ds, TrainConfig(reg=reg, max_iters=20, rel_tol=1e-15))
        assert trace.iterations == 20 and not trace.converged
        self.check_accounting(log, trace)

    def test_ilrs_takes_the_same_momentum_steps(self, log):
        rng = np.random.default_rng(22)
        ds = random_dataset(rng, 60, 4, 8)  # independent fits stop sooner
        reg = RegularizationConfig(1e-3, 1e-3, 1.0)
        _, trace = train_ilrs(ds, TrainConfig(reg=reg, max_iters=20, rel_tol=1e-15))
        assert trace.iterations == 20 and not trace.converged
        self.check_accounting(log, trace)

    @pytest.mark.parametrize("trainer", [train_corrlog, train_ilrs])
    def test_gradient_passes_get_the_activations_of_their_point(self, log, trainer):
        # A_k is the accepted candidate's own product, reused bit for bit by a restart;
        # the momentum point's A_k + omega (A_k - A_{k-1}) rounds off the product by ulps
        ds = random_dataset(np.random.default_rng(22), 30, 4, 5)
        reg = RegularizationConfig(0.01, 0.01, 1.0)
        trainer(ds, TrainConfig(reg=reg, max_iters=5000, rel_tol=1e-12))
        grads = [entry for entry in log if entry[0] == "grad"]
        cands = [entry[1] for entry in log if entry[0] == "value"]
        (_, start, start_act, *_), exact, extrapolated = grads[0], 0, []
        assert not start.any() and not start_act.any()  # the zero start has A = 0
        for _, z, act, _, _, problem in grads[1:]:
            want = activations(z, problem)
            if any(z is c for c in cands):
                assert act.tobytes() == want.tobytes()
                exact += 1
            else:
                extrapolated.append(float(np.abs(act - want).max() / np.abs(want).max()))
        assert exact > 0 and len(extrapolated) > 10
        assert max(extrapolated) <= 1e-12  # the last one at the stop included


class TestStopRule:
    """Training stops at the first accepted step whose objective moved by less than
    rel_tol * max(1, |f|), and only that stop, or a rejected step inside the same
    test, sets ``converged``."""

    @pytest.mark.parametrize("trainer", [train_corrlog, train_ilrs])
    def test_stops_at_the_first_step_inside_the_tolerance(self, trainer):
        ds = random_dataset(np.random.default_rng(23), 30, 4, 5)
        reg = RegularizationConfig(0.01, 0.01, 1.0)
        for rel_tol in (1e-3, 1e-6, 1e-9):
            _, trace = trainer(ds, TrainConfig(reg=reg, max_iters=5000, rel_tol=rel_tol))
            f = trace.objectives()
            inside = [abs(b - a) < rel_tol * max(1.0, abs(a)) for a, b in zip(f, f[1:])]
            assert len(inside) > 1 and not any(inside[:-1]), rel_tol
            assert inside[-1] and trace.converged, rel_tol

    @pytest.mark.parametrize("trainer", [train_corrlog, train_ilrs])
    def test_a_cap_reached_outside_the_tolerance_is_not_converged(self, trainer):
        ds = random_dataset(np.random.default_rng(23), 30, 4, 5)
        reg = RegularizationConfig(0.01, 0.01, 1.0)
        _, trace = trainer(ds, TrainConfig(reg=reg, max_iters=4, rel_tol=1e-9))
        assert trace.iterations == 4 and not trace.converged


    @pytest.mark.parametrize("trainer,seed", [(train_corrlog, 22), (train_ilrs, 21)])
    def test_a_step_without_descent_stops_untaken(self, trainer, seed):
        # each fit stagnates at float level after 19 to 25 iterations, where the next step
        # raises the objective: no nonzero change meets this tolerance, so only the
        # no-descent stop ends the run.  (A step that leaves the objective exactly unchanged
        # would meet it; TestPassCount's data, seed 22, ends the ILR fit that way.)
        ds = random_dataset(np.random.default_rng(seed), 30, 4, 5)
        reg = RegularizationConfig(0.01, 0.01, 1.0)
        params, trace = trainer(ds, TrainConfig(reg=reg, max_iters=5000, rel_tol=1e-300))
        assert np.all(np.diff(trace.objectives()) <= 0.0)
        assert trace.iterations < 5000 and not trace.converged
        assert trace.records[-1].objective == full_objective(params, ds, reg)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_a_non_finite_objective_is_refused(self, monkeypatch, bad):
        value_pass = corrlog.optimizer.smooth_value_dense
        monkeypatch.setattr(corrlog.optimizer, "smooth_value_dense",
                            lambda theta, problem: (bad, value_pass(theta, problem)[1]))
        ds = random_dataset(np.random.default_rng(22), 30, 4, 5)
        with pytest.raises(NumericError, match="^objective became non-finite at iteration 0$"):
            train_corrlog(ds, TrainConfig())


class TestTrainConfig:
    def test_fields_are_regularization_cap_and_tolerance(self):
        assert [f.name for f in dataclasses.fields(TrainConfig)] == ["reg", "max_iters", "rel_tol"]
        with pytest.raises(TypeError):
            TrainConfig(accelerate=False)

    @pytest.mark.parametrize("max_iters", [0, -1])
    def test_max_iters_must_be_positive(self, max_iters):
        with pytest.raises(DataError, match="^max_iters must be positive$"):
            TrainConfig(max_iters=max_iters)


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

    def test_final_trace_objective_is_full_objective_bit_for_bit(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            ds = random_dataset(rng, 25, 3, 4)
            reg = RegularizationConfig(0.02, 0.01, 1.0)
            params, trace = train_corrlog(ds, TrainConfig(reg=reg, max_iters=300))
            assert trace.records[-1].objective == full_objective(params, ds, reg)

    def test_step_grows_past_its_start(self):
        # the metric is the curvature at zero only, so eta may grow past the
        # plain Jacobi step 2 * INITIAL_STEP where the loss flattens
        rng = np.random.default_rng(31)
        ds = random_dataset(rng, 40, 8, 3)
        reg = RegularizationConfig(0.01, 0.01, 1.0)
        _, trace = train_corrlog(ds, TrainConfig(reg=reg, max_iters=200))
        steps = [r.step_size for r in trace.records]
        assert max(steps) > 2 * INITIAL_STEP
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

    def test_has_no_pair_coordinates(self):
        ds = random_dataset(np.random.default_rng(18), 40, 4, 5)
        config = TrainConfig(reg=RegularizationConfig(0.01, 0.01, 1.0))
        params, trace = train_ilrs(ds, config)
        assert len(trace.records) > 5 and all(r.nnz_alpha == 0 for r in trace.records)
        assert params.alpha.tobytes() == np.zeros((4, 4)).tobytes()  # every entry +0.0

    def test_lambda2_zero_still_trains_and_plays_no_role(self):
        ds = random_dataset(np.random.default_rng(19), 40, 3, 4)
        params, _ = train_ilrs(ds, TrainConfig(reg=RegularizationConfig(0.05, 0.0, 1.0)))
        assert params.nnz_beta() > 0
        # without a pair block lambda2 enters neither the objective nor the metric
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
        from corrlog.inference import sample_from_model

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
