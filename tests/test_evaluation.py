import json
import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

from corrlog import inference
from corrlog.data import ToySpec, add_bias_column, generate_toy
from corrlog.errors import DataError
from corrlog.evaluation import (
    CvResult,
    compare_cv,
    cross_validate,
    fold_indices,
    paired_t_test,
    params_distance,
    predict_dataset,
    regularized_incomplete_beta,
    stability_experiment,
)
from corrlog.metrics import METRIC_NAMES
from corrlog.model import ModelParams
from corrlog.objective import RegularizationConfig
from corrlog.optimizer import TrainConfig, train_corrlog

from conftest import random_dataset, random_params, reference_predict_map_bp


def toy_config(epsilon=0.0, rel_tol=1e-8, max_iters=20000):
    return TrainConfig(
        reg=RegularizationConfig(0.001, 0.001, epsilon),
        rel_tol=rel_tol,
        max_iters=max_iters,
    )


class TestIncompleteBeta:
    def test_against_scipy_grid(self):
        for a in (0.5, 1.0, 2.5, 7.0):
            for b in (0.5, 1.0, 3.0):
                for x in (0.0, 0.01, 0.3, 0.5, 0.77, 0.99, 1.0):
                    got = regularized_incomplete_beta(a, b, x)
                    want = float(scipy.special.betainc(a, b, x))
                    assert got == pytest.approx(want, abs=1e-12), (a, b, x)


class TestPairedTTest:
    def test_identical_vectors_degenerate_p_one(self):
        r = paired_t_test([0.1, 0.2, 0.3], [0.1, 0.2, 0.3])
        assert r.degenerate
        assert r.p_value == 1.0
        assert r.t_statistic == 0.0

    def test_constant_shift_degenerate(self):
        r = paired_t_test([1, 2, 3, 4, 5], [0, 1, 2, 3, 4])
        assert r.degenerate
        assert r.p_value == 0.0
        assert math.isinf(r.t_statistic)

    def test_textbook_hand_computation(self):
        # d = (-0.2, 0.1, -0.1): t = -2/sqrt(7), two-sided p = 1 - sqrt(2)/3
        r = paired_t_test([0.1, 0.2, 0.3], [0.3, 0.1, 0.4])
        assert not r.degenerate
        assert r.dof == 2
        assert r.t_statistic == pytest.approx(-2 / math.sqrt(7), abs=1e-12)
        assert r.t_statistic == pytest.approx(-0.7559289460, abs=1e-9)
        assert r.p_value == pytest.approx(1 - math.sqrt(2) / 3, abs=1e-12)
        assert r.p_value == pytest.approx(0.5285954792, abs=1e-9)

    def test_matches_scipy_on_random_inputs(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            k = int(rng.integers(2, 12))
            a = rng.normal(size=k)
            b = rng.normal(size=k)
            got = paired_t_test(a, b)
            want = scipy.stats.ttest_rel(a, b)
            assert got.t_statistic == pytest.approx(want.statistic, abs=1e-10)
            assert got.p_value == pytest.approx(want.pvalue, abs=1e-10)

    def test_rejects_short_or_mismatched(self):
        with pytest.raises(DataError):
            paired_t_test([1.0], [2.0])
        with pytest.raises(DataError):
            paired_t_test([1.0, 2.0], [1.0, 2.0, 3.0])


class TestFoldAssignment:
    def test_partition_disjoint_and_covering(self):
        folds = fold_indices(23, 5, seed=3)
        all_idx = np.concatenate(folds)
        assert sorted(all_idx) == list(range(23))
        assert len(folds) == 5

    def test_leave_one_out(self):
        folds = fold_indices(10, 10, seed=0)
        assert len(folds) == 10
        assert all(len(f) == 1 for f in folds)

    def test_deterministic_per_seed(self):
        a = fold_indices(40, 5, seed=9)
        b = fold_indices(40, 5, seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_rejects_bad_sizes(self):
        with pytest.raises(DataError):
            fold_indices(3, 5, seed=0)
        with pytest.raises(DataError):
            fold_indices(10, 1, seed=0)


@pytest.fixture(scope="module")
def toy_train():
    train, _ = generate_toy(ToySpec(n_train=200, n_test=1, seed=5))
    return add_bias_column(train)


class TestCrossValidate:
    def test_same_seed_identical_result(self, toy_train):
        a = cross_validate(toy_train, 4, "ilrs", toy_config(), seed=2)
        b = cross_validate(toy_train, 4, "ilrs", toy_config(), seed=2)
        assert a.means == b.means
        assert a.stds == b.stds

    def test_corrlog_beats_ilrs_zero_one_on_toy(self, toy_train):
        corr = cross_validate(toy_train, 5, "corrlog", toy_config(), seed=1)
        ilrs = cross_validate(toy_train, 5, "ilrs", toy_config(), seed=1)
        assert corr.means["zero_one_loss"] < ilrs.means["zero_one_loss"]

    def test_json_schema(self, toy_train):
        result = cross_validate(toy_train, 4, "ilrs", toy_config(), seed=0)
        doc = json.loads(result.to_json())
        assert set(doc) == set(METRIC_NAMES)
        for entry in doc.values():
            assert set(entry) == {"mean", "std", "per_fold"}
            assert len(entry["per_fold"]) == 4

    def test_compare_attaches_ttests(self, toy_train):
        corr = cross_validate(toy_train, 4, "corrlog", toy_config(), seed=1)
        ilrs = cross_validate(toy_train, 4, "ilrs", toy_config(), seed=1)
        compared = compare_cv(corr, ilrs)
        assert compared.ttests is not None
        assert set(compared.ttests) == set(METRIC_NAMES)
        text = compared.to_text()
        assert "t=" in text and "p=" in text
        doc = json.loads(compared.to_json())
        assert "t_test" in doc["zero_one_loss"]

    def test_unknown_trainer_rejected(self, toy_train):
        with pytest.raises(DataError):
            cross_validate(toy_train, 4, "nope", toy_config(), seed=0)


class TestPredictDataset:
    def test_shapes_and_flags(self):
        rng = np.random.default_rng(0)
        ds = random_dataset(rng, 12, 3, 2)
        params = ModelParams.zeros(3, 2)
        preds, flagged = predict_dataset(params, ds)
        assert preds.shape == (12, 3)
        assert flagged == []
        assert np.all(preds == 1)

    @pytest.mark.parametrize("rows_per_chunk", [1, 7, 25])
    def test_chunks_match_reference(self, monkeypatch, rows_per_chunk):
        rng = np.random.default_rng(44)
        params = random_params(rng, 5, 3, alpha_scale=1.0, density=0.8)
        ds = random_dataset(rng, 25, 5, 3)
        # 4 floats per directed edge, 2 directed edges per pair
        monkeypatch.setattr(inference, "DECODE_CHUNK_FLOATS",
                            8 * params.nnz_alpha() * rows_per_chunk)
        reference = [reference_predict_map_bp(params, x) for x in ds.features]
        preds, flagged = predict_dataset(params, ds)
        assert np.array_equal(preds, np.array([labels for labels, _ in reference]))
        assert flagged == [i for i, (_, state) in enumerate(reference) if not state.converged]
        # non-converged rows sit in the first and in later chunks
        assert min(flagged) < 7 and max(flagged) >= 14
        assert all(type(i) is int for i in flagged)

    def test_edge_free_model_is_sign_rule(self, monkeypatch):
        monkeypatch.setattr(inference, "DECODE_CHUNK_FLOATS", 4)
        rng = np.random.default_rng(45)
        beta = rng.normal(size=(4, 3))
        beta[2] = 0.0  # label 3 scores exactly zero on every row
        params = ModelParams(beta, {(0, 1): 0.0}, 4, 3)
        ds = random_dataset(rng, 10, 4, 3)
        preds, flagged = predict_dataset(params, ds)
        unary = np.array([beta @ x for x in ds.features])
        assert np.array_equal(preds, np.where(unary >= 0, 1, -1))
        assert np.all(preds[:, 2] == 1)
        assert flagged == []


class TestStability:
    def test_distance_zero_for_identical_models(self):
        rng = np.random.default_rng(1)
        ds = random_dataset(rng, 30, 2, 3)
        config = TrainConfig(reg=RegularizationConfig(0.01, 0.01, 1.0))
        a, _ = train_corrlog(ds, config)
        b, _ = train_corrlog(ds, config)
        assert params_distance(a, b) == 0.0

    def test_self_replacement_moves_nothing(self):
        # swapping an instance for an identical copy leaves a deterministic
        # trainer at the exact same model
        from corrlog.model import MultilabelDataset

        rng = np.random.default_rng(2)
        ds = random_dataset(rng, 8, 2, 2)
        config = TrainConfig(reg=RegularizationConfig(0.05, 0.05, 1.0), rel_tol=1e-10)
        base, _ = train_corrlog(ds, config)
        features, labels = ds.features.copy(), ds.labels.copy()
        features[3], labels[3] = ds.features[3].copy(), ds.labels[3].copy()
        swapped = MultilabelDataset(features, labels, ds.label_names)
        retrained, _ = train_corrlog(swapped, config)
        assert params_distance(base, retrained) == 0.0

    def test_pool_trials_record_indices(self):
        rng = np.random.default_rng(2)
        ds = random_dataset(rng, 8, 2, 2)
        config = TrainConfig(reg=RegularizationConfig(0.05, 0.05, 1.0), rel_tol=1e-10)
        report = stability_experiment(ds, config, trials=12, seed=3, pool=ds)
        assert len(report.replaced_indices) == 12
        assert min(report.diffs) >= 0.0

    def test_bound_holds_on_small_problem(self):
        train, pool = generate_toy(ToySpec(n_train=80, n_test=40, seed=9))
        train = add_bias_column(train)
        pool = add_bias_column(pool)
        config = toy_config(rel_tol=1e-9, max_iters=50000)
        report = stability_experiment(train, config, trials=3, seed=0, pool=pool)
        assert report.bound == pytest.approx(16.0 / (0.001 * 80))
        assert report.all_within_bound
        assert report.rel_tol == 1e-9

    def test_bound_halves_when_n_doubles(self):
        train_a, pool = generate_toy(ToySpec(n_train=40, n_test=20, seed=11))
        train_b, _ = generate_toy(ToySpec(n_train=80, n_test=20, seed=11))
        config = toy_config(rel_tol=1e-6, max_iters=3000)
        ra = stability_experiment(train_a, config, trials=1, seed=0, pool=pool)
        rb = stability_experiment(train_b, config, trials=1, seed=0, pool=pool)
        assert ra.bound == pytest.approx(2 * rb.bound)

    def test_requires_pool(self):
        rng = np.random.default_rng(4)
        ds = random_dataset(rng, 10, 2, 2)
        with pytest.raises(DataError):
            stability_experiment(ds, toy_config(), trials=2, seed=0, pool=None)

    def test_report_serialization(self):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, 10, 2, 2)
        config = TrainConfig(reg=RegularizationConfig(0.1, 0.1, 1.0))
        report = stability_experiment(ds, config, trials=2, seed=0, pool=ds)
        doc = json.loads(report.to_json())
        assert {"bound", "diffs", "max_diff", "mean_diff", "rel_tol",
                "all_within_bound", "n", "min_lambda", "trials"} <= set(doc)
        assert "bound" in report.to_text()
