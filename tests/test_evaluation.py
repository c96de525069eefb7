import json
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.special
import scipy.stats

from corrlog import inference
from corrlog.data import (
    DatasetSpec,
    ToySpec,
    add_bias_column,
    compute_feature_scale,
    generate_toy,
    load_dataset,
    sample_from_model,
)
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
from corrlog.metrics import METRIC_NAMES, MetricsReport
from corrlog.inference import map_bruteforce
from corrlog.model import CsrRows, ModelParams, MultilabelDataset
from corrlog.objective import RegularizationConfig
from corrlog.optimizer import TrainConfig, train_corrlog
from corrlog.serialize import dump_json

from conftest import random_dataset, random_params


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

    @pytest.mark.parametrize("a, b, x", [(0.0, 1.0, 0.5), (1.0, -1.0, 0.5), (math.nan, 1.0, 0.5),
                                         (1.0, math.nan, 0.5), (1.0, 1.0, math.nan)])
    def test_rejects_bad_shape_or_nan(self, a, b, x):
        with pytest.raises(DataError):
            regularized_incomplete_beta(a, b, x)

    # the bits the cv JSON records, where scipy agrees only to 1e-12: both branches of
    # the symmetry switch, I_x(a, b) in rows of x = 0.1, 0.45, 0.8, 0.99
    PINNED = {
        (0.5, 0.5): ["0x1.a37f5c4c419e9p-3", "0x1.df59ba2933079p-2",
                     "0x1.68dfd7131067ep-1", "0x1.df59ba2933082p-1"],
        (0.5, 3.0): ["0x1.1bf27e094d342p-1", "0x1.dcdf6fe57a423p-1",
                     "0x1.fe9c4ff0d0a7bp-1", "0x1.fffff57984aeap-1"],
        (2.0, 0.5): ["0x1.fce45348cef02p-9", "0x1.76d926b911566p-4",
                     "0x1.7edfe518ce638p-2", "0x1.b374bc6a7ef9dp-1"],
        (2.0, 3.0): ["0x1.ac710cb295e9cp-5", "0x1.37d14e3bcd35cp-1",
                     "0x1.f212d77318fc5p-1", "0x1.ffff7ac9f5acfp-1"],
        (7.5, 0.5): ["0x1.cd20a9fa0db4bp-28", "0x1.57a47f82b03e5p-11",
                     "0x1.266b388846d90p-4", "0x1.67b6311a15aa0p-1"],
        (7.5, 3.0): ["0x1.1cf445d7267afp-20", "0x1.2f3c9055cc0bdp-5",
                     "0x1.6a8b7f9dc9702p-1", "0x1.fff3669f9ff03p-1"],
    }

    @pytest.mark.parametrize("a, b", list(PINNED))
    def test_pinned_bits(self, a, b):
        got = [regularized_incomplete_beta(a, b, x).hex() for x in (0.1, 0.45, 0.8, 0.99)]
        assert got == self.PINNED[a, b]


class TestPairedTTest:
    def test_pinned_bits(self):
        # (k, p-value, t statistic) of seeded score pairs, bit for bit
        pinned = [
            (2, "0x1.5b340c97f3c86p-1", "-0x1.1b6f3a3264897p-1"),
            (3, "0x1.ff5246c2d6ef7p-5", "-0x1.e809641db24abp+1"),
            (5, "0x1.9391d819f36e3p-1", "0x1.26181d60e2f70p-2"),
            (5, "0x1.961464114ee7fp-5", "-0x1.64772a74afde3p+1"),
            (10, "0x1.1888e0c88445cp-1", "-0x1.3fa5ee06d158ep-1"),
            (30, "0x1.23a21c7467644p-6", "-0x1.419c1cf390d89p+1"),
        ]
        rng = np.random.default_rng(2024)
        for k, p_value, t_statistic in pinned:
            a = rng.normal(size=k)
            r = paired_t_test(a, a + rng.normal(0.1, 0.2, size=k))
            assert (r.p_value.hex(), r.t_statistic.hex()) == (p_value, t_statistic), k

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
        with pytest.raises(DataError, match="finite"):
            paired_t_test([0.1, math.nan, 0.3], [0.3, 0.1, 0.4])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_a_score_that_is_not_finite(self, bad):
        # at inf the differences are inf or NaN, and the statistic was NaN, not a refusal
        with pytest.raises(DataError, match="finite"):
            paired_t_test([0.1, 0.2, 0.3], [0.3, bad, 0.4])


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


def test_every_seeded_generator_refuses_a_negative_seed():
    ds = random_dataset(np.random.default_rng(0), 6, 2, 2)
    calls = [lambda: fold_indices(10, 2, seed=-1), lambda: ToySpec(seed=-1),
             lambda: sample_from_model(ModelParams.zeros(2, 2), 5, seed=-1),
             lambda: stability_experiment(ds, toy_config(), trials=1, seed=-1, pool=ds)]
    for call in calls:
        with pytest.raises(DataError, match="seed must be nonnegative, got -1"):
            call()


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
        doc = result.as_dict()
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
        doc = compared.as_dict()
        assert "t_test" in doc["zero_one_loss"]

    def test_compare_refuses_different_fold_counts(self):
        four, five = (CvResult("corrlog", k, 0, [], {}, {}) for k in (4, 5))
        with pytest.raises(DataError, match="^cannot pair fold scores across different fold"):
            compare_cv(four, five)

    def test_constant_shift_writes_standard_json(self):
        # every metric sits 0.2 above the baseline on every fold: t is infinite
        def fixed(values, trainer):
            folds = [MetricsReport(**dict.fromkeys(METRIC_NAMES, v), n_eval=10) for v in values]
            means = dict.fromkeys(METRIC_NAMES, float(np.mean(values)))
            stds = dict.fromkeys(METRIC_NAMES, float(np.std(values, ddof=1)))
            return CvResult(trainer, len(values), 0, folds, means, stds)

        compared = compare_cv(fixed([0.3, 0.5, 0.7], "corrlog"), fixed([0.1, 0.3, 0.5], "ilrs"))
        assert all(tt.t_statistic == math.inf for tt in compared.ttests.values())

        def refuse(token):
            raise AssertionError(f"non-standard JSON token {token}")

        doc = json.loads(dump_json(compared.as_dict()), parse_constant=refuse)
        for name in METRIC_NAMES:
            assert doc[name]["t_test"] == {"t_statistic": None, "p_value": 0.0, "dof": 2,
                                           "degenerate": True}
        assert compared.to_text().count("t=+inf p=0.0000 (degenerate)") == len(METRIC_NAMES)

    def test_unknown_trainer_rejected(self, toy_train):
        with pytest.raises(DataError):
            cross_validate(toy_train, 4, "nope", toy_config(), seed=0)


class TestPredictDataset:
    def test_shapes(self):
        rng = np.random.default_rng(0)
        ds = random_dataset(rng, 12, 3, 2)
        preds = predict_dataset(ModelParams.zeros(3, 2), ds)
        assert preds.shape == (12, 3)
        assert np.all(preds == 1)

    def test_edge_free_model_is_sign_rule(self, monkeypatch):
        monkeypatch.setattr(inference, "DECODE_CHUNK_FLOATS", 4)
        rng = np.random.default_rng(45)
        beta = rng.normal(size=(4, 3))
        beta[2] = 0.0  # label 3 scores exactly zero on every row
        params = ModelParams(beta, {(0, 1): 0.0}, 4, 3)
        ds = random_dataset(rng, 10, 4, 3)
        preds = predict_dataset(params, ds)
        unary = np.array([beta @ x for x in ds.features])
        assert np.array_equal(preds, np.where(unary >= 0, 1, -1))
        assert np.all(preds[:, 2] == 1)

    def test_sparse_rows_are_scored_without_the_dense_matrix(self, tmp_path):
        rng = np.random.default_rng(47)
        n, d, m = 5000, 5000, 4
        cols = np.sort(rng.choice(d, size=(n, 5)), axis=1) + 1
        lines = []
        for r, (row, vals) in enumerate(zip(cols.tolist(), rng.normal(size=(n, 5)).tolist())):
            entries = dict(zip(row, vals))  # a column drawn twice is kept once
            lines.append(f"{r % m + 1} " + " ".join(f"{c}:{v!r}" for c, v in entries.items()))
        path = tmp_path / "wide.txt"
        path.write_text("\n".join(lines) + "\n")
        params = random_params(rng, m, d, alpha_scale=0.5, density=0.7)
        tracemalloc.start()
        try:
            ds = load_dataset(path, DatasetSpec(format="sparse-multilabel", num_labels=m,
                                                num_features=d))
            preds = predict_dataset(params, ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * n * d * 8  # the dense matrix would take 200 MB
        assert preds.shape == (n, m)
        rows = rng.choice(n, size=40, replace=False)
        twin = MultilabelDataset(np.vstack([ds.features[r:r + 1] for r in rows]),
                                 ds.labels[rows], ds.label_names)
        assert predict_dataset(params, twin).tobytes() == preds[rows].tobytes()

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("rows_per_chunk", [1, 2, 3])
    def test_sparse_rows_decode_like_their_dense_twin(self, monkeypatch, exact, rows_per_chunk):
        rng = np.random.default_rng(48)
        n, m, d = 10, 4, 50
        mask = rng.uniform(size=(n, d)) < 0.1
        mask[3] = False  # a row with no entries
        values = np.where(mask, rng.normal(size=(n, d)), 0.0)
        values[0, 0], mask[0, 0] = -0.0, True  # a stored negative zero
        r, c = np.nonzero(mask)
        indptr = np.concatenate([[0], np.cumsum(mask.sum(axis=1))])
        labels = rng.choice([-1, 1], size=(n, m))
        names = tuple(f"label{i + 1}" for i in range(m))
        sparse = MultilabelDataset(CsrRows(indptr, c, values[r, c], (n, d)), labels, names)
        dense = MultilabelDataset(values, labels, names)
        params = random_params(rng, m, d, alpha_scale=2.0, density=0.8)
        if not exact:
            monkeypatch.setattr(inference, "ENUMERATION_LIMIT", 0)
        whole = predict_dataset(params, dense)
        # the features set the chunk: 50 floats a row exceed a row's tables and label arrays
        monkeypatch.setattr(inference, "DECODE_CHUNK_FLOATS", rows_per_chunk * d)
        sizes, chunks = [], [rows_per_chunk] * (n // rows_per_chunk) + [n % rows_per_chunk] * (
            n % rows_per_chunk > 0)
        for name in ("_eliminate", "_icm"):
            def spy(unary, *rest, original=getattr(inference, name)):
                sizes.append(len(unary))
                return original(unary, *rest)
            monkeypatch.setattr(inference, name, spy)
        for ds in (sparse, dense):
            sizes.clear()
            assert predict_dataset(params, ds).tobytes() == whole.tobytes()
            assert sizes == chunks
        # a list of rows is sliced alike
        assert inference.decode_rows(params, values.tolist()).tobytes() == whole.tobytes()

    def test_zero_feature_columns_decode_and_scale(self):
        # labels equal in pairs, so the fitted pairwise weights carry the decision
        rng = np.random.default_rng(49)
        first = rng.choice([-1, 1], size=(30, 2))
        ds = MultilabelDataset(np.zeros((30, 0)), np.hstack([first, first]),
                               ("l1", "l2", "l3", "l4"))
        params, _ = train_corrlog(ds, toy_config(max_iters=2000))
        assert params.nnz_alpha() > 0
        preds = predict_dataset(params, ds)
        want = map_bruteforce(params, np.zeros(0))
        assert preds.tobytes() == np.tile(want, (30, 1)).tobytes()
        assert compute_feature_scale(ds) == 0.0


class TestStability:
    @pytest.mark.parametrize("other", [ModelParams.zeros(3, 2), ModelParams.zeros(2, 3)])
    def test_distance_refuses_different_shapes(self, other):
        with pytest.raises(DataError, match="^models have different shapes$"):
            params_distance(ModelParams.zeros(2, 2), other)

    def test_refuses_bad_pool_trials_and_lambdas(self):
        ds = random_dataset(np.random.default_rng(3), 8, 2, 2)
        wide = random_dataset(np.random.default_rng(3), 8, 2, 3)
        zero = TrainConfig(reg=RegularizationConfig(0.01, 0.0, 1.0))
        for call, message in [
            (lambda: stability_experiment(ds, toy_config(), 1, 0, wide),
             "pool dimensions do not match the training set"),
            (lambda: stability_experiment(ds, toy_config(), 0, 0, ds), "need at least one trial"),
            (lambda: stability_experiment(ds, zero, 1, 0, ds),
             "stability bound requires lambda1, lambda2 > 0"),
        ]:
            with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
                call()

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
        doc = report.as_dict()
        assert {"bound", "diffs", "max_diff", "mean_diff", "rel_tol",
                "all_within_bound", "n", "min_lambda", "trials"} <= set(doc)
        assert "bound" in report.to_text()
