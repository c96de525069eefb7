import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrlog.data import (
    DatasetSpec,
    ToySpec,
    add_bias_column,
    compute_feature_scale,
    generate_toy,
    load_dataset,
    sample_from_model,
    scale_features,
    write_dense_csv,
)
from corrlog.errors import DataError, ParseError
from corrlog.model import ModelParams

DENSE_SAMPLE = """f1,f2|l1,l2
0.5,0.5,1,0
-0.25,0.75,-1,+1
"""

SPARSE_SAMPLE = """2,5 1:0.3 7:-1.2
1 2:0.5
3:1.0 7:2.0
"""


class TestDenseLoader:
    def test_documented_example_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(DENSE_SAMPLE)
        ds = load_dataset(path, DatasetSpec(format="dense-csv"))
        assert ds.num_features == 2
        assert ds.num_labels == 2
        assert ds.label_names == ("l1", "l2")
        assert np.allclose(ds.features[0], [0.5, 0.5])
        assert np.array_equal(ds.labels[0], [1, -1])
        assert np.array_equal(ds.labels[1], [-1, 1])

    def test_ragged_row_gives_line_number(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1|l1\n0.5,1\n0.5\n")
        with pytest.raises(ParseError, match="line 3"):
            load_dataset(path, DatasetSpec())

    def test_non_numeric_feature(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1|l1\noops,1\n")
        with pytest.raises(ParseError, match="line 2"):
            load_dataset(path, DatasetSpec())

    def test_unknown_label_symbol(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1|l1\n0.5,2\n")
        with pytest.raises(ParseError, match="label symbol"):
            load_dataset(path, DatasetSpec())

    def test_non_finite_feature_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1|l1\nnan,1\n")
        with pytest.raises(ParseError, match="non-finite"):
            load_dataset(path, DatasetSpec())

    def test_header_needs_single_pipe(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1,l1\n0.5,1\n")
        with pytest.raises(ParseError, match="'\\|'"):
            load_dataset(path, DatasetSpec())


class TestSparseLoader:
    def test_documented_example_line(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text(SPARSE_SAMPLE)
        ds = load_dataset(path, DatasetSpec(format="sparse-multilabel"))
        assert ds.num_labels == 5  # inferred from max positive index
        assert ds.num_features == 7
        assert np.array_equal(ds.labels[0], [-1, 1, -1, -1, 1])
        assert ds.features[0, 0] == 0.3
        assert ds.features[0, 6] == -1.2
        assert np.count_nonzero(ds.features[0]) == 2
        # third line has no label list at all
        assert np.all(ds.labels[2] == -1)

    def test_explicit_dimensions(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("1 1:0.5\n")
        ds = load_dataset(
            path, DatasetSpec(format="sparse-multilabel", num_labels=4, num_features=9)
        )
        assert ds.num_labels == 4
        assert ds.num_features == 9

    def test_label_index_beyond_count(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("7 1:0.5\n")
        with pytest.raises(ParseError, match="exceeds"):
            load_dataset(path, DatasetSpec(format="sparse-multilabel", num_labels=3))

    def test_duplicate_feature_index(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("1 2:0.5 2:0.7\n")
        with pytest.raises(ParseError, match="duplicate"):
            load_dataset(path, DatasetSpec(format="sparse-multilabel"))

    def test_zero_based_index_rejected(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("1 0:0.5\n")
        with pytest.raises(ParseError, match="1-based"):
            load_dataset(path, DatasetSpec(format="sparse-multilabel"))


class TestFeaturePreparation:
    def test_global_max_norm_hits_one_exactly(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1,f2|l1\n3,4,1\n0.3,0.4,0\n")
        ds = load_dataset(path, DatasetSpec(normalization="global-max-norm"))
        norms = np.linalg.norm(ds.feature_matrix, axis=1)
        assert norms.max() == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(ds.features[0], [0.6, 0.8])

    def test_labels_unchanged_by_scaling(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1|l1,l2\n5,1,0\n")
        ds = load_dataset(path, DatasetSpec(normalization="global-max-norm"))
        assert np.array_equal(ds.labels[0], [1, -1])

    def test_reused_scale_constant(self, tmp_path):
        train_path = tmp_path / "train.csv"
        train_path.write_text("f1|l1\n4,1\n2,0\n")
        test_path = tmp_path / "test.csv"
        test_path.write_text("f1|l1\n8,1\n")
        train = load_dataset(train_path, DatasetSpec(normalization="global-max-norm"))
        scale = 4.0
        test = load_dataset(
            test_path, DatasetSpec(normalization="global-max-norm"), feature_scale=scale
        )
        # test vector scaled by the training constant, exceeding 1 is allowed
        assert test.features[0, 0] == pytest.approx(2.0)
        assert train.features[0, 0] == pytest.approx(1.0)

    def test_add_bias_keeps_norm_bound(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1,f2|l1\n3,4,1\n1,0,0\n")
        ds = load_dataset(
            path, DatasetSpec(normalization="global-max-norm", add_bias=True)
        )
        assert ds.num_features == 3
        norms = np.linalg.norm(ds.feature_matrix, axis=1)
        assert norms.max() <= 1.0 + 1e-12
        # bias appended after normalization, then the 1/sqrt(2) rescale
        assert ds.features[0, -1] == pytest.approx(1 / np.sqrt(2))

    def test_scale_must_be_positive(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1|l1\n1,1\n")
        ds = load_dataset(path, DatasetSpec())
        with pytest.raises(DataError):
            scale_features(ds, 0.0)


class TestGenerateToy:
    def test_label_rule_examples(self):
        # evaluate the labeling rule on chosen points via a tiny helper dataset
        train, _ = generate_toy(ToySpec(n_train=1, n_test=1, seed=0))
        eta1 = np.array([1.0, 1.0, -0.5])
        eta2 = np.array([-1.0, 1.0, -0.5])
        for x, expected in [
            (np.array([0.5, 0.5]), (1, 1)),
            (np.array([-0.5, -0.4]), (-1, -1)),
            (np.array([-0.5, 0.5]), (-1, 1)),
        ]:
            xt = np.append(x, 1.0)
            y1 = 1 if eta1 @ xt >= 0 else -1
            y2 = 1 if (y1 == 1 or eta2 @ xt >= 0) else -1
            assert (y1, y2) == expected

    @pytest.mark.parametrize("eta1,eta2", [
        ((1.0, 1.0, -0.5), (-1.0, 1.0, -0.5)),
        ((0.0, 0.0, 0.0), (0.3, -2.0, 0.1)),  # every first label is a tie: +1
        ((0.3, -2.0, 0.1), (0.0, 0.0, 0.0)),  # every second label is a tie: +1
    ])
    def test_labels_follow_the_rule_row_by_row(self, eta1, eta2):
        train, test = generate_toy(ToySpec(n_train=200, n_test=50, eta1=eta1, eta2=eta2,
                                           seed=11))
        for ds in (train, test):
            assert ds.labels.dtype == np.int8
            for x, labels in zip(ds.features, ds.labels):
                xt = np.append(x, 1.0)
                y1 = 1 if np.asarray(eta1) @ xt >= 0 else -1
                y2 = 1 if (y1 == 1 or np.asarray(eta2) @ xt >= 0) else -1
                assert tuple(labels) == (y1, y2)

    def test_split_sizes_and_dimensions(self):
        train, test = generate_toy(ToySpec(n_train=120, n_test=80, seed=3))
        assert len(train) == 120 and len(test) == 80
        assert train.num_features == 2 and train.num_labels == 2

    def test_instances_on_unit_disc(self):
        train, test = generate_toy(ToySpec(n_train=300, n_test=10, seed=4))
        norms = np.linalg.norm(train.feature_matrix, axis=1)
        assert norms.max() <= 1.0 + 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_impossible_combination_never_appears(self, seed):
        train, test = generate_toy(ToySpec(n_train=60, n_test=60, seed=seed))
        for ds in (train, test):
            labels = ds.label_matrix
            assert not np.any((labels[:, 0] == 1) & (labels[:, 1] == -1))

    def test_deterministic_per_seed(self):
        a_train, a_test = generate_toy(ToySpec(n_train=50, n_test=50, seed=7))
        b_train, b_test = generate_toy(ToySpec(n_train=50, n_test=50, seed=7))
        assert np.array_equal(a_train.feature_matrix, b_train.feature_matrix)
        assert np.array_equal(a_test.label_matrix, b_test.label_matrix)


class TestRoundTrip:
    def test_write_then_load_is_exact(self, tmp_path):
        train, _ = generate_toy(ToySpec(n_train=40, n_test=1, seed=5))
        path = tmp_path / "toy.csv"
        write_dense_csv(train, path)
        loaded = load_dataset(path, DatasetSpec())
        assert np.array_equal(loaded.feature_matrix, train.feature_matrix)
        assert np.array_equal(loaded.label_matrix, train.label_matrix)
        assert loaded.label_names == train.label_names

    def test_written_files_deterministic(self, tmp_path):
        train, _ = generate_toy(ToySpec(n_train=20, n_test=1, seed=7))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_dense_csv(train, p1)
        write_dense_csv(train, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestFuzzLoaders:
    @pytest.mark.parametrize("fmt,content", [
        ("dense-csv", DENSE_SAMPLE),
        ("sparse-multilabel", SPARSE_SAMPLE),
    ])
    def test_random_byte_mutations_never_crash(self, tmp_path, fmt, content):
        rng = np.random.default_rng(2024)
        base = content.encode("utf-8")
        path = tmp_path / "fuzz.dat"
        for _ in range(200):
            data = bytearray(base)
            for _ in range(int(rng.integers(1, 4))):
                pos = int(rng.integers(0, len(data)))
                data[pos] = int(rng.integers(0, 256))
            path.write_bytes(bytes(data))
            try:
                load_dataset(path, DatasetSpec(format=fmt))
            except (ParseError, DataError):
                pass  # positioned rejection is the contract; crashes are not


class TestSampleFromModel:
    def test_matches_enumerated_distribution(self):
        # beta = 0 makes the label law independent of x; frequencies must
        # approach the enumerated probabilities
        params = ModelParams(np.zeros((2, 2)), {(0, 1): 0.5}, 2, 2)
        ds = sample_from_model(params, n=4000, seed=0)
        labels = ds.label_matrix
        p_equal = np.mean(labels[:, 0] == labels[:, 1])
        e = np.exp(0.5)
        expected = 2 * e / (2 * e + 2 * np.exp(-0.5))
        assert p_equal == pytest.approx(expected, abs=0.03)

    def test_deterministic_and_in_unit_ball(self):
        params = ModelParams(np.ones((2, 3)) * 0.2, {(0, 1): -0.3}, 2, 3)
        a = sample_from_model(params, n=50, seed=9)
        b = sample_from_model(params, n=50, seed=9)
        assert np.array_equal(a.feature_matrix, b.feature_matrix)
        assert np.array_equal(a.label_matrix, b.label_matrix)
        assert np.linalg.norm(a.feature_matrix, axis=1).max() <= 1.0
