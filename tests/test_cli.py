import argparse
import hashlib
import inspect
import json

import numpy as np
import pytest

from corrlog import cli, inference
from corrlog.cli import LOCAL_OPTIMA, build_parser, main
from corrlog.data import (
    FORMATS,
    NORMALIZATIONS,
    DatasetSpec,
    ToySpec,
    add_bias_column,
    compute_feature_scale,
    load_dataset,
    scale_features,
    write_dense_csv,
)
from corrlog.model import MultilabelDataset
from corrlog.objective import RegularizationConfig
from corrlog.optimizer import TrainConfig
from corrlog.serialize import export_label_graph, load_model


@pytest.fixture(scope="module")
def toy_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("toydata")
    train = root / "train.csv"
    test = root / "test.csv"
    code = main([
        "synth", "--n-train", "150", "--n-test", "100", "--seed", "3",
        "--train-out", str(train), "--test-out", str(test),
    ])
    assert code == 0
    return train, test


@pytest.fixture(scope="module")
def trained_model(toy_files, tmp_path_factory):
    train, _ = toy_files
    model = tmp_path_factory.mktemp("models") / "toy.model.json"
    code = main([
        "train", str(train), "--add-bias", "--epsilon", "0",
        "--lambda1", "0.001", "--lambda2", "0.001",
        "--model-out", str(model),
    ])
    assert code == 0
    return model


class TestSynth:
    def test_deterministic_per_seed(self, tmp_path):
        a1, a2 = tmp_path / "a1.csv", tmp_path / "a2.csv"
        b1, b2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
        assert main(["synth", "--seed", "7", "--n-train", "30", "--n-test", "20",
                     "--train-out", str(a1), "--test-out", str(a2)]) == 0
        assert main(["synth", "--seed", "7", "--n-train", "30", "--n-test", "20",
                     "--train-out", str(b1), "--test-out", str(b2)]) == 0
        assert a1.read_bytes() == b1.read_bytes()
        assert a2.read_bytes() == b2.read_bytes()


class TestTrain:
    def test_writes_model_and_echoes_config(self, toy_files, tmp_path, capsys):
        train, _ = toy_files
        model = tmp_path / "m.json"
        code = main(["train", str(train), "--add-bias", "--model-out", str(model)])
        out = capsys.readouterr().out
        assert code == 0
        assert model.exists()
        assert out.startswith("config ")
        assert "final objective" in out

    def test_ilrs_model_has_empty_alpha(self, toy_files, tmp_path):
        train, _ = toy_files
        model = tmp_path / "ilrs.json"
        assert main(["train", str(train), "--add-bias", "--ilrs",
                     "--model-out", str(model)]) == 0
        doc = load_model(model.read_text())
        assert np.array_equal(doc.params.alpha, np.zeros((2, 2)))
        assert doc.metadata["trainer"] == "ilrs"

    def test_epsilon_zero_keeps_dense_beta(self, toy_files, tmp_path):
        train, _ = toy_files
        model = tmp_path / "l2.json"
        assert main(["train", str(train), "--add-bias", "--epsilon", "0",
                     "--model-out", str(model)]) == 0
        doc = load_model(model.read_text())
        assert doc.reg.epsilon == 0.0
        assert doc.params.nnz_beta() == doc.params.beta.size

    @pytest.mark.parametrize("flag,message", [
        ("--lambda1", "regularization weights must be finite and nonnegative"),
        ("--lambda2", "regularization weights must be finite and nonnegative"),
        ("--epsilon", "regularization weights must be finite and nonnegative"),
        ("--tol", "rel_tol must be positive and finite"),
    ])
    # argparse reads a separate "-inf" or "-1e-3" as an option, so those forms take "="
    @pytest.mark.parametrize("value", ["nan", "inf", "-0.5", "=-inf", "=-1e-3"])
    def test_knob_that_is_not_finite_and_in_range_exits_3(self, toy_files, tmp_path, capsys,
                                                           flag, message, value):
        train, _ = toy_files
        knob = [flag + value] if value.startswith("=") else [flag, value]
        code = main(["train", str(train), *knob, "--model-out", str(tmp_path / "m")])
        assert code == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_config_echo_of_a_refused_weight_is_standard_json(self, toy_files, capsys, value):
        train, _ = toy_files
        assert main(["cv", str(train), f"--lambda1={value}", "--folds", "3"]) == 3
        line = capsys.readouterr().out.splitlines()[0]
        assert line.startswith("config ")

        def refuse(token):
            raise ValueError(f"non-standard token {token}")

        echo = json.loads(line[len("config "):], parse_constant=refuse)
        assert echo["lambda1"] == value and echo["lambda2"] == 0.001

    @pytest.mark.parametrize("flag,value", [("--num-labels", "0"), ("--num-labels", "-2"),
                                            ("--num-features", "0")])
    def test_count_below_one_exits_3(self, tmp_path, capsys, flag, value):
        data = tmp_path / "s.txt"
        data.write_text("1 1:0.5\n2 2:0.5\n")
        code = main(["train", str(data), "--format", "sparse-multilabel", flag, value,
                     "--model-out", str(tmp_path / "m")])
        assert code == 3
        field = flag[2:].replace("-", "_")
        assert capsys.readouterr().err == f"error: {field} must be at least 1, got {value}\n"

    # 10**15 float64 columns (7 PiB) exceed any 64-bit address space, so the
    # allocation fails whatever the overcommit setting; 10**19 does not fit in
    # int64, so no CSR row can hold it and the parser refuses it where it stands.
    @pytest.mark.parametrize("line,message", [
        ("1 1000000000000000:1", "1 rows x 1000000000000000 features are too many to hold in memory"),
        ("1 10000000000000000000:1", "line 1: feature index 10000000000000000000 is too large"),
        ("1000000000000000 1:1", "1 rows x 1000000000000000 labels are too many to hold in memory"),
    ])
    def test_huge_sparse_index_exits_3(self, tmp_path, capsys, line, message):
        data = tmp_path / "huge.txt"
        data.write_text(line + "\n")
        code = main(["train", str(data), "--format", "sparse-multilabel",
                     "--model-out", str(tmp_path / "m")])
        assert code == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["train", "cv"])
    def test_overflowing_row_norm_exits_3(self, tmp_path, capsys, command):
        # the largest row norm overflows to inf: no usable global-max-norm scale
        data = tmp_path / "huge.csv"
        data.write_text("f1,f2|l1\n1e300,1e300,1\n0.5,0.5,0\n0.1,0.2,1\n")
        model = tmp_path / "m.json"
        extra = ["--model-out", str(model)] if command == "train" else [
            "--folds", "2", "--json-out", str(model)]
        assert main([command, str(data), "--normalize", "global-max-norm", *extra]) == 3
        assert capsys.readouterr().err == (
            "error: feature scale must be positive and finite, got inf\n")
        assert not model.exists()

    @pytest.mark.parametrize("command", ["train", "cv"])
    def test_features_whose_squares_overflow_exit_4(self, tmp_path, capsys, command):
        # finite features of size 1e160 whose squares overflow: without normalization the
        # trainer would freeze beta at zero and report the zero start as converged
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=(40, 3)) * 1e160, rng.integers(0, 2, size=(40, 2))
        data = tmp_path / "big.csv"
        data.write_text("f1,f2,f3|l1,l2\n" + "".join(
            ",".join([*map(repr, row.tolist()), *map(str, labels)]) + "\n"
            for row, labels in zip(x, y)))
        out = tmp_path / "out.json"
        extra = ["--model-out", str(out)] if command == "train" else [
            "--folds", "2", "--json-out", str(out)]
        assert main([command, str(data), *extra]) == 4
        assert capsys.readouterr().err == (
            "numeric failure: feature 0 has a mean square that overflows; scale the features\n")
        assert not out.exists()

    def test_missing_file_exits_3(self, tmp_path, capsys):
        code = main(["train", str(tmp_path / "nope.csv"), "--model-out", str(tmp_path / "m")])
        assert code == 3

    @pytest.mark.parametrize("command", ["cv", "synth", "stability"])
    def test_negative_seed_exits_3(self, toy_files, tmp_path, capsys, command):
        train, test = toy_files
        args = {"cv": [str(train), "--folds", "2", "--json-out", str(tmp_path / "cv.json")],
                "synth": ["--train-out", str(tmp_path / "a.csv"),
                          "--test-out", str(tmp_path / "b.csv")],
                "stability": [str(train), "--pool", str(test), "--trials", "1",
                              "--json-out", str(tmp_path / "s.json")]}[command]
        assert main([command, *args, "--seed", "-1"]) == 3
        assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"
        assert not any(tmp_path.iterdir())

    def test_nan_data_exits_4(self, tmp_path):
        bad = tmp_path / "bad.csv"
        # bypass the loader's finite check by constructing a near-degenerate file
        bad.write_text("f1|l1\n1e400,1\n")  # overflows to inf in float()
        code = main(["train", str(bad), "--model-out", str(tmp_path / "m")])
        assert code == 3  # rejected by the loader as non-finite

    def test_unknown_flag_exits_2(self, toy_files, tmp_path):
        train, test = toy_files
        for flag in ("--bogus-flag", "--no-accel"):
            with pytest.raises(SystemExit) as exc:
                main(["train", str(train), flag, "--model-out", str(tmp_path / "m")])
            assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["eval", str(tmp_path / "m.json"), str(test), "--bp-iters", "5"])
        assert exc.value.code == 2

    def test_compare_ilrs_with_ilrs_trainer_exits_2(self, tmp_path, capsys):
        # cv cross-validates the correlated model; the flag that chose the trainer is gone
        with pytest.raises(SystemExit) as exc:
            main(["cv", str(tmp_path / "missing.csv"), "--trainer", "ilrs", "--compare-ilrs",
                  "--json-out", str(tmp_path / "cv.json")])
        assert exc.value.code == 2
        assert "--trainer" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["train", "cv", "stability"])
    def test_no_accel_is_a_usage_error(self, toy_files, tmp_path, command):
        # momentum is the one step rule; the flag that turned it off is gone
        train, test = toy_files
        args = {"train": ["--model-out", str(tmp_path / "m.json")],
                "cv": ["--folds", "2", "--json-out", str(tmp_path / "cv.json")],
                "stability": ["--pool", str(test), "--trials", "1",
                              "--json-out", str(tmp_path / "s.json")]}[command]
        with pytest.raises(SystemExit) as exc:
            main([command, str(train), *args, "--no-accel"])
        assert exc.value.code == 2
        assert not any(tmp_path.iterdir())

    def test_numeric_failure_exits_4(self, monkeypatch, toy_files, tmp_path):
        from corrlog import cli
        from corrlog.errors import NumericError

        train, _ = toy_files

        def boom(dataset, config):
            raise NumericError("instance 0 has non-finite feature values")

        monkeypatch.setattr(cli, "train_corrlog", boom)
        code = main(["train", str(train), "--model-out", str(tmp_path / "m")])
        assert code == 4

    def test_help_documents_defaults(self, capsys):
        for command in ("train", "predict", "eval", "cv", "synth", "graph", "stability"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--help"])
            assert exc.value.code == 0
            out = capsys.readouterr().out
            assert "default" in out
            if command in ("synth", "graph"):
                continue
            # scoring takes a sparse file's omitted counts from the model
            counts_from = "taken from the model" if command in ("predict", "eval") else "inferred"
            text = " ".join(out.split())
            for what in ("label", "feature"):
                assert f"{what} count for sparse files (else {counts_from})" in text

    def test_parser_defaults_and_choices_are_the_library_ones(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        options = {name: {a.dest: a for a in p._actions} for name, p in sub.choices.items()}
        config, reg, spec, toy = TrainConfig(), RegularizationConfig(), DatasetSpec(), ToySpec()
        assert config.reg == reg
        for name in ("train", "predict", "eval", "cv", "stability"):
            assert options[name]["format"].choices == FORMATS
            assert options[name]["format"].default == spec.format
        for name in ("train", "cv", "stability"):
            assert [options[name][k].default for k in ("lambda1", "lambda2", "epsilon")] == [
                reg.lambda1, reg.lambda2, reg.epsilon]
        for name in ("train", "cv"):
            assert options[name]["normalize"].choices == NORMALIZATIONS
            assert options[name]["normalize"].default == spec.normalization
            assert options[name]["max_iters"].default == config.max_iters
            assert options[name]["tol"].default == config.rel_tol
        # the stability bound assumes near-exact minimizers
        assert options["stability"]["tol"].default == 1e-9
        assert options["stability"]["max_iters"].default == 100000
        for name in ("train", "cv", "stability"):
            assert "no_accel" not in options[name]
        # decoding takes no settings
        for name in ("predict", "eval"):
            assert "bp_iters" not in options[name]
        # cv cross-validates the correlated model; --compare-ilrs adds the baseline
        assert "trainer" not in options["cv"]
        assert [options["synth"][k].default for k in ("n_train", "n_test", "seed")] == [
            toy.n_train, toy.n_test, toy.seed]
        threshold = inspect.signature(export_label_graph).parameters["threshold"].default
        assert options["graph"]["threshold"].default == threshold


class TestSeparableRecovery:
    def test_well_fit_model_reproduces_training_labels(self, tmp_path):
        # both labels linearly separable with a margin: a lightly regularized
        # fit must predict every training label correctly
        rng = np.random.default_rng(99)
        rows = []
        while len(rows) < 120:
            x = rng.uniform(-1, 1, size=2)
            if np.linalg.norm(x) > 1 or abs(x[0]) < 0.15 or abs(x[1]) < 0.15:
                continue
            rows.append((x, 1 if x[0] > 0 else -1, 1 if x[1] > 0 else -1))
        lines = ["f1,f2|l1,l2"] + [
            f"{float(x[0])!r},{float(x[1])!r},{y1},{y2}" for x, y1, y2 in rows
        ]
        data = tmp_path / "separable.csv"
        data.write_text("\n".join(lines) + "\n")
        model = tmp_path / "sep.model.json"
        out = tmp_path / "sep.preds.txt"
        assert main(["train", str(data), "--lambda1", "1e-4", "--lambda2", "1e-4",
                     "--epsilon", "0", "--model-out", str(model)]) == 0
        assert main(["predict", str(model), str(data), "--out", str(out)]) == 0
        preds = [line.split(",") for line in out.read_text().strip().splitlines()]
        truth = [(str(y1), str(y2)) for _, y1, y2 in rows]
        assert [tuple(p) for p in preds] == truth


def _frustrated_cycle(tmp_path, m: int, rows: int, complete: bool = False):
    """(model, data) files of an odd cycle of -2.0 couplings with tiny unaries, or of
    -2.0 on every pair when ``complete``."""
    from corrlog.model import ModelParams
    from corrlog.objective import RegularizationConfig
    from corrlog.serialize import save_model

    rng = np.random.default_rng(0)
    pairs = ([(i, j) for i in range(m) for j in range(i + 1, m)] if complete
             else [(i, i + 1) for i in range(m - 1)] + [(0, m - 1)])
    params = ModelParams(rng.normal(size=(m, 1)) * 0.01, dict.fromkeys(pairs, -2.0), m, 1)
    model = tmp_path / "frustrated.json"
    model.write_text(save_model(params, RegularizationConfig()))
    data = tmp_path / "cycle.csv"
    header = "f1|" + ",".join(f"l{i + 1}" for i in range(m)) + "\n"
    data.write_text(header + ("1.0" + ",1" * m + "\n") * rows)
    return model, data



def _chain(tmp_path):
    """(model, data) files of a 5-label chain of -2.0 couplings and one row; its MAP alternates."""
    from corrlog.model import ModelParams
    from corrlog.objective import RegularizationConfig
    from corrlog.serialize import save_model

    params = ModelParams(np.full((5, 1), 0.1), {(i, i + 1): -2.0 for i in range(4)}, 5, 1)
    model = tmp_path / "chain.json"
    model.write_text(save_model(params, RegularizationConfig()))
    data = tmp_path / "chain.csv"
    data.write_text("f1|" + ",".join(f"l{i + 1}" for i in range(5)) + "\n1.0" + ",1" * 5 + "\n")
    return model, data


class TestPredictAndEval:
    def test_predictions_deterministic_and_flagged(self, trained_model, toy_files, tmp_path, capsys):
        _, test = toy_files
        out1, out2 = tmp_path / "p1.txt", tmp_path / "p2.txt"
        assert main(["predict", str(trained_model), str(test), "--out", str(out1)]) == 0
        assert main(["predict", str(trained_model), str(test), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        rows = out1.read_text().strip().splitlines()
        assert len(rows) == 100
        assert all(set(r.split(",")) <= {"1", "-1"} for r in rows)

    def test_predict_on_training_data_fits_well(self, trained_model, toy_files, tmp_path):
        train, _ = toy_files
        out = tmp_path / "fit.txt"
        assert main(["predict", str(trained_model), str(train), "--out", str(out)]) == 0
        preds = np.array([[int(v) for v in line.split(",")]
                          for line in out.read_text().strip().splitlines()])
        truth = np.array([[int(float(c)) for c in line.split(",")[2:]]
                          for line in train.read_text().splitlines()[1:]])
        agreement = np.mean((preds == truth).all(axis=1))
        assert agreement > 0.85

    def test_eval_reports_six_metrics_with_json_twin(self, trained_model, toy_files, tmp_path, capsys):
        _, test = toy_files
        json_out = tmp_path / "metrics.json"
        code = main(["eval", str(trained_model), str(test), "--json-out", str(json_out)])
        out = capsys.readouterr().out
        assert code == 0
        for label in ("Hamming loss", "0-1 loss", "Accuracy", "F1-Score", "Macro-F1", "Micro-F1"):
            assert label in out
        doc = json.loads(json_out.read_text())
        assert doc["n_eval"] == 100
        assert 0.0 <= doc["zero_one_loss"] <= 1.0

    def test_small_models_report_exact_decoding(self, tmp_path, capsys):
        m = 5
        model, data = _frustrated_cycle(tmp_path, m, rows=1)
        out = tmp_path / "p.txt"
        assert main(["predict", str(model), str(data), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "every instance was decoded exactly" in printed
        assert LOCAL_OPTIMA not in printed
        # an exact MAP of the cycle: the labels alternate except at one edge
        labels = [int(v) for v in out.read_text().split(",")]
        assert sum(labels[i] != labels[(i + 1) % m] for i in range(m)) == m - 1

    def test_small_forests_report_exact_decoding(self, tmp_path, capsys):
        # a 5-label chain has elimination width 1
        model, data = _chain(tmp_path)
        out = tmp_path / "p.txt"
        assert main(["predict", str(model), str(data), "--out", str(out)]) == 0
        assert "every instance was decoded exactly" in capsys.readouterr().out
        assert out.read_text().strip() == "1,-1,1,-1,1"

    def test_message_line_follows_the_decoder_limit(self, tmp_path, capsys, monkeypatch):
        # with no width below the limit, the chain is decoded by ICM, which stops at a
        # local optimum 0.2 below the alternating MAP from each of its three starts
        monkeypatch.setattr(inference, "ENUMERATION_LIMIT", 0)
        model, data = _chain(tmp_path)
        out = tmp_path / "p.txt"
        assert main(["predict", str(model), str(data), "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == LOCAL_OPTIMA
        assert out.read_text().strip() == "-1,1,-1,1,-1"

    def test_wide_models_report_local_optima(self, tmp_path, capsys):
        # the complete 17-label graph has width 16, too wide to decode exactly
        model, data = _frustrated_cycle(tmp_path, 17, rows=3, complete=True)
        out = tmp_path / "p.txt"
        assert main(["predict", str(model), str(data), "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            f"3 predictions written to {out}", LOCAL_OPTIMA]
        assert main(["eval", str(model), str(data)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == LOCAL_OPTIMA
        # a model decoded exactly prints the metrics alone
        model, data = _chain(tmp_path)
        assert main(["eval", str(model), str(data)]) == 0
        assert LOCAL_OPTIMA not in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_sparse_file_scores_like_its_dense_twin(self, toy_files, tmp_path, command):
        train, test = toy_files
        model = tmp_path / "norm.model.json"
        assert main(["train", str(train), "--normalize", "global-max-norm", "--add-bias",
                     "--model-out", str(model)]) == 0
        raw = load_dataset(test, DatasetSpec())
        sparse = tmp_path / "test.txt"
        sparse.write_text("".join(
            ",".join(str(j + 1) for j in np.flatnonzero(y > 0)) + " "
            + " ".join(f"{i + 1}:{v!r}" for i, v in enumerate(x.tolist())) + "\n"
            for x, y in zip(raw.features, raw.labels)))
        outputs = []
        for data, fmt in ((test, []), (sparse, ["--format", "sparse-multilabel",
                                                "--num-labels", "2"])):
            out = tmp_path / f"{data.stem}.{command}.out"
            flag = "--out" if command == "predict" else "--json-out"
            assert main([command, str(model), str(data), *fmt, flag, str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("prepare", [[], ["--add-bias"],
                                         ["--normalize", "global-max-norm", "--add-bias"]])
    @pytest.mark.parametrize("trainer", [[], ["--ilrs"]])
    def test_training_on_a_sparse_file_writes_its_dense_twins_model(self, tmp_path, prepare,
                                                                    trainer):
        rng = np.random.default_rng(48)
        x = np.where(rng.random((40, 6)) < 0.5, 0.0, rng.normal(size=(40, 6)))
        x[0] = rng.normal(size=6)  # the last feature and label appear, so the counts agree
        x[:, 0] = rng.normal(size=40)  # no row is a blank line
        y = np.where(rng.random((40, 3)) < 0.4, 1, -1)
        y[0] = 1
        dense, sparse = tmp_path / "train.csv", tmp_path / "train.txt"
        write_dense_csv(MultilabelDataset(x, y, ("label1", "label2", "label3")), dense)
        sparse.write_text("".join(
            ",".join(str(j + 1) for j in np.flatnonzero(labels > 0)) + " "
            + " ".join(f"{i + 1}:{v!r}" for i, v in enumerate(row.tolist()) if v != 0.0) + "\n"
            for row, labels in zip(x, y)))
        models = []
        for data, fmt in ((dense, []), (sparse, ["--format", "sparse-multilabel"])):
            model = tmp_path / f"{data.suffix[1:]}.json"
            assert main(["train", str(data), *fmt, *prepare, *trainer, "--max-iters", "300",
                         "--model-out", str(model)]) == 0
            models.append(model.read_bytes())
        assert models[0].count(b'"source_format": "dense-csv"') == 1
        assert models[0].replace(b'"dense-csv"', b'"sparse-multilabel"') == models[1]

    @pytest.mark.parametrize("prepare", [[], ["--add-bias"], ["--normalize", "global-max-norm"]])
    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_sparse_counts_default_to_the_model(self, tmp_path, command, prepare):
        # the eval file names neither the last feature nor the last label
        train, data = tmp_path / "train.txt", tmp_path / "eval.txt"
        train.write_text("1 1:0.5 3:0.2\n2 2:0.1 3:0.9\n1,2 1:0.3\n2 3:0.4\n")
        data.write_text("1 1:0.5\n1 2:0.3\n")
        model, fmt = tmp_path / "m.json", ["--format", "sparse-multilabel"]
        assert main(["train", str(train), *fmt, *prepare, "--model-out", str(model)]) == 0
        flag = "--out" if command == "predict" else "--json-out"
        outputs = []
        for counts in ([], ["--num-labels", "2", "--num-features", "3"]):
            out = tmp_path / f"out{len(counts)}"
            assert main([command, str(model), str(data), *fmt, *counts, flag, str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_explicit_sparse_counts_win_over_the_model(self, trained_model, tmp_path, capsys):
        data = tmp_path / "eval.txt"
        data.write_text("1 1:0.5\n2 2:0.3\n")
        assert main(["eval", str(trained_model), str(data), "--format", "sparse-multilabel",
                     "--num-features", "3"]) == 3
        assert capsys.readouterr().err == "error: model expects 3 features, data has 4\n"

    def test_pair_listed_twice_exits_3(self, trained_model, tmp_path, capsys):
        doc = json.loads(trained_model.read_text())
        doc["alpha"] = [[0, 1, "0x1p0"], [0, 1, "0x1p1"]]
        model = tmp_path / "twice.model.json"
        model.write_text(json.dumps(doc))
        out = tmp_path / "g.json"
        assert main(["graph", str(model), "--json-out", str(out)]) == 3
        assert capsys.readouterr().err == "error: alpha lists a pair more than once\n"
        assert not out.exists()

    @pytest.mark.parametrize("beta", [5, [5, 5], "ab"])
    def test_beta_that_is_not_a_list_of_lists_exits_3(self, trained_model, toy_files, tmp_path,
                                                      capsys, beta):
        doc = json.loads(trained_model.read_text())
        doc["beta"] = beta
        model = tmp_path / "bad.model.json"
        model.write_text(json.dumps(doc))
        out = tmp_path / "p.txt"
        assert main(["predict", str(model), str(toy_files[1]), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error: beta must be a list of lists, one row of hex floats per label\n")
        assert not out.exists()

    def test_dimension_mismatch_exits_3(self, trained_model, tmp_path):
        other = tmp_path / "wide.csv"
        other.write_text("f1,f2,f3,f4|l1,l2\n0.1,0.2,0.3,0.4,1,0\n")
        assert main(["predict", str(trained_model), str(other),
                     "--out", str(tmp_path / "p.txt")]) == 3

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_label_count_mismatch_exits_3(self, trained_model, tmp_path, capsys, command):
        three = tmp_path / "three.csv"
        three.write_text("f1,f2|l1,l2,l3\n0.1,0.2,1,0,1\n0.3,-0.2,0,0,1\n")
        out = tmp_path / "p.txt"
        extra = ["--out", str(out)] if command == "predict" else []
        assert main([command, str(trained_model), str(three), *extra]) == 3
        err = capsys.readouterr().err
        assert err == "error: model predicts 2 labels, data has 3\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "eval"])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_feature_scale_that_overflows_exits_3(self, trained_model, toy_files, tmp_path,
                                                  capsys, command, sparse):
        doc = json.loads(trained_model.read_text())
        doc["metadata"]["feature_scale"] = 5e-324
        model = tmp_path / "tiny.model.json"
        model.write_text(json.dumps(doc))
        data, fmt = toy_files[1], []
        if sparse:
            data, fmt = tmp_path / "test.txt", ["--format", "sparse-multilabel"]
            data.write_text("1 1:0.5 2:-0.25\n2 1:0.1\n")
        out = tmp_path / "out.txt"
        extra = ["--out", str(out)] if command == "predict" else ["--json-out", str(out)]
        assert main([command, str(model), str(data), *fmt, *extra]) == 3
        assert capsys.readouterr().err == (
            "error: dividing the features by the scale 5e-324 overflows\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "eval"])
    @pytest.mark.parametrize("metadata", [[], {"feature_scale": "abc"}, {"feature_scale": -2.0}])
    def test_malformed_metadata_exits_3(self, trained_model, toy_files, tmp_path, capsys,
                                        command, metadata):
        doc = json.loads(trained_model.read_text())
        doc["metadata"] = metadata
        model = tmp_path / "bad.model.json"
        model.write_text(json.dumps(doc))
        out = tmp_path / "p.txt"
        extra = ["--out", str(out)] if command == "predict" else ["--json-out", str(out)]
        assert main([command, str(model), str(toy_files[1]), *extra]) == 3
        assert "metadata" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["graph", "predict", "eval"])
    @pytest.mark.parametrize("names", [5, "ab", ["y1"]])
    def test_malformed_label_names_exit_3(self, trained_model, toy_files, tmp_path, capsys,
                                          command, names):
        doc = json.loads(trained_model.read_text())
        doc["metadata"]["label_names"] = names
        model = tmp_path / "bad.model.json"
        model.write_text(json.dumps(doc))
        out = tmp_path / "out.txt"
        extra = {"graph": ["--json-out", str(out)], "predict": [str(toy_files[1]), "--out", str(out)],
                 "eval": [str(toy_files[1]), "--json-out", str(out)]}[command]
        assert main([command, str(model), *extra]) == 3
        err = capsys.readouterr().err
        assert "label_names" in err and "Traceback" not in err
        assert not out.exists()


class TestCv:
    def test_five_fold_table_and_json(self, toy_files, tmp_path, capsys):
        train, _ = toy_files
        json_out = tmp_path / "cv.json"
        code = main([
            "cv", str(train), "--add-bias", "--epsilon", "0", "--folds", "5",
            "--seed", "1", "--compare-ilrs", "--json-out", str(json_out),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "5-fold cross-validation" in out
        assert "trainer=corrlog" in out and "trainer=ilrs" in out
        assert "t=" in out
        doc = json.loads(json_out.read_text())
        assert set(doc) == {
            "hamming_loss", "zero_one_loss", "accuracy",
            "f1_example", "macro_f1", "micro_f1",
        }
        assert len(doc["zero_one_loss"]["per_fold"]) == 5
        assert "t_test" in doc["zero_one_loss"]

    def test_too_few_instances_exits_3(self, tmp_path):
        small = tmp_path / "small.csv"
        small.write_text("f1|l1\n0.5,1\n0.4,0\n")
        assert main(["cv", str(small), "--folds", "5"]) == 3


class TestJsonTwins:
    # sha256 of each file written below: any change of layout or of a number shows here
    DIGESTS = {
        "m.json": "b0b911e917875846e742ec00e930865b0992ba3e7af55bbc18854ebc4d177a1e",
        "e.json": "074e69f460f31a9295f5a5acea4b1bd0e30cfa4306235b8917741a8c071fc0fb",
        "cv.json": "6fc488596361ff8ed38264fececfa4b3be5b16223b8e08ab33c39a884fbada3a",
        "g.json": "1b538047e0501bf30c9b5ef2857bc48c24190d70f81539aac5af6524475ba945",
        "s.json": "43b11f3ce88bbaa59441795ae2a94f190618095659dbf194626c603ba1bd7e8c",
    }

    def test_twin_bytes_are_pinned(self, tmp_path):
        train, test, model = (str(tmp_path / name) for name in ("tr.csv", "te.csv", "m.json"))
        out = {name: str(tmp_path / name) for name in self.DIGESTS}
        for argv in (
            ["synth", "--n-train", "60", "--n-test", "40", "--seed", "0",
             "--train-out", train, "--test-out", test],
            ["train", train, "--add-bias", "--model-out", model],
            ["eval", model, test, "--json-out", out["e.json"]],
            # no metric of these folds shifts by a constant, so every t is finite
            ["cv", train, "--folds", "3", "--compare-ilrs", "--json-out", out["cv.json"]],
            ["graph", model, "--json-out", out["g.json"]],
            ["stability", train, "--pool", test, "--trials", "2", "--json-out", out["s.json"]],
        ):
            assert main(argv) == 0, argv
        for name, digest in self.DIGESTS.items():
            data = (tmp_path / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, name
            text = data.decode("utf-8")
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", name


class TestGraph:
    def test_exports_dot_and_json(self, trained_model, tmp_path, capsys):
        dot_out = tmp_path / "g.dot"
        json_out = tmp_path / "g.json"
        code = main(["graph", str(trained_model), "--dot-out", str(dot_out),
                     "--json-out", str(json_out)])
        assert code == 0
        dot = dot_out.read_text()
        assert dot.startswith("graph label_correlations {")
        assert '"label1"' in dot
        doc = json.loads(json_out.read_text())
        assert doc["nodes"] == ["label1", "label2"]
        # the toy labels are strongly correlated; the fitted pair survives
        assert len(doc["edges"]) == 1
        assert doc["edges"][0]["sign"] == "positive"


    @pytest.mark.parametrize("value", ["nan", "inf", "-0.5"])
    def test_threshold_that_is_not_finite_and_nonnegative_exits_3(self, trained_model, capsys,
                                                                  value):
        assert main(["graph", str(trained_model), "--threshold", value]) == 3
        captured = capsys.readouterr()
        assert captured.err == "error: threshold must be finite and nonnegative\n"
        assert "edges above" not in captured.out


class TestStability:
    def test_small_run_reports_bound(self, toy_files, tmp_path, capsys):
        train, test = toy_files
        json_out = tmp_path / "stab.json"
        code = main([
            "stability", str(train), "--pool", str(test), "--add-bias",
            "--epsilon", "0", "--trials", "2", "--tol", "1e-8",
            "--json-out", str(json_out),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "bound" in out
        doc = json.loads(json_out.read_text())
        assert doc["trials"] == 2
        assert doc["all_within_bound"] is True

    @pytest.mark.parametrize("counts", [[], ["--num-labels", "3", "--num-features", "5"]])
    def test_sparse_pool_takes_its_counts_from_the_training_set(self, tmp_path, capsys, counts):
        # the pool names neither label 3 nor features 4 and 5
        train, pool = tmp_path / "train.txt", tmp_path / "pool.txt"
        train.write_text("1,3 1:0.5 5:0.25\n2 2:0.5 4:-0.5\n3 3:0.5\n1 1:-0.5 2:0.5\n")
        pool.write_text("1 1:0.5 3:0.25\n2 2:-0.5\n")
        code = main(["stability", str(train), "--pool", str(pool), "--format",
                     "sparse-multilabel", "--add-bias", "--trials", "2", "--tol", "1e-6",
                     "--lambda1", "0.1", "--lambda2", "0.1", *counts])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "all within bound: True" in captured.out


class TestDataPreparation:
    """Every data command reads its files one way and prepares them one way."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """The scale each call of the CLI's ``scale_features`` gets, or "bias" per bias column."""
        calls = []

        def scale(dataset, value):
            calls.append(value)
            return scale_features(dataset, value)

        def bias(dataset):
            calls.append("bias")
            return add_bias_column(dataset)

        monkeypatch.setattr(cli, "scale_features", scale)
        monkeypatch.setattr(cli, "add_bias_column", bias)
        return calls

    @pytest.mark.parametrize("command", ["train", "cv"])
    def test_training_commands_prepare_with_the_computed_scale(self, toy_files, tmp_path, calls,
                                                               command):
        train, _ = toy_files
        out = tmp_path / "out"
        flag = "--model-out" if command == "train" else "--json-out"
        extra = ["--folds", "2"] if command == "cv" else []
        assert main([command, str(train), "--normalize", "global-max-norm", "--add-bias",
                     "--max-iters", "20", *extra, flag, str(out)]) == 0
        scale = compute_feature_scale(load_dataset(train, DatasetSpec()))
        assert calls == [scale, "bias"]
        if command == "train":
            assert load_model(out.read_text()).metadata["feature_scale"] == scale

    @pytest.mark.parametrize("command", ["predict", "eval"])
    @pytest.mark.parametrize("prepare", [[], ["--add-bias"],
                                         ["--normalize", "global-max-norm", "--add-bias"]])
    def test_scoring_commands_prepare_with_the_models_scale(self, toy_files, tmp_path, calls,
                                                            command, prepare):
        train, test = toy_files
        model, out = tmp_path / "m.json", tmp_path / "out"
        assert main(["train", str(train), *prepare, "--max-iters", "20",
                     "--model-out", str(model)]) == 0
        meta = load_model(model.read_text()).metadata
        calls.clear()
        flag = "--out" if command == "predict" else "--json-out"
        assert main([command, str(model), str(test), flag, str(out)]) == 0
        expected = [meta["feature_scale"]] if meta["feature_scale"] is not None else []
        assert calls == expected + ["bias"] * meta["add_bias"]

    @pytest.mark.parametrize("add_bias", [[], ["--add-bias"]])
    def test_stability_prepares_data_and_pool_with_the_bias_only(self, toy_files, calls,
                                                                 add_bias):
        train, test = toy_files
        assert main(["stability", str(train), "--pool", str(test), *add_bias, "--trials", "1",
                     "--tol", "1e-6"]) == 0
        assert calls == (["bias", "bias"] if add_bias else [])

    @pytest.mark.parametrize("flag", ["--num-labels", "--num-features"])
    @pytest.mark.parametrize("command", ["train", "cv", "predict", "eval", "stability"])
    def test_count_flag_with_a_dense_file_exits_3(self, trained_model, toy_files, tmp_path,
                                                  capsys, command, flag):
        train, test = toy_files
        out = tmp_path / "out"
        argv = {
            "train": [str(train), "--model-out", str(out)],
            "cv": [str(train), "--json-out", str(out)],
            "predict": [str(trained_model), str(test), "--out", str(out)],
            "eval": [str(trained_model), str(test), "--json-out", str(out)],
            "stability": [str(train), "--pool", str(test), "--json-out", str(out)],
        }[command]
        # the toy files do have 2 features and 2 labels; a dense header alone gives them
        assert main([command, *argv, flag, "2"]) == 3
        field = flag[2:].replace("-", "_")
        assert capsys.readouterr().err == f"error: {field} is for sparse-multilabel files only\n"
        assert not out.exists()
