"""Cross-checks of the benchmark's oracles and tracer against the package.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_oracles.py``; the
tier-1 suite does not collect this directory.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import corrlog.cli  # noqa: E402
import corrlog.serialize  # noqa: E402
from corrlog.data import DatasetSpec, add_bias_column, load_dataset, scale_features  # noqa: E402
from corrlog.inference import map_bruteforce  # noqa: E402
from corrlog.objective import full_objective  # noqa: E402
from corrlog.optimizer import subgradient_residual  # noqa: E402

import inputs  # noqa: E402
import oracles  # noqa: E402
from spans import CycleSpans, Tracer, median_metrics  # noqa: E402
from workloads import CvScene, Ops, ScoreSparse, TrainWide  # noqa: E402


def _cli(*argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert corrlog.cli.main([str(a) for a in argv]) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    """The cv_scene inputs for seed 1 and a model the CLI trained on them."""
    work = tmp_path_factory.mktemp("cv_scene")
    wl = CvScene(work)
    wl.generate(1)
    model = work / "model.json"
    _cli("train", work / "train.csv", "--normalize", "global-max-norm", "--add-bias",
         "--model-out", model)
    return wl, model.read_text(encoding="utf-8")


def _package_dataset(path):
    spec = DatasetSpec(normalization="global-max-norm", add_bias=True)
    return load_dataset(path, spec)


def test_prepared_features_match_the_package_bit_for_bit(scene):
    wl, text = scene
    _, _, _, meta = oracles.parse_model_document(text)
    raw = load_dataset(wl.path("heldout.csv"), DatasetSpec())
    package = add_bias_column(scale_features(raw, meta["feature_scale"])).feature_matrix
    ours = inputs.prepare_features(wl.x_heldout, meta["feature_scale"], True)
    assert np.array_equal(package, ours)


def test_exact_map_matches_map_bruteforce_on_the_trained_scene_model(scene):
    wl, text = scene
    beta, alpha, _, meta = oracles.parse_model_document(text)
    assert np.any(alpha)
    params = corrlog.serialize.load_model(text).params
    x = inputs.prepare_features(np.vstack([wl.x_heldout, wl.x]), meta["feature_scale"], True)
    labels, best = oracles.exact_map(beta, alpha, x)
    reference = np.array([map_bruteforce(params, row) for row in x])
    assert np.array_equal(labels, reference)
    assert np.allclose(best, oracles.joint_scores(beta, alpha, x, reference), rtol=0, atol=1e-12)
    agreement, gap = oracles.map_quality(beta, alpha, x, reference)
    assert agreement == 1.0 and gap < 1e-12


def test_exact_map_ties_go_to_plus_one_first():
    beta = np.zeros((3, 2))
    alpha = np.triu(np.full((3, 3), -1.0), 1)  # frustrated triangle: six optima
    labels, _ = oracles.exact_map(beta, alpha, np.zeros((1, 2)))
    params = corrlog.model.ModelParams(beta=beta, alpha={(0, 1): -1.0, (0, 2): -1.0,
                                                         (1, 2): -1.0},
                                       num_labels=3, num_features=2)
    assert labels[0].tolist() == map_bruteforce(params, np.zeros(2)).tolist() == [1, 1, -1]


def test_edge_free_exact_map_matches_map_bruteforce_on_the_sparse_model(tmp_path):
    wl = ScoreSparse(tmp_path)
    wl.n = 600
    wl.generate(1)
    text = (tmp_path / "model.json").read_text(encoding="utf-8")
    beta, alpha, _, meta = oracles.parse_model_document(text)
    params = corrlog.serialize.load_model(text).params
    spec = DatasetSpec(format="sparse-multilabel", num_labels=wl.m, num_features=wl.d)
    raw = load_dataset(tmp_path / "scores.txt", spec)
    x = add_bias_column(scale_features(raw, meta["feature_scale"])).feature_matrix[:3]
    labels, _ = oracles.exact_map(beta, alpha, x)
    assert np.array_equal(labels, np.array([map_bruteforce(params, row) for row in x]))


@pytest.mark.parametrize("workload", ["cv_scene", "train_wide"])
def test_objective_and_residual_match_the_package(scene, tmp_path, workload):
    if workload == "cv_scene":
        wl, text = scene
    else:
        wl = TrainWide(tmp_path)
        wl.generate(1)
        model = tmp_path / "model.json"
        _cli("train", wl.path("train.csv"), "--normalize", "global-max-norm", "--add-bias",
             "--max-iters", "40", "--model-out", model)
        text = model.read_text(encoding="utf-8")
    beta, alpha, reg, meta = oracles.parse_model_document(text)
    doc = corrlog.serialize.load_model(text)
    dataset = _package_dataset(wl.path("train.csv"))
    x = inputs.prepare_features(wl.x, meta["feature_scale"], True)
    ours = oracles.pl_objective(beta, alpha, x, wl.y, reg)
    assert ours == pytest.approx(full_objective(doc.params, dataset, doc.reg), rel=1e-12)
    residual = oracles.pl_residual(beta, alpha, x, wl.y, reg)
    assert residual == pytest.approx(subgradient_residual(doc.params, dataset, doc.reg),
                                     rel=1e-9, abs=1e-12)
    assert residual > 0.0


def test_output_checks_reject_malformed_files(tmp_path):
    preds = tmp_path / "preds.txt"
    preds.write_text("1,-1\n1,0\n", encoding="utf-8")
    with pytest.raises(oracles.CheckFailed):
        oracles.read_predictions(preds, 2, 2)
    with pytest.raises(oracles.CheckFailed):
        oracles.read_predictions(preds, 3, 2)
    cv = tmp_path / "cv.json"
    entry = {"mean": 0.5, "std": 0.1, "per_fold": [0.5, 0.5]}
    cv.write_text(json.dumps({name: entry for name in oracles.METRIC_NAMES}), encoding="utf-8")
    with pytest.raises(oracles.CheckFailed, match="t-test"):
        oracles.check_cv_json(cv, 2)


def test_a_cycle_passes_its_checks_and_repeats(tmp_path):
    wl = CvScene(tmp_path)
    wl.n, wl.n_heldout = 40, 10
    wl.generate(3)
    ops = Ops()
    first, second = wl.cycle(ops), wl.cycle(ops)
    assert ops.failed == 0, ops.errors
    assert first[1:] == second[1:]
    assert set(first[2]) == {"train_objective", "train_residual", "iterations", "map_agreement",
                             "map_score_gap", "hamming_loss", "zero_one_loss",
                             "exact_map_hamming_loss"}


def test_a_failing_call_is_counted(tmp_path):
    ops = Ops()
    assert ops.cli(["eval", str(tmp_path / "missing.json"), str(tmp_path / "none.csv")]) is None
    assert ops.cli(["train"]) is None  # usage error
    assert (ops.attempted, ops.failed) == (2, 2)


def test_tracer_records_layers_and_restores_the_package(scene, tmp_path):
    wl, _ = scene
    original = corrlog.optimizer.smooth_grad_dense
    matrix = vars(corrlog.model.MultilabelDataset)["feature_matrix"]
    tracer = Tracer()
    tracer.install()
    try:
        _cli("train", wl.path("train.csv"), "--normalize", "global-max-norm", "--add-bias",
             "--max-iters", "20", "--model-out", tmp_path / "m.json")
    finally:
        tracer.uninstall()
    assert corrlog.optimizer.smooth_grad_dense is original
    assert vars(corrlog.model.MultilabelDataset)["feature_matrix"] is matrix
    metrics, absent = median_metrics([CycleSpans(tracer.spans, 0)], tracer.missing)
    assert absent == []
    assert metrics["optimizer.iterations"]["value"] == 20
    assert metrics["objective.passes_per_iter"]["value"] > 2
    layers = sum(metrics[f"{layer}.self_s"]["value"] for layer in
                 ("cli", "data", "serialize", "objective", "optimizer"))
    main_span = next(s for s in tracer.spans if s[0] == "cli.main")
    assert layers == pytest.approx(main_span[2] - main_span[1], rel=1e-9)


def test_a_missing_wrapped_name_marks_its_metrics_absent(scene, tmp_path, monkeypatch):
    wl, _ = scene
    monkeypatch.delattr(corrlog.optimizer, "smooth_grad_dense")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    metrics, absent = median_metrics([CycleSpans(tracer.spans, 0)], tracer.missing)
    assert tracer.missing == ["corrlog.optimizer.smooth_grad_dense"]
    assert {"objective.pass_ms", "objective.passes_per_iter", "objective.self_s"} <= set(absent)
    assert "data.load_s" in metrics and "objective.pass_ms" not in metrics
