"""Command-line entry points: train, predict, eval, cv, synth, graph, stability.

``main`` echoes a subcommand's resolved configuration as one line of standard JSON
(a non-finite float as its string), runs it, and maps failures
to distinct exit codes: 0 success, 2 usage error (argparse), 3 data/parse error,
4 numeric failure.  ``eval``, ``cv``, ``graph`` and ``stability`` write a JSON twin
of their table with ``--json-out``, each through ``serialize.dump_json``: standard
JSON, 2-space indent, sorted keys, a trailing newline, and an infinite t-statistic
written as null.  Flag defaults and choices are read from the library objects the
flags configure.  Every data command reads its files with ``_load_data`` and
prepares them with ``_prepare``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .data import (
    FORMATS,
    NORMALIZATIONS,
    DatasetSpec,
    ToySpec,
    add_bias_column,
    compute_feature_scale,
    generate_toy,
    load_dataset,
    scale_features,
    write_dense_csv,
)
from .errors import DataError, ModelFormatError, NumericError, ParseError
from .evaluation import (
    compare_cv,
    cross_validate,
    predict_dataset,
    stability_experiment,
)
from .inference import decodes_exactly
from .metrics import DISPLAY_NAMES, METRIC_NAMES, compute_metrics
from .model import default_label_names
from .objective import RegularizationConfig
from .optimizer import TrainConfig, train_corrlog, train_ilrs
from .serialize import EDGE_THRESHOLD, dump_json, export_label_graph, load_model, save_model

EXIT_OK = 0
EXIT_DATA = 3
EXIT_NUMERIC = 4
# what `predict`, and `eval` of a wide model, say of labels not decoded exactly
LOCAL_OPTIMA = ("the labels are local optima (no single flip raises a row's score) "
                "and are not certified exact")


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read_model(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return load_model(fh.read())


def _add_format_flags(parser: argparse.ArgumentParser, counts_from: str = "inferred") -> None:
    parser.add_argument("--format", choices=FORMATS,
                        default=DatasetSpec.format, help="input dataset format")
    parser.add_argument("--num-labels", type=int, default=None,
                        help=f"label count for sparse files (else {counts_from})")
    parser.add_argument("--num-features", type=int, default=None,
                        help=f"feature count for sparse files (else {counts_from})")


def _add_reg_flags(parser: argparse.ArgumentParser) -> None:
    config = TrainConfig()
    parser.add_argument("--lambda1", type=float, default=config.reg.lambda1,
                        help="quadratic+l1 weight on per-label coefficients")
    parser.add_argument("--lambda2", type=float, default=config.reg.lambda2,
                        help="quadratic+l1 weight on pairwise weights")
    parser.add_argument("--epsilon", type=float, default=config.reg.epsilon,
                        help="l1 share of the elastic net (0 = pure quadratic)")
    parser.add_argument("--max-iters", type=int, default=config.max_iters,
                        help="iteration cap for training")
    parser.add_argument("--tol", type=float, default=config.rel_tol,
                        help="relative objective-change stopping tolerance")


def _train_config(args: argparse.Namespace) -> TrainConfig:
    return TrainConfig(
        reg=RegularizationConfig(args.lambda1, args.lambda2, args.epsilon),
        max_iters=args.max_iters,
        rel_tol=args.tol,
    )


def _add_training_flags(parser: argparse.ArgumentParser, before: str) -> None:
    """The format, preparation and regularization flags of train and cv."""
    _add_format_flags(parser)
    parser.add_argument("--normalize", choices=NORMALIZATIONS, default=DatasetSpec.normalization,
                        help=f"feature normalization applied before {before}")
    parser.add_argument("--add-bias", action="store_true",
                        help="append a constant feature column after normalization")
    _add_reg_flags(parser)


def _add_scoring_args(parser: argparse.ArgumentParser) -> None:
    """The model, data and format arguments of predict and eval; decoding takes no settings."""
    parser.add_argument("model")
    parser.add_argument("data")
    _add_format_flags(parser, "taken from the model")


def _load_data(args: argparse.Namespace, path: str, num_labels: int | None = None,
               num_features: int | None = None):
    """Read ``path`` in ``args.format``; ``num_labels`` and ``num_features`` are a sparse
    file's counts unless ``args`` give them (a dense file's header gives its own)."""
    sparse = args.format == "sparse-multilabel"
    return load_dataset(path, DatasetSpec(
        format=args.format,
        num_labels=num_labels if args.num_labels is None and sparse else args.num_labels,
        num_features=num_features if args.num_features is None and sparse else args.num_features,
    ))


def _prepare(dataset, scale: float | None, add_bias: bool):
    """Divide by ``scale`` unless it is None or 0, then add the bias column if asked."""
    if scale is not None and scale != 0:
        dataset = scale_features(dataset, scale)
    return add_bias_column(dataset) if add_bias else dataset


def _prepare_like_training(args: argparse.Namespace):
    """``args.data`` normalized and biased as ``args`` ask, and the feature scale used."""
    dataset = _load_data(args, args.data)
    scale = compute_feature_scale(dataset) if args.normalize == "global-max-norm" else None
    return _prepare(dataset, scale, args.add_bias), scale


def cmd_train(args: argparse.Namespace) -> None:
    dataset, scale = _prepare_like_training(args)
    config = _train_config(args)
    params, trace = (train_ilrs if args.ilrs else train_corrlog)(dataset, config)
    metadata = {
        "trainer": "ilrs" if args.ilrs else "corrlog",
        "label_names": list(dataset.label_names),
        "feature_scale": scale,
        "add_bias": args.add_bias,
        "source_format": args.format,
    }
    _write(args.model_out, save_model(params, config.reg, metadata))
    if trace.records:
        final = trace.records[-1]
        print(f"final objective {final.objective:.10g} after {final.iteration + 1} iterations")
    print(f"nnz(alpha) {params.nnz_alpha()}  nnz(beta) {params.nnz_beta()}")
    print(f"model written to {args.model_out}")


def _load_model_and_data(args: argparse.Namespace):
    doc = _read_model(args.model)
    add_bias = bool(doc.metadata.get("add_bias"))
    # a sparse file is as wide as the model before its bias column (a model of the
    # bias column alone leaves the width to the file); the data is prepared as for training
    dataset = _load_data(args, args.data, doc.params.num_labels,
                         doc.params.num_features - add_bias or None)
    dataset = _prepare(dataset, doc.metadata.get("feature_scale"), add_bias)
    if dataset.num_features != doc.params.num_features:
        raise DataError(
            f"model expects {doc.params.num_features} features, data has {dataset.num_features}"
        )
    if dataset.num_labels != doc.params.num_labels:
        raise DataError(
            f"model predicts {doc.params.num_labels} labels, data has {dataset.num_labels}"
        )
    return doc, dataset


def cmd_predict(args: argparse.Namespace) -> None:
    doc, dataset = _load_model_and_data(args)
    preds = predict_dataset(doc.params, dataset)
    with open(args.out, "w", encoding="utf-8") as fh:
        np.savetxt(fh, preds, fmt="%d", delimiter=",")
    print(f"{len(preds)} predictions written to {args.out}")
    print("every instance was decoded exactly" if decodes_exactly(doc.params) else LOCAL_OPTIMA)


def cmd_eval(args: argparse.Namespace) -> None:
    doc, dataset = _load_model_and_data(args)
    report = compute_metrics(dataset.labels, predict_dataset(doc.params, dataset))
    for name in METRIC_NAMES:
        print(f"{DISPLAY_NAMES[name]:<13} {getattr(report, name):.4f}")
    if not decodes_exactly(doc.params):
        print(LOCAL_OPTIMA)
    if args.json_out:
        _write(args.json_out, dump_json(report.as_dict()))


def cmd_cv(args: argparse.Namespace) -> None:
    dataset, _ = _prepare_like_training(args)
    config = _train_config(args)
    result = cross_validate(dataset, args.folds, "corrlog", config, args.seed)
    if args.compare_ilrs:
        baseline = cross_validate(dataset, args.folds, "ilrs", config, args.seed)
        result = compare_cv(result, baseline)
        print(baseline.to_text())
    print(result.to_text())
    if args.json_out:
        _write(args.json_out, dump_json(result.as_dict()))


def cmd_synth(args: argparse.Namespace) -> None:
    train, test = generate_toy(ToySpec(n_train=args.n_train, n_test=args.n_test, seed=args.seed))
    write_dense_csv(train, args.train_out)
    write_dense_csv(test, args.test_out)
    print(f"wrote {len(train)} training rows to {args.train_out}")
    print(f"wrote {len(test)} test rows to {args.test_out}")


def cmd_graph(args: argparse.Namespace) -> None:
    doc = _read_model(args.model)
    names = doc.metadata.get("label_names") or default_label_names(doc.params.num_labels)
    graph = export_label_graph(doc.params, names, threshold=args.threshold)
    print(f"{len(graph.nodes)} nodes, {len(graph.edges)} edges above |weight| > {args.threshold:g}")
    if args.dot_out:
        _write(args.dot_out, graph.to_dot())
    else:
        print(graph.to_dot(), end="")
    if args.json_out:
        _write(args.json_out, dump_json(graph.as_dict()))


def cmd_stability(args: argparse.Namespace) -> None:
    dataset = _load_data(args, args.data)
    # a sparse pool is as wide as the training set
    pool = _load_data(args, args.pool, dataset.num_labels, dataset.num_features)
    dataset, pool = (_prepare(ds, None, args.add_bias) for ds in (dataset, pool))
    config = _train_config(args)
    report = stability_experiment(dataset, config, trials=args.trials,
                                  seed=args.seed, pool=pool)
    print(report.to_text())
    if args.json_out:
        _write(args.json_out, dump_json(report.as_dict()))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrlog",
        description="Pairwise-correlated logistic multilabel classifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, help_text):
        return sub.add_parser(
            name, help=help_text,
            formatter_class=argparse.ArgumentDefaultsHelpFormatter,
        )

    p = add_command("train", "fit a model and write a model document")
    p.add_argument("data", help="training dataset file")
    _add_training_flags(p, "training")
    p.add_argument("--ilrs", action="store_true",
                   help="train independent logistic regressions (no pairwise weights)")
    p.add_argument("--model-out", required=True, help="model document output path")
    p.set_defaults(func=cmd_train)

    p = add_command("predict", "decode labels for every instance")
    _add_scoring_args(p)
    p.add_argument("--out", required=True, help="predictions output file")
    p.set_defaults(func=cmd_predict)

    p = add_command("eval", "score a model on labeled data")
    _add_scoring_args(p)
    p.add_argument("--json-out", default=None, help="also write metrics as JSON")
    p.set_defaults(func=cmd_eval)

    p = add_command("cv", "k-fold cross-validation of the correlated model")
    p.add_argument("data")
    _add_training_flags(p, "folding")
    p.add_argument("--folds", type=int, default=5, help="number of folds")
    p.add_argument("--compare-ilrs", action="store_true",
                   help="also run the independent baseline and attach paired t-tests")
    p.add_argument("--seed", type=int, default=0, help="fold-assignment seed")
    p.add_argument("--json-out", default=None, help="also write the table as JSON")
    p.set_defaults(func=cmd_cv)

    toy = ToySpec()
    p = add_command("synth", "generate the correlated two-label toy data")
    p.add_argument("--n-train", type=int, default=toy.n_train, help="training rows")
    p.add_argument("--n-test", type=int, default=toy.n_test, help="test rows")
    p.add_argument("--seed", type=int, default=toy.seed, help="generator seed")
    p.add_argument("--train-out", default="toy_train.csv", help="training CSV path")
    p.add_argument("--test-out", default="toy_test.csv", help="test CSV path")
    p.set_defaults(func=cmd_synth)

    p = add_command("graph", "export the label-interaction graph")
    p.add_argument("model")
    p.add_argument("--threshold", type=float, default=EDGE_THRESHOLD,
                   help="drop edges with |weight| at or below this")
    p.add_argument("--dot-out", default=None, help="write DOT here instead of stdout")
    p.add_argument("--json-out", default=None, help="also write the graph as JSON")
    p.set_defaults(func=cmd_graph)

    p = add_command("stability", "replace-one retraining stability check")
    p.add_argument("data")
    p.add_argument("--pool", required=True,
                   help="held-out pool supplying replacement examples")
    _add_format_flags(p)
    p.add_argument("--add-bias", action="store_true",
                   help="append a constant feature column to data and pool")
    _add_reg_flags(p)
    # the parameter-movement bound assumes near-exact minimizers
    p.set_defaults(tol=1e-9, max_iters=100000)
    p.add_argument("--trials", type=int, default=10, help="replace-one trials")
    p.add_argument("--seed", type=int, default=0, help="replacement-draw seed")
    p.add_argument("--json-out", default=None, help="also write the report as JSON")
    p.set_defaults(func=cmd_stability)

    return parser


def main(argv=None) -> int:
    """Run one subcommand: echo its resolved configuration, then map its outcome to an exit code."""
    args = build_parser().parse_args(argv)
    try:
        # standard JSON: a non-finite float, refused later, is echoed as a string
        echo = {k: str(v) if isinstance(v, float) and not math.isfinite(v) else v
                for k, v in sorted(vars(args).items()) if k != "func"}
        print("config " + json.dumps(echo, default=str, allow_nan=False))
        args.func(args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ParseError, DataError, ModelFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
