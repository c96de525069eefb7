"""Command-line entry points: train, predict, eval, cv, synth, graph, stability.

Every subcommand echoes its resolved configuration, writes machine-readable
twins (JSON) next to human-readable tables where applicable, and maps failures
to distinct exit codes: 0 success, 2 usage error (argparse), 3 data/parse
error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .data import (
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
from .inference import ENUMERATION_LIMIT, MAX_ITERS, elimination_width
from .metrics import DISPLAY_NAMES, METRIC_NAMES, compute_metrics
from .objective import RegularizationConfig
from .optimizer import TrainConfig, train_corrlog, train_ilrs
from .serialize import export_label_graph, load_model, save_model

EXIT_OK = 0
EXIT_DATA = 3
EXIT_NUMERIC = 4
SHOWN_NONCONVERGED = 20  # `predict` lists at most this many non-converged rows


def _echo_config(args: argparse.Namespace) -> None:
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    print("config " + json.dumps(resolved, default=str))


def _add_format_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=["dense-csv", "sparse-multilabel"],
                        default="dense-csv", help="input dataset format")
    parser.add_argument("--num-labels", type=int, default=None,
                        help="label count for sparse files (else inferred)")
    parser.add_argument("--num-features", type=int, default=None,
                        help="feature count for sparse files (else inferred)")


def _add_reg_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--lambda1", type=float, default=0.001,
                        help="quadratic+l1 weight on per-label coefficients")
    parser.add_argument("--lambda2", type=float, default=0.001,
                        help="quadratic+l1 weight on pairwise weights")
    parser.add_argument("--epsilon", type=float, default=1.0,
                        help="l1 share of the elastic net (0 = pure quadratic)")
    parser.add_argument("--max-iters", type=int, default=5000,
                        help="iteration cap for training")
    parser.add_argument("--tol", type=float, default=1e-7,
                        help="relative objective-change stopping tolerance")
    parser.add_argument("--no-accel", action="store_true",
                        help="disable momentum acceleration")


def _train_config(args: argparse.Namespace) -> TrainConfig:
    return TrainConfig(
        reg=RegularizationConfig(args.lambda1, args.lambda2, args.epsilon),
        max_iters=args.max_iters,
        rel_tol=args.tol,
        accelerate=not args.no_accel,
    )


def _load_data(args: argparse.Namespace, feature_scale: float | None = None,
               add_bias: bool = False):
    """Load ``args.data``; a given ``feature_scale`` and ``add_bias`` prepare it as it loads."""
    spec = DatasetSpec(
        format=args.format,
        num_labels=args.num_labels,
        num_features=args.num_features,
        normalization="none" if feature_scale is None else "global-max-norm",
        add_bias=add_bias,
    )
    return load_dataset(args.data, spec, feature_scale=feature_scale)


def _prepare_like_training(dataset, normalize: bool, add_bias: bool):
    scale = compute_feature_scale(dataset) if normalize else None
    if normalize and scale > 0:
        dataset = scale_features(dataset, scale)
    if add_bias:
        dataset = add_bias_column(dataset)
    return dataset, scale


def cmd_train(args: argparse.Namespace) -> int:
    _echo_config(args)
    dataset, scale = _prepare_like_training(
        _load_data(args), args.normalize == "global-max-norm", args.add_bias
    )
    config = _train_config(args)
    records = []
    if args.ilrs:
        params = train_ilrs(dataset, config, progress=records.append)
    else:
        params, _ = train_corrlog(dataset, config, progress=records.append)
    final = records[-1] if records else None
    metadata = {
        "trainer": "ilrs" if args.ilrs else "corrlog",
        "label_names": list(dataset.label_names),
        "feature_scale": scale,
        "add_bias": args.add_bias,
        "source_format": args.format,
    }
    document = save_model(params, config.reg, metadata)
    with open(args.model_out, "w", encoding="utf-8") as fh:
        fh.write(document)
    if final is not None:
        print(f"final objective {final.objective:.10g} after {final.iteration + 1} iterations")
    print(f"nnz(alpha) {params.nnz_alpha()}  nnz(beta) {params.nnz_beta()}")
    print(f"model written to {args.model_out}")
    return EXIT_OK


def _load_model_and_data(args: argparse.Namespace):
    with open(args.model, "r", encoding="utf-8") as fh:
        doc = load_model(fh.read())
    meta = doc.metadata
    # the training preparation is known before the data is read, so a sparse
    # file is written into one prepared array
    dataset = _load_data(args, meta.get("feature_scale"), bool(meta.get("add_bias", False)))
    if dataset.num_features != doc.params.num_features:
        raise DataError(
            f"model expects {doc.params.num_features} features, data has {dataset.num_features}"
        )
    if dataset.num_labels != doc.params.num_labels:
        raise DataError(
            f"model predicts {doc.params.num_labels} labels, data has {dataset.num_labels}"
        )
    return doc, dataset


def cmd_predict(args: argparse.Namespace) -> int:
    _echo_config(args)
    doc, dataset = _load_model_and_data(args)
    preds, flagged = predict_dataset(doc.params, dataset, args.bp_iters)
    lines = [",".join(str(int(v)) for v in row) for row in preds]
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"{len(lines)} predictions written to {args.out}")
    if flagged:
        shown = " ".join(map(str, flagged[:SHOWN_NONCONVERGED]))
        more = " ..." if len(flagged) > SHOWN_NONCONVERGED else ""
        print(f"message passing did not converge on instances: {shown}{more} "
              f"({len(flagged)} of {len(preds)} rows)")
    elif elimination_width(doc.params) < ENUMERATION_LIMIT:
        print("every instance was decoded exactly")
    else:
        print("message passing converged on every instance")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    _echo_config(args)
    doc, dataset = _load_model_and_data(args)
    preds, flagged = predict_dataset(doc.params, dataset, args.bp_iters)
    report = compute_metrics(dataset.labels, preds)
    for name in METRIC_NAMES:
        print(f"{DISPLAY_NAMES[name]:<13} {getattr(report, name):.4f}")
    if flagged:
        print(f"non-converged instances: {len(flagged)}")
    if args.json_out:
        payload = report.as_dict() | {"n_eval": report.n_eval}
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK


def cmd_cv(args: argparse.Namespace) -> int:
    _echo_config(args)
    dataset, _ = _prepare_like_training(
        _load_data(args), args.normalize == "global-max-norm", args.add_bias
    )
    config = _train_config(args)
    result = cross_validate(dataset, args.folds, args.trainer, config, args.seed)
    if args.compare_ilrs and args.trainer != "ilrs":
        baseline = cross_validate(dataset, args.folds, "ilrs", config, args.seed)
        result = compare_cv(result, baseline)
        print(baseline.to_text())
    print(result.to_text())
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(result.to_json() + "\n")
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    _echo_config(args)
    spec = ToySpec(n_train=args.n_train, n_test=args.n_test, seed=args.seed)
    train, test = generate_toy(spec)
    write_dense_csv(train, args.train_out)
    write_dense_csv(test, args.test_out)
    print(f"wrote {len(train)} training rows to {args.train_out}")
    print(f"wrote {len(test)} test rows to {args.test_out}")
    return EXIT_OK


def cmd_graph(args: argparse.Namespace) -> int:
    _echo_config(args)
    with open(args.model, "r", encoding="utf-8") as fh:
        doc = load_model(fh.read())
    names = doc.metadata.get("label_names") or [
        f"label{i + 1}" for i in range(doc.params.num_labels)
    ]
    graph = export_label_graph(doc.params, names, threshold=args.threshold)
    print(f"{len(graph.nodes)} nodes, {len(graph.edges)} edges above |weight| > {args.threshold:g}")
    if args.dot_out:
        with open(args.dot_out, "w", encoding="utf-8") as fh:
            fh.write(graph.to_dot())
    else:
        print(graph.to_dot(), end="")
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(graph.to_json())
    return EXIT_OK


def cmd_stability(args: argparse.Namespace) -> int:
    _echo_config(args)
    dataset = _load_data(args)
    pool_spec = DatasetSpec(format=args.format, num_labels=args.num_labels,
                            num_features=args.num_features)
    pool = load_dataset(args.pool, pool_spec)
    if args.add_bias:
        dataset = add_bias_column(dataset)
        pool = add_bias_column(pool)
    config = _train_config(args)
    report = stability_experiment(dataset, config, trials=args.trials,
                                  seed=args.seed, pool=pool)
    print(report.to_text())
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrlog",
        description="Pairwise-correlated logistic multilabel classifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    bp_iters_help = "message-passing round cap, used only by models too wide to decode exactly"

    def add_command(name, help_text):
        return sub.add_parser(
            name, help=help_text,
            formatter_class=argparse.ArgumentDefaultsHelpFormatter,
        )

    p = add_command("train", "fit a model and write a model document")
    p.add_argument("data", help="training dataset file")
    _add_format_flags(p)
    p.add_argument("--normalize", choices=["none", "global-max-norm"], default="none",
                   help="feature normalization applied before training")
    p.add_argument("--add-bias", action="store_true",
                   help="append a constant feature column after normalization")
    _add_reg_flags(p)
    p.add_argument("--ilrs", action="store_true",
                   help="train independent logistic regressions (no pairwise weights)")
    p.add_argument("--model-out", required=True, help="model document output path")
    p.set_defaults(func=cmd_train)

    p = add_command("predict", "decode labels for every instance")
    p.add_argument("model")
    p.add_argument("data")
    _add_format_flags(p)
    p.add_argument("--bp-iters", type=int, default=MAX_ITERS, help=bp_iters_help)
    p.add_argument("--out", required=True, help="predictions output file")
    p.set_defaults(func=cmd_predict)

    p = add_command("eval", "score a model on labeled data")
    p.add_argument("model")
    p.add_argument("data")
    _add_format_flags(p)
    p.add_argument("--bp-iters", type=int, default=MAX_ITERS, help=bp_iters_help)
    p.add_argument("--json-out", default=None, help="also write metrics as JSON")
    p.set_defaults(func=cmd_eval)

    p = add_command("cv", "k-fold cross-validation")
    p.add_argument("data")
    _add_format_flags(p)
    p.add_argument("--normalize", choices=["none", "global-max-norm"], default="none",
                   help="feature normalization applied before folding")
    p.add_argument("--add-bias", action="store_true",
                   help="append a constant feature column after normalization")
    _add_reg_flags(p)
    p.add_argument("--folds", type=int, default=5, help="number of folds")
    p.add_argument("--trainer", choices=["corrlog", "ilrs"], default="corrlog",
                   help="which model to cross-validate")
    p.add_argument("--compare-ilrs", action="store_true",
                   help="also run the independent baseline and attach paired t-tests")
    p.add_argument("--seed", type=int, default=0, help="fold-assignment seed")
    p.add_argument("--json-out", default=None, help="also write the table as JSON")
    p.set_defaults(func=cmd_cv)

    p = add_command("synth", "generate the correlated two-label toy data")
    p.add_argument("--n-train", type=int, default=500, help="training rows")
    p.add_argument("--n-test", type=int, default=500, help="test rows")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--train-out", default="toy_train.csv", help="training CSV path")
    p.add_argument("--test-out", default="toy_test.csv", help="test CSV path")
    p.set_defaults(func=cmd_synth)

    p = add_command("graph", "export the label-interaction graph")
    p.add_argument("model")
    p.add_argument("--threshold", type=float, default=1e-8,
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ParseError, DataError, ModelFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
