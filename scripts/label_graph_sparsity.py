#!/usr/bin/env python3
"""Interaction-graph sparsity study: quadratic-only vs elastic-net training.

Samples a multilabel dataset from a known sparse ground-truth model, trains
with epsilon in {0, 0.1, 1}, and reports how many pairwise weights survive
each setting.  Optionally writes the resulting graphs as DOT files.
"""

import argparse

import numpy as np

from corrlog.inference import sample_from_model
from corrlog.model import ModelParams
from corrlog.objective import RegularizationConfig
from corrlog.optimizer import TrainConfig, train_corrlog
from corrlog.serialize import export_label_graph


def random_truth(m: int, d: int, density: float, seed: int) -> ModelParams:
    rng = np.random.default_rng(seed)
    beta = rng.normal(size=(m, d))
    alpha = {}
    for i in range(m):
        for j in range(i + 1, m):
            if rng.uniform() < density:
                alpha[(i, j)] = float(rng.normal() * 0.7)
    return ModelParams(beta, alpha, m, d)


def run(args) -> None:
    truth = random_truth(args.labels, args.features, args.density, args.seed)
    dataset = sample_from_model(truth, n=args.n, seed=args.seed + 1)
    true_edges = truth.nnz_alpha()
    all_pairs = args.labels * (args.labels - 1) // 2
    print(f"ground truth: {true_edges} of {all_pairs} pairs interacting")
    print(f"{'epsilon':>8}  {'nnz(alpha)':>10}  {'objective path':<14}")
    for eps in (0.0, 0.1, 1.0):
        reg = RegularizationConfig(args.lam, args.lam, eps)
        params, trace = train_corrlog(
            dataset, TrainConfig(reg=reg, max_iters=args.max_iters, rel_tol=1e-9)
        )
        nnz = int(np.count_nonzero(np.abs(np.triu(params.alpha, 1)) > 1e-8))
        kind = "quadratic only" if eps == 0 else "elastic net"
        print(f"{eps:>8.1f}  {nnz:>10}  {kind:<14}")
        if args.dot_prefix:
            graph = export_label_graph(params, dataset.label_names)
            path = f"{args.dot_prefix}_eps{eps:g}.dot"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(graph.to_dot())
            print(f"          wrote {path}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--labels", type=int, default=8)
    parser.add_argument("--features", type=int, default=5)
    parser.add_argument("--density", type=float, default=0.25,
                        help="probability that a ground-truth pair interacts")
    parser.add_argument("--n", type=int, default=400)
    parser.add_argument("--lam", type=float, default=0.02,
                        help="shared weight for both regularizer blocks")
    parser.add_argument("--seed", type=int, default=808)
    parser.add_argument("--max-iters", type=int, default=8000)
    parser.add_argument("--dot-prefix", default=None,
                        help="write label graphs to <prefix>_eps*.dot")
    run(parser.parse_args())
