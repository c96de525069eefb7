#!/usr/bin/env python3
"""Correlated two-label toy study: joint decoding vs independent baselines.

Trains both models on freshly generated toy data for several seeds and prints
per-seed and mean 0-1 losses, plus how often each model predicts the label
combination the generator can never produce.
"""

import argparse

import numpy as np

from corrlog.data import ToySpec, add_bias_column, generate_toy
from corrlog.evaluation import predict_dataset
from corrlog.metrics import compute_metrics
from corrlog.objective import RegularizationConfig
from corrlog.optimizer import TrainConfig, train_corrlog, train_ilrs


def run(args) -> None:
    config = TrainConfig(
        reg=RegularizationConfig(args.lambda1, args.lambda2, args.epsilon),
        max_iters=args.max_iters,
        rel_tol=args.tol,
    )
    corr_losses, ilrs_losses = [], []
    corr_impossible, ilrs_impossible = [], []
    print(f"{'seed':>4}  {'corrlog':>8}  {'ilrs':>8}  {'imp(corr)':>9}  {'imp(ilrs)':>9}  {'alpha12':>8}")
    for seed in range(args.seeds):
        train, test = generate_toy(ToySpec(n_train=args.n, n_test=args.n, seed=seed))
        train, test = add_bias_column(train), add_bias_column(test)
        corr, _ = train_corrlog(train, config)
        ilrs = train_ilrs(train, config)
        y_true = test.labels
        corr_pred, _ = predict_dataset(corr, test)
        ilrs_pred, _ = predict_dataset(ilrs, test)
        zc = compute_metrics(y_true, corr_pred).zero_one_loss
        zi = compute_metrics(y_true, ilrs_pred).zero_one_loss
        ic = float(np.mean((corr_pred[:, 0] == 1) & (corr_pred[:, 1] == -1)))
        ii = float(np.mean((ilrs_pred[:, 0] == 1) & (ilrs_pred[:, 1] == -1)))
        corr_losses.append(zc)
        ilrs_losses.append(zi)
        corr_impossible.append(ic)
        ilrs_impossible.append(ii)
        print(f"{seed:>4}  {zc:>8.3f}  {zi:>8.3f}  {ic:>9.3f}  {ii:>9.3f}  {corr.alpha[0, 1]:>8.3f}")
    print()
    print(f"mean 0-1 loss: corrlog {np.mean(corr_losses):.4f}  ilrs {np.mean(ilrs_losses):.4f}")
    print(f"mean impossible-pair rate: corrlog {np.mean(corr_impossible):.4f}  "
          f"ilrs {np.mean(ilrs_impossible):.4f}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--n", type=int, default=500, help="train and test size")
    parser.add_argument("--lambda1", type=float, default=0.001)
    parser.add_argument("--lambda2", type=float, default=0.001)
    parser.add_argument("--epsilon", type=float, default=0.0)
    parser.add_argument("--max-iters", type=int, default=20000)
    parser.add_argument("--tol", type=float, default=1e-8)
    run(parser.parse_args())
