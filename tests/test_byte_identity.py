"""Byte-identity guard: trained models and traces are pinned by sha256.

Each case trains on a seeded random dataset and hashes two things: the
``save_model`` document and the full list of trace records (every float
written with ``float.hex``).  A change to the trainer's arithmetic that moves
any bit of any coefficient, objective or step size changes a digest.  The
cases cover the correlated model and ILRs, a single label (no pair
coordinates) and a lambda2 large enough that alpha stays all zero.  The digests were taken with numpy 2.4 and OpenBLAS on
x86-64; another BLAS may round the matrix products differently.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from corrlog.objective import RegularizationConfig
from corrlog.optimizer import TrainConfig, train_corrlog, train_ilrs
from corrlog.serialize import save_model

from conftest import random_dataset

# name -> (seed, n, m, d, lambda1, lambda2, max_iters)
CASES = {
    "wide": (101, 40, 5, 6, 0.01, 0.01, 300),
    "single_label": (102, 25, 1, 4, 0.02, 0.02, 300),
    "alpha_killed": (103, 30, 4, 3, 0.01, 50.0, 300),
    "capped": (104, 60, 6, 8, 0.001, 0.003, 15),
}

# (case, trainer) -> (model sha256, trace sha256)
DIGESTS = {
    ("wide", "corrlog"): (
        "4251961eaab84cc620f248535e4e86cd8190700f16b747eb1d5fa87a6888d3cd",
        "fa968744281ea49fc69e6a8e12c5badf1337d1ebf91867977fbeae2042eeaab7"),
    ("wide", "ilrs"): (
        "93ba95bde5bb5e59332c337cc6c60531976fc948fa8f973576c7125ac5914aaf",
        "8f38cd6466f29ea28f07b0c78a41217faaf6d2357718f56dfd5687a1fa00c5e5"),
    ("single_label", "corrlog"): (
        "cf5a99c4eab78ff76ac88f9e5ac130735e79245e7e5d041ff15d0f9251c5921a",
        "4cc78eb8334a318521033a7e26e284f65854757e5fd94dec318ccda7dbef3c7c"),
    ("single_label", "ilrs"): (
        "cf5a99c4eab78ff76ac88f9e5ac130735e79245e7e5d041ff15d0f9251c5921a",
        "c864d2f29eb280a28cb7e634c46cc42d103c3f5662a211f93bdc16ccbf5b1930"),
    ("alpha_killed", "corrlog"): (
        "c93c1da84a77716a1a4eb47d88b1b651417d36e44d8a1462e59b1dd626ad990f",
        "f8939c25cc5380b58b99ae429a8a29b31df31d698a67ff94cb114f6dfdb93fdc"),
    ("alpha_killed", "ilrs"): (
        "c93c1da84a77716a1a4eb47d88b1b651417d36e44d8a1462e59b1dd626ad990f",
        "278258b258f84f9090b023c5780535ff996b25107cc718ecefc4f4e3bee43d76"),
    ("capped", "corrlog"): (
        "c513d5536a38e9583e498c3cf59317f8f18b4726501685aef7c88398791d7d79",
        "f2ac51f1dad5e34e6c0d6fb670c6974865e684dc2ffe77e8df954b770895ae65"),
    ("capped", "ilrs"): (
        "f0c832b2b740063e1b63ee92020e1aa014c37df075c5abfd91e40aea56dd75c4",
        "bc329aef8cb723b417b3b4fea874d320d474ec0cabe984de32bfe1123f081173"),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _train(case: str, trainer: str):
    seed, n, m, d, lam1, lam2, max_iters = CASES[case]
    ds = random_dataset(np.random.default_rng(seed), n, m, d)
    reg = RegularizationConfig(lam1, lam2, 1.0)
    config = TrainConfig(reg=reg, max_iters=max_iters, rel_tol=1e-9)
    params, trace = (train_corrlog if trainer == "corrlog" else train_ilrs)(ds, config)
    converged = trace.converged if trainer == "corrlog" else None
    return params, reg, trace.records, converged


@pytest.mark.parametrize("case,trainer", sorted(DIGESTS))
def test_model_and_trace_digests_are_pinned(case, trainer):
    params, reg, records, converged = _train(case, trainer)
    if case == "alpha_killed":
        assert records and all(r.nnz_alpha == 0 for r in records)
    if case == "capped" and trainer == "corrlog":
        assert len(records) == CASES[case][-1] and converged is False
    trace_doc = json.dumps({
        "converged": converged,
        "records": [[r.iteration, r.objective.hex(), r.step_size.hex(), r.nnz_alpha, r.nnz_beta]
                    for r in records],
    })
    assert (_sha(save_model(params, reg)), _sha(trace_doc)) == DIGESTS[case, trainer]


def test_every_case_is_pinned():
    assert set(DIGESTS) == {(case, trainer) for case in CASES for trainer in ("corrlog", "ilrs")}
