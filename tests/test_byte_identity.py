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
        "199acb3726c410cd0ae986c238a60b086a0cd6457ccff82913190fb1efabda9d",
        "717787a55cb8d962c5768dc5c3a7b09160911de72da6b59fd41144053bae79c6"),
    ("wide", "ilrs"): (
        "172e2668ce6e815b80f6eeb5cc2dd00187cbe76f3a74b422ae3f487d4cfbb35a",
        "20874eaad1c0b01f60c93e0573409dd3edbb762dcb80da3ed6937dc4d184aaed"),
    ("single_label", "corrlog"): (
        "988b4aedd12b125284e8116be4270a669be4f6fadef8b175b99a81a8888f4b0b",
        "94d7ce189d238ebbb79c6a23c50f5feb851f427caeb13279a12c5846b82e809c"),
    ("single_label", "ilrs"): (
        "988b4aedd12b125284e8116be4270a669be4f6fadef8b175b99a81a8888f4b0b",
        "d086353c1515904f0fb8771e5248e2306646f394defc55c1dd0d0ac8b0929aab"),
    ("alpha_killed", "corrlog"): (
        "faad7b78207c5a9565caf84a96a70b87df790e8b22a5df08a6a026ad2ec021d2",
        "f8939c25cc5380b58b99ae429a8a29b31df31d698a67ff94cb114f6dfdb93fdc"),
    ("alpha_killed", "ilrs"): (
        "faad7b78207c5a9565caf84a96a70b87df790e8b22a5df08a6a026ad2ec021d2",
        "278258b258f84f9090b023c5780535ff996b25107cc718ecefc4f4e3bee43d76"),
    ("capped", "corrlog"): (
        "55d952ae4a8c7f02e7fd1eb47121413c8c33f42d9df63836a16e21ff5f2733a3",
        "f42b2793dd43bb091afc0672028ba7befd2a58943d6d1e21a6b87a2028806ad0"),
    ("capped", "ilrs"): (
        "ce1203b42d26fa969fef0ed6ef5f28a6c6e8cb2611c71924d987e6308421ab58",
        "c30f0084a97795b9ab7759f458cdf048781530296e6339d75996200c9e274bf8"),
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
