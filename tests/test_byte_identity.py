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
        "9dc6e80b34e8c93bd7369fcf367d58ca094c4ce0b705fb9b540432ca23ef7bbd",
        "f7a6879846fee7895a79b5b5913ef00a32e57e251fa1f30716911fe6ae275d45"),
    ("wide", "ilrs"): (
        "c414b9a4e2146cf92bd5544a5bd891767319e2b1eec27bb3729f8fd138197695",
        "b91ef3bf38b2c6efdb68b5010da09253ac0bc5cf29b6466c0345157bdf169b45"),
    ("single_label", "corrlog"): (
        "cf4a4dc0643301199a998485c624b9444e6aaef6a402e7ccbb4de4041ec65d7f",
        "bfaeee69adb2d65780851d4bc176d6eb0fe2f4a0e50203b7f08e0b966f1ddffe"),
    ("single_label", "ilrs"): (
        "cf4a4dc0643301199a998485c624b9444e6aaef6a402e7ccbb4de4041ec65d7f",
        "1ef2fcf98ae2d859db4b3ca8b6d1619f682c1ab97ab0daffcb041070fafb840c"),
    ("alpha_killed", "corrlog"): (
        "3a64ce5edbb4c952ff72b7a0c3134ccf0159b33febb63b98ceaa4550883311ef",
        "a69f73db7bfa6c0780980186962658331d329b6aa94f6771ebff8d98c0f568d4"),
    ("alpha_killed", "ilrs"): (
        "3a64ce5edbb4c952ff72b7a0c3134ccf0159b33febb63b98ceaa4550883311ef",
        "943c29b8caa5f81cde22af433d9f4cc099c02c8f5afd0285a945a20ac323d9a0"),
    ("capped", "corrlog"): (
        "76a0d4d8117b4df96fb9abae404306a1ee51b13c8d444f714adfefe9d335b0c8",
        "5a42734a98c6b05316b5b86250a6270c222a32f9aebe774452b86a8dc92a1f25"),
    ("capped", "ilrs"): (
        "b3e3275405a50f5510ed59e6608a91a6a11a91af09969d93c3dd3660617db5b3",
        "e2a5d558a459c4a15d87186795a4e4537fe5c738c43ea463eafa97a89a5b7b79"),
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
