"""Byte-identity guard: trained models and traces are pinned by sha256.

Each case trains on a seeded random dataset and hashes two things: the
``save_model`` document and the full list of trace records (every float
written with ``float.hex``).  A change to the trainer's arithmetic that moves
any bit of any coefficient, objective or step size changes a digest.  The
cases cover the correlated model and ILRs, with and without momentum, a
single label (no pair coordinates) and a lambda2 large enough that alpha
stays all zero.  The digests were taken with numpy 2.4 and OpenBLAS on
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
    "capped": (104, 60, 6, 8, 0.001, 0.003, 40),
}

# (case, trainer, accelerate) -> (model sha256, trace sha256)
DIGESTS = {
    ("wide", "corrlog", True): (
        "8428e52dea08c100cd2b4aa908de940b413ba0dddac6e734a0164e5d7b9d5e2f",
        "39f28d53907bd5d6104f4aca45a340d8e92858cf67b3e0fa2f0069786290b389"),
    ("wide", "corrlog", False): (
        "4da47a7c79ef5f305fc7f2b1e68e6515cb6b123fcbc6b16b81b5fe7c8af21303",
        "136b7773ff95c5dc5d11c53b9f7d69df46fd8fde9a78f091cfd046f3ab04b199"),
    ("wide", "ilrs", True): (
        "fe7242b875c8d4a72bd976dd3b8fca005321e030510a6be0e0d35a8d19acb205",
        "a5e54e75d2635027c14b5b94057c1b6da4d5f28c0a6a48f8a8a2eb19437d6d40"),
    ("wide", "ilrs", False): (
        "ac9beb2092dd2c5cb97a419b6b613687d84694bac372ace4b90bab2c9a5c339d",
        "eb78e461ca729fc702854947f7100c5d3f3b5fd643f711dfd1448d718aea5e8c"),
    ("single_label", "corrlog", True): (
        "56aa6711c2a6ee29e30231e733f4e62ced2522c7a15911b5420094582716f401",
        "954250c62f7d13fa483290113dcc2f8b35a0680d0766931fdfa6165d55befa3e"),
    ("single_label", "corrlog", False): (
        "ccf01445ce21b238696976c5847b72a52175e6a23785bbde62d4ebbdd2c7817a",
        "7847d4c3b1e9e58307c914736bcf92a6ab66208770db47051cfe6b75cb126159"),
    ("single_label", "ilrs", True): (
        "56aa6711c2a6ee29e30231e733f4e62ced2522c7a15911b5420094582716f401",
        "f5f873358cc51afa5e5cafd71c615020049be947c23a7d24ca9ad9f2ed650c93"),
    ("single_label", "ilrs", False): (
        "ccf01445ce21b238696976c5847b72a52175e6a23785bbde62d4ebbdd2c7817a",
        "a807bd7986093b7c7f3bd2e9fa7b994031a55b433e633f774d0d1ba480d2d306"),
    ("alpha_killed", "corrlog", True): (
        "605d046dd9f57b3137f5bec3d910d978be2cb61cedd79e630ffa7f0acb098d4f",
        "3aecc3c4eb028ada1c21bb7ca50739b20a9a0b04b5d1b80db6e499235cbb9cc6"),
    ("alpha_killed", "corrlog", False): (
        "af856d15d7178e2de79152d458b9556b2ed2b310356789f141ec9e7bcb924c7e",
        "f902748d1949ac13517b017f6745cbaa504abd2389a1773b7313db137397cf8e"),
    ("alpha_killed", "ilrs", True): (
        "605d046dd9f57b3137f5bec3d910d978be2cb61cedd79e630ffa7f0acb098d4f",
        "50f2145f9a923e5e661c8da2bbbaf93dd535427cd5593fb7e7a09e4f64d30351"),
    ("alpha_killed", "ilrs", False): (
        "af856d15d7178e2de79152d458b9556b2ed2b310356789f141ec9e7bcb924c7e",
        "e611a6b18c5d5d0402c823b552a30db1a2c6fe62db6d52de796b016d666abb4c"),
    ("capped", "corrlog", True): (
        "dda2e7b53565adb867cfd2c1c124eb13e5ca817ad3546fecf87469a6861ab14a",
        "a459af6073f5be4c83273e8af43fe700212b8336ca73e9e002edb22c44e1a3aa"),
    ("capped", "corrlog", False): (
        "0e7ad33f57498e8556645e6369b03b9e97257c373a09d2e19b1b2189d749537e",
        "9a4b1ed73438871ccaacc55bd2ee4633eeb0681bf8ac424a17ec1b38c4f87d26"),
    ("capped", "ilrs", True): (
        "3a2076f5b3a6a33d5a923159a436357da76c4775aded5e0b02523d3ca95ce670",
        "39beebdb35d143449cbba2cf088b5f770fbf2b64e7948cab5fb386a1a8fe071c"),
    ("capped", "ilrs", False): (
        "c19e5bd1d26c1f0fc2997f52399578cf7a339303ff4d641b7bf677464a6dda92",
        "929e53172ac7272348498c6f83254c6c6982400f34b7917629eaa1409a8b0be6"),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _train(case: str, trainer: str, accelerate: bool):
    seed, n, m, d, lam1, lam2, max_iters = CASES[case]
    ds = random_dataset(np.random.default_rng(seed), n, m, d)
    reg = RegularizationConfig(lam1, lam2, 1.0)
    config = TrainConfig(reg=reg, max_iters=max_iters, rel_tol=1e-9, accelerate=accelerate)
    params, trace = (train_corrlog if trainer == "corrlog" else train_ilrs)(ds, config)
    converged = trace.converged if trainer == "corrlog" else None
    return params, reg, trace.records, converged


@pytest.mark.parametrize("case,trainer,accelerate", sorted(DIGESTS))
def test_model_and_trace_digests_are_pinned(case, trainer, accelerate):
    params, reg, records, converged = _train(case, trainer, accelerate)
    if case == "alpha_killed":
        assert records and all(r.nnz_alpha == 0 for r in records)
    trace_doc = json.dumps({
        "converged": converged,
        "records": [[r.iteration, r.objective.hex(), r.step_size.hex(), r.nnz_alpha, r.nnz_beta]
                    for r in records],
    })
    assert (_sha(save_model(params, reg)), _sha(trace_doc)) == DIGESTS[case, trainer, accelerate]


def test_every_case_is_pinned():
    assert set(DIGESTS) == {(case, trainer, accelerate) for case in CASES
                            for trainer in ("corrlog", "ilrs") for accelerate in (True, False)}
