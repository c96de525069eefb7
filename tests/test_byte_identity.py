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
    "capped": (104, 60, 6, 8, 0.001, 0.003, 15),
}

# (case, trainer, accelerate) -> (model sha256, trace sha256)
DIGESTS = {
    ("wide", "corrlog", True): (
        "4251961eaab84cc620f248535e4e86cd8190700f16b747eb1d5fa87a6888d3cd",
        "fa968744281ea49fc69e6a8e12c5badf1337d1ebf91867977fbeae2042eeaab7"),
    ("wide", "corrlog", False): (
        "bc327578988bb6fb75936e635546c7e64435d88245ae10624593a0194c3eef3a",
        "a7a348c8cf87503a48357417d0f9d18aa4d1bc6c166b53583374881394acab33"),
    ("wide", "ilrs", True): (
        "93ba95bde5bb5e59332c337cc6c60531976fc948fa8f973576c7125ac5914aaf",
        "8f38cd6466f29ea28f07b0c78a41217faaf6d2357718f56dfd5687a1fa00c5e5"),
    ("wide", "ilrs", False): (
        "a2760d1a69ad2e779294c0c0e1e35cb2267a0e94c4c1a2bc8138f3df94387738",
        "d051f30c95d8af709e1bb6a033ceab3056f528f11e030af061b14174e8aa6bea"),
    ("single_label", "corrlog", True): (
        "cf5a99c4eab78ff76ac88f9e5ac130735e79245e7e5d041ff15d0f9251c5921a",
        "4cc78eb8334a318521033a7e26e284f65854757e5fd94dec318ccda7dbef3c7c"),
    ("single_label", "corrlog", False): (
        "2a3ce8f7c8d47bfc3abd85795fdc5f7ed453a630afcb4642b3bc25c6562cdedc",
        "02069e08d3387987766123876e72d7cbc26be6ac40305769ed6dd3c98f844ebd"),
    ("single_label", "ilrs", True): (
        "cf5a99c4eab78ff76ac88f9e5ac130735e79245e7e5d041ff15d0f9251c5921a",
        "c864d2f29eb280a28cb7e634c46cc42d103c3f5662a211f93bdc16ccbf5b1930"),
    ("single_label", "ilrs", False): (
        "2a3ce8f7c8d47bfc3abd85795fdc5f7ed453a630afcb4642b3bc25c6562cdedc",
        "c8358189a6c6f7f4f55faf52123e9fd522aa06f5d18f534e48188b318582c4a8"),
    ("alpha_killed", "corrlog", True): (
        "c93c1da84a77716a1a4eb47d88b1b651417d36e44d8a1462e59b1dd626ad990f",
        "f8939c25cc5380b58b99ae429a8a29b31df31d698a67ff94cb114f6dfdb93fdc"),
    ("alpha_killed", "corrlog", False): (
        "7dd0cdfeae4f379546353d82a2f706ed2b817367d32bb7ccc9eedc5923a94be7",
        "2ebbc1b770f769b5d602326d0fdf70db83159703b68ff8d9fd1bd41e2c7959ee"),
    ("alpha_killed", "ilrs", True): (
        "c93c1da84a77716a1a4eb47d88b1b651417d36e44d8a1462e59b1dd626ad990f",
        "278258b258f84f9090b023c5780535ff996b25107cc718ecefc4f4e3bee43d76"),
    ("alpha_killed", "ilrs", False): (
        "7dd0cdfeae4f379546353d82a2f706ed2b817367d32bb7ccc9eedc5923a94be7",
        "fe82b38dbfa757e7b64ea3a9c4fed48d0d9a10eae727e05d55d4538bd4c66560"),
    ("capped", "corrlog", True): (
        "c513d5536a38e9583e498c3cf59317f8f18b4726501685aef7c88398791d7d79",
        "f2ac51f1dad5e34e6c0d6fb670c6974865e684dc2ffe77e8df954b770895ae65"),
    ("capped", "corrlog", False): (
        "eeffcf12278a8f445b720c0b9b75956a0bfc54917487b7436d8e7dafdfde6799",
        "7c877592df56a664f2949af843a546146332c0a17551ac3cb7e606a57d274946"),
    ("capped", "ilrs", True): (
        "f0c832b2b740063e1b63ee92020e1aa014c37df075c5abfd91e40aea56dd75c4",
        "bc329aef8cb723b417b3b4fea874d320d474ec0cabe984de32bfe1123f081173"),
    ("capped", "ilrs", False): (
        "660935d6b79b00abd12bc5f7cfe6180ff866f11fa7c06b347e5a22507db5d753",
        "7ab2ce4f7dc603e7a6651a40db2a8d10227da5d79afdf29833b310ef0e04832a"),
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
    if case == "capped" and trainer == "corrlog":
        assert len(records) == CASES[case][-1] and converged is False
    trace_doc = json.dumps({
        "converged": converged,
        "records": [[r.iteration, r.objective.hex(), r.step_size.hex(), r.nnz_alpha, r.nnz_beta]
                    for r in records],
    })
    assert (_sha(save_model(params, reg)), _sha(trace_doc)) == DIGESTS[case, trainer, accelerate]


def test_every_case_is_pinned():
    assert set(DIGESTS) == {(case, trainer, accelerate) for case in CASES
                            for trainer in ("corrlog", "ilrs") for accelerate in (True, False)}
