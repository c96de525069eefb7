"""The three benchmark workloads.

Each workload generates its files from the seed, warms up, and then runs one
*cycle* of CLI calls at a time: the calls a user would make, timed from the
outside, followed by checks of everything the calls wrote.

* ``train_wide``: CLI ``train`` on a dense file with m=50 labels, D=200
  features and latent-factor label correlations, so the pair block has
  m(m-1)/2 = 1225 candidate pairs.  Almost all time is in ``objective`` and
  ``optimizer``: the trainer's passes per iteration, step size and stopping
  rule show here in isolation, and decoding and parsing changes should not
  move it.
* ``cv_scene``: the paper's evaluation protocol on scene-shaped files (m=6,
  D=294).  Labels are sampled exactly from a ground-truth model whose every
  pair is coupled negatively (mutually exclusive scene labels), so the label
  graph is loopy and frustrated and max-product rarely converges.  It runs
  ``cv --folds 5 --compare-ilrs``, ``train`` and ``predict``; decoder speed
  and decoder correctness both show, and exact MAP over 2^6 vectors is cheap.
* ``score_sparse``: CLI ``eval`` of a fixed edge-free model on a large
  LIBSVM-style file.  It is the only workload on the sparse parser,
  densification and memory, uses the per-row decode loop without edges,
  and never trains.
"""

from __future__ import annotations

import hashlib
import io
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import corrlog.cli
import corrlog.serialize
import numpy as np
from corrlog.inference import map_bruteforce

import inputs
import oracles
from oracles import CheckFailed

PREPARE = ["--normalize", "global-max-norm", "--add-bias"]
_FINAL = re.compile(r"final objective (\S+) after (\d+) iterations")


# A typical reference-task time on the baseline machine (2-core Intel Xeon VM,
# numpy 2.4 with OpenBLAS, one thread), so steady seconds read close to wall
# seconds there.
REFERENCE_S = 0.030


class Reference:
    """A fixed task of small matrix products and dict building, timed around each call.

    The machine's speed drifts by up to 1.7x within seconds as neighbours
    load the host.  A CLI call's wall time divided by the reference time
    measured right before and after it, times REFERENCE_S, is its time at a
    steady machine speed: drift scales both alike and cancels.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.normal(size=(300, 251))
        self._b = rng.normal(size=(251, 50))
        self.times: list[float] = []

    def measure(self) -> float:
        start = perf_counter()
        total = 0.0
        for _ in range(40):
            total += float(np.logaddexp(0.0, self._a @ self._b).sum())
            total += sum({i: 0.5 * i for i in range(300)}.values())
        elapsed = perf_counter() - start
        self.times.append(elapsed)
        return elapsed

    def steady(self, wall: float, before: float) -> float:
        """Scale a wall time to the steady speed, given the reference time just before it."""
        return wall * REFERENCE_S / (0.5 * (before + self.measure()))


class Ops:
    """Runs CLI calls and output checks, counting each as one operation."""

    def __init__(self):
        self.reference = Reference()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def cli(self, argv: list[str]) -> tuple[float, float, str] | None:
        """Run ``corrlog <argv>`` in-process.

        Returns (wall seconds, steady seconds, stdout), or None on failure.
        """
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        before = self.reference.measure()
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = corrlog.cli.main(argv)  # looked up per call, so tracing sees it
        except SystemExit as exc:  # argparse rejects a usage error this way
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash of the program is a counted failure
            self._fail(f"corrlog {argv[0]} raised {exc!r}")
            return None
        wall = perf_counter() - start
        steady = self.reference.steady(wall, before)
        if code != 0:
            self._fail(f"corrlog {argv[0]} exited {code}: {err.getvalue().strip()[:200]}")
            return None
        return wall, steady, out.getvalue()

    def check(self, what: str, fn, *args):
        """Run one output check; its result, or None when it fails."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # any check error means the output is not right
            self._fail(f"{what}: {exc!r}")
            return None


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_model_document(path) -> str:
    """The model document must reload and re-save to the same bytes."""
    text = Path(path).read_text(encoding="utf-8")
    doc = corrlog.serialize.load_model(text)
    if corrlog.serialize.save_model(doc.params, doc.reg, doc.metadata) != text:
        raise CheckFailed("model document does not re-save byte-identically")
    return text


def trained_model_quality(text: str, stdout: str, x_raw: np.ndarray, y: np.ndarray) -> dict:
    """Objective and residual of a trained model, recomputed from its hex floats.

    The objective the program printed must be the objective of the model it saved.
    """
    beta, alpha, reg, meta = oracles.parse_model_document(text)
    x = inputs.prepare_features(x_raw, meta["feature_scale"], meta["add_bias"])
    objective = oracles.pl_objective(beta, alpha, x, y, reg)
    found = _FINAL.search(stdout)
    if found is None:
        raise CheckFailed("train printed no final objective")
    printed = float(found.group(1))
    if abs(printed - objective) > 1e-8 * max(1.0, abs(objective)):
        raise CheckFailed(f"printed objective {printed!r} but the saved model's is {objective!r}")
    return {"train_objective": objective,
            "train_residual": oracles.pl_residual(beta, alpha, x, y, reg),
            "iterations": int(found.group(2))}


class Workload:
    name = ""
    shape = ""

    def __init__(self, work: Path):
        self.work = work

    def path(self, name: str) -> str:
        return str(self.work / name)

    def generate(self, seed: int) -> None:
        raise NotImplementedError

    def warm_up(self, ops: Ops) -> None:
        raise NotImplementedError

    def cycle(self, ops: Ops) -> tuple[dict, dict, dict] | None:
        """(CLI timings, output fingerprints, quality figures), or None if a call failed."""
        raise NotImplementedError

    def exact_us_per_row(self) -> float:
        """Cost of the package's exact MAP oracle per predicted row; 0 where it does not apply."""
        return 0.0


class TrainWide(Workload):
    name = "train_wide"
    m, d, n = 50, 200, 300

    def generate(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 1])
        x, self.y = inputs.latent_factor_labels(rng, self.n, self.m, self.d)
        inputs.write_dense_csv(self.path("train.csv"), x, self.y)
        inputs.write_dense_csv(self.path("warm.csv"), x[:60], self.y[:60])
        self.x = inputs.read_dense_features(self.path("train.csv"), self.d)
        self.shape = f"m={self.m} D={self.d} n={self.n} lambda1=lambda2=1e-3 epsilon=1"

    def warm_up(self, ops: Ops) -> None:
        ops.cli(["train", self.path("warm.csv"), *PREPARE, "--max-iters", "25",
                 "--model-out", self.path("warm.model.json")])

    def cycle(self, ops: Ops):
        done = ops.cli(["train", self.path("train.csv"), *PREPARE, "--lambda1", "1e-3",
                        "--lambda2", "1e-3", "--epsilon", "1",
                        "--model-out", self.path("model.json")])
        if done is None:
            return None
        wall, steady, stdout = done
        text = ops.check("model document", check_model_document, self.path("model.json"))
        quality = text and ops.check("training objective", trained_model_quality, text, stdout,
                                     self.x, self.y)
        times = {"job_s": steady, "job_wall_s": wall, "train_s": steady}
        return times, {"model": sha256(self.path("model.json"))}, quality or {}


class CvScene(Workload):
    name = "cv_scene"
    m, d, n, n_heldout, folds = 6, 294, 60, 30, 5

    def generate(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 2])
        beta, alpha = inputs.loopy_pairwise_model(rng, self.m, self.d)
        x, self.y = inputs.scene_rows(rng, self.n, beta, alpha)
        xh, self.y_heldout = inputs.scene_rows(rng, self.n_heldout, beta, alpha)
        inputs.write_dense_csv(self.path("train.csv"), x, self.y)
        inputs.write_dense_csv(self.path("heldout.csv"), xh, self.y_heldout)
        inputs.write_dense_csv(self.path("warm.csv"), x[:20], self.y[:20])
        self.x = inputs.read_dense_features(self.path("train.csv"), self.d)
        self.x_heldout = inputs.read_dense_features(self.path("heldout.csv"), self.d)
        self.shape = (f"m={self.m} D={self.d} n={self.n} heldout={self.n_heldout} "
                      f"folds={self.folds} lambda1=lambda2=1e-3")

    def warm_up(self, ops: Ops) -> None:
        warm, model = self.path("warm.csv"), self.path("warm.model.json")
        ops.cli(["cv", warm, *PREPARE, "--folds", "2", "--compare-ilrs", "--max-iters", "25"])
        ops.cli(["train", warm, *PREPARE, "--max-iters", "25", "--model-out", model])
        ops.cli(["predict", model, warm, "--out", self.path("warm.preds.txt")])

    def cycle(self, ops: Ops):
        data, model, preds = self.path("train.csv"), self.path("model.json"), self.path("preds.txt")
        cv = ops.cli(["cv", data, *PREPARE, "--folds", str(self.folds), "--compare-ilrs",
                      "--json-out", self.path("cv.json")])
        train = ops.cli(["train", data, *PREPARE, "--model-out", model])
        predict = train and ops.cli(["predict", model, self.path("heldout.csv"), "--out", preds])
        if not (cv and train and predict):
            return None
        ops.check("cv JSON", oracles.check_cv_json, self.path("cv.json"), self.folds)
        text = ops.check("model document", check_model_document, model)
        quality = (text and ops.check("training objective", trained_model_quality, text,
                                      train[2], self.x, self.y)) or {}
        labels = ops.check("predictions file", oracles.read_predictions, preds,
                           self.n_heldout, self.m)
        if text and labels is not None:
            beta, alpha, _, meta = oracles.parse_model_document(text)
            xh = inputs.prepare_features(self.x_heldout, meta["feature_scale"], meta["add_bias"])
            agreement, gap = oracles.map_quality(beta, alpha, xh, labels)
            hamming, zero_one = oracles.multilabel_losses(self.y_heldout, labels)
            exact, _ = oracles.exact_map(beta, alpha, xh)
            quality.update(map_agreement=agreement, map_score_gap=gap,
                           hamming_loss=hamming, zero_one_loss=zero_one,
                           exact_map_hamming_loss=oracles.multilabel_losses(self.y_heldout,
                                                                            exact)[0])
        times = {"job_s": cv[1] + train[1] + predict[1],
                 "job_wall_s": cv[0] + train[0] + predict[0], "cv_s": cv[1],
                 "train_s": train[1], "predict_rows_per_s": self.n_heldout / predict[1]}
        prints = {"model": sha256(model), "predictions": sha256(preds),
                  "cv_json": sha256(self.path("cv.json"))}
        return times, prints, quality

    def exact_us_per_row(self) -> float:
        doc = corrlog.serialize.load_model(Path(self.path("model.json")).read_text(encoding="utf-8"))
        meta = doc.metadata
        xh = inputs.prepare_features(self.x_heldout, meta["feature_scale"], meta["add_bias"])
        start = perf_counter()
        for row in xh:
            map_bruteforce(doc.params, row)
        return 1e6 * (perf_counter() - start) / len(xh)


class ScoreSparse(Workload):
    name = "score_sparse"
    m, d, n, nnz = 20, 1000, 10000, 20
    _CHUNK = 2000

    def generate(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 3])
        rows = inputs.sparse_rows(rng, self.n, self.d, self.nnz)
        scale = max(math.sqrt(float(v @ v)) for _, v in rows)
        beta = rng.normal(size=(self.m, self.d + 1)) * 4.0
        beta[:, -1] = rng.uniform(-3.0, 0.0, size=self.m)
        # labels, oracle labels and near-ties a chunk at a time: the dense
        # matrix is never held whole, so the benchmark's own memory stays
        # below the program's
        y, oracle, ties = [], [], 0
        for start in range(0, self.n, self._CHUNK):
            x = inputs.prepare_features(inputs.densify(rows[start:start + self._CHUNK], self.d),
                                        scale, True)
            y.append(inputs.edge_free_labels(rng, beta, x))
            labels, _ = oracles.exact_map(beta, np.zeros((self.m, self.m)), x)
            oracle.append(labels)
            ties += int(np.count_nonzero(np.abs(x @ beta.T) < 1e-9))
        y, oracle = np.vstack(y), np.vstack(oracle)
        self.hamming, self.zero_one = oracles.multilabel_losses(y, oracle)
        self.ties = ties
        meta = {"trainer": "fixed", "label_names": [f"label{i + 1}" for i in range(self.m)],
                "feature_scale": scale, "add_bias": True, "source_format": "sparse-multilabel"}
        inputs.write_model_document(self.path("model.json"), beta, meta)
        inputs.write_sparse(self.path("scores.txt"), rows, y)
        inputs.write_sparse(self.path("warm.txt"), rows[:1000], y[:1000])
        self.shape = f"m={self.m} D={self.d} n={self.n} nnz/row~{self.nnz} edge-free"

    def _eval(self, ops: Ops, data: str, out: str):
        return ops.cli(["eval", self.path("model.json"), data, "--format", "sparse-multilabel",
                        "--num-labels", str(self.m), "--num-features", str(self.d),
                        "--json-out", out])

    def warm_up(self, ops: Ops) -> None:
        self._eval(ops, self.path("warm.txt"), self.path("warm.eval.json"))

    def _check_scores(self, path) -> dict:
        """Edge-free decoding is exact, so the losses must be those of the exact MAP."""
        doc = oracles.check_eval_json(path, self.n)
        allowance = self.ties / (self.n * self.m)
        if abs(doc["hamming_loss"] - self.hamming) > allowance + 1e-12:
            raise CheckFailed(f"Hamming loss {doc['hamming_loss']!r}, exact MAP gives "
                              f"{self.hamming!r}")
        if self.ties == 0 and abs(doc["zero_one_loss"] - self.zero_one) > 1e-12:
            raise CheckFailed(f"0-1 loss {doc['zero_one_loss']!r}, exact MAP gives "
                              f"{self.zero_one!r}")
        return {"hamming_loss": doc["hamming_loss"], "zero_one_loss": doc["zero_one_loss"]}

    def cycle(self, ops: Ops):
        out = self.path("eval.json")
        done = self._eval(ops, self.path("scores.txt"), out)
        if done is None:
            return None
        quality = ops.check("eval JSON", self._check_scores, out) or {}
        times = {"job_s": done[1], "job_wall_s": done[0],
                 "predict_rows_per_s": self.n / done[1]}
        return times, {"eval_json": sha256(out)}, quality


WORKLOADS = {w.name: w for w in (TrainWide, CvScene, ScoreSparse)}
