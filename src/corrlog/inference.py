"""Joint MAP label prediction (exact max-sum elimination, or ICM) and exact label sampling.

The prediction problem  argmax_y  sum_i y_i <beta_i, x> + sum_{i<j} alpha_ij y_i y_j
is a MAP query on a pairwise graphical model whose nodes are labels and whose
edges are the nonzero pairwise weights.  ``decode_rows`` slices a chunk of rows at
a time and takes their unaries <beta_i, x> in one stacked product that rounds each
row as ``beta @ x``.  When ``decodes_exactly`` (``elimination_width`` below
``ENUMERATION_LIMIT``), it runs max-sum variable elimination on the chunk: labels
are eliminated from last to first into tables of at most 2^16 entries a row, then
read back from first to last with ties to +1, so each row gets the lexicographically
first optimum, as ``map_bruteforce`` does; it and ``margin`` score all 2^m label
vectors of one row, up to ``BRUTEFORCE_LIMIT`` labels.  ``sample_from_model`` draws
labels exactly from p(y | x) over all 2^m, up to ``ENUMERATION_LIMIT`` labels.
``model._joint_scores`` computes every joint score, and one rule holds for them all:
a label score, single or summed, that is not a finite float raises ``NumericError``.

Wider models decode by iterated conditional modes (ICM; Besag 1986), a heuristic
that takes no settings and returns local optima.  Both paths take sums per row in
a fixed order, so a row's labels do not depend on its chunk.

``predict_map_bp`` decodes one vector by loopy max-product on a dense m x m x 2
array of log-domain messages, ``[i, j]`` from label i to label j and 0 where
alpha_ij is 0.  Each round updates every message at once and renormalizes it by
its maximum, until no message moves by 1e-9 or ``MAX_ITERS`` rounds have run.
A label's incoming messages are added in ascending label order, one label at a
time, so messages and beliefs equal those of a per-edge decoder that adds them
in that order, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericError
from .model import (DECODE_CHUNK_FLOATS, ModelParams, MultilabelDataset, _joint_scores,
                    _label_scores, _row, check_seed, default_label_names)

ENUMERATION_LIMIT = 16  # exact decoding needs a smaller width; sampling enumerates 2^16
BRUTEFORCE_LIMIT = 20  # largest label count map_bruteforce and margin enumerate
_BLOCK = 1 << 12  # label vectors they score at a time

MAX_ITERS = 50  # max-product rounds before a vector is reported non-converged
_TOLERANCE = 1e-9  # max-product converges when no message moves by this much in a round

# index 0 holds the value for state +1, index 1 for state -1
_STATES = np.array([1.0, -1.0])


@dataclass
class BeliefState:
    """Messages and beliefs left by a decoding run.

    ``messages[(i, j)]`` is the log-domain message from label i to label j,
    one value per target state (+1 first); messages exist only for edges with
    a nonzero pairwise weight.  ``beliefs[i]`` holds the two log max-marginals
    of label i.
    """

    messages: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    beliefs: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))
    converged: bool = False
    iterations_run: int = 0


def _scopes(params: ModelParams) -> list[np.ndarray]:
    """Each label's lower neighbours (ascending) once the labels above it are eliminated."""
    linked = params.alpha != 0
    scopes = []
    for v in range(params.num_labels - 1, -1, -1):
        scopes.append(linked[v, :v].nonzero()[0])
        linked[scopes[-1][:, None], scopes[-1]] = True  # eliminating v links its neighbours
    return scopes[::-1]


def elimination_width(params: ModelParams) -> int:
    """The most lower neighbours a label has as labels are eliminated from last to first:
    0 without pairs, 1 on chains and on forests whose parents precede their children."""
    return max(map(len, _scopes(params)), default=0)


def decodes_exactly(params: ModelParams) -> bool:
    """Whether ``decode_rows`` decodes exactly (else by ICM): width below the limit."""
    return elimination_width(params) < ENUMERATION_LIMIT


def _eliminate(unary: np.ndarray, alpha: np.ndarray, scopes: list[np.ndarray]) -> np.ndarray:
    """Exact MAP labels of rows of unaries (n x m) by max-sum elimination, ties to +1."""
    n, m = unary.shape
    incoming = [[] for _ in range(m)]  # (scope, max table) sent to the bucket of each label
    plus = [None] * m  # whether +1 is best for v at each state of its scope
    signed = alpha[:, :, None, None] * _STATES[:, None]  # [j, v]: alpha_jv y_j, y_j = +1, -1
    for v in range(m - 1, -1, -1):
        scope = scopes[v]
        if not (scope.size or incoming[v]):
            continue  # a label without pairs: its one-entry bucket is read off below
        # sum_j alpha_jv y_j by doubling: each label's axis above the last, its +1 half first
        pair = np.zeros(1)
        for j in scope:
            pair = (pair + signed[j, v]).ravel()
        bucket = np.empty((2, pair.size, n))  # v's state, its scope's, then the row
        np.add(pair[:, None], unary[:, v], out=bucket[0])
        np.negative(bucket[0], out=bucket[1])
        axes, full = bucket.reshape(*[2] * (scope.size + 1), n), [v, *scope[::-1]]
        for sent, table in incoming[v]:
            axes += table.reshape(*[2 if k in sent else 1 for k in full], n)
        plus[v] = bucket[0] >= bucket[1]
        if scope.size:
            incoming[scope[-1]].append((set(scope), np.maximum(bucket[0], bucket[1])))
    # every label as if it had no pairs: -1 where its unary is negative, ties to +1
    minus, rows, bits = (unary < -unary).T.copy(), np.arange(n), 1 << np.arange(m)
    for v, scope in enumerate(scopes):
        if plus[v] is not None:  # the row's state of v's scope indexes plus[v]
            np.logical_not(plus[v][bits[:scope.size] @ minus[scope], rows], out=minus[v])
    return (1 - 2 * minus.view(np.int8)).T


def _icm(unary: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Local-optimum labels of rows of unaries (n x m) by iterated conditional modes.

    Each start (the sign rule with ties to +1, all +1, all -1) sweeps the labels in
    order, flipping a label when that raises the row's score, until a sweep flips
    nothing; each row keeps its best-scoring start, the earlier one on a tie.
    """
    best, best_score = np.empty_like(unary), np.full(len(unary), -np.inf)
    for y in (np.where(unary >= 0, 1.0, -1.0), np.ones_like(unary), -np.ones_like(unary)):
        flipped = True
        while flipped:
            flipped = False
            for i in range(unary.shape[1]):
                # flipping y_i changes the score by -2 y_i (u_i + sum_j alpha_ij y_j)
                up = y[:, i] * (unary[:, i] + (y[:, None, :] @ alpha[:, i])[:, 0]) < 0
                if up.any():
                    y[up, i] *= -1
                    flipped = True
        score = _joint_scores(alpha, y, unary, "a row decoded by ICM")
        better = score > best_score
        best[better], best_score[better] = y[better], score[better]
    return best.astype(np.int8)


def decode_rows(params: ModelParams, X) -> np.ndarray:
    """Decode every row of X (n x D) into n x m int8 labels.

    When ``decodes_exactly(params)``, row r gets its lexicographically first MAP:
    ``map_bruteforce(params, X[r])``, unless two optima differ only by rounding.
    Otherwise it gets ICM's labels, a local optimum that no single flip improves.  X,
    an array, a list of rows or ``CsrRows``, is read only through ``np.shape`` and row
    slices: one chunk at a time, whose working arrays and dense slice each stay within
    ``DECODE_CHUNK_FLOATS`` floats (at least one row), so memory stays bounded at any n.
    A row raises ``NumericError`` with its index when its score bound, sum_i |u_i| +
    sum_{i<j} |alpha_ij|, which no label vector's score exceeds in size, is not finite.
    """
    shape = np.shape(X)
    if len(shape) != 2 or shape[1] != params.num_features:
        raise DataError(f"feature matrix has shape {shape}, expected (n, {params.num_features})")
    scopes = _scopes(params)
    width = max(map(len, scopes), default=0)
    exact = width < ENUMERATION_LIMIT  # decodes_exactly's rule, on the scopes built once
    # a row's largest bucket table; ICM's arrays hold one float per label
    floats = 2 << width if exact else params.num_labels
    rows = max(1, DECODE_CHUNK_FLOATS // max(floats, params.num_labels, params.num_features))
    labels = np.empty((shape[0], params.num_labels), dtype=np.int8)
    pair_bound = np.abs(np.triu(params.alpha, 1)).sum()
    for start in range(0, shape[0], rows):
        # (1 x D) @ (D x m) per row, as beta @ x, so each row rounds alike; the slice is freed
        with np.errstate(over="ignore", invalid="ignore"):
            unary = np.matmul(np.asarray(X[start:start + rows], float)[:, None, :], params.beta.T)[:, 0]
            bound = np.abs(unary).sum(axis=1) + pair_bound
        if not (finite := np.isfinite(bound)).all():
            raise NumericError(f"row {start + finite.argmin()} has label scores that are not finite")
        labels[start:start + rows] = (_eliminate(unary, params.alpha, scopes) if exact
                                      else _icm(unary, params.alpha))
    return labels


def predict_map_bp(params: ModelParams, x: np.ndarray) -> tuple[np.ndarray, BeliefState]:
    """Decode the most probable label vector for x by max-product; returns (labels, state).

    With an empty interaction map this reduces exactly to per-label sign
    decisions (ties to +1).  Non-convergence within ``MAX_ITERS`` rounds is
    reported on the state, not raised; label scores that are not finite raise
    ``NumericError``.
    """
    x = _row(params, x)
    m, edge = params.num_labels, params.alpha != 0
    node_terms = _label_scores(params, x)[:, None] * _STATES  # y_i * unary[i], +1 first
    # [i, j, s_i, s_j]: weight * s_i * s_j
    pairwise = params.alpha[:, :, None, None] * np.outer(_STATES, _STATES)
    messages = np.zeros((m, m, 2))  # [i, j]: from label i to label j, 0 off the edges
    converged, rounds = not edge.any(), 0
    while not converged and rounds < MAX_ITERS:
        # [j, i]: log-belief of i without what j sent it, the messages of k = 0, 1, ...
        # added in turn.  A non-edge sends exactly 0, which at most flips the sign of a
        # zero sum, and adding the nonzero edge weight below erases that sign
        src_belief = np.repeat(node_terms[None], m, axis=0)
        for k, sent in enumerate(messages):
            src_belief[:k] += sent
            src_belief[k + 1:] += sent
        # msg[i, j, s_j] = max over s_i of src_belief[j, i, s_i] + weight * s_i * s_j
        msg = (src_belief.transpose(1, 0, 2)[..., None] + pairwise).max(axis=-2)
        updated = np.where(edge[:, :, None], msg - msg.max(axis=-1, keepdims=True), 0.0)
        converged = bool(np.abs(updated - messages).max() < _TOLERANCE)
        messages, rounds = updated, rounds + 1
    beliefs = node_terms.copy()  # a -0.0 shows here, so only edges add, k = 0, 1, ...
    for k, sent in enumerate(messages):
        np.add(beliefs, sent, out=beliefs, where=edge[k][:, None])
    state = BeliefState(
        messages={key: messages[key] for i, j, _ in params.pairs() for key in ((i, j), (j, i))},
        beliefs=beliefs,
        converged=converged,
        iterations_run=rounds,
    )
    return np.where(beliefs[:, 0] >= beliefs[:, 1], 1, -1).astype(np.int8), state


def _guard_enumeration(m: int, limit: int) -> None:
    if m > limit:
        raise DataError(f"exact enumeration over 2^{m} label vectors is refused (limit m <= {limit})")


def _configs(m: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Label vectors start..stop-1 of all 2^m (lexicographic, +1 first) as +-1 rows."""
    stop = 1 << m if stop is None else min(stop, 1 << m)
    # each index's 32 bits, most significant first; the last m mark its -1 labels
    bits = np.unpackbits(np.arange(start, stop, dtype=">u4").view(np.uint8).reshape(-1, 4), axis=1)
    return 1.0 - 2.0 * bits[:, 32 - m:]


def _bruteforce_scores(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Joint scores of all 2^m label vectors of x, scored ``_BLOCK`` at a time."""
    m = params.num_labels
    _guard_enumeration(m, BRUTEFORCE_LIMIT)
    unary = _label_scores(params, x)
    return np.concatenate([_joint_scores(params.alpha, _configs(m, s, s + _BLOCK), unary, "x")
                           for s in range(0, 1 << m, _BLOCK)])


def map_bruteforce(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Exact MAP by scoring all 2^m label vectors (m <= ``BRUTEFORCE_LIMIT``).

    Ties go to the lexicographically first optimum with +1 ordered before -1,
    as in every row that ``decode_rows`` decodes exactly.
    """
    best = int(_bruteforce_scores(params, _row(params, x)).argmax())
    return _configs(params.num_labels, best, best + 1)[0].astype(np.int8)


def sample_from_model(params: ModelParams, n: int, seed: int) -> MultilabelDataset:
    """Draw n instances with x uniform in the unit ball and y ~ p(y|x; params).

    Labels are sampled exactly by enumerating all 2^m configurations, so the
    label count must stay small (m <= ``ENUMERATION_LIMIT``).
    """
    m, d = params.num_labels, params.num_features
    _guard_enumeration(m, ENUMERATION_LIMIT)
    if d < 1:
        raise DataError(f"sampling x from the unit ball needs at least one feature, got {d}")
    configs, rng = _configs(m), np.random.default_rng(check_seed(seed))
    features, labels = np.empty((n, d)), np.empty((n, m), dtype=np.int8)
    for r in range(n):
        v = rng.normal(size=d)
        x = v / np.linalg.norm(v) * rng.uniform() ** (1.0 / d)
        with np.errstate(over="ignore", invalid="ignore"):
            scores = _joint_scores(params.alpha, configs, params.beta @ x, f"drawn row {r}")
            probs = np.exp(scores - scores.max())  # a gap past the largest float weighs 0
        probs /= probs.sum()
        features[r] = x
        labels[r] = configs[rng.choice(2 ** m, p=probs)]
    return MultilabelDataset(features, labels, default_label_names(m))


def margin(params: ModelParams, x: np.ndarray, y: np.ndarray) -> float:
    """Score of y minus the best score among all other label vectors.

    Positive exactly when y is the unique MAP labeling; uses full enumeration
    with the scores of ``map_bruteforce``, so it is a desk-scale diagnostic
    (m <= ``BRUTEFORCE_LIMIT``).
    """
    x, y = _row(params, x, y)
    scores = _bruteforce_scores(params, x)
    # y is the vector whose bits, most significant first, mark its -1 labels
    y_index = int(np.dot(y == -1, 1 << np.arange(len(y) - 1, -1, -1)))
    own_score = float(scores[y_index])
    scores[y_index] = -np.inf
    gap = own_score - float(scores.max())  # two finite scores may differ by more than a float
    if not np.isfinite(gap):
        raise NumericError("x has a margin that is not finite")
    return gap


def margin_loss(params: ModelParams, x: np.ndarray, y: np.ndarray,
                gamma: float = 1.0) -> float:
    """Ramp loss of the margin: 1 below zero, 0 above gamma, linear between."""
    if not gamma > 0:  # NaN fails too
        raise DataError("gamma must be positive")
    f = margin(params, x, y)
    if f < 0:
        return 1.0
    if f >= gamma:
        return 0.0
    return 1.0 - f / gamma
