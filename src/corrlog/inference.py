"""Joint MAP label prediction by loopy max-product message passing.

The prediction problem  argmax_y  sum_i y_i <beta_i, x> + sum_{i<j} alpha_ij y_i y_j
is a MAP query on a pairwise graphical model whose nodes are labels and whose
edges are the nonzero pairwise weights.  Max-product is exact when that graph
is a forest and a well-tested heuristic on loopy graphs; messages live in the
log domain, are updated synchronously (flooding), and are renormalized every
round by subtracting their maximum, which never changes the argmax.

One kernel decodes a batch: each round updates the 2-vector messages of every
row and every directed edge with a few numpy operations, and a row is frozen
at the round where its own largest message change drops below 1e-9.  The
updates are undamped, and the one setting is the round cap ``max_iters``
(default ``MAX_ITERS``; the CLI's ``--bp-iters``).  Every sum is taken in the
order a one-row loop over a dict of messages would take it, so a row's labels,
beliefs and convergence flag do not depend on the batch it was decoded in.
``decode_rows`` is the batch entry point and decodes its rows in chunks whose
working arrays stay within ``DECODE_CHUNK_FLOATS`` floats; ``predict_map_bp``
decodes one vector and also returns its messages and beliefs.

Ties at decode time resolve to +1; the brute-force oracle mirrors this by
scanning configurations in lexicographic order with +1 sorted before -1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .model import ModelParams, _check_dims

ENUMERATION_LIMIT = 20
_CHUNK = 1 << 16

MAX_ITERS = 50  # message-passing rounds before a row is reported non-converged
_TOLERANCE = 1e-9  # a row converges when no message moves by this much in a round
# Floats per working array when decoding rows (8 MiB); the rows per chunk
# follow from the model's directed-edge count and feature count.
DECODE_CHUNK_FLOATS = 1 << 20

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


@dataclass(frozen=True)
class _EdgeLayout:
    """Index tables of a model's directed edges, fixed once per decoding call.

    Directed edge 2k runs i -> j and 2k + 1 runs j -> i for the k-th nonzero
    pair (i, j) in row-major order.  Level t of ``gather`` lists, for every
    directed edge src -> dst whose source has more than t other incoming
    edges, that edge and the t-th of them in ascending edge order; level t of
    ``deliver`` lists each node with more than t incoming edges and its t-th
    one.  A level that covers every edge or node holds a full slice in place
    of the first index array.  Adding level by level keeps every sum in
    ascending edge order.
    """

    src: np.ndarray
    dst: np.ndarray
    pairwise: np.ndarray  # (2E, 2, 2): weight * s_src * s_dst
    gather: list[tuple[np.ndarray | slice, np.ndarray]]
    deliver: list[tuple[np.ndarray | slice, np.ndarray]]


def _edge_layout(params: ModelParams) -> _EdgeLayout:
    src, dst, weights = [], [], []
    for i, j, v in params.pairs():
        src += [i, j]
        dst += [j, i]
        weights += [v, v]
    incoming: list[list[int]] = [[] for _ in range(params.num_labels)]
    for d, target in enumerate(dst):
        incoming[target].append(d)
    others = [[e for e in incoming[s] if src[e] != t] for s, t in zip(src, dst)]

    def levels(lists):
        out = []
        for level in range(max(map(len, lists), default=0)):
            rows = [r for r, items in enumerate(lists) if len(items) > level]
            picked = np.array([lists[r][level] for r in rows], dtype=np.intp)
            full = len(rows) == len(lists)  # index by a view, not a copy
            out.append((slice(None) if full else np.array(rows, dtype=np.intp), picked))
        return out

    return _EdgeLayout(
        src=np.array(src, dtype=np.intp),
        dst=np.array(dst, dtype=np.intp),
        pairwise=np.array(weights).reshape(-1, 1, 1) * np.outer(_STATES, _STATES),
        gather=levels(others),
        deliver=levels(incoming),
    )


def _message_round(messages: np.ndarray, node_terms: np.ndarray,
                   layout: _EdgeLayout) -> np.ndarray:
    """One synchronous max-product update of every row's directed-edge messages.

    messages is (rows, 2E, 2) and node_terms (rows, m, 2) holds u_i * s_i.
    """
    # accumulated log-belief of src excluding what dst sent it
    src_belief = node_terms[:, layout.src]
    for edges, others in layout.gather:
        src_belief[:, edges] += messages[:, others]
    # msg[s_dst] = max over s_src of src_belief + weight*s_src*s_dst
    msg = (src_belief[..., :, None] + layout.pairwise).max(axis=-2)
    return msg - msg.max(axis=-1, keepdims=True)


def _max_product(unary: np.ndarray, layout: _EdgeLayout, max_iters: int):
    """Loopy max-product on rows of unaries (n x m), each row on its own.

    Returns (messages n x 2E x 2, beliefs n x m x 2, converged n, iterations n).
    A row is frozen at the round whose largest message change drops below the
    tolerance; rows still moving stop at ``max_iters``.
    """
    if max_iters < 1:
        raise DataError("max_iters must be positive")
    n = unary.shape[0]
    node_terms = unary[:, :, None] * _STATES
    messages = np.zeros((n, layout.src.size, 2))
    converged = np.full(n, layout.src.size == 0)
    iterations = np.zeros(n, dtype=np.int64)
    if layout.src.size:
        active = np.arange(n)
        current = messages
        for rnd in range(1, max_iters + 1):
            if not active.size:
                break
            updated = _message_round(current, node_terms[active], layout)
            change = np.abs(updated - current).max(axis=(1, 2))
            current = updated
            iterations[active] = rnd
            done = change < _TOLERANCE
            if done.any():
                messages[active[done]] = current[done]
                converged[active[done]] = True
                active, current = active[~done], current[~done]
        messages[active] = current

    beliefs = node_terms.copy()
    for nodes, edges in layout.deliver:
        beliefs[:, nodes] += messages[:, edges]
    return messages, beliefs, converged, iterations


def _labels(beliefs: np.ndarray) -> np.ndarray:
    return np.where(beliefs[..., 0] >= beliefs[..., 1], 1, -1).astype(np.int8)


def decode_rows(params: ModelParams, X: np.ndarray,
                max_iters: int = MAX_ITERS) -> tuple[np.ndarray, np.ndarray]:
    """Decode every row of X (n x D); returns (n x m int8 labels, n bool converged).

    Row r gets exactly the labels and convergence flag that
    ``predict_map_bp(params, X[r], max_iters)`` reports.  Rows are decoded in
    chunks whose message and feature arrays each stay within
    ``DECODE_CHUNK_FLOATS`` floats, so memory stays bounded at any n.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != params.num_features:
        raise DataError(
            f"feature matrix has shape {X.shape}, expected (n, {params.num_features})"
        )
    layout = _edge_layout(params)
    # a row's widest decoding temporary holds 4 floats per directed edge
    rows = max(1, DECODE_CHUNK_FLOATS // max(4 * layout.src.size, X.shape[1], 1))
    labels = np.empty((X.shape[0], params.num_labels), dtype=np.int8)
    converged = np.empty(X.shape[0], dtype=bool)
    for start in range(0, X.shape[0], rows):
        chunk = X[start:start + rows]
        # one product per row: a batched X @ beta.T rounds differently
        unary = np.empty((len(chunk), params.num_labels))
        for r, x in enumerate(chunk):
            unary[r] = params.beta @ x
        _, beliefs, done, _ = _max_product(unary, layout, max_iters)
        labels[start:start + len(chunk)] = _labels(beliefs)
        converged[start:start + len(chunk)] = done
    return labels, converged


def predict_map_bp(params: ModelParams, x: np.ndarray,
                   max_iters: int = MAX_ITERS) -> tuple[np.ndarray, BeliefState]:
    """Decode the most probable label vector for x; returns (labels, state).

    With an empty interaction map this reduces exactly to per-label sign
    decisions (ties to +1).  Non-convergence within the iteration budget is
    reported on the state, not raised.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    _check_dims(params, x)
    unary = params.beta @ x  # node i carries log-potential y_i * unary[i]
    layout = _edge_layout(params)
    messages, beliefs, converged, iterations = _max_product(unary[None, :], layout, max_iters)
    state = BeliefState(
        messages={(int(s), int(t)): messages[0, d]
                  for d, (s, t) in enumerate(zip(layout.src, layout.dst))},
        beliefs=beliefs[0],
        converged=bool(converged[0]),
        iterations_run=int(iterations[0]),
    )
    return _labels(beliefs[0]), state


def _config_chunks(m: int):
    """Yield (offset, config_block) over all 2^m label vectors, lexicographic."""
    total = 1 << m
    shifts = np.arange(m - 1, -1, -1)
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        bits = (np.arange(start, stop, dtype=np.int64)[:, None] >> shifts) & 1
        yield start, (1 - 2 * bits).astype(float)


def _chunk_scores(params: ModelParams, x: np.ndarray, configs: np.ndarray) -> np.ndarray:
    unary = params.beta @ x
    scores = configs @ unary
    for i, j, v in params.pairs():
        scores += v * configs[:, i] * configs[:, j]
    return scores


def _guard_enumeration(m: int) -> None:
    if m > ENUMERATION_LIMIT:
        raise DataError(
            f"exact enumeration over 2^{m} label vectors is refused (limit m <= {ENUMERATION_LIMIT})"
        )


def map_bruteforce(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Exact MAP by scoring all 2^m label vectors; the testing oracle for BP.

    Ties go to the lexicographically first optimum with +1 ordered before -1.
    """
    _guard_enumeration(params.num_labels)
    x = np.asarray(x, dtype=float).reshape(-1)
    _check_dims(params, x)
    best_score = -np.inf
    best = None
    for _, configs in _config_chunks(params.num_labels):
        scores = _chunk_scores(params, x, configs)
        idx = int(np.argmax(scores))
        if scores[idx] > best_score:
            best_score = float(scores[idx])
            best = configs[idx]
    return best.astype(np.int8)


def margin(params: ModelParams, x: np.ndarray, y: np.ndarray) -> float:
    """Score of y minus the best score among all other label vectors.

    Positive exactly when y is the unique MAP labeling; uses full enumeration,
    so it is a desk-scale diagnostic (m <= 20).
    """
    _guard_enumeration(params.num_labels)
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y).reshape(-1)
    _check_dims(params, x, y)
    m = params.num_labels
    if not np.all((y == 1) | (y == -1)):
        raise DataError("labels must be exactly -1 or +1")
    y_index = 0
    for pos, value in enumerate(y):
        if value == -1:
            y_index |= 1 << (m - 1 - pos)

    own_score = None
    best_other = -np.inf
    for offset, configs in _config_chunks(m):
        scores = _chunk_scores(params, x, configs)
        local = y_index - offset
        if 0 <= local < scores.shape[0]:
            own_score = float(scores[local])
            scores[local] = -np.inf
        best_other = max(best_other, float(scores.max()))
    return own_score - best_other


def margin_loss(params: ModelParams, x: np.ndarray, y: np.ndarray,
                gamma: float = 1.0) -> float:
    """Ramp loss of the margin: 1 below zero, 0 above gamma, linear between."""
    if gamma <= 0:
        raise DataError("gamma must be positive")
    f = margin(params, x, y)
    if f < 0:
        return 1.0
    if f >= gamma:
        return 0.0
    return 1.0 - f / gamma
