"""Joint MAP label prediction: exact max-sum elimination or loopy max-product.

The prediction problem  argmax_y  sum_i y_i <beta_i, x> + sum_{i<j} alpha_ij y_i y_j
is a MAP query on a pairwise graphical model whose nodes are labels and whose
edges are the nonzero pairwise weights.  When the model's ``elimination_width``
is below ``ENUMERATION_LIMIT``, ``decode_rows`` runs max-sum variable elimination
on a chunk of rows at once: labels are eliminated from last to first into tables
of at most 2^16 entries a row, then read back from first to last with ties to
+1, so each row gets the lexicographically first optimum (+1 before -1), as
``map_bruteforce`` does; it and ``margin`` score all 2^m label vectors of one
row, 2^16 at a time, up to ``BRUTEFORCE_LIMIT`` labels.

Wider models decode by max-product, a heuristic on them.  Messages live in the
log domain, are updated synchronously (flooding), and are renormalized every
round by subtracting their maximum.  One kernel decodes a batch: each round
updates the 2-vector messages of every row and directed edge with a few numpy
operations, and a row is frozen at the round where its own largest message
change drops below 1e-9; ``max_iters`` (the CLI's ``--bp-iters``) caps the
rounds.  Sums on both paths are taken in a fixed order, so a row's labels,
beliefs and convergence flag do not depend on its batch.  ``predict_map_bp``
runs max-product on one vector and also returns its messages and beliefs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .model import ModelParams, _check_dims

ENUMERATION_LIMIT = 16  # exact decoding needs a smaller width; sampling enumerates 2^16
BRUTEFORCE_LIMIT = 20  # largest label count map_bruteforce and margin enumerate
_BLOCK = 1 << 16  # label vectors they score at a time

MAX_ITERS = 50  # message-passing rounds before a row is reported non-converged
_TOLERANCE = 1e-9  # a row converges when no message moves by this much in a round
# Floats per working array when decoding rows (8 MiB); the rows per chunk follow
# from the feature count and the model's largest elimination table or edge count.
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


def _scopes(params: ModelParams) -> list[np.ndarray]:
    """Each label's lower neighbours (ascending) once the labels above it are eliminated."""
    linked = params.alpha != 0
    scopes = []
    for v in range(params.num_labels - 1, -1, -1):
        scopes.append(np.flatnonzero(linked[v, :v]))
        linked[scopes[-1][:, None], scopes[-1]] = True  # eliminating v links its neighbours
    return scopes[::-1]


def elimination_width(params: ModelParams) -> int:
    """The most lower neighbours a label has as labels are eliminated from last to first:
    0 without pairs, 1 on chains and on forests whose parents precede their children."""
    return max(map(len, _scopes(params)), default=0)


def _eliminate(unary: np.ndarray, alpha: np.ndarray, scopes: list[np.ndarray]) -> np.ndarray:
    """Exact MAP labels of rows of unaries (n x m) by max-sum elimination, ties to +1."""
    n, m = unary.shape
    incoming = [[] for _ in range(m)]  # (scope, max table) sent to the bucket of each label
    plus = [None] * m  # whether +1 is best for v at each state of its scope
    for v, scope in reversed(list(enumerate(scopes))):
        # sum_j alpha_jv y_j by doubling: each label's axis above the last, its +1 half first
        pair = np.zeros(1)
        for j in scope:
            pair = np.concatenate([pair + alpha[j, v], pair - alpha[j, v]])
        bucket = np.empty((2, pair.size, n))  # v's state, its scope's, then the row
        np.add(pair[:, None], unary[:, v], out=bucket[0])
        np.negative(bucket[0], out=bucket[1])
        axes, full = bucket.reshape(*[2] * (scope.size + 1), n), [v, *scope[::-1]]
        for sent, table in incoming[v]:
            axes += table.reshape(*[2 if k in sent else 1 for k in full], n)
        plus[v] = bucket[0] >= bucket[1]
        if scope.size:
            incoming[scope[-1]].append((set(scope), np.maximum(bucket[0], bucket[1])))
    minus, rows = np.zeros((m, n), dtype=bool), np.arange(n)  # one row per label
    for v, scope in enumerate(scopes):
        state = (1 << np.arange(scope.size)) @ minus[scope] if scope.size else 0
        minus[v] = ~plus[v].take(state * n + rows)
    return (1 - 2 * minus.view(np.int8)).T


def decode_rows(params: ModelParams, X: np.ndarray,
                max_iters: int = MAX_ITERS) -> tuple[np.ndarray, np.ndarray]:
    """Decode every row of X (n x D); returns (n x m int8 labels, n bool converged).

    When ``elimination_width(params) < ENUMERATION_LIMIT``, row r gets its
    lexicographically first MAP and counts as converged: ``map_bruteforce(params,
    X[r])``, unless two optima differ only by rounding.  Otherwise it gets the labels
    and flag that ``predict_map_bp(params, X[r], max_iters)`` reports.  Rows are decoded
    in chunks whose table, message and feature arrays each stay within
    ``DECODE_CHUNK_FLOATS`` floats, so memory stays bounded at any n.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != params.num_features:
        raise DataError(
            f"feature matrix has shape {X.shape}, expected (n, {params.num_features})"
        )
    if max_iters < 1:
        raise DataError("max_iters must be positive")
    scopes = _scopes(params)
    width = max(map(len, scopes), default=0)
    if width < ENUMERATION_LIMIT:
        floats = 2 << width  # a row's largest bucket table

        def decode(unary):
            return _eliminate(unary, params.alpha, scopes), True
    else:
        layout = _edge_layout(params)
        floats = 4 * layout.src.size  # a row's widest BP temporary: 4 floats per directed edge

        def decode(unary):
            _, beliefs, done, _ = _max_product(unary, layout, max_iters)
            return _labels(beliefs), done
    rows = max(1, DECODE_CHUNK_FLOATS // max(floats, X.shape[1], 1))
    labels = np.empty((X.shape[0], params.num_labels), dtype=np.int8)
    converged = np.empty(X.shape[0], dtype=bool)
    for start in range(0, X.shape[0], rows):
        chunk = X[start:start + rows]
        # one product per row: a batched X @ beta.T rounds differently
        unary = np.empty((len(chunk), params.num_labels))
        for r, x in enumerate(chunk):
            unary[r] = params.beta @ x
        labels[start:start + len(chunk)], converged[start:start + len(chunk)] = decode(unary)
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


def _guard_enumeration(m: int, limit: int) -> None:
    if m > limit:
        raise DataError(f"exact enumeration over 2^{m} label vectors is refused (limit m <= {limit})")


def _configs(m: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Label vectors start..stop-1 of all 2^m (lexicographic, +1 first) as +-1 columns."""
    stop = 1 << m if stop is None else min(stop, 1 << m)
    bits = (np.arange(start, stop) >> np.arange(m - 1, -1, -1)[:, None]) & 1
    return (1 - 2 * bits).astype(float)


def _bruteforce_scores(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Joint scores of all 2^m label vectors of x, ``_BLOCK`` at a time: the pair score
    sum_{i<j} alpha_ij y_i y_j, then unary_i * y_i added label by label."""
    m = params.num_labels
    _guard_enumeration(m, BRUTEFORCE_LIMIT)
    unary, upper, blocks = params.beta @ x, np.triu(params.alpha, 1), []
    for start in range(0, 1 << m, _BLOCK):
        configs = _configs(m, start, start + _BLOCK)
        blocks.append(((upper @ configs) * configs).sum(axis=0))
        for u, row in zip(unary, configs):
            blocks[-1] += u * row
    return np.concatenate(blocks)


def map_bruteforce(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Exact MAP by scoring all 2^m label vectors (m <= ``BRUTEFORCE_LIMIT``).

    Ties go to the lexicographically first optimum with +1 ordered before -1,
    as in every row that ``decode_rows`` decodes exactly.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    _check_dims(params, x)
    best = int(_bruteforce_scores(params, x).argmax())
    return _configs(params.num_labels, best, best + 1)[:, 0].astype(np.int8)


def margin(params: ModelParams, x: np.ndarray, y: np.ndarray) -> float:
    """Score of y minus the best score among all other label vectors.

    Positive exactly when y is the unique MAP labeling; uses full enumeration
    with the scores of ``map_bruteforce``, so it is a desk-scale diagnostic
    (m <= ``BRUTEFORCE_LIMIT``).
    """
    m = params.num_labels
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y).reshape(-1)
    _check_dims(params, x, y)
    if not np.all((y == 1) | (y == -1)):
        raise DataError("labels must be exactly -1 or +1")
    scores = _bruteforce_scores(params, x)
    # y is the vector whose bits, most significant first, mark its -1 labels
    y_index = int(np.dot(y == -1, 1 << np.arange(m - 1, -1, -1)))
    own_score = float(scores[y_index])
    scores[y_index] = -np.inf
    return own_score - float(scores.max())


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
