"""Reference values that do not come from the routes under test.

Every function here works straight from the inputs the benchmark draws
(site distributions, transition matrices, arc cut points) with plain
numpy. None of them calls into ``folner_entropy``; they are what the
benchmark checks the library's answers against.
"""

from __future__ import annotations

import numpy as np


def shannon(p) -> float:
    """-sum p log p in nats over the positive entries."""
    p = np.asarray(p, dtype=np.float64).ravel()
    p = p[p > 0.0]
    return float(-(p * np.log(p)).sum())


def stationary(P: np.ndarray) -> np.ndarray:
    """Stationary row vector of an irreducible stochastic matrix.

    Solves pi (P - I) = 0 with sum(pi) = 1 as one linear system.
    """
    m = P.shape[0]
    A = np.vstack([(P - np.eye(m)).T, np.ones(m)])
    b = np.zeros(m + 1)
    b[-1] = 1.0
    return np.linalg.lstsq(A, b, rcond=None)[0]


def markov_rate(pi: np.ndarray, P: np.ndarray) -> float:
    """h = sum_i pi_i H(P_i), the entropy rate of a stationary chain."""
    return float(sum(pi[i] * shannon(P[i]) for i in range(P.shape[0])))


def markov_interval_entropy(pi: np.ndarray, P: np.ndarray, n: int) -> float:
    """H(X_0..X_{n-1}) = H(pi) + (n - 1) h for the full-symbol chain."""
    return shannon(pi) + (n - 1) * markov_rate(pi, P)


def hidden_markov_block_entropies(pi, P, cell_of, n_max: int) -> list:
    """H(Y_0..Y_{n-1}) for n = 1..n_max, where Y_t = cell_of[X_t].

    Forward recursion over cell patterns: the table holds, for every
    cell pattern so far, its joint mass with the current hidden state.
    It never enumerates symbol words, so it is independent of the
    library's enumeration route.
    """
    cell_of = np.asarray(cell_of)
    n_cells = int(cell_of.max()) + 1
    emit = np.zeros((len(pi), n_cells))
    emit[np.arange(len(pi)), cell_of] = 1.0
    table = (np.asarray(pi)[:, None] * emit).T  # (cell pattern, state)
    out = [shannon(table.sum(axis=1))]
    for _ in range(1, n_max):
        step = table @ P  # (pattern, next state)
        table = (step[:, None, :] * emit.T[None, :, :]).reshape(-1, len(pi))
        out.append(shannon(table.sum(axis=1)))
    return out


def arc_labels(N: int, cuts: np.ndarray) -> np.ndarray:
    """Arc index per point of Z/N for sorted cut points (arc j starts at cuts[j])."""
    return (np.searchsorted(cuts, np.arange(N), side="right") - 1) % len(cuts)


def arc_join_entropy(N: int, cuts: np.ndarray, k: int) -> float:
    """Entropy of the k-step join of an arc partition under x -> x + 1 on Z/N.

    The join's blocks are the arcs between consecutive points of
    {c - j mod N : c a cut, 0 <= j < k}, so the block sizes are the gaps
    between those points. Uniform measure.
    """
    pts = np.unique((np.asarray(cuts)[:, None] - np.arange(k)[None, :]) % N)
    gaps = np.diff(np.append(pts, pts[0] + N))
    return shannon(gaps / N)


def itinerary_entropy(labels: np.ndarray, step: int, k: int, given=None) -> float:
    """H(join of labels(x + step*j), 0 <= j < k | given) under uniform Z/N.

    Groups points by their whole itinerary row (and the conditioning
    label when ``given`` is set) with ``np.unique`` on the rows.
    """
    N = len(labels)
    x = np.arange(N)
    rows = labels[(x[:, None] + step * np.arange(k)[None, :]) % N]
    if given is None:
        _, counts = np.unique(rows, axis=0, return_counts=True)
        return shannon(counts / N)
    rows = np.column_stack([given, rows])
    _, counts = np.unique(rows, axis=0, return_counts=True)
    _, gcounts = np.unique(given, return_counts=True)
    return shannon(counts / N) - shannon(gcounts / N)
