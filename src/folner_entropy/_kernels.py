"""Numerical kernels for pattern-measure enumeration and entropy sums.

One vectorised numpy implementation per kernel. The pattern fills
serve Markov window enumeration and ``window_partition``; window
entropies of Bernoulli shifts and mixtures come from closed forms and
need only the entropy reductions.

Pattern arrays are indexed element-major: for window elements listed in
sorted order, the first element is the most significant base-``m`` digit
of the pattern index.
"""

from __future__ import annotations

import numpy as np

_MAX_SAFE_PATTERNS = 1 << 62

# numpy is the only backend; the benchmark's environment record still reads this
HAS_NUMBA = False


def _check_size(n_cells: int, length: int) -> int:
    total = int(n_cells) ** int(length)
    if total > _MAX_SAFE_PATTERNS:
        raise OverflowError("pattern space too large to index")
    return total


# ---------------------------------------------------------------------------
# product measures: log-probabilities of all patterns on a window
# ---------------------------------------------------------------------------


def iid_pattern_logprobs(log_cell: np.ndarray, length: int) -> np.ndarray:
    """Log-measures of all ``m**length`` patterns under a product measure.

    Parameters
    ----------
    log_cell : float64 array, shape (m,)
        Log-masses of the single-site cells. Entries may be ``-inf``.
    length : int
        Number of window elements. ``length == 0`` yields the single
        empty pattern with log-measure 0.
    """
    log_cell = np.ascontiguousarray(log_cell, dtype=np.float64)
    _check_size(log_cell.shape[0], length)
    out = np.zeros(1)
    for _ in range(length):
        out = np.add.outer(out, log_cell).ravel()
    return out


# ---------------------------------------------------------------------------
# stationary Markov measures on d = 1 windows
# ---------------------------------------------------------------------------


def markov_interval_logprobs(log_pi: np.ndarray, log_P: np.ndarray, n: int) -> np.ndarray:
    """Log-measures of all words on the interval window [0, n).

    The word measure is the path product pi(w_0) * prod P(w_i, w_{i+1});
    everything stays in log space so short high-order words and long
    low-probability words are treated alike.
    """
    log_pi = np.ascontiguousarray(log_pi, dtype=np.float64)
    log_P = np.ascontiguousarray(log_P, dtype=np.float64)
    m = log_pi.shape[0]
    _check_size(m, n)
    if n == 0:
        return np.zeros(1)
    out = log_pi.copy()
    for _ in range(n - 1):
        last = np.arange(out.shape[0]) % m
        out = (out[:, None] + log_P[last, :]).ravel()
    return out


def markov_window_probs(pi: np.ndarray, P: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Measures of all patterns on a sorted, possibly gapped d = 1 window.

    Walks the window left to right keeping a table over (pattern so far,
    symbol at the current site); sites between window elements are summed
    out by a transition-matrix step, so gaps cost a matrix product rather
    than an exponential enumeration. Works in linear (not log) space
    because marginalization needs additions.
    """
    pi = np.ascontiguousarray(pi, dtype=np.float64)
    P = np.ascontiguousarray(P, dtype=np.float64)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    m = pi.shape[0]
    k = offsets.shape[0]
    _check_size(m, k)
    if k == 0:
        return np.ones(1)
    W = np.diag(pi).copy()
    pos = int(offsets[0])
    for j in range(1, k):
        target = int(offsets[j])
        while pos + 1 < target:
            W = W @ P
            pos += 1
        tmp = W @ P
        npat = tmp.shape[0]
        rows = np.arange(npat * m)
        Wn = np.zeros((npat * m, m))
        Wn[rows, rows % m] = tmp.ravel()
        W = Wn
        pos = target
    return W.sum(axis=1)


# ---------------------------------------------------------------------------
# entropy reductions
# ---------------------------------------------------------------------------


def entropy_from_probs(p: np.ndarray) -> float:
    """Shannon entropy -sum p log p in nats; zero-mass entries contribute 0."""
    p = np.asarray(p, dtype=np.float64)
    q = p[p > 0.0]
    return float(-(q * np.log(q)).sum())


def entropy_from_logprobs(lp: np.ndarray) -> float:
    """Entropy -sum exp(lp) * lp in nats, skipping lp = -inf entries."""
    lp = np.asarray(lp, dtype=np.float64)
    sel = lp > -np.inf
    q = np.exp(lp[sel])
    return float(-(q * lp[sel]).sum())
