"""Numerical kernels for pattern measures, Markov window entropies and entropy sums.

One vectorised numpy implementation per kernel. Markov window entropies
take the chain-rule closed form (full symbols) or the forward recursion
over cell patterns (coarse cells and symbol factors), each one forward
walk site by site that the next row of a rate trace resumes (``_walk``),
so no production route enumerates Markov symbol words; the symbol-word
fills remain for ``symbol_pattern_logprobs``/``symbol_pattern_probs``
and the full-symbol ``window_partition``. Window entropies of Bernoulli
shifts and mixtures come from closed forms and need only the entropy
reductions.

Pattern arrays are indexed element-major: for window elements listed in
sorted order, the first element is the most significant base-``m`` digit
of the pattern index, so pattern i ends in symbol i % m. The fills add
one site per step by reshapes and broadcasts, one operation per entry.
"""

from __future__ import annotations

import contextvars
import math

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
        # word i*m + s is word i plus log_P[i % m, s]: rows of m*m take log_P
        out = np.repeat(out, m)
        out.reshape(-1, m * m)[:] += log_P.ravel()
    return out


def markov_window_probs(pi: np.ndarray, P: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Measures of all patterns on a sorted, possibly gapped d = 1 window.

    Walks the window left to right keeping one O(m^k) vector of pattern
    masses; pattern i ends in symbol i % m, so row i % m of P extends it.
    Sites between window elements are summed out by a matrix step, so
    gaps cost a matrix product rather than an exponential enumeration.
    Linear (not log) space, because marginalization needs additions.
    """
    pi = np.ascontiguousarray(pi, dtype=np.float64)
    P = np.ascontiguousarray(P, dtype=np.float64)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    m = pi.shape[0]
    k = offsets.shape[0]
    _check_size(m, k)
    if k == 0:
        return np.ones(1)
    v = pi.copy()
    pos = int(offsets[0])
    for target in offsets[1:].tolist():
        step = (v.reshape(-1, m, 1) * P).reshape(-1, m)
        for _ in range(pos + 1, target):
            step = step @ P
        v = step.ravel()
        pos = target
    return v


def _gap_powers(P: np.ndarray, sites: list) -> dict:
    """{g: P^g} for every gap g between consecutive sites of a sorted window."""
    return {g: np.linalg.matrix_power(P, g) for g in {b - a for a, b in zip(sites, sites[1:])}}


class _Walk:
    """A forward walk along a sorted d = 1 window: ``state`` after the
    window's first ``done`` sites, and ``steps``, what moves it across
    each gap of the window."""

    __slots__ = ("state", "done", "steps")

    def __init__(self, state, steps: dict):
        self.state, self.done, self.steps = state, 1, steps


# the walks of the rate trace being evaluated, by chain and cell map;
# None outside ``engine.entropy_rate``
_WALKS = contextvars.ContextVar("walks", default=None)


def _walk(sites: list, set_up, pi: np.ndarray, P: np.ndarray, site_cells=None) -> _Walk:
    """The walk a kernel advances along ``sites``.

    Inside a rate trace, an interval window with one cell map on every
    site resumes the stored walk of the same chain and cell map when
    that walk has covered no more sites and holds the unit gap's step:
    an interval's walk after n sites is any longer interval's after its
    first n. Every other window takes ``set_up()``, a fresh walk, which
    an interval window stores for the next row.
    """
    walks = _WALKS.get()
    if walks is None or sites[-1] - sites[0] != len(sites) - 1:
        return set_up()
    key = (pi.tobytes(), P.tobytes())
    if site_cells is not None:
        if (site_cells != site_cells[0]).any():
            return set_up()
        key += (site_cells[0].tobytes(),)
    walk = walks.get(key)
    if walk is None or not (walk.done == len(sites) or walk.steps and walk.done < len(sites)):
        walk = walks[key] = set_up()
    return walk


def markov_window_entropy(pi: np.ndarray, P: np.ndarray, offsets: np.ndarray) -> float:
    """Entropy of the full-symbol patterns on a sorted, possibly gapped d = 1 window.

    The chain rule and the Markov property give H(pi) plus, for each
    consecutive pair of window sites t < t + g, H(X_{t+g} | X_t) =
    sum_i v_i H(row i of P^g), where v = pi P^(t - t_0) is the marginal
    at t: the measure the cylinders use, also when ``pi`` is stationary
    only within a tolerance. The state (v, entropy so far) moves by
    the (m + 1)-square matrix [[P^g, h_g], [0, 1]] at each pair, h_g
    the row entropies of P^g. A fresh walk takes one matrix power per
    distinct gap and one entropy pass over pi and all those rows; then
    the walk is one vector-matrix product per site, resumed from the
    previous row inside a rate trace (``_walk``). Zero entries and
    states of zero mass contribute 0.
    """
    pi = np.ascontiguousarray(pi, dtype=np.float64)
    P = np.ascontiguousarray(P, dtype=np.float64)
    sites = np.asarray(offsets, dtype=np.int64).tolist()
    if not sites:
        return 0.0
    m = pi.shape[0]

    def set_up():
        powers = _gap_powers(P, sites)
        # pi, then the rows of every power: one entropy pass over all rows
        rows = np.concatenate([pi, *(Pg.ravel() for Pg in powers.values())])
        H = -(rows * np.log(np.where(rows > 0.0, rows, 1.0))).reshape(-1, m).sum(axis=1)
        steps = np.zeros((len(powers), m + 1, m + 1))
        steps[:, :m, :m] = rows[m:].reshape(-1, m, m)
        steps[:, :m, m] = H[1:].reshape(-1, m)
        steps[:, m, m] = 1.0
        return _Walk(np.concatenate([pi, H[:1]]), {g: steps[i] for i, g in enumerate(powers)})

    walk = _walk(sites, set_up, pi, P)
    state = walk.state
    for a, b in zip(sites[walk.done - 1:], sites[walk.done:]):
        state = state @ walk.steps[b - a]
    walk.state, walk.done = state, len(sites)
    return float(state[m])


def hidden_markov_pattern_probs(
    pi: np.ndarray, P: np.ndarray, offsets: np.ndarray, site_cells
) -> np.ndarray:
    """Measures of all cell patterns on a sorted, possibly gapped d = 1 window.

    ``site_cells[j]`` gives the cell of each symbol at window site j
    (an int array of length m, cells 0..c_j - 1). A forward walk keeps
    one (cell pattern so far, current state) table: each site moves it
    by P^gap and splits every state's mass into its cell, so the cost
    is prod(c_j) * m^2 rather than m^k. A fresh walk takes the powers of
    all the window's gaps first; with one cell map on every site, the
    walk resumes from the previous row inside a rate trace (``_walk``).
    Patterns are indexed element-major, first site most significant.
    """
    pi = np.ascontiguousarray(pi, dtype=np.float64)
    P = np.ascontiguousarray(P, dtype=np.float64)
    sites = np.asarray(offsets, dtype=np.int64).tolist()
    if len(site_cells) != len(sites):
        raise ValueError("one cell map per window site required")
    if not sites:
        return np.ones(1)
    labels = np.asarray(site_cells, dtype=np.int64)
    n_cells = (labels.max(axis=1) + 1).tolist()
    _check_size(math.prod(n_cells), 1)
    m = pi.shape[0]
    states = np.arange(m)

    def set_up():
        powers = _gap_powers(P, sites)
        table = np.zeros((1, n_cells[0], m))
        table[:, labels[0], states] = pi[None, :]
        return _Walk(table, powers)

    walk = _walk(sites, set_up, pi, P, labels)
    table = walk.state
    for j in range(walk.done, len(sites)):
        step = table.reshape(-1, m) @ walk.steps[sites[j] - sites[j - 1]]
        table = np.zeros((step.shape[0], n_cells[j], m))
        table[:, labels[j], states] = step
    walk.state, walk.done = table, len(sites)
    return table.reshape(-1, m).sum(axis=1)


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
    lp = lp[lp > -np.inf]
    q = np.exp(lp)
    # in place: one pattern-sized temporary fewer, the same products and sum
    return float(-np.multiply(q, lp, out=q).sum())
