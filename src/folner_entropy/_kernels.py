"""Numerical kernels for pattern measures, Markov window entropies and entropy sums.

One vectorised numpy implementation per kernel. Markov window entropies
take the chain-rule closed form (full symbols) or the forward recursion
over cell patterns (coarse cells and symbol factors), each one forward
walk site by site (``_walk``). Inside a walk scope, a rate trace or a
window set function, the walks share each gap's step and the next
interval resumes the last one, so no production route enumerates Markov
symbol words or repeats a matrix power; the symbol-word
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


class _Steps(dict):
    """What moves a walk across each gap, {gap: step}: ``make(gap)``,
    made on first use and kept."""

    __slots__ = ("make",)

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, gap: int):
        step = self[gap] = self.make(gap)
        return step


class _Walk:
    """A forward walk along a sorted d = 1 window: ``state`` after the
    window's first ``done`` sites, ``first`` its state at the first
    site, and ``steps``, what moves it across a gap."""

    __slots__ = ("state", "done", "first", "steps")

    def __init__(self, first, steps: _Steps):
        self.state, self.done, self.first, self.steps = first, 1, first, steps


# the walk scope open around the current call, None outside one: by
# chain (and cell map), the steps made and the last interval walk. A
# scope lasts for one ``engine.entropy_rate`` call or for the life of a
# ``suites.window_entropy_phi`` set function.
_WALKS = contextvars.ContextVar("walks", default=None)


def _walk(sites: list, start, make, steps_key: tuple, walk_key=None) -> _Walk:
    """The walk a kernel advances along ``sites``, ``start()`` being its
    state at the first site and ``make(gap)`` its step across a gap.

    Outside a scope every call takes a fresh walk with its own steps.
    Inside one, the steps under ``steps_key`` (naming the chain and the
    kind of step) are made once per gap and shared by every window of
    the scope, and so is the first state under ``walk_key`` (naming the
    chain and the cell map, when one cell map serves every site). There
    an interval window resumes the stored walk of ``walk_key`` when that
    walk has covered no more sites, and restarts it otherwise: an
    interval's walk after n sites is any longer interval's after its
    first n.
    """
    walks = _WALKS.get()
    if walks is None:
        return _Walk(start(), _Steps(make))
    steps = walks.get(steps_key)
    if steps is None:
        steps = walks[steps_key] = _Steps(make)
    if walk_key is None:
        return _Walk(start(), steps)
    walk = walks.get(walk_key)
    if walk is None:
        walk = walks[walk_key] = _Walk(start(), steps)
    if sites[-1] - sites[0] != len(sites) - 1:
        return _Walk(walk.first, steps)
    if walk.done > len(sites):
        walk.state, walk.done = walk.first, 1
    return walk


def _row_entropies(rows: np.ndarray) -> np.ndarray:
    """-sum p log p along the last axis; zero entries contribute 0."""
    return -(rows * np.log(np.where(rows > 0.0, rows, 1.0))).sum(axis=-1)


def markov_window_entropy(pi: np.ndarray, P: np.ndarray, offsets: np.ndarray) -> float:
    """Entropy of the full-symbol patterns on a sorted, possibly gapped d = 1 window.

    The chain rule and the Markov property give H(pi) plus, for each
    consecutive pair of window sites t < t + g, H(X_{t+g} | X_t) =
    sum_i v_i H(row i of P^g), where v = pi P^(t - t_0) is the marginal
    at t: the measure the cylinders use, also when ``pi`` is stationary
    only within a tolerance. The state (v, entropy so far) moves by
    the (m + 1)-square matrix [[P^g, h_g], [0, 1]] at each pair, h_g
    the row entropies of P^g. Each gap's matrix takes one matrix power
    and one entropy pass over its rows, once per call, or once per walk
    scope (``_walk``); the walk is then one vector-matrix product per
    site, resumed from the previous interval inside a scope. Zero
    entries and states of zero mass contribute 0.
    """
    pi = np.ascontiguousarray(pi, dtype=np.float64)
    P = np.ascontiguousarray(P, dtype=np.float64)
    sites = np.asarray(offsets, dtype=np.int64).tolist()
    if not sites:
        return 0.0
    m = pi.shape[0]

    def start():
        return np.concatenate([pi, _row_entropies(pi)[None]])

    def make(gap):
        step = np.zeros((m + 1, m + 1))
        step[:m, :m] = np.linalg.matrix_power(P, gap)
        step[:m, m] = _row_entropies(step[:m, :m])
        step[m, m] = 1.0
        return step

    chain = (pi.tobytes(), P.tobytes())
    walk = _walk(sites, start, make, ("entropy steps", chain[1]), ("entropy walk", *chain))
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
    is prod(c_j) * m^2 rather than m^k. Each gap's power is taken once
    per call, or once per walk scope (``_walk``); with one cell map on
    every site, an interval's walk resumes from the previous interval
    inside a scope. Patterns are indexed element-major, first site most
    significant.
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

    def start():
        table = np.zeros((1, n_cells[0], m))
        table[:, labels[0], states] = pi[None, :]
        return table

    def make(gap):
        return np.linalg.matrix_power(P, gap)

    one_map = not (labels != labels[0]).any()
    walk_key = ("cells walk", pi.tobytes(), P.tobytes(), labels[0].tobytes()) if one_map else None
    walk = _walk(sites, start, make, ("powers", P.tobytes()), walk_key)
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
