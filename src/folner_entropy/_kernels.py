"""Numerical kernels for pattern measures, Markov window entropies and entropy sums.

One vectorised numpy implementation per kernel. Markov window entropies
take the chain-rule closed form (full symbols) or the forward recursion
over cell patterns (coarse cells and symbol factors), each one forward
walk site by site from the chain record the caller passes (``_Chain``,
which states when walks share steps and resume; ``systems._chain_of``
gives a shift's), so no production route enumerates Markov symbol
words, and no kernel keeps state between calls; the symbol-word fills
remain for ``symbol_pattern_logprobs``/``symbol_pattern_probs`` and the
full-symbol ``window_partition``. ``markov_mask_entropies`` takes the
closed form on every subset of a window at once, each subset's walk one
step past a smaller one's. Window entropies of Bernoulli shifts
and mixtures come from closed forms and need only the entropy
reductions.

Pattern arrays are indexed element-major: for window elements listed in
sorted order, the first element is the most significant base-``m`` digit
of the pattern index, so pattern i ends in symbol i % m. The fills add
one site per step by reshapes and broadcasts, one operation per entry.
"""

from __future__ import annotations

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


class _Chain:
    """What the Markov kernels walk for one chain (pi, P), made on first
    use and kept: P^g per gap (``power``), the (m + 1)-square entropy
    step built from that same P^g (``step``), the state at the first
    site of each kind of walk (``first``), and the last interval walk
    of each kind, as (state, sites done). A kind is ``"entropy"`` for
    ``markov_window_entropy``, or the bytes of the first site's cell map
    for ``hidden_markov_pattern_probs``.

    A record belongs to one shift of a walking copy (``systems._walking``:
    one per ``engine.entropy_rate`` call, or per
    ``suites.window_entropy_phi`` set function), so every window of that
    shift, and every mask table (``markov_mask_entropies``), reads it
    and each gap's power is taken once per chain. An interval window
    resumes the stored walk of its kind when that walk has covered no
    more sites, and restarts from the first state otherwise: an
    interval's walk after n sites is any longer interval's after its
    first n. A gapped window, or a cell walk given one map per site,
    starts from the first state and is not stored. A shift that is
    no walking copy takes a fresh record per evaluation.
    """

    __slots__ = ("pi", "P", "powers", "steps", "firsts", "walks")

    def __init__(self, pi: np.ndarray, P: np.ndarray):
        self.pi = np.ascontiguousarray(pi, dtype=np.float64)
        self.P = np.ascontiguousarray(P, dtype=np.float64)
        self.powers, self.steps, self.firsts, self.walks = {}, {}, {}, {}

    def power(self, gap: int) -> np.ndarray:
        power = self.powers.get(gap)
        if power is None:
            power = self.powers[gap] = np.linalg.matrix_power(self.P, gap)
        return power

    def step(self, gap: int) -> np.ndarray:
        """[[P^g, h_g], [0, 1]], h_g the row entropies of P^g."""
        step = self.steps.get(gap)
        if step is None:
            m = self.P.shape[0]
            step = self.steps[gap] = np.zeros((m + 1, m + 1))
            step[:m, :m] = self.power(gap)
            step[:m, m] = _row_entropies(step[:m, :m])
            step[m, m] = 1.0
        return step

    def first(self, kind) -> np.ndarray:
        """The state of a walk of ``kind`` at its first site."""
        first = self.firsts.get(kind)
        if first is None:
            pi = self.pi
            if kind == "entropy":
                first = np.concatenate([pi, _row_entropies(pi)[None]])
            else:
                cells = np.frombuffer(kind, dtype=np.int64)
                first = np.zeros((1, int(cells.max()) + 1, pi.shape[0]))
                first[:, cells, np.arange(pi.shape[0])] = pi
            self.firsts[kind] = first
        return first

    def resume(self, kind, offsets: np.ndarray):
        """(state, sites done) a walk of ``kind`` along ``offsets`` starts from."""
        state, done = self.walks.get(kind, (None, 0))
        if 0 < done <= len(offsets) and _is_interval(offsets):
            return state, done
        return self.first(kind), 1

    def keep(self, kind, offsets: np.ndarray, state: np.ndarray) -> None:
        """Store a walk of ``kind`` that has covered ``offsets``, if an interval."""
        if _is_interval(offsets):
            self.walks[kind] = state, len(offsets)


def _is_interval(offsets: np.ndarray) -> bool:
    """Whether sorted, unique ``offsets`` are nonempty and leave no gap."""
    return len(offsets) > 0 and int(offsets[-1]) - int(offsets[0]) == len(offsets) - 1


def _row_entropies(rows: np.ndarray) -> np.ndarray:
    """-sum p log p along the last axis; zero entries contribute 0, and a
    zero entropy reads 0.0, not -0.0."""
    return 0.0 - (rows * np.log(np.where(rows > 0.0, rows, 1.0))).sum(axis=-1)


def markov_window_entropy(chain: _Chain, offsets: np.ndarray) -> float:
    """Entropy of the full-symbol patterns on a sorted, possibly gapped d = 1 window.

    The chain rule and the Markov property give H(pi) plus, for each
    consecutive pair of window sites t < t + g, H(X_{t+g} | X_t) =
    sum_i v_i H(row i of P^g), where v = pi P^(t - t_0) is the marginal
    at t: the measure the cylinders use, also when ``pi`` is stationary
    only within a tolerance. The state (v, entropy so far) moves by
    the (m + 1)-square matrix [[P^g, h_g], [0, 1]] at each pair, h_g
    the row entropies of P^g, one vector-matrix product per site; the
    steps and walks are ``chain``'s. Zero entries and states of zero
    mass contribute 0.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    if not len(offsets):
        return 0.0
    state, done = chain.resume("entropy", offsets)
    # a resumed walk lists only the sites it has still to take
    sites = offsets[done - 1 :].tolist()
    for a, b in zip(sites, sites[1:]):
        state = state @ chain.step(b - a)
    chain.keep("entropy", offsets, state)
    return float(state[-1])


def markov_mask_entropies(chain: _Chain, sites: np.ndarray) -> np.ndarray:
    """``markov_window_entropy`` on every subset of a sorted d = 1 window.

    Entry ``mask`` is the entropy on the sites ``sites[i]`` of the set
    bits i of ``mask``; entry 0, the empty window, is 0.0. A mask's walk
    is the walk of the mask without its top site, moved by one step of
    the gap below that site. So the masks of top bit t and next bit u
    move together, as one stack of 1-row products, from the masks of
    top bit u. The steps are ``chain``'s, so each gap's power is taken
    once; its stored interval walk is neither read nor kept. A stack of
    1-row products rounds as ``markov_window_entropy``'s vector-matrix
    products do, so each entry equals its value by ``repr``; one 2-D
    product of the stacked states may differ in the last place.
    """
    sites = np.asarray(sites, dtype=np.int64).tolist()
    states = np.zeros((1 << len(sites), chain.P.shape[0] + 1))
    for t, top in enumerate(sites):
        states[1 << t] = chain.first("entropy")
        for u, below in enumerate(sites[:t]):
            lo, hi = 1 << u, 2 << u  # the masks of top bit u
            moved = states[lo:hi, None, :] @ chain.step(top - below)
            states[(1 << t) + lo : (1 << t) + hi] = moved[:, 0]
    return states[:, -1].copy()


def hidden_markov_pattern_probs(chain: _Chain, offsets: np.ndarray, cells) -> np.ndarray:
    """Measures of all cell patterns on a sorted, possibly gapped d = 1 window.

    ``cells`` is the cell map: an int array of length m giving the cell
    (0..c - 1) of each symbol, read at every window site, or a (k, m)
    table of one such map per window site. A forward walk keeps one
    (cell pattern so far, current state) table: each site moves it by
    P^gap and splits every state's mass into its cell, so the cost is
    prod(c_j) * m^2 rather than m^k; the powers and walks are
    ``chain``'s. A walk's kind is the bytes of its first site's map,
    whose first table ``chain`` builds once, so a one-map walk reads its
    map there and nowhere else; only one-map walks resume and are kept.
    Patterns are indexed element-major, first site most significant.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    cells = np.asarray(cells, dtype=np.int64)
    k = offsets.shape[0]
    one_map = cells.ndim == 1
    if not one_map and cells.shape[0] != k:
        raise ValueError("one cell map per window site required")
    if not k:
        return np.ones(1)
    kind = (cells if one_map else cells[0]).tobytes()
    if one_map:
        table, done = chain.resume(kind, offsets)
        n_cells = [table.shape[1]] * k  # a table is (patterns, cells, states)
        _check_size(n_cells[0], k)
    else:
        n_cells = (cells.max(axis=1) + 1).tolist()
        _check_size(math.prod(n_cells), 1)
        table, done = chain.first(kind), 1
    m = chain.pi.shape[0]
    states = np.arange(m)
    sites = offsets[done - 1 :].tolist()
    for j, (a, b) in enumerate(zip(sites, sites[1:]), done):
        step = table.reshape(-1, m) @ chain.power(b - a)
        table = np.zeros((step.shape[0], n_cells[j], m))
        table[:, cells if one_map else cells[j], states] = step
    if one_map:
        chain.keep(kind, offsets, table)
    return table.reshape(-1, m).sum(axis=1)


# ---------------------------------------------------------------------------
# entropy reductions
# ---------------------------------------------------------------------------


def entropy_from_probs(p: np.ndarray) -> float:
    """Shannon entropy -sum p log p in nats; zero-mass entries contribute
    0, and an entropy of 0 reads 0.0, not -0.0."""
    p = np.asarray(p, dtype=np.float64)
    q = p[p > 0.0]
    return float(0.0 - (q * np.log(q)).sum())


def entropy_from_logprobs(lp: np.ndarray) -> float:
    """Entropy -sum exp(lp) * lp in nats, skipping lp = -inf entries; 0.0,
    not -0.0, when every entry is 0 or -inf."""
    lp = np.asarray(lp, dtype=np.float64)
    lp = lp[lp > -np.inf]
    q = np.exp(lp)
    # in place: one pattern-sized temporary fewer, the same products and sum
    return float(0.0 - np.multiply(q, lp, out=q).sum())
