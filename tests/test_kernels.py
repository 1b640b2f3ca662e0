"""Numpy kernels: pattern order, zero-mass cells, total mass, gapped and
contiguous Markov windows agreeing, frozen entropy values, and the
pattern-space overflow guard. Path products are recomputed here word by
word as the reference. The per-pattern index-arithmetic fills that the
broadcast kernels replaced are kept below as oracles, and the kernels
must match them bit for bit. The Markov closed form is checked against
cylinder-by-cylinder enumeration, and the forward recursion over cell
patterns against the symbol-word enumeration it replaced, both to a
tolerance: they sum in another order. On one shared chain record, as
a rate trace walks it, where interval windows resume the walk before
them, both must return the bytes of a fresh walk."""

import itertools

import numpy as np
import pytest

from folner_entropy import FolnerSubset, cylinder_measure, markov_shift
from folner_entropy import _kernels as K
from folner_entropy.systems import subpattern_codes

LOG_HALF = np.log(0.5)


def test_iid_logprobs_uniform_pair():
    log_cell = np.log(np.array([0.5, 0.5]))
    for length in range(0, 8):
        out = K.iid_pattern_logprobs(log_cell, length)
        assert out.shape == (2**length,)
        np.testing.assert_allclose(out, length * LOG_HALF, rtol=0, atol=1e-15)


def test_iid_logprobs_element_major_order():
    # first window element is the most significant digit
    log_cell = np.log(np.array([0.2, 0.8]))
    out = K.iid_pattern_logprobs(log_cell, 2)
    expected = np.array(
        [2 * np.log(0.2), np.log(0.2) + np.log(0.8), np.log(0.8) + np.log(0.2), 2 * np.log(0.8)]
    )
    np.testing.assert_allclose(out, expected, rtol=0, atol=0)


def test_iid_logprobs_zero_mass_cell():
    with np.errstate(divide="ignore"):
        log_cell = np.log(np.array([1.0, 0.0]))
    out = K.iid_pattern_logprobs(log_cell, 2)
    assert out[0] == 0.0
    assert np.isneginf(out[1:]).all()


def test_markov_interval_pair_and_total_mass():
    P = np.array([[0.9, 0.1], [0.2, 0.8]])
    pi = np.array([2 / 3, 1 / 3])
    with np.errstate(divide="ignore"):
        lpi, lP = np.log(pi), np.log(P)
    for n in range(0, 7):
        out = K.markov_interval_logprobs(lpi, lP, n)
        assert out.shape == (2**n,)
        assert abs(np.exp(out).sum() - 1.0) < 1e-12
        # element-major path products, word by word
        for idx, word in enumerate(itertools.product(range(2), repeat=n)):
            ref = 1.0 if n == 0 else pi[word[0]] * np.prod([P[a, b] for a, b in zip(word, word[1:])])
            assert np.exp(out[idx]) == pytest.approx(ref, rel=1e-14, abs=0)


def test_markov_window_pair_gapped():
    P = np.array([[0.9, 0.1], [0.2, 0.8]])
    pi = np.array([2 / 3, 1 / 3])
    for offsets in ([0], [0, 1], [0, 2], [0, 3, 7], [1, 4], []):
        off = np.array(offsets, dtype=np.int64)
        out = K.markov_window_probs(pi, P, off)
        assert out.shape == (2 ** len(offsets),)
        assert abs(out.sum() - 1.0) < 1e-12
    # a gap is the interval measure with the skipped site summed out
    interval = K.markov_window_probs(pi, P, np.arange(3, dtype=np.int64)).reshape(2, 2, 2)
    gapped = K.markov_window_probs(pi, P, np.array([0, 2], dtype=np.int64))
    np.testing.assert_allclose(gapped, interval.sum(axis=1).ravel(), rtol=0, atol=1e-15)


def test_markov_window_matches_interval_when_contiguous():
    P = np.array([[0.7, 0.3], [0.4, 0.6]])
    pi = np.array([4 / 7, 3 / 7])
    with np.errstate(divide="ignore"):
        interval = np.exp(K.markov_interval_logprobs(np.log(pi), np.log(P), 4))
    window = K.markov_window_probs(pi, P, np.arange(4, dtype=np.int64))
    np.testing.assert_allclose(window, interval, rtol=0, atol=1e-15)


def test_entropy_from_probs_oracle():
    # H(1/2, 1/4, 1/4) = 1.5 log 2, frozen from the double-sum definition
    assert K.entropy_from_probs(np.array([0.5, 0.25, 0.25])) == pytest.approx(
        1.0397207708399179, abs=0
    )
    assert K.entropy_from_probs(np.array([0.4, 0.6])) == pytest.approx(
        0.6730116670092565, abs=0
    )
    assert K.entropy_from_probs(np.array([1.0, 0.0])) == 0.0
    assert K.entropy_from_probs(np.array([])) == 0.0


def test_entropy_from_logprobs_consistency():
    p = np.array([0.5, 0.25, 0.25])
    lp = np.log(p)
    assert K.entropy_from_logprobs(lp) == pytest.approx(K.entropy_from_probs(p), abs=1e-15)


def test_pattern_space_overflow_guard():
    with pytest.raises(OverflowError):
        K.iid_pattern_logprobs(np.zeros(3), 64)


# -- oracles: the per-pattern index-arithmetic fills, bit for bit ---------------


def _oracle_interval_logprobs(log_pi, log_P, n):
    m = log_pi.shape[0]
    if n == 0:
        return np.zeros(1)
    out = log_pi.copy()
    for _ in range(n - 1):
        last = np.arange(out.shape[0]) % m
        out = (out[:, None] + log_P[last, :]).ravel()
    return out


def _oracle_window_probs(pi, P, offsets):
    m = pi.shape[0]
    k = offsets.shape[0]
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


def _oracle_subpattern_codes(n_sym, length, sub_positions, cell_of, n_cells):
    idx = np.arange(n_sym**length, dtype=np.int64)
    code = np.zeros_like(idx)
    cell_of = np.asarray(cell_of, dtype=np.int64)
    for j in sub_positions:
        digit = (idx // (n_sym ** (length - 1 - j))) % n_sym
        code = code * n_cells + cell_of[digit]
    return code


def _random_chain_with_zeros(rng, m):
    """Transition rows with zero entries and a random initial vector with
    zero entries; neither need be stationary for the fills."""
    P = rng.random((m, m)) * (rng.random((m, m)) < 0.6)
    P[np.arange(m), rng.integers(0, m, size=m)] += 0.05
    P /= P.sum(axis=1, keepdims=True)
    pi = rng.random(m) * (rng.random(m) < 0.8)
    pi[rng.integers(0, m)] += 0.05
    return pi / pi.sum(), P


def test_interval_fill_matches_oracle_bit_for_bit():
    rng = np.random.default_rng(8101)
    saw_neg_inf = False
    for m in range(1, 5):
        for _ in range(6):
            pi, P = _random_chain_with_zeros(rng, m)
            with np.errstate(divide="ignore"):
                log_pi, log_P = np.log(pi), np.log(P)
            for n in range(0, 10):
                got = K.markov_interval_logprobs(log_pi, log_P, n)
                want = _oracle_interval_logprobs(log_pi, log_P, n)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (m, n)
                saw_neg_inf |= bool(np.isneginf(got).any())
    assert saw_neg_inf


def _random_offsets(rng, k):
    start = int(rng.integers(-8, 3))
    gaps = rng.integers(1, 7, size=max(k - 1, 0))
    return np.concatenate([[start], start + np.cumsum(gaps)])[:k].astype(np.int64)


def test_gapped_window_fill_matches_oracle_bit_for_bit():
    rng = np.random.default_rng(8102)
    gaps, starts = set(), set()
    for m in range(1, 5):
        for _ in range(6):
            pi, P = _random_chain_with_zeros(rng, m)
            for k in range(0, 8):
                for offsets in (_random_offsets(rng, k), np.arange(-3, k - 3, dtype=np.int64)):
                    got = K.markov_window_probs(pi, P, offsets)
                    want = _oracle_window_probs(pi, P, offsets)
                    assert got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes(), (m, offsets.tolist())
                    gaps.update(np.diff(offsets).tolist())
                    starts.update(offsets[:1].tolist())
    assert gaps == set(range(1, 7)) and min(starts) < 0


def test_subpattern_codes_match_oracle_bit_for_bit():
    rng = np.random.default_rng(8103)
    for m in range(1, 5):
        for length in range(0, 7):
            for _ in range(4):
                cell_of = rng.integers(0, m, size=m)
                n_cells = int(cell_of.max()) + 1
                choices = [[], list(range(length))]
                if length:
                    choices += [
                        rng.permutation(length)[: rng.integers(1, length + 1)].tolist(),
                        rng.integers(0, length, size=length + 2).tolist(),
                    ]
                for sub in choices:
                    got = subpattern_codes(m, length, sub, cell_of, n_cells)
                    want = _oracle_subpattern_codes(m, length, sub, cell_of, n_cells)
                    assert got.dtype == want.dtype == np.int64
                    assert got.tobytes() == want.tobytes(), (m, length, sub)


# -- Markov closed form and forward recursion, against enumeration --------------


def _cylinder_entropy(system, offsets):
    """Entropy of all full-symbol words on the window, one cylinder at a time."""
    F = FolnerSubset([(int(t),) for t in offsets], 1)
    elements = sorted(F.elements)
    total = 0.0
    for word in itertools.product(range(system.n_symbols), repeat=len(elements)):
        p = cylinder_measure(system, F, dict(zip(elements, word)))
        if p > 0.0:
            total -= p * np.log(p)
    return total


def test_markov_window_entropy_matches_cylinder_enumeration():
    chains = [
        [[0.7, 0.2, 0.1], [0.3, 0.5, 0.2], [0.25, 0.25, 0.5]],
        # zero transitions, and state 2 transient: pi_2 = 0
        [[0.5, 0.5, 0.0], [0.3, 0.7, 0.0], [0.2, 0.3, 0.5]],
        [[0.0, 1.0], [1.0, 0.0]],
        [[1.0]],
    ]
    windows = [
        [0], [0, 1], [0, 2, 5], [2, 3, 4], [-3, 1, 2, 6], [0, 1, 2, 3], [-4, -1, 0, 3, 4],
        [5, 6, 7, 8, 9], [1, 2],
    ]
    for P in chains:
        system = markov_shift(None, P)
        fresh = [K.markov_window_entropy(K._Chain(system.pi, system.P), np.array(w)) for w in windows]
        for offsets, got in zip(windows, fresh):
            assert abs(got - _cylinder_entropy(system, offsets)) <= 1e-12, (P, offsets)
        # on one record, intervals resume the interval walk before them and
        # gapped windows walk afresh
        record = K._Chain(system.pi, system.P)
        walked = [K.markov_window_entropy(record, np.array(w)) for w in windows]
        assert [repr(h) for h in walked] == [repr(h) for h in fresh], P
    transient = markov_shift(None, chains[1])
    assert transient.pi[2] == 0.0
    empty = np.array([], dtype=np.int64)
    assert K.markov_window_entropy(K._Chain(transient.pi, transient.P), empty) == 0.0


def _oracle_coarse_probs(pi, P, offsets, site_cells):
    """The coarse-cell route the recursion replaced: every symbol word's
    mass from the index-arithmetic fill, summed into its cell pattern
    (site j's cell from ``site_cells[j]``) by one bincount."""
    m, k = pi.shape[0], offsets.shape[0]
    sym = _oracle_window_probs(pi, P, offsets)
    idx = np.arange(m**k, dtype=np.int64)
    code = np.zeros_like(idx)
    n_patterns = 1
    for j, cells in enumerate(site_cells):
        digit = (idx // m ** (k - 1 - j)) % m
        code = code * (int(cells.max()) + 1) + cells[digit]
        n_patterns *= int(cells.max()) + 1
    return np.bincount(code, weights=sym, minlength=n_patterns)


def _random_site_cells(rng, m):
    _, cells = np.unique(rng.integers(0, m, size=m), return_inverse=True)
    return cells.astype(np.int64)


def test_forward_recursion_matches_the_coarse_cell_enumeration():
    rng = np.random.default_rng(8104)
    coarse = False
    for m in range(1, 5):
        for _ in range(6):
            pi, P = _random_chain_with_zeros(rng, m)
            shared = _random_site_cells(rng, m)
            inputs = []
            for k in range(0, 8):
                # gapped with a cell map per site, then an interval with one map
                inputs.append((_random_offsets(rng, k), [_random_site_cells(rng, m) for _ in range(k)]))
                inputs.append((np.arange(3, 3 + k), shared))
            fresh = [K.hidden_markov_pattern_probs(K._Chain(pi, P), o, c) for o, c in inputs]
            for (offsets, site_cells), got in zip(inputs, fresh):
                if isinstance(site_cells, np.ndarray):  # one map, read at every site
                    site_cells = [site_cells] * len(offsets)
                want = _oracle_coarse_probs(pi, P, offsets, site_cells)
                assert got.shape == want.shape, (m, offsets.tolist())
                assert np.abs(got - want).max() <= 1e-13, (m, offsets.tolist())
                H_got, H_want = K.entropy_from_probs(got), K.entropy_from_probs(want)
                assert abs(H_got - H_want) <= 1e-13 * max(1.0, abs(H_want))
                coarse |= any(int(c.max()) + 1 < m for c in site_cells)
            record = K._Chain(pi, P)
            walked = [K.hidden_markov_pattern_probs(record, o, c) for o, c in inputs]
            assert [p.tobytes() for p in walked] == [p.tobytes() for p in fresh], m
    assert coarse
    with pytest.raises(ValueError, match="one cell map per window site"):
        K.hidden_markov_pattern_probs(K._Chain(pi, P), np.arange(2), site_cells[:1])
