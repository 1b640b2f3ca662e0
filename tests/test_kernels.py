"""Numpy kernels: pattern order, zero-mass cells, total mass, gapped and
contiguous Markov windows agreeing, frozen entropy values, and the
pattern-space overflow guard. Path products are recomputed here word by
word as the reference."""

import itertools

import numpy as np
import pytest

from folner_entropy import _kernels as K

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
