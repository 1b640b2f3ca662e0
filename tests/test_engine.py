"""Block entropies, rate traces, and the identity/inequality verifiers.

Every closed-form route is pinned against an independent computation:
product blocks against k * H(site), Markov blocks against the
stationary chain formula H(pi) + (n-1) H(P | pi) assembled by hand
here, mixtures against H(weights) + sum w_i H_i.
"""

import functools
import itertools
import math
import operator

import numpy as np
import pytest

from folner_entropy import (
    DEFAULT_PATTERN_CAP,
    EnumerationCapError,
    FinitePMPAction,
    FiniteProbabilitySpace,
    FolnerSequence,
    FolnerSubset,
    Partition,
    SpaceMismatchError,
    SubAlgebraSpec,
    SymbolPartition,
    bernoulli_shift,
    conditional_block_entropy,
    cylinder_measure,
    entropy_rate,
    h_conditional,
    markov_shift,
    mixture,
    verify_chain_exhaustion,
    verify_entropy_identities,
    verify_rate_inequalities,
    window_partition,
)
from folner_entropy._kernels import entropy_from_logprobs, entropy_from_probs
from folner_entropy.engine import (
    IDENTITY_PROPERTY_LABELS,
    RATE_PROPERTY_LABELS,
    SUBADDITIVITY_PROPERTY_LABELS,
    _as_subalgebra,
)
from folner_entropy.systems import (
    IncompatibleSubAlgebraError,
    MixtureSystem,
    ShiftSystem,
    _mixture_alphas,
    resolve_cells,
    subpattern_codes,
    symbol_pattern_logprobs,
    symbol_pattern_probs,
)

LOG2 = math.log(2.0)
PI = np.array([2 / 3, 1 / 3])
P = np.array([[0.9, 0.1], [0.2, 0.8]])


def markov_block_oracle(pi, P, n):
    h_pi = float(-(pi * np.log(pi)).sum())
    h_step = float(-(pi[:, None] * P * np.log(P)).sum())
    return h_pi + (n - 1) * h_step


# -- block entropies: enumeration vs closed forms -------------------------------


def test_bernoulli_block_dual_route():
    b = bernoulli_shift([0.5, 0.5])
    for k in range(1, 7):
        H = conditional_block_entropy(b, None, FolnerSubset.interval(0, k))
        assert H == pytest.approx(k * LOG2, abs=1e-12)
    b2 = bernoulli_shift([0.5, 0.5], d=2)
    H = conditional_block_entropy(b2, None, FolnerSubset.box(2, 3))
    assert H == pytest.approx(9 * LOG2, abs=1e-12)


def test_bernoulli_block_over_cap_stays_exact():
    # above the cap the product factorization takes over, no loss
    b = bernoulli_shift([0.3, 0.7])
    F = FolnerSubset.interval(0, 6)
    enum = conditional_block_entropy(b, None, F)
    closed = conditional_block_entropy(b, None, F, cap=2**4)
    assert closed == pytest.approx(enum, abs=1e-12)


def test_markov_block_matches_closed_form():
    mk = markov_shift(PI, P)
    for n in range(1, 13):
        H = conditional_block_entropy(mk, None, FolnerSubset.interval(0, n))
        assert H == pytest.approx(markov_block_oracle(PI, P, n), abs=1e-12)


def test_markov_block_over_cap_raises():
    mk = markov_shift(PI, P)
    with pytest.raises(EnumerationCapError):
        conditional_block_entropy(mk, None, FolnerSubset.interval(0, 8), cap=2**7)


def test_mixture_block_dual_route():
    b1 = bernoulli_shift([0.5, 0.5])
    b2 = bernoulli_shift([0.9, 0.1])
    mx = mixture([b1, b2], [0.3, 0.7])
    F = FolnerSubset.interval(0, 5)
    w = np.array([0.3, 0.7])
    h_sites = [LOG2, float(-(np.array([0.9, 0.1]) * np.log([0.9, 0.1])).sum())]
    closed = float(-(w * np.log(w)).sum()) + 5 * (0.3 * h_sites[0] + 0.7 * h_sites[1])
    enum = conditional_block_entropy(mx, None, F)
    assert enum == pytest.approx(closed, abs=1e-12)
    # the tagged-sum fallback above the cap lands on the same number
    assert conditional_block_entropy(mx, None, F, cap=2**4) == pytest.approx(
        closed, abs=1e-12
    )


def _shannon(masses):
    q = np.array([v for v in masses if v > 0.0])
    return float(-(q * np.log(q)).sum())


def _factor_oracle(system, cells, factor_map, F, W):
    """H(alpha^F | phi^W) from the cylinder measure of every symbol word on W."""
    elems = sorted(W.elements)
    at_F = [elems.index(e) for e in sorted(F.elements)]
    joint, marginal = {}, {}
    for word in itertools.product(system.alphabet, repeat=len(elems)):
        mass = cylinder_measure(system, W, dict(zip(elems, word)))
        fkey = tuple(factor_map[s] for s in word)
        akey = tuple(cells.cell_index(word[j]) for j in at_F)
        joint[akey, fkey] = joint.get((akey, fkey), 0.0) + mass
        marginal[fkey] = marginal.get(fkey, 0.0) + mass
    return _shannon(joint.values()) - _shannon(marginal.values())


def _bernoulli_full_cells():
    b = bernoulli_shift([0.3, 0.7], d=2)
    F = FolnerSubset.box(2, 3)
    return conditional_block_entropy(b, None, F), window_partition(b, F).entropy()


def _bernoulli_coarse_cells():
    b = bernoulli_shift([0.5, 0.2, 0.3])
    cells = SymbolPartition(b.alphabet, [[0], [1, 2]])
    F = FolnerSubset.interval(0, 6)
    return conditional_block_entropy(b, cells, F), window_partition(b, F, cells).entropy()


def _bernoulli_factor(cell_blocks):
    def case():
        b = bernoulli_shift([0.4, 0.1, 0.2, 0.3])
        cells = SymbolPartition(b.alphabet, cell_blocks)
        factor_map = {0: 0, 1: 0, 2: 1, 3: 1}
        F = FolnerSubset([(0,), (2,)], 1)
        W = FolnerSubset.interval(-1, 4)
        closed = conditional_block_entropy(
            b, cells, F, SubAlgebraSpec.symbol_factor(factor_map), conditioning_window=W
        )
        return closed, _factor_oracle(b, cells, factor_map, F, W)

    return case


def _shift_mixture():
    mx = mixture([bernoulli_shift([0.3, 0.7]), markov_shift(PI, P)], [0.4, 0.6])
    F = FolnerSubset.interval(0, 6)
    return conditional_block_entropy(mx, None, F), window_partition(mx, F).entropy()


def _finite_mixture():
    s1 = FiniteProbabilitySpace(range(5), [0.1, 0.3, 0.2, 0.2, 0.2])
    rot = FinitePMPAction(FiniteProbabilitySpace(range(5), [0.2] * 5), [(1, 2, 3, 4, 0)])
    cycle = FinitePMPAction(s1, [(0, 1, 3, 4, 2)])
    mx = mixture([rot, cycle], [0.35, 0.65])
    alphas = [
        Partition(rot.space, [[0, 1], [2, 3, 4]]),
        Partition(s1, [[0, 3], [1, 2, 4]]),
    ]
    union = mx.as_finite_action()
    # each union block lies inside one tag, so the tag is part of alpha^F
    union_alpha = Partition(
        union.space, [[(i, a) for a in block] for i, p in enumerate(alphas) for block in p.blocks]
    )
    F = FolnerSubset.interval(0, 3)
    return (
        conditional_block_entropy(mx, alphas, F),
        conditional_block_entropy(union, union_alpha, F),
    )


@pytest.mark.parametrize(
    "case",
    [
        pytest.param(_bernoulli_full_cells, id="bernoulli-full"),
        pytest.param(_bernoulli_coarse_cells, id="bernoulli-coarse"),
        pytest.param(_bernoulli_factor([[0], [1], [2], [3]]), id="bernoulli-factor-full"),
        pytest.param(_bernoulli_factor([[0, 1, 2], [3]]), id="bernoulli-factor-coarse"),
        pytest.param(_shift_mixture, id="shift-mixture"),
        pytest.param(_finite_mixture, id="finite-mixture"),
    ],
)
def test_closed_forms_match_independent_oracles(case):
    closed, oracle = case()
    assert closed == pytest.approx(oracle, abs=1e-12)


# -- symbol-factor conditioning --------------------------------------------------


def test_factor_conditioning_identity_and_trivial():
    mk = markov_shift(PI, P)
    F = FolnerSubset.interval(0, 4)
    full = SubAlgebraSpec.symbol_factor({0: 0, 1: 1})
    assert conditional_block_entropy(mk, None, F, full) == pytest.approx(0.0, abs=1e-12)
    lumped = SubAlgebraSpec.symbol_factor({0: 0, 1: 0})
    assert conditional_block_entropy(mk, None, F, lumped) == pytest.approx(
        conditional_block_entropy(mk, None, F), abs=1e-12
    )


def test_factor_conditioning_bernoulli_closed_form():
    b = bernoulli_shift([0.5, 0.25, 0.25])
    F = FolnerSubset.interval(0, 3)
    phi = SubAlgebraSpec.symbol_factor({0: 0, 1: 0, 2: 1})
    # per-site chain rule: H(site | cell) = H(site) - H(cell), cells (.75,.25)
    h_cell = float(-(np.array([0.75, 0.25]) * np.log([0.75, 0.25])).sum())
    h_site = float(
        -(np.array([0.5, 0.25, 0.25]) * np.log([0.5, 0.25, 0.25])).sum()
    )
    expect = 3 * (h_site - h_cell)
    assert conditional_block_entropy(b, None, F, phi) == pytest.approx(expect, abs=1e-12)
    # above the cap the sitewise factorization agrees
    assert conditional_block_entropy(b, None, F, phi, cap=2**3) == pytest.approx(
        expect, abs=1e-12
    )


def test_factor_conditioning_window_monotone():
    mk = markov_shift(PI, P)
    F = FolnerSubset.interval(0, 3)
    phi = SubAlgebraSpec.symbol_factor({0: 0, 1: 0})
    # the lumped factor is trivial, so use a genuine 3-symbol lumping instead
    P3 = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.3, 0.3, 0.4]])
    mk3 = markov_shift(None, P3)
    phi3 = SubAlgebraSpec.symbol_factor({0: 0, 1: 1, 2: 1})
    base = conditional_block_entropy(mk3, None, F, phi3)
    wider = conditional_block_entropy(
        mk3, None, F, phi3, conditioning_window=FolnerSubset.interval(-1, 4)
    )
    assert wider <= base + 1e-12
    with pytest.raises(ValueError):
        conditional_block_entropy(
            mk3, None, F, phi3, conditioning_window=FolnerSubset.interval(1, 2)
        )


def test_finite_system_rejects_window():
    space = FiniteProbabilitySpace(range(2), [0.5, 0.5])
    action = FinitePMPAction(space, [(1, 0)])
    with pytest.raises(ValueError):
        conditional_block_entropy(
            action,
            Partition.points(space),
            FolnerSubset.interval(0, 1),
            None,
            FolnerSubset.interval(0, 2),
        )


# -- the symbol-factor and product routes against the code they replaced --------
#
# Until the symbol-factor route was shared, a single shift and a mixture each
# enumerated it with their own copy, and three places summed a product
# measure's one-site cell masses. Those copies are kept below, verbatim in
# behaviour, as oracles: the merged routes must return the same floats, by
# repr, and raise the same exception type and message in the same order.
# The old code summed cell masses with the builtin sum, which adds floats
# left to right before Python 3.12; _sum_left pins that order.


def _sum_left(values):
    return functools.reduce(operator.add, values, 0)


def _old_aggregated_entropy(keys, probs):
    _, inv = np.unique(keys, return_inverse=True)
    return entropy_from_probs(np.bincount(inv.ravel(), weights=probs))


def _old_shift_factor_entropy(system, cells, F, phi, W, cap):
    K = len(W)
    m = system.n_symbols
    if m**K > cap:
        raise EnumerationCapError("pattern cap exceeded")
    sym_probs = symbol_pattern_probs(system, W, cap)
    sub_F = W.locate(F).tolist()
    acode = subpattern_codes(m, K, sub_F, cells.cell_labels(), cells.n_cells)
    pcode = subpattern_codes(m, K, range(K), phi.cell_labels(), phi.n_cells)
    joint = acode * np.int64(phi.n_cells**K) + pcode
    return _old_aggregated_entropy(joint, sym_probs) - _old_aggregated_entropy(pcode, sym_probs)


def _old_bernoulli_site_entropy(system, cells):
    probs = np.array(
        [_sum_left(float(system.probs[system.symbol_index(s)]) for s in cell) for cell in cells.cells]
    )
    return entropy_from_probs(probs)


def _old_bernoulli_site_factor_entropy(system, cells, phi):
    joint = {}
    for i, s in enumerate(system.alphabet):
        key = (cells.cell_index(s), phi.cell_index(s))
        joint[key] = joint.get(key, 0.0) + float(system.probs[i])
    joint_probs = np.array(list(joint.values()))
    phi_probs = np.array(
        [_sum_left(float(system.probs[system.symbol_index(s)]) for s in cell) for cell in phi.cells]
    )
    return entropy_from_probs(joint_probs) - entropy_from_probs(phi_probs)


def _old_resolve_window(F, W):
    if W is None:
        return F
    if not F.issubset(W):
        raise ValueError("conditioning window must contain the window")
    return W


def _old_shift_block_entropy(system, alpha, F, C, W, cap):
    if F.d != system.d:
        raise ValueError("dimension mismatch")
    cells = resolve_cells(system, alpha)
    k = len(F)
    if C.kind == "trivial":
        if system.kind == "bernoulli":
            return k * _old_bernoulli_site_entropy(system, cells)
        if cells.n_cells**k > cap:
            raise EnumerationCapError("pattern cap exceeded")
        if cells.n_cells == system.n_symbols:
            return entropy_from_logprobs(symbol_pattern_logprobs(system, F, cap))
        return window_partition(system, F, cells, cap).entropy()
    if C.kind == "symbol_factor":
        phi = C.factor_partition(system.alphabet)
        W = _old_resolve_window(F, W)
        if system.kind == "bernoulli":
            return k * _old_bernoulli_site_factor_entropy(system, cells, phi)
        return _old_shift_factor_entropy(system, cells, F, phi, W, cap)
    raise IncompatibleSubAlgebraError("incompatible sub-algebra")


def _old_mixture_block_entropy(system, alpha, F, C, W, cap):
    alphas = _mixture_alphas(system, alpha)
    if C.kind == "trivial":
        total = entropy_from_probs(system.weights)
        for comp, a, w in zip(system.components, alphas, system.weights):
            total += float(w) * _old_block_entropy(comp, a, F, C, None, cap)
        return total
    if C.kind == "symbol_factor":
        alphabet = system.shared_alphabet()
        phi = C.factor_partition(alphabet)
        W = _old_resolve_window(F, W)
        K = len(W)
        m = len(alphabet)
        if len(system.components) * (m**K) > cap:
            raise EnumerationCapError("pattern cap exceeded")
        sub_F = W.locate(F).tolist()
        pcode = subpattern_codes(m, K, range(K), phi.cell_labels(), phi.n_cells)
        nphi = np.int64(phi.n_cells**K)
        all_keys, all_pkeys, all_probs = [], [], []
        offset = 0
        for comp, a, w in zip(system.components, alphas, system.weights):
            if not isinstance(comp, ShiftSystem):
                raise IncompatibleSubAlgebraError("incompatible sub-algebra")
            cells = resolve_cells(comp, a)
            sym_probs = symbol_pattern_probs(comp, W, cap)
            acode = subpattern_codes(m, K, sub_F, cells.cell_labels(), cells.n_cells)
            all_keys.append((acode + offset) * nphi + pcode)
            all_pkeys.append(pcode)
            all_probs.append(float(w) * sym_probs)
            offset += cells.n_cells ** len(sub_F)
        keys = np.concatenate(all_keys)
        pkeys = np.concatenate(all_pkeys)
        probs = np.concatenate(all_probs)
        return _old_aggregated_entropy(keys, probs) - _old_aggregated_entropy(pkeys, probs)
    raise IncompatibleSubAlgebraError("incompatible sub-algebra")


def _old_block_entropy(system, alpha, F, C, W, cap):
    if isinstance(system, MixtureSystem):
        return _old_mixture_block_entropy(system, alpha, F, C, W, cap)
    return _old_shift_block_entropy(system, alpha, F, C, W, cap)


def _outcome(fn, *args):
    try:
        return "value", repr(fn(*args))
    except Exception as e:  # the type and message are what is compared
        return type(e).__name__, str(e)


def _random_chain(rng, m):
    """A transition matrix with some zero entries and a unique stationary vector."""
    while True:
        P = rng.random((m, m)) * (rng.random((m, m)) < 0.7)
        P[np.arange(m), rng.integers(0, m, size=m)] += 0.05
        P /= P.sum(axis=1, keepdims=True)
        try:
            return markov_shift(None, P)
        except ValueError:
            continue


def _random_cells(rng, alphabet):
    labels = rng.integers(0, len(alphabet), size=len(alphabet))
    groups = {}
    for s, lab in zip(alphabet, labels):
        groups.setdefault(int(lab), []).append(s)
    return SymbolPartition(alphabet, groups.values())


def _sites(*positions):
    return FolnerSubset([(t,) for t in positions], 1)


def _factor_grid():
    """Seeded (system, alpha, F, C, W) cases over every branch the routes take."""
    rng = np.random.default_rng(20251018)
    interval = FolnerSubset.interval
    # (F, conditioning windows): None means W = F; the last W of the gapped
    # pair misses F, and interval(0, 8) with 4 symbols is above the cap
    windows = [
        (interval(0, 1), [None, interval(-2, 3)]),
        (interval(0, 3), [None, interval(0, 3), interval(-1, 5)]),
        (_sites(0, 2, 5), [None, interval(0, 6), _sites(-1, 0, 2, 3, 5)]),
        (_sites(-3, 1), [None, interval(-3, 8), interval(0, 2)]),
        (interval(0, 7), [None, interval(0, 8)]),
    ]
    cases = []
    for m in (2, 3, 4):
        for _ in range(3):
            alphabet = tuple(range(m))
            bern_probs = rng.dirichlet(np.ones(m))
            bern_probs[rng.integers(0, m)] = 0.0
            bern = bernoulli_shift(bern_probs / bern_probs.sum())
            mk = _random_chain(rng, m)
            w = float(rng.uniform(0.2, 0.8))
            mixes = [
                mixture([bern, mk], [w, 1.0 - w]),
                mixture([mk, _random_chain(rng, m)], [w, 1.0 - w]),
            ]
            cell_choices = [
                None,
                SymbolPartition.trivial(alphabet),
                _random_cells(rng, alphabet),
            ]
            factors = [
                SubAlgebraSpec.symbol_factor({s: s for s in alphabet}),
                SubAlgebraSpec.symbol_factor({s: 0 for s in alphabet}),
                SubAlgebraSpec.symbol_factor(
                    dict(zip(alphabet, rng.integers(0, 2, size=m).tolist()))
                ),
            ]
            for F, Ws in windows:
                for cells in cell_choices:
                    for system in (bern, mk):
                        cases.append((system, cells, F, None, None))
                        for C in factors:
                            for W in Ws:
                                cases.append((system, cells, F, C, W))
                    for mx in mixes:
                        for alpha in (cells, [cells, _random_cells(rng, alphabet)]):
                            cases.append((mx, alpha, F, None, None))
                            for W in Ws:
                                cases.append((mx, alpha, F, factors[2], W))
    return cases


def test_merged_factor_route_matches_the_replaced_routes():
    cap = 2**14
    outcomes = set()
    for system, alpha, F, C, W in _factor_grid():
        new = _outcome(conditional_block_entropy, system, alpha, F, C, W, cap)
        old = _outcome(_old_block_entropy, system, alpha, F, _as_subalgebra(C), W, cap)
        assert new == old, (system, alpha, sorted(F.elements), C, W)
        outcomes.add(new[0] if new[0] == "value" else new)
    # the grid reaches the values, the cap and the window-containment error
    assert "value" in outcomes
    assert ("EnumerationCapError", "pattern cap exceeded") in outcomes
    assert ("ValueError", "conditioning window must contain the window") in outcomes


P3 = np.array([[0.7, 0.2, 0.1], [0.3, 0.5, 0.2], [0.25, 0.25, 0.5]])


def _precedence_case(name):
    mk3 = markov_shift(None, P3)
    factor = SubAlgebraSpec.symbol_factor({0: 0, 1: 0, 2: 1})
    pair = mixture([mk3, mk3], [0.5, 0.5])
    foreign_cells = [None, SymbolPartition.full("abc")]
    swap = FinitePMPAction(FiniteProbabilitySpace(range(2), [0.5, 0.5]), [(1, 0)])
    interval = FolnerSubset.interval
    return {
        # W is resolved before the product closed form returns
        "bernoulli-window-not-containing-F": (
            bernoulli_shift([0.5, 0.3, 0.2]), None, interval(0, 3), factor, interval(1, 5)
        ),
        # the per-component partitions are checked before the conditioning kind
        "mixture-wrong-partition-count": (
            mixture([mk3, bernoulli_shift([0.2, 0.3, 0.5])], [0.5, 0.5]), [None], interval(0, 2),
            SubAlgebraSpec.invariant_partition(Partition.points(swap.space)), None,
        ),
        # the mixture cap is checked before any component's cells
        "mixture-cap-before-cells": (pair, foreign_cells, interval(0, 9), factor, None),
        "mixture-cells-alphabet-mismatch": (pair, foreign_cells, interval(0, 2), factor, None),
        "mixture-alphabets-differ": (
            mixture([mk3, bernoulli_shift([0.5, 0.5])], [0.5, 0.5]), None, interval(0, 2), factor, None
        ),
        "mixture-with-finite-component": (
            mixture([mk3, swap], [0.5, 0.5]), None, interval(0, 2), factor, None
        ),
    }[name]


@pytest.mark.parametrize(
    "name",
    [
        "bernoulli-window-not-containing-F",
        "mixture-wrong-partition-count",
        "mixture-cap-before-cells",
        "mixture-cells-alphabet-mismatch",
        "mixture-alphabets-differ",
        "mixture-with-finite-component",
    ],
)
def test_merged_routes_keep_error_precedence(name):
    system, alpha, F, C, W = _precedence_case(name)
    cap = 2**14
    new = _outcome(conditional_block_entropy, system, alpha, F, C, W, cap)
    assert new[0] != "value"
    assert new == _outcome(_old_block_entropy, system, alpha, F, C, W, cap)


# -- rate traces -----------------------------------------------------------------


def test_rate_trace_bernoulli_flat():
    b = bernoulli_shift([0.5, 0.5])
    seq = FolnerSequence(1, (1, 2, 3, 4))
    trace, report = entropy_rate(b, sequence=seq)
    assert [e.F_size for e in trace.entries] == [1, 2, 3, 4]
    for e in trace.entries:
        assert e.rate == pytest.approx(LOG2, abs=1e-12)
        assert e.running_inf <= e.rate
    assert report.estimate == min(trace.rates())
    assert report.converged
    assert report.method == "running-inf"
    assert not report.truncated


def test_rate_estimate_is_exact_running_inf():
    mk = markov_shift(PI, P)
    seq = FolnerSequence(1, tuple(range(1, 11)))
    trace, report = entropy_rate(mk, sequence=seq)
    rates = trace.rates()
    assert report.estimate == min(rates)
    assert rates == sorted(rates, reverse=True)  # chain rates decrease
    assert report.n_used == 10


def test_rate_finite_system_bounded_numerator():
    space = FiniteProbabilitySpace(range(4), [0.25] * 4)
    action = FinitePMPAction(space, [(1, 2, 3, 0)])
    seq = FolnerSequence(1, (1, 2, 4, 8))
    trace, report = entropy_rate(action, Partition.points(space), sequence=seq)
    assert report.estimate == 0.0
    assert report.method == "bounded-numerator"
    assert report.converged
    # the honest trace stays positive: numerator is capped at log 4
    assert trace.entries[-1].block_entropy <= math.log(4) + 1e-12
    assert trace.entries[-1].rate > 0.0


def test_rate_truncated_mid_schedule():
    mk = markov_shift(PI, P)
    seq = FolnerSequence(1, (2, 4, 16))
    trace, report = entropy_rate(mk, sequence=seq, cap=2**8)
    assert report.truncated and trace.truncated
    assert report.n_used == 2
    with pytest.raises(EnumerationCapError):
        entropy_rate(mk, sequence=FolnerSequence(1, (16, 32)), cap=2**8)


def test_rate_convergence_flag():
    mk = markov_shift(PI, P)
    seq = FolnerSequence(1, (1, 2))
    _, report = entropy_rate(mk, sequence=seq, tol=1e-6)
    assert not report.converged  # rate still falling at n = 2
    _, report = entropy_rate(mk, sequence=FolnerSequence(1, tuple(range(1, 13))), tol=1e-1)
    assert report.converged


def test_h_conditional_max_over_partitions():
    b = bernoulli_shift([0.5, 0.25, 0.25])
    seq = FolnerSequence(1, (1, 2, 3))
    coarse = SymbolPartition(b.alphabet, [[0], [1, 2]])
    full = SymbolPartition.full(b.alphabet)
    got = h_conditional(b, None, [coarse, full], seq)
    assert got == pytest.approx(
        float(-(np.array([0.5, 0.25, 0.25]) * np.log([0.5, 0.25, 0.25])).sum()),
        abs=1e-12,
    )
    with pytest.raises(ValueError):
        h_conditional(b, None, [], seq)


# -- identity verifier -----------------------------------------------------------


def _identity_instance():
    space = FiniteProbabilitySpace(range(4), [0.4, 0.3, 0.2, 0.1])
    alpha = Partition(space, [[0, 1], [2, 3]])
    beta = Partition(space, [[0, 2], [1, 3]])
    gamma = Partition(space, [[0, 3], [1, 2]])
    return space, alpha, beta, gamma


def test_verify_identities_all_ok():
    space, alpha, beta, gamma = _identity_instance()
    report = verify_entropy_identities(space, alpha, beta, gamma)
    assert report.ok
    names = [c.name for c in report.checks]
    assert names.count("refining_chain") == 2
    for required in (
        "join_subadditivity",
        "conditioning_monotone",
        "partition_monotone",
        "chain_rule",
    ):
        assert required in names
    assert all(abs(c.slack) < 1e-9 or c.slack > 0 for c in report.checks)


def test_verify_identities_with_action_and_pmp():
    space = FiniteProbabilitySpace(range(4), [0.25] * 4)
    action = FinitePMPAction(space, [(1, 2, 3, 0)])
    alpha = Partition(space, [[0, 1], [2, 3]])
    beta = Partition(space, [[0, 2], [1, 3]])
    gamma = Partition(space, [[0], [1], [2], [3]])
    report = verify_entropy_identities(
        space, alpha, beta, gamma, action=action, pmp_map=[3, 2, 1, 0]
    )
    assert report.ok
    names = [c.name for c in report.checks]
    assert names.count("translation_invariance") == 2  # +e and -e
    assert "pmp_invariance" in names
    assert report.min_slack("translation_invariance") >= -1e-12


def test_verify_identities_rejects_bad_pmp():
    space, alpha, beta, gamma = _identity_instance()
    with pytest.raises(ValueError):
        verify_entropy_identities(space, alpha, beta, gamma, pmp_map=[1, 0, 2, 3])
    other = FiniteProbabilitySpace(range(4), [0.25] * 4)
    with pytest.raises(SpaceMismatchError):
        verify_entropy_identities(
            space, alpha, beta, Partition.trivial(other)
        )


# -- rate inequality verifier ------------------------------------------------------


def test_verify_rate_inequalities_ok():
    b = bernoulli_shift([0.5, 0.25, 0.25])
    alpha = SymbolPartition.full(b.alphabet)
    beta = SymbolPartition(b.alphabet, [[0], [1, 2]])
    report = verify_rate_inequalities(
        b, alpha, beta, sequence=FolnerSequence(1, (1, 2, 3))
    )
    assert report.ok
    names = [c.name for c in report.checks]
    assert names == [
        "rate_vs_conditional",
        "join_rate_subadditive",
        "rate_monotone",
        "rate_chain_bound",
    ]
    assert report.estimates["h_alpha"] == pytest.approx(1.0397207708399179, abs=1e-12)
    assert report.estimates["h_beta"] == pytest.approx(LOG2, abs=1e-12)
    assert all(report.converged.values())


def test_verify_rate_inequalities_inconclusive_downgrade():
    # a negative tolerance forces every check into the violated branch;
    # non-converged estimates must then downgrade to inconclusive
    mk = markov_shift(PI, P)
    alpha = SymbolPartition.full(mk.alphabet)
    beta = SymbolPartition.trivial(mk.alphabet)
    short = verify_rate_inequalities(
        mk, alpha, beta, sequence=FolnerSequence(1, (1, 2)), tol=-1.0
    )
    assert not short.converged["h_alpha"]  # rate still falling at n = 2
    assert short.converged["h_beta"]  # trivial partition: constant zero rates
    statuses = {c.name: c.status for c in short.checks}
    assert statuses["rate_vs_conditional"] == "inconclusive"
    assert not short.ok or all(c.status != "violated" for c in short.checks)
    # converged estimates keep the violation visible
    b = bernoulli_shift([0.5, 0.5])
    a2 = SymbolPartition.full(b.alphabet)
    b2 = SymbolPartition.trivial(b.alphabet)
    hard = verify_rate_inequalities(
        b, a2, b2, sequence=FolnerSequence(1, (1, 2, 3)), tol=-1.0
    )
    assert any(c.status == "violated" for c in hard.checks)
    assert not hard.ok


# -- exhaustion --------------------------------------------------------------------


def test_chain_exhaustion_basic():
    space = FiniteProbabilitySpace(range(4), [0.4, 0.3, 0.2, 0.1])
    xi = Partition.points(space)
    chain = [
        Partition(space, [[0, 1], [2, 3]]),
        Partition(space, [[0], [1], [2, 3]]),
        Partition.points(space),
    ]
    result = verify_chain_exhaustion(space, chain, xi)
    assert result.ok
    assert result.first_separating == 2
    assert result.values[-1] == pytest.approx(0.0, abs=1e-12)
    assert result.values == sorted(result.values, reverse=True)
    assert result.min_step_slack >= -1e-12


def test_chain_exhaustion_with_conditioning():
    space = FiniteProbabilitySpace(range(4), [0.4, 0.3, 0.2, 0.1])
    xi = Partition.points(space)
    cond = Partition(space, [[0, 2], [1, 3]])
    chain = [Partition(space, [[0, 1], [2, 3]])]
    result = verify_chain_exhaustion(space, chain, xi, cond=cond)
    # the join of the two 2-block partitions already separates the atoms
    assert result.first_separating == 0
    assert result.values[0] == pytest.approx(0.0, abs=1e-12)
    assert result.ok


def test_chain_exhaustion_zero_mass_atoms_ignored():
    space = FiniteProbabilitySpace(range(4), [0.5, 0.5, 0.0, 0.0])
    xi = Partition.points(space)
    chain = [Partition(space, [[0, 2], [1, 3]])]
    result = verify_chain_exhaustion(space, chain, xi)
    assert result.first_separating == 0
    assert result.ok


def test_chain_exhaustion_rejects_non_increasing():
    space = FiniteProbabilitySpace(range(4), [0.4, 0.3, 0.2, 0.1])
    fine = Partition.points(space)
    coarse = Partition(space, [[0, 1], [2, 3]])
    with pytest.raises(ValueError, match="chain not increasing"):
        verify_chain_exhaustion(space, [fine, coarse], fine)
    with pytest.raises(ValueError, match="empty chain"):
        verify_chain_exhaustion(space, [], fine)


# -- wire labels -------------------------------------------------------------------


def test_property_label_tables():
    assert IDENTITY_PROPERTY_LABELS == {
        "join_subadditivity": "prop22_1",
        "translation_invariance": "prop22_2",
        "conditioning_monotone": "prop22_3",
        "partition_monotone": "prop22_3",
        "pmp_invariance": "prop22_4",
        "chain_rule": "prop22_5",
        "refining_chain": "prop22_6",
    }
    assert RATE_PROPERTY_LABELS == {
        "rate_vs_conditional": "thm7_1",
        "join_rate_subadditive": "thm7_2",
        "rate_monotone": "thm7_3",
        "rate_chain_bound": "thm7_4",
    }
    assert SUBADDITIVITY_PROPERTY_LABELS == {
        "monotonicity": "thm52_mono",
        "strong_subadditivity": "thm52_ssa",
        "translation_invariance": "thm51_ti",
        "k_cover": "thm51_kcover",
    }
