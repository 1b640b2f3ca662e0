"""Block entropies, rate traces, and the identity/inequality verifiers.

Every closed-form route is pinned against an independent computation:
product blocks against k * H(site), Markov blocks against the
stationary chain formula H(pi) + (n-1) H(P | pi) assembled by hand
here, mixtures against H(weights) + sum w_i H_i.
"""

import copy
import functools
import gc
import itertools
import math
import operator
import pickle
import tracemalloc

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
    act,
    bernoulli_shift,
    conditional_block_entropy,
    conditional_entropy,
    cylinder_measure,
    decompose_entropy,
    entropy,
    engine,
    entropy_rate,
    is_coarser,
    join,
    markov_shift,
    mixture,
    orbit_partition,
    spaces,
    systems,
    verify_chain_exhaustion,
    verify_entropy_identities,
    verify_rate_inequalities,
    verify_subadditive_hypotheses,
    window_entropy_phi,
    window_partition,
)
from folner_entropy import _kernels
from folner_entropy._kernels import entropy_from_logprobs, entropy_from_probs
from folner_entropy.cli import (
    IDENTITY_PROPERTY_LABELS,
    RATE_PROPERTY_LABELS,
    SUBADDITIVITY_PROPERTY_LABELS,
)
from folner_entropy.spaces import _join_rows
from folner_entropy.systems import (
    IncompatibleSubAlgebraError,
    MixtureSystem,
    ShiftSystem,
    _as_subalgebra,
    _finite_window_join,
    _mixture_alphas,
    resolve_cells,
    subpattern_codes,
    symbol_pattern_logprobs,
    symbol_pattern_probs,
)
from test_systems import as_finite_action

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


def test_markov_interval_keeps_the_default_cap():
    # the closed form enumerates nothing, but the cap still counts 2^|F| words
    mk = markov_shift(PI, P)
    H = conditional_block_entropy(mk, None, FolnerSubset.interval(0, 20))
    assert H == pytest.approx(markov_block_oracle(PI, P, 20), abs=1e-12)
    with pytest.raises(EnumerationCapError, match="pattern cap exceeded"):
        conditional_block_entropy(mk, None, FolnerSubset.interval(0, 21))


def test_periodic_chain_blocks_are_log_2():
    # the flip chain: X_0 is a fair coin and fixes every later symbol
    flip = markov_shift(None, [[0.0, 1.0], [1.0, 0.0]])
    for n in range(1, 21):
        H = conditional_block_entropy(flip, None, FolnerSubset.interval(0, n))
        assert H == pytest.approx(LOG2, abs=1e-15), n


def test_full_symbol_factor_leaves_exactly_nothing():
    # H(X^F | X^W) = 0: the joint and the factor terms share one pattern array
    mk3 = markov_shift(None, [[0.7, 0.2, 0.1], [0.3, 0.5, 0.2], [0.25, 0.25, 0.5]])
    ident = SubAlgebraSpec.symbol_factor({0: 0, 1: 1, 2: 2})
    for F, W in [
        (FolnerSubset.interval(0, 10), None),
        (_sites(0, 2, 5), FolnerSubset.interval(-1, 7)),
    ]:
        assert conditional_block_entropy(mk3, None, F, ident, W) == 0.0
        assert conditional_block_entropy(mixture([mk3], [1.0]), None, F, ident, W) == 0.0


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
    cell_of = dict(zip(cells.alphabet, cells.cell_labels().tolist()))
    joint, marginal = {}, {}
    for word in itertools.product(system.alphabet, repeat=len(elems)):
        mass = cylinder_measure(system, W, dict(zip(elems, word)))
        fkey = tuple(factor_map[s] for s in word)
        akey = tuple(cell_of[word[j]] for j in at_F)
        joint[akey, fkey] = joint.get((akey, fkey), 0.0) + mass
        marginal[fkey] = marginal.get(fkey, 0.0) + mass
    return _shannon(joint.values()) - _shannon(marginal.values())


def _bernoulli_full_cells():
    b = bernoulli_shift([0.3, 0.7], d=2)
    F = FolnerSubset.box(2, 3)
    return conditional_block_entropy(b, None, F), entropy_from_probs(window_partition(b, F))


def _bernoulli_coarse_cells():
    b = bernoulli_shift([0.5, 0.2, 0.3])
    cells = SymbolPartition(b.alphabet, [[0], [1, 2]])
    F = FolnerSubset.interval(0, 6)
    return conditional_block_entropy(b, cells, F), entropy_from_probs(window_partition(b, F, cells))


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
    return conditional_block_entropy(mx, None, F), entropy_from_probs(window_partition(mx, F))


def _finite_mixture():
    s1 = FiniteProbabilitySpace(range(5), [0.1, 0.3, 0.2, 0.2, 0.2])
    rot = FinitePMPAction(FiniteProbabilitySpace(range(5), [0.2] * 5), [(1, 2, 3, 4, 0)])
    cycle = FinitePMPAction(s1, [(0, 1, 3, 4, 2)])
    mx = mixture([rot, cycle], [0.35, 0.65])
    alphas = [
        Partition(rot.space, [[0, 1], [2, 3, 4]]),
        Partition(s1, [[0, 3], [1, 2, 4]]),
    ]
    union = as_finite_action(mx)
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


# -- finite window joins against the per-element join ----------------------------
#
# The window join splits F's rows into runs along the last axis and builds
# each run length by doubling, in O(log length) joins. The join it
# replaced powered T_g from scratch for every g; that join is kept here as
# the oracle: the doubled join must give an equal partition and, through
# conditional_block_entropy, an entropy equal by repr.


def _per_element_join(system, alpha, F):
    """alpha^F with every row ``labels[atom_map(g)]`` powered from scratch."""
    if len(F) == 0:
        return Partition.trivial(system.space)
    labels, k = alpha.labels(), alpha.n_blocks
    return _join_rows(system.space, ((labels[system.atom_map(g)], k) for g in F.rows.tolist()))


def _cyclic_product(*sides):
    """Z/s_1 x ... x Z/s_d acting on the uniform space of its points."""
    n = math.prod(sides)
    coords = np.array(np.unravel_index(np.arange(n), sides)).T
    gens = []
    for axis, side in enumerate(sides):
        moved = coords.copy()
        moved[:, axis] = (moved[:, axis] + 1) % side
        gens.append(np.ravel_multi_index(moved.T, sides))
    return FinitePMPAction(FiniteProbabilitySpace.uniform(n), gens)


def _random_labels(system, n_blocks, seed):
    rng = np.random.default_rng(seed)
    return Partition.from_labels(system.space, rng.integers(n_blocks, size=len(system.space)))


def _shifted_box(d, side, corner):
    return FolnerSubset(FolnerSubset.box(d, side).rows + np.array(corner))


def _doubling_cases():
    # lengths 2^j - 1, 2^j and 2^j + 1 up to 1025 start at -(length // 2);
    # 4096 blocks on 2^16 atoms make bounds large enough that both rows
    # of a join are relabelled
    n = 1 << 16
    line = _cyclic_product(n)
    few, many = _random_labels(line, 3, 37), _random_labels(line, 4096, 41)
    lengths = sorted({L for j in range(11) for L in (2**j - 1, 2**j, 2**j + 1)} - {0})
    cases = [(line, few, FolnerSubset.interval(-(L // 2), L - L // 2)) for L in lengths]
    cases += [(line, many, FolnerSubset.interval(-L, 0)) for L in (6, 7, 13, 64)]
    cube = _cyclic_product(8, 9, 10)
    for side, corner in ((5, (-7, 2, -3)), (7, (3, -9, -20))):
        cases.append((cube, _random_labels(cube, 3, 43), _shifted_box(3, side, corner)))
    return cases


def _window_cases():
    rotation = _cyclic_product(2000)
    cuts = np.sort(np.random.default_rng(5).choice(2000, size=8, replace=False))
    arcs = Partition.from_labels(
        rotation.space, (np.searchsorted(cuts, np.arange(2000), side="right") - 1) % 8
    )
    torus = _cyclic_product(40, 50)
    quadrants = _random_labels(torus, 3, 11)
    cube = _cyclic_product(4, 5, 6)
    scattered = FolnerSubset([(0, 0), (0, 3), (2, -7), (2, 1), (5, 5), (-4, 9), (11, -2)])
    cases = [
        (rotation, arcs, FolnerSubset.interval(0, 64)),
        (rotation, arcs, FolnerSubset.interval(-5, 20)),
        (rotation, arcs, FolnerSubset.interval(1000, 1016)),
        (rotation, arcs, FolnerSubset([(t,) for t in (0, 1, 4, 5, 9, 15)])),
        (rotation, arcs, FolnerSubset([(7,)])),
        (rotation, arcs, FolnerSubset([], d=1)),
        (torus, quadrants, scattered),
        (torus, quadrants, FolnerSubset([(-3, 8)])),
        (torus, quadrants, FolnerSubset([], d=2)),
        (cube, _random_labels(cube, 4, 13), FolnerSubset.box(3, 3)),
        (cube, _random_labels(cube, 2, 17), _shifted_box(3, 4, (-2, 1, -5))),
    ]
    for side in range(1, 7):
        cases.append((torus, quadrants, FolnerSubset.box(2, side)))
        cases.append((torus, quadrants, _shifted_box(2, side, (-side, 3 - 2 * side))))
    return cases + _doubling_cases()


@pytest.mark.parametrize("system, alpha, F", _window_cases())
def test_walked_window_join_equals_the_per_element_join(system, alpha, F):
    oracle = _per_element_join(system, alpha, F)
    assert _finite_window_join(system, alpha, F) == oracle
    H = conditional_block_entropy(system, alpha, F)
    assert repr(H) == repr(entropy(oracle))


def test_walked_window_join_under_an_invariant_partition():
    # x -> x + 2 on Z/2000 conditioned on its two orbits
    space = FiniteProbabilitySpace.uniform(2000)
    system = FinitePMPAction(space, [(np.arange(2000) + 2) % 2000])
    orbits = orbit_partition(system)
    alpha = _random_labels(system, 8, 23)
    C = SubAlgebraSpec.invariant_partition(orbits)
    for F in (FolnerSubset.interval(0, 64), FolnerSubset.interval(-9, 3)):
        H = conditional_block_entropy(system, alpha, F, C)
        assert repr(H) == repr(conditional_entropy(_per_element_join(system, alpha, F), orbits))


def _count_powered_maps(monkeypatch):
    """Record every atom_map argument that is neither zero nor a unit vector."""
    powered = []
    atom_map = FinitePMPAction.atom_map

    def counting(self, g):
        if sum(map(abs, g)) > 1:
            powered.append(tuple(g))
        return atom_map(self, g)

    monkeypatch.setattr(FinitePMPAction, "atom_map", counting)
    return powered


@pytest.mark.parametrize(
    "system, F",
    [
        (_cyclic_product(2000), FolnerSubset.interval(0, 64)),
        (_cyclic_product(40, 50), FolnerSubset.box(2, 8)),
        (_cyclic_product(4, 5, 6), _shifted_box(3, 5, (-2, 1, -5))),
    ],
)
def test_window_join_powers_at_most_d_plus_one_maps(monkeypatch, system, F):
    # the first row and one map per distinct step; every other element
    # is one gather through a stored generator or a kept step map
    alpha = _random_labels(system, 3, 29)
    powered = _count_powered_maps(monkeypatch)
    _finite_window_join(system, alpha, F)
    assert len(powered) <= system.d + 1


def test_window_join_with_all_steps_distinct():
    # steps 1, 2, ..., 39: no step map can be reused, and at most d of
    # them are kept, so the peak stays near ten int64 arrays of n atoms
    # (keeping every step map would hold 38 more, a peak above 40)
    n = 1 << 16
    system = _cyclic_product(n)
    alpha = _random_labels(system, 8, 31)
    F = FolnerSubset([(t * (t + 1) // 2,) for t in range(40)])
    oracle = _per_element_join(system, alpha, F)
    tracemalloc.start()
    try:
        walked = _finite_window_join(system, alpha, F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert walked == oracle
    assert peak < 16 * 8 * n


def test_window_join_with_many_run_lengths():
    # runs of every length 1..40, gapped, in shuffled order: each length
    # is built once and dropped before the next, so the peak stays under
    # the bound of the all-steps-distinct window (forty kept run joins
    # would pass it)
    n = 1 << 16
    system = _cyclic_product(n)
    alpha = _random_labels(system, 8, 47)
    lengths = np.random.default_rng(53).permutation(np.arange(1, 41)).tolist()
    starts = itertools.accumulate((L + 3 for L in lengths), initial=-500)
    F = FolnerSubset([(a + t,) for a, L in zip(starts, lengths) for t in range(L)])
    oracle = _per_element_join(system, alpha, F)
    tracemalloc.start()
    try:
        doubled = _finite_window_join(system, alpha, F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert doubled == oracle
    assert peak < 16 * 8 * n


def test_interval_join_takes_logarithmically_many_joins(monkeypatch):
    # every pairwise mixed-radix join is counted, in the doubling and in
    # the join of the runs; the per-element join of [0, 2^j) takes 2^j - 1
    counted = []
    join_codes = systems._join_codes

    def counting(rows):
        rows = list(rows)
        counted.append(len(rows) - 1)
        return join_codes(rows)

    monkeypatch.setattr(systems, "_join_codes", counting)
    monkeypatch.setattr(spaces, "_join_codes", counting)
    system = _cyclic_product(4096)
    alpha = _random_labels(system, 5, 59)
    for j in range(1, 14):
        for L in (2**j - 1, 2**j):
            counted.clear()
            _finite_window_join(system, alpha, FolnerSubset.interval(0, L))
            assert sum(counted) <= 2 * j


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
    cell_of = dict(zip(cells.alphabet, cells.cell_labels().tolist()))
    phi_of = dict(zip(phi.alphabet, phi.cell_labels().tolist()))
    joint = {}
    for i, s in enumerate(system.alphabet):
        key = (cell_of[s], phi_of[s])
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
        return entropy_from_probs(window_partition(system, F, cells, cap))
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


def _has_markov_component(system):
    components = system.components if isinstance(system, MixtureSystem) else (system,)
    return any(c.kind == "markov" for c in components)


def test_merged_factor_route_matches_the_replaced_routes():
    # Markov windows no longer enumerate, so their values move in the last
    # ulps; every other case, and every error, keeps its exact outcome
    cap = 2**14
    outcomes = set()
    for system, alpha, F, C, W in _factor_grid():
        new = _outcome(conditional_block_entropy, system, alpha, F, C, W, cap)
        old = _outcome(_old_block_entropy, system, alpha, F, _as_subalgebra(C), W, cap)
        case = (system, alpha, sorted(F.elements), C, W)
        assert new[0] == old[0], case
        if new[0] == "value" and _has_markov_component(system):
            H_new, H_old = float(new[1]), float(old[1])
            assert abs(H_new - H_old) <= 1e-13 * max(1.0, abs(H_old)), case
        else:
            assert new == old, case
        outcomes.add(new[0] if new[0] == "value" else new)
    # the grid reaches the values, the cap and the window-containment error
    assert "value" in outcomes
    assert ("EnumerationCapError", "pattern cap exceeded") in outcomes
    assert ("ValueError", "conditioning window must contain the window") in outcomes



def _cylinder_entropies(system, F, labels):
    """(H(X^F), H(phi^F)), every word's mass from ``cylinder_measure``; a
    mixture's words are tagged by component, its factor patterns are not."""
    if isinstance(system, MixtureSystem):
        parts = list(zip(system.components, system.weights))
    else:
        parts = [(system, 1.0)]
    elements = sorted(F.elements)
    words, factor_masses = [], {}
    for comp, weight in parts:
        for word in itertools.product(comp.alphabet, repeat=len(elements)):
            mass = float(weight) * cylinder_measure(comp, F, dict(zip(elements, word)))
            words.append(mass)
            key = tuple(labels[s] for s in word)
            factor_masses[key] = factor_masses.get(key, 0.0) + mass
    return entropy_from_probs(np.array(words)), entropy_from_probs(
        np.array(list(factor_masses.values()))
    )


def test_symbol_factor_on_d2_bernoulli_mixtures():
    # product components have no gaps to read: box(2, 2)'s first column
    # [0, 0, 1, 1] is not a d = 1 window with a gap of 0
    rng = np.random.default_rng(4417)
    F = FolnerSubset.box(2, 2)
    W_gapped = FolnerSubset([(0, 0), (0, 1), (1, 0), (1, 1), (0, 3), (4, -2)], 2)
    labels = {0: 0, 1: 0, 2: 1}
    factor = SubAlgebraSpec.symbol_factor(labels)
    for _ in range(4):
        p, q = rng.dirichlet(np.ones(3), size=2)
        system = mixture([bernoulli_shift(p, d=2), bernoulli_shift(q, d=2)], [0.3, 0.7])
        H_X, H_phi = _cylinder_entropies(system, F, labels)
        assert abs(conditional_block_entropy(system, None, F, factor) - (H_X - H_phi)) <= 1e-13
        for alpha in (None, _random_cells(rng, (0, 1, 2))):
            for W in (None, W_gapped):
                new = conditional_block_entropy(system, alpha, F, factor, W)
                old = _old_block_entropy(
                    system, alpha, F, _as_subalgebra(factor), W, DEFAULT_PATTERN_CAP
                )
                assert abs(new - old) <= 1e-13 * max(1.0, abs(old)), (alpha, W)


def test_nearly_stationary_pi_uses_the_cylinder_measure():
    # a supplied pi need only be stationary within a tolerance; the cylinders
    # then weight later sites by pi P^t, and so must every Markov route
    exact = markov_shift(None, P3).pi
    mk3 = markov_shift(exact + np.array([4e-11, -4e-11, 0.0]), P3, stationarity_tol=1e-10)
    labels = {0: 0, 1: 0, 2: 1}
    for F in (FolnerSubset.interval(0, 7), _sites(0, 2, 3, 6, 7)):
        H_X, H_phi = _cylinder_entropies(mk3, F, labels)
        assert abs(conditional_block_entropy(mk3, None, F) - H_X) <= 1e-13
        H = conditional_block_entropy(mk3, None, F, SubAlgebraSpec.symbol_factor(labels))
        assert abs(H - (H_X - H_phi)) <= 1e-13


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


def test_symbol_factor_windows_of_the_wrong_dimension_raise():
    # the two mixture cases used to return values
    Q3 = [[0.5, 0.25, 0.25], [0.1, 0.8, 0.1], [0.2, 0.2, 0.6]]
    factor = SubAlgebraSpec.symbol_factor({0: 0, 1: 0, 2: 1})
    mk3 = markov_shift(None, P3)
    bern2 = bernoulli_shift([0.5, 0.3, 0.2], d=2)
    bern2_pair = mixture([bern2, bernoulli_shift([0.2, 0.2, 0.6], d=2)], [0.5, 0.5])
    cases = [
        (mixture([mk3, markov_shift(None, Q3)], [0.5, 0.5]), FolnerSubset.box(2, 2), None),
        (bern2_pair, FolnerSubset.interval(0, 3), None),
        (mk3, FolnerSubset.box(2, 2), None),
        # the conditioning window is checked as well
        (mixture([mk3, mk3], [0.5, 0.5]), FolnerSubset.interval(0, 2), FolnerSubset.box(2, 3)),
        (mk3, FolnerSubset.interval(0, 2), FolnerSubset.box(2, 3)),
        (bern2, FolnerSubset.box(2, 2), FolnerSubset.interval(0, 3)),
    ]
    for system, F, W in cases:
        with pytest.raises(ValueError, match="^dimension mismatch$"):
            conditional_block_entropy(system, None, F, factor, W)


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


def test_rate_of_nested_finite_mixture_is_the_flat_mixtures():
    # a mixture holding a mixture of finite actions was traced: 0.4332, running-inf
    swap = FinitePMPAction(FiniteProbabilitySpace.uniform(2), [(1, 0)])
    seq = FolnerSequence(1, (1, 2, 3, 4))
    nested = mixture([mixture([swap, swap], [0.5, 0.5]), swap], [0.5, 0.5])
    flat = mixture([swap, swap, swap], [0.25, 0.25, 0.5])
    for system in (nested, flat):
        _, report = entropy_rate(system, sequence=seq)
        assert repr(report.estimate) == "0.0"
        assert report.method == "bounded-numerator"
        assert report.converged


def test_finite_block_entropy_rejects_a_moved_invariant_partition():
    # Z/4 rotated by one moves the block {0, 1}; the value was 0.6931
    space = FiniteProbabilitySpace.uniform(4)
    rotation = FinitePMPAction(space, [(1, 2, 3, 0)])
    C = SubAlgebraSpec.invariant_partition(Partition(space, [[0, 1], [2, 3]]))
    with pytest.raises(IncompatibleSubAlgebraError, match="conditioning partition is not fixed"):
        conditional_block_entropy(rotation, Partition.points(space), FolnerSubset.interval(0, 2), C)
    # the rotation by two fixes its orbits {0, 2}, {1, 3}, which are accepted
    double = FinitePMPAction(space, [(2, 3, 0, 1)])
    orbits = SubAlgebraSpec.invariant_partition(Partition(space, [[0, 2], [1, 3]]))
    assert conditional_block_entropy(double, Partition.points(space), FolnerSubset.interval(0, 2), orbits) == math.log(2)


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


# -- rate traces share one forward walk per chain and cell map --------------------


HALVES = np.array([0.5, 0.5])


def _trace_case(name):
    zeros = [[0.5, 0.5, 0.0], [0.3, 0.7, 0.0], [0.2, 0.3, 0.5]]
    mk3 = markov_shift(None, P3)
    near = markov_shift(mk3.pi + np.array([4e-11, -4e-11, 0.0]), P3, stationarity_tol=1e-10)
    factor = SubAlgebraSpec.symbol_factor({0: 0, 1: 1, 2: 1})
    bern3 = bernoulli_shift([0.5, 0.3, 0.2])
    space = FiniteProbabilitySpace(range(6), [0.25, 0.125, 0.125, 0.25, 0.125, 0.125])
    slow = markov_shift(HALVES, [[0.9, 0.1], [0.1, 0.9]])
    fast = markov_shift(HALVES, [[0.6, 0.4], [0.4, 0.6]])
    return {
        "markov": (markov_shift(PI, P), None, None),
        "markov-zero-entries": (markov_shift(None, zeros), None, None),
        "markov-nearly-stationary-pi": (near, None, None),
        "coarse-cells": (mk3, SymbolPartition(mk3.alphabet, [[0], [1, 2]]), None),
        "symbol-factor": (mk3, None, factor),
        "symbol-factor-mixture": (mixture([bern3, mk3], [0.3, 0.7]), None, factor),
        "mixture": (mixture([bernoulli_shift([0.6, 0.4]), markov_shift(PI, P)], [0.4, 0.6]), None, None),
        # two chains with one pi: walks are told apart by P
        "mixture-one-pi-two-chains": (mixture([slow, fast], [0.5, 0.5]), None, None),
        "finite": (
            FinitePMPAction(space, [(3, 4, 5, 0, 1, 2)]),
            Partition(space, [[0, 1], [2, 3], [4, 5]]),
            None,
        ),
    }[name]


TRACE_CASES = [
    "markov", "markov-zero-entries", "markov-nearly-stationary-pi", "coarse-cells",
    "symbol-factor", "symbol-factor-mixture", "mixture", "mixture-one-pi-two-chains", "finite",
]


def _rows(trace):
    return [repr(e.block_entropy) for e in trace.entries]


def _per_window_rows(system, alpha, C, seq, n_rows, cap=DEFAULT_PATTERN_CAP):
    """Each row's value from its own call, outside any rate trace."""
    return [
        repr(conditional_block_entropy(system, alpha, seq.subset(n), C, None, cap))
        for n in range(1, n_rows + 1)
    ]


@pytest.mark.parametrize("name", TRACE_CASES)
def test_trace_rows_equal_the_per_window_values(name):
    system, alpha, C = _trace_case(name)
    seq = FolnerSequence(1, (1, 2, 3, 4, 5, 6, 7, 9, 10))
    trace, _ = entropy_rate(system, alpha, C, seq)
    assert len(trace) == 9 and not trace.truncated
    assert _rows(trace) == _per_window_rows(system, alpha, C, seq, 9)
    trace, report = entropy_rate(system, alpha, C, seq, n_max=4)
    assert report.n_used == 4
    assert _rows(trace) == _per_window_rows(system, alpha, C, seq, 4)


@pytest.mark.parametrize("name", ["markov-zero-entries", "coarse-cells", "symbol-factor"])
def test_trace_cap_truncates_at_the_same_row(name):
    system, alpha, C = _trace_case(name)
    seq = FolnerSequence(1, tuple(range(1, 12)))
    cap = 3**7
    trace, report = entropy_rate(system, alpha, C, seq, cap=cap)
    assert report.truncated and report.n_used == 7
    assert _rows(trace) == _per_window_rows(system, alpha, C, seq, 7, cap)
    with pytest.raises(EnumerationCapError):
        conditional_block_entropy(system, alpha, seq.subset(8), C, None, cap)


def test_back_to_back_traces_of_one_chain_give_equal_rows():
    system, alpha, C = _trace_case("symbol-factor")
    seq = FolnerSequence(1, tuple(range(1, 10)))
    first, _ = entropy_rate(system, alpha, C, seq)
    other, _ = entropy_rate(system, SymbolPartition(system.alphabet, [[0, 1], [2]]), None, seq)
    second, _ = entropy_rate(system, alpha, C, seq)
    assert _rows(first) == _rows(second) == _per_window_rows(system, alpha, C, seq, 9)
    assert _rows(other) != _rows(first)


def test_trace_rows_resume_one_walk_per_chain_and_cell_map(monkeypatch):
    # inside a trace, row 1 starts one walk per chain and cell map, every
    # later row resumes it, and the unit gap's power is taken once per
    # chain, also when both kernels walk it; a window on its own starts
    # its own walk and takes its own powers
    started, powers = [], []
    first, matrix_power = _kernels._Chain.first, np.linalg.matrix_power

    def counted_first(self, kind):
        started.append(kind)
        return first(self, kind)

    def counted_power(P, gap):
        powers.append(gap)
        return matrix_power(P, gap)

    monkeypatch.setattr(_kernels._Chain, "first", counted_first)
    monkeypatch.setattr(np.linalg, "matrix_power", counted_power)
    seq = FolnerSequence(1, tuple(range(1, 11)))
    for name, walks in [("markov", 1), ("coarse-cells", 1), ("symbol-factor", 2), ("mixture", 1)]:
        started.clear(), powers.clear()
        system, alpha, C = _trace_case(name)
        entropy_rate(system, alpha, C, seq)
        assert len(started) == walks and powers == [1], name
    started.clear(), powers.clear()
    _per_window_rows(*_trace_case("markov"), seq, 10)
    assert len(started) == 10 and powers == [1] * 9


def _beyond_d1_case(name):
    bern = bernoulli_shift([0.5, 0.3, 0.2], d=2)
    factor = SubAlgebraSpec.symbol_factor({0: 0, 1: 1, 2: 1})
    coarse = SymbolPartition(bern.alphabet, [[0, 1], [2]])
    mix = mixture([bern, bernoulli_shift([0.1, 0.6, 0.3], d=2)], [0.3, 0.7])
    return {
        "bernoulli-2d": (bern, None, None),
        "bernoulli-2d-cells": (bern, coarse, None),
        "bernoulli-2d-symbol-factor": (bern, None, factor),
        "bernoulli-2d-cells-symbol-factor": (bern, coarse, factor),
        "mixture-2d-symbol-factor": (mix, None, factor),
        "mixture-2d-cells-symbol-factor": (mix, [coarse, None], factor),
        "mixture-1d-symbol-factor": (mixture([bernoulli_shift([0.5, 0.3, 0.2]), markov_shift(None, P3)], [0.6, 0.4]),
                                     [coarse, None], factor),
    }[name]


@pytest.mark.parametrize(
    "name",
    ["bernoulli-2d", "bernoulli-2d-cells", "bernoulli-2d-symbol-factor", "bernoulli-2d-cells-symbol-factor",
     "mixture-2d-symbol-factor", "mixture-2d-cells-symbol-factor", "mixture-1d-symbol-factor"],
)
def test_trace_rows_beyond_d1_equal_the_per_window_values(name):
    # every row equals its own call on the plain system; a mixture under a
    # symbol factor counts 3^|F| words per component, so its d = 2 trace
    # stops at the side-4 box
    system, alpha, C = _beyond_d1_case(name)
    seq = FolnerSequence(system.d, (1, 2, 3, 4, 8))
    trace, report = entropy_rate(system, alpha, C, seq)
    rows = 3 if name.startswith("mixture-2d") else 5
    assert len(trace) == rows and report.truncated == (rows < 5)
    assert _rows(trace) == _per_window_rows(system, alpha, C, seq, rows)


def test_trace_costs_fixed_for_the_whole_trace_do_not_grow_with_its_rows(monkeypatch):
    # factor partitions, cell joins, the entropy of the component weights,
    # a product measure's one-site masses and one-map-per-site label tables
    # are made at a trace's first row at most, so 12 rows make no more than 6
    counts = {}

    def counted(name, fn, when=lambda *args: True):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when(*args):
                counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    weights = []
    monkeypatch.setattr(SymbolPartition, "_grouped", classmethod(counted("partition", SymbolPartition._grouped.__func__)))
    monkeypatch.setattr(SymbolPartition, "join", counted("join", SymbolPartition.join))
    monkeypatch.setattr(systems, "_cell_masses", counted("cell masses", systems._cell_masses))
    # a weight vector is a mixture's weights or a single shift's (1.0,)
    monkeypatch.setattr(systems, "entropy_from_probs", counted(
        "weight entropy", systems.entropy_from_probs, lambda p: isinstance(p, tuple) or any(p is w for w in weights)))
    monkeypatch.setattr(systems, "hidden_markov_pattern_probs", counted(
        "label table", systems.hidden_markov_pattern_probs, lambda chain, offsets, cells: np.ndim(cells) == 2))
    seq = FolnerSequence(1, tuple(range(1, 13)))
    grew = {}
    for name in ["markov", "coarse-cells", "symbol-factor", "mixture"]:
        made = []
        for n_max in (6, 12):
            # a new spec each time: a spec keeps its partitions across traces
            system, alpha, C = _trace_case(name)
            weights[:] = [system.weights] if isinstance(system, systems.MixtureSystem) else []
            counts.clear()
            entropy_rate(system, alpha, C, seq, n_max=n_max)
            made.append(dict(counts))
        if made[0] != made[1]:
            grew[name] = made
    assert not grew


def test_a_spec_is_immutable_and_keeps_its_factor_partition_per_alphabet():
    source = {0: 0, 1: 1, 2: 1, "x": 0}
    spec = SubAlgebraSpec.symbol_factor(source)
    source[1] = 0
    assert dict(spec.factor_map) == {0: 0, 1: 1, 2: 1, "x": 0}
    with pytest.raises(AttributeError, match="immutable"):
        spec.kind = "trivial"
    with pytest.raises(AttributeError, match="immutable"):
        spec.factor_map = {0: 0}
    with pytest.raises(AttributeError, match="immutable"):
        del spec.partition
    with pytest.raises(TypeError):
        spec.factor_map[1] = 0
    phi = spec.factor_partition((0, 1, 2))
    assert spec.factor_partition([0, 1, 2]) is phi
    other = spec.factor_partition((2, "x", 0))
    assert other is not phi and spec.factor_partition((2, "x", 0)) is other
    assert (phi, other) == (SymbolPartition((0, 1, 2), [[0], [1, 2]]), SymbolPartition((2, "x", 0), [[2], ["x", 0]]))
    cells = SymbolPartition((0, 1, 2), [[0, 1], [2]])
    joint = spec._joined(cells)
    assert joint == cells.join(phi) and spec._joined(SymbolPartition((0, 1, 2), [[0, 1], [2]])) is joint
    copied = copy.copy(spec)
    assert copied is not spec and copied.factor_partition((0, 1, 2)) == phi
    assert dict(pickle.loads(pickle.dumps(spec)).factor_map) == dict(spec.factor_map)
    assert systems._as_subalgebra(None) is systems._as_subalgebra(None)
    assert systems._as_subalgebra(None).kind == "trivial"
    with pytest.raises(AttributeError, match="immutable"):
        systems._as_subalgebra(None).kind = "symbol_factor"


PHI_CASES = [name for name in TRACE_CASES if name != "finite"]


@pytest.mark.parametrize("name", PHI_CASES)
def test_phi_values_equal_the_per_window_values(name):
    # one set function keeps its walking copy across calls: shared gap
    # steps, first states and interval walks, met in any order
    system, alpha, C = _trace_case(name)
    phi = window_entropy_phi(system, alpha, C)
    rng = np.random.default_rng(len(name))
    windows = [FolnerSubset.interval(0, n) for n in (5, 3, 3, 7, 1, 2)]
    for _ in range(150):
        sites = np.unique(rng.integers(-3, 11, size=int(rng.integers(1, 7))))
        windows.append(FolnerSubset([(int(x),) for x in sites]))
    for F in windows:
        assert repr(phi(F)) == repr(conditional_block_entropy(system, alpha, F, C)), F


P4 = np.array([[0.4, 0.3, 0.2, 0.1], [0.1, 0.6, 0.2, 0.1], [0.25, 0.25, 0.25, 0.25], [0.3, 0.1, 0.1, 0.5]])

TABLE_CASES = {
    "markov": _trace_case("markov")[0],
    "markov-zero-entries": _trace_case("markov-zero-entries")[0],
    "markov3": markov_shift(None, P3),
    "markov4": markov_shift(None, P4),
}


@pytest.mark.parametrize("name", sorted(TABLE_CASES))
def test_mask_table_equals_the_per_window_values(name):
    # with 3 or more states a 2-D product of the stacked states rounds
    # differently from the per-window vector-matrix products
    system = TABLE_CASES[name]
    phi = window_entropy_phi(system)
    for n in range(1, 11):
        box = FolnerSubset.box(1, n)
        table = phi.mask_table(box)
        assert table.shape == (1 << n,)
        for mask in range(1 << n):
            F = FolnerSubset._from_rows(box.rows[[mask >> i & 1 == 1 for i in range(n)]], 1)
            assert repr(float(table[mask])) == repr(conditional_block_entropy(system, None, F)), (n, mask)


@pytest.mark.parametrize("name", ["coarse-cells", "symbol-factor", "mixture"])
def test_mask_table_is_offered_only_on_the_full_symbol_markov_route(name):
    phi = window_entropy_phi(*_trace_case(name))
    assert phi.mask_table(FolnerSubset.box(1, 4)) is None
    # and a box the shift does not act on is left to the per-window reads
    assert window_entropy_phi(TABLE_CASES["markov"]).mask_table(FolnerSubset.box(2, 2)) is None


@pytest.mark.parametrize("name", ["markov", "markov-zero-entries", "coarse-cells"])
def test_exhaustive_report_takes_one_power_per_gap(monkeypatch, name):
    # 256 windows of box(1, 8) share one step per gap of the chain
    powers = []
    matrix_power = np.linalg.matrix_power

    def counted(P, gap):
        powers.append((P.tobytes(), gap))
        return matrix_power(P, gap)

    monkeypatch.setattr(np.linalg, "matrix_power", counted)
    windows = _spy_on_records(monkeypatch)
    tables, partitions = [], []
    monkeypatch.setattr(systems, "markov_mask_entropies", _spy(tables, systems.markov_mask_entropies))
    monkeypatch.setattr(systems, "window_partition", _spy(partitions, systems.window_partition))
    system, alpha, C = _trace_case(name)
    report = verify_subadditive_hypotheses(
        window_entropy_phi(system, alpha, C), FolnerSubset.box(1, 8), exhaustive=True
    )
    assert report.ok
    assert sorted(gap for _, gap in powers) == list(range(1, 8))
    # full-symbol windows come from one table; coarse cells are read per window
    if name == "coarse-cells":
        assert (len(tables), len(partitions)) == (0, 256)
    else:
        assert (len(tables), len(windows), len(partitions)) == (1, 0, 0)


def _spy(calls: list, f):
    """``f``, recording each call's arguments in ``calls``."""

    def spy(*args):
        calls.append(args)
        return f(*args)

    return spy


def _spy_on_records(monkeypatch) -> list:
    """The list that collects the record of every full-symbol window."""
    chains = []
    walked = _kernels.markov_window_entropy

    def spy(chain, offsets):
        chains.append(chain)
        return walked(chain, offsets)

    monkeypatch.setattr(systems, "markov_window_entropy", spy)
    return chains


def _fail_on_row_4(monkeypatch) -> None:
    """Make every window of 4 sites raise, after the rows before it walked."""
    block_entropy = engine.conditional_block_entropy

    def fail_on_row_4(system, alpha, F, *rest):
        if len(F) == 4:
            raise RuntimeError("row 4")
        return block_entropy(system, alpha, F, *rest)

    monkeypatch.setattr(engine, "conditional_block_entropy", fail_on_row_4)


def _shifts_of(system):
    if isinstance(system, MixtureSystem):
        return [shift for comp in system.components for shift in _shifts_of(comp)]
    return [system]


def test_no_walk_outlives_its_trace(monkeypatch):
    chains = _spy_on_records(monkeypatch)
    system, _, _ = _trace_case("markov")
    seq = FolnerSequence(1, tuple(range(1, 8)))
    entropy_rate(system, sequence=seq)
    assert len(chains) == 7 and all(c is chains[0] for c in chains)
    # the trace's walking copy went with the call: only the spy holds its record
    assert system._walk is None and gc.get_referrers(chains[0]) == [chains]

    # a row that raises after walks were stored
    chains.clear()
    _fail_on_row_4(monkeypatch)
    with pytest.raises(RuntimeError, match="row 4"):
        entropy_rate(system, sequence=seq)
    assert len(chains) == 3 and all(c is chains[0] for c in chains) and chains[0].walks
    assert system._walk is None

    # an incompatible conditioning raises on row 1
    invariant = SubAlgebraSpec.invariant_partition(Partition.points(FiniteProbabilitySpace.uniform(2)))
    with pytest.raises(IncompatibleSubAlgebraError):
        entropy_rate(system, None, invariant, seq)
    assert system._walk is None


def test_the_caller_system_owns_no_walk(monkeypatch):
    # each trace and set function walks a copy of its own; the caller's
    # shifts, mixture components included, never hold a record
    seq = FolnerSequence(1, tuple(range(1, 7)))
    for name in ["markov", "coarse-cells", "symbol-factor", "symbol-factor-mixture", "mixture"]:
        system, alpha, C = _trace_case(name)
        entropy_rate(system, alpha, C, seq)
        phi = window_entropy_phi(system, alpha, C)
        phi(FolnerSubset.interval(0, 4)), phi(FolnerSubset([(0,), (3,)]))
        if isinstance(system, MixtureSystem):
            decompose_entropy(system, alpha=alpha, C=C, sequence=seq)
        assert all(shift._walk is None for shift in _shifts_of(system)), name

    # an object of no system kind reaches the dispatch's error unchanged
    with pytest.raises(TypeError, match="^unsupported system kind$"):
        entropy_rate(object(), sequence=seq)
    with pytest.raises(TypeError, match="^unsupported system kind$"):
        window_entropy_phi(object())(FolnerSubset.interval(0, 2))

    # back-to-back traces of one system walk different records
    chains = _spy_on_records(monkeypatch)
    system, _, _ = _trace_case("markov")
    entropy_rate(system, sequence=seq)
    entropy_rate(system, sequence=seq)
    assert len(chains) == 12 and len({id(c) for c in chains}) == 2

    system, _, _ = _trace_case("mixture")
    _fail_on_row_4(monkeypatch)
    with pytest.raises(RuntimeError, match="row 4"):
        entropy_rate(system, sequence=seq)
    assert all(shift._walk is None for shift in _shifts_of(system))


def test_a_bare_symbol_factor_call_takes_each_power_once(monkeypatch):
    # both kernels of the one component walk one record: P^1 is taken once
    powers = []
    matrix_power = np.linalg.matrix_power

    def counted(P, gap):
        powers.append(gap)
        return matrix_power(P, gap)

    monkeypatch.setattr(np.linalg, "matrix_power", counted)
    factor = SubAlgebraSpec.symbol_factor({0: 0, 1: 1, 2: 1})
    conditional_block_entropy(markov_shift(None, P3), None, FolnerSubset.interval(0, 10), factor)
    assert powers == [1]


# -- finite traces resume the previous box ------------------------------------------
#
# A trace's walking copy of a finite action joins the 2^d translates of
# the last box's partition when the side at most doubles, and returns
# that partition once a box has as many blocks as the box before it.
# Every row must still equal, by repr, the value of its window on the
# plain system, which takes the run joins.


def _arcs(system, n_arcs, seed):
    n = len(system.space)
    cuts = np.sort(np.random.default_rng(seed).choice(n, size=n_arcs, replace=False))
    return Partition.from_labels(system.space, (np.searchsorted(cuts, np.arange(n), side="right") - 1) % n_arcs)


def _rotation_by(n, step):
    return FinitePMPAction(FiniteProbabilitySpace.uniform(n), [(np.arange(n) + step) % n])


def _resume_case(name):
    rotation, torus, cube = _cyclic_product(2000), _cyclic_product(40, 50), _cyclic_product(4, 5, 6)
    double = _rotation_by(600, 2)
    orbits = SubAlgebraSpec.invariant_partition(orbit_partition(double))
    return {
        "d1-arcs": (rotation, _arcs(rotation, 8, 5), None),
        "d1-points": (rotation, None, None),
        "d1-orbits": (double, _arcs(double, 8, 7), orbits),
        "d2-labels": (torus, _random_labels(torus, 3, 11), None),
        "d3-labels": (cube, _random_labels(cube, 2, 17), None),
        "d1-mixture": (
            mixture([rotation, double], [0.3, 0.7]),
            [_arcs(rotation, 8, 5), _random_labels(double, 3, 19)],
            None,
        ),
    }[name]


RESUME_SCHEDULES = {
    1: [(1, 2, 3, 4, 5, 6, 7, 9, 10), (1, 3, 7, 15, 40, 64), (2, 3, 5, 11, 12, 24, 48, 97)],
    2: [(1, 2, 3, 4, 5, 6), (1, 3, 7, 8, 16), (2, 4, 9, 13, 26)],
    3: [(1, 2, 3, 4, 6), (1, 3, 8, 9)],
}


@pytest.mark.parametrize("name", ["d1-arcs", "d1-points", "d1-orbits", "d2-labels", "d3-labels", "d1-mixture"])
def test_resumed_trace_rows_equal_the_per_window_values(name):
    # schedules with steps of at most 2s (resumed) and past 2s (run joins)
    system, alpha, C = _resume_case(name)
    for sides in RESUME_SCHEDULES[system.d]:
        seq = FolnerSequence(system.d, sides)
        trace, _ = entropy_rate(system, alpha, C, seq)
        assert _rows(trace) == _per_window_rows(system, alpha, C, seq, len(sides)), sides


def test_resumed_decomposition_equals_the_run_joined_one():
    # x -> x + 2 on Z/600 over its two orbits; the rows and the infimum
    # are the values the run joins of every row gave
    system, alpha, _ = _resume_case("d1-orbits")
    res = decompose_entropy(system, None, alpha, None, FolnerSequence(1, (1, 2, 3, 5, 8, 16, 40, 64)))
    assert _rows(res.lhs_trace) == [
        "1.7235606764385827", "1.837018473735456", "1.9491314699782314", "2.1689320871090683",
        "2.485580017054205", "3.1778836804118225", "4.20652498928486", "5.026721569816682",
    ]
    assert repr(res.lhs_report.inf_value) == "0.07854252452838566"
    assert (res.lhs, res.rhs, res.gap, res.certified) == (0.0, 0.0, 0.0, True)
    assert [(c.label, c.weight, c.estimate) for c in res.components] == [
        ("block:0", 0.5000000000000001, 0.0), ("block:1", 0.5000000000000001, 0.0),
    ]


def test_a_saturated_trace_joins_no_more_boxes(monkeypatch):
    # on the (Z/8)^2 torus the box partitions stop refining by side 8;
    # after the row whose block count repeats, no row joins or builds its box
    torus = _cyclic_product(8, 8)
    alpha = _random_labels(torus, 2, 3)
    seq = FolnerSequence(2, tuple(2**j for j in range(9)))
    counts = [_finite_window_join(torus, alpha, seq.subset(n)).n_blocks for n in range(1, 10)]
    saturating = next(n for n in range(2, 10) if counts[n - 1] == counts[n - 2])
    assert 2 <= saturating <= 5
    fresh = _per_window_rows(torus, alpha, None, seq, 9)

    joins, windows = [], []
    join_rows, block_entropy = systems._join_rows, engine.conditional_block_entropy

    def counted_join(*args):
        joins[-1] += 1
        return join_rows(*args)

    def per_row(system, alpha, F, *rest):
        joins.append(0)
        windows.append(F)
        return block_entropy(system, alpha, F, *rest)

    monkeypatch.setattr(systems, "_join_rows", counted_join)
    monkeypatch.setattr(engine, "conditional_block_entropy", per_row)
    trace, _ = entropy_rate(torus, alpha, sequence=seq)
    assert _rows(trace) == fresh
    assert all(joins[:saturating]) and not any(joins[saturating:])
    assert all(F._rows is None for F in windows[saturating:])
    assert [e.F_size for e in trace.entries] == [4**j for j in range(9)]


def test_subsets_of_a_box_never_read_the_box_record():
    # an exhaustive report reads phi on every subset of box(1, 8): none is
    # a box, so the walking copy's values are the plain system's
    system, alpha, _ = _resume_case("d1-arcs")
    box = FolnerSubset.box(1, 8)
    walked = verify_subadditive_hypotheses(window_entropy_phi(system, alpha), box, exhaustive=True)
    plain = verify_subadditive_hypotheses(lambda F: conditional_block_entropy(system, alpha, F), box, exhaustive=True)
    assert walked == plain and walked.ok
    assert walked.checked == plain.checked and walked.min_slack == plain.min_slack


def test_a_zero_entropy_reads_positive_zero():
    # every mass 0 or 1: the negated sum of p log p would be -0.0
    trace, report = entropy_rate(
        markov_shift([1.0, 0.0], [[1, 0], [0.5, 0.5]]), sequence=FolnerSequence(1, (1, 2, 3))
    )
    values = [
        entropy(Partition.trivial(FiniteProbabilitySpace.uniform(3))),
        conditional_block_entropy(bernoulli_shift([1.0, 0.0]), None, FolnerSubset.interval(0, 3)),
        trace.entries[0].block_entropy,
        report.estimate,
        entropy_from_probs(np.array([0.0, 1.0])),
        entropy_from_logprobs(np.array([-np.inf, 0.0])),
        *_kernels._row_entropies(np.eye(2)).tolist(),
    ]
    assert [repr(v) for v in values] == ["0.0"] * 8


def test_entropy_rate_on_the_generator_is_the_largest():
    # the full-symbol partition generates, so its rate is h(T); a coarser
    # partition's rate is below it
    b = bernoulli_shift([0.5, 0.25, 0.25])
    seq = FolnerSequence(1, (1, 2, 3))
    coarse = SymbolPartition(b.alphabet, [[0], [1, 2]])
    full = SymbolPartition.full(b.alphabet)
    rates = [entropy_rate(b, p, None, seq)[1].estimate for p in (coarse, full, None)]
    assert max(rates) == pytest.approx(
        float(-(np.array([0.5, 0.25, 0.25]) * np.log([0.5, 0.25, 0.25])).sum()),
        abs=1e-12,
    )
    assert rates[0] < rates[1] == rates[2]


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
    with pytest.raises(ValueError, match="^map does not preserve the measure$"):
        verify_entropy_identities(space, alpha, beta, gamma, pmp_map=[1, 0, 2, 3])
    with pytest.raises(ValueError, match="^not a permutation$"):
        verify_entropy_identities(space, alpha, beta, gamma, pmp_map=[0, 0, 2, 3])
    other = FiniteProbabilitySpace(range(4), [0.25] * 4)
    with pytest.raises(SpaceMismatchError, match="^space mismatch$"):
        verify_entropy_identities(
            space, alpha, beta, Partition.trivial(other)
        )
    # the action's space is checked before the map
    uniform_action = FinitePMPAction(other, [(1, 2, 3, 0)])
    with pytest.raises(SpaceMismatchError, match="^space mismatch$"):
        verify_entropy_identities(
            space, alpha, beta, gamma, action=uniform_action, pmp_map=[0, 0, 2, 3]
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


def test_verify_rate_inequalities_inconclusive_downgrade(monkeypatch):
    # every check is forced into the violated branch by reading each slack
    # 1 nat lower (tolerances are nonnegative, so a negative one no longer
    # can); non-converged estimates must then downgrade to inconclusive
    real_check = engine._check
    monkeypatch.setattr(
        engine, "_check", lambda name, slack, tol, detail="": real_check(name, slack - 1.0, tol, detail)
    )
    mk = markov_shift(PI, P)
    alpha = SymbolPartition.full(mk.alphabet)
    beta = SymbolPartition.trivial(mk.alphabet)
    short = verify_rate_inequalities(
        mk, alpha, beta, sequence=FolnerSequence(1, (1, 2))
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
        b, a2, b2, sequence=FolnerSequence(1, (1, 2, 3))
    )
    assert any(c.status == "violated" for c in hard.checks)
    assert not hard.ok


BAD_TOLERANCES = [float("nan"), float("inf"), float("-inf"), -1.0]
TOLERANCE_MESSAGE = r"^tolerance must be a finite number >= 0$"


@pytest.mark.parametrize("bad", BAD_TOLERANCES)
def test_verify_identities_rejects_bad_tolerances(bad):
    # a NaN tolerance made every check pass
    space, alpha, beta, gamma = _identity_instance()
    for kwargs in ({"tolerance": bad}, {"equality_tolerance": bad}):
        with pytest.raises(ValueError, match=TOLERANCE_MESSAGE):
            verify_entropy_identities(space, alpha, beta, gamma, **kwargs)
    assert verify_entropy_identities(space, alpha, beta, gamma, tolerance=0.0, equality_tolerance=0.0).ok


@pytest.mark.parametrize("bad", BAD_TOLERANCES)
def test_verify_rate_inequalities_rejects_bad_tolerances(bad, monkeypatch):
    # the tolerance is checked before any rate is traced
    monkeypatch.setattr(engine, "entropy_rate", None)
    b = bernoulli_shift([0.5, 0.5])
    alpha = SymbolPartition.full(b.alphabet)
    with pytest.raises(ValueError, match=TOLERANCE_MESSAGE):
        verify_rate_inequalities(b, alpha, SymbolPartition.trivial(b.alphabet), tol=bad)


def random_space(rng: np.random.Generator, max_atoms: int = 10) -> FiniteProbabilitySpace:
    """A random space with 2..max_atoms atoms; may include zero-mass atoms."""
    n = int(rng.integers(2, max_atoms + 1))
    w = rng.random(n)
    if n >= 3 and rng.random() < 0.3:
        k = int(rng.integers(1, max(2, n // 3) + 1))
        w[rng.choice(n, size=k, replace=False)] = 0.0
    if w.sum() <= 0.0:
        w[0] = 1.0
    return FiniteProbabilitySpace(range(n), w / w.sum())


def random_partition(rng: np.random.Generator, space: FiniteProbabilitySpace) -> Partition:
    """Labels uniform below a bound drawn uniformly from 1..n."""
    k = int(rng.integers(1, len(space) + 1))
    return Partition.from_labels(space, rng.integers(0, k, size=len(space)))


def random_permutation_instance(rng: np.random.Generator, max_atoms: int = 10):
    """A space together with a permutation preserving it bit-exactly.

    Masses are assigned per cycle of the permutation (one shared float
    per cycle), so ``masses[perm[j]] == masses[j]`` holds as an exact
    float identity, which the action constructor requires.
    """
    n = int(rng.integers(2, max_atoms + 1))
    perm = [int(x) for x in rng.permutation(n)]
    seen = [False] * n
    cycles = []
    for s in range(n):
        if seen[s]:
            continue
        cyc = [s]
        seen[s] = True
        j = perm[s]
        while j != s:
            cyc.append(j)
            seen[j] = True
            j = perm[j]
        cycles.append(cyc)
    w = rng.random(len(cycles))
    total = float(sum(len(c) * wi for c, wi in zip(cycles, w)))
    masses = np.empty(n)
    for cyc, wi in zip(cycles, w):
        masses[cyc] = float(wi) / total
    space = FiniteProbabilitySpace(range(n), masses)
    return space, tuple(perm)


def _identity_pairs_from_partitions(space, alpha, beta, gamma, action, pmp_map):
    """The identity pairs as partitions, built by join, act and an explicit
    pullback: the oracle for the label-array term builder."""
    ab = join(alpha, beta)
    bc = join(beta, gamma)
    abc = join(ab, gamma)
    pairs = [(alpha, gamma), (beta, gamma), (ab, gamma), (alpha, bc), (bc, alpha), (beta, alpha), (alpha, abc)]
    for g in ((1,), (-1,)):
        pairs.append((act(action, g, alpha), act(action, g, gamma)))
    inverse = np.argsort(np.asarray(pmp_map))
    pairs.append(tuple(Partition.from_labels(space, p.labels()[inverse]) for p in (alpha, gamma)))
    return pairs


@pytest.mark.parametrize("spread", [1, 1 << 20])
@pytest.mark.parametrize("max_atoms", [2, 10, 80])
def test_identity_entropies_equal_partition_algebra(max_atoms, spread):
    rng = np.random.default_rng(max_atoms)
    instances = []
    for _ in range(12):
        space, perm = random_permutation_instance(rng, max_atoms)
        triple = [random_partition(rng, space) for _ in range(3)]
        instances.append((space, perm, triple))
    expected = []
    for space, perm, triple in instances:
        action = FinitePMPAction(space, [perm])
        pmp_map = tuple(int(x) for x in np.argsort(np.asarray(perm)))
        pairs = _identity_pairs_from_partitions(space, *triple, action, pmp_map)
        expected.append([conditional_entropy(p, q) for p, q in pairs])
        # one triple alone, as verify_entropy_identities builds it
        inverse = np.argsort(np.asarray(perm))
        labels = [p.labels() for p in triple]
        (own,) = engine._identity_entropies(
            space.masses, [len(space)], labels, [p.n_blocks for p in triple],
            [inverse, np.asarray(perm), np.asarray(perm)],
        ).T.tolist()
        assert repr(own) == repr(expected[-1])
    # all triples stacked, as a sweep batch stacks them
    sizes = [len(space) for space, _, _ in instances]
    starts = np.cumsum([0] + sizes[:-1])
    perm = np.concatenate([np.asarray(p) + s for (_, p, _), s in zip(instances, starts)])
    # codes spread below spread * bound: at 2**20 the triple join's bound
    # passes int64 unless it is relabelled first
    labels = [
        np.concatenate([triple[i].labels() for _, _, triple in instances]) * spread + (spread - 1)
        for i in range(3)
    ]
    bounds = [max(triple[i].n_blocks for _, _, triple in instances) * spread for i in range(3)]
    stacked = engine._identity_entropies(
        np.concatenate([space.masses for space, _, _ in instances]), sizes, labels, bounds,
        [np.argsort(perm), perm, perm],
    ).T.tolist()
    assert repr(stacked) == repr(expected)


def test_one_call_entry_points_return_python_floats():
    # the array entries return arrays over their pairs; a one-pair call
    # converts once, so no numpy scalar reaches a report or a repr
    space = FiniteProbabilitySpace(range(4), [0.1, 0.2, 0.3, 0.4])
    alpha = Partition.from_labels(space, [0, 1, 1, 0])
    beta = Partition.from_labels(space, [0, 0, 1, 1])
    action = FinitePMPAction(space, [(0, 1, 2, 3)])
    assert type(conditional_entropy(alpha, beta)) is float
    assert type(spaces.disintegrate(space, beta).reconstruct([0, 2])) is float
    report = verify_entropy_identities(space, alpha, beta, Partition.trivial(space), action, pmp_map=(0, 1, 2, 3))
    assert report.checks and all(type(c.slack) is float for c in report.checks)
    chain = [beta, join(alpha, beta), Partition.points(space)]
    result = verify_chain_exhaustion(space, chain, alpha)
    assert type(result.values) is list and all(type(v) is float for v in result.values)
    assert type(result.min_step_slack) is float


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


def _chain_exhaustion_by_partitions(space, chain, xi, cond, tolerance):
    """``verify_chain_exhaustion`` from partition joins, ``is_coarser`` and
    one ``conditional_entropy`` per term: the oracle of its array pass."""
    for prev, cur in zip(chain, chain[1:]):
        if not is_coarser(prev, cur):
            raise ValueError("chain not increasing")
    base = Partition.trivial(space) if cond is None else cond
    parts = [join(part, base) for part in chain]
    values = [conditional_entropy(xi, part) for part in parts]
    positive = space.masses > 0.0
    separating = [i for i, part in enumerate(parts) if np.bincount(part.labels()[positive]).max() <= 1]
    first = separating[0] if separating else None
    steps = [prev - cur for prev, cur in zip(values, values[1:])]
    min_step = min(steps) if steps else 0.0
    ok = not min_step < -tolerance
    if first is not None and any(abs(v) > tolerance for v in values[first:]):
        ok = False
    return (values, min_step, first, ok)


@pytest.mark.parametrize("max_atoms", [2, 6, 40])
def test_chain_exhaustion_equals_partition_algebra(max_atoms):
    # random chains, some of them not increasing (a term not joined with the
    # one before it), over spaces with zero-mass atoms
    rng = np.random.default_rng(max_atoms)
    outcomes = set()
    for _ in range(150):
        space = random_space(rng, max_atoms)
        xi = random_partition(rng, space)
        cond = random_partition(rng, space) if rng.random() < 0.5 else None
        chain = [random_partition(rng, space)]
        for _ in range(int(rng.integers(0, 4))):
            step = random_partition(rng, space)
            chain.append(join(chain[-1], step) if rng.random() < 0.8 else step)
        if rng.random() < 0.5:
            chain.append(Partition.points(space))
        try:
            expected = repr(_chain_exhaustion_by_partitions(space, chain, xi, cond, 1e-12))
        except ValueError as error:
            outcomes.add("raises")
            with pytest.raises(ValueError, match=f"^{error}$"):
                verify_chain_exhaustion(space, chain, xi, cond)
            continue
        result = verify_chain_exhaustion(space, chain, xi, cond)
        outcomes.add(result.first_separating is not None)
        got = (result.values, result.min_step_slack, result.first_separating, result.ok)
        assert repr(got) == expected
    assert outcomes == {"raises", True, False}


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
