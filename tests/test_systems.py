"""Shift and finite measure models: cylinder measures, window pattern
distributions, invariance certification, and mixtures.

Markov windows are computed two independent ways and compared: the
transfer-style marginalization used by the library versus the explicit
sum over all gap fillings (the defining expression).
"""

import itertools

import numpy as np
import pytest

from folner_entropy import (
    EnumerationCapError,
    FinitePMPAction,
    FiniteProbabilitySpace,
    FolnerSubset,
    IncompatibleSubAlgebraError,
    MixtureSystem,
    Partition,
    SpaceMismatchError,
    SubAlgebraSpec,
    SymbolPartition,
    act,
    bernoulli_shift,
    conditional_block_entropy,
    conditional_entropy,
    cylinder_measure,
    entropy,
    entropy_from_probs,
    fixed_partition_witness,
    is_ergodic_model,
    is_fixed_partition,
    join,
    markov_shift,
    mixture,
    stationary_vector,
    window_partition,
)
from folner_entropy.systems import _cycle_minima

P_HALF = np.array([[0.9, 0.1], [0.2, 0.8]])
PI_EXACT = np.array([2 / 3, 1 / 3])


# -- models -------------------------------------------------------------------


def test_bernoulli_validation():
    with pytest.raises(ValueError):
        bernoulli_shift([0.5, 0.6])
    with pytest.raises(ValueError):
        bernoulli_shift([0.5, 0.5], d=0)
    with pytest.raises(ValueError):
        bernoulli_shift([0.5, 0.5], alphabet=["a"])
    sys1 = bernoulli_shift([0.5, 0.25, 0.25], alphabet=["a", "b", "c"])
    assert sys1.alphabet == ("a", "b", "c")
    assert sys1.symbol_index("c") == 2


@pytest.mark.parametrize("probs", [[np.nan, np.nan], [1.0, np.nan]])
def test_bernoulli_probabilities_must_be_finite(probs):
    with pytest.raises(ValueError, match="masses must be finite"):
        bernoulli_shift(probs)


@pytest.mark.parametrize("d", [2.7, True, 1.0])
def test_bernoulli_dimension_must_be_an_integer(d):
    # 2.7 used to build a d = 2.7 system that failed later with "dimension mismatch"
    with pytest.raises(TypeError, match="dimension must be an integer"):
        bernoulli_shift([0.5, 0.5], d=d)


def test_stationary_vector_power_iteration():
    w = stationary_vector(P_HALF)
    assert np.abs(w @ P_HALF - w).max() <= 1e-13
    np.testing.assert_allclose(w, PI_EXACT, atol=5e-13)
    with pytest.raises(ValueError):
        stationary_vector(np.eye(2))  # every vector is stationary


def test_stationary_vector_periodic_chain():
    # period 2: iterating v <- vP oscillates, the linear solve does not
    P = np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    mk = markov_shift(None, P)
    np.testing.assert_allclose(mk.pi, [0.5, 0.25, 0.25], rtol=0, atol=1e-14)


def test_markov_shift_validation():
    with pytest.raises(ValueError):
        markov_shift(None, np.array([[0.9, 0.2], [0.2, 0.8]]))
    with pytest.raises(ValueError):
        markov_shift(np.array([0.5, 0.5]), P_HALF)  # not stationary
    mk = markov_shift(None, P_HALF)
    np.testing.assert_allclose(mk.pi, PI_EXACT, atol=5e-13)


@pytest.mark.parametrize("P", [5, [0.5, 0.5], [[[1.0]]]])
def test_transition_matrix_is_checked_square_before_its_shape_is_read(P):
    # a number used to raise IndexError from P.shape[0]
    with pytest.raises(ValueError, match="^square transition matrix required$"):
        markov_shift(None, P)
    with pytest.raises(ValueError, match="^square matrix required$"):
        stationary_vector(P)


def test_markov_pi_must_be_finite():
    with pytest.raises(ValueError, match="masses must be finite"):
        markov_shift([np.nan, np.nan], P_HALF)


@pytest.mark.parametrize("pi", [PI_EXACT, None])
def test_markov_transition_entries_must_be_finite(pi):
    # with pi given a NaN entry was accepted and gave finite window entropies;
    # without pi the stationary solve failed inside LAPACK
    P = np.array([[0.9, 0.1], [np.nan, 0.8]])
    with pytest.raises(ValueError, match="transition probabilities must be finite"):
        markov_shift(pi, P)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_stationary_vector_rejects_non_finite_entries_quietly(capfd, bad):
    # rejected before lstsq, whose LAPACK routines print DLASCL lines on
    # stderr and raise LinAlgError for a non-finite matrix
    with pytest.raises(ValueError, match="transition probabilities must be finite"):
        stationary_vector(np.array([[0.9, 0.1], [bad, 0.8]]))
    assert capfd.readouterr().err == ""


def test_is_ergodic_model():
    assert is_ergodic_model(bernoulli_shift([0.5, 0.5]))
    assert is_ergodic_model(markov_shift(PI_EXACT, P_HALF))
    # reducible chain: block-diagonal identity is stationary but not primitive
    P = np.eye(2)
    assert not is_ergodic_model(markov_shift(np.array([0.5, 0.5]), P))


# -- cylinder measures --------------------------------------------------------


def test_bernoulli_cylinder_product():
    b = bernoulli_shift([0.3, 0.7], d=2)
    W = FolnerSubset([(0, 0), (1, 1)], 2)
    assert cylinder_measure(b, W, {(0, 0): 0, (1, 1): 1}) == pytest.approx(
        0.3 * 0.7, abs=0
    )
    assert cylinder_measure(b, FolnerSubset([], 2), {}) == 1.0


def test_markov_cylinder_oracles():
    mk = markov_shift(PI_EXACT, P_HALF)
    W = FolnerSubset([(0,), (1,)], 1)
    # pi_0 P_00 = (2/3)(0.9) = 0.6
    assert cylinder_measure(mk, W, {(0,): 0, (1,): 0}) == pytest.approx(0.6, abs=1e-12)
    # gap of one site: pi_0 (P^2)_00 = (2/3)(0.83)
    W2 = FolnerSubset([(0,), (2,)], 1)
    assert cylinder_measure(mk, W2, {(0,): 0, (2,): 0}) == pytest.approx(
        0.5533333333333333, abs=1e-12
    )


def test_markov_cylinder_total_mass_on_window():
    mk = markov_shift(PI_EXACT, P_HALF)
    W = FolnerSubset([(0,), (2,), (3,)], 1)
    total = sum(
        cylinder_measure(mk, W, {(0,): a, (2,): b, (3,): c})
        for a in (0, 1)
        for b in (0, 1)
        for c in (0, 1)
    )
    assert total == pytest.approx(1.0, abs=1e-12)


def test_markov_cylinder_gap_cap():
    mk = markov_shift(PI_EXACT, P_HALF)
    W = FolnerSubset([(0,), (30,)], 1)
    with pytest.raises(EnumerationCapError):
        cylinder_measure(mk, W, {(0,): 0, (30,): 0})


def test_cylinder_word_must_cover_window():
    mk = markov_shift(PI_EXACT, P_HALF)
    W = FolnerSubset([(0,), (1,)], 1)
    with pytest.raises(ValueError):
        cylinder_measure(mk, W, {(0,): 0})


# -- window pattern distributions ---------------------------------------------


def test_window_partition_matches_cylinders_bernoulli():
    b = bernoulli_shift([0.2, 0.8])
    F = FolnerSubset.interval(0, 3)
    dist = window_partition(b, F)
    for pattern in itertools.product((0, 1), repeat=3):
        word = {(i,): s for i, s in enumerate(pattern)}
        assert dist[np.ravel_multi_index(pattern, (2,) * 3)] == pytest.approx(
            cylinder_measure(b, F, word), abs=1e-15
        )


def test_window_partition_matches_cylinders_markov_gapped():
    # dual route: transfer marginalization vs explicit gap-filling sums
    mk = markov_shift(PI_EXACT, P_HALF)
    F = FolnerSubset([(0,), (2,), (5,)], 1)
    dist = window_partition(mk, F)
    for pattern in itertools.product((0, 1), repeat=3):
        word = {(0,): pattern[0], (2,): pattern[1], (5,): pattern[2]}
        assert dist[np.ravel_multi_index(pattern, (2,) * 3)] == pytest.approx(
            cylinder_measure(mk, F, word), abs=1e-13
        )


def test_repeated_symbol_in_one_cell_rejected():
    # a repeated symbol would count its mass twice: the one-site H of
    # Bernoulli(0.3, 0.7) would come out 0.556 instead of 0.611
    with pytest.raises(ValueError, match="cells overlap"):
        SymbolPartition((0, 1), [[0, 0], [1]])


# both partition kinds over the ids 0, 1, 2: (constructor, block noun, what the
# blocks must cover, message for an unknown id)
PARTITION_KINDS = {
    "Partition": (
        lambda groups: Partition(FiniteProbabilitySpace(range(3), [0.2, 0.3, 0.5]), groups),
        "block", "space", "unknown atom",
    ),
    "SymbolPartition": (lambda groups: SymbolPartition((0, 1, 2), groups), "cell", "alphabet", "unknown symbol"),
}


@pytest.mark.parametrize("kind", sorted(PARTITION_KINDS))
@pytest.mark.parametrize(
    "groups, message",
    [
        ([[0, 1, 2], []], "empty {part}"),
        ([[0, 1], [1, 2]], "{part}s overlap"),
        ([[0, 0, 1], [2]], "{part}s overlap"),
        ([[0], [1]], "{part}s must cover the {whole}"),
        ([[0], [1, 2], [7]], "{unknown}"),
        # two faults: the one in the earlier group is reported
        ([[1, 1], [], [0, 2]], "{part}s overlap"),
        ([[], [1, 1], [0, 2]], "empty {part}"),
        ([[0, 7], [0]], "{unknown}"),
        # an unhashable member is unknown; a group that is a string or not
        # iterable at all is no list of lists
        ([[[0]], [1], [2]], "{unknown}"),
        (5, "{part}s must be a list of lists"),
        ("012", "{part}s must be a list of lists"),
        ([[0, 1], 2], "{part}s must be a list of lists"),
        ([[0, 1], "2"], "{part}s must be a list of lists"),
    ],
    ids=["empty", "overlap", "repeated", "uncovered", "unknown", "overlap-then-empty",
         "empty-then-overlap", "unknown-then-overlap", "unhashable", "not-iterable", "string",
         "member-not-iterable", "string-member"],
)
def test_both_partition_kinds_share_one_block_check(kind, groups, message):
    build, part, whole, unknown = PARTITION_KINDS[kind]
    with pytest.raises(ValueError) as caught:
        build(groups)
    assert caught.type is ValueError
    assert str(caught.value) == message.format(part=part, whole=whole, unknown=unknown)


def test_symbol_partition_of_an_empty_alphabet_has_no_cells():
    empty = SymbolPartition((), [])
    assert empty.n_cells == 0 and empty.cells == () and empty.cell_labels().shape == (0,)
    assert empty == SymbolPartition((), []) and hash(empty) == hash(SymbolPartition((), []))


def test_joins_and_factor_partitions_equal_the_checked_constructor():
    # both skip the constructor's checks; their cells must still be canonical
    rng = np.random.default_rng(8201)
    for n in range(1, 7):
        alphabet = tuple(rng.permutation(["a", "b", "c", "d", "e", "f"])[:n].tolist())
        for _ in range(5):
            a, b, f = (rng.integers(0, 3, size=n).tolist() for _ in range(3))
            alpha, beta = (
                SymbolPartition(alphabet, [[s for s, c in zip(alphabet, k) if c == v] for v in set(k)])
                for k in (a, b)
            )
            joined = alpha.join(beta)
            pairs = list(zip(a, b))
            want = SymbolPartition(alphabet, [[s for s, p in zip(alphabet, pairs) if p == q] for q in set(pairs)])
            phi = SubAlgebraSpec.symbol_factor(dict(zip(alphabet, f))).factor_partition(alphabet)
            want_phi = SymbolPartition(alphabet, [[s for s, c in zip(alphabet, f) if c == v] for v in set(f)])
            for got, ref in ((joined, want), (phi, want_phi)):
                assert got == ref and hash(got) == hash(ref) and got.cells == ref.cells
                assert got.cell_labels().tobytes() == ref.cell_labels().tobytes()
                assert not got.cell_labels().flags.writeable
    factor = SubAlgebraSpec.symbol_factor({0: 0, 1: 1})
    with pytest.raises(ValueError, match="^factor map must cover the alphabet$"):
        factor.factor_partition((0, 1, 2))
    with pytest.raises(ValueError, match="^duplicate symbols$"):
        factor.factor_partition((0, 1, 0))
    with pytest.raises(ValueError, match="^alphabet mismatch$"):
        SymbolPartition.full((0, 1)).join(SymbolPartition.full((1, 0)))


def test_refines_matches_the_per_cell_definition():
    # every cell of the finer partition lies inside one cell of the coarser
    rng = np.random.default_rng(8202)
    for n in range(1, 7):
        alphabet = tuple(rng.permutation(list("abcdef"))[:n].tolist())
        parts = []
        for _ in range(6):
            keys = rng.integers(0, 3, size=n).tolist()
            parts.append(SubAlgebraSpec.symbol_factor(dict(zip(alphabet, keys))).factor_partition(alphabet))
        parts += [SymbolPartition.full(alphabet), SymbolPartition.trivial(alphabet)]
        for fine in parts:
            for coarse in parts:
                want = all(any(set(cell) <= set(big) for big in coarse.cells) for cell in fine.cells)
                assert fine.refines(coarse) is want
    with pytest.raises(ValueError, match="^alphabet mismatch$"):
        SymbolPartition.full((0, 1)).refines(SymbolPartition.full((1, 0)))


def test_cycle_minima_are_each_cycle_smallest_entry():
    rng = np.random.default_rng(8203)
    for n in range(1, 40):
        perm = rng.permutation(n)
        low = rng.integers(0, 100, size=n)
        want = low.copy()
        for j in range(n):
            k = perm[j]
            while k != j:
                want[j] = min(want[j], low[k])
                k = perm[k]
        assert _cycle_minima(low, perm, n).tolist() == want.tolist()


def test_window_partition_coarse_cells():
    b = bernoulli_shift([0.5, 0.25, 0.25])
    cells = SymbolPartition(b.alphabet, [[0], [1, 2]])
    F = FolnerSubset.interval(0, 2)
    dist = window_partition(b, F, cells)
    # cells have masses (.5,.5): patterns are uniform on 4 outcomes
    np.testing.assert_allclose(dist, [0.25] * 4, atol=1e-15)
    assert entropy_from_probs(dist) == pytest.approx(2 * np.log(2), abs=1e-12)


P_THREE = np.array([[0.7, 0.2, 0.1], [0.3, 0.5, 0.2], [0.25, 0.25, 0.5]])


def test_window_partition_coarse_cells_markov_gapped_matches_cylinders():
    # the forward recursion over cell patterns vs the sum of cylinder
    # measures over every symbol word inside each cell pattern
    mk = markov_shift(stationary_vector(P_THREE), P_THREE)
    cells = SymbolPartition(mk.alphabet, [[0], [1, 2]])
    sites = [(0,), (2,), (5,)]
    F = FolnerSubset(sites, 1)
    dist = window_partition(mk, F, cells)
    assert dist.shape == (8,)
    for pattern in itertools.product((0, 1), repeat=3):
        words = itertools.product(*[cells.cells[c] for c in pattern])
        oracle = sum(cylinder_measure(mk, F, dict(zip(sites, word))) for word in words)
        assert dist[np.ravel_multi_index(pattern, (2, 2, 2))] == pytest.approx(oracle, abs=1e-13)


def test_mixture_window_partition_is_the_weighted_concatenation():
    b = bernoulli_shift([0.5, 0.2, 0.3])
    mk = markov_shift(stationary_vector(P_THREE), P_THREE)
    a1 = SymbolPartition(b.alphabet, [[0], [1, 2]])
    a2 = SymbolPartition(mk.alphabet, [[0, 1], [2]])
    mx = mixture([b, mk], [0.4, 0.6])
    F = FolnerSubset([(0,), (1,), (3,)], 1)
    dist = window_partition(mx, F, [a1, a2])
    expect = np.concatenate(
        [0.4 * window_partition(b, F, a1), 0.6 * window_partition(mk, F, a2)]
    )
    assert isinstance(dist, np.ndarray) and dist.dtype == np.float64
    assert np.array_equal(dist, expect)
    assert abs(dist.sum() - 1.0) < 1e-12


def test_window_partition_cap():
    b = bernoulli_shift([0.5, 0.5])
    with pytest.raises(EnumerationCapError):
        window_partition(b, FolnerSubset.interval(0, 6), cap=2**5)


# -- finite actions -----------------------------------------------------------


def _rotation_action():
    space = FiniteProbabilitySpace(range(4), [0.25] * 4)
    return space, FinitePMPAction(space, [(1, 2, 3, 0)])


def test_finite_action_validation():
    space = FiniteProbabilitySpace(range(3), [0.5, 0.3, 0.2])
    with pytest.raises(ValueError):
        FinitePMPAction(space, [(1, 0, 2)])  # swaps atoms of unequal mass
    with pytest.raises(ValueError):
        FinitePMPAction(space, [(0, 0, 1)])  # not a permutation
    sp2 = FiniteProbabilitySpace(range(4), [0.25] * 4)
    with pytest.raises(ValueError):
        # a 3-cycle fixing 3 and a transposition (0 1): do not commute
        FinitePMPAction(sp2, [(1, 2, 0, 3), (1, 0, 2, 3)])


def test_finite_action_constructor_errors():
    space = FiniteProbabilitySpace(range(3), [0.5, 0.3, 0.2])
    with pytest.raises(ValueError, match="generator is not a permutation"):
        FinitePMPAction(space, [(0, 1)])
    with pytest.raises(ValueError, match="generator does not preserve masses"):
        FinitePMPAction(space, [(0, 1, 2), (0, 2, 1)])
    sp2 = FiniteProbabilitySpace(range(4), [0.25] * 4)
    with pytest.raises(ValueError, match="generators must commute"):
        FinitePMPAction(sp2, [(1, 2, 0, 3), (1, 0, 2, 3)])


@pytest.mark.parametrize(
    "generator", [[1.5, 0.2], [True, False], [1.0, 0.0], np.array([1.0, 0.0]), ["1", "0"]]
)
def test_finite_action_generator_entries_must_be_integers(generator):
    # each used to be cast to the swap (1, 0)
    space = FiniteProbabilitySpace(range(2), [0.5, 0.5])
    with pytest.raises(ValueError, match="generator is not a permutation"):
        FinitePMPAction(space, [generator])
    assert FinitePMPAction(space, [np.array([1, 0], dtype=np.uint8)]).generators == ((1, 0),)


def _atom_map_oracle(generators, g):
    """T_g by composing one generator step at a time, on lists."""
    n = len(generators[0])
    cur = list(range(n))
    for gen, e in zip(generators, g):
        step = list(gen)
        if e < 0:
            step = [0] * n
            for j, img in enumerate(gen):
                step[img] = j
        for _ in range(abs(e)):
            cur = [step[j] for j in cur]
    return cur


def _torus(nx=40, ny=50):
    space = FiniteProbabilitySpace.uniform(nx * ny)
    gx = [((j // ny + 1) % nx) * ny + j % ny for j in range(nx * ny)]
    gy = [(j // ny) * ny + (j % ny + 1) % ny for j in range(nx * ny)]
    return FinitePMPAction(space, [gx, gy])


@pytest.mark.parametrize(
    "g", [(0, 0), (1, 0), (0, -1), (-100, 0), (37, -63), (-1, 100), (100, -100), (-64, 17)]
)
def test_atom_map_matches_stepwise_oracle(g):
    torus = _torus()
    amap = torus.atom_map(g)
    assert amap.tolist() == _atom_map_oracle(torus.generators, g)
    assert not amap.flags.writeable


def test_rotation_window_at_two_to_the_seventeen_atoms():
    # Z/2^17 under x -> x + 1, 8 arcs, |F| = 64: the join's blocks are the
    # arcs between consecutive points c - j (c a cut, 0 <= j < 64), so
    # H is the entropy of those gaps
    N, k = 1 << 17, 64
    rng = np.random.default_rng(17)
    cuts = np.sort(rng.choice(N, size=8, replace=False))
    rot = FinitePMPAction(FiniteProbabilitySpace.uniform(N), [np.arange(1, N + 1) % N])
    labels = (np.searchsorted(cuts, np.arange(N), side="right") - 1) % len(cuts)
    alpha = Partition.from_labels(rot.space, labels)
    H = conditional_block_entropy(rot, alpha, FolnerSubset.interval(0, k))
    pts = np.unique((cuts[:, None] - np.arange(k)[None, :]) % N)
    gaps = np.diff(np.append(pts, pts[0] + N)) / N
    assert H == pytest.approx(float(-(gaps * np.log(gaps)).sum()), rel=1e-12)


def test_act_moves_partition():
    space, action = _rotation_action()
    alpha = Partition(space, [[0], [1, 2, 3]])
    assert act(action, (1,), alpha) == Partition(space, [[1], [2, 3, 0]])
    assert act(action, (-1,), alpha) == Partition(space, [[3], [0, 1, 2]])
    assert act(action, (4,), alpha) == alpha
    # entropies never move
    assert entropy(act(action, (2,), alpha)) == pytest.approx(entropy(alpha), abs=0)


def test_act_preserves_conditional_entropy():
    space, action = _rotation_action()
    alpha = Partition(space, [[0, 1], [2, 3]])
    beta = Partition(space, [[0, 2], [1, 3]])
    moved = conditional_entropy(act(action, (3,), alpha), act(action, (3,), beta))
    assert moved == pytest.approx(conditional_entropy(alpha, beta), abs=1e-15)


def test_conditioning_invariance_and_compatibility():
    # a fixed partition is certified by fixed_partition_witness; a symbol
    # factor conditions shifts and a fixed partition finite actions only
    space, action = _rotation_action()
    F = FolnerSubset.interval(0, 2)
    trivial = SubAlgebraSpec.trivial()
    assert conditional_block_entropy(action, None, F, trivial) == conditional_block_entropy(action, None, F)
    whole = Partition.trivial(space)
    assert fixed_partition_witness(action, whole) is None
    assert is_fixed_partition(action, whole)
    split = Partition(space, [[0, 1], [2, 3]])
    assert fixed_partition_witness(action, split) == {"generator": 0, "block": [0, 1]}
    assert not is_fixed_partition(action, split)
    mk = markov_shift(PI_EXACT, P_HALF)
    fac = SubAlgebraSpec.symbol_factor({0: 0, 1: 1})
    assert conditional_block_entropy(mk, None, F, fac) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(IncompatibleSubAlgebraError):
        conditional_block_entropy(action, None, F, fac)
    with pytest.raises(IncompatibleSubAlgebraError):
        conditional_block_entropy(mk, None, F, SubAlgebraSpec.invariant_partition(whole))


# -- mixtures -----------------------------------------------------------------


def test_mixture_validation():
    b = bernoulli_shift([0.5, 0.5])
    with pytest.raises(ValueError):
        mixture([b, b], [0.5, 0.6])
    with pytest.raises(ValueError):
        mixture([b, bernoulli_shift([0.5, 0.5], d=2)], [0.5, 0.5])
    with pytest.raises(ValueError):
        mixture([b, b], [1.0, 0.0])  # weights must be positive


@pytest.mark.parametrize("weights", [[np.nan, np.nan], [0.5, np.nan]])
def test_mixture_weights_must_be_finite(weights):
    # a NaN weight made the rate estimate inf and its last gap NaN
    b = bernoulli_shift([0.5, 0.5])
    with pytest.raises(ValueError, match="masses must be finite"):
        mixture([b, b], weights)


def test_mixture_cylinder_weighted():
    b1 = bernoulli_shift([0.5, 0.5])
    b2 = bernoulli_shift([0.9, 0.1])
    mx = mixture([b1, b2], [0.3, 0.7])
    F = FolnerSubset.interval(0, 2)
    word = {(0,): 0, (1,): 0}
    assert cylinder_measure(mx, F, word) == pytest.approx(
        0.3 * 0.25 + 0.7 * 0.81, abs=1e-15
    )


def test_mixture_window_partition_entropy():
    b1 = bernoulli_shift([0.5, 0.5])
    b2 = bernoulli_shift([0.9, 0.1])
    mx = mixture([b1, b2], [0.3, 0.7])
    F = FolnerSubset.interval(0, 2)
    dist = window_partition(mx, F)
    w = np.array([0.3, 0.7])
    expect = (
        -(w * np.log(w)).sum()
        + 0.3 * 2 * np.log(2)
        + 0.7 * 2 * (-(np.array([0.9, 0.1]) * np.log([0.9, 0.1])).sum())
    )
    assert entropy_from_probs(dist) == pytest.approx(expect, abs=1e-12)
    assert abs(dist.sum() - 1.0) < 1e-12


def as_finite_action(mx: MixtureSystem) -> FinitePMPAction:
    """Oracle: the union action of a mixture of finite actions.

    Atoms are (component index, atom id) pairs with masses w_i * m;
    generators act block-diagonally. Exact by construction, so it
    cross-validates the componentwise mixture routes.
    """
    ids = []
    masses = []
    for i, comp in enumerate(mx.components):
        for a in comp.space.atom_ids:
            ids.append((i, a))
            masses.append(float(mx.weights[i]) * comp.space.mass(a))
    offsets = np.cumsum([0] + [len(c.space) for c in mx.components])
    gens = [
        np.concatenate([off + np.array(comp.generators[k]) for off, comp in zip(offsets, mx.components)])
        for k in range(mx.d)
    ]
    return FinitePMPAction(FiniteProbabilitySpace(ids, masses), gens)


def tag_partition_on_union(union: FinitePMPAction) -> Partition:
    """Oracle: the tag partition as a partition of ``as_finite_action``'s space."""
    blocks: dict = {}
    for (i, a) in union.space.atom_ids:
        blocks.setdefault(i, []).append((i, a))
    return Partition(union.space, blocks.values())


def test_mixture_of_finite_actions_as_finite_action():
    # the union construction must reproduce weighted block masses and
    # entropy computed per component
    s1 = FiniteProbabilitySpace(range(2), [0.5, 0.5])
    a1 = FinitePMPAction(s1, [(1, 0)])
    s2 = FiniteProbabilitySpace(range(3), [0.2, 0.3, 0.5])
    a2 = FinitePMPAction(s2, [(0, 1, 2)])
    mx = mixture([a1, a2], [0.4, 0.6])
    union = as_finite_action(mx)
    assert len(union.space) == 5
    assert union.space.mass((0, 0)) == pytest.approx(0.4 * 0.5, abs=0)
    assert union.space.mass((1, 2)) == pytest.approx(0.6 * 0.5, abs=0)
    tags = tag_partition_on_union(union)
    assert len(tags.blocks) == 2
    assert is_fixed_partition(union, tags)


@pytest.mark.parametrize("blocks", [[[0], [1]], [[0, 1]]])
def test_a_single_space_partition_is_handed_to_every_mixture_component(blocks):
    # the partition used to be iterated as one entry per block: two blocks
    # raised "finite systems need a space partition", one block "one
    # partition per component required"
    def swap():  # equal spaces, built apart
        return FinitePMPAction(FiniteProbabilitySpace(range(2), [0.5, 0.5]), [(1, 0)])

    mx = mixture([swap(), swap()], [0.5, 0.5])
    alpha = Partition(mx.components[0].space, blocks)
    F = FolnerSubset.interval(0, 3)
    assert conditional_block_entropy(mx, alpha, F) == conditional_block_entropy(mx, [alpha, alpha], F)
    other = FinitePMPAction(FiniteProbabilitySpace(range(2), [0.25, 0.75]), [(0, 1)])
    with pytest.raises(SpaceMismatchError, match="^space mismatch$"):
        conditional_block_entropy(mixture([swap(), other], [0.5, 0.5]), alpha, F)


def test_mixture_shared_alphabet_required_for_factors():
    b1 = bernoulli_shift([0.5, 0.5], alphabet=["x", "y"])
    b2 = bernoulli_shift([0.9, 0.1], alphabet=["y", "z"])
    mx = mixture([b1, b2], [0.5, 0.5])
    with pytest.raises(ValueError):
        mx.shared_alphabet()
