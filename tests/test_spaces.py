"""Partition algebra and entropy on finite probability spaces.

Oracle values are frozen from the double-sum definitions computed
independently of the library (H(p) = -sum p log p evaluated termwise).
Algebraic laws are exercised with hypothesis-generated spaces.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folner_entropy import (
    DegenerateFiberError,
    FactorSpace,
    FiniteProbabilitySpace,
    Partition,
    SpaceMismatchError,
    conditional_entropy,
    disintegrate,
    entropy,
    is_coarser,
    join,
    join_all,
    restrict,
    same_space,
)
from folner_entropy._kernels import entropy_from_probs
from folner_entropy import spaces as spaces_module
from folner_entropy.spaces import (
    _block_sums,
    _block_totals,
    _canonical,
    _group_sums,
    _join_codes,
    _join_entropies,
    _join_rows,
    _offset_entropies,
    _segment_sums,
    _stacked_betas,
    _stacked_pairs,
)

LOG2 = 0.6931471805599453


def _bits(values) -> list:
    """The float64 bit patterns of ``values``, so that 0.0 and -0.0 differ."""
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


# -- strategies -------------------------------------------------------------


@st.composite
def spaces(draw, max_atoms=8, allow_zero=True):
    n = draw(st.integers(2, max_atoms))
    weights = draw(
        st.lists(st.floats(0.0 if allow_zero else 0.05, 1.0), min_size=n, max_size=n)
    )
    total = sum(weights)
    if total <= 0.0:
        weights[0] = 1.0
        total = 1.0
    masses = np.array(weights) / total
    return FiniteProbabilitySpace(range(n), masses)


@st.composite
def space_with_partitions(draw, k=2):
    space = draw(spaces())
    parts = []
    for _ in range(k):
        labels = draw(
            st.lists(
                st.integers(0, len(space) - 1),
                min_size=len(space),
                max_size=len(space),
            )
        )
        parts.append(Partition.from_labels(space, labels))
    return (space, *parts)


# -- construction and basic algebra ----------------------------------------


def test_space_validation():
    with pytest.raises(ValueError):
        FiniteProbabilitySpace([1, 1], [0.5, 0.5])
    with pytest.raises(ValueError):
        FiniteProbabilitySpace([1, 2], [0.6, 0.6])
    with pytest.raises(ValueError):
        FiniteProbabilitySpace([1, 2], [-0.1, 1.1])


@pytest.mark.parametrize("atoms", [[[0], 1], [0, {"a": 1}]])
def test_unhashable_atom_ids_are_named(atoms):
    # used to raise Python's own "unhashable type: 'list'" from set(atom_ids)
    with pytest.raises(TypeError, match="^atom ids must be hashable$"):
        FiniteProbabilitySpace(atoms, [0.5, 0.5])


@pytest.mark.parametrize("atoms", [0, []])
def test_uniform_space_without_atoms_is_the_empty_space_error(atoms):
    with pytest.raises(ValueError, match="^empty space$"):
        FiniteProbabilitySpace.uniform(atoms)


@pytest.mark.parametrize("masses", [[np.nan, np.nan], [1.0, np.nan]])
def test_space_masses_must_be_finite(masses):
    # NaN passes the sign and sum checks: [NaN, NaN] used to give entropy -0.0
    with pytest.raises(ValueError, match="masses must be finite"):
        FiniteProbabilitySpace([0, 1], masses)


def test_partition_blocks_canonical():
    space = FiniteProbabilitySpace(range(4), [0.25] * 4)
    p = Partition(space, [[3, 1], [2, 0]])
    assert p.blocks == ((0, 2), (1, 3))
    assert p == Partition(space, [[0, 2], [3, 1]])


def test_partition_must_cover():
    space = FiniteProbabilitySpace(range(3), [0.2, 0.3, 0.5])
    with pytest.raises(ValueError):
        Partition(space, [[0], [1]])
    with pytest.raises(ValueError):
        Partition(space, [[0, 1], [1, 2]])


def test_repeated_atom_in_one_block_rejected():
    # a repeated atom would count its mass twice: block masses summing
    # to 1.2 and H = 0.5962 instead of log 2
    space = FiniteProbabilitySpace(range(3), [0.2, 0.3, 0.5])
    with pytest.raises(ValueError, match="blocks overlap"):
        Partition(space, [[0, 0, 1], [2]])


def test_join_blocks_are_intersections():
    space = FiniteProbabilitySpace(range(4), [0.25] * 4)
    a = Partition(space, [[0, 1], [2, 3]])
    b = Partition(space, [[0, 2], [1, 3]])
    assert join(a, b) == Partition.points(space)


def test_entropy_uniform_oracle():
    space = FiniteProbabilitySpace(range(4), [0.25] * 4)
    assert entropy(Partition.points(space)) == pytest.approx(2 * LOG2, abs=1e-15)
    assert entropy(Partition.trivial(space)) == 0.0


def test_entropy_ignores_zero_mass_blocks():
    space = FiniteProbabilitySpace(range(3), [0.5, 0.5, 0.0])
    assert entropy(Partition.points(space)) == pytest.approx(LOG2, abs=1e-15)


def test_conditional_entropy_oracle():
    # masses (.2,.3,.5), alpha = points, beta = {{0,1},{2}}:
    # H = .5 * H(.4,.6) + .5 * 0, frozen: 0.33650583350462826
    space = FiniteProbabilitySpace(range(3), [0.2, 0.3, 0.5])
    alpha = Partition.points(space)
    beta = Partition(space, [[0, 1], [2]])
    assert conditional_entropy(alpha, beta) == pytest.approx(
        0.33650583350462826, abs=1e-15
    )


def test_conditional_entropy_self_is_zero():
    space = FiniteProbabilitySpace(range(3), [0.2, 0.3, 0.5])
    beta = Partition(space, [[0, 1], [2]])
    assert conditional_entropy(beta, beta) == 0.0


def test_conditional_entropy_trivial_conditioner():
    space = FiniteProbabilitySpace(range(3), [0.2, 0.3, 0.5])
    alpha = Partition.points(space)
    assert conditional_entropy(alpha, Partition.trivial(space)) == pytest.approx(
        entropy(alpha), abs=1e-15
    )


def test_space_mismatch_raises():
    s1 = FiniteProbabilitySpace(range(2), [0.5, 0.5])
    s2 = FiniteProbabilitySpace(range(2), [0.4, 0.6])
    with pytest.raises(SpaceMismatchError):
        join(Partition.points(s1), Partition.points(s2))
    assert not same_space(s1, s2)


def test_is_coarser_ignores_zero_mass():
    space = FiniteProbabilitySpace(range(3), [0.5, 0.5, 0.0])
    a = Partition(space, [[0, 2], [1]])
    b = Partition(space, [[0], [1, 2]])
    # atom 2 is null, so on positive mass a = {{0},{1}} coarsens b
    assert is_coarser(a, b)


# -- property layer ---------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(space_with_partitions(k=2))
def test_join_refines_both(sp):
    _, a, b = sp
    j = join(a, b)
    assert is_coarser(a, j)
    assert is_coarser(b, j)
    assert join(a, a) == a
    assert join(a, b) == join(b, a)


@settings(max_examples=150, deadline=None)
@given(space_with_partitions(k=3))
def test_chain_rule_exact(sp):
    _, a, b, c = sp
    lhs = conditional_entropy(join(a, b), c)
    rhs = conditional_entropy(b, c) + conditional_entropy(a, join(b, c))
    assert lhs == pytest.approx(rhs, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(space_with_partitions(k=3))
def test_subadditivity_given_third(sp):
    _, a, b, c = sp
    slack = (
        conditional_entropy(a, c)
        + conditional_entropy(b, c)
        - conditional_entropy(join(a, b), c)
    )
    assert slack >= -1e-12


@settings(max_examples=150, deadline=None)
@given(space_with_partitions(k=2))
def test_conditioning_never_increases(sp):
    _, a, b = sp
    assert conditional_entropy(a, b) <= entropy(a) + 1e-12


@settings(max_examples=100, deadline=None)
@given(space_with_partitions(k=2))
def test_join_all_matches_pairwise(sp):
    space, a, b = sp
    assert join_all([a, b]) == join(a, b)
    assert join_all([a]) == a


def test_join_codes_relabels_a_row_whose_bound_would_overflow():
    # after the running codes are relabelled to 3 blocks, 3 * 2**61 still
    # passes the limit, so the row is relabelled too; the join is the one
    # its two label arrays give
    rng = np.random.default_rng(8)
    n = 200
    first = rng.integers(0, 3, n) * 7 + 1
    second = rng.choice(np.array([0, 5, 2**61 - 1]), n)
    codes, bound = spaces_module._join_codes([(first, 1 << 40), (second, 1 << 61)])
    assert bound <= spaces_module._CODE_LIMIT
    space = FiniteProbabilitySpace.uniform(n)
    labels = [Partition.from_labels(space, c) for c in (first, second)]
    assert Partition.from_labels(space, codes) == join(*labels)


# -- factor spaces and disintegration ---------------------------------------


def test_factor_space_masses():
    space = FiniteProbabilitySpace(range(3), [0.2, 0.3, 0.5])
    beta = Partition(space, [[0, 1], [2]])
    f = FactorSpace(space, beta)
    np.testing.assert_allclose(f.quotient.masses, [0.5, 0.5], atol=0)


def test_disintegration_fibers_normalized():
    space = FiniteProbabilitySpace(range(3), [0.2, 0.3, 0.5])
    beta = Partition(space, [[0, 1], [2]])
    dis = disintegrate(space, beta)
    fiber = dis.conditional(0)
    np.testing.assert_allclose(fiber.masses, [0.4, 0.6], atol=1e-16)


def test_disintegration_zero_mass_block_degenerate():
    space = FiniteProbabilitySpace(range(3), [0.5, 0.5, 0.0])
    beta = Partition(space, [[0, 1], [2]])
    dis = disintegrate(space, beta)
    with pytest.raises(DegenerateFiberError):
        dis.conditional(1)


@settings(max_examples=150, deadline=None)
@given(space_with_partitions(k=1), st.integers(0, 2**8 - 1))
def test_reconstruction_identity(sp, mask):
    space, beta = sp
    dis = disintegrate(space, beta)
    subset = [a for i, a in enumerate(space.atom_ids) if mask >> i & 1]
    assert dis.reconstruct(subset) == pytest.approx(space.mass_of(subset), abs=1e-12)


def _oracle_fibers(space, partition):
    """Fiber spaces assembled atom by atom from block tuples."""
    fibers = {}
    for bi, block in enumerate(partition.blocks):
        mB = space.mass_of(block)
        if mB <= 0.0:
            continue
        masses = np.array([space.mass(a) for a in block]) / mB
        fibers[bi] = FiniteProbabilitySpace(block, masses)
    return fibers


def _oracle_restrict(alpha, block, conditional):
    """The trace of alpha on a block, grouped atom by atom."""
    groups: dict = {}
    for a in block:
        groups.setdefault(alpha.block_index(a), []).append(a)
    return Partition(conditional, groups.values())


def test_fibers_and_restrictions_equal_per_atom_oracles():
    rng = np.random.default_rng(30)
    n = 3000
    w = rng.random(n)
    w[rng.random(n) < 0.2] = 0.0
    space = FiniteProbabilitySpace(range(n), w / w.sum())
    alpha = Partition.from_labels(space, rng.integers(0, 40, size=n))
    labels = rng.integers(0, 12, size=n)
    labels[w == 0.0] = 12  # one zero-mass block
    for beta in (Partition.from_labels(space, labels), Partition.points(space)):
        dis = disintegrate(space, beta)
        expected = _oracle_fibers(space, beta)
        assert list(dis.conditional_spaces) == list(expected)
        for bi, fiber in dis.conditional_spaces.items():
            assert fiber.atom_ids == expected[bi].atom_ids
            assert fiber.masses.tolist() == expected[bi].masses.tolist()
            traced = restrict(alpha, beta.blocks[bi], fiber)
            expected_trace = _oracle_restrict(alpha, beta.blocks[bi], fiber)
            assert traced == expected_trace and traced.blocks == expected_trace.blocks


def test_restrict_errors():
    space = FiniteProbabilitySpace(range(4), [0.5, 0.5, 0.0, 0.0])
    alpha = Partition.points(space)
    beta = Partition(space, [[0, 1], [2, 3]])
    fiber = disintegrate(space, beta).conditional(0)
    with pytest.raises(ValueError, match="empty set"):
        restrict(alpha, (), fiber)
    with pytest.raises(SpaceMismatchError):
        restrict(alpha, (0, 2), fiber)
    with pytest.raises(SpaceMismatchError):
        restrict(alpha, (0, 0, 1), fiber)
    null_fiber = FiniteProbabilitySpace((2, 3), [0.5, 0.5])
    with pytest.raises(DegenerateFiberError):
        restrict(alpha, (2, 3), null_fiber)


def test_restrict_traces_partition():
    space = FiniteProbabilitySpace(range(4), [0.1, 0.2, 0.3, 0.4])
    alpha = Partition(space, [[0, 2], [1, 3]])
    beta = Partition(space, [[0, 1], [2, 3]])
    dis = disintegrate(space, beta)
    traced = restrict(alpha, (0, 1), dis.conditional(0))
    assert traced.blocks == ((0,), (1,))
    with pytest.raises(ValueError):
        restrict(alpha, (), dis.conditional(0))


def test_conditional_entropy_is_fiber_average():
    # the defining double sum, assembled by hand through the fibers
    space = FiniteProbabilitySpace(range(4), [0.1, 0.2, 0.3, 0.4])
    alpha = Partition(space, [[0, 2], [1, 3]])
    beta = Partition(space, [[0, 1], [2, 3]])
    dis = disintegrate(space, beta)
    total = 0.0
    for bi, block in enumerate(beta.blocks):
        fiber = dis.conditional(bi)
        total += space.mass_of(block) * entropy(restrict(alpha, block, fiber))
    assert conditional_entropy(alpha, beta) == pytest.approx(total, abs=1e-15)


# -- one label array, bit-identical sums -------------------------------------


def _fiberwise(alpha, beta):
    """sum_B mu(B) H(alpha traced on B / mu(B)), assembled from block tuples:
    traces in order of first appearance inside B, every mass by mass_of."""
    space = alpha.space
    total = 0.0
    for B in beta.blocks:
        mB = space.mass_of(B)
        if mB <= 0.0:
            continue
        traces: dict = {}
        for a in B:
            traces.setdefault(alpha.blocks[alpha.block_index(a)], []).append(a)
        tm = np.array([space.mass_of(t) for t in traces.values()])
        total += mB * entropy_from_probs(tm / mB)
    return total


@settings(max_examples=150, deadline=None)
@given(space_with_partitions(k=2))
def test_entropies_bit_identical_to_mass_of_sums(sp):
    space, a, b = sp
    for p in (a, b, join(a, b)):
        by_blocks = np.array([space.mass_of(block) for block in p.blocks])
        assert p.block_masses().tolist() == by_blocks.tolist()
        assert entropy(p) == entropy_from_probs(by_blocks)
    assert conditional_entropy(a, b) == _fiberwise(a, b)
    assert conditional_entropy(join(a, b), a) == _fiberwise(join(a, b), a)


def test_block_masses_bit_identical_on_large_blocks():
    # blocks far above numpy's pairwise-summation block of 128 entries
    rng = np.random.default_rng(5)
    w = rng.random(5000)
    space = FiniteProbabilitySpace(range(5000), w / w.sum())
    p = Partition.from_labels(space, rng.integers(0, 7, size=5000))
    assert p.block_masses().tolist() == [space.mass_of(b) for b in p.blocks]


def test_segment_sums_bit_identical_to_per_segment_sums():
    # lengths on both sides of the 8-entry unrolled and 128-entry pairwise
    # blocks, in short and long inputs
    rng = np.random.default_rng(12)
    fixed = [1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 256, 257, 600]
    cases = [[3], [7, 8], [64], [65], [1] * 65, [8, 7, 8, 7, 8, 7, 8, 7, 9], fixed]
    for _ in range(40):
        cases.append(rng.integers(1, 601, size=int(rng.integers(1, 30))).tolist())
    for _ in range(40):
        cases.append(rng.integers(1, 12, size=int(rng.integers(1, 20))).tolist())
    for lengths in cases:
        ends = np.cumsum(lengths).tolist()
        values = rng.random(ends[-1]) * rng.choice([1e-9, 1.0, 1e9], size=ends[-1])
        expected = [values[s:e].sum() for s, e in zip([0] + ends, ends)]
        assert _bits(_segment_sums(values, ends)) == _bits(expected)


def _conditional_entropy_cases(n, seed):
    """A seeded space with zero-mass atoms; partitions from coarse to fine,
    one with a zero-mass block and one with all blocks above 129 atoms
    once n >= 300."""
    rng = np.random.default_rng(seed)
    w = rng.random(n) ** 2
    w[rng.random(n) < 0.2] = 0.0
    space = FiniteProbabilitySpace(range(n), w / w.sum())
    labels = rng.integers(0, 4, size=n)
    labels[w == 0.0] = 4
    parts = [Partition.trivial(space), Partition.from_labels(space, labels)]
    for k in (2, 7, 40, n // 3):
        parts.append(Partition.from_labels(space, rng.integers(0, k, size=n)))
    return space, parts


@pytest.mark.parametrize("n, seed", [(65, 1), (300, 2), (5000, 3)])
def test_conditional_entropy_bit_identical_on_large_spaces(n, seed):
    space, parts = _conditional_entropy_cases(n, seed)
    assert 0.0 in parts[1].block_masses()
    if n >= 300:
        assert min(len(b) for b in parts[2].blocks) > 129
    # the oracle hashes alpha's block tuples once per atom, so alpha stays fine
    for a in parts[4:]:
        for b in parts:
            assert conditional_entropy(a, b) == _fiberwise(a, b)
            ab = join(a, b)
            assert conditional_entropy(ab, a) == _fiberwise(ab, a)
    for b in parts:
        assert repr(conditional_entropy(b, b)) == "0.0"


@settings(max_examples=150, deadline=None)
@given(space_with_partitions(k=1), st.randoms(use_true_random=False), st.integers(1, 1000))
def test_equal_partitions_compare_and_hash_equal(sp, rnd, shift):
    space, p = sp
    # the same blocks listed in another order, atoms shuffled inside them
    blocks = [list(b) for b in p.blocks]
    rnd.shuffle(blocks)
    for b in blocks:
        rnd.shuffle(b)
    q = Partition(space, blocks)
    # the same grouping under other label values
    relabel = list(range(p.n_blocks))
    rnd.shuffle(relabel)
    r = Partition.from_labels(space, [shift * relabel[x] - 7 for x in p.labels()])
    assert q == p and r == p
    assert hash(q) == hash(p) == hash(r)
    assert q.blocks == p.blocks == r.blocks
    assert q.labels().tolist() == p.labels().tolist() == r.labels().tolist()


# -- many conditional entropies in one pass ----------------------------------


def _one_pair_conditional_entropy(alpha, beta):
    """H(alpha | beta) for one pair alone, the steps ``_stacked_join``
    stacks: join block masses grouped by beta block, one segment sum per
    fiber, the fibers' total left to right."""
    assert same_space(alpha.space, beta.space)
    lb = beta.labels()
    joint = _join_rows(alpha.space, ((lb, beta.n_blocks), (alpha.labels(), alpha.n_blocks)))
    owner = np.empty(joint.n_blocks, dtype=np.int64)
    owner[joint.labels()] = lb
    by_block = owner.argsort(kind="stable")
    owner = owner[by_block]
    mB = beta.block_masses()
    live = mB[owner] > 0.0
    p = joint.block_masses()[by_block[live]] / mB[owner[live]]
    keep = p > 0.0
    q = p[keep]
    ends = np.bincount(owner[live][keep], minlength=beta.n_blocks).cumsum().tolist()
    fiber_entropies = _segment_sums(-(q * np.log(q)), ends).tolist()
    total = 0.0
    for m, h in zip(mB.tolist(), fiber_entropies):
        if m > 0.0:
            total += m * h
    return total


def _batch_cases(seed, count):
    """Pairs on seeded spaces of 2..300 atoms (both sides of the 64-atom
    small-input path), with zero-mass atoms, a zero-mass block, and
    trivial and point partitions among the random ones."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        n = int(rng.choice([2, 3, 10, 63, 64, 65, 130, 300]))
        w = rng.random(n) ** 3
        w[rng.random(n) < 0.25] = 0.0
        if w.sum() <= 0.0:
            w[0] = 1.0
        space = FiniteProbabilitySpace(range(n), w / w.sum())
        zero_block = rng.integers(0, 3, size=n)
        zero_block[w == 0.0] = 3
        parts = [
            Partition.trivial(space),
            Partition.points(space),
            Partition.from_labels(space, zero_block),
            Partition.from_labels(space, rng.integers(0, int(rng.integers(1, n + 1)), size=n)),
        ]
        pairs.append((parts[rng.integers(4)], parts[rng.integers(4)]))
    return pairs


def _stacked_entropies(masses, alpha, beta, sizes):
    """H(alpha | beta) of every pair of raw code arrays stacked back to
    back (``sizes`` atoms each), as the disintegration and exhaustion
    sweeps read them: the betas relabelled, then the joins."""
    return _offset_entropies(masses, alpha, *_stacked_betas(masses, beta, sizes)).tolist()


def _stacked_pair_entropies(pairs):
    """``_stacked_entropies`` of partition pairs, their masses and labels
    back to back."""
    return _stacked_entropies(
        np.concatenate([b.space.masses for _, b in pairs]),
        np.concatenate([a.labels() for a, _ in pairs]),
        np.concatenate([b.labels() for _, b in pairs]),
        [len(b.space) for _, b in pairs],
    )


@pytest.mark.parametrize("seed, count", [(0, 1), (1, 2), (2, 40), (3, 400)])
def test_conditional_entropies_equal_one_pair_oracle(seed, count):
    pairs = _batch_cases(seed, count)
    expected = [repr(_one_pair_conditional_entropy(a, b)) for a, b in pairs]
    assert [repr(h) for h in _stacked_pair_entropies(pairs)] == expected
    assert [repr(conditional_entropy(a, b)) for a, b in pairs] == expected
    # the same pairs split into uneven batches
    got, start = [], 0
    for size in (1, 2, 7, 64, 1000):
        if pairs[start : start + size]:
            got += _stacked_pair_entropies(pairs[start : start + size])
        start += size
    assert [repr(h) for h in got] == expected


@pytest.mark.parametrize("seed, count", [(0, 1), (2, 40), (3, 400)])
def test_stacked_pairs_read_every_pair_from_parts_relabelled_once(seed, count):
    # beta, alpha v beta and alpha, each relabelled once, serve the pairs
    # (alpha v beta, beta), (alpha v beta, alpha), (alpha, alpha) and the
    # first again, as the identities sweep reads its triples
    cases = _batch_cases(seed, count)
    masses = np.concatenate([b.space.masses for _, b in cases])
    alpha, beta = (np.concatenate([p.labels() for p in ps]) for ps in zip(*cases))
    joint = _join_codes([(alpha, int(alpha.max()) + 1), (beta, int(beta.max()) + 1)])[0]
    sizes = [len(b.space) for _, b in cases]
    got = _join_entropies(*_stacked_pairs(masses, [beta, joint, alpha], sizes, [(1, 0), (1, 2), (2, 2), (1, 0)])).tolist()
    a_b = [repr(_one_pair_conditional_entropy(a, b)) for a, b in cases]
    b_a = [repr(_one_pair_conditional_entropy(b, a)) for a, b in cases]
    a_a = [repr(_one_pair_conditional_entropy(a, a)) for a, _ in cases]
    assert [repr(h) for h in got] == a_b + b_a + a_a + a_b


@pytest.mark.parametrize("high_bit", [False, True])
def test_stacked_join_reads_raw_codes(high_bit):
    # codes in any order give the canonical labels' values. With the high
    # bit, codes v and v + 2**62 of two blocks would meet once multiplied by
    # the 60 pairs' radix in int64, unless the codes are relabelled first
    rng = np.random.default_rng(4)
    pairs = _batch_cases(4, 60)
    expected = [repr(_one_pair_conditional_entropy(a, b)) for a, b in pairs]
    shuffle = rng.permutation(300)

    def raw(p):
        v = shuffle[p.labels()]
        return (v // 2) + ((v % 2) << 62) if high_bit else v

    got = _stacked_entropies(
        np.concatenate([b.space.masses for _, b in pairs]),
        np.concatenate([raw(a) for a, _ in pairs]),
        np.concatenate([raw(b) for _, b in pairs]),
        [len(b.space) for _, b in pairs],
    )
    assert [repr(h) for h in got] == expected


def test_one_pair_conditional_entropy_relabels_once(monkeypatch):
    # partition labels are already canonical, so only the join codes are
    # relabelled; raw codes took a second pass over the betas
    calls = []
    canonical = spaces_module._canonical

    def counted(codes):
        calls.append(codes.shape[0])
        return canonical(codes)

    monkeypatch.setattr(spaces_module, "_canonical", counted)
    rng = np.random.default_rng(6)
    for n in (5, 2000):
        space = FiniteProbabilitySpace.uniform(n)
        alpha, beta = (Partition.from_labels(space, rng.integers(0, 7, size=n)) for _ in range(2))
        calls.clear()
        conditional_entropy(alpha, beta)
        assert calls == [n]


def test_finite_entropies_read_block_masses_from_the_relabelling_sort(monkeypatch):
    # a partition's block masses, and a one-pair join's, come from the
    # sort that made their labels canonical, at every size; only the
    # block tuples sort the labels again
    calls = []
    group = spaces_module._group

    def counted(labels, k):
        calls.append(labels.shape[0])
        return group(labels, k)

    monkeypatch.setattr(spaces_module, "_group", counted)
    rng = np.random.default_rng(8)
    for n in (7, 64, 2000):
        space = FiniteProbabilitySpace.uniform(n)
        alpha, beta = (Partition.from_labels(space, rng.integers(0, 7, size=n)) for _ in range(2))
        calls.clear()
        entropy(alpha)
        conditional_entropy(alpha, beta)
        assert calls == []
        alpha.blocks
        assert calls == [n]


def test_segment_sums_with_empty_and_interleaved_lengths():
    # zero-length segments (as bincount with minlength leaves them) and
    # repeated lengths out of order, in short and long inputs, with ends
    # as a list and as an int64 array
    rng = np.random.default_rng(13)
    cases = [
        [5, 200, 5, 0, 200, 1, 9],
        [0, 3, 0, 5, 3, 0],
        [0, 70],
        [70, 0],
        [0, 0, 1, 0, 129, 0, 129, 8, 0],
        [9, 1, 9, 1, 0, 9, 1, 0, 9, 1],
    ]
    for _ in range(40):
        cases.append(rng.choice([0, 0, 1, 5, 8, 9, 64, 129], size=int(rng.integers(2, 30))).tolist())
    for _ in range(20):
        # a bincount with minlength over labels missing some values
        labels = rng.integers(0, 40, size=int(rng.integers(1, 300)))
        cases.append(np.bincount(labels[labels % 3 != 0], minlength=45).tolist())
    for lengths in cases:
        ends = np.cumsum(lengths).tolist()
        values = rng.random(ends[-1]) * rng.choice([1e-9, 1.0, 1e9], size=ends[-1])
        expected = [values[s:e].sum() for s, e in zip([0] + ends, ends)]
        assert _bits(_segment_sums(values, ends)) == _bits(expected)
        assert _bits(_segment_sums(values, np.array(ends, dtype=np.int64))) == _bits(expected)


def test_numpy_sums_below_eight_values_left_to_right_and_bincount_in_input_order():
    # the two numpy facts ``_group_sums`` rests on: a float64 sum of fewer
    # than 8 values is the plain loop from 0.0, and ``np.bincount`` adds
    # each group's weights in input order from 0.0. Values of mixed scales
    # make every other order round differently on some draw.
    rng = np.random.default_rng(14)
    for _ in range(2000):
        n = int(rng.integers(0, 8))
        values = rng.random(n) * rng.choice([1e-9, 1.0, 1e9], size=n) * rng.choice([-1.0, 1.0], size=n)
        values[rng.random(n) < 0.1] = -0.0
        total = 0.0
        for v in values.tolist():
            total += v
        groups = rng.integers(0, 3, size=n)
        in_order = [0.0, 0.0, 0.0]
        for g, v in zip(groups.tolist(), values.tolist()):
            in_order[g] += v
        assert _bits([values.sum()]) == _bits([total])
        assert _bits(np.bincount(groups, weights=values, minlength=3)) == _bits(in_order)


@pytest.mark.parametrize("interleaved", [False, True])
def test_group_sums_bit_identical_to_each_groups_sum(interleaved):
    # group sizes on both sides of the 8-value loop and the 128-value
    # pairwise blocks, with empty groups, negative zeros and mixed scales
    rng = np.random.default_rng(15 + interleaved)
    sizes = [0, 1, 7, 8, 9, 127, 128, 129, 1000, 0, 3, 8]
    cases = [sizes, [1] * 20, [0, 0, 2], [1000], [0]]
    for _ in range(30):
        cases.append(rng.choice([0, 1, 2, 7, 8, 9, 128, 129], size=int(rng.integers(1, 25))).tolist())
    for sizes in cases:
        groups = np.arange(len(sizes)).repeat(sizes)
        if interleaved:
            groups = groups[rng.permutation(groups.shape[0])]
        n = groups.shape[0]
        values = rng.random(n) * rng.choice([1e-9, 1.0, 1e9], size=n) * rng.choice([-1.0, 1.0], size=n)
        values[rng.random(n) < 0.1] = -0.0
        expected = [values[groups == j].sum() for j in range(len(sizes))]
        assert _bits(_group_sums(values, groups, len(sizes))) == _bits(expected)
    # groups of negative zeros only, below and above 8 values
    groups = np.array([0, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2])
    values = np.full(groups.shape[0], -0.0)
    expected = [values[groups == j].sum() for j in range(3)]
    assert _bits(_group_sums(values, groups, 3)) == _bits(expected)


@pytest.mark.parametrize("n", [7, 64, 300, 3000])
def test_group_sums_over_canonical_labels_bit_identical_to_the_sorted_block_sums(n):
    # the stacked block masses (``_group_sums`` over canonical labels)
    # against Partition.block_masses' route from the relabelling sort
    rng = np.random.default_rng(16)
    w = rng.random(n) * rng.choice([1e-9, 1.0], size=n)
    w[rng.random(n) < 0.2] = 0.0
    for k in (1, 2, 9, max(2, n // 7), n):
        labels, k_labels, sort = _canonical(_scrambled_codes(rng, n, k))
        expected = _block_sums(w, k_labels, sort)
        assert _bits(_group_sums(w, labels, k_labels)) == _bits(expected)


def _scrambled_codes(rng, n, k):
    """Codes whose first-occurrence order is not their sorted order:
    negative ones, and ones near -2^62 and 2^62."""
    table = np.concatenate([
        -(1 << 62) + rng.permutation(k // 3 + 1),
        (1 << 62) - 1 - rng.permutation(k // 3 + 1),
        -rng.permutation(k) * 7919 - 1,
    ])
    return table[rng.integers(0, table.shape[0], size=n)]


@pytest.mark.parametrize("n", [10, 64, 65, 300, 3000])
def test_sort_block_masses_with_scrambled_ranks(n):
    rng = np.random.default_rng(n)
    w = rng.random(n) ** 2
    w[rng.random(n) < 0.25] = 0.0
    w[0] = 1.0
    space = FiniteProbabilitySpace(range(n), w / w.sum())
    for k in (2, 9, max(2, n // 4), n):
        codes = _scrambled_codes(rng, n, k)
        p = Partition.from_labels(space, codes)
        # at every n the scrambled codes' first occurrences are out of
        # code order, so the ranks are not the identity
        rank = p._sort[2]
        assert not (rank == np.arange(rank.shape[0])).all()
        by_blocks = np.array([space.mass_of(b) for b in p.blocks])
        assert p.block_masses().tolist() == by_blocks.tolist()
        assert entropy(p) == entropy_from_probs(by_blocks)
        # a one-pair stacked join, with raw alpha codes near 2^62
        beta = Partition.from_labels(space, rng.integers(0, 5, size=n))
        alpha = codes - codes.min()
        _, joint, _, mJ, _ = spaces_module._stacked_join(
            space.masses, alpha, beta.labels(), beta.block_masses(), [beta.n_blocks]
        )
        assert mJ.tolist() == [space.masses[np.flatnonzero(joint == j)].sum() for j in range(mJ.shape[0])]


def _block_totals_loop(block_masses: list, values: list, counts) -> list:
    """sum_B mu(B) * value(B) over the positive-mass blocks of each
    partition, left to right: the plain loop, kept as the oracle."""
    totals = []
    start = 0
    for k in counts:
        total = 0.0
        for m, v in zip(block_masses[start : start + k], values[start : start + k]):
            if m > 0.0:
                total += m * v
        totals.append(total)
        start += k
    return totals


@pytest.mark.parametrize("seed", range(3))
def test_block_totals_equal_the_left_to_right_loop(seed):
    # zero-mass blocks, negative zeros and mixed magnitudes, over few
    # and many blocks
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        counts = rng.integers(1, int(rng.choice([3, 12, 80])), size=int(rng.integers(1, 40))).tolist()
        k = sum(counts)
        masses = rng.random(k)
        masses[rng.random(k) < 0.3] = 0.0
        values = rng.random(k) * rng.choice([1.0, 1e-10, 1e10], size=k)
        values[rng.random(k) < 0.1] = -0.0
        expected = _block_totals_loop(masses.tolist(), values.tolist(), counts)
        got = _block_totals(masses, values, counts).tolist()
        assert got == expected
        assert repr(got) == repr(expected)


def test_conditional_entropies_reject_a_mismatched_pair():
    s1 = FiniteProbabilitySpace(range(2), [0.5, 0.5])
    s2 = FiniteProbabilitySpace(range(2), [0.4, 0.6])
    with pytest.raises(SpaceMismatchError, match="space mismatch"):
        conditional_entropy(Partition.points(s1), Partition.points(s2))


# -- atom sets -----------------------------------------------------------------


def test_mass_of_and_reconstruct_read_a_set():
    space = FiniteProbabilitySpace(range(4), [0.1, 0.2, 0.3, 0.4])
    dis = disintegrate(space, Partition(space, [[0, 1], [2, 3]]))
    # [0, 0] was 0.2 by mass_of and 0.1 by reconstruct
    assert space.mass_of([0, 0]) == space.mass_of([0]) == 0.1
    assert dis.reconstruct([0, 0]) == dis.reconstruct([0])
    assert space.mass_of([3, 1, 3, 1]) == space.mass_of([3, 1])
    # [0, "zz"] raised by mass_of and was 0.1 by reconstruct
    for read in (space.mass_of, dis.reconstruct):
        with pytest.raises(ValueError, match="unknown atom"):
            read([0, "zz"])


def test_mass_of_keeps_its_float_without_repeats():
    rng = np.random.default_rng(8)
    w = rng.random(200)
    space = FiniteProbabilitySpace(range(200), w / w.sum())
    for _ in range(50):
        idx = rng.permutation(200)[: int(rng.integers(1, 200))].tolist()
        assert space.mass_of(idx) == float(space.masses[idx].sum())


def test_reconstruct_equals_the_fiberwise_sum():
    # sum over fibers of mu(B) * fiber.mass_of(C ∩ B), with atoms in block order
    rng = np.random.default_rng(9)
    for n in (3, 10, 64, 65, 400):
        w = rng.random(n)
        w[rng.random(n) < 0.2] = 0.0
        w[0] += 0.1
        space = FiniteProbabilitySpace(range(n), w / w.sum())
        labels = rng.integers(0, max(1, n // 5), size=n)
        labels[w == 0.0] = n  # one zero-mass block
        dis = disintegrate(space, Partition.from_labels(space, labels))
        for _ in range(10):
            subset = rng.permutation(n)[: int(rng.integers(0, n + 1))].tolist()
            expected = 0.0
            for bi, fiber in dis.conditional_spaces.items():
                inter = [a for a in dis.partition.blocks[bi] if a in set(subset)]
                expected += float(dis.factor.quotient.masses[bi]) * fiber.mass_of(inter)
            assert repr(dis.reconstruct(subset)) == repr(expected)
