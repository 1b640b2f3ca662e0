"""Ergodic decomposition and the conditional mass function.

Finite oracles are assembled by hand: orbit structure from explicit
cycle notation, block restrictions from renormalized fiber masses, and
m-function values from ratios of atom masses.
"""

import math
from itertools import accumulate, compress

import numpy as np
import pytest

from folner_entropy import (
    ComponentResult,
    FinitePMPAction,
    FiniteProbabilitySpace,
    FolnerSequence,
    Partition,
    SubAlgebraSpec,
    bernoulli_shift,
    conditional_entropy,
    conditional_mass_function,
    decompose_entropy,
    disintegrate,
    entropy_rate,
    ergodic_components,
    fixed_partition_witness,
    is_fixed_partition,
    markov_shift,
    mixture,
    orbit_partition,
    restrict,
)
from folner_entropy.spaces import (
    SpaceMismatchError,
    _segment_sums,
    _stacked_betas,
    _stacked_mass_functions,
    _stacked_reintegration,
    join,
)

LOG2 = float(np.log(2.0))


def two_cycles_action():
    # two 3-cycles: (0 1 2)(3 4 5), each orbit mass 1/2
    space = FiniteProbabilitySpace(range(6), [1 / 6] * 6)
    return space, FinitePMPAction(space, [(1, 2, 0, 4, 5, 3)])


# -- orbit structure ------------------------------------------------------------


def test_orbit_partition_two_cycles():
    space, action = two_cycles_action()
    assert orbit_partition(action) == Partition(space, [[0, 1, 2], [3, 4, 5]])


def test_orbit_partition_identity_action():
    space = FiniteProbabilitySpace(range(3), [0.5, 0.3, 0.2])
    action = FinitePMPAction(space, [(0, 1, 2)])
    assert orbit_partition(action) == Partition.points(space)


def test_fixed_partition_witness():
    space, action = two_cycles_action()
    orbits = Partition(space, [[0, 1, 2], [3, 4, 5]])
    assert fixed_partition_witness(action, orbits) is None
    assert is_fixed_partition(action, orbits)
    split = Partition(space, [[0, 1], [2, 3, 4, 5]])
    w = fixed_partition_witness(action, split)
    assert w is not None and w["generator"] == 0
    assert sorted(w["block"]) == [0, 1]
    assert not is_fixed_partition(action, split)


def test_ergodic_components_finite():
    space, action = two_cycles_action()
    comps = ergodic_components(action)
    assert comps.kind == "orbit"
    # each orbit is ergodic for the restricted action by transitivity
    assert comps.certified
    assert len(comps.partition.blocks) == 2


def test_ergodic_components_mixture():
    mx = mixture(
        [bernoulli_shift([0.5, 0.5]), markov_shift([2 / 3, 1 / 3], [[0.9, 0.1], [0.2, 0.8]])],
        [0.3, 0.7],
    )
    comps = ergodic_components(mx)
    assert comps.kind == "tags"
    assert comps.certified
    assert comps.groups == ((0,), (1,))
    # a periodic component cannot be certified
    per = markov_shift([0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]])
    assert not ergodic_components(mixture([per], [1.0])).certified


# -- restriction -----------------------------------------------------------------


def restrict_action(system: FinitePMPAction, fiber: FiniteProbabilitySpace) -> FinitePMPAction:
    """Oracle: the action induced on one invariant block's fiber space.

    ``fiber`` must come from disintegrating over a fixed partition, so
    each generator maps the block onto itself; masses on the fiber are
    the original ones divided by one common block mass.
    """
    idx_in_space = np.array([system.space.index(a) for a in fiber.atom_ids], dtype=np.int64)
    pos = np.full(len(system.space), -1, dtype=np.int64)
    pos[idx_in_space] = np.arange(len(idx_in_space))
    gens = [pos[np.array(g)[idx_in_space]] for g in system.generators]
    if any((g < 0).any() for g in gens):
        raise ValueError("block is not invariant under the action")
    return FinitePMPAction(fiber, gens)


def test_restrict_action_to_orbit():
    from folner_entropy import disintegrate

    space, action = two_cycles_action()
    orbits = orbit_partition(action)
    dis = disintegrate(space, orbits)
    sub = restrict_action(action, dis.conditional(0))
    assert len(sub.space) == 3
    np.testing.assert_allclose(sub.space.masses, [1 / 3] * 3, atol=1e-15)
    assert sub.generators[0] == (1, 2, 0)


def test_restrict_action_non_invariant_block():
    from folner_entropy import disintegrate

    space, action = two_cycles_action()
    split = Partition(space, [[0, 1], [2, 3, 4, 5]])
    dis = disintegrate(space, split)
    with pytest.raises(ValueError, match="not invariant"):
        restrict_action(action, dis.conditional(0))


# -- decomposition ---------------------------------------------------------------


def test_decompose_finite_exact():
    space, action = two_cycles_action()
    seq = FolnerSequence(1, (1, 2, 4, 8))
    result = decompose_entropy(action, sequence=seq)
    assert result.lhs == 0.0
    assert result.rhs == 0.0
    assert result.gap == 0.0
    assert [c.label for c in result.components] == ["block:0", "block:1"]
    assert all(c.estimate == 0.0 and c.converged for c in result.components)
    np.testing.assert_allclose([c.weight for c in result.components], [0.5, 0.5])


def test_decompose_finite_whole_space_beta():
    space, action = two_cycles_action()
    seq = FolnerSequence(1, (1, 2, 4))
    result = decompose_entropy(action, beta=Partition.trivial(space), sequence=seq)
    assert len(result.components) == 1
    assert result.components[0].weight == pytest.approx(1.0, abs=1e-15)
    assert result.gap == 0.0


def test_decompose_finite_with_beta_skips_the_orbit_partition(monkeypatch):
    space, action = two_cycles_action()
    seq = FolnerSequence(1, (1, 2, 4))
    beta = Partition(space, [[0, 1, 2], [3, 4, 5]])
    expected = decompose_entropy(action, beta=beta, sequence=seq)

    def refuse(system):
        raise AssertionError("orbit partition built although beta was given")

    monkeypatch.setattr("folner_entropy.systems.orbit_partition", refuse)
    result = decompose_entropy(action, beta=beta, sequence=seq)
    assert result.components == expected.components
    assert (result.lhs, result.rhs, result.certified) == (0.0, 0.0, True)
    # the default beta still comes from the orbits, and other systems still raise
    with pytest.raises(AssertionError, match="orbit partition built"):
        decompose_entropy(action, sequence=seq)
    with pytest.raises(TypeError, match="unsupported system kind"):
        decompose_entropy(object(), beta=beta, sequence=seq)


def test_decompose_rejects_split_orbit():
    space, action = two_cycles_action()
    split = Partition(space, [[0, 1], [2, 3, 4, 5]])
    with pytest.raises(ValueError, match="partition is not fixed: generator 0"):
        decompose_entropy(action, beta=split, sequence=FolnerSequence(1, (1, 2)))


def test_decompose_finite_with_fixed_conditioning():
    space, action = two_cycles_action()
    orbits = orbit_partition(action)
    C = SubAlgebraSpec.invariant_partition(orbits)
    result = decompose_entropy(action, C=C, sequence=FolnerSequence(1, (1, 2, 4)))
    assert result.gap == 0.0
    # a non-fixed conditioning partition is rejected
    from folner_entropy import IncompatibleSubAlgebraError

    bad = SubAlgebraSpec.invariant_partition(Partition(space, [[0, 1], [2, 3, 4, 5]]))
    with pytest.raises(IncompatibleSubAlgebraError, match="conditioning partition is not fixed"):
        decompose_entropy(action, C=bad, sequence=FolnerSequence(1, (1, 2)))


def test_decompose_mixture_components():
    b1 = bernoulli_shift([0.5, 0.5])
    b2 = bernoulli_shift([0.9, 0.1])
    mx = mixture([b1, b2], [0.3, 0.7])
    seq = FolnerSequence(1, (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024))
    result = decompose_entropy(mx, sequence=seq)
    h2 = float(-(np.array([0.9, 0.1]) * np.log([0.9, 0.1])).sum())
    expect_rhs = 0.3 * LOG2 + 0.7 * h2
    assert result.rhs == pytest.approx(expect_rhs, abs=1e-12)
    assert result.certified
    # lhs carries only the vanishing tag term H(.3,.7)/|F| at the end
    assert result.gap <= float(-(np.array([0.3, 0.7]) * np.log([0.3, 0.7])).sum()) / 1024 + 1e-12
    assert [c.label for c in result.components] == ["component:0", "component:1"]


def test_decompose_mixture_grouped():
    b1 = bernoulli_shift([0.5, 0.5])
    b2 = bernoulli_shift([0.9, 0.1])
    b3 = bernoulli_shift([0.2, 0.8])
    mx = mixture([b1, b2, b3], [0.2, 0.3, 0.5])
    seq = FolnerSequence(1, (1, 2, 4, 8))
    result = decompose_entropy(mx, beta=[[0], [1, 2]], sequence=seq)
    labels = [c.label for c in result.components]
    assert labels == ["component:0", "component:1,2"]
    assert result.components[1].weight == pytest.approx(0.8, abs=1e-15)
    with pytest.raises(ValueError):
        decompose_entropy(mx, beta=[[0], [1]], sequence=seq)  # misses index 2
    with pytest.raises(ValueError):
        decompose_entropy(mx, beta=[[0, 1], [1, 2]], sequence=seq)  # overlap


def _restricted_components(action, beta, alpha, cond, sequence):
    """Oracle for the finite components: disintegrate over ``beta``,
    restrict the action, ``alpha`` and the fixed conditioning partition
    ``cond`` to each positive-mass block, and trace the rate of every
    restricted action."""
    if alpha is None:
        alpha = Partition.points(action.space)
    dis = disintegrate(action.space, beta)
    out = []
    for bi, (block, mB) in enumerate(zip(beta.blocks, beta.block_masses().tolist())):
        if mB <= 0.0:
            continue
        fiber = dis.conditional(bi)
        sub_C = None
        if cond is not None:
            sub_C = SubAlgebraSpec.invariant_partition(restrict(cond, block, fiber))
        sub = restrict_action(action, fiber)
        _, rep = entropy_rate(sub, restrict(alpha, block, fiber), sub_C, sequence)
        out.append(ComponentResult(f"block:{bi}", mB, rep.estimate, rep.converged))
    return out


def _random_finite_instance(rng):
    """A commuting action (powers of one permutation) with masses constant
    on its orbits, some orbits of zero mass, and its orbit labels."""
    n = int(rng.integers(1, 13))
    p = rng.permutation(n)
    gens = []
    for _ in range(int(rng.integers(1, 3))):
        g = np.arange(n)
        for _ in range(int(rng.integers(0, 5))):
            g = p[g]
        gens.append(g)
    orbit = np.full(n, -1)
    k = 0
    for start in range(n):
        if orbit[start] >= 0:
            continue
        orbit[start], todo = k, [start]
        while todo:
            x = todo.pop()
            for g in gens:
                if orbit[g[x]] < 0:
                    orbit[g[x]] = k
                    todo.append(int(g[x]))
        k += 1
    w = rng.random(k) * (rng.random(k) < 0.7)
    w[rng.integers(0, k)] += 0.5
    per_atom = w / np.bincount(orbit, minlength=k)
    masses = per_atom[orbit] / per_atom[orbit].sum()
    space = FiniteProbabilitySpace(range(n), masses)
    return FinitePMPAction(space, [g.tolist() for g in gens]), orbit, k


def test_finite_components_match_the_restricted_traces():
    rng = np.random.default_rng(2024)
    for _ in range(240):
        action, orbit, k = _random_finite_instance(rng)
        space = action.space
        orbits = Partition.from_labels(space, orbit)
        beta = [None, Partition.from_labels(space, rng.integers(0, k, size=k)[orbit]),
                Partition.trivial(space)][int(rng.integers(0, 3))]
        alpha = None
        if rng.random() < 0.5:
            alpha = Partition.from_labels(space, rng.integers(0, 3, size=len(space)))
        cond = orbits if rng.random() < 0.5 else None
        C = None if cond is None else SubAlgebraSpec.invariant_partition(cond)
        seq = FolnerSequence(action.d, (1, 2, 3))
        result = decompose_entropy(action, beta, alpha, C, seq)
        expected = _restricted_components(
            action, orbits if beta is None else beta, alpha, cond, seq
        )
        assert repr(result.components) == repr(expected)
        assert result.rhs == 0.0


# -- conditional mass function -----------------------------------------------------


def _oracle_mass_function(space, alpha, cond):
    """m(x) and the integral check, atom by atom from block tuples."""
    values, excluded, integral = {}, [], 0.0
    for x in space.atom_ids:
        cb = cond.blocks[cond.block_index(x)]
        mC = space.mass_of(cb)
        if mC <= 0.0:
            excluded.append(x)
            continue
        ab = set(alpha.blocks[alpha.block_index(x)])
        m = space.mass_of([a for a in cb if a in ab]) / mC
        values[x] = m
        if space.mass(x) > 0.0:
            integral += space.mass(x) * math.log(m)
    return values, tuple(excluded), abs(conditional_entropy(alpha, cond) + integral)


def test_mass_function_equals_per_atom_oracle():
    rng = np.random.default_rng(31)
    n = 3000
    w = rng.random(n)
    w[rng.random(n) < 0.2] = 0.0
    space = FiniteProbabilitySpace(range(n), w / w.sum())
    alpha = Partition.from_labels(space, rng.integers(0, 40, size=n))
    labels = rng.integers(0, 25, size=n)
    labels[w == 0.0] = 25  # one zero-mass block
    for cond in (Partition.from_labels(space, labels), Partition.from_labels(space, labels % 5)):
        result = conditional_mass_function(space, alpha, cond)
        values, excluded, gap = _oracle_mass_function(space, alpha, cond)
        assert list(result.values.items()) == list(values.items())
        assert result.excluded == excluded
        assert result.integral_gap == gap


def test_mass_function_oracle():
    space = FiniteProbabilitySpace(range(3), [0.2, 0.3, 0.5])
    alpha = Partition.points(space)
    cond = Partition(space, [[0, 1], [2]])
    result = conditional_mass_function(space, alpha, cond)
    assert result.values[0] == pytest.approx(0.4, abs=1e-15)
    assert result.values[1] == pytest.approx(0.6, abs=1e-15)
    assert result.values[2] == pytest.approx(1.0, abs=0)
    assert result.excluded == ()
    assert result.integral_gap <= 1e-15


def test_mass_function_self_conditioning():
    space = FiniteProbabilitySpace(range(3), [0.2, 0.3, 0.5])
    cond = Partition(space, [[0, 1], [2]])
    result = conditional_mass_function(space, cond, cond)
    assert all(v == 1.0 for v in result.values.values())
    assert result.integral_gap == 0.0


def test_mass_function_uniform_pair():
    space = FiniteProbabilitySpace(range(2), [0.5, 0.5])
    result = conditional_mass_function(
        space, Partition.points(space), Partition.trivial(space)
    )
    assert all(v == 0.5 for v in result.values.values())
    # integral equals -log 2, matching H(points) exactly
    assert result.integral_gap <= 1e-15


def test_mass_function_excludes_zero_mass_blocks():
    space = FiniteProbabilitySpace(range(4), [0.5, 0.5, 0.0, 0.0])
    alpha = Partition.points(space)
    cond = Partition(space, [[0, 1], [2, 3]])
    result = conditional_mass_function(space, alpha, cond)
    assert sorted(result.excluded) == [2, 3]
    assert set(result.values) == {0, 1}
    assert result.integral_gap <= 1e-15


# -- batched mass functions and re-integration ------------------------------------


def _one_triple_mass_function(space, alpha, cond):
    """The one-triple mass function built the way it was before batching:
    its own join of ``cond`` and ``alpha``, then ``conditional_entropy``."""
    mC = cond.block_masses()[cond.labels()]
    live = mC > 0.0
    joint = join(cond, alpha)
    m = (joint.block_masses()[joint.labels()[live]] / mC[live]).tolist()
    values = dict(zip(compress(space.atom_ids, live), m))
    excluded = tuple(compress(space.atom_ids, ~live))
    integral = 0.0
    for mx, mv in zip(space.masses[live].tolist(), m):
        if mx > 0.0:
            integral += mx * math.log(mv)
    return values, excluded, abs(conditional_entropy(alpha, cond) + integral)


def _one_item_reconstruct(space, partition, atoms):
    """``Disintegration.reconstruct`` for one item alone, as it was before
    batching: fiber masses from the block masses, one segment sum per fiber."""
    order = partition.labels().argsort(kind="stable")
    per_atom = partition.block_masses()[partition.labels()[order]]
    fibers = np.divide(space.masses[order], per_atom, out=np.zeros(len(space)), where=per_atom > 0.0)
    wanted = np.zeros(len(space), dtype=bool)
    wanted[list({space.index(a): None for a in atoms})] = True
    counts = np.bincount(partition.labels()[wanted], minlength=partition.n_blocks)
    sums = _segment_sums(fibers[wanted[order]], counts.cumsum().tolist()).tolist()
    total = 0.0
    for mB, mass in zip(partition.block_masses().tolist(), sums):
        if mB > 0.0:
            total += mB * mass
    return total


def _mass_function_cases(seed, count):
    """(space, alpha, cond, atoms) items on seeded spaces of 2..130 atoms
    (both sides of the 64-atom small-input path), with zero-mass atoms, a
    zero-mass block among the partitions, and atom lists with repeats."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        n = int(rng.choice([2, 3, 10, 63, 64, 65, 130]))
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
        atoms = rng.integers(0, n, size=int(rng.integers(0, n + 4))).tolist()
        cases.append((space, parts[rng.integers(4)], parts[rng.integers(4)], atoms))
    return cases


def _stacked_conds(cases):
    """The cases' masses back to back, their cond labels relabelled by
    ``_stacked_betas`` (labels, block masses, block counts) and their
    atom counts."""
    sizes = [len(s) for s, _, _, _ in cases]
    masses = np.concatenate([s.masses for s, _, _, _ in cases])
    return masses, _stacked_betas(masses, np.concatenate([c.labels() for _, _, c, _ in cases]), sizes), sizes


@pytest.mark.parametrize("seed, count", [(0, 1), (1, 2), (2, 40), (3, 400)])
def test_batched_mass_functions_equal_one_triple_oracle(seed, count):
    cases = _mass_function_cases(seed, count)
    expected = [repr(_one_triple_mass_function(s, a, c)) for s, a, c, _ in cases]
    masses, conds, sizes = _stacked_conds(cases)
    alpha = np.concatenate([a.labels() for _, a, _, _ in cases])
    _, m, live, gaps = _stacked_mass_functions(masses, alpha, *conds, sizes)
    got = []
    for (space, _, _, _), end, gap in zip(cases, accumulate(sizes), gaps.tolist()):
        own = slice(end - len(space), end)
        values = dict(zip(compress(space.atom_ids, live[own]), m[own][live[own]].tolist()))
        got.append(repr((values, tuple(compress(space.atom_ids, ~live[own])), gap)))
    assert got == expected
    one = [conditional_mass_function(s, a, c) for s, a, c, _ in cases]
    assert [repr((r.values, r.excluded, r.integral_gap)) for r in one] == expected


@pytest.mark.parametrize("seed, count", [(4, 1), (5, 2), (6, 40), (7, 400)])
def test_batched_reintegration_equals_one_item_oracle(seed, count):
    cases = _mass_function_cases(seed, count)
    expected = [repr(_one_item_reconstruct(s, c, atoms)) for s, _, c, atoms in cases]
    masses, conds, sizes = _stacked_conds(cases)
    wanted = np.zeros(masses.shape[0], dtype=bool)
    for (space, _, _, atoms), start in zip(cases, accumulate(sizes, initial=0)):
        wanted[[start + space.index(a) for a in atoms]] = True
    got = _stacked_reintegration(masses, *conds, wanted).tolist()
    assert [repr(v) for v in got] == expected
    one = [disintegrate(s, c).reconstruct(atoms) for s, _, c, atoms in cases]
    assert [repr(v) for v in one] == expected


def test_batched_reintegration_reads_atoms_as_a_set():
    space = FiniteProbabilitySpace(range(4), [0.1, 0.2, 0.3, 0.4])
    dis = disintegrate(space, Partition(space, [[0, 1], [2, 3]]))
    assert dis.reconstruct([0, 2]) == dis.reconstruct([0, 2, 2, 0]) == dis.reconstruct([2, 0, 0])
    with pytest.raises(ValueError, match="unknown atom"):
        dis.reconstruct([1, "x"])


def test_batched_mass_functions_check_spaces():
    space = FiniteProbabilitySpace(range(3), [0.2, 0.3, 0.5])
    other = FiniteProbabilitySpace(range(3), [0.5, 0.3, 0.2])
    with pytest.raises(SpaceMismatchError):
        conditional_mass_function(space, Partition.points(other), Partition.trivial(space))
    with pytest.raises(SpaceMismatchError):
        conditional_mass_function(space, Partition.points(space), Partition.trivial(other))
