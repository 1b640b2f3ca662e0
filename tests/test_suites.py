"""Randomized sweep harnesses: determinism, aggregation, and clean runs
at reduced trial counts (full-scale runs live in the acceptance suite).
"""

import tracemalloc

import numpy as np
import pytest

from folner_entropy import (
    FinitePMPAction,
    FiniteProbabilitySpace,
    Partition,
    PropertyStats,
    conditional_mass_function,
    disintegrate,
    join,
    spaces,
    suites,
    sweep_disintegration,
    sweep_exhaustion,
    sweep_identities,
    verify_chain_exhaustion,
    verify_entropy_identities,
)
from folner_entropy.suites import SweepReport, _random_labels

# -- per-object draws: the oracles' instances, from the same rng calls as the
# sweeps' array draws ------------------------------------------------------------


def random_space(rng: np.random.Generator, max_atoms: int = 10, allow_zero: bool = True) -> FiniteProbabilitySpace:
    """A random space with 2..max_atoms atoms; may include zero-mass atoms."""
    n = int(rng.integers(2, max_atoms + 1))
    w = rng.random(n)
    if allow_zero and n >= 3 and rng.random() < 0.3:
        k = int(rng.integers(1, max(2, n // 3) + 1))
        w[rng.choice(n, size=k, replace=False)] = 0.0
    if w.sum() <= 0.0:
        w[0] = 1.0
    return FiniteProbabilitySpace(range(n), w / w.sum())


def random_partition(rng: np.random.Generator, space: FiniteProbabilitySpace) -> Partition:
    return Partition.from_labels(space, _random_labels(rng, len(space))[0])


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


def test_sweep_identities_small():
    report = sweep_identities(trials=40, seed=7)
    assert report.ok
    assert report.trials == 40
    names = set(report.stats)
    for required in (
        "join_subadditivity",
        "translation_invariance",
        "conditioning_monotone",
        "partition_monotone",
        "pmp_invariance",
        "chain_rule",
        "refining_chain",
    ):
        assert required in names
    for s in report.stats.values():
        assert s.violations == 0
        assert s.checked >= 40
        assert s.min_slack >= -s.tolerance


def test_sweep_identities_deterministic():
    a = sweep_identities(trials=25, seed=3)
    b = sweep_identities(trials=25, seed=3)
    assert [(s.name, s.min_slack, s.checked) for s in a.stats.values()] == [
        (s.name, s.min_slack, s.checked) for s in b.stats.values()
    ]
    c = sweep_identities(trials=25, seed=4)
    assert [s.min_slack for s in a.stats.values()] != [s.min_slack for s in c.stats.values()]


def test_sweep_disintegration_small():
    report = sweep_disintegration(trials=60, seed=11)
    assert report.ok
    names = set(report.stats)
    assert names == {"reconstruction", "mass_function_integral"}
    for s in report.stats.values():
        assert s.min_slack >= -1e-12


def test_sweep_exhaustion_small():
    report = sweep_exhaustion(trials=30, seed=5)
    assert report.ok
    names = set(report.stats)
    assert names == {"chain_monotone", "chain_vanishes"}


@pytest.mark.parametrize("sweep", [sweep_identities, sweep_disintegration, sweep_exhaustion])
@pytest.mark.parametrize("trials", [0, -3])
def test_sweeps_reject_trials_below_one(sweep, trials):
    with pytest.raises(ValueError, match="trials must be at least 1"):
        sweep(trials=trials, seed=0)


@pytest.mark.parametrize("sweep", [sweep_identities, sweep_disintegration, sweep_exhaustion])
@pytest.mark.parametrize("max_atoms", [1, 0, -4])
def test_sweeps_reject_max_atoms_below_two(sweep, max_atoms):
    # used to leak numpy's "low >= high" from the first draw
    with pytest.raises(ValueError, match="^max_atoms must be at least 2$"):
        sweep(trials=3, seed=0, max_atoms=max_atoms)


def _identities_trial_by_trial(trials, seed, max_atoms):
    """``sweep_identities`` as one verifier call per trial, same draws."""
    rng = np.random.default_rng(seed)
    report = SweepReport(trials, seed)
    for _ in range(trials):
        space, perm = random_permutation_instance(rng, max_atoms)
        action = FinitePMPAction(space, [perm])
        alpha = random_partition(rng, space)
        beta = random_partition(rng, space)
        gamma = random_partition(rng, space)
        inverse = tuple(int(x) for x in np.argsort(np.asarray(perm)))
        result = verify_entropy_identities(
            space, alpha, beta, gamma, action=action, pmp_map=inverse
        )
        for check in result.checks:
            report.stat(check.name, check.tol).record(check.slack)
    return report


@pytest.mark.parametrize(
    "max_atoms, trials",
    [(m, t) for m in (2, 10, 200) for t in (1, 31, 33, 500)] + [(100_000, 2)],
)
def test_batched_identities_sweep_equals_trial_by_trial(max_atoms, trials):
    # max_atoms 200 fills a batch within a few trials; 10 needs dozens;
    # 100000 draws tens of thousands of atoms, whose triple joins have
    # raw codes up to about 1e15
    seed = 1000 + trials + max_atoms
    expected = _identities_trial_by_trial(trials, seed, max_atoms)
    assert repr(sweep_identities(trials, seed, max_atoms)) == repr(expected)


def _disintegration_trial_by_trial(trials, seed, max_atoms, tolerance=1e-12):
    """``sweep_disintegration`` as one disintegration and one mass function
    call per trial, same draws."""
    rng = np.random.default_rng(seed)
    report = SweepReport(trials, seed)
    for _ in range(trials):
        space = random_space(rng, max_atoms)
        alpha = random_partition(rng, space)
        cond = random_partition(rng, space)
        dis = disintegrate(space, cond)
        pick = rng.random(len(space)) < 0.5
        subset = [a for a, take in zip(space.atom_ids, pick) if take]
        gap = abs(dis.reconstruct(subset) - space.mass_of(subset))
        report.stat("reconstruction", tolerance).record(-gap)
        mf = conditional_mass_function(space, alpha, cond)
        report.stat("mass_function_integral", tolerance).record(-mf.integral_gap)
    return report


def _exhaustion_trial_by_trial(trials, seed, max_atoms, tolerance=1e-12):
    """``sweep_exhaustion`` as one verifier call per trial, same draws."""
    rng = np.random.default_rng(seed)
    report = SweepReport(trials, seed)
    for _ in range(trials):
        space = random_space(rng, max_atoms)
        xi = random_partition(rng, space)
        cond = random_partition(rng, space) if rng.random() < 0.5 else None
        chain = []
        cur = random_partition(rng, space)
        chain.append(cur)
        for _ in range(int(rng.integers(1, 4))):
            cur = join(cur, random_partition(rng, space))
            chain.append(cur)
        chain.append(join(cur, Partition.points(space)))
        result = verify_chain_exhaustion(space, chain, xi, cond, tolerance)
        report.stat("chain_monotone", tolerance).record(result.min_step_slack)
        report.stat("chain_vanishes", tolerance).record(-abs(result.values[-1]))
    return report


@pytest.mark.parametrize(
    "max_atoms, trials", [(m, t) for m in (2, 10, 50) for t in (1, 37, 1000)] + [(100_000, 2)]
)
def test_batched_disintegration_sweep_equals_trial_by_trial(max_atoms, trials):
    # at max_atoms 50 a batch closes within about 160 trials; 100000
    # makes batches of one large trial
    for seed in range(6):
        expected = _disintegration_trial_by_trial(trials, seed, max_atoms)
        assert repr(sweep_disintegration(trials, seed, max_atoms)) == repr(expected)


@pytest.mark.parametrize(
    "max_atoms, trials", [(m, t) for m in (2, 10, 50) for t in (1, 37, 200)] + [(100_000, 2)]
)
def test_batched_exhaustion_sweep_equals_trial_by_trial(max_atoms, trials):
    # at 100000 atoms the chain codes pass int64 unless relabelled
    for seed in range(6):
        expected = _exhaustion_trial_by_trial(trials, seed, max_atoms)
        assert repr(sweep_exhaustion(trials, seed, max_atoms)) == repr(expected)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_sweeps_and_chain_verifier_reject_bad_tolerances(bad):
    # a NaN tolerance used to make every check pass
    message = r"^tolerance must be a finite number >= 0$"
    for call in (
        lambda: sweep_identities(5, 0, tolerance=bad),
        lambda: sweep_identities(5, 0, equality_tolerance=bad),
        lambda: sweep_disintegration(5, 0, tolerance=bad),
        lambda: sweep_exhaustion(5, 0, tolerance=bad),
    ):
        with pytest.raises(ValueError, match=message):
            call()
    space = FiniteProbabilitySpace.uniform(3)
    chain = [Partition.trivial(space), Partition.points(space)]
    with pytest.raises(ValueError, match=message):
        verify_chain_exhaustion(space, chain, Partition.points(space), tolerance=bad)


def test_sweeps_accept_zero_tolerance():
    assert sweep_disintegration(5, 0, tolerance=0.0).trials == 5
    space = FiniteProbabilitySpace.uniform(3)
    chain = [Partition.trivial(space), Partition.points(space)]
    assert verify_chain_exhaustion(space, chain, Partition.points(space), tolerance=0).ok


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sweeps_make_one_array_pass_per_batch(monkeypatch, seed):
    # every conditional-entropy join (the entropies and the mass functions,
    # which also serve the re-integration) is one _stacked_join call;
    # per-trial calls made 1000 and 200. No sweep builds a space or a
    # partition: per-trial draws made one space and 2-12 partitions a trial
    calls = {"join": 0, "reintegrate": 0, "assign": 0, "space": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    def built_nothing():
        return calls["assign"] == calls["space"] == 0

    monkeypatch.setattr(spaces, "_stacked_join", counting("join", spaces._stacked_join))
    monkeypatch.setattr(
        suites, "_stacked_reintegration", counting("reintegrate", suites._stacked_reintegration)
    )
    monkeypatch.setattr(Partition, "_assign", counting("assign", Partition._assign))
    monkeypatch.setattr(
        FiniteProbabilitySpace, "__init__", counting("space", FiniteProbabilitySpace.__init__)
    )
    sweep_disintegration(1000, seed)
    assert 1 <= calls["join"] <= 3 and calls["reintegrate"] == calls["join"]
    assert built_nothing()
    calls["join"] = 0
    sweep_exhaustion(200, seed)
    assert 1 <= calls["join"] <= 3
    assert built_nothing()
    # a trial's 10 pairs hold at most 100 atoms, so 500 trials close at most
    # 500 * 100 / 4096 + 1 batches
    calls["join"] = 0
    sweep_identities(500, seed)
    assert 1 <= calls["join"] <= 500 * 100 // suites._BATCH_ATOMS + 1
    assert built_nothing()


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "sweep, trials", [(sweep_disintegration, 1000), (sweep_exhaustion, 200), (sweep_identities, 500)]
)
def test_sweep_memory_is_bounded_by_the_batch(sweep, trials):
    sweep(20, 9)  # first-call allocations are not the sweep's
    small = _traced_peak(lambda: sweep(trials, 1))
    large = _traced_peak(lambda: sweep(4 * trials, 1))
    assert large <= 1.25 * small
    assert large < 3_000_000


def _instances_in_turn(monkeypatch, instances):
    """Make the sweep draw these (masses, perm) instances, in turn."""
    it = iter(instances)
    monkeypatch.setattr(suites, "_random_permutation_masses", lambda rng, max_atoms: next(it))


@pytest.mark.parametrize(
    "perm, message",
    [
        ((1, 2, 0), "generator does not preserve masses"),
        ((0, 0, 1), "generator is not a permutation"),
        ((0, 1, 3), "generator is not a permutation"),
        ((1, 0), "generator is not a permutation"),
        ((0.0, 1.0, 2.0), "generator is not a permutation"),
    ],
)
def test_identities_sweep_rejects_bad_instances(monkeypatch, perm, message):
    # the messages FinitePMPAction gives the same generator
    space = FiniteProbabilitySpace(range(3), [0.5, 0.3, 0.2])
    with pytest.raises(ValueError, match=f"^{message}$"):
        FinitePMPAction(space, [perm])
    uniform = FiniteProbabilitySpace.uniform(3)
    good = (uniform.masses, (1, 2, 0))
    _instances_in_turn(monkeypatch, [good, (space.masses, perm), good])
    with pytest.raises(ValueError, match=f"^{message}$"):
        sweep_identities(3, 0)


def test_identities_sweep_checks_each_permutation_on_its_own_atoms(monkeypatch):
    # stacked, (0, 2) and (-1, 1) would read as the permutation (0, 2, 1, 3)
    # of four atoms, though neither maps its own two atoms onto themselves
    masses = FiniteProbabilitySpace.uniform(2).masses
    _instances_in_turn(monkeypatch, [(masses, (0, 2)), (masses, (-1, 1))])
    with pytest.raises(ValueError, match="^generator is not a permutation$"):
        sweep_identities(2, 0)


BAD_MASSES = [
    ([0.6, 0.5, -0.1], "negative mass"),
    ([0.5, 0.3, 0.1], "masses must sum to 1"),
    ([0.5, float("nan"), 0.5], "masses must be finite"),
    ([float("nan"), -0.5, 1.5], "negative mass"),
    ([float("inf"), 0.0, 0.0], "masses must sum to 1"),
]


@pytest.mark.parametrize("masses, message", BAD_MASSES)
def test_sweeps_reject_bad_masses_as_a_space_would(monkeypatch, masses, message):
    # the batch's one mass check gives FiniteProbabilitySpace's messages
    with pytest.raises(ValueError, match=f"^{message}$"):
        FiniteProbabilitySpace(range(3), masses)
    good, bad = np.full(3, 1 / 3), np.array(masses)
    for sweep in (sweep_disintegration, sweep_exhaustion):
        it = iter([good, bad, good])
        monkeypatch.setattr(suites, "_random_masses", lambda rng, max_atoms: next(it))
        with pytest.raises(ValueError, match=f"^{message}$"):
            sweep(3, 0)
    _instances_in_turn(monkeypatch, [(good, (1, 2, 0)), (bad, (0, 1, 2)), (good, (1, 2, 0))])
    with pytest.raises(ValueError, match=f"^{message}$"):
        sweep_identities(3, 0)


def test_batched_mass_check_raises_for_the_first_bad_space():
    # an unnormalised second space fails before a negative third one, as
    # building the spaces in turn would
    stack = [[0.5, 0.5], [0.5, 0.3, 0.1], [1.5, -0.5]]
    masses = np.concatenate([np.array(m) for m in stack])
    with pytest.raises(ValueError, match="^masses must sum to 1$"):
        spaces._require_probabilities(masses, [2, 3, 2])
    spaces._require_probabilities(masses[:2], [2])


def test_record_all_equals_the_record_loop():
    # signed zeros, ties, NaN and infinities, over several batches
    rng = np.random.default_rng(3)
    pool = [0.0, -0.0, 1e-13, -1e-13, -2.0, 5.0, float("nan"), float("inf"), -float("inf")]
    for _ in range(400):
        loop, batched = PropertyStats("p", 1e-12), PropertyStats("p", 1e-12)
        for _ in range(int(rng.integers(1, 4))):
            slacks = rng.choice(pool, size=int(rng.integers(0, 6)))
            for slack in slacks.tolist():
                loop.record(slack)
            batched.record_all(slacks)
        assert repr(batched) == repr(loop)


@pytest.mark.parametrize("max_atoms", [2, 3, 10, 50])
def test_array_draws_equal_the_per_object_draws(max_atoms):
    # the sweeps' raw draws make the oracles' rng calls and give their masses
    for seed in range(25):
        objects, arrays = np.random.default_rng(seed), np.random.default_rng(seed)
        space = random_space(objects, max_atoms)
        masses = suites._random_masses(arrays, max_atoms)
        assert masses.tolist() == space.masses.tolist()
        assert arrays.bit_generator.state == objects.bit_generator.state
        space, perm = random_permutation_instance(objects, max_atoms)
        masses, array_perm = suites._random_permutation_masses(arrays, max_atoms)
        assert masses.tolist() == space.masses.tolist()
        assert array_perm.tolist() == list(perm)
        assert arrays.bit_generator.state == objects.bit_generator.state
