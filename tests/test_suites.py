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
from folner_entropy.suites import (
    SweepReport,
    random_partition,
    random_permutation_instance,
    random_space,
)


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


@pytest.mark.parametrize("trials", [1, 37, 1000])
@pytest.mark.parametrize("max_atoms", [2, 10, 50])
def test_batched_disintegration_sweep_equals_trial_by_trial(trials, max_atoms):
    # at max_atoms 50 a batch closes within about 160 trials
    for seed in range(6):
        expected = _disintegration_trial_by_trial(trials, seed, max_atoms)
        assert repr(sweep_disintegration(trials, seed, max_atoms)) == repr(expected)


@pytest.mark.parametrize("trials", [1, 37, 200])
@pytest.mark.parametrize("max_atoms", [2, 10, 50])
def test_batched_exhaustion_sweep_equals_trial_by_trial(trials, max_atoms):
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
    # every conditional-entropy join (conditional_entropies and the mass
    # functions) is one _stacked_join call; per-trial calls made 1000 and 200
    calls = {"join": 0, "reintegrate": 0, "assign": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(spaces, "_stacked_join", counting("join", spaces._stacked_join))
    monkeypatch.setattr(suites, "_reintegrate", counting("reintegrate", suites._reintegrate))
    sweep_disintegration(1000, seed)
    assert 1 <= calls["join"] <= 3 and 1 <= calls["reintegrate"] <= 3
    calls["join"] = 0
    sweep_exhaustion(200, seed)
    assert 1 <= calls["join"] <= 3
    # a trial's 10 pairs hold at most 100 atoms, so 500 trials close at most
    # 500 * 100 / 4096 + 1 batches; per-trial partitions made 6000 _assign calls
    calls["join"] = calls["assign"] = 0
    monkeypatch.setattr(Partition, "_assign", counting("assign", Partition._assign))
    sweep_identities(500, seed)
    assert 1 <= calls["join"] <= 500 * 100 // suites._BATCH_ATOMS + 1
    assert calls["assign"] <= calls["join"]


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
    """Make the sweep draw these (space, perm) instances, in turn."""
    it = iter(instances)
    monkeypatch.setattr(suites, "random_permutation_instance", lambda rng, max_atoms: next(it))


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
    good = (uniform, (1, 2, 0))
    _instances_in_turn(monkeypatch, [good, (space, perm), good])
    with pytest.raises(ValueError, match=f"^{message}$"):
        sweep_identities(3, 0)


def test_identities_sweep_checks_each_permutation_on_its_own_atoms(monkeypatch):
    # stacked, (0, 2) and (-1, 1) would read as the permutation (0, 2, 1, 3)
    # of four atoms, though neither maps its own two atoms onto themselves
    space = FiniteProbabilitySpace.uniform(2)
    _instances_in_turn(monkeypatch, [(space, (0, 2)), (space, (-1, 1))])
    with pytest.raises(ValueError, match="^generator is not a permutation$"):
        sweep_identities(2, 0)
