"""Randomized sweep harnesses: determinism, aggregation, and clean runs
at reduced trial counts (full-scale runs live in the acceptance suite).
"""

import numpy as np
import pytest

from folner_entropy import (
    FinitePMPAction,
    sweep_disintegration,
    sweep_exhaustion,
    sweep_identities,
    verify_entropy_identities,
)
from folner_entropy.suites import (
    SweepReport,
    random_partition,
    random_permutation_instance,
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


@pytest.mark.parametrize("trials", [1, 31, 33, 500])
@pytest.mark.parametrize("max_atoms", [2, 10, 200])
def test_batched_identities_sweep_equals_trial_by_trial(trials, max_atoms):
    # max_atoms 200 fills a batch within a few trials; 10 needs dozens
    seed = 1000 + trials + max_atoms
    expected = _identities_trial_by_trial(trials, seed, max_atoms)
    assert repr(sweep_identities(trials, seed, max_atoms)) == repr(expected)
