"""Randomized sweep harnesses: determinism, aggregation, and clean runs
at reduced trial counts (full-scale runs live in the acceptance suite).
"""

import pytest

from folner_entropy import (
    sweep_disintegration,
    sweep_exhaustion,
    sweep_identities,
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
