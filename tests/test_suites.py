"""Randomized sweep harnesses: determinism, aggregation, and clean runs
at reduced trial counts (full-scale runs live in the acceptance suite).
"""

import math
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
    engine,
    join,
    spaces,
    suites,
    sweep_disintegration,
    sweep_exhaustion,
    sweep_identities,
    verify_chain_exhaustion,
    verify_entropy_identities,
)
from folner_entropy.suites import SweepReport


def record(stats: PropertyStats, slack: float) -> None:
    """One slack recorded on its own: the reference for
    ``PropertyStats.record_all``."""
    stats.checked += 1
    stats.min_slack = min(stats.min_slack, slack)
    if slack < -stats.tolerance:
        stats.violations += 1


def _trials(sizes):
    """Each trial's atoms in a batch, as slices of its stacked arrays."""
    ends = np.cumsum(sizes).tolist()
    return [slice(end - n, end) for n, end in zip(sizes.tolist(), ends)]


def _space(masses):
    return FiniteProbabilitySpace(range(masses.shape[0]), masses)


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

    # slacks are multiples of the float spacing, so two seeds can tie;
    # seed 3 must differ from one of the next five
    def slacks(seed):
        return [s.min_slack for s in sweep_identities(trials=25, seed=seed).stats.values()]

    assert any(slacks(seed) != slacks(3) for seed in range(4, 9))


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
@pytest.mark.parametrize("seed", [-1, 2.5, True])
def test_sweeps_reject_a_seed_that_is_not_a_nonnegative_integer(sweep, seed):
    # -1 used to leak numpy's "expected non-negative integer" from the generator
    with pytest.raises(ValueError, match=f"^seed must be a nonnegative integer, got {seed}$"):
        sweep(trials=3, seed=seed)


@pytest.mark.parametrize("sweep", [sweep_identities, sweep_disintegration, sweep_exhaustion])
@pytest.mark.parametrize("max_atoms", [1, 0, -4])
def test_sweeps_reject_max_atoms_below_two(sweep, max_atoms):
    # used to leak numpy's "low >= high" from the first draw
    with pytest.raises(ValueError, match="^max_atoms must be at least 2$"):
        sweep(trials=3, seed=0, max_atoms=max_atoms)


@pytest.mark.parametrize("sweep", [sweep_identities, sweep_disintegration, sweep_exhaustion])
def test_sweeps_reject_max_atoms_past_the_limit(sweep):
    # checked before any draw: a trial of 10**8 atoms would take the host's memory
    assert suites.MAX_ATOMS_LIMIT == 2**17
    suites._require_arguments(1, 0, suites.MAX_ATOMS_LIMIT, 0.0)
    with pytest.raises(ValueError, match=r"^max_atoms must be at most 131072, got 131073$"):
        sweep(trials=3, seed=0, max_atoms=suites.MAX_ATOMS_LIMIT + 1)


def _identities_trial_by_trial(trials, seed, max_atoms):
    """``sweep_identities`` as one verifier call per trial, on the batch
    draw's instances split per trial."""
    report = SweepReport(trials, seed)
    batches = suites._identity_batches(np.random.default_rng(seed), trials, max_atoms)
    for sizes, masses, perm, labels, _ in batches:
        for t in _trials(sizes):
            space = _space(masses[t])
            own = tuple((perm[t] - t.start).tolist())
            action = FinitePMPAction(space, [own])
            alpha, beta, gamma = (Partition.from_labels(space, row[t]) for row in labels)
            inverse = tuple(int(x) for x in np.argsort(np.asarray(own)))
            result = verify_entropy_identities(
                space, alpha, beta, gamma, action=action, pmp_map=inverse
            )
            for check in result.checks:
                record(report.stat(check.name, check.tol), check.slack)
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
    call per trial, on the batch draw's instances split per trial."""
    report = SweepReport(trials, seed)
    batches = suites._disintegration_batches(np.random.default_rng(seed), trials, max_atoms)
    for sizes, masses, alpha, cond, pick in batches:
        for t in _trials(sizes):
            space = _space(masses[t])
            a, c = (Partition.from_labels(space, row[t]) for row in (alpha, cond))
            dis = disintegrate(space, c)
            subset = [x for x, take in zip(space.atom_ids, pick[t]) if take]
            gap = abs(dis.reconstruct(subset) - space.mass_of(subset))
            record(report.stat("reconstruction", tolerance), -gap)
            mf = conditional_mass_function(space, a, c)
            record(report.stat("mass_function_integral", tolerance), -mf.integral_gap)
    return report


def _exhaustion_trial_by_trial(trials, seed, max_atoms, tolerance=1e-12):
    """``sweep_exhaustion`` as one verifier call per trial, on the batch
    draw's instances split per trial; a C with one block is passed as no
    C."""
    report = SweepReport(trials, seed)
    batches = suites._exhaustion_batches(np.random.default_rng(seed), trials, max_atoms)
    for sizes, masses, depths, labels, _ in batches:
        for t, depth in zip(_trials(sizes), depths.tolist()):
            space = _space(masses[t])
            xi, cond, *rows = (Partition.from_labels(space, row[t]) for row in labels[: 2 + depth])
            chain = [rows[0]]
            for row in rows[1:]:
                chain.append(join(chain[-1], row))
            chain.append(join(chain[-1], Partition.points(space)))
            cond = cond if cond.n_blocks > 1 else None
            result = verify_chain_exhaustion(space, chain, xi, cond, tolerance)
            record(report.stat("chain_monotone", tolerance), result.min_step_slack)
            record(report.stat("chain_vanishes", tolerance), -abs(result.values[-1]))
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
    # which also serve the re-integration) is one _stacked_join call, and
    # the identities' one _stacked_pairs pass; per-trial calls made 1000 and
    # 200. No sweep builds a space or a partition: per-trial draws made one
    # space and 2-12 partitions a trial
    calls = {"join": 0, "reintegrate": 0, "assign": 0, "space": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    def built_nothing():
        return calls["assign"] == calls["space"] == 0

    monkeypatch.setattr(spaces, "_stacked_join", counting("join", spaces._stacked_join))
    monkeypatch.setattr(engine, "_stacked_pairs", counting("join", engine._stacked_pairs))
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
    # 500 * 100 / 16384 + 1 identities passes
    calls["join"] = 0
    sweep_identities(500, seed)
    assert 1 <= calls["join"] <= 500 * 100 // suites._PASS_ATOMS + 1
    assert built_nothing()


def _pass_atoms(batch_atoms):
    """The atoms of each identities pass over draw batches of these
    atoms: a pass closes once its terms (10 per atom) hold _PASS_ATOMS
    atoms, and a batch that holds that many alone is its own pass."""
    passes, atoms = [], 0
    for n in batch_atoms:
        if atoms and 10 * n >= suites._PASS_ATOMS:
            passes.append(atoms)
            atoms = 0
        atoms += n
        if 10 * atoms >= suites._PASS_ATOMS:
            passes.append(atoms)
            atoms = 0
    return passes + [atoms] if atoms else passes


def test_identity_passes_join_batches_field_by_field():
    # the second pass is one batch at the bound, which closes the first
    # early; the third reaches the bound with two batches
    bound = -(-suites._PASS_ATOMS // 10)
    rng = np.random.default_rng(0)
    batches = []
    for atoms in (500, 1000, bound, 3, bound - 3, 7):
        sizes = [atoms // 2, atoms - atoms // 2] if atoms > 3 else [atoms]
        batch = _identity_batch([(np.full(n, 1 / n), rng.permutation(n)) for n in sizes])
        batches.append((*batch[:3], rng.integers(0, 5, size=(3, atoms)), rng.integers(1, 5, size=(3, len(sizes)))))
    passes = list(suites._identity_passes(iter(batches)))
    assert [p[1].shape[0] for p in passes] == _pass_atoms([b[1].shape[0] for b in batches]) == [1500, bound, bound, 7]
    assert passes[1] is batches[2] and passes[3] is batches[5]
    for joined, parts in zip(passes, ([0, 1], [2], [3, 4], [5])):
        start = 0
        for j in parts:
            sizes, masses, perm, labels, bounds = batches[j]
            n = masses.shape[0]
            assert (joined[1][start : start + n] == masses).all()
            assert (joined[2][start : start + n] == perm + start).all()
            assert (joined[3][:, start : start + n] == labels).all()
            start += n
        assert start == joined[1].shape[0]
        for field in (0, 4):
            assert (joined[field] == np.concatenate([batches[j][field] for j in parts], axis=-1)).all()


@pytest.mark.parametrize("max_atoms", [10, 200, 2000])
def test_identities_pass_relabels_each_distinct_partition_once(monkeypatch, max_atoms):
    # a pass of N atoms relabels its 10 distinct partitions (alpha, gamma,
    # the four joins, and gamma and alpha v gamma under both image maps) in
    # one pass over 10 N atoms; relabelling the 9 pairs' betas and then
    # their joins took 18 N. A pass joins about four draw batches; at 2000
    # atoms a draw batch can hold a pass alone
    batches, relabelled = [], []
    draw, canonical = suites._identity_batches, spaces._canonical

    def drawn(*args):
        for batch in draw(*args):
            batches.append(int(batch[0].sum()))
            yield batch

    def counted(codes):
        relabelled.append(codes.shape[0])
        return canonical(codes)

    monkeypatch.setattr(suites, "_identity_batches", drawn)
    monkeypatch.setattr(spaces, "_canonical", counted)
    sweep_identities(500, 3, max_atoms)
    passes = _pass_atoms(batches)
    assert 1 < len(passes) < len(batches)
    assert relabelled == [10 * n for n in passes]


def _identity_report_with_passes(monkeypatch, pass_atoms, *args):
    monkeypatch.setattr(suites, "_PASS_ATOMS", pass_atoms)
    return repr(sweep_identities(*args))


@pytest.mark.parametrize("max_atoms, trials", [(10, 700), (40, 250), (200, 90)])
def test_identity_passes_change_no_report(monkeypatch, max_atoms, trials):
    # with _PASS_ATOMS at _BATCH_ATOMS every draw batch is its own pass.
    # A single trial is part of a pass; most of these counts end mid-pass
    # after several passes of about four batches each
    passes = suites._identity_passes
    recorded = []

    def recording(batches):
        recorded.clear()
        for p in passes(batches):
            recorded.append(10 * p[1].shape[0])
            yield p

    monkeypatch.setattr(suites, "_identity_passes", recording)
    ended_mid_pass = 0
    for seed in range(10):
        for count in (1, trials):
            joined = _identity_report_with_passes(monkeypatch, 4 * suites._BATCH_ATOMS, count, seed, max_atoms)
            ended_mid_pass += count > 1 and len(recorded) > 2 and recorded[-1] < suites._PASS_ATOMS
            batched = _identity_report_with_passes(monkeypatch, suites._BATCH_ATOMS, count, seed, max_atoms)
            assert joined == batched
    assert ended_mid_pass >= 8


def test_identity_passes_need_the_permutation_shift(monkeypatch):
    # a pass whose batches keep their own permutation indices sends the
    # atoms of every batch but the first into the first batch's trials
    def unshifted(batches):
        if len(batches) == 1:
            return batches[0]
        sizes, masses, perms, labels, bounds = zip(*batches)
        return (
            np.concatenate(sizes), np.concatenate(masses), np.concatenate(perms),
            np.concatenate(labels, axis=1), np.concatenate(bounds, axis=1),
        )

    sweep_identities(500, 0)
    monkeypatch.setattr(suites, "_joined", unshifted)
    with pytest.raises(ValueError, match="^generator is not a permutation$"):
        sweep_identities(500, 0)


class _CountingGenerator:
    """A numpy generator that counts the calls made to its methods."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self._calls["generator"] += 1
            return method(*args, **kwargs)

        return counted


@pytest.mark.parametrize("sweep", [sweep_identities, sweep_disintegration, sweep_exhaustion])
def test_sweeps_make_a_few_generator_calls_per_batch(monkeypatch, sweep):
    # per-trial draws made about nine generator calls a trial; a draw
    # batch makes at most eight, however many trials the batch holds
    calls = {"generator": 0, "batch": 0}
    draw = {
        sweep_identities: "_identity_batches",
        sweep_disintegration: "_disintegration_batches",
        sweep_exhaustion: "_exhaustion_batches",
    }[sweep]
    default_rng, batches = np.random.default_rng, getattr(suites, draw)

    def counted_batches(*args):
        for batch in batches(*args):
            calls["batch"] += 1
            yield batch

    monkeypatch.setattr(
        suites.np.random, "default_rng", lambda seed: _CountingGenerator(default_rng(seed), calls)
    )
    monkeypatch.setattr(suites, draw, counted_batches)
    for trials in (1, 30, 3000):
        calls.update(generator=0, batch=0)
        sweep(trials, 5)
        assert calls["batch"] <= trials * 100 // suites._BATCH_ATOMS + 1
        assert 1 <= calls["generator"] <= 8 * calls["batch"]


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


def _batch_in_place_of(monkeypatch, name, batch):
    """Make the sweep whose batch draw is ``name`` draw this one batch."""
    monkeypatch.setattr(suites, name, lambda rng, trials, max_atoms: iter([batch]))


def _identity_batch(instances):
    """One ``_identity_batches`` batch of these (masses, perm) trials, each
    perm on its own atoms, with labels of one block."""
    sizes = np.array([len(masses) for masses, _ in instances])
    starts = np.cumsum(sizes) - sizes
    perm = np.concatenate([np.asarray(p) + start for (_, p), start in zip(instances, starts)])
    masses = np.concatenate([masses for masses, _ in instances])
    labels = np.zeros((3, masses.shape[0]), dtype=np.int64)
    return sizes, masses, perm, labels, np.ones((3, sizes.shape[0]), dtype=np.int64)


def _mass_batches(stack):
    """One ``_disintegration_batches`` and one ``_exhaustion_batches``
    batch over spaces with these masses, with labels of one block."""
    sizes = np.array([len(m) for m in stack])
    masses = np.concatenate(stack)
    zeros = np.zeros(masses.shape[0], dtype=np.int64)
    depths = np.full(sizes.shape[0], 2)
    ones = np.ones((4, sizes.shape[0]), dtype=np.int64)
    return {
        "_disintegration_batches": (sizes, masses, zeros, zeros, zeros == 0),
        "_exhaustion_batches": (sizes, masses, depths, np.zeros((4, masses.shape[0]), dtype=np.int64), ones),
    }


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
    good = (FiniteProbabilitySpace.uniform(3).masses, (1, 2, 0))
    _batch_in_place_of(monkeypatch, "_identity_batches", _identity_batch([good, (space.masses, perm), good]))
    with pytest.raises(ValueError, match=f"^{message}$"):
        sweep_identities(3, 0)


def test_identities_sweep_checks_each_permutation_on_its_own_atoms(monkeypatch):
    # (0, 2, 1, 3) permutes the four stacked atoms, but sends an atom of
    # each two-atom trial into the other trial
    masses = FiniteProbabilitySpace.uniform(2).masses
    sizes, stacked, _, labels, bounds = _identity_batch([(masses, (0, 1)), (masses, (0, 1))])
    batch = (sizes, stacked, np.array([0, 2, 1, 3]), labels, bounds)
    _batch_in_place_of(monkeypatch, "_identity_batches", batch)
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
    batches = _mass_batches([good, bad, good])
    sweeps = {"_disintegration_batches": sweep_disintegration, "_exhaustion_batches": sweep_exhaustion}
    for name, sweep in sweeps.items():
        _batch_in_place_of(monkeypatch, name, batches[name])
        with pytest.raises(ValueError, match=f"^{message}$"):
            sweep(3, 0)
    batch = _identity_batch([(good, (1, 2, 0)), (bad, (0, 1, 2)), (good, (1, 2, 0))])
    _batch_in_place_of(monkeypatch, "_identity_batches", batch)
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
                record(loop, slack)
            batched.record_all(slacks)
        assert repr(batched) == repr(loop)


def _assert_frequency(hits, p):
    """The draws hit (one boolean each, hit with probability p) number
    within five standard deviations of their expectation."""
    p = np.broadcast_to(np.asarray(p, dtype=np.float64), hits.shape)
    assert abs(np.count_nonzero(hits) - p.sum()) <= 5 * math.sqrt((p * (1 - p)).sum()) + 1e-9


def _assert_sizes(sizes, max_atoms):
    values = range(2, max_atoms + 1)
    assert np.isin(sizes, values).all()
    for v in values:
        _assert_frequency(sizes == v, 1 / len(values))


def _assert_batched(atoms):
    # every batch but the last closes at the first trial at which its
    # terms reach _BATCH_ATOMS atoms
    for batch in atoms[:-1]:
        total = np.cumsum(batch)
        assert total[-1] >= suites._BATCH_ATOMS and (len(total) == 1 or total[-2] < suites._BATCH_ATOMS)


def _assert_bounds(k, n):
    # bounds uniform in 1..n
    assert ((k >= 1) & (k <= n)).all()
    for hits, p in ((k == 1, 1 / n), (k == n, 1 / n), (2 * k <= n, (n // 2) / n)):
        _assert_frequency(hits, p)


def _assert_labels(labels, k):
    # labels uniform below their bounds
    assert ((labels >= 0) & (labels < k)).all()
    _assert_frequency(labels == 0, 1 / k)


def _assert_zeroing(sizes, masses):
    # from 3 atoms on, with probability 0.3, k uniform in 1..max(2, n // 3)
    # atoms, a uniform k-subset, are zero
    spaces._require_probabilities(masses, sizes.tolist())
    starts = np.cumsum(sizes) - sizes
    zeros = np.add.reduceat(masses == 0.0, starts)
    most = np.maximum(2, sizes // 3)
    assert (zeros <= np.where(sizes >= 3, most, 0)).all()
    _assert_frequency(zeros[sizes >= 3] > 0, 0.3)
    zeroed = zeros > 0
    _assert_frequency(zeros[zeroed] == 1, 1 / most[zeroed])
    _assert_frequency(zeros[zeroed] == most[zeroed], 1 / most[zeroed])
    _assert_frequency(masses[starts[zeroed]] == 0.0, zeros[zeroed] / sizes[zeroed])


def _cycle_count(perm):
    seen, count = set(), 0
    for start in perm:
        if start not in seen:
            count += 1
            while start not in seen:
                seen.add(start)
                start = perm[start]
    return count


@pytest.mark.parametrize("max_atoms", [2, 3, 10, 50])
def test_batch_draws_have_the_per_trial_distribution(max_atoms):
    trials = 4000
    # identities: a uniform permutation of each space's own atoms, one
    # uniform weight per cycle, so masses[perm] == masses bit-exactly
    batches = list(suites._identity_batches(np.random.default_rng(20), trials, max_atoms))
    _assert_batched([10 * batch[0] for batch in batches])
    sizes, masses, perm, labels, bounds = (np.concatenate(parts, axis=-1) for parts in zip(*batches))
    starts = np.cumsum([0] + [batch[0].sum() for batch in batches])
    perm += np.concatenate([np.full(batch[2].shape, start) for batch, start in zip(batches, starts)])
    _assert_sizes(sizes, max_atoms)
    spaces._require_probabilities(masses, sizes.tolist())
    trial = np.arange(trials).repeat(sizes)
    assert (np.sort(perm) == np.arange(perm.shape[0])).all() and (trial[perm] == trial).all()
    assert (masses[perm] == masses).all()
    segments = [(perm[t] - t.start).tolist() for t in _trials(sizes)]
    cycles = np.array([_cycle_count(p) for p in segments])
    assert cycles.tolist() == [len(set(masses[t].tolist())) for t in _trials(sizes)]
    # a uniform permutation of n atoms has one fixed point on average, with
    # variance 1 (n >= 2), and sum_{j <= n} 1/j cycles, with variance
    # sum_{j <= n} (1/j - 1/j^2)
    assert abs(np.count_nonzero(perm == np.arange(perm.shape[0])) - trials) <= 5 * math.sqrt(trials)
    inv = [1 / np.arange(1, n + 1) for n in sizes.tolist()]
    mean, var = sum(i.sum() for i in inv), sum((i - i * i).sum() for i in inv)
    assert abs(cycles.sum() - mean) <= 5 * math.sqrt(var)
    _assert_bounds(bounds, np.broadcast_to(sizes, bounds.shape))
    _assert_labels(labels, bounds.repeat(sizes, axis=1))
    # disintegration: zeroed masses, two label rows, atoms picked with
    # probability 1/2
    batches = list(suites._disintegration_batches(np.random.default_rng(21), trials, max_atoms))
    _assert_batched([batch[0] for batch in batches])
    sizes, masses, alpha, cond, pick = (np.concatenate(parts) for parts in zip(*batches))
    _assert_sizes(sizes, max_atoms)
    _assert_zeroing(sizes, masses)
    for row in (alpha, cond):
        assert ((row >= 0) & (row < sizes.repeat(sizes))).all()
    _assert_frequency(pick, 0.5)
    # exhaustion: zeroed masses, depths uniform in 2..4, C absent (bound 1)
    # with probability 1/2, bound 1 past a trial's depth
    batches = list(suites._exhaustion_batches(np.random.default_rng(22), trials, max_atoms))
    _assert_batched([batch[0] * (batch[2] + 1) for batch in batches])
    sizes, masses, depths = (np.concatenate(parts) for parts in list(zip(*batches))[:3])
    _assert_sizes(sizes, max_atoms)
    _assert_zeroing(sizes, masses)
    for d in (2, 3, 4):
        _assert_frequency(depths == d, 1 / 3)
    drawn = {"k": [], "n": [], "labels": [], "below": [], "cond": []}
    for sizes, _, depths, labels, bounds in batches:
        rows = np.arange(bounds.shape[0])[:, None]
        assert bounds.shape[0] == 2 + depths.max()
        assert (bounds[rows >= 2 + depths] == 1).all()
        live = (rows != 1) & (rows < 2 + depths)
        drawn["k"].append(bounds[live])
        drawn["n"].append(np.broadcast_to(sizes, bounds.shape)[live])
        drawn["labels"].append(labels)
        drawn["below"].append(bounds.repeat(sizes, axis=1))
        drawn["cond"].append(bounds[1] == 1)
    _assert_bounds(np.concatenate(drawn["k"]), np.concatenate(drawn["n"]))
    labels = np.concatenate([row.ravel() for row in drawn["labels"]])
    _assert_labels(labels, np.concatenate([row.ravel() for row in drawn["below"]]))
    sizes = np.concatenate([batch[0] for batch in batches])
    _assert_frequency(np.concatenate(drawn["cond"]), 0.5 + 0.5 / sizes)
