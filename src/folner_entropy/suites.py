"""Seeded randomized sweeps over the identity and inequality layers.

Instances are drawn from a single seeded generator so every sweep is
reproducible; reports aggregate worst slacks and violation counts per
property. Measure-preserving permutations are built with masses
constant along cycles, so preservation holds bit-exactly rather than
within a tolerance.

Every trial is drawn as raw arrays: its masses, a permutation, and label
arrays from ``_random_labels``. No space, partition or check object is
built per trial. Consecutive trials are stacked until their terms hold
``_BATCH_ATOMS`` atoms; each batch then takes one check of its masses
(``FiniteProbabilitySpace``'s, with its messages), one array pass of the
verifier entry the sweep exercises, and one ``PropertyStats.record_all``
per property. Every report is the one a verifier call per trial gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable

import numpy as np

from .engine import (
    _chain_entropies,
    _chain_min_steps,
    _identity_entropies,
    _identity_slacks,
    _join_codes,
    _require_tolerances,
    _unit_elements,
    conditional_block_entropy,
)
from .groups import FolnerSubset
from .spaces import (
    _require_probabilities,
    _segment_sums,
    _stacked_betas,
    _stacked_mass_functions,
    _stacked_reintegration,
)
from .systems import DEFAULT_PATTERN_CAP, _require_generator

# ---------------------------------------------------------------------------
# trial draws
# ---------------------------------------------------------------------------


def _random_masses(rng: np.random.Generator, max_atoms: int) -> np.ndarray:
    """The masses of a random space of 2..max_atoms atoms; from 3 atoms on,
    some may be zero."""
    n = int(rng.integers(2, max_atoms + 1))
    w = rng.random(n)
    if n >= 3 and rng.random() < 0.3:
        k = int(rng.integers(1, max(2, n // 3) + 1))
        w[rng.choice(n, size=k, replace=False)] = 0.0
    total = w.sum()
    if total <= 0.0:
        w[0] = 1.0
        total = w.sum()
    return w / total


def _random_labels(rng: np.random.Generator, n: int) -> tuple:
    """Raw labels of a random partition of n atoms, each uniform below a
    bound k drawn uniformly from 1..n, and that bound."""
    k = int(rng.integers(1, n + 1))
    return rng.integers(0, k, size=n), k


def _random_permutation_masses(rng: np.random.Generator, max_atoms: int) -> tuple:
    """The masses of a random space and a permutation preserving them
    bit-exactly.

    Masses are assigned per cycle of the permutation (one shared float
    per cycle), so ``masses[perm[j]] == masses[j]`` holds as an exact
    float identity, which the action constructor requires. Cycles are
    numbered by their smallest atom, and the normaliser adds the cycles'
    weights in that order.
    """
    n = int(rng.integers(2, max_atoms + 1))
    perm = rng.permutation(n)
    step = perm.tolist()
    cycle = [-1] * n
    count = 0
    for s in range(n):
        if cycle[s] < 0:
            j = s
            while cycle[j] < 0:
                cycle[j] = count
                j = step[j]
            count += 1
    w = rng.random(count)
    return w[cycle] / (np.bincount(cycle) * w).cumsum()[-1], perm


# ---------------------------------------------------------------------------
# sweep reports
# ---------------------------------------------------------------------------


def _require_arguments(trials: int, max_atoms: int, *tolerances: float) -> None:
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if max_atoms < 2:
        raise ValueError("max_atoms must be at least 2")
    _require_tolerances(*tolerances)


# a sweep stacks the terms of consecutive trials into one array pass until
# they hold this many atoms, which bounds the batch's memory
_BATCH_ATOMS = 4096


def _run_batched(trials: int, draw: Callable[[], tuple], flush: Callable[[list], None]) -> None:
    """Draw the trials in order and hand them to ``flush`` in lists closed
    once their terms hold ``_BATCH_ATOMS`` atoms (the last list may hold
    fewer). ``draw`` makes one trial and returns its terms and their atom
    count. A list is dropped before the next one is drawn, so one batch
    at most is held at a time."""
    batch: list = []
    atoms = 0
    for t in range(trials):
        terms, size = draw()
        batch.append(terms)
        atoms += size
        if atoms >= _BATCH_ATOMS or t == trials - 1:
            flush(batch)
            batch, atoms = [], 0


def _stacked_masses(batch: list) -> tuple:
    """The masses of a batch's trials (each trial's first term) back to
    back, after ``FiniteProbabilitySpace``'s checks on each, and their
    atom counts."""
    sizes = [terms[0].shape[0] for terms in batch]
    masses = np.concatenate([terms[0] for terms in batch])
    _require_probabilities(masses, sizes)
    return masses, sizes


@dataclass
class PropertyStats:
    """Aggregated results for one named property across a sweep."""

    name: str
    tolerance: float
    checked: int = 0
    violations: int = 0
    min_slack: float = float("inf")

    def record(self, slack: float) -> None:
        self.checked += 1
        self.min_slack = min(self.min_slack, slack)
        if slack < -self.tolerance:
            self.violations += 1

    def record_all(self, slacks: np.ndarray) -> None:
        """``record`` of every slack in turn, in one array pass. As the loop
        does, ``min_slack`` moves only to a slack strictly below it, and
        then to the first of the smallest slacks, so a zero keeps its sign
        and a NaN is never taken."""
        slacks = np.asarray(slacks, dtype=np.float64)
        self.checked += slacks.shape[0]
        self.violations += int(np.count_nonzero(slacks < -self.tolerance))
        if slacks.shape[0]:
            low = np.fmin.reduce(slacks)
            if low < self.min_slack:
                self.min_slack = float(slacks[(slacks == low).argmax()])

    @property
    def ok(self) -> bool:
        return self.violations == 0


@dataclass
class SweepReport:
    """Per-property statistics for one randomized sweep."""

    trials: int
    seed: int
    stats: dict = field(default_factory=dict)

    def stat(self, name: str, tolerance: float) -> PropertyStats:
        if name not in self.stats:
            self.stats[name] = PropertyStats(name, tolerance)
        return self.stats[name]

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.stats.values())


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def sweep_identities(
    trials: int = 500,
    seed: int = 0,
    max_atoms: int = 10,
    tolerance: float = 1e-9,
    equality_tolerance: float = 1e-12,
) -> SweepReport:
    """The conditional-entropy identities on seeded random triples.

    Each trial draws a cycle-weighted space with an exactly
    measure-preserving permutation, uses it both as a one-generator
    action (translation invariance) and as a raw map (invariance under
    measure isomorphisms), and checks all identities on a random
    partition triple. A trial is drawn as raw arrays: the masses, the
    permutation and three label arrays. Each batch takes one check of its
    masses, one of its permutations, which raises ``FinitePMPAction``'s
    errors, one ``_identity_entropies`` pass, the one
    ``verify_entropy_identities`` makes for a single triple, and the same
    check arithmetic over arrays. The report is the one a
    ``verify_entropy_identities`` call per trial gives. Both tolerances
    must be finite and nonnegative.
    """
    _require_arguments(trials, max_atoms, tolerance, equality_tolerance)
    rng = np.random.default_rng(seed)
    report = SweepReport(trials, seed)
    elements = _unit_elements(1)

    def draw():
        masses, perm = _random_permutation_masses(rng, max_atoms)
        n = len(masses)
        triple = [_random_labels(rng, n) for _ in range(3)]
        return (masses, perm, triple), n * (7 + len(elements) + 1)

    def flush(batch):
        masses, sizes = _stacked_masses(batch)
        perm = _stacked_permutations(masses, [perm for _, perm, _ in batch], sizes)
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(perm.shape[0])
        labels = [np.concatenate([triple[i][0] for _, _, triple in batch]) for i in range(3)]
        bounds = [max(triple[i][1] for _, _, triple in batch) for i in range(3)]
        # T_e gathers through the inverse, T_-e and the raw map through perm
        values = np.array(_identity_entropies(masses, sizes, labels, bounds, [inverse, perm, perm])).T
        _record_slacks(report, _identity_slacks(values, elements, True, tolerance, equality_tolerance))

    _run_batched(trials, draw, flush)
    return report


def _record_slacks(report: SweepReport, slacks: list) -> None:
    """Record a batch's (name, slack array over the trials, tolerance,
    detail) checks, trial by trial and in check order within a trial, as
    recording each trial's checks in turn would."""
    by_name: dict = {}
    for name, slack, tol, _ in slacks:
        by_name.setdefault(name, (tol, []))[1].append(slack)
    for name, (tol, rows) in by_name.items():
        report.stat(name, tol).record_all(np.stack(rows, axis=1).ravel())


def _stacked_permutations(masses: np.ndarray, perms: list, sizes: list) -> np.ndarray:
    """The trials' permutations (each on its own atoms) as one index map
    over their stacked atoms, after checking, for all of them at once,
    that each is a permutation of its own atoms that keeps their masses.
    An index outside its trial becomes -1, and a permutation of the wrong
    length leaves the stack misaligned; both fail the check."""
    stacked = np.concatenate(perms)
    if [len(p) for p in perms] == sizes:
        starts = np.array([*accumulate(sizes[:-1], initial=0)])
        inside = (stacked >= 0) & (stacked < np.repeat(sizes, sizes))
        stacked = np.where(inside, stacked + starts.repeat(sizes), -1)
    _require_generator(masses, stacked, np.arange(masses.shape[0]))
    return stacked


def sweep_disintegration(
    trials: int = 1000,
    seed: int = 0,
    max_atoms: int = 10,
    tolerance: float = 1e-12,
) -> SweepReport:
    """Reconstruction through fibers and the conditional mass function.

    Each trial checks that re-integrating a random atom subset through
    the disintegration over a random partition reproduces its mass (read
    independently, as ``mass_of`` reads it), and that -log of the
    conditional mass function integrates to H(alpha | cond). A trial is
    drawn as raw arrays: the masses, two label arrays and the subset's
    mask. Each batch takes one check of its masses and one
    ``_stacked_mass_functions`` join; the re-integration reads the cond
    labels and block masses of that join (``_stacked_reintegration``), and
    the direct masses are one segment sum over the picked atoms. The
    report is the one a ``reconstruct`` and a ``conditional_mass_function``
    call per trial give. ``tolerance`` must be finite and nonnegative.
    """
    _require_arguments(trials, max_atoms, tolerance)
    rng = np.random.default_rng(seed)
    report = SweepReport(trials, seed)

    def draw():
        masses = _random_masses(rng, max_atoms)
        n = masses.shape[0]
        alpha = _random_labels(rng, n)[0]
        cond = _random_labels(rng, n)[0]
        return (masses, alpha, cond, rng.random(n) < 0.5), n

    def flush(batch):
        masses, sizes = _stacked_masses(batch)
        alpha, cond, pick = (np.concatenate([terms[i] for terms in batch]) for i in (1, 2, 3))
        cond, mC, counts = _stacked_betas(masses, cond, sizes)
        gaps = _stacked_mass_functions(masses, alpha, cond, mC, counts, sizes)[3]
        rebuilt = _stacked_reintegration(masses, cond, mC, counts, pick)
        trial = np.arange(len(batch)).repeat(sizes)
        direct = _segment_sums(masses[pick], np.bincount(trial[pick], minlength=len(batch)).cumsum().tolist())
        report.stat("reconstruction", tolerance).record_all(-np.abs(np.subtract(rebuilt, direct)))
        report.stat("mass_function_integral", tolerance).record_all(-gaps)

    _run_batched(trials, draw, flush)
    return report


def sweep_exhaustion(
    trials: int = 200,
    seed: int = 0,
    max_atoms: int = 10,
    tolerance: float = 1e-12,
) -> SweepReport:
    """Monotone decay of H(xi | alpha_n v C) along random refining chains.

    Chains are cumulative joins of random partitions, capped with the
    point partition so the final conditional entropy must vanish. A trial
    is drawn as raw arrays: the masses, xi's labels, C's labels (zeros
    without C) and the chain's label rows. Each batch builds every chain term as a
    ``_join_codes`` mixed-radix code, the point partition being
    ``arange``, and takes one check of its masses and one
    ``_chain_entropies`` pass, which checks that every chain increases.
    The report is the one a ``verify_chain_exhaustion`` call per trial
    gives. ``tolerance`` must be finite and nonnegative.
    """
    _require_arguments(trials, max_atoms, tolerance)
    rng = np.random.default_rng(seed)
    report = SweepReport(trials, seed)

    def draw():
        masses = _random_masses(rng, max_atoms)
        n = masses.shape[0]
        xi = _random_labels(rng, n)[0]
        cond = _random_labels(rng, n) if rng.random() < 0.5 else (np.zeros(n, dtype=np.int64), 1)
        rows = [_random_labels(rng, n)]
        rows += [_random_labels(rng, n) for _ in range(int(rng.integers(1, 4)))]
        return (masses, xi, cond, rows), n * (len(rows) + 1)

    def flush(batch):
        masses, sizes = _stacked_masses(batch)
        xi = np.concatenate([terms[1] for terms in batch])
        cond = (np.concatenate([terms[2][0] for terms in batch]), max(terms[2][1] for terms in batch))
        depths = [len(terms[3]) for terms in batch]
        # term j joins rows 0..j of each trial (a trial without row j joins
        # a row of zeros); the last term joins the deepest one with the points
        chain = []
        for j in range(max(depths)):
            rows = [
                terms[3][j] if j < depth else (np.zeros(n, dtype=np.int64), 1)
                for terms, depth, n in zip(batch, depths, sizes)
            ]
            row = (np.concatenate([codes for codes, _ in rows]), max(k for _, k in rows))
            chain.append(_join_codes(chain[-1:] + [row]))
        chain.append(_join_codes(chain[-1:] + [(np.arange(masses.shape[0]), masses.shape[0])]))
        codes, bounds = zip(*chain)
        # each trial's chain: its own joins, then the join with the points
        lengths = np.array(depths) + 1
        item_row = np.array([j for depth in depths for j in (*range(depth), max(depths))])
        values, _ = _chain_entropies(
            masses, sizes, xi, cond, np.stack(codes), max(bounds),
            np.arange(len(batch)).repeat(lengths), item_row,
        )
        values = np.array(values)
        report.stat("chain_monotone", tolerance).record_all(_chain_min_steps(values, lengths))
        report.stat("chain_vanishes", tolerance).record_all(-np.abs(values[lengths.cumsum() - 1]))

    _run_batched(trials, draw, flush)
    return report


# ---------------------------------------------------------------------------
# window set functions for the subadditivity hypotheses
# ---------------------------------------------------------------------------


def phi_cardinality(F: FolnerSubset) -> float:
    """phi(F) = |F|: satisfies every hypothesis with equality slack 0."""
    return float(len(F))


def phi_neg_card_squared(F: FolnerSubset) -> float:
    """phi(F) = -|F|^2: monotonicity fails, a designed counterexample."""
    return -float(len(F)) ** 2


def window_entropy_phi(
    system,
    alpha=None,
    C=None,
    cap: int = DEFAULT_PATTERN_CAP,
) -> Callable[[FolnerSubset], float]:
    """phi(F) = H(alpha^F | C) for a given system, as a window set function."""
    def phi(F: FolnerSubset) -> float:
        return conditional_block_entropy(system, alpha, F, C, None, cap)

    return phi
