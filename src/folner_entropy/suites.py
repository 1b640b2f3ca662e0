"""Seeded randomized sweeps over the identity and inequality layers.

Instances are drawn from a single seeded generator so every sweep is
reproducible; reports aggregate worst slacks and violation counts per
property. Measure-preserving permutations are built with masses
constant along cycles, so preservation holds bit-exactly rather than
within a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable

import numpy as np

from .engine import (
    _chain_checks,
    _chain_terms,
    _identity_checks,
    _identity_entropies,
    _require_tolerances,
    _unit_elements,
    conditional_block_entropy,
)
from .groups import FolnerSubset
from .spaces import (
    FiniteProbabilitySpace,
    Partition,
    _reintegrate,
    conditional_entropies,
    conditional_mass_functions,
    join,
)
from .systems import DEFAULT_PATTERN_CAP, _require_generator

# ---------------------------------------------------------------------------
# instance generators
# ---------------------------------------------------------------------------


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


def _random_labels(rng: np.random.Generator, n: int) -> tuple:
    """Raw labels of a random partition of n atoms, each uniform below a
    bound k drawn uniformly from 1..n, and that bound."""
    k = int(rng.integers(1, n + 1))
    return rng.integers(0, k, size=n), k


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


def _entropies_per_trial(pair_lists: list) -> list:
    """The conditional entropies of every trial's pairs from one
    ``conditional_entropies`` call, one list per trial."""
    values = iter(conditional_entropies([pair for pairs in pair_lists for pair in pairs]))
    return [[next(values) for _ in pairs] for pairs in pair_lists]


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
    permutation and three label arrays. Consecutive trials are stacked
    until their pairs hold ``_BATCH_ATOMS`` atoms; each batch then takes
    one check of its permutations, which raises ``FinitePMPAction``'s
    errors, and one ``_identity_entropies`` pass, the one
    ``verify_entropy_identities`` makes for a single triple. Every value,
    and so the report, is the one a ``verify_entropy_identities`` call per
    trial gives. Both tolerances must be finite and nonnegative.
    """
    _require_arguments(trials, max_atoms, tolerance, equality_tolerance)
    rng = np.random.default_rng(seed)
    report = SweepReport(trials, seed)
    elements = _unit_elements(1)

    def draw():
        space, perm = random_permutation_instance(rng, max_atoms)
        n = len(space)
        triple = [_random_labels(rng, n) for _ in range(3)]
        return (space.masses, perm, triple), n * (7 + len(elements) + 1)

    def flush(batch):
        sizes = [len(masses) for masses, _, _ in batch]
        masses = np.concatenate([masses for masses, _, _ in batch])
        perm = _stacked_permutations(masses, [perm for _, perm, _ in batch], sizes)
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(perm.shape[0])
        labels = [np.concatenate([triple[i][0] for _, _, triple in batch]) for i in range(3)]
        bounds = [max(triple[i][1] for _, _, triple in batch) for i in range(3)]
        # T_e gathers through the inverse, T_-e and the raw map through perm
        for own in _identity_entropies(masses, sizes, labels, bounds, [inverse, perm, perm]):
            result = _identity_checks(own, elements, True, tolerance, equality_tolerance)
            for check in result.checks:
                report.stat(check.name, check.tol).record(check.slack)

    _run_batched(trials, draw, flush)
    return report


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
    independently by ``mass_of``), and that -log of the conditional mass
    function integrates to H(alpha | cond). Consecutive trials go through
    one re-integration pass and one ``conditional_mass_functions`` call
    once their spaces hold ``_BATCH_ATOMS`` atoms; every value, and so the
    report, is the one a ``reconstruct`` and a ``conditional_mass_function``
    call per trial give. ``tolerance`` must be finite and nonnegative.
    """
    _require_arguments(trials, max_atoms, tolerance)
    rng = np.random.default_rng(seed)
    report = SweepReport(trials, seed)

    def draw():
        space = random_space(rng, max_atoms)
        alpha = random_partition(rng, space)
        cond = random_partition(rng, space)
        pick = rng.random(len(space)) < 0.5
        subset = [a for a, take in zip(space.atom_ids, pick) if take]
        return (space, alpha, cond, subset), len(space)

    def flush(batch):
        rebuilt = _reintegrate([(cond, subset) for _, _, cond, subset in batch])
        mfs = conditional_mass_functions([(space, alpha, cond) for space, alpha, cond, _ in batch])
        for (space, _, _, subset), mass, mf in zip(batch, rebuilt, mfs):
            report.stat("reconstruction", tolerance).record(-abs(mass - space.mass_of(subset)))
            report.stat("mass_function_integral", tolerance).record(-mf.integral_gap)

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
    point partition so the final conditional entropy must vanish. The
    conditional entropies of consecutive trials go through one
    ``conditional_entropies`` call once their pairs hold ``_BATCH_ATOMS``
    atoms; every value, and so the report, is the one a
    ``verify_chain_exhaustion`` call per trial gives. ``tolerance`` must
    be finite and nonnegative.
    """
    _require_arguments(trials, max_atoms, tolerance)
    rng = np.random.default_rng(seed)
    report = SweepReport(trials, seed)

    def draw():
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
        pairs = _chain_terms(space, chain, xi, cond)
        return pairs, len(space) * len(pairs)

    def flush(batch):
        for pairs, own in zip(batch, _entropies_per_trial(batch)):
            result = _chain_checks(pairs, own, tolerance)
            report.stat("chain_monotone", tolerance).record(result.min_step_slack)
            report.stat("chain_vanishes", tolerance).record(-abs(result.values[-1]))

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
