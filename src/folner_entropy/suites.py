"""Seeded randomized sweeps over the identity and inequality layers.

Instances are drawn from a single seeded generator so every sweep is
reproducible; reports aggregate worst slacks and violation counts per
property. Measure-preserving permutations are built with masses
constant along cycles, so preservation holds bit-exactly rather than
within a tolerance.

Trials are drawn a batch at a time, as raw arrays over the batch's
spaces laid back to back: consecutive trials are stacked until their
terms hold ``_BATCH_ATOMS`` atoms, and a batch takes a fixed number of
generator calls, however many trials it holds. The draw batch is the
unit of drawing; the pass is the unit of computing. The disintegration
and exhaustion sweeps compute each draw batch as one array pass; the
identities sweep joins consecutive draw batches into one pass until
its terms hold ``_PASS_ATOMS`` atoms (``_identity_passes``), which
changes no instance and no report. A trial's instance has this
distribution:

- a space of n atoms, n uniform in 2..max_atoms, with uniform weights;
  from 3 atoms on, with probability 0.3, a uniform k-subset of them is
  zeroed, k uniform in 1..max(2, n // 3);
- for the identities, a uniform permutation of the atoms instead, with
  one uniform weight per cycle;
- partitions with labels uniform below a bound uniform in 1..n.

A seed's instances depend on the order of these draws and on
``_BATCH_ATOMS``; they differ from those of earlier versions, which drew
each trial with its own generator calls. No space, partition or check
object is built per trial: a pass takes one check of its masses
(``FiniteProbabilitySpace``'s, with its messages), one array pass of the
verifier entry the sweep exercises, and one ``PropertyStats.record_all``
per property. Every report is the one a verifier call per trial, on the
same instances, gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np

from .engine import (
    _chain_entropies,
    _chain_min_steps,
    _identity_entropies,
    _identity_slacks,
    _require_tolerances,
    _unit_elements,
    conditional_block_entropy,
)
from .groups import FolnerSubset, _require_seed
from .spaces import (
    _group_sums,
    _join_codes,
    _require_probabilities,
    _stack_sums,
    _stacked_betas,
    _stacked_mass_functions,
    _stacked_reintegration,
)
from .systems import DEFAULT_PATTERN_CAP, _as_subalgebra, _cycle_minima, _require_generator, _require_system

# ---------------------------------------------------------------------------
# batch draws
# ---------------------------------------------------------------------------


# the largest max_atoms a sweep takes: a batch or pass closes at a fixed
# atom count, so memory follows the largest single trial (at this bound
# the identities sweep peaks near 180 MiB of arrays, 280 MiB max RSS)
MAX_ATOMS_LIMIT = 1 << 17


def _require_arguments(trials: int, seed: int, max_atoms: int, *tolerances: float) -> None:
    if trials < 1:
        raise ValueError("trials must be at least 1")
    _require_seed(seed)
    if max_atoms < 2:
        raise ValueError("max_atoms must be at least 2")
    if max_atoms > MAX_ATOMS_LIMIT:
        raise ValueError(f"max_atoms must be at most {MAX_ATOMS_LIMIT}, got {max_atoms}")
    _require_tolerances(*tolerances)


# a draw batch stacks the terms of consecutive trials until they hold
# this many atoms; an identities pass joins batches until its terms hold
# _PASS_ATOMS, which bounds a pass's memory
_BATCH_ATOMS = 4096
_PASS_ATOMS = 4 * _BATCH_ATOMS


def _batch_rows(rng: np.random.Generator, trials: int, low: list, high: list, atoms: Callable) -> Iterator:
    """Each batch's trial parameters, one row per parameter j, uniform in
    [low[j], high[j]). A batch closes once its trials' terms hold
    ``_BATCH_ATOMS`` atoms (``atoms`` counts them from a block of
    parameters), or at the last trial. Parameters are drawn in blocks of
    as many trials as a batch can hold; what a batch leaves is carried
    over to the next."""
    most = -(-_BATCH_ATOMS // int(atoms(np.array([low]))[0]))
    pool = np.empty((0, len(low)), dtype=np.int64)
    while trials:
        want = min(trials, most)
        if pool.shape[0] < want:
            pool = np.concatenate([pool, rng.integers(low, high, size=(want - pool.shape[0], len(low)))])
        full = atoms(pool[:want]).cumsum() >= _BATCH_ATOMS
        take = int(full.argmax()) + 1 if full.any() else want
        yield pool[:take].T
        pool, trials = pool[take:], trials - take


def _shuffle(rng: np.random.Generator, sizes: np.ndarray) -> np.ndarray:
    """A uniform random order of each space's atoms, the spaces' atoms back
    to back: the argsort of uniform 51-bit keys, each offset by its
    space's index times 2^51 so that no atom leaves its space."""
    space = np.arange(sizes.shape[0]).repeat(sizes)
    return (rng.integers(0, 1 << 51, size=space.shape[0]) + (space << 51)).argsort()


def _masses(rng: np.random.Generator, sizes: np.ndarray) -> np.ndarray:
    """The masses of random spaces of the given sizes, back to back. A zeroed
    k-subset is the space's first k atoms in ``_shuffle`` order; a space
    whose weights are all zero puts its mass on its first atom."""
    ends = sizes.cumsum()
    w = rng.random(int(ends[-1]))
    zeroed = (sizes >= 3) & (rng.random(sizes.shape[0]) < 0.3)
    k = rng.integers(1, np.maximum(2, sizes // 3) + 1)
    rank = np.empty(w.shape[0], dtype=np.int64)
    rank[_shuffle(rng, sizes)] = np.arange(w.shape[0]) - (ends - sizes).repeat(sizes)
    w[(rank < k.repeat(sizes)) & zeroed.repeat(sizes)] = 0.0
    totals = _stack_sums(w, sizes)
    if (totals <= 0.0).any():
        w[(ends - sizes)[totals <= 0.0]] = 1.0
        totals = _stack_sums(w, sizes)
    return w / totals.repeat(sizes)


def _permutation_masses(rng: np.random.Generator, sizes: np.ndarray) -> tuple:
    """The masses of random spaces of the given sizes and a permutation of
    each space's atoms (its ``_shuffle`` order) that preserves them
    bit-exactly, as one index map over the spaces' atoms back to back.

    Every cycle takes the weight drawn at its smallest atom
    (``_cycle_minima``), so the atoms of a cycle share one float and
    ``masses[perm] == masses`` holds exactly, as the action constructor
    requires.
    """
    perm = _shuffle(rng, sizes)
    low = _cycle_minima(np.arange(perm.shape[0]), perm, int(sizes.max()))
    w = rng.random(perm.shape[0])[low]
    return w / _stack_sums(w, sizes).repeat(sizes), perm


def _identity_batches(rng: np.random.Generator, trials: int, max_atoms: int) -> Iterator:
    """Each batch of ``sweep_identities`` (a trial's terms being the 10
    pairs of ``_identity_entropies`` with three image maps, over its
    atoms): the sizes, masses, permutation, and the label rows of alpha,
    beta and gamma with their bounds. Every label row is uniform below its
    bound, which is uniform in 1..n per space."""
    for (sizes,) in _batch_rows(rng, trials, [2], [max_atoms + 1], lambda rows: 10 * rows[:, 0]):
        masses, perm = _permutation_masses(rng, sizes)
        bounds = rng.integers(1, sizes + 1, size=(3, sizes.shape[0]))
        yield sizes, masses, perm, rng.integers(0, bounds.repeat(sizes, axis=1)), bounds


def _identity_passes(batches: Iterator) -> Iterator:
    """Consecutive ``_identity_batches`` draw batches joined into array
    passes, in order: a pass closes once its terms hold ``_PASS_ATOMS``
    atoms, and a batch that holds that many alone is its own pass. A
    pass has the fields of a batch: the sizes, masses, label rows and
    bounds concatenated, and each batch's permutation shifted past the
    atoms of the batches before it."""
    pending, atoms = [], 0
    for batch in batches:
        terms = 10 * batch[1].shape[0]
        if pending and terms >= _PASS_ATOMS:
            yield _joined(pending)
            pending, atoms = [], 0
        pending.append(batch)
        atoms += terms
        if atoms >= _PASS_ATOMS:
            yield _joined(pending)
            pending, atoms = [], 0
    if pending:
        yield _joined(pending)


def _joined(batches: list) -> tuple:
    """One identities pass of these draw batches (see ``_identity_passes``);
    a lone batch is the pass as it is, not a copy."""
    if len(batches) == 1:
        return batches[0]
    sizes, masses, perms, labels, bounds = zip(*batches)
    starts = np.cumsum([0, *(m.shape[0] for m in masses[:-1])]).tolist()
    perm = np.concatenate([p + start for p, start in zip(perms, starts)])
    return (
        np.concatenate(sizes), np.concatenate(masses), perm,
        np.concatenate(labels, axis=1), np.concatenate(bounds, axis=1),
    )


def _disintegration_batches(rng: np.random.Generator, trials: int, max_atoms: int) -> Iterator:
    """Each batch of ``sweep_disintegration``: the sizes, masses, the label
    rows of alpha and cond, and the subsets' mask (each atom picked with
    probability 1/2)."""
    for (sizes,) in _batch_rows(rng, trials, [2], [max_atoms + 1], lambda rows: rows[:, 0]):
        masses = _masses(rng, sizes)
        bounds = rng.integers(1, sizes + 1, size=(2, sizes.shape[0]))
        alpha, cond = rng.integers(0, bounds.repeat(sizes, axis=1))
        yield sizes, masses, alpha, cond, rng.random(masses.shape[0]) < 0.5


def _exhaustion_batches(rng: np.random.Generator, trials: int, max_atoms: int) -> Iterator:
    """Each batch of ``sweep_exhaustion``: the sizes, masses, chain depths
    (uniform in 2..4), and the label rows of xi, C and the chain with
    their bounds. C's bound is 1 (no C) with probability 1/2, and so is
    a chain row's past its trial's depth."""
    for sizes, depths in _batch_rows(
        rng, trials, [2, 2], [max_atoms + 1, 5], lambda rows: rows[:, 0] * (rows[:, 1] + 1)
    ):
        masses = _masses(rng, sizes)
        bounds = rng.integers(1, sizes + 1, size=(2 + int(depths.max()), sizes.shape[0]))
        bounds[1, rng.random(sizes.shape[0]) >= 0.5] = 1
        bounds[2:][np.arange(bounds.shape[0] - 2)[:, None] >= depths] = 1
        yield sizes, masses, depths, rng.integers(0, bounds.repeat(sizes, axis=1)), bounds


# ---------------------------------------------------------------------------
# sweep reports
# ---------------------------------------------------------------------------


@dataclass
class PropertyStats:
    """Aggregated results for one named property across a sweep."""

    name: str
    tolerance: float
    checked: int = 0
    violations: int = 0
    min_slack: float = float("inf")

    def record_all(self, slacks: np.ndarray) -> None:
        """Count the slacks as checks, and those below -tolerance as
        violations, in one array pass. ``min_slack`` moves only to a slack
        strictly below it, and then to the first of the smallest slacks,
        as ``min`` over the slacks in turn would: a zero keeps its sign
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
    partition triple. A batch is drawn as raw arrays
    (``_identity_batches``): the masses, the permutation and three label
    rows. Consecutive draw batches are joined into passes of about
    ``_PASS_ATOMS`` term atoms (``_identity_passes``), so that the fixed
    cost of a pass is paid about once per four batches; the draws are
    the same, and so is the report. Each pass takes one check of its
    masses, one of its permutations, which raises ``FinitePMPAction``'s
    errors, one ``_identity_entropies`` pass, the one
    ``verify_entropy_identities`` makes for a single triple, and the same
    check arithmetic over its arrays of values. The report is the one a
    ``verify_entropy_identities`` call per trial gives. Both tolerances
    must be finite and nonnegative, ``seed`` a nonnegative integer, and
    ``max_atoms`` in 2..``MAX_ATOMS_LIMIT`` (2^17).
    """
    _require_arguments(trials, seed, max_atoms, tolerance, equality_tolerance)
    report = SweepReport(trials, seed)
    elements = _unit_elements(1)
    passes = _identity_passes(_identity_batches(np.random.default_rng(seed), trials, max_atoms))
    for sizes, masses, perm, labels, bounds in passes:
        sizes, bounds = sizes.tolist(), bounds.max(axis=1).tolist()
        _require_probabilities(masses, sizes)
        perm = _stacked_permutations(masses, perm, sizes)
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(perm.shape[0])
        # T_e gathers through the inverse, T_-e and the raw map through perm,
        # whose pair is stacked once
        values = _identity_entropies(masses, sizes, labels, bounds, [inverse, perm, perm])
        _record_slacks(report, _identity_slacks(values, elements, True, tolerance, equality_tolerance))
    return report


def _record_slacks(report: SweepReport, slacks: list) -> None:
    """Record a pass's (name, slack array over the trials, tolerance,
    detail) checks, trial by trial and in check order within a trial, as
    recording each trial's checks in turn would."""
    by_name: dict = {}
    for name, slack, tol, _ in slacks:
        by_name.setdefault(name, (tol, []))[1].append(slack)
    for name, (tol, rows) in by_name.items():
        report.stat(name, tol).record_all(np.stack(rows, axis=1).ravel())


def _stacked_permutations(masses: np.ndarray, perm: np.ndarray, sizes: list) -> np.ndarray:
    """The trials' permutations, one index map over their stacked atoms,
    after checking, for all of them at once, that each is a permutation
    of its own atoms that keeps their masses. An index outside its trial
    becomes -1, and a map of the wrong length fails the check."""
    if perm.shape == masses.shape:
        ends = np.cumsum(sizes)
        inside = (perm >= (ends - sizes).repeat(sizes)) & (perm < ends.repeat(sizes))
        perm = np.where(inside, perm, -1)
    _require_generator(masses, perm, np.arange(masses.shape[0]))
    return perm


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
    conditional mass function integrates to H(alpha | cond). A batch is
    drawn as raw arrays (``_disintegration_batches``): the masses, two
    label rows and the subsets' mask. Each batch takes one check of its
    masses and one ``_stacked_mass_functions`` join; the re-integration reads the cond
    labels and block masses of that join (``_stacked_reintegration``), and
    the direct masses are one ``_group_sums`` over the picked atoms. The
    report is the one a ``reconstruct`` and a ``conditional_mass_function``
    call per trial give. ``tolerance`` must be finite and nonnegative,
    ``seed`` a nonnegative integer, and ``max_atoms`` in
    2..``MAX_ATOMS_LIMIT`` (2^17).
    """
    _require_arguments(trials, seed, max_atoms, tolerance)
    report = SweepReport(trials, seed)
    batches = _disintegration_batches(np.random.default_rng(seed), trials, max_atoms)
    for sizes, masses, alpha, cond, pick in batches:
        count, sizes = sizes.shape[0], sizes.tolist()
        _require_probabilities(masses, sizes)
        cond, mC, counts = _stacked_betas(masses, cond, sizes)
        gaps = _stacked_mass_functions(masses, alpha, cond, mC, counts, sizes)[3]
        rebuilt = _stacked_reintegration(masses, cond, mC, counts, pick)
        trial = np.arange(count).repeat(sizes)
        direct = _group_sums(masses[pick], trial[pick], count)
        report.stat("reconstruction", tolerance).record_all(-np.abs(rebuilt - direct))
        report.stat("mass_function_integral", tolerance).record_all(-gaps)
    return report


def sweep_exhaustion(
    trials: int = 200,
    seed: int = 0,
    max_atoms: int = 10,
    tolerance: float = 1e-12,
) -> SweepReport:
    """Monotone decay of H(xi | alpha_n v C) along random refining chains.

    Chains are cumulative joins of random partitions, capped with the
    point partition so the final conditional entropy must vanish. A batch
    is drawn as raw arrays (``_exhaustion_batches``): the masses, the
    chain depths, and the label rows of xi, C (zeros without C) and the
    chain. Each batch builds every chain term as a ``_join_codes``
    mixed-radix code, the point partition being ``arange``, and takes one
    check of its masses and one ``_chain_entropies`` pass, which checks
    that every chain increases. The report is the one a
    ``verify_chain_exhaustion`` call per trial gives. ``tolerance`` must
    be finite and nonnegative, ``seed`` a nonnegative integer, and
    ``max_atoms`` in 2..``MAX_ATOMS_LIMIT`` (2^17).
    """
    _require_arguments(trials, seed, max_atoms, tolerance)
    report = SweepReport(trials, seed)
    batches = _exhaustion_batches(np.random.default_rng(seed), trials, max_atoms)
    for sizes, masses, depths, labels, bounds in batches:
        count, sizes, bounds = sizes.shape[0], sizes.tolist(), bounds.max(axis=1).tolist()
        _require_probabilities(masses, sizes)
        # term j joins rows 0..j of each trial (a trial without row j has
        # a row of zeros there); the last term joins the deepest one with
        # the points
        chain = []
        for row in zip(labels[2:], bounds[2:]):
            chain.append(_join_codes(chain[-1:] + [row]))
        chain.append(_join_codes(chain[-1:] + [(np.arange(masses.shape[0]), masses.shape[0])]))
        codes, chain_bounds = zip(*chain)
        # each trial's chain: its own joins, then the join with the points
        lengths = depths + 1
        item_row = np.array([j for depth in depths.tolist() for j in (*range(depth), len(chain) - 1)])
        values, _ = _chain_entropies(
            masses, sizes, labels[0], (labels[1], bounds[1]), np.stack(codes), max(chain_bounds),
            np.arange(count).repeat(lengths), item_row,
        )
        report.stat("chain_monotone", tolerance).record_all(_chain_min_steps(values, lengths))
        report.stat("chain_vanishes", tolerance).record_all(-np.abs(values[lengths.cumsum() - 1]))
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
    """phi(F) = H(alpha^F | C) for a given system, as a window set function.

    The function evaluates a walking copy of ``system`` (its
    ``_walking``), made once for its life, so its windows share
    one ``_kernels._Chain`` record per shift (and a finite action's
    boxes its box-join record); every value equals, by
    ``repr``, that of ``conditional_block_entropy`` called on its own.

    ``phi.mask_table(box)`` gives phi on every subset of ``box`` at once,
    in mask order (bit i picks row i of ``box``), where one batched walk
    gives them all: on a Markov shift with full-symbol cells and trivial
    C (``ShiftSystem._mask_table``). Elsewhere it returns None, and
    a caller reads phi one window at a time. Each entry equals phi on its
    window by ``repr``, and a box past the cap raises phi's
    ``EnumerationCapError``.
    """
    walking = _require_system(system)._walking()

    def phi(F: FolnerSubset) -> float:
        return conditional_block_entropy(walking, alpha, F, C, None, cap)

    def mask_table(box: FolnerSubset) -> Optional[np.ndarray]:
        return walking._mask_table(alpha, box, _as_subalgebra(C), cap)

    phi.mask_table = mask_table
    return phi
