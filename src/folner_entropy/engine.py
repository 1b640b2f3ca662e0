"""Rate traces along box schedules, and the identity and inequality verifiers.

Every row's window entropy is ``conditional_block_entropy``, defined in
``systems`` beside the per-kind routes it dispatches to. A rate trace
walks a copy of the system (its ``_walking``) whose shifts each hold one
chain record (``_kernels._Chain``), so a d = 1 Markov trace over sides
1..N costs N chain steps, not N(N+1)/2, and whose finite actions each
resume their last box join; each row equals by ``repr`` its window's
value on its own. A rate known without a trace (``_exact_rate``) is
reported in place of the running infimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .groups import FolnerSequence, FolnerSubset, basis, identity as group_identity, neg
from .spaces import (
    FiniteProbabilitySpace,
    Partition,
    _canonical,
    _coarser,
    _join_codes,
    _join_entropies,
    _offset_entropies,
    _require_same_space,
    _stacked_betas,
    _stacked_pairs,
    is_coarser,
    join,
)
from .systems import (
    DEFAULT_PATTERN_CAP,
    EnumerationCapError,
    FinitePMPAction,
    SymbolPartition,
    _require_system,
    conditional_block_entropy,
)

DEFAULT_CONVERGENCE_TOL = 1e-3


# ---------------------------------------------------------------------------
# rate traces along a box schedule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateEntry:
    """One row of a rate trace."""

    n: int
    F_size: int
    block_entropy: float
    rate: float
    running_inf: float


@dataclass
class RateTrace:
    """Per-box block entropies and rates along a schedule.

    ``truncated`` flags a schedule cut short by the enumeration cap;
    the rows already computed stay valid.
    """

    entries: list
    truncated: bool = False

    def __len__(self) -> int:
        return len(self.entries)

    def rates(self) -> list:
        return [e.rate for e in self.entries]


@dataclass(frozen=True)
class ConvergenceReport:
    """Summary of a rate trace.

    ``estimate`` is the reported rate: the final running infimum, or
    exactly 0.0 for finite systems (bounded numerator over growing
    boxes; ``method`` records which). ``converged`` requires the last
    two rates within ``tol`` of the infimum.
    """

    estimate: float
    inf_value: float
    last_gap: float
    converged: bool
    n_used: int
    truncated: bool
    method: str
    tol: float


def entropy_rate(
    system,
    alpha=None,
    C=None,
    sequence: FolnerSequence = None,
    n_max: Optional[int] = None,
    tol: float = DEFAULT_CONVERGENCE_TOL,
    cap: int = DEFAULT_PATTERN_CAP,
):
    """Rate trace H(alpha^{F_n} | C) / |F_n| along the box schedule.

    Returns ``(RateTrace, ConvergenceReport)``. The running infimum is
    the reported estimate (for finite systems the provable limit 0.0 is
    reported instead; the trace still shows the honest finite-box
    rates). A cap hit mid-schedule truncates the trace and flags it.

    The default ``alpha=None`` is a generator for every system kind: the
    zero-coordinate symbol partition of a shift, the point partition of
    a finite action, and symbol (or point) partition joined with the tag
    partition for a mixture. By the generator theorem in its conditional
    form (Kolmogorov-Sinai; Ornstein and Weiss 1987 for amenable groups),
    h(alpha, T | C) = h(T | C) when the translates of alpha generate
    the sigma-algebra modulo C, so with the default the trace converges
    to h(T | C), the supremum over all finite partitions. ``converged``
    is not a certificate that ``estimate`` lies within ``tol`` of it.

    The rows evaluate one walking copy of ``system`` (its
    ``_walking``), dropped when the call returns or raises:
    one ``_kernels._Chain`` record per shift and one box-join record per
    finite action (``systems._finite_window_join``), and none on
    ``system``. A row is one ``conditional_block_entropy`` call on the
    box F_n, and pays for its window only: the sites a resumed walk has
    still to take, or the 2^d translates a box join adds. What is fixed
    for the whole trace is made at the first row that reads it and kept:
    each gap's P^g and entropy step, and each walk's first state, on the
    chain record; a product measure's one-site entropy and a mixture's
    H(weights) on the copy (``systems._kept``); a symbol factor's
    partition and its join with the cells on the spec, which is
    immutable.
    """
    if sequence is None:
        raise ValueError("a box schedule is required")
    n_max = len(sequence) if n_max is None else n_max
    if not 1 <= n_max <= len(sequence):
        raise ValueError("schedule index out of range")
    entries = []
    best = math.inf
    truncated = False
    # each row resumes the forward walks of the row before (``_kernels._Chain``)
    walking = _require_system(system)._walking()
    for n in range(1, n_max + 1):
        F = sequence.subset(n)
        try:
            H = conditional_block_entropy(walking, alpha, F, C, None, cap)
        except EnumerationCapError:
            truncated = True
            break
        rate = H / len(F)
        best = min(best, rate)
        entries.append(RateEntry(n, len(F), H, rate, best))
    if not entries:
        raise EnumerationCapError("pattern cap exceeded")
    trace = RateTrace(entries, truncated)
    last_gap = abs(entries[-1].rate - best)
    converged = (
        len(entries) >= 2
        and last_gap < tol
        and abs(entries[-2].rate - best) < tol
    )
    exact = system._exact_rate()
    report = ConvergenceReport(
        estimate=best if exact is None else exact,
        inf_value=best,
        last_gap=last_gap,
        converged=exact is not None or converged,
        n_used=len(entries),
        truncated=truncated,
        method="running-inf" if exact is None else "bounded-numerator",
        tol=tol,
    )
    return trace, report


# ---------------------------------------------------------------------------
# identity and inequality verifiers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropertyCheck:
    """One verified identity or inequality.

    ``slack`` is rhs - lhs for an inequality and -|difference| for an
    equality, so a violation is always ``slack < -tol``.
    """

    name: str
    slack: float
    tol: float
    status: str = "ok"
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status != "violated"


def _check(name: str, slack: float, tol: float, detail: str = "") -> PropertyCheck:
    status = "violated" if slack < -tol else "ok"
    return PropertyCheck(name, float(slack), tol, status, detail)


@dataclass
class IdentityReport:
    """Checks for the conditional-entropy identities on one instance."""

    checks: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def min_slack(self, name: str) -> float:
        slacks = [c.slack for c in self.checks if c.name == name]
        if not slacks:
            raise KeyError(name)
        return min(slacks)


def _inverse_permutation(space: FiniteProbabilitySpace, perm) -> np.ndarray:
    """The inverse of atom i -> perm[i], after checking that ``perm`` is a
    permutation preserving the masses. A partition's image under ``perm``
    has its labels gathered through the inverse."""
    perm = np.array(perm, dtype=np.int64)
    ident = np.arange(len(space))
    if perm.shape != ident.shape or not (np.sort(perm) == ident).all():
        raise ValueError("not a permutation")
    if (space.masses[perm] != space.masses).any():
        raise ValueError("map does not preserve the measure")
    inverse = np.empty_like(perm)
    inverse[perm] = ident
    return inverse


def verify_entropy_identities(
    space: FiniteProbabilitySpace,
    alpha: Partition,
    beta: Partition,
    gamma: Partition,
    action: Optional[FinitePMPAction] = None,
    group_elements: Optional[Sequence] = None,
    pmp_map: Optional[Sequence[int]] = None,
    tolerance: float = 1e-9,
    equality_tolerance: float = 1e-12,
) -> IdentityReport:
    """Verify the conditional-entropy calculus on one partition triple.

    Covers: join subadditivity given a third partition, invariance
    under a measure-preserving action (when given), monotonicity in the
    conditioning partition and in the first argument, invariance under
    an explicit measure-preserving permutation (when given), the chain
    rule, and monotone convergence along the refining chain
    gamma <= gamma v beta <= gamma v beta v alpha. All conditional
    entropies come from one ``_identity_entropies`` pass, the one the
    seeded sweep makes per batch. Both tolerances must be finite and
    nonnegative. Invalid input fails in the order the checks read it:
    the partitions' spaces, then each group element, then ``pmp_map``.
    """
    _require_tolerances(tolerance, equality_tolerance)
    for p in (alpha, beta, gamma):
        _require_same_space(p.space, space)
    if action is None:
        group_elements = []
    elif group_elements is None:
        group_elements = _unit_elements(action.d)
    group_elements = list(group_elements)
    if group_elements:
        _require_same_space(action.space, space)
    # T_g(alpha) has alpha's labels gathered through T_{-g}
    images = [action.atom_map(neg(g)) for g in group_elements]
    if pmp_map is not None:
        images.append(_inverse_permutation(space, pmp_map))
    triple = (alpha, beta, gamma)
    (values,) = _identity_entropies(
        space.masses, [len(space)], [p._labels for p in triple], [p._k for p in triple], images
    ).T.tolist()
    return _identity_checks(values, group_elements, pmp_map is not None, tolerance, equality_tolerance)


def _unit_elements(d: int) -> list:
    """Every e_i and -e_i of Z^d: the default translations checked."""
    return [g for e in basis(d) for g in (e, neg(e))]


def _identity_entropies(masses, sizes, labels, bounds, images) -> np.ndarray:
    """The conditional entropies the identity checks read, one row per
    value and one column per triple, for many triples in one
    ``_stacked_pairs`` pass.

    The triples' atoms lie back to back in ``masses``, ``sizes`` giving
    each triple's atom count; ``labels`` are the stacked label arrays of
    alpha, beta and gamma, with codes below ``bounds``, and ``images``
    are index maps over the stack. The pairs are (alpha, gamma),
    (beta, gamma), (alpha v beta, gamma), (alpha, beta v gamma),
    (beta v gamma, alpha), (beta, alpha) and (alpha, alpha v beta v gamma),
    then (alpha, gamma) gathered through each image map. A pair is read
    as its join and its beta, and those are the partitions alpha, gamma,
    alpha v beta, alpha v gamma, beta v gamma and alpha v beta v gamma,
    then gamma and alpha v gamma gathered through each image map: each
    is relabelled once, however many pairs read it (the triple join
    serves five). A join is a mixed-radix code and an image a gather, so
    no partition is built. The relabelling codes are segment-major
    (``_stacked_betas``): partition by partition, triple by triple, so
    its stable sort meets keys sorted but inside each triple. An image
    map passed twice (the same array) is gathered once and its value
    repeated: a pair's value does not depend on the pairs beside it.
    """
    (a, b, c), (ka, kb, kc) = labels, bounds
    ab, k_ab = _join_codes([(a, ka), (b, kb)])
    ac = _join_codes([(a, ka), (c, kc)])[0]
    bc = _join_codes([(b, kb), (c, kc)])[0]
    abc = _join_codes([(ab, k_ab), (c, kc)])[0]
    distinct = {id(m): m for m in images}  # each image map once, in order of first use
    parts = [a, c, ab, ac, bc, abc, *(x[m] for m in distinct.values() for x in (c, ac))]
    # (join, beta) part indices: a 0, c 1, ab 2, ac 3, bc 4, abc 5, then
    # c and ac through each image map
    pairs = [(3, 1), (4, 1), (5, 1), (5, 4), (5, 0), (2, 0), (5, 5)]
    slot = {key: len(pairs) + j for j, key in enumerate(distinct)}
    pairs += [(7 + 2 * j, 6 + 2 * j) for j in range(len(distinct))]
    values = _join_entropies(*_stacked_pairs(masses, parts, sizes, pairs))
    rows = [*range(7), *(slot[id(m)] for m in images)]
    return values.reshape(len(pairs), len(sizes))[rows]


def _identity_checks(
    values: Sequence[float], group_elements: list, pmp: bool, tolerance: float, equality_tolerance: float
) -> IdentityReport:
    """The identity checks on one triple's ``_identity_entropies`` values."""
    slacks = _identity_slacks(values, group_elements, pmp, tolerance, equality_tolerance)
    return IdentityReport([_check(*slack) for slack in slacks])


def _identity_slacks(values, group_elements: list, pmp: bool, tolerance: float, equality_tolerance: float) -> list:
    """(name, slack, tolerance, detail) of every identity check, in report
    order, from the ``_identity_entropies`` values of one triple (floats)
    or of many (one array over the triples per value): the arithmetic is
    elementwise either way."""
    h_a_c, h_b_c, h_ab_c, h_a_bc, h_bc_a, h_b_a, h_a_abc, *images = values
    slacks = [("join_subadditivity", h_a_c + h_b_c - h_ab_c, tolerance, "")]
    for g, moved in zip(group_elements, images):
        slacks.append(("translation_invariance", -abs(moved - h_a_c), equality_tolerance, f"g={g}"))
    # finer conditioning cannot increase; finer first argument cannot decrease
    slacks.append(("conditioning_monotone", h_a_c - h_a_bc, tolerance, ""))
    slacks.append(("partition_monotone", h_bc_a - h_b_a, tolerance, ""))
    if pmp:
        slacks.append(("pmp_invariance", -abs(images[-1] - h_a_c), equality_tolerance, ""))
    slacks.append(("chain_rule", -abs(h_ab_c - (h_b_c + h_a_bc)), tolerance, ""))
    # refining chain gamma <= gamma v beta <= gamma v beta v alpha
    slacks.append(("refining_chain", h_a_c - h_a_bc, tolerance, ""))
    slacks.append(("refining_chain", h_a_bc - h_a_abc, tolerance, ""))
    return slacks


@dataclass
class RateInequalityReport:
    """Rate-level inequality checks plus the estimates they compare."""

    checks: list = field(default_factory=list)
    estimates: dict = field(default_factory=dict)
    converged: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def _partitions_comparable(alpha, beta):
    """Return ('coarser'|'finer'|None): how alpha sits relative to beta."""
    if isinstance(alpha, SymbolPartition) and isinstance(beta, SymbolPartition):
        if beta.refines(alpha):
            return "coarser"
        if alpha.refines(beta):
            return "finer"
        return None
    if isinstance(alpha, Partition) and isinstance(beta, Partition):
        if is_coarser(alpha, beta):
            return "coarser"
        if is_coarser(beta, alpha):
            return "finer"
    return None


def _join_partitions(alpha, beta):
    if isinstance(alpha, SymbolPartition) and isinstance(beta, SymbolPartition):
        return alpha.join(beta)
    if isinstance(alpha, Partition) and isinstance(beta, Partition):
        return join(alpha, beta)
    raise TypeError("partitions are of mixed kinds")


def verify_rate_inequalities(
    system,
    alpha,
    beta,
    C=None,
    sequence: FolnerSequence = None,
    n_max: Optional[int] = None,
    tol: float = 1e-6,
    cap: int = DEFAULT_PATTERN_CAP,
) -> RateInequalityReport:
    """Verify the rate-level inequalities for a pair of partitions.

    Checks that a rate never exceeds the one-site conditional entropy,
    subadditivity of rates under joins, monotonicity under refinement
    (when the pair is comparable), and the chain-style upper bound
    h(alpha) <= h(beta) + H(alpha | beta v C) at a single site. Rates
    are traced at ``DEFAULT_CONVERGENCE_TOL``; checks built on
    non-converged estimates report status ``inconclusive``. ``tol`` must
    be finite and nonnegative.
    """
    _require_tolerances(tol)
    report = RateInequalityReport()
    _, rep_a = entropy_rate(system, alpha, C, sequence, n_max, cap=cap)
    _, rep_b = entropy_rate(system, beta, C, sequence, n_max, cap=cap)
    ab = _join_partitions(alpha, beta)
    _, rep_ab = entropy_rate(system, ab, C, sequence, n_max, cap=cap)

    d = system.d
    site = FolnerSubset([group_identity(d)], d)
    H_a = conditional_block_entropy(system, alpha, site, C, None, cap)
    H_b = conditional_block_entropy(system, beta, site, C, None, cap)
    H_ab = conditional_block_entropy(system, ab, site, C, None, cap)
    # exact chain rule at a single site: H(alpha | beta v C)
    H_a_given_b = H_ab - H_b

    report.estimates = {
        "h_alpha": rep_a.estimate,
        "h_beta": rep_b.estimate,
        "h_join": rep_ab.estimate,
        "H_alpha": H_a,
        "H_alpha_given_beta": H_a_given_b,
    }
    report.converged = {
        "h_alpha": rep_a.converged,
        "h_beta": rep_b.converged,
        "h_join": rep_ab.converged,
    }

    def add(name, slack, *needed):
        c = _check(name, slack, tol)
        if any(not report.converged[k] for k in needed) and c.status == "violated":
            c = PropertyCheck(name, c.slack, tol, "inconclusive", "estimate not converged")
        report.checks.append(c)

    add("rate_vs_conditional", H_a - rep_a.estimate, "h_alpha")
    add(
        "join_rate_subadditive",
        rep_a.estimate + rep_b.estimate - rep_ab.estimate,
        "h_alpha",
        "h_beta",
        "h_join",
    )
    relation = _partitions_comparable(alpha, beta)
    if relation == "coarser":
        add("rate_monotone", rep_b.estimate - rep_a.estimate, "h_alpha", "h_beta")
    elif relation == "finer":
        add("rate_monotone", rep_a.estimate - rep_b.estimate, "h_alpha", "h_beta")
    add(
        "rate_chain_bound",
        rep_b.estimate + H_a_given_b - rep_a.estimate,
        "h_alpha",
        "h_beta",
    )
    return report


@dataclass
class ExhaustionReport:
    """Values of H(xi | alpha_n v C) along an increasing chain."""

    values: list
    min_step_slack: float
    first_separating: Optional[int]
    ok: bool


def _require_tolerances(*tolerances: float) -> None:
    """Each tolerance must be finite and nonnegative: a NaN one makes every
    ``slack < -tol`` false, so every check would pass."""
    for tol in tolerances:
        if not (math.isfinite(tol) and tol >= 0.0):
            raise ValueError("tolerance must be a finite number >= 0")


def verify_chain_exhaustion(
    space: FiniteProbabilitySpace,
    chain: Sequence[Partition],
    xi: Partition,
    cond: Optional[Partition] = None,
    tolerance: float = 1e-12,
) -> ExhaustionReport:
    """Verify monotone decay of H(xi | alpha_n v C) along a refining chain.

    The chain must be increasing (each term refines the previous);
    from the first index whose join with C separates all positive-mass
    atoms onward the value must vanish within ``tolerance``, which must
    be finite and nonnegative. The values and the increase check come
    from one ``_chain_entropies`` call, the one the seeded sweep makes
    per batch. Every partition must lie on the space of C (``space``
    without one); a space mismatch is raised before a chain that does
    not increase.
    """
    _require_tolerances(tolerance)
    chain = list(chain)
    if not chain:
        raise ValueError("empty chain")
    base = space if cond is None else cond.space
    for p in (*chain, xi):
        _require_same_space(p.space, base)
    n = len(base)
    c = (np.zeros(n, dtype=np.int64), 1) if cond is None else (cond._labels, cond._k)
    values, separates = _chain_entropies(
        base.masses, [n], xi._labels, c, np.stack([p._labels for p in chain]),
        max(p._k for p in chain), np.zeros(len(chain), dtype=np.int64), np.arange(len(chain)),
    )
    (min_step,) = _chain_min_steps(values, [len(chain)]).tolist()
    values = values.tolist()
    first_separating = next((i for i, s in enumerate(separates.tolist()) if s), None)
    ok = not min_step < -tolerance
    if first_separating is not None and any(abs(v) > tolerance for v in values[first_separating:]):
        ok = False
    return ExhaustionReport(values, min_step, first_separating, ok)


def _chain_entropies(masses, sizes, xi, cond, rows, bound, item_space, item_row) -> tuple:
    """H(xi | alpha v C) for every term alpha of many chains, in one
    ``_stacked_join``, after checking for all chains at once that each
    is increasing.

    The chains' spaces lie back to back in ``masses`` (``sizes`` atoms
    each), with xi's labels over them and C as (codes, bound). ``rows``
    holds code arrays below ``bound`` over all those atoms; a chain's term
    is the part of one row over its space. ``item_space`` and ``item_row``
    give every term's space and row, each chain's terms consecutive and
    in order. A term must refine the one before it up to zero-mass atoms,
    as ``is_coarser`` reads it; otherwise "chain not increasing" is raised.
    The increase check relabels item-major codes, item * bound + term,
    as ``_stacked_betas`` and ``_stacked_join`` relabel theirs: the items
    lie back to back, so each stable sort meets keys that are sorted but
    inside each item.

    Returns every term's value and whether its join with C separates the
    positive-mass atoms (no block of it holds two of them).
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    item_sizes = sizes[item_space]
    item_starts = item_sizes.cumsum() - item_sizes
    # each stacked atom's index in ``masses``
    atoms = np.arange(int(item_sizes.sum())) + (
        (sizes.cumsum() - sizes)[item_space] - item_starts
    ).repeat(item_sizes)
    terms = rows[item_row.repeat(item_sizes), atoms]
    masses = masses[atoms]
    positive = masses > 0.0
    n_items = item_space.shape[0]
    item = np.arange(n_items).repeat(item_sizes)
    # the previous term of the same chain sits one item back, over the same atoms
    follows = np.concatenate([[False], item_space[1:] == item_space[:-1]])
    at = np.flatnonzero(follows[item] & positive)
    fine, k = _canonical(_join_codes([(item[at], n_items), (terms[at], bound)])[0])[:2]
    if not _coarser(terms[at - item_sizes[item[at]]], fine, k):
        raise ValueError("chain not increasing")
    cond, k_cond = cond
    codes = _join_codes([(terms, bound), (cond[atoms], k_cond)])[0]
    beta, mB, counts = _stacked_betas(masses, codes, item_sizes.tolist())
    crowded = np.bincount(beta[positive], minlength=mB.shape[0]) > 1
    separates = np.bincount(np.arange(n_items).repeat(counts)[crowded], minlength=n_items) == 0
    return _offset_entropies(masses, xi[atoms], beta, mB, counts), separates


def _chain_min_steps(values: np.ndarray, lengths: Sequence[int]) -> np.ndarray:
    """The smallest step value[i] - value[i + 1] of every chain, the
    chains' values back to back (``lengths`` terms each); 0.0 for a chain
    of one term. It is the first smallest step, the one ``min`` picks, so
    a zero keeps its sign."""
    lengths = np.asarray(lengths, dtype=np.int64)
    n = lengths.shape[0]
    padded = np.full((n, int(lengths.max())), np.nan)
    chain = np.arange(n).repeat(lengths)
    padded[chain, np.arange(values.shape[0]) - (lengths.cumsum() - lengths)[chain]] = values
    steps = padded[:, :-1] - padded[:, 1:]
    steps[np.isnan(steps)] = np.inf
    low = steps.min(axis=1, initial=np.inf)
    first = steps[np.arange(n), (steps == low[:, None]).argmax(axis=1)] if steps.shape[1] else low
    return np.where(lengths > 1, first, 0.0)
