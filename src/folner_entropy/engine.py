"""Conditional block entropies, rate traces along box schedules, and verifiers.

Every window entropy has exactly one route, fixed by the system and the
conditioning. Finite actions use exact partition algebra. Bernoulli
shifts are closed-form at every window size from one-site cell masses,
k * H(cells) or k * (H(cells v phi) - H(phi)) under a symbol factor phi,
and so are mixtures under trivial conditioning (tagged supports are
disjoint, so H = H(weights) + sum_i w_i H_i). Three routes enumerate
under the cap and raise ``EnumerationCapError`` above it, before any
fill: full-symbol Markov windows in log space, coarse cells on Markov
windows through ``window_partition``, and a symbol factor on a Markov
shift or a mixture of shifts through ``symbol_factor_entropy`` (a single
shift is one component of weight 1). A symbol factor is read on a
finite conditioning window W containing F; for product measures only
the factor at F's own sites binds, so every such W gives the exact
value; for Markov measures it is a monotone upper approximation that
tightens as W grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from ._kernels import entropy_from_logprobs, entropy_from_probs
from .groups import FolnerSequence, FolnerSubset, identity as group_identity, neg
from .spaces import (
    FiniteProbabilitySpace,
    Partition,
    SpaceMismatchError,
    _join_rows,
    _pullback,
    conditional_entropy,
    entropy,
    join,
    same_space,
)
from .systems import (
    DEFAULT_PATTERN_CAP,
    EnumerationCapError,
    FinitePMPAction,
    IncompatibleSubAlgebraError,
    MixtureSystem,
    ShiftSystem,
    SubAlgebraSpec,
    SymbolPartition,
    _cell_masses,
    _mixture_alphas,
    act,
    resolve_cells,
    symbol_factor_entropy,
    symbol_pattern_logprobs,
    window_partition,
)

DEFAULT_CONVERGENCE_TOL = 1e-3

# wire-format property identifiers used by report serialization
IDENTITY_PROPERTY_LABELS = {
    "join_subadditivity": "prop22_1",
    "translation_invariance": "prop22_2",
    "conditioning_monotone": "prop22_3",
    "partition_monotone": "prop22_3",
    "pmp_invariance": "prop22_4",
    "chain_rule": "prop22_5",
    "refining_chain": "prop22_6",
}
RATE_PROPERTY_LABELS = {
    "rate_vs_conditional": "thm7_1",
    "join_rate_subadditive": "thm7_2",
    "rate_monotone": "thm7_3",
    "rate_chain_bound": "thm7_4",
}
SUBADDITIVITY_PROPERTY_LABELS = {
    "monotonicity": "thm52_mono",
    "strong_subadditivity": "thm52_ssa",
    "translation_invariance": "thm51_ti",
    "k_cover": "thm51_kcover",
}


def _as_subalgebra(C) -> SubAlgebraSpec:
    if C is None:
        return SubAlgebraSpec.trivial()
    if isinstance(C, SubAlgebraSpec):
        return C
    raise TypeError("conditioning must be a SubAlgebraSpec or None")


def _is_finite_system(system) -> bool:
    if isinstance(system, FinitePMPAction):
        return True
    return isinstance(system, MixtureSystem) and all(
        isinstance(c, FinitePMPAction) for c in system.components
    )


# ---------------------------------------------------------------------------
# conditional block entropy
# ---------------------------------------------------------------------------


def _finite_window_join(system: FinitePMPAction, alpha: Partition, F: FolnerSubset) -> Partition:
    if not same_space(system.space, alpha.space):
        raise SpaceMismatchError("space mismatch")
    if F.d != system.d:
        raise ValueError("dimension mismatch")
    if len(F) == 0:
        return Partition.trivial(system.space)
    # the row of g is alpha's labels pulled back through T_g: T_{-g} alpha
    labels, k = alpha.labels(), alpha.n_blocks
    return _join_rows(system.space, ((labels[system.atom_map(g)], k) for g in F.rows.tolist()))


def _finite_block_entropy(system: FinitePMPAction, alpha, F, C: SubAlgebraSpec) -> float:
    if alpha is None:
        alpha = Partition.points(system.space)
    if not isinstance(alpha, Partition):
        raise TypeError("finite systems need a space partition")
    alpha_F = _finite_window_join(system, alpha, F)
    if C.kind == "trivial":
        return entropy(alpha_F)
    if C.kind == "invariant_partition":
        if not same_space(C.partition.space, system.space):
            raise SpaceMismatchError("space mismatch")
        return conditional_entropy(alpha_F, C.partition)
    raise IncompatibleSubAlgebraError("incompatible sub-algebra")


def _resolve_window(F: FolnerSubset, conditioning_window: Optional[FolnerSubset]) -> FolnerSubset:
    if conditioning_window is None:
        return F
    if not F.issubset(conditioning_window):
        raise ValueError("conditioning window must contain the window")
    return conditioning_window


def _shift_block_entropy(
    system: ShiftSystem,
    alpha,
    F: FolnerSubset,
    C: SubAlgebraSpec,
    conditioning_window: Optional[FolnerSubset],
    cap: int,
) -> float:
    if F.d != system.d:
        raise ValueError("dimension mismatch")
    cells = resolve_cells(system, alpha)
    k = len(F)
    if C.kind == "trivial":
        if system.kind == "bernoulli":
            # product measure: patterns factor over sites exactly
            return k * entropy_from_probs(_cell_masses(system, cells))
        if cells.n_cells == system.n_symbols:
            return entropy_from_logprobs(symbol_pattern_logprobs(system, F, cap))
        return window_partition(system, F, cells, cap).entropy()
    if C.kind == "symbol_factor":
        phi = C.factor_partition(system.alphabet)
        W = _resolve_window(F, conditioning_window)
        if system.kind == "bernoulli":
            # sites are independent, so only the factor at F's own sites binds
            joint, marginal = _cell_masses(system, cells.join(phi)), _cell_masses(system, phi)
            return k * (entropy_from_probs(joint) - entropy_from_probs(marginal))
        return symbol_factor_entropy((system,), (1.0,), (cells,), F, phi, W, cap)
    raise IncompatibleSubAlgebraError("incompatible sub-algebra")


def _mixture_block_entropy(
    system: MixtureSystem,
    alpha,
    F: FolnerSubset,
    C: SubAlgebraSpec,
    conditioning_window: Optional[FolnerSubset],
    cap: int,
) -> float:
    alphas = _mixture_alphas(system, alpha)
    if C.kind == "trivial":
        # tagged supports are disjoint: H = H(weights) + sum w_i H_i exactly
        total = entropy_from_probs(system.weights)
        for comp, a, w in zip(system.components, alphas, system.weights):
            total += float(w) * conditional_block_entropy(comp, a, F, None, None, cap)
        return total
    if C.kind == "symbol_factor":
        phi = C.factor_partition(system.shared_alphabet())
        W = _resolve_window(F, conditioning_window)
        return symbol_factor_entropy(system.components, system.weights, alphas, F, phi, W, cap)
    raise IncompatibleSubAlgebraError("incompatible sub-algebra")


def conditional_block_entropy(
    system,
    alpha,
    F: FolnerSubset,
    C=None,
    conditioning_window: Optional[FolnerSubset] = None,
    cap: int = DEFAULT_PATTERN_CAP,
) -> float:
    """H(alpha^F | C) in nats: entropy of the window partition given C.

    ``alpha^F`` joins the pulled-back copies of ``alpha`` across the
    window ``F``. Finite systems evaluate it by exact partition algebra.
    Bernoulli shifts and trivially conditioned mixtures use exact
    product and tagged-split closed forms at every window size. Markov
    windows with full-symbol cells sum pattern log-measures, coarse
    cells go through ``window_partition``, and a symbol factor on a
    Markov shift or a mixture of shifts goes through
    ``symbol_factor_entropy``; these three enumerate under the cap and
    raise ``EnumerationCapError`` above it.
    ``conditioning_window`` (default F) is where a symbol factor is
    read; enlarging it never increases the result.
    """
    C = _as_subalgebra(C)
    if isinstance(system, FinitePMPAction):
        if conditioning_window is not None:
            raise ValueError("conditioning windows apply to shift systems")
        return _finite_block_entropy(system, alpha, F, C)
    if isinstance(system, ShiftSystem):
        return _shift_block_entropy(system, alpha, F, C, conditioning_window, cap)
    if isinstance(system, MixtureSystem):
        return _mixture_block_entropy(system, alpha, F, C, conditioning_window, cap)
    raise TypeError("unsupported system kind")


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

    def final_inf(self) -> float:
        return self.entries[-1].running_inf


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
    """
    if sequence is None:
        raise ValueError("a box schedule is required")
    n_max = len(sequence) if n_max is None else n_max
    if not 1 <= n_max <= len(sequence):
        raise ValueError("schedule index out of range")
    entries = []
    best = math.inf
    truncated = False
    for n in range(1, n_max + 1):
        F = sequence.subset(n)
        try:
            H = conditional_block_entropy(system, alpha, F, C, None, cap)
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
    if _is_finite_system(system):
        report = ConvergenceReport(
            estimate=0.0,
            inf_value=best,
            last_gap=last_gap,
            converged=True,
            n_used=len(entries),
            truncated=truncated,
            method="bounded-numerator",
            tol=tol,
        )
    else:
        report = ConvergenceReport(
            estimate=best,
            inf_value=best,
            last_gap=last_gap,
            converged=converged,
            n_used=len(entries),
            truncated=truncated,
            method="running-inf",
            tol=tol,
        )
    return trace, report


def h_conditional(
    system,
    C,
    partitions: Sequence,
    sequence: FolnerSequence,
    n_max: Optional[int] = None,
    tol: float = DEFAULT_CONVERGENCE_TOL,
    cap: int = DEFAULT_PATTERN_CAP,
) -> float:
    """Conditional entropy of the system: sup over the supplied partitions
    of their rate estimates. The supremum is only as good as the list;
    exhaustion semantics need an increasing chain generating everything."""
    partitions = list(partitions)
    if not partitions:
        raise ValueError("empty partition list")
    best = -math.inf
    for p in partitions:
        _, report = entropy_rate(system, p, C, sequence, n_max, tol, cap)
        best = max(best, report.estimate)
    return best


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


def _permute_partition(space: FiniteProbabilitySpace, perm, part: Partition) -> Partition:
    """Image of ``part`` under atom i -> perm[i]: labels pulled back through the inverse."""
    perm = np.array(perm, dtype=np.int64)
    ident = np.arange(len(space))
    if perm.shape != ident.shape or not (np.sort(perm) == ident).all():
        raise ValueError("not a permutation")
    if (space.masses[perm] != space.masses).any():
        raise ValueError("map does not preserve the measure")
    inverse = np.empty_like(perm)
    inverse[perm] = ident
    return _pullback(part, inverse)


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
    gamma <= gamma v beta <= gamma v beta v alpha.
    """
    for p in (alpha, beta, gamma):
        if not same_space(p.space, space):
            raise SpaceMismatchError("space mismatch")
    report = IdentityReport()
    h_a_c = conditional_entropy(alpha, gamma)
    h_b_c = conditional_entropy(beta, gamma)
    ab = join(alpha, beta)
    bc = join(beta, gamma)
    abc = join(ab, gamma)
    h_ab_c = conditional_entropy(ab, gamma)

    report.checks.append(
        _check("join_subadditivity", h_a_c + h_b_c - h_ab_c, tolerance)
    )

    if action is not None:
        if group_elements is None:
            gens = []
            for i in range(action.d):
                e = [0] * action.d
                e[i] = 1
                gens.append(tuple(e))
                gens.append(neg(tuple(e)))
            group_elements = gens
        for g in group_elements:
            moved = conditional_entropy(act(action, g, alpha), act(action, g, gamma))
            report.checks.append(
                _check(
                    "translation_invariance",
                    -abs(moved - h_a_c),
                    equality_tolerance,
                    detail=f"g={g}",
                )
            )

    # finer conditioning cannot increase; finer first argument cannot decrease
    h_a_bc = conditional_entropy(alpha, bc)
    report.checks.append(_check("conditioning_monotone", h_a_c - h_a_bc, tolerance))
    report.checks.append(
        _check(
            "partition_monotone",
            conditional_entropy(bc, alpha) - conditional_entropy(beta, alpha),
            tolerance,
        )
    )

    if pmp_map is not None:
        fa = _permute_partition(space, pmp_map, alpha)
        fc = _permute_partition(space, pmp_map, gamma)
        report.checks.append(
            _check(
                "pmp_invariance",
                -abs(conditional_entropy(fa, fc) - h_a_c),
                equality_tolerance,
            )
        )

    report.checks.append(
        _check("chain_rule", -abs(h_ab_c - (h_b_c + h_a_bc)), tolerance)
    )

    # refining chain gamma <= gamma v beta <= gamma v beta v alpha
    chain_vals = [h_a_c, h_a_bc, conditional_entropy(alpha, abc)]
    for prev, cur in zip(chain_vals, chain_vals[1:]):
        report.checks.append(_check("refining_chain", prev - cur, tolerance))
    return report


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
        from .spaces import is_coarser

        if is_coarser(alpha, beta):
            return "coarser"
        if is_coarser(beta, alpha):
            return "finer"
    return None


def _join_partitions(system, alpha, beta):
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
    rate_tol: float = DEFAULT_CONVERGENCE_TOL,
    cap: int = DEFAULT_PATTERN_CAP,
) -> RateInequalityReport:
    """Verify the rate-level inequalities for a pair of partitions.

    Checks that a rate never exceeds the one-site conditional entropy,
    subadditivity of rates under joins, monotonicity under refinement
    (when the pair is comparable), and the chain-style upper bound
    h(alpha) <= h(beta) + H(alpha | beta v C) at a single site. Checks
    built on non-converged estimates report status ``inconclusive``.
    """
    report = RateInequalityReport()
    _, rep_a = entropy_rate(system, alpha, C, sequence, n_max, rate_tol, cap)
    _, rep_b = entropy_rate(system, beta, C, sequence, n_max, rate_tol, cap)
    ab = _join_partitions(system, alpha, beta)
    _, rep_ab = entropy_rate(system, ab, C, sequence, n_max, rate_tol, cap)

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


def _separates(part: Partition) -> bool:
    """True iff no block holds two positive-mass atoms."""
    positive = part.labels()[part.space.masses > 0.0]
    return bool(np.bincount(positive).max() <= 1)


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
    atoms onward the value must vanish within ``tolerance``.
    """
    chain = list(chain)
    if not chain:
        raise ValueError("empty chain")
    from .spaces import is_coarser

    for prev, cur in zip(chain, chain[1:]):
        if not is_coarser(prev, cur):
            raise ValueError("chain not increasing")
    base = Partition.trivial(space) if cond is None else cond
    values = []
    first_separating = None
    ok = True
    for i, part in enumerate(chain):
        joined = join(part, base)
        values.append(conditional_entropy(xi, joined))
        if first_separating is None and _separates(joined):
            first_separating = i
        if first_separating is not None and abs(values[-1]) > tolerance:
            ok = False
    steps = [prev - cur for prev, cur in zip(values, values[1:])]
    min_step = min(steps) if steps else 0.0
    if min_step < -tolerance:
        ok = False
    return ExhaustionReport(values, min_step, first_separating, ok)
