"""Ergodic decomposition: components, and the decomposition of the entropy
rate into a weighted component average, by each kind's rules in ``systems``.

Finite actions decompose over a fixed partition, by default the orbits.
Each positive-mass block carries a finite action again, so its rate is
exactly 0.0 (H(alpha^F) <= log|X| while |F| grows); that exact 0.0 is
the component value, and the identity holds with both sides 0.0.
Mixtures decompose along their tag partition once each component is
certified ergodic; the tag entropy contributes nothing to the rate, so
the mixture rate is the weighted average of the component rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Optional

from .engine import ConvergenceReport, RateTrace, entropy_rate
from .groups import FolnerSequence
from .spaces import (
    FiniteProbabilitySpace,
    MassFunctionResult,
    Partition,
    _require_same_space,
    _stacked_mass_functions,
)
from .systems import DEFAULT_PATTERN_CAP, _as_subalgebra, _require_system


@dataclass(frozen=True)
class ErgodicComponents:
    """The ergodic decomposition of a system.

    ``kind`` is "orbit" (finite action; ``partition`` holds the orbit
    partition) or "tags" (mixture; ``groups`` holds singleton component
    index groups). ``certified`` records whether every component was
    positively certified ergodic, not merely constructed.
    """

    kind: str
    certified: bool
    partition: Optional[Partition] = None
    groups: Optional[tuple] = None


def ergodic_components(system) -> ErgodicComponents:
    """Compute the system's ergodic components.

    Finite actions: the orbit partition (each positive-mass orbit is an
    ergodic component by transitivity). Mixtures: one component per
    tag, certified when each component measure is itself ergodic
    (full-support product measures; irreducible aperiodic chains;
    single-orbit finite actions).
    """
    certified = _require_system(system)._certified()
    return ErgodicComponents(certified=certified, **system._components())


@dataclass(frozen=True)
class ComponentResult:
    """One ergodic component's contribution to the decomposition."""

    label: str
    weight: float
    estimate: float
    converged: bool


@dataclass
class DecompositionResult:
    """Both sides of the rate decomposition over ergodic components.

    ``lhs`` is the whole system's rate estimate, ``rhs`` the weighted
    average of component estimates, ``gap`` their absolute difference.
    """

    lhs: float
    rhs: float
    gap: float
    components: list
    lhs_trace: RateTrace
    lhs_report: ConvergenceReport
    certified: bool


def decompose_entropy(
    system,
    beta=None,
    alpha=None,
    C=None,
    sequence: FolnerSequence = None,
    n_max: Optional[int] = None,
    tol: float = 1e-3,
    cap: int = DEFAULT_PATTERN_CAP,
) -> DecompositionResult:
    """Verify h(system) = weighted sum of rates over the blocks of ``beta``.

    ``beta`` must be fixed under the action (finite: a partition whose
    blocks the generators map onto themselves; mixture: a grouping of
    component indices); it defaults to the ergodic components. The left
    side is the whole system's rate estimate; the right side averages
    the component estimates with the block masses. A finite component
    is a finite action, reported at its exact rate 0.0 without a trace;
    finite systems accept trivial or fixed-partition conditioning.
    Mixture components are traced; mixtures accept trivial or shared
    symbol-factor conditioning, passed through to every component.
    """
    certified = _require_system(system)._certified()
    spec = _as_subalgebra(C)
    lhs_trace, lhs_report = entropy_rate(system, alpha, spec, sequence, n_max, tol, cap)
    results = []
    # a row: (label, weight, the component to trace or its exact rate, its alpha)
    for label, weight, sub, sub_alpha in system._split(beta, alpha, spec):
        if isinstance(sub, float):
            results.append(ComponentResult(label, weight, sub, True))
        else:
            _, rep = entropy_rate(sub, sub_alpha, spec, sequence, n_max, tol, cap)
            results.append(ComponentResult(label, weight, rep.estimate, rep.converged))
    rhs = sum(r.weight * r.estimate for r in results)
    return DecompositionResult(
        lhs=lhs_report.estimate,
        rhs=rhs,
        gap=abs(lhs_report.estimate - rhs),
        components=results,
        lhs_trace=lhs_trace,
        lhs_report=lhs_report,
        certified=certified,
    )


def conditional_mass_function(
    space: FiniteProbabilitySpace, alpha: Partition, cond: Partition
) -> MassFunctionResult:
    """Pointwise conditional masses m(x) = mu(A_x | C_x) and the check
    that -log m integrates to the conditional entropy, both read from
    one ``_stacked_join`` of the two label arrays."""
    for p in (alpha, cond):
        _require_same_space(p.space, space)
    _, m, live, gaps = _stacked_mass_functions(
        space.masses, alpha.labels(), cond.labels(), cond.block_masses(), [cond.n_blocks], [len(space)]
    )
    ids, keep = space.atom_ids, live.tolist()
    return MassFunctionResult(
        dict(zip(compress(ids, keep), compress(m.tolist(), keep))),
        tuple(compress(ids, (~live).tolist())),
        float(gaps[0]),
    )
