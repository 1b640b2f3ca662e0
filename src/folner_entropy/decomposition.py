"""Ergodic decomposition checks: fixed partitions, components, and the
decomposition of the entropy rate into a weighted component average.

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

import numpy as np

from .engine import ConvergenceReport, RateTrace, _as_subalgebra, entropy_rate
from .groups import FolnerSequence
from .spaces import (
    FiniteProbabilitySpace,
    MassFunctionResult,
    Partition,
    _require_same_space,
    _stacked_mass_functions,
)
from .systems import (
    DEFAULT_PATTERN_CAP,
    FinitePMPAction,
    IncompatibleSubAlgebraError,
    MixtureSystem,
    ShiftSystem,
    _cycle_minima,
    _mixture_alphas,
    is_ergodic_model,
    mixture,
)


def fixed_partition_witness(system: FinitePMPAction, C: Partition) -> Optional[dict]:
    """First (generator, block) pair a candidate fixed partition fails on.

    Returns None when every block is invariant under every generator,
    otherwise a witness dict naming the offending generator index and
    the block that moves.
    """
    if not isinstance(C, Partition):
        raise TypeError("finite systems need a space partition")
    _require_same_space(C.space, system.space)
    labels = C.labels()
    for gi, g in enumerate(system._gens):
        # a block moves iff one of its atoms is sent out of it; the
        # first such block in canonical order has the smallest label
        moved = labels[labels[g] != labels]
        if moved.size:
            return {"generator": gi, "block": list(C.blocks[int(moved.min())])}
    return None


def is_fixed_partition(system, C) -> bool:
    """Whether every block of ``C`` is invariant as a set under the action.

    For a finite action ``C`` is a partition of its space and each
    generator must map each block onto itself. For a mixture ``C`` is a
    grouping of component indices; any valid grouping is fixed because
    each component measure is shift-invariant.
    """
    if isinstance(system, FinitePMPAction):
        return fixed_partition_witness(system, C) is None
    if isinstance(system, MixtureSystem):
        groups = tuple(tuple(int(i) for i in grp) for grp in C)
        seen = sorted(i for grp in groups for i in grp)
        if seen != list(range(len(system.components))):
            raise ValueError("grouping must partition the component indices")
        return True
    raise TypeError("unsupported system kind")


def orbit_partition(system: FinitePMPAction) -> Partition:
    """Finest fixed partition: the orbits of the generated group.

    Every atom is labelled by the smallest atom index on its orbit. For
    one generator g that is a cycle minimum (``_cycle_minima``). The
    generators commute, so sweeping them one after another reaches
    every g_1^a_1 ... g_d^a_d j, i.e. the whole orbit.
    """
    n = len(system.space)
    low = np.arange(n)
    for g in system._gens:
        low = _cycle_minima(low, g, n)
    return Partition.from_labels(system.space, low)


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


def _finite_component_ergodic(action: FinitePMPAction) -> bool:
    return int((orbit_partition(action).block_masses() > 0.0).sum()) <= 1


def ergodic_components(system) -> ErgodicComponents:
    """Compute the system's ergodic components.

    Finite actions: the orbit partition (each positive-mass orbit is an
    ergodic component by transitivity). Mixtures: one component per
    tag, certified when each component measure is itself ergodic
    (full-support product measures; irreducible aperiodic chains;
    single-orbit finite actions).
    """
    if isinstance(system, FinitePMPAction):
        return ErgodicComponents("orbit", True, partition=orbit_partition(system))
    if isinstance(system, MixtureSystem):
        certified = True
        for comp in system.components:
            if isinstance(comp, ShiftSystem):
                certified = certified and is_ergodic_model(comp)
            elif isinstance(comp, FinitePMPAction):
                certified = certified and _finite_component_ergodic(comp)
            else:
                certified = False
        return ErgodicComponents("tags", certified, groups=system.tag_grouping())
    raise TypeError("unsupported system kind")


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
    if isinstance(system, FinitePMPAction) and beta is not None:
        # the orbit partition only supplies beta's default; finite orbits certify
        certified = True
    else:
        comps = ergodic_components(system)
        certified = comps.certified
        if beta is None:
            beta = comps.partition
    spec = _as_subalgebra(C)
    lhs_trace, lhs_report = entropy_rate(system, alpha, spec, sequence, n_max, tol, cap)
    results = []
    if isinstance(system, FinitePMPAction):
        witness = fixed_partition_witness(system, beta)
        if witness is not None:
            raise ValueError(
                f"partition is not fixed: generator {witness['generator']}"
                f" moves block {tuple(witness['block'])}"
            )
        if spec.kind == "invariant_partition":
            if fixed_partition_witness(system, spec.partition) is not None:
                raise IncompatibleSubAlgebraError("conditioning partition is not fixed")
        elif spec.kind != "trivial":
            raise IncompatibleSubAlgebraError("incompatible sub-algebra")
        # a block's restricted action is finite: its rate is exactly 0.0
        for bi, mB in enumerate(beta.block_masses().tolist()):
            if mB > 0.0:
                results.append(ComponentResult(f"block:{bi}", mB, 0.0, True))
    elif isinstance(system, MixtureSystem):
        if spec.kind not in ("trivial", "symbol_factor"):
            raise IncompatibleSubAlgebraError("incompatible sub-algebra")
        groups = system.tag_grouping() if beta is None else tuple(
            tuple(int(i) for i in grp) for grp in beta
        )
        is_fixed_partition(system, groups)  # raises unless a valid grouping
        alphas = _mixture_alphas(system, alpha)
        weights = system.weights
        for grp in groups:
            wG = float(sum(float(weights[i]) for i in grp))
            if len(grp) == 1:
                i = grp[0]
                sub, sub_alpha = system.components[i], alphas[i]
            else:
                sub = mixture(
                    [system.components[i] for i in grp],
                    [float(weights[i]) / wG for i in grp],
                )
                sub_alpha = [alphas[i] for i in grp]
            _, rep = entropy_rate(sub, sub_alpha, spec, sequence, n_max, tol, cap)
            label = "component:" + ",".join(str(i) for i in grp)
            results.append(ComponentResult(label, wG, rep.estimate, rep.converged))
    else:
        raise TypeError("unsupported system kind")
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
