"""Block entropies, rate traces, and the identity/inequality verifiers.

Every closed-form route is pinned against an independent computation:
product blocks against k * H(site), Markov blocks against the
stationary chain formula H(pi) + (n-1) H(P | pi) assembled by hand
here, mixtures against H(weights) + sum w_i H_i.
"""

import itertools
import math

import numpy as np
import pytest

from folner_entropy import (
    DEFAULT_PATTERN_CAP,
    EnumerationCapError,
    FinitePMPAction,
    FiniteProbabilitySpace,
    FolnerSequence,
    FolnerSubset,
    Partition,
    SpaceMismatchError,
    SubAlgebraSpec,
    SymbolPartition,
    bernoulli_shift,
    conditional_block_entropy,
    cylinder_measure,
    entropy_rate,
    h_conditional,
    markov_shift,
    mixture,
    verify_chain_exhaustion,
    verify_entropy_identities,
    verify_rate_inequalities,
    window_partition,
)
from folner_entropy.engine import (
    IDENTITY_PROPERTY_LABELS,
    RATE_PROPERTY_LABELS,
    SUBADDITIVITY_PROPERTY_LABELS,
)

LOG2 = math.log(2.0)
PI = np.array([2 / 3, 1 / 3])
P = np.array([[0.9, 0.1], [0.2, 0.8]])


def markov_block_oracle(pi, P, n):
    h_pi = float(-(pi * np.log(pi)).sum())
    h_step = float(-(pi[:, None] * P * np.log(P)).sum())
    return h_pi + (n - 1) * h_step


# -- block entropies: enumeration vs closed forms -------------------------------


def test_bernoulli_block_dual_route():
    b = bernoulli_shift([0.5, 0.5])
    for k in range(1, 7):
        H = conditional_block_entropy(b, None, FolnerSubset.interval(0, k))
        assert H == pytest.approx(k * LOG2, abs=1e-12)
    b2 = bernoulli_shift([0.5, 0.5], d=2)
    H = conditional_block_entropy(b2, None, FolnerSubset.box(2, 3))
    assert H == pytest.approx(9 * LOG2, abs=1e-12)


def test_bernoulli_block_over_cap_stays_exact():
    # above the cap the product factorization takes over, no loss
    b = bernoulli_shift([0.3, 0.7])
    F = FolnerSubset.interval(0, 6)
    enum = conditional_block_entropy(b, None, F)
    closed = conditional_block_entropy(b, None, F, cap=2**4)
    assert closed == pytest.approx(enum, abs=1e-12)


def test_markov_block_matches_closed_form():
    mk = markov_shift(PI, P)
    for n in range(1, 13):
        H = conditional_block_entropy(mk, None, FolnerSubset.interval(0, n))
        assert H == pytest.approx(markov_block_oracle(PI, P, n), abs=1e-12)


def test_markov_block_over_cap_raises():
    mk = markov_shift(PI, P)
    with pytest.raises(EnumerationCapError):
        conditional_block_entropy(mk, None, FolnerSubset.interval(0, 8), cap=2**7)


def test_mixture_block_dual_route():
    b1 = bernoulli_shift([0.5, 0.5])
    b2 = bernoulli_shift([0.9, 0.1])
    mx = mixture([b1, b2], [0.3, 0.7])
    F = FolnerSubset.interval(0, 5)
    w = np.array([0.3, 0.7])
    h_sites = [LOG2, float(-(np.array([0.9, 0.1]) * np.log([0.9, 0.1])).sum())]
    closed = float(-(w * np.log(w)).sum()) + 5 * (0.3 * h_sites[0] + 0.7 * h_sites[1])
    enum = conditional_block_entropy(mx, None, F)
    assert enum == pytest.approx(closed, abs=1e-12)
    # the tagged-sum fallback above the cap lands on the same number
    assert conditional_block_entropy(mx, None, F, cap=2**4) == pytest.approx(
        closed, abs=1e-12
    )


def _shannon(masses):
    q = np.array([v for v in masses if v > 0.0])
    return float(-(q * np.log(q)).sum())


def _factor_oracle(system, cells, factor_map, F, W):
    """H(alpha^F | phi^W) from the cylinder measure of every symbol word on W."""
    elems = sorted(W.elements)
    at_F = [elems.index(e) for e in sorted(F.elements)]
    joint, marginal = {}, {}
    for word in itertools.product(system.alphabet, repeat=len(elems)):
        mass = cylinder_measure(system, W, dict(zip(elems, word)))
        fkey = tuple(factor_map[s] for s in word)
        akey = tuple(cells.cell_index(word[j]) for j in at_F)
        joint[akey, fkey] = joint.get((akey, fkey), 0.0) + mass
        marginal[fkey] = marginal.get(fkey, 0.0) + mass
    return _shannon(joint.values()) - _shannon(marginal.values())


def _bernoulli_full_cells():
    b = bernoulli_shift([0.3, 0.7], d=2)
    F = FolnerSubset.box(2, 3)
    return conditional_block_entropy(b, None, F), window_partition(b, F).entropy()


def _bernoulli_coarse_cells():
    b = bernoulli_shift([0.5, 0.2, 0.3])
    cells = SymbolPartition(b.alphabet, [[0], [1, 2]])
    F = FolnerSubset.interval(0, 6)
    return conditional_block_entropy(b, cells, F), window_partition(b, F, cells).entropy()


def _bernoulli_factor(cell_blocks):
    def case():
        b = bernoulli_shift([0.4, 0.1, 0.2, 0.3])
        cells = SymbolPartition(b.alphabet, cell_blocks)
        factor_map = {0: 0, 1: 0, 2: 1, 3: 1}
        F = FolnerSubset([(0,), (2,)], 1)
        W = FolnerSubset.interval(-1, 4)
        closed = conditional_block_entropy(
            b, cells, F, SubAlgebraSpec.symbol_factor(factor_map), conditioning_window=W
        )
        return closed, _factor_oracle(b, cells, factor_map, F, W)

    return case


def _shift_mixture():
    mx = mixture([bernoulli_shift([0.3, 0.7]), markov_shift(PI, P)], [0.4, 0.6])
    F = FolnerSubset.interval(0, 6)
    return conditional_block_entropy(mx, None, F), window_partition(mx, F).entropy()


def _finite_mixture():
    s1 = FiniteProbabilitySpace(range(5), [0.1, 0.3, 0.2, 0.2, 0.2])
    rot = FinitePMPAction(FiniteProbabilitySpace(range(5), [0.2] * 5), [(1, 2, 3, 4, 0)])
    cycle = FinitePMPAction(s1, [(0, 1, 3, 4, 2)])
    mx = mixture([rot, cycle], [0.35, 0.65])
    alphas = [
        Partition(rot.space, [[0, 1], [2, 3, 4]]),
        Partition(s1, [[0, 3], [1, 2, 4]]),
    ]
    union = mx.as_finite_action()
    # each union block lies inside one tag, so the tag is part of alpha^F
    union_alpha = Partition(
        union.space, [[(i, a) for a in block] for i, p in enumerate(alphas) for block in p.blocks]
    )
    F = FolnerSubset.interval(0, 3)
    return (
        conditional_block_entropy(mx, alphas, F),
        conditional_block_entropy(union, union_alpha, F),
    )


@pytest.mark.parametrize(
    "case",
    [
        pytest.param(_bernoulli_full_cells, id="bernoulli-full"),
        pytest.param(_bernoulli_coarse_cells, id="bernoulli-coarse"),
        pytest.param(_bernoulli_factor([[0], [1], [2], [3]]), id="bernoulli-factor-full"),
        pytest.param(_bernoulli_factor([[0, 1, 2], [3]]), id="bernoulli-factor-coarse"),
        pytest.param(_shift_mixture, id="shift-mixture"),
        pytest.param(_finite_mixture, id="finite-mixture"),
    ],
)
def test_closed_forms_match_independent_oracles(case):
    closed, oracle = case()
    assert closed == pytest.approx(oracle, abs=1e-12)


# -- symbol-factor conditioning --------------------------------------------------


def test_factor_conditioning_identity_and_trivial():
    mk = markov_shift(PI, P)
    F = FolnerSubset.interval(0, 4)
    full = SubAlgebraSpec.symbol_factor({0: 0, 1: 1})
    assert conditional_block_entropy(mk, None, F, full) == pytest.approx(0.0, abs=1e-12)
    lumped = SubAlgebraSpec.symbol_factor({0: 0, 1: 0})
    assert conditional_block_entropy(mk, None, F, lumped) == pytest.approx(
        conditional_block_entropy(mk, None, F), abs=1e-12
    )


def test_factor_conditioning_bernoulli_closed_form():
    b = bernoulli_shift([0.5, 0.25, 0.25])
    F = FolnerSubset.interval(0, 3)
    phi = SubAlgebraSpec.symbol_factor({0: 0, 1: 0, 2: 1})
    # per-site chain rule: H(site | cell) = H(site) - H(cell), cells (.75,.25)
    h_cell = float(-(np.array([0.75, 0.25]) * np.log([0.75, 0.25])).sum())
    h_site = float(
        -(np.array([0.5, 0.25, 0.25]) * np.log([0.5, 0.25, 0.25])).sum()
    )
    expect = 3 * (h_site - h_cell)
    assert conditional_block_entropy(b, None, F, phi) == pytest.approx(expect, abs=1e-12)
    # above the cap the sitewise factorization agrees
    assert conditional_block_entropy(b, None, F, phi, cap=2**3) == pytest.approx(
        expect, abs=1e-12
    )


def test_factor_conditioning_window_monotone():
    mk = markov_shift(PI, P)
    F = FolnerSubset.interval(0, 3)
    phi = SubAlgebraSpec.symbol_factor({0: 0, 1: 0})
    # the lumped factor is trivial, so use a genuine 3-symbol lumping instead
    P3 = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.3, 0.3, 0.4]])
    mk3 = markov_shift(None, P3)
    phi3 = SubAlgebraSpec.symbol_factor({0: 0, 1: 1, 2: 1})
    base = conditional_block_entropy(mk3, None, F, phi3)
    wider = conditional_block_entropy(
        mk3, None, F, phi3, conditioning_window=FolnerSubset.interval(-1, 4)
    )
    assert wider <= base + 1e-12
    with pytest.raises(ValueError):
        conditional_block_entropy(
            mk3, None, F, phi3, conditioning_window=FolnerSubset.interval(1, 2)
        )


def test_finite_system_rejects_window():
    space = FiniteProbabilitySpace(range(2), [0.5, 0.5])
    action = FinitePMPAction(space, [(1, 0)])
    with pytest.raises(ValueError):
        conditional_block_entropy(
            action,
            Partition.points(space),
            FolnerSubset.interval(0, 1),
            None,
            FolnerSubset.interval(0, 2),
        )


# -- rate traces -----------------------------------------------------------------


def test_rate_trace_bernoulli_flat():
    b = bernoulli_shift([0.5, 0.5])
    seq = FolnerSequence(1, (1, 2, 3, 4))
    trace, report = entropy_rate(b, sequence=seq)
    assert [e.F_size for e in trace.entries] == [1, 2, 3, 4]
    for e in trace.entries:
        assert e.rate == pytest.approx(LOG2, abs=1e-12)
        assert e.running_inf <= e.rate
    assert report.estimate == min(trace.rates())
    assert report.converged
    assert report.method == "running-inf"
    assert not report.truncated


def test_rate_estimate_is_exact_running_inf():
    mk = markov_shift(PI, P)
    seq = FolnerSequence(1, tuple(range(1, 11)))
    trace, report = entropy_rate(mk, sequence=seq)
    rates = trace.rates()
    assert report.estimate == min(rates)
    assert rates == sorted(rates, reverse=True)  # chain rates decrease
    assert report.n_used == 10


def test_rate_finite_system_bounded_numerator():
    space = FiniteProbabilitySpace(range(4), [0.25] * 4)
    action = FinitePMPAction(space, [(1, 2, 3, 0)])
    seq = FolnerSequence(1, (1, 2, 4, 8))
    trace, report = entropy_rate(action, Partition.points(space), sequence=seq)
    assert report.estimate == 0.0
    assert report.method == "bounded-numerator"
    assert report.converged
    # the honest trace stays positive: numerator is capped at log 4
    assert trace.entries[-1].block_entropy <= math.log(4) + 1e-12
    assert trace.entries[-1].rate > 0.0


def test_rate_truncated_mid_schedule():
    mk = markov_shift(PI, P)
    seq = FolnerSequence(1, (2, 4, 16))
    trace, report = entropy_rate(mk, sequence=seq, cap=2**8)
    assert report.truncated and trace.truncated
    assert report.n_used == 2
    with pytest.raises(EnumerationCapError):
        entropy_rate(mk, sequence=FolnerSequence(1, (16, 32)), cap=2**8)


def test_rate_convergence_flag():
    mk = markov_shift(PI, P)
    seq = FolnerSequence(1, (1, 2))
    _, report = entropy_rate(mk, sequence=seq, tol=1e-6)
    assert not report.converged  # rate still falling at n = 2
    _, report = entropy_rate(mk, sequence=FolnerSequence(1, tuple(range(1, 13))), tol=1e-1)
    assert report.converged


def test_h_conditional_max_over_partitions():
    b = bernoulli_shift([0.5, 0.25, 0.25])
    seq = FolnerSequence(1, (1, 2, 3))
    coarse = SymbolPartition(b.alphabet, [[0], [1, 2]])
    full = SymbolPartition.full(b.alphabet)
    got = h_conditional(b, None, [coarse, full], seq)
    assert got == pytest.approx(
        float(-(np.array([0.5, 0.25, 0.25]) * np.log([0.5, 0.25, 0.25])).sum()),
        abs=1e-12,
    )
    with pytest.raises(ValueError):
        h_conditional(b, None, [], seq)


# -- identity verifier -----------------------------------------------------------


def _identity_instance():
    space = FiniteProbabilitySpace(range(4), [0.4, 0.3, 0.2, 0.1])
    alpha = Partition(space, [[0, 1], [2, 3]])
    beta = Partition(space, [[0, 2], [1, 3]])
    gamma = Partition(space, [[0, 3], [1, 2]])
    return space, alpha, beta, gamma


def test_verify_identities_all_ok():
    space, alpha, beta, gamma = _identity_instance()
    report = verify_entropy_identities(space, alpha, beta, gamma)
    assert report.ok
    names = [c.name for c in report.checks]
    assert names.count("refining_chain") == 2
    for required in (
        "join_subadditivity",
        "conditioning_monotone",
        "partition_monotone",
        "chain_rule",
    ):
        assert required in names
    assert all(abs(c.slack) < 1e-9 or c.slack > 0 for c in report.checks)


def test_verify_identities_with_action_and_pmp():
    space = FiniteProbabilitySpace(range(4), [0.25] * 4)
    action = FinitePMPAction(space, [(1, 2, 3, 0)])
    alpha = Partition(space, [[0, 1], [2, 3]])
    beta = Partition(space, [[0, 2], [1, 3]])
    gamma = Partition(space, [[0], [1], [2], [3]])
    report = verify_entropy_identities(
        space, alpha, beta, gamma, action=action, pmp_map=[3, 2, 1, 0]
    )
    assert report.ok
    names = [c.name for c in report.checks]
    assert names.count("translation_invariance") == 2  # +e and -e
    assert "pmp_invariance" in names
    assert report.min_slack("translation_invariance") >= -1e-12


def test_verify_identities_rejects_bad_pmp():
    space, alpha, beta, gamma = _identity_instance()
    with pytest.raises(ValueError):
        verify_entropy_identities(space, alpha, beta, gamma, pmp_map=[1, 0, 2, 3])
    other = FiniteProbabilitySpace(range(4), [0.25] * 4)
    with pytest.raises(SpaceMismatchError):
        verify_entropy_identities(
            space, alpha, beta, Partition.trivial(other)
        )


# -- rate inequality verifier ------------------------------------------------------


def test_verify_rate_inequalities_ok():
    b = bernoulli_shift([0.5, 0.25, 0.25])
    alpha = SymbolPartition.full(b.alphabet)
    beta = SymbolPartition(b.alphabet, [[0], [1, 2]])
    report = verify_rate_inequalities(
        b, alpha, beta, sequence=FolnerSequence(1, (1, 2, 3))
    )
    assert report.ok
    names = [c.name for c in report.checks]
    assert names == [
        "rate_vs_conditional",
        "join_rate_subadditive",
        "rate_monotone",
        "rate_chain_bound",
    ]
    assert report.estimates["h_alpha"] == pytest.approx(1.0397207708399179, abs=1e-12)
    assert report.estimates["h_beta"] == pytest.approx(LOG2, abs=1e-12)
    assert all(report.converged.values())


def test_verify_rate_inequalities_inconclusive_downgrade():
    # a negative tolerance forces every check into the violated branch;
    # non-converged estimates must then downgrade to inconclusive
    mk = markov_shift(PI, P)
    alpha = SymbolPartition.full(mk.alphabet)
    beta = SymbolPartition.trivial(mk.alphabet)
    short = verify_rate_inequalities(
        mk, alpha, beta, sequence=FolnerSequence(1, (1, 2)), tol=-1.0
    )
    assert not short.converged["h_alpha"]  # rate still falling at n = 2
    assert short.converged["h_beta"]  # trivial partition: constant zero rates
    statuses = {c.name: c.status for c in short.checks}
    assert statuses["rate_vs_conditional"] == "inconclusive"
    assert not short.ok or all(c.status != "violated" for c in short.checks)
    # converged estimates keep the violation visible
    b = bernoulli_shift([0.5, 0.5])
    a2 = SymbolPartition.full(b.alphabet)
    b2 = SymbolPartition.trivial(b.alphabet)
    hard = verify_rate_inequalities(
        b, a2, b2, sequence=FolnerSequence(1, (1, 2, 3)), tol=-1.0
    )
    assert any(c.status == "violated" for c in hard.checks)
    assert not hard.ok


# -- exhaustion --------------------------------------------------------------------


def test_chain_exhaustion_basic():
    space = FiniteProbabilitySpace(range(4), [0.4, 0.3, 0.2, 0.1])
    xi = Partition.points(space)
    chain = [
        Partition(space, [[0, 1], [2, 3]]),
        Partition(space, [[0], [1], [2, 3]]),
        Partition.points(space),
    ]
    result = verify_chain_exhaustion(space, chain, xi)
    assert result.ok
    assert result.first_separating == 2
    assert result.values[-1] == pytest.approx(0.0, abs=1e-12)
    assert result.values == sorted(result.values, reverse=True)
    assert result.min_step_slack >= -1e-12


def test_chain_exhaustion_with_conditioning():
    space = FiniteProbabilitySpace(range(4), [0.4, 0.3, 0.2, 0.1])
    xi = Partition.points(space)
    cond = Partition(space, [[0, 2], [1, 3]])
    chain = [Partition(space, [[0, 1], [2, 3]])]
    result = verify_chain_exhaustion(space, chain, xi, cond=cond)
    # the join of the two 2-block partitions already separates the atoms
    assert result.first_separating == 0
    assert result.values[0] == pytest.approx(0.0, abs=1e-12)
    assert result.ok


def test_chain_exhaustion_zero_mass_atoms_ignored():
    space = FiniteProbabilitySpace(range(4), [0.5, 0.5, 0.0, 0.0])
    xi = Partition.points(space)
    chain = [Partition(space, [[0, 2], [1, 3]])]
    result = verify_chain_exhaustion(space, chain, xi)
    assert result.first_separating == 0
    assert result.ok


def test_chain_exhaustion_rejects_non_increasing():
    space = FiniteProbabilitySpace(range(4), [0.4, 0.3, 0.2, 0.1])
    fine = Partition.points(space)
    coarse = Partition(space, [[0, 1], [2, 3]])
    with pytest.raises(ValueError, match="chain not increasing"):
        verify_chain_exhaustion(space, [fine, coarse], fine)
    with pytest.raises(ValueError, match="empty chain"):
        verify_chain_exhaustion(space, [], fine)


# -- wire labels -------------------------------------------------------------------


def test_property_label_tables():
    assert IDENTITY_PROPERTY_LABELS == {
        "join_subadditivity": "prop22_1",
        "translation_invariance": "prop22_2",
        "conditioning_monotone": "prop22_3",
        "partition_monotone": "prop22_3",
        "pmp_invariance": "prop22_4",
        "chain_rule": "prop22_5",
        "refining_chain": "prop22_6",
    }
    assert RATE_PROPERTY_LABELS == {
        "rate_vs_conditional": "thm7_1",
        "join_rate_subadditive": "thm7_2",
        "rate_monotone": "thm7_3",
        "rate_chain_bound": "thm7_4",
    }
    assert SUBADDITIVITY_PROPERTY_LABELS == {
        "monotonicity": "thm52_mono",
        "strong_subadditivity": "thm52_ssa",
        "translation_invariance": "thm51_ti",
        "k_cover": "thm51_kcover",
    }
