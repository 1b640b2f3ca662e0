"""Window geometry: boxes, translation defects, schedules, and the
subadditive-hypothesis checker on constructed set functions."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folner_entropy import (
    EnumerationCapError,
    FolnerSequence,
    FolnerSubset,
    invariance_defect,
    markov_shift,
    systems,
    translate,
    verify_subadditive_hypotheses,
)
from folner_entropy.groups import (
    EXHAUSTIVE_PAIR_LIMIT,
    SAMPLE_ELEMENT_LIMIT,
    SubadditivityReport,
    _codes,
    _kcover_draws,
    _masks,
    _pair_draws,
    basis,
)
from folner_entropy.suites import phi_cardinality, phi_neg_card_squared, window_entropy_phi
from test_engine import TABLE_CASES
from test_suites import _assert_frequency, _CountingGenerator


def test_box_and_interval():
    b = FolnerSubset.box(2, 2)
    assert sorted(b.elements) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    i = FolnerSubset.interval(-1, 2)
    assert sorted(i.elements) == [(-1,), (0,), (1,)]
    assert len(FolnerSubset.box(3, 2)) == 8


def test_basis_is_the_unit_vectors():
    assert basis(1) == ((1,),)
    assert basis(3) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_translate():
    F = FolnerSubset.box(1, 3)
    assert sorted(translate(F, (2,)).elements) == [(2,), (3,), (4,)]


def test_defect_closed_form_d1():
    # |(F+k) symdiff F| / |F| = 2 min(|k|, s) / s, and the enumerated
    # count divides out to the same rational, so equality is exact
    for s in range(1, 65):
        F = FolnerSubset.box(1, s)
        for k in (1, -1, 2, 5, s, s + 3, -(s + 1)):
            expected = 2 * min(abs(k), s) / s
            assert invariance_defect(F, (k,)) == expected


def test_defect_closed_form_d2():
    for s in (1, 2, 3, 5, 8, 16, 33, 64):
        F = FolnerSubset.box(2, s)
        for k in (1, 2, s // 2 + 1, s, s + 2):
            assert invariance_defect(F, (k, 0)) == 2 * min(abs(k), s) / s
            assert invariance_defect(F, (0, -k)) == 2 * min(abs(k), s) / s


def test_defect_identity_is_zero():
    assert invariance_defect(FolnerSubset.box(2, 4), (0, 0)) == 0.0


def test_defect_empty_set_raises():
    with pytest.raises(ValueError):
        invariance_defect(FolnerSubset([], 1), (1,))


def test_defect_vanishes_along_schedule():
    seq = FolnerSequence(1, tuple(2**i for i in range(1, 11)))
    defects = [invariance_defect(seq.subset(n), (1,)) for n in range(1, 11)]
    assert defects == sorted(defects, reverse=True)
    assert defects[-1] == 2 / 1024


def test_sequence_validation():
    with pytest.raises(ValueError):
        FolnerSequence(1, (2, 2, 3))
    with pytest.raises(ValueError):
        FolnerSequence(1, (0, 1))
    seq = FolnerSequence(2, (1, 2, 4))
    with pytest.raises(ValueError):
        seq.subset(0)
    with pytest.raises(ValueError):
        seq.subset(4)
    assert seq.subset(2) == FolnerSubset.box(2, 2)


def test_cardinality_phi_meets_all_hypotheses_with_equality():
    report = verify_subadditive_hypotheses(
        phi_cardinality, FolnerSubset.box(1, 5), exhaustive=True
    )
    assert report.ok
    # |F| is modular and translation invariant: every slack is exactly 0
    assert report.min_slack["monotonicity"] == 0.0
    assert report.min_slack["strong_subadditivity"] == 0.0
    assert report.min_slack["translation_invariance"] == 0.0
    assert report.min_slack["k_cover"] >= 0.0


def test_neg_card_squared_violates_monotonicity_with_witnesses():
    report = verify_subadditive_hypotheses(
        phi_neg_card_squared, FolnerSubset.box(1, 4), exhaustive=True, seed=3
    )
    assert not report.ok
    assert report.violation_count["monotonicity"] > 0
    witnesses = report.violations["monotonicity"]
    assert witnesses and len(witnesses) <= 20
    E, F = witnesses[0]
    assert set(E) <= set(F) and len(E) < len(F)
    # strong subadditivity holds for -|F|^2 (it is supermodular in the
    # other direction): phi(U) + phi(I) >= phi(E) + phi(F) fails only
    # through monotonicity here; translation invariance is exact
    assert report.violation_count.get("translation_invariance", 0) == 0


def test_exhaustive_guard():
    with pytest.raises(ValueError):
        verify_subadditive_hypotheses(
            phi_cardinality, FolnerSubset.box(1, 11), exhaustive=True
        )


def test_sampled_mode_deterministic():
    box = FolnerSubset.box(1, 12)
    r1 = verify_subadditive_hypotheses(phi_cardinality, box, samples=50, seed=9)
    r2 = verify_subadditive_hypotheses(phi_cardinality, box, samples=50, seed=9)
    assert r1.min_slack == r2.min_slack
    assert r1.checked == r2.checked


# -- array checks against the per-pair loop -----------------------------------
#
# The oracle below is the per-pair loop the verifier used before its checks
# became array comparisons: frozenset windows, a memo keyed by frozenset, one
# record per comparison. It lives here only, as the independent reference.
# It takes the verifier's batched draws and splits them per sample; each
# sampled k-cover is rebuilt piece by piece and its k counted from coverage.


def _oracle_record(report, name, slack, witness, tol):
    report.checked[name] = report.checked.get(name, 0) + 1
    if name not in report.min_slack or slack < report.min_slack[name]:
        report.min_slack[name] = slack
    if slack < -tol:
        report.violation_count[name] = report.violation_count.get(name, 0) + 1
        wl = report.violations[name]
        if len(wl) < 20:
            wl.append(witness)


def oracle_subadditivity_report(
    phi, box, samples=200, seed=0, exhaustive=None, tolerance=1e-9, translations=None
):
    elems = sorted(box.elements)
    n = len(elems)
    if exhaustive is None:
        exhaustive = n <= 8
    cache = {}

    def table(subset):
        if subset not in cache:
            cache[subset] = float(phi(FolnerSubset(subset, box.d)))
        return cache[subset]

    report = SubadditivityReport(
        box=box,
        exhaustive=exhaustive,
        tolerance=tolerance,
        violations={
            name: []
            for name in (
                "monotonicity",
                "strong_subadditivity",
                "translation_invariance",
                "k_cover",
            )
        },
    )
    rng = np.random.default_rng(seed)

    def subset_of_mask(mask):
        return frozenset(elems[i] for i in range(n) if mask >> i & 1)

    def witness_sets(*masks):
        return tuple(tuple(sorted(subset_of_mask(m))) for m in masks)

    def check_pair(emask, fmask):
        pe = table(subset_of_mask(emask))
        pf = table(subset_of_mask(fmask))
        if emask & ~fmask == 0:
            _oracle_record(
                report, "monotonicity", pf - pe, witness_sets(emask, fmask), tolerance
            )
        pu = table(subset_of_mask(emask | fmask))
        pi = table(subset_of_mask(emask & fmask))
        _oracle_record(
            report,
            "strong_subadditivity",
            pe + pf - pu - pi,
            witness_sets(emask, fmask),
            tolerance,
        )

    if exhaustive:
        for emask in range(1 << n):
            for fmask in range(1 << n):
                check_pair(emask, fmask)
    else:
        for emask, fmask in zip(*(ms.tolist() for ms in _pair_draws(rng, n, samples))):
            check_pair(emask, fmask)

    if translations is None:
        translations = [
            tuple(1 if j == i else 0 for j in range(box.d)) for i in range(box.d)
        ]
    elem_index = {e: i for i, e in enumerate(elems)}
    translations = list(translations)
    if not exhaustive:
        drawn = _masks(rng, n, len(translations) * samples).reshape(len(translations), samples)
    for t, s in enumerate(translations):
        shift_of = [elem_index.get(tuple(a + b for a, b in zip(e, s))) for e in elems]
        if exhaustive:
            masks = range(1 << n)
        else:
            masks = drawn[t].tolist()
        for fmask in masks:
            smask = 0
            inside = True
            m = fmask
            i = 0
            while m:
                if m & 1:
                    j = shift_of[i]
                    if j is None:
                        inside = False
                        break
                    smask |= 1 << j
                m >>= 1
                i += 1
            if not inside or fmask == 0:
                continue
            diff = abs(table(subset_of_mask(fmask)) - table(subset_of_mask(smask)))
            _oracle_record(
                report,
                "translation_invariance",
                -diff,
                witness_sets(fmask) + (tuple(s),),
                tolerance,
            )

    draws = _kcover_draws(rng, n, samples)
    for fmask, layers, pieces, assignment, strays in zip(*(a.tolist() for a in draws)):
        fbits = [i for i in range(n) if fmask >> i & 1]
        cover_masks = []
        for layer in range(layers):
            for p in range(pieces[layer]):
                pm = 0
                for b in fbits:
                    if assignment[layer][b] == p:
                        pm |= 1 << b
                pm |= strays[layer][p]
                if pm:
                    cover_masks.append(pm)
        coverage = [sum(cm >> i & 1 for cm in cover_masks) for i in fbits]
        k = min(coverage) if coverage else 0
        if k < 1:
            continue
        bound = sum(table(subset_of_mask(cm)) for cm in cover_masks) / k
        slack = bound - table(subset_of_mask(fmask))
        _oracle_record(
            report, "k_cover", slack, witness_sets(fmask) + (k, len(cover_masks)), tolerance
        )
    return report


def random_phi(box, seed, noise=3.0):
    """|F| plus seeded Gaussian noise, fixed per subset: violates every check."""
    index = {e: i for i, e in enumerate(sorted(box.elements))}
    rng = np.random.default_rng(seed)
    vals = np.array([bin(m).count("1") for m in range(1 << len(index))], dtype=float)
    vals += noise * rng.normal(size=vals.size)

    def phi(F):
        return float(vals[sum(1 << index[e] for e in F.elements)])

    return phi


def assert_same_report(report, expected):
    assert report.checked == expected.checked
    assert {k: repr(v) for k, v in report.min_slack.items()} == {
        k: repr(v) for k, v in expected.min_slack.items()
    }
    assert report.violation_count == expected.violation_count
    assert report.violations == expected.violations
    # key order and every field, signed zeros included
    assert repr(report) == repr(expected)


MARKOV = markov_shift(None, np.array([[0.9, 0.1], [0.2, 0.8]]))

ORACLE_CASES = {
    "markov-window-entropy-box8": (
        lambda box: window_entropy_phi(MARKOV), FolnerSubset.box(1, 8), {"exhaustive": True}
    ),
    "cardinality-box5": (lambda box: phi_cardinality, FolnerSubset.box(1, 5), {}),
    "neg-card-squared-box6": (
        lambda box: phi_neg_card_squared, FolnerSubset.box(1, 6), {"exhaustive": True}
    ),
    "random-d2-box3": (
        lambda box: random_phi(box, 7), FolnerSubset.box(2, 3), {"exhaustive": True}
    ),
    "random-box7-shifts": (
        lambda box: random_phi(box, 9, noise=0.3),
        FolnerSubset.box(1, 7),
        {"exhaustive": True, "translations": [(2,), [-1], (0,)]},
    ),
    "sampled-random-d2-box2": (
        lambda box: random_phi(box, 3),
        FolnerSubset.box(2, 2),
        {"exhaustive": False, "seed": 3, "samples": 50},
    ),
    "sampled-neg-card-squared-box70": (
        lambda box: phi_neg_card_squared, FolnerSubset.box(1, 70), {"seed": 5, "samples": 40}
    ),
    **{
        f"sampled-random-box12-seed{seed}": (
            lambda box, seed=seed: random_phi(box, 100 + seed, noise=0.5),
            FolnerSubset.box(1, 12),
            {"seed": seed, "samples": 300},
        )
        for seed in (0, 1, 2)
    },
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_report_equals_per_pair_oracle(case):
    make_phi, box, kwargs = ORACLE_CASES[case]
    report = verify_subadditive_hypotheses(make_phi(box), box, **kwargs)
    expected = oracle_subadditivity_report(make_phi(box), box, **kwargs)
    assert_same_report(report, expected)
    if case == "cardinality-box5":
        assert repr(report.min_slack["translation_invariance"]) == "-0.0"
    if case == "random-d2-box3":
        # the witness cap and the (E, F) mask order are both exercised
        assert all(report.violation_count[name] > 20 for name in report.violations)
    if case == "random-box7-shifts":
        # subadditivity is violated before monotonicity in pair order
        assert list(report.violation_count)[:2] == ["strong_subadditivity", "monotonicity"]


def counting(phi):
    calls = Counter()

    def counted(F):
        calls[F.elements] += 1
        return phi(F)

    return counted, calls


def test_exhaustive_limit_box10_every_pair_slack_zero():
    box = FolnerSubset.box(1, EXHAUSTIVE_PAIR_LIMIT)
    phi, calls = counting(phi_cardinality)
    # a tolerance of -0.5 flags every slack below 0.5: all 4^10 subadditivity
    # slacks are 0.0, and the monotonicity slack |F| - |E| is 0 only for E = F
    report = verify_subadditive_hypotheses(phi, box, exhaustive=True, tolerance=-0.5)
    assert report.checked["monotonicity"] == 3**10
    assert report.checked["strong_subadditivity"] == 4**10
    assert repr(report.min_slack["monotonicity"]) == "0.0"
    assert repr(report.min_slack["strong_subadditivity"]) == "0.0"
    assert report.violation_count["strong_subadditivity"] == 4**10
    assert report.violation_count["monotonicity"] == 2**10
    # witnesses: the first 20 in (E, F) mask order
    assert report.violations["strong_subadditivity"][:2] == [((), ()), ((), ((0,),))]
    assert report.violations["monotonicity"][:2] == [((), ()), (((0,),), ((0,),))]
    assert len(report.violations["strong_subadditivity"]) == 20
    assert sum(calls.values()) == 2**10 and set(calls.values()) == {1}


def _hidden(phi):
    """``phi`` without its mask table: read one window at a time."""
    return lambda F: phi(F)


@pytest.mark.parametrize("side", [1, 5, 8])
@pytest.mark.parametrize("chain", sorted(TABLE_CASES))
def test_exhaustive_report_from_the_table_equals_the_per_mask_report(chain, side):
    phi, box = window_entropy_phi(TABLE_CASES[chain]), FolnerSubset.box(1, side)
    assert phi.mask_table(box) is not None
    report = verify_subadditive_hypotheses(phi, box, exhaustive=True)
    assert repr(report) == repr(verify_subadditive_hypotheses(_hidden(phi), box, exhaustive=True))


def test_exhaustive_table_keeps_the_per_mask_cap_error():
    # 2^8 patterns on the whole box pass no cap of 200; the per-mask reads
    # raise at the first window of 8 sites
    box = FolnerSubset.box(1, 8)
    errors = []
    for phi in (window_entropy_phi(MARKOV, cap=200), _hidden(window_entropy_phi(MARKOV, cap=200))):
        with pytest.raises(EnumerationCapError) as err:
            verify_subadditive_hypotheses(phi, box, exhaustive=True)
        errors.append(repr(err.value))
    assert errors[0] == errors[1]


def test_exhaustive_table_names_the_first_non_finite_mask(monkeypatch):
    # NaN on every window holding sites 1 and 4, which on box(1, n) are
    # bits 1 and 4: mask 0b10010 comes first
    markov_mask_entropies, markov_window_entropy = systems.markov_mask_entropies, systems.markov_window_entropy

    def table(chain, sites):
        values = markov_mask_entropies(chain, sites)
        values[np.arange(len(values)) & 0b10010 == 0b10010] = np.nan
        return values

    def window(chain, sites):
        return math.nan if {1, 4} <= set(sites.tolist()) else markov_window_entropy(chain, sites)

    monkeypatch.setattr(systems, "markov_mask_entropies", table)
    monkeypatch.setattr(systems, "markov_window_entropy", window)
    box = FolnerSubset.box(1, 6)
    messages = []
    for phi in (window_entropy_phi(MARKOV), _hidden(window_entropy_phi(MARKOV))):
        with pytest.raises(ValueError, match="not finite") as err:
            verify_subadditive_hypotheses(phi, box, exhaustive=True)
        messages.append(str(err.value))
    assert messages[0] == messages[1] == "phi is not finite on window ((1,), (4,)): nan"


def test_sampled_mode_evaluates_each_window_once():
    box = FolnerSubset.box(1, 12)
    phi, calls = counting(random_phi(box, 5))
    report = verify_subadditive_hypotheses(phi, box, samples=300, seed=4)
    assert not report.ok
    assert set(calls.values()) == {1}
    assert len(calls) < 2**12


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("exhaustive", [True, False])
def test_non_finite_phi_raises(bad, exhaustive):
    def phi(F):
        return bad if len(F) == 3 else float(len(F))

    with pytest.raises(ValueError, match="not finite") as err:
        verify_subadditive_hypotheses(phi, FolnerSubset.box(1, 5), exhaustive=exhaustive)
    if exhaustive:
        # windows are evaluated in mask order: {0, 1, 2} is the first of size 3
        assert "((0,), (1,), (2,))" in str(err.value)


@pytest.mark.parametrize("samples", [0, -1])
@pytest.mark.parametrize("exhaustive", [True, False])
def test_samples_below_one_rejected(samples, exhaustive):
    # with no samples a sampled run checks nothing and reports ok
    with pytest.raises(ValueError, match="samples must be at least 1"):
        verify_subadditive_hypotheses(
            phi_neg_card_squared, FolnerSubset.box(1, 6), samples=samples, exhaustive=exhaustive
        )


@pytest.mark.parametrize("exhaustive", [True, False])
def test_samples_past_the_draw_bound_rejected(exhaustive):
    # the draws grow as samples * len(box); samples=10**9 on box(1, 8) used to
    # ask for 37 GiB in its first draw. 2^18 + 1 samples of 8 elements is the
    # smallest count past the bound, and it fails before any draw
    assert SAMPLE_ELEMENT_LIMIT == 2**21
    with pytest.raises(ValueError, match=r"samples \* len\(box\) must be at most 2097152, got 262145 \* 8"):
        verify_subadditive_hypotheses(
            phi_cardinality, FolnerSubset.box(1, 8), samples=2**18 + 1, exhaustive=exhaustive
        )


@pytest.mark.parametrize("seed", [-1, 1.5, True])
@pytest.mark.parametrize("exhaustive", [True, False])
def test_seed_that_is_not_a_nonnegative_integer_rejected(seed, exhaustive):
    # -1 used to raise numpy's "expected non-negative integer", naming no argument
    with pytest.raises(ValueError, match=f"^seed must be a nonnegative integer, got {seed}$"):
        verify_subadditive_hypotheses(phi_cardinality, FolnerSubset.box(1, 4), seed=seed, exhaustive=exhaustive)
    assert verify_subadditive_hypotheses(phi_cardinality, FolnerSubset.box(1, 4), seed=np.int64(0)).ok


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("exhaustive", [True, False])
def test_non_finite_tolerance_rejected(bad, exhaustive):
    # with a NaN tolerance every "slack < -tolerance" is False, so the
    # deliberate violator used to pass with no violations
    with pytest.raises(ValueError, match="tolerance must be a finite number"):
        verify_subadditive_hypotheses(
            phi_neg_card_squared, FolnerSubset.box(1, 4), exhaustive=exhaustive, tolerance=bad
        )
    # a negative tolerance stays allowed: it flags slacks below its size
    report = verify_subadditive_hypotheses(phi_cardinality, FolnerSubset.box(1, 4), tolerance=-0.5)
    assert report.violation_count["strong_subadditivity"] == 4**4


@pytest.mark.parametrize("n", [3, 8, 70])
def test_batched_draws_have_the_per_sample_distribution(n):
    samples = 20000 if n <= 62 else 4000  # Python-int masks are slow to unpack
    rng = np.random.default_rng(40 + n)
    masks = _masks(rng, n, samples)
    assert masks.dtype == (np.int64 if n <= 62 else object)
    in_bits = (masks[:, None] >> np.arange(n).astype(masks.dtype) & 1).astype(bool)
    _assert_frequency(in_bits, 0.5)
    assert (masks >= 0).all() and (masks < 1 << n).all()
    # pairs: F uniform, and by a fair coin E uniform within F or uniform
    E, F = _pair_draws(rng, n, samples)
    e_bits, f_bits = ((ms[:, None] >> np.arange(n).astype(ms.dtype) & 1).astype(bool) for ms in (E, F))
    _assert_frequency(f_bits, 0.5)
    _assert_frequency(e_bits & f_bits, 0.25)
    _assert_frequency(e_bits & ~f_bits, 0.125)
    _assert_frequency(((E & ~F) == 0), 0.5 + 0.5 * 0.75**n)
    # k-covers: F uniform with an empty F made a uniform singleton; 1 to 3
    # layers of 1 or 2 pieces; each element of F in a uniform piece of each
    # layer; every piece's strays a uniform subset outside F
    F, layers, pieces, assignment, strays = _kcover_draws(rng, n, samples)
    assert F.dtype == strays.dtype == masks.dtype
    assert (F != 0).all() and (F < 1 << n).all()
    if n == 3:
        for m in range(1, 8):
            _assert_frequency(F == m, 1 / 6 if m in (1, 2, 4) else 1 / 8)
    for v in (1, 2, 3):
        _assert_frequency(layers == v, 1 / 3)
    _assert_frequency(pieces == 1, 0.5)
    assert ((pieces >= 1) & (pieces <= 2)).all()
    assert ((assignment >= 0) & (assignment < pieces[:, :, None])).all()
    _assert_frequency((assignment == 0)[pieces == 2], 0.5)
    assert ((strays & F[:, None, None]) == 0).all()
    f_bits = (F[:, None] >> np.arange(n).astype(F.dtype) & 1).astype(bool)
    s_bits = (strays[..., None] >> np.arange(n).astype(F.dtype) & 1).astype(bool)
    _assert_frequency(s_bits[np.broadcast_to(~f_bits[:, None, None, :], s_bits.shape)], 0.5)


@pytest.mark.parametrize("n", [8, 12, 70])
def test_reports_make_a_few_generator_calls(monkeypatch, n):
    # per-sample draws made about nine generator calls a sample; a report's
    # draw makes at most seven, however many samples it has
    calls = {"generator": 0}
    default_rng = np.random.default_rng
    monkeypatch.setattr(
        np.random, "default_rng", lambda seed: _CountingGenerator(default_rng(seed), calls)
    )
    box = FolnerSubset.box(1, n)
    for samples in (1, 200, 3000):
        calls["generator"] = 0
        report = verify_subadditive_hypotheses(phi_cardinality, box, samples=samples, seed=2)
        assert report.checked["k_cover"] == samples
        assert 1 <= calls["generator"] <= (4 if report.exhaustive else 7)


# -- array windows against the frozenset windows --------------------------------
#
# The oracle below is the window type before windows became sorted int64 row
# arrays: a frozenset of int tuples, with translation and the invariance defect
# computed on the sets. It lives here only, as the independent reference.


class OracleSubset:
    def __init__(self, elements, d=None):
        elems = frozenset(tuple(int(c) for c in e) for e in elements)
        dims = {len(e) for e in elems}
        if len(dims) > 1:
            raise ValueError("dimension mismatch")
        if dims:
            inferred = dims.pop()
            if d is not None and d != inferred:
                raise ValueError("dimension mismatch")
            d = inferred
        elif d is None:
            raise ValueError("empty subset needs an explicit dimension")
        self.elements = elems
        self.d = d

    @classmethod
    def box(cls, d, side):
        if side < 1:
            raise ValueError("side must be positive")
        return cls(itertools.product(range(side), repeat=d), d)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(sorted(self.elements))

    def __contains__(self, g):
        return tuple(g) in self.elements

    def __eq__(self, other):
        return self.d == other.d and self.elements == other.elements

    def intersection(self, other):
        return OracleSubset(self.elements & other.elements, self.d)

    def issubset(self, other):
        return self.d == other.d and self.elements <= other.elements


def oracle_translate(F, g):
    g = tuple(int(c) for c in g)
    if len(g) != F.d:
        raise ValueError("dimension mismatch")
    return OracleSubset((tuple(a + b for a, b in zip(g, f)) for f in F.elements), F.d)


def oracle_invariance_defect(F, g):
    if len(F) == 0:
        raise ValueError("empty set")
    return len(oracle_translate(F, g).elements ^ F.elements) / len(F)


def assert_same_window(F, oracle):
    assert F.d == oracle.d
    assert len(F) == len(oracle)
    assert list(F) == list(oracle)  # sorted order, negative coordinates included
    assert F.elements == oracle.elements
    assert all(type(c) is int for e in F for c in e)
    assert all(type(c) is int for e in F.elements for c in e)
    assert F.rows.dtype == np.int64 and F.rows.shape == (len(oracle), oracle.d)
    assert F.rows.flags.c_contiguous and not F.rows.flags.writeable


BIG = 1 << 40
COORD = st.one_of(st.integers(-5, 5), st.sampled_from([-BIG, BIG, BIG - 1]))


@st.composite
def window_cases(draw):
    d = draw(st.integers(1, 3))
    point = st.tuples(*[COORD] * d)
    A = draw(st.lists(point, max_size=14))  # repeats and the empty window included
    B = draw(st.lists(st.sampled_from(A) | point if A else point, max_size=14))
    return d, A, B, draw(point), draw(point)


@settings(max_examples=300, deadline=None)
@given(window_cases())
def test_windows_equal_frozenset_oracle(case):
    d, A, B, g, probe = case
    F, G = FolnerSubset(A, d), FolnerSubset(B, d)
    OF, OG = OracleSubset(A, d), OracleSubset(B, d)
    assert_same_window(F, OF)
    assert_same_window(G, OG)
    for p in [probe, *A[:3]]:
        assert (p in F) == (p in OF)
    assert (F == G) == (OF == OG)
    again = FolnerSubset(list(reversed(A)), d)
    assert F == again and hash(F) == hash(again)
    if F == G:
        assert hash(F) == hash(G)
    assert_same_window(F.intersection(G), OF.intersection(OG))
    assert F.issubset(G) == OF.issubset(OG)
    assert G.issubset(F) == OG.issubset(OF)
    assert F.intersection(G).issubset(F)
    assert_same_window(translate(F, g), oracle_translate(OF, g))
    if len(F):
        assert invariance_defect(F, g) == oracle_invariance_defect(OF, g)
        assert invariance_defect(F, probe) == oracle_invariance_defect(OF, probe)


def test_wide_spans_are_ranked_not_packed():
    # column spans of 2^41 + 1: their product passes 2^62, so rows are ranked
    A = [(-BIG, 5), (BIG, -3), (0, BIG), (0, -BIG), (7, 7), (BIG, BIG), (-BIG, -BIG)]
    B = [(0, BIG), (7, 7), (1, 1), (-BIG, 5), (BIG, -BIG)]
    F, G = FolnerSubset(A, 2), FolnerSubset(B, 2)
    OF, OG = OracleSubset(A, 2), OracleSubset(B, 2)
    a, b = _codes(F.rows, G.rows)
    assert max(a.max(), b.max()) < len(F) + len(G)  # ranks, not packed offsets
    assert (np.diff(a) > 0).all() and (np.diff(b) > 0).all()  # order preserved
    assert_same_window(F, OF)
    assert_same_window(F.intersection(G), OF.intersection(OG))
    assert not F.issubset(G) and F.intersection(G).issubset(G)
    assert (0, BIG) in F and (1, 1) not in F and (1, 1, 1) not in F
    for g in [(1, 0), (-BIG, BIG), (2 * BIG, 0)]:
        assert_same_window(translate(F, g), oracle_translate(OF, g))
        assert invariance_defect(F, g) == oracle_invariance_defect(OF, g)
    # a narrow pair is packed: codes are offsets from the joint minimum
    narrow = FolnerSubset([(0, 3), (2, 1)], 2)
    assert _codes(narrow.rows)[0].tolist() == [2, 6]


def test_boxes_and_intervals_equal_oracle():
    for d, side in [(1, 1), (1, 9), (2, 1), (2, 5), (3, 3), (3, 4), (4, 2)]:
        assert_same_window(FolnerSubset.box(d, side), OracleSubset.box(d, side))
    assert_same_window(FolnerSubset.interval(-7, 4), OracleSubset([(t,) for t in range(-7, 4)]))
    seq = FolnerSequence(2, (1, 2, 4, 8, 16))
    defects = [invariance_defect(seq.subset(n), g) for n in range(1, 6) for g in [(1, 0), (3, -2)]]
    oracle = [
        oracle_invariance_defect(OracleSubset.box(2, s), g)
        for s in seq.sides
        for g in [(1, 0), (3, -2)]
    ]
    assert defects == oracle


def test_box_2048_rows():
    F = FolnerSubset.box(2, 2048)
    assert len(F) == 4194304
    assert F.rows.dtype == np.int64
    assert F.rows.flags.c_contiguous and not F.rows.flags.writeable
    assert F.rows[:3].tolist() == [[0, 0], [0, 1], [0, 2]]
    assert F.rows[2047:2049].tolist() == [[0, 2047], [1, 0]]
    assert F.rows[-1].tolist() == [2047, 2047]
    with pytest.raises(ValueError):
        F.rows[0, 0] = 5


def test_locate_rows_in_a_window():
    W = FolnerSubset([(-3,), (0,), (2,), (5,), (9,)], 1)
    assert W.locate(FolnerSubset([(9,), (0,), (5,)], 1)).tolist() == [1, 3, 4]
    assert W.locate(FolnerSubset([], 1)).tolist() == []
    with pytest.raises(ValueError, match="not a subset"):
        W.locate(FolnerSubset([(1,)], 1))
    with pytest.raises(ValueError, match="dimension mismatch"):
        W.locate(FolnerSubset([(0, 0)], 2))


@pytest.mark.parametrize(
    "points", [[(0.5,), (1.7,)], [(True,), (0,)], [(np.bool_(False),)], [(2.0,)], [("1",)]]
)
def test_non_integer_coordinates_raise(points):
    # FolnerSubset([(0.5,), (1.7,)]) used to truncate to {(0,), (1,)}
    with pytest.raises(TypeError, match="coordinate must be an integer"):
        FolnerSubset(points)


def test_window_validation():
    assert list(FolnerSubset([(np.int64(3),), (np.int32(-1),)])) == [(-1,), (3,)]
    with pytest.raises(ValueError, match="dimension must be positive"):
        FolnerSubset.box(0, 3)  # used to return the d = 0 window {()}
    with pytest.raises(ValueError, match="dimension must be positive"):
        FolnerSubset.box(-1, 3)
    with pytest.raises(ValueError, match="dimension must be positive"):
        FolnerSubset([()])
    with pytest.raises(ValueError, match="dimension mismatch"):
        FolnerSubset([(0,), (0, 1)])
    with pytest.raises(ValueError, match="dimension mismatch"):
        FolnerSubset([(0,)], 2)
    with pytest.raises(ValueError, match="explicit dimension"):
        FolnerSubset([])
    with pytest.raises(TypeError):
        FolnerSubset.box(2, 2.0)
    with pytest.raises(TypeError):
        FolnerSubset.box(True, 2)
    with pytest.raises(TypeError):
        FolnerSubset.interval(0, 2.5)
    with pytest.raises(TypeError):
        FolnerSequence(1, (1, 2.5))
    with pytest.raises(TypeError):
        translate(FolnerSubset.box(1, 2), (0.5,))
    with pytest.raises(ValueError, match="int64"):
        FolnerSubset([(1 << 63,)])
    top = FolnerSubset([(np.iinfo(np.int64).max - 1,)])
    assert list(translate(top, (1,))) == [(np.iinfo(np.int64).max,)]
    with pytest.raises(ValueError, match="int64"):
        translate(top, (2,))
    assert translate(FolnerSubset([], 1), (1 << 70,)) == FolnerSubset([], 1)
