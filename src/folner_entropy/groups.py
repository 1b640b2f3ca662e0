"""Z^d group elements, Folner box sequences, and set-function hypothesis checks.

Group elements are plain int tuples; only the translation action of Z^d
is shipped, but every operation goes through the tiny element helpers so
other groups can slot in later without touching callers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

GroupElement = tuple

EXHAUSTIVE_PAIR_LIMIT = 10


def identity(d: int) -> GroupElement:
    return (0,) * d


def add(g: GroupElement, h: GroupElement) -> GroupElement:
    if len(g) != len(h):
        raise ValueError("dimension mismatch")
    return tuple(a + b for a, b in zip(g, h))


def neg(g: GroupElement) -> GroupElement:
    return tuple(-a for a in g)


class FolnerSubset:
    """A finite subset of Z^d, the averaging window for entropy rates."""

    __slots__ = ("elements", "d")

    def __init__(self, elements: Iterable[Sequence[int]], d: Optional[int] = None):
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
    def box(cls, d: int, side: int) -> "FolnerSubset":
        """The box [0, side)^d."""
        if side < 1:
            raise ValueError("side must be positive")
        return cls(itertools.product(range(side), repeat=d), d)

    @classmethod
    def interval(cls, a: int, b: int) -> "FolnerSubset":
        """The d = 1 window [a, b)."""
        if b <= a:
            raise ValueError("empty interval")
        return cls([(t,) for t in range(a, b)], 1)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(sorted(self.elements))

    def __contains__(self, g) -> bool:
        return tuple(g) in self.elements

    def __eq__(self, other) -> bool:
        if not isinstance(other, FolnerSubset):
            return NotImplemented
        return self.d == other.d and self.elements == other.elements

    def __hash__(self) -> int:
        return hash((self.d, self.elements))

    def __repr__(self) -> str:
        return f"FolnerSubset(d={self.d}, size={len(self)})"

    def union(self, other: "FolnerSubset") -> "FolnerSubset":
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        return FolnerSubset(self.elements | other.elements, self.d)

    def intersection(self, other: "FolnerSubset") -> "FolnerSubset":
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        return FolnerSubset(self.elements & other.elements, self.d)

    def issubset(self, other: "FolnerSubset") -> bool:
        return self.d == other.d and self.elements <= other.elements


def translate(F: FolnerSubset, g: GroupElement) -> FolnerSubset:
    """The translated window g + F."""
    g = tuple(int(c) for c in g)
    if len(g) != F.d:
        raise ValueError("dimension mismatch")
    return FolnerSubset((add(g, f) for f in F.elements), F.d)


def invariance_defect(F: FolnerSubset, g: GroupElement) -> float:
    """Normalized boundary size |gF symmetric-difference F| / |F| in [0, 2]."""
    if len(F) == 0:
        raise ValueError("empty set")
    shifted = translate(F, g)
    return len(shifted.elements ^ F.elements) / len(F)


@dataclass(frozen=True)
class FolnerSequence:
    """A strictly increasing schedule of box side lengths in Z^d.

    Entry n (1-based) is the box [0, sides[n-1])^d; growing boxes have
    vanishing invariance defect for every fixed translation, which is
    exactly what the rate limits need.
    """

    d: int
    sides: tuple

    def __post_init__(self):
        sides = tuple(int(s) for s in self.sides)
        object.__setattr__(self, "sides", sides)
        if self.d < 1:
            raise ValueError("dimension must be positive")
        if not sides:
            raise ValueError("empty schedule")
        if sides[0] < 1 or any(b <= a for a, b in zip(sides, sides[1:])):
            raise ValueError("sides must be strictly increasing positive integers")

    def __len__(self) -> int:
        return len(self.sides)

    def side(self, n: int) -> int:
        if not 1 <= n <= len(self.sides):
            raise ValueError("schedule index out of range")
        return self.sides[n - 1]

    def subset(self, n: int) -> FolnerSubset:
        return FolnerSubset.box(self.d, self.side(n))


def folner_box(d: int, n: int, sequence: FolnerSequence) -> FolnerSubset:
    """Box number n of the schedule; d is checked against the sequence."""
    if d != sequence.d:
        raise ValueError("dimension mismatch")
    return sequence.subset(n)


# ---------------------------------------------------------------------------
# hypothesis checks for set functions on windows
# ---------------------------------------------------------------------------


@dataclass
class SubadditivityReport:
    """Outcome of the window set-function hypothesis checks.

    For each check, ``checked`` counts performed comparisons,
    ``min_slack`` holds the worst signed slack seen (negative means
    violated), and ``violations`` lists up to 20 witnesses.
    """

    box: FolnerSubset
    exhaustive: bool
    tolerance: float
    checked: dict = field(default_factory=dict)
    min_slack: dict = field(default_factory=dict)
    violations: dict = field(default_factory=dict)
    violation_count: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not any(self.violation_count.values())

    def counts(self) -> dict:
        return {name: self.violation_count.get(name, 0) for name in self.violations}


_CHECKS = ("monotonicity", "strong_subadditivity", "translation_invariance", "k_cover")
_WITNESS_CAP = 20
_PAIR_BLOCK = 1 << 12  # exhaustive pairs compared per block of E rows


def _record(report: SubadditivityReport, name: str, slacks, tol: float, witness) -> Optional[int]:
    """Record one run of slacks of check ``name``, in the order they were checked.

    ``witness(k)`` builds the witness of position k; it is called only for
    violations under the cap. Returns the first violation's position, or None.
    """
    if not len(slacks):
        return None
    report.checked[name] = report.checked.get(name, 0) + len(slacks)
    low = float(slacks[np.argmin(slacks)])  # the first minimum, so a signed zero is kept
    if name not in report.min_slack or low < report.min_slack[name]:
        report.min_slack[name] = low
    bad = np.flatnonzero(slacks < -tol)
    if not len(bad):
        return None
    report.violation_count[name] = report.violation_count.get(name, 0) + len(bad)
    wl = report.violations[name]
    wl.extend(witness(k) for k in bad[: _WITNESS_CAP - len(wl)])
    return bad[0]


def verify_subadditive_hypotheses(
    phi: Callable[[FolnerSubset], float],
    box: FolnerSubset,
    samples: int = 200,
    seed: int = 0,
    exhaustive: Optional[bool] = None,
    tolerance: float = 1e-9,
    translations: Optional[Sequence[GroupElement]] = None,
) -> SubadditivityReport:
    """Check the hypotheses that make window rates converge to an infimum.

    For the set function ``phi`` on subsets of ``box``, checks

    - monotonicity: E subset of F implies phi(E) <= phi(F),
    - strong subadditivity: phi(E|F) + phi(E&F) <= phi(E) + phi(F),
    - translation invariance: phi(F + s) = phi(F) when both fit in the box,
    - sampled k-cover bounds: phi(F) <= (1/k) sum phi(E_i) whenever the
      E_i cover every element of F at least k times.

    Subsets are bit masks over the sorted elements of ``box``, and ``phi``
    is evaluated at most once per mask. ``exhaustive`` (default: automatic
    for boxes of at most 8 elements) evaluates ``phi`` on all 2^n subsets
    and compares all 4^n ordered pairs (E, F) as arrays; otherwise pairs
    are drawn with the seeded generator. k-cover checks are always
    sampled. Witnesses are sorted element tuples, the first 20 violations
    of each check in (E, F) mask order. A non-finite value of ``phi``
    raises ``ValueError`` naming the window, and so does ``samples < 1``.
    """
    elems = sorted(box.elements)
    n = len(elems)
    if n == 0:
        raise ValueError("empty set")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if exhaustive is None:
        exhaustive = n <= 8
    if exhaustive and n > EXHAUSTIVE_PAIR_LIMIT:
        raise ValueError("box too large for exhaustive pair checks")

    report = SubadditivityReport(
        box=box,
        exhaustive=exhaustive,
        tolerance=tolerance,
        violations={name: [] for name in _CHECKS},
    )
    rng = np.random.default_rng(seed)
    cache: dict = {}

    def window(mask: int) -> tuple:
        return tuple(e for i, e in enumerate(elems) if mask >> i & 1)

    def table(mask: int) -> float:
        v = cache.get(mask)
        if v is None:
            v = cache[mask] = float(phi(FolnerSubset(window(mask), box.d)))
            if not math.isfinite(v):
                raise ValueError(f"phi is not finite on window {window(mask)}: {v}")
        return v

    def random_mask(allow_empty: bool = True) -> int:
        if n <= 62:
            mask = int(rng.integers(0, 1 << n))
        else:
            mask = 0
            for i in range(n):
                if rng.integers(0, 2):
                    mask |= 1 << i
        if not allow_empty and mask == 0:
            mask = 1 << int(rng.integers(0, n))
        return mask

    # at(masks): phi over a mask array, evaluated in row-major order. Sampled
    # masks are object arrays of Python ints: a box may have over 62 elements.
    if exhaustive:
        masks = np.arange(1 << n)
        at = np.array([table(m) for m in range(1 << n)]).__getitem__
        rows = min(1 << n, max(1, _PAIR_BLOCK >> n))  # E rows per block
        blocks = (
            (np.repeat(masks[r : r + rows], 1 << n), np.tile(masks, rows))
            for r in range(0, 1 << n, rows)
        )
    else:

        def at(ms):
            return np.array([table(m) for m in ms.ravel()], dtype=float).reshape(ms.shape)

        es, fs = [], []
        for _ in range(samples):
            fs.append(random_mask())
            es.append(random_mask() & fs[-1] if rng.integers(0, 2) else random_mask())
        blocks = [(np.array(es, dtype=object), np.array(fs, dtype=object))]

    for E, F in blocks:
        pe, pf, pu, pi = at(np.stack([E, F, E | F, E & F], axis=1)).T
        sub = np.flatnonzero(E & ~F == 0)  # E subset of F

        def pair(k):
            return window(int(E[k])), window(int(F[k]))

        first_checks, first_violations = not report.checked, not report.violation_count
        mono = _record(report, "monotonicity", pf[sub] - pe[sub], tolerance, lambda k: pair(sub[k]))
        ssa = _record(report, "strong_subadditivity", pe + pf - pu - pi, tolerance, pair)
        # report keys follow the order in which the pairs first meet each check
        if first_checks and len(sub) and sub[0] > 0:
            for d in (report.checked, report.min_slack):
                d["monotonicity"] = d.pop("monotonicity")
        if first_violations and mono is not None and ssa is not None and ssa < sub[mono]:
            report.violation_count["monotonicity"] = report.violation_count.pop("monotonicity")

    # translation invariance on nonempty windows whose shift stays in the box
    if translations is None:
        translations = [tuple(int(j == i) for j in range(box.d)) for i in range(box.d)]
    elem_index = {e: i for i, e in enumerate(elems)}
    for s in translations:
        shift_of = [elem_index.get(add(e, tuple(s))) for e in elems]
        if exhaustive:
            F = masks[1:]
        else:
            F = np.array([random_mask() for _ in range(samples)], dtype=object)
        bits = F[:, None] >> np.arange(n).astype(F.dtype) & 1
        S = bits @ np.array([0 if j is None else 1 << j for j in shift_of], dtype=F.dtype)
        outside = bits @ np.array([int(j is None) for j in shift_of], dtype=F.dtype)
        keep = np.flatnonzero((outside == 0) & (F != 0))
        pf, ps = at(np.stack([F[keep], S[keep]], axis=1)).T

        def witness(k):
            return window(int(F[keep[k]])), tuple(s)

        _record(report, "translation_invariance", -np.abs(pf - ps), tolerance, witness)

    # sampled k-covers: layered construction guarantees full coverage
    covers = []
    for _ in range(samples):
        fmask = random_mask(allow_empty=False)
        fbits = [i for i in range(n) if fmask >> i & 1]
        layers = int(rng.integers(1, 4))
        cover_masks = []
        for _layer in range(layers):
            pieces = int(rng.integers(1, 3))
            assignment = rng.integers(0, pieces, size=len(fbits))
            for p in range(pieces):
                pm = 0
                for b, a in zip(fbits, assignment):
                    if a == p:
                        pm |= 1 << b
                pm |= random_mask() & ~fmask  # stray elements outside F are harmless
                if pm:
                    cover_masks.append(pm)
        coverage = [sum(cm >> i & 1 for cm in cover_masks) for i in fbits]
        k = min(coverage) if coverage else 0
        if k < 1:
            continue
        bound = sum(table(cm) for cm in cover_masks) / k
        covers.append((bound - table(fmask), fmask, k, len(cover_masks)))
    slacks = np.array([c[0] for c in covers])
    _record(report, "k_cover", slacks, tolerance, lambda j: (window(covers[j][1]), *covers[j][2:]))

    return report
