"""Z^d group elements, Folner windows and box sequences, and set-function hypothesis checks.

A window (``FolnerSubset``) is one read-only, C-contiguous ``(k, d)``
int64 array ``rows``: its points, unique and in lexicographic order,
which is the order of sorted tuples, negative coordinates included.
Intervals are filled in that order directly, and boxes the same way
when their rows are first read. Set operations
compare packed int64 row codes (``_codes``). The tuple forms, the
``elements`` frozenset and iteration in sorted order, are derived on
demand and hold Python ints. Group elements are integer sequences;
only the translation action of Z^d is shipped.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

GroupElement = tuple

EXHAUSTIVE_PAIR_LIMIT = 10
SAMPLE_ELEMENT_LIMIT = 1 << 21  # samples * len(box) bound: the draws take ~100 bytes per element
_INT64 = np.iinfo(np.int64)
_CODE_LIMIT = 1 << 62  # packed row codes stay below this; wider spans are ranked


def identity(d: int) -> GroupElement:
    return (0,) * d


def neg(g: GroupElement) -> GroupElement:
    return tuple(-a for a in g)


def basis(d: int) -> tuple:
    """The unit vectors of Z^d, the generators of its translations."""
    return tuple(tuple(int(j == i) for j in range(d)) for i in range(d))


def _integer(x, what: str = "coordinate") -> int:
    """``x`` as a Python int; bools and non-integers raise TypeError."""
    if isinstance(x, (bool, np.bool_)) or not isinstance(x, (int, np.integer)):
        raise TypeError(f"{what} must be an integer, got {x!r}")
    return int(x)


def _require_seed(seed) -> None:
    """A generator seed must be a nonnegative integer; numpy's own error for
    a negative one names no argument."""
    if isinstance(seed, (bool, np.bool_)) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")


def _dimension(d) -> int:
    d = _integer(d, "dimension")
    if d < 1:
        raise ValueError("dimension must be positive")
    return d


def _codes(*blocks: np.ndarray) -> list:
    """Order-preserving int64 codes of the rows of each block, on one scale.

    Rows are packed relative to the joint column minimum, first column
    most significant, so the codes of a window ascend with its rows.
    When the product of the column spans would pass 2^62 the rows are
    ranked among the distinct rows of all blocks instead.
    """
    filled = [r for r in blocks if len(r)]
    if not filled:
        return [np.zeros(0, dtype=np.int64) for _ in blocks]
    lo = np.min([r.min(axis=0) for r in filled], axis=0).tolist()
    hi = np.max([r.max(axis=0) for r in filled], axis=0).tolist()
    spans = [h - l + 1 for l, h in zip(lo, hi)]
    if math.prod(spans) > _CODE_LIMIT:
        ranks = np.unique(np.concatenate(blocks), axis=0, return_inverse=True)[1].reshape(-1)
        return np.split(ranks, np.cumsum([len(r) for r in blocks[:-1]]))
    out = []
    for r in blocks:
        codes = r[:, 0] - lo[0]
        for j in range(1, r.shape[1]):
            codes *= spans[j]
            codes += r[:, j] - lo[j]
        out.append(codes)
    return out


def _locate(rows: np.ndarray, within: np.ndarray) -> tuple:
    """(positions, found): where each row of ``rows`` sits among the rows of ``within``."""
    keys, codes = _codes(rows, within)
    if not len(codes):
        return np.zeros(len(keys), dtype=np.int64), np.zeros(len(keys), dtype=bool)
    pos = np.minimum(np.searchsorted(codes, keys), len(codes) - 1)
    return pos, codes[pos] == keys


class FolnerSubset:
    """A finite subset of Z^d, the averaging window for entropy rates.

    ``rows`` holds the points as a read-only, C-contiguous ``(k, d)``
    int64 array, unique and in lexicographic order. The constructor
    takes any iterable of integer sequences (repeats are dropped);
    bools and non-integral coordinates raise ``TypeError``.
    """

    __slots__ = ("_rows", "d", "_elements", "_side")

    def __init__(self, elements: Iterable[Sequence[int]], d: Optional[int] = None):
        points = [tuple(_integer(c) for c in e) for e in elements]
        dims = {len(p) for p in points}
        if len(dims) > 1:
            raise ValueError("dimension mismatch")
        if dims:
            inferred = dims.pop()
            if d is not None and d != inferred:
                raise ValueError("dimension mismatch")
            d = inferred
        elif d is None:
            raise ValueError("empty subset needs an explicit dimension")
        d = _dimension(d)
        try:
            rows = np.array(points, dtype=np.int64).reshape(len(points), d)
        except OverflowError:
            raise ValueError("coordinates must fit in int64") from None
        if len(rows) > 1:
            rows = rows[np.lexsort(rows.T[::-1])]
            fresh = np.ones(len(rows), dtype=bool)
            np.any(rows[1:] != rows[:-1], axis=1, out=fresh[1:])
            rows = rows[fresh]
        self._set(rows, d)

    def _set(self, rows: Optional[np.ndarray], d: int, side: Optional[int] = None) -> None:
        if rows is not None:
            rows = np.ascontiguousarray(rows, dtype=np.int64)
            rows.flags.writeable = False
        self._rows, self.d, self._elements, self._side = rows, d, None, side

    @classmethod
    def _from_rows(cls, rows: np.ndarray, d: int) -> "FolnerSubset":
        """A window from rows already unique and in lexicographic order."""
        F = object.__new__(cls)
        F._set(rows, d)
        return F

    @classmethod
    def box(cls, d: int, side: int) -> "FolnerSubset":
        """The box [0, side)^d. It records its side (``_side``, None on
        every other window), so a box is told apart in O(1), and fills
        its rows, in lexicographic order, only when they are first read:
        its size is side^d without them, and must be at most
        ``sys.maxsize``, the largest ``len``."""
        d, side = _dimension(d), _integer(side, "side")
        if side < 1:
            raise ValueError("side must be positive")
        if side > sys.maxsize or side ** min(d, 64) > sys.maxsize:
            raise ValueError(f"box side^d must be at most {sys.maxsize}, got {side}^{d}")
        F = object.__new__(cls)
        F._set(None, d, side)
        return F

    @property
    def rows(self) -> np.ndarray:
        """The points, one row each (see the class docstring)."""
        if self._rows is None:
            side, d = self._side, self.d
            grid = axis = np.arange(side, dtype=np.int64)
            if d > 1:  # a d = 1 box's rows are its axis
                grid = np.empty((side,) * d + (d,), dtype=np.int64)
                for j in range(d):
                    grid[..., j] = axis.reshape((side,) + (1,) * (d - 1 - j))
            self._set(grid.reshape(-1, d), d, side)
        return self._rows

    @classmethod
    def interval(cls, a: int, b: int) -> "FolnerSubset":
        """The d = 1 window [a, b)."""
        a, b = _integer(a, "endpoint"), _integer(b, "endpoint")
        if b <= a:
            raise ValueError("empty interval")
        return cls._from_rows(np.arange(a, b, dtype=np.int64).reshape(-1, 1), 1)

    @property
    def elements(self) -> frozenset:
        """The points as a frozenset of int tuples, built on first use."""
        if self._elements is None:
            self._elements = frozenset(self)
        return self._elements

    def __len__(self) -> int:
        return self.rows.shape[0] if self._side is None else self._side**self.d

    def __iter__(self):
        return map(tuple, self.rows.tolist())

    def __contains__(self, g) -> bool:
        try:
            point = FolnerSubset([g], self.d)
        except ValueError:  # another dimension, or outside int64
            return False
        return point.issubset(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FolnerSubset):
            return NotImplemented
        return self.d == other.d and np.array_equal(self.rows, other.rows)

    def __hash__(self) -> int:
        return hash((self.d, self.rows.tobytes()))

    def __repr__(self) -> str:
        return f"FolnerSubset(d={self.d}, size={len(self)})"

    def _same_d(self, other: "FolnerSubset") -> None:
        if self.d != other.d:
            raise ValueError("dimension mismatch")

    def intersection(self, other: "FolnerSubset") -> "FolnerSubset":
        self._same_d(other)
        return FolnerSubset._from_rows(self.rows[_locate(self.rows, other.rows)[1]], self.d)

    def issubset(self, other: "FolnerSubset") -> bool:
        return self.d == other.d and bool(_locate(self.rows, other.rows)[1].all())

    def locate(self, sub: "FolnerSubset") -> np.ndarray:
        """Row index in this window of every row of ``sub``, which must be a subset."""
        self._same_d(sub)
        pos, found = _locate(sub.rows, self.rows)
        if not found.all():
            raise ValueError("not a subset of the window")
        return pos


def translate(F: FolnerSubset, g: GroupElement) -> FolnerSubset:
    """The translated window g + F."""
    g = [_integer(c) for c in g]
    if len(g) != F.d:
        raise ValueError("dimension mismatch")
    if not len(F):
        return F
    lo, hi = F.rows.min(axis=0).tolist(), F.rows.max(axis=0).tolist()
    if any(a + s < _INT64.min or b + s > _INT64.max for a, b, s in zip(lo, hi, g)):
        raise ValueError("coordinates must fit in int64")
    # a translation keeps the rows unique and in lexicographic order
    return FolnerSubset._from_rows(F.rows + np.array(g, dtype=np.int64), F.d)


def invariance_defect(F: FolnerSubset, g: GroupElement) -> float:
    """Normalized boundary size |gF symmetric-difference F| / |F| in [0, 2]."""
    if len(F) == 0:
        raise ValueError("empty set")
    shared = int(np.count_nonzero(_locate(translate(F, g).rows, F.rows)[1]))
    return 2 * (len(F) - shared) / len(F)


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
        _dimension(self.d)
        sides = tuple(_integer(s, "side") for s in self.sides)
        object.__setattr__(self, "sides", sides)
        if not sides:
            raise ValueError("empty schedule")
        if sides[0] < 1 or any(b <= a for a, b in zip(sides, sides[1:])):
            raise ValueError("sides must be strictly increasing positive integers")
        # every box must have a size: a rate trace would otherwise raise
        # only at its first oversized row, after computing the rows before
        FolnerSubset.box(self.d, sides[-1])

    def __len__(self) -> int:
        return len(self.sides)

    def side(self, n: int) -> int:
        if not 1 <= n <= len(self.sides):
            raise ValueError("schedule index out of range")
        return self.sides[n - 1]

    def subset(self, n: int) -> FolnerSubset:
        return FolnerSubset.box(self.d, self.side(n))


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


def _pack(bits: np.ndarray) -> np.ndarray:
    """The bit masks of 0/1 arrays along the last axis, bit i for entry i:
    int64 up to 62 bits, Python ints in an object array beyond."""
    n = bits.shape[-1]
    if n <= 62:
        return bits.astype(np.int64) @ (1 << np.arange(n, dtype=np.int64))
    raw = np.packbits(bits.astype(np.uint8), axis=-1, bitorder="little")
    ints = [int.from_bytes(row, "little") for row in raw.reshape(-1, raw.shape[-1]).tolist()]
    return np.array(ints, dtype=object).reshape(raw.shape[:-1])


def _masks(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """``count`` uniform subsets of n elements as bit masks (``_pack``'s
    dtype), in one generator call."""
    if n <= 62:
        return rng.integers(0, 1 << n, size=count)
    return _pack(rng.integers(0, 2, size=(count, n), dtype=np.uint8))


def _pair_draws(rng: np.random.Generator, n: int, samples: int) -> tuple:
    """The sampled pairs (E, F): F uniform and, by a fair coin, E uniform
    within F or uniform."""
    F, R = _masks(rng, n, 2 * samples).reshape(2, samples)
    within = rng.integers(0, 2, size=samples) == 1
    return np.where(within, R & F, R), F


def _kcover_draws(rng: np.random.Generator, n: int, samples: int) -> tuple:
    """The sampled k-covers as (F, layers, pieces, assignment, strays).

    Per sample: F uniform, or a uniform singleton where that is empty,
    and 1 to 3 layers of 1 or 2 pieces each, all uniform. In layer l,
    ``assignment[s, l]`` puts each element in a piece, uniform, and
    ``strays[s, l, p]`` is a uniform subset outside F that piece p also
    takes. Entries past a sample's layers or a layer's pieces are drawn
    and unused.
    """
    F = _masks(rng, n, samples)
    single, layers, *pieces = rng.integers([0, 1, 1, 1, 1], [n, 4, 3, 3, 3], size=(samples, 5)).T
    F = np.where(F == 0, _pack(np.eye(n, dtype=np.uint8))[single], F)
    pieces = np.stack(pieces, axis=1)
    assignment = rng.integers(0, pieces[:, :, None], size=(samples, 3, n))
    strays = _masks(rng, n, 6 * samples).reshape(samples, 3, 2) & ~F[:, None, None]
    return F, layers, pieces, assignment, strays


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

    Subsets are bit masks over the rows of ``box``, bit i for row i.
    ``exhaustive`` (default: automatic for boxes of at most 8 elements)
    reads ``phi`` on all 2^n subsets and compares all 4^n ordered pairs
    (E, F) as arrays; otherwise pairs and translated windows are drawn
    with the seeded generator. ``phi`` is read at most once per mask. An
    exhaustive report takes all 2^n values from one call of
    ``phi.mask_table(box)`` where that returns an array in mask order
    (``window_entropy_phi`` offers one on its Markov closed-form route),
    and otherwise calls ``phi`` once per mask, in mask order; both give
    the same report. k-cover checks are always sampled: a k-cover is k
    layers, each splitting F into pieces that may also take elements
    outside F. The draws of a report take a few array calls of the
    generator however many samples it has (``_pair_draws``, ``_masks``,
    ``_kcover_draws``), so a seed selects other samples than it did in
    versions that drew each sample with its own calls; a sample's
    distribution is unchanged.

    Witnesses are sorted element tuples, the first 20 violations of each
    check in (E, F) mask order, or in sample order. A non-finite value of
    ``phi`` raises ``ValueError`` naming the window (in exhaustive mode
    the first in mask order), and so do ``samples < 1``, ``samples *
    len(box)`` above ``SAMPLE_ELEMENT_LIMIT`` (2^21, about 200 MiB of
    draws), both before any draw, a non-finite ``tolerance`` (a NaN one
    would pass every check) and a ``seed`` that is not a nonnegative
    integer. A negative tolerance flags slacks below its absolute value.
    """
    points, n = box.rows, len(box)
    if n == 0:
        raise ValueError("empty set")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if samples > SAMPLE_ELEMENT_LIMIT // n:
        raise ValueError(f"samples * len(box) must be at most {SAMPLE_ELEMENT_LIMIT}, got {samples} * {n}")
    if not math.isfinite(tolerance):
        raise ValueError("tolerance must be a finite number")
    _require_seed(seed)
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
    pow2 = _pack(np.eye(n, dtype=np.uint8))

    def bits(masks: np.ndarray) -> np.ndarray:
        """The 0/1 bit matrix of a mask array, one row per mask."""
        return masks[:, None] >> np.arange(n).astype(masks.dtype) & 1

    def rows_of(mask) -> np.ndarray:
        """The rows of ``box`` picked by the set bits of ``mask``."""
        raw = np.frombuffer(int(mask).to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
        return points[np.unpackbits(raw, count=n, bitorder="little").view(bool)]

    def window(mask) -> tuple:
        return tuple(map(tuple, rows_of(mask).tolist()))

    def finite(mask, v: float) -> float:
        if not math.isfinite(v):
            raise ValueError(f"phi is not finite on window {window(mask)}: {v}")
        return v

    def read(mask: int, picked: Optional[np.ndarray] = None) -> float:
        """phi on the window of ``mask``, whose bits ``picked`` may give."""
        v = cache.get(mask)
        if v is None:
            rows = rows_of(mask) if picked is None else points[picked]
            v = cache[mask] = finite(mask, float(phi(FolnerSubset._from_rows(rows, box.d))))
        return v

    # at(masks): phi over a mask array, evaluated in row-major order
    if exhaustive:
        masks = np.arange(1 << n)
        mask_table = getattr(phi, "mask_table", None)
        values = None if mask_table is None else mask_table(box)
        if values is None:
            picked = bits(masks) == 1
            values = np.array([read(m, picked[m]) for m in range(1 << n)])
        elif not np.isfinite(values).all():
            m = int(np.flatnonzero(~np.isfinite(values))[0])
            finite(m, float(values[m]))
        at = values.__getitem__
        per_block = min(1 << n, max(1, _PAIR_BLOCK >> n))  # E rows per block
        # E down a column against every F along a row: table rows broadcast
        blocks = ((masks[r : r + per_block, None], masks) for r in range(0, 1 << n, per_block))
    else:

        def at(ms):
            return np.array([read(m) for m in ms.ravel().tolist()], dtype=float).reshape(ms.shape)

        blocks = [_pair_draws(rng, n, samples)]

    for E, F in blocks:
        if exhaustive:
            pe, pf, pu, pi = at(E), at(F), at(E | F), at(E & F)
        else:
            pe, pf, pu, pi = at(np.stack([E, F, E | F, E & F], axis=1)).T
        inside = E & ~F == 0  # E subset of F, one entry per pair in row-major order
        sub = np.flatnonzero(inside)

        def pair(k):
            return tuple(window(np.broadcast_to(x, inside.shape).flat[k]) for x in (E, F))

        first_checks, first_violations = not report.checked, not report.violation_count
        mono = _record(report, "monotonicity", (pf - pe).ravel()[sub], tolerance, lambda k: pair(sub[k]))
        ssa = _record(report, "strong_subadditivity", (pe + pf - pu - pi).ravel(), tolerance, pair)
        # report keys follow the order in which the pairs first meet each check
        if first_checks and len(sub) and sub[0] > 0:
            for d in (report.checked, report.min_slack):
                d["monotonicity"] = d.pop("monotonicity")
        if first_violations and mono is not None and ssa is not None and ssa < sub[mono]:
            report.violation_count["monotonicity"] = report.violation_count.pop("monotonicity")

    # translation invariance on nonempty windows whose shift stays in the box
    translations = basis(box.d) if translations is None else list(translations)
    if not exhaustive:
        drawn = _masks(rng, n, len(translations) * samples).reshape(len(translations), samples)
    for t, s in enumerate(translations):
        to, inside = _locate(translate(box, s).rows, points)
        F = masks[1:] if exhaustive else drawn[t]
        B = bits(F)
        S = B @ np.where(inside, pow2[to], 0).astype(F.dtype)
        outside = B @ (~inside).astype(F.dtype)
        keep = np.flatnonzero((outside == 0) & (F != 0))
        pf, ps = at(np.stack([F[keep], S[keep]], axis=1)).T

        def witness(k):
            return window(F[keep[k]]), tuple(s)

        _record(report, "translation_invariance", -np.abs(pf - ps), tolerance, witness)

    # sampled k-covers: each layer splits F, so it covers F once and a cover
    # of k layers is a k-cover; stray elements outside F are harmless
    F, layers, pieces, assignment, strays = _kcover_draws(rng, n, samples)
    used = (np.arange(3) < layers[:, None])[:, :, None] & (np.arange(2) < pieces[:, :, None])
    split = (assignment[:, :, None, :] == np.arange(2)[:, None]) & (bits(F) == 1)[:, None, None, :]
    cover = np.where(used, _pack(split) | strays, 0).reshape(samples, 6)
    # each sample's nonempty pieces in (layer, piece) order, then F itself
    windows = np.concatenate([cover, F[:, None]], axis=1)
    live = windows != 0
    values = np.zeros(windows.shape)
    values[live] = at(windows[live])
    bound = np.zeros(samples)
    for j in range(6):  # left to right from 0.0, as a sum over the nonempty pieces
        bound += values[:, j]
    k, count = layers.tolist(), live[:, :6].sum(axis=1).tolist()
    _record(
        report, "k_cover", bound / layers - values[:, 6], tolerance, lambda j: (window(F[j]), k[j], count[j])
    )

    return report
