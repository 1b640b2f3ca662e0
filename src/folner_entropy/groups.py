"""Z^d group elements, Folner windows and box sequences, and set-function hypothesis checks.

A window (``FolnerSubset``) is one read-only, C-contiguous ``(k, d)``
int64 array ``rows``: its points, unique and in lexicographic order,
which is the order of sorted tuples, negative coordinates included.
Boxes and intervals are filled in that order directly. Set operations
compare packed int64 row codes (``_codes``). The tuple forms, the
``elements`` frozenset and iteration in sorted order, are derived on
demand and hold Python ints. Group elements are integer sequences;
only the translation action of Z^d is shipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

GroupElement = tuple

EXHAUSTIVE_PAIR_LIMIT = 10
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

    __slots__ = ("rows", "d", "_elements")

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

    def _set(self, rows: np.ndarray, d: int) -> None:
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        rows.flags.writeable = False
        self.rows = rows
        self.d = d
        self._elements = None

    @classmethod
    def _from_rows(cls, rows: np.ndarray, d: int) -> "FolnerSubset":
        """A window from rows already unique and in lexicographic order."""
        F = object.__new__(cls)
        F._set(rows, d)
        return F

    @classmethod
    def box(cls, d: int, side: int) -> "FolnerSubset":
        """The box [0, side)^d, filled in lexicographic order."""
        d, side = _dimension(d), _integer(side, "side")
        if side < 1:
            raise ValueError("side must be positive")
        grid = np.empty((side,) * d + (d,), dtype=np.int64)
        axis = np.arange(side, dtype=np.int64)
        for j in range(d):
            grid[..., j] = axis.reshape((side,) + (1,) * (d - 1 - j))
        return cls._from_rows(grid.reshape(-1, d), d)

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
        return self.rows.shape[0]

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

    def union(self, other: "FolnerSubset") -> "FolnerSubset":
        self._same_d(other)
        both = np.concatenate([self.rows, other.rows])
        first = np.unique(np.concatenate(_codes(self.rows, other.rows)), return_index=True)[1]
        return FolnerSubset._from_rows(both[first], self.d)

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

    Subsets are bit masks over the rows of ``box``, and ``phi``
    is evaluated at most once per mask. ``exhaustive`` (default: automatic
    for boxes of at most 8 elements) evaluates ``phi`` on all 2^n subsets
    and compares all 4^n ordered pairs (E, F) as arrays; otherwise pairs
    are drawn with the seeded generator. k-cover checks are always
    sampled. Witnesses are sorted element tuples, the first 20 violations
    of each check in (E, F) mask order. A non-finite value of ``phi``
    raises ``ValueError`` naming the window, and so does ``samples < 1``.
    """
    points, n = box.rows, len(box)
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
    pow2 = np.array([1 << i for i in range(n)], dtype=object)

    def bits(masks: np.ndarray) -> np.ndarray:
        """The 0/1 bit matrix of a mask array, one row per mask."""
        return masks[:, None] >> np.arange(n).astype(masks.dtype) & 1

    def rows_of(mask) -> np.ndarray:
        """The rows of ``box`` picked by the set bits of ``mask``."""
        raw = np.frombuffer(int(mask).to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
        return points[np.unpackbits(raw, count=n, bitorder="little").view(bool)]

    def window(mask) -> tuple:
        return tuple(map(tuple, rows_of(mask).tolist()))

    def table(mask: int) -> float:
        v = cache.get(mask)
        if v is None:
            v = cache[mask] = float(phi(FolnerSubset._from_rows(rows_of(mask), box.d)))
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
        per_block = min(1 << n, max(1, _PAIR_BLOCK >> n))  # E rows per block
        blocks = (
            (np.repeat(masks[r : r + per_block], 1 << n), np.tile(masks, per_block))
            for r in range(0, 1 << n, per_block)
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
        translations = basis(box.d)
    for s in translations:
        to, inside = _locate(translate(box, s).rows, points)
        if exhaustive:
            F = masks[1:]
        else:
            F = np.array([random_mask() for _ in range(samples)], dtype=object)
        B = bits(F)
        S = B @ np.where(inside, pow2[to], 0).astype(F.dtype)
        outside = B @ (~inside).astype(F.dtype)
        keep = np.flatnonzero((outside == 0) & (F != 0))
        pf, ps = at(np.stack([F[keep], S[keep]], axis=1)).T

        def witness(k):
            return window(int(F[keep[k]])), tuple(s)

        _record(report, "translation_invariance", -np.abs(pf - ps), tolerance, witness)

    # sampled k-covers: each layer splits F into pieces, so it covers F once;
    # stray elements outside F are harmless. All draws come first, in the
    # order of the per-sample construction; the piece masks and the coverage
    # counts are then built from bit arrays.
    fmasks, layer_sample, layer_pieces, assignments, strays = [], [], [], [], []
    for s in range(samples):
        fmask = random_mask(allow_empty=False)
        fmasks.append(fmask)
        for _layer in range(int(rng.integers(1, 4))):
            pieces = int(rng.integers(1, 3))
            layer_sample.append(s)
            layer_pieces.append(pieces)
            assignments.append(rng.integers(0, pieces, size=fmask.bit_count()))
            strays += [random_mask() & ~fmask for _ in range(pieces)]
    first = np.cumsum([0] + layer_pieces)  # first piece of each layer
    in_F = bits(np.array(fmasks, dtype=object)).astype(bool)
    layer, col = np.nonzero(in_F[layer_sample])  # F's bits, layer by layer
    piece_bits = np.zeros((first[-1], n), dtype=np.int64)
    piece_bits[first[layer] + np.concatenate(assignments), col] = 1
    cover = (piece_bits @ pow2 | np.array(strays, dtype=object)).tolist()
    # the pieces of sample s are cover[starts[s] : starts[s + 1]]
    starts = first[np.searchsorted(layer_sample, np.arange(samples + 1))]
    coverage = np.add.reduceat(piece_bits, starts[:-1], axis=0)
    ks = np.where(in_F, coverage, _INT64.max).min(axis=1).tolist()
    covers = []
    for s, fmask in enumerate(fmasks):
        if ks[s] < 1:
            continue
        cover_masks = [cm for cm in cover[starts[s] : starts[s + 1]] if cm]
        bound = sum(table(cm) for cm in cover_masks) / ks[s]
        covers.append((bound - table(fmask), fmask, ks[s], len(cover_masks)))
    slacks = np.array([c[0] for c in covers])
    _record(report, "k_cover", slacks, tolerance, lambda j: (window(covers[j][1]), *covers[j][2:]))

    return report
