"""Finite probability spaces, measurable partitions, and exact entropy algebra.

Everything here is exact: spaces are ordered finite atom lists with
float64 masses, and a partition is one canonical label array over the
atoms. Joins, pullbacks and block masses are array operations on those
labels; block tuples are derived only where a caller asks for them.
A list of blocks becomes labels through one check (``_block_labels``),
which ``systems.SymbolPartition`` shares for cells of an alphabet, and
hashable keys are numbered by first occurrence in one place
(``_first_codes``).
Every subset mass, block masses included, is one numpy sum over an
ascending index array, so the same subset always gets the same float.
Fiber quantities (conditional entropy, disintegration, traces on a
block) are read from label arrays grouped by block: the traces of
alpha on the blocks of beta are the blocks of their join, and every
per-group sum equals to the bit the plain 1-D numpy sum over that
group. The rule for those sums: fewer than 8 values, one
``np.bincount`` over the group ids (numpy sums so few values left to
right from 0.0, and bincount adds each group in input order);
otherwise numpy's pairwise order, by ``_segment_sums`` over the
group's members (``_group_sums``). A partition's block masses
(``Partition.block_masses``) are read from the sort that made the
labels canonical (``_canonical``), so a finite entropy sorts its atoms
once; the stacked relabellings of the sweeps sum their block masses
by ``_group_sums`` over their labels, and the sweeps' per-space mass
totals by the same rule over the space index (``_stack_sums``).
``_stacked_join`` runs those steps once over many pairs of label
arrays stacked back to back, each pair's beta blocks numbered past
those of the pairs before it. One partition's canonical labels are
that layout as they are; raw integer codes, such as mixed-radix joins
or gathered images, are relabelled into it once (``_stacked_betas``).
``_stacked_pairs`` relabels several partitions of the same spaces in
one such pass and reads many (join, beta) pairs from them by label
offsets, so a partition that several pairs read is relabelled once.
Every relabelling code puts the segment (pair, space or beta block)
first: the segments lie back to back, so the stable sort meets keys
that are sorted but inside each segment.
The array entries (``_stacked_join``, ``_stacked_pairs``,
``_stacked_mass_functions``, ``_stacked_reintegration`` and
``_require_probabilities``, the mass checks of
``FiniteProbabilitySpace`` over many spaces) serve the seeded sweeps,
which build no space or partition, and the one-pair calls
(``conditional_entropy``, ``Disintegration.reconstruct`` and
``decomposition.conditional_mass_function``), which pass one pair's
labels. The entropy operations implement the positive-mass
conventions (0 log 0 = 0, zero-mass fibers skipped) directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Hashable, Iterable, Sequence

import numpy as np

from ._kernels import entropy_from_probs

MASS_TOL = 1e-12

AtomId = Hashable


class SpaceMismatchError(ValueError):
    """Raised when an operation mixes partitions over different spaces."""


class DegenerateFiberError(ValueError):
    """Raised when a zero-mass block is used where a fiber is required."""


class FiniteProbabilitySpace:
    """An ordered finite set of atoms with nonnegative masses summing to 1.

    Parameters
    ----------
    atom_ids : sequence of hashables
        Distinct atom identifiers. Their order fixes the canonical atom
        order used everywhere else (block ordering, label arrays).
    masses : sequence of float
        Finite, nonnegative masses, same length, summing to 1 within
        1e-12. Zero-mass atoms are allowed; entropy conventions skip them.
    """

    __slots__ = ("atom_ids", "masses", "_index")

    def __init__(self, atom_ids: Sequence[AtomId], masses: Sequence[float]):
        atom_ids = tuple(atom_ids)
        arr = np.array(masses, dtype=np.float64)
        if arr.ndim != 1 or arr.shape[0] != len(atom_ids):
            raise ValueError("atom ids and masses must align")
        if len(atom_ids) == 0:
            raise ValueError("empty space")
        try:
            distinct = len(set(atom_ids))
        except TypeError:  # such as a list
            raise TypeError("atom ids must be hashable") from None
        if distinct != len(atom_ids):
            raise ValueError("duplicate atom ids")
        self.masses = _probabilities(arr)
        self.atom_ids = atom_ids
        self._index = {a: i for i, a in enumerate(atom_ids)}

    @classmethod
    def uniform(cls, atoms) -> "FiniteProbabilitySpace":
        """Uniform space over ``atoms`` (an id sequence, or a count)."""
        ids = tuple(range(atoms)) if isinstance(atoms, int) else tuple(atoms)
        n = len(ids)
        # no atoms: the constructor raises "empty space"
        return cls(ids, np.full(n, 1.0 / max(n, 1)))

    def __len__(self) -> int:
        return len(self.atom_ids)

    def __repr__(self) -> str:
        return f"FiniteProbabilitySpace({len(self)} atoms)"

    def index(self, atom: AtomId) -> int:
        try:
            return self._index[atom]
        except (KeyError, TypeError):  # an unhashable atom, such as a list, is unknown too
            raise ValueError("unknown atom") from None

    def mass(self, atom: AtomId) -> float:
        return float(self.masses[self.index(atom)])

    def mass_of(self, atoms: Iterable[AtomId]) -> float:
        """Mass of an atom set (a repeated atom counts once). Every subset
        mass is this summation: numpy pairwise over the index array."""
        idx = self._indices(atoms)
        if not idx:
            return 0.0
        return float(self.masses[idx].sum())

    def _indices(self, atoms: Iterable[AtomId]) -> list:
        """Indices of a set of atoms, each once, in order of first occurrence."""
        return list(dict.fromkeys(self.index(a) for a in atoms))


def _probabilities(arr: np.ndarray) -> np.ndarray:
    """``arr`` made read-only, after the checks of ``_require_probabilities``."""
    _require_probabilities(arr, [arr.shape[0]])
    arr.flags.writeable = False
    return arr


def _require_probabilities(masses: np.ndarray, sizes: Sequence[int]) -> None:
    """Each of the nonempty mass vectors lying back to back in ``masses``
    (``sizes`` gives their lengths) must be nonnegative, sum to 1 within
    ``MASS_TOL`` and be finite, checked in that order, all vectors in one
    pass. The first vector that fails raises its first failed check, so
    a stack fails as the first bad ``FiniteProbabilitySpace`` would."""
    ends = [*accumulate(sizes)]
    negative = masses < 0.0
    totals = _stack_sums(masses, sizes)
    # a NaN total fails this comparison too; past the first two checks a
    # non-finite entry can only be NaN, which makes the sum NaN
    normalised = np.abs(totals - 1.0) <= MASS_TOL
    if normalised.all() and not negative.any():
        return
    negative = np.logical_or.reduceat(negative, [0, *ends[:-1]])
    first = int((negative | ~normalised).argmax())
    if negative[first]:
        raise ValueError("negative mass")
    if not math.isnan(totals[first]):
        raise ValueError("masses must sum to 1")
    raise ValueError("masses must be finite")


def same_space(a: FiniteProbabilitySpace, b: FiniteProbabilitySpace) -> bool:
    """Structural equality: identical atom order and bit-identical masses."""
    return a is b or (a.atom_ids == b.atom_ids and np.array_equal(a.masses, b.masses))


def _require_same_space(a: FiniteProbabilitySpace, b: FiniteProbabilitySpace) -> None:
    if not same_space(a, b):
        raise SpaceMismatchError("space mismatch")


def _first_codes(keys: Iterable) -> list:
    """Hashable keys numbered 0, 1, ... in order of first occurrence."""
    first: dict = {}
    return [first.setdefault(key, len(first)) for key in keys]


def _block_labels(blocks: Iterable[Iterable], index, n: int, part: str, whole: str) -> list:
    """The label list of ``blocks`` over ``n`` ids: entry i is the position
    of the block holding the id that ``index`` maps to i. ``blocks`` and
    each block must be iterable and not a string, whose characters would
    pass for members ("blocks must be a list of lists"). Each block in
    turn is checked for an unknown member (``index`` raises), for being
    empty, and for a repeated member or one an earlier block holds; then
    every id must be covered. ``part`` and ``whole`` name the blocks and
    the ids in the messages ("empty block", "blocks overlap", "blocks
    must cover the space")."""

    def listed(group) -> list:
        if not isinstance(group, (str, bytes)):
            try:
                return list(group)
            except TypeError:
                pass
        raise ValueError(f"{part}s must be a list of lists")

    labels = [0] * n
    seen: set[int] = set()
    for j, raw in enumerate(listed(blocks)):
        idx = [index(a) for a in listed(raw)]
        if not idx:
            raise ValueError(f"empty {part}")
        members = set(idx)
        if len(members) != len(idx) or not seen.isdisjoint(members):
            raise ValueError(f"{part}s overlap")
        seen |= members
        for i in idx:
            labels[i] = j
    if len(seen) != n:
        raise ValueError(f"{part}s must cover the {whole}")
    return labels


class Partition:
    """Measurable partition of a finite space into disjoint covering blocks.

    The one stored form is a label array: ``labels()[i]`` is the index
    of the block holding the i-th atom. Labels are canonical, numbered
    in order of first occurrence, so blocks are ordered by their
    smallest contained atom. Equal partitions therefore have equal
    label arrays, and compare and hash equal, regardless of how their
    blocks or labels were listed. The block tuples (atoms in the
    space's order) are derived from the labels on first use and cached.
    Block masses are read from the sort that made the labels canonical
    (``_canonical``), kept beside them.
    """

    __slots__ = ("space", "_labels", "_k", "_sort", "_order", "_ends", "_blocks")

    def __init__(self, space: FiniteProbabilitySpace, blocks: Iterable[Iterable[AtomId]]):
        labels = _block_labels(blocks, space.index, len(space), "block", "space")
        self._assign(space, np.array(labels, dtype=np.int64))

    def _assign(self, space: FiniteProbabilitySpace, codes: np.ndarray) -> None:
        self.space = space
        self._labels, self._k, self._sort = _canonical(codes)
        self._labels.flags.writeable = False
        self._order = self._ends = self._blocks = None

    @classmethod
    def _from_codes(cls, space: FiniteProbabilitySpace, codes: np.ndarray) -> "Partition":
        """Partition grouping atoms by equal integer codes (no validation)."""
        self = object.__new__(cls)
        self._assign(space, codes)
        return self

    @classmethod
    def points(cls, space: FiniteProbabilitySpace) -> "Partition":
        """The partition into single atoms."""
        return cls._from_codes(space, np.arange(len(space)))

    @classmethod
    def trivial(cls, space: FiniteProbabilitySpace) -> "Partition":
        """The one-block partition {X}."""
        return cls._from_codes(space, np.zeros(len(space), dtype=np.int64))

    @classmethod
    def from_labels(cls, space: FiniteProbabilitySpace, labels: Sequence) -> "Partition":
        """Partition grouping atoms by equal labels (aligned with atom order)."""
        if len(labels) != len(space):
            raise ValueError("labels must align with atoms")
        codes = np.asarray(labels)
        if codes.ndim != 1 or codes.dtype.kind not in "biu":
            codes = np.array(_first_codes(labels), dtype=np.int64)
        return cls._from_codes(space, codes)

    @property
    def n_blocks(self) -> int:
        return self._k

    @property
    def blocks(self) -> tuple:
        """Blocks as atom-id tuples, in canonical order (derived, cached)."""
        if self._blocks is None:
            order, ends = self._members()
            ids = self.space.atom_ids
            atoms = [ids[i] for i in order.tolist()]
            self._blocks = tuple(
                tuple(atoms[start:end]) for start, end in zip([0] + ends, ends)
            )
        return self._blocks

    def _members(self) -> tuple:
        """Atom indices grouped by block, ascending inside each block, and
        the end offset of every block in that array."""
        if self._order is None:
            self._order, self._ends = _group(self._labels, self._k)
        return self._order, self._ends

    def __len__(self) -> int:
        return self._k

    def __iter__(self):
        return iter(self.blocks)

    def __repr__(self) -> str:
        return f"Partition({self.n_blocks} blocks / {len(self.space)} atoms)"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return (
            same_space(self.space, other.space)
            and self._k == other._k
            and bool((self._labels == other._labels).all())
        )

    def __hash__(self) -> int:
        return hash((self._k, self._labels.tobytes()))

    def block_index(self, atom: AtomId) -> int:
        return int(self._labels[self.space.index(atom)])

    def block_masses(self) -> np.ndarray:
        """Mass of every block. Each is the sum of ``masses[idx]`` over the
        block's ascending index array, bit-identical to ``mass_of(block)``.

        The groups come from ``_canonical``'s sort of the codes the
        partition was built from, with no second sort.
        """
        return _block_sums(self.space.masses, self._k, self._sort)

    def labels(self) -> np.ndarray:
        """Block index per atom, aligned with the space's atom order."""
        return self._labels


def _group(labels: np.ndarray, k: int) -> tuple:
    """Positions grouped by label (ascending inside each group) and the
    end offset of every group among them."""
    return labels.argsort(kind="stable"), np.bincount(labels, minlength=k).cumsum().tolist()


def _segment_sums(values: np.ndarray, ends) -> np.ndarray:
    """Sum of each segment of ``values`` (back to back from 0 to each of
    ``ends``, a list or an int64 array), bit-identical to
    ``values[start:end].sum()``; a zero-length segment sums to 0.0.

    One gather lays the segments out in order of length, so the segments
    of each length are one contiguous run: viewed as a matrix with one
    segment per row, it is summed along axis 1, which numpy does in the
    1-D pairwise order (``np.add.reduceat`` does not).
    """
    ends = np.asarray(ends, dtype=np.int64)
    lengths = ends.copy()
    lengths[1:] -= ends[:-1]
    by_length = lengths.argsort(kind="stable")
    lengths = lengths[by_length]
    laid = lengths.cumsum()
    # a laid-out position plus its segment's shift is its position in values
    gathered = values[np.arange(laid[-1]) + (ends[by_length] - laid).repeat(lengths)]
    cuts = [0, *(np.flatnonzero(lengths[1:] != lengths[:-1]) + 1).tolist(), lengths.shape[0]]
    runs, start = [], 0
    for head, tail, width in zip(cuts, cuts[1:], lengths[cuts[:-1]].tolist()):
        end = start + (tail - head) * width
        runs.append(gathered[start:end].reshape(tail - head, width).sum(axis=1))
        start = end
    sums = np.empty(lengths.shape[0])
    sums[by_length] = np.concatenate(runs)
    return sums


def _stack_sums(values: np.ndarray, sizes) -> np.ndarray:
    """Sum of each of the vectors lying back to back in ``values``
    (``sizes`` gives their lengths), bit-identical to its own 1-D sum:
    one vector by ``_segment_sums``, a stack by ``_group_sums`` over the
    vectors' indices."""
    n = len(sizes)
    if n == 1:
        return _segment_sums(values, sizes)
    return _group_sums(values, np.arange(n).repeat(sizes), n)


def _group_sums(values: np.ndarray, groups: np.ndarray, k: int) -> np.ndarray:
    """Sum of the ``values`` of each of the ``k`` groups (``groups`` holds
    each value's group id), bit-identical to ``values[groups == j].sum()``;
    an empty group sums to 0.0.

    numpy sums fewer than 8 values left to right from 0.0, and one
    ``np.bincount`` adds every group's values in exactly that order. Only
    groups of 8 or more values are summed again, in numpy's pairwise
    order, by ``_segment_sums`` over their members in input order.
    """
    sums = np.bincount(groups, weights=values, minlength=k)
    sizes = np.bincount(groups, minlength=k)
    large = sizes >= 8
    if large.any():
        members = np.flatnonzero(large[groups])
        members = members[groups[members].argsort(kind="stable")]
        sums[large] = _segment_sums(values[members], sizes[large].cumsum())
    return sums


def _canonical(codes: np.ndarray) -> tuple:
    """Relabel integer codes by first occurrence: (labels, block count,
    sort).

    A stable argsort ``order`` groups equal codes with their positions
    ascending, so each group's first position is its earliest atom;
    ranking the groups by that atom gives the canonical labels. ``sort``
    keeps that grouping for ``_block_sums``: ``order``, the end offset
    of every group in it and every group's label, groups in code order.
    """
    order = codes.argsort(kind="stable")
    ranked = codes[order]
    n = codes.shape[0]
    starts = np.empty(n, dtype=bool)
    starts[:1] = True  # no group starts in an empty array
    np.not_equal(ranked[1:], ranked[:-1], out=starts[1:])
    del ranked  # freed first: the per-group arrays can be as long as the codes
    heads = np.flatnonzero(starts)
    k = heads.shape[0]
    rank = np.empty(k, dtype=np.int64)
    rank[order[heads].argsort()] = np.arange(k)
    ends = np.append(heads, n)[1:]
    labels = np.empty(n, dtype=np.int64)
    labels[order] = rank.repeat(ends - heads)
    return labels, k, (order, ends, rank)


# codes are relabelled before a mixed-radix step could pass this bound
_CODE_LIMIT = 1 << 62


def _join_codes(rows: Iterable) -> tuple:
    """One mixed-radix code per atom for the (codes, bound) rows, each
    row's codes in [0, bound), and the bound of the result.

    Two atoms share a code exactly when every row agrees on them; the
    codes are relabelled densely whenever the next radix could overflow
    int64, and so is a row whose own bound still could.
    """
    code, bound = None, 1
    for row, k in rows:
        if code is None:
            code, bound = row, k
            continue
        if bound * k > _CODE_LIMIT:
            code, bound = _canonical(code)[:2]
            if bound * k > _CODE_LIMIT:
                row, k = _canonical(row)[:2]
        code = code * k + row
        bound *= k
    return code, bound


def _join_rows(space: FiniteProbabilitySpace, rows: Iterable) -> Partition:
    """Join of the partitions given as (label array, block count) rows."""
    return Partition._from_codes(space, _join_codes(rows)[0])


def _pullback(alpha: Partition, index_map: np.ndarray) -> Partition:
    """The partition {x : index_map[x] in A} over the blocks A of ``alpha``:
    one gather of its label array."""
    return Partition._from_codes(alpha.space, alpha._labels[index_map])


def join_all(partitions: Sequence[Partition]) -> Partition:
    """Common refinement of several partitions of one space."""
    if not partitions:
        raise ValueError("empty partition list")
    first = partitions[0]
    for p in partitions[1:]:
        _require_same_space(first.space, p.space)
    if len(partitions) == 1:
        return first
    return _join_rows(first.space, ((p._labels, p._k) for p in partitions))


def join(alpha: Partition, beta: Partition) -> Partition:
    """Join (common refinement): all nonempty pairwise block intersections."""
    return join_all([alpha, beta])


def is_coarser(alpha: Partition, beta: Partition) -> bool:
    """True iff ``alpha`` is coarser than ``beta`` up to zero-mass atoms.

    Every block of ``beta`` must have its positive-mass atoms inside a
    single block of ``alpha``; zero-mass atoms never separate blocks.
    """
    _require_same_space(alpha.space, beta.space)
    positive = alpha.space.masses > 0.0
    return _coarser(alpha._labels[positive], beta._labels[positive], beta._k)


def _coarser(coarse: np.ndarray, fine: np.ndarray, k: int) -> bool:
    """Whether the atoms of each of the ``k`` labels in ``fine`` share one
    code in ``coarse``."""
    # any one coarse code per fine label; all must then agree with it
    owner = np.empty(k, dtype=np.int64)
    owner[fine] = coarse
    return bool((owner[fine] == coarse).all())


def entropy(alpha: Partition) -> float:
    """Partition entropy -sum mu(A) log mu(A) in nats over positive-mass blocks.

    On a finite space the sum is always finite; the float return type
    keeps an infinite value representable for non-finite extensions.
    """
    return entropy_from_probs(alpha.block_masses())


def conditional_entropy(alpha: Partition, beta: Partition) -> float:
    """Mean conditional entropy sum_B mu(B) * H_{mu_B}(alpha traced on B),
    from the one-pair ``_stacked_join`` of the two label arrays."""
    _require_same_space(alpha.space, beta.space)
    return _offset_entropies(beta.space.masses, alpha._labels, beta._labels, beta.block_masses(), [beta._k])[0]


def _block_sums(masses: np.ndarray, k: int, sort: tuple) -> np.ndarray:
    """Mass of each of the ``k`` label groups, summed over ascending positions.

    ``sort`` is the grouping ``_canonical`` kept when it made the labels:
    its groups are summed in code order and only the k sums are moved
    into label order.
    """
    order, ends, rank = sort
    out = np.empty(k)
    out[rank] = _segment_sums(masses[order], ends)
    return out


def _stacked_betas(masses: np.ndarray, beta: np.ndarray, sizes: Sequence[int]) -> tuple:
    """Raw beta codes of pairs stacked back to back (``sizes`` gives each
    pair's atom count) relabelled into ``_stacked_join``'s layout, with
    their block masses under the stacked ``masses``, and each pair's
    block count.

    The codes may be any nonnegative int64 codes: two atoms of a pair
    share a block exactly when they share a code. One ``_canonical`` over
    the codes joined with the pair index numbers every pair's blocks in
    order of first atom, past the blocks of the pairs before it, and the
    block masses are ``_group_sums`` over those labels. The
    join code is segment-major, pair * (max code + 1) + beta: the pairs
    lie back to back, so the codes are sorted but inside each pair, and
    the stable argsort runs over them several times faster than over
    value-major codes, with the same blocks.
    """
    n = len(sizes)
    pair = np.arange(n).repeat(sizes)
    labels, k, _ = _canonical(_join_codes([(pair, n), (beta, int(beta.max()) + 1)])[0])
    owner = np.empty(k, dtype=np.int64)
    owner[labels] = pair
    return labels, _group_sums(masses, labels, k), np.bincount(owner, minlength=n)


def _stacked_join(masses, alpha, beta, mB, counts) -> tuple:
    """The join of many (alpha, beta) pairs of label arrays in one pass.

    The pairs lie back to back in ``masses``, ``alpha`` and ``beta``.
    ``beta`` holds canonical labels: every pair's blocks are numbered in
    order of first atom, past the ``counts`` blocks of the pairs before
    it, so no block crosses a pair, and ``mB`` holds their masses. One
    partition's labels come that way; raw codes go through
    ``_stacked_betas`` first. ``alpha`` may be any nonnegative int64
    codes. One ``_canonical`` relabels the join codes
    beta * (max alpha + 1) + alpha the same way, beta first so that each
    pair's codes follow those of the pairs before it, and the join's
    block masses are ``_group_sums`` over its labels;
    ``_join_codes`` relabels first where that product would overflow.

    Returns the beta labels, the join labels, the block masses of the
    betas and of the joins, and ``counts``.
    """
    joint, k_joint, _ = _canonical(_join_codes([(beta, mB.shape[0]), (alpha, int(alpha.max()) + 1)])[0])
    return beta, joint, mB, _group_sums(masses, joint, k_joint), counts


def _stacked_pairs(masses: np.ndarray, parts: Sequence[np.ndarray], sizes: Sequence[int], pairs) -> tuple:
    """Many (join, beta) pairs of partitions relabelled in one pass, in the
    layout ``_stacked_join`` returns.

    ``parts`` are raw code arrays, each over all the spaces lying back to
    back in ``masses`` (``sizes`` gives their atom counts). One
    ``_stacked_betas`` relabels them all, every space of every part its
    own segment, so a part serves every pair that reads it. ``pairs``
    are (join, beta) indices into ``parts``, the join refining the beta
    (as alpha v beta refines beta). They are stacked pair after pair,
    each over every space, a pair's labels moved by one offset so that
    its blocks follow those of the pairs before it. Inside a space the
    blocks keep their order of first atom, so each pair gets the labels
    and block masses ``_stacked_join`` gives it.

    Returns the beta labels, the join labels, the block masses of the
    betas and of the joins, and every beta's block count in each space.
    """
    n, m = masses.shape[0], len(parts)
    labels, block_masses, counts = _stacked_betas(np.tile(masses, m), np.concatenate(parts), np.tile(sizes, m))
    counts = counts.reshape(m, len(sizes))
    first = np.append(0, counts.sum(axis=1).cumsum())
    join, beta = np.array(pairs).T

    def read(part):
        # one side of every pair, ``part`` naming its part: a block keeps
        # its place inside its part, moved past the blocks of earlier pairs
        k = first[part + 1] - first[part]
        shift = k.cumsum() - k - first[part]
        pair_labels = labels[(part * n)[:, None] + np.arange(n)] + shift[:, None]
        return pair_labels.ravel(), block_masses[np.arange(k.sum()) - shift.repeat(k)]

    joint, mJ = read(join)
    lb, mB = read(beta)
    return lb, joint, mB, mJ, counts[beta].ravel()


def _offset_entropies(masses, alpha, beta, mB, counts) -> list:
    """H(alpha | beta) of every pair of label arrays stacked as
    ``_stacked_join`` takes them."""
    return _join_entropies(*_stacked_join(masses, alpha, beta, mB, counts))


def _join_entropies(lb, joint, mB, mJ, counts) -> list:
    """H(alpha | beta) of every pair from its stacked join (``_stacked_join``).

    The traces of alpha on the blocks B of beta are the blocks of their
    join, so the join's block masses are the trace masses, normalized by
    mu(B). Each fiber's entropy sum is ``_group_sums`` over the owning B,
    taken in join-label order (canonical labels keep the traces in order
    of first atom inside B): a fiber of fewer than 8 traces is one
    ``np.bincount`` sum, otherwise numpy's pairwise sum, and either is
    bit-identical to the plain 1-D sum over that fiber. Zero-mass blocks
    carry no fiber and are skipped. Each pair's total is summed over its
    beta blocks left to right.
    """
    owner = np.empty(mJ.shape[0], dtype=np.int64)
    owner[joint] = lb
    live = mB[owner] > 0.0
    owner = owner[live]
    p = mJ[live] / mB[owner]
    keep = p > 0.0
    q = p[keep]
    return _block_totals(mB, _group_sums(-(q * np.log(q)), owner[keep], mB.shape[0]), counts)


def _block_totals(block_masses: np.ndarray, values: np.ndarray, counts: Sequence[int]) -> list:
    """sum_B mu(B) * value(B) over the positive-mass blocks of each
    partition, added left to right from 0.0; ``counts`` are the
    partitions' block counts, their blocks back to back.

    One ``np.bincount`` over the partitions' ids adds each partition's
    terms in block order from 0.0, at any block count: a left-to-right
    sum, not numpy's pairwise one, whatever the count. A skipped block
    adds 0.0, which leaves a sum that started at 0.0 unchanged, so every
    total is the plain loop's to the bit.
    """
    terms = np.zeros(block_masses.shape[0])
    np.multiply(block_masses, values, out=terms, where=block_masses > 0.0)
    n = len(counts)
    return np.bincount(np.arange(n).repeat(counts), weights=terms, minlength=n).tolist()


@dataclass(frozen=True)
class MassFunctionResult:
    """The conditional mass function m and its entropy integral check.

    ``values[x]`` is the conditional measure, given the block of
    ``cond`` through x, of the block of ``alpha`` through x. Atoms in
    zero-mass conditioning blocks carry no conditional measure and are
    listed in ``excluded``. ``integral_gap`` is
    |H(alpha | cond) + sum_x mu(x) log m(x)|, which vanishes
    identically in exact arithmetic.
    """

    values: dict
    excluded: tuple
    integral_gap: float


def _stacked_mass_functions(masses, alpha, beta, mB, counts, sizes) -> tuple:
    """The conditional mass functions of many (alpha, cond) pairs of label
    arrays, laid out as ``_stacked_join`` takes them with cond as beta;
    ``sizes`` gives each pair's atom count.

    m(x) is the mass of the join block through x over that of the cond
    block through x, and H(alpha | cond) is read from the same join. Each
    pair's integral sum_x mu(x) log m(x) takes one ``math.log`` per
    positive-mass atom, summed in atom order (``_block_totals`` with the
    atoms as blocks).

    Returns the join, m per atom (0.0 where the cond block has no mass),
    the mask of atoms whose cond block has mass, and each pair's
    |H(alpha | cond) + integral|.
    """
    joined = _stacked_join(masses, alpha, beta, mB, counts)
    lb, joint, mB, mJ, _ = joined
    mC = mB[lb]
    live = mC > 0.0
    m = np.divide(mJ[joint], mC, out=np.zeros(mC.shape[0]), where=live)
    # a positive-mass atom makes its cond block's mass positive
    positive = masses > 0.0
    logs = np.zeros(masses.shape[0])
    logs[positive] = [math.log(v) for v in m[positive].tolist()]
    integrals = _block_totals(masses, logs, sizes)
    return joined, m, live, np.abs(np.add(_join_entropies(*joined), integrals))


class FactorSpace:
    """Quotient of a space by a partition: one atom per block.

    Quotient atom ids are the canonical block indices 0..k-1, so a base
    atom projects to its label in the partition. Quotient masses are the
    block masses under the same summation as everywhere else, so
    reconstruction identities hold to float precision.
    """

    __slots__ = ("base", "partition", "quotient")

    def __init__(self, base: FiniteProbabilitySpace, partition: Partition):
        _require_same_space(base, partition.space)
        self.base = base
        self.partition = partition
        self.quotient = FiniteProbabilitySpace(
            range(partition.n_blocks), partition.block_masses()
        )


class Disintegration:
    """Canonical disintegration of a space over a partition.

    Holds the base masses grouped by block and normalized by the block
    mass; a positive-mass block's slice of them is its conditional
    (fiber) space. Zero-mass blocks have no fiber. The fiber spaces are
    built on first read of ``conditional`` or ``conditional_spaces``;
    ``reconstruct`` re-integrates any atom subset over the fibers.
    """

    __slots__ = ("space", "partition", "factor", "_order", "_ends", "_fiber_masses", "_fibers")

    def __init__(self, space: FiniteProbabilitySpace, partition: Partition):
        _require_same_space(space, partition.space)
        self.space = space
        self.partition = partition
        self.factor = FactorSpace(space, partition)
        self._order, self._ends = partition._members()
        self._fiber_masses = _fiber_masses(
            space.masses, partition.labels(), self._order, self.factor.quotient.masses
        )
        self._fibers = None

    @property
    def conditional_spaces(self) -> dict:
        """Fiber space per positive-mass block index (built on first read)."""
        if self._fibers is None:
            blocks = self.partition.blocks
            self._fibers = {
                bi: FiniteProbabilitySpace(blocks[bi], self._fiber_masses[start:end])
                for bi, (start, end, mB) in enumerate(
                    zip([0, *self._ends], self._ends, self.factor.quotient.masses.tolist())
                )
                if mB > 0.0
            }
        return self._fibers

    def conditional(self, block_index: int) -> FiniteProbabilitySpace:
        try:
            return self.conditional_spaces[block_index]
        except KeyError:
            raise DegenerateFiberError("degenerate fiber") from None

    def reconstruct(self, atoms: Iterable[AtomId]) -> float:
        """Mass of an atom set re-integrated over the fibers:
        sum_A mu_alpha(A) * mu_A(C intersect A). The atoms are read as a
        set (a repeated atom counts once, an unknown one raises)."""
        wanted = np.zeros(len(self.space), dtype=bool)
        wanted[self.space._indices(atoms)] = True
        p = self.partition
        return _stacked_reintegration(self.space.masses, p._labels, p.block_masses(), [p._k], wanted)[0]


def _fiber_masses(masses: np.ndarray, labels: np.ndarray, order: np.ndarray, block_masses) -> np.ndarray:
    """Each atom's mass over its block's mass, atoms in ``order`` (grouped
    by block); atoms of zero-mass blocks keep 0."""
    per_atom = block_masses[labels[order]]
    return np.divide(masses[order], per_atom, out=np.zeros(order.shape[0]), where=per_atom > 0.0)


def _stacked_reintegration(masses, labels, block_masses, counts, wanted) -> list:
    """For many partitions, stacked as ``_stacked_join`` stacks its betas
    (``counts`` blocks each, with their ``block_masses``), the mass of
    the ``wanted`` atoms re-integrated over each partition's fibers.

    Each fiber mass is one ``_group_sums`` sum over the wanted atoms in
    the fiber, in atom order, and each partition's total is summed over
    its positive-mass blocks left to right, so every value is the one its
    partition gets alone.
    """
    picked = np.flatnonzero(wanted)
    fibers = _fiber_masses(masses, labels, picked, block_masses)
    return _block_totals(block_masses, _group_sums(fibers, labels[picked], block_masses.shape[0]), counts)


def disintegrate(space: FiniteProbabilitySpace, alpha: Partition) -> Disintegration:
    """Canonical disintegration of ``space`` over the blocks of ``alpha``."""
    return Disintegration(space, alpha)


def restrict(alpha: Partition, block: Iterable[AtomId], conditional: FiniteProbabilitySpace) -> Partition:
    """Trace of ``alpha`` on one positive-mass block, as a partition of its fiber.

    ``conditional`` must be the fiber space over exactly this block
    (from ``disintegrate``); the result's blocks are the nonempty
    intersections of ``alpha``'s blocks with the block.
    """
    block = tuple(block)
    if not block:
        raise ValueError("empty set")
    if len(block) != len(conditional) or set(block) != set(conditional.atom_ids):
        raise SpaceMismatchError("space mismatch")
    space = alpha.space
    idx = [space.index(a) for a in conditional.atom_ids]
    if space.masses[idx].sum() <= 0.0:
        raise DegenerateFiberError("degenerate fiber")
    return Partition._from_codes(conditional, alpha._labels[idx])
