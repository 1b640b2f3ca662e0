"""Concrete Z^d systems: finite permutation actions, product and Markov shifts, mixtures.

Three system kinds share the window-measure interface the rate engine
drives:

- ``FinitePMPAction``: d commuting mass-preserving permutations of a
  finite space, held as index arrays; a window partition joins the
  label rows of alpha pulled back through every T_g, everything exact.
  A trace's walking copy keeps its last box join, so each box row joins
  2^d translates of the one before, and none once they stop refining.
- ``ShiftSystem``: the full shift over a finite alphabet with either a
  product (any d) or a stationary Markov (d = 1) measure; window
  measures come from the numpy kernels.
- ``MixtureSystem``: a tagged disjoint union with positive weights;
  measures are weight-combined componentwise.

Every rule that differs by kind (a window entropy's route, a trace's
walking copy, an exact rate, the ergodic decomposition, pattern masses,
what a command-line config reads) is a private method of each of these
classes, such as ``_block_entropy`` or ``_split``. ``_require_system``
is the package's one test of a system's class: a public entry calls it,
then one method. Bernoulli against Markov stays ``ShiftSystem.kind``.

Two routes to every measure are kept deliberately separate:
``cylinder_measure`` computes one word's mass by explicit products and
gap sums (oracle-grade, slow), while ``window_partition`` returns the
masses of every cell pattern as one element-major float64 array, filled
through the numpy kernels: coarse cells on a Markov window by a forward
recursion over cell patterns, without enumerating symbol words.
``symbol_factor_entropy`` evaluates a Markov shift or a mixture under a
symbol factor by the Markov closed form and the same recursion, once
per shift component. Window entropies of product measures and of
trivially conditioned mixtures need no pattern space at all; the engine
evaluates them in closed form. The cap still counts the m^|W| symbol
patterns of every Markov window.
"""

from __future__ import annotations

import copy
import itertools
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from ._kernels import (
    _Chain,
    _is_interval,
    entropy_from_probs,
    hidden_markov_pattern_probs,
    iid_pattern_logprobs,
    markov_interval_logprobs,
    markov_mask_entropies,
    markov_window_entropy,
    markov_window_probs,
)
from .groups import FolnerSubset, GroupElement, _dimension, basis, neg
from .spaces import (
    MASS_TOL,
    FiniteProbabilitySpace,
    Partition,
    _CODE_LIMIT,
    _block_labels,
    _canonical,
    _coarser,
    _first_codes,
    _join_codes,
    _join_rows,
    _probabilities,
    _pullback,
    _require_same_space,
    conditional_entropy,
    entropy,
)

STATIONARITY_TOL = 1e-12
GAP_CAP = 20
DEFAULT_PATTERN_CAP = 1 << 20


class EnumerationCapError(RuntimeError):
    """Raised when a computation would enumerate more patterns than allowed."""


class IncompatibleSubAlgebraError(ValueError):
    """Raised when a conditioning choice does not apply to a system."""


def _require_generator(masses: np.ndarray, g: np.ndarray, ident: np.ndarray) -> None:
    """``g`` must be an integer index array that rearranges ``ident`` and
    keeps ``masses`` bit-exactly."""
    # only integer entries index atoms: floats and bools are not cast
    if g.dtype.kind not in "iu" or g.shape != ident.shape or not (np.sort(g) == ident).all():
        raise ValueError("generator is not a permutation")
    if (masses[g] != masses).any():
        raise ValueError("generator does not preserve masses")


def _cycle_minima(low: np.ndarray, perm: np.ndarray, longest: int) -> np.ndarray:
    """``low`` lowered to its minimum along each cycle of ``perm``, for
    cycles of at most ``longest`` atoms, by doubling: after round s,
    entry j is the minimum of ``low`` over j's first 2^s images."""
    step = perm
    for _ in range(max(1, (longest - 1).bit_length())):
        low = np.minimum(low, low[step])
        step = step[step]
    return low


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


class FinitePMPAction:
    """Z^d acting on a finite space by d commuting mass-preserving permutations.

    ``generators[i]`` is the index map of the i-th basis translation:
    atom index j is sent to ``generators[i][j]``. Each generator must
    be a permutation of integer atom indices (floats and bools are
    rejected, not cast) that preserves masses atomwise (bit-exact), and
    all generators must commute; the three checks run as array
    comparisons at construction. The generators are stored as int64
    index arrays, together with their inverses. ``_walk`` is the box-join
    record of a walking copy (``_walking``) and None otherwise.
    """

    __slots__ = ("space", "_gens", "_invs", "d", "_walk")

    def __init__(self, space: FiniteProbabilitySpace, generators: Sequence[Sequence[int]]):
        n = len(space)
        ident = np.arange(n)
        gens, invs = [], []
        for raw in generators:
            g = np.asarray(raw)
            _require_generator(space.masses, g, ident)
            g = g.astype(np.int64)
            inv = np.empty(n, dtype=np.int64)
            inv[g] = ident
            gens.append(g)
            invs.append(inv)
        if not gens:
            raise ValueError("at least one generator required")
        for a in range(len(gens)):
            for b in range(a + 1, len(gens)):
                if (gens[a][gens[b]] != gens[b][gens[a]]).any():
                    raise ValueError("generators must commute")
        for arr in gens + invs:
            arr.flags.writeable = False
        self.space = space
        self._gens = tuple(gens)
        self._invs = tuple(invs)
        self.d = len(gens)
        self._walk = None

    @property
    def generators(self) -> tuple:
        """The generators as tuples of atom indices."""
        return tuple(tuple(g.tolist()) for g in self._gens)

    def __repr__(self) -> str:
        return f"FinitePMPAction(d={self.d}, {len(self.space)} atoms)"

    def atom_map(self, g: GroupElement) -> np.ndarray:
        """The permutation T_g as an index array: atom j goes to ``atom_map(g)[j]``.

        This is the entry point for a single g (``act``, a window join's
        last-axis generator, the first run start of each run length and
        the non-unit steps between run starts): each generator power
        is built by binary powering of the generator's (or its
        inverse's) index array, so T_g costs O(d log|g|) gathers. For a
        unit vector ±e_i it is the stored generator or inverse array
        itself, with no gather. The result is read-only.
        """
        if len(g) != self.d:
            raise ValueError("dimension mismatch")
        out = None
        for gen, inv, e in zip(self._gens, self._invs, g):
            e = int(e)
            base, e = (gen, e) if e >= 0 else (inv, -e)
            while e:
                if e & 1:
                    out = base if out is None else base[out]
                e >>= 1
                if e:
                    base = base[base]
        if out is None:
            out = np.arange(len(self.space))
        out.flags.writeable = False
        return out

    def _block_entropy(self, alpha, F: FolnerSubset, C, W, cap: int) -> float:
        if W is not None:
            raise ValueError("conditioning windows apply to shift systems")
        if alpha is None:
            alpha = Partition.points(self.space)
        if not isinstance(alpha, Partition):
            raise TypeError("finite systems need a space partition")
        alpha_F = _finite_window_join(self, alpha, F)
        if C.kind == "trivial":
            return entropy(alpha_F)
        if C.kind == "invariant_partition":
            if fixed_partition_witness(self, C.partition) is not None:
                raise IncompatibleSubAlgebraError("conditioning partition is not fixed")
            return conditional_entropy(alpha_F, C.partition)
        raise IncompatibleSubAlgebraError("incompatible sub-algebra")

    def _mask_table(self, alpha, box: FolnerSubset, C, cap: int) -> None:
        return None

    def _walking(self) -> "FinitePMPAction":
        """A copy whose ``_walk`` keeps its last box join, (alpha, side s,
        alpha^[0,s)^d, saturated), which ``_finite_window_join`` resumes;
        it is empty until the first box and dropped with the copy."""
        walking = copy.copy(self)
        walking._walk = ()
        return walking

    def _exact_rate(self) -> float:
        # H(alpha^F | C) <= log|X| while |F| grows
        return 0.0

    def _certified(self) -> bool:
        # each positive-mass orbit is an ergodic component, by transitivity
        return True

    def _components(self) -> dict:
        return {"kind": "orbit", "partition": orbit_partition(self)}

    def _is_ergodic(self) -> bool:
        return int((orbit_partition(self).block_masses() > 0.0).sum()) <= 1

    _fixed_witness = fixed_partition_witness

    def _split(self, beta: Optional[Partition], alpha, spec) -> list:
        if beta is None:
            beta = orbit_partition(self)
        witness = fixed_partition_witness(self, beta)
        if witness is not None:
            raise ValueError(
                f"partition is not fixed: generator {witness['generator']}"
                f" moves block {tuple(witness['block'])}"
            )
        # a moved conditioning partition was rejected by the whole-system trace
        if spec.kind not in ("trivial", "invariant_partition"):
            raise IncompatibleSubAlgebraError("incompatible sub-algebra")
        masses = enumerate(beta.block_masses().tolist())
        return [(f"block:{bi}", mB, 0.0, None) for bi, mB in masses if mB > 0.0]

    def _window_partition(self, F: FolnerSubset, alpha, cap: int):
        raise TypeError("window patterns apply to shift systems and mixtures")

    def _cylinder(self, window: FolnerSubset, word: Mapping):
        raise TypeError("cylinder measures apply to shift systems and mixtures")

    def _shift_alphabet(self) -> None:
        return None

    def _factor_alphabet(self):
        raise ValueError("symbol factors need a shift system")

    def _read_partition(self, spec, read) -> Partition:
        """A config's partition spec, ``read(spec, key)`` giving its value at ``key``."""
        return Partition(self.space, read(spec, "blocks"))

    def _read_invariant(self, spec, read) -> Partition:
        C = self._read_partition(spec, read)
        if fixed_partition_witness(self, C) is not None:
            raise ValueError("conditioning partition is not fixed")
        return C

    def _read_beta(self, spec, read) -> tuple:
        beta = self._read_partition(spec, read)
        return beta, fixed_partition_witness(self, beta)


def act(system: FinitePMPAction, g: GroupElement, alpha: Partition) -> Partition:
    """Image partition T_g(alpha) = {T_g A : A in alpha}.

    An atom lies in T_g A exactly when its T_{-g}-image lies in A, so
    the image's labels are alpha's labels pulled back through
    ``atom_map(-g)``: one gather, then the canonical relabelling.
    """
    _require_same_space(system.space, alpha.space)
    return _pullback(alpha, system.atom_map(neg(g)))


def _finite_window_join(system: FinitePMPAction, alpha: Partition, F: FolnerSubset) -> Partition:
    """alpha^F, the join of alpha pulled back through T_g for every g of F.

    On a walking copy (``_walking``), a box [0, s')^d for the alpha of
    the recorded box P = alpha^[0,s)^d resumes it: if s < s' <= 2s, the
    box is [0,s)^d + {0, s'-s}^d, so alpha^F joins the 2^d translates of
    P, each one gather of P's labels (``_box_resume``). Once a box has as
    many blocks as the recorded one, the two are equal and the record is
    saturated: every unit shift of [0,s)^d lies in [0,s')^d, so
    T^{-e_i}P = P for each i, and every larger box is P itself, returned
    without a join or a read of its rows. Any other window, a box past
    2s, and every window of a system that is not a walking copy take the
    run joins below (``_window_join``); a box's result is recorded.
    """
    _require_same_space(system.space, alpha.space)
    if F.d != system.d:
        raise ValueError("dimension mismatch")
    side = F._side
    if system._walk is None or side is None:
        return _window_join(system, alpha, F)
    a, s, P, saturated = system._walk or (None, 0, None, False)
    if alpha == a and side >= s:
        if saturated or side == s:
            return P
        joined = _box_resume(system, P, side - s) if side <= 2 * s else _window_join(system, alpha, F)
        saturated = joined.n_blocks == P.n_blocks
    else:
        joined, saturated = _window_join(system, alpha, F), False
    system._walk = (alpha, side, joined, saturated)
    return joined


def _box_resume(system: FinitePMPAction, P: Partition, t: int) -> Partition:
    """The join of the 2^d translates of ``P`` by {0, t}^d: P's labels
    gathered through T_v for each such v, T_v built axis by axis."""
    rows = [P.labels()]
    for e in basis(system.d):
        step = system.atom_map(tuple(t * c for c in e))
        rows += [row[step] for row in rows]
    return _join_rows(system.space, ((row, P.n_blocks) for row in rows))


def _window_join(system: FinitePMPAction, alpha: Partition, F: FolnerSubset) -> Partition:
    """alpha^F by run joins.

    F's rows fall into maximal runs along the last axis. The join over
    a run g + [0, L) e_d is the join over [0, L) e_d pulled back through
    T_g, so it is built once per run length (``_run_join``) and then
    gathered once per run. The generators commute, so after a length's
    first run each run is the previous one gathered through the step
    between their starts. Step maps are kept for reuse, at most d of
    them, so a box (all runs of one length, d - 1 distinct steps) powers
    each step once; a unit step's map is the stored generator itself.
    """
    if len(F) == 0:
        return Partition.trivial(system.space)

    def rows():
        labels, k = alpha.labels(), alpha.n_blocks
        unit = system.atom_map(basis(system.d)[-1])
        steps = {}
        for length, starts in _runs(F.rows).items():
            row, bound = _run_join(labels, k, unit, length)
            if any(starts[0]):
                row = row[system.atom_map(starts[0])]
            yield row, bound
            for prev, g in zip(starts, starts[1:]):
                s = tuple(b - a for a, b in zip(prev, g))
                step = steps.get(s)
                if step is None:
                    step = system.atom_map(s)
                    if len(steps) < system.d:
                        steps[s] = step
                row = row[step]
                yield row, bound

    return _join_rows(system.space, rows())


def _runs(rows: np.ndarray) -> dict:
    """Lexicographic window rows as maximal runs along the last axis:
    {run length: [first row of each run of that length, in row order]}."""
    n = rows.shape[0]
    first, last = rows[0].tolist(), rows[-1].tolist()
    # rows are unique and sorted, so equal leading coordinates and a span
    # of n - 1 along the last axis make them one run
    if first[:-1] == last[:-1] and last[-1] - first[-1] == n - 1:
        return {n: [first]}
    breaks = (np.diff(rows[:, -1]) != 1) | (rows[1:, :-1] != rows[:-1, :-1]).any(axis=1)
    cuts = [0, *(np.flatnonzero(breaks) + 1).tolist(), n]
    runs = {}
    for g, a, b in zip(rows[cuts[:-1]].tolist(), cuts, cuts[1:]):
        runs.setdefault(b - a, []).append(g)
    return runs


def _run_join(labels: np.ndarray, k: int, step: np.ndarray, length: int) -> tuple:
    """(codes, bound) of the join of the ``k``-block labels pulled back
    through T^t, t in [0, length), ``step`` being T as an index array.

    By doubling: with B_a the join over [0, a) and ``step`` = T^a, B_2a
    is B_a joined with B_a gathered through T^a, and T^2a is T^a
    gathered through itself. The set bits of ``length`` are taken from
    the lowest up: the join over [0, a + s) is B_a joined with the join
    over [0, s) gathered through T^a. So a run costs O(log length)
    gathers and joins; codes are relabelled only where a bound would
    pass ``_CODE_LIMIT``.
    """
    out = None
    while True:
        if length & 1 and out is None:
            out, bound = labels, k
        elif length & 1:
            out = out[step]  # the old join is dropped before the new one is built
            out, bound = _join_codes([(out, bound), (labels, k)])
        length >>= 1
        if not length:
            return out, bound
        if k * k > _CODE_LIMIT:
            labels, k = _canonical(labels)[:2]
        labels, k = _join_codes([(labels, k), (labels[step], k)])
        step = step[step]


def is_fixed_partition(system, C) -> bool:
    """Whether every block of ``C`` is invariant as a set under the action.

    For a finite action ``C`` is a partition of its space and each
    generator must map each block onto itself. For a mixture ``C`` is a
    grouping of component indices; any valid grouping is fixed because
    each component measure is shift-invariant.
    """
    return _require_system(system)._fixed_witness(C) is None


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


class SymbolPartition:
    """Partition of a shift alphabet into cells (a coarse-graining of symbols).

    Only labels are stored, as for space partitions: ``cell_labels()[i]``
    is the cell of the i-th symbol, cells numbered in order of first
    occurrence, so each cell lists its symbols in alphabet order and
    cells are ordered by their smallest symbol. Equal partitions have
    equal label arrays, and compare and hash by the alphabet and those
    labels. ``cells`` is derived from the labels on each read.
    """

    __slots__ = ("alphabet", "n_cells", "_labels")

    def __init__(self, alphabet: Sequence, cells: Iterable[Iterable]):
        alphabet = tuple(alphabet)
        pos = {s: i for i, s in enumerate(alphabet)}
        if len(pos) != len(alphabet):
            raise ValueError("duplicate symbols")

        def index(symbol) -> int:
            try:
                return pos[symbol]
            except (KeyError, TypeError):  # an unhashable symbol is unknown too
                raise ValueError("unknown symbol") from None

        self._set(alphabet, _first_codes(_block_labels(cells, index, len(alphabet), "cell", "alphabet")))

    def _set(self, alphabet: tuple, labels: list) -> None:
        self.alphabet = alphabet
        self.n_cells = max(labels, default=-1) + 1
        self._labels = np.array(labels, dtype=np.int64)
        self._labels.flags.writeable = False

    @classmethod
    def _grouped(cls, alphabet: tuple, keys) -> "SymbolPartition":
        """The partition into classes of equal key, ``keys`` giving one
        per symbol in alphabet order, without the constructor's checks:
        numbered by first occurrence, the classes are already canonical."""
        self = cls.__new__(cls)
        self._set(alphabet, _first_codes(keys))
        return self

    @classmethod
    def full(cls, alphabet: Sequence) -> "SymbolPartition":
        """One cell per symbol: the zero-coordinate symbol partition."""
        return cls(alphabet, [[s] for s in alphabet])

    @classmethod
    def trivial(cls, alphabet: Sequence) -> "SymbolPartition":
        return cls(alphabet, [list(alphabet)])

    @property
    def cells(self) -> tuple:
        """Cells as symbol tuples, in canonical order (derived on each read)."""
        cells: list = [[] for _ in range(self.n_cells)]
        for s, c in zip(self.alphabet, self._labels.tolist()):
            cells[c].append(s)
        return tuple(map(tuple, cells))

    def cell_labels(self) -> np.ndarray:
        """Cell index per symbol, aligned with alphabet order (read-only)."""
        return self._labels

    def join(self, other: "SymbolPartition") -> "SymbolPartition":
        if self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch")
        return SymbolPartition._grouped(self.alphabet, zip(self._labels.tolist(), other._labels.tolist()))

    def refines(self, other: "SymbolPartition") -> bool:
        """True iff every cell of self lies inside a cell of ``other``."""
        if self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch")
        return _coarser(other._labels, self._labels, self.n_cells)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymbolPartition):
            return NotImplemented
        return self.alphabet == other.alphabet and self._labels.tobytes() == other._labels.tobytes()

    def __hash__(self) -> int:
        return hash((self.alphabet, self._labels.tobytes()))

    def __repr__(self) -> str:
        return f"SymbolPartition({self.n_cells} cells / {len(self.alphabet)} symbols)"


def stationary_vector(P: np.ndarray) -> np.ndarray:
    """Stationary row vector of a stochastic matrix by a direct linear solve.

    Solves pi (P - I) = 0 together with sum(pi) = 1, which works for
    periodic chains as well. Raises ``ValueError`` on a non-finite entry
    (before the solve) and when the solution is not unique, i.e. when
    the stacked system [P^T - I; 1] has rank below the number of states
    (a chain with several closed classes).
    """
    P = np.asarray(P, dtype=np.float64)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError("square matrix required")
    n = P.shape[0]
    if not np.isfinite(P).all():
        raise ValueError("transition probabilities must be finite")
    A = np.vstack([P.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[n] = 1.0
    pi, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
    if rank < n:
        raise ValueError("stationary vector is not unique")
    # transient states solve to zero up to roundoff, which may be negative
    pi = np.maximum(pi, 0.0)
    return pi / pi.sum()


def is_ergodic_model(system: ShiftSystem) -> bool:
    """Structural ergodicity certificate per measure model.

    Product measures are ergodic outright. Markov models are certified
    through primitivity of the transition support (irreducible and
    aperiodic), which is sufficient; merely periodic chains return
    False even though finer arguments might still apply.
    """
    if system.kind == "bernoulli":
        return True
    A = (system.P > 0.0).astype(np.int64)
    m = A.shape[0]
    # Wielandt bound: a primitive matrix has a fully positive power by then
    power = np.eye(m, dtype=np.int64)
    for _ in range((m - 1) ** 2 + 1):
        power = np.clip(power @ A, 0, 1)
    return bool(np.all(power > 0))


class ShiftSystem:
    """Z^d shift over a finite alphabet with a shift-invariant measure.

    Use :func:`bernoulli_shift` or :func:`markov_shift` to construct.
    ``base_partition`` is the zero-coordinate symbol partition; window
    partitions refine it along finite subsets of Z^d. ``_walk`` is the
    walk record of a walking copy (``_walking``) and ``_memo`` its kept
    values (``_kept``); both are None otherwise.
    """

    __slots__ = ("d", "alphabet", "kind", "probs", "pi", "P", "base_partition", "_walk", "_memo")

    def __init__(self, d, alphabet, kind, probs=None, pi=None, P=None):
        self.d = d
        self.alphabet = tuple(alphabet)
        self.kind = kind
        self.probs = probs
        self.pi = pi
        self.P = P
        self.base_partition = SymbolPartition.full(self.alphabet)
        self._walk = self._memo = None

    @property
    def n_symbols(self) -> int:
        return len(self.alphabet)

    def __repr__(self) -> str:
        return f"ShiftSystem({self.kind}, d={self.d}, {self.n_symbols} symbols)"

    def symbol_index(self, symbol) -> int:
        try:
            return self.alphabet.index(symbol)
        except ValueError:
            raise ValueError("unknown symbol") from None

    def _block_entropy(self, alpha, F: FolnerSubset, C, W, cap: int) -> float:
        if F.d != self.d:
            raise ValueError("dimension mismatch")
        cells = resolve_cells(self, alpha)
        k = len(F)
        if C.kind == "trivial":
            if self.kind == "bernoulli":
                # product measure: patterns factor over sites exactly
                return k * _kept(self, (cells, C), _site_entropy, self, cells, C)
            if cells.n_cells == self.n_symbols:
                _guard_patterns(self.n_symbols, k, cap)
                return markov_window_entropy(_chain_of(self), F.rows[:, 0])
            return entropy_from_probs(window_partition(self, F, cells, cap))
        if C.kind == "symbol_factor":
            C.factor_partition(self.alphabet)  # a map that misses a symbol raises first
            W = _resolve_window(F, W)
            if self.kind == "bernoulli":
                # sites are independent, so only the factor at F's own sites binds
                return k * _kept(self, (cells, C), _site_entropy, self, cells, C)
            return symbol_factor_entropy((self,), (1.0,), 0.0, (cells,), F, C, W, cap)
        raise IncompatibleSubAlgebraError("incompatible sub-algebra")

    def _mask_table(self, alpha, box: FolnerSubset, C, cap: int) -> Optional[np.ndarray]:
        """H(alpha^E | C) on every subset E of ``box`` in mask order (bit i
        picks row i of ``box``), from one ``markov_mask_entropies`` walk, where
        ``_block_entropy`` sends each such window to ``markov_window_entropy``:
        a Markov shift, full-symbol cells and trivial C. None elsewhere. The
        cap counts the patterns of the whole box, so it raises as the
        per-window value of the box would.
        """
        if self.kind != "markov" or C.kind != "trivial":
            return None
        if box.d != self.d or resolve_cells(self, alpha).n_cells != self.n_symbols:
            return None
        _guard_patterns(self.n_symbols, len(box), cap)
        return markov_mask_entropies(_chain_of(self), box.rows[:, 0])

    def _walking(self) -> "ShiftSystem":
        walking = copy.copy(self)
        walking._walk, walking._memo = _chain_of(self), {}
        return walking

    def _exact_rate(self) -> None:
        return None

    # a shift's ergodic decomposition is not computed; as a component it is certified
    def _certified(self):
        raise TypeError("unsupported system kind")

    _is_ergodic = is_ergodic_model

    def _fixed_witness(self, C):
        raise TypeError("unsupported system kind")

    def _window_partition(self, F: FolnerSubset, alpha, cap: int) -> np.ndarray:
        if F.d != self.d:
            raise ValueError("dimension mismatch")
        cells = resolve_cells(self, alpha)
        k = len(F)
        if self.kind == "bernoulli":
            _guard_patterns(cells.n_cells, k, cap)
            with np.errstate(divide="ignore"):
                return np.exp(iid_pattern_logprobs(np.log(_cell_masses(self, cells)), k))
        # a Markov window's cap counts its m^k symbol words, at least its cell patterns
        _guard_patterns(self.n_symbols, k, cap)
        if cells.n_cells == self.n_symbols:
            # full symbol partition: the kernel output is already cellwise
            return symbol_pattern_probs(self, F, cap)
        return hidden_markov_pattern_probs(_chain_of(self), F.rows[:, 0], cells.cell_labels())

    def _cylinder(self, window: FolnerSubset, word: Mapping) -> float:
        if window.d != self.d:
            raise ValueError("dimension mismatch")
        elems = list(window)
        missing = [e for e in elems if e not in word]
        if missing:
            raise ValueError("word must cover the window")
        if not elems:
            return 1.0
        if self.kind == "bernoulli":
            total = 1.0
            for e in elems:
                total *= float(self.probs[self.symbol_index(word[e])])
            return total
        # markov, d = 1
        positions = [e[0] for e in elems]
        syms = [self.symbol_index(word[e]) for e in elems]
        span = positions[-1] - positions[0] + 1
        gap_positions = [t for t in range(positions[0], positions[-1] + 1) if t not in set(positions)]
        if len(gap_positions) > GAP_CAP:
            raise EnumerationCapError("gap cap exceeded")
        pi, P = self.pi, self.P
        m = self.n_symbols
        fixed = dict(zip(positions, syms))
        total = 0.0
        for filling in itertools.product(range(m), repeat=len(gap_positions)):
            seq = []
            fill = dict(zip(gap_positions, filling))
            for t in range(positions[0], positions[0] + span):
                seq.append(fixed.get(t, fill.get(t)))
            p = float(pi[seq[0]])
            for a, b in zip(seq, seq[1:]):
                p *= float(P[a, b])
            total += p
        return total

    def _shift_alphabet(self) -> tuple:
        return self.alphabet

    _factor_alphabet = _shift_alphabet

    def _read_partition(self, spec, read) -> SymbolPartition:
        return SymbolPartition(self.alphabet, read(spec, "cells"))

    def _read_invariant(self, spec, read):
        raise ValueError("invariant partitions condition finite systems")

    def _read_beta(self, spec, read) -> tuple:
        return read(spec, "groups"), None


def bernoulli_shift(probs: Sequence[float], d: int = 1, alphabet: Optional[Sequence] = None) -> ShiftSystem:
    """Product-measure shift on (alphabet)^(Z^d) with site distribution
    ``probs``: finite, nonnegative masses summing to 1."""
    probs = np.array(probs, dtype=np.float64)
    if probs.ndim != 1 or probs.shape[0] < 1:
        raise ValueError("site distribution must be a nonempty vector")
    _probabilities(probs)
    d = _dimension(d)
    if alphabet is None:
        alphabet = tuple(range(probs.shape[0]))
    alphabet = tuple(alphabet)
    if len(alphabet) != probs.shape[0]:
        raise ValueError("alphabet and distribution must align")
    return ShiftSystem(d, alphabet, "bernoulli", probs=probs)


def markov_shift(
    pi: Optional[Sequence[float]],
    P: Sequence[Sequence[float]],
    alphabet: Optional[Sequence] = None,
    stationarity_tol: float = STATIONARITY_TOL,
) -> ShiftSystem:
    """Stationary Markov shift on alphabet^Z (d = 1 only).

    ``P`` must be a finite, nonnegative matrix with rows summing to 1.
    ``pi`` may be None, in which case the unique stationary vector is
    solved from ``P`` (see :func:`stationary_vector`); a supplied ``pi``
    must be a finite probability vector, stationary within
    ``stationarity_tol``.
    """
    P = np.array(P, dtype=np.float64)
    if P.ndim != 2 or P.shape[0] != P.shape[1] or P.shape[0] < 1:
        raise ValueError("square transition matrix required")
    m = P.shape[0]
    if np.any(P < 0.0):
        raise ValueError("negative transition probability")
    if np.max(np.abs(P.sum(axis=1) - 1.0)) > MASS_TOL:
        raise ValueError("transition rows must sum to 1")
    if not np.isfinite(P).all():
        raise ValueError("transition probabilities must be finite")
    if pi is None:
        pi = stationary_vector(P)
    pi = np.array(pi, dtype=np.float64)
    if pi.ndim != 1 or pi.shape[0] != m:
        raise ValueError("pi and P must align")
    _probabilities(pi)
    if float(np.max(np.abs(pi @ P - pi))) > stationarity_tol:
        raise ValueError("pi is not stationary for P")
    if alphabet is None:
        alphabet = tuple(range(m))
    alphabet = tuple(alphabet)
    if len(alphabet) != m:
        raise ValueError("alphabet and distribution must align")
    P.flags.writeable = False
    return ShiftSystem(1, alphabet, "markov", pi=pi, P=P)


# ---------------------------------------------------------------------------
# conditioning sub-algebras
# ---------------------------------------------------------------------------


class SubAlgebraSpec:
    """Declarative choice of the conditioning sub-sigma-algebra.

    Kinds: ``trivial`` (no conditioning), ``invariant_partition`` (a
    finite partition fixed by the action, for finite systems), and
    ``symbol_factor`` (a surjection of the alphabet onto factor symbols,
    for shifts; invariant by construction).

    A spec is immutable: setting or deleting an attribute raises
    ``AttributeError``, and ``factor_map`` is a read-only copy of the
    map given. So one spec serves every row of a trace, and
    ``_as_subalgebra(None)`` hands out one shared trivial spec. A
    symbol factor builds its factor partition once per alphabet
    (``factor_partition``) and its join with each cell partition once
    (``_joined``).
    """

    __slots__ = ("kind", "partition", "factor_map", "_factors", "_joins")

    def __init__(self, kind: str, partition: Optional[Partition] = None, factor_map: Optional[Mapping] = None):
        if kind not in ("trivial", "invariant_partition", "symbol_factor"):
            raise ValueError("unknown sub-algebra kind")
        factor_map = MappingProxyType(dict(factor_map)) if factor_map is not None else None
        if kind == "invariant_partition" and partition is None:
            raise ValueError("partition required")
        if kind == "symbol_factor" and not factor_map:
            raise ValueError("factor map required")
        for name, value in zip(self.__slots__, (kind, partition, factor_map, {}, {})):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *value):
        raise AttributeError("SubAlgebraSpec is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        # a copy, or an unpickled spec, is built anew with empty caches
        return type(self), (self.kind, self.partition, self.factor_map and dict(self.factor_map))

    @classmethod
    def trivial(cls) -> "SubAlgebraSpec":
        return cls("trivial")

    @classmethod
    def invariant_partition(cls, partition: Partition) -> "SubAlgebraSpec":
        return cls("invariant_partition", partition=partition)

    @classmethod
    def symbol_factor(cls, factor_map: Mapping) -> "SubAlgebraSpec":
        return cls("symbol_factor", factor_map=factor_map)

    def __repr__(self) -> str:
        return f"SubAlgebraSpec({self.kind})"

    def factor_partition(self, alphabet: Sequence) -> SymbolPartition:
        """The symbol partition induced by the factor map on ``alphabet``,
        built on the first call for that alphabet and kept."""
        if self.kind != "symbol_factor":
            raise IncompatibleSubAlgebraError("incompatible sub-algebra")
        alphabet = tuple(alphabet)
        phi = self._factors.get(alphabet)
        if phi is None:
            missing = [s for s in alphabet if s not in self.factor_map]
            if missing:
                raise ValueError("factor map must cover the alphabet")
            if len(set(alphabet)) != len(alphabet):
                raise ValueError("duplicate symbols")
            phi = SymbolPartition._grouped(alphabet, map(self.factor_map.__getitem__, alphabet))
            self._factors[alphabet] = phi
        return phi

    def _joined(self, cells: SymbolPartition) -> SymbolPartition:
        """``cells`` joined with the factor partition on their alphabet,
        built on the first call for those cells and kept."""
        joint = self._joins.get(cells)
        if joint is None:
            joint = self._joins[cells] = cells.join(self.factor_partition(cells.alphabet))
        return joint


_TRIVIAL = SubAlgebraSpec.trivial()


def _as_subalgebra(C) -> SubAlgebraSpec:
    if C is None:
        return _TRIVIAL
    if isinstance(C, SubAlgebraSpec):
        return C
    raise TypeError("conditioning must be a SubAlgebraSpec or None")


# ---------------------------------------------------------------------------
# mixtures
# ---------------------------------------------------------------------------


class MixtureSystem:
    """Tagged disjoint union of systems with finite, positive weights summing to 1.

    The component tag is a fixed (G-invariant) observable, so the tag
    partition always decomposes the union; pattern measures combine as
    mu = sum_i w_i mu_i with patterns tagged by component. ``_memo`` holds
    the kept values of a walking copy (``_kept``) and is None otherwise.
    """

    __slots__ = ("components", "weights", "d", "_memo")

    def __init__(self, components: Sequence, weights: Sequence[float]):
        components = tuple(components)
        w = np.array(weights, dtype=np.float64)
        if len(components) < 1:
            raise ValueError("at least one component required")
        if w.ndim != 1 or w.shape[0] != len(components):
            raise ValueError("weights and components must align")
        if np.any(w <= 0.0):
            raise ValueError("weights must be positive")
        _probabilities(w)
        dims = {c.d for c in components}
        if len(dims) != 1:
            raise ValueError("dimension mismatch")
        self.components = components
        self.weights = w
        self.d = dims.pop()
        self._memo = None

    def __repr__(self) -> str:
        return f"MixtureSystem({len(self.components)} components, d={self.d})"

    def tag_grouping(self) -> tuple:
        """The tag partition, as a grouping of component indices."""
        return tuple((i,) for i in range(len(self.components)))

    def shared_alphabet(self) -> tuple:
        """Common alphabet of all (shift) components; error if absent."""
        alphabets = {comp._shift_alphabet() for comp in self.components}
        if None in alphabets:
            raise IncompatibleSubAlgebraError("incompatible sub-algebra")
        if len(alphabets) != 1:
            raise IncompatibleSubAlgebraError("components do not share an alphabet")
        return alphabets.pop()

    def _block_entropy(self, alpha, F: FolnerSubset, C, W, cap: int) -> float:
        alphas = _mixture_alphas(self, alpha)
        if C.kind == "trivial":
            # tagged supports are disjoint: H = H(weights) + sum w_i H_i exactly
            total = _kept(self, "tags", entropy_from_probs, self.weights)
            for comp, a, w in zip(self.components, alphas, self.weights):
                total += float(w) * conditional_block_entropy(comp, a, F, None, None, cap)
            return total
        if C.kind == "symbol_factor":
            if F.d != self.d:
                raise ValueError("dimension mismatch")
            C.factor_partition(self.shared_alphabet())  # a map that misses a symbol raises first
            W = _resolve_window(F, W)
            tags = _kept(self, "tags", entropy_from_probs, self.weights)
            return symbol_factor_entropy(self.components, self.weights, tags, alphas, F, C, W, cap)
        raise IncompatibleSubAlgebraError("incompatible sub-algebra")

    def _walking(self) -> "MixtureSystem":
        walking = copy.copy(self)
        walking.components = tuple(comp._walking() for comp in self.components)
        walking._memo = {}
        return walking

    def _exact_rate(self) -> Optional[float]:
        # components of exact rate 0.0 (finite actions, or mixtures of them):
        # H(alpha^F) <= H(weights) + sum w_i H_i(alpha^F), each bounded in |F|
        return 0.0 if all(comp._exact_rate() == 0.0 for comp in self.components) else None

    def _certified(self) -> bool:
        return all(comp._is_ergodic() for comp in self.components)

    def _components(self) -> dict:
        return {"kind": "tags", "groups": self.tag_grouping()}

    def _is_ergodic(self) -> bool:
        return False

    def _fixed_witness(self, C) -> None:
        # any valid grouping is fixed: each component measure is shift-invariant
        groups = tuple(tuple(int(i) for i in grp) for grp in C)
        if sorted(i for grp in groups for i in grp) != list(range(len(self.components))):
            raise ValueError("grouping must partition the component indices")

    def _split(self, beta, alpha, spec) -> list:
        if spec.kind not in ("trivial", "symbol_factor"):
            raise IncompatibleSubAlgebraError("incompatible sub-algebra")
        groups = self.tag_grouping() if beta is None else tuple(tuple(int(i) for i in grp) for grp in beta)
        is_fixed_partition(self, groups)  # raises unless a valid grouping
        alphas = _mixture_alphas(self, alpha)
        rows = []
        for grp in groups:
            wG = float(sum(float(self.weights[i]) for i in grp))
            if len(grp) == 1:
                sub, sub_alpha = self.components[grp[0]], alphas[grp[0]]
            else:
                sub = mixture([self.components[i] for i in grp], [float(self.weights[i]) / wG for i in grp])
                sub_alpha = [alphas[i] for i in grp]
            rows.append(("component:" + ",".join(str(i) for i in grp), wG, sub, sub_alpha))
        return rows

    def _window_partition(self, F: FolnerSubset, alpha, cap: int) -> np.ndarray:
        alphas = _mixture_alphas(self, alpha)
        total = 0
        for comp, a in zip(self.components, alphas):
            if comp._shift_alphabet() is None:
                raise TypeError("window patterns apply to shift components")
            total += resolve_cells(comp, a).n_cells ** len(F)
        if total > cap:
            raise EnumerationCapError("pattern cap exceeded")
        return np.concatenate([
            float(w) * window_partition(comp, F, a, cap)
            for comp, a, w in zip(self.components, alphas, self.weights)
        ])

    def _cylinder(self, window: FolnerSubset, word: Mapping) -> float:
        self.shared_alphabet()
        return float(sum(float(w) * comp._cylinder(window, word) for comp, w in zip(self.components, self.weights)))

    def _factor_alphabet(self) -> tuple:
        return self.shared_alphabet()

    def _read_partition(self, spec, read):
        """One spec for every component, read on the first, or one spec (or null) per component."""
        if not isinstance(spec, list):
            return self.components[0]._read_partition(spec, read)
        if len(spec) != len(self.components):
            raise ValueError("one partition per component required")
        return [None if s is None else c._read_partition(s, read) for c, s in zip(self.components, spec)]

    # as a finite action, a mixture has no mask table and no single alphabet;
    # as a shift, it reads no invariant partition and reads beta as groups
    _mask_table, _shift_alphabet = FinitePMPAction._mask_table, FinitePMPAction._shift_alphabet
    _read_invariant, _read_beta = ShiftSystem._read_invariant, ShiftSystem._read_beta


def mixture(components: Sequence, weights: Sequence[float]) -> MixtureSystem:
    """Tagged union of ``components`` with the given positive weights."""
    return MixtureSystem(components, weights)


def _chain_of(system: ShiftSystem) -> _Chain:
    """The walk record of a walking copy's shift, or a fresh one. A product
    measure is the chain whose rows all equal its site distribution."""
    if system._walk is not None:
        return system._walk
    if system.kind == "bernoulli":
        return _Chain(system.probs, np.repeat(system.probs[None], system.n_symbols, axis=0))
    return _Chain(system.pi, system.P)


def _kept(system, key, make, *args):
    """``make(*args)``, made once per walking copy (``_walking``), which
    keeps it in its ``_memo`` under ``key``, and on every call of any
    other system. The rows of a trace share one walking copy, so what
    they all read is made at its first row."""
    if system._memo is None:
        return make(*args)
    value = system._memo.get(key)
    if value is None:
        value = system._memo[key] = make(*args)
    return value


def _site_entropy(system: ShiftSystem, cells: SymbolPartition, C: SubAlgebraSpec) -> float:
    """One site's H(cells | C) under a product measure: H(cells), or
    H(cells v phi) - H(phi) given a symbol factor phi."""
    if C.kind == "trivial":
        return entropy_from_probs(_cell_masses(system, cells))
    joint, marginal = C._joined(cells), C.factor_partition(system.alphabet)
    return entropy_from_probs(_cell_masses(system, joint)) - entropy_from_probs(_cell_masses(system, marginal))


def _require_system(system):
    """``system``, which must be of one of the three system kinds: the
    package's one test of a system's class (see the module docstring)."""
    if not isinstance(system, (FinitePMPAction, ShiftSystem, MixtureSystem)):
        raise TypeError("unsupported system kind")
    return system


# ---------------------------------------------------------------------------
# cylinder measures (oracle route: explicit products and gap sums)
# ---------------------------------------------------------------------------


def cylinder_measure(system, window: FolnerSubset, word: Mapping) -> float:
    """Measure of one cylinder: the set of points showing ``word`` on ``window``.

    ``word`` maps each window element to a symbol. Product measures
    multiply site masses. Markov measures multiply path steps along the
    window's span, summing explicitly over all fillings of the gaps
    between window positions; the total gap length is capped at
    ``GAP_CAP`` because that sum is exponential. Mixtures combine
    components by weight (shared alphabet required).
    """
    return _require_system(system)._cylinder(window, word)


def _guard_patterns(n_cells: int, length: int, cap: int) -> int:
    count = int(n_cells) ** int(length)
    if count > cap:
        raise EnumerationCapError("pattern cap exceeded")
    return count


def resolve_cells(system: ShiftSystem, alpha: Optional[SymbolPartition]) -> SymbolPartition:
    """Default to the zero-coordinate symbol partition; validate alphabets."""
    if alpha is None:
        return system.base_partition
    if not isinstance(alpha, SymbolPartition):
        raise TypeError("shift partitions are symbol partitions")
    if alpha.alphabet != system.alphabet:
        raise ValueError("alphabet mismatch")
    return alpha


def symbol_pattern_logprobs(system: ShiftSystem, F: FolnerSubset, cap: int = DEFAULT_PATTERN_CAP) -> np.ndarray:
    """Log-measures of all full-symbol patterns on the window ``F``.

    Element-major indexing over F's rows. Stationarity makes the
    result depend only on the window's shape, never its location.
    """
    k = len(F)
    m = system.n_symbols
    _guard_patterns(m, k, cap)
    if system.kind == "bernoulli":
        with np.errstate(divide="ignore"):
            log_p = np.log(system.probs)
        return iid_pattern_logprobs(log_p, k)
    if _is_interval(F.rows[:, 0]):
        with np.errstate(divide="ignore"):
            return markov_interval_logprobs(np.log(system.pi), np.log(system.P), k)
    probs = markov_window_probs(system.pi, system.P, F.rows[:, 0])
    with np.errstate(divide="ignore"):
        return np.log(probs)


def symbol_pattern_probs(system: ShiftSystem, F: FolnerSubset, cap: int = DEFAULT_PATTERN_CAP) -> np.ndarray:
    """Measures of all full-symbol patterns on the window ``F``."""
    k = len(F)
    _guard_patterns(system.n_symbols, k, cap)
    if system.kind == "markov" and k > 0 and not _is_interval(F.rows[:, 0]):
        return markov_window_probs(system.pi, system.P, F.rows[:, 0])
    return np.exp(symbol_pattern_logprobs(system, F, cap))


def _cell_masses(system: ShiftSystem, cells: SymbolPartition) -> np.ndarray:
    """One-site masses of a product measure's cells, in cell order; each
    is summed one symbol at a time in alphabet order."""
    return np.bincount(cells.cell_labels(), weights=system.probs)


def subpattern_codes(
    n_sym: int,
    length: int,
    sub_positions: Sequence[int],
    cell_of: np.ndarray,
    n_cells: int,
) -> np.ndarray:
    """Cell-pattern index on a position subset, per full symbol pattern.

    For each of the ``n_sym ** length`` element-major symbol patterns,
    packs the cells (``cell_of``) of the symbols at ``sub_positions``
    (window element indices) base-``n_cells`` in the listed order: window
    position j weighs its cell by the sum of n_cells^(L-1-t) over the t
    with ``sub_positions[t] == j``, L = len(sub_positions), so positions
    may repeat or be unsorted. Exact int64, one position per step.
    """
    cell_of = np.asarray(cell_of, dtype=np.int64)
    if cell_of.shape != (n_sym,):
        raise ValueError("cell_of must give one cell per symbol")
    weights = [0] * length
    for t, j in enumerate(reversed(sub_positions)):
        weights[j] += n_cells**t
    code = np.zeros(1, dtype=np.int64)
    for w in weights:
        code = (code[:, None] + np.int64(w) * cell_of).ravel()
    return code


def window_partition(system, F: FolnerSubset, alpha=None, cap: int = DEFAULT_PATTERN_CAP) -> np.ndarray:
    """Masses of all cell patterns on the window ``F``, as one float64 array.

    For a shift system this is the weighted partition alpha^F: every
    assignment of ``alpha``-cells to window elements, with its cylinder
    measure, filled through the numpy kernels. The array is element-major
    over F's sorted rows, first row most significant: the pattern
    (c_1, ..., c_k) sits at ``np.ravel_multi_index(pattern, (n_cells,) * k)``.
    Coarse cells on a Markov window come from the forward recursion,
    which never enumerates symbol words, though the cap still counts the
    m^|F| symbol patterns there. For a mixture of shifts the result is
    the concatenation, in component order, of each component's array
    times its weight; tagged supports are disjoint, so its entropy is the
    union's. The pattern count n_cells^|F| (summed over components) is
    capped.
    """
    return _require_system(system)._window_partition(F, alpha, cap)


def symbol_factor_entropy(
    components: Sequence[ShiftSystem], weights: Sequence[float], tag_entropy: float, alphas: Sequence,
    F: FolnerSubset, C: SubAlgebraSpec, W: FolnerSubset, cap: int = DEFAULT_PATTERN_CAP,
) -> float:
    """H(alpha^F | phi^W) for shifts on a shared alphabet, mixed by weight,
    phi the factor partition of the symbol factor ``C``.

    Tagged supports are disjoint, so H = H(weights) + sum_i w_i
    H_i(alpha^F v phi^W) - H(sum_i w_i p_i(phi^W)); ``tag_entropy`` is
    H(weights), 0.0 for a single shift, the one-component family of
    weight 1.0. Each joint term is H_i(phi^W) when phi is full-symbol,
    the Markov closed form when alpha v phi is full-symbol and W = F, and
    otherwise a forward recursion over cell patterns: alpha v phi cells
    on F's sites, phi cells elsewhere. ``C`` keeps phi and each
    alpha v phi (``_joined``). Both kernels of a component walk its one
    chain record (``_chain_of``), so they share each P^g. A product
    measure, in any dimension, is read at consecutive offsets: P^g = P
    for every g >= 1. No symbol word is enumerated, but the cap still
    counts m^|W| per component, summed, and is checked before any
    component's cells are resolved. ``F`` must lie inside ``W``.
    """
    K = len(W)
    phi = C.factor_partition(components[0].alphabet)
    m = len(phi.alphabet)
    if len(components) * m**K > cap:
        raise EnumerationCapError("pattern cap exceeded")
    whole = len(F) == K  # F lies inside W, so F = W
    if not whole:
        in_F = np.zeros((K, 1), dtype=bool)
        in_F[W.locate(F)] = True
    phi_cells = phi.cell_labels()
    total = tag_entropy
    marginal = np.zeros(phi.n_cells**K)
    for comp, a, w in zip(components, alphas, weights):
        joint = C._joined(resolve_cells(comp, a))
        chain = _chain_of(comp)
        offsets = np.arange(K) if comp.kind == "bernoulli" else W.rows[:, 0]
        p_phi = hidden_markov_pattern_probs(chain, offsets, phi_cells)
        if phi.n_cells == m:
            # a full-symbol phi already separates every symbol: alpha^F v phi^W = phi^W
            H_joint = entropy_from_probs(p_phi)
        elif joint.n_cells == m and whole:
            H_joint = markov_window_entropy(chain, offsets)
        else:
            cells = joint.cell_labels() if whole else np.where(in_F, joint.cell_labels(), phi_cells)
            H_joint = entropy_from_probs(hidden_markov_pattern_probs(chain, offsets, cells))
        total += float(w) * H_joint
        marginal += float(w) * p_phi
    return total - entropy_from_probs(marginal)


def _mixture_alphas(system: MixtureSystem, alpha) -> list:
    """Resolve a mixture's partition argument to one entry per component.

    Accepts None (each component's natural base partition), a single
    partition of either kind, which every component checks as its own,
    or a sequence with one entry per component.
    """
    k = len(system.components)
    if alpha is None or isinstance(alpha, (Partition, SymbolPartition)):
        return [alpha] * k
    alphas = list(alpha)
    if len(alphas) != k:
        raise ValueError("one partition per component required")
    return alphas


def _resolve_window(F: FolnerSubset, conditioning_window: Optional[FolnerSubset]) -> FolnerSubset:
    if conditioning_window is None:
        return F
    if conditioning_window.d != F.d:
        raise ValueError("dimension mismatch")
    if not F.issubset(conditioning_window):
        raise ValueError("conditioning window must contain the window")
    return conditioning_window


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
    window ``F``. Each system kind has one route per conditioning, its
    ``_block_entropy``. Finite actions use exact partition algebra.
    Bernoulli shifts are closed-form at every window size from one-site
    cell masses, k * H(cells) or k * (H(cells v phi) - H(phi)) under a
    symbol factor phi, and so are mixtures under trivial conditioning
    (tagged supports are disjoint, so H = H(weights) + sum_i w_i H_i). No
    Markov route enumerates symbol words: full-symbol windows take the
    chain-rule closed form H(pi) + sum_j H(X_{t_{j+1}} | X_{t_j}), coarse
    cells go through ``window_partition``'s forward recursion over cell
    patterns, and a symbol factor on a Markov shift or a mixture of
    shifts goes through ``symbol_factor_entropy`` (a single shift is one
    component of weight 1), which combines both. The cap still counts the
    m^|W| symbol patterns of each such window and raises
    ``EnumerationCapError`` above it, before any work.
    ``conditioning_window`` W (default F; finite actions take none) is
    where a symbol factor is read, and must contain F. For product
    measures only the factor at F's own sites binds, so every such W
    gives the exact value; for Markov measures it is a monotone upper
    approximation that tightens as W grows.
    """
    C = _as_subalgebra(C)
    return _require_system(system)._block_entropy(alpha, F, C, conditioning_window, cap)
