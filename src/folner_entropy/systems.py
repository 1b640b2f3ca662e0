"""Concrete Z^d systems: finite permutation actions, product and Markov shifts, mixtures.

Three system kinds share the window-measure interface the rate engine
drives:

- ``FinitePMPAction``: d commuting mass-preserving permutations of a
  finite space, held as index arrays; a window partition joins the
  label rows of alpha pulled back through every T_g, everything exact.
- ``ShiftSystem``: the full shift over a finite alphabet with either a
  product (any d) or a stationary Markov (d = 1) measure; window
  measures come from the numpy kernels.
- ``MixtureSystem``: a tagged disjoint union with positive weights;
  measures are weight-combined componentwise.

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
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from ._kernels import (
    _Chain,
    entropy_from_probs,
    hidden_markov_pattern_probs,
    iid_pattern_logprobs,
    markov_interval_logprobs,
    markov_window_entropy,
    markov_window_probs,
)
from .groups import FolnerSubset, GroupElement, _dimension, neg
from .spaces import (
    MASS_TOL,
    FiniteProbabilitySpace,
    Partition,
    _block_labels,
    _coarser,
    _first_codes,
    _probabilities,
    _pullback,
    _require_same_space,
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


class FinitePMPAction:
    """Z^d acting on a finite space by d commuting mass-preserving permutations.

    ``generators[i]`` is the index map of the i-th basis translation:
    atom index j is sent to ``generators[i][j]``. Each generator must
    be a permutation of integer atom indices (floats and bools are
    rejected, not cast) that preserves masses atomwise (bit-exact), and
    all generators must commute; the three checks run as array
    comparisons at construction. The generators are stored as int64
    index arrays, together with their inverses.
    """

    __slots__ = ("space", "_gens", "_invs", "d")

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


def act(system: FinitePMPAction, g: GroupElement, alpha: Partition) -> Partition:
    """Image partition T_g(alpha) = {T_g A : A in alpha}.

    An atom lies in T_g A exactly when its T_{-g}-image lies in A, so
    the image's labels are alpha's labels pulled back through
    ``atom_map(-g)``: one gather, then the canonical relabelling.
    """
    _require_same_space(system.space, alpha.space)
    return _pullback(alpha, system.atom_map(neg(g)))


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
    n = P.shape[0]
    if P.ndim != 2 or P.shape[1] != n:
        raise ValueError("square matrix required")
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


class ShiftSystem:
    """Z^d shift over a finite alphabet with a shift-invariant measure.

    Use :func:`bernoulli_shift` or :func:`markov_shift` to construct.
    ``base_partition`` is the zero-coordinate symbol partition; window
    partitions refine it along finite subsets of Z^d. ``_walk`` is the
    walk record of a walking copy (``_walking``) and None otherwise.
    """

    __slots__ = ("d", "alphabet", "kind", "probs", "pi", "P", "base_partition", "_walk")

    def __init__(self, d, alphabet, kind, probs=None, pi=None, P=None):
        self.d = d
        self.alphabet = tuple(alphabet)
        self.kind = kind
        self.probs = probs
        self.pi = pi
        self.P = P
        self.base_partition = SymbolPartition.full(self.alphabet)
        self._walk = None

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
    m = P.shape[0]
    if P.ndim != 2 or P.shape[1] != m or m < 1:
        raise ValueError("square transition matrix required")
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


# ---------------------------------------------------------------------------
# conditioning sub-algebras
# ---------------------------------------------------------------------------


class SubAlgebraSpec:
    """Declarative choice of the conditioning sub-sigma-algebra.

    Kinds: ``trivial`` (no conditioning), ``invariant_partition`` (a
    finite partition fixed by the action, for finite systems), and
    ``symbol_factor`` (a surjection of the alphabet onto factor symbols,
    for shifts; invariant by construction).
    """

    __slots__ = ("kind", "partition", "factor_map")

    def __init__(self, kind: str, partition: Optional[Partition] = None, factor_map: Optional[Mapping] = None):
        if kind not in ("trivial", "invariant_partition", "symbol_factor"):
            raise ValueError("unknown sub-algebra kind")
        self.kind = kind
        self.partition = partition
        self.factor_map = dict(factor_map) if factor_map is not None else None
        if kind == "invariant_partition" and partition is None:
            raise ValueError("partition required")
        if kind == "symbol_factor" and not self.factor_map:
            raise ValueError("factor map required")

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
        """The symbol partition induced by the factor map on ``alphabet``."""
        if self.kind != "symbol_factor":
            raise IncompatibleSubAlgebraError("incompatible sub-algebra")
        alphabet = tuple(alphabet)
        missing = [s for s in alphabet if s not in self.factor_map]
        if missing:
            raise ValueError("factor map must cover the alphabet")
        if len(set(alphabet)) != len(alphabet):
            raise ValueError("duplicate symbols")
        return SymbolPartition._grouped(alphabet, map(self.factor_map.__getitem__, alphabet))


# ---------------------------------------------------------------------------
# mixtures
# ---------------------------------------------------------------------------


class MixtureSystem:
    """Tagged disjoint union of systems with finite, positive weights summing to 1.

    The component tag is a fixed (G-invariant) observable, so the tag
    partition always decomposes the union; pattern measures combine as
    mu = sum_i w_i mu_i with patterns tagged by component.
    """

    __slots__ = ("components", "weights", "d")

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

    def __repr__(self) -> str:
        return f"MixtureSystem({len(self.components)} components, d={self.d})"

    def tag_grouping(self) -> tuple:
        """The tag partition, as a grouping of component indices."""
        return tuple((i,) for i in range(len(self.components)))

    def shared_alphabet(self) -> tuple:
        """Common alphabet of all (shift) components; error if absent."""
        alphabets = set()
        for comp in self.components:
            if not isinstance(comp, ShiftSystem):
                raise IncompatibleSubAlgebraError("incompatible sub-algebra")
            alphabets.add(comp.alphabet)
        if len(alphabets) != 1:
            raise IncompatibleSubAlgebraError("components do not share an alphabet")
        return alphabets.pop()


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


def _walking(system):
    """A shallow copy of ``system``, of its own class and unvalidated, whose
    shifts (mixture components included) each hold a fresh walk record;
    anything but a shift or a mixture is returned as it is."""
    if isinstance(system, MixtureSystem):
        walking = copy.copy(system)
        walking.components = tuple(map(_walking, system.components))
    elif isinstance(system, ShiftSystem):
        walking = copy.copy(system)
        walking._walk = _chain_of(system)
    else:
        walking = system
    return walking


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
    if isinstance(system, MixtureSystem):
        system.shared_alphabet()
        return float(
            sum(
                float(w) * cylinder_measure(comp, window, word)
                for comp, w in zip(system.components, system.weights)
            )
        )
    if not isinstance(system, ShiftSystem):
        raise TypeError("cylinder measures apply to shift systems and mixtures")
    if window.d != system.d:
        raise ValueError("dimension mismatch")
    elems = list(window)
    missing = [e for e in elems if e not in word]
    if missing:
        raise ValueError("word must cover the window")
    if not elems:
        return 1.0
    if system.kind == "bernoulli":
        total = 1.0
        for e in elems:
            total *= float(system.probs[system.symbol_index(word[e])])
        return total
    # markov, d = 1
    positions = [e[0] for e in elems]
    syms = [system.symbol_index(word[e]) for e in elems]
    span = positions[-1] - positions[0] + 1
    gap_positions = [t for t in range(positions[0], positions[-1] + 1) if t not in set(positions)]
    if len(gap_positions) > GAP_CAP:
        raise EnumerationCapError("gap cap exceeded")
    pi, P = system.pi, system.P
    m = system.n_symbols
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


def _is_interval(F: FolnerSubset) -> bool:
    """True for a nonempty d = 1 window without gaps: its sorted, unique
    positions span exactly |F| sites."""
    return len(F) > 0 and int(F.rows[-1, 0] - F.rows[0, 0]) == len(F) - 1


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
    if _is_interval(F):
        with np.errstate(divide="ignore"):
            return markov_interval_logprobs(np.log(system.pi), np.log(system.P), k)
    probs = markov_window_probs(system.pi, system.P, F.rows[:, 0])
    with np.errstate(divide="ignore"):
        return np.log(probs)


def symbol_pattern_probs(system: ShiftSystem, F: FolnerSubset, cap: int = DEFAULT_PATTERN_CAP) -> np.ndarray:
    """Measures of all full-symbol patterns on the window ``F``."""
    k = len(F)
    _guard_patterns(system.n_symbols, k, cap)
    if system.kind == "markov" and k > 0 and not _is_interval(F):
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
    if isinstance(system, MixtureSystem):
        alphas = _mixture_alphas(system, alpha)
        total = 0
        for comp, a in zip(system.components, alphas):
            if not isinstance(comp, ShiftSystem):
                raise TypeError("window patterns apply to shift components")
            total += resolve_cells(comp, a).n_cells ** len(F)
        if total > cap:
            raise EnumerationCapError("pattern cap exceeded")
        return np.concatenate([
            float(w) * window_partition(comp, F, a, cap)
            for comp, a, w in zip(system.components, alphas, system.weights)
        ])
    if not isinstance(system, ShiftSystem):
        raise TypeError("window patterns apply to shift systems and mixtures")
    if F.d != system.d:
        raise ValueError("dimension mismatch")
    cells = resolve_cells(system, alpha)
    k = len(F)
    mc = cells.n_cells
    _guard_patterns(mc, k, cap)
    if system.kind == "bernoulli":
        with np.errstate(divide="ignore"):
            return np.exp(iid_pattern_logprobs(np.log(_cell_masses(system, cells)), k))
    if mc == system.n_symbols:
        # full symbol partition: the kernel output is already cellwise
        return symbol_pattern_probs(system, F, cap)
    _guard_patterns(system.n_symbols, k, cap)
    site_cells = [cells.cell_labels()] * k
    return hidden_markov_pattern_probs(_chain_of(system), F.rows[:, 0], site_cells)


def symbol_factor_entropy(
    components: Sequence[ShiftSystem], weights: Sequence[float], alphas: Sequence,
    F: FolnerSubset, phi: SymbolPartition, W: FolnerSubset, cap: int = DEFAULT_PATTERN_CAP,
) -> float:
    """H(alpha^F | phi^W) for shifts on a shared alphabet, mixed by weight.

    Tagged supports are disjoint, so H = H(weights) + sum_i w_i
    H_i(alpha^F v phi^W) - H(sum_i w_i p_i(phi^W)). Each joint term is
    H_i(phi^W) when phi is full-symbol, the Markov closed form when
    alpha v phi is full-symbol and W = F, and otherwise a forward
    recursion over cell patterns: alpha v phi cells on F's sites, phi
    cells elsewhere. Both kernels of a component walk its one chain
    record (``_chain_of``), so they share each P^g. A product measure,
    in any dimension, is read at consecutive offsets: P^g = P for every
    g >= 1. A single shift is the one-component family of weight 1.0. No
    symbol word is enumerated, but the cap still counts m^|W| per
    component, summed, and is checked before any component's cells are
    resolved. ``F`` must lie inside ``W``.
    """
    K = len(W)
    m = len(phi.alphabet)
    if len(components) * m**K > cap:
        raise EnumerationCapError("pattern cap exceeded")
    if W is F:
        in_F = np.ones(K, dtype=bool)
    else:
        in_F = np.zeros(K, dtype=bool)
        in_F[W.locate(F)] = True
    phi_cells = phi.cell_labels()
    total = entropy_from_probs(weights)
    marginal = np.zeros(phi.n_cells**K)
    for comp, a, w in zip(components, alphas, weights):
        joint = resolve_cells(comp, a).join(phi)
        chain = _chain_of(comp)
        offsets = np.arange(K) if comp.kind == "bernoulli" else W.rows[:, 0]
        p_phi = hidden_markov_pattern_probs(chain, offsets, [phi_cells] * K)
        if phi.n_cells == m:
            # a full-symbol phi already separates every symbol: alpha^F v phi^W = phi^W
            H_joint = entropy_from_probs(p_phi)
        elif joint.n_cells == m and in_F.all():
            H_joint = markov_window_entropy(chain, offsets)
        else:
            site_cells = [joint.cell_labels() if f else phi_cells for f in in_F.tolist()]
            H_joint = entropy_from_probs(hidden_markov_pattern_probs(chain, offsets, site_cells))
        total += float(w) * H_joint
        marginal += float(w) * p_phi
    return total - entropy_from_probs(marginal)


def _mixture_alphas(system: MixtureSystem, alpha) -> list:
    """Resolve a mixture's partition argument to one entry per component.

    Accepts None (each component's natural base partition), a single
    SymbolPartition (shared alphabet), or a sequence with one entry per
    component.
    """
    k = len(system.components)
    if alpha is None:
        return [None] * k
    if isinstance(alpha, SymbolPartition):
        return [alpha] * k
    alphas = list(alpha)
    if len(alphas) != k:
        raise ValueError("one partition per component required")
    return alphas
