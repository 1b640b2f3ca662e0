"""Concrete Z^d systems: finite permutation actions, product and Markov shifts, mixtures.

Three system kinds share the window-measure interface the rate engine
drives:

- ``FinitePMPAction``: d commuting mass-preserving permutations of a
  finite space, held as index arrays; a window partition joins the
  label rows of alpha pulled back through every T_g, everything exact.
- ``ShiftSystem``: the full shift over a finite alphabet with either a
  product (any d) or a stationary Markov (d = 1) measure; window
  measures come from the numpy enumeration kernels.
- ``MixtureSystem``: a tagged disjoint union with positive weights;
  measures are weight-combined componentwise.

Two routes to every measure are kept deliberately separate:
``cylinder_measure`` computes one word's mass by explicit products and
gap sums (oracle-grade, slow), while ``window_partition`` enumerates the
whole pattern space through the numpy kernels. ``symbol_factor_entropy``
enumerates the full-symbol patterns on a conditioning window once per
shift component, for a Markov shift or a mixture under a symbol factor.
Window entropies of product measures and of trivially conditioned
mixtures do not enumerate at all; the engine evaluates them in closed
form.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from ._kernels import (
    entropy_from_probs,
    iid_pattern_logprobs,
    markov_interval_logprobs,
    markov_window_probs,
)
from .groups import FolnerSubset, GroupElement, _dimension, neg
from .spaces import (
    FiniteProbabilitySpace,
    Partition,
    SpaceMismatchError,
    _pullback,
    same_space,
)

MASS_TOL = 1e-12
STATIONARITY_TOL = 1e-12
GAP_CAP = 20
DEFAULT_PATTERN_CAP = 1 << 20


class EnumerationCapError(RuntimeError):
    """Raised when a computation would enumerate more patterns than allowed."""


class IncompatibleSubAlgebraError(ValueError):
    """Raised when a conditioning choice does not apply to a system."""


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
            # only integer entries index atoms: floats and bools are not cast
            if g.dtype.kind not in "iu" or g.shape != (n,) or not (np.sort(g) == ident).all():
                raise ValueError("generator is not a permutation")
            g = g.astype(np.int64)
            if (space.masses[g] != space.masses).any():
                raise ValueError("generator does not preserve masses")
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

        Each generator power is built by binary powering of the
        generator's (or its inverse's) index array, so T_g costs
        O(d log|g|) gathers. The result is read-only.
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
    if not same_space(system.space, alpha.space):
        raise SpaceMismatchError("space mismatch")
    return _pullback(alpha, system.atom_map(neg(g)))


class SymbolPartition:
    """Partition of a shift alphabet into cells (a coarse-graining of symbols).

    Cells follow the same canonical ordering convention as space
    partitions: symbols in alphabet order inside each cell, cells
    ordered by their smallest symbol.
    """

    __slots__ = ("alphabet", "cells", "_cell_of")

    def __init__(self, alphabet: Sequence, cells: Iterable[Iterable]):
        alphabet = tuple(alphabet)
        pos = {s: i for i, s in enumerate(alphabet)}
        if len(pos) != len(alphabet):
            raise ValueError("duplicate symbols")
        seen: set = set()
        canon = []
        for raw in cells:
            idx = sorted(pos[s] for s in raw)
            if not idx:
                raise ValueError("empty cell")
            if len(set(idx)) != len(idx) or seen.intersection(idx):
                raise ValueError("cells overlap")
            seen.update(idx)
            canon.append(idx)
        if len(seen) != len(alphabet):
            raise ValueError("cells must cover the alphabet")
        canon.sort(key=lambda idx: idx[0])
        self.alphabet = alphabet
        self.cells = tuple(tuple(alphabet[i] for i in idx) for idx in canon)
        self._cell_of = {alphabet[i]: ci for ci, idx in enumerate(canon) for i in idx}

    @classmethod
    def full(cls, alphabet: Sequence) -> "SymbolPartition":
        """One cell per symbol: the zero-coordinate symbol partition."""
        return cls(alphabet, [[s] for s in alphabet])

    @classmethod
    def trivial(cls, alphabet: Sequence) -> "SymbolPartition":
        return cls(alphabet, [list(alphabet)])

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def cell_index(self, symbol) -> int:
        return self._cell_of[symbol]

    def cell_labels(self) -> np.ndarray:
        """Cell index per symbol, aligned with alphabet order."""
        return np.array([self._cell_of[s] for s in self.alphabet], dtype=np.int64)

    def join(self, other: "SymbolPartition") -> "SymbolPartition":
        if self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch")
        groups: dict = {}
        for s in self.alphabet:
            groups.setdefault((self._cell_of[s], other._cell_of[s]), []).append(s)
        return SymbolPartition(self.alphabet, groups.values())

    def refines(self, other: "SymbolPartition") -> bool:
        """True iff every cell of self lies inside a cell of ``other``."""
        if self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch")
        return all(len({other._cell_of[s] for s in cell}) == 1 for cell in self.cells)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymbolPartition):
            return NotImplemented
        return self.alphabet == other.alphabet and self.cells == other.cells

    def __hash__(self) -> int:
        return hash((self.alphabet, self.cells))

    def __repr__(self) -> str:
        return f"SymbolPartition({self.n_cells} cells / {len(self.alphabet)} symbols)"


def stationary_vector(P: np.ndarray) -> np.ndarray:
    """Stationary row vector of a stochastic matrix by a direct linear solve.

    Solves pi (P - I) = 0 together with sum(pi) = 1, which works for
    periodic chains as well. Raises ``ValueError`` when the solution is
    not unique, i.e. when the stacked system [P^T - I; 1] has rank
    below the number of states (a chain with several closed classes).
    """
    P = np.asarray(P, dtype=np.float64)
    n = P.shape[0]
    if P.ndim != 2 or P.shape[1] != n:
        raise ValueError("square matrix required")
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
    partitions refine it along finite subsets of Z^d.
    """

    __slots__ = ("d", "alphabet", "kind", "probs", "pi", "P", "base_partition")

    def __init__(self, d, alphabet, kind, probs=None, pi=None, P=None):
        self.d = d
        self.alphabet = tuple(alphabet)
        self.kind = kind
        self.probs = probs
        self.pi = pi
        self.P = P
        self.base_partition = SymbolPartition.full(self.alphabet)

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
    """Product-measure shift on (alphabet)^(Z^d) with site distribution ``probs``."""
    probs = np.array(probs, dtype=np.float64)
    if probs.ndim != 1 or probs.shape[0] < 1:
        raise ValueError("site distribution must be a nonempty vector")
    if np.any(probs < 0.0):
        raise ValueError("negative mass")
    if abs(float(probs.sum()) - 1.0) > MASS_TOL:
        raise ValueError("masses must sum to 1")
    d = _dimension(d)
    if alphabet is None:
        alphabet = tuple(range(probs.shape[0]))
    alphabet = tuple(alphabet)
    if len(alphabet) != probs.shape[0]:
        raise ValueError("alphabet and distribution must align")
    probs.flags.writeable = False
    return ShiftSystem(d, alphabet, "bernoulli", probs=probs)


def markov_shift(
    pi: Optional[Sequence[float]],
    P: Sequence[Sequence[float]],
    alphabet: Optional[Sequence] = None,
    stationarity_tol: float = STATIONARITY_TOL,
) -> ShiftSystem:
    """Stationary Markov shift on alphabet^Z (d = 1 only).

    ``pi`` may be None, in which case the unique stationary vector is
    solved from ``P`` (see :func:`stationary_vector`); a supplied ``pi``
    must be stationary within ``stationarity_tol``.
    """
    P = np.array(P, dtype=np.float64)
    m = P.shape[0]
    if P.ndim != 2 or P.shape[1] != m or m < 1:
        raise ValueError("square transition matrix required")
    if np.any(P < 0.0):
        raise ValueError("negative transition probability")
    if np.max(np.abs(P.sum(axis=1) - 1.0)) > MASS_TOL:
        raise ValueError("transition rows must sum to 1")
    if pi is None:
        pi = stationary_vector(P)
    pi = np.array(pi, dtype=np.float64)
    if pi.ndim != 1 or pi.shape[0] != m:
        raise ValueError("pi and P must align")
    if np.any(pi < 0.0):
        raise ValueError("negative mass")
    if abs(float(pi.sum()) - 1.0) > MASS_TOL:
        raise ValueError("masses must sum to 1")
    if float(np.max(np.abs(pi @ P - pi))) > stationarity_tol:
        raise ValueError("pi is not stationary for P")
    if alphabet is None:
        alphabet = tuple(range(m))
    alphabet = tuple(alphabet)
    if len(alphabet) != m:
        raise ValueError("alphabet and distribution must align")
    pi.flags.writeable = False
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
        missing = [s for s in alphabet if s not in self.factor_map]
        if missing:
            raise ValueError("factor map must cover the alphabet")
        groups: dict = {}
        for s in alphabet:
            groups.setdefault(self.factor_map[s], []).append(s)
        return SymbolPartition(alphabet, groups.values())


def check_invariant(spec: SubAlgebraSpec, system) -> bool:
    """Certify G-invariance of the conditioning choice for this system.

    Trivial conditioning is always invariant. Symbol factors commute
    with every shift by construction. Invariant partitions are checked
    as partition equality T_g(C) == C on all generators; generators are
    invertible permutations, so equality on them settles the whole group.
    """
    if spec.kind == "trivial":
        return True
    if spec.kind == "symbol_factor":
        if isinstance(system, ShiftSystem):
            spec.factor_partition(system.alphabet)
            return True
        if isinstance(system, MixtureSystem):
            for comp in system.components:
                if not isinstance(comp, ShiftSystem):
                    raise IncompatibleSubAlgebraError("incompatible sub-algebra")
                spec.factor_partition(comp.alphabet)
            return True
        raise IncompatibleSubAlgebraError("incompatible sub-algebra")
    # invariant_partition
    if not isinstance(system, FinitePMPAction):
        raise IncompatibleSubAlgebraError("incompatible sub-algebra")
    C = spec.partition
    if not same_space(C.space, system.space):
        raise SpaceMismatchError("space mismatch")
    for i in range(system.d):
        e = tuple(1 if j == i else 0 for j in range(system.d))
        if act(system, e, C) != C:
            return False
    return True


# ---------------------------------------------------------------------------
# mixtures
# ---------------------------------------------------------------------------


class MixtureSystem:
    """Tagged disjoint union of systems with positive weights summing to 1.

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
        if abs(float(w.sum()) - 1.0) > MASS_TOL:
            raise ValueError("masses must sum to 1")
        dims = {c.d for c in components}
        if len(dims) != 1:
            raise ValueError("dimension mismatch")
        w.flags.writeable = False
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

    def as_finite_action(self) -> FinitePMPAction:
        """The union action, when every component is finite.

        Atoms are (component index, atom id) pairs with masses w_i * m;
        generators act block-diagonally. Exact by construction, so it
        cross-validates the componentwise mixture routes.
        """
        if not all(isinstance(c, FinitePMPAction) for c in self.components):
            raise TypeError("all components must be finite actions")
        ids = []
        masses = []
        for i, comp in enumerate(self.components):
            for a in comp.space.atom_ids:
                ids.append((i, a))
                masses.append(float(self.weights[i]) * comp.space.mass(a))
        offsets = np.cumsum([0] + [len(c.space) for c in self.components])
        gens = [
            np.concatenate([off + comp._gens[k] for off, comp in zip(offsets, self.components)])
            for k in range(self.d)
        ]
        space = FiniteProbabilitySpace(ids, masses)
        return FinitePMPAction(space, gens)

    def tag_partition_on_union(self, union: FinitePMPAction) -> Partition:
        """The tag partition as a partition of ``as_finite_action()``'s space."""
        blocks: dict = {}
        for (i, a) in union.space.atom_ids:
            blocks.setdefault(i, []).append((i, a))
        return Partition(union.space, blocks.values())


def mixture(components: Sequence, weights: Sequence[float]) -> MixtureSystem:
    """Tagged union of ``components`` with the given positive weights."""
    return MixtureSystem(components, weights)


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


# ---------------------------------------------------------------------------
# pattern distributions (bulk route: kernel enumeration)
# ---------------------------------------------------------------------------


class PatternDistribution:
    """Distribution of cell patterns on a window.

    Patterns are tuples of cell indices aligned with ``elements``
    (window elements in sorted order); the flat ``probs`` array is
    indexed element-major, first element most significant.
    """

    __slots__ = ("elements", "cells", "probs")

    def __init__(self, elements: tuple, cells: tuple, probs: np.ndarray):
        self.elements = elements
        self.cells = cells
        self.probs = probs

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def __len__(self) -> int:
        return int(self.probs.shape[0])

    def index_of(self, pattern: Sequence[int]) -> int:
        if len(pattern) != len(self.elements):
            raise ValueError("pattern length mismatch")
        idx = 0
        for c in pattern:
            c = int(c)
            if not 0 <= c < self.n_cells:
                raise ValueError("cell index out of range")
            idx = idx * self.n_cells + c
        return idx

    def prob(self, pattern: Sequence[int]) -> float:
        return float(self.probs[self.index_of(pattern)])

    def items(self):
        """Yield (pattern, probability) for every positive-probability pattern."""
        k = len(self.elements)
        m = self.n_cells
        for flat in np.flatnonzero(self.probs > 0.0):
            flat = int(flat)
            idx = flat
            pattern = [0] * k
            for j in range(k - 1, -1, -1):
                pattern[j] = idx % m
                idx //= m
            yield tuple(pattern), float(self.probs[flat])

    def entropy(self) -> float:
        return entropy_from_probs(self.probs)


class TaggedPatternDistribution:
    """Componentwise pattern distributions of a mixture, weight-combined.

    Patterns on the tagged union are (component index, component
    pattern) pairs; their supports are disjoint across components, so
    the union entropy is the entropy of the weighted concatenation.
    """

    __slots__ = ("distributions", "weights")

    def __init__(self, distributions: Sequence[PatternDistribution], weights: np.ndarray):
        self.distributions = tuple(distributions)
        self.weights = weights

    def combined_probs(self) -> np.ndarray:
        return np.concatenate(
            [float(w) * dist.probs for dist, w in zip(self.distributions, self.weights)]
        )

    def prob(self, tag: int, pattern: Sequence[int]) -> float:
        return float(self.weights[tag]) * self.distributions[tag].prob(pattern)

    def entropy(self) -> float:
        return entropy_from_probs(self.combined_probs())


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
    m = system.n_symbols
    _guard_patterns(m, k, cap)
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

    For every index of the ``n_sym ** length`` element-major symbol
    patterns, extracts the symbols at ``sub_positions`` (indices into
    the window's element list), maps them through ``cell_of``, and
    packs them base-``n_cells`` in the same element-major order.
    """
    idx = np.arange(n_sym**length, dtype=np.int64)
    code = np.zeros_like(idx)
    cell_of = np.asarray(cell_of, dtype=np.int64)
    for j in sub_positions:
        digit = (idx // (n_sym ** (length - 1 - j))) % n_sym
        code = code * n_cells + cell_of[digit]
    return code


def window_partition(system, F: FolnerSubset, alpha=None, cap: int = DEFAULT_PATTERN_CAP):
    """Distribution of all cell patterns on the window ``F``.

    For a shift system this is the weighted partition alpha^F: every
    assignment of ``alpha``-cells to window elements, with its cylinder
    measure, enumerated through the numpy kernels. For mixtures of
    shifts the result is tagged by component. The pattern count
    n_cells^|F| (per component) is capped.
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
        dists = [
            window_partition(comp, F, a, cap) for comp, a in zip(system.components, alphas)
        ]
        return TaggedPatternDistribution(dists, system.weights)
    if not isinstance(system, ShiftSystem):
        raise TypeError("window patterns apply to shift systems and mixtures")
    if F.d != system.d:
        raise ValueError("dimension mismatch")
    cells = resolve_cells(system, alpha)
    k = len(F)
    mc = cells.n_cells
    _guard_patterns(mc, k, cap)
    elements = tuple(F)
    if system.kind == "bernoulli":
        with np.errstate(divide="ignore"):
            probs = np.exp(iid_pattern_logprobs(np.log(_cell_masses(system, cells)), k))
        return PatternDistribution(elements, cells.cells, probs)
    if mc == system.n_symbols:
        # full symbol partition: the kernel output is already cellwise
        probs = symbol_pattern_probs(system, F, cap)
        return PatternDistribution(elements, cells.cells, probs)
    m = system.n_symbols
    _guard_patterns(m, k, cap)
    sym_probs = symbol_pattern_probs(system, F, cap)
    codes = subpattern_codes(m, k, range(k), cells.cell_labels(), mc)
    probs = np.bincount(codes, weights=sym_probs, minlength=mc**k)
    return PatternDistribution(elements, cells.cells, probs)


def _aggregated_entropy(keys: np.ndarray, probs: np.ndarray) -> float:
    _, inv = np.unique(keys, return_inverse=True)
    return entropy_from_probs(np.bincount(inv.ravel(), weights=probs))


def symbol_factor_entropy(
    components: Sequence[ShiftSystem], weights: Sequence[float], alphas: Sequence,
    F: FolnerSubset, phi: SymbolPartition, W: FolnerSubset, cap: int = DEFAULT_PATTERN_CAP,
) -> float:
    """H(alpha^F | phi^W) for shifts on a shared alphabet, mixed by weight.

    Enumerates the m^|W| full-symbol patterns on W once per component
    and keys each one by (component, alpha-pattern on F, phi-pattern
    on W), so H = H(keys) - H(phi-patterns). A single shift is the
    one-component family with weight 1.0. The cap counts m^|W| per
    component, summed, and is checked before any component's cells are
    resolved or any pattern is filled. ``F`` must lie inside ``W``.
    """
    K = len(W)
    m = len(phi.alphabet)
    n_patterns = m**K
    if len(components) * n_patterns > cap:
        raise EnumerationCapError("pattern cap exceeded")
    sub_F = W.locate(F).tolist()
    pcode = subpattern_codes(m, K, range(K), phi.cell_labels(), phi.n_cells)
    nphi = np.int64(phi.n_cells**K)
    keys = np.empty(len(components) * n_patterns, dtype=np.int64)
    probs = np.empty(keys.shape[0])
    offset = 0
    for i, (comp, a, w) in enumerate(zip(components, alphas, weights)):
        cells = resolve_cells(comp, a)
        part = slice(i * n_patterns, (i + 1) * n_patterns)
        np.multiply(float(w), symbol_pattern_probs(comp, W, cap), out=probs[part])
        acode = subpattern_codes(m, K, sub_F, cells.cell_labels(), cells.n_cells)
        keys[part] = (acode + offset) * nphi + pcode
        offset += cells.n_cells ** len(sub_F)
    return _aggregated_entropy(keys, probs) - _aggregated_entropy(
        np.tile(pcode, len(components)), probs
    )


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
