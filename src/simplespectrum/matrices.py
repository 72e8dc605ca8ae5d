"""Exact symmetric matrices: sampling, graph adjacency indexing, and the
isomorphism classes of the graphs so indexed.

A matrix is an integer numerator array `num` over one denominator `den`:
int64 when every entry fits, Python ints (dtype=object) otherwise, so the
exact route never wraps and builds no Fraction per entry.  Only this
module builds that layout.

Sampling follows the general symmetric model: upper-triangular entries are
i.i.d. from one atomic law, diagonal entries i.i.d. from another, all
jointly independent, with symmetric fill-in.  The RNG contract is
counter-based: trial t of experiment seed s uses the derived stream
(s, t), so parallel Monte Carlo is order- and worker-count-independent.
The matrix is drawn from (s, t) alone; any further randomness trial t
needs comes from substreams (s, t, 1 + j), never from (s, t) again.  The
rich-eigenvector experiment draws the small-ball samples for eigenvector
j from (s, t, 1 + j).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm

import numpy as np

from .dist import AtomicDistribution
from .errors import PreconditionError
from .rationals import parse_rational


def _int_array(num) -> np.ndarray:
    """A copy of `num` as int64 when every entry fits, else as Python ints
    (dtype=object); np.array alone would turn 2**63 into a float."""
    if isinstance(num, np.ndarray) and num.dtype == np.int64:
        return num.copy()
    a = np.array(num, dtype=object)
    if not all(isinstance(x, (int, np.integer)) for x in a.flat):
        if any(np.ndim(x) for x in a.flat):  # ragged: np.array kept the rows whole
            raise PreconditionError("dimension mismatch: rows of unequal length")
        raise PreconditionError("matrix entries must be integers")
    try:
        return a.astype(np.int64)
    except OverflowError:
        return np.asarray(np.frompyfunc(int, 1, 1)(a), dtype=object)


@dataclass(frozen=True, eq=False)
class SymmetricMatrix:
    """Exact rational symmetric n x n matrix num / den.

    `num` is a read-only square integer array, int64 when every entry fits
    and Python ints (dtype=object) otherwise; `den >= 1` is in lowest terms
    with it.  Compares by value; not hashable (its `entries` view is).
    """

    num: np.ndarray
    den: int = 1

    def __post_init__(self):
        num, den = _int_array(self.num), operator.index(self.den)
        if num.ndim != 2 or num.shape[0] != num.shape[1] or num.shape[0] < 1:
            raise PreconditionError("dimension mismatch")
        if den < 1:
            raise PreconditionError("den must be >= 1")
        if not np.array_equal(num, num.T):
            raise PreconditionError("matrix not symmetric")
        if den > 1 and (g := gcd(den, *num.ravel().tolist())) > 1:
            if g >> 63:  # past int64, so num holds only 0 and -2^63
                num = num.astype(object)
            num, den = _int_array(num // g), den // g
        num.flags.writeable = False
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def n(self) -> int:
        return self.num.shape[0]

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(
            tuple(Fraction(x, self.den) for x in row) for row in self.num.tolist()
        )

    def __eq__(self, other):
        if not isinstance(other, SymmetricMatrix):
            return NotImplemented
        return self.den == other.den and np.array_equal(self.num, other.num)

    def trace(self) -> Fraction:
        return Fraction(sum(self.num.diagonal().tolist()), self.den)

    def to_float_array(self) -> np.ndarray:
        return np.asarray(self.num / self.den, dtype=float)

    @classmethod
    def from_json(cls, obj) -> "SymmetricMatrix":
        M = cls.from_rows(obj["rows"])
        if M.n != obj["n"]:
            raise PreconditionError("dimension mismatch")
        return M

    @classmethod
    def from_rows(cls, rows) -> "SymmetricMatrix":
        """Rows of rationals ("p/q" strings, ints or Fractions)."""
        rows = [[parse_rational(x) for x in row] for row in rows]
        den = lcm(*(x.denominator for row in rows for x in row))
        num = [[x.numerator * (den // x.denominator) for x in row] for row in rows]
        return cls(num, den)

    @classmethod
    def from_text(cls, text: str) -> "SymmetricMatrix":
        """Parse a whitespace-separated integer matrix, one row per line."""
        lines = text.strip().splitlines()
        return cls.from_rows(line.split() for line in lines if line.strip())


@dataclass(frozen=True)
class EnsembleSpec:
    """Entry laws of the random symmetric model: one off-diagonal, one diagonal."""

    offdiag: AtomicDistribution
    diag: AtomicDistribution


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Derived deterministic stream for trial `trial` of experiment `seed`."""
    return np.random.default_rng([seed, trial])


@lru_cache(maxsize=64)
def _atom_table(d: AtomicDistribution, den: int) -> tuple[np.ndarray, np.ndarray]:
    """The float running sums of d's masses, the last set to 1.0, and d's
    atoms as numerators over `den`, built once per (d, den) and read-only,
    as they are shared by every draw."""
    cum = np.array(list(accumulate(float(p) for p in d.probs)))
    cum[-1] = 1.0
    scaled = _int_array([a.numerator * (den // a.denominator) for a in d.atoms])
    for a in (cum, scaled):
        a.flags.writeable = False
    return cum, scaled


def _sample_atoms(
    d: AtomicDistribution, count: int, rng: np.random.Generator, den: int
) -> np.ndarray:
    """`count` i.i.d. draws from d, as numerators over `den`."""
    cum, scaled = _atom_table(d, den)
    # searchsorted(side="right") is bisect_right on the same float sums.
    return scaled[np.searchsorted(cum, rng.random(count), side="right")]


@lru_cache(maxsize=64)
def _upper_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(n, 1), built once per n and read-only, as it is
    shared by every caller."""
    iu = np.triu_indices(n, 1)
    for a in iu:
        a.flags.writeable = False
    return iu


def sample_matrix(
    spec: EnsembleSpec, n: int, rng: np.random.Generator
) -> SymmetricMatrix:
    """Draw one matrix: i.i.d. upper-triangular entries, i.i.d. diagonal."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    den = lcm(*(a.denominator for d in (spec.offdiag, spec.diag) for a in d.atoms))
    # Fixed draw order (off-diagonal row-major, then diagonal) keeps the
    # output a pure function of the stream state.
    upper = _sample_atoms(spec.offdiag, n * (n - 1) // 2, rng, den)
    diag = _sample_atoms(spec.diag, n, rng, den)
    num = np.zeros((n, n), dtype=np.result_type(upper, diag))
    iu = _upper_indices(n)
    num[iu] = num[iu[1], iu[0]] = upper
    num[np.diag_indices(n)] = diag
    return SymmetricMatrix(num, den)


def graph_from_index(n: int, index: int) -> SymmetricMatrix:
    """Graph `index` on n vertices, in graph_stack's layout."""
    return SymmetricMatrix(graph_stack(n, [operator.index(index)])[0])


def graph_stack(n: int, indices) -> np.ndarray:
    """(len(indices), n, n) stack of the graphs `indices` on n vertices, in
    their order, repeats kept.  Graph i has edge (r, c), r < c, iff bit k of
    i is set, k counting the pairs row-major, and a zero diagonal: a
    bijection from [0, 2^(n(n-1)/2)) onto the simple graphs.  int64 for
    every n, as the entries are 0 or 1; from n = 12 on, where indices pass
    int64, they are decoded as Python ints.  A non-integer index raises
    TypeError, as in graph_from_index."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    nbits = n * (n - 1) // 2
    idx = np.asarray(indices)
    if idx.ndim != 1:
        raise PreconditionError("graph_stack needs a 1-D sequence of indices")
    if idx.dtype == object:  # Python ints past int64, or not ints at all
        idx = np.frompyfunc(operator.index, 1, 1)(idx)
    elif idx.size and idx.dtype.kind not in "biu":  # a float would truncate
        raise TypeError(f"graph indices must be integers, not {idx.dtype}")
    try:
        idx = idx.astype(np.int64 if nbits <= 62 else object, copy=False)
    except OverflowError:  # past int64, so past 2^nbits <= 2^62 too
        raise PreconditionError(f"indices out of range [0, 2^{nbits}) for n={n}") from None
    if len(idx) and not (0 <= idx.min() and idx.max() < 1 << nbits):
        raise PreconditionError(f"indices out of range [0, 2^{nbits}) for n={n}")
    bits = (idx[:, None] >> np.arange(nbits)) & 1
    A = np.zeros((len(idx), n, n), dtype=np.int64)
    iu = _upper_indices(n)
    A[:, iu[0], iu[1]] = A[:, iu[1], iu[0]] = bits
    return A


def _swap_adjacent(m: int, i: int, x: np.ndarray) -> np.ndarray:
    """The indices of the graphs x on m vertices with vertices i and i + 1
    swapped.  The swap is an involution on the edge bits, so each pair of
    bits k < d it exchanges is one delta swap, done at once for all pairs
    with the same shift d - k."""
    iu = _upper_indices(m)
    pos = np.zeros((m, m), dtype=np.int64)
    pos[iu] = pos[iu[1], iu[0]] = np.arange(len(iu[0]))
    swap = np.arange(m)
    swap[[i, i + 1]] = i + 1, i
    masks = {}
    for k, d in enumerate(pos[swap[iu[0]], swap[iu[1]]].tolist()):
        if d > k:
            masks[d - k] = masks.get(d - k, 0) | 1 << k
    for shift, mask in masks.items():
        t = ((x >> shift) ^ x) & mask
        x = x ^ (t | t << shift)
    return x


@lru_cache(maxsize=8)
def graph_orbits(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The S_m-orbits of the graphs graph_from_index(m, i) under relabeling
    of the vertices: the least index of each orbit, ascending, and the size
    of that orbit, as read-only int64 arrays built once per m.

    The adjacent transpositions (i, i + 1) generate S_m, so the orbits are
    the components of the graph on indices that joins x to each of its m - 1
    swaps.  Every index starts labeled by itself; a round lowers each label
    to the least across those edges and then jumps it to its label's label.
    A label is always an index of the same orbit and at most its own, so at
    the fixed point it is the orbit's least index.  The labels are int32
    arrays of 2^(m(m-1)/2) entries: m = 7 (2,097,152 graphs, 1,044 orbits)
    takes about 0.4 s and 80 MB on a 2-vCPU VM, and m = 8 would need 2^28
    labels, so it is refused.
    """
    if not 0 <= m <= 7:
        raise PreconditionError("graph_orbits needs 0 <= m <= 7")
    idx = np.arange(1 << m * (m - 1) // 2, dtype=np.int32)
    swaps = [_swap_adjacent(m, i, idx) for i in range(m - 1)]
    label = idx
    while True:
        new = label.copy()
        for s in swaps:
            np.minimum(new, new[s], out=new)
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    del swaps, new  # 56 MB at m = 7, freed before bincount's 16 MB
    reps = np.flatnonzero(label == idx)
    sizes = np.bincount(label)[reps]
    for a in (reps, sizes):
        a.flags.writeable = False
    return reps, sizes
