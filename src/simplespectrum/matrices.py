"""Exact symmetric matrices: sampling, graph adjacency indexing, minor split.

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

import json
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

import numpy as np

from .dist import AtomicDistribution
from .errors import PreconditionError
from .rationals import format_rational, parse_rational


@dataclass(frozen=True)
class SymmetricMatrix:
    """Exact rational symmetric n x n matrix."""

    n: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.n < 1 or len(self.entries) != self.n:
            raise PreconditionError("dimension mismatch")
        for i in range(self.n):
            if len(self.entries[i]) != self.n:
                raise PreconditionError("dimension mismatch")
            for j in range(i):
                if self.entries[i][j] != self.entries[j][i]:
                    raise PreconditionError("matrix not symmetric")

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def trace(self) -> Fraction:
        return sum((self.entries[i][i] for i in range(self.n)), Fraction(0))

    def max_abs_entry(self) -> Fraction:
        return max(abs(x) for row in self.entries for x in row)

    def to_float_array(self) -> np.ndarray:
        return np.array(
            [[float(x) for x in row] for row in self.entries], dtype=float
        )

    def permuted(self, perm: Sequence[int]) -> "SymmetricMatrix":
        """Simultaneous row/column permutation (similarity transform)."""
        return SymmetricMatrix(
            self.n,
            tuple(
                tuple(self.entries[perm[i]][perm[j]] for j in range(self.n))
                for i in range(self.n)
            ),
        )

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "rows": [[format_rational(x) for x in row] for row in self.entries],
        }

    @classmethod
    def from_json(cls, obj) -> "SymmetricMatrix":
        if isinstance(obj, str):
            obj = json.loads(obj)
        rows = tuple(
            tuple(parse_rational(x) for x in row) for row in obj["rows"]
        )
        return cls(obj["n"], rows)

    @classmethod
    def from_rows(cls, rows) -> "SymmetricMatrix":
        rows = tuple(tuple(parse_rational(x) for x in row) for row in rows)
        return cls(len(rows), rows)

    @classmethod
    def from_text(cls, text: str) -> "SymmetricMatrix":
        """Parse a whitespace-separated integer matrix, one row per line."""
        rows = [
            tuple(Fraction(tok) for tok in line.split())
            for line in text.strip().splitlines()
            if line.strip()
        ]
        return cls(len(rows), tuple(rows))


@dataclass(frozen=True)
class EnsembleSpec:
    """Entry laws of the random symmetric model: one off-diagonal, one diagonal."""

    offdiag: AtomicDistribution
    diag: AtomicDistribution


@dataclass(frozen=True)
class MinorSplit:
    """The block split M = [[minor, x], [x*, corner]]."""

    minor: SymmetricMatrix
    x: tuple[Fraction, ...]
    corner: Fraction

    def reassemble(self) -> SymmetricMatrix:
        n = self.minor.n + 1
        rows = [list(row) + [self.x[i]] for i, row in enumerate(self.minor.entries)]
        rows.append(list(self.x) + [self.corner])
        return SymmetricMatrix(n, tuple(tuple(r) for r in rows))


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Derived deterministic stream for trial `trial` of experiment `seed`."""
    return np.random.default_rng([seed, trial])


def _sample_atoms(d: AtomicDistribution, count: int, rng: np.random.Generator):
    cum = list(accumulate(float(p) for p in d.probs))
    cum[-1] = 1.0
    u = rng.random(count)
    return [d.atoms[bisect_right(cum, x)] for x in u]


def sample_matrix(
    spec: EnsembleSpec, n: int, rng: np.random.Generator
) -> SymmetricMatrix:
    """Draw one matrix: i.i.d. upper-triangular entries, i.i.d. diagonal."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    # Fixed draw order (off-diagonal row-major, then diagonal) keeps the
    # output a pure function of the stream state.
    upper = _sample_atoms(spec.offdiag, n * (n - 1) // 2, rng)
    diag = _sample_atoms(spec.diag, n, rng)
    rows = [[Fraction(0)] * n for _ in range(n)]
    k = 0
    for i in range(n):
        rows[i][i] = diag[i]
        for j in range(i + 1, n):
            rows[i][j] = upper[k]
            rows[j][i] = upper[k]
            k += 1
    return SymmetricMatrix(n, tuple(tuple(r) for r in rows))


def graph_from_index(n: int, index: int) -> SymmetricMatrix:
    """Adjacency matrix whose upper-triangular bits are the binary digits
    of `index`, row-major; zero diagonal.  Bijective onto simple graphs."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    nbits = n * (n - 1) // 2
    if not 0 <= index < (1 << nbits):
        raise PreconditionError(f"index {index} out of range for n={n}")
    rows = [[Fraction(0)] * n for _ in range(n)]
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            bit = (index >> k) & 1
            rows[i][j] = Fraction(bit)
            rows[j][i] = Fraction(bit)
            k += 1
    return SymmetricMatrix(n, tuple(tuple(r) for r in rows))


def minor_decompose(M: SymmetricMatrix) -> MinorSplit:
    """Split off the last row/column: (M_{n-1}, X, corner)."""
    if M.n < 2:
        raise PreconditionError("minor decomposition needs n >= 2")
    m = M.n - 1
    minor = SymmetricMatrix(
        m, tuple(tuple(M.entries[i][j] for j in range(m)) for i in range(m))
    )
    x = tuple(M.entries[i][m] for i in range(m))
    return MinorSplit(minor=minor, x=x, corner=M.entries[m][m])
