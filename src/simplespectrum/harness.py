"""Experiments: exact orthogonality lemma checks, exhaustive graph censuses,
Monte Carlo simplicity estimation, rich-eigenvector frequency.

All randomized experiments derive a per-trial stream from (seed, trial),
so results are independent of trial ordering and worker count; reductions
are integer sums.  Parallelism splits the trials into `workers`
contiguous chunks and maps them over a process pool of at most one process
per CPU.

The orthogonality lemma is checked with no float: the repeated-root factor
g of a non-simple M must divide the char poly of its minor, and the witness
is g with the remainder of that division.

The census is bordered, as Tao-Vu's argument is: every graph on n vertices
is one graph A' on n - 1 vertices plus a 0/1 border b, and
det(xI - A) = x p_{A'}(x) - b^T adj(xI - A') b.  Relabeling the vertices
keeps the spectrum: for pi in S_(n-1), (A', b) -> (pi A' pi^T, pi b) is a
bijection on the borders that keeps det(xI - A).  So only one minor per
isomorphism class is bordered (matrices.graph_orbits: 156 of the 32,768
graphs on 6 vertices, 1,044 of the 2,097,152 on 7), and each of its rows
counts as many graphs as its orbit holds.  One exact int64
Faddeev-LeVerrier pass over stacks of these minors, whose intermediates
are the coefficients of adj(xI - A'), gives the char polys of all 2^(n-1)
borders of each as quadratic forms.  Each stack is deduplicated exactly by
a lexsort that sums the orbit weights, and one remainder sequence of p and
p' mod q, run on all its distinct rows at once, proves every simple one
squarefree.  Of the rest, a row with p(lam) = p'(lam) = 0 at an integer
|lam| <= n - 1, where every eigenvalue of a graph on n vertices lies, is
non-simple.  Only rows with neither proof, whose repeated roots are
irrational, reach repeated_factor: 4 of the 151 distinct char polys at
n = 6 and 13 of 988 at n = 7.

Monte Carlo reads only whether each draw is simple, so a draw goes first
through spectrum.repeated_by_twins: zero rows and equal rows of num, or
of num + den*I, that give two independent kernel vectors prove a repeated
eigenvalue 0 or -1 in O(n^2), with no prime.  Only the draws it does not
settle reach simplicity_exact.  In sparse G(n, p), p near log n / n,
isolated vertices and twins make most non-simple draws of this kind,
while a dense sign draw pays only the hash of its rows.
"""

from __future__ import annotations

import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import polys
from .errors import PreconditionError
from .matrices import (
    EnsembleSpec,
    SymmetricMatrix,
    graph_orbits,
    graph_stack,
    sample_matrix,
    trial_rng,
)
from .smallball import WeightVector, is_rich
from .spectrum import (
    _crt_prime,
    char_poly,
    char_polys_bordered,
    char_polys_stack,
    double_integer_root,
    eigen_decompose,
    repeated_by_twins,
    repeated_factor,
    simplicity_exact,
    squarefree_screen,
)


# The two results are slotted, as SimplicityVerdict is, and store only what
# the rest follows from: a run that keeps a result per call holds thousands
# of them.
@dataclass(frozen=True, slots=True)
class CensusResult:
    n: int
    simple_count: int

    @property
    def total(self) -> int:
        """The number of graphs on n vertices, 2^(n(n-1)/2)."""
        return 1 << self.n * (self.n - 1) // 2

    @property
    def nonsimple_count(self) -> int:
        return self.total - self.simple_count

    @property
    def simple_fraction(self) -> float:
        return self.simple_count / self.total

    @property
    def nonsimple_fraction(self) -> float:
        return self.nonsimple_count / self.total


@dataclass(frozen=True, slots=True)
class ExperimentSummary:
    trials: int
    successes: int
    seed: int
    wall_time: float = field(compare=False)

    @property
    def point_estimate(self) -> float:
        return self.successes / self.trials

    @property
    def wilson_ci_95(self) -> tuple[float, float]:
        return wilson_interval(self.successes, self.trials)


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054):
    """Wilson score interval; well-behaved at 0 or `trials` successes."""
    if trials < 1:
        raise PreconditionError("trials must be >= 1")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
        / denom
    )
    return max(0.0, center - half), min(1.0, center + half)


def verify_orthogonality_lemma(M: SymmetricMatrix) -> tuple[bool, dict]:
    """For a matrix with non-simple spectrum, confirm exactly that the minor
    M' (M without its last row and column) has, at each repeated eigenvalue
    lam of M, an eigenvector u with u . X = 0, X the border column.

    The repeated eigenvalues are the roots of g = gcd(p_M, dp_M/dx), the
    NotSimpleExact certificate, and g | p_{M'} proves the lemma for every
    root, irrational ones included.  With a the corner entry and
    q(x) = X^T adj(xI - M') X, p_M = (x - a) p_{M'} - q, so q(lam) = 0 at
    each root lam of g.  At a lam simple in M' with unit eigenvector u,
    q(lam) = (u . X)^2 prod_{mu != lam} (lam - mu), so u . X = 0; at a lam
    multiple in M', the eigenspace holds a vector orthogonal to X.  Cauchy
    interlacing makes g | p_{M'} hold always, so a nonzero remainder means a
    wrong char poly, minor or g.  p_{M'} is the minor's exact int64
    char_polys_stack row where that kernel's bound admits the minor, and
    char_poly's otherwise.  Returns (ok, witness): the factor g and the
    remainder of p_{M'} by g, both constant term first.
    """
    if M.n < 2:
        raise PreconditionError("lemma needs n >= 2")
    verdict = simplicity_exact(M)
    if verdict.tag != "NotSimpleExact":
        raise PreconditionError("lemma hypothesis requires a non-simple spectrum")
    minor = SymmetricMatrix(M.num[:-1, :-1], M.den)
    try:  # one exact int64 Faddeev-LeVerrier row, with no prime
        c = char_polys_stack(minor.num[None])[0].tolist()
    except PreconditionError:  # entries too large for its int64 bound
        cp = char_poly(minor).coeffs
    else:  # as char_poly: the coefficient of x^(n-1-k) is c_k / den^k
        cp = tuple(Fraction(c[k], minor.den**k) for k in reversed(range(M.n)))
    rem = polys.pseudo_rem(cp, verdict.certificate)
    return not rem, {"factor": verdict.certificate, "remainder": rem}


def _dispatch(chunk, head: tuple, total: int, workers: int) -> int:
    """Sum chunk(head + (start, stop)) over `workers` contiguous ranges
    covering [0, total): inline when workers <= 1, else over one process
    pool.  The ranges depend on `workers` alone, so counts do not depend on
    the machine; the pool has at most one process per CPU, as the fork
    start method starts them all at once."""
    if workers <= 1:
        return chunk(head + (0, total))
    # Imported here: it loads logging and multiprocessing, which
    # single-worker runs never use.
    import concurrent.futures

    step = math.ceil(total / workers)
    jobs = [head + (a, min(a + step, total)) for a in range(0, total, step)]
    size = min(len(jobs), os.cpu_count() or 1)
    with concurrent.futures.ProcessPoolExecutor(max_workers=size) as ex:
        return sum(ex.map(chunk, jobs))


# About this many char poly rows per stack: a stack holds
# max(1, _CENSUS_BATCH >> (n - 1)) orbit representatives on n - 1 vertices,
# each with all 2^(n - 1) borders.  At n = 8 a stack's rows are 4.7 MB.
_CENSUS_BATCH = 1 << 16


def _distinct_rows(rows: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-D int64 array, in lexicographic order, and
    the sum of the int64 `weights` over the copies of each, exactly, with
    no hashing: np.lexsort over the columns, then a compare of adjacent
    sorted keys.  Entries that all fit int16 sort as int16, which numpy's
    stable sort takes by radix, about 4x faster than int64."""
    keys = rows.T
    if -(1 << 15) <= rows.min() and rows.max() < 1 << 15:
        keys = keys.astype(np.int16)
    order = np.lexsort(keys[::-1])  # first column primary
    s = keys[:, order]
    new = np.empty(len(order), dtype=bool)
    new[0] = True
    np.any(s[:, 1:] != s[:, :-1], axis=0, out=new[1:])
    starts = np.flatnonzero(new)
    return rows[order[starts]], np.add.reduceat(weights[order], starts)


def _census_chunk(args) -> int:
    """Simple graphs among those on n vertices whose (n - 1)-vertex minor
    lies in the S_(n-1)-orbit of a representative graph_orbits(n - 1)[0][i]
    with i in [start, stop): the representatives' char polys stack by stack
    in one exact int64 bordered pass, each row weighted by its orbit's
    size, deduplicated, and the distinct rows decided at once: proved
    simple by the mod-q remainder-sequence screen, or else non-simple by a
    double integer root.  Rows with neither get one repeated_factor call
    per distinct char poly, weighted by its total weight across the
    stacks."""
    n, start, stop = args
    reps, sizes = graph_orbits(n - 1)
    borders = (np.arange(1 << (n - 1))[:, None] >> np.arange(n - 1)) & 1
    step = max(1, _CENSUS_BATCH >> (n - 1))
    q = _crt_prime(0)
    simple, undecided = 0, Counter()
    for a in range(start, stop, step):
        b = min(a + step, stop)
        rows = char_polys_bordered(graph_stack(n - 1, reps[a:b]), borders)
        distinct, weight = _distinct_rows(rows, np.repeat(sizes[a:b], len(borders)))
        proved = squarefree_screen(distinct, q)
        simple += int(weight[proved].sum())
        rest, weight = distinct[~proved], weight[~proved]
        left = ~double_integer_root(rest, n - 1)
        undecided.update(dict(zip(map(tuple, rest[left].tolist()), weight[left].tolist())))
    return simple + sum(
        w for cp, w in undecided.items() if repeated_factor(list(cp[::-1])) is None
    )


def exhaustive_census(n: int, workers: int = 1) -> CensusResult:
    """Classify every graph on n vertices by exact spectral simplicity.

    The (n - 1)-vertex graphs go through one per isomorphism class, the
    least index of each S_(n-1)-orbit of graph_orbits, weighted by the
    orbit's size.  They go in stacks, each bordered with all 2^(n-1) 0/1
    vectors by char_polys_bordered: one Faddeev-LeVerrier pass in int64,
    whose overflow guard holds for every graph stack with n <= 8
    (1.5e9 < 2^63 at n = 8).  The distinct char polys of a stack then go
    through squarefree_screen at once, those it does not prove through
    double_integer_root with r = n - 1, and only those neither settles
    through repeated_factor, once each across the stacks.  Each graph on n
    vertices is one (minor, border) pair, and the pairs whose minor lies in
    an orbit of size s carry s times the char polys of the representative's
    borders, so the weighted count is exact; workers split the
    representatives.  n = 6 has 32,768 graphs, 151 distinct char polys and
    4 that reach repeated_factor; n = 7 has 2,097,152, 988 and 13; n = 8
    has 268,435,456 graphs, 210,782,880 of them simple, and 66 that reach
    repeated_factor.  README gives the timings.
    """
    if not 2 <= n <= 8:
        raise PreconditionError("census supports 2 <= n <= 8")
    simple = _dispatch(_census_chunk, (n,), len(graph_orbits(n - 1)[0]), workers)
    return CensusResult(n=n, simple_count=simple)


def _mc_chunk(args) -> int:
    spec, n, seed, start, stop = args
    nonsimple = 0
    for t in range(start, stop):
        M = sample_matrix(spec, n, trial_rng(seed, t))
        if repeated_by_twins(M) or not simplicity_exact(M).is_simple:
            nonsimple += 1
    return nonsimple


def monte_carlo_simplicity(
    spec: EnsembleSpec, n: int, trials: int, seed: int, workers: int = 1
) -> ExperimentSummary:
    """Sample matrices and estimate the non-simple fraction with 95% CI.

    A draw is non-simple when repeated_by_twins proves it, by zero or equal
    rows of num or num + den*I, and otherwise when simplicity_exact says
    so.  The witness is exact, so the count is simplicity_exact's; it only
    spares the Lanczos passes and the CRT on the draws it proves."""
    if trials < 1:
        raise PreconditionError("trials must be >= 1")
    t0 = time.perf_counter()
    nonsimple = _dispatch(_mc_chunk, (spec, n, seed), trials, workers)
    return ExperimentSummary(trials, nonsimple, seed, time.perf_counter() - t0)


def _rich_chunk(args) -> int:
    spec, n, A, delta, seed, start, stop = args
    hits = 0
    for t in range(start, stop):
        M = sample_matrix(spec, n, trial_rng(seed, t))
        s = eigen_decompose(M, tol=1e-13)
        for j in range(n):
            v = WeightVector.numeric(s.eigenvectors[:, j])
            # Substream (seed, t, 1 + j): independent of the matrix draw,
            # which used (seed, t), and of the other eigenvectors.
            rng = np.random.default_rng([seed, t, 1 + j])
            rich, _ = is_rich(v, spec.offdiag, A, n, delta=delta, rng=rng)
            if rich:
                hits += 1
                break
    return hits


def rich_eigenvector_frequency(
    spec: EnsembleSpec,
    n: int,
    A: float,
    delta: float,
    trials: int,
    seed: int,
    workers: int = 1,
) -> ExperimentSummary:
    """Fraction of sampled matrices with at least one rich eigenvector
    (windowed small-ball at window `delta`, threshold n^-A)."""
    if trials < 1:
        raise PreconditionError("trials must be >= 1")
    if not delta > 0:
        raise PreconditionError("delta must be positive")
    t0 = time.perf_counter()
    hits = _dispatch(_rich_chunk, (spec, n, A, delta, seed), trials, workers)
    return ExperimentSummary(trials, hits, seed, time.perf_counter() - t0)
