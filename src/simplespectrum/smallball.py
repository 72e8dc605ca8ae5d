"""Concentration probabilities p(V) = sup_x P(sum xi_i v_i = x) and richness.

Exact mode works on an integer lattice: the atoms, the vector and the
probabilities are each scaled by the lcm of their denominators, so every
partial sum is an integer and every mass an integer over one common
denominator.  The support is a pair of sorted arrays (sums, masses), and
the supremum is a max over it.  Windowed mode is the float surrogate
(eigenvectors of integer matrices have irrational entries, so exact
equality is unattainable there): it reports the largest mass a sliding
window of width delta can capture, an upper bound on the exact
concentration for any point inside the window.  Its exhaustive path sorts
all |atoms|^n sums and sweeps the window over their cumulative weights.
Tied sums need the stable order only when the atoms' float probabilities
differ; when they are all equal, every assignment weighs the same float
and the values are sorted alone.  The sweep goes in blocks of window
ends, so beyond the sums and their cumulative weights it holds only
block-sized buffers.  Past 2^20 assignments it samples 10^4 of them in
blocks of rows.  A block's uniforms are the next doubles of the stream
that `Generator.choice` would have drawn, and each picks its atom by
comparison with the cdf that `choice` builds, so the sums are the same to
the bit and the generator ends in the same state.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence, Union

import numpy as np

from .dist import AtomicDistribution
from .errors import CapExceededError, PreconditionError

_SUM_CAP = 10**7
_EXHAUSTIVE_LIMIT = 1 << 20
_MC_SAMPLES = 10**4
_MC_BLOCK = 1000  # divides _MC_SAMPLES, a multiple of 4: see small_ball_windowed
_SCAN_BLOCK = 1 << 15
# Cumulative weights of the _MC_SAMPLES sampled sums, each 1/_MC_SAMPLES.
_MC_CUM = np.concatenate([[0.0], np.cumsum(np.full(_MC_SAMPLES, 1.0 / _MC_SAMPLES))])
_MC_CUM.flags.writeable = False


@dataclass(frozen=True)
class WeightVector:
    """Coefficient vector, exact (rationals) or numeric (floats + window)."""

    entries: tuple
    mode: str = "exact"  # "exact" | "numeric"

    def __len__(self):
        return len(self.entries)

    @classmethod
    def exact(cls, values: Sequence) -> "WeightVector":
        # A numpy integer becomes a Python int first: Fraction keeps it as
        # the numerator, where it would wrap in arithmetic and not serialize.
        return cls(
            tuple(Fraction(int(v) if isinstance(v, np.integer) else v) for v in values),
            "exact",
        )

    @classmethod
    def numeric(cls, values: Sequence) -> "WeightVector":
        return cls(tuple(float(v) for v in values), "numeric")


@dataclass(frozen=True)
class SmallBallResult:
    p: Union[Fraction, float]
    attaining_atom: Union[Fraction, float]
    mode: str  # "exact" | "windowed" | "windowed-mc"


def small_ball_exact(V: WeightVector, d: AtomicDistribution) -> SmallBallResult:
    """Exact maximal point mass of sum xi_i v_i by iterated convolution.

    Atoms scale by L_a and V by L_v (the lcms of their denominators), so a
    sum s is the integer s * L_a * L_v; probabilities scale by D, so after
    k entries each mass is an integer over D^k.  Each entry concatenates
    the shifted copies of the sorted support, sorts them and merges equal
    sums.  Sums are int64 when the scaled max|a| * sum|v| is below 2^63,
    masses when D^n is; either holds Python ints otherwise, so nothing
    wraps.  CapExceededError is raised as soon as the distinct-sum support
    exceeds _SUM_CAP = 10^7.  The result becomes a Fraction once, at the end.

    The empty vector gives the deterministic empty sum: p = 1 at 0.
    Ties on the maximal mass resolve to the smallest attaining sum.
    """
    if V.mode != "exact":
        raise PreconditionError("small_ball_exact needs an exact-mode vector")
    la = lcm(*(a.denominator for a in d.atoms))
    lv = lcm(*(v.denominator for v in V.entries))
    den = lcm(*(p.denominator for p in d.probs))
    atoms = [a.numerator * (la // a.denominator) for a in d.atoms]
    weights = [p.numerator * (den // p.denominator) for p in d.probs]
    entries = [v.numerator * (lv // v.denominator) for v in V.entries]
    n = len(entries)
    wide = max(map(abs, atoms)) * sum(map(abs, entries)) >= 1 << 63
    sums = np.zeros(1, dtype=object if wide else np.int64)
    masses = np.ones(1, dtype=object if den**n >= 1 << 63 else np.int64)
    for v in entries:
        cand = np.concatenate([sums + a * v for a in atoms])
        mass = np.concatenate([masses * w for w in weights])
        order = np.argsort(cand, kind="stable")
        cand = cand[order]
        starts = np.flatnonzero(np.concatenate(([True], cand[1:] != cand[:-1])))
        if len(starts) > _SUM_CAP:
            raise CapExceededError(
                f"distinct-sum support {len(starts)} exceeds cap {_SUM_CAP}"
            )
        sums = cand[starts]
        masses = np.add.reduceat(mass[order], starts)
    best = int(np.argmax(masses))
    return SmallBallResult(
        p=Fraction(int(masses[best]), den**n),
        attaining_atom=Fraction(int(sums[best]), la * lv),
        mode="exact",
    )


def _window_starts(sums: np.ndarray, ends: np.ndarray, delta: float) -> np.ndarray:
    """For each end e = sums[i] in `ends`, the first index j with
    e - sums[j] <= delta.  `searchsorted` finds it up to float rounding,
    since it compares sums[j] with e - delta instead; j then moves one
    distinct sum at a time until that very test holds at j and fails at
    j - 1.  The work buffers are reused, so the transient memory is two
    arrays the size of `ends` and a mask."""
    buf = np.subtract(ends, delta)
    j = np.searchsorted(sums, buf)
    mask = np.empty(len(ends), dtype=bool)

    def too_wide():
        np.take(sums, j, out=buf, mode="clip")
        np.subtract(ends, buf, out=buf)
        return np.greater(buf, delta, out=mask)

    while too_wide().any():
        up = np.flatnonzero(mask)
        j[up] = np.searchsorted(sums, sums[j[up]], side="right")
    while True:
        j -= 1
        np.logical_not(too_wide(), out=mask)
        mask &= j >= 0
        j += 1
        if not mask.any():
            return j
        down = np.flatnonzero(mask)
        j[down] = np.searchsorted(sums, sums[j[down] - 1], side="left")


def _windowed_from_sorted(sums: np.ndarray, cum: np.ndarray, delta: float):
    """Max weight captured by a window of width delta over sorted sums.

    `cum` holds the cumulative weights with a leading 0, so the window
    [j, i] weighs cum[i + 1] - cum[j], j = _window_starts(...)[i].  Each j
    depends on sums and i alone, so the ends i go in blocks of
    _SCAN_BLOCK, and the transient memory is that of one block.  The first
    maximum wins, as in a scan that keeps a window only when it is
    strictly heavier: a block's heaviest window replaces the best so far
    only when it is heavier.
    """
    best, center = 0.0, float(sums[0])
    for lo in range(0, len(sums), _SCAN_BLOCK):
        ends = sums[lo : lo + _SCAN_BLOCK]
        j = _window_starts(sums, ends, delta)
        weight = cum[lo + 1 : lo + 1 + len(ends)] - cum[j]
        i = int(np.argmax(weight))
        if weight[i] > best:
            best, center = float(weight[i]), float((ends[i] + sums[j[i]]) / 2.0)
    return best, center


def small_ball_windowed(
    V: WeightVector,
    d: AtomicDistribution,
    delta: float,
    rng: Optional[np.random.Generator] = None,
) -> SmallBallResult:
    """Estimate sup_x P(|sum xi_i v_i - x| <= delta/2) for a float vector.

    Exhaustive over all |atoms|^n assignments when that fits in 2^20,
    else Monte Carlo over a fixed 10^4 samples drawn from rng (seed 0 by
    default) with the window maximized over sampled sums, reported as mode
    "windowed-mc".  The empty vector gives the empty sum: p = 1 at 0.

    The exhaustive path orders tied sums by assignment index (a stable
    argsort) only when the float probabilities differ, since only then
    does that order change the cumulative weights.  With equal ones it
    sorts the sums in place and fills the weights with their one value, so
    the result is the same to the bit and the call holds two arrays of
    |atoms|^n floats, the sums and their cumulative weights, plus the
    window scan's per-block buffers.

    The sampled path is `rng.choice(k, size=(10^4, n), p=...)` taken apart
    and run on blocks of _MC_BLOCK rows, with the same stream and the same
    result.  `rng.random(out=u)` draws a block's uniforms in the order
    `choice` draws them.  The cdf is built as `choice` builds it and ends
    at 1 > u, so `choice`'s index `searchsorted(cdf, u, side="right")` is
    the number of j < k - 1 with u >= cdf[j], which is what the block
    counts before it gathers the atoms.  The law's probabilities are
    positive and sum to 1, so the checks `choice` makes on them never
    fail.  Each block's sums come from one matmul.  OpenBLAS's gemv dots
    rows in groups of 4 and may sum a leftover row in another order, so
    the block size is a multiple of 4 and every row gets the same dot as
    in one matmul over all 10^4 rows.  The call holds two block-sized
    buffers and the 10^4 sums; the cumulative weights are a constant.
    """
    if delta <= 0:
        raise PreconditionError("delta must be positive")
    entries = [float(v) for v in V.entries]
    atoms = np.array([float(a) for a in d.atoms])
    probs = np.array([float(p) for p in d.probs])
    n = len(entries)
    k = len(atoms)
    if k**n <= _EXHAUSTIVE_LIMIT:
        sums = np.zeros(1)
        for v in entries:
            sums = (sums[:, None] + atoms[None, :] * v).ravel()
        cum = np.empty(len(sums) + 1)
        cum[0] = 0.0
        if (probs == probs[0]).all():
            # Every weight is the same float fl(...fl(1 * p) * p...), so the
            # order of tied sums cannot change cum: the sums are sorted alone.
            weight = 1.0
            for _ in entries:
                weight *= probs[0]
            sums.sort()
            cum[1:] = weight
        else:
            weights = np.ones(1)
            for _ in entries:
                weights = (weights[:, None] * probs[None, :]).ravel()
            order = np.argsort(sums, kind="stable")
            # mode="clip" writes straight into `out`; "raise" would buffer it.
            np.take(weights, order, out=cum[1:], mode="clip")
            sums = np.take(sums, order, out=weights, mode="clip")
            del order
        np.cumsum(cum[1:], out=cum[1:])
        p, center = _windowed_from_sorted(sums, cum, delta)
        return SmallBallResult(p=p, attaining_atom=center, mode="windowed")
    if rng is None:
        rng = np.random.default_rng(0)
    cdf = np.cumsum(probs / probs.sum())
    cdf /= cdf[-1]
    x = np.array(entries)
    u = np.empty((_MC_BLOCK, n))
    idx = np.empty((_MC_BLOCK, n), dtype=np.intp)
    sums = np.empty(_MC_SAMPLES)
    for lo in range(0, _MC_SAMPLES, _MC_BLOCK):
        rng.random(out=u)
        # idx = #{j < k - 1 : u >= cdf[j]}, choice's searchsorted index.
        np.greater_equal(u, cdf[0], out=idx, casting="unsafe")
        for c in cdf[1:-1]:
            idx += u >= c
        # The atoms overwrite the uniforms, which are spent.
        np.take(atoms, idx, out=u, mode="clip")
        np.matmul(u, x, out=sums[lo : lo + _MC_BLOCK])
    sums.sort()
    p, center = _windowed_from_sorted(sums, _MC_CUM, delta)
    return SmallBallResult(p=p, attaining_atom=center, mode="windowed-mc")


def is_rich(
    V: WeightVector,
    d: AtomicDistribution,
    A: float,
    n: int,
    delta: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> tuple[bool, Union[Fraction, float]]:
    """Test p(V) >= n^(-A); returns (verdict, p).

    The threshold always uses the caller-supplied n (by convention the
    length of the vector under test).  Exact mode runs small_ball_exact
    and compares rationals exactly when A is an integer; numeric mode runs
    small_ball_windowed with window delta.
    """
    if A <= 0:
        raise PreconditionError("A must be positive")
    if n < 1:
        raise PreconditionError("n must be >= 1")
    if V.mode == "exact":
        if delta != 0.0:
            raise PreconditionError("exact mode requires delta = 0")
        res = small_ball_exact(V, d)
        if float(A).is_integer():
            return res.p >= Fraction(1, n ** int(A)), res.p
        return float(res.p) >= n ** (-A), res.p
    res = small_ball_windowed(V, d, delta, rng=rng)
    return res.p >= n ** (-A), res.p
