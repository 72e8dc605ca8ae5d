"""Concentration probabilities p(V) = sup_x P(sum xi_i v_i = x) and richness.

Exact mode works on an integer lattice: the atoms, the vector and the
probabilities are each scaled by the lcm of their denominators, so every
partial sum is an integer and every mass an integer over one common
denominator.  The support is a pair of sorted arrays (sums, masses), and
the supremum is a max over it.  Windowed mode is the float surrogate
(eigenvectors of integer matrices have irrational entries, so exact
equality is unattainable there): it reports the largest mass a sliding
window of width delta can capture, an upper bound on the exact
concentration for any point inside the window.  Its exhaustive path builds
all |atoms|^n sums in two preallocated buffers, sorts them and sweeps the
window over their cumulative weights.  Tied sums need the stable order
only when the atoms' float probabilities differ; when they are all equal,
every assignment weighs the same float and the values are sorted alone.
Then only the fullest windows are weighed: fl(e - s) is monotone in s, so
the window ending at i holds k sums exactly when fl(sums[i] - sums[i - k
+ 1]) <= delta, and with one weight w >= 2^-20 and at most 2^20 sums,
cum's rounding (< 2^-33) cannot make fewer sums weigh more.  Unequal
weights sweep every window end.  The sweep goes in blocks of window ends,
so beyond the sums and their cumulative weights it holds only block-sized
buffers.  Past 2^20 assignments it samples 10^4 of them,
each of weight 1/10^4, in blocks of rows.  A block's uniforms are the next
doubles of the stream that `Generator.choice` would have drawn, and each
picks its atom by comparison with the cdf that `choice` builds, so the
draws are `choice`'s and the generator ends in the same state.  Each
sampled sum is formed in one fixed order with elementwise numpy, not by a
BLAS dot, so its bits do not depend on the CPU.
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
_MC_BLOCK = 1000  # divides _MC_SAMPLES
_SCAN_BLOCK = 1 << 15
# Cumulative weights of the _MC_SAMPLES sampled sums, each 1/_MC_SAMPLES.
_MC_CUM = np.concatenate([[0.0], np.cumsum(np.full(_MC_SAMPLES, 1.0 / _MC_SAMPLES))])
_MC_CUM.flags.writeable = False


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


def _fullest(sums: np.ndarray, delta: float) -> int:
    """K, the most sums one window of width delta holds.

    fl(e - sums[j]) grows as j falls, so the window ending at i holds at
    least k sums exactly when fl(sums[i] - sums[i - k + 1]) <= delta, and
    some window does when the least of those differences is.  That holds
    for k = 1 and, if for k, for every smaller k, so a galloping search
    over k finds K.  Each test runs in blocks of _SCAN_BLOCK ends and stops
    at the first block that holds k sums."""
    buf = np.empty(min(_SCAN_BLOCK, len(sums)))

    def holds(k):
        for lo in range(k - 1, len(sums), _SCAN_BLOCK):
            hi = min(lo + _SCAN_BLOCK, len(sums))
            diff = np.subtract(sums[lo:hi], sums[lo - k + 1 : hi - k + 1], out=buf[: hi - lo])
            if diff.min() <= delta:
                return True
        return False

    lo, hi = 1, 2
    while hi <= len(sums) and holds(hi):
        lo, hi = hi, 2 * hi
    hi = min(hi, len(sums) + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if holds(mid) else (lo, mid)
    return lo


def _windowed_from_sorted(sums: np.ndarray, cum: np.ndarray, delta: float, equal: bool):
    """Max weight captured by a window of width delta over sorted sums.

    `cum` holds the cumulative weights with a leading 0, so the window
    [j, i] weighs cum[i + 1] - cum[j].  The ends i go in blocks of
    _SCAN_BLOCK, and the transient memory is that of one block.  The first
    maximum wins, as in a scan that keeps a window only when it is
    strictly heavier: a block's heaviest window replaces the best so far
    only when it is heavier.

    With unequal weights every end is weighed, its start j found by
    _window_starts.  When every sum weighs the same w (`equal`), only the
    windows that hold K = _fullest(...) sums are weighed, with
    j = i + 1 - K.  A window of fewer sums always weighs less: cum sums
    w one at a time, so with cum <= 1 + 2^-52 and at most 2^20 sums each
    cum[m] is m * w to within 2^-33, and a difference of counts is off by
    under 2^-31 < w, as w >= 2^-20 on both paths.  So the best weight,
    its centre and the first window that attains it are the same as in a
    scan over every end.
    """
    best, center = 0.0, float(sums[0])
    if equal:
        K = _fullest(sums, delta)
    for lo in range(K - 1 if equal else 0, len(sums), _SCAN_BLOCK):
        hi = min(lo + _SCAN_BLOCK, len(sums))
        if equal:
            i = lo + np.flatnonzero(sums[lo:hi] - sums[lo - K + 1 : hi - K + 1] <= delta)
            if not len(i):
                continue
            j = i + (1 - K)
        else:
            i = np.arange(lo, hi)
            j = _window_starts(sums, sums[lo:hi], delta)
        weight = cum[i + 1] - cum[j]
        m = int(np.argmax(weight))
        if weight[m] > best:
            best, center = float(weight[m]), float((sums[i[m]] + sums[j[m]]) / 2.0)
    return best, center


def _choice_block(rng: np.random.Generator, cdf: np.ndarray, u: np.ndarray, idx: np.ndarray):
    """Fill u with the next uniforms of rng and idx with the atom indices
    that `rng.choice` picks from them: idx = #{j < k - 1 : u >= cdf[j]},
    choice's index searchsorted(cdf, u, side="right")."""
    rng.random(out=u)
    np.greater_equal(u, cdf[0], out=idx, casting="unsafe")
    for c in cdf[1:-1]:
        idx += u >= c


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

    The exhaustive path builds the sums column by column, atom by atom,
    into two preallocated buffers of |atoms|^n + 1 floats that take turns;
    the free one becomes the cumulative weights.  It orders tied sums by
    assignment index (a stable argsort) only when the float probabilities
    differ, since only then does that order change the cumulative weights.
    With equal ones it sorts the sums in place and fills the weights with
    their one value, and the scan weighs only the fullest windows (see
    _windowed_from_sorted), so the result is the same to the bit and the
    call holds the two buffers plus the window scan's per-block buffers.

    The sampled path is `rng.choice(k, size=(10^4, n), p=...)` taken apart
    and run on blocks of _MC_BLOCK rows, with the same stream and the same
    draws.  `rng.random(out=u)` draws a block's uniforms in the order
    `choice` draws them.  The cdf is built as `choice` builds it and ends
    at 1 > u, so `choice`'s index `searchsorted(cdf, u, side="right")` is
    the number of j < k - 1 with u >= cdf[j], which is what the block
    counts before it gathers the atoms (_choice_block).  The law's
    probabilities are positive and sum to 1, so the checks `choice` makes
    on them never fail.  Each row's sum is formed in one fixed order with
    elementwise numpy, s = a_0 x_0, then s += a_j x_j for j = 1, ..., n - 1,
    and not by a BLAS dot, whose order of summation depends on the CPU's
    kernel, the row grouping and the thread count: so the sums, and every
    result built on them, are the same bits on every machine.  The call
    holds two block-sized buffers and the 10^4 sums; the cumulative
    weights are a constant.
    """
    if not delta > 0:
        raise PreconditionError("delta must be positive")
    entries = [float(v) for v in V.entries]
    atoms = np.array([float(a) for a in d.atoms])
    probs = np.array([float(p) for p in d.probs])
    n = len(entries)
    k = len(atoms)
    if k**n <= _EXHAUSTIVE_LIMIT:
        # Assignment index m * k + c holds sums[m] + atoms[c] * v; each step
        # writes its sums into the other buffer, and the free one is cum.
        sums, cum = np.zeros(k**n + 1), np.empty(k**n + 1)
        m = 1
        for v in entries:
            out = cum[: m * k].reshape(m, k)
            for c in range(k):
                np.add(sums[:m], atoms[c] * v, out=out[:, c])
            sums, cum, m = cum, sums, m * k
        sums = sums[:m]
        cum[0] = 0.0
        equal = bool((probs == probs[0]).all())
        if equal:
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
        p, center = _windowed_from_sorted(sums, cum, delta, equal)
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
        _choice_block(rng, cdf, u, idx)
        # The terms a_j x_j overwrite the uniforms, which are spent.
        np.take(atoms, idx, out=u, mode="clip")
        u *= x
        s = sums[lo : lo + _MC_BLOCK]
        np.copyto(s, u[:, 0])
        for j in range(1, n):
            s += u[:, j]
    sums.sort()
    p, center = _windowed_from_sorted(sums, _MC_CUM, delta, True)
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
    if not A > 0:
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
