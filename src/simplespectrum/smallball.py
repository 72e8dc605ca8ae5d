"""Concentration probabilities p(V) = sup_x P(sum xi_i v_i = x) and richness.

Exact mode works on an integer lattice: the atoms, the vector and the
probabilities are each scaled by the lcm of their denominators, so every
partial sum is an integer and every mass an integer over one common
denominator.  The support is a pair of sorted arrays (sums, masses), and
the supremum is a max over it.  Windowed mode is the float surrogate
(eigenvectors of integer matrices have irrational entries, so exact
equality is unattainable there): it reports the largest mass a sliding
window of width delta can capture, an upper bound on the exact
concentration for any point inside the window.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence, Union

import numpy as np

from .dist import AtomicDistribution
from .errors import CapExceededError, PreconditionError

DEFAULT_SUM_CAP = 10**7
_EXHAUSTIVE_LIMIT = 1 << 20


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
    window: float = 0.0
    trials: int = 0


def small_ball_exact(
    V: WeightVector, d: AtomicDistribution, cap: int = DEFAULT_SUM_CAP
) -> SmallBallResult:
    """Exact maximal point mass of sum xi_i v_i by iterated convolution.

    Atoms scale by L_a and V by L_v (the lcms of their denominators), so a
    sum s is the integer s * L_a * L_v; probabilities scale by D, so after
    k entries each mass is an integer over D^k.  Each entry concatenates
    the shifted copies of the sorted support, sorts them and merges equal
    sums.  Sums are int64 when the scaled max|a| * sum|v| is below 2^63,
    masses when D^n is; either holds Python ints otherwise, so nothing
    wraps.  CapExceededError is raised as soon as the distinct-sum support
    exceeds `cap`.  The result becomes a Fraction once, at the end.

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
        if len(starts) > cap:
            raise CapExceededError(
                f"distinct-sum support {len(starts)} exceeds cap {cap}"
            )
        sums = cand[starts]
        masses = np.add.reduceat(mass[order], starts)
    best = int(np.argmax(masses))
    return SmallBallResult(
        p=Fraction(int(masses[best]), den**n),
        attaining_atom=Fraction(int(sums[best]), la * lv),
        mode="exact",
    )


def _windowed_from_sorted(sums: np.ndarray, cum: np.ndarray, delta: float):
    """Max weight captured by a window of width delta over sorted sums.

    `cum` holds the cumulative weights with a leading 0, so the window
    [j, i] weighs cum[i + 1] - cum[j].  For each i, j is the first index
    with sums[i] - sums[j] <= delta.  `searchsorted` finds it up to float
    rounding, since it compares sums[j] with sums[i] - delta instead; j
    then moves one distinct sum at a time until that very test holds at j
    and fails at j - 1.  The first maximum wins, as in a scan that keeps a
    window only when it is strictly heavier.  Work buffers are reused, so
    the transient memory is two arrays the size of `sums` and a mask.
    """
    buf = np.subtract(sums, delta)
    j = np.searchsorted(sums, buf)
    mask = np.empty(len(sums), dtype=bool)

    def too_wide():
        np.take(sums, j, out=buf, mode="clip")
        np.subtract(sums, buf, out=buf)
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
            break
        down = np.flatnonzero(mask)
        j[down] = np.searchsorted(sums, sums[j[down] - 1], side="left")
    np.take(cum, j, out=buf, mode="clip")
    np.subtract(cum[1:], buf, out=buf)
    i = int(np.argmax(buf))
    if not buf[i] > 0.0:
        return 0.0, float(sums[0])
    return float(buf[i]), float((sums[i] + sums[j[i]]) / 2.0)


def small_ball_windowed(
    V: WeightVector,
    d: AtomicDistribution,
    delta: float,
    trials: int = 10**4,
    rng: Optional[np.random.Generator] = None,
) -> SmallBallResult:
    """Estimate sup_x P(|sum xi_i v_i - x| <= delta/2) for a float vector.

    Exhaustive over all |atoms|^n assignments when that fits in 2^20,
    else Monte Carlo over `trials` samples with the window maximized over
    sampled sums.
    """
    if delta <= 0:
        raise PreconditionError("delta must be positive")
    if trials < 1:
        raise PreconditionError("trials must be >= 1")
    entries = [float(v) for v in V.entries]
    atoms = np.array([float(a) for a in d.atoms])
    probs = np.array([float(p) for p in d.probs])
    n = len(entries)
    k = len(atoms)
    if not entries:
        return SmallBallResult(p=1.0, attaining_atom=0.0, mode="windowed", window=delta)
    if k**n <= _EXHAUSTIVE_LIMIT:
        sums = np.zeros(1)
        weights = np.ones(1)
        for v in entries:
            sums = (sums[:, None] + atoms[None, :] * v).ravel()
            weights = (weights[:, None] * probs[None, :]).ravel()
        order = np.argsort(sums, kind="stable")
        # mode="clip" writes straight into `out`; "raise" would buffer it.
        cum = np.empty(len(sums) + 1)
        cum[0] = 0.0
        np.take(weights, order, out=cum[1:], mode="clip")
        np.cumsum(cum[1:], out=cum[1:])
        ordered = np.take(sums, order, out=weights, mode="clip")
        del order, sums
        p, center = _windowed_from_sorted(ordered, cum, delta)
        return SmallBallResult(
            p=p, attaining_atom=center, mode="windowed", window=delta
        )
    if rng is None:
        rng = np.random.default_rng(0)
    draws = rng.choice(k, size=(trials, n), p=probs / probs.sum())
    sums = np.sort(atoms[draws] @ np.array(entries))
    cum = np.concatenate([[0.0], np.cumsum(np.full(trials, 1.0 / trials))])
    p, center = _windowed_from_sorted(sums, cum, delta)
    return SmallBallResult(
        p=p, attaining_atom=center, mode="windowed-mc", window=delta, trials=trials
    )


def is_rich(
    V: WeightVector,
    d: AtomicDistribution,
    A: float,
    n: int,
    delta: float = 0.0,
    cap: int = DEFAULT_SUM_CAP,
    trials: int = 10**4,
    rng: Optional[np.random.Generator] = None,
) -> tuple[bool, Union[Fraction, float]]:
    """Test p(V) >= n^(-A); returns (verdict, p).

    The threshold always uses the caller-supplied n (by convention the
    length of the vector under test).  Exact mode compares rationals
    exactly when A is an integer.
    """
    if A <= 0:
        raise PreconditionError("A must be positive")
    if n < 1:
        raise PreconditionError("n must be >= 1")
    if V.mode == "exact":
        if delta != 0.0:
            raise PreconditionError("exact mode requires delta = 0")
        res = small_ball_exact(V, d, cap=cap)
        if float(A).is_integer():
            return res.p >= Fraction(1, n ** int(A)), res.p
        return float(res.p) >= n ** (-A), res.p
    res = small_ball_windowed(V, d, delta, trials=trials, rng=rng)
    return res.p >= n ** (-A), res.p
