import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplespectrum.dist import bernoulli_half, make_distribution, rademacher
from simplespectrum.errors import CapExceededError, PreconditionError
from simplespectrum.smallball import (
    WeightVector,
    _windowed_from_sorted,
    is_rich,
    small_ball_exact,
    small_ball_windowed,
)

RAD = rademacher()
BER = bernoulli_half()


def brute_force(values, d):
    """Oracle: enumerate all |atoms|^n assignments; return the max mass and
    the smallest sum attaining it."""
    leaves = [(Fraction(0), Fraction(1))]
    for v in values:
        leaves = [
            (s + a * v, w * p)
            for (s, w) in leaves
            for a, p in zip(d.atoms, d.probs)
        ]
    masses = {}
    for s, w in leaves:
        masses[s] = masses.get(s, Fraction(0)) + w
    best = max(masses.values())
    return best, min(s for s, w in masses.items() if w == best)


def test_empty_vector():
    res = small_ball_exact(WeightVector.exact([]), RAD)
    assert res.p == 1
    assert res.attaining_atom == 0


def test_ones_four():
    res = small_ball_exact(WeightVector.exact([1, 1, 1, 1]), RAD)
    assert res.p == Fraction(3, 8)
    assert res.attaining_atom == 0


def test_binary_weights():
    res = small_ball_exact(WeightVector.exact([1, 2, 4, 8]), RAD)
    assert res.p == Fraction(1, 16)


def test_cap_enforced():
    with pytest.raises(CapExceededError):
        small_ball_exact(WeightVector.exact([1, 2, 4, 8]), RAD, cap=3)


def test_cap_boundary():
    # [1, 2, 4, 8] has 16 distinct signed sums.
    V = WeightVector.exact([1, 2, 4, 8])
    assert small_ball_exact(V, RAD, cap=16).p == Fraction(1, 16)
    with pytest.raises(CapExceededError, match="support 16 exceeds cap 15"):
        small_ball_exact(V, RAD, cap=15)


def test_exact_rejects_numeric_mode():
    with pytest.raises(PreconditionError):
        small_ball_exact(WeightVector.numeric([1.0]), RAD)


@pytest.mark.parametrize("n", range(1, 9))
def test_oracle_equivalence_small(n):
    import random

    rng = random.Random(n)
    for _ in range(20):
        values = [
            Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))
            for _ in range(n)
        ]
        V = WeightVector.exact(values)
        for d in (RAD, BER):
            assert small_ball_exact(V, d).p == brute_force(values, d)[0]


THREE = make_distribution(["-1/3", "0", "5/2"], ["1/5", "1/2", "3/10"])


@pytest.mark.parametrize("d", [RAD, BER, THREE], ids=["rad", "ber", "three"])
@pytest.mark.parametrize("n", range(1, 8))
def test_p_and_attaining_atom_match_oracle(n, d):
    import random

    rng = random.Random(100 + n)
    for _ in range(12):
        values = [
            Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)
        ]
        res = small_ball_exact(WeightVector.exact(values), d)
        assert (res.p, res.attaining_atom) == brute_force(values, d)


def test_sums_beyond_int64_match_oracle():
    import random

    rng = random.Random(62)
    for n in range(3, 8):
        values = [
            rng.choice([-1, 1]) * (2**62 - rng.randint(0, 50)) for _ in range(n)
        ]
        values[-1] //= rng.choice([1, 3])
        assert sum(abs(v) for v in values) >= 2**63  # past the int64 bound
        for d in (RAD, THREE):
            res = small_ball_exact(WeightVector.exact(values), d)
            assert (res.p, res.attaining_atom) == brute_force(values, d)


def test_numpy_integer_entries_match_list():
    # Numpy integers become Python ints: 2^62 * 4 would wrap in int64.
    values = [2**62] * 4
    V = WeightVector.exact(np.array(values))
    assert V == WeightVector.exact(values)
    assert all(type(v.numerator) is int for v in V.entries)
    assert small_ball_exact(V, RAD) == small_ball_exact(WeightVector.exact(values), RAD)


def test_masses_beyond_int64_closed_form():
    # Probabilities (1/3, 2/3): masses are integers over 3^41 > 2^63.
    assert 3**41 > 2**63
    d = make_distribution([-1, 1], ["1/3", "2/3"])
    res = small_ball_exact(WeightVector.exact([1] * 41), d)
    want = max(Fraction(math.comb(41, k) * 2 ** (41 - k), 3**41) for k in range(42))
    assert res.p == want
    # k = 13 and k = 14 minus signs tie; the smaller sum, 41 - 28, wins.
    assert res.attaining_atom == 13


@given(
    st.lists(st.integers(-8, 8), min_size=1, max_size=8),
    st.integers(min_value=-5, max_value=5).filter(lambda c: c != 0),
)
@settings(max_examples=60, deadline=None)
def test_scaling_invariance(values, c):
    V = WeightVector.exact(values)
    cV = WeightVector.exact([c * v for v in values])
    assert small_ball_exact(V, RAD).p == small_ball_exact(cV, RAD).p


@given(st.permutations(list(range(6))), st.lists(st.integers(-8, 8), min_size=6, max_size=6))
@settings(max_examples=40, deadline=None)
def test_permutation_invariance(perm, values):
    V = WeightVector.exact(values)
    W = WeightVector.exact([values[i] for i in perm])
    assert small_ball_exact(V, RAD).p == small_ball_exact(W, RAD).p


@given(st.lists(st.integers(-8, 8), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_upper_and_lower_bounds(values):
    d = make_distribution([0, 1, 3], ["1/2", "1/4", "1/4"])
    p = small_ball_exact(WeightVector.exact(values), d).p
    if any(values):
        assert p <= 1 - Fraction(1, 2)  # 1 - mu with mu = 1/2
    assert p >= Fraction(1, 2) ** len(values)  # prod of max prob


@given(
    st.lists(st.integers(-8, 8), min_size=1, max_size=7),
    st.integers(min_value=-8, max_value=8).filter(lambda v: v != 0),
)
@settings(max_examples=60, deadline=None)
def test_append_monotone(values, extra):
    p0 = small_ball_exact(WeightVector.exact(values), RAD).p
    p1 = small_ball_exact(WeightVector.exact(values + [extra]), RAD).p
    assert p1 <= p0


@given(st.lists(st.integers(1, 50), min_size=1, max_size=10))
@settings(max_examples=60, deadline=None)
def test_classical_littlewood_offord_bound(values):
    # External classical bound for Rademacher signs and nonzero weights.
    n = len(values)
    p = small_ball_exact(WeightVector.exact(values), RAD).p
    assert p <= Fraction(math.comb(n, n // 2), 2**n)


def test_windowed_doubled_zero():
    res = small_ball_windowed(WeightVector.numeric([1.0, 1.0]), RAD, delta=1e-9)
    assert res.p == pytest.approx(0.5)


def test_windowed_incommensurable():
    res = small_ball_windowed(
        WeightVector.numeric([1.0, math.sqrt(2)]), RAD, delta=1e-9
    )
    assert res.p == pytest.approx(0.25)


def test_windowed_covers_everything():
    res = small_ball_windowed(WeightVector.numeric([1.0, 2.0]), RAD, delta=100.0)
    assert res.p == pytest.approx(1.0)


def test_windowed_matches_exact_on_integer_vector():
    values = [1, 1, 2, 3]
    exact = small_ball_exact(WeightVector.exact(values), RAD).p
    win = small_ball_windowed(
        WeightVector.numeric([float(v) for v in values]), RAD, delta=1e-9
    )
    assert win.p == pytest.approx(float(exact))


def test_is_rich_examples():
    rich, p = is_rich(WeightVector.exact([1, 1, 1, 1]), RAD, A=1.0, n=4)
    assert rich and p == Fraction(3, 8)
    rich, p = is_rich(WeightVector.exact([1, 2, 4, 8]), RAD, A=1.0, n=4)
    assert not rich and p == Fraction(1, 16)
    rich, p = is_rich(WeightVector.exact([0] * 10), RAD, A=5.0, n=10)
    assert rich and p == 1


def test_is_rich_windowed_mode():
    rich, p = is_rich(
        WeightVector.numeric([1.0, 1.0, 1.0, 1.0]), RAD, A=1.0, n=4, delta=1e-9
    )
    assert rich and p == pytest.approx(0.375)


def test_is_rich_exact_requires_zero_delta():
    with pytest.raises(PreconditionError):
        is_rich(WeightVector.exact([1]), RAD, A=1.0, n=1, delta=1e-9)


def reference_window(sums, weights, delta):
    """The original pointer scan, kept as the oracle of the vectorised one."""
    best = 0.0
    center = float(sums[0])
    j = 0
    cum = np.concatenate([[0.0], np.cumsum(weights)])
    for i in range(len(sums)):
        while sums[i] - sums[j] > delta:
            j += 1
        w = float(cum[i + 1] - cum[j])
        if w > best:
            best = w
            center = float((sums[i] + sums[j]) / 2.0)
    return best, center


def window(sums, weights, delta):
    cum = np.concatenate([[0.0], np.cumsum(weights)])
    return _windowed_from_sorted(sums, cum, delta)


def test_window_matches_pointer_scan_on_random_sums():
    rng = np.random.default_rng(11)
    for size in (1, 2, 3, 10, 100, 1000):
        for scale in (1e-3, 1.0, 1e6):
            sums = np.sort(rng.standard_normal(size) * scale)
            sums = np.sort(np.concatenate([sums, sums[: size // 3]]))
            weights = rng.random(len(sums))
            for delta in (1e-9, 1e-3, 0.1, 1.0, 10.0):
                assert window(sums, weights, delta) == reference_window(
                    sums, weights, delta
                )


def scan_starts(sums, delta):
    """The window start j of the pointer scan, for every end i."""
    starts = [0]
    for s in sums[1:]:
        j = starts[-1]
        while s - sums[j] > delta:
            j += 1
        starts.append(j)
    return np.array(starts)


@pytest.mark.parametrize("delta", [0.1, 0.2, 0.3, 0.7])
def test_window_matches_pointer_scan_under_rounding(delta):
    # On multiples of 0.1, sums[i] - delta and sums[i] - sums[j] round
    # differently, so searchsorted alone puts some window starts one off.
    sums = 0.1 * np.arange(300)
    assert (np.searchsorted(sums, sums - delta) != scan_starts(sums, delta)).any()
    for weights in (np.full(300, 1 / 300), np.linspace(2.0, 1.0, 300)):
        assert window(sums, weights, delta) == reference_window(sums, weights, delta)
    repeated = np.repeat(sums, 4)
    weights = np.random.default_rng(3).random(len(repeated))
    assert window(repeated, weights, delta) == reference_window(
        repeated, weights, delta
    )


def test_window_rounding_goes_both_ways():
    # The inputs above need j moved up (delta = 0.3) and down (delta = 0.7).
    sums = 0.1 * np.arange(300)
    assert (np.searchsorted(sums, sums - 0.3) < scan_starts(sums, 0.3)).any()
    assert (np.searchsorted(sums, sums - 0.7) > scan_starts(sums, 0.7)).any()


@pytest.mark.parametrize("d", [RAD, THREE], ids=["rad", "three"])
def test_windowed_exhaustive_matches_reference_pipeline(d):
    rng = np.random.default_rng(5)
    atoms = np.array([float(a) for a in d.atoms])
    probs = np.array([float(p) for p in d.probs])
    for n in (1, 4, 9):
        for values in (rng.standard_normal(n), 0.1 * rng.integers(-3, 4, n)):
            sums, weights = np.zeros(1), np.ones(1)
            for v in values:
                sums = (sums[:, None] + atoms[None, :] * v).ravel()
                weights = (weights[:, None] * probs[None, :]).ravel()
            order = np.argsort(sums, kind="stable")
            for delta in (1e-9, 0.1, 0.3):
                res = small_ball_windowed(WeightVector.numeric(values), d, delta)
                assert res.mode == "windowed"
                assert (res.p, res.attaining_atom) == reference_window(
                    sums[order], weights[order], delta
                )


def test_windowed_exhaustive_memory():
    import tracemalloc

    V = WeightVector.numeric(np.random.default_rng(18).standard_normal(18))
    tracemalloc.start()
    try:
        small_ball_windowed(V, RAD, delta=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 2^18 sums take 2 MiB per float64 array; the scan keeps at most five.
    assert peak <= 10 * 10**6
