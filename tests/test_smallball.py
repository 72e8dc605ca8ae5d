import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplespectrum import eigen_decompose, graph_from_index, smallball
from simplespectrum.dist import bernoulli_half, make_distribution, rademacher
from simplespectrum.errors import CapExceededError, PreconditionError
from simplespectrum.matrices import SymmetricMatrix
from simplespectrum.smallball import (
    WeightVector,
    _windowed_from_sorted,
    is_rich,
    small_ball_exact,
    small_ball_windowed,
)

RAD = rademacher()
BER = bernoulli_half()
TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


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


def test_cap_enforced(monkeypatch):
    monkeypatch.setattr(smallball, "_SUM_CAP", 3)
    with pytest.raises(CapExceededError):
        small_ball_exact(WeightVector.exact([1, 2, 4, 8]), RAD)


def test_cap_boundary(monkeypatch):
    # [1, 2, 4, 8] has 16 distinct signed sums.
    V = WeightVector.exact([1, 2, 4, 8])
    monkeypatch.setattr(smallball, "_SUM_CAP", 16)
    assert small_ball_exact(V, RAD).p == Fraction(1, 16)
    monkeypatch.setattr(smallball, "_SUM_CAP", 15)
    with pytest.raises(CapExceededError, match="support 16 exceeds cap 15"):
        small_ball_exact(V, RAD)


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


def test_is_rich_exact_non_integer_A():
    # A non-integer A compares float(p) with n^-A.
    ones = WeightVector.exact([1, 1, 1, 1])
    assert is_rich(ones, RAD, A=1.5, n=4) == (True, Fraction(3, 8))  # 3/8 >= 1/8
    assert is_rich(ones, RAD, A=0.5, n=4) == (False, Fraction(3, 8))  # 3/8 < 1/2
    assert is_rich(WeightVector.exact([1, 1]), RAD, A=0.5, n=4) == (True, Fraction(1, 2))


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
    """The package's scan; it weighs only the fullest windows when every
    weight is the same."""
    cum = np.concatenate([[0.0], np.cumsum(weights)])
    equal = bool((weights == weights[0]).all())
    return _windowed_from_sorted(sums, cum, delta, equal)


def test_window_matches_pointer_scan_on_random_sums(monkeypatch):
    rng = np.random.default_rng(11)
    for size in (1, 2, 3, 10, 100, 1000):
        for scale in (1e-3, 1.0, 1e6):
            sums = np.sort(rng.standard_normal(size) * scale)
            sums = np.sort(np.concatenate([sums, sums[: size // 3]]))
            weights = rng.random(len(sums))
            for delta in (1e-9, 1e-3, 0.1, 1.0, 10.0):
                expected = reference_window(sums, weights, delta)
                for block in (1, 3, 64, 1 << 15):
                    monkeypatch.setattr(smallball, "_SCAN_BLOCK", block)
                    assert window(sums, weights, delta) == expected


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


def reference_pipeline(values, d, delta):
    """The exhaustive windowed path with every assignment's weight, a
    stable argsort and the pointer scan, for any law."""
    atoms = np.array([float(a) for a in d.atoms])
    probs = np.array([float(p) for p in d.probs])
    sums, weights = np.zeros(1), np.ones(1)
    for v in values:
        sums = (sums[:, None] + atoms[None, :] * v).ravel()
        weights = (weights[:, None] * probs[None, :]).ravel()
    order = np.argsort(sums, kind="stable")
    return reference_window(sums[order], weights[order], delta)


U3 = make_distribution(["-1", "0", "2"], ["1/3", "1/3", "1/3"])


def pipeline_vectors():
    """Gaussian and tie-heavy vectors (zeros, repeated entries, multiples
    of 0.1 and 0.25), and the eigenvectors of two small graphs as
    rich_eigenvector_frequency takes them."""
    rng = np.random.default_rng(5)
    vectors = []
    for n in (1, 4, 9):
        tied = 0.5 * rng.integers(-4, 5, n)
        tied[: n // 3] = 0.0
        repeated = np.repeat(rng.standard_normal((n + 2) // 3), 3)[:n]
        vectors += [
            rng.standard_normal(n),
            0.1 * rng.integers(-3, 4, n),
            0.25 * rng.integers(-3, 4, n),
            tied,
            repeated,
        ]
    cycle = np.roll(np.eye(8, dtype=np.int64), 1, axis=1)
    for M in (graph_from_index(6, 684), SymmetricMatrix(cycle + cycle.T)):
        vectors += list(eigen_decompose(M, tol=1e-13).eigenvectors.T)
    return vectors


@pytest.mark.parametrize("d", [RAD, BER, U3, THREE], ids=["rad", "ber", "u3", "three"])
def test_windowed_exhaustive_matches_reference_pipeline(d):
    # RAD, BER and U3 take the equal-weight path, THREE the stable one.
    for values in pipeline_vectors():
        for delta in (1e-9, 1e-3, 0.1, 0.3):
            res = small_ball_windowed(WeightVector.numeric(values), d, delta)
            assert res.mode == "windowed"
            assert repr((res.p, res.attaining_atom)) == repr(
                reference_pipeline(values, d, delta)
            )


def test_equal_weights_skip_the_argsort(monkeypatch):
    values = 0.5 * np.arange(-4, 5)
    expected = reference_pipeline(values, RAD, 1e-3)

    def refuse(*args, **kwargs):
        raise AssertionError("argsort called")

    monkeypatch.setattr(np, "argsort", refuse)
    res = small_ball_windowed(WeightVector.numeric(values), RAD, 1e-3)
    assert (res.p, res.attaining_atom) == expected
    with pytest.raises(AssertionError, match="argsort called"):
        small_ball_windowed(WeightVector.numeric(values), THREE, 1e-3)


def test_blocked_scan_finds_the_heaviest_window_in_a_later_block(monkeypatch):
    monkeypatch.setattr(smallball, "_SCAN_BLOCK", 4)
    sums = np.concatenate([0.5 * np.arange(30), [40.0, 40.25, 40.5]])
    weights = np.ones(len(sums))
    assert window(sums, weights, 0.5) == reference_window(sums, weights, 0.5)
    assert window(sums, weights, 0.5) == (3.0, 40.25)


def test_blocked_scan_keeps_the_first_of_equal_maxima_across_a_boundary(monkeypatch):
    # Windows [2, 2.5] (ending at i = 3, block 0) and [2.5, 3] (ending at
    # i = 4, block 1) both weigh 2; the first must win.
    monkeypatch.setattr(smallball, "_SCAN_BLOCK", 4)
    sums = np.array([0.0, 1.0, 2.0, 2.5, 3.0, 10.0, 11.0, 12.0])
    weights = np.ones(len(sums))
    assert window(sums, weights, 0.5) == reference_window(sums, weights, 0.5)
    assert window(sums, weights, 0.5) == (2.0, 2.25)


@pytest.mark.parametrize("block", [1, 3, 4, 64])
def test_fullest_window_scan_matches_pointer_scan(monkeypatch, block):
    # Equal weights: the 0.1 grid that rounds both ways, repeated sums,
    # N = 1, and a delta past the spread, where one window holds all N.
    monkeypatch.setattr(smallball, "_SCAN_BLOCK", block)
    grid = 0.1 * np.arange(300)
    gauss = np.sort(np.random.default_rng(7).standard_normal(200))
    for sums in (grid, np.repeat(grid[:75], 4), np.array([2.5]), gauss):
        for delta in (1e-9, 0.1, 0.2, 0.3, 0.7, 1e3):
            for w in (1.0, 1 / len(sums), 2.0**-20):
                weights = np.full(len(sums), w)
                assert window(sums, weights, delta) == reference_window(sums, weights, delta)
            counts = np.arange(1, len(sums) + 1) - scan_starts(sums, delta)
            assert smallball._fullest(sums, delta) == counts.max()
        assert smallball._fullest(sums, 1e3) == len(sums)


def test_equal_weights_never_search_window_starts(monkeypatch):
    values = np.random.default_rng(8).standard_normal(21)
    cases = ((RAD, 12), (U3, 8), (RAD, 21))
    expected = [small_ball_windowed(WeightVector.numeric(values[:n]), d, 1e-3) for d, n in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("_window_starts called")

    monkeypatch.setattr(smallball, "_window_starts", refuse)
    for res, (d, n) in zip(expected, cases):
        assert small_ball_windowed(WeightVector.numeric(values[:n]), d, 1e-3) == res
    with pytest.raises(AssertionError, match="_window_starts called"):
        small_ball_windowed(WeightVector.numeric(values[:8]), THREE, 1e-3)


def test_fullest_windows_at_the_least_non_dyadic_weight():
    # 3^12 sums of weight fl(1/3)^12: the largest exhaustive U3 call, where
    # cum rounds and the windows of K sums weigh different floats.
    values = np.tile([0.1, 0.2, 0.3], 4)
    assert 3**13 > smallball._EXHAUSTIVE_LIMIT
    for delta in (1e-9, 0.15):
        res = small_ball_windowed(WeightVector.numeric(values), U3, delta)
        assert res.mode == "windowed"
        assert repr((res.p, res.attaining_atom)) == repr(
            reference_pipeline(values, U3, delta)
        )


def test_windowed_empty_vector_is_the_empty_sum():
    for d in (RAD, THREE):
        res = small_ball_windowed(WeightVector.numeric([]), d, delta=0.1)
        assert (res.p, res.attaining_atom, res.mode) == (1.0, 0.0, "windowed")


def test_windowed_mc_default_rng_is_seed_0():
    V = WeightVector.numeric(np.random.default_rng(4).standard_normal(21))
    assert 2**21 > smallball._EXHAUSTIVE_LIMIT
    default = small_ball_windowed(V, RAD, delta=0.05)
    assert default.mode == "windowed-mc"
    assert default == small_ball_windowed(V, RAD, delta=0.05, rng=np.random.default_rng(0))


# sha256 of (p, attaining_atom, mode) from small_ball_windowed on the cases
# below: the empty vector, lengths on both sides of the 2^20 exhaustive
# limit, and the Monte Carlo branch with and without an rng.
WINDOWED_SHA256 = "e8e1445b3b829a305f2ab9a6099e592493b71d99f5123702eb3c39bdafde9030"


def windowed_digest():
    """The modes of the pinned cases and the sha256 of their results."""
    rng = np.random.default_rng(23)
    cases = [(WeightVector.numeric([]), RAD, 0.1, None)]
    for d, n in ((RAD, 20), (RAD, 21), (THREE, 12), (THREE, 13)):
        V = WeightVector.numeric(rng.standard_normal(n))
        cases += [(V, d, 0.05, None), (V, d, 0.05, np.random.default_rng(9))]
    cases.append((WeightVector.numeric(0.25 * rng.integers(-3, 4, 21)), RAD, 1e-9, None))
    out = [
        (res.p, res.attaining_atom, res.mode)
        for res in (small_ball_windowed(V, d, delta, rng=r) for V, d, delta, r in cases)
    ]
    return [mode for _, _, mode in out], hashlib.sha256(repr(out).encode()).hexdigest()


def test_windowed_results_pinned():
    modes, digest = windowed_digest()
    assert modes == ["windowed"] * 3 + ["windowed-mc"] * 2 + ["windowed"] * 2 + ["windowed-mc"] * 3
    assert digest == WINDOWED_SHA256


def test_windowed_results_do_not_depend_on_the_blas_kernel():
    # The sampled sums use no BLAS, so OpenBLAS's kernels for three CPU
    # generations give one digest; a float pin formed by a BLAS dot would
    # differ under at least one of them.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    script = (
        f"import sys; sys.path.insert(0, {str(TESTS)!r}); "
        "import test_smallball; print(test_smallball.windowed_digest()[1])"
    )
    digests = set()
    for core in ("Haswell", "Sandybridge", "Nehalem"):
        env["OPENBLAS_CORETYPE"] = core
        run = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert run.returncode == 0, run.stderr
        digests.add(run.stdout.strip())
    assert digests == {WINDOWED_SHA256}


def test_windowed_exhaustive_memory():
    import tracemalloc

    V = WeightVector.numeric(np.random.default_rng(18).standard_normal(18))
    tracemalloc.start()
    try:
        small_ball_windowed(V, RAD, delta=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 2^18 sums take 2 MiB per float64 array.  The call builds the sums in
    # two buffers of 2^18 + 1 floats that take turns, the free one becomes
    # the cumulative weights, and the scan holds buffers of one block.
    assert peak <= 10 * 10**6


def test_windowed_exhaustive_memory_per_block():
    import tracemalloc

    V = WeightVector.numeric(np.random.default_rng(18).standard_normal(18))
    tracemalloc.start()
    try:
        small_ball_windowed(V, RAD, delta=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Equal weights: the two buffers of 2^18 + 1 floats, 2 MiB each, that
    # hold the sums and their cumulative weights, and the buffers of one
    # block of window ends, for the search for K and for the fullest windows.
    assert peak <= 6 * 10**6


FOUR = make_distribution(["-2", "-1/2", "1", "3"], ["1/10", "2/5", "1/4", "1/4"])
LOPSIDED = make_distribution([-1, 1], ["1/3", "2/3"])


class NoChoice(np.random.Generator):
    """A generator on the same stream whose `choice` must not be reached."""

    def choice(self, *args, **kwargs):
        raise AssertionError("the sampled path called Generator.choice")


def choice_reference(values, d, rng):
    """The atom indices that `Generator.choice` draws, and their sums,
    each formed as a_0 x_0 + a_1 x_1 + ... in that order, sorted."""
    atoms = np.array([float(a) for a in d.atoms])
    probs = np.array([float(p) for p in d.probs])
    size = (smallball._MC_SAMPLES, len(values))
    draws = rng.choice(len(atoms), size=size, p=probs / probs.sum())
    terms = atoms[draws] * np.array(values, dtype=float)
    sums = terms[:, 0]
    for j in range(1, len(values)):
        sums = sums + terms[:, j]
    return draws, np.sort(sums)


@pytest.fixture
def seen(monkeypatch):
    """The (sorted sums, cumulative weights) each windowed call scans."""
    calls = []

    def capture(sums, cum, delta, equal):
        calls.append((sums.copy(), cum))
        return _windowed_from_sorted(sums, cum, delta, equal)

    monkeypatch.setattr(smallball, "_windowed_from_sorted", capture)
    return calls


@pytest.fixture
def drawn(monkeypatch):
    """The atom indices of each sampled block, in the order drawn."""
    blocks = []
    choice_block = smallball._choice_block

    def capture(rng, cdf, u, idx):
        choice_block(rng, cdf, u, idx)
        blocks.append(idx.copy())

    monkeypatch.setattr(smallball, "_choice_block", capture)
    return blocks


@pytest.mark.parametrize(
    "d, lengths",
    [(RAD, (21, 24, 40)), (BER, (21, 30)), (LOPSIDED, (21, 27)), (U3, (13, 17)),
     (THREE, (13, 16)), (FOUR, (11, 14))],
    ids=["rad", "ber", "lopsided", "u3", "three", "four"],
)
def test_windowed_mc_matches_generator_choice(monkeypatch, seen, drawn, d, lengths):
    # rng=None must seed the same stream as default_rng(0) without choice.
    monkeypatch.setattr(np.random, "default_rng", lambda s: NoChoice(np.random.PCG64(s)))
    cum = np.concatenate([[0.0], np.cumsum(np.full(smallball._MC_SAMPLES, 1e-4))])
    for n in lengths:
        assert len(d.atoms) ** n > smallball._EXHAUSTIVE_LIMIT
        g = np.random.Generator(np.random.PCG64(n))
        for values in (g.standard_normal(n), 0.25 * g.integers(-3, 4, n)):
            for seed in (None, 7, n):
                rng = None if seed is None else NoChoice(np.random.PCG64(seed))
                ref_rng = np.random.Generator(np.random.PCG64(seed or 0))
                draws, ref = choice_reference(values, d, ref_rng)
                res = small_ball_windowed(WeightVector.numeric(values), d, 1e-3, rng=rng)
                assert res.mode == "windowed-mc"
                assert np.array_equal(np.concatenate(drawn), draws)
                drawn.clear()
                sums, used_cum = seen.pop()
                assert sums.tobytes() == ref.tobytes()
                assert used_cum.tobytes() == cum.tobytes()
                if rng is not None:
                    assert rng.bit_generator.state == ref_rng.bit_generator.state


SEVEN = make_distribution(list(range(-3, 4)), ["1/7"] * 7)


class ScriptedUniforms(np.random.Generator):
    """A generator whose uniforms cycle through a fixed script, in order.
    `choice` draws its uniforms through `self.random`, so it reads them
    too."""

    def __init__(self, script):
        super().__init__(np.random.PCG64(0))
        self.script = np.asarray(script, dtype=float)
        self.drawn = 0

    def random(self, size=None, dtype=np.float64, out=None):
        shape = size if out is None else out.shape
        m = math.prod(shape)
        vals = self.script[(self.drawn + np.arange(m)) % len(self.script)]
        self.drawn += m
        if out is None:
            return vals.reshape(shape)
        out[...] = vals.reshape(shape)
        return out


@pytest.mark.parametrize(
    "d, n", [(RAD, 21), (FOUR, 11), (SEVEN, 8)], ids=["rad", "four", "seven"]
)
def test_windowed_mc_uniforms_on_the_cdf_pick_as_choice(seen, drawn, d, n):
    # Uniforms on, just below and just above each cdf value, normalized as
    # choice normalizes it and not (for SEVEN, the float cumsum ends past 1).
    probs = np.array([float(p) for p in d.probs])
    raw = np.cumsum(probs / probs.sum())
    script = [0.0, np.nextafter(1.0, 0.0)]
    for c in (*raw[:-1], *(raw / raw[-1])[:-1]):
        script += [c, np.nextafter(c, 0.0), np.nextafter(c, 1.0)]
    assert len(probs) ** n > smallball._EXHAUSTIVE_LIMIT
    values = np.random.default_rng(n).standard_normal(n)
    rng, ref_rng = ScriptedUniforms(script), ScriptedUniforms(script)
    draws, ref = choice_reference(values, d, ref_rng)
    small_ball_windowed(WeightVector.numeric(values), d, 1e-3, rng=rng)
    assert np.array_equal(np.concatenate(drawn), draws)
    assert seen.pop()[0].tobytes() == ref.tobytes()
    assert rng.drawn == ref_rng.drawn == smallball._MC_SAMPLES * n


def test_windowed_mc_memory():
    import tracemalloc

    V = WeightVector.numeric(np.random.default_rng(40).standard_normal(40))
    tracemalloc.start()
    try:
        small_ball_windowed(V, RAD, delta=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Two blocks of 1000 x 40 (uniforms, then atoms; and their indices),
    # 320 kB each, the 10^4 sums and the scan's buffers for them.
    assert peak <= 1.5 * 10**6


@pytest.mark.parametrize(
    "call",
    [
        lambda: small_ball_windowed(WeightVector.numeric([1.0]), RAD, delta=0.0),
        lambda: small_ball_windowed(WeightVector.numeric([1.0]), RAD, delta=-1.0),
        lambda: is_rich(WeightVector.exact([1]), RAD, A=0.0, n=1),
        lambda: is_rich(WeightVector.numeric([1.0]), RAD, A=-1.0, n=1, delta=0.1),
        lambda: is_rich(WeightVector.exact([1]), RAD, A=1.0, n=0),
        lambda: small_ball_windowed(WeightVector.numeric([1.0]), RAD, delta=math.nan),
        lambda: is_rich(WeightVector.exact([1]), RAD, A=math.nan, n=1),
        lambda: is_rich(WeightVector.numeric([1.0]), RAD, A=math.nan, n=1, delta=0.1),
    ],
    ids=["delta-0", "delta-negative", "A-0", "A-negative", "n-0", "delta-nan", "A-nan",
         "A-nan-numeric"],
)
def test_contract_edges_raise(call):
    with pytest.raises(PreconditionError):
        call()
