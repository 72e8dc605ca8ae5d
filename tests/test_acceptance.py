"""Acceptance suite: one pass/fail line per criterion.

Each criterion prints "[criterion N] <name>: PASS|FAIL" so the gate is
readable from the pytest log even without -v.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from simplespectrum.dist import bernoulli_half, rademacher, zero_atom
from simplespectrum.gaps import Gap, full_rank_reduce, is_proper, member_set, volume
from simplespectrum.harness import (
    exhaustive_census,
    monte_carlo_simplicity,
    verify_orthogonality_lemma,
    wilson_interval,
)
from simplespectrum.matrices import (
    EnsembleSpec,
    graph_from_index,
    sample_matrix,
    trial_rng,
)
from simplespectrum.smallball import WeightVector, small_ball_exact
from simplespectrum.spectrum import (
    char_poly,
    eigen_decompose,
    simplicity_exact,
    simplicity_numeric,
)
from simplespectrum.structure import (
    StructureParams,
    StructureReport,
    refine_structure,
    verify_report,
)

F = Fraction
RAD = rademacher()
BER = bernoulli_half()
GNP = EnsembleSpec(offdiag=bernoulli_half(), diag=zero_atom())
SIGN = EnsembleSpec(offdiag=rademacher(), diag=rademacher())
Z99 = 2.5758293035489004

# First verified exhaustive run; regression fixture for criterion 1.
CENSUS_SNAPSHOT = {
    2: (2, 1),
    3: (8, 6),
    4: (64, 30),
    5: (1024, 750),
    6: (32768, 20340),
}


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num}] {name}: FAIL")
        raise
    print(f"\n[criterion {num}] {name}: PASS")


@pytest.fixture(scope="module")
def census():
    return {n: exhaustive_census(n, workers=1) for n in range(2, 7)}


def test_criterion_1_census_exactness(census):
    with criterion(1, "exhaustive census exactness"):
        for n in (2, 3):
            t0 = time.monotonic()
            c = exhaustive_census(n)
            assert time.monotonic() - t0 < 1.0
            assert F(c.simple_count, c.total) == {2: F(1, 2), 3: F(3, 4)}[n]
        for n in range(2, 7):
            c = census[n]
            assert (c.total, c.simple_count) == CENSUS_SNAPSHOT[n]
        # Worker-count invariance.
        assert exhaustive_census(5, workers=1) == exhaustive_census(5, workers=3)


def test_criterion_2_orthogonality_lemma_suite():
    with criterion(2, "orthogonality lemma on all non-simple graphs n<=6"):
        t0 = time.monotonic()
        checked = 0
        for n in range(2, 7):
            for index in range(2 ** (n * (n - 1) // 2)):
                M = graph_from_index(n, index)
                if simplicity_exact(M).is_simple:
                    continue
                ok, witness = verify_orthogonality_lemma(M)
                assert ok, (n, index, witness)
                checked += 1
        assert checked > 1000  # "thousands of matrices"
        assert time.monotonic() - t0 < 300.0


def brute_force_p(values, d):
    leaves = {F(0): F(1)}
    for v in values:
        nxt = {}
        for s, w in leaves.items():
            for a, p in zip(d.atoms, d.probs):
                key = s + a * v
                nxt[key] = nxt.get(key, F(0)) + w * p
        leaves = nxt
    return max(leaves.values())


def test_criterion_3_smallball_oracle_equivalence():
    with criterion(3, "small-ball oracle equivalence"):
        assert small_ball_exact(WeightVector.exact([1, 1, 1, 1]), RAD).p == F(3, 8)
        assert small_ball_exact(WeightVector.exact([1, 2, 4, 8]), RAD).p == F(1, 16)
        for n in range(1, 13):
            rng = random.Random(1000 + n)
            for _ in range(200):
                values = [
                    F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)
                ]
                V = WeightVector.exact(values)
                for d in (RAD, BER):
                    assert small_ball_exact(V, d).p == brute_force_p(values, d)


def test_criterion_4_smallball_property_suite():
    with criterion(4, "small-ball property suite"):
        rng = random.Random(4)
        for _ in range(1000):
            n = rng.randint(1, 12)
            values = [
                rng.choice([-1, 1]) * rng.randint(1, 9) for _ in range(n)
            ]
            V = WeightVector.exact(values)
            p = small_ball_exact(V, RAD).p
            c = rng.choice([-3, -2, 2, 3])
            scaled = WeightVector.exact([c * v for v in values])
            assert small_ball_exact(scaled, RAD).p == p
            perm = list(range(n))
            rng.shuffle(perm)
            permuted = WeightVector.exact([values[i] for i in perm])
            assert small_ball_exact(permuted, RAD).p == p
            assert p <= 1 - F(1, 2)  # one nonzero coordinate, mu = 1/2
            assert p >= F(1, 2) ** n  # product of max atom probabilities
            extra = rng.choice([-1, 1]) * rng.randint(1, 9)
            assert small_ball_exact(WeightVector.exact(values + [extra]), RAD).p <= p
            assert p <= F(math.comb(n, n // 2), 2**n)


def test_criterion_5_gap_suite():
    with criterion(5, "GAP properness and full-rank reduction"):
        rng = random.Random(5)
        tested = 0
        while tested < 500:
            r = rng.randint(1, 3)
            gens = [F(rng.randint(-20, 20), rng.randint(1, 3)) for _ in range(r)]
            dims = [F(rng.randint(0, 6)) for _ in range(r)]
            P = Gap(tuple(gens), tuple(dims))
            if volume(P) > 10**4:
                continue
            tested += 1
            assert is_proper(P) == (len(member_set(P)) == volume(P))
        for i in range(100):
            rng2 = random.Random(500 + i)
            # Degenerate by construction: one generator is so large that no
            # box point using it lands inside P, so Sigma cannot span.
            g = F(rng2.randint(1, 4))
            big = F(10 ** rng2.randint(5, 8) + rng2.randint(0, 9))
            d1 = F(rng2.randint(1, 3))
            d2 = F(rng2.randint(1, 3))
            P_I = Gap((g, big), (d1, d2))
            P = Gap((F(1),), (F(rng2.randint(1, 4) * int(g)),))
            reduced = full_rank_reduce(P_I, P, cap=10**5)
            assert reduced.rank < P_I.rank
            lhs = member_set(reduced, 10**5) & member_set(P, 10**5)
            rhs = member_set(P_I, 10**5) & member_set(P, 10**5)
            assert lhs == rhs


def test_criterion_6_structure_pipeline():
    with criterion(6, "structure refinement pipeline"):
        t0 = time.monotonic()
        params = StructureParams(A=1.0, eps=0.2, d0=3, C0=F(10))
        V = WeightVector.exact([1] * 16)
        report = refine_structure(V, RAD, params)
        assert verify_report(V, RAD, params, report).ok
        # Four tampered reports must each be rejected.
        def mutate(**kw):
            base = dict(
                w_indices=report.w_indices,
                wprime_indices=report.wprime_indices,
                p=report.p,
                gap=report.gap,
                certificates={},
            )
            base.update(kw)
            return StructureReport(**base)

        assert not verify_report(V, RAD, params, mutate(wprime_indices=(0, 0, 1))).ok
        assert not verify_report(V, RAD, params, mutate(p=report.p / 10**6)).ok
        tampered_V = WeightVector.exact([1] * 15 + [7])
        assert not verify_report(tampered_V, RAD, params, report).ok
        assert not verify_report(
            V, RAD, params, mutate(w_indices=(0,), wprime_indices=(0,))
        ).ok
        assert time.monotonic() - t0 < 30.0


def test_criterion_7_exact_numeric_reconciliation():
    with criterion(7, "exact/numeric reconciliation at n=10"):
        t0 = time.monotonic()
        n, trials = 10, 10**4
        disagreements = []
        for trial in range(trials):
            M = sample_matrix(SIGN, n, trial_rng(7, trial))
            exact = simplicity_exact(M)
            numeric = simplicity_numeric(M, gap_tol=1e-8)
            if exact.is_simple != numeric.is_simple:
                disagreements.append((trial, exact, numeric.min_gap))
            spec = eigen_decompose(M)
            lam = spec.eigenvalues
            assert float(M.trace()) == pytest.approx(float(np.sum(lam)), abs=1e-8 * n)
            frob2 = sum(float(v) ** 2 for row in M.entries for v in row)
            assert frob2 == pytest.approx(float(np.sum(lam * lam)), rel=1e-10)
        assert len(disagreements) <= trials * 0.001
        for trial, exact, min_gap in disagreements:
            # Exact verdict resolves the case; the numeric gap explains why
            # the float route misclassified it.
            assert exact.tag in ("SimpleExact", "NotSimpleExact")
            assert min_gap < 1e-6, (trial, min_gap)
        assert time.monotonic() - t0 < 300.0


def test_criterion_8_monte_carlo_calibration(census):
    with criterion(8, "Monte Carlo calibration against census"):
        for n in (2, 3):
            # successes counts non-simple outcomes; compare against the
            # exact census non-simple fraction.
            s = monte_carlo_simplicity(GNP, n, trials=10**4, seed=8)
            lo, hi = wilson_interval(s.successes, s.trials, z=Z99)
            exact = census[n].nonsimple_fraction
            assert lo <= exact <= hi
            w1 = monte_carlo_simplicity(GNP, n, trials=10**4, seed=8, workers=1)
            w4 = monte_carlo_simplicity(GNP, n, trials=10**4, seed=8, workers=4)
            w8 = monte_carlo_simplicity(GNP, n, trials=10**4, seed=8, workers=8)
            assert w1 == w4 == w8  # wall_time excluded from equality


def eigvalsh_nonsimple_fraction(n):
    """Exact non-simple fraction of G(n, 1/2) from a float recount.

    Shares no code with the package: every 0/1 adjacency matrix on n
    vertices is built from its bit index, `np.linalg.eigvalsh` runs on the
    whole batch, and a graph is non-simple when two of its eigenvalues lie
    within 1e-9.  No gap may fall in the band (1e-9, 1e-3), so a float
    misclassification fails here instead of passing silently.
    """
    nbits = n * (n - 1) // 2
    index = np.arange(2**nbits, dtype=np.int64)
    bits = (index[:, None] >> np.arange(nbits)) & 1
    adj = np.zeros((index.size, n, n))
    rows, cols = np.triu_indices(n, k=1)
    adj[:, rows, cols] = bits
    adj[:, cols, rows] = bits
    gaps = np.diff(np.linalg.eigvalsh(adj), axis=1)
    ambiguous = (gaps > 1e-9) & (gaps < 1e-3)
    assert not ambiguous.any(), f"n={n}: ambiguous gaps {gaps[ambiguous]}"
    nonsimple = int(np.count_nonzero((gaps <= 1e-9).any(axis=1)))
    return F(nonsimple, index.size)


def test_criterion_9a_census_trend(census):
    # Tao-Vu prove a limit and fix no shape at small n (the exact fractions
    # for n=2..6 go up and down), so each step is checked exactly against
    # an independent recount.
    with criterion(
        "9a", "trend: census non-simple fraction equals eigvalsh recount, n=2..6"
    ):
        for n in range(2, 7):
            c = census[n]
            assert F(c.nonsimple_count, c.total) == eigvalsh_nonsimple_fraction(n)


def test_criterion_9b_monte_carlo_trend(census):
    with criterion("9b", "trend: Monte Carlo non-simple counts at n=8,16,24"):
        threshold = census[3].nonsimple_fraction  # exact n=3 fraction, 1/4
        for n in (8, 16, 24):
            s = monte_carlo_simplicity(GNP, n, trials=10**3, seed=9)
            nonsimple = s.successes
            assert nonsimple == 0 or nonsimple / s.trials < threshold
