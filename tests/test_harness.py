import random
from dataclasses import fields
from fractions import Fraction
from math import log

import numpy as np
import pytest

from simplespectrum import harness, spectrum
from simplespectrum.dist import bernoulli_half, make_distribution, rademacher, zero_atom
from simplespectrum.errors import PreconditionError
from simplespectrum.harness import (
    exhaustive_census,
    monte_carlo_simplicity,
    rich_eigenvector_frequency,
    verify_orthogonality_lemma,
    wilson_interval,
)
from simplespectrum.matrices import (
    EnsembleSpec,
    SymmetricMatrix,
    graph_from_index,
    graph_stack,
    sample_matrix,
    trial_rng,
)
from simplespectrum.spectrum import (
    CharPoly,
    char_poly,
    char_polys_stack,
    repeated_by_twins,
    simplicity_exact,
)

GNP = EnsembleSpec(offdiag=bernoulli_half(), diag=zero_atom())
SIGN = EnsembleSpec(offdiag=rademacher(), diag=rademacher())


def test_wilson_basic():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    lo, hi = wilson_interval(0, 100)
    assert lo == pytest.approx(0.0, abs=1e-12) and hi > 0.0


def test_wilson_rejects_zero_trials():
    with pytest.raises(PreconditionError):
        wilson_interval(0, 0)


def test_lemma_k3():
    ok, witness = verify_orthogonality_lemma(graph_from_index(3, 7))
    assert ok
    assert witness == {"factor": (1, 1), "remainder": []}  # g = x + 1


def test_lemma_zero_matrix():
    ok, witness = verify_orthogonality_lemma(
        SymmetricMatrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    )
    assert ok
    assert witness == {"factor": (0, 0, 1), "remainder": []}  # g = x^2


def test_lemma_half_k3():
    M = SymmetricMatrix.from_rows([[0, "1/2", "1/2"], ["1/2", 0, "1/2"], ["1/2", "1/2", 0]])
    assert M.den == 2
    ok, witness = verify_orthogonality_lemma(M)
    assert ok
    assert witness == {"factor": (Fraction(1, 2), 1), "remainder": []}


def test_lemma_irrational_repeated_roots():
    # g = x^2 + x - 1: both repeated eigenvalues (-1 +- sqrt 5)/2 are irrational.
    ok, witness = verify_orthogonality_lemma(graph_from_index(6, 684))
    assert ok
    assert witness == {"factor": (-1, 1, 1), "remainder": []}


@pytest.mark.parametrize("shift", [2**30, 10**20])
def test_lemma_exact_at_large_shift(shift):
    # The star K_{1,3} shifted by shift * I; a float eigenvector check misses
    # u . X = 0 here by more than 1e-8 |X| already at 2^30.
    M = SymmetricMatrix(graph_from_index(4, 7).num + shift * np.eye(4, dtype=object))
    ok, witness = verify_orthogonality_lemma(M)
    assert ok
    assert witness == {"factor": (-shift, 1), "remainder": []}


def test_lemma_rejects_tampered_minor_char_poly(monkeypatch):
    # Both routes to the minor's char poly: the int64 stack row for K3's
    # minor, and char_poly for a minor whose entries fail the stack's guard.
    def tampered(M):
        cp = char_poly(M)
        return CharPoly((cp.coeffs[0] + 1,) + cp.coeffs[1:])

    def tampered_stack(A):
        rows = char_polys_stack(A)
        rows[:, -1] += 1
        return rows

    monkeypatch.setattr(harness, "char_poly", tampered)
    monkeypatch.setattr(harness, "char_polys_stack", tampered_stack)
    ok, witness = verify_orthogonality_lemma(graph_from_index(3, 7))
    assert not ok
    assert witness["remainder"] == [1]  # x^2 divided by x + 1
    shift = 10**20  # K3 + shift I: g = x - shift + 1
    K3 = graph_from_index(3, 7).num
    ok, witness = verify_orthogonality_lemma(SymmetricMatrix(K3 + shift * np.eye(3, dtype=object)))
    assert not ok
    assert witness["remainder"] == [1]


def test_lemma_stack_route_matches_char_poly_route(monkeypatch):
    # Witnesses are the same objects, Fractions included, whichever route
    # gives the minor's char poly.
    matrices = [
        M for n in range(2, 6) for i in range(1 << n * (n - 1) // 2)
        if not simplicity_exact(M := graph_from_index(n, i)).is_simple
    ]
    matrices += [
        SymmetricMatrix.from_rows([[0, "1/2", "1/2"], ["1/2", 0, "1/2"], ["1/2", "1/2", 0]]),
        # -1/3 twice; the minor keeps den 3.
        SymmetricMatrix.from_rows([["1/3", "2/3", 0, 0], ["2/3", "1/3", 0, 0], [0, 0, "-1/3", 0], [0, 0, 0, "5/2"]]),
    ]
    assert all(M.den > 1 for M in matrices[-2:])
    big = SymmetricMatrix(graph_from_index(4, 7).num * 2**61 + 2**62 * np.eye(4, dtype=np.int64))
    calls, real = [], harness.char_poly
    monkeypatch.setattr(harness, "char_poly", lambda M: calls.append(M) or real(M))
    stack = [repr(verify_orthogonality_lemma(M)) for M in matrices + [big]]
    assert calls == [SymmetricMatrix(big.num[:-1, :-1])]  # only the guard's refusal
    with pytest.raises(PreconditionError):
        char_polys_stack(big.num[None, :-1, :-1])

    def refuse(A):
        raise PreconditionError("forced")

    monkeypatch.setattr(harness, "char_polys_stack", refuse)
    assert [repr(verify_orthogonality_lemma(M)) for M in matrices + [big]] == stack
    assert len(calls) == len(matrices) + 2


def test_lemma_requires_nonsimple():
    with pytest.raises(PreconditionError):
        verify_orthogonality_lemma(SymmetricMatrix.from_rows([[1, 0], [0, 2]]))


def test_lemma_needs_n2():
    with pytest.raises(PreconditionError):
        verify_orthogonality_lemma(SymmetricMatrix.from_rows([[0]]))


def test_census_2():
    c = exhaustive_census(2)
    assert (c.total, c.simple_count) == (2, 1)


def test_census_3():
    c = exhaustive_census(3)
    assert (c.total, c.simple_count) == (8, 6)


def test_census_result_stores_only_n_and_the_simple_count():
    # A run that keeps a result per call holds thousands of them.
    c = exhaustive_census(5)
    assert c.__slots__ == ("n", "simple_count") and not hasattr(c, "__dict__")
    assert (c.total, c.nonsimple_count) == (1024, 274)
    assert (c.simple_fraction, c.nonsimple_fraction) == (750 / 1024, 274 / 1024)
    assert c == harness.CensusResult(n=5, simple_count=750)


def test_experiment_summary_stores_only_counts():
    # As CensusResult: the estimate and interval follow from the counts.
    s = monte_carlo_simplicity(GNP, 3, trials=400, seed=9)
    assert s.__slots__ == ("trials", "successes", "seed", "wall_time") and not hasattr(s, "__dict__")
    assert tuple(f.name for f in fields(s)) == s.__slots__
    assert (s.trials, s.seed) == (400, 9) and 0 < s.successes < 400
    assert s.point_estimate == s.successes / s.trials
    assert s.wilson_ci_95 == wilson_interval(s.successes, s.trials)
    assert s == monte_carlo_simplicity(GNP, 3, trials=400, seed=9, workers=3)
    r = rich_eigenvector_frequency(SIGN, 6, A=1.5, delta=0.01, trials=12, seed=3)
    assert r == rich_eigenvector_frequency(SIGN, 6, A=1.5, delta=0.01, trials=12, seed=3, workers=3)


def test_census_range_check():
    with pytest.raises(PreconditionError):
        exhaustive_census(1)
    with pytest.raises(PreconditionError):
        exhaustive_census(9)


def test_census_worker_invariance():
    assert exhaustive_census(4, workers=1) == exhaustive_census(4, workers=3)
    for n in (5, 6, 7):
        c = exhaustive_census(n, workers=1)
        assert exhaustive_census(n, workers=2) == c == exhaustive_census(n, workers=3)


def test_census_n7_count():
    # The count of the per-graph kernel this bordered pass replaced.
    c = exhaustive_census(7)
    assert (c.total, c.simple_count) == (2_097_152, 1_687_140)


def test_census_n8_count():
    # First counted over all 2^21 labeled 7-vertex minors, on two workers.
    c = exhaustive_census(8)
    assert (c.total, c.simple_count) == (268_435_456, 210_782_880)


# Simple graphs on n vertices, from the per-graph kernel the bordered pass
# replaced.
SIMPLE_GRAPHS = {2: 1, 3: 6, 4: 30, 5: 750, 6: 20_340, 7: 1_687_140}


def _count_repeated_factor(monkeypatch):
    calls = []
    real = harness.repeated_factor
    monkeypatch.setattr(harness, "repeated_factor", lambda ip: calls.append(ip) or real(ip))
    return calls


def test_census_routes_only_unsettled_rows_to_the_gcd(monkeypatch):
    # The screen proves every simple distinct char poly and a double integer
    # root refutes 18, 89 and 421 more, so only 1 of 33, 4 of 151 and 13 of
    # 988 reach repeated_factor.
    calls = _count_repeated_factor(monkeypatch)
    for n, reached in {5: 1, 6: 4, 7: 13}.items():
        calls.clear()
        assert exhaustive_census(n, workers=1).simple_count == SIMPLE_GRAPHS[n]
        assert len(calls) == reached, n
        if n == 5:  # C5's (x - 2)(x^2 + x - 1)^2, non-simple by the gcd
            assert calls == [[-2, 5, 0, -5, 0, 1]]
            assert harness.repeated_factor(calls[0]) == [-1, 1, 1]


@pytest.mark.parametrize("q, reached", [(11, 280), (13, 227)])
def test_census_counts_at_a_small_screen_prime(monkeypatch, q, reached):
    # A small screen prime misses more rows, simple ones too, and
    # repeated_factor decides those no double integer root refutes: the
    # counts stay, with 280 of 988 rows to the gcd at q = 11.
    monkeypatch.setattr(harness, "_crt_prime", lambda i: q)
    calls = _count_repeated_factor(monkeypatch)
    for n, simple in SIMPLE_GRAPHS.items():
        assert exhaustive_census(n, workers=1).simple_count == simple, n
    assert len({tuple(ip) for ip in calls if len(ip) == 8}) == reached


def test_distinct_rows_matches_np_unique():
    rng = np.random.default_rng(3)
    small = rng.integers(-3, 4, (2000, 5))
    for rows in (small, small * (1 << 40), np.array([[-(1 << 15)] * 3, [(1 << 15) - 1] * 3])):
        keys, inverse, counts = np.unique(rows, axis=0, return_inverse=True, return_counts=True)
        distinct, mult = harness._distinct_rows(rows, np.ones(len(rows), dtype=np.int64))
        assert np.array_equal(distinct, keys) and np.array_equal(mult, counts)
        weights = rng.integers(1, 5041, len(rows))
        distinct, total = harness._distinct_rows(rows, weights)
        assert np.array_equal(distinct, keys) and total.dtype == np.int64
        assert total.tolist() == np.bincount(inverse, weights=weights).astype(np.int64).tolist()


@pytest.mark.parametrize("n", range(1, 6))
def test_graph_stack_matches_graph_from_index(n):
    total = 1 << (n * (n - 1) // 2)
    A = graph_stack(n, range(total))
    assert A.dtype == np.int64 and A.shape == (total, n, n)
    for i in range(total):
        assert np.array_equal(A[i], graph_from_index(n, i).num)
    start = total // 3
    assert np.array_equal(graph_stack(n, range(start, total)), A[start:])
    shuffled = np.random.default_rng(n).integers(0, total, 2 * total)  # unsorted, repeats
    assert np.array_equal(graph_stack(n, shuffled), A[shuffled])
    assert graph_stack(n, []).shape == (0, n, n)


def _per_bit_graph(n, i):
    """Graph i on n vertices, one edge bit at a time, row-major."""
    A = np.zeros((n, n), dtype=object)
    pairs = [(r, c) for r in range(n) for c in range(r + 1, n)]
    for k, (r, c) in enumerate(pairs):
        A[r, c] = A[c, r] = i >> k & 1
    return A


@pytest.mark.parametrize("n", [12, 13])
def test_graph_stack_past_int64_matches_per_bit_build(n):
    rng, top = random.Random(n), 1 << n * (n - 1) // 2
    indices = [0, 5, 2**63, top - 1, *(rng.randrange(2**63, top) for _ in range(20))]
    A = graph_stack(n, indices)
    assert A.dtype == np.int64 and A.shape == (len(indices), n, n)
    assert A.tolist() == [_per_bit_graph(n, i).tolist() for i in indices]
    assert graph_stack(n, []).shape == (0, n, n)


def test_graph_stack_rejects_bad_indices():
    for n, indices in [(4, [-1]), (4, [64]), (4, [[0, 1]]), (5, [0, 2**70]), (5, [-(2**70)]),
                       (12, [2**66]), (12, [3, -1])]:
        with pytest.raises(PreconditionError):
            graph_stack(n, indices)
    with pytest.raises(PreconditionError):
        graph_stack(0, [0])


@pytest.mark.parametrize("n", [3, 12])
def test_graph_stack_refuses_float_indices(n):
    # A float index would truncate on the int64 path (n <= 11), as
    # graph_from_index, through operator.index, never lets it.
    for indices in ([1.5, 2.9], [1, 2.0], np.array([1.0]), [Fraction(1)]):
        with pytest.raises(TypeError):
            graph_stack(n, indices)
    with pytest.raises(TypeError):
        graph_from_index(n, 1.5)
    for indices in ([1, 2], np.array([1, 2], dtype=np.uint8), [True]):
        assert np.array_equal(graph_stack(n, indices), graph_stack(n, np.asarray(indices, dtype=int)))


@pytest.mark.parametrize("batch", [1, 7])
def test_census_chunk_boundaries(monkeypatch, batch):
    monkeypatch.setattr(harness, "_CENSUS_BATCH", batch)
    for n, simple in {2: 1, 3: 6, 4: 30, 5: 750}.items():
        assert exhaustive_census(n).simple_count == simple


def test_monte_carlo_matches_census_n2():
    s = monte_carlo_simplicity(GNP, 2, trials=2000, seed=5)
    lo, hi = s.wilson_ci_95
    assert lo <= 0.5 <= hi


def test_monte_carlo_deterministic_and_worker_invariant():
    a = monte_carlo_simplicity(GNP, 3, trials=400, seed=9, workers=1)
    b = monte_carlo_simplicity(GNP, 3, trials=400, seed=9, workers=4)
    assert a == b  # wall_time excluded from comparison


class _InlineExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in
    this process, so no worker is ever started."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        jobs = list(jobs)
        self.sizes.append(len(jobs))
        return map(fn, jobs)


@pytest.mark.parametrize("cpus, workers, trials, size, jobs", [
    (2, 10**6, 12, 2, 12),  # never more processes than CPUs
    (8, 3, 12, 3, 3),
    (8, 10**6, 5, 5, 5),  # never more than jobs
    (None, 4, 12, 1, 4),  # os.cpu_count() unknown: one process
])
def test_dispatch_pool_size(monkeypatch, cpus, workers, trials, size, jobs):
    import concurrent.futures

    monkeypatch.setattr(_InlineExecutor, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlineExecutor)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    got = monte_carlo_simplicity(GNP, 3, trials=trials, seed=9, workers=workers)
    assert _InlineExecutor.sizes == [size, jobs]
    assert got == monte_carlo_simplicity(GNP, 3, trials=trials, seed=9)


@pytest.mark.parametrize(
    "spec, nonsimple",
    [
        (SIGN, 0),
        (EnsembleSpec(make_distribution([0, 1], ["23/25", "2/25"]), zero_atom()), 5),
    ],
    ids=["sign", "gnp-2/25"],
)
def test_monte_carlo_n50_counts_pinned(spec, nonsimple):
    # Counts recorded with the Faddeev-LeVerrier route and the C(n,k)*(n*a)^k
    # prime count; the exact route must keep them at the size it is tuned for.
    s = monte_carlo_simplicity(spec, 50, trials=10, seed=0)
    assert (s.trials, s.successes) == (10, nonsimple)


def _sparse_gnp(n):
    """G(n, p) with p = ln n / n rounded to 1/1000: Luh and Vu's regime."""
    p = Fraction(round(1000 * log(n) / n), 1000)
    return EnsembleSpec(make_distribution([0, 1], [1 - p, p]), zero_atom())


@pytest.mark.parametrize("n, trials", [(20, 60), (50, 30), (100, 12)])
def test_monte_carlo_sparse_counts_match_exact_recount(n, trials):
    # The twin witness settles most non-simple draws first; the count must
    # be simplicity_exact's on every draw, and not depend on the workers.
    spec = _sparse_gnp(n)
    draws = [sample_matrix(spec, n, trial_rng(4, t)) for t in range(trials)]
    exact = sum(not simplicity_exact(M).is_simple for M in draws)
    twins = sum(map(repeated_by_twins, draws))
    assert 0 < twins <= exact < trials
    s1 = monte_carlo_simplicity(spec, n, trials=trials, seed=4, workers=1)
    s3 = monte_carlo_simplicity(spec, n, trials=trials, seed=4, workers=3)
    assert s1 == s3 and s1.successes == exact


def test_monte_carlo_witness_spares_the_lanczos_pass(monkeypatch):
    # A draw the witness proves non-simple runs no Lanczos pass; every
    # other draw runs simplicity_exact, which starts with one.
    spec = _sparse_gnp(50)
    covered = [repeated_by_twins(sample_matrix(spec, 50, trial_rng(4, t))) for t in range(30)]
    passes = []
    real = spectrum._lanczos_mod
    monkeypatch.setattr(spectrum, "_lanczos_mod", lambda A, p: passes.append(p) or real(A, p))
    monte_carlo_simplicity(spec, 50, trials=30, seed=4)
    assert passes.count(spectrum._crt_prime(0)) == covered.count(False) < 30


def test_monte_carlo_degenerate_spec():
    # Single-atom off-diagonal (mu = 0) and constant diagonal: the constant
    # matrix has a repeated eigenvalue for n >= 3, so the non-simple
    # fraction is 1.  This is why the non-triviality margin is required.
    const = EnsembleSpec(
        offdiag=make_distribution([1], [1]), diag=make_distribution([1], [1])
    )
    s = monte_carlo_simplicity(const, 3, trials=20, seed=0)
    assert s.successes == 20


def test_richness_single_trial_deterministic():
    a = rich_eigenvector_frequency(SIGN, 6, A=2.0, delta=1e-9, trials=1, seed=3)
    b = rich_eigenvector_frequency(SIGN, 6, A=2.0, delta=1e-9, trials=1, seed=3)
    assert a == b
    assert a.successes in (0, 1)


def test_richness_n2_small_support():
    s = rich_eigenvector_frequency(SIGN, 2, A=1.0, delta=1e-9, trials=50, seed=1)
    assert 0 <= s.successes <= 50
    lo, hi = s.wilson_ci_95
    assert lo <= s.point_estimate <= hi


# n = 8 enumerates all 2^8 sign patterns; n = 22 > 20 samples them.  Both
# configurations give some rich and some non-rich trials.
@pytest.mark.parametrize("n, A, delta", [(8, 2.0, 1e-9), (22, 1.0, 0.102)])
def test_richness_worker_invariant(n, A, delta):
    a = rich_eigenvector_frequency(SIGN, n, A, delta, trials=6, seed=4)
    b = rich_eigenvector_frequency(SIGN, n, A, delta, trials=6, seed=4, workers=3)
    assert a == b  # wall_time excluded from comparison
    assert 0 < a.successes < 6


def test_richness_smallball_streams_are_fresh(monkeypatch):
    n, trials, seed = 4, 3, 11
    states = []

    def record(v, d, A, n, delta, rng):
        states.append(rng.bit_generator.state)
        return False, 0.0

    monkeypatch.setattr(harness, "is_rich", record)
    rich_eigenvector_frequency(SIGN, n, A=1.0, delta=1e-9, trials=trials, seed=seed)
    assert len(states) == trials * n
    assert len({repr(s) for s in states}) == len(states)
    for i, state in enumerate(states):
        assert state != trial_rng(seed, i // n).bit_generator.state


@pytest.mark.parametrize(
    "call",
    [
        lambda: monte_carlo_simplicity(SIGN, 3, 0, seed=0),
        lambda: rich_eigenvector_frequency(SIGN, 3, 1.0, 0.1, 0, seed=0),
        lambda: rich_eigenvector_frequency(SIGN, 3, 1.0, 0.0, 1, seed=0),
        lambda: rich_eigenvector_frequency(SIGN, 3, 1.0, -0.1, 1, seed=0),
        lambda: rich_eigenvector_frequency(SIGN, 3, 1.0, float("nan"), 1, seed=0),
    ],
    ids=["mc-trials-0", "rich-trials-0", "rich-delta-0", "rich-delta-negative",
         "rich-delta-nan"],
)
def test_contract_edges_raise(call):
    with pytest.raises(PreconditionError):
        call()
