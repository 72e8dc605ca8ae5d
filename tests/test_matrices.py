import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from simplespectrum import matrices, spectrum
from simplespectrum.dist import bernoulli_half, make_distribution, rademacher, zero_atom
from simplespectrum.errors import PreconditionError
from simplespectrum.matrices import (
    EnsembleSpec,
    SymmetricMatrix,
    graph_from_index,
    sample_matrix,
    trial_rng,
)

GNP = EnsembleSpec(offdiag=bernoulli_half(), diag=zero_atom())
SIGN = EnsembleSpec(offdiag=rademacher(), diag=rademacher())
RATIONAL = EnsembleSpec(
    offdiag=make_distribution(["-1/2", 1], ["1/3", "2/3"]),
    diag=make_distribution([0, "1/3"], ["1/2", "1/2"]),
)


def test_sample_is_symmetric_adjacency():
    M = sample_matrix(GNP, 3, trial_rng(0, 0))
    for i in range(3):
        assert M[i, i] == 0
        for j in range(3):
            assert M[i, j] == M[j, i]
            assert M[i, j] in (0, 1)


def test_sample_n1_uses_diag_only():
    M = sample_matrix(SIGN, 1, trial_rng(0, 0))
    assert M.n == 1
    assert M[0, 0] in (-1, 1)


def test_sample_deterministic():
    a = sample_matrix(SIGN, 2, trial_rng(7, 3))
    b = sample_matrix(SIGN, 2, trial_rng(7, 3))
    assert a == b


def test_sample_rejects_n0():
    with pytest.raises(PreconditionError):
        sample_matrix(SIGN, 0, trial_rng(0, 0))


def test_graph_from_index_examples():
    assert graph_from_index(2, 0).entries == ((0, 0), (0, 0))
    assert graph_from_index(2, 1).entries == ((0, 1), (1, 0))
    K3 = graph_from_index(3, 7)
    assert K3.entries == ((0, 1, 1), (1, 0, 1), (1, 1, 0))


def test_graph_from_index_out_of_range():
    for n, index in [(2, 2), (3, -1), (5, 2**70), (5, -(2**70)), (12, 2**66), (12, -1)]:
        with pytest.raises(PreconditionError):
            graph_from_index(n, index)
    with pytest.raises(TypeError):
        graph_from_index(3, 1.5)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_graph_index_bijection(n):
    total = 1 << (n * (n - 1) // 2)
    seen = {graph_from_index(n, i).entries for i in range(total)}
    assert len(seen) == total


def test_entry_frequency_four_sigma():
    # Entry (0,1) over 10^4 samples should match Bernoulli(1/2) within
    # 4 sigma of the binomial deviation.
    trials = 10**4
    ones = sum(
        int(sample_matrix(GNP, 3, trial_rng(42, t))[0, 1]) for t in range(trials)
    )
    sigma = (trials * 0.25) ** 0.5
    assert abs(ones - trials / 2) <= 4 * sigma


def test_json_roundtrip():
    M = sample_matrix(SIGN, 4, trial_rng(1, 1))
    assert SymmetricMatrix.from_json(M.to_json()) == M


def test_text_format():
    M = SymmetricMatrix.from_text("0 1 1\n1 0 1\n1 1 0\n")
    assert M == graph_from_index(3, 7)


def test_asymmetric_rejected():
    with pytest.raises(PreconditionError):
        SymmetricMatrix.from_rows([[0, 1], [2, 0]])


def test_sample_golden_sign():
    # Pins the draw order: off-diagonal row-major, then the diagonal.
    M = sample_matrix(SIGN, 4, trial_rng(1, 1))
    assert M.num.tolist() == [
        [-1, -1, 1, 1], [-1, -1, -1, 1], [1, -1, 1, -1], [1, 1, -1, 1]
    ]
    assert M.den == 1 and M.num.dtype == np.int64


@pytest.mark.parametrize(
    "t, rows, den",
    [
        (0, [["0", "1", "1"], ["1", "0", "1"], ["1", "1", "0"]], 1),
        (1, [["1/3", "1", "1"], ["1", "1/3", "1"], ["1", "1", "1/3"]], 3),
        (2, [["1/3", "-1/2", "1"], ["-1/2", "0", "1"], ["1", "1", "0"]], 6),
        (3, [["0", "1", "-1/2"], ["1", "0", "1"], ["-1/2", "1", "0"]], 2),
    ],
)
def test_sample_golden_rational_atoms(t, rows, den):
    M = sample_matrix(RATIONAL, 3, trial_rng(5, t))
    assert M == SymmetricMatrix.from_rows(rows)
    assert M.den == den


def test_common_factor_normalized():
    A = graph_from_index(4, 45).num
    M = SymmetricMatrix(2 * A, 2)
    assert M == SymmetricMatrix(A)
    assert M.den == 1
    assert SymmetricMatrix.from_rows([["2/4", 1], [1, "3/6"]]).den == 2


def test_num_is_read_only():
    M = graph_from_index(3, 7)
    with pytest.raises(ValueError):
        M.num[0, 1] = 5
    A = np.array([[0, 1], [1, 0]])
    M = SymmetricMatrix(A)
    A[0, 1] = 7  # the matrix holds its own copy
    assert M[0, 1] == 1


def test_int64_overflow_falls_back_to_python_ints():
    rows = [[1, 2**63, 0], [2**63, -(2**70), "1/3"], [0, "1/3", 5]]
    M = SymmetricMatrix.from_rows(rows)
    assert M.num.dtype == object and M.den == 3
    assert M.entries[0][1] == 2**63 and M[1, 1] == -(2**70)
    assert M[1, 2] == Fraction(1, 3)
    assert Fraction(spectrum._max_abs(M.num), M.den) == 2**70
    again = SymmetricMatrix.from_json(json.loads(json.dumps(M.to_json())))
    assert again == M and again.entries == M.entries
    M = SymmetricMatrix([[1, 2**63], [2**63, 0]])  # numpy alone picks float64
    assert M.num.dtype == object and M[0, 1] == 2**63
    # Back to int64 once every entry fits.
    M = SymmetricMatrix([[2**64]], 4)
    assert M.num.dtype == np.int64 and M.num.tolist() == [[2**62]] and M.den == 1


def test_common_factor_past_int64_on_int64_num():
    # A zero num takes the whole den as its common factor, past int64; so
    # does -2^63 over a multiple of 2^63.
    for num in (np.zeros((3, 3), dtype=np.int64), [[0, 0], [0, 0]]):
        M = SymmetricMatrix(num, 2**64 + 1)
        assert M.num.dtype == np.int64 and not M.num.any() and M.den == 1
        assert M == SymmetricMatrix(np.zeros_like(M.num))
    M = SymmetricMatrix([[-(2**63)]], 3 * 2**63)
    assert M.num.dtype == np.int64 and M.num.tolist() == [[-1]] and M.den == 3


def test_non_integer_num_rejected():
    with pytest.raises(PreconditionError):
        SymmetricMatrix([[0.5]])
    with pytest.raises(PreconditionError):
        SymmetricMatrix([[Fraction(1, 2)]])
    with pytest.raises(PreconditionError):
        SymmetricMatrix([[1]], 0)


def test_graph_from_index_beyond_int64():
    M = graph_from_index(12, 2**65 + 1)  # bits 0 and 65: edges (0,1), (10,11)
    assert M.num[0, 1] == M.num[1, 0] == M.num[10, 11] == M.num[11, 10] == 1
    assert int(M.num.sum()) == 4


def test_upper_indices_built_once_and_read_only():
    iu = matrices._upper_indices(6)
    assert iu is matrices._upper_indices(6)
    for got, want in zip(iu, np.triu_indices(6, 1)):
        assert np.array_equal(got, want)
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0] = 1


def _uncached_sample_atoms(d, count, rng, den):
    """The sampler with its float running sums and scaled atoms rebuilt
    from the Fractions on every draw."""
    cum = list(itertools.accumulate(float(p) for p in d.probs))
    cum[-1] = 1.0
    scaled = np.array([a.numerator * (den // a.denominator) for a in d.atoms])
    return scaled[np.searchsorted(cum, rng.random(count), side="right")]


SPARSE = make_distribution([0, 1], ["24/25", "1/25"])


@pytest.mark.parametrize(
    "d, den",
    [(rademacher(), 1), (bernoulli_half(), 1), (SPARSE, 1), (zero_atom(), 1),
     (RATIONAL.offdiag, 6), (RATIONAL.diag, 6), (make_distribution(["1/7", 2, 3], ["1/5", "1/5", "3/5"]), 14)],
)
def test_cached_sampler_matches_uncached(d, den):
    for t in range(20):
        for count in (0, 1, 45, 1225):
            got = matrices._sample_atoms(d, count, trial_rng(t, count), den)
            want = _uncached_sample_atoms(d, count, trial_rng(t, count), den)
            assert got.dtype == np.int64 and got.tolist() == want.tolist()
    cum, scaled = matrices._atom_table(d, den)
    assert matrices._atom_table(d, den)[0] is cum  # built once per (d, den)
    for a in (cum, scaled):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0


def test_cached_sampler_keeps_seeded_matrices():
    # Whole matrices, over a denominator shared by both laws, draw for draw.
    for spec in (SIGN, GNP, RATIONAL):
        den = math.lcm(*(a.denominator for d in (spec.offdiag, spec.diag) for a in d.atoms))
        for n in (1, 2, 7, 30):
            rng, ref = trial_rng(9, n), trial_rng(9, n)
            M = sample_matrix(spec, n, rng)
            upper = _uncached_sample_atoms(spec.offdiag, n * (n - 1) // 2, ref, den)
            diag = _uncached_sample_atoms(spec.diag, n, ref, den)
            num = np.zeros((n, n), dtype=np.int64)
            iu = np.triu_indices(n, 1)
            num[iu] = num[iu[::-1]] = upper
            np.fill_diagonal(num, diag)
            assert M == SymmetricMatrix(num, den)


def _digest(Ms):
    h = hashlib.sha256()
    for M in Ms:
        h.update(repr((M.num.dtype.str, M.num.tolist(), M.den)).encode())
    return h.hexdigest()


# sha256 of (dtype, num, den) over every graph with n <= 6 and 20 seeded
# indices past 2^63 at each of n = 12 and n = 13, as graph_from_index gave
# them when it decoded the index bytes itself.
GRAPHS_SHA256 = "270bc90dbb8b843e2787a8f7729aec627c314fe0c29db4715006953de2d1442d"


def test_graph_from_index_pinned():
    def graphs():
        for n in range(1, 7):
            for i in range(1 << n * (n - 1) // 2):
                yield graph_from_index(n, i)
        for n in (12, 13):
            rng = random.Random(n)
            for _ in range(20):
                yield graph_from_index(n, rng.randrange(1 << 63, 1 << n * (n - 1) // 2))

    assert _digest(graphs()) == GRAPHS_SHA256


# sha256 of (dtype, num, den) over 25 seeded draws of each of SIGN, GNP and
# RATIONAL at n = 1, 2, 10 and 50, as sample_matrix gave them when it
# filled the matrix through a helper it shared with graph_from_index.
DRAWS_SHA256 = "a6c510756e4c91cbc7948bbdac9588cf039d98bbbbcaa5087fff0e91ea7c9408"


def test_sample_matrix_pinned():
    draws = (
        sample_matrix(spec, n, trial_rng(n, t))
        for spec in (SIGN, GNP, RATIONAL)
        for n in (1, 2, 10, 50)
        for t in range(25)
    )
    assert _digest(draws) == DRAWS_SHA256


# Graphs on m vertices up to isomorphism (OEIS A000088), m = 0..7.
UNLABELED_GRAPHS = [1, 1, 2, 4, 11, 34, 156, 1044]


def _images(m, indices):
    """(len(indices), m!) array: the index of each graph under every
    permutation of its m vertices, by moving its edge bits."""
    iu = np.triu_indices(m, 1)
    pos = np.zeros((m, m), dtype=np.int64)
    pos[iu] = pos[iu[::-1]] = np.arange(len(iu[0]))
    perms = np.array(list(itertools.permutations(range(m))), dtype=np.int64)
    perms = perms.reshape(math.factorial(m), m)
    weights = 1 << pos[perms[:, iu[0]], perms[:, iu[1]]]
    bits = (np.asarray(indices)[:, None] >> np.arange(len(iu[0]))) & 1
    return bits @ weights.T


@pytest.mark.parametrize("m", range(8))
def test_graph_orbits_counts_and_sizes(m):
    reps, sizes = matrices.graph_orbits(m)
    assert reps.dtype == sizes.dtype == np.int64
    assert len(reps) == len(sizes) == UNLABELED_GRAPHS[m]
    assert int(sizes.sum()) == 1 << m * (m - 1) // 2
    assert all(math.factorial(m) % s == 0 for s in sizes.tolist())
    # Each representative is the least index of its orbit, whose size is the
    # number of distinct images; so the orbits are disjoint, and by the sum
    # above they cover every graph.
    images = np.sort(_images(m, reps), axis=1)
    assert np.array_equal(images[:, 0], reps)
    assert np.array_equal((np.diff(images, axis=1) != 0).sum(axis=1) + 1, sizes)


def _graph_index(M):
    """The index i with graph_from_index(M.n, i) == M: its upper-triangular
    bits, row-major, read back."""
    bits = M.num[np.triu_indices(M.n, 1)].tolist()
    return sum(b << k for k, b in enumerate(bits))


@pytest.mark.parametrize("m", range(1, 6))
def test_graph_orbits_match_brute_force(m):
    # Every permutation applied to one graph of each orbit in turn.
    seen, reps, sizes = set(), [], []
    for i in range(1 << m * (m - 1) // 2):
        if i in seen:
            continue
        G = graph_from_index(m, i)
        orbit = {
            _graph_index(SymmetricMatrix(G.num[np.ix_(p, p)]))
            for p in itertools.permutations(range(m))
        }
        assert min(orbit) == i
        seen |= orbit
        reps.append(i)
        sizes.append(len(orbit))
    got = matrices.graph_orbits(m)
    assert got[0].tolist() == reps and got[1].tolist() == sizes


def test_graph_orbits_built_once_and_read_only():
    table = matrices.graph_orbits(5)
    assert table is matrices.graph_orbits(5)
    for a in table:
        assert not a.flags.writeable
    for m in (-1, 8):
        with pytest.raises(PreconditionError):
            matrices.graph_orbits(m)


@pytest.mark.parametrize(
    "call",
    [
        lambda: SymmetricMatrix(np.zeros((2, 3), dtype=np.int64)),
        lambda: SymmetricMatrix(np.zeros(3, dtype=np.int64)),
        lambda: SymmetricMatrix.from_json({"n": 3, "rows": [["0", "1"], ["1", "0"]]}),
        lambda: graph_from_index(0, 0),
    ],
    ids=["non-square", "one-dimensional", "json-n-disagrees", "graph-n-0"],
)
def test_contract_edges_raise(call):
    with pytest.raises(PreconditionError):
        call()
