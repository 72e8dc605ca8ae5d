"""An independent recheck of SimpleExact verdicts.

A SimpleExact verdict of an integer matrix A of order n implies the
certificate (q, v): q is the first prime >= 2^27 - 100, v_i = 3^(i+1) mod
65537, and K = [v, Av, ..., A^(n-1) v] has rank n mod q.  Rank n mod a
prime q gives det K != 0 over Z, so v is cyclic and A has simple spectrum.
The checker below rebuilds q, v and K from n and the entries with Python
ints and ranks K by its own elimination; it uses nothing from `spectrum`
or `polys`.
"""

from fractions import Fraction
from math import isqrt

import pytest

from simplespectrum import simplicity_exact
from simplespectrum.dist import make_distribution, rademacher, zero_atom
from simplespectrum.matrices import EnsembleSpec, SymmetricMatrix, sample_matrix, trial_rng


def is_prime(q: int) -> bool:
    return q >= 2 and all(q % d for d in range(2, isqrt(q) + 1))


def screen_prime() -> int:
    q = (1 << 27) - 100
    while not is_prime(q):
        q += 1
    return q


def start_vector(n: int) -> list[int]:
    return [pow(3, i + 1, 65537) for i in range(n)]


def krylov_rank(rows: list[list[int]], q: int, v: list[int]) -> int:
    """Rank mod q of K = [v, Av, ..., A^(n-1) v], by Gaussian elimination
    on the Krylov vectors as rows."""
    n = len(rows)
    K = [[x % q for x in v]]
    while len(K) < n:
        w = K[-1]
        K.append([sum(a * b for a, b in zip(row, w)) % q for row in rows])
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if K[r][col]), None)
        if pivot is None:
            continue
        K[rank], K[pivot] = K[pivot], K[rank]
        inv = pow(K[rank][col], -1, q)
        for r in range(rank + 1, n):
            f = K[r][col] * inv % q
            if f:
                K[r] = [(a - f * b) % q for a, b in zip(K[r], K[rank])]
        rank += 1
    return rank


def certifies_simple(rows: list[list[int]], q: int, v: list[int]) -> bool:
    return is_prime(q) and len(v) == len(rows) and krylov_rank(rows, q, v) == len(rows)


Q = screen_prime()
SIGN = EnsembleSpec(offdiag=rademacher(), diag=rademacher())
SPARSE = EnsembleSpec(
    offdiag=make_distribution([0, 1], [Fraction(23, 25), Fraction(2, 25)]), diag=zero_atom()
)


def path_laplacian(n: int) -> list[list[int]]:
    return [
        [(i > 0) + (i < n - 1) if i == j else -(abs(i - j) == 1) for j in range(n)]
        for i in range(n)
    ]


def integer_det(rows: list[list[int]]) -> int:
    """det by fraction-free (Bareiss) elimination."""
    A = [list(r) for r in rows]
    n, sign, prev = len(A), 1, 1
    for k in range(n - 1):
        pivot = next((r for r in range(k, n) if A[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            A[k], A[pivot] = A[pivot], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[-1][-1]


@pytest.mark.parametrize("spec, simple", [(SIGN, 8), (SPARSE, 5)], ids=["sign", "gnp-2/25"])
def test_recheck_confirms_simple_verdicts_n50(spec, simple):
    confirmed = 0
    for t in range(8):
        M = sample_matrix(spec, 50, trial_rng(31, t))
        if simplicity_exact(M).tag == "SimpleExact":
            assert certifies_simple(M.num.tolist(), Q, start_vector(50)), t
            confirmed += 1
    assert confirmed == simple


@pytest.mark.parametrize("n", [3, 8, 12])
def test_recheck_rejects_all_ones_on_a_regular_matrix(n):
    # The path Laplacian has row sums 0: all-ones is an eigenvector.
    L = path_laplacian(n)
    assert simplicity_exact(SymmetricMatrix(L)).tag == "SimpleExact"
    assert certifies_simple(L, Q, start_vector(n))
    assert not certifies_simple(L, Q, [1] * n)


def test_recheck_rejects_a_prime_where_k_is_singular():
    # Sign entries are 1 mod 2, so K mod 2 has rank at most 2.
    rows = sample_matrix(SIGN, 50, trial_rng(31, 0)).num.tolist()
    assert certifies_simple(rows, Q, start_vector(50))
    assert not certifies_simple(rows, 2, start_vector(50))
    # Primes that divide det K over Z, a small one and one above q.
    rows = sample_matrix(SIGN, 6, trial_rng(31, 4)).num.tolist()
    v = start_vector(6)
    K = [v]
    while len(K) < 6:
        K.append([sum(a * b for a, b in zip(row, K[-1])) for row in rows])
    d = integer_det(K)
    assert d and certifies_simple(rows, Q, v)
    for p in (43, 234431452499):
        assert is_prime(p) and d % p == 0
        assert not certifies_simple(rows, p, v)


def test_recheck_rejects_a_composite_modulus():
    rows = sample_matrix(SIGN, 12, trial_rng(31, 2)).num.tolist()
    assert certifies_simple(rows, Q, start_vector(12))
    for q in (Q + 1, 3 * Q):
        assert not certifies_simple(rows, q, start_vector(12))
