import hashlib
from collections import Counter
from fractions import Fraction
from itertools import chain, count, islice
from math import gcd, isqrt

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplespectrum import polys, spectrum
from simplespectrum.dist import make_distribution, rademacher, zero_atom
from simplespectrum.errors import ConvergenceError, PreconditionError
from simplespectrum.matrices import (
    EnsembleSpec,
    SymmetricMatrix,
    graph_from_index,
    graph_stack,
    sample_matrix,
    trial_rng,
)
from simplespectrum.spectrum import (
    char_poly,
    eigen_decompose,
    repeated_by_twins,
    simplicity_exact,
    simplicity_numeric,
)
from test_krylov_recheck import Q, krylov_rank, start_vector

SIGN = EnsembleSpec(offdiag=rademacher(), diag=rademacher())
K3 = graph_from_index(3, 7)


def cofactor_char_poly(M: SymmetricMatrix) -> list[Fraction]:
    """Independent oracle: expand det(xI - M) by cofactors over Fraction
    polynomials (coefficient lists, constant first)."""

    def pmul(a, b):
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return out

    def padd(a, b):
        out = [Fraction(0)] * max(len(a), len(b))
        for i, c in enumerate(a):
            out[i] += c
        for i, c in enumerate(b):
            out[i] += c
        return out

    def det(rows):
        n = len(rows)
        if n == 1:
            return rows[0][0]
        acc = [Fraction(0)]
        for j in range(n):
            minor = [
                [rows[i][jj] for jj in range(n) if jj != j]
                for i in range(1, n)
            ]
            term = pmul(rows[0][j], det(minor))
            if j % 2:
                term = [-c for c in term]
            acc = padd(acc, term)
        return acc

    n = M.n
    rows = [
        [
            [Fraction(-M[i, j]), Fraction(1)] if i == j else [Fraction(-M[i, j])]
            for j in range(n)
        ]
        for i in range(n)
    ]
    p = det(rows)
    return p + [Fraction(0)] * (n + 1 - len(p))


def test_char_poly_diag():
    M = SymmetricMatrix.from_rows([[1, 0], [0, 2]])
    assert char_poly(M).coeffs == (Fraction(2), Fraction(-3), Fraction(1))


def test_char_poly_k3():
    assert char_poly(K3).coeffs == (Fraction(-2), Fraction(-3), Fraction(0), Fraction(1))


def test_char_poly_zero():
    M = SymmetricMatrix.from_rows([[0, 0], [0, 0]])
    assert char_poly(M).coeffs == (Fraction(0), Fraction(0), Fraction(1))


def test_char_poly_rational_entries():
    M = SymmetricMatrix.from_rows([["1/2", "1/3"], ["1/3", "1/4"]])
    assert char_poly(M).coeffs == tuple(cofactor_char_poly(M))


@pytest.mark.parametrize("t", range(10))
def test_char_poly_matches_cofactor_oracle(t):
    M = sample_matrix(SIGN, 5, trial_rng(3, t))
    assert list(char_poly(M).coeffs) == cofactor_char_poly(M)


def test_char_poly_trace_coefficient():
    for t in range(10):
        M = sample_matrix(SIGN, 6, trial_rng(4, t))
        p = char_poly(M)
        assert p.coeffs[-1] == 1
        assert p.coeffs[-2] == -M.trace()


def test_adjacency_char_poly_integer():
    for idx in range(64):
        p = char_poly(graph_from_index(4, idx))
        assert all(c.denominator == 1 for c in p.coeffs)


def test_simplicity_diag():
    assert simplicity_exact(SymmetricMatrix.from_rows([[1, 0], [0, 2]])).tag == "SimpleExact"


def test_simplicity_k3_certificate():
    v = simplicity_exact(K3)
    assert v.tag == "NotSimpleExact"
    # certificate divisible by (x + 1): the repeated eigenvalue is -1
    cert = v.certificate
    acc = Fraction(0)
    for c in reversed(cert):
        acc = acc * Fraction(-1) + c
    assert acc == 0


def test_simplicity_certificate_with_denominator():
    # K3/2 has spectrum {1, -1/2, -1/2}: the repeated factor is x + 1/2.
    v = simplicity_exact(SymmetricMatrix(K3.num, 2))
    assert v.tag == "NotSimpleExact"
    assert v.certificate == (Fraction(1, 2), Fraction(1))


def test_char_poly_beyond_int64_matches_cofactor_oracle():
    M = SymmetricMatrix.from_rows([[1, 2**63, 0], [2**63, -(2**70), 3], [0, 3, "1/3"]])
    assert M.num.dtype == object
    assert list(char_poly(M).coeffs) == cofactor_char_poly(M)


class _Untouchable(np.ndarray):
    """An array view whose entries fail the test as soon as any arithmetic
    or numpy function reads them: only its shape may be used."""

    def __array_ufunc__(self, *args, **kwargs):
        pytest.fail("reached the products")

    def __array_function__(self, *args, **kwargs):
        pytest.fail("reached the products")


def _integer_charpoly(A):
    """The CRT char poly of A from the first prime's pass, as char_poly
    starts it; the prime and the pass are looked up at call time."""
    return spectrum._integer_charpoly(A, spectrum._lanczos_mod(A, spectrum._crt_prime(0)))


def _smallest_wrapping_n(p):
    """The smallest n whose sums of n balanced products mod p can wrap."""
    half = p // 2
    n = -(-((1 << 63) - p) // (half * half))
    assert (n - 1) * half * half + p < 1 << 63 <= n * half * half + p
    return n


def test_charpoly_mod_refuses_int64_wrap():
    p = spectrum._crt_prime(0)
    n = _smallest_wrapping_n(p)
    # The refusal must come before any product over the entries.
    A = np.zeros((n, n), dtype=np.int64).view(_Untouchable)
    with pytest.raises(PreconditionError):
        spectrum._charpoly_tridiagonal(*spectrum._lanczos_mod(A, p), p)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_balanced_is_the_centred_residue_on_python_ints(k):
    # The CRT result and the lifted gcd call _balanced on Python ints, with
    # a product of k CRT primes as the modulus: the residue r in
    # (-m/2, m/2) with r = x mod m, for x far past int64.
    m = 1
    for i in range(k):
        m *= spectrum._crt_prime(i)
    rng = np.random.default_rng(k)
    xs = [int(x) * 2**70 + int(y) for x, y in rng.integers(-(2**62), 2**62, (200, 2))]
    xs += [s * (j * m + h) for s in (1, -1) for j in (0, 1, 2**80) for h in (m // 2, m // 2 + 1)]
    for x in xs:
        r = spectrum._balanced(x, m)
        assert type(r) is int and (r - x) % m == 0 and 2 * abs(r) < m, (x, m)


def _is_prime(p):
    """Trial division by every d <= sqrt(p)."""
    return p > 1 and all(p % d for d in range(2, isqrt(p) + 1))


def _small_primes(k):
    """The first k primes."""
    return list(islice(filter(_is_prime, count(2)), k))


def _largest_safe_prime(n):
    """The largest prime p with n*(p // 2)^2 + p < 2^63."""
    p = 2 * isqrt(((1 << 63) // n)) + 1
    while n * (p // 2) ** 2 + p >= 1 << 63 or not _is_prime(p):
        p -= 1
    return p


@pytest.mark.parametrize("n", [2, 3, 16, 32])
def test_charpoly_mod_exact_at_the_int64_limit(n):
    # At the largest prime the guard admits, a sum of n products of balanced
    # residues stays below 2^63, and the pass keeps every scalar balanced.
    # The reference is the exact char poly, from CRT primes far below the
    # limit.
    p = _largest_safe_prime(n)
    assert (n + 1) * (p // 2) ** 2 + p >= 1 << 63  # the guard refuses n + 1
    rng = np.random.default_rng(n)
    A = rng.integers(0, p, size=(n, n))
    A = np.triu(A) + np.triu(A, 1).T
    ref = [int(c) % p for c in reversed(char_poly(SymmetricMatrix(A)).coeffs)]
    alpha, coupling = spectrum._lanczos_mod(A, p)
    assert spectrum._charpoly_tridiagonal(alpha, coupling, p) == ref
    assert all(abs(s) <= p // 2 for s in alpha + coupling)


def test_charpoly_mod_small_primes_match_cofactor_oracle():
    # Small primes meet every outcome of the pass: a breakdown (None), a
    # restart (a zero coupling) and a single block; each result that is
    # not None must be the oracle's residue.
    seen = Counter()
    rng = np.random.default_rng(12)
    for n in range(1, 9):
        for _ in range(2):
            A = rng.integers(-3, 4, size=(n, n)) * (rng.random((n, n)) < 0.4)
            M = SymmetricMatrix(np.triu(A) + np.triu(A, 1).T)
            ref = cofactor_char_poly(M)[::-1]
            for p in (2, 3, 5, 7, 11):
                Tp = spectrum._lanczos_mod(np.asarray(M.num % p), p)
                T = spectrum._lanczos_mod(M.num, p)
                assert (Tp is None) == (T is None)
                if Tp is not None:
                    assert spectrum._charpoly_tridiagonal(*Tp, p) == [int(c) % p for c in ref], (n, p)
                seen["none" if T is None else "restart" if not all(T[1]) else "one block"] += 1
    assert len(seen) == 3, seen


def _mixed_stack(n, rng):
    """Three rounds of four symmetric integer n x n matrices: two small
    dense ones (for n >= 3 the first has a_10 = 0 and a_20 = 1, the second
    a_i0 = 0 for i >= 1), a small sparse one, and a dense one with entries
    up to 10^6, so every fourth matrix is dense."""
    mats = []
    for _ in range(3):
        swap, reduced, sparse, dense = (
            rng.integers(-3, 4, size=(n, n)),
            rng.integers(-3, 4, size=(n, n)),
            rng.integers(-3, 4, size=(n, n)) * (rng.random((n, n)) < 0.4),
            rng.integers(-(10**6), 10**6, size=(n, n)),
        )
        if n >= 3:
            swap[1, 0], swap[2, 0] = 0, 1
            reduced[1:, 0] = 0
        mats += [swap, reduced, sparse, dense]
    A = np.stack(mats)
    return np.tril(A) + np.swapaxes(np.tril(A, -1), 1, 2)


def _exact_rows(A):
    """The exact char poly of each matrix of a stack, as rows [c_0..c_n]."""
    return [[int(c) for c in reversed(char_poly(SymmetricMatrix(a)).coeffs)] for a in A]


@pytest.mark.parametrize("n", range(1, 9))
def test_char_polys_stack_matches_per_matrix_kernel(n):
    A = _mixed_stack(n, np.random.default_rng(n))
    small = A[np.arange(len(A)) % 4 != 3]
    assert spectrum.char_polys_stack(small).tolist() == _exact_rows(small)
    if n >= 3:  # n 2^n (n 10^6)^n >= 2^63
        with pytest.raises(PreconditionError):
            spectrum.char_polys_stack(A)
    else:
        assert spectrum.char_polys_stack(A).tolist() == _exact_rows(A)


def test_char_polys_stack_matches_lanczos_on_every_graph_n_le_6():
    for n in range(1, 7):
        A = graph_stack(n, range(1 << n * (n - 1) // 2))
        assert spectrum.char_polys_stack(A).tolist() == [_integer_charpoly(a) for a in A], n


def _largest_safe_entry(n):
    """The largest m with n * 2^n * (n m)^n < 2^63."""
    m = int(((1 << 63) / (n * 2**n)) ** (1 / n)) // n  # float estimate
    while n * 2**n * (n * (m + 1)) ** n < 1 << 63:
        m += 1
    while n * 2**n * (n * m) ** n >= 1 << 63:
        m -= 1
    return m


@pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
def test_char_polys_stack_exact_at_the_int64_limit(n):
    # c J has the largest eigenvalue, n c, that entries of magnitude c
    # allow; the reference is the exact char poly from the CRT.
    c = _largest_safe_entry(n)
    J = np.ones((n, n), dtype=np.int64)
    rng = np.random.default_rng(n)
    A = np.stack([c * J, -c * J, c * np.eye(n, dtype=np.int64), rng.integers(-c, c + 1, size=(n, n))])
    A = np.triu(A) + np.swapaxes(np.triu(A, 1), 1, 2)
    assert spectrum.char_polys_stack(A).tolist() == _exact_rows(A)
    for sign in (1, -1):
        with pytest.raises(PreconditionError):
            spectrum.char_polys_stack(sign * (c + 1) * J[None])


class _MinMaxOnly(_Untouchable):
    """As _Untouchable, but its min and max may be read."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method == "reduce" and ufunc in (np.minimum, np.maximum):
            return ufunc.reduce(*(np.asarray(x) for x in inputs), **kwargs)
        return super().__array_ufunc__(ufunc, method, *inputs, **kwargs)


def test_char_polys_stack_refuses_int64_wrap():
    # The refusal must come before any product; np.abs(-2^63) is -2^63,
    # so the bound must not take the magnitude through int64.
    big = np.zeros((2, 3, 3), dtype=np.int64)
    big[1, 0, 0] = -(2**63)
    wide = np.zeros((1, 16, 16), dtype=np.int64)
    wide[0, 0, 0] = 1  # 16 * 2^16 * 16^16 >= 2^63
    for A in (big, wide, np.full((1, 2, 2), 2**62, dtype=np.int64)):
        with pytest.raises(PreconditionError):
            spectrum.char_polys_stack(A.view(_MinMaxOnly))


def _bordered(A, X):
    """The stack of [[0, x^T], [x, A_s]] over the matrices A_s of A and the
    rows x of X, s major: the matrices char_polys_bordered(A, X) covers."""
    S, m, _ = A.shape
    out = np.zeros((S, len(X), m + 1, m + 1), dtype=np.int64)
    out[:, :, 1:, 1:] = A[:, None]
    out[:, :, 0, 1:] = out[:, :, 1:, 0] = X
    return out.reshape(-1, m + 1, m + 1)


def _all_borders(m):
    """Row j: the bits of j, j < 2^m."""
    return (np.arange(1 << m)[:, None] >> np.arange(m)) & 1


@pytest.mark.parametrize("n", range(2, 7))
def test_char_polys_bordered_is_char_polys_stack_on_every_graph(n):
    # Graph s 2^(n-1) + j is graph s on vertices 1..n-1 bordered by the
    # bits of j at vertex 0, so the rows agree in order, not just as a
    # multiset, over the whole range and over any range of minors.
    m, total = n - 1, 1 << (n - 1) * (n - 2) // 2
    want = spectrum.char_polys_stack(graph_stack(n, range(total << m)))
    got = spectrum.char_polys_bordered(graph_stack(m, range(total)), _all_borders(m))
    assert np.array_equal(got, want)
    a, b = total // 3, total - total // 4
    part = spectrum.char_polys_bordered(graph_stack(m, range(a, b)), _all_borders(m))
    assert np.array_equal(part, want[a << m:b << m])


@pytest.mark.parametrize("m", range(1, 8))
def test_char_polys_bordered_matches_per_matrix_kernel(m):
    rng = np.random.default_rng(100 + m)
    A = _mixed_stack(m, rng)
    small = A[np.arange(len(A)) % 4 != 3]
    X = rng.integers(-3, 4, size=(5, m))
    assert spectrum.char_polys_bordered(small, X).tolist() == _exact_rows(_bordered(small, X))
    if m >= 3:  # 2^m r^(m-1) (m r + 9 m^2) >= 2^63 for r = m 10^6
        with pytest.raises(PreconditionError):
            spectrum.char_polys_bordered(A, X)
    else:
        assert spectrum.char_polys_bordered(A, X).tolist() == _exact_rows(_bordered(A, X))


def _bordered_bound(m, a, b):
    r = max(1, m * a)
    return 2**m * r ** (m - 1) * (m * r + m * m * b * b)


@pytest.mark.parametrize("m", [1, 2, 4, 7])
def test_char_polys_bordered_exact_at_the_int64_limit(m):
    # The largest border entry b the guard admits with unit minor entries,
    # on +-J, whose spectral radius m is the largest those allow.
    b = isqrt((1 << 63) // (2**m * m ** (m + 1)))  # estimate
    while _bordered_bound(m, 1, b + 1) < 1 << 63:
        b += 1
    while _bordered_bound(m, 1, b) >= 1 << 63:
        b -= 1
    J = np.ones((m, m), dtype=np.int64)
    A = np.stack([J, -J, np.eye(m, dtype=np.int64)])
    X = np.array([[b] * m, [-b] * m, [b] + [-b] * (m - 1)], dtype=np.int64)
    assert spectrum.char_polys_bordered(A, X).tolist() == _exact_rows(_bordered(A, X))
    with pytest.raises(PreconditionError):
        spectrum.char_polys_bordered(A.view(_MinMaxOnly), (X + X.clip(-1, 1)).view(_MinMaxOnly))


def test_char_polys_bordered_refuses_int64_wrap():
    # Minor stack or border table: either can break the bound, and the
    # refusal comes before any product, with no magnitude through int64.
    ones, unit = np.ones((1, 3, 3), dtype=np.int64), np.ones((1, 3), dtype=np.int64)
    wrap = np.zeros((2, 3, 3), dtype=np.int64)
    wrap[1, 0, 0] = -(2**63)
    wide = np.ones((1, 13, 13), dtype=np.int64)  # 2^13 13^12 (13^2 + 13^2) >= 2^63
    cases = [(wrap, unit), (wide, np.ones((1, 13), dtype=np.int64)),
             (ones, np.array([[0, -(2**63), 0]])), (ones, np.full((1, 3), 2**31))]
    for A, X in cases:
        with pytest.raises(PreconditionError):
            spectrum.char_polys_bordered(A.view(_MinMaxOnly), X.view(_MinMaxOnly))


class _Tridiagonal:
    """The n x n matrix with diagonal alpha, ones below it and the couplings
    above it, whose char poly the three-term recurrence computes; indexed
    as cofactor_char_poly reads a matrix."""

    def __init__(self, alpha, coupling):
        self.n, self.alpha, self.coupling = len(alpha), alpha, coupling

    def __getitem__(self, ij):
        i, j = ij
        if i == j:
            return self.alpha[i]
        return 1 if i == j + 1 else self.coupling[i] if j == i + 1 else 0


def _assert_recurrence_matches_cofactor(alpha, coupling, p):
    ref = cofactor_char_poly(_Tridiagonal(alpha, coupling))[::-1]
    got = spectrum._charpoly_tridiagonal(alpha, coupling, p)
    assert got == [int(c) % p for c in ref], (alpha, coupling, p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_tridiagonal_recurrence_small_primes(p):
    rng = np.random.default_rng(p)
    for n in range(1, 8):
        for _ in range(4):
            alpha = rng.integers(-(p // 2), p // 2 + 1, size=n).tolist()
            coupling = rng.integers(-(p // 2), p // 2 + 1, size=n - 1).tolist()
            _assert_recurrence_matches_cofactor(alpha, coupling, p)


@pytest.mark.parametrize("n", [2, 3, 6])
def test_tridiagonal_recurrence_at_the_largest_safe_prime(n):
    p = _largest_safe_prime(n)
    half = p // 2
    rng = np.random.default_rng(n)
    for extreme in (False, True):
        alpha = [half if extreme else int(a) for a in rng.integers(-half, half + 1, size=n)]
        coupling = [-half if extreme else int(c) for c in rng.integers(-half, half + 1, size=n - 1)]
        _assert_recurrence_matches_cofactor(alpha, coupling, p)


def test_lanczos_start_vector_built_once_and_read_only():
    v = spectrum._start_vector(7)
    assert v is spectrum._start_vector(7)
    assert v.tolist() == [pow(3, i + 1, 65537) for i in range(7)]
    assert not v.flags.writeable
    with pytest.raises(ValueError):
        v[0] = 1
    # Balanced mod a small prime in a copy: the shared vector stays as built.
    A = graph_from_index(7, 12345).num
    assert spectrum._lanczos_mod(A, 101) == spectrum._lanczos_mod(A, 101)
    assert v.tolist() == [pow(3, i + 1, 65537) for i in range(7)]


def test_tridiagonal_recurrence_n1_and_zero_couplings():
    p = spectrum._crt_prime(1)
    for a in (0, 1, -5, p // 2):
        _assert_recurrence_matches_cofactor([a], [], p)
    rng = np.random.default_rng(7)
    for n in range(2, 8):
        for zeros in ([0], [n - 2], list(range(0, n - 1, 2)), list(range(n - 1))):
            alpha = rng.integers(-(p // 2), p // 2 + 1, size=n).tolist()
            coupling = rng.integers(1, p // 2 + 1, size=n - 1).tolist()
            for z in zeros:
                coupling[z] = 0
            _assert_recurrence_matches_cofactor(alpha, coupling, p)


def test_char_polys_stack_exact_or_refused():
    rng = np.random.default_rng(3)
    A = np.concatenate([_mixed_stack(5, rng)[[0, 1, 2]], graph_stack(5, range(1020, 1024))])
    got = spectrum.char_polys_stack(A)
    assert got.tolist() == [_integer_charpoly(a) for a in A]
    # One entry of 10^6 at n = 5 may overflow int64.
    A[0, 0, 0] = 10**6
    with pytest.raises(PreconditionError):
        spectrum.char_polys_stack(A)


def test_char_poly_bound_sums_squares_exactly():
    # num is int64, but entries**2 would wrap int64: the bound must not.
    M = SymmetricMatrix(np.array([[2**40, -(2**62), 1], [-(2**62), 3, 2**40], [1, 2**40, -(2**62)]]))
    assert M.num.dtype == np.int64
    assert list(char_poly(M).coeffs) == cofactor_char_poly(M)


@pytest.mark.parametrize("n", range(1, 7))
def test_char_poly_bound_near_extremal(n):
    # |c_k| of a*I_n is C(n,k)*|a|^k = e_k(r), the row-norm bound itself.
    for a in (1, -3, 2**31 - 1, -(2**62)):
        M = SymmetricMatrix(np.eye(n, dtype=np.int64) * a)
        assert list(char_poly(M).coeffs) == cofactor_char_poly(M)
    J = SymmetricMatrix(np.ones((n, n), dtype=np.int64))
    assert list(char_poly(J).coeffs) == cofactor_char_poly(J)


SPARSE_50 = EnsembleSpec(
    offdiag=make_distribution([0, 1], [Fraction(23, 25), Fraction(2, 25)]), diag=zero_atom()
)


@pytest.mark.parametrize("spec, most", [(SIGN, 6), (SPARSE_50, 4)], ids=["sign", "gnp-2/25"])
def test_row_norm_bound_prime_count_n50(monkeypatch, spec, most):
    calls = []
    real = spectrum._lanczos_mod
    monkeypatch.setattr(spectrum, "_lanczos_mod", lambda A, p: calls.append(p) or real(A, p))
    for t in range(3):
        calls.clear()
        char_poly(sample_matrix(spec, 50, trial_rng(0, t)))
        assert 0 < len(calls) <= most


def _hadamard_bound(A):
    """The row-norm Hadamard range 2*prod(1 + ceil(||row_i||)) + 1."""
    bound = 1
    for row in A.tolist():
        ss = sum(x * x for x in row)
        bound *= 1 + (isqrt(ss - 1) + 1 if ss else 0)
    return 2 * bound + 1


def _bound_cases():
    """Integer symmetric matrices on which the bound is tight or nearly so,
    and seeded draws, all small enough for the cofactor oracle."""
    rng = np.random.default_rng(11)
    for n in range(1, 7):
        for a in (1, -3, 2**31 - 1, -(2**62)):
            yield SymmetricMatrix(np.eye(n, dtype=np.int64) * a)  # a I_n
            diag = np.zeros((n, n), dtype=np.int64)
            diag[0, 0] = a
            yield SymmetricMatrix(diag)  # diag(a, 0, ..., 0)
        yield SymmetricMatrix(np.ones((n, n), dtype=np.int64))  # J_n
        v = rng.integers(-4, 5, size=n)
        for a in (1, -7):
            yield SymmetricMatrix(a * np.outer(v, v))  # rank 1
        for t in range(3):
            yield sample_matrix(SIGN, n, trial_rng(13, 10 * n + t))
            yield sample_matrix(SPARSE_50, n, trial_rng(13, 10 * n + t))
    yield SymmetricMatrix.from_rows([[1, 2**63, 0], [2**63, -(2**70), 3], [0, 3, 5]])
    yield SymmetricMatrix.from_rows([[2**64, 1, -(2**65)], [1, 0, 2**64], [-(2**65), 2**64, 7]])


def test_coeff_bound_covers_cofactor_oracle():
    objects = 0
    for M in _bound_cases():
        c = cofactor_char_poly(M)
        assert 2 * max(abs(x) for x in c) < spectrum._coeff_bound(M.num), M.to_json()
        objects += M.num.dtype == object
    assert objects == 2


def test_coeff_bound_tight_on_scaled_identity():
    # |c_k| = C(n,k) |a|^k for a I_n: the spectral bound is attained.
    for n in range(1, 9):
        for a in (1, -3, 2**40):
            c = char_poly(SymmetricMatrix(np.eye(n, dtype=np.int64) * a)).coeffs
            assert spectrum._coeff_bound(np.eye(n, dtype=np.int64) * a) == 2 * max(map(abs, c)) + 1


def test_coeff_bound_never_exceeds_hadamard():
    mats = [M.num for M in chain(_bound_cases(), _graphs(), _draws())]
    mats += [sample_matrix(spec, 50, trial_rng(0, t)).num for spec in (SIGN, SPARSE_50) for t in range(5)]
    for A in mats:
        assert spectrum._coeff_bound(A) <= _hadamard_bound(A)


def test_sparse_n50_needs_at_most_three_primes(monkeypatch):
    # The row-norm bound alone asks for four primes on these draws.  The
    # spectral bound needs three on all 60 draws of seed 0, and on 58 of
    # the 60 of seed 1, where denser draws still need four.
    calls = []
    real = spectrum._lanczos_mod
    monkeypatch.setattr(spectrum, "_lanczos_mod", lambda A, p: calls.append(p) or real(A, p))
    for t in range(6):
        A = sample_matrix(SPARSE_50, 50, trial_rng(0, t)).num
        calls.clear()
        _integer_charpoly(A)
        assert 0 < len(calls) <= 3
        assert _hadamard_bound(A) > spectrum._crt_prime(0) * spectrum._crt_prime(1) * spectrum._crt_prime(2)


RATIONAL = EnsembleSpec(
    offdiag=make_distribution(["-1/2", "1/3", "2"], ["1/3", "1/3", "1/3"]),
    diag=make_distribution(["0", "1/2"], ["1/2", "1/2"]),
)


def _graphs():
    """Every graph on n <= 5 vertices."""
    for n in range(1, 6):
        for idx in range(1 << (n * (n - 1) // 2)):
            yield graph_from_index(n, idx)


def _draws():
    """One seeded sign, G(n, 2/25) and rational-atom draw for each n = 1..50."""
    for n in range(1, 51):
        for spec in (SIGN, SPARSE_50, RATIONAL):
            yield sample_matrix(spec, n, trial_rng(21, n))


def _remainder_over_q(a, b):
    """Remainder of a by b by long division over Fractions."""
    a = [Fraction(c) for c in a]
    while len(a) >= len(b):
        c, s = a[-1] / b[-1], len(a) - len(b)
        for i, bi in enumerate(b):
            a[s + i] -= c * bi
        a.pop()
        polys.normalize(a)
    return a


@pytest.mark.parametrize("monic", [False, True])
def test_pseudo_rem_is_scaled_remainder(monic):
    # The remainder by a monic b, an integer or a Fraction one as the
    # orthogonality lemma passes; any other b is refused.
    rng = np.random.default_rng(17 + monic)
    for _ in range(300):
        a = rng.integers(-20, 21, int(rng.integers(1, 9))).tolist()
        b = rng.integers(-9, 10, int(rng.integers(1, 5))).tolist()
        a[-1] = a[-1] or 1
        if not monic:
            b[-1] = -3 if b[-1] in (0, 1) else b[-1]
            with pytest.raises(PreconditionError):
                polys.pseudo_rem(a, b)
            continue
        if rng.integers(2):
            b = [Fraction(c, 2) for c in b]
        b[-1] = 1
        assert polys.pseudo_rem(a, b) == _remainder_over_q(a, b)
    with pytest.raises(PreconditionError):
        polys.pseudo_rem([1, 1], [])


def _primitive(p):
    """The integer polynomial p over its content, with a positive leading
    coefficient."""
    g = gcd(*p) if p and p[-1] > 0 else -gcd(*p)
    return [c // g for c in p]


def _gcd_over_q(a, b):
    """The primitive gcd of the integer polynomials a and b with a positive
    leading coefficient, by Euclid over Q.  Each remainder is taken of
    lc(b)^(deg a - deg b + 1) a, so every quotient is an integer, and is
    scaled to its primitive part."""
    a, b = _primitive(polys.normalize(list(a))), _primitive(polys.normalize(list(b)))
    while b:
        r = [c * b[-1] ** max(len(a) - len(b) + 1, 0) for c in a]
        while len(r) >= len(b):
            c, s = r[-1] // b[-1], len(r) - len(b)
            for i, bi in enumerate(b):
                r[s + i] -= c * bi
            polys.normalize(r)
        a, b = b, _primitive(r)
    return a


def test_gcd_int_either_order():
    # A monic a against a shared monic factor f: deg a < deg b, equal
    # degrees, b = 0 or a constant, and both orders when b is monic too,
    # over the CRT primes and over the primes from 2 upward, which give
    # unlucky primes, restarts and more than one prime to combine.
    rng = np.random.default_rng(29)

    def monic(k):
        return rng.integers(-5, 6, k).tolist() + [1]

    pairs = [([1], []), ([0, 3, 1], []), ([1, 1], [1, 2, 1]), ([0, 1], [0, 0, 6]), ([2, 1], [3])]
    for _ in range(300):
        f = monic(int(rng.integers(0, 3)))
        a, b = monic(int(rng.integers(0, 5))), rng.integers(-5, 6, int(rng.integers(1, 6))).tolist()
        if rng.integers(2):
            b[-1] = 1
        pairs.append(tuple(polys.normalize([int(c) for c in np.convolve(x, f)]) for x in (a, b)))
    assert sum(polys.degree(a) < polys.degree(b) for a, b in pairs) > 50
    assert sum(b[-1:] == [1] for a, b in pairs) > 100
    for primes in (_small_primes(100), [spectrum._crt_prime(i) for i in range(10)]):
        for a, b in pairs:
            g = polys.gcd_int(a, b, primes)
            assert g == _gcd_over_q(a, b), (a, b, primes[0])
            if b[-1:] == [1]:
                assert polys.gcd_int(b, a, primes) == g, (a, b, primes[0])


def test_gcd_int_keeps_the_leading_one():
    # Mod 2 the balanced lift of 1 is -1: the lift keeps the leading 1, so
    # over the primes from 2 upward gcd(x^3, 3x^2) is x^2, not -x^2.
    assert polys.gcd_int([0, 0, 0, 1], [0, 0, 3], _small_primes(10)) == [0, 0, 1]


def test_gcd_int_refuses_a_non_monic_a():
    def primes():
        pytest.fail("took a prime")
        yield

    for a in ([], [0, 0, -2, 0, 2], [1, 2], [1, Fraction(1, 2)]):
        with pytest.raises(PreconditionError):
            polys.gcd_int(a, polys.derivative(a), primes())
    with pytest.raises(PreconditionError):
        spectrum.repeated_factor([0, 0, -2, 0, 2])  # 2x^2(x^2 - 1)


def _squarefree(M):
    ip = _integer_charpoly(M.num)[::-1]
    return polys.degree(_gcd_over_q(ip, polys.derivative(ip))) == 0


def _screen(num):
    """The screen's verdict: the first prime's Lanczos pass has no zero
    coupling."""
    T = spectrum._lanczos_mod(num, spectrum._crt_prime(0))
    return T is not None and all(T[1])


def test_krylov_screen_sound():
    # A full rank must never meet a repeated root.  With v_i = 3^(i+1) mod
    # 65537 the screen also proves every simple matrix here: all 788 simple
    # graphs on n <= 5 vertices, where all-ones or v_i = i + 1 misses some,
    # and 109 of the 150 draws.
    proved = simple = 0
    for M in chain(_graphs(), _draws()):
        full, squarefree = _screen(M.num), _squarefree(M)
        assert squarefree or not full, M.to_json()
        proved += full
        simple += squarefree
    assert proved == simple == 788 + 109


def test_screen_is_the_krylov_rank():
    # No zero coupling equals rank K = n mod q, as the independent
    # recheck's own elimination computes it.
    for M in chain(_graphs(), _draws()):
        rows = M.num.tolist()
        assert _screen(M.num) == (krylov_rank(rows, Q, start_vector(M.n)) == M.n), M.to_json()


def _primes_needed(A):
    bound, modulus, k = spectrum._coeff_bound(A), 1, 0
    while modulus < bound:
        modulus *= spectrum._crt_prime(k)
        k += 1
    return k


def test_one_reduction_per_prime(monkeypatch):
    # A rank-deficient matrix reuses the screen's pass as its first CRT
    # residue; a full rank stops after that one pass.
    calls = []
    real = spectrum._lanczos_mod
    monkeypatch.setattr(spectrum, "_lanczos_mod", lambda A, p: calls.append(p) or real(A, p))
    sparse = [sample_matrix(SPARSE_50, 50, trial_rng(5, t)) for t in range(12)]
    for M in [K3, SymmetricMatrix(K3.num, 2), *sparse]:
        calls.clear()
        tag = simplicity_exact(M).tag
        k = 1 if tag == "SimpleExact" else _primes_needed(M.num)
        assert calls == [spectrum._crt_prime(i) for i in range(k)], (tag, calls)
    assert _primes_needed(sparse[0].num) > 1
    assert [simplicity_exact(M).tag for M in sparse].count("NotSimpleExact") == 3


def test_small_crt_primes_skip_breakdowns(monkeypatch):
    # With the primes from 2 upward, passes break down (w != 0, w.w = 0 mod
    # p), the first prime's included; each such prime is skipped, and the
    # char polys and verdicts stay those of the word-sized primes.
    graphs = [M for M in _graphs() if M.n <= 4]
    verdicts = [(v.tag, v.certificate) for v in map(simplicity_exact, graphs)]
    small = _small_primes(1000)
    calls = 0

    def crt_prime(i):
        nonlocal calls
        calls += 1
        if calls > 10**4:
            pytest.fail("the CRT loop does not advance past a skipped prime")
        return small[i]

    skipped = []
    real = spectrum._lanczos_mod

    def lanczos(A, p):
        T = real(A, p)
        if T is None:
            skipped.append(p)
        return T

    monkeypatch.setattr(spectrum, "_crt_prime", crt_prime)
    monkeypatch.setattr(spectrum, "_lanczos_mod", lanczos)
    for M, verdict in zip(graphs, verdicts):
        assert _integer_charpoly(M.num) == [int(c) for c in reversed(cofactor_char_poly(M))]
        v = simplicity_exact(M)
        assert (v.tag, v.certificate) == verdict, M.to_json()
    assert 2 in skipped and len(set(skipped)) > 1, Counter(skipped)


def test_first_prime_pass_runs_once_per_matrix(monkeypatch):
    # With the primes from 2 upward the first prime's pass breaks down on
    # most graphs; the CRT must skip that prime, not run its pass again.
    small = _small_primes(1000)
    monkeypatch.setattr(spectrum, "_crt_prime", small.__getitem__)
    calls = []
    real = spectrum._lanczos_mod

    def lanczos(A, p):
        T = real(A, p)
        calls.append((p, T is None))
        return T

    monkeypatch.setattr(spectrum, "_lanczos_mod", lanczos)
    broke = 0
    for M in [M for M in _graphs() if M.n <= 4]:
        calls.clear()
        simplicity_exact(M)
        primes = [p for p, _ in calls]
        assert len(primes) == len(set(primes)), (M.to_json(), calls)
        broke += calls[0] == (2, True)
    assert broke > 1, broke


# sha256 of repr([(tag, certificate), ...]) over _graphs() and _draws(), as
# simplicity_exact gave them when it always computed the char poly.
VERDICTS_SHA256 = "12d6db87953a639cb7262d60fb0c8d827368ef7b0a583f0623534cbc98d5a12e"


def test_exact_verdicts_pinned():
    records = [(v.tag, v.certificate) for v in map(simplicity_exact, chain(_graphs(), _draws()))]
    assert hashlib.sha256(repr(records).encode()).hexdigest() == VERDICTS_SHA256


def _path_laplacian(n):
    L = np.zeros((n, n), dtype=np.int64)
    for i in range(n - 1):
        L[[i, i + 1], [i + 1, i]] = -1
        L[[i, i + 1], [i, i + 1]] += 1
    return L


@pytest.mark.parametrize("n", range(2, 13))
def test_krylov_decides_path_laplacian(monkeypatch, n):
    # All-ones is an eigenvector (eigenvalue 0) and the spectrum is simple:
    # the screen alone must prove it.
    L = _path_laplacian(n)
    assert not (L @ np.ones(n, dtype=np.int64)).any()
    monkeypatch.setattr(spectrum, "_integer_charpoly", lambda *a: pytest.fail("reached the CRT"))
    assert simplicity_exact(SymmetricMatrix(L)) is spectrum._SIMPLE_EXACT


def test_krylov_refuses_int64_wrap(monkeypatch):
    p = spectrum._crt_prime(0)
    n = _smallest_wrapping_n(p)
    monkeypatch.setattr(spectrum, "_balanced", lambda *a: pytest.fail("reached the products"))
    A = np.zeros((n, n), dtype=np.int64).view(_Untouchable)
    with pytest.raises(PreconditionError):
        spectrum._lanczos_mod(A, p)
    with pytest.raises(PreconditionError):
        simplicity_exact(SymmetricMatrix(np.zeros((n, n), dtype=np.int64)))


def test_krylov_screen_object_num(monkeypatch):
    q = spectrum._crt_prime(0)
    simple = SymmetricMatrix.from_rows([[1, 2**63, 0], [2**63, -(2**70), 3], [0, 3, 5]])
    flat = SymmetricMatrix(np.eye(2, dtype=object) * 2**64)  # 2^64 twice
    for M in (simple, flat):
        assert M.num.dtype == object
        assert _screen(M.num) == _screen(np.asarray(M.num % q, dtype=np.int64)) == _squarefree(M)
    monkeypatch.setattr(spectrum, "_integer_charpoly", lambda *a: pytest.fail("reached the CRT"))
    assert simplicity_exact(simple) is spectrum._SIMPLE_EXACT
    with pytest.raises(pytest.fail.Exception):  # not simple: on to the CRT
        simplicity_exact(flat)


def _unstripped_factor(ip):
    g = _gcd_over_q(ip, polys.derivative(ip))
    return g if polys.degree(g) else None


def _unique_rows(rows):
    """Distinct rows of a 2-D int64 array, sorted as opaque bytes: an oracle
    independent of the census's lexsort dedupe."""
    w = rows.shape[1]
    keys = np.unique(np.ascontiguousarray(rows).view(f"V{w * 8}")[:, 0])
    return keys.view(np.int64).reshape(-1, w)


@pytest.fixture(scope="module")
def graph_char_polys():
    """{n: (D, n + 1) distinct char poly rows [c_0..c_n]} over every graph
    on n <= 7 vertices; n = 7 by bordering the 6-vertex graphs in stacks."""
    rows = {n: _unique_rows(spectrum.char_polys_stack(graph_stack(n, range(1 << n * (n - 1) // 2))))
            for n in range(1, 7)}
    X = (np.arange(64)[:, None] >> np.arange(6)) & 1
    parts = [spectrum.char_polys_bordered(graph_stack(6, range(a, a + 1024)), X) for a in range(0, 1 << 15, 1024)]
    rows[7] = _unique_rows(np.concatenate([_unique_rows(r) for r in parts]))
    assert {n: len(r) for n, r in rows.items()} == {1: 1, 2: 2, 3: 4, 4: 11, 5: 33, 6: 151, 7: 988}
    return rows


def _counting(monkeypatch, module, name):
    """Wrap module.name so that each call's arguments are kept; returns the
    list they go to."""
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(a) or real(*a))
    return calls


def test_repeated_factor_lifts_root_zero(monkeypatch, graph_char_polys):
    # For x^k r with r(0) != 0 the modular gcd gives x^(k-1) gcd(r, r')
    # like any other factor: equal to Euclid's gcd over Q of the whole
    # polynomial on every graph char poly for n <= 7 and on seeded
    # G(n, 2/25) draws.  On the graphs the first prime settles each one.
    ips = {tuple(row[::-1]) for rows in graph_char_polys.values() for row in rows.tolist()}
    calls = _counting(monkeypatch, polys, "poly_gcd_mod")
    for ip in ips:
        spectrum.repeated_factor(list(ip))
    assert len(calls) == len(ips)
    ips |= {
        tuple(_integer_charpoly(sample_matrix(SPARSE_50, n, trial_rng(5, n)).num)[::-1])
        for n in range(10, 51, 4)
    }
    reached = Counter()
    for ip in map(list, ips):
        g = spectrum.repeated_factor(ip)
        assert g == _unstripped_factor(ip), ip
        k = next(i for i, c in enumerate(ip) if c)
        reached[min(k, 2), g is not None and len(g) > k] += 1  # r repeats a root
    # k = 0, 1 and >= 2, each with r squarefree and with r not.
    assert len(reached) == 6, reached
    assert spectrum.repeated_factor([0, 0, 0, 1]) == [0, 0, 1]  # x^3
    assert spectrum.repeated_factor([0, 1]) is None  # x
    assert spectrum.repeated_factor([0, 0, -1, 0, 1]) == [0, 1]  # x^2(x^2 - 1)
    assert spectrum.repeated_factor([0, 0, 1, -2, 1]) == [0, -1, 1]  # x^2(x - 1)^2


def _poly_product(*roots):
    """prod (x - a) over roots, constant term first."""
    p = [1]
    for a in roots:
        p = [x - a * y for x, y in zip([0] + p, p + [0])]
    return p


def test_repeated_factor_lift_misses_take_more_primes(monkeypatch):
    q = spectrum._crt_prime(0)
    calls = _counting(monkeypatch, polys, "poly_gcd_mod")
    # (x - 1)(x - 1 - q) is squarefree over Q, but (x - 1)^2 mod q: q is
    # unlucky, and the second prime proves it squarefree.
    assert spectrum.repeated_factor(_poly_product(1, 1 + q)) is None
    assert [p for _, _, p in calls] == [q, spectrum._crt_prime(1)]
    # (x - c)^2 (x + 1) with c > q / 2: the balanced lift mod q is
    # x - (c - q), which misses, and the lift mod q q' is x - c.
    c = q // 2 + 7
    calls.clear()
    assert spectrum.repeated_factor(_poly_product(c, c, -1)) == [-c, 1]
    assert len(calls) == 2
    # (x - 10^12)^2 (x - 5)^3: the factor's coefficients pass q, not q q'.
    t = 10**12
    calls.clear()
    assert spectrum.repeated_factor(_poly_product(t, t, 5, 5, 5)) == _poly_product(t, 5, 5)
    assert len(calls) == 2
    # A lift that holds takes one prime: (x - 3)^2 (x + 1).
    calls.clear()
    assert spectrum.repeated_factor(_poly_product(3, 3, -1)) == [-3, 1]
    assert len(calls) == 1


@pytest.mark.parametrize("q", [spectrum._crt_prime(0), 11, 13, 101])
def test_squarefree_screen_sound(graph_char_polys, q):
    # proved implies squarefree, and of the rows the screen leaves, a double
    # integer root implies not, on every graph char poly with n <= 7, also
    # at small primes where the screen misses more.
    for n, rows in graph_char_polys.items():
        proved = spectrum.squarefree_screen(rows, q)
        simple = np.array([spectrum.repeated_factor(r[::-1]) is None for r in rows.tolist()])
        assert not (proved & ~simple).any(), (n, rows[proved & ~simple])
        refuted = np.zeros_like(proved)
        refuted[~proved] = spectrum.double_integer_root(rows[~proved], n - 1)
        assert not (refuted & simple).any(), (n, rows[refuted & simple])
        if q == spectrum._crt_prime(0):  # the census's prime proves every simple row
            assert np.array_equal(proved, simple), n
            # Only repeated irrational roots are left for the gcd.
            assert (~(proved | refuted)).sum() == {5: 1, 6: 4, 7: 13}.get(n, 0), n


def _horner(coeffs, x):
    """The polynomial with coefficients coeffs, constant term first, at x."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _has_double_integer_root(row, r):
    """Whether (x - lam)^2 divides the polynomial with coefficients row,
    leading first, for some integer |lam| <= r, on Python ints."""
    p, dp = row[::-1], polys.derivative(row[::-1])
    return any(_horner(p, x) == 0 and _horner(dp, x) == 0 for x in range(-r, r + 1))


def test_double_integer_root_matches_python_evaluation(graph_char_polys):
    # Exactly the rows with a double integer root, against evaluation on
    # Python ints: at the census's r = n - 1 on every graph char poly, and
    # at other r on crafted rows.
    for n, rows in graph_char_polys.items():
        got = spectrum.double_integer_root(rows, n - 1).tolist()
        assert got == [_has_double_integer_root(row, n - 1) for row in rows.tolist()], n
        if n <= 4:  # every repeated root is an integer; C5 brings irrational ones
            assert got == [spectrum.repeated_factor(row[::-1]) is not None for row in rows.tolist()]
    crafted = [_poly_product(*roots)[::-1] for roots in ([3, 3, -1, 0], [-4, -4, 2, 5], [1, 2, 3, 4], [9, 9, 0, 0])]
    rows = np.array(crafted, dtype=np.int64)
    for r in (0, 2, 3, 4, 8, 9, 10):
        assert spectrum.double_integer_root(rows, r).tolist() == [
            _has_double_integer_root(row, r) for row in crafted
        ], r
    assert spectrum.double_integer_root(rows[:0], 3).shape == (0,)


def test_double_integer_root_refuses_int64_wrap():
    # The refusal must come before any product, and the magnitude must not
    # go through np.abs, which wraps -2^63.
    big = np.zeros((2, 4), dtype=np.int64)
    big[1, 3] = -(2**63)
    for rows, r in (
        (big, 1),
        (np.full((1, 9), 1 << 40, dtype=np.int64), 7),  # 8 * 2^40 * 7^8 >= 2^63
        (np.zeros((1, 20), dtype=np.int64), 10),  # m = 0, but the table's 10^19 >= 2^63
        (np.ones((3, 3), dtype=np.int64), 1 << 31),
    ):
        with pytest.raises(PreconditionError):
            spectrum.double_integer_root(rows.view(_MinMaxOnly), r)


def test_squarefree_screen_refuses_int64_wrap_and_small_q():
    rows = np.zeros((3, 8), dtype=np.int64).view(_Untouchable)  # n = 7
    wide = isqrt((1 << 62) - 1) + 1  # 2 q^2 >= 2^63 first here
    assert 2 * (wide - 1) ** 2 < 1 << 63 <= 2 * wide**2
    for q in (wide, 7, 2):
        with pytest.raises(PreconditionError):
            spectrum.squarefree_screen(rows, q)


def test_squarefree_screen_reduces_before_products(graph_char_polys):
    # Rows shifted by multiples of q to near 2^62 are the same mod q, so
    # they screen the same: nothing wraps before the reduction.
    q = spectrum._crt_prime(0)
    rows = graph_char_polys[7]
    shift = (1 << 62) // q * q
    top = int(rows.max()) + shift
    assert top < 1 << 63 <= top * 7  # p' = degrees * rows would wrap
    assert np.array_equal(spectrum.squarefree_screen(rows + shift, q), spectrum.squarefree_screen(rows, q))


def test_simplicity_zero_2x2():
    v = simplicity_exact(SymmetricMatrix.from_rows([[0, 0], [0, 0]]))
    assert v.tag == "NotSimpleExact"
    assert v.certificate == (Fraction(0), Fraction(1))  # x


def test_simplicity_permutation_invariant():
    for t in range(10):
        M = sample_matrix(SIGN, 5, trial_rng(5, t))
        perm = [4, 2, 0, 3, 1]
        P = SymmetricMatrix(M.num[np.ix_(perm, perm)], M.den)
        assert simplicity_exact(M).tag == simplicity_exact(P).tag


def test_eigen_diag():
    s = eigen_decompose(SymmetricMatrix.from_rows([[1, 0], [0, 2]]))
    assert np.allclose(s.eigenvalues, [1, 2])
    assert np.allclose(np.abs(s.eigenvectors), np.eye(2))


def test_eigen_swap():
    s = eigen_decompose(SymmetricMatrix.from_rows([[0, 1], [1, 0]]))
    assert np.allclose(s.eigenvalues, [-1, 1])
    assert np.allclose(np.abs(s.eigenvectors), np.full((2, 2), 2**-0.5))


def test_eigen_k3():
    s = eigen_decompose(K3)
    assert np.allclose(s.eigenvalues, [-1, -1, 2], atol=1e-10)
    assert s.residual <= 1e-9 * (1 + 1) * 3
    assert np.allclose(s.eigenvectors.T @ s.eigenvectors, np.eye(3), atol=1e-10)


def test_eigen_conservation():
    for t in range(20):
        M = sample_matrix(SIGN, 8, trial_rng(6, t))
        s = eigen_decompose(M)
        tol = 1e-9 * 8 * float(Fraction(spectrum._max_abs(M.num), M.den))
        assert abs(float(np.sum(s.eigenvalues)) - float(M.trace())) <= tol
        frob2 = sum(float(x) ** 2 for row in M.entries for x in row)
        assert abs(float(np.sum(s.eigenvalues**2)) - frob2) <= tol


def test_eigen_residual_above_tol_raises():
    M = sample_matrix(SIGN, 8, trial_rng(6, 0))
    with pytest.raises(ConvergenceError) as info:
        eigen_decompose(M, tol=1e-300)
    assert info.value.achieved > 0


def test_clusters_singletons():
    v = simplicity_numeric(SymmetricMatrix.from_rows([[1, 0], [0, 2]]))
    assert v.tag == "SimpleNumeric"
    assert v.min_gap == pytest.approx(1.0)
    v = simplicity_numeric(SymmetricMatrix.from_rows([[5]]))
    assert v.tag == "SimpleNumeric"
    assert v.min_gap == float("inf")


def test_clusters_forced_merge(monkeypatch):
    from simplespectrum.spectrum import NumericSpectrum

    v = simplicity_numeric(K3)  # eigenvalues 2, -1, -1
    assert v.tag == "NotSimpleNumeric"
    assert v.min_gap < 1e-8
    forced = NumericSpectrum(
        eigenvalues=np.array([-1.0, -1.0 + 1e-12, 2.0]),
        eigenvectors=np.eye(3),
        residual=0.0,
    )
    monkeypatch.setattr(spectrum, "eigen_decompose", lambda M: forced)
    v = simplicity_numeric(K3)
    assert v.tag == "NotSimpleNumeric"
    assert v.min_gap == pytest.approx(1e-12, rel=1e-3)
    for gap_tol in (0, float("nan")):
        with pytest.raises(PreconditionError):
            simplicity_numeric(K3, gap_tol=gap_tol)


def test_numeric_agrees_with_exact_random():
    for t in range(50):
        M = sample_matrix(SIGN, 10, trial_rng(8, t))
        assert simplicity_numeric(M).is_simple == simplicity_exact(M).is_simple


def test_char_poly_small_at_numeric_eigenvalues():
    for t in range(10):
        M = sample_matrix(SIGN, 8, trial_rng(9, t))
        p = char_poly(M)
        scale = max(abs(float(c)) for c in p.coeffs)
        s = eigen_decompose(M)
        for lam in s.eigenvalues:
            assert abs(_horner([float(c) for c in p.coeffs], float(lam))) / scale <= 1e-6


def test_crt_primes_are_the_first_primes_past_the_floor():
    # The first 30 CRT primes are pinned, and they are the consecutive
    # primes from _PRIME_FLOOR on, by an independent trial division.
    primes = [spectrum._crt_prime(i) for i in range(30)]
    assert primes == [
        134217649, 134217689, 134217757, 134217773, 134217779, 134217781,
        134217799, 134217803, 134217823, 134217827, 134217869, 134217877,
        134217893, 134217917, 134217929, 134217931, 134217943, 134217973,
        134217977, 134217989, 134218031, 134218037, 134218039, 134218057,
        134218069, 134218081, 134218103, 134218153, 134218159, 134218169,
    ]
    assert primes == list(filter(_is_prime, range(spectrum._PRIME_FLOOR, primes[-1] + 1)))


def test_crt_primes_found_once():
    M = sample_matrix(SIGN, 5, trial_rng(3, 0))
    verdict = simplicity_exact(M)
    misses = spectrum._crt_prime.cache_info().misses
    assert simplicity_exact(M) == verdict
    assert spectrum._crt_prime.cache_info().misses == misses
    # Rebuilt from empty, each prime is searched for once, from the one
    # before it: prime i misses once and reads prime i - 1 from the cache.
    primes = [spectrum._crt_prime(i) for i in range(3)]
    spectrum._crt_prime.cache_clear()
    assert [spectrum._crt_prime(i) for i in range(3)] == primes
    assert spectrum._crt_prime.cache_info()[:2] == (2, 3)  # hits, misses
    assert [spectrum._crt_prime(i) for i in range(3)] == primes
    assert spectrum._crt_prime.cache_info()[:2] == (5, 3)


@pytest.mark.parametrize("tol", [0.0, -1e-12, float("nan")])
def test_contract_edges_raise(tol):
    with pytest.raises(PreconditionError, match="tol"):
        eigen_decompose(K3, tol=tol)


# Graphs on n vertices whose isolated vertices and twins give two
# independent kernel vectors of A or A + I, n = 2..6: at n = 5, 262 of the
# 274 non-simple graphs, and at n = 6, 6,884 of 12,428 (55.4%).
TWIN_GRAPHS = {2: 1, 3: 2, 4: 34, 5: 262, 6: 6884}


@pytest.mark.parametrize("n", sorted(TWIN_GRAPHS))
def test_twin_witness_on_every_graph_n_le_6(n):
    A = graph_stack(n, range(1 << n * (n - 1) // 2))
    fired = np.array([repeated_by_twins(SymmetricMatrix(a)) for a in A])
    # Independent recount: distinct eigenvalues of a graph on n <= 6
    # vertices are algebraic integers far further apart than 1e-6.
    lam = np.linalg.eigvalsh(A.astype(float))
    nonsimple = (np.diff(lam, axis=1) < 1e-6).any(axis=1)
    assert not (fired & ~nonsimple).any()
    assert int(fired.sum()) == TWIN_GRAPHS[n]


@st.composite
def planted_rows(draw):
    """(num, den, shift, plants): a small symmetric integer num with zero or
    equal rows of num + shift*I planted on disjoint index sets, shift 0 or
    den.  Plants on disjoint indices keep each other, so two of them at one
    shift always give two kernel vectors."""
    n = draw(st.integers(2, 6))
    den = draw(st.sampled_from([1, 2, 3]))
    entries = draw(st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n))
    A = np.triu(np.array(entries, dtype=np.int64).reshape(n, n))
    A = A + np.triu(A, 1).T
    shift = draw(st.sampled_from([0, den]))
    free, plants = list(draw(st.permutations(range(n)))), []
    for _ in range(draw(st.integers(1, 3))):
        if free and draw(st.booleans()):  # row i of num + shift*I is zero
            i = free.pop()
            A[i, :] = A[:, i] = 0
            A[i, i] = -shift
            plants.append((i,))
        elif len(free) >= 2:  # rows i and j of num + shift*I are equal
            i, j = free.pop(), free.pop()
            A[j, :], A[:, j] = A[i, :], A[:, i]
            A[i, j] = A[j, i] = A[i, i] + shift
            A[j, j] = A[i, i]
            plants.append((i, j))
    return A, den, shift, plants


@settings(max_examples=300, deadline=None)
@given(planted_rows())
def test_twin_witness_implies_a_certified_repeat_at_0_or_minus_1(case):
    A, den, shift, plants = case
    M = SymmetricMatrix(A, den)
    B = A + shift * np.eye(len(A), dtype=np.int64)
    for plant in plants:  # the planting itself
        assert not B[plant[0]].any() if len(plant) == 1 else (B[plant[0]] == B[plant[1]]).all()
    fired = repeated_by_twins(M)
    assert fired or len(plants) < 2
    if fired:
        verdict = simplicity_exact(M)
        assert verdict.tag == "NotSimpleExact"
        assert _horner(verdict.certificate, 0) == 0 or _horner(verdict.certificate, -1) == 0


def _with_edges(n, edges):
    A = np.zeros((n, n), dtype=np.int64)
    for i, j in edges:
        A[i, j] = A[j, i] = 1
    return SymmetricMatrix(A)


def test_twin_witness_crafted_cases():
    # One isolated vertex (4) on a path: one kernel vector, and the path
    # P_4 is simple, so nothing is proved.
    lone = _with_edges(5, [(0, 1), (1, 2), (2, 3)])
    assert not repeated_by_twins(lone) and simplicity_exact(lone).is_simple
    # The same plus a pendant twin pair at 0 (5 and 6, both adjacent to
    # 0 only): e_4 and e_5 - e_6 lie in ker A.
    pair = _with_edges(7, [(0, 1), (1, 2), (2, 3), (0, 5), (0, 6)])
    assert repeated_by_twins(pair)
    assert _horner(simplicity_exact(pair).certificate, 0) == 0
    # K_n: every row of A + I is all ones, so -1 repeats n - 1 times.
    for n in (3, 6, 50):
        K = SymmetricMatrix(np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64))
        assert repeated_by_twins(K)
        assert _horner(simplicity_exact(K).certificate, -1) == 0  # g = (x + 1)^(n - 2)
    # Row 0 hashes to 3 (-12) + 9 + 27 = 0 but is not zero, and rows 1 and
    # 2 are equal: one kernel vector, and the matrix is simple.
    hashed_zero = SymmetricMatrix([[-12, 1, 1], [1, 1, 1], [1, 1, 1]])
    assert int(hashed_zero.num[0] @ spectrum._start_vector(3)) == 0
    assert not repeated_by_twins(hashed_zero) and simplicity_exact(hashed_zero).is_simple
    # (J - 2I) / 2: num + den*I = J, so -1 repeats; K_3 / 2 repeats -1/2,
    # which no row of num or num + den*I shows.
    J = np.ones((3, 3), dtype=np.int64)
    assert repeated_by_twins(SymmetricMatrix(J - 2 * np.eye(3, dtype=np.int64), 2))
    assert not repeated_by_twins(SymmetricMatrix(J - np.eye(3, dtype=np.int64), 2))


def _diag(top, dtype=np.int64):
    """diag(top, 0, 0): two zero rows, so 0 repeats."""
    A = np.zeros((3, 3), dtype=dtype)
    A[0, 0] = top
    return A


@pytest.mark.parametrize("num, den", [
    (_diag(2**64, dtype=object), 1),  # integer objects: not hashed
    (_diag(2**62), 1),  # n max |a_ij| 65537 past int64
    (_diag(1), 2**47 - 1),  # den 65537 past int64
    (_diag(1), 2**64 + 1),  # den itself past int64
])
def test_twin_witness_declines_past_int64(num, den):
    M = SymmetricMatrix(num, den)
    assert M.den == den and M.num.dtype == num.dtype
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert repeated_by_twins(M) is False
    # Each is non-simple at 0, so only the guard declines.
    assert _horner(simplicity_exact(M).certificate, 0) == 0
