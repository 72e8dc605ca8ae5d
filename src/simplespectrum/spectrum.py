"""Spectral simplicity, decided exactly and numerically.

Exact route: one symmetric Lanczos pass per prime.  A real symmetric M has
simple spectrum exactly when some vector v is cyclic, that is, when
K = [v, Mv, ..., M^(n-1) v] is nonsingular.  Mod a prime p the pass runs
the three-term Lanczos recurrence from a fixed integer v under the bilinear
form x.y, restarts in the orthogonal complement when a block closes, and so
yields a tridiagonal form of M mod p (Lanczos 1950; Eberly and Kaltofen,
ISSAC 1997).  Mod the first prime q a pass with no restart, that is no zero
coupling, says rank K = n mod q; det K != 0 over Z then proves M simple
with one prime (Wiedemann 1986).  Otherwise, as for every non-simple M,
that form gives the first residue of the monic char poly det(xI - M) by
the three-term recurrence p_{k+1} = (x - a_k) p_k - c_k p_{k-1}.  Further
word-sized primes, each one O(n^3) pass of numpy int64 matvecs, give the
rest; a prime whose pass meets a nonzero w with w.w = 0 mod p is skipped,
which only finitely many primes can do, as x.y is positive definite over Q.
Garner's CRT reconstructs the char poly against an a-priori coefficient
bound, the smaller of Hadamard's inequality on the row norms and
Maclaurin's inequality on the Frobenius norm, so the result is exact, not
probabilistic.  Stacks of small matrices whose char polys fit int64 go
through one Faddeev-LeVerrier pass over the whole stack in int64 with no
prime; its intermediates are the coefficients of the adjugate, so the
same pass over the (n - 1)-vertex graphs of a census, plus one quadratic
form per border, gives the char polys of all their n-vertex borderings.
Simplicity is then squarefreeness: gcd(p, p') constant, settled by
Brown's modular gcd, whose monic gcds mod the CRT primes are lifted and
checked by trial division; mostly the first prime q settles it.  A stack
of char polys is screened at once by the remainder sequence of p and p'
mod q, run on all rows in lockstep; a double integer root refutes most
rows it leaves, and only the rest reach that gcd.  For a real symmetric
matrix algebraic multiplicity equals geometric multiplicity, so
squarefree <=> simple spectrum.

Twin witness: repeated_by_twins proves some M non-simple in O(n^2), with
no prime.  Zero rows and classes of equal rows of num, or of num + den*I,
that give two independent kernel vectors make 0, or -1, a repeated
eigenvalue.  Most non-simple sparse graphs of Luh and Vu's regime are of
this kind.

Numeric route: LAPACK's symmetric eigensolver (np.linalg.eigh), followed
by gap clustering.  Where the two disagree the exact verdict is ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import comb, isqrt
from operator import mul
from typing import Optional

import numpy as np

from . import polys
from .errors import ConvergenceError, PreconditionError
from .matrices import SymmetricMatrix
from .polys import _balanced

# Primes start just below 2^27 so that the balanced int64 products and dot
# products of the Lanczos pass cannot overflow for n up to 2048:
# n * (p // 2)^2 + p < 2^63.
_PRIME_FLOOR = (1 << 27) - 100


@lru_cache(maxsize=None)
def _crt_prime(i: int) -> int:
    """The i-th prime >= _PRIME_FLOOR, counting from 0: the first odd number
    past the (i - 1)-th with no odd divisor d <= sqrt(p), so the trial
    division runs once per prime in this process.  Callers ask in ascending
    order, so each call recurses at most once."""
    p = _crt_prime(i - 1) + 2 if i else _PRIME_FLOOR | 1
    while any(p % d == 0 for d in range(3, isqrt(p) + 1, 2)):
        p += 2
    return p


@dataclass(frozen=True)
class CharPoly:
    """Monic characteristic polynomial, coefficients constant term first."""

    coeffs: tuple[Fraction, ...]


@dataclass(frozen=True)
class NumericSpectrum:
    """Eigenvalues ascending, orthonormal eigenvector columns, max residual."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual: float


# Slotted, and one shared SimpleExact instance: sweeps that keep a verdict
# per matrix hold thousands of them.
@dataclass(frozen=True, slots=True)
class SimplicityVerdict:
    """A verdict and, for NotSimpleExact, its certificate: the monic
    gcd(p, p') of the char poly p, constant term first.

    SimpleExact carries no field, because its certificate is implied by n:
    the Krylov matrix [v, Mv, ..., M^(n-1) v] of num has rank n mod the
    first CRT prime q, v_i = 3^(i+1) mod 65537 (i < n), read off num's
    Lanczos pass mod q; failing that, num's char poly is squarefree.
    """

    tag: str  # SimpleExact | NotSimpleExact | SimpleNumeric | NotSimpleNumeric
    min_gap: Optional[float] = None
    certificate: Optional[tuple[Fraction, ...]] = None  # repeated-root factor

    @property
    def is_simple(self) -> bool:
        return self.tag in ("SimpleExact", "SimpleNumeric")


_SIMPLE_EXACT = SimplicityVerdict(tag="SimpleExact")


def _check_int64(n: int, p: int) -> None:
    """Refuse n and p where an int64 sum of n balanced products mod p, plus
    p, can wrap: a matvec or dot product of the Lanczos pass."""
    if n * (p // 2) ** 2 + p >= 1 << 63:
        raise PreconditionError(f"n = {n} overflows int64 products mod {p}")


@lru_cache(maxsize=64)
def _start_vector(n: int) -> np.ndarray:
    """v_i = 3^(i+1) mod 65537 for i < n, the Lanczos start vector, built
    once per n and read-only, as it is shared by every pass."""
    v = np.array([pow(3, i + 1, 65537) for i in range(n)], dtype=np.int64)
    v.flags.writeable = False
    return v


def _lanczos_mod(A: np.ndarray, p: int) -> Optional[tuple[list[int], list[int]]]:
    """Tridiagonal form of the integer symmetric A mod p, as (a_0..a_{n-1},
    c_1..c_{n-1}) with A w_k = w_{k+1} + a_k w_k + c_k w_{k-1}; None when
    some w_k != 0 has d_k = w_k.w_k = 0 mod p.

    From w_0 = v, v_i = 3^(i+1) mod 65537 (i < n), the symmetric Lanczos
    recurrence with a_k = w_k.A w_k / d_k and c_k = d_k / d_{k-1} keeps the
    w_k orthogonal under x.y.  When w_k = 0, the span of w_0..w_{k-1} is
    A-invariant, and so, A being symmetric, is its orthogonal complement:
    the pass restarts there, with c_k = 0, from the first nonzero
    e_i - sum_l (w_l[i] / d_l) w_l, and needs no further orthogonalisation.
    In a block each w is a monic polynomial in A applied to the block's
    start, of degree its place in the block.  So for p > 65537, where
    v != 0 mod p, no zero coupling is exactly rank K = n mod p for
    K = [v, Av, ..., A^(n-1) v], which proves A simple.  A zero says
    nothing: A may be non-simple, or v not cyclic mod p.

    Every entry and scalar is balanced, |s| <= p // 2, so each int64
    product is at most (p // 2)^2 and each sum at most n*(p // 2)^2 + p,
    the bound _check_int64 checks before any product.

    3 generates the units mod the prime 65537, so the entries of v are
    distinct and follow no low-degree pattern.  Patterned vectors miss
    structured matrices: all-ones is an eigenvector of every regular graph,
    and a vector linear in i is orthogonal to each eigenvector of a path's
    Laplacian that is symmetric under reversal, apart from all-ones.
    """
    n = A.shape[0]
    _check_int64(n, p)
    A = _balanced(np.asarray(A % p, dtype=np.int64), p)  # object entries too
    W = np.zeros((n + 1, n), dtype=np.int64)  # row l + 1: w_l; row 0: w_{-1} = 0
    W[1] = _balanced(_start_vector(n), p)
    alpha, coupling, inv, i = [], [], [], 0  # inv[l]: 1 / d_l
    for k in range(n):
        w = W[k + 1]
        d = int(w @ w) % p
        c = _balanced(d * inv[-1], p) if k else 0  # c_k; 0 when w_k = 0
        while not d and not w.any():  # restart from e_i, i past every earlier start
            e = -(_balanced(W[1:k + 1, i] * np.array(inv, dtype=np.int64), p) @ W[1:k + 1])
            e[i] += 1
            w[:], i = _balanced(e, p), i + 1
            d = int(w @ w) % p
        if not d:
            return None
        inv.append(_balanced(pow(d, -1, p), p))
        u = _balanced(A @ w, p)
        alpha.append(a := _balanced(int(w @ u) * inv[k], p))
        if k:
            coupling.append(c)
        if k + 1 < n:  # w_{k+1} = u - c w_{k-1} - a w_k
            W[k + 2] = _balanced(u - np.array((c, a)) @ W[k:k + 2], p)
    return alpha, coupling


def _charpoly_tridiagonal(alpha: list[int], coupling: list[int], p: int) -> list[int]:
    """[c_0..c_n] in [0, p), poly = sum c_k x^(n-k), of the tridiagonal form
    (alpha, coupling) of _lanczos_mod, by p_0 = 1 and
    p_{k+1} = (x - a_k) p_k - c_k p_{k-1}, on Python ints."""
    prev, cur = [], [1]  # p_{k-1}, p_k, leading coefficient first
    for a, c in zip(alpha, [0] + coupling):
        nxt = [(x - a * y - c * z) % p for x, y, z in zip(cur + [0], [0] + cur, [0, 0] + prev)]
        prev, cur = cur, nxt
    return cur


def _coeff_bound(A: np.ndarray) -> int:
    """CRT range 2*min(H, F) + 1 for the char poly coefficients of the
    integer symmetric A: H and F each bound every |c_k|.

    H, Hadamard on principal minors: a k x k minor on rows S is at most
    prod_{i in S} ||row_i||, so |c_k| <= e_k(r) <= prod (1 + r_i) = H with
    r_i = ceil(||row_i||_2).  F, spectral: c_k = +-e_k(lambda) for the
    eigenvalues lambda of A, so by Maclaurin's inequality and the power
    means |c_k| <= e_k(|lambda|) <= C(n,k) (sum |lambda| / n)^k
    <= C(n,k) (S / n)^(k/2), S = sum a_ij^2 = sum lambda^2, and
    F = max_k C(n,k) ceil((S / n)^(k/2)).  Both grow with every |a_ij|, so
    an entrywise larger matrix bounds a whole stack.
    """
    n = A.shape[0]
    hadamard, total = 1, 0
    for row in A.tolist():
        ss = sum(map(mul, row, row))  # exact: Python ints, never int64
        hadamard *= 1 + (isqrt(ss - 1) + 1 if ss else 0)
        total += ss
    spectral = 0
    for k in range(n + 1):  # ceil((S/n)^(k/2)) = ceil(sqrt(ceil(S^k / n^k)))
        x = -(-total**k // n**k)
        spectral = max(spectral, comb(n, k) * (isqrt(x - 1) + 1 if x else 0))
    return 2 * min(hadamard, spectral) + 1


def _integer_charpoly(A: np.ndarray, T: Optional[tuple[list[int], list[int]]]) -> list[int]:
    """Exact char poly of an integer symmetric matrix via CRT over primes;
    T is the first prime's Lanczos pass of A, None if it broke down.

    A prime whose pass breaks down is skipped, the first one included: the
    pass over Q never breaks down, so only finitely many p can.  Garner's
    mixed-radix combination: one inverse of the running modulus per prime
    lifts all n + 1 coefficients at once."""
    n = A.shape[0]
    bound, modulus, i = _coeff_bound(A), 1, 0
    coeffs = [0] * (n + 1)
    while modulus < bound:
        p = _crt_prime(i)
        if i:
            T = _lanczos_mod(A, p)
        i += 1
        if T is None:
            continue
        residues = _charpoly_tridiagonal(*T, p)
        inv = pow(modulus, -1, p)
        coeffs = [c + modulus * ((r - c) * inv % p) for c, r in zip(coeffs, residues)]
        modulus *= p
    # c_0 .. c_n, poly = sum c_k x^(n-k), c_0 = 1
    return [_balanced(c, modulus) for c in coeffs]


def char_poly(M: SymmetricMatrix) -> CharPoly:
    """Exact monic characteristic polynomial det(xI - M)."""
    # char poly q of num = den*M, in y
    c = _integer_charpoly(M.num, _lanczos_mod(M.num, _crt_prime(0)))
    # p(x) = q(den*x)/den^n  =>  coefficient of x^(n-k) is c_k / den^k
    return CharPoly(tuple(Fraction(c[k], M.den**k) for k in reversed(range(M.n + 1))))


def _faddeev_stack(A: np.ndarray):
    """One Faddeev-LeVerrier pass in int64 over a (S, n, n) stack of integer
    matrices, with no modulus: yields (B_{k-1}, c_k) for k = 1..n, where
    c_k are the char poly coefficients, det(xI - A) = sum_k c_k x^(n-k), and
    B_k those of adj(xI - A) = sum_k B_k x^(n-1-k).  B_0 = I,
    M_k = A B_{k-1}, c_k = -tr(M_k) / k, exact as c_k is an integer, and
    B_k = M_k + c_k I.  The callers check their int64 bounds first."""
    n = A.shape[1]
    d = np.arange(n)
    Bk = np.broadcast_to(np.eye(n, dtype=np.int64), A.shape)
    for k in range(1, n + 1):
        M = A @ Bk if k > 1 else A.copy()
        c = -M[:, d, d].sum(axis=1) // k
        yield Bk, c
        M[:, d, d] += c[:, None]
        Bk = M


def _max_abs(A: np.ndarray) -> int:
    """max |a| over A, 0 when A is empty, read by min and max alone: np.abs
    would wrap -2^63."""
    return max(-int(A.min(initial=0)), int(A.max(initial=0)))


def char_polys_stack(A: np.ndarray) -> np.ndarray:
    """Exact char polys of a (S, n, n) int64 stack of integer symmetric
    matrices, as rows [c_0..c_n] like _integer_charpoly, by one
    Faddeev-LeVerrier pass (_faddeev_stack).

    With m = max |a_ij| over the stack and r = n m, every |lambda| <= r and
    |c_j| <= C(n,j) r^j.  So B_k = sum_{j<=k} c_j A^(k-j) has entries of at
    most 2^n r^k, each partial sum of the product A B_k at most 2^n r^(k+1),
    and a trace at most n 2^n r^n.  Raises PreconditionError, before any
    product, when that bound reaches 2^63; for graphs with n = 7 it is
    7.4e8.
    """
    n = A.shape[1]
    m = _max_abs(A)
    if n * 2**n * (n * m) ** n >= 1 << 63:
        raise PreconditionError(f"n = {n}, max |a_ij| = {m} may overflow int64 char polys")
    rows = np.ones((A.shape[0], n + 1), dtype=np.int64)
    for k, (_, c) in enumerate(_faddeev_stack(A), 1):
        rows[:, k] = c
    return rows


def char_polys_bordered(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Exact char polys of every bordered matrix [[0, x^T], [x, A_s]] of a
    (S, m, m) int64 stack of integer symmetric A_s and a (K, m) int64 table
    of borders x, as (S * K, m + 2) rows [c_0..c_{m+1}], row s K + j for
    (A_s, X[j]).

    det(xI - [[0, b^T], [b, A']]) = x p_{A'}(x) - b^T adj(xI - A') b, so
    one Faddeev-LeVerrier pass over the stack serves every border: the
    coefficient of x^(m-1-k) in the quadratic form is q_k = b^T B_k b, for
    all borders one int64 matmul of B_k against the outer products b b^T,
    subtracted from x p_{A'} at column k + 2.  For graphs, with
    A = graph_stack(m, range(start, stop)) and X[j] the bits of j < 2^m,
    bit i at x_i, row (s - start) 2^m + j is the char poly of
    graph_from_index(m + 1, s 2^m + j): the rows are those of
    char_polys_stack(graph_stack(m + 1, range(start 2^m, stop 2^m))).

    With r = max(1, m max |a_ij|) and b = max |x_i|, every B_k has entries of
    at most 2^m r^(m-1), as in char_polys_stack, so each partial sum of a
    q_k is at most m^2 b^2 2^m r^(m-1) and of a trace at most m 2^m r^m.
    Raises PreconditionError, before any product, when their sum, which
    also bounds every coefficient, reaches 2^63; for graphs with m = 7 it
    is 1.5e9.
    """
    S, m, _ = A.shape
    a, b = _max_abs(A), _max_abs(X)
    r = max(1, m * a)
    if 2**m * r ** (m - 1) * (m * r + m * m * b * b) >= 1 << 63:
        raise PreconditionError(
            f"m = {m}, max |a_ij| = {a}, max |x_i| = {b} may overflow int64 char polys"
        )
    outer = (X[:, :, None] * X[:, None, :]).reshape(len(X), m * m).T
    rows = np.zeros((S, len(X), m + 2), dtype=np.int64)
    rows[:, :, 0] = 1
    for k, (Bk, c) in enumerate(_faddeev_stack(A), 1):
        rows[:, :, k] += c[:, None]
        rows[:, :, k + 1] -= Bk.reshape(S, m * m) @ outer  # q_{k-1}
    return rows.reshape(-1, m + 2)


def squarefree_screen(rows: np.ndarray, q: int) -> np.ndarray:
    """Squarefreeness of a (D, n + 1) int64 stack of integer polynomials p
    of degree n, rows [c_0..c_n] leading coefficient first as
    char_polys_stack gives them, proved where no gcd is needed: a (D,) mask
    of the rows whose fraction-free remainder sequence of p and p' mod the
    prime q, run on all rows in lockstep, is normal down to a nonzero
    constant.  Per degree it takes two eliminations, t = b_0 a - a_0 x b
    and then b_0 t - t_0 b, with b_0 = lc(b) a unit mod q, so gcd(a, b) mod
    q is kept, and the row stays proved while every new leading coefficient
    is nonzero mod q.  Then the gcd of p and p' is constant mod q, and so
    over Q, as q divides neither lc(p) nor lc(p') = n lc(p): the same
    one-sided certificate as repeated_factor's screen.  An unproved row may
    still be squarefree.

    Every entry is reduced into [0, q) before any product, the degree
    vector of p' included, so each product is below q^2 and each difference
    of two below 2 q^2.  Raises PreconditionError, before any product, when
    that reaches 2^63 or when q <= n, where q could divide lc(p').
    """
    n = rows.shape[1] - 1
    if 2 * q * q >= 1 << 63 or q <= n:
        raise PreconditionError(f"screen mod q = {q} needs n < q and 2 q^2 < 2^63 at n = {n}")
    a = rows % q
    b = a[:, :-1] * np.arange(n, 0, -1) % q  # p'
    proved = a[:, 0] != 0
    while b.shape[1] > 1:
        b0 = b[:, :1]
        t = b0 * a[:, 1:]  # b_0 a - a_0 x b, its leading term dropped
        t[:, :-1] -= a[:, :1] * b[:, 1:]
        t %= q
        a, b = b, (b0 * t[:, 1:] - t[:, :1] * b[:, 1:]) % q  # b_0 t - t_0 b
        proved &= b[:, 0] != 0
    return proved


def double_integer_root(rows: np.ndarray, r: int) -> np.ndarray:
    """(D,) mask of the rows of a (D, n + 1) int64 stack of integer
    polynomials p, rows [c_0..c_n] leading coefficient first, with
    p(lam) = p'(lam) = 0 at some integer |lam| <= r: (x - lam)^2 divides p,
    so p is not squarefree.  An unmarked row may still have a repeated
    root.

    p and p' are evaluated on the whole (D, 2r + 1) grid of rows and lam by
    two int64 matmuls against the table lam^j, j <= n.  With m = max |c_k|,
    each partial sum of a p(lam) is at most m sum_{j<=n} r^j, each of a
    p'(lam) at most n times that, and each table entry at most r^n.
    Raises PreconditionError, before any product, when
    n max(m, 1) sum_{j<=n} r^j reaches 2^63; for the graph char polys with
    n = 8, where m = 224, and r = 7 it is 1.2e10.
    """
    n = rows.shape[1] - 1
    m = _max_abs(rows)
    if n * max(m, 1) * sum(r**j for j in range(n + 1)) >= 1 << 63:
        raise PreconditionError(f"n = {n}, max |c_k| = {m}, r = {r} may overflow int64 evaluations")
    V = np.arange(-r, r + 1)[:, None] ** np.arange(n, -1, -1)  # row lam: lam^n .. 1
    p = rows @ V.T
    dp = (rows[:, :-1] * np.arange(n, 0, -1)) @ V[:, 1:].T
    return ((p == 0) & (dp == 0)).any(axis=1)


def repeated_factor(ip: list[int]) -> Optional[list[int]]:
    """None when the monic integer polynomial ip (constant term first) of
    positive degree is squarefree, else the monic gcd(ip, ip') of positive
    degree: Brown's modular gcd, polys.gcd_int, over the CRT primes.

    Mostly the first prime q = _crt_prime(0) settles it: a constant gcd mod
    q proves ip squarefree, and otherwise that gcd, lifted to balanced
    residues, divides ip and ip' exactly.  Further primes run only after an
    unlucky q, or for a factor with coefficients past q / 2.
    """
    G = polys.gcd_int(ip, polys.derivative(ip), map(_crt_prime, count()))
    return G if polys.degree(G) else None


def simplicity_exact(M: SymmetricMatrix) -> SimplicityVerdict:
    """SimpleExact iff char_poly(M) is squarefree; certificate otherwise.

    M and num = den*M share their eigenvectors, so a cyclic v of num proves
    most simple M with one Lanczos pass.  Otherwise det(xI - M) =
    ip(den*x)/den^n for the integer char poly ip of num, whose first residue
    that pass gives, so M is simple exactly when ip is squarefree.
    """
    T = _lanczos_mod(M.num, _crt_prime(0))
    if T is not None and all(T[1]):
        return _SIMPLE_EXACT
    g = repeated_factor(_integer_charpoly(M.num, T)[::-1])
    if g is None:
        return _SIMPLE_EXACT
    # The monic gcd of det(xI - M) and its derivative is g(den*x) / den^d
    # for the monic g of degree d: coefficient i is g_i den^i / den^d.
    d = polys.degree(g)
    cert = tuple(Fraction(c * M.den**i, M.den**d) for i, c in enumerate(g))
    return SimplicityVerdict(tag="NotSimpleExact", certificate=cert)


def repeated_by_twins(M: SymmetricMatrix) -> bool:
    """True when the rows of num, or those of num + den*I, prove that M
    repeats the eigenvalue 0, or -1: False says nothing.

    For B either matrix, e_i is in ker B for each zero row i of B and, B
    being symmetric, e_i - e_j for rows i and j equal.  A class of s equal
    nonzero rows gives s - 1 independent ones, and the classes and the z
    zero rows have disjoint supports.  So z + sum (s - 1) >= 2 proves
    dim ker B >= 2: 0 repeats as an eigenvalue of num, lam = 0 of
    M = num / den, or of num + den*I, lam = -1.  In a graph these are the
    isolated vertices and the non-adjacent twins, or the adjacent twins.

    O(n^2): one int64 matvec h = num v, v = _start_vector(n), hashes the
    rows of num, and h + den v those of num + den*I.  Equal rows have equal
    hashes, so only the rows that share a hash are compared, exactly, as
    tuples of Python ints.  A zero row hashes to 0 and is confirmed exactly
    too.  Each |h_i + den v_i| is at most (n max |a_ij| + den) 65536;
    returns False, before any product, when that may reach 2^63, or when
    num holds integer objects."""
    num, den, n = M.num, M.den, M.n
    if num.dtype == object or (n * _max_abs(num) + den) * 65537 >= 1 << 63:
        return False

    def rows(idx, shift):  # rows idx of num + shift*I
        R = num[idx]
        R[np.arange(len(idx)), idx] += shift
        return R

    v = _start_vector(n)
    h = num @ v
    for shift, key in ((0, h), (den, h + den * v)):
        order = key.argsort()
        s = key[order]
        pair = s[1:] == s[:-1]
        if not pair.any():  # distinct rows, of which at most one is zero
            continue
        pair = np.flatnonzero(pair)
        idx = sorted({*order[pair].tolist(), *order[pair + 1].tolist()})
        twins = len(idx) - len(set(map(tuple, rows(idx, shift).tolist())))
        zero = rows(np.flatnonzero(key == 0), shift)
        if twins + (~zero.any(axis=1)).any() >= 2:
            return True
    return False


def eigen_decompose(M: SymmetricMatrix, tol: float = 1e-12) -> NumericSpectrum:
    """Full eigendecomposition of a float copy by LAPACK's symmetric solver.

    Raises ConvergenceError when the residual max|MV - V diag(lam)| exceeds
    tol * ||M||_F.
    """
    if not tol > 0:
        raise PreconditionError("tol must be positive")
    A = M.to_float_array()
    lam, V = np.linalg.eigh(A)
    residual = float(np.max(np.abs(A @ V - V * lam[None, :])))
    if residual > tol * np.linalg.norm(A):
        raise ConvergenceError(
            f"eigh residual {residual:g} exceeds tol * ||M||_F", achieved=residual
        )
    return NumericSpectrum(lam, V, residual)


def simplicity_numeric(M: SymmetricMatrix, gap_tol: float = 1e-8) -> SimplicityVerdict:
    """Numeric screen: SimpleNumeric iff min_gap >= gap_tol * max(1, diameter).

    min_gap is the smallest gap between consecutive eigenvalues (inf when
    n = 1) and diameter the spread of the spectrum, so gap_tol is relative
    to the diameter with an absolute floor of 1 for a flat spectrum.  The
    eigensolver runs at eigen_decompose's default residual tolerance.
    """
    if not gap_tol > 0:
        raise PreconditionError("gap_tol must be positive")
    lam = eigen_decompose(M).eigenvalues
    if M.n > 1:
        diameter = float(lam[-1] - lam[0])
        min_gap = float(np.diff(lam).min())
    else:
        diameter, min_gap = 0.0, float("inf")
    simple = min_gap >= gap_tol * max(1.0, diameter)
    return SimplicityVerdict(
        tag="SimpleNumeric" if simple else "NotSimpleNumeric", min_gap=min_gap
    )
