"""Spectral simplicity, decided exactly and numerically.

Exact route: the monic characteristic polynomial det(xI - M) is computed
by the Faddeev-LeVerrier trace recursion, run modulo several word-sized
primes with numpy int64 matrix products and reconstructed by CRT (the
number of primes is chosen from an a-priori coefficient bound, so the
result is exact, not probabilistic).  Simplicity is then squarefreeness:
gcd(p, p') constant.  For a real symmetric matrix algebraic multiplicity
equals geometric multiplicity, so squarefree <=> simple spectrum.

Numeric route: LAPACK's symmetric eigensolver (np.linalg.eigh), followed
by gap clustering.  Where the two disagree the exact verdict is ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import comb
from typing import Optional

import numpy as np

from . import polys
from .errors import ConvergenceError, PreconditionError
from .matrices import SymmetricMatrix
from .rationals import format_rational, parse_rational

# Primes start just below 2^27 so that balanced-representative int64
# matmuls cannot overflow for n up to ~2000: n * (p/2)^2 < 2^63.
_PRIME_FLOOR = (1 << 27) - 100

# Primes >= _PRIME_FLOOR found so far in this process, ascending, so that
# Miller-Rabin runs once per prime.  Growth rebinds a whole new tuple, so
# concurrent callers cannot interleave appends.
_PRIMES: tuple[int, ...] = ()


def _crt_prime(i: int) -> int:
    """The i-th prime >= _PRIME_FLOOR, counting from 0."""
    global _PRIMES
    primes = _PRIMES
    if i >= len(primes):
        start = primes[-1] + 1 if primes else _PRIME_FLOOR
        primes += tuple(islice(polys.primes_from(start), i + 1 - len(primes)))
        _PRIMES = primes
    return primes[i]


@dataclass(frozen=True)
class CharPoly:
    """Monic characteristic polynomial, coefficients constant term first."""

    coeffs: tuple[Fraction, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + (float(c) if isinstance(x, float) else c)
        return acc

    def to_json(self) -> list[str]:
        return [format_rational(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, obj) -> "CharPoly":
        return cls(tuple(parse_rational(c) for c in obj))


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
    tag: str  # SimpleExact | NotSimpleExact | SimpleNumeric | NotSimpleNumeric | Ambiguous
    min_gap: Optional[float] = None
    certificate: Optional[tuple[Fraction, ...]] = None  # repeated-root factor

    @property
    def is_simple(self) -> bool:
        return self.tag in ("SimpleExact", "SimpleNumeric")


_SIMPLE_EXACT = SimplicityVerdict(tag="SimpleExact")


def _charpoly_mod(A: np.ndarray, n: int, p: int) -> list[int]:
    """Faddeev-LeVerrier mod p; returns [c_0..c_n] with poly = sum c_k x^(n-k).
    A is reduced mod p; balanced int64 matmuls reach n*((p-1)/2)^2 + p."""
    half = p // 2
    if n * half * half + p >= 1 << 63:
        raise PreconditionError(f"n = {n} overflows int64 products mod {p}")

    def balance(B):
        return (B + half) % p - half

    Ab = balance(A)
    M = np.zeros((n, n), dtype=np.int64)
    eye = np.eye(n, dtype=np.int64)
    c = [1]
    for k in range(1, n + 1):
        M = (Ab @ balance(M) + c[-1] * eye) % p
        t = int(np.trace((Ab @ balance(M)) % p)) % p
        c.append(-t * pow(k, -1, p) % p)
    return c


def _integer_charpoly(A: np.ndarray) -> list[int]:
    """Exact char poly of an integer symmetric matrix via CRT over primes."""
    n = A.shape[0]
    a = max(-int(A.min()), int(A.max()))
    # |c_k| <= C(n,k) * (n*a)^k; double it for the symmetric CRT range.
    bound = 2 * max(comb(n, k) * (n * a) ** k for k in range(n + 1)) + 1
    residues: list[list[int]] = []
    used: list[int] = []
    modulus = 1
    while modulus < bound:
        p = _crt_prime(len(used))
        residues.append(_charpoly_mod(np.asarray(A % p, dtype=np.int64), n, p))
        used.append(p)
        modulus *= p
    coeffs = []
    for k in range(n + 1):
        r, m = 0, 1
        for res, p in zip(residues, used):
            r, m = polys.crt_pair(r, m, res[k], p)
        coeffs.append(polys.symmetric_residue(r, m))
    return coeffs  # c_0 .. c_n, poly = sum c_k x^(n-k), c_0 = 1


def char_poly(M: SymmetricMatrix) -> CharPoly:
    """Exact monic characteristic polynomial det(xI - M)."""
    c = _integer_charpoly(M.num)  # char poly q of num = den*M, in y
    # p(x) = q(den*x)/den^n  =>  coefficient of x^(n-k) is c_k / den^k
    return CharPoly(tuple(Fraction(c[k], M.den**k) for k in reversed(range(M.n + 1))))


def simplicity_exact(M: SymmetricMatrix) -> SimplicityVerdict:
    """SimpleExact iff char_poly(M) is squarefree; certificate otherwise.

    det(xI - M) = ip(den*x)/den^n for the integer char poly ip of num, so M
    is simple exactly when ip is squarefree, and the test runs on integers.
    """
    ip = _integer_charpoly(M.num)[::-1]
    dp = polys.derivative(ip)
    # Cheap one-sided screen: a constant gcd mod q proves a constant gcd
    # over Q when q divides neither leading coefficient.
    q = _crt_prime(0)
    if ip[-1] % q and dp[-1] % q:
        if polys.degree(polys.poly_gcd_mod(ip, dp, q)) == 0:
            return _SIMPLE_EXACT
    g = polys.gcd_int(ip, dp)
    d = polys.degree(g)
    if d == 0:
        return _SIMPLE_EXACT
    # The monic gcd of det(xI - M) and its derivative is g(den*x) rescaled
    # to leading coefficient 1: coefficient i is g_i den^i / (g_d den^d).
    scale = g[-1] * M.den**d
    cert = tuple(Fraction(c * M.den**i, scale) for i, c in enumerate(g))
    return SimplicityVerdict(tag="NotSimpleExact", certificate=cert)


def eigen_decompose(M: SymmetricMatrix, tol: float = 1e-12) -> NumericSpectrum:
    """Full eigendecomposition of a float copy by LAPACK's symmetric solver.

    Raises ConvergenceError when the residual max|MV - V diag(lam)| exceeds
    tol * ||M||_F.
    """
    if tol <= 0:
        raise PreconditionError("tol must be positive")
    A = M.to_float_array()
    lam, V = np.linalg.eigh(A)
    residual = float(np.max(np.abs(A @ V - V * lam[None, :])))
    if residual > tol * np.linalg.norm(A):
        raise ConvergenceError(
            f"eigh residual {residual:g} exceeds tol * ||M||_F", achieved=residual
        )
    return NumericSpectrum(lam, V, residual)


def multiplicity_clusters(
    s: NumericSpectrum, gap_tol: float
) -> tuple[list[list[int]], float]:
    """Partition sorted eigenvalues into runs with consecutive gaps < gap_tol.

    Returns (clusters as index lists, minimum consecutive gap; inf if n <= 1).
    """
    if gap_tol <= 0:
        raise PreconditionError("gap_tol must be positive")
    lam = s.eigenvalues
    clusters = [[0]]
    min_gap = float("inf")
    for i in range(1, len(lam)):
        gap = float(lam[i] - lam[i - 1])
        min_gap = min(min_gap, gap)
        if gap < gap_tol:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters, min_gap


def simplicity_numeric(
    M: SymmetricMatrix, gap_tol: float = 1e-8, tol: float = 1e-12
) -> SimplicityVerdict:
    """Numeric screen: SimpleNumeric iff all clusters are singletons.

    gap_tol is relative to the spectral diameter (absolute floor 1 for a
    flat spectrum).
    """
    s = eigen_decompose(M, tol)
    diameter = float(s.eigenvalues[-1] - s.eigenvalues[0]) if M.n > 1 else 0.0
    abs_tol = gap_tol * max(1.0, diameter)
    clusters, min_gap = multiplicity_clusters(s, abs_tol)
    simple = all(len(c) == 1 for c in clusters)
    return SimplicityVerdict(
        tag="SimpleNumeric" if simple else "NotSimpleNumeric", min_gap=min_gap
    )
