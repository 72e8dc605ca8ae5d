"""Correctness checks written independently of the package.

Each check returns a list of mismatch descriptions, empty when the output
is right.  None of them calls the package's algorithms: determinants,
polynomial division, squarefree tests, small-ball masses and GAP members
are recomputed here from their definitions.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import lcm

import numpy as np

# Exhaustive census counts (graphs, simple graphs), first verified run.
CENSUS_SNAPSHOT = {
    2: (2, 1),
    3: (8, 6),
    4: (64, 30),
    5: (1024, 750),
    6: (32768, 20340),
}
# Word-sized primes for the squarefree test; far from the package's
# 2^27 prime range.
_CHECK_PRIMES = (1_000_000_007, 998_244_353, 2_147_483_647)


def census_counts(n: int, total: int, simple: int) -> list[str]:
    if (total, simple) != CENSUS_SNAPSHOT[n]:
        return [f"census n={n}: got {simple}/{total}, snapshot "
                f"{CENSUS_SNAPSHOT[n][1]}/{CENSUS_SNAPSHOT[n][0]}"]
    return []


def det_x_minus(rows, x: int) -> Fraction:
    """det(xI - M) by fraction-free Bareiss elimination on integers."""
    n = len(rows)
    den = lcm(*(Fraction(v).denominator for row in rows for v in row))
    a = [[(x * den if i == j else 0) - int(Fraction(rows[i][j]) * den)
          for j in range(n)] for i in range(n)]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k]), None)
            if swap is None:
                return Fraction(0)
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return Fraction(sign * a[n - 1][n - 1], den**n)


def _eval(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def char_poly_at_random_x(rows, coeffs, rng: random.Random) -> list[str]:
    """The char poly (constant term first) agrees with det(xI - M) at a
    random integer x; a wrong polynomial passes with negligible chance."""
    x = rng.randint(-10**6, 10**6)
    if _eval(coeffs, x) != det_x_minus(rows, x):
        return [f"char poly disagrees with det(xI - M) at x={x}"]
    return []


def _rem(p, d):
    """Remainder of p by d over Q, coefficients constant term first."""
    p = [Fraction(c) for c in p]
    while len(p) >= len(d) and any(p):
        f = p[-1] / d[-1]
        shift = len(p) - len(d)
        for i, c in enumerate(d):
            p[shift + i] -= f * c
        p.pop()
    while p and p[-1] == 0:
        p.pop()
    return p


def _derivative(p):
    return [i * c for i, c in enumerate(p)][1:]


def certificate_divides(coeffs, cert) -> list[str]:
    """A non-simple certificate is a factor of degree >= 1 that divides
    both p and p' exactly, so p has a repeated root."""
    if cert is None or len(cert) < 2 or cert[-1] == 0:
        return ["non-simple verdict without a certificate of degree >= 1"]
    if _rem(coeffs, cert) or _rem(_derivative(coeffs), cert):
        return ["certificate does not divide p and p'"]
    return []


def _gcd_degree_mod(a, b, q: int) -> int:
    def norm(p):
        p = [c % q for c in p]
        while p and p[-1] == 0:
            p.pop()
        return p

    a, b = norm(a), norm(b)
    while b:
        inv = pow(b[-1], -1, q)
        while len(a) >= len(b):
            f = a[-1] * inv % q
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - f * c) % q
            a = norm(a)
        a, b = b, a
    return len(a) - 1


def squarefree(coeffs) -> bool:
    """gcd(p, p') is constant mod some prime not dividing the leading
    coefficients, which proves it constant over Q."""
    den = lcm(*(Fraction(c).denominator for c in coeffs))
    p = [int(Fraction(c) * den) for c in coeffs]
    dp = _derivative(p)
    for q in _CHECK_PRIMES:
        if p[-1] % q and dp[-1] % q and _gcd_degree_mod(p, dp, q) == 0:
            return True
    return False


def verdict(coeffs, is_simple: bool, cert) -> list[str]:
    """Both sides of an exact verdict, checked without the package."""
    if is_simple:
        return [] if squarefree(coeffs) else ["simple verdict on a repeated root"]
    return certificate_divides(coeffs, cert)


def small_ball_brute(values, atoms, probs) -> Fraction:
    """max_x P(sum xi_i v_i = x) by enumerating every atom assignment."""
    scale = lcm(*(Fraction(v).denominator for v in values)) * lcm(
        *(Fraction(a).denominator for a in atoms))
    pden = lcm(*(Fraction(p).denominator for p in probs))
    table = [[int(Fraction(v) * a * scale) for a in atoms] for v in values]
    weight = [int(p * pden) for p in probs]
    masses: dict[int, int] = {}
    for choice in product(range(len(atoms)), repeat=len(values)):
        s, w = 0, 1
        for row, j in zip(table, choice):
            s += row[j]
            w *= weight[j]
        masses[s] = masses.get(s, 0) + w
    return Fraction(max(masses.values()), pden ** len(values))


def small_ball(values, atoms, probs, p) -> list[str]:
    want = small_ball_brute(values, atoms, probs)
    return [] if p == want else [f"small-ball p={p}, brute force {want}"]


def windowed_exhaustive(values, atoms, probs, delta: float, p: float) -> list[str]:
    """Largest mass in a closed window of width delta over all sums."""
    sums = np.zeros(1)
    mass = np.ones(1)
    for v in values:
        sums = np.add.outer(sums, np.asarray(atoms, float) * v).ravel()
        mass = np.multiply.outer(mass, np.asarray(probs, float)).ravel()
    order = np.argsort(sums)
    sums, cum = sums[order], np.concatenate([[0.0], np.cumsum(mass[order])])
    lo = np.searchsorted(sums, sums - delta, side="left")
    want = float(np.max(cum[1:] - cum[lo]))
    return [] if abs(p - want) <= 1e-9 else [f"windowed p={p}, recomputed {want}"]


def structure_report(values, report, eps: float, verified: bool, members) -> list[str]:
    """The report's W lies in its GAP, W' is a small subset of W, the
    package's member set of the GAP is right, and the package's own
    verifier accepted the report."""
    out = [] if verified else ["verify_report rejected the report"]
    n = len(values)
    w, wp = report.w_indices, report.wprime_indices
    if len(set(w)) != len(w) or not all(0 <= i < n for i in w):
        return out + ["W indices invalid"]
    if not set(wp) <= set(w) or len(wp) > eps * n:
        out.append("W' is not a small subset of W")
    g = report.gap
    own = {
        sum((Fraction(m) * gen for m, gen in zip(box, g.generators)), Fraction(0))
        for box in product(*(range(-int(d), int(d) + 1) for d in g.dims))
    }
    if own != set(members):
        out.append("member_set differs from the GAP's members")
    if not all(values[i] in own for i in w):
        out.append("a W coordinate lies outside the report's GAP")
    return out


def reconcile(disagreements: list[float], trials: int) -> list[str]:
    """Exact and numeric routes agree on all but 0.1% of trials, and every
    disagreement has a numeric gap below 1e-6 that explains it."""
    out = []
    if len(disagreements) > trials * 0.001:
        out.append(f"{len(disagreements)} disagreements in {trials} trials")
    out += [f"disagreement with min_gap {g:g}" for g in disagreements if not g < 1e-6]
    return out
