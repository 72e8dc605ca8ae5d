"""Integer polynomial utilities: primitive-PRS gcd, gcd mod p and primes.

Polynomials are lists of Python ints, constant term first.  The primitive
pseudo-remainder sequence keeps coefficient growth polynomial, which is all
the desk scale here needs.  The modular squarefree screens,
squarefree_screen and repeated_factor, live in spectrum, with _balanced,
the one balanced residue, which the CRT and the lifted gcd mod p share.
"""

from __future__ import annotations

from math import gcd


def normalize(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def degree(p: list[int]) -> int:
    return len(p) - 1


def derivative(p: list[int]) -> list[int]:
    return normalize([i * c for i, c in enumerate(p)][1:])


def content(p: list[int]) -> int:
    g = 0
    for c in p:
        g = gcd(g, c)
    return g or 1


def primitive(p: list[int]) -> list[int]:
    p = normalize(list(p))
    if not p:
        return p
    g = content(p)
    if p[-1] < 0:
        g = -g
    return [c // g for c in p]


def pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of a by b: rem(lc(b)^(da-db+1) * a, b)."""
    a = list(a)
    da, db = degree(a), degree(b)
    lb = b[-1]
    for k in range(da - db, -1, -1):
        coef = a[db + k]
        if lb != 1:  # a monic divisor leaves a as it is
            for i in range(len(a)):
                a[i] *= lb
        for i in range(db):
            a[i + k] -= coef * b[i]
        a[db + k] = 0  # lb * coef - coef * lb
    return normalize(a)


def gcd_int(a: list[int], b: list[int]) -> list[int]:
    """Primitive-PRS polynomial gcd over Z (result primitive, lc > 0)."""
    a, b = primitive(a), primitive(b)
    while b:  # when deg a < deg b, the first pseudo-remainder is a: a swap
        r = primitive(pseudo_rem(a, b))
        a, b = b, r
    return primitive(a)


def poly_gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd of a and b in GF(p)[x]."""
    a = normalize([c % p for c in a])
    b = normalize([c % p for c in b])
    while b:
        inv = pow(b[-1], -1, p)
        db = degree(b)
        r = list(a)
        for k in range(degree(r) - db, -1, -1):
            coef = r[db + k] * inv % p
            if coef:
                for i in range(db + 1):
                    r[i + k] = (r[i + k] - coef * b[i]) % p
        a, b = b, normalize(r)
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _is_probable_prime(n: int) -> bool:
    # Deterministic Miller-Rabin for n < 3.3e24 with this witness set.
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_from(start: int):
    """Yield primes >= start, ascending."""
    n = max(start, 2)
    if n % 2 == 0 and n > 2:
        n += 1
    while True:
        if _is_probable_prime(n):
            yield n
        n += 2 if n > 2 else 1
