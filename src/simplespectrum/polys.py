"""Integer polynomial utilities: primitive-PRS gcd and gcd mod p.

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

