"""Integer polynomial utilities: the modular gcd over Z and the gcd mod p.

Polynomials are lists of Python ints, constant term first.  gcd_int is
Brown's modular gcd for a monic first argument: monic gcds mod a sequence
of primes, combined by Garner's CRT and lifted to balanced residues, until
the lift divides both arguments exactly.  _balanced is the one balanced
residue, which the CRT and the Lanczos pass in spectrum share too.  The
modular squarefree screens, squarefree_screen and repeated_factor, live in
spectrum.
"""

from __future__ import annotations

from .errors import PreconditionError


def normalize(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def degree(p: list[int]) -> int:
    return len(p) - 1


def derivative(p: list[int]) -> list[int]:
    return normalize([i * c for i, c in enumerate(p)][1:])


def _balanced(X, p: int):
    """X mod p in [-(p // 2), p // 2], as (X + p//2) % p - p//2 but by floor
    division, which numpy runs several times faster than % on int64.  Exact
    on int64 while |X| + p < 2^63 and on Python ints of any size; for odd p,
    as every modulus here is, it is the centred residue."""
    return X - (X + p // 2) // p * p


def pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Remainder of a by the monic b, exact over the coefficients of a and
    b, Python ints or Fractions.  Raises PreconditionError when b is not
    monic."""
    if not b or b[-1] != 1:
        raise PreconditionError(f"pseudo_rem divides by a monic b, not {b}")
    a = list(a)
    db = degree(b)
    for k in range(degree(a) - db, -1, -1):
        coef = a[db + k]
        for i in range(db):
            a[i + k] -= coef * b[i]
        a[db + k] = 0  # coef - coef * 1
    return normalize(a)


def gcd_int(a: list[int], b: list[int], primes) -> list[int]:
    """The monic gcd over Z of the monic a and b, by Brown's modular gcd
    over the primes of the iterable primes, in turn (Brown 1971).

    G = gcd(a, b) over Q is monic in Z[x], as a is, and divides a and b in
    Z[x]; so G mod p divides the monic gcd g mod p for every prime p, even
    one dividing lc(b), and deg g >= deg G.  A g of degree 0 proves G = 1.
    Otherwise the residues of the lowest degree seen so far are combined by
    Garner's CRT (a lower degree restarts it, a higher one skips the
    prime), and the balanced lift H, with its leading 1 kept rather than
    lifted, which mod 2 would give -1, is G when it divides a and b
    exactly: then H divides G, and its degree is no smaller.  Only finitely
    many primes give too high a degree, so the loop ends once the product
    of the combined primes passes twice the largest |coefficient| of G.
    Raises PreconditionError, before any prime, when a is not monic.
    """
    if not a or a[-1] != 1:
        raise PreconditionError(f"gcd_int needs a monic a, not {a}")
    G = None
    for p in primes:
        g = poly_gcd_mod(a, b, p)
        if not degree(g):
            return [1]
        if G is None or degree(g) < degree(G):
            G, modulus = g, p
        elif degree(g) == degree(G):
            inv = pow(modulus, -1, p)
            G = [c + modulus * ((r - c) * inv % p) for c, r in zip(G, g)]
            modulus *= p
        else:
            continue
        H = [_balanced(c, modulus) for c in G[:-1]] + [1]
        if not pseudo_rem(a, H) and not pseudo_rem(b, H):
            return H


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
