"""Symmetric generalized arithmetic progressions (GAPs).

A GAP is the image of the integer box {|m_i| <= floor(M_i)} under
m -> sum m_i g_i.  Rank is the number of generators, volume the box
cardinality, proper means the map is injective on the box: one member
per box point.  Membership and properness are both decided from one
finite enumeration, member_set, under an explicit cap; the full-rank
reduction iteratively substitutes away generators whose lattice
directions never land inside a reference GAP.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import floor, prod

from .errors import CapExceededError
from .rationals import format_rational, parse_rational

DEFAULT_ENUM_CAP = 10**6


@dataclass(frozen=True, slots=True)
class Gap:
    """Symmetric GAP: rational generators g_i and nonnegative dims M_i."""

    generators: tuple[Fraction, ...]
    dims: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.generators) != len(self.dims):
            raise ValueError("generators and dims must have equal length")
        if any(m < 0 for m in self.dims):
            raise ValueError("dims must be nonnegative")

    @property
    def rank(self) -> int:
        return len(self.generators)

    @property
    def bounds(self) -> tuple[int, ...]:
        """The integer box half-widths N_i = floor(M_i)."""
        return tuple(floor(m) for m in self.dims)

    def to_json(self) -> dict:
        return {
            "generators": [format_rational(g) for g in self.generators],
            "dims": [format_rational(m) for m in self.dims],
        }

    @classmethod
    def from_json(cls, obj) -> "Gap":
        return cls(
            tuple(parse_rational(g) for g in obj["generators"]),
            tuple(parse_rational(m) for m in obj["dims"]),
        )

    @classmethod
    def trivial(cls) -> "Gap":
        """The rank-0 GAP {0}."""
        return cls((), ())


def volume(P: Gap) -> int:
    """prod(2 floor(M_i) + 1); the empty product is 1 for rank 0."""
    return prod(2 * n + 1 for n in P.bounds)


def _box(P: Gap):
    return product(*(range(-n, n + 1) for n in P.bounds))


def _check_cap(P: Gap, cap: int):
    v = volume(P)
    if v > cap:
        raise CapExceededError(f"GAP volume {v} exceeds cap {cap}")


def phi(P: Gap, m) -> Fraction:
    """The defining linear map m -> sum m_i g_i."""
    return sum((mi * gi for mi, gi in zip(m, P.generators)), Fraction(0))


def member_set(P: Gap, cap: int = DEFAULT_ENUM_CAP) -> frozenset[Fraction]:
    """The images of the box: the one enumeration of a GAP's members."""
    _check_cap(P, cap)
    return frozenset(phi(P, m) for m in _box(P))


def is_proper(P: Gap, cap: int = DEFAULT_ENUM_CAP) -> bool:
    """True iff P has one member per box point: |member_set(P)| = volume(P)."""
    return len(member_set(P, cap)) == volume(P)


def _nullspace_vector(vectors: list[tuple[int, ...]], d: int) -> list[Fraction] | None:
    """One nonzero c with c . v = 0 for all v, or None when the vectors have
    full rank d; free variable of highest index preferred (deterministic
    tie-break)."""
    rows = [[Fraction(x) for x in v] for v in vectors if any(v)]
    pivots: dict[int, list[Fraction]] = {}
    for row in rows:
        r = list(row)
        for col, prow in pivots.items():
            if r[col] != 0:
                f = r[col] / prow[col]
                r = [a - f * b for a, b in zip(r, prow)]
        lead = next((j for j in range(d) if r[j] != 0), None)
        if lead is not None:
            pivots[lead] = r
    if len(pivots) == d:
        return None
    free = max(j for j in range(d) if j not in pivots)
    c = [Fraction(0)] * d
    c[free] = Fraction(1)
    # back-substitute pivot coordinates, highest pivot column first
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        s = sum((row[j] * c[j] for j in range(col + 1, d)), Fraction(0))
        c[col] = -s / row[col]
    return c


def full_rank_reduce(P_I: Gap, P: Gap, cap: int = DEFAULT_ENUM_CAP) -> Gap:
    """Reduce P_I until its box points landing in P span full rank.

    Sigma = {m in box(P_I) : phi(m) in P}.  While Sigma lies in a
    hyperplane x_d = sum a_j x_j (d = highest index with nonzero normal
    component), substitute g_j <- g_j + a_j g_d, drop generator d, and
    recurse.  Rank strictly decreases each step; the intersection with P
    is preserved.
    """
    if P_I.rank == 0:
        return P_I
    _check_cap(P_I, cap)
    target = member_set(P, cap)
    sigma = [m for m in _box(P_I) if phi(P_I, m) in target]
    d = P_I.rank
    if not sigma or all(not any(m) for m in sigma):
        return Gap.trivial()
    c = _nullspace_vector(sigma, d)
    if c is None:
        return P_I
    drop = max(j for j in range(d) if c[j] != 0)
    coeff = [-c[j] / c[drop] for j in range(d)]  # x_drop = sum_j coeff_j x_j
    gens = tuple(
        P_I.generators[j] + coeff[j] * P_I.generators[drop]
        for j in range(d)
        if j != drop
    )
    dims = tuple(P_I.dims[j] for j in range(d) if j != drop)
    return full_rank_reduce(Gap(gens, dims), P, cap)
