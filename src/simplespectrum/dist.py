"""Exact finite discrete distributions for random matrix entries.

A distribution is a finite list of rational atoms with rational point
masses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DistributionError
from .rationals import format_rational, parse_rational


@dataclass(frozen=True)
class AtomicDistribution:
    """Finite discrete real distribution with exact rational atoms/masses.

    Atoms are pairwise distinct and sorted ascending; probabilities are
    strictly positive and sum exactly to 1.  Instances are immutable and
    safe to share across workers.
    """

    atoms: tuple[Fraction, ...]
    probs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.atoms) != len(self.probs):
            raise DistributionError("atoms and probs must have equal length")
        if not self.atoms:
            raise DistributionError("distribution needs at least one atom")
        if any(p <= 0 for p in self.probs):
            raise DistributionError("probabilities must be strictly positive")
        if sum(self.probs, Fraction(0)) != 1:
            raise DistributionError("probabilities must sum exactly to 1")
        if any(a >= b for a, b in zip(self.atoms, self.atoms[1:])):
            raise DistributionError("atoms must be strictly increasing")
        # Hashed once: every draw looks its atom table up by this instance.
        object.__setattr__(self, "_hash", hash((self.atoms, self.probs)))

    def __hash__(self):
        return self._hash

    def to_json(self) -> dict:
        return {
            "atoms": [format_rational(a) for a in self.atoms],
            "probs": [format_rational(p) for p in self.probs],
        }

    @classmethod
    def from_json(cls, obj) -> "AtomicDistribution":
        return make_distribution(obj["atoms"], obj["probs"])


def make_distribution(atoms: Sequence, probs: Sequence) -> AtomicDistribution:
    """Build a normalized AtomicDistribution.

    Equal atoms are merged by summing their masses; the result is sorted
    ascending.  Accepts Fractions, ints, or "p/q" strings.
    """
    if len(atoms) != len(probs):
        raise DistributionError("atoms and probs must have equal length")
    merged: dict[Fraction, Fraction] = {}
    for a, p in zip(atoms, probs):
        a = parse_rational(a)
        p = parse_rational(p)
        if p <= 0:
            raise DistributionError(f"nonpositive probability {p} for atom {a}")
        merged[a] = merged.get(a, Fraction(0)) + p
    keys = sorted(merged)
    return AtomicDistribution(
        atoms=tuple(keys), probs=tuple(merged[k] for k in keys)
    )


def rademacher() -> AtomicDistribution:
    """Uniform on {-1, +1}."""
    return make_distribution([-1, 1], [Fraction(1, 2), Fraction(1, 2)])


def bernoulli_half() -> AtomicDistribution:
    """Uniform on {0, 1}: the G(n, 1/2) edge law."""
    return make_distribution([0, 1], [Fraction(1, 2), Fraction(1, 2)])


def zero_atom() -> AtomicDistribution:
    """The deterministic zero distribution (used for graph diagonals)."""
    return make_distribution([0], [1])
