"""Desk-scale inverse Littlewood-Offord: covering GAPs and iterative refinement.

covering_gap_with_indices searches a candidate pool of generators
(element values, pairwise differences, and their quotients by 1..6) for a
proper symmetric GAP of rank 1 or 2 and bounded volume containing all but
at most m elements of a vector, and returns it with the covered indices.
The search runs on one integer lattice: the values are put over
L = 60 * lcm(denominators), so every candidate is an exact integer, and
one table lists, per candidate, the values it divides.  Both the best
rank-1 cover and the order of the rank-2 pairs come from that table; a
generator becomes the Fraction g / L only in the returned Gap.  The search
is heuristic but every result is re-verified by enumeration, so
incompleteness can only produce None, never a wrong GAP.

refine_structure runs the iterative loop: cover the vector, look for a
small stability subset whose concentration stays below n^(d0*eps) times
the current level, and if none exists re-cover with a tighter GAP at a
geometrically boosted level.  The level grows past 1 in O(1) rounds, so
the loop terminates at the stability step.  The xi_i are i.i.d., so
p(W') = sup_x P(sum xi_i w_i = x) depends only on the multiset of W'
values, and a GAP-covered W takes few distinct values: the stability
search runs one exact small-ball per distinct multiset, not one per
subset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations
from typing import ClassVar, Optional

import numpy as np

from . import gaps, smallball
from .dist import AtomicDistribution
from .errors import CapExceededError, PreconditionError, SearchBudgetError
from .gaps import Gap
from .rationals import format_rational, parse_rational
from .smallball import WeightVector

_TOP_RANK1 = 32
_PAIR_COEFF_RANGE = 12
_SUBSET_EXHAUSTIVE_LIMIT = 10**5
_SUBSET_SAMPLES = 10**4


@dataclass(frozen=True)
class StructureParams:
    """User-supplied stand-ins for the existential constants of the theory."""

    A: float = 1.0
    eps: float = 0.2
    d0: int = 3
    C0: Fraction = Fraction(10)
    enum_cap: ClassVar[int] = gaps.DEFAULT_ENUM_CAP  # not a field: one cap for all

    def __post_init__(self):
        if not (0 < self.eps < 0.25):
            raise PreconditionError("eps must lie in (0, 1/4)")
        if self.d0 < 1:
            raise PreconditionError("d0 must be >= 1")
        if self.C0 <= 0:
            raise PreconditionError("C0 must be positive")


@dataclass(frozen=True, slots=True)
class StructureReport:
    """Output of the refinement loop, with recomputable certificates.

    Indices are 0-based positions into the original vector.
    """

    w_indices: tuple[int, ...]
    wprime_indices: tuple[int, ...]
    p: Fraction
    gap: Gap
    certificates: dict = field(default_factory=dict, compare=False)

    def to_json(self) -> dict:
        return {
            "w_indices": list(self.w_indices),
            "wprime_indices": list(self.wprime_indices),
            "p": format_rational(self.p),
            "gap": self.gap.to_json(),
            "certificates": self.certificates,
        }

    @classmethod
    def from_json(cls, obj) -> "StructureReport":
        return cls(
            w_indices=tuple(obj["w_indices"]),
            wprime_indices=tuple(obj["wprime_indices"]),
            p=parse_rational(obj["p"]),
            gap=Gap.from_json(obj["gap"]),
            certificates=obj.get("certificates", {}),
        )


def _candidate_generators(ints: list[int]) -> list[int]:
    """Nonzero candidates on the lattice: values, pairwise differences, and
    quotients by 1..6, normalized positive and deduplicated."""
    distinct = sorted(set(ints))
    raw = {abs(v) for v in distinct if v}
    raw.update(b - a for a, b in combinations(distinct, 2))
    return sorted({g // q for g in raw for q in range(1, 7)})


def _rank2_cover(
    g1: int, g2: int, ints: list[int], L: int, m: int, vol_max: int
) -> Optional[tuple[Gap, tuple[int, ...]]]:
    """Greedy rank-2 cover: per value, the representation minimizing
    max(|a|, |b|) with |a| bounded by a small search range.  Properness is
    left to _verify_cover."""
    reps = []
    covered_idx = []
    for i, v in enumerate(ints):
        best = None
        for a in range(-_PAIR_COEFF_RANGE, _PAIR_COEFF_RANGE + 1):
            b, rem = divmod(v - a * g1, g2)
            if rem == 0:
                key = (max(abs(a), abs(b)), abs(a))
                if best is None or key < best[0]:
                    best = (key, a, b)
        if best is not None:
            reps.append((best[1], best[2]))
            covered_idx.append(i)
    if len(covered_idx) < len(ints) - m:
        return None
    d1 = max(abs(a) for a, _ in reps)
    d2 = max(abs(b) for _, b in reps)
    gap = Gap((Fraction(g1, L), Fraction(g2, L)), (Fraction(d1), Fraction(d2)))
    if gaps.volume(gap) > vol_max:
        return None
    return gap, tuple(covered_idx)


def covering_gap_with_indices(
    V: WeightVector, m: int, vol_max: tuple[int, int] = (10**4, 10**4)
) -> Optional[tuple[Gap, tuple[int, ...]]]:
    """Search for a proper symmetric GAP of rank 1 or 2 containing all but
    at most m elements of V (with multiplicity); returns it with the sorted
    indices of the elements it covers.  vol_max holds one volume cap per
    rank: rank 1 is tried under vol_max[0], then rank 2 under vol_max[1]; a
    cap below 1 skips its rank.

    Returns None when the bounded candidate search exhausts.  Every result
    is re-verified by enumeration before it is returned.
    """
    if V.mode != "exact":
        raise PreconditionError("covering search needs an exact-mode vector")
    n = len(V)
    if not 0 <= m <= n:
        raise PreconditionError("need 0 <= m <= |V|")
    cap1, cap2 = vol_max
    values = V.entries
    if not any(values):
        return Gap.trivial(), tuple(range(n))
    # One lattice L = 60 * lcm(denominators): every value, pairwise
    # difference and their quotients by 1..6 are then exact integers.
    L = 60 * math.lcm(*(v.denominator for v in values))
    ints = [v.numerator * (L // v.denominator) for v in values]
    # Per candidate g, the sorted (|v| / g, i) over the values g divides.
    table = {
        g: sorted((abs(v) // g, i) for i, v in enumerate(ints) if v % g == 0)
        for g in _candidate_generators(ints)
    }

    # Rank 1: most covered values, then the smallest volume, then the
    # smallest g.  The tightest dimension covering the n - m nearest
    # multiples also covers, for free, anything else within that box.
    rank1 = []
    for g, mult in table.items():
        if len(mult) >= n - m:
            dim = mult[n - m - 1][0] if n > m else 0
            if 2 * dim + 1 <= cap1:
                rank1.append((-sum(k <= dim for k, _ in mult), dim, g))
    if rank1:
        _, dim, g = min(rank1)
        gap = Gap((Fraction(g, L),), (Fraction(dim),))
        idx = tuple(sorted(i for k, i in table[g] if k <= dim))
        if _verify_cover(gap, values, idx, m):
            return gap, idx
    if cap2 < 1:
        return None

    # Rank 2: pairs drawn from the candidates dividing the most values.
    top = sorted(table, key=lambda g: (-len(table[g]), g))[:_TOP_RANK1]
    for g1, g2 in combinations(top, 2):
        hit = _rank2_cover(g1, g2, ints, L, m, cap2)
        if hit is not None:
            gap, idx = hit
            if _verify_cover(gap, values, idx, m):
                return gap, idx
    return None


def _verify_cover(gap, values, idx, m) -> bool:
    """At most m values are left out, and one enumeration of the GAP shows
    it proper (one member per box point) and holding every covered value."""
    if len(values) - len(idx) > m:
        return False
    members = gaps.member_set(gap)
    return len(members) == gaps.volume(gap) and all(values[i] in members for i in idx)


def _vol_cap(c0: Fraction, p: Fraction, n: int, rank: int) -> int:
    """The largest integer vol <= c0 * p^-1 * n^(-rank/2), exact: for
    integer vol, vol^2 n^rank <= (c0 / p)^2 iff vol^2 <= floor((c0 / p)^2 / n^rank)."""
    return math.isqrt((c0 / p) ** 2 // n**rank)


def _stability_subsets(n_i: int, k_i: int):
    """Deterministic stream of candidate index subsets of size k_i: all of
    them, or _SUBSET_SAMPLES draws from a generator seeded with 0."""
    if math.comb(n_i, k_i) <= _SUBSET_EXHAUSTIVE_LIMIT:
        yield from combinations(range(n_i), k_i)
        return
    rng = np.random.default_rng(0)
    for _ in range(_SUBSET_SAMPLES):
        yield tuple(sorted(int(x) for x in rng.choice(n_i, size=k_i, replace=False)))


def refine_structure(
    V: WeightVector, d: AtomicDistribution, params: StructureParams
) -> StructureReport:
    """Iterative refinement for a rich exact vector.

    The stability search keys each subset W' by the sorted class ids of
    its values (equal values share an id).  The xi_i are i.i.d., so p(W')
    depends only on that multiset, and small_ball_exact runs once per key;
    later subsets with the key reuse float(p).  Whether the support cap is
    exceeded depends on the multiset too.  Subsets are still visited in
    _stability_subsets order, so the first passing subset, the report and
    any raised error are those of one call per subset.  The memo lives for
    this call only, since p also depends on d, and holds at most one entry
    per subset visited: at most 10^5 per stability round.

    Raises PreconditionError when V is not rich at exponent params.A, and
    SearchBudgetError when either the stability search or a covering
    search exhausts its budget, or a cover leaves no coordinate in W.
    """
    n = len(V)
    eps, d0 = params.eps, params.d0
    rich, p1 = smallball.is_rich(V, d, params.A, n)
    if not rich:
        raise PreconditionError(
            f"vector is not rich: p = {p1} < {n}^(-{params.A})"
        )

    def cover(idx_pool: list[int], m: int, c0: Fraction, p: Fraction):
        cap1 = _vol_cap(c0, p, n, 1)
        if cap1 < 1:  # else a zero vector would still get its trivial GAP
            return None
        cap2 = _vol_cap(c0, p, n, 2) if d0 >= 2 else 0
        sub = WeightVector.exact([V.entries[i] for i in idx_pool])
        hit = covering_gap_with_indices(sub, m, (cap1, cap2))
        if hit is None:
            return None
        gap, local_idx = hit
        return gap, tuple(idx_pool[j] for j in local_idx)

    m1 = math.ceil(n ** (1 - eps / 2))
    first = cover(list(range(n)), min(m1, n), params.C0, p1)
    if first is None:
        raise SearchBudgetError("initial covering-GAP search failed")
    gap_i, w_idx = first
    p_i = p1
    classes: dict = {}
    class_of = [classes.setdefault(v, len(classes)) for v in V.entries]
    p_of: dict[tuple[int, ...], float] = {}
    max_iters = math.ceil(2 * params.A / eps) + 2

    for iteration in range(max_iters):
        n_i = len(w_idx)
        if not n_i:
            raise SearchBudgetError(
                "covering GAP covers no coordinate",
                partial={"iteration": iteration, "p": p_i},
            )
        k_i = max(1, math.floor(eps * n_i))
        threshold = n_i ** (d0 * eps) * float(p_i)
        for subset in _stability_subsets(n_i, k_i):
            wprime = tuple(w_idx[j] for j in subset)
            key = tuple(sorted(class_of[i] for i in wprime))
            if key not in p_of:
                res = smallball.small_ball_exact(
                    WeightVector.exact([V.entries[i] for i in wprime]), d
                )
                p_of[key] = float(res.p)
            if p_of[key] <= threshold:
                report = StructureReport(
                    w_indices=tuple(w_idx), wprime_indices=wprime, p=p_i, gap=gap_i
                )
                verdict = verify_report(V, d, params, report)
                return replace(report, certificates=verdict.details)
        # No stability subset: re-cover at a boosted level.
        if float(p_i) < n_i ** (-params.A):
            raise SearchBudgetError(
                "level fell below richness threshold during refinement",
                partial={"iteration": iteration, "p": p_i},
            )
        p_next = (
            Fraction(n_i ** (eps / 2)).limit_denominator(10**12) * p_i
        )
        m_next = max(1, math.floor(n_i ** (1 - eps / 3)))
        nxt = cover(list(w_idx), m_next, 2 * params.C0, p_next)
        if nxt is None:
            raise SearchBudgetError(
                "covering-GAP search failed during refinement",
                partial={"iteration": iteration, "p": p_next},
            )
        gap_i, w_idx = nxt
        p_i = p_next
    raise SearchBudgetError(
        f"refinement exceeded {max_iters} iterations", partial={"p": p_i}
    )


@dataclass(frozen=True, slots=True)
class VerificationResult:
    failed: tuple[str, ...]
    details: dict

    @property
    def ok(self) -> bool:
        return not self.failed


def verify_report(
    V: WeightVector,
    d: AtomicDistribution,
    params: StructureParams,
    report: StructureReport,
) -> VerificationResult:
    """Independently re-check all report certificates from scratch.

    Uses only the GAP and small-ball primitives; shares no state with
    refine_structure.  Returns ok=False with the failing certificate
    named in `failed`.
    """
    n = len(V)
    eps, d0 = params.eps, params.d0
    details: dict = {}

    idx_ok = (
        set(report.wprime_indices) <= set(report.w_indices)
        and all(0 <= i < n for i in report.w_indices)
        and len(set(report.w_indices)) == len(report.w_indices)
        and len(set(report.wprime_indices)) == len(report.wprime_indices)
    )
    details["indices"] = {"ok": idx_ok}

    w_min = n - math.ceil(n ** (1 - eps / 4))
    details["w_size_bound"] = {
        "ok": len(report.w_indices) >= w_min,
        "size": len(report.w_indices),
        "min": w_min,
    }

    wp_max = eps * n
    details["wprime_size_bound"] = {
        "ok": len(report.wprime_indices) <= wp_max,
        "size": len(report.wprime_indices),
        "max": wp_max,
    }

    mem_ok = False
    if idx_ok:
        try:
            members = gaps.member_set(report.gap)
            mem_ok = all(V.entries[i] in members for i in report.w_indices)
        except CapExceededError:
            pass
    details["membership"] = {"ok": mem_ok}

    vol, rank, p = gaps.volume(report.gap), report.gap.rank, report.p
    try:
        bound = float(2 * params.C0 / p) * n ** (-rank / 2)
    except (OverflowError, ZeroDivisionError):  # a tiny or zero p, or n = 0 < rank
        bound = math.inf
    details["volume_bound"] = {
        # A level p <= 0 bounds nothing; n = 0 < rank makes the bound infinite.
        "ok": p > 0 and (n == 0 < rank or vol <= _vol_cap(2 * params.C0, p, n, rank)),
        "volume": vol,
        "bound": bound,
    }

    if idx_ok:
        sub = WeightVector.exact([V.entries[i] for i in report.wprime_indices])
        res = smallball.small_ball_exact(sub, d)
        thr = n ** (d0 * eps) * float(report.p)
        details["smallball_bound"] = {
            "ok": float(res.p) <= thr,
            "p_wprime": format_rational(res.p),
            "threshold": thr,
        }
    else:
        details["smallball_bound"] = {"ok": False}

    failed = tuple(name for name, cert in details.items() if not cert["ok"])
    return VerificationResult(failed=failed, details=details)
