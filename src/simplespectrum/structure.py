"""Desk-scale inverse Littlewood-Offord: covering GAPs and iterative refinement.

find_covering_gap searches a candidate pool of generators (element values,
pairwise differences, and their small integer quotients) for a proper
symmetric GAP of bounded rank and volume containing all but at most m
elements of a vector.  The search is heuristic but every result is
re-verified by enumeration, so incompleteness can only produce None,
never a wrong GAP.

refine_structure runs the iterative loop: cover the vector, look for a
small stability subset whose concentration stays below n^(d0*eps) times
the current level, and if none exists re-cover with a tighter GAP at a
geometrically boosted level.  The level grows past 1 in O(1) rounds, so
the loop terminates at the stability step.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations
from typing import Optional

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
    enum_cap: int = gaps.DEFAULT_ENUM_CAP
    sum_cap: int = smallball.DEFAULT_SUM_CAP
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.eps < 0.25):
            raise PreconditionError("eps must lie in (0, 1/4)")
        if self.d0 < 1:
            raise PreconditionError("d0 must be >= 1")
        if self.C0 <= 0:
            raise PreconditionError("C0 must be positive")


@dataclass(frozen=True)
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
        if isinstance(obj, str):
            obj = json.loads(obj)
        return cls(
            w_indices=tuple(obj["w_indices"]),
            wprime_indices=tuple(obj["wprime_indices"]),
            p=parse_rational(obj["p"]),
            gap=Gap.from_json(obj["gap"]),
            certificates=obj.get("certificates", {}),
        )


def _candidate_generators(values: tuple[Fraction, ...]) -> list[Fraction]:
    """Nonzero candidates: values, pairwise differences, and quotients by 1..6,
    normalized positive and deduplicated."""
    raw: set[Fraction] = set()
    distinct = sorted(set(values))
    for v in distinct:
        if v:
            raw.add(abs(v))
    for a, b in combinations(distinct, 2):
        if a != b:
            raw.add(abs(a - b))
    out: set[Fraction] = set()
    for g in raw:
        for q in range(1, 7):
            out.add(g / q)
    return sorted(out)


def _rank1_cover(
    g: Fraction, values: tuple[Fraction, ...], m: int, vol_max: int
) -> Optional[tuple[Gap, tuple[int, ...]]]:
    """Best rank-1 GAP with generator g covering all but <= m values."""
    n = len(values)
    mult = [(abs(v / g), i) for i, v in enumerate(values) if (v / g).denominator == 1]
    if len(mult) < n - m:
        return None
    max_dim = (vol_max - 1) // 2
    mult.sort()
    # Tightest dimension covering the n - m nearest multiples; anything
    # else within that box is covered for free.
    dim = mult[n - m - 1][0] if n - m >= 1 else Fraction(0)
    if dim > max_dim:
        return None
    covered = [(k, i) for k, i in mult if k <= dim]
    gap = Gap((g,), (Fraction(dim),))
    return gap, tuple(sorted(i for _, i in covered))


def _rank2_cover(
    g1: Fraction,
    g2: Fraction,
    values: tuple[Fraction, ...],
    m: int,
    vol_max: int,
) -> Optional[tuple[Gap, tuple[int, ...]]]:
    """Greedy rank-2 cover: per value, the representation minimizing
    max(|a|, |b|) with |a| bounded by a small search range.  Properness is
    left to _verify_cover."""
    reps = []
    covered_idx = []
    for i, v in enumerate(values):
        best = None
        for a in range(-_PAIR_COEFF_RANGE, _PAIR_COEFF_RANGE + 1):
            rem = (v - a * g1) / g2
            if rem.denominator == 1:
                b = int(rem)
                key = (max(abs(a), abs(b)), abs(a))
                if best is None or key < best[0]:
                    best = (key, a, b)
        if best is not None:
            reps.append((best[1], best[2]))
            covered_idx.append(i)
    if len(covered_idx) < len(values) - m:
        return None
    d1 = max(abs(a) for a, _ in reps)
    d2 = max(abs(b) for _, b in reps)
    gap = Gap((g1, g2), (Fraction(d1), Fraction(d2)))
    if gaps.volume(gap) > vol_max:
        return None
    return gap, tuple(covered_idx)


def find_covering_gap(
    V: WeightVector,
    m: int,
    r_max: int = 2,
    vol_max: int = 10**4,
    enum_cap: int = gaps.DEFAULT_ENUM_CAP,
) -> Optional[Gap]:
    """Search for a proper symmetric GAP of rank <= r_max and volume <=
    vol_max containing all but at most m elements of V (with multiplicity).

    Returns None when the bounded candidate search exhausts.  Every result
    is re-verified by enumeration before it is returned.
    """
    gap_idx = covering_gap_with_indices(V, m, r_max, vol_max, enum_cap)
    return gap_idx[0] if gap_idx else None


def covering_gap_with_indices(
    V: WeightVector,
    m: int,
    r_max: int = 2,
    vol_max: int = 10**4,
    enum_cap: int = gaps.DEFAULT_ENUM_CAP,
) -> Optional[tuple[Gap, tuple[int, ...]]]:
    """find_covering_gap plus the covered index set."""
    if V.mode != "exact":
        raise PreconditionError("covering search needs an exact-mode vector")
    n = len(V)
    if not 0 <= m <= n:
        raise PreconditionError("need 0 <= m <= |V|")
    if r_max < 1:
        raise PreconditionError("r_max must be >= 1")
    values = V.entries
    nonzero = [v for v in values if v]
    if not nonzero:
        return Gap.trivial(), tuple(range(n))
    candidates = _candidate_generators(values)

    rank1 = []
    for g in candidates:
        hit = _rank1_cover(g, values, m, vol_max)
        if hit is not None:
            gap, idx = hit
            rank1.append((-len(idx), gaps.volume(gap), g, gap, idx))
    rank1.sort(key=lambda t: (t[0], t[1], t[2]))
    if rank1:
        _, _, _, gap, idx = rank1[0]
        if _verify_cover(gap, values, idx, m, enum_cap):
            return gap, idx
    if r_max < 2:
        return None

    # Rank 2: pairs drawn from the best rank-1 partial covers.
    partial = []
    for g in candidates:
        mult = sum(1 for v in values if (v / g).denominator == 1)
        partial.append((-mult, g))
    partial.sort()
    top = [g for _, g in partial[:_TOP_RANK1]]
    for g1, g2 in combinations(top, 2):
        hit = _rank2_cover(g1, g2, values, m, vol_max)
        if hit is not None:
            gap, idx = hit
            if _verify_cover(gap, values, idx, m, enum_cap):
                return gap, idx
    return None


def _verify_cover(gap, values, idx, m, enum_cap) -> bool:
    if len(values) - len(idx) > m:
        return False
    if not gaps.is_proper(gap, enum_cap):
        return False
    members = gaps.member_set(gap, enum_cap)
    return all(values[i] in members for i in idx)


def _vol_bound_ok(vol: int, c0: Fraction, p: Fraction, n: int, rank: int) -> bool:
    """vol <= c0 * p^-1 * n^(-rank/2), compared exactly via squares."""
    rhs = c0 / p
    return vol * vol * (n**rank) <= rhs * rhs


def _stability_subsets(n_i: int, k_i: int, seed: int):
    """Deterministic stream of candidate index subsets of size k_i."""
    if math.comb(n_i, k_i) <= _SUBSET_EXHAUSTIVE_LIMIT:
        yield from combinations(range(n_i), k_i)
        return
    rng = np.random.default_rng(seed)
    for _ in range(_SUBSET_SAMPLES):
        yield tuple(sorted(int(x) for x in rng.choice(n_i, size=k_i, replace=False)))


def refine_structure(
    V: WeightVector, d: AtomicDistribution, params: StructureParams
) -> StructureReport:
    """Iterative refinement for a rich exact vector.

    Raises PreconditionError when V is not rich at exponent params.A, and
    SearchBudgetError when either the stability search or a covering
    search exhausts its budget.
    """
    n = len(V)
    eps, d0 = params.eps, params.d0
    rich, p1 = smallball.is_rich(V, d, params.A, n, cap=params.sum_cap)
    if not rich:
        raise PreconditionError(
            f"vector is not rich: p = {p1} < {n}^(-{params.A})"
        )

    def cover(idx_pool: list[int], m: int, c0: Fraction, p: Fraction):
        sub = WeightVector.exact([V.entries[i] for i in idx_pool])
        for rank in range(1, d0 + 1):
            vol_max = int(math.floor(float(c0 / p) * n ** (-rank / 2)))
            if vol_max < 1:
                continue
            hit = covering_gap_with_indices(
                sub, m, r_max=rank, vol_max=vol_max, enum_cap=params.enum_cap
            )
            if hit is not None:
                gap, local_idx = hit
                if gap.rank <= rank and _vol_bound_ok(
                    gaps.volume(gap), c0, p, n, gap.rank
                ):
                    return gap, tuple(idx_pool[j] for j in local_idx)
        return None

    m1 = math.ceil(n ** (1 - eps / 2))
    first = cover(list(range(n)), min(m1, n), params.C0, p1)
    if first is None:
        raise SearchBudgetError("initial covering-GAP search failed")
    gap_i, w_idx = first
    p_i = p1
    max_iters = math.ceil(2 * params.A / eps) + 2

    for iteration in range(max_iters):
        n_i = len(w_idx)
        k_i = max(1, math.floor(eps * n_i))
        threshold = n_i ** (d0 * eps) * float(p_i)
        for subset in _stability_subsets(n_i, k_i, params.seed):
            wprime = tuple(w_idx[j] for j in subset)
            res = smallball.small_ball_exact(
                WeightVector.exact([V.entries[i] for i in wprime]),
                d,
                cap=params.sum_cap,
            )
            if float(res.p) <= threshold:
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


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    failed: tuple[str, ...]
    details: dict

    def __bool__(self):
        return self.ok


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
    failed = []
    details: dict = {}

    idx_ok = (
        set(report.wprime_indices) <= set(report.w_indices)
        and all(0 <= i < n for i in report.w_indices)
        and len(set(report.w_indices)) == len(report.w_indices)
        and len(set(report.wprime_indices)) == len(report.wprime_indices)
    )
    details["indices"] = {"ok": idx_ok}
    if not idx_ok:
        failed.append("indices")

    w_min = n - math.ceil(n ** (1 - eps / 4))
    w_ok = len(report.w_indices) >= w_min
    details["w_size_bound"] = {
        "ok": w_ok, "size": len(report.w_indices), "min": w_min
    }
    if not w_ok:
        failed.append("w_size_bound")

    wp_max = eps * n
    wp_ok = len(report.wprime_indices) <= wp_max
    details["wprime_size_bound"] = {
        "ok": wp_ok, "size": len(report.wprime_indices), "max": wp_max
    }
    if not wp_ok:
        failed.append("wprime_size_bound")

    mem_ok = True
    if idx_ok:
        try:
            members = gaps.member_set(report.gap, params.enum_cap)
            mem_ok = all(V.entries[i] in members for i in report.w_indices)
        except CapExceededError:
            mem_ok = False
    else:
        mem_ok = False
    details["membership"] = {"ok": mem_ok}
    if not mem_ok:
        failed.append("membership")

    vol = gaps.volume(report.gap)
    vol_ok = _vol_bound_ok(vol, 2 * params.C0, report.p, n, report.gap.rank)
    details["volume_bound"] = {
        "ok": vol_ok,
        "volume": vol,
        "bound": float(2 * params.C0 / report.p) * n ** (-report.gap.rank / 2),
    }
    if not vol_ok:
        failed.append("volume_bound")

    sb_ok = True
    if idx_ok:
        sub = WeightVector.exact([V.entries[i] for i in report.wprime_indices])
        res = smallball.small_ball_exact(sub, d, cap=params.sum_cap)
        thr = n ** (d0 * eps) * float(report.p)
        sb_ok = float(res.p) <= thr
        details["smallball_bound"] = {
            "ok": sb_ok, "p_wprime": format_rational(res.p), "threshold": thr
        }
    else:
        sb_ok = False
        details["smallball_bound"] = {"ok": False}
    if not sb_ok:
        failed.append("smallball_bound")

    return VerificationResult(ok=not failed, failed=tuple(failed), details=details)
