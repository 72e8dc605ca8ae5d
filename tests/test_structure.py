import hashlib
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import fields, replace
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from simplespectrum import gaps, smallball, structure
from simplespectrum.dist import make_distribution, rademacher
from simplespectrum.errors import CapExceededError, PreconditionError, SearchBudgetError
from simplespectrum.gaps import Gap, volume
from simplespectrum.smallball import WeightVector, small_ball_exact
from simplespectrum.structure import (
    StructureParams,
    StructureReport,
    _rank2_cover,
    _vol_cap,
    covering_gap_with_indices,
    refine_structure,
    verify_report,
)

ROOT = Path(__file__).resolve().parents[1]
F = Fraction
RAD = rademacher()
PARAMS = StructureParams(A=1.0, eps=0.2, d0=3, C0=F(10))


def test_cover_constant_vector():
    g, idx = covering_gap_with_indices(WeightVector.exact([1, 1, 1, 1, 1]), m=0)
    assert g == Gap((F(1),), (F(1),)) and idx == (0, 1, 2, 3, 4)
    assert volume(g) == 3


def test_cover_outlier():
    g, idx = covering_gap_with_indices(WeightVector.exact([1, 2, 3, 4, 5, 100]), m=1)
    assert g == Gap((F(1),), (F(5),)) and idx == (0, 1, 2, 3, 4)


def test_cover_enumerates_each_verified_box_once(monkeypatch):
    # Properness and membership come from one member_set call.
    boxes = []
    real_box = gaps._box

    def counting(P):
        boxes.append(P)
        return real_box(P)

    monkeypatch.setattr(gaps, "_box", counting)
    g, _ = covering_gap_with_indices(WeightVector.exact([1, 2, 3, 4, 5, 100]), m=1)
    assert boxes == [g]


def test_cover_incommensurable_returns_none():
    V = WeightVector.exact([F(1), F(10**6 + 1), F(7, 3)])
    assert covering_gap_with_indices(V, m=0, vol_max=(10, 0)) is None


def test_cover_rank2():
    # Base-100 digits need two generators at small volume.
    values = [a + 100 * b for a in (-2, -1, 0, 1, 2) for b in (-1, 0, 1)]
    hit = covering_gap_with_indices(WeightVector.exact(values), m=0, vol_max=(100, 100))
    assert hit is not None
    g, idx = hit
    assert g.rank <= 2 and idx == tuple(range(len(values)))
    from simplespectrum.gaps import member_set

    members = member_set(g)
    assert all(F(v) in members for v in values)


def test_cover_results_verified():
    rng = random.Random(1)
    for _ in range(20):
        values = [rng.randint(-10, 10) for _ in range(8)]
        hit = covering_gap_with_indices(WeightVector.exact(values), m=2)
        if hit is None:
            continue
        g, idx = hit
        from simplespectrum.gaps import is_proper, member_set

        assert is_proper(g)
        members = member_set(g)
        assert all(F(values[i]) in members for i in idx)
        assert len(values) - len(idx) <= 2


def test_cover_quotient_generator():
    # 5/6 occurs only as a sixth of the value 5: the lattice must make
    # every quotient by 1..6 an integer.
    g, idx = covering_gap_with_indices(WeightVector.exact([0, 5]), m=1)
    assert g == Gap((F(5, 6),), (F(0),)) and idx == (0,)


# Oracle: the covering search as it was first written, in Fraction
# arithmetic, dividing every value by every candidate generator.


def _ref_candidates(values):
    raw = set()
    distinct = sorted(set(values))
    for v in distinct:
        if v:
            raw.add(abs(v))
    for a, b in combinations(distinct, 2):
        if a != b:
            raw.add(abs(a - b))
    out = set()
    for g in raw:
        for q in range(1, 7):
            out.add(g / q)
    return sorted(out)


def _ref_rank1(g, values, m, vol_max):
    n = len(values)
    mult = [(abs(v / g), i) for i, v in enumerate(values) if (v / g).denominator == 1]
    if len(mult) < n - m:
        return None
    mult.sort()
    dim = mult[n - m - 1][0] if n - m >= 1 else F(0)
    if dim > (vol_max - 1) // 2:
        return None
    gap = Gap((g,), (F(dim),))
    return gap, tuple(sorted(i for k, i in mult if k <= dim))


def _ref_rank2(g1, g2, values, m, vol_max):
    reps, covered = [], []
    for i, v in enumerate(values):
        best = None
        for a in range(-12, 13):
            rem = (v - a * g1) / g2
            if rem.denominator == 1:
                b = int(rem)
                key = (max(abs(a), abs(b)), abs(a))
                if best is None or key < best[0]:
                    best = (key, a, b)
        if best is not None:
            reps.append((best[1], best[2]))
            covered.append(i)
    if len(covered) < len(values) - m:
        return None
    d1 = max(abs(a) for a, _ in reps)
    d2 = max(abs(b) for _, b in reps)
    gap = Gap((g1, g2), (F(d1), F(d2)))
    if volume(gap) > vol_max:
        return None
    return gap, tuple(covered)


def _ref_verify(gap, idx, values, m):
    if len(values) - len(idx) > m or not gaps.is_proper(gap):
        return False
    members = gaps.member_set(gap)
    return all(values[i] in members for i in idx)


def _ref_cover(values, m, r_max, vol_max):
    if not any(values):
        return Gap.trivial(), tuple(range(len(values)))
    candidates = _ref_candidates(values)
    rank1 = []
    for g in candidates:
        hit = _ref_rank1(g, values, m, vol_max)
        if hit is not None:
            rank1.append((-len(hit[1]), volume(hit[0]), g, hit))
    rank1.sort(key=lambda t: t[:3])
    if rank1 and _ref_verify(*rank1[0][3], values, m):
        return rank1[0][3]
    if r_max < 2:
        return None
    partial = sorted(
        (-sum(1 for v in values if (v / g).denominator == 1), g) for g in candidates
    )
    top = [g for _, g in partial[:32]]
    for g1, g2 in combinations(top, 2):
        hit = _ref_rank2(g1, g2, values, m, vol_max)
        if hit is not None and _ref_verify(*hit, values, m):
            return hit
    return None


def test_rank2_tie_goes_to_smaller_a():
    # 1 = -1*1 + 1*2 = 1*1 + 0*2: both keep max(|a|, |b|) = |a| = 1, and
    # the first, a = -1, sets the second dim to 1.
    want = _ref_rank2(F(1), F(2), (F(1),), 0, 100)
    assert want == (Gap((F(1), F(2)), (F(1), F(1))), (0,))
    assert _rank2_cover(60, 120, [60], 60, 0, 100) == want


def _oracle_vector(rng):
    n = rng.randint(1, 14)
    g1 = F(rng.randint(1, 9), rng.randint(1, 5))
    kind = rng.choices(["rank1", "rank2", "generic"], [1, 2, 1])[0]
    if kind == "rank1":
        values = [g1 * rng.randint(-3, 3) for _ in range(n)]
    elif kind == "rank2":
        g2 = F(rng.choice([97, 101, 103, 107]), rng.randint(1, 5))
        values = [g1 * rng.randint(-1, 1) + g2 * rng.randint(-1, 1) for _ in range(n)]
    else:
        values = [F(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(n)]
    # Half the vectors get one or two outliers, so that m matters.
    if rng.random() < 0.5:
        for _ in range(rng.randint(1, min(2, n))):
            values[rng.randrange(n)] = F(rng.randint(-1000, 1000), rng.randint(1, 5))
    return values


def test_cover_matches_fraction_oracle():
    rng = random.Random(2014)
    hits = rank2 = 0
    for _ in range(500):
        values = _oracle_vector(rng)
        m = rng.randint(0, len(values))
        # A miss at r_max >= 2 costs the oracle every rank-2 pair, about
        # 0.1 s per coordinate, so the weights favour covers that exist.
        r_max = rng.choices([1, 2, 3], [2, 1, 1])[0]
        vol_max = rng.choices([3, 10, 100, 10**4], [1, 2, 3, 3])[0]
        want = _ref_cover(tuple(values), m, r_max, vol_max)
        caps = (vol_max, vol_max if r_max >= 2 else 0)
        got = covering_gap_with_indices(WeightVector.exact(values), m, caps)
        assert got == want, (values, m, r_max, vol_max)
        hits += want is not None
        rank2 += want is not None and want[0].rank == 2
    assert rank2 >= 20 and hits <= 450, (hits, rank2)

def test_refine_all_ones():
    V = WeightVector.exact([1] * 16)
    report = refine_structure(V, RAD, PARAMS)
    assert report.w_indices == tuple(range(16))
    assert len(report.wprime_indices) == 3  # floor(0.2 * 16)
    assert report.p == F(12870, 65536)
    assert report.gap == Gap((F(1),), (F(1),))
    assert verify_report(V, RAD, PARAMS, report).ok


def test_refine_numpy_input_matches_list():
    a = refine_structure(WeightVector.exact(np.array([1] * 16)), RAD, PARAMS)
    b = refine_structure(WeightVector.exact([1] * 16), RAD, PARAMS)
    assert json.dumps(a.to_json()) == json.dumps(b.to_json())


@pytest.mark.parametrize("n", [4, 5, 6])
def test_refine_empty_w_raises_budget_error(n):
    # m1 = ceil(n^0.9) = n, so the first cover may skip every coordinate.
    with pytest.raises(SearchBudgetError, match="covers no coordinate"):
        refine_structure(WeightVector.exact([1] * n), RAD, PARAMS)


def test_vol_cap_is_exact():
    ratios = [F(k, q) for k in range(1, 80) for q in (1, 3, 7)]
    ratios += [F(49 * k) for k in range(1, 40)] + [F(10**6, 3), F(10**12 + 1, 7)]
    for n in range(1, 61):
        for rank in (1, 2):
            for c0_over_p in ratios:
                cap = _vol_cap(c0_over_p, F(1), n, rank)
                assert cap**2 * n**rank <= c0_over_p**2 < (cap + 1) ** 2 * n**rank
    # floor(float(c0/p) * n**(-r/2)) gives k - 1 for k = 1, 2, 3, 4, 6, ...
    assert all(_vol_cap(F(49 * k), F(1), 49, 2) == k for k in range(1, 40))


@pytest.mark.parametrize("d0", [1, 2, 3])
def test_refine_searches_once_per_cover(monkeypatch, d0):
    # With every search failing, the first cover fails after one call that
    # carries both exact per-rank caps.
    calls = []

    def failing(sub, m, vol_max):
        calls.append(vol_max)

    monkeypatch.setattr(structure, "covering_gap_with_indices", failing)
    V = WeightVector.exact([1] * 16)
    with pytest.raises(SearchBudgetError, match="initial"):
        refine_structure(V, RAD, replace(PARAMS, d0=d0, C0=F(100)))
    p = small_ball_exact(V, RAD).p
    cap2 = _vol_cap(F(100), p, 16, 2) if d0 >= 2 else 0
    assert calls == [(_vol_cap(F(100), p, 16, 1), cap2)]


def _counting_covers(monkeypatch):
    """Record the vector length, m and caps of each covering search."""
    calls, real = [], structure.covering_gap_with_indices

    def counting(sub, m, vol_max):
        calls.append((len(sub), m, vol_max))
        return real(sub, m, vol_max)

    monkeypatch.setattr(structure, "covering_gap_with_indices", counting)
    return calls


def test_refine_first_cap_below_one_searches_nothing(monkeypatch):
    # C0 / p < sqrt(n) leaves no volume for the first cover, so it fails
    # before any covering search.
    calls = _counting_covers(monkeypatch)
    V = WeightVector.exact([1] * 16)
    with pytest.raises(SearchBudgetError, match="initial"):
        refine_structure(V, RAD, replace(PARAMS, C0=F(1, 100)))
    assert _vol_cap(F(1, 100), small_ball_exact(V, RAD).p, 16, 1) == 0
    assert calls == []


# Eight ones and eight dissociated outliers: the first cover keeps the
# ones, and p = C(8, 4) / 2^16 is far below p(W') = 1/2 for each single
# coordinate W', so no stability subset exists while the level is low.
ONES_AND_OUTLIERS = WeightVector.exact([1] * 8 + [2 ** (20 + k) for k in range(8)])


def test_refine_level_below_richness_raises():
    # Rich at A = 3 over all 16 coordinates, p = 35/32768 >= 16^-3, but
    # below 8^-3 over the 8 that the cover keeps.
    with pytest.raises(SearchBudgetError, match="level fell below") as err:
        refine_structure(ONES_AND_OUTLIERS, RAD, replace(PARAMS, A=3.0))
    assert err.value.partial == {"iteration": 0, "p": F(35, 32768)}
    assert F(1, 16**3) <= F(35, 32768) < F(1, 8**3)


def test_refine_cover_failing_in_a_round_raises(monkeypatch):
    # At A = 4 the level stays rich, but each round raises p and so shrinks
    # the cap, until no GAP of volume 3, the ones' cover, fits it.
    calls = _counting_covers(monkeypatch)
    with pytest.raises(SearchBudgetError, match="during refinement") as err:
        refine_structure(ONES_AND_OUTLIERS, RAD, replace(PARAMS, A=4.0, C0=F(3, 200)))
    assert err.value.partial["iteration"] == 4
    assert calls == [(16, 13, (3, 0))] + [(8, 6, caps) for caps in
                                          [(5, 1), (4, 1), (3, 0), (3, 0), (2, 0)]]


def test_refine_iteration_cap_raises(monkeypatch):
    # With no stability subset offered, every round re-covers, p rises by
    # 16^(eps/2) each time and stays rich, and the loop ends after
    # ceil(2 A / eps) + 2 = 12 rounds.  No cover that keeps the same n_i
    # coordinates in every round gets there: by the last round p has grown
    # past 1, and so has the threshold n_i^(d0 eps) p that each p(W') meets.
    calls = _counting_covers(monkeypatch)
    monkeypatch.setattr(structure, "_stability_subsets", lambda n_i, k_i: iter(()))
    with pytest.raises(SearchBudgetError, match="exceeded 12 iterations"):
        refine_structure(WeightVector.exact([1] * 16), RAD, replace(PARAMS, C0=F(10**4)))
    assert len(calls) == 1 + 12


def test_refine_excludes_outlier():
    V = WeightVector.exact([1] * 15 + [10**6])
    report = refine_structure(V, RAD, PARAMS)
    assert len(report.w_indices) == 15
    assert 15 not in report.w_indices
    assert verify_report(V, RAD, PARAMS, report).ok


def test_refine_rejects_poor_vector():
    # p(1,2,4,...,2^15) = 2^-16 < 16^-1
    V = WeightVector.exact([2**i for i in range(16)])
    with pytest.raises(PreconditionError):
        refine_structure(V, RAD, PARAMS)


def test_refine_deterministic():
    V = WeightVector.exact([1] * 16)
    a = refine_structure(V, RAD, PARAMS)
    b = refine_structure(V, RAD, PARAMS)
    assert a == b


PIN_PARAMS = StructureParams(A=2.0, eps=0.2, d0=3, C0=F(100))


def _pin_family():
    """Seeded structured vectors: rank 1 (g·k, k = ±1, ±2) at lengths 16, 24
    and 32, rank 2 (g1·a + g2·b, a in {-1, 0, 1}, b = ±1, g2 a prime in
    97..107 over 1..3) at lengths 16, 19, 22 and 24, and rank 1 at n = 120."""
    rng = np.random.default_rng(2020)

    def gen():
        return F(int(rng.integers(1, 10)), int(rng.integers(1, 6)))

    def rank1(n):
        g = gen()
        return [g * int(k) for k in rng.choice([-2, -1, 1, 2], n)]

    def rank2(n):
        g1 = gen()
        g2 = F(int(rng.choice([97, 101, 103, 107])), int(rng.integers(1, 4)))
        a, b = rng.integers(-1, 2, n), rng.choice([-1, 1], n)
        return [g1 * int(x) + g2 * int(y) for x, y in zip(a, b)]

    small = [rank1(n) for n in (16, 24, 32) for _ in range(2)]
    small += [rank2(n) for n in (16, 19, 22, 24) for _ in range(2)]
    return small, [rank1(120) for _ in range(6)]


# sha256 of repr([(report, report.certificates), ...]) over _pin_family(),
# as refine_structure gave them with one small_ball_exact per subset visited.
REFINE_SHA256 = "fa46e0c9f7afe71f38df4ae9d481a937e28d3fcc08f3126c2c167efa5bc05b6d"


def test_refine_reports_pinned():
    small, large = _pin_family()
    reports = [refine_structure(WeightVector.exact(v), RAD, PIN_PARAMS) for v in small + large]
    for r in reports[len(small):]:
        # More subsets than the exhaustive limit: the sampled branch runs.
        w = len(r.w_indices)
        assert math.comb(w, math.floor(PIN_PARAMS.eps * w)) > 10**5
    records = [(r, r.certificates) for r in reports]
    assert hashlib.sha256(repr(records).encode()).hexdigest() == REFINE_SHA256


def test_refine_small_ball_once_per_value_multiset(monkeypatch):
    calls, visited = [], []
    real_ball, real_subsets = smallball.small_ball_exact, structure._stability_subsets

    def recording(V, d):
        calls.append(tuple(sorted(V.entries)))
        return real_ball(V, d)

    def counting(n_i, k_i):
        for subset in real_subsets(n_i, k_i):
            visited.append(subset)
            yield subset

    monkeypatch.setattr(smallball, "small_ball_exact", recording)
    monkeypatch.setattr(structure, "_stability_subsets", counting)
    for values in _pin_family()[0]:
        calls.clear()
        visited.clear()
        try:
            refine_structure(WeightVector.exact(values), RAD, PIN_PARAMS)
        except SearchBudgetError:
            continue
        # The first call is is_rich's, the last verify_report's.
        stability = calls[1:-1]
        assert stability and len(set(stability)) == len(stability), values
    # The last vector, rank 2 of length 24, repeats multisets.
    assert len(stability) < len(visited), (len(stability), len(visited))


SKEW = make_distribution([-1, 0, 1], [F(1, 3), F(1, 6), F(1, 2)])
LAWS = {"rad": RAD, "skew": SKEW}


def _refine_repr(law):
    values = _pin_family()[0][-1]
    r = refine_structure(WeightVector.exact(values), LAWS[law], PIN_PARAMS)
    return repr((r, r.certificates))


def test_refine_memo_is_per_call():
    # p(W') depends on the law as well as on the values, so state kept from
    # one call, or keyed on values alone, would hand one law's p to the
    # other.  Each law's report alone comes from a fresh interpreter.
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT / "tests"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    alone = {}
    for law in LAWS:
        script = f"import test_structure as t; print(t._refine_repr({law!r}))"
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        alone[law] = proc.stdout.strip()
    assert alone["rad"] != alone["skew"]
    for order in (("rad", "skew"), ("skew", "rad")):
        assert [_refine_repr(law) for law in order] == [alone[law] for law in order]


def _mutate(report, **kwargs):
    base = dict(
        w_indices=report.w_indices,
        wprime_indices=report.wprime_indices,
        p=report.p,
        gap=report.gap,
        certificates={},
    )
    base.update(kwargs)
    return StructureReport(**base)


@pytest.fixture(scope="module")
def ones_report():
    return refine_structure(WeightVector.exact([1] * 16), RAD, PARAMS)


def test_verify_rejects_index_tamper(ones_report):
    V = WeightVector.exact([1] * 16)
    bad = _mutate(ones_report, wprime_indices=(0, 0, 1))
    res = verify_report(V, RAD, PARAMS, bad)
    assert not res.ok and "indices" in res.failed


def test_verify_rejects_membership_tamper(ones_report):
    # Point one W index at a value outside the GAP.
    V = WeightVector.exact([1] * 15 + [7])
    res = verify_report(V, RAD, PARAMS, ones_report)
    assert not res.ok and "membership" in res.failed


def test_verify_membership_cap_fails_but_bug_propagates(ones_report, monkeypatch):
    V = WeightVector.exact([1] * 16)

    def over_cap(P):
        raise CapExceededError("over cap")

    monkeypatch.setattr(gaps, "member_set", over_cap)
    res = verify_report(V, RAD, PARAMS, ones_report)
    assert not res.ok and "membership" in res.failed

    def broken(P):
        raise RuntimeError("bug")

    monkeypatch.setattr(gaps, "member_set", broken)
    with pytest.raises(RuntimeError):
        verify_report(V, RAD, PARAMS, ones_report)


def test_verify_rejects_p_tamper(ones_report):
    V = WeightVector.exact([1] * 16)
    # Tiny p inflates the volume bound requirement and breaks it.
    bad = _mutate(ones_report, p=ones_report.p / 10**6)
    res = verify_report(V, RAD, PARAMS, bad)
    assert not res.ok
    assert "volume_bound" in res.failed or "smallball_bound" in res.failed


def test_verify_p_below_float_range_fails_not_raises(ones_report):
    # 2 C0 / p exceeds the float range: the exact volume check still holds,
    # its display bound is inf, and the small-ball bound fails.
    V = WeightVector.exact([1] * 16)
    res = verify_report(V, RAD, PARAMS, _mutate(ones_report, p=F(1, 10**400)))
    assert not res.ok and res.failed == ("smallball_bound",)
    assert res.details["volume_bound"] == {"ok": True, "volume": 3, "bound": math.inf}


def test_verify_zero_p_fails_not_raises(ones_report):
    # A report read back with from_json can carry p = 0: no level, so the
    # volume bound fails, and its display bound is inf.
    V = WeightVector.exact([1] * 16)
    res = verify_report(V, RAD, PARAMS, _mutate(ones_report, p=F(0)))
    assert not res.ok and "volume_bound" in res.failed
    assert res.details["volume_bound"] == {"ok": False, "volume": 3, "bound": math.inf}


def test_verify_negative_p_fails_volume_bound():
    # p = -1/2 once passed against the negative bound 2 C0 / p / 4 = -10.
    V = WeightVector.exact([1] * 16)
    report = StructureReport(tuple(range(16)), (0,), F(-1, 2), Gap((F(1),), (F(4),)))
    res = verify_report(V, RAD, PARAMS, StructureReport.from_json(report.to_json()))
    assert res.details["volume_bound"] == {"ok": False, "volume": 9, "bound": -10.0}


def test_verify_empty_vector_with_rank1_gap_fails_not_raises():
    # n = 0 < rank makes n^(-rank/2), so the volume bound, infinite; the
    # small-ball bound, 0^(d0 eps) p = 0 below p(empty) = 1, still fails.
    report = StructureReport((), (), F(1, 2), Gap((F(1),), (F(1),)))
    res = verify_report(WeightVector.exact([]), RAD, PARAMS, report)
    assert res.failed == ("smallball_bound",)
    assert res.details["volume_bound"] == {"ok": True, "volume": 3, "bound": math.inf}
    res = verify_report(WeightVector.exact([]), RAD, PARAMS, _mutate(report, p=F(0)))
    assert res.failed == ("volume_bound", "smallball_bound")


def test_verify_p_halved_still_ok(ones_report):
    # Halving p keeps both bounds satisfied on the all-ones example:
    # slack is tested in both directions.
    V = WeightVector.exact([1] * 16)
    assert verify_report(V, RAD, PARAMS, _mutate(ones_report, p=ones_report.p / 2)).ok


def test_verification_result_stores_failed_and_details(ones_report):
    # ok is not stored: it is read off the failed certificates.
    V = WeightVector.exact([1] * 16)
    assert [f.name for f in fields(structure.VerificationResult)] == ["failed", "details"]
    bad = _mutate(ones_report, w_indices=(0,), wprime_indices=(0,))
    for report, ok in ((ones_report, True), (bad, False)):
        res = verify_report(V, RAD, PARAMS, report)
        assert res.ok == (not res.failed) == ok
        assert res.failed == tuple(k for k, cert in res.details.items() if not cert["ok"])


def test_per_item_results_have_no_dict(ones_report):
    # As CensusResult: a run that keeps a result per item holds thousands.
    V = WeightVector.exact([1] * 16)
    verified = verify_report(V, RAD, PARAMS, ones_report)
    for obj in (V, small_ball_exact(V, RAD), ones_report.gap, ones_report, verified):
        assert obj.__slots__ == tuple(f.name for f in fields(obj))
        assert not hasattr(obj, "__dict__")
    assert verified.ok and small_ball_exact(V, RAD).p == F(12870, 2**16)


def test_verify_rejects_bound_tamper(ones_report):
    V = WeightVector.exact([1] * 16)
    bad = _mutate(ones_report, w_indices=(0,), wprime_indices=(0,))
    res = verify_report(V, RAD, PARAMS, bad)
    assert not res.ok and "w_size_bound" in res.failed


def test_verify_volume_bound_at_the_cap(ones_report):
    # 2 C0 = 20, n = 16, rank 1: the bound is 20 / (4 p).  At p = 1 it is
    # exactly 5, the volume of dims (2,); just above p = 1 the cap is 4, and
    # the same volume is cap + 1.
    V = WeightVector.exact([1] * 16)
    gap = Gap((F(1),), (F(2),))
    for p, cap, ok in ((F(1), 5, True), (F(10**9 + 1, 10**9), 4, False)):
        assert _vol_cap(2 * PARAMS.C0, p, 16, 1) == cap
        res = verify_report(V, RAD, PARAMS, _mutate(ones_report, p=p, gap=gap))
        cert = res.details["volume_bound"]
        assert (cert["volume"], cert["ok"]) == (5, ok)


def test_report_json_roundtrip(ones_report):
    blob = ones_report.to_json()
    again = StructureReport.from_json(blob)
    assert again == ones_report


def test_params_validation():
    with pytest.raises(PreconditionError):
        StructureParams(eps=0.3)
    with pytest.raises(PreconditionError):
        StructureParams(d0=0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: StructureParams(C0=F(0)),
        lambda: StructureParams(C0=F(-1)),
        lambda: covering_gap_with_indices(WeightVector.numeric([1.0, 2.0]), m=0),
        lambda: covering_gap_with_indices(WeightVector.exact([1, 2]), m=-1),
        lambda: covering_gap_with_indices(WeightVector.exact([1, 2]), m=3),
    ],
    ids=["C0-0", "C0-negative", "numeric-vector", "m-below-0", "m-above-len"],
)
def test_contract_edges_raise(call):
    with pytest.raises(PreconditionError):
        call()
