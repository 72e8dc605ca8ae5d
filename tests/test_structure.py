import json
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from simplespectrum import gaps, structure
from simplespectrum.dist import rademacher
from simplespectrum.errors import CapExceededError, PreconditionError, SearchBudgetError
from simplespectrum.gaps import Gap, volume
from simplespectrum.smallball import WeightVector, small_ball_exact
from simplespectrum.structure import (
    StructureParams,
    StructureReport,
    _rank2_cover,
    _vol_bound_ok,
    _vol_cap,
    covering_gap_with_indices,
    find_covering_gap,
    refine_structure,
    verify_report,
)

F = Fraction
RAD = rademacher()
PARAMS = StructureParams(A=1.0, eps=0.2, d0=3, C0=F(10))


def test_cover_constant_vector():
    g = find_covering_gap(WeightVector.exact([1, 1, 1, 1, 1]), m=0)
    assert g == Gap((F(1),), (F(1),))
    assert volume(g) == 3


def test_cover_outlier():
    g = find_covering_gap(WeightVector.exact([1, 2, 3, 4, 5, 100]), m=1)
    assert g == Gap((F(1),), (F(5),))


def test_cover_incommensurable_returns_none():
    V = WeightVector.exact([F(1), F(10**6 + 1), F(7, 3)])
    assert find_covering_gap(V, m=0, vol_max=(10, 0)) is None


def test_cover_rank2():
    # Base-100 digits need two generators at small volume.
    values = [a + 100 * b for a in (-2, -1, 0, 1, 2) for b in (-1, 0, 1)]
    g = find_covering_gap(WeightVector.exact(values), m=0, vol_max=(100, 100))
    assert g is not None
    assert g.rank <= 2
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
    g = find_covering_gap(WeightVector.exact([0, 5]), m=1)
    assert g == Gap((F(5, 6),), (F(0),))


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
                assert _vol_bound_ok(cap, c0_over_p, F(1), n, rank)
                assert not _vol_bound_ok(cap + 1, c0_over_p, F(1), n, rank)
    # floor(float(c0/p) * n**(-r/2)) gives k - 1 for k = 1, 2, 3, 4, 6, ...
    assert all(_vol_cap(F(49 * k), F(1), 49, 2) == k for k in range(1, 40))


@pytest.mark.parametrize("d0", [1, 2, 3])
def test_refine_searches_once_per_cover(monkeypatch, d0):
    # With every search failing, the first cover fails after one call that
    # carries both exact per-rank caps.
    calls = []

    def failing(sub, m, vol_max, enum_cap):
        calls.append(vol_max)

    monkeypatch.setattr(structure, "covering_gap_with_indices", failing)
    V = WeightVector.exact([1] * 16)
    with pytest.raises(SearchBudgetError, match="initial"):
        refine_structure(V, RAD, replace(PARAMS, d0=d0, C0=F(100)))
    p = small_ball_exact(V, RAD).p
    cap2 = _vol_cap(F(100), p, 16, 2) if d0 >= 2 else 0
    assert calls == [(_vol_cap(F(100), p, 16, 1), cap2)]


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

    def over_cap(P, cap):
        raise CapExceededError("over cap")

    monkeypatch.setattr(gaps, "member_set", over_cap)
    res = verify_report(V, RAD, PARAMS, ones_report)
    assert not res.ok and "membership" in res.failed

    def broken(P, cap):
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


def test_verify_p_halved_still_ok(ones_report):
    # Halving p keeps both bounds satisfied on the all-ones example:
    # slack is tested in both directions.
    V = WeightVector.exact([1] * 16)
    assert verify_report(V, RAD, PARAMS, _mutate(ones_report, p=ones_report.p / 2)).ok


def test_verify_rejects_bound_tamper(ones_report):
    V = WeightVector.exact([1] * 16)
    bad = _mutate(ones_report, w_indices=(0,), wprime_indices=(0,))
    res = verify_report(V, RAD, PARAMS, bad)
    assert not res.ok and "w_size_bound" in res.failed


def test_report_json_roundtrip(ones_report):
    blob = ones_report.to_json()
    again = StructureReport.from_json(blob)
    assert again == ones_report


def test_params_validation():
    with pytest.raises(PreconditionError):
        StructureParams(eps=0.3)
    with pytest.raises(PreconditionError):
        StructureParams(d0=0)
