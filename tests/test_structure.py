from fractions import Fraction

import pytest

from simplespectrum import gaps
from simplespectrum.dist import rademacher
from simplespectrum.errors import CapExceededError, PreconditionError
from simplespectrum.gaps import Gap, volume
from simplespectrum.smallball import WeightVector
from simplespectrum.structure import (
    StructureParams,
    StructureReport,
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
    assert find_covering_gap(V, m=0, r_max=1, vol_max=10) is None


def test_cover_rank2():
    # Base-100 digits need two generators at small volume.
    values = [a + 100 * b for a in (-2, -1, 0, 1, 2) for b in (-1, 0, 1)]
    g = find_covering_gap(WeightVector.exact(values), m=0, r_max=2, vol_max=100)
    assert g is not None
    assert g.rank <= 2
    from simplespectrum.gaps import member_set

    members = member_set(g)
    assert all(F(v) in members for v in values)


def test_cover_results_verified():
    import random

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


def test_refine_all_ones():
    V = WeightVector.exact([1] * 16)
    report = refine_structure(V, RAD, PARAMS)
    assert report.w_indices == tuple(range(16))
    assert len(report.wprime_indices) == 3  # floor(0.2 * 16)
    assert report.p == F(12870, 65536)
    assert report.gap == Gap((F(1),), (F(1),))
    assert verify_report(V, RAD, PARAMS, report).ok


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
