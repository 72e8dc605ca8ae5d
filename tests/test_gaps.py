from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplespectrum.errors import CapExceededError
from simplespectrum.gaps import Gap, full_rank_reduce, is_proper, member_set, volume

F = Fraction


def gap(gens, dims):
    return Gap(tuple(F(g) for g in gens), tuple(F(m) for m in dims))


def test_volume_trivial():
    assert volume(Gap.trivial()) == 1


def test_volume_rank1():
    assert volume(gap([1], [2])) == 5


def test_volume_rank2():
    assert volume(gap([1, 2], [2, 1])) == 15


def test_volume_fractional_dims_floor():
    assert volume(gap([1], ["5/2"])) == 5


def test_enumerate_rank1():
    P = gap([1], [2])
    assert sorted(member_set(P)) == [-2, -1, 0, 1, 2]
    assert is_proper(P)


def test_enumerate_collision_retained():
    # 15 box points but 9 members: (0,0), (2,-1) and (-2,1) all map to 0.
    P = gap([1, 2], [2, 1])
    assert volume(P) == 15
    assert member_set(P) == {F(k) for k in range(-4, 5)}
    assert not is_proper(P)


def test_enumerate_trivial():
    assert member_set(Gap.trivial()) == {F(0)}
    assert is_proper(Gap.trivial())


def test_enumerate_cap():
    for f in (member_set, is_proper):
        with pytest.raises(CapExceededError):
            f(gap([1], [100]), cap=10)


def test_proper_examples():
    assert is_proper(gap([1], [5]))
    assert not is_proper(gap([1, 2], [2, 1]))
    assert is_proper(gap([1, 10], [4, 4]))


def test_contains_examples():
    P = gap([1], [2])
    assert F(2) in member_set(P)
    assert F(3) not in member_set(P)
    assert F(4) in member_set(gap([1, 2], [2, 1]))  # m = (2, 1)


@given(
    st.lists(st.fractions(min_value=-5, max_value=5), min_size=0, max_size=3),
    st.lists(st.integers(0, 3), min_size=0, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_symmetry_and_zero(gens, dims):
    r = min(len(gens), len(dims))
    P = Gap(tuple(gens[:r]), tuple(F(d) for d in dims[:r]))
    members = member_set(P, cap=10**4)
    assert F(0) in members
    assert all(-x in members for x in members)
    assert is_proper(P, cap=10**4) == (
        len(member_set(P, cap=10**4)) == volume(P)
    )


def test_reduce_full_rank_unchanged():
    # Sigma contains (1,0) and (0,1): already spanning.
    P_I = gap([1, 2], [1, 1])
    P = gap([1], [3])
    assert full_rank_reduce(P_I, P) == P_I


def test_reduce_huge_generator_dropped():
    P_I = gap([1, 10**6], [3, 3])
    P = gap([1], [3])
    reduced = full_rank_reduce(P_I, P)
    assert reduced.rank == 1
    assert member_set(reduced, 10**4) & member_set(P, 10**4) == member_set(
        P_I, 10**4
    ) & member_set(P, 10**4)


def test_reduce_to_trivial():
    P_I = gap([5], [2])
    P = gap([1], [2])
    reduced = full_rank_reduce(P_I, P)
    assert reduced == Gap.trivial()
    assert member_set(reduced, 100) & member_set(P, 100) == member_set(
        P_I, 100
    ) & member_set(P, 100) == {F(0)}


def test_reduce_two_steps():
    # Two incommensurably huge generators drop one per recursion step.
    P_I = gap([1, 10**6, 10**9], [2, 2, 2])
    P = gap([1], [2])
    reduced = full_rank_reduce(P_I, P)
    assert reduced.rank == 1
    lhs = member_set(reduced, 10**4) & member_set(P, 10**4)
    rhs = member_set(P_I, 10**4) & member_set(P, 10**4)
    assert lhs == rhs


def test_reduce_never_increases_rank_or_volume():
    import random

    rng = random.Random(0)
    for _ in range(50):
        r = rng.randint(1, 3)
        gens = [
            F(rng.randint(1, 5)) * (10 ** (3 * i) if rng.random() < 0.5 else 1)
            for i in range(r)
        ]
        dims = [F(rng.randint(0, 2)) for _ in range(r)]
        P_I = Gap(tuple(gens), tuple(dims))
        P = gap([1], [rng.randint(0, 4)])
        reduced = full_rank_reduce(P_I, P, cap=10**5)
        assert reduced.rank <= P_I.rank
        assert volume(reduced) <= volume(P_I)
        lhs = member_set(reduced, 10**5) & member_set(P, 10**5)
        rhs = member_set(P_I, 10**5) & member_set(P, 10**5)
        assert lhs == rhs


@pytest.mark.parametrize(
    "generators, dims",
    [
        ((Fraction(1), Fraction(2)), (Fraction(1),)),
        ((Fraction(1),), (Fraction(-1, 2),)),
    ],
    ids=["unequal-lengths", "negative-dim"],
)
def test_contract_edges_raise(generators, dims):
    with pytest.raises(ValueError):
        Gap(generators, dims)
