import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from simplespectrum.dist import (
    AtomicDistribution,
    make_distribution,
    rademacher,
)
from simplespectrum.errors import DistributionError


def test_rademacher():
    d = make_distribution([-1, 1], [Fraction(1, 2), Fraction(1, 2)])
    assert d.atoms == (Fraction(-1), Fraction(1))


def test_duplicate_atoms_merge():
    d = make_distribution([3, 3], [Fraction(1, 2), Fraction(1, 2)])
    assert d.atoms == (Fraction(3),)
    assert d.probs == (Fraction(1),)


def test_atoms_sorted():
    d = make_distribution([5, -1, 2], ["1/3", "1/3", "1/3"])
    assert d.atoms == (Fraction(-1), Fraction(2), Fraction(5))


def test_length_mismatch():
    with pytest.raises(DistributionError):
        make_distribution([1, 2], [1])


def test_empty_distribution():
    # make_distribution leaves the refusal to AtomicDistribution.
    for build in (make_distribution, AtomicDistribution):
        with pytest.raises(DistributionError, match="at least one atom"):
            build((), ())


def test_nonpositive_probability():
    with pytest.raises(DistributionError):
        make_distribution([1, 2], [Fraction(3, 2), Fraction(-1, 2)])


def test_probs_must_sum_to_one():
    with pytest.raises(DistributionError):
        make_distribution([1, 2], [Fraction(1, 2), Fraction(1, 3)])


def test_idempotent():
    d = make_distribution([0, 1, 1], [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
    again = make_distribution(d.atoms, d.probs)
    assert again == d


def test_json_roundtrip():
    blob = {"atoms": ["-1", "1"], "probs": ["1/2", "1/2"]}
    assert AtomicDistribution.from_json(blob) == rademacher()


@given(
    st.lists(
        st.tuples(
            st.integers(-20, 20),
            st.integers(1, 50),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_margin_range(pairs):
    atoms = [a for a, _ in pairs]
    weights = [w for _, w in pairs]
    total = sum(weights)
    d = make_distribution(atoms, [Fraction(w, total) for w in weights])
    mu = 1 - max(d.probs)
    k = len(d.atoms)
    assert 0 <= mu <= 1 - Fraction(1, k)
    assert (mu == 0) == (k == 1)
    assert sum(d.probs) == 1


@pytest.mark.parametrize(
    "atoms, probs",
    [
        ((Fraction(0), Fraction(1)), (Fraction(1),)),
        ((Fraction(0), Fraction(1)), (Fraction(3, 2), Fraction(-1, 2))),
        ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))),
        ((Fraction(1), Fraction(0)), (Fraction(1, 2), Fraction(1, 2))),
        ((Fraction(1), Fraction(1)), (Fraction(1, 2), Fraction(1, 2))),
    ],
    ids=["unequal-lengths", "negative-mass", "zero-mass", "unsorted", "repeated-atom"],
)
def test_contract_edges_raise(atoms, probs):
    with pytest.raises(DistributionError):
        AtomicDistribution(atoms, probs)


def test_hash_is_kept_across_pickle(monkeypatch):
    # Workers get their distributions by pickle, and _atom_table's cache
    # looks each draw up by the hash, computed once per instance: no later
    # lookup rehashes the Fractions.
    d = make_distribution([0, 1], ["23/25", "2/25"])
    e = make_distribution(["1", 0], [Fraction(2, 25), Fraction(23, 25)])
    expected = hash((d.atoms, d.probs))
    monkeypatch.setattr(Fraction, "__hash__", lambda self: pytest.fail("Fraction rehashed"))
    for x in (d, e, pickle.loads(pickle.dumps(d)), pickle.loads(pickle.dumps(e))):
        assert x == d and hash(x) == expected
    assert {d: 1}[pickle.loads(pickle.dumps(e))] == 1
