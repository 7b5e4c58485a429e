import numpy as np
import pytest

from varcong import lattice
from varcong.congruence import EquivalenceRelation
from varcong.lattice import (FiniteLattice, bell, hasse_covers, height_formula,
                             ht_interval_lambda, ht_interval_rho, stirling2)
from varcong.systems import set_partitions


def test_stirling_and_bell_numbers():
    assert stirling2(0, 0) == 1
    assert stirling2(3, 2) == 3
    assert stirling2(4, 2) == 7
    assert stirling2(5, 3) == 25
    assert [bell(n) for n in range(6)] == [1, 1, 2, 5, 15, 52]
    with pytest.raises(ValueError):
        stirling2(3, 4)
    with pytest.raises(ValueError):
        stirling2(3, -1)


@pytest.fixture(scope="module")
def partition_lattice_4():
    rels = [EquivalenceRelation.from_blocks(4, [list(b) for b in parts])
            for parts in set_partitions(list(range(4)))]
    return FiniteLattice(rels)


def test_finite_lattice_on_all_partitions(partition_lattice_4):
    lat = partition_lattice_4
    assert len(lat) == bell(4)
    # the diagonal sits below everything, the universal above
    d = next(i for i, r in enumerate(lat.nodes) if r.num_blocks() == 4)
    u = next(i for i, r in enumerate(lat.nodes) if r.num_blocks() == 1)
    assert lat.leq[d].all()
    assert lat.leq[:, u].all()
    # covers of the diagonal are exactly the six atoms (one merged pair)
    assert lat.covers[d].sum() == 6
    assert lat.covers[:, u].sum() == 7  # coatoms: partitions into two blocks


@pytest.mark.parametrize("block", [1, 7, 5 * 52, 1 << 16])
def test_hasse_covers_match_the_boolean_square(monkeypatch, block):
    # block sizes of one row, a few rows, and the whole matrix at once
    monkeypatch.setattr(lattice, "COVER_BLOCK", block)
    rels = [EquivalenceRelation.from_blocks(5, [list(b) for b in parts])
            for parts in set_partitions(list(range(5)))]
    leq = FiniteLattice(rels, check=False).leq
    strict = leq & ~np.eye(len(leq), dtype=bool)
    assert (hasse_covers(leq) == strict & ~(strict @ strict)).all()
    assert hasse_covers(np.ones((1, 1), dtype=bool)).tolist() == [[False]]


def test_finite_lattice_height(partition_lattice_4):
    h, chain = partition_lattice_4.height()
    assert h == 4
    blocks = [partition_lattice_4.nodes[i].num_blocks() for i in chain]
    assert blocks == [4, 3, 2, 1]
    for lo, hi in zip(chain, chain[1:]):
        assert partition_lattice_4.covers[lo, hi]


def test_finite_lattice_rejects_non_lattice():
    # two incomparable equivalences without their join present
    x = EquivalenceRelation.from_pairs(3, [(0, 1)])
    y = EquivalenceRelation.from_pairs(3, [(1, 2)])
    d = EquivalenceRelation.diagonal(3)
    with pytest.raises(ValueError):
        FiniteLattice([d, x, y])
    FiniteLattice([d, x, y], check=False)  # the check is optional


def test_interval_height_terms():
    assert ht_interval_rho((1, 1, 2)) == 5
    assert ht_interval_lambda(4, 3) == 6
    # a singleton-only kernel leaves no room on either side
    assert ht_interval_rho((1, 1, 1)) == 1
    assert ht_interval_lambda(3, 3) == 1


def test_height_formula_values():
    assert height_formula(4, (1, 1, 2)) == 16
    assert height_formula(3, (1, 1, 1)) == 7   # identity sandwich: the chain
    assert height_formula(4, (1, 1, 1, 1)) == 11
    # rank one gives the full partition lattice Eq(n), whose longest chain
    # merges one pair at a time: n nodes
    assert height_formula(3, (3,)) == 3
    assert height_formula(5, (5,)) == 5
    with pytest.raises(ValueError):
        height_formula(4, (1, 1))
    with pytest.raises(ValueError):
        height_formula(4, ())
