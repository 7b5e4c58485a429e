import numpy as np
import pytest

from varcong.congruence import (CapExceeded, EquivalenceRelation,
                                is_congruence)
from varcong.lattice import bell
from varcong.systems import (System, assemble_lambda, assemble_rho,
                             build_families, enumerate_csystems,
                             enumerate_psystems, interval, psi_extract_lambda,
                             psi_extract_rho, set_partitions)
from varcong.variant import build_context


def test_set_partitions_counts():
    for n in range(6):
        assert sum(1 for _ in set_partitions(range(n))) == bell(n)
    parts = set(set_partitions("ab"))
    assert parts == {(("a", "b"),), (("a",), ("b",))}


def test_coarsenings_and_refinements_are_dual():
    x = EquivalenceRelation.from_pairs(4, [(0, 1)])
    up = list(interval(x, EquivalenceRelation.universal(4)))
    down = list(interval(EquivalenceRelation.diagonal(4), x))
    assert len(up) == bell(3)      # one per partition of the three blocks
    assert len(down) == 2          # split the pair or keep it
    for y in up:
        assert x.leq(y)
    for y in down:
        assert y.leq(x)
    everything = list(interval(EquivalenceRelation.diagonal(4),
                               EquivalenceRelation.universal(4)))
    assert len(set(everything)) == len(everything) == bell(4)


ALL_5 = [EquivalenceRelation(np.array(
    [next(j for j, b in enumerate(p) if x in b) for x in range(5)]))
    for p in set_partitions(range(5))]


def test_interval_is_the_filtered_lattice():
    assert len(set(ALL_5)) == bell(5) == 52
    for lower in ALL_5:
        for upper in ALL_5:
            got = list(interval(lower, upper))
            assert len(set(got)) == len(got)
            want = {z for z in ALL_5 if lower.leq(z) and z.leq(upper)}
            assert set(got) == want
            if not lower.leq(upper):
                assert got == []


def test_interval_keeps_the_one_sided_orders():
    """With one bound trivial, the order is set_partitions' order: of the
    blocks of `lower` below the universal relation, and of the points of
    each block of `upper`, last block fastest, above the diagonal."""
    x = EquivalenceRelation.from_pairs(5, [(0, 3), (1, 4)])
    blocks = x.blocks()
    merged = []
    for part in set_partitions(range(len(blocks))):
        labels = np.empty(5, dtype=np.int64)
        for j, group in enumerate(part):
            for b in group:
                labels[blocks[b]] = j
        merged.append(EquivalenceRelation(labels))
    assert list(interval(x, EquivalenceRelation.universal(5))) == merged
    split = [EquivalenceRelation(np.array(
        [next(j for j, b in enumerate(p0 + p1 + p2) if y in b) for y in range(5)]))
        for p0 in set_partitions(blocks[0]) for p1 in set_partitions(blocks[1])
        for p2 in set_partitions(blocks[2])]
    assert list(interval(EquivalenceRelation.diagonal(5), x)) == split


@pytest.fixture(scope="module")
def families(headline_ctx):
    return build_families(headline_ctx)


def test_cross_section_family_shape(headline_ctx, families):
    cfam, _ = families
    assert len(cfam.keys) == 7
    # blocks of a = (1,2,3,3) are {1}, {2}, {3,4}
    sizes = {tuple(cfam.label(m)): len(cfam.members[m]) for m in cfam.keys}
    assert sizes == {(1, 2, 3): 2, (1, 2): 1, (1, 3): 2, (2, 3): 2,
                     (1,): 1, (2,): 1, (3,): 2}
    full = max(cfam.keys, key=lambda m: bin(m).count("1"))
    assert sorted(cfam.members[full]) == [(1, 2, 3), (1, 2, 4)]
    # restriction maps drop one coordinate
    for sub, m in cfam.down_maps[full]:
        assert len(m) == len(cfam.members[full])
        assert all(0 <= j < len(cfam.members[sub]) for j in m)


def test_cross_section_slots(headline_ctx, families):
    cfam, _ = families
    assert len(cfam.class_keys) == headline_ctx.rho.num_blocks()
    for mask, slots in zip(cfam.class_keys, cfam.class_elems):
        assert len(slots) == len(cfam.members[mask])
        assert (slots >= 0).all()
        # the slot map really inverts the per-element coordinates
        for j, f in enumerate(slots):
            assert cfam.elem_keys[f] == mask and cfam.elem_index[f] == j


def test_partition_family_shape(headline_ctx, families):
    _, pfam = families
    assert len(pfam.keys) == bell(3)
    for ikey in pfam.keys:
        assert len(pfam.members[ikey]) == len(ikey) ** 1  # n - r = 1
    finest = pfam.keys[-1]
    assert finest == ((0,), (1,), (2,))
    assert set(pfam.members[finest]) == {
        ((1, 4), (2,), (3,)), ((1,), (2, 4), (3,)), ((1,), (2,), (3, 4))}
    for jkey, m in pfam.down_maps[finest]:
        assert len(jkey) == 2 and len(m) == 3


def test_partition_slots(headline_ctx, families):
    _, pfam = families
    assert len(pfam.class_keys) == headline_ctx.lam.num_blocks()
    for ikey, slots in zip(pfam.class_keys, pfam.class_elems):
        assert len(slots) == len(pfam.members[ikey])
        for j, f in enumerate(slots):
            assert pfam.elem_keys[f] == ikey and pfam.elem_index[f] == j


def test_extract_assemble_round_trip_rho(headline_ctx):
    ctx = headline_ctx
    sys_rho = psi_extract_rho(ctx, ctx.rho)
    assert all(rel.num_blocks() == 1 for rel in sys_rho.psi.values())
    assert sys_rho.rank == ctx.r
    assert assemble_rho(ctx, sys_rho) == ctx.rho

    diag = EquivalenceRelation.diagonal(len(ctx.P))
    sys_diag = psi_extract_rho(ctx, diag)
    assert sys_diag.rank == 0  # the lone two-point singleton set splits
    assert assemble_rho(ctx, sys_diag) == diag


def test_extract_assemble_round_trip_lambda(headline_ctx):
    ctx = headline_ctx
    sys_lam = psi_extract_lambda(ctx, ctx.lam)
    assert all(rel.num_blocks() == 1 for rel in sys_lam.psi.values())
    assert assemble_lambda(ctx, sys_lam) == ctx.lam

    diag = EquivalenceRelation.diagonal(len(ctx.P))
    assert psi_extract_lambda(ctx, diag).rank == 1
    assert assemble_lambda(ctx, psi_extract_lambda(ctx, diag)) == diag


def test_extract_rejects_relations_outside_the_interval(headline_ctx):
    ctx = headline_ctx
    with pytest.raises(ValueError):
        psi_extract_rho(ctx, ctx.kappa)
    with pytest.raises(ValueError):
        psi_extract_lambda(ctx, ctx.rho)


def test_incoherent_family_is_rejected(headline_ctx, families):
    cfam, _ = families
    psi = {}
    for mask in cfam.keys:
        k = len(cfam.members[mask])
        psi[mask] = (EquivalenceRelation.universal(k)
                     if bin(mask).count("1") == 3
                     else EquivalenceRelation.diagonal(k))
    # collapsing the full cross-sections forces the pairs below
    with pytest.raises(ValueError, match="coherent"):
        System(cfam, psi)


def test_enumerations_match_interval_sizes(headline_ctx, headline_oracle):
    ctx = headline_ctx
    csystems = enumerate_csystems(ctx)
    psystems = enumerate_psystems(ctx)
    assert len(csystems) == 6
    assert len(psystems) == 15
    assert len(set(csystems)) == 6 and len(set(psystems)) == 15

    rho_rels = [assemble_rho(ctx, s) for s in csystems]
    lam_rels = [assemble_lambda(ctx, s) for s in psystems]
    for rel in rho_rels:
        assert rel.leq(ctx.rho) and is_congruence(rel, ctx.P)
    for rel in lam_rels:
        assert rel.leq(ctx.lam) and is_congruence(rel, ctx.P)

    # the oracle agrees interval by interval
    oracle_rho = {c.key() for c in headline_oracle if c.leq(ctx.rho)}
    oracle_lam = {c.key() for c in headline_oracle if c.leq(ctx.lam)}
    assert {rel.key() for rel in rho_rels} == oracle_rho
    assert {rel.key() for rel in lam_rels} == oracle_lam


def test_enumeration_cap(headline_ctx):
    with pytest.raises(CapExceeded):
        enumerate_csystems(headline_ctx, cap=3)
    with pytest.raises(CapExceeded):
        enumerate_psystems(headline_ctx, cap=3)


def test_system_serialization(headline_ctx):
    ctx = headline_ctx
    sys_rho = psi_extract_rho(ctx, ctx.rho)
    blob = sys_rho.serialize()
    assert set(blob) == {"[1]", "[2]", "[3]", "[1, 2]", "[1, 3]", "[2, 3]",
                         "[1, 2, 3]"}
    assert blob["[1, 2, 3]"] == [[0, 1]]
    sys_lam = psi_extract_lambda(ctx, ctx.lam)
    assert "[[1], [2], [3]]" in sys_lam.serialize()


@pytest.mark.parametrize("a, pranks, cranks", [
    ("4: 1 2 3 3", [3, 2, 2, 2, 2] + [1] * 10, [3, 2, 1, 1, 1, 0]),
    ("4: 1 1 3 3", [2] + [1] * 14,
     [2, 1, 1, 0, 1, 1, 0, 1, 1, 1, 1, 0, 1, 1, 0, 1, 0, 1, 0, 1, 1, 0, 0, 0]),
])
def test_enumeration_order_is_pinned(a, pranks, cranks):
    # the order sets the node ids of lattice_json and its witness chain
    ctx = build_context(a)
    assert [s.rank for s in enumerate_psystems(ctx)] == pranks
    assert [s.rank for s in enumerate_csystems(ctx)] == cranks
