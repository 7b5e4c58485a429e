import json

import pytest

from varcong.congruence import EquivalenceRelation, NotPermutable, is_congruence
from varcong.malcev import (context_chain, kappa_q_list, lift_sharp,
                            rank_of_theta, rank_of_xi)
from varcong.synthesis import (CongDecomposition, classify,
                               enumerate_structurally, fuse, kappa_fuse,
                               kappa_split, lattice_dot, lattice_json,
                               lattice_size, split)
from varcong.systems import enumerate_csystems, enumerate_psystems
from varcong.variant import build_context


def test_split_lands_in_the_image(headline_ctx):
    ctx = headline_ctx
    xi, theta = split(ctx, ctx.kappa)
    assert xi == EquivalenceRelation.diagonal(len(ctx.T))
    assert theta == ctx.kappa
    assert rank_of_xi(ctx.T, xi) <= rank_of_theta(ctx, theta)


def test_fuse_round_trip_on_kappa(headline_ctx):
    ctx = headline_ctx
    assert fuse(ctx, *split(ctx, ctx.kappa)) == ctx.kappa
    assert fuse(ctx, *split(ctx, ctx.lam)) == ctx.lam
    assert fuse(ctx, *split(ctx, ctx.rho)) == ctx.rho


def test_fuse_rejects_rank_violations(headline_ctx):
    ctx = headline_ctx
    top_xi = context_chain(ctx).relations()[-2]  # collapse up to rank 2
    diag = EquivalenceRelation.diagonal(len(ctx.P))
    with pytest.raises(ValueError, match="image"):
        fuse(ctx, top_xi, diag)


def test_kappa_split_and_fuse(headline_ctx):
    ctx = headline_ctx
    th1, th2 = kappa_split(ctx, ctx.kappa)
    assert th1 == ctx.lam and th2 == ctx.rho
    assert kappa_fuse(ctx, th1, th2) == ctx.kappa
    with pytest.raises(ValueError):
        kappa_split(ctx, ctx.l_rel)  # not below kappa


def test_fuse_and_kappa_fuse_raise_when_the_parts_do_not_permute(headline_ctx):
    ctx = headline_ctx
    m = len(ctx.P)
    # x lam y rho z gives (x, z) in th1 o th2 but not (z, x)
    lam, rho = ctx.lam.blocks(), ctx.rho.blocks()
    y = next(y for y in range(m) if len(lam[ctx.lam.block_id[y]]) > 1
             and len(rho[ctx.rho.block_id[y]]) > 1)
    x = next(x for x in lam[ctx.lam.block_id[y]] if x != y)
    z = next(z for z in rho[ctx.rho.block_id[y]] if z != y)
    th1 = EquivalenceRelation.from_pairs(m, [(x, y)])
    th2 = EquivalenceRelation.from_pairs(m, [(y, z)])
    assert not (th1.compose(th2) == th1.join(th2).matrix()).all()
    with pytest.raises(NotPermutable):
        kappa_fuse(ctx, th1, th2)
    # the rank-1 ideal collapsed by xi, tied to one element outside it
    xi = context_chain(ctx).relations()[1]
    lifted = lift_sharp(ctx, xi)
    ideal = next(b for b in lifted.blocks() if len(b) > 1)
    outside = min(set(range(m)) - set(ideal))
    theta = kappa_q_list(ctx)[1].join(
        EquivalenceRelation.from_pairs(m, [(ideal[0], outside)]))
    assert rank_of_xi(ctx.T, xi) <= rank_of_theta(ctx, theta)
    assert not (lifted.compose(theta) == lifted.join(theta).matrix()).all()
    with pytest.raises(NotPermutable):
        fuse(ctx, xi, theta)


def test_classify_kappa(headline_ctx):
    dec = classify(headline_ctx, headline_ctx.kappa)
    assert isinstance(dec, CongDecomposition)
    assert (dec.q, dec.subgroup) == (1, "triv")
    assert dec.psystem.rank == 3 and dec.csystem.rank == 3
    report = dec.report()
    assert report["q"] == 1 and report["N"] == "triv"
    json.dumps(report)  # serializable as-is


def test_classify_diagonal(headline_ctx):
    dec = classify(headline_ctx,
                   EquivalenceRelation.diagonal(len(headline_ctx.P)))
    assert (dec.q, dec.subgroup) == (1, "triv")
    assert dec.psystem.rank == 1 and dec.csystem.rank == 0


def test_classify_rejects_universal(headline_ctx):
    with pytest.raises(ValueError):
        classify(headline_ctx,
                 EquivalenceRelation.universal(len(headline_ctx.P)))


def test_layered_lattice_headline(headline_ll):
    ll = headline_ll
    assert len(ll) == 271
    assert len(ll.thetas) == 90
    assert [len(ll.layers[pos]) for pos in range(len(ll.chain))] == [
        90, 75, 75, 10, 10, 10, 1]
    assert ll.layer_cover_violations == []
    h, chain = ll.height()
    assert h == 16
    assert len(chain) == 16


def test_layered_lattice_is_the_congruence_lattice(headline_ctx, headline_ll):
    seen = set()
    for c in headline_ll.congruences:
        assert is_congruence(c, headline_ctx.P)
        assert c.key() not in seen
        seen.add(c.key())


def test_index_of(headline_ctx, headline_ll):
    ll = headline_ll
    for rel in (headline_ctx.kappa, headline_ctx.lam, headline_ctx.rho):
        i = ll.index_of(rel)
        assert i is not None and ll.congruences[i] == rel
    assert ll.index_of(EquivalenceRelation.from_pairs(100, [(0, 1)])) is None


def test_lattice_json_payload(headline_ctx, headline_ll):
    payload = lattice_json(headline_ctx, headline_ll)
    assert payload["size"] == 271
    assert payload["height"] == 16
    assert payload["layer_cover_violations"] == []
    assert len(payload["nodes"]) == 271
    assert payload["special"]["kappa"] is not None
    node = payload["nodes"][payload["special"]["kappa"]]
    assert node["N"] == "triv" and node["q"] == 1
    json.dumps(payload)


def test_lattice_dot_output(headline_ctx, headline_ll):
    dot = lattice_dot(headline_ctx, headline_ll)
    assert dot.startswith("digraph")
    assert "cluster" in dot and "kappa" in dot
    assert dot.rstrip().endswith("}")


def test_structural_enumeration_small_shapes():
    for text, count in (("2: 1 1", 2), ("3: 1 2 2", 15), ("2: 1 2", 4)):
        ll = enumerate_structurally(build_context(text))
        assert len(ll) == count, text


def test_lattice_size_counts_the_sweep_before_building_it(sweep):
    for ctx, ll in sweep:
        psystems, csystems = enumerate_psystems(ctx), enumerate_csystems(ctx)
        # the kappa-part of (p, c) has the smaller of the two system ranks
        assert ll.theta_ranks == [min(p.rank, c.rank)
                                  for p in psystems for c in csystems]
        assert lattice_size(ll.chain.xi_ranks, psystems, csystems) == len(ll)
