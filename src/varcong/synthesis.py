"""Top-level assembly of the congruence lattice of the regular part.

A congruence of P is a pair: a chain congruence of the image monoid T and a
congruence below kappa, subject to a rank inequality; the kappa part in turn
splits into independent lambda and rho parts, which are carried by partition
and cross-section systems.  This module provides the two splits and their
inverses, the structural enumeration built from them, and the classifier
that names every congruence by its (chain entry, P-system, C-system) triple.
"""

from collections import Counter

import numpy as np

from .congruence import CapExceeded, EquivalenceRelation, is_congruence
from .lattice import FiniteLattice
from .malcev import context_chain, kappa_q_list, lift_sharp, rank_of_theta, rank_of_xi
from .systems import (assemble_lambda, assemble_rho, enumerate_csystems,
                      enumerate_psystems, psi_extract_lambda, psi_extract_rho)
from .transform import format_transformation


def split(ctx, sigma):
    """A congruence of P as (restriction to T, part below kappa)."""
    xi = sigma.restrict(ctx.t_in_p)
    theta = sigma.meet(ctx.kappa)
    assert rank_of_xi(ctx.T, xi) <= rank_of_theta(ctx, theta)
    return xi, theta


def fuse(ctx, xi, theta):
    """The congruence of P with T-part xi and kappa-part theta.

    The lifted T-part and theta permute, so their relational product is
    already their join; permuting_join checks that and raises otherwise.
    """
    rx = rank_of_xi(ctx.T, xi)
    rt = rank_of_theta(ctx, theta)
    if rx > rt:
        raise ValueError(f"rank {rx} T-part with rank {rt} kappa-part is "
                         "outside the image of the pairing")
    sigma = lift_sharp(ctx, xi).permuting_join(theta)
    assert is_congruence(sigma, ctx.P)
    return sigma


def kappa_split(ctx, theta):
    """A congruence below kappa as (lambda part, rho part)."""
    if not theta.leq(ctx.kappa):
        raise ValueError("theta is not below kappa")
    return theta.meet(ctx.lam), theta.meet(ctx.rho)


def kappa_fuse(ctx, th1, th2):
    """The congruence below kappa with the given lambda and rho parts."""
    if not th1.leq(ctx.lam):
        raise ValueError("first argument is not below lambda")
    if not th2.leq(ctx.rho):
        raise ValueError("second argument is not below rho")
    return th1.permuting_join(th2)


class CongDecomposition:
    """The classifying triple of a non-universal congruence: a chain entry
    (q, N) on the T side plus one system per side of kappa."""

    __slots__ = ("q", "subgroup", "psystem", "csystem")

    def __init__(self, q, subgroup, psystem, csystem):
        self.q = q
        self.subgroup = subgroup
        self.psystem = psystem
        self.csystem = csystem
        assert psystem.rank >= q - 1 and csystem.rank >= q - 1

    def report(self):
        return {"q": self.q, "N": self.subgroup,
                "psystem_rank": self.psystem.rank,
                "csystem_rank": self.csystem.rank,
                "psystem": self.psystem.serialize(),
                "csystem": self.csystem.serialize()}

    def __repr__(self):
        return (f"CongDecomposition(q={self.q}, N={self.subgroup!r}, "
                f"ranks=({self.psystem.rank},{self.csystem.rank}))")


def classify(ctx, sigma):
    """Decompose a non-universal congruence of P into its classifying triple
    and re-synthesize it as a check."""
    if sigma == EquivalenceRelation.universal(len(ctx.P)):
        raise ValueError("the universal congruence is excluded from the "
                         "classification; every other congruence decomposes")
    assert is_congruence(sigma, ctx.P)
    xi, theta = split(ctx, sigma)
    chain = context_chain(ctx)
    pos = chain.position(xi)
    assert pos is not None, "restriction to T must land in the chain"
    q, name, _ = chain.entries[pos]
    assert name != "univ" or ctx.r == 1
    if name == "univ":
        q, name = 1, "triv"
    th1, th2 = kappa_split(ctx, theta)
    dec = CongDecomposition(q, name, psi_extract_lambda(ctx, th1),
                            psi_extract_rho(ctx, th2))

    # the three parts compose, in this order, back to sigma
    resynthesized = lift_sharp(ctx, xi).permuting_join(th1.permuting_join(th2))
    assert resynthesized == sigma
    return dec


def lattice_size(xi_ranks, psystems, csystems):
    """|Cong(P)| counted from the system ranks, with no congruence built: the
    kappa-part of (p, c) has rank min(rank p, rank c), and the chain entry
    at each position takes the kappa-parts of rank at least its xi-rank."""
    pranks = Counter(s.rank for s in psystems)
    cranks = Counter(s.rank for s in csystems)
    return sum(x * y for need in xi_ranks
               for a, x in pranks.items() for b, y in cranks.items()
               if min(a, b) >= need)


class LayeredLattice:
    """Cong(P) arranged by T-part: one layer per chain entry, each holding
    the kappa-parts of sufficient rank.  The lattice is counted before it is
    built, and refused when its k*k order matrix would exceed `cap`."""

    def __init__(self, ctx, cap=10 ** 7):
        self.chain = context_chain(ctx)
        csystems = enumerate_csystems(ctx, cap=cap)
        psystems = enumerate_psystems(ctx, cap=cap)
        k = lattice_size(self.chain.xi_ranks, psystems, csystems)
        if k * k > cap:
            raise CapExceeded("lattice order matrix", k * k, cap)
        rho_part = [assemble_rho(ctx, s) for s in csystems]
        lam_part = [assemble_lambda(ctx, s) for s in psystems]
        self.thetas = [kappa_fuse(ctx, t1, t2)
                       for t1 in lam_part for t2 in rho_part]
        assert len({th.key() for th in self.thetas}) == len(self.thetas)
        self.theta_ranks = [rank_of_theta(ctx, th) for th in self.thetas]

        self.node_layer = []
        self.node_theta = []
        congruences = []
        self.layers = {}
        for pos in range(len(self.chain)):
            xi = self.chain.entries[pos][2]
            need = self.chain.xi_ranks[pos]
            ids = []
            for j, (th, tr) in enumerate(zip(self.thetas, self.theta_ranks)):
                if tr >= need:
                    ids.append(len(congruences))
                    self.node_layer.append(pos)
                    self.node_theta.append(j)
                    congruences.append(fuse(ctx, xi, th))
            self.layers[pos] = ids
        assert len({c.key() for c in congruences}) == len(congruences)
        self.congruences = congruences
        self.lattice = FiniteLattice(congruences, check=False)
        self.hasse = self.lattice.covers
        self.layer_cover_violations = self._check_layer_covers()

    def _check_layer_covers(self):
        """Consecutive chain entries with the same kappa-part should sit one
        directly above the other; violations are reported, not assumed away."""
        where = {}
        for node, (pos, j) in enumerate(zip(self.node_layer, self.node_theta)):
            where[pos, j] = node
        bad = []
        for pos in range(len(self.chain) - 1):
            for j in self.layers[pos + 1]:
                theta_idx = self.node_theta[j]
                lo = where[self.node_layer[j] - 1, theta_idx]
                if not self.hasse[lo, j]:
                    bad.append((pos + 1, theta_idx))
        return bad

    def __len__(self):
        return len(self.congruences)

    def height(self):
        return self.lattice.height()

    def index_of(self, rel):
        for i, c in enumerate(self.congruences):
            if c == rel:
                return i
        return None


def enumerate_structurally(ctx, cap=10 ** 7):
    """All congruences of P assembled from chain entries and systems."""
    return LayeredLattice(ctx, cap=cap)


def _special_nodes(ctx, ll):
    """Distinguished congruences worth highlighting in exports."""
    out = {"kappa": ll.index_of(ctx.kappa),
           "lambda": ll.index_of(ctx.lam),
           "rho": ll.index_of(ctx.rho)}
    for q, kq in enumerate(kappa_q_list(ctx)):
        out[f"kappa_{q}"] = ll.index_of(kq)
    return out


def lattice_json(ctx, ll):
    """JSON-ready digest: nodes with layer and rank metadata, cover edges,
    special congruences, and the longest chain."""
    h, witness = ll.height()
    edges = [[int(lo), int(hi)] for lo, hi in zip(*np.nonzero(ll.hasse))]
    nodes = []
    for i, cong in enumerate(ll.congruences):
        pos = ll.node_layer[i]
        q, name, _ = ll.chain.entries[pos]
        nodes.append({"id": i, "classes": cong.num_blocks(),
                      "layer": pos, "q": q, "N": name,
                      "theta_rank": ll.theta_ranks[ll.node_theta[i]]})
    return {"sandwich": format_transformation(ctx.sand.a),
            "size": len(ll),
            "height": h,
            "longest_chain": [int(i) for i in witness],
            "layers": [{"q": q, "N": name, "size": len(ll.layers[pos])}
                       for pos, (q, name, _) in enumerate(ll.chain.entries)],
            "layer_cover_violations": [list(v) for v in ll.layer_cover_violations],
            "special": _special_nodes(ctx, ll),
            "nodes": nodes,
            "cover_edges": edges}


_SPECIAL_COLORS = {"kappa": "red", "lambda": "blue", "rho": "forestgreen"}


def lattice_dot(ctx, ll):
    """Hasse diagram in DOT, one ranked cluster per layer, with kappa,
    lambda, rho and the kappa_q chain highlighted."""
    special = _special_nodes(ctx, ll)
    color = {}
    label_extra = {}
    for name, idx in special.items():
        if idx is None:
            continue
        color[idx] = _SPECIAL_COLORS.get(name, "orange")
        label_extra.setdefault(idx, []).append(name)
    lines = ["digraph cong {", "  rankdir=BT;",
             '  node [shape=circle, fontsize=8, width=0.25, fixedsize=false];']
    for pos in range(len(ll.chain)):
        q, name, _ = ll.chain.entries[pos]
        lines.append(f"  subgraph cluster_{pos} {{")
        lines.append(f'    label="q={q} N={name}"; color=grey;')
        for i in ll.layers[pos]:
            extra = ",".join(label_extra.get(i, []))
            label = f"{ll.congruences[i].num_blocks()}"
            if extra:
                label += f"\\n{extra}"
            style = ""
            if i in color:
                style = f', style=filled, fillcolor="{color[i]}", fontcolor=white'
            lines.append(f'    n{i} [label="{label}"{style}];')
        lines.append("  }")
    for lo, hi in zip(*np.nonzero(ll.hasse)):
        lines.append(f"  n{int(lo)} -> n{int(hi)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
