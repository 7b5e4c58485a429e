"""The classical layer: ideals, Rees-type congruences, normal subgroups of
group H-classes, and the congruence chain of the rank-r image monoid T.

Congruences of T come in the shape R(I_{q-1}, N) = collapse the ideal of
rank < q, and collapse the rank-q D-class modulo nu_N for a normal
subgroup N of a group H-class there.  The chain orders them by q, then
by |N|, with the universal congruence on top.
"""

import numpy as np

from .congruence import (EquivalenceRelation, components, congruence_closure,
                         is_congruence)
from .transform import rank as t_rank


class GroupHClass:
    """A group H-class inside a tabulated semigroup."""

    def __init__(self, S, members):
        self.S = S
        self.members = sorted(int(x) for x in members)
        mul = S.mul
        inside = set(self.members)
        ident = None
        for e in self.members:
            if mul[e, e] == e:
                ident = e
        if ident is None:
            raise ValueError("H-class has no idempotent, not a group")
        self.identity = ident
        for x in self.members:
            if any(int(mul[x, y]) not in inside for y in self.members):
                raise ValueError("H-class not closed, not a group")
        self._inverse = {}
        for x in self.members:
            for y in self.members:
                if mul[x, y] == ident and mul[y, x] == ident:
                    self._inverse[x] = y
        if len(self._inverse) != len(self.members):
            raise ValueError("H-class element lacks an inverse, not a group")

    def __len__(self):
        return len(self.members)

    def inverse(self, x):
        return self._inverse[x]

    def conjugacy_classes(self):
        mul = self.S.mul
        done = set()
        classes = []
        for x in self.members:
            if x in done:
                continue
            cls = {int(mul[mul[g, x], self._inverse[g]]) for g in self.members}
            done |= cls
            classes.append(sorted(cls))
        classes.sort(key=lambda c: c[0])
        return classes

    def normal_subgroups(self):
        """All normal subgroups, as sorted index lists, smallest first.

        Brute force: a union of conjugacy classes containing the identity
        is a normal subgroup iff it is closed under the product.
        """
        classes = self.conjugacy_classes()
        ident_cls = next(c for c in classes if self.identity in c)
        rest = [c for c in classes if c is not ident_cls]
        mul = self.S.mul
        found = []
        for mask in range(1 << len(rest)):
            subset = set(ident_cls)
            for i, c in enumerate(rest):
                if mask >> i & 1:
                    subset |= set(c)
            if all(int(mul[x, y]) in subset for x in subset for y in subset):
                found.append(sorted(subset))
        found.sort(key=lambda s: (len(s), s))
        return found

    def subgroup_name(self, N):
        """triv / V / A / S naming against the symmetric-group classification."""
        size, order = len(N), len(self.members)
        if size == 1:
            return "triv"
        if size == order:
            return "S"
        if 2 * size == order:
            return "A"
        assert size == 4 and order == 24, f"unexpected normal subgroup of size {size}"
        return "V"


def element_ranks(S):
    return np.array([t_rank(f) for f in S.elements])


def group_h_class(S, q):
    """The canonical group H-class of the rank-q D-class: the one containing
    the smallest-index rank-q idempotent."""
    ranks = element_ranks(S)
    g = S.greens()
    for e in S.idempotent_indices():
        if ranks[e] == q:
            members = np.nonzero(g.h_class == g.h_class[e])[0]
            return GroupHClass(S, members)
    raise ValueError(f"no rank-{q} idempotent")


def nu_N(S, j_members, N, group=None):
    """The relation nu_N as an array of index pairs inside the class J.

    Raw definition: pairs (a x b, a y b) over x, y in N and a, b in S^1,
    kept when both products land in J.  Translation maps are built once
    per x in N.
    """
    mul = S.mul
    m = len(mul)
    in_j = np.zeros(m, dtype=bool)
    in_j[np.asarray(list(j_members))] = True
    trans = {}
    for x in N:
        lx = np.concatenate([[x], mul[:, x]])          # a x over a in S^1
        trans[x] = np.concatenate([lx[:, None], mul[lx, :]], axis=1)  # a x b
    chunks = []
    for x in N:
        for y in N:
            mx, my = trans[x], trans[y]
            mask = in_j[mx] & in_j[my]
            if mask.any():
                chunks.append(np.stack([mx[mask], my[mask]], axis=1))
    if not chunks:
        return np.empty((0, 2), dtype=np.int64)
    pairs = np.unique(np.concatenate(chunks), axis=0)
    return pairs


def rees_with_group(S, q, N, check=True):
    """R(I_{q-1}, N): collapse everything of rank < q, and the rank-q
    D-class modulo nu_N."""
    ranks = element_ranks(S)
    if not 1 <= q <= ranks.max():
        raise ValueError(f"q={q} out of range")
    ideal = np.nonzero(ranks < q)[0]
    d_q = np.nonzero(ranks == q)[0]
    nu = nu_N(S, d_q, N)
    # the ideal as one path, then the pairs of nu_N
    rel = EquivalenceRelation(components(
        len(S), np.concatenate([ideal[:-1], nu[:, 0]]),
        np.concatenate([ideal[1:], nu[:, 1]])))
    if check:
        assert is_congruence(rel, S), "R(I,N) failed the congruence check"
    return rel


class MalcevChain:
    """Congruences of T in increasing order with their (q, N) labels.

    Entries are triples (q, N_name, relation); the top entry is the
    universal congruence labelled (r, 'univ').  xi_ranks[i] is the rank
    of the i-th congruence: q-1 for an R(I_{q-1}, N) entry, r for the
    universal one, with the rank-0 convention for the degenerate r=1.
    """

    def __init__(self, entries, xi_ranks, r):
        self.entries = entries
        self.xi_ranks = xi_ranks
        self.r = r
        self._pos = {rel.key(): i for i, (_, _, rel) in enumerate(entries)}

    def __len__(self):
        return len(self.entries)

    def relations(self):
        return [rel for _, _, rel in self.entries]

    def position(self, rel):
        return self._pos.get(rel.key())

    def rank_of(self, rel):
        pos = self.position(rel)
        if pos is None:
            raise ValueError("relation is not in the chain")
        return self.xi_ranks[pos]

    def report(self):
        return [{"q": q, "N_name": name, "size_of_congruence": rel.pair_count()}
                for q, name, rel in self.entries]


def malcev_chain(T, check=True):
    r = int(element_ranks(T).max())
    m = len(T)
    entries = []
    ranks = []
    for q in range(1, r + 1):
        G = group_h_class(T, q)
        for N in G.normal_subgroups():
            rel = rees_with_group(T, q, N, check=check)
            if entries and entries[-1][2] == rel:
                continue
            entries.append((q, G.subgroup_name(N), rel))
            ranks.append(q - 1)
    top = EquivalenceRelation.universal(m)
    if not entries or entries[-1][2] != top:
        entries.append((r, "univ", top))
        ranks.append(r)
    if r == 1:
        ranks = [0] * len(ranks)
    chain = MalcevChain(entries, ranks, r)
    if check:
        rels = chain.relations()
        for lo, hi in zip(rels, rels[1:]):
            assert lo.leq(hi) and lo != hi, "chain entries out of order"
    return chain


def rees_ideal_labels(S, q):
    """Rees congruence of the ideal of rank <= q (q=0 gives the diagonal)."""
    ranks = element_ranks(S)
    labels = np.arange(len(S), dtype=np.int64)
    ideal = np.nonzero(ranks <= q)[0]
    if len(ideal):
        labels[ideal] = ideal[0]
    return EquivalenceRelation(labels)


def rank_of_xi(T, xi):
    """Largest q with the rank-q Rees congruence below xi."""
    r = int(element_ranks(T).max())
    if r == 1:
        return 0
    if not hasattr(T, "_rees_by_rank"):
        T._rees_by_rank = [rees_ideal_labels(T, q) for q in range(r + 1)]
    for q in range(r, -1, -1):
        if T._rees_by_rank[q].leq(xi):
            return q
    raise AssertionError("the rank-0 Rees congruence is the diagonal")


def kappa_q_list(ctx):
    """kappa meet the rank-q Rees congruences of P, for q = 0..r."""
    if not hasattr(ctx, "_kappa_q"):
        ctx._kappa_q = [ctx.kappa.meet(rees_ideal_labels(ctx.P, q))
                        for q in range(ctx.r + 1)]
    return ctx._kappa_q


def rank_of_theta(ctx, theta):
    """Largest q with kappa_q below theta, for theta in [Delta, kappa]."""
    kq = kappa_q_list(ctx)
    for q in range(ctx.r, -1, -1):
        if kq[q].leq(theta):
            return q
    raise AssertionError("kappa_0 is the diagonal and lies below everything")


def context_chain(ctx, check=True):
    if not hasattr(ctx, "_malcev_chain"):
        ctx._malcev_chain = malcev_chain(ctx.T, check=check)
    return ctx._malcev_chain


def lift_sharp(ctx, xi, check=True):
    """The congruence of P generated by a chain congruence xi of T.

    Constructed structurally: R(I,N) of T lifts to the matching R(I,N)
    of P, and the universal congruence of T lifts to the universal one
    when r >= 2.  The degenerate r=1 falls back to plain closure.
    """
    if not hasattr(ctx, "_lift_cache"):
        ctx._lift_cache = {}
    cached = ctx._lift_cache.get(xi.key())
    if cached is not None:
        return cached
    chain = context_chain(ctx, check=check)
    pos = chain.position(xi)
    if pos is None:
        raise ValueError("xi is not a congruence in the chain of T")
    if ctx.r == 1:
        pairs = []
        reps = {}
        for t_idx in range(len(ctx.T)):
            b = int(xi.block_id[t_idx])
            p_idx = int(ctx.t_in_p[t_idx])
            if b in reps:
                pairs.append((reps[b], p_idx))
            else:
                reps[b] = p_idx
        out = congruence_closure(ctx.P, pairs)
    else:
        q, name, _ = chain.entries[pos]
        if name == "univ":
            out = EquivalenceRelation.universal(len(ctx.P))
        else:
            N_P = [int(ctx.t_in_p[x]) for x in _chain_subgroup(ctx, q, name)]
            out = rees_with_group(ctx.P, q, N_P, check=check)
    ctx._lift_cache[xi.key()] = out
    return out


def _chain_subgroup(ctx, q, name):
    G = group_h_class(ctx.T, q)
    for N in G.normal_subgroups():
        if G.subgroup_name(N) == name:
            return N
    raise ValueError(f"no normal subgroup named {name} at rank {q}")
