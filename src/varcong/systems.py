"""Combinatorial coordinates for the congruences inside rho and lambda.

Congruences below rho never relate elements with different kernels, and on
each rho-class they act through the images of the elements, which are
cross-sections of sub-families of the sandwich kernel blocks.  Dually,
congruences below lambda act through kernels, which are partitions of the
domain with a prescribed trace on the sandwich image.  A congruence in either
interval is therefore encoded by a family of equivalences, one per
cross-section set (resp. partition set), coherent under restriction.  This
module materializes those index families, extracts the family of a given
congruence, assembles the congruence back, and enumerates all coherent
families.
"""

import json
from itertools import combinations, product

import numpy as np

from .congruence import (CapExceeded, EquivalenceRelation, components,
                         first_occurrence, is_congruence)
from .lattice import bell


def set_partitions(items):
    """Yield all partitions of a sequence as tuples of tuples, in a stable
    order (each element is merged into existing blocks before opening its
    own)."""
    items = list(items)
    if not items:
        yield ()
        return
    head, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i, block in enumerate(part):
            yield part[:i] + ((head,) + block,) + part[i + 1:]
        yield ((head,),) + part


def coarsenings(rel):
    """All equivalences containing `rel`, one per partition of its blocks."""
    k = rel.num_blocks()
    merge = np.empty(k, dtype=np.int64)
    for part in set_partitions(range(k)):
        for j, block in enumerate(part):
            for b in block:
                merge[b] = j
        yield EquivalenceRelation(merge[rel.block_id])


def refinements(rel):
    """All equivalences contained in `rel`, via partitions of each block."""
    labels = np.empty(rel.n, dtype=np.int64)
    per_block = [list(set_partitions(b)) for b in rel.blocks()]
    for combo in product(*per_block):
        j = 0
        for part in combo:
            for block in part:
                for x in block:
                    labels[x] = j
                j += 1
        yield EquivalenceRelation(labels)


def _kernel_blocks(row):
    by_value = {}
    for x, v in enumerate(row, start=1):
        by_value.setdefault(int(v), []).append(x)
    return tuple(sorted((tuple(b) for b in by_value.values()), key=lambda b: b[0]))


class CrossSectionFamily:
    """Cross-section sets indexed by nonempty subsets of the kernel blocks,
    wired to the rho-classes of the regular part.

    For a subset I (stored as a bitmask over block positions), `members[I]`
    lists the cross-sections of {A_i : i in I} as tuples in block order.
    Every rho-class of P carries exactly one element per cross-section of
    its index set; `class_elems` records that bijection.
    """

    def __init__(self, ctx):
        sand = ctx.sand
        r = ctx.r
        blocks = sand.blocks
        self.r = r
        self.masks = sorted(range(1, 1 << r),
                            key=lambda m: (-bin(m).count("1"), m))
        self.members = {}
        self.position = {}
        for mask in self.masks:
            bits = [i for i in range(r) if mask >> i & 1]
            cs = list(product(*(blocks[i] for i in bits)))
            assert len(cs) == int(np.prod([len(blocks[i]) for i in bits]))
            self.members[mask] = cs
            self.position[mask] = {c: j for j, c in enumerate(cs)}

        # restriction maps to each subset one element smaller
        self.down_maps = {}
        for mask in self.masks:
            bits = [i for i in range(r) if mask >> i & 1]
            maps = []
            if len(bits) > 1:
                for t in range(len(bits)):
                    sub = mask & ~(1 << bits[t])
                    m = np.array([self.position[sub][c[:t] + c[t + 1:]]
                                  for c in self.members[mask]], dtype=np.int64)
                    maps.append((sub, m))
            self.down_maps[mask] = maps
        self.up_maps = {mask: [] for mask in self.masks}
        for mask, maps in self.down_maps.items():
            for sub, m in maps:
                self.up_maps[sub].append((mask, m))

        pt2block = {}
        for i, block in enumerate(blocks):
            for x in block:
                pt2block[x] = i
        elem_imask = np.zeros(len(ctx.P), dtype=np.int64)
        elem_cidx = np.zeros(len(ctx.P), dtype=np.int64)
        for f, row in enumerate(ctx.ep_images):
            # context rows are 0-based; kernel blocks hold 1-based points
            pts = sorted(set(int(v) + 1 for v in row), key=lambda x: pt2block[x])
            mask = 0
            for x in pts:
                mask |= 1 << pt2block[x]
            elem_imask[f] = mask
            elem_cidx[f] = self.position[mask][tuple(pts)]
        self.elem_imask = elem_imask
        self.elem_cidx = elem_cidx

        self.elem_keys = [int(m) for m in elem_imask]

        # one element per cross-section in every rho-class
        self.class_keys = []
        self.class_elems = []
        for cls in ctx.rho.blocks():
            mask = int(elem_imask[cls[0]])
            assert all(int(elem_imask[f]) == mask for f in cls)
            slots = np.full(len(self.members[mask]), -1, dtype=np.int64)
            for f in cls:
                assert slots[elem_cidx[f]] == -1
                slots[elem_cidx[f]] = f
            assert (slots >= 0).all()
            self.class_keys.append(mask)
            self.class_elems.append(slots)

    def mask_label(self, mask):
        """Serialization label: sorted 1-based block indices."""
        return [i + 1 for i in range(self.r) if mask >> i & 1]


class PartitionFamily:
    """Constrained-partition sets indexed by partitions of the kernel blocks,
    wired to the lambda-classes of the regular part.

    An index key is a canonical partition of block positions 0..r-1; its
    members are the partitions of the domain whose trace on the sandwich
    image matches the key.  Every lambda-class of P carries exactly one
    element per member partition.
    """

    def __init__(self, ctx):
        sand = ctx.sand
        n, r = ctx.n, ctx.r
        reps = sand.reps
        self.r = r
        self.ikeys = sorted(
            (_canonical_parts(p) for p in set_partitions(range(r))),
            key=lambda key: (len(key), key))
        extras = sorted(set(range(1, n + 1)) - set(reps))
        self.members = {}
        self.position = {}
        for ikey in self.ikeys:
            k = len(ikey)
            base = [[reps[i] for i in part] for part in ikey]
            ps = []
            for assign in product(range(k), repeat=len(extras)):
                parts = [list(b) for b in base]
                for x, j in zip(extras, assign):
                    parts[j].append(x)
                ps.append(tuple(sorted((tuple(sorted(p)) for p in parts),
                                       key=lambda b: b[0])))
            assert len(ps) == k ** (n - r)
            self.members[ikey] = ps
            self.position[ikey] = {p: j for j, p in enumerate(ps)}

        # restriction maps to each coarsening by one merge
        self.down_maps = {}
        for ikey in self.ikeys:
            maps = []
            for s, t in combinations(range(len(ikey)), 2):
                merged = [part for j, part in enumerate(ikey) if j not in (s, t)]
                merged.append(tuple(sorted(ikey[s] + ikey[t])))
                jkey = _canonical_parts(merged)
                m = np.array([self.position[jkey][_restrict_partition(p, ikey, jkey, reps)]
                              for p in self.members[ikey]], dtype=np.int64)
                maps.append((jkey, m))
            self.down_maps[ikey] = maps
        self.up_maps = {ikey: [] for ikey in self.ikeys}
        for ikey, maps in self.down_maps.items():
            for jkey, m in maps:
                self.up_maps[jkey].append((ikey, m))

        rep_pos = {x: i for i, x in enumerate(reps)}
        elem_ikey = []
        elem_pidx = np.zeros(len(ctx.P), dtype=np.int64)
        for f, row in enumerate(ctx.ep_images):
            pkey = _kernel_blocks(row)
            ikey = _canonical_parts(
                [tuple(sorted(rep_pos[x] for x in block if x in rep_pos))
                 for block in pkey])
            assert all(part for part in ikey)
            elem_ikey.append(ikey)
            elem_pidx[f] = self.position[ikey][pkey]
        self.elem_keys = elem_ikey
        self.elem_pidx = elem_pidx

        # one element per member partition in every lambda-class
        self.class_keys = []
        self.class_elems = []
        for cls in ctx.lam.blocks():
            ikey = elem_ikey[cls[0]]
            assert all(elem_ikey[f] == ikey for f in cls)
            slots = np.full(len(self.members[ikey]), -1, dtype=np.int64)
            for f in cls:
                assert slots[elem_pidx[f]] == -1
                slots[elem_pidx[f]] = f
            assert (slots >= 0).all()
            self.class_keys.append(ikey)
            self.class_elems.append(slots)

    def mask_label(self, ikey):
        """Serialization label: sorted 1-based blocks of block indices."""
        return [[i + 1 for i in part] for part in ikey]


def _canonical_parts(parts):
    return tuple(sorted((tuple(sorted(p)) for p in parts), key=lambda b: b[0]))


def _restrict_partition(p, ikey, jkey, reps):
    """Coarsen a member partition of ikey along the merge ikey -> jkey."""
    rep_home = {}
    for j, part in enumerate(jkey):
        for i in part:
            rep_home[reps[i]] = j
    merged = [[] for _ in jkey]
    for block in p:
        targets = {rep_home[x] for x in block if x in rep_home}
        assert len(targets) == 1
        merged[targets.pop()].extend(block)
    return tuple(sorted((tuple(sorted(b)) for b in merged), key=lambda b: b[0]))


def build_families(ctx):
    """The cross-section and partition families of a context, built once."""
    if not hasattr(ctx, "_families"):
        ctx._families = (CrossSectionFamily(ctx), PartitionFamily(ctx))
    return ctx._families


class _System:
    """A coherent family of equivalences over an index family."""

    def __init__(self, family, psi):
        self.family = family
        self.psi = dict(psi)
        assert set(self.psi) == set(self._keys())
        for key, rel in self.psi.items():
            assert rel.n == len(family.members[key])
            for sub, m in family.down_maps[key]:
                if not rel.image_under(m, len(family.members[sub])).leq(self.psi[sub]):
                    raise ValueError(f"family not coherent at {key} -> {sub}")
        self.rank = self._compute_rank()

    def _compute_rank(self):
        rank = self.family.r
        for key, rel in self.psi.items():
            if rel.num_blocks() > 1:
                rank = min(rank, self._key_size(key) - 1)
        return rank

    def key(self):
        return tuple(self.psi[k].key() for k in self._keys())

    def __eq__(self, other):
        return type(self) is type(other) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def serialize(self):
        return {json.dumps(self.family.mask_label(k)): self.psi[k].to_blocks()
                for k in self._keys()}

    def __repr__(self):
        return f"{type(self).__name__}(rank={self.rank})"


class CSystem(_System):
    """Equivalences on every cross-section set, coherent under restriction."""

    def _keys(self):
        return self.family.masks

    def _key_size(self, mask):
        return bin(mask).count("1")


class PSystem(_System):
    """Equivalences on every constrained-partition set, coherent under
    coarsening."""

    def _keys(self):
        return self.family.ikeys

    def _key_size(self, ikey):
        return len(ikey)


def _extract(ctx, theta, family, bound, make):
    if not theta.leq(bound):
        raise ValueError("congruence not inside the expected interval")
    assert is_congruence(theta, ctx.P)
    # one node per (index key, slot): the slots of every key side by side
    offset, start = {}, 0
    for key, members in family.members.items():
        offset[key] = start
        start += len(members)
    node = np.empty(len(ctx.P), dtype=np.int64)
    for key, slots in zip(family.class_keys, family.class_elems):
        node[slots] = offset[key] + np.arange(len(slots))
    # theta <= bound, so each element and its block's least element share
    # a class of `bound`, hence an index key
    reps = first_occurrence(theta.block_id)[theta.block_id]
    labels = components(start, node, node[reps])
    psi = {key: EquivalenceRelation(labels[offset[key]:offset[key] + len(members)])
           for key, members in family.members.items()}
    system = make(family, psi)
    # every class of `bound` must be cut by the family exactly along theta
    for key, slots in zip(family.class_keys, family.class_elems):
        rel = psi[key]
        got = theta.block_id[slots]
        assert rel.num_blocks() == len(set(zip(rel.block_id.tolist(), got.tolist())))
    return system


def psi_extract_rho(ctx, theta):
    """The per-cross-section-set trace of a congruence inside rho."""
    cf, _ = build_families(ctx)
    return _extract(ctx, theta, cf, ctx.rho, CSystem)


def psi_extract_lambda(ctx, theta):
    """The per-partition-set trace of a congruence inside lambda."""
    _, pf = build_families(ctx)
    return _extract(ctx, theta, pf, ctx.lam, PSystem)


def _assemble(ctx, system, family, bound):
    # each class of `bound` is cut along the relation of its index key
    labels = np.empty(len(ctx.P), dtype=np.int64)
    start = 0
    for key, slots in zip(family.class_keys, family.class_elems):
        labels[slots] = start + system.psi[key].block_id
        start += len(slots)
    theta = EquivalenceRelation(labels)
    assert theta.leq(bound)
    assert is_congruence(theta, ctx.P)
    return theta


def assemble_rho(ctx, system):
    """The congruence inside rho with the given cross-section trace."""
    cf, _ = build_families(ctx)
    theta = _assemble(ctx, system, cf, ctx.rho)
    assert psi_extract_rho(ctx, theta) == system
    return theta


def assemble_lambda(ctx, system):
    """The congruence inside lambda with the given partition trace."""
    _, pf = build_families(ctx)
    theta = _assemble(ctx, system, pf, ctx.lam)
    assert psi_extract_lambda(ctx, theta) == system
    return theta


def _guard(family, cap):
    total = 1
    for key in family.members:
        total *= bell(len(family.members[key]))
        if total > cap:
            raise CapExceeded("equivalence-family product", total, cap)
    return total


def enumerate_csystems(ctx, cap=10 ** 7):
    """All coherent cross-section systems, larger index sets first.

    Restriction flows downward, so once the bigger sets are fixed the
    relation on a smaller set only needs to range over coarsenings of the
    forced lower bound.
    """
    cf, _ = build_families(ctx)
    _guard(cf, cap)
    out = []
    assigned = {}

    def rec(i):
        if i == len(cf.masks):
            out.append(CSystem(cf, assigned))
            if len(out) > cap:
                raise CapExceeded("cross-section systems", len(out), cap)
            return
        mask = cf.masks[i]
        size = len(cf.members[mask])
        lower = EquivalenceRelation.diagonal(size)
        for sup, m in cf.up_maps[mask]:
            lower = lower.join(assigned[sup].image_under(m, size))
        for rel in coarsenings(lower):
            assigned[mask] = rel
            rec(i + 1)
        del assigned[mask]

    rec(0)
    return out


def enumerate_psystems(ctx, cap=10 ** 7):
    """All coherent partition systems, coarser index partitions first.

    Coarsening flows from finer index partitions to coarser ones, so each
    new relation ranges over refinements of the meet of the pullbacks of
    the relations already fixed below it.
    """
    _, pf = build_families(ctx)
    _guard(pf, cap)
    out = []
    assigned = {}

    def rec(i):
        if i == len(pf.ikeys):
            out.append(PSystem(pf, assigned))
            if len(out) > cap:
                raise CapExceeded("partition systems", len(out), cap)
            return
        ikey = pf.ikeys[i]
        size = len(pf.members[ikey])
        upper = EquivalenceRelation.universal(size)
        for jkey, m in pf.down_maps[ikey]:
            upper = upper.meet(EquivalenceRelation(assigned[jkey].block_id[m]))
        for rel in refinements(upper):
            assigned[ikey] = rel
            rec(i + 1)
        del assigned[ikey]

    rec(0)
    return out
