"""Combinatorial coordinates for the congruences inside rho and lambda.

Congruences below rho never relate elements with different kernels, and on
each rho-class they act through the images of the elements, which are
cross-sections of sub-families of the sandwich kernel blocks.  Dually,
congruences below lambda act through kernels, which are partitions of the
domain with a prescribed trace on the sandwich image.  A congruence in either
interval is therefore encoded by a system: one equivalence per index key
(cross-section set, resp. partition set), coherent under the restriction
maps between keys.

Both sides share one machinery and differ only in the data they build.  An
`IndexFamily` holds the keys in enumeration order, their members, the
restriction maps and the bijection between members and the elements of
each class of the bound; `System` is a coherent family over it; one
enumerator assigns the keys in order, each ranging over the `interval`
between the join of the images and the meet of the pullbacks of the
relations already fixed.  The module also extracts the system of a
congruence and assembles the congruence back.
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


def interval(lower, upper):
    """All equivalences x with lower <= x <= upper, one per choice of a
    partition of the `lower`-blocks inside each `upper`-block (blocks and
    parts in first-occurrence order); none unless lower <= upper."""
    if not lower.leq(upper):
        return
    k = lower.num_blocks()
    groups = [[] for _ in range(upper.num_blocks())]
    for b, u in enumerate(upper.block_id[first_occurrence(lower.block_id)]):
        groups[u].append(b)
    merge = np.empty(k, dtype=np.int64)
    for combo in product(*(set_partitions(g) for g in groups)):
        j = 0
        for part in combo:
            for block in part:
                for b in block:
                    merge[b] = j
                j += 1
        yield EquivalenceRelation(merge[lower.block_id])


def _kernel_blocks(row):
    by_value = {}
    for x, v in enumerate(row, start=1):
        by_value.setdefault(int(v), []).append(x)
    return tuple(sorted((tuple(b) for b in by_value.values()), key=lambda b: b[0]))


class IndexFamily:
    """Index keys, each with a set of members, wired to the classes of a
    bound (rho or lambda) of the regular part.

    A subclass builds, before calling this constructor: `keys` in
    enumeration order, `members[key]`, `down_maps[key]` (pairs (target,
    map) of restriction maps, one index per member of `key`), and per
    element of P its key `elem_keys[f]` and member index `elem_index[f]`.
    Every class of the bound carries exactly one element per member of its
    key; `class_keys`/`class_elems` record that bijection, and `up_maps`
    are the restriction maps seen from their targets.
    """

    def __init__(self, r, bound):
        self.r = r
        self.bound = bound
        self.up_maps = {key: [] for key in self.keys}
        for key, maps in self.down_maps.items():
            for sub, m in maps:
                self.up_maps[sub].append((key, m))

        self.class_keys = []
        self.class_elems = []
        for cls in bound.blocks():
            key = self.elem_keys[cls[0]]
            assert all(self.elem_keys[f] == key for f in cls)
            slots = np.full(len(self.members[key]), -1, dtype=np.int64)
            for f in cls:
                assert slots[self.elem_index[f]] == -1
                slots[self.elem_index[f]] = f
            assert (slots >= 0).all()
            self.class_keys.append(key)
            self.class_elems.append(slots)


class CrossSectionFamily(IndexFamily):
    """Cross-section sets indexed by nonempty subsets of the kernel blocks,
    larger subsets first, wired to the rho-classes.

    For a subset I (stored as a bitmask over block positions), `members[I]`
    lists the cross-sections of {A_i : i in I} as tuples in block order,
    and the restriction maps drop one coordinate.
    """

    def __init__(self, ctx):
        r = ctx.r
        blocks = ctx.sand.blocks
        self.keys = sorted(range(1, 1 << r),
                           key=lambda m: (-bin(m).count("1"), m))
        self.members = {}
        position = {}
        for mask in self.keys:
            bits = [i for i in range(r) if mask >> i & 1]
            cs = list(product(*(blocks[i] for i in bits)))
            assert len(cs) == int(np.prod([len(blocks[i]) for i in bits]))
            self.members[mask] = cs
            position[mask] = {c: j for j, c in enumerate(cs)}

        # restriction maps to each subset one element smaller
        self.down_maps = {}
        for mask in self.keys:
            bits = [i for i in range(r) if mask >> i & 1]
            maps = []
            if len(bits) > 1:
                for t in range(len(bits)):
                    sub = mask & ~(1 << bits[t])
                    m = np.array([position[sub][c[:t] + c[t + 1:]]
                                  for c in self.members[mask]], dtype=np.int64)
                    maps.append((sub, m))
            self.down_maps[mask] = maps

        pt2block = {}
        for i, block in enumerate(blocks):
            for x in block:
                pt2block[x] = i
        self.elem_keys = []
        self.elem_index = np.zeros(len(ctx.P), dtype=np.int64)
        for f, row in enumerate(ctx.ep_images):
            # context rows are 0-based; kernel blocks hold 1-based points
            pts = sorted(set(int(v) + 1 for v in row), key=lambda x: pt2block[x])
            mask = 0
            for x in pts:
                mask |= 1 << pt2block[x]
            self.elem_keys.append(mask)
            self.elem_index[f] = position[mask][tuple(pts)]
        super().__init__(r, ctx.rho)

    @staticmethod
    def key_size(mask):
        return bin(mask).count("1")

    def label(self, mask):
        """Serialization label: sorted 1-based block indices."""
        return [i + 1 for i in range(self.r) if mask >> i & 1]


class PartitionFamily(IndexFamily):
    """Constrained-partition sets indexed by partitions of the kernel blocks,
    coarser partitions first, wired to the lambda-classes.

    An index key is a canonical partition of block positions 0..r-1; its
    members are the partitions of the domain whose trace on the sandwich
    image matches the key, and the restriction maps coarsen along one
    merge of two parts.
    """

    def __init__(self, ctx):
        n, r = ctx.n, ctx.r
        reps = ctx.sand.reps
        self.keys = sorted(
            (_canonical_parts(p) for p in set_partitions(range(r))),
            key=lambda key: (len(key), key))
        extras = sorted(set(range(1, n + 1)) - set(reps))
        self.members = {}
        position = {}
        for ikey in self.keys:
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
            position[ikey] = {p: j for j, p in enumerate(ps)}

        # restriction maps to each coarsening by one merge
        self.down_maps = {}
        for ikey in self.keys:
            maps = []
            for s, t in combinations(range(len(ikey)), 2):
                merged = [part for j, part in enumerate(ikey) if j not in (s, t)]
                merged.append(tuple(sorted(ikey[s] + ikey[t])))
                jkey = _canonical_parts(merged)
                m = np.array([position[jkey][_restrict_partition(p, ikey, jkey, reps)]
                              for p in self.members[ikey]], dtype=np.int64)
                maps.append((jkey, m))
            self.down_maps[ikey] = maps

        rep_pos = {x: i for i, x in enumerate(reps)}
        self.elem_keys = []
        self.elem_index = np.zeros(len(ctx.P), dtype=np.int64)
        for f, row in enumerate(ctx.ep_images):
            pkey = _kernel_blocks(row)
            ikey = _canonical_parts(
                [tuple(sorted(rep_pos[x] for x in block if x in rep_pos))
                 for block in pkey])
            assert all(part for part in ikey)
            self.elem_keys.append(ikey)
            self.elem_index[f] = position[ikey][pkey]
        super().__init__(r, ctx.lam)

    @staticmethod
    def key_size(ikey):
        return len(ikey)

    def label(self, ikey):
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


class System:
    """A coherent family of equivalences over an index family: one relation
    per key, each restriction map carrying it into the relation of the
    target key."""

    def __init__(self, family, psi):
        self.family = family
        self.psi = dict(psi)
        assert set(self.psi) == set(family.keys)
        for key, rel in self.psi.items():
            assert rel.n == len(family.members[key])
            for sub, m in family.down_maps[key]:
                if not rel.image_under(m, len(family.members[sub])).leq(self.psi[sub]):
                    raise ValueError(f"family not coherent at {key} -> {sub}")
        self.rank = min((family.key_size(key) - 1 for key, rel in self.psi.items()
                         if rel.num_blocks() > 1), default=family.r)

    def key(self):
        return tuple(self.psi[k].key() for k in self.family.keys)

    def __eq__(self, other):
        return (isinstance(other, System) and self.family is other.family
                and self.key() == other.key())

    def __hash__(self):
        return hash(self.key())

    def serialize(self):
        return {json.dumps(self.family.label(k)): self.psi[k].to_blocks()
                for k in self.family.keys}

    def __repr__(self):
        return f"System({type(self.family).__name__}, rank={self.rank})"


def _extract(ctx, theta, family):
    if not theta.leq(family.bound):
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
    system = System(family, {
        key: EquivalenceRelation(labels[offset[key]:offset[key] + len(members)])
        for key, members in family.members.items()})
    # every class of `bound` must be cut by the family exactly along theta
    for key, slots in zip(family.class_keys, family.class_elems):
        rel = system.psi[key]
        got = theta.block_id[slots]
        assert rel.num_blocks() == len(set(zip(rel.block_id.tolist(), got.tolist())))
    return system


def psi_extract_rho(ctx, theta):
    """The per-cross-section-set trace of a congruence inside rho."""
    return _extract(ctx, theta, build_families(ctx)[0])


def psi_extract_lambda(ctx, theta):
    """The per-partition-set trace of a congruence inside lambda."""
    return _extract(ctx, theta, build_families(ctx)[1])


def _assemble(ctx, system):
    # each class of the bound is cut along the relation of its index key
    family = system.family
    labels = np.empty(len(ctx.P), dtype=np.int64)
    start = 0
    for key, slots in zip(family.class_keys, family.class_elems):
        labels[slots] = start + system.psi[key].block_id
        start += len(slots)
    theta = EquivalenceRelation(labels)
    assert theta.leq(family.bound)
    assert is_congruence(theta, ctx.P)
    assert _extract(ctx, theta, family) == system
    return theta


def assemble_rho(ctx, system):
    """The congruence inside rho with the given cross-section trace."""
    return _assemble(ctx, system)


def assemble_lambda(ctx, system):
    """The congruence inside lambda with the given partition trace."""
    return _assemble(ctx, system)


def _guard(family, cap):
    total = 1
    for key in family.members:
        total *= bell(len(family.members[key]))
        if total > cap:
            raise CapExceeded("equivalence-family product", total, cap)
    return total


def _enumerate(family, cap, what):
    """All coherent systems over `family`, keys assigned in enumeration order.

    The relation on a key ranges over an interval fixed by the keys already
    assigned: at least the join of the images of the relations restricting
    onto it, at most the meet of the pullbacks of the relations it restricts
    onto.  Cross-section keys come larger sets first, so only the lower
    bound binds; partition keys come coarser first, so only the upper one.
    """
    _guard(family, cap)
    out = []
    assigned = {}

    def rec(i):
        if i == len(family.keys):
            out.append(System(family, assigned))
            if len(out) > cap:
                raise CapExceeded(what, len(out), cap)
            return
        key = family.keys[i]
        size = len(family.members[key])
        lower = EquivalenceRelation.diagonal(size)
        for src, m in family.up_maps[key]:
            if src in assigned:
                lower = lower.join(assigned[src].image_under(m, size))
        upper = EquivalenceRelation.universal(size)
        for dst, m in family.down_maps[key]:
            if dst in assigned:
                upper = upper.meet(EquivalenceRelation(assigned[dst].block_id[m]))
        for rel in interval(lower, upper):
            assigned[key] = rel
            rec(i + 1)
        assigned.pop(key, None)

    rec(0)
    return out


def enumerate_csystems(ctx, cap=10 ** 7):
    """All coherent cross-section systems, larger index sets first."""
    return _enumerate(build_families(ctx)[0], cap, "cross-section systems")


def enumerate_psystems(ctx, cap=10 ** 7):
    """All coherent partition systems, coarser index partitions first."""
    return _enumerate(build_families(ctx)[1], cap, "partition systems")
