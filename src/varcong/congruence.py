"""Equivalence relations on an indexed universe, and the congruence oracle.

An equivalence is stored as a canonical block-label array: block ids are
numbered by first occurrence, so two equal partitions have identical
arrays and the bytes of the array serve as a hash key.  Every partition
generated by pairs (joins, images, closures) comes out of one numpy
connected-components kernel (components, and _row_components for k
disjoint copies of a universe).

The oracle (enumerate_all_congruences) knows nothing about the structure
theory implemented elsewhere: it computes principal congruences by
saturation against the full multiplication table and closes the set under
binary joins.  Both phases work on stacks of label arrays: the seeds of a
block of pairs, and the joins of one relation with every generator, each
come out of one kernel call on a graph whose k*m nodes are k disjoint
copies of the universe.
"""

import numpy as np

LABEL_DTYPE = np.int32


def canonical_labels(labels):
    """Relabel so block ids appear in first-occurrence order."""
    labels = np.asarray(labels)
    uniq, inv = np.unique(labels, return_inverse=True)
    first = np.full(len(uniq), len(labels), dtype=np.int64)
    np.minimum.at(first, inv, np.arange(len(labels)))
    new_id = np.empty(len(uniq), dtype=LABEL_DTYPE)
    new_id[np.argsort(first, kind="stable")] = np.arange(len(uniq), dtype=LABEL_DTYPE)
    return new_id[inv].astype(LABEL_DTYPE)


def _row_components(rows, m, src, dst):
    """Components of an undirected graph on rows*m nodes, as a (rows, m) array.

    Node r*m + x stands for element x in row r, and every edge src[e] --
    dst[e] stays inside one row.  Row r of the result is the canonical
    label array of the components within row r.

    Each round hooks the larger root of every edge that still joins two
    trees onto the smaller one, then jumps pointers until each node points
    at its root.  A node only ever points at a smaller one, so the root of
    a component is its least node, and the roots come in first-occurrence
    order.
    """
    root = np.arange(rows * m)
    a, b = np.asarray(src, dtype=np.intp), np.asarray(dst, dtype=np.intp)
    while True:
        keep = a != b
        if not np.count_nonzero(keep):
            break
        hi, lo = np.maximum(a[keep], b[keep]), np.minimum(a[keep], b[keep])
        root[hi] = lo
        while True:
            up = root[root]
            if not np.count_nonzero(up != root):
                break
            root = up
        a, b = root[hi], root[lo]
    rep = root.reshape(rows, m) - m * np.arange(rows)[:, None]
    block_no = (rep == np.arange(m)).cumsum(axis=1, dtype=LABEL_DTYPE) - 1
    return np.take_along_axis(block_no, rep, axis=1)


def components(n, src, dst):
    """Canonical labels of the components of the graph with edges src--dst:
    each block is named by its least element, hence numbered by first
    occurrence."""
    return _row_components(1, n, src, dst)[0]


class EquivalenceRelation:
    __slots__ = ("n", "block_id", "_key")

    def __init__(self, labels):
        labels = canonical_labels(labels)
        labels.flags.writeable = False
        object.__setattr__(self, "n", len(labels))
        object.__setattr__(self, "block_id", labels)
        object.__setattr__(self, "_key", labels.tobytes())

    def __setattr__(self, name, value):
        raise AttributeError("EquivalenceRelation is immutable")

    @staticmethod
    def diagonal(n):
        return EquivalenceRelation(np.arange(n))

    @staticmethod
    def universal(n):
        return EquivalenceRelation(np.zeros(n, dtype=LABEL_DTYPE))

    @staticmethod
    def from_pairs(n, pairs):
        pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
        return EquivalenceRelation(components(n, pairs[:, 0], pairs[:, 1]))

    @staticmethod
    def from_blocks(n, blocks):
        if not isinstance(blocks, list) or not all(isinstance(b, list) for b in blocks):
            raise ValueError("blocks must be a list of lists of element indices")
        labels = np.full(n, -1, dtype=LABEL_DTYPE)
        for b, block in enumerate(blocks):
            for x in block:
                # bool is an int subclass, but true/false are no indices
                if not isinstance(x, (int, np.integer)) or isinstance(x, bool):
                    raise ValueError(f"block entry {x!r} is not an integer")
                if not 0 <= x < n:
                    raise ValueError(f"element {x} outside 0..{n - 1}")
                if labels[x] != -1:
                    raise ValueError(f"element {x} in two blocks")
                labels[x] = b
        if (labels == -1).any():
            raise ValueError("blocks do not cover the universe")
        return EquivalenceRelation(labels)

    def key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, EquivalenceRelation) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"EquivalenceRelation({self.num_blocks()} blocks on {self.n})"

    def num_blocks(self):
        return int(self.block_id.max()) + 1 if self.n else 0

    def contains(self, x, y):
        return self.block_id[x] == self.block_id[y]

    def blocks(self):
        out = [[] for _ in range(self.num_blocks())]
        for x, b in enumerate(self.block_id):
            out[b].append(x)
        return out

    def pair_count(self):
        """Number of ordered pairs in the relation, diagonal included."""
        sizes = np.bincount(self.block_id)
        return int((sizes.astype(np.int64) ** 2).sum())

    def leq(self, other):
        """self a refinement of other (self included in other as a relation)."""
        if self.n != other.n:
            raise ValueError("universe mismatch")
        reps = first_occurrence(self.block_id)
        return bool((other.block_id == other.block_id[reps[self.block_id]]).all())

    def meet(self, other):
        if self.n != other.n:
            raise ValueError("universe mismatch")
        k = int(other.block_id.max()) + 1 if other.n else 1
        return EquivalenceRelation(self.block_id.astype(np.int64) * k + other.block_id)

    def join(self, other):
        if self.n != other.n:
            raise ValueError("universe mismatch")
        return EquivalenceRelation(join_labels(self.block_id, other.block_id))

    def permuting_join(self, other):
        """The join self v other, checked to equal the product self o other.

        The product is the join exactly when, inside each class of the
        join, every block of self meets every block of other.  That is a
        count in label space: the distinct (self-block, other-block) pairs
        in each join class against the product of its block counts.
        NotPermutable names a join class and two blocks in it that do not
        meet.
        """
        if self.n != other.n:
            raise ValueError("universe mismatch")
        a, b = self.block_id, other.block_id
        joined = EquivalenceRelation(join_labels(a, b))
        j = joined.block_id
        # the join class of each block of self, and of each block of other
        ja, jb = j[first_occurrence(a)], j[first_occurrence(b)]
        k, kb = joined.num_blocks(), len(jb)
        met = np.unique(a.astype(np.int64) * kb + b)   # block pairs that meet
        short = (np.bincount(ja[met // kb], minlength=k)
                 < np.bincount(ja, minlength=k) * np.bincount(jb, minlength=k))
        if np.count_nonzero(short):
            c, met = np.flatnonzero(short)[0], set(met.tolist())
            p, q = next((p, q) for p in np.flatnonzero(ja == c)
                        for q in np.flatnonzero(jb == c) if p * kb + q not in met)
            raise NotPermutable(
                f"composition is not the join: in the join class of element "
                f"{np.flatnonzero(j == c)[0]}, the block {self.blocks()[p]} of "
                f"the first and {other.blocks()[q]} of the second do not meet")
        return joined

    def compose(self, other):
        """Relational product as a boolean matrix; not an equivalence in general."""
        if self.n != other.n:
            raise ValueError("universe mismatch")
        b1, b2 = self.block_id, other.block_id
        k1 = int(b1.max()) + 1 if self.n else 1
        k2 = int(b2.max()) + 1 if other.n else 1
        # meet[p, q] = some y has b1[y] = p and b2[y] = q
        meets = np.zeros((k1, k2), dtype=bool)
        meets[b1, b2] = True
        return meets[np.ix_(b1, b2)]

    def matrix(self):
        return self.block_id[:, None] == self.block_id[None, :]

    def restrict(self, subset):
        """Restriction to a subset, re-indexed by position in `subset`."""
        subset = np.asarray(subset)
        return EquivalenceRelation(self.block_id[subset])

    def image_under(self, mapping, target_size):
        """Equivalence on the target generated by the pushed-forward pairs."""
        mapping = np.asarray(mapping)
        return EquivalenceRelation(components(target_size, mapping,
                                              mapping[_block_reps(self.block_id)]))

    def to_blocks(self):
        return sorted(sorted(b) for b in self.blocks())

    def serialize(self):
        return "[" + ",".join("[" + ",".join(map(str, b)) + "]" for b in self.to_blocks()) + "]"


def first_occurrence(labels):
    """Index of the first element of each block of a canonical label array."""
    k = int(labels.max()) + 1 if len(labels) else 0
    reps = np.full(k, len(labels), dtype=np.int64)
    np.minimum.at(reps, labels, np.arange(len(labels)))
    return reps


def _block_reps(labels):
    """Least element of the block of each x, for a canonical label array."""
    return first_occurrence(labels)[labels]


def join_labels(b1, b2):
    """Join of two partitions given as label arrays, as canonical labels."""
    n = len(b1)
    ends = np.arange(n)
    return components(n, np.concatenate([ends, ends]),
                      np.concatenate([_block_reps(b1), _block_reps(np.asarray(b2))]))


class CapExceeded(RuntimeError):
    def __init__(self, what, size, cap):
        super().__init__(f"{what}: size {size} exceeds cap {cap}")
        self.size = size
        self.cap = cap


class NotPermutable(RuntimeError):
    """Two equivalences whose relational product is not their join."""


class OracleCheckFailed(RuntimeError):
    """A relation the oracle is about to return is not a congruence."""


def _violation_pairs(mul, labels):
    """Label pairs that compatibility forces to merge, or None at fixpoint.

    For each element x let rx be the first element of its block.  Left
    compatibility needs b[s*x] = b[s*rx] for all s, right compatibility
    b[x*s] = b[rx*s]; violating positions contribute the offending product
    pairs (as block labels, deduplicated).
    """
    rx = _block_reps(labels)
    prod_labels = labels[mul]
    out = []
    left_bad = prod_labels != prod_labels[:, rx]
    if left_bad.any():
        s, x = np.nonzero(left_bad)
        out.append(np.stack([prod_labels[s, x], prod_labels[s, rx[x]]], axis=1))
    right_bad = prod_labels != prod_labels[rx, :]
    if right_bad.any():
        x, s = np.nonzero(right_bad)
        out.append(np.stack([prod_labels[x, s], prod_labels[rx[x], s]], axis=1))
    if not out:
        return None
    return np.unique(np.concatenate(out), axis=0)


def is_congruence(rel, S):
    mul = S.mul if hasattr(S, "mul") else np.asarray(S)
    if rel.n != len(mul):
        raise ValueError("relation universe does not match the semigroup")
    return _violation_pairs(mul, rel.block_id) is None


def closure_labels(mul, labels):
    """Saturate a label array to the least congruence containing it."""
    labels = canonical_labels(labels)
    while True:
        bad = _violation_pairs(mul, labels)
        if bad is None:
            return labels
        # merged blocks keep the order of their least labels, so the
        # pulled-back labels are canonical again
        labels = components(int(labels.max()) + 1, bad[:, 0], bad[:, 1])[labels]


def congruence_closure(S, pairs=(), start=None):
    """Smallest congruence of S containing the given pairs (and `start`)."""
    mul = S.mul if hasattr(S, "mul") else np.asarray(S)
    m = len(mul)
    if start is None:
        labels = np.arange(m, dtype=LABEL_DTYPE)
    else:
        labels = start.block_id
    pairs = np.asarray(list(pairs), dtype=np.intp).reshape(-1, 2)
    if len(pairs):
        labels = components(m, np.concatenate([np.arange(m), pairs[:, 0]]),
                            np.concatenate([_block_reps(labels), pairs[:, 1]]))
    return EquivalenceRelation(closure_labels(mul, labels))


# Edges per kernel call in the batched oracle.  The kernel keeps about 55
# bytes per edge (int64 ends, and the edges still crossing two trees with
# their roots), so a full call peaks near 7 MB, whatever the semigroup.
EDGE_BUDGET = 1 << 17


def join_with_each(labels, reps):
    """Joins of one partition with each of k partitions, as a (k, m) array.

    `reps` is (k, m): reps[i, x] is the least element of the block of x in
    partition i (see _block_reps).  Row i is the canonical label array of
    labels v partition i.  Generators are taken in chunks of EDGE_BUDGET
    edges, one kernel call per chunk.
    """
    k, m = reps.shape
    own = _block_reps(labels)
    step = max(1, EDGE_BUDGET // (2 * m))
    out = []
    for lo in range(0, k, step):
        chunk = reps[lo:lo + step]
        rows = len(chunk)
        offset = np.arange(0, rows * m, m)[:, None]
        # two edges out of each node: to its block's least element in the
        # generator and in `labels`
        nodes = np.arange(rows * m)
        out.append(_row_components(rows, m, np.concatenate([nodes, nodes]),
                                   np.concatenate([(chunk + offset).ravel(),
                                                   (own + offset).ravel()])))
    return np.concatenate(out) if out else np.empty((0, m), dtype=LABEL_DTYPE)


def _principal_seeds(mul, xs, ys):
    """Seed partitions of the pairs (xs[b], ys[b]), one canonical row each.

    The congruence generated by a single pair is generated, as an
    equivalence, by the translated pairs (sxt, syt) over s, t in S^1, so
    the components of those pairs are a seed that needs only the
    saturation scan (closure_labels) to become (x,y)#.  Translates repeat
    a lot, so each side is deduplicated in an m x m mask per pair before
    the next step: first the left translates (sx, sy), then their right
    translates.
    """
    m = len(mul)
    rows = len(xs)
    # mask[r*m*m + u*m + v]: (u, v) is a translate of pair r
    mask = np.zeros(rows * m * m, dtype=bool)
    base = np.arange(0, rows * m * m, m * m)
    mask[(base[:, None] + mul[:, xs].T * m + mul[:, ys].T).ravel()] = True  # s in S
    mask[base + xs * m + ys] = True                                           # s = 1
    left = np.flatnonzero(mask)
    # every left translate stays in as its own t = 1 translate
    r, u, v = left // (m * m), left // m % m, left % m
    mask[(base[r, None] + mul[u, :] * m + mul[v, :]).ravel()] = True
    # translate (u, v) of pair r is the edge r*m + u -- r*m + v
    source, v = np.divmod(np.flatnonzero(mask), m)
    return _row_components(rows, m, source, source - source % m + v)


def principal_congruences(S, cap=300, progress=None):
    """Distinct closures (x,y)# over all pairs, the diagonal excluded.

    Pairs go in order (x ascending, then y) in blocks of EDGE_BUDGET
    translates; only the first pair with a given seed is closed, and the
    result lists each congruence at the first pair that generates it.
    """
    mul = S.mul if hasattr(S, "mul") else np.asarray(S)
    m = len(mul)
    if m > cap:
        raise CapExceeded("principal congruence pass", m, cap)
    mul = mul.astype(np.int32, copy=False)
    xs, ys = np.triu_indices(m, 1)
    step = max(1, EDGE_BUDGET // (m + 1) ** 2)
    closed, seen = set(), {}
    for lo in range(0, len(xs), step):
        if progress is not None:
            progress(int(xs[lo]), m)
        for seed in _principal_seeds(mul, xs[lo:lo + step], ys[lo:lo + step]):
            key = seed.tobytes()
            if key in closed:
                continue
            closed.add(key)
            rel = EquivalenceRelation(closure_labels(mul, seed))
            seen.setdefault(rel.key(), rel)
    return list(seen.values())


def principal_congruence_count(S, cap=300, progress=None):
    return len(principal_congruences(S, cap=cap, progress=progress))


def enumerate_all_congruences(S, cap=300, progress=None):
    """The whole congruence lattice: principal congruences, then join closure.

    Joins of congruences taken in Eq(S) are again congruences, so the BFS
    needs only partition joins: each frontier relation is joined with all
    generators at once (join_with_each).  Every discovered relation is
    nevertheless re-checked against the table, and OracleCheckFailed is
    raised if one fails.
    """
    mul = S.mul if hasattr(S, "mul") else np.asarray(S)
    m = len(mul)
    if m > cap:
        raise CapExceeded("congruence enumeration", m, cap)
    gens = principal_congruences(S, cap=cap, progress=progress)
    delta = EquivalenceRelation.diagonal(m)
    found = {delta.key(): delta}
    for g in gens:
        found.setdefault(g.key(), g)
    gen_reps = np.array([_block_reps(g.block_id) for g in gens],
                        dtype=np.int64).reshape(len(gens), m)
    frontier = list(gens)
    while frontier:
        nxt = []
        for rel in frontier:
            for row in join_with_each(rel.block_id, gen_reps):
                key = row.tobytes()
                if key not in found:
                    joined = EquivalenceRelation(row)
                    found[key] = joined
                    nxt.append(joined)
        frontier = nxt
        if progress is not None:
            progress(len(found), None)
    out = list(found.values())
    for rel in out:
        if not is_congruence(rel, mul):
            raise OracleCheckFailed(f"join closure left the congruence lattice: "
                                    f"{rel.serialize()}")
    out.sort(key=lambda rel: (rel.n - rel.num_blocks(), rel.key()))
    return out


def dump_congruences(rels):
    """One serialized congruence per line, lexicographically sorted."""
    return "\n".join(sorted(rel.serialize() for rel in rels))
