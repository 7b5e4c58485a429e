"""Equivalence relations on an indexed universe, and the congruence oracle.

An equivalence is stored as a canonical block-label array: block ids are
numbered by first occurrence, so two equal partitions have identical
arrays and the bytes of the array serve as a hash key.

The oracle (enumerate_all_congruences) knows nothing about the structure
theory implemented elsewhere: it computes principal congruences by
saturation against the full multiplication table and closes the set under
binary joins.  Both phases work on stacks of label arrays: the seeds of a
block of pairs, and the joins of one relation with every generator, each
come out of one connected-components call on a graph whose k*m nodes are k
disjoint copies of the universe (see _row_components).
"""

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

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


class UnionFind:
    """Plain union-find with path halving, no ranks (unions are few here)."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if ry < rx:
            rx, ry = ry, rx
        self.parent[ry] = rx
        return True

    def labels(self):
        return canonical_labels([self.find(x) for x in range(len(self.parent))])


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
        uf = UnionFind(n)
        for x, y in pairs:
            uf.union(x, y)
        return EquivalenceRelation(uf.labels())

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
        uf = UnionFind(target_size)
        reps = first_occurrence(self.block_id)
        for x in range(self.n):
            uf.union(int(mapping[x]), int(mapping[reps[self.block_id[x]]]))
        return EquivalenceRelation(uf.labels())

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
    uf = UnionFind(n)
    reps1 = first_occurrence(b1)
    reps2 = first_occurrence(np.asarray(b2))
    for x in range(n):
        uf.union(x, int(reps1[b1[x]]))
        uf.union(x, int(reps2[b2[x]]))
    return uf.labels()


def equivalence_from_matrix(matrix, check=True):
    """The matrix must already be an equivalence; its labels are returned."""
    m = np.asarray(matrix, dtype=bool)
    uf = UnionFind(len(m))
    xs, ys = np.nonzero(m)
    for x, y in zip(xs.tolist(), ys.tolist()):
        uf.union(x, y)
    rel = EquivalenceRelation(uf.labels())
    if check and not (m == rel.matrix()).all():
        raise ValueError("matrix is not an equivalence relation")
    return rel


class CapExceeded(RuntimeError):
    def __init__(self, what, size, cap):
        super().__init__(f"{what}: size {size} exceeds cap {cap}")
        self.size = size
        self.cap = cap


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
        k = int(labels.max()) + 1
        uf = UnionFind(k)
        for p, q in bad.tolist():
            uf.union(p, q)
        remap = np.array([uf.find(b) for b in range(k)], dtype=LABEL_DTYPE)
        labels = canonical_labels(remap[labels])


def congruence_closure(S, pairs=(), start=None):
    """Smallest congruence of S containing the given pairs (and `start`)."""
    mul = S.mul if hasattr(S, "mul") else np.asarray(S)
    m = len(mul)
    if start is None:
        labels = np.arange(m, dtype=LABEL_DTYPE)
    else:
        labels = start.block_id
    pairs = list(pairs)
    if pairs:
        uf = UnionFind(m)
        reps = first_occurrence(labels)
        for x in range(m):
            uf.union(x, int(reps[labels[x]]))
        for x, y in pairs:
            uf.union(int(x), int(y))
        labels = uf.labels()
    return EquivalenceRelation(closure_labels(mul, labels))


# Edges per connected-components call in the batched oracle.  csgraph keeps
# about 40 bytes per edge (int32 ends, CSR copies, a float64 copy of the
# data), so a full call peaks near 6 MB, whatever the semigroup.
EDGE_BUDGET = 1 << 17


def _row_components(indptr, targets, rows, m):
    """Partitions cut out by a graph on rows*m nodes, as a (rows, m) array.

    Node r*m + x stands for element x in row r, and every edge stays inside
    one row; the edges out of node i go to targets[indptr[i]:indptr[i+1]]
    (the CSR layout, built by the callers without a sort).  Row r of the
    result is the canonical label array of the components within row r:
    each block is named by its least element, and blocks are numbered by
    first occurrence, so nothing depends on the order in which csgraph
    numbers its components.
    """
    n = rows * m
    graph = csr_matrix((np.ones(len(targets)), targets, indptr), shape=(n, n))
    count, comp = connected_components(graph, directed=False)
    least = np.full(count, n, dtype=np.int64)
    np.minimum.at(least, comp, np.arange(n))
    rep = least[comp].reshape(rows, m) - np.arange(0, n, m)[:, None]
    block_no = np.cumsum(rep == np.arange(m), axis=1) - 1
    return np.take_along_axis(block_no, rep, axis=1).astype(LABEL_DTYPE)


def join_with_each(labels, reps):
    """Joins of one partition with each of k partitions, as a (k, m) array.

    `reps` is (k, m): reps[i, x] is the least element of the block of x in
    partition i (see _block_reps).  Row i is the canonical label array of
    labels v partition i.  Generators are taken in chunks of EDGE_BUDGET
    edges, one connected-components call per chunk.
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
        targets = np.stack([chunk + offset, own + offset], axis=2).ravel()
        indptr = np.arange(0, 2 * rows * m + 1, 2)
        out.append(_row_components(indptr, targets, rows, m))
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
    # the source node r*m + u of each translate comes out in CSR order
    source, v = np.divmod(np.flatnonzero(mask), m)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(source, minlength=rows * m))])
    return _row_components(indptr, source - source % m + v, rows, m)


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
