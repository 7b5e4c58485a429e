"""Order-theoretic analytics: Hasse diagrams, longest chains, and the
closed-form height of the congruence lattice.

Everything is exact integer arithmetic; partition counts use the
standard Stirling/Bell recurrences.
"""

from math import prod

import numpy as np


def stirling2(r, q):
    """Partitions of an r-set into q blocks, S(r, q)."""
    if not 0 <= q <= r:
        raise ValueError(f"need 0 <= q <= r, got S({r},{q})")
    table = [[0] * (r + 1) for _ in range(r + 1)]
    table[0][0] = 1
    for k in range(1, r + 1):
        for j in range(1, k + 1):
            table[k][j] = table[k - 1][j - 1] + j * table[k - 1][j]
    return table[r][q]


def bell(r):
    return sum(stirling2(r, q) for q in range(r + 1))


COVER_BLOCK = 1 << 16  # floats in one row block of the strict order's square


def hasse_covers(leq):
    """Covers of a partial order given as a k*k bool matrix: i < j with
    nothing strictly between.  The strict order is squared in float32, for
    BLAS (numpy's bool matmul has none; path counts stay below 2^24, hence
    exact), one block of rows at a time so the product stays small."""
    k = len(leq)
    covers = leq & ~np.eye(k, dtype=bool)
    strict = covers.astype(np.float32)
    step = max(1, COVER_BLOCK // max(k, 1))
    for lo in range(0, k, step):
        covers[lo:lo + step] &= ~(strict[lo:lo + step] @ strict > 0)
    return covers


class FiniteLattice:
    """A finite lattice of equivalence relations ordered by refinement."""

    def __init__(self, nodes, check=True):
        self.nodes = list(nodes)
        k = len(self.nodes)
        if k == 0:
            raise ValueError("empty lattice")
        self.leq = np.zeros((k, k), dtype=bool)
        labels = [rel.block_id for rel in self.nodes]
        stacked = np.stack(labels)
        from .congruence import first_occurrence
        for i, rel in enumerate(self.nodes):
            reps = first_occurrence(rel.block_id)
            self.leq[i] = (stacked == stacked[:, reps[rel.block_id]]).all(axis=1)
        self.covers = hasse_covers(self.leq)
        if check:
            self._check_lattice()

    def _check_lattice(self):
        key_set = {rel.key() for rel in self.nodes}
        for i, a in enumerate(self.nodes):
            for b in self.nodes[i + 1:]:
                if a.meet(b).key() not in key_set or a.join(b).key() not in key_set:
                    raise ValueError("node set is not closed under meet/join")

    def __len__(self):
        return len(self.nodes)

    def height(self):
        """Longest chain (number of nodes) with one witness chain.

        Dynamic programming along a linear extension; ties broken toward
        the smallest node index so the witness is deterministic.
        """
        k = len(self.nodes)
        order = sorted(range(k), key=lambda i: (self.nodes[i].n - self.nodes[i].num_blocks(), i))
        best = [1] * k
        parent = [-1] * k
        for j in order:
            below = np.nonzero(self.covers[:, j])[0]
            for i in below:
                if best[i] + 1 > best[j] or (best[i] + 1 == best[j] and i < parent[j]):
                    best[j] = best[i] + 1
                    parent[j] = int(i)
        top = max(range(k), key=lambda i: (best[i], -i))
        chain = [top]
        while parent[chain[-1]] != -1:
            chain.append(parent[chain[-1]])
        chain.reverse()
        return best[top], chain


def ht_interval_rho(block_sizes):
    r = len(block_sizes)
    return 1 - 2 ** r + prod(s + 1 for s in block_sizes)


def ht_interval_lambda(n, r):
    return 1 - bell(r) + sum(stirling2(r, q) * q ** (n - r) for q in range(1, r + 1))


def height_formula(n, block_sizes):
    """Closed form for the height of the congruence lattice of the regular
    part, from the domain size and the kernel-block sizes of the sandwich
    idempotent."""
    r = len(block_sizes)
    if r < 1 or sum(block_sizes) != n:
        raise ValueError(f"block sizes {block_sizes} do not partition {n} points")
    tail = 2 if r <= 3 else 1
    return (3 * r
            + prod(s + 1 for s in block_sizes)
            + sum(stirling2(r, q) * q ** (n - r) for q in range(1, r + 1))
            - 2 ** r
            - bell(r)
            - tail)
