"""Computations made apart from varcong, used to check its outputs.

Nothing here imports varcong.  The regular part of a variant, its star
product table, the congruence test, Bell and Stirling numbers, the
closed-form height and the longest chain of a lattice of partitions are
all written out from their definitions, so a check that passes does not
rest on the code it checks.

Maps on {0..n-1} are rows of images.  Composition runs left to right,
x(fg) = (xf)g, so the row of "f then g" is g[f].  Elements of the regular
part are listed in lexicographic order of their image rows, the order
varcong uses for its element indices.
"""

import json
from itertools import combinations, product
from math import comb, prod

import numpy as np


def parse_map(text):
    """'4: 1 2 3 3' -> (0, 1, 2, 2)."""
    head, _, tail = text.partition(":")
    images = tuple(int(x) - 1 for x in tail.split())
    if len(images) != int(head) or not all(0 <= x < len(images) for x in images):
        raise ValueError(f"not a map: {text!r}")
    return images


def format_map(images):
    return f"{len(images)}: " + " ".join(str(x + 1) for x in images)


def all_maps(n):
    """All n^n image rows in lexicographic order."""
    return np.array(list(product(range(n), repeat=n)), dtype=np.int64)


def idempotent_sandwiches(n_max):
    """Every idempotent map on up to n_max points, as '4: 1 2 3 3' strings."""
    out = []
    for n in range(1, n_max + 1):
        for row in all_maps(n):
            if (row[row] == row).all():
                out.append(format_map(tuple(int(x) for x in row)))
    return out


def block_shape(images):
    """Sorted kernel-block sizes of a map: the isomorphism type of its variant."""
    sizes = {}
    for v in images:
        sizes[v] = sizes.get(v, 0) + 1
    return tuple(sorted(sizes.values()))


def shape_key(shape):
    return ",".join(map(str, shape))


def regular_elements(a_text):
    """Image rows of the regular part of the variant T_n^a, in lexicographic
    order: f is regular when f = f*g*f = f a g a f for some g."""
    a = np.array(parse_map(a_text))
    maps = all_maps(len(a))
    return maps[[i for i, f in enumerate(maps)
                 if (f[a[maps[:, a[f]]]] == f).all(axis=1).any()]]


def star_table(a_text):
    """Multiplication table of the regular part, f*g = f a g, as indices
    into regular_elements(a_text)."""
    a = np.array(parse_map(a_text))
    n = len(a)
    powers = n ** np.arange(n - 1, -1, -1)
    elems = regular_elements(a_text)
    codes = elems @ powers
    mul = np.empty((len(elems), len(elems)), dtype=np.int64)
    for i, f in enumerate(elems):
        prods = elems[:, a[f]] @ powers       # row j: f a g_j
        pos = np.searchsorted(codes, prods)
        if not (pos < len(codes)).all() or not (codes[pos] == prods).all():
            raise AssertionError(f"{a_text}: the regular part is not closed")
        mul[i] = pos
    return mul


def plain_table(r):
    """Multiplication table of the full monoid T_r under composition."""
    maps = all_maps(r)
    powers = r ** np.arange(r - 1, -1, -1)
    return np.stack([maps[:, f] @ powers for f in maps])


def labels_from_blocks(m, blocks):
    """Block list -> label array, or ValueError unless it partitions 0..m-1."""
    labels = np.full(m, -1, dtype=np.int64)
    for b, block in enumerate(blocks):
        for x in block:
            if not isinstance(x, int) or not 0 <= x < m or labels[x] != -1:
                raise ValueError(f"element {x!r} out of range or repeated")
            labels[x] = b
    if (labels < 0).any():
        raise ValueError("blocks do not cover every element")
    return labels


def first_of_block(labels):
    """For each x, the smallest element in the block of x."""
    reps = np.full(int(labels.max()) + 1, len(labels), dtype=np.int64)
    np.minimum.at(reps, labels, np.arange(len(labels)))
    return reps[labels]


def is_compatible(mul, labels):
    """x ~ y implies sx ~ sy and xs ~ ys for every s."""
    prods = labels[mul]
    rep = first_of_block(labels)
    return bool((prods[:, rep] == prods).all() and (prods[rep, :] == prods).all())


def canonical(labels):
    """Labels renumbered by first occurrence, as a hashable key."""
    _, first, inv = np.unique(labels, return_index=True, return_inverse=True)
    order = np.argsort(np.argsort(first))
    return order[inv].astype(np.int32).tobytes()


def check_congruence_lines(mul, text):
    """Problems with a block dump: one JSON block list per line, each a
    congruence of the table, no two equal.  Returns (problems, count)."""
    problems = []
    seen = set()
    lines = text.splitlines()
    for i, line in enumerate(lines):
        try:
            labels = labels_from_blocks(len(mul), json.loads(line))
        except ValueError as exc:
            problems.append(f"line {i}: not an equivalence: {exc}")
            continue
        if not is_compatible(mul, labels):
            problems.append(f"line {i}: not compatible with the star product")
        key = canonical(labels)
        if key in seen:
            problems.append(f"line {i}: repeats an earlier relation")
        seen.add(key)
    return problems, len(lines)


def stirling2(r, q):
    """S(r, q) by inclusion-exclusion over surjections."""
    total = sum((-1) ** j * comb(q, j) * (q - j) ** r for j in range(q + 1))
    fact = prod(range(1, q + 1))
    return total // fact


def bell(n):
    """Bell numbers from the Bell triangle."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


def normal_subgroup_count(q):
    """Normal subgroups of the symmetric group S_q."""
    return {1: 1, 2: 2, 3: 3, 4: 4}.get(q, 3)


def image_monoid_congruences(r):
    """|Cong(T_r)|: Malcev's chain, one entry per normal subgroup of each
    S_q, q = 1..r, plus the universal relation when r >= 2."""
    return sum(normal_subgroup_count(q) for q in range(1, r + 1)) + (r >= 2)


def height_closed_form(n, shape):
    """Height of Cong(P) as a sum of interval heights.

    A longest chain climbs [Delta, lambda], then [lambda, kappa] (isomorphic
    to [Delta, rho]), then one layer per congruence of T_r.  Each interval
    is a product of partition lattices: one per cross-section set for rho
    (of size prod s_i over a nonempty set I of blocks) and one per
    constrained partition set for lambda (S(r, q) sets of size q^(n-r)).
    A partition lattice on k points has height k, so each factor adds k-1.
    """
    r = len(shape)
    h_rho = 1 + sum(prod(sub) - 1
                    for k in range(1, r + 1)
                    for sub in combinations(shape, k))
    h_lam = 1 + sum(stirling2(r, q) * (q ** (n - r) - 1) for q in range(1, r + 1))
    return h_lam + h_rho + image_monoid_congruences(r) - 2


def longest_chain(label_rows):
    """Number of nodes on a longest chain of partitions ordered by refinement."""
    rows = sorted(label_rows, key=lambda lab: -(int(lab.max()) + 1))
    reps = [first_of_block(lab) for lab in rows]
    best = []
    for j, lab in enumerate(rows):
        # i < j has at least as many blocks, so i below j means i is finer
        below = [best[i] for i in range(j) if (lab[reps[i]] == lab).all()]
        best.append(1 + max(below, default=0))
    return max(best)
