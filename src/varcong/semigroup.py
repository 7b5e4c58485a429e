"""Finite semigroups given by an element list and a multiplication table.

Green's relations are computed generically: L-classes are the strongly
connected components of the one-step graph x -> s*x (and dually for R),
D is the join of L and R, and J comes from the combined graph.  Nothing
here assumes the elements are transformations, though the egg-box export
orders D-classes by transformation rank when they are.
"""

from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .congruence import canonical_labels, join_labels
from .lattice import hasse_covers
from .transform import Transformation, rank as t_rank

MUL_DTYPE = np.int32


class FiniteSemigroup:
    def __init__(self, elements, mul, op_tag="plain", check=True):
        self.elements = list(elements)
        self.mul = np.ascontiguousarray(mul, dtype=MUL_DTYPE)
        self.op_tag = op_tag
        self.index = {e: i for i, e in enumerate(self.elements)}
        self._greens = None
        m = len(self.elements)
        if self.mul.shape != (m, m):
            raise ValueError(f"table shape {self.mul.shape} does not match {m} elements")
        if check:
            self._check_table()

    def _check_table(self):
        m = len(self.elements)
        if m and (self.mul.min() < 0 or self.mul.max() >= m):
            raise ValueError("table entry outside the element list")
        if m == 0:
            return
        if m <= 50:
            # lhs[x,y,z] = (xy)z, rhs[x,y,z] = x(yz)
            if not (self.mul[self.mul, :] == self.mul[:, self.mul]).all():
                raise ValueError("multiplication table is not associative")
        else:
            rng = np.random.default_rng(0)
            xs, ys, zs = rng.integers(0, m, size=(3, 200))
            if not (self.mul[self.mul[xs, ys], zs] == self.mul[xs, self.mul[ys, zs]]).all():
                raise ValueError("multiplication table is not associative")

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"FiniteSemigroup({len(self.elements)} elements, {self.op_tag})"

    def product(self, i, j):
        return int(self.mul[i, j])

    def idempotent_indices(self):
        m = len(self.elements)
        d = np.arange(m)
        return np.nonzero(self.mul[d, d] == d)[0]

    def identity_index(self):
        m = len(self.elements)
        d = np.arange(m)
        for e in self.idempotent_indices():
            if (self.mul[e, :] == d).all() and (self.mul[:, e] == d).all():
                return int(e)
        return None

    def greens(self):
        if self._greens is None:
            self._greens = GreenStructure(self.mul)
        return self._greens

    def regular_elements(self):
        """Indices x with x = x*y*x for some y."""
        out = []
        for x in range(len(self.elements)):
            if (self.mul[self.mul[x], x] == x).any():
                out.append(x)
        return out


def build(elements, product):
    """Tabulate a closed element list under the given product function."""
    elements = list(elements)
    index = {e: i for i, e in enumerate(elements)}
    m = len(elements)
    mul = np.empty((m, m), dtype=MUL_DTYPE)
    for i, x in enumerate(elements):
        for j, y in enumerate(elements):
            p = product(x, y)
            k = index.get(p)
            if k is None:
                raise ValueError(f"product {p!r} of elements {i},{j} escapes the element list")
            mul[i, j] = k
    return FiniteSemigroup(elements, mul)


def _scc_labels(m, src, dst):
    graph = csr_matrix((np.ones(len(src), dtype=np.int8), (src, dst)), shape=(m, m))
    _, labels = connected_components(graph, directed=True, connection="strong")
    return canonical_labels(labels)


class GreenStructure:
    def __init__(self, mul):
        mul = self._mul = np.asarray(mul)
        m = len(mul)
        all_idx = np.arange(m)
        col_src = np.tile(all_idx, m)      # entry (s, x) of mul: product s*x
        row_src = np.repeat(all_idx, m)    # entry (x, s) of mul: product x*s
        flat = mul.ravel()
        self.l_class = _scc_labels(m, col_src, flat)
        self.r_class = _scc_labels(m, row_src, flat)
        self.h_class = canonical_labels(
            self.l_class.astype(np.int64) * m + self.r_class)
        self.d_class = canonical_labels(join_labels(self.l_class, self.r_class))
        j_class = _scc_labels(
            m, np.concatenate([col_src, row_src]), np.concatenate([flat, flat]))
        assert (j_class == self.d_class).all(), "D differs from J on a finite semigroup"
        self.num_d = int(self.d_class.max()) + 1 if m else 0
        self.group_h = np.zeros(int(self.h_class.max()) + 1 if m else 0, dtype=bool)
        idem = np.nonzero(mul[all_idx, all_idx] == all_idx)[0]
        self.group_h[self.h_class[idem]] = True

    @cached_property
    def d_order(self):
        """leq[i, j] true iff D-class i lies below D-class j (i in the ideal of j).

        The one-step order is closed by squaring in float32: numpy's bool
        matmul has no BLAS, and path counts stay below 2^24, hence exact.
        """
        mul, d = self._mul, self.d_class
        leq = np.eye(self.num_d, dtype=np.float32)
        leq[d[mul.ravel()], np.tile(d, len(mul))] = 1   # s*x below x
        leq[d[mul.ravel()], np.repeat(d, len(mul))] = 1  # x*s below x
        while True:
            nxt = (leq @ leq > 0).astype(np.float32)
            if (nxt == leq).all():
                return leq > 0
            leq = nxt

    def classes_of(self, kind):
        labels = getattr(self, kind + "_class")
        out = [[] for _ in range(int(labels.max()) + 1 if len(labels) else 0)]
        for x, c in enumerate(labels):
            out[c].append(x)
        return out


def eggbox(S):
    """Grid model of each D-class: one row per R-class, one column per L-class.

    D-classes are ordered top-down (rank of a representative, descending,
    when elements are transformations; otherwise by ideal depth), classes
    within by minimal element.  Every cell is an H-class; group cells are
    flagged.
    """
    g = S.greens()
    d_classes = g.classes_of("d")
    order = []
    for d_id, members in enumerate(d_classes):
        rep = S.elements[members[0]]
        if isinstance(rep, Transformation):
            depth = t_rank(rep)
        else:
            depth = int(g.d_order[:, d_id].sum())  # classes below, self included
        order.append((-depth, members[0], d_id))
    order.sort()
    boxes = []
    for neg_depth, _, d_id in order:
        members = d_classes[d_id]
        r_ids = sorted({int(g.r_class[x]) for x in members},
                       key=lambda c: min(x for x in members if g.r_class[x] == c))
        l_ids = sorted({int(g.l_class[x]) for x in members},
                       key=lambda c: min(x for x in members if g.l_class[x] == c))
        cells = {}
        for x in members:
            key = (int(g.r_class[x]), int(g.l_class[x]))
            cells.setdefault(key, []).append(x)
        sizes = {len(v) for v in cells.values()}
        assert len(cells) == len(r_ids) * len(l_ids), "D-class grid has holes"
        assert len(sizes) == 1, "H-classes of unequal size inside a D-class"
        grid = [[cells[(ri, li)] for li in l_ids] for ri in r_ids]
        group = [[bool(S.greens().group_h[g.h_class[cell[0]]]) for cell in row]
                 for row in grid]
        boxes.append({
            "d_class": d_id,
            "depth": -neg_depth,
            "num_r": len(r_ids),
            "num_l": len(l_ids),
            "h_size": sizes.pop(),
            "grid": grid,
            "group": group,
        })
    return boxes


def eggbox_text(S):
    lines = []
    for box in eggbox(S):
        lines.append(f"D-class {box['d_class']} (depth {box['depth']}): "
                     f"{box['num_r']} R x {box['num_l']} L, H-size {box['h_size']}")
        for row, grow in zip(box["grid"], box["group"]):
            cells = []
            for cell, is_group in zip(row, grow):
                mark = "*" if is_group else " "
                cells.append(f"[{len(cell)}{mark}]")
            lines.append("  " + " ".join(cells))
    return "\n".join(lines) + "\n"


def eggbox_dot(S, name="eggbox"):
    lines = [f"digraph {name} {{", "  rankdir=TB;", "  node [shape=plaintext];"]
    for box in eggbox(S):
        d = box["d_class"]
        rows = []
        for row, grow in zip(box["grid"], box["group"]):
            tds = []
            for cell, is_group in zip(row, grow):
                bg = ' BGCOLOR="lightgrey"' if is_group else ""
                tds.append(f"<TD{bg}>{len(cell)}</TD>")
            rows.append("<TR>" + "".join(tds) + "</TR>")
        label = ('<<TABLE BORDER="0" CELLBORDER="1" CELLSPACING="0">'
                 + "".join(rows) + "</TABLE>>")
        lines.append(f"  d{d} [label={label}];")
    # Hasse edges of the ideal order, drawn upper class -> lower class
    covers = hasse_covers(S.greens().d_order)
    for lo, hi in sorted(zip(*np.nonzero(covers))):
        lines.append(f"  d{hi} -> d{lo};")
    lines.append("}")
    return "\n".join(lines) + "\n"
