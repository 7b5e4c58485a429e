"""The sandwich variant of T_X, its regular part, and the retraction onto aT_Xa.

For an idempotent sandwich element a of rank r, the context bundles:

  - P, the regular elements of the variant, a subsemigroup under f*g = fag;
  - T = aT_Xa with plain composition (isomorphic to the full monoid on r points);
  - phi: P -> T, f -> afa, a retraction fixing T pointwise;
  - kappa = ker(phi), lam = kappa meet L^P, rho = kappa meet R^P.

All heavy lifting is done on integer image matrices; the 0-based image
rows of all n^n maps are ordered lexicographically, so a map's row-major
code is its index in the full enumeration.
"""

import numpy as np

from .congruence import EquivalenceRelation, is_congruence
from .semigroup import FiniteSemigroup
from .transform import (SandwichElement, Transformation, format_transformation,
                        is_idempotent, parse_transformation)


def _image_matrix(n):
    # all n^n image rows in lexicographic order, allocated up front so an
    # oversized n fails fast instead of grinding through a Python product
    grids = np.meshgrid(*([np.arange(n, dtype=np.int16)] * n), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _star_table(rows, A, lut):
    """Sandwich products of the maps `rows`: entry (i, j) is lut at the code
    of rows[i], then a (0-based images A), then rows[j]."""
    powers = rows.shape[1] ** np.arange(rows.shape[1] - 1, -1, -1, dtype=np.int64)
    mul = np.empty((len(rows), len(rows)), dtype=np.int32)
    for i in range(len(rows)):
        mul[i] = lut[rows[:, A[rows[i]]].astype(np.int64) @ powers]
    return mul


def _row_ranks(rows):
    s = np.sort(rows, axis=1)
    return 1 + (np.diff(s, axis=1) > 0).sum(axis=1)


class VariantContext:
    def __init__(self, sand, check=True):
        if isinstance(sand, Transformation):
            if not is_idempotent(sand):
                raise ValueError("sandwich element must be idempotent; "
                                 "use normalize_sandwich first")
            sand = SandwichElement(sand)
        self.sand = sand
        self.n = sand.n
        self.r = sand.r
        n = self.n
        E = _image_matrix(n)
        m = len(E)
        powers = (n ** np.arange(n - 1, -1, -1)).astype(np.int64)
        A = np.array(sand.a.images, dtype=np.int16) - 1

        afa = A[E[:, A]]                      # row f holds the images of afa
        p_mask = _row_ranks(afa) == _row_ranks(E)
        p_elems = np.nonzero(p_mask)[0]
        EP = E[p_elems]
        mP = len(EP)
        lut = np.full(m, -1, dtype=np.int64)
        lut[p_elems] = np.arange(mP)

        mulP = _star_table(EP, A, lut)
        assert (mulP >= 0).all(), "star product left the regular part"

        afa_codes = afa.astype(np.int64) @ powers
        t_codes = np.unique(afa_codes)
        t_in_p = lut[t_codes]
        assert (t_in_p >= 0).all(), "aT_Xa not inside the regular part"
        mT = len(t_codes)
        assert mT == self.r ** self.r
        p2t = np.full(mP, -1, dtype=np.int64)
        p2t[t_in_p] = np.arange(mT)
        mulT = p2t[mulP[np.ix_(t_in_p, t_in_p)]]
        assert (mulT >= 0).all(), "aT_Xa not closed"

        self.phi = p2t[lut[afa_codes[p_elems]]]
        assert (self.phi >= 0).all()
        self.t_in_p = t_in_p
        self.ep_images = EP
        self.p_ranks = _row_ranks(EP)

        tag = f"sandwich({format_transformation(sand.a)})"
        to_elem = lambda row: Transformation(int(x) + 1 for x in row)
        self.P = FiniteSemigroup([to_elem(row) for row in EP], mulP, op_tag=tag,
                                 check=check)
        self.T = FiniteSemigroup([to_elem(row) for row in EP[t_in_p]], mulT,
                                 op_tag="plain", check=check)
        self.a_index = int(lut[int(A.astype(np.int64) @ powers)])
        assert self.a_index >= 0

        self.kappa = EquivalenceRelation(self.phi)
        g = self.P.greens()
        self.l_rel = EquivalenceRelation(g.l_class)
        self.r_rel = EquivalenceRelation(g.r_class)
        self.lam = self.kappa.meet(self.l_rel)
        self.rho = self.kappa.meet(self.r_rel)

        if check:
            self._check()

    def _check(self):
        mulP, mulT, phi = self.P.mul, self.T.mul, self.phi
        # phi is a homomorphism for the sandwich product and fixes T pointwise
        assert (phi[mulP] == mulT[phi[:, None], phi[None, :]]).all()
        assert (phi[self.t_in_p] == np.arange(len(mulT))).all()
        # the sandwich product restricted to T is plain composition
        ET = self.ep_images[self.t_in_p]
        for i in range(len(ET)):
            plain = ET[:, ET[i]]
            assert (plain == ET[mulT[i]]).all()
        assert is_congruence(self.lam, mulP)
        assert is_congruence(self.rho, mulP)
        assert self.lam.meet(self.rho) == EquivalenceRelation.diagonal(len(mulP))
        # lam o rho = kappa; it then equals rho o lam, its own transpose
        assert self.lam.permuting_join(self.rho) == self.kappa

    def __repr__(self):
        return (f"VariantContext(a={format_transformation(self.sand.a)}, "
                f"|P|={len(self.P)}, |T|={len(self.T)})")

    def txa(self, check=True):
        """The full variant semigroup on all n^n maps (built on demand)."""
        if not hasattr(self, "_txa"):
            E = _image_matrix(self.n)
            A = np.array(self.sand.a.images, dtype=np.int16) - 1
            mul = _star_table(E, A, np.arange(len(E), dtype=np.int32))
            tag = f"sandwich({format_transformation(self.sand.a)})"
            elems = [Transformation(int(x) + 1 for x in row) for row in E]
            self._txa = FiniteSemigroup(elems, mul, op_tag=tag, check=check)
        return self._txa

    def summary(self):
        return {
            "n": self.n,
            "r": self.r,
            "block_sizes": list(self.sand.block_sizes()),
            "P_size": len(self.P),
            "T_size": len(self.T),
        }


def build_context(a, check=True):
    if isinstance(a, str):
        a = parse_transformation(a)
    return VariantContext(a, check=check)


def hat_class(ctx, kind, f):
    """Indices g in P with phi(g) K^T phi(f), for K one of l, r, h."""
    if kind not in ("l", "r", "h"):
        raise ValueError(f"kind must be l, r or h, not {kind!r}")
    labels = getattr(ctx.T.greens(), kind + "_class")[ctx.phi]
    return np.nonzero(labels == labels[f])[0].tolist()

