"""Finitely presented modules over R = Z/p^n[G].

Every module is stored as a subquotient num/den of a free scalar ambient
(Z/p^n)^dim carrying an explicit gamma matrix: num and den are
``linalg.Span`` values (Howell form plus ring) with den inside num, both
gamma-stable.  Free modules, submodules, quotients, fixed points and
filtration pieces all stay inside this one representation, so
everything reduces to the span primitives; reduction
modulo den is ``den.reduce``, with the reducer the span keeps.  Fitting
ideals are read off a given relation matrix.  Containment is decided on
generating rows (a map is checked on ``num.h @ mat``); only spans that
are kept are canonicalized.
An ideal of R is likewise a ``Span``, of its coefficient vectors
(``ideal_span``); it carries (p, n), so ideals over different rings never
compare equal, and as Howell forms are unique, span equality is ideal
equality.

R-modules expand R-coordinates to scalars: a free R-module of rank g has
ambient dimension g * p^n, scalar slot g*m + i holding the coefficient
of gamma^i, and gamma acts blockwise by the regular representation.
``free_module`` alone sets ``free_rank`` = g on the module it builds (no
test on gamma sets it, since submodules and quotients share that gamma);
such a module takes its scale matrices as kron(I_g, regular_rep(x)) and
I^k M as g diagonal copies of the Howell form of I^k, with no dense gamma
power and no Howell form of its own.  Any other module scales by one
product of x against the gamma orbit of its ambient basis, the orbit that
also spans relations and ideals, and chains I^k M + den as
(I^(k-1) M + den)(gamma - 1) + den, one step from the kept one before;
M_0^(k) is likewise M_0^(k-1) met with I^(k-1) M.

Duality: an R-valued functional on R^g is kept as a scalar one, through
the identification of Hom_R(M, R) with Hom_{Z/p^n}(M, Z/p^n) (f maps to
sum_sigma f(sigma .) sigma^{-1}); its dual-basis R-coordinate c_j fills
block j read through gamma^i -> gamma^{-i} (``groupring._dual_index``).
Of the exterior algebra on g free generators only the contraction is
kept, ``contract``, through a cached index table.

``derived`` is the one memo rule: what an object derives from data it
never changes is built once, in the object's own ``self._memo``, keyed by
method name and arguments (modules, complexes, pairing data, Stark instances).
"""

from __future__ import annotations

from functools import lru_cache, wraps
from itertools import combinations
from typing import Iterable, Optional

import numpy as np

from . import linalg as la
from .groupring import GroupRingElt, RingCtx, _dual_index, aug_ideal_power, regular_rep


def derived(method):
    """Build the method's result once per object, in its ``self._memo``, by name and arguments."""
    name = method.__name__

    @wraps(method)
    def cached(self, *args):
        key = (name, *args)
        if key not in self._memo:
            self._memo[key] = method(self, *args)
        return self._memo[key]

    return cached


class FpModule:
    """Subquotient num/den of (Z/p^n)^dim with gamma-action."""

    __slots__ = ("ring", "dim", "gamma", "num", "den", "free_rank", "parent", "_memo")

    def __init__(self, ring: RingCtx, dim: int, gamma: np.ndarray,
                 num: la.Span, den: la.Span, check: bool = True):
        self.ring = ring
        self.dim = dim
        self.gamma = np.asarray(gamma, dtype=np.int64) % ring.m
        self.gamma.setflags(write=False)
        self.num = num
        self.den = den
        self.free_rank: Optional[int] = None  # set by free_module alone
        self.parent: Optional[FpModule] = None  # set by submodules alone
        self._memo: dict[tuple, object] = {}
        if check:
            if not num.contains(den):
                raise ValueError("denominator is not contained in numerator")
            for span in (num, den):
                if not span.contains(la.mul_mod(span.h, self.gamma, ring.m)):
                    raise ValueError("span is not gamma-stable")
            # gamma^(p^n) must be the identity on the module
            if dim and num.h.shape[0]:
                pw = la.mat_pow_mod(self.gamma, ring.m, ring.m)
                if not den.contains(la.mul_mod(num.h, pw - np.eye(dim, dtype=np.int64), ring.m)):
                    raise ValueError("gamma action does not have order dividing p^n")

    # -- basic structure ------------------------------------------------------

    @property
    def p(self) -> int:
        return self.ring.p

    @property
    def n(self) -> int:
        return self.ring.n

    @property
    def m(self) -> int:
        return self.ring.m

    def gamma_orbit(self, rows: np.ndarray) -> np.ndarray:
        """Rows v, v gamma, ..., v gamma^(m-1) of each row v, row by row."""
        rows = np.atleast_2d(np.asarray(rows, dtype=np.int64)) % self.m
        out = np.empty((rows.shape[0], self.m, self.dim), dtype=np.int64)
        for i in range(self.m):
            out[:, i] = rows
            rows = la.mul_mod(rows, self.gamma, self.m)
        return out.reshape(rows.shape[0] * self.m, self.dim)

    def order(self) -> int:
        return self.num.size() // self.den.size()

    def reduce(self, v: np.ndarray) -> np.ndarray:
        """Canonical coset representative modulo den."""
        return self.den.reduce(v)

    # -- derived modules -------------------------------------------------------

    def submodule(self, span: la.Span) -> "FpModule":
        return self._over_den(span + self.den)

    def _over_den(self, num: la.Span) -> "FpModule":
        """The submodule num/den, for a span num that already contains den."""
        if not self.num.contains(num):
            raise ValueError("span does not lie in the module")
        sub = FpModule(self.ring, self.dim, self.gamma, num, self.den, check=False)
        sub.parent = self
        return sub

    def quotient(self, span: la.Span) -> "FpModule":
        return FpModule(self.ring, self.dim, self.gamma, self.num, span + self.den,
                        check=False)

    def scale_matrix(self, x: GroupRingElt) -> np.ndarray:
        """Matrix of multiplication by the ring element x on the ambient."""
        if self.free_rank is not None:
            return _diagonal_copies(self.free_rank, regular_rep(x))
        # sum_i x_i gamma^i: the orbit of the identity, regrouped power-major
        dim = self.dim
        pows = self.gamma_orbit(np.eye(dim, dtype=np.int64)).reshape(dim, self.m, dim)
        return la.mul_mod(x.coeffs, pows.transpose(1, 0, 2).reshape(self.m, -1),
                          self.m).reshape(dim, dim)

    @derived
    def fixed_point_span(self) -> la.Span:
        """Numerator span of M^G = ker(gamma - 1) on the subquotient; a submodule
        shares gamma and den with its parent, so it meets the parent's with its num."""
        if self.parent is not None:
            return la.span_intersect(self.parent.fixed_point_span(), self.num)
        gm1 = (self.gamma - np.eye(self.dim, dtype=np.int64)) % self.m
        return la.span_intersect(la.preimage(gm1, self.den), self.num)

    @derived
    def ideal_multiple_span(self, k: int) -> la.Span:
        """Span of I^k M (plus den) inside the ambient: (I^(k-1) M + den)(gamma - 1) + den,
        which is the span before it once two in a row are equal."""
        if k <= 0:
            return self.num
        if self.free_rank is not None:  # r diagonal copies of I^k, a Howell form
            block = aug_ideal_power(self.ring, k).h
            return la.Span._of_howell(_diagonal_copies(self.free_rank, block), self.p, self.n)
        prev = self.ideal_multiple_span(k - 1)
        if k > 1 and prev == self.ideal_multiple_span(k - 2):
            return prev
        gm1 = (self.gamma - np.eye(self.dim, dtype=np.int64)) % self.m
        return la.image_span(prev, gm1, self.den)

    @derived
    def filtration_piece(self, k: int) -> "FpModule":
        """M_0^(k) = M^G intersected with I^(k-1) M, for 1 <= k <= p-1: M^G itself at
        k = 1, then M_0^(k-1) met with I^(k-1) M (den lies in both, so no sum)."""
        if not 1 <= k <= self.p - 1:
            raise ValueError("filtration piece defined for 1 <= k <= p-1")
        num = (self.fixed_point_span() + self.den if k == 1 else
               la.span_intersect(self.filtration_piece(k - 1).num, self.ideal_multiple_span(k - 1)))
        return FpModule(self.ring, self.dim, self.gamma, num, self.den, check=False)


class ModuleHom:
    """Map between subquotients given by an ambient matrix, or by None for
    the identity on representatives (no identity matrix is built)."""

    __slots__ = ("src", "tgt", "mat")

    def __init__(self, src: FpModule, tgt: FpModule, mat: Optional[np.ndarray],
                 check: bool = True):
        self.src = src
        self.tgt = tgt
        self.mat = None if mat is None else np.asarray(mat, dtype=np.int64) % src.m
        if check:
            self.check_well_defined()

    def _rows(self, v: np.ndarray) -> np.ndarray:
        """The ambient images of the rows of v (v itself for the identity)."""
        return v if self.mat is None else la.mul_mod(v, self.mat, self.src.m)

    def check_well_defined(self) -> None:
        """num into num, den into den, and gamma-equivariance modulo den: num @ D in den
        for D = gamma_src @ M - M @ gamma_tgt (M = I if None), not reduced when D = 0."""
        src, tgt, m = self.src, self.tgt, self.src.m
        if not tgt.num.contains(self._rows(src.num.h)):
            raise ValueError("map does not send numerator into numerator")
        if not tgt.den.contains(self._rows(src.den.h)):
            raise ValueError("map does not send denominator into denominator")
        diff = (self._rows(src.gamma)
                - (tgt.gamma if self.mat is None else la.mul_mod(self.mat, tgt.gamma, m))) % m
        if diff.any() and not tgt.den.contains(la.mul_mod(src.num.h, diff, m)):
            raise ValueError("map does not commute with the gamma action")

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.tgt.reduce(self._rows(v))

    def image(self) -> FpModule:
        if self.mat is None and self.src.num == self.tgt.num:
            return self.tgt  # the identity onto the same numerator
        return self.tgt._over_den(la.Span(self._rows(self.src.num.h), self.src.p, self.src.n,
                                          self.tgt.den))

    def is_surjective(self) -> bool:
        return self.image().order() == self.tgt.order()


# -- constructors --------------------------------------------------------------


def _diagonal_copies(r: int, block: np.ndarray) -> np.ndarray:
    """kron(I_r, block): r copies of block down the diagonal."""
    rows, cols = block.shape
    out = np.zeros((r * rows, r * cols), dtype=np.int64)
    for i in range(r):
        out[i * rows:(i + 1) * rows, i * cols:(i + 1) * cols] = block
    return out


@lru_cache(maxsize=32)
def free_module(ring: RingCtx, rank: int) -> FpModule:
    """Free R-module R^rank in the regular-representation expansion (shared, read-only)."""
    p, n, dim = ring.p, ring.n, rank * ring.m
    gamma = _diagonal_copies(rank, regular_rep(ring.gamma()))
    free = FpModule(ring, dim, gamma, la.Span.whole(dim, p, n), la.Span.zero(dim, p, n),
                    check=False)
    free.free_rank = rank
    return free


def from_presentation(ring: RingCtx, generators: int, relations: np.ndarray,
                      gamma: Optional[np.ndarray] = None) -> FpModule:
    """Quotient of a free R-module by relations.

    Scalar relation rows are taken as R-generators of the relation
    submodule, so each row is closed under the orbit of the module's own
    gamma (the given one, else the blockwise regular one) before spanning.
    """
    base = free_module(ring, generators)
    if gamma is not None:
        base = FpModule(ring, base.dim, gamma, base.num, base.den, check=False)
    rel = np.atleast_2d(np.asarray(relations, dtype=np.int64)) if np.asarray(relations).size \
        else np.zeros((0, base.dim), dtype=np.int64)
    if rel.shape[0] and rel.shape[1] != base.dim:
        raise ValueError("relation rows have the wrong width")
    if rel.shape[0]:
        rel = base.gamma_orbit(rel)
    return FpModule(ring, base.dim, base.gamma, base.num, la.Span(rel, ring.p, ring.n))


def r_matrix_expand(ring: RingCtx, rows: list[list[GroupRingElt]]) -> np.ndarray:
    """Scalar expansion of an R-matrix: block (i, j) = regular_rep(L[i][j])."""
    m = ring.m
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    out = np.zeros((nr * m, nc * m), dtype=np.int64)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            out[i * m:(i + 1) * m, j * m:(j + 1) * m] = regular_rep(x)
    return out


def r_rows_from_scalar(ring: RingCtx, mat: np.ndarray) -> list[list[GroupRingElt]]:
    """Inverse of r_matrix_expand; rejects matrices that are not R-linear.

    A scalar matrix represents an R-matrix exactly when every block is a
    regular representation, equivalently when it commutes with the
    blockwise gamma action.
    """
    m = ring.m
    mat = np.asarray(mat, dtype=np.int64) % m
    if mat.ndim != 2 or mat.shape[0] % m or mat.shape[1] % m:
        raise ValueError("scalar matrix shape is not a multiple of p^n")
    a, b = mat.shape[0] // m, mat.shape[1] // m
    rows = [[ring.elt(mat[i * m, j * m:(j + 1) * m]) for j in range(b)]
            for i in range(a)]
    bad = np.argwhere(r_matrix_expand(ring, rows) != mat)
    if bad.size:
        raise ValueError(f"matrix is not R-linear at scalar entry {tuple(bad[0].tolist())}")
    return rows


# -- dual-basis coordinates --------------------------------------------------------


def functional_from_rcoords(ring: RingCtx, coords: list[GroupRingElt]) -> np.ndarray:
    """Scalar functional on R^g for sum_j c_j phi_j in the dual basis."""
    return np.array([c.coeffs for c in coords])[:, _dual_index(ring.m)].ravel()


def rcoords_from_functional(ring: RingCtx, phi: np.ndarray) -> list[GroupRingElt]:
    """The dual-basis R-coordinates c_1..c_g of a scalar functional on R^g."""
    blocks = np.asarray(phi, dtype=np.int64).reshape(-1, ring.m)[:, _dual_index(ring.m)]
    return [ring.elt(b) for b in blocks]


# -- Fitting ideals -------------------------------------------------------------


def det_r(ring: RingCtx, rows: list[list[GroupRingElt]]) -> GroupRingElt:
    """Determinant over R by cofactor expansion (desk-scale sizes)."""
    k = len(rows)
    if k == 0:
        return ring.one()
    if k == 1:
        return rows[0][0]
    out = ring.zero()
    for j in range(k):
        if rows[0][j].is_zero():
            continue
        minor = [[row[t] for t in range(k) if t != j] for row in rows[1:]]
        term = rows[0][j] * det_r(ring, minor)
        out = out + term if j % 2 == 0 else out - term
    return out


def ideal_span(ring: RingCtx, elems: Iterable[GroupRingElt]) -> la.Span:
    """The ideal of R that elems generate, as the span of its coefficient vectors."""
    # row i of regular_rep(e) is gamma^i * e
    rows = np.array([regular_rep(e) for e in elems], dtype=np.int64).reshape(-1, ring.m)
    return la.Span(rows, ring.p, ring.n)


def fitting_from_matrix(ring: RingCtx, g: int, rel_rows: list[list[GroupRingElt]],
                        i: int) -> la.Span:
    size = g - i
    if size <= 0:
        return la.Span.whole(ring.m, ring.p, ring.n)
    if size > len(rel_rows):
        return la.Span.zero(ring.m, ring.p, ring.n)
    return ideal_span(ring, (det_r(ring, [[rel_rows[r][c] for c in csel] for r in rsel])
                             for rsel in combinations(range(len(rel_rows)), size)
                             for csel in combinations(range(g), size)))


# -- exterior powers ------------------------------------------------------------


@lru_cache(maxsize=64)
def _wedge_table(g: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Where e_l ^ e_S lands, for S an r-subset of the g generators.

    Row i is the i-th r-subset S, column l a label: the index of S + {l}
    among the (r+1)-subsets and the sign of moving e_l past e_S.  Where l
    is in S the index is -1 (a zero pad block) and the sign 0.  ``contract``
    reads it.
    """
    upper = {s: i for i, s in enumerate(combinations(range(g), r + 1))}
    subs = list(combinations(range(g), r))
    idx = np.full((len(subs), g), -1, dtype=np.int64)
    sgn = np.zeros((len(subs), g), dtype=np.int64)
    for i, s in enumerate(subs):
        for l in range(g):
            if l not in s:
                idx[i, l] = upper[tuple(sorted(s + (l,)))]
                sgn[i, l] = -1 if sum(1 for t in s if t < l) % 2 else 1
    idx.setflags(write=False)
    sgn.setflags(write=False)
    return idx, sgn


def contract(ring: RingCtx, r_plus_1: int, eps: np.ndarray,
             f_coords: list[GroupRingElt]) -> np.ndarray:
    """Functional on degree r+1 contracted by f: (eps . f)(w) = eps(f ^ w).

    The exterior algebra is the one on g = len(f_coords) free generators.
    Block S of the result is the sum over l of sign(l, S) f_l eps_(S + {l}):
    one gather of the blocks of eps, times the stacked regular_rep(f_l)^T.
    """
    m, g = ring.m, len(f_coords)
    idx, sgn = _wedge_table(g, r_plus_1 - 1)
    blocks = np.vstack([np.asarray(eps, dtype=np.int64).reshape(-1, m),
                        np.zeros((1, m), dtype=np.int64)])
    gathered = (sgn[:, :, None] * blocks[idx]).reshape(len(idx), g * m)
    reps = np.vstack([regular_rep(f).T for f in f_coords])
    return la.mul_mod(gathered, reps, m).ravel()
