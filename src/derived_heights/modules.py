"""Finitely presented modules over R = Z/p^n[G] and R0 = Z/p^n.

Every module is stored as a subquotient num/den of a free scalar ambient
(Z/p^n)^dim carrying an explicit gamma matrix: num and den are
``linalg.Span`` values (Howell form plus ring) with den inside num, both
gamma-stable.  Free modules, submodules, quotients, duals, fixed points,
filtration pieces, Fitting ideals and exterior biduals all stay inside
this one representation, so everything reduces to the span primitives;
reduction modulo den is ``den.reduce``, with the reducer the span keeps.
Containment and annihilation are decided on generating rows (a map is
checked on ``num.h @ mat``); only spans that are kept are canonicalized.
An ``Ideal`` is likewise a tag plus the ``Span`` of its coefficient
vectors, so ideals over different rings never compare equal.

R-modules expand R-coordinates to scalars: a free R-module of rank g has
ambient dimension g * p^n, scalar slot g*m + i holding the coefficient
of gamma^i, and gamma acts blockwise by the regular representation.
``free_module`` alone sets ``free_rank`` = g on the module it builds (no
test on gamma sets it, since submodules and quotients share that gamma);
such a module takes its scale matrices as kron(I_g, regular_rep(x)) and
I^k M as g diagonal copies of the Howell form of I^k, with no dense gamma
power and no Howell form of its own.

Duality: Hom_R(M, R) is computed through its identification with
Hom_{R0}(M, R0) (f maps to sum_sigma f(sigma .) sigma^{-1}); a scalar
functional phi on the ambient therefore represents an R-valued one, and
``eval_r`` recovers the R-value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Optional

import numpy as np

from . import linalg as la
from .groupring import GroupRingElt, RingCtx, aug_ideal_power, regular_rep


class FpModule:
    """Subquotient num/den of (Z/p^n)^dim with gamma-action."""

    __slots__ = ("ring", "tag", "dim", "gamma", "num", "den", "free_rank", "_gamma_pows",
                 "_fixed")

    def __init__(self, ring: RingCtx, tag: str, dim: int, gamma: np.ndarray,
                 num: la.Span, den: la.Span, check: bool = True):
        if tag not in ("R", "R0"):
            raise ValueError("tag must be 'R' or 'R0'")
        self.ring = ring
        self.tag = tag
        self.dim = dim
        self.gamma = np.asarray(gamma, dtype=np.int64) % ring.m
        self.gamma.setflags(write=False)
        self.num = num
        self.den = den
        self.free_rank: Optional[int] = None  # set by free_module alone
        self._gamma_pows = None
        self._fixed: Optional[la.Span] = None
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

    def gamma_power(self, i: int) -> np.ndarray:
        if self._gamma_pows is None:
            pows = [np.eye(self.dim, dtype=np.int64)]
            for _ in range(self.m - 1):
                pows.append(la.mul_mod(pows[-1], self.gamma, self.m))
            for pw in pows:
                pw.setflags(write=False)
            self._gamma_pows = pows
        return self._gamma_pows[i % self.m]

    def gamma_orbit(self, rows: np.ndarray) -> np.ndarray:
        """Rows v, v gamma, ..., v gamma^(m-1) of each row v, row by row."""
        rows = np.atleast_2d(np.asarray(rows, dtype=np.int64)) % self.m
        out = np.empty((rows.shape[0], self.m, self.dim), dtype=np.int64)
        for i in range(self.m):
            out[:, i] = rows
            rows = la.mul_mod(rows, self.gamma, self.m)
        return out.reshape(-1, self.dim)

    def order(self) -> int:
        return self.num.size() // self.den.size()

    def reduce(self, v: np.ndarray) -> np.ndarray:
        """Canonical coset representative modulo den."""
        return self.den.reduce(v)

    def is_zero_elt(self, v: np.ndarray) -> bool:
        return not self.reduce(v).any()

    def eq_elts(self, v: np.ndarray, w: np.ndarray) -> bool:
        return not self.reduce((v - w) % self.m).any()

    def generators(self) -> list[np.ndarray]:
        """Scalar generators of num (coset images generate the module)."""
        return list(self.num.h)

    # -- derived modules -------------------------------------------------------

    def submodule(self, span: la.Span) -> "FpModule":
        return self._over_den(span + self.den)

    def _over_den(self, num: la.Span) -> "FpModule":
        """The submodule num/den, for a span num that already contains den."""
        if not self.num.contains(num):
            raise ValueError("span does not lie in the module")
        return FpModule(self.ring, self.tag, self.dim, self.gamma, num, self.den,
                        check=False)

    def quotient(self, span: la.Span) -> "FpModule":
        return FpModule(self.ring, self.tag, self.dim, self.gamma, self.num,
                        span + self.den, check=False)

    def scale_matrix(self, x: GroupRingElt) -> np.ndarray:
        """Matrix of multiplication by the ring element x on the ambient."""
        if self.free_rank is not None:
            return _diagonal_copies(self.free_rank, regular_rep(x))
        m = self.m
        out = np.zeros((self.dim, self.dim), dtype=np.int64)
        for i, c in enumerate(x.coeffs):
            if c:
                out = (out + c * self.gamma_power(i)) % m
        return out

    def fixed_point_span(self) -> la.Span:
        """Numerator span of M^G = ker(gamma - 1) on the subquotient, built once."""
        if self._fixed is None:
            gm1 = (self.gamma - np.eye(self.dim, dtype=np.int64)) % self.m
            self._fixed = la.span_intersect(la.preimage(gm1, self.den), self.num)
        return self._fixed

    def fixed_points(self) -> "FpModule":
        return FpModule(self.ring, self.tag, self.dim, self.gamma,
                        self.fixed_point_span() + self.den, self.den, check=False)

    def ideal_multiple_span(self, k: int) -> la.Span:
        """Span of I^k M (plus den) inside the ambient."""
        if k <= 0:
            return self.num
        if self.free_rank is not None:  # r diagonal copies of I^k, a Howell form
            block = aug_ideal_power(self.ring, k).h
            return la.Span._of_howell(_diagonal_copies(self.free_rank, block), self.p, self.n)
        gm1 = (self.gamma - np.eye(self.dim, dtype=np.int64)) % self.m
        mat = la.mat_pow_mod(gm1, k, self.m)
        return la.image_span(self.num, mat) + self.den

    def filtration_piece(self, k: int) -> "FpModule":
        """M_0^(k) = M^G intersected with I^(k-1) M, for 1 <= k <= p-1."""
        if not 1 <= k <= self.p - 1:
            raise ValueError("filtration piece defined for 1 <= k <= p-1")
        fixed = self.fixed_point_span()
        num = la.span_intersect(fixed, self.ideal_multiple_span(k - 1)) + self.den
        return FpModule(self.ring, self.tag, self.dim, self.gamma, num, self.den,
                        check=False)


class ModuleHom:
    """Map between subquotients given by an ambient matrix."""

    __slots__ = ("src", "tgt", "mat", "_image")

    def __init__(self, src: FpModule, tgt: FpModule, mat: np.ndarray,
                 check: bool = True):
        self.src = src
        self.tgt = tgt
        self.mat = np.asarray(mat, dtype=np.int64) % src.m
        self._image: Optional[FpModule] = None
        if check:
            self.check_well_defined()

    def check_well_defined(self) -> None:
        src, tgt, mat, m = self.src, self.tgt, self.mat, self.src.m
        if not tgt.num.contains(la.mul_mod(src.num.h, mat, m)):
            raise ValueError("map does not send numerator into numerator")
        if not tgt.den.contains(la.mul_mod(src.den.h, mat, m)):
            raise ValueError("map does not send denominator into denominator")
        # R-linearity on representatives: commutes with gamma modulo den
        comm = la.mul_mod(src.gamma, mat, m) - la.mul_mod(mat, tgt.gamma, m)
        if not tgt.den.contains(la.mul_mod(src.num.h, comm, m)):
            raise ValueError("map does not commute with the gamma action")

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.tgt.reduce(la.mul_mod(v, self.mat, self.src.m))

    def kernel(self) -> FpModule:
        pre = la.preimage(self.mat, self.tgt.den)
        return self.src.submodule(la.span_intersect(pre, self.src.num))

    def image(self) -> FpModule:
        if self._image is None:  # built once per map; image and den in one Howell form
            self._image = self.tgt._over_den(la.image_span(self.src.num, self.mat, self.tgt.den))
        return self._image

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
    free = FpModule(ring, "R", dim, gamma, la.Span.whole(dim, p, n),
                    la.Span.zero(dim, p, n), check=False)
    free.free_rank = rank
    return free


def free_r0_module(ring: RingCtx, rank: int) -> FpModule:
    """Free Z/p^n-module with trivial gamma action."""
    return FpModule(ring, "R0", rank, np.eye(rank, dtype=np.int64),
                    la.Span.whole(rank, ring.p, ring.n), la.Span.zero(rank, ring.p, ring.n),
                    check=False)


def from_presentation(ring: RingCtx, tag: str, generators: int,
                      relations: np.ndarray,
                      gamma: Optional[np.ndarray] = None) -> FpModule:
    """Quotient of a free module by relations.

    Scalar relation rows are taken as R-generators of the relation
    submodule, so for tag R each row is closed under the gamma orbit
    before spanning.
    """
    base = free_module(ring, generators) if tag == "R" else free_r0_module(ring, generators)
    g = base.gamma if gamma is None else np.asarray(gamma, dtype=np.int64) % ring.m
    rel = np.atleast_2d(np.asarray(relations, dtype=np.int64)) if np.asarray(relations).size \
        else np.zeros((0, base.dim), dtype=np.int64)
    if rel.shape[0] and rel.shape[1] != base.dim:
        raise ValueError("relation rows have the wrong width")
    if rel.shape[0] and tag == "R":
        rel = base.gamma_orbit(rel)
    return FpModule(ring, tag, base.dim, g, base.num, la.Span(rel, ring.p, ring.n))


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


def scalar_row_to_r(ring: RingCtx, row: np.ndarray, g: int) -> list[GroupRingElt]:
    m = ring.m
    return [ring.elt(row[j * m:(j + 1) * m]) for j in range(g)]


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


# -- duality --------------------------------------------------------------------


def dual(mod: FpModule) -> FpModule:
    """Scalar dual subquotient representing Hom(M, R) resp. Hom(M, R0).

    Functionals are ambient vectors phi with phi(v) = sum_i v_i phi_i;
    gamma acts by precomposition, i.e. by the transposed gamma matrix.
    For tag R the R-valued functional is recovered by ``eval_r``.
    """
    num = la.kernel(mod.den.h.T, mod.p, mod.n)
    den = la.kernel(mod.num.h.T, mod.p, mod.n)
    return FpModule(mod.ring, mod.tag, mod.dim, mod.gamma.T % mod.m, num, den,
                    check=False)


def eval_r(mod: FpModule, phi: np.ndarray, v: np.ndarray) -> GroupRingElt:
    """R-valued evaluation of a dual element phi at v (tag R modules).

    Coefficient of gamma^j is phi(gamma^(m-j) v), unwinding the standard
    identification of Hom_{R0}(M, R0) with Hom_R(M, R).
    """
    m = mod.m
    values = la.mul_mod(mod.gamma_orbit(v), phi, m)
    return mod.ring.elt(values[-np.arange(m) % m])


def functional_from_rcoords(ring: RingCtx, coords: list[GroupRingElt]) -> np.ndarray:
    """Scalar functional on R^g for sum_j c_j phi_j in the dual basis."""
    m = ring.m
    out = np.zeros(len(coords) * m, dtype=np.int64)
    for j, c in enumerate(coords):
        for i in range(m):
            out[j * m + i] = c.coeffs[(m - i) % m]
    return out


def rcoords_from_functional(ring: RingCtx, phi: np.ndarray, g: int) -> list[GroupRingElt]:
    m = ring.m
    out = []
    for j in range(g):
        block = phi[j * m:(j + 1) * m]
        out.append(ring.elt(np.array([block[(m - t) % m] for t in range(m)])))
    return out


# -- presentations and Fitting ideals -------------------------------------------


def r_generators(mod: FpModule) -> list[np.ndarray]:
    """Greedy R-generating set for the subquotient (not minimal)."""
    span = mod.den
    gens: list[np.ndarray] = []
    for row in mod.generators():
        if span.contains(row):
            continue
        gens.append(row)
        if mod.tag == "R":
            orbit = mod.gamma_orbit(row)
        else:
            orbit = row.reshape(1, -1)
        span = la.Span(np.vstack([span.h, orbit]), mod.p, mod.n)
    return gens


class Presentation:
    """R-presentation of a subquotient: free module onto M with syzygies."""

    __slots__ = ("ring", "tag", "gens", "relations")

    def __init__(self, ring: RingCtx, tag: str, gens: list[np.ndarray],
                 relations: la.Span):
        self.ring = ring
        self.tag = tag
        self.gens = gens          # images in the ambient of M
        self.relations = relations  # span of syzygies in free coords

    @property
    def g(self) -> int:
        return len(self.gens)

    def relation_rows_r(self) -> list[list[GroupRingElt]]:
        """Relation matrix as rows of R-elements (R-generators of syzygies)."""
        if self.tag == "R0":
            return [[self.ring.scalar(int(x)) for x in row] for row in self.relations.h]
        free = free_module(self.ring, self.g)
        sub = FpModule(self.ring, "R", free.dim, free.gamma, self.relations, free.den,
                       check=False)
        return [scalar_row_to_r(self.ring, row, self.g) for row in r_generators(sub)]


def presentation(mod: FpModule) -> Presentation:
    gens = r_generators(mod)
    if not gens:
        return Presentation(mod.ring, mod.tag, [], la.Span.zero(0, mod.p, mod.n))
    gmat = np.array(gens, dtype=np.int64)
    if mod.tag == "R":
        gmat = mod.gamma_orbit(gmat)
    return Presentation(mod.ring, mod.tag, gens, la.preimage(gmat, mod.den))


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


@dataclass(frozen=True)
class Ideal:
    """Ideal of R (or R0) as the span of its coefficient vectors."""

    ring: RingCtx
    tag: str
    span: la.Span

    @classmethod
    def from_elements(cls, ring: RingCtx, tag: str,
                      elems: Iterable[GroupRingElt]) -> "Ideal":
        # row i of regular_rep(e) is gamma^i * e
        rows = [regular_rep(e) if tag == "R" else np.array([[e.augmentation()]], dtype=np.int64)
                for e in elems]
        if not rows:
            return cls.zero(ring, tag)
        return cls(ring, tag, la.Span(np.vstack(rows), ring.p, ring.n))

    @classmethod
    def zero(cls, ring: RingCtx, tag: str) -> "Ideal":
        return cls(ring, tag, la.Span.zero(ring.m if tag == "R" else 1, ring.p, ring.n))

    @classmethod
    def unit(cls, ring: RingCtx, tag: str) -> "Ideal":
        return cls.from_elements(ring, tag, [ring.one()])

    def contains(self, other: "Ideal") -> bool:
        return self.span.contains(other.span)

    def is_zero(self) -> bool:
        return self.span.h.shape[0] == 0

    def is_whole_ring(self) -> bool:
        width = self.ring.m if self.tag == "R" else 1
        return self.span.size() == self.ring.m ** width

    def plus(self, other: "Ideal") -> "Ideal":
        return Ideal(self.ring, self.tag, self.span + other.span)

    def annihilates(self, mod: FpModule) -> bool:
        for row in self.span.h:
            x = (self.ring.elt(row) if self.tag == "R"
                 else self.ring.scalar(int(row[0])))
            if not mod.den.contains(la.mul_mod(mod.num.h, mod.scale_matrix(x), mod.m)):
                return False
        return True

    def __repr__(self):
        if self.is_zero():
            return "Ideal(0)"
        if self.is_whole_ring():
            return "Ideal(1)"
        gens = [repr(self.ring.elt(r)) if self.tag == "R" else str(int(r[0]))
                for r in self.span.h]
        return "Ideal(" + ", ".join(gens) + ")"


def fitting_ideal(mod: FpModule, i: int) -> Ideal:
    """i-th Fitting ideal: (g - i) x (g - i) minors of a presentation."""
    if i < 0:
        raise ValueError("Fitting index must be nonnegative")
    pres = presentation(mod)
    return fitting_from_matrix(mod.ring, mod.tag, pres.g, pres.relation_rows_r(), i)


def fitting_from_matrix(ring: RingCtx, tag: str, g: int,
                        rel_rows: list[list[GroupRingElt]], i: int) -> Ideal:
    size = g - i
    if size <= 0:
        return Ideal.unit(ring, tag)
    if size > len(rel_rows):
        return Ideal.zero(ring, tag)
    minors = []
    for rsel in combinations(range(len(rel_rows)), size):
        for csel in combinations(range(g), size):
            sub = [[rel_rows[r][c] for c in csel] for r in rsel]
            minors.append(det_r(ring, sub))
    return Ideal.from_elements(ring, tag, minors)


# -- exterior powers and biduals -------------------------------------------------


def _subset_sign(l: int, subset: tuple[int, ...]) -> int:
    """Sign of moving e_l past e_subset (subset sorted, l not in it)."""
    return -1 if sum(1 for s in subset if s < l) % 2 else 1


class ExteriorAlgebra:
    """Wedge powers of a presented R-module (generators + R-relations).

    Degree r lives on the free module with basis e_T, T an r-subset of
    the generators, modulo relations (relation row) wedge (r-1 basis).
    """

    def __init__(self, ring: RingCtx, g: int, rel_rows: list[list[GroupRingElt]]):
        self.ring = ring
        self.g = g
        self.rel_rows = rel_rows
        self._modules: dict[int, FpModule] = {}

    def subsets(self, r: int) -> list[tuple[int, ...]]:
        return list(combinations(range(self.g), r))

    def module(self, r: int) -> FpModule:
        if r in self._modules:
            return self._modules[r]
        ring = self.ring
        subs = self.subsets(r)
        base = free_module(ring, len(subs))  # the zero module when r > g
        index = {s: i for i, s in enumerate(subs)}
        m = ring.m
        rel_scalar = []
        if r >= 1:
            for row in self.rel_rows:
                for j_sub in self.subsets(r - 1):
                    vec = np.zeros(base.dim, dtype=np.int64)
                    for l in range(self.g):
                        if l in j_sub or row[l].is_zero():
                            continue
                        tgt = index[tuple(sorted(j_sub + (l,)))]
                        sgn = _subset_sign(l, j_sub)
                        vec[tgt * m:(tgt + 1) * m] = (
                            vec[tgt * m:(tgt + 1) * m] + sgn * row[l].coeffs
                        ) % m
                    if vec.any():
                        rel_scalar.append(vec)
        den = (la.Span(base.gamma_orbit(np.array(rel_scalar)), ring.p, ring.n) if rel_scalar
               else base.den)
        out = FpModule(ring, "R", base.dim, base.gamma, base.num, den, check=False)
        self._modules[r] = out
        return out

    def basis_vector(self, r: int, subset: tuple[int, ...]) -> np.ndarray:
        subs = self.subsets(r)
        mod = self.module(r)
        vec = np.zeros(mod.dim, dtype=np.int64)
        vec[subs.index(tuple(subset)) * self.ring.m] = 1
        return vec

    def wedge_matrix(self, r: int, f_coords: list[GroupRingElt]) -> np.ndarray:
        """Matrix of (f wedge .): degree r ambient -> degree r+1 ambient."""
        ring = self.ring
        m = ring.m
        src, tgt = self.subsets(r), self.subsets(r + 1)
        t_index = {s: i for i, s in enumerate(tgt)}
        out = np.zeros((len(src) * m, len(tgt) * m), dtype=np.int64)
        for si, s_sub in enumerate(src):
            for l in range(self.g):
                if l in s_sub or f_coords[l].is_zero():
                    continue
                ti = t_index[tuple(sorted(s_sub + (l,)))]
                sgn = _subset_sign(l, s_sub)
                out[si * m:(si + 1) * m, ti * m:(ti + 1) * m] = (
                    sgn * regular_rep(f_coords[l])
                ) % m
        return out

    def contract(self, r_plus_1: int, eps: np.ndarray,
                 f_coords: list[GroupRingElt]) -> np.ndarray:
        """Functional on degree r+1 contracted by f: (eps . f)(w) = eps(f ^ w)."""
        wm = self.wedge_matrix(r_plus_1 - 1, f_coords)
        return la.mul_mod(wm, eps, self.ring.m)


def exterior_bidual(mod: FpModule, r: int) -> tuple[FpModule, ExteriorAlgebra]:
    """The r-th exterior bidual: dual of the r-th wedge of the dual.

    Returns the bidual as a subquotient of functionals on the wedge
    ambient, together with the ExteriorAlgebra of the dual presentation
    (needed to evaluate and contract elements).
    """
    if r < 0:
        raise ValueError("exterior power degree must be nonnegative")
    mstar = dual(mod)
    pres = presentation(mstar)
    alg = ExteriorAlgebra(mod.ring, pres.g, pres.relation_rows_r())
    wedge = alg.module(r)
    return dual(wedge), alg
