"""Finitely presented modules over R = Z/p^n[G] and R0 = Z/p^n.

Every module is stored as a subquotient num/den of a free scalar ambient
(Z/p^n)^dim carrying an explicit gamma matrix: num and den are Howell
spans with den inside num, both gamma-stable.  Free modules, submodules,
quotients, duals, fixed points, filtration pieces, Fitting ideals and
exterior biduals all stay inside this one representation, so everything
reduces to the Howell primitives.

R-modules expand R-coordinates to scalars: a free R-module of rank g has
ambient dimension g * p^n, scalar slot g*m + i holding the coefficient
of gamma^i, and gamma acts blockwise by the regular representation.

Duality: Hom_R(M, R) is computed through its identification with
Hom_{R0}(M, R0) (f maps to sum_sigma f(sigma .) sigma^{-1}); a scalar
functional phi on the ambient therefore represents an R-valued one, and
``eval_r`` recovers the R-value.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Optional

import numpy as np

from . import linalg as la
from .groupring import GroupRingElt, RingCtx, regular_rep


class FpModule:
    """Subquotient num/den of (Z/p^n)^dim with gamma-action."""

    __slots__ = ("ring", "tag", "dim", "gamma", "num", "den", "_gamma_pows",
                 "_den_reducer")

    def __init__(self, ring: RingCtx, tag: str, dim: int, gamma: np.ndarray,
                 num: np.ndarray, den: np.ndarray, check: bool = True):
        if tag not in ("R", "R0"):
            raise ValueError("tag must be 'R' or 'R0'")
        self.ring = ring
        self.tag = tag
        self.dim = dim
        self.gamma = np.asarray(gamma, dtype=np.int64) % ring.m
        self.num = la.howell_form(num, ring.p, ring.n) if num.shape[0] else num
        self.den = la.howell_form(den, ring.p, ring.n) if den.shape[0] else den
        self._gamma_pows = None
        self._den_reducer = None
        if check:
            p, n = ring.p, ring.n
            if not la.span_contains(self.num, self.den, p, n):
                raise ValueError("denominator is not contained in numerator")
            for span in (self.num, self.den):
                if span.shape[0] and not la.span_contains(
                    span, la.image_span(span, self.gamma, p, n), p, n
                ):
                    raise ValueError("span is not gamma-stable")
            # gamma^(p^n) must be the identity on the module
            if dim and self.num.shape[0]:
                pw = la.mat_pow_mod(self.gamma, ring.m, ring.m)
                diff = la.image_span(
                    self.num, (pw - np.eye(dim, dtype=np.int64)) % ring.m, p, n
                )
                if diff.shape[0] and not la.span_contains(self.den, diff, p, n):
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
                pows.append((pows[-1] @ self.gamma) % self.m)
            self._gamma_pows = pows
        return self._gamma_pows[i % self.m]

    def order(self) -> int:
        return la.span_size(self.num, self.p, self.n) // la.span_size(
            self.den, self.p, self.n
        )

    def reduce(self, v: np.ndarray) -> np.ndarray:
        """Canonical coset representative modulo den."""
        if self._den_reducer is None:
            self._den_reducer = la.CosetReducer(self.den, self.p, self.n)
        return self._den_reducer.reduce(v)

    def is_zero_elt(self, v: np.ndarray) -> bool:
        return not self.reduce(v).any()

    def eq_elts(self, v: np.ndarray, w: np.ndarray) -> bool:
        return not self.reduce((v - w) % self.m).any()

    def contains_elt(self, v: np.ndarray) -> bool:
        return la.in_span(v, self.num, self.p, self.n)

    def generators(self) -> list[np.ndarray]:
        """Scalar generators of num (coset images generate the module)."""
        return [self.num[i] for i in range(self.num.shape[0])]

    def elements(self) -> list[np.ndarray]:
        """All elements as canonical representatives (small modules only)."""
        seen = {}
        for v in la.span_elements(self.num, self.p, self.n):
            r = self.reduce(v)
            seen.setdefault(tuple(int(x) for x in r), r)
        return list(seen.values())

    # -- derived modules -------------------------------------------------------

    def submodule(self, span: np.ndarray) -> "FpModule":
        num = la.span_sum(span, self.den, self.p, self.n)
        if not la.span_contains(self.num, num, self.p, self.n):
            raise ValueError("span does not lie in the module")
        return FpModule(self.ring, self.tag, self.dim, self.gamma, num, self.den,
                        check=False)

    def quotient(self, span: np.ndarray) -> "FpModule":
        den = la.span_sum(span, self.den, self.p, self.n)
        return FpModule(self.ring, self.tag, self.dim, self.gamma, self.num, den,
                        check=False)

    def scale_matrix(self, x: GroupRingElt) -> np.ndarray:
        """Matrix of multiplication by the ring element x on the ambient."""
        m = self.m
        out = np.zeros((self.dim, self.dim), dtype=np.int64)
        for i, c in enumerate(x.coeffs):
            if c:
                out = (out + c * self.gamma_power(i)) % m
        return out

    def fixed_point_span(self) -> np.ndarray:
        """Numerator span of M^G = ker(gamma - 1) on the subquotient."""
        gm1 = (self.gamma - np.eye(self.dim, dtype=np.int64)) % self.m
        pre = la.preimage(gm1, self.den, self.p, self.n)
        return la.span_intersect(pre, self.num, self.p, self.n)

    def fixed_points(self) -> "FpModule":
        return FpModule(self.ring, self.tag, self.dim, self.gamma,
                        la.span_sum(self.fixed_point_span(), self.den, self.p, self.n),
                        self.den, check=False)

    def ideal_multiple_span(self, k: int) -> np.ndarray:
        """Span of I^k M (plus den) inside the ambient."""
        if k <= 0:
            return self.num
        gm1 = (self.gamma - np.eye(self.dim, dtype=np.int64)) % self.m
        mat = la.mat_pow_mod(gm1, k, self.m)
        return la.span_sum(la.image_span(self.num, mat, self.p, self.n),
                           self.den, self.p, self.n)

    def filtration_piece(self, k: int) -> "FpModule":
        """M_0^(k) = M^G intersected with I^(k-1) M, for 1 <= k <= p-1."""
        if not 1 <= k <= self.p - 1:
            raise ValueError("filtration piece defined for 1 <= k <= p-1")
        fixed = self.fixed_point_span()
        ik = self.ideal_multiple_span(k - 1)
        num = la.span_sum(la.span_intersect(fixed, ik, self.p, self.n),
                          self.den, self.p, self.n)
        return FpModule(self.ring, self.tag, self.dim, self.gamma, num, self.den,
                        check=False)


class ModuleHom:
    """Map between subquotients given by an ambient matrix."""

    __slots__ = ("src", "tgt", "mat")

    def __init__(self, src: FpModule, tgt: FpModule, mat: np.ndarray,
                 check: bool = True):
        self.src = src
        self.tgt = tgt
        self.mat = np.asarray(mat, dtype=np.int64) % src.m
        if check:
            self.check_well_defined()

    def check_well_defined(self) -> None:
        p, n = self.src.p, self.src.n
        img_num = la.image_span(self.src.num, self.mat, p, n)
        if not la.span_contains(self.tgt.num, img_num, p, n):
            raise ValueError("map does not send numerator into numerator")
        img_den = la.image_span(self.src.den, self.mat, p, n)
        if img_den.shape[0] and not la.span_contains(self.tgt.den, img_den, p, n):
            raise ValueError("map does not send denominator into denominator")
        # R-linearity on representatives: commutes with gamma modulo den
        comm = (self.src.gamma @ self.mat - self.mat @ self.tgt.gamma) % self.src.m
        img = la.image_span(self.src.num, comm, p, n)
        if img.shape[0] and not la.span_contains(self.tgt.den, img, p, n):
            raise ValueError("map does not commute with the gamma action")

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.tgt.reduce((np.asarray(v, dtype=np.int64) @ self.mat) % self.src.m)

    def kernel(self) -> FpModule:
        pre = la.preimage(self.mat, self.tgt.den, self.src.p, self.src.n)
        span = la.span_intersect(pre, self.src.num, self.src.p, self.src.n)
        return self.src.submodule(span)

    def image(self) -> FpModule:
        img = la.image_span(self.src.num, self.mat, self.src.p, self.src.n)
        return self.tgt.submodule(la.span_sum(img, self.tgt.den, self.src.p, self.src.n))

    def is_surjective(self) -> bool:
        return self.image().order() == self.tgt.order()

    def is_injective(self) -> bool:
        return self.kernel().order() == 1


# -- constructors --------------------------------------------------------------


def free_module(ring: RingCtx, rank: int) -> FpModule:
    """Free R-module R^rank in the regular-representation expansion."""
    m = ring.m
    dim = rank * m
    gamma = np.kron(np.eye(rank, dtype=np.int64), regular_rep(ring.gamma()))
    return FpModule(ring, "R", dim, gamma, la.identity_span(dim),
                    la.empty_span(dim), check=False)


def free_r0_module(ring: RingCtx, rank: int) -> FpModule:
    """Free Z/p^n-module with trivial gamma action."""
    return FpModule(ring, "R0", rank, np.eye(rank, dtype=np.int64),
                    la.identity_span(rank), la.empty_span(rank), check=False)


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
        else la.empty_span(base.dim)
    if rel.shape[0] and rel.shape[1] != base.dim:
        raise ValueError("relation rows have the wrong width")
    if rel.shape[0] and tag == "R":
        rel = np.vstack([(rel @ base.gamma_power(i)) % ring.m for i in range(ring.m)])
    return FpModule(ring, tag, base.dim, g, base.num,
                    la.howell_form(rel, ring.p, ring.n) if rel.shape[0] else rel)


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


def r_rows_to_scalar(ring: RingCtx, rows: list[list[GroupRingElt]]) -> np.ndarray:
    """Each R-row vector becomes one scalar row of length g * m."""
    m = ring.m
    out = np.zeros((len(rows), len(rows[0]) * m), dtype=np.int64)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            out[i, j * m:(j + 1) * m] = x.coeffs
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
    if (r_matrix_expand(ring, rows) != mat).any():
        lhs = r_matrix_expand(ring, rows)
        bad = np.argwhere(lhs != mat)[0]
        raise ValueError(
            f"matrix is not R-linear at scalar entry ({int(bad[0])}, {int(bad[1])})"
        )
    return rows


# -- duality --------------------------------------------------------------------


def dual(mod: FpModule) -> FpModule:
    """Scalar dual subquotient representing Hom(M, R) resp. Hom(M, R0).

    Functionals are ambient vectors phi with phi(v) = sum_i v_i phi_i;
    gamma acts by precomposition, i.e. by the transposed gamma matrix.
    For tag R the R-valued functional is recovered by ``eval_r``.
    """
    p, n = mod.p, mod.n
    num = la.kernel(mod.den.T, p, n) if mod.den.shape[0] else la.identity_span(mod.dim)
    den = la.kernel(mod.num.T, p, n) if mod.num.shape[0] else la.identity_span(mod.dim)
    return FpModule(mod.ring, mod.tag, mod.dim, mod.gamma.T % mod.m, num, den,
                    check=False)


def eval_scalar(phi: np.ndarray, v: np.ndarray, m: int) -> int:
    return int((np.asarray(phi, dtype=np.int64) * np.asarray(v, dtype=np.int64)).sum() % m)


def eval_r(mod: FpModule, phi: np.ndarray, v: np.ndarray) -> GroupRingElt:
    """R-valued evaluation of a dual element phi at v (tag R modules).

    Coefficient of gamma^j is phi(gamma^(m-j) v), unwinding the standard
    identification of Hom_{R0}(M, R0) with Hom_R(M, R).
    """
    m = mod.m
    coeffs = np.zeros(m, dtype=np.int64)
    for j in range(m):
        w = (v @ mod.gamma_power((m - j) % m)) % m
        coeffs[j] = eval_scalar(phi, w, m)
    return mod.ring.elt(coeffs)


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
    p, n = mod.p, mod.n
    span = mod.den
    gens: list[np.ndarray] = []
    for row in mod.generators():
        if la.in_span(row, span, p, n):
            continue
        gens.append(row)
        if mod.tag == "R":
            orbit = np.array([(row @ mod.gamma_power(i)) % mod.m for i in range(mod.m)])
        else:
            orbit = row.reshape(1, -1)
        span = la.span_sum(span, orbit, p, n)
    return gens


class Presentation:
    """R-presentation of a subquotient: free module onto M with syzygies."""

    __slots__ = ("ring", "tag", "gens", "gmat", "relations")

    def __init__(self, ring: RingCtx, tag: str, gens: list[np.ndarray],
                 gmat: np.ndarray, relations: np.ndarray):
        self.ring = ring
        self.tag = tag
        self.gens = gens          # images in the ambient of M
        self.gmat = gmat          # (g*m) x dim map from free coords to ambient
        self.relations = relations  # Howell span of syzygies in free coords

    @property
    def g(self) -> int:
        return len(self.gens)

    def relation_rows_r(self) -> list[list[GroupRingElt]]:
        """Relation matrix as rows of R-elements (R-generators of syzygies)."""
        if self.tag == "R0":
            return [[self.ring.scalar(int(x)) for x in row] for row in self.relations]
        free = free_module(self.ring, self.g)
        sub = FpModule(self.ring, "R", free.dim, free.gamma,
                       la.span_sum(self.relations, la.empty_span(free.dim),
                                   self.ring.p, self.ring.n),
                       la.empty_span(free.dim), check=False)
        return [scalar_row_to_r(self.ring, row, self.g) for row in r_generators(sub)]


def presentation(mod: FpModule) -> Presentation:
    gens = r_generators(mod)
    m = mod.m if mod.tag == "R" else 1
    if not gens:
        return Presentation(mod.ring, mod.tag, [], la.empty_span(mod.dim),
                            la.empty_span(0))
    rows = []
    for gvec in gens:
        if mod.tag == "R":
            for i in range(mod.m):
                rows.append((gvec @ mod.gamma_power(i)) % mod.m)
        else:
            rows.append(gvec)
    gmat = np.array(rows, dtype=np.int64)
    rel = la.preimage(gmat, mod.den, mod.p, mod.n)
    return Presentation(mod.ring, mod.tag, gens, gmat, rel)


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


class Ideal:
    """Ideal of R (or R0) as the Howell span of its coefficient vectors."""

    __slots__ = ("ring", "tag", "span")

    def __init__(self, ring: RingCtx, tag: str, span: np.ndarray):
        self.ring = ring
        self.tag = tag
        self.span = la.howell_form(span, ring.p, ring.n) if span.shape[0] else span

    @classmethod
    def from_elements(cls, ring: RingCtx, tag: str,
                      elems: Iterable[GroupRingElt]) -> "Ideal":
        rows = []
        for e in elems:
            if tag == "R":
                for i in range(ring.m):
                    rows.append((ring.gamma(i) * e).coeffs)
            else:
                rows.append(np.array([e.augmentation()], dtype=np.int64))
        width = ring.m if tag == "R" else 1
        if not rows:
            return cls(ring, tag, la.empty_span(width))
        return cls(ring, tag, np.array(rows, dtype=np.int64))

    @classmethod
    def zero(cls, ring: RingCtx, tag: str) -> "Ideal":
        return cls(ring, tag, la.empty_span(ring.m if tag == "R" else 1))

    @classmethod
    def unit(cls, ring: RingCtx, tag: str) -> "Ideal":
        return cls.from_elements(ring, tag, [ring.one()])

    def __eq__(self, other):
        return (
            isinstance(other, Ideal)
            and self.tag == other.tag
            and self.span.shape == other.span.shape
            and bool((self.span == other.span).all())
        )

    def __hash__(self):
        return hash((self.tag, self.span.tobytes()))

    def contains(self, other: "Ideal") -> bool:
        return la.span_contains(self.span, other.span, self.ring.p, self.ring.n)

    def is_zero(self) -> bool:
        return self.span.shape[0] == 0

    def is_whole_ring(self) -> bool:
        width = self.ring.m if self.tag == "R" else 1
        return la.span_size(self.span, self.ring.p, self.ring.n) == self.ring.m ** width

    def plus(self, other: "Ideal") -> "Ideal":
        return Ideal(self.ring, self.tag,
                     la.span_sum(self.span, other.span, self.ring.p, self.ring.n))

    def annihilates(self, mod: FpModule) -> bool:
        for row in self.span:
            x = (self.ring.elt(row) if self.tag == "R"
                 else self.ring.scalar(int(row[0])))
            mat = mod.scale_matrix(x)
            img = la.image_span(mod.num, mat, mod.p, mod.n)
            if img.shape[0] and not la.span_contains(mod.den, img, mod.p, mod.n):
                return False
        return True

    def __repr__(self):
        if self.is_zero():
            return "Ideal(0)"
        if self.is_whole_ring():
            return "Ideal(1)"
        gens = [repr(self.ring.elt(r)) if self.tag == "R" else str(int(r[0]))
                for r in self.span]
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
        base = free_module(ring, max(len(subs), 0)) if subs else None
        if not subs:
            out = FpModule(ring, "R", 0, np.zeros((0, 0), dtype=np.int64),
                           la.empty_span(0), la.empty_span(0), check=False)
            self._modules[r] = out
            return out
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
                        for i in range(m):
                            rel_scalar.append((vec @ base.gamma_power(i)) % m)
        den = (np.array(rel_scalar, dtype=np.int64) if rel_scalar
               else la.empty_span(base.dim))
        out = FpModule(ring, "R", base.dim, base.gamma, base.num,
                       la.howell_form(den, ring.p, ring.n) if den.shape[0] else den,
                       check=False)
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
        return (wm @ np.asarray(eps, dtype=np.int64)) % self.ring.m


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


class Transition:
    """Contraction map of an exact sequence 0 -> X -> Y -> Z, Z free.

    Y free of rank y_rank with Z-coordinates given by the columns of an
    R-matrix; X is forced to be the kernel (exactness at X and Y), and a
    supplied X is checked against it.  ``apply`` sends a functional on
    wedge^{r+s}(Y*) to one on wedge^{r}(Y*) that kills the relation span
    of wedge^r(X*), i.e. lands in the r-th exterior bidual of X; the
    det(Z) leg is trivialized by the chosen basis.
    """

    def __init__(self, ring: RingCtx, y_rank: int,
                 zmat: list[list[GroupRingElt]],
                 x_span: Optional[np.ndarray] = None):
        self.ring = ring
        self.y_rank = y_rank
        self.zmat = zmat
        self.s = len(zmat[0]) if zmat and zmat[0] else 0
        scalar = r_matrix_expand(ring, zmat)
        self.x_span = la.kernel(scalar, ring.p, ring.n)
        if x_span is not None and not la.spans_equal(
            x_span, self.x_span, ring.p, ring.n
        ):
            raise ValueError("sequence is not exact: X differs from ker(Y -> Z)")
        self.alg = ExteriorAlgebra(ring, y_rank, [])
        self.fs = [[row[q] for row in zmat] for q in range(self.s)]

    def apply(self, r: int, eps: np.ndarray) -> np.ndarray:
        """Contract by the Z-coordinates in ascending order."""
        out = np.asarray(eps, dtype=np.int64)
        level = r + self.s
        for q in range(self.s):
            out = self.alg.contract(level, out, self.fs[q])
            level -= 1
        return out

    def kernel_wedge_span(self, r: int) -> np.ndarray:
        """Span of ker(Y* -> X*) wedge (r-1 forms) inside wedge^r(Y*).

        The result of ``apply`` must kill this span; that is what makes
        it an element of the exterior bidual of X.
        """
        ring = self.ring
        if r == 0:
            return la.empty_span(self.alg.module(0).dim)
        ann = la.kernel(self.x_span.T, ring.p, ring.n) if self.x_span.shape[0] \
            else la.identity_span(self.y_rank * ring.m)
        rows = []
        wr = self.alg.module(r)
        for phi in ann:
            coords = rcoords_from_functional(ring, phi, self.y_rank)
            wm = self.alg.wedge_matrix(r - 1, coords)
            prev = self.alg.module(r - 1)
            img = la.image_span(prev.num, wm, ring.p, ring.n)
            if img.shape[0]:
                rows.append(img)
        if not rows:
            return la.empty_span(wr.dim)
        return la.howell_form(np.vstack(rows), ring.p, ring.n)
