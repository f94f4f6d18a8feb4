"""Two-term complexes with the augmentation-ideal filtration.

A complex is a single R-linear map d : C^1 -> C^2 (degrees one and two;
everything else is zero).  The decreasing filtration I^i C induces a
spectral sequence whose entries are presented here as explicit
subquotients with canonical representatives:

    Z_k^{i,j} = ker(I^i C^{i+j} -> C^{i+j+1} / I^{i+k} C^{i+j+1})
    B_k^{i,j} = I^i C^{i+j}  intersect  d(I^{i-k} C^{i+j-1})
    E_k^{i,j} = Z_k^{i,j} / (Z_{k-1}^{i+1,j-1} + B_{k-1}^{i,j})

Only the window a two-term complex populates (i+j in {1, 2}) exists.
The derived Bockstein is the page differential d_k^{0,1}; the
generalized Bockstein is the snake map of the k-th filtration step; both
act on representatives by d itself, landing in different subquotients.

Every span here (filtration pieces I^i C, cycles Z, boundaries B, and
the numerators and denominators of every subquotient) is a
``linalg.Span``: it carries its ring and its coset reducer, so the
checks combine spans with ``+``, ``contains``, ``==`` and ``size``
without threading (p, n).  Every derived object (the filtration spans,
the cohomology and page subquotients, the four maps of the Bockstein
square) is built once per complex and kept in one memo, keyed by method
and arguments, so the checks for successive k share them; each
``ModuleHom`` is validated once, when it is built.  ``d`` is read-only,
so the memo cannot go stale.
"""

from __future__ import annotations

from functools import wraps

import numpy as np

from . import linalg as la
from .groupring import RingCtx
from .modules import FpModule, ModuleHom, free_module


def _derived(method):
    """Build the method's result once per complex, keyed by its arguments."""
    name = method.__name__

    @wraps(method)
    def cached(self, *args):
        key = (name, *args)
        if key not in self._memo:
            self._memo[key] = method(self, *args)
        return self._memo[key]

    return cached


class TwoTermComplex:
    """d : C1 -> C2 between subquotient modules over the same ring."""

    def __init__(self, c1: FpModule, c2: FpModule, d: np.ndarray):
        if c1.ring != c2.ring or c1.tag != c2.tag:
            raise ValueError("both terms must live over the same ring")
        self.ring: RingCtx = c1.ring
        self.c1 = c1
        self.c2 = c2
        self._d = np.asarray(d, dtype=np.int64) % c1.m
        self._d.setflags(write=False)
        # validates numerators, denominators and gamma-equivariance
        self.hom = ModuleHom(c1, c2, self._d)
        self._memo: dict[tuple, object] = {}

    @property
    def d(self) -> np.ndarray:
        """The differential (read-only)."""
        return self._d

    @classmethod
    def free(cls, ring: RingCtx, rank1: int, rank2: int, d: np.ndarray) -> "TwoTermComplex":
        return cls(free_module(ring, rank1), free_module(ring, rank2), d)

    # -- filtration spans ------------------------------------------------------

    @_derived
    def ideal_span1(self, i: int) -> la.Span:
        return self.c1.ideal_multiple_span(max(i, 0))

    @_derived
    def ideal_span2(self, i: int) -> la.Span:
        return self.c2.ideal_multiple_span(max(i, 0))

    @_derived
    def d_preimage(self, j: int) -> la.Span:
        """{a : da in I^j C2}, shared by ``h1_mod_ik`` and ``z_span`` (j = i + k)."""
        return la.preimage(self.d, self.ideal_span2(j))

    # -- cohomology ------------------------------------------------------------

    def h1(self) -> FpModule:
        return self.hom.kernel()

    @_derived
    def h2(self) -> FpModule:
        return self.c2.quotient(la.image_span(self.c1.num, self.d))

    @_derived
    def h1_mod_ik(self, k: int) -> FpModule:
        """H^1(C / I^k C) as the subquotient {a : da in I^k C2} / I^k C1."""
        num = la.span_intersect(self.c1.num, self.d_preimage(k)) + self.c1.den
        return FpModule(self.ring, self.c1.tag, self.c1.dim, self.c1.gamma,
                        num, self.ideal_span1(k), check=False)

    @_derived
    def h2_of_quotient(self, k: int) -> FpModule:
        """H^2(C / I^k C) = C^2 / (I^k C^2 + im d)."""
        return self.h2().quotient(self.ideal_span2(k))

    @_derived
    def h2_ik_step(self, k: int) -> FpModule:
        """H^2(I^k C / I^{k+1} C) = I^k C^2 / (I^{k+1} C^2 + d(I^k C^1))."""
        den = la.image_span(self.ideal_span1(k), self.d, self.ideal_span2(k + 1))
        return FpModule(self.ring, self.c2.tag, self.c2.dim, self.c2.gamma,
                        self.ideal_span2(k), den, check=False)

    @_derived
    def h2_filtration_quotient(self, k: int) -> FpModule:
        """I^k H^2(C) / I^{k+1} H^2(C) as a subquotient of C^2."""
        imd = self.h2().den  # d(C^1) + den C^2; den C^2 lies in every I^k C^2
        num = self.ideal_span2(k) + imd
        den = self.ideal_span2(k + 1) + imd
        return FpModule(self.ring, self.c2.tag, self.c2.dim, self.c2.gamma,
                        num, den, check=False)

    # -- spectral sequence -----------------------------------------------------

    @_derived
    def z_span(self, k: int, i: int, degree: int) -> la.Span:
        """Z_k^{i, degree-i}: cycles of the filtered complex."""
        if degree == 2:
            return self.ideal_span2(i)
        if degree == 1:
            return la.span_intersect(self.ideal_span1(i), self.d_preimage(i + k)) + self.c1.den
        raise ValueError("two-term complexes live in degrees 1 and 2")

    @_derived
    def b_span(self, k: int, i: int, degree: int) -> la.Span:
        """B_k^{i, degree-i}: boundaries of the filtered complex."""
        if degree == 1:
            return self.c1.den  # C^0 = 0
        if degree == 2:
            src = self.ideal_span1(i - k) if i - k > 0 else self.c1.num
            inter = la.span_intersect(self.ideal_span2(i), la.image_span(src, self.d))
            return inter + self.c2.den
        raise ValueError("two-term complexes live in degrees 1 and 2")

    @_derived
    def page_entry(self, k: int, i: int, j: int) -> FpModule:
        """E_k^{i,j} as a subquotient with canonical representatives."""
        if k < 1:
            raise ValueError("pages start at k = 1")
        degree = i + j
        if degree not in (1, 2) or i < 0:
            raise ValueError("entry outside the populated window")
        num = self.z_span(k, i, degree)
        den = self.z_span(k - 1, i + 1, degree) + self.b_span(k - 1, i, degree)
        if not num.contains(den):
            raise AssertionError("page denominator escaped the cycle span")
        carrier = self.c1 if degree == 1 else self.c2
        return FpModule(self.ring, carrier.tag, carrier.dim, carrier.gamma,
                        num, den, check=False)

    # -- Bockstein maps ----------------------------------------------------------

    @_derived
    def derived_bockstein(self, k: int) -> ModuleHom:
        """beta^(k) = d_k^{0,1} : E_k^{0,1} -> E_k^{k,2-k}, induced by d."""
        if k < 1:
            raise ValueError("k must be at least 1")
        return ModuleHom(self.page_entry(k, 0, 1), self.page_entry(k, k, 2 - k), self.d)

    @_derived
    def generalized_bockstein(self, k: int) -> ModuleHom:
        """psi^(k): snake map H^1(C/I^k C) -> H^2(I^k C / I^{k+1} C).

        On a representative a the connecting map lifts a through
        C/I^{k+1}C and applies d; with honest ambient representatives the
        lift is a itself, so the matrix is again d.
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        return ModuleHom(self.h1_mod_ik(k), self.h2_ik_step(k), self.d)

    @_derived
    def pi_projection(self, k: int) -> ModuleHom:
        """Natural surjection H^1(C/I^k C) ->> E_k^{0,1} (identity on reps)."""
        eye = np.eye(self.c1.dim, dtype=np.int64)
        return ModuleHom(self.h1_mod_ik(k), self.page_entry(k, 0, 1), eye)

    @_derived
    def rho_projection(self, k: int) -> ModuleHom:
        """Natural surjection H^2(I^k C/I^{k+1} C) ->> E_k^{k,2-k}."""
        eye = np.eye(self.c2.dim, dtype=np.int64)
        return ModuleHom(self.h2_ik_step(k), self.page_entry(k, k, 2 - k), eye)

    # -- statements as executable checks ----------------------------------------

    def verify_relate(self, k: int) -> bool:
        """rho o psi^(k) == beta^(k) o pi on every generator of H^1(C/I^k C).

        Both composites act on all the generators (rows of psi.src.num) at once.
        """
        psi = self.generalized_bockstein(k)
        beta = self.derived_bockstein(k)
        pi = self.pi_projection(k)
        rho = self.rho_projection(k)
        if not pi.is_surjective() or not rho.is_surjective():
            return False
        gens = psi.src.num.h
        diff = rho.apply(psi.apply(gens)) - beta.apply(pi.apply(gens))
        return not beta.tgt.reduce(diff).any()

    def coker_iso_reports(self, k: int) -> dict[str, bool]:
        """Certify coker psi^(k) and coker beta^(k) against I^k H^2/I^{k+1} H^2.

        Both isomorphisms are realized by the identity on representatives;
        bijectivity is certified by exact span comparisons: the map's
        kernel span must match the image span of the Bockstein, and the
        numerators must agree modulo denominators.
        """
        target = self.h2_filtration_quotient(k)
        out = {}

        psi = self.generalized_bockstein(k)
        beta = self.derived_bockstein(k)
        for name, bock in (("psi", psi), ("beta", beta)):
            src = bock.tgt  # coker of bock lives in its target
            coker_den = bock.image().num  # image of the Bockstein plus src.den
            # identity on representatives into the filtration quotient
            surj = src.num + target.den == target.num
            # kernel of the induced map equals the image of the Bockstein
            inj = la.span_intersect(src.num, target.den) + src.den == coker_den
            orders = src.num.size() // coker_den.size() == target.order()
            out[name] = bool(surj and inj and orders)
        # right-exactness step used in the cokernel proof
        out["h2_right_exact"] = all(
            self.h2_of_quotient(i).order() == self._h2_mod_ideal_order(i)
            for i in range(1, k + 2)
        )
        return out

    @_derived
    def _h2_mod_ideal_order(self, i: int) -> int:
        h2 = self.h2()
        return h2.num.size() // h2.ideal_multiple_span(i).size()  # I^i H^2 + den

    def e1_entry_order_matches_h(self, i: int, j: int) -> bool:
        """E_1^{i,j} has the order of H^{i+j}(I^i C / I^{i+1} C)."""
        if i + j == 2:
            order = self.h2_ik_step(i).order()
        else:  # {a in I^i C^1 : da in I^(i+1) C^2} / I^(i+1) C^1
            order = self.z_span(1, i, 1).size() // self.ideal_span1(i + 1).size()
        return self.page_entry(1, i, j).order() == order
