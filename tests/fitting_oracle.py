"""Reference Fitting ideals for differential tests: a greedy re-presentation.

This is the route the library offered before its Fitting ideals were read
only off a given relation matrix.  It forgets how a module was presented:
it picks R-generators of the subquotient greedily from the numerator's
Howell rows, takes the syzygy module of those generators as a preimage
of the denominator, picks R-generators of that again, and hands the
resulting relation matrix to ``fitting_from_matrix``.  So it shares no
presentation with a Stark instance's ``ell``, and
``StarkInstance.w_star_fitting`` can be checked against it index for
index.  ``annihilates`` decides whether an ideal kills a module, on
generating rows.  ``dual`` is the scalar dual subquotient that the
duality and exterior-bidual checks present.
"""

from __future__ import annotations

import numpy as np

from derived_heights import linalg as la
from derived_heights.groupring import GroupRingElt, RingCtx
from derived_heights.modules import FpModule, fitting_from_matrix, free_module


def r_generators(mod: FpModule) -> list[np.ndarray]:
    """Greedy R-generating set for the subquotient (not minimal)."""
    span = mod.den
    gens: list[np.ndarray] = []
    for row in mod.num.h:
        if span.contains(row):
            continue
        gens.append(row)
        span = la.Span(np.vstack([span.h, mod.gamma_orbit(row)]), mod.p, mod.n)
    return gens


class Presentation:
    """R-presentation of a subquotient: free module onto M with syzygies."""

    __slots__ = ("ring", "gens", "relations")

    def __init__(self, ring: RingCtx, gens: list[np.ndarray], relations: la.Span):
        self.ring = ring
        self.gens = gens          # images in the ambient of M
        self.relations = relations  # span of syzygies in free coords

    @property
    def g(self) -> int:
        return len(self.gens)

    def relation_rows_r(self) -> list[list[GroupRingElt]]:
        """Relation matrix as rows of R-elements (R-generators of syzygies)."""
        free = free_module(self.ring, self.g)
        sub = FpModule(self.ring, free.dim, free.gamma, self.relations, free.den, check=False)
        m = self.ring.m
        return [[self.ring.elt(row[j * m:(j + 1) * m]) for j in range(self.g)]
                for row in r_generators(sub)]


def presentation(mod: FpModule) -> Presentation:
    gens = r_generators(mod)
    if not gens:
        return Presentation(mod.ring, [], la.Span.zero(0, mod.p, mod.n))
    gmat = mod.gamma_orbit(np.array(gens, dtype=np.int64))
    return Presentation(mod.ring, gens, la.preimage(gmat, mod.den))


def fitting_ideal(mod: FpModule, i: int) -> la.Span:
    """i-th Fitting ideal: (g - i) x (g - i) minors of a presentation."""
    if i < 0:
        raise ValueError("Fitting index must be nonnegative")
    pres = presentation(mod)
    return fitting_from_matrix(mod.ring, pres.g, pres.relation_rows_r(), i)


def annihilates(ideal: la.Span, mod: FpModule) -> bool:
    """Whether every generator of the ideal of R kills every generator of the module."""
    for row in ideal.h:
        x = mod.ring.elt(row)
        if not mod.den.contains(la.mul_mod(mod.num.h, mod.scale_matrix(x), mod.m)):
            return False
    return True


def dual(mod: FpModule) -> FpModule:
    """Scalar dual subquotient representing Hom(M, R).

    Functionals are ambient vectors phi with phi(v) = sum_i v_i phi_i;
    gamma acts by precomposition, i.e. by the transposed gamma matrix.
    On a free module, ``rcoords_from_functional`` reads off the
    R-coordinates of the R-valued functional.
    """
    num = la.kernel(mod.den.h.T, mod.p, mod.n)
    den = la.kernel(mod.num.h.T, mod.p, mod.n)
    return FpModule(mod.ring, mod.dim, mod.gamma.T % mod.m, num, den, check=False)
